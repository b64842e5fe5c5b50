//! # sampcert-core
//!
//! The abstract differential-privacy layer of the SampCert reproduction
//! (paper Section 2): mechanisms with dual (executable + analytic)
//! semantics, the `AbstractDP` interface and its pure-DP / zCDP / Rényi-DP
//! instantiations, calibrated noise (`DPNoise`), budget-typed composition,
//! and the conversion lemmas between notions.
//!
//! The key substitution relative to the Lean original: `prop` — an
//! undecidable proposition in Lean — is interpreted by **decidable
//! divergences** on analytic output distributions, and the composition
//! *lemmas* become the only *constructors* of [`Private`] values. See
//! `ARCHITECTURE.md` at the workspace root for the full mapping.
//!
//! ## Example: a private count, two ways
//!
//! ```
//! use sampcert_core::*;
//! use sampcert_slang::SeededByteSource;
//!
//! let count = count_query::<u32>();
//!
//! // Pure DP with Laplace noise at ε = 1:
//! let pure: Private<PureDp, u32, i64> = Private::noised_query(&count, 1, 1);
//!
//! // zCDP with Gaussian noise at ρ = 1/2:
//! let conc: Private<Zcdp, u32, i64> = Private::noised_query(&count, 1, 1);
//!
//! let db = vec![1, 2, 3, 4, 5];
//! let mut src = SeededByteSource::new(7);
//! let _ = (pure.run(&db, &mut src), conc.run(&db, &mut src));
//!
//! // Check the claimed bounds on actual neighbours:
//! pure.check_pair(&db, &db[1..].to_vec(), CheckOptions::default()).unwrap();
//! conc.check_pair(&db, &db[1..].to_vec(), CheckOptions::default()).unwrap();
//! ```

mod abstract_dp;
mod accountant;
mod approx;
mod budget;
mod convert;
mod journal;
mod mechanism;
mod neighbour;
mod noise;
mod private;
mod query;
mod registry;
mod session;

pub use abstract_dp::{AbstractDp, PureDp, RenyiDp, Zcdp};
pub use accountant::{BudgetExceeded, Ledger, RdpAccountant};
pub use approx::{ApproxBudget, ApproxPrivate};
pub use budget::Budget;
pub use convert::{approx_dp_of, pure_to_renyi, pure_to_zcdp, zcdp_to_renyi};
pub use journal::{
    replay, CompactionPolicy, DurableChargeError, DurableOptions, DurableRegistry, FaultPlan,
    FileStorage, JournalError, JournalStorage, MemStorage, Recovery, RecoveryError, RecoveryReport,
    ReplaceFault,
};
pub use mechanism::Mechanism;
pub use neighbour::{insertions, is_neighbour, neighbours, removals};
pub use noise::DpNoise;
pub use private::{CheckOptions, PrivacyViolation, Private};
pub use query::{bounded_sum_query, count_query, Query, SensitivityViolation};
pub use registry::{BudgetRegistry, RegistryView};
pub use session::{
    lane_partition, Accountant, AdmissionPolicy, AdmissionShed, Entropy, Executor, ExecutorFailure,
    IngressGauge, Inline, NoAccountant, NoExecutor, Planned, PrincipalAccountant, QueueFull,
    RdpCurve, RdpMeter, Request, Session, SessionBuilder, SessionError,
};
// Re-exported so budget users don't need a direct arith dependency.
pub use sampcert_arith::Dyadic;
