//! # sampcert — a Rust reproduction of *Verified Foundations for
//! Differential Privacy* (PLDI 2025)
//!
//! SampCert is the first comprehensive, mechanized foundation for
//! *executable* differential privacy: a generic, extensible notion of DP
//! with pure-DP and zCDP instantiations, a framework for building and
//! composing DP mechanisms, and formally verified discrete Laplace and
//! Gaussian samplers, all written in Lean 4 and extracted for deployment
//! at AWS. This workspace rebuilds that system in Rust, replacing the Lean
//! proof layer with an executable verification layer (exact mass-function
//! semantics, decidable divergence checkers, statistical validation); see
//! `ARCHITECTURE.md` for the substitution map and `README.md` for the
//! reproduced evaluation.
//!
//! This facade crate re-exports the workspace's layers, bottom-up, in the
//! order of the paper's Fig. 1:
//!
//! | layer | crate | paper |
//! |---|---|---|
//! | [`arith`] | exact big-number arithmetic | Lean `Nat`/`Int`/`Rat` + Mathlib |
//! | [`slang`] | the 4-operator probabilistic language, two interpreters | Fig. 3, §3.1 |
//! | [`samplers`] | discrete Laplace & Gaussian samplers | §3.2–3.3 |
//! | [`core`] | abstract DP, pure/zCDP/Rényi instances, noise, budgets | §2 |
//! | [`mechanisms`] | count/sum/mean/histogram/SVT | §2.3, App. A & B |
//! | [`baselines`] | `sample_dgauss`, diffprivlib, Mironov | §4.2 |
//! | [`stattest`] | KS/χ², divergences, DP falsifier | fn. 10, §5 |
//! | [`extract`] | deep IR → bytecode VM extraction pipeline | §4.1, App. C |
//!
//! ## Quickstart: the `Session` front door
//!
//! Serving goes through one composable surface: a [`Session`] built by
//! choosing the budget carrier (`f64` or exact dyadic), the accountant
//! (ledger or Rényi meter, global or sharded), the executor (inline or the
//! [`rt::RtExecutor`] draw pool) and the entropy backend (OS or a replayable
//! split seed) — then answering [`Request`]s. Illegal combinations (a
//! sharded accountant on a single-lane executor) do not compile.
//!
//! ```
//! use sampcert::core::{count_query, CheckOptions, Private, PureDp, Request, Session};
//!
//! // An ε = 1 differentially private count of a sensitive database,
//! // served from a budget-metered session (ε = 2 total, OS entropy).
//! let private_count: Private<PureDp, u32, i64> =
//!     Private::noised_query(&count_query(), 1, 1);
//! let mut session = Session::<PureDp>::builder().ledger(2.0).inline().build();
//!
//! let genomes: Vec<u32> = (0..1000).collect();
//! let released = session
//!     .answer(&Request::from_private(&private_count, "count"), &genomes)
//!     .expect("within budget");
//! assert!((released - 1000).abs() < 100); // tight ε=1 noise
//! assert_eq!(session.accountant().spent(), 1.0);
//!
//! // And check the claimed bound on a real neighbouring pair (the
//! // low-level path: `Private` + divergence checkers, unchanged):
//! private_count
//!     .check_pair(&genomes, &genomes[1..].to_vec(), CheckOptions::default())
//!     .expect("the noised count is 1-DP");
//! ```
//!
//! The pre-`Session` entry points (`Private::run` with an explicit byte
//! source, `histogram_batch`, `Mechanism::run_many_into`, …) remain the
//! unmetered primitives underneath and stay available; every metered
//! release goes through the session.

pub use sampcert_arith as arith;
pub use sampcert_baselines as baselines;
pub use sampcert_core as core;
pub use sampcert_extract as extract;
pub use sampcert_mechanisms as mechanisms;
pub use sampcert_rt as rt;
pub use sampcert_samplers as samplers;
pub use sampcert_slang as slang;
pub use sampcert_stattest as stattest;

// The front door, hoisted to the crate root: `sampcert::Session` is the
// intended first touch of the API (the full set of session types stays in
// [`core`]).
pub use sampcert_core::{Entropy, Request, Session, SessionError};
