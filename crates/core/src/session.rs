//! The front door: one typestate [`Session`] over every accountant ×
//! executor × entropy combination.
//!
//! The serving surface varies along independent axes — batching
//! ([`Session::answer_many`]), the accountant and concurrency (a pooled
//! executor's draw lanes). A [`Session`] closes the configuration space
//! behind a single builder. Every session meters exactly in the
//! [`Dyadic`](sampcert_arith::Dyadic) budget carrier; the builder
//! chooses:
//!
//! - the **accountant** (pure-notion [`Ledger`], Rényi [`RdpMeter`], or
//!   a per-principal registry) — [`SessionBuilder::ledger`],
//!   [`SessionBuilder::rdp`], [`SessionBuilder::registry`];
//! - the **executor** (the in-core single-lane [`Inline`], or any other
//!   [`Executor`] such as `sampcert-rt`'s `RtExecutor` draw pool)
//!   — [`SessionBuilder::inline`] / [`SessionBuilder::executor`];
//! - the **entropy backend** ([`Entropy::Os`] or a replayable
//!   [`Entropy::Seeded`] split-seed tree) — [`SessionBuilder::entropy`].
//!
//! Serving goes through three polymorphic methods —
//! [`Session::answer`], [`Session::answer_many`] and
//! [`Session::stream_into`] — each taking a [`Request`]: a mechanism plus
//! its privacy price, constructed from raw calibrated noise
//! ([`Request::noise`]), any typed [`Private`] mechanism
//! ([`Request::from_private`]), or the request constructors in
//! `sampcert-mechanisms` (histogram, workload, SVT, count, mean). Every
//! serve is **charge-before-serve**, written once in
//! [`Session::stream_into`] (and its per-principal twin): the
//! accountant's [`charge`](Accountant::charge) prices the whole batch
//! (n answers × the request's price) once, and only then does the
//! executor draw, on one lane or many. A refused request therefore
//! spends nothing, releases nothing and touches no byte source. The
//! released bytes are identical to the unmetered primitives' on the same
//! streams (pinned by `tests/session_api.rs`).
//!
//! # Per-principal and durable sessions
//!
//! The registry accountant, [`SessionBuilder::registry`], gives every
//! *principal* (user id) its own allowance in a
//! [`BudgetRegistry`](crate::BudgetRegistry); chaining
//! [`SessionBuilder::durable`] puts a write-ahead charge journal
//! (`crate::DurableRegistry`) underneath it, with crash recovery
//! replayed at the builder step. Per-principal sessions build with
//! [`SessionBuilder::build_per_principal`] and serve through
//! [`Session::answer_for`] / [`Session::answer_many_for`] /
//! [`Session::stream_into_for`]; the principal-less [`Session::answer`]
//! does not type-check on them — who pays is part of the request, not a
//! convention:
//!
//! ```compile_fail
//! use sampcert_core::{PureDp, Request, Session};
//! let mut s = Session::<PureDp>::builder()
//!     .registry(1.0)
//!     .inline()
//!     .build_per_principal();
//! let req: Request<PureDp, (), i64> = Request::noise(2, 1);
//! // No principal named, no charge attributable: rejected at compile
//! // time (a registry session has no global `answer`).
//! let _ = s.answer(&req, &[]);
//! ```
//!
//! ```
//! use sampcert_core::{PureDp, Request, Session};
//!
//! let mut s = Session::<PureDp>::builder()
//!     .registry(1.0)
//!     .inline()
//!     .seeded(5)
//!     .build_per_principal();
//! let req: Request<PureDp, (), i64> = Request::noise(2, 1); // ε = 1/2 per draw
//!
//! s.answer_for(1, &req, &[]).unwrap();
//! s.answer_for(1, &req, &[]).unwrap();
//! assert!(s.answer_for(1, &req, &[]).is_err()); // principal 1 is dry...
//! s.answer_for(2, &req, &[]).unwrap(); // ...principal 2 is unaffected
//! ```
//!
//! On durable sessions every admitted charge is journaled and fsynced
//! **before** the answer is drawn; a journal that cannot be written
//! refuses the request ([`SessionError::Journal`], degrade-to-reject —
//! never degrade-to-serve-uncharged).
//!
//! # Async serving and admission control
//!
//! [`Session::answer_async`] / [`Session::answer_for_async`] return
//! futures servable on any executor (the in-tree runtime is
//! `sampcert-rt`). The serve itself is unchanged — the first poll runs
//! the exact charge-then-serve path [`Session::answer`] runs, so the
//! released bytes and the recorded charges are identical — but
//! **admission control** runs when the future is built, *before* any
//! charge is attempted, using the accountant's non-mutating
//! [`can_admit`](Accountant::can_admit) probe. An [`AdmissionPolicy`]
//! (installed with [`SessionBuilder::admission`]) can reject a request in
//! two ways, each with its own [`SessionError`] variant:
//!
//! - [`SessionError::QueueFull`]: the session's ingress queue (tracked
//!   by a shared [`IngressGauge`]) is over the policy's depth bound —
//!   backpressure under overload;
//! - [`SessionError::Shed`]: the accountant's remaining budget (global
//!   ledgers and meters, per-principal registries) says the request
//!   cannot be served — load shedding keyed on the accounting state
//!   itself.
//!
//! The **shed-before-charge invariant**: a shed or queue-full refusal
//! spends nothing, journals nothing, releases nothing, and consumes no
//! entropy — the accountant is exactly as if the request never arrived
//! (pinned by `tests/admission.rs`).
//!
//! # Example
//!
//! ```
//! use sampcert_core::{count_query, Entropy, Private, PureDp, Request, Session};
//!
//! // Global ledger, inline executor, replayable entropy.
//! let mut session = Session::<PureDp>::builder()
//!     .ledger(1.0)
//!     .inline()
//!     .entropy(Entropy::seeded(7))
//!     .build();
//!
//! let count: Private<PureDp, u32, i64> =
//!     Private::noised_query(&count_query(), 1, 4);
//! let req = Request::from_private(&count, "count");
//! let db: Vec<u32> = (0..100).collect();
//!
//! // Four answers, one batched charge of 4 × ε/4 — the whole budget.
//! let answers = session.answer_many(&req, &db, 4).unwrap();
//! assert_eq!(answers.len(), 4);
//! assert_eq!(session.accountant().spent(), 1.0);
//!
//! // A fifth release of the same mechanism no longer fits ε = 1.
//! assert!(session.answer(&req, &db).is_err());
//! ```

use crate::abstract_dp::{AbstractDp, PureDp, Zcdp};
use crate::accountant::{BudgetExceeded, Ledger, RdpAccountant};
use crate::budget::Budget;
use crate::journal::{
    DurableChargeError, DurableOptions, DurableRegistry, FileStorage, JournalError, JournalStorage,
    RecoveryError,
};
use crate::mechanism::Mechanism;
use crate::noise::DpNoise;
use crate::private::Private;
use crate::query::Query;
use crate::registry::BudgetRegistry;
use sampcert_arith::Dyadic;
use sampcert_slang::{ByteSource, OsByteSource, SplitSeed, Value};
use std::future::Future;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Entropy
// ---------------------------------------------------------------------------

/// Where a session's randomness comes from — the entropy axis of the
/// builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entropy {
    /// OS entropy: every executor lane draws from its own operating-system
    /// source. The deployment backend.
    Os,
    /// A replayable [`SplitSeed`] tree: lane `i` draws the pairwise
    /// independent stream `root.stream(i)`. The test/audit backend —
    /// re-building a session with the same seed and lane count replays
    /// identical outputs.
    Seeded(SplitSeed),
}

impl Entropy {
    /// [`Entropy::Seeded`] from a raw root seed
    /// (`Entropy::Seeded(SplitSeed::new(root))`).
    pub fn seeded(root: u64) -> Self {
        Entropy::Seeded(SplitSeed::new(root))
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// An execution-backend failure (a worker died, a pool was misconfigured,
/// a remote backend went away) — the non-budget half of [`SessionError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorFailure {
    reason: String,
}

impl ExecutorFailure {
    /// A failure with a human-readable reason.
    pub fn new(reason: impl Into<String>) -> Self {
        ExecutorFailure {
            reason: reason.into(),
        }
    }

    /// The reason the executor failed.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for ExecutorFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "executor failure: {}", self.reason)
    }
}

impl std::error::Error for ExecutorFailure {}

/// The admission-control refusal behind [`SessionError::Shed`]: the
/// accountant's accounting state proves (see [`Accountant::can_admit`])
/// that the request cannot be served, so it is rejected
/// **before** any charge is attempted. Nothing is spent, journaled, or
/// released, and no entropy is consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionShed {
    reason: String,
}

impl AdmissionShed {
    /// A shed with a human-readable reason naming the refusing headroom
    /// check.
    pub fn new(reason: impl Into<String>) -> Self {
        AdmissionShed {
            reason: reason.into(),
        }
    }

    /// Why the request was shed.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for AdmissionShed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request shed before charging: {}", self.reason)
    }
}

impl std::error::Error for AdmissionShed {}

/// The backpressure refusal behind [`SessionError::QueueFull`]: the
/// session's ingress queue depth (read from the shared [`IngressGauge`])
/// exceeded the [`AdmissionPolicy`]'s configured bound. Nothing was
/// charged or released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    depth: usize,
    bound: usize,
}

impl QueueFull {
    /// A queue-full refusal observed at `depth` against `bound`.
    pub fn new(depth: usize, bound: usize) -> Self {
        QueueFull { depth, bound }
    }

    /// The queue depth observed at admission time.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The policy's configured depth bound.
    pub fn bound(&self) -> usize {
        self.bound
    }
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingress queue full: depth {} exceeds bound {}",
            self.depth, self.bound
        )
    }
}

impl std::error::Error for QueueFull {}

/// Everything [`Session::answer`] and friends can refuse with: the budget
/// ran dry, the execution backend failed, or (on the async surface)
/// admission control rejected the request before charging.
///
/// Every variant chains its cause through
/// [`std::error::Error::source`], so `anyhow`-style error walks see the
/// underlying [`BudgetExceeded`] (with its carrier and principal
/// attribution),
/// [`ExecutorFailure`], [`JournalError`], [`AdmissionShed`] or
/// [`QueueFull`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError<B: Budget = Dyadic> {
    /// The accountant refused the charge, or the batch's unit count
    /// (answers × units per answer) does not fit a `u64`; nothing was
    /// spent, released, or drawn.
    Budget(BudgetExceeded<B>),
    /// The execution backend failed; any budget charged for the refused
    /// answers stays spent (the conservative direction).
    Executor(ExecutorFailure),
    /// A durable session's write-ahead journal could not durably record
    /// the charge. The policy is **degrade-to-reject**: the charge was
    /// not applied and nothing was released — a session never degrades to
    /// serving uncharged. The journal also latches closed on the first
    /// write failure (a failed append can leave a torn fragment, and
    /// writing past it would make the whole log unrecoverable), so every
    /// later charge is refused too; recovery is a restart — rebuild the
    /// session over the surviving journal, whose tail the torn-tail rule
    /// handles.
    Journal(JournalError),
    /// Admission control shed the request **before any charge was
    /// attempted**: the accountant's remaining budget proves the request
    /// cannot be served. Nothing was spent, journaled,
    /// or released — the shed-before-charge invariant. Only the async
    /// surface ([`Session::answer_async`]) sheds; the synchronous paths
    /// run the authoritative charge check directly.
    Shed(AdmissionShed),
    /// The session's ingress queue is over the [`AdmissionPolicy`]'s
    /// depth bound — backpressure under overload. Nothing was charged or
    /// released; the caller should retry later or route elsewhere.
    QueueFull(QueueFull),
}

impl<B: Budget> SessionError<B> {
    /// The budget refusal, if that is what this error is.
    pub fn as_budget(&self) -> Option<&BudgetExceeded<B>> {
        match self {
            SessionError::Budget(e) => Some(e),
            SessionError::Executor(_)
            | SessionError::Journal(_)
            | SessionError::Shed(_)
            | SessionError::QueueFull(_) => None,
        }
    }

    /// The journal failure, if that is what this error is.
    pub fn as_journal(&self) -> Option<&JournalError> {
        match self {
            SessionError::Journal(e) => Some(e),
            SessionError::Budget(_)
            | SessionError::Executor(_)
            | SessionError::Shed(_)
            | SessionError::QueueFull(_) => None,
        }
    }

    /// The admission shed, if that is what this error is.
    pub fn as_shed(&self) -> Option<&AdmissionShed> {
        match self {
            SessionError::Shed(e) => Some(e),
            _ => None,
        }
    }

    /// The queue-full backpressure refusal, if that is what this error
    /// is.
    pub fn as_queue_full(&self) -> Option<&QueueFull> {
        match self {
            SessionError::QueueFull(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this refusal came from admission control
    /// ([`Shed`](SessionError::Shed) or
    /// [`QueueFull`](SessionError::QueueFull)) — i.e. whether the
    /// shed-before-charge invariant guarantees this request spent
    /// nothing at all.
    pub fn is_admission(&self) -> bool {
        matches!(self, SessionError::Shed(_) | SessionError::QueueFull(_))
    }
}

impl<B: Budget> std::fmt::Display for SessionError<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Budget(_) => write!(f, "session refused: privacy budget exceeded"),
            SessionError::Executor(_) => write!(f, "session refused: executor failure"),
            SessionError::Journal(_) => {
                write!(
                    f,
                    "session refused: journal failure (nothing charged, nothing released)"
                )
            }
            SessionError::Shed(_) => {
                write!(
                    f,
                    "session refused: shed before charging (admission control)"
                )
            }
            SessionError::QueueFull(_) => {
                write!(f, "session refused: ingress queue full (backpressure)")
            }
        }
    }
}

impl<B: Budget> std::error::Error for SessionError<B> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Budget(e) => Some(e),
            SessionError::Executor(e) => Some(e),
            SessionError::Journal(e) => Some(e),
            SessionError::Shed(e) => Some(e),
            SessionError::QueueFull(e) => Some(e),
        }
    }
}

impl<B: Budget> From<BudgetExceeded<B>> for SessionError<B> {
    fn from(e: BudgetExceeded<B>) -> Self {
        SessionError::Budget(e)
    }
}

impl<B: Budget> From<ExecutorFailure> for SessionError<B> {
    fn from(e: ExecutorFailure) -> Self {
        SessionError::Executor(e)
    }
}

impl<B: Budget> From<JournalError> for SessionError<B> {
    fn from(e: JournalError) -> Self {
        SessionError::Journal(e)
    }
}

impl<B: Budget> From<AdmissionShed> for SessionError<B> {
    fn from(e: AdmissionShed) -> Self {
        SessionError::Shed(e)
    }
}

impl<B: Budget> From<QueueFull> for SessionError<B> {
    fn from(e: QueueFull) -> Self {
        SessionError::QueueFull(e)
    }
}

impl<B: Budget> From<DurableChargeError<B>> for SessionError<B> {
    fn from(e: DurableChargeError<B>) -> Self {
        match e {
            DurableChargeError::Budget(e) => SessionError::Budget(e),
            DurableChargeError::Journal(e) => SessionError::Journal(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

/// An execution backend: something that can draw `n` independent outputs
/// of a mechanism. Implemented by the in-core [`Inline`] executor and by
/// `sampcert-rt`'s `RtExecutor` draw pool; future multi-process backends
/// slot in behind the same trait.
///
/// The contract every implementation honours (and the equivalence suite
/// pins): the `n` outputs are what `n` sequential
/// [`Mechanism::run`](crate::Mechanism::run) calls would draw from the
/// backend's stream(s) — execution changes *which verified stream* a draw
/// comes from, never the distribution it is drawn from.
pub trait Executor {
    /// Builds the executor from the session's [`Entropy`] choice and a
    /// requested lane count — what lets
    /// `SessionBuilder::executor::<E>(lanes)` stay generic over backends
    /// the core crate cannot name (such as `sampcert-rt`'s `RtExecutor`).
    /// `lanes` is a request, not a command: a backend may clamp it (e.g.
    /// [`Inline`] always has one lane).
    fn spawn(entropy: Entropy, lanes: usize) -> Self
    where
        Self: Sized;

    /// Number of independent lanes (byte streams) this executor serves
    /// from. `1` for [`Inline`]; the worker count for a pool.
    fn lanes(&self) -> usize;

    /// Draws `n` outputs of `mech` for `db`, appending them to `out` in
    /// lane order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorFailure`] when the backend cannot serve (the
    /// in-tree backends are infallible; the error channel exists for
    /// remote/async backends).
    fn run_into<T: Sync + 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), ExecutorFailure>;
}

/// The single-lane executor: draws on the calling thread from one byte
/// source. The sequential baseline every concurrent backend is
/// byte-compared against.
pub struct Inline {
    src: Box<dyn ByteSource + Send>,
}

impl std::fmt::Debug for Inline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Inline { src: <byte source> }")
    }
}

impl Inline {
    /// An inline executor over the given entropy backend. A
    /// [`Entropy::Seeded`] root serves from `root.stream(0)` — the same
    /// stream lane 0 of a pooled executor with the same root serves from.
    pub fn new(entropy: Entropy) -> Self {
        let src: Box<dyn ByteSource + Send> = match entropy {
            Entropy::Os => Box::new(OsByteSource::new()),
            Entropy::Seeded(root) => Box::new(root.stream(0)),
        };
        Inline { src }
    }

    /// An inline executor over an arbitrary byte source.
    pub fn from_source(src: Box<dyn ByteSource + Send>) -> Self {
        Inline { src }
    }
}

impl Executor for Inline {
    /// Ignores `lanes`: inline execution always has exactly one lane.
    fn spawn(entropy: Entropy, _lanes: usize) -> Self {
        Inline::new(entropy)
    }

    fn lanes(&self) -> usize {
        1
    }

    fn run_into<T: Sync + 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), ExecutorFailure> {
        mech.run_many_into(db, n, &mut *self.src, out);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One unit of servable work: a mechanism together with its privacy
/// price, in the shape the accountants charge it.
///
/// A request prices one *answer* as `units` sub-releases of `gamma_unit`
/// each (a histogram answer is `nBins` per-bin releases; most requests
/// are a single release). Charging per unit — converting `gamma_unit`
/// into the budget carrier **before** the `units`-fold composition —
/// keeps the charge identical to what the legacy per-path
/// metering recorded, rounding and all.
///
/// Constructors: [`Request::noise`] (raw calibrated noise),
/// [`Request::from_private`] (any typed mechanism), [`Request::new`] /
/// [`Request::composite`] (hand-built serving paths), plus the
/// mechanism-library constructors in `sampcert-mechanisms`
/// (`histogram_request`, `workload_request`, `svt_request`,
/// `count_request`, `mean_request`).
pub struct Request<D: AbstractDp, T, U: Value> {
    mech: Mechanism<T, U>,
    gamma_unit: f64,
    units: u64,
    label: String,
    _notion: PhantomData<D>,
}

impl<D: AbstractDp, T, U: Value> Clone for Request<D, T, U> {
    fn clone(&self) -> Self {
        Request {
            mech: self.mech.clone(),
            gamma_unit: self.gamma_unit,
            units: self.units,
            label: self.label.clone(),
            _notion: PhantomData,
        }
    }
}

impl<D: AbstractDp, T, U: Value> std::fmt::Debug for Request<D, T, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("label", &self.label)
            .field("notion", &D::NAME)
            .field("gamma_unit", &self.gamma_unit)
            .field("units", &self.units)
            .finish()
    }
}

impl<D: AbstractDp, T: 'static, U: Value> Request<D, T, U> {
    /// A request releasing one `gamma_each`-costing answer per serve.
    ///
    /// # Panics
    ///
    /// Panics if `gamma_each` is negative or not finite.
    pub fn new(mech: Mechanism<T, U>, gamma_each: f64, label: impl Into<String>) -> Self {
        Request::composite(mech, gamma_each, 1, label)
    }

    /// A request whose every answer is priced as `units` sub-releases of
    /// `gamma_unit` (see the type-level docs for why the factorization
    /// matters to the exact carrier).
    ///
    /// # Panics
    ///
    /// Panics if `gamma_unit` is negative or not finite.
    pub fn composite(
        mech: Mechanism<T, U>,
        gamma_unit: f64,
        units: u64,
        label: impl Into<String>,
    ) -> Self {
        assert!(
            gamma_unit.is_finite() && gamma_unit >= 0.0,
            "invalid privacy parameter"
        );
        Request {
            mech,
            gamma_unit,
            units,
            label: label.into(),
            _notion: PhantomData,
        }
    }

    /// Wraps a typed [`Private`] mechanism as a request costing its
    /// established γ per answer — the bridge from the compositional layer
    /// to the serving layer.
    pub fn from_private(p: &Private<D, T, U>, label: impl Into<String>) -> Self {
        Request::new(p.mechanism().clone(), p.gamma(), label)
    }

    /// The underlying mechanism.
    pub fn mechanism(&self) -> &Mechanism<T, U> {
        &self.mech
    }

    /// The per-sub-release cost (see [`units`](Self::units)).
    pub fn gamma_unit(&self) -> f64 {
        self.gamma_unit
    }

    /// Sub-releases per answer.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// The composed privacy cost of one answer:
    /// `compose_n(gamma_unit, units)`.
    pub fn gamma_each(&self) -> f64 {
        D::compose_n(self.gamma_unit, self.units)
    }

    /// The ledger label charges are recorded under.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<D: DpNoise, T: 'static> Request<D, T, i64> {
    /// Raw calibrated noise at scale `num/den` for notion `D` — discrete
    /// Laplace with scale `num/den` under [`PureDp`], discrete Gaussian
    /// with σ = `num/den` under [`Zcdp`]. The privacy price per draw
    /// falls out of the calibration:
    /// [`noise_priv`](crate::DpNoise::noise_priv)`(den, num)` (ε = den/num
    /// for Laplace, ρ = ½(den/num)² for Gaussian — the sensitivity-1
    /// noised-constant reading of a raw draw).
    ///
    /// Serve with any database (the value is ignored); `&[]` works.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    pub fn noise(num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "noise: zero scale parameter");
        let q: Query<T> = Query::new(format!("noise[{num}/{den}]"), 1, |_| 0);
        Request::new(
            D::noise(&q, den, num),
            D::noise_priv(den, num),
            format!("noise[{num}/{den}]"),
        )
    }
}

// ---------------------------------------------------------------------------
// Rényi metering
// ---------------------------------------------------------------------------

/// Notions whose γ-releases induce a full Rényi curve, i.e. notions an
/// [`RdpMeter`] can account for. Implemented for [`PureDp`]
/// (Bun–Steinke: `D_α ≤ min(ε, α·ε²/2)`) and [`Zcdp`] (Definition 2.2:
/// `D_α ≤ α·ρ`). `RenyiDp<A>` deliberately does **not** implement it — a
/// single-order bound does not determine the curve at other orders, so
/// RDP-of-RDP sessions are statically unrepresentable.
pub trait RdpCurve: AbstractDp {
    /// The Rényi bound `D_α` implied by one γ-release under this notion.
    fn rdp_curve(gamma: f64, alpha: f64) -> f64;
}

impl RdpCurve for PureDp {
    fn rdp_curve(gamma: f64, alpha: f64) -> f64 {
        gamma.min(alpha * gamma * gamma / 2.0)
    }
}

impl RdpCurve for Zcdp {
    fn rdp_curve(gamma: f64, alpha: f64) -> f64 {
        alpha * gamma
    }
}

/// An [`RdpAccountant`] with an enforced `(ε, δ)` policy: charges are
/// admitted only while the optimized conversion
/// [`RdpAccountant::epsilon`] stays within the stated ε budget at the
/// stated δ.
///
/// The budget check runs in reported-ε space (`f64`); the per-order
/// totals *accumulate* exactly in the carrier `B`, with each per-release
/// increment rounded up as everywhere else in the accounting layer.
#[derive(Debug, Clone)]
pub struct RdpMeter<B: Budget = Dyadic> {
    acct: RdpAccountant<B>,
    delta: f64,
    budget_eps: f64,
}

impl<B: Budget> RdpMeter<B> {
    /// A meter over the conventional order grid enforcing `ε ≤ budget_eps`
    /// at `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `(0, 1)` or `budget_eps` is negative
    /// or not finite.
    pub fn new(delta: f64, budget_eps: f64) -> Self {
        RdpMeter::with_orders(RdpAccountant::default_order_grid(), delta, budget_eps)
    }

    /// A meter over a custom order grid.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new), plus the grid requirements of
    /// [`RdpAccountant::with_orders`].
    pub fn with_orders(orders: Vec<f64>, delta: f64, budget_eps: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta outside (0,1)");
        assert!(
            budget_eps.is_finite() && budget_eps >= 0.0,
            "invalid epsilon budget"
        );
        RdpMeter {
            acct: RdpAccountant::with_orders(orders),
            delta,
            budget_eps,
        }
    }

    /// The accumulated accountant.
    pub fn accountant(&self) -> &RdpAccountant<B> {
        &self.acct
    }

    /// The enforced `(budget_eps, delta)` policy.
    pub fn policy(&self) -> (f64, f64) {
        (self.budget_eps, self.delta)
    }

    /// The `(ε, optimizing α)` implied by the spending so far, at the
    /// policy δ.
    pub fn epsilon(&self) -> (f64, f64) {
        self.acct.epsilon(self.delta)
    }

    /// The accountant after `count` more releases of `gamma` under notion
    /// `D` if its ε at the policy δ still fits the budget, or else that
    /// ε — the one trial composition the charge and the admission probe
    /// share.
    fn trial<D: RdpCurve>(&self, gamma: f64, count: u64) -> Result<RdpAccountant<B>, f64> {
        let mut trial = self.acct.clone();
        trial.add_curve_n(|a| D::rdp_curve(gamma, a), count);
        let (eps, _) = trial.epsilon(self.delta);
        if eps > self.budget_eps {
            return Err(eps);
        }
        Ok(trial)
    }
}

/// The lane-partition rule of the pooled draw plane: `n` answers split
/// into contiguous per-lane counts, the first `n % lanes` lanes one
/// longer. The `RtExecutor` draw pool serves by exactly this rule, which
/// is what makes a pooled batch equal a per-lane sequential replay.
pub fn lane_partition(n: usize, lanes: usize) -> Vec<usize> {
    let base = n / lanes;
    let rem = n % lanes;
    (0..lanes).map(|i| base + usize::from(i < rem)).collect()
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// A cheaply clonable depth gauge for a session's ingress queue — the
/// link between a queue living outside the session (the `sampcert-rt`
/// bounded ingress, or any hand-rolled arrival buffer) and the
/// [`AdmissionPolicy`]'s depth bound.
///
/// The producer side calls [`enter`](Self::enter) when a request is
/// enqueued and the consumer side calls [`leave`](Self::leave) when it is
/// dequeued for service; [`Session::answer_async`] reads
/// [`depth`](Self::depth) at admission time. Clones share one counter.
#[derive(Debug, Clone, Default)]
pub struct IngressGauge {
    depth: Arc<AtomicUsize>,
}

impl IngressGauge {
    /// A fresh gauge at depth zero.
    pub fn new() -> Self {
        IngressGauge::default()
    }

    /// Records one request entering the queue; returns the depth
    /// including it.
    pub fn enter(&self) -> usize {
        self.depth.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Records one request leaving the queue. Saturates at zero (an
    /// unpaired `leave` is a caller bug, but must not wrap the gauge to
    /// `usize::MAX` and wedge admission shut).
    pub fn leave(&self) {
        let _ = self
            .depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// The current queue depth.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }
}

/// What [`Session::answer_async`] / [`Session::answer_for_async`] check
/// **before** attempting any charge. Installed with
/// [`SessionBuilder::admission`]; the default ([`open`](Self::open))
/// admits everything, which keeps `answer_async` behaviourally identical
/// to [`Session::answer`].
///
/// Two independent gates:
///
/// - a **queue depth bound** ([`max_queue_depth`](Self::max_queue_depth)):
///   requests arriving while the shared [`IngressGauge`] reads *more
///   than* `bound` waiting requests are refused with
///   [`SessionError::QueueFull`];
/// - **budget-keyed shedding** ([`shed_unservable`](Self::shed_unservable)):
///   requests the accountant's [`can_admit`](Accountant::can_admit)
///   probe proves unservable are refused with [`SessionError::Shed`]
///   without touching the accountant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    max_queue_depth: Option<usize>,
    shed_unservable: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::open()
    }
}

impl AdmissionPolicy {
    /// The admit-everything policy: no depth bound, no budget shedding.
    pub fn open() -> Self {
        AdmissionPolicy {
            max_queue_depth: None,
            shed_unservable: false,
        }
    }

    /// Refuse requests arriving while the ingress queue holds more than
    /// `bound` waiting requests ([`SessionError::QueueFull`]).
    pub fn max_queue_depth(mut self, bound: usize) -> Self {
        self.max_queue_depth = Some(bound);
        self
    }

    /// Enable budget-keyed load shedding: refuse requests the
    /// accountant's [`can_admit`](Accountant::can_admit) probe proves
    /// cannot be served ([`SessionError::Shed`]), before any charge is
    /// attempted.
    pub fn shed_unservable(mut self) -> Self {
        self.shed_unservable = true;
        self
    }

    /// The configured queue depth bound, if any.
    pub fn queue_bound(&self) -> Option<usize> {
        self.max_queue_depth
    }

    /// Whether budget-keyed shedding is enabled.
    pub fn sheds_unservable(&self) -> bool {
        self.shed_unservable
    }
}

// ---------------------------------------------------------------------------
// Accountants
// ---------------------------------------------------------------------------

/// A global accountant ([`Ledger`], [`RdpMeter`]): the one charge step
/// every serve of a global session runs, and its non-mutating admission
/// probe. [`Session::stream_into`] charges the whole batch once through
/// [`charge`](Self::charge) and only then hands it to the executor.
pub trait Accountant<D: AbstractDp, B: Budget> {
    /// Records `units` releases of `gamma_unit` under `label` as one
    /// all-or-nothing charge; a refusal leaves the accountant unchanged.
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] when the batch does not fit.
    fn charge(&mut self, label: &str, gamma_unit: f64, units: u64) -> Result<(), SessionError<B>>;

    /// Whether [`charge`](Self::charge) of the same batch would succeed
    /// right now, without recording anything — the probe behind
    /// budget-keyed load shedding ([`AdmissionPolicy::shed_unservable`]).
    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool;
}

impl<D: AbstractDp, B: Budget> Accountant<D, B> for Ledger<D, B> {
    fn charge(&mut self, label: &str, gamma_unit: f64, units: u64) -> Result<(), SessionError<B>> {
        Ok(self.charge_batch(label, gamma_unit, units)?)
    }

    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool {
        self.admits(&B::compose_n::<D>(&B::charge_from_f64(gamma_unit), units))
    }
}

impl<D: RdpCurve, B: Budget> Accountant<D, B> for RdpMeter<B> {
    fn charge(&mut self, _label: &str, gamma_unit: f64, units: u64) -> Result<(), SessionError<B>> {
        match self.trial::<D>(gamma_unit, units) {
            Ok(trial) => {
                self.acct = trial;
                Ok(())
            }
            Err(eps) => {
                let (current, _) = self.acct.epsilon(self.delta);
                // Requested/remaining are reported in ε-at-δ space — the
                // space the policy is stated in.
                Err(SessionError::Budget(BudgetExceeded::new(
                    B::charge_from_f64((eps - current).max(0.0)),
                    B::budget_from_f64((self.budget_eps - current).max(0.0)),
                )))
            }
        }
    }

    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool {
        self.trial::<D>(gamma_unit, units).is_ok()
    }
}

/// The per-principal twin of [`Accountant`]: the charge lands on one
/// principal's allowance inside a [`BudgetRegistry`] (in-memory) or
/// [`DurableRegistry`] (write-ahead journaled). Per-principal sessions
/// are built with [`SessionBuilder::build_per_principal`] and serve
/// through [`Session::answer_for`] — the principal-less
/// [`Session::answer`] does not exist on them (no [`Accountant`] impl),
/// and vice versa.
pub trait PrincipalAccountant<D: AbstractDp, B: Budget> {
    /// Records `units` releases of `gamma_unit` against `principal` as
    /// one all-or-nothing charge — for durable registries, returning
    /// only once the charge is durably journaled.
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] when the batch does not fit the
    /// principal's allowance, [`SessionError::Journal`] when a durable
    /// registry cannot journal the charge (degrade-to-reject).
    fn charge_for(
        &mut self,
        principal: u64,
        gamma_unit: f64,
        units: u64,
    ) -> Result<(), SessionError<B>>;

    /// Whether [`charge_for`](Self::charge_for) of the same batch would
    /// succeed right now (with no other charge in flight), without
    /// recording anything.
    fn can_admit_for(&self, principal: u64, gamma_unit: f64, units: u64) -> bool;
}

impl<D: AbstractDp, B: Budget> PrincipalAccountant<D, B> for BudgetRegistry<D, B> {
    fn charge_for(
        &mut self,
        principal: u64,
        gamma_unit: f64,
        units: u64,
    ) -> Result<(), SessionError<B>> {
        Ok(self.charge_batch(principal, gamma_unit, units)?)
    }

    fn can_admit_for(&self, principal: u64, gamma_unit: f64, units: u64) -> bool {
        let total = B::compose_n::<D>(&B::charge_from_f64(gamma_unit), units);
        self.check_exact(principal, &total).is_ok()
    }
}

impl<D: AbstractDp, B: Budget, S: JournalStorage> PrincipalAccountant<D, B>
    for DurableRegistry<D, B, S>
{
    fn charge_for(
        &mut self,
        principal: u64,
        gamma_unit: f64,
        units: u64,
    ) -> Result<(), SessionError<B>> {
        Ok(self.charge_batch(principal, gamma_unit, units)?)
    }

    /// Also sheds once the journal has latched closed (every charge would
    /// be refused anyway). Group-commit reservations are not counted: with
    /// charges in flight the probe may admit a request the reserved-aware
    /// charge then refuses, which costs a budget refusal, never an
    /// over-spend.
    fn can_admit_for(&self, principal: u64, gamma_unit: f64, units: u64) -> bool {
        self.journal_error().is_none()
            && self.committed().can_admit_for(principal, gamma_unit, units)
    }
}

// ---------------------------------------------------------------------------
// Builder typestate
// ---------------------------------------------------------------------------

/// Builder state: no accountant chosen yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAccountant;

/// Builder state: no executor chosen yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExecutor;

/// Builder state: executor backend `E` chosen, to be spawned with this
/// many lanes at [`SessionBuilder::build`] time (after the entropy
/// choice, which may still follow).
#[derive(Debug, Clone, Copy)]
pub struct Planned<E> {
    lanes: usize,
    _exec: PhantomData<E>,
}

/// How many lock shards a session's per-principal registry
/// ([`SessionBuilder::registry`], [`SessionBuilder::durable`]) spreads
/// its principals over. Purely a contention knob — a session charges on
/// its own thread, and durable charges commit through the journal's
/// group-commit queue anyway; callers who care build the registry
/// directly ([`BudgetRegistry::with_budget`],
/// [`DurableRegistry::open_with_options`]).
const LOCK_SHARDS: usize = 8;

/// The typestate builder behind [`Session::builder`]; see the
/// module-level docs above for the axes and an example.
///
/// Type parameters track the choices made so far: `B` the budget carrier
/// (always [`Dyadic`]), `A` the accountant (or [`NoAccountant`]), `X` the
/// executor choice (or [`NoExecutor`]). [`build`](Self::build) only
/// exists once an accountant and an executor are chosen.
#[derive(Debug)]
pub struct SessionBuilder<D: AbstractDp, B: Budget = Dyadic, A = NoAccountant, X = NoExecutor> {
    accountant: A,
    executor: X,
    entropy: Entropy,
    admission: AdmissionPolicy,
    ingress: IngressGauge,
    _notion: PhantomData<D>,
    _carrier: PhantomData<B>,
}

impl<D: AbstractDp, B: Budget, A, X> SessionBuilder<D, B, A, X> {
    /// Selects the entropy backend (default: [`Entropy::Os`]). May be
    /// called at any point in the chain.
    pub fn entropy(mut self, entropy: Entropy) -> Self {
        self.entropy = entropy;
        self
    }

    /// Shorthand for `.entropy(Entropy::seeded(root))`.
    pub fn seeded(self, root: u64) -> Self {
        self.entropy(Entropy::seeded(root))
    }

    /// Installs the [`AdmissionPolicy`] the async surface
    /// ([`Session::answer_async`] / [`Session::answer_for_async`])
    /// checks before charging (default: [`AdmissionPolicy::open`] —
    /// admit everything). May be called at any point in the chain.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Shares an externally owned [`IngressGauge`] with the session, so
    /// the queue feeding it (e.g. the `sampcert-rt` bounded ingress) and
    /// the admission depth bound read the same counter. The default is a
    /// private gauge nothing increments — retrieve it with
    /// [`Session::ingress_gauge`] instead if the session is built first.
    pub fn ingress(mut self, gauge: IngressGauge) -> Self {
        self.ingress = gauge;
        self
    }

    /// The same builder with the accountant and executor states mapped by
    /// `f`; every other choice carries over.
    fn map<A2, X2>(self, f: impl FnOnce(A, X) -> (A2, X2)) -> SessionBuilder<D, B, A2, X2> {
        let (accountant, executor) = f(self.accountant, self.executor);
        SessionBuilder {
            accountant,
            executor,
            entropy: self.entropy,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }
}

impl<D: AbstractDp, B: Budget, X> SessionBuilder<D, B, NoAccountant, X> {
    /// The identity: every session already meters exactly on the
    /// [`Dyadic`] lattice. Kept so existing builder chains still compile.
    pub fn exact(self) -> Self {
        self
    }

    /// A global [`Ledger`] with the given budget (converted into the
    /// carrier rounding **down**, as everywhere in the accounting layer).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or not finite.
    pub fn ledger(self, budget: f64) -> SessionBuilder<D, B, Ledger<D, B>, X> {
        self.map(|_, x| (Ledger::new(budget), x))
    }

    /// [`ledger`](Self::ledger) with the budget already in the carrier —
    /// the lossless entry point for exact budgets.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not a valid budget quantity.
    pub fn ledger_exact(self, budget: B) -> SessionBuilder<D, B, Ledger<D, B>, X> {
        self.map(|_, x| (Ledger::with_budget(budget), x))
    }

    /// A global [`RdpMeter`] enforcing `ε ≤ budget_eps` at `delta`.
    /// Requires the notion to have a full Rényi curve ([`RdpCurve`]:
    /// [`PureDp`] or [`Zcdp`]).
    ///
    /// # Panics
    ///
    /// As [`RdpMeter::new`].
    pub fn rdp(self, delta: f64, budget_eps: f64) -> SessionBuilder<D, B, RdpMeter<B>, X> {
        self.map(|_, x| (RdpMeter::new(delta, budget_eps), x))
    }

    /// A per-principal [`BudgetRegistry`]: every principal (user id)
    /// carries its own allowance of `per_principal` (converted into the
    /// carrier rounding **down**). Builds with
    /// [`build_per_principal`](Self::build_per_principal) and serves
    /// through [`Session::answer_for`]; upgrade to a crash-safe journaled
    /// registry with [`durable`](Self::durable).
    ///
    /// # Panics
    ///
    /// Panics if `per_principal` is negative or not finite.
    pub fn registry(self, per_principal: f64) -> SessionBuilder<D, B, BudgetRegistry<D, B>, X> {
        self.map(|_, x| (BudgetRegistry::new(per_principal, LOCK_SHARDS), x))
    }

    /// [`registry`](Self::registry) with the allowance already in the
    /// carrier — the lossless entry point for exact budgets.
    ///
    /// # Panics
    ///
    /// Panics if `per_principal` is not a valid budget quantity.
    pub fn registry_exact(self, per_principal: B) -> SessionBuilder<D, B, BudgetRegistry<D, B>, X> {
        self.map(|_, x| (BudgetRegistry::with_budget(per_principal, LOCK_SHARDS), x))
    }
}

impl<D: AbstractDp, B: Budget, X> SessionBuilder<D, B, BudgetRegistry<D, B>, X> {
    /// Upgrades the in-memory registry to a [`DurableRegistry`] backed by
    /// a write-ahead charge journal at `path`: created (with a synced
    /// header) if absent, **replayed** if present — so crash recovery
    /// happens here, at the builder step, and I/O or corruption failures
    /// surface as [`RecoveryError`]s before any serving starts. Once
    /// built, a journal failure on a charge refuses the request without
    /// applying it ([`SessionError::Journal`], degrade-to-reject).
    ///
    /// The recovery report is discarded; callers that need the torn-tail
    /// details use [`DurableRegistry::open_with_options`] directly and
    /// keep the registry.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] if the journal cannot be opened, read, or
    /// replayed.
    pub fn durable(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SessionBuilder<D, B, DurableRegistry<D, B, FileStorage>, X>, RecoveryError> {
        let storage = FileStorage::open(path).map_err(RecoveryError::Io)?;
        self.durable_with_options(storage, DurableOptions::default())
    }

    /// [`durable`](Self::durable) over any [`JournalStorage`] backend —
    /// the fault-injection seam ([`MemStorage`](crate::MemStorage) with a
    /// [`FaultPlan`](crate::FaultPlan)) — with explicit
    /// [`DurableOptions`]: checkpoint cadence and an automatic
    /// [`CompactionPolicy`](crate::CompactionPolicy).
    /// `DurableOptions::default()` is what [`durable`](Self::durable)
    /// uses: compaction off until a policy is supplied.
    ///
    /// # Errors
    ///
    /// As [`durable`](Self::durable).
    pub fn durable_with_options<S: JournalStorage>(
        self,
        storage: S,
        options: DurableOptions,
    ) -> Result<SessionBuilder<D, B, DurableRegistry<D, B, S>, X>, RecoveryError> {
        let (registry, _report) = DurableRegistry::open_with_options(
            self.accountant.per_principal_budget().clone(),
            LOCK_SHARDS,
            storage,
            options,
        )?;
        Ok(self.map(|_, x| (registry, x)))
    }
}

impl<D: AbstractDp, B: Budget, A> SessionBuilder<D, B, A, NoExecutor> {
    /// The single-lane in-process executor — the sequential baseline.
    pub fn inline(self) -> SessionBuilder<D, B, A, Planned<Inline>> {
        self.executor::<Inline>(1)
    }

    /// Any [`Executor`] backend, spawned with (up to) `lanes` lanes at
    /// build time — e.g. `.executor::<RtExecutor>(8)` for the
    /// `sampcert-rt` draw pool. A `lanes` of zero is clamped to one.
    pub fn executor<E: Executor>(self, lanes: usize) -> SessionBuilder<D, B, A, Planned<E>> {
        let planned = Planned {
            lanes: lanes.max(1),
            _exec: PhantomData,
        };
        self.map(|a, _| (a, planned))
    }
}

impl<D: AbstractDp, B: Budget, A, E: Executor> SessionBuilder<D, B, A, Planned<E>> {
    /// Spawns the executor with the chosen entropy and assembles the
    /// session.
    fn finish(self) -> Session<D, B, A, E> {
        Session {
            executor: E::spawn(self.entropy, self.executor.lanes),
            accountant: self.accountant,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }

    /// Spawns the executor and returns the ready session. Only defined
    /// for global accountants; per-principal ones build with
    /// [`build_per_principal`](Self::build_per_principal).
    pub fn build(self) -> Session<D, B, A, E>
    where
        A: Accountant<D, B>,
    {
        self.finish()
    }

    /// [`build`](Self::build) for per-principal sessions
    /// ([`SessionBuilder::registry`] / [`SessionBuilder::durable`]):
    /// every serve names the principal it charges
    /// ([`Session::answer_for`] and friends). The principal-less
    /// [`Session::answer`] does not exist on the built session, and
    /// `build_per_principal` does not exist on global-accountant builders
    /// — the request surface always matches the accounting granularity.
    pub fn build_per_principal(self) -> Session<D, B, A, E>
    where
        A: PrincipalAccountant<D, B>,
    {
        self.finish()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A configured serving session: one accountant, one executor, one
/// entropy backend, one polymorphic surface. Construct via
/// [`Session::builder`]; see the module-level docs above for the full
/// tour.
#[derive(Debug)]
pub struct Session<D: AbstractDp, B: Budget = Dyadic, A = NoAccountant, E = NoExecutor> {
    accountant: A,
    executor: E,
    admission: AdmissionPolicy,
    ingress: IngressGauge,
    _notion: PhantomData<D>,
    _carrier: PhantomData<B>,
}

impl<D: AbstractDp> Session<D> {
    /// Starts a builder with the default axes: the exact [`Dyadic`]
    /// carrier, OS entropy, open admission, no accountant or executor
    /// chosen yet.
    pub fn builder() -> SessionBuilder<D> {
        SessionBuilder {
            accountant: NoAccountant,
            executor: NoExecutor,
            entropy: Entropy::Os,
            admission: AdmissionPolicy::open(),
            ingress: IngressGauge::new(),
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }
}

impl<D: AbstractDp, B: Budget, A, E: Executor> Session<D, B, A, E> {
    /// The session's accountant — inspect spending through the
    /// accountant's own reporting surface
    /// (e.g. [`Ledger::spent`], [`RdpMeter::epsilon`]).
    pub fn accountant(&self) -> &A {
        &self.accountant
    }

    /// The session's executor.
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// The session's [`AdmissionPolicy`] (checked only by the async
    /// surface).
    pub fn admission(&self) -> &AdmissionPolicy {
        &self.admission
    }

    /// A clone of the session's [`IngressGauge`] — hand it to the queue
    /// feeding the session so the admission depth bound reads real
    /// arrivals.
    pub fn ingress_gauge(&self) -> IngressGauge {
        self.ingress.clone()
    }

    /// The shared admission gate: queue depth first (cheapest, and
    /// independent of the request), then budget-keyed shedding via the
    /// caller-evaluated probe verdict.
    fn admission_gate(&self, servable: bool, label: &str) -> Result<(), SessionError<B>> {
        if let Some(bound) = self.admission.queue_bound() {
            let depth = self.ingress.depth();
            if depth > bound {
                return Err(SessionError::QueueFull(QueueFull::new(depth, bound)));
            }
        }
        if self.admission.sheds_unservable() && !servable {
            return Err(SessionError::Shed(AdmissionShed::new(format!(
                "accountant headroom cannot serve request {label:?}"
            ))));
        }
        Ok(())
    }

    /// Dismantles the session into its accountant and executor (e.g. to
    /// fold or archive the spend record).
    pub fn into_parts(self) -> (A, E) {
        (self.accountant, self.executor)
    }

    /// Charges and serves one answer of `req` on `db`.
    ///
    /// # Errors
    ///
    /// See [`stream_into`](Self::stream_into); a refusal spends nothing,
    /// releases nothing and consumes no entropy.
    pub fn answer<T: Sync + 'static, U: Value>(
        &mut self,
        req: &Request<D, T, U>,
        db: &[T],
    ) -> Result<U, SessionError<B>>
    where
        A: Accountant<D, B>,
    {
        let mut out = Vec::with_capacity(1);
        self.stream_into(req, db, 1, &mut out)?;
        out.pop().ok_or_else(no_answer)
    }

    /// Charges and serves `n` independent answers of `req` on `db` — one
    /// batched charge, answers in lane order (byte-identical to the
    /// legacy batched paths; pinned by `tests/session_api.rs`).
    ///
    /// # Errors
    ///
    /// See [`stream_into`](Self::stream_into). All-or-nothing: the batch
    /// is one charge.
    pub fn answer_many<T: Sync + 'static, U: Value>(
        &mut self,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
    ) -> Result<Vec<U>, SessionError<B>>
    where
        A: Accountant<D, B>,
    {
        let mut out = Vec::with_capacity(n);
        self.stream_into(req, db, n, &mut out)?;
        Ok(out)
    }

    /// [`answer_many`](Self::answer_many) into a caller-owned buffer —
    /// the reserve-once, buffer-reusing form for long serving loops, and
    /// the one charge-then-draw step every global serve runs: charge `n`
    /// answers of `req` as one [`Accountant::charge`], and only if the
    /// whole batch fits, draw them through the executor.
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] when the batch does not fit (or its unit
    /// count overflows a `u64`), [`SessionError::Executor`] when the
    /// backend cannot serve. `out` is untouched on refusal.
    pub fn stream_into<T: Sync + 'static, U: Value>(
        &mut self,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>
    where
        A: Accountant<D, B>,
    {
        let units = batch_units(req, n, None)?;
        self.accountant
            .charge(req.label(), req.gamma_unit(), units)?;
        Ok(self.executor.run_into(req.mechanism(), db, n, out)?)
    }

    /// Charges one answer of `req` to `principal` and serves it — the
    /// per-principal twin of [`answer`](Self::answer), on sessions built
    /// with [`SessionBuilder::build_per_principal`].
    ///
    /// # Errors
    ///
    /// See [`stream_into_for`](Self::stream_into_for); a refusal (budget
    /// or journal) releases nothing and consumes no entropy.
    pub fn answer_for<T: Sync + 'static, U: Value>(
        &mut self,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
    ) -> Result<U, SessionError<B>>
    where
        A: PrincipalAccountant<D, B>,
    {
        let mut out = Vec::with_capacity(1);
        self.stream_into_for(principal, req, db, 1, &mut out)?;
        out.pop().ok_or_else(no_answer)
    }

    /// Charges `n` answers of `req` to `principal` as one batched
    /// (all-or-nothing) charge and serves them in lane order — the
    /// per-principal twin of [`answer_many`](Self::answer_many).
    ///
    /// # Errors
    ///
    /// See [`stream_into_for`](Self::stream_into_for).
    pub fn answer_many_for<T: Sync + 'static, U: Value>(
        &mut self,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
    ) -> Result<Vec<U>, SessionError<B>>
    where
        A: PrincipalAccountant<D, B>,
    {
        let mut out = Vec::with_capacity(n);
        self.stream_into_for(principal, req, db, n, &mut out)?;
        Ok(out)
    }

    /// [`answer_many_for`](Self::answer_many_for) into a caller-owned
    /// buffer — the one charge-then-draw step every per-principal serve
    /// runs: charge `n` answers of `req` to `principal` as one
    /// [`PrincipalAccountant::charge_for`] (for durable registries, only
    /// once the charge is durably journaled), then draw them.
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] when the batch does not fit the
    /// principal's allowance (or its unit count overflows a `u64`),
    /// [`SessionError::Journal`] when a durable registry cannot journal
    /// the charge (degrade-to-reject), [`SessionError::Executor`] when
    /// the backend cannot serve. `out` is untouched on refusal.
    pub fn stream_into_for<T: Sync + 'static, U: Value>(
        &mut self,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>
    where
        A: PrincipalAccountant<D, B>,
    {
        let units = batch_units(req, n, Some(principal))?;
        self.accountant
            .charge_for(principal, req.gamma_unit(), units)?;
        Ok(self.executor.run_into(req.mechanism(), db, n, out)?)
    }

    /// The future-returning twin of [`answer`](Self::answer), with
    /// admission control. The [`AdmissionPolicy`] is evaluated here, when
    /// the future is built — **before any charge** — and a rejected
    /// request resolves to [`SessionError::QueueFull`] /
    /// [`SessionError::Shed`] having spent nothing and consumed no
    /// entropy. An admitted request's first poll runs the exact
    /// synchronous [`answer`](Self::answer) path (charge-before-serve
    /// preserved), so the released bytes and recorded charges are
    /// identical to the synchronous surface (pinned by
    /// `tests/admission.rs`).
    ///
    /// The future completes on its first poll and never returns
    /// `Poll::Pending` — all the work is synchronous CPU work; the future
    /// form exists so requests can be queued, shed, and scheduled by a
    /// runtime (`sampcert-rt`) between admission and service. It is
    /// `Send` whenever the session is.
    pub fn answer_async<'a, T: Sync + 'static, U: Value>(
        &'a mut self,
        req: &'a Request<D, T, U>,
        db: &'a [T],
    ) -> impl Future<Output = Result<U, SessionError<B>>> + 'a
    where
        A: Accountant<D, B>,
    {
        let servable = !self.admission.sheds_unservable()
            || self.accountant.can_admit(req.gamma_unit(), req.units());
        let admitted = self.admission_gate(servable, req.label());
        async move {
            admitted?;
            self.answer(req, db)
        }
    }

    /// The future-returning twin of [`answer_for`](Self::answer_for) —
    /// [`answer_async`](Self::answer_async) for per-principal sessions,
    /// with the budget-keyed shed probing `principal`'s own allowance
    /// (and, on durable registries, shedding outright once the journal
    /// has latched closed).
    pub fn answer_for_async<'a, T: Sync + 'static, U: Value>(
        &'a mut self,
        principal: u64,
        req: &'a Request<D, T, U>,
        db: &'a [T],
    ) -> impl Future<Output = Result<U, SessionError<B>>> + 'a
    where
        A: PrincipalAccountant<D, B>,
    {
        let servable = !self.admission.sheds_unservable()
            || self
                .accountant
                .can_admit_for(principal, req.gamma_unit(), req.units());
        let admitted = self.admission_gate(servable, req.label());
        async move {
            admitted?;
            self.answer_for(principal, req, db)
        }
    }
}

/// The unit count of `n` answers of `req` (`n × units per answer`),
/// computed once for the batch's one charge. A count that overflows a
/// `u64` is refused as a budget refusal (attributed to `principal`, if
/// any) — no accountant could admit it. `requested` is the batch's
/// composed cost; the accountant is not consulted, so `remaining` reads
/// zero.
fn batch_units<D: AbstractDp, B: Budget, T: 'static, U: Value>(
    req: &Request<D, T, U>,
    n: usize,
    principal: Option<u64>,
) -> Result<u64, SessionError<B>> {
    (n as u64).checked_mul(req.units()).ok_or_else(|| {
        let per_answer = B::compose_n::<D>(&B::charge_from_f64(req.gamma_unit()), req.units());
        let mut refusal = BudgetExceeded::new(per_answer.scale(n as u64), B::zero());
        refusal.principal = principal;
        SessionError::Budget(refusal)
    })
}

/// The refusal for an executor that reported success but drew nothing.
fn no_answer<B: Budget>() -> SessionError<B> {
    SessionError::Executor(ExecutorFailure::new("executor returned no answer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{FaultPlan, MemStorage};
    use crate::query::count_query;
    use sampcert_slang::SeededByteSource;

    fn count_req(num: u64, den: u64) -> Request<PureDp, u8, i64> {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), num, den);
        Request::from_private(&p, "count")
    }

    #[test]
    #[should_panic(expected = "invalid privacy parameter")]
    fn request_rejects_negative_gamma() {
        let _: Request<PureDp, u8, i64> = Request::new(Mechanism::constant(0), -0.1, "negative");
    }

    #[test]
    fn inline_session_charges_then_serves() {
        let mut s = Session::<PureDp>::builder()
            .ledger(1.0)
            .inline()
            .seeded(3)
            .build();
        let req = count_req(1, 4);
        let db = [0u8; 9];
        let got = s.answer_many(&req, &db, 4).unwrap();
        assert_eq!(got.len(), 4);
        assert!((s.accountant().spent() - 1.0).abs() < 1e-12);
        let err = s.answer(&req, &db).unwrap_err();
        assert!(matches!(err, SessionError::Budget(_)));
    }

    #[test]
    fn refused_request_consumes_no_entropy() {
        let src = sampcert_slang::CountingByteSource::new(SeededByteSource::new(1));
        let mut s = Session {
            accountant: Ledger::<PureDp>::new(0.1),
            executor: Inline::from_source(Box::new(src)),
            admission: AdmissionPolicy::open(),
            ingress: IngressGauge::new(),
            _notion: PhantomData::<PureDp>,
            _carrier: PhantomData::<Dyadic>,
        };
        let req = count_req(1, 1);
        assert!(s.answer(&req, &[1u8]).is_err());
        // The counting source would have recorded any draw; rebuild the
        // ledger headroom and confirm the stream starts at its beginning.
        let (_, exec) = s.into_parts();
        let mut inline = exec;
        let mut reference = SeededByteSource::new(1);
        let mut probe = Vec::new();
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
        inline
            .run_into(p.mechanism(), &[1u8], 1, &mut probe)
            .unwrap();
        let mut expect = Vec::new();
        p.mechanism()
            .run_many_into(&[1u8], 1, &mut reference, &mut expect);
        assert_eq!(probe, expect);
    }

    #[test]
    fn exact_carrier_session_is_strict() {
        let mut s = Session::<PureDp>::builder()
            .ledger(1.0)
            .inline()
            .seeded(9)
            .build();
        let req = count_req(1, 8); // ε = 1/8, dyadic
        for _ in 0..8 {
            s.answer(&req, &[1u8, 2]).unwrap();
        }
        assert_eq!(s.accountant().spent_exact(), &Dyadic::from(1u64));
        let err = s.answer(&req, &[1u8, 2]).unwrap_err();
        let refusal = err.as_budget().expect("budget refusal");
        assert_eq!(refusal.carrier, "dyadic");
        assert_eq!(refusal.remaining, Dyadic::zero());
    }

    #[test]
    fn rdp_session_enforces_policy() {
        let mut s = Session::<Zcdp>::builder()
            .rdp(1e-6, 4.0)
            .inline()
            .seeded(4)
            .build();
        // σ/Δ = 8 Gaussians: ρ = 1/128 each; 32 of them convert to under
        // ε = 4 at δ = 1e-6 (see the accountant module tests).
        let req: Request<Zcdp, u8, i64> = Request::noise(8, 1);
        let out = s.answer_many(&req, &[], 32).unwrap();
        assert_eq!(out.len(), 32);
        let (eps, _) = s.accountant().epsilon();
        assert!(eps < 4.0, "eps = {eps}");
        // A huge follow-up batch must be refused without mutating the meter.
        let err = s.answer_many(&req, &[], 1_000_000).unwrap_err();
        assert!(matches!(err, SessionError::Budget(_)));
        let (eps_after, _) = s.accountant().epsilon();
        assert_eq!(eps, eps_after);
    }

    /// The meter admits exactly what fits its ε budget: no slack, not
    /// even 5e-13, over the ε one ε = 0.5 pure charge converts to.
    #[test]
    fn rdp_meter_refuses_a_charge_just_over_budget() {
        let delta = 1e-6;
        let mut probe = RdpMeter::<Dyadic>::new(delta, 1e6);
        Accountant::<PureDp, Dyadic>::charge(&mut probe, "probe", 0.5, 1).unwrap();
        let (eps, _) = probe.epsilon();
        let mut tight = RdpMeter::<Dyadic>::new(delta, eps - 5e-13);
        assert!(!Accountant::<PureDp, Dyadic>::can_admit(&tight, 0.5, 1));
        assert!(Accountant::<PureDp, Dyadic>::charge(&mut tight, "over", 0.5, 1).is_err());
        let mut exact = RdpMeter::<Dyadic>::new(delta, eps);
        assert!(Accountant::<PureDp, Dyadic>::charge(&mut exact, "fits", 0.5, 1).is_ok());
    }

    #[test]
    fn noise_request_prices_itself() {
        // Laplace scale 2 under pure DP: ε = 1/2 per draw.
        let req: Request<PureDp, (), i64> = Request::noise(2, 1);
        assert!((req.gamma_each() - 0.5).abs() < 1e-12);
        // Gaussian σ = 8 under zCDP: ρ = 1/128 per draw.
        let req: Request<Zcdp, (), i64> = Request::noise(8, 1);
        assert!((req.gamma_each() - 1.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn session_error_chains_sources() {
        use std::error::Error as _;
        let budget: SessionError = SessionError::Budget(BudgetExceeded::new(
            Dyadic::from_f64_ceil(0.5),
            Dyadic::from_f64_ceil(0.25),
        ));
        assert_eq!(
            budget.source().unwrap().to_string(),
            "privacy budget exceeded: requested 0.5, remaining 0.25 [carrier: dyadic]"
        );
        let exec: SessionError = SessionError::Executor(ExecutorFailure::new("pool died"));
        assert_eq!(
            exec.source().unwrap().to_string(),
            "executor failure: pool died"
        );
        assert_eq!(exec.to_string(), "session refused: executor failure");
        let shed: SessionError = SessionError::Shed(AdmissionShed::new("budget dry"));
        assert_eq!(
            shed.to_string(),
            "session refused: shed before charging (admission control)"
        );
        assert_eq!(
            shed.source().unwrap().to_string(),
            "request shed before charging: budget dry"
        );
        assert!(shed.is_admission() && budget.as_shed().is_none());
        let full: SessionError = SessionError::QueueFull(QueueFull::new(9, 4));
        assert_eq!(
            full.to_string(),
            "session refused: ingress queue full (backpressure)"
        );
        assert_eq!(
            full.source().unwrap().to_string(),
            "ingress queue full: depth 9 exceeds bound 4"
        );
        assert_eq!(full.as_queue_full().unwrap().bound(), 4);
        assert!(full.is_admission() && !budget.is_admission());
    }

    /// Drives a ready-on-first-poll future to completion without a
    /// runtime (the core crate cannot depend on `sampcert-rt`).
    fn poll_once<F: Future>(fut: F) -> F::Output {
        struct NoopWake;
        impl std::task::Wake for NoopWake {
            fn wake(self: Arc<Self>) {}
        }
        let waker = std::task::Waker::from(Arc::new(NoopWake));
        let mut cx = std::task::Context::from_waker(&waker);
        match std::pin::pin!(fut).poll(&mut cx) {
            std::task::Poll::Ready(out) => out,
            std::task::Poll::Pending => unreachable!("answer futures resolve on first poll"),
        }
    }

    #[test]
    fn answer_async_equals_answer() {
        let req = count_req(1, 8);
        let db = [0u8; 6];
        let mut sync = Session::<PureDp>::builder()
            .ledger(1.0)
            .inline()
            .seeded(17)
            .build();
        let mut async_ = Session::<PureDp>::builder()
            .ledger(1.0)
            .inline()
            .seeded(17)
            .build();
        for _ in 0..4 {
            let want = sync.answer(&req, &db).unwrap();
            let got = poll_once(async_.answer_async(&req, &db)).unwrap();
            assert_eq!(got, want);
        }
        assert_eq!(sync.accountant().spent(), async_.accountant().spent());
    }

    #[test]
    fn shed_refusal_spends_nothing() {
        let mut s = Session::<PureDp>::builder()
            .ledger(1.0)
            .admission(AdmissionPolicy::open().shed_unservable())
            .inline()
            .seeded(23)
            .build();
        // Affordable request: admitted and served.
        let ok_req = count_req(1, 4);
        poll_once(s.answer_async(&ok_req, &[1u8])).unwrap();
        // Unservable request (ε = 2 against remaining 3/4): shed before
        // charging, with the counting invariant — spend unchanged.
        let big_req = count_req(2, 1);
        let spent_before = s.accountant().spent_exact().clone();
        let err = poll_once(s.answer_async(&big_req, &[1u8])).unwrap_err();
        assert!(matches!(err, SessionError::Shed(_)), "{err:?}");
        assert_eq!(s.accountant().spent_exact(), &spent_before);
        // The synchronous path still runs the authoritative check and
        // refuses with a Budget error, not a shed.
        let err = s.answer(&big_req, &[1u8]).unwrap_err();
        assert!(matches!(err, SessionError::Budget(_)));
    }

    #[test]
    fn queue_bound_rejects_above_depth() {
        let mut s = Session::<PureDp>::builder()
            .ledger(10.0)
            .admission(AdmissionPolicy::open().max_queue_depth(2))
            .inline()
            .seeded(29)
            .build();
        let gauge = s.ingress_gauge();
        let req = count_req(1, 8);
        // Depth 2 == bound: still admitted.
        gauge.enter();
        gauge.enter();
        poll_once(s.answer_async(&req, &[1u8])).unwrap();
        // Depth 3 > bound: backpressure.
        gauge.enter();
        let err = poll_once(s.answer_async(&req, &[1u8])).unwrap_err();
        let full = err.as_queue_full().expect("queue-full refusal");
        assert_eq!((full.depth(), full.bound()), (3, 2));
        // Draining the queue re-opens admission; leave() saturates at 0.
        gauge.leave();
        poll_once(s.answer_async(&req, &[1u8])).unwrap();
        for _ in 0..5 {
            gauge.leave();
        }
        assert_eq!(gauge.depth(), 0);
    }

    #[test]
    fn answer_for_async_sheds_per_principal() {
        let mut s = Session::<PureDp>::builder()
            .registry(1.0)
            .admission(AdmissionPolicy::open().shed_unservable())
            .inline()
            .seeded(31)
            .build_per_principal();
        let req = count_req(1, 2); // ε = 1/2 per answer
        poll_once(s.answer_for_async(1, &req, &[1u8])).unwrap();
        poll_once(s.answer_for_async(1, &req, &[1u8])).unwrap();
        // Principal 1 is dry: shed, spend unchanged.
        let err = poll_once(s.answer_for_async(1, &req, &[1u8])).unwrap_err();
        assert!(matches!(err, SessionError::Shed(_)), "{err:?}");
        assert_eq!(s.accountant().spent_exact(1), Dyadic::from(1u64));
        // Principal 2's allowance is independent.
        poll_once(s.answer_for_async(2, &req, &[1u8])).unwrap();
    }

    #[test]
    fn seeded_inline_replays_lane_zero() {
        let mut a = Inline::new(Entropy::seeded(21));
        let mut b = SplitSeed::new(21).stream(0);
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        let mut got = Vec::new();
        a.run_into(p.mechanism(), &[7u8], 5, &mut got).unwrap();
        let mut expect = Vec::new();
        p.mechanism().run_many_into(&[7u8], 5, &mut b, &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn lane_partition_rule() {
        assert_eq!(lane_partition(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(lane_partition(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(lane_partition(7, 1), vec![7]);
    }

    #[test]
    fn inline_spawn_clamps_lanes() {
        let e = Inline::spawn(Entropy::seeded(1), 64);
        assert_eq!(e.lanes(), 1);
    }

    #[test]
    fn registry_session_isolates_principals() {
        let mut s = Session::<PureDp>::builder()
            .registry(1.0)
            .inline()
            .seeded(11)
            .build_per_principal();
        let req = count_req(1, 4); // ε = 1/4 per answer
        let db = [0u8; 5];
        let got = s.answer_many_for(7, &req, &db, 4).unwrap();
        assert_eq!(got.len(), 4);
        let err = s.answer_for(7, &req, &db).unwrap_err();
        let refusal = err.as_budget().expect("budget refusal");
        assert_eq!(refusal.principal, Some(7));
        assert_eq!(refusal.carrier, "dyadic");
        // Another principal's allowance is untouched.
        s.answer_for(8, &req, &db).unwrap();
        assert_eq!(s.accountant().spent_exact(7), Dyadic::from(1u64));
    }

    #[test]
    fn durable_session_degrades_to_reject_then_recovers_conservatively() {
        // Sync 0 is the journal header; syncs 1–2 admit two charges; the
        // third charge's sync fails.
        let storage = MemStorage::new().with_plan(FaultPlan::fail_sync_after(3));
        let handle = storage.clone();
        let req = count_req(1, 4); // ε = 1/4 per answer
        let mut s = Session::<PureDp>::builder()
            .registry(1.0)
            .durable_with_options(storage, DurableOptions::default())
            .unwrap()
            .inline()
            .seeded(13)
            .build_per_principal();
        s.answer_for(1, &req, &[1u8]).unwrap();
        s.answer_for(2, &req, &[1u8]).unwrap();
        // Degrade-to-reject: the fsync failure refuses the request and
        // leaves the in-memory spend unchanged.
        let err = s.answer_for(1, &req, &[1u8]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "session refused: journal failure (nothing charged, nothing released)"
        );
        assert_eq!(
            err.as_journal().unwrap().to_string(),
            "journal sync failed: injected fsync failure"
        );
        use std::error::Error as _;
        assert_eq!(
            err.source().unwrap().to_string(),
            err.as_journal().unwrap().to_string()
        );
        assert_eq!(s.accountant().registry().spent(1), 0.25);
        drop(s);

        // Restart over the surviving bytes. The third record was appended
        // but its fsync failed — replay cannot tell whether it became
        // durable, so it counts as charged (over-reporting, never under).
        let mut s2 = Session::<PureDp>::builder()
            .registry(1.0)
            .durable_with_options(handle.reopen(), DurableOptions::default())
            .unwrap()
            .inline()
            .seeded(13)
            .build_per_principal();
        assert_eq!(s2.accountant().registry().spent(1), 0.5);
        assert_eq!(s2.accountant().registry().spent(2), 0.25);
        // Exactly two more quarters fit principal 1's allowance of 1.
        s2.answer_for(1, &req, &[1u8]).unwrap();
        s2.answer_for(1, &req, &[1u8]).unwrap();
        let err = s2.answer_for(1, &req, &[1u8]).unwrap_err();
        assert_eq!(err.as_budget().unwrap().principal, Some(1));
    }

    #[test]
    fn durable_options_session_group_commits_and_compacts() {
        use crate::journal::{replay, CompactionPolicy};

        let storage = MemStorage::new();
        let handle = storage.clone();
        let req = count_req(1, 4); // ε = 1/4 per answer
        let mut s = Session::<PureDp>::builder()
            .registry(2.0)
            .durable_with_options(
                storage,
                DurableOptions::default()
                    .checkpoint_every(u64::MAX)
                    .compaction(CompactionPolicy::max_records(4)),
            )
            .unwrap()
            .inline()
            .seeded(13)
            .build_per_principal();
        for p in 1..=4u64 {
            s.answer_for(p, &req, &[1u8]).unwrap();
        }
        // The 4th acknowledged charge crossed the record policy and woke
        // the background compactor; wait for it to rewrite the journal
        // down to header + snapshot.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while s.accountant().journal_records() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto-compaction never ran"
            );
            std::thread::yield_now();
        }
        let recovery = replay::<PureDp, Dyadic>(&handle.contents()).unwrap();
        assert_eq!(recovery.report.records, 2, "header + one snapshot chunk");
        drop(s);

        // A plain (no-policy) restart over the compacted log
        // agrees with what was acknowledged.
        let s2 = Session::<PureDp>::builder()
            .registry(2.0)
            .durable_with_options(handle.reopen(), DurableOptions::default())
            .unwrap()
            .inline()
            .seeded(13)
            .build_per_principal();
        for p in 1..=4u64 {
            assert_eq!(s2.accountant().registry().spent(p), 0.25, "principal {p}");
        }
    }
}
