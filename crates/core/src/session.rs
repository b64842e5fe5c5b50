//! The front door: one typestate [`Session`] over every carrier ×
//! accountant × executor × entropy combination.
//!
//! The serving surface varies along three independent axes — batching
//! (`run_many`/`run_batch`), exact carriers
//! (`charge_exact`/[`ExactLedger`](crate::ExactLedger)) and concurrency
//! ([`ShardedLedger`] over a pooled executor). A [`Session`] closes the
//! configuration space behind a single builder:
//!
//! - the budget **carrier** (`f64` or exact
//!   [`Dyadic`](sampcert_arith::Dyadic)) — [`SessionBuilder::exact`] /
//!   [`SessionBuilder::carrier`];
//! - the **accountant** (pure-notion [`Ledger`] or Rényi [`RdpMeter`],
//!   each global or sharded) — [`SessionBuilder::ledger`],
//!   [`SessionBuilder::sharded_ledger`], [`SessionBuilder::rdp`],
//!   [`SessionBuilder::sharded_rdp`];
//! - the **executor** (the in-core single-lane [`Inline`], or any
//!   [`SpawnExecutor`] such as `sampcert-rt`'s `RtExecutor` draw pool)
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
//! serve is **charge-before-serve**: a refused request releases nothing,
//! and a global accountant's refusal touches no byte source at all (on a
//! sharded accountant, lanes whose shard admitted its chunk have already
//! advanced their streams before another shard refused — the drawn noise
//! is discarded unreleased and the charge stays spent, the conservative
//! direction). The released bytes are identical to the unmetered
//! primitives' on the same streams (pinned by `tests/session_api.rs`).
//!
//! # The typestate guard
//!
//! Illegal combinations do not build. The accountant drives the executor
//! through the [`Accountant`] trait, and sharded accountants only
//! implement it for [`ShardedExecutor`]s — so a sharded ledger can never
//! silently drop its shards onto a single-lane executor:
//!
//! ```compile_fail
//! use sampcert_core::{PureDp, Session};
//! // A sharded ledger over the single-lane inline executor: rejected at
//! // compile time (no `Accountant` impl links the two).
//! let _ = Session::<PureDp>::builder()
//!     .sharded_ledger(1.0)
//!     .inline()
//!     .build();
//! ```
//!
//! ```compile_fail
//! use sampcert_core::{Session, Zcdp};
//! // Sharded RDP accounting is equally inexpressible on a single lane.
//! let _ = Session::<Zcdp>::builder()
//!     .sharded_rdp(1e-6, 4.0)
//!     .inline()
//!     .build();
//! ```
//!
//! # Per-principal and durable sessions
//!
//! A fourth accountant choice, [`SessionBuilder::registry`], gives every
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
//!     .exact()
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
//! **admission control** runs at future construction, *before* any
//! charge is attempted. An [`AdmissionPolicy`] (installed with
//! [`SessionBuilder::admission`]) can reject a request in two ways, each
//! with its own [`SessionError`] variant:
//!
//! - [`SessionError::QueueFull`]: the session's ingress queue (tracked
//!   by a shared [`IngressGauge`]) is over the policy's depth bound —
//!   backpressure under overload;
//! - [`SessionError::Shed`]: the accountant's remaining budget (global
//!   ledgers, per-principal registries) or
//!   [`granted_upper_bound`](ShardedLedger::granted_upper_bound)
//!   (sharded ledgers) says the request cannot be served — load shedding
//!   keyed on the accounting state itself.
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
//! // Carrier f64, global ledger, inline executor, replayable entropy.
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
//! assert!((session.accountant().spent() - 1.0).abs() < 1e-12);
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
use crate::sharded::ShardedLedger;
use sampcert_slang::{ByteSource, OsByteSource, SplitSeed, Value};
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};

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
/// accountant's accounting state proves (conservatively — see
/// [`Admission`]) that the request cannot be served, so it is rejected
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
/// underlying [`BudgetExceeded`] (with its carrier and shard attribution),
/// [`ExecutorFailure`], [`JournalError`], [`AdmissionShed`] or
/// [`QueueFull`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError<B: Budget = f64> {
    /// The accountant refused the charge; nothing was released. Global
    /// accountants consumed no entropy; on a sharded accountant, lanes
    /// whose shard admitted its chunk advanced their streams before the
    /// refusing shard was reached (the drawn noise is discarded, the
    /// charge stays spent — conservative).
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
    /// attempted**: the accountant's remaining budget (or, sharded,
    /// [`granted_upper_bound`](ShardedLedger::granted_upper_bound))
    /// proves the request cannot be served. Nothing was spent, journaled,
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
    /// Number of independent lanes (byte streams) this executor serves
    /// from. `1` for [`Inline`]; the worker count for a pool.
    fn lanes(&self) -> usize;

    /// How a batch of `n` answers is split across the lanes: lane `i`
    /// serves `partition(n)[i]` answers, and
    /// [`run_into`](Self::run_into) returns them concatenated in lane
    /// order. The default is the contiguous-chunk rule
    /// ([`lane_partition`]); a backend that schedules differently
    /// (work-stealing, round-robin) **must** override this so per-lane
    /// accounting ([`ShardedRdpMeter`]) attributes answers to the lanes
    /// that actually serve them.
    fn partition(&self, n: usize) -> Vec<usize> {
        lane_partition(n, self.lanes())
    }

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

/// A multi-lane [`Executor`] whose lanes can each charge their own shard
/// of a [`ShardedLedger`] *before* drawing — the charge-before-serve
/// discipline, kept lock-free per lane.
///
/// This trait is the static link that makes a sharded accountant
/// inexpressible on a single-lane executor: [`Accountant`] is only
/// implemented for [`ShardedLedger`] (and [`ShardedRdpMeter`]) where the
/// executor is a `ShardedExecutor`, and [`Inline`] deliberately does not
/// implement it.
pub trait ShardedExecutor: Executor {
    /// Draws `n` outputs of `mech`, with lane `i` batch-charging
    /// `chunkᵢ · units` releases of `gamma_unit` to shard `i` before
    /// drawing a single byte of its chunk.
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] with the first refusing shard (in shard
    /// order) if any chunk does not fit — chunks whose charge succeeded
    /// stay charged and their noise is discarded unreleased (the
    /// conservative direction); [`SessionError::Executor`] if the backend
    /// cannot serve (e.g. the ledger has fewer shards than lanes).
    #[allow(clippy::too_many_arguments)]
    fn run_sharded_into<D: AbstractDp, B: Budget, T: Sync + 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
        gamma_unit: f64,
        units: u64,
        ledger: &ShardedLedger<D, B>,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>;
}

/// An [`Executor`] the session builder can construct itself, from the
/// session's [`Entropy`] choice and a requested lane count — what lets
/// `SessionBuilder::executor::<E>(lanes)` stay generic over backends the
/// core crate cannot name (such as `sampcert-rt`'s `RtExecutor`).
pub trait SpawnExecutor: Executor + Sized {
    /// Builds the executor. `lanes` is a request, not a command: a
    /// backend may clamp it (e.g. [`Inline`] always has one lane); the
    /// builder reads the actual [`Executor::lanes`] back after spawning,
    /// so sharded accountants always match the real lane count.
    fn spawn(entropy: Entropy, lanes: usize) -> Self;
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

impl SpawnExecutor for Inline {
    /// Ignores `lanes`: inline execution always has exactly one lane.
    fn spawn(entropy: Entropy, _lanes: usize) -> Self {
        Inline::new(entropy)
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
/// keeps the exact-carrier charge identical to what the legacy per-path
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
    /// matters on exact carriers).
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
/// The budget check runs in reported-ε space (`f64`); the carrier `B`
/// governs how the per-order totals *accumulate* (exactly, for
/// [`Dyadic`](sampcert_arith::Dyadic)), with each per-release increment
/// rounded up as everywhere else in the accounting layer.
#[derive(Debug, Clone)]
pub struct RdpMeter<B: Budget = f64> {
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

    /// Admits `count` releases of `gamma` under notion `D` if the
    /// post-charge ε still fits the policy; the accountant is unchanged
    /// on refusal.
    fn try_charge<D: RdpCurve>(&mut self, gamma: f64, count: u64) -> Result<(), BudgetExceeded<B>> {
        let mut trial = self.acct.clone();
        trial.add_curve_n(|a| D::rdp_curve(gamma, a), count);
        let (eps, _) = trial.epsilon(self.delta);
        if eps > self.budget_eps + 1e-12 {
            let (current, _) = self.acct.epsilon(self.delta);
            // Requested/remaining are reported in ε-at-δ space — the
            // space the policy is stated in.
            return Err(BudgetExceeded::new(
                B::charge_from_f64((eps - current).max(0.0)),
                B::budget_from_f64((self.budget_eps - current).max(0.0)),
            ));
        }
        self.acct = trial;
        Ok(())
    }
}

/// The sharded twin of [`RdpMeter`]: one per-lane [`RdpAccountant`]
/// accumulator for attribution, plus an incrementally maintained session
/// total for the policy check — the check stays O(grid) per charge, with
/// no per-lane fold on the hot path. Per-order RDP totals are additive,
/// so the running total equals the fold of the lane accumulators exactly
/// on exact carriers (and to within f64 summation rounding on `f64`);
/// [`ShardedRdpAccountant`](crate::ShardedRdpAccountant) remains the
/// primitive for folding externally accumulated lanes.
///
/// Only usable with a [`ShardedExecutor`] (the [`Accountant`] impl
/// requires it), so the per-lane curves always describe real lanes.
#[derive(Debug, Clone)]
pub struct ShardedRdpMeter<B: Budget = f64> {
    parts: Vec<RdpAccountant<B>>,
    total: RdpAccountant<B>,
    delta: f64,
    budget_eps: f64,
}

impl<B: Budget> ShardedRdpMeter<B> {
    /// A sharded meter over the conventional order grid with one
    /// accumulator per lane.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `(0, 1)`, `budget_eps` is negative or
    /// not finite, or `lanes` is zero.
    pub fn new(delta: f64, budget_eps: f64, lanes: usize) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta outside (0,1)");
        assert!(
            budget_eps.is_finite() && budget_eps >= 0.0,
            "invalid epsilon budget"
        );
        let orders = RdpAccountant::default_order_grid();
        let parts = (0..lanes)
            .map(|_| RdpAccountant::with_orders(orders.clone()))
            .collect();
        ShardedRdpMeter {
            parts,
            total: RdpAccountant::with_orders(orders),
            delta,
            budget_eps,
        }
    }

    /// The per-lane accumulators, in lane order.
    pub fn lane_accountants(&self) -> &[RdpAccountant<B>] {
        &self.parts
    }

    /// The whole-session accountant (maintained incrementally; equal to
    /// folding [`lane_accountants`](Self::lane_accountants) — exactly on
    /// exact carriers, to within f64 summation rounding otherwise).
    pub fn folded(&self) -> RdpAccountant<B> {
        self.total.clone()
    }

    /// The enforced `(budget_eps, delta)` policy.
    pub fn policy(&self) -> (f64, f64) {
        (self.budget_eps, self.delta)
    }

    /// The `(ε, optimizing α)` implied by the spending so far, at the
    /// policy δ.
    pub fn epsilon(&self) -> (f64, f64) {
        self.total.epsilon(self.delta)
    }

    /// Admits `lane_counts[i] · units` releases of `gamma_unit` on lane
    /// `i`'s accumulator if the post-charge ε fits the policy.
    ///
    /// # Panics
    ///
    /// Panics if `lane_counts` does not have exactly one entry per lane —
    /// an executor whose [`Executor::partition`] override disagrees with
    /// its lane count would otherwise be silently under-accounted, which
    /// is a privacy-soundness violation and must fail loudly.
    fn try_charge<D: RdpCurve>(
        &mut self,
        gamma_unit: f64,
        units: u64,
        lane_counts: &[usize],
    ) -> Result<(), BudgetExceeded<B>> {
        assert_eq!(
            lane_counts.len(),
            self.parts.len(),
            "executor partition length disagrees with the meter's lane count"
        );
        let total_count: u64 = lane_counts.iter().map(|c| *c as u64 * units).sum();
        let mut trial = self.total.clone();
        trial.add_curve_n(|a| D::rdp_curve(gamma_unit, a), total_count);
        let (eps, _) = trial.epsilon(self.delta);
        if eps > self.budget_eps + 1e-12 {
            let (current, _) = self.total.epsilon(self.delta);
            return Err(BudgetExceeded::new(
                B::charge_from_f64((eps - current).max(0.0)),
                B::budget_from_f64((self.budget_eps - current).max(0.0)),
            ));
        }
        self.total = trial;
        for (part, count) in self.parts.iter_mut().zip(lane_counts) {
            part.add_curve_n(|a| D::rdp_curve(gamma_unit, a), *count as u64 * units);
        }
        Ok(())
    }
}

/// The default lane-partition rule of the executor contract
/// ([`Executor::partition`]): `n` answers split into contiguous per-lane
/// counts, the first `n % lanes` lanes one longer. Multi-lane backends
/// (the `RtExecutor` draw pool) serve by exactly this rule; per-lane
/// accounting ([`ShardedRdpMeter`]) attributes answers through
/// [`Executor::partition`], so a backend that partitions differently
/// overrides that method and attribution follows it.
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
///   requests the accountant's [`Admission`] probe proves unservable are
///   refused with [`SessionError::Shed`] without touching the
///   accountant.
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
    /// accountant's [`Admission`] probe proves cannot be served
    /// ([`SessionError::Shed`]), before any charge is attempted.
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

/// The non-mutating admission probe behind budget-keyed load shedding:
/// can a batch totalling `units` releases of `gamma_unit` possibly be
/// admitted right now?
///
/// The contract is conservative in the *shedding* direction each
/// accountant documents: `false` means the accounting state already
/// proves the charge would be refused (global accountants) or that the
/// granted upper bound leaves no headroom (sharded accountants, where
/// outstanding grants may make the probe shed a request a lucky charge
/// would have served — the right trade under overload). `true` is
/// advisory only — the authoritative charge check still runs at serve
/// time, so a probe race never over-spends.
pub trait Admission<D: AbstractDp, B: Budget> {
    /// Whether a batch of `units` releases of `gamma_unit` could be
    /// admitted against the current accounting state.
    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool;
}

impl<D: AbstractDp, B: Budget> Admission<D, B> for Ledger<D, B> {
    /// Sheds exactly when the composed batch exceeds the remaining
    /// budget — the same comparison [`Ledger::charge_batch`] makes, on
    /// the same carrier, without mutating the ledger.
    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool {
        let total = B::compose_n::<D>(&B::charge_from_f64(gamma_unit), units);
        total.is_valid() && !B::exceeds(&total, &self.remaining_exact())
    }
}

impl<D: RdpCurve, B: Budget> Admission<D, B> for RdpMeter<B> {
    /// Sheds when a trial composition of the batch converts to an ε over
    /// the policy budget — the same check [`RdpMeter`]'s charge path
    /// runs, against a clone.
    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool {
        let mut trial = self.acct.clone();
        trial.add_curve_n(|a| D::rdp_curve(gamma_unit, a), units);
        let (eps, _) = trial.epsilon(self.delta);
        eps <= self.budget_eps + 1e-12
    }
}

impl<D: AbstractDp, B: Budget> Admission<D, B> for ShardedLedger<D, B> {
    /// Sheds when
    /// [`granted_upper_bound`](ShardedLedger::granted_upper_bound) plus
    /// the batch total exceeds the budget. The upper bound counts
    /// granted-but-unspent headroom as spent, so under load this sheds
    /// *earlier* than the per-shard charges would refuse — conservative
    /// in the shedding direction, never in the spending direction.
    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool {
        let total = D::compose_n(gamma_unit, units);
        self.granted_upper_bound() + total <= self.budget().to_f64() + 1e-12
    }
}

impl<D: RdpCurve, B: Budget> Admission<D, B> for ShardedRdpMeter<B> {
    /// Sheds when a trial composition of the batch onto the maintained
    /// session total converts to an ε over the policy budget.
    fn can_admit(&self, gamma_unit: f64, units: u64) -> bool {
        let mut trial = self.total.clone();
        trial.add_curve_n(|a| D::rdp_curve(gamma_unit, a), units);
        let (eps, _) = trial.epsilon(self.delta);
        eps <= self.budget_eps + 1e-12
    }
}

/// The per-principal twin of [`Admission`]: the probe behind
/// [`Session::answer_for_async`]'s budget-keyed shedding.
pub trait PrincipalAdmission<D: AbstractDp, B: Budget> {
    /// Whether a batch of `units` releases of `gamma_unit` could be
    /// admitted against `principal`'s current allowance.
    fn can_admit_for(&self, principal: u64, gamma_unit: f64, units: u64) -> bool;
}

impl<D: AbstractDp, B: Budget> PrincipalAdmission<D, B> for BudgetRegistry<D, B> {
    /// Sheds exactly when [`BudgetRegistry::check_exact`] would refuse
    /// the composed batch — the authoritative admission check, run
    /// without applying.
    fn can_admit_for(&self, principal: u64, gamma_unit: f64, units: u64) -> bool {
        let total = B::compose_n::<D>(&B::charge_from_f64(gamma_unit), units);
        total.is_valid() && self.check_exact(principal, &total).is_ok()
    }
}

impl<D: AbstractDp, B: Budget, S: JournalStorage> PrincipalAdmission<D, B>
    for DurableRegistry<D, B, S>
{
    /// Sheds when the journal has latched closed (every charge would be
    /// refused anyway) or the composed batch exceeds the principal's
    /// committed remaining allowance. Group-commit reservations are not
    /// counted — the probe may admit a request the reserved-aware charge
    /// check then refuses, which only costs a budget refusal, never an
    /// over-spend.
    fn can_admit_for(&self, principal: u64, gamma_unit: f64, units: u64) -> bool {
        if self.journal_error().is_some() {
            return false;
        }
        let total = B::compose_n::<D>(&B::charge_from_f64(gamma_unit), units);
        total.is_valid() && !B::exceeds(&total, &self.remaining_exact(principal))
    }
}

// ---------------------------------------------------------------------------
// The accountant ↔ executor link
// ---------------------------------------------------------------------------

/// The charge-then-serve step, linking an accountant to the executors it
/// can legally drive. This is the typestate guard: global accountants
/// ([`Ledger`], [`RdpMeter`]) drive any [`Executor`]; sharded accountants
/// ([`ShardedLedger`], [`ShardedRdpMeter`]) only implement this trait for
/// [`ShardedExecutor`]s, so pairing them with [`Inline`] is a compile
/// error, not a silent single-shard session.
pub trait Accountant<D: AbstractDp, B: Budget, E: Executor> {
    /// Charges `n` answers of `req` and, only if the whole batch fits,
    /// serves them through `exec` into `out`. A refusal releases nothing
    /// and leaves `out` untouched; global accountants also consume no
    /// entropy (sharded accountants may have advanced the streams of
    /// lanes whose shard admitted its chunk — see
    /// [`SessionError::Budget`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] when the batch does not fit,
    /// [`SessionError::Executor`] when the backend cannot serve.
    fn serve_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>;
}

impl<D: AbstractDp, B: Budget, E: Executor> Accountant<D, B, E> for Ledger<D, B> {
    fn serve_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        self.charge_batch(req.label(), req.gamma_unit(), n as u64 * req.units())?;
        exec.run_into(req.mechanism(), db, n, out)?;
        Ok(())
    }
}

impl<D: RdpCurve, B: Budget, E: Executor> Accountant<D, B, E> for RdpMeter<B> {
    fn serve_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        self.try_charge::<D>(req.gamma_unit(), n as u64 * req.units())?;
        exec.run_into(req.mechanism(), db, n, out)?;
        Ok(())
    }
}

impl<D: AbstractDp, B: Budget, E: ShardedExecutor> Accountant<D, B, E> for ShardedLedger<D, B> {
    fn serve_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        exec.run_sharded_into(
            req.mechanism(),
            db,
            n,
            req.gamma_unit(),
            req.units(),
            self,
            out,
        )
    }
}

impl<D: RdpCurve, B: Budget, E: ShardedExecutor> Accountant<D, B, E> for ShardedRdpMeter<B> {
    fn serve_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        let counts = exec.partition(n);
        self.try_charge::<D>(req.gamma_unit(), req.units(), &counts)?;
        exec.run_into(req.mechanism(), db, n, out)?;
        Ok(())
    }
}

/// The per-principal twin of [`Accountant`]: charge-then-serve where the
/// charge lands on one principal's allowance inside a
/// [`BudgetRegistry`] (in-memory) or [`DurableRegistry`] (write-ahead
/// journaled). The typestate guard works the same way: per-principal
/// sessions are built with [`SessionBuilder::build_per_principal`] and
/// serve through [`Session::answer_for`] — the principal-less
/// [`Session::answer`] does not exist on them (no [`Accountant`] impl),
/// and vice versa.
pub trait PrincipalAccountant<D: AbstractDp, B: Budget, E: Executor> {
    /// Charges `n` answers of `req` to `principal` and, only if the whole
    /// batch fits (and, for durable registries, only once the charge is
    /// durably journaled), serves them through `exec` into `out`. A
    /// refusal releases nothing and consumes no entropy.
    ///
    /// # Errors
    ///
    /// [`SessionError::Budget`] when the batch does not fit the
    /// principal's allowance, [`SessionError::Journal`] when a durable
    /// registry cannot journal the charge (degrade-to-reject),
    /// [`SessionError::Executor`] when the backend cannot serve.
    fn serve_for_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>;
}

impl<D: AbstractDp, B: Budget, E: Executor> PrincipalAccountant<D, B, E> for BudgetRegistry<D, B> {
    fn serve_for_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        self.charge_batch(principal, req.gamma_unit(), n as u64 * req.units())?;
        exec.run_into(req.mechanism(), db, n, out)?;
        Ok(())
    }
}

impl<D: AbstractDp, B: Budget, E: Executor, S: JournalStorage> PrincipalAccountant<D, B, E>
    for DurableRegistry<D, B, S>
{
    fn serve_for_into<T: Sync + 'static, U: Value>(
        &mut self,
        exec: &mut E,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        self.charge_batch(principal, req.gamma_unit(), n as u64 * req.units())?;
        exec.run_into(req.mechanism(), db, n, out)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Builder typestate
// ---------------------------------------------------------------------------

/// Builder state: no accountant chosen yet. The carrier can still be
/// changed in this state ([`SessionBuilder::exact`] /
/// [`SessionBuilder::carrier`]); once an accountant is chosen it is fixed
/// inside the accountant's type.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAccountant;

/// Builder state: no executor chosen yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExecutor;

/// Builder state: executor backend `E` chosen, to be spawned with this
/// many lanes at [`SessionBuilder::build`] time.
#[derive(Debug, Clone, Copy)]
pub struct Planned<E> {
    lanes: usize,
    _exec: PhantomData<E>,
}

/// A deferred accountant choice: built only at
/// [`SessionBuilder::build`] time, when the executor's actual lane count
/// is known — which is how a sharded ledger's shard count always equals
/// the pool's worker count without the caller wiring either.
pub trait AccountantPlan<D: AbstractDp, B: Budget> {
    /// The accountant this plan builds.
    type Built;
    /// Builds the accountant for an executor with `lanes` lanes.
    fn build_accountant(self, lanes: usize) -> Self::Built;
}

/// Plan for a global [`Ledger`] (see [`SessionBuilder::ledger`]).
#[derive(Debug, Clone)]
pub struct LedgerPlan<B: Budget> {
    budget: B,
}

impl<D: AbstractDp, B: Budget> AccountantPlan<D, B> for LedgerPlan<B> {
    type Built = Ledger<D, B>;
    fn build_accountant(self, _lanes: usize) -> Ledger<D, B> {
        Ledger::with_budget(self.budget)
    }
}

/// Plan for a [`ShardedLedger`] with one shard per executor lane (see
/// [`SessionBuilder::sharded_ledger`]).
#[derive(Debug, Clone)]
pub struct ShardedLedgerPlan<B: Budget> {
    budget: B,
}

impl<D: AbstractDp, B: Budget> AccountantPlan<D, B> for ShardedLedgerPlan<B> {
    type Built = ShardedLedger<D, B>;
    fn build_accountant(self, lanes: usize) -> ShardedLedger<D, B> {
        ShardedLedger::with_budget(self.budget, lanes)
    }
}

/// Plan for a global [`RdpMeter`] (see [`SessionBuilder::rdp`]).
#[derive(Debug, Clone, Copy)]
pub struct RdpPlan {
    delta: f64,
    budget_eps: f64,
}

impl<D: AbstractDp, B: Budget> AccountantPlan<D, B> for RdpPlan {
    type Built = RdpMeter<B>;
    fn build_accountant(self, _lanes: usize) -> RdpMeter<B> {
        RdpMeter::new(self.delta, self.budget_eps)
    }
}

/// Plan for a [`ShardedRdpMeter`] with one accumulator per executor lane
/// (see [`SessionBuilder::sharded_rdp`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardedRdpPlan {
    delta: f64,
    budget_eps: f64,
}

impl<D: AbstractDp, B: Budget> AccountantPlan<D, B> for ShardedRdpPlan {
    type Built = ShardedRdpMeter<B>;
    fn build_accountant(self, lanes: usize) -> ShardedRdpMeter<B> {
        ShardedRdpMeter::new(self.delta, self.budget_eps, lanes)
    }
}

/// Plan for an in-memory per-principal [`BudgetRegistry`] with one lock
/// shard per executor lane (see [`SessionBuilder::registry`]).
#[derive(Debug, Clone)]
pub struct RegistryPlan<B: Budget> {
    per_principal: B,
}

impl<D: AbstractDp, B: Budget> AccountantPlan<D, B> for RegistryPlan<B> {
    type Built = BudgetRegistry<D, B>;
    fn build_accountant(self, lanes: usize) -> BudgetRegistry<D, B> {
        BudgetRegistry::with_budget(self.per_principal, lanes)
    }
}

/// How many lock shards a [`SessionBuilder::durable`] registry spreads
/// its principals over. Purely a contention knob — durable charges
/// commit through the journal's group-commit queue anyway, so the shard
/// count only affects journal-free reads; callers who care use
/// [`DurableRegistry::open_with_options`] directly.
const DURABLE_LOCK_SHARDS: usize = 8;

/// Plan holding an already-opened [`DurableRegistry`]. Opening — and
/// therefore crash recovery — happens at the [`SessionBuilder::durable`]
/// / [`SessionBuilder::durable_with_options`] step, where the I/O error
/// has a `Result` to surface through;
/// [`build_per_principal`](SessionBuilder::build_per_principal) itself
/// stays infallible.
pub struct DurablePlan<D: AbstractDp, B: Budget, S: JournalStorage> {
    registry: DurableRegistry<D, B, S>,
}

impl<D: AbstractDp, B: Budget, S: JournalStorage> std::fmt::Debug for DurablePlan<D, B, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurablePlan")
            .field("registry", &self.registry)
            .finish()
    }
}

impl<D: AbstractDp, B: Budget, S: JournalStorage> AccountantPlan<D, B> for DurablePlan<D, B, S> {
    type Built = DurableRegistry<D, B, S>;
    fn build_accountant(self, _lanes: usize) -> DurableRegistry<D, B, S> {
        self.registry
    }
}

/// The typestate builder behind [`Session::builder`]; see the
/// module-level docs above for the axes and an example.
///
/// Type parameters track the choices made so far: `B` the budget carrier,
/// `A` the accountant plan (or [`NoAccountant`]), `X` the executor choice
/// (or [`NoExecutor`]). [`build`](Self::build) only exists once an
/// accountant and an executor are chosen **and** the pair is legal.
#[derive(Debug)]
pub struct SessionBuilder<D: AbstractDp, B: Budget = f64, A = NoAccountant, X = NoExecutor> {
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
}

impl<D: AbstractDp, B: Budget, X> SessionBuilder<D, B, NoAccountant, X> {
    fn with_accountant<A2>(self, accountant: A2) -> SessionBuilder<D, B, A2, X> {
        SessionBuilder {
            accountant,
            executor: self.executor,
            entropy: self.entropy,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }

    /// Switches the budget carrier to the exact dyadic lattice
    /// ([`Dyadic`](sampcert_arith::Dyadic)): gcd-free exact accounting,
    /// strict acceptance. Must precede the accountant choice (the carrier
    /// lives inside the accountant's type).
    pub fn exact(self) -> SessionBuilder<D, sampcert_arith::Dyadic, NoAccountant, X> {
        self.carrier::<sampcert_arith::Dyadic>()
    }

    /// Switches to an arbitrary budget carrier (`f64` is the default;
    /// [`exact`](Self::exact) is the shorthand for
    /// [`Dyadic`](sampcert_arith::Dyadic)).
    pub fn carrier<B2: Budget>(self) -> SessionBuilder<D, B2, NoAccountant, X> {
        SessionBuilder {
            accountant: NoAccountant,
            executor: self.executor,
            entropy: self.entropy,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }

    /// A global [`Ledger`] with the given budget (converted into the
    /// carrier rounding **down**, as everywhere in the accounting layer).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or not finite.
    pub fn ledger(self, budget: f64) -> SessionBuilder<D, B, LedgerPlan<B>, X> {
        assert!(budget.is_finite() && budget >= 0.0, "invalid budget");
        self.ledger_exact(B::budget_from_f64(budget))
    }

    /// [`ledger`](Self::ledger) with the budget already in the carrier —
    /// the lossless entry point for exact budgets.
    pub fn ledger_exact(self, budget: B) -> SessionBuilder<D, B, LedgerPlan<B>, X> {
        assert!(budget.is_valid(), "invalid budget");
        self.with_accountant(LedgerPlan { budget })
    }

    /// A [`ShardedLedger`] with one shard per executor lane. Requires a
    /// [`ShardedExecutor`] — pairing with [`inline`](Self::inline) is a
    /// compile error (see the module-level docs above).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or not finite.
    pub fn sharded_ledger(self, budget: f64) -> SessionBuilder<D, B, ShardedLedgerPlan<B>, X> {
        assert!(budget.is_finite() && budget >= 0.0, "invalid budget");
        self.sharded_ledger_exact(B::budget_from_f64(budget))
    }

    /// [`sharded_ledger`](Self::sharded_ledger) with the budget already
    /// in the carrier.
    pub fn sharded_ledger_exact(self, budget: B) -> SessionBuilder<D, B, ShardedLedgerPlan<B>, X> {
        assert!(budget.is_valid(), "invalid budget");
        self.with_accountant(ShardedLedgerPlan { budget })
    }

    /// A global [`RdpMeter`] enforcing `ε ≤ budget_eps` at `delta`.
    /// Requires the notion to have a full Rényi curve ([`RdpCurve`]:
    /// [`PureDp`] or [`Zcdp`]).
    pub fn rdp(self, delta: f64, budget_eps: f64) -> SessionBuilder<D, B, RdpPlan, X> {
        self.with_accountant(RdpPlan { delta, budget_eps })
    }

    /// A [`ShardedRdpMeter`] with one accumulator per executor lane;
    /// requires a [`ShardedExecutor`], like
    /// [`sharded_ledger`](Self::sharded_ledger).
    pub fn sharded_rdp(
        self,
        delta: f64,
        budget_eps: f64,
    ) -> SessionBuilder<D, B, ShardedRdpPlan, X> {
        self.with_accountant(ShardedRdpPlan { delta, budget_eps })
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
    pub fn registry(self, per_principal: f64) -> SessionBuilder<D, B, RegistryPlan<B>, X> {
        assert!(
            per_principal.is_finite() && per_principal >= 0.0,
            "invalid budget"
        );
        self.registry_exact(B::budget_from_f64(per_principal))
    }

    /// [`registry`](Self::registry) with the allowance already in the
    /// carrier — the lossless entry point for exact budgets.
    pub fn registry_exact(self, per_principal: B) -> SessionBuilder<D, B, RegistryPlan<B>, X> {
        assert!(per_principal.is_valid(), "invalid budget");
        self.with_accountant(RegistryPlan { per_principal })
    }
}

impl<D: AbstractDp, B: Budget, X> SessionBuilder<D, B, RegistryPlan<B>, X> {
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
    ) -> Result<SessionBuilder<D, B, DurablePlan<D, B, FileStorage>, X>, RecoveryError> {
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
    ) -> Result<SessionBuilder<D, B, DurablePlan<D, B, S>, X>, RecoveryError> {
        let (registry, _report) = DurableRegistry::open_with_options(
            self.accountant.per_principal,
            DURABLE_LOCK_SHARDS,
            storage,
            options,
        )?;
        Ok(SessionBuilder {
            accountant: DurablePlan { registry },
            executor: self.executor,
            entropy: self.entropy,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        })
    }
}

impl<D: AbstractDp, B: Budget, A> SessionBuilder<D, B, A, NoExecutor> {
    /// The single-lane in-process executor — the sequential baseline.
    pub fn inline(self) -> SessionBuilder<D, B, A, Planned<Inline>> {
        self.executor::<Inline>(1)
    }

    /// Any [`SpawnExecutor`] backend, spawned with (up to) `lanes` lanes
    /// at build time — e.g. `.executor::<RtExecutor>(8)` for the
    /// `sampcert-rt` draw pool. A `lanes` of zero is clamped to one.
    pub fn executor<E: SpawnExecutor>(self, lanes: usize) -> SessionBuilder<D, B, A, Planned<E>> {
        SessionBuilder {
            accountant: self.accountant,
            executor: Planned {
                lanes: lanes.max(1),
                _exec: PhantomData,
            },
            entropy: self.entropy,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }
}

impl<D: AbstractDp, B: Budget, P, E> SessionBuilder<D, B, P, Planned<E>>
where
    P: AccountantPlan<D, B>,
    E: SpawnExecutor,
    P::Built: Accountant<D, B, E>,
{
    /// Spawns the executor, sizes the accountant to its actual lane
    /// count, and returns the ready session. Only defined for legal
    /// accountant × executor pairs — illegal pairs fail to compile.
    pub fn build(self) -> Session<D, B, P::Built, E> {
        let executor = E::spawn(self.entropy, self.executor.lanes);
        let lanes = executor.lanes();
        Session {
            accountant: self.accountant.build_accountant(lanes),
            executor,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
    }
}

impl<D: AbstractDp, B: Budget, P, E> SessionBuilder<D, B, P, Planned<E>>
where
    P: AccountantPlan<D, B>,
    E: SpawnExecutor,
    P::Built: PrincipalAccountant<D, B, E>,
{
    /// [`build`](Self::build) for per-principal sessions
    /// ([`SessionBuilder::registry`] / [`SessionBuilder::durable`]):
    /// every serve names the principal it charges
    /// ([`Session::answer_for`] and friends). The principal-less
    /// [`Session::answer`] does not exist on the built session, and
    /// `build_per_principal` does not exist on global-accountant builders
    /// — the request surface always matches the accounting granularity.
    pub fn build_per_principal(self) -> Session<D, B, P::Built, E> {
        let executor = E::spawn(self.entropy, self.executor.lanes);
        let lanes = executor.lanes();
        Session {
            accountant: self.accountant.build_accountant(lanes),
            executor,
            admission: self.admission,
            ingress: self.ingress,
            _notion: PhantomData,
            _carrier: PhantomData,
        }
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
pub struct Session<D: AbstractDp, B: Budget = f64, A = NoAccountant, E = NoExecutor> {
    accountant: A,
    executor: E,
    admission: AdmissionPolicy,
    ingress: IngressGauge,
    _notion: PhantomData<D>,
    _carrier: PhantomData<B>,
}

impl<D: AbstractDp> Session<D> {
    /// Starts a builder with the default axes: `f64` carrier, OS entropy,
    /// open admission, no accountant or executor chosen yet.
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
    /// See [`Accountant::serve_into`]; a refusal releases nothing (and,
    /// on global accountants, consumes no entropy).
    pub fn answer<T: Sync + 'static, U: Value>(
        &mut self,
        req: &Request<D, T, U>,
        db: &[T],
    ) -> Result<U, SessionError<B>>
    where
        A: Accountant<D, B, E>,
    {
        let mut out = Vec::with_capacity(1);
        self.accountant
            .serve_into(&mut self.executor, req, db, 1, &mut out)?;
        out.pop().ok_or_else(|| {
            SessionError::Executor(ExecutorFailure::new("executor returned no answer"))
        })
    }

    /// Charges and serves `n` independent answers of `req` on `db` — one
    /// batched charge, answers in lane order (byte-identical to the
    /// legacy batched paths; pinned by `tests/session_api.rs`).
    ///
    /// # Errors
    ///
    /// See [`Accountant::serve_into`]. All-or-nothing on global
    /// accountants; on sharded accountants the first refusing shard wins
    /// and already-charged chunks stay charged (conservative).
    pub fn answer_many<T: Sync + 'static, U: Value>(
        &mut self,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
    ) -> Result<Vec<U>, SessionError<B>>
    where
        A: Accountant<D, B, E>,
    {
        let mut out = Vec::with_capacity(n);
        self.accountant
            .serve_into(&mut self.executor, req, db, n, &mut out)?;
        Ok(out)
    }

    /// [`answer_many`](Self::answer_many) into a caller-owned buffer —
    /// the reserve-once, buffer-reusing form for long serving loops.
    ///
    /// # Errors
    ///
    /// See [`answer_many`](Self::answer_many); `out` is untouched on
    /// refusal.
    pub fn stream_into<T: Sync + 'static, U: Value>(
        &mut self,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>
    where
        A: Accountant<D, B, E>,
    {
        self.accountant
            .serve_into(&mut self.executor, req, db, n, out)
    }

    /// Charges one answer of `req` to `principal` and serves it — the
    /// per-principal twin of [`answer`](Self::answer), on sessions built
    /// with [`SessionBuilder::build_per_principal`].
    ///
    /// # Errors
    ///
    /// See [`PrincipalAccountant::serve_for_into`]; a refusal (budget or
    /// journal) releases nothing and consumes no entropy.
    pub fn answer_for<T: Sync + 'static, U: Value>(
        &mut self,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
    ) -> Result<U, SessionError<B>>
    where
        A: PrincipalAccountant<D, B, E>,
    {
        let mut out = Vec::with_capacity(1);
        self.accountant
            .serve_for_into(&mut self.executor, principal, req, db, 1, &mut out)?;
        out.pop().ok_or_else(|| {
            SessionError::Executor(ExecutorFailure::new("executor returned no answer"))
        })
    }

    /// Charges `n` answers of `req` to `principal` as one batched
    /// (all-or-nothing) charge and serves them in lane order — the
    /// per-principal twin of [`answer_many`](Self::answer_many).
    ///
    /// # Errors
    ///
    /// See [`PrincipalAccountant::serve_for_into`].
    pub fn answer_many_for<T: Sync + 'static, U: Value>(
        &mut self,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
    ) -> Result<Vec<U>, SessionError<B>>
    where
        A: PrincipalAccountant<D, B, E>,
    {
        let mut out = Vec::with_capacity(n);
        self.accountant
            .serve_for_into(&mut self.executor, principal, req, db, n, &mut out)?;
        Ok(out)
    }

    /// [`answer_many_for`](Self::answer_many_for) into a caller-owned
    /// buffer; `out` is untouched on refusal.
    ///
    /// # Errors
    ///
    /// See [`PrincipalAccountant::serve_for_into`].
    pub fn stream_into_for<T: Sync + 'static, U: Value>(
        &mut self,
        principal: u64,
        req: &Request<D, T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>>
    where
        A: PrincipalAccountant<D, B, E>,
    {
        self.accountant
            .serve_for_into(&mut self.executor, principal, req, db, n, out)
    }

    /// The future-returning twin of [`answer`](Self::answer), with
    /// admission control. The [`AdmissionPolicy`] is evaluated here, at
    /// construction — **before any charge** — and a rejected request
    /// resolves to [`SessionError::QueueFull`] / [`SessionError::Shed`]
    /// having spent nothing and consumed no entropy. An admitted
    /// request's first poll runs the exact synchronous
    /// [`answer`](Self::answer) path (charge-before-serve preserved), so
    /// the released bytes and recorded charges are identical to the
    /// synchronous surface (pinned by `tests/admission.rs`).
    ///
    /// The returned future is `Unpin`, completes on its first poll, and
    /// never returns `Poll::Pending` — all the work is synchronous CPU
    /// work; the future form exists so requests can be queued, shed, and
    /// scheduled by a runtime (`sampcert-rt`) between admission and
    /// service.
    pub fn answer_async<'a, T: Sync + 'static, U: Value>(
        &'a mut self,
        req: &'a Request<D, T, U>,
        db: &'a [T],
    ) -> AnswerFuture<'a, D, B, A, E, T, U>
    where
        A: Accountant<D, B, E> + Admission<D, B>,
    {
        let servable = !self.admission.sheds_unservable()
            || self.accountant.can_admit(req.gamma_unit(), req.units());
        let state = match self.admission_gate(servable, req.label()) {
            Err(e) => AnswerState::Rejected(e),
            Ok(()) => AnswerState::Serve {
                session: self,
                req,
                db,
            },
        };
        AnswerFuture { state }
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
    ) -> AnswerForFuture<'a, D, B, A, E, T, U>
    where
        A: PrincipalAccountant<D, B, E> + PrincipalAdmission<D, B>,
    {
        let servable = !self.admission.sheds_unservable()
            || self
                .accountant
                .can_admit_for(principal, req.gamma_unit(), req.units());
        let state = match self.admission_gate(servable, req.label()) {
            Err(e) => AnswerForState::Rejected(e),
            Ok(()) => AnswerForState::Serve {
                session: self,
                principal,
                req,
                db,
            },
        };
        AnswerForFuture { state }
    }
}

// ---------------------------------------------------------------------------
// Answer futures
// ---------------------------------------------------------------------------

enum AnswerState<'a, D: AbstractDp, B: Budget, A, E, T, U: Value> {
    Rejected(SessionError<B>),
    Serve {
        session: &'a mut Session<D, B, A, E>,
        req: &'a Request<D, T, U>,
        db: &'a [T],
    },
    Done,
}

/// The future returned by [`Session::answer_async`]. Admission already
/// ran at construction; the first poll runs charge-then-serve and
/// resolves — see [`Session::answer_async`] for the contract.
pub struct AnswerFuture<'a, D: AbstractDp, B: Budget, A, E, T, U: Value> {
    state: AnswerState<'a, D, B, A, E, T, U>,
}

// The future holds only references and an error value and is never
// self-referential, so it is trivially Unpin regardless of whether the
// carrier/accountant types are.
impl<D: AbstractDp, B: Budget, A, E, T, U: Value> Unpin for AnswerFuture<'_, D, B, A, E, T, U> {}

impl<D: AbstractDp, B: Budget, A, E, T, U> Future for AnswerFuture<'_, D, B, A, E, T, U>
where
    E: Executor,
    A: Accountant<D, B, E>,
    T: Sync + 'static,
    U: Value,
{
    type Output = Result<U, SessionError<B>>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match std::mem::replace(&mut this.state, AnswerState::Done) {
            AnswerState::Rejected(e) => Poll::Ready(Err(e)),
            AnswerState::Serve { session, req, db } => Poll::Ready(session.answer(req, db)),
            AnswerState::Done => panic!("AnswerFuture polled after completion"),
        }
    }
}

enum AnswerForState<'a, D: AbstractDp, B: Budget, A, E, T, U: Value> {
    Rejected(SessionError<B>),
    Serve {
        session: &'a mut Session<D, B, A, E>,
        principal: u64,
        req: &'a Request<D, T, U>,
        db: &'a [T],
    },
    Done,
}

/// The future returned by [`Session::answer_for_async`] — the
/// per-principal twin of [`AnswerFuture`], with the same
/// admission-at-construction / serve-on-first-poll contract.
pub struct AnswerForFuture<'a, D: AbstractDp, B: Budget, A, E, T, U: Value> {
    state: AnswerForState<'a, D, B, A, E, T, U>,
}

impl<D: AbstractDp, B: Budget, A, E, T, U: Value> Unpin for AnswerForFuture<'_, D, B, A, E, T, U> {}

impl<D: AbstractDp, B: Budget, A, E, T, U> Future for AnswerForFuture<'_, D, B, A, E, T, U>
where
    E: Executor,
    A: PrincipalAccountant<D, B, E>,
    T: Sync + 'static,
    U: Value,
{
    type Output = Result<U, SessionError<B>>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match std::mem::replace(&mut this.state, AnswerForState::Done) {
            AnswerForState::Rejected(e) => Poll::Ready(Err(e)),
            AnswerForState::Serve {
                session,
                principal,
                req,
                db,
            } => Poll::Ready(session.answer_for(principal, req, db)),
            AnswerForState::Done => panic!("AnswerForFuture polled after completion"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{FaultPlan, MemStorage};
    use crate::query::count_query;
    use sampcert_arith::Dyadic;
    use sampcert_slang::SeededByteSource;

    fn count_req(num: u64, den: u64) -> Request<PureDp, u8, i64> {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), num, den);
        Request::from_private(&p, "count")
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
            _carrier: PhantomData::<f64>,
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
            .exact()
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
        let budget: SessionError = SessionError::Budget(BudgetExceeded::new(0.5, 0.25));
        assert_eq!(
            budget.source().unwrap().to_string(),
            "privacy budget exceeded: requested 0.5, remaining 0.25 [carrier: f64]"
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
    fn poll_once<F: Future + Unpin>(mut fut: F) -> F::Output {
        struct NoopWake;
        impl std::task::Wake for NoopWake {
            fn wake(self: Arc<Self>) {}
        }
        let waker = std::task::Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(out) => out,
            Poll::Pending => unreachable!("answer futures resolve on first poll"),
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
            .exact()
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
            .exact()
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
    fn sharded_admission_keys_on_granted_upper_bound() {
        let ledger = ShardedLedger::<PureDp>::new(1.0, 4);
        // A fresh sharded ledger has granted headroom but no spend; a
        // batch that fits the budget is admissible, one that cannot fit
        // is not.
        assert!(Admission::<PureDp, f64>::can_admit(&ledger, 0.25, 2));
        assert!(!Admission::<PureDp, f64>::can_admit(&ledger, 0.3, 4));
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
            .exact()
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
            .exact()
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
            .exact()
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
            .exact()
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
            .exact()
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
