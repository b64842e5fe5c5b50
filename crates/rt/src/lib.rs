//! # sampcert-rt — the async serving runtime
//!
//! Serving differentially private answers under load needs three things
//! the core `Session` deliberately does not provide: somewhere to *run*
//! the `answer_async` futures, somewhere for requests to *wait*, and a
//! door that can say *no* before any budget is spent. This crate is
//! those three things, dependency-free (plain `std` threads, mutexes
//! and [`std::task::Wake`] — no async ecosystem crates, in the same
//! vendored-shim spirit as the rest of the workspace):
//!
//! - [`Runtime`] — a hand-rolled executor: one shared run queue, a
//!   fixed set of workers parked on a condvar, and
//!   [`spawn`](Runtime::spawn)/[`JoinHandle`]/[`block_on`] as the whole
//!   API surface. Any free worker takes the next task; which worker
//!   serves a request is unobservable, so this is pure load balancing.
//!   A task that panics does not take its worker down: its handle
//!   re-raises the panic.
//! - [`Ingress`] — a bounded MPMC queue that **sheds at the door**:
//!   [`try_push`](Ingress::try_push) refuses immediately when the queue
//!   is at capacity, handing the request back with a
//!   [`QueueFull`](sampcert_core::QueueFull) record. Its depth gauge is
//!   shared with the `Session`, so the session's
//!   [`AdmissionPolicy`](sampcert_core::AdmissionPolicy) reads the real
//!   backlog.
//! - [`RtExecutor`] — the draw-plane backend: fixed contiguous lanes
//!   with persistent per-lane byte streams, implementing the core
//!   `Executor` trait. The draw plane is **static** (see [`pool`]) —
//!   determinism pins each chunk to its lane; elasticity lives in the
//!   runtime above.
//!
//! ## The shed-before-charge invariant
//!
//! The stack preserves the accountant's charge-before-serve discipline
//! and adds its dual: a request refused by admission control — queue
//! over bound, or provably unservable within the remaining budget — is
//! charged **nothing**, journals **nothing**, and draws **no entropy**.
//! The registry after any storm of accepted/shed/refused requests
//! equals a sequential replay of exactly the accepted set
//! (pinned by `tests/admission.rs` at the workspace root and this
//! crate's integration tests).
//!
//! ## Putting it together
//!
//! ```
//! use sampcert_core::{count_query, AdmissionPolicy, Private, PureDp, Request, Session};
//! use sampcert_rt::{block_on, Ingress, Runtime};
//!
//! let rt = Runtime::new(2);
//! let queue: Ingress<Request<PureDp, u32, i64>> = Ingress::bounded(64);
//!
//! // The session shares the queue's depth gauge, so its admission
//! // policy reads real backlog.
//! let mut session = Session::<PureDp>::builder()
//!     .ledger(4.0)
//!     .seeded(7)
//!     .admission(AdmissionPolicy::open().max_queue_depth(64).shed_unservable())
//!     .ingress(queue.gauge())
//!     .inline()
//!     .build();
//!
//! let q: Private<PureDp, u32, i64> = Private::noised_query(&count_query(), 1, 1);
//! queue.try_push(Request::from_private(&q, "count")).unwrap();
//! queue.close();
//!
//! let server = rt.spawn(async move {
//!     let db: Vec<u32> = (0..100).collect();
//!     let mut answers = Vec::new();
//!     while let Some(req) = queue.pop() {
//!         answers.push(session.answer_async(&req, &db).await);
//!     }
//!     answers
//! });
//! let answers = block_on(server);
//! assert_eq!(answers.len(), 1);
//! assert!(answers[0].is_ok());
//! ```

pub mod ingress;
pub mod pool;
pub mod runtime;

pub use ingress::{Ingress, ShedItem};
pub use pool::RtExecutor;
pub use runtime::{block_on, JoinHandle, Runtime};
