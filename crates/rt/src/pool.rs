//! [`RtExecutor`]: the draw-plane execution backend — the one pooled
//! [`Executor`] of the serving stack.
//!
//! The serving stack has two planes with deliberately different
//! scheduling:
//!
//! - on the **request plane** (the [`Runtime`](crate::Runtime)) any
//!   free worker takes the next task — which worker polls a request's
//!   future is unobservable, so this is pure load balancing;
//! - the **draw plane** (this executor) keeps the *static contiguous
//!   partition* ([`sampcert_core::lane_partition`]): lane `i` always
//!   serves chunk `i` from its own persistent byte stream
//!   (`root.stream(i)` under [`Entropy::Seeded`]).
//!
//! Moving chunks between lanes would break the byte-stream determinism
//! contract: which stream an answer came from must be a function of the
//! request, not the scheduler. An `RtExecutor` batch is therefore
//! stream-for-stream identical to a per-lane sequential replay — lane
//! `i`'s chunk drawn by [`Mechanism::run_many_into`] from
//! `root.stream(i)` (pinned by this crate's integration tests) — and all
//! elasticity lives one level up, in the runtime's task scheduler.
//!
//! Lane 0 draws its chunk on the calling thread, and only the other
//! lanes with a non-empty chunk get a scoped thread: a batch of fewer
//! answers than lanes spawns fewer threads, and a one-answer batch
//! spawns none. Streams are unchanged by this, since lane `i` still
//! serves chunk `i` and a lane with no chunk draws nothing.
//!
//! The executor only draws. The session's accountant charges the whole
//! batch before [`Executor::run_into`] is called, so a refused request
//! never reaches a lane.

use sampcert_core::{Entropy, Executor, ExecutorFailure, Mechanism};
use sampcert_slang::{ByteSource, OsByteSource, Value};

/// One draw lane: a persistent byte stream owned by this executor and
/// handed exclusively to one thread per batch.
struct Lane {
    src: Box<dyn ByteSource + Send>,
}

/// A fixed-lane draw executor for the async serving runtime. See the
/// [module docs](self) for why the draw plane is static.
pub struct RtExecutor {
    lanes: Vec<Lane>,
}

impl std::fmt::Debug for RtExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtExecutor")
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl RtExecutor {
    /// Builds `lanes` persistent draw lanes (clamped to ≥ 1).
    /// [`Entropy::Seeded`] gives lane `i` the stream `root.stream(i)` —
    /// lane 0's is the stream [`sampcert_core::Inline`] derives, which is
    /// what makes the byte-equality suite possible.
    pub fn new(entropy: Entropy, lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let build = |i: usize| -> Box<dyn ByteSource + Send> {
            match &entropy {
                Entropy::Os => Box::new(OsByteSource::new()),
                Entropy::Seeded(root) => Box::new(root.stream(i as u64)),
            }
        };
        RtExecutor {
            lanes: (0..lanes).map(|i| Lane { src: build(i) }).collect(),
        }
    }
}

/// `spawn` lets `SessionBuilder::executor::<RtExecutor>(lanes)` build the
/// draw pool straight from the session's entropy choice.
impl Executor for RtExecutor {
    fn spawn(entropy: Entropy, lanes: usize) -> Self {
        RtExecutor::new(entropy, lanes)
    }

    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn run_into<T: Sync + 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
        out: &mut Vec<U>,
    ) -> Result<(), ExecutorFailure> {
        let chunks = sampcert_core::lane_partition(n, self.lanes.len());
        // Lane 0 draws on the calling thread, straight into `out`; only
        // the other lanes with a non-empty chunk get a scoped thread, and
        // a batch with no such lane opens no thread scope at all.
        let (first, rest) = self.lanes.split_at_mut(1);
        let first = &mut *first[0].src;
        if chunks[1..].iter().all(|&len| len == 0) {
            mech.run_many_into(db, chunks[0], first, out);
            return Ok(());
        }
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter_mut()
                .zip(&chunks[1..])
                .filter(|(_, &len)| len > 0)
                .map(|(lane, &len)| {
                    scope.spawn(move || {
                        let mut part = Vec::new();
                        mech.run_many_into(db, len, &mut *lane.src, &mut part);
                        part
                    })
                })
                .collect();
            mech.run_many_into(db, chunks[0], first, out);
            handles
                .into_iter()
                .map(|h| h.join().expect("draw lane panicked"))
                .collect::<Vec<_>>()
        });
        for part in parts {
            out.extend(part);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_core::{count_query, DpNoise, Zcdp};
    use sampcert_slang::SplitSeed;

    #[test]
    fn lane_count_is_clamped_and_reported() {
        let ex = RtExecutor::new(Entropy::Os, 0);
        assert_eq!(ex.lanes(), 1);
        let ex = RtExecutor::new(Entropy::Seeded(SplitSeed::new(7)), 4);
        assert_eq!(ex.lanes(), 4);
    }

    #[test]
    fn seeded_executors_replay_each_other_and_keep_their_streams() {
        let mech = Zcdp::noise(&count_query::<u8>(), 1, 8);
        let db = [0u8; 4];
        let mut a = RtExecutor::new(Entropy::seeded(11), 4);
        let mut b = RtExecutor::new(Entropy::seeded(11), 4);
        let serve = |ex: &mut RtExecutor| {
            let mut out = Vec::new();
            ex.run_into(&mech, &db, 1000, &mut out).unwrap();
            out
        };
        let first = serve(&mut a);
        assert_eq!(first, serve(&mut b));
        // The lanes are persistent: a second batch continues each stream
        // instead of restarting it.
        let second = serve(&mut a);
        assert_ne!(first, second);
        assert_eq!(second, serve(&mut b));
    }
}
