//! [`RtExecutor`]: the draw-plane execution backend — the one pooled
//! [`Executor`] of the serving stack.
//!
//! The serving stack has two planes with deliberately different
//! scheduling:
//!
//! - the **request plane** (the [`Runtime`](crate::Runtime)) steals
//!   work freely — which worker polls a request's future is
//!   unobservable, so migration is pure load balancing;
//! - the **draw plane** (this executor) keeps the *static contiguous
//!   partition* ([`sampcert_core::lane_partition`]): lane `i` always
//!   serves chunk `i` from its own persistent byte stream
//!   (`root.stream(i)` under [`Entropy::Seeded`]).
//!
//! Stealing on the draw plane would be wrong twice over: it would break
//! the byte-stream determinism contract (which stream an answer came
//! from must be a function of the request, not the scheduler), and it
//! would falsify per-lane accounting — [`Executor::partition`] is the
//! basis on which a sharded accountant attributes charges to lanes, so
//! the lanes must actually serve those chunks. An `RtExecutor` batch is
//! therefore stream-for-stream identical to a per-lane sequential replay
//! — lane `i`'s chunk drawn by [`Mechanism::run_many_into`] from
//! `root.stream(i)` (pinned by this crate's integration tests) — and all
//! elasticity lives one level up, in the runtime's task scheduler.

use sampcert_core::{
    AbstractDp, Budget, Entropy, Executor, ExecutorFailure, Mechanism, SessionError,
    ShardedExecutor, ShardedLedger, SpawnExecutor,
};
use sampcert_slang::{ByteSource, OsByteSource, Value};

/// One draw lane: a persistent byte stream owned by this executor and
/// handed exclusively to one scoped thread per batch.
struct Lane {
    src: Box<dyn ByteSource + Send>,
}

/// A fixed-lane draw executor for the async serving runtime. See the
/// [module docs](self) for why the draw plane does not steal.
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

    /// Scoped-thread fan-out over the lanes, results in lane order. A
    /// single lane serves inline on the calling thread, so one-lane
    /// executors are a true sequential baseline.
    fn fan_out<R, F>(&mut self, serve: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Lane) -> R + Sync,
    {
        if self.lanes.len() == 1 {
            return vec![serve(0, &mut self.lanes[0])];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| {
                    let serve = &serve;
                    scope.spawn(move || serve(i, lane))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("draw lane panicked"))
                .collect()
        })
    }
}

impl Executor for RtExecutor {
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
        let parts = self.fan_out(|i, lane| {
            let mut part = Vec::new();
            mech.run_many_into(db, chunks[i], &mut *lane.src, &mut part);
            part
        });
        for part in parts {
            out.extend(part);
        }
        Ok(())
    }
}

/// Charge-before-serve per lane: lane `i` batch-charges shard `i`
/// (`chunkᵢ · units` releases of `gamma_unit`) before drawing a byte,
/// and every verdict is collected before anything is released.
impl ShardedExecutor for RtExecutor {
    fn run_sharded_into<D: AbstractDp, B: Budget, T: Sync + 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
        gamma_unit: f64,
        units: u64,
        ledger: &ShardedLedger<D, B>,
        out: &mut Vec<U>,
    ) -> Result<(), SessionError<B>> {
        if ledger.shards() < self.lanes.len() {
            return Err(SessionError::Executor(ExecutorFailure::new(format!(
                "ledger has {} shards but the executor has {} lanes",
                ledger.shards(),
                self.lanes.len()
            ))));
        }
        let chunks = sampcert_core::lane_partition(n, self.lanes.len());
        let parts = self.fan_out(|i, lane| {
            let mut handle = ledger.handle(i);
            handle.charge_batch(gamma_unit, chunks[i] as u64 * units)?;
            let mut part = Vec::new();
            mech.run_many_into(db, chunks[i], &mut *lane.src, &mut part);
            Ok(part)
        });
        // Collect every shard's verdict before touching `out`: a refusing
        // shard discards the other chunks unreleased (their charges stay
        // spent — the conservative direction) and leaves the caller's
        // buffer untouched.
        let served: Vec<Vec<U>> = parts
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(SessionError::Budget)?;
        for part in served {
            out.extend(part);
        }
        Ok(())
    }
}

/// Lets `SessionBuilder::executor::<RtExecutor>(lanes)` spawn the draw
/// pool straight from the session's entropy choice.
impl SpawnExecutor for RtExecutor {
    fn spawn(entropy: Entropy, lanes: usize) -> Self {
        RtExecutor::new(entropy, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_core::{count_query, DpNoise, ExactShardedLedger, Zcdp};
    use sampcert_slang::SplitSeed;

    #[test]
    fn lane_count_is_clamped_and_reported() {
        let ex = RtExecutor::new(Entropy::Os, 0);
        assert_eq!(ex.lanes(), 1);
        let ex = RtExecutor::new(Entropy::Seeded(SplitSeed::new(7)), 4);
        assert_eq!(ex.lanes(), 4);
        assert_eq!(ex.partition(10), vec![3, 3, 2, 2]);
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

    #[test]
    fn partial_shard_refusal_releases_nothing() {
        let mech = Zcdp::noise(&count_query::<u8>(), 1, 2);
        let gamma = Zcdp::noise_priv(1, 2);
        // Budget 1.5 over 2 lanes, 16 answers at ρ = 1/8: each chunk costs
        // 1, so exactly one shard's charge fits — the other must refuse,
        // whatever the thread interleaving.
        let ledger: ExactShardedLedger<Zcdp> = ShardedLedger::new(1.5, 2);
        let mut ex = RtExecutor::new(Entropy::seeded(6), 2);
        let mut out = vec![99];
        let err = ex
            .run_sharded_into(&mech, &[0u8; 5], 16, gamma, 1, &ledger, &mut out)
            .unwrap_err();
        assert!(err.as_budget().expect("budget refusal").shard.is_some());
        assert_eq!(out, vec![99], "a refused batch touched the buffer");
        // The winning shard's charge stays spent: the conservative side.
        assert_eq!(ledger.unallocated(), 0.5);
    }
}
