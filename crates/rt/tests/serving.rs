//! Integration suite for the serving runtime: draw-plane byte equality
//! against a per-lane sequential replay, the full session-on-runtime
//! path, and the shed-before-charge invariant at the runtime level.

use sampcert_core::{
    count_query, lane_partition, AdmissionPolicy, Entropy, Executor, Inline, Mechanism, Private,
    PureDp, Request, Session, ShardedExecutor, ShardedLedger,
};
use sampcert_rt::{block_on, Ingress, RtExecutor, Runtime};
use sampcert_slang::{SeededByteSource, SplitSeed, Value};

const ROOT: u64 = 0xC0FF_EE00;

fn count_request() -> Request<PureDp, u32, i64> {
    let q: Private<PureDp, u32, i64> = Private::noised_query(&count_query(), 1, 1);
    Request::from_private(&q, "count")
}

/// The reference every pooled batch is pinned against: lane `i` draws
/// its chunk of the [`lane_partition`] sequentially from its own
/// persistent stream `root.stream(i)`, and the chunks concatenate in lane
/// order.
struct LaneReplay {
    lanes: Vec<SeededByteSource>,
}

impl LaneReplay {
    fn new(root: u64, lanes: usize) -> Self {
        let root = SplitSeed::new(root);
        LaneReplay {
            lanes: (0..lanes as u64).map(|i| root.stream(i)).collect(),
        }
    }

    fn serve<T: 'static, U: Value>(
        &mut self,
        mech: &Mechanism<T, U>,
        db: &[T],
        n: usize,
    ) -> Vec<U> {
        let chunks = lane_partition(n, self.lanes.len());
        let mut out = Vec::new();
        for (src, len) in self.lanes.iter_mut().zip(chunks) {
            mech.run_many_into(db, len, src, &mut out);
        }
        out
    }
}

/// The draw plane is scheduling only: for every lane count and every
/// batch size around the partition boundaries, both `run_into` and the
/// charge-before-serve `run_sharded_into` release exactly the per-lane
/// sequential replay — and a second batch continues each lane's stream.
#[test]
fn rt_executor_equals_per_lane_sequential_replay() {
    let req = count_request();
    let db: Vec<u32> = (0..500).collect();
    for lanes in 1..=4usize {
        for n in (1..=8).chain([16, 33]) {
            let mut replay = LaneReplay::new(ROOT, lanes);
            let mut plain = RtExecutor::new(Entropy::seeded(ROOT), lanes);
            let mut sharded = RtExecutor::new(Entropy::seeded(ROOT), lanes);
            let ledger: ShardedLedger<PureDp> = ShardedLedger::new(1e6, lanes);
            for batch in 0..2 {
                let expect = replay.serve(req.mechanism(), &db, n);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                plain.run_into(req.mechanism(), &db, n, &mut a).unwrap();
                sharded
                    .run_sharded_into(req.mechanism(), &db, n, 1.0, 1, &ledger, &mut b)
                    .unwrap();
                assert_eq!(a, expect, "run_into: lanes {lanes}, n {n}, batch {batch}");
                assert_eq!(
                    b, expect,
                    "run_sharded_into: lanes {lanes}, n {n}, batch {batch}"
                );
            }
        }
    }
}

/// One lane of the runtime executor is the sequential baseline: it is
/// the `Inline` executor, byte for byte.
#[test]
fn single_lane_rt_executor_is_inline() {
    let req = count_request();
    let db: Vec<u32> = (0..100).collect();
    let mut rt_ex = RtExecutor::new(Entropy::seeded(ROOT), 1);
    let mut inline = Inline::new(Entropy::seeded(ROOT));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    rt_ex.run_into(req.mechanism(), &db, 12, &mut a).unwrap();
    inline.run_into(req.mechanism(), &db, 12, &mut b).unwrap();
    assert_eq!(a, b);
}

/// A session built over `RtExecutor` answers the per-lane replay — the
/// executor slots into the typestate builder like any other backend.
#[test]
fn session_over_rt_executor_equals_per_lane_replay() {
    let req = count_request();
    let db: Vec<u32> = (0..250).collect();
    let mut session = Session::<PureDp>::builder()
        .ledger(16.0)
        .seeded(ROOT)
        .executor::<RtExecutor>(3)
        .build();
    let got = session.answer_many(&req, &db, 9).unwrap();
    assert_eq!(got, LaneReplay::new(ROOT, 3).serve(req.mechanism(), &db, 9));
    assert_eq!(session.accountant().spent(), 9.0);
}

/// The full stack: an `RtExecutor`-backed session owned by a runtime
/// task, fed through the bounded ingress queue, serving `answer_async`.
/// Answers equal the synchronous session with the same seed, and the
/// spend equals the accepted count.
#[test]
fn rt_executor_session_serves_on_the_runtime() {
    let req = count_request();
    let runtime = Runtime::new(3);
    let queue: Ingress<Request<PureDp, u32, i64>> = Ingress::bounded(32);

    let mut async_session = Session::<PureDp>::builder()
        .ledger(16.0)
        .seeded(ROOT)
        .admission(
            AdmissionPolicy::open()
                .max_queue_depth(32)
                .shed_unservable(),
        )
        .ingress(queue.gauge())
        .executor::<RtExecutor>(2)
        .build();
    let mut sync_session = Session::<PureDp>::builder()
        .ledger(16.0)
        .seeded(ROOT)
        .executor::<RtExecutor>(2)
        .build();

    for _ in 0..8 {
        queue.try_push(req.clone()).unwrap();
    }
    queue.close();

    let server = {
        let queue = queue.clone();
        runtime.spawn(async move {
            let db: Vec<u32> = (0..300).collect();
            let mut answers = Vec::new();
            while let Some(req) = queue.pop() {
                answers.push(async_session.answer_async(&req, &db).await);
            }
            (answers, async_session.accountant().spent())
        })
    };
    let (answers, spent) = block_on(server);

    let db: Vec<u32> = (0..300).collect();
    assert_eq!(answers.len(), 8);
    for got in answers {
        let want = sync_session.answer(&req, &db).unwrap();
        assert_eq!(got.unwrap(), want);
    }
    assert_eq!(spent, 8.0);
    assert_eq!(queue.gauge().depth(), 0);
}

/// Shed-before-charge at the runtime level: requests refused at the
/// ingress door or by budget-keyed admission leave the accountant's
/// spend exactly equal to the accepted count — sheds cost nothing.
#[test]
fn sheds_at_the_door_cost_nothing() {
    let req = count_request();
    let queue: Ingress<Request<PureDp, u32, i64>> = Ingress::bounded(3);

    // ε = 5 admits exactly five ε = 1 requests; the rest must shed.
    let mut session = Session::<PureDp>::builder()
        .ledger(5.0)
        .seeded(ROOT)
        .admission(AdmissionPolicy::open().max_queue_depth(3).shed_unservable())
        .ingress(queue.gauge())
        .inline()
        .build();
    let db: Vec<u32> = (0..50).collect();

    let mut accepted = 0u32;
    let mut door_sheds = 0u32;
    let mut budget_sheds = 0u32;
    // Two bursts of 10 arrivals against a 3-deep queue: each burst sheds
    // 7 at the door, then the queue drains through the session. The
    // second burst's tail overruns the ε = 5 ledger and sheds on budget.
    for _burst in 0..2 {
        for _ in 0..10 {
            if let Err(shed) = queue.try_push(req.clone()) {
                door_sheds += 1;
                assert!(shed.error.depth() > 3);
            }
        }
        while let Some(popped) = queue.try_pop() {
            match block_on(session.answer_async(&popped, &db)) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    assert!(e.is_admission(), "expected an admission refusal: {e}");
                    budget_sheds += 1;
                }
            }
        }
    }
    assert_eq!(door_sheds, 14);
    assert_eq!(accepted, 5);
    assert_eq!(budget_sheds, 1);
    assert_eq!(
        session.accountant().spent(),
        f64::from(accepted),
        "sheds must not move the accountant"
    );
}
