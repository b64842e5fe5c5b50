//! Admission-control suite for the async serving surface (the serving-
//! runtime PR): shed-before-charge under randomized storms, determinism
//! of queue-full refusals, and exact async/sync equivalence.
//!
//! Layout:
//!
//! - a shed-storm proptest on the exact carrier: after any randomized
//!   interleaving of arrivals, door sheds and budget sheds, the
//!   per-principal registry spend equals a *sequential replay of exactly
//!   the accepted set* — sheds charged nothing, journaled nothing, and
//!   consumed no entropy (the replay is byte-equal, which it could not
//!   be if a shed had touched the stream);
//! - deterministic queue-full: under a scripted and a seeded schedule,
//!   *which* requests are refused with [`SessionError::QueueFull`] is a
//!   pure function of the schedule (depth vs bound), the refusal carries
//!   the observed depth and bound, and refusals consume no entropy;
//! - the async/sync equivalence matrix: `answer_async` resolves to the
//!   same bytes and records the same charges as `answer` for every legal
//!   builder chain (both carriers × every accountant × the inline
//!   executor and the runtime crate's pooled `RtExecutor`), and
//!   `answer_for_async` likewise matches `answer_for` on per-principal
//!   sessions.

use proptest::prelude::*;
use sampcert::core::{
    count_query, AdmissionPolicy, Private, PureDp, Request, Session, SessionError,
};
use sampcert::rt::{block_on, Ingress, RtExecutor};

/// A unit counting request at ε = 1/2 (dyadic-exact, so the exact
/// carrier records storms without rounding).
fn count_req() -> Request<PureDp, u8, i64> {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
    Request::from_private(&p, "count")
}

/// Deterministic step generator for schedules (LCG, full 64-bit state).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

proptest! {
    /// The shed-storm exact-carrier property: drive a randomized
    /// interleaving of pushes (shed at the door when the bounded queue
    /// is full) and serves (shed by budget-keyed admission when the
    /// principal's allowance runs dry) against a per-principal registry
    /// session. Afterward, a fresh session with the same seed serving
    /// **only the accepted set, sequentially** must produce the same
    /// bytes and end with the identical exact spend for every principal
    /// — the registry moved for accepted requests and nothing else.
    #[test]
    fn shed_storm_spend_equals_accepted_set_replay(
        seed in any::<u64>(),
        cap in 1usize..5,
        principals in 1u64..4,
        arrivals in 1usize..80,
    ) {
        let req = count_req();
        let db = [7u8; 10];
        let queue: Ingress<u64> = Ingress::bounded(cap);
        // ε = 2 per principal admits exactly 4 answers at ε = 1/2.
        let mut storm = Session::<PureDp>::builder()
            .exact()
            .registry(2.0)
            .admission(AdmissionPolicy::open().max_queue_depth(cap).shed_unservable())
            .ingress(queue.gauge())
            .inline()
            .seeded(seed)
            .build_per_principal();

        let mut rng = seed | 1;
        let mut pushed = 0usize;
        let mut accepted: Vec<(u64, i64)> = Vec::new();
        let mut door_sheds = 0usize;
        let mut budget_sheds = 0usize;
        while pushed < arrivals || !queue.is_empty() {
            let push_next =
                pushed < arrivals && (queue.is_empty() || (lcg(&mut rng)).is_multiple_of(2));
            if push_next {
                let p = lcg(&mut rng) % principals;
                if queue.try_push(p).is_err() {
                    door_sheds += 1;
                }
                pushed += 1;
            } else {
                let p = queue.try_pop().expect("queue checked non-empty");
                match block_on(storm.answer_for_async(p, &req, &db)) {
                    Ok(ans) => accepted.push((p, ans)),
                    Err(e) => {
                        prop_assert!(e.is_admission(), "unexpected refusal: {e}");
                        budget_sheds += 1;
                    }
                }
            }
        }
        prop_assert_eq!(accepted.len() + door_sheds + budget_sheds, arrivals);

        // Sequential replay of exactly the accepted set, same seed, no
        // admission machinery at all: byte-equal answers (sheds consumed
        // no entropy) and identical exact per-principal spend.
        let mut replay = Session::<PureDp>::builder()
            .exact()
            .registry(2.0)
            .inline()
            .seeded(seed)
            .build_per_principal();
        for (p, want) in &accepted {
            let got = replay.answer_for(*p, &req, &db).expect("accepted set fits");
            prop_assert_eq!(got, *want, "replay diverged for principal {}", p);
        }
        for p in 0..principals {
            prop_assert_eq!(
                storm.accountant().spent_exact(p),
                replay.accountant().spent_exact(p),
                "exact spend diverged for principal {}", p
            );
            let served = accepted.iter().filter(|(q, _)| *q == p).count();
            let spent = storm.accountant().spent(p);
            prop_assert_eq!(spent, 0.5 * served as f64, "principal {}", p);
            prop_assert!(spent <= 2.0, "principal {} over budget: {}", p, spent);
        }
    }
}

/// A scripted overload: which requests are refused with `QueueFull` is
/// determined entirely by queue depth vs the policy bound, the refusal
/// reports the exact depth and bound it observed, and a refusal draws no
/// entropy — the served answers replay byte-for-byte on a session that
/// never saw the refusals.
#[test]
fn queue_full_is_deterministic_and_draws_nothing() {
    let req = count_req();
    let db = [7u8; 10];
    let queue: Ingress<u32> = Ingress::bounded(4);
    let mut session = Session::<PureDp>::builder()
        .ledger(16.0)
        .seeded(41)
        .admission(AdmissionPolicy::open().max_queue_depth(2))
        .ingress(queue.gauge())
        .inline()
        .build();

    // Five arrivals against a 4-deep queue: the fifth sheds at the door.
    let mut door = 0;
    for i in 0..5u32 {
        match queue.try_push(i) {
            Ok(()) => {}
            Err(shed) => {
                door += 1;
                assert_eq!(shed.item, i);
                assert_eq!((shed.error.depth(), shed.error.bound()), (5, 4));
            }
        }
    }
    assert_eq!(door, 1);

    // Draining: after the first pop the backlog (depth 3) still exceeds
    // the bound (2), so exactly the first serve is refused — with the
    // observed depth — and the remaining three are served.
    let mut answers = Vec::new();
    let mut refusals = Vec::new();
    while let Some(_item) = queue.try_pop() {
        match block_on(session.answer_async(&req, &db)) {
            Ok(a) => answers.push(a),
            Err(SessionError::QueueFull(q)) => refusals.push((q.depth(), q.bound())),
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(refusals, vec![(3, 2)]);
    assert_eq!(answers.len(), 3);
    assert!((session.accountant().spent() - 1.5).abs() < 1e-12);

    // The refusal consumed no entropy: a session that never refused
    // serves the same three answers from the same seed.
    let mut clean = Session::<PureDp>::builder()
        .ledger(16.0)
        .seeded(41)
        .inline()
        .build();
    for want in answers {
        assert_eq!(clean.answer(&req, &db).unwrap(), want);
    }
}

/// The seeded-schedule generalization: 300 LCG-driven push/serve steps
/// against a bounded queue, with a pure model (depth counter vs bound)
/// predicting every outcome — door shed, queue-full refusal, or serve —
/// before it happens. The real stack must match the model step for step,
/// and the ledger must move for exactly the predicted serves.
#[test]
fn queue_full_is_deterministic_under_a_seeded_schedule() {
    const CAP: usize = 6;
    const BOUND: usize = 3;
    let req = count_req();
    let db = [7u8; 10];
    let queue: Ingress<u32> = Ingress::bounded(CAP);
    let mut session = Session::<PureDp>::builder()
        .ledger(1e9)
        .seeded(0x5EED_5C4E_D01E)
        .admission(AdmissionPolicy::open().max_queue_depth(BOUND))
        .ingress(queue.gauge())
        .inline()
        .build();

    let mut rng = 0x5EED_5C4E_D01Eu64;
    // Bias 2:1 toward pushes so the queue actually reaches capacity,
    // then append enough drains to empty it whatever the schedule did.
    let schedule: Vec<bool> = (0..300)
        .map(|_| !lcg(&mut rng).is_multiple_of(3))
        .chain(std::iter::repeat_n(false, 300))
        .collect();

    let mut depth = 0usize; // the model
    let mut served = 0u64;
    for push in schedule {
        if push {
            let predicted_shed = depth == CAP;
            assert_eq!(
                queue.try_push(0).is_err(),
                predicted_shed,
                "push at depth {depth}"
            );
            if !predicted_shed {
                depth += 1;
            }
        } else if depth > 0 {
            queue.try_pop().expect("model says non-empty");
            depth -= 1;
            let predicted_refusal = depth > BOUND;
            match block_on(session.answer_async(&req, &db)) {
                Ok(_) => {
                    assert!(!predicted_refusal, "served at depth {depth}");
                    served += 1;
                }
                Err(SessionError::QueueFull(q)) => {
                    assert!(predicted_refusal, "refused at depth {depth}");
                    assert_eq!((q.depth(), q.bound()), (depth, BOUND));
                }
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
    }
    assert_eq!(depth, 0, "the drain tail must empty the queue");
    assert!(served > 0, "schedule never served — not a useful run");
    assert!(
        (session.accountant().spent() - 0.5 * served as f64).abs() < 1e-9,
        "ledger moved for something other than the predicted serves"
    );
}

/// `answer_async` is byte-stream- and charge-equal to `answer` for every
/// legal builder chain: two identically built sessions, one driven
/// synchronously and one through `block_on(answer_async)`, release the
/// same answers round for round and end with identical accounting state.
#[test]
fn answer_async_equals_answer_for_every_builder_chain() {
    // `$chain` is the builder method chain; `$state` is a method chain
    // on the accountant extracting whatever accounting state that chain
    // exposes (spend, exact spend, RDP curve, unallocated reserve).
    macro_rules! pair {
        (($($chain:tt)*), ($($state:tt)*)) => {{
            let mut sync_s = Session::<PureDp>::builder().$($chain)*.build();
            let mut async_s = Session::<PureDp>::builder().$($chain)*.build();
            let req: Request<PureDp, (), i64> = Request::noise(2, 1);
            for round in 0..8 {
                let want = sync_s.answer(&req, &[]).unwrap();
                let got = block_on(async_s.answer_async(&req, &[])).unwrap();
                assert_eq!(got, want, "round {round}");
            }
            assert_eq!(
                sync_s.accountant().$($state)*,
                async_s.accountant().$($state)*
            );
        }};
    }

    // Global f64 ledger × inline / pooled executors of two lane counts.
    pair!((ledger(1e6).inline().seeded(3)), (spent()));
    pair!((ledger(1e6).executor::<RtExecutor>(2).seeded(3)), (spent()));
    pair!((ledger(1e6).executor::<RtExecutor>(3).seeded(3)), (spent()));
    // Exact carrier.
    pair!((exact().ledger(1e6).inline().seeded(3)), (spent_exact()));
    pair!(
        (exact().ledger(1e6).executor::<RtExecutor>(2).seeded(3)),
        (spent_exact())
    );
    // RDP meters, global and sharded.
    pair!((rdp(1e-6, 1e6).inline().seeded(3)), (epsilon()));
    pair!(
        (sharded_rdp(1e-6, 1e6).executor::<RtExecutor>(2).seeded(3)),
        (epsilon())
    );
    // Sharded ledgers, both carriers.
    pair!(
        (sharded_ledger(1e6).executor::<RtExecutor>(2).seeded(3)),
        (unallocated())
    );
    pair!(
        (exact()
            .sharded_ledger(1e6)
            .executor::<RtExecutor>(2)
            .seeded(3)),
        (unallocated_exact())
    );
    // With admission machinery attached (open policy, generous bound):
    // the gate passes and must not perturb bytes or charges.
    pair!(
        (ledger(1e6)
            .admission(
                AdmissionPolicy::open()
                    .max_queue_depth(64)
                    .shed_unservable()
            )
            .inline()
            .seeded(3)),
        (spent())
    );
}

/// The per-principal twin: `answer_for_async` equals `answer_for` in
/// bytes and in every principal's exact spend, across an interleaving of
/// principals.
#[test]
fn answer_for_async_equals_answer_for() {
    let req = count_req();
    let db = [7u8; 10];
    let mut sync_s = Session::<PureDp>::builder()
        .exact()
        .registry(8.0)
        .inline()
        .seeded(9)
        .build_per_principal();
    let mut async_s = Session::<PureDp>::builder()
        .exact()
        .registry(8.0)
        .inline()
        .seeded(9)
        .build_per_principal();
    for round in 0..12 {
        let principal = [0u64, 1, 2, 0, 1][round % 5];
        let want = sync_s.answer_for(principal, &req, &db).unwrap();
        let got = block_on(async_s.answer_for_async(principal, &req, &db)).unwrap();
        assert_eq!(got, want, "round {round}");
    }
    for p in 0..3u64 {
        assert_eq!(
            sync_s.accountant().spent_exact(p),
            async_s.accountant().spent_exact(p),
            "principal {p}"
        );
    }
}
