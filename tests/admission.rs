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
//!   builder chain (every accountant × the inline
//!   executor and the runtime crate's pooled `RtExecutor`), and
//!   `answer_for_async` likewise matches `answer_for` on per-principal
//!   sessions;
//! - the probe/charge agreement proptest: on every accountant,
//!   `can_admit` / `can_admit_for` is true exactly when the
//!   charge that follows succeeds, so a budget shed refuses exactly what
//!   the charge would have refused;
//! - a compile-time check that the async futures are `Send` on the
//!   stacks that serve them from runtime tasks;
//! - workload refusals: on a pooled session an `answer_async` refusal
//!   spends and draws nothing, and on a durable per-principal session
//!   it writes nothing to the journal, so a restart recovers exactly the
//!   admitted spend.

use proptest::prelude::*;
use sampcert::core::{
    count_query, Accountant, AdmissionPolicy, Budget, BudgetRegistry, DurableOptions,
    DurableRegistry, Dyadic, Ledger, MemStorage, PrincipalAccountant, Private, PureDp, Query,
    RdpMeter, Request, Session, SessionError, Zcdp,
};
use sampcert::mechanisms::workload_request;
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
    // exposes (spend, exact spend, RDP ε).
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

    // Global ledger × inline / pooled executors of two lane counts.
    pair!((ledger(1e6).inline().seeded(3)), (spent_exact()));
    pair!(
        (ledger(1e6).executor::<RtExecutor>(2).seeded(3)),
        (spent_exact())
    );
    pair!(
        (ledger(1e6).executor::<RtExecutor>(3).seeded(3)),
        (spent_exact())
    );
    // RDP meters, inline and pooled.
    pair!((rdp(1e-6, 1e6).inline().seeded(3)), (epsilon()));
    pair!(
        (rdp(1e-6, 1e6).executor::<RtExecutor>(2).seeded(3)),
        (epsilon())
    );
    pair!(
        (rdp(1e-6, 1e6).executor::<RtExecutor>(3).seeded(3)),
        (epsilon())
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
        .registry(8.0)
        .inline()
        .seeded(9)
        .build_per_principal();
    let mut async_s = Session::<PureDp>::builder()
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

/// A per-unit γ for the probe/charge property: dyadic eighths, the
/// non-dyadic tenths, and steps of 10⁻¹³, so the upward rounding of
/// charges meets the budget boundary.
fn unit_gamma(k: u64, scale: u64) -> f64 {
    k as f64 * [0.125, 0.1, 1e-13][scale as usize % 3]
}

/// One probe-then-charge round on a global accountant: `can_admit` must
/// predict exactly whether the charge that follows succeeds.
fn global_probe_agrees<B: Budget, A: Accountant<PureDp, B>>(
    acct: &mut A,
    gamma: f64,
    units: u64,
    what: &str,
) {
    let probe = acct.can_admit(gamma, units);
    let charged = acct.charge("probe", gamma, units).is_ok();
    prop_assert_eq!(
        probe,
        charged,
        "{} [{}]: {} x {}",
        what,
        B::NAME,
        units,
        gamma
    );
}

/// [`global_probe_agrees`] for a per-principal accountant.
fn principal_probe_agrees<B: Budget, A: PrincipalAccountant<PureDp, B>>(
    acct: &mut A,
    principal: u64,
    gamma: f64,
    units: u64,
    what: &str,
) {
    let probe = acct.can_admit_for(principal, gamma, units);
    let charged = acct.charge_for(principal, gamma, units).is_ok();
    prop_assert_eq!(
        probe,
        charged,
        "{} [{}]: {} x {}",
        what,
        B::NAME,
        units,
        gamma
    );
}

/// Every accountant on carrier `B` with a budget of 1, driven through
/// the same probe-then-charge `steps` from a prior spend of `prior`.
/// The global accountants charge the prior (and stay empty if it does
/// not fit); the registries replay it unchecked, which can leave a
/// principal over its allowance, as a conservative journal replay can.
fn probe_agrees_on_carrier<B: Budget>(prior: f64, steps: &[(f64, u64)]) {
    let mut ledger = Ledger::<PureDp, B>::new(1.0);
    let _ = ledger.charge("prior", prior);
    let mut meter = RdpMeter::<B>::new(1e-6, 4.0);
    let _ = Accountant::<PureDp, B>::charge(&mut meter, "prior", prior, 1);
    let mut registry = BudgetRegistry::<PureDp, B>::new(1.0, 4);
    registry.apply_unchecked(7, &B::charge_from_f64(prior));
    // Journal the prior under a larger allowance, then recover the
    // journal under the real one.
    let storage = MemStorage::new();
    let open = |storage: MemStorage, budget: f64| {
        DurableRegistry::<PureDp, B, MemStorage>::open_with_options(
            B::budget_from_f64(budget),
            4,
            storage,
            DurableOptions::default(),
        )
        .expect("in-memory journal")
        .0
    };
    open(storage.clone(), 4.0)
        .charge(7, prior)
        .expect("the prior fits the larger allowance");
    let mut durable = open(storage.reopen(), 1.0);

    for &(gamma, units) in steps {
        global_probe_agrees(&mut ledger, gamma, units, "ledger");
        global_probe_agrees(&mut meter, gamma, units, "rdp");
        principal_probe_agrees(&mut registry, 7, gamma, units, "registry");
        principal_probe_agrees(&mut durable, 7, gamma, units, "durable");
    }
}

proptest! {
    /// The admission probe is the charge's own check: for every
    /// accountant and any spend history, `can_admit` /
    /// `can_admit_for` says yes exactly when the charge that follows
    /// succeeds. A budget shed therefore refuses exactly the requests
    /// the charge would refuse — no more, no fewer.
    #[test]
    fn can_admit_agrees_with_the_charge_it_predicts(
        prior_pick in 0usize..5,
        raw in prop::collection::vec((0u64..12, 0u64..3, 0u64..10), 1..16),
    ) {
        // Empty, half spent, exactly spent, a hair past the budget (a
        // refused prior for the global accountants), and over the
        // allowance.
        let prior = [0.0, 0.5, 1.0, 1.0 + 5e-13, 1.25][prior_pick];
        let steps: Vec<(f64, u64)> = raw
            .iter()
            .map(|&(k, scale, units)| (unit_gamma(k, scale), units))
            .collect();
        probe_agrees_on_carrier::<Dyadic>(prior, &steps);
    }
}

/// The async futures are `Send` on the stacks that serve them from
/// runtime tasks: a durable exact-carrier per-principal session on the
/// inline executor (the front door's shape) and a ledger session on the
/// pooled `RtExecutor`. `assert_send` fails to compile otherwise; the
/// futures are then driven to completion.
#[test]
fn answer_futures_are_send() {
    fn assert_send<F: Send>(fut: F) -> F {
        fut
    }
    let req = count_req();
    let db = [7u8; 10];
    let mut durable = Session::<PureDp>::builder()
        .registry(1.0)
        .durable_with_options(MemStorage::new(), DurableOptions::default())
        .expect("fresh in-memory journal")
        .inline()
        .seeded(5)
        .build_per_principal();
    assert!(block_on(assert_send(durable.answer_for_async(1, &req, &db))).is_ok());

    let mut pooled = Session::<PureDp>::builder()
        .ledger(1.0)
        .executor::<RtExecutor>(2)
        .seeded(5)
        .build();
    assert!(block_on(assert_send(pooled.answer_async(&req, &db))).is_ok());
}

/// A workload refused on a durable per-principal session journals
/// nothing: the refusal leaves the log's bytes as the admitted workload
/// left them, and a restart over those bytes recovers exactly the
/// admitted spend.
#[test]
fn durable_workload_refusal_journals_nothing() {
    let queries: Vec<Query<u8>> = (0..3)
        .map(|i| Query::new(format!("count-{i}"), 1, |db: &[u8]| db.len() as i64))
        .collect();
    let db = [7u8; 10];
    let storage = MemStorage::new();
    let mut session = Session::<PureDp>::builder()
        .registry(1.0)
        .durable_with_options(storage.clone(), DurableOptions::default())
        .expect("fresh in-memory journal")
        .inline()
        .seeded(9)
        .build_per_principal();
    let half = Dyadic::from_f64_ceil(0.5);

    // 2 × ε/4 = 1/2 fits; 3 × ε/4 = 3/4 then does not.
    let two = workload_request::<PureDp, u8>(&queries[..2], 1, 4);
    assert_eq!(session.answer_for(5, &two, &db).expect("fits").len(), 2);
    let journaled = storage.contents();
    let three = workload_request::<PureDp, u8>(&queries, 1, 4);
    let err = session.answer_for(5, &three, &db).unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert_eq!(refusal.principal, Some(5));
    assert_eq!(refusal.remaining, half);
    assert_eq!(storage.contents(), journaled, "the refusal was journaled");
    assert_eq!(session.accountant().spent_exact(5), half);
    drop(session);

    let (recovered, _) = DurableRegistry::<PureDp, Dyadic, MemStorage>::open_with_options(
        Dyadic::from(1u64),
        4,
        storage.reopen(),
        DurableOptions::default(),
    )
    .expect("clean journal");
    assert_eq!(recovered.spent_exact(5), half);
}

/// An `answer_async` workload refused on a pooled zCDP session spends
/// nothing and draws nothing: the workload that fits next is answered
/// exactly as a fresh session answers it.
#[test]
fn pooled_async_workload_refusal_spends_nothing_and_draws_nothing() {
    let queries: Vec<Query<u8>> = (0..6)
        .map(|i| Query::new(format!("count-{i}"), 1, |db: &[u8]| db.len() as i64))
        .collect();
    let db = [7u8; 10];
    let pooled = || {
        Session::<Zcdp>::builder()
            .ledger(0.5)
            .executor::<RtExecutor>(2)
            .seeded(13)
            .build()
    };
    // ρ = ½·(1/2)² = 1/8 per query: 4 queries fit 1/2 exactly, 6 do not.
    let four = workload_request::<Zcdp, u8>(&queries[..4], 1, 2);
    let six = workload_request::<Zcdp, u8>(&queries, 1, 2);
    let fresh = block_on(pooled().answer_async(&four, &db)).expect("fits exactly");

    let mut session = pooled();
    let err = block_on(session.answer_async(&six, &db)).unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert_eq!(refusal.requested, Dyadic::from_f64_ceil(0.75));
    assert_eq!(session.accountant().spent_exact(), &Dyadic::zero());
    assert!(session.accountant().entries().is_empty());
    let got = block_on(session.answer_async(&four, &db)).expect("fits exactly");
    assert_eq!(got, fresh, "the refused workload drew entropy");
    assert_eq!(session.accountant().remaining_exact(), Dyadic::zero());
}
