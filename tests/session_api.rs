//! API-equivalence suite for the `Session` front door (the tentpole of
//! the session PR): the one polymorphic surface must release **the same
//! bytes** and record **the same charges** as every legacy entry point it
//! collapses, for both budget carriers and both entropy backends.
//!
//! Layout:
//!
//! - byte-stream equality of `Session::answer_many` vs
//!   `Private::run_many`, `histogram_batch`, `answer_workload` and
//!   `above_threshold.run` on the seeded backend (where replay makes
//!   byte comparison possible), and of pooled sessions vs a per-lane
//!   sequential replay of `Mechanism::run_many_into` /
//!   `discrete_gaussian_many_into` on `root.stream(i)`;
//! - exact-charge equality vs explicit ledger charges on the dyadic
//!   carrier;
//! - an OS-entropy smoke pass of the same paths (accounting is
//!   entropy-independent; the stream itself is not replayable);
//! - the full builder combination matrix — every carrier × accountant ×
//!   executor × entropy chain the builder can express compiles and runs
//!   (the illegal sharded × inline pairs are compile-fail doctests in
//!   `sampcert-core::session`).

use sampcert::arith::Dyadic;
use sampcert::core::{
    count_query, lane_partition, Budget, DpNoise, Entropy, Executor, Ledger, Mechanism, Private,
    PureDp, Request, Session, SessionError, ShardedLedger, Zcdp,
};
use sampcert::mechanisms::{
    answer_workload, histogram_batch, histogram_request, svt_request, workload_request, Bins,
    SvtParams,
};
use sampcert::rt::RtExecutor;
use sampcert::samplers::{discrete_gaussian_many_into, LaplaceAlg};
use sampcert::slang::{SplitSeed, Value};

/// What a fresh `lanes`-lane pool seeded with `root` serves for `n`
/// answers: lane `i` draws its [`lane_partition`] chunk sequentially from
/// `root.stream(i)`, chunks concatenated in lane order.
fn per_lane_replay<T: 'static, U: Value>(
    mech: &Mechanism<T, U>,
    db: &[T],
    n: usize,
    lanes: usize,
    root: u64,
) -> Vec<U> {
    let root = SplitSeed::new(root);
    let mut out = Vec::new();
    for (i, len) in lane_partition(n, lanes).into_iter().enumerate() {
        mech.run_many_into(db, len, &mut root.stream(i as u64), &mut out);
    }
    out
}

/// `Session` (inline, seeded) vs `Private::run_many`: same bytes, for
/// both carriers.
#[test]
fn inline_answer_many_equals_private_run_many_bytewise() {
    fn check<B: Budget>(session_answers: Vec<i64>, root: u64, n: usize) {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
        let mut legacy_src = SplitSeed::new(root).stream(0);
        let legacy = p.run_many(&[7u8; 12], n, &mut legacy_src);
        assert_eq!(session_answers, legacy, "carrier {}", B::NAME);
    }

    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count");

    let mut f64_session = Session::<PureDp>::builder()
        .ledger(1e6)
        .inline()
        .seeded(11)
        .build();
    check::<f64>(
        f64_session.answer_many(&req, &[7u8; 12], 100).unwrap(),
        11,
        100,
    );
    assert!((f64_session.accountant().spent() - 25.0).abs() < 1e-9);

    let mut exact_session = Session::<PureDp>::builder()
        .exact()
        .ledger(1e6)
        .inline()
        .seeded(11)
        .build();
    check::<Dyadic>(
        exact_session.answer_many(&req, &[7u8; 12], 100).unwrap(),
        11,
        100,
    );
    // ε = 1/4 is dyadic: the exact ledger records exactly 25.
    assert_eq!(
        exact_session.accountant().spent_exact(),
        &Dyadic::from_f64_ceil(25.0)
    );
}

/// `Session` histogram answers vs `histogram_batch`: same bytes; and the
/// exact charge matches an explicit per-bin batch charge bit for bit.
#[test]
fn histogram_request_equals_histogram_batch_bytewise_and_in_exact_charge() {
    let bins = Bins::new(3, |v: &i64| (*v % 3).unsigned_abs() as usize);
    let db: Vec<i64> = (0..60).map(|i| (i * 13) % 40).collect();
    let req = histogram_request::<PureDp, i64>(&bins, 1, 3);

    let mut session = Session::<PureDp>::builder()
        .exact()
        .ledger(10.0)
        .inline()
        .seeded(33)
        .build();
    let mut legacy_src = SplitSeed::new(33).stream(0);
    for round in 0..5 {
        let got = session.answer(&req, &db).unwrap();
        let expect = histogram_batch::<PureDp, i64>(&bins, 1, 3, &db, &mut legacy_src);
        assert_eq!(got, expect, "round {round}");
    }

    // Exact-charge parity with charging each histogram as 3 bins of
    // ε = 1/9: that γ is non-dyadic, so this pins the per-unit rounding
    // rule.
    let mut reference: Ledger<PureDp, Dyadic> = Ledger::new(10.0);
    for round in 0..5 {
        reference
            .charge_batch(format!("hist-{round}"), PureDp::noise_priv(1, 9), 3)
            .unwrap();
    }
    assert_eq!(
        session.accountant().spent_exact(),
        reference.spent_exact(),
        "session charge diverged from the per-bin exact charge"
    );
}

/// `Session` workload answers vs `answer_workload`: same bytes, same
/// batch price.
#[test]
fn workload_request_equals_answer_workload_bytewise() {
    let queries: Vec<sampcert::core::Query<i64>> = vec![
        sampcert::core::Query::new("count", 1, |db: &[i64]| db.len() as i64),
        sampcert::core::Query::new("triple", 3, |db: &[i64]| 3 * db.len() as i64),
        sampcert::core::Query::new("count2", 1, |db: &[i64]| db.len() as i64),
    ];
    let db: Vec<i64> = (0..50).collect();
    let req = workload_request::<PureDp, i64>(&queries, 1, 2);
    assert!((req.gamma_each() - 1.5).abs() < 1e-12);

    let mut session = Session::<PureDp>::builder()
        .ledger(100.0)
        .inline()
        .seeded(5)
        .build();
    let mut legacy_src = SplitSeed::new(5).stream(0);
    for _ in 0..4 {
        let got = session.answer(&req, &db).unwrap();
        let expect = answer_workload::<PureDp, i64>(&queries, 1, 2, &db, &mut legacy_src);
        assert_eq!(got, expect.values());
    }
    assert!((session.accountant().spent() - 6.0).abs() < 1e-12);
}

/// `Session` SVT answers vs `above_threshold.run`: same bytes, length-
/// independent price.
#[test]
fn svt_request_equals_above_threshold_bytewise() {
    let queries: Vec<sampcert::core::Query<i64>> = (0..6)
        .map(|i| {
            sampcert::core::Query::new(format!("count>{i}"), 1, move |db: &[i64]| {
                db.iter().filter(|v| **v > i * 2).count() as i64
            })
        })
        .collect();
    let params = SvtParams {
        threshold: 6,
        eps_num: 1,
        eps_den: 1,
    };
    let req = svt_request(&queries, params);
    assert_eq!(req.gamma_each(), 1.0);

    let mut session = Session::<PureDp>::builder()
        .ledger(50.0)
        .inline()
        .seeded(8)
        .build();
    let legacy = sampcert::mechanisms::above_threshold(&queries, params);
    let mut legacy_src = SplitSeed::new(8).stream(0);
    let db: Vec<i64> = (0..14).collect();
    for _ in 0..20 {
        let got = session.answer(&req, &db).unwrap();
        let expect = legacy.run(&db, &mut legacy_src);
        assert_eq!(got, expect);
    }
}

/// Pooled `Session` (sharded ledger, seeded) vs the per-lane sequential
/// replay: same bytes for the same root and lane count, on both carriers.
#[test]
fn pooled_answer_many_equals_per_lane_replay_bytewise() {
    let q = count_query::<u8>();
    let p: Private<Zcdp, u8, i64> = Private::noised_query(&q, 1, 2);
    let req = Request::from_private(&p, "count");
    let db = vec![0u8; 10];
    let lanes = 3;
    let expect = per_lane_replay(p.mechanism(), &db, 100, lanes, 9);

    // f64 carrier.
    let mut session = Session::<Zcdp>::builder()
        .sharded_ledger(1e6)
        .executor::<RtExecutor>(lanes)
        .seeded(9)
        .build();
    assert_eq!(session.executor().lanes(), lanes);
    let got = session.answer_many(&req, &db, 100).unwrap();
    assert_eq!(got, expect);

    // Exact carrier, same bytes again.
    let mut exact = Session::<Zcdp>::builder()
        .exact()
        .sharded_ledger(1e6)
        .executor::<RtExecutor>(lanes)
        .seeded(9)
        .build();
    assert_eq!(exact.answer_many(&req, &db, 100).unwrap(), expect);
}

/// Pooled noise requests vs the fused batch sampler: the mechanism path
/// (through a `Session`, and through `Executor::run_into` directly, as
/// `reproduce serve` drives it) draws exactly the per-lane
/// `discrete_gaussian_many_into` replay.
#[test]
fn pooled_noise_request_equals_per_lane_gaussian_many_bytewise() {
    use sampcert::arith::Nat;
    let lanes = 4;
    for sigma in [8u64, 64] {
        let root = SplitSeed::new(17);
        let mut replay = Vec::new();
        for (w, len) in lane_partition(401, lanes).into_iter().enumerate() {
            discrete_gaussian_many_into(
                &Nat::from(sigma),
                &Nat::one(),
                LaplaceAlg::Switched,
                len,
                &mut root.stream(w as u64),
                &mut replay,
            );
        }

        let req: Request<Zcdp, (), i64> = Request::noise(sigma, 1);
        let mut session = Session::<Zcdp>::builder()
            .sharded_ledger(1e6)
            .executor::<RtExecutor>(lanes)
            .seeded(17)
            .build();
        let got = session.answer_many(&req, &[], 401).unwrap();
        assert_eq!(got, replay, "session, sigma {sigma}");

        let mut direct = RtExecutor::new(Entropy::seeded(17), lanes);
        let mut out = Vec::new();
        direct
            .run_into(req.mechanism(), &[], 401, &mut out)
            .unwrap();
        assert_eq!(out, replay, "run_into, sigma {sigma}");
    }
}

/// The sharded exact session is exactly accounted: it releases the
/// per-lane replay, spends exactly what charging each lane's chunk to its
/// shard spends (here the whole budget), and the refusal that ends the
/// session names a shard on the exact carrier.
#[test]
fn pooled_exact_session_is_exactly_accounted() {
    let q = count_query::<u8>();
    let gamma = PureDp::noise_priv(1, 4); // ε = 1/4 per answer, dyadic
    let p: Private<PureDp, u8, i64> = Private::noised_query(&q, 1, 4);
    let req = Request::from_private(&p, "count");
    let db = vec![0u8; 20];
    let lanes = 4;

    // Budget 16 admits exactly 64 answers at ε = 1/4.
    let mut session = Session::<PureDp>::builder()
        .exact()
        .sharded_ledger(16.0)
        .executor::<RtExecutor>(lanes)
        .seeded(5)
        .build();
    let answers = session.answer_many(&req, &db, 64).unwrap();
    assert_eq!(answers, per_lane_replay(p.mechanism(), &db, 64, lanes, 5));

    // Reference: each lane's chunk charged to its shard as one batch.
    let reference: ShardedLedger<PureDp, Dyadic> = ShardedLedger::new(16.0, lanes);
    for (i, len) in lane_partition(64, lanes).into_iter().enumerate() {
        reference
            .handle(i)
            .charge_batch(gamma, len as u64)
            .expect("fits exactly");
    }
    assert_eq!(reference.unallocated_exact(), Dyadic::zero());
    assert_eq!(
        session.accountant().unallocated_exact(),
        reference.unallocated_exact()
    );

    // The next batch is refused by a named shard, with the exact carrier.
    let err = session.answer_many(&req, &db, 64).unwrap_err();
    match err {
        SessionError::Budget(b) => {
            assert!(b.shard.is_some());
            assert_eq!(b.carrier, "dyadic");
            assert!(b.to_string().contains("carrier: dyadic, shard:"), "{b}");
        }
        other => panic!("expected budget refusal, got {other}"),
    }
}

/// A pooled per-principal session charges the whole batch to one
/// principal before any lane draws: it releases the per-lane replay,
/// records the exact spend, names the refused principal, and leaves other
/// principals' allowances untouched.
#[test]
fn pooled_per_principal_session_isolates_and_names_principals() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count"); // ε = 1/4 per answer
    let db = vec![0u8; 10];
    let mut session = Session::<PureDp>::builder()
        .exact()
        .registry(1.0)
        .executor::<RtExecutor>(2)
        .seeded(7)
        .build_per_principal();

    let out = session.answer_many_for(1, &req, &db, 4).expect("fits");
    assert_eq!(out, per_lane_replay(p.mechanism(), &db, 4, 2, 7));
    assert_eq!(session.accountant().spent_exact(1), Dyadic::from(1u64));

    // Principal 1 is dry; the refusal names them and serves nothing.
    let err = session.answer_many_for(1, &req, &db, 1).unwrap_err();
    assert_eq!(err.as_budget().expect("budget refusal").principal, Some(1));
    // Principal 2's allowance is untouched.
    let out = session.answer_many_for(2, &req, &db, 4).expect("fits");
    assert_eq!(out.len(), 4);
    assert_eq!(session.accountant().spent_exact(2), Dyadic::from(1u64));
}

/// A *partial* sharded refusal releases nothing: chunks whose shard
/// charge succeeded are discarded unreleased (their budget stays spent —
/// conservative) and the caller's buffer is untouched, exactly as the
/// `stream_into` contract states.
#[test]
fn partial_shard_refusal_releases_nothing_and_leaves_buffer_untouched() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count");
    // Budget 3 (dyadic-exact), 2 workers, 16 answers at ε = 1/4: each
    // chunk costs 2, so exactly one shard's charge can fit — the other
    // must refuse, whatever the thread interleaving.
    let mut session = Session::<PureDp>::builder()
        .exact()
        .sharded_ledger(3.0)
        .executor::<RtExecutor>(2)
        .seeded(6)
        .build();
    let mut out = vec![99i64];
    let err = session
        .stream_into(&req, &[0u8; 5], 16, &mut out)
        .unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert!(refusal.shard.is_some());
    assert_eq!(out, vec![99], "refused serve mutated the caller's buffer");
    // The winning shard's chunk charge (8 × ε/4 = 2) stays spent: the
    // reserve holds exactly budget − 2 once the per-call handles dropped.
    assert_eq!(
        session.accountant().unallocated_exact(),
        Dyadic::from_f64_ceil(1.0)
    );
}

/// OS-entropy sessions serve the right shapes and account identically to
/// the seeded sessions (accounting is entropy-independent; the stream is
/// not replayable, so bytes are not compared).
#[test]
fn os_entropy_sessions_serve_and_account_for_both_carriers() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count");
    let db = [0u8; 9];

    let mut f64_session = Session::<PureDp>::builder()
        .ledger(100.0)
        .inline()
        .entropy(Entropy::Os)
        .build();
    let out = f64_session.answer_many(&req, &db, 40).unwrap();
    assert_eq!(out.len(), 40);
    assert!((f64_session.accountant().spent() - 10.0).abs() < 1e-9);

    let mut exact_session = Session::<PureDp>::builder()
        .exact()
        .ledger(100.0)
        .inline()
        .entropy(Entropy::Os)
        .build();
    let out = exact_session.answer_many(&req, &db, 40).unwrap();
    assert_eq!(out.len(), 40);
    assert_eq!(
        exact_session.accountant().spent_exact(),
        &Dyadic::from_f64_ceil(10.0)
    );

    // Pooled OS-entropy, sharded exact accounting.
    let mut pooled = Session::<PureDp>::builder()
        .exact()
        .sharded_ledger(100.0)
        .executor::<RtExecutor>(2)
        .entropy(Entropy::Os)
        .build();
    let out = pooled.answer_many(&req, &db, 40).unwrap();
    assert_eq!(out.len(), 40);
    assert_eq!(
        pooled
            .accountant()
            .budget()
            .clone()
            .saturating_sub(&pooled.accountant().unallocated_exact()),
        Dyadic::from_f64_ceil(10.0),
        "granted-out budget must equal the spend once no handles are live"
    );
}

/// Every legal builder chain compiles **and runs**: the full
/// {carrier} × {accountant} × {executor} × {entropy} matrix. The illegal
/// cells (sharded accountants × inline executor) are compile-fail
/// doctests in `sampcert-core`'s session module — together the two suites
/// cover the acceptance rule "every combination either compiles-and-runs
/// or is statically unrepresentable".
#[test]
fn builder_combination_matrix_compiles_and_runs() {
    // One serve through a freshly built session; PureDp noise at scale 2
    // costs ε = 1/2 ≪ every budget below.
    macro_rules! drive {
        ($builder:expr) => {{
            let mut s = $builder.build();
            let req: Request<PureDp, (), i64> = Request::noise(2, 1);
            let one = s.answer(&req, &[]).unwrap();
            let many = s.answer_many(&req, &[], 10).unwrap();
            let mut streamed = Vec::new();
            s.stream_into(&req, &[], 5, &mut streamed).unwrap();
            assert_eq!((many.len(), streamed.len()), (10, 5));
            let _ = one;
        }};
    }
    macro_rules! carrier_entropy_cases {
        (($($acct:tt)*), ($($exec:tt)*)) => {
            drive!(Session::<PureDp>::builder().$($acct)*.$($exec)*.entropy(Entropy::Os));
            drive!(Session::<PureDp>::builder().$($acct)*.$($exec)*.seeded(3));
            drive!(Session::<PureDp>::builder().exact().$($acct)*.$($exec)*.entropy(Entropy::Os));
            drive!(Session::<PureDp>::builder().exact().$($acct)*.$($exec)*.seeded(3));
        };
    }

    // Global accountants × both executors.
    carrier_entropy_cases!((ledger(1e6)), (inline()));
    carrier_entropy_cases!((ledger(1e6)), (executor::<RtExecutor>(2)));
    carrier_entropy_cases!((rdp(1e-6, 1e6)), (inline()));
    carrier_entropy_cases!((rdp(1e-6, 1e6)), (executor::<RtExecutor>(2)));
    // Sharded accountants × the pooled executor (inline is a compile error).
    carrier_entropy_cases!((sharded_ledger(1e6)), (executor::<RtExecutor>(2)));
    carrier_entropy_cases!((sharded_rdp(1e-6, 1e6)), (executor::<RtExecutor>(2)));
}

/// The sharded RDP meter folds exactly to the global accounting of the
/// same releases.
#[test]
fn sharded_rdp_session_folds_to_global_accounting() {
    let mut sharded = Session::<Zcdp>::builder()
        .sharded_rdp(1e-6, 100.0)
        .executor::<RtExecutor>(4)
        .seeded(2)
        .build();
    let req: Request<Zcdp, (), i64> = Request::noise(8, 1);
    sharded.answer_many(&req, &[], 1000).unwrap();

    let mut global = Session::<Zcdp>::builder()
        .rdp(1e-6, 100.0)
        .inline()
        .seeded(2)
        .build();
    global.answer_many(&req, &[], 1000).unwrap();

    let (es, a_s) = sharded.accountant().epsilon();
    let (eg, a_g) = global.accountant().epsilon();
    assert!((es - eg).abs() < 1e-9, "{es} vs {eg}");
    assert_eq!(a_s, a_g);
    // Four lanes really accumulated (1000 split 250 each).
    assert_eq!(sharded.accountant().lane_accountants().len(), 4);
}

/// `SessionError` chains its cause for both variants, and budget
/// refusals keep the carrier/shard attribution of the legacy errors.
#[test]
fn session_errors_chain_and_attribute() {
    use std::error::Error as _;

    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
    let req = Request::from_private(&p, "count");

    let mut exact = Session::<PureDp>::builder()
        .exact()
        .ledger(0.5)
        .inline()
        .seeded(1)
        .build();
    let err = exact.answer(&req, &[1u8]).unwrap_err();
    assert_eq!(err.to_string(), "session refused: privacy budget exceeded");
    let source = err.source().expect("chained source").to_string();
    assert_eq!(
        source,
        "privacy budget exceeded: requested 1, remaining 0.5 [carrier: dyadic]"
    );

    // Zero answers served on an n = 0 request is not an error.
    let mut ok = Session::<PureDp>::builder()
        .ledger(1.0)
        .inline()
        .seeded(1)
        .build();
    assert_eq!(ok.answer_many(&req, &[1u8], 0).unwrap().len(), 0);
}

/// An `Inline` executor can be driven directly through the `Executor`
/// trait — the same path a custom backend would implement.
#[test]
fn executor_trait_is_usable_directly() {
    let mut inline = sampcert::core::Inline::new(Entropy::seeded(4));
    assert_eq!(inline.lanes(), 1);
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
    let mut out = Vec::new();
    inline
        .run_into(p.mechanism(), &[1u8, 2], 3, &mut out)
        .unwrap();
    let mut reference = SplitSeed::new(4).stream(0);
    assert_eq!(out, p.run_many(&[1u8, 2], 3, &mut reference));
}
