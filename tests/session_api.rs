//! API-equivalence suite for the `Session` front door (the tentpole of
//! the session PR): the one polymorphic surface must release **the same
//! bytes** and record **the same charges** as every legacy entry point it
//! collapses, for both entropy backends.
//!
//! Layout:
//!
//! - byte-stream equality of `Session::answer_many` vs
//!   `Private::run_many`, `noised_histogram.run`, per-query
//!   `Private::noised_query(..).run` and `above_threshold.run` on the
//!   seeded backend (where replay makes
//!   byte comparison possible), and of pooled sessions vs a per-lane
//!   sequential replay of `Mechanism::run_many_into` /
//!   `discrete_gaussian_many_into` on `root.stream(i)`;
//! - exact-charge equality vs explicit ledger charges on the dyadic
//!   carrier;
//! - an OS-entropy smoke pass of the same paths (accounting is
//!   entropy-independent; the stream itself is not replayable);
//! - the full builder combination matrix — every accountant × executor
//!   × entropy chain the builder can express compiles and runs
//!   (a principal-less `answer` on a per-principal session is a
//!   compile-fail doctest in `sampcert-core::session`).

use sampcert::arith::Dyadic;
use sampcert::core::{
    count_query, lane_partition, DpNoise, Entropy, Executor, Ledger, Mechanism, Private, PureDp,
    Query, Request, Session, SessionError, Zcdp,
};
use sampcert::mechanisms::{
    histogram_request, noised_histogram, svt_request, workload_request, Bins, SvtParams,
};
use sampcert::rt::{block_on, RtExecutor};
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

/// `Session` (inline, seeded) vs `Private::run_many`: same bytes.
#[test]
fn inline_answer_many_equals_private_run_many_bytewise() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count");

    let mut session = Session::<PureDp>::builder()
        .ledger(1e6)
        .inline()
        .seeded(11)
        .build();
    let mut legacy_src = SplitSeed::new(11).stream(0);
    assert_eq!(
        session.answer_many(&req, &[7u8; 12], 100).unwrap(),
        p.run_many(&[7u8; 12], 100, &mut legacy_src)
    );
    // ε = 1/4 is dyadic: the ledger records exactly 25.
    assert_eq!(
        session.accountant().spent_exact(),
        &Dyadic::from_f64_ceil(25.0)
    );
}

/// Noise at scale 2⁶² overflows `i64` on about e⁻² of its draws. Those
/// draws saturate instead of panicking after the charge: 2,000 inline
/// answers and one 2-lane pooled batch of 64 all return, and each equals
/// the sequential replay of its lane's stream.
#[test]
fn noise_beyond_i64_saturates_inline_and_pooled() {
    let req: Request<PureDp, (), i64> = Request::noise(1 << 62, 1);

    let mut inline = Session::<PureDp>::builder()
        .ledger(1e9)
        .inline()
        .seeded(21)
        .build();
    let mut replay = SplitSeed::new(21).stream(0);
    let mut saturated = 0;
    for i in 0..2_000 {
        let got = inline.answer(&req, &[]).unwrap();
        assert_eq!(got, req.mechanism().run(&[], &mut replay), "answer {i}");
        saturated += usize::from(got == i64::MIN || got == i64::MAX);
    }
    assert!(saturated > 0, "no answer reached the i64 bounds");

    let mut pooled = Session::<PureDp>::builder()
        .ledger(1e9)
        .executor::<RtExecutor>(2)
        .seeded(22)
        .build();
    assert_eq!(
        pooled.answer_many(&req, &[], 64).unwrap(),
        per_lane_replay(req.mechanism(), &[], 64, 2, 22)
    );
}

/// `Session` histogram answers vs the compositional `noised_histogram`
/// run on the replayed stream: same values, and the session's stream
/// ends where the replay's does (its next noise draw is the replay's
/// next). On the exact carrier the charge matches an explicit per-bin
/// batch charge bit for bit.
#[test]
fn histogram_request_equals_noised_histogram_bytewise_and_in_exact_charge() {
    fn check<D: DpNoise>(root: u64) {
        let bins = Bins::new(3, |v: &i64| (*v % 3).unsigned_abs() as usize);
        let db: Vec<i64> = (0..60).map(|i| (i * 13) % 40).collect();
        let req = histogram_request::<D, i64>(&bins, 1, 3);
        let reference = noised_histogram::<D, i64>(&bins, 1, 3);

        let mut session = Session::<D>::builder()
            .ledger(10.0)
            .inline()
            .seeded(root)
            .build();
        let mut replay = SplitSeed::new(root).stream(0);
        for round in 0..5 {
            let got = session.answer(&req, &db).unwrap();
            assert_eq!(
                got,
                reference.run(&db, &mut replay),
                "{} round {round}",
                D::NAME
            );
        }
        let probe: Request<D, i64, i64> = Request::noise(1, 1);
        assert_eq!(
            session.answer(&probe, &db).unwrap(),
            probe.mechanism().run(&db, &mut replay),
            "{}: the session consumed a different number of bytes",
            D::NAME
        );

        // Exact-charge parity with charging each histogram as 3 bins of
        // noise_priv(1, 9): for ε = 1/9 that is non-dyadic, so this pins
        // the per-unit rounding rule.
        let mut expect: Ledger<D, Dyadic> = Ledger::new(10.0);
        for round in 0..5 {
            expect
                .charge_batch(format!("hist-{round}"), D::noise_priv(1, 9), 3)
                .unwrap();
        }
        expect.charge("probe", probe.gamma_each()).unwrap();
        assert_eq!(
            session.accountant().spent_exact(),
            expect.spent_exact(),
            "{}: session charge diverged from the per-bin exact charge",
            D::NAME
        );
    }
    check::<PureDp>(33);
    check::<Zcdp>(34);
}

/// `Session` workload answers vs releasing each query through
/// `Private::noised_query` on the replayed stream: same values, same
/// stream position afterwards, and the workload's price.
#[test]
fn workload_request_equals_per_query_releases_bytewise() {
    fn check<D: DpNoise>(root: u64) {
        let queries: Vec<Query<i64>> = vec![
            Query::new("count", 1, |db: &[i64]| db.len() as i64),
            Query::new("triple", 3, |db: &[i64]| 3 * db.len() as i64),
            Query::new("count2", 1, |db: &[i64]| db.len() as i64),
        ];
        let db: Vec<i64> = (0..50).collect();
        let req = workload_request::<D, i64>(&queries, 1, 2);
        let separate: Vec<Private<D, i64, i64>> = queries
            .iter()
            .map(|q| Private::noised_query(q, 1, 2))
            .collect();
        assert_eq!(req.gamma_each(), 3.0 * separate[0].gamma(), "{}", D::NAME);

        let mut session = Session::<D>::builder()
            .ledger(100.0)
            .inline()
            .seeded(root)
            .build();
        let mut replay = SplitSeed::new(root).stream(0);
        for round in 0..4 {
            let got = session.answer(&req, &db).unwrap();
            let expect: Vec<i64> = separate.iter().map(|p| p.run(&db, &mut replay)).collect();
            assert_eq!(got, expect, "{} round {round}", D::NAME);
        }
        let probe: Request<D, i64, i64> = Request::noise(1, 1);
        assert_eq!(
            session.answer(&probe, &db).unwrap(),
            probe.mechanism().run(&db, &mut replay),
            "{}: the session consumed a different number of bytes",
            D::NAME
        );
        let spent = 4.0 * req.gamma_each() + probe.gamma_each();
        assert!(
            (session.accountant().spent() - spent).abs() < 1e-12,
            "{}",
            D::NAME
        );
    }
    check::<PureDp>(5);
    check::<Zcdp>(6);
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

/// Pooled `Session` (global ledger, seeded) vs the per-lane sequential
/// replay: same bytes for the same root and lane count.
#[test]
fn pooled_answer_many_equals_per_lane_replay_bytewise() {
    let q = count_query::<u8>();
    let p: Private<Zcdp, u8, i64> = Private::noised_query(&q, 1, 2);
    let req = Request::from_private(&p, "count");
    let db = vec![0u8; 10];
    let lanes = 3;
    let expect = per_lane_replay(p.mechanism(), &db, 100, lanes, 9);

    let mut session = Session::<Zcdp>::builder()
        .ledger(1e6)
        .executor::<RtExecutor>(lanes)
        .seeded(9)
        .build();
    assert_eq!(session.executor().lanes(), lanes);
    let got = session.answer_many(&req, &db, 100).unwrap();
    assert_eq!(got, expect);
}

/// Pooled noise requests vs the fused batch sampler: the mechanism path
/// (through a `Session`, and through `Executor::run_into` directly)
/// draws exactly the per-lane `discrete_gaussian_many_into` replay.
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
            .ledger(1e6)
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

/// A pooled exact session is exactly accounted: it releases the
/// per-lane replay, spends exactly what one batched ledger charge of the
/// same answers spends (here the whole budget), and the refusal that ends
/// the session names the exact carrier.
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
        .ledger(16.0)
        .executor::<RtExecutor>(lanes)
        .seeded(5)
        .build();
    let answers = session.answer_many(&req, &db, 64).unwrap();
    assert_eq!(answers, per_lane_replay(p.mechanism(), &db, 64, lanes, 5));

    // Reference: the same 64 answers charged as one batch.
    let mut reference: Ledger<PureDp, Dyadic> = Ledger::new(16.0);
    reference
        .charge_batch("count", gamma, 64)
        .expect("fits exactly");
    assert_eq!(reference.remaining_exact(), Dyadic::zero());
    assert_eq!(session.accountant().spent_exact(), reference.spent_exact());

    // The next batch is refused on the exact carrier.
    let err = session.answer_many(&req, &db, 64).unwrap_err();
    match err {
        SessionError::Budget(b) => {
            assert_eq!(b.carrier, "dyadic");
            assert_eq!(b.remaining, Dyadic::zero());
            assert_eq!(
                b.to_string(),
                "privacy budget exceeded: requested 16, remaining 0 [carrier: dyadic]"
            );
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

/// A refused pooled batch spends nothing and draws nothing: the whole
/// batch is charged once before any lane draws, so a batch that does not
/// fit leaves the caller's buffer, the spend and every lane's stream
/// untouched. The next batch that fits is exactly what a fresh pool
/// serves.
#[test]
fn pooled_refusal_spends_nothing_and_draws_nothing() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count");
    let db = [0u8; 5];
    // Budget 3 (dyadic-exact), 2 lanes, 16 answers at ε = 1/4 cost 4.
    let mut session = Session::<PureDp>::builder()
        .ledger(3.0)
        .executor::<RtExecutor>(2)
        .seeded(6)
        .build();
    let mut out = vec![99i64];
    let err = session.stream_into(&req, &db, 16, &mut out).unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert_eq!(refusal.remaining, Dyadic::from(3u64));
    assert_eq!(out, vec![99], "refused serve mutated the caller's buffer");
    assert_eq!(session.accountant().spent_exact(), &Dyadic::zero());

    // 12 answers cost exactly 3 and are drawn from untouched lanes: the
    // fresh per-lane replay, as if the refused batch never arrived.
    let served = session.answer_many(&req, &db, 12).unwrap();
    assert_eq!(served, per_lane_replay(p.mechanism(), &db, 12, 2, 6));
    assert_eq!(session.accountant().spent_exact(), &Dyadic::from(3u64));
}

/// OS-entropy sessions serve the right shapes and account identically to
/// the seeded sessions (accounting is entropy-independent; the stream is
/// not replayable, so bytes are not compared).
#[test]
fn os_entropy_sessions_serve_and_account_for_both_carriers() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
    let req = Request::from_private(&p, "count");
    let db = [0u8; 9];

    let mut session = Session::<PureDp>::builder()
        .ledger(100.0)
        .inline()
        .entropy(Entropy::Os)
        .build();
    let out = session.answer_many(&req, &db, 40).unwrap();
    assert_eq!(out.len(), 40);
    assert_eq!(
        session.accountant().spent_exact(),
        &Dyadic::from_f64_ceil(10.0)
    );

    // Pooled OS-entropy.
    let mut pooled = Session::<PureDp>::builder()
        .ledger(100.0)
        .executor::<RtExecutor>(2)
        .entropy(Entropy::Os)
        .build();
    let out = pooled.answer_many(&req, &db, 40).unwrap();
    assert_eq!(out.len(), 40);
    assert_eq!(
        pooled.accountant().spent_exact(),
        &Dyadic::from_f64_ceil(10.0)
    );
}

/// Every builder chain compiles **and runs**: the full {global
/// accountant} × {executor} × {entropy} matrix. Per-principal
/// accountants serve through `answer_for` instead; a principal-less
/// `answer` on them is a compile-fail doctest in `sampcert-core`'s
/// session module.
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
    macro_rules! entropy_cases {
        (($($acct:tt)*), ($($exec:tt)*)) => {
            drive!(Session::<PureDp>::builder().$($acct)*.$($exec)*.entropy(Entropy::Os));
            drive!(Session::<PureDp>::builder().$($acct)*.$($exec)*.seeded(3));
        };
    }

    // Global accountants × both executors.
    entropy_cases!((ledger(1e6)), (inline()));
    entropy_cases!((ledger(1e6)), (executor::<RtExecutor>(2)));
    entropy_cases!((rdp(1e-6, 1e6)), (inline()));
    entropy_cases!((rdp(1e-6, 1e6)), (executor::<RtExecutor>(2)));
}

/// A pooled RDP session is accounted exactly like an inline one: the
/// meter charges the whole batch once, whichever lanes draw it, so the
/// ε it reports (and its optimizing order) equals the inline session's.
#[test]
fn pooled_rdp_session_epsilon_equals_inline() {
    let mut pooled = Session::<Zcdp>::builder()
        .rdp(1e-6, 100.0)
        .executor::<RtExecutor>(4)
        .seeded(2)
        .build();
    let req: Request<Zcdp, (), i64> = Request::noise(8, 1);
    assert_eq!(pooled.answer_many(&req, &[], 1000).unwrap().len(), 1000);

    let mut inline = Session::<Zcdp>::builder()
        .rdp(1e-6, 100.0)
        .inline()
        .seeded(2)
        .build();
    inline.answer_many(&req, &[], 1000).unwrap();

    assert_eq!(pooled.accountant().epsilon(), inline.accountant().epsilon());
}

/// `SessionError` chains its cause for both variants, and budget
/// refusals keep the carrier attribution of the legacy errors.
#[test]
fn session_errors_chain_and_attribute() {
    use std::error::Error as _;

    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
    let req = Request::from_private(&p, "count");

    let mut exact = Session::<PureDp>::builder()
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

/// A batch whose unit count (answers × units per answer) overflows a
/// `u64` is refused as a budget refusal before anything is spent or
/// drawn. Unchecked, `2 × (2⁶³ + 1)` wraps to 2, and an ε = 1 ledger
/// would record 2 × 1/4 and release both answers.
#[test]
fn overflowing_batch_unit_count_is_refused_not_wrapped() {
    let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
    let huge = Request::composite(p.mechanism().clone(), 0.25, (1 << 63) + 1, "wrap");
    let small = Request::composite(p.mechanism().clone(), 0.25, 1, "small");
    let db = [1u8, 2];
    let ledger = || {
        Session::<PureDp>::builder()
            .ledger(1.0)
            .inline()
            .seeded(8)
            .build()
    };
    // The first answer a fresh stream serves: what every session below
    // must still serve after its refusal, if the refusal drew nothing.
    let first = ledger().answer(&small, &db).unwrap();

    let mut global = ledger();
    let err = global.answer_many(&huge, &db, 2).unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert!(refusal.requested > Dyadic::from(1u64), "{refusal}");
    assert_eq!(global.accountant().spent_exact(), &Dyadic::zero());
    assert_eq!(global.answer(&small, &db).unwrap(), first);

    let mut per_principal = Session::<PureDp>::builder()
        .registry(1.0)
        .inline()
        .seeded(8)
        .build_per_principal();
    let err = per_principal.answer_many_for(3, &huge, &db, 2).unwrap_err();
    assert_eq!(err.as_budget().expect("budget refusal").principal, Some(3));
    assert_eq!(per_principal.accountant().spent_exact(3), Dyadic::zero());
    assert_eq!(per_principal.answer_for(3, &small, &db).unwrap(), first);

    // One answer of 2⁶³ + 1 units does not overflow, and does not fit.
    let mut async_ = ledger();
    let err = block_on(async_.answer_async(&huge, &db)).unwrap_err();
    assert!(err.as_budget().is_some(), "{err:?}");
    assert_eq!(async_.accountant().spent_exact(), &Dyadic::zero());
    assert_eq!(block_on(async_.answer_async(&small, &db)).unwrap(), first);
}

/// A per-principal workload that does not fit is refused before any
/// query is answered: the refusal names the principal and spends nothing
/// of theirs, and the next principal's workload is answered from the
/// start of the untouched stream.
#[test]
fn per_principal_workload_refusal_is_attributed_and_draws_nothing() {
    let queries: Vec<Query<i64>> = (0..6)
        .map(|i| Query::new(format!("count-{i}"), 1, |db: &[i64]| db.len() as i64))
        .collect();
    let db: Vec<i64> = (0..20).collect();
    let mut session = Session::<PureDp>::builder()
        .registry(1.0)
        .inline()
        .seeded(17)
        .build_per_principal();

    // 6 × ε/4 = 3/2 does not fit an allowance of 1.
    let six = workload_request::<PureDp, i64>(&queries, 1, 4);
    let err = session.answer_for(1, &six, &db).unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert_eq!(refusal.principal, Some(1));
    assert_eq!(refusal.requested, Dyadic::from_f64_ceil(1.5));
    assert_eq!(refusal.remaining, Dyadic::from(1u64));
    assert_eq!(session.accountant().spent_exact(1), Dyadic::zero());

    // 4 × ε/4 = 1 fits principal 2's allowance exactly.
    let four = workload_request::<PureDp, i64>(&queries[..4], 1, 4);
    let got = session.answer_for(2, &four, &db).expect("fits exactly");
    let mut replay = SplitSeed::new(17).stream(0);
    let expect: Vec<i64> = queries[..4]
        .iter()
        .map(|q| Private::<PureDp, i64, i64>::noised_query(q, 1, 4).run(&db, &mut replay))
        .collect();
    assert_eq!(got, expect, "the refused workload drew entropy");
    assert_eq!(session.accountant().spent_exact(2), Dyadic::from(1u64));
    assert_eq!(session.accountant().spent_exact(1), Dyadic::zero());
}
