//! Integration test: the batched serving pipeline end-to-end — batched
//! noise draws, batched `Session` releases, and one vectorized accountant
//! charge per batch, taken before any answer is drawn — against the
//! release-at-a-time path it replaces.
//!
//! Every equality here is exact (same values, same consumed bytes, same
//! exact charge): the batched layer is a throughput optimization, not a
//! semantic change.

use proptest::prelude::*;
use sampcert::arith::{Dyadic, Nat};
use sampcert::core::{
    count_query, lane_partition, DpNoise, Ledger, Private, PureDp, Query, RdpAccountant, Request,
    Session, SessionError, Zcdp,
};
use sampcert::mechanisms::{
    histogram_request, noised_bounded_sum, noised_histogram, workload_request, Bins,
};
use sampcert::rt::RtExecutor;
use sampcert::samplers::{discrete_gaussian, discrete_gaussian_many, LaplaceAlg};
use sampcert::slang::{CountingByteSource, Sampling, SeededByteSource, SplitSeed};

#[test]
fn batched_draws_are_invisible_to_values_and_entropy() {
    // σ = 64, the acceptance-bar configuration of BENCH_batch.json.
    let num = Nat::from(64u64);
    let den = Nat::one();
    let prog = discrete_gaussian::<Sampling>(&num, &den, LaplaceAlg::Switched);
    let mut seq_src = CountingByteSource::new(SeededByteSource::new(2024));
    let seq: Vec<i64> = (0..1000).map(|_| prog.run(&mut seq_src)).collect();

    let mut batch_src = CountingByteSource::new(SeededByteSource::new(2024));
    let batch = discrete_gaussian_many(&num, &den, LaplaceAlg::Switched, 1000, &mut batch_src);

    assert_eq!(batch, seq);
    assert_eq!(batch_src.bytes_read(), seq_src.bytes_read());
}

#[test]
fn serving_session_charges_once_per_batch() {
    // A session serving 3 batches of 200 noised counts each, metered
    // against the same budget arithmetic as 600 individual charges. The
    // cost ρ = ½·(1/8)² = 1/128 is dyadic, so both ledgers are exact.
    let query: Private<Zcdp, u8, i64> = Private::noised_query(&count_query(), 1, 8);
    let req = Request::from_private(&query, "count");
    let db = vec![0u8; 50];

    let mut session = Session::<Zcdp>::builder()
        .ledger(10.0)
        .inline()
        .seeded(7)
        .build();
    let mut individual_ledger: Ledger<Zcdp> = Ledger::new(10.0);
    for round in 0..3 {
        let batch = session
            .answer_many(&req, &db, 200)
            .expect("budget covers the session");
        for _ in 0..batch.len() {
            individual_ledger
                .charge(format!("round-{round}"), query.gamma())
                .expect("budget covers the session");
        }
    }
    let batched_ledger = session.accountant();
    assert_eq!(batched_ledger.entries().len(), 3);
    assert_eq!(individual_ledger.entries().len(), 600);
    let rho_600 = Dyadic::from_f64_ceil(600.0 / 128.0); // exact in f64
    assert_eq!(batched_ledger.spent_exact(), &rho_600);
    assert_eq!(individual_ledger.spent_exact(), &rho_600);
    assert_eq!(
        batched_ledger.remaining_exact(),
        individual_ledger.remaining_exact()
    );
}

#[test]
fn vectorized_rdp_matches_per_release_accounting() {
    // 600 σ/Δ = 8 Gaussian releases: one vectorized charge equals the
    // per-release loop on the whole curve and in the (ε, δ) conversion.
    let mut vectorized = RdpAccountant::with_default_orders();
    vectorized.add_gaussian_n(8.0, 600);
    let mut looped = RdpAccountant::with_default_orders();
    for _ in 0..600 {
        looped.add_gaussian(8.0);
    }
    for ((a, ev), (_, el)) in vectorized.curve().zip(looped.curve()) {
        assert!((ev - el).abs() <= 1e-12 * el.max(1.0), "alpha={a}");
    }
    let (eps_v, _) = vectorized.epsilon(1e-6);
    let (eps_l, _) = looped.epsilon(1e-6);
    assert!((eps_v - eps_l).abs() < 1e-9);
}

#[test]
fn batched_histogram_serves_the_compositional_distribution() {
    let bins = Bins::new(8, |v: &u32| (*v as usize) % 8);
    let db: Vec<u32> = (0..500).map(|i| i * 7 % 100).collect();
    let compositional = noised_histogram::<PureDp, u32>(&bins, 4, 1);

    let mut session = Session::<PureDp>::builder()
        .ledger(100.0)
        .inline()
        .seeded(99)
        .build();
    let served = session
        .answer_many(&histogram_request::<PureDp, u32>(&bins, 4, 1), &db, 10)
        .unwrap();
    let mut replay = SplitSeed::new(99).stream(0);
    for (round, hist) in served.iter().enumerate() {
        assert_eq!(hist, &compositional.run(&db, &mut replay), "round {round}");
    }
}

#[test]
fn workload_batch_fits_ledger_or_leaves_it_untouched() {
    let workload = |n: usize| -> Vec<Query<u8>> {
        (0..n)
            .map(|i| Query::new(format!("count-{i}"), 1, |db: &[u8]| db.len() as i64))
            .collect()
    };
    let db = [1u8, 2, 3];

    // Budget 5: a 20 × ε/2 = 10 workload is refused before any draw.
    let mut session = Session::<PureDp>::builder()
        .ledger(5.0)
        .inline()
        .seeded(12)
        .build();
    let err = session
        .answer(&workload_request::<PureDp, u8>(&workload(20), 1, 2), &db)
        .unwrap_err();
    let SessionError::Budget(refusal) = err else {
        panic!("expected a budget refusal, got {err}");
    };
    assert_eq!(refusal.requested, Dyadic::from(10u64));
    assert_eq!(refusal.remaining, Dyadic::from(5u64));
    assert!(session.accountant().entries().is_empty());
    assert_eq!(session.accountant().spent_exact(), &Dyadic::zero());

    // A 10 × ε/2 = 5 workload fits exactly, and its answers are the
    // first draws of the untouched stream: the refusal drew nothing.
    let half = workload(10);
    let got = session
        .answer(&workload_request::<PureDp, u8>(&half, 1, 2), &db)
        .expect("fits exactly");
    let mut replay = SplitSeed::new(12).stream(0);
    let expect: Vec<i64> = half
        .iter()
        .map(|q| Private::<PureDp, u8, i64>::noised_query(q, 1, 2).run(&db, &mut replay))
        .collect();
    assert_eq!(got, expect);
    assert_eq!(session.accountant().remaining_exact(), Dyadic::zero());
}

/// A batch of histograms that does not fit is refused whole, before any
/// histogram is drawn: the caller's buffer, the spend and the stream are
/// untouched, and the batch that fits exactly is served from the start
/// of the stream.
#[test]
fn refused_histogram_batch_spends_nothing_and_draws_nothing() {
    let bins = Bins::new(4, |v: &u32| (*v as usize) % 4);
    let db: Vec<u32> = (0..40).map(|i| i * 3 % 17).collect();
    // ε = 1/2 per histogram: 4 bins of ε = 1/8, all dyadic.
    let req = histogram_request::<PureDp, u32>(&bins, 1, 2);
    let mut session = Session::<PureDp>::builder()
        .ledger(2.0)
        .inline()
        .seeded(41)
        .build();

    let mut out = vec![vec![-1i64]];
    let err = session.stream_into(&req, &db, 5, &mut out).unwrap_err();
    let refusal = err.as_budget().expect("budget refusal");
    assert_eq!(refusal.requested, Dyadic::from_f64_ceil(2.5));
    assert_eq!(refusal.remaining, Dyadic::from(2u64));
    assert_eq!(
        out,
        vec![vec![-1]],
        "the refusal wrote to the caller's buffer"
    );
    assert!(session.accountant().entries().is_empty());
    assert_eq!(session.accountant().spent_exact(), &Dyadic::zero());

    let served = session.answer_many(&req, &db, 4).expect("fits exactly");
    let compositional = noised_histogram::<PureDp, u32>(&bins, 1, 2);
    let mut replay = SplitSeed::new(41).stream(0);
    for (round, hist) in served.iter().enumerate() {
        assert_eq!(hist, &compositional.run(&db, &mut replay), "round {round}");
    }
    assert_eq!(session.accountant().remaining_exact(), Dyadic::zero());
}

/// A pooled session draws every answer on the fast tiers and still
/// releases exactly the per-lane replay of the monadic programs: a
/// histogram (per-bin σ = 64, fused tier) on lane 0, then a bounded sum
/// at σ = 1000·2¹⁷ (past 2²⁶, compiled tier) split over the four lanes.
#[test]
fn pooled_session_on_fast_tiers_equals_monadic_lane_replay() {
    const ROOT: u64 = 0x5EED_0031;
    let bins = Bins::new(16, |v: &u32| *v as usize % 16);
    let hist_db: Vec<u32> = (0..500).map(|i| i * 7).collect();
    let sum_db: Vec<i64> = (0..300).map(|i| i * 3 % 1001).collect();
    let hist = histogram_request::<Zcdp, u32>(&bins, 1, 4);
    let wide = Request::from_private(&noised_bounded_sum::<Zcdp>(0, 1000, 1, 1 << 17), "wide");
    let mut session = Session::<Zcdp>::builder()
        .exact()
        .ledger(1e12)
        .executor::<RtExecutor>(4)
        .seeded(ROOT)
        .build();
    let got_hist = session.answer(&hist, &hist_db).unwrap();
    let got_wide = session.answer_many(&wide, &sum_db, 9).unwrap();

    let root = SplitSeed::new(ROOT);
    let mut lanes: Vec<_> = (0..4).map(|i| root.stream(i)).collect();
    let gaussian = |sigma: u64| {
        discrete_gaussian::<Sampling>(&Nat::from(sigma), &Nat::one(), LaplaceAlg::Switched)
    };
    let bin_noise = gaussian(64);
    let mut expect_hist = vec![0i64; 16];
    for v in &hist_db {
        expect_hist[*v as usize % 16] += 1;
    }
    for b in (0..16).rev() {
        expect_hist[b] += bin_noise.run(&mut lanes[0]);
    }
    assert_eq!(got_hist, expect_hist);

    let sum: i64 = sum_db.iter().sum();
    let wide_noise = gaussian(1000 << 17);
    let mut expect_wide = Vec::new();
    for (lane, len) in lanes.iter_mut().zip(lane_partition(9, 4)) {
        expect_wide.extend((0..len).map(|_| sum + wide_noise.run(lane)));
    }
    assert_eq!(got_wide, expect_wide);
}

/// One `answer_many` on a fresh exact ledger, then the batch that fills
/// what is left. The first batch is admitted exactly when its price fits;
/// a refused one spends nothing, and an admitted one spends its price.
/// Either way the answers served so far are the replay of the stream
/// from its start, so a refusal drew nothing and an admission drew
/// exactly its answers.
fn charges_before_it_draws<D: DpNoise>(budget: f64, den: u64, n: usize, seed: u64) {
    let p: Private<D, u8, i64> = Private::noised_query(&count_query(), 1, den);
    let req = Request::from_private(&p, "count");
    let db = [3u8; 6];
    // Every price here is a dyadic rational well inside f64's precision,
    // so these f64 products and comparisons are exact.
    let price = n as f64 * p.gamma();
    let mut session = Session::<D>::builder()
        .ledger(budget)
        .inline()
        .seeded(seed)
        .build();

    let mut served = match session.answer_many(&req, &db, n) {
        Ok(got) => {
            assert!(price <= budget, "{}: admitted {price} > {budget}", D::NAME);
            assert_eq!(
                session.accountant().spent_exact(),
                &Dyadic::from_f64_ceil(price)
            );
            got
        }
        Err(err) => {
            let refusal = err.as_budget().expect("budget refusal");
            assert!(price > budget, "{}: refused {price} <= {budget}", D::NAME);
            assert_eq!(refusal.requested, Dyadic::from_f64_ceil(price));
            assert_eq!(session.accountant().spent_exact(), &Dyadic::zero());
            assert!(session.accountant().entries().is_empty());
            Vec::new()
        }
    };
    let spent = served.len() as f64 * p.gamma();
    let fill = ((budget - spent) / p.gamma()) as usize;
    served.extend(session.answer_many(&req, &db, fill).expect("fits"));

    let mut replay = SplitSeed::new(seed).stream(0);
    assert_eq!(
        served,
        p.run_many(&db, served.len(), &mut replay),
        "{}",
        D::NAME
    );
    let left = budget - served.len() as f64 * p.gamma();
    assert!(left < p.gamma(), "{}: {left} left", D::NAME);
    assert_eq!(
        session.accountant().remaining_exact(),
        Dyadic::from_f64_ceil(left)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn answer_many_charges_before_it_draws(
        eighths in 1u64..40,
        den_log in 0u32..4,
        n in 0usize..24,
        seed in any::<u64>(),
    ) {
        let budget = eighths as f64 / 8.0;
        charges_before_it_draws::<PureDp>(budget, 1 << den_log, n, seed);
        charges_before_it_draws::<Zcdp>(budget, 1 << den_log, n, seed);
    }
}
