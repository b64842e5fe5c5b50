//! Integration test: privacy accounting across heterogeneous releases —
//! the ledger/accountant layer against the measured divergences of real
//! composed mechanisms.

use sampcert::arith::Dyadic;
use sampcert::core::{
    count_query, AbstractDp, ApproxPrivate, BudgetRegistry, Ledger, Private, PureDp, RdpAccountant,
    RenyiDp, Request, Session, SessionError, Zcdp,
};
use sampcert::stattest::renyi_divergence_report;

/// A tiny deterministic generator for the random-session laws below
/// (SplitMix64; no dependence on the test framework's RNG).
struct SessionRng(u64);

impl SessionRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A charge in `(0, 0.1]` with an awkward (non-dyadic) mantissa.
    fn charge(&mut self) -> f64 {
        (self.next() % 10_000 + 1) as f64 / 100_000.0
    }
}

#[test]
fn ledger_meters_a_session() {
    let mut ledger: Ledger<PureDp> = Ledger::new(2.0);
    let count: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
    ledger.charge("count", count.gamma()).unwrap();
    let hist = sampcert::mechanisms::noised_histogram::<PureDp, u8>(
        &sampcert::mechanisms::Bins::new(4, |v: &u8| (*v % 4) as usize),
        1,
        1,
    );
    ledger.charge("histogram", hist.gamma()).unwrap();
    assert!((ledger.spent() - 1.5).abs() < 1e-12);
    // The next full-ε release must be refused.
    assert!(ledger.charge("too-much", 1.0).is_err());
    // And the session's (ε, δ) statement is the pure-DP identity.
    assert_eq!(ledger.approx_dp(1e-9), ledger.spent());
}

#[test]
fn rdp_accountant_dominates_measured_composition() {
    // Two adaptive Gaussian releases at σ = 3 on a sensitivity-1 query:
    // the accountant's curve must dominate the *measured* Rényi
    // divergence of the actual composed mechanism.
    let q = count_query::<u8>();
    let g1: Private<Zcdp, u8, i64> = Private::noised_query(&q, 1, 3); // σ = 3
    let composed = g1.compose(&g1.clone());

    let mut acct = RdpAccountant::new(vec![2.0, 4.0, 8.0]);
    acct.add_gaussian(3.0);
    acct.add_gaussian(3.0);

    let db1 = vec![0u8; 6];
    let db2 = vec![0u8; 7];
    let d1 = composed.dist(&db1);
    let d2 = composed.dist(&db2);
    for (alpha, eps_budget) in acct.curve() {
        let measured = renyi_divergence_report(&d1, &d2, alpha);
        assert!(measured.escaped_mass < 1e-10);
        assert!(
            measured.value <= eps_budget * 1.02 + 1e-9,
            "alpha={alpha}: measured {} > budget {eps_budget}",
            measured.value
        );
        // And the budget is not vacuous (within 2× of measured).
        assert!(
            measured.value >= eps_budget * 0.5,
            "alpha={alpha}: budget {eps_budget} looks vacuous vs {}",
            measured.value
        );
    }
}

#[test]
fn renyi_notion_and_accountant_agree() {
    // A single Gaussian release read as RenyiDp<4> carries the same bound
    // the accountant computes at order 4.
    let q = count_query::<u8>();
    let r: Private<RenyiDp<4>, u8, i64> = Private::noised_query(&q, 1, 2); // σ = 2
    let mut acct = RdpAccountant::new(vec![4.0]);
    acct.add_gaussian(2.0);
    let (_, (alpha, eps)) = (0, acct.curve().next().unwrap());
    assert_eq!(alpha, 4.0);
    assert!((r.gamma() - eps).abs() < 1e-12);
}

#[test]
fn approx_layer_sums_heterogeneous_sessions() {
    // Pure-DP count + zCDP count, embedded and composed at (ε, δ); the
    // total must dominate what either notion alone reports.
    let pure: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
    let conc: Private<Zcdp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
    let a = ApproxPrivate::from_private(&pure, 0.0f64.max(1e-9));
    let b = ApproxPrivate::from_private(&conc, 1e-6);
    let total = a.compose(&b);
    let budget = total.budget();
    assert!(budget.eps > 0.5 && budget.eps < 4.0, "eps={}", budget.eps);
    assert!((budget.delta - (1e-9 + 1e-6)).abs() < 1e-15);
    total
        .check_pair(&[1, 2, 3], &[1, 2], 0.02)
        .expect("composed (ε, δ) bound holds on a real neighbour pair");
}

/// Accountant law: `ε(δ)` is antitone in `δ` (a looser failure allowance
/// never demands a larger ε), under heterogeneous spending.
#[test]
fn epsilon_is_monotone_in_delta() {
    let mut rng = SessionRng(11);
    let mut exact = RdpAccountant::with_default_orders();
    for i in 0..40 {
        let sigma = 1.0 + (rng.next() % 64) as f64;
        exact.add_gaussian(sigma);
        if i % 3 == 0 {
            exact.add_pure(rng.charge());
        }
    }
    let deltas = [1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.5];
    let acct_eps = deltas.map(|d| exact.epsilon(d).0);
    for w in acct_eps.windows(2) {
        assert!(
            w[1] <= w[0],
            "eps increased as delta loosened: {acct_eps:?}"
        );
    }
}

/// Accountant law: `charge_batch` ≡ `n` sequential `charge`s, **exactly**.
#[test]
fn charge_batch_equals_sequential_charges_for_both_carriers() {
    for (gamma, n) in [(0.013, 997u64), (0.125, 64), (1e-6, 100_000)] {
        let mut d_batch: Ledger<Zcdp> = Ledger::new(1e9);
        let mut d_seq: Ledger<Zcdp> = Ledger::new(1e9);
        d_batch.charge_batch("batch", gamma, n).unwrap();
        for i in 0..n {
            d_seq.charge(format!("q{i}"), gamma).unwrap();
        }
        assert_eq!(
            d_batch.spent_exact(),
            d_seq.spent_exact(),
            "dyadic carrier must agree bit-for-bit (gamma={gamma}, n={n})"
        );
    }
}

/// Exact ledger vs an `f64` fold of the same charges, within the stated
/// rounding bound. Per charge, the conversion onto the lattice rounds
/// **up** by at most one `2^MIN_EXP` quantum, and the f64 fold rounds its
/// running total by at most one ulp of the final total — so after `n`
/// charges the two totals differ by at most
/// `n · (ulp(total) + 2^MIN_EXP)`, and the exact total (which only ever
/// rounds up) dominates the true sum.
#[test]
fn exact_and_f64_ledgers_agree_within_rounding_bound() {
    for seed in [1u64, 7, 42] {
        let mut rng = SessionRng(seed);
        let mut float = 0.0f64;
        let mut exact: Ledger<PureDp> = Ledger::new(1e9);
        let n = 2000;
        for i in 0..n {
            let g = rng.charge();
            float = PureDp::compose(float, g);
            exact.charge(format!("q{i}"), g).unwrap();
        }
        let bound = n as f64 * (f64::EPSILON * float.max(1.0) + 2f64.powi(Dyadic::MIN_EXP as i32));
        let diff = (float - exact.spent()).abs();
        assert!(
            diff <= bound,
            "seed {seed}: ledgers drifted {diff} > {bound}"
        );
        assert_eq!(exact.entries().len(), n);
    }
}

/// The acceptance criterion of the gcd-free lattice, as a counter test:
/// `Nat::gcd` (and the word-sized gcd behind `Rat::from_ratio`) is never
/// invoked by `Dyadic` ledger `charge`/`charge_batch`/`remaining`/`spent`,
/// nor by the exact RDP accountant's adders. Debug builds only — the
/// counter is compiled out of release builds.
#[cfg(debug_assertions)]
#[test]
fn dyadic_ledger_charge_path_performs_no_gcd() {
    let mut rng = SessionRng(3);
    let mut ledger: Ledger<Zcdp> = Ledger::new(1e6);
    let mut acct = RdpAccountant::new(vec![2.0, 4.0, 32.0]);
    let before = sampcert::arith::gcd_call_count();
    for i in 0..500 {
        ledger.charge(format!("q{i}"), rng.charge()).unwrap();
        let _ = ledger.spent_exact();
        let _ = ledger.remaining_exact();
        acct.add_gaussian(4.0);
    }
    ledger.charge_batch("batch", 0.003, 100_000).unwrap();
    acct.add_gaussian_n(8.0, 1 << 20);
    acct.add_pure_n(0.1, 12345);
    let _ = acct.epsilon(1e-6);
    assert_eq!(
        sampcert::arith::gcd_call_count(),
        before,
        "exact accounting ran a gcd"
    );
    // Sanity: the counter is live — a Rat reduction does bump it.
    let _ = sampcert::arith::Rat::from_ratio(450, 240);
    assert!(sampcert::arith::gcd_call_count() > before);
}

/// A budget spent to the last bit admits nothing more: a 2⁻⁴¹ charge —
/// below the 1e-12 an `f64` meter would forgive — is refused by a
/// default `Ledger`, a default `BudgetRegistry` and a default `Session`.
#[test]
fn spent_budget_refuses_a_charge_of_two_to_the_minus_41() {
    let tiny = 2f64.powi(-41);

    let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
    ledger.charge("all", 1.0).unwrap();
    assert!(ledger.charge("tiny", tiny).is_err());
    assert_eq!(ledger.spent_exact(), &Dyadic::from(1u64));

    let registry: BudgetRegistry<PureDp> = BudgetRegistry::new(1.0, 4);
    registry.charge(3, 1.0).unwrap();
    assert!(registry.charge(3, tiny).is_err());
    assert_eq!(registry.spent_exact(3), Dyadic::from(1u64));

    let mut session = Session::<PureDp>::builder().ledger(1.0).inline().build();
    session
        .answer(&Request::<PureDp, (), i64>::noise(1, 1), &[])
        .unwrap();
    let tiny_req: Request<PureDp, (), i64> = Request::noise(1 << 41, 1);
    assert_eq!(tiny_req.gamma_each(), tiny);
    let err = session.answer(&tiny_req, &[]).unwrap_err();
    assert!(matches!(err, SessionError::Budget(_)), "{err}");
    assert_eq!(session.accountant().spent_exact(), &Dyadic::from(1u64));
}

/// The exact carrier refuses with exact quantities: requested and
/// remaining come back as dyadic values whose `Display` is an exact
/// finite decimal, not a lossy float cast.
#[test]
fn exact_rejection_reports_exact_quantities() {
    let mut ledger: Ledger<PureDp> = Ledger::new(1.0);
    ledger.charge("warmup", 0.75).unwrap();
    let err = ledger.charge("big", 0.5).unwrap_err();
    assert_eq!(err.requested, Dyadic::from_f64_ceil(0.5));
    assert_eq!(err.remaining, Dyadic::from_f64_ceil(0.25));
    assert_eq!(
        err.to_string(),
        "privacy budget exceeded: requested 0.5, remaining 0.25 [carrier: dyadic]"
    );
}

#[test]
fn accountant_beats_notionwise_conversion_for_many_releases() {
    // 16 Gaussian releases: converting each to (ε, δ/16) and summing is
    // much worse than accounting in RDP and converting once.
    let k = 16;
    let sigma = 4.0;
    let delta = 1e-6;

    let mut acct = RdpAccountant::with_default_orders();
    for _ in 0..k {
        acct.add_gaussian(sigma);
    }
    let (eps_rdp, _) = acct.epsilon(delta);

    let rho_each = 1.0 / (2.0 * sigma * sigma);
    let eps_each = Zcdp::to_app_dp(rho_each, delta / k as f64);
    let eps_naive = eps_each * k as f64;

    // zCDP itself also composes additively; RDP should be comparable.
    let eps_zcdp_total = Zcdp::to_app_dp(rho_each * k as f64, delta);

    assert!(
        eps_rdp < eps_naive / 2.0,
        "rdp {eps_rdp} vs naive {eps_naive}"
    );
    assert!(
        eps_rdp < eps_zcdp_total * 1.1,
        "rdp {eps_rdp} vs zcdp {eps_zcdp_total}"
    );
}
