//! Differentially private histograms, generic in the privacy notion
//! (paper Section 2.3, Listings 4–7; Appendix B, Listing 19).
//!
//! The construction mirrors the paper exactly: each bin's exact count has
//! sensitivity 1 (Listing 5); noising it with arguments `(γ₁, γ₂·nBins)`
//! makes each bin `noise_priv(γ₁, γ₂·nBins)`-ADP; sequential composition
//! over the bins (plus free postprocessing to assemble the vector) yields
//! the total bound — **for any** [`DpNoise`] instance, so the same code
//! and the same budget arithmetic produce a pure-DP histogram under
//! Laplace noise and a zCDP histogram under Gaussian noise.
//!
//! The parallel variant ([`par_noised_histogram`]) uses Listing 17/19's
//! `privParComp`: rows are partitioned by bin, a neighbouring change lands
//! in exactly one partition, and the whole histogram costs `max` over bins
//! — the full per-bin budget with `1/nBins` of the sequential noise.

use sampcert_core::{DpNoise, Mechanism, Private, Query, Request};
use sampcert_slang::ByteSource;
use std::sync::Arc;

/// A binning strategy: a total function from rows to `n_bins` bins
/// (the paper's `Bins` structure).
pub struct Bins<T> {
    n_bins: usize,
    f: Arc<dyn Fn(&T) -> usize + Send + Sync>,
}

impl<T> Clone for Bins<T> {
    fn clone(&self) -> Self {
        Bins {
            n_bins: self.n_bins,
            f: Arc::clone(&self.f),
        }
    }
}

impl<T> std::fmt::Debug for Bins<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bins(n = {})", self.n_bins)
    }
}

impl<T> Bins<T> {
    /// Creates a binning strategy.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins` is zero. The function's outputs are clamped into
    /// range at use sites (a defensive echo of the paper's `Fin nBins`
    /// codomain, which makes out-of-range bins unrepresentable).
    pub fn new(n_bins: usize, f: impl Fn(&T) -> usize + Send + Sync + 'static) -> Self {
        assert!(n_bins > 0, "Bins: need at least one bin");
        Bins {
            n_bins,
            f: Arc::new(f),
        }
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// The bin of a row (clamped into range).
    pub fn bin(&self, row: &T) -> usize {
        (self.f)(row).min(self.n_bins - 1)
    }
}

/// `exactBinCount` (Listing 5): the number of rows in bin `b` — a
/// sensitivity-1 query, since a neighbouring change alters one row's
/// membership in at most this one bin.
pub fn exact_bin_count<T: 'static>(bins: &Bins<T>, b: usize) -> Query<T> {
    assert!(b < bins.n_bins(), "bin index out of range");
    let bins = bins.clone();
    Query::new(format!("bin-count[{b}]"), 1, move |db: &[T]| {
        db.iter().filter(|row| bins.bin(row) == b).count() as i64
    })
}

/// The per-bin denominator `γ₂·nBins`.
///
/// # Panics
///
/// Panics if the product overflows `u64`; callers build their mechanism
/// from it before anything is charged or drawn.
fn per_bin_den(gamma_den: u64, n_bins: usize) -> u64 {
    gamma_den
        .checked_mul(n_bins as u64)
        .unwrap_or_else(|| panic!("histogram: γ₂·nBins = {gamma_den}·{n_bins} overflows u64"))
}

/// `privNoisedBinCount` (Listing 4): bin `b`'s count noised at
/// `noise_priv(γ₁, γ₂·nBins)` — the per-bin slice of the budget.
///
/// # Panics
///
/// Panics if `γ₂·nBins` overflows `u64`.
pub fn noised_bin_count<D: DpNoise, T: 'static>(
    bins: &Bins<T>,
    gamma_num: u64,
    gamma_den: u64,
    b: usize,
) -> Private<D, T, i64> {
    Private::noised_query(
        &exact_bin_count(bins, b),
        gamma_num,
        per_bin_den(gamma_den, bins.n_bins()),
    )
}

/// `privNoisedHistogram` (Listing 4): the abstract DP histogram.
///
/// Returns a vector of noised counts, one per bin, with total privacy
/// `nBins · noise_priv(γ₁, γ₂·nBins)` — which instantiates to `γ₁/γ₂`
/// for pure DP and `½(γ₁/γ₂)²/nBins` for zCDP, exactly as the paper's
/// generic bound specializes.
///
/// # Panics
///
/// Panics if `gamma_num` or `gamma_den` is zero, or if `γ₂·nBins`
/// overflows `u64`.
pub fn noised_histogram<D: DpNoise, T: 'static>(
    bins: &Bins<T>,
    gamma_num: u64,
    gamma_den: u64,
) -> Private<D, T, Vec<i64>> {
    let n = bins.n_bins();
    let mut acc: Private<D, T, Vec<i64>> = Private::constant(vec![0i64; n]);
    for b in 0..n {
        let bin = noised_bin_count::<D, T>(bins, gamma_num, gamma_den, b);
        acc = bin.compose(&acc).postprocess(move |(c, h)| {
            let mut h = h.clone();
            h[b] = *c;
            h
        });
    }
    acc
}

/// `privParNoisedHistogram` (Listing 19): the parallel-composition
/// histogram. Each bin mechanism runs on its own partition with the
/// **full** per-bin budget `(γ₁, γ₂)`; the total is the `max` over bins —
/// same privacy as [`noised_histogram`] at `1/nBins` of the noise.
pub fn par_noised_histogram<D: DpNoise, T: Clone + 'static>(
    bins: &Bins<T>,
    gamma_num: u64,
    gamma_den: u64,
) -> Private<D, T, Vec<i64>> {
    let n = bins.n_bins();
    let mut acc: Private<D, T, Vec<i64>> = Private::constant(vec![0i64; n]);
    for b in 0..n {
        let bin: Private<D, T, i64> =
            Private::noised_query(&exact_bin_count(bins, b), gamma_num, gamma_den);
        let bins2 = bins.clone();
        acc = bin
            .par_compose(&acc, move |row| bins2.bin(row) == b)
            .postprocess(move |(c, h)| {
                let mut h = h.clone();
                h[b] = *c;
                h
            });
    }
    acc
}

/// The noised histogram as a [`Request`] for the
/// [`Session`](sampcert_core::Session) front door.
///
/// One answer is a whole histogram: one O(rows) counting pass (where the
/// compositional mechanism scans the database once per bin), then one
/// noise program drawn `nBins` times in the compositional draw order — so
/// every released vector (and every consumed byte) equals what
/// [`noised_histogram`]`.run` releases from the same stream position
/// (pinned by the tests below and `tests/session_api.rs`). The price is
/// [`noised_histogram`]'s, `nBins · noise_priv(γ₁, γ₂·nBins)`, factored
/// as `nBins` sub-releases of the per-bin cost so the exact carrier
/// rounds the per-bin cost before composing it. The analytic
/// distribution is [`noised_histogram`]'s, so
/// [`check_pair`](sampcert_core::Private::check_pair)-style verification
/// remains available through the underlying compositional mechanism.
///
/// # Panics
///
/// Panics if `gamma_num` or `gamma_den` is zero, or if `γ₂·nBins`
/// overflows `u64`.
///
/// # Examples
///
/// ```
/// use sampcert_core::{PureDp, Session};
/// use sampcert_mechanisms::{histogram_request, Bins};
///
/// let bins = Bins::new(4, |age: &u32| (*age as usize) / 25);
/// let mut session = Session::<PureDp>::builder()
///     .ledger(2.0)
///     .inline()
///     .seeded(1)
///     .build();
/// let hist = session
///     .answer(&histogram_request::<PureDp, u32>(&bins, 1, 1), &[23, 35, 47, 88])
///     .unwrap();
/// assert_eq!(hist.len(), 4);
/// assert!((session.accountant().spent() - 1.0).abs() < 1e-12);
/// ```
pub fn histogram_request<D: DpNoise, T: 'static>(
    bins: &Bins<T>,
    gamma_num: u64,
    gamma_den: u64,
) -> Request<D, T, Vec<i64>> {
    let n = bins.n_bins();
    let bin_den = per_bin_den(gamma_den, n);
    let noise = D::noise(
        &crate::queries::noise_only_query::<T>(1),
        gamma_num,
        bin_den,
    );
    let bins2 = bins.clone();
    let compositional = noised_histogram::<D, T>(bins, gamma_num, gamma_den);
    let mech = Mechanism::from_parts(
        move |db: &[T], src: &mut dyn ByteSource| {
            let mut counts = vec![0i64; n];
            for row in db {
                counts[bins2.bin(row)] += 1;
            }
            // Bin n−1 is outermost in the composition, so its noise draws
            // first; matching that order keeps the byte streams identical.
            for b in (0..n).rev() {
                counts[b] = crate::queries::add_noise(counts[b], noise.run(&[], src));
            }
            counts
        },
        move |db| compositional.dist(db),
    );
    Request::composite(
        mech,
        D::noise_priv(gamma_num, bin_den),
        n as u64,
        format!("histogram[{n} bins]"),
    )
}

/// A private approximate maximum (paper Section 2.3): the index of the
/// last bin whose noised count exceeds `cutoff`, or `None` if no bin
/// does. Pure postprocessing of the histogram — privacy-free on top of it.
pub fn approx_max_bin<D: DpNoise, T: 'static>(
    bins: &Bins<T>,
    gamma_num: u64,
    gamma_den: u64,
    cutoff: i64,
) -> Private<D, T, Option<u64>> {
    noised_histogram::<D, T>(bins, gamma_num, gamma_den).postprocess(move |h| {
        h.iter()
            .enumerate()
            .rev()
            .find(|(_, c)| **c > cutoff)
            .map(|(b, _)| b as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_core::{CheckOptions, Dyadic, Ledger, PureDp, Session, Zcdp};
    use sampcert_slang::{CountingByteSource, SeededByteSource, SplitSeed};

    /// Two bins: evens and odds.
    fn parity_bins() -> Bins<i64> {
        Bins::new(2, |v: &i64| (*v % 2).unsigned_abs() as usize)
    }

    /// The request's one-pass histogram is byte for byte the
    /// compositional one, at the same price.
    #[test]
    fn histogram_request_equals_compositional_run_bytewise() {
        fn check<D: DpNoise>(seed: u64) {
            let bins = Bins::new(5, |v: &i64| (*v % 5).unsigned_abs() as usize);
            let db: Vec<i64> = (0..200).map(|i| (i * 13) % 40).collect();
            let compositional = noised_histogram::<D, i64>(&bins, 2, 1);
            let req = histogram_request::<D, i64>(&bins, 2, 1);
            let mut seq_src = CountingByteSource::new(SeededByteSource::new(seed));
            let mut req_src = CountingByteSource::new(SeededByteSource::new(seed));
            for round in 0..20 {
                let a = compositional.run(&db, &mut seq_src);
                let b = req.mechanism().run(&db, &mut req_src);
                assert_eq!(a, b, "{} round {round}", D::NAME);
                assert_eq!(
                    seq_src.bytes_read(),
                    req_src.bytes_read(),
                    "{} round {round}",
                    D::NAME
                );
            }
            assert!(
                (req.gamma_each() - compositional.gamma()).abs() < 1e-12,
                "{}",
                D::NAME
            );
        }
        check::<PureDp>(17);
        check::<Zcdp>(18);
    }

    #[test]
    fn histogram_request_counts_exactly_under_zero_noise_scale() {
        // Huge ε ⇒ tiny noise; the counting pass must be exact.
        let req = histogram_request::<PureDp, i64>(&parity_bins(), 200, 1);
        let db: Vec<i64> = (0..100).collect();
        let mut src = SeededByteSource::new(2);
        assert_eq!(req.mechanism().run(&db, &mut src), vec![50, 50]);
    }

    /// A histogram served through the `Session` front door records the
    /// same exact charge as the per-bin batch charge: per-bin γ converted
    /// (rounded up) first, then composed `nBins`-fold — even when the
    /// per-bin γ is not dyadic and the f64-composed total would round the
    /// other way.
    #[test]
    fn session_histogram_charge_matches_per_bin_batch_charge_exactly() {
        // 3 bins at γ = 1/3: per-bin ε = 1/9, non-dyadic in every digit.
        let bins = Bins::new(3, |v: &i64| (*v % 3).unsigned_abs() as usize);
        let db: Vec<i64> = (0..20).collect();
        let mut session = Session::<PureDp>::builder()
            .ledger(10.0)
            .inline()
            .seeded(33)
            .build();
        session
            .answer(&histogram_request::<PureDp, i64>(&bins, 1, 3), &db)
            .unwrap();
        let mut reference: Ledger<PureDp> = Ledger::new(10.0);
        reference
            .charge_batch("hist", PureDp::noise_priv(1, 9), 3)
            .unwrap();
        assert_eq!(session.accountant().spent_exact(), reference.spent_exact());
    }

    /// Charge-before-serve through the `Session` front door: a refused
    /// histogram draws no entropy, so the next served histogram continues
    /// the compositional replay exactly where the last served one stopped.
    #[test]
    fn session_histogram_refusal_draws_no_entropy() {
        let bins = parity_bins();
        let db: Vec<i64> = (0..30).collect();
        let eps_one = histogram_request::<PureDp, i64>(&bins, 1, 1);
        let eps_half = histogram_request::<PureDp, i64>(&bins, 1, 2);

        // Exact carrier, budget 2.5: two ε = 1 histograms fit, a third is
        // refused, and an ε = ½ histogram then fits exactly.
        let mut session = Session::<PureDp>::builder()
            .ledger(2.5)
            .inline()
            .seeded(21)
            .build();
        let mut replay = SplitSeed::new(21).stream(0);
        for round in 0..2 {
            let got = session.answer(&eps_one, &db).expect("fits");
            let expect = noised_histogram::<PureDp, i64>(&bins, 1, 1).run(&db, &mut replay);
            assert_eq!(got, expect, "round {round}");
        }
        assert_eq!(session.accountant().spent_exact(), &Dyadic::from(2u64));

        let err = session.answer(&eps_one, &db).unwrap_err();
        let refusal = err.as_budget().expect("budget refusal");
        assert_eq!(refusal.requested, Dyadic::from(1u64));
        assert_eq!(refusal.remaining, Dyadic::from_f64_ceil(0.5));
        assert_eq!(session.accountant().entries().len(), 2);

        let got = session.answer(&eps_half, &db).expect("fits exactly");
        let expect = noised_histogram::<PureDp, i64>(&bins, 1, 2).run(&db, &mut replay);
        assert_eq!(got, expect, "the refused histogram drew entropy");
        assert_eq!(session.accountant().remaining_exact(), Dyadic::zero());
    }

    #[test]
    fn exact_bin_count_counts() {
        let q = exact_bin_count(&parity_bins(), 0);
        assert_eq!(q.eval(&[2, 4, 5, 7, 8]), 3);
        assert_eq!(q.sensitivity(), 1);
    }

    #[test]
    fn exact_bin_count_sensitivity_lemma() {
        // Listing 5, executed: sensitivity 1 over generated neighbours.
        let q = exact_bin_count(&parity_bins(), 1);
        let dbs = vec![vec![], vec![1, 2, 3], vec![5, 5, 5, 6]];
        assert!(q.check_sensitivity(&dbs, &[0, 1, 9]).is_ok());
    }

    #[test]
    fn histogram_budget_pure_dp() {
        // γ = ε₁/ε₂ overall, regardless of bin count (Listing 7).
        let h = noised_histogram::<PureDp, i64>(&parity_bins(), 1, 1);
        assert!((h.gamma() - 1.0).abs() < 1e-12);
        let h4 = noised_histogram::<PureDp, i64>(
            &Bins::new(4, |v: &i64| (*v % 4).unsigned_abs() as usize),
            1,
            1,
        );
        assert!((h4.gamma() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_budget_zcdp() {
        // zCDP: per-bin ρ_b = ½(γ₁/(γ₂·n))², total n·ρ_b = ½(γ₁/γ₂)²/n.
        let h = noised_histogram::<Zcdp, i64>(&parity_bins(), 1, 1);
        assert!((h.gamma() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_prop_checked_pure_dp() {
        let h = noised_histogram::<PureDp, i64>(&parity_bins(), 1, 1);
        h.check_pair(&[1, 2, 3], &[1, 2], CheckOptions::default())
            .expect("histogram is 1-DP on this pair");
    }

    #[test]
    fn histogram_runs() {
        let h = noised_histogram::<PureDp, i64>(&parity_bins(), 4, 1);
        let mut src = SeededByteSource::new(3);
        let db: Vec<i64> = (0..100).map(|i| i % 3).collect(); // 34 even-ish
        let out = h.run(&db, &mut src);
        assert_eq!(out.len(), 2);
        // ε = 4 noise is tight; counts land near the truth (67 even: 0,2
        // pattern... exact counts: bin0 has v%2==0, i%3 cycle 0,1,2 ->
        // values 0,1,2: evens are 0 and 2: 67 of 100).
        assert!((out[0] - 67).abs() < 15, "out={out:?}");
        assert!((out[1] - 33).abs() < 15, "out={out:?}");
    }

    #[test]
    fn par_histogram_same_budget_less_noise() {
        // Appendix B: same ε, 1/nBins the noise scale. Compare variances
        // of the analytic per-bin distributions.
        let bins = parity_bins();
        let seq = noised_histogram::<PureDp, i64>(&bins, 1, 1);
        let par = par_noised_histogram::<PureDp, i64>(&bins, 1, 1);
        assert_eq!(seq.gamma(), par.gamma());

        let mut src = SeededByteSource::new(11);
        let db: Vec<i64> = (0..50).collect();
        let n = 3000;
        let spread = |p: &Private<PureDp, i64, Vec<i64>>, src: &mut SeededByteSource| {
            let mut sq = 0f64;
            for _ in 0..n {
                let h = p.run(&db, src);
                let err = (h[0] - 25) as f64;
                sq += err * err;
            }
            sq / n as f64
        };
        let seq_var = spread(&seq, &mut src);
        let par_var = spread(&par, &mut src);
        // Sequential noise scale is 2× (nBins = 2) → variance ≈ 4×.
        assert!(
            seq_var > par_var * 2.0,
            "expected parallel to be much tighter: seq={seq_var} par={par_var}"
        );
    }

    #[test]
    fn par_histogram_prop_checked() {
        let par = par_noised_histogram::<PureDp, i64>(&parity_bins(), 1, 1);
        par.check_pair(&[1, 2, 3], &[1, 2], CheckOptions::default())
            .expect("parallel histogram is 1-DP on this pair");
    }

    #[test]
    fn approx_max_finds_last_heavy_bin() {
        let bins = Bins::new(4, |v: &i64| (*v).clamp(0, 3) as usize);
        let am = approx_max_bin::<PureDp, i64>(&bins, 8, 1, 10);
        assert!((am.gamma() - 8.0).abs() < 1e-12);
        let mut src = SeededByteSource::new(4);
        // 40 rows in bin 2, nothing else heavy.
        let db: Vec<i64> = std::iter::repeat_n(2, 40).chain([0, 1]).collect();
        let got = am.run(&db, &mut src);
        assert_eq!(got, Some(2));
    }

    #[test]
    fn bins_clamp_out_of_range() {
        let bins = Bins::new(3, |v: &i64| *v as usize);
        assert_eq!(bins.bin(&99), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Bins::new(0, |_: &u8| 0);
    }

    /// γ₂·nBins = 2⁶³·3 does not fit a `u64`: construction refuses it by
    /// name instead of wrapping the per-bin denominator (and with it both
    /// the noise and the price).
    #[test]
    #[should_panic(expected = "γ₂·nBins = 9223372036854775808·3 overflows u64")]
    fn noised_histogram_refuses_an_overflowing_denominator() {
        let bins = Bins::new(3, |v: &u8| *v as usize);
        let _ = noised_histogram::<PureDp, u8>(&bins, 1, 1 << 63);
    }

    #[test]
    #[should_panic(expected = "γ₂·nBins = 9223372036854775808·3 overflows u64")]
    fn histogram_request_refuses_an_overflowing_denominator() {
        let bins = Bins::new(3, |v: &u8| *v as usize);
        let _ = histogram_request::<PureDp, u8>(&bins, 1, 1 << 63);
    }
}
