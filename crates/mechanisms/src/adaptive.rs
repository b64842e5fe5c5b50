//! Adaptive clamping: a private mean for data without a-priori bounds.
//!
//! The paper motivates the private histogram by exactly this workflow
//! (Section 2.3): first use a histogram-derived approximate maximum to
//! learn a clamping bound, *then* compute a clamped mean — with the bound
//! chosen privately, so the whole two-phase release composes under the
//! adaptive composition rule. This module implements that pipeline on top
//! of [`approx_max_bin`] and [`noised_mean`], with the branch budget
//! enforced by [`Private::compose_adaptive`]'s runtime check.

use crate::histogram::{approx_max_bin, Bins};
use crate::queries::noised_mean;
use sampcert_core::{DpNoise, Private};

/// The released payload of an adaptive mean: the noised sum and count,
/// plus the (privately chosen) clamp bound used.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdaptiveMeanRelease {
    /// Noised clamped sum.
    pub sum: i64,
    /// Noised count.
    pub count: i64,
    /// Upper clamp bound chosen by the private histogram phase.
    pub clamp_hi: i64,
}

impl AdaptiveMeanRelease {
    /// The implied mean (count floored at one).
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }
}

/// Power-of-two magnitude bins for nonnegative values: bin `b` holds
/// values in `[2^b, 2^(b+1))` (bin 0 also holds 0 and, defensively,
/// negatives).
pub fn magnitude_bins(n_bins: usize) -> Bins<i64> {
    Bins::new(n_bins, |v: &i64| {
        if *v <= 0 {
            0
        } else {
            (63 - (*v).leading_zeros()) as usize
        }
    })
}

/// A private mean over nonnegative data with **no a-priori upper bound**:
///
/// 1. a private magnitude histogram picks the largest well-populated
///    power-of-two band (`hist_*` budget; bins with fewer than `cutoff`
///    apparent members are ignored — outliers don't inflate the clamp);
/// 2. adaptively, a clamped mean is released with the learned bound
///    (`mean_*` budget, spent twice: sum and count).
///
/// Total budget: `hist + 2·mean`, composed by the abstract rules.
///
/// # Panics
///
/// Panics if any privacy parameter is zero.
pub fn adaptive_mean<D: DpNoise>(
    n_bins: usize,
    cutoff: i64,
    hist_num: u64,
    hist_den: u64,
    mean_num: u64,
    mean_den: u64,
) -> Private<D, i64, AdaptiveMeanRelease> {
    let bins = magnitude_bins(n_bins);
    let pick = approx_max_bin::<D, i64>(&bins, hist_num, hist_den, cutoff);
    let mean_budget = D::compose(
        D::noise_priv(mean_num, mean_den),
        D::noise_priv(mean_num, mean_den),
    );
    pick.compose_adaptive(mean_budget, move |bin| {
        let hi = match bin {
            Some(b) => 1i64 << (b + 1).min(62),
            None => 1,
        };
        noised_mean::<D>(0, hi, mean_num, mean_den).postprocess(move |(sum, count)| {
            AdaptiveMeanRelease {
                sum: *sum,
                count: *count,
                clamp_hi: hi,
            }
        })
    })
    .postprocess(|(_, release)| release.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_core::{PureDp, Zcdp};
    use sampcert_slang::SeededByteSource;

    #[test]
    fn budget_is_hist_plus_two_means() {
        let m = adaptive_mean::<PureDp>(8, 5, 1, 1, 1, 1);
        assert!((m.gamma() - 3.0).abs() < 1e-12); // 1 + 1 + 1
        let z = adaptive_mean::<Zcdp>(8, 5, 1, 1, 1, 1);
        assert!((z.gamma() - (0.5 / 8.0 + 1.0)).abs() < 1e-12); // hist + 2·(1/2)
    }

    #[test]
    fn magnitude_bins_bucket_by_log() {
        let bins = magnitude_bins(8);
        assert_eq!(bins.bin(&0), 0);
        assert_eq!(bins.bin(&1), 0);
        assert_eq!(bins.bin(&2), 1);
        assert_eq!(bins.bin(&3), 1);
        assert_eq!(bins.bin(&4), 2);
        assert_eq!(bins.bin(&255), 7);
        assert_eq!(bins.bin(&10_000), 7); // clamped to last bin
        assert_eq!(bins.bin(&-5), 0);
    }

    #[test]
    fn finds_good_clamp_and_accurate_mean() {
        // Salaries clustered in [40, 120]: the right band is [64, 128).
        let db: Vec<i64> = (0..4_000).map(|i| 40 + (i * 7919) % 80).collect();
        let true_mean = db.iter().sum::<i64>() as f64 / db.len() as f64;
        let m = adaptive_mean::<PureDp>(12, 10, 4, 1, 8, 1); // tight budgets
        let mut src = SeededByteSource::new(31);
        let r = m.run(&db, &mut src);
        assert_eq!(r.clamp_hi, 128, "clamp={}", r.clamp_hi);
        assert!(
            (r.mean() - true_mean).abs() < 3.0,
            "mean {} vs true {true_mean}",
            r.mean()
        );
    }

    #[test]
    fn outliers_do_not_blow_up_the_clamp() {
        // One huge outlier among small values: the cutoff keeps the clamp
        // at the populated band, bounding the outlier's influence.
        let mut db: Vec<i64> = vec![8; 2_000];
        db.push(1 << 40);
        let m = adaptive_mean::<PureDp>(30, 20, 4, 1, 8, 1);
        let mut src = SeededByteSource::new(33);
        let r = m.run(&db, &mut src);
        assert!(r.clamp_hi <= 16, "outlier inflated clamp to {}", r.clamp_hi);
        assert!((r.mean() - 8.0).abs() < 1.0, "mean={}", r.mean());
    }

    /// Serving repeated adaptive releases through the batched path: one
    /// `answer_many` is one exact ledger entry, and releases what
    /// sequential runs release from the same stream.
    #[test]
    fn adaptive_rounds_serve_through_batched_path() {
        use sampcert_core::{Dyadic, Request, Session};
        use sampcert_slang::SplitSeed;
        let db: Vec<i64> = (0..500).map(|i| 40 + (i * 31) % 80).collect();
        let m = adaptive_mean::<PureDp>(12, 10, 4, 1, 8, 1);
        assert_eq!(m.gamma(), 20.0); // 4 + 8 + 8

        let mut replay = SplitSeed::new(41).stream(0);
        let seq: Vec<_> = (0..16).map(|_| m.run(&db, &mut replay)).collect();
        let mut session = Session::<PureDp>::builder()
            .ledger(400.0)
            .inline()
            .seeded(41)
            .build();
        let served = session
            .answer_many(&Request::from_private(&m, "adaptive-rounds"), &db, 16)
            .unwrap();
        assert_eq!(served, seq);
        assert_eq!(session.accountant().entries().len(), 1);
        assert_eq!(session.accountant().spent_exact(), &Dyadic::from(320u64));
    }

    #[test]
    fn empty_database_degrades_gracefully() {
        let m = adaptive_mean::<PureDp>(8, 10, 8, 1, 8, 1);
        let mut src = SeededByteSource::new(35);
        let r = m.run(&[], &mut src);
        assert_eq!(r.clamp_hi, 1); // no populated band found
    }
}
