//! The Sparse Vector Technique (paper Appendix A, Listings 13–16).
//!
//! `AboveThreshold` (Dwork–Roth Algorithm 1) releases the index of the
//! first sensitivity-1 query in a stream whose value exceeds a noised
//! threshold, at privacy cost `ε` **independent of how many queries were
//! inspected** — the property that makes SVT asymptotically better than a
//! histogram for approximate maxima. As in the paper:
//!
//! - the threshold is noised once with `Lap(2/ε)` (`privNoiseThresh`), and
//!   every query with fresh `Lap(4/ε)` (`privNoiseGuess`);
//! - SVT is **not** derivable from the abstract composition interface —
//!   its bound enters through [`Private::from_asserted`], the counterpart
//!   of the paper's direct pure-DP proof for `sv1_aboveThresh` — and the
//!   bound is then *checked* by the divergence machinery on concrete
//!   neighbour pairs (this module's tests and `tests/svt_privacy.rs`);
//! - the multi-release [`sparse`] (Listing 15) *is* built from the
//!   abstract interface: adaptive composition of `AboveThreshold` runs on
//!   shifted query streams, giving `(c·ε)` by `privSparseAux_DP`'s
//!   induction (Listing 16);
//! - termination follows the paper's `has_lucky` recipe (footnote 7): the
//!   finite query list is extended by an implicit always-fires sentinel,
//!   so the loop is almost-surely (here: surely) terminating, and the
//!   sentinel index `queries.len()` means "no query exceeded".

use sampcert_arith::Nat;
use sampcert_core::{Mechanism, Private, PureDp, Query};
use sampcert_samplers::pmf::{laplace_cdf, laplace_pmf, laplace_radius};
use sampcert_samplers::{DiscreteSampler, LaplaceAlg};
use sampcert_slang::SubPmf;
use std::sync::Arc;

/// Parameters of one AboveThreshold release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvtParams {
    /// The public threshold `T`.
    pub threshold: i64,
    /// Privacy numerator ε₁ (the release is `(ε₁/ε₂)`-DP).
    pub eps_num: u64,
    /// Privacy denominator ε₂.
    pub eps_den: u64,
}

impl SvtParams {
    /// The privacy parameter ε = ε₁/ε₂ as a float (reporting only; the
    /// noise itself is calibrated from the rationals).
    pub fn eps(&self) -> f64 {
        self.eps_num as f64 / self.eps_den as f64
    }

    /// Threshold-noise scale `2/ε` as `(num, den)`.
    fn tau_scale(&self) -> (u64, u64) {
        (2 * self.eps_den, self.eps_num)
    }

    /// Per-query noise scale `4/ε` as `(num, den)`.
    fn guess_scale(&self) -> (u64, u64) {
        (4 * self.eps_den, self.eps_num)
    }
}

/// The exact output distribution of AboveThreshold for the given exact
/// query values: `P(k) = Σ_τ Lap_{2/ε}(τ) · Π_{i<k} F(τ+T−qᵢ−1) ·
/// (1 − F(τ+T−q_k−1))`, with `F` the `Lap(4/ε)` CDF — the Dwork–Roth
/// `g_k` decomposition (the paper's `sv9` form) evaluated numerically.
fn above_threshold_dist(values: &[i64], params: SvtParams) -> SubPmf<u64, f64> {
    let (tn, td) = params.tau_scale();
    let (gn, gd) = params.guess_scale();
    let tau_scale = tn as f64 / td as f64;
    let guess_scale = gn as f64 / gd as f64;
    let radius = laplace_radius(tau_scale);
    let n = values.len();
    let mut out: SubPmf<u64, f64> = SubPmf::zero();
    for tau in -radius..=radius {
        let w_tau = laplace_pmf(tau_scale, tau);
        // continue probability for query i at this tau.
        let cont =
            |i: usize| -> f64 { laplace_cdf(guess_scale, tau + params.threshold - values[i] - 1) };
        let mut survive = 1.0f64;
        for (k, _) in values.iter().enumerate() {
            let c = cont(k);
            out.add_mass(k as u64, w_tau * survive * (1.0 - c));
            survive *= c;
            if survive < 1e-18 {
                break;
            }
        }
        // Sentinel: none of the n queries fired.
        out.add_mass(n as u64, w_tau * survive);
    }
    out
}

/// `sv1_aboveThresh` (Listing 13): the index of the first query whose
/// noised value meets the noised threshold, or `queries.len()` if none
/// does. `(ε₁/ε₂)`-pure-DP for sensitivity-1 queries, regardless of the
/// number of queries.
///
/// # Panics
///
/// Panics if `eps_num`/`eps_den` is zero, or if any query claims
/// sensitivity above 1 (the Dwork–Roth analysis is for sensitivity-1
/// streams; rescale queries first).
pub fn above_threshold<T: 'static>(
    queries: &[Query<T>],
    params: SvtParams,
) -> Private<PureDp, T, u64> {
    assert!(
        params.eps_num > 0 && params.eps_den > 0,
        "zero privacy parameter"
    );
    for q in queries {
        assert!(
            q.sensitivity() == 1,
            "above_threshold requires sensitivity-1 queries (got {} for `{}`)",
            q.sensitivity(),
            q.name()
        );
    }
    let queries: Arc<Vec<Query<T>>> = Arc::new(queries.to_vec());
    let queries2 = Arc::clone(&queries);
    let (tn, td) = params.tau_scale();
    let (gn, gd) = params.guess_scale();
    let tau_sampler =
        DiscreteSampler::laplace(&Nat::from(tn), &Nat::from(td), LaplaceAlg::Switched);
    let guess_sampler =
        DiscreteSampler::laplace(&Nat::from(gn), &Nat::from(gd), LaplaceAlg::Switched);

    let mech = Mechanism::from_parts(
        move |db, src| {
            let tau = tau_sampler.sample(src);
            for (k, q) in queries.iter().enumerate() {
                let guess = guess_sampler.sample(src);
                if q.eval(db) + guess >= tau + params.threshold {
                    return k as u64;
                }
            }
            queries.len() as u64
        },
        move |db| {
            let values: Vec<i64> = queries2.iter().map(|q| q.eval(db)).collect();
            above_threshold_dist(&values, params)
        },
    );
    Private::from_asserted(
        mech,
        params.eps(),
        "Dwork–Roth Thm 3.23 / paper Appendix A.1: AboveThreshold with \
         Lap(2/eps) threshold noise and Lap(4/eps) query noise is eps-DP",
    )
}

/// [`above_threshold`] as a [`Request`](sampcert_core::Request) for the
/// [`Session`](sampcert_core::Session) front door: one answer is one
/// AboveThreshold release (the firing index, or `queries.len()` for the
/// sentinel), priced at `ε = ε₁/ε₂` regardless of the stream length —
/// SVT's defining property, now metered by whichever accountant the
/// session was built with.
///
/// # Panics
///
/// As [`above_threshold`]: zero privacy parameters or a query of
/// sensitivity above 1.
pub fn svt_request<T: 'static>(
    queries: &[Query<T>],
    params: SvtParams,
) -> sampcert_core::Request<PureDp, T, u64> {
    sampcert_core::Request::from_private(
        &above_threshold(queries, params),
        format!("svt-above-threshold[{} queries]", queries.len()),
    )
}

/// `privSparse` (Listing 15): release the indices of the first `c` queries
/// exceeding the threshold, by adaptively re-running [`above_threshold`]
/// on the remaining stream. `(c·ε)`-DP by the abstract induction of
/// Listing 16 — built here from `compose_adaptive` + `postprocess` alone.
pub fn sparse<T: 'static>(
    queries: &[Query<T>],
    params: SvtParams,
    c: usize,
) -> Private<PureDp, T, Vec<u64>> {
    sparse_aux(Arc::new(queries.to_vec()), 0, params, c)
}

fn sparse_aux<T: 'static>(
    queries: Arc<Vec<Query<T>>>,
    offset: usize,
    params: SvtParams,
    c: usize,
) -> Private<PureDp, T, Vec<u64>> {
    if c == 0 || offset >= queries.len() {
        return Private::constant(Vec::new());
    }
    let head = above_threshold(&queries[offset..], params);
    let rest_budget = ((c - 1) * params.eps_num as usize) as f64 / params.eps_den as f64;
    let queries2 = Arc::clone(&queries);
    head.compose_adaptive(rest_budget, move |&k| {
        let next_offset = offset + k as usize + 1;
        sparse_aux(Arc::clone(&queries2), next_offset, params, c - 1).weaken(rest_budget)
    })
    .postprocess(move |(k, rest)| {
        // The sentinel ("nothing fired") ends the release.
        if offset + *k as usize >= queries.len() {
            return Vec::new();
        }
        let mut out = vec![offset as u64 + k];
        out.extend(rest.iter().copied());
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_core::CheckOptions;
    use sampcert_slang::SeededByteSource;

    /// Sensitivity-1 queries: count of rows above a per-query cutoff.
    fn cutoff_queries(cutoffs: &[i64]) -> Vec<Query<i64>> {
        cutoffs
            .iter()
            .map(|&c| {
                Query::new(format!("count>{c}"), 1, move |db: &[i64]| {
                    db.iter().filter(|v| **v > c).count() as i64
                })
            })
            .collect()
    }

    fn params(eps_num: u64, eps_den: u64, threshold: i64) -> SvtParams {
        SvtParams {
            threshold,
            eps_num,
            eps_den,
        }
    }

    #[test]
    fn dist_normalizes_and_finds_heavy_query() {
        // Query 1 is far above the threshold; it should fire with high
        // probability.
        let d = above_threshold_dist(&[0, 50, 0], params(2, 1, 10));
        assert!(
            (d.total_mass() - 1.0).abs() < 1e-9,
            "mass={}",
            d.total_mass()
        );
        assert!(d.mass(&1) > 0.9, "P(1)={}", d.mass(&1));
    }

    #[test]
    fn dist_sentinel_when_all_low() {
        let d = above_threshold_dist(&[0, 0], params(2, 1, 100));
        assert!(d.mass(&2) > 0.99, "P(sentinel)={}", d.mass(&2));
    }

    #[test]
    fn executable_matches_analytic() {
        let qs = cutoff_queries(&[100, 5, 0]);
        let db: Vec<i64> = (0..30).collect(); // q0=0... wait: values: >100:0, >5:24, >0:29
        let p = above_threshold(&qs, params(1, 1, 15));
        let analytic = p.dist(&db);
        let mut src = SeededByteSource::new(42);
        let n = 20_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[p.run(&db, &mut src) as usize] += 1;
        }
        for k in 0u64..4 {
            let emp = counts[k as usize] as f64 / n as f64;
            let ana = analytic.mass(&k);
            assert!(
                (emp - ana).abs() < 0.02,
                "k={k}: empirical {emp} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn above_threshold_is_eps_dp_on_neighbours() {
        let qs = cutoff_queries(&[3, 8]);
        let p = above_threshold(&qs, params(1, 1, 4));
        let db: Vec<i64> = (0..10).collect();
        let smaller: Vec<i64> = (1..10).collect();
        p.check_pair(&db, &smaller, CheckOptions::default())
            .expect("AboveThreshold is 1-DP on this pair");
    }

    #[test]
    fn privacy_independent_of_stream_length() {
        // 12 queries, same ε as 2 queries — the whole point of SVT.
        let qs = cutoff_queries(&(0..12).map(|i| i * 2).collect::<Vec<_>>());
        let p = above_threshold(&qs, params(1, 1, 6));
        assert_eq!(p.gamma(), 1.0);
        let db: Vec<i64> = (0..14).collect();
        let smaller: Vec<i64> = (1..14).collect();
        p.check_pair(&db, &smaller, CheckOptions::default())
            .expect("12-query AboveThreshold is still 1-DP");
    }

    #[test]
    fn sparse_budget_is_c_times_eps() {
        let qs = cutoff_queries(&[0, 2, 4, 6]);
        let s = sparse(&qs, params(1, 2, 3), 3);
        assert!((s.gamma() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_returns_increasing_indices() {
        let qs = cutoff_queries(&[100, 0, 100, 1, 100]);
        let s = sparse(&qs, params(4, 1, 10), 2);
        let db: Vec<i64> = (0..40).collect();
        let mut src = SeededByteSource::new(9);
        for _ in 0..50 {
            let out = s.run(&db, &mut src);
            assert!(out.len() <= 2);
            for w in out.windows(2) {
                assert!(w[0] < w[1], "indices must increase: {out:?}");
            }
        }
    }

    #[test]
    fn sparse_usually_finds_the_heavy_queries() {
        // Queries 1 and 3 are heavy (~39 and ~38 rows above cutoff vs
        // threshold 10); with tight noise they fire almost always.
        let qs = cutoff_queries(&[100, 0, 100, 1, 100]);
        let s = sparse(&qs, params(8, 1, 10), 2);
        let db: Vec<i64> = (0..40).collect();
        let mut src = SeededByteSource::new(10);
        let mut hits = 0;
        let n = 200;
        for _ in 0..n {
            if s.run(&db, &mut src) == vec![1, 3] {
                hits += 1;
            }
        }
        assert!(hits > n * 8 / 10, "hits={hits}/{n}");
    }

    #[test]
    fn sparse_privacy_checked() {
        let qs = cutoff_queries(&[2, 5]);
        let s = sparse(&qs, params(1, 1, 4), 2);
        let db: Vec<i64> = (0..8).collect();
        let smaller: Vec<i64> = (1..8).collect();
        s.check_pair(&db, &smaller, CheckOptions::default())
            .expect("sparse(2) is 2-DP on this pair");
    }

    #[test]
    #[should_panic(expected = "sensitivity-1")]
    fn rejects_high_sensitivity_queries() {
        let q = Query::new("sum", 5, |db: &[i64]| db.iter().sum());
        let _ = above_threshold(&[q], params(1, 1, 0));
    }
}
