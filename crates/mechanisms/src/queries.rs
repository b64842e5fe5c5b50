//! Noised scalar statistics: count, bounded sum, mean, and a workload of
//! arbitrary queries.
//!
//! These are the paper's bread-and-butter mechanisms ("count, sum, mean,
//! histogram, SVT, …" in Fig. 1's mechanism library), built purely from
//! the abstract interface: a noised count and a noised clamped sum are
//! base-case noise applications; the mean is their sequential composition
//! postprocessed by division — privacy accounting for all of it falls out
//! of the typed combinators, for any [`DpNoise`] instance.

use sampcert_core::{bounded_sum_query, count_query, DpNoise, Mechanism, Private, Query, Request};
use sampcert_slang::{ByteSource, SubPmf};
use std::collections::HashMap;
use std::sync::Arc;

/// A constant-zero query of declared sensitivity `sensitivity`: noising it
/// yields the raw calibrated noise, which the request constructors add to
/// exact answers themselves.
pub(crate) fn noise_only_query<T: 'static>(sensitivity: u64) -> Query<T> {
    Query::new(format!("noise[Δ={sensitivity}]"), sensitivity, |_| 0)
}

/// `value` plus a draw of a [`noise_only_query`] mechanism, by the rule
/// the noised-query mechanisms of `sampcert-core` release with: a draw at
/// either end of `i64` is saturated noise and the result takes that end,
/// any other draw is added with `saturating_add`. The single-pass request
/// samplers add this way so they release exactly what the compositional
/// mechanisms they are pinned to release.
pub(crate) fn add_noise(value: i64, noise: i64) -> i64 {
    if noise == i64::MIN || noise == i64::MAX {
        noise
    } else {
        value.saturating_add(noise)
    }
}

/// A noised count of the rows, at `noise_priv(γ₁, γ₂)`-ADP.
///
/// # Examples
///
/// ```
/// use sampcert_mechanisms::noised_count;
/// use sampcert_core::PureDp;
/// use sampcert_slang::SeededByteSource;
///
/// let m = noised_count::<PureDp, u32>(1, 1); // ε = 1
/// let mut src = SeededByteSource::new(0);
/// let _approx_len = m.run(&[10, 20, 30], &mut src);
/// ```
pub fn noised_count<D: DpNoise, T: 'static>(gamma_num: u64, gamma_den: u64) -> Private<D, T, i64> {
    Private::noised_query(&count_query(), gamma_num, gamma_den)
}

/// A noised sum with per-row clamping to `[lo, hi]`, at
/// `noise_priv(γ₁, γ₂)`-ADP. The noise is calibrated to the clamp-derived
/// sensitivity `max(|lo|, |hi|)`.
pub fn noised_bounded_sum<D: DpNoise>(
    lo: i64,
    hi: i64,
    gamma_num: u64,
    gamma_den: u64,
) -> Private<D, i64, i64> {
    Private::noised_query(&bounded_sum_query(lo, hi), gamma_num, gamma_den)
}

/// A noised mean of clamped values: releases `(noised sum, noised count)`
/// — postprocess with [`mean_of`] for the quotient. Sequential
/// composition: the total budget is `compose(noise_priv(γ₁, γ₂),
/// noise_priv(γ₁, γ₂))`, i.e. each of sum and count gets the given slice.
///
/// Releasing the raw pair rather than the quotient keeps the output
/// countable and lets consumers re-derive confidence information — the
/// same shape SampCert's mean mechanism produces before postprocessing.
pub fn noised_mean<D: DpNoise>(
    lo: i64,
    hi: i64,
    gamma_num: u64,
    gamma_den: u64,
) -> Private<D, i64, (i64, i64)> {
    noised_bounded_sum::<D>(lo, hi, gamma_num, gamma_den)
        .compose(&noised_count::<D, i64>(gamma_num, gamma_den))
}

/// [`noised_count`] as a [`Request`] for the
/// [`Session`](sampcert_core::Session) front door: each answer is one
/// noised count at `noise_priv(γ₁, γ₂)`.
///
/// # Examples
///
/// ```
/// use sampcert_core::{PureDp, Session};
/// use sampcert_mechanisms::count_request;
///
/// let mut session = Session::<PureDp>::builder()
///     .ledger(1.0)
///     .inline()
///     .seeded(0)
///     .build();
/// let req = count_request::<PureDp, u32>(1, 2); // ε = 1/2 per answer
/// let n = session.answer(&req, &[10, 20, 30]).unwrap();
/// assert!((n - 3).abs() < 40);
/// ```
pub fn count_request<D: DpNoise, T: 'static>(gamma_num: u64, gamma_den: u64) -> Request<D, T, i64> {
    Request::from_private(&noised_count::<D, T>(gamma_num, gamma_den), "noised-count")
}

/// [`noised_mean`] as a [`Request`] for the
/// [`Session`](sampcert_core::Session) front door: each answer is a
/// `(noised sum, noised count)` pair (postprocess with [`mean_of`]),
/// costing the composition of both slices.
pub fn mean_request<D: DpNoise>(
    lo: i64,
    hi: i64,
    gamma_num: u64,
    gamma_den: u64,
) -> Request<D, i64, (i64, i64)> {
    Request::from_private(
        &noised_mean::<D>(lo, hi, gamma_num, gamma_den),
        "noised-mean",
    )
}

/// A workload of queries as a [`Request`] for the
/// [`Session`](sampcert_core::Session) front door: one answer is the
/// whole workload (a `Vec<i64>` in workload order), each query noised at
/// `noise_priv(γ₁, γ₂)` and priced as one of `queries.len()`
/// sub-releases, so the exact carrier rounds the per-query cost before
/// composing it.
///
/// The noise programs (one per distinct sensitivity) are built once, at
/// request construction, and reused across every serve. The draw order
/// is workload order, so the released values, and the bytes consumed,
/// equal releasing each query through
/// [`Private::noised_query`]`(q, γ₁, γ₂).run` on the same stream.
///
/// The request's analytic distribution is **not** assembled (it is the
/// product of the per-answer noise distributions, combinatorially large);
/// it reports as the zero sub-PMF. Check privacy per answer through
/// [`Private::noised_query`] on the individual queries instead.
///
/// # Panics
///
/// Panics if `gamma_num` or `gamma_den` is zero.
pub fn workload_request<D: DpNoise, T: 'static>(
    queries: &[Query<T>],
    gamma_num: u64,
    gamma_den: u64,
) -> Request<D, T, Vec<i64>> {
    let mut programs: HashMap<u64, Mechanism<T, i64>> = HashMap::new();
    for q in queries {
        programs.entry(q.sensitivity()).or_insert_with(|| {
            D::noise(
                &noise_only_query::<T>(q.sensitivity()),
                gamma_num,
                gamma_den,
            )
        });
    }
    let queries: Arc<Vec<Query<T>>> = Arc::new(queries.to_vec());
    let units = queries.len() as u64;
    let mech = Mechanism::from_parts(
        move |db: &[T], src: &mut dyn ByteSource| {
            let mut values = Vec::with_capacity(queries.len());
            for q in queries.iter() {
                let noise = &programs[&q.sensitivity()];
                values.push(add_noise(q.eval(db), noise.run(&[], src)));
            }
            values
        },
        |_| SubPmf::zero(),
    );
    Request::composite(
        mech,
        D::noise_priv(gamma_num, gamma_den),
        units,
        format!("workload[{units} queries]"),
    )
}

/// The mean implied by a `(sum, count)` release, with the count floored at
/// one (a noised count can be nonpositive on tiny databases).
pub fn mean_of(release: &(i64, i64)) -> f64 {
    release.0 as f64 / (release.1.max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_core::{CheckOptions, Dyadic, PureDp, Session, Zcdp};
    use sampcert_slang::{CountingByteSource, SeededByteSource};

    #[test]
    fn count_budget_and_privacy() {
        let m = noised_count::<PureDp, u8>(1, 2);
        assert_eq!(m.gamma(), 0.5);
        m.check_pair(&[1, 2, 3], &[1, 2], CheckOptions::default())
            .expect("noised count is ε/2-DP");
    }

    #[test]
    fn sum_clamps_and_checks() {
        let m = noised_bounded_sum::<PureDp>(0, 8, 1, 1);
        // Sensitivity is 8, so the ε = 1 noise is 8× wider; still 1-DP
        // even when a row is far outside the clamp.
        m.check_pair(&[3, 100, -50], &[3, 100], CheckOptions::default())
            .expect("clamped sum is 1-DP");
    }

    #[test]
    fn mean_composes_budgets() {
        let m = noised_mean::<PureDp>(0, 10, 1, 2);
        assert_eq!(m.gamma(), 1.0); // 1/2 + 1/2
        let m2 = noised_mean::<Zcdp>(0, 10, 1, 2);
        assert_eq!(m2.gamma(), 0.25); // 1/8 + 1/8
    }

    #[test]
    fn mean_is_accurate_with_tight_noise() {
        let m = noised_mean::<PureDp>(0, 10, 20, 1); // very tight ε = 40
        let db: Vec<i64> = (0..200).map(|i| i % 11).collect(); // mean = 5
        let mut src = SeededByteSource::new(13);
        let rel = m.run(&db, &mut src);
        let mean = mean_of(&rel);
        assert!((mean - 5.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn mean_of_handles_degenerate_count() {
        assert_eq!(mean_of(&(10, 0)), 10.0);
        assert_eq!(mean_of(&(10, -3)), 10.0);
        assert_eq!(mean_of(&(9, 3)), 3.0);
    }

    /// A workload request releases what the queries release one at a time
    /// through `Private::noised_query`, from the same stream: same values,
    /// same bytes consumed, same price.
    #[test]
    fn workload_request_equals_separate_releases_bytewise() {
        fn check<D: DpNoise>(seed: u64) {
            // Mixed sensitivities: count (Δ=1), a Δ=3 query, another count.
            let workload = vec![
                Query::new("count", 1, |db: &[i64]| db.len() as i64),
                Query::new("triple", 3, |db: &[i64]| 3 * db.len() as i64),
                Query::new("count2", 1, |db: &[i64]| db.len() as i64),
            ];
            let db: Vec<i64> = (0..50).collect();
            let separate: Vec<Private<D, i64, i64>> = workload
                .iter()
                .map(|q| Private::noised_query(q, 1, 2))
                .collect();
            let req = workload_request::<D, i64>(&workload, 1, 2);

            let mut seq_src = CountingByteSource::new(SeededByteSource::new(seed));
            let mut req_src = CountingByteSource::new(SeededByteSource::new(seed));
            for round in 0..10 {
                let seq: Vec<i64> = separate.iter().map(|p| p.run(&db, &mut seq_src)).collect();
                let got = req.mechanism().run(&db, &mut req_src);
                assert_eq!(got, seq, "{} round {round}", D::NAME);
                assert_eq!(
                    req_src.bytes_read(),
                    seq_src.bytes_read(),
                    "{} round {round}",
                    D::NAME
                );
            }
            assert_eq!(req.gamma_unit(), separate[0].gamma(), "{}", D::NAME);
            assert_eq!(req.units(), 3);
        }
        check::<PureDp>(5);
        check::<Zcdp>(6);
    }

    /// A served workload is one exact ledger entry of `queries.len()` ×
    /// the per-query cost; an identical second workload that no longer
    /// fits is refused with the exact deficit.
    #[test]
    fn session_workload_charges_exact_ledger_once() {
        let workload: Vec<Query<i64>> = (0..6)
            .map(|i| Query::new(format!("q{i}"), 1, |db: &[i64]| db.len() as i64))
            .collect();
        // ε = 1/4 per query: dyadic, so the exact meter loses nothing.
        let req = workload_request::<PureDp, i64>(&workload, 1, 4);
        let mut session = Session::<PureDp>::builder()
            .ledger(1.5)
            .inline()
            .seeded(9)
            .build();
        session.answer(&req, &[1, 2, 3]).unwrap();
        assert_eq!(session.accountant().entries().len(), 1);
        assert_eq!(
            session.accountant().spent_exact(),
            &Dyadic::try_from_rat(&sampcert_arith::Rat::from_ratio(6, 4)).unwrap()
        );
        let err = session.answer(&req, &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err.as_budget().expect("budget refusal").remaining,
            Dyadic::zero()
        );
        assert_eq!(session.accountant().entries().len(), 1);
    }
}
