//! Batched serving for mechanism workloads: one noise program, one
//! accountant charge, many answers.
//!
//! The compositional constructions in this crate are built for *proof
//! shape* — [`noised_histogram`](crate::noised_histogram) walks one
//! mechanism per bin (each re-scanning the database), and a workload of
//! `m` queries served one release at a time pays `m` program
//! constructions and `m` accountant charges. This module provides the
//! serving-side equivalents that batch all of it without changing a
//! single released byte:
//!
//! - [`histogram_batch`]: the paper's sequential histogram, computed with
//!   one O(rows) counting pass and one noise program drawn `nBins` times —
//!   byte-stream- and value-identical to
//!   [`noised_histogram`](crate::noised_histogram)`.run` (pinned by
//!   tests), so it is a drop-in serving substitute with the *same* privacy
//!   bound ([`histogram_gamma`]);
//! - [`answer_workload`]: answers a slice of queries with noise drawn from
//!   one program per distinct sensitivity, returning a
//!   [`NoiseBatch`] that charges the ledger once for the whole workload.
//!
//! For serving *repeated* releases of one mechanism (adaptive rounds, load
//! tests), use [`Private::run_batch`](sampcert_core::Private::run_batch)
//! directly — the example on [`NoiseBatch`] shows the pattern.

use crate::histogram::Bins;
use sampcert_core::{DpNoise, Mechanism, NoiseBatch, Query, Request};
use sampcert_slang::{ByteSource, SubPmf};
use std::collections::HashMap;
use std::sync::Arc;

/// A constant-zero query of declared sensitivity `sensitivity`: noising it
/// yields the raw calibrated noise, which the batched paths add to exact
/// answers themselves.
pub(crate) fn noise_only_query<T: 'static>(sensitivity: u64) -> Query<T> {
    Query::new(format!("noise[Δ={sensitivity}]"), sensitivity, |_| 0)
}

/// The privacy bound of [`histogram_batch`] — identical to
/// [`noised_histogram`](crate::noised_histogram)'s:
/// `nBins · noise_priv(γ₁, γ₂·nBins)`.
pub fn histogram_gamma<D: DpNoise>(n_bins: usize, gamma_num: u64, gamma_den: u64) -> f64 {
    D::compose_n(
        D::noise_priv(gamma_num, gamma_den * n_bins as u64),
        n_bins as u64,
    )
}

/// The sequential noised histogram, served through the batched path.
///
/// Computes every exact bin count in **one** pass over the database
/// (`O(rows + nBins)`, where the compositional mechanism scans the
/// database once per bin), builds **one** noise program, and draws the
/// `nBins` noise values through it in the composition's draw order — so
/// the output, and the consumed byte stream, are exactly those of
/// [`noised_histogram`](crate::noised_histogram)`.run(db, src)`, at the
/// same privacy cost [`histogram_gamma`].
///
/// # Panics
///
/// Panics if `gamma_num` or `gamma_den` is zero.
///
/// # Examples
///
/// ```
/// use sampcert_mechanisms::{histogram_batch, histogram_gamma, Bins};
/// use sampcert_core::PureDp;
/// use sampcert_slang::SeededByteSource;
///
/// let bins = Bins::new(4, |age: &u32| (*age as usize) / 25);
/// let ages = vec![23, 35, 47, 61, 74, 88, 19, 42];
/// let mut src = SeededByteSource::new(1);
/// let hist = histogram_batch::<PureDp, u32>(&bins, 1, 1, &ages, &mut src);
/// assert_eq!(hist.len(), 4);
/// assert!((histogram_gamma::<PureDp>(4, 1, 1) - 1.0).abs() < 1e-12);
/// ```
pub fn histogram_batch<D: DpNoise, T: 'static>(
    bins: &Bins<T>,
    gamma_num: u64,
    gamma_den: u64,
    db: &[T],
    src: &mut dyn ByteSource,
) -> Vec<i64> {
    let n = bins.n_bins();
    let mut counts = vec![0i64; n];
    for row in db {
        counts[bins.bin(row)] += 1;
    }
    let noise = D::noise(&noise_only_query::<T>(1), gamma_num, gamma_den * n as u64);
    // The compositional histogram nests bin n−1 outermost, so its noise
    // draws run from the last bin to the first; matching that order keeps
    // the byte streams identical.
    for b in (0..n).rev() {
        counts[b] += noise.run(&[], src);
    }
    counts
}

/// Answers a workload of queries, each noised at
/// `noise_priv(γ₁, γ₂)`-ADP, through one noise program per distinct
/// sensitivity.
///
/// The answers (in workload order) come back as a [`NoiseBatch`] whose
/// per-answer cost is `noise_priv(γ₁, γ₂)`, ready to be charged to a
/// [`Ledger`](sampcert_core::Ledger) or
/// [`RdpAccountant`](sampcert_core::RdpAccountant) in a single call. Value
/// and byte-stream equality with releasing each query separately via
/// [`Private::noised_query`](sampcert_core::Private::noised_query) is
/// pinned by tests.
///
/// # Panics
///
/// Panics if `gamma_num` or `gamma_den` is zero.
pub fn answer_workload<D: DpNoise, T: 'static>(
    queries: &[Query<T>],
    gamma_num: u64,
    gamma_den: u64,
    db: &[T],
    src: &mut dyn ByteSource,
) -> NoiseBatch<D, i64> {
    let mut programs: HashMap<u64, Mechanism<T, i64>> = HashMap::new();
    let mut values = Vec::with_capacity(queries.len());
    for q in queries {
        let noise = programs.entry(q.sensitivity()).or_insert_with(|| {
            D::noise(
                &noise_only_query::<T>(q.sensitivity()),
                gamma_num,
                gamma_den,
            )
        });
        values.push(q.eval(db) + noise.run(&[], src));
    }
    NoiseBatch::new(values, D::noise_priv(gamma_num, gamma_den))
}

/// [`answer_workload`] as a [`Request`] for the
/// [`Session`](sampcert_core::Session) front door: one answer is the
/// whole workload (a `Vec<i64>` in workload order), priced as
/// `queries.len()` sub-releases of `noise_priv(γ₁, γ₂)` — so the exact
/// carrier records the same per-query rounded charge the legacy
/// [`NoiseBatch::charge`] path records.
///
/// The noise programs (one per distinct sensitivity) are built once, at
/// request construction, and reused across every serve; the draw order
/// is workload order, so the released bytes equal a fresh
/// [`answer_workload`] call on the same stream (pinned by
/// `tests/session_api.rs`).
///
/// The request's analytic distribution is **not** assembled (it is the
/// product of the per-answer noise distributions, combinatorially large);
/// it reports as the zero sub-PMF. Check privacy per answer through
/// [`Private::noised_query`](sampcert_core::Private::noised_query) on the
/// individual queries instead.
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
                values.push(q.eval(db) + noise.run(&[], src));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::noised_histogram;
    use sampcert_core::{Ledger, Private, PureDp, Zcdp};
    use sampcert_slang::{CountingByteSource, SeededByteSource};

    fn parity_bins() -> Bins<i64> {
        Bins::new(2, |v: &i64| (*v % 2).unsigned_abs() as usize)
    }

    /// The decisive serving test: the batched histogram is byte-for-byte
    /// the compositional one.
    #[test]
    fn histogram_batch_equals_compositional_run_bytewise() {
        fn check<D: DpNoise>(seed: u64) {
            let bins = Bins::new(5, |v: &i64| (*v % 5).unsigned_abs() as usize);
            let db: Vec<i64> = (0..200).map(|i| (i * 13) % 40).collect();
            let compositional = noised_histogram::<D, i64>(&bins, 2, 1);
            let mut seq_src = CountingByteSource::new(SeededByteSource::new(seed));
            let mut batch_src = CountingByteSource::new(SeededByteSource::new(seed));
            for round in 0..20 {
                let a = compositional.run(&db, &mut seq_src);
                let b = histogram_batch::<D, i64>(&bins, 2, 1, &db, &mut batch_src);
                assert_eq!(a, b, "{} round {round}", D::NAME);
                assert_eq!(
                    seq_src.bytes_read(),
                    batch_src.bytes_read(),
                    "{} round {round}",
                    D::NAME
                );
            }
            assert!(
                (histogram_gamma::<D>(5, 2, 1) - compositional.gamma()).abs() < 1e-12,
                "{}",
                D::NAME
            );
        }
        check::<PureDp>(17);
        check::<Zcdp>(18);
    }

    #[test]
    fn workload_equals_separate_releases_bytewise() {
        // Mixed sensitivities: count (Δ=1), a Δ=3 sum-like query, another count.
        let workload = vec![
            Query::new("count", 1, |db: &[i64]| db.len() as i64),
            Query::new("triple", 3, |db: &[i64]| 3 * db.len() as i64),
            Query::new("count2", 1, |db: &[i64]| db.len() as i64),
        ];
        let db: Vec<i64> = (0..50).collect();

        let mut seq_src = CountingByteSource::new(SeededByteSource::new(5));
        let seq: Vec<i64> = workload
            .iter()
            .map(|q| {
                let p: Private<PureDp, i64, i64> = Private::noised_query(q, 1, 2);
                p.run(&db, &mut seq_src)
            })
            .collect();

        let mut batch_src = CountingByteSource::new(SeededByteSource::new(5));
        let batch = answer_workload::<PureDp, i64>(&workload, 1, 2, &db, &mut batch_src);
        assert_eq!(batch.values(), &seq[..]);
        assert_eq!(batch_src.bytes_read(), seq_src.bytes_read());
        assert!((batch.gamma_each() - 0.5).abs() < 1e-12);
        assert!((batch.gamma_total() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn workload_charges_ledger_once() {
        let workload: Vec<Query<i64>> = (0..10)
            .map(|i| Query::new(format!("q{i}"), 1, |db: &[i64]| db.len() as i64))
            .collect();
        let mut src = SeededByteSource::new(8);
        let batch = answer_workload::<Zcdp, i64>(&workload, 1, 4, &[1, 2, 3], &mut src);
        let mut ledger: Ledger<Zcdp> = Ledger::new(1.0);
        batch.charge(&mut ledger, "workload").unwrap();
        assert_eq!(ledger.entries().len(), 1);
        assert!((ledger.spent() - 10.0 * Zcdp::noise_priv(1, 4)).abs() < 1e-12);
    }

    /// A histogram served through the `Session` front door records the
    /// same exact charge as the per-bin batch charge: per-bin γ converted
    /// (rounded up) first, then composed `nBins`-fold — even when the
    /// per-bin γ is not dyadic and the f64-composed total would round the
    /// other way.
    #[test]
    fn session_histogram_charge_matches_per_bin_batch_charge_exactly() {
        use crate::histogram::histogram_request;
        use sampcert_core::{ExactLedger, Session};

        // 3 bins at γ = 1/3: per-bin ε = 1/9, non-dyadic in every digit.
        let bins = Bins::new(3, |v: &i64| (*v % 3).unsigned_abs() as usize);
        let db: Vec<i64> = (0..20).collect();
        let mut session = Session::<PureDp>::builder()
            .exact()
            .ledger(10.0)
            .inline()
            .seeded(33)
            .build();
        session
            .answer(&histogram_request::<PureDp, i64>(&bins, 1, 3), &db)
            .unwrap();
        let mut reference: ExactLedger<PureDp> = Ledger::new(10.0);
        reference
            .charge_batch("hist", PureDp::noise_priv(1, 9), 3)
            .unwrap();
        assert_eq!(session.accountant().spent_exact(), reference.spent_exact());
    }

    /// Charge-before-serve through the `Session` front door: a refused
    /// histogram draws no entropy, so the next served histogram continues
    /// the `histogram_batch` replay exactly where the last served one
    /// stopped.
    #[test]
    fn session_histogram_refusal_draws_no_entropy() {
        use crate::histogram::histogram_request;
        use sampcert_core::{Dyadic, Session};
        use sampcert_slang::SplitSeed;

        let bins = parity_bins();
        let db: Vec<i64> = (0..30).collect();
        let eps_one = histogram_request::<PureDp, i64>(&bins, 1, 1);
        let eps_half = histogram_request::<PureDp, i64>(&bins, 1, 2);

        // Exact carrier, budget 2.5: two ε = 1 histograms fit, a third is
        // refused, and an ε = ½ histogram then fits exactly.
        let mut session = Session::<PureDp>::builder()
            .exact()
            .ledger(2.5)
            .inline()
            .seeded(21)
            .build();
        let mut replay = SplitSeed::new(21).stream(0);
        for round in 0..2 {
            let got = session.answer(&eps_one, &db).expect("fits");
            let expect = histogram_batch::<PureDp, i64>(&bins, 1, 1, &db, &mut replay);
            assert_eq!(got, expect, "round {round}");
        }
        assert_eq!(session.accountant().spent_exact(), &Dyadic::from(2u64));

        let err = session.answer(&eps_one, &db).unwrap_err();
        let refusal = err.as_budget().expect("budget refusal");
        assert_eq!(refusal.requested, Dyadic::from(1u64));
        assert_eq!(refusal.remaining, Dyadic::from_f64_ceil(0.5));
        assert_eq!(session.accountant().entries().len(), 2);

        let got = session.answer(&eps_half, &db).expect("fits exactly");
        let expect = histogram_batch::<PureDp, i64>(&bins, 1, 2, &db, &mut replay);
        assert_eq!(got, expect, "the refused histogram drew entropy");
        assert_eq!(session.accountant().remaining_exact(), Dyadic::zero());
    }

    #[test]
    fn workload_batch_charges_exact_ledger() {
        use sampcert_core::{Dyadic, ExactLedger};

        let workload: Vec<Query<i64>> = (0..6)
            .map(|i| Query::new(format!("q{i}"), 1, |db: &[i64]| db.len() as i64))
            .collect();
        let mut src = SeededByteSource::new(9);
        // ε = 1/4 per query: dyadic, so the exact meter loses nothing.
        let batch = answer_workload::<PureDp, i64>(&workload, 1, 4, &[1, 2, 3], &mut src);
        let mut ledger: ExactLedger<PureDp> = Ledger::new(1.5);
        batch.charge(&mut ledger, "workload").unwrap();
        assert_eq!(ledger.entries().len(), 1);
        assert_eq!(
            ledger.spent_exact(),
            &Dyadic::try_from_rat(&sampcert_arith::Rat::from_ratio(6, 4)).unwrap()
        );
        // A second identical workload would need another 1.5: refused
        // with the exact deficit reported.
        let err = batch.charge(&mut ledger, "again").unwrap_err();
        assert_eq!(err.remaining, Dyadic::zero());
    }

    #[test]
    fn histogram_batch_counts_exactly_under_zero_noise_scale() {
        // Huge ε ⇒ tiny noise; the counting pass must be exact.
        let bins = parity_bins();
        let db: Vec<i64> = (0..100).collect();
        let mut src = SeededByteSource::new(2);
        let h = histogram_batch::<PureDp, i64>(&bins, 200, 1, &db, &mut src);
        assert_eq!(h, vec![50, 50]);
    }
}
