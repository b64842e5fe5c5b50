//! Budget-typed private mechanisms: the composition axioms as the only
//! construction interface.
//!
//! In Lean, the `AbstractDP` properties are lemmas composed into proofs.
//! In Rust, [`Private<D, T, U>`] makes them *smart constructors*: the only
//! ways to build a `Private` value are
//!
//! - base cases whose bounds are established by the noise instances
//!   ([`Private::noised_query`]) or trivially ([`Private::constant`]),
//! - the axiom combinators (`compose_adaptive`, `postprocess`,
//!   `par_compose`, `weaken` — each computing the composed parameter
//!   exactly as `AbstractDP` prescribes), and
//! - an explicit, named escape hatch ([`Private::from_asserted`]) for
//!   mechanisms proven outside the abstract system, mirroring the paper's
//!   treatment of the sparse vector technique (Section 2.6, Appendix A).
//!
//! A `Private` value additionally supports *checking* its claimed bound on
//! concrete neighbouring databases via the instance divergence —
//! [`Private::check_pair`] — which is how this reproduction discharges the
//! base-case obligations the paper proves once and for all.

use crate::abstract_dp::AbstractDp;
use crate::batch::NoiseBatch;
use crate::mechanism::Mechanism;
use crate::neighbour::{is_neighbour, neighbours};
use crate::noise::DpNoise;
use crate::query::Query;
use sampcert_slang::{ByteSource, SubPmf, Value};
use std::marker::PhantomData;

/// A mechanism carrying a privacy bound `γ` under notion `D`, constructed
/// only through privacy-preserving operations.
///
/// # Examples
///
/// ```
/// use sampcert_core::{count_query, Private, PureDp};
/// use sampcert_slang::SeededByteSource;
///
/// // An ε = 1/2 noised count, composed with an ε = 1/2 noised count:
/// // ε = 1 total, tracked in the type's value.
/// let count = count_query::<u32>();
/// let once: Private<PureDp, u32, i64> = Private::noised_query(&count, 1, 2);
/// let twice = once.compose(&Private::noised_query(&count, 1, 2));
/// assert!((twice.gamma() - 1.0).abs() < 1e-12);
///
/// let mut src = SeededByteSource::new(0);
/// let (a, b) = twice.run(&[1, 2, 3], &mut src);
/// let _ = (a, b);
/// ```
pub struct Private<D: AbstractDp, T, U: Value> {
    mech: Mechanism<T, U>,
    gamma: f64,
    _notion: PhantomData<D>,
}

impl<D: AbstractDp, T, U: Value> Clone for Private<D, T, U> {
    fn clone(&self) -> Self {
        Private {
            mech: self.mech.clone(),
            gamma: self.gamma,
            _notion: PhantomData,
        }
    }
}

impl<D: AbstractDp, T, U: Value> std::fmt::Debug for Private<D, T, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Private<{}>(gamma = {})", D::NAME, self.gamma)
    }
}

impl<D: AbstractDp, T: 'static, U: Value> Private<D, T, U> {
    /// `const_prop`: a constant mechanism is 0-ADP.
    pub fn constant(u: U) -> Self {
        Private {
            mech: Mechanism::constant(u),
            gamma: 0.0,
            _notion: PhantomData,
        }
    }

    /// Escape hatch for mechanisms whose privacy is established outside
    /// the abstract system (the paper's SVT route, Section 2.6). The
    /// `justification` string names the external argument; the bound is
    /// still subject to [`check_pair`](Self::check_pair).
    pub fn from_asserted(mech: Mechanism<T, U>, gamma: f64, justification: &str) -> Self {
        assert!(
            gamma.is_finite() && gamma >= 0.0,
            "invalid privacy parameter"
        );
        assert!(
            !justification.is_empty(),
            "asserted privacy requires a justification"
        );
        Private {
            mech,
            gamma,
            _notion: PhantomData,
        }
    }

    /// The claimed privacy parameter γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The underlying mechanism.
    pub fn mechanism(&self) -> &Mechanism<T, U> {
        &self.mech
    }

    /// Draws one output for `db`.
    pub fn run(&self, db: &[T], src: &mut dyn ByteSource) -> U {
        self.mech.run(db, src)
    }

    /// Draws `n` independent outputs for `db`, appending them to `out`
    /// (see [`Mechanism::run_many_into`] for the batching contract).
    ///
    /// Each draw is a separate γ-costing release; prefer
    /// [`run_batch`](Self::run_batch), which keeps the cost attached.
    pub fn run_many_into(&self, db: &[T], n: usize, src: &mut dyn ByteSource, out: &mut Vec<U>) {
        self.mech.run_many_into(db, n, src, out);
    }

    /// Draws `n` independent outputs for `db`.
    pub fn run_many(&self, db: &[T], n: usize, src: &mut dyn ByteSource) -> Vec<U> {
        self.mech.run_many(db, n, src)
    }

    /// Draws `n` independent outputs for `db` as a [`NoiseBatch`]: the
    /// answers together with this mechanism's per-answer γ, ready to be
    /// charged to a ledger or accountant in O(1).
    pub fn run_batch(&self, db: &[T], n: usize, src: &mut dyn ByteSource) -> NoiseBatch<D, U> {
        NoiseBatch::new(self.mech.run_many(db, n, src), self.gamma)
    }

    /// The analytic output distribution for `db`.
    pub fn dist(&self, db: &[T]) -> SubPmf<U, f64> {
        self.mech.dist(db)
    }

    /// `prop_mono`: a γ-ADP mechanism is γ′-ADP for any γ′ ≥ γ.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is below the current bound.
    pub fn weaken(self, gamma: f64) -> Self {
        assert!(
            gamma >= self.gamma,
            "weaken: {gamma} is below the established bound {}",
            self.gamma
        );
        Private { gamma, ..self }
    }

    /// `postprocess_prop`: database-independent postprocessing is free.
    pub fn postprocess<V: Value>(
        &self,
        f: impl Fn(&U) -> V + Send + Sync + 'static,
    ) -> Private<D, T, V> {
        Private {
            mech: self.mech.postprocess(f),
            gamma: self.gamma,
            _notion: PhantomData,
        }
    }

    /// `adaptive_compose_prop`: adaptive sequential composition. The
    /// follow-up mechanism may depend on the first output but must respect
    /// the declared budget `gamma2` for **every** branch (the paper's
    /// `∀ u, prop (m₂ u) γ₂` side condition) — enforced at branch
    /// construction time by a runtime check.
    ///
    /// # Panics
    ///
    /// The composed mechanism panics (at run/analysis time) if some branch
    /// exceeds `gamma2`.
    pub fn compose_adaptive<V: Value>(
        &self,
        gamma2: f64,
        next: impl Fn(&U) -> Private<D, T, V> + Send + Sync + 'static,
    ) -> Private<D, T, (U, V)> {
        let mech = self.mech.compose_adaptive(move |u| {
            let p = next(u);
            assert!(
                p.gamma() <= gamma2 + 1e-12,
                "adaptive branch exceeds its declared budget: {} > {gamma2}",
                p.gamma()
            );
            p.mech
        });
        Private {
            mech,
            gamma: D::compose(self.gamma, gamma2),
            _notion: PhantomData,
        }
    }

    /// Non-adaptive sequential composition: `γ = γ₁ + γ₂`.
    pub fn compose<V: Value>(&self, other: &Private<D, T, V>) -> Private<D, T, (U, V)> {
        Private {
            mech: self.mech.compose(&other.mech),
            gamma: D::compose(self.gamma, other.gamma),
            _notion: PhantomData,
        }
    }
}

impl<D: AbstractDp, T: Clone + 'static, U: Value> Private<D, T, U> {
    /// `prop_par` (Appendix B): parallel composition over a partition of
    /// the database costs `max(γ₁, γ₂)`.
    pub fn par_compose<V: Value>(
        &self,
        other: &Private<D, T, V>,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
    ) -> Private<D, T, (U, V)> {
        Private {
            mech: self.mech.par_compose(&other.mech, pred),
            gamma: D::par_compose(self.gamma, other.gamma),
            _notion: PhantomData,
        }
    }
}

impl<D: DpNoise, T: 'static> Private<D, T, i64> {
    /// `noise_prop` (Listing 3): a noised Δ-sensitive query is
    /// `noise_priv(γ₁, γ₂)`-ADP.
    pub fn noised_query(query: &Query<T>, gamma_num: u64, gamma_den: u64) -> Self {
        Private {
            mech: D::noise(query, gamma_num, gamma_den),
            gamma: D::noise_priv(gamma_num, gamma_den),
            _notion: PhantomData,
        }
    }
}

/// A violation found by the executable privacy checker.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyViolation {
    /// The claimed parameter.
    pub claimed: f64,
    /// The divergence observed on the offending pair.
    pub observed: f64,
    /// Truncation-escaped mass on the offending pair.
    pub escaped_mass: f64,
}

impl std::fmt::Display for PrivacyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "privacy violation: claimed {} but observed divergence {} (escaped mass {})",
            self.claimed, self.observed, self.escaped_mass
        )
    }
}

impl std::error::Error for PrivacyViolation {}

/// Tolerances for the executable `prop` checker.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Multiplicative slack on the claimed parameter (numerical grids and
    /// f64 summation justify a small allowance; default 2%).
    pub rel_slack: f64,
    /// Largest tolerable truncation-escaped mass (default `1e-10`, far
    /// above the `e^{−40}` truncation tails and far below any real leak).
    pub tail_tol: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            rel_slack: 0.02,
            tail_tol: 1e-10,
        }
    }
}

impl<D: AbstractDp, T: 'static, U: Value> Private<D, T, U> {
    /// Checks the claimed bound on one neighbouring pair by computing the
    /// instance divergence between the two analytic output distributions —
    /// the executable reading of `prop m γ` restricted to this pair.
    ///
    /// # Panics
    ///
    /// Panics if the databases are not neighbours.
    pub fn check_pair(
        &self,
        db1: &[T],
        db2: &[T],
        opts: CheckOptions,
    ) -> Result<(), PrivacyViolation>
    where
        T: PartialEq,
    {
        assert!(
            is_neighbour(db1, db2),
            "check_pair: inputs are not neighbours"
        );
        let r = D::divergence(&self.dist(db1), &self.dist(db2));
        if r.escaped_mass > opts.tail_tol || r.value > self.gamma * (1.0 + opts.rel_slack) + 1e-12 {
            Err(PrivacyViolation {
                claimed: self.gamma,
                observed: r.value,
                escaped_mass: r.escaped_mass,
            })
        } else {
            Ok(())
        }
    }

    /// Checks the claimed bound on every neighbour (removals and
    /// `pool`-insertions) of each given database.
    pub fn check_neighbourhood(
        &self,
        databases: &[Vec<T>],
        pool: &[T],
        opts: CheckOptions,
    ) -> Result<(), PrivacyViolation>
    where
        T: Clone + PartialEq,
    {
        for db in databases {
            for n in neighbours(db, pool) {
                self.check_pair(db, &n, opts)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_dp::{PureDp, Zcdp};
    use crate::query::count_query;
    use sampcert_slang::SeededByteSource;

    fn dbs() -> Vec<Vec<u8>> {
        vec![vec![], vec![1, 2, 3], vec![7; 6]]
    }

    #[test]
    fn noised_count_passes_check() {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
        assert_eq!(p.gamma(), 1.0);
        p.check_neighbourhood(&dbs(), &[0], CheckOptions::default())
            .expect("ε=1 noised count is 1-DP");
    }

    #[test]
    fn overclaimed_bound_fails_check() {
        // Assert ε = 0.1 for a mechanism that is really ε = 1.
        let honest: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
        let lying: Private<PureDp, u8, i64> =
            Private::from_asserted(honest.mechanism().clone(), 0.1, "a lie, for testing");
        let err = lying
            .check_pair(&[1, 2], &[1, 2, 3], CheckOptions::default())
            .unwrap_err();
        assert!(err.observed > 0.9, "{err}");
    }

    #[test]
    fn composition_adds_budgets() {
        let a: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        let b: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
        let c = a.compose(&b);
        assert!((c.gamma() - 0.75).abs() < 1e-12);
        c.check_pair(&[1], &[1, 2], CheckOptions::default())
            .expect("composition bound holds");
    }

    #[test]
    fn adaptive_composition_enforces_branch_budget() {
        let a: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        let c = a.compose_adaptive(0.5, |&v| {
            // Branch chooses ε = 1/2 or ε = 1/4 based on the first output
            // — both within the declared 0.5 budget.
            let denom = if v > 0 { 2 } else { 4 };
            Private::noised_query(&count_query(), 1, denom)
        });
        assert!((c.gamma() - 1.0).abs() < 1e-12);
        let mut src = SeededByteSource::new(0);
        let _ = c.run(&[1, 2, 3], &mut src);
    }

    #[test]
    #[should_panic(expected = "exceeds its declared budget")]
    fn adaptive_branch_over_budget_panics() {
        let a: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        let c = a.compose_adaptive(0.1, |_| Private::noised_query(&count_query(), 1, 1));
        let mut src = SeededByteSource::new(0);
        let _ = c.run(&[1], &mut src);
    }

    #[test]
    fn postprocess_is_free_and_private() {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 1);
        let thresholded = p.postprocess(|v| *v > 5);
        assert_eq!(thresholded.gamma(), 1.0);
        thresholded
            .check_neighbourhood(&dbs(), &[0], CheckOptions::default())
            .expect("postprocessing preserves DP");
    }

    #[test]
    fn par_compose_takes_max() {
        let a: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        let b: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
        let c = a.par_compose(&b, |v| *v < 128);
        assert!((c.gamma() - 0.5).abs() < 1e-12);
        c.check_pair(&[1, 200], &[1, 200, 3], CheckOptions::default())
            .expect("parallel composition bound holds");
    }

    #[test]
    fn weaken_monotone() {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        assert_eq!(p.weaken(0.9).gamma(), 0.9);
    }

    #[test]
    #[should_panic(expected = "below the established bound")]
    fn weaken_cannot_strengthen() {
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        let _ = p.weaken(0.1);
    }

    #[test]
    fn zcdp_noised_count_passes_check() {
        let p: Private<Zcdp, u8, i64> = Private::noised_query(&count_query(), 1, 2);
        assert!((p.gamma() - 0.125).abs() < 1e-12);
        p.check_neighbourhood(&dbs(), &[0], CheckOptions::default())
            .expect("zCDP noised count within ρ");
    }

    #[test]
    fn run_batch_carries_gamma_and_matches_sequential_runs() {
        use sampcert_slang::CountingByteSource;
        let p: Private<PureDp, u8, i64> = Private::noised_query(&count_query(), 1, 4);
        let db = [0u8; 8];
        let mut seq_src = CountingByteSource::new(SeededByteSource::new(3));
        let seq: Vec<i64> = (0..100).map(|_| p.run(&db, &mut seq_src)).collect();
        let mut batch_src = CountingByteSource::new(SeededByteSource::new(3));
        let batch = p.run_batch(&db, 100, &mut batch_src);
        assert_eq!(batch.values(), &seq[..]);
        assert_eq!(batch_src.bytes_read(), seq_src.bytes_read());
        assert_eq!(batch.gamma_each(), p.gamma());
        assert!((batch.gamma_total() - 25.0).abs() < 1e-9); // 100 × ε/4
    }

    #[test]
    fn constant_is_free() {
        let p: Private<PureDp, u8, i64> = Private::constant(42);
        assert_eq!(p.gamma(), 0.0);
        p.check_pair(&[1], &[1, 2], CheckOptions::default())
            .expect("constants are 0-DP");
    }

    #[test]
    #[should_panic(expected = "not neighbours")]
    fn check_pair_requires_neighbours() {
        let p: Private<PureDp, u8, i64> = Private::constant(0);
        let _ = p.check_pair(&[1], &[1, 2, 3], CheckOptions::default());
    }
}
