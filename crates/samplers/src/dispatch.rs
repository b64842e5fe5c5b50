//! The tier dispatch, written once: a prebuilt single-draw sampler.
//!
//! Every sampler here has three byte-stream-equal executions:
//!
//! 1. the hand-fused `u128` loops ([`FusedLaplace`] / [`FusedGaussian`])
//!    whenever the parameters sit safely inside their machine-word regime
//!    (any `u64` scale for the Laplace, a conservative `2²⁶` box for the
//!    Gaussian — see [`FUSED_GAUSS_LIMIT`]);
//! 2. the **compiled tier** for parameters outside it: the extracted
//!    bytecode from `sampcert_extract`, compiled once per parameter box
//!    (see [`compiled`](crate::compiled)) and executed on the stack VM;
//! 3. the monadic `SLang` program, for implausibly wide parameters (see
//!    [`COMPILED_BITS_LIMIT`]) and as the fallback when the VM reports an
//!    arithmetic fault (it cannot on the registered sampler programs —
//!    this is defense in depth).
//!
//! A [`DiscreteSampler`] makes that choice once, at construction, and
//! every draw after it goes straight to the chosen tier. The noise
//! mechanisms of `sampcert-core`, the sparse-vector mechanism and the
//! batched `*_many_into` entry points all draw through one.

use crate::compiled::{self, value_to_i64};
use crate::direct::{FusedGaussian, FusedLaplace};
use crate::gaussian::discrete_gaussian;
use crate::laplace::{discrete_laplace, LaplaceAlg};
use sampcert_arith::Nat;
use sampcert_extract::{Value, Vm};
use sampcert_slang::{ByteSource, SLang, Sampling};
use std::sync::OnceLock;

/// Upper bound (exclusive) on `num` *and* `den` for dispatching to the
/// fused Gaussian fast path.
///
/// Deliberately tighter than [`FusedGaussian::new`]'s own `num < 2³²`
/// admission: with both parameters below 2²⁶, every intermediate in the
/// fused acceptance test (`2·num²·t²·den²` and the squared difference,
/// whose extreme is `(|Y|·t·den²)²`) stays far inside `u128` for any
/// remotely reachable `|Y|`, so the fast path cannot hit the fused
/// sampler's checked-overflow aborts on parameters the general `SLang`
/// program handles fine — which would break the tier-equality contract.
/// Parameters outside the box take the compiled tier.
const FUSED_GAUSS_LIMIT: u64 = 1 << 26;

/// Upper bound (inclusive) on a parameter's bit length for dispatching to
/// the compiled-bytecode tier.
///
/// The compiled tier embeds the parameters (and, for the Gaussian, their
/// squares and the acceptance bound `2·num²·t²·den²`) as constants in the
/// cached bytecode, so cache memory and compile time grow with the
/// parameter width. A megabit per parameter covers every plausible noise
/// scale — the differential suite runs 128-limb (8192-bit) parameters
/// through this tier — while keeping the cache bounded against
/// adversarially wide inputs, which take the (allocation-free-to-build)
/// general program instead.
pub(crate) const COMPILED_BITS_LIMIT: u64 = 1 << 20;

/// Whether both parameters are narrow enough for the compiled tier.
fn compilable(num: &Nat, den: &Nat) -> bool {
    num.bit_length() <= COMPILED_BITS_LIMIT && den.bit_length() <= COMPILED_BITS_LIMIT
}

/// Runs `n` draws on the compiled VM, converting each result with
/// `convert`; if the VM faults, the remaining draws — the faulted one
/// included — are handed to `fallback`.
pub(crate) fn compiled_draws_into<T>(
    vm: &Vm,
    n: usize,
    src: &mut dyn ByteSource,
    out: &mut Vec<T>,
    convert: impl Fn(&Value) -> T,
    fallback: impl FnOnce(usize, &mut dyn ByteSource, &mut Vec<T>),
) {
    for i in 0..n {
        match vm.try_run(src) {
            Ok(v) => out.push(convert(&v)),
            Err(_) => return fallback(n - i, src, out),
        }
    }
}

/// The execution a [`DiscreteSampler`] was built for.
enum Tier {
    FusedLaplace(FusedLaplace),
    FusedGaussian(FusedGaussian),
    /// The compiled VM, with the monadic program it falls back to.
    Compiled(Vm, Fallback),
    Monadic(SLang<i64>),
}

/// The compiled tier's monadic fallback, built on the first VM fault: a
/// fault-free sampler never pays for (or depends on) the general
/// program's construction.
struct Fallback {
    build: fn(&Nat, &Nat, LaplaceAlg) -> SLang<i64>,
    num: Nat,
    den: Nat,
    alg: LaplaceAlg,
    program: OnceLock<SLang<i64>>,
}

impl Fallback {
    fn new(
        build: fn(&Nat, &Nat, LaplaceAlg) -> SLang<i64>,
        num: &Nat,
        den: &Nat,
        alg: LaplaceAlg,
    ) -> Self {
        Fallback {
            build,
            num: num.clone(),
            den: den.clone(),
            alg,
            program: OnceLock::new(),
        }
    }

    fn program(&self) -> &SLang<i64> {
        self.program
            .get_or_init(|| (self.build)(&self.num, &self.den, self.alg))
    }
}

/// A discrete Laplace or Gaussian sampler, built once on the fastest tier
/// its parameters admit and drawn any number of times.
///
/// Every tier consumes exactly the bytes the monadic
/// [`discrete_laplace`] / [`discrete_gaussian`] program would and
/// produces exactly the same values, so which tier serves is invisible
/// to the distribution and to the entropy stream (pinned by this crate's
/// tests and by `sampcert-extract`'s equivalence suite).
///
/// # Examples
///
/// ```
/// use sampcert_samplers::{discrete_laplace, DiscreteSampler, LaplaceAlg};
/// use sampcert_arith::Nat;
/// use sampcert_slang::{SeededByteSource, Sampling};
///
/// let (num, den) = (Nat::from(5u64), Nat::from(2u64));
/// let fast = DiscreteSampler::laplace(&num, &den, LaplaceAlg::Switched);
/// let slow = discrete_laplace::<Sampling>(&num, &den, LaplaceAlg::Switched);
/// let (mut a, mut b) = (SeededByteSource::new(3), SeededByteSource::new(3));
/// for _ in 0..100 {
///     assert_eq!(fast.sample(&mut a), slow.run(&mut b));
/// }
/// ```
pub struct DiscreteSampler {
    tier: Tier,
}

impl std::fmt::Debug for DiscreteSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tier: &dyn std::fmt::Debug = match &self.tier {
            Tier::FusedLaplace(l) => l,
            Tier::FusedGaussian(g) => g,
            Tier::Compiled(..) => &"Compiled",
            Tier::Monadic(_) => &"Monadic",
        };
        f.debug_struct("DiscreteSampler")
            .field("tier", tier)
            .finish()
    }
}

impl DiscreteSampler {
    /// A discrete Laplace sampler with scale `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    pub fn laplace(num: &Nat, den: &Nat, alg: LaplaceAlg) -> Self {
        assert!(
            !num.is_zero() && !den.is_zero(),
            "discrete_laplace: zero scale parameter"
        );
        let tier = match (num.to_u64(), den.to_u64()) {
            (Some(nu), Some(de)) => Tier::FusedLaplace(FusedLaplace::new(nu, de, alg)),
            _ if compilable(num, den) => Tier::Compiled(
                Vm::shared(compiled::laplace_bytecode(num, den, alg)),
                Fallback::new(discrete_laplace::<Sampling>, num, den, alg),
            ),
            _ => Tier::Monadic(discrete_laplace::<Sampling>(num, den, alg)),
        };
        DiscreteSampler { tier }
    }

    /// A discrete Gaussian sampler for `N_ℤ(0, (num/den)²)`.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    pub fn gaussian(num: &Nat, den: &Nat, alg: LaplaceAlg) -> Self {
        assert!(
            !num.is_zero() && !den.is_zero(),
            "discrete_gaussian: zero sigma parameter"
        );
        let tier = match (num.to_u64(), den.to_u64()) {
            (Some(nu), Some(de)) if nu < FUSED_GAUSS_LIMIT && de < FUSED_GAUSS_LIMIT => {
                Tier::FusedGaussian(FusedGaussian::new(nu, de, alg))
            }
            _ if compilable(num, den) => Tier::Compiled(
                Vm::shared(compiled::gaussian_bytecode(num, den, alg)),
                Fallback::new(discrete_gaussian::<Sampling>, num, den, alg),
            ),
            _ => Tier::Monadic(discrete_gaussian::<Sampling>(num, den, alg)),
        };
        DiscreteSampler { tier }
    }

    /// Draws one sample.
    ///
    /// On the compiled tier, a VM fault redraws this one sample on the
    /// monadic program, from where the faulted run left the byte source;
    /// the next call runs on the VM again.
    pub fn sample(&self, src: &mut dyn ByteSource) -> i64 {
        match &self.tier {
            Tier::FusedLaplace(l) => l.sample(src),
            Tier::FusedGaussian(g) => g.sample(src),
            Tier::Compiled(vm, fallback) => match vm.try_run(src) {
                Ok(v) => value_to_i64(&v),
                Err(_) => fallback.program().run(src),
            },
            Tier::Monadic(monadic) => monadic.run(src),
        }
    }

    /// Draws `n` samples, appending them to `out` — the same values and
    /// bytes as `n` calls of [`sample`](Self::sample) on a fault-free run.
    ///
    /// On the compiled tier, a VM fault hands the rest of the batch, the
    /// faulted draw included, to the monadic program.
    pub fn sample_into(&self, n: usize, src: &mut dyn ByteSource, out: &mut Vec<i64>) {
        out.reserve(n);
        match &self.tier {
            Tier::FusedLaplace(l) => out.extend((0..n).map(|_| l.sample(src))),
            Tier::FusedGaussian(g) => out.extend((0..n).map(|_| g.sample(src))),
            Tier::Compiled(vm, fallback) => {
                compiled_draws_into(vm, n, src, out, value_to_i64, |rest, src, out| {
                    fallback.program().run_into(rest, src, out);
                });
            }
            Tier::Monadic(monadic) => monadic.run_into(n, src, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampcert_slang::SeededByteSource;

    /// The compiled tier builds its monadic fallback only on a fault: at
    /// a scale below 2⁻⁶⁴ the monadic Laplace cannot be built (its
    /// `e^{−den/num}` trial has an integer part past `u64`), yet the VM
    /// draws it.
    #[test]
    fn compiled_tier_draws_where_the_monadic_program_cannot_be_built() {
        let den = &(Nat::from(3u64) << 128) + &Nat::from(5u64);
        let sampler = DiscreteSampler::laplace(&Nat::from(7u64), &den, LaplaceAlg::Geometric);
        let mut src = SeededByteSource::new(1);
        let mut out = vec![sampler.sample(&mut src)];
        sampler.sample_into(3, &mut src, &mut out);
        assert_eq!(out, [0; 4]);
    }
}
