//! # sampcert-samplers
//!
//! Exact discrete sampling algorithms (paper Sections 3.2–3.3): the
//! Canonne–Kamath–Steinke discrete Laplace and Gaussian samplers, together
//! with the uniform/Bernoulli/geometric building blocks they bootstrap from
//! a single byte primitive.
//!
//! Every sampler is written **once**, generically over a
//! [`sampcert_slang::Interp`], so the program that executes in production
//! ([`Sampling`](sampcert_slang::Sampling)) is the very term whose exact
//! mass function is computed and compared against the closed-form PMFs in
//! [`pmf`] ([`Mass`](sampcert_slang::Mass)) — the reproduction's stand-in
//! for SampCert's Lean correctness proofs. The [`FusedLaplace`] /
//! [`FusedGaussian`] types are the hand-compiled fast path (the analogue of
//! the paper's C++ extraction), checked byte-for-byte equal to the generic
//! programs.
//!
//! ## Quick start
//!
//! ```
//! use sampcert_samplers::{discrete_gaussian, LaplaceAlg};
//! use sampcert_arith::Nat;
//! use sampcert_slang::{OsByteSource, Sampling};
//!
//! // σ = 12.5, optimized loop selection, OS entropy.
//! let gauss = discrete_gaussian::<Sampling>(
//!     &Nat::from(25u64),
//!     &Nat::from(2u64),
//!     LaplaceAlg::Switched,
//! );
//! let mut src = OsByteSource::new();
//! let noise: i64 = gauss.run(&mut src);
//! let _ = noise;
//! ```

mod batch;
mod bernoulli;
mod compiled;
mod direct;
mod dispatch;
mod gaussian;
mod geometric;
mod helpers;
mod laplace;
pub mod pmf;
mod uniform;

pub use batch::{
    discrete_gaussian_many, discrete_gaussian_many_into, discrete_laplace_many,
    discrete_laplace_many_into, uniform_below_many, uniform_below_many_into,
};
pub use bernoulli::{bernoulli, bernoulli_exp_neg, bernoulli_exp_neg_unit};
pub use direct::{FusedGaussian, FusedLaplace};
pub use dispatch::DiscreteSampler;
pub use gaussian::{discrete_gaussian, discrete_gaussian_shifted, gaussian_loop};
pub use geometric::{geometric, geometric_pmf};
pub use laplace::{
    discrete_laplace, laplace_loop_geometric, laplace_loop_uniform, LaplaceAlg, SWITCH_SCALE,
};
pub use uniform::{uniform_below, uniform_pow2};
