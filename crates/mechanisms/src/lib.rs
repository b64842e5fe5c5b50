//! # sampcert-mechanisms
//!
//! The differentially private mechanism library of the SampCert
//! reproduction (paper Fig. 1, top layer): noised counts, clamped sums and
//! means, abstract histograms with sequential (Section 2.3) and parallel
//! (Appendix B) composition, approximate maxima, and the sparse vector
//! technique (Appendix A).
//!
//! Everything except SVT is built *generically* over the
//! [`DpNoise`](sampcert_core::DpNoise) interface — instantiate with
//! [`PureDp`](sampcert_core::PureDp) for Laplace noise or
//! [`Zcdp`](sampcert_core::Zcdp) for Gaussian noise and the privacy
//! arithmetic follows, which is the paper's central "one proof, many
//! notions" workflow. SVT enters through the explicit assertion route, as
//! it does in the paper.
//!
//! ## Example: one histogram, two privacy notions
//!
//! ```
//! use sampcert_mechanisms::{noised_histogram, Bins};
//! use sampcert_core::{PureDp, Zcdp};
//! use sampcert_slang::SeededByteSource;
//!
//! let bins = Bins::new(4, |age: &u32| (*age as usize) / 25);
//! let pure = noised_histogram::<PureDp, u32>(&bins, 1, 1);   // ε = 1
//! let conc = noised_histogram::<Zcdp, u32>(&bins, 1, 1);     // ρ = 1/8
//!
//! let ages = vec![23, 35, 47, 61, 74, 88, 19, 42];
//! let mut src = SeededByteSource::new(1);
//! let _ = (pure.run(&ages, &mut src), conc.run(&ages, &mut src));
//! ```

mod accuracy;
mod adaptive;
mod histogram;
mod queries;
mod svt;

pub use accuracy::{
    gaussian_accuracy, gaussian_tail, laplace_accuracy, laplace_tail, pure_dp_accuracy,
};
pub use adaptive::{adaptive_mean, magnitude_bins, AdaptiveMeanRelease};
pub use histogram::{
    approx_max_bin, exact_bin_count, histogram_request, noised_bin_count, noised_histogram,
    par_noised_histogram, Bins,
};
pub use queries::{
    count_request, mean_of, mean_request, noised_bounded_sum, noised_count, noised_mean,
    workload_request,
};
pub use svt::{above_threshold, sparse, svt_request, SvtParams};
