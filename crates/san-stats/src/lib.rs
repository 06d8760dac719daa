//! # san-stats — probability and fitting toolkit for SAN analysis
//!
//! This crate is the statistics substrate of the `gplus-san` workspace. It
//! implements, from scratch, every probabilistic primitive the paper
//! *"Evolution of Social-Attribute Networks"* (Gong et al., IMC 2012) relies
//! on:
//!
//! * the **discrete lognormal** distribution (the paper's best-fit family for
//!   Google+ social in/out-degrees and attribute degrees, §3.5 / §4.1),
//! * the **discrete power law** with Clauset-style maximum-likelihood fitting
//!   (the best-fit family for the social degree of attribute nodes),
//! * the **truncated normal** lifetime distribution of the generative model
//!   (§5.3) together with the Mills-ratio quantities `g(γ)` and `δ(γ)` that
//!   Theorem 1 uses,
//! * model selection between the two families ("which distribution fits
//!   best", mirroring the tool of Clauset, Shalizi & Newman referenced by the
//!   paper),
//! * histogramming (log-binned pdf, ccdf) used to render every degree
//!   distribution figure,
//! * descriptive statistics (interpolated percentiles for the effective
//!   diameter, Pearson correlation for assortativity, OLS on log-log scales),
//! * the **Hoeffding** sample-size bound `K = ⌈ln(2ν) / (2ε²)⌉` that powers
//!   the constant-time clustering-coefficient approximation (Appendix A), and
//! * a deterministic, splittable random number generator so that every
//!   experiment in the workspace is reproducible from a single `u64` seed.
//!
//! The crate is intentionally dependency-light: only `rand` (for the
//! `RngCore` traits).
//!
//! ## Quick example
//!
//! ```
//! use san_stats::prelude::*;
//!
//! let mut rng = SplitRng::new(42);
//! let ln = DiscreteLognormal::new(1.5, 1.0).unwrap();
//! let samples: Vec<u64> = (0..5000).map(|_| ln.sample(&mut rng)).collect();
//! let fit = fit_degree_distribution(&samples).unwrap();
//! assert_eq!(fit.family, FitFamily::Lognormal);
//! ```

pub mod dist;
pub mod error;
pub mod fit;
pub mod histogram;
pub mod hoeffding;
pub mod rng;
pub mod special;
pub mod summary;

pub use dist::common::{AliasTable, Exponential, Geometric, Zipf};
pub use dist::lognormal::{DiscreteLognormal, Lognormal};
pub use dist::powerlaw::DiscretePowerLaw;
pub use dist::powerlaw_cutoff::PowerLawCutoff;
pub use dist::trunc_normal::TruncatedNormal;
pub use error::StatsError;
pub use fit::{fit_degree_distribution, DegreeFit, FitFamily};
pub use histogram::{ccdf, empirical_pmf, log_binned_pdf};
pub use hoeffding::hoeffding_samples;
pub use rng::SplitRng;
pub use summary::{mean, median, ols, pearson, percentile, std_dev, variance, OlsFit};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::dist::common::{AliasTable, Exponential, Geometric, Zipf};
    pub use crate::dist::lognormal::{DiscreteLognormal, Lognormal};
    pub use crate::dist::powerlaw::DiscretePowerLaw;
    pub use crate::dist::powerlaw_cutoff::PowerLawCutoff;
    pub use crate::dist::trunc_normal::TruncatedNormal;
    pub use crate::error::StatsError;
    pub use crate::fit::{fit_degree_distribution, DegreeFit, FitFamily};
    pub use crate::histogram::{ccdf, empirical_pmf, log_binned_pdf};
    pub use crate::hoeffding::hoeffding_samples;
    pub use crate::rng::SplitRng;
    pub use crate::summary::{mean, median, ols, pearson, percentile, std_dev, variance, OlsFit};
}
