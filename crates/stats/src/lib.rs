//! # uaq-stats
//!
//! Probability and statistics substrate for the `uaq` reproduction of
//! *Uncertainty Aware Query Execution Time Prediction* (Wu et al., 2014).
//!
//! Everything here is hand-rolled on purpose: the reproduction must be
//! dependency-light, deterministic, and each formula the paper relies on
//! (normal moment table, Lemma 4/8 variances, `2Φ(α) − 1`, NNLS fitting,
//! rank correlations, Zipf skew) is implemented and unit-tested against
//! reference values or Monte Carlo simulation.

pub mod correlation;
pub mod ecdf;
pub mod erf;
pub mod nnls;
pub mod normal;
pub mod par;
pub mod rng;
pub mod summary;
pub mod zipf;

pub use correlation::{pearson, spearman};
pub use ecdf::{dn, dn_at, dn_average, empirical_pr, model_pr, normalized_errors};
pub use erf::{erf, erfc, std_normal_cdf, std_normal_quantile};
pub use nnls::{nnls, Gram, Matrix, NnlsSolution};
pub use normal::{independent_product_mean_var, lemma4_var, lemma8_var, Normal};
pub use par::{parallel_enabled, parallel_map};
pub use rng::Rng;
pub use summary::{mean, relative_error, sample_variance, std_dev, Welford};
pub use zipf::Zipf;
