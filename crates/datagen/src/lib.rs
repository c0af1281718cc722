//! # uaq-datagen
//!
//! TPC-H-like database generator standing in for dbgen and the skewed TPC-H
//! generator (\[4\] in the paper): eight relations with dbgen cardinality
//! ratios, Zipf(z) value/foreign-key skew, deterministic by seed.

pub mod gen;
pub mod presets;
pub mod schema;

pub use gen::{generate, Cardinalities, GenConfig};
pub use presets::DbPreset;
pub use schema::{domains, DATE_DOMAIN_DAYS, DAY_1995_01_01, DAY_1996_12_31};
