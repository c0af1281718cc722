//! # uaq-storage
//!
//! In-memory storage substrate for the `uaq` reproduction: typed values,
//! schemas, row tables with a page model (the cost model charges page I/O),
//! equi-depth histograms (optimizer statistics), and provenance-carrying
//! sample tables (the materialized sampling views of §3.2.2 of the paper).

pub mod catalog;
pub mod column;
pub mod histogram;
pub mod sample;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{Catalog, SampleCatalog, TableStats};
pub use column::{
    columns_from_rows, rows_from_columns, ColumnData, ColumnRef, ColumnSlice, MAX_SELECTION_DEPTH,
};
pub use histogram::Histogram;
pub use sample::{sample_size_for_ratio, JoinIndex, SampleTable, StrDict};
pub use schema::{Column, ColumnType, Schema};
pub use table::{Table, DEFAULT_TUPLES_PER_PAGE};
pub use value::{order_f64, Row, Value};
