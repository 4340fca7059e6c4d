//! # openbi-table
//!
//! Columnar, in-memory tabular data substrate for OpenBI.
//!
//! This crate is the "raw open data" layer of the OpenBI reproduction:
//! open data is typically published as CSV/HTML tables "without paying
//! attention to structure nor semantics" (paper, §1), and everything above
//! it — quality measurement, quality-defect injection, mining, OLAP — works
//! over the [`Table`] type defined here.
//!
//! Design notes:
//! * Columns are typed vectors of `Option<T>` ([`column::ColumnData`]), so
//!   numeric scans avoid per-cell enum dispatch; the dynamically typed
//!   [`Value`] is only materialized at cell-level APIs.
//! * Every statistic is null-aware (computed over non-null cells).
//! * [`Column::categories`] is the one category rule: two non-null cells
//!   are one category iff their `Value::to_string()` texts are equal.
//!   Mining dictionaries, class labels, class counts, defect injectors,
//!   catalog distinct counts and OLAP dimension keys all take their
//!   codes from it.
//! * [`Rng`] (SplitMix64) is the one seeded generator of the workspace:
//!   row sampling here and every degradation, fold split, bootstrap and
//!   synthetic dataset above draw from it, so every seeded output is a
//!   pure function of its seed on every build, with no external crate.
//! * [`par::map`] is the one fork-join: the noise sweep, the cube build
//!   and parallel cross-validation run their items on the calling thread
//!   plus one scoped helper per further core ([`par::cores`]) and get
//!   the results back in item order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod column;
pub mod csv;
pub mod error;
pub mod exact;
pub mod fingerprint;
pub mod group;
pub mod par;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use category::Categories;
pub use column::{Column, ColumnData};
pub use csv::{read_csv_path, read_csv_str, write_csv_path, write_csv_str, CsvOptions};
pub use error::{Result, TableError};
pub use exact::ExactSum;
pub use fingerprint::Fnv128;
pub use group::{group_by, Aggregate};
pub use rng::Rng;
pub use schema::{Field, Schema};
pub use stats::NumericSummary;
pub use table::Table;
pub use value::{DataType, Value};
