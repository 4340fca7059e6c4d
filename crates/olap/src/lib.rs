//! # openbi-olap
//!
//! Analysis & visualization layer for OpenBI: a **sharded, parallel
//! OLAP cube** (rollup / slice / dice / totals) over `openbi-table`
//! facts, quality-annotated cube cells, tabular reports, ASCII bar
//! charts and sparklines, and composable text dashboards — the
//! "reporting, OLAP analysis, dashboards" triad of the paper's §1, with
//! the paper's quality-awareness thesis made literal: every aggregate
//! travels with its support and null ratio, and reports flag cells that
//! fall below a quality threshold.
//!
//! Architecture (DESIGN.md §14):
//!
//! * [`cube`] — the [`Cube`] API: declared dimensions + [`Measure`]s
//!   over a fact table.
//! * [`shard`] — the engine: contiguous row shards, per-shard
//!   columnar kernels (one group ranking, one fold pass per measure
//!   source column), deterministic shard-order merge;
//!   bitwise-identical to the frozen [`reference`](mod@reference) at any shard count.
//! * [`accumulator`] — mergeable per-measure accumulators (exact
//!   sum/mean via `ExactSum`, associative min/max) and the per-cell
//!   [`CellQuality`] annotation.
//! * [`reference`](mod@reference) — the frozen pre-rewrite single-threaded cube, kept
//!   as the differential-testing oracle and bench baseline.
//! * [`report`] / [`dashboard`] — rendering, including
//!   [`quality_table_report`] and [`Dashboard::quality_rollup`] with
//!   their degraded-build banners.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod cube;
pub mod dashboard;
pub mod reference;
pub mod report;
pub mod shard;

pub use accumulator::{CellQuality, CellState, MeasureAcc};
pub use cube::{Cube, Measure};
pub use dashboard::Dashboard;
pub use report::{
    bar_chart, bar_chart_from_table, quality_table_report, sparkline, table_report,
    QualityThresholds,
};
pub use shard::{build_cube, CubeOptions, CubeResult, ShardPlan, CUBE_BUILD_FAULT_POINT};
