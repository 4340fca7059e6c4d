//! The sharded, parallel cube build engine (DESIGN.md §14).
//!
//! The fact table is partitioned into **contiguous row shards**
//! ([`ShardPlan::contiguous`]). Each shard first gives every row a dense
//! group slot — the first-seen rank, within the shard, of the row's
//! dimension-code tuple, built one dimension at a time by ranking the
//! (previous slot, code) pair packed into one `u64` (with no dimensions
//! every row is slot 0 and nothing is looked up) — and then makes one
//! pass per distinct measure source column, which counts the column's
//! null cells per slot and folds its cells into every measure reading
//! it, each slot's [`CellState`] meeting its cells in row order. A
//! group's key is read off its first row. Shard results are then merged
//! **in shard order**.
//! Why that is bitwise-identical to the frozen single-threaded
//! [`crate::reference`] at any shard count:
//!
//! * **Group order** — within a shard, slot order is first-seen row
//!   order; shards are contiguous and ordered, and the merge walks them
//!   in shard order with first-seen-wins insertion, so a group's first
//!   appearance in the merged output equals its first appearance in
//!   global row order: exactly `group_by`'s ordering. A failed shard's
//!   rows are simply absent, so a partial cube orders its groups as the
//!   reference does over the surviving rows.
//! * **Sum / Mean** — [`ExactSum`](openbi_table::ExactSum) partial sums
//!   merge without rounding, so the single final rounding sees the same
//!   exact total regardless of partitioning; mean divides once, at
//!   readout, by the exact combined count.
//! * **Count** — integer addition.
//! * **Min / Max** — strict-comparison folds where first-seen wins
//!   ties and NaN never beats the incumbent; first-seen-wins composes
//!   over contiguous shards merged in shard order, so the merge equals
//!   the sequential fold.
//!
//! Each shard build passes the `olap.cube.build` fault point (keyed on
//! the shard index) with bounded retry; shards whose retries are
//! exhausted are recorded in [`CubeResult::failed_shards`] and the cube
//! degrades to the surviving rows rather than aborting — the dashboard
//! renders the degradation banner (DESIGN.md §10's graceful-degradation
//! contract applied to the serving tier).
//!
//! Observability: `olap.cube.build.seconds`, `olap.shard.seconds`
//! histograms, `olap.cube.cells` / `olap.shard.retries` /
//! `olap.shard.failures` counters — all through the `openbi-obs` global
//! slot, free when nothing is installed.

use crate::accumulator::{CellQuality, CellState};
use crate::cube::Measure;
use openbi_faults::FaultPlan;
use openbi_table::{
    par, Categories, Column, ColumnData, DataType, Result, Table, TableError, Value,
};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The fault point every shard build passes (keyed on shard index).
pub const CUBE_BUILD_FAULT_POINT: &str = "olap.cube.build";

/// Options for a sharded cube build.
#[derive(Debug, Clone, Default)]
pub struct CubeOptions {
    /// Number of row shards; `0` means one per available core (capped
    /// at 8). The result is bitwise-identical at any value.
    pub shards: usize,
    /// Retries per shard when `olap.cube.build` fires an error fault.
    pub max_retries: u32,
    /// Explicit fault plan; falls back to the process-global plan
    /// ([`openbi_faults::active`]) when `None`.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl CubeOptions {
    /// A build with a fixed shard count and no fault handling.
    pub fn with_shards(shards: usize) -> Self {
        CubeOptions {
            shards,
            ..CubeOptions::default()
        }
    }

    fn resolved_shards(&self, n_rows: usize) -> usize {
        let requested = if self.shards == 0 {
            par::cores().min(8)
        } else {
            self.shards
        };
        requested.clamp(1, n_rows.max(1))
    }
}

/// A quality-annotated rollup: the aggregate table (bitwise-identical
/// to the reference cube's) plus per-row [`CellQuality`] and the fault
/// outcome of the build.
#[derive(Debug, Clone)]
pub struct CubeResult {
    /// Key columns then aggregate columns, one row per group —
    /// exactly the `group_by` layout.
    pub table: Table,
    /// One quality annotation per output row.
    pub quality: Vec<CellQuality>,
    /// Shard indices whose retries were exhausted; their rows are
    /// missing from `table` (graceful degradation).
    pub failed_shards: Vec<usize>,
    /// Total shards the build planned.
    pub total_shards: usize,
}

impl CubeResult {
    /// True when at least one shard failed and the cube is partial.
    pub fn is_degraded(&self) -> bool {
        !self.failed_shards.is_empty()
    }
}

/// A contiguous, ordered partition of `n_rows` into row ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Half-open `[start, end)` row ranges, in row order.
    pub bounds: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Split `n_rows` into `n_shards` balanced contiguous ranges (sizes
    /// differ by at most one, deterministic).
    pub fn contiguous(n_rows: usize, n_shards: usize) -> ShardPlan {
        let k = n_shards.max(1);
        ShardPlan {
            bounds: (0..k)
                .map(|i| (i * n_rows / k, (i + 1) * n_rows / k))
                .collect(),
        }
    }
}

/// A dimension column's group keys: every row mapped to the code of its
/// category ([`Column::categories`]: one code per distinct
/// `Value::to_string()` text, in first-seen row order), and a null cell
/// to the code of `""` — OLAP's own rule, which merges a null with a
/// literal empty string exactly like `group_by`'s string keys. Codes are
/// a pure function of the column, independent of shard count, and the
/// per-row hot path of the aggregation kernel touches only `u32`s, no
/// string allocation.
struct DimIndex {
    /// Row → value id.
    ids: Vec<u32>,
    /// Value id → rendered string (materialized into key columns once,
    /// per output row, at the end of the build).
    values: Vec<String>,
}

impl DimIndex {
    fn new(col: &Column) -> DimIndex {
        let cats = col.categories();
        let mut values = cats.texts();
        let mut ids = cats.into_codes();
        if ids.contains(&Categories::NULL) {
            let empty = match values.iter().position(String::is_empty) {
                Some(code) => code,
                None => {
                    values.push(String::new());
                    values.len() - 1
                }
            } as u32;
            for id in ids.iter_mut().filter(|id| **id == Categories::NULL) {
                *id = empty;
            }
        }
        DimIndex { ids, values }
    }
}

/// A distinct measure source column and the measures that read it,
/// by index into the declared measure list.
struct Source<'a> {
    column: &'a Column,
    measures: Vec<usize>,
}

/// One shard's aggregation output: groups in first-seen (shard-local)
/// order, keyed by dimension value ids.
struct ShardAgg {
    keys: Vec<Vec<u32>>,
    states: Vec<CellState>,
}

/// What a shard worker came back with.
enum ShardOutcome {
    Done(ShardAgg),
    Failed,
}

/// Hasher for the one `u64` a ranking key packs: one multiplication by
/// an odd factor, with the high half folded into the low bits the map
/// picks its bucket from.
struct PairHasher {
    mul: u64,
    hash: u64,
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.hash ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(self.mul);
        self.hash = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`PairHasher`]s around one odd multiplier drawn from std's
/// random hash keys: which pairs occur is up to the fact data, so a
/// fixed multiplier would let crafted data make them collide.
struct PairHashing(u64);

impl Default for PairHashing {
    fn default() -> Self {
        PairHashing(RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for PairHashing {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher {
            mul: self.0,
            hash: 0,
        }
    }
}

/// First-seen ranks of packed (previous slot, code) pairs.
type PairRanks = HashMap<u64, u32, PairHashing>;

/// Replace `slot` with the rank of its (slot, `code`) pair, giving an
/// unseen pair the next rank; true when the pair is new.
fn rank_pair(ranks: &mut PairRanks, slot: &mut u32, code: u32) -> bool {
    let next = u32::try_from(ranks.len()).expect("fewer than 2^32 groups per shard");
    *slot = *ranks
        .entry((u64::from(*slot) << 32) | u64::from(code))
        .or_insert(next);
    *slot == next
}

/// Every row of `[start, end)` with its group slot: the first-seen rank
/// of its dimension-code tuple within the range, so slot order is
/// first-seen order. The slots are built one dimension at a time by
/// ranking the (previous slot, code) pair, which is unique to the
/// tuple prefix. Returns the slots (`None` without dimensions: every
/// row is slot 0) and each slot's first row; working memory is
/// O(rows + groups) at any dimension cardinality.
fn rank_groups(start: usize, end: usize, dims: &[DimIndex]) -> (Option<Vec<u32>>, Vec<usize>) {
    let Some((last, prefix)) = dims.split_last() else {
        return (None, (start..end).take(1).collect());
    };
    let mut slots = vec![0u32; end - start];
    let mut ranks = PairRanks::default();
    for d in prefix {
        ranks.clear();
        for (slot, &code) in slots.iter_mut().zip(&d.ids[start..end]) {
            rank_pair(&mut ranks, slot, code);
        }
    }
    ranks.clear();
    let mut first_rows = Vec::new();
    for ((row, slot), &code) in (start..).zip(slots.iter_mut()).zip(&last.ids[start..end]) {
        if rank_pair(&mut ranks, slot, code) {
            first_rows.push(row);
        }
    }
    (Some(slots), first_rows)
}

/// Columnar aggregation of rows `[start, end)`: rank the rows into
/// group slots, count each slot's rows, then make one pass per measure
/// source column that counts its null cells per slot and folds them
/// into every measure reading it. Each slot meets its cells in row
/// order, as the reference's per-group fold does.
fn aggregate_range(
    start: usize,
    end: usize,
    dims: &[DimIndex],
    sources: &[Source<'_>],
    measures: &[Measure],
) -> ShardAgg {
    let (slots, first_rows) = rank_groups(start, end, dims);
    let mut states: Vec<CellState> = first_rows
        .iter()
        .map(|_| CellState::new(measures))
        .collect();
    match &slots {
        Some(slots) => {
            for &slot in slots {
                states[slot as usize].support += 1;
            }
        }
        None => {
            if let Some(total) = states.first_mut() {
                total.support = (end - start) as u64;
            }
        }
    }
    for source in sources {
        match &slots {
            Some(slots) => fold_source(
                source,
                start..end,
                slots.iter().map(|&slot| slot as usize),
                &mut states,
            ),
            None => fold_source(source, start..end, std::iter::repeat(0), &mut states),
        }
    }
    let keys = first_rows
        .iter()
        .map(|&row| dims.iter().map(|d| d.ids[row]).collect())
        .collect();
    ShardAgg { keys, states }
}

/// Fold the cells of `source` in `rows` into the states at `slots` (one
/// slot per row), with the column's type matched once.
fn fold_source(
    source: &Source<'_>,
    rows: std::ops::Range<usize>,
    slots: impl Iterator<Item = usize>,
    states: &mut [CellState],
) {
    let reading = &source.measures;
    match source.column.data() {
        ColumnData::Float(v) => {
            fold_cells(v[rows].iter().map(|c| c.map(Some)), slots, reading, states)
        }
        ColumnData::Int(v) => fold_cells(
            v[rows].iter().map(|c| c.map(|x| Some(x as f64))),
            slots,
            reading,
            states,
        ),
        ColumnData::Bool(v) => fold_cells(
            v[rows]
                .iter()
                .map(|c| c.map(|b| Some(if b { 1.0 } else { 0.0 }))),
            slots,
            reading,
            states,
        ),
        // A string cell is no number: only `Count` reads it.
        ColumnData::Str(v) => fold_cells(
            v[rows].iter().map(|c| c.as_ref().map(|_| None)),
            slots,
            reading,
            states,
        ),
    }
}

/// Fold cells into the states at `slots`: `None` is a null cell,
/// `Some(None)` a cell that is no number.
fn fold_cells(
    cells: impl Iterator<Item = Option<Option<f64>>>,
    slots: impl Iterator<Item = usize>,
    reading: &[usize],
    states: &mut [CellState],
) {
    for (cell, slot) in cells.zip(slots) {
        let state = &mut states[slot];
        match cell {
            None => state.null_cells += 1,
            Some(num) => {
                for &m in reading {
                    state.accs[m].update(false, num);
                }
            }
        }
    }
}

/// Build a quality-annotated rollup of `facts` grouped by `dims`
/// (empty `dims` = grand total: one group when the table has rows,
/// none when it is empty — matching `group_by` over a synthetic
/// constant key).
pub fn build_cube(
    facts: &Table,
    dims: &[&str],
    measures: &[Measure],
    options: &CubeOptions,
) -> Result<CubeResult> {
    let build_started = Instant::now();
    for d in dims {
        facts.column(d)?;
    }
    // Distinct measure source columns, in first-declared order: each
    // is read once per shard even when several measures share it.
    let mut sources: Vec<Source<'_>> = Vec::new();
    for (m, measure) in measures.iter().enumerate() {
        let column = facts.column(measure.column())?;
        match sources
            .iter_mut()
            .find(|s| s.column.name() == column.name())
        {
            Some(source) => source.measures.push(m),
            None => sources.push(Source {
                column,
                measures: vec![m],
            }),
        }
    }
    // The output's column names must be distinct: refuse a repeated
    // dimension (or measure) before scanning, with the error `Table::new`
    // would give after it.
    let mut names: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    names.extend(measures.iter().map(Measure::output_name));
    names.sort_unstable();
    if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(TableError::DuplicateColumn(pair[0].clone()));
    }
    // Encode the dimension columns up front, one column per item.
    // Encoding is a pure per-column function of the data, so it is
    // identical at every shard count.
    let dim_cols: Vec<&Column> = dims
        .iter()
        .map(|d| facts.column(d).expect("validated"))
        .collect();
    let dim_views: Vec<DimIndex> = par::map(dim_cols, DimIndex::new);

    let n_shards = options.resolved_shards(facts.n_rows());
    let plan = ShardPlan::contiguous(facts.n_rows(), n_shards);
    let fault_plan = options.fault_plan.clone().or_else(openbi_faults::active);

    let run_shard = |shard: usize, &(start, end): &(usize, usize)| -> ShardOutcome {
        let shard_started = Instant::now();
        let mut attempt: u32 = 0;
        let outcome = loop {
            let attempt_result = match &fault_plan {
                Some(p) => p.fire(CUBE_BUILD_FAULT_POINT, shard as u64, attempt),
                None => Ok(()),
            };
            match attempt_result {
                Ok(()) => {
                    break ShardOutcome::Done(aggregate_range(
                        start, end, &dim_views, &sources, measures,
                    ))
                }
                Err(_) if attempt < options.max_retries => {
                    openbi_obs::counter_add("olap.shard.retries", 1);
                    attempt += 1;
                }
                Err(_) => {
                    openbi_obs::counter_add("olap.shard.failures", 1);
                    break ShardOutcome::Failed;
                }
            }
        };
        openbi_obs::observe_duration("olap.shard.seconds", shard_started.elapsed());
        outcome
    };

    let outcomes: Vec<ShardOutcome> = par::map(
        plan.bounds.iter().enumerate().collect(),
        |(shard, range)| run_shard(shard, range),
    );

    // Merge shard maps in shard order: first-seen-wins insertion over
    // contiguous ordered shards reproduces global first-seen order.
    let mut keys: Vec<Vec<u32>> = Vec::new();
    let mut states: Vec<CellState> = Vec::new();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut failed_shards: Vec<usize> = Vec::new();
    for (shard, outcome) in outcomes.into_iter().enumerate() {
        let agg = match outcome {
            ShardOutcome::Done(agg) => agg,
            ShardOutcome::Failed => {
                failed_shards.push(shard);
                continue;
            }
        };
        for (key, state) in agg.keys.into_iter().zip(agg.states) {
            match index.get(key.as_slice()) {
                Some(&i) => states[i].merge(&state),
                None => {
                    let i = states.len();
                    index.insert(key.clone(), i);
                    keys.push(key);
                    states.push(state);
                }
            }
        }
    }

    // Materialize the output table in the exact group_by layout.
    let mut out_cols: Vec<Column> = Vec::with_capacity(dims.len() + measures.len());
    for (i, d) in dims.iter().enumerate() {
        let values: Vec<String> = keys
            .iter()
            .map(|k| dim_views[i].values[k[i] as usize].clone())
            .collect();
        out_cols.push(Column::from_str_values(*d, values));
    }
    for (mi, m) in measures.iter().enumerate() {
        let values: Vec<Value> = states.iter().map(|s| s.accs[mi].value()).collect();
        let dtype = match m {
            Measure::Count(_) => DataType::Int,
            _ => DataType::Float,
        };
        out_cols.push(Column::from_values(m.output_name(), dtype, values)?);
    }
    let table = Table::new(out_cols)?;
    let quality: Vec<CellQuality> = states.iter().map(|s| s.quality(sources.len())).collect();

    openbi_obs::counter_add("olap.cube.cells", table.n_rows() as u64);
    openbi_obs::observe_duration("olap.cube.build.seconds", build_started.elapsed());
    Ok(CubeResult {
        table,
        quality,
        failed_shards,
        total_shards: plan.bounds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_faults::FaultRule;

    fn facts() -> Table {
        Table::new(vec![
            Column::from_str_values("d", ["a", "b", "a", "b", "a", "c"]),
            Column::from_opt_f64(
                "v",
                [Some(1.0), Some(2.0), None, Some(4.0), Some(5.0), None],
            ),
        ])
        .unwrap()
    }

    fn measures() -> Vec<Measure> {
        vec![
            Measure::Sum("v".into()),
            Measure::Mean("v".into()),
            Measure::Count("v".into()),
        ]
    }

    #[test]
    fn shard_plan_is_contiguous_and_balanced() {
        let p = ShardPlan::contiguous(10, 4);
        assert_eq!(p.bounds.first().unwrap().0, 0);
        assert_eq!(p.bounds.last().unwrap().1, 10);
        for w in p.bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let sizes: Vec<usize> = p.bounds.iter().map(|(s, e)| e - s).collect();
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        assert_eq!(ShardPlan::contiguous(0, 4).bounds, vec![(0, 0); 4]);
        assert_eq!(ShardPlan::contiguous(5, 1).bounds, vec![(0, 5)]);
    }

    #[test]
    fn shard_count_does_not_change_the_bits() {
        let f = facts();
        let one = build_cube(&f, &["d"], &measures(), &CubeOptions::with_shards(1)).unwrap();
        for shards in [2, 3, 4, 6] {
            let many =
                build_cube(&f, &["d"], &measures(), &CubeOptions::with_shards(shards)).unwrap();
            assert_eq!(
                one.table.fingerprint(),
                many.table.fingerprint(),
                "{shards} shards"
            );
            assert_eq!(one.quality, many.quality, "{shards} shards");
        }
    }

    #[test]
    fn quality_annotation_counts_nulls_and_support() {
        let f = facts();
        let r = build_cube(&f, &["d"], &measures(), &CubeOptions::with_shards(2)).unwrap();
        // Groups in first-seen order: a (3 rows, 1 null), b (2 rows),
        // c (1 row, 1 null). One distinct measure column (`v`).
        assert_eq!(r.quality.len(), 3);
        assert_eq!(r.quality[0].support, 3);
        assert!((r.quality[0].null_ratio - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.quality[1].support, 2);
        assert_eq!(r.quality[1].null_ratio, 0.0);
        assert_eq!(r.quality[2].support, 1);
        assert_eq!(r.quality[2].null_ratio, 1.0);
        assert!(!r.is_degraded());
    }

    #[test]
    fn empty_dims_is_a_grand_total() {
        let f = facts();
        let r = build_cube(&f, &[], &measures(), &CubeOptions::with_shards(3)).unwrap();
        assert_eq!(r.table.n_rows(), 1);
        assert_eq!(r.table.get("sum(v)", 0).unwrap(), Value::Float(12.0));
        assert_eq!(r.quality[0].support, 6);
        let empty = Table::new(vec![Column::from_opt_f64("v", Vec::<Option<f64>>::new())]).unwrap();
        let r = build_cube(&empty, &[], &measures(), &CubeOptions::default()).unwrap();
        assert_eq!(r.table.n_rows(), 0);
        assert!(r.quality.is_empty());
    }

    #[test]
    fn exhausted_retries_degrade_instead_of_aborting() {
        let plan = Arc::new(FaultPlan::new(7).with(FaultRule::error(CUBE_BUILD_FAULT_POINT)));
        // Default plan semantics: attempt 0 fails, attempt 1 succeeds.
        let retried = build_cube(
            &facts(),
            &["d"],
            &measures(),
            &CubeOptions {
                shards: 3,
                max_retries: 1,
                fault_plan: Some(Arc::clone(&plan)),
            },
        )
        .unwrap();
        assert!(!retried.is_degraded());
        let clean =
            build_cube(&facts(), &["d"], &measures(), &CubeOptions::with_shards(3)).unwrap();
        assert_eq!(clean.table.fingerprint(), retried.table.fingerprint());

        // No retry budget: every shard fails; the cube is empty but the
        // call still succeeds and reports the damage.
        let degraded = build_cube(
            &facts(),
            &["d"],
            &measures(),
            &CubeOptions {
                shards: 3,
                max_retries: 0,
                fault_plan: Some(plan),
            },
        )
        .unwrap();
        assert!(degraded.is_degraded());
        assert_eq!(degraded.failed_shards, vec![0, 1, 2]);
        assert_eq!(degraded.total_shards, 3);
        assert_eq!(degraded.table.n_rows(), 0);
    }

    #[test]
    fn missing_columns_are_errors() {
        assert!(build_cube(&facts(), &["nope"], &measures(), &CubeOptions::default()).is_err());
        assert!(build_cube(
            &facts(),
            &["d"],
            &[Measure::Sum("nope".into())],
            &CubeOptions::default()
        )
        .is_err());
        // A repeated output column is refused up front with the error the
        // reference gives once it has aggregated every row.
        for (dims, measures) in [
            (vec!["d", "d"], measures()),
            (vec!["d"], vec![Measure::Sum("v".into()); 2]),
        ] {
            let want = crate::reference::Cube::new(facts(), &dims, measures.clone())
                .and_then(|c| c.rollup(&dims))
                .unwrap_err();
            let got = build_cube(&facts(), &dims, &measures, &CubeOptions::default()).unwrap_err();
            assert_eq!(got.to_string(), want.to_string());
        }
        let got = build_cube(&facts(), &["d", "d"], &measures(), &CubeOptions::default());
        assert_eq!(got.unwrap_err().to_string(), "duplicate column: d");
    }
}
