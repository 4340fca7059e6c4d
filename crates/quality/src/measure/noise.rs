//! Noise estimation without ground truth.
//!
//! * **Label noise** is estimated by k-NN disagreement: the fraction of
//!   rows whose class label differs from the majority label of their k
//!   nearest neighbors in (min-max normalized) numeric feature space.
//!   Clean, separable data scores near 0; randomly flipped labels raise
//!   the score roughly linearly.
//! * **Attribute noise** is estimated by local roughness: for each
//!   numeric attribute, the variance of the attribute within each row's
//!   k-neighborhood (neighbors computed on the *other* attributes),
//!   relative to the attribute's global variance. Smooth structured data
//!   scores low; i.i.d. noise pushes the ratio toward 1.
//!
//! Both estimates are O(n²) in the sample, so rows are capped at
//! `max_rows` — drawn as a seeded deterministic sample of the whole table
//! (`Table::sample_indices`), not the first `max_rows` rows as the frozen
//! pre-rewrite estimator (`openbi_integration::reference::quality::noise`,
//! the test suites' oracle) does, so noise concentrated late in the table
//! is no longer invisible.
//!
//! **One sweep.** Both estimators are one pass over the sampled rows
//! (`Sweep`), so a profile draws the sample, normalizes its columns
//! (column-major) and builds each query row's distances once:
//!
//! 1. For each query row the squared differences
//!    `sq_e[j] = (a_e − col_e[j])²` are computed once, with their running
//!    prefix sums `0 + sq_0 + … + sq_e` in ascending dimension order. The
//!    last prefix is the full distance label noise uses — exactly the
//!    reference's `dist[j] += …` sequence.
//! 2. The distance without dimension `d`, which attribute noise uses,
//!    starts from the prefix below `d` and adds `sq_{d+1} … sq_{D−1}` in
//!    order: the reference's operands in the reference's order, so every
//!    sum keeps its bits, at D(D−1)/2 additions per row instead of
//!    D(D−1).
//! 3. The k nearest rows are kept by a bounded sorted insertion over the
//!    rows in ascending index order under `f64::total_cmp`, which selects
//!    the reference's neighbors in the reference's (distance, index)
//!    order. The scan skips each 8-row block whose every distance is
//!    above a bound: the current k-th distance, and for a skipped
//!    dimension also the largest without-`d` distance of the row's k
//!    nearest rows by full distance — k rows other than the query, so
//!    the k-th smallest without-`d` distance is at most that. A NaN
//!    distance or bound never lets a block be skipped.
//! 4. The rows are split into contiguous blocks, one per available core
//!    and at least `MIN_BLOCK_ROWS` rows each, swept by `par::map`.
//!    Label votes are integer counts; each (row, dimension) local
//!    variance lands in its own slot, and the slots are summed in row
//!    order after the join, so the estimates have the same bits at any
//!    block count.
//!
//! Normalization and variance accumulation also follow the reference's
//! summation order, so for tables within `max_rows` the estimates are
//! bit-identical except where the two documented bug fixes (exclusion
//! handling, tie-breaking) intentionally change them.
//!
//! A NaN or ±∞ feature cell is missing, like a null: it takes its
//! column's mean, so a table with such cells scores exactly what the
//! same table with those cells null scores.

use super::{pack_numeric, PackedColumn};
use openbi_table::{par, Table};
use std::ops::Range;

/// Cap on rows used by the quadratic estimators.
pub const DEFAULT_MAX_ROWS: usize = 512;

/// Fewest rows a sweep block takes, so a thread is only spawned for
/// work that outweighs starting it.
const MIN_BLOCK_ROWS: usize = 64;

/// Rows the bounded scan tests against its bound at once.
const SCAN_BLOCK: usize = 8;

/// Rows the estimators operate on: all of them when the table fits in
/// `max_rows`, otherwise a seeded deterministic sample, sorted ascending
/// so downstream accumulation stays in table row order.
fn selected_rows(table: &Table, max_rows: usize, seed: u64) -> Vec<usize> {
    let n = table.n_rows();
    if n <= max_rows {
        (0..n).collect()
    } else {
        let mut idx = table.sample_indices(max_rows, seed);
        idx.sort_unstable();
        idx
    }
}

/// Min-max normalized feature columns over the selected rows, one `Vec`
/// per kept column (`cols[d][i]` belongs to `rows[i]`); missing cells
/// become column means. Columns with no present cell among the selected
/// rows are dropped.
fn normalized_columns(packed: &[PackedColumn], rows: &[usize]) -> Vec<Vec<f64>> {
    packed
        .iter()
        .filter_map(|c| {
            // Normalization parameters, accumulated in row order — the
            // same addition order as the reference's per-column `Vec`s.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut sum = 0.0;
            let mut count = 0usize;
            for &r in rows {
                let v = c.values[r];
                if !v.is_nan() {
                    lo = lo.min(v);
                    hi = hi.max(v);
                    sum += v;
                    count += 1;
                }
            }
            if count == 0 {
                return None;
            }
            let span = if hi > lo { hi - lo } else { 1.0 };
            let mean = sum / count as f64;
            Some(
                rows.iter()
                    .map(|&r| {
                        let v = c.values[r];
                        let v = if v.is_nan() { mean } else { v };
                        (v - lo) / span
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Keep in `out` the `k` smallest `(dist[j], j)` pairs over every row
/// `j` except `row`, in (distance by [`f64::total_cmp`], index) order.
/// Rows arrive in ascending index order, so a row at an equal distance
/// never displaces an earlier one and lands after it.
///
/// `bound` must be at or above the k-th smallest such distance under
/// `total_cmp` (`f64::INFINITY` always is). A row farther than the bound,
/// or than the k-th distance kept so far, is not in the result: it is
/// passed over, and so is an 8-row block of such rows, at once.
fn k_smallest_into(dist: &[f64], row: usize, k: usize, bound: f64, out: &mut Vec<(f64, usize)>) {
    out.clear();
    if k == 0 {
        return;
    }
    // A row farther than `limit` cannot be among the k nearest.
    let mut limit = bound;
    for (b, block) in dist.chunks(SCAN_BLOCK).enumerate() {
        if let Ok(block) = <&[f64; SCAN_BLOCK]>::try_from(block) {
            // `d > limit` is false for a NaN on either side, so such a
            // block is always visited; `&` keeps the test branch-free.
            if block.iter().fold(true, |far, &d| far & (d > limit)) {
                continue;
            }
        }
        for (t, &d) in block.iter().enumerate() {
            let j = b * SCAN_BLOCK + t;
            if d > limit || j == row {
                continue;
            }
            if out.len() == k {
                // The limit check above turned most rows away;
                // `total_cmp` against the k-th decides the rest (NaN,
                // ±0, equal distances).
                if d.total_cmp(&out[k - 1].0).is_ge() {
                    continue;
                }
                out.pop();
            }
            // Insertion sort step: the new row goes after every entry at
            // an equal distance, so ties keep index order.
            out.push((d, j));
            let mut at = out.len() - 1;
            while at > 0 && out[at - 1].0.total_cmp(&d).is_gt() {
                out.swap(at - 1, at);
                at -= 1;
            }
            if out.len() == k {
                let w = out[k - 1].0;
                if w < limit || limit.is_nan() {
                    limit = w;
                }
            }
        }
    }
}

/// One query row's squared distances to every sampled row, in full and
/// with one dimension left out.
struct RowDistances<'a> {
    cols: &'a [Vec<f64>],
    n: usize,
    /// `sq[e * n + j]` is `(cols[e][row] − cols[e][j])²`.
    sq: Vec<f64>,
    /// `prefix[e * n + j]` is `0 + sq_0 + … + sq_e` for row `j`, added in
    /// that order.
    prefix: Vec<f64>,
    without: Vec<f64>,
}

impl<'a> RowDistances<'a> {
    /// Scratch for queries over `cols`, at least one column of at least
    /// one row each.
    fn new(cols: &'a [Vec<f64>]) -> Self {
        let n = cols[0].len();
        RowDistances {
            cols,
            n,
            sq: vec![0.0; cols.len() * n],
            prefix: vec![0.0; cols.len() * n],
            without: vec![0.0; n],
        }
    }

    /// Compute `row`'s squared differences and their prefix sums.
    fn load(&mut self, row: usize) {
        let n = self.n;
        for (col, sq) in self.cols.iter().zip(self.sq.chunks_exact_mut(n)) {
            let a = col[row];
            for (q, &b) in sq.iter_mut().zip(col) {
                let diff = a - b;
                *q = diff * diff;
            }
        }
        let (first, rest) = self.prefix.split_at_mut(n);
        for (p, &q) in first.iter_mut().zip(&self.sq) {
            *p = 0.0 + q;
        }
        let mut below: &[f64] = first;
        for (prefix, sq) in rest.chunks_exact_mut(n).zip(self.sq[n..].chunks_exact(n)) {
            for ((p, &s), &q) in prefix.iter_mut().zip(below).zip(sq) {
                *p = s + q;
            }
            below = prefix;
        }
    }

    /// The loaded row's distance to every row, summed over every
    /// dimension in ascending order.
    fn full(&self) -> &[f64] {
        &self.prefix[(self.cols.len() - 1) * self.n..]
    }

    /// The loaded row's distance to every row without dimension `d`, of
    /// at least two: the prefix below `d`, then `sq_{d+1} … sq_{D−1}`.
    fn without(&mut self, d: usize) -> &[f64] {
        let (n, last) = (self.n, self.cols.len() - 1);
        if d == last {
            return &self.prefix[(last - 1) * n..last * n];
        }
        let first = &self.sq[(d + 1) * n..(d + 2) * n];
        if d == 0 {
            for (w, &q) in self.without.iter_mut().zip(first) {
                *w = 0.0 + q;
            }
        } else {
            let below = &self.prefix[(d - 1) * n..d * n];
            for ((w, &s), &q) in self.without.iter_mut().zip(below).zip(first) {
                *w = s + q;
            }
        }
        for sq in self.sq[(d + 2) * n..].chunks_exact(n) {
            for (w, &q) in self.without.iter_mut().zip(sq) {
                *w += q;
            }
        }
        &self.without
    }
}

/// Global variance of each normalized column; `None` marks a
/// (near-)constant dimension, which scores nothing.
fn global_variances(cols: &[Vec<f64>]) -> Vec<Option<f64>> {
    cols.iter()
        .map(|col| {
            let n = col.len();
            let mut sum = 0.0;
            for &v in col {
                sum += v;
            }
            let mean = sum / n as f64;
            let mut var = 0.0;
            for &v in col {
                let dv = v - mean;
                var += dv * dv;
            }
            let var = var / n as f64;
            if var < 1e-12 {
                None
            } else {
                Some(var)
            }
        })
        .collect()
}

/// Both noise estimates of one table; 0.0 for an estimate that does not
/// apply.
#[derive(Debug)]
pub struct NoiseEstimates {
    /// k-NN disagreement estimate of label noise.
    pub label: f64,
    /// Local-roughness estimate of attribute noise, in `[0,1]`.
    pub attribute: f64,
}

/// Label-vote counts of a block of query rows.
#[derive(Debug, Default)]
struct Votes {
    disagreements: usize,
    counted: usize,
}

/// One table's noise sample and what each requested estimator reads.
struct Sweep {
    k: usize,
    /// Normalized feature columns of the sampled rows.
    cols: Vec<Vec<f64>>,
    /// Category codes of the sampled rows' labels and the category
    /// count, when label noise is estimated.
    labels: Option<(Vec<Option<usize>>, usize)>,
    /// Global variance per column, when attribute noise is estimated
    /// and some column varies.
    global_var: Option<Vec<Option<f64>>>,
}

impl Sweep {
    /// Draw the sample of `table` and prepare label noise against
    /// `target` (when given) and attribute noise.
    ///
    /// Label noise applies with a `target` column, `k ≥ 1`, at least
    /// `k + 1` sampled rows and one feature column; attribute noise with
    /// `k ≥ 1`, `k + 1` rows and two feature columns.
    fn new(
        table: &Table,
        target: Option<&str>,
        packed: &[PackedColumn],
        k: usize,
        max_rows: usize,
        seed: u64,
    ) -> Sweep {
        let target = target.and_then(|t| table.column(t).ok());
        let mut sweep = Sweep {
            k,
            cols: Vec::new(),
            labels: None,
            global_var: None,
        };
        if k == 0 {
            return sweep;
        }
        let rows = selected_rows(table, max_rows, seed);
        if rows.len() < k + 1 {
            return sweep;
        }
        sweep.cols = normalized_columns(packed, &rows);
        if sweep.cols.is_empty() {
            return sweep;
        }
        // Two labels vote alike when they are one category of the column.
        sweep.labels = target.map(|col| {
            let cats = col.categories();
            (rows.iter().map(|&r| cats.code(r)).collect(), cats.len())
        });
        if sweep.cols.len() >= 2 {
            let global_var = global_variances(&sweep.cols);
            if global_var.iter().any(Option::is_some) {
                sweep.global_var = Some(global_var);
            }
        }
        sweep
    }

    fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// Both estimates, the rows swept in `blocks` contiguous blocks (at
    /// most one per row).
    fn run(&self, blocks: usize) -> NoiseEstimates {
        let (n, dims) = (self.n_rows(), self.cols.len());
        if self.labels.is_none() && self.global_var.is_none() {
            return NoiseEstimates {
                label: 0.0,
                attribute: 0.0,
            };
        }
        // `local_var[i * dims + d]`: row i's local variance of column d.
        let stride = if self.global_var.is_some() { dims } else { 0 };
        let mut local_var = vec![0.0; n * stride];
        let blocks = blocks.clamp(1, n);
        let mut parts = Vec::with_capacity(blocks);
        let mut rest = local_var.as_mut_slice();
        for b in 0..blocks {
            let rows = b * n / blocks..(b + 1) * n / blocks;
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * stride);
            rest = tail;
            parts.push((rows, slots));
        }
        let votes = par::map(parts, |(rows, slots)| self.sweep_rows(rows, slots))
            .into_iter()
            .fold(Votes::default(), |sum, v| Votes {
                disagreements: sum.disagreements + v.disagreements,
                counted: sum.counted + v.counted,
            });
        let label = if votes.counted == 0 {
            0.0
        } else {
            votes.disagreements as f64 / votes.counted as f64
        };
        NoiseEstimates {
            label,
            attribute: self.roughness(&local_var),
        }
    }

    /// Sweep the query rows `rows`, writing each row's local variances
    /// to `slots` (`dims` per row, when attribute noise is estimated).
    fn sweep_rows(&self, rows: Range<usize>, slots: &mut [f64]) -> Votes {
        let k = self.k;
        let dims = self.cols.len();
        let mut dist = RowDistances::new(&self.cols);
        let mut nearest = Vec::with_capacity(k);
        let mut nearest_without = Vec::with_capacity(k);
        let mut votes = Votes::default();
        let mut tally = vec![0usize; self.labels.as_ref().map_or(0, |l| l.1)];
        let first = rows.start;
        for i in rows {
            let own = self.labels.as_ref().and_then(|(labels, _)| labels[i]);
            if own.is_none() && self.global_var.is_none() {
                continue;
            }
            dist.load(i);
            k_smallest_into(dist.full(), i, k, f64::INFINITY, &mut nearest);
            if let (Some(own), Some((labels, _))) = (own, &self.labels) {
                let mut max_votes = 0;
                for &(_, j) in &nearest {
                    if let Some(l) = labels[j] {
                        tally[l] += 1;
                        max_votes = max_votes.max(tally[l]);
                    }
                }
                if max_votes > 0 {
                    votes.counted += 1;
                    if tally[own] < max_votes {
                        votes.disagreements += 1;
                    }
                }
                for &(_, j) in &nearest {
                    if let Some(l) = labels[j] {
                        tally[l] = 0;
                    }
                }
            }
            let Some(global_var) = &self.global_var else {
                continue;
            };
            let slots = &mut slots[(i - first) * dims..(i - first + 1) * dims];
            for (d, col) in self.cols.iter().enumerate() {
                if global_var[d].is_none() {
                    continue;
                }
                let without = dist.without(d);
                // The k nearest by full distance are k rows other than
                // `i`, so their largest distance without `d` bounds the
                // k-th smallest one.
                let bound = nearest
                    .iter()
                    .map(|&(_, j)| without[j])
                    .max_by(f64::total_cmp)
                    .unwrap_or(f64::INFINITY);
                k_smallest_into(without, i, k, bound, &mut nearest_without);
                // Neighbor values first, own value last — the reference's
                // summation order.
                let count = nearest_without.len() + 1;
                let mut sum = 0.0;
                for &(_, j) in &nearest_without {
                    sum += col[j];
                }
                sum += col[i];
                let m = sum / count as f64;
                let mut var = 0.0;
                for &(_, j) in &nearest_without {
                    let dv = col[j] - m;
                    var += dv * dv;
                }
                let dv = col[i] - m;
                var += dv * dv;
                slots[d] = var / count as f64;
            }
        }
        votes
    }

    /// The attribute-noise estimate from every row's local variances,
    /// summed per column in row order.
    fn roughness(&self, local_var: &[f64]) -> f64 {
        let Some(global_var) = &self.global_var else {
            return 0.0;
        };
        let dims = self.cols.len();
        let mut local_var_sum = vec![0.0; dims];
        for row in local_var.chunks_exact(dims) {
            for ((sum, &v), gv) in local_var_sum.iter_mut().zip(row).zip(global_var) {
                if gv.is_some() {
                    *sum += v;
                }
            }
        }
        let n = self.n_rows();
        let mut ratio_sum = 0.0;
        let mut ratio_count = 0usize;
        for (gv, local_sum) in global_var.iter().zip(&local_var_sum) {
            let Some(gv) = gv else { continue };
            let local_var = local_sum / n as f64;
            ratio_sum += (local_var / gv).min(1.0);
            ratio_count += 1;
        }
        if ratio_count == 0 {
            0.0
        } else {
            ratio_sum / ratio_count as f64
        }
    }
}

/// Label noise against `target` (when given) and attribute noise of
/// `table` over already-packed feature columns (the target must not be
/// among them), from one sweep over the sampled rows split across the
/// available cores.
pub(crate) fn estimates_from_packed(
    table: &Table,
    target: Option<&str>,
    packed: &[PackedColumn],
    k: usize,
    max_rows: usize,
    seed: u64,
) -> NoiseEstimates {
    let sweep = Sweep::new(table, target, packed, k, max_rows, seed);
    let blocks = par::cores().min(sweep.n_rows() / MIN_BLOCK_ROWS);
    sweep.run(blocks)
}

/// Both noise estimates of `table` over its numeric columns, leaving out
/// `exclude` and the target.
///
/// * `label`: the k-NN disagreement estimate of label noise against
///   `target`; 0.0 when there is no usable target, no numeric feature,
///   or fewer than `k + 1` sampled rows.
/// * `attribute`: the local-roughness estimate of attribute noise in
///   `[0,1]`; 0.0 with fewer than two usable numeric features or too
///   few rows.
///
/// `exclude` columns are kept out of the feature space **in addition to
/// the target** (the frozen reference only dropped the target, so an
/// identifier column would silently poison every neighborhood). A tie
/// for the neighborhood majority never counts as a disagreement when the
/// row's own label is among the tied maxima — the tie verdict no longer
/// depends on vote insertion order.
pub fn noise_estimates(
    table: &Table,
    target: Option<&str>,
    exclude: &[&str],
    k: usize,
    max_rows: usize,
    seed: u64,
) -> NoiseEstimates {
    let mut ex: Vec<&str> = exclude.to_vec();
    ex.extend(target);
    let packed = pack_numeric(table, &ex);
    estimates_from_packed(table, target, &packed, k, max_rows, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::DEFAULT_NOISE_SEED;
    use openbi_table::{Column, Value};

    const SEED: u64 = DEFAULT_NOISE_SEED;

    /// Two well-separated clusters with consistent labels.
    fn clean_table() -> Table {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut label = Vec::new();
        for i in 0..20 {
            let off = i as f64 * 0.01;
            x.push(0.0 + off);
            y.push(0.0 + off);
            label.push("a");
            x.push(10.0 + off);
            y.push(10.0 - off);
            label.push("b");
        }
        Table::new(vec![
            Column::from_f64("x", x),
            Column::from_f64("y", y),
            Column::from_str_values("class", label),
        ])
        .unwrap()
    }

    #[test]
    fn clean_labels_score_near_zero() {
        let t = clean_table();
        let noise = noise_estimates(&t, Some("class"), &[], 5, DEFAULT_MAX_ROWS, SEED).label;
        assert!(noise < 0.05, "noise estimate was {noise}");
    }

    #[test]
    fn flipped_labels_raise_estimate() {
        let mut t = clean_table();
        // Flip every 4th label.
        for i in (0..t.n_rows()).step_by(4) {
            let v = t.get("class", i).unwrap();
            let flipped = if v == Value::Str("a".into()) {
                "b"
            } else {
                "a"
            };
            t.set("class", i, Value::Str(flipped.into())).unwrap();
        }
        let noise = noise_estimates(&t, Some("class"), &[], 5, DEFAULT_MAX_ROWS, SEED).label;
        assert!(noise > 0.15, "noise estimate was {noise}");
    }

    #[test]
    fn missing_target_scores_zero() {
        let t = clean_table();
        let noise = noise_estimates(&t, Some("nope"), &[], 5, 512, SEED);
        assert_eq!(noise.label, 0.0);
    }

    #[test]
    fn tiny_table_scores_zero() {
        let t = Table::new(vec![
            Column::from_f64("x", [1.0, 2.0]),
            Column::from_str_values("class", ["a", "b"]),
        ])
        .unwrap();
        let noise = noise_estimates(&t, Some("class"), &[], 5, 512, SEED);
        assert_eq!(noise.label, 0.0);
    }

    #[test]
    fn structured_attributes_scored_smoother_than_random() {
        // Structured: y = x (smooth manifold).
        let xs: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let structured = Table::new(vec![
            Column::from_f64("x", xs.clone()),
            Column::from_f64("y", xs.clone()),
        ])
        .unwrap();
        // Noisy: y jumps around deterministically but incoherently.
        let noisy_y: Vec<f64> = (0..60).map(|i| ((i * 7919) % 61) as f64).collect();
        let noisy = Table::new(vec![
            Column::from_f64("x", xs),
            Column::from_f64("y", noisy_y),
        ])
        .unwrap();
        let s = noise_estimates(&structured, None, &[], 5, 512, SEED).attribute;
        let n = noise_estimates(&noisy, None, &[], 5, 512, SEED).attribute;
        assert!(s < n, "structured {s} should be below noisy {n}");
        assert!(s < 0.1, "structured roughness was {s}");
    }

    #[test]
    fn single_numeric_column_scores_zero() {
        let t = Table::new(vec![Column::from_f64("x", [1.0, 2.0, 3.0])]).unwrap();
        let noise = noise_estimates(&t, None, &[], 3, 512, SEED);
        assert_eq!(noise.attribute, 0.0);
    }

    /// The selection oracle: every `(distance, index)` pair but `row`,
    /// fully sorted by (distance `total_cmp`, index), first `k` kept.
    fn sorted_prefix(dist: &[f64], row: usize, k: usize) -> Vec<(u64, usize)> {
        let mut all: Vec<(f64, usize)> = dist
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != row)
            .map(|(j, &d)| (d, j))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.iter().take(k).map(|&(d, j)| (d.to_bits(), j)).collect()
    }

    /// Every bound the scan may be given for `k`: each distance and a
    /// few specials at or above the k-th smallest distance under
    /// `total_cmp` (every value when fewer than `k` other rows exist).
    fn bounds_from_kth(dist: &[f64], row: usize, k: usize) -> Vec<f64> {
        let specials = [0.0, -0.0, f64::MAX, f64::INFINITY, f64::NAN, -f64::NAN];
        let prefix = sorted_prefix(dist, row, k);
        let mut bounds: Vec<f64> = dist.iter().chain(&specials).copied().collect();
        if k > 0 && prefix.len() == k {
            let kth = f64::from_bits(prefix[k - 1].0);
            bounds.retain(|b| b.total_cmp(&kth).is_ge());
        } else {
            bounds = vec![f64::INFINITY];
        }
        bounds
    }

    /// The bounded scan against the full sort at every `row` of interest,
    /// every `k` and every bound from the k-th distance upward.
    fn check_scan(dist: &[f64]) {
        let mut out = Vec::new();
        let n = dist.len();
        for row in [0, n / 2, n - 1] {
            // k up to n + 1 covers k ≥ n − 1, where every other row is
            // selected.
            for k in 0..=n + 1 {
                let expected = sorted_prefix(dist, row, k);
                for bound in bounds_from_kth(dist, row, k) {
                    k_smallest_into(dist, row, k, bound, &mut out);
                    let got: Vec<(u64, usize)> =
                        out.iter().map(|&(d, j)| (d.to_bits(), j)).collect();
                    assert_eq!(
                        got, expected,
                        "dist {dist:?}, row {row}, k {k}, bound {bound}"
                    );
                }
            }
        }
    }

    /// The bounded scan keeps the full sort's first k for every bound
    /// from the k-th distance up, on ties, ±0, NaN of both signs, ∞,
    /// lengths off a multiple of 8 and the kernel's own NaN distances.
    #[test]
    fn bounded_insertion_matches_a_full_sort() {
        let (nan, neg_nan, inf) = (f64::NAN, -f64::NAN, f64::INFINITY);
        let vectors: Vec<Vec<f64>> = vec![
            vec![0.5; 9],
            vec![nan; 5],
            vec![neg_nan; 5],
            vec![inf; 6],
            vec![nan, 0.0, neg_nan, 1.0, inf, 0.0, nan, neg_nan, 0.25, -0.0],
            vec![3.0, inf, 0.0, 0.0, 3.0, 1e-300, nan, 2.0, neg_nan, inf],
            (0..40).map(|i| ((i * 37) % 7) as f64 * 0.5).collect(),
            // Ties at every bound, across block edges, at lengths 17 and
            // 23 (not multiples of 8).
            (0..17).map(|i| ((i * 5) % 3) as f64).collect(),
            (0..23).map(|i| [0.0, -0.0, 1.0, 1.0, inf][i % 5]).collect(),
            // Whole blocks far above the k-th distance, then near rows
            // late in the scan.
            (0..35)
                .map(|i| {
                    if i < 24 {
                        9.0 + i as f64
                    } else {
                        (i % 4) as f64
                    }
                })
                .collect(),
            // NaN of both signs inside otherwise skippable blocks.
            (0..26)
                .map(|i| match i % 9 {
                    4 => nan,
                    7 => neg_nan,
                    _ => 5.0 + (i % 3) as f64,
                })
                .collect(),
        ];
        for dist in &vectors {
            check_scan(dist);
        }
        // Finite cells near ±`f64::MAX` overflow a column's span, so its
        // normalized values and the full and leave-one-out distances
        // built from them hold NaN.
        let n = 19;
        let huge: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => f64::MAX,
                1 => -f64::MAX,
                2 => f64::MAX / 3.0,
                _ => i as f64,
            })
            .collect();
        let small: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
        let t = Table::new(vec![
            Column::from_f64("huge", huge),
            Column::from_f64("small", small.clone()),
            Column::from_f64("again", small),
        ])
        .unwrap();
        let rows: Vec<usize> = (0..n).collect();
        let cols = normalized_columns(&pack_numeric(&t, &[]), &rows);
        let mut dist = RowDistances::new(&cols);
        let mut saw_nan = false;
        for row in 0..n {
            dist.load(row);
            saw_nan |= dist.full().iter().any(|d| d.is_nan());
            check_scan(dist.full());
            for d in 0..cols.len() {
                check_scan(dist.without(d));
            }
        }
        assert!(saw_nan, "an overflowing span must yield NaN distances");
    }

    /// The prefix sums and leave-one-out sums are the per-dimension sums
    /// of the squared differences, added in ascending dimension order.
    #[test]
    fn distances_add_the_reference_operands_in_order() {
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|d| {
                (0..13)
                    .map(|j| ((j * (d + 3)) % 7) as f64 / 7.0 + 0.1 * d as f64)
                    .collect()
            })
            .collect();
        let mut dist = RowDistances::new(&cols);
        for row in [0, 6, 12] {
            dist.load(row);
            let sq = |e: usize, j: usize| {
                let diff = cols[e][row] - cols[e][j];
                diff * diff
            };
            let reference = |skip: Option<usize>| -> Vec<u64> {
                (0..13)
                    .map(|j| {
                        let mut s = 0.0;
                        for e in (0..5).filter(|&e| Some(e) != skip) {
                            s += sq(e, j);
                        }
                        s.to_bits()
                    })
                    .collect()
            };
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(dist.full()), reference(None));
            for d in 0..5 {
                assert_eq!(bits(dist.without(d)), reference(Some(d)), "without {d}");
            }
        }
    }

    /// The tables of the integration suite's `noise_cases` — vote ties,
    /// exclusions, sampling, non-finite and null cells, distance ties,
    /// very low dimension, non-string labels, a constant column — as
    /// `(name, table, target, exclude, max_rows)`.
    fn noise_cases() -> Vec<(&'static str, Table, &'static str, Vec<&'static str>, usize)> {
        let class_of = |r: usize, classes: usize| (r * 7 + r / 3) % classes;
        let clustered = |n: usize, dims: usize, classes: usize, spread: f64, seed: u64| {
            let mut rng = openbi_table::Rng::seed_from_u64(seed);
            let mut cols = vec![Vec::with_capacity(n); dims];
            for r in 0..n {
                let c = class_of(r, classes) as f64;
                for (d, col) in cols.iter_mut().enumerate() {
                    col.push(Some(0.3 * c * (d + 1) as f64 + spread * (rng.f64() - 0.5)));
                }
            }
            cols
        };
        // (name, rows, dims, classes, spread, seed, label classes, a
        // null label every so many rows, max_rows)
        let specs = [
            ("three_class_ties", 150, 3, 3, 2.5, 1, 3, 0, 512),
            ("id_excluded", 120, 2, 2, 1.5, 2, 2, 0, 512),
            ("sampled_1300_rows", 1300, 3, 2, 1.2, 3, 2, 0, 512),
            ("nan_and_null_cells", 90, 3, 2, 1.0, 4, 2, 9, 512),
            ("infinite_cells", 80, 4, 2, 1.0, 5, 2, 0, 512),
            ("mixed_specials_sampled", 100, 3, 3, 2.0, 6, 3, 8, 60),
            ("duplicate_rows", 30, 2, 2, 1.0, 7, 3, 0, 512),
            ("one_feature", 60, 1, 2, 1.5, 8, 2, 0, 512),
            ("two_features", 60, 2, 3, 1.5, 9, 3, 0, 512),
            ("int_target", 70, 3, 3, 2.0, 10, 3, 0, 512),
            ("float_target", 75, 2, 5, 2.0, 11, 5, 0, 512),
            ("constant_column", 64, 2, 2, 1.0, 12, 2, 0, 512),
        ];
        let mut cases = Vec::new();
        for (name, n, dims, classes, spread, seed, label_classes, null_every, max_rows) in specs {
            let mut f = clustered(n, dims, classes, spread, seed);
            let (mut cols, mut exclude, mut target) = (Vec::new(), vec![], "class");
            match name {
                "id_excluded" => {
                    cols.push(Column::from_i64("id", 0..120));
                    exclude.push("id");
                }
                "nan_and_null_cells" => {
                    (0..90).step_by(7).for_each(|r| f[0][r] = Some(f64::NAN));
                    (3..90).step_by(11).for_each(|r| f[0][r] = Some(-f64::NAN));
                    (1..90).step_by(5).for_each(|r| f[1][r] = None);
                    (6..90).step_by(13).for_each(|r| f[2][r] = Some(f64::NAN));
                }
                "infinite_cells" => {
                    f[0][4] = Some(f64::INFINITY);
                    f[1][9] = Some(f64::NEG_INFINITY);
                    f[3][2] = Some(f64::INFINITY);
                    f[3][50] = Some(f64::NEG_INFINITY);
                }
                "mixed_specials_sampled" => {
                    for r in (0..100).step_by(6) {
                        f[0][r] = Some(f64::NAN);
                        f[0][r + 1] = Some(-f64::NAN);
                    }
                    (5..100).step_by(17).for_each(|r| f[2][r] = None);
                    f[1][33] = Some(f64::INFINITY);
                }
                // 30 distinct points, each three times.
                "duplicate_rows" => {
                    f = f
                        .iter()
                        .map(|c| (0..90).map(|r| c[r % 30]).collect())
                        .collect();
                }
                "int_target" | "float_target" => target = "y",
                _ => {}
            }
            let rows = f[0].len();
            cols.extend(
                f.into_iter()
                    .enumerate()
                    .map(|(d, v)| Column::from_opt_f64(format!("f{d}"), v)),
            );
            if name == "constant_column" {
                cols.push(Column::from_f64("constant", vec![3.0; 64]));
            }
            let labelled = |r: usize| null_every == 0 || r % null_every != null_every - 1;
            let float_labels = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5];
            cols.push(match name {
                "int_target" => Column::from_opt_i64(
                    "y",
                    (0..rows).map(|r| (r % 10 != 4).then_some(class_of(r, 3) as i64)),
                ),
                "float_target" => Column::from_opt_f64(
                    "y",
                    (0..rows).map(|r| (r % 12 != 7).then_some(float_labels[class_of(r, 5)])),
                ),
                _ => Column::from_opt_str(
                    "class",
                    (0..rows)
                        .map(|r| labelled(r).then(|| format!("c{}", class_of(r, label_classes)))),
                ),
            });
            cases.push((name, Table::new(cols).unwrap(), target, exclude, max_rows));
        }
        cases
    }

    /// The sweep's estimates have the same bits at any row-block count,
    /// and those are the bits of the public entry point.
    #[test]
    fn sweep_bits_do_not_depend_on_the_block_count() {
        for (name, table, target, exclude, max_rows) in noise_cases() {
            let mut ex = exclude.clone();
            ex.push(target);
            let packed = pack_numeric(&table, &ex);
            for k in [1, 3, 5, 12] {
                let sweep = Sweep::new(&table, Some(target), &packed, k, max_rows, SEED);
                let one = sweep.run(1);
                for blocks in [2, 3, 7] {
                    let many = sweep.run(blocks);
                    assert_eq!(
                        [many.label.to_bits(), many.attribute.to_bits()],
                        [one.label.to_bits(), one.attribute.to_bits()],
                        "{name} k={k}: {blocks} blocks"
                    );
                }
                let entry = noise_estimates(&table, Some(target), &exclude, k, max_rows, SEED);
                assert_eq!(
                    [entry.label.to_bits(), entry.attribute.to_bits()],
                    [one.label.to_bits(), one.attribute.to_bits()],
                    "{name} k={k}: the public entry point"
                );
            }
        }
    }

    #[test]
    fn zero_k_scores_zero() {
        let t = clean_table();
        let noise = noise_estimates(&t, Some("class"), &[], 0, 512, SEED);
        assert_eq!([noise.label, noise.attribute], [0.0, 0.0]);
    }
}
