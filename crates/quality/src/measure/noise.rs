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
//! The sample is kept column-major, and one query row's squared
//! distances to every row are built one dimension at a time,
//! `dist[j] += (a_d − col_d[j])²` — a loop that vectorizes across rows.
//! Attribute noise, which leaves each dimension out in turn, computes a
//! row's squared differences once and sums them per skipped dimension.
//! The operands and the dimension order are the reference's, so every
//! distance keeps its exact bits. The k nearest rows are kept by a
//! bounded sorted insertion over the rows in ascending index order under
//! `f64::total_cmp`, which selects the reference's neighbors in the
//! reference's (distance, index) order. Normalization and variance
//! accumulation also follow the reference's summation order, so for
//! tables within `max_rows` the estimates are bit-identical except where
//! the two documented bug fixes (exclusion handling, tie-breaking)
//! intentionally change them.
//!
//! A NaN or ±∞ feature cell is missing, like a null: it takes its
//! column's mean, so a table with such cells scores exactly what the
//! same table with those cells null scores.

use super::{pack_numeric, PackedColumn};
use openbi_table::{Column, Table, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// Cap on rows used by the quadratic estimators.
pub const DEFAULT_MAX_ROWS: usize = 512;

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
fn k_smallest_into(dist: &[f64], row: usize, k: usize, out: &mut Vec<(f64, usize)>) {
    out.clear();
    if k == 0 {
        return;
    }
    // The k-th distance once `out` is full.
    let mut kth: Option<f64> = None;
    for (j, &d) in dist.iter().enumerate() {
        if let Some(w) = kth {
            // `d > w` means `d` is not `total_cmp`-less than `w`, so one
            // float comparison turns most rows away; `total_cmp` decides
            // the rest (NaN, ±0, equal distances).
            if d > w || d.total_cmp(&w).is_ge() || j == row {
                continue;
            }
            out.pop();
        } else if j == row {
            continue;
        }
        // Insertion sort step: the new row goes after every entry at an
        // equal distance, so ties keep index order.
        out.push((d, j));
        let mut at = out.len() - 1;
        while at > 0 && out[at - 1].0.total_cmp(&d).is_gt() {
            out.swap(at - 1, at);
            at -= 1;
        }
        if out.len() == k {
            kth = Some(out[k - 1].0);
        }
    }
}

/// k-nearest-neighbor queries over a column-major sample, with the
/// scratch one query row needs.
struct Knn<'a> {
    cols: &'a [Vec<f64>],
    k: usize,
    /// The row [`Knn::load_row`] loaded.
    row: usize,
    /// `sq[d * n + j]` is `(cols[d][row] − cols[d][j])²`.
    sq: Vec<f64>,
    dist: Vec<f64>,
    nearest: Vec<(f64, usize)>,
}

impl<'a> Knn<'a> {
    /// Queries over `cols`, which hold at least one column of at least
    /// one row each.
    fn new(cols: &'a [Vec<f64>], k: usize) -> Self {
        let n = cols[0].len();
        Knn {
            cols,
            k,
            row: 0,
            sq: Vec::new(),
            dist: vec![0.0; n],
            nearest: Vec::with_capacity(k),
        }
    }

    /// The k nearest rows to `row` as `(squared distance, row)` pairs in
    /// (distance, index) order, the distance summed over every dimension
    /// in ascending order.
    fn nearest_to(&mut self, row: usize) -> &[(f64, usize)] {
        self.dist.fill(0.0);
        for col in self.cols {
            let a = col[row];
            for (s, &b) in self.dist.iter_mut().zip(col) {
                let diff = a - b;
                *s += diff * diff;
            }
        }
        k_smallest_into(&self.dist, row, self.k, &mut self.nearest);
        &self.nearest
    }

    /// Compute `row`'s squared difference to every row in every
    /// dimension, once for all the [`Knn::nearest_without`] queries that
    /// follow.
    fn load_row(&mut self, row: usize) {
        self.row = row;
        let n = self.dist.len();
        self.sq.resize(self.cols.len() * n, 0.0);
        for (col, sq) in self.cols.iter().zip(self.sq.chunks_exact_mut(n)) {
            let a = col[row];
            for (q, &b) in sq.iter_mut().zip(col) {
                let diff = a - b;
                *q = diff * diff;
            }
        }
    }

    /// As [`Knn::nearest_to`] for the loaded row, with dimension
    /// `skip_dim` left out of the distance.
    fn nearest_without(&mut self, skip_dim: usize) -> &[(f64, usize)] {
        let n = self.dist.len();
        self.dist.fill(0.0);
        for (d, sq) in self.sq.chunks_exact(n).enumerate() {
            if d == skip_dim {
                continue;
            }
            for (s, &q) in self.dist.iter_mut().zip(sq) {
                *s += q;
            }
        }
        k_smallest_into(&self.dist, self.row, self.k, &mut self.nearest);
        &self.nearest
    }
}

/// Dense label ids of the selected rows (`None` for a null cell) and the
/// number of distinct labels. Two cells share an id when they render to
/// the same `Value::to_string` text; string targets are interned by
/// borrow, other types through their rendering.
fn label_ids(col: &Column, rows: &[usize]) -> (Vec<Option<usize>>, usize) {
    let strs = col.as_str_slice();
    let mut ids: HashMap<Cow<str>, usize> = HashMap::new();
    let labels = rows
        .iter()
        .map(|&r| {
            let key = match strs {
                Some(s) => Cow::Borrowed(s[r].as_deref()?),
                None => match col.get(r).expect("in-bounds") {
                    Value::Null => return None,
                    v => Cow::Owned(v.to_string()),
                },
            };
            let next = ids.len();
            Some(*ids.entry(key).or_insert(next))
        })
        .collect();
    (labels, ids.len())
}

/// k-NN disagreement estimate of label noise; 0.0 when there is no
/// usable target, no numeric features, or fewer than `k + 1` sampled
/// rows.
///
/// `exclude` columns are kept out of the feature space **in addition to
/// the target** (the frozen reference only dropped the target, so an
/// identifier column would silently poison every neighborhood). A tie
/// for the neighborhood majority never counts as a disagreement when the
/// row's own label is among the tied maxima — the tie verdict no longer
/// depends on vote insertion order.
pub fn label_noise_estimate(
    table: &Table,
    target: &str,
    exclude: &[&str],
    k: usize,
    max_rows: usize,
    seed: u64,
) -> f64 {
    let mut ex: Vec<&str> = exclude.to_vec();
    if !ex.contains(&target) {
        ex.push(target);
    }
    label_noise_from_packed(table, target, &pack_numeric(table, &ex), k, max_rows, seed)
}

/// The label-noise kernel over already-packed feature columns (the
/// target must not be among them).
pub(crate) fn label_noise_from_packed(
    table: &Table,
    target: &str,
    packed: &[PackedColumn],
    k: usize,
    max_rows: usize,
    seed: u64,
) -> f64 {
    let Ok(target_col) = table.column(target) else {
        return 0.0;
    };
    let rows = selected_rows(table, max_rows, seed);
    let n = rows.len();
    if k == 0 || n < k + 1 {
        return 0.0;
    }
    let (labels, n_labels) = label_ids(target_col, &rows);
    let cols = normalized_columns(packed, &rows);
    if cols.is_empty() {
        return 0.0;
    }
    let mut knn = Knn::new(&cols, k);
    let mut votes = vec![0usize; n_labels];
    let mut disagreements = 0usize;
    let mut counted = 0usize;
    for (i, label) in labels.iter().enumerate() {
        let Some(own) = *label else { continue };
        let nearest = knn.nearest_to(i);
        let mut max_votes = 0;
        for &(_, j) in nearest {
            if let Some(l) = labels[j] {
                votes[l] += 1;
                max_votes = max_votes.max(votes[l]);
            }
        }
        if max_votes == 0 {
            continue;
        }
        counted += 1;
        if votes[own] < max_votes {
            disagreements += 1;
        }
        for &(_, j) in nearest {
            if let Some(l) = labels[j] {
                votes[l] = 0;
            }
        }
    }
    if counted == 0 {
        0.0
    } else {
        disagreements as f64 / counted as f64
    }
}

/// Local-roughness estimate of attribute noise in `[0,1]`; 0.0 when the
/// table has fewer than two usable numeric attributes or too few rows.
pub fn attribute_noise_estimate(
    table: &Table,
    exclude: &[&str],
    k: usize,
    max_rows: usize,
    seed: u64,
) -> f64 {
    attribute_noise_from_packed(table, &pack_numeric(table, exclude), k, max_rows, seed)
}

/// The attribute-noise kernel over already-packed columns.
pub(crate) fn attribute_noise_from_packed(
    table: &Table,
    packed: &[PackedColumn],
    k: usize,
    max_rows: usize,
    seed: u64,
) -> f64 {
    let rows = selected_rows(table, max_rows, seed);
    let n = rows.len();
    if n < k + 1 {
        return 0.0;
    }
    let cols = normalized_columns(packed, &rows);
    if cols.len() < 2 {
        return 0.0;
    }
    if k == 0 {
        // Every neighborhood is the row itself: zero local variance, so
        // the estimate is 0 for any dimension (exactly the reference's
        // result) — skip the O(n²) loop.
        return 0.0;
    }
    // Global variance per dimension; `None` marks a (near-)constant
    // dimension, which scores nothing.
    let global_var: Vec<Option<f64>> = cols
        .iter()
        .map(|col| {
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
        .collect();
    // Rows outside, dimensions inside: each row's squared differences
    // serve every skipped dimension, and `local_var_sum[d]` still
    // accumulates in row order.
    let mut local_var_sum = vec![0.0; cols.len()];
    let mut knn = Knn::new(&cols, k);
    for i in 0..n {
        knn.load_row(i);
        for (d, col) in cols.iter().enumerate() {
            if global_var[d].is_none() {
                continue;
            }
            let nearest = knn.nearest_without(d);
            // Neighbor values first, own value last — the reference's
            // summation order.
            let count = nearest.len() + 1;
            let mut sum = 0.0;
            for &(_, j) in nearest {
                sum += col[j];
            }
            sum += col[i];
            let m = sum / count as f64;
            let mut var = 0.0;
            for &(_, j) in nearest {
                let dv = col[j] - m;
                var += dv * dv;
            }
            let dv = col[i] - m;
            var += dv * dv;
            local_var_sum[d] += var / count as f64;
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::DEFAULT_NOISE_SEED;
    use openbi_table::Column;

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
        let noise = label_noise_estimate(&t, "class", &[], 5, DEFAULT_MAX_ROWS, SEED);
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
        let noise = label_noise_estimate(&t, "class", &[], 5, DEFAULT_MAX_ROWS, SEED);
        assert!(noise > 0.15, "noise estimate was {noise}");
    }

    #[test]
    fn missing_target_scores_zero() {
        let t = clean_table();
        assert_eq!(label_noise_estimate(&t, "nope", &[], 5, 512, SEED), 0.0);
    }

    #[test]
    fn tiny_table_scores_zero() {
        let t = Table::new(vec![
            Column::from_f64("x", [1.0, 2.0]),
            Column::from_str_values("class", ["a", "b"]),
        ])
        .unwrap();
        assert_eq!(label_noise_estimate(&t, "class", &[], 5, 512, SEED), 0.0);
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
        let s = attribute_noise_estimate(&structured, &[], 5, 512, SEED);
        let n = attribute_noise_estimate(&noisy, &[], 5, 512, SEED);
        assert!(s < n, "structured {s} should be below noisy {n}");
        assert!(s < 0.1, "structured roughness was {s}");
    }

    #[test]
    fn single_numeric_column_scores_zero() {
        let t = Table::new(vec![Column::from_f64("x", [1.0, 2.0, 3.0])]).unwrap();
        assert_eq!(attribute_noise_estimate(&t, &[], 3, 512, SEED), 0.0);
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
        ];
        let mut out = Vec::new();
        for dist in &vectors {
            let n = dist.len();
            for row in [0, n / 2, n - 1] {
                // k up to n + 1 covers k ≥ n − 1, where every other row
                // is selected.
                for k in 0..=n + 1 {
                    k_smallest_into(dist, row, k, &mut out);
                    let got: Vec<(u64, usize)> =
                        out.iter().map(|&(d, j)| (d.to_bits(), j)).collect();
                    assert_eq!(
                        got,
                        sorted_prefix(dist, row, k),
                        "dist {dist:?}, row {row}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_k_scores_zero() {
        let t = clean_table();
        assert_eq!(label_noise_estimate(&t, "class", &[], 0, 512, SEED), 0.0);
        assert_eq!(attribute_noise_estimate(&t, &[], 0, 512, SEED), 0.0);
    }
}
