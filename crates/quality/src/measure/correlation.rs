//! Inter-attribute correlation / redundancy measurement.
//!
//! The paper's own motivating example (§3.1): strongly correlated inputs
//! make a classifier's output "correct but not useful". These measures
//! quantify that redundancy so the advisor can warn about it.
//!
//! The kernel is columnar: all pairwise coefficients are accumulated in
//! two row-major sweeps over the packed column slices (sweep 1: per-pair
//! counts and sums for the means; sweep 2: per-pair centered co-moments),
//! instead of the reference's per-pair `pearson` re-scans, each of which
//! cloned the sub-table and re-converted both columns. Accumulation
//! order per pair is row order — the same addition order the reference
//! uses — so the coefficients are bit-identical.

use super::{pack_numeric, PackedColumn};
use openbi_table::Table;

/// Redundancy summary over the numeric columns of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationReport {
    /// Maximum absolute pairwise Pearson correlation (0 if < 2 columns).
    pub max_abs: f64,
    /// Mean absolute pairwise Pearson correlation (0 if < 2 columns).
    pub mean_abs: f64,
    /// Pairs with |r| above the redundancy threshold, as
    /// `(col_a, col_b, r)`.
    pub redundant_pairs: Vec<(String, String, f64)>,
}

/// Compute the correlation report; `exclude` columns (e.g. the target and
/// identifiers) are skipped. `threshold` flags redundant pairs.
pub fn correlation_report(table: &Table, exclude: &[&str], threshold: f64) -> CorrelationReport {
    report_from_packed(&pack_numeric(table, exclude), threshold)
}

/// The correlation kernel over already-packed columns.
///
/// A cell participates in a pair iff both cells are present — the same
/// pair filter as `openbi_table::stats::pearson`, which also reads
/// `Column::numbers`.
pub(crate) fn report_from_packed(packed: &[PackedColumn], threshold: f64) -> CorrelationReport {
    let p = packed.len();
    // `saturating_sub`: a table with no numeric feature column has p = 0.
    let n_pairs = p * p.saturating_sub(1) / 2;
    let n_rows = packed.first().map(|c| c.values.len()).unwrap_or(0);
    let mut cnt = vec![0usize; n_pairs];
    let mut sx = vec![0.0f64; n_pairs];
    let mut sy = vec![0.0f64; n_pairs];
    let mut usable = vec![false; p];
    let mut vals = vec![0.0f64; p];
    // Sweep 1: per-pair complete-pair counts and coordinate sums.
    for r in 0..n_rows {
        for (d, c) in packed.iter().enumerate() {
            let v = c.values[r];
            usable[d] = !v.is_nan();
            vals[d] = v;
        }
        let mut t = 0;
        for i in 0..p {
            for j in (i + 1)..p {
                if usable[i] && usable[j] {
                    cnt[t] += 1;
                    sx[t] += vals[i];
                    sy[t] += vals[j];
                }
                t += 1;
            }
        }
    }
    let mx: Vec<f64> = cnt
        .iter()
        .zip(&sx)
        .map(|(&n, &s)| if n > 0 { s / n as f64 } else { 0.0 })
        .collect();
    let my: Vec<f64> = cnt
        .iter()
        .zip(&sy)
        .map(|(&n, &s)| if n > 0 { s / n as f64 } else { 0.0 })
        .collect();
    // Sweep 2: centered co-moments around the per-pair means.
    let mut sxy = vec![0.0f64; n_pairs];
    let mut sxx = vec![0.0f64; n_pairs];
    let mut syy = vec![0.0f64; n_pairs];
    for r in 0..n_rows {
        for (d, c) in packed.iter().enumerate() {
            let v = c.values[r];
            usable[d] = !v.is_nan();
            vals[d] = v;
        }
        let mut t = 0;
        for i in 0..p {
            for j in (i + 1)..p {
                if usable[i] && usable[j] {
                    let dx = vals[i] - mx[t];
                    let dy = vals[j] - my[t];
                    sxy[t] += dx * dy;
                    sxx[t] += dx * dx;
                    syy[t] += dy * dy;
                }
                t += 1;
            }
        }
    }
    let mut max_abs: f64 = 0.0;
    let mut sum_abs = 0.0;
    let mut count = 0usize;
    let mut redundant_pairs = Vec::new();
    let mut t = 0;
    for i in 0..p {
        for j in (i + 1)..p {
            // Same guards as `stats::pearson`: needs ≥ 2 complete pairs,
            // nonzero variance on both sides and a non-NaN quotient
            // (co-moments that overflow to ∞ give ∞/∞); otherwise the
            // pair contributes 0 (matching `pearson(..).unwrap_or(0.0)`).
            let r = if cnt[t] < 2 || sxx[t] == 0.0 || syy[t] == 0.0 {
                0.0
            } else {
                let r = sxy[t] / (sxx[t] * syy[t]).sqrt();
                if r.is_nan() {
                    0.0
                } else {
                    r.clamp(-1.0, 1.0)
                }
            };
            max_abs = max_abs.max(r.abs());
            sum_abs += r.abs();
            count += 1;
            if r.abs() >= threshold {
                redundant_pairs.push((packed[i].name.clone(), packed[j].name.clone(), r));
            }
            t += 1;
        }
    }
    CorrelationReport {
        max_abs,
        mean_abs: if count == 0 {
            0.0
        } else {
            sum_abs / count as f64
        },
        redundant_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    fn table_with_copy() -> Table {
        Table::new(vec![
            Column::from_f64("x", [1.0, 2.0, 3.0, 4.0]),
            Column::from_f64("x_copy", [2.0, 4.0, 6.0, 8.0]),
            Column::from_f64("z", [4.0, 1.0, 3.0, 2.0]),
            Column::from_str_values("label", ["a", "b", "a", "b"]),
        ])
        .unwrap()
    }

    #[test]
    fn detects_redundant_pair() {
        let r = correlation_report(&table_with_copy(), &["label"], 0.95);
        assert!((r.max_abs - 1.0).abs() < 1e-9);
        assert_eq!(r.redundant_pairs.len(), 1);
        assert_eq!(r.redundant_pairs[0].0, "x");
        assert_eq!(r.redundant_pairs[0].1, "x_copy");
    }

    #[test]
    fn exclusion_removes_columns() {
        let r = correlation_report(&table_with_copy(), &["x_copy", "label"], 0.95);
        assert!(r.redundant_pairs.is_empty());
        assert!(r.max_abs < 0.95);
    }

    #[test]
    fn single_numeric_column_is_zero() {
        let t = Table::new(vec![Column::from_f64("only", [1.0, 2.0])]).unwrap();
        let r = correlation_report(&t, &[], 0.9);
        assert_eq!(r.max_abs, 0.0);
        assert_eq!(r.mean_abs, 0.0);
    }

    #[test]
    fn mean_abs_averages_pairs() {
        let r = correlation_report(&table_with_copy(), &["label"], 0.99);
        assert!(r.mean_abs > 0.0 && r.mean_abs < 1.0);
    }

    #[test]
    fn nan_cells_do_not_poison_coefficients() {
        let t = Table::new(vec![
            Column::from_f64("a", [1.0, f64::NAN, 3.0, 4.0]),
            Column::from_f64("b", [2.0, 5.0, 6.0, 8.0]),
        ])
        .unwrap();
        let r = correlation_report(&t, &[], 0.9);
        assert!(r.max_abs.is_finite());
        assert!(r.mean_abs.is_finite());
    }
}
