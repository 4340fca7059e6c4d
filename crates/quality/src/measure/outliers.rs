//! Outlier detection over numeric columns (Tukey IQR fences).
//!
//! The table-level ratio is a columnar kernel: each packed column's
//! present cells are gathered into one reused scratch buffer, sorted once
//! for the quartiles, and fence violations are counted directly — no
//! per-column index-vector materialization as in the reference.

use super::{pack_numeric, PackedColumn};
use openbi_table::{stats, Table};

/// Fraction of numeric cells that are 1.5×IQR outliers, over the whole
/// table (excluding the named columns).
pub fn outlier_ratio(table: &Table, exclude: &[&str]) -> f64 {
    ratio_from_packed(&pack_numeric(table, exclude))
}

/// Tukey's 1.5×IQR fences `(lo, hi)` of a column's present cells, which
/// it sorts in place; `None` for fewer than 4 cells. The cells must be
/// finite: a NaN or ±∞ cell is missing and is left out by the caller.
pub fn iqr_fences(cells: &mut [f64]) -> Option<(f64, f64)> {
    const K: f64 = 1.5;
    if cells.len() < 4 {
        return None;
    }
    cells.sort_by(f64::total_cmp);
    let q1 = stats::quantile_sorted(cells, 0.25);
    let q3 = stats::quantile_sorted(cells, 0.75);
    let iqr = q3 - q1;
    Some((q1 - K * iqr, q3 + K * iqr))
}

/// The outlier-ratio kernel over already-packed columns: one sort per
/// column into a reused scratch buffer, [`iqr_fences`].
pub(crate) fn ratio_from_packed(packed: &[PackedColumn]) -> f64 {
    let mut outliers = 0usize;
    let mut cells = 0usize;
    let mut scratch: Vec<f64> = Vec::new();
    for col in packed {
        scratch.clear();
        scratch.extend(col.values.iter().filter(|v| !v.is_nan()));
        cells += scratch.len();
        let Some((lo, hi)) = iqr_fences(&mut scratch) else {
            continue;
        };
        outliers += scratch.iter().filter(|&&x| x < lo || x > hi).count();
    }
    if cells == 0 {
        0.0
    } else {
        outliers as f64 / cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    #[test]
    fn iqr_small_sample_returns_empty() {
        // `y` has 2 present cells: they count as cells, never as outliers.
        let t = Table::new(vec![
            Column::from_f64("x", [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]),
            Column::from_opt_f64("y", [Some(1.0), Some(100.0), None, None, None, None]),
        ])
        .unwrap();
        assert!((outlier_ratio(&t, &[]) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn table_ratio_respects_exclusions() {
        let t = Table::new(vec![
            Column::from_f64("x", [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]),
            Column::from_f64("skip", [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]),
        ])
        .unwrap();
        let with = outlier_ratio(&t, &[]);
        let without = outlier_ratio(&t, &["skip"]);
        assert!((with - 2.0 / 12.0).abs() < 1e-12);
        assert!((without - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn nulls_are_ignored() {
        // A null and a NaN cell are both missing: 1 outlier in 5 cells.
        let t = Table::new(vec![Column::from_opt_f64(
            "x",
            [
                Some(1.0),
                Some(2.0),
                Some(3.0),
                Some(4.0),
                None,
                Some(100.0),
                Some(f64::NAN),
            ],
        )])
        .unwrap();
        assert!((outlier_ratio(&t, &[]) - 1.0 / 5.0).abs() < 1e-12);
    }
}
