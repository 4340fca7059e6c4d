//! Outlier detection over numeric columns (Tukey IQR fences).
//!
//! The table-level ratio is a columnar kernel: each packed column's
//! present cells are gathered into one reused scratch buffer, sorted once
//! for the quartiles, and fence violations are counted directly — no
//! per-column index-vector materialization as in the reference.

use super::{pack_numeric, PackedColumn};
use openbi_table::{stats, Column, Table};

/// Row indices of cells outside the `k`×IQR fences of a numeric column.
pub fn iqr_outliers(column: &Column, k: f64) -> Vec<usize> {
    let values = column.to_f64_vec();
    let mut non_null: Vec<f64> = values.iter().flatten().copied().collect();
    if non_null.len() < 4 {
        return vec![];
    }
    non_null.sort_by(f64::total_cmp);
    let q1 = stats::quantile_sorted(&non_null, 0.25);
    let q3 = stats::quantile_sorted(&non_null, 0.75);
    let iqr = q3 - q1;
    let lo = q1 - k * iqr;
    let hi = q3 + k * iqr;
    values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v {
            Some(x) if *x < lo || *x > hi => Some(i),
            _ => None,
        })
        .collect()
}

/// Fraction of numeric cells that are 1.5×IQR outliers, over the whole
/// table (excluding the named columns).
pub fn outlier_ratio(table: &Table, exclude: &[&str]) -> f64 {
    ratio_from_packed(&pack_numeric(table, exclude))
}

/// The outlier-ratio kernel over already-packed columns: one sort per
/// column into a reused scratch buffer, 1.5×IQR fences.
pub(crate) fn ratio_from_packed(packed: &[PackedColumn]) -> f64 {
    const K: f64 = 1.5;
    let mut outliers = 0usize;
    let mut cells = 0usize;
    let mut scratch: Vec<f64> = Vec::new();
    for col in packed {
        scratch.clear();
        scratch.extend(col.values.iter().filter(|v| !v.is_nan()));
        cells += scratch.len();
        if scratch.len() < 4 {
            continue;
        }
        scratch.sort_by(f64::total_cmp);
        let q1 = stats::quantile_sorted(&scratch, 0.25);
        let q3 = stats::quantile_sorted(&scratch, 0.75);
        let iqr = q3 - q1;
        let lo = q1 - K * iqr;
        let hi = q3 + K * iqr;
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

    #[test]
    fn iqr_flags_extreme_point() {
        let c = Column::from_f64("x", [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]);
        assert_eq!(iqr_outliers(&c, 1.5), vec![5]);
    }

    #[test]
    fn iqr_small_sample_returns_empty() {
        let c = Column::from_f64("x", [1.0, 100.0]);
        assert!(iqr_outliers(&c, 1.5).is_empty());
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
        let c = Column::from_opt_f64(
            "x",
            [
                Some(1.0),
                Some(2.0),
                Some(3.0),
                Some(4.0),
                None,
                Some(100.0),
            ],
        );
        assert_eq!(iqr_outliers(&c, 1.5), vec![5]);
    }
}
