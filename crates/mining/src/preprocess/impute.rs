//! Missing-value imputation: mean/mode baseline and k-NN imputation
//! (Troyanskaya et al. \[16\], the paper's reference for missing-value
//! estimation).
//!
//! Numeric cells are read through `Column::numbers`, so a NaN or ±∞
//! cell is missing here, as it is to the mining and quality kernels: it
//! never enters a mean, a min-max range or a k-NN distance, and it is
//! filled like a null, so a table with such cells imputes exactly like
//! the same table with those cells null.

use crate::error::Result;
use openbi_table::{stats, Column, DataType, Table, Value};

/// The cell that fills a missing slot of `col` with `value`: rounded in
/// an integer column.
fn numeric_fill(col: &Column, value: f64) -> Value {
    if col.dtype() == DataType::Int {
        Value::Int(value.round() as i64)
    } else {
        Value::Float(value)
    }
}

/// Fill numeric missing cells (null, NaN or ±∞) with the mean of the
/// column's finite cells and string/bool nulls with the column mode.
/// Columns with no present cell are left unchanged.
pub fn impute_mean_mode(table: &Table, exclude: &[&str]) -> Result<Table> {
    let mut out = table.clone();
    for col in table.columns() {
        if exclude.contains(&col.name()) {
            continue;
        }
        let name = col.name().to_string();
        if col.dtype().is_numeric() {
            if let Some(mean) = stats::mean(col) {
                for (row, _) in col.numbers().iter().enumerate().filter(|(_, x)| x.is_nan()) {
                    out.set(&name, row, numeric_fill(col, mean))?;
                }
            }
        } else if col.null_count() > 0 {
            let mode = stats::value_counts(col)
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .map(|(v, _)| match col.dtype() {
                    DataType::Bool => Value::Bool(v == "true"),
                    _ => Value::Str(v),
                });
            if let Some(fill) = mode {
                for row in 0..col.len() {
                    if col.get(row)?.is_null() {
                        out.set(&name, row, fill.clone())?;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// k-NN imputation of numeric columns: each missing cell (null, NaN or
/// ±∞) is filled with the mean of that attribute among the k nearest
/// rows (distance over min-max-normalized numeric attributes present in
/// both rows). Non-numeric columns fall back to mode imputation.
/// Quadratic; intended for datasets in the experiment-size range.
///
/// The normalized feature matrix is one flat row-major `Vec<f64>` with
/// NaN at missing cells (no per-row allocations), and neighbor selection
/// partitions the k nearest with `select_nth_unstable_by` using a
/// `(distance, row)` tie-break — the same k rows, in the same order, as
/// the old full sort.
pub fn impute_knn(table: &Table, k: usize, exclude: &[&str]) -> Result<Table> {
    let numeric: Vec<&Column> = table
        .columns()
        .iter()
        .filter(|c| c.dtype().is_numeric() && !exclude.contains(&c.name()))
        .collect();
    let cells: Vec<Vec<f64>> = numeric.iter().map(|col| col.numbers()).collect();
    let n = table.n_rows();
    let d = numeric.len();
    // Flat row-major normalized matrix, NaN where a cell is missing.
    let mut values = vec![f64::NAN; n * d];
    for (ci, raw) in cells.iter().enumerate() {
        // A column with no present cell keeps (∞, −∞) and only NaN cells.
        let (lo, hi) = raw
            .iter()
            .filter(|x| !x.is_nan())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let span = if hi > lo { hi - lo } else { 1.0 };
        for (r, &x) in raw.iter().enumerate() {
            values[r * d + ci] = (x - lo) / span;
        }
    }
    let distance = |a: usize, b: usize| -> Option<f64> {
        let (va, vb) = (&values[a * d..(a + 1) * d], &values[b * d..(b + 1) * d]);
        let mut sum = 0.0;
        let mut dims = 0usize;
        for i in 0..d {
            if !va[i].is_nan() && !vb[i].is_nan() {
                sum += (va[i] - vb[i]) * (va[i] - vb[i]);
                dims += 1;
            }
        }
        // Require at least one shared dimension.
        (dims > 0).then(|| (sum / dims as f64).sqrt())
    };
    let mut out = table.clone();
    for (col, raw) in numeric.iter().zip(&cells) {
        let name = col.name().to_string();
        let mean = stats::mean(col);
        for row in 0..n {
            if !raw[row].is_nan() {
                continue;
            }
            // Neighbors with a value in this attribute.
            let mut candidates: Vec<(f64, usize, f64)> = (0..n)
                .filter(|&j| j != row && !raw[j].is_nan())
                .filter_map(|j| Some((distance(row, j)?, j, raw[j])))
                .collect();
            // (distance, row index) is a total order, so partition + sort
            // of the front yields exactly the old stable full sort's
            // first k entries.
            let order = |a: &(f64, usize, f64), b: &(f64, usize, f64)| {
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            };
            let kk = k.min(candidates.len());
            if kk > 0 && kk < candidates.len() {
                candidates.select_nth_unstable_by(kk - 1, order);
            }
            candidates[..kk].sort_unstable_by(order);
            let neighbors = &candidates[..kk];
            let fill = if neighbors.is_empty() {
                mean
            } else {
                Some(neighbors.iter().map(|(_, _, v)| *v).sum::<f64>() / neighbors.len() as f64)
            };
            if let Some(f) = fill {
                out.set(&name, row, numeric_fill(col, f))?;
            }
        }
    }
    // Non-numeric nulls: mode.
    impute_mean_mode(&out, exclude)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_mode_fills_all_kinds() {
        let t = Table::new(vec![
            Column::from_opt_f64("x", [Some(1.0), None, Some(3.0)]),
            Column::from_opt_i64("k", [Some(2), None, Some(4)]),
            Column::from_opt_str("s", [Some("a".to_string()), Some("a".to_string()), None]),
        ])
        .unwrap();
        let out = impute_mean_mode(&t, &[]).unwrap();
        assert_eq!(out.total_null_count(), 0);
        assert_eq!(out.get("x", 1).unwrap(), Value::Float(2.0));
        assert_eq!(out.get("k", 1).unwrap(), Value::Int(3));
        assert_eq!(out.get("s", 2).unwrap(), Value::Str("a".into()));
    }

    #[test]
    fn exclusions_left_null() {
        let t = Table::new(vec![Column::from_opt_f64("x", [Some(1.0), None])]).unwrap();
        let out = impute_mean_mode(&t, &["x"]).unwrap();
        assert_eq!(out.total_null_count(), 1);
    }

    #[test]
    fn all_null_column_left_alone() {
        let t = Table::new(vec![Column::from_opt_f64("x", [None, None])]).unwrap();
        let out = impute_mean_mode(&t, &[]).unwrap();
        assert_eq!(out.total_null_count(), 2);
    }

    #[test]
    fn knn_uses_local_structure() {
        // Two clusters: x≈0 has y≈0, x≈10 has y≈100. A missing y at
        // x=10.2 should be imputed near 100, not the global mean (~50).
        let mut xs = Vec::new();
        let mut ys: Vec<Option<f64>> = Vec::new();
        for i in 0..10 {
            xs.push(i as f64 * 0.1);
            ys.push(Some(i as f64 * 0.1));
            xs.push(10.0 + i as f64 * 0.1);
            ys.push(Some(100.0 + i as f64 * 0.1));
        }
        xs.push(10.2);
        ys.push(None);
        let t = Table::new(vec![
            Column::from_f64("x", xs),
            Column::from_opt_f64("y", ys),
        ])
        .unwrap();
        let out = impute_knn(&t, 3, &[]).unwrap();
        let filled = out.get("y", 20).unwrap().as_f64().unwrap();
        assert!(filled > 90.0, "kNN imputed {filled}, expected ≈100");
        // Mean imputation would give ~50.
        let mean_out = impute_mean_mode(&t, &[]).unwrap();
        let mean_filled = mean_out.get("y", 20).unwrap().as_f64().unwrap();
        assert!((mean_filled - 50.0).abs() < 5.0);
    }

    #[test]
    fn knn_falls_back_to_mean_when_isolated() {
        // Row 2 shares no observed dimensions with others except y itself.
        let t = Table::new(vec![
            Column::from_opt_f64("x", [Some(0.0), Some(1.0), None]),
            Column::from_opt_f64("y", [Some(10.0), Some(20.0), None]),
        ])
        .unwrap();
        let out = impute_knn(&t, 2, &[]).unwrap();
        assert_eq!(out.get("y", 2).unwrap(), Value::Float(15.0));
    }

    /// 60 rows whose `x` has two nulls, an ∞ and a NaN: both imputers
    /// fill the four cells from the finite ones, as they fill the table
    /// with those two cells null.
    #[test]
    fn non_finite_cells_impute_like_nulls() {
        let x = |special: [Option<f64>; 2]| {
            Column::from_opt_f64(
                "x",
                (0..60).map(|i| match i {
                    7 | 31 => None,
                    19 => special[0],
                    44 => special[1],
                    _ => Some((i % 10) as f64),
                }),
            )
        };
        let y = Column::from_f64("y", (0..60).map(|i| (i % 10) as f64 * 2.0 + (i % 3) as f64));
        let odd = Table::new(vec![x([Some(f64::INFINITY), Some(f64::NAN)]), y.clone()]).unwrap();
        let twin = Table::new(vec![x([None, None]), y]).unwrap();
        let imputers: [fn(&Table) -> Table; 2] = [
            |t| impute_mean_mode(t, &[]).unwrap(),
            |t| impute_knn(t, 5, &[]).unwrap(),
        ];
        for impute in imputers {
            let (got, want) = (impute(&odd), impute(&twin));
            assert_eq!(got.fingerprint(), want.fingerprint());
            let x = got.column("x").unwrap().numbers();
            assert!(x.iter().all(|v| !v.is_nan()), "{x:?}");
        }
    }

    #[test]
    fn knn_preserves_integer_type() {
        let t = Table::new(vec![
            Column::from_f64("x", [0.0, 0.1, 0.2, 5.0]),
            Column::from_opt_i64("k", [Some(10), Some(10), None, Some(99)]),
        ])
        .unwrap();
        let out = impute_knn(&t, 2, &[]).unwrap();
        assert_eq!(out.column("k").unwrap().dtype(), DataType::Int);
        assert_eq!(out.get("k", 2).unwrap(), Value::Int(10));
    }
}
