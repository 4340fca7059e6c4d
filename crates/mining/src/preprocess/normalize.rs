//! Numeric normalization: min-max scaling and z-scoring of table
//! columns.
//!
//! Cells are read through `Column::numbers`: a null, NaN or ±∞ cell is
//! missing, enters no range, mean or deviation, and comes out null.

use crate::error::Result;
use openbi_table::{stats, Column, Table};

/// Replace column `name` of `out` with `scale` of each present cell of
/// `col`; a missing cell comes out null.
fn replace_scaled(
    out: &mut Table,
    name: &str,
    col: &Column,
    scale: impl Fn(f64) -> f64,
) -> Result<()> {
    let scaled = col
        .numbers()
        .into_iter()
        .map(|x| (!x.is_nan()).then(|| scale(x)));
    out.replace_column(Column::from_opt_f64(name.to_string(), scaled))?;
    Ok(())
}

/// Min-max scale the named numeric columns into `[0,1]` (constant
/// columns map to 0.5).
pub fn min_max_scale(table: &Table, columns: &[&str]) -> Result<Table> {
    let mut out = table.clone();
    for name in columns {
        let col = table.column(name)?;
        let Ok(summary) = stats::summarize(col) else {
            continue;
        };
        let (lo, hi) = (summary.min, summary.max);
        replace_scaled(&mut out, name, col, |x| {
            if hi > lo {
                (x - lo) / (hi - lo)
            } else {
                0.5
            }
        })?;
    }
    Ok(out)
}

/// Z-score the named numeric columns (constant columns map to 0).
pub fn z_score(table: &Table, columns: &[&str]) -> Result<Table> {
    let mut out = table.clone();
    for name in columns {
        let col = table.column(name)?;
        let Some(mean) = stats::mean(col) else {
            continue;
        };
        let std = stats::std_dev(col).unwrap_or(0.0);
        replace_scaled(&mut out, name, col, |x| {
            if std > 0.0 {
                (x - mean) / std
            } else {
                0.0
            }
        })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Value;

    fn table() -> Table {
        Table::new(vec![
            Column::from_f64("x", [0.0, 5.0, 10.0]),
            Column::from_opt_f64("y", [Some(2.0), None, Some(4.0)]),
            Column::from_f64("c", [7.0, 7.0, 7.0]),
        ])
        .unwrap()
    }

    #[test]
    fn min_max_maps_to_unit_interval() {
        let out = min_max_scale(&table(), &["x"]).unwrap();
        assert_eq!(out.get("x", 0).unwrap(), Value::Float(0.0));
        assert_eq!(out.get("x", 1).unwrap(), Value::Float(0.5));
        assert_eq!(out.get("x", 2).unwrap(), Value::Float(1.0));
    }

    #[test]
    fn nulls_preserved() {
        let out = min_max_scale(&table(), &["y"]).unwrap();
        assert!(out.get("y", 1).unwrap().is_null());
        assert_eq!(out.get("y", 0).unwrap(), Value::Float(0.0));
    }

    #[test]
    fn constant_column_maps_to_center() {
        let out = min_max_scale(&table(), &["c"]).unwrap();
        assert_eq!(out.get("c", 0).unwrap(), Value::Float(0.5));
        let out = z_score(&table(), &["c"]).unwrap();
        assert_eq!(out.get("c", 0).unwrap(), Value::Float(0.0));
    }

    #[test]
    fn z_score_standardizes() {
        let out = z_score(&table(), &["x"]).unwrap();
        let vals = out.column("x").unwrap().numbers();
        let mean = vals.iter().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_column_errors() {
        assert!(min_max_scale(&table(), &["nope"]).is_err());
        assert!(z_score(&table(), &["nope"]).is_err());
    }

    #[test]
    fn untouched_columns_survive() {
        let out = min_max_scale(&table(), &["x"]).unwrap();
        assert_eq!(out.column("c").unwrap(), table().column("c").unwrap());
    }
}
