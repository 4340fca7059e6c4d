//! Discretization of numeric columns into labeled bins — the bridge from
//! numeric data to association-rule mining.

use crate::error::{MiningError, Result};
use openbi_table::{stats, Column, Table};

/// Binning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStrategy {
    /// Equal-width bins over `[min, max]`.
    EqualWidth,
    /// Equal-frequency bins (quantile cut points).
    EqualFrequency,
}

/// Replace a numeric column with a string column of bin labels
/// `"{name}=b{i}"`. Cells are read through `Column::numbers`: a null,
/// NaN or ±∞ cell is missing, moves no cut point and gets a null label.
pub fn discretize_column(
    table: &Table,
    name: &str,
    bins: usize,
    strategy: BinStrategy,
) -> Result<Table> {
    if bins < 2 {
        return Err(MiningError::InvalidParameter(
            "discretization needs at least 2 bins".into(),
        ));
    }
    let col = table.column(name)?;
    if !col.dtype().is_numeric() {
        return Err(MiningError::InvalidParameter(format!(
            "column {name} is not numeric"
        )));
    }
    let values = col.numbers();
    let mut present: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if present.is_empty() {
        return Err(MiningError::InvalidDataset(format!(
            "column {name} has no numeric values"
        )));
    }
    present.sort_by(f64::total_cmp);
    let lo = present[0];
    let hi = present[present.len() - 1];
    // Cut points between bins (ascending, len = bins - 1).
    let cuts: Vec<f64> = match strategy {
        BinStrategy::EqualWidth => {
            let width = (hi - lo) / bins as f64;
            (1..bins).map(|i| lo + width * i as f64).collect()
        }
        BinStrategy::EqualFrequency => (1..bins)
            .map(|i| stats::quantile_sorted(&present, i as f64 / bins as f64))
            .collect(),
    };
    let bin_of = |x: f64| -> usize { cuts.iter().filter(|&&c| x >= c).count() };
    let labels: Vec<Option<String>> = values
        .into_iter()
        .map(|x| (!x.is_nan()).then(|| format!("{name}=b{}", bin_of(x) + 1)))
        .collect();
    let mut out = table.clone();
    out.replace_column(Column::from_opt_str(name.to_string(), labels))?;
    Ok(out)
}

/// Discretize every numeric column of a table (identifiers and the like
/// can be excluded).
pub fn discretize_all(
    table: &Table,
    bins: usize,
    strategy: BinStrategy,
    exclude: &[&str],
) -> Result<Table> {
    let numeric: Vec<String> = table
        .columns()
        .iter()
        .filter(|c| c.dtype().is_numeric() && !exclude.contains(&c.name()))
        .map(|c| c.name().to_string())
        .collect();
    let mut out = table.clone();
    for name in numeric {
        out = discretize_column(&out, &name, bins, strategy)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Value;

    fn table() -> Table {
        Table::new(vec![Column::from_f64(
            "x",
            (0..100).map(f64::from).collect::<Vec<f64>>(),
        )])
        .unwrap()
    }

    #[test]
    fn equal_width_splits_range() {
        let out = discretize_column(&table(), "x", 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(out.get("x", 0).unwrap(), Value::Str("x=b1".into()));
        assert_eq!(out.get("x", 30).unwrap(), Value::Str("x=b2".into()));
        assert_eq!(out.get("x", 99).unwrap(), Value::Str("x=b4".into()));
    }

    #[test]
    fn equal_frequency_balances_counts() {
        // Skewed data: equal-width would cram most rows into bin 1.
        let vals: Vec<f64> = (0..100)
            .map(|i| if i < 90 { i as f64 } else { 1000.0 })
            .collect();
        let t = Table::new(vec![Column::from_f64("x", vals)]).unwrap();
        let out = discretize_column(&t, "x", 4, BinStrategy::EqualFrequency).unwrap();
        let mut counts = std::collections::HashMap::new();
        for i in 0..100 {
            *counts
                .entry(out.get("x", i).unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        for (_, c) in counts {
            assert!((20..=30).contains(&c), "bin count {c}");
        }
    }

    #[test]
    fn nulls_stay_null() {
        let t = Table::new(vec![Column::from_opt_f64(
            "x",
            [Some(1.0), None, Some(3.0), Some(5.0)],
        )])
        .unwrap();
        let out = discretize_column(&t, "x", 2, BinStrategy::EqualWidth).unwrap();
        assert!(out.get("x", 1).unwrap().is_null());
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(discretize_column(&table(), "x", 1, BinStrategy::EqualWidth).is_err());
        assert!(discretize_column(&table(), "nope", 2, BinStrategy::EqualWidth).is_err());
        let t = Table::new(vec![Column::from_str_values("s", ["a"])]).unwrap();
        assert!(discretize_column(&t, "s", 2, BinStrategy::EqualWidth).is_err());
    }

    #[test]
    fn discretize_all_skips_excluded() {
        let t = Table::new(vec![
            Column::from_f64("a", [1.0, 2.0, 3.0]),
            Column::from_f64("id", [1.0, 2.0, 3.0]),
            Column::from_str_values("s", ["x", "y", "z"]),
        ])
        .unwrap();
        let out = discretize_all(&t, 2, BinStrategy::EqualWidth, &["id"]).unwrap();
        assert_eq!(
            out.column("a").unwrap().dtype(),
            openbi_table::DataType::Str
        );
        assert_eq!(
            out.column("id").unwrap().dtype(),
            openbi_table::DataType::Float
        );
        assert_eq!(out.column("s").unwrap(), t.column("s").unwrap());
    }
}
