//! Outlier injection: replace a fraction of numeric cells with extreme
//! values.

use super::Injector;
use openbi_table::{stats, Result, Rng, Table, TableError, Value};

/// Replaces `ratio` of each numeric column's cells with values placed
/// `magnitude` standard deviations away from the mean (random sign).
/// Cells are read through `Column::numbers`: a null, NaN or ±∞ cell is
/// missing, enters neither the mean nor the deviation and is left as it
/// is.
#[derive(Debug, Clone)]
pub struct OutlierInjector {
    /// Fraction of cells per numeric column turned into outliers.
    pub ratio: f64,
    /// Distance from the mean, in standard deviations (should be > 3 to
    /// clear the usual fences).
    pub magnitude: f64,
    /// Columns never touched.
    pub excluded: Vec<String>,
}

impl OutlierInjector {
    /// Create an injector.
    pub fn new(ratio: f64, magnitude: f64) -> Self {
        OutlierInjector {
            ratio,
            magnitude,
            excluded: vec![],
        }
    }

    /// Exclude columns.
    pub fn exclude<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.excluded.extend(cols.into_iter().map(Into::into));
        self
    }
}

impl Injector for OutlierInjector {
    fn name(&self) -> &'static str {
        "outliers"
    }

    fn describe(&self) -> String {
        format!(
            "outliers: {:.0}% of numeric cells moved {:.1} std from the mean",
            self.ratio * 100.0,
            self.magnitude
        )
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if !(0.0..=1.0).contains(&self.ratio) || self.magnitude <= 0.0 {
            return Err(TableError::InvalidArgument(
                "outlier ratio must be in [0,1] and magnitude > 0".to_string(),
            ));
        }
        let mut out = table.clone();
        let names: Vec<String> = table
            .columns()
            .iter()
            .filter(|c| c.dtype().is_numeric() && !self.excluded.iter().any(|e| e == c.name()))
            .map(|c| c.name().to_string())
            .collect();
        for name in names {
            let col = table.column(&name)?;
            let (Some(mean), Some(std)) = (stats::mean(col), stats::std_dev(col)) else {
                continue;
            };
            let std = if std > 0.0 { std } else { mean.abs().max(1.0) };
            let values = col.numbers();
            let n = values.len();
            let count = (self.ratio * n as f64).round() as usize;
            let is_int = col.dtype() == openbi_table::DataType::Int;
            for row in rng.sample_indices(n, count) {
                if values[row].is_nan() {
                    continue;
                }
                let sign = if rng.bool() { 1.0 } else { -1.0 };
                // Jitter the distance a little so injected outliers are
                // not a single repeated value.
                let dist = self.magnitude * (1.0 + rng.f64() * 0.5);
                let v = mean + sign * dist * std;
                let new = if is_int {
                    Value::Int(v.round() as i64)
                } else {
                    Value::Float(v)
                };
                out.set(&name, row, new)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::outliers::outlier_ratio;
    use openbi_table::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::from_f64("x", (0..200).map(|i| (i % 20) as f64).collect::<Vec<f64>>()),
            Column::from_str_values("class", vec!["a"; 200]),
        ])
        .unwrap()
    }

    #[test]
    fn injected_outliers_are_measured() {
        let inj = OutlierInjector::new(0.05, 6.0);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        let before = outlier_ratio(&table(), &[]);
        let after = outlier_ratio(&out, &[]);
        assert_eq!(before, 0.0);
        assert!(after >= 0.04, "after = {after}");
    }

    #[test]
    fn zero_ratio_identity() {
        let inj = OutlierInjector::new(0.0, 5.0);
        let mut rng = Rng::seed_from_u64(2);
        assert_eq!(inj.apply(&table(), &mut rng).unwrap(), table());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = Rng::seed_from_u64(3);
        assert!(OutlierInjector::new(-0.1, 5.0)
            .apply(&table(), &mut rng)
            .is_err());
        assert!(OutlierInjector::new(0.1, 0.0)
            .apply(&table(), &mut rng)
            .is_err());
    }

    #[test]
    fn excluded_columns_untouched() {
        let t = Table::new(vec![
            Column::from_f64("x", (0..50).map(f64::from).collect::<Vec<f64>>()),
            Column::from_f64("keep", (0..50).map(f64::from).collect::<Vec<f64>>()),
        ])
        .unwrap();
        let inj = OutlierInjector::new(0.5, 8.0).exclude(["keep"]);
        let mut rng = Rng::seed_from_u64(4);
        let out = inj.apply(&t, &mut rng).unwrap();
        assert_eq!(out.column("keep").unwrap(), t.column("keep").unwrap());
        assert_ne!(out.column("x").unwrap(), t.column("x").unwrap());
    }
}
