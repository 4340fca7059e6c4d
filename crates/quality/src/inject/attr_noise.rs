//! Attribute (feature) noise: additive Gaussian perturbation of numeric
//! cells.

use super::Injector;
use openbi_table::{stats, Result, Rng, Table, TableError, Value};

/// Adds `N(0, (sigma_factor × column_std)²)` noise to a fraction of the
/// cells of each numeric column (excluding the listed columns). Cells are
/// read through `Column::numbers`: a null, NaN or ±∞ cell is missing,
/// enters no statistic and is left as it is.
#[derive(Debug, Clone)]
pub struct AttributeNoiseInjector {
    /// Fraction of cells perturbed per column.
    pub ratio: f64,
    /// Noise magnitude as a multiple of the column standard deviation.
    pub sigma_factor: f64,
    /// Columns never perturbed.
    pub excluded: Vec<String>,
}

impl AttributeNoiseInjector {
    /// Create an injector perturbing `ratio` of cells at
    /// `sigma_factor`×std magnitude.
    pub fn new(ratio: f64, sigma_factor: f64) -> Self {
        AttributeNoiseInjector {
            ratio,
            sigma_factor,
            excluded: vec![],
        }
    }

    /// Exclude columns from perturbation.
    pub fn exclude<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.excluded.extend(cols.into_iter().map(Into::into));
        self
    }
}

impl Injector for AttributeNoiseInjector {
    fn name(&self) -> &'static str {
        "attr_noise"
    }

    fn describe(&self) -> String {
        format!(
            "attribute noise: N(0,({:.1}·std)^2) on {:.0}% of numeric cells",
            self.sigma_factor,
            self.ratio * 100.0
        )
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if !(0.0..=1.0).contains(&self.ratio) || self.sigma_factor < 0.0 {
            return Err(TableError::InvalidArgument(
                "attr-noise ratio must be in [0,1] and sigma_factor >= 0".to_string(),
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
            let Some(std) = stats::std_dev(col) else {
                continue;
            };
            // A constant column still gets noise relative to |mean| so the
            // defect is observable; fall back to 1.0 for all-zero columns.
            let scale = if std > 0.0 {
                std * self.sigma_factor
            } else {
                stats::mean(col)
                    .map(f64::abs)
                    .filter(|m| *m > 0.0)
                    .unwrap_or(1.0)
                    * self.sigma_factor
            };
            let values = col.numbers();
            let n = values.len();
            let count = (self.ratio * n as f64).round() as usize;
            let is_int = col.dtype() == openbi_table::DataType::Int;
            for row in rng.sample_indices(n, count) {
                let x = values[row];
                if x.is_nan() {
                    continue;
                }
                let noisy = x + rng.gauss() * scale;
                let new = if is_int {
                    Value::Int(noisy.round() as i64)
                } else {
                    Value::Float(noisy)
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
    use openbi_table::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::from_f64("x", (0..100).map(f64::from).collect::<Vec<f64>>()),
            Column::from_i64("k", (0..100).collect::<Vec<i64>>()),
            Column::from_str_values("s", vec!["a"; 100]),
        ])
        .unwrap()
    }

    #[test]
    fn perturbs_requested_fraction() {
        let inj = AttributeNoiseInjector::new(0.3, 1.0);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        let changed = (0..100)
            .filter(|&i| out.get("x", i).unwrap() != table().get("x", i).unwrap())
            .count();
        // Gaussian noise may round to the same value very rarely; allow
        // tiny slack below the target.
        assert!((28..=30).contains(&changed), "changed {changed}");
    }

    #[test]
    fn integer_columns_stay_integer() {
        let inj = AttributeNoiseInjector::new(1.0, 2.0);
        let mut rng = Rng::seed_from_u64(2);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(
            out.column("k").unwrap().dtype(),
            openbi_table::DataType::Int
        );
    }

    #[test]
    fn string_columns_untouched() {
        let inj = AttributeNoiseInjector::new(1.0, 5.0);
        let mut rng = Rng::seed_from_u64(3);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(out.column("s").unwrap(), table().column("s").unwrap());
    }

    #[test]
    fn exclusion_respected() {
        let inj = AttributeNoiseInjector::new(1.0, 5.0).exclude(["x"]);
        let mut rng = Rng::seed_from_u64(4);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(out.column("x").unwrap(), table().column("x").unwrap());
    }

    #[test]
    fn magnitude_scales_with_sigma_factor() {
        let small = AttributeNoiseInjector::new(1.0, 0.1);
        let large = AttributeNoiseInjector::new(1.0, 2.0);
        let t = table();
        let base: Vec<f64> = (0..100).map(f64::from).collect();
        let diff = |out: &Table| -> f64 {
            (0..100)
                .map(|i| (out.get("x", i).unwrap().as_f64().unwrap() - base[i]).abs())
                .sum::<f64>()
        };
        let mut rng = Rng::seed_from_u64(5);
        let a = diff(&small.apply(&t, &mut rng).unwrap());
        let mut rng = Rng::seed_from_u64(5);
        let b = diff(&large.apply(&t, &mut rng).unwrap());
        assert!(b > a * 5.0, "large noise {b} should dwarf small {a}");
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = Rng::seed_from_u64(1);
        assert!(AttributeNoiseInjector::new(2.0, 1.0)
            .apply(&table(), &mut rng)
            .is_err());
        assert!(AttributeNoiseInjector::new(0.5, -1.0)
            .apply(&table(), &mut rng)
            .is_err());
    }
}
