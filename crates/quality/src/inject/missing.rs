//! Missing-value injection: MCAR and MAR mechanisms.

use super::Injector;
use openbi_table::{Result, Rng, Table, TableError, Value};

/// How missingness depends on the data.
#[derive(Debug, Clone, PartialEq)]
pub enum MissingMechanism {
    /// Missing Completely At Random: every cell equally likely.
    Mcar,
    /// Missing At Random: rows in the upper half of `driver`'s values are
    /// `skew` times as likely to lose cells as the rest. The driver
    /// column itself never loses values. The driver is read through
    /// `Column::numbers`: a row whose driver cell is null, NaN or ±∞ has
    /// no value, enters no median and has the low rows' weight.
    Mar {
        /// Numeric column whose value drives missingness.
        driver: String,
        /// Likelihood multiplier for high-driver rows (≥ 1).
        skew: f64,
    },
}

/// Injects nulls into feature cells at a target ratio.
#[derive(Debug, Clone)]
pub struct MissingInjector {
    /// Target fraction of affected cells among eligible cells.
    pub ratio: f64,
    /// The mechanism.
    pub mechanism: MissingMechanism,
    /// Columns never nulled (targets, identifiers).
    pub excluded: Vec<String>,
}

impl MissingInjector {
    /// MCAR injector at `ratio`.
    pub fn mcar(ratio: f64) -> Self {
        MissingInjector {
            ratio,
            mechanism: MissingMechanism::Mcar,
            excluded: vec![],
        }
    }

    /// MAR injector at `ratio`, driven by `driver` with skew 3×.
    pub fn mar(ratio: f64, driver: impl Into<String>) -> Self {
        MissingInjector {
            ratio,
            mechanism: MissingMechanism::Mar {
                driver: driver.into(),
                skew: 3.0,
            },
            excluded: vec![],
        }
    }

    /// Exclude columns from injection.
    pub fn exclude<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.excluded.extend(cols.into_iter().map(Into::into));
        self
    }
}

impl Injector for MissingInjector {
    fn name(&self) -> &'static str {
        "missing"
    }

    fn describe(&self) -> String {
        match &self.mechanism {
            MissingMechanism::Mcar => format!("MCAR missing values at ratio {:.2}", self.ratio),
            MissingMechanism::Mar { driver, skew } => format!(
                "MAR missing values at ratio {:.2} driven by '{driver}' (skew {skew:.1}x)",
                self.ratio
            ),
        }
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if !(0.0..=1.0).contains(&self.ratio) {
            return Err(TableError::InvalidArgument(format!(
                "missing ratio {} outside [0,1]",
                self.ratio
            )));
        }
        let mut out = table.clone();
        let mut excluded: Vec<&str> = self.excluded.iter().map(String::as_str).collect();
        if let MissingMechanism::Mar { driver, .. } = &self.mechanism {
            table.column(driver)?; // must exist
            excluded.push(driver);
        }
        let eligible: Vec<String> = table
            .column_names()
            .into_iter()
            .filter(|n| !excluded.contains(n))
            .map(str::to_string)
            .collect();
        let n_rows = table.n_rows();
        if eligible.is_empty() || n_rows == 0 {
            return Ok(out);
        }
        // Enumerate eligible cells as (col_idx, row) pairs; weight rows
        // under MAR by replicating high-driver rows `skew` times in the
        // sampling pool (then dedup when applying).
        let total_cells = eligible.len() * n_rows;
        let target = (self.ratio * total_cells as f64).round() as usize;
        match &self.mechanism {
            MissingMechanism::Mcar => {
                let picks = rng.sample_indices(total_cells, target);
                for p in picks {
                    let col = &eligible[p / n_rows];
                    let row = p % n_rows;
                    out.set(col, row, Value::Null)?;
                }
            }
            MissingMechanism::Mar { driver, skew } => {
                let dvals = table.column(driver)?.numbers();
                let mut sorted: Vec<f64> = dvals.iter().copied().filter(|v| !v.is_nan()).collect();
                sorted.sort_by(f64::total_cmp);
                let median = if sorted.is_empty() {
                    0.0
                } else {
                    sorted[sorted.len() / 2]
                };
                let weight = |row: usize| -> usize {
                    let v = dvals[row];
                    if !v.is_nan() && v >= median {
                        (*skew).round().max(1.0) as usize
                    } else {
                        1
                    }
                };
                // Weighted pool of cell indices.
                let mut pool: Vec<(usize, usize)> = Vec::new();
                for (ci, _) in eligible.iter().enumerate() {
                    for row in 0..n_rows {
                        for _ in 0..weight(row) {
                            pool.push((ci, row));
                        }
                    }
                }
                let mut nulled = std::collections::HashSet::new();
                let picks = rng.sample_indices(pool.len(), pool.len());
                for p in picks {
                    if nulled.len() >= target {
                        break;
                    }
                    let (ci, row) = pool[p];
                    if nulled.insert((ci, row)) {
                        out.set(&eligible[ci], row, Value::Null)?;
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(vec![
            openbi_table::Column::from_f64("a", (0..100).map(f64::from).collect::<Vec<f64>>()),
            openbi_table::Column::from_f64(
                "b",
                (0..100).map(|i| f64::from(i * 2)).collect::<Vec<f64>>(),
            ),
            openbi_table::Column::from_str_values(
                "class",
                (0..100)
                    .map(|i| if i % 2 == 0 { "x" } else { "y" })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn mcar_hits_target_ratio() {
        let inj = MissingInjector::mcar(0.25).exclude(["class"]);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        let nulls = out.total_null_count();
        assert_eq!(nulls, 50, "25% of 200 eligible cells");
        assert_eq!(out.column("class").unwrap().null_count(), 0);
    }

    #[test]
    fn zero_ratio_is_identity() {
        let inj = MissingInjector::mcar(0.0);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(inj.apply(&table(), &mut rng).unwrap(), table());
    }

    #[test]
    fn invalid_ratio_rejected() {
        let inj = MissingInjector::mcar(1.5);
        let mut rng = Rng::seed_from_u64(1);
        assert!(inj.apply(&table(), &mut rng).is_err());
    }

    #[test]
    fn mar_driver_must_exist() {
        let inj = MissingInjector::mar(0.1, "nope");
        let mut rng = Rng::seed_from_u64(1);
        assert!(inj.apply(&table(), &mut rng).is_err());
    }

    #[test]
    fn mar_skews_missingness_toward_high_driver_rows() {
        let inj = MissingInjector::mar(0.3, "a").exclude(["class"]);
        let mut rng = Rng::seed_from_u64(3);
        let out = inj.apply(&table(), &mut rng).unwrap();
        // Driver column 'a' itself keeps all values.
        assert_eq!(out.column("a").unwrap().null_count(), 0);
        // Count nulls in 'b' for rows with a >= 50 vs below.
        let b = out.column("b").unwrap();
        let mut high = 0;
        let mut low = 0;
        for i in 0..100 {
            if b.get(i).unwrap().is_null() {
                if i >= 50 {
                    high += 1;
                } else {
                    low += 1;
                }
            }
        }
        assert!(
            high > low,
            "high-driver rows should lose more cells ({high} vs {low})"
        );
    }

    #[test]
    fn describe_mentions_mechanism() {
        assert!(MissingInjector::mcar(0.1).describe().contains("MCAR"));
        assert!(MissingInjector::mar(0.1, "d").describe().contains("MAR"));
    }
}
