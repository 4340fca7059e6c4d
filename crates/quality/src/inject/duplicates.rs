//! Duplicate-record injection: exact copies and near duplicates
//! (perturbed copies, the "fuzzy duplicates" of Ananthakrishna et al.).

use super::Injector;
use openbi_table::{stats, Result, Rng, Table, TableError, Value};

/// Appends duplicated rows until they make up `ratio` of the result.
/// With `perturbation > 0`, numeric cells of each copy are nudged by
/// `N(0, (perturbation × column_std)²)`, producing near rather than exact
/// duplicates. Numeric cells are read through `Column::numbers`: a null,
/// NaN or ±∞ cell is missing, enters no deviation and is copied as it is.
#[derive(Debug, Clone)]
pub struct DuplicateInjector {
    /// Fraction of the *output* rows that are injected duplicates.
    pub ratio: f64,
    /// Relative numeric perturbation of copies (0 = exact copies).
    pub perturbation: f64,
    /// Columns never perturbed (e.g. the class column).
    pub excluded: Vec<String>,
}

impl DuplicateInjector {
    /// Exact-duplicate injector.
    pub fn exact(ratio: f64) -> Self {
        DuplicateInjector {
            ratio,
            perturbation: 0.0,
            excluded: vec![],
        }
    }

    /// Near-duplicate injector with the given numeric perturbation.
    pub fn near(ratio: f64, perturbation: f64) -> Self {
        DuplicateInjector {
            ratio,
            perturbation,
            excluded: vec![],
        }
    }

    /// Exclude columns from perturbation.
    pub fn exclude<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.excluded.extend(cols.into_iter().map(Into::into));
        self
    }
}

impl Injector for DuplicateInjector {
    fn name(&self) -> &'static str {
        "duplicates"
    }

    fn describe(&self) -> String {
        if self.perturbation == 0.0 {
            format!("exact duplicates: {:.0}% of rows", self.ratio * 100.0)
        } else {
            format!(
                "near duplicates: {:.0}% of rows, perturbation {:.2}·std",
                self.ratio * 100.0,
                self.perturbation
            )
        }
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if !(0.0..1.0).contains(&self.ratio) {
            return Err(TableError::InvalidArgument(format!(
                "duplicate ratio {} outside [0,1)",
                self.ratio
            )));
        }
        let n = table.n_rows();
        if n == 0 || self.ratio == 0.0 {
            return Ok(table.clone());
        }
        // d / (n + d) = ratio  =>  d = ratio·n / (1 - ratio)
        let dups = ((self.ratio * n as f64) / (1.0 - self.ratio)).round() as usize;
        // Per perturbed column: the noise scale and the column's numbers.
        let perturbed: Vec<Option<(f64, Vec<f64>)>> = table
            .columns()
            .iter()
            .map(|c| {
                if self.perturbation > 0.0
                    && c.dtype().is_numeric()
                    && !self.excluded.iter().any(|e| e == c.name())
                {
                    stats::std_dev(c).map(|std| (std * self.perturbation, c.numbers()))
                } else {
                    None
                }
            })
            .collect();
        let mut out = table.clone();
        for _ in 0..dups {
            let src = rng.below(n);
            let mut row = table.row(src)?;
            for (value, column) in row.iter_mut().zip(&perturbed) {
                let Some((scale, numbers)) = column else {
                    continue;
                };
                if numbers[src].is_nan() {
                    continue;
                }
                match value {
                    Value::Float(f) => *f += rng.gauss() * scale,
                    Value::Int(i) => *i += (rng.gauss() * scale).round() as i64,
                    _ => {}
                }
            }
            out.push_row(row)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::{find_duplicate_clusters, LinkageConfig};
    use crate::measure::duplicates::exact_duplicate_ratio;
    use openbi_table::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::from_f64("x", (0..50).map(|i| i as f64 * 10.0).collect::<Vec<f64>>()),
            Column::from_str_values(
                "class",
                (0..50)
                    .map(|i| if i % 2 == 0 { "a" } else { "b" })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn exact_duplicates_reach_target_ratio() {
        let inj = DuplicateInjector::exact(0.2);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(out.n_rows(), 63); // 50 + round(0.2*50/0.8)=13
        let measured = exact_duplicate_ratio(&out);
        assert!((measured - 13.0 / 63.0).abs() < 0.02, "measured {measured}");
    }

    #[test]
    fn near_duplicates_are_not_exact() {
        let inj = DuplicateInjector::near(0.2, 0.01).exclude(["class"]);
        let mut rng = Rng::seed_from_u64(2);
        let out = inj.apply(&table(), &mut rng).unwrap();
        // The exact-dup ratio stays ~0, but record linkage ties the
        // copies to their originals.
        assert!(exact_duplicate_ratio(&out) < 0.05);
        let config = LinkageConfig {
            threshold: 0.005,
            ignore: vec!["class".into()],
            ..Default::default()
        };
        let clusters = find_duplicate_clusters(&out, &config).unwrap();
        let linked: usize = clusters.iter().map(|c| c.len() - 1).sum();
        assert!(
            linked * 10 > out.n_rows(),
            "{linked} of {} rows linked",
            out.n_rows()
        );
    }

    #[test]
    fn zero_ratio_identity() {
        let inj = DuplicateInjector::exact(0.0);
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(inj.apply(&table(), &mut rng).unwrap(), table());
    }

    #[test]
    fn ratio_one_rejected() {
        let inj = DuplicateInjector::exact(1.0);
        let mut rng = Rng::seed_from_u64(3);
        assert!(inj.apply(&table(), &mut rng).is_err());
    }

    #[test]
    fn class_column_copied_verbatim() {
        let inj = DuplicateInjector::near(0.3, 0.5).exclude(["class"]);
        let mut rng = Rng::seed_from_u64(4);
        let out = inj.apply(&table(), &mut rng).unwrap();
        for i in 0..out.n_rows() {
            let v = out.get("class", i).unwrap();
            assert!(matches!(v, Value::Str(ref s) if s == "a" || s == "b"));
        }
    }
}
