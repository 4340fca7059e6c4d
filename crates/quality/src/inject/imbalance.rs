//! Class-imbalance injection by subsampling minority classes.

use super::Injector;
use openbi_table::{Result, Rng, Table, TableError};

/// Downsamples all but the most common class until that class makes up
/// `majority_fraction` of the rows. The classes are the target's
/// categories ([`Column::categories`](openbi_table::Column::categories));
/// rows with a null target are dropped. Row order of the kept rows is
/// preserved.
#[derive(Debug, Clone)]
pub struct ImbalanceInjector {
    /// Target (class) column.
    pub target: String,
    /// Desired fraction of the majority class in the output, in
    /// `[1/k, 1)` for k classes.
    pub majority_fraction: f64,
}

impl ImbalanceInjector {
    /// Create an injector.
    pub fn new(target: impl Into<String>, majority_fraction: f64) -> Self {
        ImbalanceInjector {
            target: target.into(),
            majority_fraction,
        }
    }
}

impl Injector for ImbalanceInjector {
    fn name(&self) -> &'static str {
        "imbalance"
    }

    fn describe(&self) -> String {
        format!(
            "class imbalance: majority class of '{}' raised to {:.0}%",
            self.target,
            self.majority_fraction * 100.0
        )
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if !(0.0..1.0).contains(&self.majority_fraction) {
            return Err(TableError::InvalidArgument(format!(
                "majority fraction {} outside [0,1)",
                self.majority_fraction
            )));
        }
        // Partition row indices by class (nulls dropped).
        let cats = table.column(&self.target)?.categories();
        let mut by_class: Vec<(String, Vec<usize>)> =
            cats.texts().into_iter().map(|t| (t, Vec::new())).collect();
        for row in 0..table.n_rows() {
            if let Some(c) = cats.code(row) {
                by_class[c].1.push(row);
            }
        }
        if by_class.len() < 2 {
            return Err(TableError::InvalidArgument(format!(
                "imbalance injection needs >= 2 classes in '{}'",
                self.target
            )));
        }
        by_class.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
        let majority_count = by_class[0].1.len();
        let current_fraction =
            majority_count as f64 / by_class.iter().map(|(_, v)| v.len()).sum::<usize>() as f64;
        if self.majority_fraction <= current_fraction {
            // Already at least this imbalanced; leave data untouched.
            return Ok(table.clone());
        }
        // Keep all majority rows; scale every minority class by the same
        // factor so that majority / total = majority_fraction.
        let target_minority_total = (majority_count as f64 * (1.0 - self.majority_fraction)
            / self.majority_fraction)
            .round() as usize;
        let minority_total: usize = by_class[1..].iter().map(|(_, v)| v.len()).sum();
        let scale = target_minority_total as f64 / minority_total as f64;
        let mut keep: Vec<usize> = by_class[0].1.clone();
        for (_, rows) in &by_class[1..] {
            let k = ((rows.len() as f64 * scale).round() as usize).clamp(1, rows.len());
            let mut pool = rows.clone();
            rng.shuffle(&mut pool);
            keep.extend(pool.into_iter().take(k));
        }
        keep.sort_unstable();
        table.take(&keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::balance::balance_report;
    use openbi_table::Column;

    fn balanced_table() -> Table {
        Table::new(vec![
            Column::from_i64("x", (0..200).collect::<Vec<i64>>()),
            Column::from_str_values(
                "class",
                (0..200)
                    .map(|i| if i % 2 == 0 { "pos" } else { "neg" })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn reaches_target_majority_fraction() {
        let inj = ImbalanceInjector::new("class", 0.9);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&balanced_table(), &mut rng).unwrap();
        let b = balance_report(&out, "class").unwrap();
        let majority = b.class_counts[0].1 as f64;
        let total: usize = b.class_counts.iter().map(|(_, c)| *c).sum();
        let frac = majority / total as f64;
        assert!((frac - 0.9).abs() < 0.02, "fraction {frac}");
        assert!(b.minority_ratio < 0.15);
    }

    #[test]
    fn already_imbalanced_is_identity() {
        let t = Table::new(vec![Column::from_str_values(
            "class",
            std::iter::repeat_n("a", 90)
                .chain(std::iter::repeat_n("b", 10))
                .collect::<Vec<&str>>(),
        )])
        .unwrap();
        let inj = ImbalanceInjector::new("class", 0.6);
        let mut rng = Rng::seed_from_u64(2);
        assert_eq!(inj.apply(&t, &mut rng).unwrap(), t);
    }

    #[test]
    fn every_class_keeps_at_least_one_row() {
        let inj = ImbalanceInjector::new("class", 0.99);
        let mut rng = Rng::seed_from_u64(3);
        let out = inj.apply(&balanced_table(), &mut rng).unwrap();
        let b = balance_report(&out, "class").unwrap();
        assert_eq!(b.class_count, 2);
        assert!(b.class_counts.iter().all(|(_, c)| *c >= 1));
    }

    #[test]
    fn multiclass_scaling() {
        let t = Table::new(vec![Column::from_str_values(
            "class",
            (0..300)
                .map(|i| match i % 3 {
                    0 => "a",
                    1 => "b",
                    _ => "c",
                })
                .collect::<Vec<&str>>(),
        )])
        .unwrap();
        let inj = ImbalanceInjector::new("class", 0.8);
        let mut rng = Rng::seed_from_u64(4);
        let out = inj.apply(&t, &mut rng).unwrap();
        let b = balance_report(&out, "class").unwrap();
        assert_eq!(b.class_counts[0].1, 100, "majority kept whole");
        let total: usize = b.class_counts.iter().map(|(_, c)| *c).sum();
        assert!((b.class_counts[0].1 as f64 / total as f64 - 0.8).abs() < 0.03);
    }

    #[test]
    fn single_class_rejected() {
        let t = Table::new(vec![Column::from_str_values("class", ["a", "a"])]).unwrap();
        let inj = ImbalanceInjector::new("class", 0.9);
        let mut rng = Rng::seed_from_u64(5);
        assert!(inj.apply(&t, &mut rng).is_err());
    }
}
