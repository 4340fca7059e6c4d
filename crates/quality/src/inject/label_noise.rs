//! Class-label noise: flip a fraction of target labels to a different
//! class.

use super::Injector;
use openbi_table::{Result, Rng, Table, TableError, Value};

/// Flips `ratio` of the target column's labels to a uniformly chosen
/// *different* observed class: another category of
/// [`Column::categories`](openbi_table::Column::categories), written as
/// that category's first cell.
#[derive(Debug, Clone)]
pub struct LabelNoiseInjector {
    /// Target column whose labels are flipped.
    pub target: String,
    /// Fraction of rows affected.
    pub ratio: f64,
}

impl LabelNoiseInjector {
    /// Create an injector.
    pub fn new(target: impl Into<String>, ratio: f64) -> Self {
        LabelNoiseInjector {
            target: target.into(),
            ratio,
        }
    }
}

impl Injector for LabelNoiseInjector {
    fn name(&self) -> &'static str {
        "label_noise"
    }

    fn describe(&self) -> String {
        format!(
            "class-label noise: flip {:.0}% of '{}' labels",
            self.ratio * 100.0,
            self.target
        )
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if !(0.0..=1.0).contains(&self.ratio) {
            return Err(TableError::InvalidArgument(format!(
                "label-noise ratio {} outside [0,1]",
                self.ratio
            )));
        }
        let cats = table.column(&self.target)?.categories();
        if cats.len() < 2 {
            return Err(TableError::InvalidArgument(format!(
                "label noise needs at least 2 classes in '{}', found {}",
                self.target,
                cats.len()
            )));
        }
        let classes: Vec<Value> = (0..cats.len()).map(|c| cats.value(c)).collect();
        let mut out = table.clone();
        let n = table.n_rows();
        let target_count = (self.ratio * n as f64).round() as usize;
        for row in rng.sample_indices(n, target_count) {
            let Some(current) = cats.code(row) else {
                continue;
            };
            // Choose uniformly among the other classes, in code order.
            let pick = rng.below(classes.len() - 1);
            let other = if pick < current { pick } else { pick + 1 };
            out.set(&self.target, row, classes[other].clone())?;
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
            Column::from_i64("x", (0..60).collect::<Vec<i64>>()),
            Column::from_str_values(
                "class",
                (0..60)
                    .map(|i| match i % 3 {
                        0 => "a",
                        1 => "b",
                        _ => "c",
                    })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn flips_exactly_the_requested_fraction() {
        let inj = LabelNoiseInjector::new("class", 0.25);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        let flipped = (0..60)
            .filter(|&i| out.get("class", i).unwrap() != table().get("class", i).unwrap())
            .count();
        assert_eq!(flipped, 15);
    }

    #[test]
    fn flipped_labels_are_valid_classes() {
        let inj = LabelNoiseInjector::new("class", 0.5);
        let mut rng = Rng::seed_from_u64(2);
        let out = inj.apply(&table(), &mut rng).unwrap();
        for i in 0..60 {
            let v = out.get("class", i).unwrap();
            assert!(matches!(
                v,
                Value::Str(ref s) if ["a", "b", "c"].contains(&s.as_str())
            ));
        }
    }

    #[test]
    fn single_class_rejected() {
        let t = Table::new(vec![Column::from_str_values("class", ["a", "a"])]).unwrap();
        let inj = LabelNoiseInjector::new("class", 0.5);
        let mut rng = Rng::seed_from_u64(1);
        assert!(inj.apply(&t, &mut rng).is_err());
    }

    #[test]
    fn missing_target_rejected() {
        let inj = LabelNoiseInjector::new("nope", 0.1);
        let mut rng = Rng::seed_from_u64(1);
        assert!(inj.apply(&table(), &mut rng).is_err());
    }

    #[test]
    fn features_untouched() {
        let inj = LabelNoiseInjector::new("class", 0.5);
        let mut rng = Rng::seed_from_u64(3);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(out.column("x").unwrap(), table().column("x").unwrap());
    }
}
