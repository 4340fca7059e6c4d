//! Irrelevant-attribute injection: the "high dimensionality" defect the
//! paper singles out for LOD (§1: "a great amount of attributes difficult
//! to be manually handled").

use super::Injector;
use openbi_table::{Column, Result, Rng, Table, TableError};

/// Kinds of irrelevant columns to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrrelevantKind {
    /// Standard-normal numeric noise.
    Gaussian,
    /// Uniform numeric noise in `[0,1)`.
    Uniform,
    /// Random categorical codes from a small alphabet.
    Categorical,
}

/// Appends `count` columns of pure noise, named `irrelevant{i}`.
#[derive(Debug, Clone)]
pub struct IrrelevantInjector {
    /// Number of columns to add.
    pub count: usize,
    /// Kind of noise columns.
    pub kind: IrrelevantKind,
}

impl IrrelevantInjector {
    /// Gaussian irrelevant attributes.
    pub fn gaussian(count: usize) -> Self {
        IrrelevantInjector {
            count,
            kind: IrrelevantKind::Gaussian,
        }
    }

    /// Uniform irrelevant attributes.
    pub fn uniform(count: usize) -> Self {
        IrrelevantInjector {
            count,
            kind: IrrelevantKind::Uniform,
        }
    }

    /// Categorical irrelevant attributes.
    pub fn categorical(count: usize) -> Self {
        IrrelevantInjector {
            count,
            kind: IrrelevantKind::Categorical,
        }
    }
}

impl Injector for IrrelevantInjector {
    fn name(&self) -> &'static str {
        "irrelevant"
    }

    fn describe(&self) -> String {
        format!(
            "dimensionality: {} irrelevant {:?} attributes",
            self.count, self.kind
        )
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        if table.n_rows() == 0 {
            return Err(TableError::EmptyTable);
        }
        let mut out = table.clone();
        let n = table.n_rows();
        for k in 0..self.count {
            let mut name = format!("irrelevant{}", k + 1);
            while out.has_column(&name) {
                name.push('_');
            }
            let col = match self.kind {
                IrrelevantKind::Gaussian => {
                    Column::from_f64(name, (0..n).map(|_| rng.gauss()).collect::<Vec<f64>>())
                }
                IrrelevantKind::Uniform => {
                    Column::from_f64(name, (0..n).map(|_| rng.f64()).collect::<Vec<f64>>())
                }
                IrrelevantKind::Categorical => {
                    const ALPHABET: [&str; 5] = ["v1", "v2", "v3", "v4", "v5"];
                    Column::from_str_values(
                        name,
                        (0..n)
                            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                            .collect::<Vec<&str>>(),
                    )
                }
            };
            out.add_column(col)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::stats;

    fn table() -> Table {
        Table::new(vec![Column::from_f64(
            "signal",
            (0..200).map(f64::from).collect::<Vec<f64>>(),
        )])
        .unwrap()
    }

    #[test]
    fn adds_requested_columns() {
        let inj = IrrelevantInjector::gaussian(16);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(out.n_cols(), 17);
        assert!(out.has_column("irrelevant16"));
    }

    #[test]
    fn noise_columns_are_uncorrelated_with_signal() {
        let inj = IrrelevantInjector::gaussian(3);
        let mut rng = Rng::seed_from_u64(2);
        let out = inj.apply(&table(), &mut rng).unwrap();
        for k in 1..=3 {
            let r = stats::pearson(
                out.column("signal").unwrap(),
                out.column(&format!("irrelevant{k}")).unwrap(),
            )
            .unwrap();
            assert!(r.abs() < 0.2, "|r| = {}", r.abs());
        }
    }

    #[test]
    fn categorical_kind_produces_strings() {
        let inj = IrrelevantInjector::categorical(1);
        let mut rng = Rng::seed_from_u64(3);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(
            out.column("irrelevant1").unwrap().dtype(),
            openbi_table::DataType::Str
        );
    }

    #[test]
    fn uniform_kind_in_unit_interval() {
        let inj = IrrelevantInjector::uniform(1);
        let mut rng = Rng::seed_from_u64(4);
        let out = inj.apply(&table(), &mut rng).unwrap();
        for v in out.column("irrelevant1").unwrap().numbers() {
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn empty_table_rejected() {
        let inj = IrrelevantInjector::gaussian(1);
        let mut rng = Rng::seed_from_u64(5);
        assert!(inj.apply(&Table::empty(), &mut rng).is_err());
    }
}
