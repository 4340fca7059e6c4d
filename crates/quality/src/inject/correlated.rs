//! Redundant correlated-attribute injection — the paper's own §3.1
//! example of a defect that yields "correct but not useful" patterns.

use super::Injector;
use openbi_table::{stats, Column, Result, Rng, Table, TableError};

/// Adds `copies` new columns, each an affine copy of `source` plus
/// Gaussian noise at `noise`×std, named `{source}_corr{i}`. The source is
/// read through `Column::numbers`: a null, NaN or ±∞ cell is missing,
/// enters no deviation and is null in every copy.
#[derive(Debug, Clone)]
pub struct CorrelatedInjector {
    /// Source column to copy (must be numeric).
    pub source: String,
    /// Number of correlated copies to append.
    pub copies: usize,
    /// Noise level as a multiple of the source std (0 = exact copies,
    /// which are perfectly correlated).
    pub noise: f64,
}

impl CorrelatedInjector {
    /// Create an injector.
    pub fn new(source: impl Into<String>, copies: usize, noise: f64) -> Self {
        CorrelatedInjector {
            source: source.into(),
            copies,
            noise,
        }
    }
}

impl Injector for CorrelatedInjector {
    fn name(&self) -> &'static str {
        "correlated"
    }

    fn describe(&self) -> String {
        format!(
            "redundancy: {} correlated copies of '{}' (noise {:.2}·std)",
            self.copies, self.source, self.noise
        )
    }

    fn apply(&self, table: &Table, rng: &mut Rng) -> Result<Table> {
        let src = table.column(&self.source)?;
        if !src.dtype().is_numeric() {
            return Err(TableError::InvalidArgument(format!(
                "correlated injection source '{}' must be numeric",
                self.source
            )));
        }
        if self.noise < 0.0 {
            return Err(TableError::InvalidArgument(
                "correlated injection noise must be >= 0".to_string(),
            ));
        }
        let std = stats::std_dev(src).unwrap_or(0.0).max(1e-9);
        let values = src.numbers();
        let mut out = table.clone();
        for k in 0..self.copies {
            // Vary the affine transform per copy so copies are not
            // mutually identical, only strongly correlated.
            let scale = 1.0 + 0.1 * (k as f64 + 1.0);
            let offset = 0.5 * k as f64;
            let copy: Vec<Option<f64>> = values
                .iter()
                .map(|&x| {
                    (!x.is_nan()).then(|| scale * x + offset + rng.gauss() * std * self.noise)
                })
                .collect();
            let mut name = format!("{}_corr{}", self.source, k + 1);
            while out.has_column(&name) {
                name.push('_');
            }
            out.add_column(Column::from_opt_f64(name, copy))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(vec![
            Column::from_f64("x", (0..100).map(f64::from).collect::<Vec<f64>>()),
            Column::from_str_values("class", vec!["a"; 100]),
        ])
        .unwrap()
    }

    #[test]
    fn copies_are_strongly_correlated() {
        let inj = CorrelatedInjector::new("x", 2, 0.05);
        let mut rng = Rng::seed_from_u64(1);
        let out = inj.apply(&table(), &mut rng).unwrap();
        assert_eq!(out.n_cols(), 4);
        let r1 = stats::pearson(out.column("x").unwrap(), out.column("x_corr1").unwrap()).unwrap();
        let r2 = stats::pearson(out.column("x").unwrap(), out.column("x_corr2").unwrap()).unwrap();
        assert!(r1 > 0.99, "r1 = {r1}");
        assert!(r2 > 0.99, "r2 = {r2}");
    }

    #[test]
    fn noise_weakens_correlation() {
        let inj = CorrelatedInjector::new("x", 1, 2.0);
        let mut rng = Rng::seed_from_u64(2);
        let out = inj.apply(&table(), &mut rng).unwrap();
        let r = stats::pearson(out.column("x").unwrap(), out.column("x_corr1").unwrap()).unwrap();
        assert!(r < 0.95, "r = {r}");
        assert!(r > 0.2, "still correlated, r = {r}");
    }

    #[test]
    fn zero_noise_perfect_correlation() {
        let inj = CorrelatedInjector::new("x", 1, 0.0);
        let mut rng = Rng::seed_from_u64(3);
        let out = inj.apply(&table(), &mut rng).unwrap();
        let r = stats::pearson(out.column("x").unwrap(), out.column("x_corr1").unwrap()).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nulls_propagate_to_copies() {
        let t = Table::new(vec![Column::from_opt_f64(
            "x",
            [Some(1.0), None, Some(3.0)],
        )])
        .unwrap();
        let inj = CorrelatedInjector::new("x", 1, 0.0);
        let mut rng = Rng::seed_from_u64(4);
        let out = inj.apply(&t, &mut rng).unwrap();
        assert!(out.get("x_corr1", 1).unwrap().is_null());
    }

    #[test]
    fn non_numeric_source_rejected() {
        let inj = CorrelatedInjector::new("class", 1, 0.1);
        let mut rng = Rng::seed_from_u64(5);
        assert!(inj.apply(&table(), &mut rng).is_err());
    }

    #[test]
    fn name_collision_resolved() {
        let mut t = table();
        t.add_column(Column::from_f64(
            "x_corr1",
            (0..100).map(f64::from).collect::<Vec<f64>>(),
        ))
        .unwrap();
        let inj = CorrelatedInjector::new("x", 1, 0.0);
        let mut rng = Rng::seed_from_u64(6);
        let out = inj.apply(&t, &mut rng).unwrap();
        assert!(out.has_column("x_corr1_"));
    }
}
