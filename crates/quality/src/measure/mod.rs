//! Measurement of data-quality criteria (paper §3.2.2).
//!
//! Individual criteria live in submodules; [`measure_profile`] combines
//! them into a [`crate::profile::QualityProfile`].
//!
//! The criteria are **columnar single-pass kernels**: numeric columns are
//! packed once per profile into contiguous `f64` slices
//! (`PackedColumn`), and correlation, outliers, and both noise
//! estimators consume the packed slices — no per-cell `Value` boxing, no
//! per-pair column re-conversion, no per-row `String` keys. The
//! pre-rewrite row-wise implementation is frozen in the test-support
//! library as `openbi_integration::reference::quality`, outside every
//! shipping build, and `tests/tests/quality_equivalence.rs` proves the
//! two agree bitwise on every exact criterion.

pub mod balance;
pub mod completeness;
pub mod consistency;
pub mod correlation;
pub mod duplicates;
pub mod noise;
pub mod outliers;

use crate::profile::QualityProfile;
use openbi_table::Table;

/// Seed for the deterministic row sample the noise estimators draw
/// when the table exceeds [`noise::DEFAULT_MAX_ROWS`].
///
/// Any fixed value works (the estimate must simply be reproducible); this
/// one nods to the paper's publication year.
pub const DEFAULT_NOISE_SEED: u64 = 2012;

/// |r| threshold above which [`measure_profile`] counts a pair of
/// columns as redundant.
pub const REDUNDANCY_THRESHOLD: f64 = 0.95;

/// Neighborhood size of the noise estimators in [`measure_profile`].
pub const NOISE_K: usize = 5;

/// Options controlling profile measurement.
#[derive(Debug, Clone, Default)]
pub struct MeasureOptions {
    /// Target (class) column, if one is designated.
    pub target: Option<String>,
    /// Identifier / ignored columns excluded from feature criteria.
    pub exclude: Vec<String>,
}

impl MeasureOptions {
    /// Convenience constructor with a target column.
    pub fn with_target(target: impl Into<String>) -> Self {
        MeasureOptions {
            target: Some(target.into()),
            ..Default::default()
        }
    }

    pub(crate) fn feature_exclusions(&self) -> Vec<&str> {
        let mut ex: Vec<&str> = self.exclude.iter().map(String::as_str).collect();
        if let Some(t) = &self.target {
            ex.push(t.as_str());
        }
        ex
    }
}

/// One numeric column packed into contiguous `f64` storage.
///
/// `values` is the column's [`Column::numbers`](openbi_table::Column::numbers):
/// ints widened to `f64`, and NaN at a null or non-finite cell, so every
/// kernel reads presence from the value (`!v.is_nan()`) and a table with
/// NaN or ±∞ cells measures exactly like the same table with those cells
/// null.
pub(crate) struct PackedColumn {
    /// Column name (for correlation-report pair labels).
    pub name: String,
    /// Cell values; NaN where the cell is missing.
    pub values: Vec<f64>,
}

/// Pack the non-excluded numeric (int/float) columns, in table order —
/// one pass per column, shared by the correlation, outlier, and noise
/// kernels.
pub(crate) fn pack_numeric(table: &Table, exclude: &[&str]) -> Vec<PackedColumn> {
    let mut out = Vec::new();
    for c in table.columns() {
        if exclude.contains(&c.name()) || !c.dtype().is_numeric() {
            continue;
        }
        out.push(PackedColumn {
            name: c.name().to_string(),
            values: c.numbers(),
        });
    }
    out
}

/// Measure every quality criterion of a table into one profile.
///
/// Records the wall time into the `quality.measure.seconds` histogram
/// when an [`openbi_obs`] registry is installed.
pub fn measure_profile(table: &Table, options: &MeasureOptions) -> QualityProfile {
    let _timer = openbi_obs::span("quality.measure.seconds");
    let ex = options.feature_exclusions();
    let n_attributes = table
        .column_names()
        .iter()
        .filter(|n| !ex.contains(n))
        .count();
    let packed = pack_numeric(table, &ex);
    let corr = correlation::report_from_packed(&packed, REDUNDANCY_THRESHOLD);
    let target = options.target.as_deref().filter(|t| table.has_column(t));
    let (class_balance, minority_ratio, distinct_class_count) = match target {
        Some(t) => {
            let b = balance::balance_report(table, t).expect("column exists");
            (b.normalized_entropy, b.minority_ratio, b.class_count)
        }
        None => (1.0, 1.0, 0),
    };
    let noise = noise::estimates_from_packed(
        table,
        target,
        &packed,
        NOISE_K,
        noise::DEFAULT_MAX_ROWS,
        DEFAULT_NOISE_SEED,
    );
    QualityProfile {
        n_rows: table.n_rows(),
        n_attributes,
        completeness: completeness::completeness(table),
        duplicate_ratio: duplicates::exact_duplicate_ratio(table),
        max_abs_correlation: corr.max_abs,
        mean_abs_correlation: corr.mean_abs,
        class_balance,
        minority_ratio,
        dimensionality: if table.n_rows() == 0 {
            1.0
        } else {
            (n_attributes as f64 / table.n_rows() as f64).min(1.0)
        },
        outlier_ratio: outliers::ratio_from_packed(&packed),
        label_noise_estimate: noise.label,
        attr_noise_estimate: noise.attribute,
        consistency: consistency::table_consistency(table, &ex),
        distinct_class_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    fn sample() -> Table {
        Table::new(vec![
            Column::from_i64("id", (0..10).collect::<Vec<i64>>()),
            Column::from_f64("x", (0..10).map(|i| i as f64).collect::<Vec<f64>>()),
            Column::from_f64("x2", (0..10).map(|i| 2.0 * i as f64).collect::<Vec<f64>>()),
            Column::from_opt_f64(
                "y",
                (0..10)
                    .map(|i| if i == 3 { None } else { Some((i * i) as f64) })
                    .collect::<Vec<Option<f64>>>(),
            ),
            Column::from_str_values(
                "class",
                (0..10)
                    .map(|i| if i < 7 { "a" } else { "b" })
                    .collect::<Vec<&str>>(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn profile_combines_criteria() {
        let opts = MeasureOptions {
            target: Some("class".into()),
            exclude: vec!["id".into()],
        };
        let p = measure_profile(&sample(), &opts);
        assert_eq!(p.n_rows, 10);
        assert_eq!(p.n_attributes, 3); // x, x2, y
        assert!(p.completeness > 0.9 && p.completeness < 1.0);
        assert!(p.max_abs_correlation > 0.99, "x and x2 are copies");
        assert_eq!(p.distinct_class_count, 2);
        assert!((p.minority_ratio - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(p.duplicate_ratio, 0.0);
    }

    #[test]
    fn no_target_defaults_balance() {
        let p = measure_profile(&sample(), &MeasureOptions::default());
        assert_eq!(p.class_balance, 1.0);
        assert_eq!(p.distinct_class_count, 0);
        assert_eq!(p.label_noise_estimate, 0.0);
    }

    #[test]
    fn unknown_target_is_tolerated() {
        let p = measure_profile(&sample(), &MeasureOptions::with_target("nope"));
        assert_eq!(p.distinct_class_count, 0);
    }

    #[test]
    fn dimensionality_capped_at_one() {
        let t = Table::new(vec![
            Column::from_f64("a", [1.0]),
            Column::from_f64("b", [2.0]),
        ])
        .unwrap();
        let p = measure_profile(&t, &MeasureOptions::default());
        assert_eq!(p.dimensionality, 1.0);
    }

    #[test]
    fn packing_marks_null_and_non_finite_cells_nan() {
        let t = Table::new(vec![
            Column::from_opt_i64("i", [Some(3), None, Some(-1)]),
            Column::from_opt_f64("f", [Some(f64::NAN), Some(-0.0), Some(f64::NEG_INFINITY)]),
            Column::from_str_values("s", ["a", "b", "c"]),
            Column::from_bool("b", [true, false, true]),
        ])
        .unwrap();
        let packed = pack_numeric(&t, &[]);
        assert_eq!(packed.len(), 2, "strings and bools are not numeric");
        assert_eq!(packed[0].name, "i");
        assert_eq!(packed[0].values[0], 3.0);
        assert!(packed[0].values[1].is_nan(), "a null packs as NaN");
        assert_eq!(packed[0].values[2], -1.0);
        assert!(packed[1].values[0].is_nan());
        assert_eq!(packed[1].values[1].to_bits(), (-0.0f64).to_bits());
        assert!(packed[1].values[2].is_nan(), "±∞ packs as missing");
        let excluded = pack_numeric(&t, &["i"]);
        assert_eq!(excluded.len(), 1);
    }
}
