//! A lightweight OLAP cube over a table: dimensions, measures, rollup,
//! slice and dice — the "OLAP analysis" leg of the OpenBI vision (§1),
//! served by the sharded engine in [`crate::shard`] (DESIGN.md §14).
//!
//! Every aggregation — [`Cube::rollup`], [`Cube::total`], and the
//! quality-annotated [`Cube::rollup_quality`] — runs the sharded build
//! and is bitwise-identical to the frozen single-threaded
//! [`crate::reference`] cube at any shard count; the differential suite
//! (`tests/tests/olap_equivalence.rs`) holds that line.

use crate::shard::{build_cube, CubeOptions, CubeResult};
use openbi_table::{Result, Table, TableError};

/// An aggregate measure definition.
#[derive(Debug, Clone, PartialEq)]
pub enum Measure {
    /// Sum of a numeric column.
    Sum(String),
    /// Mean of a numeric column.
    Mean(String),
    /// Count of non-null cells of a column.
    Count(String),
    /// Minimum of a numeric column.
    Min(String),
    /// Maximum of a numeric column.
    Max(String),
}

impl Measure {
    /// The source column the measure reads.
    pub fn column(&self) -> &str {
        match self {
            Measure::Sum(c)
            | Measure::Mean(c)
            | Measure::Count(c)
            | Measure::Min(c)
            | Measure::Max(c) => c,
        }
    }

    /// Name of the output column this measure produces (matches the
    /// `group_by` aggregate naming: `sum(col)`, `mean(col)`, …).
    pub fn output_name(&self) -> String {
        match self {
            Measure::Sum(c) => format!("sum({c})"),
            Measure::Mean(c) => format!("mean({c})"),
            Measure::Count(c) => format!("count({c})"),
            Measure::Min(c) => format!("min({c})"),
            Measure::Max(c) => format!("max({c})"),
        }
    }
}

/// A cube: a fact table plus declared dimensions and measures.
#[derive(Debug, Clone)]
pub struct Cube {
    facts: Table,
    dimensions: Vec<String>,
    measures: Vec<Measure>,
}

impl Cube {
    /// Build a cube, validating that dimensions and measure columns
    /// exist.
    pub fn new(facts: Table, dimensions: &[&str], measures: Vec<Measure>) -> Result<Self> {
        for d in dimensions {
            facts.column(d)?;
        }
        for m in &measures {
            facts.column(m.column())?;
        }
        if dimensions.is_empty() {
            return Err(TableError::InvalidArgument(
                "a cube needs at least one dimension".to_string(),
            ));
        }
        Ok(Cube {
            facts,
            dimensions: dimensions.iter().map(|s| s.to_string()).collect(),
            measures,
        })
    }

    /// The declared dimensions.
    pub fn dimensions(&self) -> &[String] {
        &self.dimensions
    }

    /// The declared measures.
    pub fn measures(&self) -> &[Measure] {
        &self.measures
    }

    /// The underlying fact table.
    pub fn facts(&self) -> &Table {
        &self.facts
    }

    fn check_dims(&self, dims: &[&str]) -> Result<()> {
        for d in dims {
            if !self.dimensions.iter().any(|x| x == d) {
                return Err(TableError::InvalidArgument(format!(
                    "{d} is not a declared dimension"
                )));
            }
        }
        if dims.is_empty() {
            return Err(TableError::InvalidArgument(
                "group_by requires at least one key column".to_string(),
            ));
        }
        Ok(())
    }

    /// Roll up to the named subset of dimensions (must be declared).
    pub fn rollup(&self, dims: &[&str]) -> Result<Table> {
        Ok(self.rollup_quality(dims, &CubeOptions::default())?.table)
    }

    /// Roll up with full quality annotation and build control: returns
    /// the aggregate table plus per-cell support / null-ratio and the
    /// shard fault outcome.
    pub fn rollup_quality(&self, dims: &[&str], options: &CubeOptions) -> Result<CubeResult> {
        self.check_dims(dims)?;
        build_cube(&self.facts, dims, &self.measures, options)
    }

    /// Slice: fix one dimension to a value, returning a cube over the
    /// remaining facts ([`Cube::dice`] with one value).
    pub fn slice(&self, dimension: &str, value: &str) -> Result<Cube> {
        self.dice(dimension, &[value])
    }

    /// Dice: keep rows whose `dimension` key is in `values`. A key is
    /// its cell's `Value::to_string()` text, read off the column's
    /// categories ([`Column::categories`](openbi_table::Column::categories)),
    /// and a null key renders as `""`, so only the key column is read.
    pub fn dice(&self, dimension: &str, values: &[&str]) -> Result<Cube> {
        if !self.dimensions.iter().any(|x| x == dimension) {
            return Err(TableError::InvalidArgument(format!(
                "{dimension} is not a declared dimension"
            )));
        }
        let cats = self.facts.column(dimension)?.categories();
        let kept: Vec<bool> = cats
            .texts()
            .iter()
            .map(|text| values.contains(&text.as_str()))
            .collect();
        let keep_null = values.contains(&"");
        let facts = self
            .facts
            .filter_by_index(|row| cats.code(row).map_or(keep_null, |code| kept[code]));
        Ok(Cube {
            facts,
            dimensions: self.dimensions.clone(),
            measures: self.measures.clone(),
        })
    }

    /// Grand total: all measures over all facts (one row when the fact
    /// table has rows, zero when it is empty — same shape as grouping
    /// by a synthetic constant key).
    pub fn total(&self) -> Result<Table> {
        Ok(self.total_quality(&CubeOptions::default())?.table)
    }

    /// Grand total with quality annotation and build control.
    pub fn total_quality(&self, options: &CubeOptions) -> Result<CubeResult> {
        build_cube(&self.facts, &[], &self.measures, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::{Column, Value};

    fn facts() -> Table {
        Table::new(vec![
            Column::from_str_values("district", ["n", "n", "s", "s"]),
            Column::from_str_values("year", ["2023", "2024", "2023", "2024"]),
            Column::from_f64("spend", [10.0, 20.0, 30.0, 40.0]),
        ])
        .unwrap()
    }

    fn cube() -> Cube {
        Cube::new(
            facts(),
            &["district", "year"],
            vec![Measure::Sum("spend".into()), Measure::Mean("spend".into())],
        )
        .unwrap()
    }

    #[test]
    fn rollup_by_one_dimension() {
        let t = cube().rollup(&["district"]).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.get("sum(spend)", 0).unwrap(), Value::Float(30.0));
        assert_eq!(t.get("sum(spend)", 1).unwrap(), Value::Float(70.0));
    }

    #[test]
    fn rollup_by_two_dimensions() {
        let t = cube().rollup(&["district", "year"]).unwrap();
        assert_eq!(t.n_rows(), 4);
    }

    #[test]
    fn slice_fixes_a_value() {
        let sliced = cube().slice("district", "n").unwrap();
        let t = sliced.rollup(&["year"]).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.get("sum(spend)", 0).unwrap(), Value::Float(10.0));
    }

    #[test]
    fn dice_keeps_selected_values() {
        let diced = cube().dice("year", &["2024"]).unwrap();
        assert_eq!(diced.facts().n_rows(), 2);
        let t = diced.rollup(&["district"]).unwrap();
        assert_eq!(t.get("sum(spend)", 0).unwrap(), Value::Float(20.0));
    }

    #[test]
    fn total_aggregates_everything() {
        let t = cube().total().unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.get("sum(spend)", 0).unwrap(), Value::Float(100.0));
        assert_eq!(t.get("mean(spend)", 0).unwrap(), Value::Float(25.0));
    }

    #[test]
    fn undeclared_dimension_rejected() {
        assert!(cube().rollup(&["spend"]).is_err());
        assert!(cube().rollup(&[]).is_err());
        assert!(cube().slice("spend", "x").is_err());
        assert!(cube().dice("nope", &["x"]).is_err());
        assert!(Cube::new(facts(), &[], vec![]).is_err());
        assert!(Cube::new(facts(), &["nope"], vec![]).is_err());
    }

    #[test]
    fn rollup_quality_annotates_cells() {
        let r = cube()
            .rollup_quality(&["district"], &CubeOptions::with_shards(2))
            .unwrap();
        assert_eq!(r.table.n_rows(), 2);
        assert_eq!(r.quality.len(), 2);
        assert_eq!(r.quality[0].support, 2);
        assert_eq!(r.quality[0].null_ratio, 0.0);
        assert!(!r.is_degraded());
    }
}
