//! The [`Instances`] mining dataset: a typed feature matrix with an
//! optional nominal class attribute, built from an `openbi-table` table.
//!
//! # Data layout (DESIGN.md §11)
//!
//! Storage is columnar struct-of-arrays: each attribute is one
//! contiguous `Vec<f64>`, and a NaN in a value slot is the one missing
//! marker. A numeric cell is read through
//! [`Column::numbers`](openbi_table::Column::numbers), so a NaN or ±∞
//! cell is stored as missing and a table with such cells trains and
//! predicts exactly like the same table with those cells null. A cell
//! handed to [`Instances::from_rows`] follows the same rule. Numeric
//! attributes hold their value; nominal attributes hold a category index
//! (as `f64` so one column type serves both). Classifiers must tolerate
//! missing cells, since the quality experiments inject missingness on
//! purpose.
//!
//! Per-attribute statistics ([`InstancesView::numeric_ranges`],
//! [`InstancesView::numeric_means`]) are computed over a view's rows in
//! row order when a learner asks for them; nothing is cached.
//!
//! Cross-validation folds and attribute subsets are expressed as
//! borrowed [`InstancesView`]s (row-index + column-mask) — zero row
//! copies per fold.

use crate::error::{MiningError, Result};
use openbi_table::{Column, DataType, Table};
use std::borrow::Cow;

/// The kind of a mining attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrKind {
    /// Real-valued.
    Numeric,
    /// Categorical with the given value dictionary (index = code).
    Nominal(Vec<String>),
}

impl AttrKind {
    /// Number of categories (0 for numeric).
    pub fn cardinality(&self) -> usize {
        match self {
            AttrKind::Numeric => 0,
            AttrKind::Nominal(v) => v.len(),
        }
    }
}

/// A named, typed mining attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name (source column name).
    pub name: String,
    /// Attribute kind.
    pub kind: AttrKind,
}

/// A value slot read back as a cell (NaN = missing).
#[inline]
fn cell(v: f64) -> Option<f64> {
    (!v.is_nan()).then_some(v)
}

/// A mining dataset in columnar struct-of-arrays layout (see module
/// docs): one contiguous value vector per attribute, plus optional class
/// labels.
#[derive(Debug, Clone)]
pub struct Instances {
    /// Attribute metadata, in column order.
    pub attributes: Vec<Attribute>,
    /// Class label index per row (`None` = unlabeled).
    pub labels: Vec<Option<usize>>,
    /// Class value dictionary (empty when the dataset has no target).
    pub class_names: Vec<String>,
    /// One value vector per attribute; missing slots hold `f64::NAN`.
    columns: Vec<Vec<f64>>,
    n_rows: usize,
}

impl PartialEq for Instances {
    /// Cell-level equality: missing matches missing, present values
    /// compare with `f64` equality.
    fn eq(&self, other: &Self) -> bool {
        if self.attributes != other.attributes
            || self.labels != other.labels
            || self.class_names != other.class_names
            || self.n_rows != other.n_rows
        {
            return false;
        }
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| a.iter().map(|&v| cell(v)).eq(b.iter().map(|&v| cell(v))))
    }
}

impl Instances {
    /// Build instances from a table.
    ///
    /// * `target`: optional class column (any type). It and every string
    ///   attribute get their nominal dictionary from
    ///   [`Column::categories`](openbi_table::Column::categories): one
    ///   category per distinct `Value::to_string()` text, coded in
    ///   first-seen row order, null cells missing.
    /// * `exclude`: columns to skip entirely (identifiers etc.).
    pub fn from_table(table: &Table, target: Option<&str>, exclude: &[&str]) -> Result<Self> {
        if let Some(t) = target {
            table.column(t)?;
        }
        let mut attributes = Vec::new();
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for col in table.columns() {
            if exclude.contains(&col.name()) || Some(col.name()) == target {
                continue;
            }
            let (kind, data) = match col.dtype() {
                DataType::Int | DataType::Float => (AttrKind::Numeric, col.numbers()),
                DataType::Bool => (
                    AttrKind::Nominal(vec!["false".into(), "true".into()]),
                    col.numbers(),
                ),
                DataType::Str => {
                    let cats = col.categories();
                    let data = (0..col.len())
                        .map(|r| cats.code(r).map_or(f64::NAN, |c| c as f64))
                        .collect();
                    (AttrKind::Nominal(cats.texts()), data)
                }
            };
            columns.push(data);
            attributes.push(Attribute {
                name: col.name().to_string(),
                kind,
            });
        }
        if attributes.is_empty() {
            return Err(MiningError::InvalidDataset(
                "no usable feature columns".to_string(),
            ));
        }
        let n = table.n_rows();
        let (labels, class_names) = match target {
            Some(t) => {
                let cats = table.column(t)?.categories();
                ((0..n).map(|r| cats.code(r)).collect(), cats.texts())
            }
            None => (vec![None; n], vec![]),
        };
        Ok(Instances {
            attributes,
            labels,
            class_names,
            columns,
            n_rows: n,
        })
    }

    /// Build instances directly from row-major cells (test fixtures and
    /// the row-major reference bridge). Panics if any row's width differs
    /// from `attributes.len()` or `labels.len() != rows.len()`.
    pub fn from_rows(
        attributes: Vec<Attribute>,
        rows: Vec<Vec<Option<f64>>>,
        labels: Vec<Option<usize>>,
        class_names: Vec<String>,
    ) -> Self {
        let n = rows.len();
        assert_eq!(labels.len(), n, "labels and rows must be the same length");
        for row in &rows {
            assert_eq!(
                row.len(),
                attributes.len(),
                "every row must have one cell per attribute"
            );
        }
        let columns = attributes
            .iter()
            .enumerate()
            .map(|(a, attr)| Column::from_opt_f64(&attr.name, rows.iter().map(|r| r[a])).numbers())
            .collect();
        Instances {
            attributes,
            labels,
            class_names,
            columns,
            n_rows: n,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Indices of rows with a known label.
    pub fn labeled_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.labels[i].is_some())
            .collect()
    }

    /// Class distribution over labeled rows.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for l in self.labels.iter().flatten() {
            counts[*l] += 1;
        }
        counts
    }

    /// Cell value (`None` = missing).
    #[inline]
    pub fn get(&self, row: usize, attr: usize) -> Option<f64> {
        cell(self.columns[attr][row])
    }

    /// The contiguous value slice of one attribute (NaN at missing slots).
    pub fn column_values(&self, attr: usize) -> &[f64] {
        &self.columns[attr]
    }

    /// A borrowed column accessor (unmasked).
    pub fn col(&self, attr: usize) -> ColumnView<'_> {
        ColumnView {
            values: &self.columns[attr],
            rows: None,
        }
    }

    /// A borrowed whole-dataset view (zero-copy fold building starts
    /// here: chain [`InstancesView::select_rows`] /
    /// [`InstancesView::select_attrs`]).
    pub fn view(&self) -> InstancesView<'_> {
        InstancesView {
            data: self,
            rows: None,
            cols: None,
        }
    }

    /// The majority class index over labeled rows (0 if unlabeled).
    pub fn majority_class(&self) -> usize {
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// A borrowed row-selection + column-mask over an [`Instances`].
///
/// Views are cheap (two optional index slices); `select_rows` on a fold
/// costs one index vector, never a row copy. Row indices in a view are
/// *view-local*: `get(i, j)` addresses the `i`-th selected row and the
/// `j`-th selected attribute. Statistics run over the selected rows in
/// selection order, exactly matching what the
/// [`materialize`](InstancesView::materialize)d selection would report.
///
/// Aliasing: a view holds `&Instances`, so the borrow checker statically
/// rules out mutation while any view is alive — there is no
/// copy-then-diverge hazard.
#[derive(Debug, Clone)]
pub struct InstancesView<'a> {
    data: &'a Instances,
    /// Selected base-dataset row indices (`None` = all rows, in order).
    rows: Option<Cow<'a, [usize]>>,
    /// Selected base-dataset attribute indices (`None` = all).
    cols: Option<Cow<'a, [usize]>>,
}

impl<'a> InstancesView<'a> {
    /// Map a view-local attribute index to the base dataset's index.
    #[inline]
    fn base_attr(&self, attr: usize) -> usize {
        match &self.cols {
            Some(c) => c[attr],
            None => attr,
        }
    }

    /// Map a view-local row index to the base dataset's index.
    #[inline]
    pub fn base_row(&self, row: usize) -> usize {
        match &self.rows {
            Some(r) => r[row],
            None => row,
        }
    }

    /// Number of (selected) rows.
    pub fn len(&self) -> usize {
        match &self.rows {
            Some(r) => r.len(),
            None => self.data.len(),
        }
    }

    /// True iff the view selects no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of (selected) attributes.
    pub fn n_attributes(&self) -> usize {
        match &self.cols {
            Some(c) => c.len(),
            None => self.data.n_attributes(),
        }
    }

    /// Attribute metadata by view-local index.
    pub fn attribute(&self, attr: usize) -> &'a Attribute {
        &self.data.attributes[self.base_attr(attr)]
    }

    /// Number of classes in the base dataset.
    pub fn n_classes(&self) -> usize {
        self.data.n_classes()
    }

    /// Class value dictionary of the base dataset.
    pub fn class_names(&self) -> &'a [String] {
        &self.data.class_names
    }

    /// Label of a view-local row.
    #[inline]
    pub fn label(&self, row: usize) -> Option<usize> {
        self.data.labels[self.base_row(row)]
    }

    /// View-local indices of rows with a known label.
    pub fn labeled_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.label(i).is_some())
            .collect()
    }

    /// Class distribution over the view's labeled rows.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for i in 0..self.len() {
            if let Some(l) = self.label(i) {
                counts[l] += 1;
            }
        }
        counts
    }

    /// The majority class index over the view's labeled rows.
    pub fn majority_class(&self) -> usize {
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Cell value by view-local row and attribute.
    #[inline]
    pub fn get(&self, row: usize, attr: usize) -> Option<f64> {
        self.data.get(self.base_row(row), self.base_attr(attr))
    }

    /// A borrowed column accessor (carries the view's row selection).
    pub fn col(&self, attr: usize) -> ColumnView<'_> {
        ColumnView {
            values: &self.data.columns[self.base_attr(attr)],
            rows: self.rows.as_deref(),
        }
    }

    /// Narrow to a subset of this view's rows (indices are view-local and
    /// may repeat). Borrows `rows` — no copies.
    pub fn select_rows<'b>(&'b self, rows: &'b [usize]) -> InstancesView<'b> {
        let mapped: Cow<'b, [usize]> = match &self.rows {
            None => Cow::Borrowed(rows),
            Some(_) => Cow::Owned(rows.iter().map(|&i| self.base_row(i)).collect()),
        };
        InstancesView {
            data: self.data,
            rows: Some(mapped),
            cols: self.cols.as_deref().map(Cow::Borrowed),
        }
    }

    /// Narrow to a subset of this view's rows with an owned index vector
    /// (for views that must outlive the index buffer, e.g. holdout
    /// splits returned to the caller).
    pub fn select_rows_owned(&self, rows: Vec<usize>) -> InstancesView<'a> {
        let mapped: Vec<usize> = match &self.rows {
            None => rows,
            Some(_) => rows.iter().map(|&i| self.base_row(i)).collect(),
        };
        InstancesView {
            data: self.data,
            rows: Some(Cow::Owned(mapped)),
            cols: self.cols.clone(),
        }
    }

    /// Narrow to a subset of this view's attributes (view-local indices).
    pub fn select_attrs<'b>(&'b self, attrs: &'b [usize]) -> InstancesView<'b> {
        let mapped: Cow<'b, [usize]> = match &self.cols {
            None => Cow::Borrowed(attrs),
            Some(_) => Cow::Owned(attrs.iter().map(|&j| self.base_attr(j)).collect()),
        };
        InstancesView {
            data: self.data,
            rows: self.rows.as_deref().map(Cow::Borrowed),
            cols: Some(mapped),
        }
    }

    /// Per-attribute `(min, max)` over the view's non-missing numeric
    /// cells, folded in row order (`None` for nominal or all-missing
    /// attributes).
    pub fn numeric_ranges(&self) -> Vec<Option<(f64, f64)>> {
        (0..self.n_attributes())
            .map(|j| {
                if self.attribute(j).kind != AttrKind::Numeric {
                    return None;
                }
                let (mut lo, mut hi, mut present) = (f64::INFINITY, f64::NEG_INFINITY, false);
                for v in self.col(j).iter().flatten() {
                    lo = lo.min(v);
                    hi = hi.max(v);
                    present = true;
                }
                present.then_some((lo, hi))
            })
            .collect()
    }

    /// Per-attribute mean over the view's non-missing numeric cells,
    /// summed in row order from `0.0` (`None` for nominal or all-missing
    /// attributes).
    pub fn numeric_means(&self) -> Vec<Option<f64>> {
        (0..self.n_attributes())
            .map(|j| {
                if self.attribute(j).kind != AttrKind::Numeric {
                    return None;
                }
                let (mut sum, mut present) = (0.0, 0usize);
                for v in self.col(j).iter().flatten() {
                    sum += v;
                    present += 1;
                }
                (present > 0).then(|| sum / present as f64)
            })
            .collect()
    }

    /// Materialize the view into an owned [`Instances`] (used where an
    /// owned dataset is genuinely needed, e.g. handing a reduced dataset
    /// back to a caller).
    pub fn materialize(&self) -> Instances {
        let attrs: Vec<Attribute> = (0..self.n_attributes())
            .map(|j| self.attribute(j).clone())
            .collect();
        let columns = (0..self.n_attributes())
            .map(|j| {
                let col = &self.data.columns[self.base_attr(j)];
                match &self.rows {
                    None => col.clone(),
                    Some(rows) => rows.iter().map(|&i| col[i]).collect(),
                }
            })
            .collect();
        Instances {
            attributes: attrs,
            labels: (0..self.len()).map(|i| self.label(i)).collect(),
            class_names: self.data.class_names.clone(),
            columns,
            n_rows: self.len(),
        }
    }
}

/// A borrowed single-column accessor carrying an optional row selection.
///
/// `get(i)` addresses the `i`-th selected row.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    values: &'a [f64],
    rows: Option<&'a [usize]>,
}

impl<'a> ColumnView<'a> {
    /// Number of (selected) rows.
    pub fn len(&self) -> usize {
        match self.rows {
            Some(r) => r.len(),
            None => self.values.len(),
        }
    }

    /// True iff the column view has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell value by view-local row index.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        let r = match self.rows {
            Some(rows) => rows[i],
            None => i,
        };
        cell(self.values[r])
    }

    /// Iterate cells in view order.
    pub fn iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::from_i64("id", [1, 2, 3, 4]),
            Column::from_f64("x", [0.5, 1.5, 2.5, 3.5]),
            Column::from_opt_str(
                "color",
                [
                    Some("red".to_string()),
                    Some("blue".to_string()),
                    None,
                    Some("red".to_string()),
                ],
            ),
            Column::from_bool("flag", [true, false, true, true]),
            Column::from_str_values("class", ["a", "b", "a", "a"]),
        ])
        .unwrap()
    }

    #[test]
    fn builds_typed_attributes() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        assert_eq!(inst.n_attributes(), 3);
        assert_eq!(inst.attributes[0].kind, AttrKind::Numeric);
        assert_eq!(
            inst.attributes[1].kind,
            AttrKind::Nominal(vec!["red".into(), "blue".into()])
        );
        assert_eq!(inst.attributes[2].kind.cardinality(), 2);
        assert_eq!(inst.class_names, vec!["a", "b"]);
        assert_eq!(inst.len(), 4);
    }

    #[test]
    fn nominal_codes_match_dictionary() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        assert_eq!(inst.get(0, 1), Some(0.0)); // red
        assert_eq!(inst.get(1, 1), Some(1.0)); // blue
        assert_eq!(inst.get(2, 1), None);
        assert_eq!(inst.get(3, 1), Some(0.0)); // red again
        assert_eq!(inst.labels, vec![Some(0), Some(1), Some(0), Some(0)]);
    }

    #[test]
    fn no_target_leaves_unlabeled() {
        let inst = Instances::from_table(&table(), None, &["id"]).unwrap();
        assert_eq!(inst.n_classes(), 0);
        assert!(inst.labels.iter().all(Option::is_none));
        assert!(inst.labeled_indices().is_empty());
    }

    #[test]
    fn missing_target_column_errors() {
        assert!(Instances::from_table(&table(), Some("nope"), &[]).is_err());
    }

    #[test]
    fn all_columns_excluded_errors() {
        let t = Table::new(vec![Column::from_i64("only", [1])]).unwrap();
        assert!(Instances::from_table(&t, None, &["only"]).is_err());
    }

    #[test]
    fn stats_helpers() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        assert_eq!(inst.class_counts(), vec![3, 1]);
        assert_eq!(inst.majority_class(), 0);
        let ranges = inst.view().numeric_ranges();
        assert_eq!(ranges[0], Some((0.5, 3.5)));
        assert_eq!(ranges[1], None);
        let means = inst.view().numeric_means();
        assert_eq!(means[0], Some(2.0));
        assert_eq!(means[1], None);
    }

    #[test]
    fn subset_selects_rows() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        let s = inst.view().select_rows(&[3, 0, 3]).materialize();
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels, vec![Some(0), Some(0), Some(0)]);
        assert_eq!(s.get(0, 0), Some(3.5));
    }

    #[test]
    fn bitmap_all_missing_and_no_missing_columns() {
        let attr = Attribute {
            name: "x".into(),
            kind: AttrKind::Numeric,
        };
        let full = Instances::from_rows(
            vec![attr.clone()],
            vec![vec![Some(1.0)], vec![Some(2.0)], vec![Some(3.0)]],
            vec![None; 3],
            vec![],
        );
        assert!(full.col(0).iter().all(|c| c.is_some()));
        let empty = Instances::from_rows(
            vec![attr],
            vec![vec![None], vec![None], vec![None]],
            vec![None; 3],
            vec![],
        );
        assert!(empty.col(0).iter().all(|c| c.is_none()));
        assert_eq!(empty.view().numeric_ranges()[0], None);
        assert_eq!(empty.view().numeric_means()[0], None);
        assert!(empty.column_values(0).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn non_finite_cells_are_missing() {
        let attr = Attribute {
            name: "x".into(),
            kind: AttrKind::Numeric,
        };
        let cells = [Some(f64::NAN), Some(-f64::NAN), Some(f64::INFINITY), None];
        let odd = Instances::from_rows(
            vec![attr.clone()],
            cells
                .iter()
                .map(|&c| vec![c])
                .chain([vec![Some(2.0)]])
                .collect(),
            vec![None; 5],
            vec![],
        );
        let null = Instances::from_rows(
            vec![attr],
            (0..4)
                .map(|_| vec![None])
                .chain([vec![Some(2.0)]])
                .collect(),
            vec![None; 5],
            vec![],
        );
        assert!((0..4).all(|r| odd.get(r, 0).is_none()));
        assert_eq!(odd.view().numeric_ranges(), null.view().numeric_ranges());
        assert_eq!(odd.view().numeric_means(), null.view().numeric_means());
        assert_eq!(odd, null);
        let signed = Instances::from_rows(
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
            vec![vec![Some(f64::NEG_INFINITY)], vec![Some(-0.0)]],
            vec![None; 2],
            vec![],
        );
        assert_eq!(signed.get(0, 0), None);
        assert_eq!(
            signed.get(1, 0).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn view_stats_skip_missing_cells() {
        let x = |cells: &[Option<f64>]| {
            Instances::from_rows(
                vec![Attribute {
                    name: "x".into(),
                    kind: AttrKind::Numeric,
                }],
                cells.iter().map(|&c| vec![c]).collect(),
                vec![None; cells.len()],
                vec![],
            )
        };
        let inst = x(&[None, Some(1.5), Some(2.5), Some(3.5)]);
        assert_eq!(inst.view().numeric_ranges(), vec![Some((1.5, 3.5))]);
        assert_eq!(inst.view().numeric_means(), vec![Some(2.5)]);
        // The sum starts from 0.0, so an all -0.0 column has mean +0.0.
        let zero = x(&[Some(-0.0), None]).view().numeric_means()[0].unwrap();
        assert_eq!(zero.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn view_masking_matches_materialized_subset() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        let view = inst.view();
        let rows = [3usize, 0, 3];
        let masked = view.select_rows(&rows);
        let owned = inst.view().select_rows(&rows).materialize();
        assert_eq!(masked.len(), 3);
        assert_eq!(masked.numeric_ranges(), owned.view().numeric_ranges());
        assert_eq!(masked.numeric_means(), owned.view().numeric_means());
        assert_eq!(masked.class_counts(), owned.class_counts());
        // Chained selection composes through to base rows.
        let narrower = masked.select_rows(&[1]);
        assert_eq!(narrower.get(0, 0), Some(0.5));
        assert_eq!(narrower.base_row(0), 0);
    }

    #[test]
    fn view_attr_masking_remaps_indices() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        let view = inst.view();
        let attrs = [2usize, 0];
        let masked = view.select_attrs(&attrs);
        assert_eq!(masked.n_attributes(), 2);
        assert_eq!(masked.attribute(0).name, "flag");
        assert_eq!(masked.attribute(1).name, "x");
        assert_eq!(masked.get(0, 1), Some(0.5));
        // Stats follow the mask.
        assert_eq!(masked.numeric_ranges(), vec![None, Some((0.5, 3.5))]);
        // Chained attr selection maps through the existing mask.
        let narrower = masked.select_attrs(&[1]);
        assert_eq!(narrower.attribute(0).name, "x");
        let m = narrower.materialize();
        assert_eq!(m.n_attributes(), 1);
        assert_eq!(m.attributes[0].name, "x");
    }

    #[test]
    fn masked_view_stats_recompute_in_selection_order() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        let view = inst.view();
        let rows = [2usize, 1];
        let masked = view.select_rows(&rows);
        // x over rows {2, 1}; color and flag are nominal.
        assert_eq!(masked.numeric_ranges(), vec![Some((1.5, 2.5)), None, None]);
        assert_eq!(masked.numeric_means(), vec![Some(2.0), None, None]);
    }

    #[test]
    fn column_view_dense_and_masked_access() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        let dense = inst.col(1);
        assert_eq!(dense.len(), 4);
        assert_eq!(dense.get(2), None);
        assert_eq!(dense.get(3), Some(0.0));
        let view = inst.view();
        let rows = [2usize, 0];
        let masked_view = view.select_rows(&rows);
        let col = masked_view.col(1);
        assert_eq!(col.len(), 2);
        assert_eq!(col.get(0), None);
        assert_eq!(col.get(1), Some(0.0));
        assert_eq!(col.iter().collect::<Vec<_>>(), vec![None, Some(0.0)]);
    }

    #[test]
    fn from_rows_round_trips_through_columns() {
        let inst = Instances::from_table(&table(), Some("class"), &["id"]).unwrap();
        let rows: Vec<Vec<Option<f64>>> = (0..inst.len())
            .map(|i| {
                (0..inst.n_attributes())
                    .map(|a| inst.col(a).get(i))
                    .collect()
            })
            .collect();
        let rebuilt = Instances::from_rows(
            inst.attributes.clone(),
            rows,
            inst.labels.clone(),
            inst.class_names.clone(),
        );
        assert_eq!(rebuilt, inst);
    }
}
