//! The CWM-core-like common representation.
//!
//! The paper (§3.2.1) proposes the OMG Common Warehouse Metamodel as the
//! carrier of the "common representation of LOD". This module implements
//! the relevant slice of CWM's relational/resource packages:
//! `Catalog → Schema → ColumnSet → Column`, with provenance and typed
//! quality annotations attachable to any element (§3.2.2).

use serde::{Deserialize, Serialize};

/// Data types of the metamodel (aligned with `openbi-table` types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelDataType {
    /// 64-bit integer.
    Integer,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    String,
    /// Boolean.
    Boolean,
}

impl ModelDataType {
    /// Whether the type is numeric.
    pub fn is_numeric(self) -> bool {
        matches!(self, ModelDataType::Integer | ModelDataType::Double)
    }
}

/// The analytical role a column plays in mining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ColumnRole {
    /// An input attribute.
    #[default]
    Feature,
    /// The class / target attribute.
    Target,
    /// An identifier — excluded from mining.
    Identifier,
    /// Ignored by mining (e.g. free text).
    Ignored,
}

/// Where a model element came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// Loaded from a CSV document.
    Csv {
        /// Origin descriptor (path or label).
        source: String,
    },
    /// Extracted from Linked Open Data.
    Lod {
        /// The `rdf:type` class IRI that was tabularized.
        class_iri: String,
        /// Number of triples in the source graph.
        triple_count: usize,
    },
    /// Produced synthetically (generator name and seed).
    Synthetic {
        /// Generator identifier.
        generator: String,
        /// Seed used.
        seed: u64,
    },
    /// Unknown origin.
    Unknown,
}

/// A measured data-quality criterion attached to a model element
/// (the paper's §3.2.2 "data quality criteria annotation").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityAnnotation {
    /// Criterion identifier, e.g. `"completeness"`.
    pub criterion: String,
    /// Measured value (criterion-specific scale, usually `[0,1]`).
    pub value: f64,
    /// Free-form detail for the non-expert user.
    pub detail: Option<String>,
}

impl QualityAnnotation {
    /// Create an annotation.
    pub fn new(criterion: impl Into<String>, value: f64) -> Self {
        QualityAnnotation {
            criterion: criterion.into(),
            value,
            detail: None,
        }
    }

    /// Attach a human-readable detail.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

/// A column of a [`ColumnSet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnModel {
    /// Column name.
    pub name: String,
    /// Data type.
    pub data_type: ModelDataType,
    /// Whether nulls were observed.
    pub nullable: bool,
    /// Analytical role.
    pub role: ColumnRole,
    /// Number of categories observed (if known): distinct non-null
    /// `Value::to_string()` texts, as `Column::categories` counts them.
    pub distinct_count: Option<usize>,
    /// Quality annotations scoped to this column.
    pub annotations: Vec<QualityAnnotation>,
}

impl ColumnModel {
    /// Create a column model.
    pub fn new(name: impl Into<String>, data_type: ModelDataType, nullable: bool) -> Self {
        ColumnModel {
            name: name.into(),
            data_type,
            nullable,
            role: ColumnRole::default(),
            distinct_count: None,
            annotations: Vec::new(),
        }
    }

    /// Add a quality annotation (replacing any previous annotation with
    /// the same criterion).
    pub fn annotate(&mut self, annotation: QualityAnnotation) {
        self.annotations
            .retain(|a| a.criterion != annotation.criterion);
        self.annotations.push(annotation);
    }

    /// Look up an annotation by criterion.
    pub fn annotation(&self, criterion: &str) -> Option<&QualityAnnotation> {
        self.annotations.iter().find(|a| a.criterion == criterion)
    }
}

/// A named set of columns (CWM `ColumnSet`; a table or tabularized class).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSet {
    /// Name of the set.
    pub name: String,
    /// Columns, in order.
    pub columns: Vec<ColumnModel>,
    /// Number of rows observed.
    pub row_count: usize,
    /// Where the data came from.
    pub provenance: Provenance,
    /// Quality annotations scoped to the whole set.
    pub annotations: Vec<QualityAnnotation>,
}

impl ColumnSet {
    /// Create a column set.
    pub fn new(name: impl Into<String>, provenance: Provenance) -> Self {
        ColumnSet {
            name: name.into(),
            columns: Vec::new(),
            row_count: 0,
            provenance,
            annotations: Vec::new(),
        }
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnModel> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Mutably look up a column by name.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut ColumnModel> {
        self.columns.iter_mut().find(|c| c.name == name)
    }

    /// Add a set-level quality annotation (replacing same-criterion ones).
    pub fn annotate(&mut self, annotation: QualityAnnotation) {
        self.annotations
            .retain(|a| a.criterion != annotation.criterion);
        self.annotations.push(annotation);
    }

    /// Look up a set-level annotation by criterion.
    pub fn annotation(&self, criterion: &str) -> Option<&QualityAnnotation> {
        self.annotations.iter().find(|a| a.criterion == criterion)
    }

    /// The target column, if one is designated.
    pub fn target(&self) -> Option<&ColumnModel> {
        self.columns.iter().find(|c| c.role == ColumnRole::Target)
    }

    /// Designate `name` as the target column (resetting any previous one
    /// to `Feature`).
    pub fn set_target(&mut self, name: &str) -> bool {
        if self.column(name).is_none() {
            return false;
        }
        for c in &mut self.columns {
            if c.role == ColumnRole::Target {
                c.role = ColumnRole::Feature;
            }
        }
        self.column_mut(name).expect("checked").role = ColumnRole::Target;
        true
    }
}

/// A schema groups column sets (CWM `Schema`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaModel {
    /// Schema name.
    pub name: String,
    /// Column sets in this schema.
    pub column_sets: Vec<ColumnSet>,
}

impl SchemaModel {
    /// Create an empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaModel {
            name: name.into(),
            column_sets: Vec::new(),
        }
    }

    /// Look up a column set by name.
    pub fn column_set(&self, name: &str) -> Option<&ColumnSet> {
        self.column_sets.iter().find(|c| c.name == name)
    }
}

/// The root of the common representation (CWM `Catalog`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    /// Catalog name.
    pub name: String,
    /// Schemas in this catalog.
    pub schemas: Vec<SchemaModel>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new(name: impl Into<String>) -> Self {
        Catalog {
            name: name.into(),
            schemas: Vec::new(),
        }
    }

    /// Look up a schema by name.
    pub fn schema(&self, name: &str) -> Option<&SchemaModel> {
        self.schemas.iter().find(|s| s.name == name)
    }

    /// Mutably look up a schema by name, creating it if absent.
    pub fn schema_mut_or_create(&mut self, name: &str) -> &mut SchemaModel {
        if let Some(pos) = self.schemas.iter().position(|s| s.name == name) {
            &mut self.schemas[pos]
        } else {
            self.schemas.push(SchemaModel::new(name));
            self.schemas.last_mut().expect("just pushed")
        }
    }

    /// Find a column set anywhere in the catalog.
    pub fn find_column_set(&self, name: &str) -> Option<&ColumnSet> {
        self.schemas.iter().find_map(|s| s.column_set(name))
    }

    /// Mutably find a column set anywhere in the catalog.
    pub fn find_column_set_mut(&mut self, name: &str) -> Option<&mut ColumnSet> {
        self.schemas
            .iter_mut()
            .find_map(|s| s.column_sets.iter_mut().find(|c| c.name == name))
    }

    /// Total number of column sets.
    pub fn column_set_count(&self) -> usize {
        self.schemas.iter().map(|s| s.column_sets.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ColumnSet {
        let mut cs = ColumnSet::new("stations", Provenance::Unknown);
        cs.columns
            .push(ColumnModel::new("city", ModelDataType::String, false));
        cs.columns
            .push(ColumnModel::new("pm10", ModelDataType::Double, true));
        cs.row_count = 3;
        cs
    }

    #[test]
    fn annotations_replace_same_criterion() {
        let mut cs = sample_set();
        cs.annotate(QualityAnnotation::new("completeness", 0.8));
        cs.annotate(QualityAnnotation::new("completeness", 0.9));
        assert_eq!(cs.annotations.len(), 1);
        assert_eq!(cs.annotation("completeness").unwrap().value, 0.9);
    }

    #[test]
    fn column_annotation_lookup() {
        let mut cs = sample_set();
        cs.column_mut("pm10")
            .unwrap()
            .annotate(QualityAnnotation::new("outlier_ratio", 0.05).with_detail("IQR fence"));
        let a = cs
            .column("pm10")
            .unwrap()
            .annotation("outlier_ratio")
            .unwrap();
        assert_eq!(a.value, 0.05);
        assert_eq!(a.detail.as_deref(), Some("IQR fence"));
    }

    #[test]
    fn target_designation_is_exclusive() {
        let mut cs = sample_set();
        assert!(cs.set_target("city"));
        assert!(cs.set_target("pm10"));
        assert_eq!(cs.target().unwrap().name, "pm10");
        assert_eq!(cs.column("city").unwrap().role, ColumnRole::Feature);
        assert!(!cs.set_target("nope"));
    }

    #[test]
    fn catalog_navigation() {
        let mut cat = Catalog::new("open-data");
        cat.schema_mut_or_create("env")
            .column_sets
            .push(sample_set());
        assert_eq!(cat.column_set_count(), 1);
        assert!(cat.find_column_set("stations").is_some());
        assert!(cat.schema("env").is_some());
        // Creating again does not duplicate.
        cat.schema_mut_or_create("env");
        assert_eq!(cat.schemas.len(), 1);
    }

    #[test]
    fn model_datatype_numeric() {
        assert!(ModelDataType::Integer.is_numeric());
        assert!(ModelDataType::Double.is_numeric());
        assert!(!ModelDataType::String.is_numeric());
        assert!(!ModelDataType::Boolean.is_numeric());
    }
}
