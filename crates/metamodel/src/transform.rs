//! Model-driven transformations into the common representation.
//!
//! The paper implements this step with Eclipse EMF plugins (§3.3, "LOD
//! integration module" / "Data source module"); here the transforms are
//! native functions from `openbi-table` tables and `openbi-lod` graphs
//! into [`Catalog`] models.

use crate::model::{
    Catalog, ColumnModel, ColumnRole, ColumnSet, ModelDataType, Provenance, SchemaModel,
};
use openbi_lod::{tabularize, Graph, Iri, TabularizeOptions};
use openbi_table::{DataType, Table};

/// Map a table data type to the metamodel data type.
pub fn model_dtype(dtype: DataType) -> ModelDataType {
    match dtype {
        DataType::Int => ModelDataType::Integer,
        DataType::Float => ModelDataType::Double,
        DataType::Str => ModelDataType::String,
        DataType::Bool => ModelDataType::Boolean,
    }
}

/// Build a [`ColumnSet`] describing a table.
///
/// Columns named `id`, `iri` or ending in `_id` are given the
/// [`ColumnRole::Identifier`] role; everything else starts as a feature.
pub fn column_set_from_table(table: &Table, name: &str, provenance: Provenance) -> ColumnSet {
    let mut cs = ColumnSet::new(name, provenance);
    cs.row_count = table.n_rows();
    for col in table.columns() {
        let mut cm = ColumnModel::new(col.name(), model_dtype(col.dtype()), col.null_count() > 0);
        let lower = col.name().to_ascii_lowercase();
        if lower == "id" || lower == "iri" || lower.ends_with("_id") {
            cm.role = ColumnRole::Identifier;
        }
        cm.distinct_count = Some(col.categories().len());
        cs.columns.push(cm);
    }
    cs
}

/// Build a catalog holding a single table.
pub fn catalog_from_table(table: &Table, catalog: &str, schema: &str, set: &str) -> Catalog {
    let mut cat = Catalog::new(catalog);
    let cs = column_set_from_table(
        table,
        set,
        Provenance::Csv {
            source: set.to_string(),
        },
    );
    cat.schema_mut_or_create(schema).column_sets.push(cs);
    cat
}

/// Extract the common representation of a LOD graph: one column set per
/// requested class, each obtained by tabularization. Returns the catalog
/// and the tabularized tables (same order as `classes`), since callers
/// almost always need both the model and the data.
pub fn catalog_from_lod(
    graph: &Graph,
    catalog_name: &str,
    classes: &[Iri],
    options: &TabularizeOptions,
) -> openbi_lod::Result<(Catalog, Vec<Table>)> {
    let mut cat = Catalog::new(catalog_name);
    let mut schema = SchemaModel::new("lod");
    let mut tables = Vec::with_capacity(classes.len());
    for class in classes {
        let table = tabularize(graph, class, options)?;
        let mut cs = column_set_from_table(
            &table,
            class.local_name(),
            Provenance::Lod {
                class_iri: class.as_str().to_string(),
                triple_count: graph.len(),
            },
        );
        // Tabularized LOD always carries the entity IRI as identifier.
        if let Some(c) = cs.column_mut("iri") {
            c.role = ColumnRole::Identifier;
        }
        schema.column_sets.push(cs);
        tables.push(table);
    }
    cat.schemas.push(schema);
    Ok((cat, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_lod::parse_turtle;
    use openbi_table::Column;

    fn sample_table() -> Table {
        Table::new(vec![
            Column::from_i64("id", [1, 2, 3]),
            Column::from_f64("pm10", [20.0, 30.0, 25.0]),
            Column::from_opt_str("city", [Some("a".to_string()), None, Some("b".to_string())]),
        ])
        .unwrap()
    }

    #[test]
    fn table_to_column_set_types_and_roles() {
        let cs = column_set_from_table(&sample_table(), "aq", Provenance::Unknown);
        assert_eq!(cs.row_count, 3);
        assert_eq!(cs.column("id").unwrap().role, ColumnRole::Identifier);
        assert_eq!(cs.column("pm10").unwrap().data_type, ModelDataType::Double);
        assert!(cs.column("city").unwrap().nullable);
        assert!(!cs.column("pm10").unwrap().nullable);
        assert_eq!(cs.column("city").unwrap().distinct_count, Some(2));
    }

    #[test]
    fn catalog_from_table_wires_schema() {
        let cat = catalog_from_table(&sample_table(), "cat", "raw", "aq");
        assert_eq!(cat.column_set_count(), 1);
        assert!(cat.schema("raw").is_some());
        assert!(cat.find_column_set("aq").is_some());
    }

    #[test]
    fn catalog_from_lod_extracts_classes() {
        let g = parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
ex:s1 a ex:Station ; ex:pm10 20.5 ; ex:city "A" .
ex:s2 a ex:Station ; ex:pm10 31.0 .
ex:d1 a ex:District ; ex:name "North" .
"#,
        )
        .unwrap();
        let classes = vec![
            Iri::new("http://ex.org/Station").unwrap(),
            Iri::new("http://ex.org/District").unwrap(),
        ];
        let (cat, tables) =
            catalog_from_lod(&g, "lod-cat", &classes, &TabularizeOptions::default()).unwrap();
        assert_eq!(cat.column_set_count(), 2);
        assert_eq!(tables.len(), 2);
        let station = cat.find_column_set("Station").unwrap();
        assert_eq!(station.row_count, 2);
        assert_eq!(station.column("iri").unwrap().role, ColumnRole::Identifier);
        assert!(!station.column("pm10").unwrap().nullable);
        match &station.provenance {
            Provenance::Lod { class_iri, .. } => {
                assert_eq!(class_iri, "http://ex.org/Station")
            }
            other => panic!("unexpected provenance {other:?}"),
        }
        // The "city" column is missing for s2 → nullable.
        assert!(station.column("city").unwrap().nullable);
    }

    #[test]
    fn dtype_mapping_is_total() {
        assert_eq!(model_dtype(DataType::Int), ModelDataType::Integer);
        assert_eq!(model_dtype(DataType::Float), ModelDataType::Double);
        assert_eq!(model_dtype(DataType::Str), ModelDataType::String);
        assert_eq!(model_dtype(DataType::Bool), ModelDataType::Boolean);
    }
}
