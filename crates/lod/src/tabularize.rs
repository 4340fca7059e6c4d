//! Tabularization: the entity–property pivot from an RDF graph to a
//! [`Table`].
//!
//! This is the first half of the paper's §3.2 "common representation"
//! step: every subject of a chosen `rdf:type` becomes a row; every
//! predicate its instances use becomes a column. Multi-valued properties
//! and object links are handled per [`TabularizeOptions`]. Literal columns
//! are typed by majority datatype; cells that fail to parse — or are
//! absent for an entity — become nulls, which is exactly what makes LOD
//! "high-dimensional and incomplete" downstream.

use crate::error::{LodError, Result};
use crate::graph::Graph;
use crate::term::{Iri, Term};
use crate::vocab::rdf;
use openbi_table::{Column, DataType, Table, Value};
use std::collections::{HashMap, HashSet};

/// How to reduce multiple values of one property for one entity to a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiValue {
    /// Take the first value (in term order) and ignore the rest.
    First,
    /// Store the number of values as an integer.
    Count,
}

/// Options controlling tabularization.
#[derive(Debug, Clone)]
pub struct TabularizeOptions {
    /// Reduction for multi-valued properties (default: `First`).
    pub multi_value: MultiValue,
    /// Include a leading `iri` column holding each entity's identifier.
    pub include_iri: bool,
    /// Skip the `rdf:type` predicate as a column (default true).
    pub skip_type: bool,
    /// Represent object (IRI/blank) values by their local name string.
    /// When false, object-valued predicates are dropped entirely.
    pub objects_as_local_names: bool,
}

impl Default for TabularizeOptions {
    fn default() -> Self {
        TabularizeOptions {
            multi_value: MultiValue::First,
            include_iri: true,
            skip_type: true,
            objects_as_local_names: true,
        }
    }
}

/// The cell of one entity's `count` values of one property, `first`
/// being the first of them in term order.
fn cell_from_terms(first: &Term, count: usize, options: &TabularizeOptions) -> Value {
    match options.multi_value {
        MultiValue::Count if count > 1 => return Value::Int(count as i64),
        _ => {}
    }
    match first {
        Term::Literal(l) => {
            if let Some(dt) = &l.datatype {
                match dt.local_name() {
                    "integer" | "int" | "long" => l.as_i64().map(Value::Int).unwrap_or(Value::Null),
                    "double" | "float" | "decimal" => {
                        l.as_f64().map(Value::Float).unwrap_or(Value::Null)
                    }
                    "boolean" => l.as_bool().map(Value::Bool).unwrap_or(Value::Null),
                    _ => Value::Str(l.lexical.clone()),
                }
            } else {
                Value::Str(l.lexical.clone())
            }
        }
        Term::Iri(i) => {
            if options.objects_as_local_names {
                Value::Str(i.local_name().to_string())
            } else {
                Value::Null
            }
        }
        Term::Blank(b) => {
            if options.objects_as_local_names {
                Value::Str(format!("_:{b}"))
            } else {
                Value::Null
            }
        }
    }
}

/// Decide a column type from its (possibly heterogeneous) cell values:
/// the narrowest type covering every non-null cell, falling back to Str.
fn unify_dtype(values: &[Value]) -> DataType {
    let mut dtype: Option<DataType> = None;
    for v in values {
        let Some(t) = v.dtype() else { continue };
        dtype = Some(match (dtype, t) {
            (None, t) => t,
            (Some(a), b) if a == b => a,
            (Some(DataType::Int), DataType::Float) | (Some(DataType::Float), DataType::Int) => {
                DataType::Float
            }
            _ => DataType::Str,
        });
    }
    dtype.unwrap_or(DataType::Str)
}

fn coerce(values: Vec<Value>, dtype: DataType) -> Vec<Value> {
    values
        .into_iter()
        .map(|v| match (dtype, v) {
            (_, Value::Null) => Value::Null,
            (DataType::Float, Value::Int(i)) => Value::Float(i as f64),
            (DataType::Str, v) => Value::Str(v.to_string()),
            (_, v) => v,
        })
        .collect()
}

/// Pivot all subjects of `class` into a table.
///
/// Column names are predicate local names; the second, third, … predicate
/// sharing a local name gets `_2`, `_3`, …. A name already taken, by the
/// `iri` column or an earlier column of the table, moves on to the next
/// free suffix. Columns appear in first-encountered order; entities
/// appear in the graph's subject order.
///
/// Works on term ids: one pass over the index finds the entities, and
/// one range scan per entity groups its (predicate, object) ids into
/// cells, since the index keeps one subject's objects of one predicate
/// together.
pub fn tabularize(graph: &Graph, class: &Iri, options: &TabularizeOptions) -> Result<Table> {
    let type_id = graph.lookup(&Term::Iri(rdf::type_()));
    let entities: Vec<u32> = match (type_id, graph.lookup(&Term::Iri(class.clone()))) {
        (Some(type_id), Some(class_id)) => graph
            .spo_ids()
            .filter(|&(_, p, o)| p == type_id && o == class_id)
            .map(|(s, _, _)| s)
            .collect(),
        _ => Vec::new(),
    };
    if entities.is_empty() {
        return Err(LodError::Tabularize(format!(
            "no entities of type <{}>",
            class.as_str()
        )));
    }
    // Predicates in first-encountered order, each with its column of
    // cells (null where an entity lacks it); `column_of` maps a
    // predicate id to its index.
    let mut predicates: Vec<(&Iri, Vec<Value>)> = Vec::new();
    let mut column_of: HashMap<u32, usize> = HashMap::new();
    for (row, &entity) in entities.iter().enumerate() {
        let mut pairs = graph.po_ids(entity).peekable();
        while let Some((p, o)) = pairs.next() {
            let mut first = graph.term(o);
            let mut count = 1;
            while let Some((_, o)) = pairs.next_if(|&(next, _)| next == p) {
                first = first.min(graph.term(o));
                count += 1;
            }
            if options.skip_type && Some(p) == type_id {
                continue;
            }
            let Term::Iri(iri) = graph.term(p) else {
                continue;
            };
            let column = *column_of.entry(p).or_insert_with(|| {
                predicates.push((iri, vec![Value::Null; entities.len()]));
                predicates.len() - 1
            });
            predicates[column].1[row] = cell_from_terms(first, count, options);
        }
    }
    // Build columns.
    let mut columns: Vec<Column> = Vec::new();
    let mut taken: HashSet<String> = HashSet::new();
    if options.include_iri {
        let iris: Vec<String> = entities
            .iter()
            .map(|&e| match graph.term(e) {
                Term::Iri(i) => i.as_str().to_string(),
                Term::Blank(b) => format!("_:{b}"),
                Term::Literal(_) => unreachable!("subjects are never literals"),
            })
            .collect();
        columns.push(Column::from_str_values("iri", iris));
        taken.insert("iri".to_string());
    }
    let mut repeats: HashMap<&str, usize> = HashMap::new();
    for (p, values) in predicates {
        let base = p.local_name();
        let repeat = repeats.entry(base).or_insert(0);
        *repeat += 1;
        // Drop columns that end up entirely null (e.g. object-valued
        // predicates with objects_as_local_names = false).
        if values.iter().all(Value::is_null) {
            continue;
        }
        // `repeat` also counts predicates whose columns were dropped, so
        // whenever the plain `_2`, `_3`, … rule gives distinct names, the
        // loop below never runs.
        let mut k = *repeat;
        let mut name = if k == 1 {
            base.to_string()
        } else {
            format!("{base}_{k}")
        };
        while taken.contains(&name) {
            k += 1;
            name = format!("{base}_{k}");
        }
        taken.insert(name.clone());
        let dtype = unify_dtype(&values);
        let col = Column::from_values(name, dtype, coerce(values, dtype))
            .map_err(|e| LodError::Tabularize(e.to_string()))?;
        columns.push(col);
    }
    Table::new(columns).map_err(|e| LodError::Tabularize(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turtle::parse_turtle;

    fn sample() -> Graph {
        parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
ex:a a ex:Station ; ex:city "Alicante" ; ex:pm10 21.5 ; ex:sensors 4 ; ex:active true .
ex:b a ex:Station ; ex:city "Elche" ; ex:pm10 33.0 ; ex:sensors 2 ; ex:near ex:a .
ex:c a ex:Station ; ex:city "Alcoy" ; ex:sensors 1 ; ex:active false .
ex:zzz a ex:Other ; ex:city "Nowhere" .
"#,
        )
        .unwrap()
    }

    fn station() -> Iri {
        Iri::new("http://ex.org/Station").unwrap()
    }

    #[test]
    fn rows_are_entities_of_class() {
        let t = tabularize(&sample(), &station(), &TabularizeOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert!(t.has_column("iri"));
        assert!(t.has_column("city"));
        assert!(!t.has_column("type"));
    }

    #[test]
    fn missing_properties_become_nulls() {
        let t = tabularize(&sample(), &station(), &TabularizeOptions::default()).unwrap();
        let pm10 = t.column("pm10").unwrap();
        assert_eq!(pm10.dtype(), DataType::Float);
        assert_eq!(pm10.null_count(), 1);
    }

    #[test]
    fn typed_literals_become_typed_columns() {
        let t = tabularize(&sample(), &station(), &TabularizeOptions::default()).unwrap();
        assert_eq!(t.column("sensors").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("active").unwrap().dtype(), DataType::Bool);
        assert_eq!(t.column("city").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn object_links_become_local_names() {
        let t = tabularize(&sample(), &station(), &TabularizeOptions::default()).unwrap();
        let near = t.column("near").unwrap();
        assert_eq!(near.dtype(), DataType::Str);
        let non_null: Vec<Value> = near.iter().filter(|v| !v.is_null()).collect();
        assert_eq!(non_null, vec![Value::Str("a".into())]);
    }

    #[test]
    fn object_links_dropped_when_disabled() {
        let opts = TabularizeOptions {
            objects_as_local_names: false,
            ..Default::default()
        };
        let t = tabularize(&sample(), &station(), &opts).unwrap();
        assert!(!t.has_column("near"));
    }

    #[test]
    fn multivalue_count_mode() {
        let g = parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
ex:a a ex:P ; ex:tag "x", "y", "z" .
ex:b a ex:P ; ex:tag "only" .
"#,
        )
        .unwrap();
        let opts = TabularizeOptions {
            multi_value: MultiValue::Count,
            include_iri: false,
            ..Default::default()
        };
        let t = tabularize(&g, &Iri::new("http://ex.org/P").unwrap(), &opts).unwrap();
        // Mixed Int (count 3) and Str ("only") unify to Str.
        let tag = t.column("tag").unwrap();
        assert_eq!(tag.dtype(), DataType::Str);
        let mut vals: Vec<String> = tag.iter().map(|v| v.to_string()).collect();
        vals.sort();
        assert_eq!(vals, vec!["3".to_string(), "only".to_string()]);
    }

    #[test]
    fn multivalue_first_is_deterministic() {
        let g = parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
ex:a a ex:P ; ex:tag "zebra", "apple" .
"#,
        )
        .unwrap();
        let t = tabularize(
            &g,
            &Iri::new("http://ex.org/P").unwrap(),
            &TabularizeOptions::default(),
        )
        .unwrap();
        // Terms are sorted, so "apple" wins regardless of insertion order.
        assert_eq!(t.get("tag", 0).unwrap(), Value::Str("apple".into()));
    }

    #[test]
    fn no_entities_is_error() {
        let err = tabularize(
            &sample(),
            &Iri::new("http://ex.org/Nothing").unwrap(),
            &TabularizeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LodError::Tabularize(_)));
    }

    #[test]
    fn a_predicate_named_iri_gets_the_next_free_name() {
        let g = parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
ex:a a ex:P ; ex:iri "local" .
"#,
        )
        .unwrap();
        let t = tabularize(
            &g,
            &Iri::new("http://ex.org/P").unwrap(),
            &TabularizeOptions::default(),
        )
        .unwrap();
        assert_eq!(t.column_names(), ["iri", "iri_2"]);
        assert_eq!(
            t.get("iri", 0).unwrap(),
            Value::Str("http://ex.org/a".into())
        );
        assert_eq!(t.get("iri_2", 0).unwrap(), Value::Str("local".into()));
    }

    #[test]
    fn a_local_name_equal_to_a_renamed_column_gets_the_next_free_name() {
        let g = parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
@prefix p: <http://p.org/> .
@prefix q: <http://q.org/> .
@prefix r: <http://r.org/> .
ex:a a ex:P ; p:x 1 ; q:x 2 ; r:x_2 3 .
"#,
        )
        .unwrap();
        let opts = TabularizeOptions {
            include_iri: false,
            ..Default::default()
        };
        let t = tabularize(&g, &Iri::new("http://ex.org/P").unwrap(), &opts).unwrap();
        assert_eq!(t.column_names(), ["x", "x_2", "x_2_2"]);
        let row: Vec<Value> = t.columns().iter().map(|c| c.get(0).unwrap()).collect();
        assert_eq!(row, [Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn mixed_int_float_unifies_to_float() {
        let g = parse_turtle(
            r#"
@prefix ex: <http://ex.org/> .
ex:a a ex:P ; ex:v 1 .
ex:b a ex:P ; ex:v 2.5 .
"#,
        )
        .unwrap();
        let t = tabularize(
            &g,
            &Iri::new("http://ex.org/P").unwrap(),
            &TabularizeOptions::default(),
        )
        .unwrap();
        assert_eq!(t.column("v").unwrap().dtype(), DataType::Float);
    }
}
