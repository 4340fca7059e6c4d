//! The frozen Term-level LOD conversions — the equivalence baseline for
//! the id-based `openbi_lod::{publish_table, tabularize}`.
//!
//! A verbatim copy of both functions (and their private helpers) as they
//! stood before the store kept each term once: `publish_table` builds
//! every row and predicate `Term` afresh and inserts whole triples, and
//! `tabularize` pivots through `subjects_of_type`, `match_pattern` and
//! one `objects(e, p)` lookup per cell. It exists so
//! `tests/tests/lod_equivalence.rs` can prove the live versions write the
//! same N-Triples and Turtle bytes and build the same tables. Only the
//! crate paths changed, to the live crate's public names.
//!
//! Do not "improve" this module; its value is that it does not move.

use openbi_lod::vocab::{obi, rdf, rdfs};
use openbi_lod::{Graph, Iri, Literal, LodError, MultiValue, Result, TabularizeOptions, Term};
use openbi_table::{Column, DataType, Table, Value};
use std::collections::{HashMap, HashSet};

fn slugify(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Slug for property IRIs: keeps word characters (so tabularization
/// round-trips column names exactly), replaces anything else with '-'.
fn prop_slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn value_to_object(v: &Value) -> Option<Term> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(Term::Literal(Literal::integer(*i))),
        Value::Float(f) => Some(Term::Literal(Literal::double(*f))),
        Value::Bool(b) => Some(Term::Literal(Literal::boolean(*b))),
        Value::Str(s) => Some(Term::Literal(Literal::plain(s.clone()))),
    }
}

/// Publish a table as LOD: one `obi:Dataset` resource, one `obi:Column`
/// resource per column, and one entity per row under `base_iri` with a
/// predicate per column.
pub fn publish_table(table: &Table, base_iri: &str, dataset_name: &str) -> Result<Graph> {
    let mut g = Graph::new();
    let base = base_iri.trim_end_matches('/');
    let slug = slugify(dataset_name);
    let ds = Term::Iri(Iri::new(format!("{base}/dataset/{slug}"))?);
    g.add(
        ds.clone(),
        Term::Iri(rdf::type_()),
        Term::Iri(obi::dataset()),
    );
    g.add(
        ds.clone(),
        Term::Iri(rdfs::label()),
        Term::Literal(Literal::plain(dataset_name)),
    );
    g.add(
        ds.clone(),
        Term::Iri(obi::row_count()),
        Term::Literal(Literal::integer(table.n_rows() as i64)),
    );
    let mut pred_iris = Vec::new();
    for field in table.schema().fields() {
        let col_slug = prop_slug(&field.name);
        let col = Term::Iri(Iri::new(format!(
            "{base}/dataset/{slug}/column/{col_slug}"
        ))?);
        g.add(
            col.clone(),
            Term::Iri(rdf::type_()),
            Term::Iri(obi::column()),
        );
        g.add(
            col.clone(),
            Term::Iri(rdfs::label()),
            Term::Literal(Literal::plain(field.name.clone())),
        );
        g.add(
            col.clone(),
            Term::Iri(obi::data_type()),
            Term::Literal(Literal::plain(field.dtype.to_string())),
        );
        g.add(ds.clone(), Term::Iri(obi::has_column()), col);
        pred_iris.push(Term::Iri(Iri::new(format!("{base}/prop/{col_slug}"))?));
    }
    let row_class = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/Row"))?);
    for (ri, row) in table.iter_rows().enumerate() {
        let entity = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/row/{ri}"))?);
        g.add(entity.clone(), Term::Iri(rdf::type_()), row_class.clone());
        for (pred, v) in pred_iris.iter().zip(&row) {
            if let Some(obj) = value_to_object(v) {
                g.add(entity.clone(), pred.clone(), obj);
            }
        }
    }
    Ok(g)
}

fn cell_from_terms(terms: &[Term], options: &TabularizeOptions) -> Value {
    match options.multi_value {
        MultiValue::Count if terms.len() > 1 => return Value::Int(terms.len() as i64),
        _ => {}
    }
    let Some(first) = terms.first() else {
        return Value::Null;
    };
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
pub fn tabularize(graph: &Graph, class: &Iri, options: &TabularizeOptions) -> Result<Table> {
    let entities = graph.subjects_of_type(class);
    if entities.is_empty() {
        return Err(LodError::Tabularize(format!(
            "no entities of type <{}>",
            class.as_str()
        )));
    }
    let type_pred = Term::Iri(rdf::type_());
    // Collect predicate order.
    let mut predicates: Vec<Iri> = Vec::new();
    for e in &entities {
        for t in graph.match_pattern(Some(e), None, None) {
            if options.skip_type && t.predicate == type_pred {
                continue;
            }
            if let Term::Iri(p) = &t.predicate {
                if !predicates.contains(p) {
                    predicates.push(p.clone());
                }
            }
        }
    }
    // Build cells.
    let mut columns: Vec<Column> = Vec::new();
    let mut taken: HashSet<String> = HashSet::new();
    if options.include_iri {
        let iris: Vec<String> = entities
            .iter()
            .map(|e| match e {
                Term::Iri(i) => i.as_str().to_string(),
                Term::Blank(b) => format!("_:{b}"),
                Term::Literal(_) => unreachable!("subjects are never literals"),
            })
            .collect();
        columns.push(Column::from_str_values("iri", iris));
        taken.insert("iri".to_string());
    }
    let mut repeats: HashMap<&str, usize> = HashMap::new();
    for p in &predicates {
        let base = p.local_name();
        let repeat = repeats.entry(base).or_insert(0);
        *repeat += 1;
        let pred_term = Term::Iri(p.clone());
        let values: Vec<Value> = entities
            .iter()
            .map(|e| {
                let mut terms = graph.objects(e, &pred_term);
                terms.sort();
                cell_from_terms(&terms, options)
            })
            .collect();
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
