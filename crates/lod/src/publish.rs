//! Publishing tabular data and analysis results back as Linked Open Data.
//!
//! The second half of the OpenBI vision: "share the new acquired
//! information as LOD to be reused by anyone" (paper §1). These helpers
//! produce graphs in the `obi:` vocabulary that round-trip through the
//! N-Triples serializer.

use crate::error::Result;
use crate::graph::Graph;
use crate::term::{Iri, Literal, Term};
use crate::vocab::{obi, rdf, rdfs, xsd};
use openbi_table::{ColumnData, Table};

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

/// The datatype IRIs of `publish_table`'s typed literals, built once
/// per call.
struct Datatypes {
    integer: Iri,
    double: Iri,
    boolean: Iri,
}

impl Datatypes {
    fn new() -> Self {
        Datatypes {
            integer: xsd::integer(),
            double: xsd::double(),
            boolean: xsd::boolean(),
        }
    }

    /// The literal of cell `row` of `data`; `None` for a null cell. The
    /// same literal `Literal::{integer, double, boolean, plain}` makes of
    /// the cell's value.
    fn object(&self, data: &ColumnData, row: usize) -> Option<Term> {
        let literal = match data {
            ColumnData::Int(v) => Literal::typed(v[row]?.to_string(), self.integer.clone()),
            ColumnData::Float(v) => Literal::typed(v[row]?.to_string(), self.double.clone()),
            ColumnData::Bool(v) => Literal::typed(v[row]?.to_string(), self.boolean.clone()),
            ColumnData::Str(v) => Literal::plain(v[row].clone()?),
        };
        Some(Term::Literal(literal))
    }
}

/// Publish a table as LOD: one `obi:Dataset` resource, one `obi:Column`
/// resource per column, and one entity per row under `base_iri` with a
/// predicate per column.
///
/// The row triples go in by id and are merged into the index at the
/// end. `rdf:type` keeps the id the dataset triple gave it, the row
/// class gets its id with the first row, and a column's predicate with
/// its first non-null cell: the order inserting whole triples interned
/// them in, so the ids, the SPO order and every serialized byte are
/// those of a term-by-term build.
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
    // Each column's predicate, and its id once its first non-null cell
    // has interned it.
    let mut predicates: Vec<(Term, Option<u32>)> = Vec::new();
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
        let predicate = Term::Iri(Iri::new(format!("{base}/prop/{col_slug}"))?);
        predicates.push((predicate, None));
    }
    let row_class = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/Row"))?);
    let (type_id, mut class_id) = (g.intern(Term::Iri(rdf::type_())), None);
    let datatypes = Datatypes::new();
    let mut rows = Vec::new();
    for ri in 0..table.n_rows() {
        let entity = g.intern(Term::Iri(Iri::new(format!(
            "{base}/dataset/{slug}/row/{ri}"
        ))?));
        let class = *class_id.get_or_insert_with(|| g.intern(row_class.clone()));
        rows.push((entity, type_id, class));
        for (column, (predicate, id)) in table.columns().iter().zip(&mut predicates) {
            if let Some(object) = datatypes.object(column.data(), ri) {
                let p = *id.get_or_insert_with(|| g.intern(predicate.clone()));
                let o = g.intern(object);
                rows.push((entity, p, o));
            }
        }
    }
    g.extend_ids(rows);
    Ok(g)
}

/// Publish a set of data-quality measurements for a dataset.
pub fn publish_quality_measurements(
    base_iri: &str,
    dataset_name: &str,
    measurements: &[(String, f64)],
) -> Result<Graph> {
    let mut g = Graph::new();
    let base = base_iri.trim_end_matches('/');
    let slug = slugify(dataset_name);
    let ds = Term::Iri(Iri::new(format!("{base}/dataset/{slug}"))?);
    for (i, (criterion, value)) in measurements.iter().enumerate() {
        let m = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/quality/{i}"))?);
        g.add(
            m.clone(),
            Term::Iri(rdf::type_()),
            Term::Iri(obi::quality_measurement()),
        );
        g.add(
            m.clone(),
            Term::Iri(obi::criterion()),
            Term::Literal(Literal::plain(criterion.clone())),
        );
        g.add(
            m.clone(),
            Term::Iri(obi::measured_value()),
            Term::Literal(Literal::double(*value)),
        );
        g.add(ds.clone(), Term::Iri(obi::has_quality()), m);
    }
    Ok(g)
}

/// Publish the advisor's recommendation ("the best option is ALGORITHM X")
/// as an `obi:Advice` resource with a ranked list of alternatives.
pub fn publish_advice(
    base_iri: &str,
    dataset_name: &str,
    ranking: &[(String, f64)],
) -> Result<Graph> {
    let mut g = Graph::new();
    let base = base_iri.trim_end_matches('/');
    let slug = slugify(dataset_name);
    let ds = Term::Iri(Iri::new(format!("{base}/dataset/{slug}"))?);
    for (rank, (algorithm, score)) in ranking.iter().enumerate() {
        let a = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/advice/{rank}"))?);
        g.add(a.clone(), Term::Iri(rdf::type_()), Term::Iri(obi::advice()));
        g.add(
            a.clone(),
            Term::Iri(obi::recommended_algorithm()),
            Term::Literal(Literal::plain(algorithm.clone())),
        );
        g.add(
            a.clone(),
            Term::Iri(obi::expected_score()),
            Term::Literal(Literal::double(*score)),
        );
        g.add(ds.clone(), Term::Iri(rdfs::see_also()), a);
    }
    Ok(g)
}

/// Publish mined association rules as `obi:AssociationRule` resources.
pub fn publish_rules(
    base_iri: &str,
    dataset_name: &str,
    rules: &[PublishableRule],
) -> Result<Graph> {
    let mut g = Graph::new();
    let base = base_iri.trim_end_matches('/');
    let slug = slugify(dataset_name);
    for (i, rule) in rules.iter().enumerate() {
        let r = Term::Iri(Iri::new(format!("{base}/dataset/{slug}/rule/{i}"))?);
        g.add(
            r.clone(),
            Term::Iri(rdf::type_()),
            Term::Iri(obi::association_rule()),
        );
        g.add(
            r.clone(),
            Term::Iri(obi::antecedent()),
            Term::Literal(Literal::plain(rule.antecedent.clone())),
        );
        g.add(
            r.clone(),
            Term::Iri(obi::consequent()),
            Term::Literal(Literal::plain(rule.consequent.clone())),
        );
        g.add(
            r.clone(),
            Term::Iri(obi::support()),
            Term::Literal(Literal::double(rule.support)),
        );
        g.add(
            r.clone(),
            Term::Iri(obi::confidence()),
            Term::Literal(Literal::double(rule.confidence)),
        );
        g.add(
            r.clone(),
            Term::Iri(obi::lift()),
            Term::Literal(Literal::double(rule.lift)),
        );
    }
    Ok(g)
}

/// A mined rule in publishable (serialized) form. Kept vocabulary-level
/// here so the LOD crate does not depend on the mining crate.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishableRule {
    /// Rendered antecedent, e.g. `"district=north & spend=high"`.
    pub antecedent: String,
    /// Rendered consequent.
    pub consequent: String,
    /// Rule support in `[0,1]`.
    pub support: f64,
    /// Rule confidence in `[0,1]`.
    pub confidence: f64,
    /// Rule lift (`>1` means positive association).
    pub lift: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntriples::{parse_ntriples, write_ntriples};
    use crate::tabularize::{tabularize, TabularizeOptions};
    use openbi_table::Column;

    fn sample_table() -> Table {
        Table::new(vec![
            Column::from_str_values("city", ["Alicante", "Elche"]),
            Column::from_f64("pm10", [21.5, 33.0]),
            Column::from_opt_i64("sensors", [Some(4), None]),
        ])
        .unwrap()
    }

    #[test]
    fn publish_table_links_columns_and_rows() {
        let g = publish_table(&sample_table(), "http://openbi.org", "Air Quality").unwrap();
        let ds = Term::iri("http://openbi.org/dataset/air-quality");
        let cols = g.objects(&ds, &Term::Iri(obi::has_column()));
        assert_eq!(cols.len(), 3);
        let rows =
            g.subjects_of_type(&Iri::new("http://openbi.org/dataset/air-quality/Row").unwrap());
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn nulls_are_not_published() {
        let g = publish_table(&sample_table(), "http://openbi.org", "aq").unwrap();
        let pred = Term::iri("http://openbi.org/prop/sensors");
        assert_eq!(g.match_pattern(None, Some(&pred), None).len(), 1);
    }

    #[test]
    fn published_table_round_trips_through_tabularize() {
        let t = sample_table();
        let g = publish_table(&t, "http://openbi.org", "aq").unwrap();
        let row_class = Iri::new("http://openbi.org/dataset/aq/Row").unwrap();
        let opts = TabularizeOptions {
            include_iri: false,
            ..Default::default()
        };
        let back = tabularize(&g, &row_class, &opts).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert!(back.has_column("city"));
        assert!(back.has_column("pm10"));
        // Round-trip through N-Triples text too.
        let text = write_ntriples(&g);
        let g2 = parse_ntriples(&text).unwrap();
        assert_eq!(g.len(), g2.len());
    }

    #[test]
    fn quality_measurements_publish() {
        let g = publish_quality_measurements(
            "http://openbi.org",
            "aq",
            &[("completeness".into(), 0.83), ("duplicates".into(), 0.02)],
        )
        .unwrap();
        let measurements = g.subjects_of_type(&obi::quality_measurement());
        assert_eq!(measurements.len(), 2);
        let ds = Term::iri("http://openbi.org/dataset/aq");
        assert_eq!(g.objects(&ds, &Term::Iri(obi::has_quality())).len(), 2);
    }

    #[test]
    fn advice_publishes_ranking() {
        let g = publish_advice(
            "http://openbi.org",
            "aq",
            &[("NaiveBayes".into(), 0.91), ("DecisionTree".into(), 0.88)],
        )
        .unwrap();
        assert_eq!(g.subjects_of_type(&obi::advice()).len(), 2);
        let best = Term::iri("http://openbi.org/dataset/aq/advice/0");
        let alg = g.objects(&best, &Term::Iri(obi::recommended_algorithm()));
        assert_eq!(alg[0].as_literal().unwrap().lexical, "NaiveBayes");
    }

    #[test]
    fn rules_publish_with_metrics() {
        let rule = PublishableRule {
            antecedent: "district=north".into(),
            consequent: "overspend=yes".into(),
            support: 0.2,
            confidence: 0.8,
            lift: 1.5,
        };
        let g = publish_rules("http://openbi.org", "budget", &[rule]).unwrap();
        let r = Term::iri("http://openbi.org/dataset/budget/rule/0");
        assert_eq!(
            g.objects(&r, &Term::Iri(obi::lift()))[0]
                .as_literal()
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
    }

    #[test]
    fn slugify_normalizes() {
        assert_eq!(slugify("Air Quality 2024!"), "air-quality-2024");
        assert_eq!(slugify("--x--"), "x");
    }

    #[test]
    fn prop_slug_preserves_underscores() {
        assert_eq!(prop_slug("aqi_band"), "aqi_band");
        assert_eq!(prop_slug("PM 10"), "pm-10");
    }

    #[test]
    fn underscore_columns_round_trip() {
        let t = Table::new(vec![Column::from_f64("aqi_band", [1.0, 2.0])]).unwrap();
        let g = publish_table(&t, "http://openbi.org", "x").unwrap();
        let row_class = Iri::new("http://openbi.org/dataset/x/Row").unwrap();
        let opts = TabularizeOptions {
            include_iri: false,
            ..Default::default()
        };
        let back = tabularize(&g, &row_class, &opts).unwrap();
        assert!(back.has_column("aqi_band"));
    }
}
