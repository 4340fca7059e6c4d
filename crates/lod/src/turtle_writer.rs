//! Turtle serialization with prefix compaction and subject grouping —
//! the human-readable publication format for shared LOD.

use crate::graph::Graph;
use crate::term::{Iri, Literal, Term};
use crate::vocab;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A prefix table for Turtle output.
#[derive(Debug, Clone)]
pub struct PrefixMap {
    /// `(prefix, namespace)` pairs, longest-namespace-first at render.
    pairs: Vec<(String, String)>,
}

impl Default for PrefixMap {
    /// The well-known vocabularies plus `obi:`.
    fn default() -> Self {
        PrefixMap {
            pairs: vec![
                ("rdf".into(), vocab::rdf::NS.into()),
                ("rdfs".into(), vocab::rdfs::NS.into()),
                ("xsd".into(), vocab::xsd::NS.into()),
                ("owl".into(), vocab::owl::NS.into()),
                ("obi".into(), vocab::obi::NS.into()),
            ],
        }
    }
}

impl PrefixMap {
    /// An empty prefix map (every IRI stays absolute).
    pub fn empty() -> Self {
        PrefixMap { pairs: vec![] }
    }

    /// Add a prefix (later entries win on overlap).
    pub fn add(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        self.pairs.push((prefix.into(), namespace.into()));
    }

    /// Compact an IRI to `prefix:local` if a namespace matches and the
    /// local part is a safe Turtle name.
    fn compact(&self, iri: &Iri) -> Option<String> {
        let s = iri.as_str();
        let mut best: Option<(&str, &str)> = None;
        for (p, ns) in &self.pairs {
            if s.starts_with(ns.as_str()) && best.is_none_or(|(_, b)| ns.len() > b.len()) {
                best = Some((p, ns));
            }
        }
        let (prefix, ns) = best?;
        let local = &s[ns.len()..];
        let safe = !local.is_empty()
            && local
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        safe.then(|| format!("{prefix}:{local}"))
    }

    fn used_by(&self, graph: &Graph) -> Vec<(String, String)> {
        let mut used: Vec<(String, String)> = Vec::new();
        let mut mark = |t: &Term| {
            if let Term::Iri(iri) = t {
                if let Some(compacted) = self.compact(iri) {
                    let prefix = compacted.split(':').next().expect("has colon");
                    if let Some(pair) = self.pairs.iter().find(|(p, _)| p == prefix) {
                        if !used.contains(pair) {
                            used.push(pair.clone());
                        }
                    }
                }
            } else if let Term::Literal(
                l @ Literal {
                    datatype: Some(dt), ..
                },
            ) = t
            {
                // Literals rendered as bare shorthands never reference
                // their datatype prefix.
                if bare_shorthand(l).is_some() {
                    return;
                }
                if let Some(compacted) = self.compact(dt) {
                    let prefix = compacted.split(':').next().expect("has colon");
                    if let Some(pair) = self.pairs.iter().find(|(p, _)| p == prefix) {
                        if !used.contains(pair) {
                            used.push(pair.clone());
                        }
                    }
                }
            }
        };
        for terms in graph.triple_terms() {
            terms.into_iter().for_each(&mut mark);
        }
        used.sort();
        used
    }
}

/// The bare Turtle form of a literal, written without quotes or
/// datatype: only a canonical lexical form, `true` or `false` for
/// `xsd:boolean` and an optional sign then ASCII digits for
/// `xsd:integer`. Any other form (`"1"^^xsd:boolean`,
/// `" 7"^^xsd:integer`) would read back as a different literal.
fn bare_shorthand(l: &Literal) -> Option<&str> {
    let lexical = l.lexical.as_str();
    let canonical = match l.datatype.as_ref()?.as_str().strip_prefix(vocab::xsd::NS)? {
        "boolean" => matches!(lexical, "true" | "false"),
        "integer" => {
            let digits = lexical.strip_prefix(['+', '-']).unwrap_or(lexical);
            !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
        }
        _ => false,
    };
    canonical.then_some(lexical)
}

fn render_term(term: &Term, prefixes: &PrefixMap) -> String {
    match term {
        Term::Iri(iri) => prefixes.compact(iri).unwrap_or_else(|| iri.to_string()),
        Term::Blank(b) => format!("_:{b}"),
        Term::Literal(l) => {
            if let Some(bare) = bare_shorthand(l) {
                return bare.to_string();
            }
            if let Some(dt) = &l.datatype {
                let mut s = format!("{}", Literal::plain(l.lexical.clone()));
                let dt_str = prefixes.compact(dt).unwrap_or_else(|| dt.to_string());
                let _ = write!(s, "^^{dt_str}");
                s
            } else {
                l.to_string()
            }
        }
    }
}

/// Serialize a graph as Turtle: `@prefix` header (only prefixes actually
/// used), subjects grouped with `;`, objects grouped with `,`,
/// `rdf:type` written as `a`.
pub fn write_turtle(graph: &Graph, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (p, ns) in prefixes.used_by(graph) {
        let _ = writeln!(out, "@prefix {p}: <{ns}> .");
    }
    if !out.is_empty() {
        out.push('\n');
    }
    // Group triples: subject → predicate → objects (BTreeMap for
    // deterministic output).
    let mut by_subject: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let type_pred = Term::Iri(vocab::rdf::type_());
    for [subject, predicate, object] in graph.triple_terms() {
        let s = render_term(subject, prefixes);
        let p = if *predicate == type_pred {
            "a".to_string()
        } else {
            render_term(predicate, prefixes)
        };
        let o = render_term(object, prefixes);
        by_subject
            .entry(s)
            .or_default()
            .entry(p)
            .or_default()
            .push(o);
    }
    for (subject, predicates) in by_subject {
        let _ = write!(out, "{subject}");
        let n_preds = predicates.len();
        for (pi, (predicate, objects)) in predicates.into_iter().enumerate() {
            let sep = if pi == 0 { " " } else { "    " };
            let _ = write!(out, "{sep}{predicate} {}", objects.join(", "));
            if pi + 1 < n_preds {
                let _ = writeln!(out, " ;");
            } else {
                let _ = writeln!(out, " .");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turtle::parse_turtle;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let alice = Term::iri("http://openbi.org/ns#alice");
        g.add(
            alice.clone(),
            Term::Iri(vocab::rdf::type_()),
            Term::iri("http://openbi.org/ns#Dataset"),
        );
        g.add(
            alice.clone(),
            Term::Iri(vocab::rdfs::label()),
            Term::Literal(Literal::plain("Alice's data")),
        );
        g.add(
            alice.clone(),
            Term::Iri(vocab::obi::row_count()),
            Term::Literal(Literal::integer(42)),
        );
        g.add(
            alice,
            Term::Iri(vocab::rdfs::see_also()),
            Term::iri("http://openbi.org/ns#bob"),
        );
        g
    }

    #[test]
    fn emits_prefixes_and_a_keyword() {
        let text = write_turtle(&sample(), &PrefixMap::default());
        assert!(text.contains("@prefix obi:"));
        assert!(text.contains("@prefix rdfs:"));
        assert!(!text.contains("@prefix xsd:"), "unused prefixes omitted");
        assert!(text.contains("obi:alice a obi:Dataset"));
        assert!(text.contains("obi:rowCount 42"));
    }

    #[test]
    fn round_trips_through_the_parser() {
        let g = sample();
        let text = write_turtle(&g, &PrefixMap::default());
        let back = parse_turtle(&text).unwrap();
        assert_eq!(back.len(), g.len());
        for t in g.iter() {
            assert!(back.contains(&t), "missing {t} in:\n{text}");
        }
    }

    #[test]
    fn literal_escapes_and_datatypes_round_trip() {
        let mut g = Graph::new();
        let s = Term::iri("http://e.org/s");
        g.add(
            s.clone(),
            Term::iri("http://e.org/note"),
            Term::Literal(Literal::plain("line1\nline\"2\"")),
        );
        g.add(
            s.clone(),
            Term::iri("http://e.org/when"),
            Term::Literal(Literal::typed("2024-01-01", vocab::xsd::date())),
        );
        g.add(
            s,
            Term::iri("http://e.org/flag"),
            Term::Literal(Literal::boolean(true)),
        );
        let text = write_turtle(&g, &PrefixMap::default());
        let back = parse_turtle(&text).unwrap();
        assert_eq!(back.len(), 3);
        for t in g.iter() {
            assert!(back.contains(&t), "missing {t} in:\n{text}");
        }
    }

    #[test]
    fn groups_subjects_with_semicolons() {
        let text = write_turtle(&sample(), &PrefixMap::default());
        // One subject block: exactly one '.', three ';'.
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with("@prefix") && !l.is_empty())
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(body.matches(" .").count(), 1);
        assert_eq!(body.matches(" ;").count(), 3);
    }

    #[test]
    fn empty_prefix_map_keeps_absolute_iris() {
        let text = write_turtle(&sample(), &PrefixMap::empty());
        assert!(!text.contains("@prefix"));
        assert!(text.contains("<http://openbi.org/ns#alice>"));
        let back = parse_turtle(&text).unwrap();
        assert_eq!(back.len(), sample().len());
    }

    #[test]
    fn published_pipeline_graph_round_trips() {
        let table = openbi_table::Table::new(vec![
            openbi_table::Column::from_str_values("city", ["A", "B"]),
            openbi_table::Column::from_f64("pm10", [1.5, 2.5]),
        ])
        .unwrap();
        let g = crate::publish::publish_table(&table, "http://openbi.org", "aq").unwrap();
        let text = write_turtle(&g, &PrefixMap::default());
        let back = parse_turtle(&text).unwrap();
        assert_eq!(back.len(), g.len());
    }
}
