//! An in-memory RDF graph (triple store).
//!
//! Each distinct term is stored once, in one shared allocation that both
//! the id table and the lookup map refer to, and interned to a `u32` id.
//! Triples are kept in one sorted index of ids in SPO order. A lookup
//! with a bound subject is a range scan of that index; any other lookup
//! is one filtered pass over it. Either way, results come back in SPO
//! order. `publish_table`, `tabularize` and the serializers work on the
//! ids through crate-private methods.

use crate::term::{Iri, Term};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A single RDF triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject (IRI or blank node).
    pub subject: Term,
    /// Predicate (IRI).
    pub predicate: Term,
    /// Object (any term).
    pub object: Term,
}

impl Triple {
    /// Create a triple.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        debug_assert!(subject.is_subject(), "literal in subject position");
        debug_assert!(
            matches!(predicate, Term::Iri(_)),
            "predicate must be an IRI"
        );
        Triple {
            subject,
            predicate,
            object,
        }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A set of triples with term interning, indexed in SPO order.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    terms: Vec<Arc<Term>>,
    ids: HashMap<Arc<Term>, u32>,
    spo: BTreeSet<(u32, u32, u32)>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True iff the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Number of distinct interned terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The id of `term`, moving it in as a new term if it has none yet.
    pub(crate) fn intern(&mut self, term: Term) -> u32 {
        if let Some(&id) = self.ids.get(&term) {
            return id;
        }
        self.intern_new(Arc::new(term))
    }

    /// The id of a term another graph stores, sharing its allocation.
    fn intern_shared(&mut self, term: &Arc<Term>) -> u32 {
        if let Some(&id) = self.ids.get(&**term) {
            return id;
        }
        self.intern_new(Arc::clone(term))
    }

    fn intern_new(&mut self, term: Arc<Term>) -> u32 {
        let id = self.terms.len() as u32;
        self.terms.push(Arc::clone(&term));
        self.ids.insert(term, id);
        id
    }

    /// The id of `term`, if the graph has interned it.
    pub(crate) fn lookup(&self, term: &Term) -> Option<u32> {
        self.ids.get(term).copied()
    }

    /// The term behind an id.
    pub(crate) fn term(&self, id: u32) -> &Term {
        &self.terms[id as usize]
    }

    /// Insert a triple of interned ids; returns true if it was new.
    fn insert_ids(&mut self, s: u32, p: u32, o: u32) -> bool {
        self.spo.insert((s, p, o))
    }

    /// Insert many triples of interned ids: they are sorted and merged
    /// into the index in one pass, not inserted one at a time.
    pub(crate) fn extend_ids(&mut self, triples: Vec<(u32, u32, u32)>) {
        let mut more: BTreeSet<(u32, u32, u32)> = triples.into_iter().collect();
        self.spo.append(&mut more);
    }

    /// Every triple's ids, in SPO order.
    pub(crate) fn spo_ids(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.spo.iter().copied()
    }

    /// The `(predicate, object)` ids of one subject, in PO order.
    pub(crate) fn po_ids(&self, s: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.spo
            .range((s, 0, 0)..=(s, u32::MAX, u32::MAX))
            .map(|&(_, p, o)| (p, o))
    }

    /// Every triple's terms, borrowed, in SPO order.
    pub(crate) fn triple_terms(&self) -> impl Iterator<Item = [&Term; 3]> + '_ {
        self.spo
            .iter()
            .map(|&(s, p, o)| [self.term(s), self.term(p), self.term(o)])
    }

    fn triple(&self, &(s, p, o): &(u32, u32, u32)) -> Triple {
        Triple::new(
            self.term(s).clone(),
            self.term(p).clone(),
            self.term(o).clone(),
        )
    }

    /// Insert a triple; returns true if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let Triple {
            subject,
            predicate,
            object,
        } = triple;
        let s = self.intern(subject);
        let p = self.intern(predicate);
        let o = self.intern(object);
        self.insert_ids(s, p, o)
    }

    /// Convenience insert from parts.
    pub fn add(&mut self, subject: Term, predicate: Term, object: Term) -> bool {
        self.insert(Triple::new(subject, predicate, object))
    }

    /// Remove a triple; returns true if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.lookup(&triple.subject),
            self.lookup(&triple.predicate),
            self.lookup(&triple.object),
        ) else {
            return false;
        };
        self.spo.remove(&(s, p, o))
    }

    /// Whether a triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.lookup(&triple.subject),
            self.lookup(&triple.predicate),
            self.lookup(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)),
            _ => false,
        }
    }

    /// Iterate over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(|ids| self.triple(ids))
    }

    /// Find all triples matching a pattern with optionally bound
    /// positions, in SPO order. A bound subject narrows the scan to its
    /// range of the index; otherwise the whole index is filtered.
    pub fn match_pattern(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        // A bound term not present in the graph matches nothing.
        let resolve = |term: Option<&Term>| match term {
            Some(t) => self.lookup(t).map(Some),
            None => Some(None),
        };
        let (Some(s), Some(p), Some(o)) = (resolve(subject), resolve(predicate), resolve(object))
        else {
            return vec![];
        };
        let (lo, hi) = match (s, p) {
            (Some(s), Some(p)) => ((s, p, o.unwrap_or(0)), (s, p, o.unwrap_or(u32::MAX))),
            (Some(s), None) => ((s, 0, 0), (s, u32::MAX, u32::MAX)),
            (None, _) => ((0, 0, 0), (u32::MAX, u32::MAX, u32::MAX)),
        };
        self.spo
            .range(lo..=hi)
            .filter(|&&(_, tp, to)| p.is_none_or(|p| p == tp) && o.is_none_or(|o| o == to))
            .map(|ids| self.triple(ids))
            .collect()
    }

    /// All objects of `(subject, predicate, ?o)`.
    pub fn objects(&self, subject: &Term, predicate: &Term) -> Vec<Term> {
        self.match_pattern(Some(subject), Some(predicate), None)
            .into_iter()
            .map(|t| t.object)
            .collect()
    }

    /// All subjects of `(?s, predicate, object)`.
    pub fn subjects(&self, predicate: &Term, object: &Term) -> Vec<Term> {
        self.match_pattern(None, Some(predicate), Some(object))
            .into_iter()
            .map(|t| t.subject)
            .collect()
    }

    /// All subjects with `rdf:type` equal to `class`.
    pub fn subjects_of_type(&self, class: &Iri) -> Vec<Term> {
        self.subjects(
            &Term::Iri(crate::vocab::rdf::type_()),
            &Term::Iri(class.clone()),
        )
    }

    /// Merge all triples of `other` into `self`; returns how many were new.
    /// Terms new to `self` share `other`'s allocations and get their ids
    /// in `other`'s SPO order, as inserting its triples one by one would
    /// give them.
    pub fn merge(&mut self, other: &Graph) -> usize {
        let mut ids: Vec<Option<u32>> = vec![None; other.terms.len()];
        let mut added = 0;
        for &(s, p, o) in &other.spo {
            let [s, p, o] = [s, p, o].map(|id| {
                *ids[id as usize]
                    .get_or_insert_with(|| self.intern_shared(&other.terms[id as usize]))
            });
            if self.insert_ids(s, p, o) {
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    const EX: &str = "http://ex.org/";

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(t(
            &format!("{EX}a"),
            &format!("{EX}knows"),
            &format!("{EX}b"),
        ));
        g.insert(t(
            &format!("{EX}a"),
            &format!("{EX}knows"),
            &format!("{EX}c"),
        ));
        g.insert(t(
            &format!("{EX}b"),
            &format!("{EX}knows"),
            &format!("{EX}c"),
        ));
        g.add(
            Term::iri(&format!("{EX}a")),
            Term::iri(&format!("{EX}age")),
            Term::Literal(Literal::integer(30)),
        );
        g
    }

    #[test]
    fn insert_is_idempotent() {
        let mut g = sample();
        assert_eq!(g.len(), 4);
        assert!(!g.insert(t(
            &format!("{EX}a"),
            &format!("{EX}knows"),
            &format!("{EX}b")
        )));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn remove_and_contains() {
        let mut g = sample();
        let tr = t(&format!("{EX}a"), &format!("{EX}knows"), &format!("{EX}b"));
        assert!(g.contains(&tr));
        assert!(g.remove(&tr));
        assert!(!g.contains(&tr));
        assert!(!g.remove(&tr));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn pattern_s_bound() {
        let g = sample();
        let a = Term::iri(&format!("{EX}a"));
        let found = g.match_pattern(Some(&a), None, None);
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn pattern_p_bound() {
        let g = sample();
        let knows = Term::iri(&format!("{EX}knows"));
        assert_eq!(g.match_pattern(None, Some(&knows), None).len(), 3);
    }

    #[test]
    fn pattern_o_bound() {
        let g = sample();
        let c = Term::iri(&format!("{EX}c"));
        let found = g.match_pattern(None, None, Some(&c));
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|t| t.object == c));
    }

    #[test]
    fn pattern_sp_bound() {
        let g = sample();
        let a = Term::iri(&format!("{EX}a"));
        let knows = Term::iri(&format!("{EX}knows"));
        assert_eq!(g.match_pattern(Some(&a), Some(&knows), None).len(), 2);
    }

    #[test]
    fn pattern_so_bound() {
        let g = sample();
        let a = Term::iri(&format!("{EX}a"));
        let c = Term::iri(&format!("{EX}c"));
        let found = g.match_pattern(Some(&a), None, Some(&c));
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn pattern_po_bound() {
        let g = sample();
        let knows = Term::iri(&format!("{EX}knows"));
        let c = Term::iri(&format!("{EX}c"));
        assert_eq!(g.match_pattern(None, Some(&knows), Some(&c)).len(), 2);
    }

    #[test]
    fn pattern_unknown_term_matches_nothing() {
        let g = sample();
        let z = Term::iri(&format!("{EX}zzz"));
        assert!(g.match_pattern(Some(&z), None, None).is_empty());
    }

    #[test]
    fn objects_and_subjects_helpers() {
        let g = sample();
        let a = Term::iri(&format!("{EX}a"));
        let knows = Term::iri(&format!("{EX}knows"));
        assert_eq!(g.objects(&a, &knows).len(), 2);
        let c = Term::iri(&format!("{EX}c"));
        assert_eq!(g.subjects(&knows, &c).len(), 2);
    }

    #[test]
    fn type_helpers() {
        let mut g = Graph::new();
        let person = Iri::new(format!("{EX}Person")).unwrap();
        g.add(
            Term::iri(&format!("{EX}a")),
            Term::Iri(crate::vocab::rdf::type_()),
            Term::Iri(person.clone()),
        );
        g.add(
            Term::iri(&format!("{EX}a")),
            Term::iri(&format!("{EX}age")),
            Term::Literal(Literal::integer(5)),
        );
        let subs = g.subjects_of_type(&person);
        assert_eq!(subs, vec![Term::iri(&format!("{EX}a"))]);
    }

    #[test]
    fn merge_counts_new_triples() {
        let mut g = sample();
        let mut h = Graph::new();
        h.insert(t(
            &format!("{EX}a"),
            &format!("{EX}knows"),
            &format!("{EX}b"),
        ));
        h.insert(t(
            &format!("{EX}x"),
            &format!("{EX}knows"),
            &format!("{EX}y"),
        ));
        assert_eq!(g.merge(&h), 1);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn iter_round_trip() {
        let g = sample();
        let collected: Vec<Triple> = g.iter().collect();
        assert_eq!(collected.len(), g.len());
        for t in &collected {
            assert!(g.contains(t));
        }
    }
}
