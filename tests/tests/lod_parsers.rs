//! LOD parser robustness suite: Turtle and N-Triples round-trips must be
//! fixpoints, and malformed input must come back as `Err` — never a panic.
//!
//! Round-trip fixpoint means `parse(write(g))` reproduces the exact
//! triple set of `g`, and writing the re-parsed graph yields the exact
//! same text — so serialization is stable under repeated
//! parse/write cycles (a property the KB import/export path relies on).
//! `Graph` deliberately has no `PartialEq`; equality here is over the
//! sorted triple set, which is the semantic content of an RDF graph.
//!
//! The malformed-input corpus covers the failure shapes open-data feeds
//! actually produce: truncated documents, unterminated IRIs and strings,
//! undeclared prefixes, bad escapes, missing terminators, and plain
//! garbage. Each case must return a `LodError`; a panic anywhere fails
//! the whole suite, since these parsers sit on the untrusted-input
//! boundary of the pipeline.

use openbi_integration::lod_corpora::{
    kitchen_sink, BLANK_LABEL_DOCUMENTS, HANDWRITTEN_NTRIPLES, HANDWRITTEN_TURTLE,
};
use openbi_lod::{
    parse_ntriples, parse_turtle, write_ntriples, write_turtle, Graph, PrefixMap, Term, Triple,
};

/// The semantic content of a graph: its triples, in sorted order.
fn triples(g: &Graph) -> Vec<Triple> {
    let mut v: Vec<Triple> = g.iter().collect();
    v.sort();
    v
}

#[test]
fn ntriples_round_trip_is_a_fixpoint_over_every_term_shape() {
    let g = kitchen_sink();
    let text = write_ntriples(&g);
    let back = parse_ntriples(&text).expect("own output parses");
    assert_eq!(
        triples(&g),
        triples(&back),
        "triple set survives the round trip"
    );
    assert_eq!(
        text,
        write_ntriples(&back),
        "second serialization is byte-identical (fixpoint)"
    );
}

#[test]
fn turtle_round_trip_preserves_the_triple_set() {
    let g = kitchen_sink();
    // Default prefixes (xsd: is used by the typed literals) and a
    // custom one covering the dataset namespace.
    let mut prefixes = PrefixMap::default();
    prefixes.add("ds", "http://data.example.org/ns#");
    for pm in [&prefixes, &PrefixMap::empty()] {
        let text = write_turtle(&g, pm);
        let back = parse_turtle(&text).expect("own output parses");
        assert_eq!(
            triples(&g),
            triples(&back),
            "triple set survives Turtle round trip"
        );
        // And the writer is stable: writing the re-parsed graph with the
        // same prefix map reproduces the exact document.
        assert_eq!(text, write_turtle(&back, pm), "Turtle fixpoint");
    }
}

#[test]
fn handwritten_documents_stabilize_after_one_cycle() {
    // Turtle: parse → write → parse must stabilize.
    let g1 = parse_turtle(HANDWRITTEN_TURTLE).expect("valid document");
    let text1 = write_turtle(&g1, &PrefixMap::default());
    let g2 = parse_turtle(&text1).expect("round-tripped document");
    assert_eq!(triples(&g1), triples(&g2));
    assert_eq!(text1, write_turtle(&g2, &PrefixMap::default()));
    // The N-Triples reader reads what the Turtle reader read.
    let via_nt = parse_ntriples(&write_ntriples(&g1)).expect("Turtle graph as N-Triples");
    assert_eq!(triples(&g1), triples(&via_nt));

    // N-Triples likewise; whitespace/comment layout normalizes away
    // but the triple set is untouched.
    let g1 = parse_ntriples(HANDWRITTEN_NTRIPLES).expect("valid document");
    let text1 = write_ntriples(&g1);
    let g2 = parse_ntriples(&text1).expect("round-tripped document");
    assert_eq!(triples(&g1), triples(&g2));
    assert_eq!(text1, write_ntriples(&g2));
}

#[test]
fn cross_format_round_trip_agrees() {
    // Turtle → graph → N-Triples → graph: both formats describe the
    // same triple set.
    let g = kitchen_sink();
    let via_turtle = parse_turtle(&write_turtle(&g, &PrefixMap::default())).unwrap();
    let via_nt = parse_ntriples(&write_ntriples(&via_turtle)).unwrap();
    assert_eq!(triples(&g), triples(&via_nt));
}

/// Both readers apply one blank-node label rule: `.` inside a label, and
/// a statement `.` right after one.
#[test]
fn both_readers_read_blank_labels_alike() {
    for (doc, (subject, object)) in BLANK_LABEL_DOCUMENTS.into_iter().zip([
        (Term::Blank("a.b".into()), Term::iri("http://o")),
        (Term::iri("http://s"), Term::Blank("o".into())),
    ]) {
        let expect = vec![Triple::new(subject, Term::iri("http://p"), object)];
        for (format, got) in [
            ("turtle", parse_turtle(doc)),
            ("ntriples", parse_ntriples(doc)),
        ] {
            let g = got.unwrap_or_else(|e| panic!("{format} {doc:?}: {e}"));
            assert_eq!(triples(&g), expect, "{format} {doc:?}");
            let back = parse_ntriples(&write_ntriples(&g)).expect("own output parses");
            assert_eq!(triples(&back), expect, "{format} {doc:?} round trip");
        }
    }
}

#[test]
fn malformed_turtle_errs_never_panics() {
    let corpus: &[&str] = &[
        "<http://unterminated",                          // unterminated IRI
        "<http://a> <http://b> \"unterminated",          // unterminated string
        "zzz:a zzz:b zzz:c .",                           // undeclared prefix
        "<http://a> <http://b> <http://c>",              // missing terminator
        "<http://a> <http://b> \"x\\q\" .",              // unknown escape
        "<http://a> <http://b> \"x\\u00G1\" .",          // bad \u escape
        "@prefix ex: <http://ex.org/>",                  // @prefix without dot
        "@prefix <http://ex.org/> .",                    // @prefix without name
        "@pre",                                          // truncated directive
        "<http://a> \"p\" <http://b> .",                 // literal predicate
        "<http://a> <http://b> ;",                       // dangling semicolon
        ". . .",                                         // only dots
        "<http://a> <http://b> \"x\"^^ .",               // ^^ without datatype
        "<http://a> <http://b> \"x\"^^\"y\" .",          // ^^ with a literal
        "<http://has space> <http://b> <http://c> .",    // whitespace in IRI
        "<http://a> <http://b> <http://c> <http://d> .", // four terms
        "🗑️ garbage that is not turtle at all",          // garbage bytes
        "<http://a> <http://b> \"x\"@ .",                // empty language tag
        "_: <http://b> <http://c> .",                    // empty blank subject label
        "<http://a> <http://b> _: .",                    // empty blank object label
        "_:a:b <http://b> <http://c> .",                 // ':' in a blank label
    ];
    for (i, doc) in corpus.iter().enumerate() {
        let got = parse_turtle(doc);
        assert!(got.is_err(), "turtle corpus[{i}] {doc:?} parsed to {got:?}");
    }
}

#[test]
fn malformed_ntriples_errs_never_panics() {
    let corpus: &[&str] = &[
        "<http://a> <http://b> <http://c>", // missing dot
        "<http://unterminated <http://b> <http://c> .",
        "<http://a> <http://b> \"unterminated .",
        "<http://a> <http://b> \"x\\q\" .",     // unknown escape
        "<http://a> <http://b> \"x\\uZZZZ\" .", // bad \u escape
        "_x <http://b> <http://c> .",           // blank without colon
        "<http://a> \"p\" <http://b> .",        // literal predicate
        "_:b \"p\" _:c .",                      // ditto, blank terms
        "<http://a> <http://b> .",              // missing object
        "<http://a> .",                         // missing predicate+object
        "ex:a ex:b ex:c .",                     // prefixes are not N-Triples
        "<http://a> <http://b> 42 .",           // bare number is not N-Triples
        "just some words .",
    ];
    for (i, doc) in corpus.iter().enumerate() {
        let got = parse_ntriples(doc);
        assert!(
            got.is_err(),
            "ntriples corpus[{i}] {doc:?} parsed to {got:?}"
        );
    }
    // Errors carry the 1-based line of the offending triple.
    let err = parse_ntriples("<http://a> <http://b> <http://c> .\nbroken line\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('2'), "error should cite line 2, got: {msg}");
}

/// Truncation fuzz: chop a valid document at every char boundary and
/// feed the prefix to the parser. Every prefix must produce a clean
/// `Ok` or `Err` — this is the "never panics" guarantee under the most
/// common real-world corruption (a cut-off download).
#[test]
fn every_truncation_of_a_valid_document_is_handled() {
    let turtle_doc = write_turtle(&kitchen_sink(), &PrefixMap::default());
    let nt_doc = write_ntriples(&kitchen_sink());
    let mut turtle_errs = 0usize;
    for (i, _) in turtle_doc.char_indices() {
        if parse_turtle(&turtle_doc[..i]).is_err() {
            turtle_errs += 1;
        }
    }
    let mut nt_errs = 0usize;
    for (i, _) in nt_doc.char_indices() {
        if parse_ntriples(&nt_doc[..i]).is_err() {
            nt_errs += 1;
        }
    }
    // Sanity: truncation genuinely produces malformed docs (the loop
    // isn't vacuously passing on all-Ok prefixes).
    assert!(
        turtle_errs > 10,
        "expected many malformed Turtle prefixes, got {turtle_errs}"
    );
    assert!(
        nt_errs > 10,
        "expected many malformed N-Triples prefixes, got {nt_errs}"
    );
}
