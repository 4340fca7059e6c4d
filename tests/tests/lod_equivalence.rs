//! LOD-on-ids equivalence suite (DESIGN.md §2).
//!
//! `openbi_lod` keeps each term once and runs `publish_table` and
//! `tabularize` on interned term ids. The Term-level versions they
//! replaced are frozen in the test-support library as
//! `openbi_integration::reference::lod`. Each test runs both on the same
//! input in the same process and demands the same graph (triple and term
//! counts, byte-equal N-Triples and Turtle) or the same table
//! (fingerprint and column names), on:
//!
//! - every `all_scenarios` table and `scenario_to_lod` graph of the eight
//!   `pipeline_mix` input variants (clean, then one defect each at
//!   severity 0.5), at seeds 2012 and 7;
//! - seeded graphs with multi-valued properties, with blank-node subjects
//!   and objects, and with sparse predicates, under every
//!   [`TabularizeOptions`] combination;
//! - seeded tables with many null, NaN, ±∞ and escaped cells.
//!
//! The oracle builds its graphs through the live `Graph`, and both sides
//! are written by the live serializers, so the last two tests pin FNV-64
//! digests of the written bytes, taken before the store changed, for the
//! scenarios and for every valid `lod_parsers` document. They hold the
//! `Graph` and serializer changes themselves to the old output.

use openbi_datagen::{scenario_to_lod, Scenario};
use openbi_integration::lod_corpora::{
    kitchen_sink, BLANK_LABEL_DOCUMENTS, HANDWRITTEN_NTRIPLES, HANDWRITTEN_TURTLE,
};
use openbi_integration::reference::lod as reference;
use openbi_integration::{check_cases, fnv64, len_in, pipeline_mix_scenarios};
use openbi_lod::vocab::{rdf, xsd};
use openbi_lod::{
    parse_ntriples, parse_turtle, publish_table, tabularize, write_ntriples, write_turtle, Graph,
    Iri, Literal, MultiValue, PrefixMap, TabularizeOptions, Term,
};
use openbi_table::{Column, Rng, Table};

const BASE_IRI: &str = "http://openbi.org";
const SEEDS: [u64; 2] = [2012, 7];
/// The 24 scenarios of one seed ([`pipeline_mix_scenarios`]), each
/// named `<scenario>-v<variant>`, with the graph `scenario_to_lod` makes
/// of it (link density 0.2).
fn scenarios(seed: u64) -> Vec<(String, Scenario, Graph)> {
    pipeline_mix_scenarios(seed)
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let (v, s) = (i / 3, i % 3);
            let j = (9 * v + s) as u64;
            let graph =
                scenario_to_lod(&scenario, BASE_IRI, 0.2, seed.wrapping_add(j + 6)).unwrap();
            (format!("{}-v{v}", scenario.name), scenario, graph)
        })
        .collect()
}

/// The class whose instances `publish_table` made of dataset `slug`.
fn row_class(base: &str, slug: &str) -> Iri {
    Iri::new(format!("{}/dataset/{slug}/Row", base.trim_end_matches('/'))).unwrap()
}

/// The line where two documents first differ, for a readable failure.
fn first_difference(live: &str, frozen: &str) -> String {
    let (mut l, mut f) = (live.lines(), frozen.lines());
    for line in 1.. {
        match (l.next(), f.next()) {
            (None, None) => return "no line differs".into(),
            (a, b) if a != b => return format!("line {line}: live {a:?} vs frozen {b:?}"),
            _ => {}
        }
    }
    unreachable!()
}

/// Same triples under the same ids: equal triple and term counts, and
/// byte-equal N-Triples (written in id order) and Turtle.
fn assert_same_graph(live: &Graph, frozen: &Graph, ctx: &str) {
    assert_eq!(live.len(), frozen.len(), "{ctx}: triple count");
    assert_eq!(live.term_count(), frozen.term_count(), "{ctx}: term count");
    let (l, f) = (write_ntriples(live), write_ntriples(frozen));
    assert!(l == f, "{ctx}: N-Triples {}", first_difference(&l, &f));
    let prefixes = PrefixMap::default();
    let (l, f) = (
        write_turtle(live, &prefixes),
        write_turtle(frozen, &prefixes),
    );
    assert!(l == f, "{ctx}: Turtle {}", first_difference(&l, &f));
}

/// Same table (column names and content fingerprint), or the same error.
fn assert_same_table(
    live: &openbi_lod::Result<Table>,
    frozen: &openbi_lod::Result<Table>,
    ctx: &str,
) {
    match (live, frozen) {
        (Ok(l), Ok(f)) => {
            assert_eq!(l.column_names(), f.column_names(), "{ctx}: column names");
            assert_eq!(l.fingerprint(), f.fingerprint(), "{ctx}: table content");
        }
        (Err(l), Err(f)) => assert_eq!(l.to_string(), f.to_string(), "{ctx}: error"),
        (l, f) => panic!("{ctx}: live ok={} vs frozen ok={}", l.is_ok(), f.is_ok()),
    }
}

/// Every combination of the four tabularization options.
fn all_options() -> Vec<TabularizeOptions> {
    let mut out = Vec::new();
    for multi_value in [MultiValue::First, MultiValue::Count] {
        for bits in 0..8u8 {
            out.push(TabularizeOptions {
                multi_value,
                include_iri: bits & 1 != 0,
                skip_type: bits & 2 != 0,
                objects_as_local_names: bits & 4 != 0,
            });
        }
    }
    out
}

fn assert_tabularizes_alike(graph: &Graph, class: &Iri, options: &TabularizeOptions, ctx: &str) {
    assert_same_table(
        &tabularize(graph, class, options),
        &reference::tabularize(graph, class, options),
        &format!("{ctx} {options:?}"),
    );
}

#[test]
fn scenario_tables_publish_the_reference_graph() {
    for seed in SEEDS {
        for (name, scenario, _) in scenarios(seed) {
            let ctx = format!("seed {seed} {name}");
            let live = publish_table(&scenario.table, BASE_IRI, &name).unwrap();
            let frozen = reference::publish_table(&scenario.table, BASE_IRI, &name).unwrap();
            assert_same_graph(&live, &frozen, &ctx);
            let class = row_class(BASE_IRI, &name);
            assert_tabularizes_alike(&live, &class, &TabularizeOptions::default(), &ctx);
        }
    }
}

#[test]
fn scenario_graphs_tabularize_like_the_reference() {
    let options = [
        TabularizeOptions::default(),
        TabularizeOptions {
            multi_value: MultiValue::Count,
            ..Default::default()
        },
        TabularizeOptions {
            include_iri: false,
            objects_as_local_names: false,
            skip_type: false,
            ..Default::default()
        },
    ];
    for seed in SEEDS {
        for (name, scenario, graph) in scenarios(seed) {
            let class = row_class(BASE_IRI, &scenario.name);
            for opts in &options {
                assert_tabularizes_alike(&graph, &class, opts, &format!("seed {seed} {name}"));
            }
        }
    }
}

/// How a seeded test graph is drawn.
struct Shape {
    /// Most values one entity carries for one predicate.
    max_values: usize,
    /// Chance an entity carries a given predicate at all.
    density: f64,
    /// Chance a subject or an object link is a blank node.
    blank: f64,
}

/// A literal, IRI or blank-node object. Typed literals include lexical
/// forms that do not parse as their datatype (a null cell) and
/// datatypes `tabularize` keeps as strings.
fn random_object(rng: &mut Rng, shape: &Shape, entities: usize) -> Term {
    let link = rng.below(entities);
    let lit = |l: Literal| Term::Literal(l);
    match rng.below(12) {
        0 => lit(Literal::integer(rng.below(7) as i64 - 3)),
        1 => lit(Literal::double((rng.below(9) as f64 - 4.0) / 4.0)),
        2 => lit(Literal::boolean(rng.bool())),
        3 => lit(Literal::plain(
            ["", "apple", "zebra", "b \"q\"\n"][rng.below(4)],
        )),
        4 => lit(Literal::lang(["hola", "adiós"][rng.below(2)], "es")),
        5 => lit(Literal::typed(
            format!("2024-01-0{}", 1 + rng.below(3)),
            xsd::date(),
        )),
        6 => lit(Literal::typed(
            ["x", " 7", "1"][rng.below(3)],
            xsd::integer(),
        )),
        7 => lit(Literal::typed(
            ["1", "yes", "false"][rng.below(3)],
            xsd::boolean(),
        )),
        8 => lit(Literal::typed(
            format!("{}.5", rng.below(4)),
            xsd::decimal(),
        )),
        _ if rng.f64() < shape.blank => Term::Blank(format!("b{link}")),
        _ => Term::iri(&format!("http://ex.org/e{link}")),
    }
}

/// Entities of `ex:Thing` (one in eight of `ex:Other` instead, one in
/// eight of both, so `rdf:type` is multi-valued) carrying predicates
/// whose local names collide (`v`, `v_2`, `iri`) on 1 to `max_values`
/// objects each.
fn random_graph(rng: &mut Rng, shape: &Shape) -> Graph {
    const PREDICATES: [&str; 8] = [
        "http://ex.org/v",
        "http://p.org/v",
        "http://ex.org/v_2",
        "http://ex.org/iri",
        "http://ex.org/tag",
        "http://ex.org/link",
        "http://ex.org/ns#when",
        "http://ex.org/ns#n",
    ];
    let mut g = Graph::new();
    let type_ = Term::Iri(rdf::type_());
    let thing = Term::iri("http://ex.org/Thing");
    let other = Term::iri("http://ex.org/Other");
    let n = len_in(rng, 1..40);
    for i in 0..n {
        let entity = if rng.f64() < shape.blank {
            Term::Blank(format!("b{i}"))
        } else {
            Term::iri(&format!("http://ex.org/e{i}"))
        };
        match rng.below(8) {
            0 => g.add(entity.clone(), type_.clone(), other.clone()),
            1 => {
                g.add(entity.clone(), type_.clone(), other.clone());
                g.add(entity.clone(), type_.clone(), thing.clone())
            }
            _ => g.add(entity.clone(), type_.clone(), thing.clone()),
        };
        for p in PREDICATES {
            if rng.f64() >= shape.density {
                continue;
            }
            for _ in 0..len_in(rng, 1..shape.max_values + 1) {
                g.add(entity.clone(), Term::iri(p), random_object(rng, shape, n));
            }
        }
    }
    g
}

fn check_random_graphs(cases: u64, shape: &Shape) {
    let classes = [
        "http://ex.org/Thing",
        "http://ex.org/Other",
        "http://ex.org/None",
    ]
    .map(|c| Iri::new(c).unwrap());
    let options = all_options();
    check_cases(cases, |rng| {
        let graph = random_graph(rng, shape);
        for class in &classes {
            for opts in &options {
                assert_tabularizes_alike(&graph, class, opts, class.as_str());
            }
        }
    });
}

#[test]
fn multi_valued_properties_tabularize_like_the_reference() {
    check_random_graphs(
        48,
        &Shape {
            max_values: 4,
            density: 0.7,
            blank: 0.1,
        },
    );
}

#[test]
fn blank_node_subjects_and_objects_tabularize_like_the_reference() {
    check_random_graphs(
        32,
        &Shape {
            max_values: 2,
            density: 0.6,
            blank: 0.6,
        },
    );
}

#[test]
fn sparse_graphs_tabularize_like_the_reference() {
    check_random_graphs(
        32,
        &Shape {
            max_values: 2,
            density: 0.08,
            blank: 0.1,
        },
    );
}

/// A column of `n` cells of one type, each null with chance `nulls`.
/// Floats include NaN, ±∞ and -0.0; strings need every escape.
fn random_column(rng: &mut Rng, name: &str, n: usize, nulls: f64) -> Column {
    let dtype = rng.below(4);
    let present = |rng: &mut Rng| rng.f64() >= nulls;
    match dtype {
        0 => Column::from_opt_i64(
            name,
            (0..n)
                .map(|_| present(rng).then(|| rng.below(2001) as i64 - 1000))
                .collect::<Vec<_>>(),
        ),
        1 => Column::from_opt_f64(
            name,
            (0..n)
                .map(|_| {
                    present(rng).then(|| match rng.below(8) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -0.0,
                        _ => rng.gauss() * 1e3,
                    })
                })
                .collect::<Vec<_>>(),
        ),
        2 => Column::from_opt_str(
            name,
            (0..n)
                .map(|_| {
                    present(rng).then(|| {
                        ["", "north", "Elche", "a \"b\" \\ c\n\t", "Luftqualität"][rng.below(5)]
                            .to_string()
                    })
                })
                .collect::<Vec<_>>(),
        ),
        _ => Column::new(
            name,
            openbi_table::ColumnData::Bool(
                (0..n).map(|_| present(rng).then(|| rng.bool())).collect(),
            ),
        ),
    }
}

#[test]
fn sparse_and_special_tables_publish_the_reference_graph() {
    // Column names that slug alike ("a b", "a-b"), that clash with the
    // `iri` column, and that need slugging.
    const NAMES: [&str; 6] = ["a b", "a-b", "iri", "PM 10", "aqi_band", "Ünits"];
    check_cases(64, |rng| {
        let n = rng.below(30);
        let nulls = [0.0, 0.5, 0.9, 1.0][rng.below(4)];
        let columns: Vec<Column> = NAMES[..len_in(rng, 1..NAMES.len() + 1)]
            .iter()
            .map(|name| random_column(rng, name, n, nulls))
            .collect();
        let table = Table::new(columns).unwrap();
        let (base, dataset) = [
            ("http://openbi.org", "Air Quality 2024!"),
            ("http://openbi.org/", "aq"),
            ("urn:x:", "--x--"),
        ][rng.below(3)];
        let ctx = format!("{n} rows, nulls {nulls}, {dataset}");
        let live = publish_table(&table, base, dataset).unwrap();
        let frozen = reference::publish_table(&table, base, dataset).unwrap();
        assert_same_graph(&live, &frozen, &ctx);
        let slug = match dataset {
            "Air Quality 2024!" => "air-quality-2024",
            "--x--" => "x",
            other => other,
        };
        for opts in [
            TabularizeOptions::default(),
            TabularizeOptions {
                multi_value: MultiValue::Count,
                include_iri: false,
                ..Default::default()
            },
        ] {
            assert_tabularizes_alike(&live, &row_class(base, slug), &opts, &ctx);
        }
    });
    // An empty table and an invalid base IRI.
    let empty = Table::empty();
    assert_same_graph(
        &publish_table(&empty, BASE_IRI, "e").unwrap(),
        &reference::publish_table(&empty, BASE_IRI, "e").unwrap(),
        "empty table",
    );
    let table = Table::new(vec![Column::from_i64("x", [1, 2])]).unwrap();
    assert_eq!(
        publish_table(&table, "no scheme", "d")
            .unwrap_err()
            .to_string(),
        reference::publish_table(&table, "no scheme", "d")
            .unwrap_err()
            .to_string()
    );
}

/// One digest of many documents, each length-prefixed.
fn fnv64_all<'a>(documents: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut all = Vec::new();
    for doc in documents {
        all.extend_from_slice(&(doc.len() as u64).to_le_bytes());
        all.extend_from_slice(doc.as_bytes());
    }
    fnv64(all)
}

fn check_digests(computed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let drift: Vec<String> = computed
        .iter()
        .filter(|(name, digest)| !pinned.contains(&(name.as_str(), *digest)))
        .map(|(name, digest)| format!("(\"{name}\", 0x{digest:016x}),"))
        .collect();
    assert!(
        drift.is_empty() && computed.len() == pinned.len(),
        "{} of {} digests drifted from the pinned bytes:\n{}",
        drift.len(),
        pinned.len(),
        drift.join("\n")
    );
}

/// Digests of the N-Triples and Turtle written for the 24 published
/// scenario tables and the 24 `scenario_to_lod` graphs of each seed, one
/// digest per seed, source and format.
const SCENARIO_DIGESTS: [(&str, u64); 8] = [
    ("2012/table.nt", 0x4233dd2b2c2fa4ad),
    ("2012/table.ttl", 0x0e87e80874cc0eca),
    ("2012/lod.nt", 0x60740862354aa20a),
    ("2012/lod.ttl", 0x65f7554534dcef45),
    ("7/table.nt", 0x42e260145df54921),
    ("7/table.ttl", 0xea5491c94c227892),
    ("7/lod.nt", 0x84f969709e502fd7),
    ("7/lod.ttl", 0x36cf7345877ef152),
];

#[test]
fn serialized_scenarios_match_pinned_digests() {
    let prefixes = PrefixMap::default();
    let mut computed = Vec::new();
    for seed in SEEDS {
        let (mut tables, mut graphs) = (Vec::new(), Vec::new());
        for (name, scenario, graph) in scenarios(seed) {
            tables.push(publish_table(&scenario.table, BASE_IRI, &name).unwrap());
            graphs.push(graph);
        }
        for (source, graphs) in [("table", &tables), ("lod", &graphs)] {
            let nt: Vec<String> = graphs.iter().map(write_ntriples).collect();
            let ttl: Vec<String> = graphs.iter().map(|g| write_turtle(g, &prefixes)).collect();
            computed.push((format!("{seed}/{source}.nt"), fnv64_all(&nt)));
            computed.push((format!("{seed}/{source}.ttl"), fnv64_all(&ttl)));
        }
    }
    check_digests(&computed, &SCENARIO_DIGESTS);
}

/// Digests of what the writers make of every valid `lod_parsers`
/// document, per document and format.
const CORPUS_DIGESTS: [(&str, u64); 12] = [
    ("kitchen_sink.nt", 0x17f54695531afafb),
    ("kitchen_sink.ttl", 0xcfe3ee89a0f0f820),
    ("kitchen_sink.ds.ttl", 0xc624410e9009c0cc),
    ("kitchen_sink.empty.ttl", 0x3cf5acdab14d54da),
    ("handwritten_turtle.nt", 0x47b8c88ad57eea25),
    ("handwritten_turtle.ttl", 0x089bdf30cdc1b3a1),
    ("handwritten_ntriples.nt", 0x081ef4eab6e30f57),
    ("handwritten_ntriples.ttl", 0x29f31ea3bb22f22e),
    ("blank_label_0.turtle.nt", 0x3db9fcfdb936ee68),
    ("blank_label_0.ntriples.nt", 0x3db9fcfdb936ee68),
    ("blank_label_1.turtle.nt", 0x74c187cc0ddb00e4),
    ("blank_label_1.ntriples.nt", 0x74c187cc0ddb00e4),
];

#[test]
fn serialized_corpora_match_pinned_digests() {
    let default = PrefixMap::default();
    let mut with_ds = PrefixMap::default();
    with_ds.add("ds", "http://data.example.org/ns#");
    let sink = kitchen_sink();
    let turtle = parse_turtle(HANDWRITTEN_TURTLE).unwrap();
    let ntriples = parse_ntriples(HANDWRITTEN_NTRIPLES).unwrap();
    let mut documents = vec![
        ("kitchen_sink.nt".to_string(), write_ntriples(&sink)),
        ("kitchen_sink.ttl".into(), write_turtle(&sink, &default)),
        ("kitchen_sink.ds.ttl".into(), write_turtle(&sink, &with_ds)),
        (
            "kitchen_sink.empty.ttl".into(),
            write_turtle(&sink, &PrefixMap::empty()),
        ),
        ("handwritten_turtle.nt".into(), write_ntriples(&turtle)),
        (
            "handwritten_turtle.ttl".into(),
            write_turtle(&turtle, &default),
        ),
        ("handwritten_ntriples.nt".into(), write_ntriples(&ntriples)),
        (
            "handwritten_ntriples.ttl".into(),
            write_turtle(&ntriples, &default),
        ),
    ];
    for (i, doc) in BLANK_LABEL_DOCUMENTS.iter().enumerate() {
        for (reader, graph) in [
            ("turtle", parse_turtle(doc)),
            ("ntriples", parse_ntriples(doc)),
        ] {
            documents.push((
                format!("blank_label_{i}.{reader}.nt"),
                write_ntriples(&graph.unwrap()),
            ));
        }
    }
    let computed: Vec<(String, u64)> = documents
        .iter()
        .map(|(name, text)| (name.clone(), fnv64(text.bytes())))
        .collect();
    check_digests(&computed, &CORPUS_DIGESTS);
}
