//! The valid LOD documents the parser suite round-trips and the
//! equivalence suite pins the serialized bytes of.

use openbi_lod::{Graph, Iri, Literal, Term};

/// A graph exercising every term shape the model supports: IRIs, blank
/// nodes, and plain / language-tagged / typed / numeric / boolean
/// literals, including lexical forms that need every escape.
pub fn kitchen_sink() -> Graph {
    let mut g = Graph::new();
    let s = Term::iri("http://data.example.org/dataset/air-quality");
    let p = |n: &str| Term::iri(&format!("http://data.example.org/ns#{n}"));
    g.add(
        s.clone(),
        p("label"),
        Term::Literal(Literal::plain("PM10 readings")),
    );
    g.add(
        s.clone(),
        p("note"),
        Term::Literal(Literal::plain(
            "quote \" backslash \\ newline \n tab \t cr \r done",
        )),
    );
    g.add(
        s.clone(),
        p("title"),
        Term::Literal(Literal::lang("Luftqualität — München", "de")),
    );
    g.add(
        s.clone(),
        p("updated"),
        Term::Literal(Literal::typed(
            "2012-03-26",
            Iri::new("http://www.w3.org/2001/XMLSchema#date").unwrap(),
        )),
    );
    g.add(s.clone(), p("rows"), Term::Literal(Literal::integer(8_760)));
    g.add(s.clone(), p("mean"), Term::Literal(Literal::double(27.5)));
    g.add(s.clone(), p("open"), Term::Literal(Literal::boolean(true)));
    // Valid but non-canonical lexical forms: no bare shorthand keeps them.
    let xsd = |local: &str| Iri::new(format!("http://www.w3.org/2001/XMLSchema#{local}")).unwrap();
    g.add(
        s.clone(),
        p("archived"),
        Term::Literal(Literal::typed("1", xsd("boolean"))),
    );
    g.add(
        s.clone(),
        p("deprecated"),
        Term::Literal(Literal::typed("0", xsd("boolean"))),
    );
    g.add(
        s.clone(),
        p("stations"),
        Term::Literal(Literal::typed(" 7", xsd("integer"))),
    );
    g.add(s.clone(), p("station"), Term::Blank("st1".into()));
    g.add(
        Term::Blank("st1".into()),
        p("label"),
        Term::Literal(Literal::plain("Landshuter Allee")),
    );
    g.add(
        s,
        p("license"),
        Term::iri("http://creativecommons.org/licenses/by/3.0/"),
    );
    g
}

/// A hand-written Turtle document: prefixes, `a`, `;` and `,` lists,
/// bare numbers and booleans, a tagged and a typed literal, and blank
/// labels with a `.` inside and right after them.
pub const HANDWRITTEN_TURTLE: &str = r#"
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:alice a ex:Person ;
    ex:name "Alice" ;
    ex:age 30 ;
    ex:height 1.65 ;
    ex:knows ex:bob, ex:carol .

ex:bob ex:name "Bob"@en ;
    ex:active true ;
    ex:score "7"^^xsd:integer .
_:obs ex:of ex:alice .
_:a.b ex:of _:o.
"#;

/// A hand-written N-Triples document: comments, a blank line, uneven
/// whitespace, escapes, a typed and a tagged literal, and blank labels
/// with a `.` inside and right after them.
pub const HANDWRITTEN_NTRIPLES: &str = "\
# comment line, then a blank line

<http://e.org/a> <http://e.org/p> <http://e.org/b> .
<http://e.org/a>   <http://e.org/name>\t\"Al\\\"ice\\n\" .  # trailing comment
<http://e.org/a> <http://e.org/age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e.org/a> <http://e.org/greet> \"hola\"@es .
_:b0 <http://e.org/p> _:b1 .
_:a.b <http://e.org/p> _:o.
";

/// One-statement documents both readers must read alike: a `.` inside a
/// blank label, and a statement `.` right after one.
pub const BLANK_LABEL_DOCUMENTS: [&str; 2] = [
    "_:a.b <http://p> <http://o> .",
    "<http://s> <http://p> _:o.",
];
