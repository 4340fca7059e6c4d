//! N-Triples parsing and serialization.
//!
//! Supports the full term syntax used by this system: IRIs, blank nodes,
//! plain / language-tagged / datatyped literals with the standard string
//! escapes, and `#` comments.

use crate::error::{LodError, Result};
use crate::graph::{Graph, Triple};
use crate::term::{Iri, Literal, Term};
use std::fmt::Write as _;
use std::iter::Peekable;
use std::str::Chars;

/// Read a blank node's label, after its `_:`, by the N-Triples 1.1
/// `BLANK_NODE_LABEL` rule that both readers share: letters, digits, `_`
/// and `-`, plus `.` only between two label characters, so a `.` right
/// after a label ends the statement. Empty when no label character
/// follows.
pub(crate) fn blank_label(chars: &mut Peekable<Chars<'_>>) -> String {
    let is_label = |c: &char| c.is_alphanumeric() || matches!(c, '_' | '-');
    let mut label = String::new();
    loop {
        match chars.peek() {
            Some(c) if is_label(c) => {}
            Some('.') if !label.is_empty() => {
                let mut ahead = chars.clone();
                ahead.next();
                if !ahead.peek().is_some_and(is_label) {
                    break;
                }
            }
            _ => break,
        }
        label.push(chars.next().expect("peeked"));
    }
    label
}

/// A cursor over one line of N-Triples input.
struct Cursor<'a> {
    chars: Peekable<Chars<'a>>,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        Cursor {
            chars: text.chars().peekable(),
            line,
        }
    }

    fn err(&self, message: impl Into<String>) -> LodError {
        LodError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, c: char) -> Result<()> {
        match self.chars.next() {
            Some(x) if x == c => Ok(()),
            other => Err(self.err(format!("expected {c:?}, found {other:?}"))),
        }
    }

    fn parse_iri(&mut self) -> Result<Iri> {
        self.expect('<')?;
        let mut s = String::new();
        loop {
            match self.chars.next() {
                Some('>') => break,
                Some(c) => s.push(c),
                None => return Err(self.err("unterminated IRI")),
            }
        }
        Iri::new(s)
    }

    fn parse_blank(&mut self) -> Result<Term> {
        self.expect('_')?;
        self.expect(':')?;
        let s = blank_label(&mut self.chars);
        if s.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::Blank(s))
    }

    fn parse_escape(&mut self) -> Result<char> {
        match self.chars.next() {
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('t') => Ok('\t'),
            Some('"') => Ok('"'),
            Some('\\') => Ok('\\'),
            Some('u') => {
                let hex: String = (0..4)
                    .map(|_| self.chars.next().ok_or_else(|| self.err("truncated \\u")))
                    .collect::<Result<String>>()?;
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| self.err(format!("bad \\u escape: {hex}")))?;
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
            }
            other => Err(self.err(format!("unknown escape \\{other:?}"))),
        }
    }

    fn parse_literal(&mut self) -> Result<Literal> {
        self.expect('"')?;
        let mut lexical = String::new();
        loop {
            match self.chars.next() {
                Some('"') => break,
                Some('\\') => lexical.push(self.parse_escape()?),
                Some(c) => lexical.push(c),
                None => return Err(self.err("unterminated literal")),
            }
        }
        match self.chars.peek() {
            Some('@') => {
                self.chars.next();
                let mut tag = String::new();
                while matches!(self.chars.peek(), Some(c) if c.is_ascii_alphanumeric() || *c == '-')
                {
                    tag.push(self.chars.next().expect("peeked"));
                }
                if tag.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Literal::lang(lexical, tag))
            }
            Some('^') => {
                self.chars.next();
                self.expect('^')?;
                let dt = self.parse_iri()?;
                Ok(Literal::typed(lexical, dt))
            }
            _ => Ok(Literal::plain(lexical)),
        }
    }

    fn parse_term(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => self.parse_blank(),
            Some('"') => Ok(Term::Literal(self.parse_literal()?)),
            other => Err(self.err(format!("expected term, found {other:?}"))),
        }
    }

    fn parse_triple(&mut self) -> Result<Triple> {
        let subject = self.parse_term()?;
        if !subject.is_subject() {
            return Err(self.err("literal in subject position"));
        }
        let predicate = self.parse_term()?;
        if !matches!(predicate, Term::Iri(_)) {
            return Err(self.err("predicate must be an IRI"));
        }
        let object = self.parse_term()?;
        self.skip_ws();
        self.expect('.')?;
        self.skip_ws();
        match self.chars.peek().copied() {
            None | Some('#') => Ok(Triple::new(subject, predicate, object)),
            Some(c) => Err(self.err(format!("trailing content after '.': {c:?}"))),
        }
    }
}

/// Parse an N-Triples document into a graph.
pub fn parse_ntriples(text: &str) -> Result<Graph> {
    let mut g = Graph::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cur = Cursor::new(line, i + 1);
        g.insert(cur.parse_triple()?);
    }
    Ok(g)
}

/// Serialize a graph as N-Triples (one triple per line, SPO order).
pub fn write_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for [s, p, o] in graph.triple_terms() {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_iri_triple() {
        let g = parse_ntriples("<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn parses_literals() {
        let src = r#"<http://e.org/a> <http://e.org/name> "Alice" .
<http://e.org/a> <http://e.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e.org/a> <http://e.org/greet> "hola"@es .
"#;
        let g = parse_ntriples(src).unwrap();
        assert_eq!(g.len(), 3);
        let a = Term::iri("http://e.org/a");
        let age = Term::iri("http://e.org/age");
        let objs = g.objects(&a, &age);
        assert_eq!(objs[0].as_literal().unwrap().as_i64(), Some(30));
    }

    #[test]
    fn parses_escapes() {
        let src = "<http://e.org/a> <http://e.org/v> \"a\\\"b\\nc\\u0041\" .\n";
        let g = parse_ntriples(src).unwrap();
        let lit = g.iter().next().unwrap().object;
        assert_eq!(lit.as_literal().unwrap().lexical, "a\"b\ncA");
    }

    #[test]
    fn parses_blank_nodes() {
        let g = parse_ntriples("_:b0 <http://e.org/p> _:b1 .\n").unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject, Term::Blank("b0".into()));
        assert_eq!(t.object, Term::Blank("b1".into()));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let src =
            "# a comment\n\n<http://e.org/a> <http://e.org/p> <http://e.org/b> . # trailing\n";
        let g = parse_ntriples(src).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "<http://e.org/a> <http://e.org/p> <http://e.org/b> .\nnot a triple\n";
        match parse_ntriples(src).unwrap_err() {
            LodError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_literal_subject() {
        assert!(parse_ntriples("\"x\" <http://e.org/p> <http://e.org/b> .\n").is_err());
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse_ntriples("<http://e.org/a> <http://e.org/p> <http://e.org/b>\n").is_err());
    }

    #[test]
    fn round_trip_preserves_graph() {
        let src = r#"<http://e.org/a> <http://e.org/name> "Al\"ice\n" .
<http://e.org/a> <http://e.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b <http://e.org/p> "x"@en .
"#;
        let g = parse_ntriples(src).unwrap();
        let text = write_ntriples(&g);
        let g2 = parse_ntriples(&text).unwrap();
        assert_eq!(g.len(), g2.len());
        for t in g.iter() {
            assert!(g2.contains(&t), "missing {t}");
        }
    }
}
