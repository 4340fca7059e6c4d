//! A Turtle subset parser.
//!
//! Supported: `@prefix` declarations, prefixed names, the `a` keyword,
//! `;` predicate lists and `,` object lists, IRIs, blank node labels,
//! plain / language-tagged / datatyped literals, and bare numeric and
//! boolean literal shorthands. This covers the Turtle that open-data
//! portals commonly emit and that this system itself produces.

use crate::error::{LodError, Result};
use crate::graph::{Graph, Triple};
use crate::ntriples::blank_label;
use crate::term::{Iri, Literal, Term};
use crate::vocab::xsd;
use std::collections::HashMap;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Iri(String),
    Prefixed(String, String),
    Blank(String),
    Literal {
        lexical: String,
        lang: Option<String>,
        datatype: Option<Box<Token>>,
    },
    Integer(String),
    Decimal(String),
    Double(String),
    Boolean(bool),
    A,
    PrefixDecl,
    Dot,
    Semicolon,
    Comma,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            chars: text.chars().peekable(),
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> LodError {
        LodError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.chars.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn lex_iri(&mut self) -> Result<Token> {
        self.bump(); // consume '<'
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(Token::Iri(s)),
                Some(c) => s.push(c),
                None => return Err(self.err("unterminated IRI")),
            }
        }
    }

    fn lex_string(&mut self) -> Result<String> {
        self.bump(); // consume '"'
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('u') => {
                        let hex: String = (0..4)
                            .map(|_| self.bump().ok_or_else(|| self.err("truncated \\u")))
                            .collect::<Result<String>>()?;
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| self.err("bad \\u escape"))?;
                        s.push(char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?);
                    }
                    other => return Err(self.err(format!("unknown escape \\{other:?}"))),
                },
                Some(c) => s.push(c),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn lex_literal(&mut self) -> Result<Token> {
        let lexical = self.lex_string()?;
        match self.chars.peek() {
            Some('@') => {
                self.bump();
                let mut tag = String::new();
                while matches!(self.chars.peek(), Some(c) if c.is_ascii_alphanumeric() || *c == '-')
                {
                    tag.push(self.bump().expect("peeked"));
                }
                if tag.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Token::Literal {
                    lexical,
                    lang: Some(tag),
                    datatype: None,
                })
            }
            Some('^') => {
                self.bump();
                if self.bump() != Some('^') {
                    return Err(self.err("expected ^^"));
                }
                let dt = match self.chars.peek() {
                    Some('<') => self.lex_iri()?,
                    _ => self.lex_name()?,
                };
                Ok(Token::Literal {
                    lexical,
                    lang: None,
                    datatype: Some(Box::new(dt)),
                })
            }
            _ => Ok(Token::Literal {
                lexical,
                lang: None,
                datatype: None,
            }),
        }
    }

    fn lex_number(&mut self) -> Result<Token> {
        let mut s = String::new();
        if matches!(self.chars.peek(), Some('+' | '-')) {
            s.push(self.bump().expect("peeked"));
        }
        let (mut has_dot, mut has_exponent) = (false, false);
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_digit() {
                s.push(self.bump().expect("peeked"));
            } else if c == '.' {
                // A '.' is only part of the number if a digit follows;
                // otherwise it terminates the statement.
                let mut clone = self.chars.clone();
                clone.next();
                if matches!(clone.peek(), Some(d) if d.is_ascii_digit()) {
                    has_dot = true;
                    s.push(self.bump().expect("peeked"));
                } else {
                    break;
                }
            } else if c == 'e' || c == 'E' {
                has_exponent = true;
                s.push(self.bump().expect("peeked"));
                if matches!(self.chars.peek(), Some('+' | '-')) {
                    s.push(self.bump().expect("peeked"));
                }
            } else {
                break;
            }
        }
        if s.is_empty() || s == "+" || s == "-" {
            return Err(self.err("malformed number"));
        }
        // Only an exponent makes a bare number `xsd:double`.
        Ok(if has_exponent {
            Token::Double(s)
        } else if has_dot {
            Token::Decimal(s)
        } else {
            Token::Integer(s)
        })
    }

    fn lex_name(&mut self) -> Result<Token> {
        if self.chars.clone().take(2).eq(['_', ':']) {
            self.chars.nth(1);
            let label = blank_label(&mut self.chars);
            if label.is_empty() {
                return Err(self.err("empty blank node label"));
            }
            return Ok(Token::Blank(label));
        }
        let mut s = String::new();
        while matches!(self.chars.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-' | ':' | '.'))
        {
            // '.' terminates a statement unless followed by a name char.
            if self.chars.peek() == Some(&'.') {
                let mut clone = self.chars.clone();
                clone.next();
                if !matches!(clone.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-'))
                {
                    break;
                }
            }
            s.push(self.bump().expect("peeked"));
        }
        match s.as_str() {
            "" => Err(self.err("expected name")),
            "a" => Ok(Token::A),
            "true" => Ok(Token::Boolean(true)),
            "false" => Ok(Token::Boolean(false)),
            _ => {
                if let Some(colon) = s.find(':') {
                    Ok(Token::Prefixed(
                        s[..colon].to_string(),
                        s[colon + 1..].to_string(),
                    ))
                } else {
                    Err(self.err(format!("unexpected token: {s}")))
                }
            }
        }
    }

    fn tokens(mut self) -> Result<Vec<(Token, usize)>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let Some(&c) = self.chars.peek() else {
                return Ok(out);
            };
            let line = self.line;
            let tok = match c {
                '<' => self.lex_iri()?,
                '"' => self.lex_literal()?,
                '.' => {
                    self.bump();
                    Token::Dot
                }
                ';' => {
                    self.bump();
                    Token::Semicolon
                }
                ',' => {
                    self.bump();
                    Token::Comma
                }
                '@' => {
                    self.bump();
                    let mut kw = String::new();
                    while matches!(self.chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                        kw.push(self.bump().expect("peeked"));
                    }
                    if kw == "prefix" {
                        Token::PrefixDecl
                    } else {
                        return Err(self.err(format!("unsupported directive @{kw}")));
                    }
                }
                d if d.is_ascii_digit() || d == '+' || d == '-' => self.lex_number()?,
                _ => self.lex_name()?,
            };
            out.push((tok, line));
        }
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    cursor: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn err_at(&self, message: impl Into<String>) -> LodError {
        let line = self
            .tokens
            .get(self.cursor.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.1)
            .unwrap_or(0);
        LodError::Parse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|t| &t.0)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.cursor).map(|t| t.0.clone());
        self.cursor += 1;
        t
    }

    fn resolve(&self, token: Token) -> Result<Term> {
        match token {
            Token::Iri(s) => Ok(Term::Iri(Iri::new(s)?)),
            Token::Prefixed(p, local) => {
                let ns = self
                    .prefixes
                    .get(&p)
                    .ok_or_else(|| LodError::UnknownPrefix(p.clone()))?;
                Ok(Term::Iri(Iri::new(format!("{ns}{local}"))?))
            }
            Token::Blank(b) => Ok(Term::Blank(b)),
            Token::Literal {
                lexical,
                lang,
                datatype,
            } => {
                let lit = if let Some(tag) = lang {
                    Literal::lang(lexical, tag)
                } else if let Some(dt) = datatype {
                    let dt_term = self.resolve(*dt)?;
                    let Term::Iri(dt_iri) = dt_term else {
                        return Err(self.err_at("datatype must be an IRI"));
                    };
                    Literal::typed(lexical, dt_iri)
                } else {
                    Literal::plain(lexical)
                };
                Ok(Term::Literal(lit))
            }
            Token::Integer(s) => Ok(Term::Literal(Literal::typed(s, xsd::integer()))),
            Token::Decimal(s) => Ok(Term::Literal(Literal::typed(s, xsd::decimal()))),
            Token::Double(s) => Ok(Term::Literal(Literal::typed(s, xsd::double()))),
            Token::Boolean(b) => Ok(Term::Literal(Literal::boolean(b))),
            Token::A => Ok(Term::Iri(crate::vocab::rdf::type_())),
            t => Err(self.err_at(format!("unexpected token {t:?}"))),
        }
    }

    fn parse_document(&mut self) -> Result<Graph> {
        let mut g = Graph::new();
        while self.peek().is_some() {
            if self.peek() == Some(&Token::PrefixDecl) {
                self.next();
                let Some(Token::Prefixed(p, local)) = self.next() else {
                    return Err(self.err_at("expected prefix name after @prefix"));
                };
                if !local.is_empty() {
                    return Err(self.err_at("prefix declaration must end with ':'"));
                }
                let Some(Token::Iri(ns)) = self.next() else {
                    return Err(self.err_at("expected namespace IRI in @prefix"));
                };
                if self.next() != Some(Token::Dot) {
                    return Err(self.err_at("expected '.' after @prefix"));
                }
                self.prefixes.insert(p, ns);
                continue;
            }
            self.parse_statement(&mut g)?;
        }
        Ok(g)
    }

    fn parse_statement(&mut self, g: &mut Graph) -> Result<()> {
        let subj_tok = self.next().ok_or_else(|| self.err_at("expected subject"))?;
        let subject = self.resolve(subj_tok)?;
        if !subject.is_subject() {
            return Err(self.err_at("literal in subject position"));
        }
        loop {
            let pred_tok = self
                .next()
                .ok_or_else(|| self.err_at("expected predicate"))?;
            let predicate = self.resolve(pred_tok)?;
            if !matches!(predicate, Term::Iri(_)) {
                return Err(self.err_at("predicate must be an IRI"));
            }
            loop {
                let obj_tok = self.next().ok_or_else(|| self.err_at("expected object"))?;
                let object = self.resolve(obj_tok)?;
                g.insert(Triple::new(subject.clone(), predicate.clone(), object));
                match self.peek() {
                    Some(Token::Comma) => {
                        self.next();
                    }
                    _ => break,
                }
            }
            match self.next() {
                Some(Token::Semicolon) => {
                    // allow trailing ';' before '.'
                    if self.peek() == Some(&Token::Dot) {
                        self.next();
                        return Ok(());
                    }
                    continue;
                }
                Some(Token::Dot) => return Ok(()),
                other => return Err(self.err_at(format!("expected ';' or '.', got {other:?}"))),
            }
        }
    }
}

/// Parse a Turtle document (the supported subset) into a graph.
pub fn parse_turtle(text: &str) -> Result<Graph> {
    let tokens = Lexer::new(text).tokens()?;
    let mut parser = Parser {
        tokens,
        cursor: 0,
        prefixes: HashMap::new(),
    };
    parser.parse_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:alice a ex:Person ;
    ex:name "Alice" ;
    ex:age 30 ;
    ex:height 1.65 ;
    ex:knows ex:bob, ex:carol .

ex:bob a ex:Person ;
    ex:name "Bob"@en ;
    ex:active true ;
    ex:score "7"^^xsd:integer .
"#;

    #[test]
    fn parses_full_document() {
        let g = parse_turtle(DOC).unwrap();
        // alice: type, name, age, height, knows x2 = 6; bob: type, name, active, score = 4.
        assert_eq!(g.len(), 10);
    }

    #[test]
    fn keyword_a_is_rdf_type() {
        let g = parse_turtle(DOC).unwrap();
        let person = Iri::new("http://ex.org/Person").unwrap();
        assert_eq!(g.subjects_of_type(&person).len(), 2);
    }

    #[test]
    fn numbers_become_typed_literals() {
        let g = parse_turtle(DOC).unwrap();
        let alice = Term::iri("http://ex.org/alice");
        let age = Term::iri("http://ex.org/age");
        let objs = g.objects(&alice, &age);
        let lit = objs[0].as_literal().unwrap();
        assert_eq!(lit.as_i64(), Some(30));
        assert_eq!(lit.datatype.as_ref().unwrap().local_name(), "integer");
        let height = Term::iri("http://ex.org/height");
        let objs = g.objects(&alice, &height);
        assert_eq!(objs[0].as_literal().unwrap().as_f64(), Some(1.65));
    }

    #[test]
    fn comma_expands_object_lists() {
        let g = parse_turtle(DOC).unwrap();
        let alice = Term::iri("http://ex.org/alice");
        let knows = Term::iri("http://ex.org/knows");
        assert_eq!(g.objects(&alice, &knows).len(), 2);
    }

    #[test]
    fn prefixed_datatype_resolves() {
        let g = parse_turtle(DOC).unwrap();
        let bob = Term::iri("http://ex.org/bob");
        let score = Term::iri("http://ex.org/score");
        let lit_objs = g.objects(&bob, &score);
        assert_eq!(
            lit_objs[0].as_literal().unwrap().datatype.as_ref().unwrap(),
            &xsd::integer()
        );
    }

    #[test]
    fn boolean_shorthand() {
        let g = parse_turtle(DOC).unwrap();
        let bob = Term::iri("http://ex.org/bob");
        let active = Term::iri("http://ex.org/active");
        assert_eq!(
            g.objects(&bob, &active)[0].as_literal().unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn unknown_prefix_is_error() {
        let err = parse_turtle("zzz:a zzz:b zzz:c .").unwrap_err();
        assert!(matches!(err, LodError::UnknownPrefix(_)));
    }

    #[test]
    fn comments_ignored() {
        let g = parse_turtle(
            "# header\n@prefix ex: <http://ex.org/> . # inline\nex:a ex:p ex:b . # done\n",
        )
        .unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn blank_nodes_parse() {
        let g = parse_turtle("@prefix ex: <http://ex.org/> .\n_:x ex:p _:y .").unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject, Term::Blank("x".into()));
    }

    #[test]
    fn error_carries_line() {
        let src = "@prefix ex: <http://ex.org/> .\nex:a ex:p .\n";
        match parse_turtle(src).unwrap_err() {
            LodError::Parse { line, .. } => assert!(line >= 2, "line was {line}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn only_an_exponent_makes_a_bare_number_double() {
        for (number, datatype) in [
            ("1.65", "decimal"),
            ("1.65e0", "double"),
            ("1E3", "double"),
            ("7", "integer"),
        ] {
            let g = parse_turtle(&format!("<http://a> <http://v> {number} .")).unwrap();
            let object = g.iter().next().unwrap().object;
            let lit = object.as_literal().unwrap();
            assert_eq!(lit.lexical, number);
            assert_eq!(lit.datatype.as_ref().unwrap().local_name(), datatype);
        }
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let g =
            parse_turtle("@prefix ex: <http://ex.org/> .\nex:a ex:v -3 ; ex:w 1.5e2 .").unwrap();
        let a = Term::iri("http://ex.org/a");
        let v = Term::iri("http://ex.org/v");
        assert_eq!(
            g.objects(&a, &v)[0].as_literal().unwrap().as_i64(),
            Some(-3)
        );
        let w = Term::iri("http://ex.org/w");
        assert_eq!(
            g.objects(&a, &w)[0].as_literal().unwrap().as_f64(),
            Some(150.0)
        );
    }
}
