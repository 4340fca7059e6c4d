//! CSV reading and writing.
//!
//! A small, dependency-free RFC-4180-style reader with type inference —
//! this is the "raw open data in CSV" ingestion path the paper's
//! introduction motivates. Quoted fields, embedded delimiters, embedded
//! quotes (`""`) and embedded newlines are supported.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::fmt::Write as _;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first record is a header (default true).
    pub has_header: bool,
    /// When false, every column is read as a string column.
    pub infer_types: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: true,
            infer_types: true,
        }
    }
}

/// Split CSV text into records of raw string fields, each with the
/// line it starts on.
fn parse_records(text: &str, delimiter: char) -> Result<Vec<(usize, Vec<String>)>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut record_line = line;
    let mut chars = text.chars().peekable();
    let mut saw_any = false;
    while let Some(ch) = chars.next() {
        saw_any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                c => field.push(c),
            }
        } else {
            match ch {
                '"' => {
                    if !field.is_empty() {
                        return Err(TableError::CsvParse {
                            line,
                            message: "unexpected quote inside unquoted field".to_string(),
                        });
                    }
                    in_quotes = true;
                }
                '\r' => { /* tolerate CRLF */ }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    // Skip completely empty trailing lines.
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push((record_line, std::mem::take(&mut record)));
                    } else {
                        record.clear();
                    }
                    line += 1;
                    record_line = line;
                }
                c if c == delimiter => record.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(TableError::CsvParse {
            line,
            message: "unterminated quoted field".to_string(),
        });
    }
    if saw_any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        if !(record.len() == 1 && record[0].is_empty()) {
            records.push((record_line, record));
        }
    }
    Ok(records)
}

/// Infer the narrowest common column type for a set of raw tokens.
fn infer_dtype(tokens: &[&str]) -> DataType {
    let mut seen_any = false;
    let mut all_int = true;
    let mut all_float = true;
    let mut all_bool = true;
    for t in tokens {
        let v = Value::infer_from_str(t);
        match v {
            Value::Null => continue,
            Value::Int(_) => {
                seen_any = true;
                all_bool = false;
            }
            Value::Float(_) => {
                seen_any = true;
                all_int = false;
                all_bool = false;
            }
            Value::Bool(_) => {
                seen_any = true;
                all_int = false;
                all_float = false;
            }
            Value::Str(_) => return DataType::Str,
        }
    }
    if !seen_any {
        return DataType::Str;
    }
    if all_bool {
        DataType::Bool
    } else if all_int {
        DataType::Int
    } else if all_float {
        DataType::Float
    } else {
        DataType::Str
    }
}

/// Parse CSV text into a [`Table`].
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<Table> {
    let records = parse_records(text, options.delimiter)?;
    if records.is_empty() {
        return Ok(Table::empty());
    }
    let (header, body): (Vec<String>, &[(usize, Vec<String>)]) = if options.has_header {
        (records[0].1.clone(), &records[1..])
    } else {
        (
            (0..records[0].1.len()).map(|i| format!("c{i}")).collect(),
            &records[..],
        )
    };
    let ncols = header.len();
    for (line, rec) in body {
        if rec.len() != ncols {
            return Err(TableError::CsvParse {
                line: *line,
                message: format!("expected {ncols} fields, found {}", rec.len()),
            });
        }
    }
    let mut columns = Vec::with_capacity(ncols);
    for (ci, name) in header.iter().enumerate() {
        let tokens: Vec<&str> = body.iter().map(|(_, r)| r[ci].as_str()).collect();
        let dtype = if options.infer_types {
            infer_dtype(&tokens)
        } else {
            DataType::Str
        };
        let values: Vec<Value> = tokens
            .iter()
            .map(|t| {
                if options.infer_types {
                    let v = Value::infer_from_str(t);
                    match (dtype, v) {
                        (DataType::Str, Value::Null) => Value::Null,
                        // A column inferred Str keeps raw tokens verbatim.
                        (DataType::Str, _) => Value::Str((*t).to_string()),
                        (_, v) => v,
                    }
                } else if t.is_empty() {
                    Value::Null
                } else {
                    Value::Str((*t).to_string())
                }
            })
            .collect();
        columns.push(Column::from_values(name.clone(), dtype, values)?);
    }
    Table::new(columns)
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<std::path::Path>, options: &CsvOptions) -> Result<Table> {
    let text = std::fs::read_to_string(path)?;
    read_csv_str(&text, options)
}

fn escape_field(s: &str, delimiter: char) -> String {
    if s.contains(delimiter) || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serialize a table to CSV text (with a header row).
pub fn write_csv_str(table: &Table, delimiter: char) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .column_names()
        .iter()
        .map(|n| escape_field(n, delimiter))
        .collect();
    let _ = writeln!(out, "{}", header.join(&delimiter.to_string()));
    for row in table.iter_rows() {
        let fields: Vec<String> = row
            .iter()
            .map(|v| escape_field(&v.to_string(), delimiter))
            .collect();
        let _ = writeln!(out, "{}", fields.join(&delimiter.to_string()));
    }
    out
}

/// Write a table to a CSV file.
pub fn write_csv_path(table: &Table, path: impl AsRef<std::path::Path>) -> Result<()> {
    std::fs::write(path, write_csv_str(table, ','))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv_with_inference() {
        let t = read_csv_str("a,b,c\n1,2.5,x\n2,3.5,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("a").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("b").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("c").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn mixed_int_float_becomes_float() {
        let t = read_csv_str("x\n1\n2.5\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Float);
        assert_eq!(t.get("x", 0).unwrap(), Value::Float(1.0));
    }

    #[test]
    fn empty_and_na_become_null() {
        let t = read_csv_str("x,y\n1,\n,b\nNA,c\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.column("x").unwrap().null_count(), 2);
        assert_eq!(t.column("y").unwrap().null_count(), 1);
    }

    #[test]
    fn quoted_fields_with_delimiter_and_newline() {
        let t = read_csv_str(
            "name,notes\nalice,\"hello, world\"\nbob,\"line1\nline2\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(
            t.get("notes", 0).unwrap(),
            Value::Str("hello, world".into())
        );
        assert_eq!(
            t.get("notes", 1).unwrap(),
            Value::Str("line1\nline2".into())
        );
    }

    #[test]
    fn escaped_quotes_round_trip() {
        let t = read_csv_str("s\n\"he said \"\"hi\"\"\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.get("s", 0).unwrap(), Value::Str("he said \"hi\"".into()));
        let text = write_csv_str(&t, ',');
        let t2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn crlf_tolerated() {
        let t = read_csv_str("a,b\r\n1,2\r\n3,4\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.get("b", 1).unwrap(), Value::Int(4));
    }

    #[test]
    fn ragged_row_is_error_with_line_number() {
        // A blank line or a quoted newline before the ragged row moves
        // it down a line.
        for (text, expected) in [
            ("a,b\n1,2\n3\n", 3),
            ("a,b\n1,2\n\n3\n", 4),
            ("a,b\n\"x\ny\",2\n3\n", 4),
        ] {
            let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
            match err {
                TableError::CsvParse { line, .. } => assert_eq!(line, expected, "{text:?}"),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(read_csv_str("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = CsvOptions {
            has_header: false,
            ..Default::default()
        };
        let t = read_csv_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(t.column_names(), vec!["c0", "c1"]);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn no_inference_keeps_strings() {
        let opts = CsvOptions {
            infer_types: false,
            ..Default::default()
        };
        let t = read_csv_str("x\n1\n", &opts).unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions {
            delimiter: ';',
            ..Default::default()
        };
        let t = read_csv_str("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(t.get("b", 0).unwrap(), Value::Int(2));
    }

    #[test]
    fn round_trip_preserves_values() {
        let t = read_csv_str("a,b,c\n1,2.5,foo\n2,,\n", &CsvOptions::default()).unwrap();
        let text = write_csv_str(&t, ',');
        let t2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), t2.n_rows());
        assert_eq!(t.get("b", 1).unwrap(), t2.get("b", 1).unwrap());
    }

    #[test]
    fn bool_column_inferred() {
        let t = read_csv_str("f\ntrue\nfalse\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.column("f").unwrap().dtype(), DataType::Bool);
    }

    #[test]
    fn empty_input_gives_empty_table() {
        let t = read_csv_str("", &CsvOptions::default()).unwrap();
        assert_eq!(t.n_cols(), 0);
        assert_eq!(t.n_rows(), 0);
    }
}
