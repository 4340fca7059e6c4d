//! Exact-duplicate detection.
//!
//! Exact duplicates are found by hashed row fingerprints: each cell is
//! folded column-major into a per-row `u64` hash (no per-row `String`
//! allocation, unlike the reference's `Table::row_key` keys), rows are
//! bucketed by hash, and every bucket is verified by exact typed cell
//! comparison — so a hash collision can never merge distinct rows.
//!
//! A float column is compared through `Column::numbers`, so a NaN or ±∞
//! cell is missing and equals a null, and `0.0` ≠ `-0.0`; an integer is
//! compared exactly, not widened; a null ≠ an empty string. On a table
//! with no NaN or ±∞ cell this is the reference's textual-key relation,
//! except that typed comparison also closes the reference's
//! separator-injection ambiguity (a string cell containing the key
//! separator could alias another row). Near duplicates are found by
//! record linkage ([`crate::dedup`]).

use openbi_table::fingerprint::{canonical_f64_bits, mix_u64, row_hash_seed};
use openbi_table::{ColumnData, Table};
use std::collections::HashMap;

/// One column's cells as exact-duplicate detection compares them.
enum Cells<'a> {
    Int(&'a [Option<i64>]),
    /// `Column::numbers`: NaN where the cell is missing.
    Float(Vec<f64>),
    Str(&'a [Option<String>]),
    Bool(&'a [Option<bool>]),
}

fn cells(table: &Table) -> Vec<Cells<'_>> {
    table
        .columns()
        .iter()
        .map(|c| match c.data() {
            ColumnData::Int(v) => Cells::Int(v),
            ColumnData::Float(_) => Cells::Float(c.numbers()),
            ColumnData::Str(v) => Cells::Str(v),
            ColumnData::Bool(v) => Cells::Bool(v),
        })
        .collect()
}

/// Per-row content hashes: every cell folded column-major into one `u64`
/// per row, with null/value tags and float bits.
fn row_hashes(columns: &[Cells<'_>], n_rows: usize) -> Vec<u64> {
    let mut hashes = vec![row_hash_seed(); n_rows];
    for column in columns {
        match column {
            Cells::Int(v) => {
                for (h, cell) in hashes.iter_mut().zip(*v) {
                    *h = match cell {
                        None => mix_u64(*h, 0),
                        Some(i) => mix_u64(mix_u64(*h, 1), *i as u64),
                    };
                }
            }
            Cells::Float(v) => {
                for (h, x) in hashes.iter_mut().zip(v) {
                    *h = if x.is_nan() {
                        mix_u64(*h, 0)
                    } else {
                        mix_u64(mix_u64(*h, 1), x.to_bits())
                    };
                }
            }
            Cells::Str(v) => {
                for (h, cell) in hashes.iter_mut().zip(*v) {
                    *h = match cell {
                        None => mix_u64(*h, 0),
                        Some(s) => {
                            let mut sh = mix_u64(*h, 1);
                            sh = mix_u64(sh, s.len() as u64);
                            for chunk in s.as_bytes().chunks(8) {
                                let mut word = [0u8; 8];
                                word[..chunk.len()].copy_from_slice(chunk);
                                sh = mix_u64(sh, u64::from_le_bytes(word));
                            }
                            sh
                        }
                    };
                }
            }
            Cells::Bool(v) => {
                for (h, cell) in hashes.iter_mut().zip(*v) {
                    *h = match cell {
                        None => mix_u64(*h, 0),
                        Some(b) => mix_u64(mix_u64(*h, 1), *b as u64),
                    };
                }
            }
        }
    }
    hashes
}

/// Exact typed equality of two rows: missing matches missing (every NaN
/// has one canonical pattern), floats compare by bits (signed zeros
/// distinct).
fn rows_equal(columns: &[Cells<'_>], a: usize, b: usize) -> bool {
    columns.iter().all(|column| match column {
        Cells::Int(v) => v[a] == v[b],
        Cells::Float(v) => canonical_f64_bits(v[a]) == canonical_f64_bits(v[b]),
        Cells::Str(v) => v[a] == v[b],
        Cells::Bool(v) => v[a] == v[b],
    })
}

/// All exact-duplicate groups (including singletons), in first-occurrence
/// order. Buckets rows by content hash, then splits each bucket by exact
/// typed comparison.
fn duplicate_groups(table: &Table) -> Vec<Vec<usize>> {
    let columns = cells(table);
    let hashes = row_hashes(&columns, table.n_rows());
    // hash → indices into `groups` of the groups sharing that hash.
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (row, &h) in hashes.iter().enumerate() {
        let candidates = by_hash.entry(h).or_default();
        let found = candidates
            .iter()
            .copied()
            .find(|&g| rows_equal(&columns, groups[g][0], row));
        match found {
            Some(g) => groups[g].push(row),
            None => {
                candidates.push(groups.len());
                groups.push(vec![row]);
            }
        }
    }
    groups
}

/// Fraction of rows that exactly duplicate an earlier row.
pub fn exact_duplicate_ratio(table: &Table) -> f64 {
    if table.n_rows() == 0 {
        return 0.0;
    }
    let dups: usize = duplicate_groups(table).iter().map(|g| g.len() - 1).sum();
    dups as f64 / table.n_rows() as f64
}

/// Groups of row indices that are exact duplicates of each other
/// (only groups of size ≥ 2 are returned, in first-occurrence order).
pub fn exact_duplicate_groups(table: &Table) -> Vec<Vec<usize>> {
    duplicate_groups(table)
        .into_iter()
        .filter(|g| g.len() >= 2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    fn dup_table() -> Table {
        Table::new(vec![
            Column::from_i64("a", [1, 2, 1, 1]),
            Column::from_str_values("b", ["x", "y", "x", "x"]),
        ])
        .unwrap()
    }

    #[test]
    fn exact_ratio_counts_later_occurrences() {
        // rows 2 and 3 duplicate row 0 → 2/4.
        assert!((exact_duplicate_ratio(&dup_table()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn groups_collect_indices() {
        let groups = exact_duplicate_groups(&dup_table());
        assert_eq!(groups, vec![vec![0, 2, 3]]);
    }

    #[test]
    fn unique_rows_have_zero_ratio() {
        let t = Table::new(vec![Column::from_i64("a", [1, 2, 3])]).unwrap();
        assert_eq!(exact_duplicate_ratio(&t), 0.0);
        assert!(exact_duplicate_groups(&t).is_empty());
    }

    #[test]
    fn null_and_value_are_distinct_rows() {
        let t = Table::new(vec![Column::from_opt_i64("a", [Some(1), None, None])]).unwrap();
        // Row 2 duplicates row 1 (both null) → 1/3.
        assert!((exact_duplicate_ratio(&t) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn null_differs_from_empty_string() {
        let t = Table::new(vec![Column::from_opt_str(
            "s",
            [Some(String::new()), None, Some(String::new())],
        )])
        .unwrap();
        assert!((exact_duplicate_ratio(&t) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(exact_duplicate_groups(&t), vec![vec![0, 2]]);
    }

    #[test]
    fn nan_rows_duplicate_but_signed_zeros_do_not() {
        let t = Table::new(vec![Column::from_f64(
            "x",
            [f64::NAN, f64::from_bits(0x7FF8_0000_0000_0001), 0.0, -0.0],
        )])
        .unwrap();
        // The two NaN payloads are both missing; 0.0 and -0.0 stay
        // distinct, as their texts ("0", "-0") do.
        assert!((exact_duplicate_ratio(&t) - 0.25).abs() < 1e-12);
        assert_eq!(exact_duplicate_groups(&t), vec![vec![0, 1]]);
    }

    #[test]
    fn non_finite_cells_duplicate_nulls() {
        let t = Table::new(vec![
            Column::from_opt_f64(
                "x",
                [
                    None,
                    Some(f64::INFINITY),
                    Some(f64::NAN),
                    Some(f64::NEG_INFINITY),
                    Some(1.0),
                ],
            ),
            Column::from_i64("k", [7, 7, 7, 8, 7]),
        ])
        .unwrap();
        assert_eq!(exact_duplicate_groups(&t), vec![vec![0, 1, 2]]);
    }
}
