//! Duplicate *elimination*: record linkage with blocking, similarity
//! matching, transitive clustering (union–find) and survivorship
//! merging — the cleaning step the paper's related work opens with
//! (Ananthakrishna et al. \[1\], Elmagarmid et al. \[5\]).
//!
//! The measurement side lives in [`crate::measure::duplicates`]; this
//! module actually repairs the data.
//!
//! Numeric and boolean cells are read through `Column::numbers`, so a
//! NaN or ±∞ cell is missing: it sets no column range, is skipped by the
//! row distance like a null, enters no survivor mean and blocks with the
//! nulls.

use openbi_table::{stats, ColumnData, Result, Table, TableError, Value};
use std::collections::HashMap;

/// Configuration for record linkage.
#[derive(Debug, Clone)]
pub struct LinkageConfig {
    /// Column used for blocking: only rows sharing a block key are
    /// compared (`None` = single block; quadratic).
    pub blocking_column: Option<String>,
    /// Normalized row distance at or below which two rows match.
    pub threshold: f64,
    /// Columns ignored during similarity (identifiers etc.).
    pub ignore: Vec<String>,
}

impl Default for LinkageConfig {
    fn default() -> Self {
        LinkageConfig {
            blocking_column: None,
            threshold: 0.1,
            ignore: vec![],
        }
    }
}

/// Disjoint-set forest over row indices.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Normalized string similarity: 1 for equal (after trim/lowercase),
/// otherwise a bigram Dice coefficient — robust to the case/whitespace
/// manglings the inconsistency injector produces.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let a = a.trim().to_lowercase();
    let b = b.trim().to_lowercase();
    if a == b {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let bigrams = |s: &str| -> Vec<(char, char)> {
        let chars: Vec<char> = s.chars().collect();
        chars.windows(2).map(|w| (w[0], w[1])).collect()
    };
    let ba = bigrams(&a);
    let bb = bigrams(&b);
    if ba.is_empty() || bb.is_empty() {
        return if a == b { 1.0 } else { 0.0 };
    }
    let mut counts: HashMap<(char, char), usize> = HashMap::new();
    for g in &ba {
        *counts.entry(*g).or_insert(0) += 1;
    }
    let mut overlap = 0usize;
    for g in &bb {
        if let Some(c) = counts.get_mut(g) {
            if *c > 0 {
                *c -= 1;
                overlap += 1;
            }
        }
    }
    2.0 * overlap as f64 / (ba.len() + bb.len()) as f64
}

/// One compared column's cells: strings, or numbers (NaN where missing)
/// with the range of a numeric column's present cells.
enum Compared<'a> {
    Str(&'a [Option<String>]),
    Numbers {
        values: Vec<f64>,
        range: Option<(f64, f64)>,
    },
}

/// Normalized distance between two rows over the compared columns:
/// numeric = range-normalized difference, strings = 1 − similarity,
/// booleans = inequality.
/// Columns where either side is missing are skipped (a missing field is
/// no evidence against a match — standard record-linkage practice);
/// rows sharing no observed column are maximally distant.
fn row_distance(compared: &[Compared<'_>], a: usize, b: usize) -> f64 {
    let mut total = 0.0;
    let mut shared = 0usize;
    for column in compared {
        let d = match column {
            Compared::Str(v) => match (&v[a], &v[b]) {
                (Some(x), Some(y)) => 1.0 - string_similarity(x, y),
                _ => continue,
            },
            Compared::Numbers { values, range } => {
                let (x, y) = (values[a], values[b]);
                if x.is_nan() || y.is_nan() {
                    continue;
                }
                match *range {
                    Some((lo, hi)) if hi > lo => ((x - y).abs() / (hi - lo)).min(1.0),
                    _ => {
                        if x == y {
                            0.0
                        } else {
                            1.0
                        }
                    }
                }
            }
        };
        total += d;
        shared += 1;
    }
    if shared == 0 {
        1.0
    } else {
        total / shared as f64
    }
}

/// Find duplicate clusters: groups of row indices (size ≥ 2) whose
/// members transitively match under the config.
pub fn find_duplicate_clusters(table: &Table, config: &LinkageConfig) -> Result<Vec<Vec<usize>>> {
    if !(0.0..=1.0).contains(&config.threshold) {
        return Err(TableError::InvalidArgument(
            "linkage threshold must be in [0,1]".to_string(),
        ));
    }
    let n = table.n_rows();
    // Columns compared: everything except ignored and the blocking key.
    let compared: Vec<Compared<'_>> = table
        .columns()
        .iter()
        .filter(|c| {
            !config.ignore.iter().any(|i| i == c.name())
                && config.blocking_column.as_deref() != Some(c.name())
        })
        .map(|c| match c.data() {
            ColumnData::Str(v) => Compared::Str(v),
            _ => Compared::Numbers {
                values: c.numbers(),
                range: c
                    .dtype()
                    .is_numeric()
                    .then(|| stats::summarize(c).ok().map(|s| (s.min, s.max)))
                    .flatten(),
            },
        })
        .collect();
    // Blocking.
    let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
    match &config.blocking_column {
        Some(bc) => {
            let col = table.column(bc)?;
            let numbers = col.dtype().is_numeric().then(|| col.numbers());
            let missing = |i: usize| numbers.as_ref().is_some_and(|x| x[i].is_nan());
            for i in 0..n {
                let key = match col.get(i)? {
                    v if v.is_null() || missing(i) => "\u{0}null".to_string(),
                    Value::Str(s) => s.trim().to_lowercase(),
                    v => v.to_string(),
                };
                blocks.entry(key).or_default().push(i);
            }
        }
        None => {
            blocks.insert(String::new(), (0..n).collect());
        }
    }
    let mut uf = UnionFind::new(n);
    for rows in blocks.values() {
        for i in 1..rows.len() {
            for j in 0..i {
                if row_distance(&compared, rows[i], rows[j]) <= config.threshold {
                    uf.union(rows[i], rows[j]);
                }
            }
        }
    }
    let mut clusters: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        clusters.entry(uf.find(i)).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = clusters.into_values().filter(|c| c.len() >= 2).collect();
    out.sort_by_key(|c| c[0]);
    Ok(out)
}

/// Survivorship: merge each duplicate cluster into one record — numeric
/// columns take the mean of the present cells (null if none), strings
/// and booleans take the most common (first on tie) non-null value — and return the deduplicated table (survivors replace
/// the cluster's first row; other members are dropped; row order kept).
pub fn merge_duplicates(table: &Table, config: &LinkageConfig) -> Result<(Table, usize)> {
    let clusters = find_duplicate_clusters(table, config)?;
    let mut out = table.clone();
    let mut drop = vec![false; table.n_rows()];
    let numbers: Vec<Option<Vec<f64>>> = table
        .columns()
        .iter()
        .map(|c| c.dtype().is_numeric().then(|| c.numbers()))
        .collect();
    for cluster in &clusters {
        let survivor = cluster[0];
        for &member in &cluster[1..] {
            drop[member] = true;
        }
        for (col, numbers) in table.columns().iter().zip(&numbers) {
            let merged: Value = if let Some(numbers) = numbers {
                let vals: Vec<f64> = cluster
                    .iter()
                    .map(|&i| numbers[i])
                    .filter(|x| !x.is_nan())
                    .collect();
                if vals.is_empty() {
                    Value::Null
                } else {
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    match col.dtype() {
                        openbi_table::DataType::Int => Value::Int(mean.round() as i64),
                        _ => Value::Float(mean),
                    }
                }
            } else {
                let mut counts: Vec<(Value, usize)> = Vec::new();
                for &i in cluster {
                    let v = col.get(i).expect("in-bounds");
                    if v.is_null() {
                        continue;
                    }
                    if let Some(e) = counts.iter_mut().find(|(x, _)| *x == v) {
                        e.1 += 1;
                    } else {
                        counts.push((v, 1));
                    }
                }
                counts
                    .into_iter()
                    .max_by_key(|(_, c)| *c)
                    .map(|(v, _)| v)
                    .unwrap_or(Value::Null)
            };
            out.set(col.name().to_string().as_str(), survivor, merged)?;
        }
    }
    let removed = drop.iter().filter(|d| **d).count();
    Ok((out.filter_by_index(|i| !drop[i]), removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    /// Rows 0/1 are near-duplicates (mangled city, close pm10); row 3
    /// duplicates row 2 exactly; row 4 is unique.
    fn table() -> Table {
        Table::new(vec![
            Column::from_str_values("city", ["Alicante", " ALICANTE", "Elche", "Elche", "Alcoy"]),
            Column::from_f64("pm10", [21.5, 21.6, 33.0, 33.0, 12.0]),
            Column::from_opt_i64("sensors", [Some(4), None, Some(2), Some(2), Some(1)]),
        ])
        .unwrap()
    }

    #[test]
    fn string_similarity_handles_manglings() {
        assert_eq!(string_similarity("Alicante", " ALICANTE"), 1.0);
        assert!(string_similarity("Alicante", "Alicant") > 0.8);
        assert!(string_similarity("Alicante", "Elche") < 0.3);
        assert_eq!(string_similarity("", "x"), 0.0);
        assert_eq!(string_similarity("a", "a"), 1.0);
    }

    #[test]
    fn clusters_found_transitively() {
        let clusters = find_duplicate_clusters(&table(), &LinkageConfig::default()).unwrap();
        assert_eq!(clusters.len(), 2);
        assert!(clusters.contains(&vec![0, 1]));
        assert!(clusters.contains(&vec![2, 3]));
    }

    #[test]
    fn blocking_restricts_comparisons() {
        // Block on city: the mangled ALICANTE lands in the alicante
        // block (keys are normalized), so clusters are unchanged…
        let config = LinkageConfig {
            blocking_column: Some("city".into()),
            threshold: 0.2,
            ignore: vec![],
        };
        let clusters = find_duplicate_clusters(&table(), &config).unwrap();
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn merge_survivorship_numeric_mean_string_mode() {
        let (merged, removed) = merge_duplicates(&table(), &LinkageConfig::default()).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(merged.n_rows(), 3);
        // Survivor of {0,1}: pm10 mean, sensors from the non-null member.
        assert!((merged.get("pm10", 0).unwrap().as_f64().unwrap() - 21.55).abs() < 1e-9);
        assert_eq!(merged.get("sensors", 0).unwrap(), Value::Int(4));
        // The unique row survives untouched.
        assert_eq!(merged.get("city", 2).unwrap(), Value::Str("Alcoy".into()));
    }

    #[test]
    fn strict_threshold_finds_only_exact_pairs() {
        let config = LinkageConfig {
            threshold: 0.0,
            ..Default::default()
        };
        let clusters = find_duplicate_clusters(&table(), &config).unwrap();
        // With exact matching, only Elche/Elche (pm10 equal) cluster —
        // the mangled Alicante pair differs slightly in pm10.
        assert_eq!(clusters, vec![vec![2, 3]]);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let config = LinkageConfig {
            threshold: 1.5,
            ..Default::default()
        };
        assert!(find_duplicate_clusters(&table(), &config).is_err());
    }

    #[test]
    fn no_duplicates_is_a_no_op() {
        let t = Table::new(vec![Column::from_f64("x", [1.0, 100.0, 200.0])]).unwrap();
        let (merged, removed) = merge_duplicates(&t, &LinkageConfig::default()).unwrap();
        assert_eq!(removed, 0);
        assert_eq!(merged, t);
    }

    #[test]
    fn ignored_columns_do_not_block_matches() {
        // Same record, different surrogate ids.
        let t = Table::new(vec![
            Column::from_i64("id", [1, 2]),
            Column::from_str_values("name", ["Ana", "Ana"]),
        ])
        .unwrap();
        let miss = find_duplicate_clusters(&t, &LinkageConfig::default()).unwrap();
        assert!(miss.is_empty(), "ids differ, rows treated distinct");
        let config = LinkageConfig {
            ignore: vec!["id".into()],
            ..Default::default()
        };
        let hit = find_duplicate_clusters(&t, &config).unwrap();
        assert_eq!(hit, vec![vec![0, 1]]);
    }
}
