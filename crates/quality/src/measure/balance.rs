//! Class balance measurement for a designated target column.
//!
//! The classes are the categories of the target column
//! ([`Column::categories`](openbi_table::Column::categories)), counted by
//! code; only each class's text is rendered, where `stats::value_counts`
//! renders every cell. Entropy is summed in sorted-key order — the same
//! deterministic order as the fixed `stats::entropy` — and the normalized
//! value is clamped to 1.0 (uniform distributions can overshoot by an
//! ulp).

use openbi_table::Table;

/// Class-distribution summary of a target column.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceReport {
    /// Distinct class count.
    pub class_count: usize,
    /// Normalized entropy in `[0,1]` (1 = uniform, 0 = single class).
    pub normalized_entropy: f64,
    /// Rarest class frequency / most common class frequency.
    pub minority_ratio: f64,
    /// `(class label, count)` pairs, most common first.
    pub class_counts: Vec<(String, usize)>,
}

/// Rows per class of `target`, with each class's text.
fn class_counts(table: &Table, target: &str) -> openbi_table::Result<Vec<(String, usize)>> {
    let cats = table.column(target)?.categories();
    let mut counts = vec![0usize; cats.len()];
    for row in 0..table.n_rows() {
        if let Some(c) = cats.code(row) {
            counts[c] += 1;
        }
    }
    Ok(cats.texts().into_iter().zip(counts).collect())
}

/// Measure class balance of `target`. Errors if the column is missing.
pub fn balance_report(table: &Table, target: &str) -> openbi_table::Result<BalanceReport> {
    let mut counts = class_counts(table, target)?;
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let class_count = counts.len();
    let normalized_entropy = if class_count <= 1 {
        if class_count == 1 {
            0.0
        } else {
            1.0
        }
    } else {
        // Same summation as `stats::entropy`: per-class terms added in
        // lexicographic key order for bit-determinism.
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        let mut by_key: Vec<(&str, usize)> = counts.iter().map(|(k, c)| (k.as_str(), *c)).collect();
        by_key.sort_by(|a, b| a.0.cmp(b.0));
        let entropy: f64 = by_key
            .iter()
            .map(|&(_, c)| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        (entropy / (class_count as f64).log2()).min(1.0)
    };
    let minority_ratio = match (counts.last(), counts.first()) {
        (Some((_, min)), Some((_, max))) if *max > 0 => *min as f64 / *max as f64,
        _ => 1.0,
    };
    Ok(BalanceReport {
        class_count,
        normalized_entropy,
        minority_ratio,
        class_counts: counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    #[test]
    fn balanced_binary() {
        let t = Table::new(vec![Column::from_str_values("y", ["a", "b", "a", "b"])]).unwrap();
        let r = balance_report(&t, "y").unwrap();
        assert_eq!(r.class_count, 2);
        assert!((r.normalized_entropy - 1.0).abs() < 1e-12);
        assert_eq!(r.minority_ratio, 1.0);
    }

    #[test]
    fn imbalanced_binary() {
        let labels: Vec<&str> = std::iter::repeat_n("a", 9).chain(["b"]).collect();
        let t = Table::new(vec![Column::from_str_values("y", labels)]).unwrap();
        let r = balance_report(&t, "y").unwrap();
        assert!((r.minority_ratio - 1.0 / 9.0).abs() < 1e-12);
        assert!(r.normalized_entropy < 0.6);
        assert_eq!(r.class_counts[0], ("a".to_string(), 9));
    }

    #[test]
    fn single_class_entropy_zero() {
        let t = Table::new(vec![Column::from_str_values("y", ["a", "a"])]).unwrap();
        let r = balance_report(&t, "y").unwrap();
        assert_eq!(r.normalized_entropy, 0.0);
        assert_eq!(r.class_count, 1);
    }

    #[test]
    fn missing_column_errors() {
        let t = Table::new(vec![Column::from_i64("x", [1])]).unwrap();
        assert!(balance_report(&t, "y").is_err());
    }

    #[test]
    fn uniform_entropy_never_exceeds_one() {
        // Three equiprobable classes: H/log2(3) can overshoot 1 by an ulp
        // without the clamp.
        let t = Table::new(vec![Column::from_str_values(
            "y",
            ["a", "b", "c", "a", "b", "c"],
        )])
        .unwrap();
        let r = balance_report(&t, "y").unwrap();
        assert!(r.normalized_entropy <= 1.0);
        assert!((r.normalized_entropy - 1.0).abs() < 1e-12);
    }
}
