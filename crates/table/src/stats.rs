//! Descriptive statistics over columns.
//!
//! Every statistic reads a column's cells through [`Column::numbers`], so
//! it is computed over the present cells only: a null, a NaN or ±∞ cell
//! and a string cell are missing.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::value::Value;
use std::collections::HashMap;

/// Summary statistics of a numeric column (present cells only).
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSummary {
    /// Number of present cells.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 when count < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (linear interpolation).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// The present cells of `column`, in row order.
fn present(column: &Column) -> Vec<f64> {
    let mut v = column.numbers();
    v.retain(|x| !x.is_nan());
    v
}

/// Linear-interpolation quantile of a **sorted** slice, `q` in `[0,1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Mean of the present cells; `None` if the column has none.
pub fn mean(column: &Column) -> Option<f64> {
    let v = present(column);
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Sample variance (n-1) of the present cells.
pub fn variance(column: &Column) -> Option<f64> {
    let v = present(column);
    if v.len() < 2 {
        return if v.len() == 1 { Some(0.0) } else { None };
    }
    let m = v.iter().sum::<f64>() / v.len() as f64;
    Some(v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64)
}

/// Sample standard deviation of the present cells.
pub fn std_dev(column: &Column) -> Option<f64> {
    variance(column).map(f64::sqrt)
}

/// Full numeric summary; error if the column has no present cell.
pub fn summarize(column: &Column) -> Result<NumericSummary> {
    let mut v = present(column);
    if v.is_empty() {
        return Err(TableError::InvalidArgument(format!(
            "column {} has no numeric data",
            column.name()
        )));
    }
    v.sort_by(f64::total_cmp);
    let count = v.len();
    let mean = v.iter().sum::<f64>() / count as f64;
    let std = if count < 2 {
        0.0
    } else {
        (v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (count - 1) as f64).sqrt()
    };
    Ok(NumericSummary {
        count,
        mean,
        std,
        min: v[0],
        max: v[count - 1],
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    })
}

/// Pearson correlation between two numeric columns, over the rows where
/// both cells are present (so one NaN or ±∞ cell cannot poison the whole
/// coefficient). `None` when fewer than two usable pairs, zero variance,
/// or co-moments that overflow to ∞ (finite cells near ±1e200), whose
/// ∞/∞ quotient is NaN.
pub fn pearson(a: &Column, b: &Column) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = a
        .numbers()
        .into_iter()
        .zip(b.numbers())
        .filter(|(x, y)| !x.is_nan() && !y.is_nan())
        .collect();
    let n = pairs.len();
    if n < 2 {
        return None;
    }
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n as f64;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    let r = sxy / (sxx * syy).sqrt();
    // Clamp: rounding can push perfectly collinear data past ±1.
    (!r.is_nan()).then(|| r.clamp(-1.0, 1.0))
}

/// Frequency of each distinct non-null value (rendered as strings).
pub fn value_counts(column: &Column) -> HashMap<String, usize> {
    let mut counts = HashMap::new();
    for v in column.iter() {
        if let Value::Null = v {
            continue;
        }
        *counts.entry(v.to_string()).or_insert(0) += 1;
    }
    counts
}

/// Shannon entropy (bits) of the distribution of distinct non-null values.
///
/// The per-class terms are summed in lexicographic key order so the result
/// is a deterministic function of the distribution — summing in `HashMap`
/// iteration order would make the low bits depend on hasher state.
pub fn entropy(column: &Column) -> f64 {
    let counts = value_counts(column);
    let total: usize = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    let mut items: Vec<(String, usize)> = counts.into_iter().collect();
    items.sort_by(|a, b| a.0.cmp(&b.0));
    items
        .iter()
        .map(|&(_, c)| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_skip_nulls() {
        let c = Column::from_opt_f64("x", [Some(1.0), None, Some(3.0)]);
        assert_eq!(mean(&c), Some(2.0));
        let s = std_dev(&c).unwrap();
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn summary_quartiles() {
        let c = Column::from_f64("x", [1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = summarize(&c).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn summary_of_string_column_errors() {
        let c = Column::from_str_values("s", ["a"]);
        assert!(summarize(&c).is_err());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let a = Column::from_f64("a", [1.0, 2.0, 3.0]);
        let b = Column::from_f64("b", [2.0, 4.0, 6.0]);
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = Column::from_f64("c", [3.0, 2.0, 1.0]);
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_column_is_none() {
        let a = Column::from_f64("a", [1.0, 1.0, 1.0]);
        let b = Column::from_f64("b", [1.0, 2.0, 3.0]);
        assert_eq!(pearson(&a, &b), None);
    }

    #[test]
    fn pearson_skips_incomplete_pairs() {
        let a = Column::from_opt_f64("a", [Some(1.0), Some(2.0), None, Some(3.0)]);
        let b = Column::from_opt_f64("b", [Some(2.0), None, Some(9.0), Some(6.0)]);
        // Complete pairs: (1,2),(3,6) — perfectly correlated.
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_skips_non_finite_pairs() {
        let a = Column::from_f64("a", [1.0, 2.0, f64::NAN, 3.0]);
        let b = Column::from_f64("b", [2.0, 4.0, 100.0, 6.0]);
        // NaN row is dropped like a null; remaining pairs are collinear.
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = Column::from_f64("c", [2.0, f64::INFINITY, 5.0, 6.0]);
        assert!(pearson(&a, &c).is_some());
    }

    #[test]
    fn entropy_uniform_binary_is_one_bit() {
        let c = Column::from_str_values("s", ["a", "b", "a", "b"]);
        assert!((entropy(&c) - 1.0).abs() < 1e-12);
        let pure = Column::from_str_values("s", ["a", "a"]);
        assert_eq!(entropy(&pure), 0.0);
    }

    #[test]
    fn value_counts_skips_null() {
        let c = Column::from_opt_str("s", [Some("a".to_string()), None, Some("a".to_string())]);
        let counts = value_counts(&c);
        assert_eq!(counts.get("a"), Some(&2));
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0];
        assert_eq!(quantile_sorted(&v, 0.5), 15.0);
        assert_eq!(quantile_sorted(&v, 0.0), 10.0);
        assert_eq!(quantile_sorted(&v, 1.0), 20.0);
    }
}
