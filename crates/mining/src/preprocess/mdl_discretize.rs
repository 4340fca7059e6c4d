//! Supervised discretization: recursive entropy-based splitting with the
//! Fayyad–Irani MDL stopping criterion — the standard companion of
//! C4.5-style learners and the principled alternative to the
//! equal-width/equal-frequency bins in [`super::discretize`].

use crate::error::{MiningError, Result};
use openbi_table::{Column, Table};

fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

fn class_counts(labels: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &l in labels {
        counts[l] += 1;
    }
    counts
}

fn distinct_classes(counts: &[usize]) -> usize {
    counts.iter().filter(|&&c| c > 0).count()
}

/// Recursively find MDL-accepted cut points on `(value, class)` pairs
/// sorted by value. Appends accepted cuts to `cuts`.
fn split(pairs: &[(f64, usize)], n_classes: usize, cuts: &mut Vec<f64>, depth: usize) {
    let n = pairs.len();
    if n < 4 || depth > 16 {
        return;
    }
    let labels: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    let total_counts = class_counts(&labels, n_classes);
    let parent_entropy = entropy(&total_counts);
    if parent_entropy == 0.0 {
        return;
    }
    // Best boundary by information gain (only between class changes at
    // distinct values — Fayyad's theorem says optimal cuts lie there).
    let mut best: Option<(usize, f64, f64)> = None; // (idx, cut, gain)
    let mut left_counts = vec![0usize; n_classes];
    for i in 0..n - 1 {
        left_counts[pairs[i].1] += 1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue;
        }
        let right_counts: Vec<usize> = total_counts
            .iter()
            .zip(&left_counts)
            .map(|(t, l)| t - l)
            .collect();
        let nl = (i + 1) as f64;
        let nr = (n - i - 1) as f64;
        let cond =
            (nl / n as f64) * entropy(&left_counts) + (nr / n as f64) * entropy(&right_counts);
        let gain = parent_entropy - cond;
        if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 0.0) {
            best = Some((i, (pairs[i].0 + pairs[i + 1].0) / 2.0, gain));
        }
    }
    let Some((idx, cut, gain)) = best else { return };
    // MDL criterion (Fayyad & Irani 1993):
    // gain > [log2(n−1) + log2(3^k − 2) − (k·H − k1·H1 − k2·H2)] / n
    let left: Vec<(f64, usize)> = pairs[..=idx].to_vec();
    let right: Vec<(f64, usize)> = pairs[idx + 1..].to_vec();
    let lc = class_counts(&left.iter().map(|p| p.1).collect::<Vec<_>>(), n_classes);
    let rc = class_counts(&right.iter().map(|p| p.1).collect::<Vec<_>>(), n_classes);
    let k = distinct_classes(&total_counts) as f64;
    let k1 = distinct_classes(&lc) as f64;
    let k2 = distinct_classes(&rc) as f64;
    let delta =
        (3f64.powf(k) - 2.0).log2() - (k * parent_entropy - k1 * entropy(&lc) - k2 * entropy(&rc));
    let threshold = (((n - 1) as f64).log2() + delta) / n as f64;
    if gain <= threshold {
        return;
    }
    cuts.push(cut);
    split(&left, n_classes, cuts, depth + 1);
    split(&right, n_classes, cuts, depth + 1);
}

/// Compute the MDL-accepted cut points of one numeric column against a
/// class column. Returns cuts in ascending order (possibly empty: the
/// attribute carries no MDL-justified signal). Cells are read through
/// `Column::numbers`, so a NaN or ±∞ cell is missing, as in
/// [`Instances`](crate::Instances): its row is skipped.
pub fn mdl_cut_points(table: &Table, column: &str, target: &str) -> Result<Vec<f64>> {
    let col = table.column(column)?;
    if !col.dtype().is_numeric() {
        return Err(MiningError::InvalidParameter(format!(
            "column {column} is not numeric"
        )));
    }
    let cats = table.column(target)?.categories();
    // Class ids in first-seen order over the rows with a present value,
    // so the entropy terms keep their summation order.
    let mut ids: Vec<Option<usize>> = vec![None; cats.len()];
    let mut n_classes = 0;
    let mut pairs: Vec<(f64, usize)> = Vec::new();
    for (i, v) in col.numbers().into_iter().enumerate() {
        let Some(code) = cats.code(i).filter(|_| !v.is_nan()) else {
            continue;
        };
        let id = *ids[code].get_or_insert_with(|| {
            n_classes += 1;
            n_classes - 1
        });
        pairs.push((v, id));
    }
    if n_classes < 2 {
        return Err(MiningError::InvalidDataset(
            "MDL discretization needs >= 2 classes".into(),
        ));
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cuts = Vec::new();
    split(&pairs, n_classes, &mut cuts, 0);
    cuts.sort_by(f64::total_cmp);
    Ok(cuts)
}

/// Replace a numeric column with MDL-supervised bin labels
/// `"{name}=b{i}"`. Columns with no accepted cut become a single bucket
/// `"{name}=b1"` (documented behavior: the attribute is uninformative).
/// A null, NaN or ±∞ cell gets a null label.
pub fn mdl_discretize_column(table: &Table, column: &str, target: &str) -> Result<Table> {
    let cuts = mdl_cut_points(table, column, target)?;
    let col = table.column(column)?;
    let labels: Vec<Option<String>> = col
        .numbers()
        .into_iter()
        .map(|x| {
            (!x.is_nan()).then(|| {
                let bin = cuts.iter().filter(|&&c| x >= c).count();
                format!("{column}=b{}", bin + 1)
            })
        })
        .collect();
    let mut out = table.clone();
    out.replace_column(Column::from_opt_str(column.to_string(), labels))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::{Rng, Value};

    /// x < 10 → "a", x in [10,20) → "b", x >= 20 → "a" again.
    fn three_region_table() -> Table {
        let xs: Vec<f64> = (0..90).map(|i| i as f64 / 3.0).collect();
        let labels: Vec<&str> = xs
            .iter()
            .map(|&x| if (10.0..20.0).contains(&x) { "b" } else { "a" })
            .collect();
        Table::new(vec![
            Column::from_f64("x", xs),
            Column::from_str_values("class", labels),
        ])
        .unwrap()
    }

    #[test]
    fn finds_both_true_boundaries() {
        let cuts = mdl_cut_points(&three_region_table(), "x", "class").unwrap();
        assert_eq!(cuts.len(), 2, "cuts {cuts:?}");
        assert!((cuts[0] - 10.0).abs() < 0.5, "first cut {}", cuts[0]);
        assert!((cuts[1] - 20.0).abs() < 0.5, "second cut {}", cuts[1]);
    }

    #[test]
    fn uninformative_attribute_gets_no_cuts() {
        // Class alternates independently of x: no MDL-justified cut.
        let xs: Vec<f64> = (0..80).map(f64::from).collect();
        let labels: Vec<&str> = (0..80)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let t = Table::new(vec![
            Column::from_f64("x", xs),
            Column::from_str_values("class", labels),
        ])
        .unwrap();
        // Alternating with x means every value change is a class change;
        // gain per cut is tiny and MDL must reject it.
        let cuts = mdl_cut_points(&t, "x", "class").unwrap();
        assert!(cuts.len() <= 1, "spurious cuts {cuts:?}");
    }

    #[test]
    fn discretized_column_has_bin_labels() {
        let out = mdl_discretize_column(&three_region_table(), "x", "class").unwrap();
        assert_eq!(out.get("x", 0).unwrap(), Value::Str("x=b1".into()));
        assert_eq!(out.get("x", 45).unwrap(), Value::Str("x=b2".into()));
        assert_eq!(out.get("x", 89).unwrap(), Value::Str("x=b3".into()));
    }

    #[test]
    fn nulls_and_single_class_handled() {
        let t = Table::new(vec![
            Column::from_opt_f64("x", [Some(1.0), None, Some(3.0)]),
            Column::from_str_values("class", ["a", "a", "a"]),
        ])
        .unwrap();
        assert!(mdl_cut_points(&t, "x", "class").is_err());
    }

    /// 60 rows: class `a` on x = 0…29, class `b` on 30 `b_cell` cells.
    fn one_class_with_values(b_cell: Option<f64>) -> Table {
        Table::new(vec![
            Column::from_opt_f64(
                "x",
                (0..60).map(|i| if i < 30 { Some(f64::from(i)) } else { b_cell }),
            ),
            Column::from_str_values("class", (0..60).map(|i| if i < 30 { "a" } else { "b" })),
        ])
        .unwrap()
    }

    #[test]
    fn non_finite_cells_are_missing() {
        // With the `b` cells null, only class `a` has values.
        assert!(mdl_cut_points(&one_class_with_values(None), "x", "class").is_err());
        for b_cell in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = one_class_with_values(Some(b_cell));
            assert!(mdl_cut_points(&t, "x", "class").is_err(), "{b_cell}");
            assert!(mdl_discretize_column(&t, "x", "class").is_err(), "{b_cell}");
        }
    }

    #[test]
    fn non_finite_cells_cut_and_label_like_nulls() {
        let base = three_region_table();
        let xs: Vec<Option<f64>> = base
            .column("x")
            .unwrap()
            .numbers()
            .into_iter()
            .map(Some)
            .collect();
        let rows = Rng::seed_from_u64(2012).sample_indices(xs.len(), 18);
        let (mut non_finite, mut null) = (xs.clone(), xs);
        for (n, &r) in rows.iter().enumerate() {
            non_finite[r] = Some([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][n % 3]);
            null[r] = None;
        }
        let with_x = |x: Vec<Option<f64>>| {
            let mut t = base.clone();
            t.replace_column(Column::from_opt_f64("x", x)).unwrap();
            t
        };
        let (non_finite, null) = (with_x(non_finite), with_x(null));
        let cuts = mdl_cut_points(&non_finite, "x", "class").unwrap();
        assert_eq!(cuts.len(), 2, "cuts {cuts:?}");
        assert_eq!(cuts, mdl_cut_points(&null, "x", "class").unwrap());
        let labelled = mdl_discretize_column(&non_finite, "x", "class").unwrap();
        assert_eq!(
            labelled,
            mdl_discretize_column(&null, "x", "class").unwrap()
        );
        for r in 0..labelled.n_rows() {
            let is_null = labelled.get("x", r).unwrap() == Value::Null;
            assert_eq!(is_null, rows.contains(&r), "row {r}");
        }
    }

    #[test]
    fn non_numeric_rejected() {
        let t = Table::new(vec![
            Column::from_str_values("s", ["p", "q"]),
            Column::from_str_values("class", ["a", "b"]),
        ])
        .unwrap();
        assert!(mdl_cut_points(&t, "s", "class").is_err());
    }

    #[test]
    fn mdl_beats_equal_width_on_skewed_boundaries() {
        // Boundary at x = 2 inside a long tail: equal-width with 3 bins
        // puts the cut far from 2; MDL nails it.
        let xs: Vec<f64> = (0..120).map(|i| (i as f64 / 4.0).powi(2)).collect();
        let labels: Vec<&str> = xs
            .iter()
            .map(|&x| if x < 2.0 { "lo" } else { "hi" })
            .collect();
        let t = Table::new(vec![
            Column::from_f64("x", xs),
            Column::from_str_values("class", labels),
        ])
        .unwrap();
        let cuts = mdl_cut_points(&t, "x", "class").unwrap();
        assert_eq!(cuts.len(), 1);
        assert!((cuts[0] - 2.0).abs() < 0.5, "cut at {}", cuts[0]);
    }
}
