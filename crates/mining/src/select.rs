//! Attribute (feature) selection — the other half of the KDD process's
//! "algorithms and attributes selection phase" (paper §2). Two
//! methods:
//!
//! * [`information_gain_ranking`] — filter: rank attributes by mutual
//!   information with the class (numeric attributes binned).
//! * [`cfs_select`] — correlation-based subset selection (CFS-style):
//!   greedily grow a subset maximizing class-relevance while penalizing
//!   inter-attribute redundancy — exactly the defect the paper's §3.1
//!   redundancy example warns about.

use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, Instances, InstancesView};

const GAIN_BINS: usize = 8;

/// Discretize one attribute column into bucket ids for MI estimation
/// (missing = its own bucket). One pass down the contiguous column.
fn buckets(data: &InstancesView<'_>, attr: usize) -> (Vec<usize>, usize) {
    let col = data.col(attr);
    match &data.attribute(attr).kind {
        AttrKind::Nominal(dict) => {
            let k = dict.len().max(1);
            let ids = (0..data.len())
                .map(|i| col.get(i).map(|v| (v as usize).min(k - 1)).unwrap_or(k))
                .collect();
            (ids, k + 1)
        }
        AttrKind::Numeric => {
            let vals: Vec<f64> = (0..data.len()).filter_map(|i| col.get(i)).collect();
            if vals.is_empty() {
                return (vec![GAIN_BINS; data.len()], GAIN_BINS + 1);
            }
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let width = ((hi - lo) / GAIN_BINS as f64).max(1e-12);
            let ids = (0..data.len())
                .map(|i| {
                    col.get(i)
                        .map(|v| (((v - lo) / width) as usize).min(GAIN_BINS - 1))
                        .unwrap_or(GAIN_BINS)
                })
                .collect();
            (ids, GAIN_BINS + 1)
        }
    }
}

fn entropy_of_counts(counts: &[usize]) -> f64 {
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

/// Information gain of one attribute with respect to the class, over
/// labeled rows.
pub fn information_gain(data: &Instances, attr: usize) -> Result<f64> {
    if attr >= data.n_attributes() {
        return Err(MiningError::InvalidParameter(format!(
            "attribute index {attr} out of range"
        )));
    }
    let labeled = data.labeled_indices();
    if labeled.is_empty() || data.n_classes() < 2 {
        return Err(MiningError::InvalidDataset(
            "information gain needs labeled rows with >= 2 classes".into(),
        ));
    }
    let (bucket_ids, n_buckets) = buckets(&data.view(), attr);
    let n_classes = data.n_classes();
    let mut class_counts = vec![0usize; n_classes];
    let mut joint = vec![vec![0usize; n_classes]; n_buckets];
    let mut bucket_totals = vec![0usize; n_buckets];
    for &i in &labeled {
        let c = data.labels[i].expect("labeled");
        class_counts[c] += 1;
        joint[bucket_ids[i]][c] += 1;
        bucket_totals[bucket_ids[i]] += 1;
    }
    let h_class = entropy_of_counts(&class_counts);
    let n = labeled.len() as f64;
    let h_cond: f64 = joint
        .iter()
        .zip(&bucket_totals)
        .map(|(counts, &total)| (total as f64 / n) * entropy_of_counts(counts))
        .sum();
    Ok((h_class - h_cond).max(0.0))
}

/// Rank all attributes by information gain, descending:
/// `(attribute index, name, gain)`.
pub fn information_gain_ranking(data: &Instances) -> Result<Vec<(usize, String, f64)>> {
    let mut out: Vec<(usize, String, f64)> = (0..data.n_attributes())
        .map(|a| {
            let gain = information_gain(data, a)?;
            Ok((a, data.attributes[a].name.clone(), gain))
        })
        .collect::<Result<Vec<_>>>()?;
    out.sort_by(|x, y| y.2.total_cmp(&x.2).then(x.0.cmp(&y.0)));
    Ok(out)
}

/// Symmetrical uncertainty between two bucketed variables — the
/// normalized MI used by CFS.
fn symmetrical_uncertainty(ids_a: &[usize], ka: usize, ids_b: &[usize], kb: usize) -> f64 {
    let n = ids_a.len();
    if n == 0 {
        return 0.0;
    }
    let mut ca = vec![0usize; ka];
    let mut cb = vec![0usize; kb];
    let mut joint = vec![vec![0usize; kb]; ka];
    for i in 0..n {
        ca[ids_a[i]] += 1;
        cb[ids_b[i]] += 1;
        joint[ids_a[i]][ids_b[i]] += 1;
    }
    let ha = entropy_of_counts(&ca);
    let hb = entropy_of_counts(&cb);
    if ha + hb == 0.0 {
        return 0.0;
    }
    let nf = n as f64;
    let h_cond: f64 = joint
        .iter()
        .enumerate()
        .map(|(a, row)| (ca[a] as f64 / nf) * entropy_of_counts(row))
        .sum();
    let mi = (hb - h_cond).max(0.0);
    2.0 * mi / (ha + hb)
}

/// CFS-style greedy subset selection: maximize
/// `merit = k·r̄_cf / sqrt(k + k(k−1)·r̄_ff)` where `r̄_cf` is mean
/// attribute–class SU and `r̄_ff` mean attribute–attribute SU. Returns
/// selected attribute indices in selection order.
pub fn cfs_select(data: &Instances, max_features: usize) -> Result<Vec<usize>> {
    let labeled = data.labeled_indices();
    if labeled.is_empty() || data.n_classes() < 2 {
        return Err(MiningError::InvalidDataset(
            "CFS needs labeled rows with >= 2 classes".into(),
        ));
    }
    // Row-masked view onto the labeled rows; bucketing reads straight
    // through the mask, so nothing is copied.
    let view = data.view().select_rows_owned(labeled);
    let n_attrs = view.n_attributes();
    let class_ids: Vec<usize> = (0..view.len())
        .map(|i| view.label(i).expect("labeled"))
        .collect();
    let n_classes = view.n_classes();
    let attr_buckets: Vec<(Vec<usize>, usize)> = (0..n_attrs).map(|a| buckets(&view, a)).collect();
    let class_su: Vec<f64> = attr_buckets
        .iter()
        .map(|(ids, k)| symmetrical_uncertainty(ids, *k, &class_ids, n_classes))
        .collect();
    let pair_su = |a: usize, b: usize| -> f64 {
        symmetrical_uncertainty(
            &attr_buckets[a].0,
            attr_buckets[a].1,
            &attr_buckets[b].0,
            attr_buckets[b].1,
        )
    };
    let merit = |subset: &[usize]| -> f64 {
        let k = subset.len() as f64;
        if k == 0.0 {
            return 0.0;
        }
        let rcf = subset.iter().map(|&a| class_su[a]).sum::<f64>() / k;
        let mut rff = 0.0;
        let mut pairs = 0.0;
        for (i, &a) in subset.iter().enumerate() {
            for &b in &subset[i + 1..] {
                rff += pair_su(a, b);
                pairs += 1.0;
            }
        }
        let rff = if pairs > 0.0 { rff / pairs } else { 0.0 };
        k * rcf / (k + k * (k - 1.0) * rff).sqrt()
    };
    let mut selected: Vec<usize> = Vec::new();
    let cap = max_features.min(n_attrs).max(1);
    loop {
        let current = merit(&selected);
        let best = (0..n_attrs)
            .filter(|a| !selected.contains(a))
            .map(|a| {
                let mut candidate = selected.clone();
                candidate.push(a);
                (a, merit(&candidate))
            })
            .max_by(|x, y| x.1.total_cmp(&y.1));
        match best {
            Some((a, m)) if m > current + 1e-12 && selected.len() < cap => selected.push(a),
            _ => break,
        }
    }
    if selected.is_empty() {
        // Degenerate data: fall back to the single most relevant attribute.
        let best = class_su
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        selected.push(best);
    }
    Ok(selected)
}

/// Project a dataset onto a subset of attributes (selection order
/// kept), materializing a new columnar dataset.
pub fn project(data: &Instances, attrs: &[usize]) -> Instances {
    data.view().select_attrs(attrs).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::Attribute;

    /// signal predicts the class; noise is irrelevant; echo duplicates
    /// signal (redundant).
    fn data() -> Instances {
        data_with(|_| {})
    }

    /// Noise, signal and a near copy of the signal, the rows edited by
    /// `edit`.
    fn data_with(edit: impl FnOnce(&mut [Vec<Option<f64>>])) -> Instances {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let signal = if i % 2 == 0 { 0.0 } else { 10.0 };
            let noise = ((i * 37) % 17) as f64;
            let echo = signal + 0.01 * (i % 3) as f64;
            rows.push(vec![Some(noise), Some(signal), Some(echo)]);
            labels.push(Some(i % 2));
        }
        edit(&mut rows);
        Instances::from_rows(
            vec![
                Attribute {
                    name: "noise".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "signal".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "echo".into(),
                    kind: AttrKind::Numeric,
                },
            ],
            rows,
            labels,
            vec!["even".into(), "odd".into()],
        )
    }

    #[test]
    fn gain_ranks_signal_over_noise() {
        let ranking = information_gain_ranking(&data()).unwrap();
        assert_eq!(ranking[0].1, "signal");
        let gain_signal = ranking[0].2;
        let gain_noise = ranking.iter().find(|r| r.1 == "noise").unwrap().2;
        assert!(gain_signal > 0.9, "signal gain {gain_signal}");
        assert!(gain_noise < 0.2, "noise gain {gain_noise}");
    }

    #[test]
    fn gain_of_perfect_attribute_equals_class_entropy() {
        let d = data();
        let g = information_gain(&d, 1).unwrap();
        assert!((g - 1.0).abs() < 1e-9, "balanced binary entropy is 1 bit");
    }

    #[test]
    fn cfs_keeps_signal_drops_redundant_echo() {
        let selected = cfs_select(&data(), 3).unwrap();
        // signal and echo are interchangeable carriers of the same
        // information; CFS must take exactly one of them, never both,
        // and never the noise attribute.
        let informative = selected.iter().filter(|a| **a == 1 || **a == 2).count();
        assert_eq!(informative, 1, "selected {selected:?}");
        assert!(!selected.contains(&0), "noise must not be selected");
    }

    #[test]
    fn project_keeps_rows_and_labels() {
        let d = data();
        let p = project(&d, &[2, 0]);
        assert_eq!(p.n_attributes(), 2);
        assert_eq!(p.attributes[0].name, "echo");
        assert_eq!(p.len(), d.len());
        assert_eq!(p.labels, d.labels);
        assert_eq!(p.get(0, 1), d.get(0, 0));
    }

    #[test]
    fn unlabeled_data_rejected() {
        let mut d = data();
        d.labels = vec![None; d.len()];
        assert!(information_gain(&d, 0).is_err());
        assert!(cfs_select(&d, 2).is_err());
    }

    #[test]
    fn out_of_range_attribute_rejected() {
        assert!(information_gain(&data(), 99).is_err());
    }

    #[test]
    fn missing_values_get_their_own_bucket() {
        let d = data_with(|rows| {
            for row in &mut rows[..10] {
                row[1] = None;
            }
        });
        // Still works; an informative attribute (echo now carries the
        // cleaner copy) still ranks first.
        let ranking = information_gain_ranking(&d).unwrap();
        assert!(ranking[0].1 == "signal" || ranking[0].1 == "echo");
        assert_ne!(ranking[0].1, "noise");
    }
}
