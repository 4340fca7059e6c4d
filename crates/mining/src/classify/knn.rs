//! k-nearest neighbors with min-max normalized heterogeneous distance
//! (HEOM-style): numeric dimensions use range-normalized absolute
//! difference, nominal dimensions 0/1 mismatch, and any missing value
//! contributes the maximum distance of 1 — the standard Weka convention.
//!
//! kNN is the suite's canary for the *dimensionality* defect: irrelevant
//! attributes dilute the distance and degrade it faster than the other
//! algorithms.
//!
//! The kernel is columnar: squared distances accumulate one training
//! column at a time over contiguous value slices, neighbor selection is
//! `select_nth_unstable_by` with a `(distance, index)` tie-break instead
//! of a full sort, and the distance/vote buffers live in a reusable
//! scratch so a prediction allocates nothing in steady state.

use super::{check_attributes, Classifier};
use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, InstancesView};
use std::cell::RefCell;
use std::cmp::Ordering;

/// One training attribute gathered into contiguous columnar storage.
#[derive(Debug, Clone)]
struct TrainColumn {
    /// Cell values; missing slots hold `f64::NAN`.
    values: Vec<f64>,
    numeric: bool,
    /// Min-max of the training column (numeric only).
    range: Option<(f64, f64)>,
}

#[derive(Debug, Clone)]
struct Model {
    columns: Vec<TrainColumn>,
    labels: Vec<usize>,
    n_classes: usize,
}

#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Squared-distance accumulator, one slot per training row.
    acc: Vec<f64>,
    /// `(distance, train index)` pairs fed to the selection.
    dists: Vec<(f64, usize)>,
    votes: Vec<f64>,
}

/// The kNN classifier (stores the training data in columnar form).
#[derive(Debug, Clone)]
pub struct Knn {
    /// Neighborhood size.
    pub k: usize,
    model: Option<Model>,
    scratch: RefCell<Scratch>,
}

#[inline]
fn neighbor_order(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl Knn {
    /// Create an untrained kNN.
    pub fn new(k: usize) -> Self {
        Knn {
            k: k.max(1),
            model: None,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Accumulate one query dimension into the per-row squared-distance
    /// accumulator: the column-at-a-time form of the HEOM distance.
    fn accumulate_dim(col: &TrainColumn, x: Option<f64>, acc: &mut [f64]) {
        let Some(x) = x else {
            // Missing query value: maximal dissimilarity to every row.
            for a in acc.iter_mut() {
                *a += 1.0;
            }
            return;
        };
        match (col.numeric, col.range) {
            (true, Some((lo, hi))) if hi > lo => {
                let span = hi - lo;
                for (a, &v) in acc.iter_mut().zip(&col.values) {
                    if v.is_nan() {
                        *a += 1.0;
                    } else {
                        let d = ((x - v).abs() / span).min(1.0);
                        *a += d * d;
                    }
                }
            }
            // Degenerate numeric range or nominal: 0/1 match distance.
            _ => {
                for (a, &v) in acc.iter_mut().zip(&col.values) {
                    if x != v {
                        *a += 1.0;
                    }
                }
            }
        }
    }

    /// Predict one query row; `query` yields the row's value for a
    /// training attribute index.
    fn predict_query(&self, model: &Model, query: impl Fn(usize) -> Option<f64>) -> usize {
        let n = model.labels.len();
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { acc, dists, votes } = &mut *scratch;
        acc.clear();
        acc.resize(n, 0.0);
        for (a, col) in model.columns.iter().enumerate() {
            Self::accumulate_dim(col, query(a), acc);
        }
        dists.clear();
        dists.extend(acc.iter().enumerate().map(|(i, s)| (s.sqrt(), i)));
        // Partition the k nearest to the front, then order just those —
        // O(n + k log k) against the old full O(n log n) sort. The
        // (distance, index) key is a total order, so the first k pairs
        // come out exactly as the full sort produced them.
        let k = self.k.min(n);
        if k < n {
            dists.select_nth_unstable_by(k - 1, neighbor_order);
        }
        dists[..k].sort_unstable_by(neighbor_order);
        votes.clear();
        votes.resize(model.n_classes.max(1), 0.0);
        for &(d, i) in &dists[..k] {
            // Inverse-distance weighting with a floor for exact matches.
            votes[model.labels[i]] += 1.0 / (d + 1e-6);
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Classifier for Knn {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        let labeled = data.labeled_indices();
        if labeled.is_empty() {
            return Err(MiningError::InvalidDataset("kNN needs labeled rows".into()));
        }
        let mut columns = Vec::with_capacity(data.n_attributes());
        for a in 0..data.n_attributes() {
            let numeric = data.attribute(a).kind == AttrKind::Numeric;
            let col = data.col(a);
            let mut values = Vec::with_capacity(labeled.len());
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut any = false;
            for &i in &labeled {
                let v = col.get(i).unwrap_or(f64::NAN);
                values.push(v);
                if numeric && !v.is_nan() {
                    lo = lo.min(v);
                    hi = hi.max(v);
                    any = true;
                }
            }
            columns.push(TrainColumn {
                values,
                numeric,
                range: (numeric && any).then_some((lo, hi)),
            });
        }
        let labels = labeled
            .iter()
            .map(|&i| data.label(i).expect("labeled"))
            .collect();
        self.model = Some(Model {
            columns,
            labels,
            n_classes: data.n_classes(),
        });
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        let model = self.model.as_ref().ok_or(MiningError::NotFitted("kNN"))?;
        check_attributes("kNN", model.columns.len(), data)?;
        let cols: Vec<_> = (0..data.n_attributes()).map(|a| data.col(a)).collect();
        Ok((0..data.len())
            .map(|i| self.predict_query(model, |a| cols[a].get(i)))
            .collect())
    }

    fn model_size(&self) -> usize {
        self.model
            .as_ref()
            .map(|m| m.labels.len() * m.columns.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::predict_one;
    use crate::instances::{Attribute, Instances};

    fn clusters() -> Instances {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.1;
            rows.push(vec![Some(j), Some(j)]);
            labels.push(Some(0));
            rows.push(vec![Some(8.0 + j), Some(8.0 - j)]);
            labels.push(Some(1));
        }
        Instances::from_rows(
            vec![
                Attribute {
                    name: "x".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "y".into(),
                    kind: AttrKind::Numeric,
                },
            ],
            rows,
            labels,
            vec!["near".into(), "far".into()],
        )
    }

    #[test]
    fn classifies_clusters() {
        let d = clusters();
        let mut m = Knn::new(3);
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.2), Some(0.3)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(7.9), Some(8.1)]).unwrap(), 1);
    }

    #[test]
    fn k_one_memorizes_training_points() {
        let d = clusters();
        let mut m = Knn::new(1);
        m.fit(&d).unwrap();
        let preds = m.predict(&d).unwrap();
        for (p, l) in preds.iter().zip(&d.labels) {
            assert_eq!(Some(*p), *l);
        }
    }

    #[test]
    fn k_larger_than_training_set_votes_over_everyone() {
        let d = clusters();
        let mut m = Knn::new(1000);
        m.fit(&d).unwrap();
        // Degenerates gracefully: all rows vote, inverse-distance
        // weighting still favors the near cluster.
        assert_eq!(predict_one(&m, &d, &[Some(0.0), Some(0.0)]).unwrap(), 0);
    }

    #[test]
    fn normalization_prevents_scale_domination() {
        // y is on a huge scale but irrelevant; x separates the classes.
        let d = Instances::from_rows(
            vec![
                Attribute {
                    name: "x".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "y".into(),
                    kind: AttrKind::Numeric,
                },
            ],
            vec![
                vec![Some(0.0), Some(100_000.0)],
                vec![Some(0.1), Some(-100_000.0)],
                vec![Some(1.0), Some(50_000.0)],
                vec![Some(0.9), Some(-50_000.0)],
            ],
            vec![Some(0), Some(0), Some(1), Some(1)],
            vec!["a".into(), "b".into()],
        );
        let mut m = Knn::new(1);
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.05), Some(0.0)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(0.95), Some(0.0)]).unwrap(), 1);
    }

    #[test]
    fn missing_dimension_counts_as_max_distance() {
        let d = clusters();
        let mut m = Knn::new(1);
        m.fit(&d).unwrap();
        // With x missing, y still identifies the cluster.
        assert_eq!(predict_one(&m, &d, &[None, Some(0.1)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[None, Some(7.9)]).unwrap(), 1);
    }

    #[test]
    fn nominal_mismatch_distance() {
        let d = Instances::from_rows(
            vec![Attribute {
                name: "c".into(),
                kind: AttrKind::Nominal(vec!["p".into(), "q".into()]),
            }],
            vec![vec![Some(0.0)], vec![Some(1.0)]],
            vec![Some(0), Some(1)],
            vec!["a".into(), "b".into()],
        );
        let mut m = Knn::new(1);
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.0)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(1.0)]).unwrap(), 1);
    }

    #[test]
    fn unfitted_errors() {
        assert!(matches!(
            Knn::new(3).predict(&clusters()),
            Err(MiningError::NotFitted(_))
        ));
    }
}
