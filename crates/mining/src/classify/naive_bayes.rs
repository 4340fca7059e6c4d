//! Naive Bayes: Gaussian likelihoods for numeric attributes, Laplace-
//! smoothed categorical likelihoods for nominal attributes. Missing
//! values are simply skipped in the likelihood product — the textbook
//! reason Naive Bayes degrades gracefully under missingness.
//!
//! Likelihood tables are built in one columnar pass per attribute:
//! per-class sums/counts accumulate down the contiguous column (in row
//! order, so the floating-point results are identical to the old
//! collect-then-sum row-major code), and batch prediction walks each
//! column once instead of gathering rows.

use super::{check_attributes, Classifier};
use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, InstancesView};

#[derive(Debug, Clone)]
enum AttrModel {
    /// Per-class `(mean, variance)`.
    Gaussian(Vec<(f64, f64)>),
    /// Per-class smoothed log-likelihood of each category.
    Categorical(Vec<Vec<f64>>),
}

/// The Naive Bayes classifier.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayes {
    log_priors: Vec<f64>,
    models: Vec<AttrModel>,
    fitted: bool,
}

const MIN_VARIANCE: f64 = 1e-9;

impl NaiveBayes {
    /// Create an untrained Naive Bayes.
    pub fn new() -> Self {
        NaiveBayes::default()
    }

    fn gaussian_log_pdf(x: f64, mean: f64, var: f64) -> f64 {
        let var = var.max(MIN_VARIANCE);
        -0.5 * ((x - mean) * (x - mean) / var + var.ln() + (2.0 * std::f64::consts::PI).ln())
    }

    #[inline]
    fn add_likelihood(model: &AttrModel, v: f64, scores: &mut [f64]) {
        for (c, score) in scores.iter_mut().enumerate() {
            match model {
                AttrModel::Gaussian(params) => {
                    let (mean, var) = params[c];
                    *score += Self::gaussian_log_pdf(v, mean, var);
                }
                AttrModel::Categorical(logps) => {
                    let idx = v as usize;
                    if let Some(lp) = logps[c].get(idx) {
                        *score += lp;
                    }
                }
            }
        }
    }

    #[inline]
    fn argmax(scores: &[f64]) -> usize {
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Classifier for NaiveBayes {
    fn name(&self) -> &'static str {
        "NaiveBayes"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        let labeled = data.labeled_indices();
        if labeled.is_empty() {
            return Err(MiningError::InvalidDataset(
                "NaiveBayes needs labeled rows".into(),
            ));
        }
        let n_classes = data.n_classes();
        if n_classes == 0 {
            return Err(MiningError::InvalidDataset("dataset has no classes".into()));
        }
        let counts = data.class_counts();
        let total: usize = counts.iter().sum();
        self.log_priors = counts
            .iter()
            .map(|&c| ((c as f64 + 1.0) / (total as f64 + n_classes as f64)).ln())
            .collect();
        let labels: Vec<usize> = labeled
            .iter()
            .map(|&i| data.label(i).expect("labeled"))
            .collect();
        self.models = Vec::with_capacity(data.n_attributes());
        for a in 0..data.n_attributes() {
            let col = data.col(a);
            match &data.attribute(a).kind {
                AttrKind::Numeric => {
                    // Two column passes: per-class sum/count for the
                    // means, then per-class squared deviations. Each
                    // class's accumulator sees its values in row order —
                    // the same addition sequence as the old per-class
                    // collect-then-sum, so the bits match.
                    let mut sums = vec![0.0f64; n_classes];
                    let mut ns = vec![0usize; n_classes];
                    for (&i, &c) in labeled.iter().zip(&labels) {
                        if let Some(v) = col.get(i) {
                            sums[c] += v;
                            ns[c] += 1;
                        }
                    }
                    let means: Vec<f64> = sums
                        .iter()
                        .zip(&ns)
                        .map(|(&s, &n)| if n > 0 { s / n as f64 } else { 0.0 })
                        .collect();
                    let mut sq = vec![0.0f64; n_classes];
                    for (&i, &c) in labeled.iter().zip(&labels) {
                        if let Some(v) = col.get(i) {
                            sq[c] += (v - means[c]) * (v - means[c]);
                        }
                    }
                    let params: Vec<(f64, f64)> = (0..n_classes)
                        .map(|c| {
                            if ns[c] == 0 {
                                (0.0, 1.0)
                            } else if ns[c] < 2 {
                                (means[c], MIN_VARIANCE)
                            } else {
                                (means[c], sq[c] / (ns[c] - 1) as f64)
                            }
                        })
                        .collect();
                    self.models.push(AttrModel::Gaussian(params));
                }
                AttrKind::Nominal(dict) => {
                    let k = dict.len().max(1);
                    let mut cat_counts = vec![vec![0usize; k]; n_classes];
                    let mut totals = vec![0usize; n_classes];
                    for (&i, &c) in labeled.iter().zip(&labels) {
                        if let Some(v) = col.get(i) {
                            let idx = v as usize;
                            if idx < k {
                                cat_counts[c][idx] += 1;
                                totals[c] += 1;
                            }
                        }
                    }
                    let logps: Vec<Vec<f64>> = (0..n_classes)
                        .map(|c| {
                            cat_counts[c]
                                .iter()
                                .map(|&n| ((n as f64 + 1.0) / (totals[c] as f64 + k as f64)).ln())
                                .collect()
                        })
                        .collect();
                    self.models.push(AttrModel::Categorical(logps));
                }
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        if !self.fitted {
            return Err(MiningError::NotFitted("NaiveBayes"));
        }
        check_attributes("NaiveBayes", self.models.len(), data)?;
        let n = data.len();
        let k = self.log_priors.len();
        // Row-major score matrix seeded with the priors; one pass per
        // attribute column adds each row's present cells' log-likelihoods
        // in attribute order, missing cells skipped.
        let mut scores = Vec::with_capacity(n * k);
        for _ in 0..n {
            scores.extend_from_slice(&self.log_priors);
        }
        for (a, model) in self.models.iter().enumerate() {
            let col = data.col(a);
            for (i, row_scores) in scores.chunks_mut(k.max(1)).enumerate() {
                if let Some(v) = col.get(i) {
                    Self::add_likelihood(model, v, row_scores);
                }
            }
        }
        Ok(scores.chunks(k.max(1)).map(Self::argmax).collect())
    }

    fn model_size(&self) -> usize {
        self.models
            .iter()
            .map(|m| match m {
                AttrModel::Gaussian(p) => p.len() * 2,
                AttrModel::Categorical(p) => p.iter().map(Vec::len).sum(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::predict_one;
    use crate::instances::{Attribute, Instances};

    fn gaussian_data() -> Instances {
        // Class 0 around x=0, class 1 around x=10.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.2;
            rows.push(vec![Some(jitter)]);
            labels.push(Some(0));
            rows.push(vec![Some(10.0 + jitter)]);
            labels.push(Some(1));
        }
        Instances::from_rows(
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
            rows,
            labels,
            vec!["lo".into(), "hi".into()],
        )
    }

    #[test]
    fn separates_gaussian_classes() {
        let d = gaussian_data();
        let mut m = NaiveBayes::new();
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.5)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(9.5)]).unwrap(), 1);
    }

    #[test]
    fn missing_value_falls_back_to_prior() {
        let mut d = gaussian_data();
        // Make class 0 twice as common.
        for l in d.labels.iter_mut().skip(40) {
            *l = Some(0);
        }
        let mut m = NaiveBayes::new();
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[None]).unwrap(), 0);
    }

    #[test]
    fn nominal_likelihoods() {
        let d = Instances::from_rows(
            vec![Attribute {
                name: "color".into(),
                kind: AttrKind::Nominal(vec!["r".into(), "g".into(), "b".into()]),
            }],
            vec![
                vec![Some(0.0)],
                vec![Some(0.0)],
                vec![Some(1.0)],
                vec![Some(1.0)],
                vec![Some(2.0)],
            ],
            vec![Some(0), Some(0), Some(1), Some(1), Some(0)],
            vec!["a".into(), "b".into()],
        );
        let mut m = NaiveBayes::new();
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.0)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(1.0)]).unwrap(), 1);
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let d = gaussian_data();
        let mut m = NaiveBayes::new();
        m.fit(&d).unwrap();
        let batch = m.predict(&d).unwrap();
        for (i, &p) in batch.iter().enumerate() {
            let row: Vec<Option<f64>> = (0..d.n_attributes()).map(|a| d.get(i, a)).collect();
            assert_eq!(p, predict_one(&m, &d, &row).unwrap());
        }
    }

    #[test]
    fn unfitted_errors() {
        assert!(matches!(
            NaiveBayes::new().predict(&gaussian_data()),
            Err(MiningError::NotFitted(_))
        ));
    }

    #[test]
    fn model_size_counts_parameters() {
        let mut m = NaiveBayes::new();
        m.fit(&gaussian_data()).unwrap();
        assert_eq!(m.model_size(), 4); // 1 attr × 2 classes × (mean,var)
    }
}
