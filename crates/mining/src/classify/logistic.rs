//! One-vs-rest logistic regression trained by full-batch gradient
//! descent. Numeric attributes are z-scored; nominal attributes are
//! one-hot encoded; missing values are mean/zero-imputed at encoding
//! time (the model's documented missing-value strategy).
//!
//! Training and prediction encode their view once into a `Design`, in
//! the layout each reader wants. The scores `z = x·w + b` come from a
//! column-major numeric block, each weight applied to all rows at once,
//! while every row still adds its terms in column order; every epoch and
//! [`Classifier::predict_view`] compute them with one function, `scores`.
//! Each nominal attribute keeps one code per row, the weight index of
//! its hot column, so the exact `0·w` terms of the cold columns are never
//! formed. The gradient reads a row-major block of the numeric cells plus
//! a constant 1 for the bias, eight columns per pass with their sums in
//! registers, and adds each row's error to the weight of its hot columns
//! only. Every weight and every score gets the sum the dense design
//! matrix gave it, term by term; only the sign of an all-zero score can
//! differ, and `sigmoid(+0) == sigmoid(-0)`.

use super::{check_attributes, Classifier};
use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, InstancesView};

/// The logistic-regression classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Per-class weight vectors (bias last), after fit.
    weights: Vec<Vec<f64>>,
    encoder: Option<Encoder>,
}

/// Feature encoder: attribute layout, z-score parameters and one-hot
/// offsets derived from the training data.
#[derive(Debug, Clone)]
struct Encoder {
    /// Per attribute: numeric (mean, std) or nominal cardinality.
    specs: Vec<EncSpec>,
    /// Total encoded width (excluding bias).
    width: usize,
}

#[derive(Debug, Clone)]
enum EncSpec {
    Numeric { mean: f64, std: f64 },
    Nominal { cardinality: usize },
}

impl Encoder {
    fn from_view(data: &InstancesView<'_>) -> Encoder {
        let means = data.numeric_means();
        let mut specs = Vec::with_capacity(data.n_attributes());
        let mut width = 0;
        for (a, mean) in means.iter().enumerate() {
            match &data.attribute(a).kind {
                AttrKind::Numeric => {
                    let mean = mean.unwrap_or(0.0);
                    let col = data.col(a);
                    // One column pass for count and squared deviations,
                    // in row order (same additions as the old collect-
                    // then-sum).
                    let mut n = 0usize;
                    let mut sq = 0.0f64;
                    for i in 0..col.len() {
                        if let Some(x) = col.get(i) {
                            sq += (x - mean) * (x - mean);
                            n += 1;
                        }
                    }
                    let std = if n < 2 {
                        1.0
                    } else {
                        (sq / (n - 1) as f64).sqrt().max(1e-9)
                    };
                    specs.push(EncSpec::Numeric { mean, std });
                    width += 1;
                }
                AttrKind::Nominal(dict) => {
                    specs.push(EncSpec::Nominal {
                        cardinality: dict.len(),
                    });
                    width += dict.len();
                }
            }
        }
        Encoder { specs, width }
    }
}

/// The encoded rows of a view, laid out for the epoch loop and for
/// prediction.
struct Design {
    rows: usize,
    /// One block per attribute, in encoding order.
    blocks: Vec<Block>,
    /// The numeric cells row-major, each row followed by a 1 for the
    /// bias: `numeric_rows[r * stride + k]`, `stride = numeric_weights.len()`.
    numeric_rows: Vec<f64>,
    /// The weight index of each `numeric_rows` column (the bias last).
    numeric_weights: Vec<usize>,
}

enum Block {
    /// One encoded numeric column over all rows, and its weight index.
    Numeric { weight: usize, values: Vec<f64> },
    /// Per row, the weight index of the attribute's hot column (`None`
    /// when the value is missing or outside the dictionary).
    OneHot { hot: Vec<Option<usize>> },
}

impl Design {
    /// Encode `data`: a numeric cell is z-scored, a missing one encodes
    /// to 0 (its mean); a nominal cell is hot in its code's column, and a
    /// missing or unknown code has no hot column.
    fn new(encoder: &Encoder, data: &InstancesView<'_>) -> Design {
        let rows = data.len();
        let mut blocks = Vec::with_capacity(encoder.specs.len());
        let mut offset = 0usize;
        for (a, spec) in encoder.specs.iter().enumerate() {
            let col = data.col(a);
            match spec {
                EncSpec::Numeric { mean, std } => {
                    let values = (0..rows)
                        .map(|r| (col.get(r).unwrap_or(*mean) - mean) / std)
                        .collect();
                    blocks.push(Block::Numeric {
                        weight: offset,
                        values,
                    });
                    offset += 1;
                }
                EncSpec::Nominal { cardinality } => {
                    let hot = (0..rows)
                        .map(|r| {
                            col.get(r)
                                .map(|x| x as usize)
                                .filter(|i| i < cardinality)
                                .map(|i| offset + i)
                        })
                        .collect();
                    blocks.push(Block::OneHot { hot });
                    offset += *cardinality;
                }
            }
        }
        let numeric: Vec<(usize, &[f64])> = blocks
            .iter()
            .filter_map(|b| match b {
                Block::Numeric { weight, values } => Some((*weight, values.as_slice())),
                Block::OneHot { .. } => None,
            })
            .collect();
        let mut numeric_rows = Vec::with_capacity(rows * (numeric.len() + 1));
        for r in 0..rows {
            numeric_rows.extend(numeric.iter().map(|(_, values)| values[r]));
            numeric_rows.push(1.0);
        }
        let numeric_weights = numeric
            .iter()
            .map(|(weight, _)| *weight)
            .chain([encoder.width])
            .collect();
        Design {
            rows,
            blocks,
            numeric_rows,
            numeric_weights,
        }
    }
}

/// The score `z = x·w` of every design row, bias excluded, into `z`.
fn scores(design: &Design, w: &[f64], z: &mut [f64]) {
    // `-0.0` is the neutral element `f64: Sum` starts from.
    z.fill(-0.0);
    for block in &design.blocks {
        match block {
            Block::Numeric { weight, values } => {
                let wi = w[*weight];
                for (zr, xi) in z.iter_mut().zip(values) {
                    *zr += xi * wi;
                }
            }
            Block::OneHot { hot } => {
                for (zr, h) in z.iter_mut().zip(hot) {
                    if let Some(j) = h {
                        *zr += w[*j];
                    }
                }
            }
        }
    }
}

/// Columns whose gradient sums one pass over the rows keeps in registers.
const GRADIENT_GROUP: usize = 8;

/// The gradient of the row-major numeric block: `Σ_r err[r]·x[r][k]` for
/// every column `k` of the `grad.len()`-wide rows into `grad[k]`. The
/// columns go [`GRADIENT_GROUP`] at a time (one shorter group for the
/// rest), each group's sums held in a local array over one pass; every
/// sum starts at `+0` and adds the rows in order.
fn numeric_gradient(rows: &[f64], err: &[f64], grad: &mut [f64]) {
    let stride = grad.len();
    for (c0, g) in (0..stride)
        .step_by(GRADIENT_GROUP)
        .zip(grad.chunks_mut(GRADIENT_GROUP))
    {
        // A group's width is a constant, so its sums stay in registers.
        match g.len() {
            1 => gradient_group::<1>(rows, stride, c0, err, g),
            2 => gradient_group::<2>(rows, stride, c0, err, g),
            3 => gradient_group::<3>(rows, stride, c0, err, g),
            4 => gradient_group::<4>(rows, stride, c0, err, g),
            5 => gradient_group::<5>(rows, stride, c0, err, g),
            6 => gradient_group::<6>(rows, stride, c0, err, g),
            7 => gradient_group::<7>(rows, stride, c0, err, g),
            _ => gradient_group::<GRADIENT_GROUP>(rows, stride, c0, err, g),
        }
    }
}

/// The gradient sums of columns `c0..c0 + N` of the `stride`-wide rows,
/// into `g`.
fn gradient_group<const N: usize>(
    rows: &[f64],
    stride: usize,
    c0: usize,
    err: &[f64],
    g: &mut [f64],
) {
    let mut acc = [0.0f64; N];
    for (x, e) in rows.chunks_exact(stride).zip(err) {
        let x: &[f64; N] = x[c0..c0 + N]
            .try_into()
            .expect("a group lies inside the row");
        for (a, xi) in acc.iter_mut().zip(x) {
            *a += e * xi;
        }
    }
    g.copy_from_slice(&acc);
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Create an untrained model.
    pub fn new(epochs: usize, learning_rate: f64) -> Self {
        LogisticRegression {
            epochs: epochs.max(1),
            learning_rate,
            l2: 1e-4,
            weights: vec![],
            encoder: None,
        }
    }

    /// Train one one-vs-rest weight vector (bias last) against the 0/1
    /// targets `y`.
    fn train_class(&self, design: &Design, y: &[f64], width: usize) -> Vec<f64> {
        let n = design.rows as f64;
        let stride = design.numeric_weights.len();
        let mut w = vec![0.0f64; width + 1];
        let mut z = vec![0.0f64; design.rows];
        let mut err = vec![0.0f64; design.rows];
        let mut grad = vec![0.0f64; width + 1];
        let mut numeric_grad = vec![0.0f64; stride];
        for _ in 0..self.epochs {
            scores(design, &w, &mut z);
            for ((e, zr), yr) in err.iter_mut().zip(&z).zip(y) {
                *e = sigmoid(zr + w[width]) - yr;
            }
            numeric_gradient(&design.numeric_rows, &err, &mut numeric_grad);
            grad.fill(0.0);
            for (&j, g) in design.numeric_weights.iter().zip(&numeric_grad) {
                grad[j] = *g;
            }
            for block in &design.blocks {
                if let Block::OneHot { hot } = block {
                    for (h, e) in hot.iter().zip(&err) {
                        if let Some(j) = h {
                            grad[*j] += e;
                        }
                    }
                }
            }
            for (wi, gi) in w.iter_mut().zip(grad.iter()) {
                *wi -= self.learning_rate * (gi / n + self.l2 * *wi);
            }
        }
        w
    }
}

impl Classifier for LogisticRegression {
    fn name(&self) -> &'static str {
        "LogisticRegression"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        let labeled = data.labeled_indices();
        if labeled.is_empty() {
            return Err(MiningError::InvalidDataset(
                "LogisticRegression needs labeled rows".into(),
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(MiningError::InvalidParameter(
                "learning rate must be positive".into(),
            ));
        }
        let train = data.select_rows(&labeled);
        let encoder = Encoder::from_view(&train);
        let design = Design::new(&encoder, &train);
        let labels: Vec<Option<usize>> = (0..train.len()).map(|i| train.label(i)).collect();
        let n_classes = train.n_classes().max(2);
        self.weights = (0..n_classes)
            .map(|c| {
                let y: Vec<f64> = labels
                    .iter()
                    .map(|l| if *l == Some(c) { 1.0 } else { 0.0 })
                    .collect();
                self.train_class(&design, &y, encoder.width)
            })
            .collect();
        self.encoder = Some(encoder);
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        let enc = self
            .encoder
            .as_ref()
            .ok_or(MiningError::NotFitted("LogisticRegression"))?;
        check_attributes("LogisticRegression", enc.specs.len(), data)?;
        let design = Design::new(enc, data);
        let k = self.weights.len();
        // Row-major: each row's one-vs-rest sigmoids, in class order.
        let mut probs = vec![0.0f64; design.rows * k];
        let mut z = vec![0.0f64; design.rows];
        for (c, w) in self.weights.iter().enumerate() {
            scores(&design, w, &mut z);
            for (p, zr) in probs.iter_mut().skip(c).step_by(k).zip(&z) {
                *p = sigmoid(zr + w[enc.width]);
            }
        }
        Ok(probs
            .chunks_mut(k)
            .map(|p| {
                let total: f64 = p.iter().sum();
                if total > 0.0 {
                    for x in p.iter_mut() {
                        *x /= total;
                    }
                }
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect())
    }

    fn model_size(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::predict_one;
    use crate::instances::{Attribute, Instances};

    fn linearly_separable() -> Instances {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let j = (i % 10) as f64 * 0.1;
            rows.push(vec![Some(j), Some(1.0 - j)]);
            labels.push(Some(0));
            rows.push(vec![Some(3.0 + j), Some(4.0 - j)]);
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
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn learns_linear_boundary() {
        let mut m = LogisticRegression::new(300, 0.5);
        let d = linearly_separable();
        m.fit(&d).unwrap();
        let preds = m.predict(&d).unwrap();
        let acc = preds
            .iter()
            .zip(&d.labels)
            .filter(|(p, l)| Some(**p) == **l)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let j = (i % 10) as f64 * 0.05;
            rows.push(vec![Some(j)]);
            labels.push(Some(0));
            rows.push(vec![Some(5.0 + j)]);
            labels.push(Some(1));
            rows.push(vec![Some(10.0 + j)]);
            labels.push(Some(2));
        }
        let d = Instances::from_rows(
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
            rows,
            labels,
            vec!["lo".into(), "mid".into(), "hi".into()],
        );
        let mut m = LogisticRegression::new(400, 0.5);
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.1)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(5.1)]).unwrap(), 1);
        assert_eq!(predict_one(&m, &d, &[Some(10.2)]).unwrap(), 2);
    }

    #[test]
    fn nominal_one_hot() {
        let d = Instances::from_rows(
            vec![Attribute {
                name: "c".into(),
                kind: AttrKind::Nominal(vec!["p".into(), "q".into()]),
            }],
            (0..20).map(|i| vec![Some((i % 2) as f64)]).collect(),
            (0..20).map(|i| Some(i % 2)).collect(),
            vec!["a".into(), "b".into()],
        );
        let mut m = LogisticRegression::new(300, 0.5);
        m.fit(&d).unwrap();
        assert_eq!(predict_one(&m, &d, &[Some(0.0)]).unwrap(), 0);
        assert_eq!(predict_one(&m, &d, &[Some(1.0)]).unwrap(), 1);
    }

    #[test]
    fn missing_numeric_mean_imputed() {
        let d = linearly_separable();
        let mut m = LogisticRegression::new(100, 0.5);
        m.fit(&d).unwrap();
        // Must not panic; prediction with all-missing is prior-like.
        let p = predict_one(&m, &d, &[None, None]).unwrap();
        assert!(p < 2);
    }

    #[test]
    fn invalid_learning_rate_rejected() {
        let mut m = LogisticRegression::new(10, 0.0);
        assert!(m.fit(&linearly_separable()).is_err());
    }

    #[test]
    fn unfitted_errors() {
        assert!(matches!(
            LogisticRegression::new(10, 0.1).predict(&linearly_separable()),
            Err(MiningError::NotFitted(_))
        ));
    }
}
