//! Classification algorithms.
//!
//! All classifiers implement [`Classifier`] and tolerate missing feature
//! values — a hard requirement here, since the quality experiments train
//! on deliberately degraded data. Each predicts through one kernel,
//! [`Classifier::predict_view`]. [`AlgorithmSpec`] is the serializable
//! recipe used by the experiment runner and the knowledge base.

pub mod decision_tree;
pub mod knn;
pub mod logistic;
pub mod naive_bayes;
pub mod one_r;
pub mod random_forest;
pub mod zero_r;

pub use decision_tree::DecisionTree;
pub use knn::Knn;
pub use logistic::LogisticRegression;
pub use naive_bayes::NaiveBayes;
pub use one_r::OneR;
pub use random_forest::RandomForest;
pub use zero_r::ZeroR;

use crate::error::{MiningError, Result};
use crate::instances::{Instances, InstancesView};

/// A trainable classifier over [`Instances`].
///
/// `fit_view` and `predict_view` are each classifier's one training and
/// one prediction kernel: they read borrowed [`InstancesView`]s (the
/// zero-copy cross-validation path), column by column. The owned `fit` /
/// `predict` are thin bridges over a whole-dataset view.
pub trait Classifier {
    /// Short algorithm name (e.g. `"NaiveBayes"`).
    fn name(&self) -> &'static str;

    /// Train on the labeled rows of a (possibly row/column-masked) view.
    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()>;

    /// Train on the labeled rows of `data`.
    fn fit(&mut self, data: &Instances) -> Result<()> {
        self.fit_view(&data.view())
    }

    /// Predict the class index of every row of a view whose attributes
    /// are those of the fitted view, in the same order. A view with
    /// another attribute count is `Err(MiningError::InvalidDataset)`.
    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>>;

    /// Predict every row of a dataset.
    fn predict(&self, data: &Instances) -> Result<Vec<usize>> {
        self.predict_view(&data.view())
    }

    /// A size proxy for the fitted model (nodes, stored rows, weights…);
    /// used by the redundancy experiment to show model bloat.
    fn model_size(&self) -> usize {
        1
    }
}

/// `Err` unless `data` has the `fitted` attribute count: a fitted model
/// reads each attribute by its position in the view it was fitted on.
pub(crate) fn check_attributes(model: &str, fitted: usize, data: &InstancesView<'_>) -> Result<()> {
    if data.n_attributes() == fitted {
        Ok(())
    } else {
        Err(MiningError::InvalidDataset(format!(
            "{model} was fitted on {fitted} attributes, not {}",
            data.n_attributes()
        )))
    }
}

/// A serializable recipe for building a classifier — what the DQ4DM
/// knowledge base stores and the advisor recommends.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// Majority-class baseline.
    ZeroR,
    /// Single-attribute rule baseline (Holte's 1R).
    OneR,
    /// Naive Bayes (Gaussian numeric, Laplace-smoothed nominal).
    NaiveBayes,
    /// C4.5-style decision tree.
    DecisionTree {
        /// Maximum tree depth.
        max_depth: usize,
        /// Minimum rows per leaf.
        min_leaf: usize,
    },
    /// k-nearest neighbors.
    Knn {
        /// Neighborhood size.
        k: usize,
    },
    /// One-vs-rest logistic regression trained by gradient descent.
    Logistic {
        /// Training epochs.
        epochs: usize,
        /// Learning rate.
        learning_rate: f64,
    },
    /// Bagged random forest.
    RandomForest {
        /// Number of trees.
        trees: usize,
        /// Maximum tree depth.
        max_depth: usize,
        /// RNG seed for bagging / feature subsampling.
        seed: u64,
    },
}

impl AlgorithmSpec {
    /// Stable display name (parameters omitted).
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::ZeroR => "ZeroR",
            AlgorithmSpec::OneR => "OneR",
            AlgorithmSpec::NaiveBayes => "NaiveBayes",
            AlgorithmSpec::DecisionTree { .. } => "DecisionTree",
            AlgorithmSpec::Knn { .. } => "kNN",
            AlgorithmSpec::Logistic { .. } => "LogisticRegression",
            AlgorithmSpec::RandomForest { .. } => "RandomForest",
        }
    }

    /// Instantiate an untrained classifier.
    pub fn build(&self) -> Box<dyn Classifier> {
        match self {
            AlgorithmSpec::ZeroR => Box::new(ZeroR::new()),
            AlgorithmSpec::OneR => Box::new(OneR::new()),
            AlgorithmSpec::NaiveBayes => Box::new(NaiveBayes::new()),
            AlgorithmSpec::DecisionTree {
                max_depth,
                min_leaf,
            } => Box::new(DecisionTree::new(*max_depth, *min_leaf)),
            AlgorithmSpec::Knn { k } => Box::new(Knn::new(*k)),
            AlgorithmSpec::Logistic {
                epochs,
                learning_rate,
            } => Box::new(LogisticRegression::new(*epochs, *learning_rate)),
            AlgorithmSpec::RandomForest {
                trees,
                max_depth,
                seed,
            } => Box::new(RandomForest::new(*trees, *max_depth, *seed)),
        }
    }

    /// The default algorithm suite of the experiments: the two baselines
    /// plus the five "real" classifiers with sensible defaults.
    pub fn standard_suite() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::ZeroR,
            AlgorithmSpec::OneR,
            AlgorithmSpec::NaiveBayes,
            AlgorithmSpec::DecisionTree {
                max_depth: 12,
                min_leaf: 2,
            },
            AlgorithmSpec::Knn { k: 5 },
            AlgorithmSpec::Logistic {
                epochs: 200,
                learning_rate: 0.1,
            },
            AlgorithmSpec::RandomForest {
                trees: 20,
                max_depth: 10,
                seed: 17,
            },
        ]
    }
}

impl std::fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgorithmSpec::DecisionTree {
                max_depth,
                min_leaf,
            } => write!(f, "DecisionTree(depth={max_depth},leaf={min_leaf})"),
            AlgorithmSpec::Knn { k } => write!(f, "kNN(k={k})"),
            AlgorithmSpec::Logistic {
                epochs,
                learning_rate,
            } => write!(f, "LogisticRegression(epochs={epochs},lr={learning_rate})"),
            AlgorithmSpec::RandomForest {
                trees, max_depth, ..
            } => write!(f, "RandomForest(trees={trees},depth={max_depth})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Predict one hand-made row (cells in `fixture`'s attribute order)
/// through a one-row dataset with `fixture`'s attributes.
#[cfg(test)]
pub(crate) fn predict_one(
    model: &dyn Classifier,
    fixture: &Instances,
    row: &[Option<f64>],
) -> Result<usize> {
    let query = Instances::from_rows(
        fixture.attributes.clone(),
        vec![row.to_vec()],
        vec![None],
        fixture.class_names.clone(),
    );
    Ok(model.predict(&query)?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{AttrKind, Attribute};

    /// Three numeric attributes around one nominal, three classes, with
    /// missing cells and unlabeled rows.
    fn mixed() -> Instances {
        let numeric = |name: &str| Attribute {
            name: name.into(),
            kind: AttrKind::Numeric,
        };
        let rows = (0..90)
            .map(|i| {
                let c = (i % 3) as f64;
                vec![
                    (i % 7 != 0).then(|| 2.0 * c + ((i * 37) % 11) as f64 * 0.3),
                    Some(((i * 13) % 17) as f64),
                    (i % 5 != 1).then(|| ((i + i % 3) % 4) as f64),
                    Some(c - ((i * 7) % 5) as f64 * 0.4),
                ]
            })
            .collect();
        Instances::from_rows(
            vec![
                numeric("x"),
                numeric("y"),
                Attribute {
                    name: "colour".into(),
                    kind: AttrKind::Nominal(vec!["p".into(), "q".into(), "r".into(), "s".into()]),
                },
                numeric("z"),
            ],
            rows,
            (0..90).map(|i| (i % 11 != 4).then_some(i % 3)).collect(),
            vec!["a".into(), "b".into(), "c".into()],
        )
    }

    /// Every classifier fitted on a row- and attribute-masked view, and
    /// predicting another masked view, gives the predictions and model
    /// size of fitting and predicting the views' materialized copies, and
    /// refuses a view with fewer attributes than it was fitted on.
    #[test]
    fn masked_views_predict_like_their_materialized_copies() {
        let d = mixed();
        let view = d.view();
        let train_rows: Vec<usize> = (0..d.len()).filter(|i| i % 4 != 1).collect();
        let test_rows: Vec<usize> = (0..d.len()).rev().filter(|i| i % 4 == 1).collect();
        // Reordered, with attribute 1 left out.
        let attrs = [3usize, 0, 2];
        let train_view = view.select_rows(&train_rows);
        let train = train_view.select_attrs(&attrs);
        let test_view = view.select_rows(&test_rows);
        let test = test_view.select_attrs(&attrs);
        let (train_copy, test_copy) = (train.materialize(), test.materialize());
        let mut classes = std::collections::BTreeSet::new();
        for spec in AlgorithmSpec::standard_suite() {
            let mut masked = spec.build();
            masked.fit_view(&train).unwrap();
            let mut copied = spec.build();
            copied.fit(&train_copy).unwrap();
            let predicted = masked.predict_view(&test).unwrap();
            assert_eq!(predicted.len(), test_rows.len(), "{spec}");
            assert_eq!(predicted, copied.predict(&test_copy).unwrap(), "{spec}");
            assert_eq!(masked.model_size(), copied.model_size(), "{spec}");
            // A view of 2 of the 3 fitted attributes is refused.
            assert!(
                matches!(
                    masked.predict_view(&test.select_attrs(&[0, 1])),
                    Err(MiningError::InvalidDataset(_))
                ),
                "{spec}"
            );
            classes.extend(predicted);
        }
        assert_eq!(classes.len(), 3, "the learners tell the classes apart");
    }

    #[test]
    fn suite_contains_baselines_and_learners() {
        let suite = AlgorithmSpec::standard_suite();
        assert_eq!(suite.len(), 7);
        assert_eq!(suite[0].name(), "ZeroR");
        assert!(suite.iter().any(|s| s.name() == "RandomForest"));
    }

    #[test]
    fn build_produces_matching_names() {
        for spec in AlgorithmSpec::standard_suite() {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    fn display_includes_parameters() {
        let s = AlgorithmSpec::Knn { k: 3 }.to_string();
        assert_eq!(s, "kNN(k=3)");
        assert_eq!(AlgorithmSpec::ZeroR.to_string(), "ZeroR");
    }
}
