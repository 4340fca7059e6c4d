//! # openbi-mining
//!
//! The data-mining substrate of OpenBI, implemented from scratch:
//! preprocessing (discretization, normalization, mean/mode and k-NN
//! imputation), attribute selection (information-gain ranking, CFS),
//! classification (ZeroR, OneR, NaiveBayes, C4.5-style decision trees,
//! kNN, logistic regression, random forests), Apriori association rules
//! with Berti-Equille-style quality measures, PCA, and seeded stratified
//! evaluation.
//!
//! Every classifier tolerates missing values — mandatory here, because
//! the quality experiments train on deliberately degraded data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod error;
pub mod eval;
pub mod instances;
pub mod matrix;
pub mod preprocess;
pub mod reduce;
pub mod rules;
pub mod select;

pub use classify::{AlgorithmSpec, Classifier};
pub use error::{MiningError, Result};
pub use eval::{
    cross_validate, cross_validate_with, holdout_split, ConfusionMatrix, CrossValOptions,
    EvalResult,
};
pub use instances::{AttrKind, Attribute, ColumnView, Instances, InstancesView};
pub use reduce::Pca;
pub use rules::{Apriori, Rule};
pub use select::{cfs_select, information_gain, information_gain_ranking, project};
