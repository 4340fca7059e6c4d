//! Random forest: bagged C4.5-style trees with √d feature subsampling
//! and majority voting. A bootstrap sample is a multiplicity per training
//! row (how often it was drawn), not a view that repeats rows, and every
//! numeric attribute of the training view is sorted once per fit for all
//! of its trees. Each tree narrows that presort to its drawn rows and
//! its attributes in one arena, which its splits partition in place.

use super::decision_tree::Presorted;
use super::{Classifier, DecisionTree};
use crate::error::{MiningError, Result};
use crate::instances::InstancesView;
use openbi_table::Rng;

/// The random-forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Seed for bootstrap sampling and feature subsampling.
    pub seed: u64,
    forest: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Create an untrained forest.
    pub fn new(trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForest {
            trees: trees.max(1),
            max_depth: max_depth.max(1),
            seed,
            forest: vec![],
            n_classes: 0,
        }
    }

    fn vote(&self, per_tree: &[usize]) -> usize {
        let mut votes = vec![0usize; self.n_classes.max(1)];
        for &p in per_tree {
            if p < votes.len() {
                votes[p] += 1;
            }
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "RandomForest"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        let labeled = data.labeled_indices();
        if labeled.is_empty() {
            return Err(MiningError::InvalidDataset(
                "RandomForest needs labeled rows".into(),
            ));
        }
        let mut rng = Rng::seed_from_u64(self.seed);
        let n_attrs = data.n_attributes();
        // √d features per tree, but never fewer than 2 (when available):
        // with tiny attribute counts a 1-feature tree cannot express
        // interactions at all.
        let subset_size = ((n_attrs as f64).sqrt().round() as usize)
            .max(2)
            .min(n_attrs);
        self.n_classes = data.n_classes();
        self.forest.clear();
        let all: Vec<usize> = (0..n_attrs).collect();
        let train = Presorted::new(data, &all);
        let mut drawn = vec![0usize; data.len()];
        for _ in 0..self.trees {
            // Bootstrap sample of the labeled rows (view-local indices),
            // kept as how often each row was drawn.
            drawn.fill(0);
            for _ in 0..labeled.len() {
                drawn[labeled[rng.below(labeled.len())]] += 1;
            }
            let mut tree = DecisionTree::new(self.max_depth, 2);
            tree.feature_subset = Some(rng.sample_indices(n_attrs, subset_size));
            tree.fit_weighted(&train, &drawn);
            self.forest.push(tree);
        }
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        if self.forest.is_empty() {
            return Err(MiningError::NotFitted("RandomForest"));
        }
        // Each tree predicts the whole view in one columnar pass (and
        // refuses a view with another attribute count); votes are
        // tallied per row in tree order.
        let per_tree = self
            .forest
            .iter()
            .map(|t| t.predict_view(data))
            .collect::<Result<Vec<Vec<usize>>>>()?;
        let mut row_votes = Vec::with_capacity(self.forest.len());
        Ok((0..data.len())
            .map(|i| {
                row_votes.clear();
                row_votes.extend(per_tree.iter().map(|p| p[i]));
                self.vote(&row_votes)
            })
            .collect())
    }

    fn model_size(&self) -> usize {
        self.forest.iter().map(DecisionTree::node_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{AttrKind, Attribute, Instances};

    fn data() -> Instances {
        // Diagonal boundary: class = x + y > 10.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for xi in 0..12 {
            for yi in 0..12 {
                rows.push(vec![Some(xi as f64), Some(yi as f64)]);
                labels.push(Some(usize::from(xi + yi > 10)));
            }
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
            vec!["lo".into(), "hi".into()],
        )
    }

    #[test]
    fn forest_learns_diagonal_boundary() {
        let d = data();
        let mut m = RandomForest::new(15, 8, 42);
        m.fit(&d).unwrap();
        let preds = m.predict(&d).unwrap();
        let acc = preds
            .iter()
            .zip(&d.labels)
            .filter(|(p, l)| Some(**p) == **l)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = data();
        let mut a = RandomForest::new(5, 6, 7);
        a.fit(&d).unwrap();
        let mut b = RandomForest::new(5, 6, 7);
        b.fit(&d).unwrap();
        assert_eq!(a.predict(&d).unwrap(), b.predict(&d).unwrap());
    }

    #[test]
    fn model_size_grows_with_trees() {
        let d = data();
        let mut small = RandomForest::new(3, 6, 1);
        small.fit(&d).unwrap();
        let mut big = RandomForest::new(12, 6, 1);
        big.fit(&d).unwrap();
        assert!(big.model_size() > small.model_size());
    }

    #[test]
    fn unfitted_errors() {
        assert!(matches!(
            RandomForest::new(3, 4, 0).predict(&data()),
            Err(MiningError::NotFitted(_))
        ));
    }
}
