//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * **A1** — advisor hyperparameters (neighbor count × kernel
//!   bandwidth): is the similarity-weighted aggregation doing work?
//! * **A2** — kNN's `k` under the dimensionality defect: does a larger
//!   neighborhood buy robustness to irrelevant attributes?
//! * **A3** — decision-tree capacity (depth × min-leaf) under label
//!   noise: does capping capacity act as noise regularization?

use crate::harness::{default_datasets, run_grid};
use crate::result_table::{Cell, ResultTable};
use openbi::experiment::{Criterion, ExperimentCell, ExperimentConfig};
use openbi::kb::{leave_one_dataset_out, Advisor, ExperimentRecord, SnapshotKnowledgeBase};
use openbi::mining::AlgorithmSpec;
use openbi::Result;

const SEED: u64 = 42;

/// A1 — advisor hyperparameter grid, evaluated by leave-one-dataset-out
/// on a phase-1 knowledge base.
pub fn a1_advisor_params() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "A1",
        "ablation: advisor neighbors × bandwidth (LODO hit rate / regret)",
        &["neighbors", "bandwidth", "top1_hit_rate", "mean_regret"],
    );
    // Build one KB, reuse it for the whole grid.
    let datasets = default_datasets(SEED);
    let kb = SnapshotKnowledgeBase::default();
    let config = ExperimentConfig {
        algorithms: crate::harness::fast_suite(),
        severities: vec![0.0, 0.5, 1.0],
        folds: 3,
        seed: SEED,
        parallel: true,
        workers: 0,
        ..ExperimentConfig::default()
    };
    openbi::experiment::run_phase1_report(
        &datasets,
        &[
            Criterion::Completeness,
            Criterion::LabelNoise,
            Criterion::Dimensionality,
        ],
        &config,
        &kb,
    )?;
    let snapshot = kb.snapshot();
    for neighbors in [1usize, 5, 25, 100] {
        for bandwidth in [0.05, 0.25, 1.0] {
            let advisor = Advisor {
                neighbors,
                bandwidth,
            };
            let eval = leave_one_dataset_out(&snapshot, &advisor)?;
            out.push(vec![
                neighbors.into(),
                bandwidth.into(),
                eval.top1_hit_rate.into(),
                eval.mean_regret.into(),
            ]);
        }
    }
    Ok(vec![out])
}

/// One cell per (default dataset, severity) of `criterion`, each
/// evaluating every algorithm of `algorithms` with 3-fold CV at `SEED`:
/// each cell's severity and records, in grid order.
fn severity_grid(
    criterion: Criterion,
    algorithms: Vec<AlgorithmSpec>,
) -> Result<Vec<(f64, Vec<ExperimentRecord>)>> {
    let datasets = default_datasets(SEED);
    let config = ExperimentConfig {
        algorithms,
        folds: 3,
        seed: SEED,
        ..ExperimentConfig::default()
    };
    let mut cells = Vec::new();
    for (di, dataset) in datasets.iter().enumerate() {
        for severity in [0.0, 0.5, 1.0] {
            let cell = ExperimentCell {
                dataset: di,
                degradation: criterion.degradation(severity, dataset)?,
                seed: SEED,
            };
            cells.push((severity, cell));
        }
    }
    run_grid(&datasets, cells, &config)
}

/// A2 — kNN `k` under growing dimensionality.
pub fn a2_knn_k_under_dimensionality() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "A2",
        "ablation: kNN k vs irrelevant-attribute severity (accuracy)",
        &["dataset", "severity", "k", "accuracy"],
    );
    let ks = [1usize, 5, 15, 35];
    let algorithms = ks.iter().map(|&k| AlgorithmSpec::Knn { k }).collect();
    for (severity, records) in severity_grid(Criterion::Dimensionality, algorithms)? {
        for (&k, r) in ks.iter().zip(&records) {
            out.push(vec![
                Cell::Str(r.dataset.clone()),
                severity.into(),
                k.into(),
                r.metrics.accuracy.into(),
            ]);
        }
    }
    Ok(vec![out])
}

/// A3 — decision-tree capacity under label noise.
pub fn a3_tree_capacity_under_noise() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "A3",
        "ablation: tree depth × min_leaf vs label noise (accuracy)",
        &["dataset", "noise_sev", "max_depth", "min_leaf", "accuracy"],
    );
    let capacities = [(20usize, 1usize), (12, 2), (6, 5), (3, 10)];
    let algorithms = capacities
        .iter()
        .map(|&(max_depth, min_leaf)| AlgorithmSpec::DecisionTree {
            max_depth,
            min_leaf,
        })
        .collect();
    for (severity, records) in severity_grid(Criterion::LabelNoise, algorithms)? {
        for (&(max_depth, min_leaf), r) in capacities.iter().zip(&records) {
            out.push(vec![
                Cell::Str(r.dataset.clone()),
                severity.into(),
                max_depth.into(),
                min_leaf.into(),
                r.metrics.accuracy.into(),
            ]);
        }
    }
    Ok(vec![out])
}

/// The ablation index: `(id, runner)`.
#[allow(clippy::type_complexity)]
pub fn all_ablations() -> Vec<(&'static str, fn() -> Result<Vec<ResultTable>>)> {
    vec![
        ("A1", a1_advisor_params),
        ("A2", a2_knn_k_under_dimensionality),
        ("A3", a3_tree_capacity_under_noise),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_index_is_complete() {
        let ids: Vec<&str> = all_ablations().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec!["A1", "A2", "A3"]);
    }
}
