//! Integration of the §3.1 experiment protocol: phase 1 + phase 2 on a
//! real generated dataset, knowledge-base persistence, advisor
//! evaluation, and the qualitative shapes the paper's companion study
//! predicts.

use openbi::experiment::{
    run_cells, run_phase1_report, run_phase2_report, Criterion, ExperimentCell, ExperimentConfig,
    ExperimentDataset,
};
use openbi::kb::{
    extract_rules, leave_one_dataset_out, Advice, Advisor, ExperimentRecord, KnowledgeBase,
    SnapshotKnowledgeBase,
};
use openbi::mining::AlgorithmSpec;
use openbi::quality::QualityProfile;
use openbi_datagen::{make_blobs, BlobsConfig};

fn dataset(seed: u64) -> ExperimentDataset {
    ExperimentDataset::new(
        format!("blobs-{seed}"),
        make_blobs(&BlobsConfig {
            n_rows: 150,
            n_features: 4,
            n_classes: 2,
            class_separation: 3.0,
            seed,
        }),
        "class",
    )
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        algorithms: vec![
            AlgorithmSpec::ZeroR,
            AlgorithmSpec::NaiveBayes,
            AlgorithmSpec::Knn { k: 5 },
        ],
        severities: vec![0.0, 0.5, 1.0],
        folds: 3,
        seed: 3,
        parallel: true,
        workers: 0,
        ..ExperimentConfig::default()
    }
}

#[test]
fn full_protocol_builds_a_useful_kb() {
    let datasets = vec![dataset(1), dataset(2), dataset(3)];
    let kb = SnapshotKnowledgeBase::default();
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    let n1 = run_phase1_report(&datasets, &criteria, &config(), &kb)
        .unwrap()
        .records;
    // 3 datasets × 2 criteria × 3 severities × 3 algorithms.
    assert_eq!(n1, 54);
    let n2 = run_phase2_report(
        &datasets,
        &[(Criterion::Completeness, Criterion::LabelNoise)],
        &config(),
        &kb,
    )
    .unwrap()
    .records;
    // 3 datasets × (3×3−1) combos × 3 algorithms.
    assert_eq!(n2, 72);
    let snapshot = kb.snapshot();
    assert_eq!(snapshot.len(), 126);

    // Persistence round trip.
    let jsonl = snapshot.to_jsonl().unwrap();
    let restored = KnowledgeBase::from_jsonl(&jsonl).unwrap();
    assert_eq!(restored.len(), snapshot.len());

    // Qualitative shape: the clean baseline beats the fully degraded
    // variant for every real algorithm.
    for algo in ["NaiveBayes", "kNN(k=5)"] {
        let clean: Vec<f64> = snapshot
            .filter(|r| r.algorithm == algo && r.degradations.is_empty())
            .iter()
            .map(|r| r.metrics.accuracy)
            .collect();
        let degraded: Vec<f64> = snapshot
            .filter(|r| {
                r.algorithm == algo
                    && r.degradations
                        .iter()
                        .any(|d| d.contains("35%") || d.contains("0.40"))
            })
            .iter()
            .map(|r| r.metrics.accuracy)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&clean) > mean(&degraded),
            "{algo}: clean {} vs degraded {}",
            mean(&clean),
            mean(&degraded)
        );
    }

    // The advisor generalizes across datasets (leave-one-dataset-out).
    let eval = leave_one_dataset_out(&snapshot, &Advisor::default()).unwrap();
    assert!(eval.decisions > 0);
    assert!(
        eval.mean_regret <= eval.baseline_regret + 0.02,
        "advisor regret {} should not exceed static baseline {}",
        eval.mean_regret,
        eval.baseline_regret
    );

    // Guidance rules can be extracted without panicking (content depends
    // on which algorithm dominates overall).
    let _ = extract_rules(&snapshot, 0.0, 1);
}

/// The cell-level executor's determinism guarantee: a seeded phase-1
/// run yields the same knowledge base whether it runs sequentially, on
/// one worker, or on eight. Cell seeds derive from the grid position
/// (never the worker) and the executor publishes in grid order, so only
/// the wall-clock `train_ms` field may differ — and the advisor, which
/// breaks distance ties by record position, gives the same advice.
#[test]
fn executor_is_deterministic_across_worker_counts() {
    let datasets = vec![dataset(1), dataset(2)];
    let criteria = [
        Criterion::Completeness,
        Criterion::LabelNoise,
        Criterion::Imbalance,
    ];
    let run = |parallel: bool, workers: usize| {
        let kb = SnapshotKnowledgeBase::default();
        let cfg = ExperimentConfig {
            parallel,
            workers,
            ..config()
        };
        run_phase1_report(&datasets, &criteria, &cfg, &kb).unwrap();
        kb.snapshot()
    };
    let keys = |kb: &KnowledgeBase| -> Vec<String> {
        kb.records()
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.metrics.train_ms = 0.0; // wall-clock: the only timing field
                serde_json::to_string(&r).unwrap()
            })
            .collect()
    };
    let sequential = run(false, 1);
    assert_eq!(sequential.len(), 54);
    // Query with every cell's profile (3 algorithms per cell): a
    // dataset's clean baseline recurs under every criterion, so those
    // records tie on distance.
    let profiles: Vec<QualityProfile> = sequential
        .records()
        .iter()
        .step_by(3)
        .map(|r| r.profile.clone())
        .collect();
    let advice = |kb: &KnowledgeBase| -> Vec<Advice> {
        profiles
            .iter()
            .map(|p| Advisor::default().advise(kb, p).unwrap())
            .collect()
    };
    for workers in [1, 8] {
        let parallel = run(true, workers);
        assert_eq!(
            keys(&parallel),
            keys(&sequential),
            "workers={workers} must match sequential record for record"
        );
        assert_eq!(
            advice(&parallel),
            advice(&sequential),
            "workers={workers} must give the sequential advice"
        );
    }
}

/// Run `cells` on `dataset` through the executor and return the
/// records in grid order.
fn run_grid(
    dataset: &ExperimentDataset,
    cells: Vec<ExperimentCell>,
    config: &ExperimentConfig,
) -> Vec<ExperimentRecord> {
    let kb = SnapshotKnowledgeBase::default();
    let report = run_cells(std::slice::from_ref(dataset), cells, config, &kb).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    kb.snapshot().records().to_vec()
}

#[test]
fn imbalance_hurts_minority_f1_more_than_accuracy() {
    // Overlapping classes: with a clean boundary even 95:5 imbalance
    // costs nothing, so use a hard dataset where the prior can dominate.
    let d = ExperimentDataset::new(
        "blobs-overlap",
        make_blobs(&BlobsConfig {
            n_rows: 300,
            n_features: 3,
            n_classes: 2,
            class_separation: 1.0,
            seed: 77,
        }),
        "class",
    );
    let cfg = ExperimentConfig {
        algorithms: vec![AlgorithmSpec::DecisionTree {
            max_depth: 10,
            min_leaf: 2,
        }],
        folds: 3,
        seed: 5,
        ..ExperimentConfig::default()
    };
    let cells = [0.0, 1.0]
        .iter()
        .map(|&severity| ExperimentCell {
            dataset: 0,
            degradation: Criterion::Imbalance.degradation(severity, &d).unwrap(),
            seed: 1,
        })
        .collect();
    let records = run_grid(&d, cells, &cfg);
    let (clean, skewed) = (&records[0].metrics, &records[1].metrics);
    let acc_drop = clean.accuracy - skewed.accuracy;
    let f1_drop = clean.minority_f1 - skewed.minority_f1;
    assert!(
        f1_drop > acc_drop + 0.02,
        "minority F1 must collapse faster: f1_drop {f1_drop} vs acc_drop {acc_drop}"
    );
    assert!(
        f1_drop > 0.1,
        "f1_drop {f1_drop} too small to show the defect"
    );
}

#[test]
fn dimensionality_hurts_knn_more_than_tree() {
    let d = dataset(9);
    let cfg = ExperimentConfig {
        algorithms: vec![
            AlgorithmSpec::Knn { k: 5 },
            AlgorithmSpec::DecisionTree {
                max_depth: 10,
                min_leaf: 2,
            },
        ],
        folds: 3,
        seed: 5,
        ..ExperimentConfig::default()
    };
    let cells = [0.0, 1.0]
        .iter()
        .map(|&severity| ExperimentCell {
            dataset: 0,
            degradation: Criterion::Dimensionality.degradation(severity, &d).unwrap(),
            seed: 2,
        })
        .collect();
    // Grid order: [clean kNN, clean tree, wide kNN, wide tree].
    let records = run_grid(&d, cells, &cfg);
    let drop = |algo_idx: usize| {
        records[algo_idx].metrics.accuracy - records[2 + algo_idx].metrics.accuracy
    };
    let knn_drop = drop(0);
    let tree_drop = drop(1);
    assert!(
        knn_drop > tree_drop - 0.02,
        "kNN should suffer at least as much as the tree: knn {knn_drop} vs tree {tree_drop}"
    );
    assert!(
        knn_drop > 0.05,
        "48 noise columns must hurt kNN, drop {knn_drop}"
    );
}
