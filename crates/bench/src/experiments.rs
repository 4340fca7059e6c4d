//! The experiment implementations, one function per entry of the
//! DESIGN.md experiment index (E1–E12, F1, F2). Each returns one or more
//! [`ResultTable`]s ready to print and export.

use crate::harness::{default_datasets, fast_suite, run_grid, severity_sweep, SEVERITIES};
use crate::result_table::{Cell, ResultTable};
use openbi::datagen::{
    high_dim_class, high_dim_lod, municipal_budget, scenario_to_lod, HighDimLodConfig,
};
use openbi::experiment::{Criterion, ExperimentCell, ExperimentConfig, ExperimentDataset};
use openbi::kb::{leave_one_dataset_out, Advisor, SnapshotKnowledgeBase};
use openbi::lod::{tabularize, Iri, TabularizeOptions};
use openbi::mining::eval::crossval::cross_validate;
use openbi::mining::preprocess::{discretize_all, impute_knn, impute_mean_mode, BinStrategy};
use openbi::mining::{AlgorithmSpec, Apriori, Instances, Pca};
use openbi::pipeline::{run_pipeline, DataSource, PipelineConfig};
use openbi::quality::{Degradation, Injector, MissingInjector};
use openbi::table::Rng;
use openbi::Result;

const FOLDS: usize = 5;
const SEED: u64 = 42;

/// E1 — completeness: accuracy vs MCAR/MAR missing-value ratio.
pub fn e1_completeness() -> Result<Vec<ResultTable>> {
    let datasets = default_datasets(SEED);
    let mcar = severity_sweep(
        "E1a",
        "accuracy vs MCAR missingness (ratio = 0.4×severity)",
        &datasets,
        Criterion::Completeness,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED,
    )?;
    let mar = severity_sweep(
        "E1b",
        "accuracy vs MAR missingness (driver-skewed)",
        &datasets,
        Criterion::CompletenessMar,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED + 1,
    )?;
    Ok(vec![
        crate::harness::summarize_series(&mcar),
        mcar,
        crate::harness::summarize_series(&mar),
        mar,
    ])
}

/// E2 — label noise: accuracy vs class-flip ratio.
pub fn e2_label_noise() -> Result<Vec<ResultTable>> {
    let datasets = default_datasets(SEED);
    let sweep = severity_sweep(
        "E2",
        "accuracy vs label noise (flip ratio = 0.35×severity)",
        &datasets,
        Criterion::LabelNoise,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED,
    )?;
    Ok(vec![crate::harness::summarize_series(&sweep), sweep])
}

/// E3 — attribute noise: accuracy vs Gaussian perturbation.
pub fn e3_attribute_noise() -> Result<Vec<ResultTable>> {
    let datasets = default_datasets(SEED);
    let sweep = severity_sweep(
        "E3",
        "accuracy vs attribute noise (N(0,(2·std)²) on severity of cells)",
        &datasets,
        Criterion::AttributeNoise,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED,
    )?;
    Ok(vec![crate::harness::summarize_series(&sweep), sweep])
}

/// E4 — imbalance: accuracy AND minority-F1 vs majority fraction.
pub fn e4_imbalance() -> Result<Vec<ResultTable>> {
    // Overlapping classes so the prior can dominate (see DESIGN.md).
    let table = openbi::datagen::make_blobs(&openbi::datagen::BlobsConfig {
        n_rows: 600,
        n_features: 4,
        n_classes: 2,
        class_separation: 1.2,
        seed: SEED,
    });
    let datasets = vec![ExperimentDataset::new("blobs-overlap", table, "class")];
    let sweep = severity_sweep(
        "E4",
        "accuracy & minority-F1 vs imbalance (majority = 50%+45%×severity)",
        &datasets,
        Criterion::Imbalance,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED,
    )?;
    Ok(vec![sweep])
}

/// E5 — redundancy: accuracy & model size vs correlated copies (the
/// paper's own "correct but not useful" example).
pub fn e5_redundancy() -> Result<Vec<ResultTable>> {
    let datasets = default_datasets(SEED);
    let sweep = severity_sweep(
        "E5",
        "accuracy & model size vs correlated attribute copies (1–4)",
        &datasets,
        Criterion::Redundancy,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED,
    )?;
    Ok(vec![sweep])
}

/// E6 — dimensionality: accuracy and train time vs irrelevant
/// attributes, including the LOD high-dimensionality case.
pub fn e6_dimensionality() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "E6",
        "accuracy & train time vs irrelevant attributes",
        &[
            "dataset",
            "extra_attrs",
            "algorithm",
            "accuracy",
            "train_ms",
        ],
    );
    let datasets = default_datasets(SEED);
    let counts = [0usize, 8, 16, 32, 64, 128];
    // One worker: `train_ms` is wall-clock, so no cell shares the CPU.
    let config = ExperimentConfig {
        algorithms: fast_suite(),
        folds: FOLDS,
        seed: SEED,
        parallel: false,
        ..ExperimentConfig::default()
    };
    let mut cells = Vec::new();
    for dataset in 0..datasets.len() {
        for &count in &counts {
            let degradation = if count == 0 {
                Degradation::new()
            } else {
                Degradation::new().then(openbi::quality::IrrelevantInjector::gaussian(count))
            };
            let cell = ExperimentCell {
                dataset,
                degradation,
                seed: SEED,
            };
            cells.push((count, cell));
        }
    }
    for (count, records) in run_grid(&datasets, cells, &config)? {
        for r in records {
            out.push(vec![
                Cell::Str(r.dataset),
                count.into(),
                Cell::Str(r.algorithm),
                r.metrics.accuracy.into(),
                r.metrics.train_ms.into(),
            ]);
        }
    }
    // The same defect arising naturally from sparse LOD.
    let mut lod_table = ResultTable::new(
        "E6b",
        "accuracy vs sparse extra LOD properties (tabularized graph)",
        &["extra_properties", "algorithm", "accuracy"],
    );
    for extra in [0usize, 16, 48] {
        let graph = high_dim_lod(&HighDimLodConfig {
            n_entities: 300,
            n_informative: 4,
            n_extra: extra,
            extra_density: 0.5,
            n_classes: 2,
            seed: SEED,
        });
        let table = tabularize(&graph, &high_dim_class(), &TabularizeOptions::default())
            .map_err(openbi::OpenBiError::Lod)?;
        let instances = Instances::from_table(&table, Some("category"), &["iri"])?;
        for spec in [AlgorithmSpec::Knn { k: 5 }, AlgorithmSpec::NaiveBayes] {
            let eval = cross_validate(&instances, &spec, FOLDS, SEED)?;
            lod_table.push(vec![
                extra.into(),
                Cell::Str(spec.to_string()),
                eval.accuracy().into(),
            ]);
        }
    }
    Ok(vec![out, lod_table])
}

/// E7 — duplicates: accuracy vs duplicate ratio.
pub fn e7_duplicates() -> Result<Vec<ResultTable>> {
    let datasets = default_datasets(SEED);
    let sweep = severity_sweep(
        "E7",
        "accuracy vs near-duplicate ratio (0.45×severity of rows)",
        &datasets,
        Criterion::Duplicates,
        &SEVERITIES,
        &fast_suite(),
        FOLDS,
        SEED,
    )?;
    Ok(vec![crate::harness::summarize_series(&sweep), sweep])
}

/// E8 — phase-2 mixed criteria: missingness × label-noise interaction
/// grid.
pub fn e8_mixed() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "E8",
        "mixed criteria grid: accuracy at missingness × label noise",
        &[
            "dataset",
            "missing_sev",
            "noise_sev",
            "algorithm",
            "accuracy",
            "kappa",
        ],
    );
    let datasets = default_datasets(SEED);
    let grid = [0.0, 0.5, 1.0];
    let config = ExperimentConfig {
        algorithms: vec![
            AlgorithmSpec::NaiveBayes,
            AlgorithmSpec::DecisionTree {
                max_depth: 12,
                min_leaf: 2,
            },
        ],
        folds: FOLDS,
        seed: SEED,
        ..ExperimentConfig::default()
    };
    let mut cells = Vec::new();
    for (di, dataset) in datasets.iter().enumerate() {
        for &ms in &grid {
            for &ns in &grid {
                let mut degradation = Criterion::Completeness.degradation(ms, dataset)?;
                degradation.extend(Criterion::LabelNoise.degradation(ns, dataset)?);
                let cell = ExperimentCell {
                    dataset: di,
                    degradation,
                    seed: SEED,
                };
                cells.push(((ms, ns), cell));
            }
        }
    }
    for ((ms, ns), records) in run_grid(&datasets, cells, &config)? {
        for r in records {
            out.push(vec![
                Cell::Str(r.dataset),
                ms.into(),
                ns.into(),
                Cell::Str(r.algorithm),
                r.metrics.accuracy.into(),
                r.metrics.kappa.into(),
            ]);
        }
    }
    Ok(vec![out])
}

/// E9 — PCA trade-off: accuracy vs retained components, with explained
/// variance (the "information lost" of §1).
pub fn e9_pca() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "E9",
        "PCA trade-off: accuracy & explained variance vs components",
        &[
            "dataset",
            "representation",
            "components",
            "explained_var",
            "algorithm",
            "accuracy",
        ],
    );
    for (name, table, target) in openbi::datagen::reference_datasets(SEED) {
        let instances = Instances::from_table(&table, Some(&target), &[])?;
        let d = instances
            .attributes
            .iter()
            .filter(|a| a.kind == openbi::mining::AttrKind::Numeric)
            .count();
        let algorithms = [AlgorithmSpec::Knn { k: 5 }, AlgorithmSpec::NaiveBayes];
        for spec in &algorithms {
            let eval = cross_validate(&instances, spec, FOLDS, SEED)?;
            out.push(vec![
                Cell::Str(name.clone()),
                "raw".into(),
                d.into(),
                1.0f64.into(),
                Cell::Str(spec.to_string()),
                eval.accuracy().into(),
            ]);
        }
        for k in [1usize, 2, d.saturating_sub(1).max(1)] {
            if k >= d {
                continue;
            }
            let pca = Pca::fit(&instances, k)?;
            let reduced = pca.transform(&instances)?;
            for spec in &algorithms {
                let eval = cross_validate(&reduced, spec, FOLDS, SEED)?;
                out.push(vec![
                    Cell::Str(name.clone()),
                    "pca".into(),
                    k.into(),
                    pca.explained_variance_ratio().into(),
                    Cell::Str(spec.to_string()),
                    eval.accuracy().into(),
                ]);
            }
        }
    }
    Ok(vec![out])
}

/// E10 — association-rule quality under degradation.
pub fn e10_rules() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "E10",
        "association rules vs data quality (municipal budget)",
        &[
            "missing_ratio",
            "rules_mined",
            "mean_confidence",
            "mean_lift",
            "mean_quality_score",
        ],
    );
    let scenario = municipal_budget(600, SEED);
    let base = scenario
        .table
        .select(&["district", "category", "headcount", "overspend"])?;
    let apriori = Apriori {
        min_support: 0.05,
        min_confidence: 0.6,
        max_len: 3,
    };
    for ratio in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let degraded = if ratio == 0.0 {
            base.clone()
        } else {
            MissingInjector::mcar(ratio)
                .exclude(["overspend"])
                .apply(&base, &mut Rng::seed_from_u64(SEED))?
        };
        let discretized = discretize_all(&degraded, 3, BinStrategy::EqualFrequency, &[])?;
        let rules = apriori.mine_rules(&discretized)?;
        let n = rules.len();
        let mean = |f: &dyn Fn(&openbi::mining::Rule) -> f64| {
            if n == 0 {
                0.0
            } else {
                rules.iter().map(f).sum::<f64>() / n as f64
            }
        };
        out.push(vec![
            ratio.into(),
            n.into(),
            mean(&|r| r.confidence).into(),
            mean(&|r| r.lift).into(),
            mean(&|r| r.quality_score()).into(),
        ]);
    }
    Ok(vec![out])
}

/// E11 — imputation baselines: how much accuracy each strategy recovers
/// at 30% MCAR missingness.
pub fn e11_imputation() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "E11",
        "imputation recovery at 30% MCAR missingness",
        &["dataset", "strategy", "algorithm", "accuracy"],
    );
    for (name, table, target) in openbi::datagen::reference_datasets(SEED) {
        let missing = MissingInjector::mcar(0.3)
            .exclude([target.clone()])
            .apply(&table, &mut Rng::seed_from_u64(SEED))?;
        let variants: Vec<(&str, openbi::table::Table)> = vec![
            ("clean", table.clone()),
            ("missing-raw", missing.clone()),
            ("mean-mode", impute_mean_mode(&missing, &[target.as_str()])?),
            ("knn-impute", impute_knn(&missing, 5, &[target.as_str()])?),
        ];
        for (strategy, variant) in variants {
            let instances = Instances::from_table(&variant, Some(&target), &[])?;
            for spec in [
                AlgorithmSpec::Knn { k: 5 },
                AlgorithmSpec::Logistic {
                    epochs: 200,
                    learning_rate: 0.1,
                },
            ] {
                let eval = cross_validate(&instances, &spec, FOLDS, SEED)?;
                out.push(vec![
                    Cell::Str(name.clone()),
                    strategy.into(),
                    Cell::Str(spec.to_string()),
                    eval.accuracy().into(),
                ]);
            }
        }
    }
    Ok(vec![out])
}

/// E12 — advisor evaluation: leave-one-dataset-out hit rate and regret
/// vs the static always-best baseline, at growing KB sizes.
pub fn e12_advisor() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "E12",
        "advisor leave-one-dataset-out: regret vs static baseline",
        &[
            "kb_records",
            "decisions",
            "top1_hit_rate",
            "advisor_regret",
            "baseline_regret",
            "baseline_algorithm",
        ],
    );
    let datasets = default_datasets(SEED);
    let kb = SnapshotKnowledgeBase::default();
    let criteria_stages: [&[Criterion]; 3] = [
        &[Criterion::Completeness],
        &[Criterion::LabelNoise, Criterion::Imbalance],
        &[Criterion::Dimensionality, Criterion::Redundancy],
    ];
    let config = ExperimentConfig {
        algorithms: fast_suite(),
        severities: vec![0.0, 0.5, 1.0],
        folds: 3,
        seed: SEED,
        parallel: true,
        workers: 0,
        ..ExperimentConfig::default()
    };
    for stage in criteria_stages {
        openbi::experiment::run_phase1_report(&datasets, stage, &config, &kb)?;
        let snapshot = kb.snapshot();
        let eval = leave_one_dataset_out(&snapshot, &Advisor::default())?;
        out.push(vec![
            snapshot.len().into(),
            eval.decisions.into(),
            eval.top1_hit_rate.into(),
            eval.mean_regret.into(),
            eval.baseline_regret.into(),
            Cell::Str(eval.baseline_algorithm),
        ]);
    }
    Ok(vec![out])
}

/// F1 — KDD phase timing shares (Figure 1: preprocessing dominates).
pub fn f1_kdd_phases() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "F1",
        "KDD pipeline phase shares (messy scenario data)",
        &["dataset", "phase", "ms", "share_pct"],
    );
    for scenario in openbi::datagen::all_scenarios(400, SEED) {
        // Dirty the scenario so preprocessing has real work to do.
        let dirty = Degradation::new()
            .then(MissingInjector::mcar(0.15).exclude([scenario.target.clone()]))
            .then(openbi::quality::DuplicateInjector::exact(0.1))
            .apply(&scenario.table, SEED)?;
        let outcome = run_pipeline(
            DataSource::Table {
                name: scenario.name.clone(),
                table: dirty,
            },
            &PipelineConfig {
                target: Some(scenario.target.clone()),
                exclude: scenario.id_columns.clone(),
                folds: 3,
                ..Default::default()
            },
            None,
        )?;
        let total: f64 = outcome.phase_timings.iter().map(|(_, ms)| ms).sum();
        for (phase, ms) in &outcome.phase_timings {
            out.push(vec![
                Cell::Str(scenario.name.clone()),
                Cell::Str(phase.clone()),
                (*ms).into(),
                (ms / total * 100.0).into(),
            ]);
        }
    }
    Ok(vec![out])
}

/// F2 — the full OpenBI flow of Figure 2 on a generated LOD portal.
pub fn f2_openbi_flow() -> Result<Vec<ResultTable>> {
    let mut out = ResultTable::new(
        "F2",
        "OpenBI end-to-end flow on a LOD portal (Figure 2)",
        &["step", "measure", "value"],
    );
    // Build a knowledge base first (abbreviated phase 1).
    let datasets = default_datasets(SEED);
    let kb = SnapshotKnowledgeBase::default();
    let config = ExperimentConfig {
        algorithms: fast_suite(),
        severities: vec![0.0, 0.5, 1.0],
        folds: 3,
        seed: SEED,
        parallel: true,
        workers: 0,
        ..ExperimentConfig::default()
    };
    let records = openbi::experiment::run_phase1_report(
        &datasets,
        &[Criterion::Completeness, Criterion::LabelNoise],
        &config,
        &kb,
    )?
    .records;
    out.push(vec![
        "experiments".into(),
        "kb_records".into(),
        records.into(),
    ]);
    // The citizen's portal.
    let scenario = municipal_budget(400, SEED + 5);
    let graph = scenario_to_lod(&scenario, "http://openbi.org", 0.2, SEED)
        .map_err(openbi::OpenBiError::Lod)?;
    out.push(vec!["portal".into(), "triples".into(), graph.len().into()]);
    let snapshot = kb.snapshot();
    let outcome = run_pipeline(
        DataSource::Lod {
            name: "municipal-budget".into(),
            graph,
            class: Iri::new("http://openbi.org/dataset/municipal-budget/Row")
                .map_err(openbi::OpenBiError::Lod)?,
        },
        &PipelineConfig {
            target: Some("overspend".into()),
            exclude: vec!["id".into()],
            folds: 3,
            ..Default::default()
        },
        Some(&snapshot),
    )?;
    let advice = outcome.advice.as_ref().expect("kb supplied");
    out.push(vec![
        "advice".into(),
        "best_algorithm".into(),
        Cell::Str(advice.best().to_string()),
    ]);
    out.push(vec![
        "advice".into(),
        "expected_score".into(),
        advice.ranking[0].expected_score.into(),
    ]);
    let eval = outcome.evaluation.as_ref().expect("target configured");
    out.push(vec![
        "mining".into(),
        "accuracy".into(),
        eval.accuracy().into(),
    ]);
    out.push(vec!["mining".into(), "kappa".into(), eval.kappa().into()]);
    out.push(vec![
        "publish".into(),
        "triples_out".into(),
        outcome.published.len().into(),
    ]);
    out.push(vec![
        "preprocessing".into(),
        "steps".into(),
        outcome.plan.steps.len().into(),
    ]);
    Ok(vec![out])
}

/// Every experiment, in index order: `(id, runner)`.
#[allow(clippy::type_complexity)]
pub fn all_experiments() -> Vec<(&'static str, fn() -> Result<Vec<ResultTable>>)> {
    vec![
        ("E1", e1_completeness),
        ("E2", e2_label_noise),
        ("E3", e3_attribute_noise),
        ("E4", e4_imbalance),
        ("E5", e5_redundancy),
        ("E6", e6_dimensionality),
        ("E7", e7_duplicates),
        ("E8", e8_mixed),
        ("E9", e9_pca),
        ("E10", e10_rules),
        ("E11", e11_imputation),
        ("E12", e12_advisor),
        ("F1", f1_kdd_phases),
        ("F2", f2_openbi_flow),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full experiments are exercised by the binaries; here we only smoke
    // the cheapest ones to keep `cargo test` fast.

    #[test]
    fn e10_rules_runs_and_degrades() {
        let tables = e10_rules().unwrap();
        let t = &tables[0];
        assert_eq!(t.rows.len(), 5);
        let rules_at = |i: usize| match t.rows[i][1] {
            Cell::Int(n) => n,
            _ => unreachable!(),
        };
        assert!(rules_at(0) > 0, "clean data must yield rules");
        assert!(
            rules_at(4) <= rules_at(0),
            "40% missingness must not increase mined rules"
        );
    }

    #[test]
    fn f2_flow_produces_all_steps() {
        let tables = f2_openbi_flow().unwrap();
        let steps: Vec<String> = tables[0]
            .rows
            .iter()
            .map(|r| r[0].clone())
            .map(|c| match c {
                Cell::Str(s) => s,
                _ => unreachable!(),
            })
            .collect();
        for expected in ["experiments", "portal", "advice", "mining", "publish"] {
            assert!(steps.iter().any(|s| s == expected), "missing {expected}");
        }
    }

    #[test]
    fn experiment_index_is_complete() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 14);
        assert_eq!(ids[0], "E1");
        assert_eq!(ids[13], "F2");
    }
}
