//! End-to-end observability: an installed `openbi-obs` registry must
//! collect consistent metrics from all three instrumented layers (grid
//! executor, pipeline stages, advisor serving path) WITHOUT changing
//! any produced result — the identical-KB-across-worker-counts
//! guarantee must hold while instrumented.
//!
//! Everything lives in ONE test function on purpose: the process-global
//! registry slot is shared, and integration test functions in a binary
//! run on parallel threads. One function keeps the exact-value
//! assertions race-free (this file is its own process, so no other test
//! binary can interfere either).

use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
use openbi::kb::{Advisor, SnapshotKnowledgeBase};
use openbi::obs;
use openbi::pipeline::{run_pipeline, DataSource, PipelineConfig};
use openbi::quality::QualityProfile;
use openbi_datagen::{make_blobs, BlobsConfig};
use std::sync::Arc;

fn grid_datasets() -> Vec<ExperimentDataset> {
    [21u64, 22]
        .iter()
        .map(|&seed| {
            ExperimentDataset::new(
                format!("obs-blobs-{seed}"),
                make_blobs(&BlobsConfig {
                    n_rows: 120,
                    n_features: 3,
                    n_classes: 2,
                    class_separation: 3.0,
                    seed,
                }),
                "class",
            )
        })
        .collect()
}

fn grid_config(workers: usize) -> ExperimentConfig {
    ExperimentConfig {
        algorithms: vec![
            openbi::mining::AlgorithmSpec::ZeroR,
            openbi::mining::AlgorithmSpec::NaiveBayes,
        ],
        severities: vec![0.0, 0.6],
        folds: 3,
        seed: 7,
        parallel: workers > 1,
        workers,
        ..ExperimentConfig::default()
    }
}

/// Stable identity of every record a grid run produced, in store order.
fn record_keys(kb: &SnapshotKnowledgeBase) -> Vec<String> {
    kb.snapshot()
        .records()
        .iter()
        .map(|r| {
            format!(
                "{}|{:?}|{}|{}|{:.12}|{:.12}",
                r.dataset, r.degradations, r.algorithm, r.seed, r.metrics.accuracy, r.metrics.kappa
            )
        })
        .collect()
}

/// True iff `json` holds `"key":value` as a whole object member.
fn has_member(json: &str, key: &str, value: &str) -> bool {
    let member = format!("\"{key}\":{value}");
    json.contains(&format!("{member},")) || json.contains(&format!("{member}}}"))
}

#[test]
fn instrumentation_observes_all_layers_without_changing_results() {
    let registry = Arc::new(obs::MetricsRegistry::new());
    obs::install(Arc::clone(&registry));

    // --- Grid executor: determinism across worker counts, instrumented.
    let datasets = grid_datasets();
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    let mut keys_by_workers = Vec::new();
    let mut total_cells = 0usize;
    let mut total_records = 0usize;
    for workers in [1usize, 4] {
        let kb = SnapshotKnowledgeBase::default();
        let report = run_phase1_report(&datasets, &criteria, &grid_config(workers), &kb)
            .expect("instrumented grid run");
        assert!(report.failures.is_empty());
        assert_eq!(report.worker_stats.len(), workers);
        assert_eq!(
            report.worker_stats.iter().map(|s| s.cells).sum::<usize>(),
            report.cells,
            "per-worker cells must sum to the grid total"
        );
        assert!(report.wall_seconds > 0.0);
        total_cells += report.cells;
        total_records += report.records;
        keys_by_workers.push(record_keys(&kb));
    }
    assert_eq!(
        keys_by_workers[0], keys_by_workers[1],
        "identical KB across worker counts must hold with instrumentation on"
    );

    // --- Pipeline stages.
    let csv = "x,y,label\n1,2.0,a\n2,3.0,b\n3,4.0,a\n4,5.0,b\n5,6.0,a\n6,7.0,b\n\
               7,8.0,a\n8,9.0,b\n9,10.0,a\n10,11.0,b\n";
    let outcome = run_pipeline(
        DataSource::CsvText {
            name: "obs-toy".into(),
            content: csv.into(),
        },
        &PipelineConfig {
            target: Some("label".into()),
            folds: 2,
            ..Default::default()
        },
        None,
    )
    .expect("instrumented pipeline run");
    assert!(outcome.evaluation.is_some());

    // --- Advisor serving path: four queries on one pinned generation.
    let kb = SnapshotKnowledgeBase::default();
    run_phase1_report(&datasets, &criteria, &grid_config(1), &kb).expect("kb build");
    total_cells += 8;
    total_records += 16;
    let pinned = kb.pin();
    let advisor = Advisor::default();
    let first = advisor
        .advise(pinned.kb(), &QualityProfile::default())
        .expect("advise");
    for _ in 0..3 {
        let again = advisor
            .advise(pinned.kb(), &QualityProfile::default())
            .expect("advise");
        assert_eq!(again, first, "advice must be deterministic");
    }

    obs::uninstall();
    let snap = registry.snapshot();

    // Grid metrics: counters equal the per-report totals; the per-cell
    // histogram saw every cell.
    assert_eq!(snap.counters["grid.cells_total"], total_cells as u64);
    assert_eq!(snap.counters["grid.records_total"], total_records as u64);
    // No cell failed, so the failure counter was never created.
    assert_eq!(
        snap.counters
            .get("grid.cell_failures_total")
            .copied()
            .unwrap_or(0),
        0
    );
    assert_eq!(
        snap.histograms["grid.cell.seconds"].count,
        total_cells as u64
    );
    assert_eq!(
        snap.histograms["grid.injector_depth"].count,
        total_cells as u64
    );
    // One publish per grid run, holding all of its records.
    let publishes = &snap.histograms["kb.publish.batch_records"];
    assert_eq!(publishes.count, 3);
    assert_eq!(publishes.sum, total_records as f64);
    assert_eq!(snap.histograms["grid.phase1.seconds"].count, 3);
    assert!(snap.histograms.contains_key("grid.queue_wait.seconds"));

    // Pipeline metrics: one run, every stage histogram populated once.
    assert_eq!(snap.counters["pipeline.runs_total"], 1);
    for stage in [
        "pipeline.stage.ingest.seconds",
        "pipeline.stage.quality.seconds",
        "pipeline.stage.advice.seconds",
        "pipeline.stage.preprocess.seconds",
        "pipeline.stage.mine.seconds",
        "pipeline.stage.publish.seconds",
    ] {
        assert_eq!(snap.histograms[stage].count, 1, "{stage}");
    }

    // Advisor metrics: 4 queries; index lookups hit both algorithms for
    // every query.
    assert_eq!(snap.counters["advisor.queries_total"], 4);
    assert_eq!(snap.histograms["advisor.advise.seconds"].count, 4);
    assert_eq!(snap.counters["advisor.index.hits_total"], 8);
    assert_eq!(snap.counters["advisor.index.empty_total"], 0);
    assert_eq!(snap.histograms["advisor.candidates"].count, 8);

    // The exported JSON carries the snapshot's values. Its full layout
    // is pinned by `json_shape_is_stable` in `openbi-obs`; here exact
    // fragments check that the values of a real run survive export.
    let json = snap.to_json();
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    assert!(
        has_member(&json, "grid.cells_total", &total_cells.to_string()),
        "counters survive export: {json}"
    );
    assert!(
        json.contains("\"advisor.advise.seconds\":{\"count\":4,"),
        "histogram counts survive export: {json}"
    );
    let inf = snap.histograms["grid.cell.seconds"]
        .buckets
        .last()
        .expect("bucket array");
    assert!(inf.le.is_infinite());
    let cell_buckets = json
        .split("\"grid.cell.seconds\":{")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("grid.cell.seconds is exported");
    assert!(
        cell_buckets.ends_with(&format!("{{\"le\":\"+Inf\",\"count\":{}}}", inf.count)),
        "the last bucket is +Inf: {cell_buckets}"
    );

    // After uninstall, recording is a no-op again.
    obs::counter_add("grid.cells_total", 999);
    assert_eq!(
        registry.snapshot().counters["grid.cells_total"],
        total_cells as u64
    );
}
