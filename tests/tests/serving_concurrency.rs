//! Concurrency smoke tests for the knowledge-base store
//! (DESIGN.md §13): reader threads answer advisor queries through
//! [`AdvisorService`] while the experiment grid publishes into the same
//! [`SnapshotKnowledgeBase`]. Every reader must see generations advance
//! monotonically, every pinned snapshot must be internally consistent
//! (one generation ⇔ one store size), and the final published contents
//! must match a sequential run record-for-record.

use openbi::experiment::{
    phase1_cells, run_cells, run_phase1_report, Criterion, ExperimentCell, ExperimentConfig,
    ExperimentDataset,
};
use openbi::kb::{Advisor, AdvisorService, ExperimentRecord, KnowledgeBase, SnapshotKnowledgeBase};
use openbi::mining::AlgorithmSpec;
use openbi::quality::QualityProfile;
use openbi_datagen::{make_blobs, BlobsConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const READERS: usize = 3;

/// Cells per grid run: each run publishes one generation, so the grid
/// runs in chunks to give the readers several publishes to race.
const CHUNK: usize = 2;

fn datasets() -> Vec<ExperimentDataset> {
    [1u64, 2]
        .iter()
        .map(|&seed| {
            ExperimentDataset::new(
                format!("blobs-{seed}"),
                make_blobs(&BlobsConfig {
                    n_rows: 120,
                    n_features: 4,
                    n_classes: 2,
                    class_separation: 3.0,
                    seed,
                }),
                "class",
            )
        })
        .collect()
}

fn config(seed: u64, workers: usize) -> ExperimentConfig {
    ExperimentConfig {
        algorithms: vec![AlgorithmSpec::ZeroR, AlgorithmSpec::NaiveBayes],
        severities: vec![0.0, 1.0],
        folds: 2,
        seed,
        parallel: workers > 1,
        workers,
        ..ExperimentConfig::default()
    }
}

/// Two records so the advisor has something to rank from generation 1.
fn seed_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.add_batch(["ZeroR", "NaiveBayes"].iter().enumerate().map(|(i, alg)| {
        let mut r = ExperimentRecord {
            dataset: "seed".into(),
            algorithm: (*alg).into(),
            seed: i as u64,
            ..ExperimentRecord::default()
        };
        r.metrics.accuracy = 0.5 + 0.1 * i as f64;
        r
    }));
    kb
}

/// Timing-free record fingerprint, in store order (the chaos-suite
/// pattern: `train_ms` is the only wall-clock field).
fn fingerprint(kb: &KnowledgeBase) -> Vec<String> {
    kb.records()
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.metrics.train_ms = 0.0;
            serde_json::to_string(&r).unwrap()
        })
        .collect()
}

/// Readers hammer `AdvisorService::advise` while a multi-worker grid
/// publishes into the store, one generation per contiguous chunk of
/// `CHUNK` cells. Per reader: the generations of successive answers
/// never go backwards. Across readers: a generation uniquely determines
/// the store size, and sizes only grow with generations. Afterwards:
/// the store holds one generation per chunk and matches a sequential
/// single-worker run record for record, in order.
#[test]
fn readers_stay_consistent_while_the_grid_publishes() {
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    let datasets = datasets();
    let grid = config(11, 4);
    let store = Arc::new(SnapshotKnowledgeBase::new(seed_kb()));
    store.flush().expect("seeding is fault-free");
    let seeded_generation = store.generation();
    let service = AdvisorService::new(Advisor::default(), Arc::clone(&store));
    let profiles = vec![QualityProfile::default(); 4];
    let stop = AtomicBool::new(false);

    let chunks = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut last_generation = 0u64;
                    let mut observations = Vec::new();
                    loop {
                        for profile in &profiles {
                            let served = service.advise(profile).expect("advise during publishes");
                            assert!(
                                served.generation >= last_generation,
                                "reader saw generations go backwards: {} after {}",
                                served.generation,
                                last_generation
                            );
                            last_generation = served.generation;
                        }
                        let pin = store.pin();
                        observations.push((pin.generation(), pin.len()));
                        if stop.load(Ordering::Relaxed) {
                            return observations;
                        }
                        std::thread::sleep(Duration::from_micros(500));
                    }
                })
            })
            .collect();
        let mut cells = phase1_cells(&datasets, &criteria, &grid)
            .unwrap()
            .into_iter();
        let mut chunks = 0u64;
        loop {
            let chunk: Vec<ExperimentCell> = cells.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            let report = run_cells(&datasets, chunk, &grid, &store).unwrap();
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            chunks += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let mut observations: Vec<(u64, usize)> = Vec::new();
        for r in readers {
            observations.extend(r.join().expect("reader thread"));
        }
        // Cross-reader consistency: snapshots are immutable, so one
        // generation maps to exactly one store size, and appends mean
        // later generations are never smaller.
        observations.sort_unstable();
        for w in observations.windows(2) {
            if w[0].0 == w[1].0 {
                assert_eq!(
                    w[0].1, w[1].1,
                    "generation {} observed with two different sizes",
                    w[0].0
                );
            } else {
                assert!(
                    w[0].1 <= w[1].1,
                    "generation {} holds more records than later generation {}",
                    w[0].0,
                    w[1].0
                );
            }
        }
        chunks
    });

    store.flush().expect("drain is fault-free");
    assert_eq!(store.pending_len(), 0);
    // 2 datasets × 2 criteria × 2 severities = 8 cells.
    assert_eq!(chunks, 4);
    assert_eq!(
        store.generation(),
        seeded_generation + chunks,
        "each grid run publishes one generation"
    );

    // Record-for-record equality with a sequential single-worker run
    // over the same seed records.
    let baseline = SnapshotKnowledgeBase::new(seed_kb());
    let baseline_report =
        run_phase1_report(&datasets, &criteria, &config(11, 1), &baseline).unwrap();
    assert!(baseline_report.failures.is_empty());
    assert_eq!(
        fingerprint(&store.pin()),
        fingerprint(&baseline.snapshot()),
        "concurrent snapshot store diverged from the sequential baseline"
    );
}

/// A snapshot pinned before the grid starts is untouched by every
/// publish that lands afterwards — same generation, same contents.
#[test]
fn pinned_snapshots_survive_grid_publishes_untouched() {
    let store = Arc::new(SnapshotKnowledgeBase::new(seed_kb()));
    store.flush().expect("seeding is fault-free");
    let pinned = store.pin();
    let pinned_generation = pinned.generation();
    let pinned_fingerprint = fingerprint(&pinned);

    let report = run_phase1_report(
        &datasets(),
        &[Criterion::Completeness],
        &config(23, 4),
        &store,
    )
    .unwrap();
    assert!(report.failures.is_empty());
    store.flush().expect("drain is fault-free");

    assert_eq!(pinned.generation(), pinned_generation);
    assert_eq!(
        fingerprint(&pinned),
        pinned_fingerprint,
        "a pinned snapshot must be immutable across publishes"
    );
    assert!(store.generation() > pinned_generation);
    assert!(store.pin().len() > pinned.len());
}
