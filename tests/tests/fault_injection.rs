//! Chaos suite for the fault-injection subsystem (DESIGN.md §10).
//!
//! The headline guarantee: because fault decisions are pure hashes of
//! `(plan seed, rule, scope key)` and cell seeds derive from the grid
//! position, a faulted run that retries to success produces a knowledge
//! base **byte-identical** to the fault-free run — at every worker
//! count. The suite also proves the per-cell deadline bounds hung
//! cells, the pipeline degrades instead of aborting, the KB store's
//! injection points surface and recover, and the sharded OLAP cube
//! (DESIGN.md §14) retries shard faults to a byte-identical cube or
//! degrades to an explicitly flagged partial one.
//!
//! CI's `chaos` step sweeps a seed matrix through these tests via
//! `OPENBI_CHAOS_SEEDS` / `OPENBI_CHAOS_WORKERS` (comma-separated);
//! unset, a single fast seed runs locally.

use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
use openbi::kb::SnapshotKnowledgeBase;
use openbi::mining::AlgorithmSpec;
use openbi::olap::{
    quality_table_report, reference, Cube, CubeOptions, CubeResult, Measure, QualityThresholds,
    ShardPlan, CUBE_BUILD_FAULT_POINT,
};
use openbi::pipeline::{run_pipeline, DataSource, PipelineConfig};
use openbi_datagen::{make_blobs, BlobsConfig};
use openbi_faults::{FaultPlan, FaultRule};
use std::sync::Arc;
use std::time::Duration;

fn env_list(var: &str, default: &[u64]) -> Vec<u64> {
    std::env::var(var)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|x| x.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn chaos_seeds() -> Vec<u64> {
    env_list("OPENBI_CHAOS_SEEDS", &[7])
}

fn chaos_workers() -> Vec<usize> {
    env_list("OPENBI_CHAOS_WORKERS", &[1, 4])
        .into_iter()
        .map(|w| w as usize)
        .collect()
}

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
        parallel: true,
        workers,
        retry_backoff: Duration::ZERO,
        ..ExperimentConfig::default()
    }
}

/// Serialize a KB into a timing-free fingerprint, in store order (the
/// executor-determinism pattern: `train_ms` is the only wall-clock
/// field in a record).
fn kb_fingerprint(kb: &openbi::kb::KnowledgeBase) -> Vec<String> {
    kb.records()
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.metrics.train_ms = 0.0;
            serde_json::to_string(&r).unwrap()
        })
        .collect()
}

/// A plan that fails every cell's first attempt, plus two retries of
/// budget, must converge to the exact fault-free knowledge base — for
/// every seed in the matrix and every worker count.
#[test]
fn retried_faults_leave_the_kb_byte_identical() {
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    for seed in chaos_seeds() {
        let baseline_kb = SnapshotKnowledgeBase::default();
        let baseline =
            run_phase1_report(&datasets(), &criteria, &config(seed, 1), &baseline_kb).unwrap();
        assert!(baseline.failures.is_empty(), "baseline must be fault-free");
        let expected = kb_fingerprint(&baseline_kb.snapshot());
        assert!(!expected.is_empty());

        for workers in chaos_workers() {
            let plan = Arc::new(FaultPlan::new(seed).with(FaultRule::error("grid.cell.run")));
            let cfg = ExperimentConfig {
                max_retries: 2,
                fault_plan: Some(plan),
                ..config(seed, workers)
            };
            let kb = SnapshotKnowledgeBase::default();
            let report = run_phase1_report(&datasets(), &criteria, &cfg, &kb).unwrap();
            assert!(
                report.failures.is_empty(),
                "seed {seed}, {workers} workers: every cell must retry to success, got {:?}",
                report.failures
            );
            assert_eq!(report.cells_succeeded, report.cells);
            assert_eq!(
                report.total_retries(),
                report.cells,
                "seed {seed}: each cell fails exactly its first attempt"
            );
            assert_eq!(
                kb_fingerprint(&kb.snapshot()),
                expected,
                "seed {seed}, {workers} workers: faulted KB diverged from fault-free KB"
            );
        }
    }
}

/// Cells that hang past the deadline are abandoned and reported — the
/// grid finishes instead of stalling a worker forever.
#[test]
fn deadline_abandons_hung_cells_without_stalling_the_grid() {
    let plan =
        Arc::new(FaultPlan::new(3).with(FaultRule::delay("grid.cell.run", 2_000).times(u32::MAX)));
    let cfg = ExperimentConfig {
        severities: vec![0.5],
        cell_deadline: Some(Duration::from_millis(50)),
        fault_plan: Some(plan),
        ..config(13, 2)
    };
    let kb = SnapshotKnowledgeBase::default();
    let started = std::time::Instant::now();
    let report = run_phase1_report(&datasets(), &[Criterion::Completeness], &cfg, &kb).unwrap();
    assert_eq!(report.cells_succeeded, 0);
    assert_eq!(report.failures.len(), report.cells);
    for f in &report.failures {
        assert!(f.error.contains("deadline"), "{}", f.error);
        assert_eq!(f.attempts, 1, "no retry budget: one attempt per cell");
    }
    assert_eq!(kb.snapshot().len(), 0, "abandoned cells must not publish");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the grid must not wait out every injected 2 s delay serially"
    );
}

/// A failing quality stage degrades the Figure-2 pipeline — the run
/// completes with an explicit `Degraded` marker, unannotated advice
/// context, and a mining result — instead of aborting.
#[test]
fn pipeline_degrades_instead_of_aborting() {
    let source = DataSource::CsvText {
        name: "chaos-demo".into(),
        content: "a,b,label\n1,x,p\n2,y,q\n3,x,p\n4,y,q\n5,x,p\n6,y,q\n".into(),
    };
    let plan = Arc::new(FaultPlan::new(5).with(FaultRule::error("pipeline.stage.quality")));
    let cfg = PipelineConfig {
        target: Some("label".into()),
        folds: 2,
        fault_plan: Some(plan),
        ..Default::default()
    };
    let outcome = run_pipeline(source, &cfg, None).unwrap();
    assert!(outcome.is_degraded());
    assert_eq!(outcome.degraded.len(), 1);
    assert_eq!(outcome.degraded[0].stage, "quality");
    assert!(
        outcome.degraded[0].error.contains("injected fault"),
        "{}",
        outcome.degraded[0].error
    );
    assert!(
        outcome.evaluation.is_some(),
        "mining must still run on a degraded profile"
    );
    let report = openbi::render_outcome(&outcome);
    assert!(report.contains("DEGRADED RUN"), "{report}");
}

/// The quality stage runs twice per pipeline — the raw profile in phase
/// 2 (attempt 0) and the post-preprocessing re-measure in phase 4
/// (attempt 1) — and **both** occurrences sit inside the degradation
/// harness. A rule with two firings of budget must degrade both, leave
/// `profile_after` at the phase-2 fallback it was cloned from, and still
/// finish the run.
#[test]
fn quality_faults_in_both_phases_degrade_twice_and_complete() {
    let source = DataSource::CsvText {
        name: "chaos-demo-2".into(),
        content: "a,b,label\n1,x,p\n2,y,q\n3,x,p\n4,y,q\n5,x,p\n6,y,q\n".into(),
    };
    let plan =
        Arc::new(FaultPlan::new(5).with(FaultRule::error("pipeline.stage.quality").times(2)));
    let cfg = PipelineConfig {
        target: Some("label".into()),
        folds: 2,
        fault_plan: Some(plan),
        ..Default::default()
    };
    let outcome = run_pipeline(source, &cfg, None).unwrap();
    let quality_degradations: Vec<_> = outcome
        .degraded
        .iter()
        .filter(|d| d.stage == "quality")
        .collect();
    assert_eq!(
        quality_degradations.len(),
        2,
        "phase 2 and phase 4 must each record a quality degradation: {:?}",
        outcome.degraded
    );
    assert!(
        quality_degradations[1].fallback.contains("reused"),
        "phase 4 falls back to the pre-preprocessing profile: {:?}",
        quality_degradations[1].fallback
    );
    // Phase 2 fell back to the default profile and phase 4 reused it, so
    // both sides of the before/after comparison are the same fallback.
    assert_eq!(outcome.profile, outcome.profile_after);
    assert!(
        outcome.evaluation.is_some(),
        "mining must still run after a double quality degradation"
    );
}

/// The knowledge-base store's injection points are reached through the
/// process-global slot, surface as ordinary I/O errors, and disappear
/// on uninstall. Install/uninstall stay inside this one test; the plan
/// only matches `kb.store.*`, so concurrent tests in this binary (which
/// never touch the store) cannot observe it.
#[test]
fn store_io_faults_surface_and_recover() {
    let dir = std::env::temp_dir().join("openbi-chaos-store");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kb.jsonl");
    let kb = openbi::kb::KnowledgeBase::new();

    kb.save(&path).expect("fault-free save succeeds");

    let plan = Arc::new(
        FaultPlan::new(9)
            .with(FaultRule::error("kb.store.save").times(u32::MAX))
            .with(FaultRule::error("kb.store.load").times(u32::MAX)),
    );
    openbi_faults::install(plan);
    let save_err = kb.save(&path).expect_err("injected save fault");
    assert!(
        save_err.to_string().contains("injected fault"),
        "{save_err}"
    );
    let load_err = openbi::kb::KnowledgeBase::load(&path).expect_err("injected load fault");
    assert!(
        load_err.to_string().contains("injected fault"),
        "{load_err}"
    );
    openbi_faults::uninstall();

    kb.save(&path).expect("save recovers after uninstall");
    let restored = openbi::kb::KnowledgeBase::load(&path).expect("load recovers");
    assert_eq!(restored.len(), kb.len());
    std::fs::remove_file(&path).ok();
}

/// Injected `kb.publish` faults degrade the snapshot store — batches
/// fall back to the pending queue, the served snapshot stays on its
/// last good generation — and a bounded flush retry loop converges to
/// the exact fault-free knowledge base. A snapshot pinned before the
/// run never changes, no matter how many publishes fail behind it.
#[test]
fn publish_faults_degrade_without_corrupting_served_snapshots() {
    use openbi::kb::KnowledgeBase;

    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    for seed in chaos_seeds() {
        let baseline_kb = SnapshotKnowledgeBase::default();
        let baseline =
            run_phase1_report(&datasets(), &criteria, &config(seed, 1), &baseline_kb).unwrap();
        assert!(baseline.failures.is_empty(), "baseline must be fault-free");
        let expected = kb_fingerprint(&baseline_kb.snapshot());

        for workers in chaos_workers() {
            // The plan lives on the store, not the executor: grid cells
            // run clean, only generation publishes misbehave (each
            // generation's first attempt fails under the times=1 budget).
            let plan = Arc::new(FaultPlan::new(seed).with(FaultRule::error("kb.publish")));
            let store = SnapshotKnowledgeBase::new(KnowledgeBase::new()).with_fault_plan(plan);
            let pinned = store.pin();

            let report =
                run_phase1_report(&datasets(), &criteria, &config(seed, workers), &store).unwrap();
            assert!(
                report.failures.is_empty(),
                "publish faults must not fail grid cells: {:?}",
                report.failures
            );
            assert_eq!(
                (pinned.generation(), pinned.len()),
                (0, 0),
                "seed {seed}, {workers} workers: pre-run pin must be untouched"
            );

            // Operational drain loop: each flush either publishes the
            // backlog or surfaces the injected fault; the per-generation
            // retry budget guarantees convergence within two attempts
            // per generation.
            let mut flushes = 0;
            while store.pending_len() > 0 {
                if let Err(e) = store.flush() {
                    assert!(e.to_string().contains("injected fault"), "{e}");
                }
                flushes += 1;
                assert!(flushes < 64, "flush retry loop must converge");
            }
            assert!(store.generation() > 0, "drained store must have published");
            assert_eq!(
                kb_fingerprint(&store.pin()),
                expected,
                "seed {seed}, {workers} workers: degraded publishing corrupted the KB"
            );
        }
    }
}

/// The OLAP cube workload used by the shard-fault tests: the
/// municipal-budget fact table rolled up by district × category with
/// the full aggregate roster over spend.
fn budget_cube(seed: u64) -> Cube {
    let facts = openbi::datagen::municipal_budget(600, seed).table;
    Cube::new(
        facts,
        &["district", "category"],
        vec![
            Measure::Sum("spent_eur".into()),
            Measure::Mean("spent_eur".into()),
            Measure::Count("spent_eur".into()),
            Measure::Min("spent_eur".into()),
            Measure::Max("spent_eur".into()),
        ],
    )
    .expect("workload dims exist")
}

/// Shard builds that fail their first attempt and retry to success
/// must produce a cube byte-identical to the fault-free build — same
/// table fingerprint, same quality annotations — at every shard count
/// in the chaos matrix. This is the grid-executor determinism argument
/// replayed against the OLAP engine: a retried shard re-aggregates the
/// exact same contiguous row range, so the merge cannot tell it ever
/// failed.
#[test]
fn retried_shard_faults_leave_the_cube_byte_identical() {
    let dims = ["district", "category"];
    for seed in chaos_seeds() {
        let cube = budget_cube(seed);
        let baseline = cube
            .rollup_quality(&dims, &CubeOptions::with_shards(4))
            .unwrap();
        assert!(!baseline.is_degraded(), "baseline must be fault-free");
        assert!(baseline.table.n_rows() > 0);

        for shards in chaos_workers() {
            let plan =
                Arc::new(FaultPlan::new(seed).with(FaultRule::error(CUBE_BUILD_FAULT_POINT)));
            let options = CubeOptions {
                shards,
                max_retries: 2,
                fault_plan: Some(plan),
            };
            let got = cube.rollup_quality(&dims, &options).unwrap();
            assert!(
                got.failed_shards.is_empty(),
                "seed {seed}, {shards} shard(s): every shard must retry to success, got {:?}",
                got.failed_shards
            );
            assert_eq!(
                baseline.table.fingerprint(),
                got.table.fingerprint(),
                "seed {seed}, {shards} shard(s): faulted cube diverged from fault-free cube"
            );
            assert_eq!(
                baseline.quality, got.quality,
                "seed {seed}, {shards} shard(s): quality annotations diverged"
            );
        }
    }
}

/// A partial cube is the reference cube over exactly the surviving
/// shards' rows: the same groups in the same first-seen order (a group
/// first seen in a failed shard takes the place of its first surviving
/// row), the same aggregate bits, and supports that sum to the
/// surviving row count.
fn assert_partial_cube_covers_the_survivors(
    cube: &Cube,
    dims: &[&str],
    partial: &CubeResult,
    context: &str,
) {
    let facts = cube.facts();
    let surviving: Vec<usize> = ShardPlan::contiguous(facts.n_rows(), partial.total_shards)
        .bounds
        .iter()
        .enumerate()
        .filter(|(shard, _)| !partial.failed_shards.contains(shard))
        .flat_map(|(_, &(start, end))| start..end)
        .collect();
    let survivors = reference::Cube::new(
        facts.take(&surviving).unwrap(),
        dims,
        cube.measures().to_vec(),
    )
    .unwrap();
    assert_eq!(
        survivors.rollup(dims).unwrap().fingerprint(),
        partial.table.fingerprint(),
        "{context}: failed shards {:?}: the partial cube must equal the reference over the surviving rows",
        partial.failed_shards
    );
    let support: u64 = partial.quality.iter().map(|q| q.support).sum();
    assert_eq!(
        support,
        surviving.len() as u64,
        "{context}: supports must sum to the surviving row count"
    );
}

/// When a shard's retries are exhausted the build must degrade, not
/// abort: `rollup_quality` still returns `Ok`, the failed shards are
/// named, the surviving totals are visibly partial (lower support than
/// the clean build), and the rendered report leads with the `DEGRADED`
/// banner so the partial numbers cannot be mistaken for real ones.
#[test]
fn exhausted_shard_retries_flag_a_partial_cube_instead_of_aborting() {
    let dims = ["district", "category"];
    let cube = budget_cube(7);
    let clean = cube
        .rollup_quality(&dims, &CubeOptions::with_shards(8))
        .unwrap();
    let clean_support: u64 = clean.quality.iter().map(|q| q.support).sum();

    // Every attempt on ~half the shards fails (deterministic key-hash
    // selection), with a retry budget too small to save them.
    let plan = Arc::new(
        FaultPlan::new(11).with(
            FaultRule::error(CUBE_BUILD_FAULT_POINT)
                .ratio(0.5)
                .times(u32::MAX),
        ),
    );
    let options = CubeOptions {
        shards: 8,
        max_retries: 2,
        fault_plan: Some(plan),
    };
    let degraded = cube
        .rollup_quality(&dims, &options)
        .expect("exhausted retries degrade, they do not abort");

    assert!(degraded.is_degraded());
    assert_eq!(degraded.total_shards, 8);
    assert!(
        !degraded.failed_shards.is_empty() && degraded.failed_shards.len() < 8,
        "the 0.5 ratio must fail some shards and spare others, got {:?}",
        degraded.failed_shards
    );
    let partial_support: u64 = degraded.quality.iter().map(|q| q.support).sum();
    assert!(
        partial_support < clean_support,
        "partial cube must cover fewer fact rows ({partial_support} vs {clean_support})"
    );
    assert_partial_cube_covers_the_survivors(&cube, &dims, &degraded, "plan seed 11");
    // Other plan seeds fail other shard sets, the first shard included.
    let mut failed_first_shard = false;
    for seed in chaos_seeds() {
        let cube = budget_cube(seed);
        for plan_seed in 11..=13 {
            let plan = Arc::new(
                FaultPlan::new(plan_seed).with(
                    FaultRule::error(CUBE_BUILD_FAULT_POINT)
                        .ratio(0.5)
                        .times(u32::MAX),
                ),
            );
            let options = CubeOptions {
                fault_plan: Some(plan),
                ..options.clone()
            };
            let partial = cube.rollup_quality(&dims, &options).unwrap();
            assert!(partial.is_degraded(), "plan seed {plan_seed} fails a shard");
            failed_first_shard |= partial.failed_shards.contains(&0);
            assert_partial_cube_covers_the_survivors(
                &cube,
                &dims,
                &partial,
                &format!("data seed {seed}, plan seed {plan_seed}"),
            );
        }
    }
    assert!(failed_first_shard, "some plan seed must fail shard 0");

    let report = quality_table_report(
        "degraded budget rollup",
        &degraded,
        &QualityThresholds::default(),
        usize::MAX,
    )
    .unwrap();
    assert!(
        report.contains("!! DEGRADED"),
        "report must lead with the degradation banner:\n{report}"
    );
    assert!(
        report.contains(&format!(
            "{}/{} shards failed",
            degraded.failed_shards.len(),
            degraded.total_shards
        )),
        "banner must name the failed-shard count:\n{report}"
    );

    // The same build with enough retry budget recovers completely:
    // `times(u32::MAX)` never stops firing, so recovery must come from
    // a plan whose rules spend their budget, exactly like the retried
    // test above.
    let recovered_plan = Arc::new(
        FaultPlan::new(11).with(FaultRule::error(CUBE_BUILD_FAULT_POINT).ratio(0.5).times(1)),
    );
    let recovered = cube
        .rollup_quality(
            &dims,
            &CubeOptions {
                shards: 8,
                max_retries: 2,
                fault_plan: Some(recovered_plan),
            },
        )
        .unwrap();
    assert!(!recovered.is_degraded());
    assert_eq!(clean.table.fingerprint(), recovered.table.fingerprint());
}
