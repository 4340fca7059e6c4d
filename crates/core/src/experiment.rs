//! The §3.1 experiment runner: degrade clean datasets in a controlled
//! way, evaluate every algorithm on every degraded variant, and record
//! everything in the DQ4DM knowledge base.
//!
//! * **Phase 1 ("simple")** applies each data-quality criterion
//!   individually, over a severity sweep.
//! * **Phase 2 ("mixed")** applies pairs of criteria jointly.
//!
//! Both phases flatten into independent [`ExperimentCell`]s — one per
//! (dataset, degradation, seed) grid point — executed by a pool of
//! scoped worker threads against the [`SnapshotKnowledgeBase`] store
//! (DESIGN.md §13). Each cell's seed is derived from its grid position,
//! never from the worker that happens to run it, so any worker count
//! produces the same records.
//!
//! ## Execution model (DESIGN.md §7)
//!
//! [`run_cells`] runs one loop at every worker count: each worker
//! claims the next cell index from a shared atomic cursor until the
//! grid is exhausted, and keeps each cell's outcome under its grid
//! index. After the join the outcomes are sorted once and every
//! [`ExperimentRecord`] is published with one `add_batch`, in grid
//! order, so any worker count builds the same knowledge base, record
//! for record. A cell that errors or panics becomes a [`CellFailure`]
//! in the [`GridReport`], listed in grid order, instead of tearing down
//! the run; a panic outside a cell's containment, or in the publish,
//! makes the run an `Err`.
//!
//! ## Observability (DESIGN.md §9)
//!
//! The executor is instrumented with `openbi-obs`: per-cell wall time,
//! cell/record/failure counters, claim time, and
//! remaining-queue-depth samples are recorded into the process-global
//! metrics registry when one is [`installed`](openbi_obs::install)
//! (near-zero cost otherwise), and per-worker totals are always
//! surfaced in [`GridReport::worker_stats`]. None of this affects the
//! records produced: instrumentation only reads the wall clock, so the
//! identical-KB-across-worker-counts guarantee holds with a registry
//! installed (see `tests/observability.rs`).
//!
//! ## Resilience (DESIGN.md §10)
//!
//! Failed cells are retried up to [`ExperimentConfig::max_retries`]
//! times with deterministic exponential backoff, and
//! [`ExperimentConfig::cell_deadline`] bounds each attempt's wall time
//! so a hung cell cannot stall a worker forever. The `grid.cell.run`
//! injection point (`openbi-faults`) sits in front of every attempt,
//! keyed by the cell's position-derived seed — so an injected fault
//! fires on the same cells at the same attempts regardless of worker
//! count, and the chaos suite can assert that a run with faults plus
//! retries produces a byte-identical knowledge base.

use crate::error::{OpenBiError, Result};
use openbi_kb::{ExperimentRecord, PerfMetrics, SnapshotKnowledgeBase};
use openbi_mining::eval::crossval::cross_validate;
use openbi_mining::{AlgorithmSpec, Instances};
use openbi_quality::inject::{
    AttributeNoiseInjector, CorrelatedInjector, Degradation, DuplicateInjector, ImbalanceInjector,
    InconsistencyInjector, IrrelevantInjector, LabelNoiseInjector, MissingInjector,
    OutlierInjector,
};
use openbi_quality::{measure_profile_cached, MeasureOptions};
use openbi_table::{par, Table};

use openbi_faults::FaultPlan;
use openbi_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A clean input dataset for the experiments.
#[derive(Debug, Clone)]
pub struct ExperimentDataset {
    /// Dataset identifier.
    pub name: String,
    /// The clean table.
    pub table: Table,
    /// Target (class) column.
    pub target: String,
    /// Identifier columns excluded from mining.
    pub exclude: Vec<String>,
}

impl ExperimentDataset {
    /// Create a dataset with no excluded columns.
    pub fn new(name: impl Into<String>, table: Table, target: impl Into<String>) -> Self {
        ExperimentDataset {
            name: name.into(),
            table,
            target: target.into(),
            exclude: vec![],
        }
    }

    /// The first numeric feature column — used as MAR driver and
    /// redundancy source.
    pub fn numeric_driver(&self) -> Option<String> {
        self.table
            .columns()
            .iter()
            .find(|c| {
                c.dtype().is_numeric()
                    && c.name() != self.target
                    && !self.exclude.iter().any(|e| e == c.name())
            })
            .map(|c| c.name().to_string())
    }
}

/// The data-quality criteria of the experiment suite (the paper's "data
/// quality criteria" axis of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// MCAR missing values (experiment E1).
    Completeness,
    /// MAR missing values driven by a numeric attribute (E1).
    CompletenessMar,
    /// Class-label flips (E2).
    LabelNoise,
    /// Gaussian attribute noise (E3).
    AttributeNoise,
    /// Class imbalance by minority subsampling (E4).
    Imbalance,
    /// Strongly correlated redundant attributes (E5).
    Redundancy,
    /// Irrelevant attributes / high dimensionality (E6).
    Dimensionality,
    /// Exact + near duplicate rows (E7).
    Duplicates,
    /// Numeric outliers (companion of E3).
    Outliers,
    /// Inconsistent string formats.
    Inconsistency,
}

impl Criterion {
    /// The full criterion list, in experiment order.
    pub fn all() -> Vec<Criterion> {
        vec![
            Criterion::Completeness,
            Criterion::CompletenessMar,
            Criterion::LabelNoise,
            Criterion::AttributeNoise,
            Criterion::Imbalance,
            Criterion::Redundancy,
            Criterion::Dimensionality,
            Criterion::Duplicates,
            Criterion::Outliers,
            Criterion::Inconsistency,
        ]
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Criterion::Completeness => "completeness",
            Criterion::CompletenessMar => "completeness-mar",
            Criterion::LabelNoise => "label-noise",
            Criterion::AttributeNoise => "attribute-noise",
            Criterion::Imbalance => "imbalance",
            Criterion::Redundancy => "redundancy",
            Criterion::Dimensionality => "dimensionality",
            Criterion::Duplicates => "duplicates",
            Criterion::Outliers => "outliers",
            Criterion::Inconsistency => "inconsistency",
        }
    }

    /// Build the degradation realizing this criterion at `severity` in
    /// `[0,1]` on the given dataset. Severity 0 is the clean baseline.
    pub fn degradation(&self, severity: f64, dataset: &ExperimentDataset) -> Result<Degradation> {
        if !(0.0..=1.0).contains(&severity) {
            return Err(OpenBiError::Config(format!(
                "severity {severity} outside [0,1]"
            )));
        }
        if severity == 0.0 {
            return Ok(Degradation::new());
        }
        let target = dataset.target.clone();
        let protect: Vec<String> = dataset
            .exclude
            .iter()
            .cloned()
            .chain([target.clone()])
            .collect();
        let d =
            match self {
                Criterion::Completeness => {
                    Degradation::new().then(MissingInjector::mcar(0.4 * severity).exclude(protect))
                }
                Criterion::CompletenessMar => {
                    let driver = dataset.numeric_driver().ok_or_else(|| {
                        OpenBiError::Config(format!(
                            "dataset {} has no numeric driver for MAR",
                            dataset.name
                        ))
                    })?;
                    Degradation::new()
                        .then(MissingInjector::mar(0.4 * severity, driver).exclude(protect))
                }
                Criterion::LabelNoise => {
                    Degradation::new().then(LabelNoiseInjector::new(target, 0.35 * severity))
                }
                Criterion::AttributeNoise => Degradation::new()
                    .then(AttributeNoiseInjector::new(severity.min(1.0), 2.0).exclude(protect)),
                Criterion::Imbalance => {
                    Degradation::new().then(ImbalanceInjector::new(target, 0.5 + 0.45 * severity))
                }
                Criterion::Redundancy => {
                    let source = dataset.numeric_driver().ok_or_else(|| {
                        OpenBiError::Config(format!(
                            "dataset {} has no numeric source for redundancy",
                            dataset.name
                        ))
                    })?;
                    let copies = (4.0 * severity).round().max(1.0) as usize;
                    Degradation::new().then(CorrelatedInjector::new(source, copies, 0.05))
                }
                Criterion::Dimensionality => {
                    let count = (48.0 * severity).round().max(1.0) as usize;
                    Degradation::new().then(IrrelevantInjector::gaussian(count))
                }
                Criterion::Duplicates => Degradation::new()
                    .then(DuplicateInjector::near(0.45 * severity, 0.02).exclude(protect)),
                Criterion::Outliers => Degradation::new()
                    .then(OutlierInjector::new(0.12 * severity, 6.0).exclude(protect)),
                Criterion::Inconsistency => Degradation::new()
                    .then(InconsistencyInjector::new(0.8 * severity).exclude(protect)),
            };
        Ok(d)
    }
}

/// Experiment-suite configuration (the paper's "user profile" input:
/// which criteria to assess and which techniques the user considers).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Algorithms to evaluate.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Severity sweep (0 = clean baseline; include it to anchor curves).
    pub severities: Vec<f64>,
    /// Cross-validation folds.
    pub folds: usize,
    /// Master seed.
    pub seed: u64,
    /// Run experiment cells on a parallel worker pool.
    pub parallel: bool,
    /// Worker threads for the cell executor; 0 = one per available
    /// core. Ignored when `parallel` is off.
    pub workers: usize,
    /// Extra attempts for a failed cell: a cell runs at most
    /// `max_retries + 1` times before it becomes a [`CellFailure`].
    /// `0` (the default) keeps the original fail-once behaviour.
    pub max_retries: u32,
    /// Base delay before retry `n` (the executor waits
    /// `retry_backoff × 2^(n−1)`, capped at one second). Deterministic —
    /// no jitter — so chaos runs replay identically.
    pub retry_backoff: Duration,
    /// Wall-clock budget per cell attempt. When set, each attempt runs
    /// on a detachable thread and is abandoned (counted as a failure,
    /// records discarded) once the deadline passes, so a hung cell
    /// cannot stall a worker. `None` (the default) runs attempts inline
    /// with no deadline and no extra thread.
    pub cell_deadline: Option<Duration>,
    /// Fault plan for chaos testing. `None` falls back to the
    /// process-global plan ([`openbi_faults::active`]), so both
    /// config-scoped tests and CLI-installed plans reach the executor.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            algorithms: AlgorithmSpec::standard_suite(),
            severities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            folds: 5,
            seed: 42,
            parallel: true,
            workers: 0,
            max_retries: 0,
            retry_backoff: Duration::from_millis(10),
            cell_deadline: None,
            fault_plan: None,
        }
    }
}

impl ExperimentConfig {
    /// The worker count the executor will actually use: 1 when
    /// `parallel` is off, `workers` when nonzero, otherwise one worker
    /// per available core.
    pub fn effective_workers(&self) -> usize {
        if !self.parallel {
            1
        } else if self.workers > 0 {
            self.workers
        } else {
            par::cores()
        }
    }
}

/// One independent unit of the experiment grid: a dataset, the
/// degradation to apply to it, and the seed that reproduces it. Cells
/// carry everything a worker needs, so the executor can hand them to
/// any thread in any order.
#[derive(Debug)]
pub struct ExperimentCell {
    /// Index into the dataset slice handed to the executor.
    pub dataset: usize,
    /// The degradation this cell applies before evaluating.
    pub degradation: Degradation,
    /// Cell seed, derived from the grid position — never from the
    /// worker — so parallel and sequential runs yield identical records.
    pub seed: u64,
}

/// A cell that failed or panicked, with enough context to re-run it.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Dataset name.
    pub dataset: String,
    /// Human-readable degradation steps of the failed cell.
    pub degradations: Vec<String>,
    /// The cell seed.
    pub seed: u64,
    /// The error or panic message of the final attempt.
    pub error: String,
    /// How many attempts were made (1 when retries are off; at most
    /// `max_retries + 1`).
    pub attempts: u32,
}

/// Per-worker execution totals for one grid run. Collected on the
/// worker's own stack (no shared-state contention on the hot path) and
/// returned through its join handle into [`GridReport::worker_stats`].
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index in `0..effective_workers`.
    pub worker: usize,
    /// Cells this worker executed (including failed ones).
    pub cells: usize,
    /// Total seconds spent claiming cells from the shared cursor
    /// (includes the final claim that finds the grid exhausted).
    pub queue_wait_seconds: f64,
    /// Total seconds spent actually executing cells.
    pub busy_seconds: f64,
    /// Retry attempts this worker made (beyond each cell's first
    /// attempt).
    pub retries: usize,
}

/// What a grid run produced: record count plus the cells that were
/// skipped because they failed. One bad cell no longer poisons the
/// whole suite — it lands here instead.
#[derive(Debug, Clone, Default)]
pub struct GridReport {
    /// Knowledge-base records written.
    pub records: usize,
    /// Total cells executed (including failed ones).
    pub cells: usize,
    /// Cells that produced records (possibly after retries).
    pub cells_succeeded: usize,
    /// Cells that errored or panicked on every attempt and were
    /// skipped, in grid order.
    pub failures: Vec<CellFailure>,
    /// Wall-clock seconds for the whole [`run_cells`] call.
    pub wall_seconds: f64,
    /// Per-worker totals, sorted by worker index; one entry per worker
    /// even when a worker never won a cell.
    pub worker_stats: Vec<WorkerStats>,
}

impl GridReport {
    /// Total retry attempts across all workers.
    pub fn total_retries(&self) -> usize {
        self.worker_stats.iter().map(|s| s.retries).sum()
    }
}

/// Evaluate one degraded variant without touching any store: one
/// record per algorithm, in `config.algorithms` order. The degraded
/// table, its quality profile, and the `Table` → [`Instances`]
/// conversion are built once and shared by every algorithm evaluation.
fn evaluate_cell(
    dataset: &ExperimentDataset,
    degradation: &Degradation,
    config: &ExperimentConfig,
    seed: u64,
) -> Result<Vec<ExperimentRecord>> {
    let degraded = degradation.apply(&dataset.table, seed)?;
    let exclude: Vec<&str> = dataset.exclude.iter().map(String::as_str).collect();
    let profile = measure_profile_cached(
        &degraded,
        &MeasureOptions {
            target: Some(dataset.target.clone()),
            exclude: dataset.exclude.clone(),
        },
    );
    let instances = Instances::from_table(&degraded, Some(&dataset.target), &exclude)?;
    let mut records = Vec::with_capacity(config.algorithms.len());
    for spec in &config.algorithms {
        let eval = cross_validate(&instances, spec, config.folds, seed)?;
        records.push(ExperimentRecord {
            dataset: dataset.name.clone(),
            degradations: degradation.describe(),
            profile: profile.clone(),
            algorithm: eval.algorithm.clone(),
            metrics: PerfMetrics {
                accuracy: eval.accuracy(),
                macro_f1: eval.macro_f1(),
                minority_f1: eval.minority_f1(),
                kappa: eval.kappa(),
                train_ms: eval.train_ms,
                model_size: eval.model_size,
            },
            seed,
        });
    }
    Ok(records)
}

/// Flatten phase 1 ("simple" criteria) into cells: every dataset ×
/// criterion × severity grid point. Fails fast on configuration errors
/// (e.g. a dataset with no numeric MAR driver).
pub fn phase1_cells(
    datasets: &[ExperimentDataset],
    criteria: &[Criterion],
    config: &ExperimentConfig,
) -> Result<Vec<ExperimentCell>> {
    let mut cells = Vec::with_capacity(datasets.len() * criteria.len() * config.severities.len());
    for (di, dataset) in datasets.iter().enumerate() {
        for (ci, criterion) in criteria.iter().enumerate() {
            for (si, &severity) in config.severities.iter().enumerate() {
                cells.push(ExperimentCell {
                    dataset: di,
                    degradation: criterion.degradation(severity, dataset)?,
                    seed: config
                        .seed
                        .wrapping_add((ci as u64) << 16)
                        .wrapping_add(si as u64),
                });
            }
        }
    }
    Ok(cells)
}

/// Flatten phase 2 ("mixed" criteria) into cells: every dataset × pair
/// × severity × severity grid point, minus the clean-clean baseline
/// (which belongs to phase 1).
pub fn phase2_cells(
    datasets: &[ExperimentDataset],
    pairs: &[(Criterion, Criterion)],
    config: &ExperimentConfig,
) -> Result<Vec<ExperimentCell>> {
    let mut cells = Vec::new();
    for (di, dataset) in datasets.iter().enumerate() {
        for (pi, (a, b)) in pairs.iter().enumerate() {
            for (si, &sa) in config.severities.iter().enumerate() {
                for (sj, &sb) in config.severities.iter().enumerate() {
                    if sa == 0.0 && sb == 0.0 {
                        continue;
                    }
                    // Compose by re-deriving each side's single-criterion
                    // degradation; `Degradation` is append-only so the
                    // defect order cannot silently change.
                    let mut degradation = a.degradation(sa, dataset)?;
                    degradation.extend(b.degradation(sb, dataset)?);
                    cells.push(ExperimentCell {
                        dataset: di,
                        degradation,
                        seed: config
                            .seed
                            .wrapping_add(0xF00D)
                            .wrapping_add((pi as u64) << 20)
                            .wrapping_add((si as u64) << 8)
                            .wrapping_add(sj as u64),
                    });
                }
            }
        }
    }
    Ok(cells)
}

/// The executor's injection point: fires once per cell attempt, keyed
/// by the cell's position-derived seed (worker-independent, so a plan
/// selects the same cells at any worker count).
const CELL_FAULT_POINT: &str = "grid.cell.run";

/// One failed attempt, before the retry loop decides whether it is
/// final.
struct AttemptFailure {
    error: String,
    deadline_exceeded: bool,
}

/// The body of one cell attempt: fire the fault point, then evaluate.
fn attempt_body(
    dataset: &ExperimentDataset,
    degradation: &Degradation,
    config: &ExperimentConfig,
    seed: u64,
    plan: Option<&FaultPlan>,
    attempt: u32,
) -> Result<Vec<ExperimentRecord>> {
    if let Some(plan) = plan {
        plan.fire(CELL_FAULT_POINT, seed, attempt)?;
    }
    evaluate_cell(dataset, degradation, config, seed)
}

/// Run one attempt inline with error and panic containment.
fn run_attempt_inline(
    dataset: &ExperimentDataset,
    degradation: &Degradation,
    config: &ExperimentConfig,
    seed: u64,
    plan: Option<&FaultPlan>,
    attempt: u32,
) -> std::result::Result<Vec<ExperimentRecord>, AttemptFailure> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        attempt_body(dataset, degradation, config, seed, plan, attempt)
    }));
    match outcome {
        Ok(Ok(records)) => Ok(records),
        Ok(Err(e)) => Err(AttemptFailure {
            error: e.to_string(),
            deadline_exceeded: false,
        }),
        Err(panic) => Err(AttemptFailure {
            error: panic_message(panic.as_ref()),
            deadline_exceeded: false,
        }),
    }
}

/// Run one attempt on a detachable thread, bounded by `deadline`. On
/// timeout the thread is abandoned: its eventual result goes to a
/// channel nobody reads, so an overdue attempt can never write records.
fn run_attempt_with_deadline(
    dataset: &ExperimentDataset,
    degradation: &Degradation,
    config: &ExperimentConfig,
    seed: u64,
    plan: Option<&Arc<FaultPlan>>,
    attempt: u32,
    deadline: Duration,
) -> std::result::Result<Vec<ExperimentRecord>, AttemptFailure> {
    let dataset = dataset.clone();
    let degradation = degradation.clone();
    let config = config.clone();
    let plan = plan.cloned();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = run_attempt_inline(
            &dataset,
            &degradation,
            &config,
            seed,
            plan.as_deref(),
            attempt,
        );
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(deadline) {
        Ok(outcome) => outcome,
        Err(_) => Err(AttemptFailure {
            error: format!("cell deadline of {deadline:?} exceeded"),
            deadline_exceeded: true,
        }),
    }
}

/// Delay before retry `attempt` (≥ 1): `base × 2^(attempt−1)`, capped
/// at one second. No jitter — replayability beats thundering-herd
/// avoidance in a bounded in-process pool.
fn retry_backoff(base: Duration, attempt: u32) -> Duration {
    const MAX_BACKOFF: Duration = Duration::from_secs(1);
    base.saturating_mul(1u32 << attempt.saturating_sub(1).min(10))
        .min(MAX_BACKOFF)
}

/// Run one cell with error and panic containment plus bounded retry:
/// up to `max_retries + 1` attempts, deterministic exponential backoff
/// between them, each bounded by `cell_deadline` when set. Only when
/// every attempt fails does the cell become a [`CellFailure`] — it
/// never tears down the executor.
fn run_one_cell(
    datasets: &[ExperimentDataset],
    cell: &ExperimentCell,
    config: &ExperimentConfig,
    plan: Option<&Arc<FaultPlan>>,
    stats: &mut WorkerStats,
) -> std::result::Result<Vec<ExperimentRecord>, CellFailure> {
    let dataset = &datasets[cell.dataset];
    let attempts = config.max_retries.saturating_add(1);
    let mut error = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(retry_backoff(config.retry_backoff, attempt));
            stats.retries += 1;
            obs::counter_add("grid.cell.retries_total", 1);
        }
        let outcome = match config.cell_deadline {
            Some(deadline) => run_attempt_with_deadline(
                dataset,
                &cell.degradation,
                config,
                cell.seed,
                plan,
                attempt,
                deadline,
            ),
            None => run_attempt_inline(
                dataset,
                &cell.degradation,
                config,
                cell.seed,
                plan.map(Arc::as_ref),
                attempt,
            ),
        };
        match outcome {
            Ok(records) => return Ok(records),
            Err(failure) => {
                if failure.deadline_exceeded {
                    obs::counter_add("grid.cell.deadline_exceeded_total", 1);
                }
                error = failure.error;
            }
        }
    }
    Err(CellFailure {
        dataset: dataset.name.clone(),
        degradations: cell.degradation.describe(),
        seed: cell.seed,
        error,
        attempts,
    })
}

/// [`run_one_cell`] plus instrumentation: times the cell, bumps the
/// worker's local totals, and emits `grid.*` metrics when a registry is
/// installed.
fn execute_cell(
    datasets: &[ExperimentDataset],
    cell: &ExperimentCell,
    config: &ExperimentConfig,
    plan: Option<&Arc<FaultPlan>>,
    stats: &mut WorkerStats,
) -> std::result::Result<Vec<ExperimentRecord>, CellFailure> {
    let start = Instant::now();
    let outcome = run_one_cell(datasets, cell, config, plan, stats);
    let elapsed = start.elapsed();
    stats.cells += 1;
    stats.busy_seconds += elapsed.as_secs_f64();
    obs::observe_duration("grid.cell.seconds", elapsed);
    obs::counter_add("grid.cells_total", 1);
    match &outcome {
        Ok(records) => obs::counter_add("grid.records_total", records.len() as u64),
        Err(_) => obs::counter_add("grid.cell_failures_total", 1),
    }
    outcome
}

/// Pre-register the grid histogram that samples counts rather than
/// latencies, so it gets count-shaped buckets instead of the default
/// second-shaped ones. No-op when no registry is installed.
fn register_grid_histograms() {
    if let Some(registry) = obs::global() {
        registry.histogram_with("grid.injector_depth", obs::default_count_buckets());
    }
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// What one cell produced: its records, or why it was skipped.
type CellOutcome = std::result::Result<Vec<ExperimentRecord>, CellFailure>;

/// What one worker hands back through its join handle: its totals and
/// the outcomes of the cells it ran, keyed by grid index.
type WorkerOutcome = (WorkerStats, Vec<(usize, CellOutcome)>);

/// One executor worker: claim cell indices from `cursor` until the grid
/// is exhausted and run each cell, keeping its outcome under its index.
fn run_worker(
    worker: usize,
    datasets: &[ExperimentDataset],
    cells: &[ExperimentCell],
    cursor: &AtomicUsize,
    config: &ExperimentConfig,
    plan: Option<&Arc<FaultPlan>>,
) -> WorkerOutcome {
    let mut stats = WorkerStats {
        worker,
        ..WorkerStats::default()
    };
    let mut outcomes = Vec::new();
    loop {
        let claim = Instant::now();
        // The cursor publishes no other data: cells are shared read-only.
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let waited = claim.elapsed();
        stats.queue_wait_seconds += waited.as_secs_f64();
        obs::observe_duration("grid.queue_wait.seconds", waited);
        let Some(cell) = cells.get(index) else {
            break;
        };
        obs::observe("grid.injector_depth", (cells.len() - index - 1) as f64);
        outcomes.push((
            index,
            execute_cell(datasets, cell, config, plan, &mut stats),
        ));
    }
    (stats, outcomes)
}

/// Execute a flat cell list on `effective_workers` scoped threads that
/// claim cells from one atomic cursor, then publish every record to
/// `kb` with one `add_batch`, in grid order: any worker count builds
/// the knowledge base one worker builds, record for record. Failed
/// cells are collected in grid order, not fatal. A panic that escapes
/// a worker (outside a cell's containment) makes the run an `Err` at
/// every worker count and publishes nothing; a panic in the publish
/// (an injected `kb.publish` or `kb.wal.append` panic) is an `Err`
/// too. Records whose publish failed, by error or by panic, stay
/// pending in `kb`; call [`SnapshotKnowledgeBase::flush`] to retry them
/// and surface the error.
pub fn run_cells(
    datasets: &[ExperimentDataset],
    cells: Vec<ExperimentCell>,
    config: &ExperimentConfig,
    kb: &SnapshotKnowledgeBase,
) -> Result<GridReport> {
    let run_start = Instant::now();
    register_grid_histograms();
    let plan = config.fault_plan.clone().or_else(openbi_faults::active);
    let workers = config.effective_workers().min(cells.len().max(1));
    let cursor = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<WorkerOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (cells, cursor, plan) = (&cells, &cursor, plan.as_ref());
                scope.spawn(move || run_worker(worker, datasets, cells, cursor, config, plan))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut report = GridReport {
        cells: cells.len(),
        ..GridReport::default()
    };
    let mut outcomes = Vec::with_capacity(cells.len());
    for outcome in joined {
        let (stats, mut ran) = outcome.map_err(|panic| {
            OpenBiError::Config(format!(
                "experiment worker {}",
                panic_message(panic.as_ref())
            ))
        })?;
        report.worker_stats.push(stats);
        outcomes.append(&mut ran);
    }
    outcomes.sort_by_key(|(index, _)| *index);
    let mut records = Vec::new();
    for (_, outcome) in outcomes {
        match outcome {
            Ok(mut produced) => records.append(&mut produced),
            Err(failure) => report.failures.push(failure),
        }
    }
    report.records = records.len();
    report.cells_succeeded = report.cells - report.failures.len();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kb.add_batch(records))).map_err(
        |panic| {
            OpenBiError::Config(format!(
                "knowledge-base publish {}",
                panic_message(panic.as_ref())
            ))
        },
    )?;
    report.wall_seconds = run_start.elapsed().as_secs_f64();
    Ok(report)
}

/// Run phase 1 ("simple" criteria) on all datasets, reporting both the
/// records produced and any skipped cells.
pub fn run_phase1_report(
    datasets: &[ExperimentDataset],
    criteria: &[Criterion],
    config: &ExperimentConfig,
    kb: &SnapshotKnowledgeBase,
) -> Result<GridReport> {
    let _phase = obs::span("grid.phase1.seconds");
    let cells = phase1_cells(datasets, criteria, config)?;
    run_cells(datasets, cells, config, kb)
}

/// Run phase 2 ("mixed" criteria) on all datasets, reporting both the
/// records produced and any skipped cells.
pub fn run_phase2_report(
    datasets: &[ExperimentDataset],
    pairs: &[(Criterion, Criterion)],
    config: &ExperimentConfig,
    kb: &SnapshotKnowledgeBase,
) -> Result<GridReport> {
    let _phase = obs::span("grid.phase2.seconds");
    let cells = phase2_cells(datasets, pairs, config)?;
    run_cells(datasets, cells, config, kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_datagen::make_blobs;
    use openbi_datagen::BlobsConfig;

    fn small_dataset() -> ExperimentDataset {
        ExperimentDataset::new(
            "blobs-test",
            make_blobs(&BlobsConfig {
                n_rows: 120,
                n_features: 3,
                n_classes: 2,
                class_separation: 4.0,
                seed: 5,
            }),
            "class",
        )
    }

    fn fast_config() -> ExperimentConfig {
        ExperimentConfig {
            algorithms: vec![AlgorithmSpec::ZeroR, AlgorithmSpec::NaiveBayes],
            severities: vec![0.0, 0.6],
            folds: 3,
            seed: 9,
            parallel: false,
            workers: 0,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn criterion_catalog_is_complete() {
        assert_eq!(Criterion::all().len(), 10);
        let names: Vec<&str> = Criterion::all().iter().map(|c| c.name()).collect();
        assert!(names.contains(&"completeness"));
        assert!(names.contains(&"dimensionality"));
    }

    #[test]
    fn severity_zero_is_identity() {
        let d = small_dataset();
        for c in Criterion::all() {
            let deg = c.degradation(0.0, &d).unwrap();
            assert!(deg.is_empty(), "{:?}", c);
        }
    }

    #[test]
    fn degradations_change_the_profile() {
        let d = small_dataset();
        let deg = Criterion::Completeness.degradation(0.8, &d).unwrap();
        let out = deg.apply(&d.table, 1).unwrap();
        assert!(out.total_null_count() > 0);
        let deg = Criterion::Dimensionality.degradation(0.5, &d).unwrap();
        let out = deg.apply(&d.table, 1).unwrap();
        assert_eq!(out.n_cols(), d.table.n_cols() + 24);
    }

    #[test]
    fn invalid_severity_rejected() {
        let d = small_dataset();
        assert!(Criterion::Completeness.degradation(1.5, &d).is_err());
    }

    #[test]
    fn phase1_populates_kb() {
        let kb = SnapshotKnowledgeBase::default();
        let n = run_phase1_report(
            &[small_dataset()],
            &[Criterion::Completeness, Criterion::LabelNoise],
            &fast_config(),
            &kb,
        )
        .unwrap()
        .records;
        // 2 criteria × 2 severities × 2 algorithms = 8 records.
        assert_eq!(n, 8);
        assert_eq!(kb.len(), 8);
        let snapshot = kb.snapshot();
        // Clean baselines recorded with empty degradations.
        assert!(snapshot.records().iter().any(|r| r.degradations.is_empty()));
        // NaiveBayes beats ZeroR on the clean separable baseline.
        let nb = snapshot
            .records()
            .iter()
            .find(|r| r.algorithm == "NaiveBayes" && r.degradations.is_empty())
            .unwrap();
        let zr = snapshot
            .records()
            .iter()
            .find(|r| r.algorithm == "ZeroR" && r.degradations.is_empty())
            .unwrap();
        assert!(nb.metrics.accuracy > zr.metrics.accuracy + 0.2);
    }

    #[test]
    fn phase2_composes_defects() {
        let kb = SnapshotKnowledgeBase::default();
        let config = ExperimentConfig {
            severities: vec![0.0, 0.5],
            ..fast_config()
        };
        let n = run_phase2_report(
            &[small_dataset()],
            &[(Criterion::Completeness, Criterion::LabelNoise)],
            &config,
            &kb,
        )
        .unwrap()
        .records;
        // 1 pair × (2×2 − 1 skipped clean-clean) severity combos × 2 algos.
        assert_eq!(n, 6);
        let snapshot = kb.snapshot();
        assert!(
            snapshot.records().iter().any(|r| r.degradations.len() == 2),
            "mixed variants carry two defects"
        );
    }

    #[test]
    fn phase1_cells_cover_the_grid_with_position_seeds() {
        let d = small_dataset();
        let config = fast_config();
        let cells = phase1_cells(
            &[d],
            &[Criterion::Completeness, Criterion::LabelNoise],
            &config,
        )
        .unwrap();
        // 1 dataset × 2 criteria × 2 severities.
        assert_eq!(cells.len(), 4);
        // Seeds depend on the grid position, not on the cell order.
        assert_eq!(cells[0].seed, config.seed);
        assert_eq!(cells[1].seed, config.seed + 1);
        assert_eq!(cells[2].seed, config.seed + (1 << 16));
        // Severity 0 cells carry the empty (clean-baseline) degradation.
        assert!(cells[0].degradation.is_empty());
        assert!(!cells[1].degradation.is_empty());
    }

    #[test]
    fn bad_cell_is_skipped_not_fatal() {
        // A dataset whose target column does not exist fails inside the
        // cell (Instances conversion), not at cell-building time.
        let good = small_dataset();
        let mut bad = small_dataset();
        bad.name = "broken".into();
        bad.target = "no-such-column".into();
        let datasets = [good, bad];
        for workers in [1usize, 4] {
            let kb = SnapshotKnowledgeBase::default();
            let config = ExperimentConfig {
                parallel: workers > 1,
                workers,
                ..fast_config()
            };
            let report =
                run_phase1_report(&datasets, &[Criterion::LabelNoise], &config, &kb).unwrap();
            // The good dataset's 2 severities × 2 algorithms survive.
            assert_eq!(report.records, 4, "workers={workers}");
            assert_eq!(kb.len(), 4);
            assert_eq!(report.cells, 4);
            assert_eq!(report.cells_succeeded, 2);
            assert!(report.failures.iter().all(|f| f.dataset == "broken"));
            assert!(!report.failures[0].error.is_empty());
            // Failures come back in grid order, whichever worker ran them.
            let failed: Vec<(u64, Vec<String>)> = report
                .failures
                .iter()
                .map(|f| (f.seed, f.degradations.clone()))
                .collect();
            let grid: Vec<(u64, Vec<String>)> =
                phase1_cells(&datasets, &[Criterion::LabelNoise], &config)
                    .unwrap()
                    .into_iter()
                    .filter(|c| c.dataset == 1)
                    .map(|c| (c.seed, c.degradation.describe()))
                    .collect();
            assert_eq!(failed, grid, "workers={workers}");
            // Retries are off by default: one attempt, no retry totals.
            assert!(report.failures.iter().all(|f| f.attempts == 1));
            assert_eq!(report.total_retries(), 0);
        }
    }

    #[test]
    fn worker_panic_is_an_err_at_every_worker_count() {
        use openbi_faults::{FaultPlan, FaultRule};
        use openbi_kb::serving::PUBLISH_FAULT_POINT;
        // The first publish panics inside `add_batch`, outside any
        // cell's containment; its records stay pending in the store.
        let plan = Arc::new(FaultPlan::new(3).with(FaultRule::panic(PUBLISH_FAULT_POINT).times(1)));
        for workers in [1usize, 4] {
            let kb = SnapshotKnowledgeBase::default().with_fault_plan(Arc::clone(&plan));
            let config = ExperimentConfig {
                parallel: workers > 1,
                workers,
                ..fast_config()
            };
            let err = run_phase1_report(
                &[small_dataset()],
                &[Criterion::Completeness, Criterion::LabelNoise],
                &config,
                &kb,
            )
            .expect_err("a worker panic fails the run");
            assert!(
                err.to_string().contains("panic"),
                "workers={workers}: {err}"
            );
            kb.flush().unwrap();
            assert_eq!(kb.len(), 8, "workers={workers}: no record is lost");
        }
    }

    #[test]
    fn worker_stats_cover_all_cells() {
        // 1 dataset × 2 criteria × 2 severities = 4 cells.
        for workers in [1usize, 4] {
            let kb = SnapshotKnowledgeBase::default();
            let config = ExperimentConfig {
                parallel: workers > 1,
                workers,
                ..fast_config()
            };
            let report = run_phase1_report(
                &[small_dataset()],
                &[Criterion::Completeness, Criterion::LabelNoise],
                &config,
                &kb,
            )
            .unwrap();
            assert_eq!(report.worker_stats.len(), workers, "workers={workers}");
            let cells: usize = report.worker_stats.iter().map(|s| s.cells).sum();
            assert_eq!(cells, report.cells, "workers={workers}");
            let indices: Vec<usize> = report.worker_stats.iter().map(|s| s.worker).collect();
            assert_eq!(indices, (0..workers).collect::<Vec<_>>());
            assert!(report.wall_seconds > 0.0);
            // Busy time is bounded by each worker's share of the wall.
            let busy: f64 = report.worker_stats.iter().map(|s| s.busy_seconds).sum();
            assert!(busy <= report.wall_seconds * workers as f64 + 1e-6);
        }
    }

    #[test]
    fn panic_message_handles_all_payload_shapes() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(p.as_ref()), "panic: static str");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned message"));
        assert_eq!(panic_message(p.as_ref()), "panic: owned message");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "panic: <non-string payload>");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let base = Duration::from_millis(10);
        assert_eq!(retry_backoff(base, 1), Duration::from_millis(10));
        assert_eq!(retry_backoff(base, 2), Duration::from_millis(20));
        assert_eq!(retry_backoff(base, 3), Duration::from_millis(40));
        assert_eq!(retry_backoff(base, 30), Duration::from_secs(1));
        assert_eq!(retry_backoff(Duration::ZERO, 5), Duration::ZERO);
    }

    #[test]
    fn injected_fault_is_retried_to_success() {
        use openbi_faults::{FaultPlan, FaultRule};
        // Every cell fails its first attempt, then retries succeed.
        let plan = Arc::new(FaultPlan::new(11).with(FaultRule::error(CELL_FAULT_POINT)));
        for workers in [1usize, 4] {
            let kb = SnapshotKnowledgeBase::default();
            let config = ExperimentConfig {
                parallel: workers > 1,
                workers,
                max_retries: 1,
                retry_backoff: Duration::ZERO,
                fault_plan: Some(Arc::clone(&plan)),
                ..fast_config()
            };
            let report =
                run_phase1_report(&[small_dataset()], &[Criterion::LabelNoise], &config, &kb)
                    .unwrap();
            assert!(
                report.failures.is_empty(),
                "workers={workers}: {:?}",
                report.failures
            );
            assert_eq!(report.records, 4, "workers={workers}");
            assert_eq!(report.cells_succeeded, report.cells);
            assert_eq!(
                report.total_retries(),
                report.cells,
                "workers={workers}: every cell fails exactly once"
            );
        }
    }

    #[test]
    fn exhausted_retries_record_attempt_count() {
        use openbi_faults::{FaultPlan, FaultRule};
        let plan = Arc::new(FaultPlan::new(3).with(
            FaultRule::error(CELL_FAULT_POINT).times(u32::MAX), // persistent
        ));
        let kb = SnapshotKnowledgeBase::default();
        let config = ExperimentConfig {
            max_retries: 2,
            retry_backoff: Duration::ZERO,
            fault_plan: Some(plan),
            ..fast_config()
        };
        let report =
            run_phase1_report(&[small_dataset()], &[Criterion::LabelNoise], &config, &kb).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.cells_succeeded, 0);
        assert_eq!(report.failures.len(), report.cells);
        assert!(
            report.failures.iter().all(|f| f.attempts == 3),
            "max_retries + 1"
        );
        assert!(report.failures[0].error.contains("injected fault"));
        assert_eq!(report.total_retries(), 2 * report.cells);
    }

    #[test]
    fn deadline_bounds_a_hung_cell() {
        use openbi_faults::{FaultPlan, FaultRule};
        // The injected delay exceeds the deadline on every attempt, so
        // the single cell is abandoned rather than waited on.
        let plan = Arc::new(
            FaultPlan::new(5).with(FaultRule::delay(CELL_FAULT_POINT, 400).times(u32::MAX)),
        );
        let kb = SnapshotKnowledgeBase::default();
        let config = ExperimentConfig {
            severities: vec![0.5],
            cell_deadline: Some(Duration::from_millis(50)),
            retry_backoff: Duration::ZERO,
            fault_plan: Some(plan),
            ..fast_config()
        };
        let report =
            run_phase1_report(&[small_dataset()], &[Criterion::LabelNoise], &config, &kb).unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 1);
        assert!(
            report.failures[0].error.contains("deadline"),
            "{}",
            report.failures[0].error
        );
        assert_eq!(kb.len(), 0, "abandoned attempts must not write records");
    }

    #[test]
    fn deadline_passes_fast_cells_through() {
        // A generous deadline on healthy cells: same records, no
        // failures — the deadline path must not change results.
        let kb = SnapshotKnowledgeBase::default();
        let config = ExperimentConfig {
            cell_deadline: Some(Duration::from_secs(60)),
            ..fast_config()
        };
        let n = run_phase1_report(&[small_dataset()], &[Criterion::LabelNoise], &config, &kb)
            .unwrap()
            .records;
        assert_eq!(n, 4);
        assert_eq!(kb.len(), 4);
    }

    #[test]
    fn worker_count_does_not_change_records() {
        let datasets = vec![small_dataset(), {
            let mut d = small_dataset();
            d.name = "blobs-test-2".into();
            d
        }];
        let criteria = [Criterion::LabelNoise, Criterion::Completeness];
        let run = |parallel: bool, workers: usize| {
            let kb = SnapshotKnowledgeBase::default();
            let config = ExperimentConfig {
                parallel,
                workers,
                ..fast_config()
            };
            run_phase1_report(&datasets, &criteria, &config, &kb).unwrap();
            kb.snapshot()
                .records()
                .iter()
                .map(|r| {
                    format!(
                        "{}|{:?}|{}|{}|{:.12}|{:.12}|{:.12}",
                        r.dataset,
                        r.degradations,
                        r.algorithm,
                        r.seed,
                        r.metrics.accuracy,
                        r.metrics.kappa,
                        r.metrics.model_size
                    )
                })
                .collect::<Vec<String>>()
        };
        let sequential = run(false, 1);
        assert_eq!(sequential, run(true, 1));
        assert_eq!(sequential, run(true, 4));
    }

    #[test]
    fn parallel_and_serial_produce_same_count() {
        let datasets = vec![small_dataset(), {
            let mut d = small_dataset();
            d.name = "blobs-test-2".into();
            d
        }];
        let serial_kb = SnapshotKnowledgeBase::default();
        let serial = run_phase1_report(
            &datasets,
            &[Criterion::LabelNoise],
            &fast_config(),
            &serial_kb,
        )
        .unwrap()
        .records;
        let parallel_kb = SnapshotKnowledgeBase::default();
        let config = ExperimentConfig {
            parallel: true,
            ..fast_config()
        };
        let parallel =
            run_phase1_report(&datasets, &[Criterion::LabelNoise], &config, &parallel_kb)
                .unwrap()
                .records;
        assert_eq!(serial, parallel);
        assert_eq!(serial_kb.len(), parallel_kb.len());
    }

    /// Worker count never changes the published records: a 4-worker
    /// run publishes the serial run's records in the serial run's order,
    /// as one generation.
    #[test]
    fn parallel_run_publishes_the_serial_record_set() {
        let datasets = vec![small_dataset()];
        let criteria = [Criterion::Completeness, Criterion::LabelNoise];

        let serial_store = SnapshotKnowledgeBase::default();
        run_phase1_report(&datasets, &criteria, &fast_config(), &serial_store).unwrap();

        let snapshot_store = SnapshotKnowledgeBase::default();
        let config = ExperimentConfig {
            parallel: true,
            workers: 4,
            ..fast_config()
        };
        run_phase1_report(&datasets, &criteria, &config, &snapshot_store).unwrap();
        let generation = snapshot_store.flush().unwrap();
        assert_eq!(generation, 1, "the grid publishes once");
        assert_eq!(snapshot_store.pending_len(), 0);

        let fingerprint = |records: &[ExperimentRecord]| -> Vec<String> {
            records
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.metrics.train_ms = 0.0;
                    serde_json::to_string(&r).unwrap()
                })
                .collect()
        };
        assert_eq!(
            fingerprint(snapshot_store.pin().records()),
            fingerprint(serial_store.pin().records())
        );
    }
}
