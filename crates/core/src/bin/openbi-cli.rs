//! `openbi-cli` — the command-line face of OpenBI for non-expert users.
//!
//! ```text
//! openbi-cli profile  <data.csv> [--target COL] [--exclude A,B]
//! openbi-cli mine     <data.csv> --target COL [--exclude A,B]
//!                     [--kb kb.jsonl] [--no-preprocess] [--select]
//!                     [--publish out.ttl]
//! openbi-cli experiments --out kb.jsonl [--rows N] [--folds K] [--seed S]
//!                     [--workers W] [--metrics-out metrics.json]
//!                     [--fault-plan plan.txt] [--max-retries R]
//!                     [--cell-deadline-ms MS]
//!                     [--wal-dir DIR] [--fsync always|batch|never]
//! openbi-cli kb recover --wal-dir DIR [--out kb.jsonl]
//! openbi-cli advise   <data.csv> --target COL --kb kb.jsonl
//!                     [--neighbors N] [--bandwidth H]
//!                     [--metrics-out metrics.json]
//! openbi-cli cube     <data.csv> --dims A,B [--measures sum:X,mean:Y,...]
//!                     [--shards N] [--min-support N] [--max-null-ratio F]
//!                     [--metrics-out metrics.json]
//!                     [--fault-plan plan.txt] [--max-retries R]
//! ```
//!
//! `experiments` runs the §3.1 phase-1 suite on the reference generators
//! and writes a knowledge base that `mine`/`advise` can consume.
//!
//! `--metrics-out` installs an `openbi-obs` registry for the duration of
//! the command and writes the final [`MetricsSnapshot`] as JSON (README
//! "Reading the metrics").
//!
//! `--fault-plan` loads an `openbi-faults` plan (DESIGN.md §10) and
//! installs it for the duration of the command, so grid cells, pipeline
//! stages, and KB store I/O misbehave on the plan's schedule. Pair it
//! with `--max-retries` / `--cell-deadline-ms` to watch the executor
//! retry and bound injected failures.
//!
//! `--wal-dir` makes `experiments` crash-durable (DESIGN.md §15): any
//! log left by a previous (possibly crashed) run is recovered once, as
//! the log is opened, every acknowledged batch is appended to a
//! checksummed write-ahead log before it is served, and a final
//! checkpoint compacts the log on clean exit when the run published or
//! recovery replayed frames. A batch the log refuses is never served:
//! if the log still refuses it when the run ends, the command fails.
//! A rerun on the same log resumes: it skips every cell whose records
//! the log already holds, and of a partly recorded cell runs only the
//! algorithms it lacks, so no record is logged twice; a rerun with
//! nothing left to run leaves the log untouched. The first run records
//! its grid sizes (`--rows` and `--folds`) beside the log, because a
//! record's resume key holds neither: a rerun at other sizes, or on a
//! log with records but no recorded sizes, exits 2 before it writes
//! anything.
//!
//! Every flag is validated before anything is written: a flag the
//! command does not read exits with status 2 and one `error: unknown
//! flag --<flag> for <command>` line, and a numeric value that does not
//! parse exits 2 with an `error: --<flag> must be …` line, never a
//! silent fallback to the default. So does an `experiments` size at
//! which every cell would fail (`--folds` below 2, `--rows` below
//! `--folds`, `--cell-deadline-ms 0`).
//! `kb recover` replays such a log on its own — useful after a crash,
//! or to turn a log into a plain `kb.jsonl`.
//!
//! [`MetricsSnapshot`]: openbi::obs::MetricsSnapshot

use openbi::experiment::{
    phase1_cells, run_cells, Criterion, ExperimentCell, ExperimentConfig, ExperimentDataset,
    GridReport,
};
use openbi::kb::{
    Advisor, CheckpointReport, DurableOptions, ExperimentRecord, FsyncPolicy, KnowledgeBase,
    RecoveryReport, SnapshotKnowledgeBase,
};
use openbi::pipeline::{run_pipeline, DataSource, PipelineConfig};
use openbi::quality::{measure_profile, render_profile, MeasureOptions};
use openbi::render_outcome;
use std::collections::HashSet;
use std::process::ExitCode;
use std::str::FromStr;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Split `raw` into positionals and flags. A flag takes the next
    /// argument as its value unless that is a flag too; a flag named in
    /// `switches` never takes one.
    fn parse(raw: &[String], switches: &[&str]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = raw
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--") && !switches.contains(&name))
                    .cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn exclude_list(&self) -> Vec<String> {
        self.flag("exclude")
            .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
            .unwrap_or_default()
    }

    /// The value of the numeric flag `--name`, `None` when the flag is
    /// absent. A flag given without a value, or with one that does not
    /// parse as `T`, is an error naming the flag and what it `expects`.
    fn number<T: FromStr>(&self, name: &str, expects: &str) -> Result<Option<T>, String> {
        if !self.has(name) {
            return Ok(None);
        }
        match self.flag(name) {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} must be {expects}, got {text:?}")),
            None => Err(format!("--{name} must be {expects}, got no value")),
        }
    }
}

/// What the integer flags expect, for [`Args::number`] messages.
const INTEGER: &str = "a non-negative integer";

const USAGE: &str = "\
openbi-cli — data-quality-aware mining for open data

USAGE:
  openbi-cli profile <data.csv> [--target COL] [--exclude A,B]
  openbi-cli mine    <data.csv> --target COL [--exclude A,B]
                     [--kb kb.jsonl] [--no-preprocess] [--select]
                     [--publish out.ttl]
  openbi-cli advise  <data.csv> --target COL --kb kb.jsonl [--exclude A,B]
                     [--neighbors N] [--bandwidth H]   (advisor tuning)
                     [--metrics-out metrics.json]
  openbi-cli experiments --out kb.jsonl [--rows N] [--folds K] [--seed S] [--full]
                     [--workers W]   (W experiment workers; 0 = one per core)
                     [--metrics-out metrics.json]
                     [--fault-plan plan.txt]   (inject faults on a schedule)
                     [--max-retries R]         (retry failing cells R times)
                     [--cell-deadline-ms MS]   (abandon cells slower than MS)
                     [--wal-dir DIR]           (crash-durable write-ahead log)
                     [--fsync always|batch|never]  (log flush policy; default batch;
                                                a run that added frames
                                                checkpoints on exit)

  openbi-cli kb recover --wal-dir DIR [--out kb.jsonl]
                     [--metrics-out metrics.json]

  kb recover replays a write-ahead log (checkpoint + checksum-verified
  frames, torn tail repaired) and reports what it found; --out saves
  the recovered knowledge base as JSONL. Corruption *inside* the log is
  a hard error naming the segment and byte offset.

  openbi-cli cube    <data.csv> --dims A,B [--measures sum:X,mean:Y,...]
                     [--shards N]              (0 = one per core)
                     [--min-support N] [--max-null-ratio F]  (quality flags)
                     [--metrics-out metrics.json]
                     [--fault-plan plan.txt] [--max-retries R]

  cube builds a sharded, quality-annotated OLAP rollup (DESIGN.md §14):
  every aggregate cell carries its row support and null ratio, and cells
  below --min-support (default 5) or above --max-null-ratio (default
  0.2) are flagged in the rendered report. Measures are AGG:COLUMN pairs
  with AGG one of sum|mean|count|min|max; default is count over the
  first dimension.

  --metrics-out writes serving/executor metrics (latency histograms with
  p50/p90/p99, counters) captured during the command, e.g.:
    openbi-cli experiments --out kb.jsonl --metrics-out grid_metrics.json

  --fault-plan installs a deterministic chaos schedule (`seed N` +
  `fault <point> <error|panic|delay=MS> [times=N] [ratio=F]` lines) for
  the whole command; see DESIGN.md §10 for the injection-point catalog.
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// When `--metrics-out PATH` is given, install a fresh process-global
/// `openbi-obs` registry and return it with the output path. The caller
/// hands the pair to [`write_metrics`] once the command finishes.
fn metrics_registry(args: &Args) -> Option<(std::sync::Arc<openbi::obs::MetricsRegistry>, String)> {
    let path = args.flag("metrics-out")?.to_string();
    let registry = std::sync::Arc::new(openbi::obs::MetricsRegistry::new());
    openbi::obs::install(std::sync::Arc::clone(&registry));
    Some((registry, path))
}

/// Uninstall the global registry and write its snapshot as JSON. `true`
/// on success (including the no-`--metrics-out` no-op).
fn write_metrics(metrics: Option<(std::sync::Arc<openbi::obs::MetricsRegistry>, String)>) -> bool {
    let Some((registry, path)) = metrics else {
        return true;
    };
    openbi::obs::uninstall();
    if let Err(e) = std::fs::write(&path, registry.snapshot().to_json()) {
        eprintln!("cannot write {path}: {e}");
        return false;
    }
    println!("metrics written to {path}");
    true
}

fn load_csv(path: &str) -> Result<openbi::table::Table, String> {
    openbi::table::read_csv_path(path, &openbi::table::CsvOptions::default())
        .map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_profile(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return fail("profile needs a CSV path");
    };
    let table = match load_csv(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let opts = MeasureOptions {
        target: args.flag("target").map(str::to_string),
        exclude: args.exclude_list(),
    };
    let profile = measure_profile(&table, &opts);
    print!("{}", render_profile(path, &profile));
    let plan = openbi::PreprocessingPlan::recommend(&profile);
    print!("{}", plan.report());
    ExitCode::SUCCESS
}

fn cmd_mine(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return fail("mine needs a CSV path");
    };
    let Some(target) = args.flag("target") else {
        return fail("--target is required");
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let kb = match args.flag("kb") {
        Some(kb_path) => match KnowledgeBase::load(kb_path) {
            Ok(kb) => Some(kb),
            Err(e) => return fail(&format!("cannot load knowledge base: {e}")),
        },
        None => None,
    };
    let config = PipelineConfig {
        target: Some(target.to_string()),
        exclude: args.exclude_list(),
        auto_preprocess: !args.has("no-preprocess"),
        auto_select_attributes: args.has("select"),
        ..Default::default()
    };
    let outcome = match run_pipeline(
        DataSource::CsvText {
            name: path.clone(),
            content,
        },
        &config,
        kb.as_ref(),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render_outcome(&outcome));
    if let Some(out) = args.flag("publish") {
        let ttl = openbi::lod::write_turtle(&outcome.published, &openbi::lod::PrefixMap::default());
        if let Err(e) = std::fs::write(out, ttl) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("published LOD written to {out}");
    }
    ExitCode::SUCCESS
}

/// The `experiments` durability flags.
struct WalArgs {
    dir: String,
    fsync: FsyncPolicy,
}

/// Parse `--wal-dir` / `--fsync`. `Ok(None)` when durability was not
/// requested; an error when `--fsync` appears without `--wal-dir` or
/// does not parse.
fn parse_wal_args(args: &Args) -> Result<Option<WalArgs>, String> {
    let Some(dir) = args.flag("wal-dir") else {
        if args.has("fsync") {
            return Err("--fsync requires --wal-dir".to_string());
        }
        return Ok(None);
    };
    let fsync = match args.flag("fsync") {
        Some(spec) => FsyncPolicy::parse(spec)
            .ok_or_else(|| format!("--fsync must be always|batch|never, got {spec:?}"))?,
        None => FsyncPolicy::default(),
    };
    Ok(Some(WalArgs {
        dir: dir.to_string(),
        fsync,
    }))
}

/// Narrate a [`RecoveryReport`] — both `experiments --wal-dir` and
/// `kb recover` start with one.
fn print_recovery(dir: &str, report: &RecoveryReport) {
    let checkpoint = match report.checkpoint_watermark {
        Some(watermark) => format!(
            "checkpoint {watermark} ({} record(s)) + ",
            report.checkpoint_records
        ),
        None => String::new(),
    };
    eprintln!(
        "recovered {dir}: {checkpoint}{} frame(s) replayed from {} segment(s), \
         {} torn byte(s) truncated ({:.3}s)",
        report.frames_replayed, report.segments_scanned, report.truncated_bytes, report.seconds,
    );
}

fn print_checkpoint(report: &CheckpointReport) {
    eprintln!(
        "checkpoint {}: {} record(s) saved, {} segment(s) and {} old checkpoint(s) compacted ({:.3}s)",
        report.watermark,
        report.records,
        report.compacted_segments,
        report.removed_checkpoints,
        report.seconds,
    );
}

/// The `experiments` grid-size and executor flags.
struct GridFlags {
    rows: usize,
    folds: usize,
    seed: u64,
    workers: usize,
    max_retries: u32,
    cell_deadline: Option<std::time::Duration>,
}

impl GridFlags {
    /// Parse the flags and refuse sizes at which every cell would fail:
    /// cross-validation needs 2 folds and a row per fold, and a deadline
    /// of 0 ms abandons every cell.
    fn parse(args: &Args) -> Result<GridFlags, String> {
        let flags = GridFlags {
            rows: args.number("rows", INTEGER)?.unwrap_or(300),
            folds: args.number("folds", INTEGER)?.unwrap_or(3),
            seed: args.number("seed", INTEGER)?.unwrap_or(42),
            workers: args.number("workers", INTEGER)?.unwrap_or(0),
            max_retries: args.number("max-retries", INTEGER)?.unwrap_or(0),
            cell_deadline: args
                .number("cell-deadline-ms", INTEGER)?
                .map(std::time::Duration::from_millis),
        };
        if flags.folds < 2 {
            return Err(format!(
                "--folds must be at least 2, got \"{}\"",
                flags.folds
            ));
        }
        if flags.rows < flags.folds {
            return Err(format!(
                "--rows must be at least --folds ({}), got \"{}\"",
                flags.folds, flags.rows
            ));
        }
        if flags.cell_deadline == Some(std::time::Duration::ZERO) {
            return Err("--cell-deadline-ms must be a positive integer, got \"0\"".to_string());
        }
        Ok(flags)
    }
}

/// The file beside a `--wal-dir` log that records the grid sizes the
/// log was built at. Segment and checkpoint listing ignore it.
const GRID_SIZES_FILE: &str = "grid-sizes.txt";

/// A grid's sizes in the flags that set them. A record's resume key
/// holds neither. The suite (`--full` or not) is not a size: the key
/// names each algorithm with its parameters and each degradation with
/// its severity, so the compact suite's records are records of the
/// full grid, and a `--full` rerun may resume a compact log.
fn grid_sizes(rows: usize, folds: usize) -> String {
    format!("--rows {rows} --folds {folds}")
}

/// The grid sizes recorded beside the log in `dir`, if any.
fn recorded_grid_sizes(dir: &str) -> Result<Option<String>, String> {
    let path = std::path::Path::new(dir).join(GRID_SIZES_FILE);
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok(Some(text.trim().to_string())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Exit 2 with one `error:` line: the log cannot serve this grid.
fn refuse(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Open `--wal-dir`: recover what it holds and log every publish from
/// now on. The log gains no file until the run publishes or
/// checkpoints.
fn open_durable_store(wal: &WalArgs) -> Result<(SnapshotKnowledgeBase, RecoveryReport), String> {
    SnapshotKnowledgeBase::open_durable(DurableOptions::new(&wal.dir).fsync(wal.fsync))
        .map_err(|e| format!("cannot open write-ahead log {}: {e}", wal.dir))
}

/// A record's key in the knowledge base: dataset, degradations, seed
/// and algorithm. A rerun on the same `--wal-dir` logs no second record
/// under one key.
type RecordKey = (String, Vec<String>, u64, String);

fn record_key(record: &ExperimentRecord) -> RecordKey {
    (
        record.dataset.clone(),
        record.degradations.clone(),
        record.seed,
        record.algorithm.clone(),
    )
}

/// What a rerun leaves out because the store already holds it.
#[derive(Debug, Default, PartialEq)]
struct Resumed {
    /// Cells whose every record is held, so they do not run.
    cells: usize,
    /// Records of the grid that are held, so no cell produces them again.
    records: usize,
}

/// Split the grid into runs that produce no record `held` already has:
/// one run per set of algorithms still missing, each with `config`
/// narrowed to those algorithms, in grid order of first appearance. On
/// a fresh store that is one run of the whole grid. A cell missing no
/// algorithm is left out. Every algorithm's evaluation of a cell is
/// independent of the others, so a narrowed run yields the records the
/// full cell would.
fn resume_runs(
    datasets: &[ExperimentDataset],
    cells: Vec<ExperimentCell>,
    config: &ExperimentConfig,
    held: &HashSet<RecordKey>,
) -> (Vec<(ExperimentConfig, Vec<ExperimentCell>)>, Resumed) {
    let names: Vec<String> = config.algorithms.iter().map(|a| a.to_string()).collect();
    let mut resumed = Resumed::default();
    let mut runs: Vec<(Vec<bool>, Vec<ExperimentCell>)> = Vec::new();
    for cell in cells {
        let (dataset, degradations) = (&datasets[cell.dataset].name, cell.degradation.describe());
        let missing: Vec<bool> = names
            .iter()
            .map(|name| {
                !held.contains(&(
                    dataset.clone(),
                    degradations.clone(),
                    cell.seed,
                    name.clone(),
                ))
            })
            .collect();
        resumed.records += missing.iter().filter(|m| !**m).count();
        if !missing.contains(&true) {
            resumed.cells += 1;
        } else if let Some((_, run)) = runs.iter_mut().find(|(m, _)| *m == missing) {
            run.push(cell);
        } else {
            runs.push((missing, vec![cell]));
        }
    }
    let runs = runs
        .into_iter()
        .map(|(missing, cells)| {
            let mut narrowed = config.clone();
            narrowed.algorithms = config
                .algorithms
                .iter()
                .zip(&missing)
                .filter(|(_, &m)| m)
                .map(|(a, _)| a.clone())
                .collect();
            (narrowed, cells)
        })
        .collect();
    (runs, resumed)
}

/// Run the grid's runs into `store`, one publish each, as one report.
fn run_resumed(
    datasets: &[ExperimentDataset],
    runs: Vec<(ExperimentConfig, Vec<ExperimentCell>)>,
    store: &SnapshotKnowledgeBase,
) -> openbi::Result<GridReport> {
    let _phase = openbi::obs::span("grid.phase1.seconds");
    let mut report = GridReport::default();
    for (config, cells) in runs {
        let part = run_cells(datasets, cells, &config, store)?;
        report.records += part.records;
        report.cells += part.cells;
        report.cells_succeeded += part.cells_succeeded;
        report.failures.extend(part.failures);
        report.wall_seconds += part.wall_seconds;
        report.worker_stats.extend(part.worker_stats);
    }
    Ok(report)
}

fn cmd_experiments(args: &Args) -> ExitCode {
    let Some(out) = args.flag("out") else {
        return fail("experiments needs --out <kb.jsonl>");
    };
    let wal = match parse_wal_args(args) {
        Ok(wal) => wal,
        Err(e) => return fail(&e),
    };
    let GridFlags {
        rows,
        folds,
        seed,
        workers,
        max_retries,
        cell_deadline,
    } = match GridFlags::parse(args) {
        Ok(flags) => flags,
        Err(e) => return fail(&e),
    };
    // A log's records carry neither rows nor folds, so a log built at
    // other sizes is refused before anything reads or writes it.
    let sizes = grid_sizes(rows, folds);
    let recorded = match wal.as_ref().map(|w| recorded_grid_sizes(&w.dir)) {
        Some(Ok(recorded)) => recorded,
        Some(Err(e)) => return fail(&e),
        None => None,
    };
    if let (Some(wal), Some(recorded)) = (&wal, &recorded) {
        if *recorded != sizes {
            return refuse(&format!(
                "{} holds a grid run at {recorded}; this run asks for {sizes}",
                wal.dir
            ));
        }
    }
    let fault_plan = match args.flag("fault-plan") {
        Some(path) => match openbi::faults::FaultPlan::from_file(path) {
            Ok(plan) => {
                eprintln!(
                    "fault plan {path}: seed {}, {} rule(s)",
                    plan.seed(),
                    plan.rules().len()
                );
                let plan = std::sync::Arc::new(plan);
                // Install globally so KB store I/O (no config of its own)
                // sees the plan too, not just the grid executor.
                openbi::faults::install(std::sync::Arc::clone(&plan));
                Some(plan)
            }
            Err(e) => return fail(&e.to_string()),
        },
        None => None,
    };
    let datasets: Vec<ExperimentDataset> = openbi::datagen::reference_datasets(seed)
        .into_iter()
        .map(|(name, table, target)| ExperimentDataset::new(name, table.head(rows), target))
        .collect();
    // Default to the compact suite and coarse severities so a first KB
    // builds in well under a minute; --full restores the complete grid.
    let config = if args.has("full") {
        ExperimentConfig {
            folds,
            seed,
            workers,
            max_retries,
            cell_deadline,
            fault_plan: fault_plan.clone(),
            ..Default::default()
        }
    } else {
        ExperimentConfig {
            algorithms: vec![
                openbi::mining::AlgorithmSpec::ZeroR,
                openbi::mining::AlgorithmSpec::NaiveBayes,
                openbi::mining::AlgorithmSpec::DecisionTree {
                    max_depth: 12,
                    min_leaf: 2,
                },
                openbi::mining::AlgorithmSpec::Knn { k: 5 },
            ],
            severities: vec![0.0, 0.5, 1.0],
            folds,
            seed,
            workers,
            max_retries,
            cell_deadline,
            fault_plan: fault_plan.clone(),
            ..Default::default()
        }
    };
    let cells = match phase1_cells(&datasets, &Criterion::all(), &config) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("experiments failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Installed before the log is opened, so the metrics hold its
    // recovery.
    let metrics = metrics_registry(args);
    let (store, replayed) = match &wal {
        Some(wal) => match open_durable_store(wal) {
            Ok((store, report)) => {
                print_recovery(&wal.dir, &report);
                (store, report.frames_replayed)
            }
            Err(e) => return fail(&e),
        },
        None => (SnapshotKnowledgeBase::default(), 0),
    };
    let recovered_kb = store.pin();
    if let (Some(wal), None) = (&wal, &recorded) {
        if !recovered_kb.is_empty() {
            return refuse(&format!(
                "{} holds {} record(s) but no recorded grid sizes; \
                 this run asks for {sizes}",
                wal.dir,
                recovered_kb.len()
            ));
        }
        let path = std::path::Path::new(&wal.dir).join(GRID_SIZES_FILE);
        let written = std::fs::create_dir_all(&wal.dir)
            .and_then(|()| std::fs::write(&path, format!("{sizes}\n")));
        if let Err(e) = written {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
    }
    let recovered = recovered_kb.len();
    let held: HashSet<RecordKey> = recovered_kb.records().iter().map(record_key).collect();
    let (runs, resumed) = resume_runs(&datasets, cells, &config, &held);
    if let Some(wal) = &wal {
        if resumed != Resumed::default() {
            eprintln!(
                "resuming {}: {} cell(s) skipped, {} record(s) of this grid already recorded",
                wal.dir, resumed.cells, resumed.records
            );
        }
    }
    eprintln!(
        "running phase 1 on {} datasets × {} criteria × {} severities ({} workers)…",
        datasets.len(),
        Criterion::all().len(),
        config.severities.len(),
        config.effective_workers()
    );
    // Write-ahead: a batch the log refused is still pending, never
    // served, so a log that keeps refusing fails the run here instead
    // of saving an unlogged knowledge base.
    let run = run_resumed(&datasets, runs, &store).and_then(|report| {
        store.flush().map_err(openbi::OpenBiError::Kb)?;
        if store.is_durable() {
            // Only frames this run published or recovery replayed are
            // outside the newest checkpoint. A rerun with nothing to run
            // on a log its newest checkpoint covers leaves the log as it
            // is: no new segment and no checkpoint.
            if store.generation() > 0 || replayed > 0 {
                match store.checkpoint() {
                    Ok(Some(checkpoint)) => print_checkpoint(&checkpoint),
                    Ok(None) => {}
                    Err(e) => eprintln!("warning: final checkpoint failed: {e}"),
                }
            }
            if store.wal_failures() > 0 {
                eprintln!(
                    "warning: {} write-ahead append(s) were refused and retried",
                    store.wal_failures()
                );
            }
        }
        eprintln!(
            "knowledge base published {} generation(s)",
            store.generation()
        );
        Ok((report, store.pin()))
    });
    match run {
        Ok((report, final_kb)) => {
            for f in &report.failures {
                eprintln!(
                    "warning: skipped cell (dataset {}, seed {}) after {} attempt(s): {}",
                    f.dataset, f.seed, f.attempts, f.error
                );
            }
            if let Err(e) = final_kb.save(out) {
                eprintln!("cannot save {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "{} experiment records written to {out} ({} from this run, {} recovered; \
                 {} cells, {} skipped, {} retries)",
                final_kb.len(),
                report.records,
                recovered,
                report.cells,
                report.failures.len(),
                report.total_retries()
            );
            if !write_metrics(metrics) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiments failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `kb recover --wal-dir DIR [--out kb.jsonl]`: replay a write-ahead
/// log outside any run — after a crash, or to convert a log into a
/// plain JSONL knowledge base.
fn cmd_kb(args: &Args) -> ExitCode {
    match args.positional.first().map(String::as_str) {
        Some("recover") => {}
        Some(other) => return fail(&format!("unknown kb subcommand: {other} (recover)")),
        None => return fail("kb needs a subcommand: recover"),
    }
    let Some(dir) = args.flag("wal-dir") else {
        return fail("kb recover needs --wal-dir DIR");
    };
    let metrics = metrics_registry(args);
    match openbi::kb::recover(dir) {
        Ok((kb, report)) => {
            print_recovery(dir, &report);
            println!("{} record(s) recovered from {dir}", kb.len());
            if let Some(out) = args.flag("out") {
                if let Err(e) = kb.save(out) {
                    eprintln!("cannot save {out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("recovered knowledge base written to {out}");
            }
            if !write_metrics(metrics) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A corrupt frame mid-log is a hard error naming the
            // segment and byte offset — don't soften it into a
            // half-recovered KB.
            eprintln!("recovery failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The advisor, tuned by `--neighbors` / `--bandwidth`.
fn advisor_from_flags(args: &Args) -> Result<Advisor, String> {
    const POSITIVE: &str = "a positive number";
    let defaults = Advisor::default();
    let bandwidth = match args.number::<f64>("bandwidth", POSITIVE)? {
        Some(h) if h > 0.0 => h,
        Some(_) => {
            let text = args.flag("bandwidth").unwrap_or_default();
            return Err(format!("--bandwidth must be {POSITIVE}, got {text:?}"));
        }
        None => defaults.bandwidth,
    };
    Ok(Advisor {
        neighbors: args
            .number("neighbors", INTEGER)?
            .unwrap_or(defaults.neighbors),
        bandwidth,
    })
}

fn cmd_advise(args: &Args) -> ExitCode {
    // Advise = profile + KB ranking, without running the miner.
    let Some(path) = args.positional.first() else {
        return fail("advise needs a CSV path");
    };
    let Some(kb_path) = args.flag("kb") else {
        return fail("--kb is required for advise");
    };
    let advisor = match advisor_from_flags(args) {
        Ok(advisor) => advisor,
        Err(e) => return fail(&e),
    };
    let table = match load_csv(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let kb = match KnowledgeBase::load(kb_path) {
        Ok(kb) => kb,
        Err(e) => return fail(&format!("cannot load knowledge base: {e}")),
    };
    let opts = MeasureOptions {
        target: args.flag("target").map(str::to_string),
        exclude: args.exclude_list(),
    };
    let profile = measure_profile(&table, &opts);
    print!("{}", render_profile(path, &profile));
    let metrics = metrics_registry(args);
    match advisor.advise(&kb, &profile) {
        Ok(advice) => {
            println!("\n{}", advice.headline());
            println!("{}", advice.explanation);
            for (i, r) in advice.ranking.iter().enumerate() {
                println!(
                    "  {}. {:<30} expected score {:.3} ({} experiments)",
                    i + 1,
                    r.algorithm,
                    r.expected_score,
                    r.support
                );
            }
            if !write_metrics(metrics) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("advisor failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse a `--measures sum:X,mean:Y` list into [`Measure`](openbi::olap::Measure)s. `None`
/// input yields `count` over `default_col` (the first dimension), so a
/// bare `cube --dims A` still renders something meaningful.
fn parse_measures(
    spec: Option<&str>,
    default_col: &str,
) -> Result<Vec<openbi::olap::Measure>, String> {
    use openbi::olap::Measure;
    let Some(spec) = spec else {
        return Ok(vec![Measure::Count(default_col.to_string())]);
    };
    spec.split(',')
        .map(|part| {
            let part = part.trim();
            let (agg, col) = part
                .split_once(':')
                .ok_or_else(|| format!("measure {part:?} is not AGG:COLUMN"))?;
            let col = col.trim().to_string();
            match agg.trim() {
                "sum" => Ok(Measure::Sum(col)),
                "mean" => Ok(Measure::Mean(col)),
                "count" => Ok(Measure::Count(col)),
                "min" => Ok(Measure::Min(col)),
                "max" => Ok(Measure::Max(col)),
                other => Err(format!(
                    "unknown aggregate {other:?} (sum|mean|count|min|max)"
                )),
            }
        })
        .collect()
}

/// The `cube` shard/retry options and quality-flag thresholds.
fn cube_flags(
    args: &Args,
) -> Result<(openbi::olap::CubeOptions, openbi::olap::QualityThresholds), String> {
    use openbi::olap::{CubeOptions, QualityThresholds};
    let defaults = QualityThresholds::default();
    let mut options = CubeOptions::with_shards(args.number("shards", INTEGER)?.unwrap_or(0));
    options.max_retries = args.number("max-retries", INTEGER)?.unwrap_or(0);
    let thresholds = QualityThresholds {
        min_support: args
            .number("min-support", INTEGER)?
            .unwrap_or(defaults.min_support),
        max_null_ratio: args
            .number("max-null-ratio", "a number")?
            .unwrap_or(defaults.max_null_ratio),
    };
    Ok((options, thresholds))
}

fn cmd_cube(args: &Args) -> ExitCode {
    use openbi::olap::{quality_table_report, Cube};
    let Some(path) = args.positional.first() else {
        return fail("cube needs a CSV path");
    };
    let Some(dims_spec) = args.flag("dims") else {
        return fail("--dims is required for cube");
    };
    let dims: Vec<String> = dims_spec
        .split(',')
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty())
        .collect();
    if dims.is_empty() {
        return fail("--dims must name at least one column");
    }
    let (mut options, thresholds) = match cube_flags(args) {
        Ok(flags) => flags,
        Err(e) => return fail(&e),
    };
    let table = match load_csv(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let measures = match parse_measures(args.flag("measures"), &dims[0]) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    if let Some(plan_path) = args.flag("fault-plan") {
        match openbi::faults::FaultPlan::from_file(plan_path) {
            Ok(plan) => options.fault_plan = Some(std::sync::Arc::new(plan)),
            Err(e) => return fail(&e.to_string()),
        }
    }
    let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
    let cube = match Cube::new(table, &dim_refs, measures) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let metrics = metrics_registry(args);
    let result = match cube.rollup_quality(&dim_refs, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cube failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let title = format!("{path} by {}", dims.join(", "));
    match quality_table_report(&title, &result, &thresholds, usize::MAX) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("cube failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !write_metrics(metrics) {
        return ExitCode::FAILURE;
    }
    if result.is_degraded() {
        // Partial totals are rendered (with a banner), but signal the
        // degradation to scripts via the exit code.
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// A command, the flags it reads that take a value, and those that take
/// none.
struct Command {
    run: fn(&Args) -> ExitCode,
    flags: &'static [&'static str],
    switches: &'static [&'static str],
}

fn command(name: &str) -> Option<Command> {
    Some(match name {
        "profile" => Command {
            run: cmd_profile,
            flags: &["target", "exclude"],
            switches: &[],
        },
        "mine" => Command {
            run: cmd_mine,
            flags: &["target", "exclude", "kb", "publish"],
            switches: &["no-preprocess", "select"],
        },
        "advise" => Command {
            run: cmd_advise,
            flags: &[
                "target",
                "exclude",
                "kb",
                "neighbors",
                "bandwidth",
                "metrics-out",
            ],
            switches: &[],
        },
        "experiments" => Command {
            run: cmd_experiments,
            flags: &[
                "out",
                "rows",
                "folds",
                "seed",
                "workers",
                "metrics-out",
                "fault-plan",
                "max-retries",
                "cell-deadline-ms",
                "wal-dir",
                "fsync",
            ],
            switches: &["full"],
        },
        "kb" => Command {
            run: cmd_kb,
            flags: &["wal-dir", "out", "metrics-out"],
            switches: &[],
        },
        "cube" => Command {
            run: cmd_cube,
            flags: &[
                "dims",
                "measures",
                "shards",
                "min-support",
                "max-null-ratio",
                "metrics-out",
                "fault-plan",
                "max-retries",
            ],
            switches: &[],
        },
        _ => return None,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = raw.first().cloned() else {
        return fail("missing command");
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = command(&name) else {
        return fail(&format!("unknown command: {name}"));
    };
    let args = Args::parse(&raw[1..], command.switches);
    // A flag the command does not read would be silently ignored.
    let reads = |flag: &str| command.flags.contains(&flag) || command.switches.contains(&flag);
    if let Some((flag, _)) = args.flags.iter().find(|(f, _)| !reads(f)) {
        return refuse(&format!("unknown flag --{flag} for {name}"));
    }
    (command.run)(&args)
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(raw: &[&str]) -> Args {
        parse_with(raw, &[])
    }

    fn parse_with(raw: &[&str], switches: &[&str]) -> Args {
        Args::parse(
            &raw.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            switches,
        )
    }

    #[test]
    fn positional_and_flags_separate() {
        let a = parse(&["data.csv", "--target", "label", "--select"]);
        assert_eq!(a.positional, vec!["data.csv"]);
        assert_eq!(a.flag("target"), Some("label"));
        assert!(a.has("select"));
        assert!(!a.has("missing"));
        assert_eq!(a.flag("select"), None, "boolean flag has no value");
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let a = parse(&["--no-preprocess", "--kb", "kb.jsonl"]);
        assert!(a.has("no-preprocess"));
        assert_eq!(a.flag("no-preprocess"), None);
        assert_eq!(a.flag("kb"), Some("kb.jsonl"));
    }

    #[test]
    fn a_switch_leaves_the_next_argument_positional() {
        let a = parse_with(
            &["--select", "data.csv", "--target", "class", "--full"],
            &["select", "full"],
        );
        assert_eq!(a.positional, vec!["data.csv"]);
        assert!(a.has("select") && a.has("full"));
        assert_eq!(a.flag("select"), None);
        assert_eq!(a.flag("target"), Some("class"));
    }

    #[test]
    fn exclude_list_splits_and_trims() {
        let a = parse(&["--exclude", "id, city ,station"]);
        assert_eq!(a.exclude_list(), vec!["id", "city", "station"]);
        let none = parse(&[]);
        assert!(none.exclude_list().is_empty());
    }

    #[test]
    fn repeated_positionals_kept_in_order() {
        let a = parse(&["first.csv", "second.csv"]);
        assert_eq!(a.positional, vec!["first.csv", "second.csv"]);
    }

    #[test]
    fn wal_args_parse_and_gate() {
        use openbi::kb::FsyncPolicy;
        let none = parse(&[]);
        assert!(super::parse_wal_args(&none).unwrap().is_none());
        let orphan = parse(&["--fsync", "never"]);
        assert!(
            super::parse_wal_args(&orphan).is_err(),
            "--fsync needs --wal-dir"
        );
        let full = parse(&["--wal-dir", "run/wal", "--fsync", "always"]);
        let wal = super::parse_wal_args(&full).unwrap().unwrap();
        assert_eq!(wal.dir, "run/wal");
        assert_eq!(wal.fsync, FsyncPolicy::Always);
        let defaults = parse(&["--wal-dir", "run/wal"]);
        let wal = super::parse_wal_args(&defaults).unwrap().unwrap();
        assert_eq!(wal.fsync, FsyncPolicy::Batch);
        let bad = parse(&["--wal-dir", "w", "--fsync", "sometimes"]);
        assert!(super::parse_wal_args(&bad).is_err());
    }

    #[test]
    fn numeric_flags_parse_or_name_the_flag() {
        let a = parse(&[
            "--rows", "120", "--seed", "4x2", "--ratio", "0,3", "--folds",
        ]);
        assert_eq!(a.number::<usize>("rows", super::INTEGER), Ok(Some(120)));
        assert_eq!(a.number::<usize>("absent", super::INTEGER), Ok(None));
        assert_eq!(
            a.number::<u64>("seed", super::INTEGER),
            Err("--seed must be a non-negative integer, got \"4x2\"".to_string())
        );
        assert!(a
            .number::<f64>("ratio", "a number")
            .unwrap_err()
            .starts_with("--ratio "));
        assert_eq!(
            a.number::<usize>("folds", super::INTEGER),
            Err("--folds must be a non-negative integer, got no value".to_string())
        );
    }

    #[test]
    fn resume_runs_skip_held_records_and_narrow_partly_recorded_cells() {
        use openbi::experiment::{phase1_cells, Criterion, ExperimentConfig, ExperimentDataset};
        use openbi::mining::AlgorithmSpec;
        use std::collections::HashSet;
        let datasets: Vec<ExperimentDataset> = openbi::datagen::reference_datasets(3)
            .into_iter()
            .map(|(name, table, target)| ExperimentDataset::new(name, table.head(20), target))
            .collect();
        let config = ExperimentConfig {
            algorithms: vec![AlgorithmSpec::ZeroR, AlgorithmSpec::NaiveBayes],
            severities: vec![0.0, 1.0],
            ..Default::default()
        };
        let cells = || phase1_cells(&datasets, &Criterion::all(), &config).unwrap();
        let key = |cell: &openbi::experiment::ExperimentCell, spec: &AlgorithmSpec| {
            (
                datasets[cell.dataset].name.clone(),
                cell.degradation.describe(),
                cell.seed,
                spec.to_string(),
            )
        };
        let n = cells().len();
        let (runs, resumed) = super::resume_runs(&datasets, cells(), &config, &HashSet::new());
        assert_eq!(resumed, super::Resumed::default());
        assert_eq!(runs.len(), 1, "a fresh store runs the whole grid at once");
        assert_eq!(runs[0].0.algorithms, config.algorithms);
        assert_eq!(runs[0].1.len(), n);
        // Cells 0–2 fully recorded, cell 5 recorded for ZeroR only.
        let grid = cells();
        let mut held = HashSet::new();
        for cell in &grid[..3] {
            for spec in &config.algorithms {
                held.insert(key(cell, spec));
            }
        }
        held.insert(key(&grid[5], &AlgorithmSpec::ZeroR));
        let (runs, resumed) = super::resume_runs(&datasets, cells(), &config, &held);
        assert_eq!(
            resumed,
            super::Resumed {
                cells: 3,
                records: 7
            }
        );
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0.algorithms, config.algorithms);
        let seeds = |run: &[openbi::experiment::ExperimentCell]| {
            run.iter().map(|c| (c.dataset, c.seed)).collect::<Vec<_>>()
        };
        assert_eq!(
            seeds(&runs[0].1),
            [seeds(&grid[3..5]), seeds(&grid[6..])].concat()
        );
        assert_eq!(runs[1].0.algorithms, vec![AlgorithmSpec::NaiveBayes]);
        assert_eq!(seeds(&runs[1].1), vec![(grid[5].dataset, grid[5].seed)]);
    }

    #[test]
    fn measure_specs_parse_and_reject() {
        use openbi::olap::Measure;
        let m = super::parse_measures(Some("sum:spend, mean:pm10,count:id"), "d").unwrap();
        assert_eq!(
            m,
            vec![
                Measure::Sum("spend".into()),
                Measure::Mean("pm10".into()),
                Measure::Count("id".into()),
            ]
        );
        let default = super::parse_measures(None, "district").unwrap();
        assert_eq!(default, vec![Measure::Count("district".into())]);
        assert!(super::parse_measures(Some("median:x"), "d").is_err());
        assert!(super::parse_measures(Some("spend"), "d").is_err());
    }
}
