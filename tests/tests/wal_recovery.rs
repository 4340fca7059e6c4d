//! Crash-durability proof obligations for the knowledge-base
//! write-ahead log (DESIGN.md §15).
//!
//! Four guarantees are exercised end to end:
//!
//! 1. **Truncate-anywhere**: cutting the tail segment at *every* byte
//!    offset yields a clean recovery of exactly the complete frames —
//!    a torn tail is repaired, never escalated to a hard error.
//! 2. **SIGKILL**: a child process appending with `fsync always` is
//!    killed mid-run; the parent recovers every acknowledged record
//!    bit-exactly and resumes the run to the fault-free fingerprint.
//! 3. **Chaos matrix**: the experiment grid publishes into a durable
//!    [`SnapshotKnowledgeBase`] while `kb.wal.append` faults fire,
//!    across the `OPENBI_CHAOS_SEEDS` × `OPENBI_CHAOS_WORKERS` matrix
//!    and every fsync policy; the log recovers bitwise-identical to the
//!    served store, and a persistently failing log serves nothing it
//!    could not log (write-ahead) instead of deadlocking.
//! 4. **Metrics**: `kb.wal.*` / `kb.recovery.*` / `kb.checkpoint.*`
//!    instruments carry exact counts for a known workload.
//!
//! Tests in this binary serialize on [`SERIAL`] so the exact-count
//! metric assertions can't be inflated by a concurrent test's WAL
//! traffic (the obs registry slot is process-global).

use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
use openbi::kb::{
    recover, DurableOptions, ExperimentRecord, FsyncPolicy, KbError, KnowledgeBase,
    SnapshotKnowledgeBase, WalWriter,
};
use openbi::mining::AlgorithmSpec;
use openbi_datagen::{make_blobs, BlobsConfig};
use openbi_faults::{FaultPlan, FaultRule};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("openbi-walrec-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic record: same `i` ⇒ same bytes on every platform.
fn record(i: usize) -> ExperimentRecord {
    let mut r = ExperimentRecord {
        dataset: format!("walrec-{}", i % 7),
        degradations: vec![format!("noise:{}", i % 3)],
        algorithm: ["ZeroR", "NaiveBayes", "J48"][i % 3].to_string(),
        seed: i as u64,
        ..ExperimentRecord::default()
    };
    r.metrics.accuracy = (i as f64) / 1024.0;
    r.metrics.kappa = 1.0 / (i as f64 + 1.0);
    r.profile.n_rows = 100 + i;
    r.profile.completeness = 1.0 - (i as f64) / 2048.0;
    r
}

/// Bit-exact fingerprint, in store order.
fn fingerprint(kb: &KnowledgeBase) -> Vec<String> {
    kb.records()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

/// Like [`fingerprint`], but timing-free (`train_ms` zeroed) — for
/// comparing two *independent* grid runs.
fn timing_free_fingerprint(kb: &KnowledgeBase) -> Vec<String> {
    kb.records()
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.metrics.train_ms = 0.0;
            serde_json::to_string(&r).unwrap()
        })
        .collect()
}

fn only_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    assert_eq!(segments.len(), 1, "expected exactly one segment in {dir:?}");
    segments.pop().unwrap()
}

/// Byte offsets at which each frame of `segment` ends (magic at 8).
fn frame_boundaries(segment: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut pos = 8;
    while pos + 8 <= segment.len() {
        let len = u32::from_le_bytes([
            segment[pos],
            segment[pos + 1],
            segment[pos + 2],
            segment[pos + 3],
        ]) as usize;
        pos += 8 + len;
        if pos > segment.len() {
            break;
        }
        boundaries.push(pos);
    }
    boundaries
}

/// Guarantee 1: every truncation point of the tail segment — mid-magic,
/// mid-header, mid-payload, on a frame boundary — recovers exactly the
/// complete frames, and the repair is idempotent (a second recovery
/// replays the same records and truncates nothing).
///
/// `OPENBI_WAL_FUZZ_FRAMES` scales the log (CI's crash-recovery job
/// raises it); unset, a compact log keeps the sweep fast locally.
#[test]
fn every_truncation_of_the_tail_segment_recovers() {
    let _guard = serial();
    let frames: usize = std::env::var("OPENBI_WAL_FUZZ_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let dir = fresh_dir("fuzz-src");
    let mut writer = WalWriter::open(DurableOptions::new(&dir).fsync(FsyncPolicy::Never)).unwrap();
    for i in 0..frames {
        writer.append_batch(&[record(i)]).unwrap();
    }
    drop(writer);
    let segment = only_segment(&dir);
    let full = std::fs::read(&segment).unwrap();
    let boundaries = frame_boundaries(&full);
    assert_eq!(boundaries.len(), frames, "one frame per record");

    let trial = fresh_dir("fuzz-trial");
    let trial_segment = trial.join(segment.file_name().unwrap());
    for keep in 0..=full.len() {
        std::fs::write(&trial_segment, &full[..keep]).unwrap();
        let (kb, report) = recover(&trial)
            .unwrap_or_else(|e| panic!("truncation at byte {keep} must repair, got: {e}"));
        let expected = boundaries.iter().filter(|b| **b <= keep).count();
        assert_eq!(kb.len(), expected, "complete frames within {keep} bytes");
        let mut expected_kb = KnowledgeBase::new();
        for i in 0..expected {
            expected_kb.add(record(i));
        }
        assert_eq!(
            fingerprint(&kb),
            fingerprint(&expected_kb),
            "recovered records at keep={keep} must be the exact frame prefix"
        );
        let torn = if keep < 8 {
            keep
        } else {
            keep - boundaries[..expected].last().copied().unwrap_or(8)
        };
        assert_eq!(
            report.truncated_bytes as usize, torn,
            "torn bytes at keep={keep}"
        );
        let (again, repeat) = recover(&trial).unwrap();
        assert_eq!(again.len(), expected, "repair is idempotent at {keep}");
        assert_eq!(repeat.truncated_bytes, 0, "second pass truncates nothing");
        assert_eq!(fingerprint(&again), fingerprint(&kb));
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&trial).ok();
}

const SIGKILL_CHILD_ENV: &str = "OPENBI_WAL_SIGKILL_CHILD";
const SIGKILL_TOTAL: usize = 400;
const SIGKILL_MIN_ACKED: usize = 25;

/// Child body: append records one at a time under `fsync always`,
/// acknowledging each durable index via an atomically renamed file,
/// until the parent's SIGKILL lands.
fn sigkill_child(dir: &Path) {
    let mut writer =
        WalWriter::open(DurableOptions::new(dir.join("wal")).fsync(FsyncPolicy::Always)).unwrap();
    for i in 0..SIGKILL_TOTAL {
        writer.append_batch(&[record(i)]).unwrap();
        let tmp = dir.join("acked.tmp");
        std::fs::write(&tmp, i.to_string()).unwrap();
        std::fs::rename(&tmp, dir.join("acked")).unwrap();
    }
    // Ran to completion before the kill landed: idle so the parent's
    // SIGKILL still terminates us (never exit cleanly as "passed").
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Guarantee 2: SIGKILL a child mid-append; recover in the parent. No
/// acknowledged record may be lost or altered, and resuming the run on
/// top of the recovered log converges to the fault-free fingerprint.
#[test]
fn sigkill_mid_run_recovers_every_acknowledged_record() {
    if let Ok(dir) = std::env::var(SIGKILL_CHILD_ENV) {
        sigkill_child(Path::new(&dir));
        return;
    }
    let _guard = serial();
    let dir = fresh_dir("sigkill");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(&exe)
        .args([
            "--exact",
            "sigkill_mid_run_recovers_every_acknowledged_record",
            "--nocapture",
        ])
        .env(SIGKILL_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn child test process");
    let ack_path = dir.join("acked");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let acked = std::fs::read_to_string(&ack_path)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok());
        if acked.is_some_and(|n| n >= SIGKILL_MIN_ACKED) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child never acknowledged {SIGKILL_MIN_ACKED} records"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the child");
    child.wait().unwrap();
    let acked: usize = std::fs::read_to_string(&ack_path)
        .unwrap()
        .trim()
        .parse()
        .unwrap();

    let wal_dir = dir.join("wal");
    let (kb, report) = recover(&wal_dir).expect("a SIGKILLed log must recover");
    let recovered: HashSet<String> = fingerprint(&kb).into_iter().collect();
    for i in 0..=acked {
        let key = serde_json::to_string(&record(i)).unwrap();
        assert!(
            recovered.contains(&key),
            "acknowledged record {i} lost (acked {acked}, {report:?})"
        );
    }

    // Resume: append whatever the crash cut short, then prove a fresh
    // replay is fingerprint-identical to the run that never crashed.
    let missing: Vec<ExperimentRecord> = (0..SIGKILL_TOTAL)
        .map(record)
        .filter(|r| !recovered.contains(&serde_json::to_string(r).unwrap()))
        .collect();
    let mut writer = WalWriter::open(DurableOptions::new(&wal_dir)).unwrap();
    writer.append_batch(&missing).unwrap();
    drop(writer);
    let (resumed, _) = recover(&wal_dir).unwrap();
    let mut fault_free = KnowledgeBase::new();
    for i in 0..SIGKILL_TOTAL {
        fault_free.add(record(i));
    }
    assert_eq!(fingerprint(&resumed), fingerprint(&fault_free));
    std::fs::remove_dir_all(&dir).ok();
}

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
        parallel: workers > 1,
        workers,
        retry_backoff: Duration::ZERO,
        ..ExperimentConfig::default()
    }
}

/// Flush until the pending queue drains, as an operator would after a
/// run whose log hiccuped. Each refused append rolls back and leaves its
/// batch pending, and a `times(1)` rule lets the retry through, so the
/// loop converges within a couple of flushes.
fn drain(store: &SnapshotKnowledgeBase) {
    let mut flushes = 0;
    while store.pending_len() > 0 {
        if let Err(e) = store.flush() {
            assert!(matches!(e, KbError::Publish(_)), "{e}");
        }
        flushes += 1;
        assert!(flushes < 16, "flush retry loop must converge");
    }
}

/// Guarantee 3: the grid publishes into a durable store whose log
/// appends fail once per batch, under every fsync policy, every chaos
/// seed, and 1 and 4 workers. A refused batch stays pending, never
/// served; flush retries land it exactly once, the served store matches
/// the fault-free run, and — the durability headline — replaying the log
/// from disk reproduces the served store **bitwise**.
#[test]
fn chaos_matrix_replays_the_log_bitwise_identical() {
    let _guard = serial();
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    for seed in chaos_seeds() {
        let baseline_kb = SnapshotKnowledgeBase::default();
        let baseline =
            run_phase1_report(&datasets(), &criteria, &config(seed, 1), &baseline_kb).unwrap();
        assert!(baseline.failures.is_empty(), "baseline must be fault-free");
        let expected = timing_free_fingerprint(&baseline_kb.pin());

        for workers in chaos_workers() {
            for fsync in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
                let dir = fresh_dir(&format!("chaos-{seed}-{workers}-{fsync}"));
                let plan =
                    Arc::new(FaultPlan::new(seed).with(FaultRule::error("kb.wal.append").times(1)));
                let (store, _) = SnapshotKnowledgeBase::open_durable(
                    DurableOptions::new(&dir)
                        .fsync(fsync)
                        .segment_bytes(4096)
                        .fault_plan(plan),
                )
                .unwrap();
                let report =
                    run_phase1_report(&datasets(), &criteria, &config(seed, workers), &store)
                        .unwrap();
                assert!(report.failures.is_empty(), "grid itself is fault-free");
                drain(&store);
                assert!(
                    store.wal_failures() > 0,
                    "the injected append faults must have fired \
                     (seed {seed}, workers {workers}, fsync {fsync})"
                );
                let served = store.snapshot();
                assert_eq!(
                    timing_free_fingerprint(&served),
                    expected,
                    "served store diverged (seed {seed}, workers {workers}, fsync {fsync})"
                );
                drop(store);
                let (replayed, recovery) = recover(&dir).unwrap();
                assert_eq!(
                    fingerprint(&replayed),
                    fingerprint(&served),
                    "log replay is not bitwise-identical to the served store \
                     (seed {seed}, workers {workers}, fsync {fsync}, {recovery:?})"
                );
                assert!(recovery.segments_scanned >= 1);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// Write-ahead under a log that persistently refuses syncs: the run
/// completes (no panic, no deadlock), but nothing is served that the log
/// could not hold — every record stays pending, `flush` reports the
/// refusal, and the log itself holds no record.
#[test]
fn persistent_wal_failure_serves_nothing_unlogged() {
    let _guard = serial();
    let criteria = [Criterion::Completeness];
    let seed = *chaos_seeds().first().unwrap();
    let dir = fresh_dir("degrade");
    let plan = Arc::new(FaultPlan::new(seed).with(FaultRule::error("kb.wal.sync").times(u32::MAX)));
    let (store, _) =
        SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir).fault_plan(plan)).unwrap();
    let report = run_phase1_report(&datasets(), &criteria, &config(seed, 2), &store).unwrap();
    assert!(report.failures.is_empty(), "the run itself must complete");
    assert!(report.records > 0);
    let err = store.flush().expect_err("the log refuses every batch");
    assert!(matches!(err, KbError::Publish(_)), "{err}");
    assert!(store.wal_failures() > 0, "refused batches must be counted");
    assert_eq!(store.generation(), 0, "nothing unlogged is served");
    assert!(store.is_empty());
    assert_eq!(
        store.pending_len(),
        report.records,
        "every record is pending"
    );
    drop(store);
    let (kb, _) = recover(&dir).unwrap();
    assert_eq!(kb.len(), 0, "no refused record reached the log");
    std::fs::remove_dir_all(&dir).ok();
}

/// Guarantee 4: the durability instruments carry *exact* values for a
/// known workload — append counts and byte totals, replayed frames,
/// truncated torn bytes, fsync/recovery/checkpoint timings.
#[test]
fn wal_metrics_are_counted_exactly() {
    let _guard = serial();
    use openbi::kb::wal::segment::encode_frame;
    use openbi::obs;

    let registry = Arc::new(obs::MetricsRegistry::new());
    obs::install(Arc::clone(&registry));

    let dir = fresh_dir("metrics");
    let records: Vec<ExperimentRecord> = (0..5).map(record).collect();
    let frame_bytes: u64 = records
        .iter()
        .map(|r| encode_frame(serde_json::to_string(r).unwrap().as_bytes()).len() as u64)
        .sum();
    let mut writer = WalWriter::open(DurableOptions::new(&dir).fsync(FsyncPolicy::Always)).unwrap();
    writer.append_batch(&records[..3]).unwrap();
    writer.append_batch(&records[3..]).unwrap();
    drop(writer);

    // Tear the tail: cut 3 bytes off the last frame, then recover.
    let segment = only_segment(&dir);
    let full = std::fs::read(&segment).unwrap();
    let boundaries = frame_boundaries(&full);
    let torn = full.len() - boundaries[3];
    std::fs::write(&segment, &full[..full.len() - 3]).unwrap();
    let (kb, report) = recover(&dir).unwrap();
    assert_eq!(kb.len(), 4);
    assert_eq!(report.frames_replayed, 4);
    assert_eq!(report.truncated_bytes as usize, torn - 3);

    // Checkpoint the recovered state.
    let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
    let checkpoint = writer.checkpoint(&kb).unwrap();
    assert_eq!(checkpoint.records, 4);
    drop(writer);

    obs::uninstall();
    let snap = registry.snapshot();
    assert_eq!(snap.counters["kb.wal.appends_total"], 5);
    assert_eq!(snap.counters["kb.wal.bytes_total"], frame_bytes);
    assert_eq!(snap.counters["kb.recovery.frames_replayed"], 4);
    assert_eq!(
        snap.counters["kb.recovery.truncated_bytes"] as usize,
        torn - 3
    );
    assert_eq!(snap.histograms["kb.recovery.seconds"].count, 1);
    assert_eq!(snap.histograms["kb.checkpoint.seconds"].count, 1);
    assert!(
        snap.histograms["kb.wal.fsync.seconds"].count >= 5,
        "fsync always ⇒ at least one sync per frame"
    );
    assert!(snap.gauges["kb.wal.segments"] >= 1.0);
    std::fs::remove_dir_all(&dir).ok();
}
