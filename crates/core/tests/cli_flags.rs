//! A flag a command does not read, malformed numeric flags, and
//! `experiments` sizes at which every cell would fail must stop
//! `openbi-cli` with exit status 2 and a first stderr line naming the
//! flag — never a silent fallback to the flag's default or a run that
//! ignores it. Every case fails during argument validation, before any
//! input file is read or any experiment runs.
//!
//! The last two tests rerun `experiments` on one `--wal-dir`: each run
//! recovers the log once, the rerun logs no record twice and leaves the
//! log untouched, both runs report what they saved, and a rerun at
//! other grid sizes, or on a log whose sizes were not recorded, is
//! refused without writing anything.

use std::collections::HashSet;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_openbi-cli"))
        .args(args)
        .output()
        .expect("run openbi-cli")
}

fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = cli(args);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

fn assert_rejected(command: &[&str], flag: &str, value: Option<&str>) {
    let mut args: Vec<&str> = command.to_vec();
    args.push(flag);
    args.extend(value);
    let (code, stderr) = run(&args);
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
    assert!(
        first.starts_with(&format!("error: {flag} must be ")),
        "{args:?}: first stderr line must name {flag}, got {first:?}"
    );
    if let Some(value) = value {
        assert!(
            first.contains(&format!("{value:?}")),
            "{args:?}: first stderr line must quote the value, got {first:?}"
        );
    }
}

fn out_path() -> String {
    std::env::temp_dir()
        .join(format!("openbi-cli-flags-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn experiments_rejects_malformed_numbers() {
    let out = out_path();
    let experiments = ["experiments", "--out", out.as_str()];
    for (flag, value) in [
        ("--rows", "3OO"),
        ("--folds", "-3"),
        ("--seed", "4x2"),
        ("--workers", "two"),
        ("--max-retries", "1.5"),
        ("--cell-deadline-ms", "50ms"),
    ] {
        assert_rejected(&experiments, flag, Some(value));
    }
    // A numeric flag with its value missing is just as malformed.
    assert_rejected(&experiments, "--seed", None);
    assert!(
        !std::path::Path::new(&out).exists(),
        "a rejected command must not write its output"
    );
}

/// Sizes at which every cell would fail are refused before anything
/// runs: no `--out`, and no `--wal-dir` (so no segment and no recorded
/// grid sizes).
#[test]
fn experiments_rejects_sizes_at_which_every_cell_fails() {
    let dir = std::env::temp_dir().join(format!("openbi-cli-sizes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("kb.jsonl").to_string_lossy().into_owned();
    let wal = dir.join("wal").to_string_lossy().into_owned();
    for durable in [false, true] {
        let mut experiments = vec!["experiments", "--out", out.as_str()];
        if durable {
            experiments.extend(["--wal-dir", wal.as_str()]);
        }
        for (flag, value) in [("--folds", "1"), ("--folds", "0"), ("--rows", "0")] {
            assert_rejected(&experiments, flag, Some(value));
        }
        assert_rejected(&experiments, "--cell-deadline-ms", Some("0"));
        // `--rows 40 --folds 1` names the folds; `--rows 2` is below the
        // default 3 folds, and `--rows 4` below `--folds 5`.
        let mut rows_40 = experiments.clone();
        rows_40.extend(["--rows", "40"]);
        assert_rejected(&rows_40, "--folds", Some("1"));
        assert_rejected(&experiments, "--rows", Some("2"));
        let mut folds_5 = experiments.clone();
        folds_5.extend(["--folds", "5"]);
        assert_rejected(&folds_5, "--rows", Some("4"));
        assert!(
            !dir.exists(),
            "a refused run must write nothing: no --out and no --wal-dir"
        );
    }
}

#[test]
fn cube_rejects_malformed_numbers() {
    let cube = ["cube", "missing.csv", "--dims", "district"];
    for (flag, value) in [
        ("--shards", "four"),
        ("--max-retries", "x"),
        ("--min-support", "5.5"),
        ("--max-null-ratio", "0,3"),
    ] {
        assert_rejected(&cube, flag, Some(value));
    }
}

#[test]
fn advise_rejects_malformed_tuning() {
    let advise = ["advise", "missing.csv", "--kb", "missing.jsonl"];
    assert_rejected(&advise, "--neighbors", Some("many"));
    assert_rejected(&advise, "--bandwidth", Some("wide"));
    assert_rejected(&advise, "--bandwidth", Some("0"));
}

/// Every command refuses a misspelled flag with one line naming the flag
/// and the command, before it reads an input or writes an output:
/// without the check, `profile --targett` profiled without a target and
/// `experiments --wokers 1` ran on every core.
#[test]
fn every_command_refuses_a_flag_it_does_not_read() {
    let dir = std::env::temp_dir().join(format!("openbi-cli-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (out, wal) = (path("kb.jsonl"), path("wal"));
    let experiments = ["experiments", "--out", &out, "--rows", "30", "--folds", "2"];
    // Each command with the flags it needs, and one flag it does not read.
    let cases: [(&[&str], &str); 7] = [
        (&["profile", "data.csv"], "--targett"),
        (&["mine", "data.csv", "--target", "class"], "--slect"),
        (&["advise", "data.csv", "--kb", "kb.jsonl"], "--neighbours"),
        (&experiments, "--wokers"),
        (&experiments, "--checkpoint-every"),
        (&["kb", "recover", "--wal-dir", &wal], "--outt"),
        (&["cube", "data.csv", "--dims", "district"], "--shard"),
    ];
    for (command, flag) in cases {
        let mut args = command.to_vec();
        args.extend([flag, "1"]);
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
        assert_eq!(
            stderr,
            format!("error: unknown flag {flag} for {}\n", command[0]),
            "{args:?}"
        );
    }
    assert!(!dir.exists(), "a refused command must write nothing");
}

/// Run `args` to success and return its stdout and stderr.
fn succeed(args: &[&str]) -> (String, String) {
    let output = cli(args);
    let [stdout, stderr] =
        [&output.stdout, &output.stderr].map(|b| String::from_utf8_lossy(b).into_owned());
    assert!(output.status.success(), "{args:?} failed: {stderr}");
    (stdout, stderr)
}

/// Run `args`, expect exit status 2 and return its stderr.
fn refused(args: &[&str]) -> String {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2, stderr: {stderr}");
    stderr
}

/// Every file in `dir` by name, with its bytes.
fn wal_files(dir: &str) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A `--wal-dir` run reads its log once, as it opens it: its metrics
/// hold one recovery, on a fresh log and on a rerun with nothing to run.
#[test]
fn experiments_on_a_wal_dir_recover_the_log_once() {
    let dir = std::env::temp_dir().join(format!("openbi-cli-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (out, wal, metrics) = (path("kb.jsonl"), path("wal"), path("metrics.json"));
    for run in ["fresh", "rerun"] {
        succeed(&[
            "experiments",
            "--out",
            &out,
            "--rows",
            "12",
            "--folds",
            "2",
            "--wal-dir",
            &wal,
            "--metrics-out",
            &metrics,
        ]);
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            json.contains("\"kb.recovery.seconds\":{\"count\":1,"),
            "the {run} run must recover its log exactly once: {json}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn experiments_rerun_on_a_wal_dir_logs_no_record_twice() {
    let dir = std::env::temp_dir().join(format!("openbi-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (wal, first, second, recovered) = (
        path("wal"),
        path("first.jsonl"),
        path("second.jsonl"),
        path("recovered.jsonl"),
    );
    let args = |out: &str, rows: &str, folds: &str| -> Vec<String> {
        [
            "experiments",
            "--out",
            &path(out),
            "--rows",
            rows,
            "--folds",
            folds,
            "--seed",
            "5",
            "--workers",
            "2",
            "--wal-dir",
            &wal,
        ]
        .map(String::from)
        .to_vec()
    };
    let experiments = |out: &str, rows: &str, folds: &str| {
        let args = args(out, rows, folds);
        succeed(&args.iter().map(String::as_str).collect::<Vec<_>>())
    };
    let refuse = |out: &str, rows: &str, folds: &str| {
        let args = args(out, rows, folds);
        refused(&args.iter().map(String::as_str).collect::<Vec<_>>())
    };
    let (stdout, stderr) = experiments("first.jsonl", "40", "2");
    assert_eq!(
        stdout.trim(),
        format!(
            "360 experiment records written to {first} \
             (360 from this run, 0 recovered; 90 cells, 0 skipped, 0 retries)"
        )
    );
    assert!(stderr.contains("\ncheckpoint "), "{stderr}");
    let logged = wal_files(&wal);
    let (stdout, stderr) = experiments("second.jsonl", "40", "2");
    assert!(
        stderr.contains("90 cell(s) skipped, 360 record(s) of this grid already recorded"),
        "the rerun must say what it skipped: {stderr}"
    );
    assert_eq!(
        stdout.trim(),
        format!(
            "360 experiment records written to {second} \
             (0 from this run, 360 recovered; 0 cells, 0 skipped, 0 retries)"
        )
    );
    assert!(
        !stderr.lines().any(|l| l.starts_with("checkpoint")),
        "a rerun that published nothing must not checkpoint: {stderr}"
    );
    assert!(
        wal_files(&wal) == logged,
        "a rerun that published nothing must leave the log as it was"
    );

    // Other sizes: refused with one line naming both, nothing written.
    let stderr = refuse("third.jsonl", "25", "3");
    assert_eq!(
        stderr.trim(),
        format!(
            "error: {wal} holds a grid run at --rows 40 --folds 2; \
             this run asks for --rows 25 --folds 3"
        )
    );
    assert!(!dir.join("third.jsonl").exists());
    assert!(
        wal_files(&wal) == logged,
        "a refused run must not touch the log"
    );

    // Records but no recorded sizes: refused, nothing written.
    let sizes = dir.join("wal").join("grid-sizes.txt");
    let recorded = std::fs::read(&sizes).unwrap();
    std::fs::remove_file(&sizes).unwrap();
    let stderr = refuse("fourth.jsonl", "40", "2");
    assert!(
        stderr
            .lines()
            .last()
            .unwrap_or_default()
            .starts_with(&format!(
                "error: {wal} holds 360 record(s) but no recorded grid sizes"
            )),
        "{stderr}"
    );
    assert!(!dir.join("fourth.jsonl").exists());
    assert!(!sizes.exists(), "a refused run must not record sizes");
    std::fs::write(&sizes, recorded).unwrap();
    assert!(wal_files(&wal) == logged);

    let (stdout, _) = succeed(&["kb", "recover", "--wal-dir", &wal, "--out", &recovered]);
    assert!(stdout.contains("360 record(s) recovered"), "{stdout}");
    for out in [&second, &recovered] {
        let kb = openbi::kb::KnowledgeBase::load(out).unwrap();
        let keys: HashSet<_> = kb
            .records()
            .iter()
            .map(|r| (&r.dataset, &r.degradations, r.seed, &r.algorithm))
            .collect();
        assert_eq!(
            (kb.len(), keys.len()),
            (360, 360),
            "{out}: one record per key"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
