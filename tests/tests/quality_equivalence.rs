//! Quality-kernel rewrite equivalence suite (DESIGN.md §12).
//!
//! The pre-rewrite row-wise measurement code is frozen in the
//! test-support library as `openbi_integration::reference::quality`.
//! Every test here profiles the identical table through both
//! implementations **in the same process** and demands byte-identical
//! output for every exact criterion — completeness, duplicates,
//! correlation, balance, outliers, consistency, dimensionality — across
//! seeds {7, 21, 42, 1042}, with MCAR-degraded and multi-class corpora.
//!
//! The noise estimators carry the PR's three intentional fixes
//! (exclusion threading, order-independent tie-breaking, seeded
//! sampling instead of first-`max_rows` truncation), so they get the
//! frozen-vs-live treatment the fixes demand instead: bitwise equality
//! where no fix applies (2-class tables within the row cap), a pinned
//! tolerance plus bit-stable reproducibility where sampling legitimately
//! changed the estimate, and directional assertions for the tie fix.
//!
//! The grid layer pins the serving path: the §3.1 experiment grid must
//! produce the same KB bytes at workers {1, 4}, on a cold profile cache
//! and on a warm rerun served from it — a cached profile must be
//! indistinguishable from a freshly measured one.
//!
//! The per-criterion checks at the end hold each live kernel to its
//! frozen counterpart on small hand-built tables, and pin the three
//! noise fixes as deliberate differences. The twin checks after them
//! hold whole profiles, the table statistics, the defect injectors and
//! the duplicate readers to their results on the `null_nonfinite` twin
//! of each non-finite corpus: one numeric-cell rule, `Column::numbers`.

use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
use openbi::kb::SnapshotKnowledgeBase;
use openbi::obs;
use openbi::pipeline::{run_pipeline, DataSource, PipelineConfig};
use openbi_datagen::{make_blobs, BlobsConfig};
use openbi_integration::reference::quality as reference;
use openbi_integration::{fnv64, nonfinite_corpora, null_nonfinite, pipeline_mix_scenarios};
use openbi_quality::measure::balance::balance_report;
use openbi_quality::measure::completeness::completeness;
use openbi_quality::measure::consistency::format_signature;
use openbi_quality::measure::correlation::correlation_report;
use openbi_quality::measure::noise::{noise_estimates, DEFAULT_MAX_ROWS};
use openbi_quality::measure::outliers::outlier_ratio;
use openbi_quality::{
    measure_profile, measure_profile_cached, Degradation, MeasureOptions, MissingInjector,
    ProfileCache, QualityProfile, DEFAULT_NOISE_SEED,
};
use openbi_table::{Column, Rng, Table};
use std::sync::{Arc, Mutex};

const SEEDS: [u64; 4] = [7, 21, 42, 1042];
const WORKERS: [usize; 2] = [1, 4];

/// Serializes the tests that clear the global profile cache or install
/// a global metrics registry — both are process-wide.
fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Assert every profile field matches to the exact bit, except the two
/// noise estimates, which the caller checks per its corpus.
fn assert_exact_criteria_bitwise(live: &QualityProfile, frozen: &QualityProfile, ctx: &str) {
    assert_eq!(live.n_rows, frozen.n_rows, "{ctx}: n_rows");
    assert_eq!(
        live.n_attributes, frozen.n_attributes,
        "{ctx}: n_attributes"
    );
    let fields: [(&str, f64, f64); 9] = [
        ("completeness", live.completeness, frozen.completeness),
        (
            "duplicate_ratio",
            live.duplicate_ratio,
            frozen.duplicate_ratio,
        ),
        (
            "max_abs_correlation",
            live.max_abs_correlation,
            frozen.max_abs_correlation,
        ),
        (
            "mean_abs_correlation",
            live.mean_abs_correlation,
            frozen.mean_abs_correlation,
        ),
        ("class_balance", live.class_balance, frozen.class_balance),
        ("minority_ratio", live.minority_ratio, frozen.minority_ratio),
        ("dimensionality", live.dimensionality, frozen.dimensionality),
        ("outlier_ratio", live.outlier_ratio, frozen.outlier_ratio),
        ("consistency", live.consistency, frozen.consistency),
    ];
    for (name, l, f) in fields {
        assert_eq!(
            bits(l),
            bits(f),
            "{ctx}: {name} drifted from the row-wise reference ({l} vs {f})"
        );
    }
    assert_eq!(
        live.distinct_class_count, frozen.distinct_class_count,
        "{ctx}: distinct_class_count"
    );
}

/// 2-class corpora within the noise row cap: blobs, and the same blobs
/// with 25% MCAR missing cells (labels kept intact so k-NN votes never
/// thin out into ties).
fn two_class_corpora(seed: u64) -> Vec<(String, Table)> {
    let blobs = make_blobs(&BlobsConfig {
        n_rows: 150,
        n_features: 5,
        n_classes: 2,
        class_separation: 2.5,
        seed,
    });
    let degraded = Degradation::new()
        .then(MissingInjector::mcar(0.25).exclude(["class"]))
        .apply(&blobs, seed)
        .unwrap();
    vec![
        (format!("blobs-{seed}"), blobs),
        (format!("blobs-mcar-{seed}"), degraded),
    ]
}

/// On 2-class tables within the row cap, none of the three noise fixes
/// can fire (full feature set, 5 votes over 2 labels never tie, no
/// sampling) — so the *entire* profile, noise estimates included, must
/// be bit-identical to the frozen reference.
#[test]
fn two_class_profiles_are_bitwise_identical_to_reference() {
    for seed in SEEDS {
        for (name, table) in two_class_corpora(seed) {
            let opts = MeasureOptions::with_target("class");
            let live = measure_profile(&table, &opts);
            let frozen = reference::measure_profile(&table, &opts);
            let ctx = format!("dataset {name}");
            assert_exact_criteria_bitwise(&live, &frozen, &ctx);
            assert_eq!(
                bits(live.label_noise_estimate),
                bits(frozen.label_noise_estimate),
                "{ctx}: label noise must not drift without a tie or exclusion in play"
            );
            assert_eq!(
                bits(live.attr_noise_estimate),
                bits(frozen.attr_noise_estimate),
                "{ctx}: attribute noise must not drift within the row cap"
            );
        }
    }
}

/// A dirty discretized-sensor table: a monotone `id` the profiler must
/// exclude, 8 numeric attributes quantized to 24 levels with ~5% missing
/// cells, a `station` string column in mixed case, 3 classes, and ~3% of
/// rows duplicated verbatim (`id` included), from a deterministic LCG.
fn dirty_sensor(n: usize, seed: u64) -> Table {
    const ATTRS: usize = 8;
    const CLASSES: [&str; 3] = ["low", "mid", "high"];
    const STATIONS: [&str; 4] = ["Alicante", "ALICANTE", "alicante", "Elche"];
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let mut attrs: Vec<Vec<Option<f64>>> = vec![Vec::new(); ATTRS];
    let mut labels = Vec::with_capacity(n);
    let mut stations = Vec::with_capacity(n);
    for _ in 0..n {
        let cls = (next() * 3.0) as usize % 3;
        labels.push(CLASSES[cls]);
        stations.push(STATIONS[(next() * 4.0) as usize % 4]);
        for (a, col) in attrs.iter_mut().enumerate() {
            col.push(if next() < 0.05 {
                None
            } else {
                Some((next() * 24.0).floor() / 6.0 + (cls as f64) * (a as f64 % 3.0))
            });
        }
    }
    let mut ids: Vec<i64> = (0..n as i64).collect();
    for i in (0..n.saturating_sub(1)).step_by(33) {
        for col in attrs.iter_mut() {
            col[i + 1] = col[i];
        }
        ids[i + 1] = ids[i];
        labels[i + 1] = labels[i];
        stations[i + 1] = stations[i];
    }
    let mut columns = vec![Column::from_i64("id", ids)];
    columns.extend(float_columns(attrs));
    columns.push(Column::from_str_values("station", stations));
    columns.push(Column::from_str_values("class", labels));
    Table::new(columns).unwrap()
}

/// 3-class corpora: overlapping blobs, and the dirty sensor table with
/// its `id` excluded (the only corpus with duplicate rows and
/// inconsistent string values).
fn three_class_corpora(seed: u64) -> Vec<(String, Table, MeasureOptions)> {
    let blobs = make_blobs(&BlobsConfig {
        n_rows: 180,
        n_features: 4,
        n_classes: 3,
        class_separation: 1.0,
        seed,
    });
    let sensor_opts = MeasureOptions {
        exclude: vec!["id".into()],
        ..MeasureOptions::with_target("class")
    };
    vec![
        (
            format!("blobs3-{seed}"),
            blobs,
            MeasureOptions::with_target("class"),
        ),
        (
            format!("sensor-{seed}"),
            dirty_sensor(300, seed),
            sensor_opts,
        ),
    ]
}

/// With 3 classes, 5-vote neighborhoods can tie; the tie fix only ever
/// removes disagreements, so the live estimate is bounded above by the
/// reference. On the sensor table the reference also keeps the excluded
/// `id` in its neighbourhoods, and the bound holds there too. Every
/// exact criterion still matches bitwise, duplicates and consistency
/// included.
#[test]
fn three_class_profiles_match_except_tie_broken_label_noise() {
    for seed in SEEDS {
        for (ctx, table, opts) in three_class_corpora(seed) {
            let live = measure_profile(&table, &opts);
            let frozen = reference::measure_profile(&table, &opts);
            assert_exact_criteria_bitwise(&live, &frozen, &ctx);
            assert_eq!(
                bits(live.attr_noise_estimate),
                bits(frozen.attr_noise_estimate),
                "{ctx}: attribute noise must not drift within the row cap"
            );
            assert!(
                live.label_noise_estimate <= frozen.label_noise_estimate,
                "{ctx}: the tie fix can only remove disagreements \
                 (live {} vs reference {})",
                live.label_noise_estimate,
                frozen.label_noise_estimate
            );
            assert!(
                (0.0..=1.0).contains(&live.label_noise_estimate),
                "{ctx}: label noise out of range"
            );
        }
    }
}

/// Beyond the row cap the estimators legitimately diverge (seeded sample
/// vs. first-512 truncation). Pin the divergence: a fixed tolerance, the
/// same seeded sample on every call (bit-stable), and both estimates in
/// range.
#[test]
fn sampled_noise_estimates_are_pinned_and_reproducible() {
    for seed in SEEDS {
        let table = make_blobs(&BlobsConfig {
            n_rows: 1500,
            n_features: 4,
            n_classes: 2,
            class_separation: 2.0,
            seed,
        });
        let opts = MeasureOptions::with_target("class");
        let live = measure_profile(&table, &opts);
        let frozen = reference::measure_profile(&table, &opts);
        let ctx = format!("blobs-large-{seed}");
        // Exact criteria never sample — still bitwise.
        assert_exact_criteria_bitwise(&live, &frozen, &ctx);
        // Homogeneous blobs: a fair sample and the prefix must land in
        // the same neighborhood even though the rows differ.
        assert!(
            (live.attr_noise_estimate - frozen.attr_noise_estimate).abs() <= 0.2,
            "{ctx}: attribute noise moved more than the pinned tolerance \
             (live {} vs reference {})",
            live.attr_noise_estimate,
            frozen.attr_noise_estimate
        );
        for (name, v) in [
            ("label_noise", live.label_noise_estimate),
            ("attr_noise", live.attr_noise_estimate),
        ] {
            assert!((0.0..=1.0).contains(&v), "{ctx}: {name} out of range: {v}");
        }
        let again = measure_profile(&table, &opts);
        assert_eq!(
            bits(live.label_noise_estimate),
            bits(again.label_noise_estimate),
            "{ctx}: seeded sampling must be reproducible"
        );
        assert_eq!(
            bits(live.attr_noise_estimate),
            bits(again.attr_noise_estimate),
            "{ctx}: seeded sampling must be reproducible"
        );
    }
}

fn grid_datasets() -> Vec<ExperimentDataset> {
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

/// Timing-free KB fingerprint, in store order (`train_ms` is the only
/// wall-clock field in a record).
fn kb_fingerprint(kb: &SnapshotKnowledgeBase) -> Vec<String> {
    kb.snapshot()
        .records()
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.metrics.train_ms = 0.0;
            serde_json::to_string(&r).unwrap()
        })
        .collect()
}

fn run_grid_fingerprint(workers: usize) -> Vec<String> {
    let kb = SnapshotKnowledgeBase::default();
    let config = ExperimentConfig {
        severities: vec![0.0, 1.0],
        folds: 2,
        seed: 42,
        parallel: workers > 1,
        workers,
        ..ExperimentConfig::default()
    };
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    let report = run_phase1_report(&grid_datasets(), &criteria, &config, &kb).unwrap();
    assert!(
        report.failures.is_empty(),
        "{workers} workers: grid must run clean"
    );
    kb_fingerprint(&kb)
}

/// The experiment grid must produce the same KB bytes at every worker
/// count, on a cold profile cache and on a warm rerun served from it — a
/// cached profile must be indistinguishable from a fresh measurement.
#[test]
fn grid_kb_is_byte_identical_across_workers_and_cache_modes() {
    let _guard = global_state_lock();
    let cache = ProfileCache::global();
    let mut fingerprints = Vec::new();
    for workers in WORKERS {
        cache.clear();
        fingerprints.push(("cold", workers, run_grid_fingerprint(workers)));
        assert!(!cache.is_empty(), "the cold run must fill the cache");
        fingerprints.push(("warm", workers, run_grid_fingerprint(workers)));
    }
    let (_, _, baseline) = &fingerprints[0];
    assert!(!baseline.is_empty(), "grid produced no KB records");
    for (cache_state, workers, fp) in &fingerprints[1..] {
        assert_eq!(
            fp, baseline,
            "{cache_state} cache, {workers} workers: KB bytes drifted from the \
             cold 1-worker run"
        );
    }
}

/// Re-running the pipeline on an unchanged table must serve the quality
/// profile from the cache — observable as `quality.cache.hits`.
#[test]
fn pipeline_records_cache_hits_for_unchanged_tables() {
    let _guard = global_state_lock();
    ProfileCache::global().clear();
    let registry = Arc::new(obs::MetricsRegistry::new());
    obs::install(Arc::clone(&registry));
    let table = make_blobs(&BlobsConfig {
        n_rows: 80,
        n_features: 3,
        n_classes: 2,
        class_separation: 3.0,
        seed: 5,
    });
    let config = PipelineConfig {
        target: Some("class".into()),
        folds: 2,
        ..PipelineConfig::default()
    };
    for _ in 0..2 {
        let outcome = run_pipeline(
            DataSource::Table {
                name: "cached".into(),
                table: table.clone(),
            },
            &config,
            None,
        )
        .unwrap();
        assert!(outcome.degraded.is_empty(), "pipeline must run clean");
    }
    obs::uninstall();
    let snapshot = registry.snapshot();
    let hits = snapshot.counters.get("quality.cache.hits").copied();
    assert!(
        hits.is_some_and(|h| h >= 1),
        "an unchanged table re-profiled twice must hit the cache; counters: {:?}",
        snapshot.counters
    );
    // The cached path still timed its (cheap) measurements.
    assert!(
        snapshot.histograms.contains_key("quality.measure.seconds"),
        "profile measurement must record its duration histogram"
    );
}

/// A profile served through the cache must be byte-identical to a direct
/// measurement — same struct, same bits.
#[test]
fn cached_profile_is_bitwise_identical_to_direct_measurement() {
    let table = make_blobs(&BlobsConfig {
        n_rows: 100,
        n_features: 4,
        n_classes: 2,
        class_separation: 2.0,
        seed: 13,
    });
    let opts = MeasureOptions::with_target("class");
    let direct = measure_profile(&table, &opts);
    let first = measure_profile_cached(&table, &opts);
    let repeat = measure_profile_cached(&table, &opts);
    for p in [&first, &repeat] {
        assert_exact_criteria_bitwise(p, &direct, "cached vs direct");
        assert_eq!(
            bits(p.label_noise_estimate),
            bits(direct.label_noise_estimate)
        );
        assert_eq!(
            bits(p.attr_noise_estimate),
            bits(direct.attr_noise_estimate)
        );
    }
}

/// Class of row `r`: not periodic in the row index, so neighbourhoods
/// mix labels.
fn class_of(r: usize, classes: usize) -> usize {
    (r * 7 + r / 3) % classes
}

/// `dims` feature columns over `n` rows whose centres move with the
/// row's class; `spread` sets how far the classes overlap.
fn clustered(
    n: usize,
    dims: usize,
    classes: usize,
    spread: f64,
    seed: u64,
) -> Vec<Vec<Option<f64>>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cols = vec![Vec::with_capacity(n); dims];
    for r in 0..n {
        let c = class_of(r, classes) as f64;
        for (d, col) in cols.iter_mut().enumerate() {
            col.push(Some(0.3 * c * (d + 1) as f64 + spread * (rng.f64() - 0.5)));
        }
    }
    cols
}

fn float_columns(cols: Vec<Vec<Option<f64>>>) -> Vec<Column> {
    cols.into_iter()
        .enumerate()
        .map(|(d, v)| Column::from_opt_f64(format!("f{d}"), v))
        .collect()
}

fn class_column(n: usize, classes: usize, null_every: Option<usize>) -> Column {
    Column::from_opt_str(
        "class",
        (0..n).map(|r| match null_every {
            Some(m) if r % m == m - 1 => None,
            _ => Some(format!("c{}", class_of(r, classes))),
        }),
    )
}

/// One estimator input: a table, its target and the extra feature
/// exclusions.
struct NoiseCase {
    name: &'static str,
    table: Table,
    target: String,
    exclude: Vec<&'static str>,
    max_rows: usize,
}

fn case(name: &'static str, mut cols: Vec<Column>, target: Column, max_rows: usize) -> NoiseCase {
    let target_name = target.name().to_string();
    cols.push(target);
    NoiseCase {
        name,
        table: Table::new(cols).unwrap(),
        target: target_name,
        exclude: vec![],
        max_rows,
    }
}

/// The inputs the frozen-reference comparisons cannot pin: vote ties,
/// exclusions, sampling, non-finite and null cells, distance ties, very
/// low dimension and non-string labels.
fn noise_cases() -> Vec<NoiseCase> {
    let mut cases = vec![case(
        "three_class_ties",
        float_columns(clustered(150, 3, 3, 2.5, 1)),
        class_column(150, 3, None),
        512,
    )];

    let mut cols = vec![Column::from_i64("id", 0..120)];
    cols.extend(float_columns(clustered(120, 2, 2, 1.5, 2)));
    let mut excluded = case("id_excluded", cols, class_column(120, 2, None), 512);
    excluded.exclude = vec!["id"];
    cases.push(excluded);

    cases.push(case(
        "sampled_1300_rows",
        float_columns(clustered(1300, 3, 2, 1.2, 3)),
        class_column(1300, 2, None),
        512,
    ));

    let mut f = clustered(90, 3, 2, 1.0, 4);
    for r in (0..90).step_by(7) {
        f[0][r] = Some(f64::NAN);
    }
    for r in (3..90).step_by(11) {
        f[0][r] = Some(-f64::NAN);
    }
    for r in (1..90).step_by(5) {
        f[1][r] = None;
    }
    for r in (6..90).step_by(13) {
        f[2][r] = Some(f64::NAN);
    }
    cases.push(case(
        "nan_and_null_cells",
        float_columns(f),
        class_column(90, 2, Some(9)),
        512,
    ));

    let mut f = clustered(80, 4, 2, 1.0, 5);
    f[0][4] = Some(f64::INFINITY);
    f[1][9] = Some(f64::NEG_INFINITY);
    f[3][2] = Some(f64::INFINITY);
    f[3][50] = Some(f64::NEG_INFINITY);
    cases.push(case(
        "infinite_cells",
        float_columns(f),
        class_column(80, 2, None),
        512,
    ));

    let mut f = clustered(100, 3, 3, 2.0, 6);
    for r in (0..100).step_by(6) {
        f[0][r] = Some(f64::NAN);
        f[0][r + 1] = Some(-f64::NAN);
    }
    for r in (5..100).step_by(17) {
        f[2][r] = None;
    }
    f[1][33] = Some(f64::INFINITY);
    cases.push(case(
        "mixed_specials_sampled",
        float_columns(f),
        class_column(100, 3, Some(8)),
        60,
    ));

    // 30 distinct points, each three times: every row has two neighbours
    // at distance zero, and copies carry different labels.
    let points = clustered(30, 2, 2, 1.0, 7);
    let f: Vec<Vec<Option<f64>>> = points
        .iter()
        .map(|col| (0..90).map(|r| col[r % 30]).collect())
        .collect();
    cases.push(case(
        "duplicate_rows",
        float_columns(f),
        class_column(90, 3, None),
        512,
    ));

    cases.push(case(
        "one_feature",
        float_columns(clustered(60, 1, 2, 1.5, 8)),
        class_column(60, 2, None),
        512,
    ));
    cases.push(case(
        "two_features",
        float_columns(clustered(60, 2, 3, 1.5, 9)),
        class_column(60, 3, None),
        512,
    ));

    cases.push(case(
        "int_target",
        float_columns(clustered(70, 3, 3, 2.0, 10)),
        Column::from_opt_i64(
            "y",
            (0..70).map(|r| (r % 10 != 4).then_some(class_of(r, 3) as i64)),
        ),
        512,
    ));

    // Labels that render alike or apart only by their text: 0 vs -0,
    // NaN of either sign.
    let float_labels = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5];
    cases.push(case(
        "float_target",
        float_columns(clustered(75, 2, 5, 2.0, 11)),
        Column::from_opt_f64(
            "y",
            (0..75).map(|r| (r % 12 != 7).then_some(float_labels[class_of(r, 5)])),
        ),
        512,
    ));

    let mut cols = float_columns(clustered(64, 2, 2, 1.0, 12));
    cols.push(Column::from_f64("constant", vec![3.0; 64]));
    cases.push(case(
        "constant_column",
        cols,
        class_column(64, 2, None),
        512,
    ));
    cases
}

const NOISE_KS: [usize; 5] = [0, 1, 3, 5, 12];

/// `(case, k, label-noise bits, attribute-noise bits)` for every case of
/// [`noise_cases`] at every k of [`NOISE_KS`], recorded from the row-major
/// kernel with `select_nth_unstable_by` selection. The rows of the three
/// cases with NaN or ±∞ feature cells were recorded on the same tables
/// with those cells null.
const NOISE_GOLDEN: &[(&str, usize, u64, u64)] = &[
    (
        "three_class_ties",
        0,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "three_class_ties",
        1,
        0x3fddddddddddddde,
        0x3fdb4e7564265a0f,
    ),
    (
        "three_class_ties",
        3,
        0x3fd851eb851eb852,
        0x3fe3f6833e61a797,
    ),
    (
        "three_class_ties",
        5,
        0x3fd7e4b17e4b17e5,
        0x3fe6e602ed30076b,
    ),
    (
        "three_class_ties",
        12,
        0x3fd70a3d70a3d70a,
        0x3fe9d8629ce71db3,
    ),
    ("id_excluded", 0, 0x0000000000000000, 0x0000000000000000),
    ("id_excluded", 1, 0x3fcdddddddddddde, 0x3fe0db8d063271b2),
    ("id_excluded", 3, 0x3fcbbbbbbbbbbbbc, 0x3fe7f78a9ed087e2),
    ("id_excluded", 5, 0x3fcccccccccccccd, 0x3fea5c8c62e87196),
    ("id_excluded", 12, 0x3fcbbbbbbbbbbbbc, 0x3fec27d4e66ad2a0),
    (
        "sampled_1300_rows",
        0,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "sampled_1300_rows",
        1,
        0x3faa000000000000,
        0x3fd80aefd70d050c,
    ),
    (
        "sampled_1300_rows",
        3,
        0x3fa3000000000000,
        0x3fe1aaa9d361a916,
    ),
    (
        "sampled_1300_rows",
        5,
        0x3fa0000000000000,
        0x3fe3cd87e4f73f25,
    ),
    (
        "sampled_1300_rows",
        12,
        0x3f9a000000000000,
        0x3fe69abc478343a9,
    ),
    (
        "nan_and_null_cells",
        0,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "nan_and_null_cells",
        1,
        0x3fa5a240e6c2b448,
        0x3fdbf157fb1b3085,
    ),
    (
        "nan_and_null_cells",
        3,
        0x3f9999999999999a,
        0x3fe30e6f93c1d2a0,
    ),
    (
        "nan_and_null_cells",
        5,
        0x3f8999999999999a,
        0x3fe547eada0d1663,
    ),
    (
        "nan_and_null_cells",
        12,
        0x3fa3333333333333,
        0x3fe92bc9f7a7100c,
    ),
    ("infinite_cells", 0, 0x0000000000000000, 0x0000000000000000),
    ("infinite_cells", 1, 0x0000000000000000, 0x3fd1514b95e04407),
    ("infinite_cells", 3, 0x0000000000000000, 0x3fdb035aa12b2f80),
    ("infinite_cells", 5, 0x0000000000000000, 0x3fe01bef2cf4248e),
    ("infinite_cells", 12, 0x0000000000000000, 0x3fe20d58a928776e),
    (
        "mixed_specials_sampled",
        0,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "mixed_specials_sampled",
        1,
        0x3fc999999999999a,
        0x3fdd786d7275011b,
    ),
    (
        "mixed_specials_sampled",
        3,
        0x3fd4ec4ec4ec4ec5,
        0x3fe6848e158cf1a1,
    ),
    (
        "mixed_specials_sampled",
        5,
        0x3fd4ec4ec4ec4ec5,
        0x3fe9e7e83d323d5d,
    ),
    (
        "mixed_specials_sampled",
        12,
        0x3fd13b13b13b13b1,
        0x3fed8298833e3615,
    ),
    ("duplicate_rows", 0, 0x0000000000000000, 0x0000000000000000),
    ("duplicate_rows", 1, 0x3ff0000000000000, 0x0000000000000000),
    ("duplicate_rows", 3, 0x3fe5555555555555, 0x3fd7f10dd87df72c),
    ("duplicate_rows", 5, 0x3ff0000000000000, 0x3fdfec1275fd4991),
    ("duplicate_rows", 12, 0x3fe5555555555555, 0x3feb64caf5cc8124),
    ("one_feature", 0, 0x0000000000000000, 0x0000000000000000),
    ("one_feature", 1, 0x3fd8888888888889, 0x0000000000000000),
    ("one_feature", 3, 0x3fdccccccccccccd, 0x0000000000000000),
    ("one_feature", 5, 0x3fdaaaaaaaaaaaab, 0x0000000000000000),
    ("one_feature", 12, 0x3fd1111111111111, 0x0000000000000000),
    ("two_features", 0, 0x0000000000000000, 0x0000000000000000),
    ("two_features", 1, 0x3fddddddddddddde, 0x3fe0aadaedc918f2),
    ("two_features", 3, 0x3fddddddddddddde, 0x3fe56e1bfa1b23f6),
    ("two_features", 5, 0x3fddddddddddddde, 0x3fe9470d4df0b383),
    ("two_features", 12, 0x3fdbbbbbbbbbbbbc, 0x3fec906f271bbc34),
    ("int_target", 0, 0x0000000000000000, 0x0000000000000000),
    ("int_target", 1, 0x3fd6276276276276, 0x3fdb548e8e940de0),
    ("int_target", 3, 0x3fc8618618618618, 0x3fe3be9e1b5435f3),
    ("int_target", 5, 0x3fcc71c71c71c71c, 0x3fe5ee8bc291fb55),
    ("int_target", 12, 0x3fce79e79e79e79e, 0x3fe902665e6cb3a3),
    ("float_target", 0, 0x0000000000000000, 0x0000000000000000),
    ("float_target", 1, 0x3fe0800000000000, 0x3fd42c6db41f8d4a),
    ("float_target", 3, 0x3fd7878787878788, 0x3fdefe14112a4fc2),
    ("float_target", 5, 0x3fd642c8590b2164, 0x3fe27cced4ddf574),
    ("float_target", 12, 0x3fd642c8590b2164, 0x3fe4d49e68a55617),
    ("constant_column", 0, 0x0000000000000000, 0x0000000000000000),
    ("constant_column", 1, 0x3fcc000000000000, 0x3fe08fba760cfa36),
    ("constant_column", 3, 0x3fcc000000000000, 0x3fe98fab3da58bd2),
    ("constant_column", 5, 0x3fca000000000000, 0x3fea8a90b870c068),
    (
        "constant_column",
        12,
        0x3fc2000000000000,
        0x3fec6c89870d272e,
    ),
];

/// Both noise estimators keep their exact bits on inputs the
/// frozen-reference comparisons above cannot reach, and a NaN or ±∞
/// feature cell scores exactly like a null one.
#[test]
fn noise_estimates_match_pinned_bits() {
    let mut drift = Vec::new();
    let mut checked = 0;
    for case in noise_cases() {
        // Only the features: the target is read as label text.
        let mut nulled = null_nonfinite(&case.table);
        nulled
            .replace_column(case.table.column(&case.target).unwrap().clone())
            .unwrap();
        for k in NOISE_KS {
            let [live, live_nulled] = [&case.table, &nulled].map(|t| {
                noise_estimates(
                    t,
                    Some(&case.target),
                    &case.exclude,
                    k,
                    case.max_rows,
                    DEFAULT_NOISE_SEED,
                )
            });
            let [label, attr] = [live.label, live.attribute];
            let [label_nulled, attr_nulled] = [live_nulled.label, live_nulled.attribute];
            assert_eq!(
                [bits(label), bits(attr)],
                [bits(label_nulled), bits(attr_nulled)],
                "{} k={k}: non-finite cells must score like nulls",
                case.name
            );
            let &(_, _, label_bits, attr_bits) = NOISE_GOLDEN
                .iter()
                .find(|g| g.0 == case.name && g.1 == k)
                .unwrap_or_else(|| panic!("{} k={k}: no pinned bits", case.name));
            checked += 1;
            if label.to_bits() != label_bits || attr.to_bits() != attr_bits {
                drift.push(format!(
                    "{} k={k}: label {label} ({}) attr {attr} ({}), pinned {} / {}",
                    case.name,
                    bits(label),
                    bits(attr),
                    bits(f64::from_bits(label_bits)),
                    bits(f64::from_bits(attr_bits)),
                ));
            }
        }
    }
    assert_eq!(checked, NOISE_GOLDEN.len(), "every pinned row is checked");
    assert!(
        drift.is_empty(),
        "noise estimates drifted:\n{}",
        drift.join("\n")
    );
}

/// Digests of both noise estimates over the 24 [`pipeline_mix_scenarios`]
/// of each seed, per seed and k, and of the two estimates
/// `measure_profile` reports for those tables, per seed.
const PIPELINE_MIX_NOISE_DIGESTS: [(&str, u64); 18] = [
    ("2012/k1/label", 0x2b06f2756f2d7e8d),
    ("2012/k1/attribute", 0x6b7a8057ef60d6d2),
    ("2012/k3/label", 0x339a3597981bdc55),
    ("2012/k3/attribute", 0x78f713f5d1e10a57),
    ("2012/k5/label", 0x2762408856398639),
    ("2012/k5/attribute", 0xf3edc007f9acda6c),
    ("2012/k12/label", 0x7b211e41a1024138),
    ("2012/k12/attribute", 0x90a13a863cb8c508),
    ("2012/profile", 0x4aa88963ab432bc4),
    ("7/k1/label", 0xb0076db5c36d5c3f),
    ("7/k1/attribute", 0x5158debe151a35d7),
    ("7/k3/label", 0x0206a9e11dbd4413),
    ("7/k3/attribute", 0xe54b18855204debd),
    ("7/k5/label", 0xa48816c9bc2c0b35),
    ("7/k5/attribute", 0xddeba8e35b8c1e14),
    ("7/k12/label", 0x24ec1f240025eabc),
    ("7/k12/attribute", 0xb440112cbd6171f2),
    ("7/profile", 0x86091dadb1699b1c),
];

/// Both noise estimates keep their exact bits on the benchmark's own
/// inputs, through `noise_estimates` and through the profile.
#[test]
fn pipeline_mix_noise_estimates_match_pinned_digests() {
    let mut computed = Vec::new();
    for seed in [2012u64, 7] {
        let tables = pipeline_mix_scenarios(seed);
        for k in [1, 3, 5, 12] {
            let (mut label, mut attribute) = (Vec::new(), Vec::new());
            for s in &tables {
                let ids: Vec<&str> = s.id_columns.iter().map(String::as_str).collect();
                let noise = noise_estimates(
                    &s.table,
                    Some(&s.target),
                    &ids,
                    k,
                    DEFAULT_MAX_ROWS,
                    DEFAULT_NOISE_SEED,
                );
                label.push(noise.label);
                attribute.push(noise.attribute);
            }
            computed.push((
                format!("{seed}/k{k}/label"),
                fnv64(label.iter().flat_map(|v| v.to_bits().to_le_bytes())),
            ));
            computed.push((
                format!("{seed}/k{k}/attribute"),
                fnv64(attribute.iter().flat_map(|v| v.to_bits().to_le_bytes())),
            ));
        }
        let profiled: Vec<f64> = tables
            .iter()
            .flat_map(|s| {
                let options = MeasureOptions {
                    target: Some(s.target.clone()),
                    exclude: s.id_columns.clone(),
                };
                let p = measure_profile(&s.table, &options);
                [p.label_noise_estimate, p.attr_noise_estimate]
            })
            .collect();
        computed.push((
            format!("{seed}/profile"),
            fnv64(profiled.iter().flat_map(|v| v.to_bits().to_le_bytes())),
        ));
    }
    let drift: Vec<String> = computed
        .iter()
        .filter(|(name, digest)| !PIPELINE_MIX_NOISE_DIGESTS.contains(&(name.as_str(), *digest)))
        .map(|(name, digest)| format!("(\"{name}\", 0x{digest:016x}),"))
        .collect();
    assert!(
        drift.is_empty() && computed.len() == PIPELINE_MIX_NOISE_DIGESTS.len(),
        "{} of {} digests drifted from the pinned bits:\n{}",
        drift.len(),
        PIPELINE_MIX_NOISE_DIGESTS.len(),
        drift.join("\n")
    );
}

#[test]
fn numeric_target_matches_reference() {
    let t = Table::new(vec![Column::from_i64("y", [1, 2, 2, 3, 3, 3])]).unwrap();
    let live = balance_report(&t, "y").unwrap();
    let frozen = reference::balance::balance_report(&t, "y").unwrap();
    assert_eq!(live.class_counts, frozen.class_counts);
    assert_eq!(
        live.normalized_entropy.to_bits(),
        frozen.normalized_entropy.to_bits()
    );
    assert_eq!(
        live.minority_ratio.to_bits(),
        frozen.minority_ratio.to_bits()
    );
}

#[test]
fn signatures_match_reference_on_tricky_strings() {
    for s in [
        "",
        "AAbb",
        "AbC9 x",
        "  ",
        "a1B2c3",
        "ABc",
        "ÜberStraße",
        "x\u{1}y",
    ] {
        assert_eq!(
            format_signature(s),
            reference::consistency::format_signature(s),
            "signature of {s:?} drifted from the reference"
        );
    }
}

#[test]
fn matches_reference_bits_with_nulls_and_ints() {
    let t = Table::new(vec![
        Column::from_opt_f64("a", [Some(1.0), None, Some(2.5), Some(4.0), Some(0.5)]),
        Column::from_i64("b", [3, 1, 4, 1, 5]),
        Column::from_opt_f64("c", [Some(2.0), Some(9.0), None, Some(6.5), Some(1.0)]),
    ])
    .unwrap();
    let live = correlation_report(&t, &[], 0.9);
    let frozen = reference::correlation::correlation_report(&t, &[], 0.9);
    assert_eq!(live.max_abs.to_bits(), frozen.max_abs.to_bits());
    assert_eq!(live.mean_abs.to_bits(), frozen.mean_abs.to_bits());
    assert_eq!(live.redundant_pairs.len(), frozen.redundant_pairs.len());
}

#[test]
fn excluded_id_column_no_longer_poisons_neighborhoods() {
    // A monotone identifier next to an uninformative feature, with
    // labels alternating in row order: neighborhoods formed on the id
    // pair each row with its opposite-labeled neighbors, while
    // neighborhoods without it are label-agnostic ties.
    let n = 40usize;
    let t = Table::new(vec![
        Column::from_i64("id", (0..n as i64).collect::<Vec<i64>>()),
        Column::from_f64("x", vec![5.0; n]),
        Column::from_str_values(
            "class",
            (0..n)
                .map(|i| if i % 2 == 0 { "a" } else { "b" })
                .collect::<Vec<&str>>(),
        ),
    ])
    .unwrap();
    let with_id = noise_estimates(&t, Some("class"), &[], 2, 512, DEFAULT_NOISE_SEED).label;
    let without_id = noise_estimates(&t, Some("class"), &["id"], 2, 512, DEFAULT_NOISE_SEED).label;
    assert!(with_id > 0.5, "id-driven neighborhoods disagree: {with_id}");
    assert!(without_id < 0.2, "exclusion must drop the id: {without_id}");
    // The frozen reference has no exclusion path at all — same high
    // estimate regardless of the caller's intent.
    let frozen = reference::noise::label_noise_estimate(&t, "class", 2, 512);
    assert!(frozen > 0.5, "reference ignores exclusions: {frozen}");
}

#[test]
fn majority_ties_are_not_disagreements() {
    // Triplets {0, 1, 2} on a line, labeled {a, a, b}, spaced far
    // apart so k=2 neighborhoods stay within a triplet. The two `a`
    // rows see one `a` and one `b` vote — a tie that includes their
    // own label — and only the `b` row truly disagrees (its
    // neighbors vote a:2). The reference's `max_by_key` resolves the
    // tie to the *last* tied label and scores every row noisy.
    let mut x = Vec::new();
    let mut label = Vec::new();
    for triplet in 0..2 {
        let base = triplet as f64 * 1000.0;
        x.extend([base, base + 1.0, base + 2.0]);
        label.extend(["a", "a", "b"]);
    }
    let t = Table::new(vec![
        Column::from_f64("x", x),
        Column::from_str_values("class", label),
    ])
    .unwrap();
    let live = noise_estimates(&t, Some("class"), &[], 2, 512, DEFAULT_NOISE_SEED).label;
    let frozen = reference::noise::label_noise_estimate(&t, "class", 2, 512);
    assert!((live - 1.0 / 3.0).abs() < 1e-12, "live was {live}");
    assert_eq!(frozen, 1.0, "reference counts every tied row as noisy");
}

#[test]
fn sampling_sees_noise_beyond_the_row_cap() {
    // 1500 rows: the first 512 are clean, the rest have flipped
    // labels. The reference profiles only the clean prefix and
    // reports ~0; the seeded sample covers the whole table.
    let n = 1500usize;
    let x: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
    let label: Vec<&str> = (0..n)
        .map(|i| {
            let clean = (i % 100) < 50;
            if i < 512 {
                if clean {
                    "a"
                } else {
                    "b"
                }
            } else if clean {
                "b"
            } else {
                "a"
            }
        })
        .collect();
    let t = Table::new(vec![
        Column::from_f64("x", x),
        Column::from_str_values("class", label),
    ])
    .unwrap();
    let frozen = reference::noise::label_noise_estimate(&t, "class", 5, 512);
    let live = noise_estimates(&t, Some("class"), &[], 5, 512, DEFAULT_NOISE_SEED).label;
    assert!(frozen < 0.05, "prefix-only estimate was {frozen}");
    assert!(live > 0.15, "sampled estimate was {live}");
    // The sample is seeded: the estimate is reproducible bit-for-bit.
    let again = noise_estimates(&t, Some("class"), &[], 5, 512, DEFAULT_NOISE_SEED).label;
    assert_eq!(live.to_bits(), again.to_bits());
}

#[test]
fn attribute_noise_matches_reference_bits_within_cap() {
    // Below the row cap and away from the fixed bugs the kernel
    // follows the reference's exact summation order.
    let xs: Vec<f64> = (0..40).map(|i| (i as f64 * 1.7).sin() * 10.0).collect();
    let ys: Vec<f64> = (0..40).map(|i| ((i * 31) % 17) as f64).collect();
    let t = Table::new(vec![Column::from_f64("x", xs), Column::from_f64("y", ys)]).unwrap();
    let live = noise_estimates(&t, None, &[], 5, 512, DEFAULT_NOISE_SEED).attribute;
    let frozen = reference::noise::attribute_noise_estimate(&t, &[], 5, 512);
    assert_eq!(live.to_bits(), frozen.to_bits());
}

#[test]
fn ratio_matches_reference_with_nan_cells() {
    let t = Table::new(vec![
        Column::from_opt_f64(
            "x",
            [
                Some(1.0),
                Some(2.0),
                Some(f64::NAN),
                Some(4.0),
                None,
                Some(100.0),
            ],
        ),
        Column::from_i64("i", [1, 2, 3, 4, 5, 6]),
    ])
    .unwrap();
    let live = outlier_ratio(&t, &[]);
    let frozen = reference::outliers::outlier_ratio(&null_nonfinite(&t), &[]);
    assert_eq!(live.to_bits(), frozen.to_bits());
}

/// A NaN or ±∞ cell is a missing cell to completeness too: on every
/// noise corpus (NaN, ±∞ and mixed specials among them) the live ratio
/// has the bits it has on the table with those cells null, and those
/// are the frozen reference's bits on that table.
#[test]
fn completeness_counts_non_finite_cells_as_missing() {
    let mut non_finite = 0;
    for case in noise_cases() {
        let nulled = null_nonfinite(&case.table);
        non_finite += nulled.total_null_count() - case.table.total_null_count();
        let live = completeness(&case.table);
        assert_eq!(
            bits(live),
            bits(completeness(&nulled)),
            "{}: non-finite cells must count like nulls",
            case.name
        );
        assert_eq!(
            bits(live),
            bits(reference::completeness::completeness(&nulled)),
            "{}: drifted from the reference on the nulled table",
            case.name
        );
    }
    assert!(non_finite > 0, "the corpora must hold non-finite cells");
}

/// Every field of a profile, integers as words and floats as bits.
fn profile_bits(p: &QualityProfile) -> Vec<(&'static str, u64)> {
    vec![
        ("n_rows", p.n_rows as u64),
        ("n_attributes", p.n_attributes as u64),
        ("completeness", p.completeness.to_bits()),
        ("duplicate_ratio", p.duplicate_ratio.to_bits()),
        ("max_abs_correlation", p.max_abs_correlation.to_bits()),
        ("mean_abs_correlation", p.mean_abs_correlation.to_bits()),
        ("class_balance", p.class_balance.to_bits()),
        ("minority_ratio", p.minority_ratio.to_bits()),
        ("dimensionality", p.dimensionality.to_bits()),
        ("outlier_ratio", p.outlier_ratio.to_bits()),
        ("label_noise_estimate", p.label_noise_estimate.to_bits()),
        ("attr_noise_estimate", p.attr_noise_estimate.to_bits()),
        ("consistency", p.consistency.to_bits()),
        ("distinct_class_count", p.distinct_class_count as u64),
    ]
}

/// The non-finite tables the twin checks below run on, each with its
/// measure options: the noise corpora, and the `nonfinite_corpora` of
/// three seeds.
fn non_finite_tables() -> Vec<(String, Table, MeasureOptions)> {
    let mut tables: Vec<(String, Table, MeasureOptions)> = noise_cases()
        .into_iter()
        .map(|case| {
            let options = MeasureOptions {
                target: Some(case.target.clone()),
                exclude: case.exclude.iter().map(|e| e.to_string()).collect(),
            };
            (case.name.to_string(), case.table, options)
        })
        .collect();
    for seed in [7, 21, 42] {
        for (name, table) in nonfinite_corpora(seed) {
            tables.push((
                format!("{name} seed {seed}"),
                table,
                MeasureOptions::with_target("class"),
            ));
        }
    }
    tables
}

/// `null_nonfinite(table)` with the target column kept as it is: a label
/// is read as a category, so a NaN label is the class `NaN`, not a
/// missing one.
fn feature_twin(table: &Table, options: &MeasureOptions) -> Table {
    let mut twin = null_nonfinite(table);
    if let Some(target) = &options.target {
        twin.replace_column(table.column(target).unwrap().clone())
            .unwrap();
    }
    twin
}

/// The whole profile of every non-finite table equals the profile of
/// its twin, field for field and bit for bit: every criterion reads a
/// NaN or ±∞ feature cell as missing, the exact-duplicate ratio
/// included, which the `mixed` corpora's copies with turned special
/// cells test.
#[test]
fn profiles_of_non_finite_corpora_equal_their_twins() {
    let mut duplicated = 0;
    for (name, table, options) in non_finite_tables() {
        let twin = feature_twin(&table, &options);
        let (live, twinned) = (
            measure_profile(&table, &options),
            measure_profile(&twin, &options),
        );
        for ((field, got), (_, want)) in profile_bits(&live).into_iter().zip(profile_bits(&twinned))
        {
            assert_eq!(got, want, "{name}: {field} ({live:?} vs {twinned:?})");
        }
        duplicated += usize::from(live.duplicate_ratio > 0.0);
    }
    assert!(duplicated >= 3, "the mixed corpora must hold duplicates");
}

/// The table statistics read a NaN or ±∞ cell as missing: every
/// numeric column's mean, variance, deviation and summary, and every
/// pair's Pearson coefficient, have the bits they have on the twin.
#[test]
fn table_statistics_read_non_finite_cells_like_nulls() {
    use openbi_table::stats;
    let word = |x: Option<f64>| x.map(f64::to_bits);
    for (name, table, _) in non_finite_tables() {
        let twin = null_nonfinite(&table);
        let numeric: Vec<&str> = table
            .columns()
            .iter()
            .filter(|c| c.dtype().is_numeric())
            .map(|c| c.name())
            .collect();
        for &a in &numeric {
            let [col, twin_col] = [&table, &twin].map(|t| t.column(a).unwrap());
            let summary = |c| {
                stats::summarize(c).ok().map(|s| {
                    let fields = [s.mean, s.std, s.min, s.max, s.median, s.q1, s.q3];
                    (s.count, fields.map(f64::to_bits))
                })
            };
            assert_eq!(
                [stats::mean, stats::variance, stats::std_dev].map(|f| word(f(col))),
                [stats::mean, stats::variance, stats::std_dev].map(|f| word(f(twin_col))),
                "{name}: {a}"
            );
            assert_eq!(summary(col), summary(twin_col), "{name}: {a}");
            for &b in &numeric {
                assert_eq!(
                    word(stats::pearson(col, table.column(b).unwrap())),
                    word(stats::pearson(twin_col, twin.column(b).unwrap())),
                    "{name}: pearson({a}, {b})"
                );
            }
        }
    }
}

/// Every defect injector that reads numbers reads a NaN or ±∞ cell as
/// missing: it enters no mean, deviation or median, it is never
/// perturbed, moved or copied as a value, and it draws nothing from the
/// generator, so `null_nonfinite(inject(t))` equals `inject(twin)`.
#[test]
fn injectors_read_non_finite_cells_like_nulls() {
    use openbi_quality::inject::Injector;
    use openbi_quality::{
        AttributeNoiseInjector, CorrelatedInjector, DuplicateInjector, OutlierInjector,
    };
    for seed in [7, 21, 42] {
        for (name, table) in nonfinite_corpora(seed) {
            let twin = null_nonfinite(&table);
            let mut injectors: Vec<Box<dyn Injector>> = vec![
                Box::new(AttributeNoiseInjector::new(0.3, 1.0).exclude(["class"])),
                Box::new(OutlierInjector::new(0.1, 6.0).exclude(["class"])),
                Box::new(DuplicateInjector::near(0.2, 0.05).exclude(["class"])),
            ];
            for column in table.columns().iter().filter(|c| c.dtype().is_numeric()) {
                injectors.push(Box::new(CorrelatedInjector::new(column.name(), 2, 0.1)));
                injectors.push(Box::new(MissingInjector::mar(0.2, column.name())));
            }
            for injector in &injectors {
                let inject = |t: &Table| injector.apply(t, &mut Rng::seed_from_u64(seed)).unwrap();
                assert_eq!(
                    null_nonfinite(&inject(&table)).fingerprint(),
                    inject(&twin).fingerprint(),
                    "{name} seed {seed}: {}",
                    injector.describe()
                );
            }
        }
    }
}

/// Exact duplicates and record linkage read a NaN or ±∞ cell as
/// missing: a copy whose non-finite cells differ in kind is an exact
/// duplicate, as on the twin, and the linkage blocks (on a string and on
/// a numeric key), ranges, distances, clusters and survivor means are
/// the twin's.
#[test]
fn duplicate_readers_read_non_finite_cells_like_nulls() {
    use openbi_quality::inject::Injector;
    use openbi_quality::measure::duplicates::exact_duplicate_groups;
    use openbi_quality::{
        find_duplicate_clusters, merge_duplicates, DuplicateInjector, LinkageConfig,
    };
    for seed in [7, 21, 42] {
        for (name, table) in nonfinite_corpora(seed) {
            let table = DuplicateInjector::near(0.15, 0.02)
                .exclude(["class", "zone"])
                .apply(&table, &mut Rng::seed_from_u64(seed))
                .unwrap();
            let twin = null_nonfinite(&table);
            let groups = exact_duplicate_groups(&table);
            assert_eq!(groups, exact_duplicate_groups(&twin), "{name} seed {seed}");
            assert_eq!(name == "mixed", !groups.is_empty(), "{name} seed {seed}");
            for blocking_column in [None, Some("zone".to_string()), Some("odd0".to_string())] {
                let config = LinkageConfig {
                    blocking_column,
                    threshold: 0.05,
                    ignore: vec!["class".into()],
                };
                let clusters = find_duplicate_clusters(&table, &config).unwrap();
                assert!(!clusters.is_empty(), "{name} seed {seed}: {config:?}");
                assert_eq!(
                    clusters,
                    find_duplicate_clusters(&twin, &config).unwrap(),
                    "{name} seed {seed}: {config:?}"
                );
                let (merged, removed) = merge_duplicates(&table, &config).unwrap();
                let (want, want_removed) = merge_duplicates(&twin, &config).unwrap();
                assert_eq!(
                    (null_nonfinite(&merged).fingerprint(), removed),
                    (want.fingerprint(), want_removed),
                    "{name} seed {seed}: {config:?}"
                );
            }
        }
    }
}
