//! Columnar-rewrite equivalence suite (DESIGN.md §11).
//!
//! The pre-rewrite row-major implementation is frozen in the test-support
//! library as `openbi_integration::reference::mining` — the same
//! `Vec<Vec<Option<f64>>>` layout and kernel code that existed before the
//! struct-of-arrays rewrite.
//! Every test here runs the identical workload through both
//! implementations **in the same process** and demands byte-identical
//! output: the same CV accuracies down to the f64 bit pattern, the same
//! pooled confusion matrices, the same holdout predictions, and the same
//! experiment-grid KB records at every worker count, across seeds
//! {7, 21, 42, 1042}. Nothing here is tolerance-based — a one-ULP drift
//! in any kernel fails the suite.
//!
//! Coverage is layered:
//!
//! 1. **Kernel + CV layer** — live `cross_validate` (zero-copy views)
//!    vs. `reference::cross_validate` (cloning `subset()` folds). Fold
//!    assignment is the same code path in both, so a mismatch is a
//!    kernel difference. It runs a small roster on every corpus (see
//!    [`corpora`]), and the `standard_suite` settings the §3.1 grid uses,
//!    also on the nominal corpora rebuilt row by row with codes outside
//!    their dictionaries.
//!    The live side stores a NaN or ±∞ cell as missing, so the reference
//!    reads each corpus with those cells null (`null_nonfinite`).
//! 2. **Holdout layer** — view-based `fit_view`/`predict_view` vs.
//!    reference training on materialized subsets of the same rows.
//! 3. **Grid layer** — the §3.1 experiment grid must produce the same
//!    KB bytes at workers 1 and 4. Combined with layer 1 (the grid's
//!    only layout-dependent computation is the CV it runs per cell)
//!    this pins the grid KB to the pre-rewrite bytes.
//! 4. **The benchmark's inputs** — FNV-64 digests of the tree's and the
//!    forest's CV results on the `kb_build` datasets and of the tree's on
//!    the `pipeline_mix` tables, taken before the trees fitted bootstrap
//!    samples as row multiplicities and read their split terms from a
//!    process-wide table, and of the forest's on the seed-2012
//!    `pipeline_mix` tables, taken before each fit grew its tree on one
//!    in-place partitioned arena.
//! 5. **Guided imputation and preprocessing** — both imputing steps fill
//!    a NaN or ±∞ cell of the non-finite corpora exactly as they fill the
//!    null of the corpus's `null_nonfinite` twin, and the encoding into
//!    `Instances`, both scalers, both binnings, MDL discretization and
//!    outlier clamping treat it as that null.

use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
use openbi::guidance::{PreprocessingPlan, PreprocessingStep};
use openbi::kb::SnapshotKnowledgeBase;
use openbi::mining::eval::crossval::{cross_validate_with, holdout_split, CrossValOptions};
use openbi::mining::instances::AttrKind;
use openbi::mining::{AlgorithmSpec, Instances};
use openbi_datagen::{
    all_scenarios, make_blobs, make_rule_based, reference_datasets, BlobsConfig, RuleConfig,
};
use openbi_integration::reference::mining as reference;
use openbi_integration::{
    fnv64, lcg, nonfinite, nonfinite_corpora, null_nonfinite, pipeline_mix_scenarios,
};
use openbi_quality::{Degradation, MissingInjector};
use openbi_table::{Column, Rng, Table};

const SEEDS: [u64; 4] = [7, 21, 42, 1042];
const WORKERS: [usize; 2] = [1, 4];

/// The algorithm roster: every classifier kernel in the crate.
fn algorithms() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::ZeroR,
        AlgorithmSpec::OneR,
        AlgorithmSpec::NaiveBayes,
        AlgorithmSpec::Knn { k: 3 },
        AlgorithmSpec::DecisionTree {
            max_depth: 6,
            min_leaf: 2,
        },
        AlgorithmSpec::RandomForest {
            trees: 5,
            max_depth: 5,
            seed: 11,
        },
        AlgorithmSpec::Logistic {
            epochs: 12,
            learning_rate: 0.1,
        },
    ]
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

fn grid_config(seed: u64, workers: usize) -> ExperimentConfig {
    ExperimentConfig {
        algorithms: algorithms(),
        severities: vec![0.0, 1.0],
        folds: 2,
        seed,
        parallel: workers > 1,
        workers,
        ..ExperimentConfig::default()
    }
}

/// Serialize a KB into a timing-free fingerprint, in store order
/// (`train_ms` is the only wall-clock field in a record).
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

fn run_grid_fingerprint(seed: u64, workers: usize) -> Vec<String> {
    let kb = SnapshotKnowledgeBase::default();
    let criteria = [Criterion::Completeness, Criterion::LabelNoise];
    let report = run_phase1_report(
        &grid_datasets(),
        &criteria,
        &grid_config(seed, workers),
        &kb,
    )
    .unwrap();
    assert!(
        report.failures.is_empty(),
        "seed {seed}, {workers} workers: grid must run clean"
    );
    kb_fingerprint(&kb)
}

/// A discretized-sensor table: 8 numeric attributes quantized to 24
/// levels (so candidate thresholds and neighbour distances tie often),
/// ~5% missing cells and 3 string classes.
fn discretized(n: usize, seed: u64) -> Table {
    const ATTRS: usize = 8;
    const CLASSES: [&str; 3] = ["low", "mid", "high"];
    let mut next = lcg(seed);
    let mut cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); ATTRS];
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let cls = (next() * 3.0) as usize % 3;
        labels.push(CLASSES[cls]);
        for (a, col) in cols.iter_mut().enumerate() {
            col.push(if next() < 0.05 {
                None
            } else {
                // Shifted per class: learnable but not separable.
                Some((next() * 24.0).floor() / 6.0 + (cls as f64) * (a as f64 % 3.0))
            });
        }
    }
    let mut columns: Vec<Column> = cols
        .into_iter()
        .enumerate()
        .map(|(a, v)| Column::from_opt_f64(format!("f{a}"), v))
        .collect();
    columns.push(Column::from_str_values("class", labels));
    Table::new(columns).unwrap()
}

/// One CV corpus: a table, its target and the columns mining ignores.
struct Corpus {
    name: String,
    table: Table,
    target: String,
    exclude: Vec<String>,
}

impl Corpus {
    fn new(name: &str, table: Table, target: &str) -> Corpus {
        Corpus {
            name: name.into(),
            table,
            target: target.into(),
            exclude: Vec::new(),
        }
    }

    /// The live encoding of the corpus, and the frozen encoding of the
    /// corpus with its non-finite cells null.
    fn instances(&self) -> (Instances, reference::Instances) {
        let exclude: Vec<&str> = self.exclude.iter().map(String::as_str).collect();
        let nulled = null_nonfinite(&self.table);
        (
            Instances::from_table(&self.table, Some(&self.target), &exclude).unwrap(),
            reference::Instances::from_table(&nulled, Some(&self.target), &exclude).unwrap(),
        )
    }
}

/// The CV corpora:
/// - Gaussian blobs with 25% MCAR missing cells (every missing-value
///   path);
/// - the rule-based set with a nominal `region` attribute (the
///   categorical paths);
/// - the discretized-sensor table (the tie paths);
/// - the three `all_scenarios` tables, whose nominal attributes drive
///   the one-hot logistic codes and the multiway tree splits;
/// - two non-finite tables with an all-missing column: one with `±∞`
///   cells, one with `±NaN` cells;
/// - a discretized table whose CV training folds are larger than the
///   cap of the trees' split-term table (512 rows).
fn corpora(seed: u64) -> Vec<Corpus> {
    let blobs = make_blobs(&BlobsConfig {
        n_rows: 150,
        n_features: 5,
        n_classes: 3,
        class_separation: 2.5,
        seed: 5,
    });
    let degraded = Degradation::new()
        .then(MissingInjector::mcar(0.25).exclude(["class"]))
        .apply(&blobs, seed)
        .unwrap();
    let rules = make_rule_based(&RuleConfig {
        n_rows: 150,
        n_noise_features: 2,
        seed: 9,
    });
    let mut corpora = vec![
        Corpus::new("blobs-mcar", degraded, "class"),
        Corpus::new("rules", rules, "class"),
        Corpus::new("discretized", discretized(240, seed), "class"),
    ];
    corpora.extend(all_scenarios(150, seed).into_iter().map(|s| Corpus {
        name: s.name,
        table: s.table,
        target: s.target,
        exclude: s.id_columns,
    }));
    let infinite = nonfinite(180, seed, &[f64::INFINITY, f64::NEG_INFINITY]);
    corpora.push(Corpus::new("infinite", infinite, "class"));
    corpora.push(Corpus::new(
        "nan",
        nonfinite(180, seed, &[f64::NAN, -f64::NAN]),
        "class",
    ));
    corpora.push(Corpus::new(
        "past-term-table-cap",
        discretized(840, seed),
        "class",
    ));
    corpora
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Assert that live and frozen CV agree to the bit on every reported
/// number: per-fold and pooled accuracy, model size and confusion.
fn assert_cv_identical(corpus: &Corpus, spec: &AlgorithmSpec, seed: u64, parallel: bool) {
    let (live, frozen) = corpus.instances();
    assert_encodings_cv_identical(&corpus.name, &live, &frozen, spec, seed, parallel);
}

/// [`assert_cv_identical`] on a live and a frozen encoding of one dataset.
fn assert_encodings_cv_identical(
    name: &str,
    live: &Instances,
    frozen: &reference::Instances,
    spec: &AlgorithmSpec,
    seed: u64,
    parallel: bool,
) {
    let old = reference::cross_validate(frozen, spec, 3, seed).unwrap();
    let opts = if parallel {
        CrossValOptions::parallel()
    } else {
        CrossValOptions::default()
    };
    let new = cross_validate_with(live, spec, 3, seed, &opts).unwrap();
    let ctx = format!("seed {seed}, dataset {name}, {spec}, parallel={parallel}");
    assert_eq!(new.algorithm, old.algorithm, "{ctx}: algorithm label");
    assert_eq!(
        new.fold_accuracies
            .iter()
            .map(|&a| bits(a))
            .collect::<Vec<_>>(),
        old.fold_accuracies
            .iter()
            .map(|&a| bits(a))
            .collect::<Vec<_>>(),
        "{ctx}: per-fold accuracy bits drifted from the row-major reference"
    );
    assert_eq!(
        bits(new.accuracy()),
        bits(old.accuracy()),
        "{ctx}: pooled accuracy bits drifted"
    );
    assert_eq!(
        bits(new.model_size),
        bits(old.model_size),
        "{ctx}: model size drifted"
    );
    assert_eq!(
        new.confusion, old.confusion,
        "{ctx}: confusion matrix drifted"
    );
}

/// Every classifier's CV accuracies, confusion matrix, and model size
/// must match the frozen row-major reference to the exact bit — with the
/// live side running both sequentially and with a worker pool.
#[test]
fn cv_results_are_bitwise_identical_to_reference() {
    for seed in SEEDS {
        for corpus in corpora(seed) {
            for spec in &algorithms() {
                for parallel in [false, true] {
                    assert_cv_identical(&corpus, spec, seed, parallel);
                }
            }
        }
    }
}

/// The same proof at the `standard_suite` settings the §3.1 grid and the
/// benchmark run: 200 logistic epochs, a 20-tree forest of depth 10 and
/// a depth-12 tree with `min_leaf` 2.
#[test]
fn standard_suite_cv_is_bitwise_identical_to_reference() {
    for seed in SEEDS {
        for corpus in corpora(seed) {
            for spec in AlgorithmSpec::standard_suite() {
                assert_cv_identical(&corpus, &spec, seed, false);
            }
        }
    }
}

/// A nominal code outside its attribute's dictionary, which
/// `Instances::from_rows` and `set` can store but `from_table` never
/// produces, trains and predicts as in the reference: a split on that
/// attribute sends the row to no child, and prediction falls back to the
/// split's default.
#[test]
fn out_of_dictionary_codes_are_bitwise_identical_to_reference() {
    for seed in SEEDS {
        for corpus in corpora(seed) {
            let (_, mut frozen) = corpus.instances();
            let nominal: Vec<(usize, usize)> = frozen
                .attributes
                .iter()
                .enumerate()
                .filter_map(|(a, attr)| match &attr.kind {
                    AttrKind::Nominal(dict) => Some((a, dict.len())),
                    AttrKind::Numeric => None,
                })
                .collect();
            if nominal.is_empty() {
                continue;
            }
            let mut rng = Rng::seed_from_u64(seed);
            for row in &mut frozen.rows {
                for &(a, len) in &nominal {
                    if row[a].is_some() && rng.below(6) == 0 {
                        row[a] = Some((len + rng.below(3)) as f64);
                    }
                }
            }
            let live = Instances::from_rows(
                frozen.attributes.clone(),
                frozen.rows.clone(),
                frozen.labels.clone(),
                frozen.class_names.clone(),
            );
            let name = format!("{}-out-of-dictionary", corpus.name);
            for spec in algorithms().iter().chain(&AlgorithmSpec::standard_suite()) {
                assert_encodings_cv_identical(&name, &live, &frozen, spec, seed, false);
            }
        }
    }
}

/// View-based holdout training must predict exactly what the reference
/// predicts after training on a materialized copy of the same rows.
#[test]
fn holdout_predictions_are_identical_to_reference() {
    for seed in SEEDS {
        for corpus in corpora(seed) {
            let (live, frozen) = corpus.instances();
            let (train, test) = holdout_split(&live, 0.3, seed).unwrap();
            let train_rows: Vec<usize> = (0..train.len()).map(|i| train.base_row(i)).collect();
            let test_rows: Vec<usize> = (0..test.len()).map(|i| test.base_row(i)).collect();
            for spec in &algorithms() {
                let mut new_model = spec.build();
                new_model.fit_view(&train).unwrap();
                let new_preds = new_model.predict_view(&test).unwrap();
                let mut old_model = reference::build(spec);
                old_model.fit(&frozen.subset(&train_rows)).unwrap();
                let old_preds = old_model.predict(&frozen.subset(&test_rows)).unwrap();
                assert_eq!(
                    new_preds, old_preds,
                    "seed {seed}, dataset {}, {spec}: holdout predictions drifted",
                    corpus.name
                );
            }
        }
    }
}

/// The experiment grid must produce the same KB bytes at every worker
/// count — one Table→Instances conversion per cell, zero-copy folds, and
/// the multi-worker executor must not change a single record.
#[test]
fn grid_kb_is_byte_identical_across_worker_counts() {
    for seed in SEEDS {
        let mut fingerprints = WORKERS.iter().map(|&w| run_grid_fingerprint(seed, w));
        let baseline = fingerprints.next().unwrap();
        assert!(
            !baseline.is_empty(),
            "seed {seed}: grid produced no KB records"
        );
        for (w, fp) in WORKERS[1..].iter().zip(fingerprints) {
            assert_eq!(
                fp.len(),
                baseline.len(),
                "seed {seed}, {w} workers: record count drifted"
            );
            for (i, (a, e)) in fp.iter().zip(&baseline).enumerate() {
                assert_eq!(
                    a, e,
                    "seed {seed}, {w} workers: KB record {i} drifted from the 1-worker bytes"
                );
            }
        }
    }
}

/// A NaN or ±∞ cell is missing to guided imputation: it enters no
/// mean, range or distance and is filled like a null, so imputing a
/// non-finite corpus and then nulling what is left equals imputing its
/// null twin, and only the all-missing column keeps missing cells.
#[test]
fn guided_imputation_fills_non_finite_cells_like_nulls() {
    for seed in SEEDS {
        for (name, table) in nonfinite_corpora(seed) {
            let twin = null_nonfinite(&table);
            assert!(twin.total_null_count() > table.total_null_count());
            for step in [
                PreprocessingStep::ImputeKnn { k: 5 },
                PreprocessingStep::ImputeMeanMode,
            ] {
                let context = format!("{name} seed {seed}: {step:?}");
                let plan = PreprocessingPlan { steps: vec![step] };
                let imputed = plan.apply(&table, &["class"]).unwrap();
                let want = plan.apply(&twin, &["class"]).unwrap();
                assert_eq!(
                    null_nonfinite(&imputed).fingerprint(),
                    want.fingerprint(),
                    "{context}"
                );
                assert_eq!(
                    null_nonfinite(&imputed).total_null_count(),
                    table.n_rows(),
                    "{context}: only the all-missing column stays missing"
                );
            }
        }
    }
}

/// Every other mining and guidance reader of numeric cells takes them
/// from `Column::numbers`: on each non-finite corpus `t`,
/// `null_nonfinite(R(t))` equals `R(null_nonfinite(t))` for the
/// encoding into `Instances` (slot bits), both scalers, both binning
/// strategies, MDL discretization and outlier clamping. An error must
/// be the same error on both sides.
#[test]
fn preprocessors_read_non_finite_cells_like_nulls() {
    use openbi::mining::preprocess::{
        discretize_column, mdl_discretize_column, min_max_scale, z_score, BinStrategy,
    };
    let clamp = PreprocessingPlan {
        steps: vec![PreprocessingStep::ClampOutliers],
    };
    for seed in SEEDS {
        for (name, table) in nonfinite_corpora(seed) {
            let twin = null_nonfinite(&table);
            let encode = |t: &Table| {
                let data = Instances::from_table(t, Some("class"), &[]).unwrap();
                let slots: Vec<Vec<u64>> = (0..data.attributes.len())
                    .map(|a| data.column_values(a).iter().map(|x| x.to_bits()).collect())
                    .collect();
                (data.attributes, data.labels, data.class_names, slots)
            };
            assert!(
                encode(&table) == encode(&twin),
                "{name} seed {seed}: Instances"
            );
            let numeric: Vec<&str> = table
                .columns()
                .iter()
                .filter(|c| c.dtype().is_numeric())
                .map(|c| c.name())
                .collect();
            type Reader<'a> = Box<dyn Fn(&Table) -> Option<Table> + 'a>;
            let mut readers: Vec<(String, Reader)> = vec![
                (
                    "min_max_scale".into(),
                    Box::new(|t| min_max_scale(t, &numeric).ok()),
                ),
                ("z_score".into(), Box::new(|t| z_score(t, &numeric).ok())),
                (
                    "ClampOutliers".into(),
                    Box::new(|t| clamp.apply(t, &["class"]).ok()),
                ),
            ];
            for &column in &numeric {
                for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
                    readers.push((
                        format!("discretize_column({column}, {strategy:?})"),
                        Box::new(move |t| discretize_column(t, column, 3, strategy).ok()),
                    ));
                }
                readers.push((
                    format!("mdl_discretize_column({column})"),
                    Box::new(move |t| mdl_discretize_column(t, column, "class").ok()),
                ));
            }
            for (reader, run) in &readers {
                let got = run(&table).map(|t| null_nonfinite(&t).fingerprint());
                let want = run(&twin).map(|t| t.fingerprint());
                assert_eq!(got, want, "{name} seed {seed}: {reader}");
            }
        }
    }
}

/// The words a CV result is pinned by: each fold's accuracy bits, the
/// pooled confusion matrix and the bits of the mean model size.
fn cv_words(data: &Instances, spec: &AlgorithmSpec, seed: u64) -> Vec<u64> {
    let eval = cross_validate_with(data, spec, 5, seed, &CrossValOptions::parallel()).unwrap();
    let classes = eval.confusion.classes.len();
    let mut words: Vec<u64> = eval.fold_accuracies.iter().map(|a| a.to_bits()).collect();
    for actual in 0..classes {
        words.extend((0..classes).map(|predicted| eval.confusion.cell(actual, predicted) as u64));
    }
    words.push(eval.model_size.to_bits());
    words
}

/// Digests of 5-fold CV (parallel folds) of the `standard_suite` tree and
/// forest on the three 200-row `kb_build` datasets of each seed, of the
/// tree on the 24 `pipeline_mix_scenarios` tables of each seed, and of the
/// forest on those of seed 2012.
const BENCHMARK_TREE_DIGESTS: [(&str, u64); 15] = [
    ("2012/blobs-easy/DecisionTree", 0x3279ebf58972373a),
    ("2012/blobs-easy/RandomForest", 0xf8a3f6712c3edf87),
    ("2012/blobs-hard/DecisionTree", 0x7a42455ae6cebf8d),
    ("2012/blobs-hard/RandomForest", 0x3dabb08fd4434217),
    ("2012/rules/DecisionTree", 0x22b6496c203ae221),
    ("2012/rules/RandomForest", 0x6e6e058f8c27ba1c),
    ("9001/blobs-easy/DecisionTree", 0xd5f1e20b4e82f255),
    ("9001/blobs-easy/RandomForest", 0x236300c526ba5667),
    ("9001/blobs-hard/DecisionTree", 0xaab1b2d6dd99f281),
    ("9001/blobs-hard/RandomForest", 0xd818aa246d236e59),
    ("9001/rules/DecisionTree", 0x75655561429b52e6),
    ("9001/rules/RandomForest", 0x44e23e7d4f517365),
    ("2012/pipeline_mix/DecisionTree", 0xdf1a922017a09dce),
    ("7/pipeline_mix/DecisionTree", 0x8cdff7f8255ecaa5),
    ("2012/pipeline_mix/RandomForest", 0x8c5979b5ebc982ed),
];

/// The tree and the forest keep their exact CV results on the
/// benchmark's own inputs, whichever thread fills the split-term table.
#[test]
fn benchmark_tree_cv_matches_pinned_digests() {
    let suite = AlgorithmSpec::standard_suite();
    let trees: Vec<&AlgorithmSpec> = suite
        .iter()
        .filter(|s| matches!(s.name(), "DecisionTree" | "RandomForest"))
        .collect();
    let mut computed = Vec::new();
    for seed in [2012u64, 9001] {
        for (name, table, target) in reference_datasets(seed) {
            let data = Instances::from_table(&table.head(200), Some(&target), &[]).unwrap();
            for spec in &trees {
                let words = cv_words(&data, spec, seed);
                computed.push((
                    format!("{seed}/{name}/{}", spec.name()),
                    fnv64(words.iter().flat_map(|w| w.to_le_bytes())),
                ));
            }
        }
    }
    // The scenario tables hold nominal attributes, codes outside their
    // dictionaries and missing split cells.
    let (tree, forest) = (trees[0], trees[1]);
    for (seed, spec) in [(2012u64, tree), (7, tree), (2012, forest)] {
        let mut words = Vec::new();
        for s in pipeline_mix_scenarios(seed) {
            let exclude: Vec<&str> = s.id_columns.iter().map(String::as_str).collect();
            let data = Instances::from_table(&s.table, Some(&s.target), &exclude).unwrap();
            words.extend(cv_words(&data, spec, seed));
        }
        computed.push((
            format!("{seed}/pipeline_mix/{}", spec.name()),
            fnv64(words.iter().flat_map(|w| w.to_le_bytes())),
        ));
    }
    let drift: Vec<String> = computed
        .iter()
        .filter(|(name, digest)| !BENCHMARK_TREE_DIGESTS.contains(&(name.as_str(), *digest)))
        .map(|(name, digest)| format!("(\"{name}\", 0x{digest:016x}),"))
        .collect();
    assert!(
        drift.is_empty() && computed.len() == BENCHMARK_TREE_DIGESTS.len(),
        "{} of {} digests drifted from the pinned bits:\n{}",
        drift.len(),
        BENCHMARK_TREE_DIGESTS.len(),
        drift.join("\n")
    );
}
