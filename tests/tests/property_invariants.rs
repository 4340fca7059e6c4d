//! Seeded property tests on cross-crate invariants: CSV and N-Triples
//! round trips, injector contracts, profile bounds, evaluation-metric
//! ranges, grid accounting under arbitrary fault plans, and sharded-cube
//! invariants (rollup additivity, slice/dice consistency,
//! quality-annotation bounds, shard-count independence). Each property
//! runs on 64 cases drawn by [`check_cases`].

use openbi::quality::{
    measure_profile, Degradation, DuplicateInjector, Injector, LabelNoiseInjector, MeasureOptions,
    MissingInjector,
};
use openbi::table::{read_csv_str, write_csv_str, Column, CsvOptions, Rng, Table, Value};
use openbi_integration::{check_cases, len_in};
use openbi_lod::{parse_ntriples, write_ntriples, Graph, Iri, Literal, Term, Triple};
use openbi_olap::{Cube, CubeOptions, Measure};

const CASES: u64 = 64;

/// A well-formed table with a 2-class label column.
fn arb_table(rng: &mut Rng) -> Table {
    let n = len_in(rng, 2..40);
    let floats: Vec<f64> = (0..n).map(|_| float_in(rng, -1e6, 1e6)).collect();
    let ints: Vec<Option<i64>> = (0..n)
        .map(|_| rng.bool().then(|| rng.below(100) as i64))
        .collect();
    let labels: Vec<&str> = (0..n).map(|_| if rng.bool() { "b" } else { "a" }).collect();
    Table::new(vec![
        Column::from_f64("x", floats),
        Column::from_opt_i64("k", ints),
        Column::from_str_values("class", labels),
    ])
    .expect("consistent columns")
}

/// A float drawn uniformly from `[lo, hi)`.
fn float_in(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

/// `len` draws in `[lo, hi)`, with `len` itself drawn from `lens`.
fn floats(rng: &mut Rng, lens: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let len = len_in(rng, lens);
    (0..len).map(|_| float_in(rng, lo, hi)).collect()
}

/// Printable ASCII text (`' '..='~'`) of at most `max_len` characters.
fn ascii_text(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| char::from(b' ' + rng.below(95) as u8))
        .collect()
}

/// Degrade arbitrarily, then profile: all ratio criteria ∈ [0,1].
fn assert_profile_in_bounds(table: &Table, seed: u64) {
    let d = Degradation::new()
        .then(MissingInjector::mcar(0.3).exclude(["class"]))
        .then(DuplicateInjector::exact(0.2));
    let degraded = d.apply(table, seed).unwrap();
    let profile = measure_profile(&degraded, &MeasureOptions::with_target("class"));
    for (name, v) in profile.criteria() {
        assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        assert!(v.is_finite());
    }
}

#[test]
fn csv_round_trip_preserves_string_tables() {
    check_cases(CASES, |rng| {
        let rows = len_in(rng, 1..20);
        let (a, b): (Vec<String>, Vec<String>) = (0..rows)
            .map(|_| (ascii_text(rng, 12), ascii_text(rng, 12)))
            .unzip();
        // Build a string table; disable inference so values stay verbatim.
        let t = Table::new(vec![
            Column::from_str_values("a", a),
            Column::from_str_values("b", b),
        ])
        .unwrap();
        let text = write_csv_str(&t, ',');
        let opts = CsvOptions {
            infer_types: false,
            ..Default::default()
        };
        let back = read_csv_str(&text, &opts).unwrap();
        assert_eq!(back.n_rows(), t.n_rows());
        for i in 0..t.n_rows() {
            let orig = t.get("a", i).unwrap().to_string();
            let got = back.get("a", i).unwrap();
            // Empty strings become nulls on read — the only lossy case.
            if orig.is_empty() {
                assert!(got.is_null() || got == Value::Str(String::new()));
            } else {
                assert_eq!(got, Value::Str(orig));
            }
        }
    });
}

#[test]
fn missing_injector_respects_contract() {
    check_cases(CASES, |rng| {
        let (ratio, seed, table) = (rng.f64(), rng.below(1000) as u64, arb_table(rng));
        let inj = MissingInjector::mcar(ratio).exclude(["class"]);
        let out = inj.apply(&table, &mut Rng::seed_from_u64(seed)).unwrap();
        // Shape preserved.
        assert_eq!(out.n_rows(), table.n_rows());
        assert_eq!(out.n_cols(), table.n_cols());
        // Class column untouched.
        assert_eq!(out.column("class").unwrap(), table.column("class").unwrap());
        // Null count only grows, and stays within the eligible cells.
        assert!(out.total_null_count() >= table.total_null_count());
        assert!(out.total_null_count() <= 2 * table.n_rows() + table.total_null_count());
        // Determinism.
        assert_eq!(
            out,
            inj.apply(&table, &mut Rng::seed_from_u64(seed)).unwrap()
        );
    });
}

#[test]
fn label_noise_flips_at_most_requested() {
    check_cases(CASES, |rng| {
        let (ratio, seed, table) = (rng.f64(), rng.below(1000) as u64, arb_table(rng));
        // The injector needs both classes present.
        if table.column("class").unwrap().categories().len() < 2 {
            return;
        }
        let inj = LabelNoiseInjector::new("class", ratio);
        let out = inj.apply(&table, &mut Rng::seed_from_u64(seed)).unwrap();
        let flips = (0..table.n_rows())
            .filter(|&i| out.get("class", i).unwrap() != table.get("class", i).unwrap())
            .count();
        let expected = (ratio * table.n_rows() as f64).round() as usize;
        assert!(flips <= expected);
        // Non-label columns untouched.
        assert_eq!(out.column("x").unwrap(), table.column("x").unwrap());
    });
}

/// One category rule in every reader: a float target holding `0.0`,
/// `-0.0`, `1.0`, a null and four NaN cells (both signs, two payloads)
/// has the four classes `0`, `-0`, `1` and `NaN` in the mining
/// dictionary, the balance report, the profile, the catalog and the OLAP
/// dimension keys, and every label flip lands in another category.
#[test]
fn every_reader_counts_the_same_float_classes() {
    let nan_payload = f64::from_bits(0x7FF8_0000_0000_0001);
    let mut labels: Vec<Option<f64>> = (0..30).map(|r| Some([0.0, -0.0, 1.0][r % 3])).collect();
    for (r, nan) in [
        (4, f64::NAN),
        (11, -f64::NAN),
        (17, nan_payload),
        (25, f64::NAN),
    ] {
        labels[r] = Some(nan);
    }
    labels[20] = None;
    let table = Table::new(vec![
        Column::from_f64("x", (0..30).map(|r| (r % 7) as f64)),
        Column::from_opt_f64("y", labels),
    ])
    .unwrap();
    let instances = openbi::mining::Instances::from_table(&table, Some("y"), &[]).unwrap();
    assert_eq!(instances.class_names, ["0", "-0", "1", "NaN"]);
    let balance = openbi::quality::measure::balance::balance_report(&table, "y").unwrap();
    assert_eq!(balance.class_count, 4);
    let profile = measure_profile(&table, &MeasureOptions::with_target("y"));
    assert_eq!(profile.distinct_class_count, 4);
    let catalog = openbi::metamodel::column_set_from_table(
        &table,
        "t",
        openbi::metamodel::Provenance::Csv { source: "t".into() },
    );
    assert_eq!(catalog.column("y").unwrap().distinct_count, Some(4));
    let cube = Cube::new(table.clone(), &["y"], vec![Measure::Count("x".into())]).unwrap();
    let groups = cube
        .rollup_quality(&["y"], &CubeOptions::default())
        .unwrap();
    let keys: Vec<String> = (0..groups.table.n_rows())
        .map(|r| groups.table.get("y", r).unwrap().to_string())
        .collect();
    assert_eq!(keys, ["0", "-0", "1", "NaN", ""], "a null groups as \"\"");
    for seed in 0..8 {
        let inj = LabelNoiseInjector::new("y", 1.0);
        let out = inj.apply(&table, &mut Rng::seed_from_u64(seed)).unwrap();
        for r in (0..table.n_rows()).filter(|&r| r != 20) {
            let (before, after) = (table.get("y", r).unwrap(), out.get("y", r).unwrap());
            assert_ne!(before.to_string(), after.to_string(), "seed {seed} row {r}");
            assert!(instances.class_names.contains(&after.to_string()));
        }
        assert!(out.get("y", 20).unwrap().is_null());
    }
}

#[test]
fn duplicate_injector_only_appends() {
    check_cases(CASES, |rng| {
        let (ratio, seed, table) = (0.6 * rng.f64(), rng.below(1000) as u64, arb_table(rng));
        let inj = DuplicateInjector::exact(ratio);
        let out = inj.apply(&table, &mut Rng::seed_from_u64(seed)).unwrap();
        assert!(out.n_rows() >= table.n_rows());
        // The original rows are a prefix of the output.
        for i in 0..table.n_rows() {
            assert_eq!(out.row(i).unwrap(), table.row(i).unwrap());
        }
        // Every appended row equals some original row.
        for i in table.n_rows()..out.n_rows() {
            let key = out.row_key(i).unwrap();
            assert!((0..table.n_rows()).any(|j| table.row_key(j).unwrap() == key));
        }
    });
}

#[test]
fn quality_profile_stays_in_bounds() {
    check_cases(CASES, |rng| {
        let table = arb_table(rng);
        assert_profile_in_bounds(&table, rng.below(50) as u64);
    });
}

/// The one case the earlier shrinking property runner saved: a table
/// whose label column holds a single class.
#[test]
fn single_class_table_profile_stays_in_bounds() {
    let table = Table::new(vec![
        Column::from_f64("x", [872918.036535502, 0.0, 0.0, 247223.90155905916]),
        Column::from_opt_i64("k", [Some(16), None, None, Some(55)]),
        Column::from_str_values("class", ["a"; 4]),
    ])
    .unwrap();
    assert_profile_in_bounds(&table, 31);
}

#[test]
fn ntriples_round_trip_arbitrary_literals() {
    check_cases(CASES, |rng| {
        let mut g = Graph::new();
        let p = Term::Iri(Iri::new("http://e.org/v").unwrap());
        for i in 0..len_in(rng, 1..15) {
            g.insert(Triple::new(
                Term::iri(&format!("http://e.org/s{i}")),
                p.clone(),
                Term::Literal(Literal::plain(ascii_text(rng, 20))),
            ));
        }
        let text = write_ntriples(&g);
        let back = parse_ntriples(&text).unwrap();
        assert_eq!(back.len(), g.len());
        for t in g.iter() {
            assert!(back.contains(&t));
        }
    });
}

#[test]
fn graph_pattern_results_are_consistent() {
    check_cases(CASES, |rng| {
        let mut g = Graph::new();
        for _ in 0..rng.below(30) {
            let (s, p, o) = (rng.below(6), rng.below(3), rng.below(6));
            g.insert(Triple::new(
                Term::iri(&format!("http://e.org/n{s}")),
                Term::iri(&format!("http://e.org/p{p}")),
                Term::iri(&format!("http://e.org/n{o}")),
            ));
        }
        // Sum of per-predicate matches equals the total triple count.
        let total: usize = (0..3)
            .map(|p| {
                let pred = Term::iri(&format!("http://e.org/p{p}"));
                g.match_pattern(None, Some(&pred), None).len()
            })
            .sum();
        assert_eq!(total, g.len());
        // Every fully-bound lookup agrees with contains().
        for t in g.iter() {
            let found = g.match_pattern(Some(&t.subject), Some(&t.predicate), Some(&t.object));
            assert_eq!(found.len(), 1);
        }
        // All eight shapes return exactly the matching triples, in SPO
        // order. Bound terms come from the graph's triples; each triple
        // is probed once as is and once with one position replaced by a
        // term the graph does not hold.
        let absent = Term::iri("http://e.org/absent");
        let mut probes = vec![[absent.clone(), absent.clone(), absent.clone()]];
        for (i, t) in g.iter().enumerate() {
            let terms = [t.subject, t.predicate, t.object];
            let mut with_absent = terms.clone();
            with_absent[i % 3] = absent.clone();
            probes.push(terms);
            probes.push(with_absent);
        }
        for terms in &probes {
            for shape in 0..8 {
                let bound = |k: usize| ((shape >> k) & 1 == 1).then_some(&terms[k]);
                let (s, p, o) = (bound(0), bound(1), bound(2));
                let expected: Vec<Triple> = g
                    .iter()
                    .filter(|t| {
                        s.is_none_or(|s| *s == t.subject)
                            && p.is_none_or(|p| *p == t.predicate)
                            && o.is_none_or(|o| *o == t.object)
                    })
                    .collect();
                assert_eq!(g.match_pattern(s, p, o), expected, "shape {shape:03b}");
            }
        }
    });
}

#[test]
fn group_by_sums_partition_the_total() {
    check_cases(CASES, |rng| {
        let keys: Vec<usize> = (0..len_in(rng, 1..40)).map(|_| rng.below(4)).collect();
        let values = floats(rng, 1..40, -1e3, 1e3);
        let n = keys.len().min(values.len());
        let t = Table::new(vec![
            Column::from_str_values(
                "k",
                keys[..n]
                    .iter()
                    .map(|k| format!("g{k}"))
                    .collect::<Vec<String>>(),
            ),
            Column::from_f64("v", values[..n].to_vec()),
        ])
        .unwrap();
        let g = openbi::table::group_by(
            &t,
            &["k"],
            &[
                openbi::table::Aggregate::Sum("v".into()),
                openbi::table::Aggregate::Count("v".into()),
            ],
        )
        .unwrap();
        // Group sums add up to the overall sum; counts add up to n.
        let total: f64 = values[..n].iter().sum();
        let group_total: f64 = (0..g.n_rows())
            .map(|i| g.get("sum(v)", i).unwrap().as_f64().unwrap())
            .sum();
        assert!((group_total - total).abs() < 1e-6);
        let count_total: i64 = (0..g.n_rows())
            .map(|i| g.get("count(v)", i).unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(count_total as usize, n);
    });
}

#[test]
fn sort_is_a_permutation_and_ordered() {
    check_cases(CASES, |rng| {
        let values = floats(rng, 1..50, -1e6, 1e6);
        let t = Table::new(vec![Column::from_f64("x", values.clone())]).unwrap();
        let sorted = t.sort_by("x", false).unwrap();
        assert_eq!(sorted.n_rows(), t.n_rows());
        let out: Vec<f64> = sorted
            .column("x")
            .unwrap()
            .to_f64_vec()
            .into_iter()
            .flatten()
            .collect();
        for w in out.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let mut expected = values;
        expected.sort_by(f64::total_cmp);
        assert_eq!(out, expected);
    });
}

#[test]
fn min_max_scale_bounds_and_order_preservation() {
    check_cases(CASES, |rng| {
        let values = floats(rng, 2..50, -1e6, 1e6);
        let t = Table::new(vec![Column::from_f64("x", values.clone())]).unwrap();
        let scaled = openbi::mining::preprocess::min_max_scale(&t, &["x"]).unwrap();
        let out: Vec<f64> = scaled
            .column("x")
            .unwrap()
            .to_f64_vec()
            .into_iter()
            .flatten()
            .collect();
        for v in &out {
            assert!((0.0..=1.0).contains(v), "scaled value {v}");
        }
        // Order of any two entries is preserved.
        for i in 1..values.len() {
            if values[i - 1] < values[i] {
                assert!(out[i - 1] <= out[i]);
            }
        }
    });
}

#[test]
fn grid_accounting_holds_under_arbitrary_fault_plans() {
    use openbi::experiment::{run_phase1_report, Criterion, ExperimentConfig, ExperimentDataset};
    use openbi_datagen::{make_blobs, BlobsConfig};
    use openbi_faults::{FaultKind, FaultPlan, FaultRule};

    check_cases(CASES, |rng| {
        let plan_seed = rng.below(1_000) as u64;
        let ratio = rng.f64();
        let times = rng.below(3) as u32;
        let delay = rng.bool().then(|| rng.below(2) as u64);
        let max_retries = rng.below(3) as u32;
        let workers = len_in(rng, 1..3);
        // An arbitrary seeded plan against a tiny grid: whatever the
        // schedule does, the executor's books must balance.
        let kind = match delay {
            Some(ms) => FaultKind::Delay(ms),
            None => FaultKind::Error,
        };
        let plan = FaultPlan::new(plan_seed).with(
            FaultRule::new("grid.cell.run", kind)
                .times(times)
                .ratio(ratio),
        );
        let datasets = vec![ExperimentDataset::new(
            "blobs",
            make_blobs(&BlobsConfig {
                n_rows: 40,
                n_features: 3,
                n_classes: 2,
                class_separation: 3.0,
                seed: 1,
            }),
            "class",
        )];
        let cfg = ExperimentConfig {
            algorithms: vec![openbi::mining::AlgorithmSpec::ZeroR],
            severities: vec![0.0, 1.0],
            folds: 2,
            seed: plan_seed,
            parallel: true,
            workers,
            max_retries,
            retry_backoff: std::time::Duration::ZERO,
            fault_plan: Some(std::sync::Arc::new(plan)),
            ..ExperimentConfig::default()
        };
        let kb = openbi::kb::SnapshotKnowledgeBase::default();
        let report = run_phase1_report(&datasets, &[Criterion::Completeness], &cfg, &kb).unwrap();
        assert_eq!(
            report.cells,
            report.cells_succeeded + report.failures.len(),
            "attempted = succeeded + failed must hold for any plan"
        );
        for f in &report.failures {
            assert!(
                (1..=max_retries + 1).contains(&f.attempts),
                "attempts {} outside 1..={}",
                f.attempts,
                max_retries + 1
            );
        }
        if delay.is_some() {
            // Delay faults slow cells down but never change results.
            assert!(report.failures.is_empty());
            assert_eq!(report.cells_succeeded, report.cells);
        }
    });
}

#[test]
fn vstack_then_split_round_trips() {
    check_cases(CASES, |rng| {
        let a = floats(rng, 1..20, -1e3, 1e3);
        let b = floats(rng, 1..20, -1e3, 1e3);
        let ta = Table::new(vec![Column::from_f64("x", a.clone())]).unwrap();
        let tb = Table::new(vec![Column::from_f64("x", b.clone())]).unwrap();
        let stacked = ta.vstack(&tb).unwrap();
        assert_eq!(stacked.n_rows(), a.len() + b.len());
        let (top, bottom) = stacked.split_at(a.len()).unwrap();
        assert_eq!(top, ta);
        assert_eq!(bottom, tb);
    });
}

/// A fact table for cube invariants — two low-cardinality dimensions
/// and one nullable measure column whose values live on the dyadic grid
/// `i/8` with small magnitude, so every partial sum is exactly
/// representable and rollup additivity is a **bitwise** property, not a
/// tolerance-based one.
fn arb_cube_facts(rng: &mut Rng) -> Table {
    let n = len_in(rng, 1..40);
    let d1: Vec<String> = (0..n).map(|_| format!("a{}", rng.below(3))).collect();
    let d2: Vec<String> = (0..n).map(|_| format!("b{}", rng.below(4))).collect();
    let xs: Vec<Option<f64>> = (0..n)
        .map(|_| {
            rng.bool()
                .then(|| (rng.below(16_000) as f64 - 8000.0) / 8.0)
        })
        .collect();
    Table::new(vec![
        Column::from_str_values("d1", d1),
        Column::from_str_values("d2", d2),
        Column::from_opt_f64("x", xs),
    ])
    .expect("consistent columns")
}

#[test]
fn cube_rollup_children_fold_exactly_to_parent() {
    check_cases(CASES, |rng| {
        let (facts, shards) = (arb_cube_facts(rng), len_in(rng, 1..8));
        // Folding the (d1, d2) cells per d1 group must land on the
        // (d1)-rollup cells exactly: same count, same sum bits (the
        // dyadic-grid measure keeps every partial sum representable).
        let cube = Cube::new(
            facts,
            &["d1", "d2"],
            vec![Measure::Sum("x".into()), Measure::Count("x".into())],
        )
        .unwrap();
        let opts = CubeOptions::with_shards(shards);
        let child = cube.rollup_quality(&["d1", "d2"], &opts).unwrap().table;
        let parent = cube.rollup_quality(&["d1"], &opts).unwrap().table;
        let mut sums: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        let mut counts: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
        for r in 0..child.n_rows() {
            let k = child.get("d1", r).unwrap().to_string();
            if let Some(v) = child.get("sum(x)", r).unwrap().as_f64() {
                *sums.entry(k.clone()).or_insert(0.0) += v;
            }
            *counts.entry(k).or_insert(0) += child.get("count(x)", r).unwrap().as_i64().unwrap();
        }
        for r in 0..parent.n_rows() {
            let k = parent.get("d1", r).unwrap().to_string();
            let count = parent.get("count(x)", r).unwrap().as_i64().unwrap();
            assert_eq!(count, counts.get(&k).copied().unwrap_or(0), "count for {k}");
            match parent.get("sum(x)", r).unwrap().as_f64() {
                Some(sum) => assert_eq!(
                    sum.to_bits(),
                    sums.get(&k).copied().unwrap_or(0.0).to_bits(),
                    "sum bits for {k}"
                ),
                // An all-null parent group has all-null children.
                None => assert!(!sums.contains_key(&k), "null parent, numeric child for {k}"),
            }
        }
    });
}

#[test]
fn cube_quality_supports_partition_the_fact_rows() {
    check_cases(CASES, |rng| {
        let (facts, shards) = (arb_cube_facts(rng), len_in(rng, 1..8));
        let n = facts.n_rows();
        let cube = Cube::new(facts, &["d1", "d2"], vec![Measure::Mean("x".into())]).unwrap();
        let result = cube
            .rollup_quality(&["d1", "d2"], &CubeOptions::with_shards(shards))
            .unwrap();
        assert!(!result.is_degraded());
        let total: u64 = result.quality.iter().map(|q| q.support).sum();
        assert_eq!(total as usize, n, "every fact row in exactly one cell");
        for q in &result.quality {
            assert!(q.support >= 1, "emitted cells have support");
            assert!(q.null_ratio.is_finite());
            assert!(
                (0.0..=1.0).contains(&q.null_ratio),
                "ratio {} out of bounds",
                q.null_ratio
            );
        }
    });
}

#[test]
fn cube_slice_and_dice_agree_with_the_full_cube() {
    check_cases(CASES, |rng| {
        let (facts, shards) = (arb_cube_facts(rng), len_in(rng, 1..8));
        let cube = Cube::new(
            facts.clone(),
            &["d1", "d2"],
            vec![
                Measure::Sum("x".into()),
                Measure::Mean("x".into()),
                Measure::Count("x".into()),
                Measure::Min("x".into()),
                Measure::Max("x".into()),
            ],
        )
        .unwrap();
        let opts = CubeOptions::with_shards(shards);
        let parent = cube.rollup_quality(&["d1"], &opts).unwrap().table;
        // Slicing on each d1 value and re-rolling must reproduce that
        // parent row cell for cell, and the slices partition the facts.
        let mut sliced_rows = 0;
        for r in 0..parent.n_rows() {
            let v = parent.get("d1", r).unwrap().to_string();
            let slice = cube.slice("d1", &v).unwrap();
            sliced_rows += slice.facts().n_rows();
            let row = slice.rollup_quality(&["d1"], &opts).unwrap().table;
            assert_eq!(row.n_rows(), 1);
            for c in parent.column_names() {
                assert_eq!(
                    format!("{:?}", parent.get(c, r).unwrap()),
                    format!("{:?}", row.get(c, 0).unwrap()),
                    "column {c} for d1={v}"
                );
            }
        }
        assert_eq!(
            sliced_rows,
            facts.n_rows(),
            "slices partition the fact rows"
        );
        // Dicing on every d1 value keeps the whole cube.
        let keys: Vec<String> = (0..parent.n_rows())
            .map(|r| parent.get("d1", r).unwrap().to_string())
            .collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(
            cube.dice("d1", &keys).unwrap().facts().fingerprint(),
            facts.fingerprint()
        );
    });
}

#[test]
fn cube_shard_count_never_changes_the_bits() {
    check_cases(CASES, |rng| {
        let (facts, shards) = (arb_cube_facts(rng), len_in(rng, 2..9));
        let cube = Cube::new(
            facts,
            &["d1", "d2"],
            vec![
                Measure::Sum("x".into()),
                Measure::Min("x".into()),
                Measure::Max("x".into()),
            ],
        )
        .unwrap();
        let one = cube
            .rollup_quality(&["d1", "d2"], &CubeOptions::with_shards(1))
            .unwrap()
            .table;
        let many = cube
            .rollup_quality(&["d1", "d2"], &CubeOptions::with_shards(shards))
            .unwrap()
            .table;
        assert_eq!(one.fingerprint(), many.fingerprint());
    });
}
