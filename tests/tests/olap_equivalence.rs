//! Sharded-cube equivalence suite (DESIGN.md §14).
//!
//! The pre-rewrite single-threaded cube is frozen in-tree as
//! `openbi::olap::reference` — the same `group_by`-per-rollup code that
//! existed before the sharded engine. Every test here builds the
//! identical rollup through both implementations **in the same
//! process** and demands byte-identical output via
//! `Table::fingerprint()` (FNV-128 over schema + canonical cell bytes):
//! the same group order, the same key strings, and the same aggregate
//! f64 bit patterns at every shard count. Nothing here is
//! tolerance-based — a one-ULP drift in any accumulator, or a single
//! reordered group, fails the suite.
//!
//! Why this is provable rather than hopeful: shards are contiguous row
//! ranges merged in shard order with first-seen-wins group insertion
//! (so global first-seen order is preserved), sums and means go through
//! the exact fixed-point accumulator (`ExactSum` — addition is
//! order-independent by construction), and min/max fold with an
//! explicit total order, making every per-cell result independent of
//! the shard partition. The tests sweep shard counts that do and do not
//! divide the row count, seeds, every rollup depth, and the edge
//! regimes (nulls, NaNs, single-row groups, the empty fact table) to
//! hold the implementation to that argument.

use openbi_datagen::scenario::all_scenarios;
use openbi_olap::{reference, CellQuality, Cube, CubeOptions, CubeResult, Measure};
use openbi_table::{Column, Table, Value};
use std::collections::HashMap;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const SEEDS: [u64; 3] = [7, 21, 1042];

/// All five aggregates over `column`.
fn all_measures(column: &str) -> Vec<Measure> {
    vec![
        Measure::Sum(column.into()),
        Measure::Mean(column.into()),
        Measure::Count(column.into()),
        Measure::Min(column.into()),
        Measure::Max(column.into()),
    ]
}

/// Every group's `CellQuality` recounted from the fact rows: its
/// support is the number of rows with its key tuple (a null key renders
/// as `""`, so it groups with a literal empty string), and its null
/// ratio the share of null cells among those rows' distinct measure
/// source columns. Groups are matched by their rendered key strings.
struct QualityRecount {
    tallies: HashMap<Vec<String>, (u64, u64)>,
    sources: usize,
}

impl QualityRecount {
    fn new(facts: &Table, dims: &[&str], measures: &[Measure]) -> QualityRecount {
        let mut sources: Vec<&Column> = Vec::new();
        for m in measures {
            let col = facts.column(m.column()).unwrap();
            if !sources.iter().any(|c| c.name() == col.name()) {
                sources.push(col);
            }
        }
        let keys: Vec<&Column> = dims.iter().map(|d| facts.column(d).unwrap()).collect();
        let mut tallies: HashMap<Vec<String>, (u64, u64)> = HashMap::new();
        for r in 0..facts.n_rows() {
            let key = keys.iter().map(|c| c.get(r).unwrap().to_string()).collect();
            let tally = tallies.entry(key).or_default();
            tally.0 += 1;
            tally.1 += sources
                .iter()
                .filter(|c| c.get(r).unwrap().is_null())
                .count() as u64;
        }
        QualityRecount {
            tallies,
            sources: sources.len(),
        }
    }

    fn check(&self, dims: &[&str], got: &CubeResult, context: &str) {
        assert_eq!(
            got.quality.len(),
            got.table.n_rows(),
            "{context}: one quality annotation per output row"
        );
        assert_eq!(
            self.tallies.len(),
            got.table.n_rows(),
            "{context}: one output row per key tuple"
        );
        for (row, quality) in got.quality.iter().enumerate() {
            let key: Vec<String> = dims
                .iter()
                .map(|d| got.table.get(d, row).unwrap().to_string())
                .collect();
            let (support, nulls) = self.tallies[&key];
            let cells = support * self.sources as u64;
            let want = CellQuality {
                support,
                null_ratio: if cells == 0 {
                    0.0
                } else {
                    nulls as f64 / cells as f64
                },
            };
            assert_eq!(*quality, want, "{context}: quality of group {key:?}");
        }
    }
}

/// Assert the sharded engine matches the frozen reference bitwise for
/// one cube spec, at every rollup depth and shard count, grand total
/// included, and that every cell's quality annotation recounts from the
/// fact rows.
fn assert_equivalent(facts: Table, dims: &[&str], measures: Vec<Measure>, context: &str) {
    let live = Cube::new(facts.clone(), dims, measures.clone()).expect("live cube");
    let frozen =
        reference::Cube::new(facts.clone(), dims, measures.clone()).expect("reference cube");
    for depth in 0..=dims.len() {
        let sub = &dims[..depth];
        let want = match depth {
            0 => frozen.total().expect("reference total"),
            _ => frozen.rollup(sub).expect("reference rollup"),
        };
        let recount = QualityRecount::new(&facts, sub, &measures);
        for shards in SHARD_COUNTS {
            let options = CubeOptions::with_shards(shards);
            let got = match depth {
                0 => live.total_quality(&options).expect("sharded total"),
                _ => live.rollup_quality(sub, &options).expect("sharded rollup"),
            };
            assert_eq!(
                want.fingerprint(),
                got.table.fingerprint(),
                "{context}: dims {sub:?} diverged at {shards} shard(s)"
            );
            recount.check(
                sub,
                &got,
                &format!("{context}: dims {sub:?}, {shards} shard(s)"),
            );
        }
    }
    // The default shard count follows the host's cores.
    let want = frozen.total().expect("reference total");
    let got = live.total().expect("sharded total");
    assert_eq!(
        want.fingerprint(),
        got.fingerprint(),
        "{context}: grand total diverged"
    );
}

/// Every generator scenario (municipal budget, air quality, …) with its
/// id columns as dimensions and the full aggregate roster over every
/// numeric column — nulls and skew included — across seeds and shard
/// counts that do not divide the row count.
#[test]
fn scenario_sweep_is_bitwise_identical_at_every_shard_count() {
    let mut checked = 0;
    for seed in SEEDS {
        for sc in all_scenarios(500, seed) {
            let names = sc.table.column_names();
            let dims: Vec<&str> = names
                .iter()
                .filter(|n| sc.id_columns.iter().any(|c| c == **n))
                .cloned()
                .collect();
            if dims.is_empty() {
                continue;
            }
            let measures: Vec<Measure> = names
                .iter()
                .filter(|n| !dims.contains(n) && ***n != *sc.target)
                .flat_map(|n| all_measures(n))
                .collect();
            assert_equivalent(
                sc.table.clone(),
                &dims,
                measures,
                &format!("{} seed {seed}", sc.name),
            );
            checked += 1;
        }
    }
    assert!(checked >= 6, "scenario roster shrank to {checked}");
}

/// NaN measures, null measures, and a ±0.0 tie in the same cube: NaN
/// must poison sum/mean and pass through min/max identically on both
/// sides, nulls must be skipped but still counted into the quality
/// ratio, and -0.0 vs +0.0 must keep the reference's bit pattern.
#[test]
fn nan_null_and_signed_zero_cells_match_reference() {
    let facts = Table::new(vec![
        Column::from_str_values("g", ["a", "a", "b", "b", "c", "c", "d"]),
        Column::from_opt_f64(
            "x",
            [
                Some(f64::NAN),
                Some(1.5),
                None,
                Some(-0.0),
                Some(0.0),
                Some(-0.0),
                None,
            ],
        ),
    ])
    .unwrap();
    assert_equivalent(facts, &["g"], all_measures("x"), "nan/null/zero");
}

/// An all-NaN group exercises the min/max fold identities (the
/// reference folds from ±INFINITY; the engine must reproduce those
/// exact bits rather than "fix" them).
#[test]
fn all_nan_group_reproduces_reference_fold_identities() {
    let facts = Table::new(vec![
        Column::from_str_values("g", ["a", "a", "b"]),
        Column::from_f64("x", [f64::NAN, f64::NAN, 2.0]),
    ])
    .unwrap();
    assert_equivalent(facts, &["g"], all_measures("x"), "all-NaN group");
}

/// `+∞` and `−∞` measure cells are values next to NaN, as the reference
/// folds them: a group holding both signs sums (and averages) to NaN, a
/// single-sign group to that infinity, min/max pick the infinities up
/// like any value, and neither counts as null in the quality ratio.
#[test]
fn infinite_cells_are_values_next_to_nan() {
    let inf = f64::INFINITY;
    let facts = Table::new(vec![
        Column::from_str_values(
            "g",
            [
                "both", "pos", "neg", "both", "nan", "pos", "neg", "both", "nan", "neg",
            ],
        ),
        Column::from_opt_f64(
            "x",
            [
                Some(inf),
                Some(inf),
                Some(-inf),
                Some(1.0),
                Some(f64::NAN),
                Some(3.0),
                None,
                Some(-inf),
                Some(-inf),
                Some(-2.0),
            ],
        ),
    ])
    .unwrap();
    assert_equivalent(facts.clone(), &["g"], all_measures("x"), "±∞ next to NaN");

    let got = Cube::new(facts, &["g"], all_measures("x"))
        .unwrap()
        .rollup(&["g"])
        .unwrap();
    let cell = |name: &str, row: usize| got.get(name, row).unwrap().as_f64().unwrap();
    // Rows: both, pos, neg, nan.
    assert!(cell("sum(x)", 0).is_nan() && cell("mean(x)", 0).is_nan());
    assert_eq!((cell("min(x)", 0), cell("max(x)", 0)), (-inf, inf));
    assert_eq!((cell("sum(x)", 1), cell("mean(x)", 1)), (inf, inf));
    assert_eq!((cell("min(x)", 1), cell("max(x)", 1)), (3.0, inf));
    assert_eq!((cell("sum(x)", 2), cell("mean(x)", 2)), (-inf, -inf));
    assert_eq!((cell("min(x)", 2), cell("max(x)", 2)), (-inf, -2.0));
    assert!(cell("sum(x)", 3).is_nan());
    assert_eq!((cell("min(x)", 3), cell("max(x)", 3)), (-inf, -inf));
    assert_eq!(got.get("count(x)", 2).unwrap(), Value::Int(2));
}

/// Two near-unique dimensions: every row its own group, so the group
/// count grows with the rows at every rollup depth — the regime where
/// ranking groups by a dense (slot × code) table would need rows² slots.
#[test]
fn near_unique_dimension_pairs_rank_every_row() {
    let n = 701; // prime, so 2/4/7 shards all cut unevenly
    let facts = Table::new(vec![
        Column::from_str_values("a", (0..n).map(|i| format!("a{}", i % 700))),
        Column::from_str_values("b", (0..n).map(|i| format!("b{}", (i * 389) % n))),
        Column::from_f64("x", (0..n).map(|i| i as f64 * 0.5 - 100.0)),
    ])
    .unwrap();
    let groups = Cube::new(facts.clone(), &["a", "b"], all_measures("x"))
        .unwrap()
        .rollup(&["a", "b"])
        .unwrap()
        .n_rows();
    assert_eq!(groups, n);
    assert_equivalent(facts, &["a", "b"], all_measures("x"), "near-unique pairs");
}

/// Single-row groups: a key column with all-distinct values means more
/// groups than some shard counts, shard boundaries never split a group,
/// and first-seen order is just row order.
#[test]
fn single_row_groups_survive_any_partition() {
    let n = 23; // prime, so 2/4/7 shards all cut unevenly
    let facts = Table::new(vec![
        Column::from_str_values("id", (0..n).map(|i| format!("row{i}"))),
        Column::from_f64("x", (0..n).map(|i| i as f64 * 1.25 - 7.0)),
    ])
    .unwrap();
    assert_equivalent(facts, &["id"], all_measures("x"), "single-row groups");
}

/// The empty fact table: zero rows must yield a zero-row rollup (and a
/// zero-row grand total) from both implementations, not a panic, at
/// every shard count.
#[test]
fn empty_fact_table_yields_empty_cube() {
    let facts = Table::new(vec![
        Column::from_str_values("g", Vec::<String>::new()),
        Column::from_f64("x", Vec::<f64>::new()),
    ])
    .unwrap();
    let live = Cube::new(facts.clone(), &["g"], all_measures("x")).unwrap();
    for shards in SHARD_COUNTS {
        let got = live
            .rollup_quality(&["g"], &CubeOptions::with_shards(shards))
            .unwrap();
        assert_eq!(got.table.n_rows(), 0);
        assert!(got.quality.is_empty());
        assert!(!got.is_degraded());
    }
    assert_equivalent(facts, &["g"], all_measures("x"), "empty fact table");
}

/// Int, bool and float dimension keys with a null int and NaN floats.
fn typed_key_facts() -> Table {
    Table::new(vec![
        Column::from_opt_i64("year", [Some(2020), Some(2021), None, Some(2020), None]),
        Column::from_bool("flagged", [true, false, true, true, false]),
        Column::from_f64("band", [1.5, 2.5, 1.5, f64::NAN, f64::NAN]),
        Column::from_f64("x", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    .unwrap()
}

/// Mixed dimension dtypes (int, bool, float keys — not just strings):
/// dictionary encoding renders keys exactly as `group_by` does, so a
/// float dimension value like `2020.5` or a null key must produce the
/// same key string and group order.
#[test]
fn non_string_dimension_keys_render_identically() {
    assert_equivalent(
        typed_key_facts(),
        &["year", "flagged", "band"],
        all_measures("x"),
        "typed dimension keys",
    );
}

/// `slice` and `dice` on the live cube keep the fact rows the
/// reference's row-rendering `Table::filter` keeps, in the same order.
fn assert_same_dice(live: &Cube, frozen: &reference::Cube, dim: &str, values: &[&str]) {
    assert_eq!(
        live.dice(dim, values).unwrap().facts().fingerprint(),
        frozen.dice(dim, values).unwrap().facts().fingerprint(),
        "dice({dim}, {values:?}) selects the same rows"
    );
    for value in values {
        assert_eq!(
            live.slice(dim, value).unwrap().facts().fingerprint(),
            frozen.slice(dim, value).unwrap().facts().fingerprint(),
            "slice({dim}, {value:?}) selects the same rows"
        );
    }
}

/// Slice and dice go through the same sharded rollup afterwards; the
/// filtered sub-cubes must stay equivalent too. Dice keeps several
/// values, one of them absent; on typed keys a null int renders as
/// `""`, a bool as `true`/`false` and every NaN as `NaN`.
#[test]
fn slice_and_dice_subcubes_stay_equivalent() {
    let typed = typed_key_facts();
    let dims = ["year", "flagged", "band"];
    let live = Cube::new(typed.clone(), &dims, all_measures("x")).unwrap();
    let frozen = reference::Cube::new(typed, &dims, all_measures("x")).unwrap();
    for (dim, values) in [
        ("year", &["", "2020", "1999"][..]),
        ("year", &["2021"][..]),
        ("flagged", &["true", "yes"][..]),
        ("band", &["NaN", "2.5", "-1"][..]),
        ("band", &[""][..]),
    ] {
        assert_same_dice(&live, &frozen, dim, values);
    }
    for seed in SEEDS {
        let sc = &all_scenarios(400, seed)[0];
        let names = sc.table.column_names();
        let dims: Vec<&str> = names
            .iter()
            .filter(|n| sc.id_columns.iter().any(|c| c == **n))
            .cloned()
            .collect();
        let measure_col = names
            .iter()
            .find(|n| !dims.contains(n) && ***n != *sc.target)
            .expect("a numeric column");
        let live = Cube::new(sc.table.clone(), &dims, all_measures(measure_col)).unwrap();
        let frozen =
            reference::Cube::new(sc.table.clone(), &dims, all_measures(measure_col)).unwrap();
        // Slice on the first value of the first dimension.
        let dim = dims[0];
        let value = sc.table.column(dim).unwrap().get(0).unwrap().to_string();
        let live_slice = live.slice(dim, &value).unwrap();
        let frozen_slice = frozen.slice(dim, &value).unwrap();
        let last = sc.table.n_rows() - 1;
        let other = sc.table.column(dim).unwrap().get(last).unwrap().to_string();
        assert_same_dice(&live, &frozen, dim, &[&value, &other, "no such key"]);
        for shards in SHARD_COUNTS {
            assert_eq!(
                frozen_slice.rollup(&dims).unwrap().fingerprint(),
                live_slice
                    .rollup_quality(&dims, &CubeOptions::with_shards(shards))
                    .unwrap()
                    .table
                    .fingerprint(),
                "sliced rollup diverged at {shards} shard(s) (seed {seed})"
            );
        }
    }
}
