//! Integration-test crate for the OpenBI workspace. All tests live under
//! `tests/tests/`; this library hosts what they share: fixtures, the
//! seeded case loop of the property suites, and the frozen
//! [`reference`](mod@reference) oracles the differential suites compare
//! the live kernels against.

use openbi::experiment::{Criterion, ExperimentDataset};
use openbi_datagen::{all_scenarios, Scenario};
use openbi_table::{Column, ColumnData, Rng, Table, Value};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Frozen pre-rewrite implementations, kept only as test oracles. They
/// live here rather than in the product crates so that no shipping build
/// compiles them; the live crates' public types are all they rely on.
pub mod reference {
    pub mod lod;
    pub mod mining;
    pub mod quality;
}

pub mod lod_corpora;

/// A deterministic messy CSV fixture used by several integration tests.
pub fn messy_csv() -> &'static str {
    "station,district,pm10,no2,traffic,aqi_band\n\
     ST001,north,21.5,18.0,low,good\n\
     ST002,NORTH,44.0,39.0,high,poor\n\
     ST003,south,33.0,,medium,fair\n\
     ST004,south,35.5,30.0,medium,fair\n\
     ST005,east,12.0,10.5,low,good\n\
     ST005,east,12.0,10.5,low,good\n\
     ST006,west,48.0,41.0,high,poor\n\
     ST007,west,,22.0,medium,fair\n\
     ST008,north,19.0,15.5,low,good\n\
     ST009,south,39.5,33.0,high,poor\n\
     ST010,east,14.0,12.0,low,good\n\
     ST011,west,41.0,36.5,high,poor\n"
}

/// `table` with every NaN or ±∞ float cell made null: what the mining
/// and quality kernels see in its feature columns. The frozen oracles,
/// which keep a non-finite cell as a present value, are compared on this
/// table. On a table with no such cell it is the identity.
pub fn null_nonfinite(table: &Table) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|c| match c.data() {
            ColumnData::Float(v) => {
                Column::from_opt_f64(c.name(), v.iter().map(|x| x.filter(|f| f.is_finite())))
            }
            _ => c.clone(),
        })
        .collect();
    Table::new(columns).expect("same shape as a valid table")
}

/// A deterministic uniform `[0, 1)` stream (an LCG), so corpora do not
/// depend on the generator the product crates use.
pub fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    }
}

/// Non-finite inputs: one numeric column per value in `specials`, each
/// holding that value in about 4% of rows (plus ~5% missing), a
/// learnable finite column, an all-missing column and a nominal column
/// with gaps, over 3 classes.
pub fn nonfinite(n: usize, seed: u64, specials: &[f64]) -> Table {
    const CLASSES: [&str; 3] = ["a", "b", "c"];
    const ZONES: [&str; 3] = ["x", "y", "z"];
    let mut next = lcg(seed);
    let mut signal = Vec::with_capacity(n);
    let mut odd: Vec<Vec<Option<f64>>> = vec![Vec::with_capacity(n); specials.len()];
    let mut zone = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let cls = (next() * 3.0) as usize % 3;
        labels.push(CLASSES[cls]);
        signal.push(Some(cls as f64 * 2.0 + next() * 3.0));
        for (k, col) in odd.iter_mut().enumerate() {
            let u = next();
            col.push(if u < 0.04 {
                Some(specials[k])
            } else if u < 0.09 {
                None
            } else {
                Some((next() * 12.0).floor() + cls as f64 * (k % 2) as f64)
            });
        }
        zone.push(if next() < 0.05 {
            None
        } else {
            Some(ZONES[(next() * 3.0) as usize % 3].to_string())
        });
    }
    let mut columns = vec![Column::from_opt_f64("signal", signal)];
    columns.extend(
        odd.into_iter()
            .enumerate()
            .map(|(k, v)| Column::from_opt_f64(format!("odd{k}"), v)),
    );
    columns.push(Column::from_opt_f64("empty", vec![None; n]));
    columns.push(Column::from_opt_str("zone", zone));
    columns.push(Column::from_str_values("class", labels));
    Table::new(columns).expect("columns of one length")
}

/// The non-finite corpora of `seed`, by name, each with target `class`:
/// `infinite` (a +∞ and a −∞ column), `nan` (NaN cells of both signs)
/// and `mixed`. In `mixed` the `odd0` column holds +∞, NaN, −∞ and −NaN
/// cells together, an integer column `count` with nulls sits next to
/// the floats, and the last rows copy earlier rows with every NaN or ±∞
/// cell turned into another one or a null, so a reader that tells a
/// NaN, an ∞ and a null apart sees distinct rows where the
/// [`null_nonfinite`] twin holds exact duplicates.
pub fn nonfinite_corpora(seed: u64) -> Vec<(&'static str, Table)> {
    const N: usize = 180;
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let mut mixed = nonfinite(N, seed, &[inf, nan, -inf]);
    let specials = [inf, nan, -inf, -nan];
    let odd0 = mixed.column("odd0").expect("generated").data().clone();
    let ColumnData::Float(odd0) = odd0 else {
        unreachable!("generated as floats")
    };
    let odd0 = odd0
        .into_iter()
        .enumerate()
        .map(|(r, x)| x.map(|v| if v.is_finite() { v } else { specials[r % 4] }));
    mixed
        .replace_column(Column::from_opt_f64("odd0", odd0))
        .expect("same length");
    let mut next = lcg(seed ^ 0x5eed);
    let count = (0..N).map(|_| {
        let u = next();
        (u >= 0.1).then(|| (u * 40.0) as i64 - 20)
    });
    mixed
        .add_column(Column::from_opt_i64("count", count))
        .expect("same length");
    let turned = |v: Value| match v {
        Value::Float(f) if f == inf => Value::Float(nan),
        Value::Float(f) if f.is_nan() => Value::Float(-inf),
        Value::Float(f) if f == -inf => Value::Null,
        other => other,
    };
    let with_specials: Vec<usize> = (0..N)
        .filter(|&r| {
            mixed
                .row(r)
                .expect("in bounds")
                .iter()
                .any(|v| matches!(v, Value::Float(f) if !f.is_finite()))
        })
        .take(12)
        .collect();
    for r in with_specials {
        let copy = mixed.row(r).expect("in bounds").into_iter().map(turned);
        mixed.push_row(copy.collect()).expect("same schema");
    }
    vec![
        ("infinite", nonfinite(N, seed, &[inf, -inf])),
        ("nan", nonfinite(N, seed, &[nan, -nan])),
        ("mixed", mixed),
    ]
}

/// FNV-1a, 64-bit, over `bytes`: the digest the equivalence suites pin
/// outputs by (words and float bits go in as little-endian bytes).
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Check `property` on `cases` generated cases. Case `i` draws its
/// inputs from `Rng::seed_from_u64(i)`, so every run checks the same
/// cases. There is no shrinking: a failing case prints its seed, and the
/// panic goes on to fail the test.
pub fn check_cases(cases: u64, mut property: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("property failed at case seed {seed}");
            panic::resume_unwind(panic);
        }
    }
}

/// A length drawn uniformly from the non-empty `range`.
pub fn len_in(rng: &mut Rng, range: Range<usize>) -> usize {
    range.start + rng.below(range.end - range.start)
}

/// The defect each `pipeline_mix` input variant carries, in variant
/// order: clean, then one defect each (the benchmark's
/// `VARIANT_DEFECTS`).
const VARIANT_DEFECTS: [Option<Criterion>; 8] = [
    None,
    Some(Criterion::Completeness),
    Some(Criterion::LabelNoise),
    Some(Criterion::Duplicates),
    Some(Criterion::Outliers),
    Some(Criterion::Imbalance),
    Some(Criterion::Inconsistency),
    Some(Criterion::AttributeNoise),
];

/// The 24 scenarios `pipeline_mix` builds at `seed`, variant by variant:
/// the three `all_scenarios` at 400 rows, each with its variant's defect
/// applied at severity 0.5 and the seed the benchmark gives that
/// variant's CSV input (`seed + 9·variant + scenario`).
pub fn pipeline_mix_scenarios(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (v, defect) in VARIANT_DEFECTS.iter().enumerate() {
        let by_scenario = all_scenarios(400, seed.wrapping_add(1000 * v as u64));
        for (s, mut scenario) in by_scenario.into_iter().enumerate() {
            if let Some(defect) = defect {
                let mut dataset = ExperimentDataset::new(
                    &scenario.name,
                    scenario.table.clone(),
                    &scenario.target,
                );
                dataset.exclude = scenario.id_columns.clone();
                scenario.table = defect
                    .degradation(0.5, &dataset)
                    .unwrap()
                    .apply(&scenario.table, seed.wrapping_add((9 * v + s) as u64))
                    .unwrap();
            }
            out.push(scenario);
        }
    }
    out
}
