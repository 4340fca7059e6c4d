//! Integration-test crate for the OpenBI workspace. All tests live under
//! `tests/tests/`; this library hosts what they share: fixtures, the
//! seeded case loop of the property suites, and the frozen
//! [`reference`](mod@reference) oracles the differential suites compare
//! the live kernels against.

use openbi::experiment::{Criterion, ExperimentDataset};
use openbi_datagen::{all_scenarios, Scenario};
use openbi_table::{Column, ColumnData, Rng, Table};
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
