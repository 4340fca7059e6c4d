//! The one category rule of the workspace.
//!
//! Every reader that decides whether two cells are the same category —
//! the mining dictionaries and class labels, the quality kernels' class
//! counts and label votes, the class-level defect injectors, the
//! catalog's distinct counts and OLAP's dimension keys — takes its codes
//! from [`Column::categories`]:
//!
//! * two non-null cells are one category if and only if their
//!   `Value::to_string()` texts are equal;
//! * codes are dense and assigned in first-seen row order;
//! * a null cell has no code.
//!
//! Identity is decided without rendering a cell: strings by borrow,
//! integers and booleans by value, floats by [`canonical_f64_bits`],
//! which makes every NaN one key and keeps `0.0` and `-0.0` apart,
//! exactly as the texts `NaN`, `0` and `-0` do (a float's text is the
//! shortest decimal that reads back to it, so distinct non-NaN floats
//! render distinct texts). A category's text is rendered from its first
//! cell, only when a caller asks for it.

use crate::column::{Column, ColumnData};
use crate::fingerprint::canonical_f64_bits;
use crate::value::Value;
use std::collections::HashMap;
use std::hash::Hash;

/// The category codes of one column (see the module docs).
#[derive(Debug)]
pub struct Categories<'a> {
    column: &'a Column,
    codes: Vec<u32>,
    first_rows: Vec<usize>,
}

impl<'a> Categories<'a> {
    /// The code of a null cell in [`Categories::into_codes`].
    pub const NULL: u32 = u32::MAX;

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.first_rows.len()
    }

    /// True iff every cell is null.
    pub fn is_empty(&self) -> bool {
        self.first_rows.is_empty()
    }

    /// Row → category code, [`Categories::NULL`] at a null cell.
    pub fn into_codes(self) -> Vec<u32> {
        self.codes
    }

    /// The category code of `row`, `None` at a null cell.
    #[inline]
    pub fn code(&self, row: usize) -> Option<usize> {
        let code = self.codes[row];
        (code != Self::NULL).then_some(code as usize)
    }

    /// The first cell of category `code`.
    pub fn value(&self, code: usize) -> Value {
        self.column
            .get(self.first_rows[code])
            .expect("a first row is in bounds")
    }

    /// The text of every category in code order: its first cell's
    /// `Value::to_string()`.
    pub fn texts(&self) -> Vec<String> {
        (0..self.len())
            .map(|code| self.value(code).to_string())
            .collect()
    }
}

impl Column {
    /// The column's categories under the one category rule (see
    /// [`crate::category`]).
    pub fn categories(&self) -> Categories<'_> {
        let (codes, first_rows) = match self.data() {
            ColumnData::Str(v) => encode(v.iter().map(Option::as_deref)),
            ColumnData::Int(v) => encode(v.iter().copied()),
            ColumnData::Float(v) => encode(v.iter().map(|x| x.map(canonical_f64_bits))),
            ColumnData::Bool(v) => encode(v.iter().copied()),
        };
        Categories {
            column: self,
            codes,
            first_rows,
        }
    }
}

/// Categories found by a linear scan over their keys before the keys
/// move into a hash map: a scan over a few keys is cheaper than hashing
/// the cell, and most category columns (classes, dimension keys) have
/// few.
const SCAN_KEYS: usize = 16;

/// Dense first-seen codes of `cells` by key, and each code's first row.
fn encode<K: Hash + Eq + Copy>(
    cells: impl ExactSizeIterator<Item = Option<K>>,
) -> (Vec<u32>, Vec<usize>) {
    let mut keys: Vec<K> = Vec::new();
    let mut by_key: HashMap<K, u32> = HashMap::new();
    let mut codes = Vec::with_capacity(cells.len());
    let mut first_rows = Vec::new();
    for (row, cell) in cells.enumerate() {
        let Some(key) = cell else {
            codes.push(Categories::NULL);
            continue;
        };
        let known = if keys.len() <= SCAN_KEYS {
            keys.iter().position(|k| *k == key).map(|c| c as u32)
        } else {
            by_key.get(&key).copied()
        };
        codes.push(known.unwrap_or_else(|| {
            let code = keys.len() as u32;
            keys.push(key);
            first_rows.push(row);
            if keys.len() > SCAN_KEYS {
                let held = by_key.len();
                by_key.extend(keys[held..].iter().copied().zip(held as u32..));
            }
            code
        }));
    }
    (codes, first_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The rendering oracle: each non-null cell's `Value::to_string()`
    /// found by a first-seen linear scan.
    fn rendered(col: &Column) -> (Vec<Option<usize>>, Vec<String>) {
        let mut dict: Vec<String> = Vec::new();
        let codes = col
            .iter()
            .map(|v| {
                if v.is_null() {
                    return None;
                }
                let s = v.to_string();
                Some(match dict.iter().position(|d| *d == s) {
                    Some(i) => i,
                    None => {
                        dict.push(s);
                        dict.len() - 1
                    }
                })
            })
            .collect();
        (codes, dict)
    }

    /// Check `col` against the oracle; its category count.
    fn assert_matches_oracle(col: &Column) -> usize {
        let cats = col.categories();
        let (codes, texts) = rendered(col);
        let got: Vec<Option<usize>> = (0..col.len()).map(|r| cats.code(r)).collect();
        assert_eq!(got, codes, "codes of {col:?}");
        assert_eq!(cats.texts(), texts, "texts of {col:?}");
        for code in 0..cats.len() {
            assert_eq!(cats.code(cats.first_rows[code]), Some(code));
        }
        cats.len()
    }

    /// `special`, and `many` too when `wide`.
    fn pool<T: Clone>(special: &[T], many: &[T], wide: bool) -> Vec<T> {
        let mut pool = special.to_vec();
        if wide {
            pool.extend_from_slice(many);
        }
        pool
    }

    /// `rows` cells drawn from `pool`, about one in six null.
    fn drawn<T: Clone>(pool: &[T], rows: usize, rng: &mut Rng) -> Vec<Option<T>> {
        (0..rows)
            .map(|_| (rng.below(6) != 0).then(|| pool[rng.below(pool.len())].clone()))
            .collect()
    }

    /// Every dtype, with nulls, `""`, NaN of both signs and several
    /// payloads, ±0.0, ±∞ and the `i64` extremes, from pools of a few
    /// keys (found by the linear scan) and of many (past `SCAN_KEYS`,
    /// found in the map).
    #[test]
    fn categories_match_the_rendering_oracle_on_every_dtype() {
        let special_floats = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1 + 0.2,
            0.3,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF0_0000_0000_0002),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e21,
            1e-7,
        ];
        let special_ints = [0, 1, -1, 7, 42, i64::MIN, i64::MAX, i64::MIN + 1];
        let special_strs = ["", "a", "b", "NaN", "0", "-0", "true", " a", "é"];
        let floats: Vec<f64> = (0..40).map(|i| i as f64 / 4.0 - 3.0).collect();
        let ints: Vec<i64> = (0..40).map(|i| i * 3 - 50).collect();
        let strs: Vec<String> = (0..40).map(|i| format!("s{i}")).collect();
        let mut most = 0;
        for seed in 0..24 {
            let mut rng = Rng::seed_from_u64(seed);
            let rows = rng.below(120);
            let wide = seed % 2 == 1;
            let special_strs = special_strs.map(String::from);
            for col in [
                Column::from_opt_f64(
                    "f",
                    drawn(&pool(&special_floats, &floats, wide), rows, &mut rng),
                ),
                Column::from_opt_i64(
                    "i",
                    drawn(&pool(&special_ints, &ints, wide), rows, &mut rng),
                ),
                Column::from_opt_str(
                    "s",
                    drawn(&pool(&special_strs, &strs, wide), rows, &mut rng),
                ),
                Column::new("b", ColumnData::Bool(drawn(&[true, false], rows, &mut rng))),
            ] {
                most = most.max(assert_matches_oracle(&col));
            }
        }
        assert!(most > SCAN_KEYS, "the map path must be exercised");
    }

    #[test]
    fn nan_is_one_category_and_signed_zeros_are_two() {
        let col = Column::from_opt_f64(
            "y",
            [
                Some(0.0),
                Some(f64::NAN),
                None,
                Some(-0.0),
                Some(-f64::NAN),
                Some(1.0),
                Some(f64::from_bits(0x7FF8_0000_0000_0001)),
                Some(f64::NAN),
            ],
        );
        let cats = col.categories();
        assert_eq!(cats.texts(), ["0", "NaN", "-0", "1"]);
        assert_eq!(cats.codes, [0, 1, Categories::NULL, 2, 1, 3, 1, 1]);
        assert_eq!(cats.value(1).to_string(), "NaN");
        assert!(Column::from_opt_i64("e", [None, None])
            .categories()
            .is_empty());
    }
}
