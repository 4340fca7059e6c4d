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
//! render distinct texts). The first 16 categories are found by a linear
//! scan over their keys, any more through a hash map. A string column
//! puts a direct-mapped cache in front of both: a cell's tag (its length
//! and first, middle and last two bytes) picks a slot holding the code last
//! found there, one full compare confirms it, and a miss asks the scan
//! or the map and refreshes the slot. So a repeated string costs one
//! compare instead of a scan that stops at a place the CPU cannot
//! predict, and codes are still assigned by the scan or map alone. A
//! category's text is rendered from its first cell, only when a caller
//! asks for it.

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
            ColumnData::Str(v) => encode_strs(v),
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

/// Dense first-seen codes by key: the first [`SCAN_KEYS`] keys found
/// by a linear scan, any more through a hash map.
struct Dictionary<K> {
    keys: Vec<K>,
    by_key: HashMap<K, u32>,
    first_rows: Vec<usize>,
}

impl<K: Hash + Eq + Copy> Dictionary<K> {
    fn new() -> Self {
        Dictionary {
            keys: Vec::new(),
            by_key: HashMap::new(),
            first_rows: Vec::new(),
        }
    }

    /// The code of `key`, met at `row`; an unseen key takes the next
    /// code.
    #[inline]
    fn code(&mut self, row: usize, key: K) -> u32 {
        let known = if self.keys.len() <= SCAN_KEYS {
            self.keys.iter().position(|k| *k == key).map(|c| c as u32)
        } else {
            self.by_key.get(&key).copied()
        };
        match known {
            Some(code) => code,
            None => self.insert(row, key),
        }
    }

    /// Give `key`, first met at `row`, the next code.
    fn insert(&mut self, row: usize, key: K) -> u32 {
        let code = self.keys.len() as u32;
        self.keys.push(key);
        self.first_rows.push(row);
        if self.keys.len() > SCAN_KEYS {
            let held = self.by_key.len();
            self.by_key
                .extend(self.keys[held..].iter().copied().zip(held as u32..));
        }
        code
    }
}

/// Dense first-seen codes of `cells` by key, and each code's first row.
fn encode<K: Hash + Eq + Copy>(cells: impl Iterator<Item = Option<K>>) -> (Vec<u32>, Vec<usize>) {
    let mut dict = Dictionary::new();
    let codes = cells
        .enumerate()
        .map(|(row, cell)| cell.map_or(Categories::NULL, |key| dict.code(row, key)))
        .collect();
    (codes, dict.first_rows)
}

/// Most slots of a string column's code cache.
const MAX_SLOTS: usize = 1024;

/// The odd multiplier that spreads a tag over the cache's slots (2⁶⁴
/// over the golden ratio).
const TAG_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// [`encode`] for strings, with a direct-mapped cache in front of the
/// dictionary. Where a scan stops among a few keys is a branch on heap
/// bytes that the CPU cannot predict; a cell's [`tag`] instead picks a
/// slot holding the code last found there, and one full compare
/// confirms it. A miss (a new category, or another string with the
/// same slot) asks the dictionary and refreshes the slot, so codes are
/// the dictionary's own and a crafted collision costs only the
/// dictionary lookup.
fn encode_strs(cells: &[Option<String>]) -> (Vec<u32>, Vec<usize>) {
    let mut dict: Dictionary<&str> = Dictionary::new();
    let slots = cache_slots(cells.len());
    // A tag's slot is the top bits of its product with an odd constant.
    let shift = u64::BITS - slots.trailing_zeros();
    // `NULL` is no key's index, so an empty slot always misses.
    let mut cache = vec![Categories::NULL; slots];
    let codes = cells
        .iter()
        .enumerate()
        .map(|(row, cell)| {
            let Some(text) = cell.as_deref() else {
                return Categories::NULL;
            };
            let slot = &mut cache[(tag(text).wrapping_mul(TAG_MULTIPLIER) >> shift) as usize];
            if dict.keys.get(*slot as usize) != Some(&text) {
                *slot = dict.code(row, text);
            }
            *slot
        })
        .collect();
    (codes, dict.first_rows)
}

/// The cache's slot count for `rows` cells: a power of two from 16 to
/// [`MAX_SLOTS`], one per 16 rows.
fn cache_slots(rows: usize) -> usize {
    (rows / 16).clamp(16, MAX_SLOTS).next_power_of_two()
}

/// A string's cache tag: its length and its first, middle and last two
/// bytes (0 where the string has none). The last two tell apart codes
/// that differ only in a final counter, such as `ST012` and `ST017`.
fn tag(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let at = |i: usize| u64::from(bytes.get(i).copied().unwrap_or(0));
    n as u64
        ^ (at(0) << 24)
        ^ (at(n / 2) << 32)
        ^ (at(n.wrapping_sub(2)) << 40)
        ^ (at(n.wrapping_sub(1)) << 48)
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
    /// found in the map). The strings take every path of the code
    /// cache: repeats hit it, strings that share one tag (length and
    /// first, middle and last two bytes) but differ collide in it, and
    /// some columns hold more distinct strings than it has slots. They
    /// include multi-byte UTF-8 and strings longer than 16 bytes.
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
        let floats: Vec<f64> = (0..40).map(|i| i as f64 / 4.0 - 3.0).collect();
        let ints: Vec<i64> = (0..40).map(|i| i * 3 - 50).collect();
        let colliding: Vec<String> = (0..40)
            .map(|i| format!("k{i:04}m{:02}yz", 40 - i))
            .collect();
        let long_colliding: Vec<String> =
            (0..8).map(|i| format!("L{i:07}|{:06}-L", i * 7)).collect();
        for same_tag in [&colliding, &long_colliding] {
            assert!(same_tag.iter().all(|s| tag(s) == tag(&same_tag[0])));
        }
        let few_strs: Vec<String> = [
            "", "a", "b", "NaN", "0", "-0", "true", " a", "é", "e\u{301}", "漢字",
        ]
        .into_iter()
        .map(String::from)
        .chain(colliding[..3].iter().cloned())
        .collect();
        let many_strs: Vec<String> = (0..40)
            .map(|i| format!("s{i}"))
            .chain(colliding[3..].iter().cloned())
            .chain(long_colliding.iter().cloned())
            .chain((0..8).map(|i| format!("ναΐβε-{i}-漢字-longer")))
            .collect();
        let (mut most, mut past_slots) = (0, false);
        for seed in 0..24 {
            let mut rng = Rng::seed_from_u64(seed);
            let rows = match seed % 4 {
                3 => 500 + rng.below(500),
                _ => rng.below(120),
            };
            let wide = seed % 2 == 1;
            let strs = Column::from_opt_str(
                "s",
                drawn(&pool(&few_strs, &many_strs, wide), rows, &mut rng),
            );
            let found = assert_matches_oracle(&strs);
            past_slots |= found > cache_slots(rows);
            most = most.max(found);
            for col in [
                Column::from_opt_f64(
                    "f",
                    drawn(&pool(&special_floats, &floats, wide), rows, &mut rng),
                ),
                Column::from_opt_i64(
                    "i",
                    drawn(&pool(&special_ints, &ints, wide), rows, &mut rng),
                ),
                Column::new("b", ColumnData::Bool(drawn(&[true, false], rows, &mut rng))),
            ] {
                most = most.max(assert_matches_oracle(&col));
            }
        }
        assert!(most > SCAN_KEYS, "the map path must be exercised");
        assert!(past_slots, "some column must outnumber the cache's slots");
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
