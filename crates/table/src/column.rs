//! Typed, nullable columns.
//!
//! A [`Column`] is a named, homogeneously typed vector of optional values.
//! The concrete storage is one of four typed vectors ([`ColumnData`]), so
//! numeric scans do not pay an enum-per-cell cost.

use crate::error::{Result, TableError};
use crate::value::{DataType, Value};

/// Typed storage for a column. Every slot is optional; `None` is a null.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Integer storage.
    Int(Vec<Option<i64>>),
    /// Float storage.
    Float(Vec<Option<f64>>),
    /// String storage.
    Str(Vec<Option<String>>),
    /// Boolean storage.
    Bool(Vec<Option<bool>>),
}

impl ColumnData {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data type of the storage.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }
}

/// A named, typed, nullable column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Create a column from typed storage.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
        }
    }

    /// Create an integer column from values (no nulls).
    pub fn from_i64(name: impl Into<String>, values: impl IntoIterator<Item = i64>) -> Self {
        Column::new(
            name,
            ColumnData::Int(values.into_iter().map(Some).collect()),
        )
    }

    /// Create an integer column from optional values.
    pub fn from_opt_i64(
        name: impl Into<String>,
        values: impl IntoIterator<Item = Option<i64>>,
    ) -> Self {
        Column::new(name, ColumnData::Int(values.into_iter().collect()))
    }

    /// Create a float column from values (no nulls).
    pub fn from_f64(name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Self {
        Column::new(
            name,
            ColumnData::Float(values.into_iter().map(Some).collect()),
        )
    }

    /// Create a float column from optional values.
    pub fn from_opt_f64(
        name: impl Into<String>,
        values: impl IntoIterator<Item = Option<f64>>,
    ) -> Self {
        Column::new(name, ColumnData::Float(values.into_iter().collect()))
    }

    /// Create a string column from values (no nulls).
    pub fn from_str_values<S: Into<String>>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        Column::new(
            name,
            ColumnData::Str(values.into_iter().map(|s| Some(s.into())).collect()),
        )
    }

    /// Create a string column from optional values.
    pub fn from_opt_str(
        name: impl Into<String>,
        values: impl IntoIterator<Item = Option<String>>,
    ) -> Self {
        Column::new(name, ColumnData::Str(values.into_iter().collect()))
    }

    /// Create a bool column from values (no nulls).
    pub fn from_bool(name: impl Into<String>, values: impl IntoIterator<Item = bool>) -> Self {
        Column::new(
            name,
            ColumnData::Bool(values.into_iter().map(Some).collect()),
        )
    }

    /// Build a column of the given type from dynamically typed values.
    /// Values that do not fit the type are an error; nulls are preserved.
    pub fn from_values(
        name: impl Into<String>,
        dtype: DataType,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<Self> {
        let name = name.into();
        let data = match dtype {
            DataType::Int => {
                let mut out = Vec::new();
                for v in values {
                    match v {
                        Value::Null => out.push(None),
                        Value::Int(i) => out.push(Some(i)),
                        other => {
                            return Err(TableError::TypeMismatch {
                                column: name,
                                expected: DataType::Int,
                                actual: other.dtype().unwrap_or(DataType::Int),
                            })
                        }
                    }
                }
                ColumnData::Int(out)
            }
            DataType::Float => {
                let mut out = Vec::new();
                for v in values {
                    match v {
                        Value::Null => out.push(None),
                        Value::Float(f) => out.push(Some(f)),
                        Value::Int(i) => out.push(Some(i as f64)),
                        other => {
                            return Err(TableError::TypeMismatch {
                                column: name,
                                expected: DataType::Float,
                                actual: other.dtype().unwrap_or(DataType::Float),
                            })
                        }
                    }
                }
                ColumnData::Float(out)
            }
            DataType::Str => {
                let mut out = Vec::new();
                for v in values {
                    match v {
                        Value::Null => out.push(None),
                        Value::Str(s) => out.push(Some(s)),
                        other => out.push(Some(other.to_string())),
                    }
                }
                ColumnData::Str(out)
            }
            DataType::Bool => {
                let mut out = Vec::new();
                for v in values {
                    match v {
                        Value::Null => out.push(None),
                        Value::Bool(b) => out.push(Some(b)),
                        other => {
                            return Err(TableError::TypeMismatch {
                                column: name,
                                expected: DataType::Bool,
                                actual: other.dtype().unwrap_or(DataType::Bool),
                            })
                        }
                    }
                }
                ColumnData::Bool(out)
            }
        };
        Ok(Column { name, data })
    }

    /// The column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the column.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// Borrow the typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of null slots.
    pub fn null_count(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Get the cell at `row` as a dynamically typed [`Value`].
    pub fn get(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(TableError::RowOutOfBounds {
                row,
                len: self.len(),
            });
        }
        Ok(match &self.data {
            ColumnData::Int(v) => v[row].map(Value::Int).unwrap_or(Value::Null),
            ColumnData::Float(v) => v[row].map(Value::Float).unwrap_or(Value::Null),
            ColumnData::Str(v) => v[row]
                .as_ref()
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::Null),
            ColumnData::Bool(v) => v[row].map(Value::Bool).unwrap_or(Value::Null),
        })
    }

    /// Set the cell at `row`. The value must match the column type (or be
    /// null); ints may be written into float columns.
    pub fn set(&mut self, row: usize, value: Value) -> Result<()> {
        let len = self.len();
        if row >= len {
            return Err(TableError::RowOutOfBounds { row, len });
        }
        let mismatch = |actual: DataType, expected: DataType, column: &str| {
            Err(TableError::TypeMismatch {
                column: column.to_string(),
                expected,
                actual,
            })
        };
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(i)) => v[row] = Some(i),
            (ColumnData::Int(v), Value::Null) => v[row] = None,
            (ColumnData::Float(v), Value::Float(f)) => v[row] = Some(f),
            (ColumnData::Float(v), Value::Int(i)) => v[row] = Some(i as f64),
            (ColumnData::Float(v), Value::Null) => v[row] = None,
            (ColumnData::Str(v), Value::Str(s)) => v[row] = Some(s),
            (ColumnData::Str(v), Value::Null) => v[row] = None,
            (ColumnData::Bool(v), Value::Bool(b)) => v[row] = Some(b),
            (ColumnData::Bool(v), Value::Null) => v[row] = None,
            (data, value) => {
                let expected = data.dtype();
                let actual = value.dtype().unwrap_or(expected);
                let name = self.name.clone();
                return mismatch(actual, expected, &name);
            }
        }
        Ok(())
    }

    /// Push a value onto the column (same typing rules as [`Column::set`]).
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(i)) => v.push(Some(i)),
            (ColumnData::Int(v), Value::Null) => v.push(None),
            (ColumnData::Float(v), Value::Float(f)) => v.push(Some(f)),
            (ColumnData::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (ColumnData::Float(v), Value::Null) => v.push(None),
            (ColumnData::Str(v), Value::Str(s)) => v.push(Some(s)),
            (ColumnData::Str(v), Value::Null) => v.push(None),
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (ColumnData::Bool(v), Value::Null) => v.push(None),
            (data, value) => {
                return Err(TableError::TypeMismatch {
                    column: self.name.clone(),
                    expected: data.dtype(),
                    actual: value.dtype().unwrap_or(data.dtype()),
                })
            }
        }
        Ok(())
    }

    /// Iterate over cells as dynamically typed values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("in-bounds"))
    }

    /// The one numeric-cell rule of the workspace: one slot per row, an
    /// int widened to `f64`, a finite float unchanged (`-0.0` kept), a
    /// bool as 0 or 1, and NaN — the one missing marker — for a null, a
    /// NaN or ±∞ float, or a string. Every statistic, defect injector,
    /// preprocessor and mining or quality kernel that reads numbers reads
    /// them here, so a table with NaN or ±∞ cells reads exactly like the
    /// same table with those cells null.
    pub fn numbers(&self) -> Vec<f64> {
        match &self.data {
            ColumnData::Int(v) => v.iter().map(|x| x.map_or(f64::NAN, |i| i as f64)).collect(),
            ColumnData::Float(v) => v
                .iter()
                .map(|x| x.filter(|f| f.is_finite()).unwrap_or(f64::NAN))
                .collect(),
            ColumnData::Bool(v) => v
                .iter()
                .map(|x| x.map_or(f64::NAN, |b| if b { 1.0 } else { 0.0 }))
                .collect(),
            ColumnData::Str(v) => vec![f64::NAN; v.len()],
        }
    }

    /// The raw numeric view: each cell as `Option<f64>`, a NaN or ±∞
    /// float kept as a value, strings `None`. Only the frozen test
    /// oracles read it; product code reads [`Column::numbers`].
    pub fn to_f64_vec(&self) -> Vec<Option<f64>> {
        match &self.data {
            ColumnData::Int(v) => v.iter().map(|x| x.map(|i| i as f64)).collect(),
            ColumnData::Float(v) => v.clone(),
            ColumnData::Bool(v) => v
                .iter()
                .map(|x| x.map(|b| if b { 1.0 } else { 0.0 }))
                .collect(),
            ColumnData::Str(v) => v.iter().map(|_| None).collect(),
        }
    }

    /// Borrow string storage, if this is a string column.
    pub fn as_str_slice(&self) -> Option<&[Option<String>]> {
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Cast the column to another data type. Lossy casts (e.g. non-numeric
    /// strings to float) turn unparsable cells into nulls.
    pub fn cast(&self, dtype: DataType) -> Column {
        if dtype == self.dtype() {
            return self.clone();
        }
        let values: Vec<Value> = self
            .iter()
            .map(|v| match (dtype, v) {
                (_, Value::Null) => Value::Null,
                (DataType::Float, Value::Str(s)) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
                (DataType::Int, Value::Str(s)) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .unwrap_or(Value::Null),
                (DataType::Float, v) => v.as_f64().map(Value::Float).unwrap_or(Value::Null),
                (DataType::Int, v) => v.as_i64().map(Value::Int).unwrap_or(Value::Null),
                (DataType::Str, v) => Value::Str(v.to_string()),
                (DataType::Bool, Value::Bool(b)) => Value::Bool(b),
                (DataType::Bool, Value::Int(i)) => Value::Bool(i != 0),
                (DataType::Bool, Value::Str(s)) => match s.to_ascii_lowercase().as_str() {
                    "true" | "1" | "yes" => Value::Bool(true),
                    "false" | "0" | "no" => Value::Bool(false),
                    _ => Value::Null,
                },
                (DataType::Bool, _) => Value::Null,
            })
            .collect();
        Column::from_values(self.name.clone(), dtype, values).expect("cast produces typed values")
    }

    /// Gather the rows at `indices` into a new column (indices may repeat).
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(TableError::RowOutOfBounds { row: bad, len });
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
        };
        Ok(Column::new(self.name.clone(), data))
    }

    /// Append all rows from `other` (must be the same dtype).
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        if other.dtype() != self.dtype() {
            return Err(TableError::TypeMismatch {
                column: self.name.clone(),
                expected: self.dtype(),
                actual: other.dtype(),
            });
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.extend(b.iter().cloned()),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            _ => unreachable!("dtype checked above"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        let c = Column::from_i64("a", [1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.null_count(), 0);

        let c = Column::from_opt_f64("b", [Some(1.0), None]);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn get_and_set() {
        let mut c = Column::from_f64("x", [1.0, 2.0]);
        assert_eq!(c.get(1).unwrap(), Value::Float(2.0));
        c.set(0, Value::Null).unwrap();
        assert!(c.get(0).unwrap().is_null());
        c.set(0, Value::Int(7)).unwrap(); // int into float is fine
        assert_eq!(c.get(0).unwrap(), Value::Float(7.0));
        assert!(c.set(0, Value::Str("no".into())).is_err());
        assert!(c.set(9, Value::Float(0.0)).is_err());
    }

    #[test]
    fn push_type_checked() {
        let mut c = Column::from_str_values("s", ["a"]);
        c.push(Value::Str("b".into())).unwrap();
        c.push(Value::Null).unwrap();
        assert!(c.push(Value::Int(1)).is_err());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn cast_str_to_float_lossy() {
        let c = Column::from_str_values("s", ["1.5", "x", "3"]);
        let f = c.cast(DataType::Float);
        assert_eq!(f.dtype(), DataType::Float);
        assert_eq!(f.get(0).unwrap(), Value::Float(1.5));
        assert!(f.get(1).unwrap().is_null());
        assert_eq!(f.get(2).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn cast_int_to_str() {
        let c = Column::from_i64("i", [1, 2]);
        let s = c.cast(DataType::Str);
        assert_eq!(s.get(0).unwrap(), Value::Str("1".into()));
    }

    #[test]
    fn take_gathers_and_bounds_checks() {
        let c = Column::from_i64("a", [10, 20, 30]);
        let t = c.take(&[2, 0, 2]).unwrap();
        assert_eq!(t.get(0).unwrap(), Value::Int(30));
        assert_eq!(t.get(1).unwrap(), Value::Int(10));
        assert_eq!(t.len(), 3);
        assert!(c.take(&[3]).is_err());
    }

    #[test]
    fn extend_from_checks_dtype() {
        let mut a = Column::from_i64("a", [1]);
        let b = Column::from_i64("a", [2, 3]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        let f = Column::from_f64("a", [1.0]);
        assert!(a.extend_from(&f).is_err());
    }

    #[test]
    fn numbers_read_every_missing_or_non_finite_cell_as_nan() {
        let bits = |c: &Column| c.numbers().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let nan = f64::NAN.to_bits();
        let ints = Column::from_opt_i64("i", [Some(-3), None, Some(7)]);
        assert_eq!(bits(&ints), [(-3.0f64).to_bits(), nan, 7.0f64.to_bits()]);
        let floats = Column::from_opt_f64(
            "f",
            [
                Some(2.5),
                Some(-0.0),
                Some(f64::NAN),
                Some(-f64::NAN),
                Some(f64::INFINITY),
                Some(f64::NEG_INFINITY),
                None,
            ],
        );
        assert_eq!(
            bits(&floats),
            [
                2.5f64.to_bits(),
                (-0.0f64).to_bits(),
                nan,
                nan,
                nan,
                nan,
                nan
            ]
        );
        let strings = Column::from_opt_str("s", [Some("1".to_string()), None]);
        assert_eq!(bits(&strings), [nan, nan], "a string is not a number");
        let flags = Column::new("b", ColumnData::Bool(vec![Some(true), Some(false), None]));
        assert_eq!(bits(&flags), [1.0f64.to_bits(), 0.0f64.to_bits(), nan]);
    }

    #[test]
    fn to_f64_vec_handles_types() {
        let c = Column::from_bool("b", [true, false]);
        assert_eq!(c.to_f64_vec(), vec![Some(1.0), Some(0.0)]);
        let s = Column::from_str_values("s", ["x"]);
        assert_eq!(s.to_f64_vec(), vec![None]);
    }
}
