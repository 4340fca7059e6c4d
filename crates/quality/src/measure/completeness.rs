//! Completeness: the fraction of present cells.

use openbi_table::{DataType, Table};

/// Overall completeness of a table: present cells / total cells. A null
/// cell is missing, and a numeric cell is present as `Column::numbers`
/// reads it, so a NaN or ±∞ float cell is missing too, as in the mining
/// and quality kernels. An empty table is trivially complete (1.0).
pub fn completeness(table: &Table) -> f64 {
    let total = table.n_rows() * table.n_cols();
    if total == 0 {
        return 1.0;
    }
    let missing: usize = table
        .columns()
        .iter()
        .map(|c| match c.dtype() {
            DataType::Str => c.null_count(),
            _ => c.numbers().iter().filter(|x| x.is_nan()).count(),
        })
        .sum();
    1.0 - missing as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use openbi_table::Column;

    #[test]
    fn full_table_is_complete() {
        let t = Table::new(vec![Column::from_i64("a", [1, 2])]).unwrap();
        assert_eq!(completeness(&t), 1.0);
    }

    #[test]
    fn counts_nulls_across_columns() {
        let t = Table::new(vec![
            Column::from_opt_i64("a", [Some(1), None]),
            Column::from_opt_f64("b", [None, None]),
        ])
        .unwrap();
        assert!((completeness(&t) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn non_finite_cells_are_missing() {
        let t = Table::new(vec![
            Column::from_f64("a", [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            Column::from_opt_f64("b", [Some(2.0), None, Some(-0.0), Some(3.0)]),
        ])
        .unwrap();
        assert_eq!(completeness(&t), 0.5);
    }

    #[test]
    fn empty_table_is_complete() {
        assert_eq!(completeness(&Table::empty()), 1.0);
    }
}
