//! CSV records → a columnar [`Table`].
//!
//! Column typing is inferred: if every value of a column parses as `u64`
//! it becomes a numeric column; otherwise it is dictionary-encoded (the
//! codes group correctly, and results are decoded back to strings for
//! display). This mirrors how a column store would feed arbitrary keys to
//! the operator's integer kernels.

use crate::csv::CsvRecords;
use hsa_columnar::{Dictionary, Table};
use std::fmt;

/// Load failure.
#[derive(Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Header contains a duplicate column name.
    DuplicateColumn(String),
    /// Header contains an empty column name.
    EmptyColumnName,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::DuplicateColumn(name) => write!(f, "duplicate column name {name:?}"),
            LoadError::EmptyColumnName => write!(f, "empty column name in header"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A loaded table plus the dictionaries of its non-numeric columns.
#[derive(Debug)]
pub struct LoadedTable {
    /// The columnar table (numeric values or dictionary codes).
    pub table: Table,
    dictionaries: Vec<(String, Dictionary)>,
}

impl LoadedTable {
    /// Dictionary of a column, if it was string-typed.
    pub fn dictionary_of(&self, column: &str) -> Option<&Dictionary> {
        self.dictionaries.iter().find(|(n, _)| n == column).map(|(_, d)| d)
    }
}

/// Build a [`LoadedTable`] from parsed CSV records in one pass over the
/// field arena.
///
/// A column is numeric iff every value passes `v.trim().parse::<u64>()`.
/// Otherwise the raw fields are dictionary-encoded in order of first
/// appearance: a column that meets its first non-numeric value is
/// re-encoded from row 0.
pub fn load_table(records: &CsvRecords) -> Result<LoadedTable, LoadError> {
    let header = records.header();
    for (i, name) in header.iter().enumerate() {
        if name.is_empty() {
            return Err(LoadError::EmptyColumnName);
        }
        if header[..i].contains(name) {
            return Err(LoadError::DuplicateColumn(name.clone()));
        }
    }

    let width = header.len();
    let n_rows = records.n_rows();
    let mut cols: Vec<(Vec<u64>, Option<Dictionary>)> =
        (0..width).map(|_| (Vec::with_capacity(n_rows), None)).collect();
    let mut i = 0;
    for _ in 0..n_rows {
        for (c, (data, dict)) in cols.iter_mut().enumerate() {
            let v = records.nth(i);
            i += 1;
            let code = match dict {
                Some(d) => d.encode_str(v),
                None => match parse_u64(v) {
                    Some(n) => n,
                    None => {
                        let d = dict.insert(Dictionary::new());
                        for (r, slot) in data.iter_mut().enumerate() {
                            *slot = d.encode_str(records.field(r, c));
                        }
                        d.encode_str(v)
                    }
                },
            };
            data.push(code);
        }
    }

    let mut table = Table::new();
    let mut dictionaries = Vec::new();
    for (name, (data, dict)) in header.iter().zip(cols) {
        table.add_column(name.clone(), data);
        if let Some(d) = dict {
            dictionaries.push((name.clone(), d));
        }
    }
    Ok(LoadedTable { table, dictionaries })
}

/// `v.trim().parse::<u64>()`, with a fast path for plain digit strings
/// short enough that they cannot overflow.
fn parse_u64(v: &str) -> Option<u64> {
    let b = v.as_bytes();
    if !b.is_empty() && b.len() < 20 && b.iter().all(u8::is_ascii_digit) {
        return Some(b.iter().fold(0, |n, &d| n * 10 + u64::from(d - b'0')));
    }
    v.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(csv: &str) -> CsvRecords {
        crate::parse_csv(csv).unwrap()
    }

    #[test]
    fn numeric_and_string_columns() {
        let t = load_table(&records("id,name\n1,ann\n2,bob\n3,ann\n")).unwrap();
        assert_eq!(t.table.col("id"), &[1, 2, 3]);
        assert_eq!(t.table.col("name"), &[0, 1, 0]);
        assert!(t.dictionary_of("id").is_none());
        assert_eq!(t.dictionary_of("name").unwrap().decode_str(1), Some("bob"));
    }

    #[test]
    fn mixed_values_force_dictionary() {
        let t = load_table(&records("v\n1\nx\n2\n")).unwrap();
        assert!(t.dictionary_of("v").is_some());
        assert_eq!(t.table.col("v"), &[0, 1, 2]);
    }

    #[test]
    fn whitespace_tolerant_numerics() {
        let t = load_table(&records("v\n 1 \n2\n")).unwrap();
        assert!(t.dictionary_of("v").is_none());
        assert_eq!(t.table.col("v"), &[1, 2]);
    }

    #[test]
    fn numeric_typing_follows_str_parse() {
        let t =
            load_table(&records("a,b\n+5,18446744073709551615\n007,\u{a0}1\u{2003}\n")).unwrap();
        assert_eq!(t.table.col("a"), &[5, 7]);
        assert_eq!(t.table.col("b"), &[u64::MAX, 1]);
        let t = load_table(&records("v\n1\n18446744073709551616\n")).unwrap();
        let dict = t.dictionary_of("v").unwrap();
        assert_eq!(dict.decode_str(1), Some("18446744073709551616"));
    }

    #[test]
    fn header_only_gives_empty_table() {
        let t = load_table(&records("a,b\n")).unwrap();
        assert_eq!(t.table.n_rows(), 0);
        assert_eq!(t.table.n_cols(), 2);
    }

    #[test]
    fn duplicate_header_rejected() {
        let err = load_table(&records("a,a\n1,2\n")).unwrap_err();
        assert_eq!(err, LoadError::DuplicateColumn("a".into()));
    }

    #[test]
    fn empty_header_name_rejected() {
        let err = load_table(&records("a,\n1,2\n")).unwrap_err();
        assert_eq!(err, LoadError::EmptyColumnName);
    }
}
