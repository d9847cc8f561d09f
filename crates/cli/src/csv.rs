//! A minimal RFC-4180-ish CSV tokenizer (comma separator, `"` quoting with
//! `""` escapes, `\n` / `\r\n` records). Dependency-free on purpose.
//!
//! The tokenizer works on bytes: the four bytes it acts on (`,` `"` `\r`
//! `\n`) are ASCII and never occur inside a multi-byte UTF-8 sequence, so
//! every field it cuts is valid UTF-8. Body fields are unescaped into one
//! arena string; [`CsvRecords`] keeps one end offset per field.

use std::fmt;

/// CSV parse failure.
#[derive(Debug, PartialEq, Eq)]
pub enum CsvError {
    /// A quoted field was still open at end of input.
    UnterminatedQuote {
        /// 1-based line where the field started.
        line: usize,
    },
    /// A record has a different number of fields than the header.
    RaggedRow {
        /// 1-based record number.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// Input had no header row.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::RaggedRow { line, got, expected } => {
                write!(f, "line {line}: {got} fields, header has {expected}")
            }
            CsvError::Empty => write!(f, "empty input (no header row)"),
        }
    }
}

impl std::error::Error for CsvError {}

/// A parsed CSV file: the header names plus every body field, unescaped,
/// in one arena. Field `i` (row-major) is `fields[ends[i-1]..ends[i]]`.
///
/// Built only by [`parse_csv`], which guarantees that every body record
/// has exactly the header's width.
#[derive(Debug)]
pub struct CsvRecords {
    header: Vec<String>,
    fields: String,
    ends: Vec<usize>,
}

impl CsvRecords {
    /// Column names (the first record).
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Number of body records (rows after the header).
    pub fn n_rows(&self) -> usize {
        self.ends.len() / self.header.len()
    }

    /// Body field `col` of record `row` (0-based, header excluded).
    pub fn field(&self, row: usize, col: usize) -> &str {
        self.nth(row * self.header.len() + col)
    }

    /// The `i`-th body field in row-major order.
    pub(crate) fn nth(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.fields[start..self.ends[i]]
    }
}

/// Parse CSV text (first record = header). Every record is validated to
/// the header's width; blank lines are skipped.
///
/// An unterminated quote anywhere wins over an earlier ragged row.
pub fn parse_csv(text: &str) -> Result<CsvRecords, CsvError> {
    let bytes = text.as_bytes();
    let mut fields = String::with_capacity(text.len());
    let mut ends: Vec<usize> = Vec::new();
    let mut header: Option<Vec<String>> = None;
    let mut in_record = 0; // fields completed in the current record
    let mut records = 0;
    let mut ragged: Option<CsvError> = None;
    // A record is pending once it has any content: a byte, a quote or a
    // separator. A line of nothing but `\r` is blank.
    let mut pending = false;
    let mut line = 1;
    let mut i = 0;

    // Close the record's last field, then the record.
    let mut end_record = |fields: &mut String, ends: &mut Vec<usize>, in_record: &mut usize| {
        ends.push(fields.len());
        *in_record += 1;
        records += 1;
        match &header {
            None => {
                let names = (0..*in_record)
                    .map(|f| {
                        let start = if f == 0 { 0 } else { ends[f - 1] };
                        fields[start..ends[f]].to_string()
                    })
                    .collect();
                header = Some(names);
                fields.clear();
                ends.clear();
            }
            Some(h) if *in_record != h.len() && ragged.is_none() => {
                ragged =
                    Some(CsvError::RaggedRow { line: records, got: *in_record, expected: h.len() });
            }
            Some(_) => {}
        }
        *in_record = 0;
    };

    while i < bytes.len() {
        // Unquoted: copy the run up to the next byte that means something.
        let run = i;
        while i < bytes.len() && !matches!(bytes[i], b',' | b'"' | b'\r' | b'\n') {
            i += 1;
        }
        if i > run {
            fields.push_str(&text[run..i]);
            pending = true;
        }
        let Some(&b) = bytes.get(i) else { break };
        i += 1;
        match b {
            b',' => {
                ends.push(fields.len());
                in_record += 1;
                pending = true;
            }
            b'\n' => {
                line += 1;
                if pending {
                    end_record(&mut fields, &mut ends, &mut in_record);
                }
                pending = false;
            }
            b'"' => {
                pending = true;
                let quote_line = line;
                // Quoted: copy up to the closing quote; `""` is one quote.
                loop {
                    let run = i;
                    while i < bytes.len() && bytes[i] != b'"' {
                        line += usize::from(bytes[i] == b'\n');
                        i += 1;
                    }
                    fields.push_str(&text[run..i]);
                    if i == bytes.len() {
                        return Err(CsvError::UnterminatedQuote { line: quote_line });
                    }
                    i += 1;
                    if bytes.get(i) != Some(&b'"') {
                        break;
                    }
                    fields.push('"');
                    i += 1;
                }
            }
            _ => {} // `\r` outside quotes is dropped
        }
    }
    if pending {
        end_record(&mut fields, &mut ends, &mut in_record);
    }
    if let Some(e) = ragged {
        return Err(e);
    }
    let header = header.ok_or(CsvError::Empty)?;
    Ok(CsvRecords { header, fields, ends })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(r: &CsvRecords) -> Vec<Vec<&str>> {
        (0..r.n_rows())
            .map(|row| (0..r.header().len()).map(|c| r.field(row, c)).collect())
            .collect()
    }

    #[test]
    fn simple_rows() {
        let r = parse_csv("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(r.header(), ["a", "b"]);
        assert_eq!(rows(&r), vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn no_trailing_newline() {
        let r = parse_csv("a,b\n1,2").unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(rows(&r)[0], vec!["1", "2"]);
    }

    #[test]
    fn crlf_and_empty_fields() {
        let r = parse_csv("a,b,c\r\n1,,3\r\n").unwrap();
        assert_eq!(rows(&r)[0], vec!["1", "", "3"]);
    }

    #[test]
    fn quoted_fields_with_commas_newlines_and_escapes() {
        let r = parse_csv("a,b\n\"x,y\",\"line1\nline2\"\n\"he said \"\"hi\"\"\",2\n").unwrap();
        assert_eq!(rows(&r)[0], vec!["x,y", "line1\nline2"]);
        assert_eq!(rows(&r)[1], vec!["he said \"hi\"", "2"]);
    }

    #[test]
    fn quotes_toggle_mid_field_and_keep_carriage_returns() {
        let r = parse_csv("a\nab\"c,\r\"d\n\"\"\n").unwrap();
        assert_eq!(rows(&r), vec![vec!["abc,\rd"], vec![""]]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let r = parse_csv("\n\r\na\n\n1\n\r\n").unwrap();
        assert_eq!(r.header(), ["a"]);
        assert_eq!(rows(&r), vec![vec!["1"]]);
    }

    #[test]
    fn ragged_row_is_an_error() {
        let err = parse_csv("a,b\n1\n").unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 2, got: 1, expected: 2 });
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = parse_csv("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn unterminated_quote_beats_an_earlier_ragged_row() {
        let err = parse_csv("a,b\n1\n\n2,\"x\ny\n").unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 4 });
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(parse_csv("").unwrap_err(), CsvError::Empty);
        assert_eq!(parse_csv("\r\n\n").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn single_header_only() {
        let r = parse_csv("a,b\n").unwrap();
        assert_eq!(r.header(), ["a", "b"]);
        assert_eq!(r.n_rows(), 0);
    }
}
