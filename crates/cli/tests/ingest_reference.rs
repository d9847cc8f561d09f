//! The CSV ingestion and rendering of `hsa` before the field-arena
//! tokenizer, kept as a reference: a seeded differential runs both on
//! adversarial texts and requires equal records, column types, values,
//! dictionary code order, error text and rendered bytes.
//!
//! The reference bodies are the record-of-strings `parse_csv`, the
//! column-at-a-time `load_table` and the per-cell-`String`
//! `format_table`, unchanged but for their signatures.

use hashing_is_sorting::{AggValues, Dictionary, Query, QueryResult, Table};
use hsa_cli::{load_table, parse_args, parse_csv, run_on_csv_text, CsvRecords};
use std::fmt;

// ---------------------------------------------------------------------
// Reference: parse.

#[derive(Debug, PartialEq, Eq)]
enum CsvError {
    UnterminatedQuote { line: usize },
    RaggedRow { line: usize, got: usize, expected: usize },
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

fn ref_parse_csv(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut quote_start_line = 1;
    let mut line = 1;
    let mut chars = text.chars().peekable();
    let mut any_char_in_record = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    field.push('\n');
                    line += 1;
                }
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' => {
                in_quotes = true;
                quote_start_line = line;
                any_char_in_record = true;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                any_char_in_record = true;
            }
            '\r' => {} // swallowed; \n terminates
            '\n' => {
                line += 1;
                if any_char_in_record || !field.is_empty() || !record.is_empty() {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                any_char_in_record = false;
            }
            other => {
                field.push(other);
                any_char_in_record = true;
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: quote_start_line });
    }
    if any_char_in_record || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }

    let Some(header) = records.first() else {
        return Err(CsvError::Empty);
    };
    let expected = header.len();
    for (i, r) in records.iter().enumerate().skip(1) {
        if r.len() != expected {
            return Err(CsvError::RaggedRow { line: i + 1, got: r.len(), expected });
        }
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// Reference: load.

#[derive(Debug, PartialEq, Eq)]
enum LoadError {
    DuplicateColumn(String),
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

struct LoadedTable {
    table: Table,
    dictionaries: Vec<(String, Dictionary)>,
}

impl LoadedTable {
    fn dictionary_of(&self, column: &str) -> Option<&Dictionary> {
        self.dictionaries.iter().find(|(n, _)| n == column).map(|(_, d)| d)
    }
}

fn ref_load_table(records: &[Vec<String>]) -> Result<LoadedTable, LoadError> {
    let header = records.first().cloned().unwrap_or_default();
    for (i, name) in header.iter().enumerate() {
        if name.is_empty() {
            return Err(LoadError::EmptyColumnName);
        }
        if header[..i].contains(name) {
            return Err(LoadError::DuplicateColumn(name.clone()));
        }
    }

    let body = &records[1.min(records.len())..];
    let mut table = Table::new();
    let mut dictionaries = Vec::new();
    for (c, name) in header.iter().enumerate() {
        let values: Vec<&str> = body.iter().map(|r| r[c].as_str()).collect();
        let numeric: Option<Vec<u64>> =
            values.iter().map(|v| v.trim().parse::<u64>().ok()).collect();
        match numeric {
            Some(col) => {
                table.add_column(name.clone(), col);
            }
            None => {
                let mut dict = Dictionary::new();
                let col: Vec<u64> = values.iter().map(|v| dict.encode_str(v)).collect();
                table.add_column(name.clone(), col);
                dictionaries.push((name.clone(), dict));
            }
        }
    }
    Ok(LoadedTable { table, dictionaries })
}

// ---------------------------------------------------------------------
// Reference: render.

fn ref_format_table(result: &QueryResult, decode: impl Fn(usize, u64) -> String) -> String {
    let headers: Vec<String> = result
        .group_cols
        .iter()
        .map(|(n, _)| n.clone())
        .chain(result.agg_cols.iter().map(|(n, _)| n.clone()))
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(result.n_rows());
    for (tuple, aggs) in result.sorted_rows() {
        let mut cells: Vec<String> = tuple.iter().enumerate().map(|(c, &v)| decode(c, v)).collect();
        for (a, (_, col)) in aggs.iter().zip(&result.agg_cols) {
            cells.push(match col {
                AggValues::U64(_) => format!("{}", *a as u64),
                AggValues::F64(_) => format!("{a:.3}"),
            });
        }
        rows.push(cells);
    }
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let emit = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}"));
        }
        out.push('\n');
    };
    emit(&mut out, &headers);
    for row in &rows {
        emit(&mut out, row);
    }
    out
}

// ---------------------------------------------------------------------
// The differential.

/// SplitMix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Header names: mostly usable, sometimes empty or repeated.
const NAMES: [&str; 6] = ["k", "v", "w", "x", "", "k"];
/// Values a numeric-looking column draws from: plain, padded, signed,
/// zero-led, Unicode-trimmed, 20-digit, and either side of `u64::MAX`.
const NUMBERS: [&str; 16] = [
    "0",
    "7",
    "42",
    "007",
    "+5",
    " 9 ",
    "\u{a0}3",
    "3\u{2003}",
    "-1",
    "",
    "9007199254740992",
    "12345678901234567890",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "1e3",
];
/// Values a string column draws from.
const WORDS: [&str; 8] = ["de", "fr", "é", "x y", " de", "de ", "\u{a0}", "+"];
/// Raw bytes for free-form fields, including every byte the tokenizer
/// acts on.
const ALPHABET: [&str; 12] = [",", "\"", "\r", "\n", " ", "\u{a0}", "é", "+", "0", "1", "9", "a"];

fn field(rng: &mut Rng, numeric: bool, raw: bool) -> String {
    let base = match rng.below(10) {
        0 if raw => (0..rng.below(5)).map(|_| rng.pick(&ALPHABET)).collect(),
        1..=6 if numeric => rng.pick(&NUMBERS).to_string(),
        _ => rng.pick(&WORDS).to_string(),
    };
    if rng.below(5) == 0 {
        // Quoted, with escaped quotes and an embedded separator.
        let body = base.replace('"', "\"\"");
        match rng.below(3) {
            0 => format!("\"{body}\""),
            1 => format!("\"{body},\r\n\""),
            _ => format!("a\"{body}\"b"),
        }
    } else {
        base
    }
}

/// One adversarial CSV text.
fn text(rng: &mut Rng) -> String {
    match rng.below(40) {
        0 => return String::new(),
        1 => return "\r\n\n".to_string(),
        _ => {}
    }
    let width = 1 + rng.below(4);
    let eol = if rng.below(3) == 0 { "\r\n" } else { "\n" };
    let numeric: Vec<bool> = (0..width).map(|_| rng.below(3) != 0).collect();
    // Free-form fields almost always break a text; keep most texts whole.
    let raw = rng.below(4) == 0;
    let mut out = String::new();
    let names: Vec<&str> = if rng.below(8) == 0 {
        (0..width).map(|_| rng.pick(&NAMES)).collect()
    } else {
        NAMES[..4].iter().copied().cycle().skip(rng.below(4)).take(width).collect()
    };
    out.push_str(&names.join(","));
    for _ in 0..rng.below(25) {
        out.push_str(eol);
        if rng.below(10) == 0 {
            out.push_str(eol); // a blank line
        }
        let got = match rng.below(30) {
            0 => width + 1,
            1 => width.saturating_sub(1).max(1),
            _ => width,
        };
        let fields: Vec<String> = (0..got).map(|c| field(rng, numeric[c % width], raw)).collect();
        out.push_str(&fields.join(","));
    }
    match rng.below(6) {
        0 => {}
        1 => out.push_str("\n\"unterminated"),
        _ => out.push_str(eol),
    }
    out
}

fn records_of(new: &CsvRecords) -> Vec<Vec<String>> {
    let width = new.header().len();
    let mut rows = vec![new.header().to_vec()];
    rows.extend(
        (0..new.n_rows()).map(|r| (0..width).map(|c| new.field(r, c).to_string()).collect()),
    );
    rows
}

/// The query of a loaded table: group by one or two columns, COUNT plus
/// every aggregate over each numeric non-key column.
fn query_args(names: &[String], numeric: &[bool], two_keys: bool) -> Vec<String> {
    let keys = if two_keys && names.len() > 1 { 2 } else { 1 };
    let mut argv = vec!["x.csv".to_string(), "--group-by".to_string(), names[..keys].join(",")];
    argv.push("--count".to_string());
    for (name, &num) in names.iter().zip(numeric).skip(keys) {
        if num {
            for f in ["--sum", "--min", "--max", "--avg"] {
                argv.push(f.to_string());
                argv.push(name.clone());
            }
        }
    }
    argv
}

/// The reference pipeline's rendering of `argv`'s query, or None when an
/// integer aggregate exceeds 2^53 (the reference renders those through
/// `f64` and loses digits).
fn reference_render(loaded: &LoadedTable, argv: &[String]) -> Option<String> {
    let args = parse_args(argv.iter().cloned()).expect("valid query");
    let mut q = Query::over(&loaded.table);
    for g in &args.group_by {
        q = q.group_by(g);
    }
    for (func, col, name) in &args.aggs {
        q = match func.as_str() {
            "count" => q.count(name),
            "sum" => q.sum(col, name),
            "min" => q.min(col, name),
            "max" => q.max(col, name),
            _ => q.avg(col, name),
        };
    }
    let result = q.run();
    let exact = result.agg_cols.iter().all(|(_, v)| match v {
        AggValues::U64(v) => v.iter().all(|&x| x <= 1 << 53),
        AggValues::F64(_) => true,
    });
    if !exact {
        return None;
    }
    let group_names = args.group_by.clone();
    Some(ref_format_table(&result, |col_ix, v| match loaded.dictionary_of(&group_names[col_ix]) {
        Some(dict) => dict.decode_str(v).unwrap_or("<?>").to_string(),
        None => v.to_string(),
    }))
}

#[test]
fn arena_ingestion_matches_the_reference_on_adversarial_texts() {
    let mut rng = Rng(0x5eed_c5c0);
    let (mut failed, mut parsed, mut loaded_ok, mut rendered) = (0, 0, 0, 0);
    for case in 0..4000 {
        let text = text(&mut rng);
        let ctx = format!("case {case}: {text:?}");

        let (old, new) = match (ref_parse_csv(&text), parse_csv(&text)) {
            (Ok(old), Ok(new)) => (old, new),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{ctx}");
                failed += 1;
                continue;
            }
            (a, b) => panic!("{ctx}: reference {a:?}, new {:?}", b.map(|r| records_of(&r))),
        };
        parsed += 1;
        assert_eq!(records_of(&new), old, "{ctx}");

        let (old, new) = match (ref_load_table(&old), load_table(&new)) {
            (Ok(old), Ok(new)) => (old, new),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{ctx}");
                continue;
            }
            (a, b) => panic!("{ctx}: reference ok {}, new ok {}", a.is_ok(), b.is_ok()),
        };
        loaded_ok += 1;
        let names: Vec<String> = old.table.columns().map(|c| c.name.clone()).collect();
        let mut numeric = Vec::new();
        for name in &names {
            assert_eq!(old.table.col(name), new.table.col(name), "{ctx}: column {name}");
            let (a, b) = (old.dictionary_of(name), new.dictionary_of(name));
            assert_eq!(a.is_some(), b.is_some(), "{ctx}: type of column {name}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.len(), b.len(), "{ctx}: dictionary of {name}");
                for code in 0..a.len() as u64 {
                    assert_eq!(a.decode(code), b.decode(code), "{ctx}: code {code} of {name}");
                }
            }
            numeric.push(a.is_none());
        }

        // A header that lost its first line to a blank skip can name
        // columns in ways no flag can spell.
        if !names.iter().all(|n| n.bytes().all(|b| b.is_ascii_lowercase())) {
            continue;
        }
        let argv = query_args(&names, &numeric, rng.below(2) == 0);
        if let Some(expected) = reference_render(&old, &argv) {
            let args = parse_args(argv.iter().cloned()).expect("valid query");
            let got = run_on_csv_text(&text, &args).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(got.rendered, expected, "{ctx}: {argv:?}");
            rendered += 1;
        }
    }
    // The generator must reach every stage often enough to mean something.
    let reached = [failed, parsed, loaded_ok, rendered];
    assert!(reached.iter().all(|&n| n > 500), "{reached:?}");
}
