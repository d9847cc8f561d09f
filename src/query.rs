//! A small fluent query layer over the operator.
//!
//! Lets application code read like the SQL the paper's introduction talks
//! about, including multi-column `GROUP BY` (fused into one key column by
//! dictionary encoding — the same trick column stores use):
//!
//! ```
//! use hashing_is_sorting::{Query, Table};
//!
//! let mut t = Table::new();
//! t.add_column("store", vec![1, 2, 1, 2, 1])
//!     .add_column("item", vec![7, 7, 8, 7, 7])
//!     .add_column("amount", vec![10, 20, 30, 40, 50]);
//!
//! // SELECT store, item, COUNT(*), SUM(amount) GROUP BY store, item
//! let result = Query::over(&t)
//!     .group_by("store")
//!     .group_by("item")
//!     .count("orders")
//!     .sum("amount", "total")
//!     .run();
//! assert_eq!(result.n_rows(), 3);
//! let rows = result.sorted_rows();
//! assert_eq!(rows[0], (vec![1, 7], vec![2.0, 60.0])); // store 1, item 7
//! ```

use crate::{
    try_aggregate_observed, AggError, AggFn, AggSpec, AggStream, AggregateConfig, ExecEnv,
    GroupByOutput, ObsConfig, RunReport, Table,
};
use hsa_columnar::encode_composite;

/// A `GROUP BY` query under construction.
pub struct Query<'t> {
    table: &'t Table,
    group_by: Vec<String>,
    aggs: Vec<(String, AggFn, Option<String>)>,
    cfg: AggregateConfig,
    obs: ObsConfig,
    env: ExecEnv,
}

impl<'t> Query<'t> {
    /// Start a query over `table`.
    pub fn over(table: &'t Table) -> Self {
        Self {
            table,
            group_by: Vec::new(),
            aggs: Vec::new(),
            cfg: AggregateConfig::default(),
            obs: ObsConfig::disabled(),
            env: ExecEnv::unrestricted(),
        }
    }

    /// Add a grouping column (call repeatedly for composite keys).
    pub fn group_by(mut self, column: &str) -> Self {
        self.group_by.push(column.to_string());
        self
    }

    /// `COUNT(*) AS name`.
    pub fn count(mut self, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Count, None));
        self
    }

    /// `SUM(column) AS name`.
    pub fn sum(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Sum, Some(column.to_string())));
        self
    }

    /// `MIN(column) AS name`.
    pub fn min(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Min, Some(column.to_string())));
        self
    }

    /// `MAX(column) AS name`.
    pub fn max(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Max, Some(column.to_string())));
        self
    }

    /// `AVG(column) AS name`.
    pub fn avg(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Avg, Some(column.to_string())));
        self
    }

    /// Override the operator configuration.
    pub fn with_config(mut self, cfg: AggregateConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Collect deep observability (per-worker metrics and/or the task
    /// timeline) during `run`; see [`RunReport`].
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Run under an execution environment: memory budget, cancellation
    /// token, and (for tests) fault injection.
    pub fn with_env(mut self, env: ExecEnv) -> Self {
        self.env = env;
        self
    }

    /// Execute.
    ///
    /// Panics on unknown column names (mirroring [`Table::col`]); at least
    /// one grouping column is required. [`Query::try_run`] returns these
    /// as typed errors instead.
    pub fn run(self) -> QueryResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute, returning typed errors for unknown columns, an empty
    /// `GROUP BY`, and anything the operator reports under the query's
    /// [`ExecEnv`] (budget exhaustion, cancellation, contained panics).
    pub fn try_run(self) -> Result<QueryResult, AggError> {
        self.execute(None)
    }

    /// Execute with bounded-chunk ingestion: rows enter the operator
    /// `chunk_rows` at a time through an [`AggStream`] instead of as one
    /// slice. Combined with a memory budget and a spill directory on the
    /// query's [`ExecEnv`], the operator's resident set stays bounded
    /// while the result is identical to [`Query::run`].
    ///
    /// Panics exactly like [`Query::run`]; see [`Query::try_run_streaming`].
    pub fn run_streaming(self, chunk_rows: usize) -> QueryResult {
        self.try_run_streaming(chunk_rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Query::run_streaming`].
    pub fn try_run_streaming(self, chunk_rows: usize) -> Result<QueryResult, AggError> {
        self.execute(Some(chunk_rows))
    }

    fn execute(self, chunk_rows: Option<usize>) -> Result<QueryResult, AggError> {
        if self.group_by.is_empty() {
            return Err(AggError::EmptyGroupBy);
        }
        let col = |name: &str| -> Result<&[u64], AggError> {
            self.table
                .column(name)
                .map(|c| c.data.as_slice())
                .ok_or_else(|| AggError::UnknownColumn(name.to_string()))
        };
        let key_cols: Vec<&[u64]> =
            self.group_by.iter().map(|name| col(name)).collect::<Result<_, _>>()?;

        // Collect the distinct aggregate input columns.
        let mut input_names: Vec<&str> = Vec::new();
        let mut specs = Vec::with_capacity(self.aggs.len());
        for (_, func, input) in &self.aggs {
            let input_ix = match input {
                Some(name) => {
                    // Validate eagerly for a clear error site.
                    col(name)?;
                    Some(match input_names.iter().position(|n| n == name) {
                        Some(i) => i,
                        None => {
                            input_names.push(name);
                            input_names.len() - 1
                        }
                    })
                }
                None => None,
            };
            specs.push(AggSpec { func: *func, input: input_ix });
        }
        let inputs: Vec<&[u64]> = input_names.iter().map(|n| col(n)).collect::<Result<_, _>>()?;

        // One-shot or chunked ingestion over the (possibly fused) keys.
        let run = |keys: &[u64]| -> Result<(GroupByOutput, RunReport), AggError> {
            match chunk_rows {
                None => {
                    try_aggregate_observed(keys, &inputs, &specs, &self.cfg, &self.env, &self.obs)
                }
                Some(step) => {
                    let mut stream = AggStream::new(&specs, &self.cfg, &self.env, &self.obs)?;
                    let step = step.max(1);
                    let mut at = 0;
                    loop {
                        let end = (at + step).min(keys.len());
                        let chunk_inputs: Vec<&[u64]> =
                            inputs.iter().map(|c| &c[at..end]).collect();
                        stream.push(&keys[at..end], &chunk_inputs)?;
                        at = end;
                        if at >= keys.len() {
                            break;
                        }
                    }
                    stream.finish()
                }
            }
        };

        // Fuse composite keys; single-column keys pass through untouched.
        let (out, report, tuples) = if key_cols.len() == 1 {
            let (out, report) = run(key_cols[0])?;
            (out, report, None)
        } else {
            let (codes, tuples) = encode_composite(&key_cols);
            let (out, report) = run(&codes)?;
            (out, report, Some(tuples))
        };

        // Decode group keys back into per-column vectors.
        let n = out.n_groups();
        let mut group_cols: Vec<(String, Vec<u64>)> =
            self.group_by.iter().map(|name| (name.clone(), Vec::with_capacity(n))).collect();
        for &code in &out.keys {
            match &tuples {
                None => group_cols[0].1.push(code),
                Some(tuples) => {
                    for (c, &v) in group_cols.iter_mut().zip(&tuples[code as usize]) {
                        c.1.push(v);
                    }
                }
            }
        }

        let agg_cols: Vec<(String, AggValues)> = self
            .aggs
            .iter()
            .enumerate()
            .map(|(i, (name, ..))| {
                let vals = match out.column_u64(i) {
                    Some(v) => AggValues::U64(v),
                    None => AggValues::F64(out.column_f64(i)),
                };
                (name.clone(), vals)
            })
            .collect();

        Ok(QueryResult { group_cols, agg_cols, report })
    }
}

/// One aggregate output column.
#[derive(Clone, Debug, PartialEq)]
pub enum AggValues {
    /// Exact integer results (COUNT, SUM, MIN, MAX).
    U64(Vec<u64>),
    /// Fractional results (AVG).
    F64(Vec<f64>),
}

impl AggValues {
    /// Value at `row` as f64.
    pub fn get_f64(&self, row: usize) -> f64 {
        match self {
            AggValues::U64(v) => v[row] as f64,
            AggValues::F64(v) => v[row],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            AggValues::U64(v) => v.len(),
            AggValues::F64(v) => v.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of a [`Query`]: grouped rows in unspecified order.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Grouping columns, `(name, values)`, one value per result row.
    pub group_cols: Vec<(String, Vec<u64>)>,
    /// Aggregate columns, `(name, values)`, aligned with `group_cols`.
    pub agg_cols: Vec<(String, AggValues)>,
    /// Full run report: always-on statistics (`report.stats`) plus any
    /// deep metrics/trace requested via [`Query::with_obs`].
    pub report: RunReport,
}

impl QueryResult {
    /// Number of result rows (groups).
    pub fn n_rows(&self) -> usize {
        self.group_cols.first().map_or(0, |(_, v)| v.len())
    }

    /// Rows as `(group tuple, aggregate values as f64)`, sorted by group
    /// tuple — convenience for tests and small outputs.
    pub fn sorted_rows(&self) -> Vec<(Vec<u64>, Vec<f64>)> {
        let mut rows: Vec<(Vec<u64>, Vec<f64>)> = (0..self.n_rows())
            .map(|r| {
                (
                    self.group_cols.iter().map(|(_, v)| v[r]).collect(),
                    self.agg_cols.iter().map(|(_, v)| v.get_f64(r)).collect(),
                )
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Render as an aligned text table (used by the CLI); group values can
    /// be remapped to strings via `decode` (e.g. dictionary decoding).
    /// A thin wrapper over [`QueryResult::write_table`].
    pub fn format_table(&self, decode: impl Fn(usize, u64) -> String) -> String {
        let mut out = String::new();
        self.write_table(&mut out, |c, v, buf| buf.push_str(&decode(c, v)));
        out
    }

    /// Append the result as an aligned text table to `out`. `cell(c, v,
    /// buf)` writes the value `v` of grouping column `c` into `buf`.
    ///
    /// Rows are ordered by group tuple. A column is as wide as its widest
    /// cell or header in bytes, and cells are right-aligned to that width
    /// counted in chars; columns are separated by two spaces. COUNT, SUM,
    /// MIN and MAX print their exact integer, AVG prints three decimals.
    pub fn write_table(&self, out: &mut String, mut cell: impl FnMut(usize, u64, &mut String)) {
        let names: Vec<&str> = self
            .group_cols
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(self.agg_cols.iter().map(|(n, _)| n.as_str()))
            .collect();
        let n_keys = self.group_cols.len();
        let mut scratch = String::new();

        // Widths, front to back over the columns in result order.
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        for (c, (_, vals)) in self.group_cols.iter().enumerate() {
            for &v in vals {
                scratch.clear();
                cell(c, v, &mut scratch);
                widths[c] = widths[c].max(scratch.len());
            }
        }
        for (w, (_, vals)) in widths[n_keys..].iter_mut().zip(&self.agg_cols) {
            match vals {
                AggValues::U64(v) => *w = (*w).max(v.iter().max().map_or(0, |&m| digits(m))),
                AggValues::F64(v) => {
                    for &x in v {
                        scratch.clear();
                        push_f64(&mut scratch, x);
                        *w = (*w).max(scratch.len());
                    }
                }
            }
        }

        // Row order: by the first grouping column, ties broken by the rest
        // of the tuple.
        let rest = self.group_cols.get(1..).unwrap_or_default();
        let mut order: Vec<(u64, usize)> = match self.group_cols.first() {
            Some((_, first)) => first.iter().copied().zip(0..).collect(),
            None => Vec::new(),
        };
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                rest.iter().map(|(_, v)| v[a.1]).cmp(rest.iter().map(|(_, v)| v[b.1]))
            })
        });

        let row_bytes: usize = widths.iter().map(|w| w + 2).sum();
        out.reserve(row_bytes * (order.len() + 1));
        for (c, name) in names.iter().enumerate() {
            push_cell(out, c, name, widths[c]);
        }
        out.push('\n');
        // Rows in sorted blocks. Each block first gathers its values
        // column by column (AVG as its bit pattern), a loop whose random
        // reads overlap, instead of stalling on one read per cell while
        // rendering.
        let mut block: Vec<u64> = Vec::new();
        for rows in order.chunks(EMIT_BLOCK_ROWS) {
            block.clear();
            for (_, v) in &self.group_cols {
                block.extend(rows.iter().map(|&(_, r)| v[r]));
            }
            for (_, v) in &self.agg_cols {
                match v {
                    AggValues::U64(v) => block.extend(rows.iter().map(|&(_, r)| v[r])),
                    AggValues::F64(v) => block.extend(rows.iter().map(|&(_, r)| v[r].to_bits())),
                }
            }
            for i in 0..rows.len() {
                for (c, &w) in widths.iter().enumerate() {
                    let v = block[c * rows.len() + i];
                    if c < n_keys {
                        scratch.clear();
                        cell(c, v, &mut scratch);
                        push_cell(out, c, &scratch, w);
                        continue;
                    }
                    match &self.agg_cols[c - n_keys].1 {
                        AggValues::U64(_) => {
                            // The padding, then the digits themselves.
                            push_cell(out, c, "", w - digits(v));
                            push_u64(out, v);
                        }
                        AggValues::F64(_) => {
                            scratch.clear();
                            push_f64(&mut scratch, f64::from_bits(v));
                            push_cell(out, c, &scratch, w);
                        }
                    }
                }
                out.push('\n');
            }
        }
    }
}

/// Rows per gather block of [`QueryResult::write_table`].
const EMIT_BLOCK_ROWS: usize = 1024;

/// Append cell `c` of a table row, right-aligned to `width` chars.
fn push_cell(out: &mut String, c: usize, cell: &str, width: usize) {
    if c > 0 {
        out.push_str("  ");
    }
    out.extend(std::iter::repeat_n(' ', width.saturating_sub(cell.chars().count())));
    out.push_str(cell);
}

/// Number of decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Append an AVG value the way the table prints it.
fn push_f64(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{x:.3}");
}

/// Append the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("store", vec![1, 2, 1, 2, 1, 3])
            .add_column("item", vec![7, 7, 8, 7, 7, 9])
            .add_column("amount", vec![10, 20, 30, 40, 50, 60]);
        t
    }

    #[test]
    fn single_key_all_functions() {
        let t = table();
        let r = Query::over(&t)
            .group_by("store")
            .count("n")
            .sum("amount", "sum")
            .min("amount", "min")
            .max("amount", "max")
            .avg("amount", "avg")
            .run();
        let rows = r.sorted_rows();
        assert_eq!(rows[0], (vec![1], vec![3.0, 90.0, 10.0, 50.0, 30.0]));
        assert_eq!(rows[1], (vec![2], vec![2.0, 60.0, 20.0, 40.0, 30.0]));
        assert_eq!(rows[2], (vec![3], vec![1.0, 60.0, 60.0, 60.0, 60.0]));
    }

    #[test]
    fn composite_key() {
        let t = table();
        let r = Query::over(&t).group_by("store").group_by("item").count("n").run();
        let rows = r.sorted_rows();
        assert_eq!(
            rows,
            vec![
                (vec![1, 7], vec![2.0]),
                (vec![1, 8], vec![1.0]),
                (vec![2, 7], vec![2.0]),
                (vec![3, 9], vec![1.0]),
            ]
        );
    }

    #[test]
    fn distinct_via_empty_aggs() {
        let t = table();
        let r = Query::over(&t).group_by("item").run();
        assert_eq!(r.n_rows(), 3);
        assert!(r.agg_cols.is_empty());
    }

    #[test]
    fn format_table_aligns() {
        let t = table();
        let r = Query::over(&t).group_by("store").count("rows").run();
        let text = r.format_table(|_, v| format!("s{v}"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("store"));
        assert!(lines[0].contains("rows"));
        assert!(lines[1].trim_start().starts_with("s1"));
    }

    #[test]
    fn format_table_prints_integers_above_2_pow_53_exactly() {
        let mut t = Table::new();
        t.add_column("k", vec![1, 1]).add_column("v", vec![1 << 53, 1]);
        let r = Query::over(&t).group_by("k").sum("v", "s").max("v", "m").run();
        let text = r.format_table(|_, v| v.to_string());
        assert_eq!(
            text,
            "k                 s                 m\n1  9007199254740993  9007199254740992\n"
        );
    }

    #[test]
    fn format_table_orders_by_tuple_and_pads_by_chars() {
        let mut t = Table::new();
        t.add_column("a", vec![2, 1, 1, 2]).add_column("b", vec![0, 5, 3, 0]);
        let r = Query::over(&t).group_by("a").group_by("b").count("n").avg("b", "avg").run();
        let text = r.format_table(|c, v| if c == 0 { format!("é{v}") } else { v.to_string() });
        // "é1" is 3 bytes wide but 2 chars: padded by one space to 3 chars.
        let expected = "  a  b  n    avg\n é1  3  1  3.000\n é1  5  1  5.000\n é2  0  2  0.000\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn shared_input_column_reused() {
        // sum and avg over the same column share the Sum physical state.
        let t = table();
        let r = Query::over(&t).group_by("store").sum("amount", "s").avg("amount", "a").run();
        let rows = r.sorted_rows();
        assert_eq!(rows[0].1, vec![90.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "at least one GROUP BY")]
    fn requires_group_by() {
        let t = table();
        let _ = Query::over(&t).count("n").run();
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        let t = table();
        let _ = Query::over(&t).group_by("nope").run();
    }

    #[test]
    fn try_run_returns_typed_errors() {
        let t = table();
        let err = Query::over(&t).count("n").try_run().unwrap_err();
        assert_eq!(err, AggError::EmptyGroupBy);
        let err = Query::over(&t).group_by("nope").try_run().unwrap_err();
        assert_eq!(err, AggError::UnknownColumn("nope".to_string()));
        let err = Query::over(&t).group_by("store").sum("nope2", "x").try_run().unwrap_err();
        assert_eq!(err, AggError::UnknownColumn("nope2".to_string()));
    }

    #[test]
    fn run_streaming_matches_run() {
        let t = table();
        let whole = Query::over(&t)
            .group_by("store")
            .group_by("item")
            .count("n")
            .sum("amount", "total")
            .run();
        for chunk_rows in [1, 2, 4, 100] {
            let chunked = Query::over(&t)
                .group_by("store")
                .group_by("item")
                .count("n")
                .sum("amount", "total")
                .run_streaming(chunk_rows);
            assert_eq!(chunked.sorted_rows(), whole.sorted_rows(), "chunk_rows {chunk_rows}");
        }
    }

    #[test]
    fn run_streaming_on_empty_table() {
        let mut t = Table::new();
        t.add_column("k", vec![]);
        let r = Query::over(&t).group_by("k").count("n").run_streaming(64);
        assert_eq!(r.n_rows(), 0);
    }

    #[test]
    fn try_run_respects_a_memory_budget() {
        use crate::MemoryBudget;
        let t = table();
        let budget = MemoryBudget::limited(16);
        let err = Query::over(&t)
            .group_by("store")
            .count("n")
            .with_env(ExecEnv::unrestricted().with_budget(budget.clone()))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, AggError::BudgetExceeded { .. }));
        assert_eq!(budget.outstanding(), 0, "all reservations released on failure");
    }
}
