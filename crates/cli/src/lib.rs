//! `hsa` — GROUP BY aggregation over CSV files from the command line.
//!
//! A small end-to-end application of the operator: load a CSV into
//! columns (numeric columns as `u64`, everything else dictionary-encoded),
//! run an aggregation query, print an aligned result table.
//!
//! ```text
//! hsa data.csv --group-by country,city --count orders --sum amount --avg amount
//! ```
//!
//! The binary lives in `src/main.rs`; everything here is library code so
//! the whole pipeline is unit-testable.

mod args;
mod csv;
mod error;
mod load;
mod serve;

pub use args::{parse_args, CliArgs, UsageError, USAGE};
pub use csv::{parse_csv, CsvError, CsvRecords};
pub use error::{CliError, ErrorClass};
pub use load::{load_table, LoadedTable};
pub use serve::{parse_serve_args, serve, serve_on, ServeArgs, SERVE_USAGE};

use hashing_is_sorting::obs::fmt_nanos;
use hashing_is_sorting::{
    CancelToken, Dictionary, DiskBudget, ExecEnv, MemoryBudget, ObsConfig, Query, RunReport,
    SpillConfig,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Everything one CLI invocation produced: the rendered result table plus
/// the run report behind `--stats` / `--stats-json` / `--trace`.
#[derive(Debug)]
pub struct CliRun {
    /// Aligned result table, with the pretty report appended when
    /// `--stats` was given.
    pub rendered: String,
    /// The operator's run report (deep sections populated only when
    /// requested).
    pub report: RunReport,
}

/// Run a parsed CLI invocation against CSV `text`.
///
/// Failures come back as a [`CliError`] whose class decides the process
/// exit code (budget 2, timeout 3, I/O 4, invalid input 5).
pub fn run_on_csv_text(text: &str, args: &CliArgs) -> Result<CliRun, CliError> {
    let start = Instant::now();
    let rows = parse_csv(text).map_err(CliError::invalid)?;
    let parsed = Instant::now();
    let loaded = load_table(&rows).map_err(CliError::invalid)?;
    // The columns hold everything the query needs: free the field arena
    // before the operator allocates.
    drop(rows);
    let loaded_at = Instant::now();

    for name in args.all_column_refs() {
        if loaded.table.column(name).is_none() {
            return Err(CliError::invalid(format!("no column named {name:?} in the input")));
        }
    }
    for name in &args.numeric_column_refs() {
        if loaded.dictionary_of(name).is_some() {
            return Err(CliError::invalid(format!(
                "column {name:?} is not numeric and cannot be aggregated (only grouped)"
            )));
        }
    }

    let obs = ObsConfig {
        metrics: args.wants_metrics(),
        trace: args.trace.is_some(),
        progress: args.progress_ms.map(Duration::from_millis),
        ..ObsConfig::disabled()
    };
    let mut env = ExecEnv::unrestricted();
    if let Some(bytes) = args.mem_budget {
        env = env.with_budget(MemoryBudget::limited(bytes));
    }
    if let Some(ms) = args.timeout_ms {
        env = env.with_cancel(CancelToken::with_timeout(Duration::from_millis(ms)));
    }
    if let Some(dir) = &args.spill_dir {
        env = env.with_spill_dir(dir);
    }
    if let Some(bytes) = args.spill_limit {
        env = env.with_disk_budget(DiskBudget::limited(bytes));
    }
    if args.spill_codec.is_some() || args.spill_io_threads.is_some() {
        let defaults = SpillConfig::default();
        env = env.with_spill_config(SpillConfig {
            codec: args.spill_codec.unwrap_or(defaults.codec),
            io_threads: args.spill_io_threads.unwrap_or(defaults.io_threads),
        });
    }
    let mut q =
        Query::over(&loaded.table).with_config(args.config.clone()).with_obs(obs).with_env(env);
    for g in &args.group_by {
        q = q.group_by(g);
    }
    for (func, col, name) in &args.aggs {
        q = match func.as_str() {
            "count" => q.count(name),
            "sum" => q.sum(col, name),
            "min" => q.min(col, name),
            "max" => q.max(col, name),
            "avg" => q.avg(col, name),
            other => return Err(CliError::invalid(format!("unknown aggregate {other:?}"))),
        };
    }
    // Operator errors carry their own class (budget, timeout, I/O, …).
    let result = match args.chunk_rows {
        Some(n) => q.try_run_streaming(n),
        None => q.try_run(),
    }?;

    let queried = Instant::now();

    let dicts: Vec<Option<&Dictionary>> =
        args.group_by.iter().map(|g| loaded.dictionary_of(g)).collect();
    let mut out = String::new();
    result.write_table(&mut out, |c, v, buf| match dicts[c] {
        Some(dict) => buf.push_str(dict.decode_str(v).unwrap_or("<?>")),
        None => {
            let _ = write!(buf, "{v}");
        }
    });
    let emitted = Instant::now();
    if args.show_stats {
        out.push('\n');
        out.push_str(&result.report.pretty());
    }
    if args.explain {
        let stages = [
            ("parse", parsed - start),
            ("load", loaded_at - parsed),
            ("query", queried - loaded_at),
            ("emit", emitted - queried),
        ];
        out.push('\n');
        out.push_str(&explain_process(emitted - start, &stages));
        out.push_str(&result.report.explain());
    }
    Ok(CliRun { rendered: out, report: result.report })
}

/// The `process` block of `--explain`: wall time of the CLI pipeline and
/// each stage's share of it.
fn explain_process(wall: Duration, stages: &[(&str, Duration)]) -> String {
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let wall_ns = nanos(wall);
    let mut s = format!("process · wall {}\n", fmt_nanos(wall_ns));
    for (i, (name, d)) in stages.iter().enumerate() {
        let tee = if i + 1 == stages.len() { "└─" } else { "├─" };
        let share = 100.0 * nanos(*d) as f64 / wall_ns.max(1) as f64;
        let _ = writeln!(s, "{tee} {name} · {} · {share:.1}%", fmt_nanos(nanos(*d)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "country,city,amount\n\
                       de,berlin,10\n\
                       de,munich,20\n\
                       fr,paris,30\n\
                       de,berlin,40\n";

    fn args(argv: &[&str]) -> CliArgs {
        parse_args(argv.iter().map(|s| s.to_string())).expect("valid args")
    }

    #[test]
    fn end_to_end_grouped_sum() {
        let a = args(&["x.csv", "--group-by", "country", "--count", "--sum", "amount"]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("country"));
        assert!(lines[1].contains("de") && lines[1].contains('3') && lines[1].contains("70"));
        assert!(lines[2].contains("fr") && lines[2].contains("30"));
    }

    #[test]
    fn composite_group_with_strings() {
        let a = args(&["x.csv", "--group-by", "country,city", "--sum", "amount"]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        assert!(out.contains("berlin"));
        assert!(out.contains("50")); // berlin: 10 + 40
    }

    #[test]
    fn distinct_only() {
        let a = args(&["x.csv", "--group-by", "city"]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        assert_eq!(out.lines().count(), 4); // header + 3 cities
    }

    #[test]
    fn rejects_aggregating_string_column() {
        let a = args(&["x.csv", "--group-by", "country", "--sum", "city"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("not numeric"), "{err}");
        assert_eq!(err.class, ErrorClass::InvalidInput);
    }

    #[test]
    fn rejects_unknown_column() {
        let a = args(&["x.csv", "--group-by", "nope"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("no column named"), "{err}");
        assert_eq!(err.class, ErrorClass::InvalidInput);
    }

    #[test]
    fn stats_flag_appends_the_full_report() {
        let a = args(&["x.csv", "--group-by", "country", "--stats"]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        assert!(run.rendered.contains("rows in            4"), "{}", run.rendered);
        assert!(run.rendered.contains("groups out         2"), "{}", run.rendered);
        assert!(run.rendered.contains("passes used"), "{}", run.rendered);
        // --stats implies deep metrics; tracing stays off.
        assert!(run.report.metrics.is_some());
        assert!(run.report.trace_json.is_none());
    }

    #[test]
    fn explain_flag_appends_the_phase_tree() {
        let a = args(&["x.csv", "--group-by", "country", "--sum", "amount", "--explain"]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        assert!(run.rendered.contains("process · wall"), "{}", run.rendered);
        for stage in ["├─ parse · ", "├─ load · ", "├─ query · ", "└─ emit · "]
        {
            assert!(run.rendered.contains(stage), "{stage}: {}", run.rendered);
        }
        assert!(run.rendered.contains("query · wall"), "{}", run.rendered);
        assert!(run.rendered.contains("hash_insert"), "{}", run.rendered);
        assert!(run.rendered.contains("output"), "{}", run.rendered);
        // --explain implies deep metrics and a profile in the report.
        assert!(run.report.profile.is_some());
        let json = run.report.to_json().to_string_compact();
        assert!(json.contains("\"profile\""), "{json}");
    }

    #[test]
    fn progress_flag_runs_the_sampler_without_touching_stdout() {
        let a = args(&["x.csv", "--group-by", "country", "--count", "--progress", "1"]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        assert!(run.rendered.contains("de"), "{}", run.rendered);
        // Progress alone requests no deep metrics.
        assert!(run.report.metrics.is_none());
        assert!(run.report.profile.is_none());
    }

    #[test]
    fn mem_budget_failure_is_one_line() {
        let a = args(&["x.csv", "--group-by", "country", "--mem-budget", "1k"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("memory budget exceeded"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "{err}");
        assert_eq!(err.class, ErrorClass::Budget);
        assert_eq!(err.class.exit_code(), 2);
    }

    #[test]
    fn zero_timeout_cancels() {
        let a = args(&["x.csv", "--group-by", "country", "--timeout-ms", "0"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
        assert_eq!(err.class, ErrorClass::Timeout);
        assert_eq!(err.class.exit_code(), 3);
    }

    #[test]
    fn generous_budget_and_timeout_run_normally() {
        let a = args(&[
            "x.csv",
            "--group-by",
            "country",
            "--sum",
            "amount",
            "--mem-budget",
            "1G",
            "--timeout-ms",
            "60000",
        ]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        assert!(out.contains("70"), "{out}");
    }

    #[test]
    fn tiny_budget_with_spill_dir_completes_out_of_core() {
        let dir = std::env::temp_dir().join(format!("hsa-cli-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut csv = String::from("k,v\n");
        for i in 0..50_000u64 {
            let k = i.wrapping_mul(2654435761) % 20_000;
            csv.push_str(&format!("{k},{i}\n"));
        }

        let base = args(&["x.csv", "--group-by", "k", "--sum", "v"]);
        let unbudgeted = run_on_csv_text(&csv, &base).unwrap();

        let spill = dir.to_str().unwrap().to_string();
        let a = args(&[
            "x.csv",
            "--group-by",
            "k",
            "--sum",
            "v",
            "--mem-budget",
            "2M",
            "--spill-dir",
            &spill,
            "--chunk-rows",
            "4096",
        ]);
        let run = run_on_csv_text(&csv, &a).unwrap();
        assert_eq!(run.rendered, unbudgeted.rendered, "spilled run must match in-memory result");
        assert!(run.report.stats.spilled_runs() > 0, "stats: {:?}", run.report.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_csv_is_one_line_error() {
        let a = args(&["x.csv", "--group-by", "k"]);
        let err = run_on_csv_text("a,b\n1\n", &a).unwrap_err();
        assert!(err.to_string().contains("fields"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "{err}");
        assert_eq!(err.class, ErrorClass::InvalidInput);
        let err = run_on_csv_text("", &a).unwrap_err();
        assert!(err.to_string().contains("empty input"), "{err}");
    }

    #[test]
    fn spill_limit_exhaustion_is_a_budget_error() {
        let dir = std::env::temp_dir().join(format!("hsa-cli-disklimit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut csv = String::from("k,v\n");
        for i in 0..50_000u64 {
            let k = i.wrapping_mul(2654435761) % 20_000;
            csv.push_str(&format!("{k},{i}\n"));
        }
        let spill = dir.to_str().unwrap().to_string();
        // A spill limit too small for even one run: the degradation
        // ladder's last rung fails with a typed disk-budget error.
        let a = args(&[
            "x.csv",
            "--group-by",
            "k",
            "--sum",
            "v",
            "--mem-budget",
            "2M",
            "--spill-dir",
            &spill,
            "--spill-limit",
            "4k",
            "--chunk-rows",
            "4096",
        ]);
        let err = run_on_csv_text(&csv, &a).unwrap_err();
        assert!(err.to_string().contains("spill disk budget exceeded"), "{err}");
        assert_eq!(err.class, ErrorClass::Budget);
        // No partial spill files may be left behind (the lock file is
        // retired when the store drops with the failed query).
        let leftover = std::fs::read_dir(&dir)
            .map(|d| {
                d.flatten()
                    .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".bin")))
                    .count()
            })
            .unwrap_or(0);
        assert_eq!(leftover, 0, "no spill files may survive a failed query");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generous_spill_limit_still_completes_out_of_core() {
        let dir = std::env::temp_dir().join(format!("hsa-cli-disklim-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut csv = String::from("k,v\n");
        for i in 0..50_000u64 {
            let k = i.wrapping_mul(2654435761) % 20_000;
            csv.push_str(&format!("{k},{i}\n"));
        }
        let base = args(&["x.csv", "--group-by", "k", "--sum", "v"]);
        let unbudgeted = run_on_csv_text(&csv, &base).unwrap();
        let spill = dir.to_str().unwrap().to_string();
        let a = args(&[
            "x.csv",
            "--group-by",
            "k",
            "--sum",
            "v",
            "--mem-budget",
            "2M",
            "--spill-dir",
            &spill,
            "--spill-limit",
            "256M",
            "--chunk-rows",
            "4096",
        ]);
        let run = run_on_csv_text(&csv, &a).unwrap();
        assert_eq!(run.rendered, unbudgeted.rendered, "bounded spill must match in-memory");
        assert!(run.report.stats.spilled_runs() > 0);
        assert!(run.report.stats.disk_high_water_bytes > 0, "{:?}", run.report.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_and_trace_are_valid_json() {
        use hashing_is_sorting::obs::json;
        let a = args(&[
            "x.csv",
            "--group-by",
            "country",
            "--count",
            "--stats-json",
            "r.json",
            "--trace",
            "t.json",
        ]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        // No report text on stdout unless --stats was given...
        assert!(!run.rendered.contains("rows in"));
        // ...but both artifacts are present and valid JSON.
        let report = json::parse(&run.report.to_json().to_string_pretty(2)).unwrap();
        assert_eq!(report.get("rows_in").unwrap().as_u64(), Some(4));
        assert_eq!(report.get("groups_out").unwrap().as_u64(), Some(2));
        assert!(report.get("metrics").is_some());
        let trace = json::parse(run.report.trace_json.as_ref().unwrap()).unwrap();
        assert!(!trace.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    }
}
