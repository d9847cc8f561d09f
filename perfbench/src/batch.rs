//! The batch workloads: one `hsa <file.csv> …` process per operation.
//!
//! The untraced run times the binary. The traced run alternates the
//! binary with an in-process replica of `run_on_csv_text` + `main` that
//! calls each layer's public function in the same order, inside spans,
//! and must render byte-for-byte what the binary printed.

use crate::gen::{self, KeyValues, Sales};
use crate::metrics::PER_LAYER;
use crate::oracle::{self, Expected};
use crate::spans::{self, Spans};
use crate::stats::{median, ratio, tail};
use crate::{child, Ctx, Outcome, Workload};
use hashing_is_sorting::obs::{Phase, PROFILE_LEVELS};
use hashing_is_sorting::{
    CancelToken, DiskBudget, ExecEnv, MemoryBudget, ObsConfig, Query, QueryResult, RunReport,
    SpillConfig,
};
use hsa_cli::{load_table, parse_args, parse_csv, CliArgs};
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Header-only starts made before the timed loop and again after each
/// timed invocation, so that `setup_s` is sampled across the whole run
/// and host drift moves it as it moves the timed operations.
pub const SETUP_STARTS_PER_OP: usize = 8;
/// Starts before each group of timed ones that are checked but not
/// timed: the first start after a pause or a 2M-row invocation reads
/// ≈1.5× the later ones.
pub const SETUP_WARMUP: usize = 2;
/// `--mem-budget` of the spill workload, which ingests the whole table at
/// once: with `--chunk-rows` on 2 threads, `hsa` fails on some inputs at
/// every budget tried (METRICS.md gives the rates).
pub const SPILL_BUDGET: u64 = 16 << 20;
/// `--spill-limit` of the spill workload: generous, so that the disk
/// high-water mark is tracked (it reads 0 when no limit is set).
pub const SPILL_LIMIT: u64 = 1 << 30;

const MIB: f64 = (1u64 << 20) as f64;

/// A generated input file, its header-only twin, the query and the
/// oracle's answer.
struct CliInput {
    rows: usize,
    csv: PathBuf,
    header: PathBuf,
    /// Query flags after the file name.
    query: Vec<String>,
    /// The flags that turn the high-cardinality query into the spill one.
    spill_flags: Vec<String>,
    expected: Expected,
    spill_dir: Option<PathBuf>,
}

impl CliInput {
    fn argv(&self, file: &Path) -> Vec<String> {
        let mut argv = vec![file.display().to_string()];
        argv.extend(self.query.iter().cloned());
        argv.extend(self.spill_flags.iter().cloned());
        argv
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn prepare(ctx: &Ctx, w: Workload) -> io::Result<CliInput> {
    let csv = ctx.work.join("input.csv");
    let header = ctx.work.join("header.csv");
    let mut spill_flags = Vec::new();
    let mut spill_dir = None;
    let (text, header_text, query, expected) = match w {
        Workload::CliLowcard => {
            let sales = Sales::generate(gen::sub_seed(ctx.seed, 2), gen::CLI_ROWS);
            let query = strings(&[
                "--group-by",
                "country,city",
                "--count",
                "--sum",
                "amount",
                "--max",
                "qty",
                "--threads",
                "2",
            ]);
            (sales.csv(), Sales::HEADER, query, oracle::sales(&sales))
        }
        _ => {
            let data =
                KeyValues::generate(gen::sub_seed(ctx.seed, 1), gen::CLI_ROWS, gen::HIGHCARD_KEYS);
            let query = strings(&["--group-by", "k", "--count", "--sum", "v", "--threads", "2"]);
            if w == Workload::CliSpill {
                let dir = ctx.work.join("spill");
                std::fs::create_dir_all(&dir)?;
                spill_flags = vec![
                    "--mem-budget".into(),
                    SPILL_BUDGET.to_string(),
                    "--spill-dir".into(),
                    dir.display().to_string(),
                    "--spill-limit".into(),
                    SPILL_LIMIT.to_string(),
                ];
                spill_dir = Some(dir);
            }
            (data.csv(), KeyValues::HEADER, query, oracle::highcard(&data))
        }
    };
    std::fs::write(&csv, text)?;
    std::fs::write(&header, header_text)?;
    Ok(CliInput { rows: gen::CLI_ROWS, csv, header, query, spill_flags, expected, spill_dir })
}

fn invoke(ctx: &Ctx, argv: &[String]) -> io::Result<child::ChildRun> {
    let stderr = File::create(ctx.work.join("hsa.stderr"))?;
    child::run(Command::new(&ctx.hsa).args(argv), Stdio::from(stderr))
}

/// Ok when the invocation exited 0; otherwise its exit and first stderr
/// line.
fn exited_ok(ctx: &Ctx, r: &child::ChildRun) -> Result<(), String> {
    if r.exit_code == Some(0) {
        return Ok(());
    }
    let err = std::fs::read_to_string(ctx.work.join("hsa.stderr")).unwrap_or_default();
    Err(format!("hsa exited with {:?}: {}", r.exit_code, err.lines().next().unwrap_or("")))
}

/// Checks outputs: the first against the oracle, later ones by bytes
/// against the first verified one (and, for the spill workload, against
/// the in-memory run's bytes).
struct Verifier<'a> {
    expected: &'a Expected,
    verified: Option<Vec<u8>>,
    reference: Option<Vec<u8>>,
}

impl<'a> Verifier<'a> {
    fn new(expected: &'a Expected) -> Self {
        Self { expected, verified: None, reference: None }
    }

    fn verify(&mut self, stdout: &[u8]) -> Result<(), String> {
        if self.reference.as_deref().is_some_and(|r| r != stdout) {
            return Err("output is not byte-identical to the in-memory run".into());
        }
        if self.verified.as_deref() == Some(stdout) {
            return Ok(());
        }
        let text = std::str::from_utf8(stdout).map_err(|_| "output is not UTF-8".to_string())?;
        oracle::check_table(text, self.expected)?;
        self.verified.get_or_insert_with(|| stdout.to_vec());
        Ok(())
    }
}

/// Spill files left in `dir` after every query ended.
fn leftover_spill_files(dir: &Path) -> io::Result<Vec<String>> {
    let mut left = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.ends_with(".bin") {
            left.push(name);
        }
    }
    Ok(left)
}

/// The untraced run: the query back to back for `ctx.seconds`, with
/// header-only starts for `setup_s` before and between invocations.
pub fn run(ctx: &Ctx, w: Workload) -> io::Result<Outcome> {
    let input = prepare(ctx, w)?;
    let mut out = Outcome::default();

    let empty = input.expected.empty_like();
    let mut setup = Vec::new();
    let mut setup_starts = |out: &mut Outcome| -> io::Result<()> {
        for i in 0..SETUP_WARMUP + SETUP_STARTS_PER_OP {
            let r = invoke(ctx, &input.argv(&input.header))?;
            if i >= SETUP_WARMUP {
                setup.push(r.wall.as_secs_f64());
            }
            let res = exited_ok(ctx, &r).and_then(|()| Verifier::new(&empty).verify(&r.stdout));
            out.check("header-only run", res);
        }
        Ok(())
    };
    setup_starts(&mut out)?;

    let mut verifier = Verifier::new(&input.expected);
    if w == Workload::CliSpill {
        // The same file and query in memory: the spilled output must
        // match it byte for byte.
        let mut argv = vec![input.csv.display().to_string()];
        argv.extend(input.query.iter().cloned());
        let r = invoke(ctx, &argv)?;
        let res = exited_ok(ctx, &r).and_then(|()| verifier.verify(&r.stdout));
        if res.is_ok() {
            verifier.reference = Some(r.stdout);
        }
        out.check("in-memory reference run", res);
    }

    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    loop {
        let r = invoke(ctx, &input.argv(&input.csv))?;
        let res = exited_ok(ctx, &r).and_then(|()| verifier.verify(&r.stdout));
        if res.is_ok() {
            walls.push(r.wall.as_secs_f64());
            rss.push(r.max_rss_kib as f64 / 1024.0);
        }
        out.check("query run", res);
        setup_starts(&mut out)?;
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    if let Some(dir) = &input.spill_dir {
        let left = leftover_spill_files(dir)?;
        let res = if left.is_empty() { Ok(()) } else { Err(format!("left behind {left:?}")) };
        out.check("spill directory cleanup", res);
    }
    if walls.is_empty() {
        return Ok(out);
    }

    let p50 = median(&walls);
    let t = tail(&walls);
    out.values.set("rows_per_s", input.rows as f64 / p50);
    out.values.set("latency_p50_s", p50);
    out.values.set("latency_tail_s", t.value);
    out.values.set("peak_rss_mib", median(&rss));
    out.values.set("setup_s", median(&setup));
    out.notes.push(format!(
        "{} rows ({:.1} MB); {} timed invocations; tail = p{} with {} of {} beyond; \
         setup = median of {} timed header-only starts, {} after {} untimed ones after each \
         invocation",
        input.rows,
        std::fs::metadata(&input.csv)?.len() as f64 / 1e6,
        walls.len(),
        t.percentile,
        t.beyond,
        t.samples,
        setup.len(),
        SETUP_STARTS_PER_OP,
        SETUP_WARMUP
    ));
    Ok(out)
}

/// One in-process pass of the CLI pipeline.
struct Replica {
    rendered: String,
    report: RunReport,
    /// Index of the operation's root span.
    root: usize,
}

/// `run_on_csv_text` and `main` of `hsa`, step by step, each layer call
/// in its own span. Deep metrics are on so the operator reports its
/// phase profile and scheduler counters.
fn replica(args: &CliArgs, spans: &mut Spans, op: u64) -> Result<Replica, String> {
    let root = spans.open("hsa", None, op);

    let s = spans.open("read", Some(root), op);
    let text = std::fs::read_to_string(&args.file).map_err(|e| e.to_string())?;
    spans.close(s);

    let s = spans.open("csv.parse", Some(root), op);
    let rows = parse_csv(&text).map_err(|e| e.to_string())?;
    spans.close(s);

    let s = spans.open("load", Some(root), op);
    let loaded = load_table(&rows).map_err(|e| e.to_string())?;
    spans.close(s);

    let query_span = spans.open("query", Some(root), op);
    for name in args.all_column_refs() {
        if loaded.table.column(name).is_none() {
            return Err(format!("no column named {name:?} in the input"));
        }
    }
    for name in &args.numeric_column_refs() {
        if loaded.dictionary_of(name).is_some() {
            return Err(format!("column {name:?} is not numeric and cannot be aggregated"));
        }
    }
    let obs = ObsConfig { metrics: true, ..ObsConfig::disabled() };
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
            other => return Err(format!("unknown aggregate {other:?}")),
        };
    }
    let core_start = Instant::now();
    let result = match args.chunk_rows {
        Some(n) => q.try_run_streaming(n),
        None => q.try_run(),
    }
    .map_err(|e| e.to_string())?;
    // The operator times itself; its span is placed from the call.
    let core_len = Duration::from_nanos(result.report.wall_nanos);
    spans.record_len("core", core_start, core_len, Some(query_span), op);
    spans.close(query_span);

    let s = spans.open("emit", Some(root), op);
    let group_names = args.group_by.clone();
    let rendered =
        result.format_table(|col_ix, v| match loaded.dictionary_of(&group_names[col_ix]) {
            Some(dict) => dict.decode_str(v).unwrap_or("<?>").to_string(),
            None => v.to_string(),
        });
    spans.close(s);

    let s = spans.open("teardown", Some(root), op);
    let QueryResult { group_cols, agg_cols, report } = result;
    drop((group_cols, agg_cols, loaded, rows, text));
    spans.close(s);

    spans.close(root);
    Ok(Replica { rendered, report, root })
}

/// Exclusive nanoseconds of `phase`, summed over levels and workers.
pub fn phase_ns(report: &RunReport, phase: Phase) -> f64 {
    report
        .profile
        .as_ref()
        .map_or(0.0, |p| (0..PROFILE_LEVELS).map(|l| p.cell(l, phase).nanos).sum::<u64>() as f64)
}

/// Per-layer values of the operator's own report, per input row.
pub fn core_values(report: &RunReport, rows: f64, groups: f64) -> BTreeMap<&'static str, f64> {
    let st = &report.stats;
    let pool = report.pool.as_ref().map(|p| p.totals()).unwrap_or_default();
    let busy = report.wall_nanos as f64 * report.threads.max(1) as f64;
    BTreeMap::from([
        ("core.wall_ns_per_row", report.wall_nanos as f64 / rows),
        ("core.hash_insert_ns_per_row", phase_ns(report, Phase::HashInsert) / rows),
        ("core.partition_ns_per_row", phase_ns(report, Phase::Partition) / rows),
        ("core.seal_ns_per_row", phase_ns(report, Phase::Seal) / rows),
        ("core.grow_merge_ns_per_row", phase_ns(report, Phase::GrowMerge) / rows),
        ("core.driver_ns_per_row", phase_ns(report, Phase::Driver) / rows),
        ("core.output_ns_per_group", ratio(phase_ns(report, Phase::Output), groups)),
        ("core.part_rows_per_row", st.total_part_rows() as f64 / rows),
        ("core.passes", st.passes_used() as f64),
        ("core.fallback_merges", st.fallback_merges as f64),
        ("tasks.steals", pool.steals as f64),
        ("tasks.idle_frac", ratio(pool.idle_nanos as f64, busy)),
        ("spill.runs", st.spilled_runs() as f64),
        ("spill.bytes_per_row", st.spilled_bytes as f64 / rows),
        ("spill.encoded_ratio", ratio(st.spill_encoded_bytes as f64, st.spilled_bytes as f64)),
        ("spill.io_wait_ns_per_row", st.spill_io_wait_nanos as f64 / rows),
        ("spill.restore_ns_per_row", phase_ns(report, Phase::Restore) / rows),
        ("spill.disk_peak_mib", st.disk_high_water_bytes as f64 / MIB),
        ("fault.budget_peak_mib", st.budget_high_water_bytes as f64 / MIB),
        ("fault.budget_denials", st.budget_denials as f64),
    ])
}

/// Median over operations of each per-operation value.
pub fn medians(per_op: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in per_op {
        for (&name, &v) in op {
            by_name.entry(name).or_default().push(v);
        }
    }
    by_name.into_iter().map(|(name, vs)| (name, median(&vs))).collect()
}

/// Write the spans as Chrome-trace JSON into the output directory.
pub fn write_trace(ctx: &Ctx, w: Workload, spans: &Spans) -> io::Result<PathBuf> {
    std::fs::create_dir_all(&ctx.out)?;
    let path = ctx.out.join(format!("trace-{}-seed{}.json", w.name(), ctx.seed));
    std::fs::write(&path, spans::chrome_trace(spans.spans()))?;
    Ok(path)
}

/// Set every per-layer metric `values` lacks to 0 (its layer did no work
/// on this workload) and say which.
pub fn zero_fill(out: &mut Outcome, values: &BTreeMap<&'static str, f64>) {
    let mut idle = Vec::new();
    for d in PER_LAYER {
        match values.get(d.name) {
            Some(&v) => out.values.set(d.name, v),
            None => {
                out.values.set(d.name, 0.0);
                idle.push(d.name);
            }
        }
    }
    if !idle.is_empty() {
        out.notes.push(format!("no work on this workload (reported as 0): {}", idle.join(", ")));
    }
}

/// The traced run: alternate the binary (untraced wall, output) with the
/// in-process replica (spans, operator report) for `ctx.seconds`.
pub fn run_traced(ctx: &Ctx, w: Workload) -> io::Result<Outcome> {
    let input = prepare(ctx, w)?;
    let args = parse_args(input.argv(&input.csv)).map_err(|e| io::Error::other(e.0))?;
    let mut out = Outcome::default();
    let mut verifier = Verifier::new(&input.expected);
    let mut spans = Spans::new(Instant::now(), 0);
    let rows = input.rows as f64;
    let groups = input.expected.groups.len() as f64;

    let mut ops = Vec::new();
    let mut per_op = Vec::new();
    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut replicas = Vec::new();
    let start = Instant::now();
    for op in 1.. {
        let r = invoke(ctx, &input.argv(&input.csv))?;
        let binary = exited_ok(ctx, &r).and_then(|()| verifier.verify(&r.stdout));
        out.check("query run", binary.clone());
        let rep = replica(&args, &mut spans, op);
        let same = match &rep {
            Ok(rep) if rep.rendered.as_bytes() == r.stdout.as_slice() => Ok(()),
            Ok(_) => Err("the in-process replica rendered other bytes than the binary".into()),
            Err(e) => Err(e.clone()),
        };
        out.check("in-process replica", same.clone());
        if let (Ok(()), Ok(()), Ok(rep)) = (binary, same, rep) {
            ops.push(op);
            untraced_ns.push(r.wall.as_nanos() as f64);
            let mut v = core_values(&rep.report, rows, groups);
            v.insert("emit.bytes_per_group", ratio(rep.rendered.len() as f64, groups));
            traced_ns.push(spans.spans()[rep.root].dur_ns() as f64);
            replicas.push(v);
        }
        if start.elapsed() >= ctx.seconds {
            break;
        }
    }
    if ops.is_empty() {
        return Ok(out);
    }

    let selfs = spans::self_by_name(spans.spans(), &ops);
    let self_ns = |name: &str, i: usize| selfs.get(name).map_or(0.0, |v| v[i] as f64);
    for (i, mut v) in replicas.into_iter().enumerate() {
        let layers = ["csv.parse", "load", "query", "core", "emit"];
        let attributed: f64 = layers.iter().map(|l| self_ns(l, i)).sum();
        v.insert("csv.parse_ns_per_row", self_ns("csv.parse", i) / rows);
        v.insert("load.ns_per_row", self_ns("load", i) / rows);
        v.insert("query.self_ns_per_row", self_ns("query", i) / rows);
        v.insert("emit.ns_per_group", ratio(self_ns("emit", i), groups));
        v.insert("process.teardown_ns_per_row", self_ns("teardown", i) / rows);
        v.insert("process.unattributed_frac", 1.0 - attributed / untraced_ns[i]);
        v.insert("process.trace_overhead_ms", (traced_ns[i] - untraced_ns[i]) / 1e6);
        per_op.push(v);
    }
    let values = medians(&per_op);

    if input.spill_dir.is_some() {
        // Runs spilled, so the disk high-water mark must show them.
        let res = match (values.get("spill.runs"), values.get("spill.disk_peak_mib")) {
            (Some(&runs), Some(&peak)) if runs > 0.0 && peak <= 0.0 => {
                Err(format!("{runs} runs spilled but the disk peak reads {peak}"))
            }
            _ => Ok(()),
        };
        out.check("disk high-water mark", res);
    }

    let wall = median(&untraced_ns);
    let share = |name, per| values.get(name).map_or(0.0, |v| 100.0 * v * per / wall);
    out.notes.push(format!(
        "share of the untraced wall: csv.parse {:.1}%, load {:.1}%, query {:.1}%, core {:.1}%, \
         emit {:.1}%, teardown {:.1}%",
        share("csv.parse_ns_per_row", rows),
        share("load.ns_per_row", rows),
        share("query.self_ns_per_row", rows),
        share("core.wall_ns_per_row", rows),
        share("emit.ns_per_group", groups),
        share("process.teardown_ns_per_row", rows),
    ));
    zero_fill(&mut out, &values);
    let trace = write_trace(ctx, w, &spans)?;
    out.notes.push(format!(
        "{} traced operations; median wall untraced {:.3} s, traced {:.3} s; trace written to {}",
        ops.len(),
        wall / 1e9,
        median(&traced_ns) / 1e9,
        trace.display()
    ));
    Ok(out)
}
