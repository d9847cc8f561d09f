//! The serving workload: one `hsa serve` process, two closed-loop client
//! connections from this process. Connection `small` sends 2^18-row,
//! 2^10-key queries back to back; connection `large` sends 2^20-row,
//! 2^18-key ones. Both push rows in 2^14-row `rows` requests serialized
//! before timing starts.

use crate::batch::{core_values, medians, write_trace, zero_fill, SETUP_WARMUP};
use crate::gen::{self, KeyValues};
use crate::oracle;
use crate::spans::Spans;
use crate::stats::{median, ratio, tail};
use crate::{child, Ctx, Outcome, Workload};
use hashing_is_sorting::obs::json::{parse as parse_json, JsonValue};
use hashing_is_sorting::{AggSpec, AggStream, AggregateConfig, ExecEnv, ObsConfig, RunReport};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Before the timed server and before each probe server, server starts
/// come in this many bursts, [`SETUP_BURST_GAP`] apart; the last start
/// serves the load. `setup_s` is the median of every timed start: the
/// host's speed shifts from one second to the next, so the starts are
/// spread over as many moments of the run as its phases allow.
pub const SETUP_BURSTS_PER_SERVER: usize = 3;
/// Timed starts per burst, after [`SETUP_WARMUP`] untimed ones.
pub const SETUP_STARTS_PER_BURST: usize = 4;
/// Pause between two bursts.
pub const SETUP_BURST_GAP: Duration = Duration::from_millis(250);
/// A server's early peak is its resident set until the large connection
/// has completed this many queries. Under this mix the resident set then
/// keeps growing erratically with allocator state (≈80–100 MiB early,
/// 120–190 MiB after 20–60 s in identical runs), which
/// `serve.rss_growth_mib` reports apart.
pub const PEAK_LARGE_QUERIES: usize = 2;
/// Fresh servers loaded for [`PROBE_LOAD`] after the timed load; their
/// early peaks and the timed server's give the median `peak_rss_mib`.
/// One early peak in five runs reads ≈20% high (concurrent finishes).
pub const RSS_PROBES: usize = 3;
/// Load per probe server: enough for [`PEAK_LARGE_QUERIES`] large queries.
pub const PROBE_LOAD: Duration = Duration::from_secs(3);
/// Rows per `rows` request.
pub const PUSH_ROWS: usize = 1 << 14;
/// The `submit` request of every query: COUNT and SUM of column 0.
const SUBMIT: &str = "{\"op\":\"submit\",\"aggs\":[[\"count\"],[\"sum\",0]],\"threads\":2}\n";
const FINISH: &str = "{\"op\":\"finish\"}\n";
/// Operation ids of the small connection, the large one and the
/// in-process replays start here, so they never collide in a trace.
const SMALL_OPS: u64 = 1_000_000;
const LARGE_OPS: u64 = 2_000_000;
const REPLAY_OPS: u64 = 3_000_000;

/// One connection's query: its data, serialized requests and answer.
pub struct QuerySet {
    /// Connection name.
    pub name: &'static str,
    /// The rows, for the in-process replay.
    pub data: KeyValues,
    /// `rows` requests, one line each.
    pub requests: Vec<String>,
    /// The oracle's `(key, count, sum)` answer.
    pub expected: Vec<(u64, u64, u64)>,
}

impl QuerySet {
    /// Generate connection `name`'s query: `rows` rows over `keys` keys.
    pub fn generate(name: &'static str, seed: u64, rows: usize, keys: u64) -> Self {
        let data = KeyValues::generate(seed, rows, keys);
        let requests = data.rows_requests(PUSH_ROWS);
        let expected = oracle::count_sum(&data);
        Self { name, data, requests, expected }
    }
}

/// The small and the large query of a seed.
pub fn query_sets(seed: u64) -> [QuerySet; 2] {
    [
        QuerySet::generate("small", gen::sub_seed(seed, 3), 1 << 18, 1 << 10),
        QuerySet::generate("large", gen::sub_seed(seed, 4), 1 << 20, 1 << 18),
    ]
}

/// A running server; killed and reaped on drop.
struct Server {
    child: Child,
    /// Held open: the server's stderr writes must not hit a closed pipe.
    _stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `hsa serve` and wait for its `listening on <addr>` line;
    /// returns the server and the time that took.
    fn start(ctx: &Ctx) -> io::Result<(Self, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(&ctx.hsa)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("hsa serve exited before listening"));
            }
            if let Some(at) = line.find("listening on ") {
                let addr = line[at + "listening on ".len()..].trim();
                break addr.parse().map_err(io::Error::other)?;
            }
        };
        let ready = t0.elapsed();
        Ok((Self { child, _stderr: stderr, addr }, ready))
    }

    /// Start servers in turn, in [`SETUP_BURSTS_PER_SERVER`] bursts,
    /// adding the time to listening of all but each burst's warm-up
    /// starts to `setup`, and keep the last.
    fn start_timed(ctx: &Ctx, setup: &mut Vec<f64>) -> io::Result<Self> {
        let mut server = None;
        for burst in 0..SETUP_BURSTS_PER_SERVER {
            if burst > 0 {
                drop(server.take());
                std::thread::sleep(SETUP_BURST_GAP);
            }
            for i in 0..SETUP_WARMUP + SETUP_STARTS_PER_BURST {
                drop(server.take());
                let (s, ready) = Self::start(ctx)?;
                if i >= SETUP_WARMUP {
                    setup.push(ready.as_secs_f64());
                }
                server = Some(s);
            }
        }
        Ok(server.expect("at least one start"))
    }

    /// The server's whole-life peak resident set so far, in MiB.
    fn peak_mib(&self) -> io::Result<f64> {
        Ok(child::vm_hwm_kib(self.child.id())? as f64 / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    /// Submit → `done`, seconds, per completed query.
    latencies: Vec<f64>,
    rows_done: u64,
    attempted: u64,
    errors: Vec<String>,
    /// Submit → `admitted`, ms.
    admit_ms: Vec<f64>,
    /// `rows` request → ack, µs.
    rows_rtt_us: Vec<f64>,
    /// `finish` → `done`, ms.
    finish_ms: Vec<f64>,
    /// Σ of the operator walls the server reported.
    operator_ns: f64,
    /// Σ of client-side submit → `done`.
    query_ns: f64,
    /// What the server reported about each completed query.
    served: Vec<Served>,
    /// Time from the first submit until the loop ended.
    loop_ns: f64,
    /// The server's `VmHWM` after [`PEAK_LARGE_QUERIES`] queries, if read.
    early_peak_kib: Option<u64>,
}

fn read_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"));
    }
    Ok(())
}

/// A response's error text, if it is an error.
fn error_of(v: &JsonValue) -> Option<String> {
    v.get("error").map(|e| {
        let class = v.get("class").and_then(JsonValue::as_str).unwrap_or("?");
        format!("{class}: {}", e.as_str().unwrap_or("?"))
    })
}

/// Run `set`'s query back to back on one connection until `deadline`,
/// numbering operations from `first_op`. Spans are recorded when `spans`
/// is given; the server's `VmHWM` is read after [`PEAK_LARGE_QUERIES`]
/// completed queries when `peak_pid` is. I/O errors end the run;
/// refused or wrong queries are counted and the loop goes on.
fn drive(
    addr: SocketAddr,
    set: &QuerySet,
    deadline: Instant,
    first_op: u64,
    mut spans: Option<&mut Spans>,
    peak_pid: Option<u32>,
) -> io::Result<ConnResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut res = ConnResult::default();
    let mut line = String::new();
    let loop_start = Instant::now();
    let rows = set.data.keys.len() as u64;
    let mut op = first_op;
    while Instant::now() < deadline {
        op += 1;
        res.attempted += 1;
        let q0 = Instant::now();
        let root = spans.as_mut().map(|s| s.open("query", None, op));
        let open =
            |spans: &mut Option<&mut Spans>, name| spans.as_mut().map(|s| s.open(name, root, op));

        // Submit; a `queued` notice may precede the verdict.
        let s = open(&mut spans, "serve.admit");
        writer.write_all(SUBMIT.as_bytes())?;
        let verdict = loop {
            read_line(&mut reader, &mut line)?;
            let v = parse_json(&line).map_err(io::Error::other)?;
            if v.get("ok").and_then(JsonValue::as_str) != Some("queued") {
                break v;
            }
        };
        close(&mut spans, s);
        if let Some(e) = error_of(&verdict) {
            res.errors.push(format!("{} query {op} not admitted: {e}", set.name));
            close(&mut spans, root);
            continue;
        }
        res.admit_ms.push(q0.elapsed().as_secs_f64() * 1e3);

        let mut refused = None;
        for request in &set.requests {
            let t = Instant::now();
            let s = open(&mut spans, "serve.rows");
            writer.write_all(request.as_bytes())?;
            read_line(&mut reader, &mut line)?;
            close(&mut spans, s);
            res.rows_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            let v = parse_json(&line).map_err(io::Error::other)?;
            if let Some(e) = error_of(&v) {
                refused = Some(e);
                break;
            }
        }
        if let Some(e) = refused {
            res.errors.push(format!("{} query {op}: rows refused: {e}", set.name));
            close(&mut spans, root);
            continue;
        }

        let t = Instant::now();
        let s = open(&mut spans, "serve.finish");
        writer.write_all(FINISH.as_bytes())?;
        let mut blocks = Vec::new();
        let done = loop {
            read_line(&mut reader, &mut line)?;
            if line.starts_with("{\"block\"") {
                blocks.push(std::mem::take(&mut line));
                continue;
            }
            break parse_json(&line).map_err(io::Error::other)?;
        };
        close(&mut spans, s);
        close(&mut spans, root);
        let latency = q0.elapsed();
        res.finish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(e) = error_of(&done) {
            res.errors.push(format!("{} query {op}: finish failed: {e}", set.name));
            continue;
        }

        // Check outside the timed span: every block against the oracle.
        let checked = blocks
            .iter()
            .map(|b| oracle::parse_block(b))
            .collect::<Result<Vec<_>, _>>()
            .map(|bs| bs.concat())
            .and_then(|rows| oracle::check_count_sum(&rows, &set.expected));
        if let Err(e) = checked {
            res.errors.push(format!("{} query {op}: wrong answer: {e}", set.name));
            continue;
        }
        let report = done.get("done").and_then(|d| d.get("report"));
        let Some(served) = report.and_then(Served::from_report) else {
            res.errors.push(format!("{} query {op}: done without a complete report", set.name));
            continue;
        };
        res.latencies.push(latency.as_secs_f64());
        res.rows_done += rows;
        res.operator_ns += served.wall_ns;
        res.query_ns += latency.as_nanos() as f64;
        res.served.push(served);
        if let (Some(pid), PEAK_LARGE_QUERIES) = (peak_pid, res.latencies.len()) {
            res.early_peak_kib = Some(child::vm_hwm_kib(pid)?);
        }
    }
    res.loop_ns = loop_start.elapsed().as_nanos() as f64;
    Ok(res)
}

fn close(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_mut(), id) {
        s.close(id);
    }
}

/// What a served query's v2 report JSON says about the operator.
#[derive(Clone, Copy, Debug, Default)]
struct Served {
    rows: f64,
    wall_ns: f64,
    part_rows: f64,
    passes: f64,
    fallback_merges: f64,
    spilled_runs: f64,
    budget_denials: f64,
}

impl Served {
    fn from_report(report: &JsonValue) -> Option<Self> {
        let stats = report.get("stats")?;
        let stat = |k: &str| stats.get(k).and_then(JsonValue::as_f64);
        let part_rows = stats
            .get("part_rows_per_level")?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .sum::<Option<f64>>()?;
        Some(Self {
            rows: report.get("rows_in")?.as_f64()?,
            wall_ns: report.get("wall_nanos")?.as_f64()?,
            part_rows,
            passes: stat("passes_used")?,
            fallback_merges: stat("fallback_merges")?,
            spilled_runs: stat("spilled_runs")?,
            budget_denials: stat("budget_denials")?,
        })
    }
}

/// Core values over every served query: per-row figures are totals
/// over total rows, counts are per query.
fn served_values(served: &[Served]) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&Served) -> f64| served.iter().map(f).sum::<f64>();
    let n = served.len().max(1) as f64;
    let rows = sum(|s| s.rows);
    BTreeMap::from([
        ("core.wall_ns_per_row", ratio(sum(|s| s.wall_ns), rows)),
        ("core.part_rows_per_row", ratio(sum(|s| s.part_rows), rows)),
        ("core.passes", served.iter().map(|s| s.passes).fold(0.0, f64::max)),
        ("core.fallback_merges", sum(|s| s.fallback_merges) / n),
        ("spill.runs", sum(|s| s.spilled_runs) / n),
        ("fault.budget_denials", sum(|s| s.budget_denials) / n),
    ])
}

/// Both connections against one server for `seconds`: `small` on this
/// thread, `large` on one more.
fn load(
    server: &Server,
    sets: &[QuerySet; 2],
    seconds: Duration,
    spans: Option<(&mut Spans, &mut Spans)>,
) -> io::Result<(ConnResult, ConnResult, Duration)> {
    let start = Instant::now();
    let deadline = start + seconds;
    let (small_spans, large_spans) = match spans {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    let (small, large) = std::thread::scope(|scope| {
        let pid = server.child.id();
        let large = scope.spawn(move || {
            drive(server.addr, &sets[1], deadline, LARGE_OPS, large_spans, Some(pid))
        });
        let small = drive(server.addr, &sets[0], deadline, SMALL_OPS, small_spans, None);
        (small, large.join().expect("the large connection's thread panicked"))
    });
    Ok((small?, large?, start.elapsed()))
}

/// Timings of one in-process replay of chunked `AggStream` ingestion.
#[derive(Debug)]
pub struct StreamReplay {
    /// Time in `push` calls.
    pub push_ns: u64,
    /// Rows pushed.
    pub rows: u64,
    /// Time in `finish`.
    pub finish_ns: u64,
    /// The operator's report (deep metrics on).
    pub report: RunReport,
}

/// Push `data` through an [`AggStream`] (COUNT, SUM) in `chunk`-row
/// pushes under `env`, timing each push and the finish, and check the
/// result against the oracle.
pub fn replay_stream(
    data: &KeyValues,
    chunk: usize,
    env: &ExecEnv,
    spans: &mut Spans,
    op: u64,
) -> Result<StreamReplay, String> {
    let cfg = AggregateConfig { threads: 2, ..AggregateConfig::default() };
    let obs = ObsConfig { metrics: true, ..ObsConfig::disabled() };
    let root = spans.open("stream", None, op);
    let mut stream = AggStream::new(&[AggSpec::count(), AggSpec::sum(0)], &cfg, env, &obs)
        .map_err(|e| e.to_string())?;
    let mut push_ns = 0;
    for (keys, vals) in data.keys.chunks(chunk).zip(data.vals.chunks(chunk)) {
        let s = spans.open("stream.push", Some(root), op);
        stream.push(keys, &[vals]).map_err(|e| e.to_string())?;
        spans.close(s);
        push_ns += spans.spans()[s].dur_ns();
    }
    let s = spans.open("stream.finish", Some(root), op);
    let (out, report) = stream.finish().map_err(|e| e.to_string())?;
    spans.close(s);
    spans.close(root);
    let finish_ns = spans.spans()[s].dur_ns();

    let counts = out.column_u64(0).ok_or("COUNT came back inexact")?;
    let sums = out.column_u64(1).ok_or("SUM came back inexact")?;
    let rows: Vec<(u64, Vec<u64>)> =
        out.keys.iter().zip(counts).zip(sums).map(|((&k, c), s)| (k, vec![c, s])).collect();
    oracle::check_count_sum(&rows, &oracle::count_sum(data))?;
    Ok(StreamReplay { push_ns, rows: data.keys.len() as u64, finish_ns, report })
}

fn count(out: &mut Outcome, conns: &[&ConnResult]) {
    for c in conns {
        out.attempted += c.attempted;
        out.failed += c.errors.len() as u64;
        out.errors.extend(c.errors.iter().cloned());
    }
}

/// The untraced run: both connections for `ctx.seconds` on one server,
/// then [`RSS_PROBES`] shorter loads on fresh ones; `setup_s` comes from
/// the starts before each server.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let sets = query_sets(ctx.seed);
    let mut setup = Vec::new();
    // The whole-life peak of every server, read before it is stopped.
    let mut whole = Vec::new();
    let server = Server::start_timed(ctx, &mut setup)?;
    let (small, large, elapsed) = load(&server, &sets, ctx.seconds, None)?;
    whole.push(server.peak_mib()?);
    drop(server);
    let mut probes = Vec::new();
    for _ in 0..RSS_PROBES {
        let server = Server::start_timed(ctx, &mut setup)?;
        probes.push(load(&server, &sets, PROBE_LOAD, None)?);
        whole.push(server.peak_mib()?);
    }

    let mut out = Outcome::default();
    count(&mut out, &[&small, &large]);
    for (s, l, _) in &probes {
        count(&mut out, &[s, l]);
    }
    let peaks: Option<Vec<f64>> = std::iter::once(&large)
        .chain(probes.iter().map(|(_, l, _)| l))
        .map(|l| l.early_peak_kib.map(|kib| kib as f64 / 1024.0))
        .collect();
    let Some(peaks) = peaks else {
        out.errors
            .push(format!("a server completed fewer than {PEAK_LARGE_QUERIES} large queries"));
        return Ok(out);
    };
    if small.latencies.is_empty() {
        return Ok(out);
    }
    let t = tail(&small.latencies);
    out.values
        .set("rows_per_s", (small.rows_done + large.rows_done) as f64 / elapsed.as_secs_f64());
    out.values.set("latency_p50_s", median(&small.latencies));
    out.values.set("latency_tail_s", t.value);
    out.values.set("peak_rss_mib", median(&peaks));
    out.values.set("setup_s", median(&setup));
    let mib = |v: &[f64]| v.iter().map(|m| format!("{m:.1}")).collect::<Vec<_>>().join(", ");
    out.notes.push(format!(
        "{} small + {} large queries completed in {:.2} s; small tail = p{} with {} of {} beyond; \
         setup = median of {} timed server starts, {} bursts of {} after {} untimed ones \
         before each server; \
         peak RSS = median of {} \
         servers' peaks over their first {} large queries",
        small.latencies.len(),
        large.latencies.len(),
        elapsed.as_secs_f64(),
        t.percentile,
        t.beyond,
        t.samples,
        setup.len(),
        SETUP_BURSTS_PER_SERVER,
        SETUP_STARTS_PER_BURST,
        SETUP_WARMUP,
        peaks.len(),
        PEAK_LARGE_QUERIES
    ));
    out.notes.push(format!(
        "servers' peak RSS, MiB (timed, then probes): early {}; whole life {} (not gated)",
        mib(&peaks),
        mib(&whole)
    ));
    Ok(out)
}

/// The traced run: half the time untraced, half with client-side spans
/// around every request, then an in-process replay of both queries'
/// chunked ingestion for the operator's phase profile.
pub fn run_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let sets = query_sets(ctx.seed);
    let (server, _) = Server::start(ctx)?;
    let half = ctx.seconds / 2;
    let (plain_small, plain_large, _) = load(&server, &sets, half, None)?;
    let origin = Instant::now();
    let mut small_spans = Spans::new(origin, 1);
    let mut large_spans = Spans::new(origin, 2);
    let (small, large, _) = load(&server, &sets, half, Some((&mut small_spans, &mut large_spans)))?;
    let final_peak_kib = child::vm_hwm_kib(server.child.id())?;
    drop(server);

    let mut out = Outcome::default();
    count(&mut out, &[&plain_small, &plain_large, &small, &large]);
    if small.latencies.is_empty() || plain_small.latencies.is_empty() {
        return Ok(out);
    }

    let mut spans = small_spans;
    spans.absorb(large_spans);
    let mut core = Vec::new();
    let mut push_ns = 0.0;
    let mut pushed = 0.0;
    let mut finish_ms = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        match replay_stream(
            &set.data,
            PUSH_ROWS,
            &ExecEnv::unrestricted(),
            &mut spans,
            REPLAY_OPS + i as u64,
        ) {
            Ok(r) => {
                core.push(core_values(&r.report, r.rows as f64, set.expected.len() as f64));
                push_ns += r.push_ns as f64;
                pushed += r.rows as f64;
                finish_ms.push(r.finish_ns as f64 / 1e6);
                out.check("stream replay", Ok(()));
            }
            Err(e) => out.check("stream replay", Err(e)),
        }
    }

    // Phase profile and scheduler counters from the replay; what the
    // server reports about its own queries overrides the replay's.
    let mut values = medians(&core);
    let served: Vec<Served> = small.served.iter().chain(&large.served).copied().collect();
    values.extend(served_values(&served));
    values.insert("stream.push_ns_per_row", ratio(push_ns, pushed));
    values
        .insert("stream.finish_ms", finish_ms.iter().sum::<f64>() / finish_ms.len().max(1) as f64);
    let admit: Vec<f64> = small.admit_ms.iter().chain(&large.admit_ms).copied().collect();
    let rtt: Vec<f64> = small.rows_rtt_us.iter().chain(&large.rows_rtt_us).copied().collect();
    values.insert("serve.admit_ms", median(&admit));
    values.insert("serve.rows_rtt_us", median(&rtt));
    values.insert("serve.finish_ms", median(&small.finish_ms));
    values.insert(
        "serve.operator_frac",
        ratio(small.operator_ns + large.operator_ns, small.query_ns + large.query_ns),
    );
    let in_ops: f64 = spans
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "query")
        .map(|s| s.dur_ns() as f64)
        .sum();
    values.insert("process.unattributed_frac", 1.0 - ratio(in_ops, small.loop_ns + large.loop_ns));
    if let Some(early) = plain_large.early_peak_kib {
        values.insert("serve.rss_growth_mib", (final_peak_kib as f64 - early as f64) / 1024.0);
    }
    let overhead = median(&small.latencies) - median(&plain_small.latencies);
    values.insert("process.trace_overhead_ms", overhead * 1e3);

    zero_fill(&mut out, &values);
    let trace = write_trace(ctx, Workload::ServeMixed, &spans)?;
    out.notes.push(format!(
        "{} + {} small queries (untraced + traced), {} + {} large; small p50 untraced {:.4} s, \
         traced {:.4} s; trace written to {}",
        plain_small.latencies.len(),
        small.latencies.len(),
        plain_large.latencies.len(),
        large.latencies.len(),
        median(&plain_small.latencies),
        median(&small.latencies),
        trace.display()
    ));
    Ok(out)
}
