//! In-memory spans recorded around the calls into each layer, written
//! out at the end as Chrome-trace JSON (the format of `hsa --trace`).

use hashing_is_sorting::obs::json::JsonValue;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `csv.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Thread (or connection) that recorded the span.
    pub tid: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Appends spans of one thread; recorders of several threads share an
/// origin and are joined with [`Spans::absorb`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    tid: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder timing from `origin`.
    pub fn new(origin: Instant, tid: u64) -> Self {
        Self { origin, tid, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]` and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
            tid: self.tid,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record a span of known length starting at `start` — for a layer
    /// that reports its own duration but not its start.
    pub fn record_len(
        &mut self,
        name: &'static str,
        start: Instant,
        len: Duration,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.record(name, start, start + len, parent, op)
    }

    /// Open a span starting now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name, per operation: `name → [ns of op 0,
/// ns of op 1, …]` over the operations in `ops`.
pub fn self_by_name(spans: &[Span], ops: &[u64]) -> BTreeMap<&'static str, Vec<u64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let Some(ix) = ops.iter().position(|&o| o == s.op) else { continue };
        out.entry(s.name).or_insert_with(|| vec![0; ops.len()])[ix] += own;
    }
    out
}

/// Chrome trace-event JSON (`{"traceEvents": [...]}`), complete-span
/// events with microsecond `ts`/`dur` like the program's own tracer; the
/// operation id and parent index ride in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("id".to_string(), JsonValue::U64(i as u64)),
                ("op".to_string(), JsonValue::U64(s.op)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), JsonValue::U64(p as u64)));
            }
            JsonValue::obj([
                ("name", JsonValue::str(s.name)),
                ("cat", JsonValue::str("perfbench")),
                ("ph", JsonValue::str("X")),
                ("ts", JsonValue::F64(s.start_ns as f64 / 1000.0)),
                ("dur", JsonValue::F64(s.dur_ns() as f64 / 1000.0)),
                ("pid", JsonValue::U64(1)),
                ("tid", JsonValue::U64(s.tid)),
                ("args", JsonValue::Object(args)),
            ])
        })
        .collect();
    JsonValue::obj([
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::str("ns")),
    ])
    .to_string_compact()
}
