//! Observability core for the aggregation operator.
//!
//! The paper's claims live on *where time and rows go per pass* (Figures
//! 4, 5, 9) and on micro-behavior like probe lengths at 25% fill (§4.1)
//! and write-combining flushes (§4.2). This crate provides the shared
//! machinery every layer reports into:
//!
//! * [`Histogram`] — fixed-size log₂-bucketed histograms of `u64` samples,
//!   plain cells, mergeable;
//! * [`Recorder`] — per-worker **sharded** counters and histograms. Each
//!   worker writes plain `u64` cells in its own cache-line-padded shard
//!   (no hot-path atomics, no false sharing); shards are merged into a
//!   [`MetricsSnapshot`] once the operator has quiesced. A disabled
//!   recorder is a null check per call site;
//! * [`Tracer`] — bounded per-worker span buffers emitting Chrome
//!   trace-event JSON ([`Tracer::to_chrome_json`]) loadable in Perfetto;
//! * [`ProfileTree`] — the EXPLAIN ANALYZE phase tree (query → level →
//!   phase) aggregated from per-worker [`PhaseCell`]s recorded through
//!   the [`Recorder`];
//! * [`ProgressGauge`] / [`ProgressSampler`] — relaxed-atomic live
//!   progress cells plus the background heartbeat thread that reads them
//!   (the recorder's shards themselves must never be read live);
//! * [`json`] — a dependency-free JSON writer/parser used by every
//!   machine-readable report in the workspace.
//!
//! # Sharding contract
//!
//! [`Recorder`] and [`Tracer`] are indexed by *worker*: the caller must
//! ensure that a given worker index is only ever used from one thread at a
//! time (the work-stealing pool's `worker_index` gives exactly this), and
//! that snapshots/serialization happen only after those threads have
//! quiesced. This is the same contract under which the operator's own
//! per-worker hash tables are sound.

pub mod json;

mod hist;
mod profile;
mod progress;
mod recorder;
mod trace;

pub use hist::{Histogram, HIST_BUCKETS};
pub use profile::{fmt_nanos, Phase, PhaseCell, ProfileTree, PROFILE_LEVELS};
pub use progress::{BudgetProbe, ProgressGauge, ProgressSampler, ProgressSink};
pub use recorder::{Counter, Hist, MetricsSnapshot, Recorder, WorkerSnapshot};
pub use trace::{TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};

/// Pads a value to a cache line so per-worker shards never false-share.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);
