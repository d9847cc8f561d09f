//! End-to-end and per-layer benchmark of `hsa` (CSV bytes in → rendered
//! rows out) and `hsa serve` (NDJSON rows in → result blocks out).
//!
//! Every run generates its inputs from a seed, drives the real `hsa`
//! binary as a child process, checks each result against an independent
//! oracle, and ends its standard output with one JSON result line. The
//! traced run (`--trace 1`) replays the CLI pipeline in process, calling
//! each layer's public function in the program's own order, and times
//! serve requests from the client side. METRICS.md lists every metric.

pub mod batch;
pub mod child;
pub mod gen;
pub mod metrics;
pub mod oracle;
pub mod serve;
pub mod spans;
pub mod stats;

use metrics::Values;
use std::path::PathBuf;
use std::time::Duration;

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2M rows, 500k uniform keys: partitioning with a huge result.
    CliHighcard,
    /// 2M rows, 64 Zipf-skewed string groups: hashing only.
    CliLowcard,
    /// The high-cardinality query under a 16 MiB budget
    /// ([`batch::SPILL_BUDGET`]): out of core.
    CliSpill,
    /// Two connections to one server: small and large queries.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::CliHighcard, Workload::CliLowcard, Workload::CliSpill, Workload::ServeMixed];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliHighcard => "cli_highcard",
            Workload::CliLowcard => "cli_lowcard",
            Workload::CliSpill => "cli_spill",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where and how one run executes.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The `hsa` binary under test.
    pub hsa: PathBuf,
    /// Scratch directory for generated inputs, removed after the run.
    pub work: PathBuf,
    /// Directory the traced run writes its Chrome trace into.
    pub out: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
}

/// What one run measured and how many operations it checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Operations attempted (each `hsa` invocation or served query).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `result` says whether it was correct.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}
