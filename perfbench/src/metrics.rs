//! The metric catalog — names and units exactly as `BENCHMARK.json`
//! lists them — and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name, unit, the layer it belongs to and what it
/// should move (METRICS.md explains each in prose).
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Layer (module) the metric measures.
    pub layer: &'static str,
}

const fn m(name: &'static str, unit: &'static str, layer: &'static str) -> MetricDef {
    MetricDef { name, unit, layer }
}

/// Measured with tracing off (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("rows_per_s", "1/s", "process"),
    m("latency_p50_s", "s", "process"),
    m("latency_tail_s", "s", "process"),
    m("peak_rss_mib", "MiB", "process"),
    m("setup_s", "s", "process"),
];

/// Measured by the traced run (`--trace 1`), on every workload; a layer
/// that does no work on a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("csv.parse_ns_per_row", "ns", "cli::csv"),
    m("load.ns_per_row", "ns", "cli::load"),
    m("query.self_ns_per_row", "ns", "query"),
    m("core.wall_ns_per_row", "ns", "core"),
    m("core.hash_insert_ns_per_row", "ns", "core"),
    m("core.partition_ns_per_row", "ns", "core"),
    m("core.seal_ns_per_row", "ns", "core"),
    m("core.grow_merge_ns_per_row", "ns", "core"),
    m("core.driver_ns_per_row", "ns", "core"),
    m("core.output_ns_per_group", "ns", "core"),
    m("core.part_rows_per_row", "ratio", "core"),
    m("core.passes", "count", "core"),
    m("core.fallback_merges", "count", "core"),
    m("stream.push_ns_per_row", "ns", "core::stream"),
    m("stream.finish_ms", "ms", "core::stream"),
    m("tasks.steals", "count", "tasks"),
    m("tasks.idle_frac", "ratio", "tasks"),
    m("spill.runs", "count", "columnar::store"),
    m("spill.bytes_per_row", "B", "columnar::store"),
    m("spill.encoded_ratio", "ratio", "columnar::store"),
    m("spill.io_wait_ns_per_row", "ns", "columnar::store"),
    m("spill.restore_ns_per_row", "ns", "columnar::store"),
    m("spill.disk_peak_mib", "MiB", "columnar::store"),
    m("fault.budget_peak_mib", "MiB", "fault"),
    m("fault.budget_denials", "count", "fault"),
    m("emit.ns_per_group", "ns", "emit"),
    m("emit.bytes_per_group", "B", "emit"),
    m("serve.admit_ms", "ms", "cli::serve"),
    m("serve.rows_rtt_us", "us", "cli::serve"),
    m("serve.finish_ms", "ms", "cli::serve"),
    m("serve.operator_frac", "ratio", "cli::serve"),
    m("serve.rss_growth_mib", "MiB", "cli::serve"),
    m("process.unattributed_frac", "ratio", "process"),
    m("process.teardown_ns_per_row", "ns", "process"),
    m("process.trace_overhead_ms", "ms", "process"),
];

/// True if `name` is made only of `[A-Za-z0-9_.-]` and is not empty.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `catalog` as aligned text lines, with its unit.
    pub fn render(&self, catalog: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in catalog {
            let v = self.get(d.name).unwrap_or(f64::NAN);
            let _ = writeln!(out, "  {:<30} {:>16.6} {:<6} [{}]", d.name, v, d.unit, d.layer);
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with one `{"value", "unit"}` per metric of `catalog`. Panics if a
    /// metric of the catalog was never set or is not finite: that is a
    /// bug in the benchmark, not a measurement.
    pub fn result_line(
        &self,
        catalog: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut metrics = Vec::new();
        for d in catalog {
            let v =
                self.get(d.name).unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(v.is_finite(), "metric {} is {v}", d.name);
            metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
