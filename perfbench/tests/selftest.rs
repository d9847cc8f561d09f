//! Self-tests of the benchmark: seeded inputs, the oracle, the tail
//! helper, spans, and the metric catalog against BENCHMARK.json and
//! METRICS.md.

use hashing_is_sorting::obs::json::{parse as parse_json, JsonValue};
use perfbench::gen::{sub_seed, KeyValues, Sales};
use perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use perfbench::spans::{chrome_trace, self_times, Span};
use perfbench::stats::{median, tail};
use perfbench::{oracle, Workload};
use std::path::Path;

fn rendered(csv: &str, argv: &[&str]) -> String {
    let args = hsa_cli::parse_args(argv.iter().map(|s| s.to_string())).expect("valid args");
    hsa_cli::run_on_csv_text(csv, &args).expect("query runs").rendered
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    let kv = |seed| KeyValues::generate(sub_seed(seed, 1), 20_000, 5_000);
    assert_eq!(kv(7).csv(), kv(7).csv());
    assert_ne!(kv(7).csv(), kv(8).csv());
    assert_eq!(kv(7).rows_requests(1 << 12), kv(7).rows_requests(1 << 12));
    assert_ne!(kv(7).rows_requests(1 << 12), kv(8).rows_requests(1 << 12));
    let sales = |seed| Sales::generate(sub_seed(seed, 2), 20_000).csv();
    assert_eq!(sales(7), sales(7));
    assert_ne!(sales(7), sales(8));
    // The data sets of one seed are independent streams.
    assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
}

#[test]
fn generated_shapes_match_the_workloads() {
    let kv = KeyValues::generate(1, 50_000, 1_000);
    assert!(kv.keys.iter().all(|&k| k < 1_000));
    assert_eq!(kv.rows_requests(1 << 14).len(), 4);
    let sales = Sales::generate(1, 50_000);
    let cities: std::collections::BTreeSet<u8> = sales.city.iter().copied().collect();
    assert_eq!(cities.len(), 64, "every city drawn at 50k rows");
    // Zipf: city 0 is drawn far more often than city 63.
    let count = |c| sales.city.iter().filter(|&&x| x == c).count();
    assert!(count(0) > 10 * count(63));
}

#[test]
fn oracle_accepts_the_real_output_and_rejects_corruptions() {
    let data = KeyValues::generate(3, 30_000, 4_000);
    let expected = oracle::highcard(&data);
    let good = rendered(
        &data.csv(),
        &["x.csv", "--group-by", "k", "--count", "--sum", "v", "--threads", "2"],
    );
    oracle::check_table(&good, &expected).expect("the program's output is correct");

    let lines: Vec<&str> = good.lines().collect();
    let rejoin = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
    // A changed value.
    let last = lines[5].rfind(|c: char| c.is_ascii_digit()).expect("a digit");
    let digit = lines[5].as_bytes()[last];
    let mut changed = lines[5].to_string();
    changed.replace_range(last..=last, if digit == b'9' { "8" } else { "9" });
    let mut corrupt = lines.clone();
    corrupt[5] = &changed;
    assert!(oracle::check_table(&rejoin(&corrupt), &expected).is_err(), "changed value");
    // A missing group.
    let mut missing = lines.clone();
    missing.remove(7);
    assert!(oracle::check_table(&rejoin(&missing), &expected).is_err(), "missing group");
    // A group printed twice.
    let mut twice = lines.clone();
    twice.push(lines[3]);
    assert!(oracle::check_table(&rejoin(&twice), &expected).is_err(), "duplicate group");
    // A wrong header.
    let mut header = lines.clone();
    let renamed = lines[0].replace("count", "cnt");
    header[0] = &renamed;
    assert!(oracle::check_table(&rejoin(&header), &expected).is_err(), "header");

    let sales = Sales::generate(3, 30_000);
    let expected = oracle::sales(&sales);
    let argv =
        ["x.csv", "--group-by", "country,city", "--count", "--sum", "amount", "--max", "qty"];
    let good = rendered(&sales.csv(), &argv);
    oracle::check_table(&good, &expected).expect("the program's output is correct");
    let swapped = good.replacen("de-city00", "de-city01", 1);
    assert!(oracle::check_table(&swapped, &expected).is_err(), "relabelled group");
}

#[test]
fn served_block_checker_rejects_corruptions() {
    let data = KeyValues::generate(5, 5_000, 300);
    let expected = oracle::count_sum(&data);
    let rows: Vec<(u64, Vec<u64>)> = expected.iter().map(|&(k, c, s)| (k, vec![c, s])).collect();
    let keys: Vec<String> = rows.iter().map(|(k, _)| k.to_string()).collect();
    let col = |i: usize| rows.iter().map(|(_, v)| v[i].to_string()).collect::<Vec<_>>().join(",");
    let line = format!(
        "{{\"block\":{{\"keys\":[{}],\"cols\":[[{}],[{}]]}}}}",
        keys.join(","),
        col(0),
        col(1)
    );
    let parsed = oracle::parse_block(&line).expect("a block line");
    oracle::check_count_sum(&parsed, &expected).expect("the oracle's own rows");

    let mut wrong = parsed.clone();
    wrong[10].1[1] += 1;
    assert!(oracle::check_count_sum(&wrong, &expected).is_err(), "changed sum");
    let mut short = parsed.clone();
    short.pop();
    assert!(oracle::check_count_sum(&short, &expected).is_err(), "missing group");
    assert!(oracle::parse_block("{\"done\":{}}").is_err());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
    let t = tail(&samples(100));
    assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    let t = tail(&samples(1000));
    assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    let t = tail(&samples(10_000));
    assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
    let t = tail(&samples(199));
    assert_eq!((t.percentile, t.beyond), (90.0, 19));
    assert_eq!(tail(&samples(20)).percentile, 50.0);
    // Too few samples for any rung: the maximum, labelled p100.
    let t = tail(&[3.0, 1.0, 2.0]);
    assert_eq!((t.percentile, t.value, t.beyond, t.samples), (100.0, 3.0, 0, 3));
    // Order of the input does not matter.
    let mut shuffled = samples(100);
    shuffled.reverse();
    assert_eq!(tail(&shuffled).value, 90.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn self_time_subtracts_children_once() {
    let span =
        |start_ns, end_ns, parent| Span { name: "x", start_ns, end_ns, parent, op: 1, tid: 0 };
    let spans = vec![
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(30, 60, Some(0)),  // overlaps the first child
        span(90, 150, Some(0)), // runs past its parent
        span(12, 20, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 60, 8]);
    let trace = parse_json(&chrome_trace(&spans)).expect("valid JSON");
    let events = trace.get("traceEvents").and_then(JsonValue::as_array).expect("events");
    assert_eq!(events.len(), 5);
    assert_eq!(events[1].get("ph").and_then(JsonValue::as_str), Some("X"));
    assert_eq!(events[1].get("dur").and_then(JsonValue::as_f64), Some(0.03));
}

fn listed(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or("").to_string();
            (field("name"), field(if key == "workloads" { "why" } else { "unit" }))
        })
        .collect()
}

fn catalog(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json_and_metrics_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse_json(&text).expect("BENCHMARK.json parses");
    assert_eq!(listed(&bench, "end_to_end"), catalog(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), catalog(PER_LAYER));
    let workloads: Vec<String> = listed(&bench, "workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let page = std::fs::read_to_string(root.join("METRICS.md")).expect("METRICS.md");
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(seen.insert(d.name), "metric {} listed twice", d.name);
        assert!(page.contains(&format!("`{}`", d.name)), "METRICS.md lacks {}", d.name);
    }
    for w in &ours {
        assert!(valid_name(w) && page.contains(&format!("`{w}`")), "workload {w}");
    }
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("a/b"));
    assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
}
