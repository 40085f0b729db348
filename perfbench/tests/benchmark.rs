//! The benchmark's own tests, on small sizes: determinism per seed, the
//! metric names against `BENCHMARK.json`, and the output check.

use std::path::PathBuf;

use perfbench::run::{run, Options, Outcome};
use perfbench::workload::{Inputs, Spec, Workload};

/// A small version of a workload's spec, quick enough for a test.
fn small(workload: Workload) -> Spec {
    Spec {
        principals: 300,
        warmup_ops: 256,
        checkpoint_every: 1_000,
        ..workload.spec()
    }
}

fn options(workload: Workload, seed: u64, trace: bool, test: &str) -> Options {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&scratch);
    Options {
        spec: small(workload),
        seed,
        calls: 40,
        trace,
        scratch: scratch.join("state"),
        spans: trace.then(|| scratch.join("spans.tsv")),
        alter_call: None,
    }
}

fn run_ok(opts: &Options) -> Outcome {
    let outcome = run(opts).expect("the run completes");
    assert!(
        outcome.correct,
        "output check failed: {:?}",
        outcome.problem
    );
    assert_eq!(outcome.failed, 0);
    outcome
}

#[test]
fn one_seed_gives_one_stream_and_the_same_counts() {
    let spec = small(Workload::DurableChurn);
    let stream = |seed| {
        let mut inputs = Inputs::new(&spec, seed);
        let ops = inputs.next_ops(2_000);
        format!("{:?} {:?}", inputs.warmup, ops)
    };
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));

    let opts = options(Workload::DurableChurn, 7, false, "repeat");
    let first = run_ok(&opts);
    let second = run_ok(&opts);
    assert_eq!(first.counts, second.counts);
    assert_eq!(
        unbounded_names(&first),
        ["batch_p99_ms", "failed_frac", "recovery_s"]
    );
    assert!(first.counts.fsyncs > 0 && first.counts.mutations > 0);
    assert!(first.counts.runs >= 40);
}

fn unbounded_names(outcome: &Outcome) -> Vec<&str> {
    outcome.unbounded.iter().map(|m| m.name).collect()
}

/// Reads the `name` and `unit` of every entry of one list of
/// `BENCHMARK.json`.  The file is written one key per line, so a line scan
/// of the list's block is enough.
fn benchmark_metrics(list: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let block = text
        .split(&format!("\"{list}\": ["))
        .nth(1)
        .expect("list present")
        .split(']')
        .next()
        .expect("list closed");
    let field = |line: &str, key: &str| {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
        Some(rest.split('"').next()?.to_string())
    };
    let lines: Vec<&str> = block.lines().collect();
    let names = lines.iter().filter_map(|l| field(l, "name"));
    let units = lines.iter().filter_map(|l| field(l, "unit"));
    names.zip(units).collect()
}

/// The `name` and `unit` of every metric of a printed result line.
fn printed_metrics(result: &str) -> Vec<(String, String)> {
    let metrics = result.split("\"metrics\": {").nth(1).expect("metrics");
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("name").to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .expect("unit")
                .split('"')
                .next()
                .expect("unit closed")
                .to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let untraced = run_ok(&options(Workload::WarmAdmit, 3, false, "names0"));
    let line = perfbench::result_json(&untraced);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 2560, \"failed\": 0, "));
    assert_eq!(printed_metrics(&line), benchmark_metrics("end_to_end"));
    assert_eq!(unbounded_names(&untraced), ["batch_p99_ms", "failed_frac"]);

    let opts = options(Workload::DurableChurn, 3, true, "names1");
    let traced = run_ok(&opts);
    let line = perfbench::result_json(&traced);
    assert_eq!(printed_metrics(&line), benchmark_metrics("per_layer"));
    assert!(traced.unbounded.is_empty());
    let spans = std::fs::read_to_string(opts.spans.expect("traced")).expect("spans written");
    assert!(spans.lines().any(|l| l.contains("\tservice.run_batch\t")));
    assert!(spans
        .lines()
        .any(|l| l.contains("\tdurability.ckpt_encode\t")));
}

#[test]
fn the_output_check_rejects_an_altered_response() {
    let mut opts = options(Workload::ColdLabel, 5, false, "altered");
    opts.calls = 8;
    opts.alter_call = Some(3);
    let outcome = run(&opts).expect("the run completes");
    assert!(!outcome.correct);
    let problem = outcome.problem.expect("the divergence is explained");
    assert!(problem.contains("call 3"), "{problem}");
}
