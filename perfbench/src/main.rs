//! Runs one benchmark run and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_admit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed as a `metric <name> <value> <unit>` line, the
//! workload-property shares as `share` lines, and the last line of
//! standard output is the run's result as one JSON object.  The traced run
//! (`--trace 1`) also writes its spans to
//! `$CARGO_TARGET_DIR/perfbench-spans/<workload>-seed<seed>.tsv`.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Options};
use perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <warm_admit|cold_label|durable_churn> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(Workload, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((workload, number("--seed")?, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let scratch = target.join("perfbench-scratch").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    let spec = workload.spec();
    let opts = Options {
        spec,
        seed,
        calls: spec.calls(seconds),
        trace,
        scratch: scratch.clone(),
        spans: trace.then(|| {
            target
                .join("perfbench-spans")
                .join(format!("{}-seed{seed}.tsv", workload.name()))
        }),
        alter_call: None,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={seed} calls={} ops_per_call={} trace={} nproc={nproc}",
        workload.name(),
        opts.calls,
        spec.call_ops,
        u8::from(trace),
    );
    let outcome = run(&opts);
    let _ = fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    for m in outcome.metrics.iter().chain(&outcome.unbounded) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.latency);
    for m in &outcome.shares {
        println!("share {} {} {}", m.name, m.value, m.unit);
    }
    if outcome.cut_short {
        println!("note: measuring stopped at its time limit before the stream ended");
    }
    match &outcome.problem {
        None => println!("check ok: every response and the final state match the reference"),
        Some(problem) => println!("check FAILED: {problem}"),
    }
    if let Some(path) = &opts.spans {
        println!("spans written to {}", path.display());
    }
    println!("{}", perfbench::result_json(&outcome));
    ExitCode::SUCCESS
}
