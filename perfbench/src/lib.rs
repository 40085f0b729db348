//! The serving benchmark of the disclosure-control service.
//!
//! One closed-loop client drives `fdc_service::DisclosureService` with its
//! default configuration through one of three workloads
//! ([`workload::Workload`]), checks every response against a sequential
//! reference ([`check`]), and reports either the end-to-end metrics
//! (untraced run) or the per-layer metrics (traced run, [`trace`]).  See
//! `perfbench/README.md` for the metrics and what each should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use run::Outcome;

/// The run's result as the one-line JSON object the benchmark prints
/// last: `correct`, `attempted`, `failed` and every metric with its unit.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
