//! End-to-end and per-layer benchmark of the FluidFaaS simulator.
//!
//! The benchmark drives the program only through its public functions: the
//! `ffs_trace` generators, the platform constructors, `run_platform`,
//! `run_sharded_fluid`, `mqfq_policies` and the `ffs_metrics` folds. It
//! times each layer from outside, around those calls; see `README.md` for
//! the metric table.

pub mod bench;
pub mod pass;
pub mod probes;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod workload;

/// Renders the result line: one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &bench::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        metrics.join(", ")
    )
}

/// A JSON number with every digit of `v`; non-finite values (which no
/// metric should produce) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
