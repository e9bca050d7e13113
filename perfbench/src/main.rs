//! `dsx-perfbench` — the DSXplore-rs benchmark.
//!
//! ```text
//! dsx-perfbench --workload <train-mobilenet|infer-mobilenet|serve-tower-open>
//!               --seed N --seconds S --trace <0|1> --serve-bin PATH
//! ```
//!
//! Every run prints human-readable `report:` lines (each metric under the
//! name its workload gives it, with unit, sample count and percentile) and
//! ends with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. The library workloads run at the library's defaults: they
//! never set a thread count or a process-wide backend.

mod layers;
mod serve;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["train-mobilenet", "infer-mobilenet", "serve-tower-open"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
    };
    let mut tower_probe = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value()?),
            "--tower-probe" => tower_probe = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if tower_probe {
        args.workload = "tower-probe".into();
    } else if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name in the JSON result (a `BENCHMARK.json` metric).
    pub key: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the workload measured under this key, for the report line.
    pub what: String,
}

/// What a run hands back: its metrics and its output-check tally.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted (timed operations plus output checks).
    pub attempted: usize,
    /// Operations that failed or were refused, and output checks that did
    /// not hold.
    pub failed: usize,
    /// Check failures, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn push(
        &mut self,
        key: &'static str,
        value: f64,
        unit: &'static str,
        what: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            key,
            value,
            unit,
            what: what.into(),
        });
    }

    /// `1 - failed / attempted`: the share of operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Formats a metric value for JSON: every digit, and `null` for a value
/// that is not a number (the caller then reports the run as incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dsx-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "tower-probe" => {
            layers::tower_probe(args.seed);
            return ExitCode::SUCCESS;
        }
        _ if args.trace => layers::run(&args),
        "train-mobilenet" => workloads::train(&args),
        "infer-mobilenet" => workloads::infer(&args),
        _ => workloads::serve_e2e(&args),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("dsx-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!(
            "report: {:<34} {:>14.4} {:<6} {}",
            m.key, m.value, m.unit, m.what
        );
    }
    let bad_values: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.key)
        .collect();
    if !bad_values.is_empty() {
        outcome.problems.push(format!(
            "metrics without a value: {}",
            bad_values.join(", ")
        ));
    }
    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    let correct = outcome.problems.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.key,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
