//! BENCH_PR5: pool scaling report for the CI perf gate.
//!
//! Three measurements, rendered into one JSON document (written to
//! `BENCH_PR5.json` at the repo root by the `pool_scaling` bench):
//!
//! 1. **Pool vs scope-spawn** — a multi-launch microbench: many back-to-back
//!    `parallel_for_chunks` launches (the per-layer launch pattern of one
//!    `infer`) on the persistent pool vs an inline replica of the historical
//!    scope-spawn runtime that created fresh OS threads per call.
//! 2. **Blocked kernel thread scaling** — SCC forward medians for the
//!    blocked backend at 1 thread and at the machine's full thread count,
//!    on the CIFAR-scale default workload and a large-plane workload
//!    ([`LARGE_WORKLOAD`], 64×64 planes).
//! 3. **Serving** — batched throughput on the blocked backend (measured by
//!    the bench binary through the serve engine and passed in as
//!    [`ServeRow`]s).
//!
//! Environment knobs (read by [`finish_report`]):
//!
//! * `DSX_PR5_BENCH_JSON` — output path (default `<repo>/BENCH_PR5.json`).
//! * `DSX_POOL_MIN_SPEEDUP` — when set (CI: `1.2`), fail unless the pool
//!   beats scope-spawn by that factor on the multi-launch microbench.
//!
//! The gate only engages on multi-core hosts
//! (`available_parallelism() > 1`): on one core the pool and the baseline
//! both degenerate to the inline path, so a single-core container stays
//! green by design.

use crate::report::median_ns;
use crate::{shaped_workload, WorkloadShape, DEFAULT_WORKLOAD};
use dsx_core::{BackendKind, SccImplementation};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Large-plane SCC workload (64×64 feature maps).
pub const LARGE_WORKLOAD: WorkloadShape = WorkloadShape {
    cin: 32,
    cout: 64,
    cg: 2,
    co: 0.5,
    batch: 4,
    hw: 64,
};

/// Launches per burst in the pool microbench — comparable to the number of
/// kernel launches a handful of `infer` calls issue back to back.
pub const POOL_LAUNCHES: usize = 48;

/// Iteration count per launch in the pool microbench.
pub const POOL_N: usize = 1 << 16;

const POOL_GRAIN: usize = 1024;

/// Result of the multi-launch pool-vs-scope-spawn microbench.
#[derive(Debug, Clone)]
pub struct PoolBench {
    /// Launches per measured burst.
    pub launches: usize,
    /// Iterations per launch.
    pub n: usize,
    /// Median burst time on the scope-spawn baseline, milliseconds.
    pub scope_spawn_ms: f64,
    /// Median burst time on the persistent pool, milliseconds.
    pub pool_ms: f64,
}

impl PoolBench {
    /// Pool speedup over the scope-spawn baseline.
    pub fn speedup(&self) -> f64 {
        if self.pool_ms > 0.0 {
            self.scope_spawn_ms / self.pool_ms
        } else {
            0.0
        }
    }
}

/// Median forward time of one backend at one thread count on one workload.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Workload label (`"cifar"` or `"large"`).
    pub workload: &'static str,
    /// Backend measured.
    pub backend: BackendKind,
    /// Pool thread count the measurement ran at.
    pub threads: usize,
    /// Median wall-clock nanoseconds per forward call.
    pub forward_ns: f64,
}

/// Batched serving throughput of one backend (measured by the bench
/// binary through the serve engine).
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Backend measured.
    pub backend: BackendKind,
    /// Batched requests per second.
    pub batched_rps: f64,
}

/// The full BENCH_PR5 report.
#[derive(Debug, Clone)]
pub struct Pr5Report {
    /// `available_parallelism()` of the measuring host.
    pub cores: usize,
    /// Pool microbench result.
    pub pool: PoolBench,
    /// Kernel comparison rows.
    pub kernels: Vec<KernelRow>,
    /// Serving comparison rows.
    pub serve: Vec<ServeRow>,
}

fn find_forward(
    report: &Pr5Report,
    workload: &str,
    backend: BackendKind,
    threads: usize,
) -> Option<f64> {
    report
        .kernels
        .iter()
        .find(|r| r.workload == workload && r.backend == backend && r.threads == threads)
        .map(|r| r.forward_ns)
}

impl Pr5Report {
    /// Blocked forward at a single thread over blocked at full threads on
    /// the large-plane workload: the blocked backend's thread scaling.
    pub fn blocked_multi_vs_single(&self) -> Option<f64> {
        let single = find_forward(self, "large", BackendKind::Blocked, 1)?;
        let multi = find_forward(self, "large", BackendKind::Blocked, self.cores)?;
        (multi > 0.0).then(|| single / multi)
    }
}

/// The launch body: enough arithmetic per index that a launch is real work,
/// little enough that launch overhead stays visible.
fn burst_body(start: usize, end: usize) {
    let mut acc = 0.0f32;
    for i in start..end {
        acc += (i as f32).sqrt();
    }
    black_box(acc);
}

/// Inline replica of the pre-pool runtime: fresh scoped threads per launch,
/// the same worker-count chunking `parallel_for_chunks` historically used.
/// Kept here (not in `dsx_tensor`) so the library carries exactly one
/// runtime and the baseline can never drift into production code.
fn scope_spawn_chunks(n: usize, min_chunk: usize, body: impl Fn(usize, usize) + Sync) {
    let workers = dsx_tensor::num_threads();
    if workers <= 1 || n <= min_chunk {
        body(0, n);
        return;
    }
    let chunks = workers.min(n.div_ceil(min_chunk));
    let chunk_size = n.div_ceil(chunks);
    std::thread::scope(|scope| {
        for c in 0..chunks {
            let start = c * chunk_size;
            let end = ((c + 1) * chunk_size).min(n);
            if start >= end {
                continue;
            }
            let body_ref = &body;
            scope.spawn(move || body_ref(start, end));
        }
    });
}

/// Runs the multi-launch microbench: `repeats` bursts of
/// [`POOL_LAUNCHES`] launches each, median per path.
pub fn measure_pool(repeats: usize) -> PoolBench {
    let scope_spawn_ms = median_ns(repeats, || {
        for _ in 0..POOL_LAUNCHES {
            scope_spawn_chunks(POOL_N, POOL_GRAIN, burst_body);
        }
    }) / 1e6;
    let pool_ms = median_ns(repeats, || {
        for _ in 0..POOL_LAUNCHES {
            dsx_tensor::par::parallel_for_chunks(POOL_N, POOL_GRAIN, burst_body);
        }
    }) / 1e6;
    PoolBench {
        launches: POOL_LAUNCHES,
        n: POOL_N,
        scope_spawn_ms,
        pool_ms,
    }
}

/// Measures blocked forward medians at 1 thread and at the host's full
/// thread count, on the CIFAR-scale and large-plane workloads. Restores
/// the hardware-default thread count before returning.
pub fn measure_kernels(samples: usize) -> Vec<KernelRow> {
    let cores = available_cores();
    let mut thread_counts = vec![1usize];
    if cores > 1 {
        thread_counts.push(cores);
    }
    let mut rows = Vec::new();
    for (label, shape) in [("cifar", DEFAULT_WORKLOAD), ("large", LARGE_WORKLOAD)] {
        for &threads in &thread_counts {
            dsx_tensor::set_num_threads(threads);
            let backend = BackendKind::Blocked;
            let w = shaped_workload(shape, SccImplementation::Dsxplore, backend);
            rows.push(KernelRow {
                workload: label,
                backend,
                threads,
                forward_ns: median_ns(samples, || {
                    black_box(w.layer.forward(black_box(&w.input)));
                }),
            });
        }
    }
    dsx_tensor::set_num_threads(0);
    rows
}

/// `available_parallelism()`, defaulting to 1.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn fmt_ratio(ratio: Option<f64>) -> String {
    ratio
        .map(|r| format!("{r:.3}"))
        .unwrap_or_else(|| "null".to_string())
}

/// Renders the report as a stable, dependency-free JSON document.
pub fn render_json(report: &Pr5Report) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dsx-bench/pr5-scaling/2\",\n");
    out.push_str(&format!("  \"cores\": {},\n", report.cores));
    out.push_str(&format!(
        "  \"pool\": {{\"launches\": {}, \"n\": {}, \"scope_spawn_ms\": {:.3}, \
         \"pool_ms\": {:.3}, \"speedup_pool_vs_spawn\": {:.3}}},\n",
        report.pool.launches,
        report.pool.n,
        report.pool.scope_spawn_ms,
        report.pool.pool_ms,
        report.pool.speedup(),
    ));
    out.push_str("  \"kernels\": [\n");
    for (i, row) in report.kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \
             \"forward_median_ns\": {:.0}}}{}\n",
            row.workload,
            row.backend,
            row.threads,
            row.forward_ns,
            if i + 1 < report.kernels.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"blocked_multi_vs_single_large\": {},\n",
        fmt_ratio(report.blocked_multi_vs_single()),
    ));
    out.push_str("  \"serve\": [\n");
    for (i, row) in report.serve.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"batched_rps\": {:.1}}}{}\n",
            row.backend,
            row.batched_rps,
            if i + 1 < report.serve.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Where the report lands: `DSX_PR5_BENCH_JSON` if set, else
/// `BENCH_PR5.json` at the repository root.
pub fn json_path() -> PathBuf {
    if let Ok(path) = std::env::var("DSX_PR5_BENCH_JSON") {
        return PathBuf::from(path);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR5.json")
}

fn env_gate(name: &str) -> Option<f64> {
    let raw = std::env::var(name).ok()?;
    Some(
        raw.parse::<f64>()
            .unwrap_or_else(|e| panic!("{name} must be a float: {e}")),
    )
}

/// Writes the JSON report, prints a human summary, and enforces the
/// `DSX_POOL_MIN_SPEEDUP` gate (multi-core hosts only). Exits the process
/// with status 1 when the gate fails, so the CI perf job fails the build.
pub fn finish_report(report: &Pr5Report) {
    let json = render_json(report);
    let path = json_path();
    std::fs::write(&path, &json)
        .unwrap_or_else(|e| panic!("cannot write PR5 report {}: {e}", path.display()));

    println!("\nPR5 scaling report ({} cores)", report.cores);
    println!(
        "  pool:   {} launches x {} iters | scope-spawn {:.2} ms | pool {:.2} ms | {:.2}x",
        report.pool.launches,
        report.pool.n,
        report.pool.scope_spawn_ms,
        report.pool.pool_ms,
        report.pool.speedup(),
    );
    for row in &report.kernels {
        println!(
            "  kernel: {:<5} {:<8} threads {:>2} | forward median {:>12.0} ns",
            row.workload,
            row.backend.name(),
            row.threads,
            row.forward_ns,
        );
    }
    for row in &report.serve {
        println!(
            "  serve:  {:<8} batched {:>8.1} req/s",
            row.backend.name(),
            row.batched_rps,
        );
    }
    println!(
        "  blocked thread scaling (large): {}",
        fmt_ratio(report.blocked_multi_vs_single()),
    );
    println!("  wrote {}", path.display());

    let multi_core = report.cores > 1;
    if let Some(min) = env_gate("DSX_POOL_MIN_SPEEDUP") {
        if multi_core {
            let got = report.pool.speedup();
            if got < min {
                eprintln!(
                    "POOL GATE FAILED: pool-backed parallel_for is only {got:.2}x the \
                     scope-spawn baseline on the multi-launch microbench (required {min:.2}x)"
                );
                std::process::exit(1);
            }
            println!("  pool gate passed: {got:.2}x >= {min:.2}x");
        } else {
            println!("  pool gate skipped: single-core host (pool runs inline)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> Pr5Report {
        Pr5Report {
            cores: 4,
            pool: PoolBench {
                launches: 48,
                n: 65536,
                scope_spawn_ms: 6.0,
                pool_ms: 3.0,
            },
            kernels: vec![
                KernelRow {
                    workload: "large",
                    backend: BackendKind::Blocked,
                    threads: 1,
                    forward_ns: 8_000_000.0,
                },
                KernelRow {
                    workload: "large",
                    backend: BackendKind::Blocked,
                    threads: 4,
                    forward_ns: 2_000_000.0,
                },
            ],
            serve: vec![ServeRow {
                backend: BackendKind::Blocked,
                batched_rps: 300.0,
            }],
        }
    }

    #[test]
    fn ratios_divide_the_right_rows() {
        let report = fake_report();
        assert_eq!(report.pool.speedup(), 2.0);
        assert_eq!(report.blocked_multi_vs_single(), Some(4.0));
    }

    #[test]
    fn missing_rows_render_null_ratios() {
        let mut report = fake_report();
        report.kernels.clear();
        report.serve.clear();
        let json = render_json(&report);
        assert!(json.contains("\"blocked_multi_vs_single_large\": null"));
    }

    #[test]
    fn json_contains_every_section_and_ratio() {
        let json = render_json(&fake_report());
        assert!(json.contains("\"schema\": \"dsx-bench/pr5-scaling/2\""));
        assert!(json.contains("\"speedup_pool_vs_spawn\": 2.000"));
        assert!(json.contains("\"blocked_multi_vs_single_large\": 4.000"));
        assert!(json.contains("\"backend\": \"blocked\", \"batched_rps\": 300.0"));
        assert_eq!(json.matches("forward_median_ns").count(), 2);
    }

    #[test]
    fn pool_microbench_produces_positive_medians() {
        let bench = measure_pool(1);
        assert!(bench.scope_spawn_ms > 0.0);
        assert!(bench.pool_ms > 0.0);
    }
}
