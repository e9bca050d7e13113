//! PR5 scaling bench: persistent-pool vs scope-spawn launches, the blocked
//! kernels at 1 and N threads, and batched serving throughput — written to
//! `BENCH_PR5.json` and gated in CI by `DSX_POOL_MIN_SPEEDUP` (multi-core
//! hosts only; see `dsx_bench::pr5` for the knobs and skip rules).

use dsx_bench::pr5::{self, Pr5Report, ServeRow};
use dsx_core::BackendKind;
use dsx_serve::{build_serving_model, run_load, serving_spec, LoadConfig, ServeConfig};
use std::time::Duration;

const KERNEL_SAMPLES: usize = 11;
const POOL_REPEATS: usize = 11;
const SERVE_REQUESTS: usize = 64;

/// Batched serving throughput on the blocked backend: one engine worker,
/// `max_batch = 8`, kernel threads at the hardware default.
fn measure_serve() -> Vec<ServeRow> {
    let backend = BackendKind::Blocked;
    let model = build_serving_model(&serving_spec(), backend);
    let snapshot = run_load(
        model,
        &LoadConfig {
            requests: SERVE_REQUESTS,
            concurrency: 8,
            engine: ServeConfig::default()
                .with_max_batch(8)
                .with_max_wait(Duration::from_micros(2000))
                .with_workers(1),
        },
    );
    vec![ServeRow {
        backend,
        batched_rps: snapshot.throughput_rps,
    }]
}

fn main() {
    let cores = pr5::available_cores();
    println!(
        "PR5 scaling bench: {cores} cores, {} launches x {} iters per pool burst",
        pr5::POOL_LAUNCHES,
        pr5::POOL_N,
    );
    let kernels = pr5::measure_kernels(KERNEL_SAMPLES);
    let pool = pr5::measure_pool(POOL_REPEATS);
    let serve = measure_serve();
    let report = Pr5Report {
        cores,
        pool,
        kernels,
        serve,
    };
    pr5::finish_report(&report);
}
