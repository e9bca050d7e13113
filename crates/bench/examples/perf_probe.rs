//! Quick local probe of kernel perf (same measurement the CI gate uses).
//!
//! ```text
//! cargo run --release -p dsx-bench --example perf_probe [flags]
//!
//! --threads N          pool thread count (0 = hardware default); exercises
//!                      the persistent worker pool when N > 1
//! --backend KIND       probe only this backend (repeatable;
//!                      naive|blocked). Without it, the full
//!                      BENCH_PR2 report runs (all backends + JSON + gate).
//! --samples N          timed samples per kernel (default 30)
//! ```

use dsx_bench::report;
use dsx_core::BackendKind;

struct Cli {
    threads: Option<usize>,
    backends: Vec<BackendKind>,
    samples: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        threads: None,
        backends: Vec::new(),
        samples: report::DEFAULT_SAMPLES,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--threads" => {
                cli.threads = Some(
                    value("--threads")?
                        .parse::<usize>()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--backend" => cli
                .backends
                .push(value("--backend")?.parse::<BackendKind>()?),
            "--samples" => {
                cli.samples = value("--samples")?
                    .parse::<usize>()
                    .map_err(|e| format!("--samples: {e}"))?;
                if cli.samples == 0 {
                    return Err("--samples must be positive".into());
                }
            }
            other => {
                return Err(format!(
                    "unknown flag '{other}' (flags: --threads N, --backend \
                     <naive|blocked>, --samples N)"
                ))
            }
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Some(threads) = cli.threads {
        dsx_tensor::set_num_threads(threads);
        println!(
            "pool threads: {} (pool workers spawn lazily on the first \
             multi-threaded launch)",
            dsx_tensor::num_threads()
        );
    }
    if cli.backends.is_empty() {
        // Default behaviour: the full BENCH_PR2 report (all backends, JSON
        // artifact, optional DSX_BENCH_MIN_SPEEDUP gate).
        report::run_default_report();
        print_pool_stats(&cli);
        return;
    }
    let timings = report::measure_kernels_for(&cli.backends, cli.samples);
    println!("perf probe ({} samples/kernel)", cli.samples);
    for t in &timings {
        println!(
            "  {:<8} {:<8} median {:>12.0} ns",
            t.kernel,
            t.backend.name(),
            t.median_ns
        );
    }
    print_pool_stats(&cli);
}

/// With `--threads N` the run exercised the worker pool; report what it did
/// (jobs, steals, parks — the dsx-obs counters the pool feeds).
fn print_pool_stats(cli: &Cli) {
    if cli.threads.is_some() {
        println!("pool stats: {}", dsx_tensor::pool::stats());
    }
}
