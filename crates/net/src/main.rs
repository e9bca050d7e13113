//! `dsx-serve` — the serving binary: an in-process load generator (the
//! PR-3 behaviour), a TCP server mode, and a network load-generator mode.
//!
//! ```text
//! dsx-serve [--requests N] [--concurrency N] [--backend <naive|blocked>]
//!           [--max-batch N] [--max-wait-us N] [--workers N]
//!           [--queue-capacity N] [--par-threads N] [--skip-serial]
//!           [--adaptive] [--model PATH]
//!           [--trace-out PATH] [--stats-every S]
//!           [--listen IP:PORT [--serve-secs S] [--max-conns N] [--idle-secs S]
//!                             [--max-inflight N]]
//!         | [--connect IP:PORT [--deadline-us N] [--retries N]]
//! ```
//!
//! * no address flag — build the serving model, drive the in-process
//!   batching engine with the built-in load generator, report batched vs.
//!   serial-unbatched throughput;
//! * `--listen IP:PORT` — serve the model over the `dsx-net` wire protocol
//!   (port 0 picks an ephemeral port; the bound address is printed). Runs
//!   for `--serve-secs` seconds (default: forever), then drains and prints
//!   the serving report;
//! * `--connect IP:PORT` — no model is built; drive a remote server with
//!   `--requests` round trips over `--concurrency` connections and report
//!   client-observed throughput and latency percentiles.
//!
//! Fault-tolerance knobs: with `--listen`, `--max-conns` caps live
//! connections (extras get a typed `ServerBusy` frame), `--idle-secs`
//! reaps silent connections, and `--max-inflight` caps unanswered requests
//! per connection. With `--connect`, `--deadline-us` stamps every request
//! with a serving deadline (expired requests come back as typed
//! `DeadlineExceeded`, reported as sheds) and `--retries N` wraps each
//! round trip in the bounded retry policy (N total attempts).
//!
//! `--model PATH` replaces the randomly-initialised serving model with one
//! loaded from a `dsx_models` checkpoint (trained and saved by
//! `dsx-experiments train-serve --save`). Loaded weights infer
//! bit-identically to the process that saved them — both sides print a
//! `model digest` line CI compares. With `--listen`, the checkpoint path
//! also enables the wire protocol's reload frame: a client's
//! `NetClient::reload()` re-reads the file and hot-swaps the model into
//! the live engine with zero dropped requests.
//!
//! `--trace-out PATH` turns on `dsx-obs` tracing for the whole run and
//! writes a Chrome trace-event JSON file on exit — load it in Perfetto or
//! `chrome://tracing` to see pool jobs/steals, per-layer forwards, GEMM
//! calls, batch assembly and wire reads/writes on one timeline. Because the
//! export happens at process exit, `--trace-out` with `--listen` requires
//! `--serve-secs` (a listen-forever server would never write the file).
//!
//! `--stats-every S` prints one `stats: name=value ...` line every `S`
//! seconds: the process-global `dsx-obs` metrics registry (pool, GEMM and
//! wire counters) merged with the live serving stats when an engine runs in
//! this process. It needs a local engine, so it conflicts with `--connect`.
//!
//! Every flag is parsed (and validated) *before* the model is built: the
//! kernel backend is a process-wide construction-time default in
//! `dsx-core`, so a flag error after construction would be both too late
//! and misleading. Invalid flags — including `--listen` together with
//! `--connect`, unparseable socket addresses, and a `--model` checkpoint
//! that is missing, corrupt, version-mismatched or shaped wrong for the
//! serving workload — exit with status 2 before any engine spins up.

use dsx_core::BackendKind;
use dsx_models::{model_digest, Checkpoint};
use dsx_net::{NetLoadConfig, NetServer, NetServerConfig, ReloadFn, RetryPolicy};
use dsx_serve::loadgen::INPUT_HW;
use dsx_serve::{
    build_serving_model, run_load, run_serial, serving_spec, AdaptiveWaitConfig, LoadConfig,
    ServeConfig,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    requests: usize,
    concurrency: usize,
    backend: BackendKind,
    max_batch: usize,
    max_wait: Duration,
    workers: usize,
    queue_capacity: usize,
    /// Kernel-level threads inside one forward pass. Defaults to 1 so the
    /// worker pool (request-level parallelism) is the only thread source
    /// and batched-vs-serial numbers compare like for like.
    par_threads: usize,
    skip_serial: bool,
    /// Enable the adaptive `max_wait` controller on the engine.
    adaptive: bool,
    /// Serve the engine over TCP on this address.
    listen: Option<SocketAddr>,
    /// Drive a remote server at this address instead of running locally.
    connect: Option<SocketAddr>,
    /// With `--listen`: serve this many seconds, then drain and report.
    /// `None` = run until killed.
    serve_secs: Option<f64>,
    /// Serve weights loaded from this checkpoint instead of the
    /// randomly-initialised serving model.
    model: Option<PathBuf>,
    /// Enable tracing and export Chrome trace-event JSON here on exit.
    trace_out: Option<PathBuf>,
    /// Print a one-line metrics snapshot every this many seconds.
    stats_every: Option<f64>,
    /// With `--listen`: cap on live connections (extra connections get one
    /// `ServerBusy` frame and a close).
    max_conns: Option<usize>,
    /// With `--listen`: reap connections idle this many seconds.
    idle_secs: Option<f64>,
    /// With `--listen`: per-connection cap on unanswered requests.
    max_inflight: Option<usize>,
    /// With `--connect`: per-request serving deadline in µs (0 = none).
    deadline_us: u64,
    /// With `--connect`: total attempts per request (retry on
    /// connection-level failures). `None` = plain round trips.
    retries: Option<u32>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            requests: 256,
            concurrency: 16,
            backend: BackendKind::Blocked,
            max_batch: 8,
            max_wait: Duration::from_micros(2000),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 32,
            par_threads: 1,
            skip_serial: false,
            adaptive: false,
            listen: None,
            connect: None,
            serve_secs: None,
            model: None,
            trace_out: None,
            stats_every: None,
            max_conns: None,
            idle_secs: None,
            max_inflight: None,
            deadline_us: 0,
            retries: None,
        }
    }
}

const USAGE: &str = "usage: dsx-serve [--requests N] [--concurrency N] \
[--backend <naive|blocked>] [--max-batch N] [--max-wait-us N] [--workers N] \
[--queue-capacity N] [--par-threads N] [--skip-serial] [--adaptive] [--model PATH] \
[--trace-out PATH] [--stats-every S] \
[--listen IP:PORT [--serve-secs S] [--max-conns N] [--idle-secs S] [--max-inflight N]] | \
[--connect IP:PORT [--deadline-us N] [--retries N]]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // Accept both `--flag value` and `--flag=value`.
        let (flag, inline_value) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |flag: &str| -> Result<String, String> {
            match &inline_value {
                Some(v) => Ok(v.clone()),
                None => iter
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}")),
            }
        };
        let parse_usize = |flag: &str, value: String| -> Result<usize, String> {
            value
                .parse::<usize>()
                .map_err(|e| format!("{flag} must be a non-negative integer: {e}\n{USAGE}"))
        };
        let parse_addr = |flag: &str, value: String| -> Result<SocketAddr, String> {
            value.parse::<SocketAddr>().map_err(|e| {
                format!("{flag} must be a socket address like 127.0.0.1:7878: {e}\n{USAGE}")
            })
        };
        match flag {
            "--requests" => cli.requests = parse_usize(flag, value(flag)?)?,
            "--concurrency" => cli.concurrency = parse_usize(flag, value(flag)?)?.max(1),
            "--backend" => cli.backend = value(flag)?.parse::<BackendKind>()?,
            "--max-batch" => {
                cli.max_batch = parse_usize(flag, value(flag)?)?;
                if cli.max_batch == 0 {
                    return Err(format!("--max-batch must be at least 1\n{USAGE}"));
                }
            }
            "--max-wait-us" => {
                cli.max_wait = Duration::from_micros(parse_usize(flag, value(flag)?)? as u64)
            }
            "--workers" => cli.workers = parse_usize(flag, value(flag)?)?.max(1),
            "--queue-capacity" => cli.queue_capacity = parse_usize(flag, value(flag)?)?.max(1),
            "--par-threads" => cli.par_threads = parse_usize(flag, value(flag)?)?,
            "--skip-serial" => cli.skip_serial = true,
            "--adaptive" => cli.adaptive = true,
            "--listen" => cli.listen = Some(parse_addr(flag, value(flag)?)?),
            "--connect" => cli.connect = Some(parse_addr(flag, value(flag)?)?),
            "--model" => cli.model = Some(PathBuf::from(value(flag)?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value(flag)?)),
            "--stats-every" => {
                let raw = value(flag)?;
                let secs = raw.parse::<f64>().map_err(|e| {
                    format!("--stats-every must be a number of seconds: {e}\n{USAGE}")
                })?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--stats-every must be positive\n{USAGE}"));
                }
                cli.stats_every = Some(secs);
            }
            "--serve-secs" => {
                let raw = value(flag)?;
                let secs = raw.parse::<f64>().map_err(|e| {
                    format!("--serve-secs must be a number of seconds: {e}\n{USAGE}")
                })?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--serve-secs must be positive\n{USAGE}"));
                }
                cli.serve_secs = Some(secs);
            }
            "--max-conns" => {
                let cap = parse_usize(flag, value(flag)?)?;
                if cap == 0 {
                    return Err(format!("--max-conns must be at least 1\n{USAGE}"));
                }
                cli.max_conns = Some(cap);
            }
            "--idle-secs" => {
                let raw = value(flag)?;
                let secs = raw.parse::<f64>().map_err(|e| {
                    format!("--idle-secs must be a number of seconds: {e}\n{USAGE}")
                })?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--idle-secs must be positive\n{USAGE}"));
                }
                cli.idle_secs = Some(secs);
            }
            "--max-inflight" => {
                let cap = parse_usize(flag, value(flag)?)?;
                if cap == 0 {
                    return Err(format!("--max-inflight must be at least 1\n{USAGE}"));
                }
                cli.max_inflight = Some(cap);
            }
            "--deadline-us" => cli.deadline_us = parse_usize(flag, value(flag)?)? as u64,
            "--retries" => {
                let attempts = parse_usize(flag, value(flag)?)?;
                if attempts == 0 {
                    return Err(format!(
                        "--retries counts total attempts, so it must be at least 1\n{USAGE}"
                    ));
                }
                cli.retries = Some(attempts.min(u32::MAX as usize) as u32);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if cli.listen.is_some() && cli.connect.is_some() {
        return Err(format!(
            "--listen and --connect are mutually exclusive (serve *or* drive, not both)\n{USAGE}"
        ));
    }
    if cli.serve_secs.is_some() && cli.listen.is_none() {
        return Err(format!("--serve-secs only applies with --listen\n{USAGE}"));
    }
    if cli.adaptive && cli.connect.is_some() {
        return Err(format!(
            "--adaptive tunes the local engine; it has no effect with --connect\n{USAGE}"
        ));
    }
    if cli.model.is_some() && cli.connect.is_some() {
        return Err(format!(
            "--model loads weights into the local engine; it has no effect with --connect\n{USAGE}"
        ));
    }
    if cli.stats_every.is_some() && cli.connect.is_some() {
        return Err(format!(
            "--stats-every reads the local engine's metrics; it has no effect with --connect\n{USAGE}"
        ));
    }
    if cli.trace_out.is_some() && cli.listen.is_some() && cli.serve_secs.is_none() {
        return Err(format!(
            "--trace-out exports at exit, so with --listen it needs --serve-secs\n{USAGE}"
        ));
    }
    // Connection hygiene shapes the local server; retry/deadline shape the
    // remote-driving client. Each family is meaningless on the other side.
    for (set, flag) in [
        (cli.max_conns.is_some(), "--max-conns"),
        (cli.idle_secs.is_some(), "--idle-secs"),
        (cli.max_inflight.is_some(), "--max-inflight"),
    ] {
        if set && cli.listen.is_none() {
            return Err(format!(
                "{flag} configures the local server, so it needs --listen\n{USAGE}"
            ));
        }
    }
    for (set, flag) in [
        (cli.deadline_us > 0, "--deadline-us"),
        (cli.retries.is_some(), "--retries"),
    ] {
        if set && cli.connect.is_none() {
            return Err(format!(
                "{flag} shapes the driving client, so it needs --connect\n{USAGE}"
            ));
        }
    }
    Ok(cli)
}

/// Loads and validates the `--model` checkpoint, or exits 2 with a
/// one-line reason — missing file, corrupt bytes, version mismatch and a
/// workload-incompatible topology all fail here, before any engine or
/// thread pool spins up.
fn load_model_checkpoint(path: &std::path::Path) -> Checkpoint {
    let ckpt = match Checkpoint::load(path) {
        Ok(ckpt) => ckpt,
        Err(e) => {
            eprintln!("dsx-serve: cannot load --model {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    if let Err(e) = dsx_models::validate_spec(&ckpt.spec) {
        eprintln!("dsx-serve: --model {} is not servable: {e}", path.display());
        std::process::exit(2);
    }
    // The loadgen and the declared request shape both come from the
    // checkpoint's own spec, so any first layer works for --listen; the
    // in-process loadgen however drives the fixed serving workload shape.
    match ckpt.spec.convs.first() {
        Some(first) if first.in_hw == INPUT_HW && first.cin == 3 => ckpt,
        Some(first) => {
            eprintln!(
                "dsx-serve: --model {} serves [{}, {}, {}] inputs; the serving workload needs [3, {INPUT_HW}, {INPUT_HW}]",
                path.display(),
                first.cin,
                first.in_hw,
                first.in_hw,
            );
            std::process::exit(2);
        }
        None => {
            eprintln!(
                "dsx-serve: --model {} has no convolution layers",
                path.display()
            );
            std::process::exit(2);
        }
    }
}

/// The engine configuration the in-process and `--listen` modes share.
fn engine_config(cli: &Cli) -> ServeConfig {
    let mut config = ServeConfig {
        max_batch: cli.max_batch,
        max_wait: cli.max_wait,
        queue_capacity: cli.queue_capacity,
        workers: cli.workers,
        request_dims: None,
        adaptive: None,
    };
    if cli.adaptive {
        config.adaptive = Some(AdaptiveWaitConfig::default());
    }
    config
}

/// Stops recording and writes the Chrome trace when `--trace-out` was
/// given. Called explicitly on every reporting exit path because the error
/// paths below use `process::exit`, which skips destructors.
fn export_trace(cli: &Cli) {
    let Some(path) = &cli.trace_out else { return };
    dsx_obs::enable(false);
    match dsx_obs::export_chrome_trace(path) {
        Ok(events) => println!("trace: wrote {events} events to {}", path.display()),
        Err(e) => {
            eprintln!(
                "dsx-serve: cannot write --trace-out {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
    }
}

/// The `--stats-every` printer: one `stats: name=value ...` line per tick.
/// The global registry always rides along; an `Arc<ServeStats>` adds the
/// live serving counters when this process runs an engine we can reach.
/// (Deliberately not a `ServeHandle` — that would hold the request queue
/// open and stall the engine's shutdown drain.)
fn spawn_stats_printer(every: f64, stats: Option<Arc<dsx_serve::ServeStats>>) {
    let tick = Duration::from_secs_f64(every);
    let spawned = std::thread::Builder::new()
        .name("dsx-stats".to_string())
        .spawn(move || loop {
            std::thread::sleep(tick);
            let mut snapshot = dsx_obs::snapshot();
            if let Some(stats) = &stats {
                stats.export_metrics(&mut snapshot);
                snapshot.sort();
            }
            println!("stats: {snapshot}");
        });
    if let Err(e) = spawned {
        eprintln!("dsx-serve: cannot start the --stats-every printer: {e}");
    }
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

    // Tracing turns on before anything interesting runs so the exported
    // timeline covers the whole process, model construction included.
    if cli.trace_out.is_some() {
        dsx_obs::enable(true);
    }

    if let Some(addr) = cli.connect {
        run_connect_mode(&cli, addr);
        export_trace(&cli);
        return;
    }

    // The --model checkpoint is loaded and validated with the flags: a
    // missing, corrupt or incompatible file exits 2 here, before any
    // construction-time state is touched.
    let ckpt = cli.model.as_deref().map(load_model_checkpoint);

    // Flags are fully validated; only now may construction-time state be
    // touched (the backend default is read when layers are built).
    dsx_core::set_default_backend(cli.backend);
    dsx_tensor::set_num_threads(cli.par_threads);

    let (spec, model): (_, Arc<dyn dsx_nn::Layer>) = match &ckpt {
        Some(ckpt) => match ckpt.build_model(cli.backend) {
            Ok(model) => (ckpt.spec.clone(), Arc::new(model) as Arc<dyn dsx_nn::Layer>),
            Err(e) => {
                eprintln!("dsx-serve: cannot rebuild the --model checkpoint: {e}");
                std::process::exit(2);
            }
        },
        None => {
            let spec = serving_spec();
            let model = build_serving_model(&spec, cli.backend);
            (spec, model)
        }
    };
    println!(
        "serving model: {} ({:.2} MFLOPs/request, backend {})",
        spec.name,
        spec.mflops(),
        cli.backend
    );
    // The digest fingerprints the weights actually being served; CI compares
    // it against the line the saving process printed to gate bit-identical
    // round trips.
    println!("model digest: {:08x}", model_digest(&*model, &spec));

    if let Some(addr) = cli.listen {
        run_listen_mode(&cli, addr, model);
        return;
    }

    // No engine handle to thread through here: `run_load` owns its engine
    // internally, so the printer reports the process-global registry (pool,
    // GEMM, wire counters).
    if let Some(every) = cli.stats_every {
        spawn_stats_printer(every, None);
    }

    let serial = if cli.skip_serial {
        None
    } else {
        let report = run_serial(&*model, cli.requests.clamp(1, 64));
        println!(
            "serial-unbatched: {} requests, {:.1} req/s ({:.3} ms/request)",
            report.requests,
            report.throughput_rps,
            1e3 * report.elapsed_secs / report.requests as f64
        );
        Some(report)
    };

    let cfg = LoadConfig {
        requests: cli.requests,
        concurrency: cli.concurrency,
        engine: engine_config(&cli),
    };
    println!(
        "batched engine: max_batch {}, max_wait {} us{}, {} workers, {} clients",
        cli.max_batch,
        cli.max_wait.as_micros(),
        if cli.adaptive { " (adaptive)" } else { "" },
        cli.workers,
        cli.concurrency
    );
    let snapshot = run_load(Arc::clone(&model), &cfg);
    println!("batched: {snapshot}");

    if let Some(serial) = serial {
        println!(
            "speedup: {:.2}x batched over serial-unbatched",
            snapshot.throughput_rps / serial.throughput_rps
        );
    }
    export_trace(&cli);
    if snapshot.dropped_requests > 0 {
        eprintln!(
            "dsx-serve: {} requests were dropped during the run",
            snapshot.dropped_requests
        );
        std::process::exit(1);
    }
}

/// `--listen`: serve the engine over TCP, forever or for `--serve-secs`.
fn run_listen_mode(cli: &Cli, addr: SocketAddr, model: Arc<dyn dsx_nn::Layer>) {
    let mut config = engine_config(cli);
    // Network clients speak the serving model's request shape; declaring it
    // turns a stray shape into a per-request error frame instead of a
    // poisoned batch. (--model checkpoints are validated to this same shape
    // before anything is built.)
    config.request_dims = Some(vec![3, INPUT_HW, INPUT_HW]);
    // With --model, a client's reload frame re-reads the same checkpoint
    // path and hot-swaps the result into the live engine — in-flight
    // batches finish on the old weights, nothing is dropped.
    let reload: Option<ReloadFn> = cli.model.clone().map(|path| {
        let backend = cli.backend;
        Arc::new(move || {
            let ckpt = Checkpoint::load(&path).map_err(|e| e.to_string())?;
            let model = ckpt.build_model(backend).map_err(|e| e.to_string())?;
            Ok(Arc::new(model) as Arc<dyn dsx_nn::Layer>)
        }) as ReloadFn
    });
    let net_config = NetServerConfig {
        max_conns: cli.max_conns,
        idle_timeout: cli.idle_secs.map(Duration::from_secs_f64),
        max_inflight: cli.max_inflight,
        ..NetServerConfig::from(config)
    };
    let server = match NetServer::start_net(&addr.to_string(), model, net_config, reload) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dsx-serve: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The exact line (with the resolved ephemeral port) scripts parse.
    println!("listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Some(every) = cli.stats_every {
        spawn_stats_printer(every, Some(server.stats_arc()));
    }
    match cli.serve_secs {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs));
            let snapshot = server.shutdown();
            println!("served: {snapshot}");
            export_trace(cli);
            if snapshot.dropped_requests > 0 {
                eprintln!(
                    "dsx-serve: {} requests were dropped during the run",
                    snapshot.dropped_requests
                );
                std::process::exit(1);
            }
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

/// `--connect`: drive a remote server and report client-observed numbers.
fn run_connect_mode(cli: &Cli, addr: SocketAddr) {
    println!(
        "net loadgen -> {addr}: {} requests over {} connections",
        cli.requests, cli.concurrency
    );
    let retry = cli.retries.map(|max_attempts| RetryPolicy {
        max_attempts,
        ..RetryPolicy::default()
    });
    let serial = if cli.skip_serial {
        None
    } else {
        let report = dsx_net::run_net_load(
            addr,
            &NetLoadConfig {
                requests: cli.requests.clamp(1, 64),
                concurrency: 1,
                deadline_us: cli.deadline_us,
                retry: retry.clone(),
            },
        );
        println!("net serial (1 connection): {report}");
        Some(report)
    };
    let report = dsx_net::run_net_load(
        addr,
        &NetLoadConfig {
            requests: cli.requests,
            concurrency: cli.concurrency,
            deadline_us: cli.deadline_us,
            retry,
        },
    );
    println!("net batched ({} connections): {report}", cli.concurrency);
    if let Some(serial) = serial {
        println!(
            "speedup: {:.2}x concurrent over single-connection",
            report.throughput_rps / serial.throughput_rps
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_with_no_flags() {
        let cli = parse_cli(&[]).unwrap();
        assert_eq!(cli, Cli::default());
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        let cli = parse_cli(&args(&[
            "--requests",
            "32",
            "--backend=naive",
            "--max-batch=4",
            "--max-wait-us",
            "500",
            "--skip-serial",
        ]))
        .unwrap();
        assert_eq!(cli.requests, 32);
        assert_eq!(cli.backend, BackendKind::Naive);
        assert_eq!(cli.max_batch, 4);
        assert_eq!(cli.max_wait, Duration::from_micros(500));
        assert!(cli.skip_serial);
    }

    #[test]
    fn invalid_backend_is_a_parse_error_not_a_warning() {
        for gone in ["cuda", "tiled", "swsum", "pool", "fir", "simd"] {
            let err = parse_cli(&args(&["--backend", gone])).unwrap_err();
            assert!(err.contains("unknown kernel backend"), "{err}");
        }
    }

    #[test]
    fn unknown_flags_and_missing_values_error_out() {
        assert!(parse_cli(&args(&["--frobnicate"])).is_err());
        assert!(parse_cli(&args(&["--requests"])).is_err());
        assert!(parse_cli(&args(&["--max-batch", "0"])).is_err());
        assert!(parse_cli(&args(&["--requests", "many"])).is_err());
    }

    #[test]
    fn network_addresses_parse_and_validate() {
        let cli = parse_cli(&args(&["--listen", "127.0.0.1:0"])).unwrap();
        assert_eq!(cli.listen.unwrap().port(), 0);
        let cli = parse_cli(&args(&["--connect=127.0.0.1:7878"])).unwrap();
        assert_eq!(cli.connect.unwrap().port(), 7878);
        // Hostnames, bare ports and junk are rejected up front.
        for bad in ["localhost:7878", "7878", "127.0.0.1", "1.2.3.4:notaport"] {
            let err = parse_cli(&args(&["--listen", bad])).unwrap_err();
            assert!(err.contains("socket address"), "{bad}: {err}");
        }
    }

    #[test]
    fn listen_and_connect_are_mutually_exclusive() {
        let err = parse_cli(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--connect",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn serve_secs_requires_listen_and_positivity() {
        assert!(parse_cli(&args(&["--serve-secs", "5"])).is_err());
        assert!(parse_cli(&args(&["--listen", "127.0.0.1:0", "--serve-secs", "0"])).is_err());
        assert!(parse_cli(&args(&["--listen", "127.0.0.1:0", "--serve-secs", "nan"])).is_err());
        let cli = parse_cli(&args(&["--listen", "127.0.0.1:0", "--serve-secs", "2.5"])).unwrap();
        assert_eq!(cli.serve_secs, Some(2.5));
    }

    #[test]
    fn adaptive_conflicts_with_connect_but_not_listen() {
        assert!(parse_cli(&args(&["--connect", "127.0.0.1:1", "--adaptive"])).is_err());
        let cli = parse_cli(&args(&["--listen", "127.0.0.1:0", "--adaptive"])).unwrap();
        assert!(cli.adaptive);
        assert!(engine_config(&cli).adaptive.is_some());
    }

    #[test]
    fn trace_out_parses_and_listen_mode_requires_serve_secs() {
        let cli = parse_cli(&args(&["--trace-out", "/tmp/trace.json"])).unwrap();
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/trace.json"))
        );
        // Connect mode may trace its client-side wire spans.
        assert!(parse_cli(&args(&[
            "--trace-out=/tmp/t.json",
            "--connect",
            "127.0.0.1:1"
        ]))
        .is_ok());
        // A listen-forever server would never export; require --serve-secs.
        let err = parse_cli(&args(&[
            "--trace-out",
            "/tmp/t.json",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("--serve-secs"), "{err}");
        assert!(parse_cli(&args(&[
            "--trace-out",
            "/tmp/t.json",
            "--listen",
            "127.0.0.1:0",
            "--serve-secs",
            "1",
        ]))
        .is_ok());
    }

    #[test]
    fn stats_every_validates_and_conflicts_with_connect() {
        let cli = parse_cli(&args(&["--stats-every", "0.5"])).unwrap();
        assert_eq!(cli.stats_every, Some(0.5));
        assert!(parse_cli(&args(&["--stats-every", "0"])).is_err());
        assert!(parse_cli(&args(&["--stats-every", "inf"])).is_err());
        assert!(parse_cli(&args(&["--stats-every", "soon"])).is_err());
        let err =
            parse_cli(&args(&["--stats-every", "1", "--connect", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
    }

    #[test]
    fn hygiene_flags_parse_and_require_listen() {
        let cli = parse_cli(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "8",
            "--idle-secs",
            "2.5",
            "--max-inflight=4",
        ]))
        .unwrap();
        assert_eq!(cli.max_conns, Some(8));
        assert_eq!(cli.idle_secs, Some(2.5));
        assert_eq!(cli.max_inflight, Some(4));
        // Zero caps and non-positive idle windows are rejected up front.
        assert!(parse_cli(&args(&["--listen", "127.0.0.1:0", "--max-conns", "0"])).is_err());
        assert!(parse_cli(&args(&["--listen", "127.0.0.1:0", "--max-inflight", "0"])).is_err());
        assert!(parse_cli(&args(&["--listen", "127.0.0.1:0", "--idle-secs", "0"])).is_err());
        assert!(parse_cli(&args(&["--listen", "127.0.0.1:0", "--idle-secs", "inf"])).is_err());
        // Server-side knobs without a server to configure: exit 2.
        for flags in [
            ["--max-conns", "8"],
            ["--idle-secs", "2"],
            ["--max-inflight", "4"],
        ] {
            let err = parse_cli(&args(&flags)).unwrap_err();
            assert!(err.contains("--listen"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn resilience_flags_parse_and_require_connect() {
        let cli = parse_cli(&args(&[
            "--connect",
            "127.0.0.1:1",
            "--deadline-us",
            "5000",
            "--retries=4",
        ]))
        .unwrap();
        assert_eq!(cli.deadline_us, 5_000);
        assert_eq!(cli.retries, Some(4));
        // --retries counts total attempts, so 0 is meaningless.
        assert!(parse_cli(&args(&["--connect", "127.0.0.1:1", "--retries", "0"])).is_err());
        // Client-side knobs without a client to shape: exit 2.
        let err = parse_cli(&args(&["--deadline-us", "5000"])).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = parse_cli(&args(&["--retries", "3"])).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = parse_cli(&args(&["--listen", "127.0.0.1:0", "--retries", "3"])).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
    }

    #[test]
    fn model_flag_parses_but_conflicts_with_connect() {
        let cli = parse_cli(&args(&["--model", "/tmp/m.ckpt"])).unwrap();
        assert_eq!(
            cli.model.as_deref(),
            Some(std::path::Path::new("/tmp/m.ckpt"))
        );
        let cli = parse_cli(&args(&["--model=/tmp/m.ckpt", "--listen", "127.0.0.1:0"])).unwrap();
        assert!(cli.model.is_some());
        assert!(parse_cli(&args(&["--model"])).is_err());
        let err = parse_cli(&args(&[
            "--model",
            "/tmp/m.ckpt",
            "--connect",
            "127.0.0.1:1",
        ]))
        .unwrap_err();
        assert!(err.contains("--connect"), "{err}");
    }
}
