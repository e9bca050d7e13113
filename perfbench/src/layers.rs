//! The traced runs: per-layer metrics, each measured from the benchmark's
//! own code by timing calls into one module's public functions. No span is
//! added inside the program.
//!
//! Every traced run reports the same set. The workload's own phase runs
//! twice, plain and with its layer calls timed one by one; the difference
//! is `trace_overhead`. The layers the workload does not drive itself are
//! measured by short standalone probes, so each run covers every module:
//! `dsx-tensor`, `dsx-core`, `dsx-nn`, `dsx-models`/`dsx-data`, `dsx-serve`,
//! `dsx-net`, and the load generator.

use crate::serve::{self, PhaseResult, Server};
use crate::stats::Summary;
use crate::workloads::{
    self, build_mobilenet, check_against_naive, check_losses, check_train_step, mobilenet_spec,
    setup_infer, setup_train, sub_seed, timed, train_loop, InferState, ServeInputs, TrainState,
    HEAVY_RPS, LIGHT_RPS,
};
use crate::{Args, Outcome};
use dsx_core::{BackendKind, SccImplementation, SlidingChannelConv2d};
use dsx_gpusim::{backward_pass_time, estimate_training_step, GpuModel};
use dsx_models::build_model_with_backend;
use dsx_net::protocol::{read_frame, write_frame};
use dsx_net::Frame;
use dsx_nn::{accuracy, Layer, Sequential};
use dsx_tensor::{par, pool, GemmKernel, Tensor};
use std::hint::black_box;
use std::process::Command;

/// Layer kinds `nn.infer.*` groups `Sequential::layers()` into.
const KINDS: [&str; 6] = ["conv", "dwconv", "scc", "bn", "relu", "head"];
const INFER_B1: [&str; 6] = [
    "nn.infer.b1.conv_ms",
    "nn.infer.b1.dwconv_ms",
    "nn.infer.b1.scc_ms",
    "nn.infer.b1.bn_ms",
    "nn.infer.b1.relu_ms",
    "nn.infer.b1.head_ms",
];
const INFER_B32: [&str; 6] = [
    "nn.infer.b32.conv_ms",
    "nn.infer.b32.dwconv_ms",
    "nn.infer.b32.scc_ms",
    "nn.infer.b32.bn_ms",
    "nn.infer.b32.relu_ms",
    "nn.infer.b32.head_ms",
];
/// The serving tower reports its four convolution-side kinds.
const TOWER_B1: [&str; 4] = [
    "nn.tower.b1.conv_ms",
    "nn.tower.b1.dwconv_ms",
    "nn.tower.b1.scc_ms",
    "nn.tower.b1.bn_ms",
];
const TOWER_B8: [&str; 4] = [
    "nn.tower.b8.conv_ms",
    "nn.tower.b8.dwconv_ms",
    "nn.tower.b8.scc_ms",
    "nn.tower.b8.bn_ms",
];
/// Keys the tower probe child prints (it runs with the binary's
/// single-threaded pool, so the serve workload takes its launch and job
/// counts from there too).
const TOWER_KEYS: [&str; 12] = [
    "nn.tower.b1.conv_ms",
    "nn.tower.b1.dwconv_ms",
    "nn.tower.b1.scc_ms",
    "nn.tower.b1.bn_ms",
    "nn.tower.b8.conv_ms",
    "nn.tower.b8.dwconv_ms",
    "nn.tower.b8.scc_ms",
    "nn.tower.b8.bn_ms",
    "tensor.gemm.tower_b1_us",
    "tensor.gemm.tower_b8_us",
    "tensor.par.launch_us",
    "tensor.pool.jobs_per_call",
];
const PAPER_KEYS: [&str; 4] = [
    "paper.scc_train_ms.pytorch_base",
    "paper.scc_train_ms.pytorch_opt",
    "paper.scc_train_ms.dsxplore_var",
    "paper.scc_train_ms.dsxplore",
];

/// Seconds of the serve probe's r100 and r125 phases when the workload
/// itself does not serve.
const PROBE_LIGHT_S: f64 = 3.0;
const PROBE_HEAVY_S: f64 = 2.0;

/// Which kind a layer of a built model is, by its `Layer::name`.
fn kind_of(name: &str) -> usize {
    if name.starts_with("DepthwiseConv") {
        1
    } else if name.starts_with("SccConv2d") {
        2
    } else if name.starts_with("BatchNorm2d") {
        3
    } else if name.starts_with("ReLU") {
        4
    } else if name.contains("Conv") {
        0
    } else {
        5
    }
}

/// One `Sequential::infer` done layer by layer, each call timed; returns
/// the output and milliseconds per kind.
fn infer_by_layer(model: &Sequential, x: &Tensor) -> (Tensor, [f64; 6]) {
    let mut per_kind = [0.0; 6];
    let mut cur = x.clone();
    for layer in model.layers() {
        let (ms, next) = timed(|| layer.infer(&cur));
        per_kind[kind_of(&layer.name())] += ms;
        cur = next;
    }
    (cur, per_kind)
}

/// Median per-kind milliseconds over `passes` layer-by-layer passes.
fn per_kind_medians(model: &Sequential, inputs: &[Tensor], passes: usize) -> [f64; 6] {
    let mut samples: [Vec<f64>; 6] = Default::default();
    for i in 0..passes {
        let (_, per_kind) = infer_by_layer(model, &inputs[i % inputs.len()]);
        for (k, ms) in per_kind.into_iter().enumerate() {
            samples[k].push(ms);
        }
    }
    samples.map(|s| Summary::new(s).p50())
}

fn push_kinds(out: &mut Outcome, keys: &[&'static str], ms: &[f64], what: &str) {
    for (key, (&v, kind)) in keys.iter().zip(ms.iter().zip(KINDS)) {
        out.push(
            key,
            v,
            "ms",
            format!("{what}: {kind} layers per call, median"),
        );
    }
}

/// The traced training loop: `train_step`'s four calls timed one by one.
/// Returns `(step ms, loss)` per step and per-call samples
/// `[forward, loss, backward, sgd]`.
fn traced_train_loop(st: &mut TrainState, secs: f64) -> (Vec<(f64, f32)>, [Vec<f64>; 4]) {
    let start = std::time::Instant::now();
    let mut steps = Vec::new();
    let mut calls: [Vec<f64>; 4] = Default::default();
    while steps.is_empty() || start.elapsed().as_secs_f64() < secs {
        let batch = &st.b32[steps.len() % st.b32.len()];
        let model = &mut st.model32;
        let (fwd, logits) = timed(|| model.forward(&batch.images, true));
        let (loss_ms, (loss, grad)) = timed(|| {
            let (loss, grad) = st.loss.forward(&logits, &batch.labels);
            black_box(accuracy(&logits, &batch.labels));
            (loss, grad)
        });
        let (bwd, ()) = timed(|| {
            model.zero_grad();
            black_box(model.backward(&grad));
        });
        let (sgd, ()) = timed(|| st.opt32.step(model));
        for (v, ms) in calls.iter_mut().zip([fwd, loss_ms, bwd, sgd]) {
            v.push(ms);
        }
        steps.push((fwd + loss_ms + bwd + sgd, loss));
    }
    (steps, calls)
}

fn push_train_calls(out: &mut Outcome, calls: &[Vec<f64>; 4]) {
    let keys = [
        "nn.train.forward_ms",
        "nn.train.loss_ms",
        "nn.train.backward_ms",
        "nn.train.sgd_ms",
    ];
    for (key, v) in keys.into_iter().zip(calls) {
        let s = Summary::new(v.clone());
        out.push(
            key,
            s.p50(),
            "ms",
            format!("b32 train step, median (n={})", s.n()),
        );
    }
}

/// Pool jobs dispatched per call of `f`, over `calls` calls.
fn jobs_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let before = pool::stats().jobs;
    for i in 0..calls {
        f(i);
    }
    (pool::stats().jobs - before) as f64 / calls as f64
}

/// Mean microseconds of one minimal pool launch at the current thread
/// setting (2048 no-op iterations, above the inline threshold).
fn launch_us() -> f64 {
    const REPS: usize = 2000;
    let (ms, ()) = timed(|| {
        for _ in 0..REPS {
            par::parallel_for(2 * par::MIN_CHUNK, |i| {
                black_box(i);
            });
        }
    });
    ms * 1e3 / REPS as f64
}

/// MobileNet's SCC layer shapes: `(config, plane edge)`.
fn scc_shapes() -> Vec<(dsx_core::SccConfig, usize)> {
    mobilenet_spec()
        .scc_layers()
        .into_iter()
        .filter_map(|l| l.scc_config().map(|cfg| (cfg, l.in_hw)))
        .collect()
}

/// One forward and one backward of a standalone `SlidingChannelConv2d` per
/// MobileNet SCC shape at `batch`: summed `(forward ms, backward ms)`.
fn scc_pass(seed: u64, batch: usize, imp: SccImplementation) -> (f64, f64) {
    let (mut fwd, mut bwd) = (0.0, 0.0);
    for (i, (cfg, hw)) in scc_shapes().into_iter().enumerate() {
        let s = sub_seed(seed, 500 + i as u64);
        let x = Tensor::randn(&[batch, cfg.cin(), hw, hw], s);
        let g = Tensor::randn(&[batch, cfg.cout(), hw, hw], s ^ 1);
        let layer = SlidingChannelConv2d::with_seed(cfg, s ^ 2)
            .with_implementation(imp)
            .with_backend(BackendKind::Blocked);
        let (ms, y) = timed(|| layer.forward(&x));
        fwd += ms;
        black_box(y);
        let (ms, grads) = timed(|| layer.backward(&x, &g));
        bwd += ms;
        black_box(grads);
    }
    (fwd, bwd)
}

/// `dsx-core`: the DSXplore kernels over MobileNet's SCC shapes at batch
/// 32; and the paper rows (Figs. 7 and 9): every implementation at batch
/// 8, next to the `dsx-gpusim` V100 prediction for the same spec.
fn scc_and_paper(out: &mut Outcome, seed: u64) {
    const BATCH: usize = 32;
    // The paper rows include the slow compositions, so a smaller batch.
    const PAPER_BATCH: usize = 8;
    let shapes = scc_shapes();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (f, b) = scc_pass(seed, BATCH, SccImplementation::Dsxplore);
        fwd.push(f);
        bwd.push(b);
    }
    let (f, b) = (Summary::new(fwd).p50(), Summary::new(bwd).p50());
    let macs: usize = shapes
        .iter()
        .map(|(cfg, hw)| cfg.forward_macs(BATCH, *hw))
        .sum();
    let what = format!("{} MobileNet SCC shapes, b32, median of 3", shapes.len());
    out.push("core.scc.fwd_ms", f, "ms", what.clone());
    out.push("core.scc.bwd_ms", b, "ms", what);
    out.push(
        "core.scc.fwd_gmacs_per_s",
        macs as f64 / (f / 1e3) / 1e9,
        "GMAC/s",
        format!("{:.1} MMACs computed per forward", macs as f64 / 1e6),
    );

    let spec = mobilenet_spec();
    let gpu = GpuModel::v100();
    let mut train_ms = [0.0; 4];
    for (j, imp) in SccImplementation::ALL.into_iter().enumerate() {
        let (f, b) = scc_pass(seed, PAPER_BATCH, imp);
        train_ms[j] = f + b;
        println!(
            "report: paper {:<13} cpu fwd+bwd {:>9.2} ms, bwd {:>9.2} ms | gpusim v100 step(SCC layers) {:>7.3} ms, bwd {:>7.3} ms",
            imp.name(),
            f + b,
            b,
            estimate_training_step(&gpu, &spec, PAPER_BATCH, imp).fusion_s * 1e3,
            backward_pass_time(&gpu, &spec, PAPER_BATCH, imp) * 1e3,
        );
    }
    for (key, ms) in PAPER_KEYS.into_iter().zip(train_ms) {
        out.push(key, ms, "ms", "SCC fwd+bwd over MobileNet's SCC shapes, b8");
    }
    // The paper's order (Figs. 7 and 9): Base > Opt > Var > DSXplore.
    let order_ok = train_ms.windows(2).all(|w| w[0] > w[1]);
    out.push(
        "paper.order_ok",
        f64::from(u8::from(order_ok)),
        "bool",
        "measured CPU order matches Pytorch-Base > Pytorch-Opt > DSXplore-Var > DSXplore",
    );
}

/// `dsx-models` / `dsx-data`: one MobileNet build and one batch of data,
/// medians of three.
fn build_and_gen(out: &mut Outcome, seed: u64) {
    let mut build = Vec::new();
    let mut gen = Vec::new();
    for i in 0..3 {
        let (ms, m) = timed(|| build_mobilenet(sub_seed(seed, 700 + i), BackendKind::Blocked));
        build.push(ms);
        black_box(m);
        let (ms, d) = timed(|| dsx_data::cifar_like(256, 32, 1, sub_seed(seed, 710 + i)));
        gen.push(ms);
        black_box(d);
    }
    out.push(
        "models.build_ms",
        Summary::new(build).p50(),
        "ms",
        "MobileNet DW+SCC build, median of 3",
    );
    out.push(
        "data.gen_ms",
        Summary::new(gen).p50(),
        "ms",
        "cifar_like 256+32 images, median of 3",
    );
}

/// `dsx-net`: one request and one response frame written and read back in
/// memory, median of many.
fn codec_us(out: &mut Outcome, si: &ServeInputs) {
    let req = Frame::Request {
        id: 7,
        deadline_us: 0,
        tensor: si.inputs[0].clone(),
    };
    let resp = Frame::Response {
        id: 7,
        tensor: Tensor::randn(&[1, 10], 3),
    };
    let mut samples = Vec::new();
    let mut buf = Vec::with_capacity(1024);
    for _ in 0..2000 {
        let (ms, ok) = timed(|| {
            let mut ok = true;
            for frame in [&req, &resp] {
                buf.clear();
                ok &= write_frame(&mut buf, frame).is_ok();
                ok &= read_frame(&mut buf.as_slice()).is_ok_and(|f| &f == frame);
            }
            ok
        });
        out.check(ok, || "DSXN frame did not round-trip".into());
        samples.push(ms * 1e3);
    }
    let s = Summary::new(samples);
    out.push(
        "net.codec_us",
        s.p50(),
        "us",
        format!("write+read of a request and a response (n={})", s.n()),
    );
}

/// Runs the tower probe child and reads its metrics.
fn tower(out: &mut Outcome, args: &Args, serve_workload: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--tower-probe", "--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("tower probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("tower probe exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .filter(|l| l.starts_with("report:"))
        .for_each(|l| println!("{l}"));
    for key in TOWER_KEYS {
        let in_process = matches!(key, "tensor.par.launch_us" | "tensor.pool.jobs_per_call");
        if in_process && !serve_workload {
            continue;
        }
        let value = text
            .lines()
            .filter_map(|l| l.strip_prefix("tower "))
            .find_map(|l| {
                l.strip_prefix(key)
                    .and_then(|v| v.trim().parse::<f64>().ok())
            })
            .ok_or(format!("tower probe did not report {key}"))?;
        let (unit, what) = match key {
            k if k.ends_with("_us") && k.starts_with("tensor.gemm") => {
                ("us", "RegTiled GEMMs of the three dense 3x3 layers, median")
            }
            "tensor.par.launch_us" => ("us", "parallel_for(2048) at --par-threads 1"),
            "tensor.pool.jobs_per_call" => {
                ("count", "pool jobs per b8 tower call at --par-threads 1")
            }
            _ => ("ms", "ServeTower256x3 at --par-threads 1, per call, median"),
        };
        out.push(key, value, unit, what);
    }
    Ok(())
}

/// The tower probe (a child process, so the workload process never sets a
/// thread count): the serving tower with the `dsx-serve` defaults — the
/// `blocked` backend and a single-threaded pool — layer by layer, plus its
/// dense-3×3 GEMM shapes.
pub fn tower_probe(seed: u64) {
    par::set_num_threads(1);
    let spec = dsx_serve::serving_spec();
    let model = build_model_with_backend(
        &spec,
        0x5E21E,
        SccImplementation::Dsxplore,
        BackendKind::Blocked,
    );
    let hw = dsx_serve::loadgen::INPUT_HW;
    let b1: Vec<Tensor> = (0..4)
        .map(|i| Tensor::randn(&[1, 3, hw, hw], seed ^ i))
        .collect();
    let b8: Vec<Tensor> = (0..4)
        .map(|i| Tensor::randn(&[8, 3, hw, hw], seed ^ (9 + i)))
        .collect();
    black_box(model.infer(&b8[0]));
    for (keys, inputs, passes) in [(TOWER_B1, &b1, 200), (TOWER_B8, &b8, 100)] {
        let ms = per_kind_medians(&model, inputs, passes);
        for (key, v) in keys.iter().zip(ms) {
            println!("tower {key} {v}");
        }
    }
    for (key, batch) in [
        ("tensor.gemm.tower_b1_us", 1),
        ("tensor.gemm.tower_b8_us", 8),
    ] {
        let (mut flops, mut bytes) = (0usize, 0usize);
        let gemms: Vec<(Tensor, Tensor)> = spec
            .convs
            .iter()
            .filter(|c| c.name.starts_with("dense"))
            .map(|c| {
                let (m, k, n) = (c.cout, c.cin * 9, batch * c.out_hw() * c.out_hw());
                flops += 2 * m * k * n;
                bytes += 4 * (m * k + k * n + m * n);
                (
                    Tensor::randn(&[m, k], seed ^ 21),
                    Tensor::randn(&[k, n], seed ^ 22),
                )
            })
            .collect();
        let samples = (0..200)
            .map(|_| {
                gemms
                    .iter()
                    .map(|(a, b)| timed(|| black_box(a.matmul_with(b, GemmKernel::RegTiled))).0)
                    .sum::<f64>()
                    * 1e3
            })
            .collect();
        let us = Summary::new(samples).p50();
        println!("tower {key} {us}");
        println!(
            "report: {key}: {:.2} MFLOP, {:.2} MB computed; {:.2} GFLOP/s",
            flops as f64 / 1e6,
            bytes as f64 / 1e6,
            flops as f64 / us / 1e3
        );
    }
    println!("tower tensor.par.launch_us {}", launch_us());
    let jobs = jobs_per_call(20, |i| {
        black_box(model.infer(&b8[i % b8.len()]));
    });
    println!("tower tensor.pool.jobs_per_call {jobs}");
}

/// `dsx-serve` / `dsx-net` / load generator: one traced fixed-rate phase
/// on a fresh server, with the server's stats read on a second connection
/// before and after (outside the phase, so observing adds no load to it).
fn traced_phase(
    out: &mut Outcome,
    args: &Args,
    si: &ServeInputs,
    rate: f64,
    secs: f64,
    stream: u64,
) -> Result<(PhaseResult, [f64; 7]), String> {
    let server = Server::spawn(&args.serve_bin, &si.inputs[0])?;
    let before = server.stats()?;
    let phase = workloads::fixed_phase(args, &server, si, rate, secs, stream)?;
    let after = server.stats()?;
    let name = if rate == LIGHT_RPS { "r100" } else { "r125" };
    workloads::check_phase(out, name, &phase, si);
    let d = |k: &str| serve::delta(&before, &after, k);
    let get = |k: &str| after.get(k).unwrap_or(0) as f64;
    // Each phase has its own server, so its latency histogram holds the
    // phase plus the one set-up request.
    let stats = [
        get("serve.latency.p50_us") / 1e3,
        get("serve.latency.p99_us") / 1e3,
        d("serve.requests") / d("serve.batches").max(1.0),
        d("serve.shed_requests"),
        d("serve.dropped_requests"),
        d("net.conn.rejected_busy") + d("net.req.rejected_inflight"),
        d("net.write_timeouts"),
    ];
    Ok((phase, stats))
}

/// The serve-stack metrics from a traced r100 and r125 phase.
fn serve_layers(
    out: &mut Outcome,
    args: &Args,
    si: &ServeInputs,
    light_s: f64,
    heavy_s: f64,
) -> Result<PhaseResult, String> {
    let (light, ls) = traced_phase(out, args, si, LIGHT_RPS, light_s, 40)?;
    let (heavy, hs) = traced_phase(out, args, si, HEAVY_RPS, heavy_s, 50)?;
    let (lp, hp) = (light.latency(), heavy.latency());
    for (keys, st, client, name) in [
        (
            [
                "serve.r100.engine_p50_ms",
                "serve.r100.engine_p99_ms",
                "serve.r100.batch_mean",
                "net.r100.overhead_p50_ms",
            ],
            ls,
            &lp,
            "r100",
        ),
        (
            [
                "serve.r125.engine_p50_ms",
                "serve.r125.engine_p99_ms",
                "serve.r125.batch_mean",
                "net.r125.overhead_p50_ms",
            ],
            hs,
            &hp,
            "r125",
        ),
    ] {
        out.push(
            keys[0],
            st[0],
            "ms",
            format!("{name}: engine queue-to-response p50"),
        );
        out.push(
            keys[1],
            st[1],
            "ms",
            format!("{name}: engine queue-to-response p99"),
        );
        out.push(
            keys[2],
            st[2],
            "count",
            format!("{name}: requests per batch"),
        );
        out.push(
            keys[3],
            client.p50() - st[0],
            "ms",
            format!("{name}: client p50 {:.3} ms minus engine p50", client.p50()),
        );
    }
    let sum = |i: usize| ls[i] + hs[i];
    out.push("serve.shed", sum(3), "count", "requests shed (r100 + r125)");
    out.push(
        "serve.dropped",
        sum(4),
        "count",
        "requests dropped (r100 + r125)",
    );
    out.push(
        "net.rejected",
        sum(5),
        "count",
        "connections + requests refused (r100 + r125)",
    );
    out.push(
        "net.write_timeouts",
        sum(6),
        "count",
        "server write timeouts (r100 + r125)",
    );
    let late = Summary::new(
        light
            .late_ms
            .iter()
            .chain(&heavy.late_ms)
            .copied()
            .collect(),
    );
    out.push(
        "gen.late_p99_ms",
        late.quantile(0.99),
        "ms",
        format!("send lateness p99 (n={})", late.n()),
    );
    out.push("gen.late_max_ms", late.max(), "ms", "send lateness max");
    Ok(light)
}

/// `nn.train.*` from a short traced training loop (workloads other than
/// training).
fn train_probe(out: &mut Outcome, seed: u64) {
    let mut st = setup_train(seed);
    let (steps, calls) = traced_train_loop(&mut st, 2.0);
    check_losses(out, "train probe", &steps);
    push_train_calls(out, &calls);
}

/// `nn.infer.*` from layer-by-layer passes (workloads other than
/// inference, and the batch-32 half of inference's own traced run).
fn infer_kinds(out: &mut Outcome, st: &InferState, b1_passes: usize) {
    if b1_passes > 0 {
        let ms = per_kind_medians(&st.model, &st.singles, b1_passes);
        push_kinds(out, &INFER_B1, &ms, "b1");
    }
    let ms = per_kind_medians(&st.model, &st.batches, 3);
    push_kinds(out, &INFER_B32, &ms, "b32");
}

/// Relative slowdown of the traced run, in percent.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// Dispatches the traced run of a workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let si = workloads::serve_inputs(args.seed);
    let serving = args.workload == "serve-tower-open";
    match args.workload.as_str() {
        "train-mobilenet" => {
            let mut st = setup_train(args.seed);
            let jobs_before = pool::stats().jobs;
            let plain = train_loop(
                &mut st.model32,
                &mut st.opt32,
                &st.loss,
                &st.b32,
                &mut 0,
                args.seconds / 2.0,
            );
            let jobs = (pool::stats().jobs - jobs_before) as f64 / plain.len() as f64;
            let (traced, calls) = traced_train_loop(&mut st, args.seconds / 2.0);
            check_losses(&mut out, "b32", &plain);
            check_losses(&mut out, "b32 traced", &traced);
            check_train_step(&mut out, args.seed, &st);
            let step_ms = |s: &[(f64, f32)]| s.iter().map(|x| x.0).sum::<f64>() / s.len() as f64;
            out.push(
                "trace_overhead",
                overhead_pct(step_ms(&plain), step_ms(&traced)),
                "%",
                format!(
                    "b32 mean step, traced vs plain ({} vs {} steps)",
                    traced.len(),
                    plain.len()
                ),
            );
            out.push(
                "tensor.pool.jobs_per_call",
                jobs,
                "count",
                "pool jobs per b32 train_step",
            );
            push_train_calls(&mut out, &calls);
            let ist = setup_infer(args.seed);
            infer_kinds(&mut out, &ist, 10);
            serve_layers(&mut out, args, &si, PROBE_LIGHT_S, PROBE_HEAVY_S)?;
        }
        "infer-mobilenet" => {
            let st = setup_infer(args.seed);
            let jobs = jobs_per_call(3, |i| {
                black_box(st.model.infer(&st.singles[i % st.singles.len()]));
            });
            let plain = workloads::infer_loop(&st.model, &st.singles, args.seconds / 2.0, &mut out);
            let start = std::time::Instant::now();
            let mut traced = Vec::new();
            let mut kinds: [Vec<f64>; 6] = Default::default();
            while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
                let x = &st.singles[traced.len() % st.singles.len()];
                let (ms, (y, per_kind)) = timed(|| infer_by_layer(&st.model, x));
                out.check(
                    y.shape() == [1, 10] && y.find_non_finite().is_none(),
                    || "traced infer output malformed".into(),
                );
                traced.push(ms);
                for (k, v) in per_kind.into_iter().enumerate() {
                    kinds[k].push(v);
                }
            }
            let (p, t) = (Summary::new(plain), Summary::new(traced));
            out.push(
                "trace_overhead",
                overhead_pct(p.p50(), t.p50()),
                "%",
                format!(
                    "b1 call p50, traced vs plain ({} vs {} calls)",
                    t.n(),
                    p.n()
                ),
            );
            out.push(
                "tensor.pool.jobs_per_call",
                jobs,
                "count",
                "pool jobs per b1 infer call",
            );
            push_kinds(
                &mut out,
                &INFER_B1,
                &kinds.map(|k| Summary::new(k).p50()),
                "b1",
            );
            infer_kinds(&mut out, &st, 0);
            check_against_naive(&mut out, args.seed, &st);
            train_probe(&mut out, args.seed);
            serve_layers(&mut out, args, &si, PROBE_LIGHT_S, PROBE_HEAVY_S)?;
        }
        _ => {
            // Plain r100 on its own server, then the traced r100 and r125.
            let srv = Server::spawn(&args.serve_bin, &si.inputs[0])?;
            let plain = workloads::fixed_phase(args, &srv, &si, LIGHT_RPS, args.seconds / 3.0, 30)?;
            drop(srv);
            workloads::check_phase(&mut out, "r100 plain", &plain, &si);
            let traced = serve_layers(&mut out, args, &si, args.seconds / 3.0, args.seconds / 6.0)?;
            out.push(
                "trace_overhead",
                overhead_pct(plain.latency().p50(), traced.latency().p50()),
                "%",
                "r100 client p50, traced vs plain",
            );
            let ist = setup_infer(args.seed);
            infer_kinds(&mut out, &ist, 10);
            train_probe(&mut out, args.seed);
        }
    }
    if !serving {
        out.push(
            "tensor.par.launch_us",
            launch_us(),
            "us",
            "parallel_for(2048) at the default thread count",
        );
    }
    tower(&mut out, args, serving)?;
    scc_and_paper(&mut out, args.seed);
    build_and_gen(&mut out, args.seed);
    codec_us(&mut out, &si);
    Ok(out)
}
