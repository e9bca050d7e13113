//! The three workloads' untraced (end-to-end) runs, and the set-up and
//! measurement pieces the traced runs reuse.
//!
//! Every workload reports the same eight end-to-end metrics; each fills them
//! from its own phases:
//!
//! | metric             | train-mobilenet  | infer-mobilenet | serve-tower-open |
//! |--------------------|------------------|-----------------|------------------|
//! | `throughput_per_s` | b32 img/s        | b32 img/s       | max rps (ladder) |
//! | `light_p50_ms`     | b32 step³        | b1 call         | r100 request     |
//! | `light_tail_ms`    | b32 step p50¹³   | b1 call p75     | r100 p75²        |
//! | `heavy_p50_ms`     | b32 step         | b32 call        | r125 request     |
//! | `heavy_tail_ms`    | b32 step p50¹    | b32 call p50¹   | r125 p75²        |
//!
//! ¹ A tail is the highest of p99/p95/p90/p75/p50 with at least ten samples
//! beyond it at the seed commit's speed; these phases run too few calls for
//! more than the median, so their tail is the median. The percentile is
//! fixed per phase so that a faster program is not charged a higher one.
//!
//! ² Serve latencies are medians over [`SERVE_ROUNDS`] rounds of each round's
//! value, and the tail is p75 (see [`SERVE_TAIL_Q`]).
//!
//! ³ Training has one phase, so its light and heavy metrics report the
//! same steps. (A batch-8 phase was tried as the light one: its step time
//! spread by 26% across seeds, past the bound.)

use crate::serve::{self, PhaseResult, Server};
use crate::stats::step_passes;
use crate::stats::{backlog_allowance, beyond, highest_supported, knee_rate, ladder_next};
use crate::stats::{LadderMove, LADDER_LIMIT_MS};
use crate::stats::{SplitMix, StepOutcome, Summary};
use crate::{Args, Outcome};
use dsx_core::{BackendKind, SccImplementation};
use dsx_models::{build_model_with_backend, mobilenet, ConvScheme, Dataset, ModelSpec};
use dsx_nn::{train_step, Batch, CrossEntropyLoss, Layer, Sequential, Sgd};
use dsx_serve::loadgen::INPUT_HW;
use dsx_tensor::{allclose, Tensor, TEST_TOLERANCE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Training images generated per set-up (eight batches of 32).
const TRAIN_IMAGES: usize = 256;

/// Distinct batch-1 inputs the inference workload cycles through.
const INFER_SINGLES: usize = 16;

/// Distinct serving requests the open-loop generator cycles through.
const SERVE_INPUTS: usize = 256;

/// Requests per fixed-rate phase whose outputs are checked in-process.
const SERVE_SAMPLES: usize = 16;

/// The `dsx-serve` defaults the serve workload runs under (the ladder's
/// backlog slack is one full batch per worker).
const SERVE_MAX_BATCH: usize = 8;

/// Rate-ladder step and first rate, requests per second.
const LADDER_STEP: f64 = 25.0;
const LADDER_FIRST: f64 = 100.0;

/// Seconds per ladder step. A step after one whose tail stayed under half
/// the limit is a short sanity check; near the knee a step runs longer, so
/// its p99 rests on ~800 requests and outlasts a burst of host steal.
fn ladder_step_s(prev: Option<&StepOutcome>) -> f64 {
    match prev {
        Some(step) if step.tail_ms >= LADDER_LIMIT_MS / 2.0 => 2.0,
        _ => 0.4,
    }
}

/// The two fixed rates, requests per second. The knee measured on a 2-core
/// host at the seed commit was 250–500 req/s, so 300 req/s sat at it. The
/// batch-1 service time (~10 ms) already keeps the host half busy at 125
/// req/s; at 150 req/s queueing amplified the host's run-to-run speed
/// drift so that the p90 spread by 29% across seeds.
pub const LIGHT_RPS: f64 = 100.0;
pub const HEAVY_RPS: f64 = 125.0;

/// Rounds per run: the inference workload alternates its two phases this
/// many times, so both phases see the whole run.
const ROUNDS: usize = 5;

/// Rounds of the serve workload's fixed-rate phases, each on a fresh
/// server. The host the benchmark was written on loses 10–20% of its CPU
/// to steal in bursts of seconds, so the serve latencies are the median
/// over rounds of each round's value: a slow round or two does not move
/// them.
const SERVE_ROUNDS: usize = 8;

/// Shares of `--seconds` for the light phase and the heavy phase; the
/// ladder gets the rest (20 s at 30 s). At 30 s a round sends ~60 to 75
/// requests, so a round's p75 has at least 15 samples beyond it.
const LIGHT_SHARE: f64 = 6.0 / 30.0;
const HEAVY_SHARE: f64 = 4.0 / 30.0;

/// The serve workload's tail percentile. The pooled p99 (printed beside
/// it) is set by the host's steal bursts and swung 40–140 ms across seeds
/// at 100 req/s; the median-of-rounds p90 still spread by 16% at 100 req/s
/// and 29% at 150 req/s, past the bound a gate can use.
const SERVE_TAIL_Q: f64 = 0.75;

/// Derives an independent sub-seed for one use of the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The paper's MobileNet CIFAR-10 with its default DW+SCC scheme
/// (cg 2, co 50%), full width.
pub fn mobilenet_spec() -> ModelSpec {
    mobilenet(Dataset::Cifar10, ConvScheme::DSXPLORE_DEFAULT)
}

/// MobileNet on the `blocked` backend (the `dsx-serve` default), passed
/// explicitly so the process-wide default backend is never touched.
pub fn build_mobilenet(seed: u64, backend: BackendKind) -> Sequential {
    build_model_with_backend(
        &mobilenet_spec(),
        seed,
        SccImplementation::Dsxplore,
        backend,
    )
}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Runs `setup` [`SETUPS`] times, keeping the last state; returns it with
/// the median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let mut last = setup();
    let mut secs = vec![t.elapsed().as_secs_f64()];
    for _ in 1..SETUPS {
        let t = Instant::now();
        last = setup();
        secs.push(t.elapsed().as_secs_f64());
    }
    (last, Summary::new(secs).p50())
}

/// The training workload's state. The batch-8 batches feed only the
/// one-step parity check, where the `naive` backend is slow.
pub struct TrainState {
    pub model32: Sequential,
    pub opt32: Sgd,
    pub b8: Vec<Batch>,
    pub b32: Vec<Batch>,
    pub loss: CrossEntropyLoss,
}

/// SGD as the paper trains CIFAR-10 at batch 32; other batch sizes scale
/// the learning rate linearly.
fn paper_sgd(batch: usize) -> Sgd {
    Sgd::with_config(0.05 * batch as f32 / 32.0, 0.9, 5e-4)
}

/// Builds the model, generates the data and runs one untimed step.
pub fn setup_train(seed: u64) -> TrainState {
    let model32 = build_mobilenet(sub_seed(seed, 2), BackendKind::Blocked);
    let data = dsx_data::cifar_like(TRAIN_IMAGES, 32, 1, sub_seed(seed, 3));
    let to_batches = |size| {
        data.train
            .batches(size)
            .into_iter()
            .map(|(x, y)| Batch::new(x, y))
            .collect::<Vec<_>>()
    };
    let mut state = TrainState {
        model32,
        opt32: paper_sgd(32),
        b8: to_batches(8),
        b32: to_batches(32),
        loss: CrossEntropyLoss::new(),
    };
    // The first call is untimed warm-up, and part of set-up.
    let last = &state.b32[state.b32.len() - 1];
    black_box(train_step(
        &mut state.model32,
        &mut state.opt32,
        &state.loss,
        last,
    ));
    state
}

/// Closed-loop `train_step`s until `secs` have passed, taking batches in
/// turn from `*next` on: `(step ms, loss)` per step.
pub fn train_loop(
    model: &mut Sequential,
    opt: &mut Sgd,
    loss: &CrossEntropyLoss,
    batches: &[Batch],
    next: &mut usize,
    secs: f64,
) -> Vec<(f64, f32)> {
    let start = Instant::now();
    let mut steps = Vec::new();
    while steps.is_empty() || start.elapsed().as_secs_f64() < secs {
        let batch = &batches[*next % batches.len()];
        *next += 1;
        let (ms, m) = timed(|| train_step(model, opt, loss, batch));
        steps.push((ms, m.loss));
    }
    steps
}

/// Output check on a training run: every loss finite.
pub fn check_losses(out: &mut Outcome, phase: &str, steps: &[(f64, f32)]) {
    for (i, (_, loss)) in steps.iter().enumerate() {
        out.check(loss.is_finite(), || {
            format!("{phase} step {i}: loss {loss}")
        });
    }
}

/// Output check that a training step is right: from the same weights, one
/// batch-8 `train_step` on the `blocked` backend and on the `naive`
/// reference backend give the same loss, and the updated models the same
/// outputs, within `dsx_tensor::TEST_TOLERANCE`.
///
/// (A loss-descent check does not fit a 30 s run: with the paper's lr 0.05
/// and momentum 0.9 the loss first rises for one to two dozen steps before
/// it falls — one seed's mean loss over four batches went 2.42 → 3.58 by
/// step 16 and 0.29 by step 32 — and a run makes about a dozen.)
pub fn check_train_step(out: &mut Outcome, seed: u64, st: &TrainState) {
    let loss = CrossEntropyLoss::new();
    let mut results = Vec::new();
    for backend in [BackendKind::Blocked, BackendKind::Naive] {
        let mut model = build_mobilenet(sub_seed(seed, 5), backend);
        let mut opt = paper_sgd(8);
        let m = train_step(&mut model, &mut opt, &loss, &st.b8[0]);
        results.push((m.loss, model.infer(&st.b8[1].images)));
    }
    let ((fast_loss, fast_out), (ref_loss, ref_out)) = (&results[0], &results[1]);
    let tol = TEST_TOLERANCE * fast_loss.abs().max(1.0);
    out.check((fast_loss - ref_loss).abs() <= tol, || {
        format!("train step loss {fast_loss} differs from the naive backend's {ref_loss}")
    });
    out.check(allclose(fast_out, ref_out, TEST_TOLERANCE), || {
        format!(
            "after one train step the model differs from the naive backend's by {}",
            dsx_tensor::max_abs_diff(fast_out, ref_out)
        )
    });
}

/// Pushes the two latency metrics of one phase.
fn push_latency(
    out: &mut Outcome,
    keys: (&'static str, &'static str),
    s: &Summary,
    tail_q: f64,
    what: &str,
) {
    let n = s.n();
    out.push(keys.0, s.p50(), "ms", format!("{what} p50 (n={n})"));
    let pct = |q: f64| format!("p{}", (q * 100.0).round());
    let supports = highest_supported(n).map_or("none".into(), pct);
    out.push(
        keys.1,
        s.quantile(tail_q),
        "ms",
        format!(
            "{what} {} (n={n}, {} beyond; the sample supports {supports})",
            pct(tail_q),
            beyond(n, tail_q)
        ),
    );
}

/// Pushes a fixed-rate serve phase's latency metrics: the median over
/// rounds of each round's p50 and tail.
fn push_round_latency(
    out: &mut Outcome,
    keys: (&'static str, &'static str),
    rounds: &[PhaseResult],
    what: &str,
) {
    let per_round: Vec<Summary> = rounds.iter().map(PhaseResult::latency).collect();
    let median_of = |q: f64| Summary::new(per_round.iter().map(|s| s.quantile(q)).collect()).p50();
    let fewest = per_round.iter().map(Summary::n).min().unwrap_or(0);
    let pooled = Summary::new(
        rounds
            .iter()
            .flat_map(|p| p.latency_ms.iter().copied())
            .collect(),
    );
    let tail = format!("p{}", (SERVE_TAIL_Q * 100.0).round());
    out.push(
        keys.0,
        median_of(0.5),
        "ms",
        format!(
            "{what} p50, median of {} rounds (n={} in all)",
            rounds.len(),
            pooled.n()
        ),
    );
    out.push(
        keys.1,
        median_of(SERVE_TAIL_Q),
        "ms",
        format!(
            "{what} {tail}, median of rounds ({} beyond in the smallest round); pooled p99 {:.2} ms ({} beyond)",
            beyond(fewest, SERVE_TAIL_Q),
            pooled.quantile(0.99),
            beyond(pooled.n(), 0.99)
        ),
    );
}

/// Images per second over a set of timed batch calls.
fn images_per_s(ms: &[f64], batch: usize) -> f64 {
    (ms.len() * batch) as f64 / (ms.iter().sum::<f64>() / 1e3)
}

fn own_peak_rss_mb() -> f64 {
    crate::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)
}

/// `train-mobilenet`, untraced.
pub fn train(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut st, setup_s) = repeat_setup(|| setup_train(args.seed));
    let steps = train_loop(
        &mut st.model32,
        &mut st.opt32,
        &st.loss,
        &st.b32,
        &mut 0,
        args.seconds,
    );
    check_losses(&mut out, "b32", &steps);
    check_train_step(&mut out, args.seed, &st);

    let step_ms: Vec<f64> = steps.iter().map(|s| s.0).collect();
    out.push(
        "setup_s",
        setup_s,
        "s",
        "build + data + first step, median of 3",
    );
    out.push(
        "peak_rss_mb",
        own_peak_rss_mb(),
        "MB",
        "VmHWM of the benchmark process",
    );
    out.push("ok_ratio", out.ok_ratio(), "ratio", "1 - error_ratio");
    out.push(
        "throughput_per_s",
        images_per_s(&step_ms, 32),
        "1/s",
        format!("train.img_per_s, b32 (n={})", steps.len()),
    );
    let s = Summary::new(step_ms);
    for keys in [
        ("light_p50_ms", "light_tail_ms"),
        ("heavy_p50_ms", "heavy_tail_ms"),
    ] {
        push_latency(&mut out, keys, &s, 0.5, "b32 train step");
    }
    Ok(out)
}

/// The inference workload's state.
pub struct InferState {
    pub model: Sequential,
    pub singles: Vec<Tensor>,
    pub batches: Vec<Tensor>,
}

/// Builds the model, generates inputs and runs one untimed batch-1 call.
pub fn setup_infer(seed: u64) -> InferState {
    let model = build_mobilenet(sub_seed(seed, 11), BackendKind::Blocked);
    let data = dsx_data::cifar_like(64, INFER_SINGLES, 1, sub_seed(seed, 12));
    let singles: Vec<Tensor> = data.test.batches(1).into_iter().map(|(x, _)| x).collect();
    let batches: Vec<Tensor> = data.train.batches(32).into_iter().map(|(x, _)| x).collect();
    black_box(model.infer(&singles[0]));
    InferState {
        model,
        singles,
        batches,
    }
}

/// Closed-loop `Layer::infer` calls over `inputs` until `secs` have passed;
/// per-call milliseconds. Every output is checked for shape and finiteness.
pub fn infer_loop(model: &dyn Layer, inputs: &[Tensor], secs: f64, out: &mut Outcome) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.is_empty() || start.elapsed().as_secs_f64() < secs {
        let x = &inputs[ms.len() % inputs.len()];
        let (t, y) = timed(|| model.infer(x));
        ms.push(t);
        let n = x.dim(0);
        out.check(
            y.shape() == [n, 10] && y.find_non_finite().is_none(),
            || format!("infer output {:?} malformed or not finite", y.shape()),
        );
    }
    ms
}

/// Compares the model against the same weights on the `naive` reference
/// backend, outside any timed phase.
pub fn check_against_naive(out: &mut Outcome, seed: u64, st: &InferState) {
    let naive = build_mobilenet(sub_seed(seed, 11), BackendKind::Naive);
    for x in st.singles.iter().take(2).chain(st.batches.iter().take(1)) {
        let (got, want) = (st.model.infer(x), naive.infer(x));
        out.check(allclose(&got, &want, TEST_TOLERANCE), || {
            format!(
                "batch-{} output differs from the naive backend by {}",
                x.dim(0),
                dsx_tensor::max_abs_diff(&got, &want)
            )
        });
    }
}

/// `infer-mobilenet`, untraced.
pub fn infer(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (st, setup_s) = repeat_setup(|| setup_infer(args.seed));
    // The two batch sizes alternate in rounds, so both see the whole run.
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    let half_round_s = args.seconds / 2.0 / ROUNDS as f64;
    for _ in 0..ROUNDS {
        light.extend(infer_loop(&st.model, &st.singles, half_round_s, &mut out));
        heavy.extend(infer_loop(&st.model, &st.batches, half_round_s, &mut out));
    }
    check_against_naive(&mut out, args.seed, &st);

    out.push(
        "setup_s",
        setup_s,
        "s",
        "build + inputs + first call, median of 3",
    );
    out.push(
        "peak_rss_mb",
        own_peak_rss_mb(),
        "MB",
        "VmHWM of the benchmark process",
    );
    out.push("ok_ratio", out.ok_ratio(), "ratio", "1 - error_ratio");
    out.push(
        "throughput_per_s",
        images_per_s(&heavy, 32),
        "1/s",
        format!("infer.b32_img_per_s (n={})", heavy.len()),
    );
    let s = Summary::new(light);
    push_latency(
        &mut out,
        ("light_p50_ms", "light_tail_ms"),
        &s,
        0.75,
        "infer.b1 call",
    );
    let s = Summary::new(heavy);
    push_latency(
        &mut out,
        ("heavy_p50_ms", "heavy_tail_ms"),
        &s,
        0.5,
        "infer.b32 call",
    );
    Ok(out)
}

/// The serving requests and their in-process reference outputs.
pub struct ServeInputs {
    pub inputs: Arc<Vec<Tensor>>,
    pub reference: Arc<dyn Layer>,
}

/// Seeded request inputs plus an in-process build of the served model
/// (same spec, seed and backend as the binary's).
pub fn serve_inputs(seed: u64) -> ServeInputs {
    let inputs = (0..SERVE_INPUTS)
        .map(|i| Tensor::randn(&[1, 3, INPUT_HW, INPUT_HW], sub_seed(seed, 100 + i as u64)))
        .collect();
    let spec = dsx_serve::serving_spec();
    ServeInputs {
        inputs: Arc::new(inputs),
        reference: dsx_serve::build_serving_model(&spec, BackendKind::Blocked),
    }
}

/// A seeded sample of request indices whose replies get checked.
pub fn sample_indices(seed: u64, n_expected: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    (0..SERVE_SAMPLES)
        .map(|_| (rng.next_u64() % n_expected.max(1) as u64) as usize)
        .collect()
}

/// Output checks on one fixed-rate phase: every request answered exactly
/// once with a finite `[1, 10]` tensor (counted by the phase), and each
/// sampled reply equal to the in-process reference.
pub fn check_phase(out: &mut Outcome, name: &str, phase: &PhaseResult, si: &ServeInputs) {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    if phase.failed > 0 {
        out.problems.push(format!(
            "{name}: {} of {} requests failed, went unanswered or came back malformed",
            phase.failed, phase.attempted
        ));
    }
    for (idx, got) in &phase.sampled {
        let x = &si.inputs[idx % si.inputs.len()];
        let want = si.reference.infer(x);
        out.check(allclose(got, &want, TEST_TOLERANCE), || {
            format!("{name}: request {idx} differs from the in-process reference")
        });
    }
}

/// One fixed-rate phase against `server`, with a seeded sample of its
/// replies kept for checking.
pub fn fixed_phase(
    args: &Args,
    server: &Server,
    si: &ServeInputs,
    rate: f64,
    secs: f64,
    stream: u64,
) -> Result<PhaseResult, String> {
    let sample = sample_indices(sub_seed(args.seed, stream + 1), (rate * secs) as usize);
    serve::run_phase(
        server.addr,
        sub_seed(args.seed, stream),
        rate,
        secs,
        &si.inputs,
        &sample,
    )
}

/// The rate ladder on one server: 25 req/s steps from 100 req/s until two
/// rates in a row fail or `budget_s` runs out. Returns the knee rate (see
/// [`knee_rate`]), the steps measured, and whether the budget ran out.
pub fn ladder(
    args: &Args,
    server: &Server,
    si: &ServeInputs,
    budget_s: f64,
) -> Result<(f64, Vec<StepOutcome>, bool), String> {
    let start = Instant::now();
    let slack = SERVE_MAX_BATCH * available_workers();
    let mut passed = Vec::new();
    let mut steps = Vec::new();
    let mut rate = LADDER_FIRST;
    loop {
        let step_s = ladder_step_s(steps.last());
        if start.elapsed().as_secs_f64() + step_s > budget_s {
            return Ok((knee_rate(&steps, slack), steps, true));
        }
        let phase = serve::run_phase(
            server.addr,
            sub_seed(args.seed, 1000 + steps.len() as u64),
            rate,
            step_s,
            &si.inputs,
            &[],
        )?;
        let step = StepOutcome {
            rate,
            tail_ms: phase.latency().quantile(0.99),
            failed: phase.failed,
            outstanding_at_end: phase.outstanding_at_end,
        };
        passed.push(step_passes(&step, slack));
        steps.push(step);
        match ladder_next(&passed, rate, LADDER_STEP) {
            LadderMove::Climb(r) => rate = r,
            LadderMove::Stop => return Ok((knee_rate(&steps, slack), steps, false)),
        }
    }
}

/// The worker count `dsx-serve` defaults to (one per available core).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `serve-tower-open`, untraced: [`SERVE_ROUNDS`] rounds of r100 then r125, each
/// round on a fresh server, then the ladder on another. `setup_s` is the
/// median of the spawns.
pub fn serve_e2e(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let si = serve_inputs(args.seed);
    let (light_s, heavy_s) = (args.seconds * LIGHT_SHARE, args.seconds * HEAVY_SHARE);
    let ladder_s = args.seconds - light_s - heavy_s;

    // The fixed rates run interleaved in rounds, each round on a fresh
    // server, so both see the whole run's conditions rather than one window.
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    for round in 0..SERVE_ROUNDS as u64 {
        let srv = Server::spawn(&args.serve_bin, &si.inputs[0])?;
        setups.push(srv.setup_s);
        let per_round = SERVE_ROUNDS as f64;
        light.push(fixed_phase(
            args,
            &srv,
            &si,
            LIGHT_RPS,
            light_s / per_round,
            10 + round,
        )?);
        heavy.push(fixed_phase(
            args,
            &srv,
            &si,
            HEAVY_RPS,
            heavy_s / per_round,
            20 + round,
        )?);
        rss.push(srv.peak_rss_mb());
    }
    let srv = Server::spawn(&args.serve_bin, &si.inputs[0])?;
    setups.push(srv.setup_s);
    let (max_rps, steps, truncated) = ladder(args, &srv, &si, ladder_s)?;
    rss.push(srv.peak_rss_mb());
    drop(srv);

    let slack = SERVE_MAX_BATCH * available_workers();
    for (name, phases) in [("r100", &light), ("r125", &heavy)] {
        for p in phases {
            check_phase(&mut out, name, p, &si);
            let allowance = backlog_allowance(p.rate, slack);
            out.check(p.outstanding_at_end <= allowance, || {
                format!(
                    "{name}: {} replies still due when sending stopped (allowance {allowance}): the rate is past the knee",
                    p.outstanding_at_end
                )
            });
        }
    }
    for s in &steps {
        println!(
            "report: ladder {:>5.0} req/s  p99 {:>8.2} ms  failed {}  outstanding {}  {}",
            s.rate,
            s.tail_ms,
            s.failed,
            s.outstanding_at_end,
            if step_passes(s, SERVE_MAX_BATCH * available_workers()) {
                "pass"
            } else {
                "FAIL"
            }
        );
    }

    out.push(
        "setup_s",
        Summary::new(setups).p50(),
        "s",
        "spawn to first reply, median of 9",
    );
    out.push(
        "peak_rss_mb",
        rss.into_iter().fold(f64::NAN, f64::max),
        "MB",
        "VmHWM of the dsx-serve child, max of 9",
    );
    out.push(
        "ok_ratio",
        out.ok_ratio(),
        "ratio",
        "1 - error_ratio (r100, r125, checks)",
    );
    out.push(
        "throughput_per_s",
        max_rps,
        "1/s",
        format!(
            "serve.max_rps ({} ladder steps{})",
            steps.len(),
            if truncated { ", budget ran out" } else { "" }
        ),
    );
    push_round_latency(
        &mut out,
        ("light_p50_ms", "light_tail_ms"),
        &light,
        "serve.r100",
    );
    push_round_latency(
        &mut out,
        ("heavy_p50_ms", "heavy_tail_ms"),
        &heavy,
        "serve.r125",
    );
    Ok(out)
}
