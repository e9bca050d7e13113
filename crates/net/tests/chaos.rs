//! Fault-injection end-to-end suite: the serving stack behind the
//! `dsx-chaos` proxy.
//!
//! The contract under test, from the fault-tolerance design: **every
//! injected fault ends, on the client side, in a typed error or a
//! successful retry — never a hang, never a silently lost response** — and
//! the server never drops a request unserved.
//!
//! Knobs (CI sets both):
//! * `DSX_CHAOS_BACKEND` — kernel backend for the served model
//!   (`naive|blocked`, default `blocked`);
//! * `DSX_CHAOS_SEED` — fault-plan seed (default 42). A failing seed
//!   replays bit-identically: the plan is a pure function of the seed.

use dsx_chaos::{ChaosProxy, FaultKind, FaultMix, FaultPlan};
use dsx_core::BackendKind;
use dsx_net::{
    ClientConfig, ErrorCode, NetClient, NetError, NetServer, NetServerConfig, RetryPolicy,
};
use dsx_nn::Layer;
use dsx_serve::{build_serving_model, request_input, serving_spec_with, ServeConfig};
use dsx_tensor::{allclose, Tensor};
use std::collections::HashSet;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn backend() -> BackendKind {
    match std::env::var("DSX_CHAOS_BACKEND") {
        Ok(name) => name
            .parse()
            .unwrap_or_else(|e| panic!("DSX_CHAOS_BACKEND: {e}")),
        Err(_) => BackendKind::Blocked,
    }
}

fn chaos_seed() -> u64 {
    match std::env::var("DSX_CHAOS_SEED") {
        Ok(seed) => seed.parse().expect("DSX_CHAOS_SEED must be a u64"),
        Err(_) => 42,
    }
}

/// A small paper-shaped tower on the env-selected backend.
fn chaos_model() -> Arc<dyn Layer> {
    build_serving_model(&serving_spec_with(8, 1), backend())
}

fn quick_config() -> ServeConfig {
    ServeConfig::default()
        .with_workers(2)
        .with_max_batch(4)
        .with_max_wait(Duration::from_millis(2))
}

/// A client tuned for a hostile network: short socket timeouts (so black
/// holes resolve in test time) and a known retry budget.
fn resilient_config(read_timeout: Duration, max_attempts: u32) -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(read_timeout),
        write_timeout: Some(Duration::from_secs(2)),
        retry: RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter: 0.5,
            seed: chaos_seed(),
        },
    }
}

/// A model that holds its worker for `delay` — for pinning the batcher.
struct SlowIdentity {
    delay: Duration,
}

impl Layer for SlowIdentity {
    fn name(&self) -> String {
        "slow-identity".to_string()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        std::thread::sleep(self.delay);
        input.clone()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.clone()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }
}

/// The soak: a realistic mixed fault plan between client and server. Every
/// request must end in parity-checked output or a typed error; the server
/// must never drop a request; at least 5 distinct fault kinds must have
/// actually fired.
#[test]
fn every_fault_ends_in_a_typed_error_or_a_successful_retry() {
    let model = chaos_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let proxy = ChaosProxy::start(server.local_addr(), FaultPlan::new(chaos_seed())).unwrap();
    let mut client = NetClient::connect_with(
        proxy.local_addr(),
        resilient_config(Duration::from_millis(300), 4),
    )
    .unwrap();
    const REQUESTS: u64 = 80;
    let (mut served, mut typed_errors) = (0usize, 0usize);
    for i in 0..REQUESTS {
        let input = request_input(i);
        match client.infer_retry(&input, 0) {
            Ok(output) => {
                let direct = model.infer(&input);
                assert!(
                    allclose(&output, &direct, 1e-5),
                    "request {i}: response survived chaos but lost parity"
                );
                served += 1;
            }
            // Any NetError is a *typed* outcome: the contract forbids
            // hangs and silent losses, not failures.
            Err(_) => typed_errors += 1,
        }
    }
    drop(client);
    let events = proxy.shutdown();
    let kinds: HashSet<FaultKind> = events.iter().map(|e| e.kind).collect();
    let snap = server.shutdown();
    println!(
        "chaos summary: {served}/{REQUESTS} served, {typed_errors} typed errors, \
         {} faults injected across {} kinds, {} server-side sheds, {} drops",
        events.len(),
        kinds.len(),
        snap.shed_requests,
        snap.dropped_requests,
    );
    assert_eq!(
        served + typed_errors,
        REQUESTS as usize,
        "every request must terminate"
    );
    assert!(
        served > REQUESTS as usize / 2,
        "the retry budget should ride out most faults (got {served}/{REQUESTS})"
    );
    assert!(
        kinds.len() >= 5,
        "the soak must exercise at least 5 fault kinds, got {kinds:?}"
    );
    assert_eq!(
        snap.dropped_requests, 0,
        "chaos must never make the server drop a request unserved: {snap}"
    );
}

/// Deadlines cross the wire: a request whose `deadline_us` budget expires
/// in the queue is answered with a typed `DeadlineExceeded` error frame,
/// and the shed shows up in the serve-tier counters.
#[test]
fn expired_deadlines_come_back_as_typed_error_frames() {
    let server = NetServer::start(
        "127.0.0.1:0",
        Arc::new(SlowIdentity {
            delay: Duration::from_millis(60),
        }),
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(1)
            .with_max_wait(Duration::ZERO),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let input = Tensor::randn(&[1, 2, 2, 2], 7);
    // The first request pins the single worker for 60 ms; the second has a
    // 1 ms budget and is long dead by the time the worker dequeues it.
    let pinned = client.send_request(&input).unwrap();
    let doomed = client.send_request_deadline(&input, 1_000).unwrap();
    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..2 {
        let reply = client.read_reply().unwrap();
        outcomes.insert(reply.id, reply.result);
    }
    assert!(
        outcomes[&pinned].is_ok(),
        "the pinned request had no deadline and must be served"
    );
    match &outcomes[&doomed] {
        Err((ErrorCode::DeadlineExceeded, message)) => {
            assert!(
                message.contains("deadline"),
                "the error frame should explain itself: {message}"
            );
        }
        other => panic!("expected a DeadlineExceeded error frame, got {other:?}"),
    }
    drop(client);
    let snap = server.shutdown();
    assert_eq!(snap.shed_requests, 1, "{snap}");
    assert_eq!(snap.dropped_requests, 0, "{snap}");
}

/// The connection-limit admission gate: past `max_conns`, a fresh
/// connection gets one typed `ServerBusy` frame and a close — and the slot
/// reopens once an admitted connection leaves.
#[test]
fn connections_past_the_limit_get_server_busy_and_the_slot_recovers() {
    let model = chaos_model();
    let server = NetServer::start_net(
        "127.0.0.1:0",
        Arc::clone(&model),
        NetServerConfig {
            max_conns: Some(1),
            ..NetServerConfig::from(quick_config())
        },
        None,
    )
    .unwrap();
    let mut admitted = NetClient::connect(server.local_addr()).unwrap();
    admitted.infer(&request_input(1)).unwrap();
    // Second connection: over the limit. The server may take one acceptor
    // poll to observe the first connection, so allow a brief settle.
    let mut rejected = NetClient::connect(server.local_addr()).unwrap();
    match rejected.read_reply() {
        Ok(reply) => {
            assert_eq!(reply.id, 0, "admission rejections are unattributed");
            match reply.result {
                Err((ErrorCode::ServerBusy, _)) => {}
                other => panic!("expected ServerBusy, got {other:?}"),
            }
        }
        Err(e) => panic!("expected a ServerBusy frame before the close, got {e}"),
    }
    drop(rejected);
    // Free the slot and give the acceptor's sweep a few polls to notice.
    drop(admitted);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = NetClient::connect(server.local_addr()).unwrap();
        match retry.infer(&request_input(2)) {
            Ok(_) => break,
            Err(NetError::Server {
                code: ErrorCode::ServerBusy,
                ..
            })
            | Err(NetError::Wire(_))
            | Err(NetError::Io(_))
            | Err(NetError::UnexpectedFrame(_)) => {
                assert!(
                    Instant::now() < deadline,
                    "the connection slot never recovered after the admitted client left"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected failure while waiting for the slot: {other}"),
        }
    }
    server.shutdown();
}

/// Idle reaping: a connected-but-silent client is disconnected after the
/// quiet period, while a client that keeps talking is left alone.
#[test]
fn idle_connections_are_reaped_but_active_ones_survive() {
    let model = chaos_model();
    let server = NetServer::start_net(
        "127.0.0.1:0",
        Arc::clone(&model),
        NetServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..NetServerConfig::from(quick_config())
        },
        None,
    )
    .unwrap();
    // The active client: a round trip every ~40 ms keeps its activity
    // clock fresh across several idle windows.
    let mut active = NetClient::connect(server.local_addr()).unwrap();
    // The silent client: connects and never sends a byte.
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for i in 0..8u64 {
        active.infer(&request_input(i)).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    // By now (~320 ms of silence vs a 100 ms quiet period) the silent
    // connection must have been shut down: EOF, not a hang.
    let mut buf = [0u8; 1];
    match silent.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("the reaped connection produced {n} bytes from nowhere"),
        Err(e) => panic!("expected EOF from the reaped connection, got {e}"),
    }
    // The active client is still healthy.
    active.infer(&request_input(99)).unwrap();
    drop(active);
    server.shutdown();
}

/// The per-connection in-flight cap: a pipeliner past the cap gets typed
/// `ServerBusy` frames carrying *its* request ids, on a connection that
/// stays open, while admitted work completes normally.
#[test]
fn pipelining_past_the_inflight_cap_is_rejected_per_request() {
    let server = NetServer::start_net(
        "127.0.0.1:0",
        Arc::new(SlowIdentity {
            delay: Duration::from_millis(100),
        }),
        NetServerConfig {
            max_inflight: Some(1),
            ..NetServerConfig::from(
                ServeConfig::default()
                    .with_workers(1)
                    .with_max_batch(1)
                    .with_max_wait(Duration::ZERO),
            )
        },
        None,
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let input = Tensor::randn(&[1, 2, 2, 2], 11);
    let admitted = client.send_request(&input).unwrap();
    // While the worker sleeps on the admitted request, these two exceed
    // the cap of 1 unanswered request.
    let over1 = client.send_request(&input).unwrap();
    let over2 = client.send_request(&input).unwrap();
    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..3 {
        let reply = client.read_reply().unwrap();
        outcomes.insert(reply.id, reply.result);
    }
    assert!(
        outcomes[&admitted].is_ok(),
        "the admitted request must serve"
    );
    for id in [over1, over2] {
        match &outcomes[&id] {
            Err((ErrorCode::ServerBusy, _)) => {}
            other => panic!("request {id} over the cap should be ServerBusy, got {other:?}"),
        }
    }
    // The connection survived the rejections: the next request serves.
    let output = client.infer(&input).unwrap();
    assert!(allclose(&output, &input, 1e-6));
    drop(client);
    server.shutdown();
}

/// A total black hole (every request frame swallowed, connection held
/// open) must end in a typed `Timeout` after the bounded retry budget —
/// the one fault where "no hang" is entirely the client's own doing.
#[test]
fn a_black_hole_ends_in_a_typed_timeout_not_a_hang() {
    let model = chaos_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let proxy = ChaosProxy::start(
        server.local_addr(),
        FaultPlan::with_mix(chaos_seed(), FaultMix::only(FaultKind::BlackHole)),
    )
    .unwrap();
    let mut client = NetClient::connect_with(
        proxy.local_addr(),
        resilient_config(Duration::from_millis(200), 3),
    )
    .unwrap();
    let started = Instant::now();
    match client.infer_retry(&request_input(0), 0) {
        Err(NetError::Timeout) => {}
        Err(other) => panic!("expected the typed Timeout, got {other}"),
        Ok(_) => panic!("a black-holed request cannot succeed"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "3 attempts at a 200 ms read timeout must resolve in seconds, took {:?}",
        started.elapsed()
    );
    drop(client);
    proxy.shutdown();
    server.shutdown();
}

/// The observability contract: shed, retry, and reject counters all
/// surface in the wire `Stats` frame, so `--stats-every` and remote
/// operators see the fault-tolerance machinery working.
#[test]
fn resilience_counters_surface_in_the_wire_stats_snapshot() {
    // 1. Force client retries and timeouts through a black-hole proxy.
    let model = chaos_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let proxy = ChaosProxy::start(
        server.local_addr(),
        FaultPlan::with_mix(chaos_seed(), FaultMix::only(FaultKind::BlackHole)),
    )
    .unwrap();
    let mut doomed = NetClient::connect_with(
        proxy.local_addr(),
        resilient_config(Duration::from_millis(100), 2),
    )
    .unwrap();
    let _ = doomed.infer_retry(&request_input(0), 0);
    drop(doomed);
    proxy.shutdown();
    // 2. Force a per-request in-flight rejection on a capped server.
    let capped = NetServer::start_net(
        "127.0.0.1:0",
        Arc::new(SlowIdentity {
            delay: Duration::from_millis(80),
        }),
        NetServerConfig {
            max_inflight: Some(1),
            ..NetServerConfig::from(
                ServeConfig::default()
                    .with_workers(1)
                    .with_max_batch(1)
                    .with_max_wait(Duration::ZERO),
            )
        },
        None,
    )
    .unwrap();
    let mut pipeliner = NetClient::connect(capped.local_addr()).unwrap();
    let input = Tensor::randn(&[1, 2, 2, 2], 3);
    pipeliner.send_request(&input).unwrap();
    pipeliner.send_request(&input).unwrap(); // over the cap: rejected
    for _ in 0..2 {
        pipeliner.read_reply().unwrap();
    }
    // 3. The wire Stats snapshot (all counters are process-global, so any
    //    live server exports them) must now show all three families.
    let mut observer = NetClient::connect(capped.local_addr()).unwrap();
    let snapshot = observer.stats().unwrap();
    assert!(
        snapshot.get("serve.shed_requests").is_some(),
        "shed counter missing from the wire snapshot"
    );
    assert!(
        snapshot.get("net.client.retries").unwrap_or(0) >= 1,
        "retry counter missing from the wire snapshot"
    );
    assert!(
        snapshot.get("net.client.timeouts").unwrap_or(0) >= 1,
        "timeout counter missing from the wire snapshot"
    );
    assert!(
        snapshot.get("net.req.rejected_inflight").unwrap_or(0) >= 1,
        "in-flight reject counter missing from the wire snapshot"
    );
    assert!(
        snapshot.get("net.conn.accepted").unwrap_or(0) >= 1,
        "accept counter missing from the wire snapshot"
    );
    drop(pipeliner);
    drop(observer);
    capped.shutdown();
    server.shutdown();
}

/// Mid-request severs (the harshest connection fault) against a pipelined
/// client: `infer_retry` reconnects and the final outcome is still typed.
#[test]
fn severed_connections_reconnect_and_finish_typed() {
    let model = chaos_model();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&model), quick_config()).unwrap();
    let proxy = ChaosProxy::start(
        server.local_addr(),
        FaultPlan::with_mix(chaos_seed(), FaultMix::only(FaultKind::Sever)),
    )
    .unwrap();
    let mut client = NetClient::connect_with(
        proxy.local_addr(),
        resilient_config(Duration::from_millis(300), 3),
    )
    .unwrap();
    // Every attempt's connection is severed on its first frame: the retry
    // budget burns down to a typed connection-level error, quickly.
    let started = Instant::now();
    match client.infer_retry(&request_input(0), 0) {
        Ok(_) => panic!("an always-severed request cannot succeed"),
        Err(NetError::Io(_) | NetError::Wire(_) | NetError::Timeout) => {}
        Err(other) => panic!("expected a connection-level error, got {other}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5));
    drop(client);
    let events = proxy.shutdown();
    assert!(
        events.iter().any(|e| e.kind == FaultKind::Sever),
        "the sever plan never fired: {events:?}"
    );
    server.shutdown();
}
