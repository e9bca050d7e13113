//! The `serve-tower-open` workload: the shipped `dsx-serve` binary run as a
//! child process with default flags, driven open-loop over DSXN.
//!
//! One phase is one seeded Poisson schedule on one pipelined connection: a
//! sender thread writes each request when it is due while the calling
//! thread reads replies. Latency runs from the instant a request was *due*, so a
//! stalled sender charges its stall to every request behind it. Nothing is
//! ever retried.

use crate::stats::{lateness, poisson_schedule, Summary};
use dsx_net::protocol::{read_frame, write_frame};
use dsx_net::{Frame, NetClient};
use dsx_obs::MetricsSnapshot;
use dsx_tensor::Tensor;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long the receiver waits for any reply before it gives up on the
/// rest of the phase and counts them as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A running `dsx-serve --listen 127.0.0.1:0` child.
pub struct Server {
    child: Child,
    /// The child's stdout, held open (it prints nothing after its
    /// `listening on` line, so the pipe never fills).
    stdout_lines: std::io::Lines<BufReader<std::process::ChildStdout>>,
    /// The address the child reported it listens on.
    pub addr: SocketAddr,
    /// Spawn-to-first-successful-reply time, in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Spawns the binary with all-default flags and waits for its first
    /// successful reply to `probe`.
    pub fn spawn(bin: &Path, probe: &Tensor) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("child has no stdout".into());
        };
        let mut server = Server {
            child,
            stdout_lines: BufReader::new(stdout).lines(),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        server.addr = loop {
            match server.stdout_lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        break addr
                            .trim()
                            .parse::<SocketAddr>()
                            .map_err(|e| e.to_string())?;
                    }
                }
                _ => return Err("dsx-serve exited before listening".into()),
            }
        };
        let addr = server.addr;
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reply = client
            .infer(probe)
            .map_err(|e| format!("first request: {e}"))?;
        if reply.shape() != [1, 10] {
            return Err(format!("first reply has shape {:?}", reply.shape()));
        }
        server.setup_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The child's peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(self.child.id()).unwrap_or(f64::NAN)
    }

    /// A metrics snapshot over a fresh connection.
    pub fn stats(&self) -> Result<MetricsSnapshot, String> {
        let mut client = NetClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client.stats().map_err(|e| format!("stats: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything one open-loop phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Offered rate.
    pub rate: f64,
    /// Requests scheduled (and attempted).
    pub attempted: usize,
    /// Requests that failed, were refused, went unanswered, were answered
    /// twice or came back malformed.
    pub failed: usize,
    /// Due-to-reply latency of every good reply, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// How late each send was, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Replies that arrived after the sending window closed.
    pub outstanding_at_end: usize,
    /// Replies kept for the output check: request index → output.
    pub sampled: Vec<(usize, Tensor)>,
}

impl PhaseResult {
    /// The latency summary.
    pub fn latency(&self) -> Summary {
        Summary::new(self.latency_ms.clone())
    }
}

/// Runs one open-loop phase against `addr`: Poisson arrivals at `rate` for
/// `secs` seconds, request `i` carrying `inputs[i % inputs.len()]`.
/// Replies to the request indices in `sample` are kept for checking.
pub fn run_phase(
    addr: SocketAddr,
    seed: u64,
    rate: f64,
    secs: f64,
    inputs: &Arc<Vec<Tensor>>,
    sample: &[usize],
) -> Result<PhaseResult, String> {
    let due = Arc::new(poisson_schedule(seed, rate, secs));
    let n = due.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let window_end = Duration::from_secs_f64(secs);

    let start = Instant::now() + Duration::from_millis(20);
    let sender = {
        let due = Arc::clone(&due);
        let inputs = Arc::clone(inputs);
        // lint: allow(thread) — the load generator's sender must pace sends
        // on its own OS thread while this one blocks reading replies.
        thread::spawn(move || -> Vec<f64> {
            let mut out = BufWriter::new(write_half);
            let mut late = Vec::with_capacity(due.len());
            for (i, &t) in due.iter().enumerate() {
                let at = start + Duration::from_secs_f64(t);
                let now = Instant::now();
                if at > now {
                    thread::sleep(at - now);
                }
                let sent = start.elapsed().as_secs_f64();
                late.push(lateness(t, sent) * 1e3);
                let frame = Frame::Request {
                    id: i as u64 + 1,
                    deadline_us: 0,
                    tensor: inputs[i % inputs.len()].clone(),
                };
                if write_frame(&mut out, &frame)
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    // The rest go unsent, so they go unanswered and count
                    // as failed.
                    break;
                }
            }
            late
        })
    };

    let want: HashSet<usize> = sample.iter().copied().collect();
    let mut reader = BufReader::new(stream);
    let mut answered = vec![false; n];
    let mut settled = 0usize;
    let mut bad_frames = 0usize;
    let mut result = PhaseResult {
        rate,
        attempted: n,
        latency_ms: Vec::with_capacity(n),
        ..PhaseResult::default()
    };
    while settled < n {
        // A read error (including the reply timeout) abandons the rest:
        // whatever is still unanswered counts as failed below.
        let Ok(frame) = read_frame(&mut reader) else {
            break;
        };
        let now = Instant::now();
        let (id, tensor) = match frame {
            Frame::Response { id, tensor } => (id, Some(tensor)),
            Frame::Error { id, .. } => (id, None),
            _ => (0, None),
        };
        let Some(idx) = (id as usize).checked_sub(1).filter(|&i| i < n) else {
            bad_frames += 1;
            continue;
        };
        if std::mem::replace(&mut answered[idx], true) {
            // Answered twice: the second reply is a failure of its own.
            bad_frames += 1;
            continue;
        }
        settled += 1;
        match tensor {
            Some(t) if t.shape() == [1, 10] && t.find_non_finite().is_none() => {
                let due_at = start + Duration::from_secs_f64(due[idx]);
                result
                    .latency_ms
                    .push(now.saturating_duration_since(due_at).as_secs_f64() * 1e3);
                if now > start + window_end {
                    result.outstanding_at_end += 1;
                }
                if want.contains(&idx) {
                    result.sampled.push((idx, t));
                }
            }
            // Error frames and malformed outputs.
            _ => bad_frames += 1,
        }
    }
    let late = sender
        .join()
        .map_err(|_| "sender thread panicked".to_string())?;
    result.failed = bad_frames + (n - settled);
    result.late_ms = late;
    Ok(result)
}

/// Counter delta `after − before` for `name` (0 when absent).
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after
        .get(name)
        .unwrap_or(0)
        .saturating_sub(before.get(name).unwrap_or(0)) as f64
}
