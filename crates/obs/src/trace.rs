//! Per-thread lock-free span/event recording, exported as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! # Design
//!
//! Recording is **off by default** and gated on one relaxed atomic load:
//! a [`span`] call while disabled is a load, a branch and a `None` — cheap
//! enough to sit inside GEMM entry points and the pool's job loop
//! unconditionally, with no feature flags or rebuilds to turn tracing on.
//!
//! When enabled, each thread appends finished spans to its own
//! fixed-capacity buffer of write-once slots (`OnceLock<TraceEvent>`),
//! registered once in a process-global list. The owning thread is the only
//! writer (a plain head index it alone advances), readers walk the
//! write-once slots, and a full buffer *drops* new events (counting them)
//! instead of wrapping — so there is no writer/reader race on slot reuse
//! and no `unsafe` anywhere in the crate. Buffers are never reset: the
//! binaries enable once at startup and export once at exit.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Per-thread event capacity. At ~64 bytes a slot this is ~1 MiB per
/// recording thread; beyond it new events are dropped and counted (see
/// [`dropped_events`]), which a short smoke run never hits.
const RING_CAPACITY: usize = 16_384;

/// One finished span (`dur_ns` set) or instant event (`dur_ns` `None`).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Category, e.g. `pool`, `gemm`, `layer`, `serve`, `net`.
    pub cat: &'static str,
    /// Event name, e.g. `pool.run` or an interned layer name.
    pub name: &'static str,
    /// Start time in nanoseconds since the trace epoch (first `enable`).
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Stable per-thread id (dense, assigned at first record).
    pub tid: u64,
    /// Optional single numeric argument, rendered under `args` in the
    /// Chrome JSON (e.g. `("batch", 8)` or `("macs", 1234567)`).
    pub arg: Option<(&'static str, u64)>,
}

struct ThreadRing {
    tid: u64,
    thread_name: String,
    slots: Box<[OnceLock<TraceEvent>]>,
    /// Next free slot. Only the owning thread writes it.
    head: AtomicUsize,
    dropped: AtomicU64,
}

impl ThreadRing {
    fn push(&self, event: TraceEvent) {
        let idx = self.head.load(Ordering::Relaxed); // ORDER: single-writer head — only the owning thread stores it, and slot publication goes through OnceLock::set (release) / get (acquire)
        if idx < self.slots.len() {
            // Write-once slot: OnceLock::set publishes the event with
            // release semantics, so readers that see it via get() see it
            // fully initialised.
            let _ = self.slots[idx].set(event);
            self.head.store(idx + 1, Ordering::Relaxed); // ORDER: single-writer head (see load above)
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed); // ORDER: racy-tolerant counter — reports only
        }
    }
}

/// Master recording switch.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Trace time zero, set once by the first [`enable`] call.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Dense thread-id allocator for trace `tid`s.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Every thread that ever recorded, in registration order.
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
/// Interned dynamic names (layer names are `String`s; Chrome events want
/// `&'static str`). Leaked once per distinct name, deduplicated.
static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    static RING: Arc<ThreadRing> = register_thread();
}

/// Locks a registry mutex, recovering from poisoning: the lists only
/// ever grow and hold leaked/shared data that stays valid regardless of
/// what a panicking holder was doing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn register_thread() -> Arc<ThreadRing> {
    let ring = Arc::new(ThreadRing {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed), // ORDER: unique-id allocator — only uniqueness matters, no other memory is guarded
        thread_name: std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_owned(),
        slots: (0..RING_CAPACITY).map(|_| OnceLock::new()).collect(),
        head: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
    });
    lock(&RINGS).push(Arc::clone(&ring));
    ring
}

/// Turns recording on or off. The first enable fixes the trace epoch
/// (`ts` zero). Spans already open when the flag flips still record on
/// drop; buffers are never cleared.
pub fn enable(on: bool) {
    if on {
        let _ = EPOCH.set(Instant::now());
    }
    ENABLED.store(on, Ordering::Relaxed); // ORDER: advisory flag — a stale read delays (or records one extra) span, it cannot break safety
}

/// Whether recording is currently on. Callers use this to skip *argument
/// construction* (e.g. formatting a layer name) on the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) // ORDER: advisory flag (see enable)
}

fn now_ns() -> u64 {
    // The epoch is set before ENABLED flips on, and spans only start when
    // enabled, so get() is always Some here; fall back to 0 defensively.
    EPOCH
        .get()
        .map(|epoch| Instant::now().duration_since(*epoch).as_nanos() as u64)
        .unwrap_or(0)
}

fn record(event: TraceEvent) {
    // try_with: recording from a thread mid-teardown (destructor order)
    // silently drops the event instead of panicking.
    let _ = RING.try_with(|ring| ring.push(event));
}

/// An RAII span: construction (via [`span`] and friends) takes the start
/// timestamp, drop records the finished event. When tracing is disabled
/// the guard is empty and drop is a no-op.
#[must_use = "a span measures the scope it lives in; dropping it immediately records a zero-length span"]
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    cat: &'static str,
    name: &'static str,
    arg: Option<(&'static str, u64)>,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end_ns = now_ns();
            record(TraceEvent {
                cat: open.cat,
                name: open.name,
                ts_ns: open.start_ns,
                dur_ns: Some(end_ns.saturating_sub(open.start_ns)),
                tid: 0, // overwritten with the ring's tid at collection time
                arg: open.arg,
            });
        }
    }
}

/// Starts a span in category `cat` named `name`. One relaxed load + branch
/// when tracing is disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_inner(cat, name, None)
}

/// Starts a span carrying one numeric argument (rendered under `args` in
/// the exported JSON).
#[inline]
pub fn span_arg(cat: &'static str, name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    span_inner(cat, name, Some((key, value)))
}

/// Starts a span whose name is computed (and interned) only when tracing
/// is enabled — for dynamic names like layer labels, where even the
/// `String` construction must stay off the disabled path.
#[inline]
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    span_inner(cat, intern(&name()), None)
}

fn span_inner(
    cat: &'static str,
    name: &'static str,
    arg: Option<(&'static str, u64)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    SpanGuard {
        open: Some(OpenSpan {
            cat,
            name,
            arg,
            start_ns: now_ns(),
        }),
    }
}

/// Records an instant event (Chrome `ph:"i"`, thread scope).
pub fn instant(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        cat,
        name,
        ts_ns: now_ns(),
        dur_ns: None,
        tid: 0,
        arg: None,
    });
}

/// Interns a dynamic name, returning a `&'static str` (leaked once per
/// distinct name; the table is tiny — layer labels and the like).
pub fn intern(name: &str) -> &'static str {
    let mut table = lock(&INTERNED);
    if let Some(existing) = table.iter().find(|s| **s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// All events recorded so far, across every thread, sorted by start time.
/// The per-event `tid` is the recording thread's dense trace id.
pub fn collected_events() -> Vec<TraceEvent> {
    let rings: Vec<Arc<ThreadRing>> = lock(&RINGS).clone();
    let mut events = Vec::new();
    for ring in &rings {
        for slot in ring.slots.iter() {
            match slot.get() {
                Some(event) => events.push(TraceEvent {
                    tid: ring.tid,
                    ..event.clone()
                }),
                None => break,
            }
        }
    }
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Events dropped because a thread's buffer filled up.
pub fn dropped_events() -> u64 {
    lock(&RINGS)
        .iter()
        .map(|ring| ring.dropped.load(Ordering::Relaxed)) // ORDER: racy-tolerant counter — reports only
        .sum()
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_us(ns: u64, out: &mut String) {
    // Chrome trace timestamps are microseconds; keep nanosecond precision
    // as a decimal fraction.
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

/// Renders every recorded event as a Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`), including one `thread_name` metadata record
/// per recording thread.
pub fn chrome_trace_json() -> String {
    let pid = std::process::id();
    let rings: Vec<Arc<ThreadRing>> = lock(&RINGS).clone();
    let events = collected_events();
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for ring in &rings {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
            ring.tid
        ));
        escape_json(&ring.thread_name, &mut out);
        out.push_str("\"}}");
    }
    for event in &events {
        if !first {
            out.push(',');
        }
        first = false;
        let ph = if event.dur_ns.is_some() { "X" } else { "i" };
        out.push_str(&format!(
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{},\"ts\":",
            event.tid
        ));
        push_us(event.ts_ns, &mut out);
        if let Some(dur_ns) = event.dur_ns {
            out.push_str(",\"dur\":");
            push_us(dur_ns, &mut out);
        } else {
            // Instant events need an explicit scope; "t" = thread.
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"cat\":\"");
        escape_json(event.cat, &mut out);
        out.push_str("\",\"name\":\"");
        escape_json(event.name, &mut out);
        out.push('"');
        if let Some((key, value)) = event.arg {
            out.push_str(",\"args\":{\"");
            escape_json(key, &mut out);
            out.push_str(&format!("\":{value}}}"));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] to `path`, returning the number of span /
/// instant events exported (metadata records excluded).
pub fn export_chrome_trace(path: &Path) -> io::Result<usize> {
    let count = collected_events().len();
    let json = chrome_trace_json();
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in this binary share the global recorder; each test uses
    // unique event names and only makes additive assertions.

    /// Serialises tests that flip the global [`ENABLED`] flag: the test
    /// harness runs tests on parallel threads, so one test's
    /// `enable(false)` would otherwise land between another's
    /// `enable(true)` and its spans.
    fn test_enable_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_enable_lock();
        enable(false);
        {
            let _g = span("test", "test.disabled.span");
            instant("test", "test.disabled.instant");
        }
        let names: Vec<&str> = collected_events().iter().map(|e| e.name).collect();
        assert!(!names.contains(&"test.disabled.span"));
        assert!(!names.contains(&"test.disabled.instant"));
    }

    #[test]
    fn enabled_spans_record_with_duration_and_tid() {
        let _guard = test_enable_lock();
        enable(true);
        {
            let _g = span_arg("test", "test.enabled.span", "n", 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        instant("test", "test.enabled.instant");
        enable(false);

        let events = collected_events();
        let span_ev = events
            .iter()
            .find(|e| e.name == "test.enabled.span")
            .expect("span recorded");
        assert_eq!(span_ev.cat, "test");
        assert!(span_ev.dur_ns.unwrap() >= 1_000_000, "{:?}", span_ev.dur_ns);
        assert!(span_ev.tid > 0);
        assert_eq!(span_ev.arg, Some(("n", 7)));
        let inst = events
            .iter()
            .find(|e| e.name == "test.enabled.instant")
            .expect("instant recorded");
        assert_eq!(inst.dur_ns, None);
    }

    #[test]
    fn span_with_skips_name_construction_when_disabled() {
        let _guard = test_enable_lock();
        enable(false);
        let _g = span_with("test", || {
            // lint: allow(panic) — test: must not run while disabled
            panic!("name closure ran on the disabled path")
        });
    }

    #[test]
    fn interning_deduplicates() {
        let a = intern("test.intern.layer-0");
        let b = intern("test.intern.layer-0");
        assert!(std::ptr::eq(a, b));
        let c = intern("test.intern.layer-1");
        assert_ne!(a, c);
    }

    #[test]
    fn spans_from_spawned_threads_get_distinct_tids() {
        let _guard = test_enable_lock();
        enable(true);
        let handle = std::thread::Builder::new()
            .name("obs-test-worker".to_owned())
            .spawn(|| {
                let _g = span("test", "test.threaded.span");
            })
            .unwrap();
        handle.join().unwrap();
        let _g = span("test", "test.main.span");
        drop(_g);
        enable(false);

        let events = collected_events();
        let worker = events
            .iter()
            .find(|e| e.name == "test.threaded.span")
            .expect("worker span recorded");
        let main = events
            .iter()
            .find(|e| e.name == "test.main.span")
            .expect("main span recorded");
        assert_ne!(worker.tid, main.tid);
        // The worker thread's name shows up as a thread_name metadata
        // record in the JSON.
        assert!(chrome_trace_json().contains("obs-test-worker"));
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn events_are_sorted_by_start_time() {
        let _guard = test_enable_lock();
        enable(true);
        for _ in 0..3 {
            let _g = span("test", "test.sorted.span");
        }
        enable(false);
        let events = collected_events();
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }
}
