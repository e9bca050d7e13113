//! Kernel instrumentation counters.
//!
//! The paper supports its implementation claims with NVProf measurements
//! (atomic-operation counts for the backward study, memory consumption for
//! the channel-cyclic study). Our kernels and operator-composition baselines
//! record the equivalent quantities directly as they run, so experiments can
//! report them without an external profiler.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-safe counters accumulated while a kernel or an operator composition
/// executes.
///
/// **Memory ordering.** Each field is an independent instrumentation
/// counter: nothing synchronises through them, readers run after the
/// kernels they measure have been joined (the pool's completion latch is
/// the happens-before edge), and a racy read would at worst smear a
/// profiler number. `Relaxed` is sound on every access — the per-site
/// `// ORDER:` tags below point back here.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Multiply-accumulate operations performed.
    macs: AtomicUsize,
    /// Atomic read-modify-write updates a GPU implementation would need
    /// (scatter-adds into shared gradient buffers).
    atomic_updates: AtomicUsize,
    /// Bytes of intermediate tensors materialised (slices, concatenations,
    /// im2col buffers) — the quantity Fig. 10 plots.
    bytes_materialized: AtomicUsize,
    /// Bytes copied between tensors (data movement of slicing / concat).
    bytes_moved: AtomicUsize,
    /// Number of logical kernel launches / framework operator invocations.
    kernel_launches: AtomicUsize,
}

impl KernelStats {
    /// New, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` multiply-accumulates.
    pub fn add_macs(&self, n: usize) {
        self.macs.fetch_add(n, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Adds `n` atomic updates.
    pub fn add_atomics(&self, n: usize) {
        self.atomic_updates.fetch_add(n, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Adds `n` bytes of materialised intermediate storage.
    pub fn add_bytes_materialized(&self, n: usize) {
        self.bytes_materialized.fetch_add(n, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Adds `n` bytes of copies between buffers.
    pub fn add_bytes_moved(&self, n: usize) {
        self.bytes_moved.fetch_add(n, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Records one kernel launch / operator invocation.
    pub fn add_launch(&self) {
        self.kernel_launches.fetch_add(1, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Records `n` kernel launches.
    pub fn add_launches(&self, n: usize) {
        self.kernel_launches.fetch_add(n, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Multiply-accumulate count.
    pub fn macs(&self) -> usize {
        self.macs.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Atomic update count.
    pub fn atomic_updates(&self) -> usize {
        self.atomic_updates.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Materialised intermediate bytes.
    pub fn bytes_materialized(&self) -> usize {
        self.bytes_materialized.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Moved bytes.
    pub fn bytes_moved(&self) -> usize {
        self.bytes_moved.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Kernel launch count.
    pub fn kernel_launches(&self) -> usize {
        self.kernel_launches.load(Ordering::Relaxed) // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.macs.store(0, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.atomic_updates.store(0, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.bytes_materialized.store(0, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.bytes_moved.store(0, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
        self.kernel_launches.store(0, Ordering::Relaxed); // ORDER: racy-tolerant counter (see struct doc)
    }

    /// Snapshot of the counters as a plain-old-data summary.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            macs: self.macs(),
            atomic_updates: self.atomic_updates(),
            bytes_materialized: self.bytes_materialized(),
            bytes_moved: self.bytes_moved(),
            kernel_launches: self.kernel_launches(),
        }
    }
}

/// Plain-old-data snapshot of [`KernelStats`], suitable for diffing and
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Multiply-accumulate operations performed.
    pub macs: usize,
    /// Atomic updates a GPU implementation would need.
    pub atomic_updates: usize,
    /// Bytes of intermediate tensors materialised.
    pub bytes_materialized: usize,
    /// Bytes copied between buffers.
    pub bytes_moved: usize,
    /// Kernel launches / operator invocations.
    pub kernel_launches: usize,
}

impl StatsSnapshot {
    /// Elementwise sum of two snapshots.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            macs: self.macs + other.macs,
            atomic_updates: self.atomic_updates + other.atomic_updates,
            bytes_materialized: self.bytes_materialized + other.bytes_materialized,
            bytes_moved: self.bytes_moved + other.bytes_moved,
            kernel_launches: self.kernel_launches + other.kernel_launches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = KernelStats::new();
        s.add_macs(10);
        s.add_macs(5);
        s.add_atomics(3);
        s.add_bytes_materialized(100);
        s.add_bytes_moved(50);
        s.add_launch();
        s.add_launches(2);
        assert_eq!(s.macs(), 15);
        assert_eq!(s.atomic_updates(), 3);
        assert_eq!(s.bytes_materialized(), 100);
        assert_eq!(s.bytes_moved(), 50);
        assert_eq!(s.kernel_launches(), 3);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_merge_adds_fields() {
        let a = StatsSnapshot {
            macs: 1,
            atomic_updates: 2,
            bytes_materialized: 3,
            bytes_moved: 4,
            kernel_launches: 5,
        };
        let b = a;
        let m = a.merge(&b);
        assert_eq!(m.macs, 2);
        assert_eq!(m.kernel_launches, 10);
    }

    #[test]
    fn counters_are_thread_safe() {
        let s = KernelStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.add_atomics(1);
                    }
                });
            }
        });
        assert_eq!(s.atomic_updates(), 4000);
    }
}
