//! CPU parallel runtime: chunked `parallel_for` entry points scheduled on
//! the persistent work-stealing pool in [`crate::pool`].
//!
//! The DSXplore GPU kernels launch `N * Cout * Fw * Fw` threads (forward) or
//! `N * Cin * Fw * Fw` threads (input-centric backward), each handling one
//! pixel. On a CPU we reproduce the same decomposition by splitting the
//! iteration space into contiguous chunks; the per-"thread" work function
//! receives the global index exactly like the CUDA `thread_id` in
//! Algorithm 2 of the paper.
//!
//! Unlike the original scope-spawn runtime, chunks are executed by
//! long-lived pool workers (see [`crate::pool`]), so the per-layer kernel
//! launches inside one `infer` pay a queue push + wakeup instead of OS
//! thread startup, and imbalanced bodies rebalance by work stealing.
//!
//! The number of worker threads defaults to the machine's available
//! parallelism and can be overridden globally ([`set_num_threads`]); a value
//! of 1 runs every entry point inline with zero thread (and zero pool)
//! overhead, which is also what the test-suite uses to keep results
//! deterministic.

use crate::pool;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global worker-thread count override. 0 means "not set, use the hardware
/// default".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Guards structural changes to the pool configuration (the thread count
/// and the drain-and-rebuild it triggers), so two concurrent
/// [`set_num_threads`] calls cannot interleave their store + drain steps.
static CONFIG_LOCK: RwLock<()> = RwLock::new(());

/// Sets the number of worker threads used by the `parallel_*` entry points.
/// `0` restores the hardware default.
///
/// Changing the count **drains and rebuilds** the persistent pool: the call
/// blocks until every live pool worker finishes its in-flight work and
/// exits, and the next multi-threaded call lazily respawns workers sized to
/// the new count. The store + drain sequence is serialised by an internal
/// lock, so concurrent callers cannot leave a stale-sized pool behind.
/// Never call this from inside a parallel body — a pool worker cannot join
/// itself.
pub fn set_num_threads(n: usize) {
    let _guard = CONFIG_LOCK.write();
    NUM_THREADS.store(n, Ordering::SeqCst);
    pool::shutdown();
}

/// Current number of worker threads [`parallel_for`] will use.
pub fn num_threads() -> usize {
    let configured = NUM_THREADS.load(Ordering::SeqCst);
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Minimum number of iterations per claimed chunk; below this the loop runs
/// inline because scheduling costs would dominate.
pub const MIN_CHUNK: usize = 1024;

/// Target number of `f32` elements covered by one pool claim in the
/// chunk-oriented entry points: small chunks (rows, ragged planes) are
/// batched until a claim amortises to roughly this much work, so
/// CIFAR-scale launches don't decompose into hundreds of near-empty tasks.
pub const GRAIN_TARGET_F32: usize = 4096;

/// Runs `body(i)` for every `i in 0..n`, splitting the range over the pool
/// workers. `body` must be safe to call concurrently for distinct indices.
///
/// This mirrors a GPU kernel launch of `n` threads: each index is touched
/// exactly once and no two workers share an index.
pub fn parallel_for<F>(n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_chunks(n, MIN_CHUNK, |start, end| {
        for i in start..end {
            body(i);
        }
    });
}

/// Runs `body(start, end)` over disjoint sub-ranges covering `0..n`.
///
/// `min_chunk` bounds how small a sub-range may get; the pool never hands
/// out smaller claims, and the call falls back to a single inline `body`
/// when `n` is small or only one thread is configured.
pub fn parallel_for_chunks<F>(n: usize, min_chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let min_chunk = min_chunk.max(1);
    if num_threads() <= 1 || n <= min_chunk {
        body(0, n);
        return;
    }
    pool::run(n, min_chunk, body);
}

/// `Sync` view of a mutable `f32` buffer's base pointer, letting pool
/// workers slice disjoint sub-ranges. Private to this module: every use is
/// guarded by a claimed-exactly-once index from the pool plus a disjointness
/// argument local to the calling function.
struct SharedMutF32 {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: the wrapper is a plain pointer + length; sending it to another
// thread moves no thread-affine state, and every dereference happens under
// the caller-proven disjointness contracts of the functions below.
unsafe impl Send for SharedMutF32 {}
// SAFETY: sharing `&SharedMutF32` across threads is sound because the only
// way to reach the pointee is `slice_mut`, whose contract requires disjoint
// `[offset, offset + len)` ranges — two threads never alias through it.
unsafe impl Sync for SharedMutF32 {}

impl SharedMutF32 {
    fn new(out: &mut [f32]) -> Self {
        SharedMutF32 {
            ptr: out.as_mut_ptr(),
            len: out.len(),
        }
    }

    /// # Safety
    ///
    /// `[offset, offset + len)` must be in bounds and no other live
    /// reference may overlap it for the lifetime of the returned slice
    /// (which is why this deliberately hands out `&mut` from `&self`: the
    /// disjointness contract replaces the borrow checker here).
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, offset: usize, len: usize) -> &mut [f32] {
        debug_assert!(offset + len <= self.len, "chunk out of bounds");
        // SAFETY: forwarding the caller's contract — the range is in bounds
        // of the buffer `ptr`/`len` describe and no other live reference
        // overlaps it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) }
    }
}

/// Splits `out` into disjoint mutable chunks of `chunk_len` elements and runs
/// `body(chunk_index, chunk)` for each in parallel.
///
/// An empty `out` is a no-op (zero chunks) regardless of `chunk_len`; a
/// non-empty `out` requires a positive `chunk_len` that divides its length.
///
/// This is the pattern used by kernels that own one output row / channel per
/// logical thread (e.g. the SCC output-centric forward writes each output
/// channel's spatial map from exactly one chunk), so no synchronisation is
/// needed. Short chunks are batched per pool claim on the assumption that
/// a chunk's body cost is proportional to its length (see
/// [`GRAIN_TARGET_F32`]); bodies that do far more work than their chunk
/// length suggests — a weight-gradient row that reduces over whole planes,
/// a bias slot that sums a plane per element — must use
/// [`parallel_for_each_chunk_mut_with_grain`] with an explicit grain of 1,
/// or the heuristic will batch (or fully inline) work that should spread
/// across the pool.
pub fn parallel_for_each_chunk_mut<F>(out: &mut [f32], chunk_len: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    // A zero chunk_len only survives the empty-slice no-op path inside the
    // grained variant; any grain works for it.
    let grain = GRAIN_TARGET_F32.checked_div(chunk_len).unwrap_or(1).max(1);
    parallel_for_each_chunk_mut_with_grain(out, chunk_len, grain, body);
}

/// [`parallel_for_each_chunk_mut`] with an explicit pool grain (chunks per
/// claim) instead of the length-proportional heuristic. `grain = 1` is the
/// right choice for heavy-bodied chunks whose cost is unrelated to their
/// length (weight-gradient rows, bias reductions).
pub fn parallel_for_each_chunk_mut_with_grain<F>(
    out: &mut [f32],
    chunk_len: usize,
    grain: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        // Unified degenerate-case contract (shared with the grouped
        // variant): an empty slice holds zero chunks, so the call is a
        // no-op regardless of `chunk_len` — a zero-size batch coming out of
        // the serve batcher must not trip the chunk-math validation below.
        return;
    }
    check_chunk_math("parallel_for_each_chunk_mut", out.len(), chunk_len);
    let n_chunks = out.len() / chunk_len;
    if num_threads() <= 1 || n_chunks <= 1 {
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            body(i, chunk);
        }
        return;
    }
    let grain = grain.clamp(1, n_chunks);
    let base = SharedMutF32::new(out);
    pool::run(n_chunks, grain, |start, end| {
        for i in start..end {
            // SAFETY: chunk i covers [i * chunk_len, (i + 1) * chunk_len):
            // chunks are pairwise disjoint and the pool claims each index
            // exactly once.
            let chunk = unsafe { base.slice_mut(i * chunk_len, chunk_len) };
            body(i, chunk);
        }
    });
}

/// Validates the caller's chunk decomposition of a slice, panicking with a
/// message that spells out the failed chunk math instead of a bare modulo
/// assertion deep inside the runtime.
fn check_chunk_math(caller: &str, len: usize, chunk_len: usize) {
    assert!(
        chunk_len > 0,
        "{caller}: chunk_len must be positive (a zero-length chunk can never tile the \
         {len}-element slice)"
    );
    let remainder = len % chunk_len;
    assert!(
        remainder == 0,
        "{caller}: a slice of {len} f32s does not split into whole chunks of {chunk_len} \
         ({len} = {} x {chunk_len} + {remainder}); the caller's chunk math is wrong — its \
         slice length and chunk length must agree (e.g. plane = H*W chunks over an \
         N*C*H*W buffer), so fix the chunk length or pad the buffer to a multiple of it.",
        len / chunk_len,
    );
}

/// One group's chunks: `(chunk_index, chunk)` pairs in ascending order.
type ChunkGroup<'a> = Vec<(usize, &'a mut [f32])>;

/// Splits `out` into disjoint chunks of `chunk_len` elements, assigns every
/// chunk to a *group* via `group_of(chunk_index)`, and runs
/// `body(group_index, chunks_of_that_group)` with each group handled by
/// exactly one worker thread.
///
/// This is the companion to [`parallel_for_each_chunk_mut`] for kernels
/// whose unit of cache reuse spans *several* non-contiguous chunks: e.g. the
/// blocked SCC forward kernel groups all output-channel planes that share one
/// input-channel window (`group = img * cyclic_dist + oc % cyclic_dist`) so
/// one worker can stream the window's input tiles once and accumulate every
/// plane of the group from registers. Each chunk still has exactly one
/// writer, so no synchronisation is needed.
///
/// The chunks of a group are passed as `(chunk_index, chunk)` pairs in
/// ascending chunk order. Groups may be empty. An empty `out` is a no-op
/// regardless of `chunk_len` (the same degenerate-case contract as
/// [`parallel_for_each_chunk_mut`]); a non-empty `out` panics if its length
/// is not a multiple of `chunk_len` or if `group_of` returns an index `>=
/// num_groups`.
pub fn parallel_for_each_chunk_group_mut<G, F>(
    out: &mut [f32],
    chunk_len: usize,
    num_groups: usize,
    group_of: G,
    body: F,
) where
    G: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut [(usize, &mut [f32])]) + Sync,
{
    if out.is_empty() {
        // Same degenerate-case contract as `parallel_for_each_chunk_mut`:
        // zero chunks means nothing to do, whatever `chunk_len` says.
        return;
    }
    check_chunk_math("parallel_for_each_chunk_group_mut", out.len(), chunk_len);
    let mut groups: Vec<ChunkGroup<'_>> = (0..num_groups).map(|_| Vec::new()).collect();
    for (idx, chunk) in out.chunks_mut(chunk_len).enumerate() {
        let group = group_of(idx);
        assert!(
            group < num_groups,
            "parallel_for_each_chunk_group_mut: group_of({idx}) returned {group} but only \
             {num_groups} groups were declared; the caller's group math must map every \
             chunk index below {} into 0..{num_groups}",
            out.len() / chunk_len.max(1),
        );
        groups[group].push((idx, chunk));
    }
    if num_threads() <= 1 || num_groups <= 1 {
        for (group_idx, group) in groups.iter_mut().enumerate() {
            body(group_idx, group);
        }
        return;
    }
    // Each slot is locked exactly once (the pool claims each group index
    // once), so the mutexes cost one uncontended lock per group and exist
    // only to hand the `&mut` chunk lists across threads safely.
    let slots: Vec<Mutex<ChunkGroup<'_>>> = groups.into_iter().map(Mutex::new).collect();
    pool::run(num_groups, 1, |start, end| {
        for (group_idx, slot) in slots.iter().enumerate().take(end).skip(start) {
            let mut group = slot.lock();
            body(group_idx, &mut group);
        }
    });
}

/// Reduces `0..n` in parallel: the range is folded in fixed
/// [`MIN_CHUNK`]-sized chunks starting from clones of `identity`, and the
/// per-chunk partials are combined **in chunk order** — so the result is
/// deterministic for a given `n` regardless of the thread count or how the
/// pool happens to schedule the chunks.
pub fn parallel_reduce<T, FoldF, CombineF>(
    n: usize,
    identity: T,
    fold: FoldF,
    combine: CombineF,
) -> T
where
    T: Send + Clone,
    FoldF: Fn(T, usize) -> T + Sync,
    CombineF: Fn(T, T) -> T,
{
    if n == 0 {
        return identity;
    }
    let n_chunks = n.div_ceil(MIN_CHUNK);
    if num_threads() <= 1 || n_chunks == 1 {
        // Same chunk decomposition and combine order as the pooled path,
        // folded inline — so 1-thread and N-thread runs agree bit-for-bit
        // even for order-sensitive (floating-point) folds.
        let mut acc = identity.clone();
        for chunk in 0..n_chunks {
            let start = chunk * MIN_CHUNK;
            let end = ((chunk + 1) * MIN_CHUNK).min(n);
            let mut partial = identity.clone();
            for i in start..end {
                partial = fold(partial, i);
            }
            acc = combine(acc, partial);
        }
        return acc;
    }
    // Identity clones are made on the caller and moved through the cells,
    // so `T` needs no `Sync` bound; each cell is taken and refilled exactly
    // once by whichever worker claims its chunk.
    let cells: Vec<Mutex<Option<T>>> = (0..n_chunks)
        .map(|_| Mutex::new(Some(identity.clone())))
        .collect();
    pool::run(n_chunks, 1, |chunk_start, chunk_end| {
        for (chunk, cell) in cells.iter().enumerate().take(chunk_end).skip(chunk_start) {
            let start = chunk * MIN_CHUNK;
            let end = ((chunk + 1) * MIN_CHUNK).min(n);
            // lint: allow(panic) — the pool hands each chunk index to
            // exactly one participant, so the cell still holds its identity
            // clone; a None here is a scheduler bug worth dying loudly on.
            let mut acc = cell
                .lock()
                .take()
                // lint: allow(panic) — see above: claim-protocol invariant.
                .expect("each chunk is claimed exactly once");
            for i in start..end {
                acc = fold(acc, i);
            }
            *cell.lock() = Some(acc);
        }
    });
    cells
        .into_iter()
        .fold(identity, |acc, cell| match cell.into_inner() {
            Some(partial) => combine(acc, partial),
            None => acc,
        })
}

/// Serialises tests (across this crate) that flip the global thread count:
/// the test harness runs tests on parallel threads, so two save/flip/restore
/// sequences would otherwise interleave and restore each other's
/// intermediate value.
#[cfg(test)]
pub(crate) fn test_thread_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Problem size for a stress test: `full` natively, `small` under Miri
/// (interpretation is orders of magnitude slower — a 50k-element sweep
/// that takes milliseconds natively would stall the Miri CI job) or when
/// `DSX_TEST_FAST` is set (the sanitizer jobs use it the same way).
#[cfg(test)]
pub(crate) fn test_scale(full: usize, small: usize) -> usize {
    if cfg!(miri) || std::env::var_os("DSX_TEST_FAST").is_some() {
        small
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = test_scale(10_000, 256);
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_handles_empty_range() {
        parallel_for(0, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_chunks_covers_range_without_overlap() {
        let n = test_scale(5000, 320);
        let sum = AtomicU64::new(0);
        parallel_for_chunks(n, 64, |start, end| {
            let local: u64 = (start..end).map(|i| i as u64).sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        let expected: u64 = (0..n as u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn chunk_mut_writes_each_chunk() {
        let mut data = vec![0.0f32; 16 * 8];
        parallel_for_each_chunk_mut(&mut data, 8, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        for (i, chunk) in data.chunks(8).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    fn chunk_mut_writes_each_chunk_through_the_pool() {
        let _guard = test_thread_guard();
        set_num_threads(4);
        let mut data = vec![0.0f32; test_scale(512, 32) * 16];
        parallel_for_each_chunk_mut(&mut data, 16, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        for (i, chunk) in data.chunks(16).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f32), "chunk {i}");
        }
        set_num_threads(0);
    }

    #[test]
    #[should_panic(expected = "10 = 3 x 3 + 1")]
    fn chunk_mut_rejects_non_multiple_length_naming_the_chunk_math() {
        let mut data = vec![0.0f32; 10];
        parallel_for_each_chunk_mut(&mut data, 3, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn chunk_mut_rejects_zero_chunk_len() {
        let mut data = vec![0.0f32; 8];
        parallel_for_each_chunk_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn chunk_mut_treats_empty_output_as_a_no_op() {
        // A zero-size batch (e.g. an empty tensor reaching a kernel through
        // the serve batcher) holds zero chunks: no body call, no panic —
        // even with a chunk length that could never tile a non-empty slice.
        let mut data: Vec<f32> = Vec::new();
        parallel_for_each_chunk_mut(&mut data, 4, |_, _| panic!("no chunks to visit"));
        parallel_for_each_chunk_mut(&mut data, 0, |_, _| panic!("no chunks to visit"));
    }

    #[test]
    fn chunk_group_mut_treats_empty_output_as_a_no_op() {
        let mut data: Vec<f32> = Vec::new();
        parallel_for_each_chunk_group_mut(
            &mut data,
            4,
            3,
            |_| 0,
            |_, _| panic!("no chunks to visit"),
        );
        parallel_for_each_chunk_group_mut(
            &mut data,
            0,
            3,
            |_| 0,
            |_, _| panic!("no chunks to visit"),
        );
    }

    #[test]
    fn chunk_group_mut_hands_each_group_its_chunks_in_order() {
        // 12 chunks of 4 elements, grouped round-robin into 3 groups.
        let mut data = vec![0.0f32; 12 * 4];
        parallel_for_each_chunk_group_mut(
            &mut data,
            4,
            3,
            |idx| idx % 3,
            |group, chunks| {
                assert_eq!(chunks.len(), 4);
                let mut last = None;
                for (idx, chunk) in chunks.iter_mut() {
                    assert_eq!(*idx % 3, group);
                    assert!(
                        last.map(|l| l < *idx).unwrap_or(true),
                        "chunks out of order"
                    );
                    last = Some(*idx);
                    for v in chunk.iter_mut() {
                        *v = *idx as f32;
                    }
                }
            },
        );
        for (idx, chunk) in data.chunks(4).enumerate() {
            assert!(chunk.iter().all(|&v| v == idx as f32));
        }
    }

    #[test]
    fn chunk_group_mut_allows_empty_groups() {
        let mut data = vec![0.0f32; 8];
        let touched = AtomicUsize::new(0);
        parallel_for_each_chunk_group_mut(
            &mut data,
            4,
            5,
            |_| 4,
            |group, chunks| {
                if !chunks.is_empty() {
                    assert_eq!(group, 4);
                    touched.fetch_add(chunks.len(), Ordering::Relaxed);
                }
            },
        );
        assert_eq!(touched.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "9 = 2 x 4 + 1")]
    fn chunk_group_mut_rejects_non_multiple_length_naming_the_chunk_math() {
        let mut data = vec![0.0f32; 9];
        parallel_for_each_chunk_group_mut(&mut data, 4, 1, |_| 0, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "group_of(1) returned 7")]
    fn chunk_group_mut_rejects_out_of_range_group() {
        let mut data = vec![0.0f32; 8];
        parallel_for_each_chunk_group_mut(
            &mut data,
            4,
            2,
            |idx| if idx == 1 { 7 } else { 0 },
            |_, _| {},
        );
    }

    #[test]
    fn parallel_reduce_matches_sequential_sum() {
        let n = test_scale(20_000, 512);
        let total = parallel_reduce(n, 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(total, (0..n as u64).sum());
    }

    #[test]
    fn parallel_reduce_is_deterministic_across_thread_counts() {
        let _guard = test_thread_guard();
        let n = test_scale(50_000, 1024);
        // Floating-point folds are order-sensitive; the fixed chunking +
        // in-order combine must give bit-identical results at any count.
        let reduce = || {
            parallel_reduce(
                n,
                0.0f32,
                |acc, i| acc + (i as f32).sqrt() * 1e-3,
                |a, b| a + b,
            )
        };
        set_num_threads(1);
        let single = reduce();
        set_num_threads(4);
        let pooled = reduce();
        set_num_threads(0);
        assert_eq!(single.to_bits(), pooled.to_bits());
    }

    #[test]
    fn thread_count_override_round_trips() {
        let _guard = test_thread_guard();
        let original = NUM_THREADS.load(Ordering::SeqCst);
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(original);
    }
}
