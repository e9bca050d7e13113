//! General matrix-matrix multiplication (GEMM).
//!
//! The paper's baselines (standard, grouped and pointwise convolutions in
//! cuDNN/cuBLAS) are GEMM-backed; our CPU reproduction lowers those same
//! operators through [`crate::conv::im2col`] + this GEMM. The variants:
//!
//! * [`matmul_naive`] — the textbook triple loop, used as the correctness
//!   reference in tests and property tests;
//! * [`matmul_blocked`] — cache-blocked ikj ordering, the historical
//!   sequential kernel;
//! * [`matmul_parallel`] — one AXPY-accumulated output row per pool chunk,
//!   the historical parallel kernel;
//! * [`matmul_block_into`] — the register-tiled block kernel: computes an
//!   arbitrary row/column range of C with `GEMM_MR × GEMM_LANES` register
//!   accumulators, so every B strip loaded from memory feeds [`GEMM_MR`]
//!   output rows instead of one. [`matmul_regtiled`] runs it over the full
//!   range sequentially.
//!
//! `Tensor::matmul` keeps the historical size-based auto-pick
//! ([`GemmKernel::Auto`]); the dense convolution layers on the blocked
//! backend ask for [`GemmKernel::RegTiled`] through [`Tensor::matmul_with`].

use crate::par;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// Cached handle for the `gemm.calls` metric so the per-matmul cost is one
/// relaxed increment, not a registry lookup.
fn gemm_calls() -> &'static dsx_obs::Counter {
    static HANDLE: OnceLock<&'static dsx_obs::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| dsx_obs::counter("gemm.calls"))
}

/// Cache block edge (elements) for the blocked kernel. 64 × 64 f32 blocks of
/// A, B and C fit comfortably in a typical 32 KiB L1 cache.
const BLOCK: usize = 64;

/// Problem size (in multiply-accumulates) above which `Tensor::matmul`
/// switches to the parallel kernel.
const PARALLEL_THRESHOLD: usize = 1 << 20;

/// Column lanes per register tile of the register-tiled kernel: accumulators
/// are `[f32; GEMM_LANES]` arrays LLVM autovectorizes (no `unsafe`, no
/// intrinsics — the same strategy as the SCC blocked kernels in `dsx-core`).
pub const GEMM_LANES: usize = 8;

/// Output rows per register block: `GEMM_MR × GEMM_LANES` C values stay in
/// registers while a column strip of B is streamed, so each B load feeds
/// `GEMM_MR` accumulator rows instead of one (the reuse the row-per-chunk
/// AXPY kernel lacks).
pub const GEMM_MR: usize = 4;

/// Names the GEMM execution strategy a caller wants. The dense convolution
/// layers map their kernel backend onto one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmKernel {
    /// Historical size-based auto-pick: [`matmul_blocked`] for small
    /// problems, [`matmul_parallel`] above ~1 M multiply-accumulates.
    #[default]
    Auto,
    /// Register-tiled sequential kernel ([`matmul_regtiled`]).
    RegTiled,
}

/// Naive reference GEMM: `C[m,n] = sum_k A[m,k] * B[k,n]`.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Cache-blocked GEMM with ikj inner ordering (unit-stride access to B and C).
pub fn matmul_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    let mut c = vec![0.0f32; m * n];
    matmul_blocked_into(a, b, &mut c, m, k, n);
    c
}

/// Blocked GEMM writing into a caller-provided buffer (must be zeroed or hold
/// a partial sum to accumulate onto).
pub fn matmul_blocked_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(c.len(), m * n, "C has wrong length");
    for ib in (0..m).step_by(BLOCK) {
        let i_end = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let k_end = (kb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let j_end = (jb + BLOCK).min(n);
                for i in ib..i_end {
                    for p in kb..k_end {
                        let a_ip = a[i * k + p];
                        if a_ip == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n + jb..p * n + j_end];
                        let c_row = &mut c[i * n + jb..i * n + j_end];
                        for (cv, bv) in c_row.iter_mut().zip(b_row.iter()) {
                            *cv += a_ip * *bv;
                        }
                    }
                }
            }
        }
    }
}

/// Parallel GEMM: output rows are distributed over the worker pool; each row
/// is produced by exactly one worker so no synchronisation is required.
pub fn matmul_parallel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    let mut c = vec![0.0f32; m * n];
    par::parallel_for_each_chunk_mut(&mut c, n.max(1), |i, row| {
        if n == 0 {
            return;
        }
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, bv) in row.iter_mut().zip(b_row.iter()) {
                *cv += a_ip * *bv;
            }
        }
    });
    c
}

/// Register-tiled GEMM block kernel: computes rows `[row0, row1)` and
/// columns `[col0, col1)` of `C = A × B`.
///
/// `c_rows` is the contiguous output slice covering exactly rows
/// `[row0, row1)` at full width `n` (length `(row1 - row0) * n`); only the
/// `[col0, col1)` column range of it is written. Rows are processed in
/// [`GEMM_MR`]-deep register blocks and columns in [`GEMM_LANES`]-wide
/// vector tiles with scalar tails, and every output element accumulates
/// over `p = 0..k` in ascending order regardless of how the caller carved
/// the ranges, so any split of C into ranges is bit-identical to one call
/// over the whole of it.
#[allow(clippy::too_many_arguments)] // a GEMM block kernel is its argument list
pub fn matmul_block_into(
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    k: usize,
    n: usize,
    row0: usize,
    row1: usize,
    col0: usize,
    col1: usize,
) {
    assert!(row0 <= row1 && a.len() >= row1 * k, "A rows out of range");
    assert!(col0 <= col1 && col1 <= n, "column range out of bounds");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c_rows.len(), (row1 - row0) * n, "C strip has wrong length");
    let rows = row1 - row0;
    // Column tiles are the outer loop so each `k × GEMM_LANES` B panel is
    // touched once per row block while it is L1-hot, instead of streaming
    // the whole of B once per row block.
    let mut j = col0;
    while j + GEMM_LANES <= col1 {
        for ib in (0..rows).step_by(GEMM_MR) {
            let rb = GEMM_MR.min(rows - ib);
            let mut acc = [[0.0f32; GEMM_LANES]; GEMM_MR];
            for p in 0..k {
                let bv: &[f32; GEMM_LANES] = b[p * n + j..p * n + j + GEMM_LANES]
                    .try_into()
                    // lint: allow(panic) — the range is GEMM_LANES wide by
                    // construction; failure means the tiler is broken.
                    .expect("lane-sized strip");
                for (r, acc_row) in acc.iter_mut().enumerate().take(rb) {
                    let a_rp = a[(row0 + ib + r) * k + p];
                    for (av, bl) in acc_row.iter_mut().zip(bv.iter()) {
                        *av += a_rp * *bl;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(rb) {
                c_rows[(ib + r) * n + j..(ib + r) * n + j + GEMM_LANES].copy_from_slice(acc_row);
            }
        }
        j += GEMM_LANES;
    }
    // Scalar column tail: same ascending-p accumulation order.
    for jj in j..col1 {
        for i in 0..rows {
            let a_row = &a[(row0 + i) * k..(row0 + i + 1) * k];
            let mut acc = 0.0f32;
            for (p, &a_rp) in a_row.iter().enumerate() {
                acc += a_rp * b[p * n + jj];
            }
            c_rows[i * n + jj] = acc;
        }
    }
}

/// Sequential register-tiled GEMM ([`matmul_block_into`] over the full
/// row/column range).
pub fn matmul_regtiled(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    let mut c = vec![0.0f32; m * n];
    matmul_block_into(a, b, &mut c, k, n, 0, m, 0, n);
    c
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// Chooses the blocked sequential kernel for small problems and the
    /// row-parallel kernel once the work exceeds ~1 M multiply-accumulates.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with(other, GemmKernel::Auto)
    }

    /// Matrix product of two rank-2 tensors on an explicit GEMM kernel (the
    /// dense convolution layers map their `--backend` choice onto this).
    pub fn matmul_with(&self, other: &Tensor, kernel: GemmKernel) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(
            k,
            k2,
            "matmul inner dimensions do not agree: {k} vs {k2} (shapes {:?} x {:?})",
            self.shape(),
            other.shape()
        );
        let (a, b) = (self.as_slice(), other.as_slice());
        gemm_calls().inc();
        let _span = dsx_obs::span_arg(
            "gemm",
            match kernel {
                GemmKernel::Auto => "gemm.auto",
                GemmKernel::RegTiled => "gemm.regtiled",
            },
            "macs",
            (m * k * n) as u64,
        );
        let data = match kernel {
            GemmKernel::Auto => {
                let work = m * k * n;
                if work >= PARALLEL_THRESHOLD && par::num_threads() > 1 {
                    matmul_parallel(a, b, m, k, n)
                } else {
                    matmul_blocked(a, b, m, k, n)
                }
            }
            GemmKernel::RegTiled => matmul_regtiled(a, b, m, k, n),
        };
        Tensor::from_vec(data, &[m, n])
    }

    /// Matrix-vector product of a rank-2 tensor with a rank-1 tensor.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank-2");
        assert_eq!(v.rank(), 1, "matvec rhs must be rank-1");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(k, v.dim(0), "matvec inner dimensions do not agree");
        let out: Vec<f32> = self
            .as_slice()
            .chunks_exact(k)
            .map(|row| row.iter().zip(v.as_slice()).map(|(a, b)| a * b).sum())
            .collect();
        Tensor::from_vec(out, &[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allclose;
    use proptest::prelude::*;

    fn dense(m: usize, k: usize, seed: u64) -> Vec<f32> {
        crate::init::uniform_vec(m * k, -1.0, 1.0, seed)
    }

    #[test]
    fn naive_matches_hand_computed_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(matmul_naive(&a, &b, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn blocked_matches_naive_on_non_multiple_sizes() {
        let (m, k, n) = (37, 53, 29);
        let a = dense(m, k, 1);
        let b = dense(k, n, 2);
        let naive = matmul_naive(&a, &b, m, k, n);
        let blocked = matmul_blocked(&a, &b, m, k, n);
        for (x, y) in naive.iter().zip(blocked.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn parallel_matches_naive() {
        let (m, k, n) = (65, 40, 33);
        let a = dense(m, k, 3);
        let b = dense(k, n, 4);
        let naive = matmul_naive(&a, &b, m, k, n);
        let parallel = matmul_parallel(&a, &b, m, k, n);
        for (x, y) in naive.iter().zip(parallel.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn regtiled_matches_naive_on_non_multiple_sizes() {
        // Sizes that leave partial GEMM_MR row blocks and scalar column
        // tails on both ends.
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (5, 3, 7),
            (37, 53, 29),
            (6, 17, 40),
        ] {
            let a = dense(m, k, 11);
            let b = dense(k, n, 12);
            let naive = matmul_naive(&a, &b, m, k, n);
            let tiled = matmul_regtiled(&a, &b, m, k, n);
            for (x, y) in naive.iter().zip(tiled.iter()) {
                assert!((x - y).abs() < 1e-4, "m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn block_kernel_writes_only_the_requested_ranges() {
        let (m, k, n) = (9, 6, 11);
        let a = dense(m, k, 21);
        let b = dense(k, n, 22);
        let full = matmul_regtiled(&a, &b, m, k, n);
        // Rows [2, 7), columns [3, 10): everything else must stay zero.
        let mut strip = vec![0.0f32; 5 * n];
        matmul_block_into(&a, &b, &mut strip, k, n, 2, 7, 3, 10);
        for r in 0..5 {
            for j in 0..n {
                let got = strip[r * n + j];
                if (3..10).contains(&j) {
                    assert_eq!(got.to_bits(), full[(r + 2) * n + j].to_bits());
                } else {
                    assert_eq!(got, 0.0, "column {j} outside the range was written");
                }
            }
        }
    }

    #[test]
    fn matmul_with_agrees_across_kernels() {
        let a = Tensor::randn(&[13, 17], 41);
        let b = Tensor::randn(&[17, 19], 42);
        let reference = a.matmul_with(&b, GemmKernel::Auto);
        let got = a.matmul_with(&b, GemmKernel::RegTiled);
        assert!(allclose(&got, &reference, 1e-4));
    }

    #[test]
    fn tensor_matmul_identity_is_noop() {
        let a = Tensor::randn(&[5, 5], 10);
        let i = Tensor::eye(5);
        assert!(allclose(&a.matmul(&i), &a, 1e-6));
        assert!(allclose(&i.matmul(&a), &a, 1e-6));
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = Tensor::randn(&[6, 4], 20);
        let v = Tensor::randn(&[4], 21);
        let mv = a.matvec(&v);
        let col = v.reshape(&[4, 1]);
        let mm = a.matmul(&col).reshape(&[6]);
        assert!(allclose(&mv, &mm, 1e-5));
    }

    /// Property-test case count: full natively, minimal under Miri or
    /// `DSX_TEST_FAST` (each case is a whole GEMM; interpreted or
    /// sanitized runs only need the coverage, not the volume).
    fn prop_cases() -> u32 {
        if cfg!(miri) || std::env::var_os("DSX_TEST_FAST").is_some() {
            2
        } else {
            16
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(prop_cases()))]

        #[test]
        fn prop_blocked_equals_naive(
            m in 1usize..24,
            k in 1usize..24,
            n in 1usize..24,
            seed in 0u64..1000,
        ) {
            let a = dense(m, k, seed);
            let b = dense(k, n, seed.wrapping_add(1));
            let naive = matmul_naive(&a, &b, m, k, n);
            let blocked = matmul_blocked(&a, &b, m, k, n);
            for (x, y) in naive.iter().zip(blocked.iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_matmul_is_linear_in_first_argument(
            m in 1usize..8,
            k in 1usize..8,
            n in 1usize..8,
            alpha in -2.0f32..2.0,
            seed in 0u64..1000,
        ) {
            let a = Tensor::from_vec(dense(m, k, seed), &[m, k]);
            let b = Tensor::from_vec(dense(k, n, seed + 1), &[k, n]);
            // (alpha * A) B == alpha * (A B)
            let lhs = a.scale(alpha).matmul(&b);
            let rhs = a.matmul(&b).scale(alpha);
            prop_assert!(allclose(&lhs, &rhs, 1e-3));
        }
    }
}
