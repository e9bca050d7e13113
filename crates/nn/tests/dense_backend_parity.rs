//! Cross-backend parity property suite for the dense `Conv2d` layer.
//!
//! Mirrors `dsx-core`'s `backend_parity` suite on the dense side: every
//! backend (naive im2col GEMM, register-tiled GEMM) must match the direct
//! scalar reference within `TEST_TOLERANCE` — no tolerance widening —
//! across kernel sizes, strides, paddings, group counts, non-square spatial
//! dims, and plane widths that do not divide the GEMM vector width. Plus a
//! bit-determinism check: the blocked path must produce identical bits at
//! 1 and N pool threads.

use dsx_core::BackendKind;
use dsx_nn::conv::{conv2d_reference, Conv2d};
use dsx_nn::Layer;
use dsx_tensor::{allclose, Tensor, TEST_TOLERANCE};
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)] // mirrors Conv2d::grouped's signature
fn conv_for(
    backend: BackendKind,
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    seed: u64,
) -> Conv2d {
    Conv2d::grouped(cin, cout, kernel, stride, pad, groups, seed).with_backend(backend)
}

/// Property-test case count: full natively, minimal under Miri or
/// `DSX_TEST_FAST` (sanitizer/interpreter runs need the coverage, not
/// the volume).
fn prop_cases(full: u32) -> u32 {
    if cfg!(miri) || std::env::var_os("DSX_TEST_FAST").is_some() {
        2
    } else {
        full
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    /// Forward parity on train and eval paths: every backend == the direct
    /// scalar reference, TEST_TOLERANCE.
    #[test]
    fn prop_dense_forward_parity(
        groups in prop::sample::select(vec![1usize, 2, 4]),
        cin_mult in 1usize..3,
        cout_mult in 1usize..4,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        n in 1usize..3,
        h in 1usize..10,
        w in 1usize..10,
        seed in 0u64..1000,
    ) {
        let (cin, cout) = (groups * cin_mult, groups * cout_mult);
        // The output must be non-empty.
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(()); // empty output plane
        }
        let input = Tensor::randn(&[n, cin, h, w], seed);
        let oracle = conv_for(BackendKind::Naive, cin, cout, kernel, stride, pad, groups, seed);
        let want = conv2d_reference(&input, oracle.weight(), oracle.bias(), stride, pad, groups);
        for backend in BackendKind::ALL {
            let mut conv = conv_for(backend, cin, cout, kernel, stride, pad, groups, seed);
            let train = conv.forward(&input, true);
            prop_assert!(
                allclose(&train, &want, TEST_TOLERANCE),
                "{backend} train forward != reference for k{kernel} s{stride} p{pad} g{groups} {h}x{w}"
            );
            let eval = conv.infer(&input);
            prop_assert!(
                allclose(&eval, &want, TEST_TOLERANCE),
                "{backend} infer != reference for k{kernel} s{stride} p{pad} g{groups} {h}x{w}"
            );
        }
    }

    /// Backward parity: grad_input and every parameter gradient agree with
    /// the naive backend across the same shape grid.
    #[test]
    fn prop_dense_backward_parity(
        groups in prop::sample::select(vec![1usize, 2]),
        cin_mult in 1usize..3,
        cout_mult in 1usize..3,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        h in 1usize..8,
        w in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (cin, cout) = (groups * cin_mult, groups * cout_mult);
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(()); // empty output plane
        }
        let input = Tensor::randn(&[1, cin, h, w], seed);
        let run = |backend: BackendKind| {
            let mut conv = conv_for(backend, cin, cout, kernel, stride, pad, groups, seed);
            let out = conv.forward(&input, true);
            let grad_input = conv.backward(&Tensor::randn(out.shape(), seed + 1));
            let mut grads = Vec::new();
            conv.visit_params(&mut |_, grad| grads.push(grad.clone()));
            (grad_input, grads)
        };
        let (naive_gi, naive_grads) = run(BackendKind::Naive);
        let backend = BackendKind::Blocked;
        let (gi, grads) = run(backend);
        prop_assert!(
            allclose(&gi, &naive_gi, TEST_TOLERANCE),
            "{backend} grad_input != naive for k{kernel} s{stride} p{pad} g{groups} {h}x{w}"
        );
        prop_assert_eq!(grads.len(), naive_grads.len());
        for (got, want) in grads.iter().zip(&naive_grads) {
            prop_assert!(
                allclose(got, want, TEST_TOLERANCE),
                "{backend} param grad != naive for k{kernel} s{stride} p{pad} g{groups} {h}x{w}"
            );
        }
    }
}

/// Deterministic sweep over ragged plane widths straddling the GEMM vector
/// width (8 lanes) on both sides, for every backend.
#[test]
fn parity_grid_over_ragged_planes() {
    let spatial = [(1usize, 1usize), (1, 7), (2, 8), (3, 9), (5, 7), (4, 16)];
    for (kernel, stride, pad) in [(1usize, 1usize, 0usize), (3, 1, 1), (3, 2, 1), (2, 2, 0)] {
        for (h, w) in spatial {
            if h + 2 * pad < kernel || w + 2 * pad < kernel {
                continue;
            }
            let input = Tensor::randn(&[2, 4, h, w], 83);
            let oracle = conv_for(BackendKind::Naive, 4, 6, kernel, stride, pad, 2, 84);
            let want = conv2d_reference(&input, oracle.weight(), oracle.bias(), stride, pad, 2);
            for backend in BackendKind::ALL {
                let conv = conv_for(backend, 4, 6, kernel, stride, pad, 2, 84);
                let got = conv.infer(&input);
                assert!(
                    allclose(&got, &want, TEST_TOLERANCE),
                    "{backend} parity fails for k{kernel} s{stride} p{pad} {h}x{w}"
                );
            }
        }
    }
}

/// Same seed, 1 pool thread vs N pool threads: the blocked backend's
/// pool-scheduled dense paths — train forward + backward and infer — must
/// be bit-identical, not merely within tolerance. 64×64 planes give the
/// pool real im2col rows to split.
#[test]
fn pooled_dense_paths_are_bit_identical_across_thread_counts() {
    let input = Tensor::randn(&[2, 8, 64, 64], 95);
    let run = || {
        let mut conv = conv_for(BackendKind::Blocked, 8, 12, 3, 1, 1, 2, 96);
        let fwd = conv.forward(&input, true);
        let gi = conv.backward(&Tensor::randn(fwd.shape(), 97));
        let eval = conv.infer(&input);
        let mut grads = Vec::new();
        conv.visit_params(&mut |_, grad| grads.push(grad.clone()));
        (fwd, gi, eval, grads)
    };
    dsx_tensor::set_num_threads(1);
    let (fwd_1, gi_1, eval_1, grads_1) = run();
    dsx_tensor::set_num_threads(4);
    let (fwd_n, gi_n, eval_n, grads_n) = run();
    dsx_tensor::set_num_threads(0);
    assert_eq!(
        fwd_1.as_slice(),
        fwd_n.as_slice(),
        "train forward must be bit-identical at 1 vs 4 threads"
    );
    assert_eq!(
        eval_1.as_slice(),
        eval_n.as_slice(),
        "infer must be bit-identical at 1 vs 4 threads"
    );
    assert_eq!(
        gi_1.as_slice(),
        gi_n.as_slice(),
        "grad_input must be bit-identical at 1 vs 4 threads"
    );
    for (g1, gn) in grads_1.iter().zip(&grads_n) {
        assert_eq!(
            g1.as_slice(),
            gn.as_slice(),
            "param grads must be bit-identical at 1 vs 4 threads"
        );
    }
}
