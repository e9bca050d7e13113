//! Property test: `Layer::infer` ≡ `forward(train = false)` within
//! `TEST_TOLERANCE` for every layer type in the stack — the contract the
//! serving engine's shared-state inference path rests on.

use dsx_core::{BackendKind, SccConfig, SccImplementation};
use dsx_nn::{
    separable_block, BatchNorm2d, ChannelStage, Conv2d, Flatten, GlobalAvgPool, Layer, Linear,
    MaxPool2d, ReLU, SccConv2d, Sequential,
};
use dsx_nn::{AvgPool2d, ResidualBlock};
use dsx_tensor::{allclose, Tensor, TEST_TOLERANCE};
use proptest::prelude::*;

/// Channel count every grouped/SCC case divides evenly.
const CH: usize = 8;

/// The layer-type axis of the property: every `Layer` implementation in
/// `dsx-nn`, including containers.
const KINDS: [&str; 12] = [
    "relu",
    "batchnorm",
    "conv",
    "grouped-conv",
    "depthwise-conv",
    "pointwise-conv",
    "scc-naive",
    "scc-blocked",
    "maxpool",
    "avgpool",
    "gap-flatten-linear",
    "separable-residual",
];

/// Builds the layer under test plus a valid NCHW input shape for it.
fn build_case(kind: &str, batch: usize, hw: usize, seed: u64) -> (Box<dyn Layer>, Vec<usize>) {
    let shape = vec![batch, CH, hw, hw];
    match kind {
        "relu" => (Box::new(ReLU::new()), shape),
        "batchnorm" => {
            let mut bn = BatchNorm2d::new(CH);
            // Move the running statistics off their defaults so the eval
            // path has something non-trivial to reproduce.
            for i in 0..3 {
                bn.forward(&Tensor::randn(&[4, CH, hw, hw], seed + i), true);
            }
            (Box::new(bn), shape)
        }
        "conv" => (Box::new(Conv2d::new(CH, CH + 2, 3, 1, 1, seed)), shape),
        "grouped-conv" => (Box::new(Conv2d::grouped(CH, CH, 3, 2, 1, 2, seed)), shape),
        "depthwise-conv" => (Box::new(Conv2d::depthwise(CH, 3, 1, 1, seed)), shape),
        "pointwise-conv" => (Box::new(Conv2d::pointwise(CH, CH * 2, seed)), shape),
        "scc-naive" | "scc-blocked" => {
            let backend = match kind {
                "scc-naive" => BackendKind::Naive,
                _ => BackendKind::Blocked,
            };
            let cfg = SccConfig::new(CH, CH * 2, 2, 0.5).unwrap();
            (
                Box::new(SccConv2d::new(cfg, seed).with_backend(backend)),
                shape,
            )
        }
        "maxpool" => (Box::new(MaxPool2d::new(2, 2)), shape),
        "avgpool" => (Box::new(AvgPool2d::new(2, 2)), shape),
        "gap-flatten-linear" => (
            Box::new(
                Sequential::new("head")
                    .push(GlobalAvgPool::new())
                    .push(Flatten::new())
                    .push(Linear::new(CH, 5, seed)),
            ),
            shape,
        ),
        "separable-residual" => {
            // A DW+SCC separable block inside a residual wrapper: exercises
            // Sequential, ResidualBlock, Conv2d, BatchNorm2d, ReLU and
            // SccConv2d chained together.
            let main = separable_block(
                CH,
                CH,
                1,
                ChannelStage::SlidingChannel {
                    cg: 2,
                    co: 0.5,
                    implementation: SccImplementation::Dsxplore,
                },
                seed,
            );
            let mut block = ResidualBlock::identity(main);
            // One training pass settles every batch norm's running stats.
            block.forward(&Tensor::randn(&[2, CH, hw, hw], seed + 7), true);
            (Box::new(block), shape)
        }
        other => panic!("unknown layer kind '{other}'"),
    }
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(36)))]

    /// For every layer type: `infer` equals `forward(train=false)` on the
    /// same input, and a training pass in between must not change that
    /// (stale caches must not leak into the inference path).
    #[test]
    fn prop_infer_matches_eval_forward(
        kind in prop::sample::select(KINDS.to_vec()),
        batch in 1usize..4,
        hw in prop::sample::select(vec![4usize, 6, 8]),
        seed in 0u64..1000,
    ) {
        let (mut layer, shape) = build_case(kind, batch, hw, seed);
        let input = Tensor::rand_uniform(&shape, -1.0, 1.0, seed + 42);
        let eval = layer.forward(&input, false);
        let inferred = layer.infer(&input);
        prop_assert!(
            allclose(&inferred, &eval, TEST_TOLERANCE),
            "{kind}: infer != forward(train=false) (batch {batch}, {hw}x{hw})"
        );
        // A training pass (with a different input) must leave `infer`
        // untouched — its caches belong to the training path only.
        layer.forward(&Tensor::rand_uniform(&shape, -1.0, 1.0, seed + 77), true);
        let after_train = layer.infer(&input);
        let eval_after = layer.forward(&input, false);
        prop_assert!(
            allclose(&after_train, &eval_after, TEST_TOLERANCE),
            "{kind}: infer diverges from eval forward after a training pass"
        );
    }
}
