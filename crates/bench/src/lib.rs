//! Shared workload builders for the Criterion benchmark harness.
//!
//! Each bench file (`benches/*.rs`) maps to one or more tables/figures of the
//! paper (see DESIGN.md §4); this library provides the common fixtures so the
//! benches measure exactly the same kernels and shapes the experiments use.

#![forbid(unsafe_code)]

use dsx_core::{BackendKind, SccConfig, SccImplementation, SlidingChannelConv2d};
use dsx_tensor::Tensor;

pub mod pr5;
pub mod report;

/// The default CIFAR-scale workload shape, shared by the benches and the
/// JSON perf report so the CI gate always measures the same problem.
pub const DEFAULT_WORKLOAD: WorkloadShape = WorkloadShape {
    cin: 64,
    cout: 128,
    cg: 2,
    co: 0.5,
    batch: 8,
    hw: 16,
};

/// Shape of an SCC benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadShape {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Channel groups.
    pub cg: usize,
    /// Overlap ratio.
    pub co: f64,
    /// Batch size.
    pub batch: usize,
    /// Square feature-map side.
    pub hw: usize,
}

/// A ready-to-run SCC layer workload: layer + input + upstream gradient.
pub struct SccWorkload {
    /// The layer under test.
    pub layer: SlidingChannelConv2d,
    /// Input feature map.
    pub input: Tensor,
    /// Upstream gradient for backward benches.
    pub grad_output: Tensor,
}

/// Builds a benchmark workload for a representative SCC layer.
///
/// The default CIFAR-scale shape (`cin=64, cout=128, 16×16, batch 8`) is
/// small enough for Criterion on one CPU core while still exercising the
/// cyclic wrap-around and the channel overlap.
pub fn scc_workload(
    cin: usize,
    cout: usize,
    cg: usize,
    co: f64,
    batch: usize,
    hw: usize,
    implementation: SccImplementation,
) -> SccWorkload {
    let shape = WorkloadShape {
        cin,
        cout,
        cg,
        co,
        batch,
        hw,
    };
    shaped_workload(shape, implementation, BackendKind::Naive)
}

/// Builds a workload for an explicit shape, implementation and kernel
/// backend (the per-backend benches and the JSON perf report use this).
pub fn shaped_workload(
    shape: WorkloadShape,
    implementation: SccImplementation,
    backend: BackendKind,
) -> SccWorkload {
    let cfg =
        SccConfig::new(shape.cin, shape.cout, shape.cg, shape.co).expect("valid bench config");
    let layer = SlidingChannelConv2d::with_seed(cfg, 42)
        .with_implementation(implementation)
        .with_backend(backend);
    SccWorkload {
        input: Tensor::randn(&[shape.batch, shape.cin, shape.hw, shape.hw], 1),
        grad_output: Tensor::randn(&[shape.batch, shape.cout, shape.hw, shape.hw], 2),
        layer,
    }
}

/// Default CIFAR-scale workload used by most benches (naive backend, the
/// historical baseline).
pub fn default_workload(implementation: SccImplementation) -> SccWorkload {
    default_workload_with_backend(implementation, BackendKind::Naive)
}

/// Default CIFAR-scale workload on an explicit kernel backend.
pub fn default_workload_with_backend(
    implementation: SccImplementation,
    backend: BackendKind,
) -> SccWorkload {
    shaped_workload(DEFAULT_WORKLOAD, implementation, backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_are_consistent() {
        let w = default_workload(SccImplementation::Dsxplore);
        let out = w.layer.forward(&w.input);
        assert_eq!(out.shape(), w.grad_output.shape());
    }
}
