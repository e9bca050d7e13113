//! # dsx-core — sliding-channel convolutions
//!
//! The core of the DSXplore reproduction: the **sliding-channel convolution
//! (SCC)** factorized kernel and the four implementations the paper
//! evaluates.
//!
//! SCC replaces the pointwise (1×1) stage of a depthwise-separable block.
//! Each of the `Cout` filters reads a window of `Cin / cg` input channels;
//! adjacent filters' windows overlap by a ratio `co` and slide cyclically
//! around the channel axis, so cross-channel information segregated by plain
//! group convolution is recovered at GPW-level cost (paper §III).
//!
//! ## Modules
//!
//! * [`backend`] — [`KernelBackend`]: pluggable execution substrates for the
//!   kernels (naive chunked loops vs register-blocked/autovectorized).
//! * [`config`] — [`SccConfig`]: validated `(cin, cout, cg, co)` parameters.
//! * [`cyclic`] — Algorithm 1/2: the channel-cycle map and its reverse map.
//! * [`forward`] — the output-centric forward kernel.
//! * [`backward`] — the input-centric backward kernel (DSXplore) and the
//!   atomic-heavy output-centric variant (DSXplore-Var).
//! * [`compose`] — the channel-stack / convolution-stack operator
//!   compositions (the paper's Pytorch-Base / Pytorch-Opt baselines).
//! * [`layer`] — [`SlidingChannelConv2d`], the high-level operator with owned
//!   weights that dispatches across implementations.
//! * [`mod@reference`] — naive scalar implementations used as ground truth.
//! * [`profile`] — closed-form resource profiles per implementation, consumed
//!   by the `dsx-gpusim` cost model.
//! * [`stats`] — instrumentation counters (MACs, bytes, launches, atomics).
//!
//! ## Example
//!
//! ```
//! use dsx_core::{SccConfig, SccImplementation, SlidingChannelConv2d};
//! use dsx_tensor::Tensor;
//!
//! let cfg = SccConfig::new(16, 32, 2, 0.5).unwrap();
//! let layer = SlidingChannelConv2d::new(cfg)
//!     .with_implementation(SccImplementation::Dsxplore);
//! let input = Tensor::randn(&[4, 16, 8, 8], 1);
//! let output = layer.forward(&input);
//! assert_eq!(output.shape(), &[4, 32, 8, 8]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod backward;
pub mod compose;
pub mod config;
pub mod cyclic;
pub mod forward;
pub mod layer;
pub mod profile;
pub mod reference;
pub mod stats;

pub use backend::{
    default_backend, set_default_backend, BackendKind, BlockedBackend, KernelBackend, NaiveBackend,
};
pub use backward::{scc_backward_input_centric, scc_backward_output_centric, SccGradients};
pub use compose::{ComposedScc, Composition};
pub use config::{SccConfig, SccConfigError};
pub use cyclic::{ChannelCycleMap, ChannelWindow};
pub use forward::scc_forward;
pub use layer::{SccImplementation, SlidingChannelConv2d};
pub use profile::{
    backward_profile, forward_profile, training_step_profile, LayerShape, OpProfile,
};
pub use stats::{KernelStats, StatsSnapshot};
