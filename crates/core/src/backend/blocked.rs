//! Register-blocked, autovectorizable SCC kernels.
//!
//! Three ideas, all safe Rust (no `unsafe`, no intrinsics, no nightly):
//!
//! 1. **Spatial tiling** — the output plane is processed in [`LANES`]-wide
//!    strips held in fixed-size `[f32; LANES]` accumulator arrays. The inner
//!    loops run over a constant bound, so LLVM unrolls and autovectorizes
//!    them, and each output strip is written exactly once instead of once
//!    per window tap (the naive kernel makes `group_width` passes over the
//!    whole plane).
//! 2. **Output-channel blocking** — Algorithm 2 makes output channels
//!    `oc` and `oc + cyclic_dist` read the *same* input-channel window, so
//!    the forward kernel groups all planes sharing a window (via
//!    `par::parallel_for_each_chunk_group_mut`) and computes [`OC_BLOCK`]
//!    of them together: every input tile loaded from memory feeds
//!    `OC_BLOCK` independent accumulator rows, cutting input traffic by
//!    that factor. On the default CIFAR-scale bench workload
//!    (`cin=64, cg=2, co=0.5, cout=128`) 32 output channels share each
//!    window.
//! 3. **Tap blocking in the weight gradient** — the `grad_output` strip is
//!    loaded once per [`TAP_BLOCK`] window taps rather than once per tap.
//!
//! The scalar tail handles plane sizes that do not divide [`LANES`], so any
//! spatial shape is supported; the cross-backend proptest suite exercises
//! exactly those ragged cases.

use super::{record_forward_stats, BackendKind, KernelBackend};
use crate::backward::naive_grad_bias;
use crate::config::SccConfig;
use crate::cyclic::ChannelCycleMap;
use crate::reference::{dims4, validate_shapes};
use crate::stats::KernelStats;
use dsx_tensor::{par, Tensor};

/// Width (in `f32` elements) of one register tile; `[f32; LANES]` arrays
/// are the unit LLVM autovectorizes.
pub const LANES: usize = 8;

/// How many output channels sharing an input-channel window are accumulated
/// per forward pass. Sized so the `OC_BLOCK * LANES`-float accumulator tile
/// plus one input tile still fits the 16 SIMD registers of baseline x86-64.
pub const OC_BLOCK: usize = 6;

/// How many window taps share one `grad_output` strip in the weight-gradient
/// kernel (a narrower block: each tap adds an input tile to the register
/// working set).
pub const TAP_BLOCK: usize = 4;

/// The register-blocked execution substrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedBackend;

impl KernelBackend for BlockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Blocked
    }

    fn forward(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stats: Option<&KernelStats>,
    ) -> Tensor {
        validate_shapes(cfg, input, weight, bias);
        let (n, cin, h, w) = dims4(input);
        let cout = cfg.cout();
        let gw = cfg.group_width();
        let plane = h * w;
        let cd = map.cyclic_dist().max(1);

        let mut output = Tensor::zeros(&[n, cout, h, w]);
        let in_data = input.as_slice();
        let w_data = weight.as_slice();
        let b_data = bias.map(|b| b.as_slice());

        // Per-window tap offsets and pre-broadcast weight tables, resolved
        // once per call and reused by every image that reads the window.
        let window_bases = build_window_bases(map, cd, plane);
        let window_tables = build_all_window_tables(cd, cout, w_data, b_data, gw);

        // One group per (image, channel window): all output-channel planes of
        // the group read the same input channels, so one worker streams each
        // input tile once and feeds OC_BLOCK accumulator rows from it.
        par::parallel_for_each_chunk_group_mut(
            output.as_mut_slice(),
            plane,
            n * cd,
            |chunk_idx| {
                let img = chunk_idx / cout;
                let oc = chunk_idx % cout;
                img * cd + oc % cd
            },
            |group_idx, planes| {
                let img = group_idx / cd;
                let window = group_idx % cd;
                let image = &in_data[img * cin * plane..(img + 1) * cin * plane];
                forward_blocks(planes, &window_bases[window], image, &window_tables[window]);
            },
        );

        record_forward_stats(cfg, n, plane, &output, stats);
        output
    }

    fn grad_input(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        weight: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor {
        let (n, cout, h, w) = dims4(grad_output);
        let cin = cfg.cin();
        let gw = cfg.group_width();
        let plane = h * w;
        let go_data = grad_output.as_slice();
        let w_data = weight.as_slice();
        let reverse = map.input_to_outputs();

        let mut grad_input = Tensor::zeros(&[n, cin, h, w]);
        par::parallel_for_each_chunk_mut(
            grad_input.as_mut_slice(),
            plane,
            |chunk_idx, gi_plane| {
                let img = chunk_idx / cin;
                let ic = chunk_idx % cin;
                let go_image = &go_data[img * cout * plane..(img + 1) * cout * plane];
                grad_input_plane(gi_plane, &reverse[ic], go_image, w_data, gw);
            },
        );
        grad_input
    }

    fn grad_weight_bias(
        &self,
        cfg: &SccConfig,
        map: &ChannelCycleMap,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> (Tensor, Tensor) {
        let (n, cin, h, w) = dims4(input);
        let cout = cfg.cout();
        let gw = cfg.group_width();
        let plane = h * w;
        let in_data = input.as_slice();
        let go_data = grad_output.as_slice();

        let mut grad_weight = Tensor::zeros(&[cout, gw]);
        // Grain 1: each gw-element row reduces over every image's whole
        // plane, so the length-proportional claim heuristic would batch
        // (or inline) rows that should spread across the pool.
        par::parallel_for_each_chunk_mut_with_grain(
            grad_weight.as_mut_slice(),
            gw,
            1,
            |oc, gw_row| {
                let window = map.window_for_output(oc);
                let ics = window.channels();
                for img in 0..n {
                    let go_plane =
                        &go_data[(img * cout + oc) * plane..(img * cout + oc + 1) * plane];
                    let image = &in_data[img * cin * plane..(img + 1) * cin * plane];
                    grad_weight_tap_blocks(gw_row, &ics, go_plane, image);
                }
            },
        );
        (grad_weight, naive_grad_bias(cfg, grad_output))
    }
}

/// Computes one spatial pass of `OCB` output-channel planes that share an
/// input-channel window: for every [`LANES`]-wide strip, each input tile is
/// loaded once and multiplied into `OCB` register accumulator rows.
///
/// Each `block` entry is `(chunk_idx, plane)`.
///
/// `wtab`/`biases` come pre-broadcast from [`build_window_tables`]
/// (`wtab[j * OCB + b] = splat(weight[oc_b][j])`), so the hot loop is pure
/// loads + mul/add on fixed-width arrays — no scalar broadcasts, no index
/// arithmetic beyond `base + t`, and the only branches are the
/// (predictable) slice checks.
fn forward_block<const OCB: usize>(
    block: &mut [(usize, &mut [f32])],
    bases: &[usize],
    image: &[f32],
    wtab: &[[f32; LANES]],
    biases: &[f32],
) {
    debug_assert_eq!(block.len(), OCB);
    debug_assert_eq!(wtab.len() % OCB, 0);
    debug_assert!(biases.len() >= OCB);
    let plane = block[0].1.len();
    let mut t = 0usize;
    while t + LANES <= plane {
        let mut acc = [[0.0f32; LANES]; OCB];
        for (&base, wv) in bases.iter().zip(wtab.chunks_exact(OCB)) {
            let at = base + t;
            let x: [f32; LANES] = image[at..at + LANES]
                .try_into()
                // lint: allow(panic) — the range is LANES wide by
                // construction; failure would mean the tiler itself is
                // broken, which must die loudly, not corrupt output.
                .expect("tile is LANES wide");
            for b in 0..OCB {
                let w = wv[b];
                let row = &mut acc[b];
                for l in 0..LANES {
                    row[l] += w[l] * x[l];
                }
            }
        }
        for (b, (_, out_plane)) in block.iter_mut().enumerate() {
            let bias = biases[b];
            for (dst, a) in out_plane[t..t + LANES].iter_mut().zip(acc[b]) {
                *dst = a + bias;
            }
        }
        t += LANES;
    }
    // Scalar tail for plane sizes that do not divide the tile width.
    while t < plane {
        for (b, (_, out_plane)) in block.iter_mut().enumerate() {
            let mut acc = biases[b];
            for (&base, wv) in bases.iter().zip(wtab.chunks_exact(OCB)) {
                acc += wv[b][0] * image[base + t];
            }
            out_plane[t] = acc;
        }
        t += 1;
    }
}

/// Pre-broadcast forward tables for one cyclic window: for each
/// [`OC_BLOCK`]-sized chunk of the window's output channels (in ascending
/// `oc` order, matching the chunk order handed to [`forward_blocks`]), the
/// splat weight table (`wtab[j * len + b] = [weight[oc_b][j]; LANES]`) and
/// bias row. Built once per forward call and reused across every image
/// that reads the window.
struct WindowTables {
    blocks: Vec<WindowBlock>,
}

struct WindowBlock {
    wtab: Vec<[f32; LANES]>,
    biases: [f32; OC_BLOCK],
    len: usize,
}

/// Builds the [`WindowTables`] for one window's output channels.
fn build_window_tables(
    ocs: &[usize],
    w_data: &[f32],
    b_data: Option<&[f32]>,
    gw: usize,
) -> WindowTables {
    let blocks = ocs
        .chunks(OC_BLOCK)
        .map(|chunk| {
            let len = chunk.len();
            let mut wtab = vec![[0.0f32; LANES]; gw * len];
            let mut biases = [0.0f32; OC_BLOCK];
            for (b, &oc) in chunk.iter().enumerate() {
                biases[b] = b_data.map(|bd| bd[oc]).unwrap_or(0.0);
                for j in 0..gw {
                    wtab[j * len + b] = [w_data[oc * gw + j]; LANES];
                }
            }
            WindowBlock { wtab, biases, len }
        })
        .collect();
    WindowTables { blocks }
}

/// [`build_window_tables`] for every window: window `w` owns output
/// channels `oc ≡ w (mod cd)` in ascending order.
fn build_all_window_tables(
    cd: usize,
    cout: usize,
    w_data: &[f32],
    b_data: Option<&[f32]>,
    gw: usize,
) -> Vec<WindowTables> {
    (0..cd)
        .map(|w| {
            let ocs: Vec<usize> = (w..cout).step_by(cd).collect();
            build_window_tables(&ocs, w_data, b_data, gw)
        })
        .collect()
}

/// Per-tap input-channel base offsets for every window of `map`, resolved
/// once per call.
fn build_window_bases(map: &ChannelCycleMap, cd: usize, plane: usize) -> Vec<Vec<usize>> {
    (0..cd)
        .map(|w| {
            map.windows()[w]
                .channels()
                .iter()
                .map(|ic| ic * plane)
                .collect()
        })
        .collect()
}

/// Runs [`forward_block`] over `planes` in [`OC_BLOCK`]-sized pieces using
/// the window's pre-built tables, dispatching to the right monomorphisation
/// for each (possibly partial) block. `planes` must list the window's
/// output channels in the same ascending order `tables` was built from.
fn forward_blocks(
    planes: &mut [(usize, &mut [f32])],
    bases: &[usize],
    image: &[f32],
    tables: &WindowTables,
) {
    let mut rest = planes;
    for block_tables in &tables.blocks {
        if rest.is_empty() {
            break;
        }
        let take = block_tables.len;
        debug_assert!(take <= rest.len(), "tables and planes disagree");
        let (block, tail) = rest.split_at_mut(take);
        let wtab = &block_tables.wtab;
        let biases = &block_tables.biases[..];
        match take {
            6 => forward_block::<6>(block, bases, image, wtab, biases),
            5 => forward_block::<5>(block, bases, image, wtab, biases),
            4 => forward_block::<4>(block, bases, image, wtab, biases),
            3 => forward_block::<3>(block, bases, image, wtab, biases),
            2 => forward_block::<2>(block, bases, image, wtab, biases),
            _ => forward_block::<1>(block, bases, image, wtab, biases),
        }
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "planes left over after the table blocks");
}

/// Computes one input-gradient plane: every covering filter's
/// contribution is pulled into a register tile and each [`LANES`]-wide
/// strip is written once (the naive kernel re-reads and re-writes the plane
/// once per covering filter).
fn grad_input_plane(
    gi: &mut [f32],
    pairs: &[(usize, usize)],
    go_image: &[f32],
    w_data: &[f32],
    gw: usize,
) {
    let plane = gi.len();
    let mut t = 0usize;
    while t + LANES <= plane {
        let mut acc = [0.0f32; LANES];
        for &(oc, offset) in pairs {
            let wj = w_data[oc * gw + offset];
            let at = oc * plane + t;
            let g: [f32; LANES] = go_image[at..at + LANES]
                .try_into()
                // lint: allow(panic) — LANES-wide by construction (see the
                // forward kernel's identical conversion).
                .expect("strip is LANES wide");
            for l in 0..LANES {
                acc[l] += wj * g[l];
            }
        }
        gi[t..t + LANES].copy_from_slice(&acc);
        t += LANES;
    }
    while t < plane {
        let mut acc = 0.0f32;
        for &(oc, offset) in pairs {
            acc += w_data[oc * gw + offset] * go_image[oc * plane + t];
        }
        gi[t] = acc;
        t += 1;
    }
}

/// Accumulates one filter row's weight gradient over one image's plane,
/// dispatching [`TAP_BLOCK`]-sized tap groups to the right
/// [`grad_weight_taps`] monomorphisation.
fn grad_weight_tap_blocks(gw_row: &mut [f32], ics: &[usize], go_plane: &[f32], image: &[f32]) {
    let gw = gw_row.len();
    let mut j = 0usize;
    while j < gw {
        let take = (gw - j).min(TAP_BLOCK);
        let taps = &ics[j..j + take];
        let row = &mut gw_row[j..j + take];
        match take {
            4 => grad_weight_taps::<4>(row, taps, go_plane, image),
            3 => grad_weight_taps::<3>(row, taps, go_plane, image),
            2 => grad_weight_taps::<2>(row, taps, go_plane, image),
            _ => grad_weight_taps::<1>(row, taps, go_plane, image),
        }
        j += take;
    }
}

/// Accumulates `TB` consecutive taps of one filter row over one image's
/// plane: the `grad_output` strip is loaded once per tile and dotted
/// against `TB` input-channel tiles, with per-tap `[f32; LANES]` partial
/// sums reduced at the end.
fn grad_weight_taps<const TB: usize>(
    row: &mut [f32],
    taps: &[usize],
    go_plane: &[f32],
    image: &[f32],
) {
    debug_assert_eq!(row.len(), TB);
    debug_assert_eq!(taps.len(), TB);
    let plane = go_plane.len();
    let mut acc = [[0.0f32; LANES]; TB];
    let mut t = 0usize;
    while t + LANES <= plane {
        let g: [f32; LANES] = go_plane[t..t + LANES]
            .try_into()
            // lint: allow(panic) — `t + LANES <= plane` is the loop guard, so
            // the strip is exactly LANES long.
            .expect("strip is LANES wide");
        for b in 0..TB {
            let base = taps[b] * plane + t;
            let x: [f32; LANES] = image[base..base + LANES]
                .try_into()
                // lint: allow(panic) — LANES-wide by construction, as above.
                .expect("tile is LANES wide");
            let lanes = &mut acc[b];
            for l in 0..LANES {
                lanes[l] += g[l] * x[l];
            }
        }
        t += LANES;
    }
    let mut tails = [0.0f32; TB];
    while t < plane {
        let g = go_plane[t];
        for b in 0..TB {
            tails[b] += g * image[taps[b] * plane + t];
        }
        t += 1;
    }
    for b in 0..TB {
        row[b] += acc[b].iter().sum::<f32>() + tails[b];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{scc_backward_reference, scc_forward_reference};
    use dsx_tensor::{allclose, TEST_TOLERANCE};

    fn check(cin: usize, cout: usize, cg: usize, co: f64, n: usize, h: usize, w: usize) {
        let cfg = SccConfig::new(cin, cout, cg, co).unwrap();
        let map = ChannelCycleMap::build(&cfg);
        let input = Tensor::randn(&[n, cin, h, w], 11);
        let weight = Tensor::randn(&[cout, cfg.group_width()], 12);
        let bias = Tensor::randn(&[cout], 13);
        let grad_out = Tensor::randn(&[n, cout, h, w], 14);
        let backend = BlockedBackend;

        let fwd = backend.forward(&cfg, &map, &input, &weight, Some(&bias), None);
        let ref_fwd = scc_forward_reference(&cfg, &input, &weight, Some(&bias));
        assert!(
            allclose(&fwd, &ref_fwd, TEST_TOLERANCE),
            "forward diverges for cin={cin} cout={cout} cg={cg} co={co} {h}x{w}"
        );

        let grads = backend.backward(&cfg, &map, &input, &weight, &grad_out, None);
        let (ref_gi, ref_gw, ref_gb) = scc_backward_reference(&cfg, &input, &weight, &grad_out);
        assert!(
            allclose(&grads.grad_input, &ref_gi, TEST_TOLERANCE),
            "grad_input"
        );
        assert!(
            allclose(&grads.grad_weight, &ref_gw, TEST_TOLERANCE),
            "grad_weight"
        );
        assert!(
            allclose(&grads.grad_bias, &ref_gb, TEST_TOLERANCE),
            "grad_bias"
        );
    }

    #[test]
    fn matches_reference_on_paper_settings() {
        check(16, 32, 2, 0.5, 2, 5, 5);
        check(16, 32, 4, 0.5, 1, 4, 4);
        check(16, 32, 8, 0.5, 1, 4, 4);
        check(12, 24, 2, 0.33, 2, 3, 3);
    }

    #[test]
    fn matches_reference_on_ragged_planes_and_non_square_dims() {
        // Plane sizes that do not divide LANES (scalar tail), including
        // planes smaller than one tile, and non-square spatial dims.
        check(8, 16, 2, 0.5, 2, 3, 5); // plane 15
        check(8, 16, 2, 0.5, 1, 1, 3); // plane 3 < LANES
        check(8, 12, 4, 0.25, 1, 7, 9); // plane 63
        check(8, 16, 2, 0.5, 1, 2, 4); // plane 8 == LANES exactly
    }

    #[test]
    fn matches_reference_when_output_channels_do_not_fill_blocks() {
        // cout chosen so window groups hold 1, 2, 3 and 5 planes — exercising
        // every forward_block monomorphisation including partial blocks.
        check(8, 4, 2, 0.5, 1, 4, 4); // 4 windows, 1 plane each
        check(8, 7, 2, 0.5, 1, 4, 4); // ragged: some windows get 2 planes
        check(4, 10, 2, 0.5, 1, 4, 4); // cyclic_dist 4 -> groups of 2 and 3
        check(4, 20, 2, 0.5, 1, 4, 4); // groups of 5: one full block + 1
    }

    #[test]
    fn pointwise_and_gpw_corners() {
        check(8, 12, 1, 0.0, 1, 4, 4); // pointwise: one shared window
        check(8, 12, 4, 0.0, 1, 4, 4); // GPW: disjoint windows
    }
}
