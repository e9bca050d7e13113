//! Direct depthwise convolution kernels for the `blocked` backend.
//!
//! A depthwise convolution (`groups == cin == cout`) is one `K × K` FIR
//! filter per channel plane, so lowering it to GEMM builds a `K²`-row im2col
//! matrix per channel only to multiply it by a single filter row. These
//! kernels walk the NCHW planes directly instead, each call one pool launch:
//!
//! - [`forward`]: one writer per `(img, ch)` output plane; bias is the
//!   accumulator's starting value.
//! - [`backward_input`]: one writer per `(img, ch)` input plane, scattering
//!   each output gradient back through the taps within that plane.
//! - [`backward_weight`]: one writer per channel's `K × K` taps, reducing
//!   over the images and the plane.
//!
//! Every loop runs over the precomputed range of rows and columns a tap
//! keeps inside the input ([`valid`]), so no pixel is bounds-tested for
//! padding, and every sum is accumulated in a fixed order by its single
//! writer — the results are bit-identical at any pool thread count.

use dsx_tensor::conv::conv_out_size;
use dsx_tensor::{par, Tensor};
use std::ops::Range;

/// The output positions `o` in `0..out_len` for which tap `tap` reads an
/// in-bounds input position `o * stride + tap - pad` in `0..in_len`.
fn valid(out_len: usize, in_len: usize, tap: usize, stride: usize, pad: usize) -> Range<usize> {
    let hi = (in_len + pad)
        .saturating_sub(tap)
        .div_ceil(stride)
        .min(out_len);
    let lo = pad.saturating_sub(tap).div_ceil(stride).min(hi);
    lo..hi
}

/// One tap row or column of the filter: the output positions it keeps
/// inside the input, and the input position the first of them reads.
struct Span {
    out: Range<usize>,
    first_in: usize,
}

/// The geometry of one depthwise call, with every tap's [`Span`] worked out
/// once instead of per plane.
struct Plan {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    stride: usize,
    /// Indexed by the tap row `ky`; spans over output rows.
    rows: Vec<Span>,
    /// Indexed by the tap column `kx`; spans over output columns.
    cols: Vec<Span>,
}

impl Plan {
    fn new(input_shape: &[usize], k: usize, stride: usize, pad: usize) -> Self {
        let (n, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let oh = conv_out_size(h, k, stride, pad);
        let ow = conv_out_size(w, k, stride, pad);
        // An empty span never reads its `first_in`, which saturates instead
        // of underflowing when the tap misses the input entirely.
        let spans = |out_len: usize, in_len: usize| -> Vec<Span> {
            (0..k)
                .map(|tap| {
                    let out = valid(out_len, in_len, tap, stride, pad);
                    let first_in = (out.start * stride + tap).saturating_sub(pad);
                    Span { out, first_in }
                })
                .collect()
        };
        Plan {
            rows: spans(oh, h),
            cols: spans(ow, w),
            n,
            c,
            h,
            w,
            oh,
            ow,
            k,
            stride,
        }
    }

    /// Runs `body(ky, kx, oy, iy, out_cols, ix0)` for every tap and every
    /// output row it reaches: output columns `out_cols` of row `oy` read
    /// input row `iy` from column `ix0` on, every `stride`-th column.
    fn for_each_tap_row(
        &self,
        mut body: impl FnMut(usize, usize, usize, usize, Range<usize>, usize),
    ) {
        for (ky, row) in self.rows.iter().enumerate() {
            for (i, oy) in row.out.clone().enumerate() {
                let iy = row.first_in + i * self.stride;
                for (kx, col) in self.cols.iter().enumerate() {
                    if !col.out.is_empty() {
                        body(ky, kx, oy, iy, col.out.clone(), col.first_in);
                    }
                }
            }
        }
    }
}

/// `dst[i] += tap * src[i * stride]` over `dst`.
fn axpy_strided(dst: &mut [f32], tap: f32, src: &[f32], stride: usize) {
    if stride == 1 {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += tap * v;
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d += tap * v;
        }
    }
}

/// Depthwise forward: `weight` is `[C, 1, K, K]`, `input` `[N, C, H, W]`.
pub(super) fn forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let p = Plan::new(input.shape(), weight.dim(2), stride, pad);
    let (h, w, oh, ow, k) = (p.h, p.w, p.oh, p.ow, p.k);
    let (src, taps) = (input.as_slice(), weight.as_slice());
    let bias = bias.map(Tensor::as_slice);
    let mut output = Tensor::zeros(&[p.n, p.c, oh, ow]);
    par::parallel_for_each_chunk_mut(output.as_mut_slice(), oh * ow, |plane, out| {
        let ch = plane % p.c;
        let x = &src[plane * h * w..(plane + 1) * h * w];
        let f = &taps[ch * k * k..(ch + 1) * k * k];
        if let Some(b) = bias {
            out.fill(b[ch]);
        }
        p.for_each_tap_row(|ky, kx, oy, iy, cols, ix0| {
            let out_cols = &mut out[oy * ow + cols.start..oy * ow + cols.end];
            axpy_strided(
                out_cols,
                f[ky * k + kx],
                &x[iy * w + ix0..(iy + 1) * w],
                stride,
            );
        });
    });
    output
}

/// Depthwise input gradient for an input of shape `input_shape`.
pub(super) fn backward_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Tensor {
    let p = Plan::new(input_shape, weight.dim(2), stride, pad);
    let (h, w, oh, ow, k) = (p.h, p.w, p.oh, p.ow, p.k);
    let (go, taps) = (grad_output.as_slice(), weight.as_slice());
    let mut grad_input = Tensor::zeros(input_shape);
    par::parallel_for_each_chunk_mut(grad_input.as_mut_slice(), h * w, |plane, gi| {
        let ch = plane % p.c;
        let g = &go[plane * oh * ow..(plane + 1) * oh * ow];
        let f = &taps[ch * k * k..(ch + 1) * k * k];
        p.for_each_tap_row(|ky, kx, oy, iy, cols, ix0| {
            let tap = f[ky * k + kx];
            let g_cols = &g[oy * ow + cols.start..oy * ow + cols.end];
            let gi_row = &mut gi[iy * w + ix0..(iy + 1) * w];
            if stride == 1 {
                for (d, &v) in gi_row.iter_mut().zip(g_cols) {
                    *d += tap * v;
                }
            } else {
                for (d, &v) in gi_row.iter_mut().step_by(stride).zip(g_cols) {
                    *d += tap * v;
                }
            }
        });
    });
    grad_input
}

/// Adds the depthwise weight gradient into `grad_weight` (`[C, 1, K, K]`).
pub(super) fn backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    grad_weight: &mut Tensor,
    stride: usize,
    pad: usize,
) {
    let p = Plan::new(input.shape(), grad_weight.dim(2), stride, pad);
    let (c, h, w, oh, ow, k) = (p.c, p.h, p.w, p.oh, p.ow, p.k);
    let (x, go) = (input.as_slice(), grad_output.as_slice());
    par::parallel_for_each_chunk_mut_with_grain(grad_weight.as_mut_slice(), k * k, 1, |ch, gw| {
        // One accumulator per tap, each summed over images, then rows,
        // then columns — a fixed order whatever the pool does.
        let mut acc = vec![0.0f32; k * k];
        for img in 0..p.n {
            let plane = img * c + ch;
            let xp = &x[plane * h * w..(plane + 1) * h * w];
            let gp = &go[plane * oh * ow..(plane + 1) * oh * ow];
            p.for_each_tap_row(|ky, kx, oy, iy, cols, ix0| {
                let g_cols = &gp[oy * ow + cols.start..oy * ow + cols.end];
                let in_row = &xp[iy * w + ix0..(iy + 1) * w];
                let sum = &mut acc[ky * k + kx];
                for (&g, &v) in g_cols.iter().zip(in_row.iter().step_by(stride)) {
                    *sum += g * v;
                }
            });
        }
        for (slot, a) in gw.iter_mut().zip(acc) {
            *slot += a;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_ranges_keep_every_tap_inside_the_input() {
        for (in_len, k, stride, pad) in [(1, 3, 1, 1), (5, 3, 2, 1), (2, 5, 1, 2), (9, 1, 2, 0)] {
            let out_len = conv_out_size(in_len, k, stride, pad);
            for tap in 0..k {
                let r = valid(out_len, in_len, tap, stride, pad);
                for o in 0..out_len {
                    let i = (o * stride + tap) as isize - pad as isize;
                    let inside = i >= 0 && i < in_len as isize;
                    assert_eq!(
                        r.contains(&o),
                        inside,
                        "o {o} tap {tap} in {in_len} k{k} s{stride} p{pad}"
                    );
                }
            }
        }
    }
}
