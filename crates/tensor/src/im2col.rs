//! im2col lowering: grouped 2-D convolution and both adjoints as GEMM.
//!
//! The [`KernelPolicy::Blocked`] convolution path. Per `(batch, group)`
//! pair the input patch matrix is materialized once:
//!
//! ```text
//! col[(icg*k + ky)*k + kx, oy*ow + ox] = x[b, g*cig + icg, iy, ix]   (0 if padded)
//!         ckk rows                         ohow columns
//!
//! forward      out[cog, ohow]  = W_g[cog, ckk]  @ col[ckk, ohow]
//! grad input   dcol[ckk, ohow] = W_gᵀ[ckk, cog] @ dy_g[cog, ohow]   then col2im⁺
//! grad weight  dW_g[cog, ckk] += dy_g[cog, ohow] @ colᵀ[ohow, ckk]
//! ```
//!
//! All three products run on the packed blocked GEMM (`gemm` module); the
//! weight-gradient accumulates straight into `dW` across batches through
//! GEMM's accumulate mode, and `col2im⁺` is the scatter-add inverse of the
//! patch lowering. Row order of `col` matches the naive kernels' reduction
//! order `(icg, ky, kx)`, so both policies sum contributions in the same
//! sequence.
//!
//! What is lowered is chosen from the [`Conv2dSpec`] alone:
//!
//! | geometry | lowered to |
//! |---|---|
//! | dense, grouped | `col`, then GEMM |
//! | pointwise (`k == 1`, stride 1, no padding) | GEMM on `x` / `dx` in place: the group's input block *is* the column matrix |
//! | depthwise (`cig == 1`, `cog == 1`) | nothing — the `stencil` module, called from the same unit bodies: at `M = 1, K = k*k` the GEMM packs as many floats as it multiplies |
//!
//! The column matrix lives in thread-local scratch ([`with_col_buffer`]):
//! steady-state training re-lowers into the same allocation every step.
//!
//! [`KernelPolicy::Blocked`]: crate::KernelPolicy::Blocked

use std::cell::RefCell;

use crate::conv::Conv2dSpec;
use crate::gemm::gemm_strided;
use crate::parallel::{self, ComputePool};
use crate::simd::{run_tiered, simd_tier};
use crate::stencil::{Depthwise, Plane, Stencil};

thread_local! {
    /// Column-matrix scratch, reused across calls on this thread.
    static COL_BUFFER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's column scratch grown to `len`.
///
/// The buffer is taken out of the cell for the call: `f` may wait on a
/// pool scope and, while helping, run a foreign scope's convolution job
/// on this thread. That job finds the cell empty and allocates its own
/// scratch instead of meeting a live borrow.
fn with_col_buffer<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = COL_BUFFER.take();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    COL_BUFFER.set(buf);
    out
}

/// Per-call geometry, precomputed once by the dispatching kernels.
#[derive(Clone, Copy)]
pub(crate) struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Input spatial extents.
    pub h: usize,
    pub w: usize,
    /// Output spatial extents.
    pub oh: usize,
    pub ow: usize,
}

impl ConvGeom {
    fn cig(&self, spec: &Conv2dSpec) -> usize {
        spec.in_channels / spec.groups
    }

    fn cog(&self, spec: &Conv2dSpec) -> usize {
        spec.out_channels / spec.groups
    }

    /// The plane geometry of the direct stencil, when every group is one
    /// plane in, one plane out (depthwise).
    fn depthwise(&self, spec: &Conv2dSpec) -> Option<Plane> {
        let (k, s, pad, adjoint) = (spec.kernel, spec.stride, spec.padding, false);
        let (h, w, oh, ow) = (self.h, self.w, self.oh, self.ow);
        #[rustfmt::skip]
        let plane = Plane { h, w, oh, ow, k, s, pad, adjoint };
        (self.cig(spec) == 1 && self.cog(spec) == 1).then_some(plane)
    }

    /// Whether the lowering is the identity (the input block is `col`).
    fn pointwise(&self, spec: &Conv2dSpec) -> bool {
        spec.kernel == 1 && spec.stride == 1 && spec.padding == 0
    }
}

/// Fills `col[ckk, oh*ow]` with the patches of one `(batch, group)` input
/// block `xg[cig, h*w]`.
fn im2col(col: &mut [f32], xg: &[f32], spec: &Conv2dSpec, g: &ConvGeom) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding as isize);
    let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
    let ohow = oh * ow;
    for icg in 0..g.cig(spec) {
        let xc = &xg[icg * h * w..][..h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = &mut col[((icg * k + ky) * k + kx) * ohow..][..ohow];
                for oy in 0..oh {
                    let iy = (oy * s + ky) as isize - pad;
                    let dst = &mut row[oy * ow..][..ow];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let xrow = &xc[iy as usize * w..][..w];
                    // ox valid iff 0 <= ox*s + kx - pad < w.
                    let lo = (pad - kx as isize).max(0) as usize;
                    let lo = lo.div_ceil(s).min(ow);
                    let hi_num = w as isize - 1 + pad - kx as isize;
                    let hi = if hi_num < 0 {
                        0
                    } else {
                        ((hi_num as usize) / s + 1).min(ow)
                    };
                    let hi = hi.max(lo);
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    if s == 1 {
                        let start = (lo as isize + kx as isize - pad) as usize;
                        dst[lo..hi].copy_from_slice(&xrow[start..start + (hi - lo)]);
                    } else {
                        for (ox, v) in dst[lo..hi].iter_mut().enumerate() {
                            let ix = ((lo + ox) * s + kx) as isize - pad;
                            *v = xrow[ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds `col[ckk, oh*ow]` back into one input block `dxg[cig, h*w]`
/// — the exact adjoint of [`im2col`].
fn col2im_add(dxg: &mut [f32], col: &[f32], spec: &Conv2dSpec, g: &ConvGeom) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding as isize);
    let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
    let ohow = oh * ow;
    for icg in 0..g.cig(spec) {
        let dxc = &mut dxg[icg * h * w..][..h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = &col[((icg * k + ky) * k + kx) * ohow..][..ohow];
                for oy in 0..oh {
                    let iy = (oy * s + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dxrow = &mut dxc[iy as usize * w..][..w];
                    let src = &row[oy * ow..][..ow];
                    for (ox, &v) in src.iter().enumerate() {
                        let ix = (ox * s + kx) as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            dxrow[ix as usize] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Computes the output block of one `(batch, group)` unit. Inner GEMMs
/// go through [`gemm_strided`], so a *single*-unit conv called outside a
/// pool task still parallelizes over its GEMM bands, while unit bodies
/// running *as* pool tasks execute serially (nested decomposition is
/// suppressed) — either way the values are bitwise identical.
fn conv2d_unit(x: &[f32], w: &[f32], og: &mut [f32], spec: &Conv2dSpec, g: &ConvGeom, u: usize) {
    let (b, gi) = (u / spec.groups, u % spec.groups);
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    let (hw, ohow) = (g.h * g.w, g.oh * g.ow);
    let xg = &x[(b * spec.in_channels + gi * cig) * hw..][..cig * hw];
    let wg = &w[gi * cog * ckk..][..cog * ckk];
    if let Some(p) = g.depthwise(spec) {
        run_tiered(simd_tier(), Depthwise(Stencil::Correlate(xg, wg, og), p));
    } else if g.pointwise(spec) {
        gemm_strided(cog, ohow, ckk, wg, ckk, 1, xg, hw, 1, og, false);
    } else {
        with_col_buffer(ckk * ohow, |col| {
            im2col(col, xg, spec, g);
            gemm_strided(cog, ohow, ckk, wg, ckk, 1, col, ohow, 1, og, false);
        });
    }
}

/// Chunks `units * block`-element `data` into one contiguous unit range
/// per pool lane and runs `f(first_unit, chunk)` for each in parallel.
/// Unit `u`'s block is `data[u * block ..][.. block]`, so contiguous unit
/// ranges are contiguous slices — tasks borrow disjoint `chunks_mut`.
fn par_units(
    pool: &ComputePool,
    data: &mut [f32],
    block: usize,
    f: impl Fn(usize, &mut [f32]) + Send + Sync,
) {
    let units = data.len() / block;
    let per = units.div_ceil(pool.size());
    let f = &f;
    pool.run_scope(|s| {
        for (ci, chunk) in data.chunks_mut(per * block).enumerate() {
            s.spawn(move || f(ci * per, chunk));
        }
    });
}

/// Forward convolution via im2col + GEMM. `out` must be zero-length-checked
/// by the caller: it is fully overwritten, shape `[n, co, oh, ow]`.
///
/// With an active compute pool the `(batch, group)` units are split into
/// contiguous ranges, one range per lane; every unit's output block is
/// produced whole by one worker running the unchanged serial unit body,
/// so the result is bitwise identical to the serial loop.
pub(crate) fn conv2d_blocked(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let block = g.cog(spec) * g.oh * g.ow;
    let units = g.n * spec.groups;
    if units >= 2 {
        if let Some(pool) = parallel::active_pool() {
            par_units(&pool, out, block, |u0, chunk| {
                for (i, og) in chunk.chunks_mut(block).enumerate() {
                    conv2d_unit(x, w, og, spec, g, u0 + i);
                }
            });
            return;
        }
    }
    for (u, og) in out.chunks_mut(block).enumerate() {
        conv2d_unit(x, w, og, spec, g, u);
    }
}

/// Computes the input-gradient block of one `(batch, group)` unit —
/// zeroing its own block first, so units are independent.
fn grad_input_unit(
    dy: &[f32],
    w: &[f32],
    dxg: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    u: usize,
) {
    let (b, gi) = (u / spec.groups, u % spec.groups);
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    let ohow = g.oh * g.ow;
    let dyg = &dy[(b * spec.out_channels + gi * cog) * ohow..][..cog * ohow];
    let wg = &w[gi * cog * ckk..][..cog * ckk];
    if let Some(p) = g.depthwise(spec) {
        let adj = Plane { adjoint: true, ..p };
        run_tiered(
            simd_tier(),
            Depthwise(Stencil::Correlate(dyg, wg, dxg), adj),
        );
    } else if g.pointwise(spec) {
        // dxg[ckk, hw] = W_gᵀ @ dy_g  (ckk == cig, hw == ohow here).
        gemm_strided(ckk, ohow, cog, wg, 1, ckk, dyg, ohow, 1, dxg, false);
    } else {
        dxg.fill(0.0);
        with_col_buffer(ckk * ohow, |dcol| {
            gemm_strided(ckk, ohow, cog, wg, 1, ckk, dyg, ohow, 1, dcol, false);
            col2im_add(dxg, dcol, spec, g);
        });
    }
}

/// Input gradient via GEMM + col2im. `dx` has shape `[n, ci, h, w]` and is
/// fully overwritten. Parallelizes over `(batch, group)` units exactly
/// like [`conv2d_blocked`]; each unit's `dx` block (zero-fill, GEMM, and
/// scatter-add) is owned end to end by one worker.
pub(crate) fn conv2d_grad_input_blocked(
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let block = g.cig(spec) * g.h * g.w;
    let units = g.n * spec.groups;
    if units >= 2 {
        if let Some(pool) = parallel::active_pool() {
            par_units(&pool, dx, block, |u0, chunk| {
                for (i, dxg) in chunk.chunks_mut(block).enumerate() {
                    grad_input_unit(dy, w, dxg, spec, g, u0 + i);
                }
            });
            return;
        }
    }
    for (u, dxg) in dx.chunks_mut(block).enumerate() {
        grad_input_unit(dy, w, dxg, spec, g, u);
    }
}

/// Accumulates the weight gradient of one group over every batch, in
/// batch order, into its `dw` block (`dwg`, shape `[cog, ckk]`).
fn grad_weight_group(
    x: &[f32],
    dy: &[f32],
    dwg: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    gi: usize,
) {
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    let (hw, ohow) = (g.h * g.w, g.oh * g.ow);
    if let Some(p) = g.depthwise(spec) {
        let op = Stencil::GradWeight(&x[gi * hw..], &dy[gi * ohow..], dwg, g.n, spec.groups);
        return run_tiered(simd_tier(), Depthwise(op, p));
    }
    if g.pointwise(spec) {
        for b in 0..g.n {
            let xg = &x[(b * spec.in_channels + gi * cig) * hw..][..cig * hw];
            let dyg = &dy[(b * spec.out_channels + gi * cog) * ohow..][..cog * ohow];
            // dW_g[cog, ckk] += dy_g[cog, ohow] @ xgᵀ[ohow, ckk].
            gemm_strided(cog, ckk, ohow, dyg, ohow, 1, xg, 1, hw, dwg, true);
        }
        return;
    }
    with_col_buffer(ckk * ohow, |col| {
        for b in 0..g.n {
            let xg = &x[(b * spec.in_channels + gi * cig) * hw..][..cig * hw];
            im2col(col, xg, spec, g);
            let dyg = &dy[(b * spec.out_channels + gi * cog) * ohow..][..cog * ohow];
            gemm_strided(cog, ckk, ohow, dyg, ohow, 1, col, 1, ohow, dwg, true);
        }
    });
}

/// Accumulates rows `[r0, r0 + rows)` of a dense (`groups == 1`) weight
/// gradient over every batch in batch order. Each band re-lowers the
/// input per batch — duplicated im2col work, traded for keeping every
/// `dW` element's whole accumulation chain on one worker.
fn grad_weight_rows(
    x: &[f32],
    dy: &[f32],
    dwband: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    r0: usize,
) {
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    let (hw, ohow) = (g.h * g.w, g.oh * g.ow);
    let rows = dwband.len() / ckk;
    if g.pointwise(spec) {
        for b in 0..g.n {
            let xg = &x[b * cig * hw..][..cig * hw];
            let dyr = &dy[(b * cog + r0) * ohow..][..rows * ohow];
            gemm_strided(rows, ckk, ohow, dyr, ohow, 1, xg, 1, hw, dwband, true);
        }
        return;
    }
    with_col_buffer(ckk * ohow, |col| {
        for b in 0..g.n {
            let xg = &x[b * cig * hw..][..cig * hw];
            im2col(col, xg, spec, g);
            let dyr = &dy[(b * cog + r0) * ohow..][..rows * ohow];
            gemm_strided(rows, ckk, ohow, dyr, ohow, 1, col, 1, ohow, dwband, true);
        }
    });
}

/// Weight gradient via im2col + accumulating GEMM. `dw` has shape
/// `[co, cig, k, k]`; contributions are summed over the batch in batch
/// order (matching the naive kernel), starting from the zeros the caller
/// provides.
///
/// `dW` accumulates *across* batches, so the batch axis cannot be split
/// without reordering sums. Instead, an active pool splits the
/// **output**: grouped convs parallelize over `dw`'s per-group blocks,
/// dense convs over `dW` row bands ([`grad_weight_rows`]) — every `dW`
/// element's accumulation chain stays on one worker, in batch order,
/// keeping parallel results bitwise identical to serial ones.
pub(crate) fn conv2d_grad_weight_blocked(
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    if let Some(pool) = parallel::active_pool() {
        if spec.groups >= 2 {
            par_units(&pool, dw, cog * ckk, |g0, chunk| {
                for (i, dwg) in chunk.chunks_mut(cog * ckk).enumerate() {
                    grad_weight_group(x, dy, dwg, spec, g, g0 + i);
                }
            });
            return;
        }
        let band = cog.div_ceil(pool.size());
        if band < cog {
            pool.run_scope(|s| {
                for (bi, dwband) in dw.chunks_mut(band * ckk).enumerate() {
                    s.spawn(move || grad_weight_rows(x, dy, dwband, spec, g, bi * band));
                }
            });
            return;
        }
    }
    for (gi, dwg) in dw.chunks_mut(cog * ckk).enumerate() {
        grad_weight_group(x, dy, dwg, spec, g, gi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_col2im_are_adjoint() {
        // ⟨im2col(x), c⟩ == ⟨x, col2im(c)⟩ for arbitrary x and c.
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 2,
            kernel: 3,
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let g = ConvGeom {
            n: 1,
            h: 5,
            w: 4,
            oh: spec.out_extent(5).unwrap(),
            ow: spec.out_extent(4).unwrap(),
        };
        let ckk = 2 * 9;
        let ohow = g.oh * g.ow;
        let x: Vec<f32> = (0..2 * 5 * 4).map(|i| (i as f32).sin()).collect();
        let c: Vec<f32> = (0..ckk * ohow).map(|i| (i as f32).cos()).collect();
        let mut col = vec![0.0f32; ckk * ohow];
        im2col(&mut col, &x, &spec, &g);
        let mut back = vec![0.0f32; 2 * 5 * 4];
        col2im_add(&mut back, &c, &spec, &g);
        let lhs: f64 = col
            .iter()
            .zip(c.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = x
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_padding_rows_are_zero() {
        let spec = Conv2dSpec::dense(1, 1, 3, 1, 1);
        let g = ConvGeom {
            n: 1,
            h: 3,
            w: 3,
            oh: 3,
            ow: 3,
        };
        let x = vec![1.0f32; 9];
        let mut col = vec![f32::NAN; 9 * 9];
        im2col(&mut col, &x, &spec, &g);
        // Top-left output (oy=0, ox=0), kernel tap (ky=0, kx=0) reads the
        // padded corner: col[row 0, col 0] must be zero.
        assert_eq!(col[0], 0.0);
        // Center tap over the interior is the input itself.
        let center = 4 * 9; // (ky=1, kx=1)
        assert_eq!(&col[center + 4..center + 5], &[1.0]);
        assert!(col.iter().all(|v| !v.is_nan()), "every cell written");
    }
}
