//! The [`KernelPolicy::Blocked`] convolution path: grouped 2-D convolution
//! and both adjoints, split into `(batch, group)` units (row bands of `dW`
//! for the weight gradient) and each unit lowered to the cheapest kernel
//! its geometry allows.
//!
//! What a unit is lowered to is chosen from the [`Conv2dSpec`] alone:
//!
//! | geometry | lowered to | forward epilogue | gated weight gradient |
//! |---|---|---|---|
//! | dense (`groups == 1`) at stride 1 — `k x k` and pointwise | nothing — the `direct` module reads the image in place (padded once into `cig·(h+2p)·(w+2p)` floats of scratch when `p > 0`): at 16 channels the column matrix is 9x the image, copied again by GEMM's `pack_b`, and the weight gradient packed it through read streams one L1 set apart. Grad-input with `p > k - 1` has no forward twin and stays on `col2im⁺` | in the register tile's write-out: free next to its `8·32·ckk` multiply-adds | a fused pass writes `dz`, which grad-input reads too |
//! | depthwise (`cig == 1`, `cog == 1`) | nothing — the `stencil` module, which copies each plane it reads once into zero-bordered scratch (about `(h+2p)·(w+2p)` floats, ≤ 17 KiB at 64×64): at `M = 1, K = k*k` the GEMM packs as many floats as it multiplies | over each output plane once its tiles are written, in L1: in the write-out of a 9-deep tile it cost a third of the kernel | in the tile, as it loads `dy` (ragged rows: gated into scratch) |
//! | strided, or grouped but not depthwise | `col`, then GEMM (below) | over each row of the unit's block after the GEMM, in cache | a fused pass writes `dz` |
//!
//! All three are called from the same unit bodies, so every geometry
//! shares one parallel decomposition. Forward and grad-input write every
//! element of their output (col2im⁺ units zero their own blocks first), so
//! their tensors are not zeroed before the kernel runs. The im2col lowering
//! materializes the input patch matrix once per `(batch, group)` pair:
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
//! order `(icg, ky, kx)` — the order of the direct kernels' chains too —
//! so both policies sum contributions in the same sequence.
//!
//! The column matrix, the direct kernels' padded image and partial sums, or
//! the stencil's padded plane lives in thread-local scratch
//! ([`with_scratch`]): steady-state training works in the same allocation
//! every step.
//!
//! [`KernelPolicy::Blocked`]: crate::KernelPolicy::Blocked

use std::cell::RefCell;

use crate::conv::Conv2dSpec;
use crate::direct::{Direct, Op, Window};
use crate::epilogue::{grad_epilogue, Activation, Epilogue};
use crate::gemm::gemm_strided;
use crate::parallel;
use crate::simd::{run_tiered, simd_tier};
use crate::stencil::{Depthwise, Plane, Stencil};

thread_local! {
    /// Convolution scratch, reused across calls on this thread.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's convolution scratch grown to `len`.
///
/// The buffer is taken out of the cell for the call: `f` may wait on a
/// pool scope and, while helping, run a foreign scope's convolution job
/// on this thread. That job finds the cell empty and allocates its own
/// scratch instead of meeting a live borrow.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = SCRATCH.take();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    SCRATCH.set(buf);
    out
}

/// Runs a direct kernel in the code compiled for the process's SIMD tier,
/// over this thread's scratch.
fn run_direct(op: Op<'_>, win: Window) {
    with_scratch(op.scratch_len(&win), |scratch| {
        run_tiered(simd_tier(), Direct(op, win, scratch));
    });
}

/// [`run_direct`] for the depthwise stencil.
fn run_depthwise(op: Stencil<'_>, p: Plane) {
    with_scratch(op.scratch_len(&p), |scratch| {
        run_tiered(simd_tier(), Depthwise(op, p, scratch));
    });
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

    /// The plane geometry of the direct stencil, forward or `adjoint`, when
    /// every group is one plane in, one plane out (depthwise).
    fn depthwise(&self, spec: &Conv2dSpec, adjoint: bool) -> Option<Plane> {
        let plane = || Plane::new(spec, self, adjoint);
        (self.cig(spec) == 1 && self.cog(spec) == 1).then(plane)
    }

    /// The geometry of the direct kernels, when the convolution is dense
    /// at stride 1 (and not the one-plane case the stencil takes).
    fn direct(&self, spec: &Conv2dSpec) -> Option<Window> {
        let (cin, cout, k, pad) = (
            spec.in_channels,
            spec.out_channels,
            spec.kernel,
            spec.padding,
        );
        let (h, w, oh, ow) = (self.h, self.w, self.oh, self.ow);
        #[rustfmt::skip]
        let win = Window { cin, cout, h, w, oh, ow, k, pad };
        (spec.groups == 1 && spec.stride == 1 && self.depthwise(spec, false).is_none())
            .then_some(win)
    }

    /// [`ConvGeom::direct`] run backwards — `dx` from `dy` is the forward
    /// of `dy` under the flipped, transposed weights and padding
    /// `k - 1 - pad`, which a padding past `k - 1` does not have.
    fn direct_adjoint(&self, spec: &Conv2dSpec) -> Option<Window> {
        let win = self.direct(spec).filter(|win| win.pad < win.k)?;
        #[rustfmt::skip]
        let Window { cin, cout, h, w, oh, ow, k, pad } = win;
        #[rustfmt::skip]
        let adj = Window { cin: cout, cout: cin, h: oh, w: ow, oh: h, ow: w, k, pad: k - 1 - pad };
        Some(adj)
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

/// Computes the output block of one `(batch, group)` unit of a strided
/// or grouped convolution, finished by `epilogue` while the block is in
/// cache. Inner GEMMs go through [`gemm_strided`], so a *single*-unit conv
/// called outside a pool task still parallelizes over its GEMM bands,
/// while unit bodies running *as* pool tasks execute serially (nested
/// decomposition is suppressed) — either way the values are bitwise
/// identical.
fn conv2d_unit(
    x: &[f32],
    w: &[f32],
    og: &mut [f32],
    epilogue: Epilogue<'_>,
    u: usize,
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let (b, gi) = (u / spec.groups, u % spec.groups);
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    let (hw, ohow) = (g.h * g.w, g.oh * g.ow);
    let xg = &x[(b * spec.in_channels + gi * cig) * hw..][..cig * hw];
    let wg = &w[gi * cog * ckk..][..cog * ckk];
    with_scratch(ckk * ohow, |col| {
        im2col(col, xg, spec, g);
        gemm_strided(cog, ohow, ckk, wg, ckk, 1, col, ohow, 1, og, false);
    });
    for (r, row) in og.chunks_exact_mut(ohow.max(1)).enumerate() {
        epilogue.finish(row, gi * cog + r);
    }
}

/// Runs `f(first_unit, chunk, side_chunk)` over `data`, units of `block`
/// elements (the last may be short), and `side`, which is empty or holds
/// one element per unit: with an active pool and two units or more, one
/// contiguous unit range per lane in parallel, otherwise all of it on this
/// thread. Unit `u`'s block is `data[u * block ..][.. block]`, so
/// contiguous unit ranges are contiguous slices — tasks borrow disjoint
/// `chunks_mut`.
fn par_units(
    data: &mut [f32],
    block: usize,
    side: &mut [f32],
    f: impl Fn(usize, &mut [f32], &mut [f32]) + Send + Sync,
) {
    let units = data.len().div_ceil(block);
    let pool = match parallel::active_pool() {
        Some(pool) if units >= 2 => pool,
        _ => return f(0, data, side),
    };
    let per = units.div_ceil(pool.size());
    let (f, mut side) = (&f, side);
    pool.scope(|s| {
        for (ci, chunk) in data.chunks_mut(per * block).enumerate() {
            let at = per.min(side.len());
            let (mine, rest) = std::mem::take(&mut side).split_at_mut(at);
            side = rest;
            s.spawn(move || f(ci * per, chunk, mine));
        }
    });
}

/// Forward convolution, every element finished by `epilogue`. `out`, shape
/// `[n, co, oh, ow]`, is fully overwritten: what it held is never read.
///
/// With an active compute pool the `(batch, group)` units are split into
/// contiguous ranges, one range per lane; every unit's output block is
/// produced whole by one worker running the unchanged serial unit body,
/// so the result is bitwise identical to the serial loop.
pub(crate) fn conv2d_blocked(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    epilogue: Epilogue<'_>,
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let block = g.cog(spec) * g.oh * g.ow;
    par_units(out, block, &mut [], |u0, chunk, _| {
        if let Some(win) = g.direct(spec) {
            let image = spec.in_channels * g.h * g.w;
            let src = &x[u0 * image..][..chunk.len() / block * image];
            #[rustfmt::skip]
            return run_direct(Op::Correlate { src, weights: w, dst: chunk, adjoint: false, epilogue }, win);
        }
        if let Some(p) = g.depthwise(spec, false) {
            let src = &x[u0 * g.h * g.w..][..chunk.len() / block * g.h * g.w];
            return run_depthwise(Stencil::Correlate((src, w, chunk, u0), epilogue), p);
        }
        for (i, og) in chunk.chunks_mut(block).enumerate() {
            conv2d_unit(x, w, og, epilogue, u0 + i, spec, g);
        }
    });
}

/// Computes the input-gradient block of one `(batch, group)` unit of a
/// strided or grouped convolution — zeroing its own block first, so units
/// are independent.
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
    dxg.fill(0.0);
    with_scratch(ckk * ohow, |dcol| {
        gemm_strided(ckk, ohow, cog, wg, 1, ckk, dyg, ohow, 1, dcol, false);
        col2im_add(dxg, dcol, spec, g);
    });
}

/// Input gradient. `dx` has shape `[n, ci, h, w]` and is fully
/// overwritten: what it held is never read. Parallelizes over
/// `(batch, group)` units exactly like [`conv2d_blocked`]; each unit's
/// `dx` block is owned end to end by one worker.
pub(crate) fn conv2d_grad_input_blocked(
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let block = g.cig(spec) * g.h * g.w;
    par_units(dx, block, &mut [], |u0, chunk, _| {
        let epilogue = Epilogue::NONE;
        if let Some(adj) = g.direct_adjoint(spec) {
            let image = spec.out_channels * g.oh * g.ow;
            let src = &dy[u0 * image..][..chunk.len() / block * image];
            #[rustfmt::skip]
            return run_direct(Op::Correlate { src, weights: w, dst: chunk, adjoint: true, epilogue }, adj);
        }
        if let Some(p) = g.depthwise(spec, true) {
            let src = &dy[u0 * g.oh * g.ow..][..chunk.len() / block * g.oh * g.ow];
            return run_depthwise(Stencil::Correlate((src, w, chunk, u0), epilogue), p);
        }
        for (i, dxg) in chunk.chunks_mut(block).enumerate() {
            grad_input_unit(dy, w, dxg, spec, g, u0 + i);
        }
    });
}

/// Accumulates rows `[r0, r0 + rows)` of group `gi`'s weight gradient over
/// every batch in batch order, into `dwband` (shape `[rows, ckk]`). Each
/// band of a pooled dense call pads (or re-lowers) the input for itself —
/// duplicated work, traded for keeping every `dW` element's whole
/// accumulation chain on one worker.
fn grad_weight_rows(
    x: &[f32],
    dy: &[f32],
    dwband: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    gi: usize,
    r0: usize,
) {
    if let Some(win) = g.direct(spec) {
        #[rustfmt::skip]
        return run_direct(Op::GradWeight { x, dy, dw: dwband, oc0: r0 }, win);
    }
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    let (hw, ohow) = (g.h * g.w, g.oh * g.ow);
    let rows = dwband.len() / ckk;
    with_scratch(ckk * ohow, |col| {
        for b in 0..g.n {
            let xg = &x[(b * spec.in_channels + gi * cig) * hw..][..cig * hw];
            im2col(col, xg, spec, g);
            let dyr = &dy[(b * spec.out_channels + gi * cog + r0) * ohow..][..rows * ohow];
            // dW[rows, ckk] += dy[rows, ohow] @ colᵀ[ohow, ckk].
            gemm_strided(rows, ckk, ohow, dyr, ohow, 1, col, 1, ohow, dwband, true);
        }
    });
}

/// Weight gradient. `dw` has shape `[co, cig, k, k]`; contributions are
/// summed over the batch in batch order (matching the naive kernel),
/// starting from the zeros the caller provides.
///
/// `dW` accumulates *across* batches, so the batch axis cannot be split
/// without reordering sums. Instead, an active pool splits the
/// **output**: grouped convs parallelize over `dw`'s per-group blocks,
/// dense convs over `dW` row bands — every `dW` element's accumulation
/// chain stays on one worker, in batch order, keeping parallel results
/// bitwise identical to serial ones.
pub(crate) fn conv2d_grad_weight_blocked(
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let (cig, cog) = (g.cig(spec), g.cog(spec));
    let ckk = cig * spec.kernel * spec.kernel;
    // Groups are units of `cog` rows; a dense conv's one group is split
    // into a band of rows per lane.
    let band = match parallel::active_pool() {
        Some(pool) if spec.groups == 1 => cog.div_ceil(pool.size()),
        _ => cog,
    };
    par_units(dw, band * ckk, &mut [], |u0, chunk, _| {
        if let Some(p) = g.depthwise(spec, false) {
            return run_depthwise(
                Stencil::GradWeight((x, dy, chunk, u0), spec.groups, None),
                p,
            );
        }
        for (i, dwband) in chunk.chunks_mut(band * ckk).enumerate() {
            let at = (u0 + i) * band;
            grad_weight_rows(x, dy, dwband, spec, g, at / cog, at % cog);
        }
    });
}

/// [`conv2d_grad_weight_blocked`] of the gradient a forward epilogue with
/// `activation` passes back from `dy`, given the forward output `y`; adds
/// each channel's bias gradient into `db`. The stencil gates each `dy`
/// plane as its weight gradient reads it; every other lowering reads a
/// `dz` that one fused pass wrote first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_grad_weight_gated(
    x: &[f32],
    dy: &[f32],
    y: &[f32],
    activation: Activation,
    dw: &mut [f32],
    db: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let Some(p) = g.depthwise(spec, false) else {
        let dz = grad_epilogue(dy, y, activation, db, g.oh * g.ow);
        return conv2d_grad_weight_blocked(x, dz.as_deref().unwrap_or(dy), dw, spec, g);
    };
    // Depthwise: one `dw` block (and one bias) per channel.
    par_units(dw, spec.kernel * spec.kernel, db, |c0, chunk, db| {
        let gate = Some((y, activation, db));
        run_depthwise(
            Stencil::GradWeight((x, dy, chunk, c0), spec.groups, gate),
            p,
        );
    });
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
