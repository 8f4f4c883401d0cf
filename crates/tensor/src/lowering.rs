//! The [`KernelPolicy::Blocked`] convolution path: each direction of a
//! grouped 2-D convolution runs on the kernel its geometry allows, split
//! into `(batch, group)` units (row bands of `dW` for the dense weight
//! gradient, planes for the depthwise one).
//!
//! Which kernel a direction runs is chosen once, from the [`Conv2dSpec`]
//! and the [`ConvGeom`] alone ([`ConvGeom::kernel`]):
//!
//! | geometry | kernel | forward epilogue | gated weight gradient |
//! |---|---|---|---|
//! | dense (`groups == 1`) at stride 1 — `k x k` and pointwise | [`Kernel::Direct`] — the `direct` module reads the image in place (padded once into `cig·(h+2p)·(w+2p)` floats of scratch when `p > 0`) | in the register tile's write-out: free next to its `8·32·ckk` multiply-adds | a fused pass writes `dz`, which grad-input reads too |
//! | depthwise (`cig == 1`, `cog == 1`), any stride | [`Kernel::Stencil`] — the `stencil` module, which copies each plane it reads once into zero-bordered scratch (about `(h+2p)·(w+2p)` floats, ≤ 17 KiB at 64×64) | over each output plane once its tiles are written, in L1 | in the tile, as it loads `dy` (ragged rows: gated into scratch) |
//! | strided dense, grouped but not depthwise, and dense grad-input with `p > k - 1` (it has no forward twin) | [`Kernel::Oracle`] — the naive loops, serial | after each output plane | a fused pass writes `dz` |
//!
//! Nothing the repo executes reaches the third row: every convolution of
//! the executable models is stride 1 with `groups` of 1 or `C`. It stays
//! correct, not fast. Forward and grad-input write every element of their
//! output (the oracle zeroes its grad-input first), so their tensors are
//! not zeroed before the kernel runs. The direct kernels sum each element
//! in `(icg, ky, kx)` order, the naive kernels' reduction order, so both
//! policies sum contributions in the same sequence.
//!
//! The direct kernels' padded image and partial sums, or the stencil's
//! padded plane, live in thread-local scratch ([`with_scratch`]):
//! steady-state training works in the same allocation every step.
//!
//! [`KernelPolicy::Blocked`]: crate::KernelPolicy::Blocked

use std::cell::RefCell;

use crate::conv::{conv2d_grad_input_naive, conv2d_grad_weight_naive, conv2d_naive, Conv2dSpec};
use crate::direct::{Direct, Op, Window};
use crate::epilogue::{grad_epilogue, Activation, Epilogue};
use crate::kernel::KernelPolicy;
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

/// One direction of a convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    Forward,
    GradInput,
    GradWeight,
}

/// The kernel one [`Direction`] of a convolution runs on.
#[derive(Clone, Copy)]
pub(crate) enum Kernel {
    /// The `direct` module over this window (the adjoint's, for
    /// grad-input: `dy` correlated with the flipped, transposed weights at
    /// padding `k - 1 - pad`).
    Direct(Window),
    /// The depthwise `stencil` over this plane (its adjoint, for
    /// grad-input).
    Stencil(Plane),
    /// The naive loops.
    Oracle,
}

impl ConvGeom {
    fn cig(&self, spec: &Conv2dSpec) -> usize {
        spec.in_channels / spec.groups
    }

    fn cog(&self, spec: &Conv2dSpec) -> usize {
        spec.out_channels / spec.groups
    }

    /// The kernel `dir` runs on under `policy`: the depthwise stencil when
    /// every group is one plane in, one plane out; the direct kernels for
    /// the rest of stride-1 dense geometry, except a grad-input whose
    /// padding is past `k - 1`; the oracle otherwise, and always under
    /// [`KernelPolicy::Naive`] or over an input with no rows or no columns
    /// (its output is padding alone; neither fast kernel plans for that).
    pub(crate) fn kernel(&self, spec: &Conv2dSpec, dir: Direction, policy: KernelPolicy) -> Kernel {
        if policy == KernelPolicy::Naive || self.h == 0 || self.w == 0 {
            return Kernel::Oracle;
        }
        if self.cig(spec) == 1 && self.cog(spec) == 1 {
            return Kernel::Stencil(Plane::new(spec, self, dir == Direction::GradInput));
        }
        let (cin, cout, k, pad) = (
            spec.in_channels,
            spec.out_channels,
            spec.kernel,
            spec.padding,
        );
        let (h, w, oh, ow) = (self.h, self.w, self.oh, self.ow);
        #[rustfmt::skip]
        return match dir {
            _ if spec.groups != 1 || spec.stride != 1 => Kernel::Oracle,
            Direction::GradInput if pad >= k => Kernel::Oracle,
            Direction::GradInput => Kernel::Direct(Window { cin: cout, cout: cin, h: oh, w: ow, oh: h, ow: w, k, pad: k - 1 - pad }),
            Direction::Forward | Direction::GradWeight => Kernel::Direct(Window { cin, cout, h, w, oh, ow, k, pad }),
        };
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

/// Forward convolution on `kernel`, every element finished by `epilogue`.
/// `out`, shape `[n, co, oh, ow]`, is fully overwritten: what it held is
/// never read.
///
/// With an active compute pool the fast kernels split the `(batch, group)`
/// units into contiguous ranges, one range per lane; every unit's output
/// block is produced whole by one worker running the unchanged serial
/// body, so the result is bitwise identical to the serial loop.
pub(crate) fn forward(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    epilogue: Epilogue<'_>,
    spec: &Conv2dSpec,
    g: &ConvGeom,
    kernel: Kernel,
) {
    let block = g.cog(spec) * g.oh * g.ow;
    match kernel {
        Kernel::Direct(win) => par_units(out, block, &mut [], |u0, dst, _| {
            let image = spec.in_channels * g.h * g.w;
            let src = &x[u0 * image..][..dst.len() / block * image];
            #[rustfmt::skip]
            run_direct(Op::Correlate { src, weights: w, dst, adjoint: false, epilogue }, win);
        }),
        Kernel::Stencil(p) => par_units(out, block, &mut [], |u0, dst, _| {
            let src = &x[u0 * g.h * g.w..][..dst.len() / block * g.h * g.w];
            run_depthwise(Stencil::Correlate((src, w, dst, u0), epilogue), p);
        }),
        Kernel::Oracle => conv2d_naive(x, w, out, epilogue, *spec, g),
    }
}

/// Input gradient on `kernel`. `dx` has shape `[n, ci, h, w]` and is fully
/// overwritten: what it held is never read. Parallelizes over
/// `(batch, group)` units exactly like [`forward`]; each unit's `dx` block
/// is owned end to end by one worker.
pub(crate) fn grad_input(
    dy: &[f32],
    w: &[f32],
    dx: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    kernel: Kernel,
) {
    let (block, epilogue) = (g.cig(spec) * g.h * g.w, Epilogue::NONE);
    match kernel {
        Kernel::Direct(adj) => par_units(dx, block, &mut [], |u0, dst, _| {
            let image = spec.out_channels * g.oh * g.ow;
            let src = &dy[u0 * image..][..dst.len() / block * image];
            #[rustfmt::skip]
            run_direct(Op::Correlate { src, weights: w, dst, adjoint: true, epilogue }, adj);
        }),
        Kernel::Stencil(p) => par_units(dx, block, &mut [], |u0, dst, _| {
            let src = &dy[u0 * g.oh * g.ow..][..dst.len() / block * g.oh * g.ow];
            run_depthwise(Stencil::Correlate((src, w, dst, u0), epilogue), p);
        }),
        Kernel::Oracle => conv2d_grad_input_naive(dy, w, dx, *spec, g),
    }
}

/// Weight gradient on `kernel`. `dw` has shape `[co, cig, k, k]`;
/// contributions are summed over the batch in batch order (matching the
/// naive kernel), starting from the zeros the caller provides.
///
/// `dW` sums *across* batches, so the batch axis cannot be split
/// without reordering sums. Instead, an active pool splits the
/// **output**: the stencil parallelizes over `dw`'s per-channel blocks,
/// the direct kernels over `dW` row bands — every `dW` element's
/// accumulation chain stays on one worker, in batch order, keeping
/// parallel results bitwise identical to serial ones. Each band of a
/// pooled dense call pads the input for itself — duplicated work, traded
/// for keeping every chain on one worker.
pub(crate) fn grad_weight(
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    kernel: Kernel,
) {
    let kk = spec.kernel * spec.kernel;
    match kernel {
        Kernel::Direct(win) => {
            let (cout, ckk) = (spec.out_channels, spec.in_channels * kk);
            let band = parallel::active_pool().map_or(cout, |pool| cout.div_ceil(pool.size()));
            par_units(dw, band * ckk, &mut [], |u0, chunk, _| {
                for (i, dw) in chunk.chunks_mut(band * ckk).enumerate() {
                    let oc0 = (u0 + i) * band;
                    run_direct(Op::GradWeight { x, dy, dw, oc0 }, win);
                }
            });
        }
        Kernel::Stencil(p) => par_units(dw, kk, &mut [], |c0, chunk, _| {
            let op = Stencil::GradWeight((x, dy, chunk, c0), spec.groups, None);
            run_depthwise(op, p);
        }),
        Kernel::Oracle => conv2d_grad_weight_naive(x, dy, dw, *spec, g),
    }
}

/// [`grad_weight`] of the gradient a forward epilogue with `activation`
/// passes back from `dy`, given the forward output `y`; adds each
/// channel's bias gradient into `db`. The stencil gates each `dy` plane as
/// its weight gradient reads it; the direct kernels and the oracle read a
/// `dz` that one fused pass wrote first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grad_weight_gated(
    x: &[f32],
    dy: &[f32],
    y: &[f32],
    activation: Activation,
    dw: &mut [f32],
    db: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let kernel = g.kernel(spec, Direction::GradWeight, KernelPolicy::Blocked);
    let Kernel::Stencil(p) = kernel else {
        let dz = grad_epilogue(dy, y, activation, db, g.oh * g.ow);
        return grad_weight(x, dz.as_deref().unwrap_or(dy), dw, spec, g, kernel);
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

    const DIRECTIONS: [Direction; 3] = [
        Direction::Forward,
        Direction::GradInput,
        Direction::GradWeight,
    ];

    fn geom(spec: &Conv2dSpec, n: usize, side: usize) -> ConvGeom {
        let o = spec.out_extent(side).unwrap();
        #[rustfmt::skip]
        return ConvGeom { n, h: side, w: side, oh: o, ow: o };
    }

    #[test]
    fn executed_geometries_never_reach_the_oracle() {
        // `kernel_equivalence`'s `executed_geometries_match_naive` list:
        // every convolution `models::mini` builds, at the conformance
        // matrix's shape and the benchmark's (`tr_compress`,
        // `ckpt_recover` and a `split_nas` shard). A model change that
        // would fall to the serial oracle fails here.
        for (c, n, side) in [(6, 12, 8), (16, 32, 32), (32, 8, 16), (16, 8, 32)] {
            for in_c in [3, c] {
                let dense = [
                    Conv2dSpec::dense(in_c, c, 3, 1, 1),
                    Conv2dSpec::dense(in_c, c, 5, 1, 2),
                    Conv2dSpec::dense(in_c, c, 1, 1, 0),
                ];
                let depthwise = Conv2dSpec::depthwise(in_c, 3, 1, 1);
                for spec in dense.into_iter().chain([depthwise]) {
                    let g = geom(&spec, n, side);
                    for dir in DIRECTIONS {
                        let fast = match g.kernel(&spec, dir, KernelPolicy::Blocked) {
                            Kernel::Direct(_) => spec.groups == 1,
                            Kernel::Stencil(_) => spec == depthwise,
                            Kernel::Oracle => false,
                        };
                        assert!(fast, "{spec:?} {dir:?} at {side}x{side}");
                        let naive = g.kernel(&spec, dir, KernelPolicy::Naive);
                        assert!(matches!(naive, Kernel::Oracle), "{spec:?} {dir:?} naive");
                    }
                }
            }
        }
    }

    #[test]
    fn geometry_without_a_fast_kernel_runs_the_oracle() {
        let strided = Conv2dSpec::dense(4, 4, 3, 2, 1);
        let grouped = Conv2dSpec {
            groups: 2,
            ..Conv2dSpec::dense(4, 4, 3, 1, 1)
        };
        for spec in [strided, grouped] {
            let g = geom(&spec, 2, 8);
            for dir in DIRECTIONS {
                let kernel = g.kernel(&spec, dir, KernelPolicy::Blocked);
                assert!(matches!(kernel, Kernel::Oracle), "{spec:?} {dir:?}");
            }
        }
        // Padding past `k - 1`: only grad-input has no direct twin.
        let wide = Conv2dSpec::dense(4, 4, 3, 1, 3);
        let g = geom(&wide, 2, 8);
        let kernels = DIRECTIONS.map(|dir| g.kernel(&wide, dir, KernelPolicy::Blocked));
        assert!(matches!(
            kernels,
            [Kernel::Direct(_), Kernel::Oracle, Kernel::Direct(_)]
        ));
        // A strided depthwise convolution keeps its stencil.
        let dw = Conv2dSpec::depthwise(4, 3, 2, 1);
        let g = geom(&dw, 2, 8);
        for dir in DIRECTIONS {
            let kernel = g.kernel(&dw, dir, KernelPolicy::Blocked);
            assert!(matches!(kernel, Kernel::Stencil(_)), "{dir:?}");
        }
    }
}
