//! Direct stencil kernels for depthwise (`cig == cog == 1`) convolution —
//! no column matrix, no GEMM (`lowering`'s table says when).
//!
//! Each plane read is copied once into a zero-bordered scratch [`Plane`]
//! where every tap of every output is in bounds, so the tiles have no edge
//! cases. A forward or grad-input element is one `f32::mul_add` chain over
//! the `k x k` taps in `(ky, kx)` order (a padded tap adds an exact `0 * w`);
//! grad-weight adds tap `t`'s product at element `ox` of a row into lane
//! `ox % LANES` of `t`, rows and batches in order, and [`fold`]s the lanes:
//! orders set by the geometry alone, bitwise equal on every tier and pool.
//!
//! The forward's epilogue finishes each output plane once its tiles are
//! written, while it is in L1. Grad-weight can read `dy` through the
//! epilogue's gate ([`Gate`]): the tile gates each lane step as it loads it
//! and sums the plane's bias gradient alongside.

use crate::epilogue::{Activation, Epilogue};
use crate::{conv::Conv2dSpec, lowering::ConvGeom, reduce::fold, simd::TierBody};

/// Columns per correlate tile ...
const NR: usize = 32;
/// ... and per tile of a row no wider than this.
const NARROW: usize = 16;
/// Output rows per correlate tile: each input row is read once for all.
const ROWS: usize = 4;
/// Partial sums per grad-weight tap: one zmm register, two ymm.
const LANES: usize = 16;
/// Taps per grad-weight tile: a 3 x 3 kernel's, nine zmm accumulators.
const TAPS: usize = 9;

/// A grad-weight tile: [`LANES`] partial sums of each of [`TAPS`] taps.
type Sums = [[f32; LANES]; TAPS];

/// A [`Stencil`]'s planes read, other operand, output, first plane's channel.
pub(crate) type Run<'a> = (&'a [f32], &'a [f32], &'a mut [f32], usize);

/// What grad-weight reads `dy` through: the forward output `y` (`dy`'s
/// layout), its activation, and the bias gradient of the run's channels.
pub(crate) type Gate<'a> = (&'a [f32], Activation, &'a mut [f32]);

/// A depthwise kernel over a run of `(batch, channel)` planes.
pub(crate) enum Stencil<'a> {
    /// Planes from planes, plane `i` under channel `c0 + i` (mod `C`) of
    /// `w[C, k, k]`, finished by the epilogue of that channel.
    Correlate(Run<'a>, Epilogue<'a>),
    /// Channels `c0 ..` of `dw[.1, k, k]` from `x`, `dy` `[n, .1, ..]` —
    /// each `dy` plane gated as it is read, when there is a [`Gate`].
    GradWeight(Run<'a>, usize, Option<Gate<'a>>),
}

impl Stencil<'_> {
    /// Floats of scratch: the plane, and grad-weight's zero-tailed `dy`
    /// rows and gated `dy` plane.
    pub(crate) fn scratch_len(&self, p: &Plane) -> usize {
        let dy = p.out.0 * p.out.1.next_multiple_of(LANES) + p.out.0 * p.out.1;
        p.rows * p.rs + matches!(self, Stencil::GradWeight(..)) as usize * dy
    }
}

/// The depthwise [`TierBody`]: `.0` over `.1` in [`Stencil::scratch_len`] floats `.2`.
pub(crate) struct Depthwise<'a>(pub Stencil<'a>, pub Plane, pub &'a mut [f32]);

impl TierBody for Depthwise<'_> {
    /// Literal `k`, read stride and tap order unroll the common arms' taps.
    #[inline(always)]
    #[rustfmt::skip]
    fn run(self) {
        let Depthwise(op, p, scratch) = self;
        match (p.k, p.r, p.f) {
            (3, 1, 0) => Plane { k: 3, r: 1, f: 0, ..p }.apply(op, scratch),
            (3, 1, 2) => Plane { k: 3, r: 1, f: 2, ..p }.apply(op, scratch),
            _ => p.apply(op, scratch),
        }
    }
}

/// Where one plane sits in scratch: source element `(i, j)` at
/// `(lead + i*d, lead + j*d)` of a zero-bordered `rows x rs` plane, read by
/// output `(o, q)` through tap `(ky, kx)` at
/// `(at + o*r + |ky - f|, at + q*r + |kx - f|)`.
#[derive(Clone, Copy)]
pub(crate) struct Plane {
    /// Extents of the planes read and written.
    src: (usize, usize),
    out: (usize, usize),
    lead: usize,
    at: usize,
    d: usize,
    r: usize,
    /// `k - 1` reads the taps back to front (the adjoint), 0 in order.
    f: usize,
    k: usize,
    rows: usize,
    rs: usize,
}

impl Plane {
    /// `spec` over `g`, or its `adjoint`: the forward of `dy` spread `s` apart
    /// with padding `k - 1 - pad` (past `k - 1`, reads start inside `dy`).
    pub(crate) fn new(spec: &Conv2dSpec, g: &ConvGeom, adjoint: bool) -> Plane {
        let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
        let (src, out, d, r, f) = match adjoint {
            false => ((g.h, g.w), (g.oh, g.ow), 1, s, 0),
            true => ((g.oh, g.ow), (g.h, g.w), s, 1, k - 1),
        };
        let e = f as isize + pad as isize * if adjoint { -1 } else { 1 };
        let (lead, at) = (e.max(0) as usize, (-e).max(0) as usize);
        let reach = |n: usize, tile: usize, m: usize| {
            (at + (n.next_multiple_of(tile) - 1) * r + k).max(lead + (m - 1) * d + 1)
        };
        let nr = if out.1 <= NARROW { NARROW } else { NR };
        let (rows, rs) = (reach(out.0, ROWS, src.0), reach(out.1, nr, src.1));
        #[rustfmt::skip]
        return Plane { src, out, lead, at, d, r, f, k, rows, rs };
    }

    #[inline(always)]
    fn apply(self, op: Stencil<'_>, scratch: &mut [f32]) {
        scratch.fill(0.0);
        let (plane, rest) = scratch.split_at_mut(self.rows * self.rs);
        match op {
            Stencil::Correlate(run, e) if self.out.1 <= NARROW => {
                self.correlate::<NARROW>(run, e, plane)
            }
            Stencil::Correlate(run, e) => self.correlate::<NR>(run, e, plane),
            Stencil::GradWeight(run, ch, gate) => self.grad_weight(run, ch, gate, [plane, rest]),
        }
    }

    /// Copies one source plane to where it sits.
    #[inline(always)]
    fn place(&self, plane: &mut [f32], src: &[f32]) {
        for (i, xs) in src.chunks_exact(self.src.1).enumerate() {
            let row = &mut plane[(self.lead + i * self.d) * self.rs + self.lead..];
            match self.d {
                1 => row[..xs.len()].copy_from_slice(xs),
                d => row.iter_mut().step_by(d).zip(xs).for_each(|(v, &x)| *v = x),
            }
        }
    }

    #[inline(always)]
    fn correlate<const NR: usize>(
        &self,
        (src, wt, dst, c0): Run<'_>,
        epilogue: Epilogue<'_>,
        plane: &mut [f32],
    ) {
        let ((sh, sw), (oh, ow), kk) = (self.src, self.out, self.k * self.k);
        let planes = src.chunks_exact(sh * sw).zip(dst.chunks_exact_mut(oh * ow));
        for (i, (s, o)) in planes.enumerate() {
            self.place(plane, s);
            let c = (c0 + i) % (wt.len() / kk);
            let w = &wt[c * kk..][..kk];
            for (t, rows) in o.chunks_mut(ROWS * ow).enumerate() {
                for j in (0..ow).step_by(NR) {
                    let at = (self.at + t * ROWS * self.r) * self.rs + self.at + j * self.r;
                    let acc = self.correlate_tile::<NR>(&plane[at..], w);
                    for (orow, a) in rows.chunks_exact_mut(ow).zip(acc.iter()) {
                        match ow - j {
                            cols if cols >= NR => orow[j..j + NR].copy_from_slice(a),
                            cols => orow[j..].copy_from_slice(&a[..cols]),
                        }
                    }
                }
            }
            epilogue.finish(o, c);
        }
    }

    /// [`ROWS`] rows of `NR` outputs: `(q, l)` is the chain over `(ky, kx)`
    /// of `plane[(q*r + |ky - f|)*rs + |kx - f| + l*r] * w[ky*k + kx]`, each
    /// input row read once, in the order that keeps every `ky` ascending.
    #[inline(always)]
    fn correlate_tile<const NR: usize>(&self, plane: &[f32], w: &[f32]) -> [[f32; NR]; ROWS] {
        let (k, r, f) = (self.k, self.r, self.f);
        let (mut acc, rows) = ([[0.0f32; NR]; ROWS], (ROWS - 1) * r + k);
        for i in 0..rows {
            let i = if f == 0 { i } else { rows - 1 - i };
            let row = &plane[i * self.rs..][..(NR - 1) * r + k];
            for kx in 0..k {
                let xv = load::<NR>(&row[kx.abs_diff(f)..], r);
                for (q, acc) in acc.iter_mut().enumerate() {
                    let wv = match i.checked_sub(q * r) {
                        Some(ky) if ky < k => w[ky.abs_diff(f) * k + kx],
                        _ => continue,
                    };
                    for (a, &x) in acc.iter_mut().zip(xv.iter()) {
                        *a = x.mul_add(wv, *a);
                    }
                }
            }
        }
        acc
    }

    /// `dw[c, ty, tx] = Σ dy[b, c, oy, ox] * x[b, c, oy*s + ty - pad, ox*s + tx - pad]`,
    /// a tile of taps at a time. With a gate, `dy` is read as `dz` and each
    /// plane's `dz` is summed into the channel's bias gradient, in the order
    /// `epilogue` documents: rows of whole lane steps are gated by the tile
    /// as it loads them, element `i` of the plane summed in lane `i % 16`;
    /// ragged rows are gated into scratch and summed there, in that order.
    #[inline(always)]
    fn grad_weight(
        &self,
        (x, dy, dw, c0): Run<'_>,
        ch: usize,
        mut gate: Option<Gate<'_>>,
        [plane, rest]: [&mut [f32]; 2],
    ) {
        let ((h, w), (oh, ow), kk) = (self.src, self.out, self.k * self.k);
        let steps = ow.next_multiple_of(LANES);
        let (tails, gated) = rest.split_at_mut(oh * steps);
        for (i, dwc) in dw.chunks_exact_mut(kk).enumerate() {
            let c = c0 + i;
            for (t0, dwt) in (0..kk).step_by(TAPS).zip(dwc.chunks_mut(TAPS)) {
                let (mut sums, mut db) = ([[0.0; LANES]; TAPS], 0.0f32);
                for b in (c..x.len() / (h * w)).step_by(ch) {
                    self.place(plane, &x[b * h * w..][..h * w]);
                    let at = b * oh * ow;
                    let mut g = &dy[at..][..oh * ow];
                    let y = gate.as_ref().map(|(y, act, _)| (&y[at..][..oh * ow], *act));
                    // The tile gates rows of whole steps as it loads them;
                    // ragged ones are gated and summed on their way to
                    // zero-tailed rows.
                    let in_tile = match y {
                        Some((y, act)) if ow != steps => {
                            db += act.gate_sum(g, y, gated);
                            g = gated;
                            None
                        }
                        y => y,
                    };
                    if ow != steps {
                        let rows = tails.chunks_exact_mut(steps).zip(g.chunks_exact(ow));
                        rows.for_each(|(row, g)| row[..ow].copy_from_slice(g));
                        g = tails;
                    }
                    #[rustfmt::skip]
                    let (s, lanes) = match in_tile {
                        None => (self.grad_weight_tile(sums, g, plane, t0, |_, d| d).0, [0.0; LANES]),
                        Some((_, Activation::None)) => self.grad_weight_tile(sums, g, plane, t0, |_, d| d),
                        Some((y, Activation::Relu)) => self.grad_weight_tile(sums, g, plane, t0, |at, d| gate_step(Activation::Relu, d, &y[at..])),
                        Some((y, Activation::Relu6)) => self.grad_weight_tile(sums, g, plane, t0, |at, d| gate_step(Activation::Relu6, d, &y[at..])),
                    };
                    sums = s;
                    if in_tile.is_some() {
                        db += fold(&lanes);
                    }
                }
                dwt.iter_mut().zip(sums).for_each(|(d, a)| *d = fold(&a));
                // A `k > 3` kernel's later tap tiles sum the same planes.
                if let Some((_, _, bias)) = &mut gate {
                    bias[i] = db;
                }
            }
        }
    }

    /// One plane added to the sums `acc` of taps `t0 ..`: tap `(ty, tx)`
    /// gains `dy[oy, ox] * plane[(oy*r + ty)*rs + ox*r + tx]`, element `ox`
    /// in lane `ox % LANES`; a step's taps of one row read one window.
    /// Each step of `dy` is first passed through `gate(offset, step)` and
    /// added to the returned lanes, row by row.
    #[inline(always)]
    fn grad_weight_tile(
        &self,
        mut acc: Sums,
        dy: &[f32],
        plane: &[f32],
        t0: usize,
        gate: impl Fn(usize, [f32; LANES]) -> [f32; LANES],
    ) -> (Sums, [f32; LANES]) {
        let (k, r, rs, steps) = (self.k, self.r, self.rs, self.out.1.next_multiple_of(LANES));
        let mut lanes = [0.0f32; LANES];
        for (oy, row) in dy.chunks_exact(steps).enumerate() {
            for (j, g) in row.chunks_exact(LANES).enumerate() {
                let dv = gate(oy * steps + j * LANES, load::<LANES>(g, 1));
                for (s, &d) in lanes.iter_mut().zip(dv.iter()) {
                    *s += d;
                }
                for ty in 0..k {
                    let xw = &plane[(oy * r + ty) * rs + j * LANES * r..][..(LANES - 1) * r + k];
                    for tx in 0..k {
                        let t = match (ty * k + tx).checked_sub(t0) {
                            Some(t) if t < TAPS => t,
                            _ => continue,
                        };
                        let xv = load::<LANES>(&xw[tx..], r);
                        for ((a, &d), &x) in acc[t].iter_mut().zip(dv.iter()).zip(xv.iter()) {
                            *a = d.mul_add(x, *a);
                        }
                    }
                }
            }
        }
        (acc, lanes)
    }
}

/// One lane step of `dy` gated by the outputs `y[..LANES]`.
#[inline(always)]
fn gate_step(act: Activation, dy: [f32; LANES], y: &[f32]) -> [f32; LANES] {
    let (yv, mut dz) = (load::<LANES>(y, 1), [0.0f32; LANES]);
    for l in 0..LANES {
        dz[l] = act.gate(dy[l], yv[l]);
    }
    dz
}

#[cfg(test)]
mod tests;

/// `N` elements of `xs`, `r` apart, as a local array — one vector load when
/// adjacent: loaded one by one, LLVM rebuilds overlapping windows by shuffles.
#[inline(always)]
fn load<const N: usize>(xs: &[f32], r: usize) -> [f32; N] {
    let (xs, mut v) = (&xs[..(N - 1) * r + 1], [0.0f32; N]);
    match r {
        1 => v.copy_from_slice(xs),
        _ => v.iter_mut().enumerate().for_each(|(l, v)| *v = xs[l * r]),
    }
    v
}
