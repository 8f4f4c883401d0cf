//! Direct stencil kernels for depthwise (`cig == 1 && cog == 1`)
//! convolution: forward, grad-input and grad-weight read `x` / `dy` rows
//! in place — no column matrix, no GEMM (`im2col`'s lowering table says why).
//!
//! Every forward and grad-input element is one `f32::mul_add` chain over
//! its present taps in `(ky, kx)` order; absent (padded) taps are skipped.
//! Grad-weight sums each tap's products through [`LANES`] partial sums,
//! batches in order, folded by a fixed tree. Chain and lane depend on the
//! geometry alone: bitwise equal on every [`crate::SimdTier`] and pool size.

use crate::simd::TierBody;

/// Partial sums per grad-weight tap: one zmm register, two ymm, four xmm.
const LANES: usize = 16;
/// Elements per forward / grad-input step: 64-byte loads that all split a
/// cache line run no faster than 32-byte ones, and narrow planes fit more.
const STEP: usize = 8;

type Span = (usize, usize);

/// One plane's geometry: output `(oy, ox)` of `oh x ow` meets input
/// `(oy*s + ky - pad, ox*s + kx - pad)` of `h x w` through tap `(ky, kx)`.
#[derive(Clone, Copy)]
pub(crate) struct Plane {
    pub h: usize,
    pub w: usize,
    pub oh: usize,
    pub ow: usize,
    pub k: usize,
    pub s: usize,
    pub pad: usize,
    /// Run [`Stencil::Correlate`] backwards: `dx` (`h x w`) from `dy`.
    pub adjoint: bool,
}

/// A depthwise kernel over one unit of the blocked decomposition.
pub(crate) enum Stencil<'a> {
    /// One plane from one plane and the channel's `k x k` weights: `out`
    /// from `x`, or `dx` from `dy` when the [`Plane`] is an adjoint.
    Correlate(&'a [f32], &'a [f32], &'a mut [f32]),
    /// The channel's `dw` from `x` and `dy`, each starting at the
    /// channel's first plane, over `n` batches of `channels` planes.
    GradWeight(&'a [f32], &'a [f32], &'a mut [f32], usize, usize),
}

/// [`Stencil`] `.0` over the geometry `.1` — the depthwise [`TierBody`].
pub(crate) struct Depthwise<'a>(pub Stencil<'a>, pub Plane);

impl TierBody for Depthwise<'_> {
    /// Literal `k` / `s` in the common arms let the inlined body unroll
    /// its taps and vectorise its unit-stride steps.
    #[inline(always)]
    fn run(self) {
        let Depthwise(op, p) = self;
        match (p.k, p.s) {
            (3, 1) => Plane { k: 3, s: 1, ..p }.apply(op),
            (5, 1) => Plane { k: 5, s: 1, ..p }.apply(op),
            (_, 1) => Plane { s: 1, ..p }.apply(op),
            _ => p.apply(op),
        }
    }
}

impl Plane {
    #[inline(always)]
    fn apply(self, op: Stencil<'_>) {
        match op {
            Stencil::Correlate(src, w, dst) => self.correlate(src, &w[..self.k * self.k], dst),
            Stencil::GradWeight(x, dy, dw, n, ch) => self.grad_weight(x, dy, dw, n, ch),
        }
    }

    /// Taps `[t0, t1)` through which element `o` written meets an element
    /// read inside `[0, extent)` (backwards, a range only at stride 1).
    #[inline(always)]
    fn taps(&self, o: usize, extent: usize) -> Span {
        let (k, pad, os) = (self.k, self.pad, o * self.s);
        let (t0, t1) = match self.adjoint {
            true => ((o + pad + 1).saturating_sub(extent), o + pad + 1),
            false => (pad.saturating_sub(os), (extent + pad).saturating_sub(os)),
        };
        (t0.min(k), t1.min(k))
    }

    /// The element read that element `o` written meets through tap `t`,
    /// one of its [`Plane::taps`].
    #[inline(always)]
    fn at(&self, o: usize, t: usize) -> usize {
        match self.adjoint {
            true => o + self.pad - t,
            false => o * self.s + t - self.pad,
        }
    }

    /// Writes every element of `dst`. At stride 1 the columns that have
    /// every `kx` go [`STEP`] at a time ([`Plane::steps`]) and the rest one
    /// by one; a strided adjoint scatters `dy`, as the naive kernel does.
    #[inline(always)]
    fn correlate(&self, src: &[f32], wt: &[f32], dst: &mut [f32]) {
        let (k, pad) = (self.k, self.pad);
        if self.adjoint && self.s > 1 {
            let mut fwd = *self;
            fwd.adjoint = false;
            dst.fill(0.0);
            for (o, &g) in src.iter().enumerate() {
                let (oy, ox) = (o / self.ow, o % self.ow);
                let ((ky0, ky1), (kx0, kx1)) = (fwd.taps(oy, self.h), fwd.taps(ox, self.w));
                for ky in ky0..ky1 {
                    for kx in kx0..kx1 {
                        let d = &mut dst[fwd.at(oy, ky) * self.w + fwd.at(ox, kx)];
                        *d = g.mul_add(wt[ky * k + kx], *d);
                    }
                }
            }
            return;
        }
        // Extents read and written, and the columns with every `kx`.
        let ((rh, rw), (wh, ww), (x0, x1)) = if self.adjoint {
            let cols = (k.saturating_sub(pad + 1), self.ow.saturating_sub(pad));
            ((self.oh, self.ow), (self.h, self.w), cols)
        } else {
            let cols = (pad, (self.w + pad + 1).saturating_sub(k));
            ((self.h, self.w), (self.oh, self.ow), cols)
        };
        let wide = self.s == 1 && x1.min(ww) >= x0 + STEP;
        let cols = if wide { (x0, x1.min(ww)) } else { (0, 0) };
        for (oy, drow) in dst.chunks_exact_mut(ww).enumerate() {
            // Literal bounds on the rows that have every `ky` let the tap
            // loops unroll and the weights stay in registers.
            match self.taps(oy, rh) {
                kys if kys == (0, k) => self.steps(src, wt, drow, oy, (0, k), cols),
                kys => self.steps(src, wt, drow, oy, kys, cols),
            }
        }
        // Column by column: consecutive chains are independent.
        for ox in (0..cols.0).chain(cols.1..ww) {
            let (kx0, kx1) = self.taps(ox, rw);
            for oy in 0..wh {
                let (ky0, ky1) = self.taps(oy, rh);
                let mut acc = 0.0f32;
                for ky in ky0..ky1 {
                    for kx in kx0..kx1 {
                        let x = src[self.at(oy, ky) * rw + self.at(ox, kx)];
                        acc = x.mul_add(wt[ky * k + kx], acc);
                    }
                }
                dst[oy * ww + ox] = acc;
            }
        }
    }

    /// Columns `cols` of row `oy` written, over tap rows `kys`, [`STEP`]
    /// at a time; a short last step backs up to end on the edge and
    /// recomputes, bit for bit, what it overlaps.
    #[inline(always)]
    fn steps(&self, src: &[f32], wt: &[f32], drow: &mut [f32], oy: usize, kys: Span, cols: Span) {
        let rw = if self.adjoint { self.ow } else { self.w };
        let mut j = cols.0;
        while j < cols.1 {
            let j0 = j.min(cols.1 - STEP);
            let mut acc = [0.0f32; STEP];
            for ky in kys.0..kys.1 {
                for kx in 0..self.k {
                    let xs = &src[self.at(oy, ky) * rw + self.at(j0, kx)..][..STEP];
                    for l in 0..STEP {
                        acc[l] = xs[l].mul_add(wt[ky * self.k + kx], acc[l]);
                    }
                }
            }
            drow[j0..j0 + STEP].copy_from_slice(&acc);
            j += STEP;
        }
    }

    /// Outputs `[lo, hi)` of `outs` that meet an input inside
    /// `[0, extent)` through tap `t`.
    #[inline(always)]
    fn outs(&self, t: usize, extent: usize, outs: usize) -> Span {
        let lo = self.pad.saturating_sub(t).div_ceil(self.s).min(outs);
        let hi = (extent + self.pad).saturating_sub(t).div_ceil(self.s);
        (lo, hi.clamp(lo, outs))
    }

    /// `dw[ky, kx] = Σ dy[b, oy, ox] * x[b, oy*s + ky - pad, ox*s + kx - pad]`.
    #[inline(always)]
    fn grad_weight(&self, x: &[f32], dy: &[f32], dw: &mut [f32], n: usize, channels: usize) {
        let (k, s, hw, ohow) = (self.k, self.s, self.h * self.w, self.oh * self.ow);
        let mut sums = vec![[0.0f32; LANES]; k * k];
        for b in 0..n {
            let xp = &x[b * channels * hw..][..hw];
            let dyp = &dy[b * channels * ohow..][..ohow];
            for (t, sum) in sums.iter_mut().enumerate() {
                let (oy0, oy1) = self.outs(t / k, self.h, self.oh);
                let (ox0, ox1) = self.outs(t % k, self.w, self.ow);
                if ox0 == ox1 {
                    continue;
                }
                let mut acc = *sum;
                for oy in oy0..oy1 {
                    let i = self.at(oy, t / k) * self.w + self.at(ox0, t % k);
                    dot(&mut acc, &dyp[oy * self.ow..][ox0..ox1], &xp[i..], s);
                }
                *sum = acc;
            }
        }
        for (d, a) in dw.iter_mut().zip(sums) {
            // The fixed tree over 16 lanes: 8 + 8, 4 + 4, 2 + 2, 1 + 1.
            let q: [f32; 4] = std::array::from_fn(|l| (a[l] + a[l + 8]) + (a[l + 4] + a[l + 12]));
            *d = (q[0] + q[2]) + (q[1] + q[3]);
        }
    }
}

/// `acc[lane] = g[j].mul_add(x[j*xs], acc[lane])` for every `j`; the
/// lane is `j % LANES`, or at unit stride the slot in a backed-up last
/// step.
#[inline(always)]
fn dot(acc: &mut [f32; LANES], g: &[f32], x: &[f32], xs: usize) {
    let n = g.len();
    if xs != 1 || n < LANES {
        for j in 0..n {
            acc[j % LANES] = g[j].mul_add(x[j * xs], acc[j % LANES]);
        }
        return;
    }
    let mut j = 0;
    while j < n {
        let j0 = j.min(n - LANES);
        let (gv, xv) = (&g[j0..][..LANES], &x[j0..][..LANES]);
        // A short last step backs up to end on the run's edge; its lanes
        // below `j` hold elements the step before already summed.
        let m: [u32; LANES] = std::array::from_fn(|l| if j0 + l >= j { !0 } else { 0 });
        for l in 0..LANES {
            let sum = gv[l].mul_add(xv[l], acc[l]);
            acc[l] = f32::from_bits(sum.to_bits() & m[l] | acc[l].to_bits() & !m[l]);
        }
        j += LANES;
    }
}
