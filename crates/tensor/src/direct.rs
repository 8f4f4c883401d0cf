//! Direct kernels for stride-1 dense (`groups == 1`) convolution, `k x k`
//! and pointwise: forward, grad-input and grad-weight read the image where
//! it lies — no column matrix, no GEMM packs (`lowering`'s table says
//! when).
//!
//! **Correlate** — forward, and grad-input as the forward of `dy` under
//! the flipped, transposed weights with padding `k - 1 - pad` — is the
//! GEMM micro-kernel's [`MR`]` x `[`NR`] register tile whose B row for
//! depth step `(ic, ky, kx)` is an `NR`-wide window of an image row,
//! against a `[ckk][MR]` weight panel packed once per call. An image with
//! padding (or ragged rows) is copied once into zero-bordered scratch, an
//! unpadded one whose rows fill whole tiles is read in place. Every output
//! element is one `f32::mul_add` chain in `(ic, ky, kx)` order, whatever
//! `ckk` is; padded taps join it as exact `+ w * 0`. The tile's write-out
//! applies the forward's epilogue (bias, then activation) on the way to
//! memory.
//!
//! **Grad-weight** carries a [`TILE`]` x `[`TILE`] block of `(oc, ic)`
//! pairs per tap, each pair [`LANES`] partial sums: vectors run along
//! `ox` (element `ox` joins lane `ox % LANES`), rows and batches in order,
//! folded by `reduce`'s fixed 8/4/2/1 tree, as `stencil`'s are. A tile at
//! the edge of `oc` or `ic` repeats its last channel and drops those sums,
//! so one body serves every extent; an `oc` band of a pooled call runs the
//! same body over its rows. Chain, lane and fold depend on the geometry
//! alone: bitwise equal on every [`crate::SimdTier`] and pool size.
//!
//! Both register tiles are local arrays built inside an `#[inline(always)]`
//! function and returned by value, and the multiply-adds that update them
//! are written at their use site: the same loops inside the caller's tile
//! loop, or behind a call that takes the tile by `&mut`, or over a
//! run-time tile extent, run 1.5x to 3x slower (EXPERIMENTS.md "PR 21") —
//! the tile leaves its registers.

use crate::epilogue::Epilogue;
use crate::reduce::fold;
use crate::simd::TierBody;

/// Output channels per correlate tile (the GEMM micro-kernel's `MR`).
const MR: usize = 8;
/// Output columns per correlate tile (its `NR`) ...
const NR: usize = 32;
/// ... and per tile of an image whose rows are no wider than this, where
/// half of every `NR`-wide tile would be thrown away.
const NARROW: usize = 16;
/// Output and input channels per grad-weight tile.
const TILE: usize = 4;
/// Partial sums per grad-weight element: one zmm register, two ymm.
const LANES: usize = 16;
/// Output elements per plane a grad-weight tile visits before it moves to
/// the next tap: its eight planes' rows stay in L1 across the taps.
const BLOCK: usize = 512;

/// Sixteen `(oc, ic)` pairs of [`LANES`] partial sums, `oc`-major.
type Sums = [[f32; LANES]; TILE * TILE];

/// Geometry of one stride-1 dense convolution: `cout` planes of `oh x ow`
/// written from `cin` planes of `h x w` (`oh = h + 2 pad - k + 1`).
#[derive(Clone, Copy)]
pub(crate) struct Window {
    pub cin: usize,
    pub cout: usize,
    pub h: usize,
    pub w: usize,
    pub oh: usize,
    pub ow: usize,
    pub k: usize,
    pub pad: usize,
}

/// A direct kernel over a run of whole images.
pub(crate) enum Op<'a> {
    /// `dst[n, cout, oh, ow]` from `src[n, cin, h, w]` and the weights
    /// `[cout, cin, k, k]` — or, as the adjoint of the convolution those
    /// weights belong to, `[cin, cout, k, k]` flipped along both taps —
    /// every element written once, finished by `epilogue`.
    Correlate {
        src: &'a [f32],
        weights: &'a [f32],
        dst: &'a mut [f32],
        adjoint: bool,
        epilogue: Epilogue<'a>,
    },
    /// Rows `[oc0, oc0 + dw.len() / (cin k k))` of `dw[cout, cin, k, k]`
    /// from `x[n, cin, h, w]` and `dy[n, cout, oh, ow]`; `dw` is
    /// overwritten.
    GradWeight {
        x: &'a [f32],
        dy: &'a [f32],
        dw: &'a mut [f32],
        oc0: usize,
    },
}

impl Op<'_> {
    /// Floats of scratch [`Direct`] needs to run this over `win`: the
    /// weight panels and the padded image, or one `ic` tile's partial sums
    /// and its padded planes.
    pub(crate) fn scratch_len(&self, win: &Window) -> usize {
        let kk = win.k * win.k;
        match self {
            Op::Correlate { .. } => {
                win.cout.next_multiple_of(MR) * win.cin * kk + win.image().padded
            }
            Op::GradWeight { dw, .. } => {
                let rows = dw.len() / (win.cin * kk);
                rows.next_multiple_of(TILE) * kk * TILE * LANES + win.padded_planes()
            }
        }
    }
}

/// [`Op`] `.0` over the geometry `.1` with [`Op::scratch_len`] floats of
/// scratch `.2` — the direct convolutions' [`TierBody`].
pub(crate) struct Direct<'a>(pub Op<'a>, pub Window, pub &'a mut [f32]);

impl TierBody for Direct<'_> {
    #[inline(always)]
    fn run(self) {
        let Direct(op, win, scratch) = self;
        match op {
            #[rustfmt::skip]
            Op::Correlate { src, weights, dst, adjoint, epilogue } => match win.image() {
                image @ Image { nr: NARROW, .. } => image.correlate::<NARROW>(src, weights, dst, adjoint, epilogue, scratch),
                image => image.correlate::<NR>(src, weights, dst, adjoint, epilogue, scratch),
            },
            Op::GradWeight { x, dy, dw, oc0 } => win.grad_weight(x, dy, dw, oc0, scratch),
        }
    }
}

/// How correlate walks and reads an image.
struct Image {
    /// The extents walked: a pointwise plane is one long row, so only its
    /// last tile can be ragged.
    win: Window,
    /// Columns per tile.
    nr: usize,
    /// Row and channel strides of the image the tiles read.
    rs: usize,
    cs: usize,
    /// Floats of zero-bordered scratch the image is copied into; 0 when it
    /// is read in place.
    padded: usize,
}

impl Window {
    #[inline(always)]
    fn image(&self) -> Image {
        let mut win = *self;
        if win.k == 1 && win.pad == 0 {
            (win.h, win.w, win.oh, win.ow) = (1, win.h * win.w, 1, win.oh * win.ow);
        }
        let nr = if win.ow <= NARROW { NARROW } else { NR };
        let (mut rs, mut padded) = (win.w, 0);
        if win.pad != 0 || win.ow % nr != 0 {
            // Rows hold whole tiles plus the taps to their right, so the
            // last window of the last row is in bounds.
            rs = win.ow.next_multiple_of(nr) + win.k - 1;
            padded = win.cin * (win.h + 2 * win.pad) * rs;
        }
        let cs = (win.h + 2 * win.pad) * rs;
        #[rustfmt::skip]
        return Image { win, nr, rs, cs, padded };
    }

    /// Floats of zero-bordered scratch grad-weight copies one `ic` tile's
    /// planes into; 0 when it reads `x` in place.
    #[inline(always)]
    fn padded_planes(&self) -> usize {
        match self.pad {
            0 => 0,
            pad => TILE * (self.h + 2 * pad) * (self.w + 2 * pad),
        }
    }

    #[inline(always)]
    fn grad_weight(&self, x: &[f32], dy: &[f32], dw: &mut [f32], oc0: usize, scratch: &mut [f32]) {
        #[rustfmt::skip]
        let Window { cin, cout, h, w, oh, ow, k, pad } = *self;
        let (kk, hw, ohow) = (k * k, h * w, oh * ow);
        let rows = dw.len() / (cin * kk);
        let n = x.len() / (cin * hw);
        // Row and plane strides of the (padded) input planes.
        let (rs, ps) = (w + 2 * pad, (h + 2 * pad) * (w + 2 * pad));
        let (sums, planes) = scratch.split_at_mut(rows.next_multiple_of(TILE) * kk * TILE * LANES);
        let planes = &mut planes[..self.padded_planes()];
        planes.fill(0.0);
        let block = (BLOCK / ow).max(1);
        for ic0 in (0..cin).step_by(TILE) {
            let ics = TILE.min(cin - ic0);
            sums.fill(0.0);
            for b in 0..n {
                let xb = &x[(b * cin + ic0) * hw..][..ics * hw];
                let image: &[f32] = match pad {
                    0 => xb,
                    _ => {
                        copy_inside(planes, xb, (h, w), pad, (rs, ps));
                        planes
                    }
                };
                // A channel past the edge repeats the last one; the fold
                // below drops what it sums.
                let xs: [&[f32]; TILE] =
                    std::array::from_fn(|c| &image[c.min(ics - 1) * ps..][..ps]);
                for ot in (0..rows).step_by(TILE) {
                    let dys: [&[f32]; TILE] = std::array::from_fn(|r| {
                        let oc = oc0 + (ot + r).min(rows - 1);
                        &dy[(b * cout + oc) * ohow..][..ohow]
                    });
                    let tile = &mut sums[ot * kk * TILE * LANES..][..kk * TILE * TILE * LANES];
                    for oy0 in (0..oh).step_by(block) {
                        let oys = (oy0, (oy0 + block).min(oh));
                        for (tap, s) in tile.chunks_exact_mut(TILE * TILE * LANES).enumerate() {
                            let at = (tap / k) * rs + tap % k;
                            let acc = grad_weight_tile(s, &dys, &xs, oys, ow, rs, at);
                            for (a, v) in acc.iter().zip(s.chunks_exact_mut(LANES)) {
                                v.copy_from_slice(a);
                            }
                        }
                    }
                }
            }
            for (i, a) in sums.chunks_exact(LANES).enumerate() {
                let (ot, tap, r, c) = (
                    i / (kk * TILE * TILE),
                    i / (TILE * TILE) % kk,
                    i / TILE % TILE,
                    i % TILE,
                );
                if ot * TILE + r < rows && c < ics {
                    dw[((ot * TILE + r) * cin + ic0 + c) * kk + tap] = fold(a);
                }
            }
        }
    }
}

impl Image {
    #[inline(always)]
    fn correlate<const NR: usize>(
        &self,
        src: &[f32],
        wt: &[f32],
        dst: &mut [f32],
        adjoint: bool,
        epilogue: Epilogue<'_>,
        scratch: &mut [f32],
    ) {
        #[rustfmt::skip]
        let Image { win: Window { cin, cout, h, w, oh, ow, k, pad }, rs, cs, padded, .. } = *self;
        let (kk, ckk) = (k * k, cin * k * k);
        let (panels, scratch) = scratch.split_at_mut(cout.next_multiple_of(MR) * ckk);
        // Panel `t` holds output channels `t * MR ..`, depth by depth with
        // the `MR` channel values contiguous, zero past `cout`.
        for (t, panel) in panels.chunks_exact_mut(ckk * MR).enumerate() {
            for r in 0..MR {
                let o = t * MR + r;
                for c in 0..cin {
                    for tap in 0..kk {
                        panel[(c * kk + tap) * MR + r] = match (o < cout, adjoint) {
                            (false, _) => 0.0,
                            (true, false) => wt[(o * cin + c) * kk + tap],
                            (true, true) => wt[(c * cout + o) * kk + kk - 1 - tap],
                        };
                    }
                }
            }
        }
        let scratch = &mut scratch[..padded];
        scratch.fill(0.0);
        let images = src.chunks_exact(cin * h * w);
        for (xb, ob) in images.zip(dst.chunks_exact_mut(cout * oh * ow)) {
            let image: &[f32] = match padded {
                0 => xb,
                _ => {
                    copy_inside(scratch, xb, (h, w), pad, (rs, cs));
                    scratch
                }
            };
            for oy in 0..oh {
                for (t, panel) in panels.chunks_exact(ckk * MR).enumerate() {
                    let rows = MR.min(cout - t * MR);
                    for j0 in (0..ow).step_by(NR) {
                        let cols = NR.min(ow - j0);
                        let acc =
                            correlate_tile::<NR>(panel, &image[oy * rs + j0..], cin, k, cs, rs);
                        for r in 0..rows {
                            let o = t * MR + r;
                            let orow = &mut ob[(o * oh + oy) * ow + j0..][..cols];
                            epilogue.write(orow, &acc[r][..cols], o);
                        }
                    }
                }
            }
        }
    }
}

/// Copies planes of `h x w` into the interior of zero-bordered planes:
/// `pad` rows and columns in, row stride `rs`, plane stride `ps`.
#[inline(always)]
fn copy_inside(
    dst: &mut [f32],
    src: &[f32],
    (h, w): (usize, usize),
    pad: usize,
    (rs, ps): (usize, usize),
) {
    for (row, xrow) in src.chunks_exact(w).enumerate() {
        let (c, y) = (row / h, row % h);
        dst[c * ps + (y + pad) * rs + pad..][..w].copy_from_slice(xrow);
    }
}

/// One `MR x NR` tile of outputs: `image` starts at the tile's first
/// window, `panel` is `[cin k k][MR]`. The accumulator is built locally
/// and returned by value so it lives in vector registers for the whole
/// depth loop (the same loop written inside the caller's tile loop spills).
#[inline(always)]
fn correlate_tile<const NR: usize>(
    panel: &[f32],
    image: &[f32],
    cin: usize,
    k: usize,
    cs: usize,
    rs: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    let mut depth = panel.chunks_exact(MR);
    for c in 0..cin {
        for ky in 0..k {
            let row = &image[c * cs + ky * rs..][..NR + k - 1];
            for (kx, av) in depth.by_ref().take(k).enumerate() {
                let mut brow = [0.0f32; NR];
                brow.copy_from_slice(&row[kx..kx + NR]);
                for r in 0..MR {
                    let a = av[r];
                    for (dst, &b) in acc[r].iter_mut().zip(brow.iter()) {
                        *dst = a.mul_add(b, *dst);
                    }
                }
            }
        }
    }
    acc
}

/// Rows `oys` of one tap added to a tile's sums `init`: element
/// `r * TILE + c` gains `dys[r][oy, ox] * xs[c][oy * rs + at + ox]`,
/// element `ox` in lane `ox % LANES`. A ragged last step is zero-filled,
/// which adds exact zeros. Like [`correlate_tile`], the accumulator is a
/// local returned by value.
#[inline(always)]
fn grad_weight_tile(
    init: &[f32],
    dys: &[&[f32]; TILE],
    xs: &[&[f32]; TILE],
    oys: (usize, usize),
    ow: usize,
    rs: usize,
    at: usize,
) -> Sums {
    let mut acc: Sums = [[0.0; LANES]; TILE * TILE];
    for (a, v) in acc.iter_mut().zip(init.chunks_exact(LANES)) {
        a.copy_from_slice(v);
    }
    let full = ow - ow % LANES;
    for oy in oys.0..oys.1 {
        let mut d = [&[][..]; TILE];
        let mut x = [&[][..]; TILE];
        for i in 0..TILE {
            d[i] = &dys[i][oy * ow..][..ow];
            x[i] = &xs[i][oy * rs + at..][..ow];
        }
        // One step: sixteen lanes of every `(oc, ic)` pair. Written out at
        // both sites — behind a call, even an inlined one, the accumulator
        // leaves its registers.
        macro_rules! step {
            ($len:expr, $j:expr) => {
                let mut dv = [[0.0f32; LANES]; TILE];
                let mut xv = [[0.0f32; LANES]; TILE];
                for i in 0..TILE {
                    dv[i][..$len].copy_from_slice(&d[i][$j..$j + $len]);
                    xv[i][..$len].copy_from_slice(&x[i][$j..$j + $len]);
                }
                for r in 0..TILE {
                    for c in 0..TILE {
                        for l in 0..LANES {
                            acc[r * TILE + c][l] = dv[r][l].mul_add(xv[c][l], acc[r * TILE + c][l]);
                        }
                    }
                }
            };
        }
        for j in (0..full).step_by(LANES) {
            step!(LANES, j);
        }
        if full < ow {
            step!(ow - full, full);
        }
    }
    acc
}
