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
//! **Grad-weight** gives every `dW` element [`LANES`] partial sums:
//! vectors run along `ox` (element `ox` joins lane `ox % LANES`), rows and
//! then images in order, and `reduce`'s fixed 8/4/2/1 tree folds the lanes,
//! as `stencil`'s do. A register tile holds [`TILE`] output channels by
//! [`TILE`] columns, a column being one `(ic, ky, kx)` of a block of
//! [`TILE`] input channels taken in that order — taps of a channel side by
//! side, running on into the next channel — so a block's `TILE k k` columns
//! fill whole tiles at every `k`. A tile reads its columns as windows of
//! the block's zero-bordered copy (the image itself when unpadded), and a
//! plane whose rows are whole lane steps in one flat walk. When every
//! image's copy fits in the scratch that would otherwise keep the sums
//! between images, a tile runs over the whole batch in its registers and
//! folds straight into `dW`; otherwise it runs image by image. A tile at
//! the edge of `oc` or of the columns repeats its last channel or column
//! and drops those sums; an `oc` band of a pooled call runs the same body
//! over its rows. An element's chain depends on the geometry alone — not
//! on the tile it rides in, its place there or the images a tile runs at
//! once — so results are bitwise equal on every [`crate::SimdTier`] and
//! pool size (`tests` spells the chain out).
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
/// Output channels and columns per grad-weight tile, and input channels
/// per block of columns.
const TILE: usize = 4;
/// Partial sums per grad-weight element: one zmm register, two ymm.
const LANES: usize = 16;
/// Sixteen `(oc, column)` pairs of [`LANES`] partial sums, `oc`-major.
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
            Op::GradWeight { x, dw, .. } => {
                let n = x.len() / (win.cin * win.h * win.w);
                let (_, sums, planes) = win.gw_plan(n, dw.len() / (win.cin * kk));
                sums + planes
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

    /// How grad-weight stages `n` images for `rows` output channels:
    /// images per chunk, and floats of partial sums and of zero-bordered
    /// planes. Every image's padded planes of one block of input channels
    /// (none when `x` is read in place) take the place of the partial sums
    /// when they fit there: each tile then runs over the whole batch in
    /// its registers. Otherwise the tiles run image by image, their sums
    /// kept between images in scratch.
    #[inline(always)]
    fn gw_plan(&self, n: usize, rows: usize) -> (usize, usize, usize) {
        let per = match self.pad {
            0 => 0,
            pad => TILE * (self.h + 2 * pad) * (self.w + 2 * pad),
        };
        let sums = rows.next_multiple_of(TILE) * self.k * self.k * TILE * LANES;
        match n * per <= sums + per {
            true => (n.max(1), 0, n * per),
            false => (1, sums, per),
        }
    }

    #[inline(always)]
    fn grad_weight(&self, x: &[f32], dy: &[f32], dw: &mut [f32], oc0: usize, scratch: &mut [f32]) {
        #[rustfmt::skip]
        let Window { cin, cout, h, w, oh, ow, k, pad } = *self;
        let (kk, hw, ohow) = (k * k, h * w, oh * ow);
        let rows = dw.len() / (cin * kk);
        let n = x.len() / (cin * hw);
        if n == 0 {
            return dw.fill(0.0);
        }
        let (chunk, kept, padded) = self.gw_plan(n, rows);
        let (sums, planes) = scratch.split_at_mut(kept);
        let planes = &mut planes[..padded];
        planes.fill(0.0);
        // Row and plane strides of the (padded) input planes, and the
        // stride between images: of `x`, or of the padded blocks.
        let (rs, ps) = (w + 2 * pad, (h + 2 * pad) * (w + 2 * pad));
        let image_stride = match pad {
            0 => cin * hw,
            _ => TILE * ps,
        };
        // A pointwise plane whose rows are whole lane steps is one row:
        // element `oy * ow + ox` keeps lane `ox % LANES`.
        #[rustfmt::skip]
        let walk = match (k, pad, ow % LANES) {
            (1, 0, 0) => Walk { rows: 1, steps: ohow / LANES, tail: 0, ow: ohow, rs: ohow },
            _ => Walk { rows: oh, steps: ow / LANES, tail: ow % LANES, ow, rs },
        };
        for ic0 in (0..cin).step_by(TILE) {
            let ics = TILE.min(cin - ic0);
            // The block's columns: `(ic, tap)` pairs, `ic`-major.
            let cols = ics * kk;
            for b0 in (0..n).step_by(chunk) {
                let nb = chunk.min(n - b0);
                let image: &[f32] = match pad {
                    0 => &x[(b0 * cin + ic0) * hw..],
                    _ => {
                        for (b, dst) in planes.chunks_exact_mut(image_stride).take(nb).enumerate() {
                            let xb = &x[((b0 + b) * cin + ic0) * hw..][..ics * hw];
                            copy_inside(dst, xb, (h, w), pad, (rs, ps));
                        }
                        planes
                    }
                };
                let run = Run {
                    dy: &dy[b0 * cout * ohow..],
                    image,
                    nb,
                    dy_stride: cout * ohow,
                    image_stride,
                };
                let mut tiles = sums.chunks_exact_mut(TILE * TILE * LANES);
                for ot in (0..rows).step_by(TILE) {
                    // A channel or column past the edge repeats the last
                    // one; the fold below drops what it sums.
                    let mut dys = [0; TILE];
                    for r in 0..TILE {
                        dys[r] = (oc0 + (ot + r).min(rows - 1)) * ohow;
                    }
                    // Where column `(ic, ky, kx)` starts: `ic * ps + ky * rs
                    // + kx`, kept as the columns advance.
                    let (mut at, mut ky, mut kx) = (0, 0, 0);
                    for col0 in (0..cols).step_by(TILE) {
                        let mut xs = [0; TILE];
                        for c in 0..TILE {
                            if col0 + c >= cols {
                                xs[c] = xs[c - 1];
                                continue;
                            }
                            xs[c] = at;
                            (at, kx) = (at + 1, kx + 1);
                            if kx == k {
                                (at, ky, kx) = (at + rs - k, ky + 1, 0);
                            }
                            if ky == k {
                                (at, ky) = (at + ps - k * rs, 0);
                            }
                        }
                        // The sums kept between images, if any.
                        let kept = tiles.next();
                        let init = kept.as_deref().filter(|_| b0 != 0);
                        let acc = grad_weight_tile(init, &run, &dys, &xs, walk);
                        if b0 + nb < n {
                            let kept = kept.expect("partial sums kept in scratch");
                            for (a, v) in acc.iter().zip(kept.chunks_exact_mut(LANES)) {
                                v.copy_from_slice(a);
                            }
                            continue;
                        }
                        // Pair `r * TILE + c` is `(ot + r, col0 + c)`.
                        for (i, a) in acc.iter().enumerate() {
                            let (oc, col) = (ot + i / TILE, col0 + i % TILE);
                            if oc < rows && col < cols {
                                dw[(oc * cin + ic0) * kk + col] = fold(a);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// How a grad-weight tile walks its planes: `rows` rows of `steps` whole
/// lane steps and a ragged `tail` (fewer than [`LANES`]), `ow` elements of
/// `dy` and `rs` of `x` apart.
#[derive(Clone, Copy)]
struct Walk {
    rows: usize,
    steps: usize,
    tail: usize,
    ow: usize,
    rs: usize,
}

/// The images a grad-weight tile runs over: `nb` of `dy` from `dy`'s
/// start, `dy_stride` floats apart, and of input planes from `image`'s,
/// `image_stride` apart.
struct Run<'a> {
    dy: &'a [f32],
    image: &'a [f32],
    nb: usize,
    dy_stride: usize,
    image_stride: usize,
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
/// `pad` rows and columns in, row stride `rs`, plane stride `ps`. Rows go
/// over in whole lane steps, written inline, and a ragged tail.
#[inline(always)]
fn copy_inside(
    dst: &mut [f32],
    src: &[f32],
    (h, w): (usize, usize),
    pad: usize,
    (rs, ps): (usize, usize),
) {
    for (plane, xp) in dst.chunks_mut(ps).zip(src.chunks_exact(h * w)) {
        let rows = plane[pad * rs + pad..].chunks_mut(rs);
        for (row, xrow) in rows.zip(xp.chunks_exact(w)) {
            let (mut to, mut from) = (row[..w].chunks_exact_mut(LANES), xrow.chunks_exact(LANES));
            for (to, from) in to.by_ref().zip(from.by_ref()) {
                to.copy_from_slice(from);
            }
            if w % LANES != 0 {
                to.into_remainder().copy_from_slice(from.remainder());
            }
        }
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

/// A tile's sums, from `init` or zero, plus its contributions from every
/// image of `run` in order: element `r * TILE + c` gains `dy[oy * ow + ox]`
/// of the plane at `dys[r]` times `x[oy * rs + ox]` of the plane from
/// `xs[c]`, over the walk — element `ox` in lane `ox % LANES`, rows in
/// order. The ragged tail of a row is zero-filled, which adds exact zeros.
/// Like [`correlate_tile`], the accumulator is a local returned by value.
/// Every plane of a step has one length, so the step checks its bounds
/// once per operand.
#[inline(always)]
fn grad_weight_tile(
    init: Option<&[f32]>,
    run: &Run<'_>,
    dys: &[usize; TILE],
    xs: &[usize; TILE],
    walk: Walk,
) -> Sums {
    let mut acc: Sums = [[0.0; LANES]; TILE * TILE];
    if let Some(init) = init {
        for (a, v) in acc.iter_mut().zip(init.chunks_exact(LANES)) {
            a.copy_from_slice(v);
        }
    }
    #[rustfmt::skip]
    let Walk { rows, steps, tail, ow, rs } = walk;
    let span = (rows - 1) * rs + ow;
    for b in 0..run.nb {
        let (mut dp, mut xp) = ([&run.dy[..0]; TILE], [&run.image[..0]; TILE]);
        for i in 0..TILE {
            dp[i] = &run.dy[b * run.dy_stride + dys[i]..][..rows * ow];
            xp[i] = &run.image[b * run.image_stride + xs[i]..][..span];
        }
        // One step: `len` lanes of every `(oc, column)` pair, `dv` of `dy`
        // and `x` elements `x0` on, the rest zero. Written out at every
        // site — behind a call, even an inlined one, the accumulator
        // leaves its registers.
        macro_rules! step {
            ($dv:expr, $x0:expr, $len:expr) => {
                let dv: [[f32; LANES]; TILE] = $dv;
                let mut xv = [[0.0f32; LANES]; TILE];
                for i in 0..TILE {
                    xv[i] = lanes(&xp[i][$x0..], $len);
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
        let mut x0 = 0;
        if tail == 0 {
            // Whole steps only: `dy`'s run on across rows — one index for
            // the tile's four `oc` rows, no bounds check — and `x` skips
            // the `rs - ow` columns past each row's end.
            let [d0, d1, d2, d3] = dp.map(|d| d.chunks_exact(LANES));
            let mut left = steps;
            for (((d0, d1), d2), d3) in d0.zip(d1).zip(d2).zip(d3) {
                let dv = [d0, d1, d2, d3].map(|d| lanes(d, LANES));
                step!(dv, x0, LANES);
                (x0, left) = (x0 + LANES, left - 1);
                if left == 0 {
                    (x0, left) = (x0 + rs - ow, steps);
                }
            }
            continue;
        }
        for oy in 0..rows {
            let d0 = oy * ow;
            for s in 0..=steps {
                let (j, len) = (s * LANES, if s < steps { LANES } else { tail });
                let mut dv = [[0.0f32; LANES]; TILE];
                for i in 0..TILE {
                    dv[i] = lanes(&dp[i][d0 + j..], len);
                }
                step!(dv, x0 + j, len);
            }
            x0 += rs;
        }
    }
    acc
}

/// The first `len` of `xs` (at most [`LANES`]), zero-filled to a step.
#[inline(always)]
fn lanes(xs: &[f32], len: usize) -> [f32; LANES] {
    let xs = &xs[..len];
    let mut v = [0.0f32; LANES];
    for l in 0..LANES {
        v[l] = if l < len { xs[l] } else { 0.0 };
    }
    v
}

#[cfg(test)]
mod tests;
