//! Packed, cache-blocked f32 GEMM — the [`KernelPolicy::Blocked`] matrix
//! engine.
//!
//! One routine, [`gemm_strided`], backs every matrix product in the
//! crate: `matmul`, `matmul_t_a` and `matmul_b_t` (a `Linear` layer's
//! forward and both adjoints). No convolution reaches it: those run on the
//! `direct` and `stencil` kernels or the naive loops (`lowering` module).
//! Transposed operands are handled by the packing step ([`pack`]) reading
//! through arbitrary row/column strides, along whichever axis is
//! unit-stride, so no caller ever materializes a transpose.
//!
//! The structure is the standard three-level blocking of BLIS/GotoBLAS,
//! in plain safe Rust:
//!
//! ```text
//! for jc in 0..n step NC          # B column panel   (stays in L3/L2)
//!   for pc in 0..k step KC        # depth panel
//!     pack B[pc.., jc..] -> ~KC x NC, NR-wide column micro-panels
//!     for ic in 0..m step MC      # A row panel      (stays in L2)
//!       pack A[ic.., pc..] -> ~MC x KC, MR-tall row micro-panels
//!       for each MR x NR tile: microkernel over KC in registers
//! ```
//!
//! The microkernel keeps an `MR x NR` accumulator as a fixed-size array,
//! which LLVM autovectorizes and keeps in vector registers — no
//! intrinsics; the instruction set it may use is chosen at runtime by
//! the [`crate::SimdTier`] dispatch (`simd` module), not at compile time.
//! Per-element accumulation order over `k` is identical to the naive
//! loops (panels ascend, lanes are independent), so the two policies
//! agree to rounding contraction, not just to "some tolerance".
//!
//! When a compute pool is active (`parallel` module), [`gemm_strided`]
//! splits C into per-task row bands (or, for short-wide outputs, column
//! bands through contiguous scratch) and each task runs the unchanged
//! serial kernel [`gemm_serial`] over its band — every C element's fma
//! chain is produced whole by one worker, so parallel results are
//! bitwise identical to serial ones.
//!
//! Packing buffers live in thread-local scratch ([`with_pack_buffers`]),
//! so steady-state training performs no per-call allocation.
//!
//! [`KernelPolicy::Blocked`]: crate::KernelPolicy::Blocked

use std::cell::RefCell;

use crate::simd::{run_tiered, simd_tier, TierBody};

/// Rows of C carried per microkernel tile.
const MR: usize = 8;
/// Columns of C carried per microkernel tile.
const NR: usize = 32;
/// Row-panel height: A block of `MC x KC` is packed per inner pass.
const MC: usize = 64;
/// Depth of one packed panel pair.
const KC: usize = 256;
/// Column-panel width: B block of `KC x NC` is packed per outer pass.
const NC: usize = 1024;

thread_local! {
    /// `(packed A, packed B)` scratch, reused across calls on this thread.
    static PACK_BUFFERS: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Floats per cache line; pack slices are aligned to this so panel loads
/// never straddle a line.
const LINE: usize = 16;

/// Returns the subslice of `buf` starting at its first cache-line-aligned
/// element, growing the buffer so `len` elements fit past that point.
fn aligned(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len + LINE {
        buf.resize(len + LINE, 0.0);
    }
    let off = (buf.as_ptr() as usize / 4).wrapping_neg() % LINE;
    &mut buf[off..off + len]
}

/// Runs `f` with this thread's packing scratch grown to the given sizes.
/// Like every scratch user here, the buffers leave the cell for the
/// call, so a re-entrant use on the same thread (a pool job stolen while
/// this thread waits on a scope) allocates instead of panicking on a
/// live borrow.
fn with_pack_buffers<R>(
    a_len: usize,
    b_len: usize,
    f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
) -> R {
    let (mut pa, mut pb) = PACK_BUFFERS.take();
    let out = f(aligned(&mut pa, a_len), aligned(&mut pb, b_len));
    PACK_BUFFERS.set((pa, pb));
    out
}

/// `C = A @ B` for strided operands and a contiguous row-major `C`.
///
/// `a` holds an `m x k` matrix with element `(i, p)` at `a[i*rsa + p*csa]`;
/// `b` holds a `k x n` matrix with element `(p, j)` at `b[p*rsb + j*csb]`.
/// `c` is dense row-major `[m, n]` and overwritten: what it held is never
/// read.
///
/// Strides express transposes for free:
///
/// * `A` stored row-major `[m, k]`: `rsa = k, csa = 1`
/// * `A` stored as its transpose `[k, m]`: `rsa = 1, csa = m`
/// * likewise for `B`.
///
/// # Panics
///
/// Debug-asserts that the operand slices cover the strided extents and
/// that `c.len() == m * n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_strided(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rsa: usize,
    csa: usize,
    b: &[f32],
    rsb: usize,
    csb: usize,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n, "gemm: C extent");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if let Some(pool) = crate::parallel::active_pool() {
        let width = pool.size();
        // Prefer row bands: MR-aligned chunks of row-major C are
        // contiguous, so tasks borrow disjoint `chunks_mut` directly.
        let band = m.div_ceil(width).next_multiple_of(MR);
        if band < m {
            gemm_rows_parallel(&pool, band, m, n, k, a, rsa, csa, b, rsb, csb, c);
            return;
        }
        // Too few rows to split (e.g. a conv with a handful of output
        // channels): split C's columns instead, through per-band scratch.
        let nband = n.div_ceil(width).next_multiple_of(NR);
        if nband < n {
            gemm_cols_parallel(&pool, nband, m, n, k, a, rsa, csa, b, rsb, csb, c);
            return;
        }
        // Smaller than one band either way: not worth a scope.
    }
    gemm_serial(m, n, k, a, rsa, csa, b, rsb, csb, c);
}

/// Parallel GEMM over horizontal bands of C: task `i` computes rows
/// `[i*band, …)` by running the full serial kernel on its row slice.
/// Per-element arithmetic is untouched — each C element still receives
/// the same ascending-`k` fma chain the serial kernel produces, so the
/// result is bitwise identical for every band split (see the `parallel`
/// module's determinism contract).
#[allow(clippy::too_many_arguments)]
fn gemm_rows_parallel(
    pool: &crate::parallel::ComputePool,
    band: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rsa: usize,
    csa: usize,
    b: &[f32],
    rsb: usize,
    csb: usize,
    c: &mut [f32],
) {
    debug_assert!(band % MR == 0 && band < m);
    pool.scope(|s| {
        for (bi, cband) in c.chunks_mut(band * n).enumerate() {
            let rows = cband.len() / n;
            let a_band = &a[bi * band * rsa..];
            s.spawn(move || {
                gemm_serial(rows, n, k, a_band, rsa, csa, b, rsb, csb, cband);
            });
        }
    });
}

thread_local! {
    /// Column-band scratch for [`gemm_cols_parallel`], reused across
    /// calls on the scoping (caller) thread. Distinct from
    /// `PACK_BUFFERS`, which the per-band `gemm_serial` runs use on
    /// their own worker threads.
    static BAND_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Parallel GEMM over vertical bands of C for short-and-wide outputs.
/// Column bands of row-major C interleave in memory, so each task
/// computes its band into a contiguous scratch block, and the caller
/// copies the bands out after the scope. The copies are whole-row-segment
/// `memcpy`s and change no values — bitwise parity holds.
#[allow(clippy::too_many_arguments)]
fn gemm_cols_parallel(
    pool: &crate::parallel::ComputePool,
    nband: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rsa: usize,
    csa: usize,
    b: &[f32],
    rsb: usize,
    csb: usize,
    c: &mut [f32],
) {
    debug_assert!(nband % NR == 0 && nband < n);
    let nbands = n.div_ceil(nband);
    // Out of the cell while the scope below runs: helping it may steal a
    // foreign GEMM that lands in this function on this thread.
    let mut buf = BAND_SCRATCH.take();
    if buf.len() < m * nband * nbands {
        buf.resize(m * nband * nbands, 0.0);
    }
    let scratch = &mut buf[..m * nband * nbands];
    let extent = |bi: usize| (bi * nband, nband.min(n - bi * nband));
    pool.scope(|s| {
        for (bi, sb) in scratch.chunks_mut(m * nband).enumerate() {
            let (j0, nb) = extent(bi);
            let b_band = &b[j0 * csb..];
            let sb = &mut sb[..m * nb];
            s.spawn(move || {
                gemm_serial(m, nb, k, a, rsa, csa, b_band, rsb, csb, sb);
            });
        }
    });
    for (bi, sb) in scratch.chunks(m * nband).enumerate() {
        let (j0, nb) = extent(bi);
        for r in 0..m {
            c[r * n + j0..][..nb].copy_from_slice(&sb[r * nb..][..nb]);
        }
    }
    BAND_SCRATCH.set(buf);
}

/// The single-threaded three-level blocked kernel — the serial core
/// every parallel band task runs unchanged. See [`gemm_strided`] for the
/// operand contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_serial(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rsa: usize,
    csa: usize,
    b: &[f32],
    rsb: usize,
    csb: usize,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n, "gemm: C extent");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }

    // Resolved once per kernel invocation; `run_tiered` dispatches to
    // the code compiled for this tier.
    let tier = simd_tier();
    let mc = MC.min(m.next_multiple_of(MR));
    let nc = NC.min(n.next_multiple_of(NR));
    let kc = KC.min(k);

    // Panels are padded to whole MR/NR multiples, so the scratch must be
    // sized for the rounded-up extents.
    let pa_len = mc.next_multiple_of(MR) * kc;
    let pb_len = kc * nc.next_multiple_of(NR);
    with_pack_buffers(pa_len, pb_len, |pa, pb| {
        let mut jc = 0;
        while jc < n {
            let nb = nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kb = kc.min(k - pc);
                // The first depth panel overwrites C; later panels add.
                let add = pc > 0;
                pack::<NR>(pb, b, rsb, csb, (pc, kb), (jc, nb));
                let mut ic = 0;
                while ic < m {
                    let mb = mc.min(m - ic);
                    pack::<MR>(pa, a, csa, rsa, (pc, kb), (ic, mb));
                    let c = &mut c[ic * n..];
                    run_tiered(tier, MacroKernel(pa, pb, mb, nb, kb, c, n, jc, add));
                    ic += mb;
                }
                pc += kb;
            }
            jc += nb;
        }
    });
}

/// Packs the `kb x len` block of a strided matrix whose element `(p, i)`
/// is `src[(p0 + p) * ps + (i0 + i) * is]` into `W`-wide micro-panels:
/// panel `t` holds `i` in `t * W ..`, depth by depth with the `W` values
/// contiguous, zero-padded past the block's edge. `A` packs its rows
/// `MR` wide (`ps = csa`, `is = rsa`), `B` its columns `NR` wide.
///
/// Reads run along the unit-stride axis: when that is the depth (a
/// row-major `A`, a transposed `B`) each `i` is one contiguous run and the
/// strided side is the small packed panel; otherwise each depth is.
fn pack<const W: usize>(
    dst: &mut [f32],
    src: &[f32],
    ps: usize,
    is: usize,
    (p0, kb): (usize, usize),
    (i0, len): (usize, usize),
) {
    let panels = dst.chunks_exact_mut(W * kb).take(len.div_ceil(W));
    for (t, panel) in panels.enumerate() {
        let n = W.min(len - t * W);
        let base = p0 * ps + (i0 + t * W) * is;
        if ps == 1 && is != 1 {
            for i in 0..n {
                for (p, &v) in src[base + i * is..][..kb].iter().enumerate() {
                    panel[p * W + i] = v;
                }
            }
            for depth in panel.chunks_exact_mut(W) {
                depth[n..].fill(0.0);
            }
        } else {
            for (p, depth) in panel.chunks_exact_mut(W).enumerate() {
                let at = base + p * ps;
                if is == 1 {
                    depth[..n].copy_from_slice(&src[at..at + n]);
                } else {
                    for i in 0..n {
                        depth[i] = src[at + i * is];
                    }
                }
                depth[n..].fill(0.0);
            }
        }
    }
}

/// `(pa, pb, mb, nb, kb, c, ldc, jc, add)`: one macro-kernel pass over a
/// pair of packed panels — GEMM's [`TierBody`]. Every tier runs this one
/// source; only the instruction set LLVM may use differs, and the `mul_add`
/// chains keep the results bitwise identical (see the `simd` module docs).
#[rustfmt::skip]
struct MacroKernel<'a>(&'a [f32], &'a [f32], usize, usize, usize, &'a mut [f32], usize, usize, bool);

impl TierBody for MacroKernel<'_> {
    /// Runs the microkernel over every `MR x NR` tile of the packed panels.
    #[inline(always)]
    fn run(self) {
        let MacroKernel(pa, pb, mb, nb, kb, c, ldc, jc, add) = self;
        let mut ir = 0;
        while ir < mb {
            let rows = MR.min(mb - ir);
            let apanel = &pa[(ir / MR) * MR * kb..][..MR * kb];
            let mut jr = 0;
            while jr < nb {
                let cols = NR.min(nb - jr);
                let bpanel = &pb[(jr / NR) * NR * kb..][..NR * kb];
                let acc = microkernel(apanel, bpanel);
                // Spill the register tile into C's valid region.
                for r in 0..rows {
                    let crow = &mut c[(ir + r) * ldc + jc + jr..][..cols];
                    if add {
                        for (dst, &v) in crow.iter_mut().zip(acc[r].iter()) {
                            *dst += v;
                        }
                    } else {
                        crow.copy_from_slice(&acc[r][..cols]);
                    }
                }
                jr += cols;
            }
            ir += rows;
        }
    }
}

/// Rank-1-update loop over the packed panels: `acc += a_col * b_row` for
/// each depth step. `apanel` is `kb` groups of `MR` values, `bpanel` is
/// `kb` groups of `NR` values. The accumulator is built locally and
/// returned by value so LLVM promotes it to vector registers for the
/// whole depth loop.
#[inline(always)]
fn microkernel(apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let mut brow = [0.0f32; NR];
        brow.copy_from_slice(bv);
        for r in 0..MR {
            let a = av[r];
            for (dst, &b) in acc[r].iter_mut().zip(brow.iter()) {
                // Explicit fused multiply-add: Rust never contracts
                // `a * b + c` on its own, and without FMA the kernel is
                // capped at half the machine's flops.
                *dst = a.mul_add(b, *dst);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loops [`pack`] replaced, kept as its oracle: depth outside,
    /// whatever the strides. Packs `A[ic..ic+mb, pc..pc+kb]` into MR-tall
    /// row micro-panels: panel `r` holds rows `ic + r*MR ..`, laid out
    /// column-by-column with the `MR` row values contiguous (zero-padded
    /// past the matrix edge).
    #[allow(clippy::too_many_arguments)]
    fn pack_a(
        pa: &mut [f32],
        a: &[f32],
        rsa: usize,
        csa: usize,
        ic: usize,
        mb: usize,
        pc: usize,
        kb: usize,
    ) {
        let mut out = 0;
        let mut ir = 0;
        while ir < mb {
            let rows = MR.min(mb - ir);
            for p in 0..kb {
                let col = (pc + p) * csa;
                let base = (ic + ir) * rsa + col;
                for r in 0..rows {
                    pa[out + r] = a[base + r * rsa];
                }
                for r in rows..MR {
                    pa[out + r] = 0.0;
                }
                out += MR;
            }
            ir += rows;
        }
    }

    /// The other oracle. Packs `B[pc..pc+kb, jc..jc+nb]` into NR-wide
    /// column micro-panels: panel `j` holds columns `jc + j*NR ..`, laid
    /// out row-by-row with the `NR` column values contiguous (zero-padded
    /// past the matrix edge).
    #[allow(clippy::too_many_arguments)]
    fn pack_b(
        pb: &mut [f32],
        b: &[f32],
        rsb: usize,
        csb: usize,
        pc: usize,
        kb: usize,
        jc: usize,
        nb: usize,
    ) {
        let mut out = 0;
        let mut jr = 0;
        while jr < nb {
            let cols = NR.min(nb - jr);
            for p in 0..kb {
                let base = (pc + p) * rsb + (jc + jr) * csb;
                if csb == 1 {
                    // Unit column stride: a full-width panel row is a single
                    // contiguous copy (the common non-transposed case).
                    pb[out..out + cols].copy_from_slice(&b[base..base + cols]);
                } else {
                    for j in 0..cols {
                        pb[out + j] = b[base + j * csb];
                    }
                }
                for j in cols..NR {
                    pb[out + j] = 0.0;
                }
                out += NR;
            }
            jr += cols;
        }
    }

    #[test]
    fn pack_matches_the_depth_outside_loops_for_every_stride() {
        // Row-major, transposed and gapped operands; blocks that start
        // inside the matrix and end on ragged panels. Garbage in the
        // destination shows any slot `pack` fails to write.
        let mut rng = crate::Rng64::seed_from_u64(21);
        for case in 0..300 {
            let (rows, depth) = (1 + rng.below(3 * NR), 1 + rng.below(40));
            let (i0, p0) = (rng.below(rows), rng.below(depth));
            let (len, kb) = (1 + rng.below(rows - i0), 1 + rng.below(depth - p0));
            // Element `(p, i)` at `p * ps + i * is`.
            let (ps, is) = match case % 3 {
                0 => (1, depth),
                1 => (rows, 1),
                _ => (2, 2 * depth + 1),
            };
            let src = filled(depth * ps + rows * is);
            let mut got = vec![f32::NAN; len.next_multiple_of(NR) * kb];
            let mut want = got.clone();
            pack::<MR>(&mut got, &src, ps, is, (p0, kb), (i0, len));
            pack_a(&mut want, &src, is, ps, i0, len, p0, kb);
            let panels = len.next_multiple_of(MR) * kb;
            assert_eq!(got[..panels], want[..panels], "A {rows}x{depth} {ps}/{is}");
            got.fill(f32::NAN);
            want.fill(f32::NAN);
            pack::<NR>(&mut got, &src, ps, is, (p0, kb), (i0, len));
            pack_b(&mut want, &src, ps, is, p0, kb, i0, len);
            assert_eq!(got, want, "B {rows}x{depth} {ps}/{is}");
        }
    }

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn filled(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 + 11) % 23) as f32 * 0.25 - 2.5)
            .collect()
    }

    #[test]
    fn matches_reference_across_sizes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 16, 4),
            (9, 17, 33),
            (MR, NR, KC),
            (MR + 1, NR + 1, 3),
            (70, 40, 30),
        ] {
            let a = filled(m * k);
            let b = filled(k * n);
            let mut c = vec![0.0f32; m * n];
            gemm_strided(m, n, k, &a, k, 1, &b, n, 1, &mut c);
            let want = reference(m, n, k, &a, &b);
            for (got, want) in c.iter().zip(want.iter()) {
                assert!(
                    (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                    "{m}x{n}x{k}"
                );
            }
        }
    }

    #[test]
    fn transposed_strides_match_explicit_transpose() {
        let (m, n, k) = (5, 6, 7);
        let a = filled(m * k);
        let b = filled(k * n);
        // A stored transposed as [k, m].
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        // B stored transposed as [n, k].
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let want = reference(m, n, k, &a, &b);
        let mut c1 = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &at, 1, m, &b, n, 1, &mut c1);
        let mut c2 = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &a, k, 1, &bt, 1, k, &mut c2);
        for (got, want) in c1.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-4, "transposed A");
        }
        for (got, want) in c2.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-4, "transposed B");
        }
    }

    #[test]
    fn zero_k_clears_c() {
        let mut c = vec![3.0f32; 4];
        gemm_strided(2, 2, 0, &[], 1, 1, &[], 1, 1, &mut c);
        assert_eq!(c, vec![0.0; 4]);
    }
}
