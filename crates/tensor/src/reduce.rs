//! Lane-ordered scalar reductions over `f32` slices.
//!
//! `iter().sum::<f32>()` is one dependent add per element — the compiler
//! may not reassociate floats — so a reduction over an activation is bound
//! by add latency, not by memory. These sums run 16 independent
//! chains instead: element `i` adds into lane `i % 16`, in index order,
//! and the lanes are added by `fold`'s fixed 8/4/2/1 tree, which the
//! grad-weight kernels (`stencil`, `direct`) use too. The order depends on
//! the slice length alone: plain Rust with no `#[target_feature]` and never
//! split across pool workers, so a result is bit-identical on every SIMD
//! tier and at every pool width.

const LANES: usize = 16;
/// Elements per block of [`zip_sum`]: a whole number of lane steps.
const BLOCK: usize = 256;

/// The fixed tree over 16 lanes: `8 + 8`, `4 + 4`, `2 + 2`, `1 + 1`.
#[inline(always)]
pub(crate) fn fold(a: &[f32]) -> f32 {
    let q: [f32; 4] = std::array::from_fn(|l| (a[l] + a[l + 8]) + (a[l + 4] + a[l + 12]));
    (q[0] + q[2]) + (q[1] + q[3])
}

/// `Σ f(a[i], b[i])` in lane order. Both slices have the same length.
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> f32 {
    assert_eq!(a.len(), b.len(), "lane_sum: slices differ in length");
    let mut acc = [0.0f32; LANES];
    lane_add(&mut acc, a, b, f);
    fold(&acc)
}

/// Adds `f(a[i], b[i])` into lane `i % LANES` of `acc`, in index order.
#[inline(always)]
fn lane_add(acc: &mut [f32; LANES], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    let (mut ca, mut cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += f(x[l], y[l]);
        }
    }
    for (l, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += f(x, y);
    }
}

/// Writes `out[i] = f(a[i], b[i])` and returns `Σ term(a[i], b[i])` in
/// lane order, reading `a` and `b` from memory once: block by block, the
/// elements are written and then summed while the block is still in L1 (in
/// one loop the lane sums would not stay in registers).
#[inline(always)]
pub(crate) fn zip_sum(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
    term: impl Fn(f32, f32) -> f32,
) -> f32 {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "zip_sum: slices differ in length"
    );
    let mut acc = [0.0f32; LANES];
    for ((x, y), o) in a
        .chunks(BLOCK)
        .zip(b.chunks(BLOCK))
        .zip(out.chunks_mut(BLOCK))
    {
        for ((o, &x), &y) in o.iter_mut().zip(x).zip(y) {
            *o = f(x, y);
        }
        lane_add(&mut acc, x, y, &term);
    }
    fold(&acc)
}

/// `Σ a[i]`.
pub fn sum(a: &[f32]) -> f32 {
    lane_sum(a, a, |x, _| x)
}

/// `Σ a[i]²` (one load per element, which `dot(a, a)` is not).
pub fn sq_norm(a: &[f32]) -> f32 {
    lane_sum(a, a, |x, _| x * x)
}

/// `Σ a[i] · b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| x * y)
}

/// `Σ (a[i] − b[i])²`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| (x - y) * (x - y))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The order the module documents, written out element by element.
    fn spelled_out(terms: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        for (i, &t) in terms.iter().enumerate() {
            acc[i % LANES] += t;
        }
        let q: [f32; 4] =
            std::array::from_fn(|l| (acc[l] + acc[l + 8]) + (acc[l + 4] + acc[l + 12]));
        (q[0] + q[2]) + (q[1] + q[3])
    }

    #[test]
    fn every_reduction_follows_the_documented_order() {
        let mut rng = crate::Rng64::seed_from_u64(5);
        for n in [0usize, 1, 15, 16, 17, 31, 32, 1000, 4099] {
            let a: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let terms = |f: fn(f32, f32) -> f32| -> Vec<f32> {
                a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()
            };
            assert_eq!(sum(&a).to_bits(), spelled_out(&a).to_bits(), "sum n={n}");
            assert_eq!(
                sq_norm(&a).to_bits(),
                dot(&a, &a).to_bits(),
                "sq_norm n={n}"
            );
            assert_eq!(
                dot(&a, &b).to_bits(),
                spelled_out(&terms(|x, y| x * y)).to_bits(),
                "dot n={n}"
            );
            assert_eq!(
                sq_dist(&a, &b).to_bits(),
                spelled_out(&terms(|x, y| (x - y) * (x - y))).to_bits(),
                "sq_dist n={n}"
            );
            let mut out = vec![f32::NAN; n];
            let total = zip_sum(&a, &b, &mut out, |x, y| x - y, |x, y| x * y);
            assert_eq!(out, terms(|x, y| x - y), "zip_sum's elements n={n}");
            assert_eq!(total.to_bits(), dot(&a, &b).to_bits(), "zip_sum n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn mismatched_lengths_panic() {
        dot(&[1.0, 2.0], &[1.0]);
    }
}
