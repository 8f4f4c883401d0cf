//! The order the direct grad-weight documents, written out element by
//! element: `dW[oc, ic, ky, kx]` adds the product at output element `ox`
//! of a row into lane `ox % 16`, rows and then batches in order, a padded
//! tap reading an exact zero, and folds the lanes by the 8/4/2/1 tree. The
//! kernel must match bit for bit, whatever its tile, pool width and tier.

use crate::parallel::{install, ComputePool};
use crate::{conv2d_grad_weight, set_simd_tier, simd_tier, Conv2dSpec, Rng64, SimdTier, Tensor};

/// `dW` of `spec` from `x[n, cin, h, w]` and `dy[n, cout, oh, ow]`.
fn spelled_out(spec: &Conv2dSpec, x: &Tensor, dy: &Tensor) -> Vec<f32> {
    let [n, cin, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
    let [_, cout, oh, ow] = [dy.dims()[0], dy.dims()[1], dy.dims()[2], dy.dims()[3]];
    let (k, pad) = (spec.kernel, spec.padding);
    // The padded input: zero outside the plane.
    let at = |b: usize, ic: usize, iy: usize, ix: usize| match (
        iy.checked_sub(pad),
        ix.checked_sub(pad),
    ) {
        (Some(iy), Some(ix)) if iy < h && ix < w => x.data()[((b * cin + ic) * h + iy) * w + ix],
        _ => 0.0,
    };
    let mut dw = Vec::new();
    for (oc, ic, ky, kx) in (0..cout)
        .flat_map(|oc| (0..cin).flat_map(move |ic| (0..k * k).map(move |t| (oc, ic, t / k, t % k))))
    {
        let mut lanes = [0.0f32; 16];
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let d = dy.data()[((b * cout + oc) * oh + oy) * ow + ox];
                    lanes[ox % 16] = d.mul_add(at(b, ic, oy + ky, ox + kx), lanes[ox % 16]);
                }
            }
        }
        let q: [f32; 4] =
            std::array::from_fn(|l| (lanes[l] + lanes[l + 8]) + (lanes[l + 4] + lanes[l + 12]));
        dw.push((q[0] + q[2]) + (q[1] + q[3]));
    }
    dw
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Checks `spec` over `n` images of `h x w` on every tier in `tiers`, on
/// one lane and on two (which split `cout` into bands).
fn check(spec: Conv2dSpec, n: usize, (h, w): (usize, usize), tiers: &[SimdTier], rng: &mut Rng64) {
    let (oh, ow) = (spec.out_extent(h).unwrap(), spec.out_extent(w).unwrap());
    let x = Tensor::randn(&[n, spec.in_channels, h, w], rng);
    let dy = Tensor::randn(&[n, spec.out_channels, oh, ow], rng);
    let want = bits(&spelled_out(&spec, &x, &dy));
    for &tier in tiers {
        set_simd_tier(tier).unwrap();
        for lanes in [1, 2] {
            let got = install(&ComputePool::new(lanes), || {
                conv2d_grad_weight(&x, &dy, spec).unwrap()
            });
            assert_eq!(
                bits(got.data()),
                want,
                "{spec:?}, {n} x {h}x{w} -> {oh}x{ow}, {tier}, {lanes} lanes"
            );
        }
    }
}

#[test]
fn grad_weight_follows_the_documented_chain() {
    let tiers: Vec<SimdTier> = SimdTier::ALL
        .into_iter()
        .filter(|t| t.is_supported())
        .collect();
    let (was, mut rng) = (simd_tier(), Rng64::seed_from_u64(37));
    for k in [1usize, 3, 5, 7] {
        for pad in 0..k {
            // Widths below one lane step, at it, ragged past one and two
            // steps; the input is as wide as each needs (skipped when the
            // padding alone is wider). Two rows, or, at 17 wide and
            // k <= 3, a tall plane.
            for ow in [1, 15, 16, 17, 31, 32, 33] {
                let Some(w) = (ow + k - 1).checked_sub(2 * pad).filter(|&w| w > 0) else {
                    continue;
                };
                let rows = if ow == 17 && k <= 3 { 35 } else { 2 };
                let h = (rows + k - 1).saturating_sub(2 * pad).max(1);
                // Channel counts no tile divides, taken in turn.
                let (cin, cout) = [(3, 5), (5, 9)][(k + pad + ow) % 2];
                check(
                    Conv2dSpec::dense(cin, cout, k, 1, pad),
                    2,
                    (h, w),
                    &tiers,
                    &mut rng,
                );
            }
        }
    }
    // Three images whose padded planes fit where the sums between images
    // would be kept, and three that do not.
    for side in [8, 40] {
        check(
            Conv2dSpec::dense(5, 6, 3, 1, 1),
            3,
            (side, side),
            &tiers,
            &mut rng,
        );
    }
    set_simd_tier(was).unwrap();
}
