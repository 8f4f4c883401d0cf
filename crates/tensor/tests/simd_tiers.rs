//! The runtime-dispatch battery: every supported SIMD tier must compute
//! the same numbers, and misconfiguration must fail loudly.
//!
//! The blocked GEMM macrokernel, the depthwise stencil and the direct
//! dense convolutions are each compiled three times (scalar, FMA,
//! AVX-512) and selected per call from one probed-at-startup tier (or a
//! `PIPEBD_SIMD` override). Every tier
//! accumulates through single-rounding `f32::mul_add`, so supported tiers
//! are **bitwise** equal to each other — asserted here, not just "close"
//! — and match the naive oracle within FMA-contraction tolerance.
//!
//! Tier forcing mutates process-global dispatch state, so everything
//! that switches tiers lives in ONE `#[test]` (tests in a binary run
//! concurrently); the pure resolution checks are separate.

use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d_grad_epilogue, conv2d_grad_input_with, conv2d_grad_weight_fused,
    conv2d_grad_weight_with, conv2d_with, reduce, Activation, Conv2dSpec, Epilogue, KernelPolicy,
    Rng64, SimdTier, Tensor,
};
use pipebd_tensor::{resolve_simd_override, set_simd_tier, simd_tier};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_supported_tier_matches_the_oracle_and_each_other() {
    // On two lanes: the forced tier is what a pool's worker dispatches to
    // as well, and a thread with no pool installed runs every kernel alone.
    install(&ComputePool::new(2), tiers_match);
}

fn tiers_match() {
    let supported: Vec<SimdTier> = SimdTier::ALL
        .into_iter()
        .filter(|t| t.is_supported())
        .collect();
    // Scalar runs everywhere: one tier is always forceable, so this
    // test is never vacuous (and on an AVX-512 host it covers all 3).
    assert!(
        supported.contains(&SimdTier::Scalar),
        "scalar tier must be universally supported"
    );

    let mut rng = Rng64::seed_from_u64(2024);
    let shapes = [(1usize, 7usize, 1usize), (13, 5, 29), (64, 48, 96)];
    for (m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let oracle = a.matmul_with(&b, KernelPolicy::Naive).unwrap();

        let mut per_tier: Vec<(SimdTier, Tensor)> = Vec::new();
        for &tier in &supported {
            set_simd_tier(tier).unwrap();
            assert_eq!(simd_tier(), tier, "forced tier must win");
            per_tier.push((tier, a.matmul_with(&b, KernelPolicy::Blocked).unwrap()));
        }

        // Tier vs naive oracle: same per-element summation order, so
        // only FMA contraction separates them.
        let scale = 1.0 + oracle.data().iter().fold(0.0f32, |s, v| s.max(v.abs()));
        for (tier, out) in &per_tier {
            let diff = oracle.max_abs_diff(out).unwrap();
            assert!(
                diff <= 1e-4 * scale,
                "{tier} vs naive oracle: diff {diff} at {m}x{k}x{n}"
            );
        }

        // Tier vs tier: bitwise, because every tier fma-contracts.
        let (base_tier, base) = &per_tier[0];
        for (tier, out) in &per_tier[1..] {
            assert_eq!(
                base.max_abs_diff(out).unwrap(),
                0.0,
                "{tier} differs from {base_tier} at {m}x{k}x{n}"
            );
        }
    }

    // The depthwise stencil and the direct dense convolutions are the
    // other tier-compiled bodies. Planes wide enough for whole vector
    // steps with ragged tails, a strided depthwise for the generic loops;
    // dense channel counts that leave both register tiles partial, a
    // pointwise, a padding past `k - 1` and a 16-wide plane for the narrow
    // tile: forward, grad-input and grad-weight are bitwise equal on every
    // tier (each element is one mul_add chain; grad-weight's 16 partial
    // sums and their fold tree are fixed by the source).
    let depthwise =
        [(3, 1, 1), (5, 1, 2), (3, 2, 1)].map(|(k, s, p)| (Conv2dSpec::depthwise(6, k, s, p), 20));
    let dense = [
        (5, 7, 3, 1, 20),
        (3, 18, 5, 2, 20),
        (6, 6, 1, 0, 20),
        (5, 4, 3, 3, 20),
        (9, 5, 3, 1, 16),
    ]
    .map(|(ci, co, k, p, w)| (Conv2dSpec::dense(ci, co, k, 1, p), w));
    for (spec, w) in depthwise.into_iter().chain(dense) {
        let x = Tensor::randn(&[3, spec.in_channels, 33, w], &mut rng);
        let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
        let (oh, ow) = (spec.out_extent(33).unwrap(), spec.out_extent(w).unwrap());
        let dy = Tensor::randn(&[3, spec.out_channels, oh, ow], &mut rng);
        // The forward is finished by a bias and ReLU6 in the tiles.
        let bias = Tensor::randn(&[spec.out_channels], &mut rng);
        let epilogue = Epilogue {
            bias: Some(bias.data()),
            activation: Activation::Relu6,
        };
        let kernels = |policy| {
            let y = conv2d_with(&x, &wt, spec, epilogue, policy).unwrap();
            let dx = conv2d_grad_input_with(&dy, &wt, spec, (33, w), policy).unwrap();
            let dw = conv2d_grad_weight_with(&x, &dy, spec, policy).unwrap();
            [y, dx, dw]
        };
        let oracle = kernels(KernelPolicy::Naive);
        let mut base: Option<(SimdTier, [Tensor; 3])> = None;
        for &tier in &supported {
            set_simd_tier(tier).unwrap();
            let out = kernels(KernelPolicy::Blocked);
            for (i, (o, n)) in out.iter().zip(&oracle).enumerate() {
                let scale = 1.0 + n.data().iter().fold(0.0f32, |s, v| s.max(v.abs()));
                let diff = n.max_abs_diff(o).unwrap();
                assert!(diff <= 1e-4 * scale, "{tier} {spec:?} kernel {i}: {diff}");
            }
            // The weight gradient gated as the stencil reads `dy` is the
            // gate pass and then the plain kernel, bit for bit, on the tier.
            let y = &oracle[0];
            let gated = conv2d_grad_weight_fused(&x, &dy, y, Activation::Relu6, spec).unwrap();
            let (dz, db) = conv2d_grad_epilogue(&dy, y, Activation::Relu6).unwrap();
            let dw = conv2d_grad_weight_with(&x, &dz, spec, KernelPolicy::Blocked).unwrap();
            for (got, want) in [(&gated.0, &dw), (&gated.1, &db)] {
                assert_eq!(bits(got), bits(want), "{tier} {spec:?} gated grad weight");
            }
            match &base {
                None => base = Some((tier, out)),
                Some((base_tier, want)) => {
                    for (i, (o, b)) in out.iter().zip(want).enumerate() {
                        assert_eq!(
                            bits(o),
                            bits(b),
                            "{tier} differs from {base_tier}: {spec:?} kernel {i}"
                        );
                    }
                }
            }
        }
    }

    // The lane-ordered reductions are not tier-compiled at all: their
    // order is fixed by the source, so forcing a tier cannot move a bit.
    // Lengths with and without a ragged tail, and one a single lane step
    // does not fill.
    for n in [7usize, 16, 4099, 32 * 16 * 33] {
        let a = Tensor::randn(&[n], &mut rng);
        let b = Tensor::randn(&[n], &mut rng);
        let sums = || {
            [
                a.sum(),
                a.sq_norm(),
                reduce::sum(a.data()),
                reduce::dot(a.data(), b.data()),
                reduce::sq_dist(a.data(), b.data()),
            ]
            .map(f32::to_bits)
        };
        let mut base: Option<(SimdTier, [u32; 5])> = None;
        for &tier in &supported {
            set_simd_tier(tier).unwrap();
            let got = sums();
            let (base_tier, want) = base.get_or_insert((tier, got));
            assert_eq!(
                got, *want,
                "{tier} differs from {base_tier}: reductions n={n}"
            );
        }
    }

    // Leave the process on the probed default for any later test.
    set_simd_tier(SimdTier::probe()).unwrap();
}

#[test]
fn unknown_override_is_a_loud_error() {
    // No warn-and-fall-back: a typo'd PIPEBD_SIMD must never silently
    // benchmark the wrong tier.
    let err = resolve_simd_override(Some("avx1024")).unwrap_err();
    assert!(
        err.contains("avx1024"),
        "error must name the bad value: {err}"
    );
    assert!(resolve_simd_override(Some("")).is_err());
    assert!(resolve_simd_override(Some("native")).is_err());
}

#[test]
fn auto_and_absent_override_resolve_to_the_probe() {
    assert_eq!(resolve_simd_override(None).unwrap(), SimdTier::probe());
    assert_eq!(
        resolve_simd_override(Some("auto")).unwrap(),
        SimdTier::probe()
    );
    // The probe's answer is itself supported and runnable.
    assert!(SimdTier::probe().is_supported());
}

#[test]
fn unsupported_tier_is_rejected_not_downgraded() {
    // On hosts missing a tier, both the resolver and the setter must
    // refuse it (never fall back); on hosts that have everything, the
    // property is vacuous here and the resolver tests still pin the
    // unknown-name path.
    for tier in SimdTier::ALL {
        if !tier.is_supported() {
            assert!(set_simd_tier(tier).is_err(), "{tier} setter must refuse");
            assert!(
                resolve_simd_override(Some(&tier.to_string())).is_err(),
                "{tier} resolver must refuse"
            );
        }
    }
}
