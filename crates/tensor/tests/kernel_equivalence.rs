//! Property tests pinning the blocked compute plane to the naive oracle.
//!
//! Every hot kernel exists twice (see `KernelPolicy`): the naive loops
//! and the blocked path — the direct kernels for stride-1 dense geometry,
//! the stencil for depthwise, and the naive loops themselves for the rest
//! (strided dense, grouped but not depthwise, and dense grad-input with
//! padding past `k - 1`). These properties sample convolution geometries
//! across strides, paddings, group counts (including depthwise), and
//! non-square inputs, and assert the blocked forward and both adjoints
//! match the oracle within tight tolerance — the two paths sum identical
//! products in the same per-element order, so they may differ only by FMA
//! rounding contraction (and, in the weight gradients, by the order of
//! their partial sums: the stencil's and the direct kernels' 16 lanes per
//! element, element `ox` in lane `ox % 16`, added by `reduce::fold`'s
//! 8/4/2/1 tree). Where the blocked path runs the oracle, they must agree
//! bit for bit.
//!
//! The `*_with` kernel variants are the only way to the oracle; the
//! blocked side runs under an installed pool of 1 and of 2 lanes, since a
//! thread nothing is installed on would only ever run it serially.
//!
//! Every convolution case also samples an epilogue — no bias or a random
//! one, and no activation, ReLU or ReLU6 — that both forwards apply as
//! they write, and checks the weight gradient through its gate.
//!
//! The property tests sample; [`executed_geometries_match_naive`] is the
//! deterministic list of what the executors actually run.

use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d_grad_epilogue, conv2d_grad_input_with, conv2d_grad_weight_fused,
    conv2d_grad_weight_with, conv2d_with, Activation, Conv2dSpec, Epilogue, KernelPolicy, Rng64,
    Tensor,
};
use proptest::prelude::*;

/// Asserts the blocked result matches the oracle within FMA-contraction
/// tolerance.
fn assert_close(naive: &Tensor, blocked: &Tensor, what: &str) {
    assert_eq!(naive.dims(), blocked.dims(), "{what} dims");
    let scale = 1.0 + naive.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let diff = naive.max_abs_diff(blocked).unwrap();
    assert!(
        diff <= 1e-4 * scale,
        "{what}: max diff {diff} (scale {scale})"
    );
}

/// Builds a spec from sampled raw components; `groups` is 1 (dense), 2
/// (grouped), or `in_channels` (depthwise) depending on the selector.
fn spec_from(
    gsel: usize,
    cim: usize,
    com: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Conv2dSpec {
    let groups = match gsel {
        0 => 1,
        1 => 2,
        // Depthwise: one channel per group on both sides.
        _ => 2 * cim,
    };
    let (in_channels, out_channels) = if gsel == 2 {
        (2 * cim, 2 * cim)
    } else {
        (groups * cim, groups * com)
    };
    Conv2dSpec {
        in_channels,
        out_channels,
        kernel: k,
        stride,
        padding,
        groups,
    }
}

/// Runs `check` on a thread with a 1-lane pool installed, then a 2-lane one.
fn under_pools(check: impl Fn(&str)) {
    for lanes in [1, 2] {
        install(&ComputePool::new(lanes), || {
            check(&format!("{lanes} lanes"))
        });
    }
}

/// The epilogue axis: selector `e` picks the activation (`e % 3`) and
/// whether there is a bias (`e >= 3`).
fn epilogue_from(e: usize, bias: &Tensor) -> Epilogue<'_> {
    Epilogue {
        bias: (e >= 3).then(|| bias.data()),
        activation: [Activation::None, Activation::Relu, Activation::Relu6][e % 3],
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Whether the blocked plane runs the oracle for `spec`'s forward and
/// weight gradient, and for its grad-input: geometry with neither a
/// stencil (depthwise) nor a direct kernel (stride-1 dense, and for
/// grad-input padding no wider than `k - 1`).
fn runs_the_oracle(spec: &Conv2dSpec) -> (bool, bool) {
    let depthwise = spec.in_channels == spec.groups && spec.out_channels == spec.groups;
    let slow = !depthwise && (spec.groups != 1 || spec.stride != 1);
    (slow, slow || (!depthwise && spec.padding >= spec.kernel))
}

/// [`assert_close`], or bitwise equality where `oracle` says the blocked
/// side ran the naive kernel itself.
fn assert_matches(oracle: bool, naive: &Tensor, blocked: &Tensor, what: &str) {
    if oracle {
        assert_eq!(bits(naive), bits(blocked), "{what} (oracle)");
    } else {
        assert_close(naive, blocked, what);
    }
}

/// Runs all three kernels under both policies and cross-checks them, the
/// forward finished by epilogue `e` ([`epilogue_from`]) — and the weight
/// gradient through that epilogue's gate against the gate pass followed by
/// the oracle.
fn check_all(spec: Conv2dSpec, e: usize, n: usize, h: usize, w: usize, seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let x = Tensor::randn(&[n, spec.in_channels, h, w], &mut rng);
    let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
    let bias = Tensor::randn(&[spec.out_channels], &mut rng);
    let epilogue = epilogue_from(e, &bias);
    let naive = conv2d_with(&x, &wt, spec, epilogue, KernelPolicy::Naive).unwrap();
    let dy = Tensor::randn(naive.dims(), &mut rng);
    let ni = conv2d_grad_input_with(&dy, &wt, spec, (h, w), KernelPolicy::Naive).unwrap();
    let nw = conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Naive).unwrap();
    // Both gates read the oracle's output: an element within rounding of a
    // clamp falls on the same side for both.
    let act = epilogue.activation;
    let (dz, ndb) = conv2d_grad_epilogue(&dy, &naive, act).unwrap();
    let nzw = conv2d_grad_weight_with(&x, &dz, spec, KernelPolicy::Naive).unwrap();
    let (oracle, oracle_input) = runs_the_oracle(&spec);
    under_pools(|lanes| {
        let blocked = conv2d_with(&x, &wt, spec, epilogue, KernelPolicy::Blocked).unwrap();
        assert_matches(
            oracle,
            &naive,
            &blocked,
            &format!("{spec:?} {epilogue:?} forward, {lanes}"),
        );
        let bi = conv2d_grad_input_with(&dy, &wt, spec, (h, w), KernelPolicy::Blocked).unwrap();
        let what = format!("{spec:?} grad input, {lanes}");
        assert_matches(oracle_input, &ni, &bi, &what);
        let bw = conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Blocked).unwrap();
        assert_matches(oracle, &nw, &bw, &format!("{spec:?} grad weight, {lanes}"));
        let (bzw, bdb) = conv2d_grad_weight_fused(&x, &dy, &naive, act, spec).unwrap();
        assert_matches(
            oracle,
            &nzw,
            &bzw,
            &format!("{spec:?} {act:?} gated grad weight, {lanes}"),
        );
        assert_eq!(
            bits(&bdb),
            bits(&ndb),
            "{spec:?} {act:?} bias grad, {lanes}"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conv_kernels_blocked_match_naive(
        gsel in 0usize..3,
        cim in 1usize..4,
        com in 1usize..4,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        n in 1usize..3,
        h in 3usize..8,
        w in 3usize..8,
        esel in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Non-square inputs arise whenever h != w; groups cover dense,
        // grouped, and depthwise convolutions.
        let spec = spec_from(gsel, cim, com, k, stride, padding);
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        check_all(spec, esel, n, h, w, seed);
    }

    #[test]
    fn strided_padded_depthwise_blocked_matches_naive(
        channels in 1usize..5,
        k in 1usize..4,
        stride in 1usize..4,
        h in 3usize..7,
        w in 3usize..7,
        esel in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Dedicated depthwise coverage (groups == channels) with "same"
        // padding — the DS-Conv building block of the compression
        // workload.
        let spec = Conv2dSpec::depthwise(channels, k, stride, k / 2);
        check_all(spec, esel, 2, h, w, seed);
    }

    #[test]
    fn wide_depthwise_stencil_matches_naive(
        channels in 1usize..4,
        ksel in 0usize..3,
        stride in 1usize..4,
        psel in 0usize..6,
        n in 1usize..4,
        h in 3usize..41,
        wsel in 1usize..38,
        esel in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Planes wide enough to fill whole vector chunks with ragged
        // tails, padding past `k / 2` (up to `k`: every row has absent
        // taps) and planes narrower than the kernel — every branch of the
        // direct stencil, all three kernels. `w` is `3..41` and never `h`.
        let k = [1, 3, 5][ksel];
        let padding = psel % (k + 1);
        let w = 3 + (h - 3 + wsel) % 38;
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let spec = Conv2dSpec::depthwise(channels, k, stride, padding);
        check_all(spec, esel, n, h, w, seed);
    }

    #[test]
    fn direct_dense_kernels_match_naive(
        ksel in 0usize..4,
        psel in 0usize..8,
        cisel in 0usize..5,
        cosel in 0usize..5,
        n in 1usize..4,
        h in 3usize..41,
        wsel in 1usize..38,
        esel in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Stride-1 dense geometry, `k x k` and pointwise — every branch of
        // the direct kernels: channel counts that leave the 8-row forward
        // tile and the 4 x 4 grad-weight tile partial (3 is every model's
        // block 0), rows that leave the 32- and 16-wide steps ragged or
        // never fill one, padding past `k - 1` (grad-input runs the
        // oracle) and planes narrower than the kernel. `w` is never `h`.
        let k = [1, 3, 5, 7][ksel];
        let padding = psel % (k + 1);
        let w = 3 + (h - 3 + wsel) % 38;
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let (cig, cog) = ([1, 3, 4, 5, 16][cisel], [1, 4, 7, 8, 18][cosel]);
        check_all(Conv2dSpec::dense(cig, cog, k, 1, padding), esel, n, h, w, seed);
    }

    #[test]
    fn matmul_family_blocked_matches_naive(
        m in 1usize..41,
        k in 1usize..41,
        n in 1usize..41,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let at = Tensor::randn(&[k, m], &mut rng);
        let bt = Tensor::randn(&[n, k], &mut rng);
        let ab = a.matmul_with(&b, KernelPolicy::Naive).unwrap();
        let atb = at.matmul_t_a_with(&b, KernelPolicy::Naive).unwrap();
        let abt = a.matmul_b_t_with(&bt, KernelPolicy::Naive).unwrap();
        under_pools(|lanes| {
            let blocked = a.matmul_with(&b, KernelPolicy::Blocked).unwrap();
            assert_close(&ab, &blocked, &format!("matmul, {lanes}"));
            let blocked = at.matmul_t_a_with(&b, KernelPolicy::Blocked).unwrap();
            assert_close(&atb, &blocked, &format!("matmul_t_a, {lanes}"));
            let blocked = a.matmul_b_t_with(&bt, KernelPolicy::Blocked).unwrap();
            assert_close(&abt, &blocked, &format!("matmul_b_t, {lanes}"));
        });
    }
}

#[test]
fn deep_direct_chains_match_naive() {
    // `ckk > 256`: the depth at which the GEMM lowering split every
    // forward chain into `KC`-deep partial sums. The direct kernels run
    // one chain per element whatever its depth.
    for (channels, k, h, w) in [(32, 3, 16, 16), (16, 5, 9, 35), (32, 5, 6, 16)] {
        let spec = Conv2dSpec::dense(channels, channels, k, 1, k / 2);
        assert!(channels * k * k > 256);
        check_all(spec, 4, 2, h, w, 77);
    }
}

#[test]
fn executed_geometries_match_naive() {
    // Exactly the convolutions `models::mini` builds — dense 3x3 and 5x5,
    // depthwise 3x3 and pointwise, all stride 1 with "same" padding, 3
    // channels into block 0 and the model width after it — at the shapes
    // that are executed: the conformance matrix's (6 channels, 8 x 8, and
    // every shard its batches of 8 and 12 split into) and the benchmark's
    // (`tr_compress`'s `[32, 16, 32, 32]`, `ckpt_recover`'s
    // `[8, 32, 16, 16]` and a `split_nas` shard's `[8, 16, 32, 32]`) —
    // each with its bias and finished by ReLU, as the models' blocks are
    // (epilogue 4).
    let geometries = |c: usize| {
        [3, c].into_iter().flat_map(move |in_c| {
            [
                Conv2dSpec::dense(in_c, c, 3, 1, 1),
                Conv2dSpec::dense(in_c, c, 5, 1, 2),
                Conv2dSpec::depthwise(in_c, 3, 1, 1),
                Conv2dSpec::dense(in_c, c, 1, 1, 0),
            ]
        })
    };
    for batch in [3, 4, 8, 12] {
        for spec in geometries(6) {
            check_all(spec, 4, batch, 8, 8, 23);
        }
    }
    for (c, batch, side) in [(16, 32, 32), (32, 8, 16), (16, 8, 32)] {
        for spec in geometries(c) {
            check_all(spec, 4, batch, side, side, 23);
        }
    }
}
