//! The parallel determinism battery: pooled blocked kernels must be
//! **bitwise identical** to their serial runs.
//!
//! The parallel compute plane's contract (see `pipebd_tensor::parallel`)
//! is that every decomposition partitions the *output*, each element is
//! produced whole by one task running the unchanged serial kernel, and
//! no partial sums ever cross workers — so pool size must not change a
//! single bit. These properties sample GEMM shapes and convolution
//! geometries (strides, paddings, dense/grouped/depthwise, non-square
//! inputs) and compare every kernel under pools of {2, 3, 4} lanes against
//! the pinned-serial run (an installed size-1 pool). Equality is exact:
//! `max_abs_diff == 0`, not a tolerance.

use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d, conv2d_fused, conv2d_grad_input_with, conv2d_grad_weight_fused,
    conv2d_grad_weight_with, reduce, Activation, Conv2dSpec, Epilogue, KernelPolicy, Rng64, Tensor,
};
use proptest::prelude::*;

/// Runs `f` serially, then under each pooled width, and asserts the
/// pooled results are bit-identical to the serial one.
fn assert_pool_invariant(what: &str, f: impl Fn() -> Tensor) {
    assert_pool_invariant_ret(what, f);
}

/// Samples a spec covering dense, grouped, and depthwise convolutions.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_gemm_is_bitwise_serial(
        m in 1usize..80,
        k in 1usize..48,
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        // Shapes straddle the row-band (MR=8) and column-band (NR=32)
        // split thresholds, so small cases exercise the serial fallback
        // and large ones both parallel decompositions.
        let mut rng = Rng64::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        assert_pool_invariant("matmul", || {
            a.matmul_with(&b, KernelPolicy::Blocked).unwrap()
        });

        // The transposed-operand entries drive the column-band path
        // (tall outputs with few rows) and the accumulate path inside
        // the adjoint kernels.
        let at = Tensor::randn(&[k, m], &mut rng);
        assert_pool_invariant("matmul_t_a", || {
            at.matmul_t_a_with(&b, KernelPolicy::Blocked).unwrap()
        });
        let bt = Tensor::randn(&[n, k], &mut rng);
        assert_pool_invariant("matmul_b_t", || {
            a.matmul_b_t_with(&bt, KernelPolicy::Blocked).unwrap()
        });
    }

    #[test]
    fn parallel_conv_family_is_bitwise_serial(
        gsel in 0usize..3,
        cim in 1usize..4,
        com in 1usize..4,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        n in 1usize..3,
        h in 3usize..8,
        w in 3usize..8,
        seed in any::<u64>(),
    ) {
        let spec = spec_from(gsel, cim, com, k, stride, padding);
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let mut rng = Rng64::seed_from_u64(seed);
        let x = Tensor::randn(&[n, spec.in_channels, h, w], &mut rng);
        let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
        let y = assert_pool_invariant_ret("conv2d forward", || {
            conv2d(&x, &wt, spec).unwrap()
        });

        let dy = Tensor::randn(y.dims(), &mut rng);
        assert_pool_invariant("conv2d grad input", || {
            conv2d_grad_input_with(&dy, &wt, spec, (h, w), KernelPolicy::Blocked).unwrap()
        });
        assert_pool_invariant("conv2d grad weight", || {
            conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Blocked).unwrap()
        });
    }

    #[test]
    fn parallel_depthwise_is_bitwise_serial(
        channels in 1usize..5,
        k in 1usize..4,
        stride in 1usize..4,
        h in 3usize..7,
        w in 3usize..7,
        seed in any::<u64>(),
    ) {
        // Depthwise convs (groups == channels) split over the most
        // (batch, group) units per output element — the decomposition
        // with the highest task count relative to work.
        let spec = Conv2dSpec::depthwise(channels, k, stride, k / 2);
        let mut rng = Rng64::seed_from_u64(seed);
        let x = Tensor::randn(&[2, spec.in_channels, h, w], &mut rng);
        let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
        let y = assert_pool_invariant_ret("depthwise forward", || {
            conv2d(&x, &wt, spec).unwrap()
        });
        let dy = Tensor::randn(y.dims(), &mut rng);
        assert_pool_invariant("depthwise grad input", || {
            conv2d_grad_input_with(&dy, &wt, spec, (h, w), KernelPolicy::Blocked).unwrap()
        });
        assert_pool_invariant("depthwise grad weight", || {
            conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Blocked).unwrap()
        });
    }
}

#[test]
fn wide_depthwise_is_bitwise_serial_at_every_pool_width() {
    // The direct stencil inherits the blocked path's output partitioning:
    // planes wide enough for whole vector steps with ragged tails (33 and
    // 20 are no multiples of a step), 18 (batch, channel) units and 6
    // per-channel `dw` blocks split 1, 2 and 4 ways.
    let mut rng = Rng64::seed_from_u64(14);
    for (k, stride) in [(3, 1), (5, 1), (3, 2)] {
        let spec = Conv2dSpec::depthwise(6, k, stride, k / 2);
        let x = Tensor::randn(&[3, 6, 33, 20], &mut rng);
        let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
        let y =
            assert_pool_invariant_ret("wide depthwise forward", || conv2d(&x, &wt, spec).unwrap());
        let dy = Tensor::randn(y.dims(), &mut rng);
        assert_pool_invariant("wide depthwise grad input", || {
            conv2d_grad_input_with(&dy, &wt, spec, (33, 20), KernelPolicy::Blocked).unwrap()
        });
        assert_pool_invariant("wide depthwise grad weight", || {
            conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Blocked).unwrap()
        });
        // With an epilogue: the output finished in the tiles, and the gated
        // weight gradient whose bias sums each lane writes for its run of
        // channels.
        let bias = Tensor::randn(&[6], &mut rng);
        let epilogue = Epilogue {
            bias: Some(bias.data()),
            activation: Activation::Relu6,
        };
        let y = assert_pool_invariant_ret("wide depthwise fused forward", || {
            conv2d_fused(&x, &wt, spec, epilogue).unwrap()
        });
        let gated = || conv2d_grad_weight_fused(&x, &dy, &y, Activation::Relu6, spec).unwrap();
        assert_pool_invariant("gated grad weight", || gated().0);
        assert_pool_invariant("gated bias grad", || gated().1);
    }
}

/// [`assert_pool_invariant`], returning the serial result for reuse.
fn assert_pool_invariant_ret(what: &str, f: impl Fn() -> Tensor) -> Tensor {
    let serial = install(&ComputePool::new(1), &f);
    for width in [2usize, 3, 4] {
        let pooled = install(&ComputePool::new(width), &f);
        let diff = serial.max_abs_diff(&pooled).unwrap();
        assert!(
            diff == 0.0,
            "{what}: pool size {width} diverged from serial by {diff}"
        );
    }
    serial
}

#[test]
fn direct_dense_convs_are_bitwise_serial_at_every_pool_width() {
    // The direct kernels split as the lowering they replace did: forward
    // and grad-input over 3 images, grad-weight over `oc` bands. 18 output
    // channels band as 9 + 9, 6 + 6 + 6 and 5 + 5 + 5 + 3, and 7 as 4 + 3,
    // 3 + 3 + 1 and 2 + 2 + 2 + 1: bands that start and end inside a 4-`oc`
    // tile, so an element's lanes must not depend on the tile it rides in.
    // Rows of 20 leave every vector step ragged; rows of 16 take the
    // narrow forward tile.
    let mut rng = Rng64::seed_from_u64(15);
    for (ci, co, k, w) in [
        (5, 18, 3, 20),
        (3, 7, 5, 20),
        (16, 18, 1, 20),
        (9, 7, 3, 16),
    ] {
        let spec = Conv2dSpec::dense(ci, co, k, 1, k / 2);
        let x = Tensor::randn(&[3, ci, 33, w], &mut rng);
        let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
        let y = assert_pool_invariant_ret("direct forward", || conv2d(&x, &wt, spec).unwrap());
        let dy = Tensor::randn(y.dims(), &mut rng);
        assert_pool_invariant("direct grad input", || {
            conv2d_grad_input_with(&dy, &wt, spec, (33, w), KernelPolicy::Blocked).unwrap()
        });
        assert_pool_invariant("direct grad weight", || {
            conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Blocked).unwrap()
        });
    }
}

#[test]
fn lane_ordered_reductions_ignore_the_pool() {
    // A reduction is never split across workers — its lanes are partial
    // sums, and partial sums do not cross workers — so every installed
    // width, and no pool at all, give the same bits.
    let mut rng = Rng64::seed_from_u64(23);
    for n in [5usize, 4099, 32 * 16 * 33] {
        let a = Tensor::randn(&[n], &mut rng);
        let b = Tensor::randn(&[n], &mut rng);
        let sums = || {
            [
                a.sum(),
                a.sq_norm(),
                reduce::dot(a.data(), b.data()),
                reduce::sq_dist(a.data(), b.data()),
            ]
            .map(f32::to_bits)
        };
        let ambient = sums();
        for width in 1..=4usize {
            let pooled = install(&ComputePool::new(width), sums);
            assert_eq!(pooled, ambient, "pool width {width}, n={n}");
        }
    }
}

#[test]
fn repeated_pooled_runs_are_bit_stable() {
    // Determinism across *runs* at a fixed pool size: which lane takes
    // which task is nondeterministic, results must not be.
    let mut rng = Rng64::seed_from_u64(99);
    let a = Tensor::randn(&[64, 32], &mut rng);
    let b = Tensor::randn(&[32, 64], &mut rng);
    let pool = ComputePool::new(4);
    let first = install(&pool, || a.matmul_with(&b, KernelPolicy::Blocked).unwrap());
    for _ in 0..10 {
        let again = install(&pool, || a.matmul_with(&b, KernelPolicy::Blocked).unwrap());
        assert_eq!(first.max_abs_diff(&again).unwrap(), 0.0);
    }
}

#[test]
fn concurrent_callers_sharing_one_pool_match_their_serial_twins() {
    // What the threaded executor's device threads do: several top-level
    // kernel callers on one pool. A caller waiting on its own scope helps
    // by running whatever job it can steal — including another caller's
    // convolution unit, on this thread, while this thread's own kernel is
    // mid-flight. Single-unit convs (n = 1: the caller itself holds the
    // column scratch across a banded GEMM) are mixed with multi-unit ones
    // (n = 2: the units are the stealable jobs) so that re-entry happens.
    // The strided conv is lowered through the column matrix; its stride-1
    // twin runs the direct kernels, whose image ranges and `oc` bands are
    // stolen the same way while the thief's own padded scratch is out.
    const CALLERS: usize = 4;
    const ROUNDS: usize = 60;
    let spec = Conv2dSpec::dense(4, 12, 3, 2, 1);
    let direct = Conv2dSpec::dense(4, 12, 3, 1, 1);
    let pool = ComputePool::new(2);
    let start = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                let mut rng = Rng64::seed_from_u64(7 + caller as u64);
                let n = 1 + caller % 2;
                let x = Tensor::randn(&[n, spec.in_channels, 8, 8], &mut rng);
                let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
                let dy = Tensor::randn(&[n, spec.out_channels, 4, 4], &mut rng);
                let ddy = Tensor::randn(&[n, direct.out_channels, 8, 8], &mut rng);
                let a = Tensor::randn(&[40, 24], &mut rng);
                let b = Tensor::randn(&[24, 72], &mut rng);
                // The depthwise stencil's units are stolen the same way; its
                // padded plane is taken out of the thread's scratch cell for
                // the call, so a re-entrant call allocates its own.
                let dw = Conv2dSpec::depthwise(6, 3, 1, 1);
                let dwx = Tensor::randn(&[3, 6, 33, 20], &mut rng);
                let dww = Tensor::randn(&dw.weight_dims(), &mut rng);
                let dwdy = Tensor::randn(&[3, 6, 33, 20], &mut rng);
                let kernels = || {
                    [
                        conv2d(&dwx, &dww, dw).unwrap(),
                        conv2d_grad_input_with(&dwdy, &dww, dw, (33, 20), KernelPolicy::Blocked)
                            .unwrap(),
                        conv2d_grad_weight_with(&dwx, &dwdy, dw, KernelPolicy::Blocked).unwrap(),
                        conv2d(&x, &wt, spec).unwrap(),
                        conv2d_grad_input_with(&dy, &wt, spec, (8, 8), KernelPolicy::Blocked)
                            .unwrap(),
                        conv2d_grad_weight_with(&x, &dy, spec, KernelPolicy::Blocked).unwrap(),
                        conv2d(&x, &wt, direct).unwrap(),
                        conv2d_grad_input_with(&ddy, &wt, direct, (8, 8), KernelPolicy::Blocked)
                            .unwrap(),
                        conv2d_grad_weight_with(&x, &ddy, direct, KernelPolicy::Blocked).unwrap(),
                        a.matmul_with(&b, KernelPolicy::Blocked).unwrap(),
                    ]
                };
                let serial = install(&ComputePool::new(1), kernels);
                start.wait();
                for round in 0..ROUNDS {
                    let pooled = install(pool, kernels);
                    for (i, (p, s)) in pooled.iter().zip(&serial).enumerate() {
                        assert!(
                            p.max_abs_diff(s).unwrap() == 0.0,
                            "caller {caller} round {round} kernel {i} diverged from serial"
                        );
                    }
                }
            });
        }
    });
}
