//! No panic from the public kernel API: over small arbitrary convolution
//! specs and operand shapes — zero channels, kernels, strides, groups,
//! batches and extents included, and operands that do not fit the spec —
//! the forward convolution, both of its adjoints and `matmul` return `Ok`
//! or `Err` and never panic, on an installed pool of 1 and of 2 lanes.
//! Every `Ok` of the blocked path has an `Ok` from the naive oracle that it
//! matches within `kernel_equivalence.rs`'s tolerance.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d_grad_input_with, conv2d_grad_weight_with, conv2d_with, Conv2dSpec, Epilogue,
    KernelPolicy, Rng64, Tensor, TensorError,
};
use proptest::prelude::*;

/// Runs `f`, failing the case with `what` if it panics.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what} panicked"))
}

/// The blocked answer matches the oracle's: both refuse, or both succeed
/// and agree within FMA-contraction tolerance.
fn agrees(naive: &Result<Tensor, TensorError>, blocked: &Result<Tensor, TensorError>) -> bool {
    match (naive, blocked) {
        (Ok(naive), Ok(blocked)) => {
            let scale = 1.0 + naive.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            naive.dims() == blocked.dims()
                && naive.max_abs_diff(blocked).is_ok_and(|d| d <= 1e-4 * scale)
        }
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// `dims`, nudged off by one on axis `axis % 4` when `off` is set: an
/// operand that does not fit the spec.
fn nudged(mut dims: [usize; 4], off: bool, axis: usize) -> [usize; 4] {
    if off {
        dims[axis % 4] += 1;
    }
    dims
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The three convolution directions over arbitrary small specs.
    #[test]
    fn convolutions_never_panic_and_agree_with_the_oracle(
        channels in (0usize..6, 0usize..6, 0usize..4),
        steps in (0usize..4, 0usize..3, 0usize..5),
        extents in (0usize..3, 0usize..7, 0usize..7),
        misfit in (0usize..10, 0usize..12),
        seed in 0u64..1000,
    ) {
        let ((in_channels, out_channels, kernel), (stride, padding, gsel)) = (channels, steps);
        let ((n, h, w), (off, axis)) = (extents, misfit);
        let groups = [0, 1, 1, 2, in_channels][gsel];
        let spec = Conv2dSpec { in_channels, out_channels, kernel, stride, padding, groups };
        let mut rng = Rng64::seed_from_u64(seed);
        // `off` picks which operand, if any, does not fit.
        let x_dims = nudged([n, in_channels, h, w], off == 1, axis);
        let w_dims = nudged(
            [out_channels, in_channels / groups.max(1), kernel, kernel],
            off == 2,
            axis,
        );
        let out = |e: usize| (e + 2 * padding).saturating_sub(kernel) / stride.max(1) + 1;
        let dy_dims = nudged([n, out_channels, out(h), out(w)], off == 3, axis);
        let x = Tensor::randn(&x_dims, &mut rng);
        let wt = Tensor::randn(&w_dims, &mut rng);
        let dy = Tensor::randn(&dy_dims, &mut rng);

        let directions = |policy| {
            let fwd = no_panic("conv2d", || conv2d_with(&x, &wt, spec, Epilogue::NONE, policy));
            let gi = no_panic("conv2d_grad_input", || {
                conv2d_grad_input_with(&dy, &wt, spec, (h, w), policy)
            });
            let gw = no_panic("conv2d_grad_weight", || {
                conv2d_grad_weight_with(&x, &dy, spec, policy)
            });
            [fwd, gi, gw]
        };
        let naive = directions(KernelPolicy::Naive);
        for lanes in [1, 2] {
            let pool = ComputePool::new(lanes);
            let blocked = install(&pool, || directions(KernelPolicy::Blocked));
            for (i, (n, b)) in naive.iter().zip(&blocked).enumerate() {
                prop_assert!(agrees(n, b), "{spec:?} x {x_dims:?} direction {i}, {lanes} lanes: naive {n:?}, blocked {b:?}");
            }
        }
    }

    /// `matmul` over arbitrary small shapes, zero extents and mismatched
    /// inner dimensions included.
    #[test]
    fn matmul_never_panics_and_agrees_with_the_oracle(
        dims in (0usize..7, 0usize..7, 0usize..7),
        misfit in (0usize..4, 0usize..6),
        seed in 0u64..1000,
    ) {
        let ((m, k, n), (mismatch, rank)) = (dims, misfit);
        let mut rng = Rng64::seed_from_u64(seed);
        let a = match rank {
            0 => Tensor::randn(&[m], &mut rng),
            _ => Tensor::randn(&[m, k], &mut rng),
        };
        let b = Tensor::randn(&[k + usize::from(mismatch == 0), n], &mut rng);
        let naive = no_panic("matmul (naive)", || a.matmul_with(&b, KernelPolicy::Naive));
        for lanes in [1, 2] {
            let pool = ComputePool::new(lanes);
            let blocked = install(&pool, || {
                no_panic("matmul", || a.matmul_with(&b, KernelPolicy::Blocked))
            });
            prop_assert!(agrees(&naive, &blocked), "[{m}, {k}] x [{n}], {lanes} lanes: naive {naive:?}, blocked {blocked:?}");
        }
    }
}
