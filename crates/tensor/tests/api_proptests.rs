//! No panic from the public kernel API: over small arbitrary convolution
//! specs and operand shapes — zero channels, kernels, strides, groups,
//! batches and extents included, and operands that do not fit the spec —
//! the forward convolution, both of its adjoints, the epilogue's backward
//! and the gated weight gradient, the spec's own queries, global average
//! pooling and its backward, and `matmul` with its two transposed forms
//! return `Ok` or `Err` (or a value) and never panic, on an installed pool
//! of 1 and of 2 lanes. Every `Ok` of the blocked path has an `Ok` from the
//! naive oracle (or, where there is no naive kernel, from the operation
//! spelled out here) that it matches within `kernel_equivalence.rs`'s
//! tolerance.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d_grad_epilogue, conv2d_grad_input_with, conv2d_grad_weight_fused,
    conv2d_grad_weight_with, conv2d_with, global_avg_pool, global_avg_pool_backward, Activation,
    Conv2dSpec, Epilogue, KernelPolicy, Rng64, Tensor, TensorError,
};
use proptest::prelude::*;

/// Runs `f`, failing the case with `what` if it panics.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what} panicked"))
}

/// Whether `blocked` matches `naive` within FMA-contraction tolerance: the
/// same dims, and every element within `1e-4` of the larger magnitude (a
/// NaN only where the oracle has one).
fn close(naive: &Tensor, blocked: &Tensor) -> bool {
    let scale = 1.0 + naive.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    naive.dims() == blocked.dims()
        && naive
            .data()
            .iter()
            .zip(blocked.data())
            .all(|(n, b)| (n.is_nan() && b.is_nan()) || (n - b).abs() <= 1e-4 * scale)
}

/// The blocked answer matches the oracle's: both refuse, or both succeed
/// and every tensor of the answer is [`close`].
fn agrees<const N: usize>(
    naive: &Result<[Tensor; N], TensorError>,
    blocked: &Result<[Tensor; N], TensorError>,
) -> bool {
    match (naive, blocked) {
        (Ok(naive), Ok(blocked)) => naive.iter().zip(blocked).all(|(n, b)| close(n, b)),
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// One tensor as a one-element answer for [`agrees`].
fn one(r: Result<Tensor, TensorError>) -> Result<[Tensor; 1], TensorError> {
    r.map(|t| [t])
}

/// Two tensors as an answer for [`agrees`].
fn two(r: Result<(Tensor, Tensor), TensorError>) -> Result<[Tensor; 2], TensorError> {
    r.map(|(a, b)| [a, b])
}

/// [`conv2d_grad_epilogue`] spelled out: `dz` is `dy` where `activation`
/// passes `y`, else 0, and the bias gradient sums `dz` per channel; refused
/// unless `dy` is rank 4 and `y` has its dims.
fn gated(dy: &Tensor, y: &Tensor, activation: Activation) -> Option<[Tensor; 2]> {
    let &[n, c, h, w] = dy.dims() else {
        return None;
    };
    if y.dims() != dy.dims() {
        return None;
    }
    let dz: Vec<f32> = dy
        .data()
        .iter()
        .zip(y.data())
        .map(|(&g, &v)| activation.gate(g, v))
        .collect();
    let mut db = vec![0.0f32; c];
    for (i, v) in dz.iter().enumerate() {
        db[i / (h * w) % c] += v;
    }
    let dz = Tensor::from_vec(dz, &[n, c, h, w]).ok()?;
    Some([dz, Tensor::from_vec(db, &[c]).ok()?])
}

/// [`global_avg_pool`] spelled out: each plane's sum times `1 / (h w)`.
/// An input with no rows or no columns has no mean.
fn pooled(x: &Tensor) -> Option<Tensor> {
    let &[n, c, h, w] = x.dims() else {
        return None;
    };
    if h == 0 || w == 0 {
        return None;
    }
    let inv = 1.0 / (h * w) as f32;
    let planes = (0..n * c).map(|p| x.data()[p * h * w..][..h * w].iter().sum::<f32>() * inv);
    Tensor::from_vec(planes.collect(), &[n, c]).ok()
}

/// [`global_avg_pool_backward`] spelled out: each plane filled with its
/// gradient times `1 / (h w)`.
fn spread(dy: &Tensor, dims: &[usize]) -> Option<Tensor> {
    let &[n, c, h, w] = dims else {
        return None;
    };
    if dy.dims() != [n, c] {
        return None;
    }
    let inv = 1.0 / (h * w) as f32;
    let dx = dy
        .data()
        .iter()
        .flat_map(|&g| std::iter::repeat(g * inv).take(h * w));
    Tensor::from_vec(dx.collect(), dims).ok()
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
        // The forward output the gated directions read, and its activation.
        let y = Tensor::randn(&nudged(dy_dims, off == 4, axis), &mut rng);
        let act = [Activation::None, Activation::Relu, Activation::Relu6][seed as usize % 3];

        // The spec's own queries: total, and the entry points' arithmetic
        // where a convolution accepts the spec.
        let (xh, xw) = (x_dims[2], x_dims[3]);
        let dims = no_panic("weight_dims", || spec.weight_dims());
        let flops = no_panic("flops_per_sample", || spec.flops_per_sample(xh, xw));
        let extent = no_panic("out_extent", || spec.out_extent(xh));
        prop_assert!(stride != 0 || extent.is_err(), "{spec:?} out_extent {extent:?}");
        let accepted = conv2d_with(&x, &wt, spec, Epilogue::NONE, KernelPolicy::Naive);
        if let Ok(out) = &accepted {
            let [_, co, oh, ow] = [out.dims()[0], out.dims()[1], out.dims()[2], out.dims()[3]];
            prop_assert_eq!(dims, w_dims, "{:?} weight_dims", spec);
            prop_assert_eq!(extent.ok(), Some(oh), "{:?} out_extent", spec);
            let macs = co * oh * ow * w_dims[1] * kernel * kernel;
            prop_assert_eq!(flops, 2 * macs as u64, "{:?} flops_per_sample", spec);
        }

        let directions = |policy| {
            let fwd = no_panic("conv2d", || conv2d_with(&x, &wt, spec, Epilogue::NONE, policy));
            let gi = no_panic("conv2d_grad_input", || {
                conv2d_grad_input_with(&dy, &wt, spec, (h, w), policy)
            });
            let gw = no_panic("conv2d_grad_weight", || {
                conv2d_grad_weight_with(&x, &dy, spec, policy)
            });
            [one(fwd), one(gi), one(gw)]
        };
        // The gated directions have no naive kernel: the oracle is the gate
        // spelled out, then the naive weight gradient of what it passes.
        let naive_gate = gated(&dy, &y, act);
        let naive_fused = match &naive_gate {
            Some([dz, db]) => one(conv2d_grad_weight_with(&x, dz, spec, KernelPolicy::Naive))
                .map(|[dw]| [dw, db.clone()]),
            None => Err(TensorError::invalid("gate refused")),
        };
        let naive_gate = naive_gate.ok_or_else(|| TensorError::invalid("gate refused"));
        let naive = directions(KernelPolicy::Naive);
        for lanes in [1, 2] {
            let pool = ComputePool::new(lanes);
            let (blocked, gate, fused) = install(&pool, || {
                let gate = no_panic("conv2d_grad_epilogue", || conv2d_grad_epilogue(&dy, &y, act));
                let fused = no_panic("conv2d_grad_weight_fused", || {
                    conv2d_grad_weight_fused(&x, &dy, &y, act, spec)
                });
                (directions(KernelPolicy::Blocked), two(gate), two(fused))
            });
            for (i, (n, b)) in naive.iter().zip(&blocked).enumerate() {
                prop_assert!(agrees(n, b), "{spec:?} x {x_dims:?} direction {i}, {lanes} lanes: naive {n:?}, blocked {b:?}");
            }
            prop_assert!(agrees(&naive_gate, &gate), "{spec:?} {act:?} epilogue backward, {lanes} lanes: {naive_gate:?} vs {gate:?}");
            prop_assert!(agrees(&naive_fused, &fused), "{spec:?} {act:?} gated grad weight, {lanes} lanes: {naive_fused:?} vs {fused:?}");
        }
    }

    /// Global average pooling and its backward over arbitrary small ranks
    /// and extents, empty planes and misfit gradients included.
    #[test]
    fn global_avg_pool_never_panics_and_agrees_with_the_oracle(
        dims in proptest::collection::vec(0usize..4, 0..6),
        misfit in (0usize..4, 0usize..4),
        seed in 0u64..1000,
    ) {
        let (off, axis) = misfit;
        let mut rng = Rng64::seed_from_u64(seed);
        let x = Tensor::randn(&dims, &mut rng);
        let pooled_dims = [dims.first().copied().unwrap_or(0), dims.get(1).copied().unwrap_or(0)];
        let mut dy_dims = pooled_dims.to_vec();
        if off == 1 {
            dy_dims[axis % 2] += 1;
        }
        let dy = Tensor::randn(&dy_dims, &mut rng);
        let naive = [pooled(&x), spread(&dy, &dims)]
            .map(|t| t.map(|t| [t]).ok_or_else(|| TensorError::invalid("refused")));
        for lanes in [1, 2] {
            let pool = ComputePool::new(lanes);
            let got = install(&pool, || {
                [
                    one(no_panic("global_avg_pool", || global_avg_pool(&x))),
                    one(no_panic("global_avg_pool_backward", || {
                        global_avg_pool_backward(&dy, &dims)
                    })),
                ]
            });
            for (i, (n, b)) in naive.iter().zip(&got).enumerate() {
                prop_assert!(agrees(n, b), "{dims:?}, dy {dy_dims:?}, direction {i}, {lanes} lanes: {n:?} vs {b:?}");
            }
        }
    }

    /// `matmul`, `matmul_t_a` and `matmul_b_t` over arbitrary small
    /// shapes, zero extents and mismatched inner dimensions included.
    #[test]
    fn matmul_never_panics_and_agrees_with_the_oracle(
        dims in (0usize..7, 0usize..7, 0usize..7),
        misfit in (0usize..4, 0usize..6),
        seed in 0u64..1000,
    ) {
        let ((m, k, n), (mismatch, rank)) = (dims, misfit);
        let mut rng = Rng64::seed_from_u64(seed);
        let mut matrix = |rows: usize, cols: usize| match rank {
            0 => Tensor::randn(&[rows], &mut rng),
            _ => Tensor::randn(&[rows, cols], &mut rng),
        };
        // `a b`, `at^T b` and `a bt^T`, each inner dimension off by one
        // when `mismatch` is 0.
        let (a, at) = (matrix(m, k), matrix(k, m));
        let inner = k + usize::from(mismatch == 0);
        let b = Tensor::randn(&[inner, n], &mut rng);
        let bt = Tensor::randn(&[n, inner], &mut rng);
        let products = |policy| {
            [
                one(no_panic("matmul", || a.matmul_with(&b, policy))),
                one(no_panic("matmul_t_a", || at.matmul_t_a_with(&b, policy))),
                one(no_panic("matmul_b_t", || a.matmul_b_t_with(&bt, policy))),
            ]
        };
        let naive = products(KernelPolicy::Naive);
        for lanes in [1, 2] {
            let pool = ComputePool::new(lanes);
            let blocked = install(&pool, || products(KernelPolicy::Blocked));
            for (i, (n_, b_)) in naive.iter().zip(&blocked).enumerate() {
                prop_assert!(agrees(n_, b_), "[{m}, {k}] x [{n}] product {i}, {lanes} lanes: naive {n_:?}, blocked {b_:?}");
            }
        }
    }
}
