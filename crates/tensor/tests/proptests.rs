//! Property-based tests for the tensor substrate.
//!
//! The adjoint identities here are the load-bearing invariants: every
//! backward kernel must satisfy `⟨F(x), y⟩ == ⟨x, Fᵀ(y)⟩` for its forward
//! kernel, which is what makes the distillation gradients (and hence the
//! Pipe-BD parity claims) trustworthy.

use pipebd_tensor::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, global_avg_pool, global_avg_pool_backward,
    reduce, Conv2dSpec, Tensor,
};
use proptest::prelude::*;

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

fn dot(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_transpose_identity(a in vecf(6), b in vecf(6)) {
        // (A B)ᵀ == Bᵀ Aᵀ
        let a = Tensor::from_vec(a, &[2, 3]).unwrap();
        let b = Tensor::from_vec(b, &[3, 2]).unwrap();
        let left = a.matmul(&b).unwrap().transpose2d().unwrap();
        let right = b
            .transpose2d()
            .unwrap()
            .matmul(&a.transpose2d().unwrap())
            .unwrap();
        prop_assert!(left.allclose(&right, 1e-4).unwrap());
    }

    #[test]
    fn matmul_distributes_over_addition(a in vecf(6), b in vecf(6), c in vecf(6)) {
        // A (B + C) == A B + A C
        let a = Tensor::from_vec(a, &[2, 3]).unwrap();
        let b = Tensor::from_vec(b, &[3, 2]).unwrap();
        let c = Tensor::from_vec(c, &[3, 2]).unwrap();
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.allclose(&right, 1e-4).unwrap());
    }

    #[test]
    fn conv_grad_input_is_adjoint(x in vecf(2 * 36), y in vecf(3 * 36)) {
        // ⟨conv(x), y⟩ == ⟨x, conv_grad_input(y)⟩
        let spec = Conv2dSpec::dense(2, 3, 3, 1, 1);
        let x = Tensor::from_vec(x, &[1, 2, 6, 6]).unwrap();
        let y = Tensor::from_vec(y, &[1, 3, 6, 6]).unwrap();
        let mut rng = pipebd_tensor::Rng64::seed_from_u64(5);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let fx = conv2d(&x, &w, spec).unwrap();
        let fty = conv2d_grad_input(&y, &w, spec, (6, 6)).unwrap();
        let lhs = dot(&fx, &y);
        let rhs = dot(&x, &fty);
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_grad_weight_is_adjoint_in_w(w in vecf(3 * 2 * 9), y in vecf(3 * 36)) {
        // ⟨conv_w(x), y⟩ == ⟨w, grad_weight(x, y)⟩ (conv is linear in w).
        let spec = Conv2dSpec::dense(2, 3, 3, 1, 1);
        let mut rng = pipebd_tensor::Rng64::seed_from_u64(6);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let w = Tensor::from_vec(w, &[3, 2, 3, 3]).unwrap();
        let y = Tensor::from_vec(y, &[1, 3, 6, 6]).unwrap();
        let fx = conv2d(&x, &w, spec).unwrap();
        let gw = conv2d_grad_weight(&x, &y, spec).unwrap();
        let lhs = dot(&fx, &y);
        let rhs = dot(&w, &gw);
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_is_linear_in_input(x1 in vecf(2 * 25), x2 in vecf(2 * 25)) {
        let spec = Conv2dSpec::dense(2, 2, 3, 1, 1);
        let mut rng = pipebd_tensor::Rng64::seed_from_u64(7);
        let w = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let x1 = Tensor::from_vec(x1, &[1, 2, 5, 5]).unwrap();
        let x2 = Tensor::from_vec(x2, &[1, 2, 5, 5]).unwrap();
        let sum = conv2d(&x1.add(&x2).unwrap(), &w, spec).unwrap();
        let parts = conv2d(&x1, &w, spec)
            .unwrap()
            .add(&conv2d(&x2, &w, spec).unwrap())
            .unwrap();
        prop_assert!(sum.allclose(&parts, 1e-3).unwrap());
    }

    #[test]
    fn avg_pool_is_adjoint(x in vecf(32), y in vecf(4)) {
        let x = Tensor::from_vec(x, &[2, 2, 2, 4]).unwrap();
        let y = Tensor::from_vec(y, &[2, 2]).unwrap();
        let fx = global_avg_pool(&x).unwrap();
        let fty = global_avg_pool_backward(&y, &[2, 2, 2, 4]).unwrap();
        let lhs = dot(&fx, &y);
        let rhs = dot(&x, &fty);
        prop_assert!((lhs - rhs).abs() < 1e-4 * (1.0 + lhs.abs()));
    }

    #[test]
    fn split_cat_roundtrip(rows in 1usize..12, cols in 1usize..6, parts in 1usize..5) {
        prop_assume!(rows >= parts);
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let shards = t.split_batch(parts).unwrap();
        prop_assert_eq!(shards.len(), parts);
        let total: usize = shards.iter().map(|s| s.dims()[0]).sum();
        prop_assert_eq!(total, rows);
        let back = Tensor::cat_batch(&shards).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let parent = pipebd_tensor::Rng64::seed_from_u64(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn axpy_matches_scale_add(alpha in -2.0f32..2.0, a in vecf(8), b in vecf(8)) {
        let mut x = Tensor::from_vec(a.clone(), &[8]).unwrap();
        let y = Tensor::from_vec(b.clone(), &[8]).unwrap();
        x.axpy(alpha, &y).unwrap();
        let mut scaled = y.clone();
        scaled.scale(alpha);
        let expect = Tensor::from_vec(a, &[8]).unwrap().add(&scaled).unwrap();
        prop_assert!(x.allclose(&expect, 1e-5).unwrap());
    }

    #[test]
    fn lane_sums_are_at_least_as_accurate_as_the_sequential_sum_they_replace(
        a in proptest::collection::vec(-100.0f32..100.0, 0..700),
        shift in -50.0f32..50.0,
    ) {
        // A sequential `f32` sum of `n` terms is only guaranteed
        // `(n - 1) u Σ|t|` against the exact sum (each term passes through
        // up to `n - 1` roundings). In lane order a term passes through at
        // most `⌈n/16⌉ + 3` — its lane's adds after the first, then the
        // four-level fold — so the lane sum must meet the smaller of the
        // two, and can never be held to less than the sum it replaced.
        let b: Vec<f32> = a.iter().map(|&x| x * 0.5 + shift).collect();
        let n = a.len();
        let roundings = n.saturating_sub(1).min(n.div_ceil(16) + 3) as f64;
        let u = f32::EPSILON as f64 / 2.0;
        let check = |got: f32, terms: Vec<f64>, term_roundings: f64| {
            let exact: f64 = terms.iter().sum();
            let mass: f64 = terms.iter().map(|t| t.abs()).sum();
            // `term_roundings`: roundings spent forming each term in `f32`.
            let bound = (roundings + term_roundings) * u * mass * 1.001;
            (got as f64 - exact).abs() <= bound
        };
        let f = |x: f32| x as f64;
        prop_assert!(check(reduce::sum(&a), a.iter().map(|&x| f(x)).collect(), 0.0));
        prop_assert!(check(
            reduce::dot(&a, &b),
            a.iter().zip(&b).map(|(&x, &y)| f(x) * f(y)).collect(),
            1.0
        ));
        prop_assert!(check(
            reduce::sq_dist(&a, &b),
            a.iter().zip(&b).map(|(&x, &y)| (f(x) - f(y)) * (f(x) - f(y))).collect(),
            3.0
        ));
        let t = Tensor::from_vec(a.clone(), &[n]).unwrap();
        prop_assert_eq!(t.sum().to_bits(), reduce::sum(&a).to_bits());
        prop_assert!(check(t.sq_norm(), a.iter().map(|&x| f(x) * f(x)).collect(), 1.0));
    }
}
