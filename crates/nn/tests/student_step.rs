//! What one student step of blockwise distillation relies on:
//! [`Layer::backward_params`] leaves exactly the parameter gradients
//! [`Layer::backward`] leaves, ReLU's kept output decides every element as
//! a mask of its input did, a convolution that writes its activation
//! computes the bits of the convolution followed by the activation layer,
//! and the lane-ordered reductions inside a step (bias gradients,
//! architecture gradients, the loss value) give the same bits on every
//! SIMD tier and at every pool width.

use pipebd_nn::{
    mse_loss, zero_grad, Block, Conv2d, Layer, Linear, MixedOp, Mode, Relu, Relu6, Sequential, Sgd,
};
use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{set_simd_tier, Activation, Conv2dSpec, Rng64, SimdTier, Tensor};

fn seq(layers: Vec<Box<dyn Layer>>) -> Box<dyn Layer> {
    Box::new(Sequential::new(layers))
}

/// The compression student's block: depthwise finished by ReLU, pointwise
/// finished by ReLU6.
fn dsconv_block(c: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::depthwise(c, 3, 1, rng).with_activation(Activation::Relu)),
        Box::new(Conv2d::pointwise(c, c, rng).with_activation(Activation::Relu6)),
    ];
    Box::new(Block::new("ds", Sequential::new(layers)))
}

/// [`dsconv_block`] with each activation a layer of its own: from the same
/// `rng` state, the same parameters.
fn unfused_dsconv_block(c: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::depthwise(c, 3, 1, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::pointwise(c, c, rng)),
        Box::new(Relu6::new()),
    ];
    Box::new(Block::new("ds", Sequential::new(layers)))
}

/// The NAS student's block: a mixed op whose third candidate is itself a
/// sequence, then a ReLU.
fn supernet_block(c: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let candidates: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(c, c, 3, 1, 1, rng)),
        Box::new(Conv2d::new(c, c, 5, 1, 2, rng)),
        seq(vec![
            Box::new(Conv2d::depthwise(c, 3, 1, rng)),
            Box::new(Conv2d::pointwise(c, c, rng)),
        ]),
    ];
    let layers: Vec<Box<dyn Layer>> =
        vec![Box::new(MixedOp::new(candidates)), Box::new(Relu::new())];
    Box::new(Block::new("nas", Sequential::new(layers)))
}

fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.data().iter().map(|g| g.to_bits()).collect()));
    out
}

#[test]
fn backward_params_leaves_the_gradients_backward_leaves() {
    let mut rng = Rng64::seed_from_u64(17);
    let image = [3usize, 4, 9, 7];
    let cases: Vec<(&str, Box<dyn Layer>, Vec<usize>)> = vec![
        ("ds-conv block", dsconv_block(4, &mut rng), image.to_vec()),
        (
            "unfused ds-conv block",
            unfused_dsconv_block(4, &mut rng),
            image.to_vec(),
        ),
        (
            "supernet block",
            supernet_block(4, &mut rng),
            image.to_vec(),
        ),
        (
            "linear/relu stack",
            seq(vec![
                Box::new(Linear::new(6, 8, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(8, 3, &mut rng)),
            ]),
            vec![5, 6],
        ),
        (
            "one-layer sequence",
            seq(vec![Box::new(Conv2d::new(4, 2, 3, 2, 1, &mut rng))]),
            image.to_vec(),
        ),
        ("empty sequence", seq(Vec::new()), vec![2, 3]),
    ];
    for (name, layer, dims) in cases {
        let x = Tensor::randn(&dims, &mut rng);
        let (mut full, mut params_only) = (layer.clone(), layer);
        let y = full.forward(&x, Mode::Train).unwrap();
        let y2 = params_only.forward(&x, Mode::Train).unwrap();
        assert_eq!(y, y2, "{name}: clones disagree on the forward pass");
        // Two passes, so accumulation into a live gradient is compared too.
        for pass in 0..2 {
            if pass == 1 {
                full.forward(&x, Mode::Train).unwrap();
                params_only.forward(&x, Mode::Train).unwrap();
            }
            let dy = Tensor::randn(y.dims(), &mut rng);
            full.backward(&dy).unwrap();
            params_only.backward_params(&dy).unwrap();
            assert_eq!(
                grad_bits(full.as_mut()),
                grad_bits(params_only.as_mut()),
                "{name}: pass {pass}"
            );
        }
        // Either entry consumed the caches: with nothing cached, any layer
        // that needs one refuses (the empty sequence needs none).
        if name != "empty sequence" {
            let dy = Tensor::randn(y.dims(), &mut rng);
            assert!(full.backward(&dy).is_err(), "{name}: second backward");
            assert!(
                params_only.backward_params(&dy).is_err(),
                "{name}: second backward_params"
            );
        }
    }
}

/// What the layers did when they kept a `Vec<bool>` of the *input*:
/// mask, copy, clamp in place; copy `dy`, zero where the mask is off.
fn mask_formulation(
    x: &Tensor,
    dy: &Tensor,
    clamp: impl Fn(f32) -> f32,
    keep: impl Fn(f32) -> bool,
) -> (Tensor, Tensor) {
    let mask: Vec<bool> = x.data().iter().map(|&v| keep(v)).collect();
    let mut y = x.clone();
    for v in y.data_mut() {
        *v = clamp(*v);
    }
    let mut dx = dy.clone();
    for (v, &keep) in dx.data_mut().iter_mut().zip(mask.iter()) {
        if !keep {
            *v = 0.0;
        }
    }
    (y, dx)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn output_as_mask_equals_the_input_mask_bit_for_bit() {
    // Every value where "y decides as x does" could break: both zeros,
    // the ReLU6 knee and its neighbours, NaN, the infinities, denormals.
    let edge = [
        -0.0,
        0.0,
        6.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        5.999_999_5,
        6.000_000_5,
        -3.0,
        2.5,
        7.0,
    ];
    let x = Tensor::from_vec(edge.to_vec(), &[edge.len()]).unwrap();
    // A gradient that is itself awkward wherever it lands.
    let dy: Vec<f32> = (0..edge.len())
        .map(|i| [1.5, -0.0, f32::NAN, f32::NEG_INFINITY, 1e-41][i % 5])
        .collect();
    let dy = Tensor::from_vec(dy, &[edge.len()]).unwrap();

    let (y, dx) = mask_formulation(&x, &dy, |v| v.max(0.0), |v| v > 0.0);
    let mut relu = Relu::new();
    assert_eq!(bits(&relu.forward(&x, Mode::Eval).unwrap()), bits(&y));
    assert_eq!(bits(&relu.forward(&x, Mode::Train).unwrap()), bits(&y));
    assert_eq!(bits(&relu.backward(&dy).unwrap()), bits(&dx));

    let (y, dx) = mask_formulation(&x, &dy, |v| v.clamp(0.0, 6.0), |v| v > 0.0 && v < 6.0);
    let mut relu6 = Relu6::new();
    assert_eq!(bits(&relu6.forward(&x, Mode::Eval).unwrap()), bits(&y));
    assert_eq!(bits(&relu6.forward(&x, Mode::Train).unwrap()), bits(&y));
    assert_eq!(bits(&relu6.backward(&dy).unwrap()), bits(&dx));

    // The same values as a convolution's pre-activations — a 1 x 1 weight
    // of one and a zero bias pass `x` through (`-0.0` as `+0.0`) — through
    // each lowering's epilogue: the fused layer's bits, forward and
    // backward, are the convolution's followed by the activation layer's.
    let n = edge.len();
    let dy = dy.reshape(&[1, 1, 1, n]).unwrap();
    let lowerings = [
        ("direct", Conv2dSpec::dense(1, 1, 1, 1, 0)),
        ("stencil", Conv2dSpec::depthwise(1, 1, 1, 0)),
        ("gemm", Conv2dSpec::dense(1, 1, 1, 2, 0)),
    ];
    for (name, spec) in lowerings {
        // Each value followed by `stride - 1` columns the stride skips.
        let s = spec.stride;
        let xs = edge
            .iter()
            .flat_map(|&v| [v].into_iter().chain(vec![1.0; s - 1]));
        let x = Tensor::from_vec(xs.collect(), &[1, 1, 1, n * s]).unwrap();
        let mut conv = Conv2d::from_spec(spec, true, &mut Rng64::seed_from_u64(0));
        conv.visit_params(&mut |p| {
            if p.value.dims() != [1] {
                p.value.fill(1.0);
            }
        });
        let unfused: [Box<dyn Layer>; 2] = [Box::new(Relu::new()), Box::new(Relu6::new())];
        for (act, layer) in [Activation::Relu, Activation::Relu6]
            .into_iter()
            .zip(unfused)
        {
            let fused = conv.clone().with_activation(act);
            let composed = seq(vec![Box::new(conv.clone()), layer]);
            assert_eq!(
                layer_bits(&fused, &x, &dy),
                layer_bits(composed.as_ref(), &x, &dy),
                "{name} {act:?}"
            );
        }
    }
}

/// The bits of `layer` on `x` and `dy`: the output, the input gradient and
/// the parameter gradients `backward` leaves, and those `backward_params`
/// leaves.
fn layer_bits(layer: &dyn Layer, x: &Tensor, dy: &Tensor) -> Vec<Vec<u32>> {
    let (mut full, mut params_only) = (layer.clone_box(), layer.clone_box());
    let mut out = vec![bits(&full.forward(x, Mode::Eval).unwrap())];
    full.forward(x, Mode::Train).unwrap();
    out.push(bits(&full.backward(dy).unwrap()));
    out.extend(grad_bits(full.as_mut()));
    params_only.forward(x, Mode::Train).unwrap();
    params_only.backward_params(dy).unwrap();
    out.extend(grad_bits(params_only.as_mut()));
    out
}

#[test]
fn a_fused_block_trains_bitwise_as_its_unfused_twin() {
    // Convolutions that write their activations compute what a convolution
    // and then an activation layer did: every loss and parameter bit of
    // three steps, on a ragged plane and the workload's, serially and on
    // three lanes.
    for (h, w) in [(33, 20), (32, 32)] {
        let mut rng = Rng64::seed_from_u64(26);
        let x = Tensor::randn(&[3, 6, h, w], &mut rng);
        let target = Tensor::randn(&[3, 6, h, w], &mut rng);
        let fused = dsconv_block(6, &mut Rng64::seed_from_u64(1));
        let unfused = unfused_dsconv_block(6, &mut Rng64::seed_from_u64(1));
        for lanes in [1, 3] {
            let run = |block: &dyn Layer| {
                install(&ComputePool::new(lanes), || train_bits(block, &x, &target))
            };
            assert_eq!(
                run(fused.as_ref()),
                run(unfused.as_ref()),
                "{h}x{w}, {lanes} lanes"
            );
        }
    }
}

/// The bits a student step takes from a lane-ordered reduction: every
/// parameter gradient of a supernet block (conv bias gradients and the
/// architecture gradient's `⟨dy, y_k⟩` among them), and the loss.
fn step_bits(block: &dyn Layer, x: &Tensor, target: &Tensor) -> Vec<Vec<u32>> {
    let mut block = block.clone_box();
    let y = block.forward(x, Mode::Train).unwrap();
    let loss = mse_loss(&y, target).unwrap();
    block.backward_params(&loss.grad).unwrap();
    let mut bits = grad_bits(block.as_mut());
    bits.push(vec![loss.loss.to_bits()]);
    bits.push(loss.grad.data().iter().map(|g| g.to_bits()).collect());
    bits
}

// The only test of this binary that forces a tier (dispatch state is
// process-global); every tier computes the same bits, so the tests running
// beside it cannot tell.
#[test]
fn a_student_step_is_bitwise_on_every_tier_and_pool_width() {
    let mut rng = Rng64::seed_from_u64(29);
    let block = supernet_block(6, &mut rng);
    // 33 x 20 planes: lane steps with a ragged tail in every reduction.
    let x = Tensor::randn(&[3, 6, 33, 20], &mut rng);
    let target = Tensor::randn(&[3, 6, 33, 20], &mut rng);
    let want = install(&ComputePool::new(1), || {
        step_bits(block.as_ref(), &x, &target)
    });
    for tier in SimdTier::ALL.into_iter().filter(|t| t.is_supported()) {
        set_simd_tier(tier).unwrap();
        for width in 1..=4usize {
            let got = install(&ComputePool::new(width), || {
                step_bits(block.as_ref(), &x, &target)
            });
            assert_eq!(got, want, "{tier}, pool width {width}");
        }
    }
    set_simd_tier(SimdTier::probe()).unwrap();
}

/// Three optimizer steps of `block`; the bits of every loss and of every
/// parameter afterwards.
fn train_bits(block: &dyn Layer, x: &Tensor, target: &Tensor) -> Vec<Vec<u32>> {
    let mut block = block.clone_box();
    let mut sgd = Sgd::new(0.05, 0.9, 0.0);
    let mut out = Vec::new();
    for _ in 0..3 {
        let y = block.forward(x, Mode::Train).unwrap();
        let loss = mse_loss(&y, target).unwrap();
        block.backward_params(&loss.grad).unwrap();
        sgd.step(block.as_mut()).unwrap();
        zero_grad(block.as_mut());
        out.push(vec![loss.loss.to_bits()]);
    }
    block.visit_params(&mut |p| out.push(bits(&p.value)));
    out
}

#[test]
fn training_is_bitwise_with_and_without_a_buffer_recycler() {
    // Where a buffer's bytes live is all an `install` scope's recycler
    // changes. 8 x 32 x 32 planes: every activation is above its floor.
    let mut rng = Rng64::seed_from_u64(31);
    let blocks = [
        ("ds-conv block", dsconv_block(8, &mut rng)),
        ("supernet block", supernet_block(8, &mut rng)),
    ];
    for (name, block) in blocks {
        let x = Tensor::randn(&[4, 8, 32, 32], &mut rng);
        let target = Tensor::randn(&[4, 8, 32, 32], &mut rng);
        let plain = train_bits(block.as_ref(), &x, &target);
        let pool = ComputePool::new(1);
        let recycled = install(&pool, || train_bits(block.as_ref(), &x, &target));
        assert_eq!(recycled, plain, "{name}");
        let stats = pool.recycle_stats();
        assert!(
            stats.reused > stats.fresh,
            "{name}: steps 2 and 3 should run on step 1's buffers: {stats:?}"
        );
    }
}
