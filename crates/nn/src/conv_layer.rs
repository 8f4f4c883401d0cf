use pipebd_tensor::{
    conv2d_fused, conv2d_grad_epilogue, conv2d_grad_input, conv2d_grad_weight,
    conv2d_grad_weight_fused, Activation, Conv2dSpec, Epilogue, Result, Rng64, Tensor, TensorError,
};

use crate::{Layer, Mode, Param};

/// A grouped 2-D convolution layer with optional per-channel bias and an
/// [`Activation`] — the kernels write the finished `act(conv + b)`.
///
/// Covers dense convolutions (`groups == 1`), depthwise convolutions
/// (`groups == channels`), and pointwise 1×1 convolutions. Weight layout is
/// `[out_channels, in_channels / groups, k, k]`.
///
/// Backward gates `dy` by the kept output and sums the bias gradient in the
/// same pass that reads `dy` (`pipebd_tensor::conv2d_grad_epilogue`): under
/// [`Layer::backward_params`], inside the weight gradient's own read where
/// the lowering allows.
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Option<Param>,
    activation: Activation,
    cache: Option<ConvCache>,
}

/// Handles to the last train-mode input and, when an activation gates the
/// gradient, output (shared with the caller, not copied), held until a
/// backward pass consumes them.
#[derive(Debug, Clone)]
struct ConvCache {
    input: Tensor,
    output: Option<Tensor>,
}

impl Conv2d {
    /// Creates a dense convolution with Kaiming-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng64,
    ) -> Self {
        Conv2d::from_spec(
            Conv2dSpec::dense(in_channels, out_channels, kernel, stride, padding),
            true,
            rng,
        )
    }

    /// Creates a depthwise convolution (`groups == channels`).
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, rng: &mut Rng64) -> Self {
        Conv2d::from_spec(
            Conv2dSpec::depthwise(channels, kernel, stride, kernel / 2),
            true,
            rng,
        )
    }

    /// Creates a pointwise 1×1 convolution.
    pub fn pointwise(in_channels: usize, out_channels: usize, rng: &mut Rng64) -> Self {
        Conv2d::from_spec(
            Conv2dSpec::dense(in_channels, out_channels, 1, 1, 0),
            true,
            rng,
        )
    }

    /// Creates a convolution from an explicit [`Conv2dSpec`].
    pub fn from_spec(spec: Conv2dSpec, bias: bool, rng: &mut Rng64) -> Self {
        let fan_in = (spec.in_channels / spec.groups) * spec.kernel * spec.kernel;
        let weight = Param::weight(Tensor::kaiming(&spec.weight_dims(), fan_in, rng));
        let bias = bias.then(|| Param::weight(Tensor::zeros(&[spec.out_channels])));
        Conv2d {
            spec,
            weight,
            bias,
            activation: Activation::None,
            cache: None,
        }
    }

    /// The same convolution writing `activation(conv + b)` (builder style).
    pub fn with_activation(self, activation: Activation) -> Self {
        Conv2d { activation, ..self }
    }

    /// The layer's convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    fn take_cache(&mut self) -> Result<ConvCache> {
        self.cache
            .take()
            .ok_or_else(|| TensorError::invalid("conv2d: backward before forward"))
    }

    /// Whether backward has an epilogue to undo: a bias to differentiate
    /// or an activation to gate through.
    fn has_epilogue(&self) -> bool {
        self.bias.is_some() || self.activation != Activation::None
    }

    fn accumulate_bias_grad(&mut self, db: Tensor) -> Result<()> {
        match &mut self.bias {
            Some(b) => b.accumulate_grad(db),
            None => Ok(()),
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let epilogue = Epilogue {
            bias: self.bias.as_ref().map(|b| b.value.data()),
            activation: self.activation,
        };
        let y = conv2d_fused(x, &self.weight.value, self.spec, epilogue)?;
        if mode == Mode::Train {
            let output = (self.activation != Activation::None).then(|| y.clone());
            self.cache = Some(ConvCache {
                input: x.clone(),
                output,
            });
        }
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let ConvCache { input: x, output } = self.take_cache()?;
        let hw = (x.dims()[2], x.dims()[3]);
        let dz = if self.has_epilogue() {
            // `y` is read only where the activation gates.
            let y = output.as_ref().unwrap_or(dy);
            let (dz, db) = conv2d_grad_epilogue(dy, y, self.activation)?;
            self.accumulate_bias_grad(db)?;
            dz
        } else {
            dy.clone()
        };
        // Each cached activation is let go of as soon as it is read: `dx`
        // is allocated after both are home, and the recycler reissues one.
        drop(output);
        let dw = conv2d_grad_weight(&x, &dz, self.spec)?;
        drop(x);
        self.weight.accumulate_grad(dw)?;
        conv2d_grad_input(&dz, &self.weight.value, self.spec, hw)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        let ConvCache { input: x, output } = self.take_cache()?;
        if !self.has_epilogue() {
            return self
                .weight
                .accumulate_grad(conv2d_grad_weight(&x, dy, self.spec)?);
        }
        // As in `backward`, `y` is read only where the activation gates.
        let y = output.as_ref().unwrap_or(dy);
        let (dw, db) = conv2d_grad_weight_fused(&x, dy, y, self.activation, self.spec)?;
        self.weight.accumulate_grad(dw)?;
        self.accumulate_bias_grad(db)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_tensor::parallel::{install, ComputePool};
    use pipebd_tensor::reduce;

    /// The bias gradient's documented order, element by element: channel
    /// `c` adds its planes of `dz` in batch order from `0.0`; a plane puts
    /// element `i` into lane `i % 16`, in index order, and folds the lanes
    /// `(l, l + 8) + (l + 4, l + 12)`, then `(0, 2) + (1, 3)`.
    fn spelled_out(dz: &[f32], [n, c, h, w]: [usize; 4]) -> Vec<f32> {
        let plane = |b: usize, ch: usize| &dz[(b * c + ch) * h * w..][..h * w];
        let fold = |p: &[f32]| {
            let mut lanes = [0.0f32; 16];
            for (i, &v) in p.iter().enumerate() {
                lanes[i % 16] += v;
            }
            let q: [f32; 4] =
                std::array::from_fn(|l| (lanes[l] + lanes[l + 8]) + (lanes[l + 4] + lanes[l + 12]));
            (q[0] + q[2]) + (q[1] + q[3])
        };
        let db: Vec<f32> = (0..c)
            .map(|ch| (0..n).fold(0.0f32, |db, b| db + fold(plane(b, ch))))
            .collect();
        // That is the order the layer had before its epilogue was fused:
        // `reduce::sum` per plane, planes in batch order.
        let per_plane: Vec<f32> = (0..c)
            .map(|ch| (0..n).fold(0.0f32, |db, b| db + reduce::sum(plane(b, ch))))
            .collect();
        assert_eq!(bits(&db), bits(&per_plane), "the order is today's");
        db
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_bias_gradient_follows_the_documented_order() {
        // Each path that sums it: the fused pass (`backward`), the stencil
        // gating as it reads `dy` and the fused pass before a direct weight
        // gradient (`backward_params`), with and without an activation.
        let mut rng = Rng64::seed_from_u64(26);
        let c = 6;
        let layers = [
            Conv2d::depthwise(c, 3, 1, &mut rng).with_activation(Activation::Relu),
            Conv2d::pointwise(c, c, &mut rng).with_activation(Activation::Relu6),
            Conv2d::new(c, c, 3, 1, 1, &mut rng).with_activation(Activation::Relu),
            Conv2d::depthwise(c, 3, 1, &mut rng),
        ];
        // A ragged plane, and the workload's.
        for (h, w) in [(33, 20), (32, 32)] {
            let x = Tensor::randn(&[3, c, h, w], &mut rng);
            let dy = Tensor::randn(&[3, c, h, w], &mut rng);
            for layer in &layers {
                let y = layer.clone().forward(&x, Mode::Eval).unwrap();
                let act = layer.activation;
                let dz: Vec<f32> = dy
                    .data()
                    .iter()
                    .zip(y.data())
                    .map(|(&g, &y)| act.gate(g, y))
                    .collect();
                let want = bits(&spelled_out(&dz, [3, c, h, w]));
                // Serially, and on three lanes: the stencil's channels
                // split 2 + 2 + 2, each lane summing its own.
                for lanes in [1, 3] {
                    for params_only in [false, true] {
                        let mut l = layer.clone();
                        install(&ComputePool::new(lanes), || {
                            l.forward(&x, Mode::Train).unwrap();
                            if params_only {
                                l.backward_params(&dy).unwrap();
                            } else {
                                l.backward(&dy).unwrap();
                            }
                        });
                        let db = &l.bias.as_ref().unwrap().grad;
                        let what = format!("{:?} {act:?}, {h}x{w}, {lanes} lanes", l.spec);
                        assert_eq!(bits(db.data()), want, "{what}, params only: {params_only}");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn bias_grad_sums_spatial_and_batch() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut conv = Conv2d::pointwise(2, 2, &mut rng);
        let x = Tensor::randn(&[3, 2, 4, 4], &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::ones(y.dims())).unwrap();
        conv.visit_params(&mut |p| {
            if p.value.dims() == [2] {
                // db[ch] = n * h * w = 3*4*4 = 48 for all-ones dy.
                assert!(p.grad.allclose(&Tensor::full(&[2], 48.0), 1e-4).unwrap());
            }
        });
    }

    #[test]
    fn gradients_match_finite_differences_through_layer() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let probe = Tensor::randn(y.dims(), &mut rng);
        let dx = conv.backward(&probe).unwrap();

        // Finite differences on a few input coordinates.
        let f = |xt: &Tensor, conv: &mut Conv2d| {
            conv.forward(xt, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum()
        };
        for &i in &[0usize, 13, 31, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-2;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-2;
            let num = (f(&xp, &mut conv) - f(&xm, &mut conv)) / 2e-2;
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dx[{i}] {num} vs {ana}"
            );
        }
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        conv.forward(&x, Mode::Eval).unwrap();
        assert!(conv.backward(&Tensor::ones(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn cache_aliases_the_input_and_either_backward_consumes_it() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let dy = Tensor::ones(&[2, 3, 5, 5]);
        for params_only in [false, true] {
            conv.forward(&x, Mode::Train).unwrap();
            let cached = &conv.cache.as_ref().expect("train mode caches").input;
            assert_eq!(
                cached.data().as_ptr(),
                x.data().as_ptr(),
                "a handle, not a copy"
            );
            let second = if params_only {
                conv.backward_params(&dy).unwrap();
                conv.backward_params(&dy)
            } else {
                conv.backward(&dy).unwrap();
                conv.backward(&dy).map(drop)
            };
            assert!(
                conv.cache.is_none(),
                "the layer holds nothing after backward"
            );
            assert!(second.is_err(), "second backward without a forward");
        }
    }
}
