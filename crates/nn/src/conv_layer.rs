use pipebd_tensor::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, reduce, Conv2dSpec, Result, Rng64, Tensor,
    TensorError,
};

use crate::{Layer, Mode, Param};

/// A grouped 2-D convolution layer with optional per-channel bias.
///
/// Covers dense convolutions (`groups == 1`), depthwise convolutions
/// (`groups == channels`), and pointwise 1×1 convolutions. Weight layout is
/// `[out_channels, in_channels / groups, k, k]`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Option<Param>,
    cache: Option<ConvCache>,
}

/// A handle to the last train-mode input (shared with the caller, not
/// copied), held until a backward pass consumes it.
#[derive(Debug, Clone)]
struct ConvCache {
    input: Tensor,
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
            cache: None,
        }
    }

    /// The layer's convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }
}

fn add_channel_bias(y: &mut Tensor, bias: &Tensor) {
    let dims = y.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let bd = bias.data();
    let yd = y.data_mut();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            let bias_v = bd[ch];
            for v in &mut yd[base..base + h * w] {
                *v += bias_v;
            }
        }
    }
}

fn channel_bias_grad(dy: &Tensor) -> Tensor {
    let dims = dy.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let dyd = dy.data();
    let mut db = vec![0.0f32; c];
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            db[ch] += reduce::sum(&dyd[base..base + h * w]);
        }
    }
    Tensor::from_vec(db, &[c]).expect("channel bias grad shape")
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut y = conv2d(x, &self.weight.value, self.spec)?;
        if let Some(b) = &self.bias {
            add_channel_bias(&mut y, &b.value);
        }
        if mode == Mode::Train {
            self.cache = Some(ConvCache { input: x.clone() });
        }
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        // The input's extent, read before `backward_params` consumes it.
        let hw = self.cache.as_ref().map(|c| {
            let dims = c.input.dims();
            (dims[2], dims[3])
        });
        self.backward_params(dy)?;
        let hw = hw.expect("backward_params fails without a cache");
        conv2d_grad_input(dy, &self.weight.value, self.spec, hw)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        let ConvCache { input: x } = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("conv2d: backward before forward"))?;
        let dw = conv2d_grad_weight(&x, dy, self.spec)?;
        self.weight.accumulate_grad(dw)?;
        if let Some(b) = &mut self.bias {
            b.accumulate_grad(channel_bias_grad(dy))?;
        }
        Ok(())
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
