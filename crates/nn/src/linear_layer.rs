use pipebd_tensor::{Result, Rng64, Tensor, TensorError};

use crate::{Layer, Mode, Param};

/// A fully-connected layer `y = x W + b` on `[batch, in]` inputs.
///
/// Weight layout is `[in, out]` so the forward pass is a plain matmul.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    /// A handle to the last train-mode input (shared with the caller, not
    /// copied), held until a backward pass consumes it.
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        Linear {
            weight: Param::weight(Tensor::kaiming(
                &[in_features, out_features],
                in_features,
                rng,
            )),
            bias: Param::weight(Tensor::zeros(&[out_features])),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[1]
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let y = x
            .matmul(&self.weight.value)?
            .add_bias_rows(&self.bias.value)?;
        if mode == Mode::Train {
            self.cache = Some(x.clone());
        }
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        // dW = xᵀ dy ; db = column sums of dy ; dx = dy Wᵀ.
        self.backward_params(dy)?;
        dy.matmul_b_t(&self.weight.value)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        let x = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("linear: backward before forward"))?;
        self.weight.accumulate_grad(x.matmul_t_a(dy)?)?;
        self.bias.accumulate_grad(dy.sum_rows()?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_matmul() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert_eq!(l.in_features(), 3);
        assert_eq!(l.out_features(), 2);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[2, 3], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        let probe = Tensor::randn(y.dims(), &mut rng);
        let dx = l.backward(&probe).unwrap();

        // Check dx numerically.
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-3;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-3;
            let fp = l
                .forward(&xp, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum();
            let fm = l
                .forward(&xm, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum();
            let num = (fp - fm) / 2e-3;
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "dx[{i}] {num} vs {}",
                dx.data()[i]
            );
        }

        // Check dW numerically against the accumulated grad.
        let mut dws = Vec::new();
        l.visit_params(&mut |p| dws.push(p.grad.clone()));
        let dw = &dws[0];
        let mut weights = Vec::new();
        l.visit_params(&mut |p| weights.push(p.value.clone()));
        for i in 0..weights[0].numel() {
            let mut lp = l.clone();
            let mut lm = l.clone();
            lp.visit_params(&mut |p| {
                if p.value.dims().len() == 2 {
                    p.value.data_mut()[i] += 1e-3;
                }
            });
            lm.visit_params(&mut |p| {
                if p.value.dims().len() == 2 {
                    p.value.data_mut()[i] -= 1e-3;
                }
            });
            let fp = lp
                .forward(&x, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum();
            let fm = lm
                .forward(&x, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum();
            let num = (fp - fm) / 2e-3;
            assert!(
                (num - dw.data()[i]).abs() < 1e-2,
                "dW[{i}] {num} vs {}",
                dw.data()[i]
            );
        }
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::ones(y.dims());
        l.backward(&dy).unwrap();
        let mut g1 = Vec::new();
        l.visit_params(&mut |p| g1.push(p.grad.clone()));
        l.forward(&x, Mode::Train).unwrap();
        l.backward(&dy).unwrap();
        let mut g2 = Vec::new();
        l.visit_params(&mut |p| g2.push(p.grad.clone()));
        for (a, b) in g1.iter().zip(g2.iter()) {
            let mut doubled = a.clone();
            doubled.scale(2.0);
            assert!(doubled.allclose(b, 1e-5).unwrap());
        }
    }

    #[test]
    fn cache_aliases_the_input_and_either_backward_consumes_it() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let dy = Tensor::ones(&[4, 2]);
        for params_only in [false, true] {
            l.forward(&x, Mode::Train).unwrap();
            let cached = l.cache.as_ref().expect("train mode caches");
            assert_eq!(
                cached.data().as_ptr(),
                x.data().as_ptr(),
                "a handle, not a copy"
            );
            let second = if params_only {
                l.backward_params(&dy).unwrap();
                l.backward_params(&dy)
            } else {
                l.backward(&dy).unwrap();
                l.backward(&dy).map(drop)
            };
            assert!(l.cache.is_none(), "the layer holds nothing after backward");
            assert!(second.is_err(), "second backward without a forward");
        }
    }
}
