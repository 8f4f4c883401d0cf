use pipebd_tensor::{Result, Tensor, TensorError};

use crate::{Layer, Mode, Param};

/// 2-D batch normalization over `[batch, channels, h, w]` inputs.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates; evaluation mode uses the running estimates. The backward pass
/// implements the full batch-statistics gradient (not the "frozen stats"
/// approximation), validated against finite differences in the tests.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::weight(Tensor::ones(&[channels])),
            beta: Param::weight(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels this layer normalizes.
    pub fn channels(&self) -> usize {
        self.gamma.value.numel()
    }

    fn check(&self, x: &Tensor) -> Result<(usize, usize, usize, usize)> {
        if x.shape().rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.shape().rank(),
                op: "batchnorm2d",
            });
        }
        let d = x.dims();
        if d[1] != self.channels() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![d[0], self.channels(), d[2], d[3]],
                actual: d.to_vec(),
                op: "batchnorm2d",
            });
        }
        Ok((d[0], d[1], d[2], d[3]))
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let (n, c, h, w) = self.check(x)?;
        let m = (n * h * w) as f32;
        let xd = x.data();
        let mut y = Tensor::zeros(x.dims());
        match mode {
            Mode::Train => {
                let mut xhat = Tensor::zeros(x.dims());
                let mut inv_stds = vec![0.0f32; c];
                for ch in 0..c {
                    let mut mean = 0.0f32;
                    for b in 0..n {
                        let base = (b * c + ch) * h * w;
                        mean += xd[base..base + h * w].iter().sum::<f32>();
                    }
                    mean /= m;
                    let mut var = 0.0f32;
                    for b in 0..n {
                        let base = (b * c + ch) * h * w;
                        for &v in &xd[base..base + h * w] {
                            var += (v - mean) * (v - mean);
                        }
                    }
                    var /= m;
                    let inv_std = 1.0 / (var + self.eps).sqrt();
                    inv_stds[ch] = inv_std;
                    let g = self.gamma.value.data()[ch];
                    let bta = self.beta.value.data()[ch];
                    let (xhd, yd) = (xhat.data_mut(), y.data_mut());
                    for b in 0..n {
                        let base = (b * c + ch) * h * w;
                        for i in base..base + h * w {
                            let xh = (xd[i] - mean) * inv_std;
                            xhd[i] = xh;
                            yd[i] = g * xh + bta;
                        }
                    }
                    // Update running statistics.
                    let rm = &mut self.running_mean.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                    let rv = &mut self.running_var.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
                }
                self.cache = Some(BnCache {
                    xhat,
                    inv_std: inv_stds,
                });
            }
            Mode::Eval => {
                let yd = y.data_mut();
                for ch in 0..c {
                    let mean = self.running_mean.data()[ch];
                    let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
                    let g = self.gamma.value.data()[ch];
                    let bta = self.beta.value.data()[ch];
                    for b in 0..n {
                        let base = (b * c + ch) * h * w;
                        for i in base..base + h * w {
                            yd[i] = g * (xd[i] - mean) * inv_std + bta;
                        }
                    }
                }
            }
        }
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("batchnorm2d: backward before forward"))?;
        let (n, c, h, w) = self.check(dy)?;
        let m = (n * h * w) as f32;
        let dyd = dy.data();
        let xhat = cache.xhat.data();
        let mut dx = Tensor::zeros(dy.dims());
        let dxd = dx.data_mut();
        for ch in 0..c {
            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for b in 0..n {
                let base = (b * c + ch) * h * w;
                for i in base..base + h * w {
                    sum_dy += dyd[i];
                    sum_dy_xhat += dyd[i] * xhat[i];
                }
            }
            self.beta.grad_mut().data_mut()[ch] += sum_dy;
            self.gamma.grad_mut().data_mut()[ch] += sum_dy_xhat;
            let k = g * inv_std / m;
            for b in 0..n {
                let base = (b * c + ch) * h * w;
                for i in base..base + h * w {
                    dxd[i] = k * (m * dyd[i] - sum_dy - xhat[i] * sum_dy_xhat);
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_tensor::Rng64;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], &mut rng).map(|v| v * 3.0 + 1.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-channel mean ~0 and var ~1.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for b in 0..4 {
                for h in 0..5 {
                    for w in 0..5 {
                        vals.push(y.at(&[b, ch, h, w]).unwrap());
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[8, 2, 4, 4], &mut rng).map(|v| v * 2.0 + 5.0);
        // Train a few times to move running stats.
        for _ in 0..50 {
            bn.forward(&x, Mode::Train).unwrap();
        }
        let y = bn.forward(&x, Mode::Eval).unwrap();
        // With converged running stats, eval output is also ~normalized.
        assert!(y.mean().abs() < 0.2);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let y = bn.forward(&x, Mode::Train).unwrap();
        let probe = Tensor::randn(y.dims(), &mut rng);
        let dx = bn.backward(&probe).unwrap();
        let f = |xt: &Tensor, bn: &mut BatchNorm2d| {
            bn.forward(xt, Mode::Train)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum()
        };
        for &i in &[0usize, 5, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[i] += 1e-2;
            let mut xm = x.clone();
            xm.data_mut()[i] -= 1e-2;
            // Use fresh clones so running stats do not drift into the check.
            let num = (f(&xp, &mut bn.clone()) - f(&xm, &mut bn.clone())) / 2e-2;
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "dx[{i}] {num} vs {ana}"
            );
        }
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(bn.forward(&x, Mode::Train).is_err());
    }
}
