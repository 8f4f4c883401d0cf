use pipebd_tensor::{reduce, Result, Tensor, TensorError};

use crate::{Layer, Mode, Param};

/// A NAS mixed operation: a softmax-weighted sum of candidate layers with a
/// trainable architecture parameter per candidate.
///
/// This mirrors the differentiable-NAS formulation used by the paper's NAS
/// workload (ProxylessNAS search space, DNA-style blockwise supervision):
/// `y = Σ_k softmax(α)_k · op_k(x)`. During the search, weight steps update
/// the candidate ops' weights and architecture steps update `α`; after the
/// search, [`MixedOp::best_candidate`] selects the final operation.
///
/// Gradients:
/// * `∂L/∂x = Σ_k w_k · op_kᵀ(dy)`
/// * `∂L/∂α_k = w_k · (⟨dy, y_k⟩ − Σ_j w_j ⟨dy, y_j⟩)` (softmax chain rule)
pub struct MixedOp {
    candidates: Vec<Box<dyn Layer>>,
    alpha: Param,
    cache: Option<MixedCache>,
}

struct MixedCache {
    outputs: Vec<Tensor>,
    weights: Vec<f32>,
}

impl MixedOp {
    /// Creates a mixed op over the given candidate layers, with uniform
    /// (zero-logit) architecture parameters.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new(candidates: Vec<Box<dyn Layer>>) -> Self {
        assert!(
            !candidates.is_empty(),
            "MixedOp needs at least one candidate"
        );
        let k = candidates.len();
        MixedOp {
            candidates,
            alpha: Param::arch(Tensor::zeros(&[k])),
            cache: None,
        }
    }

    /// Softmax of the current architecture parameters.
    pub fn candidate_weights(&self) -> Vec<f32> {
        softmax(self.alpha.value.data())
    }

    /// Index of the currently most-probable candidate.
    pub fn best_candidate(&self) -> usize {
        self.alpha.value.argmax().unwrap_or(0)
    }

    /// The architecture-gradient half of a backward pass: consumes the
    /// cache, accumulates `∂L/∂α` and returns the softmax weights the
    /// forward pass mixed with.
    fn backward_arch(&mut self, dy: &Tensor) -> Result<Vec<f32>> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("mixed_op: backward before forward"))?;
        if let Some(y) = cache.outputs.iter().find(|y| y.dims() != dy.dims()) {
            return Err(TensorError::ShapeMismatch {
                expected: y.dims().to_vec(),
                actual: dy.dims().to_vec(),
                op: "mixed_op_backward",
            });
        }
        // Inner products ⟨dy, y_k⟩ for the architecture gradient.
        let dots: Vec<f32> = cache
            .outputs
            .iter()
            .map(|y| reduce::dot(y.data(), dy.data()))
            .collect();
        let mean_dot: f32 = cache
            .weights
            .iter()
            .zip(dots.iter())
            .map(|(&w, &d)| w * d)
            .sum();
        let alpha_grad = self.alpha.grad_mut().data_mut();
        for k in 0..self.candidates.len() {
            alpha_grad[k] += cache.weights[k] * (dots[k] - mean_dot);
        }
        Ok(cache.weights)
    }
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

impl Layer for MixedOp {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let weights = self.candidate_weights();
        let mut outputs = Vec::with_capacity(self.candidates.len());
        let mut acc: Option<Tensor> = None;
        for (op, &w) in self.candidates.iter_mut().zip(weights.iter()) {
            let y = op.forward(x, mode)?;
            match &mut acc {
                None => acc = Some(y.map(|v| v * w)),
                Some(a) => a.axpy(w, &y)?,
            }
            outputs.push(y);
        }
        if mode == Mode::Train {
            self.cache = Some(MixedCache { outputs, weights });
        }
        Ok(acc.expect("at least one candidate"))
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let weights = self.backward_arch(dy)?;
        // Input gradient: weighted sum of candidate adjoints. Candidate
        // weight grads are scaled by w_k because y = Σ w_k op_k(x).
        let mut dx: Option<Tensor> = None;
        for (op, &w) in self.candidates.iter_mut().zip(&weights) {
            let dxk = op.backward(&dy.map(|g| g * w))?;
            match &mut dx {
                None => dx = Some(dxk),
                Some(a) => a.add_assign(&dxk)?,
            }
        }
        dx.ok_or_else(|| TensorError::invalid("mixed_op: no candidates"))
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        let weights = self.backward_arch(dy)?;
        for (op, &w) in self.candidates.iter_mut().zip(&weights) {
            op.backward_params(&dy.map(|g| g * w))?;
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for op in &mut self.candidates {
            op.visit_params(f);
        }
        f(&mut self.alpha);
    }

    fn name(&self) -> &'static str {
        "mixed_op"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MixedOp {
            candidates: self.candidates.clone(),
            alpha: self.alpha.clone(),
            cache: None,
        })
    }
}

impl std::fmt::Debug for MixedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MixedOp({} candidates, weights {:?})",
            self.candidates.len(),
            self.candidate_weights()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, ParamKind};
    use pipebd_tensor::Rng64;

    fn mixed(rng: &mut Rng64) -> MixedOp {
        MixedOp::new(vec![
            Box::new(Conv2d::new(2, 2, 3, 1, 1, rng)),
            Box::new(Conv2d::new(2, 2, 1, 1, 0, rng)),
        ])
    }

    #[test]
    fn uniform_alpha_gives_equal_weights() {
        let mut rng = Rng64::seed_from_u64(0);
        let m = mixed(&mut rng);
        let w = m.candidate_weights();
        assert!((w[0] - 0.5).abs() < 1e-6);
        assert!((w[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn forward_is_convex_combination() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut m = mixed(&mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = m.forward(&x, Mode::Train).unwrap();
        // Individually run both candidates.
        let mut y0 = None;
        let mut y1 = None;
        if let Some(c) = m.cache.as_ref() {
            y0 = Some(c.outputs[0].clone());
            y1 = Some(c.outputs[1].clone());
        }
        let mut expect = y0.unwrap();
        expect.scale(0.5);
        expect.axpy(0.5, &y1.unwrap()).unwrap();
        assert!(y.allclose(&expect, 1e-5).unwrap());
    }

    #[test]
    fn arch_gradient_matches_finite_differences() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut m = mixed(&mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = m.forward(&x, Mode::Train).unwrap();
        let probe = Tensor::randn(y.dims(), &mut rng);
        m.backward(&probe).unwrap();
        let ana = m.alpha.grad.clone();

        for k in 0..2 {
            let eps = 1e-3;
            let mut mp = m.clone_box();
            let mut mm = m.clone_box();
            mp.visit_params(&mut |p| {
                if p.kind == ParamKind::Arch {
                    p.value.data_mut()[k] += eps;
                }
            });
            mm.visit_params(&mut |p| {
                if p.kind == ParamKind::Arch {
                    p.value.data_mut()[k] -= eps;
                }
            });
            let fp = mp
                .forward(&x, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum();
            let fm = mm
                .forward(&x, Mode::Eval)
                .unwrap()
                .mul(&probe)
                .unwrap()
                .sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana.data()[k]).abs() < 1e-2 * (1.0 + ana.data()[k].abs()),
                "dalpha[{k}] {num} vs {}",
                ana.data()[k]
            );
        }
    }

    #[test]
    fn best_candidate_follows_alpha() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut m = mixed(&mut rng);
        m.visit_params(&mut |p| {
            if p.kind == ParamKind::Arch {
                p.value.data_mut()[1] = 5.0;
            }
        });
        assert_eq!(m.best_candidate(), 1);
        let w = m.candidate_weights();
        assert!(w[1] > 0.9);
    }

    #[test]
    fn visit_params_includes_arch_param() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut m = mixed(&mut rng);
        let mut kinds = Vec::new();
        m.visit_params(&mut |p| kinds.push(p.kind));
        assert!(kinds.contains(&ParamKind::Arch));
        assert!(kinds.contains(&ParamKind::Weight));
    }
}
