use pipebd_tensor::{Result, Tensor};

use crate::{Layer, Param, ParamKind};

/// Stochastic gradient descent with momentum and weight decay.
///
/// The optimizer keeps one velocity buffer per parameter, keyed by the
/// deterministic visitation order of [`Layer::visit_params`]. A single
/// `Sgd` instance must therefore always be stepped against the same layer —
/// exactly how the paper's decoupled parameter update works: each student
/// block owns its optimizer and steps it independently of other blocks.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    kind_filter: Option<ParamKind>,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer updating every parameter kind.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            kind_filter: None,
            velocities: Vec::new(),
        }
    }

    /// Creates an SGD optimizer updating only parameters of `kind`.
    ///
    /// NAS alternates a weight optimizer (`ParamKind::Weight`) and an
    /// architecture optimizer (`ParamKind::Arch`).
    pub fn for_kind(lr: f32, momentum: f32, weight_decay: f32, kind: ParamKind) -> Self {
        Sgd {
            kind_filter: Some(kind),
            ..Sgd::new(lr, momentum, weight_decay)
        }
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// The momentum velocity buffers, in [`Layer::visit_params`] order.
    ///
    /// Empty until the first [`Sgd::step`] (buffers are allocated
    /// lazily). Checkpointing snapshots these so a restored optimizer
    /// continues the exact same trajectory.
    pub fn velocities(&self) -> &[Tensor] {
        &self.velocities
    }

    /// Replaces the velocity buffers with a checkpointed snapshot.
    ///
    /// The caller must provide buffers captured from an optimizer stepped
    /// against the same layer; shapes are re-checked on the next
    /// [`Sgd::step`] like any other mismatch.
    pub fn restore_velocities(&mut self, velocities: Vec<Tensor>) {
        self.velocities = velocities;
    }

    /// Applies one update step to every matching parameter of `layer`,
    /// consuming the accumulated gradients (they are cleared afterwards).
    ///
    /// The gradient is read and never mutated, so an averaged gradient the
    /// executor's data-parallel write-back installed as a clone is
    /// consumed in place — every stage replica steps off the same buffer.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (which indicate the optimizer was
    /// stepped against a different layer than it was created for).
    pub fn step(&mut self, layer: &mut dyn Layer) -> Result<()> {
        let mut idx = 0usize;
        let mut result = Ok(());
        let lr = self.lr;
        let momentum = self.momentum;
        let weight_decay = self.weight_decay;
        let filter = self.kind_filter;
        let velocities = &mut self.velocities;
        layer.visit_params(&mut |p: &mut Param| {
            if result.is_err() {
                return;
            }
            if velocities.len() == idx {
                velocities.push(Tensor::zeros(p.value.dims()));
            }
            let matches = filter.map_or(true, |k| k == p.kind);
            if matches {
                let vel = &mut velocities[idx];
                let step_result = (|| -> Result<()> {
                    if momentum != 0.0 {
                        // vel = momentum * vel + grad (+ wd * value)
                        vel.scale(momentum);
                        vel.add_assign(&p.grad)?;
                        if weight_decay != 0.0 {
                            vel.axpy(weight_decay, &p.value)?;
                        }
                        p.value.axpy(-lr, vel)?;
                    } else {
                        if weight_decay != 0.0 {
                            p.value.scale(1.0 - lr * weight_decay);
                        }
                        p.value.axpy(-lr, &p.grad)?;
                    }
                    p.clear_grad();
                    Ok(())
                })();
                if let Err(e) = step_result {
                    result = Err(e);
                }
            }
            idx += 1;
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, MixedOp, Mode};
    use pipebd_tensor::{Rng64, Tensor};

    #[test]
    fn plain_sgd_descends_quadratic() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut l = Linear::new(2, 1, &mut rng);
        let mut sgd = Sgd::new(0.05, 0.0, 0.0);
        let x = Tensor::randn(&[16, 2], &mut rng);
        let target = Tensor::zeros(&[16, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            let y = l.forward(&x, Mode::Train).unwrap();
            let loss = crate::mse_loss(&y, &target).unwrap();
            l.backward(&loss.grad).unwrap();
            sgd.step(&mut l).unwrap();
            last = loss.loss;
        }
        assert!(last < 1e-3, "loss did not converge: {last}");
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let mut rng = Rng64::seed_from_u64(1);
        let x = Tensor::randn(&[16, 4], &mut rng);
        let target = Tensor::zeros(&[16, 1]);
        let run = |momentum: f32, rng: &mut Rng64| {
            let mut l = Linear::new(4, 1, rng);
            let mut sgd = Sgd::new(0.02, momentum, 0.0);
            let mut loss_v = 0.0;
            for _ in 0..40 {
                let y = l.forward(&x, Mode::Train).unwrap();
                let loss = crate::mse_loss(&y, &target).unwrap();
                l.backward(&loss.grad).unwrap();
                sgd.step(&mut l).unwrap();
                loss_v = loss.loss;
            }
            loss_v
        };
        let mut rng_a = Rng64::seed_from_u64(2);
        let mut rng_b = Rng64::seed_from_u64(2);
        let plain = run(0.0, &mut rng_a);
        let with_momentum = run(0.9, &mut rng_b);
        assert!(
            with_momentum < plain,
            "momentum {with_momentum} not faster than plain {plain}"
        );
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn(&[4, 2], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        l.backward(&Tensor::ones(y.dims())).unwrap();
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        sgd.step(&mut l).unwrap();
        l.visit_params(&mut |p| assert_eq!(p.grad.sq_norm(), 0.0));
    }

    #[test]
    fn kind_filter_only_touches_matching_params() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut m = MixedOp::new(vec![
            Box::new(Linear::new(2, 2, &mut rng)),
            Box::new(Linear::new(2, 2, &mut rng)),
        ]);
        let x = Tensor::randn(&[4, 2], &mut rng);
        let y = m.forward(&x, Mode::Train).unwrap();
        m.backward(&Tensor::ones(y.dims())).unwrap();
        let before = crate::snapshot_params(&mut m);
        let mut arch_sgd = Sgd::for_kind(0.5, 0.0, 0.0, ParamKind::Arch);
        arch_sgd.step(&mut m).unwrap();
        let after = crate::snapshot_params(&mut m);
        // All weight params unchanged, arch param (last) changed.
        let n = before.len();
        for i in 0..n - 1 {
            assert_eq!(before[i], after[i], "weight param {i} moved");
        }
        assert_ne!(before[n - 1], after[n - 1], "arch param did not move");
    }

    #[test]
    fn velocity_restore_resumes_identical_trajectory() {
        let mut rng = Rng64::seed_from_u64(6);
        let x = Tensor::randn(&[8, 3], &mut rng);
        let target = Tensor::zeros(&[8, 1]);
        let step_once = |l: &mut Linear, sgd: &mut Sgd| {
            let y = l.forward(&x, Mode::Train).unwrap();
            let loss = crate::mse_loss(&y, &target).unwrap();
            l.backward(&loss.grad).unwrap();
            sgd.step(l).unwrap();
        };
        // Uninterrupted run: 4 momentum steps.
        let mut rng_a = Rng64::seed_from_u64(7);
        let mut l_ref = Linear::new(3, 1, &mut rng_a);
        let mut sgd_ref = Sgd::new(0.05, 0.9, 0.0);
        for _ in 0..4 {
            step_once(&mut l_ref, &mut sgd_ref);
        }
        // Checkpointed run: 2 steps, snapshot, restore into a *fresh*
        // optimizer, 2 more steps.
        let mut rng_b = Rng64::seed_from_u64(7);
        let mut l = Linear::new(3, 1, &mut rng_b);
        let mut sgd = Sgd::new(0.05, 0.9, 0.0);
        for _ in 0..2 {
            step_once(&mut l, &mut sgd);
        }
        let saved = sgd.velocities().to_vec();
        assert!(!saved.is_empty(), "step allocated velocity buffers");
        let mut resumed = Sgd::new(0.05, 0.9, 0.0);
        resumed.restore_velocities(saved);
        for _ in 0..2 {
            step_once(&mut l, &mut resumed);
        }
        let a = crate::snapshot_params(&mut l_ref);
        let b = crate::snapshot_params(&mut l);
        assert_eq!(a, b, "restored velocities must resume bitwise");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = Rng64::seed_from_u64(5);
        let mut l = Linear::new(2, 2, &mut rng);
        let norm_before: f32 = crate::snapshot_params(&mut l)
            .iter()
            .map(|t| t.sq_norm())
            .sum();
        // No data gradient: forward/backward with zero dy, decay only.
        let x = Tensor::randn(&[1, 2], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        l.backward(&Tensor::zeros(y.dims())).unwrap();
        let mut sgd = Sgd::new(0.1, 0.0, 0.5);
        sgd.step(&mut l).unwrap();
        let norm_after: f32 = crate::snapshot_params(&mut l)
            .iter()
            .map(|t| t.sq_norm())
            .sum();
        assert!(norm_after < norm_before);
    }
}
