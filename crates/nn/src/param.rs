use pipebd_tensor::{Result, SharedTensor, Tensor, TensorError};

/// Classifies a trainable parameter.
///
/// NAS workloads alternate between updating network *weights* and
/// *architecture parameters* (the per-candidate logits of a [`MixedOp`]);
/// the optimizer filters on this kind.
///
/// [`MixedOp`]: crate::MixedOp
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Ordinary network weight (conv kernels, biases, norm affines, …).
    Weight,
    /// NAS architecture parameter.
    Arch,
}

/// A trainable tensor together with its gradient accumulator.
///
/// The gradient is one [`Tensor`] in one of two states: *live* (the shape
/// of `value`; backward passes add into it) or *empty* (after
/// [`Param::take_grad`], or a [`Param::clear_grad`] of a buffer held
/// elsewhere too; the next backward pass re-seeds it by *moving* its
/// freshly computed gradient in, see [`Param::accumulate_grad`]) —
/// steady-state training never copies a gradient buffer.
///
/// A `Tensor` clone shares its buffer, so the executor's gradient
/// averaging writes back by assigning every replica of a widened stage a
/// clone of the same averaged tensor: a refcount bump per param, and all
/// replicas step off one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`, or empty).
    pub grad: Tensor,
    /// Whether this is a weight or an architecture parameter.
    pub kind: ParamKind,
}

impl Param {
    /// Creates a weight parameter with a zeroed gradient.
    pub fn weight(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            value,
            grad,
            kind: ParamKind::Weight,
        }
    }

    /// Creates an architecture parameter with a zeroed gradient.
    pub fn arch(value: Tensor) -> Self {
        Param {
            kind: ParamKind::Arch,
            ..Param::weight(value)
        }
    }

    /// Accumulates `g` into the gradient.
    ///
    /// A live accumulator adds elementwise; an empty one is re-seeded by
    /// *moving* `g` in — no allocation, no copy.
    ///
    /// # Errors
    ///
    /// Returns a shape mismatch if `g`'s shape differs from the
    /// parameter's (on both the add and the re-seed path — a backward
    /// pass producing a wrong-shaped gradient should fail here, at the
    /// layer that produced it, not later in the optimizer).
    pub fn accumulate_grad(&mut self, g: Tensor) -> Result<()> {
        if self.grad.numel() == 0 && g.numel() != 0 {
            if g.dims() != self.value.dims() {
                return Err(TensorError::ShapeMismatch {
                    expected: self.value.dims().to_vec(),
                    actual: g.dims().to_vec(),
                    op: "accumulate_grad",
                });
            }
            self.grad = g;
            Ok(())
        } else {
            self.grad.add_assign(&g)
        }
    }

    /// Mutable access to the gradient, re-materializing a zeroed buffer
    /// if it is empty.
    ///
    /// For layers that accumulate by indexing (batch norm, NAS mixed
    /// ops) rather than by whole-tensor adds.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        if self.grad.numel() == 0 && self.value.numel() != 0 {
            self.grad = Tensor::zeros(self.value.dims());
        }
        &mut self.grad
    }

    /// Moves the gradient out (for the executor's gather, which transfers
    /// ownership through a channel), leaving the accumulator empty.
    pub fn take_grad(&mut self) -> Tensor {
        std::mem::take(&mut self.grad)
    }

    /// Consumes the gradient after an optimizer step. The only holder of
    /// the buffer zeroes it in place and keeps it as the accumulator. A
    /// buffer held elsewhere too — an averaged gradient the stage's other
    /// replicas still read — is let go of instead, leaving the accumulator
    /// empty: zeroing it through copy-on-write would allocate a private
    /// copy per param per replica per step.
    pub fn clear_grad(&mut self) {
        let grad = SharedTensor::new(std::mem::take(&mut self.grad));
        if grad.ref_count() == 1 {
            self.grad = grad.into_tensor();
            self.grad.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_zero_grad() {
        let p = Param::weight(Tensor::ones(&[2, 2]));
        assert_eq!(p.grad.sq_norm(), 0.0);
        assert_eq!(p.kind, ParamKind::Weight);
        let a = Param::arch(Tensor::ones(&[3]));
        assert_eq!(a.kind, ParamKind::Arch);
        assert_eq!(a.grad.dims(), &[3]);
    }

    #[test]
    fn accumulate_moves_into_taken_grad() {
        let mut p = Param::weight(Tensor::ones(&[4]));
        let taken = p.take_grad();
        assert_eq!(taken.dims(), &[4]);
        assert_eq!(p.grad.numel(), 0);
        let g = Tensor::full(&[4], 2.0);
        let src_ptr = g.data().as_ptr();
        p.accumulate_grad(g).unwrap();
        assert_eq!(p.grad.data().as_ptr(), src_ptr, "must move, not copy");
        // A live accumulator adds instead.
        p.accumulate_grad(Tensor::ones(&[4])).unwrap();
        assert_eq!(p.grad.data(), &[3.0; 4]);
    }

    #[test]
    fn accumulate_rejects_wrong_shape_on_reseed() {
        let mut p = Param::weight(Tensor::ones(&[4]));
        let _ = p.take_grad();
        assert!(p.accumulate_grad(Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn shared_override_wins_until_cleared() {
        let mut p = Param::weight(Tensor::ones(&[2]));
        p.accumulate_grad(Tensor::full(&[2], 5.0)).unwrap();
        let avg = SharedTensor::new(Tensor::full(&[2], 7.0));
        p.grad = Tensor::clone(&avg);
        assert_eq!(p.grad.data(), &[7.0, 7.0]);
        assert_eq!(avg.ref_count(), 2, "write-back must share, not copy");
        p.clear_grad();
        assert_eq!(p.grad.numel(), 0);
        assert_eq!(avg.ref_count(), 1, "clearing must let go, not copy");
        // The only holder zeroes in place and keeps its buffer.
        p.accumulate_grad(Tensor::full(&[2], 5.0)).unwrap();
        let at = p.grad.data().as_ptr();
        p.clear_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
        assert_eq!(p.grad.data().as_ptr(), at);
    }

    #[test]
    fn grad_mut_rematerializes_after_take() {
        let mut p = Param::weight(Tensor::ones(&[3]));
        let _ = p.take_grad();
        p.grad_mut().data_mut()[1] += 4.0;
        assert_eq!(p.grad.data(), &[0.0, 4.0, 0.0]);
    }
}
