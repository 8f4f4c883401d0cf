//! Neural-network building blocks for blockwise distillation.
//!
//! This crate layers a small, deterministic NN framework on top of
//! [`pipebd_tensor`]: a [`Layer`] trait with explicit forward/backward
//! passes, the layers needed by the paper's model zoo (convolutions,
//! depthwise-separable convolutions, batch normalization, pooling, linear),
//! the NAS [`MixedOp`] with trainable architecture parameters, distillation
//! and classification losses, and an SGD optimizer.
//!
//! Blockwise distillation itself operates on [`Block`]s — named sub-networks
//! of a [`BlockNet`] — which is exactly the granularity Pipe-BD schedules
//! across devices.
//!
//! # Example
//!
//! ```
//! use pipebd_nn::{Layer, Linear, Mode, Relu, Sequential, Sgd};
//! use pipebd_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::randn(&[3, 4], &mut rng);
//! let y = net.forward(&x, Mode::Train)?;
//! assert_eq!(y.dims(), &[3, 2]);
//! let dy = Tensor::ones(&[3, 2]);
//! let _dx = net.backward(&dy)?;
//! let mut sgd = Sgd::new(0.1, 0.0, 0.0);
//! sgd.step(&mut net)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod activation;
mod block;
mod conv_layer;
mod linear_layer;
mod loss;
mod mixed;
mod norm;
mod optim;
mod param;
mod pool_layer;
mod seq;

pub use activation::{Relu, Relu6};
pub use block::{Block, BlockNet};
pub use conv_layer::Conv2d;
pub use linear_layer::Linear;
pub use loss::{accuracy, cross_entropy_loss, mse_loss, LossValue};
pub use mixed::MixedOp;
pub use norm::BatchNorm2d;
pub use optim::Sgd;
pub use param::{Param, ParamKind};
pub use pool_layer::GlobalAvgPool;
pub use seq::Sequential;

use pipebd_tensor::{Result, Tensor};

/// Forward-pass mode.
///
/// Training mode caches activations for the backward pass and uses batch
/// statistics in normalization layers; evaluation mode uses running
/// statistics and performs no gradient bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: cache for backward, batch statistics.
    Train,
    /// Inference: running statistics, no gradient bookkeeping required.
    Eval,
}

/// A differentiable layer with explicit forward and backward passes.
///
/// Two contracts hold for every implementation:
///
/// * **`backward` consumes the cache.** A train-mode [`Layer::forward`]
///   keeps what the backward pass needs — for most layers a handle to an
///   activation that already exists (its input or its output; tensor
///   storage is reference-counted, so keeping one is not a copy). Either
///   backward entry takes the cache out, so a layer holds no activation
///   between a backward pass and the next forward, and a second backward
///   without a forward in between is an error, exactly as a backward
///   before any forward is.
/// * **[`Layer::backward_params`] forms parameter gradients only.** It
///   leaves bit-identical gradients in the layer's [`Param`]s to
///   [`Layer::backward`] and does not compute the gradient with respect
///   to the layer's input. That is the entry for a block whose input
///   nobody differentiates: data, or a detached teacher activation —
///   every student block of blockwise distillation.
///
/// Layers are [`Send`] so the threaded executor can move blocks onto
/// device threads, and boxed layers are cloneable so data-parallel groups
/// can replicate a block.
pub trait Layer: Send {
    /// Computes the layer output, caching for a subsequent backward pass
    /// when `mode` is [`Mode::Train`].
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Back-propagates `dy` (gradient w.r.t. the last forward output),
    /// accumulates parameter gradients, and returns the gradient w.r.t. the
    /// last forward input.
    ///
    /// # Errors
    ///
    /// Returns an error if no forward pass was cached or `dy` has the wrong
    /// shape.
    fn backward(&mut self, dy: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] without the input gradient: accumulates
    /// parameter gradients and consumes the cache. Layers whose input
    /// gradient is separable work override this to skip it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        self.backward(dy).map(drop)
    }

    /// Visits every parameter (weights and, for NAS layers, architecture
    /// parameters) exactly once, in a deterministic order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// A short human-readable layer name (used in traces and error text).
    fn name(&self) -> &'static str;

    /// Clones the layer behind a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Zeroes the gradient of every parameter of `layer`
/// ([`Param::clear_grad`]).
pub fn zero_grad(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| p.clear_grad());
}

/// Total number of scalar parameters (all kinds) in `layer`.
pub fn param_count(layer: &mut dyn Layer) -> usize {
    let mut n = 0usize;
    layer.visit_params(&mut |p| n += p.value.numel());
    n
}

/// Snapshots all parameter values of `layer` (used by parity tests).
pub fn snapshot_params(layer: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.value.clone()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_tensor::Rng64;

    #[test]
    fn zero_grad_and_param_count() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert_eq!(param_count(&mut l), 3 * 2 + 2);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        l.backward(&Tensor::ones(y.dims())).unwrap();
        let mut nonzero = false;
        l.visit_params(&mut |p| nonzero |= p.grad.sq_norm() > 0.0);
        assert!(nonzero);
        zero_grad(&mut l);
        l.visit_params(&mut |p| assert_eq!(p.grad.sq_norm(), 0.0));
    }

    #[test]
    fn boxed_layer_clone_is_independent() {
        let mut rng = Rng64::seed_from_u64(1);
        let l: Box<dyn Layer> = Box::new(Linear::new(2, 2, &mut rng));
        let mut c = l.clone();
        let mut orig = l;
        let before = snapshot_params(orig.as_mut());
        c.visit_params(&mut |p| p.value.fill(0.0));
        let after = snapshot_params(orig.as_mut());
        for (b, a) in before.iter().zip(after.iter()) {
            assert_eq!(b, a);
        }
    }
}
