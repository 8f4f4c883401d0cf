use pipebd_tensor::{Activation, Result, Tensor, TensorError};

use crate::{Layer, Mode, Param};

/// Returns `y`, keeping a handle to it in `output` in train mode.
fn kept(y: Tensor, mode: Mode, output: &mut Option<Tensor>) -> Tensor {
    if mode == Mode::Train {
        *output = Some(y.clone());
    }
    y
}

/// `dx[i] = gate(dy[i], y[i])` for the kept output `y`, which it consumes.
/// Each layer passes its own closure, so that the activation is known in
/// the loop.
fn gate_gradient(
    output: &mut Option<Tensor>,
    dy: &Tensor,
    op: &'static str,
    gate: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    let y = output
        .take()
        .ok_or_else(|| TensorError::invalid(format!("{op}: backward before forward")))?;
    if y.numel() != dy.numel() {
        return Err(TensorError::LengthMismatch {
            expected: y.numel(),
            actual: dy.numel(),
            op,
        });
    }
    // Only the element counts have to agree; the result takes `dy`'s dims.
    dy.zip(&y.reshape(dy.dims())?, gate)
}

/// Rectified linear unit, `max(0, x)`, as a layer of its own — for where
/// no convolution precedes it ([`crate::Conv2d::with_activation`] fuses
/// one into the convolution's write-out).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The last train-mode output, which doubles as the backward mask:
    /// `y > 0` exactly where `x > 0`.
    output: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let y = x.map(|v| Activation::Relu.apply(v));
        Ok(kept(y, mode, &mut self.output))
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        gate_gradient(&mut self.output, dy, "relu_backward", |g, y| {
            Activation::Relu.gate(g, y)
        })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// ReLU6, `min(max(0, x), 6)` — the activation used by MobileNetV2.
#[derive(Debug, Clone, Default)]
pub struct Relu6 {
    /// The last train-mode output, which doubles as the backward mask:
    /// `0 < y < 6` exactly where `0 < x < 6`.
    output: Option<Tensor>,
}

impl Relu6 {
    /// Creates a ReLU6 layer.
    pub fn new() -> Self {
        Relu6::default()
    }
}

impl Layer for Relu6 {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let y = x.map(|v| Activation::Relu6.apply(v));
        Ok(kept(y, mode, &mut self.output))
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        gate_gradient(&mut self.output, dy, "relu6_backward", |g, y| {
            Activation::Relu6.gate(g, y)
        })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "relu6"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let dy = Tensor::ones(&[3]);
        let dx = l.backward(&dy).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu6_clamps_both_sides() {
        let mut l = Relu6::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0, 9.0], &[3]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 3.0, 6.0]);
        let dx = l.backward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = Relu::new();
        assert!(l.backward(&Tensor::ones(&[1])).is_err());
    }

    #[test]
    fn kept_output_is_the_returned_buffer_and_backward_consumes_it() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 7.0], &[3]).unwrap();
        let dy = Tensor::ones(&[3]);
        let mut relu = Relu::new();
        relu.forward(&x, Mode::Eval).unwrap();
        assert!(relu.output.is_none(), "eval mode keeps nothing");
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(
            relu.output.as_ref().unwrap().data().as_ptr(),
            y.data().as_ptr()
        );
        relu.backward(&dy).unwrap();
        assert!(relu.output.is_none());
        assert!(relu.backward(&dy).is_err(), "second backward, no forward");

        let mut relu6 = Relu6::new();
        let y = relu6.forward(&x, Mode::Train).unwrap();
        assert_eq!(
            relu6.output.as_ref().unwrap().data().as_ptr(),
            y.data().as_ptr()
        );
        relu6.backward_params(&dy).unwrap();
        assert!(relu6.output.is_none());
        assert!(relu6.backward(&dy).is_err(), "second backward, no forward");
    }
}
