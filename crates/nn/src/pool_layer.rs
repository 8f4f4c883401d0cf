use pipebd_tensor::{global_avg_pool, global_avg_pool_backward, Result, Tensor, TensorError};

use crate::{Layer, Mode, Param};

/// Global average pooling `[n, c, h, w] -> [n, c]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.input_dims = Some(x.dims().to_vec());
        }
        global_avg_pool(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let dims = self
            .input_dims
            .take()
            .ok_or_else(|| TensorError::invalid("global_avg_pool: backward before forward"))?;
        global_avg_pool_backward(dy, &dims)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "global_avg_pool"
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
    fn global_avg_pool_layer_shapes() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut l = GlobalAvgPool::new();
        let x = Tensor::randn(&[3, 5, 2, 2], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[3, 5]);
        let dx = l.backward(&Tensor::ones(&[3, 5])).unwrap();
        assert_eq!(dx.dims(), &[3, 5, 2, 2]);
    }
}
