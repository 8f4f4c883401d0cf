use pipebd_tensor::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward, MaxPoolIndices, Result, Tensor, TensorError,
};

use crate::{Layer, Mode, Param};

/// Average-pooling layer with a square window.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
    input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average pool with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool2d {
            window,
            stride,
            input_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.input_dims = Some(x.dims().to_vec());
        }
        avg_pool2d(x, self.window, self.stride)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let dims = self
            .input_dims
            .take()
            .ok_or_else(|| TensorError::invalid("avg_pool2d: backward before forward"))?;
        avg_pool2d_backward(dy, &dims, self.window, self.stride)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "avg_pool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Max-pooling layer with a square window.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    indices: Option<MaxPoolIndices>,
}

impl MaxPool2d {
    /// Creates a max pool with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            window,
            stride,
            indices: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let (y, idx) = max_pool2d(x, self.window, self.stride)?;
        if mode == Mode::Train {
            self.indices = Some(idx);
        }
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let idx = self
            .indices
            .take()
            .ok_or_else(|| TensorError::invalid("max_pool2d: backward before forward"))?;
        max_pool2d_backward(dy, &idx)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

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
    fn avg_pool_layer_roundtrip() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut l = AvgPool2d::new(2, 2);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        let dx = l.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert!((dx.sum() - 8.0).abs() < 1e-5);
    }

    #[test]
    fn max_pool_layer_routes_gradient() {
        let mut l = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 4.0);
        let dx = l.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(dx.at(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(dx.at(&[0, 0, 2, 2]).unwrap(), 1.0);
    }

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
