use pipebd_tensor::{Result, Tensor};

use crate::{Layer, Mode, Param};

/// A sequence of layers applied in order.
///
/// `Sequential` is itself a [`Layer`], so sequences nest.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequence from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers in the sequence.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the sequence has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({names:?})")
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        // The first layer reads the caller's tensor in place; the empty
        // sequence (the identity) hands back a handle to it.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(x.clone());
        };
        let mut cur = first.forward(x, mode)?;
        for layer in rest {
            cur = layer.forward(&cur, mode)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return Ok(dy.clone());
        };
        let mut cur = last.backward(dy)?;
        for layer in rest.iter_mut().rev() {
            cur = layer.backward(&cur)?;
        }
        Ok(cur)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        // Every layer but the first feeds the one before it its input
        // gradient; nobody reads the first layer's.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut cur: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            cur = Some(layer.backward(cur.as_ref().unwrap_or(dy))?);
        }
        first.backward_params(cur.as_ref().unwrap_or(dy))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use pipebd_tensor::Rng64;

    #[test]
    fn forward_backward_through_stack() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, &mut rng)),
        ]);
        assert_eq!(net.len(), 3);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        let dx = net.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(dx.dims(), &[2, 4]);
    }

    #[test]
    fn borrowing_the_argument_changes_no_bit() {
        // What `forward` / `backward` did when they copied their argument
        // first: every layer fed an owned tensor.
        fn copy_then_chain(
            layers: &mut [Box<dyn Layer>],
            arg: &Tensor,
            mut step: impl FnMut(&mut dyn Layer, &Tensor) -> Tensor,
        ) -> Tensor {
            let mut cur = arg.clone();
            for layer in layers {
                cur = step(layer.as_mut(), &cur);
            }
            cur
        }
        let mut rng = Rng64::seed_from_u64(3);
        let layers = || -> Vec<Box<dyn Layer>> {
            let mut rng = Rng64::seed_from_u64(4);
            vec![
                Box::new(Linear::new(4, 8, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(8, 3, &mut rng)),
            ]
        };
        let (x, dy) = (
            Tensor::randn(&[5, 4], &mut rng),
            Tensor::randn(&[5, 3], &mut rng),
        );
        let mut net = Sequential::new(layers());
        let mut old = layers();
        let y = net.forward(&x, Mode::Train).unwrap();
        let y_old = copy_then_chain(&mut old, &x, |l, t| l.forward(t, Mode::Train).unwrap());
        assert_eq!(y.data(), y_old.data());
        let dx = net.backward(&dy).unwrap();
        old.reverse();
        let dx_old = copy_then_chain(&mut old, &dy, |l, t| l.backward(t).unwrap());
        assert_eq!(dx.data(), dx_old.data());

        // The empty sequence is the identity, and hands back a copy.
        let mut empty = Sequential::default();
        assert_eq!(empty.forward(&x, Mode::Eval).unwrap().data(), x.data());
        assert_eq!(empty.backward(&dy).unwrap().data(), dy.data());
    }

    #[test]
    fn visit_params_covers_all_layers() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 2, &mut rng)),
            Box::new(Linear::new(2, 2, &mut rng)),
        ]);
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 4); // two weights + two biases
    }

    #[test]
    fn debug_shows_layer_names() {
        let mut rng = Rng64::seed_from_u64(2);
        let net = Sequential::default().push(Box::new(Linear::new(1, 1, &mut rng)));
        assert!(format!("{net:?}").contains("linear"));
    }
}
