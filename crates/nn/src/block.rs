use pipebd_tensor::{Result, Tensor, TensorError};

use crate::{Layer, Mode, Param, Sequential};

/// A named block — the unit of blockwise distillation and of Pipe-BD
/// scheduling.
///
/// A block is a [`Sequential`] with a name; teacher and student networks are
/// both [`BlockNet`]s of the same length, and block `i` of the student is
/// trained against block `i` of the teacher.
#[derive(Debug, Clone)]
pub struct Block {
    name: String,
    inner: Sequential,
}

impl Block {
    /// Creates a named block from a layer sequence.
    pub fn new(name: impl Into<String>, inner: Sequential) -> Self {
        Block {
            name: name.into(),
            inner,
        }
    }

    /// The block's name.
    pub fn label(&self) -> &str {
        &self.name
    }

    /// The wrapped layer sequence.
    pub fn inner(&self) -> &Sequential {
        &self.inner
    }
}

impl Layer for Block {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.inner.forward(x, mode)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor> {
        self.inner.backward(dy)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<()> {
        self.inner.backward_params(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f)
    }

    fn name(&self) -> &'static str {
        "block"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A network expressed as an ordered list of [`Block`]s.
///
/// This is the form both teachers and students take in blockwise
/// distillation: the teacher's block boundaries define where activations are
/// tapped, and the student mirrors the same boundaries.
#[derive(Debug, Clone, Default)]
pub struct BlockNet {
    blocks: Vec<Block>,
}

impl BlockNet {
    /// Creates a network from blocks.
    pub fn new(blocks: Vec<Block>) -> Self {
        BlockNet { blocks }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the network has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Immutable access to block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: usize) -> &Block {
        &self.blocks[i]
    }

    /// Mutable access to block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block_mut(&mut self, i: usize) -> &mut Block {
        &mut self.blocks[i]
    }

    /// Iterates over the blocks.
    pub fn iter(&self) -> std::slice::Iter<'_, Block> {
        self.blocks.iter()
    }

    /// Iterates mutably over the blocks.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Block> {
        self.blocks.iter_mut()
    }

    /// Removes and returns block `i` (used to move blocks onto device
    /// threads).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn take_block(&mut self, i: usize) -> Block {
        self.blocks.remove(i)
    }

    /// Runs the forward pass through blocks `lo..hi`, returning the
    /// activation after block `hi - 1`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds or a block rejects its
    /// input.
    pub fn forward_range(
        &mut self,
        x: &Tensor,
        lo: usize,
        hi: usize,
        mode: Mode,
    ) -> Result<Tensor> {
        if lo > hi || hi > self.blocks.len() {
            return Err(TensorError::invalid(format!(
                "forward_range: invalid range {lo}..{hi} for {} blocks",
                self.blocks.len()
            )));
        }
        let mut cur = x.clone();
        for block in &mut self.blocks[lo..hi] {
            cur = block.forward(&cur, mode)?;
        }
        Ok(cur)
    }

    /// Runs the full forward pass, additionally returning the activation at
    /// every block boundary (`result[i]` is the output of block `i`).
    ///
    /// Used by *internal relaying* (TR+IR in the paper), which stores all
    /// intermediate teacher activations in device memory.
    ///
    /// # Errors
    ///
    /// Returns an error if any block rejects its input.
    pub fn forward_collect(&mut self, x: &Tensor, mode: Mode) -> Result<Vec<Tensor>> {
        let mut outs = Vec::with_capacity(self.blocks.len());
        let mut cur = x.clone();
        for block in &mut self.blocks {
            cur = block.forward(&cur, mode)?;
            outs.push(cur.clone());
        }
        Ok(outs)
    }

    /// Total parameter count over all blocks.
    pub fn param_count(&mut self) -> usize {
        self.blocks.iter_mut().map(|b| crate::param_count(b)).sum()
    }
}

impl FromIterator<Block> for BlockNet {
    fn from_iter<I: IntoIterator<Item = Block>>(iter: I) -> Self {
        BlockNet {
            blocks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use pipebd_tensor::Rng64;

    fn tiny_net(rng: &mut Rng64) -> BlockNet {
        (0..3)
            .map(|i| {
                Block::new(
                    format!("b{i}"),
                    Sequential::new(vec![
                        Box::new(Linear::new(4, 4, rng)),
                        Box::new(Relu::new()),
                    ]),
                )
            })
            .collect()
    }

    #[test]
    fn forward_range_matches_chained_blocks() {
        let mut rng = Rng64::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let full = net.forward_range(&x, 0, 3, Mode::Eval).unwrap();
        let a = net.forward_range(&x, 0, 1, Mode::Eval).unwrap();
        let b = net.forward_range(&a, 1, 2, Mode::Eval).unwrap();
        let c = net.forward_range(&b, 2, 3, Mode::Eval).unwrap();
        assert!(full.allclose(&c, 1e-6).unwrap());
    }

    #[test]
    fn forward_collect_returns_every_boundary() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let outs = net.forward_collect(&x, Mode::Eval).unwrap();
        assert_eq!(outs.len(), 3);
        let direct = net.forward_range(&x, 0, 2, Mode::Eval).unwrap();
        assert!(outs[1].allclose(&direct, 1e-6).unwrap());
    }

    #[test]
    fn forward_range_validates_bounds() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[1, 4]);
        assert!(net.forward_range(&x, 2, 1, Mode::Eval).is_err());
        assert!(net.forward_range(&x, 0, 4, Mode::Eval).is_err());
    }

    #[test]
    fn take_block_moves_ownership() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        let b = net.take_block(1);
        assert_eq!(b.label(), "b1");
        assert_eq!(net.num_blocks(), 2);
        assert_eq!(net.block(1).label(), "b2");
    }

    #[test]
    fn param_count_sums_blocks() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        // Each block: 4*4 weights + 4 bias = 20.
        assert_eq!(net.param_count(), 60);
    }
}
