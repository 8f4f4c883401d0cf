//! Block descriptors: everything the simulator and scheduler need to know
//! about one teacher/student block pair.

use crate::arch::{ActShape, StackSpec};

/// Analytic description of one teacher/student block pair.
///
/// Blockwise distillation trains student block `i` against teacher block
/// `i`; both consume the teacher activation at boundary `i − 1` and the
/// loss compares their outputs, so a single descriptor carries both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDescriptor {
    /// Human-readable block name (e.g. `"b2"`, `"conv3_2"`).
    pub name: String,
    /// Input activation shape per sample.
    pub in_shape: ActShape,
    /// Output activation shape per sample (the distillation boundary).
    pub out_shape: ActShape,
    /// Teacher forward MACs per sample.
    pub teacher_macs: u64,
    /// Teacher parameter count.
    pub teacher_params: u64,
    /// Teacher kernel launches per forward.
    pub teacher_kernels: u32,
    /// Teacher activation elements per sample (traffic of one forward).
    pub teacher_act_elems: u64,
    /// Peak resident teacher activation elements per sample.
    pub teacher_peak_act_elems: u64,
    /// Student forward MACs per sample (a NAS supernet sums all candidate
    /// paths).
    pub student_macs: u64,
    /// Student parameter count.
    pub student_params: u64,
    /// Student kernel launches per forward.
    pub student_kernels: u32,
    /// Student activation elements per sample retained for backward
    /// (traffic; a supernet executing candidates sequentially retains only
    /// the peak candidate, see `student_peak_act_elems`).
    pub student_act_elems: u64,
    /// Peak resident student activation elements per sample.
    pub student_peak_act_elems: u64,
}

impl BlockDescriptor {
    /// Builds a descriptor by folding teacher and student stacks over the
    /// block input shape.
    ///
    /// # Panics
    ///
    /// Panics if the teacher and student stacks disagree on the output
    /// shape — the distillation loss requires identical boundary shapes.
    pub fn from_stacks(
        name: impl Into<String>,
        input: ActShape,
        teacher: &StackSpec,
        student: &StackSpec,
    ) -> Self {
        let t = teacher.cost(input);
        let s = student.cost(input);
        assert_eq!(
            t.out_shape, s.out_shape,
            "teacher/student boundary shapes must match for distillation"
        );
        BlockDescriptor {
            name: name.into(),
            in_shape: input,
            out_shape: t.out_shape,
            teacher_macs: t.macs,
            teacher_params: t.params,
            teacher_kernels: t.kernels,
            teacher_act_elems: t.act_elems,
            teacher_peak_act_elems: t.peak_act_elems,
            student_macs: s.macs,
            student_params: s.params,
            student_kernels: s.kernels,
            student_act_elems: s.act_elems,
            // A plain student block retains its whole activation stack for
            // backward.
            student_peak_act_elems: s.act_elems,
        }
    }

    /// Bytes of the activation relayed across this block's output boundary,
    /// per sample.
    pub fn boundary_bytes(&self) -> u64 {
        self.out_shape.bytes()
    }

    /// Teacher weight bytes (fp32).
    pub fn teacher_weight_bytes(&self) -> u64 {
        4 * self.teacher_params
    }

    /// Student state bytes: weights + gradients + SGD momentum (fp32).
    pub fn student_state_bytes(&self) -> u64 {
        3 * 4 * self.student_params
    }
}

/// The blockwise teacher/student pair for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockModel {
    /// Model-pair name, e.g. `"mobilenetv2->proxyless"`.
    pub name: String,
    /// Network input shape per sample.
    pub input_shape: ActShape,
    /// Per-block descriptors, in network order.
    pub blocks: Vec<BlockDescriptor>,
}

impl BlockModel {
    /// Number of blocks `B`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total teacher MACs per sample for a full forward pass.
    pub fn teacher_macs(&self) -> u64 {
        self.blocks.iter().map(|b| b.teacher_macs).sum()
    }

    /// Total student MACs per sample for a full forward pass.
    pub fn student_macs(&self) -> u64 {
        self.blocks.iter().map(|b| b.student_macs).sum()
    }

    /// Total teacher parameters.
    pub fn teacher_params(&self) -> u64 {
        self.blocks.iter().map(|b| b.teacher_params).sum()
    }

    /// Total student parameters.
    pub fn student_params(&self) -> u64 {
        self.blocks.iter().map(|b| b.student_params).sum()
    }

    /// Teacher MACs of the prefix `0..=i` — the redundant work the
    /// data-parallel baseline repeats for every trained block.
    pub fn teacher_prefix_macs(&self, i: usize) -> u64 {
        self.blocks[..=i].iter().map(|b| b.teacher_macs).sum()
    }

    /// Validates boundary continuity: each block's input shape equals the
    /// previous block's output shape, and block 0 consumes the model input.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] in that order.
    pub fn validate(&self) -> Result<(), ModelError> {
        let first = self.blocks.first().ok_or(ModelError::NoBlocks)?;
        if first.in_shape != self.input_shape {
            return Err(ModelError::Input {
                block: first.in_shape,
                model: self.input_shape,
            });
        }
        for (i, pair) in self.blocks.windows(2).enumerate() {
            if pair[1].in_shape != pair[0].out_shape {
                return Err(ModelError::Boundary {
                    boundary: i + 1,
                    input: pair[1].in_shape,
                    previous_output: pair[0].out_shape,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`BlockModel`] is not a chain of blocks: one variant per check
/// of [`BlockModel::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The model has no blocks.
    NoBlocks,
    /// Block 0 does not consume the model input.
    Input {
        /// Block 0's input shape.
        block: ActShape,
        /// The model's input shape.
        model: ActShape,
    },
    /// A block's input is not the previous block's output.
    Boundary {
        /// Index of the block whose input differs.
        boundary: usize,
        /// That block's input shape.
        input: ActShape,
        /// The previous block's output shape.
        previous_output: ActShape,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NoBlocks => f.write_str("model has no blocks"),
            ModelError::Input { block, model } => {
                write!(f, "block 0 input {block} differs from model input {model}")
            }
            ModelError::Boundary {
                boundary,
                input,
                previous_output,
            } => write!(
                f,
                "boundary {boundary}: block input {input} differs from previous output \
                 {previous_output}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::LayerSpec;

    fn model() -> BlockModel {
        let input = ActShape::new(3, 8, 8);
        let t0 = StackSpec::new(vec![LayerSpec::conv(8, 3, 1)]);
        let s0 = StackSpec::new(vec![LayerSpec::depthwise(3, 3, 1), LayerSpec::pointwise(8)]);
        let b0 = BlockDescriptor::from_stacks("b0", input, &t0, &s0);
        let t1 = StackSpec::new(vec![LayerSpec::conv(16, 3, 2)]);
        let s1 = StackSpec::new(vec![
            LayerSpec::depthwise(8, 3, 2),
            LayerSpec::pointwise(16),
        ]);
        let b1 = BlockDescriptor::from_stacks("b1", b0.out_shape, &t1, &s1);
        BlockModel {
            name: "test".into(),
            input_shape: input,
            blocks: vec![b0, b1],
        }
    }

    #[test]
    fn prefix_macs_monotone() {
        let m = model();
        assert!(m.teacher_prefix_macs(0) < m.teacher_prefix_macs(1));
        assert_eq!(m.teacher_prefix_macs(1), m.teacher_macs());
    }

    #[test]
    fn validate_accepts_consistent_model() {
        assert!(model().validate().is_ok());
    }

    #[test]
    fn validate_rejects_broken_boundary() {
        let mut m = model();
        let previous_output = m.blocks[0].out_shape;
        m.blocks[1].in_shape = ActShape::new(99, 1, 1);
        let why = m.validate().unwrap_err();
        assert_eq!(
            why,
            ModelError::Boundary {
                boundary: 1,
                input: ActShape::new(99, 1, 1),
                previous_output,
            }
        );
        assert_eq!(
            why.to_string(),
            format!(
                "boundary 1: block input 99x1x1 differs from previous output {previous_output}"
            )
        );
    }

    #[test]
    fn validate_rejects_an_empty_model() {
        let m = BlockModel {
            blocks: Vec::new(),
            ..model()
        };
        assert_eq!(m.validate(), Err(ModelError::NoBlocks));
        assert_eq!(ModelError::NoBlocks.to_string(), "model has no blocks");
    }

    #[test]
    fn validate_rejects_a_foreign_input() {
        let m = BlockModel {
            input_shape: ActShape::new(1, 8, 8),
            ..model()
        };
        let why = m.validate().unwrap_err();
        assert_eq!(
            why,
            ModelError::Input {
                block: ActShape::new(3, 8, 8),
                model: ActShape::new(1, 8, 8),
            }
        );
        assert_eq!(
            why.to_string(),
            "block 0 input 3x8x8 differs from model input 1x8x8"
        );
    }

    #[test]
    #[should_panic(expected = "boundary shapes must match")]
    fn mismatched_student_boundary_panics() {
        let input = ActShape::new(3, 8, 8);
        let t = StackSpec::new(vec![LayerSpec::conv(8, 3, 1)]);
        let s = StackSpec::new(vec![LayerSpec::conv(4, 3, 1)]);
        let _ = BlockDescriptor::from_stacks("bad", input, &t, &s);
    }

    #[test]
    fn byte_helpers() {
        let m = model();
        let b = &m.blocks[0];
        assert_eq!(b.boundary_bytes(), b.out_shape.bytes());
        assert_eq!(b.teacher_weight_bytes(), 4 * b.teacher_params);
        assert_eq!(b.student_state_bytes(), 12 * b.student_params);
    }
}
