//! A small calculus of layer specifications.
//!
//! The simulator never executes real kernels; it needs, per block, the MAC
//! count, parameter count, activation footprint, kernel-launch count, and
//! boundary shapes. Model builders describe architectures as lists of
//! [`LayerSpec`]s, and this module folds them into those aggregates. The
//! same arithmetic is unit-tested against `pipebd_tensor::Conv2dSpec` so the
//! analytic model and the executable mini models cannot drift apart.

/// Per-sample activation shape in CHW layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActShape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl ActShape {
    /// Creates a CHW shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        ActShape { c, h, w }
    }

    /// Elements per sample.
    pub fn elems(&self) -> u64 {
        (self.c * self.h * self.w) as u64
    }

    /// Bytes per sample at fp32.
    pub fn bytes(&self) -> u64 {
        4 * self.elems()
    }

    /// Spatial positions (`h·w`), the parallelism proxy used by the GPU
    /// occupancy model.
    pub fn positions(&self) -> u64 {
        (self.h * self.w) as u64
    }
}

impl std::fmt::Display for ActShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// One analytic layer in an architecture description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// Grouped 2-D convolution (+ folded bias).
    Conv {
        /// Output channels.
        out_c: usize,
        /// Square kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Channel groups (1 = dense; `in_c` = depthwise).
        groups: usize,
    },
    /// Batch normalization (parameters only; negligible MACs).
    BatchNorm,
    /// ReLU-family activation (no parameters, one kernel).
    Relu,
    /// Max pooling.
    MaxPool {
        /// Window extent.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to `[c, 1, 1]`.
    GlobalAvgPool,
    /// Fully connected layer over the flattened input.
    Linear {
        /// Output features.
        out_features: usize,
    },
    /// Elementwise residual add with the block input (MobileNetV2).
    ResidualAdd,
}

impl LayerSpec {
    /// Depthwise 3×3 shorthand (stride `s`).
    pub fn depthwise(channels: usize, kernel: usize, stride: usize) -> Self {
        LayerSpec::Conv {
            out_c: channels,
            kernel,
            stride,
            padding: kernel / 2,
            groups: channels,
        }
    }

    /// Pointwise 1×1 shorthand.
    pub fn pointwise(out_c: usize) -> Self {
        LayerSpec::Conv {
            out_c,
            kernel: 1,
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }

    /// Dense `k×k` shorthand with same-padding.
    pub fn conv(out_c: usize, kernel: usize, stride: usize) -> Self {
        LayerSpec::Conv {
            out_c,
            kernel,
            stride,
            padding: kernel / 2,
            groups: 1,
        }
    }

    /// Output shape for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (e.g. channels not divisible
    /// by groups); model builders are expected to be correct by
    /// construction, and the unit tests exercise every builder.
    pub fn out_shape(&self, input: ActShape) -> ActShape {
        match *self {
            LayerSpec::Conv {
                out_c,
                kernel,
                stride,
                padding,
                groups,
            } => {
                assert!(
                    input.c % groups == 0 && out_c % groups == 0,
                    "conv groups {groups} incompatible with channels {} -> {out_c}",
                    input.c
                );
                let h = (input.h + 2 * padding - kernel) / stride + 1;
                let w = (input.w + 2 * padding - kernel) / stride + 1;
                ActShape::new(out_c, h, w)
            }
            LayerSpec::BatchNorm | LayerSpec::Relu | LayerSpec::ResidualAdd => input,
            LayerSpec::MaxPool { kernel, stride } => ActShape::new(
                input.c,
                (input.h - kernel) / stride + 1,
                (input.w - kernel) / stride + 1,
            ),
            LayerSpec::GlobalAvgPool => ActShape::new(input.c, 1, 1),
            LayerSpec::Linear { out_features } => ActShape::new(out_features, 1, 1),
        }
    }

    /// Multiply-accumulate operations per sample.
    pub fn macs(&self, input: ActShape) -> u64 {
        match *self {
            LayerSpec::Conv {
                out_c,
                kernel,
                groups,
                ..
            } => {
                let out = self.out_shape(input);
                (out.h * out.w * out_c) as u64 * ((input.c / groups) * kernel * kernel) as u64
            }
            LayerSpec::Linear { out_features } => input.elems() * out_features as u64,
            // Elementwise / pooling work is counted as zero MACs (it is
            // memory-bound; the simulator's byte term covers it).
            _ => 0,
        }
    }

    /// Trainable parameter count.
    pub fn params(&self, input: ActShape) -> u64 {
        match *self {
            LayerSpec::Conv {
                out_c,
                kernel,
                groups,
                ..
            } => (out_c * (input.c / groups) * kernel * kernel + out_c) as u64,
            LayerSpec::BatchNorm => 2 * input.c as u64,
            LayerSpec::Linear { out_features } => {
                input.elems() * out_features as u64 + out_features as u64
            }
            _ => 0,
        }
    }

    /// Kernel launches for one forward pass.
    pub fn kernels(&self) -> u32 {
        1
    }
}

/// A sequence of analytic layers with derived aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackSpec {
    /// The layers, in execution order.
    pub layers: Vec<LayerSpec>,
}

/// Aggregates of a [`StackSpec`] evaluated at a concrete input shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackCost {
    /// Multiply-accumulates per sample (forward).
    pub macs: u64,
    /// Trainable parameters.
    pub params: u64,
    /// Sum of all layer-output elements per sample (activation *traffic*
    /// of one pass; drives the memory-bandwidth time term).
    pub act_elems: u64,
    /// Largest single layer-output per sample (peak *resident* activation;
    /// drives memory capacity accounting).
    pub peak_act_elems: u64,
    /// Kernel launches per forward pass.
    pub kernels: u32,
    /// Output shape.
    pub out_shape: ActShape,
}

impl StackSpec {
    /// Creates a stack from layers.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        StackSpec { layers }
    }

    /// Folds the stack over `input`, producing the cost aggregates.
    pub fn cost(&self, input: ActShape) -> StackCost {
        let mut shape = input;
        let mut macs = 0u64;
        let mut params = 0u64;
        let mut act_elems = 0u64;
        let mut peak_act_elems = 0u64;
        let mut kernels = 0u32;
        for layer in &self.layers {
            macs += layer.macs(shape);
            params += layer.params(shape);
            kernels += layer.kernels();
            shape = layer.out_shape(shape);
            act_elems += shape.elems();
            peak_act_elems = peak_act_elems.max(shape.elems());
        }
        StackCost {
            macs,
            params,
            act_elems,
            peak_act_elems,
            kernels,
            out_shape: shape,
        }
    }

    /// Appends the layers of `other` (builder-style composition).
    pub fn extend(mut self, other: StackSpec) -> Self {
        self.layers.extend(other.layers);
        self
    }
}

/// Emits the layer sequence of a MobileNetV2 inverted-residual bottleneck
/// (expand 1×1 → depthwise k×k → project 1×1, each with BN, ReLU6 on the
/// first two).
pub fn inverted_residual(
    in_c: usize,
    out_c: usize,
    expand: usize,
    kernel: usize,
    stride: usize,
) -> Vec<LayerSpec> {
    let hidden = in_c * expand;
    let mut layers = Vec::new();
    if expand != 1 {
        layers.push(LayerSpec::pointwise(hidden));
        layers.push(LayerSpec::BatchNorm);
        layers.push(LayerSpec::Relu);
    }
    layers.push(LayerSpec::depthwise(hidden, kernel, stride));
    layers.push(LayerSpec::BatchNorm);
    layers.push(LayerSpec::Relu);
    layers.push(LayerSpec::pointwise(out_c));
    layers.push(LayerSpec::BatchNorm);
    if stride == 1 && in_c == out_c {
        layers.push(LayerSpec::ResidualAdd);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_tensor::Conv2dSpec;

    #[test]
    fn conv_shape_matches_tensor_crate() {
        let input = ActShape::new(3, 32, 32);
        let spec = LayerSpec::conv(16, 3, 2);
        let out = spec.out_shape(input);
        let tspec = Conv2dSpec::dense(3, 16, 3, 2, 1);
        assert_eq!(out.h, tspec.out_extent(32).unwrap());
        assert_eq!(out.w, tspec.out_extent(32).unwrap());
    }

    #[test]
    fn conv_macs_match_tensor_crate_flops() {
        let input = ActShape::new(8, 16, 16);
        let spec = LayerSpec::conv(16, 3, 1);
        let tspec = Conv2dSpec::dense(8, 16, 3, 1, 1);
        // tensor crate counts 2 ops per MAC.
        assert_eq!(2 * spec.macs(input), tspec.flops_per_sample(16, 16));
    }

    #[test]
    fn depthwise_macs_match_tensor_crate() {
        let input = ActShape::new(8, 16, 16);
        let spec = LayerSpec::depthwise(8, 3, 1);
        let tspec = Conv2dSpec::depthwise(8, 3, 1, 1);
        assert_eq!(2 * spec.macs(input), tspec.flops_per_sample(16, 16));
    }

    #[test]
    fn linear_params_and_macs() {
        let input = ActShape::new(512, 1, 1);
        let spec = LayerSpec::Linear { out_features: 10 };
        assert_eq!(spec.macs(input), 5120);
        assert_eq!(spec.params(input), 5130);
        assert_eq!(spec.out_shape(input), ActShape::new(10, 1, 1));
    }

    #[test]
    fn stack_cost_accumulates() {
        let stack = StackSpec::new(vec![
            LayerSpec::conv(4, 3, 1),
            LayerSpec::BatchNorm,
            LayerSpec::Relu,
            LayerSpec::GlobalAvgPool,
            LayerSpec::Linear { out_features: 2 },
        ]);
        let input = ActShape::new(2, 8, 8);
        let cost = stack.cost(input);
        assert_eq!(cost.out_shape, ActShape::new(2, 1, 1));
        // conv: 8*8*4*2*9 = 4608 MACs; linear: 4*2 = 8.
        assert_eq!(cost.macs, 4608 + 8);
        // conv params 4*2*9+4=76, bn 8, linear 4*2+2=10.
        assert_eq!(cost.params, 76 + 8 + 10);
        assert_eq!(cost.kernels, 5);
        // act elems: conv out 256, bn 256, relu 256, gap 4, linear 2.
        assert_eq!(cost.act_elems, 256 * 3 + 4 + 2);
    }

    #[test]
    fn inverted_residual_has_residual_only_when_legal() {
        let with = inverted_residual(16, 16, 6, 3, 1);
        assert!(with.iter().any(|l| matches!(l, LayerSpec::ResidualAdd)));
        let without_stride = inverted_residual(16, 16, 6, 3, 2);
        assert!(!without_stride
            .iter()
            .any(|l| matches!(l, LayerSpec::ResidualAdd)));
        let without_chan = inverted_residual(16, 24, 6, 3, 1);
        assert!(!without_chan
            .iter()
            .any(|l| matches!(l, LayerSpec::ResidualAdd)));
    }

    #[test]
    fn inverted_residual_shape_flow() {
        let stack = StackSpec::new(inverted_residual(16, 24, 6, 5, 2));
        let cost = stack.cost(ActShape::new(16, 32, 32));
        assert_eq!(cost.out_shape, ActShape::new(24, 16, 16));
        assert!(cost.macs > 0);
    }

    #[test]
    fn expand_one_skips_expansion_conv() {
        let layers = inverted_residual(32, 16, 1, 3, 1);
        // depthwise + bn + relu + pointwise + bn = 5 layers (no expand).
        assert_eq!(layers.len(), 5);
    }
}
