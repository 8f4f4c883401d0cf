//! MobileNetV2 teacher, split into the six blocks the NAS workload
//! distills (the paper's Fig. 5 schedules show blocks 0–5).
//!
//! The ImageNet variant follows the standard MobileNetV2-1.0 configuration
//! (Sandler et al., CVPR 2018); the CIFAR-10 variant uses the usual
//! small-input adaptation (stride-1 stem, reduced early downsampling).

use crate::arch::{inverted_residual, ActShape, LayerSpec, StackSpec};

/// Which input regime a model variant targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputVariant {
    /// 3×32×32 inputs (CIFAR-10).
    Cifar,
    /// 3×224×224 inputs (ImageNet).
    ImageNet,
}

impl InputVariant {
    /// Model input shape for this variant.
    pub fn input_shape(&self) -> ActShape {
        match self {
            InputVariant::Cifar => ActShape::new(3, 32, 32),
            InputVariant::ImageNet => ActShape::new(3, 224, 224),
        }
    }

    /// Classifier width for this variant.
    pub fn classes(&self) -> usize {
        match self {
            InputVariant::Cifar => 10,
            InputVariant::ImageNet => 1000,
        }
    }
}

/// One MobileNetV2 bottleneck stage: `n` inverted residuals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Expansion ratio `t`.
    pub expand: usize,
    /// Output channels `c`.
    pub out_c: usize,
    /// Repeat count `n`.
    pub repeats: usize,
    /// Stride of the first repeat `s`.
    pub stride: usize,
}

/// The canonical MobileNetV2 stage table, with strides adapted per variant.
pub fn stages(variant: InputVariant) -> Vec<Stage> {
    // (t, c, n, s) from the MobileNetV2 paper; CIFAR keeps resolution in
    // the early network (strides 1) as is standard for 32×32 inputs.
    let s = match variant {
        InputVariant::ImageNet => [1, 2, 2, 2, 1, 2, 1],
        InputVariant::Cifar => [1, 1, 2, 2, 1, 2, 1],
    };
    vec![
        Stage {
            expand: 1,
            out_c: 16,
            repeats: 1,
            stride: s[0],
        },
        Stage {
            expand: 6,
            out_c: 24,
            repeats: 2,
            stride: s[1],
        },
        Stage {
            expand: 6,
            out_c: 32,
            repeats: 3,
            stride: s[2],
        },
        Stage {
            expand: 6,
            out_c: 64,
            repeats: 4,
            stride: s[3],
        },
        Stage {
            expand: 6,
            out_c: 96,
            repeats: 3,
            stride: s[4],
        },
        Stage {
            expand: 6,
            out_c: 160,
            repeats: 3,
            stride: s[5],
        },
        Stage {
            expand: 6,
            out_c: 320,
            repeats: 1,
            stride: s[6],
        },
    ]
}

fn stage_layers(in_c: usize, stage: Stage, kernel: usize) -> (Vec<LayerSpec>, usize) {
    let mut layers = Vec::new();
    let mut cur = in_c;
    for r in 0..stage.repeats {
        let stride = if r == 0 { stage.stride } else { 1 };
        layers.extend(inverted_residual(
            cur,
            stage.out_c,
            stage.expand,
            kernel,
            stride,
        ));
        cur = stage.out_c;
    }
    (layers, cur)
}

/// Builds the six teacher block stacks of MobileNetV2 for a variant.
///
/// Block boundaries follow the DNA-style split the paper adopts:
///
/// | block | content                                  |
/// |-------|------------------------------------------|
/// | 0     | stem conv + stage 1 (16)                 |
/// | 1     | stage 2 (24)                             |
/// | 2     | stage 3 (32)                             |
/// | 3     | stage 4 (64)                             |
/// | 4     | stage 5 (96)                             |
/// | 5     | stage 6 (160) + stage 7 (320) + head     |
///
/// The head (1×1 conv to 1280, global pool, classifier) lives in block 5.
pub fn teacher_blocks(variant: InputVariant) -> Vec<StackSpec> {
    let st = stages(variant);
    let stem_stride = match variant {
        InputVariant::ImageNet => 2,
        InputVariant::Cifar => 1,
    };
    let mut blocks = Vec::with_capacity(6);

    // Block 0: stem + stage 1.
    let mut b0 = vec![
        LayerSpec::conv(32, 3, stem_stride),
        LayerSpec::BatchNorm,
        LayerSpec::Relu,
    ];
    let (l, mut cur) = stage_layers(32, st[0], 3);
    b0.extend(l);
    blocks.push(StackSpec::new(b0));

    // Blocks 1-4: stages 2-5.
    for stage in &st[1..5] {
        let (l, c) = stage_layers(cur, *stage, 3);
        cur = c;
        blocks.push(StackSpec::new(l));
    }

    // Block 5: stages 6-7 + head.
    let (mut b5, c) = stage_layers(cur, st[5], 3);
    let (l, c2) = stage_layers(c, st[6], 3);
    b5.extend(l);
    b5.push(LayerSpec::pointwise(1280));
    b5.push(LayerSpec::BatchNorm);
    b5.push(LayerSpec::Relu);
    b5.push(LayerSpec::GlobalAvgPool);
    b5.push(LayerSpec::Linear {
        out_features: variant.classes(),
    });
    debug_assert_eq!(c2, 320);
    blocks.push(StackSpec::new(b5));

    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(variant: InputVariant) -> (u64, u64) {
        let mut shape = variant.input_shape();
        let mut macs = 0;
        let mut params = 0;
        for b in teacher_blocks(variant) {
            let c = b.cost(shape);
            macs += c.macs;
            params += c.params;
            shape = c.out_shape;
        }
        (macs, params)
    }

    #[test]
    fn imagenet_costs_near_published() {
        let (macs, params) = total(InputVariant::ImageNet);
        // Published MobileNetV2-1.0: ~300M MACs, ~3.5M params
        // (paper Table II: 300.77M "FLOPs", 3.50M params).
        assert!(
            (250_000_000..360_000_000).contains(&macs),
            "ImageNet MACs {macs}"
        );
        assert!((3_000_000..4_000_000).contains(&params), "params {params}");
    }

    #[test]
    fn cifar_costs_near_published() {
        let (macs, params) = total(InputVariant::Cifar);
        // Paper Table II: 87.98M "FLOPs", 2.24M params for the CIFAR teacher.
        assert!(
            (60_000_000..120_000_000).contains(&macs),
            "CIFAR MACs {macs}"
        );
        assert!((2_000_000..2_600_000).contains(&params), "params {params}");
    }

    #[test]
    fn six_blocks_with_expected_boundaries() {
        let blocks = teacher_blocks(InputVariant::ImageNet);
        assert_eq!(blocks.len(), 6);
        let mut shape = InputVariant::ImageNet.input_shape();
        let expected_c = [16, 24, 32, 64, 96, 1000];
        let expected_hw = [112, 56, 28, 14, 14, 1];
        for (i, b) in blocks.iter().enumerate() {
            let c = b.cost(shape);
            shape = c.out_shape;
            assert_eq!(shape.c, expected_c[i], "block {i} channels");
            assert_eq!(shape.h, expected_hw[i], "block {i} spatial");
        }
    }

    #[test]
    fn cifar_keeps_early_resolution() {
        let blocks = teacher_blocks(InputVariant::Cifar);
        let mut shape = InputVariant::Cifar.input_shape();
        let c0 = blocks[0].cost(shape);
        shape = c0.out_shape;
        assert_eq!(shape.h, 32, "CIFAR stem must not downsample");
        let c1 = blocks[1].cost(shape);
        assert_eq!(c1.out_shape.h, 32);
    }

    #[test]
    fn block0_has_largest_activation_footprint_on_imagenet() {
        // The paper's Fig. 5/Fig. 7 discussion: block 0 is the heavy block
        // on ImageNet because of the 224x224 spatial extent. MobileNetV2
        // balances MACs across stages by design, so the dominance shows up
        // in the activation footprint (memory traffic and buffer sizes),
        // which combined with the supernet student drives block-0 time.
        let blocks = teacher_blocks(InputVariant::ImageNet);
        let mut shape = InputVariant::ImageNet.input_shape();
        let mut boundaries = Vec::new();
        for b in &blocks {
            let c = b.cost(shape);
            shape = c.out_shape;
            boundaries.push(shape.elems());
        }
        let b0 = boundaries[0];
        assert!(
            boundaries[1..].iter().all(|&a| a < b0),
            "block 0 should emit the largest boundary activation: {boundaries:?}"
        );
    }
}
