//! Workload definitions: a model pair plus a dataset plus training-loop
//! structure.

use crate::arch::ActShape;
use crate::dataset::DatasetSpec;
use crate::descriptor::{BlockDescriptor, BlockModel};
use crate::mobilenet_v2::InputVariant;
use crate::proxyless::nas_block_model;
use crate::vgg16::compression_block_model;

/// The two blockwise-distillation applications the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Blockwise NAS (DNA-style supernet search).
    Nas,
    /// Model compression (layer replacement distillation).
    Compression,
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::Nas => write!(f, "NAS"),
            TaskKind::Compression => write!(f, "Compression"),
        }
    }
}

/// A complete workload: model pair, dataset, and step structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which application this is.
    pub task: TaskKind,
    /// Loading profile of the dataset.
    pub dataset: DatasetSpec,
    /// The blockwise teacher/student pair.
    pub model: BlockModel,
    /// Forward/backward rounds per optimizer step. NAS alternates an
    /// architecture round and a weight round (the paper notes each round is
    /// scheduled like an ordinary step), so NAS = 2, compression = 1.
    pub rounds_per_step: u32,
}

impl Workload {
    /// NAS on CIFAR-10 (MobileNetV2 teacher → ProxylessNAS supernet).
    pub fn nas_cifar10() -> Self {
        Workload {
            task: TaskKind::Nas,
            dataset: DatasetSpec::cifar10(),
            model: nas_block_model(InputVariant::Cifar),
            rounds_per_step: 2,
        }
    }

    /// NAS on ImageNet.
    pub fn nas_imagenet() -> Self {
        Workload {
            task: TaskKind::Nas,
            dataset: DatasetSpec::imagenet(),
            model: nas_block_model(InputVariant::ImageNet),
            rounds_per_step: 2,
        }
    }

    /// Model compression on CIFAR-10 (VGG-16 → DS-Conv).
    pub fn compression_cifar10() -> Self {
        Workload {
            task: TaskKind::Compression,
            dataset: DatasetSpec::cifar10(),
            model: compression_block_model(InputVariant::Cifar),
            rounds_per_step: 1,
        }
    }

    /// Model compression on ImageNet.
    pub fn compression_imagenet() -> Self {
        Workload {
            task: TaskKind::Compression,
            dataset: DatasetSpec::imagenet(),
            model: compression_block_model(InputVariant::ImageNet),
            rounds_per_step: 1,
        }
    }

    /// A tiny synthetic workload for unit tests and examples: `blocks`
    /// uniform blocks on a small image, with an optional heavy first block
    /// (mimicking the ImageNet block-0 imbalance).
    pub fn synthetic(blocks: usize, heavy_first: bool) -> Self {
        let input = ActShape::new(3, 16, 16);
        let mut descs = Vec::with_capacity(blocks);
        let mut shape = input;
        for i in 0..blocks {
            let scale = if heavy_first && i == 0 { 8 } else { 1 };
            let out_shape = shape;
            descs.push(BlockDescriptor {
                name: format!("s{i}"),
                in_shape: shape,
                out_shape,
                teacher_macs: 1_000_000 * scale,
                teacher_params: 10_000,
                teacher_kernels: 4,
                teacher_act_elems: 2 * shape.elems(),
                teacher_peak_act_elems: shape.elems(),
                student_macs: 3_000_000 * scale,
                student_params: 20_000,
                student_kernels: 8,
                student_act_elems: 4 * shape.elems(),
                student_peak_act_elems: 4 * shape.elems(),
            });
            shape = out_shape;
        }
        Workload {
            task: TaskKind::Compression,
            dataset: DatasetSpec::mini(4096, 16, 4),
            model: BlockModel {
                name: "synthetic".into(),
                input_shape: input,
                blocks: descs,
            },
            rounds_per_step: 1,
        }
    }

    /// Number of blocks `B`.
    pub fn num_blocks(&self) -> usize {
        self.model.num_blocks()
    }

    /// A short identifier like `"NAS/cifar10"` used in reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.task, self.dataset.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_workloads_construct_and_validate() {
        for w in [
            Workload::nas_cifar10(),
            Workload::nas_imagenet(),
            Workload::compression_cifar10(),
            Workload::compression_imagenet(),
        ] {
            w.model.validate().expect("model must validate");
            assert!(w.num_blocks() >= 6);
        }
    }

    #[test]
    fn nas_runs_two_rounds_per_step() {
        assert_eq!(Workload::nas_cifar10().rounds_per_step, 2);
        assert_eq!(Workload::compression_cifar10().rounds_per_step, 1);
    }

    #[test]
    fn synthetic_heavy_first_block() {
        let w = Workload::synthetic(4, true);
        assert!(w.model.blocks[0].teacher_macs > w.model.blocks[1].teacher_macs);
        w.model.validate().unwrap();
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Workload::nas_cifar10().label(), "NAS/cifar10");
        assert_eq!(
            Workload::compression_imagenet().label(),
            "Compression/imagenet"
        );
    }
}
