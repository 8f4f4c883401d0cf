//! Executable miniature models for the functional engine.
//!
//! These are real (CPU-executable) [`BlockNet`]s with the same *structure*
//! as the paper's model pairs — a convolutional teacher, a DS-Conv
//! compression student, and a MixedOp NAS supernet student — scaled down to
//! a few channels so the threaded executor can train them in test time.
//! They exist to demonstrate the paper's Section VII-D claim: Pipe-BD
//! scheduling changes *when* updates happen, never *what* they compute.

use pipebd_nn::{BatchNorm2d, Block, BlockNet, Conv2d, Layer, MixedOp, Relu, Sequential};
use pipebd_tensor::{Activation, Rng64};

/// Configuration for the miniature model family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniConfig {
    /// Number of blocks in teacher and student.
    pub blocks: usize,
    /// Channel width of every block (input is widened from 3 channels by
    /// block 0).
    pub channels: usize,
    /// Whether blocks include batch normalization (the parity tests turn
    /// this off to make runs bitwise comparable across batch shardings).
    pub batch_norm: bool,
}

impl Default for MiniConfig {
    fn default() -> Self {
        MiniConfig {
            blocks: 4,
            channels: 8,
            batch_norm: false,
        }
    }
}

fn teacher_block(cfg: MiniConfig, index: usize, rng: &mut Rng64) -> Block {
    let in_c = if index == 0 { 3 } else { cfg.channels };
    let conv = Conv2d::new(in_c, cfg.channels, 3, 1, 1, rng);
    // The convolution writes the activation itself unless a norm comes
    // between them.
    let layers: Vec<Box<dyn Layer>> = if cfg.batch_norm {
        vec![
            Box::new(conv),
            Box::new(BatchNorm2d::new(cfg.channels)),
            Box::new(Relu::new()),
        ]
    } else {
        vec![Box::new(conv.with_activation(Activation::Relu))]
    };
    Block::new(format!("t{index}"), Sequential::new(layers))
}

/// Builds a miniature pretrained-style teacher: `blocks` conv blocks of
/// uniform width.
pub fn mini_teacher(cfg: MiniConfig, rng: &mut Rng64) -> BlockNet {
    (0..cfg.blocks)
        .map(|i| teacher_block(cfg, i, rng))
        .collect()
}

/// Builds a miniature DS-Conv student with the same block boundaries as
/// [`mini_teacher`] (the compression workload shape).
pub fn mini_student_dsconv(cfg: MiniConfig, rng: &mut Rng64) -> BlockNet {
    (0..cfg.blocks)
        .map(|i| {
            let in_c = if i == 0 { 3 } else { cfg.channels };
            let layers: Vec<Box<dyn Layer>> = vec![
                Box::new(Conv2d::depthwise(in_c, 3, 1, rng).with_activation(Activation::Relu)),
                Box::new(
                    Conv2d::pointwise(in_c, cfg.channels, rng).with_activation(Activation::Relu),
                ),
            ];
            Block::new(format!("s{i}"), Sequential::new(layers))
        })
        .collect()
}

/// Builds a miniature NAS supernet student: each block is a [`MixedOp`]
/// over a 3×3 conv, a 5×5 conv, and a depthwise-separable conv, plus a
/// ReLU (the NAS workload shape, with architecture parameters).
pub fn mini_student_supernet(cfg: MiniConfig, rng: &mut Rng64) -> BlockNet {
    (0..cfg.blocks)
        .map(|i| {
            let in_c = if i == 0 { 3 } else { cfg.channels };
            let candidates: Vec<Box<dyn Layer>> = vec![
                Box::new(Conv2d::new(in_c, cfg.channels, 3, 1, 1, rng)),
                Box::new(Conv2d::new(in_c, cfg.channels, 5, 1, 2, rng)),
                Box::new(Sequential::new(vec![
                    Box::new(Conv2d::depthwise(in_c, 3, 1, rng)),
                    Box::new(Conv2d::pointwise(in_c, cfg.channels, rng)),
                ])),
            ];
            let layers: Vec<Box<dyn Layer>> =
                vec![Box::new(MixedOp::new(candidates)), Box::new(Relu::new())];
            Block::new(format!("n{i}"), Sequential::new(layers))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_nn::{mse_loss, Mode};
    use pipebd_tensor::Tensor;

    #[test]
    fn teacher_and_students_share_boundaries() {
        let cfg = MiniConfig::default();
        let mut rng = Rng64::seed_from_u64(0);
        let mut teacher = mini_teacher(cfg, &mut rng);
        let mut ds = mini_student_dsconv(cfg, &mut rng);
        let mut nas = mini_student_supernet(cfg, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let mut t = x.clone();
        for i in 0..cfg.blocks {
            t = teacher.block_mut(i).forward(&t, Mode::Eval).unwrap();
            let prev = if i == 0 {
                x.clone()
            } else {
                // For shape checking, feed the teacher boundary activation.
                t.clone()
            };
            let d = ds.block_mut(i).forward(&prev, Mode::Eval);
            let n = nas.block_mut(i).forward(&prev, Mode::Eval);
            // Every block (3-channel input for block 0, channel-wide
            // input otherwise) must match the teacher boundary shape.
            assert_eq!(d.unwrap().dims(), t.dims());
            assert_eq!(n.unwrap().dims(), t.dims());
        }
    }

    /// Block 0's distillation loss after 120 SGD steps over its first,
    /// for one seed's teacher, student and input.
    fn block0_loss_ratio(seed: u64) -> f32 {
        let cfg = MiniConfig {
            blocks: 2,
            channels: 6,
            batch_norm: false,
        };
        let mut rng = Rng64::seed_from_u64(seed);
        let mut teacher = mini_teacher(cfg, &mut rng);
        let mut student = mini_student_dsconv(cfg, &mut rng);
        let x = Tensor::randn(&[4, 3, 8, 8], &mut rng);
        let t_out = teacher.block_mut(0).forward(&x, Mode::Eval).unwrap();

        let mut sgd = pipebd_nn::Sgd::new(0.05, 0.9, 0.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let s_out = student.block_mut(0).forward(&x, Mode::Train).unwrap();
            let loss = mse_loss(&s_out, &t_out).unwrap();
            student.block_mut(0).backward(&loss.grad).unwrap();
            sgd.step(student.block_mut(0)).unwrap();
            first.get_or_insert(loss.loss);
            last = loss.loss;
        }
        last / first.unwrap()
    }

    /// Distillation lowers block 0's loss for every seed, and by about
    /// half for a typical one. Halving holds for only about 60 % of seeds,
    /// so a check of it on one seed would pass or fail with the random
    /// stream; the claim is made over the fixed seeds 0..16 instead.
    #[test]
    fn one_distillation_step_reduces_block_loss() {
        let mut ratios: Vec<f32> = (0..16).map(block0_loss_ratio).collect();
        for (seed, &ratio) in ratios.iter().enumerate() {
            assert!(ratio < 1.0, "seed {seed}: the loss rose by {ratio}x");
        }
        ratios.sort_by(f32::total_cmp);
        let median = 0.5 * (ratios[7] + ratios[8]);
        assert!(median <= 0.6, "median loss ratio {median} over seeds 0..16");
    }

    #[test]
    fn supernet_block_has_arch_params() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut nas = mini_student_supernet(MiniConfig::default(), &mut rng);
        let mut has_arch = false;
        nas.block_mut(0).visit_params(&mut |p| {
            has_arch |= p.kind == pipebd_nn::ParamKind::Arch;
        });
        assert!(has_arch);
    }

    #[test]
    fn batch_norm_flag_adds_layers() {
        let mut rng = Rng64::seed_from_u64(3);
        let with = mini_teacher(
            MiniConfig {
                batch_norm: true,
                ..MiniConfig::default()
            },
            &mut rng,
        );
        let without = mini_teacher(MiniConfig::default(), &mut rng);
        assert!(with.block(0).inner().len() > without.block(0).inner().len());
    }
}
