//! Golden sequential blockwise distillation (the mathematical definition,
//! scheduling-free).
//!
//! Every parallel strategy must reproduce these results: the per-block
//! objective depends only on the teacher activations (fixed) and the
//! block's own parameters, so the training trajectory is schedule-
//! independent — the property Pipe-BD exploits.

use pipebd_data::SyntheticImageDataset;
use pipebd_nn::{mse_loss, BlockNet, Layer, Mode, Sgd};
use pipebd_tensor::parallel::{self, ComputePool};
use pipebd_tensor::TensorError;

use super::{ExecError, FuncConfig, FuncOutcome};
use crate::checkpoint::Checkpoint;

/// Trains `student` against `teacher` sequentially: for every step, run
/// the teacher forward once, then train each student block on its boundary
/// pair.
///
/// The whole run executes under a compute pool of `cfg.pool_budget()`
/// lanes (a budget of 1 installs an inline pool, pinning every kernel
/// serial regardless of the process default). By the tensor crate's
/// determinism contract this never changes a single bit of the result —
/// the conformance tests compare outcomes across budgets to prove it.
///
/// # Errors
///
/// Propagates tensor shape errors (which indicate mismatched teacher and
/// student boundary shapes).
pub fn run(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
) -> Result<FuncOutcome, TensorError> {
    serial_semantics(teacher, student, data, cfg, None).map_err(|e| match e {
        ExecError::Tensor(e) => e,
        other => unreachable!("a run from scratch restores no checkpoint: {other}"),
    })
}

/// Resumes the sequential semantics from a checkpoint: restores every
/// block's parameters, velocities, and loss history, then trains steps
/// `from.round..cfg.steps`. This is the recovery protocol's last-resort
/// fallback when the threaded executor exhausts its restore budget — a
/// single thread cannot lose a rank.
///
/// Bitwise equivalent to an uninterrupted [`run`]: the restored state is
/// exactly what the uninterrupted run held after `from.round` steps, and
/// the remaining steps replay the same per-index-deterministic batches.
///
/// # Errors
///
/// Returns [`ExecError::Checkpoint`] for a structurally mismatched
/// checkpoint, or [`ExecError::Tensor`] for shape errors.
pub fn resume(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
    from: &Checkpoint,
) -> Result<FuncOutcome, ExecError> {
    from.validate_resume(teacher.num_blocks(), cfg)?;
    serial_semantics(teacher, student, data, cfg, Some(from))
}

/// The one body behind [`run`] and [`resume`]: fresh optimizer state,
/// optionally overwritten from a checkpoint, then [`train_range`] from
/// the checkpoint's round (or 0) under the run's compute pool.
fn serial_semantics(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
    from: Option<&Checkpoint>,
) -> Result<FuncOutcome, ExecError> {
    let mut teacher = teacher.clone();
    let mut student = student.clone();
    let b = teacher.num_blocks();
    let mut optims: Vec<Sgd> = (0..b)
        .map(|_| Sgd::new(cfg.lr, cfg.momentum, 0.0))
        .collect();
    let mut losses = vec![Vec::with_capacity(cfg.steps); b];
    if let Some(from) = from {
        for i in 0..b {
            losses[i] = from.restore_into(i, student.block_mut(i), &mut optims[i])?;
        }
    }
    let start = from.map_or(0, |c| c.round);
    let pool = ComputePool::new(cfg.pool_budget());
    parallel::install(&pool, || {
        train_range(
            &mut teacher,
            &mut student,
            &mut optims,
            &mut losses,
            data,
            cfg,
            start,
        )
    })?;

    let params = (0..b)
        .map(|i| pipebd_nn::snapshot_params(student.block_mut(i)))
        .collect();
    Ok(FuncOutcome { params, losses })
}

/// The shared training loop: steps `start..cfg.steps` of the sequential
/// semantics (one teacher pass per step, per-block student updates).
fn train_range(
    teacher: &mut BlockNet,
    student: &mut BlockNet,
    optims: &mut [Sgd],
    losses: &mut [Vec<f32>],
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
    start: usize,
) -> Result<(), TensorError> {
    let b = teacher.num_blocks();
    for step in start..cfg.steps {
        let (x, _labels) = data.batch(step as u64 * cfg.batch as u64, cfg.batch);
        // One teacher pass, tapping every boundary (no redundancy in the
        // math; redundancy is purely a scheduling artifact).
        let boundaries = teacher.forward_collect(&x, Mode::Eval)?;
        for i in 0..b {
            let input = if i == 0 { &x } else { &boundaries[i - 1] };
            let s_out = student.block_mut(i).forward(input, Mode::Train)?;
            let loss = mse_loss(&s_out, &boundaries[i])?;
            student.block_mut(i).backward_params(&loss.grad)?;
            optims[i].step(student.block_mut(i))?;
            pipebd_nn::zero_grad(student.block_mut(i));
            losses[i].push(loss.loss);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
    use pipebd_tensor::Rng64;

    fn setup() -> (BlockNet, BlockNet, SyntheticImageDataset) {
        let cfg = MiniConfig {
            blocks: 3,
            channels: 6,
            batch_norm: false,
        };
        let mut rng = Rng64::seed_from_u64(42);
        let teacher = mini_teacher(cfg, &mut rng);
        let student = mini_student_dsconv(cfg, &mut rng);
        let data = SyntheticImageDataset::mini(64, 8, 4, 9);
        (teacher, student, data)
    }

    #[test]
    fn losses_decrease_for_every_block() {
        let (teacher, student, data) = setup();
        let cfg = FuncConfig {
            steps: 40,
            batch: 8,
            ..FuncConfig::default()
        };
        let out = run(&teacher, &student, &data, &cfg).unwrap();
        for (i, l) in out.losses.iter().enumerate() {
            let first: f32 = l[..5].iter().sum::<f32>() / 5.0;
            let last: f32 = l[l.len() - 5..].iter().sum::<f32>() / 5.0;
            assert!(
                last < first,
                "block {i} loss did not decrease: {first} -> {last}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (teacher, student, data) = setup();
        let cfg = FuncConfig {
            steps: 5,
            ..FuncConfig::default()
        };
        let a = run(&teacher, &student, &data, &cfg).unwrap();
        let b = run(&teacher, &student, &data, &cfg).unwrap();
        assert_eq!(a.max_param_diff(&b), 0.0, "reference must be bit-stable");
    }

    #[test]
    fn inputs_are_not_mutated() {
        let (teacher, student, data) = setup();
        let cfg = FuncConfig {
            steps: 2,
            ..FuncConfig::default()
        };
        let mut teacher_clone = teacher.clone();
        let _ = run(&teacher, &student, &data, &cfg).unwrap();
        // Teacher still produces identical outputs afterwards.
        let (x, _) = data.batch(0, 4);
        let before = teacher_clone.forward_collect(&x, Mode::Eval).unwrap();
        let mut teacher_again = teacher.clone();
        let after = teacher_again.forward_collect(&x, Mode::Eval).unwrap();
        for (a, b) in before.iter().zip(after.iter()) {
            assert_eq!(a, b);
        }
    }
}
