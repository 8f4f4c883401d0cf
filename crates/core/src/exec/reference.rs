//! Golden sequential blockwise distillation (the mathematical definition,
//! scheduling-free).
//!
//! Every parallel strategy must reproduce these results: the per-block
//! objective depends only on the teacher activations (fixed) and the
//! block's own parameters, so the training trajectory is schedule-
//! independent — the property Pipe-BD exploits.
//!
//! The loop runs on one scoped thread per call (`on_loop_thread`) with the
//! run's compute pool installed there, so the pool's buffer recycler hands
//! each step the activations the last step dropped; the thread ends with
//! the run, as a device thread of the threaded executor does, and the
//! caller drops the pool — and its idle buffers — after that.

use pipebd_data::SyntheticImageDataset;
use pipebd_nn::{mse_loss, BlockNet, Layer, Mode, Sgd};
use pipebd_tensor::parallel::{self, ComputePool};
use pipebd_tensor::TensorError;

use super::{ExecError, FuncConfig, FuncOutcome, RunSpec};
use crate::checkpoint::Checkpoint;

/// Trains `student` against `teacher` sequentially: for every step, run
/// the teacher forward once, then train each student block on its boundary
/// pair.
///
/// The whole run executes on a thread of its own (a panic in it is
/// re-raised here) under a compute pool of `cfg.pool_budget()` lanes (a
/// budget of 1 installs an inline pool, pinning every kernel serial
/// regardless of the process default). By the tensor crate's
/// determinism contract this never changes a single bit of the result —
/// the conformance tests compare outcomes across budgets to prove it.
///
/// `cfg` must be a run the threaded executor would accept too (plan and
/// devices included, though this executor runs neither): the oracle and
/// the executors it checks share one accepted set.
///
/// # Errors
///
/// Returns [`ExecError::Spec`] for a config that is not a run, and
/// [`ExecError::Tensor`] for shape errors (mismatched teacher and student
/// boundary shapes).
pub fn run(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
) -> Result<FuncOutcome, ExecError> {
    let spec = RunSpec::new(teacher, student, cfg)?;
    replay(teacher, student, data, &spec, None)
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
/// As [`run`], and [`ExecError::Checkpoint`] for a checkpoint the resume
/// gate refuses (`Checkpoint::check_resume`): one that does not fit the
/// run or the student, checked before the loop thread starts.
pub fn resume(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
    from: &Checkpoint,
) -> Result<FuncOutcome, ExecError> {
    let spec = RunSpec::new(teacher, student, cfg)?;
    replay(teacher, student, data, &spec, Some(from))
}

/// [`run`] (`from` is `None`) or [`resume`] of an accepted spec, under a
/// compute pool of `spec.cfg.pool_budget()` lanes that outlives the loop
/// thread.
pub(super) fn replay(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    spec: &RunSpec,
    from: Option<&Checkpoint>,
) -> Result<FuncOutcome, ExecError> {
    if let Some(from) = from {
        from.check_resume(spec, student)?;
    }
    let pool = ComputePool::new(spec.cfg.pool_budget());
    serial_semantics(teacher, student, data, spec, from, &pool)
}

/// The one body behind [`replay`]: fresh optimizer state, optionally
/// overwritten from a checkpoint, then [`train_range`] from the
/// checkpoint's round (or 0) on a thread of its own, under `pool` (the
/// caller keeps it until that thread is gone).
fn serial_semantics(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    spec: &RunSpec,
    from: Option<&Checkpoint>,
    pool: &ComputePool,
) -> Result<FuncOutcome, ExecError> {
    let cfg = &spec.cfg;
    let b = spec.blocks();
    let mut teacher = teacher.clone();
    let mut student: BlockNet = (0..b)
        .map(|i| super::private_clone(student.block(i)))
        .collect();
    let mut optims: Vec<Sgd> = (0..b)
        .map(|_| Sgd::new(cfg.lr, cfg.momentum, 0.0))
        .collect();
    let mut losses = vec![Vec::with_capacity(cfg.steps); b];
    if let Some(from) = from {
        for (i, state) in from.blocks.iter().enumerate() {
            losses[i] = state.restore(student.block_mut(i), &mut optims[i]);
        }
    }
    let start = from.map_or(0, |c| c.round);
    // The teacher clone and the optimizers end with the loop thread; the
    // trained student and the losses come back by move.
    let (mut student, losses) = on_loop_thread(move || {
        parallel::install(pool, || {
            train_range(
                &mut teacher,
                &mut student,
                &mut optims,
                &mut losses,
                data,
                cfg,
                start,
            )
        })
        .map(|()| (student, losses))
    })?;

    let params = (0..b)
        .map(|i| pipebd_nn::snapshot_params(student.block_mut(i)))
        .collect();
    Ok(FuncOutcome { params, losses })
}

/// Runs `f` on a thread that ends with it, re-raising its panic here.
/// What a long-lived caller thread frees stays in that thread's malloc
/// arena, under whatever the caller still holds (RSS 23.5 MiB before a
/// run's buffers were freed there, 23.5 after); what was allocated on a
/// thread that has ended with the run goes back to the system.
fn on_loop_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let loop_thread = s.spawn(f);
        loop_thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
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
    use crate::exec::{threaded, SpecError};
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
    use pipebd_nn::{Block, Param, Sequential};
    use pipebd_tensor::{Rng64, Tensor};

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

    /// A workload whose activations (8 x 8 x 32 x 32 floats) are above the
    /// buffer recycler's floor; the tests above never reach it.
    fn recycling_setup() -> (BlockNet, BlockNet, SyntheticImageDataset) {
        let cfg = MiniConfig {
            blocks: 2,
            channels: 8,
            batch_norm: false,
        };
        let mut rng = Rng64::seed_from_u64(7);
        let teacher = mini_teacher(cfg, &mut rng);
        let student = mini_student_dsconv(cfg, &mut rng);
        (teacher, student, SyntheticImageDataset::mini(64, 32, 4, 9))
    }

    #[test]
    fn recycled_steady_state_allocates_nothing() {
        let (teacher, student, data) = recycling_setup();
        let stats_of = |steps: usize| {
            let cfg = FuncConfig {
                steps,
                batch: 8,
                pool_size: Some(1),
                ..FuncConfig::default()
            };
            let spec = RunSpec::new(&teacher, &student, &cfg).unwrap();
            let pool = ComputePool::new(1);
            serial_semantics(&teacher, &student, &data, &spec, None, &pool).unwrap();
            pool.recycle_stats()
        };
        let (short, long) = (stats_of(4), stats_of(12));
        assert!(short.fresh > 0, "nothing reached the recycler: {short:?}");
        assert_eq!(long.fresh, short.fresh, "steps 5..12 allocated");
        assert!(long.reused > 2 * short.reused);
        assert!(long.idle_peak_bytes <= short.idle_peak_bytes);
    }

    /// A layer that panics in its first forward pass.
    #[derive(Debug, Clone)]
    struct Boom;

    impl Layer for Boom {
        fn forward(&mut self, _: &Tensor, _: Mode) -> pipebd_tensor::Result<Tensor> {
            panic!("boom in the loop")
        }
        fn backward(&mut self, _: &Tensor) -> pipebd_tensor::Result<Tensor> {
            unreachable!("forward panics first")
        }
        fn visit_params(&mut self, _: &mut dyn FnMut(&mut Param)) {}
        fn name(&self) -> &'static str {
            "boom"
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn recycled_run_reraises_the_loop_threads_panic() {
        let (teacher, _, data) = setup();
        let boom = || Block::new("boom", Sequential::new(vec![Box::new(Boom)]));
        let student: BlockNet = (0..teacher.num_blocks()).map(|_| boom()).collect();
        // Nothing is installed on a test thread, so a pool left installed
        // shows.
        let before = parallel::active_width();
        let cfg = FuncConfig {
            steps: 2,
            pool_size: Some(before + 1),
            ..FuncConfig::default()
        };
        let attempt = std::panic::AssertUnwindSafe(|| run(&teacher, &student, &data, &cfg));
        let panic = std::panic::catch_unwind(attempt).expect_err("the loop's panic must surface");
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"boom in the loop"),
            "the payload is the loop's own"
        );
        assert_eq!(parallel::active_width(), before);
        // The same call without the panic leaves the caller as it was too.
        let (teacher, student, data) = setup();
        run(&teacher, &student, &data, &cfg).unwrap();
        assert_eq!(parallel::active_width(), before);
    }

    /// A mini teacher of `teacher` blocks and a mini student of `student`.
    fn nets(teacher: usize, student: usize) -> (BlockNet, BlockNet) {
        let mini = |blocks| MiniConfig {
            blocks,
            channels: 4,
            batch_norm: false,
        };
        let mut rng = Rng64::seed_from_u64(3);
        let t = mini_teacher(mini(teacher), &mut rng);
        (t, mini_student_dsconv(mini(student), &mut rng))
    }

    /// Both executors' answers for one config: the oracle's and the
    /// threaded one's.
    fn both(
        teacher: &BlockNet,
        student: &BlockNet,
        cfg: &FuncConfig,
    ) -> [Result<FuncOutcome, ExecError>; 2] {
        let data = SyntheticImageDataset::mini(16, 8, 4, 9);
        [
            run(teacher, student, &data, cfg),
            threaded::run(teacher, student, &data, cfg),
        ]
    }

    #[test]
    fn both_executors_refuse_unequal_block_counts() {
        // The oracle refuses both as the pipeline does: 3 over 2 would reach
        // for a student block that is not there, 2 over 3 would train two
        // blocks and drop the third.
        for (teacher, student) in [(3, 2), (2, 3)] {
            let (t, s) = nets(teacher, student);
            let cfg = FuncConfig {
                devices: 2,
                steps: 1,
                pool_size: Some(1),
                ..FuncConfig::default()
            };
            let refused = SpecError::BlockCount { teacher, student };
            for end in both(&t, &s, &cfg) {
                assert!(
                    matches!(&end, Err(ExecError::Spec(e)) if *e == refused),
                    "{teacher} over {student}: {:?}",
                    end.map(|o| o.losses)
                );
            }
        }
    }

    #[test]
    fn both_executors_refuse_an_empty_batch_and_run_zero_steps() {
        let (t, s) = nets(2, 2);
        let cfg = FuncConfig {
            devices: 2,
            steps: 2,
            batch: 0,
            pool_size: Some(1),
            ..FuncConfig::default()
        };
        for end in both(&t, &s, &cfg) {
            assert!(
                matches!(end, Err(ExecError::Spec(SpecError::EmptyBatch))),
                "{:?}",
                end.map(|o| o.losses)
            );
        }
        // Zero steps is a run: nothing trains, and the student comes back
        // as given.
        let cfg = FuncConfig {
            steps: 0,
            batch: 8,
            ..cfg
        };
        let [oracle, threaded] = both(&t, &s, &cfg).map(Result::unwrap);
        assert_eq!(oracle.losses, vec![Vec::<f32>::new(); 2]);
        assert_eq!(threaded.max_param_diff(&oracle), 0.0);
        let mut given = s.clone();
        let given: Vec<_> = (0..2)
            .map(|i| pipebd_nn::snapshot_params(given.block_mut(i)))
            .collect();
        assert_eq!(oracle.params, given);
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
