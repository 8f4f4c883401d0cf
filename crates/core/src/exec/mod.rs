//! The functional executors: Algorithm 1 of the paper, with OS threads as
//! devices and channels as the PCIe relays.
//!
//! # Reference vs. threaded equivalence
//!
//! This module exists to demonstrate the paper's Section VII-D claim
//! mechanically: Pipe-BD reschedules *when* things execute but never
//! changes *what* is computed, so every strategy reaches the same trained
//! student. The [`mod@reference`] module provides the golden sequential
//! semantics; [`threaded`] runs the real multi-threaded pipeline; the
//! parity tests compare final parameters. The guarantees, in decreasing
//! strength:
//!
//! * **Bitwise** — any plan whose stages all have width 1 (pure teacher
//!   relaying, with or without decoupled updates) produces parameters and
//!   losses bit-identical to [`reference::run`], because every float op
//!   happens in the same order on the same values.
//! * **Near-exact** — plans with widened stages (AHD batch splitting)
//!   average shard gradients, which reorders float summation; parity is
//!   then bounded by accumulation error (the tests use `1e-4`), not
//!   scheduling. Caveat: this bound assumes per-sample layers. A
//!   batch-statistics layer (`BatchNorm2d` in `Mode::Train`) normalizes
//!   each shard by *shard* statistics where the reference uses
//!   full-batch statistics — a systematic difference, not rounding — so
//!   widened plans over batch-norm students trade exactness for
//!   parallelism (width-1 plans remain bitwise even with batch norm).
//!
//! [`ExecutorChoice::run`] dispatches to either executor, so harness
//! code can quantify over the engine under test.
//!
//! The threaded executor's data plane is zero-copy (activations and
//! averaged gradients travel as `Arc`-backed handles); its invariants are
//! stated once, in the [`threaded`] module docs.

pub mod fault;
pub mod recovery;
pub mod reference;
pub(crate) mod registry;
pub mod threaded;

use pipebd_data::SyntheticImageDataset;
use pipebd_nn::{Block, BlockNet, Layer};
use pipebd_sched::StagePlan;
use pipebd_tensor::TensorError;
use serde::{Deserialize, Serialize};

/// Error raised by an executor.
#[derive(Debug)]
pub enum ExecError {
    /// Configuration cannot be executed (plan/batch mismatch, …).
    Config(String),
    /// A tensor operation failed inside a device thread.
    Tensor(TensorError),
    /// A device thread panicked.
    WorkerPanic(String),
    /// Stage replicas diverged (would indicate a gradient-sharing bug).
    ReplicaDivergence {
        /// Block whose replicas differ.
        block: usize,
        /// Maximum absolute difference observed.
        diff: f32,
    },
    /// A rank was cancelled mid-run by the fault driver and nothing was
    /// there to recover the run ([`threaded::run_hooked`] runs a single
    /// epoch; [`recovery::RecoveryRunner`] carries on past a loss).
    RankLost {
        /// The lost GPU rank (logical device index of the failed run).
        rank: usize,
        /// The training step at which the rank died.
        step: usize,
    },
    /// The recovery protocol exhausted its restore budget (and no
    /// reference fallback was configured).
    RecoveryExhausted {
        /// Restore attempts consumed before giving up.
        attempts: usize,
    },
    /// Checkpoint capture, persistence, or restore failed.
    Checkpoint(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Config(m) => write!(f, "bad executor config: {m}"),
            ExecError::Tensor(e) => write!(f, "tensor error in worker: {e}"),
            ExecError::WorkerPanic(m) => write!(f, "device thread panicked: {m}"),
            ExecError::ReplicaDivergence { block, diff } => {
                write!(f, "replicas of block {block} diverged by {diff}")
            }
            ExecError::RankLost { rank, step } => {
                write!(f, "rank {rank} lost at step {step}")
            }
            ExecError::RecoveryExhausted { attempts } => {
                write!(f, "recovery exhausted after {attempts} restore attempts")
            }
            ExecError::Checkpoint(m) => write!(f, "checkpoint failure: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Tensor(e)
    }
}

/// Functional training configuration.
#[derive(Debug, Clone)]
pub struct FuncConfig {
    /// Number of device threads.
    pub devices: usize,
    /// Optimizer steps to run.
    pub steps: usize,
    /// Global batch size (must be divisible by any stage width used).
    pub batch: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Stage plan for the threaded executor (defaults to contiguous).
    pub plan: Option<StagePlan>,
    /// Whether updates are decoupled (no inter-device barrier). Changes
    /// scheduling only; parity tests verify results are unchanged.
    pub decoupled_updates: bool,
    /// Host compute-lane budget for intra-stage kernel parallelism.
    /// The reference executor installs one pool of this size; the
    /// threaded executor divides it across device ranks
    /// ([`StagePlan::intra_pool_widths`]) so stage concurrency and
    /// kernel parallelism share one budget. `None` means the machine's
    /// `available_parallelism()`; `Some(1)` pins every kernel serial. The
    /// tensor determinism contract keeps results bitwise identical
    /// across budgets.
    pub pool_size: Option<usize>,
}

impl Default for FuncConfig {
    fn default() -> Self {
        FuncConfig {
            devices: 2,
            steps: 4,
            batch: 8,
            lr: 0.05,
            momentum: 0.9,
            plan: None,
            decoupled_updates: true,
            pool_size: None,
        }
    }
}

impl FuncConfig {
    /// The resolved host compute-lane budget: `pool_size` if set, else
    /// the machine's `available_parallelism()`.
    pub fn pool_budget(&self) -> usize {
        self.pool_size
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }

    /// The stage plan a threaded run over `num_blocks` blocks follows:
    /// `plan` if set, else contiguous over `devices`.
    pub(crate) fn stage_plan(&self, num_blocks: usize) -> Result<StagePlan, ExecError> {
        match &self.plan {
            Some(p) => Ok(p.clone()),
            None => StagePlan::contiguous(num_blocks, self.devices)
                .map_err(|e| ExecError::Config(e.to_string())),
        }
    }
}

/// The outcome of functional training.
#[derive(Debug, Clone)]
pub struct FuncOutcome {
    /// Final student parameters, per block, in block order.
    pub params: Vec<Vec<pipebd_tensor::Tensor>>,
    /// Distillation loss per block per step.
    pub losses: Vec<Vec<f32>>,
}

impl FuncOutcome {
    /// Maximum absolute parameter difference against another outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcomes have different block/parameter structure.
    pub fn max_param_diff(&self, other: &FuncOutcome) -> f32 {
        assert_eq!(self.params.len(), other.params.len(), "block count differs");
        let mut max = 0.0f32;
        for (a, b) in self.params.iter().zip(other.params.iter()) {
            assert_eq!(a.len(), b.len(), "param count differs");
            for (ta, tb) in a.iter().zip(b.iter()) {
                max = max.max(ta.max_abs_diff(tb).expect("same shapes"));
            }
        }
        max
    }

    /// Maximum absolute per-step loss difference against another outcome
    /// (the conformance plane's loss-agreement metric; parameter agreement
    /// alone would miss a divergence that happens to cancel by the final
    /// step).
    ///
    /// # Panics
    ///
    /// Panics if the outcomes have different block/step structure.
    pub fn max_loss_diff(&self, other: &FuncOutcome) -> f32 {
        assert_eq!(self.losses.len(), other.losses.len(), "block count differs");
        let mut max = 0.0f32;
        for (a, b) in self.losses.iter().zip(other.losses.iter()) {
            assert_eq!(a.len(), b.len(), "step count differs");
            for (la, lb) in a.iter().zip(b.iter()) {
                max = max.max((la - lb).abs());
            }
        }
        max
    }

    /// Final loss of each block (last recorded step).
    pub fn final_losses(&self) -> Vec<f32> {
        self.losses
            .iter()
            .map(|l| l.last().copied().unwrap_or(f32::NAN))
            .collect()
    }
}

/// A clone of a student block whose parameters and gradients own their
/// buffers already, copied here on the calling thread. Left to
/// copy-on-write, the training thread makes the copies in the middle of
/// step 0, on top of that step's activations in its heap — and they outlive
/// it (the outcome holds them), so the heap cannot shrink when the run ends
/// (`thin_wide`: 32 MiB resident after a threaded run, 3.5 MiB this way).
pub(crate) fn private_clone(block: &Block) -> Block {
    let mut block = block.clone();
    block.visit_params(&mut |p| {
        p.value.data_mut();
        p.grad.data_mut();
    });
    block
}

/// Which executor drives functional runs — the `Experiment` facade's
/// executor-selection knob, recorded in every persisted
/// [`RunReport`](crate::RunReport) so an artifact names the execution
/// engine behind its numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutorChoice {
    /// Golden sequential semantics ([`reference::run`]).
    Reference,
    /// Real multi-threaded pipeline ([`threaded::run`]); the default.
    #[default]
    Threaded,
}

impl ExecutorChoice {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorChoice::Reference => "reference",
            ExecutorChoice::Threaded => "threaded",
        }
    }

    /// Trains `student` against `teacher` on `data` under `cfg` with the
    /// chosen executor. Both take the same inputs and produce the same
    /// trained student (see the [module docs](self) for the exact
    /// equivalence guarantees).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for invalid configurations, tensor failures,
    /// worker panics, or replica divergence.
    pub fn run(
        &self,
        teacher: &BlockNet,
        student: &BlockNet,
        data: &SyntheticImageDataset,
        cfg: &FuncConfig,
    ) -> Result<FuncOutcome, ExecError> {
        match self {
            ExecutorChoice::Reference => Ok(reference::run(teacher, student, data, cfg)?),
            ExecutorChoice::Threaded => threaded::run(teacher, student, data, cfg),
        }
    }
}

impl std::fmt::Display for ExecutorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
