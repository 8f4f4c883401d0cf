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
//!
//! # One validated run
//!
//! Whether a [`FuncConfig`] is a run is decided in one place, the
//! crate-private `RunSpec::new`: teacher and student block counts agree,
//! the batch is not empty, the plan (`cfg.plan`, else contiguous over
//! `cfg.devices`) is valid, its shape is the run's blocks × devices, and
//! every stage width divides the batch. [`reference::run`],
//! [`threaded::run`] and [`recovery::RecoveryRunner::run`] each open by
//! building that spec, so the oracle and the executors it checks accept
//! exactly the same configs, and refuse the rest with the same
//! [`SpecError`]. Everything past the gate takes the spec, not the config.

pub mod fault;
pub mod recovery;
pub mod reference;
pub(crate) mod registry;
pub mod threaded;

use pipebd_data::SyntheticImageDataset;
use pipebd_nn::{Block, BlockNet, Layer};
use pipebd_sched::{InvalidPlan, StagePlan};
use pipebd_sim::FaultViolation;
use pipebd_tensor::TensorError;
use serde::{Deserialize, Serialize};

use crate::checkpoint::CheckpointError;

/// Error raised by an executor.
#[derive(Debug)]
pub enum ExecError {
    /// The run was refused before anything ran.
    Spec(SpecError),
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
    /// A checkpoint could not be stored or read, or may not resume the
    /// run.
    Checkpoint(CheckpointError),
    /// The threaded executor broke one of its own invariants: a bug in
    /// the executor, never a property of the config.
    BrokenInvariant(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Spec(e) => write!(f, "run refused: {e}"),
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
            ExecError::BrokenInvariant(m) => write!(f, "executor invariant broken: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Tensor(e)
    }
}

impl From<CheckpointError> for ExecError {
    fn from(e: CheckpointError) -> Self {
        ExecError::Checkpoint(e)
    }
}

impl From<SpecError> for ExecError {
    fn from(e: SpecError) -> Self {
        ExecError::Spec(e)
    }
}

/// Why a run was refused before anything ran: one variant per refusal.
/// `RunSpec::new` decides the first five for every entry point; the rest
/// are the recovery runner's, the fault driver's and the threaded epoch's.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// The teacher and the student have different block counts.
    BlockCount {
        /// Blocks of the teacher.
        teacher: usize,
        /// Blocks of the student.
        student: usize,
    },
    /// `batch` is 0.
    EmptyBatch,
    /// The plan (`cfg.plan`, else contiguous over `cfg.devices`) is not a
    /// plan.
    Plan(InvalidPlan),
    /// The plan is for another shape than the run's blocks × devices.
    PlanShape {
        /// `(blocks, devices)` the plan is for.
        plan: (usize, usize),
        /// `(blocks, devices)` of the run: the networks' and `cfg.devices`.
        run: (usize, usize),
    },
    /// A stage width does not divide the batch.
    IndivisibleBatch {
        /// The global batch.
        batch: usize,
        /// The first stage width that does not divide it.
        width: usize,
    },
    /// The recovery runner's cost-model workload describes another number
    /// of blocks than the networks have.
    WorkloadBlocks {
        /// Blocks the workload describes.
        workload: usize,
        /// Blocks of the networks.
        blocks: usize,
    },
    /// The fault script has no reading over the run's ranks, or leaves
    /// no member at some step.
    FaultScript(FaultViolation),
    /// Fault injection under coupled updates (`decoupled_updates: false`):
    /// the recovery plane's replay guarantees are stated for decoupled
    /// ones.
    CoupledFaults,
    /// The fault script admits a rank at round `join`, before the epoch's
    /// end at round `end`: an epoch runs over a fixed member set, and
    /// growing it takes [`recovery::RecoveryRunner`].
    JoinInEpoch {
        /// The first step at which a rank joins.
        join: usize,
        /// The round the epoch was to end at.
        end: usize,
    },
    /// No plan runs on the `members` alive at `step`: the replanned plan
    /// was refused, and so was the contiguous one over them (`why`).
    Replan {
        /// The step the member set changed at.
        step: usize,
        /// Members alive at `step`.
        members: usize,
        /// Why the contiguous plan was refused.
        why: Box<SpecError>,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BlockCount { teacher, student } => {
                write!(f, "teacher has {teacher} blocks, student {student}")
            }
            SpecError::EmptyBatch => f.write_str("batch is 0"),
            SpecError::Plan(e) => write!(f, "{e}"),
            SpecError::PlanShape { plan, run } => write!(
                f,
                "plan is for {}x{} blocks x devices but the run is {}x{}",
                plan.0, plan.1, run.0, run.1
            ),
            SpecError::IndivisibleBatch { batch, width } => {
                write!(f, "batch {batch} not divisible by stage width {width}")
            }
            SpecError::WorkloadBlocks { workload, blocks } => {
                write!(
                    f,
                    "workload describes {workload} blocks, networks have {blocks}"
                )
            }
            SpecError::FaultScript(v) => write!(f, "fault script rejected: {v}"),
            SpecError::CoupledFaults => f.write_str("fault injection requires decoupled updates"),
            SpecError::JoinInEpoch { join, end } => {
                write!(f, "rank joins at step {join}, before epoch end {end}")
            }
            SpecError::Replan { step, members, why } => write!(
                f,
                "no runnable plan for the {members} members at step {step}: {why}"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A run config that passed every check, with its plan resolved. Building
/// one is the validation (see the [module docs](self)); holding one is
/// the proof.
#[derive(Debug, Clone)]
pub(crate) struct RunSpec {
    /// The config as given (`cfg.plan` may be `None`; `plan` is what runs).
    pub(crate) cfg: FuncConfig,
    /// `cfg.plan`, else contiguous over `cfg.devices`; valid, shaped
    /// blocks × devices, and every stage width divides the batch.
    pub(crate) plan: StagePlan,
}

impl RunSpec {
    /// Checks `cfg` against the networks, in this order: block counts,
    /// batch, plan validity, plan shape, batch divisibility.
    pub(crate) fn new(
        teacher: &BlockNet,
        student: &BlockNet,
        cfg: &FuncConfig,
    ) -> Result<RunSpec, SpecError> {
        let (blocks, devices) = (teacher.num_blocks(), cfg.devices);
        if student.num_blocks() != blocks {
            return Err(SpecError::BlockCount {
                teacher: blocks,
                student: student.num_blocks(),
            });
        }
        if cfg.batch == 0 {
            return Err(SpecError::EmptyBatch);
        }
        let plan = match &cfg.plan {
            Some(plan) => plan.clone(),
            None => StagePlan::contiguous(blocks, devices).map_err(SpecError::Plan)?,
        };
        plan.validate().map_err(SpecError::Plan)?;
        let (shape, run) = ((plan.num_blocks, plan.num_devices), (blocks, devices));
        if shape != run {
            return Err(SpecError::PlanShape { plan: shape, run });
        }
        if let Some(s) = plan.stages.iter().find(|s| cfg.batch % s.width() != 0) {
            return Err(SpecError::IndivisibleBatch {
                batch: cfg.batch,
                width: s.width(),
            });
        }
        Ok(RunSpec {
            cfg: cfg.clone(),
            plan,
        })
    }

    /// Blocks of the run (the teacher's and the student's).
    pub(crate) fn blocks(&self) -> usize {
        self.plan.num_blocks
    }
}

/// Functional training configuration.
///
/// Every executor accepts exactly the configs whose `batch` is at least 1
/// and divisible by every stage width, and whose plan (`plan`, else
/// contiguous over `devices`) is valid and shaped blocks × `devices`, for
/// a teacher and student with the same block count; anything else is an
/// [`ExecError::Spec`] before a thread starts.
#[derive(Debug, Clone)]
pub struct FuncConfig {
    /// Number of device threads (the plan's device count).
    pub devices: usize,
    /// Optimizer steps to run. `0` is a run: it trains nothing and returns
    /// the student as given, with empty loss histories.
    pub steps: usize,
    /// Global batch size: at least 1, and divisible by every stage width
    /// of the plan.
    pub batch: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Stage plan (`None`: contiguous over `devices`). It must cover the
    /// networks' blocks on exactly `devices` devices. The reference
    /// executor checks it as the threaded one does, and ignores it after.
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

/// One of the two functional executors, as a value: what the conformance
/// harness (`pipebd_testkit`'s scenarios and differentials) and the
/// executor-equivalence tests quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutorChoice {
    /// Golden sequential semantics ([`reference::run`]).
    Reference,
    /// Real multi-threaded pipeline ([`threaded::run`]).
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
            ExecutorChoice::Reference => reference::run(teacher, student, data, cfg),
            ExecutorChoice::Threaded => threaded::run(teacher, student, data, cfg),
        }
    }
}

impl std::fmt::Display for ExecutorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
