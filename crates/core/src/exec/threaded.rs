//! Multi-threaded teacher relaying: the paper's Algorithm 1 with OS
//! threads as devices and `std::sync::mpsc` channels as the PCIe links.
//!
//! Per step and per device (Algorithm 1, lines 7–16), each a `Worker`
//! method that `train` wires in this order:
//!
//! 0. the fault gate: serve this rank's slowdown pause, or stop if the
//!    fault script cancelled it (then, outside every span, wait until the
//!    next stage has room for another boundary);
//! 1. the input: load a batch shard, if this device owns block 0, or
//!    receive the relayed activation from the previous stage (lines 8–9);
//! 2. the teacher: run the assigned teacher blocks (line 10);
//! 3. the relay: send the last boundary activation to every member of the
//!    next stage (line 11);
//! 4. the students: run the assigned student blocks forward/backward
//!    (lines 12–13);
//! 5. the share: average gradients within a batch-split stage (line 14,
//!    AHD);
//! 6. the barrier: wait for every device unless decoupled updates are
//!    enabled (line 15, DPU);
//! 7. the update: step the student weights (line 16);
//! 8. the capture: stream this round's checkpoint fragments when one is
//!    due.
//!
//! # Zero-copy data plane
//!
//! Once a tensor is produced it is immutable, and every hop transfers a
//! [`SharedTensor`] handle (a refcount on the tensor's own buffer) instead
//! of a buffer — and the sharing does not stop at the block's door: a
//! student layer that caches its input holds that same buffer until its
//! backward pass consumes it, and student blocks run
//! [`Layer::backward_params`], because nobody reads the gradient with
//! respect to a detached teacher activation:
//!
//! * boundary activations are wrapped in [`SharedTensor`] once, then
//!   cached locally and relayed to every next-stage member as handle
//!   clones — a steady-state hop performs zero full-tensor deep copies,
//!   and a relayed activation is never mutated afterwards (that would
//!   take the copy-on-write [`SharedTensor::make_mut`], which the
//!   executor never calls on relayed data);
//! * the gradient gather **moves** each member's gradient buffers to the
//!   stage leader through the channel, the leader folds the average into
//!   its own buffers (no accumulator allocation), the averaged bundle is
//!   sent out as shared handles, and each member assigns its params
//!   clones of them as `Param::grad` (the optimizer consumes them in
//!   place and lets go) — the sharing path performs zero buffer copies;
//! * the only remaining per-step copy is batch re-sharding at stage
//!   width *transitions* (equal-width hops forward handles untouched).
//!   See `ARCHITECTURE.md`, "Ownership rules", for the full copy audit.
//!
//! Stage replicas are verified to remain bitwise identical after gradient
//! averaging — divergence is reported as an error.
//!
//! # Buffers go home
//!
//! Each worker's compute pool recycles its buffers (`pipebd_tensor`'s
//! `recycle` module): an activation goes back to the pool of the worker
//! that allocated it when its last handle drops — a relayed boundary's on
//! the next stage's thread. A step lets go of its input and boundaries
//! right after the student loop, before it waits on anything, so under
//! coupled updates every buffer is home before the barrier releases and
//! steps after the first allocate none. A worker allocates nothing that
//! outlives it: its student blocks are private copies the coordinator made
//! (`private_clone`) and go back by move, and the registry drops the pools
//! once the threads are gone, so a run's memory goes back to the system.
//!
//! Under decoupled updates a stage faster than the next one runs ahead of
//! it, and every boundary it queues is one its recycler cannot have back:
//! a fresh allocation per step of lead. `wait_for_room` holds such a stage
//! at the top of a step while a consumer still has `RELAY_LEAD` steps
//! queued, so the boundaries alive at once are bounded by the plan and not
//! by how long a downstream thread happened to be off its core.
//!
//! # How an epoch ends
//!
//! Every call is one *epoch* of the device-thread registry over rounds
//! `start..end`: `start` is the resume checkpoint's round (else 0), and
//! `end` is the caller's bound — `cfg.steps` for [`run_hooked`], the next
//! scripted join for the recovery runner, which re-wires the member set
//! there. A join inside the epoch is refused before any thread starts,
//! so the member set never changes within one. An epoch that ends before
//! `cfg.steps` captures its last round, whatever the checkpoint policy,
//! so the next epoch resumes from exactly there.
//!
//! Each worker reports how it ended as a `WorkerEnd` — its trained
//! blocks, or the `Halt` that stopped it — and `run_epoch` folds those
//! into one `EpochEnd`: a real failure outranks a loss, and a loss
//! outranks a peer's hang-up. A worker that stops before the epoch's end
//! — an error, a lost rank, a panic — raises the epoch's abort flag, and
//! every blocking wait (the one channel receive, `recv_or_gone`, the step
//! barrier and the relay's `wait_for_room`) re-checks the flag at a short
//! interval, so no peer outlives the failure by more than `ABORT_WAKE`.
//! That holds for every run, with or without a fault script.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pipebd_data::SyntheticImageDataset;
use pipebd_nn::{mse_loss, Block, BlockNet, Layer, Mode, Sgd};
use pipebd_tensor::parallel::ComputePool;
use pipebd_tensor::{SharedTensor, Tensor};
use pipebd_trace::{SpanKind, TraceCollector, TrackRecorder};

use super::fault::FaultDriver;
use super::registry::{
    self, DeviceRegistry, DeviceRole, EpochEnd, GradBundle, GradLink, GradMsg, Halt, RelayRx,
    RelayTx, WorkerEnd, WorkerOut,
};
pub use super::ExecError;
use super::{FuncConfig, FuncOutcome, RunSpec};
use crate::checkpoint::{
    self, BlockState, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSink,
};

/// Optional instrumentation for a threaded run: fault injection, a resume
/// point, checkpoint capture, and span tracing. [`run`] uses the empty
/// default; the recovery protocol ([`super::recovery`]) wires the first
/// three, the trace plane the fourth.
#[derive(Default, Clone)]
pub struct RunHooks {
    /// Fault driver answering for a fault script's timeline.
    pub driver: Option<Arc<FaultDriver>>,
    /// Checkpoint to resume from (training replays steps
    /// `resume.round..cfg.steps`; the data cursor follows the global step
    /// index automatically). The resume gate checks it against the run and
    /// the student before any device thread spawns.
    pub resume: Option<Arc<Checkpoint>>,
    /// Round-interval checkpoint capture into a sink.
    pub checkpoint: Option<(CheckpointPolicy, Arc<dyn CheckpointSink>)>,
    /// Span collector for the trace plane. `None` (tracing off, the
    /// default) costs exactly one branch per instrumentation point; tracing
    /// observes the schedule and never the math, so traced runs stay
    /// bitwise identical to untraced ones.
    pub trace: Option<Arc<TraceCollector>>,
}

/// A per-round checkpoint fragment: one block's state, sent by the
/// stage's member 0 to the assembly loop on the coordinating thread.
type CkptFrag = (usize, BlockState);

/// How long a blocked worker waits between looks at the epoch's abort
/// flag. A wait that is served (a message, a full barrier) returns at
/// once; the interval only bounds how long a peer outlives a failure.
const ABORT_WAKE: Duration = Duration::from_millis(1);

/// What every worker of one epoch shares.
struct Epoch {
    spec: RunSpec,
    data: SyntheticImageDataset,
    hooks: RunHooks,
    /// The rounds the epoch runs: from the resume round to the caller's
    /// bound.
    rounds: Range<usize>,
    /// Raised by any worker that stops before the epoch's end.
    abort: AtomicBool,
    /// The step barrier's `(arrived, generation)`.
    barrier: Mutex<(usize, usize)>,
    released: Condvar,
}

impl Epoch {
    /// The per-step barrier of coupled updates (Algorithm 1, line 15):
    /// like `std::sync::Barrier` over the epoch's devices, but a waiter
    /// gives up once the epoch aborts — a worker that failed will never
    /// arrive.
    fn barrier_wait(&self) -> Result<(), Halt> {
        let mut state = self.barrier.lock().expect("barrier holders never panic");
        state.0 += 1;
        if state.0 == self.spec.cfg.devices {
            *state = (0, state.1 + 1);
            self.released.notify_all();
            return Ok(());
        }
        let generation = state.1;
        while state.1 == generation {
            if self.abort.load(Ordering::SeqCst) {
                return Err(Halt::PeerGone);
            }
            let woken = self.released.wait_timeout(state, ABORT_WAKE);
            state = woken.expect("barrier holders never panic").0;
        }
        Ok(())
    }
}

/// The executor's one receive: blocks on `rx` until a message arrives,
/// every sender is gone, or the epoch aborts.
fn recv_or_gone<T>(rx: &Receiver<T>, abort: &AtomicBool) -> Result<T, Halt> {
    loop {
        match rx.recv_timeout(ABORT_WAKE) {
            Ok(v) => return Ok(v),
            Err(RecvTimeoutError::Timeout) if !abort.load(Ordering::SeqCst) => {}
            Err(_) => return Err(Halt::PeerGone),
        }
    }
}

/// Steps a stage may run ahead of the slowest member it relays to, counted
/// in boundaries that member has not yet received. Two keeps a downstream
/// stage fed across an upstream hiccup of one of its own steps; each step
/// of lead past that is one more boundary activation alive for nothing —
/// the consumer is the bottleneck, and its pace is the pipeline's.
const RELAY_LEAD: usize = 2;

/// Back-pressure on the relay: holds a worker at the top of a step while
/// any next-stage member still has [`RELAY_LEAD`] steps of this stage's
/// boundaries (`width` shards a step) queued, read from each edge's
/// in-flight count. The channels stay unbounded and sends never block; a
/// stage that is not ahead never waits here.
fn wait_for_room(txs: &[RelayTx], width: usize, abort: &AtomicBool) -> Result<(), Halt> {
    while txs.iter().any(|tx| tx.queued() >= RELAY_LEAD * width) {
        if abort.load(Ordering::SeqCst) {
            return Err(Halt::PeerGone);
        }
        std::thread::sleep(ABORT_WAKE);
    }
    Ok(())
}

/// Runs blockwise distillation on device threads following `cfg.plan`
/// (contiguous by default).
///
/// # Errors
///
/// Returns [`ExecError`] for invalid configurations, tensor failures,
/// worker panics, or replica divergence.
pub fn run(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
) -> Result<FuncOutcome, ExecError> {
    run_hooked(teacher, student, data, cfg, &RunHooks::default())
}

/// [`run`] with instrumentation: fault injection, checkpoint capture,
/// and resume-from-checkpoint (see [`RunHooks`]).
///
/// A run never hangs on a failed worker (see the [module docs](self)).
/// This entry point runs a single epoch up to `cfg.steps`, so a fault
/// script whose member set grows before then is refused; the recovery
/// protocol ([`super::recovery`]) is what carries a run across epochs.
///
/// # Errors
///
/// Returns [`ExecError`] for invalid configurations, tensor failures,
/// worker panics, replica divergence, a resume checkpoint the resume gate
/// refuses or a sink that fails to store,
/// [`SpecError::JoinInEpoch`](super::SpecError::JoinInEpoch)
/// before any thread starts when a scripted join comes before
/// `cfg.steps`, or [`ExecError::RankLost`] when the fault driver cancels
/// a rank.
pub fn run_hooked(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
    hooks: &RunHooks,
) -> Result<FuncOutcome, ExecError> {
    let spec = RunSpec::new(teacher, student, cfg)?;
    match run_epoch(teacher, student, data, &spec, hooks, cfg.steps)? {
        EpochEnd::Finished(outcome) => Ok(outcome),
        EpochEnd::Lost { rank, step } => Err(ExecError::RankLost { rank, step }),
    }
}

/// Runs one epoch over rounds `start..end` (`start` is the resume round):
/// wires the fabric for `spec.plan` and spawns a worker per device,
/// assembles checkpoints while they run, and folds how they ended into
/// one [`EpochEnd`].
///
/// # Errors
///
/// As [`run_hooked`], except that a lost rank is an `Ok(EpochEnd)`, not
/// an error.
pub(crate) fn run_epoch(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    spec: &RunSpec,
    hooks: &RunHooks,
    end: usize,
) -> Result<EpochEnd, ExecError> {
    if let Some(ckpt) = &hooks.resume {
        ckpt.check_resume(spec, student)?;
    }
    if let Some(driver) = &hooks.driver {
        driver.check_epoch(end)?;
    }
    let epoch = Arc::new(Epoch {
        spec: spec.clone(),
        data: data.clone(),
        hooks: hooks.clone(),
        rounds: hooks.resume.as_ref().map_or(0, |c| c.round)..end,
        abort: AtomicBool::new(false),
        barrier: Mutex::new((0, 0)),
        released: Condvar::new(),
    });
    // The checkpoint fabric exists only when the hooks capture.
    let (capture, assembly) = hooks.checkpoint.as_ref().map(|_| channel()).unzip();
    let devices = spawn_workers(teacher, student, &epoch, capture);
    let ckpt_err = assembly.and_then(|rx| assemble_checkpoints(&epoch, &rx));
    fold_ends(devices.retire(), ckpt_err)
}

/// Wires the epoch's fabric and spawns one worker per device into a fresh
/// registry. `capture` (present when the hooks checkpoint) is cloned into
/// each stage's member 0 and dropped here, so the assembly loop sees its
/// channel disconnect once every worker has exited.
fn spawn_workers(
    teacher: &BlockNet,
    student: &BlockNet,
    epoch: &Arc<Epoch>,
    capture: Option<Sender<CkptFrag>>,
) -> DeviceRegistry {
    let (cfg, plan) = (&epoch.spec.cfg, &epoch.spec.plan);
    // Split the host compute budget across device ranks: each worker
    // installs a pool of its assigned width, so intra-stage kernel
    // parallelism never multiplies with stage concurrency into
    // oversubscription. A width-1 pool is inline (no threads) and pins
    // that device's kernels serial — including against the process
    // default. By the tensor determinism contract the widths change
    // wall-clock only, never a bit of the result.
    let intra_widths = plan.intra_pool_widths(cfg.pool_budget());
    let mut devices = DeviceRegistry::open(epoch.hooks.trace.clone(), epoch.rounds.clone());
    for role in registry::wire_roles(plan, teacher, student) {
        let pool = ComputePool::new(intra_widths[role.device]);
        let epoch = Arc::clone(epoch);
        // Replicas hold bitwise identical state, so member 0 alone
        // captures its stage's blocks.
        let capture = capture.clone().filter(|_| role.member == 0);
        devices.spawn(pool, move || worker(role, &epoch, capture));
    }
    devices
}

/// Assembles checkpoints while the workers run, and returns the sink's
/// first failure. A round is stored the moment its last block fragment
/// arrives; rounds can complete out of order under decoupled updates, so
/// sinks keep the max round. Blocks reaching round r at different
/// wall-clock times is fine: the per-block objective is
/// schedule-independent, so the assembled state equals the sequential
/// reference after r steps, bit for bit.
fn assemble_checkpoints(epoch: &Epoch, assembly: &Receiver<CkptFrag>) -> Option<CheckpointError> {
    let (_, sink) = epoch.hooks.checkpoint.as_ref()?;
    let (cfg, b) = (&epoch.spec.cfg, epoch.spec.blocks());
    // The plan's structural fingerprint stamps every checkpoint this epoch
    // writes, so a later restore can prove lineage (see the recovery
    // runner's `restore`).
    let fingerprint = epoch.spec.plan.fingerprint();
    let mut pending: HashMap<usize, Vec<BlockState>> = HashMap::new();
    let mut failure = None;
    while let Ok((round, state)) = assembly.recv() {
        let fragments = pending.entry(round).or_default();
        fragments.push(state);
        if fragments.len() < b {
            continue;
        }
        let mut blocks = std::mem::take(fragments);
        blocks.sort_by_key(|s| s.block);
        let ckpt = Checkpoint {
            round,
            data_cursor: round as u64 * cfg.batch as u64,
            batch: cfg.batch,
            lr: cfg.lr,
            momentum: cfg.momentum,
            plan_fingerprint: fingerprint.clone(),
            blocks,
        };
        if failure.is_none() {
            failure = sink.store(&ckpt).err();
        }
    }
    failure
}

/// Folds how the epoch's workers ended. Real failures come first, a
/// worker's (the first in spawn order) before the sink's; then the
/// earliest loss.
fn fold_ends(
    ends: Vec<WorkerEnd>,
    ckpt_err: Option<CheckpointError>,
) -> Result<EpochEnd, ExecError> {
    let (mut outs, mut lost, mut peer_gone) = (Vec::new(), Vec::new(), false);
    for end in ends {
        match end {
            Ok(out) => outs.push(out),
            Err(Halt::Failed(e)) => return Err(e),
            Err(Halt::Lost { rank, step }) => lost.push((step, rank)),
            Err(Halt::PeerGone) => peer_gone = true,
        }
    }
    if let Some(e) = ckpt_err {
        return Err(ExecError::Checkpoint(e));
    }
    if let Some((step, rank)) = lost.into_iter().min() {
        return Ok(EpochEnd::Lost { rank, step });
    }
    if peer_gone {
        let why = "a worker found its peers gone, but no worker failed or was lost";
        return Err(ExecError::BrokenInvariant(why.into()));
    }
    finished(outs).map(EpochEnd::Finished)
}

/// Builds the outcome of a finished epoch from what every worker handed
/// back. Member 0 of each stage speaks for its blocks, once every replica
/// of a widened stage is shown to hold the same parameters after its
/// averaged updates.
fn finished(outs: Vec<WorkerOut>) -> Result<FuncOutcome, ExecError> {
    // One row per block and member: `(block, member, params, losses)`.
    let mut rows = Vec::new();
    for mut out in outs {
        for (i, (s, losses)) in out.blocks.iter_mut().zip(out.losses).enumerate() {
            let params = pipebd_nn::snapshot_params(s);
            rows.push((out.first_block + i, out.member, params, losses));
        }
    }
    // A validated plan puts every block in exactly one stage, so the
    // member-0 rows sorted by block are blocks `0..b`.
    let (mut lead, replicas): (Vec<_>, Vec<_>) =
        rows.into_iter().partition(|(_, member, ..)| *member == 0);
    lead.sort_by_key(|(block, ..)| *block);
    for &(block, _, ref params, _) in &replicas {
        for (a, c) in lead[block].2.iter().zip(params) {
            let diff = a.max_abs_diff(c)?;
            if diff > 1e-6 {
                return Err(ExecError::ReplicaDivergence { block, diff });
            }
        }
    }
    let (params, losses) = lead.into_iter().map(|(_, _, p, l)| (p, l)).unzip();
    Ok(FuncOutcome { params, losses })
}

/// One device thread's epoch: trains, and on the way out raises the
/// abort flag unless every round ran.
fn worker(mut role: DeviceRole, epoch: &Epoch, capture: Option<Sender<CkptFrag>>) -> WorkerEnd {
    /// Raises the flag when dropped, so every way out but a clean one —
    /// an error's `?`, a lost rank, a panic's unwinding — wakes the peers
    /// blocked on this worker. A clean end forgets it instead.
    struct RaiseOnDrop<'a>(&'a AtomicBool);
    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let abort = RaiseOnDrop(&epoch.abort);
    let out = Worker::new(&mut role, epoch, capture.as_ref()).train()?;
    std::mem::forget(abort);
    Ok(out)
}

/// One device thread's training state for its epoch: the role's blocks
/// and channel ends, an optimizer and a loss history per block, the span
/// recorder, and the relay's reorder queues.
struct Worker<'a> {
    role: &'a mut DeviceRole,
    epoch: &'a Epoch,
    /// Where this member streams checkpoint fragments (member 0 of a
    /// stage, when the hooks checkpoint).
    capture: Option<&'a Sender<CkptFrag>>,
    optims: Vec<Sgd>,
    losses: Vec<Vec<f32>>,
    /// Trace plane: one ring recorder per worker thread, flushed into the
    /// collector when the worker drops. With tracing off (`None`) every
    /// instrumentation point is a single branch.
    rec: Option<TrackRecorder>,
    /// Out-of-order relay buffering: with decoupled updates a fast
    /// upstream member may deliver step s+1 before a slow one delivers
    /// step s. Each sender's channel order is its step order, so one FIFO
    /// per upstream member restores alignment.
    shard_queues: Vec<VecDeque<SharedTensor>>,
}

impl<'a> Worker<'a> {
    /// A worker at the epoch's first round. On resume it reinstalls the
    /// checkpointed parameters, velocities and loss history; every
    /// replica restores the same state (replicas are bitwise identical
    /// after averaged updates, so the captured state is theirs too).
    /// `run_epoch` passed the checkpoint through the resume gate before
    /// spawning this thread.
    fn new(
        role: &'a mut DeviceRole,
        epoch: &'a Epoch,
        capture: Option<&'a Sender<CkptFrag>>,
    ) -> Self {
        let (cfg, blocks) = (&epoch.spec.cfg, role.student_blocks.len());
        let mut optims = vec![Sgd::new(cfg.lr, cfg.momentum, 0.0); blocks];
        let mut losses: Vec<Vec<f32>> = vec![Vec::with_capacity(cfg.steps); blocks];
        if let Some(ckpt) = &epoch.hooks.resume {
            for (i, s) in role.student_blocks.iter_mut().enumerate() {
                losses[i] = ckpt.blocks[role.first_block + i].restore(s, &mut optims[i]);
            }
        }
        let trace = epoch.hooks.trace.as_ref();
        Worker {
            rec: trace.map(|t| t.recorder(role.device, role.stage_index, role.member)),
            shard_queues: vec![VecDeque::new(); role.prev_width],
            role,
            epoch,
            capture,
            optims,
            losses,
        }
    }

    /// The step loop: Algorithm 1 over the epoch's rounds, wired from one
    /// `Worker` method per step of the module docs' list.
    fn train(mut self) -> WorkerEnd {
        for step in self.epoch.rounds.clone() {
            self.fault_gate(step)?;
            // Decoupled updates let a fast stage run ahead; not further
            // than the next stage can use. Outside every span: a traced run
            // shows the wait as untracked time on this track, not as relay.
            wait_for_room(&self.role.output_tx, self.role.width, &self.epoch.abort)?;
            let input = self.input(step)?;
            let boundaries = self.teacher(step, &input)?;
            self.relay(step, boundaries.last().unwrap_or(&input))?;
            let mut step_losses = self.students(step, &input, &boundaries)?;
            // Nothing below reads an activation: let them go before this
            // thread blocks, so each is back with the recycler that issued
            // it by the time that thread allocates the next step's.
            drop((input, boundaries));
            let averaged = self.share(step, &mut step_losses)?;
            self.barrier(step)?;
            self.update(step, &step_losses)?;
            drop(averaged);
            self.capture(step)?;
        }
        // With decoupled updates some threads may finish earlier; that is
        // the point. The trained blocks go back by move.
        Ok(self.done())
    }

    /// Runs `f` inside a recorded span of `kind` carrying `bytes` when a
    /// recorder is present (the span covers `f` exactly; with tracing off
    /// this costs a branch on `None` either side). `block` is the
    /// stage-local index.
    fn spanned<T>(
        &mut self,
        kind: SpanKind,
        block: Option<usize>,
        step: usize,
        bytes: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let t0 = self.rec.as_ref().map(TrackRecorder::now_ns);
        let out = f(self);
        if let (Some(r), Some(t0)) = (self.rec.as_mut(), t0) {
            let block = block.map(|i| (self.role.first_block + i) as u16);
            r.record_span(kind, block, step as u32, t0, r.now_ns(), bytes);
        }
        out
    }

    /// (0) Fault gate: serves this rank's slowdown pause, or stops the
    /// worker as lost from this round on.
    fn fault_gate(&self, step: usize) -> Result<(), Halt> {
        let rank = self.role.device;
        match &self.epoch.hooks.driver {
            Some(d) if !d.before_step(rank, step) => Err(Halt::Lost { rank, step }),
            _ => Ok(()),
        }
    }

    /// (1) Input: this member's shard of the step's batch (stage 0), or
    /// the relayed activation re-sharded to this member (lines 8–9).
    fn input(&mut self, step: usize) -> Result<SharedTensor, Halt> {
        self.spanned(SpanKind::Load, None, step, 0, |w| match &w.role.input_rx {
            None => Ok(w.load(step)),
            Some(rx) => {
                let prev = receive_full_batch(rx, &mut w.shard_queues, &w.epoch.abort)?;
                Ok(reshard(prev, w.role.width, w.role.member)?)
            }
        })
    }

    /// Stage 0's input. Sample generation is per-index deterministic, so
    /// each member materializes exactly its own shard — identical values
    /// to splitting a full batch (widths divide the batch), without
    /// generating the other members' rows only to discard them.
    fn load(&self, step: usize) -> SharedTensor {
        if let Some(d) = &self.epoch.hooks.driver {
            d.before_load(step);
        }
        let (cfg, role) = (&self.epoch.spec.cfg, &self.role);
        let shard = cfg.batch / role.width;
        let start = step as u64 * cfg.batch as u64 + (role.member * shard) as u64;
        SharedTensor::new(self.epoch.data.batch(start, shard).0)
    }

    /// (2) Teacher blocks, collecting every boundary (line 10). Each
    /// boundary is wrapped in a shared handle once; caching it and
    /// relaying it downstream are refcount bumps, never buffer copies.
    fn teacher(&mut self, step: usize, input: &SharedTensor) -> Result<Vec<SharedTensor>, Halt> {
        let mut boundaries: Vec<SharedTensor> = Vec::with_capacity(self.role.teacher_blocks.len());
        for i in 0..self.role.teacher_blocks.len() {
            let x = boundaries.last().unwrap_or(input);
            let y = self.spanned(SpanKind::Teacher, Some(i), step, 0, |w| {
                let y = w.role.teacher_blocks[i].forward(x, Mode::Eval)?;
                Ok::<_, Halt>(SharedTensor::new(y))
            })?;
            boundaries.push(y);
        }
        Ok(boundaries)
    }

    /// (3) Relays the final boundary to every member of the next stage
    /// (line 11). The span carries the logical relay volume (f32 payload ×
    /// receivers); each send is a refcount bump, so the duration measures
    /// channel hand-off, not a copy.
    fn relay(&mut self, step: usize, last: &SharedTensor) -> Result<(), Halt> {
        let receivers = self.role.output_tx.len();
        if receivers == 0 {
            return Ok(());
        }
        let bytes = (last.numel() * 4 * receivers) as u64;
        self.spanned(SpanKind::Relay, None, step, bytes, |w| {
            for tx in &w.role.output_tx {
                let shard = (w.role.member, last.clone());
                tx.send(shard).map_err(|_| Halt::PeerGone)?;
            }
            Ok(())
        })
    }

    /// (4) Students forward, loss and backward (lines 12–13): block i
    /// learns to map boundary i − 1 (the input, for i = 0) to boundary i.
    fn students(
        &mut self,
        step: usize,
        input: &SharedTensor,
        boundaries: &[SharedTensor],
    ) -> Result<Vec<f32>, Halt> {
        let students = boundaries.iter().enumerate().map(|(i, target)| {
            let x = if i == 0 { input } else { &boundaries[i - 1] };
            self.spanned(SpanKind::Student, Some(i), step, 0, |w| {
                let s = &mut w.role.student_blocks[i];
                let out = s.forward(x, Mode::Train)?;
                let loss = mse_loss(&out, target)?;
                s.backward_params(&loss.grad)?;
                Ok(loss.loss)
            })
        });
        students.collect()
    }

    /// (5) Gradient sharing within a widened stage (line 14). The caller
    /// keeps this member's handles to the averages until its update is
    /// done: with that second holder every replica's `clear_grad` lets go
    /// of the shared buffer, whichever of them steps last.
    fn share(
        &mut self,
        step: usize,
        step_losses: &mut [f32],
    ) -> Result<Vec<Vec<SharedTensor>>, Halt> {
        if self.role.width == 1 {
            return Ok(Vec::new());
        }
        self.spanned(SpanKind::GradShare, None, step, 0, |w| {
            w.average(step_losses)
        })
    }

    /// Averages the stage's gradients and losses across its members,
    /// installs the averages, and returns this member's handles to them.
    fn average(&mut self, step_losses: &mut [f32]) -> Result<Vec<Vec<SharedTensor>>, Halt> {
        let (role, abort) = (&mut *self.role, &self.epoch.abort);
        let (avg, avg_losses): GradBundle = match &role.grads {
            GradLink::Solo => return Ok(Vec::new()),
            GradLink::Leader { gather, broadcast } => {
                // Gather, then fold in member order — arrival order is
                // the schedule's, and the float sum must not depend on it.
                // The average accumulates into the leader's own moved-out
                // gradient storage, allocating nothing.
                let mut others: Vec<GradMsg> = (1..role.width)
                    .map(|_| recv_or_gone(gather, abort))
                    .collect::<Result<_, _>>()?;
                others.sort_by_key(|(member, ..)| *member);
                let mut acc = take_grads(&mut role.student_blocks);
                let mut loss_acc = step_losses.to_vec();
                for (_, grads, l) in &others {
                    for (ta, tg) in acc.iter_mut().flatten().zip(grads.iter().flatten()) {
                        ta.add_assign(tg)?;
                    }
                    for (la, lb) in loss_acc.iter_mut().zip(l) {
                        *la += lb;
                    }
                }
                let inv = 1.0 / role.width as f32;
                acc.iter_mut().flatten().for_each(|g| g.scale(inv));
                loss_acc.iter_mut().for_each(|l| *l *= inv);
                // Publish the averaged gradients behind shared handles;
                // each send clones handles, not buffers.
                let shared = acc
                    .into_iter()
                    .map(|b| b.into_iter().map(SharedTensor::new));
                let bundle: GradBundle = (shared.map(Iterator::collect).collect(), loss_acc);
                for tx in broadcast {
                    tx.send(bundle.clone()).map_err(|_| Halt::PeerGone)?;
                }
                bundle
            }
            GradLink::Member {
                to_leader,
                averaged,
            } => {
                let grads = take_grads(&mut role.student_blocks);
                let msg = (role.member, grads, step_losses.to_vec());
                to_leader.send(msg).map_err(|_| Halt::PeerGone)?;
                recv_or_gone(averaged, abort)?
            }
        };

        // Install the averaged gradients as clones — a refcount bump per
        // param, not a copy. Every member of the stage points its params
        // at the same averaged buffers; the optimizer consumes them in
        // place (`Sgd::step` reads `Param::grad` without mutating and lets
        // go of it), so the sharing path is copy-free end to end.
        for (s, grads) in role.student_blocks.iter_mut().zip(avg.iter()) {
            let mut grads = grads.iter();
            s.visit_params(&mut |p| p.grad = Tensor::clone(grads.next().expect("one per param")));
        }
        step_losses.copy_from_slice(&avg_losses);
        Ok(avg)
    }

    /// (6) The step barrier, unless updates are decoupled (line 15).
    fn barrier(&mut self, step: usize) -> Result<(), Halt> {
        if self.epoch.spec.cfg.decoupled_updates {
            return Ok(());
        }
        self.spanned(SpanKind::Barrier, None, step, 0, |w| w.epoch.barrier_wait())
    }

    /// (7) Updates (line 16), and the step's losses into the history.
    fn update(&mut self, step: usize, step_losses: &[f32]) -> Result<(), Halt> {
        for (i, &loss) in step_losses.iter().enumerate() {
            self.spanned(SpanKind::Update, Some(i), step, 0, |w| {
                let s = &mut w.role.student_blocks[i];
                w.optims[i].step(s)?;
                pipebd_nn::zero_grad(s);
                Ok::<_, Halt>(())
            })?;
            self.losses[i].push(loss);
        }
        Ok(())
    }

    /// (8) Checkpoint capture at round boundaries: the capturing member
    /// streams its blocks' state to the assembly loop when the policy is
    /// due, and at the last round of an epoch that ends before the run
    /// does, so the next epoch resumes from exactly there and a joined
    /// rank never recomputes pre-join steps.
    fn capture(&mut self, step: usize) -> Result<(), Halt> {
        let (Some(tx), Some((policy, _))) = (self.capture, &self.epoch.hooks.checkpoint) else {
            return Ok(());
        };
        let (done, steps) = (step + 1, self.epoch.spec.cfg.steps);
        let bound = done == self.epoch.rounds.end && done < steps;
        if !policy.due(done, steps) && !bound {
            return Ok(());
        }
        self.spanned(SpanKind::Checkpoint, None, step, 0, |w| {
            for (i, s) in w.role.student_blocks.iter_mut().enumerate() {
                let block = w.role.first_block + i;
                let state = checkpoint::capture_block(s, block, &w.optims[i], &w.losses[i]);
                // `run_epoch` holds the receiver until every worker has
                // exited.
                tx.send((done, state)).map_err(|_| {
                    ExecError::BrokenInvariant("checkpoint assembly loop hung up".into())
                })?;
            }
            Ok(())
        })
    }

    /// The clean end: the trained blocks and their loss histories, by
    /// move.
    fn done(self) -> WorkerOut {
        WorkerOut {
            first_block: self.role.first_block,
            member: self.role.member,
            blocks: std::mem::take(&mut self.role.student_blocks),
            losses: self.losses,
        }
    }
}

/// Receives until every upstream member has a queued shard for the current
/// step, then pops one shard per member, ordered by member index.
fn receive_full_batch(
    input: &RelayRx,
    queues: &mut [VecDeque<SharedTensor>],
    abort: &AtomicBool,
) -> Result<Vec<SharedTensor>, Halt> {
    while queues.iter().any(VecDeque::is_empty) {
        let (member, shard) = recv_or_gone(&input.rx, abort)?;
        input.received();
        queues
            .get_mut(member)
            .ok_or_else(|| ExecError::BrokenInvariant(format!("unknown upstream member {member}")))?
            .push_back(shard);
    }
    Ok(queues
        .iter_mut()
        .map(|q| q.pop_front().expect("queue nonempty"))
        .collect())
}

/// Maps the previous stage's shards onto this member's input shard.
///
/// In the steady-state relay case — equal stage widths, including the
/// common 1 → 1 pipeline hop — the member's received handle is forwarded
/// untouched: zero copies. (Widths all divide the batch, so upstream
/// shards are equal-sized and concatenating then re-splitting would
/// reproduce them exactly.) Only genuine width transitions re-shard the
/// batch, paying one concatenation and/or one split; the values are
/// identical to the always-cat-then-split formulation, so bitwise parity
/// with the reference is unaffected.
fn reshard(
    mut prev: Vec<SharedTensor>,
    width: usize,
    member: usize,
) -> Result<SharedTensor, ExecError> {
    if prev.len() == width {
        return Ok(prev.swap_remove(member));
    }
    if prev.len() == 1 {
        // Narrow-to-wide: split the single upstream shard directly.
        let mut shards = prev[0].split_batch(width)?;
        return Ok(SharedTensor::new(shards.swap_remove(member)));
    }
    // Reassemble the full batch in member order, then take our shard.
    let refs: Vec<&Tensor> = prev.iter().map(SharedTensor::as_ref).collect();
    let full = Tensor::cat_batch_refs(&refs)?;
    if width == 1 {
        return Ok(SharedTensor::new(full));
    }
    let mut shards = full.split_batch(width)?;
    Ok(SharedTensor::new(shards.swap_remove(member)))
}

/// Moves the local gradients out of the params: they are about to be
/// replaced by the averaged bundle, so the gather can transfer ownership
/// through the channel instead of copying buffers. The next backward
/// pass re-seeds each accumulator by moving its freshly computed
/// gradient in (`Param::accumulate_grad`).
fn take_grads(blocks: &mut [Block]) -> Vec<Vec<Tensor>> {
    blocks
        .iter_mut()
        .map(|s| {
            let mut grads = Vec::new();
            s.visit_params(&mut |p| grads.push(p.take_grad()));
            grads
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemorySink;
    use crate::exec::{reference, SpecError};
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
    use pipebd_sched::StagePlan;
    use pipebd_sim::{FaultEvent, FaultScript};
    use pipebd_tensor::Rng64;
    use pipebd_trace::TraceMode;

    fn setup(blocks: usize) -> (BlockNet, BlockNet, SyntheticImageDataset) {
        let cfg = MiniConfig {
            blocks,
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
    fn tr_matches_reference_exactly() {
        let (teacher, student, data) = setup(4);
        let cfg = FuncConfig {
            devices: 2,
            steps: 6,
            batch: 8,
            decoupled_updates: false,
            ..FuncConfig::default()
        };
        let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
        let threaded = run(&teacher, &student, &data, &cfg).unwrap();
        assert_eq!(
            threaded.max_param_diff(&golden),
            0.0,
            "teacher relaying must be bitwise identical to the definition"
        );
    }

    #[test]
    fn dpu_matches_barrier_exactly() {
        // The paper's key correctness argument: removing the barrier
        // cannot change any computed value.
        let (teacher, student, data) = setup(4);
        let barrier_cfg = FuncConfig {
            devices: 4,
            steps: 6,
            batch: 8,
            decoupled_updates: false,
            ..FuncConfig::default()
        };
        let dpu_cfg = FuncConfig {
            decoupled_updates: true,
            ..barrier_cfg.clone()
        };
        let with_barrier = run(&teacher, &student, &data, &barrier_cfg).unwrap();
        let without = run(&teacher, &student, &data, &dpu_cfg).unwrap();
        assert_eq!(without.max_param_diff(&with_barrier), 0.0);
    }

    #[test]
    fn hybrid_plan_close_to_reference() {
        // Batch splitting changes float summation order (shard-mean
        // averaging), so parity is near-exact rather than bitwise.
        let (teacher, student, data) = setup(4);
        let plan = StagePlan::from_widths(&[(1, 2), (3, 2)], 4, 4).unwrap();
        let cfg = FuncConfig {
            devices: 4,
            steps: 6,
            batch: 8,
            plan: Some(plan),
            decoupled_updates: true,
            ..FuncConfig::default()
        };
        let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
        let hybrid = run(&teacher, &student, &data, &cfg).unwrap();
        let diff = hybrid.max_param_diff(&golden);
        assert!(diff < 1e-4, "hybrid diverged from reference by {diff}");
    }

    #[test]
    fn internal_relaying_plan_close_to_reference() {
        let (teacher, student, data) = setup(3);
        let plan = StagePlan::internal_relaying(3, 4);
        let cfg = FuncConfig {
            devices: 4,
            steps: 5,
            batch: 8,
            plan: Some(plan),
            decoupled_updates: true,
            ..FuncConfig::default()
        };
        let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
        let ir = run(&teacher, &student, &data, &cfg).unwrap();
        let diff = ir.max_param_diff(&golden);
        assert!(diff < 1e-4, "IR diverged from reference by {diff}");
    }

    #[test]
    fn rejects_indivisible_batch() {
        let (teacher, student, data) = setup(3);
        let plan = StagePlan::internal_relaying(3, 4);
        let cfg = FuncConfig {
            devices: 4,
            steps: 1,
            batch: 6, // not divisible by width 4
            plan: Some(plan),
            ..FuncConfig::default()
        };
        assert!(matches!(
            run(&teacher, &student, &data, &cfg),
            Err(ExecError::Spec(SpecError::IndivisibleBatch {
                batch: 6,
                width: 4
            }))
        ));
    }

    #[test]
    fn rejects_mismatched_plan() {
        let (teacher, student, data) = setup(3);
        let mismatched = FuncConfig {
            devices: 4,
            plan: Some(StagePlan::contiguous(6, 4).unwrap()),
            ..FuncConfig::default()
        };
        assert!(matches!(
            run(&teacher, &student, &data, &mismatched),
            Err(ExecError::Spec(SpecError::PlanShape {
                plan: (6, 4),
                run: (3, 4),
            }))
        ));
        let no_devices = FuncConfig {
            devices: 0,
            ..FuncConfig::default()
        };
        assert!(matches!(
            run(&teacher, &student, &data, &no_devices),
            Err(ExecError::Spec(SpecError::Plan(_)))
        ));
    }

    #[test]
    fn losses_decrease_under_threaded_training() {
        let (teacher, student, data) = setup(4);
        let cfg = FuncConfig {
            devices: 4,
            steps: 30,
            batch: 8,
            decoupled_updates: true,
            ..FuncConfig::default()
        };
        let out = run(&teacher, &student, &data, &cfg).unwrap();
        for (i, l) in out.losses.iter().enumerate() {
            assert!(
                l.last().unwrap() < l.first().unwrap(),
                "block {i} loss did not decrease"
            );
        }
    }

    /// Hooks over a 2-worker script in which rank 2 joins at `join`, with
    /// capture every round into a fresh sink and span tracing.
    fn joining_hooks(join: u32) -> (RunHooks, Arc<MemorySink>, Arc<TraceCollector>) {
        let script = FaultScript {
            events: vec![FaultEvent::HostJoin {
                rank: 2,
                at_step: join,
            }],
        };
        let timeline = script.timeline(3).unwrap();
        let sink = Arc::new(MemorySink::default());
        let trace = TraceCollector::new(TraceMode::Spans);
        let hooks = RunHooks {
            driver: Some(Arc::new(FaultDriver::new(&timeline, true).unwrap())),
            checkpoint: Some((CheckpointPolicy::every(1), sink.clone())),
            trace: Some(Arc::clone(&trace)),
            ..RunHooks::default()
        };
        (hooks, sink, trace)
    }

    #[test]
    fn a_join_inside_the_epoch_is_refused_before_any_thread_starts() {
        let (teacher, student, data) = setup(4);
        let cfg = FuncConfig {
            steps: 6,
            ..FuncConfig::default()
        };
        let (hooks, sink, trace) = joining_hooks(3);
        let refused = run_hooked(&teacher, &student, &data, &cfg, &hooks);
        assert!(
            matches!(
                refused,
                Err(ExecError::Spec(SpecError::JoinInEpoch { join: 3, end: 6 }))
            ),
            "got {refused:?}"
        );
        let report = trace.drain();
        assert_eq!(report.span_count(), 0, "a worker ran");
        assert!(report.events.is_empty(), "a worker spawned");
        assert!(sink.latest().unwrap().is_none(), "a checkpoint was stored");
    }

    #[test]
    fn a_join_at_or_after_the_last_step_runs_to_completion() {
        let (teacher, student, data) = setup(4);
        let cfg = FuncConfig {
            steps: 6,
            ..FuncConfig::default()
        };
        let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
        for join in [6, 9] {
            let (hooks, sink, _) = joining_hooks(join);
            let out = run_hooked(&teacher, &student, &data, &cfg, &hooks).unwrap();
            assert_eq!(out.max_param_diff(&golden), 0.0, "join at {join}");
            // The run's final round is not captured, whatever the bound.
            let latest = sink.latest().unwrap().expect("rounds 1..6 captured");
            assert_eq!(latest.round, 5, "join at {join}");
        }
    }

    #[test]
    fn each_step_records_its_spans_in_order_and_the_relay_its_volume() {
        // Stage 0 (blocks 0–1, one device) relays to a width-2 stage 1.
        let (teacher, student, data) = setup(4);
        let cfg = FuncConfig {
            devices: 3,
            steps: 3,
            plan: Some(StagePlan::from_widths(&[(2, 1), (2, 2)], 4, 3).unwrap()),
            ..FuncConfig::default()
        };
        let trace = TraceCollector::new(TraceMode::Spans);
        let hooks = RunHooks {
            trace: Some(Arc::clone(&trace)),
            ..RunHooks::default()
        };
        run_hooked(&teacher, &student, &data, &cfg, &hooks).unwrap();
        let x = data.batch(0, cfg.batch).0;
        let boundary = teacher.clone().forward_range(&x, 0, 2, Mode::Eval).unwrap();
        let relay_bytes = (boundary.numel() * 4 * 2) as u64;
        let report = trace.drain();
        use SpanKind::{GradShare, Load, Relay, Student, Teacher, Update};
        assert_eq!(report.tracks.len(), 3, "one track per device");
        for track in &report.tracks {
            let kinds: Vec<_> = track.spans.iter().map(|s| (s.step, s.kind)).collect();
            let step = if track.device == 0 {
                vec![
                    Load, Teacher, Teacher, Relay, Student, Student, Update, Update,
                ]
            } else {
                vec![
                    Load, Teacher, Teacher, Student, Student, GradShare, Update, Update,
                ]
            };
            let expect: Vec<_> = (0..3)
                .flat_map(|s| step.iter().map(move |&k| (s, k)))
                .collect();
            assert_eq!(kinds, expect, "device {}", track.device);
            for s in &track.spans {
                let bytes = if s.kind == Relay { relay_bytes } else { 0 };
                assert_eq!(s.bytes, bytes, "device {} {:?}", track.device, s.kind);
            }
        }
    }

    /// Runs `f` on its own thread; fails the test if it has not returned
    /// within 10 s (a hang would otherwise stall the whole suite).
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(10))
            .expect("hung: no result within 10 s")
    }

    /// A 3-stage run whose last student block expects 5 input channels
    /// where its teacher boundary has 6: device 2 fails in its first
    /// student forward while devices 0 and 1 are healthy.
    fn run_with_mismatched_last_block(decoupled_updates: bool) -> Result<FuncOutcome, ExecError> {
        within_watchdog(move || {
            let (teacher, student, data) = setup(3);
            let narrow = MiniConfig {
                blocks: 3,
                channels: 5,
                batch_norm: false,
            };
            let narrow = mini_student_dsconv(narrow, &mut Rng64::seed_from_u64(1));
            let student = BlockNet::new(vec![
                student.block(0).clone(),
                student.block(1).clone(),
                narrow.block(2).clone(),
            ]);
            let cfg = FuncConfig {
                devices: 3,
                steps: 4,
                batch: 8,
                decoupled_updates,
                ..FuncConfig::default()
            };
            run(&teacher, &student, &data, &cfg)
        })
    }

    #[test]
    fn barrier_run_returns_the_tensor_error_instead_of_hanging() {
        // The healthy stages are parked in the step barrier when device 2
        // fails; they must wake, and the failure must be what is reported.
        let end = run_with_mismatched_last_block(false);
        assert!(matches!(end, Err(ExecError::Tensor(_))), "got {end:?}");
    }

    #[test]
    fn decoupled_run_returns_the_tensor_error_not_a_peers_hangup() {
        // Devices 0 and 1 find their downstream gone; that is secondary
        // damage and must not outrank device 2's own error.
        let end = run_with_mismatched_last_block(true);
        assert!(matches!(end, Err(ExecError::Tensor(_))), "got {end:?}");
    }

    #[test]
    fn leader_gather_ends_as_peer_gone_when_its_member_goes_away() {
        let (teacher, student, _) = setup(2);
        let plan = StagePlan::internal_relaying(2, 2);
        let mut roles = registry::wire_roles(&plan, &teacher, &student);
        drop(roles.pop().expect("member 1"));
        let leader = roles.pop().expect("member 0");
        let gone = within_watchdog(move || {
            let GradLink::Leader { gather, .. } = &leader.grads else {
                panic!("member 0 of a widened stage leads");
            };
            matches!(
                recv_or_gone(gather, &AtomicBool::new(false)),
                Err(Halt::PeerGone)
            )
        });
        assert!(gone, "the gather must disconnect, not block or deliver");
    }

    #[test]
    fn relay_back_pressure_holds_at_the_lead_until_a_receive_or_an_abort() {
        within_watchdog(|| {
            let width = 2;
            let (tx, rx) = registry::relay_edge();
            let send = || tx.send((0, SharedTensor::new(Tensor::ones(&[1])))).unwrap();
            // `wait_for_room` looks at the abort flag only while it holds, so
            // under a raised flag `PeerGone` means "held" and `Ok` "room".
            let raised = AtomicBool::new(true);
            let holds = || {
                let end = wait_for_room(std::slice::from_ref(&tx), width, &raised);
                matches!(end, Err(Halt::PeerGone))
            };
            for _ in 1..RELAY_LEAD * width {
                send();
            }
            assert!(!holds(), "one shard short of the lead leaves room");
            send();
            assert!(holds(), "a full edge holds the producer");
            // A producer held on a live epoch goes on after one receive ...
            let abort = Arc::new(AtomicBool::new(false));
            let park = || {
                let (txs, abort) = (vec![tx.clone()], Arc::clone(&abort));
                std::thread::spawn(move || wait_for_room(&txs, width, &abort))
            };
            let held = park();
            assert!(recv_or_gone(&rx.rx, &abort).is_ok());
            rx.received();
            assert!(matches!(held.join().unwrap(), Ok(())));
            // ... and stops once the epoch aborts.
            send();
            let held = park();
            abort.store(true, Ordering::SeqCst);
            assert!(matches!(held.join().unwrap(), Err(Halt::PeerGone)));
        });
    }

    #[test]
    fn reshard_steady_state_forwards_the_same_allocation() {
        // The tentpole invariant: a width-1 → width-1 hop must not copy.
        let t = SharedTensor::new(Tensor::ones(&[4, 2]));
        let out = reshard(vec![t.clone()], 1, 0).unwrap();
        assert!(out.ptr_eq(&t), "steady-state relay must share, not copy");
    }

    #[test]
    fn reshard_equal_widths_forward_each_member_shard() {
        // Width-N → width-N hops are also steady state: member i's input
        // is exactly upstream member i's shard, shared by handle.
        let a = SharedTensor::new(Tensor::ones(&[2, 3]));
        let b = SharedTensor::new(Tensor::full(&[2, 3], 2.0));
        let out = reshard(vec![a.clone(), b.clone()], 2, 1).unwrap();
        assert!(out.ptr_eq(&b), "equal-width relay must share, not re-shard");
    }

    #[test]
    fn reshard_width_transitions_match_cat_then_split() {
        let a = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[2, 4]).unwrap();
        let b = Tensor::from_vec((8..16).map(|x| x as f32).collect(), &[2, 4]).unwrap();
        let full = Tensor::cat_batch(&[a.clone(), b.clone()]).unwrap();
        // Wide-to-narrow: 2 upstream members into width 1.
        let merged = reshard(
            vec![SharedTensor::new(a.clone()), SharedTensor::new(b.clone())],
            1,
            0,
        )
        .unwrap();
        assert_eq!(*merged, full);
        // Narrow-to-wide: 1 upstream member into width 2, member 1.
        let expect = full.split_batch(2).unwrap();
        let shard = reshard(vec![SharedTensor::new(full.clone())], 2, 1).unwrap();
        assert_eq!(*shard, expect[1]);
    }
}
