//! Multi-threaded teacher relaying: the paper's Algorithm 1 with OS
//! threads as devices and `std::sync::mpsc` channels as the PCIe links.
//!
//! Per step and per device (Algorithm 1, lines 7–16):
//!
//! 1. receive the input activation from the previous stage — or load a
//!    batch, if this device owns block 0 (lines 8–9);
//! 2. run the assigned teacher blocks and relay the boundary activation to
//!    the next stage (lines 10–11);
//! 3. run the assigned student blocks forward/backward (lines 12–13);
//! 4. share gradients within a batch-split stage (line 14, AHD);
//! 5. wait on the global barrier unless decoupled updates are enabled
//!    (line 15, DPU);
//! 6. update the student weights (line 16).
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
//! Every call is one *epoch* of the device-thread registry. Each worker
//! reports how it ended as a `WorkerEnd` and `run_epoch` folds those
//! into one `EpochEnd`; `Err` is kept for real failures, which always
//! outrank a peer's hang-up. A worker that ends any other way than
//! `Done`/`Grow` — an error, a lost rank, a panic — raises the epoch's
//! abort flag, and every blocking wait (the one channel receive,
//! `recv_or_gone`, the step barrier and the relay's `wait_for_room`)
//! re-checks the flag at a short interval, so no peer outlives the
//! failure by more than `ABORT_WAKE`.
//! That holds for every run, with or without a fault script.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pipebd_data::SyntheticImageDataset;
use pipebd_nn::{mse_loss, Block, BlockNet, Layer, Mode, Sgd};
use pipebd_tensor::parallel::ComputePool;
use pipebd_tensor::{SharedTensor, Tensor};
use pipebd_trace::{Span, SpanKind, TraceCollector, TrackRecorder};

use super::fault::{FaultAction, FaultDriver};
use super::registry::{
    self, DeviceRegistry, DeviceRole, EpochEnd, GradBundle, GradLink, GradMsg, RelayRx, RelayTx,
    WorkerEnd, WorkerOut,
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
    /// Raised by any worker that ends other than `Done`/`Grow`.
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

/// Why a worker stopped mid-step.
enum Halt {
    /// The epoch is aborting or a channel peer hung up. Secondary damage:
    /// it ends the worker as [`WorkerEnd::PeerGone`], never as an error.
    PeerGone,
    /// A real failure, reported as the worker's `Err`.
    Failed(ExecError),
}

impl<E: Into<ExecError>> From<E> for Halt {
    fn from(e: E) -> Self {
        Halt::Failed(e.into())
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

/// Runs `f` inside a recorded span when a recorder is present (the span
/// covers `f` exactly; with tracing off this is the one branch on `None`).
fn spanned<T>(
    rec: &mut Option<TrackRecorder>,
    kind: SpanKind,
    block: Option<u16>,
    step: u32,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        None => f(),
        Some(r) => {
            let t0 = r.now_ns();
            let out = f();
            let t1 = r.now_ns();
            r.record_span(kind, block, step, t0, t1);
            out
        }
    }
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
/// This entry point runs a single epoch, so a scripted membership change
/// is an error here; the recovery protocol ([`super::recovery`]) is what
/// carries a run across epochs.
///
/// # Errors
///
/// Returns [`ExecError`] for invalid configurations, tensor failures,
/// worker panics, replica divergence, a resume checkpoint the resume gate
/// refuses or a sink that fails to store,
/// [`ExecError::RankLost`] when the fault driver cancels a rank, or
/// [`ExecError::JoinNeedsRecovery`] when a scripted join comes due.
pub fn run_hooked(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    cfg: &FuncConfig,
    hooks: &RunHooks,
) -> Result<FuncOutcome, ExecError> {
    let spec = RunSpec::new(teacher, student, cfg)?;
    match run_epoch(teacher, student, data, &spec, hooks)? {
        EpochEnd::Finished(outcome) => Ok(outcome),
        EpochEnd::Lost { rank, step } => Err(ExecError::RankLost { rank, step }),
        EpochEnd::Grow { step } => Err(ExecError::JoinNeedsRecovery { step }),
    }
}

/// Runs one epoch: wires the fabric for `spec.plan`, spawns a worker per
/// device, assembles checkpoints while they run, and folds how they
/// ended into one [`EpochEnd`].
///
/// # Errors
///
/// As [`run_hooked`], except that a lost rank or a due join is an
/// `Ok(EpochEnd)`, not an error.
pub(crate) fn run_epoch(
    teacher: &BlockNet,
    student: &BlockNet,
    data: &SyntheticImageDataset,
    spec: &RunSpec,
    hooks: &RunHooks,
) -> Result<EpochEnd, ExecError> {
    if let Some(ckpt) = &hooks.resume {
        ckpt.check_resume(spec, student)?;
    }
    let (cfg, plan, b) = (&spec.cfg, &spec.plan, spec.blocks());

    // Split the host compute budget across device ranks: each worker
    // installs a pool of its assigned width, so intra-stage kernel
    // parallelism never multiplies with stage concurrency into
    // oversubscription. A width-1 pool is inline (no threads) and pins
    // that device's kernels serial — including against the process
    // default. By the tensor determinism contract the widths change
    // wall-clock only, never a bit of the result.
    let intra_widths = plan.intra_pool_widths(cfg.pool_budget());

    // Checkpoint fabric: member-0 workers stream per-block fragments to
    // this thread, which assembles complete rounds and stores them. The
    // sender clones live in the workers; once they all exit, `recv`
    // disconnects and the assembly loop ends.
    let ckpt = hooks.checkpoint.as_ref().map(|(policy, sink)| {
        let (tx, rx) = channel::<CkptFrag>();
        (*policy, tx, rx, sink)
    });

    let epoch = Arc::new(Epoch {
        spec: spec.clone(),
        data: data.clone(),
        hooks: hooks.clone(),
        abort: AtomicBool::new(false),
        barrier: Mutex::new((0, 0)),
        released: Condvar::new(),
    });
    let start_round = hooks.resume.as_ref().map_or(0, |c| c.round);
    let mut devices = DeviceRegistry::open(hooks.trace.clone(), start_round, cfg.steps);
    for role in registry::wire_roles(plan, teacher, student) {
        let pool = ComputePool::new(intra_widths[role.device]);
        let epoch = Arc::clone(&epoch);
        // Replicas hold bitwise identical state, so member 0 alone
        // captures its stage's blocks.
        let capture = ckpt.as_ref().filter(|_| role.member == 0);
        let capture = capture.map(|(policy, tx, ..)| (*policy, tx.clone()));
        devices.spawn(pool, move || worker(role, &epoch, capture));
    }

    // Assemble checkpoints while the workers run. A round is stored the
    // moment its last block fragment arrives; rounds can complete out of
    // order under decoupled updates, so sinks keep the max round. Blocks
    // reaching round r at different wall-clock times is fine: the
    // per-block objective is schedule-independent, so the assembled state
    // equals the sequential reference after r steps, bit for bit.
    let mut ckpt_err: Option<CheckpointError> = None;
    if let Some((_, tx, rx, sink)) = ckpt {
        drop(tx);
        // The plan's structural fingerprint stamps every checkpoint this
        // epoch writes, so a later restore can prove lineage (see the
        // recovery runner's `restore`).
        let fingerprint = plan.fingerprint();
        let mut pending: HashMap<usize, Vec<BlockState>> = HashMap::new();
        while let Ok((round, state)) = rx.recv() {
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
            if ckpt_err.is_none() {
                ckpt_err = sink.store(&ckpt).err();
            }
        }
    }

    // Retire the epoch and fold how its workers ended. Real failures come
    // first (`retire` returns a worker's, then the sink's); then the
    // earliest loss; then a growth, which every incumbent reports at the
    // same boundary.
    let mut outs = Vec::new();
    let (mut lost, mut grow, mut peer_gone) = (None, None, false);
    for end in devices.retire()? {
        match end {
            WorkerEnd::Done(out) => outs.push(out),
            WorkerEnd::Lost { rank, step } => {
                lost = Some(lost.map_or((step, rank), |l: (usize, usize)| l.min((step, rank))));
            }
            WorkerEnd::Grow { step } => grow = Some(step),
            WorkerEnd::PeerGone => peer_gone = true,
        }
    }
    if let Some(e) = ckpt_err {
        return Err(ExecError::Checkpoint(e));
    }
    if let Some((step, rank)) = lost {
        return Ok(EpochEnd::Lost { rank, step });
    }
    if let Some(step) = grow {
        return Ok(EpochEnd::Grow { step });
    }
    if peer_gone {
        return Err(ExecError::BrokenInvariant(
            "a worker found its peers gone, but no worker failed or was lost".into(),
        ));
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
    for (block, _, params, _) in &replicas {
        for (a, c) in lead[*block].2.iter().zip(params) {
            let diff = a.max_abs_diff(c)?;
            if diff > 1e-6 {
                return Err(ExecError::ReplicaDivergence {
                    block: *block,
                    diff,
                });
            }
        }
    }
    let (params, losses) = lead.into_iter().map(|(_, _, p, l)| (p, l)).unzip();
    Ok(FuncOutcome { params, losses })
}

/// One device thread's epoch: trains, and on the way out raises the
/// abort flag unless the end was clean.
fn worker(
    mut role: DeviceRole,
    epoch: &Epoch,
    capture: Option<(CheckpointPolicy, Sender<CkptFrag>)>,
) -> Result<WorkerEnd, ExecError> {
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
    let end = match train(&mut role, epoch, capture.as_ref()) {
        Ok(end) => end,
        Err(Halt::PeerGone) => WorkerEnd::PeerGone,
        Err(Halt::Failed(e)) => return Err(e),
    };
    if matches!(end, WorkerEnd::Done(_) | WorkerEnd::Grow { .. }) {
        std::mem::forget(abort);
    }
    Ok(end)
}

fn train(
    role: &mut DeviceRole,
    epoch: &Epoch,
    capture: Option<&(CheckpointPolicy, Sender<CkptFrag>)>,
) -> Result<WorkerEnd, Halt> {
    let Epoch {
        spec, hooks, abort, ..
    } = epoch;
    let cfg = &spec.cfg;
    let num_blocks = role.teacher_blocks.len();
    let mut optims: Vec<Sgd> = (0..num_blocks)
        .map(|_| Sgd::new(cfg.lr, cfg.momentum, 0.0))
        .collect();
    let mut losses: Vec<Vec<f32>> = vec![Vec::with_capacity(cfg.steps); num_blocks];
    // Resume: reinstall the checkpointed parameters, velocities, and loss
    // history, then continue from the checkpoint round. Every replica
    // restores the same state (replicas are bitwise identical after
    // averaged updates, so the captured state is theirs too). `run_epoch`
    // passed the checkpoint through the resume gate before spawning us.
    let start = hooks.resume.as_ref().map_or(0, |c| c.round);
    if let Some(ckpt) = &hooks.resume {
        for (i, s) in role.student_blocks.iter_mut().enumerate() {
            losses[i] = ckpt.blocks[role.first_block + i].restore(s, &mut optims[i]);
        }
    }
    let driver = hooks.driver.as_deref();
    // Trace plane: one ring recorder per worker thread, flushed into the
    // collector when this function returns (recorder drop). With tracing
    // off (`None`) every instrumentation point below is a single branch.
    let mut rec = hooks
        .trace
        .as_ref()
        .map(|t| t.recorder(role.device, role.stage_index, role.member));
    // Out-of-order relay buffering: with decoupled updates a fast upstream
    // member may deliver step s+1 before a slow one delivers step s. Each
    // sender's channel order is its step order, so one FIFO per upstream
    // member restores alignment.
    let mut shard_queues: Vec<VecDeque<SharedTensor>> = vec![VecDeque::new(); role.prev_width];

    for step in start..cfg.steps {
        // (0) Fault gate: serve this rank's slowdown pause, stop for a
        // membership growth, or die. A scripted join stops *every*
        // incumbent at the same round boundary (the driver gates growth
        // before the loss check, so all ranks agree on the boundary);
        // channel sends for earlier steps have already balanced, so the
        // epoch drains cleanly and needs no abort.
        let rank = role.device;
        match driver.map_or(FaultAction::Continue, |d| d.before_step(rank, step)) {
            FaultAction::Continue => {}
            FaultAction::Grow => return Ok(WorkerEnd::Grow { step }),
            FaultAction::Lost => return Ok(WorkerEnd::Lost { rank, step }),
        }
        // Decoupled updates let a fast stage run ahead; not further than
        // the next stage can use. Outside every span: a traced run shows
        // the wait as untracked time on this track, not as relay.
        wait_for_room(&role.output_tx, role.width, abort)?;

        // (1) Input: load data (stage 0) or receive the relayed activation.
        let input: SharedTensor = spanned(&mut rec, SpanKind::Load, None, step as u32, || {
            match &role.input_rx {
                None => {
                    if let Some(d) = driver {
                        d.before_load(step);
                    }
                    // Sample generation is per-index deterministic, so each
                    // member materializes exactly its own shard — identical
                    // values to splitting a full batch (widths divide the
                    // batch), without generating the other members' rows
                    // only to discard them.
                    let shard = cfg.batch / role.width;
                    let start = step as u64 * cfg.batch as u64 + (role.member * shard) as u64;
                    let (x, _labels) = epoch.data.batch(start, shard);
                    Ok(SharedTensor::new(x))
                }
                Some(rx) => {
                    let prev_shards = receive_full_batch(rx, &mut shard_queues, abort)?;
                    Ok::<_, Halt>(reshard(prev_shards, role.width, role.member)?)
                }
            }
        })?;

        // (2) Teacher blocks, collecting every boundary (lines 10–11).
        // Each boundary is wrapped in a shared handle once; caching it and
        // relaying it downstream are refcount bumps, never buffer copies.
        let mut boundaries: Vec<SharedTensor> = Vec::with_capacity(num_blocks);
        let mut cur = input.clone();
        for (bi, t) in role.teacher_blocks.iter_mut().enumerate() {
            let block = Some((role.first_block + bi) as u16);
            cur = spanned(&mut rec, SpanKind::Teacher, block, step as u32, || {
                Ok::<_, Halt>(SharedTensor::new(t.forward(&cur, Mode::Eval)?))
            })?;
            boundaries.push(cur.clone());
        }
        // Relay the final boundary to every member of the next stage. The
        // span carries the logical relay volume (f32 payload × receivers);
        // the send itself is a refcount bump, so the duration measures
        // channel handoff, not a copy.
        if !role.output_tx.is_empty() {
            let t0 = rec.as_mut().map(|r| r.now_ns());
            for tx in &role.output_tx {
                tx.send((role.member, cur.clone()))
                    .map_err(|_| Halt::PeerGone)?;
            }
            if let (Some(r), Some(t0)) = (rec.as_mut(), t0) {
                let t1 = r.now_ns();
                let bytes = (cur.numel() * 4 * role.output_tx.len()) as u64;
                r.record(Span {
                    kind: SpanKind::Relay,
                    block: None,
                    step: step as u32,
                    t0_ns: t0,
                    t1_ns: t1,
                    bytes,
                });
                if r.full() {
                    r.metrics().counter("relay.bytes").add(bytes);
                    r.metrics().counter("relay.sends").inc();
                }
            }
        }

        // (3) Students forward/backward (lines 12–13).
        let mut step_losses = Vec::with_capacity(num_blocks);
        for (i, s) in role.student_blocks.iter_mut().enumerate() {
            let block = Some((role.first_block + i) as u16);
            let loss = spanned(&mut rec, SpanKind::Student, block, step as u32, || {
                let s_in = if i == 0 { &input } else { &boundaries[i - 1] };
                let s_out = s.forward(s_in, Mode::Train)?;
                let loss = mse_loss(&s_out, &boundaries[i])?;
                s.backward_params(&loss.grad)?;
                Ok::<_, Halt>(loss.loss)
            })?;
            step_losses.push(loss);
        }
        // Nothing below reads an activation: let them go before this
        // thread blocks, so each is back with the recycler that issued it
        // by the time that thread allocates the next step's.
        drop((input, cur, boundaries));

        // (4) Gradient sharing within a widened stage (line 14). This
        // member's handles to the averages are kept until its update is
        // done: with that second holder every replica's `clear_grad` lets
        // go of the shared buffer, whichever of them steps last.
        let averaged = if role.width > 1 {
            spanned(&mut rec, SpanKind::GradShare, None, step as u32, || {
                share_gradients(role, &mut step_losses, abort)
            })?
        } else {
            Vec::new()
        };

        // (5) Barrier unless decoupled (line 15).
        if !cfg.decoupled_updates {
            spanned(&mut rec, SpanKind::Barrier, None, step as u32, || {
                epoch.barrier_wait()
            })?;
        }

        // (6) Updates (line 16).
        for (i, s) in role.student_blocks.iter_mut().enumerate() {
            let block = Some((role.first_block + i) as u16);
            spanned(&mut rec, SpanKind::Update, block, step as u32, || {
                optims[i].step(s)?;
                pipebd_nn::zero_grad(s);
                Ok::<_, Halt>(())
            })?;
            losses[i].push(step_losses[i]);
        }
        drop(averaged);

        // (7) Checkpoint capture at round boundaries: the capturing
        // member streams its blocks' state to the assembly loop. A pending
        // membership growth forces a capture at exactly the grow
        // boundary (regardless of the policy interval), so the next
        // epoch resumes from the joined round and the new rank never
        // recomputes pre-join steps.
        if let Some((policy, tx)) = capture {
            let done = step + 1;
            let grow_boundary =
                driver.and_then(FaultDriver::grow_step) == Some(done) && done < cfg.steps;
            if policy.due(done, cfg.steps) || grow_boundary {
                spanned(&mut rec, SpanKind::Checkpoint, None, step as u32, || {
                    for (i, s) in role.student_blocks.iter_mut().enumerate() {
                        let state = checkpoint::capture_block(
                            s,
                            role.first_block + i,
                            &optims[i],
                            &losses[i],
                        );
                        // `run_epoch` holds the receiver until every
                        // worker has exited.
                        tx.send((done, state)).map_err(|_| {
                            ExecError::BrokenInvariant("checkpoint assembly loop hung up".into())
                        })?;
                    }
                    Ok::<_, ExecError>(())
                })?;
            }
        }
    }

    // With decoupled updates some threads may finish earlier; that is the
    // point. The trained blocks go back by move.
    Ok(WorkerEnd::Done(WorkerOut {
        first_block: role.first_block,
        member: role.member,
        blocks: std::mem::take(&mut role.student_blocks),
        losses,
    }))
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

/// Averages the stage's gradients and losses across its members, installs
/// the averages, and returns this member's handles to them.
fn share_gradients(
    role: &mut DeviceRole,
    step_losses: &mut [f32],
    abort: &AtomicBool,
) -> Result<Vec<Vec<SharedTensor>>, Halt> {
    let (avg, avg_losses): GradBundle = match &role.grads {
        GradLink::Solo => return Ok(Vec::new()),
        GradLink::Leader { gather, broadcast } => {
            // Gather, then fold in member order — arrival order is the
            // schedule's, and the float sum must not depend on it. The
            // average accumulates into the leader's own moved-out
            // gradient storage, allocating nothing.
            let mut others: Vec<GradMsg> = (1..role.width)
                .map(|_| recv_or_gone(gather, abort))
                .collect::<Result<_, _>>()?;
            others.sort_by_key(|(member, ..)| *member);
            let mut acc = take_grads(&mut role.student_blocks);
            let mut loss_acc = step_losses.to_vec();
            for (_, grads, l) in &others {
                for (a, g) in acc.iter_mut().zip(grads) {
                    for (ta, tg) in a.iter_mut().zip(g) {
                        ta.add_assign(tg)?;
                    }
                }
                for (la, lb) in loss_acc.iter_mut().zip(l) {
                    *la += lb;
                }
            }
            let inv = 1.0 / role.width as f32;
            for g in acc.iter_mut().flatten() {
                g.scale(inv);
            }
            for l in &mut loss_acc {
                *l *= inv;
            }
            // Publish the averaged gradients behind shared handles; each
            // send clones handles, not buffers.
            let bundle: GradBundle = (
                acc.into_iter()
                    .map(|block| block.into_iter().map(SharedTensor::new).collect())
                    .collect(),
                loss_acc,
            );
            for tx in broadcast {
                tx.send(bundle.clone()).map_err(|_| Halt::PeerGone)?;
            }
            bundle
        }
        GradLink::Member {
            to_leader,
            averaged,
        } => {
            let local = take_grads(&mut role.student_blocks);
            to_leader
                .send((role.member, local, step_losses.to_vec()))
                .map_err(|_| Halt::PeerGone)?;
            recv_or_gone(averaged, abort)?
        }
    };

    // Install the averaged gradients as clones — a refcount bump per
    // param, not a copy. Every member of the stage points its params at
    // the same averaged buffers; the optimizer consumes them in place
    // (`Sgd::step` reads `Param::grad` without mutating and lets go of
    // it), so the sharing path is copy-free end to end.
    for (s, grads) in role.student_blocks.iter_mut().zip(avg.iter()) {
        let mut idx = 0usize;
        s.visit_params(&mut |p| {
            p.grad = Tensor::clone(&grads[idx]);
            idx += 1;
        });
    }
    step_losses.copy_from_slice(&avg_losses);
    Ok(avg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{reference, SpecError};
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
    use pipebd_sched::StagePlan;
    use pipebd_tensor::Rng64;

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
