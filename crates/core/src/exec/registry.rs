//! The device-thread registry: one epoch's worker threads and the
//! channel fabric between them.
//!
//! An *epoch* is one run of the worker set over a fixed member set and
//! plan. The recovery plane runs a sequence of epochs over a changing
//! member set; nothing is mutated mid-epoch.
//!
//! * [`wire_roles`] builds an epoch's fabric from a [`StagePlan`]: relay
//!   channels between adjacent stages and a [`GradLink`] per device for
//!   leader-based gradient averaging within widened stages. Every
//!   channel endpoint lives in exactly the roles that use it, so a role
//!   that goes away disconnects its peers instead of leaving them
//!   blocked.
//! * [`DeviceRegistry`] spawns device workers into the epoch (a
//!   `worker_spawn` trace event per rank) and retires them at its end
//!   (`worker_retire`): it joins every thread, turns panics into
//!   [`ExecError::WorkerPanic`], and folds the kernel-pool and
//!   buffer-recycler counters into the trace metrics.
//!
//! Each worker reports how its epoch ended as a [`WorkerEnd`]: its
//! trained blocks, or the [`Halt`] that stopped it. `threaded::run_epoch`
//! folds the ends into one [`EpochEnd`], and the recovery protocol
//! (`exec::recovery`) decides whether another epoch follows and over
//! which members.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pipebd_nn::{Block, BlockNet};
use pipebd_sched::StagePlan;
use pipebd_tensor::parallel::{self, ComputePool};
use pipebd_tensor::{SharedTensor, Tensor};
use pipebd_trace::{SpanKind, TraceCollector};

use super::{ExecError, FuncOutcome};

/// A relayed activation: the sending member's index and its batch shard,
/// shared by handle (sending is a refcount bump, not a copy).
pub(crate) type Shard = (usize, SharedTensor);
/// Gradient-gather payload: sender member index, flattened per-block
/// gradients (moved out of the sender's params — ownership transfer, no
/// copies), and per-block shard losses.
pub(crate) type GradMsg = (usize, Vec<Vec<Tensor>>, Vec<f32>);
/// Averaged bundle the leader broadcasts: per-block per-param averaged
/// gradients behind shared handles, plus averaged losses. Cloning the
/// bundle clones handles, not buffers.
pub(crate) type GradBundle = (Vec<Vec<SharedTensor>>, Vec<f32>);
/// What a finished worker hands back, by move: its stage's trained student
/// blocks (block `first_block + i` at index `i`) and their loss histories.
/// The coordinator reads the parameters out of them.
pub(crate) struct WorkerOut {
    pub first_block: usize,
    pub member: usize,
    pub blocks: Vec<Block>,
    pub losses: Vec<Vec<f32>>,
}

/// How one worker's epoch ended: every round ran and here are its trained
/// blocks, or why it stopped.
pub(crate) type WorkerEnd = Result<WorkerOut, Halt>;

/// Why a worker stopped before the end of its epoch.
pub(crate) enum Halt {
    /// The epoch is aborting or a channel peer hung up. Secondary damage:
    /// never the cause of an epoch's end.
    PeerGone,
    /// The fault script cancelled this rank at round `step`.
    Lost { rank: usize, step: usize },
    /// A real failure: the worker's error, or its thread's panic.
    Failed(ExecError),
}

impl<E: Into<ExecError>> From<E> for Halt {
    fn from(e: E) -> Self {
        Halt::Failed(e.into())
    }
}

/// How an epoch ended: the fold of its workers' [`WorkerEnd`]s.
pub(crate) enum EpochEnd {
    /// Every worker ran every round of the epoch.
    Finished(FuncOutcome),
    /// `rank` was lost at round `step` (the earliest loss).
    Lost { rank: usize, step: usize },
}

/// The producers' end of one relay edge: the channel into one next-stage
/// member, and the count of shards sent on it and not yet received (the
/// relay's back-pressure reads it; a std channel has no length). The
/// count publishes no data, so it is relaxed: the channel already orders
/// each send's increment before the matching receive's decrement.
#[derive(Clone)]
pub(crate) struct RelayTx {
    tx: Sender<Shard>,
    queued: Arc<AtomicUsize>,
}

/// The consuming member's end of a relay edge.
pub(crate) struct RelayRx {
    pub rx: Receiver<Shard>,
    queued: Arc<AtomicUsize>,
}

/// Creates one relay edge.
pub(crate) fn relay_edge() -> (RelayTx, RelayRx) {
    let (tx, rx) = channel();
    let queued = Arc::new(AtomicUsize::new(0));
    let rx = RelayRx {
        rx,
        queued: Arc::clone(&queued),
    };
    (RelayTx { tx, queued }, rx)
}

impl RelayTx {
    /// Sends `shard`, counted in flight before it can be received (so the
    /// count never runs below the channel's length). Never blocks.
    pub fn send(&self, shard: Shard) -> Result<(), SendError<Shard>> {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.tx.send(shard)
    }

    /// Shards sent on this edge and not yet received.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
}

impl RelayRx {
    /// Marks one shard taken off [`RelayRx::rx`].
    pub fn received(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A device's end of its stage's gradient-sharing fabric.
pub(crate) enum GradLink {
    /// Width-1 stage: nothing to share.
    Solo,
    /// Member 0 of a widened stage: gathers every other member's
    /// gradients and sends each the average.
    Leader {
        gather: Receiver<GradMsg>,
        broadcast: Vec<Sender<GradBundle>>,
    },
    /// Members `1..`: send to the leader, receive the average.
    Member {
        to_leader: Sender<GradMsg>,
        averaged: Receiver<GradBundle>,
    },
}

/// Everything one device worker needs of the epoch's channel fabric.
pub(crate) struct DeviceRole {
    pub device: usize,
    pub stage_index: usize,
    pub member: usize,
    pub width: usize,
    /// Width of the previous stage (0 for stage 0).
    pub prev_width: usize,
    pub first_block: usize,
    pub teacher_blocks: Vec<Block>,
    pub student_blocks: Vec<Block>,
    /// Relay edge from the previous stage (`None` for stage 0).
    pub input_rx: Option<RelayRx>,
    /// Relay edges to every member of the next stage (empty for the last).
    pub output_tx: Vec<RelayTx>,
    pub grads: GradLink,
}

/// Builds one epoch's channel fabric for `plan`: per-stage relay
/// channels, leader gather/broadcast channels for widened stages, and a
/// [`DeviceRole`] per device rank holding its model blocks and channel
/// endpoints.
pub(crate) fn wire_roles(
    plan: &StagePlan,
    teacher: &BlockNet,
    student: &BlockNet,
) -> Vec<DeviceRole> {
    let mut roles: Vec<DeviceRole> = Vec::with_capacity(plan.num_devices);
    // One relay edge into each member of every stage after the first: the
    // previous stage's members take clones of the senders, the consumer
    // moves its receiver out.
    let (senders, receivers): (Vec<Vec<RelayTx>>, Vec<Vec<RelayRx>>) = plan
        .stages
        .iter()
        .skip(1)
        .map(|s| (0..s.width()).map(|_| relay_edge()).unzip())
        .unzip();
    let mut inputs: Vec<_> = receivers.into_iter().map(Vec::into_iter).collect();

    for (si, stage) in plan.stages.iter().enumerate() {
        let width = stage.width();
        // The stage's gradient fabric: one gather channel into the leader
        // and one averaged-bundle channel out to each other member. The
        // members take clones of the gather sender and the original drops
        // here, so the leader holds no sender to its own gather channel:
        // it disconnects when the members are gone.
        let grads: Vec<GradLink> = if width == 1 {
            vec![GradLink::Solo]
        } else {
            let (to_leader, gather) = channel::<GradMsg>();
            let (broadcast, averaged): (Vec<_>, Vec<_>) =
                (1..width).map(|_| channel::<GradBundle>()).unzip();
            std::iter::once(GradLink::Leader { gather, broadcast })
                .chain(averaged.into_iter().map(|averaged| GradLink::Member {
                    to_leader: to_leader.clone(),
                    averaged,
                }))
                .collect()
        };

        for (member, (&device, grads)) in stage.devices.iter().zip(grads).enumerate() {
            let teacher_blocks: Vec<Block> =
                stage.blocks().map(|i| teacher.block(i).clone()).collect();
            let student_blocks: Vec<Block> = stage
                .blocks()
                .map(|i| super::private_clone(student.block(i)))
                .collect();
            roles.push(DeviceRole {
                device,
                stage_index: si,
                member,
                width,
                prev_width: si.checked_sub(1).map_or(0, |p| plan.stages[p].width()),
                first_block: stage.first_block,
                teacher_blocks,
                student_blocks,
                input_rx: si.checked_sub(1).and_then(|prev| inputs[prev].next()),
                output_tx: senders.get(si).cloned().unwrap_or_default(),
                grads,
            });
        }
    }
    roles
}

/// One epoch's live worker threads. Spawn workers in, retire the epoch
/// at a round boundary; the next epoch (if any) opens a fresh registry
/// over a freshly wired fabric.
pub(crate) struct DeviceRegistry {
    handles: Vec<JoinHandle<WorkerEnd>>,
    /// A handle to every worker's kernel pool, held past the join: a
    /// pool's idle buffers go back to the system only if freed once its
    /// thread (whose malloc cache pins its heap) is gone. In `full` trace
    /// mode retire reads the counters first.
    pools: Vec<ComputePool>,
    trace: Option<Arc<TraceCollector>>,
    /// The rounds the epoch's workers run.
    rounds: Range<usize>,
}

impl DeviceRegistry {
    /// Opens an empty epoch covering `rounds`.
    pub fn open(trace: Option<Arc<TraceCollector>>, rounds: Range<usize>) -> Self {
        DeviceRegistry {
            handles: Vec::new(),
            pools: Vec::new(),
            trace,
            rounds,
        }
    }

    /// Spawns one device worker into the epoch. The worker body runs
    /// with `pool` installed as its kernel compute pool; a
    /// `worker_spawn` trace event is recorded at the epoch's first
    /// round.
    pub fn spawn(&mut self, pool: ComputePool, body: impl FnOnce() -> WorkerEnd + Send + 'static) {
        self.pools.push(pool.clone());
        if let Some(tc) = &self.trace {
            let t = tc.now_ns();
            tc.event(SpanKind::WorkerSpawn, self.rounds.start as u32, t, t);
        }
        self.handles
            .push(std::thread::spawn(move || parallel::install(&pool, body)));
    }

    /// Retires the epoch: joins every worker (spawn order), records a
    /// `worker_retire` trace event per rank (at the loss step for a lost
    /// worker, the epoch's end otherwise), folds the kernel-pool counters
    /// into the metrics registry (`pool.*`, and `recycle.*`, each summed
    /// over the devices), and returns how each worker ended, in spawn
    /// order. A thread that panicked ended as [`ExecError::WorkerPanic`].
    pub fn retire(self) -> Vec<WorkerEnd> {
        let mut ends = Vec::with_capacity(self.handles.len());
        for h in self.handles {
            let end = h
                .join()
                .unwrap_or_else(|p| Err(ExecError::WorkerPanic(format!("{p:?}")).into()));
            if let Some(tc) = &self.trace {
                let retired = match &end {
                    Err(Halt::Lost { step, .. }) => *step,
                    _ => self.rounds.end,
                };
                let t = tc.now_ns();
                tc.event(SpanKind::WorkerRetire, retired as u32, t, t);
            }
            ends.push(end);
        }
        // With every worker joined the pool counters are final.
        if let Some(tc) = self.trace.as_ref().filter(|tc| tc.full()) {
            let m = tc.metrics();
            for pool in &self.pools {
                let st = pool.stats();
                m.counter("pool.steals").add(st.steals);
                m.counter("pool.parks").add(st.parks);
                m.counter("pool.wakes").add(st.wakes);
                let rc = pool.recycle_stats();
                m.counter("recycle.reused").add(rc.reused);
                m.counter("recycle.fresh").add(rc.fresh);
                m.counter("recycle.idle_peak_bytes").add(rc.idle_peak_bytes);
            }
        }
        ends
    }
}
