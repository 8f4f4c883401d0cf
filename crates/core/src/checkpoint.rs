//! Checkpointing: versioned snapshots of student training state.
//!
//! A [`Checkpoint`] captures everything a blockwise-distillation run needs
//! to resume bit-exactly at a round boundary: per-block parameter tensors,
//! the per-block SGD momentum velocities, the per-block loss history, and
//! the data cursor (sample generation is per-index deterministic, so the
//! "RNG cursor" of a run *is* its next sample index — `round × batch`).
//! Because the per-block objective is schedule-independent, a checkpoint
//! assembled from blocks that reached round `r` at different wall-clock
//! times is still globally consistent: it equals the sequential reference
//! state after `r` steps, bit for bit.
//!
//! Persistence is decoupled through the [`CheckpointSink`] trait: the
//! executor streams completed checkpoints into a sink without knowing
//! whether they land in memory ([`MemorySink`]) or in a binary
//! `pipebd.checkpoint` file (`pipebd_artifact`'s `CheckpointStore`, which
//! layers atomic write-rename and retry on top of [`encode`] /
//! [`decode`], the pure byte codec below; the file layout is described
//! once, in that crate's `ckpt` module).
//! The round-interval policy lives in [`CheckpointPolicy`].
//!
//! # One resume gate
//!
//! Whether a checkpoint may resume a run is decided once, by the
//! crate-private `Checkpoint::check_resume`, against the accepted run and
//! the student's parameter shapes. `reference::resume`, the recovery
//! fallback and the threaded executor call it before any work starts (the
//! threaded one before it spawns a device thread), so a block's restore
//! past it cannot fail. Every refusal is a variant of [`CheckpointError`],
//! which also carries a sink's own failure ([`CheckpointError::Sink`])
//! and the recovery runner's lineage refusal
//! ([`CheckpointError::ForeignPlan`]).

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use pipebd_json::Value;
use pipebd_nn::{BlockNet, Layer, Sgd};
use pipebd_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

use crate::exec::RunSpec;

/// A bitwise-exact, serializable snapshot of one tensor.
///
/// [`encode`] writes `data` as raw little-endian `f32`, so snapshot →
/// file → restore reproduces the original buffer bit for bit, non-finite
/// values included.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorSnapshot {
    /// Tensor shape.
    pub dims: Vec<usize>,
    /// Row-major element data.
    pub data: Vec<f32>,
}

impl TensorSnapshot {
    /// Snapshots a tensor by value.
    pub fn of(t: &Tensor) -> Self {
        TensorSnapshot {
            dims: t.dims().to_vec(),
            data: t.data().to_vec(),
        }
    }

    /// Rebuilds the tensor.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] when `data` does not fill `dims` (a
    /// corrupt or hand-edited checkpoint).
    pub fn to_tensor(&self) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data.clone(), &self.dims)
    }
}

/// One student block's state at a round boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockState {
    /// Global block index.
    pub block: usize,
    /// Parameter tensors in `visit_params` order.
    pub params: Vec<TensorSnapshot>,
    /// SGD momentum velocities in `visit_params` order (may be empty if
    /// the optimizer never stepped).
    pub velocities: Vec<TensorSnapshot>,
    /// Per-step distillation losses recorded so far (length = round).
    pub losses: Vec<f32>,
}

/// Versioned student training state at a round boundary.
///
/// `round` counts *completed* optimizer steps; resuming replays steps
/// `round..steps` and reproduces the uninterrupted run bitwise (width-1
/// plans) because every restored quantity — parameters, velocities, the
/// data cursor — is exactly what the uninterrupted run held at that point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Completed optimizer steps (the resume point).
    pub round: usize,
    /// Next sample index: `round × batch`. Redundant with `round` but
    /// stored explicitly so a checkpoint file is self-describing.
    pub data_cursor: u64,
    /// Global batch size of the run that produced this state.
    pub batch: usize,
    /// Learning rate of the run.
    pub lr: f32,
    /// SGD momentum of the run.
    pub momentum: f32,
    /// Structural fingerprint of the [`StagePlan`] the writing run
    /// executed under (`StagePlan::fingerprint`; empty when the run used
    /// the default contiguous plan implicitly). Restores check it against
    /// the restoring run's plan *lineage* — a checkpoint written under a
    /// plan the recovery never ran is mismatched state, not a resume
    /// point.
    ///
    /// [`StagePlan`]: pipebd_sched::StagePlan
    pub plan_fingerprint: String,
    /// Per-block state, sorted by block index, one entry per block.
    pub blocks: Vec<BlockState>,
}

impl Checkpoint {
    /// The resume gate: whether this checkpoint may resume the accepted
    /// run `spec` of `student`. Both executors call it before any work
    /// starts (the threaded one before it spawns a device thread), so a
    /// restore past it cannot fail. It checks, in order: the block count,
    /// the batch, the round against the run's steps, the data cursor, and
    /// then per block its index, its loss history, its parameters against
    /// the student block's (count and dims) and its velocities (one per
    /// parameter with that parameter's dims, or none at round 0).
    ///
    /// Plan lineage is not the gate's business: a direct resume names its
    /// checkpoint, and the recovery runner checks lineage when it reads
    /// one from its sink.
    pub(crate) fn check_resume(
        &self,
        spec: &RunSpec,
        student: &BlockNet,
    ) -> Result<(), CheckpointError> {
        let (blocks, batch, steps) = (spec.blocks(), spec.cfg.batch, spec.cfg.steps);
        if self.blocks.len() != blocks {
            return Err(CheckpointError::BlockCount {
                checkpoint: self.blocks.len(),
                run: blocks,
            });
        }
        if self.batch != batch {
            return Err(CheckpointError::Batch {
                checkpoint: self.batch,
                run: batch,
            });
        }
        if self.round > steps {
            return Err(CheckpointError::BeyondRun {
                round: self.round,
                steps,
            });
        }
        if (self.round as u64).checked_mul(batch as u64) != Some(self.data_cursor) {
            return Err(CheckpointError::DataCursor {
                cursor: self.data_cursor,
                round: self.round,
                batch,
            });
        }
        for (position, state) in self.blocks.iter().enumerate() {
            let block = state.block;
            if block != position {
                return Err(CheckpointError::BlockIndex { position, block });
            }
            if state.losses.len() != self.round {
                return Err(CheckpointError::LossHistory {
                    block,
                    losses: state.losses.len(),
                    round: self.round,
                });
            }
            let mut layer = student.block(block).clone();
            let mut expected = Vec::new();
            layer.visit_params(&mut |p| expected.push(p.value.dims().to_vec()));
            if state.params.len() != expected.len() {
                return Err(CheckpointError::ParamCount {
                    block,
                    checkpoint: state.params.len(),
                    layer: expected.len(),
                });
            }
            let velocities = state.velocities.len();
            if velocities != expected.len() && !(velocities == 0 && self.round == 0) {
                return Err(CheckpointError::VelocityCount {
                    block,
                    velocities,
                    params: expected.len(),
                    round: self.round,
                });
            }
            let slots = [
                (Slot::Param, &state.params),
                (Slot::Velocity, &state.velocities),
            ];
            for (slot, snapshots) in slots {
                for (index, (snap, dims)) in snapshots.iter().zip(&expected).enumerate() {
                    if snap.dims != *dims || snap.data.len() != dims.iter().product::<usize>() {
                        return Err(CheckpointError::Shape {
                            block,
                            slot,
                            index,
                            dims: snap.dims.clone(),
                            elements: snap.data.len(),
                            expected: dims.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl BlockState {
    /// Installs this state: parameter values are replaced (gradients
    /// cleared, dropping any shared-grad override) and the optimizer's
    /// momentum velocities are reinstalled, so the next step continues the
    /// exact trajectory of the run that was checkpointed. Returns the loss
    /// history so far.
    ///
    /// Only for a state whose checkpoint passed the resume gate
    /// ([`Checkpoint::check_resume`]) against this block: the gate matched
    /// every snapshot to `layer`'s parameters, so nothing here can fail.
    pub(crate) fn restore(&self, layer: &mut dyn Layer, optim: &mut Sgd) -> Vec<f32> {
        let tensor = |snap: &TensorSnapshot| {
            (snap.to_tensor()).expect("the resume gate matched every snapshot to its dims")
        };
        let mut params = self.params.iter();
        layer.visit_params(&mut |p| {
            p.value = tensor(params.next().expect("the resume gate counted the params"));
            p.clear_grad();
        });
        optim.restore_velocities(self.velocities.iter().map(tensor).collect());
        self.losses.clone()
    }
}

/// Captures one block's state: parameters and momentum velocities in
/// `visit_params` order, plus the loss history recorded so far.
pub fn capture_block(
    layer: &mut dyn Layer,
    block: usize,
    optim: &Sgd,
    losses: &[f32],
) -> BlockState {
    let mut params = Vec::new();
    layer.visit_params(&mut |p| params.push(TensorSnapshot::of(&p.value)));
    let velocities = optim.velocities().iter().map(TensorSnapshot::of).collect();
    BlockState {
        block,
        params,
        velocities,
        losses: losses.to_vec(),
    }
}

/// Which tensors of a [`BlockState`] a [`CheckpointError::Shape`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `BlockState::params`.
    Param,
    /// `BlockState::velocities`.
    Velocity,
}

/// Why a checkpoint was not stored, read or resumed: one variant per
/// refusal of the resume gate, the recovery runner's lineage refusal, and
/// a sink's own failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The sink failed to store or read a checkpoint. The source is the
    /// sink's own error (`pipebd_artifact::ArtifactError` for a file
    /// store), for callers to downcast.
    Sink(Box<dyn std::error::Error + Send + Sync>),
    /// The sink's latest checkpoint was written under a plan the restoring
    /// recovery never ran: another run's state, not a resume point.
    ForeignPlan {
        /// The checkpoint's round.
        round: usize,
        /// The fingerprint the checkpoint carries.
        found: String,
        /// The fingerprints of every plan the recovery has run under.
        lineage: Vec<String>,
    },
    /// The checkpoint holds another number of blocks than the run has.
    BlockCount {
        /// Blocks in the checkpoint.
        checkpoint: usize,
        /// Blocks of the run.
        run: usize,
    },
    /// The checkpoint was written at another batch size.
    Batch {
        /// The checkpoint's batch.
        checkpoint: usize,
        /// The run's batch.
        run: usize,
    },
    /// The checkpoint lies beyond the run's last step.
    BeyondRun {
        /// The checkpoint's round.
        round: usize,
        /// The run's steps.
        steps: usize,
    },
    /// The data cursor is not `round × batch`.
    DataCursor {
        /// The checkpoint's cursor.
        cursor: u64,
        /// The checkpoint's round.
        round: usize,
        /// The batch.
        batch: usize,
    },
    /// The block states are not blocks `0..n` in order.
    BlockIndex {
        /// Position in `Checkpoint::blocks`.
        position: usize,
        /// The block index found there.
        block: usize,
    },
    /// A block's loss history is not one loss per completed round.
    LossHistory {
        /// The block.
        block: usize,
        /// Losses in its history.
        losses: usize,
        /// The checkpoint's round.
        round: usize,
    },
    /// A block holds another number of parameters than the student block.
    ParamCount {
        /// The block.
        block: usize,
        /// Parameters in the checkpoint.
        checkpoint: usize,
        /// Parameters of the student block.
        layer: usize,
    },
    /// A block's velocities are neither one per parameter nor, at round 0,
    /// none.
    VelocityCount {
        /// The block.
        block: usize,
        /// Velocities in the checkpoint.
        velocities: usize,
        /// Parameters of the student block.
        params: usize,
        /// The checkpoint's round.
        round: usize,
    },
    /// A parameter or velocity snapshot does not have the dims of its
    /// student parameter, or its data does not fill them.
    Shape {
        /// The block.
        block: usize,
        /// Parameter or velocity.
        slot: Slot,
        /// Index in `visit_params` order.
        index: usize,
        /// The snapshot's dims.
        dims: Vec<usize>,
        /// The snapshot's element count.
        elements: usize,
        /// The student parameter's dims.
        expected: Vec<usize>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CheckpointError as E;
        match self {
            E::Sink(e) => write!(f, "checkpoint sink: {e}"),
            E::ForeignPlan {
                round,
                found,
                lineage,
            } => write!(
                f,
                "plan fingerprint mismatch: checkpoint at round {round} written under `{found}`, \
                 expected one of [{}]",
                lineage.join(", ")
            ),
            E::BlockCount { checkpoint, run } => {
                write!(f, "checkpoint has {checkpoint} blocks, run has {run}")
            }
            E::Batch { checkpoint, run } => {
                write!(
                    f,
                    "checkpoint batch {checkpoint} differs from run batch {run}"
                )
            }
            E::BeyondRun { round, steps } => {
                write!(f, "checkpoint round {round} beyond the run's {steps} steps")
            }
            E::DataCursor {
                cursor,
                round,
                batch,
            } => write!(
                f,
                "data cursor {cursor} inconsistent with round {round} x batch {batch}"
            ),
            E::BlockIndex { position, block } => {
                write!(f, "block state {position} is for block {block}")
            }
            E::LossHistory {
                block,
                losses,
                round,
            } => write!(f, "block {block} has {losses} losses at round {round}"),
            E::ParamCount {
                block,
                checkpoint,
                layer,
            } => write!(
                f,
                "block {block}: layer has {layer} params, checkpoint has {checkpoint}"
            ),
            E::VelocityCount {
                block,
                velocities,
                params,
                round,
            } => write!(
                f,
                "block {block}: {velocities} velocities for {params} params at round {round}"
            ),
            E::Shape {
                block,
                slot,
                index,
                dims,
                elements,
                expected,
            } => write!(
                f,
                "block {block}: {slot:?} {index} is {dims:?} with {elements} elements, \
                 the layer's is {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Sink(e) => Some(&**e),
            _ => None,
        }
    }
}

/// Round-interval checkpoint policy: snapshot after every `every`-th
/// completed round (and never after the final round — a finished run has
/// its outcome, not a checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Rounds between snapshots; `0` disables checkpointing.
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy snapshotting every `every` rounds.
    pub fn every(every: usize) -> Self {
        CheckpointPolicy { every }
    }

    /// Whether a snapshot is due after completing `rounds_done` of
    /// `total_steps` rounds.
    pub fn due(&self, rounds_done: usize, total_steps: usize) -> bool {
        self.every > 0
            && rounds_done > 0
            && rounds_done < total_steps
            && rounds_done % self.every == 0
    }
}

/// Where completed checkpoints go, and where a recovery restores from.
///
/// Implementations must be thread-safe: the executor may store from the
/// assembly thread while a recovery orchestrator reads `latest`. What a
/// checkpoint may resume is not the sink's business: the resume gate and
/// the recovery runner's lineage check decide that.
pub trait CheckpointSink: Send + Sync {
    /// Persists a completed checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Sink`] with the sink-specific failure.
    fn store(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError>;

    /// The highest-round checkpoint stored so far, if any.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Sink`] with the sink-specific failure (a
    /// torn on-disk file is an error, never silently `None`).
    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError>;
}

/// An in-memory [`CheckpointSink`] keeping the highest-round checkpoint.
/// It never fails: every update leaves its state whole, so a lock a
/// panicking thread poisoned is taken over as it is.
#[derive(Debug, Default)]
pub struct MemorySink {
    inner: Mutex<MemoryState>,
}

#[derive(Debug, Default)]
struct MemoryState {
    latest: Option<Checkpoint>,
    stored: usize,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// How many checkpoints have been stored (including superseded ones).
    pub fn stored(&self) -> usize {
        self.state().stored
    }

    fn state(&self) -> MutexGuard<'_, MemoryState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CheckpointSink for MemorySink {
    fn store(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let mut inner = self.state();
        inner.stored += 1;
        if !matches!(&inner.latest, Some(c) if c.round >= checkpoint.round) {
            inner.latest = Some(checkpoint.clone());
        }
        Ok(())
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(self.state().latest.clone())
    }
}

/// Schema tag in every checkpoint file's header.
pub const SCHEMA: &str = "pipebd.checkpoint";

/// Format version [`encode`] writes and [`decode`] accepts. Version 1 was
/// a JSON artifact envelope; no reader for it remains.
pub const VERSION: u32 = 2;

/// First bytes of every checkpoint file.
const MAGIC: [u8; 8] = *b"PBDCKPT\n";

/// Length of the fixed-size prelude (magic + `u32` header length): what
/// [`header_span`] needs to say how far the header reaches.
pub const PRELUDE_LEN: usize = MAGIC.len() + 4;

/// The only element type version 2 stores.
const F32: &str = "f32";

/// Why bytes do not decode as a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A well-formed checkpoint of a format version this build does not
    /// read (including the version-1 JSON envelope).
    Version {
        /// Version found in the file.
        found: u64,
    },
    /// Not a checkpoint, or a torn or damaged one.
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Version { found } => {
                write!(f, "checkpoint format version {found}, expected {VERSION}")
            }
            CodecError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn corrupt(why: impl Into<String>) -> CodecError {
    CodecError::Corrupt(why.into())
}

/// The JSON header: run metadata plus where each tensor sits in the
/// payload. `lr` and `momentum` travel as IEEE-754 bit patterns so the
/// header, too, is exact for every value (JSON has no NaN or infinity).
#[derive(Serialize, Deserialize)]
struct Header {
    schema: String,
    version: u32,
    round: usize,
    data_cursor: u64,
    batch: usize,
    lr_bits: u32,
    momentum_bits: u32,
    plan_fingerprint: String,
    payload_bytes: usize,
    blocks: Vec<BlockLayout>,
}

#[derive(Serialize, Deserialize)]
struct BlockLayout {
    block: usize,
    params: Vec<TensorLayout>,
    velocities: Vec<TensorLayout>,
    losses: TensorLayout,
}

/// One tensor's place in the payload (byte offsets from the payload's
/// start). `bytes` is stored rather than derived from `dims`, so a
/// snapshot whose `data` does not fill its `dims` round-trips as it is
/// and is rejected where it always was, in [`TensorSnapshot::to_tensor`].
#[derive(Debug, Serialize, Deserialize)]
struct TensorLayout {
    dtype: String,
    dims: Vec<usize>,
    offset: usize,
    bytes: usize,
}

impl TensorLayout {
    /// Appends `data` to `payload`, bit pattern by bit pattern, and
    /// records where it went.
    fn place(payload: &mut Vec<u8>, dims: &[usize], data: &[f32]) -> Self {
        let offset = payload.len();
        for v in data {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        TensorLayout {
            dtype: F32.to_string(),
            dims: dims.to_vec(),
            offset,
            bytes: payload.len() - offset,
        }
    }

    /// Reads the tensor's elements back out of `payload`.
    fn floats(&self, payload: &[u8]) -> Result<Vec<f32>, CodecError> {
        let raw = (self.offset.checked_add(self.bytes))
            .and_then(|end| payload.get(self.offset..end))
            .filter(|raw| self.dtype == F32 && raw.len() % 4 == 0)
            .ok_or_else(|| corrupt(format!("no {self:?} in a {}-byte payload", payload.len())))?;
        let floats = raw.chunks_exact(4);
        Ok(floats
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
            .collect())
    }
}

/// A 64-bit FNV-1a fold over 8-byte little-endian words (the tail is
/// zero-padded). Every step is a bijection of the running state, so any
/// change confined to one word changes the sum; it detects torn and
/// bit-rotted files and is not a defence against forgery.
fn checksum(bytes: &[u8]) -> u64 {
    let fold = |sum: u64, word: u64| (sum ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let sum = words
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks of 8")))
        .fold(0xcbf2_9ce4_8422_2325, fold);
    fold(sum, u64::from_le_bytes(tail))
}

/// Serializes a checkpoint into the bytes of a checkpoint file: prelude,
/// JSON header, raw little-endian `f32` payload, checksum of everything
/// before it. Pure; every `f32` is copied once, by bit pattern.
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::new();
    let place_all = |payload: &mut Vec<u8>, tensors: &[TensorSnapshot]| {
        let placed = (tensors.iter()).map(|t| TensorLayout::place(payload, &t.dims, &t.data));
        placed.collect::<Vec<_>>()
    };
    let mut blocks = Vec::with_capacity(ckpt.blocks.len());
    for b in &ckpt.blocks {
        blocks.push(BlockLayout {
            block: b.block,
            params: place_all(&mut payload, &b.params),
            velocities: place_all(&mut payload, &b.velocities),
            losses: TensorLayout::place(&mut payload, &[b.losses.len()], &b.losses),
        });
    }
    let header = pipebd_json::to_string(&Header {
        schema: SCHEMA.to_string(),
        version: VERSION,
        round: ckpt.round,
        data_cursor: ckpt.data_cursor,
        batch: ckpt.batch,
        lr_bits: ckpt.lr.to_bits(),
        momentum_bits: ckpt.momentum.to_bits(),
        plan_fingerprint: ckpt.plan_fingerprint.clone(),
        payload_bytes: payload.len(),
        blocks,
    })
    .expect("a header of integers and strings serializes");
    let header_len = u32::try_from(header.len()).expect("a header is far below 4 GiB");

    let mut out = Vec::with_capacity(PRELUDE_LEN + header.len() + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&header_len.to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Given a file's first [`PRELUDE_LEN`] bytes (more are fine), the number
/// of leading bytes that hold prelude and header — what [`peek`] needs,
/// so a reader can look at a checkpoint without its payload.
///
/// # Errors
///
/// [`CodecError::Version`] for a version-1 file — recognised, not read, by
/// the `{` every JSON envelope began with — and [`CodecError::Corrupt`]
/// for any other magic or a prelude cut short.
pub fn header_span(prelude: &[u8]) -> Result<usize, CodecError> {
    let Some(rest) = prelude.strip_prefix(&MAGIC) else {
        return Err(match prelude.first() {
            Some(b'{') => CodecError::Version { found: 1 },
            _ => corrupt("not a checkpoint file (bad magic)"),
        });
    };
    let len = (rest.get(..4))
        .ok_or_else(|| corrupt("truncated before the header length"))?
        .try_into()
        .expect("a slice of 4");
    Ok(PRELUDE_LEN + u32::from_le_bytes(len) as usize)
}

/// Parses and vets the header held in the first [`header_span`] bytes;
/// returns it with the offset at which the payload starts.
fn read_header(bytes: &[u8]) -> Result<(Header, usize), CodecError> {
    let payload_start = header_span(bytes)?;
    let text = (bytes.get(PRELUDE_LEN..payload_start))
        .ok_or_else(|| corrupt("truncated inside the header"))?;
    let header = std::str::from_utf8(text)
        .map_err(|e| e.to_string())
        .and_then(|text| pipebd_json::parse(text).map_err(|e| e.to_string()))
        .map_err(|e| corrupt(format!("header: {e}")))?;
    match header.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        found => return Err(corrupt(format!("header schema {found:?}, not `{SCHEMA}`"))),
    }
    match header.get("version").and_then(Value::as_u64) {
        Some(found) if found == u64::from(VERSION) => {}
        Some(found) => return Err(CodecError::Version { found }),
        None => return Err(corrupt("header has no version")),
    }
    let header = Header::from_json(&header).map_err(|e| corrupt(format!("header: {e}")))?;
    Ok((header, payload_start))
}

/// Total file length for a payload of `payload_bytes` starting at
/// `payload_start`, unless that overflows (which no real file does).
fn file_len(payload_start: usize, payload_bytes: usize) -> Option<usize> {
    payload_start.checked_add(payload_bytes)?.checked_add(8)
}

/// What a checkpoint file's header says about the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peek {
    /// The round the checkpoint was taken at.
    pub round: usize,
    /// The length of the whole file; a file of any other length is torn.
    pub file_len: u64,
}

/// Reads a checkpoint file's header from its leading [`header_span`]
/// bytes alone; the payload is neither needed nor verified.
///
/// # Errors
///
/// As [`header_span`], plus [`CodecError::Corrupt`] for a truncated or
/// unparsable header and [`CodecError::Version`] for a foreign version.
pub fn peek(bytes: &[u8]) -> Result<Peek, CodecError> {
    let (header, payload_start) = read_header(bytes)?;
    let file_len = file_len(payload_start, header.payload_bytes)
        .ok_or_else(|| corrupt("header declares an impossible payload size"))?;
    Ok(Peek {
        round: header.round,
        file_len: file_len as u64,
    })
}

/// Rebuilds the checkpoint [`encode`] serialized, bit for bit.
///
/// # Errors
///
/// As [`peek`], plus [`CodecError::Corrupt`] when the length is not what
/// the header declares (a torn file), the checksum does not match, or a
/// tensor lies outside the payload.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CodecError> {
    let (header, payload_start) = read_header(bytes)?;
    if file_len(payload_start, header.payload_bytes) != Some(bytes.len()) {
        return Err(corrupt(format!(
            "file is {} bytes, header declares {payload_start} + {} + 8",
            bytes.len(),
            header.payload_bytes
        )));
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    if checksum(body).to_le_bytes() != sum {
        return Err(corrupt("bad checksum"));
    }
    let payload = &body[payload_start..];
    let snapshots = |layouts: Vec<TensorLayout>| {
        let snapshot = |at: TensorLayout| {
            let data = at.floats(payload)?;
            Ok(TensorSnapshot {
                dims: at.dims,
                data,
            })
        };
        let snapshots = layouts.into_iter().map(snapshot);
        snapshots.collect::<Result<Vec<_>, CodecError>>()
    };
    let mut blocks = Vec::with_capacity(header.blocks.len());
    for b in header.blocks {
        blocks.push(BlockState {
            block: b.block,
            losses: b.losses.floats(payload)?,
            params: snapshots(b.params)?,
            velocities: snapshots(b.velocities)?,
        });
    }
    Ok(Checkpoint {
        round: header.round,
        data_cursor: header.data_cursor,
        batch: header.batch,
        lr: f32::from_bits(header.lr_bits),
        momentum: f32::from_bits(header.momentum_bits),
        plan_fingerprint: header.plan_fingerprint,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::threaded::{self, RunHooks};
    use crate::exec::{reference, ExecError, FuncConfig};
    use pipebd_data::SyntheticImageDataset;
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
    use pipebd_tensor::Rng64;
    use std::sync::Arc;

    fn tiny_checkpoint(round: usize, batch: usize) -> Checkpoint {
        let mut rng = Rng64::seed_from_u64(11);
        let t = Tensor::randn(&[2, 3], &mut rng);
        Checkpoint {
            round,
            data_cursor: round as u64 * batch as u64,
            batch,
            lr: 0.05,
            momentum: 0.9,
            plan_fingerprint: "1x1:test".to_string(),
            blocks: vec![BlockState {
                block: 0,
                params: vec![TensorSnapshot::of(&t)],
                velocities: vec![TensorSnapshot::of(&t)],
                losses: vec![0.5; round],
            }],
        }
    }

    #[test]
    fn tensor_snapshot_roundtrips_bitwise() {
        let mut rng = Rng64::seed_from_u64(3);
        let t = Tensor::randn(&[3, 4, 2], &mut rng);
        let snap = TensorSnapshot::of(&t);
        let back = snap.to_tensor().unwrap();
        assert_eq!(back, t);
        // And through JSON, which round-trips f32 exactly.
        let json = pipebd_json::to_string(&snap).unwrap();
        let reparsed: TensorSnapshot = pipebd_json::from_str(&json).unwrap();
        assert_eq!(reparsed.to_tensor().unwrap(), t);
    }

    #[test]
    fn codec_roundtrips_and_peeks_without_the_payload() {
        let ckpt = tiny_checkpoint(4, 8);
        let bytes = encode(&ckpt);
        assert_eq!(decode(&bytes).unwrap(), ckpt);

        let span = header_span(&bytes[..PRELUDE_LEN]).unwrap();
        let seen = peek(&bytes[..span]).unwrap();
        assert_eq!(seen.round, 4);
        assert_eq!(seen.file_len, bytes.len() as u64);
        assert!(matches!(
            peek(&bytes[..span - 1]),
            Err(CodecError::Corrupt(_))
        ));
    }

    /// Rewrites `from` to the equally long `to` in an encoded header and
    /// re-seals the file, so only the edited field is wrong.
    fn with_header_edit(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
        assert_eq!(from.len(), to.len());
        let span = header_span(bytes).unwrap();
        let header = std::str::from_utf8(&bytes[PRELUDE_LEN..span]).unwrap();
        assert!(header.contains(from), "{header}");
        let mut out = bytes[..PRELUDE_LEN].to_vec();
        out.extend_from_slice(header.replacen(from, to, 1).as_bytes());
        out.extend_from_slice(&bytes[span..bytes.len() - 8]);
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn codec_refuses_other_versions_and_out_of_payload_tensors() {
        let bytes = encode(&tiny_checkpoint(2, 8));
        assert_eq!(
            decode(br#"{"schema": "pipebd.checkpoint", "version": 1}"#),
            Err(CodecError::Version { found: 1 })
        );
        let newer = with_header_edit(&bytes, r#""version":2"#, r#""version":3"#);
        assert_eq!(decode(&newer), Err(CodecError::Version { found: 3 }));

        let overrun = with_header_edit(&bytes, r#""bytes":24"#, r#""bytes":96"#);
        let err = decode(&overrun).unwrap_err();
        assert!(err.to_string().contains("56-byte payload"), "{err}");
        let ragged = with_header_edit(&bytes, r#""bytes":24"#, r#""bytes":23"#);
        assert!(decode(&ragged).is_err());
    }

    #[test]
    fn snapshot_rejects_mismatched_dims() {
        let snap = TensorSnapshot {
            dims: vec![2, 3],
            data: vec![0.0; 5],
        };
        assert!(snap.to_tensor().is_err());
    }

    #[test]
    fn policy_due_at_interval_boundaries_only() {
        let p = CheckpointPolicy::every(3);
        assert!(!p.due(0, 10), "nothing to snapshot before any round");
        assert!(!p.due(2, 10));
        assert!(p.due(3, 10));
        assert!(!p.due(4, 10));
        assert!(p.due(6, 10));
        assert!(
            !p.due(9, 9),
            "final round yields an outcome, not a checkpoint"
        );
        assert!(!CheckpointPolicy::every(0).due(3, 10), "0 disables");
    }

    /// A 3-block run of 4 steps over 2 devices, and its checkpoint at
    /// round 2 (the sink keeps the latest).
    fn captured() -> (
        BlockNet,
        BlockNet,
        SyntheticImageDataset,
        FuncConfig,
        Checkpoint,
    ) {
        let mini = MiniConfig {
            blocks: 3,
            channels: 4,
            batch_norm: false,
        };
        let mut rng = Rng64::seed_from_u64(5);
        let teacher = mini_teacher(mini, &mut rng);
        let student = mini_student_dsconv(mini, &mut rng);
        let data = SyntheticImageDataset::mini(32, 8, 4, 5);
        let cfg = FuncConfig {
            steps: 4,
            pool_size: Some(1),
            ..FuncConfig::default()
        };
        let sink = Arc::new(MemorySink::new());
        let hooks = RunHooks {
            checkpoint: Some((CheckpointPolicy::every(2), sink.clone())),
            ..RunHooks::default()
        };
        threaded::run_hooked(&teacher, &student, &data, &cfg, &hooks).unwrap();
        let ckpt = sink
            .latest()
            .unwrap()
            .expect("a 4-step run checkpoints at round 2");
        (teacher, student, data, cfg, ckpt)
    }

    #[test]
    fn checkpoint_validate_catches_structural_drift() {
        let (teacher, student, _, cfg, good) = captured();
        let spec = RunSpec::new(&teacher, &student, &cfg).unwrap();
        let gate = |c: &Checkpoint| c.check_resume(&spec, &student);
        gate(&good).expect("the run's own checkpoint resumes it");
        use CheckpointError as E;
        let drifts: [(fn(&mut Checkpoint), fn(&E) -> bool); 10] = [
            (
                |c| c.blocks.truncate(2),
                |e| matches!(e, E::BlockCount { checkpoint: 2, .. }),
            ),
            (
                |c| c.batch = 4,
                |e| matches!(e, E::Batch { checkpoint: 4, .. }),
            ),
            (
                |c| (c.round, c.data_cursor) = (5, 40),
                |e| matches!(e, E::BeyondRun { round: 5, .. }),
            ),
            (
                |c| c.data_cursor = 7,
                |e| matches!(e, E::DataCursor { cursor: 7, .. }),
            ),
            (
                |c| c.blocks.swap(0, 1),
                |e| matches!(e, E::BlockIndex { block: 1, .. }),
            ),
            (
                |c| c.blocks[1].losses.truncate(1),
                |e| matches!(e, E::LossHistory { losses: 1, .. }),
            ),
            (
                |c| c.blocks[2].params.truncate(1),
                |e| matches!(e, E::ParamCount { block: 2, .. }),
            ),
            (
                |c| c.blocks[0].params[0].dims.reverse(),
                |e| {
                    matches!(
                        e,
                        E::Shape {
                            slot: Slot::Param,
                            index: 0,
                            ..
                        }
                    )
                },
            ),
            (
                |c| c.blocks[0].params[1].data.truncate(1),
                |e| {
                    matches!(
                        e,
                        E::Shape {
                            slot: Slot::Param,
                            index: 1,
                            ..
                        }
                    )
                },
            ),
            (
                |c| c.blocks[1].velocities[0].data.push(0.0),
                |e| {
                    matches!(
                        e,
                        E::Shape {
                            slot: Slot::Velocity,
                            ..
                        }
                    )
                },
            ),
        ];
        for (i, (drift, refusal)) in drifts.into_iter().enumerate() {
            let mut c = good.clone();
            drift(&mut c);
            let e = gate(&c).expect_err("a drifted checkpoint must be refused");
            assert!(refusal(&e), "drift {i}: {e:?}");
        }
    }

    /// Momentum restarting from zero for the parameters whose velocities
    /// went missing is a different trajectory, not a resume.
    #[test]
    fn truncated_velocities_are_refused() {
        let (teacher, student, data, cfg, mut ckpt) = captured();
        let params = ckpt.blocks[1].params.len();
        ckpt.blocks[1].velocities.truncate(params - 1);
        let resumed = [
            reference::resume(&teacher, &student, &data, &cfg, &ckpt),
            threaded::run_hooked(
                &teacher,
                &student,
                &data,
                &cfg,
                &RunHooks {
                    resume: Some(Arc::new(ckpt.clone())),
                    ..RunHooks::default()
                },
            ),
        ];
        for end in resumed {
            assert!(
                matches!(
                    &end,
                    Err(ExecError::Checkpoint(CheckpointError::VelocityCount {
                        block: 1,
                        round: 2,
                        ..
                    }))
                ),
                "{:?}",
                end.map(|o| o.losses)
            );
        }
        // No velocities at all is what an optimizer that never stepped
        // holds: a round-0 state only.
        ckpt.blocks[1].velocities.clear();
        let spec = RunSpec::new(&teacher, &student, &cfg).unwrap();
        assert!(ckpt.check_resume(&spec, &student).is_err());
        let mut fresh = ckpt.clone();
        fresh.round = 0;
        fresh.data_cursor = 0;
        for b in &mut fresh.blocks {
            b.velocities.clear();
            b.losses.clear();
        }
        fresh
            .check_resume(&spec, &student)
            .expect("round 0 needs no velocities");
    }

    #[test]
    fn memory_sink_keeps_the_highest_round() {
        let sink = MemorySink::new();
        assert!(sink.latest().unwrap().is_none());
        sink.store(&tiny_checkpoint(2, 8)).unwrap();
        sink.store(&tiny_checkpoint(6, 8)).unwrap();
        sink.store(&tiny_checkpoint(4, 8)).unwrap();
        assert_eq!(sink.latest().unwrap().unwrap().round, 6);
        assert_eq!(sink.stored(), 3);
    }
}
