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

use std::fmt;
use std::sync::Mutex;

use pipebd_json::Value;
use pipebd_nn::{Layer, Sgd};
use pipebd_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

use crate::exec::{ExecError, RunSpec};

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
    /// The state of global block `index`, if present.
    pub fn block(&self, index: usize) -> Option<&BlockState> {
        self.blocks.iter().find(|b| b.block == index)
    }

    /// Structural validation against a run shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the checkpoint cannot resume
    /// a `num_blocks`-block run at batch size `batch`.
    pub fn validate(&self, num_blocks: usize, batch: usize) -> Result<(), String> {
        if self.blocks.len() != num_blocks {
            return Err(format!(
                "checkpoint has {} blocks, run has {num_blocks}",
                self.blocks.len()
            ));
        }
        for i in 0..num_blocks {
            let Some(b) = self.block(i) else {
                return Err(format!("checkpoint is missing block {i}"));
            };
            if b.losses.len() != self.round {
                return Err(format!(
                    "block {i} has {} losses at round {}",
                    b.losses.len(),
                    self.round
                ));
            }
        }
        if self.batch != batch {
            return Err(format!(
                "checkpoint batch {} differs from run batch {batch}",
                self.batch
            ));
        }
        if self.data_cursor != self.round as u64 * self.batch as u64 {
            return Err(format!(
                "data cursor {} inconsistent with round {} x batch {}",
                self.data_cursor, self.round, self.batch
            ));
        }
        Ok(())
    }

    /// Restores global block `index` into `layer` and `optim`
    /// ([`restore_block`]) and returns the block's loss history so far.
    pub(crate) fn restore_into(
        &self,
        index: usize,
        layer: &mut dyn Layer,
        optim: &mut Sgd,
    ) -> Result<Vec<f32>, ExecError> {
        let state = self
            .block(index)
            .ok_or_else(|| ExecError::Checkpoint(format!("missing block {index}")))?;
        restore_block(layer, optim, state).map_err(ExecError::Checkpoint)?;
        Ok(state.losses.clone())
    }

    /// [`validate`](Self::validate) for the accepted run `spec` about to
    /// resume from this checkpoint, which must also not lie beyond the
    /// run's last step.
    pub(crate) fn validate_resume(&self, spec: &RunSpec) -> Result<(), ExecError> {
        self.validate(spec.blocks(), spec.cfg.batch)
            .map_err(ExecError::Checkpoint)?;
        if self.round > spec.cfg.steps {
            return Err(ExecError::Checkpoint(format!(
                "checkpoint round {} beyond the run's {} steps",
                self.round, spec.cfg.steps
            )));
        }
        Ok(())
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

/// Restores one block's state: parameter values are replaced (gradients
/// cleared, dropping any shared-grad override) and the optimizer's
/// momentum velocities are reinstalled, so the next step continues the
/// exact trajectory of the run that was checkpointed.
///
/// # Errors
///
/// Returns a human-readable reason when `state` does not structurally
/// match `layer` (wrong parameter count or corrupt snapshot shapes).
pub fn restore_block(
    layer: &mut dyn Layer,
    optim: &mut Sgd,
    state: &BlockState,
) -> Result<(), String> {
    let mut idx = 0usize;
    let mut err: Option<String> = None;
    layer.visit_params(&mut |p| {
        if err.is_none() {
            match state.params.get(idx).map(TensorSnapshot::to_tensor) {
                Some(Ok(t)) => {
                    p.value = t;
                    p.clear_grad();
                }
                Some(Err(e)) => err = Some(format!("block {}: param {idx}: {e}", state.block)),
                None => err = Some(format!("block {}: missing param {idx}", state.block)),
            }
        }
        idx += 1;
    });
    if let Some(e) = err {
        return Err(e);
    }
    if idx != state.params.len() {
        return Err(format!(
            "block {}: layer has {idx} params, checkpoint has {}",
            state.block,
            state.params.len()
        ));
    }
    let velocities: Result<Vec<Tensor>, TensorError> = state
        .velocities
        .iter()
        .map(TensorSnapshot::to_tensor)
        .collect();
    optim.restore_velocities(
        velocities.map_err(|e| format!("block {}: velocity: {e}", state.block))?,
    );
    Ok(())
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
/// Errors are rendered as text — the executor wraps them in
/// `ExecError::Checkpoint`. Implementations must be thread-safe: the
/// executor may store from the assembly thread while a recovery
/// orchestrator reads `latest`.
pub trait CheckpointSink: Send + Sync {
    /// Persists a completed checkpoint.
    ///
    /// # Errors
    ///
    /// Returns the sink-specific failure as text.
    fn store(&self, checkpoint: &Checkpoint) -> Result<(), String>;

    /// The highest-round checkpoint stored so far, if any.
    ///
    /// # Errors
    ///
    /// Returns the sink-specific failure as text (a torn on-disk
    /// file is an error, never silently `None`).
    fn latest(&self) -> Result<Option<Checkpoint>, String>;

    /// [`CheckpointSink::latest`], gated on plan lineage: the checkpoint's
    /// `plan_fingerprint` must be one of `lineage` (the fingerprints of
    /// every plan the restoring recovery has run under). A checkpoint
    /// written under a foreign plan is **mismatched state** — silently
    /// resuming it would splice another run's trajectory into this one —
    /// so it is a structured error, distinct from a torn file (which
    /// `latest` already reports as its own sink-specific text).
    ///
    /// Checkpoints with an empty fingerprint predate the lineage stamp
    /// and pass unchecked.
    ///
    /// # Errors
    ///
    /// Returns the sink failure verbatim, or a
    /// `"plan fingerprint mismatch: ..."` message for a foreign
    /// checkpoint.
    fn latest_matching(&self, lineage: &[String]) -> Result<Option<Checkpoint>, String> {
        let Some(ckpt) = self.latest()? else {
            return Ok(None);
        };
        if !ckpt.plan_fingerprint.is_empty() && !lineage.contains(&ckpt.plan_fingerprint) {
            return Err(format!(
                "plan fingerprint mismatch: checkpoint at round {} written under `{}`, \
                 expected one of [{}]",
                ckpt.round,
                ckpt.plan_fingerprint,
                lineage.join(", ")
            ));
        }
        Ok(Some(ckpt))
    }
}

/// An in-memory [`CheckpointSink`] keeping the highest-round checkpoint.
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
        self.inner.lock().expect("sink lock").stored
    }
}

impl CheckpointSink for MemorySink {
    fn store(&self, checkpoint: &Checkpoint) -> Result<(), String> {
        let mut inner = self.inner.lock().map_err(|_| "sink poisoned".to_string())?;
        inner.stored += 1;
        if !matches!(&inner.latest, Some(c) if c.round >= checkpoint.round) {
            inner.latest = Some(checkpoint.clone());
        }
        Ok(())
    }

    fn latest(&self) -> Result<Option<Checkpoint>, String> {
        let inner = self.inner.lock().map_err(|_| "sink poisoned".to_string())?;
        Ok(inner.latest.clone())
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
    use pipebd_tensor::Rng64;

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

    #[test]
    fn checkpoint_validate_catches_structural_drift() {
        let good = tiny_checkpoint(4, 8);
        good.validate(1, 8).expect("well-formed");
        assert!(good.validate(2, 8).is_err(), "block count");
        assert!(good.validate(1, 4).is_err(), "batch mismatch");
        let mut torn = good.clone();
        torn.data_cursor = 7;
        assert!(torn.validate(1, 8).is_err(), "cursor drift");
        let mut short = good.clone();
        short.blocks[0].losses.pop();
        assert!(short.validate(1, 8).is_err(), "loss history length");
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

    #[test]
    fn latest_matching_gates_on_plan_lineage() {
        let sink = MemorySink::new();
        assert!(sink.latest_matching(&[]).unwrap().is_none(), "empty sink");
        sink.store(&tiny_checkpoint(2, 8)).unwrap();
        // In-lineage fingerprint resumes.
        let lineage = vec!["0x0:dead".to_string(), "1x1:test".to_string()];
        assert_eq!(sink.latest_matching(&lineage).unwrap().unwrap().round, 2);
        // Foreign fingerprint is a structured error, not a silent resume.
        let err = sink
            .latest_matching(&["2x2:beef".to_string()])
            .expect_err("foreign plan must not resume");
        assert!(
            err.contains("plan fingerprint mismatch") && err.contains("1x1:test"),
            "unexpected error: {err}"
        );
        // Pre-stamp checkpoints (empty fingerprint) pass unchecked.
        let mut legacy = tiny_checkpoint(4, 8);
        legacy.plan_fingerprint.clear();
        sink.store(&legacy).unwrap();
        assert_eq!(sink.latest_matching(&[]).unwrap().unwrap().round, 4);
    }
}
