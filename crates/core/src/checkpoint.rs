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
//! whether they land in memory ([`MemorySink`]) or in a schema-versioned
//! `pipebd.checkpoint` artifact envelope (`pipebd_artifact`'s
//! `CheckpointStore`, which layers atomic write-rename and retry on top).
//! The round-interval policy lives in [`CheckpointPolicy`].

use std::sync::Mutex;

use pipebd_nn::{Layer, Sgd};
use pipebd_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

use crate::exec::{ExecError, FuncConfig};

/// A bitwise-exact, serializable snapshot of one tensor.
///
/// `crates/json` round-trips `f32` exactly, so snapshot → JSON → restore
/// reproduces the original buffer bit for bit.
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
    /// stored explicitly so an envelope is self-describing.
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

    /// [`validate`](Self::validate) for a run about to resume from this
    /// checkpoint, which must also not lie beyond the run's last step.
    pub(crate) fn validate_resume(
        &self,
        num_blocks: usize,
        cfg: &FuncConfig,
    ) -> Result<(), ExecError> {
        self.validate(num_blocks, cfg.batch)
            .map_err(ExecError::Checkpoint)?;
        if self.round > cfg.steps {
            return Err(ExecError::Checkpoint(format!(
                "checkpoint round {} beyond the run's {} steps",
                self.round, cfg.steps
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
    let params = pipebd_nn::snapshot_params(layer)
        .iter()
        .map(TensorSnapshot::of)
        .collect();
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// envelope is an error, never silently `None`).
    fn latest(&self) -> Result<Option<Checkpoint>, String>;

    /// [`CheckpointSink::latest`], gated on plan lineage: the checkpoint's
    /// `plan_fingerprint` must be one of `lineage` (the fingerprints of
    /// every plan the restoring recovery has run under). A checkpoint
    /// written under a foreign plan is **mismatched state** — silently
    /// resuming it would splice another run's trajectory into this one —
    /// so it is a structured error, distinct from a torn envelope (which
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
