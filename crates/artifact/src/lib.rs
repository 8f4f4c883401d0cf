//! The artifact plane: durable, machine-readable run records.
//!
//! Every figure bin, conformance sweep, and schedule search in this
//! workspace gets a persistent form here: an [`ArtifactStore`] writes
//! schema-tagged, versioned JSON envelopes under `target/artifacts/` and
//! reads them back with drift checks, so measured profiles can feed the
//! scheduler (PipeDream-style measured-profile workflows).
//!
//! # Envelope format
//!
//! ```json
//! {
//!   "schema": "pipebd.run_report",
//!   "version": 1,
//!   "name": "fig2_motivation",
//!   "created_unix_s": 1753000000,
//!   "payload": { ... }
//! }
//! ```
//!
//! `schema` and `version` come from the payload type's
//! [`ArtifactPayload`] impl; [`ArtifactStore::load`] rejects mismatches
//! ([`ArtifactError::Schema`] / [`ArtifactError::Version`]) so a payload
//! struct can only evolve together with a version bump.
//!
//! Checkpoints are the one artifact that is not an envelope: a
//! [`CheckpointStore`] keeps training state in a binary file of its own
//! (layout in the `ckpt` module's source), sharing only the store's
//! atomic write and its error type.

mod ckpt;
mod payload;
mod store;
mod trace;

pub use ckpt::CheckpointStore;
pub use payload::{BlockCost, CostProfile, RunSet};
pub use store::{ArtifactError, ArtifactMeta, ArtifactStore};
pub use trace::TraceArtifact;

use pipebd_core::RunReport;
use pipebd_sched::StagePlan;
use serde::{Deserialize, Serialize};

/// A type that can be persisted as a schema-tagged artifact.
pub trait ArtifactPayload: Serialize + Deserialize {
    /// Schema identifier stamped into the envelope (e.g.
    /// `"pipebd.run_report"`).
    const SCHEMA: &'static str;
    /// Schema version; bump when the payload layout changes.
    const VERSION: u32;
}

impl ArtifactPayload for RunReport {
    const SCHEMA: &'static str = "pipebd.run_report";
    const VERSION: u32 = 2;
}

impl ArtifactPayload for StagePlan {
    const SCHEMA: &'static str = "pipebd.schedule_plan";
    const VERSION: u32 = 1;
}
