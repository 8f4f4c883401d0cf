//! Artifact payload types beyond the core report/plan structs: figure run
//! sets and profiled cost tables.

use pipebd_core::RunReport;
use pipebd_models::BlockModel;
use pipebd_sched::ProfileTable;
use pipebd_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::ArtifactPayload;

/// The reports produced by one figure/table reproducer binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSet {
    /// Which figure or table this reproduces (e.g. `"fig2_motivation"`).
    pub figure: String,
    /// One-line description of the sweep.
    pub description: String,
    /// All reports of the sweep, in the order the binary produced them.
    pub reports: Vec<RunReport>,
}

impl ArtifactPayload for RunSet {
    const SCHEMA: &'static str = "pipebd.run_set";
    const VERSION: u32 = 2;
}

/// Profiled cost of one block at every profiled batch size, in integer
/// nanoseconds (exact round-trip; the profile is the scheduler's input and
/// must not drift through float text).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCost {
    /// Block name (e.g. `"b2"`).
    pub name: String,
    /// Teacher forward time per batch size, aligned with
    /// [`CostProfile::batch_sizes`].
    pub teacher_ns: Vec<u64>,
    /// Student forward+backward time per batch size.
    pub student_ns: Vec<u64>,
    /// Optimizer update time (batch-independent).
    pub update_ns: u64,
}

/// A persisted profiling pass: everything the AHD search needs to replay a
/// schedule decision from measured (here: modeled) times.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Workload label the profile was taken on.
    pub workload: String,
    /// GPU the cost model stood in for.
    pub gpu: String,
    /// Global batch size the feasible per-device batches derive from.
    pub global_batch: usize,
    /// Device count the feasible per-device batches derive from.
    pub num_devices: usize,
    /// Profiled per-device batch sizes, ascending.
    pub batch_sizes: Vec<usize>,
    /// Per-block cost rows, in block order.
    pub blocks: Vec<BlockCost>,
}

impl ArtifactPayload for CostProfile {
    const SCHEMA: &'static str = "pipebd.cost_profile";
    const VERSION: u32 = 1;
}

impl CostProfile {
    /// Captures a [`ProfileTable`] (plus the context it was profiled in)
    /// for persistence.
    ///
    /// # Panics
    ///
    /// Panics if `table` was not profiled over `model`'s blocks (length
    /// mismatch).
    pub fn from_table(
        workload: impl Into<String>,
        gpu: impl Into<String>,
        global_batch: usize,
        num_devices: usize,
        model: &BlockModel,
        table: &ProfileTable,
    ) -> Self {
        assert_eq!(
            model.num_blocks(),
            table.num_blocks(),
            "profile table does not cover the model's blocks"
        );
        let to_ns = |row: &[SimTime]| row.iter().map(SimTime::as_ns).collect::<Vec<u64>>();
        let blocks = model
            .blocks
            .iter()
            .enumerate()
            .map(|(i, desc)| BlockCost {
                name: desc.name.clone(),
                teacher_ns: to_ns(&table.teacher_rows()[i]),
                student_ns: to_ns(&table.student_rows()[i]),
                update_ns: table.update_time(i).as_ns(),
            })
            .collect();
        CostProfile {
            workload: workload.into(),
            gpu: gpu.into(),
            global_batch,
            num_devices,
            batch_sizes: table.batch_sizes().to_vec(),
            blocks,
        }
    }

    /// Rebuilds the [`ProfileTable`] the scheduler consumes.
    ///
    /// # Errors
    ///
    /// Returns a message when the persisted rows are not rectangular over
    /// [`CostProfile::batch_sizes`].
    pub fn to_table(&self) -> Result<ProfileTable, String> {
        let from_ns = |row: &[u64]| row.iter().copied().map(SimTime::from_ns).collect();
        let teacher = self.blocks.iter().map(|b| from_ns(&b.teacher_ns)).collect();
        let student = self.blocks.iter().map(|b| from_ns(&b.student_ns)).collect();
        let update = self
            .blocks
            .iter()
            .map(|b| SimTime::from_ns(b.update_ns))
            .collect();
        ProfileTable::from_parts(self.batch_sizes.clone(), teacher, student, update)
    }
}
