//! Pipe-BD core: strategies, simulator lowering, the threaded functional
//! executor, and the experiment facade.
//!
//! The timing side (paper Figs. 2, 4–7 and Table II times) flows through
//! [`ExperimentBuilder`] → [`Experiment::run`] → [`RunReport`]; the
//! functional side (paper Section VII-D, "scheduling does not change
//! results") flows through [`exec`], which trains real miniature models on
//! device threads with channel-based teacher relaying.
//!
//! # Example
//!
//! ```
//! use pipebd_core::{ExperimentBuilder, Strategy};
//! use pipebd_models::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let e = ExperimentBuilder::new(Workload::synthetic(6, false))
//!     .sim_rounds(8)
//!     .build()?;
//! let dp = e.run(Strategy::DataParallel)?;
//! let pb = e.run(Strategy::PipeBd)?;
//! assert!(pb.speedup_over(&dp) > 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod exec;
mod experiment;
pub mod lower;
mod memory;
mod report;
mod strategy;

pub use checkpoint::{
    BlockState, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSink, MemorySink,
};
pub use exec::ExecutorChoice;
pub use experiment::{Experiment, ExperimentBuilder, ExperimentError};
pub use memory::memory_per_rank;
pub use report::RunReport;
pub use strategy::Strategy;
