//! Discrete-event simulator of a single-node multi-GPU training server.
//!
//! This crate is the reproduction's stand-in for the paper's hardware
//! (4× RTX A6000 / 4× RTX 2080 Ti servers): a deterministic task-graph
//! simulator with
//!
//! * a roofline [`GpuModel`] whose occupancy-based efficiency penalizes
//!   small per-device batches (the reason data parallelism underutilizes
//!   GPUs in the baseline),
//! * a [`PcieModel`] for activation relays and gradient all-reduce,
//! * a shared [`HostModel`] loader pool where redundant data loading
//!   queues up, and
//! * per-rank [`Breakdown`]s and ASCII Gantt charts ([`render_gantt`])
//!   reproducing the paper's Fig. 2 and Fig. 5 visualizations.
//!
//! The strategy lowering lives in `pipebd-core`; this crate only knows how
//! to execute task graphs.
//!
//! # Example
//!
//! ```
//! use pipebd_sim::{simulate, Resource, SimTime, TaskGraph, TaskKind};
//!
//! let mut g = TaskGraph::new(2);
//! let t0 = g.add(Resource::Gpu(0), TaskKind::Teacher, SimTime::from_us(10.0), &[]);
//! let send = g.add(Resource::Copy(0), TaskKind::Comm, SimTime::from_us(1.0), &[t0]);
//! let t1 = g.add(Resource::Gpu(1), TaskKind::Teacher, SimTime::from_us(10.0), &[send]);
//! let run = simulate(&g);
//! assert_eq!(run.finish_of(t1), SimTime::from_us(21.0));
//! ```

#![warn(missing_docs)]

mod engine;
mod fault;
mod gpu;
mod hardware;
mod host;
mod interconnect;
mod task;
mod time;
mod trace;

pub use engine::{busy_per_gpu, simulate, SimRun};
pub use fault::{
    simulate_faulted, FaultEvent, FaultScript, FaultSimRun, FaultTimeline, FaultViolation,
};
pub use gpu::GpuModel;
pub use hardware::HardwareConfig;
pub use host::HostModel;
pub use interconnect::PcieModel;
pub use task::{Resource, Task, TaskGraph, TaskId, TaskKind};
pub use time::SimTime;
pub use trace::{render_gantt, Breakdown, RankBreakdown};
