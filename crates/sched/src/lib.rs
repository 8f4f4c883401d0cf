//! Scheduling for pipelined blockwise distillation.
//!
//! This crate contains every scheduling decision of the Pipe-BD paper:
//!
//! * [`StagePlan`] — the hybrid block/batch distribution vocabulary
//!   (Fig. 3b–d schedules are all stage plans);
//! * [`CostModel`] / [`Profiler`] — the profiling pass that measures block
//!   times at feasible batch sizes before training (Section V-B);
//! * [`walk_hybrid_plans`] — the one order of the hybrid plan space, walked
//!   without building plans;
//! * [`ahd::search`] — the exhaustive automatic-hybrid-distribution search
//!   over profiled times (Section IV-C), [`replan::replan`] on a degraded
//!   server and [`hetero::search`] on mixed GPUs, each scoring stages from
//!   a per-search table;
//! * [`ls::pack`] — the layerwise bin-packing baseline of Blakeney et al.;
//! * [`estimate_period`] — the steady-state pipeline period estimate the
//!   search minimizes (validated against the simulator in the integration
//!   tests).
//!
//! # Example
//!
//! ```
//! use pipebd_models::Workload;
//! use pipebd_sched::{ahd, CostModel, Profiler};
//! use pipebd_sim::HardwareConfig;
//!
//! let workload = Workload::nas_imagenet();
//! let hw = HardwareConfig::a6000_server(4);
//! let table = Profiler::new(CostModel::new(hw.gpu.clone()))
//!     .profile(&workload.model, 256, hw.num_gpus);
//! let decision = ahd::search(&workload, &table, &hw, 256);
//! // On ImageNet the heavy first block gets batch-split (the paper's
//! // Fig. 5 schedules).
//! assert!(decision.plan.stage_of_block(0).unwrap().width() > 1);
//! ```

#![warn(missing_docs)]

pub mod ahd;
mod cost;
mod estimate;
pub mod hetero;
pub mod ls;
mod plan;
mod profile;
pub mod replan;

pub use ahd::AhdDecision;
pub use cost::CostModel;
pub use estimate::{
    barrier_period, bottleneck_stage, dp_makespan, dp_phase_period, estimate_period, fill_time,
    ls_round_period, stage_time, stage_times,
};
pub use hetero::{HeteroDecision, HeteroServer};
pub use ls::LsAssignment;
pub use plan::{
    compositions, enumerate_hybrid_plans, hybrid_plan_count, walk_hybrid_plans, InvalidPlan, Stage,
    StagePlan,
};
pub use profile::{ProfileTable, Profiler, UnprofiledBatch};
pub use replan::{degraded_estimate, replan_overhead, DegradedServer, ReplanDecision};
