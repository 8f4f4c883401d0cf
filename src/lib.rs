//! # Pipe-BD: pipelined parallel blockwise distillation
//!
//! Umbrella crate for the Rust reproduction of *"Pipe-BD: Pipelined Parallel
//! Blockwise Distillation"* (DATE 2023). It re-exports the public API of the
//! workspace crates so downstream users can depend on a single crate:
//!
//! * [`tensor`] — minimal CPU tensor library with explicit adjoint kernels.
//! * [`nn`] — layers, blocks, losses, and optimizers for blockwise
//!   distillation.
//! * [`models`] — MobileNetV2 / ProxylessNAS / VGG-16 / DS-Conv descriptors
//!   and mini executable versions.
//! * [`sim`] — discrete-event simulator of a single-node multi-GPU server.
//! * [`sched`] — stage plans, profiling, and the AHD plan search.
//! * [`data`] — dataset descriptors and synthetic datasets.
//! * [`core`] — the Pipe-BD strategies, simulator lowering, threaded
//!   functional executor, and the [`core::Experiment`] facade.
//! * [`json`] — the JSON backend (parser, `Value` tree, renderers, and
//!   the `Serialize`/`Deserialize` data model) behind the artifact plane.
//! * [`artifact`] — the persistent artifact store: schema-tagged run
//!   reports, schedules, profiles, and bench baselines under
//!   `target/artifacts/`.
//! * [`testkit`] — the conformance plane: deterministic scenario
//!   enumeration and the differential harness cross-checking the
//!   executors, the simulator, and the analytic estimator.
//!
//! # Quickstart
//!
//! ```
//! use pipe_bd::core::{ExperimentBuilder, Strategy};
//! use pipe_bd::sim::HardwareConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let experiment = ExperimentBuilder::nas_cifar10()
//!     .devices(4)
//!     .batch_size(256)
//!     .hardware(HardwareConfig::a6000_server(4))
//!     .build()?;
//! let dp = experiment.run(Strategy::DataParallel)?;
//! let pipebd = experiment.run(Strategy::PipeBd)?;
//! assert!(pipebd.epoch_time_s() < dp.epoch_time_s());
//! # Ok(())
//! # }
//! ```

pub use pipebd_artifact as artifact;
pub use pipebd_core as core;
pub use pipebd_data as data;
pub use pipebd_json as json;
pub use pipebd_models as models;
pub use pipebd_nn as nn;
pub use pipebd_sched as sched;
pub use pipebd_sim as sim;
pub use pipebd_tensor as tensor;
pub use pipebd_testkit as testkit;
