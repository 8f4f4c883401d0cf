//! Model zoo for the Pipe-BD reproduction.
//!
//! Two parallel representations of every model pair:
//!
//! 1. **Analytic descriptors** ([`BlockModel`] / [`BlockDescriptor`]):
//!    per-block MAC counts, parameter counts, activation shapes, and kernel
//!    counts — the inputs to the multi-GPU simulator and the AHD scheduler.
//!    Builders: [`nas_block_model`] (MobileNetV2 teacher → ProxylessNAS
//!    supernet student) and [`compression_block_model`] (VGG-16 teacher →
//!    DS-Conv student).
//! 2. **Executable miniatures** ([`mini`]): real CPU-trainable
//!    [`pipebd_nn::BlockNet`]s with the same structure, used by the
//!    threaded functional executor to prove scheduling does not alter
//!    training results.
//!
//! # Example
//!
//! ```
//! use pipebd_models::Workload;
//!
//! let w = Workload::nas_cifar10();
//! assert_eq!(w.num_blocks(), 6);
//! // The DP baseline re-executes teacher prefixes; block 5 needs them all.
//! assert_eq!(
//!     w.model.teacher_prefix_macs(5),
//!     w.model.teacher_macs(),
//! );
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod dataset;
pub mod descriptor;
pub mod mini;
pub mod mobilenet_v2;
pub mod proxyless;
pub mod vgg16;
pub mod workload;

pub use arch::{ActShape, LayerSpec, StackCost, StackSpec};
pub use dataset::DatasetSpec;
pub use descriptor::{BlockDescriptor, BlockModel, ModelError};
pub use mini::{mini_student_dsconv, mini_student_supernet, mini_teacher, MiniConfig};
pub use mobilenet_v2::InputVariant;
pub use proxyless::nas_block_model;
pub use vgg16::compression_block_model;
pub use workload::{TaskKind, Workload};
