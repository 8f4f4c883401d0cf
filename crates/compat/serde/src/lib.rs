//! Offline stand-in for the `serde` crate: a facade over `pipebd_json`.
//!
//! The data model is `pipebd_json`'s — [`Serialize`] builds a JSON value,
//! [`Deserialize`] reads one back — and the derives of the same names
//! (`crates/compat/serde_derive`) generate both for named-field structs,
//! newtype structs and externally tagged enums. Workspace code keeps the
//! real crate's `use serde::{Deserialize, Serialize}` spelling; the trait
//! methods are not the real crate's, so this is no longer a manifest-only
//! swap.

pub use pipebd_json::{Deserialize, Serialize};
pub use serde_derive::{Deserialize, Serialize};

/// The path derived impls name their types and helpers through.
#[doc(hidden)]
pub use pipebd_json as __private;
