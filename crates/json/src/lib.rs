//! JSON backend for the Pipe-BD artifact plane, and the data model every
//! persisted type is written in.
//!
//! A small, dependency-free `serde_json` analogue:
//!
//! * [`Value`] / [`Number`] — an order-preserving JSON document tree;
//! * [`Serialize`] / [`Deserialize`] — a type's conversion to and from a
//!   [`Value`], implemented for the std types persisted fields use and
//!   generated for the rest by `#[derive]` (the `serde` facade in
//!   `crates/compat` re-exports both traits next to the derives, which
//!   expand to calls into [`mod@derive`]);
//! * [`parse`] — a recursive-descent tokenizer/parser with full string
//!   escape handling (including `\uXXXX` surrogate pairs) and a nesting
//!   depth limit;
//! * [`render`] — compact and pretty text;
//! * [`to_string`] / [`to_string_pretty`] / [`from_str`] — a typed value
//!   to text and back, through its tree.
//!
//! # Number round-tripping
//!
//! Integers keep their signedness ([`Number::PosInt`] / [`Number::NegInt`]
//! cover the full `u64` / `i64` ranges — no silent routing through `f64`),
//! and floats render with Rust's shortest-round-trip `Display` plus a
//! forced `.0` suffix so they re-parse as floats. An `f32` is stored as
//! the `f64` its shortest text reparses to, so it renders as that text and
//! narrows back bit for bit (shortest decimal for an `f32` identifies it
//! uniquely, and the parse's correctly rounded `f64` narrows back without
//! double-rounding error). Non-finite floats serialize as `null` (JSON has
//! no NaN/Inf; matching `serde_json`), and no float loads as one: `null`
//! is refused, and so is a number that narrows to an infinity — the
//! policy is lossy by construction and tests pin it.

pub mod derive;
mod error;
mod model;
mod parse;
pub mod render;
mod value;

pub use error::Error;
pub use model::{Deserialize, Serialize};
pub use parse::parse;
pub use value::{Number, Value};

/// Maximum nesting depth accepted by [`parse`] (arrays + objects).
pub const MAX_DEPTH: usize = 128;

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// None: every value has a text form. The `Result` matches `from_str`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render::compact(&value.to_json()))
}

/// Serializes a value to pretty (2-space indented) JSON text.
///
/// # Errors
///
/// None, as [`to_string`].
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render::pretty(&value.to_json()))
}

/// Deserializes a value from JSON text.
///
/// # Errors
///
/// A syntax error from [`parse`], or a data-model error when the document
/// does not describe a `T`.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    T::from_json(&parse(input)?)
}
