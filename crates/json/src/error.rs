//! The crate-wide error type.

use std::fmt;

use crate::value::{Number, Value};

/// Error raised by parsing JSON text or reading a typed value from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Data-model error (wrong type, missing field, …) with a message.
    Message(String),
    /// Syntax error at a 1-based line and column of the input text.
    Syntax {
        /// 1-based line of the offending byte.
        line: usize,
        /// 1-based column (in bytes) of the offending byte.
        col: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Message(msg) => f.write_str(msg),
            Error::Syntax { line, col, msg } => {
                write!(f, "JSON syntax error at line {line}, column {col}: {msg}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// `value` is of the wrong kind for what was `expected`.
    pub(crate) fn invalid_type(value: &Value, expected: &str) -> Error {
        let found = match value {
            Value::Null => "a unit value",
            Value::Bool(_) => "a boolean",
            Value::Number(Number::PosInt(_)) => "an unsigned integer",
            Value::Number(Number::NegInt(_)) => "an integer",
            Value::Number(Number::Float(_)) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "a sequence",
            Value::Object(_) => "a map",
        };
        Error::Message(format!("invalid type: {found}, expected {expected}"))
    }
}
