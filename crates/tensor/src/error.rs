use std::fmt;

/// Error type for tensor operations.
///
/// All fallible public functions in this crate return [`TensorError`]. The
/// variants carry enough context (the offending shapes or sizes) to diagnose
/// the failure without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two shapes that were required to match (exactly or per-axis) did not.
    ShapeMismatch {
        /// What the operation expected.
        expected: Vec<usize>,
        /// What it actually received.
        actual: Vec<usize>,
        /// The operation that failed, e.g. `"matmul"`.
        op: &'static str,
    },
    /// The number of elements implied by a shape does not match a buffer.
    LengthMismatch {
        /// Number of elements implied by the requested shape.
        expected: usize,
        /// Number of elements available.
        actual: usize,
        /// The operation that failed.
        op: &'static str,
    },
    /// An operation received a tensor of the wrong rank.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Received rank.
        actual: usize,
        /// The operation that failed.
        op: &'static str,
    },
    /// A configuration value (stride, padding, group count, …) is invalid.
    InvalidArgument {
        /// Human-readable description of the invalid argument.
        message: String,
    },
}

impl TensorError {
    /// Convenience constructor for [`TensorError::InvalidArgument`].
    pub fn invalid(message: impl Into<String>) -> Self {
        TensorError::InvalidArgument {
            message: message.into(),
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch {
                expected,
                actual,
                op,
            } => write!(
                f,
                "shape mismatch in {op}: expected {expected:?}, got {actual:?}"
            ),
            TensorError::LengthMismatch {
                expected,
                actual,
                op,
            } => write!(
                f,
                "length mismatch in {op}: shape implies {expected} elements, buffer has {actual}"
            ),
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => write!(
                f,
                "rank mismatch in {op}: expected {expected}, got {actual}"
            ),
            TensorError::InvalidArgument { message } => {
                write!(f, "invalid argument: {message}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            expected: vec![2, 3],
            actual: vec![3, 2],
            op: "matmul",
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[3, 2]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn invalid_constructor() {
        let err = TensorError::invalid("stride must be nonzero");
        assert!(err.to_string().contains("stride must be nonzero"));
    }
}
