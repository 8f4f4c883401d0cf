//! The two implementations of the tensor crate's hot compute paths.
//!
//! Every heavy kernel (`matmul` and friends, `conv2d` and its adjoints)
//! exists in two implementations:
//!
//! * [`KernelPolicy::Naive`] — the original direct loops: slow, exact,
//!   trivially auditable, and kept as the oracle the fast path is
//!   tested against.
//! * [`KernelPolicy::Blocked`] — the compute plane every un-suffixed
//!   kernel runs: packed blocked GEMM (`gemm` module) for the matrix
//!   products, and for convolutions the kernel their geometry allows
//!   (`lowering` module) — the naive loops where there is no faster one.
//!
//! Nothing ambient chooses between them: `matmul`, `conv2d` and the
//! adjoints always run `Blocked`, and the `*_with` variants take the
//! policy as an argument — the one way a test (or a probe) reaches the
//! naive oracle.

/// Selects the implementation used by the `*_with` kernel variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Direct scalar loops — the reference oracle.
    Naive,
    /// The blocked compute plane — what every un-suffixed kernel runs.
    Blocked,
}

impl std::fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelPolicy::Naive => write!(f, "naive"),
            KernelPolicy::Blocked => write!(f, "blocked"),
        }
    }
}

/// The implementation the un-suffixed kernels run: always
/// [`KernelPolicy::Blocked`].
///
/// Kept only because the run header in `benchmark/src/main.rs` records
/// it; delete it with whichever change next owns `benchmark/`.
pub fn kernel_policy() -> KernelPolicy {
    KernelPolicy::Blocked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(KernelPolicy::Naive.to_string(), "naive");
        assert_eq!(KernelPolicy::Blocked.to_string(), "blocked");
    }
}
