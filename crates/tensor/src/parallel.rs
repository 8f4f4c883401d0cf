//! Pool plumbing for the parallel compute plane.
//!
//! The blocked kernels (`gemm`, `im2col`) decompose their work across a
//! work-stealing [`crossbeam::pool::ThreadPool`] when one is *active* on
//! the calling thread: the innermost [`install`]ed pool (the executors
//! install a per-device pool sized by `sched`'s stage widths, so stage
//! concurrency and intra-stage parallelism share one host budget). A
//! thread nothing was installed on runs every kernel serially — no pool
//! is ever created behind the caller's back.
//!
//! A pool of size `w` is `w - 1` worker threads plus the kernel-calling
//! thread, which helps execute tasks inside the scope. Installing a pool
//! of size 1 forces serial execution under a wider one — that is how the
//! determinism tests pin their baseline.
//!
//! **Determinism contract:** every parallel decomposition in this crate
//! partitions the *output* so that each output element is produced, in
//! full, by exactly one task — row/column bands of C for GEMM,
//! `(batch, group)` blocks for the convolutions, `dW` row bands for the
//! weight gradient — and each task runs the unchanged serial kernel over
//! its partition. A float is never split across workers and partial sums
//! are never combined across workers, so each output element's fma chain
//! is the same instruction sequence the serial kernel executes, and
//! parallel results are **bitwise identical** to serial results for
//! every pool size. The `parallel_determinism` test battery asserts
//! exactly this.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

pub use crossbeam::pool::PoolStats;
use crossbeam::pool::{Scope, ThreadPool};

pub use crate::recycle::RecycleStats;
use crate::recycle::Recycler;

/// A shareable handle to a device: a work-stealing pool sized for kernel
/// work, and the device's buffers — an activation-sized tensor allocated
/// on a thread the pool is [`install`]ed on returns its buffer to the pool
/// when it drops, for the next allocation of that size there. The idle
/// buffers are freed with the last handle to the pool.
#[derive(Clone, Debug)]
pub struct ComputePool {
    inner: Arc<ThreadPool>,
    recycler: Arc<Recycler>,
}

impl ComputePool {
    /// Creates a pool with `size` compute lanes (`size - 1` worker
    /// threads; the kernel-calling thread is the last lane). `size <= 1`
    /// spawns no threads and makes every kernel run serially.
    pub fn new(size: usize) -> Self {
        ComputePool {
            inner: Arc::new(ThreadPool::new(size)),
            recycler: Arc::default(),
        }
    }

    /// Number of compute lanes.
    pub fn size(&self) -> usize {
        self.inner.size()
    }

    /// Snapshots the pool's steal/park/wake counters (the trace plane
    /// reads these after a run; they never affect kernel results).
    pub fn stats(&self) -> PoolStats {
        self.inner.stats()
    }

    /// Snapshots the pool's buffer-recycling counters (read by the trace
    /// plane after a run, like [`ComputePool::stats`]).
    pub fn recycle_stats(&self) -> RecycleStats {
        self.recycler.stats()
    }

    /// Runs `op` with a [`PoolScope`] for spawning kernel tasks; returns
    /// after every spawned task has finished.
    pub(crate) fn run_scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&PoolScope<'_, 'scope>) -> R,
    {
        self.inner.scope(|s| op(&PoolScope { inner: s }))
    }
}

/// Scope handle passed to kernel decompositions; wraps the raw pool
/// scope so every task body runs with the in-task marker set (a task
/// that re-enters a parallel kernel entry runs it serially instead of
/// nesting scopes).
pub(crate) struct PoolScope<'a, 'scope> {
    inner: &'a Scope<'scope>,
}

impl<'scope> PoolScope<'_, 'scope> {
    /// Spawns one kernel task.
    pub(crate) fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(move |_| {
            // Restore on unwind too: the panic is caught by the pool and
            // re-raised from `scope`, and this thread (a worker, or the
            // caller helping inline) keeps running other work.
            struct Reset(bool);
            impl Drop for Reset {
                fn drop(&mut self) {
                    IN_POOL_TASK.with(|flag| flag.set(self.0));
                }
            }
            let _reset = Reset(IN_POOL_TASK.with(|flag| flag.replace(true)));
            f();
        });
    }
}

thread_local! {
    /// Stack of [`install`]ed pools on this thread (innermost last).
    static INSTALLED: RefCell<Vec<ComputePool>> = const { RefCell::new(Vec::new()) };
    /// Set while a pool task body runs, to suppress nested decomposition.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with `pool` as this thread's active compute pool (innermost
/// wins; restored on exit, panic included).
pub fn install<R>(pool: &ComputePool, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            INSTALLED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    INSTALLED.with(|s| s.borrow_mut().push(pool.clone()));
    let _guard = Guard;
    f()
}

/// Runs `f` on the buffer recycler of this thread's innermost
/// [`install`]ed pool, if any.
pub(crate) fn with_recycler<R>(f: impl FnOnce(&Arc<Recycler>) -> R) -> Option<R> {
    INSTALLED.with(|s| s.borrow().last().map(|pool| f(&pool.recycler)))
}

/// The pool a kernel on this thread should decompose onto, if any:
/// `None` means run serially (no pool installed, a size-1 pool installed,
/// or the caller is itself a pool task).
pub(crate) fn active_pool() -> Option<ComputePool> {
    if IN_POOL_TASK.with(Cell::get) {
        return None;
    }
    INSTALLED
        .with(|s| s.borrow().last().cloned())
        .filter(|p| p.size() > 1)
}

/// The parallel width kernels on this thread currently see (1 = serial).
pub fn active_width() -> usize {
    active_pool().map_or(1, |p| p.size())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_stacks_and_restores() {
        let serial = ComputePool::new(1);
        let wide = ComputePool::new(3);
        install(&wide, || {
            assert_eq!(active_width(), 3);
            install(&serial, || {
                // Inner size-1 pool forces serial even under a wide one.
                assert_eq!(active_width(), 1);
                assert!(active_pool().is_none());
            });
            assert_eq!(active_width(), 3);
        });
    }

    #[test]
    fn tasks_see_serial_ambient() {
        let wide = ComputePool::new(2);
        install(&wide, || {
            wide.run_scope(|s| {
                s.spawn(|| {
                    // A kernel called from inside a task must not nest.
                    assert!(active_pool().is_none());
                });
            });
        });
    }
}
