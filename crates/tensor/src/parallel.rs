//! The compute pool behind the parallel compute plane.
//!
//! The blocked kernels (`gemm`, `im2col`) decompose their work across a
//! [`ComputePool`] when one is *active* on the calling thread: the
//! innermost [`install`]ed pool (the executors install a per-device pool
//! sized by `sched`'s stage widths, so stage concurrency and intra-stage
//! parallelism share one host budget). A thread nothing was installed on
//! runs every kernel serially — no pool is ever created behind the
//! caller's back.
//!
//! A pool of size `w` is `w - 1` worker threads plus the kernel-calling
//! thread. Every task goes through one queue (a `Mutex<VecDeque>` and one
//! `Condvar`): workers take from its front and sleep on the condvar when
//! it is empty; [`ComputePool::scope`]'s caller takes from it too while it
//! waits for its own tasks (the drain barrier). Pushes and parks share the
//! lock, so no push can slip between a worker's look and its sleep. A task
//! that panics is caught on its lane and the panic re-raised from `scope`
//! once every sibling has finished. Tasks get no scope handle, and a
//! kernel entered from inside a task runs serially, so tasks never nest.
//! Installing a pool of size 1 forces serial execution under a wider one —
//! that is how the determinism tests pin their baseline.
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

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

pub use crate::recycle::RecycleStats;
use crate::recycle::Recycler;

/// A type-erased, lifetime-erased task: [`Scope::spawn`] erases the
/// task's `'scope` to `'static` before it enters the queue, and
/// [`ComputePool::scope`]'s drain barrier is what keeps that sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A shareable handle to a device: a pool of compute lanes for kernel
/// work, and the device's buffers — an activation-sized tensor allocated
/// on a thread the pool is [`install`]ed on returns its buffer to the pool
/// when it drops, for the next allocation of that size there. The worker
/// threads are joined and the idle buffers freed with the last handle.
#[derive(Clone, Debug)]
pub struct ComputePool {
    lanes: Arc<Lanes>,
    recycler: Arc<Recycler>,
}

/// A snapshot of a pool's scheduling-event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Jobs taken from the queue, by a worker or by a helping scope caller.
    pub steals: u64,
    /// Times a worker went to sleep on an empty queue.
    pub parks: u64,
    /// Wake-ups signalled by job pushes.
    pub wakes: u64,
}

/// The pool's worker threads and the queue they serve.
struct Lanes {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

/// The one job queue every lane takes from: `(jobs, shutdown)` under one
/// lock, and the condvar idle workers park on.
#[derive(Default)]
struct Queue {
    state: Mutex<(VecDeque<Job>, bool)>,
    work: Condvar,
    /// Scheduling-event counters, relaxed: the trace plane snapshots them
    /// at run end; they order against nothing.
    steals: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, (VecDeque<Job>, bool)> {
        self.state.lock().expect("pool queue poisoned")
    }

    fn push(&self, job: Job) {
        self.lock().0.push_back(job);
        self.wakes.fetch_add(1, Ordering::Relaxed);
        self.work.notify_one();
    }

    /// The next job, without waiting.
    fn try_pop(&self) -> Option<Job> {
        let job = self.lock().0.pop_front();
        if job.is_some() {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        job
    }

    /// The body of each worker thread: take a job and run it, or park
    /// until a push or the shutdown. Jobs never unwind (a scope task
    /// catches its own panic), so no lane dies with work queued.
    fn serve(&self) {
        loop {
            let mut state = self.lock();
            let job = loop {
                if let Some(job) = state.0.pop_front() {
                    break job;
                }
                if state.1 {
                    return;
                }
                self.parks.fetch_add(1, Ordering::Relaxed);
                state = self.work.wait(state).expect("pool queue poisoned");
            };
            drop(state);
            self.steals.fetch_add(1, Ordering::Relaxed);
            job();
        }
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        self.queue.lock().1 = true;
        self.queue.work.notify_all();
        for worker in self.workers.drain(..) {
            let _join = worker.join();
        }
    }
}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lanes").field("size", &self.size).finish()
    }
}

impl ComputePool {
    /// Creates a pool with `size` compute lanes (`size - 1` worker
    /// threads; the kernel-calling thread is the last lane). `size <= 1`
    /// spawns no threads and makes every kernel run serially.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let queue = Arc::new(Queue::default());
        let workers = (1..size)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("pipebd-pool-{i}"))
                    .spawn(move || queue.serve())
                    .expect("spawn pool worker")
            })
            .collect();
        ComputePool {
            lanes: Arc::new(Lanes {
                queue,
                workers,
                size,
            }),
            recycler: Arc::default(),
        }
    }

    /// Number of compute lanes.
    pub fn size(&self) -> usize {
        self.lanes.size
    }

    /// Snapshots the pool's steal/park/wake counters (the trace plane
    /// reads these after a run; they never affect kernel results).
    pub fn stats(&self) -> PoolStats {
        let q = &self.lanes.queue;
        PoolStats {
            steals: q.steals.load(Ordering::Relaxed),
            parks: q.parks.load(Ordering::Relaxed),
            wakes: q.wakes.load(Ordering::Relaxed),
        }
    }

    /// Snapshots the pool's buffer-recycling counters (read by the trace
    /// plane after a run, like [`ComputePool::stats`]).
    pub fn recycle_stats(&self) -> RecycleStats {
        self.recycler.stats()
    }

    /// Runs `op` with a [`Scope`] for spawning tasks on the pool; every
    /// task spawned on it has finished (or panicked) by the time `scope`
    /// returns. The calling thread runs queued tasks while it waits.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `op` itself, or (if `op` succeeded) the
    /// first panic raised by a spawned task.
    pub fn scope<'scope, R>(&self, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            queue: Arc::clone(&self.lanes.queue),
            state: Arc::default(),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // The drain barrier, on the success and the panic path of `op`
        // alike: what makes the lifetime erasure in `Scope::spawn` sound.
        while scope.state.tally().0 > 0 {
            match scope.queue.try_pop() {
                Some(job) => job(),
                // Every task of this scope has left the queue: the rest
                // are running on workers, whose last one wakes us.
                None => scope.state.wait_done(),
            }
        }
        let task_panic = scope.state.tally().1.take();
        match (result, task_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(r), None) => r,
        }
    }
}

/// Completion tracking for one [`ComputePool::scope`] call.
#[derive(Default)]
struct ScopeState {
    /// Tasks spawned and not yet finished, and the first task panic.
    tally: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

impl ScopeState {
    fn tally(&self) -> MutexGuard<'_, (usize, Option<Box<dyn Any + Send>>)> {
        self.tally.lock().expect("scope tally poisoned")
    }

    fn finish(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut tally = self.tally();
        tally.0 -= 1;
        if tally.1.is_none() {
            tally.1 = panic;
        }
        if tally.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Sleeps until every task of the scope has finished.
    fn wait_done(&self) {
        let mut tally = self.tally();
        while tally.0 > 0 {
            tally = self.done.wait(tally).expect("scope tally poisoned");
        }
    }
}

/// Spawn handle passed to the closure of [`ComputePool::scope`]; tasks may
/// borrow anything that outlives `'scope`.
pub struct Scope<'scope> {
    queue: Arc<Queue>,
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, the `std::thread::scope` discipline.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns one task. It runs with the in-task marker set, so a kernel
    /// it calls runs serially instead of nesting scopes.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        self.state.tally().0 += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let outer = IN_POOL_TASK.with(|flag| flag.replace(true));
            let result = catch_unwind(AssertUnwindSafe(f));
            IN_POOL_TASK.with(|flag| flag.set(outer));
            state.finish(result.err());
        });
        // SAFETY: the job's captures only need to live for `'scope`, but
        // the queue requires `'static`. `ComputePool::scope` does not
        // return or unwind before this scope's task count is back to zero,
        // i.e. until this job has finished running, so no `'scope` borrow
        // is invalidated while the job can still use it. This is the same
        // join-before-return argument that underpins `std::thread::scope`.
        #[allow(unsafe_code)]
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.queue.push(job);
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
            wide.scope(|s| {
                s.spawn(|| {
                    // A kernel called from inside a task must not nest.
                    assert!(active_pool().is_none());
                });
            });
        });
    }

    #[test]
    fn inline_pool_runs_everything_on_caller() {
        let pool = ComputePool::new(1);
        assert_eq!(pool.size(), 1);
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool.scope(|s| {
            let slot = &mut ran_on;
            s.spawn(move || *slot = Some(std::thread::current().id()));
        });
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn scope_tasks_borrow_disjoint_chunks() {
        let pool = ComputePool::new(3);
        let mut data = vec![0u32; 64];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(16).enumerate() {
                s.spawn(move || chunk.fill(i as u32 + 1));
            }
        });
        for (i, chunk) in data.chunks(16).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as u32 + 1));
        }
    }

    #[test]
    fn task_panic_propagates_to_scope_caller() {
        let pool = ComputePool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom from task"));
                s.spawn(|| {}); // a healthy sibling still completes
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom from task");
        // The pool survives a panicked scope.
        let mut ok = false;
        pool.scope(|s| s.spawn(|| ok = true));
        assert!(ok);
    }

    #[test]
    fn stats_observe_scheduling_events() {
        let pool = ComputePool::new(1);
        assert_eq!(pool.stats(), PoolStats::default(), "idle pool is silent");
        pool.scope(|s| (0..16).for_each(|_| s.spawn(|| {})));
        // The inline pool's caller takes every job from the queue.
        let st = pool.stats();
        assert_eq!((st.steals, st.wakes, st.parks), (16, 16, 0));

        let pooled = ComputePool::new(3);
        pooled.scope(|s| (0..32).for_each(|_| s.spawn(std::thread::yield_now)));
        let st = pooled.stats();
        assert_eq!((st.steals, st.wakes), (32, 32));
    }

    #[test]
    fn sequential_scopes_reuse_parked_workers() {
        let pool = ComputePool::new(3);
        for round in 0..50u32 {
            let count = std::sync::atomic::AtomicU32::new(0);
            pool.scope(|s| {
                for _ in 0..round % 7 {
                    s.spawn(|| {
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(count.load(Ordering::SeqCst), round % 7);
        }
    }
}
