//! The pool concurrency battery: tests over the compute pool's
//! load-bearing guarantees.
//!
//! The exactly-once property is sampled across task counts and pool sizes
//! (the proptest shim derives its RNG from the test name, so every run
//! replays the same cases *modulo* OS thread interleaving — which is
//! exactly the nondeterminism under test):
//!
//! * **exactly-once** — N tasks across M lanes each run once: none lost
//!   to a missed wakeup, none run twice;
//! * **panic propagation** — a panicking scoped task reaches the scope
//!   caller as a panic (never a deadlock), and the pool stays usable;
//! * **interleaved scopes** — back-to-back scopes of changing sizes on
//!   one pool lose no task across park and wake.
//!
//! Iteration counts are bounded so the battery stays CI-friendly (it
//! also runs in the dedicated pool-stress CI lane in release mode).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use pipebd_tensor::parallel::ComputePool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_task_runs_exactly_once(tasks in 1usize..200, size in 1usize..6) {
        let pool = ComputePool::new(size);
        let counts: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            for c in &counts {
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "task {} ran a wrong number of times", i);
        }
    }
}

#[test]
fn scoped_panic_propagates_instead_of_deadlocking() {
    let pool = ComputePool::new(3);
    for round in 0..20 {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let survivors = &survivors;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("injected task failure");
                        }
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "round {round}: panic was swallowed");
        // Non-panicking siblings still ran (the scope drains, it does
        // not abort), and the pool survives for the next round.
        assert_eq!(survivors.load(Ordering::Relaxed), 7, "round {round}");
    }
    // The pool is still functional after 20 panicked scopes.
    let ok = AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..16 {
            let ok = &ok;
            s.spawn(move || {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(ok.load(Ordering::Relaxed), 16);
}

#[test]
fn panic_in_scope_body_beats_task_panics() {
    // When both the scope closure and a task panic, the closure's panic
    // is the one re-raised (tasks still drain first).
    let pool = ComputePool::new(2);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn(|| panic!("task panic"));
            panic!("scope body panic");
        });
    }))
    .unwrap_err();
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or_else(|| err.downcast_ref::<String>().map_or("?", String::as_str));
    assert_eq!(msg, "scope body panic");
}

#[test]
fn heavy_interleaved_scopes_do_not_lose_tasks() {
    // Bounded stress: many back-to-back scopes on one pool, alternating
    // burst sizes, to shake out lost-wakeup bugs in the park/unpark
    // protocol (a hang here is the failure mode, caught by CI timeouts).
    let pool = ComputePool::new(4);
    let total = AtomicUsize::new(0);
    let mut expected = 0usize;
    for round in 0..200 {
        let burst = 1 + (round * 7) % 23;
        expected += burst;
        pool.scope(|s| {
            for _ in 0..burst {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), expected);
}
