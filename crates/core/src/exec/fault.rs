//! Executor-level fault injection: the deterministic [`FaultDriver`].
//!
//! The simulator's `FaultScript`s perturb *when* work runs; the driver
//! interprets the same scripts against the threaded executor's real
//! worker threads, as a pure function of `(rank, step)` read off the
//! script's [`FaultTimeline`]:
//!
//! * **Slowdown windows** pause the covered rank's thread for a small
//!   wall-clock interval each step — observable in timing, invisible in
//!   results (the tensor determinism contract makes scheduling
//!   result-free).
//! * **Loader slowdown** pauses stage-0 data loading the same way.
//! * **Host loss** cancels the rank: the step gate answers `false` and
//!   the worker ends its epoch as lost. Waking the survivors is the
//!   epoch's job, not the driver's — see `exec::threaded`.
//!
//! Joins are not the driver's business: an epoch runs over a fixed member
//! set, so the recovery runner ends each epoch at the next join and wires
//! the next one over the enlarged set (see `exec::recovery`).
//!
//! The timeline's first ranks are the epoch's workers, members from its
//! first step, then the joiners — the layout
//! `FaultTimeline::for_survivors` produces. Fault injection requires
//! decoupled updates: the recovery plane's replay guarantees are stated
//! for them.

use std::time::Duration;

use pipebd_sim::FaultTimeline;

use super::SpecError;

/// Wall-clock pause per unit of excess slowdown factor. Kept small: the
/// pause must be observable enough to reorder decoupled workers without
/// slowing the test matrix down.
const PAUSE_PER_FACTOR: Duration = Duration::from_micros(300);

/// Deterministic interpreter of a [`FaultTimeline`] over executor threads.
/// Immutable once built; one instance is shared (via `Arc`) by every
/// worker of an epoch.
#[derive(Debug)]
pub struct FaultDriver {
    timeline: FaultTimeline,
}

impl FaultDriver {
    /// Builds a driver over `timeline`, whose first ranks are the epoch's
    /// workers (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::CoupledFaults`] when `decoupled` is false and
    /// the timeline is not healthy.
    pub fn new(timeline: &FaultTimeline, decoupled: bool) -> Result<Self, SpecError> {
        if !decoupled && !timeline.is_healthy() {
            return Err(SpecError::CoupledFaults);
        }
        Ok(FaultDriver {
            timeline: timeline.clone(),
        })
    }

    /// The epoch gate: refuses an epoch ending at round `end` that a rank
    /// joins before then, since an epoch runs over a fixed member set.
    pub(crate) fn check_epoch(&self, end: usize) -> Result<(), SpecError> {
        match self.timeline.first_join().map(|j| j as usize) {
            Some(join) if join < end => Err(SpecError::JoinInEpoch { join, end }),
            _ => Ok(()),
        }
    }

    /// Step gate for GPU `rank` entering training step `step`: whether
    /// the rank is still alive, with its slowdown pause (wall-clock only)
    /// served if it is. A lost rank stays lost.
    pub fn before_step(&self, rank: usize, step: usize) -> bool {
        let step32 = step.min(u32::MAX as usize) as u32;
        let alive = self.timeline.alive(rank, step32);
        if alive {
            pause(self.timeline.factor(rank, step32));
        }
        alive
    }

    /// Loader gate for stage-0 members loading step `step`'s batch.
    pub fn before_load(&self, step: usize) {
        pause(
            self.timeline
                .loader_factor(step.min(u32::MAX as usize) as u32),
        );
    }
}

/// Serves the wall-clock pause of a slowdown `factor`.
fn pause(factor: f64) {
    if factor > 1.0 {
        std::thread::sleep(PAUSE_PER_FACTOR.mul_f64(factor - 1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_sim::{FaultEvent, FaultScript};

    fn driver(events: Vec<FaultEvent>, ranks: usize) -> FaultDriver {
        let timeline = FaultScript { events }.timeline(ranks).unwrap();
        FaultDriver::new(&timeline, true).unwrap()
    }

    #[test]
    fn rejects_coupled_updates() {
        let loss = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 0,
                at_step: 2,
            }],
        };
        assert_eq!(
            FaultDriver::new(&loss.timeline(2).unwrap(), false).unwrap_err(),
            SpecError::CoupledFaults
        );
        // A healthy script is fine even with a barrier.
        let healthy = FaultScript::healthy().timeline(2).unwrap();
        FaultDriver::new(&healthy, false).expect("healthy + barrier ok");
    }

    #[test]
    fn rejects_invalid_scripts() {
        // An unrealizable script has no timeline, so no driver is built
        // over it.
        let overlap = FaultScript {
            events: vec![
                FaultEvent::Slowdown {
                    rank: 0,
                    factor: 2.0,
                    start_step: 0,
                    end_step: 5,
                },
                FaultEvent::Slowdown {
                    rank: 0,
                    factor: 3.0,
                    start_step: 3,
                    end_step: 8,
                },
            ],
        };
        assert!(overlap.timeline(2).is_err());
    }

    #[test]
    fn loss_fires_exactly_at_its_step_and_stays_lost() {
        let d = driver(
            vec![FaultEvent::HostLoss {
                rank: 1,
                at_step: 4,
            }],
            2,
        );
        assert!(d.before_step(1, 3));
        assert!(!d.before_step(1, 4));
        assert!(!d.before_step(1, 5));
        // The surviving rank keeps stepping.
        assert!(d.before_step(0, 4));
    }

    #[test]
    fn healthy_driver_never_aborts() {
        let d = driver(vec![], 1);
        for step in 0..16 {
            assert!(d.before_step(0, step));
            d.before_load(step);
        }
    }
}
