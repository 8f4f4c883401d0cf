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
//! * **Host loss** cancels the rank: the step gate returns
//!   [`FaultAction::Lost`] and the worker ends its epoch as lost. Waking
//!   the survivors is the epoch's job, not the driver's — see
//!   `exec::threaded`.
//! * **Host join**: from the first join step on, the step gate returns
//!   [`FaultAction::Grow`]: every incumbent stops cleanly at that round
//!   boundary, and the recovery plane wires the next epoch over the
//!   enlarged member set (see `exec::recovery`).
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

/// What a worker must do at the top of a training step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed (any slowdown pause has already been served).
    Continue,
    /// The rank is lost from this step on: the worker ends its epoch.
    Lost,
    /// A scripted join came due: the epoch ends at this round boundary so
    /// the next one can be wired over the enlarged member set. Every
    /// incumbent stops here.
    Grow,
}

/// Deterministic interpreter of a [`FaultTimeline`] over executor threads.
/// Immutable once built; one instance is shared (via `Arc`) by every
/// worker of an epoch.
#[derive(Debug)]
pub struct FaultDriver {
    timeline: FaultTimeline,
    /// The first join step, where the epoch stops so the member set can
    /// grow. `None` when no growth is scripted.
    grow: Option<usize>,
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
            grow: timeline.first_join().map(|s| s as usize),
        })
    }

    /// The round at which the current epoch must stop for the member set
    /// to grow (the first join step), if any.
    pub fn grow_step(&self) -> Option<usize> {
        self.grow
    }

    /// Step gate for GPU `rank` entering training step `step`: serves the
    /// rank's slowdown pause (wall-clock only) and reports growth and
    /// losses. Growth wins over a same-step loss — the epoch ends at the
    /// boundary and the loss fires under the re-wired member set.
    pub fn before_step(&self, rank: usize, step: usize) -> FaultAction {
        if matches!(self.grow, Some(g) if step >= g) {
            return FaultAction::Grow;
        }
        let step32 = step.min(u32::MAX as usize) as u32;
        if !self.timeline.alive(rank, step32) {
            return FaultAction::Lost;
        }
        pause(self.timeline.factor(rank, step32));
        FaultAction::Continue
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
    fn future_joins_arm_the_grow_gate() {
        // Rank 2 joins a 2-rank worker set at step 3: pending growth, and
        // every incumbent stops at exactly that round.
        let d = driver(
            vec![FaultEvent::HostJoin {
                rank: 2,
                at_step: 3,
            }],
            3,
        );
        assert_eq!(d.grow_step(), Some(3));
        assert_eq!(d.before_step(0, 2), FaultAction::Continue);
        assert_eq!(d.before_step(0, 3), FaultAction::Grow);
        assert_eq!(d.before_step(1, 3), FaultAction::Grow);
        // Growth wins over a same-step loss: the loss fires under the
        // re-wired member set, not in this epoch.
        let compound = vec![
            FaultEvent::HostLoss {
                rank: 0,
                at_step: 3,
            },
            FaultEvent::HostJoin {
                rank: 2,
                at_step: 3,
            },
        ];
        assert_eq!(driver(compound, 3).before_step(0, 3), FaultAction::Grow);
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
        assert_eq!(d.before_step(1, 3), FaultAction::Continue);
        assert_eq!(d.before_step(1, 4), FaultAction::Lost);
        assert_eq!(d.before_step(1, 5), FaultAction::Lost);
        // The surviving rank keeps stepping.
        assert_eq!(d.before_step(0, 4), FaultAction::Continue);
    }

    #[test]
    fn healthy_driver_never_aborts() {
        let d = driver(vec![], 1);
        for step in 0..16 {
            assert_eq!(d.before_step(0, step), FaultAction::Continue);
            d.before_load(step);
        }
        assert_eq!(d.grow_step(), None);
    }
}
