//! Executor-level fault injection: the deterministic [`FaultDriver`].
//!
//! The simulator's `FaultScript`s perturb *when* work runs; the driver
//! interprets the same scripts against the threaded executor's real
//! worker threads, as a pure function of `(rank, step)`:
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
//! * **Host join** events for ranks *beyond* the current worker set are
//!   pending growth: the step gate returns [`FaultAction::Grow`] at the
//!   earliest join step, every incumbent stops cleanly at that round
//!   boundary, and the recovery plane wires the next epoch over the
//!   enlarged member set (see `exec::recovery`). A join targeting a rank
//!   *inside* the worker set is rejected at construction — that member
//!   already exists, so the script must be projected
//!   (`FaultScript::for_survivors`) before a driver is built over it.
//!
//! Non-decoupled configs with a non-healthy script are rejected too: the
//! recovery plane's replay guarantees are stated for decoupled updates.

use std::time::Duration;

use pipebd_sim::{FaultEvent, FaultScript};

use super::ExecError;

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

/// Deterministic interpreter of a [`FaultScript`] over executor threads.
/// Immutable once built; one instance is shared (via `Arc`) by every
/// worker of an epoch.
#[derive(Debug)]
pub struct FaultDriver {
    script: FaultScript,
    /// Earliest pending-join step: the round at which the current epoch
    /// must stop so the member set can grow. `None` when no growth is
    /// scripted.
    grow: Option<usize>,
}

impl FaultDriver {
    /// Builds a driver for `script` over `devices` ranks. Join events for
    /// ranks `>= devices` are accepted as pending growth (they must
    /// extend the worker set contiguously — the shape
    /// `FaultScript::for_survivors` produces); the script is validated
    /// against the grown rank space.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Config`] when the script fails
    /// [`FaultScript::validate`], contains a join for a rank already in
    /// the worker set (project the script first), scatters its join
    /// ranks non-contiguously, or `decoupled` is false with a non-healthy
    /// script.
    pub fn new(script: &FaultScript, devices: usize, decoupled: bool) -> Result<Self, ExecError> {
        if let Some(FaultEvent::HostJoin { rank, at_step }) = script
            .events
            .iter()
            .find(|e| matches!(e, FaultEvent::HostJoin { rank, .. } if *rank < devices))
        {
            return Err(ExecError::Config(format!(
                "host join (rank {rank} at step {at_step}) targets a rank already \
                 in the {devices}-rank worker set: project the script with \
                 for_survivors after membership changes"
            )));
        }
        let pending = script.pending_joins(devices);
        let total = devices + pending.len();
        let mut join_ranks: Vec<usize> = pending.iter().map(|&(r, _)| r).collect();
        join_ranks.sort_unstable();
        if join_ranks != (devices..total).collect::<Vec<_>>() {
            return Err(ExecError::Config(format!(
                "pending join ranks {join_ranks:?} must extend the {devices}-rank \
                 worker set contiguously (project the script with for_survivors)"
            )));
        }
        script
            .validate(total)
            .map_err(|v| ExecError::Config(format!("fault script rejected: {v}")))?;
        if !decoupled && !script.is_healthy() {
            return Err(ExecError::Config(
                "fault injection requires decoupled updates".into(),
            ));
        }
        Ok(FaultDriver {
            script: script.clone(),
            grow: pending.iter().map(|&(_, s)| s as usize).min(),
        })
    }

    /// The round at which the current epoch must stop for the member set
    /// to grow (the earliest pending-join step), if any.
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
        if !self.script.alive(rank, step32) {
            return FaultAction::Lost;
        }
        let factor = self.script.factor(rank, step32);
        if factor > 1.0 {
            std::thread::sleep(PAUSE_PER_FACTOR.mul_f64(factor - 1.0));
        }
        FaultAction::Continue
    }

    /// Loader gate for stage-0 members loading step `step`'s batch.
    pub fn before_load(&self, step: usize) {
        let factor = self
            .script
            .loader_factor(step.min(u32::MAX as usize) as u32);
        if factor > 1.0 {
            std::thread::sleep(PAUSE_PER_FACTOR.mul_f64(factor - 1.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_script(rank: usize, at_step: u32) -> FaultScript {
        FaultScript {
            events: vec![FaultEvent::HostLoss { rank, at_step }],
        }
    }

    #[test]
    fn rejects_in_set_joins_and_coupled_updates() {
        // A join for a rank already inside the worker set is a script
        // that should have been projected first.
        let join = FaultScript {
            events: vec![FaultEvent::HostJoin {
                rank: 1,
                at_step: 3,
            }],
        };
        match FaultDriver::new(&join, 2, true) {
            Err(ExecError::Config(m)) => assert!(m.contains("already"), "got: {m}"),
            other => panic!("expected Config rejection, got {other:?}"),
        }
        assert!(matches!(
            FaultDriver::new(&loss_script(0, 2), 2, false),
            Err(ExecError::Config(_))
        ));
        // A healthy script is fine even with a barrier.
        FaultDriver::new(&FaultScript::healthy(), 2, false).expect("healthy + barrier ok");
    }

    #[test]
    fn future_joins_arm_the_grow_gate() {
        // Rank 2 joins a 2-rank worker set at step 3: accepted as pending
        // growth, and every incumbent stops at exactly that round.
        let join = FaultScript {
            events: vec![FaultEvent::HostJoin {
                rank: 2,
                at_step: 3,
            }],
        };
        let d = FaultDriver::new(&join, 2, true).expect("future join is realizable");
        assert_eq!(d.grow_step(), Some(3));
        assert_eq!(d.before_step(0, 2), FaultAction::Continue);
        assert_eq!(d.before_step(0, 3), FaultAction::Grow);
        assert_eq!(d.before_step(1, 3), FaultAction::Grow);
        // Growth wins over a same-step loss: the loss fires under the
        // re-wired member set, not in this epoch.
        let compound = FaultScript {
            events: vec![
                FaultEvent::HostLoss {
                    rank: 0,
                    at_step: 3,
                },
                FaultEvent::HostJoin {
                    rank: 2,
                    at_step: 3,
                },
            ],
        };
        let d = FaultDriver::new(&compound, 2, true).unwrap();
        assert_eq!(d.before_step(0, 3), FaultAction::Grow);
        // Non-contiguous join ranks are a projection bug, loudly.
        let scattered = FaultScript {
            events: vec![FaultEvent::HostJoin {
                rank: 5,
                at_step: 3,
            }],
        };
        assert!(matches!(
            FaultDriver::new(&scattered, 2, true),
            Err(ExecError::Config(_))
        ));
    }

    #[test]
    fn rejects_invalid_scripts() {
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
        assert!(matches!(
            FaultDriver::new(&overlap, 2, true),
            Err(ExecError::Config(_))
        ));
    }

    #[test]
    fn loss_fires_exactly_at_its_step_and_stays_lost() {
        let d = FaultDriver::new(&loss_script(1, 4), 2, true).unwrap();
        assert_eq!(d.before_step(1, 3), FaultAction::Continue);
        assert_eq!(d.before_step(1, 4), FaultAction::Lost);
        assert_eq!(d.before_step(1, 5), FaultAction::Lost);
        // The surviving rank keeps stepping.
        assert_eq!(d.before_step(0, 4), FaultAction::Continue);
    }

    #[test]
    fn healthy_driver_never_aborts() {
        let d = FaultDriver::new(&FaultScript::healthy(), 1, true).unwrap();
        for step in 0..16 {
            assert_eq!(d.before_step(0, step), FaultAction::Continue);
            d.before_load(step);
        }
        assert_eq!(d.grow_step(), None);
    }
}
