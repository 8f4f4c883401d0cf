//! The declared tolerance policy: how far each plane may disagree before
//! the conformance gate fails.
//!
//! Budgets are *asserted and recorded* — every scenario outcome carries
//! the budget it was judged against, so a tolerance change is visible in
//! the persisted `ConformanceReport`, not buried in test code.

use crate::{ConformanceStrategy, FaultClass};

/// An inclusive relative-error window for `simulated / analytic` ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioBudget {
    /// Lower bound (the simulator finishing *faster* than predicted also
    /// signals a modeling bug — e.g. work the estimator double-counts).
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl RatioBudget {
    /// Whether a ratio falls inside the window.
    pub fn contains(&self, ratio: f64) -> bool {
        ratio.is_finite() && self.lo <= ratio && ratio <= self.hi
    }
}

/// The conformance plane's declared tolerances.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceBook {
    /// Budget for the decoupled-update relay family (TR+DPU, TR+IR,
    /// hybrid, AHD, hetero-AHD): the steady-state period estimate ignores
    /// only relay-latency edges, so it is tight.
    pub dpu_family: RatioBudget,
    /// Budget for barrier teacher relaying: the analytic critical path
    /// ignores second-order queueing (loader jitter against the barrier),
    /// so it is slightly looser.
    pub barrier: RatioBudget,
    /// Budget for the DP baseline's per-phase period.
    pub dp: RatioBudget,
    /// Budget for the LS baseline's round period.
    pub ls: RatioBudget,
    /// Budget for fault scenarios that only stretch durations (host or
    /// loader slowdowns): the degraded estimate scales the same chains the
    /// simulator scales, so it stays nearly as tight as `dpu_family`.
    pub fault_slowdown: RatioBudget,
    /// Budget for host-loss scenarios: the replanned pipeline refills
    /// behind the splice barrier, so the tail window carries a little
    /// residual transient.
    pub fault_loss: RatioBudget,
    /// Budget for elastic host-join scenarios (same refill effect as a
    /// loss, plus the widened loader fan-out).
    pub fault_join: RatioBudget,
    /// Budget for compound scripts (slowdown + membership change).
    pub fault_compound: RatioBudget,
    /// Minimum estimator margin (heaviest / second-heaviest stage time)
    /// before the bottleneck-agreement check is asserted; near ties
    /// legitimately resolve either way at event level.
    pub bottleneck_margin: f64,
    /// Budget for the trace differential: `measured period / predicted
    /// period` of an instrumented executor run (measured-profile basis).
    /// Wall-clock measurements on a shared, timesharing host carry real
    /// scheduler noise — thread wakeup latency, cache state, allocator
    /// variance — and how much of each span's duration is contention
    /// inflation varies run to run: when stages overlap fully the period
    /// tracks the heaviest stage (ratio near 1), but when the host
    /// serializes the threads the period approaches the stage-time *sum*
    /// against a prediction that reports the *max*, pulling the ratio
    /// toward `1/num_stages` (¼ on the four-stage acceptance scenarios).
    /// The window brackets both regimes with headroom under the serial
    /// floor; the sharp assertion is the bottleneck-stage agreement,
    /// which contention inflation cannot move.
    pub trace: RatioBudget,
}

impl ToleranceBook {
    /// The gate's declared policy (see `ARCHITECTURE.md`, "Tolerances" —
    /// change the numbers there and here together).
    ///
    /// Observed fidelity on the committed matrix is far tighter than these
    /// windows (steady-state ratios within ~0.994..1.001 everywhere); the
    /// slack is headroom for legitimate cost-model evolution, not an
    /// admission of error.
    pub fn gate_default() -> Self {
        ToleranceBook {
            dpu_family: RatioBudget { lo: 0.90, hi: 1.15 },
            barrier: RatioBudget { lo: 0.90, hi: 1.25 },
            dp: RatioBudget { lo: 0.90, hi: 1.15 },
            ls: RatioBudget { lo: 0.90, hi: 1.15 },
            fault_slowdown: RatioBudget { lo: 0.90, hi: 1.18 },
            fault_loss: RatioBudget { lo: 0.90, hi: 1.20 },
            fault_join: RatioBudget { lo: 0.90, hi: 1.20 },
            fault_compound: RatioBudget { lo: 0.90, hi: 1.20 },
            bottleneck_margin: 1.10,
            trace: RatioBudget { lo: 0.20, hi: 3.00 },
        }
    }

    /// The simulator-vs-estimator budget for a strategy.
    pub fn sim_budget(&self, strategy: ConformanceStrategy) -> RatioBudget {
        match strategy {
            ConformanceStrategy::Dp => self.dp,
            ConformanceStrategy::Ls => self.ls,
            ConformanceStrategy::Tr => self.barrier,
            _ => self.dpu_family,
        }
    }

    /// The tail-period-vs-degraded-estimate budget for a fault class.
    pub fn fault_budget(&self, class: FaultClass) -> RatioBudget {
        match class {
            FaultClass::Slowdown => self.fault_slowdown,
            FaultClass::Loss => self.fault_loss,
            FaultClass::Join => self.fault_join,
            FaultClass::Compound => self.fault_compound,
        }
    }

    /// The executor-differential tolerance: bitwise for width-1 plans,
    /// the float-reassociation bound when shard gradients are averaged,
    /// and a wider bound when batch norm meets batch splitting — the
    /// per-shard normalization statistics are a *different function* of
    /// the batch than full-batch statistics, so shard outputs drift
    /// beyond pure float reassociation before the gradients are averaged.
    pub fn exec_tolerance(plan_uses_batch_split: bool, batch_norm: bool) -> f32 {
        match (plan_uses_batch_split, batch_norm) {
            (false, _) => 0.0,
            (true, false) => 1e-4,
            (true, true) => Self::BN_SHARD_EXEC,
        }
    }

    /// The widened-plan batch-norm executor budget (see
    /// [`ToleranceBook::exec_tolerance`]). Observed drift on the committed
    /// matrix stays well below this; the entry exists so relaxing the old
    /// `batch_norm: false` pin is a declared policy, not an accident.
    pub const BN_SHARD_EXEC: f32 = 5e-2;

    /// The recovery-differential tolerance: a killed-and-restored run
    /// against an uninterrupted reference. Width-1 incumbents stay
    /// *bitwise* — the recovery protocol never widens a split-free plan,
    /// checkpoints restore the exact state, and the remaining steps
    /// replay the same per-index-deterministic batches. Batch-split
    /// incumbents accumulate shard-mean reassociation twice (before the
    /// checkpoint and after the resume, possibly under a different
    /// degraded split), so they carry a slightly wider budget than the
    /// healthy differential's.
    pub fn recovery_tolerance(plan_uses_batch_split: bool) -> f32 {
        if plan_uses_batch_split {
            Self::RECOVERY_SPLIT_EXEC
        } else {
            0.0
        }
    }

    /// The batch-split recovery budget (see
    /// [`ToleranceBook::recovery_tolerance`]).
    pub const RECOVERY_SPLIT_EXEC: f32 = 5e-4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_bracket_unity() {
        let book = ToleranceBook::gate_default();
        for s in ConformanceStrategy::ALL {
            let b = book.sim_budget(s);
            assert!(b.lo < 1.0 && 1.0 < b.hi, "{s}: budget must bracket 1.0");
            assert!(b.contains(1.0));
            assert!(!b.contains(f64::NAN));
            assert!(!b.contains(b.hi + 0.01));
        }
    }

    #[test]
    fn exec_tolerance_is_bitwise_without_splitting() {
        assert_eq!(ToleranceBook::exec_tolerance(false, false), 0.0);
        assert_eq!(ToleranceBook::exec_tolerance(false, true), 0.0);
        assert!(ToleranceBook::exec_tolerance(true, false) > 0.0);
        assert!(
            ToleranceBook::exec_tolerance(true, true) > ToleranceBook::exec_tolerance(true, false),
            "shard batch-norm statistics need more room than reassociation"
        );
    }

    #[test]
    fn recovery_tolerance_is_bitwise_without_splitting() {
        assert_eq!(ToleranceBook::recovery_tolerance(false), 0.0);
        assert!(
            ToleranceBook::recovery_tolerance(true) > ToleranceBook::exec_tolerance(true, false),
            "a resumed split run accumulates reassociation twice"
        );
    }

    #[test]
    fn fault_budgets_bracket_unity_and_stay_ordered() {
        let book = ToleranceBook::gate_default();
        for class in FaultClass::ALL {
            let b = book.fault_budget(class);
            assert!(b.lo < 1.0 && 1.0 < b.hi, "{class:?} must bracket 1.0");
        }
        // Membership changes get at least the slowdown slack: they carry
        // the same scaling error plus the splice transient.
        assert!(book.fault_loss.hi >= book.fault_slowdown.hi);
        assert!(book.fault_join.hi >= book.fault_slowdown.hi);
        assert!(book.fault_compound.hi >= book.fault_slowdown.hi);
    }

    #[test]
    fn barrier_budget_is_loosest_relay_budget() {
        let book = ToleranceBook::gate_default();
        assert!(book.barrier.hi > book.dpu_family.hi);
    }
}
