//! Run reports: the measured outcome of one strategy on one workload.

use pipebd_sched::{LsAssignment, StagePlan};
use pipebd_sim::{Breakdown, SimTime};
use serde::{Deserialize, Serialize};

use crate::strategy::Strategy;

/// The outcome of simulating one strategy.
///
/// Persisted as a schema-tagged JSON artifact by the artifact plane
/// (`pipebd_artifact`); every field round-trips exactly (times are integer
/// nanoseconds), so a reloaded report compares equal to the original.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Which strategy ran.
    pub strategy: Strategy,
    /// Workload identifier (e.g. `"NAS/cifar10"`).
    pub workload: String,
    /// Hardware identifier (e.g. `"4x RTX A6000"`).
    pub hardware: String,
    /// Global batch size.
    pub global_batch: usize,
    /// Rounds actually simulated.
    pub simulated_rounds: u32,
    /// Rounds in a real epoch (`steps_per_epoch × rounds_per_step`).
    pub epoch_rounds: u64,
    /// Makespan of the simulated span.
    pub sim_makespan: SimTime,
    /// Extrapolated one-epoch time.
    pub epoch_time: SimTime,
    /// Per-rank time breakdown of the simulated span.
    pub breakdown: Breakdown,
    /// Per-rank peak memory in bytes.
    pub memory_per_rank: Vec<u64>,
    /// Stage plan (relay-family strategies).
    pub plan: Option<StagePlan>,
    /// Block assignment (LS baseline).
    pub ls_blocks: Option<Vec<Vec<usize>>>,
}

impl RunReport {
    /// Extrapolated epoch time in seconds.
    pub fn epoch_time_s(&self) -> f64 {
        self.epoch_time.as_secs_f64()
    }

    /// Speedup of `self` over a baseline report (ratio of epoch times).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.epoch_time_s() / self.epoch_time_s().max(f64::MIN_POSITIVE)
    }

    /// Peak memory over all ranks, in bytes.
    pub fn peak_memory(&self) -> u64 {
        self.memory_per_rank.iter().copied().max().unwrap_or(0)
    }

    /// Mean memory overhead of this run relative to a baseline, as a
    /// fraction (the paper reports Pipe-BD at +8.7% / +21.3% over DP).
    pub fn memory_overhead_over(&self, baseline: &RunReport) -> f64 {
        let own: f64 = self.memory_per_rank.iter().map(|&b| b as f64).sum();
        let base: f64 = baseline.memory_per_rank.iter().map(|&b| b as f64).sum();
        if base == 0.0 {
            return 0.0;
        }
        own / base - 1.0
    }

    /// Formats the Fig. 2 style breakdown row for one rank:
    /// `(data loading, teacher, student, idle)` in seconds, scaled to a
    /// full epoch.
    pub fn epoch_breakdown_row(&self, rank: usize) -> (f64, f64, f64, f64) {
        let scale = self.epoch_scale();
        let r = &self.breakdown.ranks[rank];
        (
            r.data_loading().as_secs_f64() * scale,
            r.teacher.as_secs_f64() * scale,
            r.student_total().as_secs_f64() * scale,
            r.idle.as_secs_f64() * scale,
        )
    }

    /// The multiplier from simulated span to one epoch.
    pub fn epoch_scale(&self) -> f64 {
        self.epoch_rounds as f64 / self.simulated_rounds.max(1) as f64
    }

    /// Record of the LS assignment, if this was an LS run.
    pub fn set_ls(&mut self, ls: &LsAssignment) {
        self.ls_blocks = Some(ls.device_blocks.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(strategy: Strategy, epoch_s: f64, mem: Vec<u64>) -> RunReport {
        RunReport {
            strategy,
            workload: "test".into(),
            hardware: "test".into(),
            global_batch: 256,
            simulated_rounds: 10,
            epoch_rounds: 100,
            sim_makespan: SimTime::from_secs_f64(epoch_s / 10.0),
            epoch_time: SimTime::from_secs_f64(epoch_s),
            breakdown: Breakdown::default(),
            memory_per_rank: mem,
            plan: None,
            ls_blocks: None,
        }
    }

    #[test]
    fn speedup_ratio() {
        let dp = dummy(Strategy::DataParallel, 30.0, vec![100; 4]);
        let pb = dummy(Strategy::PipeBd, 10.0, vec![110; 4]);
        assert!((pb.speedup_over(&dp) - 3.0).abs() < 1e-9);
        assert!((dp.speedup_over(&dp) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_overhead_fraction() {
        let dp = dummy(Strategy::DataParallel, 30.0, vec![100; 4]);
        let pb = dummy(Strategy::PipeBd, 10.0, vec![110; 4]);
        assert!((pb.memory_overhead_over(&dp) - 0.1).abs() < 1e-9);
        assert_eq!(pb.peak_memory(), 110);
    }

    #[test]
    fn epoch_scale_multiplier() {
        let r = dummy(Strategy::TrDpu, 20.0, vec![1]);
        assert!((r.epoch_scale() - 10.0).abs() < 1e-12);
    }
}
