//! Automatic hybrid distribution: exhaustive search over the hybrid plan
//! space using profiled block times (the paper's Section IV-C).
//!
//! A plan's estimate is the maximum of its stages' [`stage_time`]s
//! ([`estimate_period`](crate::estimate_period)), and a stage's time
//! depends only on its block range and width. So the search computes
//! [`stage_time`] once per
//! `(first_block, num_blocks, width)`, walks the plan space
//! ([`walk_hybrid_plans`](crate::walk_hybrid_plans)) taking each plan's
//! maximum over that table, and builds only the winner.

use pipebd_models::Workload;
use pipebd_sim::{HardwareConfig, SimTime};

use crate::estimate::stage_time;
use crate::plan::{first_minimum, hybrid_plan_count, StagePlan, StageTerms};
use crate::profile::ProfileTable;

/// The outcome of an AHD search.
#[derive(Debug, Clone, PartialEq)]
pub struct AhdDecision {
    /// The chosen plan (minimal estimated period; first wins ties, which
    /// keeps the decision deterministic).
    pub plan: StagePlan,
    /// Its estimated steady-state period.
    pub estimate: SimTime,
    /// Every plan's estimate, in walk order: zip it with
    /// [`enumerate_hybrid_plans`](crate::enumerate_hybrid_plans) for the
    /// plans (the schedule-explorer example ranks them that way).
    pub evaluated: Vec<SimTime>,
}

/// Runs the exhaustive AHD search.
///
/// The paper notes the search space (`B` and `N` around ten) is small
/// enough for exhaustion, and the decision is made once before training so
/// its cost amortizes to nothing. Every plan gets exactly its
/// [`estimate_period`](crate::estimate_period).
///
/// # Panics
///
/// Panics when the workload has no blocks or the server no GPUs.
pub fn search(
    workload: &Workload,
    table: &ProfileTable,
    hw: &HardwareConfig,
    global_batch: usize,
) -> AhdDecision {
    let (blocks, devices) = (workload.num_blocks(), hw.num_gpus);
    let times = StageTerms::by_width(blocks, devices, |stage| {
        stage_time(stage, table, workload, hw, global_batch)
    });
    let mut evaluated = Vec::with_capacity(hybrid_plan_count(blocks, devices));
    let (plan, estimate) = first_minimum(blocks, devices, |block_counts, widths| {
        let est = times
            .of_plan(block_counts, widths)
            .fold(SimTime::ZERO, |period, (&t, _)| period.max(t));
        evaluated.push(est);
        est
    });
    AhdDecision {
        plan,
        estimate,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::estimate::estimate_period;
    use crate::plan::enumerate_hybrid_plans;
    use crate::profile::Profiler;

    fn profile(workload: &Workload, hw: &HardwareConfig, batch: usize) -> ProfileTable {
        Profiler::new(CostModel::new(hw.gpu.clone())).profile(&workload.model, batch, hw.num_gpus)
    }

    fn decide(workload: &Workload, hw: &HardwareConfig, batch: usize) -> AhdDecision {
        search(workload, &profile(workload, hw, batch), hw, batch)
    }

    #[test]
    fn search_is_exhaustive() {
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let d = decide(&w, &hw, 256);
        assert_eq!(d.evaluated.len(), hybrid_plan_count(6, 4));
    }

    #[test]
    fn chosen_plan_minimizes_estimate() {
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let table = profile(&w, &hw, 256);
        let d = search(&w, &table, &hw, 256);
        let plans = enumerate_hybrid_plans(6, 4);
        assert_eq!(d.evaluated.len(), plans.len());
        for (plan, est) in plans.iter().zip(&d.evaluated) {
            assert_eq!(*est, estimate_period(plan, &table, &w, &hw, 256), "{plan}");
            assert!(d.estimate <= *est);
        }
        let first = d.evaluated.iter().position(|est| *est == d.estimate);
        assert_eq!(
            first.map(|i| &plans[i]),
            Some(&d.plan),
            "first minimum wins"
        );
    }

    #[test]
    fn imagenet_splits_the_heavy_first_block() {
        // The paper's Fig. 5: on ImageNet NAS, AHD shares early blocks
        // across devices because block 0 dominates.
        let w = Workload::nas_imagenet();
        let hw = HardwareConfig::a6000_server(4);
        let d = decide(&w, &hw, 256);
        let first = d.plan.stage_of_block(0).expect("block 0 placed");
        assert!(
            first.width() > 1,
            "expected batch-split on block 0, chose {}",
            d.plan
        );
    }

    #[test]
    fn cifar_prefers_narrow_stages() {
        // On CIFAR the workload is already balanced; the paper finds AHD's
        // extra splitting unprofitable there (utilization loss offsets the
        // balance gain). The chosen plan should use little or no splitting.
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let d = decide(&w, &hw, 256);
        let split_width: usize = d
            .plan
            .stages
            .iter()
            .map(|s| s.width().saturating_sub(1))
            .sum();
        assert!(
            split_width <= 2,
            "CIFAR should not split aggressively, chose {}",
            d.plan
        );
    }

    #[test]
    fn decision_is_deterministic() {
        let w = Workload::nas_imagenet();
        let hw = HardwareConfig::a6000_server(4);
        let a = decide(&w, &hw, 256);
        let b = decide(&w, &hw, 256);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn gpu_type_changes_the_schedule() {
        // Fig. 5b vs 5c: the same workload lands on different schedules on
        // 2080Ti vs A6000.
        let w = Workload::nas_imagenet();
        let a = decide(&w, &HardwareConfig::a6000_server(4), 256);
        let t = decide(&w, &HardwareConfig::rtx2080ti_server(4), 256);
        // Both must split block 0; the exact shapes may differ. At minimum
        // the estimates differ (different devices)…
        assert_ne!(a.estimate, t.estimate);
        // …and the paper observes a *wider* early split on A6000.
        let a_w = a.plan.stage_of_block(0).unwrap().width();
        let t_w = t.plan.stage_of_block(0).unwrap().width();
        assert!(
            a_w >= t_w,
            "A6000 split {a_w} should be ≥ 2080Ti split {t_w}"
        );
    }
}
