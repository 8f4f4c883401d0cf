//! Online replanning against a degraded cluster.
//!
//! When a fault event fires mid-run (a host slows down, drops out, or
//! joins), the remaining schedule should be re-decided against the cluster
//! as it now is, not as it was profiled. This module is the scheduler side
//! of the fault plane:
//!
//! * [`DegradedServer`] — a snapshot of a [`HardwareConfig`] under a
//!   [`FaultScript`] at one training step: the surviving member ranks,
//!   their slowdown factors, and the loader-pool factor;
//! * [`degraded_estimate`] — the steady-state period of a [`StagePlan`]
//!   on that snapshot. Each member's whole per-round chain (consume,
//!   teachers, students, gradient share, updates) scales by its factor —
//!   exactly how `pipebd_sim::simulate_faulted` scales the lowered task
//!   durations — and the shared loader pool bounds the round from below;
//! * [`replan`] — the AHD search re-run over the degraded snapshot:
//!   exhaustive over hybrid plans for the surviving member count, scored
//!   by [`degraded_estimate`] from a table of per-stage member chains,
//!   plus a deterministic [`replan_overhead`] charge (search cost +
//!   redistributing student/optimizer state). That charge is a modeled
//!   constant per plan in simulated time, not the search's wall time.
//!
//! Because the search space for `m` members contains every plan over `m`
//! logical devices, the incumbent plan (remapped onto the survivors) is
//! always a candidate: the replanned estimate can never exceed the
//! incumbent's degraded estimate. The conformance proptests pin exactly
//! that invariant.

use pipebd_models::Workload;
use pipebd_sim::{
    FaultScript, FaultTimeline, FaultViolation, GpuModel, HardwareConfig, HostModel, PcieModel,
    SimTime,
};

use crate::cost::CostModel;
use crate::plan::{first_minimum, Stage, StagePlan, StageTerms};

/// A homogeneous server as a fault script leaves it at one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedServer {
    /// Surviving physical ranks, ascending (logical device `d` of a plan
    /// over this server maps to physical rank `members[d]`).
    pub members: Vec<usize>,
    /// Slowdown factor per member, parallel to `members` (`1.0` = healthy).
    pub factors: Vec<f64>,
    /// The healthy base GPU model (all ranks identical, as in the paper).
    pub gpu: GpuModel,
    /// Shared interconnect.
    pub pcie: PcieModel,
    /// Shared host / loader pool.
    pub host: HostModel,
    /// Loader-pool slowdown factor (`1.0` = healthy).
    pub loader_factor: f64,
}

impl DegradedServer {
    /// Snapshots `hw` under `script` at training step `step`: the script's
    /// timeline over `hw`'s ranks, read by [`Self::from_timeline`].
    ///
    /// # Errors
    ///
    /// Returns the [`FaultViolation`] refusing the script on this server,
    /// or the one of [`Self::from_timeline`].
    pub fn at_step(
        hw: &HardwareConfig,
        script: &FaultScript,
        step: u32,
    ) -> Result<Self, FaultViolation> {
        Self::from_timeline(hw, &script.timeline(hw.num_gpus)?, step)
    }

    /// Snapshots `hw` under `timeline` (over the server's ranks) at
    /// training step `step`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultViolation::InvalidScript`] when no rank survives at
    /// `step`.
    pub fn from_timeline(
        hw: &HardwareConfig,
        timeline: &FaultTimeline,
        step: u32,
    ) -> Result<Self, FaultViolation> {
        let members = timeline.members(step);
        if members.is_empty() {
            return Err(FaultViolation::InvalidScript(format!(
                "no rank survives at step {step}"
            )));
        }
        let factors = members.iter().map(|&r| timeline.factor(r, step)).collect();
        Ok(DegradedServer {
            members,
            factors,
            gpu: hw.gpu.clone(),
            pcie: hw.pcie.clone(),
            host: hw.host.clone(),
            loader_factor: timeline.loader_factor(step),
        })
    }

    /// Number of surviving members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Whether the snapshot is indistinguishable from the healthy server
    /// (every rank present at unit factor).
    pub fn is_healthy(&self, num_gpus: usize) -> bool {
        self.members.len() == num_gpus
            && self.factors.iter().all(|&f| f == 1.0)
            && self.loader_factor == 1.0
    }
}

/// Time of one scaled duration: `t × factor`, rounded once.
fn scaled(t: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        return t;
    }
    SimTime::from_secs_f64(t.as_secs_f64() * factor)
}

/// Steady-state period of `plan` on a degraded server.
///
/// `plan` is over `server.num_members()` *logical* devices (batch split
/// evenly inside widened stages, matching the relay lowering). Member `d`'s
/// per-round chain — consume for stage 0, teacher/student/update per block,
/// gradient all-reduce in widened stages — runs `server.factors[d]`× slower
/// end to end, mirroring how `simulate_faulted` scales every GPU-stream and
/// copy-engine task of a slowed rank. The shared loader pool (scaled by the
/// loader factor) bounds the period from below; for a healthy server the
/// value reduces to `estimate_period` whenever the loader does not bind.
///
/// # Panics
///
/// Panics if `plan.num_devices` disagrees with the surviving member count.
pub fn degraded_estimate(
    plan: &StagePlan,
    server: &DegradedServer,
    workload: &Workload,
    global_batch: usize,
) -> SimTime {
    assert_eq!(
        plan.num_devices,
        server.num_members(),
        "plan is over {} devices but {} members survive",
        plan.num_devices,
        server.num_members()
    );
    let cost = CostModel::new(server.gpu.clone());
    let mut period = SimTime::ZERO;
    for stage in &plan.stages {
        let chain = member_chain(stage, &cost, server, workload, global_batch);
        for &d in &stage.devices {
            period = period.max(scaled(chain, server.factors[d]));
        }
    }
    period.max(pool_bound(
        plan.stages[0].width(),
        server,
        workload,
        global_batch,
    ))
}

/// One member's unscaled per-round chain in `stage`: teacher, student and
/// update per block, the gradient all-reduce of a widened stage, and
/// stage 0's consume.
fn member_chain(
    stage: &Stage,
    cost: &CostModel,
    server: &DegradedServer,
    workload: &Workload,
    global_batch: usize,
) -> SimTime {
    let db = stage.device_batch(global_batch);
    let mut chain = SimTime::ZERO;
    for b in stage.blocks() {
        let desc = &workload.model.blocks[b];
        chain += cost.teacher_time(desc, db);
        chain += cost.student_time(desc, db);
        chain += cost.update_time(desc);
    }
    if stage.width() > 1 {
        let grad_bytes: u64 = stage
            .blocks()
            .map(|b| 4 * workload.model.blocks[b].student_params)
            .sum();
        chain += server.pcie.allreduce_time(grad_bytes, stage.width());
    }
    if stage.first_block == 0 {
        let bytes = db as u64 * workload.dataset.sample_bytes();
        chain += server.host.consume_time(db, bytes, &server.pcie);
    }
    chain
}

/// Shared-pool bound of a plan whose stage 0 is `width0` members wide: each
/// consumer decodes one batch per round on the (possibly degraded) FIFO
/// loader pool.
fn pool_bound(
    width0: usize,
    server: &DegradedServer,
    workload: &Workload,
    global_batch: usize,
) -> SimTime {
    let db0 = global_batch.div_ceil(width0);
    let one_decode = server
        .host
        .decode_time(db0, workload.dataset.decode_us_per_sample);
    let pool_round = SimTime::from_ns(one_decode.as_ns() * width0 as u64);
    scaled(pool_round, server.loader_factor)
}

/// Deterministic cost of one online replanning pass on `server`: the
/// exhaustive search over the surviving members' plan space plus the PCIe
/// time to redistribute every block's student parameters and optimizer
/// state to its new owner.
pub fn replan_overhead(workload: &Workload, server: &DegradedServer) -> SimTime {
    let plans = crate::plan::hybrid_plan_count(workload.num_blocks(), server.num_members());
    let search = SimTime::from_us(2.0 * plans as f64);
    let state_bytes: u64 = workload
        .model
        .blocks
        .iter()
        .map(|b| b.student_state_bytes())
        .sum();
    search + server.pcie.transfer_time(state_bytes)
}

/// The outcome of an online replanning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanDecision {
    /// The chosen plan, over `device_map.len()` logical devices (minimal
    /// degraded estimate; first wins ties, keeping the decision
    /// deterministic like `ahd::search`).
    pub plan: StagePlan,
    /// Logical device → physical rank (a copy of the server's members).
    pub device_map: Vec<usize>,
    /// The plan's estimated steady-state period on the degraded server.
    pub estimate: SimTime,
    /// The overhead charge for this pass ([`replan_overhead`]).
    pub overhead: SimTime,
    /// Number of candidate plans evaluated.
    pub evaluated: usize,
}

/// Re-runs the AHD search against a degraded server snapshot.
///
/// Exhaustive over the hybrid plans for the surviving member count; every
/// plan gets exactly its [`degraded_estimate`]. A member's chain depends
/// only on its stage's block range and width, so the search computes each
/// `(first_block, num_blocks, width)` chain once, scales it by each
/// member's factor per plan, and builds only the winner.
///
/// # Panics
///
/// Panics when the workload has no blocks or the server no members.
pub fn replan(workload: &Workload, server: &DegradedServer, global_batch: usize) -> ReplanDecision {
    let (blocks, members) = (workload.num_blocks(), server.num_members());
    let cost = CostModel::new(server.gpu.clone());
    let chains = StageTerms::by_width(blocks, members, |stage| {
        member_chain(stage, &cost, server, workload, global_batch)
    });
    let pools: Vec<SimTime> = (1..=members)
        .map(|width0| pool_bound(width0, server, workload, global_batch))
        .collect();
    let mut evaluated = 0;
    let (plan, estimate) = first_minimum(blocks, members, |block_counts, widths| {
        evaluated += 1;
        let mut period = SimTime::ZERO;
        for (&chain, devices) in chains.of_plan(block_counts, widths) {
            for d in devices {
                period = period.max(scaled(chain, server.factors[d]));
            }
        }
        period.max(pools[widths[0] - 1])
    });
    ReplanDecision {
        plan,
        device_map: server.members.clone(),
        estimate,
        overhead: replan_overhead(workload, server),
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ahd;
    use crate::profile::Profiler;
    use pipebd_sim::FaultEvent;

    fn hw() -> HardwareConfig {
        HardwareConfig::a6000_server(4)
    }

    fn healthy(hw: &HardwareConfig) -> DegradedServer {
        DegradedServer::at_step(hw, &FaultScript::healthy(), 0).unwrap()
    }

    fn slowdown(rank: usize, factor: f64) -> FaultScript {
        FaultScript {
            events: vec![FaultEvent::Slowdown {
                rank,
                factor,
                start_step: 0,
                end_step: u32::MAX,
            }],
        }
    }

    #[test]
    fn healthy_snapshot_has_all_members_at_unit_factor() {
        let hw = hw();
        let s = DegradedServer::at_step(&hw, &FaultScript::healthy(), 7).unwrap();
        assert_eq!(s.factors, vec![1.0; 4]);
        assert_eq!(s.loader_factor, 1.0);
        assert!(s.is_healthy(4));
        assert_eq!(s.members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn snapshot_tracks_membership_and_factors() {
        let hw = hw();
        let script = FaultScript {
            events: vec![
                FaultEvent::HostLoss {
                    rank: 2,
                    at_step: 5,
                },
                FaultEvent::Slowdown {
                    rank: 0,
                    factor: 2.0,
                    start_step: 5,
                    end_step: 10,
                },
            ],
        };
        let before = DegradedServer::at_step(&hw, &script, 4).unwrap();
        assert_eq!(before.members, vec![0, 1, 2, 3]);
        assert!(before.is_healthy(4));
        let after = DegradedServer::at_step(&hw, &script, 5).unwrap();
        assert_eq!(after.members, vec![0, 1, 3]);
        assert_eq!(after.factors, vec![2.0, 1.0, 1.0]);
        assert!(!after.is_healthy(4));
    }

    #[test]
    fn snapshot_rejects_empty_cluster() {
        let hw = HardwareConfig::a6000_server(1);
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 0,
                at_step: 3,
            }],
        };
        assert!(matches!(
            DegradedServer::at_step(&hw, &script, 3),
            Err(FaultViolation::InvalidScript(_))
        ));
    }

    #[test]
    fn healthy_degraded_estimate_matches_estimate_period() {
        // With unit factors and a non-binding loader, the degraded estimate
        // reduces exactly to the AHD estimator the search already uses.
        let w = Workload::nas_cifar10();
        let hw = hw();
        let server = healthy(&hw);
        let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, 256, 4);
        for plan in [
            StagePlan::contiguous(6, 4).unwrap(),
            StagePlan::internal_relaying(6, 4),
            StagePlan::from_widths(&[(3, 3), (3, 1)], 6, 4).unwrap(),
        ] {
            let healthy = crate::estimate::estimate_period(&plan, &table, &w, &hw, 256);
            let degraded = degraded_estimate(&plan, &server, &w, 256);
            assert_eq!(degraded, healthy.max(degraded), "loader bound only adds");
            assert!(
                degraded >= healthy,
                "{plan}: degraded {degraded} vs healthy {healthy}"
            );
            // On these scenarios the pool never binds: exact agreement.
            assert_eq!(degraded, healthy, "{plan}");
        }
    }

    #[test]
    fn estimate_is_monotone_in_any_members_factor() {
        let w = Workload::nas_cifar10();
        let hw = hw();
        let plan = StagePlan::contiguous(6, 4).unwrap();
        for rank in 0..4 {
            let mut prev = SimTime::ZERO;
            for f in [1.0, 1.5, 2.0, 4.0] {
                let server = DegradedServer::at_step(&hw, &slowdown(rank, f), 0).unwrap();
                let est = degraded_estimate(&plan, &server, &w, 256);
                assert!(est >= prev, "rank {rank} factor {f}");
                prev = est;
            }
        }
    }

    #[test]
    fn replanned_estimate_never_exceeds_incumbent() {
        // The incumbent plan is in the enumerated space, so the replanned
        // estimate is a lower bound of its degraded estimate.
        let w = Workload::nas_imagenet();
        let hw = hw();
        let incumbent = StagePlan::contiguous(6, 4).unwrap();
        for f in [1.0, 2.0, 3.0] {
            let server = DegradedServer::at_step(&hw, &slowdown(0, f), 0).unwrap();
            let d = replan(&w, &server, 256);
            let keep = degraded_estimate(&incumbent, &server, &w, 256);
            assert!(
                d.estimate <= keep,
                "factor {f}: replanned {} vs incumbent {keep}",
                d.estimate
            );
            assert_eq!(d.device_map, vec![0, 1, 2, 3]);
            assert_eq!(d.plan.num_devices, 4);
            d.plan.validate().unwrap();
        }
    }

    #[test]
    fn replan_on_healthy_server_matches_paper_ahd() {
        let w = Workload::nas_imagenet();
        let hw = hw();
        let server = healthy(&hw);
        let d = replan(&w, &server, 256);
        let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, 256, 4);
        let paper = ahd::search(&w, &table, &hw, 256);
        assert_eq!(d.plan, paper.plan);
        assert_eq!(d.estimate, paper.estimate);
        assert_eq!(d.evaluated, paper.evaluated.len());
    }

    #[test]
    fn host_loss_shrinks_the_plan_space_to_survivors() {
        let w = Workload::nas_cifar10();
        let hw = hw();
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 1,
                at_step: 2,
            }],
        };
        let server = DegradedServer::at_step(&hw, &script, 2).unwrap();
        let d = replan(&w, &server, 256);
        assert_eq!(d.device_map, vec![0, 2, 3]);
        assert_eq!(d.plan.num_devices, 3);
        assert_eq!(
            d.evaluated,
            crate::plan::hybrid_plan_count(6, 3),
            "search is exhaustive over the survivors"
        );
    }

    #[test]
    fn replanning_routes_work_away_from_a_straggler() {
        // A heavily slowed rank should not keep an even share: the chosen
        // plan's estimate must beat the incumbent's by a clear margin.
        let w = Workload::nas_imagenet();
        let hw = hw();
        let incumbent = StagePlan::internal_relaying(6, 4);
        let server = DegradedServer::at_step(&hw, &slowdown(3, 4.0), 0).unwrap();
        let keep = degraded_estimate(&incumbent, &server, &w, 256);
        let d = replan(&w, &server, 256);
        assert!(
            d.estimate.as_secs_f64() < 0.9 * keep.as_secs_f64(),
            "replanned {} should clearly beat straggling incumbent {keep}",
            d.estimate
        );
    }

    #[test]
    fn overhead_is_positive_and_grows_with_plan_space() {
        let w = Workload::nas_cifar10();
        let hw = hw();
        let full = healthy(&hw);
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 0,
                at_step: 0,
            }],
        };
        let smaller = DegradedServer::at_step(&hw, &script, 0).unwrap();
        let o4 = replan_overhead(&w, &full);
        let o3 = replan_overhead(&w, &smaller);
        assert!(o4 > SimTime::ZERO);
        assert!(o4 > o3, "more members -> larger search space -> more cost");
    }

    #[test]
    fn loader_degradation_binds_the_estimate() {
        let w = Workload::nas_cifar10();
        let hw = hw();
        let plan = StagePlan::contiguous(6, 4).unwrap();
        let healthy = degraded_estimate(&plan, &healthy(&hw), &w, 256);
        let script = FaultScript {
            events: vec![FaultEvent::LoaderSlowdown {
                factor: 64.0,
                start_step: 0,
                end_step: u32::MAX,
            }],
        };
        let server = DegradedServer::at_step(&hw, &script, 0).unwrap();
        let degraded = degraded_estimate(&plan, &server, &w, 256);
        assert!(
            degraded > healthy,
            "a 64x loader slowdown must bind: {degraded} vs {healthy}"
        );
    }
}
