//! Fault-aware lowering: splicing replanned stage plans into the schedule.
//!
//! The fault plane's third piece (after `pipebd_sim::simulate_faulted` and
//! `pipebd_sched::replan`): given an incumbent [`StagePlan`] and a
//! [`FaultScript`], emit one task graph whose rounds switch plans at the
//! script's change steps.
//!
//! * With `replan = false` the incumbent runs unchanged for every round
//!   (slowdowns only stretch task durations at simulation time); a script
//!   that removes or adds a host mid-schedule is rejected, because the
//!   static schedule would place work on a missing rank.
//! * With `replan = true` the lowering probes the degraded cluster at
//!   every change step, re-runs the AHD search over the survivors
//!   ([`pipebd_sched::replan::replan`]), and splices the new plan into the
//!   remaining rounds. Each splice charges the scheduler's
//!   `replan_overhead` as one [`TaskKind::Replan`] barrier task per
//!   surviving member, gating the new segment's first round behind every
//!   task of the old segment's last round.
//!
//! The splice is DPU-only (immediate/post-share updates): plain-TR's
//! global update barrier would entangle rounds across the segment
//! boundary, and the paper's deployed configurations all run with DPU.

use pipebd_sched::replan::{replan, DegradedServer};
use pipebd_sched::StagePlan;
use pipebd_sim::{FaultScript, Resource, SimTime, TaskGraph, TaskId, TaskKind};

use super::relay::RoundEmitter;
use super::Lowering;

/// One contiguous run of rounds under a single plan and device mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSegment {
    /// First round this segment covers (it runs until the next segment's
    /// start, or the end of the schedule).
    pub start_round: u32,
    /// The plan in force, over `device_map.len()` logical devices.
    pub plan: StagePlan,
    /// Logical device → physical GPU rank.
    pub device_map: Vec<usize>,
    /// Replanning overhead charged at the splice into this segment
    /// (zero for the initial segment: its plan is decided before the
    /// run starts).
    pub overhead: SimTime,
}

/// A fault-aware lowering: the spliced graph plus its segment history.
#[derive(Debug, Clone)]
pub struct FaultLowered {
    /// The emitted task graph (feed to `pipebd_sim::simulate_faulted`
    /// with the same script so durations degrade consistently).
    pub graph: TaskGraph,
    /// Plan segments in round order; never empty when `rounds > 0`.
    pub segments: Vec<FaultSegment>,
    /// Sum of per-splice replanning overheads.
    pub total_overhead: SimTime,
}

impl FaultLowered {
    /// The segment in force at the end of the schedule (steady state for
    /// scripts whose last change step precedes the final round).
    pub fn final_segment(&self) -> &FaultSegment {
        // `lower_faulted` always opens a segment at round 0 (a healthy or
        // replanned start, or the static incumbent); only a hand-built
        // value can lack one.
        self.segments
            .last()
            .expect("lower_faulted emits >= 1 segment")
    }
}

/// Lowers `incumbent` over `l.rounds` rounds under `script`, optionally
/// replanning at every cluster change (DPU schedules only; see module
/// docs).
///
/// The returned graph tags every task with its global round, so
/// `simulate_faulted` applies each fault window to exactly the rounds the
/// replanner saw when it probed the script.
///
/// # Errors
///
/// Returns an error when the script is invalid for the server, when
/// `replan = false` and the script changes membership before the last
/// round, or when no rank survives at some change step.
pub fn lower_faulted(
    l: &Lowering<'_>,
    incumbent: &StagePlan,
    script: &FaultScript,
    replan_on_fault: bool,
) -> Result<FaultLowered, String> {
    let n = l.hw.num_gpus;
    let timeline = script.timeline(n).map_err(|e| e.to_string())?;
    let identity: Vec<usize> = (0..n).collect();

    // Probe steps: schedule start plus every in-range cluster change.
    let mut probes: Vec<u32> = vec![0];
    probes.extend(
        timeline
            .change_steps()
            .into_iter()
            .filter(|&s| s < l.rounds),
    );

    let segments: Vec<FaultSegment> = if replan_on_fault {
        let mut segs: Vec<FaultSegment> = Vec::new();
        let mut prev_state: Option<DegradedServer> = None;
        for &s in &probes {
            let state =
                DegradedServer::from_timeline(l.hw, &timeline, s).map_err(|e| e.to_string())?;
            if prev_state.as_ref() == Some(&state) {
                continue; // window edge with no net change: keep the plan
            }
            let seg = if segs.is_empty() && state.is_healthy(n) {
                FaultSegment {
                    start_round: s,
                    plan: incumbent.clone(),
                    device_map: identity.clone(),
                    overhead: SimTime::ZERO,
                }
            } else {
                let d = replan(l.workload, &state, l.batch);
                FaultSegment {
                    start_round: s,
                    plan: d.plan,
                    device_map: d.device_map,
                    // The initial plan is decided offline, before round 0.
                    overhead: if segs.is_empty() {
                        SimTime::ZERO
                    } else {
                        d.overhead
                    },
                }
            };
            segs.push(seg);
            prev_state = Some(state);
        }
        segs
    } else {
        // Static schedule: the incumbent must stay placeable throughout.
        let used: Vec<usize> = incumbent
            .stages
            .iter()
            .flat_map(|st| st.devices.iter().copied())
            .collect();
        for &s in &probes {
            for &d in &used {
                if !timeline.alive(d, s) {
                    return Err(format!(
                        "replanning disabled, but rank {d} is unavailable at step {s}: \
                         the static schedule cannot place its work"
                    ));
                }
            }
        }
        vec![FaultSegment {
            start_round: 0,
            plan: incumbent.clone(),
            device_map: identity.clone(),
            overhead: SimTime::ZERO,
        }]
    };

    let mut em = RoundEmitter::new(l);
    let mut total_overhead = SimTime::ZERO;
    // Every task of the most recently emitted round (splice barrier deps).
    let mut prev_round_ids: Vec<TaskId> = Vec::new();
    let mut splice_deps: Vec<TaskId> = Vec::new();
    for (i, seg) in segments.iter().enumerate() {
        let end = segments.get(i + 1).map_or(l.rounds, |nx| nx.start_round);
        splice_deps.clear();
        if i > 0 {
            total_overhead += seg.overhead;
            for &p in &seg.device_map {
                let id = em.graph.add_tagged(
                    Resource::Gpu(p),
                    TaskKind::Replan,
                    seg.overhead,
                    &prev_round_ids,
                    None,
                    seg.start_round,
                );
                splice_deps.push(id);
            }
        }
        let rounds = seg.start_round..end;
        if !rounds.is_empty() {
            let mark = em.emit_rounds(&seg.plan, true, rounds, &seg.device_map, &splice_deps);
            prev_round_ids.clear();
            prev_round_ids.extend(em.graph.iter().skip(mark).map(|(id, _)| id));
        }
    }

    Ok(FaultLowered {
        graph: em.graph,
        segments,
        total_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::relay::lower_plan;
    use pipebd_models::Workload;
    use pipebd_sched::ahd;
    use pipebd_sim::{simulate_faulted, FaultEvent, HardwareConfig};

    fn ctx<'a>(w: &'a Workload, hw: &'a HardwareConfig, rounds: u32) -> Lowering<'a> {
        Lowering::new(w, hw, 256, rounds)
    }

    fn incumbent(l: &Lowering<'_>) -> StagePlan {
        ahd::search(l.workload, l.table(), l.hw, l.batch).plan
    }

    fn assert_graphs_equal(a: &TaskGraph, b: &TaskGraph) {
        assert_eq!(a.len(), b.len(), "task counts differ");
        for ((ia, ta), (ib, tb)) in a.iter().zip(b.iter()) {
            assert_eq!(ia, ib);
            assert_eq!(ta.resource, tb.resource, "task {ia:?}");
            assert_eq!(ta.kind, tb.kind, "task {ia:?}");
            assert_eq!(ta.duration, tb.duration, "task {ia:?}");
            assert_eq!(a.deps(ia), b.deps(ib), "task {ia:?}");
            assert_eq!(ta.block, tb.block, "task {ia:?}");
            assert_eq!(ta.step, tb.step, "task {ia:?}");
        }
    }

    #[test]
    fn healthy_script_reproduces_lower_plan_bit_for_bit() {
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 8);
        let plan = incumbent(&l);
        let classic = lower_plan(&l, &plan, true);
        for replan_on in [false, true] {
            let f = lower_faulted(&l, &plan, &FaultScript::healthy(), replan_on).unwrap();
            assert_graphs_equal(&f.graph, &classic.graph);
            assert_eq!(f.segments.len(), 1);
            assert_eq!(f.total_overhead, SimTime::ZERO);
        }
    }

    #[test]
    fn slowdown_without_replan_keeps_the_static_schedule() {
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 8);
        let plan = incumbent(&l);
        let script = FaultScript {
            events: vec![FaultEvent::Slowdown {
                rank: 1,
                factor: 3.0,
                start_step: 2,
                end_step: 6,
            }],
        };
        let f = lower_faulted(&l, &plan, &script, false).unwrap();
        // Same graph as the healthy lowering: degradation is applied by the
        // simulator, not the static schedule.
        assert_graphs_equal(&f.graph, &lower_plan(&l, &plan, true).graph);
        let run = simulate_faulted(&f.graph, &script).unwrap();
        let healthy = simulate_faulted(&f.graph, &FaultScript::healthy()).unwrap();
        assert!(run.run.makespan > healthy.run.makespan);
    }

    #[test]
    fn replan_disabled_rejects_membership_changes() {
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 8);
        let plan = incumbent(&l);
        let loss = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 2,
                at_step: 3,
            }],
        };
        let err = lower_faulted(&l, &plan, &loss, false).unwrap_err();
        assert!(err.contains("rank 2"), "{err}");
        // A loss after the schedule's last round is clean.
        let late = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 2,
                at_step: 8,
            }],
        };
        assert!(lower_faulted(&l, &plan, &late, false).is_ok());
    }

    #[test]
    fn slowdown_window_splices_three_segments() {
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 12);
        let plan = incumbent(&l);
        let script = FaultScript {
            events: vec![FaultEvent::Slowdown {
                rank: 0,
                factor: 4.0,
                start_step: 4,
                end_step: 8,
            }],
        };
        let f = lower_faulted(&l, &plan, &script, true).unwrap();
        assert_eq!(
            f.segments.iter().map(|s| s.start_round).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        // Both splices charge overhead; the initial segment does not.
        assert_eq!(f.segments[0].overhead, SimTime::ZERO);
        assert!(f.segments[1].overhead > SimTime::ZERO);
        assert!(f.segments[2].overhead > SimTime::ZERO);
        assert_eq!(
            f.total_overhead,
            f.segments[1].overhead + f.segments[2].overhead
        );
        // One Replan barrier task per member per splice, tagged with the
        // splice round.
        let replans: Vec<_> = f
            .graph
            .iter()
            .filter(|(_, t)| t.kind == TaskKind::Replan)
            .collect();
        assert_eq!(replans.len(), 2 * hw.num_gpus);
        assert!(replans.iter().all(|(_, t)| t.step == 4 || t.step == 8));
        // The spliced graph degrades and simulates cleanly.
        assert!(simulate_faulted(&f.graph, &script).is_ok());
    }

    #[test]
    fn host_loss_replans_onto_the_survivors() {
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 8);
        let plan = incumbent(&l);
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 1,
                at_step: 3,
            }],
        };
        let f = lower_faulted(&l, &plan, &script, true).unwrap();
        assert_eq!(f.segments.len(), 2);
        let last = f.final_segment();
        assert_eq!(last.start_round, 3);
        assert_eq!(last.plan.num_devices, 3);
        assert_eq!(last.device_map, vec![0, 2, 3]);
        // No task after the loss lands on the dead rank, so the degraded
        // simulation accepts the graph.
        for (_, t) in f.graph.iter() {
            if t.step >= 3 {
                assert_ne!(t.resource, Resource::Gpu(1), "task at step {}", t.step);
                assert_ne!(t.resource, Resource::Copy(1), "task at step {}", t.step);
            }
        }
        assert!(simulate_faulted(&f.graph, &script).is_ok());
    }

    #[test]
    fn host_join_grows_the_cluster() {
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 10);
        let plan = incumbent(&l);
        // Rank 3 only becomes available at step 5.
        let script = FaultScript {
            events: vec![FaultEvent::HostJoin {
                rank: 3,
                at_step: 5,
            }],
        };
        let f = lower_faulted(&l, &plan, &script, true).unwrap();
        assert_eq!(f.segments.len(), 2);
        assert_eq!(f.segments[0].plan.num_devices, 3);
        assert_eq!(f.segments[0].device_map, vec![0, 1, 2]);
        assert_eq!(
            f.segments[0].overhead,
            SimTime::ZERO,
            "initial plan is offline"
        );
        assert_eq!(f.final_segment().plan.num_devices, 4);
        assert!(simulate_faulted(&f.graph, &script).is_ok());
    }

    #[test]
    fn splice_barrier_orders_segments() {
        // Every task of the new segment starts at or after every finish of
        // the old segment's last round plus the replan overhead.
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = ctx(&w, &hw, 8);
        let plan = incumbent(&l);
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss {
                rank: 0,
                at_step: 4,
            }],
        };
        let f = lower_faulted(&l, &plan, &script, true).unwrap();
        let sim = simulate_faulted(&f.graph, &script).unwrap();
        let replan_finish = f
            .graph
            .iter()
            .filter(|(_, t)| t.kind == TaskKind::Replan)
            .map(|(id, _)| sim.run.finish_of(id))
            .max()
            .unwrap();
        let old_max_finish = f
            .graph
            .iter()
            .filter(|(_, t)| t.step < 4 && t.kind != TaskKind::Replan)
            .map(|(id, _)| sim.run.finish_of(id))
            .max()
            .unwrap();
        assert!(replan_finish >= old_max_finish);
        for (id, t) in f.graph.iter() {
            // Loader-pool decodes may prefetch through the splice (they
            // are throttled by PREFETCH_DEPTH, not the barrier); every
            // on-device task of the new segment waits out the replan.
            if t.step >= 4 && t.kind != TaskKind::Replan && t.resource != Resource::Loader {
                assert!(
                    sim.run.start[id.index()] >= replan_finish,
                    "task at step {} started inside the old segment",
                    t.step
                );
            }
        }
    }
}
