//! Fault-plane structural laws, checked across random fault scripts.
//!
//! Two properties the per-scenario ratio gates cannot express:
//!
//! 1. **Slowdown monotonicity** — making any host slower never makes the
//!    predicted *or* simulated steady-state period faster. The estimator
//!    side is exact (scaling a member's chain is monotone in the factor);
//!    the simulator side holds because per-resource FIFO dispatch keeps
//!    every finish time monotone in task durations, so only the settled
//!    tail window needs a hair of slack for transient alignment.
//! 2. **Replanning never loses** — on a membership-preserving script, the
//!    replanned schedule's steady tail period is never worse than the
//!    static schedule's (beyond a small transient slack). At estimator
//!    level this is exact: the incumbent plan is itself a candidate of
//!    the replan search, so the chosen plan's degraded estimate is a
//!    lower envelope. The tail window starts after every script settles
//!    and after the last splice, so the one-off `replan_overhead` is
//!    excluded — the law is about steady state, not the transition.

use pipebd_core::lower::fault::lower_faulted;
use pipebd_core::lower::Lowering;
use pipebd_models::Workload;
use pipebd_sched::replan::{degraded_estimate, replan, DegradedServer};
use pipebd_sched::{ahd, CostModel, Profiler, StagePlan};
use pipebd_sim::{simulate_faulted, FaultEvent, FaultScript, HardwareConfig, SimTime};
use pipebd_testkit::{FAULT_ROUNDS, FAULT_TAIL};
use proptest::prelude::*;

fn workload(index: usize) -> Workload {
    match index {
        0 => Workload::nas_cifar10(),
        1 => Workload::synthetic(6, true),
        _ => Workload::synthetic(6, false),
    }
}

fn incumbent(w: &Workload, hw: &HardwareConfig, batch: usize) -> StagePlan {
    let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, batch, hw.num_gpus);
    ahd::search(w, &table, hw, batch).plan
}

/// Persistent single-host slowdown from step 3 onward.
fn slow_script(rank: usize, factor: f64) -> FaultScript {
    FaultScript {
        events: vec![FaultEvent::Slowdown {
            rank,
            factor,
            start_step: 3,
            end_step: u32::MAX,
        }],
    }
}

/// Steady tail period of `graph` simulated under `script`.
fn tail_period(graph: &pipebd_sim::TaskGraph, script: &FaultScript) -> SimTime {
    let sim = simulate_faulted(graph, script).expect("valid fault simulation");
    sim.run.round_period(graph, FAULT_ROUNDS, FAULT_TAIL)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn period_is_monotone_in_any_hosts_slowdown(
        wi in 0usize..3,
        ranks_i in 0usize..2,
        rank_pick in 0usize..4,
        base in 1.0f64..4.0,
        delta in 0.25f64..3.0,
    ) {
        let w = workload(wi);
        let ranks = [2usize, 4][ranks_i];
        let rank = rank_pick % ranks;
        let hw = HardwareConfig::a6000_server(ranks);
        let batch = 256usize;
        let plan = incumbent(&w, &hw, batch);
        let (f1, f2) = (base, base + delta);

        // Estimator: the degraded period never shrinks as the factor grows.
        let est = |f: f64| {
            let server = DegradedServer::at_step(&hw, &slow_script(rank, f), FAULT_ROUNDS - 1)
                .expect("slowdown scripts are valid");
            degraded_estimate(&plan, &server, &w, batch)
        };
        let (e1, e2) = (est(f1), est(f2));
        prop_assert!(
            e1 <= e2,
            "{} r{ranks} rank{rank}: estimate {e1} at {f1:.2}x > {e2} at {f2:.2}x",
            w.label()
        );

        // Simulator: same static schedule, two degradations of it.
        let l = Lowering::new(&w, &hw, batch, FAULT_ROUNDS);
        let lowered = lower_faulted(&l, &plan, &slow_script(rank, f1), false)
            .expect("static lowering under a slowdown");
        let (p1, p2) = (
            tail_period(&lowered.graph, &slow_script(rank, f1)),
            tail_period(&lowered.graph, &slow_script(rank, f2)),
        );
        prop_assert!(
            p1.as_secs_f64() <= p2.as_secs_f64() * 1.01,
            "{} r{ranks} rank{rank}: simulated tail {p1} at {f1:.2}x > {p2} at {f2:.2}x",
            w.label()
        );
    }

    #[test]
    fn replanning_never_worsens_the_steady_period(
        wi in 0usize..3,
        ranks_i in 0usize..2,
        rank_pick in 0usize..4,
        factor in 1.5f64..6.0,
        start in 2u32..8,
    ) {
        let w = workload(wi);
        let ranks = [2usize, 4][ranks_i];
        let rank = rank_pick % ranks;
        let hw = HardwareConfig::a6000_server(ranks);
        let batch = 256usize;
        let plan = incumbent(&w, &hw, batch);
        let script = FaultScript {
            events: vec![FaultEvent::Slowdown {
                rank,
                factor,
                start_step: start,
                end_step: u32::MAX,
            }],
        };

        // Estimator level: exact — the incumbent is in the search space.
        let server = DegradedServer::at_step(&hw, &script, FAULT_ROUNDS - 1)
            .expect("slowdown scripts are valid");
        let decision = replan(&w, &server, batch);
        let incumbent_est = degraded_estimate(&plan, &server, &w, batch);
        prop_assert!(
            decision.estimate <= incumbent_est,
            "{} r{ranks}: replanned estimate {} > incumbent {incumbent_est} at {factor:.2}x",
            w.label(),
            decision.estimate
        );

        // Simulator level: the replanned schedule's settled tail is never
        // worse than the static schedule's (small slack for the refill
        // transient after the splice).
        let l = Lowering::new(&w, &hw, batch, FAULT_ROUNDS);
        let with = lower_faulted(&l, &plan, &script, true).expect("replanned lowering");
        let without = lower_faulted(&l, &plan, &script, false).expect("static lowering");
        let (pw, po) = (
            tail_period(&with.graph, &script),
            tail_period(&without.graph, &script),
        );
        prop_assert!(
            pw.as_secs_f64() <= po.as_secs_f64() * 1.05,
            "{} r{ranks} rank{rank} {factor:.2}x from {start}: replanned tail {pw} > static {po}",
            w.label()
        );
    }
}
