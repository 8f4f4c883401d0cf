//! Cross-crate integration: the AHD search's analytic period estimator
//! must agree with the event-level simulator — otherwise the plan the
//! search picks would not be the plan the (simulated) hardware rewards.
//! This mirrors the real Pipe-BD design, where profiling feeds the search
//! and the schedule then runs on the profiled devices.

use pipe_bd::core::lower::{relay, Lowering};
use pipe_bd::models::Workload;
use pipe_bd::sched::{enumerate_hybrid_plans, estimate_period, CostModel, Profiler, StagePlan};
use pipe_bd::sim::{simulate, HardwareConfig};

/// Seconds per round of `plan`'s simulated DPU pipeline over its last
/// `tail` rounds.
fn simulated_period(l: &Lowering<'_>, plan: &StagePlan, tail: u32) -> f64 {
    let lowered = relay::lower_plan(l, plan, true);
    let run = simulate(&lowered.graph);
    run.round_period(&lowered.graph, l.rounds, tail)
        .as_secs_f64()
}

#[test]
fn estimates_track_simulation_across_the_plan_space() {
    let w = Workload::nas_cifar10();
    let hw = HardwareConfig::a6000_server(4);
    let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, 256, 4);
    let lowering = Lowering::new(&w, &hw, 256, 24);

    let mut checked = 0;
    for plan in enumerate_hybrid_plans(6, 4) {
        // Sample the space: every 7th plan keeps the test fast while still
        // covering 1..4-stage shapes.
        if checked % 7 != 0 {
            checked += 1;
            continue;
        }
        checked += 1;
        let analytic = estimate_period(&plan, &table, &w, &hw, 256).as_secs_f64();
        let simulated = simulated_period(&lowering, &plan, 8);
        let ratio = simulated / analytic;
        assert!(
            (0.85..1.25).contains(&ratio),
            "plan {plan}: simulated {simulated:.6}s vs analytic {analytic:.6}s (ratio {ratio:.3})"
        );
    }
    assert!(checked > 10, "space should be non-trivial");
}

#[test]
fn chosen_plan_is_near_optimal_under_simulation() {
    // Simulate every plan and verify the AHD choice is within a few
    // percent of the simulated optimum (it need not be exactly optimal —
    // the estimator ignores relay latencies — but it must be close).
    let w = Workload::nas_imagenet();
    let hw = HardwareConfig::a6000_server(4);
    let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, 256, 4);
    let decision = pipe_bd::sched::ahd::search(&w, &table, &hw, 256);
    let lowering = Lowering::new(&w, &hw, 256, 16);

    let mut best_simulated = f64::INFINITY;
    for plan in enumerate_hybrid_plans(6, 4) {
        let p = simulated_period(&lowering, &plan, 6);
        best_simulated = best_simulated.min(p);
    }
    let chosen = simulated_period(&lowering, &decision.plan, 6);
    assert!(
        chosen <= best_simulated * 1.10,
        "chosen plan {:.6}s is >10% off the simulated optimum {best_simulated:.6}s",
        chosen
    );
}
