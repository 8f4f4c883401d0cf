//! Internal relaying (the paper's TR+IR alternative, Section VII-A).
//!
//! Every device trains *all* blocks each step on a batch shard: the
//! teacher runs once per device with activations kept in memory (no relay,
//! no redundancy, no imbalance), but every block executes at the small
//! per-device batch — the utilization loss that makes IR lose to full
//! Pipe-BD. It is exactly the plan where every block is batch-split, which
//! the paper notes is a special case of TR+DPU+AHD, so [`super::lower`]
//! emits it through the relay emitter ([`super::relay::lower_plan`] of
//! [`pipebd_sched::StagePlan::internal_relaying`], with DPU). This module
//! holds the strategy's own checks.

#[cfg(test)]
mod tests {
    use crate::lower::{lower, Lowered, Lowering};
    use crate::strategy::Strategy;
    use pipebd_models::Workload;
    use pipebd_sim::{simulate, Breakdown, HardwareConfig, SimTime};

    fn lower_ir(l: &Lowering<'_>) -> Lowered {
        lower(l, Strategy::TrIr).unwrap()
    }

    #[test]
    fn ranks_are_symmetric() {
        let w = Workload::synthetic(6, false);
        let hw = HardwareConfig::a6000_server(4);
        let lowered = lower_ir(&Lowering::new(&w, &hw, 256, 4));
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        for r in &bd.ranks[1..] {
            assert_eq!(r.teacher, bd.ranks[0].teacher);
            assert_eq!(r.student, bd.ranks[0].student);
        }
    }

    #[test]
    fn no_teacher_redundancy_but_small_batch() {
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = Lowering::new(&w, &hw, 256, 1);
        let lowered = lower_ir(&l);
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        // Each rank runs the full teacher once at shard size.
        let per_rank: f64 = (0..6).map(|k| l.at(64).teacher(k).as_secs_f64()).sum();
        assert!((bd.ranks[0].teacher.as_secs_f64() - per_rank).abs() < 1e-9);
        // Four ranks at batch 64 do more total teacher-time than one full
        // batch-256 pass (occupancy loss) — the paper's IR caveat.
        let full: f64 = (0..6).map(|k| l.at(256).teacher(k).as_secs_f64()).sum();
        let total = 4.0 * per_rank;
        assert!(total > full, "IR must pay the small-batch penalty");
    }

    #[test]
    fn ir_loses_to_pipe_bd_on_balanced_workloads() {
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = Lowering::new(&w, &hw, 256, 8);
        let ir = simulate(&lower_ir(&l).graph).makespan;
        let pb = simulate(&lower(&l, Strategy::PipeBd).unwrap().graph).makespan;
        assert!(pb < ir, "Pipe-BD {pb} must beat IR {ir}");
        assert!(ir > SimTime::ZERO);
    }
}
