//! The data-parallel baseline (the paper's Fig. 3a, DNA's scheme).
//!
//! For every block `i` (a *phase*), all devices train student `i` in data
//! parallel for the full epoch: each device loads its batch shard, runs the
//! teacher prefix `0..=i` (the redundant execution the paper attacks),
//! runs student `i`, all-reduces gradients, and updates. Phases run
//! back-to-back.

use pipebd_sim::{Resource, SimTime, TaskGraph, TaskKind};

use super::{Loads, Lowered, Lowering};

/// Emits the DP schedule: `rounds` rounds for each of the `B` phases.
pub fn lower(l: &Lowering<'_>) -> Lowered {
    let n = l.hw.num_gpus;
    let b = l.workload.num_blocks();
    let prices = l.at(l.batch.div_ceil(n));
    // Per device and round: decode, consume, teacher prefix, student,
    // share and update, each with one dependency but the share, which
    // waits on all `n` students.
    let rounds = b * l.rounds as usize;
    let mut g = TaskGraph::new(n);
    g.reserve(6 * n * rounds, n * (n + 5) * rounds);
    let mut loads = Loads::new(n);
    let mut consumes = Vec::with_capacity(n);
    let mut students = Vec::with_capacity(n);
    // The whole teacher prefix 0..=phase, fused into one task (its
    // duration is the sum of the per-block times).
    let mut prefix = SimTime::ZERO;

    for phase in 0..b {
        prefix += prices.teacher(phase);
        let (student, update) = (prices.student(phase), l.update(phase));
        let tag = Some(phase as u16);
        // Gradient all-reduce is a collective: every device's share
        // depends on every device's backward.
        let grad_bytes = 4 * l.workload.model.blocks[phase].student_params;
        let share_time = l.hw.pcie.allreduce_time(grad_bytes, n);
        for round in 0..l.rounds {
            let step = phase as u32 * l.rounds + round;
            consumes.clear();
            students.clear();
            for d in 0..n {
                consumes.push(loads.emit(&mut g, prices, d, step));
            }
            for (d, &consume) in consumes.iter().enumerate() {
                let gpu = Resource::Gpu(d);
                let teach = g.add_tagged(gpu, TaskKind::Teacher, prefix, &[consume], tag, step);
                students.push(g.add_tagged(gpu, TaskKind::Student, student, &[teach], tag, step));
            }
            for d in 0..n {
                let gpu = Resource::Gpu(d);
                let share =
                    g.add_tagged(gpu, TaskKind::GradShare, share_time, &students, tag, step);
                g.add_tagged(gpu, TaskKind::Update, update, &[share], tag, step);
            }
        }
    }

    Lowered {
        graph: g,
        plan: None,
        ls: None,
        rounds: l.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_models::Workload;
    use pipebd_sim::{simulate, Breakdown, HardwareConfig};

    #[test]
    fn phases_scale_with_block_count() {
        let hw = HardwareConfig::a6000_server(4);
        let w4 = Workload::synthetic(4, false);
        let w8 = Workload::synthetic(8, false);
        let m4 = simulate(&lower(&Lowering::new(&w4, &hw, 256, 4)).graph).makespan;
        let m8 = simulate(&lower(&Lowering::new(&w8, &hw, 256, 4)).graph).makespan;
        // 8 blocks = 8 phases with longer prefixes: superlinear growth.
        assert!(m8.as_secs_f64() > 2.0 * m4.as_secs_f64());
    }

    #[test]
    fn all_ranks_equally_busy() {
        let hw = HardwareConfig::a6000_server(4);
        let w = Workload::synthetic(6, false);
        let lowered = lower(&Lowering::new(&w, &hw, 256, 4));
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        let t0 = bd.ranks[0].teacher;
        for r in &bd.ranks[1..] {
            assert_eq!(r.teacher, t0, "DP ranks are symmetric");
        }
    }

    #[test]
    fn redundant_prefix_visible_in_teacher_time() {
        // Teacher time summed over phases must exceed a single full pass
        // by roughly B/2 (the redundancy factor).
        let hw = HardwareConfig::a6000_server(4);
        let w = Workload::synthetic(6, false);
        let l = Lowering::new(&w, &hw, 256, 1);
        let lowered = lower(&l);
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        let one_pass: f64 = (0..6).map(|k| l.at(64).teacher(k).as_secs_f64()).sum();
        let simulated = bd.ranks[0].teacher.as_secs_f64();
        assert!(
            simulated > 3.0 * one_pass,
            "prefix redundancy missing: {simulated} vs {one_pass}"
        );
    }
}
