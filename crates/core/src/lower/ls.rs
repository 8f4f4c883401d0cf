//! The layerwise-scheduling baseline (Blakeney et al., IEEE TPDS 2021).
//!
//! Block-training tasks are bin-packed onto devices; each device trains its
//! blocks independently at the full batch size, re-running the teacher
//! prefix for every task (the redundancy stays), with no inter-device
//! communication. Imbalance appears when few, very unequal blocks must be
//! packed — the paper's explanation for LS losing to DP on ImageNet.

use pipebd_sched::{ls, CostModel, Profiler};
use pipebd_sim::{Resource, SimTime, TaskGraph, TaskKind};

use super::{Loads, Lowered, Lowering};

/// Emits the LS schedule: `rounds` rounds, each device running its packed
/// block tasks sequentially.
pub fn lower(l: &Lowering<'_>) -> Lowered {
    let n = l.hw.num_gpus;
    // Pack using the same analytic profile the AHD search would see.
    let cost = CostModel::new(l.hw.gpu.clone());
    let table = Profiler::new(cost).profile(&l.workload.model, l.batch, n);
    let assignment = ls::pack(l.workload, &table, n, l.batch);

    let prices = l.at(l.batch);
    // Independent tasks: block `k`'s re-runs the teacher prefix 0..=k.
    let prefix: Vec<SimTime> = (0..l.workload.num_blocks())
        .scan(SimTime::ZERO, |sum, k| {
            *sum += prices.teacher(k);
            Some(*sum)
        })
        .collect();
    // Per round: a decode and a consume per loading device, then a
    // teacher, student and update per packed block, one dependency each.
    let loading = assignment.device_blocks.iter().filter(|b| !b.is_empty());
    let per_round = 2 * loading.count() + 3 * l.workload.num_blocks();
    let mut g = TaskGraph::new(n);
    g.reserve(per_round * l.rounds as usize, per_round * l.rounds as usize);
    let mut loads = Loads::new(n);

    for round in 0..l.rounds {
        for (d, blocks) in assignment.device_blocks.iter().enumerate() {
            if blocks.is_empty() {
                continue;
            }
            let gpu = Resource::Gpu(d);
            let mut prev = loads.emit(&mut g, prices, d, round);
            for &block in blocks {
                let tag = Some(block as u16);
                let teach =
                    g.add_tagged(gpu, TaskKind::Teacher, prefix[block], &[prev], tag, round);
                let stu = g.add_tagged(
                    gpu,
                    TaskKind::Student,
                    prices.student(block),
                    &[teach],
                    tag,
                    round,
                );
                prev = g.add_tagged(gpu, TaskKind::Update, l.update(block), &[stu], tag, round);
            }
        }
    }

    Lowered {
        graph: g,
        plan: None,
        ls: Some(assignment),
        rounds: l.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use pipebd_models::Workload;
    use pipebd_sim::{simulate, Breakdown, HardwareConfig};

    #[test]
    fn ls_beats_dp_on_cifar_and_its_edge_shrinks_on_compression_imagenet() {
        // The paper (Fig. 4 / Table II) has LS beating DP on CIFAR-10 and
        // *losing* on ImageNet. Our LS baseline is stronger than the
        // paper's (profiled-cost LPT packing + shared per-device loading),
        // so the crossover does not fully reproduce — see EXPERIMENTS.md —
        // but the direction must hold: LS's advantage over DP is large on
        // CIFAR and shrinks substantially on ImageNet for the compression
        // workload. Both graphs at equal `rounds` are epoch-comparable.
        let hw = HardwareConfig::a6000_server(4);
        let speedup = |w: &Workload| {
            let l = Lowering::new(w, &hw, 256, 6);
            let ls_time = simulate(&lower(&l).graph).makespan;
            let dp_time = simulate(
                &crate::lower::lower(&l, Strategy::DataParallel)
                    .unwrap()
                    .graph,
            )
            .makespan;
            dp_time.as_secs_f64() / ls_time.as_secs_f64()
        };
        let cifar = speedup(&Workload::compression_cifar10());
        let imagenet = speedup(&Workload::compression_imagenet());
        assert!(cifar > 1.5, "LS must clearly beat DP on CIFAR: {cifar:.2}x");
        assert!(
            imagenet < 0.7 * cifar,
            "LS's edge must shrink on ImageNet: {imagenet:.2}x vs {cifar:.2}x"
        );
    }

    #[test]
    fn no_cross_device_dependencies() {
        // LS devices are fully independent: each rank's idle stays 0 until
        // the others finish (idle only from makespan padding).
        let hw = HardwareConfig::a6000_server(4);
        let w = Workload::compression_cifar10();
        let lowered = lower(&Lowering::new(&w, &hw, 256, 2));
        let run = simulate(&lowered.graph);
        let bd = Breakdown::from_run(&lowered.graph, &run);
        // At least one rank is idle-padded (imbalance), but no rank waits
        // on Comm (no relays exist).
        for (_, t) in lowered.graph.iter() {
            assert_ne!(t.kind, TaskKind::Comm);
            assert_ne!(t.kind, TaskKind::GradShare);
        }
        assert!(bd.ranks.iter().any(|r| r.idle > SimTime::ZERO));
    }

    #[test]
    fn assignment_recorded_in_lowered() {
        let hw = HardwareConfig::a6000_server(4);
        let w = Workload::compression_cifar10();
        let lowered = lower(&Lowering::new(&w, &hw, 256, 1));
        let ls = lowered.ls.expect("LS assignment present");
        let total: usize = ls.device_blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, 13);
    }
}
