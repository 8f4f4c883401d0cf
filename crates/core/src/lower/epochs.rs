//! Multi-epoch lowering with epoch-boundary synchronization.
//!
//! Section IV-B of the paper: decoupled parameter update removes per-step
//! barriers, but "full synchronization is needed for validating the whole
//! model" at the beginning of each epoch — and because an epoch has tens
//! to hundreds of steps, that overhead "is amortized to a negligible
//! amount". This module emits several epochs of a relayed schedule with a
//! global sync plus a validation pass between epochs, so that claim can be
//! measured rather than asserted.

use pipebd_sched::StagePlan;
use pipebd_sim::{simulate, Resource, SimTime, TaskGraph, TaskId, TaskKind};

use super::{relay, Lowering};

/// Result of a multi-epoch simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSyncReport {
    /// Total simulated time for all epochs including boundary syncs.
    pub total: SimTime,
    /// Time the same rounds take without any epoch boundaries.
    pub unsynced: SimTime,
    /// Fractional overhead of the epoch-boundary synchronization.
    pub overhead: f64,
}

/// Emits `epochs` epochs of `rounds_per_epoch` DPU-relayed rounds each,
/// with a full barrier and a validation pass (one full teacher+student
/// forward at the global batch, split across devices) between epochs, then
/// compares against the boundary-free schedule.
pub fn simulate_with_epoch_sync(
    l: &Lowering<'_>,
    plan: &StagePlan,
    epochs: u32,
    rounds_per_epoch: u32,
) -> EpochSyncReport {
    // An empty schedule has no makespan to take an overhead against; the
    // callers are the sync-overhead experiments, which pass constants.
    assert!(epochs > 0 && rounds_per_epoch > 0, "need work to simulate");

    // Boundary-free reference: one long pipeline.
    let long = Lowering {
        rounds: epochs * rounds_per_epoch,
        ..l.clone()
    };
    let unsynced = simulate(&relay::lower_plan(&long, plan, true).graph).makespan;

    // Epoch-synced schedule: emit each epoch into one graph, joined by a
    // global Sync plus a validation forward pass per device.
    let per_epoch = Lowering {
        rounds: rounds_per_epoch,
        ..l.clone()
    };
    let mut total = SimTime::ZERO;
    for _ in 0..epochs {
        let lowered = relay::lower_plan(&per_epoch, plan, true);
        let mut graph = lowered.graph;
        append_validation_pass(&per_epoch, plan, &mut graph);
        total += simulate(&graph).makespan;
    }

    let overhead = total.as_secs_f64() / unsynced.as_secs_f64() - 1.0;
    EpochSyncReport {
        total,
        unsynced,
        overhead,
    }
}

/// Appends the epoch-boundary work: a global barrier over everything
/// emitted so far, then one evaluation forward pass (teacher + student,
/// shard per device) on every rank.
fn append_validation_pass(l: &Lowering<'_>, plan: &StagePlan, graph: &mut TaskGraph) {
    let last_per_device: Vec<Option<TaskId>> = {
        let mut last = vec![None; graph.num_gpus()];
        for (id, t) in graph.iter() {
            if let Resource::Gpu(d) = t.resource {
                last[d] = Some(id);
            }
        }
        last
    };
    let all_last: Vec<TaskId> = last_per_device.iter().flatten().copied().collect();
    let prices = l.at(l.batch.div_ceil(graph.num_gpus()));
    // Validation: full model forward (teacher reference + student) on
    // each device's shard.
    let eval_time: SimTime = (0..plan.num_blocks)
        .map(|b| {
            // Student eval forward ≈ one third of fwd+bwd cost.
            let stu_fwd = SimTime::from_secs_f64(prices.student(b).as_secs_f64() / 3.0);
            prices.teacher(b) + stu_fwd
        })
        .sum();
    for d in 0..graph.num_gpus() {
        let sync = graph.add(Resource::Gpu(d), TaskKind::Sync, SimTime::ZERO, &all_last);
        graph.add(Resource::Gpu(d), TaskKind::Teacher, eval_time, &[sync]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_models::Workload;
    use pipebd_sim::HardwareConfig;

    #[test]
    fn epoch_sync_overhead_is_amortized() {
        // The paper's claim: with tens to hundreds of steps per epoch the
        // sync overhead becomes negligible. At 64 rounds/epoch it must be
        // under 10%.
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = Lowering::new(&w, &hw, 256, 1);
        let plan = StagePlan::contiguous(6, 4).unwrap();
        let report = simulate_with_epoch_sync(&l, &plan, 3, 64);
        assert!(
            report.overhead < 0.10,
            "sync overhead {:.1}% not amortized",
            100.0 * report.overhead
        );
        assert!(report.total >= report.unsynced, "sync cannot be free");
    }

    #[test]
    fn short_epochs_pay_visibly_more() {
        // Conversely, with very short epochs the boundary cost shows up —
        // the reason the paper amortizes over long epochs.
        let w = Workload::nas_cifar10();
        let hw = HardwareConfig::a6000_server(4);
        let l = Lowering::new(&w, &hw, 256, 1);
        let plan = StagePlan::contiguous(6, 4).unwrap();
        let short = simulate_with_epoch_sync(&l, &plan, 12, 4);
        let long = simulate_with_epoch_sync(&l, &plan, 1, 48);
        assert!(
            short.overhead > 2.0 * long.overhead,
            "short epochs {:.3} should cost more than long {:.3}",
            short.overhead,
            long.overhead
        );
    }

    #[test]
    #[should_panic(expected = "need work to simulate")]
    fn zero_epochs_rejected() {
        let w = Workload::synthetic(4, false);
        let hw = HardwareConfig::a6000_server(4);
        let l = Lowering::new(&w, &hw, 256, 1);
        let plan = StagePlan::contiguous(4, 4).unwrap();
        let _ = simulate_with_epoch_sync(&l, &plan, 0, 4);
    }
}
