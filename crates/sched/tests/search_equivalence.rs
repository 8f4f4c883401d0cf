//! The three plan searches against brute force.
//!
//! `ahd::search`, `replan::replan` and `hetero::search` score stages from a
//! table and build only the winner. Each must equal the brute-force argmin
//! over `enumerate_hybrid_plans`, every plan scored by its per-plan
//! definition (`estimate_period`, `degraded_estimate`, the maximum of
//! `stage_time_hetero`): the same plan, the same estimate to the
//! nanosecond, the earlier plan on a tie, and the same evaluations. The
//! enumeration itself is held to an order written here from
//! `compositions`: stage count ascending, block compositions outer, device
//! compositions inner.

use pipebd_models::Workload;
use pipebd_sched::hetero::{self, stage_time_hetero, HeteroServer};
use pipebd_sched::replan::{degraded_estimate, replan, DegradedServer};
use pipebd_sched::{
    ahd, compositions, enumerate_hybrid_plans, estimate_period, CostModel, Profiler, StagePlan,
};
use pipebd_sim::{FaultEvent, FaultScript, GpuModel, HardwareConfig, SimTime};
use proptest::prelude::*;

/// The plan space in its defining order, built without the walk.
fn reference_plans(blocks: usize, devices: usize) -> Vec<StagePlan> {
    let mut plans = Vec::new();
    for stages in 1..=blocks.min(devices) {
        for block_counts in compositions(blocks, stages) {
            for widths in compositions(devices, stages) {
                let pairs: Vec<(usize, usize)> = block_counts
                    .iter()
                    .copied()
                    .zip(widths.iter().copied())
                    .collect();
                plans.push(StagePlan::from_widths(&pairs, blocks, devices).unwrap());
            }
        }
    }
    plans
}

/// Index of the first strictly smallest score, and how many plans share it.
fn first_min(scores: &[SimTime]) -> (usize, usize) {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate() {
        if *s < scores[best] {
            best = i;
        }
    }
    (best, scores.iter().filter(|s| **s == scores[best]).count())
}

/// `Workload::synthetic(blocks, heavy_first)` for `pick == 0`, else one of
/// the paper's four workloads.
fn workload(pick: usize, blocks: usize, heavy_first: bool) -> Workload {
    match pick {
        0 => Workload::synthetic(blocks, heavy_first),
        1 => Workload::nas_cifar10(),
        2 => Workload::nas_imagenet(),
        3 => Workload::compression_cifar10(),
        _ => Workload::compression_imagenet(),
    }
}

fn server(devices: usize, a6000: bool) -> HardwareConfig {
    if a6000 {
        HardwareConfig::a6000_server(devices)
    } else {
        HardwareConfig::rtx2080ti_server(devices)
    }
}

/// A random but valid fault script over `devices` ranks: up to two
/// slowdowns, an optional host loss and an optional loader slowdown.
/// `None` when the draw is one the script validator refuses.
fn script(devices: usize, draw: &[u64]) -> Option<FaultScript> {
    let mut events = Vec::new();
    let factor = |x: u64| 1.0 + (x % 3000) as f64 / 1000.0;
    for k in 0..(draw[0] % 3) as usize {
        let d = &draw[1 + 4 * k..5 + 4 * k];
        let start = (d[2] % 6) as u32;
        events.push(FaultEvent::Slowdown {
            rank: d[0] as usize % devices,
            factor: factor(d[1]),
            start_step: start,
            end_step: start + 1 + (d[3] % 6) as u32,
        });
    }
    if draw[9] % 2 == 1 {
        events.push(FaultEvent::HostLoss {
            rank: draw[10] as usize % devices,
            at_step: (draw[11] % 8) as u32,
        });
    }
    if draw[12] % 3 == 0 {
        let start = (draw[14] % 6) as u32;
        events.push(FaultEvent::LoaderSlowdown {
            factor: 1.0 + (draw[13] % 80) as f64,
            start_step: start,
            end_step: start + 1 + (draw[15] % 6) as u32,
        });
    }
    let s = FaultScript { events };
    s.timeline(devices).is_ok().then_some(s)
}

/// Checks `ahd::search` against brute force; returns the number of plans
/// tied at the minimum.
fn check_ahd(w: &Workload, hw: &HardwareConfig, batch: usize) -> usize {
    let table = Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, batch, hw.num_gpus);
    let d = ahd::search(w, &table, hw, batch);
    let plans = enumerate_hybrid_plans(w.num_blocks(), hw.num_gpus);
    let scores: Vec<SimTime> = plans
        .iter()
        .map(|p| estimate_period(p, &table, w, hw, batch))
        .collect();
    let (best, ties) = first_min(&scores);
    assert_eq!(d.evaluated, scores, "AHD evaluations, in walk order");
    assert_eq!(d.plan, plans[best], "AHD plan");
    assert_eq!(d.estimate, scores[best], "AHD estimate");
    ties
}

/// Checks `replan` against brute force; returns the number of tied plans.
fn check_replan(w: &Workload, server: &DegradedServer, batch: usize) -> usize {
    let d = replan(w, server, batch);
    let plans = enumerate_hybrid_plans(w.num_blocks(), server.num_members());
    let scores: Vec<SimTime> = plans
        .iter()
        .map(|p| degraded_estimate(p, server, w, batch))
        .collect();
    let (best, ties) = first_min(&scores);
    assert_eq!(d.evaluated, plans.len(), "replan evaluations");
    assert_eq!(d.plan, plans[best], "replan plan");
    assert_eq!(d.estimate, scores[best], "replan estimate");
    assert_eq!(d.device_map, server.members);
    ties
}

/// Checks `hetero::search` against brute force; returns the number of
/// tied plans.
fn check_hetero(w: &Workload, server: &HeteroServer, batch: usize) -> usize {
    let costs: Vec<CostModel> = server
        .gpus
        .iter()
        .map(|g| CostModel::new(g.clone()))
        .collect();
    let d = hetero::search(w, server, batch);
    let plans = enumerate_hybrid_plans(w.num_blocks(), server.num_gpus());
    let scored: Vec<(SimTime, Vec<Vec<usize>>)> = plans
        .iter()
        .map(|p| {
            let stages: Vec<(SimTime, Vec<usize>)> = p
                .stages
                .iter()
                .map(|s| stage_time_hetero(&costs, w, server, s, batch))
                .collect();
            let period = stages.iter().map(|(t, _)| *t).max().unwrap();
            (period, stages.into_iter().map(|(_, split)| split).collect())
        })
        .collect();
    let scores: Vec<SimTime> = scored.iter().map(|(t, _)| *t).collect();
    let (best, ties) = first_min(&scores);
    assert_eq!(d.plan, plans[best], "hetero plan");
    assert_eq!(d.estimate, scores[best], "hetero estimate");
    assert_eq!(d.splits, scored[best].1, "hetero splits");
    ties
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn enumeration_follows_the_defining_order(blocks in 1usize..14, devices in 1usize..9) {
        prop_assert_eq!(enumerate_hybrid_plans(blocks, devices), reference_plans(blocks, devices));
    }

    #[test]
    fn ahd_equals_brute_force(
        pick in 0usize..5,
        blocks in 1usize..14,
        heavy_first in any::<bool>(),
        devices in 1usize..9,
        a6000 in any::<bool>(),
        batch_pick in 0usize..3,
    ) {
        let w = workload(pick, blocks, heavy_first);
        let batch = [32, 100, 256][batch_pick];
        check_ahd(&w, &server(devices, a6000), batch);
    }

    #[test]
    fn replan_equals_brute_force(
        pick in 0usize..5,
        blocks in 1usize..14,
        heavy_first in any::<bool>(),
        devices in 1usize..9,
        draw in collection::vec(any::<u64>(), 16),
        step in 0u32..10,
    ) {
        let w = workload(pick, blocks, heavy_first);
        let hw = HardwareConfig::a6000_server(devices);
        let Some(script) = script(devices, &draw) else { return };
        let Ok(server) = DegradedServer::at_step(&hw, &script, step) else { return };
        check_replan(&w, &server, 256);
    }

    #[test]
    fn hetero_equals_brute_force(
        pick in 0usize..5,
        blocks in 1usize..14,
        heavy_first in any::<bool>(),
        mix in collection::vec(any::<bool>(), 1..9),
        batch_pick in 0usize..4,
    ) {
        let w = workload(pick, blocks, heavy_first);
        let gpus = mix
            .iter()
            .map(|&fast| if fast { GpuModel::a6000() } else { GpuModel::rtx2080ti() })
            .collect();
        let batch = [1, 3, 64, 256][batch_pick];
        check_hetero(&w, &HeteroServer::new(gpus), batch);
    }
}

#[test]
fn identical_blocks_tie_and_every_search_keeps_the_first_minimum() {
    // Uniform blocks on identical GPUs: 45 of the 462 plans share the
    // minimum, so a search that let a later tie displace the incumbent
    // would pick another plan.
    let w = Workload::synthetic(7, false);
    let hw = HardwareConfig::a6000_server(6);
    let ties = check_ahd(&w, &hw, 256);
    assert!(ties >= 2, "AHD case must tie: {ties} plans at the minimum");
    let healthy = DegradedServer::at_step(&hw, &FaultScript::healthy(), 0).unwrap();
    let ties = check_replan(&w, &healthy, 256);
    assert!(
        ties >= 2,
        "replan case must tie: {ties} plans at the minimum"
    );
    let homo = HeteroServer::new(vec![GpuModel::a6000(); 6]);
    let ties = check_hetero(&w, &homo, 256);
    assert!(
        ties >= 2,
        "hetero case must tie: {ties} plans at the minimum"
    );
}
