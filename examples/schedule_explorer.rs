//! Schedule explorer: enumerate the whole AHD plan space for a workload,
//! rank plans by estimated step period, render Gantt charts of the best
//! plan and the naive contiguous plan side by side — and persist the
//! profile + chosen plan as artifacts, then *replay* the search from the
//! reloaded profile to demonstrate the measured-profile workflow.
//!
//! Run with: `cargo run --example schedule_explorer --release [blocks]`

use pipe_bd::artifact::{ArtifactStore, CostProfile};
use pipe_bd::core::{ExperimentBuilder, Strategy};
use pipe_bd::models::Workload;
use pipe_bd::sched::{ahd, enumerate_hybrid_plans, hybrid_plan_count, CostModel, Profiler};
use pipe_bd::sim::HardwareConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hw = HardwareConfig::a6000_server(4);
    // Optional argument: explore a synthetic workload with that many
    // blocks instead of the default NAS/ImageNet workload.
    let workload = match std::env::args().nth(1) {
        Some(arg) => {
            let blocks: usize = arg
                .parse()
                .map_err(|_| format!("expected a block count, got {arg:?}"))?;
            Workload::synthetic(blocks, true)
        }
        None => Workload::nas_imagenet(),
    };
    let b = workload.num_blocks();
    let experiment = ExperimentBuilder::new(workload.clone())
        .hardware(hw.clone())
        .batch_size(256)
        .build()?;

    let decision = experiment.ahd_decision();
    println!(
        "plan space for B={b} blocks on N={} devices: {} plans (closed form {})",
        hw.num_gpus,
        decision.evaluated.len(),
        hybrid_plan_count(b, hw.num_gpus),
    );

    let mut ranked: Vec<_> = enumerate_hybrid_plans(b, hw.num_gpus)
        .into_iter()
        .zip(decision.evaluated.iter().copied())
        .collect();
    ranked.sort_by_key(|(_, est)| *est);
    println!("\ntop 5 plans by estimated step period:");
    for (plan, est) in ranked.iter().take(5) {
        println!("  {est}  {plan}");
    }
    println!("\nbottom 3 (worst) plans:");
    for (plan, est) in ranked.iter().rev().take(3) {
        println!("  {est}  {plan}");
    }

    println!("\nchosen plan: {}", decision.plan);
    println!("\nPipe-BD (TR+DPU+AHD) schedule, 4 rounds:");
    print!("{}", experiment.gantt(Strategy::PipeBd, 110)?);
    println!("\nplain TR+DPU (contiguous) schedule, 4 rounds:");
    print!("{}", experiment.gantt(Strategy::TrDpu, 110)?);
    println!("\nDP baseline schedule, 4 rounds of the first two phases:");
    print!("{}", experiment.gantt(Strategy::DataParallel, 110)?);
    println!(
        "(digits = teacher block, letters = student block, L = load, U = update, g = grad-share)"
    );

    // Artifact plane: persist the profiling pass and the chosen plan,
    // then reload the profile and replay the AHD search from it — the
    // measured-profile workflow (profile once, schedule many times).
    let store = ArtifactStore::from_env();
    let table =
        Profiler::new(CostModel::new(hw.gpu.clone())).profile(&workload.model, 256, hw.num_gpus);
    let profile = CostProfile::from_table(
        workload.label(),
        hw.gpu.name.clone(),
        256,
        hw.num_gpus,
        &workload.model,
        &table,
    );
    let profile_path = store.save("schedule_explorer_profile", &profile)?;
    let plan_path = store.save("schedule_explorer_plan", &decision.plan)?;
    println!("\nartifact: {}", profile_path.display());
    println!("artifact: {}", plan_path.display());

    let reloaded: CostProfile = store.load("schedule_explorer_profile")?;
    let replayed = ahd::search(&workload, &reloaded.to_table()?, &hw, 256);
    assert_eq!(
        replayed.plan, decision.plan,
        "replaying the AHD search from the persisted profile must pick the same plan"
    );
    println!(
        "replayed AHD search from the persisted profile: same plan ({})",
        replayed.plan
    );
    Ok(())
}
