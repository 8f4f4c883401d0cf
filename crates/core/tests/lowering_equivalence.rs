//! One pricing path: a lowering context prices every task from one
//! profile table, whether it built the table itself or was handed one.
//!
//! For every strategy × the paper's four workloads × `a6000_server({2, 4,
//! 8})`, and for the faulted lowering under a slowdown script, the graph
//! lowered from `Lowering::new` must equal, task by task, the graph lowered
//! from the same context given the noise-free profile of the analytic cost
//! model, and simulate to the same makespan. A measured table prices the
//! schedule but never steers the searches that choose it (LS packing, AHD).

use pipebd_core::lower::fault::lower_faulted;
use pipebd_core::lower::{lower, Lowering};
use pipebd_core::Strategy;
use pipebd_models::Workload;
use pipebd_sched::{ahd, CostModel, ProfileTable, Profiler};
use pipebd_sim::{
    simulate, simulate_faulted, FaultEvent, FaultScript, HardwareConfig, TaskGraph, TaskKind,
};

const BATCH: usize = 256;
const ROUNDS: u32 = 8;

fn paper_workloads() -> [Workload; 4] {
    [
        Workload::nas_cifar10(),
        Workload::nas_imagenet(),
        Workload::compression_cifar10(),
        Workload::compression_imagenet(),
    ]
}

fn analytic_profile(w: &Workload, hw: &HardwareConfig) -> ProfileTable {
    Profiler::new(CostModel::new(hw.gpu.clone())).profile(&w.model, BATCH, hw.num_gpus)
}

fn assert_graphs_equal(a: &TaskGraph, b: &TaskGraph, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: task counts differ");
    assert_eq!(a.num_edges(), b.num_edges(), "{what}: edge counts differ");
    for ((ia, ta), (ib, tb)) in a.iter().zip(b.iter()) {
        assert_eq!(ia, ib);
        assert_eq!(ta.resource, tb.resource, "{what}: task {ia:?}");
        assert_eq!(ta.kind, tb.kind, "{what}: task {ia:?}");
        assert_eq!(ta.duration, tb.duration, "{what}: task {ia:?}");
        assert_eq!(a.deps(ia), b.deps(ib), "{what}: task {ia:?}");
        assert_eq!(ta.block, tb.block, "{what}: task {ia:?}");
        assert_eq!(ta.step, tb.step, "{what}: task {ia:?}");
    }
    assert_eq!(
        simulate(a).makespan,
        simulate(b).makespan,
        "{what}: makespans differ"
    );
}

fn slowdown() -> FaultScript {
    FaultScript {
        events: vec![FaultEvent::Slowdown {
            rank: 1,
            factor: 1.5,
            start_step: ROUNDS / 4,
            end_step: 3 * ROUNDS / 4,
        }],
    }
}

#[test]
fn a_context_prices_alike_whether_it_builds_or_is_given_the_table() {
    for w in paper_workloads() {
        for devices in [2, 4, 8] {
            let hw = HardwareConfig::a6000_server(devices);
            let profile = analytic_profile(&w, &hw);
            let own = Lowering::new(&w, &hw, BATCH, ROUNDS);
            let given = Lowering::new(&w, &hw, BATCH, ROUNDS).with_profile(&profile);
            assert_eq!(own.table(), &profile, "{} x{devices}", w.label());
            for s in Strategy::ALL {
                let what = format!("{} x{devices} {s}", w.label());
                match (lower(&own, s), lower(&given, s)) {
                    (Ok(a), Ok(b)) => {
                        assert_graphs_equal(&a.graph, &b.graph, &what);
                        assert_eq!(a.plan, b.plan, "{what}");
                        assert_eq!(a.ls, b.ls, "{what}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
                    (a, b) => panic!(
                        "{what}: one context laid out, the other did not: {:?} vs {:?}",
                        a.err(),
                        b.err()
                    ),
                }
            }

            let plan = ahd::search(&w, &profile, &hw, BATCH).plan;
            let script = slowdown();
            let a = lower_faulted(&own, &plan, &script, true).expect("the script is valid");
            let b = lower_faulted(&given, &plan, &script, true).expect("the script is valid");
            let what = format!("{} x{devices} faulted", w.label());
            assert_graphs_equal(&a.graph, &b.graph, &what);
            assert_eq!(a.segments, b.segments, "{what}");
            let ra = simulate_faulted(&a.graph, &script).expect("the graph honours the script");
            let rb = simulate_faulted(&b.graph, &script).expect("the graph honours the script");
            assert_eq!(ra.run.makespan, rb.run.makespan, "{what}");
        }
    }
}

#[test]
fn a_noise_free_table_prices_tasks_at_the_cost_model() {
    // The table is the cost model's values, unchanged: DP's fused teacher
    // prefix is the model's per-block sum at the shard size, its student
    // and update the model's own.
    let hw = HardwareConfig::a6000_server(4);
    let cost = CostModel::new(hw.gpu.clone());
    for w in paper_workloads() {
        let l = Lowering::new(&w, &hw, BATCH, 1);
        let lowered = lower(&l, Strategy::DataParallel).expect("DP lays out");
        let shard = BATCH.div_ceil(hw.num_gpus);
        let blocks = &w.model.blocks;
        for (_, t) in lowered.graph.iter() {
            let Some(phase) = t.block.map(usize::from) else {
                continue;
            };
            let want = match t.kind {
                TaskKind::Teacher => cost.teacher_time_blocks(&blocks[..=phase], shard),
                TaskKind::Student => cost.student_time(&blocks[phase], shard),
                TaskKind::Update => cost.update_time(&blocks[phase]),
                _ => continue,
            };
            assert_eq!(
                t.duration,
                want,
                "{} {:?} of phase {phase}",
                w.label(),
                t.kind
            );
        }
    }
}

#[test]
fn a_measured_table_prices_the_schedule_but_does_not_choose_it() {
    // A noisy profile stands in for a measured one: every priced task
    // moves, but LS packs and AHD picks exactly what the analytic model
    // would, because both searches profile the cost model themselves.
    for w in paper_workloads() {
        let hw = HardwareConfig::a6000_server(4);
        let noisy = Profiler {
            cost: CostModel::new(hw.gpu.clone()),
            noise: 0.3,
        }
        .profile(&w.model, BATCH, hw.num_gpus);
        let own = Lowering::new(&w, &hw, BATCH, 2);
        let measured = Lowering::new(&w, &hw, BATCH, 2).with_profile(&noisy);
        for s in [Strategy::LayerwiseScheduling, Strategy::PipeBd] {
            let a = lower(&own, s).expect("LS and Pipe-BD always lay out");
            let b = lower(&measured, s).expect("LS and Pipe-BD always lay out");
            assert_eq!(a.plan, b.plan, "{} {s}", w.label());
            assert_eq!(a.ls, b.ls, "{} {s}", w.label());
            assert_eq!(a.graph.len(), b.graph.len(), "{} {s}", w.label());
            let moved = a
                .graph
                .iter()
                .zip(b.graph.iter())
                .any(|((_, ta), (_, tb))| ta.duration != tb.duration);
            assert!(
                moved,
                "{} {s}: the measured table priced nothing",
                w.label()
            );
        }
    }
}
