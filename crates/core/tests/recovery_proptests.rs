//! Property-based tests for the recovery plane: checkpoints round-trip
//! bitwise through the file codec under *any* strategy and pool size, restore
//! attempts never exceed the configured budget, a healthy fault script
//! never triggers the recovery machinery at all, the plan-lineage check
//! keeps "torn sink" and "foreign checkpoint" failures distinct, every
//! entry point refuses a corrupted checkpoint alike before it spawns a
//! thread, and elastic join → loss → rejoin compounds always terminate.

use std::sync::Arc;

use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryReport, RecoveryRunner};
use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::{reference, ExecError, FuncConfig};
use pipebd_core::{
    checkpoint, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSink, MemorySink,
};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig, Workload};
use pipebd_nn::BlockNet;
use pipebd_sched::StagePlan;
use pipebd_sim::{FaultEvent, FaultScript};
use pipebd_tensor::Rng64;
use pipebd_trace::{SpanKind, TraceCollector, TraceMode};
use proptest::prelude::*;

const BLOCKS: usize = 4;
const BATCH: usize = 8;

fn nets(seed: u64) -> (BlockNet, BlockNet, SyntheticImageDataset) {
    let cfg = MiniConfig {
        blocks: BLOCKS,
        channels: 4,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(seed);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = mini_student_dsconv(cfg, &mut rng);
    let data = SyntheticImageDataset::mini(64, BATCH, 4, seed.rotate_left(17));
    (teacher, student, data)
}

/// A sink whose persisted checkpoint is unreadable — the artifact store's
/// "torn file" failure mode, modeled at the trait level.
#[derive(Debug)]
struct TornSink;

impl CheckpointSink for TornSink {
    fn store(&self, _: &Checkpoint) -> Result<(), CheckpointError> {
        Ok(())
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        let torn = std::io::Error::new(std::io::ErrorKind::InvalidData, "bad checksum");
        Err(CheckpointError::Sink(Box::new(torn)))
    }
}

/// Any valid hybrid plan for 4 blocks on a device count of `devices`
/// whose widths divide the batch.
fn plans_on(devices: &[usize]) -> impl Strategy<Value = StagePlan> {
    let all: Vec<StagePlan> = (devices.iter())
        .flat_map(|&d| pipebd_sched::enumerate_hybrid_plans(BLOCKS, d))
        .filter(|p| p.stages.iter().all(|s| BATCH % s.width() == 0))
        .collect();
    let len = all.len();
    (0..len).prop_map(move |i| all[i].clone())
}

/// The full strategy space on 4 devices (TR, DPU, IR, hybrids).
fn plan_strategy() -> impl Strategy<Value = StagePlan> {
    plans_on(&[4])
}

/// A teacher, a student and their data.
type Nets<'a> = (&'a BlockNet, &'a BlockNet, &'a SyntheticImageDataset);

/// A decoupled run of `steps` steps under `plan` (contiguous over 2
/// devices when `None`).
fn config(plan: Option<StagePlan>, steps: usize) -> FuncConfig {
    FuncConfig {
        devices: plan.as_ref().map_or(2, |p| p.num_devices),
        steps,
        batch: BATCH,
        lr: 0.05,
        momentum: 0.9,
        plan,
        decoupled_updates: true,
        pool_size: Some(1),
    }
}

/// The checkpoint a healthy threaded run of `cfg` holds at `round`.
fn captured((teacher, student, data): Nets<'_>, cfg: &FuncConfig, round: usize) -> Checkpoint {
    let sink = Arc::new(MemorySink::default());
    let hooks = RunHooks {
        checkpoint: Some((CheckpointPolicy::every(round), sink.clone())),
        ..RunHooks::default()
    };
    threaded::run_hooked(teacher, student, data, cfg, &hooks).unwrap();
    let ckpt = sink.latest().unwrap().expect("the run outlasts the round");
    assert_eq!(ckpt.round, round);
    ckpt
}

/// A recovery run of `cfg` under `script` that captures no checkpoint of
/// its own: every restore reads what `sink` was given.
fn recover(
    (teacher, student, data): Nets<'_>,
    cfg: &FuncConfig,
    script: &FaultScript,
    sink: Arc<dyn CheckpointSink>,
    trace: Option<Arc<TraceCollector>>,
) -> Result<RecoveryReport, ExecError> {
    let workload = Workload::synthetic(BLOCKS, false);
    let runner = RecoveryRunner {
        workload: &workload,
        script,
        policy: RecoveryPolicy {
            checkpoint_every: 0,
            ..RecoveryPolicy::default()
        },
        sink,
        trace,
    };
    runner.run(teacher, student, data, cfg)
}

/// The number of corruptions [`corrupt`] knows.
const CORRUPTIONS: usize = 12;

/// The checkpoint error a run ended in, rendered in full for comparison.
fn refusal(end: Result<(), ExecError>) -> Result<String, String> {
    match end {
        Err(ExecError::Checkpoint(e)) => Ok(format!("{e:?}")),
        other => Err(format!("not a checkpoint refusal: {other:?}")),
    }
}

/// One structural corruption of a valid checkpoint per `which`, at block
/// `block` where it touches one: each is one field the resume gate reads.
fn corrupt(c: &mut Checkpoint, which: usize, block: usize) {
    let b = &mut c.blocks[block];
    match which {
        0 => c.round += 1,
        1 => c.data_cursor += 1,
        2 => c.batch *= 2,
        3 => drop(c.blocks.pop()),
        4 => c.blocks.swap(block, (block + 1) % BLOCKS),
        5 => b.block = BLOCKS,
        6 => b.losses.truncate(1),
        7 => drop(b.params.pop()),
        8 => b.params[0].dims.push(1),
        9 => b.params[0].data.push(0.0),
        10 => drop(b.velocities.pop()),
        _ => b.velocities[0].dims.push(1),
    }
}

proptest! {
    // Every case trains at least one model; keep the counts moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any strategy, pool size, and update mode, a captured
    /// checkpoint survives the file codec's round-trip bit for bit.
    #[test]
    fn checkpoint_roundtrips_bitwise_across_strategies_and_pools(
        plan in plan_strategy(),
        pool_idx in 0usize..3,
        dpu in any::<bool>(),
        seed in 0u64..100,
    ) {
        let (teacher, student, data) = nets(seed);
        let devices = plan.num_devices;
        let cfg = FuncConfig {
            devices,
            steps: 5,
            batch: BATCH,
            lr: 0.05,
            momentum: 0.9,
            plan: Some(plan),
            decoupled_updates: dpu,
            pool_size: [None, Some(1), Some(2)][pool_idx],
        };
        let sink = Arc::new(MemorySink::default());
        let hooks = RunHooks {
            driver: None,
            resume: None,
            checkpoint: Some((
                CheckpointPolicy::every(2),
                Arc::clone(&sink) as Arc<dyn CheckpointSink>,
            )),
            trace: None,
        };
        threaded::run_hooked(&teacher, &student, &data, &cfg, &hooks).unwrap();

        let ckpt = sink.latest().unwrap().expect("a 5-step run checkpoints at round 4");
        prop_assert_eq!(ckpt.round, 4);
        prop_assert!(reference::resume(&teacher, &student, &data, &cfg, &ckpt).is_ok());

        let back = checkpoint::decode(&checkpoint::encode(&ckpt)).unwrap();
        prop_assert_eq!(back, ckpt, "encode/decode must be bitwise");
    }

    /// The restore budget is a hard bound: however the script kills
    /// ranks, the report never records more restores than `max_restores`
    /// (exhaustion degrades to the reference fallback instead).
    #[test]
    fn restores_never_exceed_the_configured_bound(
        lost_rank in 0usize..2,
        loss_step in 1u32..5,
        max_restores in 0usize..3,
        seed in 0u64..100,
    ) {
        let (teacher, student, data) = nets(seed);
        let workload = Workload::synthetic(BLOCKS, false);
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss { rank: lost_rank, at_step: loss_step }],
        };
        let cfg = FuncConfig {
            devices: 2,
            steps: 6,
            batch: BATCH,
            lr: 0.05,
            momentum: 0.9,
            plan: None,
            decoupled_updates: true,
            pool_size: Some(1),
        };
        let runner = RecoveryRunner {
            workload: &workload,
            script: &script,
            policy: RecoveryPolicy {
                max_restores,
                ..RecoveryPolicy::default()
            },
            sink: Arc::new(MemorySink::default()),
            trace: None,
        };
        let report = runner.run(&teacher, &student, &data, &cfg).unwrap();
        prop_assert!(
            report.restores <= max_restores,
            "{} restores exceed the budget of {max_restores}",
            report.restores
        );
        prop_assert!(
            report.restores >= 1 || report.fell_back,
            "a mid-run host loss must trigger at least one restore or the fallback"
        );
        prop_assert_eq!(report.outcome.losses[0].len(), 6, "the run must still complete");
    }

    /// A healthy script never touches the recovery machinery — zero
    /// restores, zero replans, no fallback — and trains the same model
    /// as the undriven executor (slowdown pauses are wall-clock-only,
    /// and a healthy script has none).
    #[test]
    fn healthy_script_never_triggers_a_restore(
        plan in plan_strategy(),
        dpu in any::<bool>(),
        seed in 0u64..100,
    ) {
        let (teacher, student, data) = nets(seed);
        let workload = Workload::synthetic(BLOCKS, false);
        let script = FaultScript::healthy();
        let cfg = FuncConfig {
            devices: plan.num_devices,
            steps: 4,
            batch: BATCH,
            lr: 0.05,
            momentum: 0.9,
            plan: Some(plan.clone()),
            decoupled_updates: dpu,
            pool_size: Some(1),
        };
        let runner = RecoveryRunner {
            workload: &workload,
            script: &script,
            policy: RecoveryPolicy::default(),
            sink: Arc::new(MemorySink::default()),
            trace: None,
        };
        let report = runner.run(&teacher, &student, &data, &cfg).unwrap();
        prop_assert_eq!(report.restores, 0);
        prop_assert_eq!(report.replans, 0);
        prop_assert!(!report.fell_back);

        let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
        let diff = report.outcome.max_param_diff(&golden);
        let tolerance = if plan.uses_batch_split() { 1e-4 } else { 0.0 };
        prop_assert!(diff <= tolerance, "plan {}: diff {diff} > {tolerance}", plan);
    }

    /// The recovery runner's lineage check keeps the restore failure
    /// modes distinct for any plan with room to grow: at a join, a
    /// checkpoint of the run's own plan resumes, one stamped by a foreign
    /// plan is refused as such (naming both sides), and a torn sink's own
    /// error comes back as a sink failure — never conflated with a
    /// mismatch.
    #[test]
    fn torn_and_mismatched_checkpoints_stay_distinct(
        plan in plans_on(&[1, 2, 3]),
        seed in 0u64..100,
    ) {
        let (teacher, student, data) = nets(seed);
        let nets = (&teacher, &student, &data);
        let cfg = config(Some(plan.clone()), 6);
        let own = captured(nets, &cfg, 4);
        prop_assert_eq!(&own.plan_fingerprint, &plan.fingerprint());
        // A fresh rank joins at step 3; the planted round 4 outranks the
        // forced boundary checkpoint, so it is what the join restores.
        let script = FaultScript {
            events: vec![FaultEvent::HostJoin { rank: plan.num_devices, at_step: 3 }],
        };
        let planted = |ckpt: &Checkpoint| {
            let sink = Arc::new(MemorySink::default());
            sink.store(ckpt).unwrap();
            sink as Arc<dyn CheckpointSink>
        };

        let report = recover(nets, &cfg, &script, planted(&own), None).unwrap();
        prop_assert_eq!(report.resumed_rounds, vec![4]);

        let foreign = "9x9:0000000000000bad".to_string();
        let stale = Checkpoint { plan_fingerprint: foreign.clone(), ..own };
        match recover(nets, &cfg, &script, planted(&stale), None) {
            Err(ExecError::Checkpoint(CheckpointError::ForeignPlan { round, found, lineage })) => {
                prop_assert_eq!(round, 4);
                prop_assert_eq!(found, foreign);
                prop_assert!(lineage.contains(&plan.fingerprint()), "{lineage:?}");
            }
            other => prop_assert!(false, "expected a foreign plan, got {:?}", other.map(|r| r.grows)),
        }

        match recover(nets, &cfg, &script, Arc::new(TornSink), None) {
            Err(ExecError::Checkpoint(CheckpointError::Sink(e))) => {
                let kind = e.downcast_ref::<std::io::Error>().map(std::io::Error::kind);
                prop_assert_eq!(kind, Some(std::io::ErrorKind::InvalidData), "{:?}", e);
            }
            other => prop_assert!(false, "expected the torn read, got {:?}", other.map(|r| r.grows)),
        }
    }

    /// The resume gate is one: every single-field corruption of a valid
    /// checkpoint is refused with the same error by a direct resume on
    /// either executor and by the recovery runner's restore, and neither
    /// executor spawns a device thread for it.
    #[test]
    fn a_corrupted_checkpoint_is_refused_alike_everywhere(
        block in 0usize..BLOCKS,
        seed in 0u64..100,
    ) {
        let (teacher, student, data) = nets(seed);
        let nets = (&teacher, &student, &data);
        let cfg = config(None, 3);
        let valid = captured(nets, &cfg, 2);
        // Rank 1 dies at step 1; the restore reads the planted checkpoint.
        let script = FaultScript {
            events: vec![FaultEvent::HostLoss { rank: 1, at_step: 1 }],
        };
        for which in 0..CORRUPTIONS {
            let mut ckpt = valid.clone();
            corrupt(&mut ckpt, which, block);

            let direct = refusal(reference::resume(&teacher, &student, &data, &cfg, &ckpt).map(drop));
            prop_assert!(direct.is_ok(), "corruption {which}: {direct:?}");

            let collector = TraceCollector::new(TraceMode::Spans);
            let hooks = RunHooks {
                resume: Some(Arc::new(ckpt.clone())),
                trace: Some(Arc::clone(&collector)),
                ..RunHooks::default()
            };
            let hooked = threaded::run_hooked(&teacher, &student, &data, &cfg, &hooks);
            prop_assert_eq!(refusal(hooked.map(drop)), direct.clone());
            prop_assert_eq!(collector.drain().span_count(), 0, "a thread started");

            let sink = Arc::new(MemorySink::default());
            sink.store(&ckpt).unwrap();
            let collector = TraceCollector::new(TraceMode::Spans);
            let recovered = recover(nets, &cfg, &script, sink, Some(Arc::clone(&collector)));
            prop_assert_eq!(refusal(recovered.map(drop)), direct);
            let events = collector.drain().events;
            let spawns = events.iter().filter(|e| e.kind == SpanKind::WorkerSpawn);
            prop_assert_eq!(spawns.count(), cfg.devices, "only the first epoch spawned");
        }
    }

    /// An elastic join, a later host loss, and a still-later rejoin —
    /// the full grow/shrink/grow compound — always terminates with a
    /// complete run (never a deadlock, never a panic), stays within the
    /// restore budget, counts both growths, and replays bitwise for the
    /// width-1 incumbents the contiguous default produces.
    #[test]
    fn join_then_loss_then_rejoin_never_deadlocks(
        join_step in 1u32..4,
        loss_gap in 1u32..3,
        rejoin_gap in 1u32..3,
        lost_rank in 0usize..3,
        seed in 0u64..100,
    ) {
        let loss_step = join_step + loss_gap;
        let rejoin_step = loss_step + rejoin_gap;
        let (teacher, student, data) = nets(seed);
        let workload = Workload::synthetic(BLOCKS, false);
        // Rank 2 joins the 2-rank set mid-run, `lost_rank` (possibly the
        // joined rank itself) dies later, and fresh rank 3 rejoins last.
        let script = FaultScript {
            events: vec![
                FaultEvent::HostJoin { rank: 2, at_step: join_step },
                FaultEvent::HostLoss { rank: lost_rank, at_step: loss_step },
                FaultEvent::HostJoin { rank: 3, at_step: rejoin_step },
            ],
        };
        let cfg = FuncConfig {
            devices: 2,
            steps: 8,
            batch: BATCH,
            lr: 0.05,
            momentum: 0.9,
            plan: None,
            decoupled_updates: true,
            pool_size: Some(1),
        };
        let runner = RecoveryRunner {
            workload: &workload,
            script: &script,
            policy: RecoveryPolicy::default(),
            sink: Arc::new(MemorySink::default()),
            trace: None,
        };
        let report = runner.run(&teacher, &student, &data, &cfg).unwrap();
        prop_assert_eq!(report.grows, 2, "both joins must grow the member set");
        prop_assert!(
            report.restores >= 1 || report.fell_back,
            "the loss must trigger the restore path"
        );
        prop_assert!(report.restores <= runner.policy.max_restores);
        prop_assert_eq!(report.outcome.losses[0].len(), 8, "the run must complete");

        let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
        prop_assert_eq!(
            report.outcome.max_param_diff(&golden),
            0.0,
            "width-1 grow/shrink/grow must replay bitwise"
        );
    }
}
