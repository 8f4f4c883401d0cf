//! Property-based tests for the recovery plane: checkpoints round-trip
//! bitwise through the file codec under *any* strategy and pool size, restore
//! attempts never exceed the configured budget, a healthy fault script
//! never triggers the recovery machinery at all, the plan-lineage gate
//! keeps "torn sink" and "foreign checkpoint" failures distinct, and
//! elastic join → loss → rejoin compounds always terminate.

use std::sync::Arc;

use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::{reference, FuncConfig};
use pipebd_core::{checkpoint, Checkpoint, CheckpointPolicy, CheckpointSink, MemorySink};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig, Workload};
use pipebd_sched::StagePlan;
use pipebd_sim::{FaultEvent, FaultScript};
use pipebd_tensor::Rng64;
use proptest::prelude::*;

const BLOCKS: usize = 4;
const BATCH: usize = 8;

fn nets(
    seed: u64,
) -> (
    pipebd_nn::BlockNet,
    pipebd_nn::BlockNet,
    SyntheticImageDataset,
) {
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

/// A sink whose persisted envelope is unreadable — the artifact store's
/// "torn file" failure mode, modeled at the trait level.
#[derive(Debug)]
struct TornSink;

impl CheckpointSink for TornSink {
    fn store(&self, _: &Checkpoint) -> Result<(), String> {
        Ok(())
    }

    fn latest(&self) -> Result<Option<Checkpoint>, String> {
        Err("checkpoint `ckpt`: malformed artifact: bad checksum".into())
    }
}

/// Any valid hybrid plan for 4 blocks on up to 4 devices whose widths
/// divide the batch — the full strategy space (TR, DPU, IR, hybrids).
fn plan_strategy() -> impl Strategy<Value = StagePlan> {
    let all: Vec<StagePlan> = pipebd_sched::enumerate_hybrid_plans(BLOCKS, 4)
        .into_iter()
        .filter(|p| p.stages.iter().all(|s| BATCH % s.width() == 0))
        .collect();
    let len = all.len();
    (0..len).prop_map(move |i| all[i].clone())
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
        prop_assert!(ckpt.validate(BLOCKS, BATCH).is_ok());

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

    /// The plan-lineage gate keeps the two restore failure modes
    /// distinct for any plan: a checkpoint whose fingerprint is outside
    /// the run's lineage fails with the structured mismatch error (and
    /// names both sides), an in-lineage checkpoint resumes, and a torn
    /// sink propagates its own read error verbatim — never conflated
    /// with a mismatch.
    #[test]
    fn torn_and_mismatched_checkpoints_stay_distinct(
        plan in plan_strategy(),
        seed in 0u64..100,
    ) {
        let (teacher, student, data) = nets(seed);
        let cfg = FuncConfig {
            devices: plan.num_devices,
            steps: 5,
            batch: BATCH,
            lr: 0.05,
            momentum: 0.9,
            plan: Some(plan.clone()),
            decoupled_updates: true,
            pool_size: Some(1),
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

        // In-lineage resumes; every checkpoint carries the plan's stamp.
        let own = plan.fingerprint();
        let ckpt = sink
            .latest_matching(std::slice::from_ref(&own))
            .unwrap()
            .expect("a 5-step run checkpoints");
        prop_assert_eq!(&ckpt.plan_fingerprint, &own);

        // Foreign lineage is the structured mismatch, naming both sides.
        let foreign = "9x9:0000000000000bad".to_string();
        let err = sink
            .latest_matching(std::slice::from_ref(&foreign))
            .expect_err("a checkpoint from another plan must be refused");
        prop_assert!(err.contains("plan fingerprint mismatch"), "got: {err}");
        prop_assert!(err.contains(&own), "mismatch must name the stored stamp: {err}");
        prop_assert!(err.contains(&foreign), "mismatch must name the lineage: {err}");

        // A torn sink is a read failure, not a mismatch.
        let torn_err = TornSink
            .latest_matching(std::slice::from_ref(&own))
            .expect_err("a torn sink must fail loudly");
        prop_assert!(torn_err.contains("bad checksum"), "got: {torn_err}");
        prop_assert!(
            !torn_err.contains("mismatch"),
            "torn and mismatched must stay distinct: {torn_err}"
        );
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
