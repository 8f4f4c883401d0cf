//! One accepted set: over arbitrary run configs — zero devices, empty
//! batches, zero steps, unequal block counts, and hand-built plans that are
//! empty, gapped, mis-sized or of widths that do not divide the batch —
//! the reference executor, the threaded executor and the recovery runner
//! never panic, accept exactly the same configs, refuse the rest with the
//! same `SpecError`, accept only what `FuncConfig`'s docs say is a run, and
//! replay every accepted width-1 config bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
use pipebd_core::exec::{reference, threaded, ExecError, FuncConfig, FuncOutcome, SpecError};
use pipebd_core::MemorySink;
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig, Workload};
use pipebd_nn::BlockNet;
use pipebd_sched::{Stage, StagePlan};
use pipebd_sim::FaultScript;
use pipebd_tensor::Rng64;
use proptest::prelude::*;

fn nets(teacher: usize, student: usize, seed: u64) -> (BlockNet, BlockNet) {
    let mini = |blocks| MiniConfig {
        blocks,
        channels: 3,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(seed);
    let t = mini_teacher(mini(teacher), &mut rng);
    (t, mini_student_dsconv(mini(student), &mut rng))
}

/// A hand-built plan from `(blocks, width)` pairs laid out consecutively,
/// then bent by `bend`: 0 leaves it whole, 1 skips a device rank before
/// the last stage, 2 skips a block before it, 3 claims one device more
/// than the stages use. Pairs may be empty or hold zeros.
fn hand_built(pairs: &[(usize, usize)], bend: usize) -> StagePlan {
    let (mut block, mut device) = (0, 0);
    let mut stages = Vec::new();
    for (i, &(num_blocks, width)) in pairs.iter().enumerate() {
        if i + 1 == pairs.len() && bend == 1 {
            device += 1;
        }
        if i + 1 == pairs.len() && bend == 2 {
            block += 1;
        }
        stages.push(Stage {
            first_block: block,
            num_blocks,
            devices: (device..device + width).collect(),
        });
        block += num_blocks;
        device += width;
    }
    StagePlan {
        stages,
        num_blocks: block,
        num_devices: device + usize::from(bend == 3),
    }
}

/// The plan a case runs under: `None` (contiguous over the devices), a
/// valid plan over the teacher's blocks and the devices, a valid plan
/// built for another shape (now and then the same one), or a hand-built
/// one — also when there is no valid plan to pick.
fn plan_for(
    choice: usize,
    pick: usize,
    blocks: usize,
    devices: usize,
    pairs: &[(usize, usize)],
    bend: usize,
) -> Option<StagePlan> {
    let valid = match choice {
        0 => return None,
        1 => pipebd_sched::enumerate_hybrid_plans(blocks, devices),
        2 => pipebd_sched::enumerate_hybrid_plans(1 + pick % 6, 1 + pick / 6 % 5),
        _ => Vec::new(),
    };
    Some(match valid.len() {
        0 => hand_built(pairs, bend),
        n => valid[pick % n].clone(),
    })
}

/// One executor's answer, with a panic turned into a test failure and any
/// error but a refusal too.
fn verdict(
    name: &str,
    f: impl FnOnce() -> Result<FuncOutcome, ExecError>,
) -> Result<FuncOutcome, SpecError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Err(_) => panic!("{name} panicked"),
        Ok(Err(ExecError::Spec(e))) => Err(e),
        Ok(Err(e)) => panic!("{name} failed after accepting the config: {e}"),
        Ok(Ok(outcome)) => Ok(outcome),
    }
}

/// Checks the verdict against `FuncConfig`'s docs: an accepted config
/// meets every stated condition, and a refusal names one that fails.
fn check_against_docs(teacher: usize, student: usize, cfg: &FuncConfig, got: &Option<SpecError>) {
    let resolved = match &cfg.plan {
        Some(plan) => plan.validate().map(|()| plan.clone()),
        None => StagePlan::contiguous(teacher, cfg.devices),
    };
    let run = (teacher, cfg.devices);
    let shape = |plan: &StagePlan| (plan.num_blocks, plan.num_devices);
    match got {
        None => {
            assert_eq!(teacher, student, "accepted unequal block counts");
            assert!(cfg.batch >= 1, "accepted an empty batch");
            let plan = resolved.expect("accepted an invalid plan");
            assert_eq!(shape(&plan), run, "accepted a plan of another shape");
            for s in &plan.stages {
                assert_eq!(cfg.batch % s.width(), 0, "accepted an indivisible batch");
            }
        }
        Some(SpecError::BlockCount {
            teacher: t,
            student: s,
        }) => {
            assert_eq!((*t, *s), (teacher, student));
            assert_ne!(t, s);
        }
        Some(SpecError::EmptyBatch) => assert_eq!(cfg.batch, 0),
        Some(SpecError::Plan(why)) => assert_eq!(resolved.as_ref().err(), Some(why)),
        Some(SpecError::PlanShape { plan, run: r }) => {
            let valid = resolved.as_ref().expect("PlanShape on an invalid plan");
            assert_eq!((*plan, *r), (shape(valid), run));
            assert_ne!(plan, r);
        }
        Some(SpecError::IndivisibleBatch { batch, width }) => {
            let valid = resolved
                .as_ref()
                .expect("IndivisibleBatch on an invalid plan");
            assert_eq!(*batch, cfg.batch);
            assert!(valid.stages.iter().any(|s| s.width() == *width));
            assert_ne!(batch % width, 0);
        }
        Some(other) => panic!("not a run-config refusal: {other}"),
    }
}

proptest! {
    // Each accepted case trains three times on up to five device threads;
    // most cases are refusals and cost nothing.
    #![proptest_config(ProptestConfig::with_cases(800))]

    #[test]
    fn every_executor_accepts_the_same_runs_and_replays_width_one_bitwise(
        blocks in (1usize..5, 1usize..5),
        shape in (0usize..6, 0usize..10, 0usize..3),
        plan_draw in (0usize..4, 0usize..64, 0usize..4),
        pairs in collection::vec((0usize..3, 0usize..3), 0..4),
        decoupled_updates in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (teacher_blocks, student_blocks) = blocks;
        let (devices, batch, steps) = shape;
        let (choice, pick, bend) = plan_draw;
        let (teacher, student) = nets(teacher_blocks, student_blocks, seed);
        let data = SyntheticImageDataset::mini(32, 4, 4, seed);
        let plan = plan_for(choice, pick, teacher_blocks, devices, &pairs, bend);
        let cfg = FuncConfig {
            devices,
            steps,
            batch,
            lr: 0.05,
            momentum: 0.9,
            plan,
            decoupled_updates,
            pool_size: Some(1),
        };
        let case = format!("{teacher_blocks} over {student_blocks} blocks, {cfg:?}");

        let oracle = verdict("reference", || reference::run(&teacher, &student, &data, &cfg));
        let pipelined = verdict("threaded", || threaded::run(&teacher, &student, &data, &cfg));
        let workload = Workload::synthetic(teacher_blocks, false);
        let script = FaultScript::healthy();
        let runner = RecoveryRunner {
            workload: &workload,
            script: &script,
            policy: RecoveryPolicy::default(),
            sink: Arc::new(MemorySink::new()),
            trace: None,
        };
        let recovered = verdict("recovery", || {
            runner.run(&teacher, &student, &data, &cfg).map(|r| r.outcome)
        });

        let refusal = oracle.as_ref().err().cloned();
        prop_assert_eq!(pipelined.as_ref().err(), refusal.as_ref(), "threaded: {}", case);
        prop_assert_eq!(recovered.as_ref().err(), refusal.as_ref(), "recovery: {}", case);
        check_against_docs(teacher_blocks, student_blocks, &cfg, &refusal);

        if let (Ok(golden), Ok(pipelined), Ok(recovered)) = (oracle, pipelined, recovered) {
            let resolved = cfg.plan.clone().unwrap_or_else(|| {
                StagePlan::contiguous(teacher_blocks, devices).expect("accepted")
            });
            // Width 1 is bitwise; a batch split reorders the gradient sum.
            let bound = if resolved.uses_batch_split() { 1e-4 } else { 0.0 };
            for (name, outcome) in [("threaded", &pipelined), ("recovery", &recovered)] {
                let (params, losses) =
                    (outcome.max_param_diff(&golden), outcome.max_loss_diff(&golden));
                prop_assert!(
                    params <= bound && losses <= bound,
                    "{name}: params {params}, losses {losses} > {bound}: {case}"
                );
            }
        }
    }
}
