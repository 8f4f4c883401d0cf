//! The recovery slice of the conformance matrix, run in-test: one
//! kill-and-restore scenario per fault class in debug mode, so tier-1
//! always exercises the full recovery protocol (fault driver → rank loss
//! → checkpoint restore → replan → resume → replay-equivalence check),
//! plus the elastic-growth paths: a host joining mid-run grows the
//! member set at a round boundary, and a lost host's hardware can rejoin
//! under a fresh rank — both replaying bitwise for width-1 incumbents.
//! Step 0 is planning time: a host joining or lost there changes the first
//! epoch's member set, not the run's history. A script with no timeline is
//! refused alike by every reader.

use std::sync::Arc;

use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryReport, RecoveryRunner};
use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::{reference, ExecError, SpecError};
use pipebd_core::lower::fault::lower_faulted;
use pipebd_core::lower::Lowering;
use pipebd_core::{Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSink, MemorySink};
use pipebd_models::Workload;
use pipebd_sched::{DegradedServer, StagePlan};
use pipebd_sim::{
    simulate_faulted, FaultEvent, FaultScript, FaultViolation, HardwareConfig, TaskGraph,
};
use pipebd_testkit::{
    enumerate, run_scenario, ConformanceStrategy, ExecSetup, FaultClass, Scenario, SimWorkload,
    ToleranceBook,
};

/// The executor-recovery scenarios of the matrix.
fn recovery_scenarios() -> Vec<Scenario> {
    enumerate()
        .into_iter()
        .filter(|s| s.fault.as_ref().is_some_and(|f| f.exec_recovery))
        .collect()
}

/// The first recovery scenario of `strategy` whose script is a host loss.
fn loss_scenario(strategy: ConformanceStrategy) -> Scenario {
    recovery_scenarios()
        .into_iter()
        .find(|s| {
            s.strategy == strategy
                && s.fault
                    .as_ref()
                    .is_some_and(|f| f.class == FaultClass::Loss)
        })
        .expect("the recovery slice kills a host under every incumbent")
}

#[test]
fn one_kill_and_restore_scenario_per_class_conforms() {
    let scenarios = recovery_scenarios();
    let book = ToleranceBook::gate_default();
    for class in FaultClass::ALL {
        let s = scenarios
            .iter()
            .find(|s| s.fault.as_ref().is_some_and(|f| f.class == class))
            .unwrap_or_else(|| panic!("no recovery scenario for {class:?}"));
        let outcome = run_scenario(s, &book);
        assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
        assert!(outcome.recovery_checked, "{}: recovery did not run", s.id);
        match class {
            // Pure slowdowns stretch wall-clock only: no restore, and the
            // paused run still trains the identical model.
            FaultClass::Slowdown => {
                assert_eq!(outcome.restores, 0, "{}: slowdown restored", s.id);
            }
            // Elastic joins grow the member set without spending any
            // restore budget.
            FaultClass::Join => {
                assert_eq!(outcome.restores, 0, "{}: join restored", s.id);
                assert!(outcome.grows >= 1, "{}: join grew nothing", s.id);
            }
            // Host losses must genuinely kill and restore.
            _ => assert!(
                outcome.restores >= 1 || outcome.fell_back,
                "{}: loss script never exercised the protocol",
                s.id
            ),
        }
    }
}

#[test]
fn killed_width1_run_replays_bitwise() {
    // The tentpole claim at its strongest: a threaded run killed
    // mid-training by a host loss, restored from its checkpoint, and
    // replanned over the survivors trains *bitwise* identical parameters
    // to a run that was never interrupted.
    let s = loss_scenario(ConformanceStrategy::TrDpu);
    let outcome = run_scenario(&s, &ToleranceBook::gate_default());
    assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
    assert!(
        outcome.restores >= 1 || outcome.fell_back,
        "{}: the kill never fired",
        s.id
    );
    assert_eq!(outcome.exec_tolerance, 0.0, "width-1 asserts bitwise");
    assert_eq!(
        outcome.max_param_diff, 0.0,
        "{}: recovered width-1 run must replay bitwise",
        s.id
    );
}

#[test]
fn killed_batch_split_run_stays_within_the_recovery_budget() {
    let s = loss_scenario(ConformanceStrategy::Hybrid);
    let outcome = run_scenario(&s, &ToleranceBook::gate_default());
    assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
    assert!(
        outcome.exec_tolerance > 0.0,
        "batch-split incumbents carry the loss-parity budget"
    );
}

/// Shared fixture for the elastic-growth tests: 4 blocks, 2 logical
/// devices, serial kernels, decoupled updates, width-1 plans throughout
/// (so replay equivalence is bitwise), trained for `steps` steps.
fn growth_fixture(steps: usize) -> (ExecSetup, Workload) {
    let scenario = Scenario {
        exec_steps: steps,
        ..Scenario::new(
            "growth".into(),
            (4, false, false, SimWorkload::Synthetic),
            (2, 8),
            ConformanceStrategy::TrDpu,
        )
    };
    let setup = scenario.exec_setup(8).expect("4 blocks fit on 2 ranks");
    (setup, Workload::synthetic(4, false))
}

#[test]
fn join_scripts_complete_end_to_end_bitwise() {
    // The device-thread registry's claim: this exact script used to be
    // refused as a bad config ("the executor spawns a fixed thread set").
    // With the device-thread registry the host is simply absent at step
    // 0, the first epoch runs short-handed, and the join grows the
    // member set at its round boundary — training bitwise the same
    // model as a never-elastic run.
    let script = FaultScript {
        events: vec![FaultEvent::HostJoin {
            rank: 1,
            at_step: 3,
        }],
    };
    let ((teacher, student, data, func), workload) = growth_fixture(4);
    let runner = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy::default(),
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    let report = runner
        .run(&teacher, &student, &data, &func)
        .expect("a join script must now complete end to end");
    assert_eq!(report.grows, 1, "the join must grow the member set");
    assert_eq!(report.restores, 0, "growth must not consume restore budget");
    assert!(!report.fell_back);
    assert_eq!(report.final_devices, 2, "the joined rank must be a member");
    let golden = reference::run(&teacher, &student, &data, &func).unwrap();
    assert_eq!(
        report.outcome.max_param_diff(&golden),
        0.0,
        "width-1 growth must replay bitwise"
    );
}

#[test]
fn killed_rank_rejoining_two_rounds_later_replays_bitwise() {
    // Loss + rejoin compound: rank 1 dies at step 3 and its hardware
    // comes back two rounds later under the fresh logical rank 2 (a
    // cancelled worker cannot restart, so rejoin is always a fresh id).
    // The run shrinks to one device, grows back to two, and still
    // trains bitwise the uninterrupted model.
    let script = FaultScript {
        events: vec![
            FaultEvent::HostLoss {
                rank: 1,
                at_step: 3,
            },
            FaultEvent::HostJoin {
                rank: 2,
                at_step: 5,
            },
        ],
    };
    let ((teacher, student, data, func), workload) = growth_fixture(8);
    let runner = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy::default(),
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    let report = runner
        .run(&teacher, &student, &data, &func)
        .expect("loss + rejoin must complete end to end");
    assert!(report.restores >= 1, "the kill must fire");
    assert_eq!(report.grows, 1, "the rejoin must grow the member set");
    assert!(!report.fell_back);
    assert_eq!(
        report.final_devices, 2,
        "the rejoined rank must be a member"
    );
    let golden = reference::run(&teacher, &student, &data, &func).unwrap();
    assert_eq!(
        report.outcome.max_param_diff(&golden),
        0.0,
        "width-1 loss + rejoin must replay bitwise"
    );
}

#[test]
fn a_loss_and_a_join_at_the_same_step_grow_once_and_restore_nothing() {
    // The epoch ends at the join, so the loss at the same step never fires
    // in it: the replan at that round drops the lost rank and admits the
    // joiner in one pass, and the run resumes from the boundary checkpoint.
    let script = FaultScript {
        events: vec![
            FaultEvent::HostLoss {
                rank: 0,
                at_step: 3,
            },
            FaultEvent::HostJoin {
                rank: 2,
                at_step: 3,
            },
        ],
    };
    let report = run_growth(&script, 6).expect("a same-step loss and join run");
    assert_eq!(report.grows, 1, "the join grows the member set once");
    assert_eq!(report.restores, 0, "the loss is resolved by the growth");
    assert_eq!(report.resumed_rounds, vec![3], "resumed at the boundary");
    assert!(!report.fell_back);
    assert_eq!(report.final_devices, 2, "one rank lost, one admitted");
    let ((teacher, student, data, func), _) = growth_fixture(6);
    let golden = reference::run(&teacher, &student, &data, &func).unwrap();
    assert_eq!(
        report.outcome.max_param_diff(&golden),
        0.0,
        "width-1 growth must replay bitwise"
    );
}

#[test]
fn zero_restore_budget_surfaces_recovery_exhausted() {
    // A host loss with no restores allowed and no reference fallback has
    // nowhere to go: the run must end in the structured exhaustion error,
    // never a hang or a silent pass.
    let ((teacher, student, data, func), workload) = growth_fixture(8);
    let script = FaultScript {
        events: vec![FaultEvent::HostLoss {
            rank: 1,
            at_step: 4,
        }],
    };
    let runner = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy {
            max_restores: 0,
            reference_fallback: false,
            ..RecoveryPolicy::default()
        },
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    let result = runner.run(&teacher, &student, &data, &func);
    assert!(
        matches!(result, Err(ExecError::RecoveryExhausted { attempts: 0 })),
        "expected RecoveryExhausted {{ attempts: 0 }}, got {:?}",
        result.map(|r| r.restores)
    );
}

#[test]
fn stale_plan_checkpoint_fails_the_rejoin_loudly() {
    // A checkpoint from a foreign plan, planted at a round that wins the
    // sink's round-max race: the join's boundary restore must refuse it
    // with the structured mismatch, not resume another run's trajectory.
    let ((teacher, student, data, func), workload) = growth_fixture(6);
    let sink = Arc::new(MemorySink::default());
    sink.store(&Checkpoint {
        round: 99,
        data_cursor: 99 * 8,
        batch: 8,
        lr: 0.05,
        momentum: 0.9,
        plan_fingerprint: "9x9:0000000000000bad".to_string(),
        blocks: vec![],
    })
    .expect("the stale checkpoint plants");
    let script = FaultScript {
        events: vec![FaultEvent::HostJoin {
            rank: 1,
            at_step: 3,
        }],
    };
    let runner = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy::default(),
        sink,
        trace: None,
    };
    let result = runner.run(&teacher, &student, &data, &func);
    assert!(
        matches!(
            &result,
            Err(ExecError::Checkpoint(CheckpointError::ForeignPlan { round: 99, found, .. }))
                if found == "9x9:0000000000000bad"
        ),
        "expected a plan fingerprint mismatch, got {:?}",
        result.map(|r| r.grows)
    );
}

#[test]
fn the_fallback_refuses_a_foreign_checkpoint_too() {
    // The reference fallback restores through the same lineage check as a
    // replan: a well-formed checkpoint of another plan, at a round that
    // wins the sink's round-max race, is refused rather than resumed.
    let ((teacher, student, data, func), workload) = growth_fixture(8);
    let own = Arc::new(MemorySink::default());
    let hooks = RunHooks {
        checkpoint: Some((CheckpointPolicy::every(6), own.clone())),
        ..RunHooks::default()
    };
    threaded::run_hooked(&teacher, &student, &data, &func, &hooks).unwrap();
    let foreign = Checkpoint {
        plan_fingerprint: "9x9:0000000000000bad".to_string(),
        ..own
            .latest()
            .unwrap()
            .expect("an 8-step run checkpoints at round 6")
    };
    let sink = Arc::new(MemorySink::default());
    sink.store(&foreign).unwrap();
    let script = FaultScript {
        events: vec![FaultEvent::HostLoss {
            rank: 1,
            at_step: 7,
        }],
    };
    let runner = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy {
            max_restores: 0,
            ..RecoveryPolicy::default()
        },
        sink,
        trace: None,
    };
    let result = runner.run(&teacher, &student, &data, &func);
    assert!(
        matches!(
            &result,
            Err(ExecError::Checkpoint(CheckpointError::ForeignPlan {
                round: 6,
                ..
            }))
        ),
        "expected the fallback to refuse the foreign plan, got {:?}",
        result.map(|r| (r.fell_back, r.resumed_rounds))
    );
}

/// Runs `script` on the 2-device growth fixture for `steps` steps.
fn run_growth(script: &FaultScript, steps: usize) -> Result<RecoveryReport, ExecError> {
    let ((teacher, student, data, func), workload) = growth_fixture(steps);
    let runner = RecoveryRunner {
        workload: &workload,
        script,
        policy: RecoveryPolicy::default(),
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    runner.run(&teacher, &student, &data, &func)
}

/// Asserts `report` trained the 4-step fixture's model bitwise on
/// `devices` members with no restore, growth or fallback.
fn assert_planned_at_step_zero(report: &RecoveryReport, devices: usize) {
    assert_eq!(report.restores, 0, "nothing ran, so nothing is restored");
    assert_eq!(report.grows, 0, "step 0 is planning time, not growth");
    assert!(report.resumed_rounds.is_empty());
    assert!(!report.fell_back);
    assert_eq!(report.final_devices, devices);
    let ((teacher, student, data, func), _) = growth_fixture(4);
    let golden = reference::run(&teacher, &student, &data, &func).unwrap();
    assert_eq!(
        report.outcome.max_param_diff(&golden),
        0.0,
        "width-1 runs replay bitwise"
    );
}

#[test]
fn a_step_zero_join_is_a_member_from_the_start() {
    let script = FaultScript {
        events: vec![FaultEvent::HostJoin {
            rank: 2,
            at_step: 0,
        }],
    };
    let report = run_growth(&script, 4).expect("a step-0 join runs");
    assert_planned_at_step_zero(&report, 3);
}

#[test]
fn a_rank_lost_at_step_zero_never_starts() {
    let script = FaultScript {
        events: vec![FaultEvent::HostLoss {
            rank: 1,
            at_step: 0,
        }],
    };
    let report = run_growth(&script, 4).expect("a step-0 loss runs");
    assert_planned_at_step_zero(&report, 1);
}

#[test]
fn a_repeated_join_is_refused_alike_everywhere() {
    // A rank joins once: a second join of rank 2 has one meaning, refusal,
    // whichever reader meets the script first (rank 2 is in range on the
    // 3-rank server and for the 2-device run's one joiner).
    let join = |at_step| FaultEvent::HostJoin { rank: 2, at_step };
    let script = FaultScript {
        events: vec![join(3), join(5)],
    };
    let hw = HardwareConfig::a6000_server(3);
    let why = simulate_faulted(&TaskGraph::new(3), &script).unwrap_err();
    assert!(
        matches!(&why, FaultViolation::InvalidScript(r) if r.contains("rank 2 joins twice")),
        "{why}"
    );
    assert_eq!(DegradedServer::at_step(&hw, &script, 0).unwrap_err(), why);
    let workload = Workload::synthetic(4, false);
    let lowering = Lowering::new(&workload, &hw, 256, 8);
    let plan = StagePlan::contiguous(4, 3).unwrap();
    let lowered = lower_faulted(&lowering, &plan, &script, true).unwrap_err();
    assert_eq!(lowered, why.to_string());
    match run_growth(&script, 4) {
        Err(ExecError::Spec(SpecError::FaultScript(v))) => assert_eq!(v, why),
        other => panic!(
            "expected the script refused, got {:?}",
            other.map(|r| r.grows)
        ),
    }
}

#[test]
fn member_sets_no_plan_runs_on_are_refused() {
    // Three joiners at step 0 make five members for four blocks: the
    // searched plan splits the batch, which a width-1 incumbent refuses,
    // and the contiguous plan cannot place four blocks on five devices.
    let join = |rank| FaultEvent::HostJoin { rank, at_step: 0 };
    let crowd = FaultScript {
        events: vec![join(2), join(3), join(4)],
    };
    match run_growth(&crowd, 4) {
        Err(ExecError::Spec(SpecError::Replan {
            step: 0,
            members: 5,
            why,
        })) => assert!(matches!(*why, SpecError::Plan(_)), "{why}"),
        other => panic!("expected no plan, got {:?}", other.map(|r| r.grows)),
    }
    // Losing every rank leaves nobody to replan over.
    let loss = |rank| FaultEvent::HostLoss { rank, at_step: 2 };
    let wipeout = FaultScript {
        events: vec![loss(0), loss(1)],
    };
    match run_growth(&wipeout, 4) {
        Err(ExecError::Spec(SpecError::FaultScript(FaultViolation::InvalidScript(why)))) => {
            assert_eq!(why, "no rank survives at step 2")
        }
        other => panic!("expected no survivor, got {:?}", other.map(|r| r.restores)),
    }
}
