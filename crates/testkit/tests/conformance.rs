//! The conformance matrix, run in-test.
//!
//! The default test samples the matrix (debug-mode budget); the exhaustive
//! sweep runs in the release-mode `regression_gate` CI lane and is
//! `#[ignore]`d here for on-demand runs:
//! `cargo test -p pipebd_testkit --test conformance -- --ignored`.

use pipebd_artifact::ArtifactStore;
use pipebd_testkit::{
    enumerate, run_scenario, ConformanceReport, FaultClass, RatioBudget, Scenario, ScenarioSet,
    SimWorkload, ToleranceBook,
};

fn assert_all_pass(scenarios: impl Iterator<Item = Scenario>) {
    let book = ToleranceBook::gate_default();
    let mut ran = 0usize;
    for s in scenarios {
        let outcome = run_scenario(&s, &book);
        assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
        ran += 1;
    }
    assert!(ran > 0, "nothing ran");
}

#[test]
fn sampled_matrix_conforms() {
    // Every 25th scenario: cheap enough for the debug-mode tier-1 run,
    // still touching every strategy — and the fault slice at the end of
    // the ordering — over the whole matrix.
    assert_all_pass(enumerate().into_iter().step_by(25));
}

/// The cheapest workload's replanned fault scenario for `class`.
fn replanned_fault_scenario(class: FaultClass) -> Scenario {
    enumerate()
        .into_iter()
        .find(|s| {
            s.sim_workload == SimWorkload::Synthetic
                && s.ranks == 4
                && s.fault
                    .as_ref()
                    .is_some_and(|f| f.class == class && f.replan)
        })
        .unwrap_or_else(|| panic!("no replanned {class:?} scenario at 4 ranks"))
}

#[test]
fn one_fault_scenario_per_class_conforms() {
    // The debug-mode fault smoke: one replanned scenario per fault class,
    // so tier-1 exercises the whole splice path even if sampling were to
    // shift.
    assert_all_pass(FaultClass::ALL.into_iter().map(replanned_fault_scenario));
}

#[test]
fn sabotaged_slowdown_budget_fails_and_names_the_class() {
    // The fault budgets must be able to fire: the scenario that passes the
    // declared book fails one whose slowdown window no real period meets,
    // and the failure says which class's budget it broke.
    let s = replanned_fault_scenario(FaultClass::Slowdown);
    let book = ToleranceBook::gate_default();
    let honest = run_scenario(&s, &book);
    assert!(honest.pass, "{}: {}", honest.id, honest.detail);
    let sabotaged = ToleranceBook {
        fault_slowdown: RatioBudget { lo: 0.0, hi: 1e-3 },
        ..book
    };
    let fired = run_scenario(&s, &sabotaged);
    assert!(!fired.pass, "{}: passed an unsatisfiable budget", fired.id);
    assert!(
        fired.detail.contains("slowdown"),
        "{}: detail does not name the fault class: {}",
        fired.id,
        fired.detail
    );
}

#[test]
fn pooled_bitwise_scenarios_conform() {
    // The pool slice's strongest claim, run for real in tier-1: width-1
    // plans under a genuine kernel-parallelism budget must reproduce the
    // serial reference *bitwise* (the tensor determinism contract, end
    // to end through the executors).
    let pooled: Vec<Scenario> = enumerate()
        .into_iter()
        .filter(|s| s.pool_size > 1 && s.strategy == pipebd_testkit::ConformanceStrategy::TrDpu)
        .collect();
    assert!(!pooled.is_empty(), "the pool slice has no TR+DPU scenario");
    let book = ToleranceBook::gate_default();
    for s in pooled {
        let outcome = run_scenario(&s, &book);
        assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
        assert_eq!(
            outcome.max_param_diff, 0.0,
            "{}: pooled width-1 plan must be bitwise",
            outcome.id
        );
    }
}

#[test]
#[ignore = "exhaustive sweep (~minutes in debug); the release-mode regression_gate CI lane covers the full matrix"]
fn full_matrix_conforms() {
    assert_all_pass(enumerate().into_iter());
}

#[test]
fn scenario_artifacts_roundtrip_through_the_store() {
    let root = std::env::temp_dir().join(format!("pipebd_testkit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ArtifactStore::at(root);

    let set = ScenarioSet {
        description: "roundtrip".into(),
        scenarios: enumerate(),
    };
    store.save("CONFORMANCE_scenarios", &set).expect("save set");
    let back: ScenarioSet = store.load("CONFORMANCE_scenarios").expect("load set");
    assert_eq!(back, set);

    // One genuinely-run outcome survives persistence bit-for-bit.
    let book = ToleranceBook::gate_default();
    let scenario = set
        .scenarios
        .iter()
        .find(|s| s.blocks == 3 && s.ranks == 2)
        .expect("small scenario exists");
    let outcome = run_scenario(scenario, &book);
    let report = ConformanceReport {
        scenarios: 1,
        failures: usize::from(!outcome.pass),
        outcomes: vec![outcome],
    };
    store
        .save("CONFORMANCE_report", &report)
        .expect("save report");
    let back: ConformanceReport = store.load("CONFORMANCE_report").expect("load report");
    assert_eq!(back, report);
}

#[test]
fn matrix_meets_the_declared_floor() {
    // Each slice's size, pinned: a slice cannot shrink (or grow) without
    // this test saying which one did.
    let all = enumerate();
    let count = |p: &dyn Fn(&Scenario) -> bool| all.iter().filter(|s| p(s)).count();
    let plain = |s: &Scenario| s.fault.is_none() && !s.batch_norm && s.pool_size == 1;
    let synthetic = |s: &Scenario| s.sim_workload == SimWorkload::Synthetic;
    let recovery = |s: &Scenario| s.fault.as_ref().is_some_and(|f| f.exec_recovery);
    assert_eq!(count(&|s| plain(s) && synthetic(s)), 64, "synthetic slice");
    assert_eq!(count(&|s| plain(s) && !synthetic(s)), 30, "paper slice");
    assert_eq!(count(&|s| s.batch_norm), 57, "batch-norm slice");
    assert_eq!(count(&|s| s.pool_size > 1), 38, "pool slice");
    assert_eq!(
        count(&|s| s.fault.is_some() && !recovery(s)),
        219,
        "fault slice"
    );
    // The rejoin slice is the executor-recovery scenarios that admit a host.
    let joins = |s: &Scenario| {
        let events = &s.fault.as_ref().unwrap().script.events;
        events
            .iter()
            .any(|e| matches!(e, pipebd_sim::FaultEvent::HostJoin { .. }))
    };
    assert_eq!(count(&|s| recovery(s) && !joins(s)), 9, "recovery slice");
    assert_eq!(count(&|s| recovery(s) && joins(s)), 8, "rejoin slice");
    assert_eq!(all.len(), 425);
}
