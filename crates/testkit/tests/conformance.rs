//! The conformance matrix, run in-test.
//!
//! Kernel policy discipline: these tests never touch the process-global
//! kernel policy — they run the scenarios whose declared policy matches
//! the ambient one (`PIPEBD_KERNEL_POLICY`), so the default CI leg covers
//! the blocked half of the matrix and the `PIPEBD_KERNEL_POLICY=naive`
//! leg covers the naive half, with no cross-test races. The full
//! both-policy sweep runs in the release-mode `regression_gate` CI lane.
//!
//! The default test samples the matrix (debug-mode budget); the exhaustive
//! ambient-policy sweep is `#[ignore]`d for on-demand runs:
//! `cargo test -p pipebd_testkit --test conformance -- --ignored`.

use pipebd_artifact::ArtifactStore;
use pipebd_testkit::{
    enumerate, run_scenario, ConformanceReport, FaultClass, RatioBudget, Scenario, ScenarioSet,
    SimWorkload, ToleranceBook,
};

/// Scenarios whose declared kernel policy matches the ambient one.
fn ambient_scenarios() -> Vec<Scenario> {
    let ambient = pipebd_tensor::kernel_policy().to_string();
    enumerate()
        .into_iter()
        .filter(|s| s.kernel_policy == ambient)
        .collect()
}

fn assert_all_pass(scenarios: impl Iterator<Item = Scenario>) {
    let book = ToleranceBook::gate_default();
    let mut ran = 0usize;
    for s in scenarios {
        let outcome = run_scenario(&s, &book);
        assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
        ran += 1;
    }
    assert!(ran > 0, "no scenarios matched the ambient kernel policy");
}

#[test]
fn sampled_matrix_conforms_under_ambient_policy() {
    // Every 25th scenario: cheap enough for the debug-mode tier-1 run,
    // still touching every strategy — and the fault slice at the end of
    // the ordering — over the whole matrix.
    assert_all_pass(ambient_scenarios().into_iter().step_by(25));
}

/// The cheapest workload's replanned fault scenario for `class`.
fn replanned_fault_scenario(class: FaultClass) -> Scenario {
    ambient_scenarios()
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
    // to end through the executors). Pool scenarios declare the blocked
    // policy, so the naive CI leg legitimately has none.
    let pooled: Vec<Scenario> = ambient_scenarios()
        .into_iter()
        .filter(|s| s.pool_size > 1 && s.strategy == pipebd_testkit::ConformanceStrategy::TrDpu)
        .collect();
    if pooled.is_empty() {
        return;
    }
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
#[ignore = "exhaustive ambient-policy sweep (~minutes in debug); the release-mode regression_gate CI lane covers the full matrix"]
fn full_matrix_conforms_under_ambient_policy() {
    assert_all_pass(ambient_scenarios().into_iter());
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
    let ambient = pipebd_tensor::kernel_policy().to_string();
    let scenario = set
        .scenarios
        .iter()
        .find(|s| s.blocks == 3 && s.ranks == 2 && s.kernel_policy == ambient)
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
    let all = enumerate();
    assert!(
        all.len() >= 400,
        "conformance matrix shrank to {} scenarios",
        all.len()
    );
    // Both CI policy legs must see a non-trivial share of the matrix.
    let naive = all.iter().filter(|s| s.kernel_policy == "naive").count();
    let blocked = all.iter().filter(|s| s.kernel_policy == "blocked").count();
    assert!(naive >= 20, "naive leg covers only {naive} scenarios");
    assert!(blocked >= 20, "blocked leg covers only {blocked} scenarios");
    // The fault and batch-norm slices must stay substantial.
    let faults = all.iter().filter(|s| s.fault.is_some()).count();
    assert!(faults >= 150, "fault slice shrank to {faults} scenarios");
    let bn = all.iter().filter(|s| s.batch_norm).count();
    assert!(bn >= 40, "batch-norm slice shrank to {bn} scenarios");
    let pooled = all.iter().filter(|s| s.pool_size > 1).count();
    assert!(pooled >= 30, "pool slice shrank to {pooled} scenarios");
}
