//! Derive-level round-trip guarantees for the persisted report types: a
//! `RunReport` / `StagePlan` serialized to JSON and deserialized back
//! reproduces the original value exactly (all times are integer
//! nanoseconds, so equality is bitwise, not approximate).

use pipebd_core::{ExperimentBuilder, RunReport, Strategy};
use pipebd_json::Serialize;
use pipebd_models::Workload;
use pipebd_sched::{enumerate_hybrid_plans, StagePlan};
use pipebd_sim::HardwareConfig;

fn real_report(strategy: Strategy) -> RunReport {
    ExperimentBuilder::new(Workload::synthetic(6, false))
        .hardware(HardwareConfig::a6000_server(4))
        .batch_size(64)
        .sim_rounds(4)
        .build()
        .expect("valid experiment")
        .run(strategy)
        .expect("strategy lowers")
}

#[test]
fn run_report_roundtrips_exactly_for_every_strategy() {
    for strategy in Strategy::ALL {
        let report = real_report(strategy);
        let text = pipebd_json::to_string(&report).expect("serializes");
        let back: RunReport = pipebd_json::from_str(&text).expect("deserializes");
        assert_eq!(back, report, "round-trip drift for {strategy}");

        // Pretty text round-trips identically too.
        let pretty = pipebd_json::to_string_pretty(&report).expect("serializes pretty");
        let back: RunReport = pipebd_json::from_str(&pretty).expect("deserializes pretty");
        assert_eq!(back, report, "pretty round-trip drift for {strategy}");
    }
}

#[test]
fn run_report_json_shape_is_externally_tagged_and_field_named() {
    let report = real_report(Strategy::PipeBd);
    let value = report.to_json();
    // Spot-check the concrete JSON layout the artifact plane relies on.
    assert_eq!(
        value.get("strategy").and_then(|v| v.as_str()),
        Some("PipeBd")
    );
    assert!(
        value.get("executor").is_none(),
        "a report names no executor"
    );
    assert_eq!(value.get("global_batch").and_then(|v| v.as_u64()), Some(64));
    assert!(value.get("plan").is_some_and(|p| p.get("stages").is_some()));
    // Value-level round-trip as well: text -> Value -> text.
    let text = pipebd_json::to_string(&report).expect("to_string");
    assert_eq!(pipebd_json::parse(&text).expect("parses"), value);
}

#[test]
fn stage_plans_roundtrip_across_the_whole_enumeration() {
    for plan in enumerate_hybrid_plans(6, 4) {
        let text = pipebd_json::to_string(&plan).expect("serializes");
        let back: StagePlan = pipebd_json::from_str(&text).expect("deserializes");
        assert_eq!(back, plan);
        back.validate().expect("reloaded plan still valid");
    }
}

#[test]
fn unknown_fields_are_skipped_missing_fields_error() {
    let plan = StagePlan::contiguous(6, 4).expect("plan");
    let text = pipebd_json::to_string(&plan).expect("serializes");
    // Splice an unknown field into the object: forward-compatible loads.
    let with_extra = text.replacen('{', "{\"future_field\":[1,2,{}],", 1);
    let back: StagePlan = pipebd_json::from_str(&with_extra).expect("unknown field skipped");
    assert_eq!(back, plan);
    // Dropping a required field is an error, not a default.
    let without = text.replace("\"num_blocks\":", "\"nom_blocks\":");
    let err = pipebd_json::from_str::<StagePlan>(&without).unwrap_err();
    assert!(
        err.to_string().contains("missing field"),
        "unexpected error: {err}"
    );
}
