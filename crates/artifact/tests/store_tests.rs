//! Store-level guarantees: envelopes round-trip bit-for-bit, schema and
//! version drift is rejected, and persisted cost profiles replay into the
//! scheduler's `ProfileTable` unchanged.

use std::path::PathBuf;

use pipebd_artifact::{ArtifactError, ArtifactStore, CostProfile, RunSet};
use pipebd_core::{ExperimentBuilder, RunReport, Strategy};
use pipebd_models::Workload;
use pipebd_sched::{CostModel, Profiler, StagePlan};
use pipebd_sim::{GpuModel, HardwareConfig};

/// A unique, throwaway store root per test.
fn scratch_store(tag: &str) -> ArtifactStore {
    let root = std::env::temp_dir().join(format!("pipebd_artifact_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    ArtifactStore::at(root)
}

fn report(strategy: Strategy) -> RunReport {
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
fn run_report_persists_and_reloads_exactly() {
    let store = scratch_store("report");
    let original = report(Strategy::PipeBd);
    let path = store.save("pipebd_run", &original).expect("save");
    assert!(path.exists());
    let loaded: RunReport = store.load("pipebd_run").expect("load");
    assert_eq!(loaded, original);
}

#[test]
fn envelope_meta_is_stamped() {
    let store = scratch_store("meta");
    let plan = StagePlan::contiguous(6, 4).expect("plan");
    store.save("plan", &plan).expect("save");
    let (meta, loaded): (_, StagePlan) = store.load_with_meta("plan").expect("load");
    assert_eq!(meta.schema, "pipebd.schedule_plan");
    assert_eq!(meta.version, 1);
    assert_eq!(meta.name, "plan");
    assert!(meta.created_unix_s > 0);
    assert_eq!(loaded, plan);
}

#[test]
fn schema_and_version_drift_are_rejected() {
    let store = scratch_store("drift");
    let plan = StagePlan::contiguous(6, 4).expect("plan");
    store.save("plan", &plan).expect("save");
    // Loading under the wrong payload type fails on the schema tag.
    match store.load::<RunReport>("plan") {
        Err(ArtifactError::Schema { found, expected }) => {
            assert_eq!(found, "pipebd.schedule_plan");
            assert_eq!(expected, "pipebd.run_report");
        }
        other => panic!("expected schema error, got {other:?}"),
    }
    // Tampering with the version tag fails on the version check.
    let path = store.path_of("plan");
    let text = std::fs::read_to_string(&path).expect("read");
    std::fs::write(&path, text.replace("\"version\": 1", "\"version\": 999")).expect("write");
    match store.load::<StagePlan>("plan") {
        Err(ArtifactError::Version { found, expected }) => {
            assert_eq!(found, 999);
            assert_eq!(expected, 1);
        }
        other => panic!("expected version error, got {other:?}"),
    }
    // A gutted envelope is malformed.
    std::fs::write(&path, "{\"payload\": {}}").expect("write");
    assert!(matches!(
        store.load::<StagePlan>("plan"),
        Err(ArtifactError::Malformed(_))
    ));
}

#[test]
fn listing_is_sorted_and_tolerates_missing_root() {
    let store = scratch_store("list");
    assert_eq!(store.list().expect("empty list"), Vec::<String>::new());
    let plan = StagePlan::contiguous(6, 4).expect("plan");
    store.save("zeta", &plan).expect("save");
    store.save("alpha", &plan).expect("save");
    assert_eq!(store.list().expect("list"), vec!["alpha", "zeta"]);
    assert_eq!(store.root(), &PathBuf::from(store.root()));
}

#[test]
fn cost_profile_replays_into_the_scheduler() {
    let store = scratch_store("profile");
    let workload = Workload::nas_cifar10();
    let gpu = GpuModel::a6000();
    let table = Profiler::new(CostModel::new(gpu.clone())).profile(&workload.model, 256, 4);
    let profile = CostProfile::from_table(
        workload.label(),
        gpu.name.clone(),
        256,
        4,
        &workload.model,
        &table,
    );
    store.save("profile", &profile).expect("save");
    let loaded: CostProfile = store.load("profile").expect("load");
    assert_eq!(loaded, profile);
    // The rebuilt table is indistinguishable from the original.
    let rebuilt = loaded.to_table().expect("rebuild");
    assert_eq!(rebuilt, table);
    // Malformed rows are rejected.
    let mut broken = profile.clone();
    broken.blocks[0].teacher_ns.pop();
    assert!(broken.to_table().is_err());
}

#[test]
fn run_set_holds_a_figure_sweep() {
    let store = scratch_store("runset");
    let set = RunSet {
        figure: "fig_test".into(),
        description: "synthetic sweep".into(),
        reports: vec![report(Strategy::DataParallel), report(Strategy::PipeBd)],
    };
    store.save("fig_test", &set).expect("save");
    let loaded: RunSet = store.load("fig_test").expect("load");
    assert_eq!(loaded, set);
}
