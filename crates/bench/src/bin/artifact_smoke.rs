//! CI gate for the artifact plane: re-parses every JSON artifact under
//! the store and **fails** (exit 1) on schema drift.
//!
//! The lane runs a figure bin first (CI uses `fig2_motivation`), then this
//! binary, which asserts that
//!
//! 1. the store is non-empty and the expected figure artifact exists,
//! 2. every file is a well-formed envelope (`schema`/`version`/`name`/
//!    `created_unix_s`/`payload`),
//! 3. every *known* schema re-deserializes into its typed payload — so a
//!    payload-struct change that forgets the schema version bump, or a
//!    serializer change that alters the JSON layout, fails here rather
//!    than silently producing unreadable artifacts,
//! 4. no file carries an *unknown* schema (a new payload type must be
//!    registered in this gate to ship).
//!
//! Run with: `cargo run --release -p pipebd_bench --bin artifact_smoke`

use pipebd_artifact::{
    ArtifactError, ArtifactMeta, ArtifactPayload, ArtifactStore, CostProfile, RunSet, TraceArtifact,
};
use pipebd_core::RunReport;
use pipebd_json::Value;
use pipebd_sched::StagePlan;
use pipebd_testkit::{ConformanceReport, ScenarioSet};

/// Deserializes an already-parsed payload tree as `T`, enforcing the
/// schema/version tags (same checks as `ArtifactStore::load`, without
/// re-reading and re-parsing the file).
fn typed<T: ArtifactPayload>(meta: &ArtifactMeta, payload: &Value) -> Result<T, ArtifactError> {
    if meta.schema != T::SCHEMA {
        return Err(ArtifactError::Schema {
            found: meta.schema.clone(),
            expected: T::SCHEMA,
        });
    }
    if meta.version != u64::from(T::VERSION) {
        return Err(ArtifactError::Version {
            found: meta.version,
            expected: T::VERSION,
        });
    }
    Ok(T::from_json(payload)?)
}

/// Revalidates one artifact under its registered payload type, returning
/// a short payload summary for the report line.
fn revalidate(meta: &ArtifactMeta, payload: &Value) -> Result<String, ArtifactError> {
    match meta.schema.as_str() {
        RunSet::SCHEMA => {
            let set: RunSet = typed(meta, payload)?;
            Ok(format!("{} reports ({})", set.reports.len(), set.figure))
        }
        RunReport::SCHEMA => {
            let report: RunReport = typed(meta, payload)?;
            Ok(format!("{} on {}", report.strategy, report.hardware))
        }
        StagePlan::SCHEMA => {
            let plan: StagePlan = typed(meta, payload)?;
            plan.validate()
                .map_err(|e| ArtifactError::Malformed(e.to_string()))?;
            Ok(format!("plan {plan}"))
        }
        CostProfile::SCHEMA => {
            let profile: CostProfile = typed(meta, payload)?;
            let table = profile.to_table().map_err(ArtifactError::Malformed)?;
            Ok(format!(
                "{} blocks x {} batch sizes ({})",
                table.num_blocks(),
                table.batch_sizes().len(),
                profile.workload
            ))
        }
        ScenarioSet::SCHEMA => {
            let set: ScenarioSet = typed(meta, payload)?;
            // Persisted scenarios must still be runnable (plans lay out).
            for s in &set.scenarios {
                s.exec_plan()
                    .map_err(|e| ArtifactError::Malformed(format!("{}: {e}", s.id)))?;
            }
            Ok(format!("{} scenarios", set.scenarios.len()))
        }
        ConformanceReport::SCHEMA => {
            let report: ConformanceReport = typed(meta, payload)?;
            Ok(format!(
                "{} scenarios, {} failures",
                report.scenarios, report.failures
            ))
        }
        TraceArtifact::SCHEMA => {
            let trace: TraceArtifact = typed(meta, payload)?;
            Ok(format!(
                "{} ({}): {} spans, bubble {:.3}",
                trace.scenario, trace.mode, trace.summary.spans, trace.summary.bubble_ratio
            ))
        }
        other => Err(ArtifactError::Malformed(format!(
            "unknown schema `{other}` — register the payload type in artifact_smoke"
        ))),
    }
}

fn main() {
    let store = ArtifactStore::from_env();
    pipebd_bench::header(
        "Artifact smoke — re-parse every persisted artifact",
        &format!("store: {}", store.root().display()),
    );

    let names = store.list().expect("artifact store listable");
    if names.is_empty() {
        eprintln!(
            "artifact smoke FAILED: no artifacts under {} (run a figure bin first)",
            store.root().display()
        );
        std::process::exit(1);
    }
    if !names.iter().any(|n| n == "fig2_motivation") {
        eprintln!("artifact smoke FAILED: expected `fig2_motivation` artifact is missing");
        std::process::exit(1);
    }

    let mut failures = 0usize;
    for name in &names {
        let outcome = store
            .load_raw(name)
            .and_then(|(meta, payload)| revalidate(&meta, &payload).map(|s| (meta, s)));
        match outcome {
            Ok((meta, summary)) => {
                println!(
                    "  ok    {name:<28} {:<24} v{} {summary}",
                    meta.schema, meta.version
                );
            }
            Err(e) => {
                println!("  FAIL  {name:<28} {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!(
            "artifact smoke FAILED: {failures} of {} artifacts drifted",
            names.len()
        );
        std::process::exit(1);
    }
    println!(
        "artifact smoke passed: {} artifacts re-parsed cleanly",
        names.len()
    );
}
