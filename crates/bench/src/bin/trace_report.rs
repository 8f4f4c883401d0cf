//! The trace plane's harness binary: run the instrumented acceptance
//! scenarios, export their Chrome `trace_event` timelines, and persist
//! the `pipebd.trace` artifacts.
//!
//! For each trace scenario (TR+DPU, hybrid, AHD — the strategies the
//! paper's steady-state figures rest on) this bin:
//!
//! 1. runs the threaded executor fully instrumented
//!    ([`pipebd_testkit::run_trace_scenario`]) and judges the measured
//!    period and bottleneck stage against the analytic estimator and the
//!    event simulator on the run's own measured profile;
//! 2. writes the combined executor + simulator Chrome trace
//!    (`<id>.chrome.json` under the artifact root — open at
//!    <https://ui.perfetto.dev>, see `EXPERIMENTS.md`) and re-parses it
//!    through `pipebd_json` so a malformed export fails loudly;
//! 3. persists the run as a schema-versioned [`TraceArtifact`]
//!    (`pipebd.trace`) and round-trips it through the typed store,
//!    failing on any envelope drift.
//!
//! Exporting a trace is the whole point, so the harness always instruments
//! in full mode (the off-mode overhead contract — no collector, no
//! recording — is proved by the testkit's bitwise differential instead).
//!
//! Exit 1 on any differential failure, dropped span, export parse
//! failure, or artifact drift. Run with:
//! `cargo run --release -p pipebd_bench --bin trace_report`

use pipebd_artifact::{ArtifactPayload, ArtifactStore, TraceArtifact};
use pipebd_json as json;
use pipebd_testkit::{run_trace_scenario, trace_scenarios, ToleranceBook, TraceRun};
use pipebd_trace::chrome;

/// Exports the combined Chrome trace and returns the number of
/// `traceEvents` it holds after a parse round-trip.
fn export_chrome(store: &ArtifactStore, run: &TraceRun) -> Result<usize, String> {
    let value = chrome::combined_trace(&run.report, &run.graph, &run.sim_run);
    let text = value.to_string();
    // `traces/` keeps the raw trace_event files out of the envelope
    // store's namespace — `artifact_smoke` re-parses every top-level
    // `*.json` as a schema-versioned envelope, which these are not.
    let root = store.root().join("traces");
    std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let path = root.join(format!("{}.chrome.json", run.scenario_id));
    std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;

    // A trace nobody can open is worse than none: re-parse what landed on
    // disk and check the trace_event envelope shape.
    let reread =
        std::fs::read_to_string(&path).map_err(|e| format!("rereading {}: {e}", path.display()))?;
    let parsed = json::parse(&reread).map_err(|e| format!("export is not valid JSON: {e}"))?;
    let events = parsed
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .ok_or("export lacks a `traceEvents` array")?;
    if events.is_empty() {
        return Err("export holds zero trace events".into());
    }
    println!(
        "  chrome trace: {} ({} events)",
        path.display(),
        events.len()
    );
    Ok(events.len())
}

/// Persists the run as a `pipebd.trace` artifact and round-trips it
/// through the typed store.
fn persist_artifact(store: &ArtifactStore, run: &TraceRun) -> Result<(), String> {
    let art = TraceArtifact {
        scenario: run.scenario_id.clone(),
        mode: run.report.mode.clone(),
        lanes: run.differential.lanes,
        summary: run.summary.clone(),
        metrics: run.report.metrics.clone(),
        differential: Some(run.differential.clone()),
    };
    let name = format!("TRACE_{}", run.scenario_id);
    let path = store
        .save(&name, &art)
        .map_err(|e| format!("saving {name}: {e}"))?;
    let (meta, loaded) = store
        .load_with_meta::<TraceArtifact>(&name)
        .map_err(|e| format!("round-tripping {name}: {e}"))?;
    if meta.schema != TraceArtifact::SCHEMA || meta.version != u64::from(TraceArtifact::VERSION) {
        return Err(format!(
            "{name}: envelope drift — schema `{}` v{} on disk, expected `{}` v{}",
            meta.schema,
            meta.version,
            TraceArtifact::SCHEMA,
            TraceArtifact::VERSION
        ));
    }
    if loaded != art {
        return Err(format!("{name}: payload did not round-trip bitwise"));
    }
    println!("  artifact: {}", path.display());
    Ok(())
}

fn report_scenario(store: &ArtifactStore, run: &TraceRun) -> Result<(), String> {
    let d = &run.differential;
    let s = &run.summary;
    println!(
        "  {} {}: measured {:.3}ms vs predicted {:.3}ms / simulated {:.3}ms \
         (ratios {:.3}/{:.3} in [{:.2},{:.2}], lanes {})",
        if d.pass { "ok  " } else { "FAIL" },
        run.scenario_id,
        d.measured_period_ns as f64 / 1e6,
        d.predicted_period_ns as f64 / 1e6,
        d.simulated_period_ns as f64 / 1e6,
        d.predicted_ratio,
        d.simulated_ratio,
        d.ratio_lo,
        d.ratio_hi,
        d.lanes,
    );
    println!(
        "       bottleneck stage {} (predicted {}, simulated {}){}; bubble ratio {:.3}; \
         {} spans, {} dropped",
        d.bottleneck_measured,
        d.bottleneck_predicted,
        d.bottleneck_simulated,
        if d.bottleneck_checked {
            ""
        } else {
            " [margin too thin to assert]"
        },
        s.bubble_ratio,
        s.spans,
        s.dropped,
    );
    for st in &s.stages {
        println!(
            "       stage {} (width {}): busy {:.1}%  bubble {:.1}%",
            st.stage,
            st.width,
            st.busy_ratio * 100.0,
            st.bubble_ratio * 100.0
        );
    }
    // Activation buffers the devices' recyclers reissued / had to allocate.
    let count = |name: &str| run.report.metrics.counter(name).unwrap_or(0);
    println!(
        "       buffers: {} reused, {} fresh, idle peak {:.1} KiB",
        count("recycle.reused"),
        count("recycle.fresh"),
        count("recycle.idle_peak_bytes") as f64 / 1024.0,
    );
    if !d.pass {
        return Err(format!("differential failed: {}", d.detail));
    }
    if s.dropped > 0 {
        return Err(format!(
            "{} spans dropped — ring too small for this run",
            s.dropped
        ));
    }
    export_chrome(store, run)?;
    persist_artifact(store, run)
}

fn main() {
    pipebd_bench::header(
        "Trace report — instrumented executor vs estimator vs simulator",
        "spans -> measured profile -> both predictors; Chrome traces + pipebd.trace artifacts",
    );
    let store = ArtifactStore::from_env();
    let book = ToleranceBook::gate_default();
    let mut failures = 0usize;
    for s in &trace_scenarios() {
        println!("== {} ==", s.id);
        let verdict = run_trace_scenario(s, &book).and_then(|run| report_scenario(&store, &run));
        if let Err(e) = verdict {
            eprintln!("  FAIL {}: {e}", s.id);
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("trace report FAILED: {failures} scenario(s)");
        std::process::exit(1);
    }
    println!("trace report passed: all scenarios within ToleranceBook::trace, exports valid");
}
