//! CI gate for the conformance plane: enumerates every conformance
//! scenario, runs the executor and simulator/estimator differentials,
//! persists the sweep
//! (`CONFORMANCE_scenarios`, `CONFORMANCE_report`) and exits 1 on any
//! drift. Takes no arguments.
//!
//! Timing is not judged here: `benchmark/` (see `benchmark/README.md`) is
//! the repository's one source of performance numbers.
//!
//! Run with: `cargo run --release -p pipebd_bench --bin regression_gate`

use std::path::PathBuf;

use pipebd_artifact::{ArtifactError, ArtifactStore};
use pipebd_testkit::{enumerate, run_scenario, ConformanceReport, ScenarioSet, ToleranceBook};

/// Runs the conformance sweep; returns the number of failing scenarios.
fn conformance_sweep(store: &ArtifactStore) -> usize {
    let scenarios = enumerate();
    let book = ToleranceBook::gate_default();
    let mut outcomes = Vec::with_capacity(scenarios.len());
    let mut failures = 0usize;
    for s in &scenarios {
        let outcome = run_scenario(s, &book);
        let verdict = if outcome.pass { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {id:<28} param {param:>9.2e}  loss {loss:>9.2e}  sim/est {ratio:>6.3} in [{lo:.2},{hi:.2}]{bn}{fault}{detail}",
            id = outcome.id,
            fault = if outcome.fault_class.is_empty() {
                String::new()
            } else {
                format!(
                    "  fault:{}:{}",
                    outcome.fault_class,
                    if outcome.replan { "replan" } else { "static" }
                )
            },
            param = outcome.max_param_diff,
            loss = outcome.max_loss_diff,
            ratio = outcome.sim_ratio,
            lo = outcome.ratio_lo,
            hi = outcome.ratio_hi,
            bn = if outcome.bottleneck_checked {
                if outcome.bottleneck_ok { "  bn:ok" } else { "  bn:FAIL" }
            } else {
                ""
            },
            detail = if outcome.detail.is_empty() {
                String::new()
            } else {
                format!("  [{}]", outcome.detail)
            },
        );
        if !outcome.pass {
            failures += 1;
        }
        outcomes.push(outcome);
    }

    let persist = |name: &str, res: Result<PathBuf, ArtifactError>| match res {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => panic!("failed to persist `{name}`: {e}"),
    };
    persist(
        "CONFORMANCE_scenarios",
        store.save(
            "CONFORMANCE_scenarios",
            &ScenarioSet {
                description: format!("conformance sweep: {} scenarios", scenarios.len()),
                scenarios,
            },
        ),
    );
    persist(
        "CONFORMANCE_report",
        store.save(
            "CONFORMANCE_report",
            &ConformanceReport {
                scenarios: outcomes.len(),
                failures,
                outcomes,
            },
        ),
    );
    failures
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument `{arg}`: regression_gate takes none");
        std::process::exit(2);
    }
    let store = ArtifactStore::from_env();
    pipebd_bench::header(
        "Regression gate — conformance sweep",
        &format!("artifacts: {}", store.root().display()),
    );
    let failures = conformance_sweep(&store);
    if failures > 0 {
        eprintln!("regression gate FAILED: {failures} conformance failure(s)");
        std::process::exit(1);
    }
    println!("regression gate passed: conformance clean");
}
