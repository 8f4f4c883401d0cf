//! Shared helpers for the experiment harness binaries.
//!
//! Each binary in `src/bin` regenerates one table or figure of the Pipe-BD
//! paper, or is one of the gates described in `ARCHITECTURE.md`
//! ("Verification", "The trace"); timing numbers come from `benchmark/`
//! alone (see `EXPERIMENTS.md`). This library holds the formatting and
//! sweep plumbing they share.

#![warn(missing_docs)]

use pipebd_artifact::{ArtifactPayload, ArtifactStore, RunSet};
use pipebd_core::{Experiment, ExperimentBuilder, RunReport, Strategy};
use pipebd_models::Workload;
use pipebd_sim::HardwareConfig;
use std::path::PathBuf;

/// Number of rounds the harness simulates before extrapolating to a full
/// epoch (large enough that pipeline fill is <2% of the span).
pub const HARNESS_ROUNDS: u32 = 32;

/// Builds the default experiment for a workload on the given server.
///
/// # Panics
///
/// Panics if the configuration is invalid (cannot happen for the paper's
/// workloads; the harness is not a library API).
pub fn experiment(workload: Workload, hw: HardwareConfig, batch: usize) -> Experiment {
    ExperimentBuilder::new(workload)
        .hardware(hw)
        .batch_size(batch)
        .sim_rounds(HARNESS_ROUNDS)
        .build()
        .expect("paper workloads are valid")
}

/// Runs every strategy, returning `(strategy, report)` pairs; strategies
/// that cannot be laid out (plain TR with too few blocks) are skipped.
pub fn run_all(e: &Experiment) -> Vec<(Strategy, RunReport)> {
    Strategy::ALL
        .iter()
        .filter_map(|&s| e.run(s).ok().map(|r| (s, r)))
        .collect()
}

/// Formats seconds the way the paper's Table II does (`31.52s.`,
/// `62m 21s.`).
pub fn fmt_paper_time(secs: f64) -> String {
    if secs >= 60.0 {
        format!("{}m {:02.0}s.", (secs / 60.0) as u64, secs % 60.0)
    } else {
        format!("{secs:.2}s.")
    }
}

/// Renders a horizontal bar of `value` against `max` using `width` cells.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let cells = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "█".repeat(cells.min(width))
}

/// Prints a standard harness header, including the one setting the
/// environment chooses for the compute path — the SIMD tier
/// (`PIPEBD_SIMD` or the CPU probe) — so recorded experiment output is
/// attributable to it.
pub fn header(title: &str, detail: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{detail}");
    println!("simd tier: {}", pipebd_tensor::simd_tier());
    println!("================================================================");
}

/// Persists a payload through the default [`ArtifactStore`]
/// (`target/artifacts/`, overridable via `PIPEBD_ARTIFACT_DIR`) and prints
/// the path. Artifacts are part of every figure bin's contract — the
/// `artifact_smoke` CI lane re-parses them — so a write failure aborts the
/// bin.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn persist<T: ArtifactPayload>(name: &str, payload: &T) -> PathBuf {
    let path = ArtifactStore::from_env()
        .save(name, payload)
        .unwrap_or_else(|e| panic!("failed to write artifact `{name}`: {e}"));
    println!("artifact: {}", path.display());
    path
}

/// Bundles a figure bin's reports into its [`RunSet`] artifact and
/// persists it under the figure's name.
pub fn persist_run_set(figure: &str, description: &str, reports: Vec<RunReport>) -> PathBuf {
    persist(
        figure,
        &RunSet {
            figure: figure.to_string(),
            description: description.to_string(),
            reports,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_time_format() {
        assert_eq!(fmt_paper_time(31.52), "31.52s.");
        assert_eq!(fmt_paper_time(3741.0), "62m 21s.");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn run_all_covers_all_strategies_on_synthetic() {
        let e = experiment(
            Workload::synthetic(6, false),
            HardwareConfig::a6000_server(4),
            256,
        );
        assert_eq!(run_all(&e).len(), Strategy::ALL.len());
    }
}
