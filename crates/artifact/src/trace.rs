//! Trace-plane artifacts: persisted executor observations.
//!
//! A [`TraceArtifact`] freezes what one instrumented run *measured* — the
//! per-stage busy/bubble summary, the metrics registry snapshot, and
//! (when the run was differentialed) the measured-vs-predicted verdict.

use pipebd_trace::{MetricsSnapshot, TraceDifferential, TraceSummary};
use serde::{Deserialize, Serialize};

use crate::ArtifactPayload;

/// One instrumented run's persisted observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceArtifact {
    /// Scenario or run label (e.g. `"trace/tr_dpu_r4"`).
    pub scenario: String,
    /// Trace mode the run executed under (`"spans"` or `"full"`).
    pub mode: String,
    /// Compute lanes the host offered (`min(parallelism, ranks)`); period
    /// predictions are only comparable between equal-lane runs.
    pub lanes: usize,
    /// The measured timeline summary.
    pub summary: TraceSummary,
    /// Counters and gauges snapshotted at drain (empty unless the run
    /// traced in full mode).
    pub metrics: MetricsSnapshot,
    /// Measured-vs-predicted verdict, when the differential ran.
    pub differential: Option<TraceDifferential>,
}

impl ArtifactPayload for TraceArtifact {
    const SCHEMA: &'static str = "pipebd.trace";
    // V2: the metrics snapshot has no `histograms` field.
    const VERSION: u32 = 2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArtifactStore;
    use pipebd_trace::StageObservation;

    fn sample_summary() -> TraceSummary {
        TraceSummary {
            steps: 12,
            tail: 4,
            wall_ns: 4_000_000,
            measured_period_ns: 310_000,
            total_busy_ns: 3_100_000,
            stages: vec![
                StageObservation {
                    stage: 0,
                    width: 1,
                    busy_ns: 1_900_000,
                    busy_ratio: 0.475,
                    bubble_ratio: 0.525,
                },
                StageObservation {
                    stage: 1,
                    width: 2,
                    busy_ns: 600_000,
                    busy_ratio: 0.15,
                    bubble_ratio: 0.85,
                },
            ],
            bottleneck_stage: 0,
            bottleneck_margin: 3.1666,
            bubble_ratio: 0.7416,
            spans: 144,
            dropped: 0,
        }
    }

    #[test]
    fn trace_artifact_round_trips_through_the_store() {
        let dir = std::env::temp_dir().join(format!("pipebd_trace_art_{}", std::process::id()));
        let store = ArtifactStore::at(&dir);
        let art = TraceArtifact {
            scenario: "trace/tr_dpu_r4".into(),
            mode: "full".into(),
            lanes: 1,
            summary: sample_summary(),
            metrics: MetricsSnapshot::default(),
            differential: None,
        };
        store.save("TRACE_test", &art).unwrap();
        let (meta, loaded) = store.load_with_meta::<TraceArtifact>("TRACE_test").unwrap();
        assert_eq!(loaded, art);
        assert_eq!(meta.schema, "pipebd.trace");
        assert_eq!(meta.version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
