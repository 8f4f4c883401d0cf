//! What a run leaves behind: the driver's one-line result, the per-run
//! record under `out/`, and the set file `--compare` reads. Records go to
//! disk through the repo's own `serde` + `pipebd_json`.

use pipebd_json::{Number, Value};
use serde::{Deserialize, Serialize};

use crate::metrics::MetricDef;
use crate::stats::Summary;

/// Where and how a run was made; printed first and stored with it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    pub seed: u64,
    pub run_seconds: u64,
    pub nproc: usize,
    pub simd_tier: String,
    pub kernel_policy: String,
    pub git_revision: String,
    /// `false` for `--quick` smoke runs.
    pub comparable: bool,
}

/// Runs attempted and runs that failed or were incorrect. A failed run is
/// counted and reported, never retried or hidden.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Failed-or-incorrect runs ÷ runs attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub header: Header,
    pub trace: bool,
    pub tally: Tally,
    /// Metric name → reported value, median, quartiles and count over the
    /// run's reps.
    pub metrics: Vec<(String, Summary)>,
    pub final_losses: Vec<f32>,
}

/// All runs of one workload in a set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRecord {
    pub untraced: Vec<RunRecord>,
    pub traced: RunRecord,
}

/// One full run of the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetRecord {
    pub header: Header,
    pub runs: usize,
    pub workloads: Vec<WorkloadRecord>,
}

impl RunRecord {
    /// The object the driver reads from the last line of standard output:
    /// exactly `correct`, `attempted`, `failed` and `metrics`, the latter
    /// holding every metric of `defs` with its value and unit.
    pub fn result_line(&self, defs: &[MetricDef]) -> Value {
        let uint = |v: u64| Value::Number(Number::PosInt(v));
        let metrics = defs
            .iter()
            .map(|d| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(name, _)| name == d.name)
                    .and_then(|(_, s)| Number::from_f64(s.value))
                    .map_or(Value::Null, Value::Number);
                (
                    d.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), value),
                        ("unit".into(), Value::String(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.tally.failed == 0)),
            ("attempted".into(), uint(self.tally.attempted.max(1))),
            ("failed".into(), uint(self.tally.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}
