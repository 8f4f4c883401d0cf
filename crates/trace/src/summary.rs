//! From raw spans to timeline claims: busy/bubble ratios, the measured
//! steady-state period, the critical-path stage, and a measured
//! [`ProfileTable`] the estimator and simulator can replay.
//!
//! The measured period mirrors the simulator's tail-window formula
//! (`pipebd_sim::SimRun::round_period`): per-step completion is
//! the latest `update` span end across all tracks, and the period is
//! averaged over the last `tail` steps, past the pipeline fill.
//!
//! Busy time counts *work* spans only: teacher, student, update, and
//! stage-0 input materialization. Synchronization intervals (gradient
//! sharing, barriers, relay sends, downstream receive waits) are waits on
//! peers — they overlap other devices' work and would double-count if
//! treated as load.
//! The same convention feeds [`measured_profile`], so the estimator's
//! view of a measured table is consistent with what the spans call busy.

use std::collections::BTreeMap;

use pipebd_sched::{ProfileTable, StagePlan};
use pipebd_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::span::{SpanKind, TraceReport};

/// What one stage's member threads measured over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageObservation {
    /// Stage index in the plan.
    pub stage: usize,
    /// Member tracks observed for the stage.
    pub width: usize,
    /// Mean per-member busy time over the whole run, nanoseconds.
    pub busy_ns: u64,
    /// `busy_ns` over the run's wall time.
    pub busy_ratio: f64,
    /// `1 - busy_ratio`: the fraction of the run the stage's devices sat
    /// in pipeline bubbles or synchronization waits.
    pub bubble_ratio: f64,
}

/// A run's measured timeline, reduced to the claims the paper makes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Training steps the run executed.
    pub steps: u32,
    /// Tail window the steady-state period was averaged over.
    pub tail: u32,
    /// Wall time spanned by the recorded spans, nanoseconds.
    pub wall_ns: u64,
    /// Measured steady-state step period (tail-window average), ns.
    pub measured_period_ns: u64,
    /// Total busy nanoseconds summed over every track.
    pub total_busy_ns: u64,
    /// Per-stage observations, in stage order.
    pub stages: Vec<StageObservation>,
    /// The stage with the highest per-member busy time — the measured
    /// critical path.
    pub bottleneck_stage: usize,
    /// Busy-time ratio of the bottleneck stage to the runner-up (1.0 for
    /// single-stage plans).
    pub bottleneck_margin: f64,
    /// Overall bubble ratio: idle fraction across all device tracks.
    pub bubble_ratio: f64,
    /// Spans recorded (tracks plus control events).
    pub spans: u64,
    /// Spans lost to ring wrap-around.
    pub dropped: u64,
}

/// The trace differential's verdict, in pure-data form (the testkit fills
/// it; the `pipebd.trace` artifact persists it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDifferential {
    /// Strategy label the scenario ran.
    pub strategy: String,
    /// Compute lanes the host offered the run's device threads
    /// (`min(available cores, ranks)` — device threads timeshare).
    pub lanes: usize,
    /// Measured steady-state period, nanoseconds.
    pub measured_period_ns: u64,
    /// Analytic prediction from the measured profile, ns.
    pub predicted_period_ns: u64,
    /// Simulated period replaying the measured profile, ns.
    pub simulated_period_ns: u64,
    /// `measured / predicted`.
    pub predicted_ratio: f64,
    /// `measured / simulated`.
    pub simulated_ratio: f64,
    /// Tolerance bounds both ratios must satisfy.
    pub ratio_lo: f64,
    /// See `ratio_lo`.
    pub ratio_hi: f64,
    /// Stage the measured busy times name as bottleneck.
    pub bottleneck_measured: usize,
    /// Stage the analytic estimator names.
    pub bottleneck_predicted: usize,
    /// Stage the simulator's busiest device belongs to.
    pub bottleneck_simulated: usize,
    /// Whether the bottleneck comparison was decisive enough to assert.
    pub bottleneck_checked: bool,
    /// Agreement verdict (vacuously true when unchecked).
    pub bottleneck_ok: bool,
    /// Overall verdict.
    pub pass: bool,
    /// Human-readable failure detail (empty on pass).
    pub detail: String,
}

/// Reduces a drained report to a [`TraceSummary`].
///
/// # Errors
///
/// Returns an error when the report has no tracks, when `tail >= steps`,
/// or when some step recorded no `update` span (a wrapped ring dropped
/// the tail — raise the capacity).
pub fn summarize(report: &TraceReport, steps: u32, tail: u32) -> Result<TraceSummary, String> {
    if report.tracks.is_empty() {
        return Err("trace report has no tracks".into());
    }
    if tail == 0 || tail >= steps {
        return Err(format!("tail {tail} must be in 1..steps ({steps})"));
    }

    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    let mut total_busy_ns = 0u64;
    // Latest update completion per step, across all tracks.
    let mut step_end = vec![0u64; steps as usize];
    let mut step_seen = vec![false; steps as usize];
    // stage -> (member count, summed busy).
    let mut stage_busy: BTreeMap<usize, (usize, u64)> = BTreeMap::new();

    for track in &report.tracks {
        let mut busy = 0u64;
        for span in &track.spans {
            t_min = t_min.min(span.t0_ns);
            t_max = t_max.max(span.t1_ns);
            // Load is batch materialization on stage 0 (work) but the
            // relay-receive wait on later stages (a bubble).
            if span.kind.is_work() || (span.kind == SpanKind::Load && track.stage == 0) {
                busy += span.dur_ns();
            }
            if span.kind == SpanKind::Update {
                let i = span.step as usize;
                if i < step_end.len() {
                    step_end[i] = step_end[i].max(span.t1_ns);
                    step_seen[i] = true;
                }
            }
        }
        total_busy_ns += busy;
        let entry = stage_busy.entry(track.stage).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += busy;
    }

    if let Some(missing) = step_seen.iter().position(|seen| !seen) {
        return Err(format!(
            "step {missing} recorded no update span (ring wrapped? dropped={})",
            report.dropped_count()
        ));
    }
    let wall_ns = t_max.saturating_sub(t_min);
    let last = step_end[steps as usize - 1];
    let base = step_end[(steps - 1 - tail) as usize];
    let measured_period_ns = last.saturating_sub(base) / u64::from(tail);

    let stages: Vec<StageObservation> = stage_busy
        .iter()
        .map(|(&stage, &(width, busy))| {
            let busy_ns = busy / width as u64;
            let busy_ratio = if wall_ns > 0 {
                busy_ns as f64 / wall_ns as f64
            } else {
                0.0
            };
            StageObservation {
                stage,
                width,
                busy_ns,
                busy_ratio,
                bubble_ratio: 1.0 - busy_ratio,
            }
        })
        .collect();

    let mut order: Vec<usize> = (0..stages.len()).collect();
    order.sort_by(|&a, &b| stages[b].busy_ns.cmp(&stages[a].busy_ns));
    let bottleneck = order[0];
    let bottleneck_margin = match order.get(1) {
        Some(&second) if stages[second].busy_ns > 0 => {
            stages[bottleneck].busy_ns as f64 / stages[second].busy_ns as f64
        }
        _ => 1.0,
    };
    let lanes = report.tracks.len() as u64;
    let bubble_ratio = if wall_ns > 0 && lanes > 0 {
        1.0 - total_busy_ns as f64 / (wall_ns * lanes) as f64
    } else {
        0.0
    };

    Ok(TraceSummary {
        steps,
        tail,
        wall_ns,
        measured_period_ns,
        total_busy_ns,
        bottleneck_stage: stages[bottleneck].stage,
        bottleneck_margin,
        stages,
        bubble_ratio,
        spans: report.span_count(),
        dropped: report.dropped_count(),
    })
}

/// Builds a [`ProfileTable`] from measured spans: per-block mean teacher,
/// student, and update times, at each stage's actual per-device batch.
///
/// The table's batch columns are the distinct per-device batches the plan
/// induces; a block's value at its own stage's batch is the measured
/// mean, and values at other columns are linear-in-batch rescalings (the
/// estimator only queries each block at its own stage's batch, so the
/// rescaled columns exist to satisfy the table's rectangular shape).
///
/// Step 0 is excluded as warm-up when the run has more than two steps —
/// first-touch allocation noise belongs to no steady-state model.
///
/// # Errors
///
/// Returns an error when some block has no measured spans, or when the
/// table construction itself rejects the rows.
pub fn measured_profile(
    report: &TraceReport,
    plan: &StagePlan,
    global_batch: usize,
) -> Result<ProfileTable, String> {
    let max_step = report
        .tracks
        .iter()
        .flat_map(|t| t.spans.iter())
        .map(|s| s.step)
        .max()
        .ok_or("trace report has no spans")?;
    let warmup = u32::from(max_step >= 2);

    // Per-block duration sums and counts, warm steps only.
    let blocks = plan.num_blocks;
    let mut sums = vec![[0u64; 3]; blocks];
    let mut counts = vec![[0u64; 3]; blocks];
    for track in &report.tracks {
        for span in &track.spans {
            if span.step < warmup {
                continue;
            }
            let slot = match span.kind {
                SpanKind::Teacher => 0,
                SpanKind::Student => 1,
                SpanKind::Update => 2,
                _ => continue,
            };
            let Some(b) = span.block.map(usize::from) else {
                continue;
            };
            if b >= blocks {
                return Err(format!("span names block {b}, plan has {blocks}"));
            }
            sums[b][slot] += span.dur_ns();
            counts[b][slot] += 1;
        }
    }

    let mut batch_sizes: Vec<usize> = plan
        .stages
        .iter()
        .map(|s| s.device_batch(global_batch))
        .collect();
    batch_sizes.sort_unstable();
    batch_sizes.dedup();

    let mut teacher = Vec::with_capacity(blocks);
    let mut student = Vec::with_capacity(blocks);
    let mut update = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let stage = plan
            .stage_of_block(b)
            .ok_or_else(|| format!("block {b} not in plan"))?;
        let db = stage.device_batch(global_batch).max(1);
        let mean = |slot: usize| -> Result<u64, String> {
            if counts[b][slot] == 0 {
                return Err(format!("block {b} has no measured spans for slot {slot}"));
            }
            Ok(sums[b][slot] / counts[b][slot])
        };
        let (t, s, u) = (mean(0)?, mean(1)?, mean(2)?);
        teacher.push(
            batch_sizes
                .iter()
                .map(|&bs| SimTime::from_ns(t * bs as u64 / db as u64))
                .collect(),
        );
        student.push(
            batch_sizes
                .iter()
                .map(|&bs| SimTime::from_ns(s * bs as u64 / db as u64))
                .collect(),
        );
        update.push(SimTime::from_ns(u));
    }

    ProfileTable::from_parts(batch_sizes, teacher, student, update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::span::{Span, TrackSpans};

    /// Two stages, one device each: stage 0 updates finish at
    /// 100, 200, 300, ...; stage 1 updates 50 ns later. Period = 100.
    fn report(steps: u32) -> TraceReport {
        let track = |device: usize, stage: usize, offset: u64| TrackSpans {
            device,
            stage,
            member: 0,
            spans: (0..steps)
                .flat_map(|step| {
                    let base = u64::from(step + 1) * 100 + offset;
                    vec![
                        Span {
                            kind: SpanKind::Teacher,
                            block: Some(stage as u16),
                            step,
                            t0_ns: base - 90,
                            t1_ns: base - 50,
                            bytes: 0,
                        },
                        Span {
                            kind: SpanKind::Student,
                            block: Some(stage as u16),
                            step,
                            t0_ns: base - 50,
                            t1_ns: base - 10,
                            bytes: 0,
                        },
                        Span {
                            kind: SpanKind::Update,
                            block: Some(stage as u16),
                            step,
                            t0_ns: base - 10,
                            t1_ns: base,
                            bytes: 0,
                        },
                    ]
                })
                .collect(),
            dropped: 0,
        };
        TraceReport {
            mode: "spans".into(),
            tracks: vec![track(0, 0, 0), track(1, 1, 50)],
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn measured_period_matches_construction() {
        let s = summarize(&report(8), 8, 4).unwrap();
        assert_eq!(s.measured_period_ns, 100);
        assert_eq!(s.steps, 8);
        assert_eq!(s.stages.len(), 2);
        // Both stages do 90 ns of work per 100 ns step.
        assert!(s.stages[0].busy_ratio > 0.5, "{}", s.stages[0].busy_ratio);
        assert!((0.0..=1.0).contains(&s.bubble_ratio));
        assert_eq!(s.bottleneck_margin, 1.0, "stages are tied");
    }

    #[test]
    fn summarize_rejects_missing_steps() {
        let err = summarize(&report(4), 8, 2).unwrap_err();
        assert!(err.contains("no update span"), "{err}");
    }

    #[test]
    fn summarize_rejects_bad_tail() {
        assert!(summarize(&report(4), 4, 0).is_err());
        assert!(summarize(&report(4), 4, 4).is_err());
    }

    #[test]
    fn measured_profile_builds_a_table() {
        let plan = StagePlan::contiguous(2, 2).unwrap();
        let table = measured_profile(&report(8), &plan, 8).unwrap();
        assert_eq!(table.num_blocks(), 2);
        assert_eq!(table.batch_sizes(), &[8]);
        // Teacher spans are 40 ns, student 40 ns, update 10 ns.
        assert_eq!(table.teacher_time(0, 8), SimTime::from_ns(40));
        assert_eq!(table.student_time(1, 8), SimTime::from_ns(40));
        assert_eq!(table.update_time(0), SimTime::from_ns(10));
    }
}
