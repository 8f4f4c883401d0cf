//! `exec.*` per-layer metrics, aggregated from the raw spans of one traced
//! executor run (`RunHooks.trace` — the repo's existing public hook).
//!
//! Shares are over the *summed track wall*: each device track's wall is its
//! first span start to its last span end, and every span kind's share is
//! its summed duration over the sum of track walls. Spans on one track
//! never overlap (the worker records them sequentially), so the shares
//! plus `exec.untracked.share` add up to 1.

use pipebd_trace::{SpanKind, TraceReport, TrackSpans};

use crate::stats::median;

/// The span kinds that get a share, with the metric of each.
pub const SHARE_KINDS: [(SpanKind, &str); 8] = [
    (SpanKind::Load, "exec.load.share"),
    (SpanKind::Teacher, "exec.teacher.share"),
    (SpanKind::Student, "exec.student.share"),
    (SpanKind::Relay, "exec.relay.share"),
    (SpanKind::GradShare, "exec.grad_share.share"),
    (SpanKind::Barrier, "exec.barrier.share"),
    (SpanKind::Update, "exec.update.share"),
    (SpanKind::Checkpoint, "exec.checkpoint.share"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct ExecAggregate {
    /// Median interval between consecutive steps' last update on the track
    /// with the longest wall.
    pub period_ms: f64,
    /// Share per entry of [`SHARE_KINDS`], in that order.
    pub shares: [f64; 8],
    pub untracked_share: f64,
    /// Mean `Load` time per step on a stage-0 track (batch materialization).
    pub stage0_load_ms_per_step: f64,
    /// Mean `Load` time per step on a later-stage track (the relay wait).
    pub recv_wait_ms_per_step: f64,
    /// Busiest track's busy time over the least busy one's; busy is
    /// teacher + student + update + stage-0 load, as `pipebd_trace` counts.
    pub stage_imbalance: f64,
    pub relay_bytes_per_step: f64,
    pub relay_sends_per_step: f64,
    pub longest_track_ms: f64,
    /// Rounds that captured a checkpoint.
    pub checkpoint_rounds: usize,
    pub spans: u64,
    pub dropped: u64,
}

fn track_wall_ns(track: &TrackSpans) -> u64 {
    let start = track.spans.iter().map(|s| s.t0_ns).min().unwrap_or(0);
    let end = track.spans.iter().map(|s| s.t1_ns).max().unwrap_or(0);
    end.saturating_sub(start)
}

fn is_busy(kind: SpanKind, stage: usize) -> bool {
    kind.is_work() || (kind == SpanKind::Load && stage == 0)
}

/// Aggregates one run's report over `steps` training steps.
///
/// # Panics
///
/// Panics on a report with no tracks or no spans: the traced rep ran, so
/// an empty report is a harness bug.
pub fn aggregate(report: &TraceReport, steps: usize) -> ExecAggregate {
    assert!(
        report.tracks.iter().any(|t| !t.spans.is_empty()),
        "traced run recorded no spans"
    );
    let steps_f = steps.max(1) as f64;
    let walls: Vec<u64> = report.tracks.iter().map(track_wall_ns).collect();
    let total_wall: f64 = walls.iter().sum::<u64>() as f64;

    let kind_total = |kind: SpanKind, stage_filter: fn(usize) -> bool| -> u64 {
        report
            .tracks
            .iter()
            .filter(|t| stage_filter(t.stage))
            .flat_map(|t| &t.spans)
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns())
            .sum()
    };
    let shares = SHARE_KINDS.map(|(kind, _)| kind_total(kind, |_| true) as f64 / total_wall);
    let untracked_share = 1.0 - shares.iter().sum::<f64>();

    let tracks_where = |f: fn(usize) -> bool| report.tracks.iter().filter(|t| f(t.stage)).count();
    let per_step_ms = |total_ns: u64, tracks: usize| {
        if tracks == 0 {
            0.0
        } else {
            total_ns as f64 / 1e6 / steps_f / tracks as f64
        }
    };

    let busy: Vec<u64> = report
        .tracks
        .iter()
        .map(|t| {
            t.spans
                .iter()
                .filter(|s| is_busy(s.kind, t.stage))
                .map(|s| s.dur_ns())
                .sum()
        })
        .collect();
    let (busiest, idlest) = (
        busy.iter().copied().max().unwrap_or(0),
        busy.iter().copied().min().unwrap_or(0),
    );

    let relays = || {
        report
            .tracks
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.kind == SpanKind::Relay)
    };

    // Step completions on the slowest track.
    let slowest = walls
        .iter()
        .enumerate()
        .max_by_key(|&(_, w)| *w)
        .map(|(i, _)| &report.tracks[i])
        .expect("a report with spans has tracks");
    let mut step_end: Vec<(u32, u64)> = Vec::new();
    for s in slowest.spans.iter().filter(|s| s.kind == SpanKind::Update) {
        match step_end.last_mut() {
            Some((step, end)) if *step == s.step => *end = (*end).max(s.t1_ns),
            _ => step_end.push((s.step, s.t1_ns)),
        }
    }
    let intervals: Vec<f64> = step_end
        .windows(2)
        .map(|w| w[1].1.saturating_sub(w[0].1) as f64 / 1e6)
        .collect();
    let longest_track_ms = walls.iter().copied().max().unwrap_or(0) as f64 / 1e6;
    let period_ms = if intervals.is_empty() {
        longest_track_ms / steps_f
    } else {
        median(&intervals)
    };

    let mut checkpoint_steps: Vec<u32> = report
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.kind == SpanKind::Checkpoint)
        .map(|s| s.step)
        .collect();
    checkpoint_steps.sort_unstable();
    checkpoint_steps.dedup();

    ExecAggregate {
        period_ms,
        shares,
        untracked_share,
        stage0_load_ms_per_step: per_step_ms(
            kind_total(SpanKind::Load, |stage| stage == 0),
            tracks_where(|stage| stage == 0),
        ),
        recv_wait_ms_per_step: per_step_ms(
            kind_total(SpanKind::Load, |stage| stage > 0),
            tracks_where(|stage| stage > 0),
        ),
        stage_imbalance: if idlest == 0 {
            0.0
        } else {
            busiest as f64 / idlest as f64
        },
        relay_bytes_per_step: relays().map(|s| s.bytes).sum::<u64>() as f64 / steps_f,
        relay_sends_per_step: relays().count() as f64 / steps_f,
        longest_track_ms,
        checkpoint_rounds: checkpoint_steps.len(),
        spans: report.span_count(),
        dropped: report.dropped_count(),
    }
}

/// Total duration, in milliseconds, of the control-track events of one
/// kind (restore / replan of a recovered run).
pub fn control_event_ms(report: &TraceReport, kind: SpanKind) -> f64 {
    report
        .events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.dur_ns())
        .sum::<u64>() as f64
        / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_trace::{MetricsSnapshot, Span};

    fn span(kind: SpanKind, step: u32, t0_ns: u64, t1_ns: u64, bytes: u64) -> Span {
        Span {
            kind,
            block: None,
            step,
            t0_ns,
            t1_ns,
            bytes,
        }
    }

    /// Two stages, two steps. Stage 0: wall 0..1000; stage 1: wall
    /// 200..1200 — summed track wall 2000 ns.
    fn report() -> TraceReport {
        let stage0 = vec![
            span(SpanKind::Load, 0, 0, 100, 0),
            span(SpanKind::Teacher, 0, 100, 200, 0),
            span(SpanKind::Relay, 0, 200, 210, 4096),
            span(SpanKind::Student, 0, 210, 410, 0),
            span(SpanKind::Update, 0, 410, 460, 0),
            span(SpanKind::Load, 1, 500, 600, 0),
            span(SpanKind::Teacher, 1, 600, 700, 0),
            span(SpanKind::Relay, 1, 700, 710, 4096),
            span(SpanKind::Student, 1, 710, 910, 0),
            span(SpanKind::Update, 1, 910, 960, 0),
            span(SpanKind::Checkpoint, 1, 960, 1000, 0),
        ];
        let stage1 = vec![
            span(SpanKind::Load, 0, 200, 220, 0),
            span(SpanKind::Teacher, 0, 220, 320, 0),
            span(SpanKind::Student, 0, 320, 620, 0),
            span(SpanKind::Update, 0, 620, 700, 0),
            span(SpanKind::Load, 1, 700, 720, 0),
            span(SpanKind::Teacher, 1, 720, 820, 0),
            span(SpanKind::Student, 1, 820, 1120, 0),
            span(SpanKind::Update, 1, 1120, 1200, 0),
        ];
        TraceReport {
            mode: "spans".into(),
            tracks: vec![
                TrackSpans {
                    device: 0,
                    stage: 0,
                    member: 0,
                    spans: stage0,
                    dropped: 0,
                },
                TrackSpans {
                    device: 1,
                    stage: 1,
                    member: 0,
                    spans: stage1,
                    dropped: 0,
                },
            ],
            events: vec![
                span(SpanKind::Replan, 1, 0, 2_000_000, 0),
                span(SpanKind::Restore, 1, 2_000_000, 5_000_000, 0),
            ],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn per_kind_shares_are_over_summed_track_wall_and_add_up_to_one() {
        let a = aggregate(&report(), 2);
        let share = |kind: &str| {
            let name = format!("exec.{kind}.share");
            a.shares[SHARE_KINDS.iter().position(|(_, n)| *n == name).unwrap()]
        };
        assert!((share("load") - 240.0 / 2000.0).abs() < 1e-12);
        assert!((share("teacher") - 400.0 / 2000.0).abs() < 1e-12);
        assert!((share("student") - 1000.0 / 2000.0).abs() < 1e-12);
        assert!((share("relay") - 20.0 / 2000.0).abs() < 1e-12);
        assert!((share("update") - 260.0 / 2000.0).abs() < 1e-12);
        assert!((share("checkpoint") - 40.0 / 2000.0).abs() < 1e-12);
        assert_eq!(share("grad_share"), 0.0);
        assert_eq!(share("barrier"), 0.0);
        assert!((a.untracked_share - 40.0 / 2000.0).abs() < 1e-12);
        assert!((a.shares.iter().sum::<f64>() + a.untracked_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_step_and_per_track_figures() {
        let a = aggregate(&report(), 2);
        // Both tracks have wall 1000; the first of equal maxima... either
        // way the step interval is 500 ns.
        assert!((a.period_ms - 500.0 / 1e6).abs() < 1e-15);
        assert!((a.stage0_load_ms_per_step - 100.0 / 1e6).abs() < 1e-15);
        assert!((a.recv_wait_ms_per_step - 20.0 / 1e6).abs() < 1e-15);
        // Busy: stage 0 = 200 load + 200 teacher + 400 student + 100 update
        // = 900; stage 1 = 200 + 600 + 160 = 960 (its loads are waits).
        assert!((a.stage_imbalance - 960.0 / 900.0).abs() < 1e-12);
        assert_eq!(a.relay_bytes_per_step, 4096.0);
        assert_eq!(a.relay_sends_per_step, 1.0);
        assert_eq!(a.checkpoint_rounds, 1);
        assert_eq!(a.spans, 21);
        assert_eq!(a.dropped, 0);
        assert!((a.longest_track_ms - 1000.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn control_events_sum_by_kind() {
        let r = report();
        assert_eq!(control_event_ms(&r, SpanKind::Replan), 2.0);
        assert_eq!(control_event_ms(&r, SpanKind::Restore), 3.0);
        assert_eq!(control_event_ms(&r, SpanKind::WorkerSpawn), 0.0);
    }
}
