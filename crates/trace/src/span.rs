//! Per-thread span recording.
//!
//! Design: each instrumented thread owns a [`TrackRecorder`] — a bounded
//! ring of [`Span`]s that only that thread writes. Recording a span is a
//! plain indexed store into thread-owned memory: no locks, no atomics, no
//! allocation after the ring is built. When the thread finishes (the
//! recorder drops), the ring flushes once into the [`TraceCollector`]
//! under a mutex; the executor joins every worker before draining, so the
//! join establishes the happens-before edge and the drain sees complete,
//! untorn rings.
//!
//! Timestamps are nanosecond offsets from the collector's construction
//! instant (`Instant`-based, so they are monotone per thread and
//! comparable across threads of one run, and no wall-clock time ever
//! enters a trace).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// How much the trace plane records: chosen by whoever builds the
/// [`TraceCollector`] (a run with no collector records nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No collector is constructed; instrumentation costs one branch.
    Off,
    /// Record spans only.
    Spans,
    /// Record spans plus the metrics registry and pool counters.
    Full,
}

impl TraceMode {
    /// Stable lowercase label (`"off"`, `"spans"`, `"full"`).
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Spans => "spans",
            TraceMode::Full => "full",
        }
    }

    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        self != TraceMode::Off
    }
}

/// What a span measures. Kinds mirror the simulator's `TaskKind` where a
/// counterpart exists, so executor and simulator tracks align in the
/// Chrome export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Input acquisition: batch materialization (stage 0) or receiving and
    /// re-sharding the relayed activation (later stages).
    Load,
    /// One teacher block's forward.
    Teacher,
    /// One student block's forward + loss + backward.
    Student,
    /// One student block's optimizer step.
    Update,
    /// Boundary-activation sends to the next stage (`bytes` counts the
    /// logical payload across all receiving members).
    Relay,
    /// Intra-stage gradient gather/average/broadcast (width > 1).
    GradShare,
    /// The global per-step barrier (absent under decoupled updates).
    Barrier,
    /// Checkpoint fragment capture and send.
    Checkpoint,
    /// Recovery: computing a degraded plan after a rank loss.
    Replan,
    /// Recovery: restoring from the latest checkpoint.
    Restore,
    /// Registry: a device worker thread entered the epoch (`step` is the
    /// first round the worker participates in).
    WorkerSpawn,
    /// Registry: a device worker thread left the epoch (retired at a
    /// round boundary, lost, or run complete; `step` is the first round
    /// the worker no longer participates in).
    WorkerRetire,
}

impl SpanKind {
    /// Stable lowercase label, used for Chrome event names.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Load => "load",
            SpanKind::Teacher => "teacher",
            SpanKind::Student => "student",
            SpanKind::Update => "update",
            SpanKind::Relay => "relay",
            SpanKind::GradShare => "grad_share",
            SpanKind::Barrier => "barrier",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Replan => "replan",
            SpanKind::Restore => "restore",
            SpanKind::WorkerSpawn => "worker_spawn",
            SpanKind::WorkerRetire => "worker_retire",
        }
    }

    /// Whether the span is unconditionally device *work* (it consumes the
    /// device lane and belongs in busy time and the measured profile) as
    /// opposed to synchronization or bookkeeping (waiting on peers,
    /// channel sends). [`SpanKind::Load`] is work only on stage 0 — on
    /// later stages it is the receive wait — so busy accounting treats it
    /// stage-aware (see [`crate::summarize`]).
    pub fn is_work(self) -> bool {
        matches!(
            self,
            SpanKind::Teacher | SpanKind::Student | SpanKind::Update
        )
    }
}

/// One recorded interval on one track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval measures.
    pub kind: SpanKind,
    /// Global block index, for per-block kinds.
    pub block: Option<u16>,
    /// Training step (round) the interval belongs to.
    pub step: u32,
    /// Start, nanoseconds since the collector's epoch.
    pub t0_ns: u64,
    /// End, nanoseconds since the collector's epoch.
    pub t1_ns: u64,
    /// Payload bytes, for data-movement kinds (0 otherwise).
    pub bytes: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// One thread's drained spans plus its identity in the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackSpans {
    /// Device rank (the `gpu{device}` track).
    pub device: usize,
    /// Stage index in the plan.
    pub stage: usize,
    /// Member index within the stage (0 for width-1 stages).
    pub member: usize,
    /// Recorded spans, oldest first.
    pub spans: Vec<Span>,
    /// Spans overwritten because the ring wrapped (the *oldest* spans are
    /// dropped; the tail used for steady-state measurement survives).
    pub dropped: u64,
}

/// Everything one run recorded, drained from the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Mode label the run recorded under (`"spans"` or `"full"`).
    pub mode: String,
    /// Per-thread tracks, sorted by device rank.
    pub tracks: Vec<TrackSpans>,
    /// Control-plane events (restore/replan), recorded off the hot path.
    pub events: Vec<Span>,
    /// Metrics registry snapshot (empty under `spans` mode).
    pub metrics: MetricsSnapshot,
}

impl TraceReport {
    /// Total spans across all tracks and control events.
    pub fn span_count(&self) -> u64 {
        self.tracks
            .iter()
            .map(|t| t.spans.len() as u64)
            .sum::<u64>()
            + self.events.len() as u64
    }

    /// Total spans lost to ring wrap-around across all tracks.
    pub fn dropped_count(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }
}

/// Default per-track ring capacity: generous for every scenario in the
/// repo (a 12-step, 6-block run records a few hundred spans per track).
pub const DEFAULT_TRACK_CAPACITY: usize = 1 << 16;

/// The shared sink instrumented threads flush into.
///
/// Constructed once per run when tracing is enabled; the executor holds
/// it in `RunHooks` and drains it after joining the workers.
#[derive(Debug)]
pub struct TraceCollector {
    mode: TraceMode,
    epoch: Instant,
    capacity: usize,
    tracks: Mutex<Vec<TrackSpans>>,
    events: Mutex<Vec<Span>>,
    metrics: MetricsRegistry,
}

impl TraceCollector {
    /// Creates a collector with the default ring capacity.
    ///
    /// # Panics
    ///
    /// Panics on [`TraceMode::Off`] — off means *no collector exists*;
    /// constructing one anyway would silently violate the one-branch
    /// overhead contract.
    pub fn new(mode: TraceMode) -> Arc<Self> {
        Self::with_capacity(mode, DEFAULT_TRACK_CAPACITY)
    }

    /// [`TraceCollector::new`] with an explicit per-track ring capacity
    /// (tests use tiny rings to exercise wrap-around).
    pub fn with_capacity(mode: TraceMode, capacity: usize) -> Arc<Self> {
        assert!(
            mode.enabled(),
            "TraceCollector::new(Off): pass None instead of an off collector"
        );
        assert!(capacity > 0, "ring capacity must be positive");
        Arc::new(TraceCollector {
            mode,
            epoch: Instant::now(),
            capacity,
            tracks: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
        })
    }

    /// The collector's mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Whether `full`-mode extras (metrics, pool counters) are on.
    pub fn full(&self) -> bool {
        self.mode == TraceMode::Full
    }

    /// Nanoseconds since the collector was constructed.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The metrics registry (populated in `full` mode).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Creates the span recorder for one instrumented thread.
    pub fn recorder(self: &Arc<Self>, device: usize, stage: usize, member: usize) -> TrackRecorder {
        TrackRecorder {
            collector: Arc::clone(self),
            device,
            stage,
            member,
            cap: self.capacity,
            ring: Vec::with_capacity(self.capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Records a control-plane event (restore/replan). These are rare and
    /// happen on the coordinating thread, so a mutex push is fine.
    pub fn event(&self, kind: SpanKind, step: u32, t0_ns: u64, t1_ns: u64) {
        self.events.lock().expect("event lock").push(Span {
            kind,
            block: None,
            step,
            t0_ns,
            t1_ns,
            bytes: 0,
        });
    }

    /// Drains everything recorded so far into a [`TraceReport`].
    ///
    /// Call after joining every instrumented thread — the joins are what
    /// guarantee each ring was flushed (recorders flush on drop).
    pub fn drain(&self) -> TraceReport {
        let mut tracks = std::mem::take(&mut *self.tracks.lock().expect("tracks lock"));
        tracks.sort_by_key(|t| t.device);
        let events = std::mem::take(&mut *self.events.lock().expect("event lock"));
        TraceReport {
            mode: self.mode.label().to_owned(),
            tracks,
            events,
            metrics: self.metrics.snapshot(),
        }
    }

    /// Flush target for [`TrackRecorder::drop`].
    fn absorb(&self, track: TrackSpans) {
        self.tracks.lock().expect("tracks lock").push(track);
    }
}

/// A single thread's span ring. Single-writer by construction (`!Sync`,
/// methods take `&mut self`); recording is an indexed store into
/// thread-owned memory. Flushes into the collector when dropped.
#[derive(Debug)]
pub struct TrackRecorder {
    collector: Arc<TraceCollector>,
    device: usize,
    stage: usize,
    member: usize,
    cap: usize,
    ring: Vec<Span>,
    /// Oldest element once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TrackRecorder {
    /// Nanoseconds since the collector's epoch.
    pub fn now_ns(&self) -> u64 {
        self.collector.now_ns()
    }

    /// Records one span. When the ring is full the oldest span is
    /// overwritten, keeping the most recent window — steady-state
    /// summaries read the tail, so the tail must survive.
    pub fn record(&mut self, span: Span) {
        if self.ring.len() < self.cap {
            self.ring.push(span);
        } else {
            self.ring[self.head] = span;
            self.head = (self.head + 1) % self.ring.len();
            self.dropped += 1;
        }
    }

    /// Records a completed interval of `kind` carrying `bytes`.
    pub fn record_span(
        &mut self,
        kind: SpanKind,
        block: Option<u16>,
        step: u32,
        t0_ns: u64,
        t1_ns: u64,
        bytes: u64,
    ) {
        self.record(Span {
            kind,
            block,
            step,
            t0_ns,
            t1_ns,
            bytes,
        });
    }
}

impl Drop for TrackRecorder {
    fn drop(&mut self) {
        // Rotate so spans come out oldest-first even after wrap-around.
        let mut spans = std::mem::take(&mut self.ring);
        spans.rotate_left(self.head);
        self.collector.absorb(TrackSpans {
            device: self.device,
            stage: self.stage,
            member: self.member,
            spans,
            dropped: self.dropped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(step: u32, t0: u64) -> Span {
        Span {
            kind: SpanKind::Update,
            block: Some(0),
            step,
            t0_ns: t0,
            t1_ns: t0 + 10,
            bytes: 0,
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in [TraceMode::Off, TraceMode::Spans, TraceMode::Full] {
            assert_eq!(m.enabled(), m != TraceMode::Off);
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn recorder_drains_in_order() {
        let c = TraceCollector::new(TraceMode::Spans);
        let mut r = c.recorder(3, 1, 0);
        for i in 0..5 {
            r.record(span(i, u64::from(i) * 100));
        }
        drop(r);
        let report = c.drain();
        assert_eq!(report.tracks.len(), 1);
        let t = &report.tracks[0];
        assert_eq!((t.device, t.stage, t.member), (3, 1, 0));
        assert_eq!(t.spans.len(), 5);
        assert_eq!(t.dropped, 0);
        let steps: Vec<u32> = t.spans.iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let c = TraceCollector::with_capacity(TraceMode::Spans, 4);
        let mut r = c.recorder(0, 0, 0);
        for i in 0..10 {
            r.record(span(i, u64::from(i) * 100));
        }
        drop(r);
        let report = c.drain();
        let t = &report.tracks[0];
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.dropped, 6);
        let steps: Vec<u32> = t.spans.iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9], "tail must survive, oldest-first");
    }

    #[test]
    fn drain_sorts_tracks_by_device() {
        let c = TraceCollector::new(TraceMode::Spans);
        for device in [2usize, 0, 1] {
            let mut r = c.recorder(device, 0, 0);
            r.record(span(0, device as u64));
            drop(r);
        }
        let report = c.drain();
        let devices: Vec<usize> = report.tracks.iter().map(|t| t.device).collect();
        assert_eq!(devices, vec![0, 1, 2]);
    }

    #[test]
    fn timestamps_are_monotone() {
        let c = TraceCollector::new(TraceMode::Spans);
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn events_record_off_hot_path() {
        let c = TraceCollector::new(TraceMode::Full);
        c.event(SpanKind::Restore, 5, 100, 200);
        let report = c.drain();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].kind, SpanKind::Restore);
        assert_eq!(report.span_count(), 1);
    }

    #[test]
    #[should_panic(expected = "off collector")]
    fn off_collector_is_rejected() {
        let _ = TraceCollector::new(TraceMode::Off);
    }
}
