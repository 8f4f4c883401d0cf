//! The trace plane: what the threaded executor *actually* did.
//!
//! The repo already cross-checks three timelines — the analytic estimator
//! (`pipebd_sched::estimate`), the event-level simulator (`pipebd_sim`),
//! and the threaded executor's *results* (bitwise parity with the
//! sequential reference). What none of them record is the executor's own
//! schedule on real threads. This crate closes that gap with a fourth,
//! **measured** timeline:
//!
//! * [`span`] — a per-thread span recorder. Each device thread owns a
//!   bounded ring of [`Span`]s it alone writes (no locks, no atomics on
//!   the hot path); rings flush into the shared [`TraceCollector`] when
//!   the thread finishes. With tracing off the executor pays exactly one
//!   `Option` branch per instrumentation point.
//! * [`metrics`] — a hand-rolled registry of counters, gauges, and
//!   fixed-bucket log₂ histograms, snapshotted into serializable form for
//!   the `pipebd.trace` artifact envelope.
//! * [`chrome`] — Chrome `trace_event` JSON export (open in Perfetto or
//!   `chrome://tracing`) for executor traces *and* simulator task graphs,
//!   on shared track naming so the two render side by side.
//! * [`summary`] — the payoff: [`TraceSummary`] (per-stage busy/bubble
//!   ratios, the measured steady-state period, the critical-path stage)
//!   and [`measured_profile`], which turns real spans into a
//!   [`pipebd_sched::ProfileTable`] the estimator and simulator can
//!   replay. The testkit's trace differential closes the loop.
//!
//! # Overhead contract
//!
//! `PIPEBD_TRACE=off` (the default) constructs no collector: every
//! instrumentation point in the executor reduces to one branch on a
//! `None`, and trained parameters are bitwise identical to an
//! instrumented run (tracing observes the schedule, never the math).
//! `spans` records spans only; `full` additionally populates the metrics
//! registry and compute-pool counters.

#![warn(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod span;
pub mod summary;

pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramBucket, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot,
};
pub use span::{Span, SpanKind, TraceCollector, TraceMode, TraceReport, TrackRecorder, TrackSpans};
pub use summary::{measured_profile, summarize, StageObservation, TraceDifferential, TraceSummary};
