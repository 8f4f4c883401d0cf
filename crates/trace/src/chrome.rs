//! Chrome `trace_event` JSON export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) consumed by
//! Perfetto and `chrome://tracing`, built on `pipebd_json::Value` — no
//! external serializer. Both the executor's measured spans and the
//! simulator's task timeline export onto **shared track naming**: process
//! 1 is the executor, process 2 the simulator, and device rank `r` is
//! thread `r` named `gpu{r}` in *both*, so [`combined_trace`] renders the
//! measured and simulated timelines one above the other with aligned
//! rows. Simulator-only resources take reserved thread ids: the loader
//! pool is [`LOADER_TID`], copy engines start at [`COPY_TID_BASE`]; the
//! executor's control-plane events (restore/replan) land on
//! [`CONTROL_TID`].
//!
//! Timestamps: `trace_event` wants microseconds; both planes record
//! nanoseconds, so `ts`/`dur` are emitted as floats with three decimals —
//! exact, since a f64 holds ns-scale integers losslessly.

use pipebd_json::{Number, Value};
use pipebd_sim::{Resource, SimRun, TaskGraph, TaskKind};

use crate::span::{Span, TraceReport};

/// Chrome process id of the executor's measured timeline.
pub const EXECUTOR_PID: u64 = 1;
/// Chrome process id of the simulator's timeline.
pub const SIMULATOR_PID: u64 = 2;
/// Thread id of the executor's control-plane track (restore/replan).
pub const CONTROL_TID: u64 = 999;
/// Thread id of the simulator's loader-pool resource.
pub const LOADER_TID: u64 = 1000;
/// First thread id of the simulator's per-device copy engines.
pub const COPY_TID_BASE: u64 = 1100;

fn s(v: &str) -> Value {
    Value::String(v.to_owned())
}

fn n(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn us(ns: u64) -> Value {
    Value::Number(Number::Float(ns as f64 / 1000.0))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A `ph:"M"` metadata event naming a process or thread.
fn metadata(name: &str, pid: u64, tid: Option<u64>, label: &str) -> Value {
    let mut fields = vec![
        ("name", s(name)),
        ("ph", s("M")),
        ("pid", n(pid)),
        ("args", obj(vec![("name", s(label))])),
    ];
    if let Some(tid) = tid {
        fields.insert(3, ("tid", n(tid)));
    }
    obj(fields)
}

/// A `ph:"X"` complete duration event.
fn duration_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    t0_ns: u64,
    dur_ns: u64,
    args: Vec<(&str, Value)>,
) -> Value {
    obj(vec![
        ("name", s(name)),
        ("cat", s(cat)),
        ("ph", s("X")),
        ("ts", us(t0_ns)),
        ("dur", us(dur_ns)),
        ("pid", n(pid)),
        ("tid", n(tid)),
        ("args", obj(args)),
    ])
}

fn span_event(span: &Span, pid: u64, tid: u64) -> Value {
    let name = match span.block {
        Some(b) => format!("{} b{b}", span.kind.label()),
        None => span.kind.label().to_owned(),
    };
    let mut args = vec![("step", n(u64::from(span.step)))];
    if span.bytes > 0 {
        args.push(("bytes", n(span.bytes)));
    }
    duration_event(&name, "exec", pid, tid, span.t0_ns, span.dur_ns(), args)
}

fn executor_events(report: &TraceReport, events: &mut Vec<Value>) {
    events.push(metadata("process_name", EXECUTOR_PID, None, "executor"));
    for track in &report.tracks {
        events.push(metadata(
            "thread_name",
            EXECUTOR_PID,
            Some(track.device as u64),
            &format!(
                "gpu{} (stage {} m{})",
                track.device, track.stage, track.member
            ),
        ));
        for span in &track.spans {
            events.push(span_event(span, EXECUTOR_PID, track.device as u64));
        }
    }
    if !report.events.is_empty() {
        events.push(metadata(
            "thread_name",
            EXECUTOR_PID,
            Some(CONTROL_TID),
            "control",
        ));
        for span in &report.events {
            events.push(span_event(span, EXECUTOR_PID, CONTROL_TID));
        }
    }
}

fn task_kind_label(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Load => "load",
        TaskKind::Teacher => "teacher",
        TaskKind::Student => "student",
        TaskKind::Update => "update",
        TaskKind::Comm => "relay",
        TaskKind::GradShare => "grad_share",
        TaskKind::Sync => "sync",
        TaskKind::Replan => "replan",
    }
}

fn simulator_events(graph: &TaskGraph, run: &SimRun, events: &mut Vec<Value>) {
    events.push(metadata("process_name", SIMULATOR_PID, None, "simulator"));
    for r in 0..graph.num_gpus() {
        events.push(metadata(
            "thread_name",
            SIMULATOR_PID,
            Some(r as u64),
            &format!("gpu{r}"),
        ));
    }
    events.push(metadata(
        "thread_name",
        SIMULATOR_PID,
        Some(LOADER_TID),
        "loader",
    ));
    let mut named_copies = Vec::new();
    for (id, task) in graph.iter() {
        let tid = match task.resource {
            Resource::Gpu(d) => d as u64,
            Resource::Loader => LOADER_TID,
            Resource::Copy(d) => {
                if !named_copies.contains(&d) {
                    named_copies.push(d);
                    events.push(metadata(
                        "thread_name",
                        SIMULATOR_PID,
                        Some(COPY_TID_BASE + d as u64),
                        &format!("copy{d}"),
                    ));
                }
                COPY_TID_BASE + d as u64
            }
        };
        let name = match task.block {
            Some(b) => format!("{} b{b}", task_kind_label(task.kind)),
            None => task_kind_label(task.kind).to_owned(),
        };
        let start = run.start[id.index()].as_ns();
        let finish = run.finish[id.index()].as_ns();
        events.push(duration_event(
            &name,
            "sim",
            SIMULATOR_PID,
            tid,
            start,
            finish.saturating_sub(start),
            vec![("step", n(u64::from(task.step)))],
        ));
    }
}

fn document(events: Vec<Value>) -> Value {
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ns")),
    ])
}

/// Exports an executor trace report as a Chrome trace document.
pub fn executor_trace(report: &TraceReport) -> Value {
    let mut events = Vec::new();
    executor_events(report, &mut events);
    document(events)
}

/// Exports both timelines into one document: the measured executor run as
/// process 1, the simulated schedule as process 2, `gpu{r}` rows aligned.
pub fn combined_trace(report: &TraceReport, graph: &TaskGraph, run: &SimRun) -> Value {
    let mut events = Vec::new();
    executor_events(report, &mut events);
    simulator_events(graph, run, &mut events);
    document(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::span::{SpanKind, TrackSpans};

    fn tiny_report() -> TraceReport {
        TraceReport {
            mode: "spans".into(),
            tracks: vec![TrackSpans {
                device: 0,
                stage: 0,
                member: 0,
                spans: vec![Span {
                    kind: SpanKind::Teacher,
                    block: Some(2),
                    step: 1,
                    t0_ns: 1500,
                    t1_ns: 4000,
                    bytes: 0,
                }],
                dropped: 0,
            }],
            events: vec![Span {
                kind: SpanKind::Restore,
                block: None,
                step: 3,
                t0_ns: 0,
                t1_ns: 10,
                bytes: 0,
            }],
            metrics: MetricsSnapshot::default(),
        }
    }

    fn events_of(doc: &Value) -> &[Value] {
        let Value::Object(fields) = doc else {
            panic!("document is not an object")
        };
        let (_, Value::Array(events)) = &fields[0] else {
            panic!("traceEvents is not an array")
        };
        events
    }

    #[test]
    fn executor_trace_round_trips_through_json() {
        let doc = executor_trace(&tiny_report());
        let text = pipebd_json::to_string_pretty(&doc).unwrap();
        let parsed = pipebd_json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // 1 process meta + 1 thread meta + 1 span + control meta + 1 event.
        assert_eq!(events_of(&doc).len(), 5);
    }

    #[test]
    fn span_events_carry_block_and_microsecond_times() {
        let doc = executor_trace(&tiny_report());
        let span = events_of(&doc)
            .iter()
            .find(|e| {
                let Value::Object(f) = e else { return false };
                f.iter()
                    .any(|(k, v)| k == "name" && v.as_str() == Some("teacher b2"))
            })
            .expect("teacher span present");
        let Value::Object(f) = span else {
            unreachable!()
        };
        let get = |key: &str| f.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(get("pid").unwrap().as_u64(), Some(EXECUTOR_PID));
        assert_eq!(get("tid").unwrap().as_u64(), Some(0));
    }
}
