//! Benchmark-side spans: what the harness itself timed, and under what.
//!
//! Every call the benchmark makes into a layer of the repo is wrapped in a
//! span `{name, start, end, parent, calls}` recorded here, in memory, and
//! written to `benchmark/out/<workload>.spans.json` when the run ends.
//! Executor-internal spans come from the repo's own trace plane
//! (`pipebd_trace`) and are aggregated in `exec_trace`; nothing in this
//! file reaches inside the program under test.

use std::time::Instant;

use pipebd_json::{Number, Value};

/// One timed interval. `parent` indexes the enclosing span in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls into the layer the interval covers (a span around a batch of
    /// nanosecond-scale calls covers many).
    pub calls: u64,
}

impl BenchSpan {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log of one benchmark process (single-threaded: only
/// the driver thread of the closed loop records).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `calls` layer calls,
    /// nested under whatever span is currently open. Returns `f`'s result
    /// and the span's duration in nanoseconds.
    pub fn timed<T>(
        &mut self,
        name: &str,
        calls: u64,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> (T, u64) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            calls,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// The log as a JSON array, each span with its self time.
    pub fn to_json(&self) -> Value {
        let self_ns = self_times(&self.spans);
        let num = |v: u64| Value::Number(Number::PosInt(v));
        Value::Array(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, own)| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.clone())),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| num(p as u64)),
                        ),
                        ("calls".into(), num(s.calls)),
                        ("self_ns".into(), num(own)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are merged first, so
/// shared coverage is subtracted once).
pub fn self_times(spans: &[BenchSpan]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> BenchSpan {
        BenchSpan {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // Sticks out past the parent's end: only [190, 200) counts.
            span("c", 190, 230, Some(0)),
        ];
        // Covered: [110,160) = 50, plus [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn timed_nests_under_the_open_span_and_returns_its_duration() {
        let mut log = SpanLog::new();
        let ((), outer) = log.timed("outer", 1, |log| {
            log.timed("inner", 4, |_| ());
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].calls, 4);
        assert_eq!(spans[0].dur_ns(), outer);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(log.to_json().as_array().unwrap().len(), 2);
    }
}
