//! Distributed request spans and the Perfetto flow-event exporter.
//!
//! A [`SpanEvent`] is one cycle-stamped interval in a request's life —
//! admission, queueing on a tenant track, execution on a core track —
//! tagged with the request's `trace_id`. A [`SpanRecorder`] collects them
//! with the same enabled-gated, dropped-counting discipline as
//! [`Tracer`](crate::Tracer), so a disabled recorder costs one branch on
//! the hot path and never changes simulated behaviour.
//!
//! [`perfetto_trace`] renders spans from any number of processes (the
//! fleet maps one shard to one Perfetto process) into a single Chrome
//! trace-event JSON document: `"M"` metadata names the processes and
//! tracks, `"X"` slices carry the intervals, and `"s"`/`"t"`/`"f"` flow
//! events stitch every span sharing a `trace_id` into one arrow chain —
//! admission → queue → core — that Perfetto draws across tracks. The
//! output extends the [`PerfRegistry::chrome_trace`](crate::PerfRegistry::chrome_trace)
//! format and is guarded by the same [`validate_json`](super::validate_json)
//! validator (the vendored `serde` is a stub).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use super::{json_string, TraceWriter};
use crate::time::Cycle;

/// One cycle-stamped interval in a request's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request identity; every span of one request shares it, and the
    /// exporter threads a flow arrow through them in cycle order.
    pub trace_id: u64,
    /// Track (Perfetto thread) the span renders on, e.g. `"admission"`,
    /// `"tenant3"`, `"core0"`.
    pub track: String,
    /// Slice label, e.g. `"admit"`, `"queue"`, `"execute"`.
    pub name: String,
    /// First cycle of the interval.
    pub start: Cycle,
    /// Last cycle of the interval (`>= start`; instants use `end == start`
    /// and render with a 1-cycle floor so they stay visible).
    pub end: Cycle,
}

#[derive(Debug, Default)]
struct SpanInner {
    enabled: bool,
    events: Vec<SpanEvent>,
    dropped: u64,
}

/// A shared, cloneable span collector. Disabled by default: recording
/// while disabled costs one branch and bumps [`SpanRecorder::dropped`],
/// exactly like [`Tracer`](crate::Tracer).
#[derive(Debug, Default, Clone)]
pub struct SpanRecorder {
    inner: Arc<Mutex<SpanInner>>,
}

impl SpanRecorder {
    /// Creates a disabled recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an enabled recorder.
    pub fn enabled() -> Self {
        let r = Self::default();
        r.set_enabled(true);
        r
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.lock().unwrap().enabled = enabled;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.inner.lock().unwrap().enabled
    }

    /// Records one span if enabled; otherwise counts it as dropped.
    pub fn span(
        &self,
        trace_id: u64,
        track: impl Into<String>,
        name: impl Into<String>,
        start: Cycle,
        end: Cycle,
    ) {
        let mut inner = self.inner.lock().unwrap();
        if inner.enabled {
            inner.events.push(SpanEvent {
                trace_id,
                track: track.into(),
                name: name.into(),
                start,
                end,
            });
        } else {
            inner.dropped += 1;
        }
    }

    /// Spans offered while disabled (never reset).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// All recorded spans in record order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every recorded span (keeps the enabled flag).
    pub fn take_events(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.inner.lock().unwrap().events)
    }
}

/// One Perfetto process worth of spans — the fleet exports one per shard.
#[derive(Debug, Clone)]
pub struct ProcessSpans {
    /// Perfetto pid (the shard index).
    pub pid: u32,
    /// Process display name, e.g. `"shard0"`.
    pub name: String,
    /// The process's spans.
    pub spans: Vec<SpanEvent>,
}

/// Renders a merged Chrome trace-event JSON document from per-process
/// span sets: one Perfetto process per entry, one thread per distinct
/// track (first-seen order), `"X"` slices for the spans, and
/// `"s"`/`"t"`/`"f"` flow events chaining each `trace_id`'s spans in
/// `(start, end)` order. `period_ps` converts cycles to microseconds, as
/// in [`PerfRegistry::chrome_trace`](crate::PerfRegistry::chrome_trace).
pub fn perfetto_trace(processes: &[ProcessSpans], period_ps: u64) -> String {
    let mut w = TraceWriter::new(period_ps);
    // Flow steps: trace_id -> (start, end, pid, tid) per span, collected
    // while emitting slices so the chain is assembled in one pass.
    let mut flows: BTreeMap<u64, Vec<(Cycle, Cycle, u32, usize)>> = BTreeMap::new();
    for process in processes {
        w.process(process.pid, &process.name);
        let tids = w.threads(process.pid, process.spans.iter().map(|s| s.track.as_str()));
        for span in &process.spans {
            let tid = tids[span.track.as_str()];
            // 1-cycle duration floor keeps instant spans visible.
            let dur = span.end.saturating_sub(span.start).max(1);
            w.event(format_args!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{:.4},\"dur\":{:.4},\
                 \"name\":{},\"args\":{{\"trace_id\":{}}}}}",
                process.pid,
                w.us(span.start),
                w.us(dur),
                json_string(&span.name),
                span.trace_id,
            ));
            flows
                .entry(span.trace_id)
                .or_default()
                .push((span.start, span.end, process.pid, tid));
        }
    }
    // Flow arrows: each trace_id's spans in timeline order; a single-span
    // request gets no arrow (there is nothing to connect).
    for (trace_id, mut steps) in flows {
        if steps.len() < 2 {
            continue;
        }
        steps.sort_by_key(|&(start, end, pid, tid)| (start, end, pid, tid));
        let last = steps.len() - 1;
        for (i, (start, _end, pid, tid)) in steps.into_iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            // "f" binds to the enclosing slice like "s"/"t" do: ts at the
            // slice start, with bp:"e" so Perfetto attaches it there.
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            w.event(format_args!(
                "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.4},\
                 \"id\":{trace_id},\"cat\":\"request\",\"name\":\"job\"{bp}}}",
                w.us(start),
            ));
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::super::validate_json;
    use super::*;

    #[test]
    fn disabled_recorder_drops_and_counts() {
        let r = SpanRecorder::new();
        r.span(1, "admission", "admit", 0, 5);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        r.set_enabled(true);
        r.span(1, "admission", "admit", 0, 5);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn take_events_drains_but_keeps_enabled() {
        let r = SpanRecorder::enabled();
        r.span(7, "core0", "execute", 10, 20);
        let events = r.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, 7);
        assert!(r.is_empty());
        assert!(r.is_enabled());
    }

    #[test]
    fn perfetto_trace_threads_flows_across_tracks_and_processes() {
        let processes = vec![
            ProcessSpans {
                pid: 0,
                name: "shard0".to_owned(),
                spans: vec![
                    SpanEvent {
                        trace_id: 3,
                        track: "admission".to_owned(),
                        name: "admit".to_owned(),
                        start: 0,
                        end: 0,
                    },
                    SpanEvent {
                        trace_id: 3,
                        track: "tenant1".to_owned(),
                        name: "queue".to_owned(),
                        start: 0,
                        end: 40,
                    },
                    SpanEvent {
                        trace_id: 3,
                        track: "core0".to_owned(),
                        name: "execute".to_owned(),
                        start: 40,
                        end: 90,
                    },
                ],
            },
            ProcessSpans {
                pid: 1,
                name: "shard1".to_owned(),
                spans: vec![SpanEvent {
                    trace_id: 8,
                    track: "core0".to_owned(),
                    name: "execute".to_owned(),
                    start: 5,
                    end: 25,
                }],
            },
        ];
        let json = perfetto_trace(&processes, 4_000);
        validate_json(&json).expect("merged trace must be valid JSON");
        assert!(json.contains("\"name\":\"shard0\""));
        assert!(json.contains("\"name\":\"shard1\""));
        // Request 3 crosses three tracks: one start, one step, one finish.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1, "{json}");
        // Request 8 has a single span: slices only, no dangling arrow.
        assert!(json.contains("\"id\":3"));
        assert!(!json.contains("\"id\":8"));
        // Every span rendered as a slice.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        // Pinned bytes: the exporter's output is a compatibility surface.
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"shard0"}},"#,
                r#"{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"admission"}},"#,
                r#"{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"core0"}},"#,
                r#"{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"tenant1"}},"#,
                r#"{"ph":"X","pid":0,"tid":1,"ts":0.0000,"dur":0.0040,"name":"admit","#,
                r#""args":{"trace_id":3}},"#,
                r#"{"ph":"X","pid":0,"tid":2,"ts":0.0000,"dur":0.1600,"name":"queue","#,
                r#""args":{"trace_id":3}},"#,
                r#"{"ph":"X","pid":0,"tid":3,"ts":0.1600,"dur":0.2000,"name":"execute","#,
                r#""args":{"trace_id":3}},"#,
                r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"shard1"}},"#,
                r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"core0"}},"#,
                r#"{"ph":"X","pid":1,"tid":1,"ts":0.0200,"dur":0.0800,"name":"execute","#,
                r#""args":{"trace_id":8}},"#,
                r#"{"ph":"s","pid":0,"tid":1,"ts":0.0000,"id":3,"cat":"request","name":"job"},"#,
                r#"{"ph":"t","pid":0,"tid":2,"ts":0.0000,"id":3,"cat":"request","name":"job"},"#,
                r#"{"ph":"f","pid":0,"tid":3,"ts":0.1600,"id":3,"cat":"request","name":"job","#,
                r#""bp":"e"}]}"#,
            )
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = perfetto_trace(&[], 1_000);
        validate_json(&json).expect("empty merged trace must be valid JSON");
        assert_eq!(json, r#"{"displayTimeUnit":"ns","traceEvents":[]}"#);
    }
}
