//! Benchmark-side spans around every call into a layer of the stack.
//!
//! The program itself is not instrumented: each span covers one call the
//! benchmark makes into a crate's public API (an elaboration, a serving
//! rung, a wire submit, a figure sweep). Spans carry a name, the layer
//! (crate) called, start and end times, the span they ran inside, and a
//! group id shared by everything belonging to one wave, rung or figure
//! job. They are kept in memory and written once, as a Chrome trace, when
//! the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer (crate) the call went into; `perfbench` for the
    /// benchmark's own work.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// The span this call ran inside.
    pub parent: Option<SpanId>,
    /// The wave, rung or figure job the call belongs to.
    pub group: u64,
    /// Small per-thread number, for the trace viewer.
    pub thread: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every [`Tracer::span`] is a
/// plain call of its closure. Clones share one span list, so job
/// closures on other threads record into the same trace.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    inner: Arc<Inner>,
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_group: AtomicU64,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            inner: Arc::new(Inner {
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
                next_group: AtomicU64::new(1),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh group id for one wave, rung or job.
    pub fn group(&self) -> u64 {
        self.inner.next_group.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` on `layer`. `f` receives the
    /// new span's id (to parent its own calls), or `None` when disabled.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        group: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.inner.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                group,
                thread: thread_number(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.inner.spans.lock().expect("span list lock")[id].end_ns = end;
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::since`]).
    pub fn mark(&self) -> usize {
        self.inner.spans.lock().expect("span list lock").len()
    }

    /// Copies of the spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.inner.spans.lock().expect("span list lock")[mark..].to_vec()
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().expect("span list lock").clone()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children on other threads may overlap
/// each other; overlapping time is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += own;
    }
    by_layer
}

/// Total duration of the spans named `name` on `layer`, in nanoseconds.
pub fn total_ns<'a>(spans: impl IntoIterator<Item = &'a Span>, layer: &str, name: &str) -> u64 {
    spans
        .into_iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, with its id, parent and group in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
            s.name,
            s.layer,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            i,
            parent,
            s.group
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>, layer: &'static str) -> Span {
        Span {
            name: "call",
            layer,
            start_ns,
            end_ns,
            parent,
            group: 0,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, 100, None, "a"),
            span(10, 30, Some(0), "b"),
            span(40, 90, Some(0), "c"),
            span(50, 60, Some(2), "d"),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["a"], 30);
        assert_eq!(by_layer["c"], 40);
        assert_eq!(
            by_layer.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_children_on_two_threads_count_once() {
        let spans = vec![
            span(0, 100, None, "par"),
            span(0, 80, Some(0), "fig6"),
            span(10, 60, Some(0), "fig4"),
        ];
        assert_eq!(self_times(&spans), vec![20, 80, 50]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(10, 50, None, "a"), span(0, 20, Some(0), "b")];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_one_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span(None, "x", "y", 0, |id| id), None);
        assert_eq!(off.mark(), 0);

        let on = Tracer::new(true);
        let g = on.group();
        on.span(None, "outer", "o", g, |outer| {
            on.span(outer, "inner", "i", g, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total_ns(&spans, "inner", "i"), spans[1].duration_ns());
        let json = chrome_json(&spans);
        bsim::perf::validate_json(&json).expect("trace is valid JSON");
        assert!(json.contains("\"parent\":0"));
    }
}
