//! Hierarchical performance-counter registry — the reproduction's PMU.
//!
//! The paper's simulation platform exists "for debugging and performance
//! prediction" (§II-D). This module is the prediction half: every layer of
//! the elaborated SoC registers a [`CounterSet`] here (DRAM channels, AXI
//! controllers, Readers/Writers, the MMIO frontend, the scheduler itself),
//! and the host consumes the registry two ways, like a real PMU:
//!
//! 1. **Live**: an MMIO-mapped counter window (`bcore::mmio`) lets host
//!    programs select and read any counter mid-run.
//! 2. **Post-mortem**: [`PerfRegistry::report`] renders a text profile and
//!    [`PerfRegistry::chrome_trace`] emits Chrome trace-event JSON
//!    (openable at <https://ui.perfetto.dev>) with slices from
//!    [`Tracer`](crate::Tracer) events and counter tracks from windowed
//!    samples.
//!
//! Counters are branch-on-enabled: a disabled [`Counter::add`] is a single
//! predictable-false branch, so instrumented hot paths cost nothing
//! measurable when profiling is off, and counters never feed back into
//! simulated behaviour, so cycle counts are byte-identical with profiling
//! on or off (guarded by a lockstep test in `bkernels`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::{Histogram, Stats};
use crate::time::Cycle;
use crate::trace::TraceEvent;

pub mod flight;
pub mod span;
pub mod window;

/// A cheap shared `u64` counter. Incrementing is a branch on the
/// registry's enabled flag plus a relaxed atomic add — suitable for
/// per-cycle hot paths (uncontended within one simulation, and `Send` so
/// counters can ride along when an SoC moves threads). Clone freely;
/// clones share the value.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// A counter connected to no registry: always disabled, never counts.
    /// Components hold one of these until
    /// [`CounterSet::counter`] replaces it at elaboration.
    pub fn detached() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Adds `delta` if the owning registry is enabled.
    #[inline]
    pub fn add(&self, delta: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments by one if the owning registry is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current raw value (ignores reset baselines; host-facing reads go
    /// through [`PerfRegistry::counters`]).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::detached()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Pull-model counter source: returns `(name, value)` pairs on demand.
type Provider = Box<dyn Fn() -> Vec<(String, u64)> + Send>;

#[derive(Default)]
struct SetEntries {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    stats: Vec<Stats>,
    providers: Vec<Provider>,
}

#[derive(Default)]
struct RegistryInner {
    sets: BTreeMap<String, SetEntries>,
    /// Raw values captured at the last [`PerfRegistry::reset`], keyed by
    /// flattened `path/name`. Reads subtract this instead of zeroing the
    /// sources, because some attached stats are load-bearing for component
    /// behaviour (e.g. the Writer's AXI-ID rotation).
    baseline: BTreeMap<String, u64>,
    /// Windowed samples for counter tracks: (cycle, counters at cycle).
    samples: Vec<(Cycle, Vec<(String, u64)>)>,
}

impl RegistryInner {
    /// Current merged counter values for one set (raw, pre-baseline).
    fn set_values(&self, entries: &SetEntries) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, cell) in &entries.counters {
            *out.entry(name.clone()).or_insert(0) += cell.load(Ordering::Relaxed);
        }
        for stats in &entries.stats {
            for (name, value) in stats.counters() {
                *out.entry(name).or_insert(0) += value;
            }
        }
        for provider in &entries.providers {
            for (name, value) in provider() {
                *out.entry(name).or_insert(0) += value;
            }
        }
        out
    }

    /// All counters as flattened, baseline-subtracted `path/name` pairs.
    fn flat_counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (path, entries) in &self.sets {
            for (name, value) in self.set_values(entries) {
                let key = format!("{path}/{name}");
                let base = self.baseline.get(&key).copied().unwrap_or(0);
                out.push((key, value.saturating_sub(base)));
            }
        }
        out
    }
}

/// The SoC-wide registry: one per elaborated design. Clone freely —
/// clones share state, like handles to one PMU block.
#[derive(Clone, Default)]
pub struct PerfRegistry {
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<RegistryInner>>,
}

impl PerfRegistry {
    /// Creates an empty, disabled registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables every [`Counter`] minted from this registry.
    /// Attached [`Stats`] bags and providers are *not* gated — they belong
    /// to the components and may be load-bearing.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether counters are live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Gets or creates the counter set registered under `path`
    /// (`/`-separated hierarchy, e.g. `"mem0"` or `"cores/Doubler0"`).
    pub fn set(&self, path: &str) -> CounterSet {
        self.inner
            .lock()
            .unwrap()
            .sets
            .entry(path.to_owned())
            .or_default();
        CounterSet {
            path: path.to_owned(),
            enabled: Arc::clone(&self.enabled),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Force-sets the raw value of `path/name`, creating it if needed.
    /// Used for externally-owned values pushed into the registry (e.g. the
    /// scheduler's executed/skipped cycle counts, synced before reads).
    pub fn set_value(&self, path: &str, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        let entries = inner.sets.entry(path.to_owned()).or_default();
        entries
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .store(value, Ordering::Relaxed);
    }

    /// All counters as sorted, flattened `path/name` pairs, with the reset
    /// baseline subtracted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.lock().unwrap().flat_counters()
    }

    /// Sorted flattened counter names — the MMIO window's index space.
    pub fn counter_names(&self) -> Vec<String> {
        self.counters().into_iter().map(|(n, _)| n).collect()
    }

    /// Value of one flattened counter name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// One histogram by its flattened `path/name`, if an attached stats bag
    /// recorded it (e.g. `server/tenant0/latency_cycles`).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All histograms from attached stats bags as sorted flattened pairs.
    /// Histograms are not baselined (samples cannot be un-recorded).
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::new();
        for (path, entries) in &inner.sets {
            for stats in &entries.stats {
                for (name, h) in stats.histograms() {
                    out.push((format!("{path}/{name}"), h));
                }
            }
        }
        out
    }

    /// Snapshot-and-rebase: records current raw values as the new zero, so
    /// subsequent [`PerfRegistry::counters`] reads report deltas. The
    /// underlying sources are *not* zeroed — attached stats may be
    /// load-bearing for component behaviour, so reset must never write
    /// back into them.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        let mut baseline = BTreeMap::new();
        for (path, entries) in &inner.sets {
            for (name, value) in inner.set_values(entries) {
                baseline.insert(format!("{path}/{name}"), value);
            }
        }
        inner.baseline = baseline;
    }

    /// Records a windowed sample of every counter at `cycle`, for the
    /// trace exporter's counter tracks.
    pub fn sample(&self, cycle: Cycle) {
        let mut inner = self.inner.lock().unwrap();
        let snap = inner.flat_counters();
        inner.samples.push((cycle, snap));
    }

    /// All windowed samples recorded so far.
    pub fn samples(&self) -> Vec<(Cycle, Vec<(String, u64)>)> {
        self.inner.lock().unwrap().samples.clone()
    }

    /// Renders the text profile report: counters grouped by set, plus
    /// every histogram with count/mean/percentiles.
    pub fn report(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("perf report\n===========\n");
        for (path, entries) in &inner.sets {
            let values = inner.set_values(entries);
            let mut histograms: Vec<(String, Histogram)> = Vec::new();
            for stats in &entries.stats {
                histograms.extend(stats.histograms());
            }
            if values.is_empty() && histograms.is_empty() {
                continue;
            }
            out.push_str(&format!("[{path}]\n"));
            for (name, value) in values {
                let key = format!("{path}/{name}");
                let base = inner.baseline.get(&key).copied().unwrap_or(0);
                out.push_str(&format!("  {:<40} {}\n", name, value.saturating_sub(base)));
            }
            for (name, h) in histograms {
                out.push_str(&format!(
                    "  {:<40} count={} mean={:.1} p50={} p90={} p99={} min={} max={}\n",
                    name,
                    h.count(),
                    h.mean(),
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        out
    }

    /// Emits a Chrome trace-event JSON document (Perfetto-compatible):
    /// one slice per [`TraceEvent`] (threads are trace channels) and one
    /// counter track per sampled counter. `period_ps` converts cycles to
    /// trace microseconds. Open the result at <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self, events: &[TraceEvent], period_ps: u64) -> String {
        let mut w = TraceWriter::new(period_ps);
        w.process(0, "beethoven-sim");
        // One trace thread per channel.
        let tids = w.threads(0, events.iter().map(|e| e.channel.as_str()));
        for event in events {
            w.event(format_args!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.4},\"dur\":{:.4},\
                 \"name\":{},\"args\":{{\"id\":{}}}}}",
                tids[event.channel.as_str()],
                w.us(event.cycle),
                w.us(1),
                json_string(&event.detail),
                event.id,
            ));
        }
        for (cycle, counters) in self.inner.lock().unwrap().samples.iter() {
            for (name, value) in counters {
                w.event(format_args!(
                    "{{\"ph\":\"C\",\"pid\":0,\"ts\":{:.4},\"name\":{},\
                     \"args\":{{\"value\":{value}}}}}",
                    w.us(*cycle),
                    json_string(name),
                ));
            }
        }
        w.finish()
    }
}

impl std::fmt::Debug for PerfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfRegistry")
            .field("enabled", &self.is_enabled())
            .field("sets", &self.inner.lock().unwrap().sets.len())
            .finish()
    }
}

/// One component's slice of the registry, created via
/// [`PerfRegistry::set`]. Mint [`Counter`]s from it at elaboration time
/// and hand them to the component; attach existing [`Stats`] bags and
/// pull-model providers for values the component already maintains.
#[derive(Clone)]
pub struct CounterSet {
    path: String,
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<RegistryInner>>,
}

impl CounterSet {
    /// The set's registration path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Gets or creates the cheap counter `name` in this set.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        let entries = inner.sets.entry(self.path.clone()).or_default();
        let value = Arc::clone(
            entries
                .counters
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        );
        Counter {
            value,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Attaches an existing [`Stats`] bag: its counters and histograms are
    /// merged into this set on every read. The bag stays owned by the
    /// component and is never written by the registry.
    pub fn attach_stats(&self, stats: &Stats) {
        self.inner
            .lock()
            .unwrap()
            .sets
            .entry(self.path.clone())
            .or_default()
            .stats
            .push(stats.clone());
    }

    /// Attaches a pull-model provider: invoked on every registry read to
    /// contribute (name, value) pairs (e.g. DRAM channel stats that live
    /// in a plain struct). Must not re-enter the registry.
    pub fn add_provider(&self, provider: impl Fn() -> Vec<(String, u64)> + Send + 'static) {
        self.inner
            .lock()
            .unwrap()
            .sets
            .entry(self.path.clone())
            .or_default()
            .providers
            .push(Box::new(provider));
    }
}

impl std::fmt::Debug for CounterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CounterSet({})", self.path)
    }
}

/// The Chrome trace-event JSON writer behind both exporters
/// ([`PerfRegistry::chrome_trace`] and [`span::perfetto_trace`]): the
/// document envelope, comma separation, the process/thread metadata rows
/// and the cycle-to-microsecond conversion.
struct TraceWriter {
    out: String,
    first: bool,
    period_ps: u64,
}

impl TraceWriter {
    fn new(period_ps: u64) -> Self {
        TraceWriter {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["),
            first: true,
            period_ps,
        }
    }

    /// Trace microseconds at `cycle`.
    fn us(&self, cycle: Cycle) -> f64 {
        (cycle as f64) * (self.period_ps as f64) / 1e6
    }

    /// Appends one event object.
    fn event(&mut self, item: std::fmt::Arguments<'_>) {
        use std::fmt::Write as _;
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
            .write_fmt(item)
            .expect("writing to a String cannot fail");
    }

    /// Emits process `pid`'s name row.
    fn process(&mut self, pid: u32, name: &str) {
        self.event(format_args!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }

    /// Numbers process `pid`'s tracks from 1 in first-seen order, emits
    /// one thread-name row per track (sorted by name) and returns the
    /// track-to-tid map.
    fn threads<'a>(
        &mut self,
        pid: u32,
        tracks: impl IntoIterator<Item = &'a str>,
    ) -> BTreeMap<&'a str, usize> {
        let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
        for track in tracks {
            let next = tids.len() + 1;
            tids.entry(track).or_insert(next);
        }
        for (track, tid) in &tids {
            self.event(format_args!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(track)
            ));
        }
        tids
    }

    /// Closes the document.
    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Validates that `s` is one well-formed JSON document. The vendored
/// `serde` is a no-op stub, so trace output is checked with this small
/// recursive-descent validator instead (used by the profile-smoke test).
///
/// # Errors
///
/// Returns a byte-offset description of the first syntax error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    json_skip_ws(bytes, &mut pos);
    json_value(bytes, &mut pos)?;
    json_skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn json_skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => json_object(bytes, pos),
        Some(b'[') => json_array(bytes, pos),
        Some(b'"') => json_str(bytes, pos),
        Some(b't') => json_lit(bytes, pos, b"true"),
        Some(b'f') => json_lit(bytes, pos, b"false"),
        Some(b'n') => json_lit(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => json_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn json_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    json_skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        json_skip_ws(bytes, pos);
        json_str(bytes, pos)?;
        json_skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        json_skip_ws(bytes, pos);
        json_value(bytes, pos)?;
        json_skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn json_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    json_skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        json_skip_ws(bytes, pos);
        json_value(bytes, pos)?;
        json_skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn json_str(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            0x00..=0x1f => {
                return Err(format!(
                    "unescaped control char in string at byte {pos}",
                    pos = *pos
                ))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn json_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = json_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}", pos = *pos));
    }
    if bytes.get(start) == Some(&b'0') && int_digits > 1
        || bytes.get(start) == Some(&b'-') && bytes.get(start + 1) == Some(&b'0') && int_digits > 1
    {
        return Err(format!("leading zero at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if json_digits(bytes, pos) == 0 {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if json_digits(bytes, pos) == 0 {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    Ok(())
}

fn json_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn json_lit(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_gated_on_enabled() {
        let perf = PerfRegistry::new();
        let c = perf.set("mem0").counter("beats");
        c.incr();
        assert_eq!(c.get(), 0, "disabled counters must not count");
        perf.set_enabled(true);
        c.add(5);
        assert_eq!(c.get(), 5);
        perf.set_enabled(false);
        c.incr();
        assert_eq!(c.get(), 5);
        assert_eq!(perf.counter("mem0/beats"), Some(5));
    }

    #[test]
    fn detached_counter_never_counts() {
        let c = Counter::detached();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_flatten_with_paths_and_sort() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        perf.set("b").counter("y").incr();
        perf.set("a").counter("x").add(2);
        let flat = perf.counters();
        assert_eq!(
            flat,
            vec![("a/x".to_owned(), 2), ("b/y".to_owned(), 1)],
            "sets sort by path"
        );
    }

    #[test]
    fn attached_stats_merge_into_the_set() {
        let perf = PerfRegistry::new();
        let stats = Stats::new();
        stats.add("reads", 7);
        stats.record("latency", 16);
        perf.set("dram").attach_stats(&stats);
        assert_eq!(perf.counter("dram/reads"), Some(7));
        let histograms = perf.histograms();
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].0, "dram/latency");
        assert_eq!(histograms[0].1.count(), 1);
    }

    #[test]
    fn providers_contribute_on_read() {
        let perf = PerfRegistry::new();
        let value = Arc::new(AtomicU64::new(3));
        let v2 = Arc::clone(&value);
        perf.set("ch0")
            .add_provider(move || vec![("bytes".to_owned(), v2.load(Ordering::Relaxed))]);
        assert_eq!(perf.counter("ch0/bytes"), Some(3));
        value.store(9, Ordering::Relaxed);
        assert_eq!(perf.counter("ch0/bytes"), Some(9));
    }

    #[test]
    fn reset_rebases_without_zeroing_sources() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        let stats = Stats::new();
        stats.add("aw_issued", 4);
        let set = perf.set("writer");
        set.attach_stats(&stats);
        let c = set.counter("stalls");
        c.add(10);
        perf.reset();
        assert_eq!(perf.counter("writer/stalls"), Some(0));
        assert_eq!(perf.counter("writer/aw_issued"), Some(0));
        assert_eq!(stats.get("aw_issued"), 4, "source must not be zeroed");
        assert_eq!(c.get(), 10, "raw counter must not be zeroed");
        c.add(2);
        stats.incr("aw_issued");
        assert_eq!(perf.counter("writer/stalls"), Some(2));
        assert_eq!(perf.counter("writer/aw_issued"), Some(1));
    }

    #[test]
    fn set_value_forces_raw_counters() {
        let perf = PerfRegistry::new();
        perf.set_value("scheduler", "executed_cycles", 123);
        assert_eq!(perf.counter("scheduler/executed_cycles"), Some(123));
        perf.set_value("scheduler", "executed_cycles", 200);
        assert_eq!(perf.counter("scheduler/executed_cycles"), Some(200));
    }

    #[test]
    fn samples_capture_counter_progression() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        let c = perf.set("mem").counter("beats");
        perf.sample(0);
        c.add(8);
        perf.sample(100);
        let samples = perf.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].1[0], ("mem/beats".to_owned(), 0));
        assert_eq!(samples[1].1[0], ("mem/beats".to_owned(), 8));
    }

    #[test]
    fn report_groups_by_set_and_shows_histograms() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        perf.set("mem0").counter("r_beats").add(42);
        let stats = Stats::new();
        for v in [4, 8, 100] {
            stats.record("read_latency_cycles", v);
        }
        perf.set("mem0").attach_stats(&stats);
        let report = perf.report();
        assert!(report.contains("[mem0]"));
        assert!(report.contains("r_beats"));
        assert!(report.contains("42"));
        assert!(report.contains("read_latency_cycles"));
        assert!(report.contains("count=3"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slices_and_counters() {
        let perf = PerfRegistry::new();
        perf.set_enabled(true);
        perf.set("mem").counter("beats").add(1);
        perf.sample(10);
        let events = vec![
            TraceEvent {
                cycle: 5,
                channel: "AR".to_owned(),
                id: 2,
                detail: "read \"x\"\n".to_owned(),
            },
            TraceEvent {
                cycle: 9,
                channel: "R".to_owned(),
                id: 2,
                detail: "beat".to_owned(),
            },
        ];
        let json = perf.chrome_trace(&events, 4_000);
        validate_json(&json).expect("trace must be valid JSON");
        // Pinned bytes: the exporter's output is a compatibility surface.
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"ph":"M","pid":0,"tid":0,"name":"process_name","#,
                r#""args":{"name":"beethoven-sim"}},"#,
                r#"{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"AR"}},"#,
                r#"{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"R"}},"#,
                r#"{"ph":"X","pid":0,"tid":1,"ts":0.0200,"dur":0.0040,"name":"read \"x\"\n","#,
                r#""args":{"id":2}},"#,
                r#"{"ph":"X","pid":0,"tid":2,"ts":0.0360,"dur":0.0040,"name":"beat","#,
                r#""args":{"id":2}},"#,
                r#"{"ph":"C","pid":0,"ts":0.0400,"name":"mem/beats","args":{"value":1}}]}"#,
            )
        );
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let perf = PerfRegistry::new();
        let json = perf.chrome_trace(&[], 1_000);
        validate_json(&json).expect("empty trace must be valid JSON");
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"ph":"M","pid":0,"tid":0,"name":"process_name","#,
                r#""args":{"name":"beethoven-sim"}}]}"#,
            )
        );
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-0.5e+3",
            "[1, 2.5, \"a\\u00e9\\n\", {\"k\": [true, false, null]}]",
            " { \"a\" : 1 } ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok} should parse: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "\"bad\\q\"",
            "tru",
            "{} {}",
            "[\"\u{1}\"]",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
