//! Named metrics with units and sample counts, printed for people and as
//! the one-line JSON result.

use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured (full precision).
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `cycles`.
    pub unit: &'static str,
    /// How many observations the value summarises.
    pub samples: usize,
    /// How the value was formed (statistic and source).
    pub note: String,
}

/// An ordered set of metrics with unique names.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// If the name is already present or the value is not finite; both
    /// are bugs in the benchmark.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// Adds `<prefix>p50<suffix>` and `<prefix>p99<suffix>` of `values` in
    /// cycles, exact and with the sample count, failing if fewer than ten
    /// samples lie beyond the p99.
    pub fn add_p50_p99(
        &mut self,
        prefix: &str,
        suffix: &str,
        values: &[u64],
        what: &str,
    ) -> Result<(), String> {
        let v = stats::sorted(values);
        if !stats::supports(v.len(), 99.0) {
            return Err(format!("{what}: {} samples cannot support a p99", v.len()));
        }
        for p in [50.0, 99.0] {
            let name = format!("{prefix}p{p}{suffix}");
            self.add(
                name,
                stats::percentile(&v, p) as f64,
                "cycles",
                v.len(),
                what,
            );
        }
        Ok(())
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// One line per metric: name, value, unit, sample count, note.
    pub fn human(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<width$} = {} {} (n={}; {})\n",
                m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric as `{"value": .., "unit": ..}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
             \"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// A finite float in JSON syntax, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_valid_and_keeps_digits() {
        let mut r = Report::default();
        r.add("wall_s", 1.234_567_890_123, "s", 5, "median of 5 passes");
        r.add("bdram.bytes", 4096.0, "bytes", 1, "counter");
        let line = r.json(true, 10, 0);
        bsim::perf::validate_json(&line).expect("valid JSON");
        assert!(line.contains("\"wall_s\":{\"value\":1.234567890123,\"unit\":\"s\"}"));
        assert!(line.contains("\"bdram.bytes\":{\"value\":4096.0,"));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(r.human().contains("n=5"));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_a_bug() {
        let mut r = Report::default();
        r.add("x", 1.0, "s", 1, "");
        r.add("x", 2.0, "s", 1, "");
    }
}
