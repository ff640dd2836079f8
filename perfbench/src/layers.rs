//! The per-layer metric set and the counter arithmetic behind it.
//!
//! Every workload reports every per-layer metric; a layer the workload
//! does not exercise reports 0 with a note saying so, which is itself the
//! prediction ("bnet does not move on serve").

use std::collections::BTreeMap;

use crate::report::Report;
use crate::serve::LADDER_GAPS;

/// Per-layer metrics that do not depend on the serving ladder, in report
/// order, with units.
const FIXED: &[(&str, &str)] = &[
    ("bcore.elaborate_ms", "ms"),
    ("bruntime.alloc_init_ms", "ms"),
    ("bsim.executed_cycles", "cycles"),
    ("bsim.skipped_cycles", "cycles"),
    ("bsim.ticked_component_cycles", "count"),
    ("bsim.registered_component_cycles", "count"),
    ("bsim.host_ns_per_ticked_component_cycle", "ns"),
    ("bdram.bytes", "bytes"),
    ("bdram.row_hit_ratio", "ratio"),
    ("bdram.refresh_stall_cycles", "cycles"),
    ("bdram.host_ns_per_kib", "ns"),
    ("baxi.beats", "count"),
    ("baxi.backpressure_cycles", "cycles"),
    ("bserver.host_us_per_cmd", "us"),
    ("bserver.queue_wait_p50_cycles", "cycles"),
    ("bserver.queue_wait_p99_cycles", "cycles"),
    ("bserver.service_p50_cycles", "cycles"),
    ("bserver.service_p99_cycles", "cycles"),
    ("bserver.dispatched", "count"),
    ("bserver.rejected", "count"),
    ("bserver.retried", "count"),
    ("bserver.lock_wait_cycles", "cycles"),
    ("bserver.coalesced_wakes", "count"),
    ("bserver.queue_depth_peak", "count"),
    ("bserver.shard_imbalance", "ratio"),
    ("bnet.submit_us_p50", "us"),
    ("bnet.barrier_ms_p50", "ms"),
    ("bnet.inproc_wave_ms_p50", "ms"),
    ("bnet.overhead_ms_per_wave", "ms"),
    ("bnet.encode_ns_per_frame", "ns"),
    ("bnet.decode_ns_per_frame", "ns"),
    ("bnet.frames_in", "count"),
    ("bnet.frames_out", "count"),
    ("bnet.bytes_in", "bytes"),
    ("bnet.bytes_out", "bytes"),
    ("bnet.waves", "count"),
    ("bnet.proto_errors", "count"),
    ("bnet.shed_commands", "count"),
    ("bnet.evicted_conns", "count"),
    ("bbench.par.serial_estimate_s", "s"),
    ("bbench.par.span_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("e2e.fail_ratio", "ratio"),
    ("e2e.sim_p50_cycles", "cycles"),
    ("e2e.sim_p99_cycles", "cycles"),
    ("e2e.slo_rate_per_kcycle", "jobs/kcycle"),
    ("e2e.wave_ms_p50", "ms"),
    ("e2e.wave_ms_p90", "ms"),
    ("e2e.wave_ms_tail", "ms"),
];

/// Layers whose self time the traced run attributes (the crates the
/// benchmark calls into, plus its own work).
pub const SPAN_LAYERS: &[&str] = &[
    "perfbench",
    "bbench",
    "bbench.par",
    "bcore",
    "bkernels",
    "bruntime",
    "bserver",
    "bnet",
];

/// Name of the per-rung p99 metric for the ladder rung with mean
/// inter-arrival gap `gap`.
pub fn rung_metric(gap: u64) -> String {
    format!("bserver.p99_cycles.gap{gap}")
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        FIXED.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
    let at = names
        .iter()
        .position(|(n, _)| n == "bserver.dispatched")
        .expect("dispatched is listed");
    for (i, gap) in LADDER_GAPS.iter().enumerate() {
        names.insert(at + i, (rung_metric(*gap), "cycles"));
    }
    for layer in SPAN_LAYERS {
        names.push((format!("self_share.{layer}"), "ratio"));
    }
    names
}

/// Values a workload measured, keyed by per-layer metric name:
/// `(value, samples, note)`.
pub type LayerValues = BTreeMap<String, (f64, usize, String)>;

/// Records one measured per-layer value.
pub fn put(values: &mut LayerValues, name: &str, value: f64, samples: usize, note: &str) {
    values.insert(name.to_owned(), (value, samples, note.to_owned()));
}

/// Records every metric of `report` under `<prefix><name>`.
pub fn put_all(values: &mut LayerValues, prefix: &str, report: &Report) {
    for m in report.metrics() {
        put(
            values,
            &format!("{prefix}{}", m.name),
            m.value,
            m.samples,
            &m.note,
        );
    }
}

/// Builds the per-layer report: every name, measured or 0.
///
/// # Panics
///
/// If `values` names a metric outside the per-layer set (a benchmark bug).
pub fn per_layer_report(values: &LayerValues) -> Report {
    let names = per_layer_names();
    for key in values.keys() {
        assert!(
            names.iter().any(|(n, _)| n == key),
            "{key} is not a per-layer metric"
        );
    }
    let mut report = Report::default();
    for (name, unit) in names {
        match values.get(&name) {
            Some((v, n, note)) => report.add(name, *v, unit, *n, note.clone()),
            None => report.add(name, 0.0, unit, 0, "layer not exercised by this workload"),
        }
    }
    report
}

/// The simulation-side counters of the `bsim`, `bdram` and `baxi`
/// layers, summed over one or more SoCs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// `scheduler/executed_cycles`.
    pub executed: u64,
    /// `scheduler/skipped_cycles`.
    pub skipped: u64,
    /// `scheduler/ticked_component_cycles`.
    pub ticked: u64,
    /// `scheduler/registered_component_cycles`.
    pub registered: u64,
    /// DRAM bytes read plus written.
    pub dram_bytes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM read plus write bursts.
    pub dram_accesses: u64,
    /// Cycles DRAM stalled for refresh.
    pub refresh_stall: u64,
    /// AXI read plus write data beats at the memory controllers.
    pub axi_beats: u64,
    /// Cycles the memory controllers' R and B channels were back-pressured.
    pub axi_backpressure: u64,
}

impl SimCounters {
    /// Sums the relevant entries of a counter snapshot.
    pub fn from_snapshot(counters: &[(String, u64)]) -> Self {
        let mut c = Self::default();
        for (name, v) in counters {
            let v = *v;
            let name = name.as_str();
            match name {
                "scheduler/executed_cycles" => c.executed += v,
                "scheduler/skipped_cycles" => c.skipped += v,
                "scheduler/ticked_component_cycles" => c.ticked += v,
                "scheduler/registered_component_cycles" => c.registered += v,
                _ => {}
            }
            if name.contains("/dram/") {
                if name.ends_with("_bytes_read") || name.ends_with("_bytes_written") {
                    c.dram_bytes += v;
                } else if name.ends_with("_row_hits") {
                    c.dram_row_hits += v;
                } else if name.ends_with("_reads") || name.ends_with("_writes") {
                    c.dram_accesses += v;
                } else if name.ends_with("_refresh_stall_cycles") {
                    c.refresh_stall += v;
                }
            } else if let Some((component, counter)) = name.split_once('/') {
                if component.starts_with("mem") && !counter.contains('/') {
                    match counter {
                        "r_beats" | "w_beats" => c.axi_beats += v,
                        "r_backpressure_cycles" | "b_backpressure_cycles" => {
                            c.axi_backpressure += v;
                        }
                        _ => {}
                    }
                }
            }
        }
        c
    }

    /// Adds another set of counters.
    pub fn add(&mut self, o: &SimCounters) {
        self.executed += o.executed;
        self.skipped += o.skipped;
        self.ticked += o.ticked;
        self.registered += o.registered;
        self.dram_bytes += o.dram_bytes;
        self.dram_row_hits += o.dram_row_hits;
        self.dram_accesses += o.dram_accesses;
        self.refresh_stall += o.refresh_stall;
        self.axi_beats += o.axi_beats;
        self.axi_backpressure += o.axi_backpressure;
    }

    /// Records the counters, plus host time per unit of simulated work
    /// from `host_ns` (the untraced wall time of the same work).
    pub fn put(&self, values: &mut LayerValues, host_ns: f64, samples: usize, source: &str) {
        let note = format!("counters from {source}");
        put(
            values,
            "bsim.executed_cycles",
            self.executed as f64,
            1,
            &note,
        );
        put(values, "bsim.skipped_cycles", self.skipped as f64, 1, &note);
        put(
            values,
            "bsim.ticked_component_cycles",
            self.ticked as f64,
            1,
            &note,
        );
        put(
            values,
            "bsim.registered_component_cycles",
            self.registered as f64,
            1,
            &note,
        );
        put(values, "bdram.bytes", self.dram_bytes as f64, 1, &note);
        if self.dram_accesses > 0 {
            put(
                values,
                "bdram.row_hit_ratio",
                self.dram_row_hits as f64 / self.dram_accesses as f64,
                1,
                &note,
            );
        }
        put(
            values,
            "bdram.refresh_stall_cycles",
            self.refresh_stall as f64,
            1,
            &note,
        );
        put(values, "baxi.beats", self.axi_beats as f64, 1, &note);
        put(
            values,
            "baxi.backpressure_cycles",
            self.axi_backpressure as f64,
            1,
            &note,
        );
        let per = "median untraced wall time of the same work over the count";
        if self.ticked > 0 {
            put(
                values,
                "bsim.host_ns_per_ticked_component_cycle",
                host_ns / self.ticked as f64,
                samples,
                per,
            );
        }
        if self.dram_bytes > 0 {
            put(
                values,
                "bdram.host_ns_per_kib",
                host_ns / (self.dram_bytes as f64 / 1024.0),
                samples,
                per,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_map_to_their_layers() {
        let snap: Vec<(String, u64)> = [
            ("scheduler/executed_cycles", 10),
            ("scheduler/ticked_component_cycles", 7),
            ("mem0/dram/ch0_bytes_read", 64),
            ("mem0/dram/ch0_bytes_written", 64),
            ("mem0/dram/ch0_reads", 1),
            ("mem0/dram/ch0_writes", 1),
            ("mem0/dram/ch0_row_hits", 1),
            ("mem0/dram/ch0_refresh_stall_cycles", 5),
            ("mem0/r_beats", 4),
            ("mem0/w_beats", 4),
            ("mem1/r_backpressure_cycles", 3),
            ("cores/Sys0/src0/r_beats", 99),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect();
        let c = SimCounters::from_snapshot(&snap);
        assert_eq!(c.executed, 10);
        assert_eq!(c.ticked, 7);
        assert_eq!(c.dram_bytes, 128);
        assert_eq!(c.dram_accesses, 2);
        assert_eq!(c.dram_row_hits, 1);
        assert_eq!(c.refresh_stall, 5);
        assert_eq!(
            c.axi_beats, 8,
            "core-side Reader beats are not AXI controller beats"
        );
        assert_eq!(c.axi_backpressure, 3);
    }

    #[test]
    fn per_layer_report_lists_every_name_once() {
        let mut values = LayerValues::new();
        put(&mut values, "bdram.bytes", 4.0, 1, "x");
        let report = per_layer_report(&values);
        let names = per_layer_names();
        assert_eq!(report.metrics().len(), names.len());
        assert_eq!(report.get("bdram.bytes").map(|m| m.value), Some(4.0));
        assert_eq!(report.get("bnet.waves").map(|m| m.value), Some(0.0));
        assert!(report.get(&rung_metric(LADDER_GAPS[0])).is_some());
    }
}
