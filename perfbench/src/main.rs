//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|serve|net --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload repeats a fixed pass (set-up, the measured work, then
//! its correctness checks) until `--seconds` have passed. `--trace 0`
//! reports the end-to-end metrics from untraced passes; `--trace 1`
//! alternates untraced and traced passes and reports the per-layer
//! metrics, checks that both kinds of pass simulate identical results,
//! and writes the spans to `perfbench/out/`. The last line of stdout is
//! the JSON result; a failed correctness check exits non-zero. See
//! `perfbench/README.md` for every metric's definition.

mod figures;
mod layers;
mod net;
mod report;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

use layers::{put, LayerValues, SPAN_LAYERS};
use report::Report;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `figures`, `serve` or `net`.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds to keep repeating passes.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Passes of each kind a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

/// Host-side totals of one pass, common to every workload.
#[derive(Debug, Clone, Copy)]
pub struct PassTotals {
    /// Set-up seconds (elaboration, fleet/rig build, buffers, connects).
    pub setup_s: f64,
    /// Seconds of measured work.
    pub work_s: f64,
    /// Simulated cycles the work advanced, summed over SoCs.
    pub sim_cycles: u64,
    /// Commands that completed.
    pub completed: u64,
    /// Commands offered.
    pub offered: u64,
}

/// Untraced and traced passes of one run.
pub struct Passes<P> {
    /// Passes with tracing off (end-to-end numbers).
    pub untraced: Vec<P>,
    /// Passes with tracing and the program's counters on.
    pub traced: Vec<P>,
    /// The tracer that recorded the traced passes.
    pub tracer: Tracer,
}

/// Repeats `pass` for about `args.seconds`: it stops before a round
/// that would likely end past the deadline (judged by the median round
/// so far), once at least [`MIN_PASSES`] of each needed kind ran. With
/// tracing, untraced and traced passes alternate so both see the same
/// machine conditions.
pub fn run_passes<P>(
    args: &Args,
    mut pass: impl FnMut(&Tracer) -> Result<P, String>,
) -> Result<Passes<P>, String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let t = Instant::now();
        untraced.push(pass(&off)?);
        if args.trace {
            traced.push(pass(&on)?);
        }
        rounds.push(t.elapsed().as_secs_f64());
        let projected = start.elapsed().as_secs_f64() + stats::median(&rounds);
        if rounds.len() >= MIN_PASSES && projected > args.seconds as f64 {
            return Ok(Passes {
                untraced,
                traced,
                tracer: on,
            });
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end metrics every workload reports, from its untraced
/// passes.
pub fn end_to_end(totals: &[PassTotals]) -> Result<Report, String> {
    let n = totals.len();
    let pick = |f: fn(&PassTotals) -> f64| totals.iter().map(f).collect::<Vec<f64>>();
    let offered: u64 = totals.iter().map(|t| t.offered).sum();
    let completed: u64 = totals.iter().map(|t| t.completed).sum();
    let mut r = Report::default();
    let median_of = format!("median of {n} untraced passes");
    r.add(
        "setup_s",
        stats::median(&pick(|t| t.setup_s)),
        "s",
        n,
        &median_of,
    );
    r.add("peak_rss_mb", peak_rss_mib()?, "MiB", 1, "VmHWM at exit");
    r.add(
        "wall_s",
        stats::median(&pick(|t| t.work_s)),
        "s",
        n,
        &median_of,
    );
    r.add(
        "sim_mcycles_per_s",
        stats::median(&pick(|t| t.sim_cycles as f64 / t.work_s / 1e6)),
        "Mcycles/s",
        n,
        &median_of,
    );
    r.add(
        "cmds_per_s",
        stats::median(&pick(|t| t.completed as f64 / t.work_s)),
        "cmds/s",
        n,
        &median_of,
    );
    r.add(
        "served_ratio",
        completed as f64 / offered as f64,
        "ratio",
        usize::try_from(offered).expect("offered fits usize"),
        "completed / offered commands over all passes",
    );
    Ok(r)
}

/// A report line listing every untraced pass's set-up and work seconds.
pub fn pass_note(totals: &[PassTotals]) -> String {
    let list = |f: fn(&PassTotals) -> f64| {
        totals
            .iter()
            .map(|t| format!("{:.4}", f(t)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "untraced passes: work s [{}]; set-up s [{}]",
        list(|t| t.work_s),
        list(|t| t.setup_s)
    )
}

/// Per-layer values every traced run reports: trace overhead, self-time
/// shares by layer, and the trace file itself.
pub fn finish_trace(
    args: &Args,
    values: &mut LayerValues,
    untraced: &[PassTotals],
    traced: &[PassTotals],
    tracer: &Tracer,
) -> Result<String, String> {
    let walls = |ps: &[PassTotals]| stats::median(&ps.iter().map(|p| p.work_s).collect::<Vec<_>>());
    put(
        values,
        "trace.overhead_ratio",
        walls(traced) / walls(untraced),
        traced.len(),
        "median traced pass work time / median untraced",
    );
    let spans = tracer.spans();
    let by_layer = trace::self_time_by_layer(&spans);
    let total: u64 = by_layer.values().sum();
    let share = |ns: u64| {
        if total > 0 {
            ns as f64 / total as f64
        } else {
            0.0
        }
    };
    for layer in by_layer.keys() {
        assert!(
            SPAN_LAYERS.contains(layer),
            "span layer {layer} is not listed"
        );
    }
    let mut dominant = ("none", 0u64);
    for layer in SPAN_LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        if own > dominant.1 {
            dominant = (layer, own);
        }
        put(
            values,
            &format!("self_share.{layer}"),
            share(own),
            spans.iter().filter(|s| s.layer == *layer).count(),
            "self time of spans into this layer / all span self time",
        );
    }
    let json = trace::chrome_json(&spans);
    bsim::perf::validate_json(&json).map_err(|e| format!("trace file is not valid JSON: {e}"))?;
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!(
        "trace: {} spans written to {}; dominant self time: {} ({:.1}%)",
        spans.len(),
        path.display(),
        dominant.0,
        100.0 * share(dominant.1)
    ))
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// The end-to-end metrics every workload reports (untraced passes).
    pub end_to_end: Report,
    /// The workload's own end-to-end figures, by the names the
    /// workload defines them under (printed; also in the per-layer set
    /// as `e2e.*`).
    pub specific: Report,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Option<Report>,
    /// Free-form lines for the human report.
    pub notes: Vec<String>,
    /// Commands offered over every pass.
    pub attempted: u64,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "figures" => figures::run(&args),
        "serve" => serve::run(&args),
        "net" => net::run(&args),
        other => Err(format!("unknown workload {other} (figures, serve, net)")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: FAILED: {e}",
                args.workload, args.seed
            );
            std::process::exit(1);
        }
    };
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("{note}");
    }
    println!("-- end-to-end --");
    print!("{}", out.end_to_end.human());
    println!("-- workload-specific end-to-end --");
    print!("{}", out.specific.human());
    let metrics = match &out.per_layer {
        Some(per_layer) => {
            println!("-- per-layer --");
            print!("{}", per_layer.human());
            per_layer
        }
        None => &out.end_to_end,
    };
    // A failed check or an errored command ends the run before this
    // point, so a printed result is correct and has no failures. Refusals
    // by admission control on the overload rungs are expected behaviour,
    // measured by `served_ratio`.
    println!("{}", metrics.json(true, out.attempted, 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 5, true)
        );
        let d = parse_args(&strings(&["--workload", "net"])).expect("defaults");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(parse_args(&strings(&["--workload", "net", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "net", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        bsim::perf::validate_json(&json).expect("BENCHMARK.json is valid JSON");
        let e2e = end_to_end(&[PassTotals {
            setup_s: 1.0,
            work_s: 1.0,
            sim_cycles: 1,
            completed: 1,
            offered: 1,
        }])
        .expect("report");
        let mut listed = 0;
        for (name, unit) in e2e
            .metrics()
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .chain(layers::per_layer_names())
        {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks {name} in {unit}"
            );
            listed += 1;
        }
        let workloads = 3;
        assert_eq!(json.matches("\"name\":").count(), listed + workloads);
    }

    #[test]
    fn end_to_end_takes_medians_and_pooled_ratio() {
        let t = |work_s: f64, completed: u64| PassTotals {
            setup_s: 0.5,
            work_s,
            sim_cycles: 2_000_000,
            completed,
            offered: 10,
        };
        let r = end_to_end(&[t(1.0, 10), t(2.0, 10), t(4.0, 8)]).expect("report");
        assert_eq!(r.get("wall_s").map(|m| m.value), Some(2.0));
        assert_eq!(r.get("sim_mcycles_per_s").map(|m| m.value), Some(1.0));
        assert_eq!(r.get("cmds_per_s").map(|m| m.value), Some(5.0));
        assert_eq!(r.get("served_ratio").map(|m| m.value), Some(28.0 / 30.0));
        assert!(r.get("peak_rss_mb").map(|m| m.value).unwrap_or(0.0) > 0.0);
    }
}
