//! `figures`: the paper's own evaluation — Fig. 4 memcpy bandwidth and
//! Fig. 6 MachSuite multi-core speedups — through `bbench`'s sweep
//! functions, at a scale between `--small` and the paper's.
//!
//! Fig. 4's dense DRAM/AXI streaming runs beside Fig. 6's many-core
//! compute, so `bsim`, `bdram`, `baxi` and `bcore` do almost all the work;
//! `bserver` runs only inside Fig. 6's lock-arbitrated batches and `bnet`
//! not at all. The two sweeps are the two jobs of one `bbench::par`
//! batch, run on one host thread so that a change to either sweep shows
//! in the pass time (two threads would hide the shorter sweep behind the
//! longer) and so that the pass is steadier on a shared 2-vCPU host.

use std::time::Instant;

use bbench::fig4::{self, Fig4Row};
use bbench::fig6::{self, Fig6Row, Fig6Scale};
use bbench::loadgen::SplitMix64;
use bbench::par;
use bcore::elaborate::{elaborate_with, ElaborationOptions};
use bkernels::machsuite::baselines::beethoven_parallelism;
use bkernels::machsuite::{gemm, mdknn, nw, stencil2d, stencil3d, Bench};
use bkernels::memcpy::{run_memcpy_profiled, MemcpyVariant};
use bplatform::Platform;

use crate::layers::{per_layer_report, put, LayerValues, SimCounters};
use crate::report::Report;
use crate::trace::{total_ns, Tracer};
use crate::{end_to_end, finish_trace, pass_note, run_passes, Args, Outcome, PassTotals};

/// Fig. 6 problem sizes: 4–8× the `--small` dimensions, a pass of a few
/// seconds where the paper's scale takes 49 s.
pub const FIG6_SCALE: Fig6Scale = Fig6Scale {
    gemm_n: 128,
    nw_n: 128,
    s2d_n: 128,
    s3d_n: 16,
    md_n: 512,
    md_k: 16,
    cap_cores: 8,
    cmds_per_core: 2,
};

/// Host threads of the timed sweeps.
const PASS_WORKERS: usize = 1;

/// Host threads of the untimed counter re-runs.
const PROBE_WORKERS: usize = 2;

/// Largest Fig. 4 transfer. The paper's 4 MiB point streams a working set
/// beyond the host's caches, and its host time swung twice as much as
/// the rest of the suite from run to run.
const FIG4_MAX_BYTES: u64 = 1 << 20;

/// Fig. 4 transfer sizes: the paper's sweep from 4 KiB up to
/// [`FIG4_MAX_BYTES`], each size lengthened by a seeded 0–63 cache lines
/// so the seed varies the inputs without changing the amount of work.
pub fn fig4_sizes(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    fig4::default_sizes()
        .into_iter()
        .filter(|&s| s <= FIG4_MAX_BYTES)
        .map(|s| s + 64 * (rng.next_u64() % 64))
        .collect()
}

/// Elaborates every SoC shape the suite builds: each memcpy variant on
/// its platform, and each Fig. 6 system at the core cap. This is the
/// set-up a figure job repeats before it simulates.
fn elaborate_shapes(tr: &Tracer, parent: Option<usize>, group: u64) {
    let elab = |cfg: bcore::AcceleratorConfig, platform: &Platform, opts: ElaborationOptions| {
        tr.span(parent, "bcore", "elaborate_with", group, |_| {
            elaborate_with(cfg, platform, opts).expect("suite shape elaborates");
        });
    };
    for variant in MemcpyVariant::ALL {
        let mut platform = Platform::aws_f1();
        platform.fabric_mhz = variant.fabric_mhz();
        elab(bkernels::memcpy::config(), &platform, variant.options());
    }
    let s = FIG6_SCALE;
    let cores = s.cap_cores as u32;
    let mut platform = Platform::aws_f1();
    platform.fabric_mhz = 125;
    let p = beethoven_parallelism;
    let configs = [
        gemm::config(cores, s.gemm_n, p(Bench::Gemm)),
        nw::config(cores, s.nw_n),
        stencil2d::config(cores, s.s2d_n, p(Bench::Stencil2d)),
        stencil3d::config(cores, s.s3d_n, p(Bench::Stencil3d)),
        mdknn::config(cores, s.md_n, s.md_k, p(Bench::MdKnn)),
    ];
    for cfg in configs {
        elab(cfg, &platform, ElaborationOptions::default());
    }
}

/// One pass's results.
struct FigPass {
    totals: PassTotals,
    /// Host seconds of the Fig. 4 job alone.
    fig4_s: f64,
    /// Sum of both jobs' host seconds (serial estimate).
    serial_s: f64,
    fig4: Vec<Fig4Row>,
    fig6: Vec<Fig6Row>,
    elaborate_ns: u64,
}

enum Sweep {
    Fig4(Vec<Fig4Row>),
    Fig6(Vec<Fig6Row>),
}

fn pass(tr: &Tracer, sizes: &[u64]) -> FigPass {
    let group = tr.group();
    let mark = tr.mark();
    tr.span(None, "perfbench", "figures_pass", group, |root| {
        let t = Instant::now();
        tr.span(root, "perfbench", "setup", group, |p| {
            elaborate_shapes(tr, p, group)
        });
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (results, merged) = tr.span(root, "bbench.par", "run_timed_jobs", group, |p| {
            let fig4_sizes = sizes.to_vec();
            let (tr4, tr6) = (tr.clone(), tr.clone());
            let jobs = vec![
                par::timed("perfbench: fig4", move || {
                    tr4.span(p, "bbench", "fig4::run_timed_on", group, |_| {
                        let t = Instant::now();
                        let (rows, cycles) = fig4::run_timed_on(&fig4_sizes, 1);
                        ((Sweep::Fig4(rows), t.elapsed().as_secs_f64()), cycles)
                    })
                }),
                par::timed("perfbench: fig6", move || {
                    tr6.span(p, "bbench", "fig6::run_timed_on", group, |_| {
                        let t = Instant::now();
                        let (rows, cycles) = fig6::run_timed_on(&FIG6_SCALE, 1);
                        ((Sweep::Fig6(rows), t.elapsed().as_secs_f64()), cycles)
                    })
                }),
            ];
            par::run_timed_jobs(jobs, PASS_WORKERS)
        });
        let work_s = t.elapsed().as_secs_f64();

        let mut fig4 = Vec::new();
        let mut fig6 = Vec::new();
        let mut fig4_s = 0.0;
        for (sweep, secs) in results {
            match sweep {
                Sweep::Fig4(rows) => {
                    fig4 = rows;
                    fig4_s = secs;
                }
                Sweep::Fig6(rows) => fig6 = rows,
            }
        }
        let fig4_cmds: usize = fig4.iter().map(|r| r.series.len()).sum();
        let fig6_cmds: usize = fig6
            .iter()
            .map(|r| 1 + r.n_cores * FIG6_SCALE.cmds_per_core)
            .sum();
        let cmds = (fig4_cmds + fig6_cmds) as u64;
        FigPass {
            totals: PassTotals {
                setup_s,
                work_s,
                sim_cycles: merged.rate.cycles,
                completed: cmds,
                offered: cmds,
            },
            fig4_s,
            serial_s: merged.serial_seconds,
            fig4,
            fig6,
            elaborate_ns: total_ns(&tr.since(mark), "bcore", "elaborate_with"),
        }
    })
}

/// Re-runs every Fig. 4 cell with the program's counters on and sums
/// them; also checks that each profiled cell measures exactly the
/// bandwidth the untraced sweep reported. This collects counters only and
/// is not part of any timed pass.
fn fig4_counters(sizes: &[u64], rows: &[Fig4Row]) -> Result<SimCounters, String> {
    let jobs: Vec<par::Job<(u64, f64, SimCounters)>> = MemcpyVariant::ALL
        .into_iter()
        .flat_map(|variant| {
            sizes.iter().map(move |&bytes| {
                par::Job::new(
                    format!("perfbench: profiled {} @ {bytes} B", variant.label()),
                    move || {
                        let (result, soc) = run_memcpy_profiled(variant, bytes);
                        (
                            bytes,
                            result.gbps,
                            SimCounters::from_snapshot(&soc.perf_counters()),
                        )
                    },
                )
            })
        })
        .collect();
    let cells = par::run_jobs_on(jobs, PROBE_WORKERS);
    let swept: Vec<(&str, u64, f64)> = rows
        .iter()
        .flat_map(|r| r.series.iter().map(move |&(b, g)| (r.label, b, g)))
        .collect();
    if cells.len() != swept.len() {
        return Err(format!(
            "{} profiled cells for {} swept cells",
            cells.len(),
            swept.len()
        ));
    }
    let mut total = SimCounters::default();
    for ((bytes, gbps, counters), (label, swept_bytes, swept_gbps)) in cells.iter().zip(swept) {
        if *bytes != swept_bytes || gbps.to_bits() != swept_gbps.to_bits() {
            return Err(format!(
                "{label} @ {bytes} B: profiled run measured {gbps} GB/s, the sweep {swept_gbps}"
            ));
        }
        total.add(counters);
    }
    Ok(total)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let sizes = fig4_sizes(args.seed);
    let passes = run_passes(args, |tr| Ok(pass(tr, &sizes)))?;

    // Every pass, traced or not, must reproduce the first pass's figures
    // bit for bit (the memcpy data check and Fig. 6's all-completed
    // check run inside the sweeps and abort the run on failure).
    let reference = &passes.untraced[0];
    let fingerprint = |p: &FigPass| format!("{:?}{:?}", p.fig4, p.fig6);
    let want = fingerprint(reference);
    for (i, p) in passes.untraced.iter().chain(&passes.traced).enumerate() {
        if fingerprint(p) != want || p.totals.sim_cycles != reference.totals.sim_cycles {
            return Err(format!("pass {i} simulated different figures than pass 0"));
        }
    }

    let untraced: Vec<PassTotals> = passes.untraced.iter().map(|p| p.totals).collect();
    let mut notes = vec![format!(
        "fig4 sizes {:?} B; fig6 scale {:?}; {} commands and {} simulated cycles per pass",
        sizes, FIG6_SCALE, reference.totals.offered, reference.totals.sim_cycles
    )];

    notes.push(pass_note(&untraced));
    let jobs = |f: fn(&FigPass) -> f64| {
        let v: Vec<String> = passes
            .untraced
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect();
        v.join(" ")
    };
    notes.push(format!(
        "untraced passes: fig4 job s [{}]; fig6 job s [{}]",
        jobs(|p| p.fig4_s),
        jobs(|p| p.serial_s - p.fig4_s)
    ));
    let per_layer = if args.trace {
        let tr = &passes.tracer;
        let counters = fig4_counters(&sizes, &reference.fig4)?;
        let mut v = LayerValues::new();
        let fig4_ns = 1e9
            * crate::stats::median(&passes.untraced.iter().map(|p| p.fig4_s).collect::<Vec<_>>());
        counters.put(
            &mut v,
            fig4_ns,
            untraced.len(),
            "every Fig. 4 cell re-run profiled",
        );
        let n = passes.traced.len();
        let med = |f: fn(&FigPass) -> f64| {
            crate::stats::median(&passes.traced.iter().map(f).collect::<Vec<_>>())
        };
        put(
            &mut v,
            "bcore.elaborate_ms",
            med(|p| p.elaborate_ns as f64 / 1e6),
            n,
            "median per traced pass of time in elaborate_with",
        );
        put(
            &mut v,
            "bbench.par.serial_estimate_s",
            med(|p| p.serial_s),
            n,
            "median per traced pass of summed job host time",
        );
        put(
            &mut v,
            "bbench.par.span_s",
            med(|p| p.totals.work_s),
            n,
            "median per traced pass of the executor's span",
        );
        let traced: Vec<PassTotals> = passes.traced.iter().map(|p| p.totals).collect();
        notes.push(finish_trace(args, &mut v, &untraced, &traced, tr)?);
        Some(per_layer_report(&v))
    } else {
        None
    };
    let attempted = untraced.iter().map(|t| t.offered).sum();
    Ok(Outcome {
        end_to_end: end_to_end(&untraced)?,
        specific: Report::default(),
        per_layer,
        notes,
        attempted,
    })
}
