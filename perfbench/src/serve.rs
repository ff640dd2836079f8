//! `serve`: open-loop, in-process serving on a 2-shard `FleetServer`.
//!
//! Eight tenants share two shards of four vecadd cores each, with
//! `ServerConfig::default()` apart from the queue bound, so a better
//! default shows here. Jobs follow `bbench::loadgen::plan`'s seeded
//! {64, 512, 4096}-element mix, swept over a fixed ladder of offered
//! rates from about a quarter of capacity to about twice it. `bserver`
//! admission, dispatch and harvest, `bruntime` MMIO and vecadd streaming
//! through `bdram`/`baxi` carry the load; `bnet` is not used.
//!
//! Every job adds one to its own slot of a per-tenant ring in device
//! memory. After the ladder each slot must hold its seeded initial value
//! plus the number of completed jobs that covered each element.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use bbench::loadgen::{plan, LoadScale, SplitMix64};
use bcore::elaborate;
use bplatform::Platform;
use bruntime::RemotePtr;
use bserver::{Arrival, FleetConfig, FleetServer, JobOutcome, JobSpec, ServerConfig};

use crate::layers::{per_layer_report, put, put_all, rung_metric, LayerValues, SimCounters};
use crate::report::Report;
use crate::stats::{self, percentile, sorted, supports, tail_percentile};
use crate::trace::{total_ns, Tracer};
use crate::{end_to_end, finish_trace, pass_note, run_passes, Args, Outcome, PassTotals};

/// Tenant sessions.
pub const TENANTS: usize = 8;
/// Fleet shards (each a full SoC).
pub const SHARDS: usize = 2;
/// Vecadd cores per shard.
pub const CORES_PER_SHARD: u32 = 4;
/// Per-tenant admission bound (`ServerConfig::queue_capacity`).
pub const QUEUE_CAPACITY: usize = 8;
/// Slots in each tenant's ring: far more than the jobs a tenant can have
/// admitted and unfinished (queue bound plus its shard's cores), so two
/// jobs on one slot never run at once; the run checks that they did not.
pub const RING_SLOTS: usize = 64;
/// Elements per slot: the largest job in the mix.
pub const SLOT_ELES: usize = 4096;
/// Jobs offered per ladder rung.
pub const JOBS_PER_RUNG: usize = 1200;
/// The rate ladder, as mean inter-arrival gaps in fabric cycles (offered
/// rate = 1000 / gap jobs per kcycle). Capacity is near gap 155.
pub const LADDER_GAPS: [u64; 6] = [640, 320, 240, 160, 120, 80];
/// The sub-capacity rung whose latency distribution is reported.
pub const NAMED_GAP: u64 = 240;
/// Latency limit of the SLO, on the p99, in fabric cycles.
pub const SLO_LIMIT_CYCLES: u64 = 10_000;
/// Share of *offered* jobs that must complete within the limit.
pub const SLO_SHARE: f64 = 0.99;

/// One planned job, bound to its ring slot.
#[derive(Debug, Clone, Copy)]
struct SlotJob {
    at_cycle: u64,
    tenant: usize,
    n_eles: u32,
    slot: usize,
}

/// The seeded ladder: one plan per rung, slots assigned round-robin per
/// tenant across the whole ladder.
fn ladder(seed: u64) -> Vec<Vec<SlotJob>> {
    let mut next_slot = [0usize; TENANTS];
    LADDER_GAPS
        .iter()
        .map(|&gap| {
            let scale = LoadScale {
                tenants: TENANTS,
                jobs: JOBS_PER_RUNG,
                n_cores: CORES_PER_SHARD,
                mean_gap_cycles: gap,
                queue_capacity: QUEUE_CAPACITY,
            };
            let rung_seed = SplitMix64::new(seed ^ gap).next_u64();
            plan(rung_seed, &scale)
                .into_iter()
                .map(|j| {
                    let slot = next_slot[j.tenant] % RING_SLOTS;
                    next_slot[j.tenant] += 1;
                    SlotJob {
                        at_cycle: j.at_cycle,
                        tenant: j.tenant,
                        n_eles: j.n_eles,
                        slot,
                    }
                })
                .collect()
        })
        .collect()
}

/// Seeded initial contents of one tenant's ring: a per-slot high part
/// plus the element index, so a write landing in the wrong slot or at
/// the wrong offset shows.
fn ring_initial(seed: u64, tenant: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ (0xA5A5_0000 + tenant as u64));
    let mut ring = Vec::with_capacity(RING_SLOTS * SLOT_ELES);
    for _ in 0..RING_SLOTS {
        let base = (rng.next_u64() as u32) & 0xFFF0_0000;
        ring.extend((0..SLOT_ELES as u32).map(|e| base | e));
    }
    ring
}

/// Checks a ring readback: element `e` of slot `s` must equal its
/// initial value plus the number of completed jobs on `s` longer than
/// `e`. `covered[s]` lists those jobs' lengths.
pub fn verify_ring(
    tenant: usize,
    slot_eles: usize,
    initial: &[u32],
    covered: &[Vec<u32>],
    readback: &[u32],
) -> Result<(), String> {
    if readback.len() != initial.len() || initial.len() != covered.len() * slot_eles {
        return Err(format!(
            "tenant {tenant}: ring readback has {} elements, expected {}",
            readback.len(),
            covered.len() * slot_eles
        ));
    }
    for (slot, lengths) in covered.iter().enumerate() {
        let mut lengths = lengths.clone();
        lengths.sort_unstable();
        let mut shorter = 0;
        for e in 0..slot_eles {
            while shorter < lengths.len() && lengths[shorter] as usize <= e {
                shorter += 1;
            }
            let i = slot * slot_eles + e;
            let want = initial[i].wrapping_add((lengths.len() - shorter) as u32);
            if readback[i] != want {
                return Err(format!(
                    "tenant {tenant} slot {slot} element {e}: read {}, expected {want} \
                     ({} completed jobs covered it)",
                    readback[i],
                    lengths.len() - shorter
                ));
            }
        }
    }
    Ok(())
}

/// Completed jobs' `(dispatch, completion)` cycles on one slot must not
/// overlap, or the expected slot value would depend on interleaving.
fn check_no_overlap(mut spans: Vec<(u64, u64)>, tenant: usize, slot: usize) -> Result<(), String> {
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[1].0 < w[0].1 {
            return Err(format!(
                "tenant {tenant} slot {slot}: two jobs ran at once ({:?} and {:?}); \
                 the ring is too small for this load",
                w[0], w[1]
            ));
        }
    }
    Ok(())
}

/// One rung's outcomes.
struct Rung {
    gap: u64,
    outcomes: Vec<JobOutcome>,
    host_s: f64,
}

/// One pass's results.
struct ServePass {
    totals: PassTotals,
    rungs: Vec<Rung>,
    digest: u64,
    /// Traced passes only: simulation counters over the ladder.
    counters: SimCounters,
    /// Traced passes only: `bserver` counters and per-shard completions.
    server: Vec<(&'static str, u64)>,
    shard_completed: Vec<u64>,
    elaborate_ns: u64,
    alloc_init_ns: u64,
    open_loop_ns: u64,
}

fn digest(rungs: &[Rung]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in rungs {
        format!("{:?}", r.outcomes).hash(&mut h);
    }
    h.finish()
}

fn shard_counter(fleet: &FleetServer, shard: usize, name: &str) -> u64 {
    fleet
        .handle(shard)
        .with_soc(|soc| soc.perf().counter(name))
        .unwrap_or(0)
}

const SERVER_COUNTERS: [&str; 6] = [
    "dispatched",
    "rejected",
    "retried",
    "lock_wait_cycles",
    "coalesced_wakes",
    "queue_depth_peak",
];

fn pass(tr: &Tracer, jobs: &[Vec<SlotJob>], initial: &[Vec<u32>]) -> Result<ServePass, String> {
    let group = tr.group();
    let mark = tr.mark();
    tr.span(None, "perfbench", "serve_pass", group, |root| {
        let t = Instant::now();
        let (mut fleet, rings) = tr.span(root, "perfbench", "setup", group, |p| {
            let fleet = tr.span(p, "bserver", "FleetServer::new", group, |q| {
                FleetServer::new(
                    |_| {
                        tr.span(q, "bcore", "elaborate", group, |_| {
                            elaborate(bkernels::vecadd::config(CORES_PER_SHARD), &Platform::kria())
                                .expect("vecadd elaborates")
                        })
                    },
                    bkernels::vecadd::SYSTEM,
                    TENANTS,
                    FleetConfig {
                        shards: SHARDS,
                        server: ServerConfig {
                            queue_capacity: QUEUE_CAPACITY,
                            ..ServerConfig::default()
                        },
                    },
                )
                .expect("fleet opens")
            });
            let rings: Vec<RemotePtr> = (0..TENANTS)
                .map(|t| {
                    let s = fleet.session(t);
                    let ring = tr.span(p, "bruntime", "malloc", group, |_| {
                        s.malloc((RING_SLOTS * SLOT_ELES * 4) as u64)
                            .expect("ring fits in device memory")
                    });
                    tr.span(p, "bruntime", "write_u32_slice", group, |_| {
                        s.write_u32_slice(ring, &initial[t]);
                    });
                    ring
                })
                .collect();
            (fleet, rings)
        });
        let setup_s = t.elapsed().as_secs_f64();

        let before: Vec<Vec<(String, u64)>> = if tr.enabled() {
            (0..SHARDS)
                .map(|s| {
                    fleet.handle(s).set_profiling(true);
                    fleet.handle(s).counter_snapshot()
                })
                .collect()
        } else {
            Vec::new()
        };

        let mut rungs = Vec::with_capacity(jobs.len());
        let mut sim_cycles = 0;
        let mut work_s = 0.0;
        for (gap, rung_jobs) in LADDER_GAPS.iter().zip(jobs) {
            let rung_group = tr.group();
            let arrivals: Vec<Arrival> = rung_jobs
                .iter()
                .map(|j| Arrival {
                    at_cycle: j.at_cycle,
                    tenant: j.tenant,
                    spec: JobSpec::new(bkernels::vecadd::args(
                        1,
                        rings[j.tenant].device_addr() + (j.slot * SLOT_ELES * 4) as u64,
                        j.n_eles,
                    ))
                    .with_cost_hint(u64::from(j.n_eles)),
                })
                .collect();
            let t0: Vec<u64> = (0..SHARDS).map(|s| fleet.handle(s).now()).collect();
            let t = Instant::now();
            let outcomes = tr.span(root, "bserver", "run_open_loop", rung_group, |_| {
                fleet.run_open_loop(arrivals)
            });
            let host_s = t.elapsed().as_secs_f64();
            work_s += host_s;
            sim_cycles += (0..SHARDS)
                .map(|s| fleet.handle(s).now() - t0[s])
                .sum::<u64>();
            // Overlap check on absolute per-shard cycles.
            let mut by_slot: Vec<Vec<Vec<(u64, u64)>>> =
                vec![vec![Vec::new(); RING_SLOTS]; TENANTS];
            for (j, o) in rung_jobs.iter().zip(&outcomes) {
                if let JobOutcome::Completed {
                    latency_cycles,
                    queue_wait_cycles,
                    ..
                } = *o
                {
                    let origin = t0[fleet.shard_of(j.tenant)] + j.at_cycle;
                    by_slot[j.tenant][j.slot]
                        .push((origin + queue_wait_cycles, origin + latency_cycles));
                }
            }
            for (tenant, slots) in by_slot.into_iter().enumerate() {
                for (slot, spans) in slots.into_iter().enumerate() {
                    check_no_overlap(spans, tenant, slot)?;
                }
            }
            rungs.push(Rung {
                gap: *gap,
                outcomes,
                host_s,
            });
        }

        let mut counters = SimCounters::default();
        let mut server = Vec::new();
        let mut shard_completed = Vec::new();
        if tr.enabled() {
            for (s, before) in before.iter().enumerate() {
                counters.add(&SimCounters::from_snapshot(
                    &fleet.handle(s).counter_delta(before),
                ));
                shard_completed.push(shard_counter(&fleet, s, "server/completed"));
            }
            // A peak does not add across shards; every other counter does.
            server = SERVER_COUNTERS
                .iter()
                .map(|&n| {
                    let total = if n == "queue_depth_peak" {
                        (0..SHARDS)
                            .map(|s| shard_counter(&fleet, s, "server/queue_depth_peak"))
                            .max()
                            .unwrap_or(0)
                    } else {
                        fleet.counter_total(n)
                    };
                    (n, total)
                })
                .collect();
        }

        // Slot verification: every completed job covered elements
        // [0, n_eles) of its slot exactly once.
        tr.span(root, "perfbench", "verify", group, |p| {
            let mut covered = vec![vec![Vec::new(); RING_SLOTS]; TENANTS];
            for (rung, rung_jobs) in rungs.iter().zip(jobs) {
                for (j, o) in rung_jobs.iter().zip(&rung.outcomes) {
                    if o.is_completed() {
                        covered[j.tenant][j.slot].push(j.n_eles);
                    }
                }
            }
            for (t, ring) in rings.iter().enumerate() {
                let readback = tr.span(p, "bruntime", "read_u32_slice", group, |_| {
                    fleet
                        .session(t)
                        .read_u32_slice(*ring, RING_SLOTS * SLOT_ELES)
                });
                verify_ring(t, SLOT_ELES, &initial[t], &covered[t], &readback)?;
            }
            Ok::<(), String>(())
        })?;

        let offered: usize = rungs.iter().map(|r| r.outcomes.len()).sum();
        let completed: usize = rungs
            .iter()
            .map(|r| r.outcomes.iter().filter(|o| o.is_completed()).count())
            .sum();
        let spans = tr.since(mark);
        Ok(ServePass {
            totals: PassTotals {
                setup_s,
                work_s,
                sim_cycles,
                completed: completed as u64,
                offered: offered as u64,
            },
            digest: digest(&rungs),
            rungs,
            counters,
            server,
            shard_completed,
            elaborate_ns: total_ns(&spans, "bcore", "elaborate"),
            alloc_init_ns: total_ns(&spans, "bruntime", "malloc")
                + total_ns(&spans, "bruntime", "write_u32_slice"),
            open_loop_ns: total_ns(&spans, "bserver", "run_open_loop"),
        })
    })
}

/// Completed latencies of one rung, ascending.
fn latencies(outcomes: &[JobOutcome]) -> Vec<u64> {
    sorted(
        &outcomes
            .iter()
            .filter_map(JobOutcome::latency_cycles)
            .collect::<Vec<_>>(),
    )
}

/// Highest ladder rate (jobs per kcycle) at which at least [`SLO_SHARE`]
/// of *offered* jobs completed within [`SLO_LIMIT_CYCLES`]; refused jobs
/// count as misses. `rungs` holds `(gap, offered, latencies of completed
/// jobs)`. `None` if no rung meets it.
pub fn slo_rate(rungs: &[(u64, usize, Vec<u64>)]) -> Option<f64> {
    rungs
        .iter()
        .filter(|(_, offered, lat)| {
            let within = lat.iter().filter(|&&l| l <= SLO_LIMIT_CYCLES).count();
            *offered > 0 && within as f64 >= SLO_SHARE * *offered as f64
        })
        .map(|(gap, _, _)| 1000.0 / *gap as f64)
        .reduce(f64::max)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = ladder(args.seed);
    let initial: Vec<Vec<u32>> = (0..TENANTS).map(|t| ring_initial(args.seed, t)).collect();
    // Each pass must serve exactly what the first did; only the first
    // pass of each kind keeps its outcome lists.
    let mut reference: Option<(u64, u64)> = None;
    let mut kept = [false; 2];
    let mut n = 0;
    let passes = run_passes(args, |tr| {
        let mut p = pass(tr, &jobs, &initial)?;
        let fingerprint = (p.digest, p.totals.sim_cycles);
        if *reference.get_or_insert(fingerprint) != fingerprint {
            return Err(format!("pass {n} served different outcomes than pass 0"));
        }
        n += 1;
        if std::mem::replace(&mut kept[usize::from(tr.enabled())], true) {
            p.rungs = Vec::new();
        }
        Ok(p)
    })?;
    let first = &passes.untraced[0];

    // Simulated results are identical in every pass; take them from the
    // first.
    let named = first
        .rungs
        .iter()
        .find(|r| r.gap == NAMED_GAP)
        .expect("the named rung is on the ladder");
    let named_what = format!("exact, completed jobs at the gap-{NAMED_GAP} rung");
    let mut specific = Report::default();
    specific.add_p50_p99("sim_", "_cycles", &latencies(&named.outcomes), &named_what)?;
    let rung_lats: Vec<(u64, usize, Vec<u64>)> = first
        .rungs
        .iter()
        .map(|r| (r.gap, r.outcomes.len(), latencies(&r.outcomes)))
        .collect();
    let slo = slo_rate(&rung_lats);
    let offered = first.totals.offered;
    specific.add(
        "slo_rate_per_kcycle",
        slo.unwrap_or(0.0),
        "jobs/kcycle",
        usize::try_from(offered).expect("fits"),
        format!(
            "highest ladder rate with >= {}% of offered jobs done within {SLO_LIMIT_CYCLES} cycles",
            SLO_SHARE * 100.0
        ),
    );
    specific.add(
        "fail_ratio",
        (offered - first.totals.completed) as f64 / offered as f64,
        "ratio",
        usize::try_from(offered).expect("fits"),
        "refused / offered over the ladder",
    );

    let untraced: Vec<PassTotals> = passes.untraced.iter().map(|p| p.totals).collect();
    let mut notes = vec![format!(
        "ladder gaps {LADDER_GAPS:?} cycles x {JOBS_PER_RUNG} jobs; {TENANTS} tenants on \
         {SHARDS} shards x {CORES_PER_SHARD} cores; queue bound {QUEUE_CAPACITY}"
    )];
    for r in &first.rungs {
        let lat = latencies(&r.outcomes);
        notes.push(format!(
            "  gap {:>4}: {:>4}/{} completed, p50 {} p{} {} cycles, {:.3} s host",
            r.gap,
            lat.len(),
            r.outcomes.len(),
            if lat.is_empty() {
                0
            } else {
                percentile(&lat, 50.0)
            },
            tail_percentile(lat.len()).unwrap_or(0.0),
            tail_percentile(lat.len()).map_or(0, |p| percentile(&lat, p)),
            r.host_s
        ));
    }

    notes.push(pass_note(&untraced));
    let per_layer = if args.trace {
        let mut v = LayerValues::new();
        let tp = &passes.traced[0];
        let n = passes.traced.len();
        let host_ns = 1e9 * stats::median(&untraced.iter().map(|t| t.work_s).collect::<Vec<_>>());
        tp.counters.put(
            &mut v,
            host_ns,
            untraced.len(),
            "both shards over the ladder",
        );
        let med = |f: &dyn Fn(&ServePass) -> f64| {
            stats::median(&passes.traced.iter().map(f).collect::<Vec<_>>())
        };
        put(
            &mut v,
            "bcore.elaborate_ms",
            med(&|p| p.elaborate_ns as f64 / 1e6),
            n,
            "median per traced pass, inside the fleet factory",
        );
        put(
            &mut v,
            "bruntime.alloc_init_ms",
            med(&|p| p.alloc_init_ns as f64 / 1e6),
            n,
            "median per traced pass of session malloc + write_u32_slice",
        );
        put(
            &mut v,
            "bserver.host_us_per_cmd",
            med(&|p| p.open_loop_ns as f64 / 1e3 / p.totals.offered as f64),
            n,
            "median per traced pass of run_open_loop time / offered",
        );
        let named_t = tp
            .rungs
            .iter()
            .find(|r| r.gap == NAMED_GAP)
            .expect("named rung");
        let mut waits = Vec::new();
        let mut service = Vec::new();
        for o in &named_t.outcomes {
            if let JobOutcome::Completed {
                latency_cycles,
                queue_wait_cycles,
                ..
            } = *o
            {
                waits.push(queue_wait_cycles);
                service.push(latency_cycles - queue_wait_cycles);
            }
        }
        let mut layer = Report::default();
        layer.add_p50_p99("bserver.queue_wait_", "_cycles", &waits, &named_what)?;
        layer.add_p50_p99("bserver.service_", "_cycles", &service, &named_what)?;
        put_all(&mut v, "", &layer);
        for r in &tp.rungs {
            let lat = latencies(&r.outcomes);
            let (p, note) = if supports(lat.len(), 99.0) {
                (99.0, "exact p99 of completed jobs".to_owned())
            } else {
                let p = tail_percentile(lat.len()).unwrap_or(50.0);
                (
                    p,
                    format!("too few completions for a p99: exact p{p} instead"),
                )
            };
            put(
                &mut v,
                &rung_metric(r.gap),
                percentile(&lat, p) as f64,
                lat.len(),
                &note,
            );
        }
        for (name, value) in &tp.server {
            put(
                &mut v,
                &format!("bserver.{name}"),
                *value as f64,
                1,
                "fleet counter total",
            );
        }
        let done = &tp.shard_completed;
        let mean = done.iter().sum::<u64>() as f64 / done.len() as f64;
        put(
            &mut v,
            "bserver.shard_imbalance",
            *done.iter().max().expect("shards") as f64 / mean,
            done.len(),
            "max / mean completed per shard",
        );
        put_all(&mut v, "e2e.", &specific);
        let traced: Vec<PassTotals> = passes.traced.iter().map(|p| p.totals).collect();
        notes.push(finish_trace(
            args,
            &mut v,
            &untraced,
            &traced,
            &passes.tracer,
        )?);
        Some(per_layer_report(&v))
    } else {
        None
    };
    let attempted = untraced.iter().map(|t| t.offered).sum();
    Ok(Outcome {
        end_to_end: end_to_end(&untraced)?,
        specific,
        per_layer,
        notes,
        attempted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_verifier_accepts_the_truth_and_rejects_corruption() {
        let slot_eles = 8;
        let initial: Vec<u32> = (0..16).map(|i| 100 * i).collect();
        // Slot 0: two jobs of lengths 8 and 3; slot 1: one job of length 5.
        let covered = vec![vec![8, 3], vec![5]];
        let mut readback = initial.clone();
        for (e, v) in readback[..8].iter_mut().enumerate() {
            *v += 1 + u32::from(e < 3);
        }
        for v in &mut readback[8..13] {
            *v += 1;
        }
        verify_ring(0, slot_eles, &initial, &covered, &readback).expect("the truth verifies");

        let mut lost_update = readback.clone();
        lost_update[1] -= 1;
        assert!(verify_ring(0, slot_eles, &initial, &covered, &lost_update).is_err());
        let mut stray_write = readback.clone();
        stray_write[8 + 6] += 1;
        assert!(verify_ring(0, slot_eles, &initial, &covered, &stray_write).is_err());
        assert!(verify_ring(0, slot_eles, &initial, &covered, &readback[..15]).is_err());
    }

    #[test]
    fn overlapping_jobs_on_one_slot_are_caught() {
        assert!(check_no_overlap(vec![(0, 10), (10, 20)], 0, 0).is_ok());
        assert!(check_no_overlap(vec![(10, 20), (0, 11)], 0, 0).is_err());
    }

    #[test]
    fn slo_rate_is_the_highest_rung_meeting_the_limit_over_offered_jobs() {
        let ok = |n: usize| vec![SLO_LIMIT_CYCLES; n];
        let rungs = vec![
            (640, 100, ok(100)),
            (320, 100, ok(100)),
            // 99 of 100 offered completed in time: meets 99%.
            (240, 100, ok(99)),
            // All completed but 2 too slow: misses.
            (160, 100, [ok(98), vec![SLO_LIMIT_CYCLES + 1; 2]].concat()),
            // Refusals count as misses even if every completion is fast.
            (120, 100, ok(90)),
        ];
        assert_eq!(slo_rate(&rungs), Some(1000.0 / 240.0));
        assert_eq!(slo_rate(&rungs[3..]), None);
        // Not monotone: a higher rung that passes still wins.
        let rungs = vec![(640, 10, vec![]), (80, 10, ok(10))];
        assert_eq!(slo_rate(&rungs), Some(12.5));
    }

    #[test]
    fn ladder_is_seeded_and_slots_rotate_per_tenant() {
        let a = ladder(7);
        let b = ladder(7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{:?}", ladder(8)));
        assert_eq!(a.len(), LADDER_GAPS.len());
        let mut seen = [0usize; TENANTS];
        for j in a.iter().flatten() {
            assert_eq!(j.slot, seen[j.tenant] % RING_SLOTS);
            seen[j.tenant] += 1;
        }
        assert_eq!(ring_initial(7, 0), ring_initial(7, 0));
        assert_ne!(ring_initial(7, 0), ring_initial(7, 1));
    }
}
