//! `net`: closed-loop serving waves over loopback against an in-process
//! `NetServer`, from one client thread holding two `NetClient`
//! connections (one per tenant).
//!
//! Jobs are capped at 64 elements, so the wire path (frame codec, socket,
//! wave barrier) is more than half of the host time; with the full size mix
//! the simulation hides it. `bnet` changes show here and not on `serve`.
//! The socket outcomes must digest exactly like `bnet::replay_on` of the
//! same rounds in process.

use std::time::Instant;

use bbench::loadgen::{plan, LoadScale};
use bbench::netgen::rounds_from_plan;
use bnet::{
    outcome_digest, replay_on, Frame, KeyedOutcome, NetClient, NetConfig, NetServer, Rig,
    RigConfig, TraceCmd, WireOutcome,
};
use bserver::DispatchPolicy;

use crate::layers::{per_layer_report, put, put_all, LayerValues, SimCounters};
use crate::report::Report;
use crate::stats::{self, percentile, sorted_f64, supports, tail_percentile};
use crate::trace::Tracer;
use crate::{end_to_end, finish_trace, pass_note, run_passes, Args, Outcome, PassTotals};

/// Tenants, one connection each.
pub const TENANTS: usize = 2;
/// Vecadd cores in the single-shard rig.
pub const CORES: u32 = 4;
/// Commands per tenant per wave on average (`rounds_from_plan` makes
/// waves of `TENANTS × WAVE_SHARE` commands).
pub const WAVE_SHARE: usize = 16;
/// Waves per pass.
pub const WAVES: usize = 150;
/// Element cap on every job.
pub const MAX_ELES: u32 = 64;
/// Mean inter-arrival gap inside a wave, in fabric cycles.
pub const MEAN_GAP: u64 = 40;

/// The serving rig: its admission bound covers a whole wave, so no
/// command is refused.
fn rig_config() -> RigConfig {
    RigConfig {
        policy: DispatchPolicy::Fifo,
        shards: 1,
        tenants: TENANTS,
        n_cores: CORES,
        queue_capacity: TENANTS * WAVE_SHARE,
        buffer_eles: 4096,
    }
}

/// The seeded rounds, addressed to `buffer_addrs`.
fn seeded_rounds(seed: u64, buffer_addrs: &[u64]) -> Vec<Vec<TraceCmd>> {
    let scale = LoadScale {
        tenants: TENANTS,
        jobs: WAVES * TENANTS * WAVE_SHARE,
        n_cores: CORES,
        mean_gap_cycles: MEAN_GAP,
        queue_capacity: WAVE_SHARE,
    };
    let mut jobs = plan(seed, &scale);
    for j in &mut jobs {
        j.n_eles = j.n_eles.min(MAX_ELES);
    }
    rounds_from_plan(&jobs, &scale, buffer_addrs)
}

/// One pass's results.
struct NetPass {
    totals: PassTotals,
    outcomes: Vec<KeyedOutcome>,
    digest: u64,
    wave_ms: Vec<f64>,
    barrier_ms: Vec<f64>,
    submit_us: Vec<f64>,
    stats: Vec<(String, u64)>,
}

fn client_err(what: &str) -> impl Fn(bnet::ClientError) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

/// One pass: bind, connect, serve `rounds` as closed-loop waves, tear
/// down. `addrs` are the rig's tenant buffers the rounds address.
fn pass(
    tr: &Tracer,
    rounds: &[Vec<TraceCmd>],
    addrs: &[u64],
    sim_cycles: u64,
) -> Result<NetPass, String> {
    let group = tr.group();
    tr.span(None, "perfbench", "net_pass", group, |root| {
        let t = Instant::now();
        let (server, mut clients) = tr.span(root, "perfbench", "setup", group, |p| {
            let server = tr.span(p, "bnet", "NetServer::bind", group, |_| {
                NetServer::bind("127.0.0.1:0", NetConfig::new(rig_config()))
                    .map_err(|e| format!("bind: {e}"))
            })?;
            let addr = server.local_addr();
            let clients = (0..TENANTS as u32)
                .map(|tenant| {
                    tr.span(p, "bnet", "NetClient::connect", group, |_| {
                        NetClient::connect(
                            addr,
                            tenant,
                            bnet::tenant_token(bnet::DEFAULT_AUTH_SEED, tenant),
                        )
                    })
                    .map_err(client_err("connect"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>((server, clients))
        })?;
        let setup_s = t.elapsed().as_secs_f64();
        if tr.enabled() {
            // The rig's SoC shape, elaborated once more to time the
            // elaboration `bind` performs internally.
            tr.span(root, "bcore", "elaborate", group, |_| {
                bcore::elaborate(
                    bkernels::vecadd::config(CORES),
                    &bplatform::Platform::kria(),
                )
                .expect("vecadd elaborates")
            });
        }

        let acked: Vec<u64> = clients.iter().map(|c| c.info().buffer_addr).collect();
        if acked != addrs {
            return Err(format!(
                "HelloAck buffers {acked:x?} differ from the rig's {addrs:x?}"
            ));
        }
        let mut outcomes = Vec::with_capacity(WAVES * TENANTS * WAVE_SHARE);
        let mut wave_ms = Vec::with_capacity(rounds.len());
        let mut barrier_ms = Vec::with_capacity(rounds.len());
        let mut submit_us = Vec::new();
        let start = Instant::now();
        for round in rounds {
            let wave = tr.group();
            let t_wave = Instant::now();
            tr.span(root, "perfbench", "wave", wave, |w| {
                for cmd in round {
                    let t = Instant::now();
                    let reply = tr.span(w, "bnet", "submit", wave, |_| {
                        clients[cmd.tenant as usize].submit(cmd.seq, &cmd.job)
                    });
                    if tr.enabled() {
                        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    // A refused command gets no outcome, so it counts
                    // against `served_ratio` and `fail_ratio`.
                    reply.map_err(client_err("submit"))?;
                }
                // Every connection joins the wave barrier before any
                // reply is read.
                let t_barrier = Instant::now();
                for c in clients.iter_mut() {
                    tr.span(w, "bnet", "poll_send", wave, |_| c.poll_send())
                        .map_err(client_err("poll_send"))?;
                }
                for c in clients.iter_mut() {
                    let tenant = c.info().tenant;
                    let got = tr
                        .span(w, "bnet", "poll_recv", wave, |_| c.poll_recv())
                        .map_err(client_err("poll_recv"))?;
                    outcomes.extend(got.into_iter().map(|(seq, o)| (tenant, seq, o)));
                }
                barrier_ms.push(t_barrier.elapsed().as_secs_f64() * 1e3);
                Ok::<(), String>(())
            })?;
            wave_ms.push(t_wave.elapsed().as_secs_f64() * 1e3);
        }
        let work_s = start.elapsed().as_secs_f64();

        let stats = clients[0].server_stats().map_err(client_err("stats"))?;
        for c in clients {
            c.bye().map_err(client_err("bye"))?;
        }
        server.stop();

        outcomes.sort_by_key(|(tenant, seq, _)| (*tenant, *seq));
        let offered: usize = rounds.iter().map(Vec::len).sum();
        let completed = outcomes
            .iter()
            .filter(|(_, _, o)| matches!(o, WireOutcome::Completed { .. }))
            .count();
        Ok(NetPass {
            totals: PassTotals {
                setup_s,
                work_s,
                sim_cycles,
                completed: completed as u64,
                offered: offered as u64,
            },
            digest: outcome_digest(&outcomes),
            outcomes,
            wave_ms,
            barrier_ms,
            submit_us,
            stats,
        })
    })
}

/// Replays `rounds` in process on `rig`, one wave at a time; returns the
/// key-sorted outcomes, per-wave host milliseconds, the simulated cycles
/// and the rig's counter deltas (non-zero only with profiling on).
fn replay(
    rig: &mut Rig,
    rounds: &[Vec<TraceCmd>],
) -> (Vec<KeyedOutcome>, Vec<f64>, u64, SimCounters) {
    let handle = rig.fleet.handle(0).clone();
    let before = handle.counter_snapshot();
    let t0 = handle.now();
    let mut outcomes = Vec::new();
    let mut wave_ms = Vec::with_capacity(rounds.len());
    for round in rounds {
        let t = Instant::now();
        outcomes.extend(replay_on(rig, std::slice::from_ref(round)));
        wave_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    outcomes.sort_by_key(|(tenant, seq, _)| (*tenant, *seq));
    let cycles = handle.now() - t0;
    let counters = SimCounters::from_snapshot(&handle.counter_delta(&before));
    (outcomes, wave_ms, cycles, counters)
}

/// Nanoseconds per frame to encode, and to decode, `frames`, checking
/// that every frame decodes back to itself.
fn codec_ns(frames: &[Frame]) -> Result<(f64, f64), String> {
    let reps = 20;
    let t = Instant::now();
    let mut payloads = Vec::new();
    for _ in 0..reps {
        payloads = frames
            .iter()
            .map(|f| std::hint::black_box(f).encode())
            .collect();
    }
    let encode = t.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
    let t = Instant::now();
    let mut decoded = Vec::new();
    for _ in 0..reps {
        decoded = payloads
            .iter()
            .map(|p: &Vec<u8>| Frame::decode(std::hint::black_box(p)))
            .collect();
    }
    let decode = t.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
    for (f, d) in frames.iter().zip(decoded) {
        if d.as_ref() != Ok(f) {
            return Err(format!("frame {f:?} decoded as {d:?}"));
        }
    }
    Ok((encode, decode))
}

/// The frames of one pass: each command's SUBMIT and ACK, each wave's
/// two POLLs and DONEs, and every OUTCOME.
fn pass_frames(rounds: &[Vec<TraceCmd>], p: &NetPass) -> Vec<Frame> {
    let mut frames = Vec::new();
    for round in rounds {
        for cmd in round {
            frames.push(Frame::Submit {
                seq: cmd.seq,
                job: cmd.job.clone(),
            });
            frames.push(Frame::Ack { seq: cmd.seq });
        }
        for _ in 0..TENANTS {
            frames.push(Frame::Poll);
            frames.push(Frame::Done { count: 0 });
        }
    }
    frames.extend(p.outcomes.iter().map(|(_, seq, outcome)| Frame::Outcome {
        seq: *seq,
        outcome: *outcome,
    }));
    frames
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    // The in-process oracle first: its digest is what every socket pass
    // must reproduce, and its clock gives the simulated cycles.
    let mut rig = bnet::build(&rig_config());
    let addrs: Vec<u64> = rig.buffers.iter().map(|b| b.device_addr).collect();
    let rounds = seeded_rounds(args.seed, &addrs);
    let (oracle, inproc_ms, sim_cycles, _) = replay(&mut rig, &rounds);
    let oracle_digest = outcome_digest(&oracle);

    // Each pass is checked as it ends; only the first pass of each kind
    // keeps its outcome lists, so memory does not grow with run length.
    let mut kept = [false; 2];
    let mut n = 0;
    let passes = run_passes(args, |tr| {
        let mut p = pass(tr, &rounds, &addrs, sim_cycles)?;
        if p.digest != oracle_digest {
            return Err(format!(
                "pass {n}: socket digest {:016x} != in-process replay digest {oracle_digest:016x}",
                p.digest
            ));
        }
        n += 1;
        if std::mem::replace(&mut kept[usize::from(tr.enabled())], true) {
            p.outcomes = Vec::new();
        }
        Ok(p)
    })?;

    let first = &passes.untraced[0];
    let offered = first.totals.offered;
    let n_offered = usize::try_from(offered).expect("fits");
    let mut specific = Report::default();
    let waves: Vec<f64> = passes
        .untraced
        .iter()
        .flat_map(|p| p.wave_ms.clone())
        .collect();
    let waves = sorted_f64(&waves);
    if !supports(waves.len(), 90.0) {
        return Err(format!("{} waves cannot support a p90", waves.len()));
    }
    let what = "exact, every wave of every untraced pass";
    specific.add(
        "wave_ms_p50",
        percentile(&waves, 50.0),
        "ms",
        waves.len(),
        what,
    );
    specific.add(
        "wave_ms_p90",
        percentile(&waves, 90.0),
        "ms",
        waves.len(),
        what,
    );
    let tail = tail_percentile(waves.len()).expect("at least a p90");
    specific.add(
        "wave_ms_tail",
        percentile(&waves, tail),
        "ms",
        waves.len(),
        format!("exact p{tail}, the highest percentile with >= 10 waves beyond it"),
    );
    let lat: Vec<u64> = first
        .outcomes
        .iter()
        .filter_map(|(_, _, o)| match o {
            WireOutcome::Completed { latency_cycles, .. } => Some(*latency_cycles),
            WireOutcome::Rejected { .. } => None,
        })
        .collect();
    let what = "exact, completed commands of one pass";
    specific.add_p50_p99("sim_", "_cycles", &lat, what)?;
    specific.add(
        "fail_ratio",
        (offered - first.totals.completed) as f64 / offered as f64,
        "ratio",
        n_offered,
        "(rejected + shed) / offered",
    );

    let untraced: Vec<PassTotals> = passes.untraced.iter().map(|p| p.totals).collect();
    let mut notes = vec![format!(
        "{WAVES} waves of {} commands (<= {MAX_ELES} elements) per pass; {TENANTS} tenants, \
         one connection each, {CORES} cores; socket digest == in-process digest {oracle_digest:016x}",
        TENANTS * WAVE_SHARE
    )];

    notes.push(pass_note(&untraced));
    let per_layer = if args.trace {
        let mut v = LayerValues::new();
        let mut rig = bnet::build(&rig_config());
        rig.fleet.handle(0).set_profiling(true);
        let (profiled, _, _, counters) = replay(&mut rig, &rounds);
        if outcome_digest(&profiled) != oracle_digest {
            return Err("the profiled in-process replay served different outcomes".into());
        }
        let host_ns = 1e9 * stats::median(&untraced.iter().map(|t| t.work_s).collect::<Vec<_>>());
        counters.put(
            &mut v,
            host_ns,
            untraced.len(),
            "the profiled in-process replay of the same rounds",
        );
        let traced_spans = passes.tracer.spans();
        let n = passes.traced.len();
        put(
            &mut v,
            "bcore.elaborate_ms",
            stats::median(
                &traced_spans
                    .iter()
                    .filter(|s| s.layer == "bcore")
                    .map(|s| s.duration_ns() as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            n,
            "median elaboration of the rig's SoC shape, once per traced pass",
        );
        let pooled = |f: fn(&NetPass) -> &Vec<f64>| {
            sorted_f64(
                &passes
                    .traced
                    .iter()
                    .flat_map(|p| f(p).clone())
                    .collect::<Vec<_>>(),
            )
        };
        let submit = pooled(|p| &p.submit_us);
        put(
            &mut v,
            "bnet.submit_us_p50",
            percentile(&submit, 50.0),
            submit.len(),
            "exact, SUBMIT to ACK, traced passes",
        );
        let barrier = pooled(|p| &p.barrier_ms);
        put(
            &mut v,
            "bnet.barrier_ms_p50",
            percentile(&barrier, 50.0),
            barrier.len(),
            "exact, first poll_send to last poll_recv, traced passes",
        );
        let inproc = sorted_f64(&inproc_ms);
        let inproc_p50 = percentile(&inproc, 50.0);
        put(
            &mut v,
            "bnet.inproc_wave_ms_p50",
            inproc_p50,
            inproc.len(),
            "exact, the same rounds through bnet::replay_on",
        );
        put(
            &mut v,
            "bnet.overhead_ms_per_wave",
            percentile(&waves, 50.0) - inproc_p50,
            waves.len(),
            "socket wave p50 (untraced) - in-process wave p50",
        );
        let frames = pass_frames(&rounds, &passes.traced[0]);
        let (enc, dec) = codec_ns(&frames)?;
        put(
            &mut v,
            "bnet.encode_ns_per_frame",
            enc,
            frames.len(),
            "Frame::encode over one pass's frames",
        );
        put(
            &mut v,
            "bnet.decode_ns_per_frame",
            dec,
            frames.len(),
            "Frame::decode over one pass's frames",
        );
        let stats_of = &passes.traced[0].stats;
        let stat = |name: &str| stats_of.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        for name in [
            "frames_in",
            "frames_out",
            "bytes_in",
            "bytes_out",
            "waves",
            "proto_errors",
            "shed_commands",
            "evicted_conns",
        ] {
            let value = stat(&format!("net/{name}")).unwrap_or(0);
            put(
                &mut v,
                &format!("bnet.{name}"),
                value as f64,
                1,
                "server STATS after one pass",
            );
        }
        for name in [
            "dispatched",
            "rejected",
            "retried",
            "lock_wait_cycles",
            "coalesced_wakes",
            "queue_depth_peak",
        ] {
            let value = stat(&format!("server/fleet/{name}")).unwrap_or(0);
            put(
                &mut v,
                &format!("bserver.{name}"),
                value as f64,
                1,
                "fleet rollup in STATS after one pass",
            );
        }
        let mut waits = Vec::new();
        let mut service = Vec::new();
        for (_, _, o) in &first.outcomes {
            if let WireOutcome::Completed {
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
        layer.add_p50_p99("bserver.queue_wait_", "_cycles", &waits, what)?;
        layer.add_p50_p99("bserver.service_", "_cycles", &service, what)?;
        put_all(&mut v, "", &layer);
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
