//! Open-loop load generator for the multi-tenant runtime server: replays
//! a seeded arrival schedule against every dispatch policy and reports
//! goodput and latency percentiles (see `bbench::loadgen`).
//!
//! ```text
//! cargo run -p bbench --release --bin loadgen -- --seed 42 --tenants 8
//! ```
//!
//! Every policy is served by a [`bserver::FleetServer`]: one shard
//! unless `--shards` asks for more.
//!
//! Flags: `--seed N` (default 42), `--tenants N`, `--small` (scaled-down
//! run), `--json` (machine-readable summary on stdout instead of the
//! table), `--shards N` (N fleet replicas with hashed session
//! admission; per-shard stats appear in the JSON summary), `--telemetry`
//! (request tracing + windowed metrics; the JSON summary gains
//! per-shard stats and a per-policy `"telemetry"` time-series — the
//! table stays byte-identical), `--window N` (telemetry window width in
//! cycles), `--trace DIR` (write one merged Perfetto trace per policy,
//! implies `--telemetry`), `--flight DIR` (arm the stall watchdog; flight
//! recorder dumps land here only if a shard wedges, implies
//! `--telemetry`), `--batch N|auto` (the event-driven policies' batch
//! width: dispatch up to N ready commands per lock visit, or let the
//! adaptive controller pick the width; the default is 1, so `--batch 1`
//! is the same run as omitting the flag, and the lock-arbitrated
//! baseline row ignores it entirely). stdout is byte-identical at any
//! `BBENCH_JOBS`, `BSERVER_SHARDS` (which only caps the fleet's
//! execution width), and scheduler mode, with or without telemetry;
//! diagnostics go to stderr.
//!
//! Two further modes drive the network front-end (`bnet`) instead of
//! the in-process sweep: `--net ADDR` replays the seeded schedule
//! against a live `bservd` at `ADDR` as a closed-loop wire client (one
//! connection per tenant), and `--oracle` replays the identical rounds
//! through the fleet in-process. Both print the same summary shape —
//! including an FNV-1a outcome digest, whole-run and per-tenant — so
//! CI can diff the two paths byte for byte (`--policy NAME` and
//! `--shards N` pick the oracle's rig; `--auth-seed N` must match the
//! daemon's). See `bbench::netgen`.

use bbench::loadgen::{render, render_json, run_on, LoadScale, TelemetryOpts};
use bserver::BatchPolicy;

fn parse_flag(name: &str) -> Option<u64> {
    parse_arg(name).and_then(|v| v.parse().ok())
}

fn parse_arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn net_mode(seed: u64, scale: &LoadScale, json: bool) -> ! {
    let report = if let Some(addr) = parse_arg("--net") {
        let auth_seed = parse_flag("--auth-seed").unwrap_or(bnet::DEFAULT_AUTH_SEED);
        eprintln!("driving bservd at {addr} with seed {seed}, scale {scale:?}");
        bbench::netgen::run_net(&addr, seed, scale, auth_seed).unwrap_or_else(|e| {
            eprintln!("loadgen: net run against {addr} failed: {e}");
            std::process::exit(1);
        })
    } else {
        let policy: bserver::DispatchPolicy = parse_arg("--policy")
            .unwrap_or_else(|| "fifo".to_owned())
            .parse()
            .unwrap_or_else(|e| {
                eprintln!("loadgen: {e}");
                std::process::exit(2);
            });
        let shards = parse_flag("--shards").map_or(1, |n| (n as usize).max(1));
        eprintln!("replaying the oracle in-process: seed {seed}, scale {scale:?}");
        bbench::netgen::run_oracle(seed, scale, policy, shards)
    };
    if json {
        println!("{}", bbench::netgen::render_json(seed, &report));
    } else {
        print!("{}", bbench::netgen::render(seed, &report));
    }
    std::process::exit(0);
}

fn main() {
    let mut scale = if bbench::small_requested() {
        LoadScale::small()
    } else {
        LoadScale::default_scale()
    };
    let seed = parse_flag("--seed").unwrap_or(42);
    if let Some(tenants) = parse_flag("--tenants") {
        scale.tenants = (tenants as usize).max(1);
    }
    let json = std::env::args().any(|a| a == "--json");
    if std::env::args().any(|a| a == "--net" || a == "--oracle") {
        net_mode(seed, &scale, json);
    }
    let batch = parse_arg("--batch").map_or(BatchPolicy::default(), |v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        })
    });
    let shards_flag = parse_flag("--shards").map(|n| (n as usize).max(1));
    let shards = shards_flag.unwrap_or(1);
    let trace_dir = parse_arg("--trace").map(std::path::PathBuf::from);
    let flight_dir = parse_arg("--flight").map(std::path::PathBuf::from);
    let telemetry =
        std::env::args().any(|a| a == "--telemetry") || trace_dir.is_some() || flight_dir.is_some();
    let opts = telemetry.then(|| TelemetryOpts {
        window_cycles: parse_flag("--window").unwrap_or(0),
        trace_dir,
        flight_dir,
    });
    // The JSON summary carries per-shard stats only when shards or
    // telemetry were asked for.
    let json_shards = (shards_flag.is_some() || opts.is_some()).then_some(shards);
    eprintln!("running load generator at scale {scale:?}, seed {seed}");
    bbench::with_sim_rate(|| {
        let (runs, cycles) = run_on(seed, &scale, shards, bbench::worker_count(), batch, opts);
        if json {
            println!("{}", render_json(seed, &scale, json_shards, batch, &runs));
        } else {
            print!("{}", render(seed, &scale, shards, &runs));
        }
        ((), cycles)
    });
}
