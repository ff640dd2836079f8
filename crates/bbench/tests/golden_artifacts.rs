//! Golden artifacts: the load generator's and the replay oracle's
//! deterministic outputs, pinned byte for byte.
//!
//! Every number below is simulated (cycles and counts from a seeded
//! schedule), so these bytes only move when serving behaviour moves.
//! Refactors of the serving stack must leave them untouched; a change
//! that means to move them must regenerate the constants and
//! `results/loadgen.txt` in the same commit and say why.

use bbench::loadgen::{render, render_json, run_on, LoadScale};
use bbench::netgen::run_oracle;
use bserver::{BatchPolicy, DispatchPolicy};

/// `loadgen --seed 42 --small --shards 2` stdout.
const SMALL_SHARDS2_TABLE: &str = "\
Load generator: 48 jobs, 4 tenants, 2 cores, mean gap 120 cycles, seed 42, 2 shards

policy             done    rej      p50       p90       p99       max     makespan   lock_wait  peakq
------------------------------------------------------------------------------------------------------
lock-arbitrated      48      0     2047      6026      6026      6026        11446        2640      2
fifo                 48      0     2047      6104      6104      6104        11618        2640     11
round-robin          48      0     2047      6177      6177      6177        11455        2640      9
sjf                  47      1     1023      6505      6505      6505        11711        2585      9

(latencies in fabric cycles, from the server/latency_cycles histogram)
";

/// `loadgen --seed 42 --small --json` stdout (minus the trailing newline).
const SMALL_JSON: &str = concat!(
    r#"{"seed":42,"tenants":4,"jobs":48,"cores":2,"mean_gap_cycles":120,"queue_capacity":6,"policies":["#,
    r#"{"policy":"lock-arbitrated","offered":48,"completed":48,"rejected":0,"p50":8191,"p90":11348,"p99":11348,"max":11348,"makespan_cycles":16879,"lock_wait_cycles":10890,"queue_depth_peak":12},"#,
    r#"{"policy":"fifo","offered":48,"completed":41,"rejected":7,"p50":8191,"p90":9977,"p99":9977,"max":9977,"makespan_cycles":15491,"lock_wait_cycles":2255,"queue_depth_peak":21},"#,
    r#"{"policy":"round-robin","offered":48,"completed":42,"rejected":6,"p50":4095,"p90":11786,"p99":11786,"max":11786,"makespan_cycles":15465,"lock_wait_cycles":2310,"queue_depth_peak":21},"#,
    r#"{"policy":"sjf","offered":48,"completed":47,"rejected":1,"p50":2047,"p90":11989,"p99":11989,"max":11989,"makespan_cycles":17195,"lock_wait_cycles":2585,"queue_depth_peak":16}]}"#,
);

/// Whole-run outcome digests of `loadgen --oracle --small` (FIFO) at 1
/// and 2 shards.
const ORACLE_DIGEST_1_SHARD: u64 = 0xf6bf_2b72_f5fa_0e82;
const ORACLE_DIGEST_2_SHARDS: u64 = 0xf47e_bf75_0c3b_b39e;

#[test]
fn default_scale_table_matches_the_committed_result() {
    let scale = LoadScale::default_scale();
    let (runs, _) = run_on(42, &scale, 1, 1, BatchPolicy::Fixed(1), None);
    assert_eq!(
        render(42, &scale, 1, &runs),
        include_str!("../../../results/loadgen.txt"),
        "results/loadgen.txt must regenerate unchanged"
    );
}

#[test]
fn small_two_shard_table_is_pinned() {
    let scale = LoadScale::small();
    let (runs, _) = run_on(42, &scale, 2, 1, BatchPolicy::Fixed(1), None);
    assert_eq!(render(42, &scale, 2, &runs), SMALL_SHARDS2_TABLE);
}

#[test]
fn small_json_summary_is_pinned() {
    let scale = LoadScale::small();
    let (runs, _) = run_on(42, &scale, 1, 1, BatchPolicy::Fixed(1), None);
    assert_eq!(
        render_json(42, &scale, None, BatchPolicy::Fixed(1), &runs),
        SMALL_JSON
    );
}

#[test]
fn oracle_digests_are_pinned() {
    let scale = LoadScale::small();
    for (shards, digest) in [(1, ORACLE_DIGEST_1_SHARD), (2, ORACLE_DIGEST_2_SHARDS)] {
        let report = run_oracle(42, &scale, DispatchPolicy::Fifo, shards);
        assert_eq!(
            report.digest, digest,
            "{shards}-shard oracle digest moved: {:#018x}",
            report.digest
        );
    }
}
