//! The load generator's stdout is a deterministic artifact: for a fixed
//! seed it must be byte-identical at any `BBENCH_JOBS` worker count and
//! under every `bsim` scheduler mode (`BSIM_NAIVE=1`, `BSIM_SCHED=skip`,
//! and the default active-set scheduler). One test function owns the
//! process-global scheduler environment, so the mode sweep cannot race a
//! concurrent test in this binary.

use bbench::loadgen::{plan, render, run_on, LoadScale};
use bserver::BatchPolicy;

#[test]
fn loadgen_stdout_is_invariant_across_workers_and_scheduler_modes() {
    let scale = LoadScale {
        jobs: 24,
        ..LoadScale::small()
    };
    let seed = 42;
    assert_eq!(plan(seed, &scale).len(), scale.jobs);

    let saved_naive = std::env::var("BSIM_NAIVE").ok();
    let saved_sched = std::env::var("BSIM_SCHED").ok();
    std::env::remove_var("BSIM_NAIVE");
    std::env::remove_var("BSIM_SCHED");

    // Reference: default scheduler, exact serial path.
    let run = |workers| run_on(seed, &scale, 1, workers, BatchPolicy::Fixed(1), None);
    let (runs, cycles) = run(1);
    let reference = render(seed, &scale, 1, &runs);

    // Worker-count sweep under the default scheduler.
    let (runs, c) = run(4);
    assert_eq!(c, cycles, "cycle totals must not depend on worker count");
    assert_eq!(
        render(seed, &scale, 1, &runs),
        reference,
        "stdout must be byte-identical at any worker count"
    );

    // Scheduler-mode sweep (each mode re-read at SoC construction).
    for (naive, sched, label) in [
        (Some("1"), None, "BSIM_NAIVE=1"),
        (None, Some("skip"), "BSIM_SCHED=skip"),
        (None, Some("active"), "BSIM_SCHED=active"),
    ] {
        match naive {
            Some(v) => std::env::set_var("BSIM_NAIVE", v),
            None => std::env::remove_var("BSIM_NAIVE"),
        }
        match sched {
            Some(v) => std::env::set_var("BSIM_SCHED", v),
            None => std::env::remove_var("BSIM_SCHED"),
        }
        let (runs, c) = run(2);
        assert_eq!(c, cycles, "{label}: cycle totals must match");
        assert_eq!(
            render(seed, &scale, 1, &runs),
            reference,
            "{label}: stdout must be byte-identical under every scheduler"
        );
    }

    match saved_naive {
        Some(v) => std::env::set_var("BSIM_NAIVE", v),
        None => std::env::remove_var("BSIM_NAIVE"),
    }
    match saved_sched {
        Some(v) => std::env::set_var("BSIM_SCHED", v),
        None => std::env::remove_var("BSIM_SCHED"),
    }
}
