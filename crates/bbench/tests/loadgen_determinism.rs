//! The load generator's stdout is a deterministic artifact: for a fixed
//! seed it must be byte-identical at any `BBENCH_JOBS` worker count and
//! under both `bsim` schedulers (`BSIM_NAIVE=1` and the default active-set
//! scheduler). One test function owns the process-global scheduler
//! environment, so the mode sweep cannot race a concurrent test in this
//! binary.

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

    let saved = std::env::var("BSIM_NAIVE").ok();
    std::env::remove_var("BSIM_NAIVE");

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

    // The naive oracle (re-read at SoC construction).
    std::env::set_var("BSIM_NAIVE", "1");
    let (runs, c) = run(2);
    match saved {
        Some(v) => std::env::set_var("BSIM_NAIVE", v),
        None => std::env::remove_var("BSIM_NAIVE"),
    }
    assert_eq!(c, cycles, "BSIM_NAIVE=1: cycle totals must match");
    assert_eq!(
        render(seed, &scale, 1, &runs),
        reference,
        "BSIM_NAIVE=1: stdout must be byte-identical to the active set"
    );
}
