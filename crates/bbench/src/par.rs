//! Deterministic parallel job execution across host cores.
//!
//! Every figure in the paper's §III evaluation is a sweep of
//! *independent* SoC simulations — Figure 4 is variants × sizes, Figure 6
//! is per-benchmark single- and multi-core runs, Table III runs the FPGA
//! and ASIC simulations next to the host-CPU baseline. The active-set
//! scheduler makes each simulation fast; this module adds the orthogonal
//! axis: running the independent simulations concurrently on host
//! threads without changing a single output byte.
//!
//! Two facts shape the design:
//!
//! * A job is a `Send` **closure** that constructs *and* runs its SoC
//!   entirely inside the worker thread, returning a plain (`Send`) result
//!   struct. Since the arena refactor [`bsim::Simulation`] is itself
//!   `Send` (the `bserver` fleet relies on that to move whole SoCs onto
//!   shard threads), but the sweep executor keeps the simpler contract:
//!   no simulation state ever crosses a thread boundary.
//! * Determinism comes from isolation plus ordering: each simulation is a
//!   closed system (its only inputs are the job's parameters), and the
//!   executor returns results **in submission order** regardless of which
//!   worker finished first — so serial and parallel runs render
//!   byte-identical artifacts. The `parallel_equivalence` integration
//!   test and a CI `diff` of two `all --small` runs enforce this.
//!
//! The worker count comes from [`worker_count`] (`BBENCH_JOBS` override,
//! else [`std::thread::available_parallelism`]); `BBENCH_JOBS=1` — or a
//! single-job batch — degrades to the exact serial path: the closures run
//! on the calling thread, in order, with no pool at all.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bsim::{MergedSimRate, SimRate, SimRateTimer};

/// One unit of sweep work: a label (used when propagating a worker panic)
/// and a `Send` closure that builds and runs its simulation in-thread.
pub struct Job<R> {
    label: String,
    run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Job<R> {
    /// Wraps `run` as a labelled job.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> R + Send + 'static) -> Self {
        Self {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<R> std::fmt::Debug for Job<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("label", &self.label).finish()
    }
}

/// Parses a `BBENCH_JOBS`-style override (see [`bsim::host::parse_jobs`],
/// the shared implementation).
pub fn parse_jobs(raw: Option<&str>) -> Option<usize> {
    bsim::host::parse_jobs(raw)
}

/// Worker threads for sweep execution: the `BBENCH_JOBS` environment
/// override if set, else the host's [`std::thread::available_parallelism`].
/// Resolved through the shared [`bsim::host::worker_count`] — the same
/// helper the `bserver` fleet uses for `BSERVER_SHARDS` — and used by
/// every harness here that sizes a thread pool (including the Table III
/// host-CPU baseline, so its provenance reports the count actually used).
pub fn worker_count() -> usize {
    bsim::host::worker_count("BBENCH_JOBS")
}

/// How one job ended inside a worker.
enum Outcome<R> {
    Done(R),
    Panicked { label: String, message: String },
}

/// Runs `jobs` on [`worker_count`] workers; results in submission order.
///
/// # Panics
///
/// Re-raises the first (by submission order) worker panic, prefixed with
/// the failing job's label.
pub fn run_jobs<R: Send>(jobs: Vec<Job<R>>) -> Vec<R> {
    run_jobs_on(jobs, worker_count())
}

/// [`run_jobs`] with an explicit worker count (the equivalence tests and
/// the ablation bench pin serial vs parallel without touching the
/// environment). `workers <= 1` takes the exact serial path: every
/// closure runs on the calling thread, in submission order.
///
/// # Panics
///
/// See [`run_jobs`].
pub fn run_jobs_on<R: Send>(jobs: Vec<Job<R>>, workers: usize) -> Vec<R> {
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| (job.run)()).collect();
    }

    // Index-tagged FIFO work queue; completion order is scheduling noise,
    // the tag is what puts every result back in its submission slot.
    let queue: Mutex<VecDeque<(usize, Job<R>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<Outcome<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let poisoned = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let Some((idx, job)) = queue.lock().expect("queue lock").pop_front() else {
                    break;
                };
                let Job { label, run } = job;
                let outcome = match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(value) => Outcome::Done(value),
                    Err(payload) => {
                        // Fail fast: let in-flight jobs finish, start no
                        // new ones.
                        poisoned.store(true, Ordering::Relaxed);
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<non-string panic payload>".to_owned());
                        Outcome::Panicked { label, message }
                    }
                };
                *slots[idx].lock().expect("slot lock") = Some(outcome);
            });
        }
    });

    let mut results = Vec::with_capacity(n);
    for slot in &slots {
        match slot.lock().expect("slot lock").take() {
            Some(Outcome::Done(value)) => results.push(value),
            Some(Outcome::Panicked { label, message }) => {
                panic!("parallel job '{label}' panicked: {message}")
            }
            // Cancelled by fail-fast: some earlier-running job panicked
            // but landed in a later slot — find and re-raise it.
            None => {
                for other in &slots {
                    if let Some(Outcome::Panicked { label, message }) =
                        other.lock().expect("slot lock").take()
                    {
                        panic!("parallel job '{label}' panicked: {message}")
                    }
                }
                unreachable!("job cancelled without any recorded panic")
            }
        }
    }
    results
}

/// Wraps a sweep-cell closure reporting `(result, simulated_cycles)` into
/// a job that also measures its own host wall-clock, for the merged
/// `sim rate:` footer.
pub fn timed<R: Send + 'static>(
    label: impl Into<String>,
    run: impl FnOnce() -> (R, u64) + Send + 'static,
) -> Job<(R, SimRate)> {
    Job::new(label, move || {
        let timer = SimRateTimer::starting_at(0);
        let (result, cycles) = run();
        (result, timer.finish(cycles))
    })
}

/// Runs [`timed`] jobs and merges their per-job rates over the batch's
/// actual wall-clock span ([`bsim::MergedSimRate`]): cycles sum; host
/// time is the span, so the footer never overstates throughput by adding
/// overlapped per-job times.
///
/// # Panics
///
/// See [`run_jobs`].
pub fn run_timed_jobs<R: Send>(
    jobs: Vec<Job<(R, SimRate)>>,
    workers: usize,
) -> (Vec<R>, MergedSimRate) {
    let span = std::time::Instant::now();
    let outcomes = run_jobs_on(jobs, workers);
    let span_seconds = span.elapsed().as_secs_f64();
    let (results, rates): (Vec<R>, Vec<SimRate>) = outcomes.into_iter().unzip();
    (results, MergedSimRate::merge(rates, span_seconds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_env_override_parses_and_clamps() {
        assert_eq!(parse_jobs(None), None);
        assert_eq!(parse_jobs(Some("8")), Some(8));
        assert_eq!(parse_jobs(Some(" 2 ")), Some(2));
        assert_eq!(parse_jobs(Some("0")), Some(1), "0 clamps to serial");
        assert_eq!(parse_jobs(Some("four")), None, "typos fall through");
        assert_eq!(parse_jobs(Some("")), None);
    }

    #[test]
    fn serial_path_runs_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let jobs: Vec<Job<(usize, std::thread::ThreadId)>> = (0..8)
            .map(|i| Job::new(format!("j{i}"), move || (i, std::thread::current().id())))
            .collect();
        let out = run_jobs_on(jobs, 1);
        for (i, (idx, tid)) in out.into_iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(tid, caller, "workers<=1 must not spawn threads");
        }
    }

    #[test]
    fn results_keep_submission_order_with_jobs_far_exceeding_workers() {
        // 64 jobs on 4 workers, with reversed sleep times so late
        // submissions finish first — order must still be by submission.
        let jobs: Vec<Job<usize>> = (0..64)
            .map(|i| {
                Job::new(format!("job {i}"), move || {
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((64 - i) % 7) as u64 * 50,
                    ));
                    i
                })
            })
            .collect();
        let out = run_jobs_on(jobs, 4);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_carries_the_job_label() {
        let jobs: Vec<Job<u32>> = vec![
            Job::new("fine", || 1),
            Job::new("fig4: doomed cell", || panic!("boom {}", 42)),
            Job::new("also fine", || 3),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| run_jobs_on(jobs, 2)))
            .expect_err("panic must propagate");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .expect("labelled panic is a String");
        assert!(
            message.contains("fig4: doomed cell"),
            "panic message must name the failing job: {message}"
        );
        assert!(message.contains("boom 42"), "{message}");
    }

    #[test]
    fn timed_jobs_merge_cycles_and_span() {
        let jobs: Vec<Job<(u64, SimRate)>> = (1..=6)
            .map(|i| timed(format!("t{i}"), move || (i, i * 100)))
            .collect();
        let (results, merged) = run_timed_jobs(jobs, 3);
        assert_eq!(results, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merged.jobs, 6);
        assert_eq!(merged.rate.cycles, 2100, "cycles sum over jobs");
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = run_jobs_on(Vec::new(), 4);
        assert!(out.is_empty());
    }
}
