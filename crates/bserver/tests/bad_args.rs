//! A job whose arguments do not fit the system's command spec is
//! refused at admission with [`RejectReason::BadArgs`] — never a
//! dispatcher panic — and every other job is served exactly as if the
//! bad one had never been submitted.

use bcore::elaborate;
use bkernels::vecadd;
use bplatform::Platform;
use bserver::{
    Arrival, BatchPolicy, DispatchPolicy, FleetConfig, FleetServer, JobOutcome, JobSpec,
    RejectReason, ServerConfig,
};

const TENANTS: usize = 6;

/// Where the bad job sits in the submission order.
const BAD_AT: usize = 5;

/// Runs an 18-job mixed-size schedule on a 2-shard fleet, optionally
/// with one `n_eles = u32::MAX` job (the field is 20 bits wide) spliced
/// in at `BAD_AT`. Returns the outcomes in submission order.
fn run(config: ServerConfig, with_bad: bool) -> Vec<JobOutcome> {
    let mut fleet = FleetServer::new(
        |_| elaborate(vecadd::config(2), &Platform::kria()).expect("vecadd elaborates"),
        vecadd::SYSTEM,
        TENANTS,
        FleetConfig {
            shards: 2,
            server: config,
        },
    )
    .expect("fleet opens");
    let buffers: Vec<bruntime::RemotePtr> = (0..TENANTS)
        .map(|t| {
            let s = fleet.session(t);
            let mem = s.malloc(4096 * 4).expect("tenant buffer");
            s.write_u32_slice(mem, &vec![1u32; 4096]);
            mem
        })
        .collect();
    let job = |tenant: usize, n_eles: u32| {
        JobSpec::new(vecadd::args(1, buffers[tenant].device_addr(), n_eles))
            .with_cost_hint(u64::from(n_eles))
    };
    let mut arrivals: Vec<Arrival> = (0..18)
        .map(|i| {
            let tenant = (i * 7 + 3) % TENANTS;
            Arrival {
                at_cycle: 50 * (i as u64 + 1),
                tenant,
                spec: job(tenant, [64u32, 512, 4096][i % 3]),
            }
        })
        .collect();
    if with_bad {
        arrivals.insert(
            BAD_AT,
            Arrival {
                at_cycle: 50 * BAD_AT as u64 + 25,
                tenant: 2,
                spec: job(2, u32::MAX),
            },
        );
    }
    fleet.run_open_loop(arrivals)
}

#[test]
fn bad_args_are_rejected_and_leave_every_other_outcome_unchanged() {
    let configs = DispatchPolicy::all()
        .into_iter()
        .map(|policy| ServerConfig {
            policy,
            queue_capacity: 8,
            ..ServerConfig::default()
        })
        .chain(
            [BatchPolicy::Fixed(4), BatchPolicy::Auto].map(|batch| ServerConfig {
                queue_capacity: 8,
                batch,
                ..ServerConfig::default()
            }),
        );
    for config in configs {
        let clean = run(config, false);
        let mut mixed = run(config, true);
        let bad = mixed.remove(BAD_AT);
        assert!(
            matches!(
                bad,
                JobOutcome::Rejected {
                    reason: RejectReason::BadArgs,
                    retries: 0,
                    ..
                }
            ),
            "{config:?}: the bad job must be refused: {bad:?}"
        );
        assert_eq!(mixed, clean, "{config:?}: other outcomes must not move");
    }
}
