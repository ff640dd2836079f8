//! Cycle-identity of the runtime server's lock-arbitrated baseline
//! against driving `bruntime` directly — the guarantee that lets the
//! Figure 6 measured leg run through `bserver` without moving a single
//! cycle: same calls, same spins, same polls, same clock.

use std::collections::BTreeMap;

use bcore::elaborate;
use bkernels::machsuite::nw;
use bplatform::Platform;
use bruntime::FpgaHandle;
use bserver::{DispatchPolicy, FleetConfig, FleetServer, JobOutcome, JobSpec, ServerConfig};

const NW_N: usize = 32;

/// Elaborates the Figure 6 multi-core shape: NW on AWS F1 at the
/// paper's 125 MHz.
fn nw_soc(n_cores: u32) -> bcore::SocSim {
    let mut platform = Platform::aws_f1();
    platform.fabric_mhz = 125;
    elaborate(nw::config(n_cores, NW_N), &platform).expect("NW elaborates")
}

/// Prepares `cmds` invocations' buffers on `handle`, exactly as the fig6
/// harness does.
fn prepare(handle: &FpgaHandle, cmds: usize) -> Vec<BTreeMap<String, u64>> {
    (0..cmds)
        .map(|idx| {
            let (a, b) = nw::workload(NW_N, idx as u64);
            let pa = handle.malloc(NW_N as u64).unwrap();
            let pb = handle.malloc(NW_N as u64).unwrap();
            let po = handle.malloc((4 * NW_N) as u64).unwrap();
            handle.write_at(pa, 0, &a);
            handle.write_at(pb, 0, &b);
            handle.copy_to_fpga(pa);
            handle.copy_to_fpga(pb);
            nw::args(pa.device_addr(), pb.device_addr(), po.device_addr(), NW_N)
        })
        .collect()
}

#[test]
fn fig6_measured_leg_is_cycle_identical_through_the_server() {
    let n_cores = 2u32;
    let cmds = 4usize;

    // Leg 1: the original Figure 6 sequence, driving the handle directly.
    let handle = FpgaHandle::new(nw_soc(n_cores));
    let prepared = prepare(&handle, cmds);
    let mut responses = Vec::with_capacity(cmds);
    for (i, args) in prepared.into_iter().enumerate() {
        let core = (i % n_cores as usize) as u16;
        responses.push(handle.call(nw::SYSTEM, core, args).expect("call"));
    }
    let direct_values: Vec<u64> = responses
        .into_iter()
        .map(|r| r.get().expect("invocation completes"))
        .collect();
    let direct_cycles = handle.now();

    // Leg 2: the same workload through a 1-shard fleet's baseline policy.
    let config = FleetConfig {
        shards: 1,
        server: ServerConfig {
            policy: DispatchPolicy::LockArbitrated,
            ..ServerConfig::default()
        },
    };
    let mut fleet =
        FleetServer::new(|_| nw_soc(n_cores), nw::SYSTEM, 1, config).expect("fleet opens");
    let handle = fleet.handle(0).clone();
    let prepared = prepare(&handle, cmds);
    let outcomes = fleet.run_batch(
        prepared
            .into_iter()
            .map(|args| (0, JobSpec::new(args)))
            .collect(),
    );
    let server_values: Vec<u64> = outcomes
        .iter()
        .map(|o| match o {
            JobOutcome::Completed { value, .. } => *value,
            other => panic!("batch job must complete: {other:?}"),
        })
        .collect();

    assert_eq!(
        handle.now(),
        direct_cycles,
        "the lock-arbitrated baseline must not move the clock by even one cycle"
    );
    assert_eq!(server_values, direct_values, "same responses, same order");
}
