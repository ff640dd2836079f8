//! Auth, quota, and admission-control enforcement at the network
//! tier: bad tokens die at `HELLO`, per-tenant command quotas are
//! exact (and reset each wave), total-pending overload sheds with
//! `ERR{Overloaded}` and a retry-after hint instead of wedging, and a
//! connection-flooding tenant cannot starve another tenant's session.
//! Liveness under misbehaviour: aborted handshakes never leak conn
//! slots, a submit-without-poll staller is evicted at the stall
//! deadline so honest tenants' waves keep running, a dead
//! connection's unserved seqs are freed for resubmission, and a job
//! whose arguments do not fit the command spec comes back rejected
//! without stalling anyone else's wave.

use std::time::{Duration, Instant};

use bnet::{
    build, tenant_token, write_frame, ClientError, ErrCode, Frame, NetClient, NetConfig, NetServer,
    RigConfig, SubmitReply, WireJob, WireOutcome, WireReject, DEFAULT_AUTH_SEED, PROTO_VERSION,
};

fn job(buffer_addr: u64, at_cycle: u64) -> WireJob {
    WireJob {
        at_cycle,
        cost_hint: 64,
        deadline_cycles: None,
        args: bkernels::vecadd::args(1, buffer_addr, 64)
            .into_iter()
            .collect(),
    }
}

fn small_server(tweak: impl FnOnce(&mut NetConfig)) -> (NetServer, String) {
    let mut config = NetConfig::new(RigConfig::small());
    tweak(&mut config);
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn connect(addr: &str, tenant: u32) -> NetClient {
    NetClient::connect(addr, tenant, tenant_token(DEFAULT_AUTH_SEED, tenant)).expect("connect")
}

/// Connects, riding out transient `ERR{ConnLimit}` refusals — slot
/// release happens when the server's worker deregisters a closed
/// connection, which is asynchronous to the client's `bye()`/drop.
fn connect_when_slot_frees(addr: &str, tenant: u32) -> NetClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match NetClient::connect(addr, tenant, tenant_token(DEFAULT_AUTH_SEED, tenant)) {
            Ok(c) => return c,
            Err(ClientError::Refused {
                code: ErrCode::ConnLimit,
                ..
            }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("tenant {tenant} cannot connect: {other:?}"),
        }
    }
}

#[test]
fn bad_token_is_refused_at_hello() {
    let (server, addr) = small_server(|_| {});
    let err = NetClient::connect(&addr, 0, 0xDEAD_BEEF).expect_err("bad token must be refused");
    match err {
        ClientError::Refused { code, .. } => assert_eq!(code, ErrCode::AuthFailed),
        other => panic!("expected Refused(auth_failed), got {other:?}"),
    }
    // A token minted under a different seed is just as dead.
    let err = NetClient::connect(&addr, 0, tenant_token(DEFAULT_AUTH_SEED ^ 1, 0))
        .expect_err("wrong-seed token must be refused");
    assert!(matches!(
        err,
        ClientError::Refused {
            code: ErrCode::AuthFailed,
            ..
        }
    ));
    // An out-of-range tenant id is refused before the token check.
    let err = NetClient::connect(&addr, 99, tenant_token(DEFAULT_AUTH_SEED, 99))
        .expect_err("unknown tenant must be refused");
    assert!(matches!(
        err,
        ClientError::Refused {
            code: ErrCode::UnknownTenant,
            ..
        }
    ));
    // The refusals did not poison the listener.
    connect(&addr, 0).bye().expect("bye");
    server.stop();
}

#[test]
fn per_tenant_command_quota_is_exact_and_resets_per_wave() {
    let (server, addr) = small_server(|c| c.max_pending_per_tenant = 3);
    let buffer_addr = {
        let rig = build(&RigConfig::small());
        rig.buffers[0].device_addr
    };
    let mut client = connect(&addr, 0);
    assert_eq!(client.info().buffer_addr, buffer_addr);
    for wave in 0..2u64 {
        // Exactly 3 fit; the 4th draws ERR{QuotaExceeded} with a hint.
        for i in 0..3 {
            let reply = client
                .submit(wave * 10 + i, &job(buffer_addr, i))
                .expect("submit");
            assert_eq!(reply, SubmitReply::Accepted, "command {i} of wave {wave}");
        }
        match client.submit(wave * 10 + 3, &job(buffer_addr, 3)).unwrap() {
            SubmitReply::Refused {
                code,
                retry_after_us,
            } => {
                assert_eq!(code, ErrCode::QuotaExceeded);
                assert!(retry_after_us > 0, "quota refusal must carry a back-off");
            }
            SubmitReply::Accepted => panic!("4th command must exceed the quota"),
        }
        // Serving the wave frees the quota for the next one.
        let outcomes = client.poll().expect("poll");
        assert_eq!(outcomes.len(), 3);
    }
    client.bye().expect("bye");
    server.stop();
}

#[test]
fn duplicate_seq_is_refused_without_killing_the_session() {
    let (server, addr) = small_server(|_| {});
    let mut client = connect(&addr, 0);
    let buffer_addr = client.info().buffer_addr;
    assert_eq!(
        client.submit(7, &job(buffer_addr, 0)).unwrap(),
        SubmitReply::Accepted
    );
    match client.submit(7, &job(buffer_addr, 1)).unwrap() {
        SubmitReply::Refused { code, .. } => assert_eq!(code, ErrCode::DuplicateSeq),
        SubmitReply::Accepted => panic!("replayed seq must be refused"),
    }
    assert_eq!(client.poll().expect("poll").len(), 1);
    client.bye().expect("bye");
    server.stop();
}

#[test]
fn total_overload_sheds_and_honest_tenants_still_complete() {
    let (server, addr) = small_server(|c| c.max_pending_total = 4);
    let mut hog = connect(&addr, 0);
    let mut honest = connect(&addr, 1);
    let hog_addr = hog.info().buffer_addr;
    let honest_addr = honest.info().buffer_addr;
    // The hog fills the whole admission window…
    for i in 0..4 {
        assert_eq!(
            hog.submit(i, &job(hog_addr, i)).unwrap(),
            SubmitReply::Accepted
        );
    }
    // …so the honest tenant is shed, with a retry hint, not an error.
    match honest.submit(0, &job(honest_addr, 0)).unwrap() {
        SubmitReply::Refused {
            code,
            retry_after_us,
        } => {
            assert_eq!(code, ErrCode::Overloaded);
            assert!(retry_after_us > 0, "shed must carry a retry-after hint");
        }
        SubmitReply::Accepted => panic!("5th pending command must be shed"),
    }
    // The wave drains the hog; the honest tenant retries and completes
    // — the server never wedged.
    assert_eq!(hog.poll().expect("poll").len(), 4);
    assert_eq!(
        honest.submit(0, &job(honest_addr, 0)).unwrap(),
        SubmitReply::Accepted
    );
    assert_eq!(honest.poll().expect("poll").len(), 1);
    let stats: std::collections::BTreeMap<String, u64> =
        honest.server_stats().expect("stats").into_iter().collect();
    assert_eq!(stats.get("net/shed_commands"), Some(&1));
    hog.bye().expect("bye");
    honest.bye().expect("bye");
    server.stop();
}

#[test]
fn connection_flooding_cannot_starve_another_tenant() {
    let (server, addr) = small_server(|c| c.max_conns_per_tenant = 2);
    // Tenant 0 floods: the first two stick, every further HELLO draws
    // ERR{ConnLimit}.
    let flood: Vec<NetClient> = (0..2).map(|_| connect(&addr, 0)).collect();
    for _ in 0..3 {
        let err = NetClient::connect(&addr, 0, tenant_token(DEFAULT_AUTH_SEED, 0))
            .expect_err("3rd connection must be refused");
        match err {
            ClientError::Refused {
                code,
                retry_after_us,
                ..
            } => {
                assert_eq!(code, ErrCode::ConnLimit);
                assert!(retry_after_us > 0);
            }
            other => panic!("expected Refused(conn_limit), got {other:?}"),
        }
    }
    // Tenant 1 connects and completes a full round regardless.
    let mut honest = connect(&addr, 1);
    let honest_addr = honest.info().buffer_addr;
    assert_eq!(
        honest.submit(0, &job(honest_addr, 0)).unwrap(),
        SubmitReply::Accepted
    );
    assert_eq!(honest.poll().expect("poll").len(), 1);
    honest.bye().expect("bye");
    // Dropping a flood connection frees a slot (asynchronously, once
    // the server's worker deregisters it).
    let mut flood = flood;
    flood.pop().unwrap().bye().expect("bye");
    connect_when_slot_frees(&addr, 0).bye().expect("bye");
    server.stop();
}

#[test]
fn aborted_handshakes_do_not_leak_connection_slots() {
    let (server, addr) = small_server(|c| c.max_conns_per_tenant = 2);
    // A storm of valid HELLOs whose clients vanish before (or while)
    // HelloAck is written: none may permanently consume a conn slot,
    // even when the ack's send fails.
    for _ in 0..8 {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        write_frame(
            &mut s,
            &Frame::Hello {
                proto: PROTO_VERSION,
                tenant: 0,
                token: tenant_token(DEFAULT_AUTH_SEED, 0),
            },
        )
        .expect("hello");
        drop(s);
    }
    // Deregistration is asynchronous, so transient ConnLimit refusals
    // are fine — but a real session must succeed well within the
    // window instead of the tenant being locked out forever.
    connect_when_slot_frees(&addr, 0).bye().expect("bye");
    server.stop();
}

#[test]
fn stalled_submitter_is_evicted_and_others_make_progress() {
    let (server, addr) = small_server(|c| c.stall_timeout_ms = 200);
    let mut staller = connect(&addr, 0);
    let staller_addr = staller.info().buffer_addr;
    assert_eq!(
        staller.submit(0, &job(staller_addr, 0)).unwrap(),
        SubmitReply::Accepted
    );
    // The staller keeps its TCP connection open but never polls. The
    // honest tenant's POLL must still complete: the dispatcher evicts
    // the staller at the submit-to-poll deadline and runs the wave.
    let mut honest = connect(&addr, 1);
    let honest_addr = honest.info().buffer_addr;
    assert_eq!(
        honest.submit(0, &job(honest_addr, 0)).unwrap(),
        SubmitReply::Accepted
    );
    assert_eq!(honest.poll().expect("poll").len(), 1);
    let stats: std::collections::BTreeMap<String, u64> =
        honest.server_stats().expect("stats").into_iter().collect();
    assert_eq!(stats.get("net/evicted_conns"), Some(&1));
    // The evicted connection really is dead, not half-registered.
    assert!(staller.poll().is_err(), "evicted connection must be closed");
    honest.bye().expect("bye");
    server.stop();
}

#[test]
fn dead_connections_unserved_seq_is_freed_for_resubmission() {
    let (server, addr) = small_server(|_| {});
    let mut first = connect(&addr, 0);
    let buffer_addr = first.info().buffer_addr;
    assert_eq!(
        first.submit(7, &job(buffer_addr, 0)).unwrap(),
        SubmitReply::Accepted
    );
    // The connection dies before POLL, so seq 7 was never served. A
    // reconnect must be able to resubmit it (after the asynchronous
    // deregistration) instead of drawing ERR{DuplicateSeq} forever and
    // silently losing the command.
    drop(first);
    let mut second = connect(&addr, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match second.submit(7, &job(buffer_addr, 0)).unwrap() {
            SubmitReply::Accepted => break,
            SubmitReply::Refused {
                code: ErrCode::DuplicateSeq,
                ..
            } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            refused => panic!("seq 7 must be freed by the dead connection, got {refused:?}"),
        }
    }
    assert_eq!(second.poll().expect("poll").len(), 1);
    second.bye().expect("bye");
    server.stop();
}

#[test]
fn bad_args_submit_is_rejected_and_other_tenants_keep_polling() {
    let (server, addr) = small_server(|_| {});
    let (tx, rx) = std::sync::mpsc::channel();
    let probe_addr = addr.clone();
    // The clients run on their own thread so a wedged wave fails the
    // test at the deadline below instead of hanging it.
    std::thread::spawn(move || {
        let mut bad = connect(&probe_addr, 1);
        let mut honest = connect(&probe_addr, 0);
        // `n_eles` is a 20-bit field: u32::MAX cannot be packed.
        let mut too_wide = job(bad.info().buffer_addr, 0);
        too_wide.args = bkernels::vecadd::args(1, bad.info().buffer_addr, u32::MAX)
            .into_iter()
            .collect();
        assert_eq!(bad.submit(0, &too_wide).unwrap(), SubmitReply::Accepted);
        let honest_addr = honest.info().buffer_addr;
        assert_eq!(
            honest.submit(0, &job(honest_addr, 0)).unwrap(),
            SubmitReply::Accepted
        );
        bad.poll_send().expect("poll");
        honest.poll_send().expect("poll");
        let replies = (
            bad.poll_recv().expect("bad tenant's poll"),
            honest.poll_recv().expect("honest tenant's poll"),
        );
        tx.send(replies).ok();
        bad.bye().expect("bye");
        honest.bye().expect("bye");
    });
    let (bad_out, honest_out) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("both tenants' POLLs must complete within 20 s");
    assert!(
        matches!(
            bad_out[..],
            [(
                0,
                WireOutcome::Rejected {
                    reason: WireReject::BadArgs,
                    ..
                }
            )]
        ),
        "{bad_out:?}"
    );
    assert!(
        matches!(honest_out[..], [(0, WireOutcome::Completed { .. })]),
        "{honest_out:?}"
    );
    server.stop();
}
