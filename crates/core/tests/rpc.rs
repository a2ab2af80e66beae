//! End-to-end protocol tests for RFP: fetching, two-segment reads, the
//! hybrid mode switch with hysteresis, and retry accounting.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{connect, serve_loop, Mode, RfpClient, RfpConfig, RfpServerConn};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{SimSpan, Simulation};

/// One client machine, one server machine, an echo-with-delay server.
struct Rig {
    sim: Simulation,
    client: Rc<RfpClient>,
    client_thread: Rc<ThreadCtx>,
    server_conn: Rc<RfpServerConn>,
}

fn rig(cfg: RfpConfig, process: Rc<Cell<u64>>) -> Rig {
    let mut sim = Simulation::new(11);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (client_m, server_m) = (cluster.machine(0), cluster.machine(1));
    let (client, server_conn) = connect(
        &client_m,
        &server_m,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        cfg,
    );
    let client = Rc::new(client);
    let server_conn = Rc::new(server_conn);

    let st = server_m.thread("server");
    let conn = Rc::clone(&server_conn);
    sim.spawn(serve_loop(
        st,
        vec![conn],
        move |req: &[u8]| (req.to_vec(), SimSpan::micros(process.get())),
        SimSpan::nanos(100),
    ));

    Rig {
        sim,
        client,
        client_thread: client_m.thread("client"),
        server_conn,
    }
}

#[test]
fn echo_round_trip_with_fast_server() {
    let p = Rc::new(Cell::new(0));
    let mut r = rig(RfpConfig::default(), p);
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..50u32 {
            let req = i.to_le_bytes().to_vec();
            let out = client.call(&t, &req).await;
            assert_eq!(out.data, req);
            assert_eq!(out.info.completed_in, Mode::RemoteFetch);
        }
        d.set(true);
    });
    r.sim.run_for(SimSpan::millis(5));
    assert!(done.get(), "client did not finish");
    // A fast server answers on the first or second fetch.
    assert!(r.client.stats().mean_attempts() <= 2.0);
    assert_eq!(r.client.stats().calls(), 50);
    assert_eq!(r.server_conn.served(), 50);
    // No out-bound replies were ever needed.
    assert_eq!(r.server_conn.replied_out_of_band(), 0);
}

#[test]
fn oversized_response_uses_exactly_one_extra_read() {
    let p = Rc::new(Cell::new(0));
    let cfg = RfpConfig {
        fetch_size: 256,
        ..RfpConfig::default()
    };
    let mut r = rig(cfg, p);
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        // 1 KiB payload > F=256: needs the remainder fetch.
        let req = vec![0xAB; 1024];
        let out = client.call(&t, &req).await;
        assert_eq!(out.data, req);
        assert!(out.info.extra_read);
        d.set(true);
    });
    r.sim.run_for(SimSpan::millis(5));
    assert!(done.get());
    assert_eq!(r.client.stats().extra_reads(), 1);
}

#[test]
fn small_response_never_needs_extra_read() {
    let p = Rc::new(Cell::new(0));
    let mut r = rig(RfpConfig::default(), p);
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    r.sim.spawn(async move {
        for _ in 0..20 {
            let out = client.call(&t, &[7u8; 64]).await;
            assert!(!out.info.extra_read);
        }
    });
    r.sim.run_for(SimSpan::millis(5));
    assert_eq!(r.client.stats().extra_reads(), 0);
}

#[test]
fn slow_server_triggers_switch_to_reply_with_hysteresis() {
    let p = Rc::new(Cell::new(30)); // 30 µs: far past the switch point
    let mut r = rig(RfpConfig::default(), Rc::clone(&p));
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let switched_on_call = Rc::new(Cell::new(0u32));
    let s = Rc::clone(&switched_on_call);
    r.sim.spawn(async move {
        for i in 1..=6u32 {
            let out = client.call(&t, b"slow").await;
            assert_eq!(out.data, b"slow");
            if out.info.completed_in == Mode::ServerReply && s.get() == 0 {
                s.set(i);
            }
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    // Hysteresis: call 1 exceeds R but stays in fetch mode; call 2 is
    // the second consecutive overrun and switches mid-call.
    assert_eq!(switched_on_call.get(), 2, "switch must honour hysteresis");
    assert_eq!(r.client.stats().switches_to_reply(), 1);
    assert_eq!(r.client.mode(), Mode::ServerReply);
    assert_eq!(r.server_conn.mode(), Mode::ServerReply);
    // Later responses were pushed by the server's out-bound WRITE.
    assert!(r.server_conn.replied_out_of_band() >= 3);
}

#[test]
fn server_becoming_fast_switches_back_to_fetching() {
    let p = Rc::new(Cell::new(30));
    let mut r = rig(RfpConfig::default(), Rc::clone(&p));
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let modes = Rc::new(std::cell::RefCell::new(Vec::new()));
    let m = Rc::clone(&modes);
    let p2 = Rc::clone(&p);
    r.sim.spawn(async move {
        // Drive into server-reply mode.
        for _ in 0..4 {
            client.call(&t, b"x").await;
        }
        // Server recovers.
        p2.set(0);
        for _ in 0..4 {
            let out = client.call(&t, b"x").await;
            m.borrow_mut().push(out.info.completed_in);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    let modes = modes.borrow();
    assert_eq!(modes.len(), 4, "client stalled after recovery");
    // The first post-recovery call still completes via reply (and sees
    // the short process time), everything after fetches remotely again.
    assert_eq!(modes[modes.len() - 1], Mode::RemoteFetch);
    assert!(r.client.stats().switches_to_fetch() >= 1);
}

#[test]
fn single_slow_call_does_not_switch() {
    // One outlier must not flip the mode (§3.2's guard); the client
    // keeps fetching and eventually succeeds.
    let p = Rc::new(Cell::new(30));
    let mut r = rig(RfpConfig::default(), Rc::clone(&p));
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let p2 = Rc::clone(&p);
    r.sim.spawn(async move {
        let out = client.call(&t, b"outlier").await;
        assert_eq!(out.info.completed_in, Mode::RemoteFetch);
        assert!(out.info.attempts > 5);
        p2.set(0);
        for _ in 0..5 {
            let out = client.call(&t, b"fast").await;
            assert_eq!(out.info.completed_in, Mode::RemoteFetch);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    assert_eq!(r.client.stats().switches_to_reply(), 0);
}

#[test]
fn disabled_switch_keeps_fetching_forever() {
    let p = Rc::new(Cell::new(30));
    let cfg = RfpConfig {
        enable_mode_switch: false,
        ..RfpConfig::default()
    };
    let mut r = rig(cfg, p);
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    r.sim.spawn(async move {
        for _ in 0..5 {
            let out = client.call(&t, b"x").await;
            assert_eq!(out.info.completed_in, Mode::RemoteFetch);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    assert_eq!(r.client.stats().switches_to_reply(), 0);
    assert_eq!(r.client.mode(), Mode::RemoteFetch);
}

#[test]
fn retry_stats_reflect_process_time() {
    // P ≈ 4 µs: a couple of retries per call, below the switch point.
    let p = Rc::new(Cell::new(4));
    let mut r = rig(RfpConfig::default(), p);
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    r.sim.spawn(async move {
        for _ in 0..30 {
            client.call(&t, b"work").await;
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    let stats = r.client.stats();
    assert_eq!(stats.calls(), 30);
    assert!(stats.mean_attempts() > 1.5, "{}", stats.mean_attempts());
    assert!(stats.max_attempts() <= 6);
    assert!(stats.frac_attempts_above(1) > 0.9);
    assert_eq!(stats.switches_to_reply(), 0, "P=4µs must not switch");
}

#[test]
fn utilization_drops_in_reply_mode() {
    // Figure 15's mechanism: busy-polling fetch mode pins the client
    // CPU; reply mode blocks idle.
    let run = |p_us: u64| {
        let p = Rc::new(Cell::new(p_us));
        let mut r = rig(RfpConfig::default(), p);
        let client = Rc::clone(&r.client);
        let t = Rc::clone(&r.client_thread);
        r.sim.spawn(async move {
            loop {
                client.call(&t, b"u").await;
            }
        });
        r.sim.run_for(SimSpan::millis(2));
        r.client_thread.reset_utilization();
        r.sim.run_for(SimSpan::millis(8));
        r.client_thread.utilization()
    };
    let fetch_util = run(1);
    let reply_util = run(30);
    assert!(fetch_util > 0.95, "fetch mode busy-polls: {fetch_util}");
    assert!(reply_util < 0.35, "reply mode blocks: {reply_util}");
}

#[test]
fn sequences_survive_many_calls() {
    // Regression guard for stale-response confusion: responses always
    // match the current call even at high call counts.
    let p = Rc::new(Cell::new(0));
    let mut r = rig(RfpConfig::default(), p);
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let ok = Rc::new(Cell::new(0u32));
    let k = Rc::clone(&ok);
    r.sim.spawn(async move {
        for i in 0..500u32 {
            let out = client.call(&t, &i.to_le_bytes()).await;
            assert_eq!(out.data, i.to_le_bytes());
            k.set(k.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(20));
    assert_eq!(ok.get(), 500);
}

#[test]
fn mode_switches_are_traced() {
    use rfp_simnet::FlightRecorder;
    let recorder = FlightRecorder::new(64);
    let p = Rc::new(Cell::new(30));
    let cfg = RfpConfig {
        recorder: Some(recorder.clone()),
        ..RfpConfig::default()
    };
    let mut r = rig(cfg, Rc::clone(&p));
    let client = Rc::clone(&r.client);
    let t = Rc::clone(&r.client_thread);
    let p2 = Rc::clone(&p);
    r.sim.spawn(async move {
        // Drive into server-reply, then back out.
        for _ in 0..4 {
            client.call(&t, b"trace").await;
        }
        p2.set(0);
        for _ in 0..3 {
            client.call(&t, b"trace").await;
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    let mut modes = recorder.snapshot();
    modes.retain(|e| e.kind == "rfp.mode_switch");
    assert_eq!(modes.len() as u64, recorder.kind_count("rfp.mode_switch"));
    assert!(modes.len() >= 2, "expected switch + switch-back: {modes:?}");
    assert!(modes[0].detail.contains("ServerReply"), "{:?}", modes[0]);
    assert!(
        modes
            .last()
            .expect("non-empty")
            .detail
            .contains("RemoteFetch"),
        "{modes:?}"
    );
    // Timestamps are monotone.
    for w in modes.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
}
