//! Adversarial and boundary tests for the RFP protocol machinery.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{connect, serve_loop, OverloadConfig, RfpConfig, REQ_HDR, RESP_HDR};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{timeout, SimSpan, Simulation};

fn two_machines() -> (Simulation, Cluster) {
    let mut sim = Simulation::new(31);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    (sim, cluster)
}

#[test]
fn empty_request_and_response_round_trip() {
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let (client, conn) = connect(
        &cm,
        &sm,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        RfpConfig::default(),
    );
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |_req: &[u8]| (Vec::new(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let out = client.call(&ct, b"").await;
        assert!(out.data.is_empty());
        d.set(true);
    });
    sim.run_for(SimSpan::millis(1));
    assert!(done.get());
}

/// One echo call over a 512 B-slot connection, stamped with `tenant`,
/// `over` bytes above the connection's one request bound.
fn call_at_the_bound(tenant: Option<u32>, over: usize) {
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        req_capacity: 512,
        resp_capacity: 1024,
        ..RfpConfig::default()
    };
    let bound = cfg.max_req_payload();
    assert_eq!(bound, 512 - REQ_HDR);
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    client.set_tenant(tenant);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let payload = vec![0x42u8; bound + over];
        let out = client.call(&ct, &payload).await;
        assert_eq!(out.data, payload);
        d.set(true);
    });
    sim.run_for(SimSpan::millis(1));
    assert!(done.get());
}

#[test]
fn request_at_exact_capacity_fits() {
    call_at_the_bound(None, 0);
}

#[test]
fn stamped_request_at_its_bound_fits() {
    call_at_the_bound(Some(7), 0);
}

#[test]
#[should_panic(expected = "request exceeds buffer capacity")]
fn stamped_request_one_byte_past_its_bound_panics() {
    call_at_the_bound(Some(7), 1);
}

/// Server in-bound bytes of one 40 B echo call on an overload-controlled
/// connection: plain, or stamped with a deadline, a tenant and an epoch.
fn inbound_bytes_of_one_call(stamped: bool) -> u64 {
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        overload: Some(OverloadConfig::default()),
        ..RfpConfig::default()
    };
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    if stamped {
        client.set_tenant(Some(7));
        client.set_epoch(3);
        conn.set_epoch(3);
    }
    sim.spawn(serve_loop(
        sm.thread("server"),
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let out = if stamped {
            client.call_overload(&ct, &[5; 40], None).await
        } else {
            client.call(&ct, &[5; 40]).await
        };
        assert_eq!(out.data, [5; 40]);
        d.set(true);
    });
    sim.run_for(SimSpan::millis(1));
    assert!(done.get());
    sm.nic().counters().inbound_bytes
}

#[test]
fn stamped_and_plain_requests_cost_the_same_inbound_bytes() {
    assert_eq!(
        inbound_bytes_of_one_call(true),
        inbound_bytes_of_one_call(false)
    );
}

#[test]
#[should_panic(expected = "request exceeds buffer capacity")]
fn oversized_request_panics_loudly() {
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        req_capacity: 256,
        ..RfpConfig::default()
    };
    let (client, _conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let ct = cm.thread("client");
    sim.spawn(async move {
        client.send(&ct, &vec![0u8; 1024]).await;
    });
    sim.run_for(SimSpan::millis(1));
}

#[test]
fn response_exactly_at_fetch_size_needs_one_read() {
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        fetch_size: 256,
        ..RfpConfig::default()
    };
    let boundary = 256 - RESP_HDR; // payload that exactly fills F
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        move |_req: &[u8]| (vec![7u8; boundary], SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let out = client.call(&ct, b"x").await;
        assert_eq!(out.data.len(), boundary);
        assert!(!out.info.extra_read, "boundary payload must fit one fetch");
        d.set(true);
    });
    sim.run_for(SimSpan::millis(1));
    assert!(done.get());
}

#[test]
fn response_one_byte_over_fetch_size_needs_two_reads() {
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        fetch_size: 256,
        ..RfpConfig::default()
    };
    let over = 256 - RESP_HDR + 1;
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        move |_req: &[u8]| (vec![8u8; over], SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let out = client.call(&ct, b"x").await;
        assert_eq!(out.data.len(), over);
        assert!(
            out.info.extra_read,
            "one byte over F must cost a second READ"
        );
        d.set(true);
    });
    sim.run_for(SimSpan::millis(1));
    assert!(done.get());
}

#[test]
fn timeout_dropped_mid_fetch_does_not_corrupt_later_calls() {
    // Drop a recv future mid-flight (as a timeout combinator would),
    // then keep using the connection: sequence matching must keep
    // responses straight.
    let (mut sim, cluster) = two_machines();
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let (client, conn) = connect(
        &cm,
        &sm,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        RfpConfig::default(),
    );
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::micros(5)),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let h = sim.handle();
    let survived = Rc::new(Cell::new(0u32));
    let s = Rc::clone(&survived);
    sim.spawn(async move {
        // Call 1: send, then abandon the recv after 1 µs (the response
        // will arrive later and must be ignored by the next call).
        client.send(&ct, b"abandoned").await;
        let got = timeout(&h, SimSpan::micros(1), Box::pin(client.recv(&ct))).await;
        assert!(got.is_none(), "5µs process time cannot finish in 1µs");
        // Let the stale response land in server memory.
        h.sleep(SimSpan::micros(50)).await;
        // Subsequent calls must still match their own responses.
        for i in 0..20u32 {
            let req = i.to_le_bytes();
            let out = client.call(&ct, &req).await;
            assert_eq!(out.data, req, "stale response leaked into call {i}");
            s.set(s.get() + 1);
        }
    });
    sim.run_for(SimSpan::millis(5));
    assert_eq!(survived.get(), 20);
}

#[test]
fn many_connections_share_one_server_thread() {
    // 16 clients on one machine through one polled connection set.
    let mut sim = Simulation::new(33);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let mut conns = Vec::new();
    let completed = Rc::new(Cell::new(0u32));
    for i in 0..16 {
        let (client, conn) = connect(
            &cm,
            &sm,
            cluster.qp(0, 1),
            cluster.qp(1, 0),
            RfpConfig::default(),
        );
        conns.push(Rc::new(conn));
        let ct = cm.thread(format!("c{i}"));
        let done = Rc::clone(&completed);
        sim.spawn(async move {
            for k in 0..25u32 {
                let out = client.call(&ct, &[i as u8, k as u8]).await;
                assert_eq!(out.data, [i as u8, k as u8]);
            }
            done.set(done.get() + 25);
        });
    }
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        conns,
        |req: &[u8]| (req.to_vec(), SimSpan::nanos(200)),
        SimSpan::nanos(100),
    ));
    sim.run_for(SimSpan::millis(10));
    assert_eq!(completed.get(), 400);
}
