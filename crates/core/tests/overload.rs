//! Overload-control integration properties: shedding safety on the real
//! transport — under one server thread and under a stealing two-core
//! reactor, where a thief applies the victim's admission rule — and the
//! off-is-inert guarantee.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use rfp_core::{
    connect, serve_loop, CoreSpec, OverloadConfig, Reactor, ReactorConfig, RespStatus, RfpConfig,
    RfpServerConn, RfpTelemetry,
};
use rfp_simnet::{MetricsRegistry, RetryPolicy, SimSpan, SimTime, Simulation, SpanRecorder};

/// Echo rig under overload: `clients` closed-loop callers, each issuing
/// `calls_each` requests, echo handler with a fixed process time, over
/// one server thread — or, with `steal`, over core 0 of a two-core
/// reactor whose other core owns one idle connection and so spends its
/// life stealing from the hot one. Returns (handler runs, per-conn
/// server stats, per-call outcomes).
struct RigOutcome {
    /// Requests the idle core executed on the hot core's behalf.
    steals: u64,
    handler_runs: u64,
    served: u64,
    rejected: u64,
    ok_calls: u64,
    rejected_calls: u64,
    bad_echo: u64,
    nonempty_rejects: u64,
}

fn run_rig(
    seed: u64,
    ov: OverloadConfig,
    clients: usize,
    calls_each: u32,
    steal: bool,
) -> RigOutcome {
    let mut sim = Simulation::new(seed);
    let cluster = rfp_rnic::Cluster::new(
        &mut sim,
        rfp_rnic::ClusterProfile::paper_testbed(),
        1 + clients,
    );
    let server_m = cluster.machine(0);
    let cfg = RfpConfig {
        overload: Some(ov),
        ..RfpConfig::default()
    };

    let mut conns: Vec<Rc<RfpServerConn>> = Vec::new();
    let runs = Rc::new(Cell::new(0u64));
    let ok_calls = Rc::new(Cell::new(0u64));
    let rejected_calls = Rc::new(Cell::new(0u64));
    let bad_echo = Rc::new(Cell::new(0u64));
    let nonempty_rejects = Rc::new(Cell::new(0u64));
    // Clients still issuing: the last one to finish counts it to zero.
    let running = Rc::new(Cell::new(clients));

    for c in 0..clients {
        let cm = cluster.machine(1 + c);
        let (cl, sc) = connect(
            &cm,
            &server_m,
            cluster.qp(1 + c, 0),
            cluster.qp(0, 1 + c),
            cfg.clone(),
        );
        conns.push(Rc::new(sc));
        let t = cm.thread(format!("c{c}"));
        let running = Rc::clone(&running);
        let (ok, rej, bad, fat) = (
            Rc::clone(&ok_calls),
            Rc::clone(&rejected_calls),
            Rc::clone(&bad_echo),
            Rc::clone(&nonempty_rejects),
        );
        sim.spawn(async move {
            for i in 0..calls_each {
                let payload = [c as u8, i as u8, 0x5A];
                let out = cl.call_overload(&t, &payload, None).await;
                if out.info.status == RespStatus::Ok {
                    ok.set(ok.get() + 1);
                    if out.data != payload {
                        bad.set(bad.get() + 1);
                    }
                } else {
                    rej.set(rej.get() + 1);
                    if !out.data.is_empty() {
                        fat.set(fat.get() + 1);
                    }
                }
            }
            running.set(running.get() - 1);
        });
    }

    let r = Rc::clone(&runs);
    let handler = move |req: &[u8]| {
        r.set(r.get() + 1);
        (req.to_vec(), SimSpan::micros(3))
    };
    let reactor = steal.then(|| {
        let cm = cluster.machine(1);
        let (_idle, sc) = connect(&cm, &server_m, cluster.qp(1, 0), cluster.qp(0, 1), cfg);
        let threads: Vec<_> = (0..2)
            .map(|i| server_m.thread(format!("core{i}")))
            .collect();
        let core = |i: usize, conns, handler| CoreSpec {
            thread: Rc::clone(&threads[i]),
            conns,
            handler,
        };
        let cores = vec![
            core(0, conns.clone(), Box::new(handler.clone())),
            core(1, vec![Rc::new(sc)], Box::new(handler.clone())),
        ];
        let cfg = ReactorConfig {
            steal: true,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::new(cfg, cores, SimSpan::nanos(100));
        sim.spawn(reactor.run_core(0));
        sim.spawn(reactor.run_core(1));
        reactor
    });
    if reactor.is_none() {
        let st = server_m.thread("server");
        sim.spawn(serve_loop(st, conns.clone(), handler, SimSpan::nanos(100)));
    }

    // Run until every client finished, then drain: anything the clients
    // gave up on locally must still flow through the server's own
    // admission (shed or serve), never get stuck.
    for _ in 0..200 {
        sim.run_for(SimSpan::millis(1));
        if running.get() == 0 {
            break;
        }
    }
    assert_eq!(running.get(), 0, "clients failed to finish");
    sim.run_for(SimSpan::millis(1));

    RigOutcome {
        steals: reactor.map_or(0, |r| r.steals(1)),
        handler_runs: runs.get(),
        served: conns.iter().map(|c| c.served()).sum(),
        rejected: conns
            .iter()
            .map(|c| c.rejected_busy() + c.rejected_shed())
            .sum(),
        ok_calls: ok_calls.get(),
        rejected_calls: rejected_calls.get(),
        bad_echo: bad_echo.get(),
        nonempty_rejects: nonempty_rejects.get(),
    }
}

proptest! {
    /// Shedding safety on the wire, across admission tunings and load
    /// shapes: every request the handler began is answered `Ok` (a
    /// begun request is **never** shed), every `Ok` echoes its payload
    /// exactly, and every rejection carries an empty payload — whether
    /// one thread serves or an idle sibling core steals from it.
    #[test]
    fn shed_safety_under_pressure(
        seed in 0u64..1000,
        queue_limit in 1usize..6,
        deadline_us in 5u64..40,
        clients in 2usize..6,
        steal in any::<bool>(),
    ) {
        let ov = OverloadConfig {
            queue_limit,
            deadline: SimSpan::micros(deadline_us),
            retry: RetryPolicy::exponential(3, SimSpan::micros(2), SimSpan::micros(8), 0.3),
            ..OverloadConfig::default()
        };
        let out = run_rig(seed, ov, clients, 12, steal);
        // Safety: a request the server executed was answered Ok — the
        // handler-run and Ok-send counts must agree exactly.
        prop_assert_eq!(out.handler_runs, out.served);
        // Correctness of the survivors and cheapness of the rejects.
        prop_assert_eq!(out.bad_echo, 0);
        prop_assert_eq!(out.nonempty_rejects, 0);
        // Conservation: every call ended one way or the other...
        prop_assert_eq!(
            out.ok_calls + out.rejected_calls,
            (clients as u64) * 12
        );
        // ...and the server's Ok answers cover every client-observed Ok
        // (client-side local sheds may leave extra server answers
        // unobserved, never the reverse).
        prop_assert!(out.ok_calls <= out.served);
        let _ = out.rejected;
    }
}

/// Steal × admission, conserved: clients that submit once per call and
/// probe for the server's verdict (none gives up locally: every call
/// ends in the server's answer) over a hot core with a thief beside it. Requests migrate and requests are
/// turned away, yet no request is both rejected and executed and
/// served + rejected = submitted.
#[test]
fn stealing_conserves_requests_under_admission() {
    let ov = OverloadConfig {
        queue_limit: 2,
        deadline: SimSpan::micros(10),
        retry: RetryPolicy::immediate(1),
        probe_pause: SimSpan::micros(1),
        ..OverloadConfig::default()
    };
    let (clients, calls_each) = (5, 40);
    let out = run_rig(7, ov, clients, calls_each, true);
    assert!(
        out.steals > 0,
        "the idle core never executed a stolen request"
    );
    assert!(out.rejected > 0, "nothing was ever turned away");
    assert_eq!(out.handler_runs, out.served, "a rejected request ran");
    assert_eq!(
        out.served + out.rejected,
        clients as u64 * calls_each as u64
    );
    assert_eq!(
        (out.ok_calls, out.rejected_calls),
        (out.served, out.rejected)
    );
    assert_eq!((out.bad_echo, out.nonempty_rejects), (0, 0));
}

/// A thief issues the victim's verdict. Core 0 owns three connections
/// and its handler takes 200 µs; core 1 owns an idle one. Two slow
/// requests arrive 100 µs apart, so the second is picked up by the scan
/// right after the one that served the first — core 0 is then stuck in
/// a 200 µs charge while its last completed scan reports backlog, which
/// is what sends the idle core ring-stealing. A request stamped with an
/// expired deadline lands in that window on core 0's third connection:
/// core 1 executed nothing all run, so the slow request is on core 0,
/// and the `Shed` that answers the doomed one long before core 0 is
/// free can only have been issued by the thief — through core 0's
/// admission stage, since core 1's own connections carry no overload
/// control at all.
#[test]
fn thief_sheds_under_the_victims_rule() {
    let mut sim = Simulation::new(3);
    let cluster = rfp_rnic::Cluster::new(&mut sim, rfp_rnic::ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let link = |overload_on: bool| {
        let cfg = RfpConfig {
            overload: overload_on.then(|| OverloadConfig {
                deadline: SimSpan::millis(1),
                ..OverloadConfig::default()
            }),
            ..RfpConfig::default()
        };
        let (cl, sc) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
        (cl, Rc::new(sc))
    };
    let (doomed, doomed_conn) = link(true);
    let (slow1, slow1_conn) = link(true);
    let (slow2, slow2_conn) = link(true);
    let (_idle, idle_conn) = link(false);
    let slow = |req: &[u8]| (req.to_vec(), SimSpan::micros(200));
    let threads: Vec<_> = (0..2).map(|i| sm.thread(format!("core{i}"))).collect();
    let cores = vec![
        CoreSpec {
            thread: Rc::clone(&threads[0]),
            // The slow connections come last: the second slow request
            // is queued and popped with no await between, so it cannot
            // be stolen off the run queue.
            conns: vec![Rc::clone(&doomed_conn), slow1_conn, slow2_conn],
            handler: Box::new(slow),
        },
        CoreSpec {
            thread: Rc::clone(&threads[1]),
            conns: vec![idle_conn],
            handler: Box::new(slow),
        },
    ];
    let cfg = ReactorConfig {
        steal: true,
        ..ReactorConfig::default()
    };
    let reactor = Rc::new(Reactor::new(cfg, cores, SimSpan::nanos(100)));
    sim.spawn(reactor.run_core(0));
    sim.spawn(reactor.run_core(1));

    let at = |us: u64| SimTime::ZERO + SimSpan::micros(us);
    let slow_done = Rc::new(Cell::new(0u32));
    for (client, start) in [(slow1, at(0)), (slow2, at(100))] {
        let t = cm.thread(format!("slow@{}", start.as_nanos()));
        let done = Rc::clone(&slow_done);
        sim.spawn(async move {
            t.handle().sleep(start - t.now()).await;
            let out = client.call_overload(&t, b"slow", None).await;
            assert_eq!(out.info.status, RespStatus::Ok);
            done.set(done.get() + 1);
        });
    }
    let t = cm.thread("doomed");
    let shed_at = Rc::new(Cell::new(None));
    let (seen, done, r) = (
        Rc::clone(&shed_at),
        Rc::clone(&slow_done),
        Rc::clone(&reactor),
    );
    sim.spawn(async move {
        t.handle().sleep(at(250) - t.now()).await;
        let out = doomed.call_overload(&t, b"doomed", Some(t.now())).await;
        assert_eq!(out.info.status, RespStatus::Shed, "expired call must shed");
        // Core 0 is still inside the second slow request...
        assert_eq!((done.get(), r.steals(1)), (1, 0));
        seen.set(Some(t.now()));
    });
    sim.run_for(SimSpan::millis(1));
    let shed_at = shed_at.get().expect("the doomed call was never answered");
    assert!(
        shed_at < at(300),
        "verdict at {shed_at:?}: the thief never issued it"
    );
    // ...which it alone finished, around 400 µs.
    assert_eq!((slow_done.get(), reactor.steals(1)), (2, 0));
    assert_eq!(doomed_conn.rejected_shed(), 1);
}

/// The run queue's two ends. Core 0's four connections carry
/// admission control, so its first sweep queues the four requests
/// already waiting on them; core 1, started once that sweep is done,
/// steals while core 0 serves. The owner takes the oldest request and a
/// thief the youngest: with a 50 µs handler they run in the order 0
/// (owner), 3 (thief), 1 (owner), 2 (thief).
#[test]
fn owner_serves_the_oldest_and_a_thief_steals_the_youngest() {
    let mut sim = Simulation::new(5);
    let cluster = rfp_rnic::Cluster::new(&mut sim, rfp_rnic::ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let link = |cfg: RfpConfig| connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let mut conns = Vec::new();
    for i in 0..4u8 {
        let (client, conn) = link(RfpConfig {
            overload: Some(OverloadConfig {
                deadline: SimSpan::millis(1),
                ..OverloadConfig::default()
            }),
            ..RfpConfig::default()
        });
        conns.push(Rc::new(conn));
        let t = cm.thread(format!("c{i}"));
        sim.spawn(async move {
            client.call_overload(&t, &[i], None).await;
        });
    }
    let (_idle, idle_conn) = link(RfpConfig::default());
    let order = Rc::new(std::cell::RefCell::new(Vec::new()));
    let o = Rc::clone(&order);
    let handler = move |req: &[u8]| {
        o.borrow_mut().push(req[0]);
        (req.to_vec(), SimSpan::micros(50))
    };
    let cores = vec![
        CoreSpec {
            thread: sm.thread("core0"),
            conns,
            handler: Box::new(handler.clone()),
        },
        CoreSpec {
            thread: sm.thread("core1"),
            conns: vec![Rc::new(idle_conn)],
            handler: Box::new(handler),
        },
    ];
    let cfg = ReactorConfig {
        steal: true,
        ..ReactorConfig::default()
    };
    let reactor = Reactor::new(cfg, cores, SimSpan::nanos(100));
    // Every request is waiting before either core runs.
    sim.run_for(SimSpan::micros(20));
    sim.spawn(reactor.run_core(0));
    sim.run_for(SimSpan::micros(10));
    assert_eq!(*order.borrow(), [0], "core 0 queued all four, began one");
    sim.spawn(reactor.run_core(1));
    sim.run_for(SimSpan::millis(1));
    assert_eq!(*order.borrow(), [0, 3, 1, 2]);
    assert_eq!((reactor.served(0), reactor.steals(1)), (2, 2));
}

/// A connection without the overload stage materialises no
/// `overload.*` / rejection instrument.
#[test]
fn disabled_knobs_are_inert() {
    let mut sim = Simulation::new(99);
    let cluster = rfp_rnic::Cluster::new(&mut sim, rfp_rnic::ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    cluster.attach_metrics(&registry);
    let cfg = RfpConfig {
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: SpanRecorder::new(64),
            prefix: "rfp.client.0".into(),
            track: 0,
        }),
        ..RfpConfig::default()
    };
    let (cl, sc) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(sc)],
        |req: &[u8]| (req.to_vec(), SimSpan::micros(2)),
        SimSpan::nanos(100),
    ));
    let t = cm.thread("client");
    sim.spawn(async move {
        for i in 0..40u32 {
            let out = cl.call(&t, &i.to_le_bytes()).await;
            assert_eq!(out.data, i.to_le_bytes());
            assert_eq!(out.info.status, RespStatus::Ok);
        }
    });
    sim.run_for(SimSpan::millis(5));
    let names = registry.names();
    assert!(names.iter().any(|n| n == "rfp.client.0.calls"));
    for name in names {
        assert!(
            !name.contains("overload") && !name.contains("reject"),
            "a connection without overload control materialised instrument {name}"
        );
    }
}
