//! The observability planes: their overhead pin, and the table that
//! keeps them in agreement.
//!
//! Contract under test: the flight recorder and health plane are pure
//! *observers*. Attaching them to the headline pipelined workload (32 B
//! payloads, W = 16) must leave every pre-existing surface — payloads,
//! per-call diagnostics (latencies included, i.e. the simulated event
//! schedule itself), registry instruments, NIC counters — byte-identical
//! to a run with observability off. In simulated time the enabled cost
//! is exactly zero, which trivially satisfies the ≤2% budget on the
//! headline bar.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, CallResult, FailoverConfig, Mode, OverloadConfig, RecoveryConfig,
    ReplicaClient, RespStatus, RfpConfig, RfpServerConn, RfpTelemetry,
};
use rfp_rnic::{Cluster, ClusterProfile, Machine, ThreadCtx};
use rfp_simnet::{
    AnomalyDetector, AnomalyKind, ConnHealthReport, FlightRecorder, HealthHub, HealthReport,
    MetricsRegistry, RetryPolicy, SimSpan, SimTime, Simulation, SpanRecorder,
};

/// Everything a run exposes that predates the observability plane.
struct Legacy {
    datas: Vec<Vec<u8>>,
    infos: Vec<String>,
    registry_json: String,
    spans: String,
    nic: String,
    end: rfp_simnet::SimTime,
}

/// Runs the headline bar — batches of 32 B echo calls through one W=16
/// pipelined connection — with observability off (`obs = None`) or on,
/// and captures every legacy surface.
fn run_headline(seed: u64, obs: Option<(&FlightRecorder, &HealthHub)>) -> Legacy {
    const BATCHES: usize = 6;
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(1024);
    let cfg = RfpConfig {
        window: 16,
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: "rfp.c0".to_string(),
            track: 0,
        }),
        recorder: obs.map(|(r, _)| r.clone()),
        health: obs.map(|(_, h)| h.clone()),
        ..RfpConfig::default()
    };
    if let Some((recorder, _)) = obs {
        cluster.attach_recorder(recorder);
    }
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let client = Rc::new(client);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let reqs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i ^ 0x5A; 32]).collect();
    let out: Rc<RefCell<Vec<CallResult>>> = Rc::new(RefCell::new(Vec::new()));
    let (o, c) = (Rc::clone(&out), Rc::clone(&client));
    sim.spawn(async move {
        for _ in 0..BATCHES {
            let outs = c.call_pipelined(&ct, &reqs).await;
            o.borrow_mut().extend(outs);
        }
    });
    for _ in 0..400 {
        if out.borrow().len() == BATCHES * 16 {
            break;
        }
        sim.run_for(SimSpan::micros(50));
    }
    let results = out.borrow();
    assert_eq!(results.len(), BATCHES * 16, "driver did not finish in time");
    let mut registry_json = Vec::new();
    registry
        .snapshot()
        .write_json(&mut registry_json)
        .expect("registry json");
    Legacy {
        datas: results.iter().map(|r| r.data.clone()).collect(),
        infos: results.iter().map(|r| format!("{:?}", r.info)).collect(),
        registry_json: String::from_utf8(registry_json).expect("utf8 json"),
        spans: format!("{:?}", spans.snapshot()),
        nic: format!(
            "{:?} {:?}",
            cluster.machine(0).nic().counters(),
            cluster.machine(1).nic().counters()
        ),
        end: sim.handle().now(),
    }
}

/// Observability on vs off: every legacy surface is byte-identical, so
/// enabling the plane costs nothing in simulated time — and the enabled
/// run actually produced health data (the plane is on, not inert).
#[test]
fn enabled_observability_is_invisible_on_the_headline_bar() {
    for seed in [3u64, 17, 99] {
        let off = run_headline(seed, None);
        let recorder = FlightRecorder::new(4096);
        let health = HealthHub::default();
        let on = run_headline(seed, Some((&recorder, &health)));
        assert_eq!(off.datas, on.datas, "payloads diverged (seed {seed})");
        assert_eq!(off.infos, on.infos, "call info diverged (seed {seed})");
        assert_eq!(
            off.registry_json, on.registry_json,
            "instruments diverged (seed {seed})"
        );
        assert_eq!(off.spans, on.spans, "spans diverged (seed {seed})");
        assert_eq!(off.nic, on.nic, "NIC counters diverged (seed {seed})");
        // The plane really was live: calls landed in the health window.
        let calls: u64 = health.report(on.end).conns.iter().map(|c| c.calls).sum();
        assert!(calls > 0, "health hub saw no calls despite being attached");
        // And a clean run records no flight events at all — the ring
        // only ever holds causal chains, never steady-state chatter.
        assert_eq!(
            recorder.len(),
            0,
            "clean headline run polluted the flight ring: {:?}",
            recorder.snapshot()
        );
    }
}

/// What a scenario's server does besides echoing, credits advertised.
#[derive(Clone, Copy)]
enum Serve {
    Echo,
    /// Process time per request, µs.
    Slow(u64),
    /// The first request is swallowed without an answer.
    SwallowFirst,
    /// This verdict, instead of an answer, to the first `.1` requests.
    Reject(RespStatus, u32),
    /// Every response advertises zero credits.
    ZeroCredits,
    /// Serves in this replication epoch.
    Epoch(u16),
}

async fn scripted_server(thread: Rc<ThreadCtx>, conn: RfpServerConn, serve: Serve) {
    let zero_credits = matches!(serve, Serve::ZeroCredits);
    conn.set_advertised_credits(if zero_credits { 0 } else { 8 });
    if let Serve::Epoch(epoch) = serve {
        conn.set_epoch(epoch);
    }
    let mut seen = 0;
    loop {
        let Some(req) = conn.try_recv(&thread).await else {
            thread.busy(SimSpan::nanos(100)).await;
            continue;
        };
        seen += 1;
        match serve {
            Serve::SwallowFirst if seen == 1 => {}
            Serve::Reject(verdict, n) if seen <= n => conn.reject(&thread, verdict).await,
            _ => {
                if let Serve::Slow(us) = serve {
                    thread.busy(SimSpan::micros(us)).await;
                }
                conn.send(&thread, &req).await;
            }
        }
    }
}

/// What a scenario's client does.
#[derive(Clone, Copy)]
enum Drive {
    /// One batch of `n` plain calls (sequential on a one-slot ring).
    Plain(usize),
    /// `n` admission-controlled calls.
    Admitted(usize),
    /// One fault-tolerant call through a replica router over this many
    /// servers.
    Routed(usize),
}

/// Where an incident's flight event must sit in its call's cause chain.
enum Link {
    /// First event of its call.
    Root,
    /// Caused by an event of this kind.
    After(&'static str),
    /// Wherever the call was when it happened (only the invariant every
    /// event is held to applies: see [`run_scenario`]).
    Chain,
}

/// One incident, as every plane must show it: the registry counter and
/// the health-window field that count it, its flight-recorder kind, and
/// its place in the cause chain.
type Row = (
    Option<&'static str>,
    &'static str,
    Link,
    Option<fn(&ConnHealthReport) -> u64>,
);

struct Scenario {
    name: &'static str,
    cfg: fn(&mut RfpConfig),
    serve: Serve,
    /// Armed on the (first) server machine before the run.
    fault: fn(&Machine),
    drive: Drive,
    rows: Vec<Row>,
}

fn overload_on(cfg: &mut RfpConfig) {
    cfg.overload = Some(OverloadConfig {
        deadline: SimSpan::micros(20),
        retry: RetryPolicy::exponential(2, SimSpan::micros(5), SimSpan::micros(20), 0.0),
        ..OverloadConfig::default()
    });
}

/// Server-side verdict events carry the connection but no chain.
const SERVER_KINDS: [&str; 3] = [
    "overload.reject_busy",
    "overload.reject_shed",
    "replica.fence",
];

/// Runs one scenario with registry, recorder and health hub attached to
/// every connection and returns the three planes. Also holds every
/// recorded event to the chain invariant: a cause link points at the
/// previous client-side event of the same connection.
fn run_scenario(s: &Scenario) -> (MetricsRegistry, FlightRecorder, HealthReport) {
    let mut sim = Simulation::new(5);
    let servers = match s.drive {
        Drive::Routed(servers) => servers,
        _ => 1,
    };
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1 + servers);
    let cm = cluster.machine(0);
    let (registry, recorder) = (MetricsRegistry::new(), FlightRecorder::new(4096));
    let health = HealthHub::default();
    let mut clients = Vec::new();
    for m in 1..=servers {
        let conn_id = m as u32 - 1;
        let mut cfg = RfpConfig {
            telemetry: Some(RfpTelemetry {
                registry: registry.clone(),
                spans: SpanRecorder::new(64),
                prefix: format!("rfp.c{conn_id}"),
                track: conn_id,
            }),
            recorder: Some(recorder.clone()),
            health: Some(health.clone()),
            conn_id,
            ..RfpConfig::default()
        };
        (s.cfg)(&mut cfg);
        let sm = cluster.machine(m);
        let (client, conn) = connect(&cm, &sm, cluster.qp(0, m), cluster.qp(m, 0), cfg);
        client.set_reconnect(cluster.qp_factory(0, m));
        sim.spawn(scripted_server(sm.thread("server"), conn, s.serve));
        clients.push(Rc::new(client));
    }
    (s.fault)(&cluster.machine(1));

    let rec = RecoveryConfig {
        retry: RetryPolicy::exponential(8, SimSpan::micros(2), SimSpan::micros(10), 0.0),
        ..RecoveryConfig::default()
    };
    let done = Rc::new(Cell::new(false));
    let (d, t, drive) = (Rc::clone(&done), cm.thread("client"), s.drive);
    sim.spawn(async move {
        let req = vec![0x5A; 200];
        let c = &clients[0];
        match drive {
            Drive::Plain(n) => {
                let outs = c.call_pipelined(&t, &vec![req.clone(); n]).await;
                assert!(outs.iter().all(|out| out.data == req));
            }
            Drive::Admitted(n) => {
                for _ in 0..n {
                    c.call_overload(&t, &req, None).await;
                }
            }
            Drive::Routed(_) => {
                let cfg = FailoverConfig {
                    recovery: rec,
                    ..FailoverConfig::default()
                };
                let router = ReplicaClient::new(clients.clone(), cfg);
                let out = router.call(&t, &req).await;
                assert_eq!(out.expect("the call recovers").data, req);
            }
        }
        d.set(true);
    });
    for _ in 0..5_000 {
        if done.get() {
            break;
        }
        sim.run_for(SimSpan::micros(10));
    }
    assert!(done.get(), "{}: the client did not finish", s.name);
    // The health fields count every incident only while none has
    // rotated out of the window: a scenario must end inside one.
    let end = sim.handle().now();
    assert!(
        end.since(SimTime::ZERO) < HealthHub::WINDOW,
        "{}: ran to {end}, past one health window",
        s.name
    );

    let events = recorder.snapshot();
    for (i, e) in events.iter().enumerate() {
        let Some(cause) = e.cause else { continue };
        let chained = |x: &&rfp_simnet::FlightEvent| {
            x.conn == e.conn && x.conn.is_some() && !SERVER_KINDS.contains(&x.kind)
        };
        let prev = events[..i].iter().rev().find(chained);
        assert_eq!(
            prev.map(|p| p.id),
            Some(cause),
            "{}: {e} does not chain onto its connection's previous event",
            s.name
        );
    }
    (registry, recorder, health.report(end))
}

/// A deliberately stalled pipeline — a server slow enough that fetch
/// polls blow through a tiny retry budget on every call — surfaces as
/// `pipeline.slot_stall` flight events, a non-zero stall count in the
/// health window, and a `StuckSlot` anomaly, with no other anomaly
/// class firing.
fn stalled_pipeline() -> Scenario {
    Scenario {
        name: "pipeline slots overrun R",
        cfg: |cfg| (cfg.window, cfg.retry_threshold, cfg.enable_mode_switch) = (4, 2, false),
        serve: Serve::Slow(30),
        fault: |_| {},
        drive: Drive::Plain(8),
        rows: vec![(None, "pipeline.slot_stall", Link::Root, Some(|r| r.stalls))],
    }
}

#[test]
fn stalled_pipeline_slot_raises_stuck_slot_anomaly() {
    let (_, recorder, report) = run_scenario(&stalled_pipeline());
    assert!(
        recorder.kind_count("pipeline.slot_stall") > 0,
        "no slot-stall flight events: {:?}",
        recorder.kind_counts()
    );
    let conn0 = report.conn(0).expect("connection 0 reported");
    assert!(conn0.stalls > 0, "health window missed the stalls");
    let anomalies = AnomalyDetector::new().scan(&report);
    assert!(!anomalies.is_empty(), "StuckSlot not flagged");
    for a in &anomalies {
        assert_eq!(
            a.kind,
            AnomalyKind::StuckSlot,
            "unexpected anomaly class: {a}"
        );
    }
}

/// The planes agree, pinned to today's strings: every incident a
/// connection can report is provoked once, and must show up as its
/// counter, its recorder kind (chained onto its call's previous event)
/// and its health-window field — all three counting the same number.
#[test]
fn every_incident_lands_on_every_plane_under_its_own_name() {
    use {Drive::*, Link::*, Serve::*};
    let scenario = |name, cfg, serve, fault, drive, rows| Scenario {
        name,
        cfg,
        serve,
        fault,
        drive,
        rows,
    };
    // A row whose counter is named after its kind.
    let same = |kind, link, health| -> Row { (Some(kind), kind, link, health) };
    let plain: fn(&mut RfpConfig) = |_| {};
    let healthy: fn(&Machine) = |_| {};
    let integrity_on: fn(&mut RfpConfig) = |cfg| cfg.integrity = true;
    let reply_mode: fn(&mut RfpConfig) = |cfg| {
        (cfg.initial_mode, cfg.enable_mode_switch) = (Mode::ServerReply, false);
    };
    let corrupting: fn(&Machine) = |server| {
        server.faults().set_torn_dma(0.2);
        server.faults().set_bitflip(0.2);
    };
    let qp_error: fn(&Machine) = |server| server.faults().bump_qp_epoch();
    let crashed: fn(&Machine) = |primary| primary.faults().set_crashed(true);
    let (busy, shed) = (Reject(RespStatus::Busy, 2), Reject(RespStatus::Shed, 1));
    #[rustfmt::skip] // a table reads by column
    let scenarios = [
        scenario("zero credits advertised", overload_on, ZeroCredits, healthy, Admitted(2), vec![
            same("overload.credit_waits", Root, Some(|r| r.credit_waits)),
        ]),
        scenario("Busy until the client gives up", overload_on, busy, healthy, Admitted(1), vec![
            same("overload.busy_seen", Root, Some(|r| r.busys)),
            same("overload.give_ups", After("overload.busy_seen"), None),
            (Some("overload.busy_rejections"), "overload.reject_busy", Root, None),
        ]),
        scenario("one Shed verdict", overload_on, shed, healthy, Admitted(1), vec![
            same("overload.sheds_seen", Root, Some(|r| r.sheds)),
            (Some("overload.sheds"), "overload.reject_shed", Root, None),
        ]),
        scenario("no verdict by the deadline", overload_on, SwallowFirst, healthy, Admitted(1), vec![
            same("overload.local_sheds", Root, Some(|r| r.sheds)),
        ]),
        scenario("torn DMA and bit flips", integrity_on, Echo, corrupting, Plain(60), vec![
            same("fetch.torn", Chain, None),
            same("fetch.crc_fail", Chain, None),
        ]),
        scenario("QP error", plain, Echo, qp_error, Routed(1), vec![
            same("recovery.verb_errors", Root, Some(|r| r.verb_errors)),
            same("recovery.resubmits", After("recovery.verb_errors"), None),
            same("recovery.reconnects", After("recovery.resubmits"), Some(|r| r.reconnects)),
        ]),
        scenario("answer slower than the attempt deadline", plain, Slow(150), healthy, Routed(1), vec![
            same("recovery.deadlines", Root, None),
        ]),
        scenario("server in a newer epoch", plain, Epoch(3), healthy, Routed(1), vec![
            same("recovery.fenced_seen", Root, None),
            (Some("replica.fenced"), "replica.fence", Root, None),
        ]),
        stalled_pipeline(),
        scenario("slow server flips the connection to server-reply", plain, Slow(30), healthy, Plain(4), vec![
            (Some("rfp.c0.switches.to_reply"), "rfp.mode_switch", Root, None),
        ]),
        scenario("pushed reply slower than the fallback poll", reply_mode, Slow(80), healthy, Plain(1), vec![
            (Some("rfp.c0.fallback_fetches"), "rfp.fallback", Root, None),
        ]),
        scenario("primary crashed", plain, Echo, crashed, Routed(2), vec![
            same("recovery.failed_calls", Chain, None),
            (Some("recovery.failovers"), "recovery.failover", After("recovery.failed_calls"), Some(|r| r.failovers)),
        ]),
    ];
    for s in &scenarios {
        let (registry, recorder, report) = run_scenario(s);
        let (snap, events) = (registry.snapshot(), recorder.snapshot());
        let health = report.conn(0).expect("connection 0 reported");
        for (counter, kind, link, field) in &s.rows {
            let at = format!("{} / {kind}", s.name);
            let count = recorder.kind_count(kind);
            assert!(
                count >= 1,
                "{at}: not recorded: {:?}",
                recorder.kind_counts()
            );
            if let Some(counter) = counter {
                assert_eq!(snap.scalar(counter), Some(count as f64), "{at}: {counter}");
            }
            if let Some(field) = field {
                assert_eq!(field(health), count, "{at}: health window {health:?}");
            }
            let first = events.iter().find(|e| e.kind == *kind).expect("counted");
            assert_eq!(first.conn, Some(0), "{at}: {first}");
            let cause = events.iter().find(|e| Some(e.id) == first.cause);
            match link {
                Root => assert!(cause.is_none(), "{at}: {first} is not a root"),
                After(kind) => assert_eq!(cause.map(|c| c.kind), Some(*kind), "{at}: {first}"),
                Chain => {}
            }
        }
    }
}
