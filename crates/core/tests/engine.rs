//! What the single `complete()` of the call engine guarantees whichever
//! entry point a call came through: one booking per call on every
//! telemetry surface, per-call integrity counts, and a flight-recorder
//! cause chain that starts afresh at every call.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, FailoverConfig, GrayConfig, RecoveryConfig, ReplicaClient, RfpClient,
    RfpConfig, RfpTelemetry,
};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{FlightRecorder, MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// One client machine and `servers` echoing server machines; every
/// connection reports into `registry` / `spans` under `rfp.c<i>`.
struct Rig {
    sim: Simulation,
    cluster: Cluster,
    clients: Vec<Rc<RfpClient>>,
    thread: Rc<ThreadCtx>,
    registry: MetricsRegistry,
    spans: SpanRecorder,
}

fn rig(servers: usize, base: RfpConfig, process: SimSpan) -> Rig {
    let mut sim = Simulation::new(31);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1 + servers);
    let cm = cluster.machine(0);
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(256);
    let mut clients = Vec::new();
    for s in 1..=servers {
        let sm = cluster.machine(s);
        let cfg = RfpConfig {
            telemetry: Some(RfpTelemetry {
                registry: registry.clone(),
                spans: spans.clone(),
                prefix: format!("rfp.c{}", s - 1),
                track: s as u32,
            }),
            conn_id: s as u32,
            ..base.clone()
        };
        let (cl, sc) = connect(&cm, &sm, cluster.qp(0, s), cluster.qp(s, 0), cfg);
        cl.set_reconnect(cluster.qp_factory(0, s));
        sim.spawn(serve_loop(
            sm.thread("server"),
            vec![Rc::new(sc)],
            move |req: &[u8]| (req.to_vec(), process),
            SimSpan::nanos(100),
        ));
        clients.push(Rc::new(cl));
    }
    Rig {
        thread: cm.thread("client"),
        sim,
        cluster,
        clients,
        registry,
        spans,
    }
}

fn hedging_router(r: &Rig) -> Rc<ReplicaClient> {
    Rc::new(ReplicaClient::new(
        r.clients.clone(),
        FailoverConfig {
            gray: Some(GrayConfig::all_on()),
            ..FailoverConfig::default()
        },
    ))
}

/// A 600 B echo needs the second-segment READ at the default `F = 256`.
const TWO_SEGMENT: [u8; 600] = [0xA5; 600];
const CALLS: u64 = 5;

#[test]
fn recovered_two_segment_calls_book_extra_reads_and_spans() {
    let mut r = rig(1, RfpConfig::default(), SimSpan::ZERO);
    let (client, t) = (Rc::clone(&r.clients[0]), Rc::clone(&r.thread));
    r.sim.spawn(async move {
        let rec = RecoveryConfig::default();
        for _ in 0..CALLS {
            let out = client.call_with_recovery(&t, &TWO_SEGMENT, &rec).await;
            assert!(out.expect("healthy cluster").info.extra_read);
        }
    });
    r.sim.run_for(SimSpan::millis(1));
    let stats = r.clients[0].stats();
    assert_eq!(stats.calls(), CALLS);
    assert_eq!(stats.extra_reads(), CALLS);
    assert_eq!(r.registry.counter("rfp.c0.extra_reads").get(), CALLS);
    assert_eq!(r.spans.recorded(), CALLS, "one closed span per call");
}

#[test]
fn hedged_two_segment_calls_book_extra_reads_and_spans() {
    let mut r = rig(2, RfpConfig::default(), SimSpan::ZERO);
    let (router, t) = (hedging_router(&r), Rc::clone(&r.thread));
    r.sim.spawn(async move {
        for _ in 0..CALLS {
            let out = router.call_hedged(&t, &TWO_SEGMENT).await;
            assert!(out.expect("healthy cluster").info.extra_read);
        }
    });
    r.sim.run_for(SimSpan::millis(1));
    // Every call completed on exactly one replica, which booked it on
    // every surface; an abandoned leg books nothing.
    let booked: u64 = r.clients.iter().map(|c| c.stats().calls()).sum();
    let extra: u64 = r.clients.iter().map(|c| c.stats().extra_reads()).sum();
    let counted = r.registry.counter("rfp.c0.extra_reads").get()
        + r.registry.counter("rfp.c1.extra_reads").get();
    assert_eq!((booked, extra, counted), (CALLS, CALLS, CALLS));
    assert_eq!(r.spans.recorded(), CALLS, "one closed span per call");
}

#[test]
fn hedge_legs_report_the_fetches_they_discarded() {
    let cfg = RfpConfig {
        integrity: true,
        ..RfpConfig::default()
    };
    let mut r = rig(2, cfg, SimSpan::ZERO);
    for s in 1..=2 {
        r.cluster.machine(s).faults().set_torn_dma(0.2);
        r.cluster.machine(s).faults().set_bitflip(0.2);
    }
    let (router, t) = (hedging_router(&r), Rc::clone(&r.thread));
    let reported = Rc::new(Cell::new(0u64));
    let rep = Rc::clone(&reported);
    r.sim.spawn(async move {
        for i in 0..60u32 {
            let payload = [i as u8; 200];
            let out = router.call_hedged(&t, &payload).await.expect("refetches");
            assert_eq!(out.data, payload, "corrupt payload surfaced");
            rep.set(rep.get() + out.info.integrity_retries as u64);
        }
    });
    r.sim.run_for(SimSpan::millis(20));
    assert!(
        r.registry.counter("fetch.integrity_retries").get() >= 1,
        "the fault rates must manufacture at least one corrupt fetch"
    );
    assert!(
        reported.get() >= 1,
        "legs discarded fetches but every call reported integrity_retries = 0"
    );
}

#[test]
fn a_mode_switch_never_chains_into_an_earlier_call() {
    // A 10 µs handler overruns R on every call: the connection flips to
    // server-reply on the second call, and — the reported process time
    // staying above the switch-back bar — stays there. A fast-handler
    // phase then flips it back. Every `rfp.mode_switch` event must be
    // the root of its own call's chain.
    let recorder = FlightRecorder::new(256);
    let cfg = RfpConfig {
        recorder: Some(recorder.clone()),
        ..RfpConfig::default()
    };
    let mut sim = Simulation::new(5);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let served = Rc::new(Cell::new(0u32));
    let seen = Rc::clone(&served);
    sim.spawn(serve_loop(
        sm.thread("server"),
        vec![Rc::new(conn)],
        move |req: &[u8]| {
            seen.set(seen.get() + 1);
            let slow = seen.get() <= 4;
            let process = if slow {
                SimSpan::micros(10)
            } else {
                SimSpan::ZERO
            };
            (req.to_vec(), process)
        },
        SimSpan::nanos(100),
    ));
    let t = cm.thread("client");
    sim.spawn(async move {
        for i in 0..8u32 {
            client.call(&t, &i.to_le_bytes()).await;
        }
    });
    sim.run_for(SimSpan::millis(2));
    let events = recorder.snapshot();
    let switches: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "rfp.mode_switch")
        .collect();
    assert!(
        switches.len() >= 2,
        "expected a switch to reply and one back"
    );
    for e in switches {
        let cause = e.cause.map(|id| events.iter().find(|c| c.id == id));
        assert!(
            cause.is_none(),
            "mode switch of seq {} chained onto {cause:?}",
            e.seq
        );
    }
}
