//! What the single `complete()` of the call engine guarantees whichever
//! entry point a call came through: one booking per call on every
//! telemetry surface, per-call integrity counts, and a flight-recorder
//! cause chain that starts afresh at every call.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{connect, serve_loop, RecoveryConfig, RfpClient, RfpConfig, RfpTelemetry};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{FlightRecorder, MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// One client machine and one echoing server machine; the connection
/// reports into `registry` / `spans` under `rfp.c0`.
struct Rig {
    sim: Simulation,
    client: Rc<RfpClient>,
    thread: Rc<ThreadCtx>,
    registry: MetricsRegistry,
    spans: SpanRecorder,
}

fn rig() -> Rig {
    let mut sim = Simulation::new(31);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(256);
    let cfg = RfpConfig {
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: "rfp.c0".into(),
            track: 1,
        }),
        conn_id: 1,
        ..RfpConfig::default()
    };
    let (cl, sc) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    cl.set_reconnect(cluster.qp_factory(0, 1));
    sim.spawn(serve_loop(
        sm.thread("server"),
        vec![Rc::new(sc)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    Rig {
        thread: cm.thread("client"),
        sim,
        client: Rc::new(cl),
        registry,
        spans,
    }
}

/// A 600 B echo needs the second-segment READ at the default `F = 256`.
const TWO_SEGMENT: [u8; 600] = [0xA5; 600];
const CALLS: u64 = 5;

#[test]
fn recovered_two_segment_calls_book_extra_reads_and_spans() {
    let mut r = rig();
    let (client, t) = (Rc::clone(&r.client), Rc::clone(&r.thread));
    r.sim.spawn(async move {
        let rec = RecoveryConfig::default();
        for _ in 0..CALLS {
            let out = client.call_with_recovery(&t, &TWO_SEGMENT, &rec).await;
            assert!(out.expect("healthy cluster").info.extra_read);
        }
    });
    r.sim.run_for(SimSpan::millis(1));
    let stats = r.client.stats();
    assert_eq!(stats.calls(), CALLS);
    assert_eq!(stats.extra_reads(), CALLS);
    assert_eq!(r.registry.counter("rfp.c0.extra_reads").get(), CALLS);
    assert_eq!(r.spans.recorded(), CALLS, "one closed span per call");
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
