//! A one-replica router is its connection.
//!
//! The chaos rig runs every client through [`ReplicaClient`] routers,
//! one per partition, and its one-replica preset claims to be the
//! plain recovery client: a router over one replica calls
//! [`RfpClient::call_with_recovery`] on its connection, and with
//! nowhere to fail over `call` surfaces the first error. This pins
//! that claim. One short schedule runs twice — through `call` /
//! `call_read` over one replica, and through `call_with_recovery`
//! directly — fault-free and across a server crash that outlives the
//! retry budget. Outcomes, the registry export, the request spans and
//! the flight-recorder trace must be identical, byte for byte.

use std::cell::RefCell;
use std::rc::Rc;

use rfp_chaos::{install, FaultPlan, InjectorSinks, Restart};
use rfp_core::{
    connect, serve_loop, FailoverConfig, RecoveryConfig, ReplicaClient, RfpConfig, RfpTelemetry,
};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{
    FlightRecorder, MetricsRegistry, RetryPolicy, SimSpan, SimTime, Simulation, SpanRecorder,
};

/// Calls in the schedule; even ones go through `call`, odd ones
/// through `call_read` (the rig's PUT and GET paths).
const CALLS: usize = 120;

/// What one run leaves behind: per-call outcomes, the registry CSV,
/// the span trace and the recorder dump.
type Fingerprint = (Vec<String>, Vec<u8>, Vec<u8>, Vec<u8>);

fn run(routed: bool, plan: Option<&FaultPlan>) -> Fingerprint {
    let seed = 5;
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (server_m, client_m) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    cluster.attach_metrics(&registry);
    let recorder = FlightRecorder::new(16 * 1024);
    cluster.attach_recorder(&recorder);
    let spans = SpanRecorder::new(1024);
    let cfg = RfpConfig {
        enable_mode_switch: false,
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: "rfp.client.0".into(),
            track: 0,
        }),
        recorder: Some(recorder.clone()),
        ..RfpConfig::default()
    };
    let (client, server) = connect(
        &client_m,
        &server_m,
        cluster.qp(1, 0),
        cluster.qp(0, 1),
        cfg,
    );
    client.set_reconnect(cluster.qp_factory(1, 0));
    let (client, server) = (Rc::new(client), Rc::new(server));
    sim.spawn(serve_loop(
        server_m.thread("server"),
        vec![Rc::clone(&server)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));

    // Short enough that calls caught by the crash exhaust it.
    let recovery = RecoveryConfig {
        retry: RetryPolicy::exponential(3, SimSpan::micros(10), SimSpan::micros(50), 0.2),
        seed: 99,
    };
    let router = ReplicaClient::new(
        vec![Rc::clone(&client)],
        FailoverConfig {
            recovery: recovery.clone(),
            gray: false,
        },
    );
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let out = Rc::clone(&outcomes);
    let thread = client_m.thread("client");
    sim.spawn(async move {
        for i in 0..CALLS {
            let req = format!("req-{i}").into_bytes();
            let result = match (routed, i % 2) {
                (false, _) => client.call_with_recovery(&thread, &req, &recovery).await,
                (true, 0) => router.call(&thread, &req).await,
                (true, _) => router.call_read(&thread, &req).await,
            };
            let outcome = match result {
                Ok(r) => format!("{i} ok {:?} at {}", r.data, thread.now().as_nanos()),
                Err(e) => format!("{i} err {e:?} at {}", thread.now().as_nanos()),
            };
            out.borrow_mut().push(outcome);
        }
    });
    if let Some(plan) = plan {
        let hook = move |_: &Restart| server.recover_after_restart();
        let sinks = InjectorSinks {
            registry: Some(registry.clone()),
            on_restart: Some(Rc::new(hook)),
            recorder: Some(recorder.clone()),
        };
        install(&mut sim, &cluster, plan, sinks);
    }
    sim.run_for(SimSpan::millis(2));

    let mut csv = Vec::new();
    registry.snapshot().write_csv(&mut csv).expect("csv to vec");
    let mut trace = Vec::new();
    spans.write_chrome_trace(&mut trace).expect("spans to vec");
    let mut dump = Vec::new();
    recorder.dump(&mut dump).expect("recorder to vec");
    let outcomes = outcomes.borrow().clone();
    (outcomes, csv, trace, dump)
}

fn assert_same(plan: Option<&FaultPlan>) -> Vec<String> {
    let direct = run(false, plan);
    let routed = run(true, plan);
    assert_eq!(direct.0, routed.0, "outcomes diverged");
    assert_eq!(direct.1, routed.1, "registry export diverged");
    assert_eq!(direct.2, routed.2, "span trace diverged");
    assert_eq!(direct.3, routed.3, "flight-recorder trace diverged");
    assert_eq!(direct.0.len(), CALLS, "the schedule ran to the end");
    direct.0
}

#[test]
fn fault_free_router_is_its_connection() {
    let outcomes = assert_same(None);
    assert!(outcomes.iter().all(|o| o.contains(" ok ")));
}

#[test]
fn router_is_its_connection_across_a_crash() {
    let plan = FaultPlan::new(5).crash(SimTime::from_nanos(100_000), SimSpan::micros(400), 0, true);
    let outcomes = assert_same(Some(&plan));
    // The crash outlived the retry budget: the router surfaced the
    // failure instead of failing over, and the schedule carried on.
    assert!(
        outcomes.iter().any(|o| o.contains(" err ")),
        "no call failed"
    );
    assert!(outcomes.last().is_some_and(|o| o.contains(" ok ")));
}
