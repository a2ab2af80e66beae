//! Pipelined-driver equivalence and isolation.
//!
//! The contract under test: with `window = 1` the pipelined driver *is*
//! the sequential client — every wire op, CPU charge, span milestone and
//! instrument lands identically — and with a wide window each call still
//! surfaces exactly its own payload, whatever the slot interleaving.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;

use rfp_core::{connect, serve_loop, CallResult, RfpClient, RfpConfig, RfpTelemetry};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// Everything observable about one driver run: per-call results, the
/// connection's registry instruments, and the recorded lifecycle spans.
struct Observed {
    datas: Vec<Vec<u8>>,
    infos: Vec<String>,
    registry_json: String,
    spans: String,
    stats: String,
    doorbells: u64,
    switches_to_reply: u64,
}

/// How the echo server and the hybrid switch behave in one run: the
/// first `slow_calls` requests take 10 µs to process (enough to overrun
/// `R` and, with the switch enabled, flip the connection to server-reply
/// on the second one); the rest are instant, which flips it back.
#[derive(Clone, Copy)]
struct Behaviour {
    mode_switch: bool,
    slow_calls: u32,
}

const HEALTHY: Behaviour = Behaviour {
    mode_switch: true,
    slow_calls: 0,
};

/// Runs `reqs` through an echo server on a fresh deterministic sim —
/// sequentially (`call` per request) or through `call_pipelined` — and
/// captures every telemetry surface the connection exposes.
fn run_echo(
    seed: u64,
    window: usize,
    reqs: &[Vec<u8>],
    pipelined: bool,
    behaviour: Behaviour,
) -> Observed {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(256);
    let cfg = RfpConfig {
        window,
        enable_mode_switch: behaviour.mode_switch,
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: "rfp.c0".to_string(),
            track: 0,
        }),
        ..RfpConfig::default()
    };
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let client = Rc::new(client);
    let st = sm.thread("server");
    let mut served = 0u32;
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        move |req: &[u8]| {
            served += 1;
            let process = if served <= behaviour.slow_calls {
                SimSpan::micros(10)
            } else {
                SimSpan::ZERO
            };
            (req.to_vec(), process)
        },
        SimSpan::nanos(100),
    ));
    let ct = cm.thread("client");
    let out: Rc<RefCell<Vec<CallResult>>> = Rc::new(RefCell::new(Vec::new()));
    let (o, c, reqs_in) = (Rc::clone(&out), Rc::clone(&client), reqs.to_vec());
    sim.spawn(async move {
        if pipelined {
            *o.borrow_mut() = c.call_pipelined(&ct, &reqs_in).await;
        } else {
            for req in &reqs_in {
                let one = c.call(&ct, req).await;
                o.borrow_mut().push(one);
            }
        }
    });
    // Step until the driver finishes rather than running a fixed long
    // window: an idle serve loop generates events every spin, so extra
    // simulated time is pure test-suite cost. Both drivers of an
    // equivalent pair finish at the same instant, hence after the same
    // number of steps — the observation point stays comparable.
    for _ in 0..400 {
        if out.borrow().len() == reqs.len() {
            break;
        }
        sim.run_for(SimSpan::micros(50));
    }

    let results = out.borrow();
    assert_eq!(results.len(), reqs.len(), "driver did not finish in time");
    let mut registry_json = Vec::new();
    registry
        .snapshot()
        .write_json(&mut registry_json)
        .expect("registry json");
    let st = client.stats();
    Observed {
        datas: results.iter().map(|r| r.data.clone()).collect(),
        infos: results.iter().map(|r| format!("{:?}", r.info)).collect(),
        registry_json: String::from_utf8(registry_json).expect("utf8 json"),
        spans: format!("{:?}", spans.snapshot()),
        stats: format!(
            "calls={} mean_attempts={} extra_reads={} hist={:?} max_attempts={} \
             to_reply={} to_fetch={} mode={:?}",
            st.calls(),
            st.mean_attempts(),
            st.extra_reads(),
            st.attempts_histogram(),
            st.max_attempts(),
            st.switches_to_reply(),
            st.switches_to_fetch(),
            client.mode(),
        ),
        doorbells: st.doorbells(),
        switches_to_reply: st.switches_to_reply(),
    }
}

fn observe_client_stats(client: &RfpClient) -> String {
    let st = client.stats();
    format!(
        "calls={} doorbells={} doorbell_reads={} single_reads={}",
        st.calls(),
        st.doorbells(),
        st.doorbell_reads(),
        st.single_reads()
    )
}

proptest! {
    /// `W = 1` inertness at the driver level: for any request batch, the
    /// pipelined driver produces byte-identical payloads, per-call
    /// diagnostics (including latencies — i.e. the same simulated event
    /// schedule), registry instruments, and lifecycle spans as issuing
    /// the same requests one `call` at a time — including on a
    /// connection that switches to server-reply and back mid-batch.
    #[test]
    fn w1_pipelined_is_identical_to_sequential_calls(
        seed in 0u64..200,
        reqs in vec(vec(any::<u8>(), 0..700), 1..8),
        mode_switch in any::<bool>(),
        slow_calls in 0u32..6,
    ) {
        let behaviour = Behaviour { mode_switch, slow_calls };
        let seq = run_echo(seed, 1, &reqs, false, behaviour);
        let pipe = run_echo(seed, 1, &reqs, true, behaviour);
        if mode_switch && slow_calls >= 3 && reqs.len() >= 3 {
            prop_assert!(seq.switches_to_reply >= 1, "the draw never switched");
        }
        prop_assert_eq!(&seq.datas, &pipe.datas);
        prop_assert_eq!(&seq.infos, &pipe.infos);
        prop_assert_eq!(&seq.registry_json, &pipe.registry_json);
        prop_assert_eq!(&seq.spans, &pipe.spans);
        prop_assert_eq!(&seq.stats, &pipe.stats);
        // A window of one can never batch two fetches: the doorbell
        // path must be unreachable.
        prop_assert_eq!(pipe.doorbells, 0);
    }

    /// Slot isolation on the healthy path: with a wide window and
    /// per-request distinctive payloads of varying lengths, every call
    /// surfaces exactly its own bytes (a stale scratch tail, a cross-slot
    /// read, or a mis-mapped seq would all show up as a foreign payload).
    #[test]
    fn pipelined_calls_surface_their_own_payloads(
        seed in 0u64..200,
        window_log2 in 1u32..5,
        lens in vec(1usize..900, 1..40),
    ) {
        let window = 1usize << window_log2;
        let reqs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                (0..len).map(|j| (i as u8) ^ (j as u8).wrapping_mul(31)).collect()
            })
            .collect();
        let out = run_echo(seed, window, &reqs, true, HEALTHY);
        prop_assert_eq!(&out.datas, &reqs);
    }
}

/// Deterministic companion: mixed payload lengths through one wide-window
/// connection, long-then-short-then-long, pinning that the recycled READ
/// scratch and per-slot reassembly never leak bytes between calls — and
/// that the batch actually exercised the shared-doorbell path.
#[test]
fn mixed_length_batch_reuses_buffers_without_leaks() {
    let mut sim = Simulation::new(9);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        window: 4,
        ..RfpConfig::default()
    };
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
    let reqs: Vec<Vec<u8>> = [600usize, 3, 512, 16, 700, 1, 64, 300]
        .iter()
        .enumerate()
        .map(|(i, &len)| vec![0x10 + i as u8; len])
        .collect();
    let done = Rc::new(RefCell::new(None));
    let (d, c, reqs_in) = (Rc::clone(&done), Rc::clone(&client), reqs.clone());
    sim.spawn(async move {
        *d.borrow_mut() = Some(c.call_pipelined(&ct, &reqs_in).await);
    });
    sim.run_for(SimSpan::millis(5));
    let outs = done.borrow_mut().take().expect("batch finished");
    for (req, out) in reqs.iter().zip(&outs) {
        assert_eq!(&out.data, req, "payload leaked between slots");
    }
    let snap = observe_client_stats(&client);
    assert!(
        client.stats().doorbells() > 0,
        "wide batch never shared a doorbell: {snap}"
    );
}

/// Overlapped rounds keep the client's out-bound engine busy: a call
/// costs it two ops (the request WRITE and the fetch READ), so a wide
/// window reaches at least 90 % of `1 / (2 · outbound_min)` — a round
/// that waits for all its ops drains the engine twice per round.
#[test]
fn wide_windows_reach_the_client_outbound_bound() {
    let profile = ClusterProfile::paper_testbed();
    let bound = 1.0 / (2.0 * profile.nic.outbound_min.as_secs_f64());
    for window in [4, 8, 16] {
        let mut sim = Simulation::new(42);
        let cluster = Cluster::new(&mut sim, profile.clone(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let cfg = RfpConfig {
            window,
            enable_mode_switch: false,
            ..RfpConfig::default()
        };
        let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
        let client = Rc::new(client);
        sim.spawn(serve_loop(
            sm.thread("server"),
            vec![Rc::new(conn)],
            |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
            SimSpan::nanos(100),
        ));
        let (c, ct) = (Rc::clone(&client), cm.thread("client"));
        sim.spawn(async move {
            let reqs = vec![vec![7u8; 32]; 64];
            loop {
                c.call_pipelined(&ct, &reqs).await;
            }
        });
        sim.run_for(SimSpan::micros(200));
        client.stats().reset();
        let span = SimSpan::millis(1);
        sim.run_for(span);
        let rate = client.stats().calls() as f64 / span.as_secs_f64();
        assert!(
            rate >= 0.9 * bound,
            "W={window}: {:.3} Mcalls/s, under 90 % of the {:.3} Mcalls/s out-bound bound",
            rate / 1e6,
            bound / 1e6
        );
    }
}
