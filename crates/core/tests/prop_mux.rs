//! M=N mux equivalence: with one logical client pinned to each physical
//! connection, the multiplexing layer must be a zero-cost veneer — the
//! run, tenant stamps and all, is byte-identical to today's
//! dedicated-connection path on the wire (NIC op/byte counters: a
//! stamped request header is as long as an unstamped one), on every
//! telemetry surface (full registry snapshot, span recorder), on the
//! virtual clock, and in every response payload.
//!
//! This is the mux's regression anchor, in the same spirit as the
//! pipelined client's `W = 1 ≡ sequential` pin: fleet features must be
//! pay-as-you-go, and this test is what "zero" means.

use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;

use rfp_core::{
    connect, serve_loop, IdlePolicy, RfpClient, RfpConfig, RfpMux, RfpTelemetry, TenantId,
};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// Everything observable about one run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    now_ns: u64,
    /// Full registry snapshot (rfp.client.*, serve.scan.*, nic.*).
    registry_csv: String,
    spans_recorded: u64,
    /// NIC counters of both machines.
    nics: Vec<rfp_rnic::NicCounters>,
    /// Every response payload, per client, in call order.
    responses: Vec<Vec<Vec<u8>>>,
}

/// Runs `m` clients, each issuing `calls` echo calls of sizes drawn
/// from `sizes`, over dedicated connections (`mux = false`) or a pinned
/// M=N mux (`mux = true`). Rig construction order is identical in both
/// arms so event ids line up.
fn run(seed: u64, m: usize, window: usize, calls: usize, sizes: &[usize], mux: bool) -> Observed {
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(1024);
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    cluster.attach_metrics(&registry);

    let mut clients: Vec<Rc<RfpClient>> = Vec::new();
    for i in 0..m {
        let cfg = RfpConfig {
            window,
            telemetry: Some(RfpTelemetry {
                registry: registry.clone(),
                spans: spans.clone(),
                prefix: format!("rfp.client.{i}"),
                track: i as u32,
            }),
            conn_id: i as u32,
            ..RfpConfig::default()
        };
        let (cl, sc) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
        clients.push(Rc::new(cl));
        let st = sm.thread(format!("server{i}"));
        // Adaptive idle keeps the per-case event count small: the rig
        // is idle for most of the horizon once the few calls finish.
        sim.spawn(serve_loop(
            st,
            vec![Rc::new(sc)],
            |req: &[u8]| (req.to_vec(), SimSpan::micros(1)),
            IdlePolicy::adaptive(SimSpan::nanos(100), SimSpan::micros(100)),
        ));
    }

    let mux_layer = mux.then(|| RfpMux::new(clients.clone()));

    let responses: Rc<std::cell::RefCell<Vec<Vec<Vec<u8>>>>> =
        Rc::new(std::cell::RefCell::new(vec![Vec::new(); m]));
    for i in 0..m {
        let t = cm.thread(format!("task{i}"));
        let client = Rc::clone(&clients[i]);
        let logical = mux_layer
            .as_ref()
            .map(|mx| mx.logical_client_pinned(TenantId(i as u32), i));
        let sizes: Vec<usize> = sizes.to_vec();
        let out = Rc::clone(&responses);
        sim.spawn(async move {
            for k in 0..calls {
                let len = sizes[(i + k) % sizes.len()];
                let payload: Vec<u8> = (0..len).map(|b| (b + i * 31 + k) as u8).collect();
                let result = match &logical {
                    Some(lc) => lc.call(&t, &payload).await,
                    None => client.call(&t, &payload).await,
                };
                out.borrow_mut()[i].push(result.data);
            }
        });
    }
    sim.run_for(SimSpan::millis(5));

    let mut registry_csv = Vec::new();
    registry
        .snapshot()
        .write_csv(&mut registry_csv)
        .expect("render snapshot");
    Observed {
        now_ns: sim.now().as_nanos(),
        registry_csv: String::from_utf8(registry_csv).expect("csv is utf8"),
        spans_recorded: spans.recorded(),
        nics: (0..2)
            .map(|i| cluster.machine(i).nic().counters())
            .collect(),
        responses: Rc::try_unwrap(responses)
            .expect("tasks finished")
            .into_inner(),
    }
}

proptest! {
    /// Pinned M=N mux ≡ dedicated connections, observably everywhere.
    #[test]
    fn pinned_mux_is_byte_identical_to_dedicated_conns(
        seed in 0u64..200,
        m in 1usize..4,
        wexp in 0usize..3,
        calls in 1usize..5,
        sizes in vec(1usize..96, 1..4),
    ) {
        let window = 1usize << wexp;
        let dedicated = run(seed, m, window, calls, &sizes, false);
        let muxed = run(seed, m, window, calls, &sizes, true);
        // Every call completed in both arms.
        for (i, r) in dedicated.responses.iter().enumerate() {
            prop_assert_eq!(r.len(), calls, "dedicated client {} unfinished", i);
        }
        prop_assert_eq!(&dedicated, &muxed);
    }
}
