//! End-to-end fetch-integrity tests: poisoned READs never surface to
//! callers, the two-segment fetch accounts its actual remainder, and
//! persistent corruption escalates through the recovery path.

use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_core::{
    connect, serve_loop, RecoveryConfig, RespStatus, RfpConfig, RfpTelemetry, RESP_HDR,
    RESP_HDR_EXT, RESP_TRAILER,
};
use rfp_rnic::{Cluster, ClusterProfile, Machine};
use rfp_simnet::{MetricsRegistry, RetryPolicy, SimSpan, Simulation, SpanRecorder};

/// Echo rig over two machines; returns `(client, client machine, server
/// machine)` with the serve loop already spawned.
fn echo_rig(
    sim: &mut Simulation,
    cfg: RfpConfig,
) -> (Rc<rfp_core::RfpClient>, Rc<Machine>, Rc<Machine>) {
    let cluster = Cluster::new(sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let client = Rc::new(client);
    client.set_reconnect(cluster.qp_factory(0, 1));
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    (client, cm, sm)
}

fn integrity_cfg(registry: &MetricsRegistry) -> RfpConfig {
    RfpConfig {
        integrity: true,
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: SpanRecorder::new(16),
            prefix: "rfp.client.0".to_string(),
            track: 0,
        }),
        ..RfpConfig::default()
    }
}

/// Under heavy torn-DMA and bit-flip fault rates, every plain call still
/// echoes its payload exactly — corrupt fetched images are discarded and
/// refetched, never surfaced.
#[test]
fn echo_survives_torn_dma_and_bit_flips() {
    let mut sim = Simulation::new(99);
    let registry = MetricsRegistry::new();
    let (client, cm, sm) = echo_rig(&mut sim, integrity_cfg(&registry));
    sm.faults().set_torn_dma(0.05);
    sm.faults().set_bitflip(0.05);

    let ct = cm.thread("client");
    let retries = Rc::new(Cell::new(0u64));
    let done = Rc::new(Cell::new(0u32));
    let (r, d) = (Rc::clone(&retries), Rc::clone(&done));
    sim.spawn(async move {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let len = rng.gen_range(0..1500usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let out = client.call(&ct, &payload).await;
            assert_eq!(out.data, payload, "corrupt payload surfaced to the caller");
            assert_eq!(out.info.status, RespStatus::Ok);
            r.set(r.get() + out.info.integrity_retries as u64);
            d.set(d.get() + 1);
        }
    });
    sim.run_for(SimSpan::millis(50));
    assert_eq!(done.get(), 300, "echo loop wedged under faults");
    assert!(
        retries.get() > 0,
        "5% fault rates over 300 calls must manufacture at least one corrupt fetch"
    );
    // The per-class counters materialised and agree with the total.
    let torn = registry.counter("fetch.torn").get();
    let crc = registry.counter("fetch.crc_fail").get();
    assert_eq!(
        torn + crc,
        registry.counter("fetch.integrity_retries").get()
    );
    assert_eq!(torn + crc, retries.get());
}

/// The recovery path tolerates the same fault rates: every
/// `call_with_recovery` completes `Ok` with an intact payload.
#[test]
fn recovery_calls_survive_fault_windows() {
    let mut sim = Simulation::new(41);
    let registry = MetricsRegistry::new();
    let (client, cm, sm) = echo_rig(&mut sim, integrity_cfg(&registry));
    sm.faults().set_torn_dma(0.03);
    sm.faults().set_bitflip(0.03);

    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let rec = RecoveryConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let len = rng.gen_range(0..1200usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let out = client
                .call_with_recovery(&ct, &payload, &rec)
                .await
                .expect("recovery call failed under moderate fault rates");
            assert_eq!(out.data, payload, "corrupt payload surfaced via recovery");
            d.set(d.get() + 1);
        }
    });
    sim.run_for(SimSpan::millis(100));
    assert_eq!(done.get(), 200, "recovery loop wedged under faults");
}

/// Pins the two-segment accounting: the second READ is charged with the
/// *actual* remainder — wire header and (with integrity on) trailer
/// included — so `fetch.bytes` minus that remainder is a whole number of
/// first-segment polls.
fn pin_two_segment_accounting(integrity: bool) {
    let mut sim = Simulation::new(5);
    let registry = MetricsRegistry::new();
    let cfg = if integrity {
        integrity_cfg(&registry)
    } else {
        RfpConfig {
            telemetry: Some(RfpTelemetry {
                registry: registry.clone(),
                spans: SpanRecorder::new(16),
                prefix: "rfp.client.0".to_string(),
                track: 0,
            }),
            ..RfpConfig::default()
        }
    };
    let f = cfg.fetch_size;
    let (client, cm, _sm) = echo_rig(&mut sim, cfg);
    let payload = 500usize; // > F - header: always a two-segment fetch
    let hdr = if integrity { RESP_HDR_EXT } else { RESP_HDR };
    let trailer = if integrity { RESP_TRAILER } else { 0 };
    let rest = (hdr + payload + trailer - f) as u64;

    let ct = cm.thread("client");
    let extra = Rc::new(Cell::new(false));
    let e = Rc::clone(&extra);
    sim.spawn(async move {
        let out = client.call(&ct, &vec![0xABu8; payload]).await;
        assert_eq!(out.data.len(), payload);
        e.set(out.info.extra_read);
    });
    sim.run_for(SimSpan::millis(1));
    assert!(
        extra.get(),
        "a {payload}-byte echo at F={f} needs a second READ"
    );

    let bytes = registry.counter("rfp.client.0.fetch.bytes").get();
    assert!(bytes > rest, "no first-segment fetch was accounted");
    assert_eq!(
        (bytes - rest) % f as u64,
        0,
        "second READ must account exactly header + payload + trailer - F = {rest} \
         on top of whole F-byte polls (got {bytes} total)"
    );
}

#[test]
fn two_segment_fetch_accounts_remainder_with_integrity_off() {
    pin_two_segment_accounting(false);
}

#[test]
fn two_segment_fetch_accounts_remainder_with_integrity_on() {
    pin_two_segment_accounting(true);
}

/// With the layer off, fault knobs at zero, the info field stays zero
/// and no integrity instrument is ever materialised — the off-is-inert
/// telemetry half.
#[test]
fn integrity_off_creates_no_instruments() {
    let mut sim = Simulation::new(11);
    let registry = MetricsRegistry::new();
    let cfg = RfpConfig {
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: SpanRecorder::new(16),
            prefix: "rfp.client.0".to_string(),
            track: 0,
        }),
        ..RfpConfig::default()
    };
    let (client, cm, _sm) = echo_rig(&mut sim, cfg);
    let ct = cm.thread("client");
    sim.spawn(async move {
        for i in 0..20u32 {
            let out = client.call(&ct, &i.to_le_bytes()).await;
            assert_eq!(out.data, i.to_le_bytes());
            assert_eq!(out.info.integrity_retries, 0);
        }
    });
    sim.run_for(SimSpan::millis(5));
    for name in registry.names() {
        assert!(
            !name.starts_with("fetch.torn")
                && !name.starts_with("fetch.crc_fail")
                && !name.starts_with("fetch.integrity_retries"),
            "integrity instrument {name} materialised on a clean integrity-off run"
        );
    }
}

/// Persistent corruption exhausts the per-attempt verify-and-refetch
/// budget (`FailureCause::Corrupt`), escalates to a QP re-establish, and
/// — when the corruption never clears — fails the call rather than
/// spinning forever.
#[test]
fn persistent_corruption_escalates_then_fails() {
    let mut sim = Simulation::new(23);
    let registry = MetricsRegistry::new();
    let (client, cm, sm) = echo_rig(&mut sim, integrity_cfg(&registry));
    // Every READ image carries a flipped bit, and the payload below
    // fills the whole fetch window, so every flip lands inside the
    // verified header + payload + trailer range: no fetch ever verifies.
    sm.faults().set_bitflip(1.0);

    let ct = cm.thread("client");
    let failed = Rc::new(Cell::new(false));
    let fl = Rc::clone(&failed);
    sim.spawn(async move {
        let rec = RecoveryConfig {
            retry: RetryPolicy::exponential(4, SimSpan::micros(5), SimSpan::micros(40), 0.2),
            ..RecoveryConfig::default()
        };
        let err = client
            .call_with_recovery(&ct, &[0x5Au8; 300], &rec)
            .await
            .expect_err("no fetch can verify at p=1.0 bit flips");
        assert!(err.attempts > 0);
        fl.set(true);
    });
    sim.run_for(SimSpan::millis(20));
    assert!(failed.get(), "recovery call neither failed nor completed");
    assert!(
        registry.counter("recovery.corrupt_attempts").get() > 0,
        "no attempt exhausted its verify-and-refetch budget"
    );
    assert!(
        registry.counter("recovery.reconnects").get() > 0,
        "corrupt exhaustion must escalate to a QP re-establish"
    );
}

/// Once a fault window closes, the same client completes calls cleanly
/// again — corruption is a condition, not a terminal state.
#[test]
fn client_recovers_after_fault_window_closes() {
    let mut sim = Simulation::new(17);
    let registry = MetricsRegistry::new();
    let (client, cm, sm) = echo_rig(&mut sim, integrity_cfg(&registry));
    sm.faults().set_torn_dma(0.2);
    sm.faults().set_bitflip(0.2);

    let ct = cm.thread("client");
    let server_m = Rc::clone(&sm);
    let clean_retries = Rc::new(Cell::new(0u64));
    let done = Rc::new(Cell::new(false));
    let (cr, d) = (Rc::clone(&clean_retries), Rc::clone(&done));
    sim.spawn(async move {
        let rec = RecoveryConfig::default();
        for i in 0..50u32 {
            let out = client
                .call_with_recovery(&ct, &i.to_le_bytes(), &rec)
                .await
                .expect("call failed during the fault window");
            assert_eq!(out.data, i.to_le_bytes());
        }
        // Window closes; from here on the layer must be silent.
        server_m.faults().set_torn_dma(0.0);
        server_m.faults().set_bitflip(0.0);
        for i in 0..50u32 {
            let out = client
                .call_with_recovery(&ct, &i.to_le_bytes(), &rec)
                .await
                .expect("call failed after the fault window closed");
            assert_eq!(out.data, i.to_le_bytes());
            cr.set(cr.get() + out.info.integrity_retries as u64);
        }
        d.set(true);
    });
    sim.run_for(SimSpan::millis(100));
    assert!(done.get(), "loop wedged");
    assert_eq!(
        clean_retries.get(),
        0,
        "integrity retries after the fault window closed"
    );
}
