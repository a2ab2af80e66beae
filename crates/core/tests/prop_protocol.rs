//! Property-based tests of the RFP wire protocol and parameter
//! selection: header round-trips, two-segment fetch reassembly over the
//! real transport, and selection-domain invariants.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;

use rfp_core::{
    connect, resp_canary, serve_loop, ParamSelector, ReqHeader, RespHeader, RespIntegrity,
    RespStatus, RfpConfig, WorkloadSample, MAX_PAYLOAD, REQ_HDR, RESP_HDR, RESP_HDR_EXT,
};
use rfp_rnic::{Cluster, ClusterProfile, LinkProfile, NicProfile};
use rfp_simnet::{SimSpan, SimTime, Simulation};

/// Uniform draw over the four wire statuses.
fn any_status() -> impl Strategy<Value = RespStatus> {
    (0u8..4).prop_map(RespStatus::from_u8)
}

proptest! {
    /// Every field combination round-trips through the one 24-byte
    /// layout (the all-ones deadline and tenant are the "absent" values).
    #[test]
    fn req_header_round_trips(
        valid in any::<bool>(),
        size in 0u32..=MAX_PAYLOAD as u32,
        seq in any::<u32>(),
        deadline_ns in prop::option::of(0..u64::MAX),
        tenant in prop::option::of(0..u32::MAX),
        epoch in any::<u16>(),
    ) {
        let h = ReqHeader { valid, size, seq, deadline: deadline_ns.map(SimTime::from_nanos), tenant, epoch };
        prop_assert_eq!(ReqHeader::decode(&h.encode()), h);
    }

    /// Any 24 bytes decode without panicking, and what they decode to
    /// re-encodes to the same header: a corrupt or torn request window
    /// is at worst a garbage header, never a crash.
    #[test]
    fn req_header_decode_never_panics(bytes in vec(any::<u8>(), REQ_HDR..REQ_HDR + 1)) {
        let h = ReqHeader::decode(&bytes);
        prop_assert_eq!(ReqHeader::decode(&h.encode()), h);
    }

    /// Encode/decode identity over the full status × size × time × credit
    /// product: no combination of the new fields perturbs any other.
    #[test]
    fn resp_header_round_trips(
        valid in any::<bool>(),
        size in 0u32..=MAX_PAYLOAD as u32,
        seq in any::<u32>(),
        time_us in any::<u16>(),
        status in any_status(),
        credits in any::<u16>(),
        epoch in any::<u16>(),
    ) {
        let h = RespHeader { valid, size, seq, time_us, status, credits, integrity: None, epoch };
        let mut buf = [0u8; RESP_HDR];
        h.encode(&mut buf);
        prop_assert_eq!(RespHeader::decode(&buf), h);
    }

    /// Integrity-stamped headers round-trip through the extended layout,
    /// and the trailing canary is a pure function of (seq, generation).
    #[test]
    fn resp_header_integrity_round_trips(
        valid in any::<bool>(),
        size in 0u32..=MAX_PAYLOAD as u32,
        seq in any::<u32>(),
        time_us in any::<u16>(),
        status in any_status(),
        credits in any::<u16>(),
        crc in any::<u64>(),
        generation in any::<u32>(),
        epoch in any::<u16>(),
    ) {
        let h = RespHeader {
            valid, size, seq, time_us, status, credits,
            integrity: Some(RespIntegrity { crc, generation }),
            epoch,
        };
        prop_assert_eq!(h.wire_len(), RESP_HDR_EXT);
        let mut buf = [0u8; RESP_HDR_EXT];
        h.encode(&mut buf);
        prop_assert_eq!(RespHeader::decode(&buf), h);
        prop_assert_eq!(resp_canary(seq, generation), resp_canary(seq, generation));
        prop_assert_ne!(resp_canary(seq, generation), 0);
    }

    /// Echoing arbitrary payloads through the full RFP stack reassembles
    /// them exactly — whatever the relation between payload size and
    /// fetch size `F` (one- or two-segment fetch).
    #[test]
    fn fetch_reassembles_arbitrary_payloads(
        payload in vec(any::<u8>(), 0..3000),
        fetch in RESP_HDR..2048usize,
    ) {
        let mut sim = Simulation::new(3);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let cfg = RfpConfig {
            fetch_size: fetch,
            req_capacity: 8192,
            resp_capacity: 8192,
            ..RfpConfig::default()
        };
        let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
        let st = sm.thread("s");
        sim.spawn(serve_loop(
            st,
            vec![Rc::new(conn)],
            |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
            SimSpan::nanos(100),
        ));
        let ct = cm.thread("c");
        let got: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let p = payload.clone();
        sim.spawn(async move {
            let out = client.call(&ct, &p).await;
            *g.borrow_mut() = Some(out.data);
        });
        sim.run_for(SimSpan::millis(2));
        let got = got.borrow_mut().take();
        prop_assert_eq!(got, Some(payload));
    }

    /// The selector always lands inside its own hardware box and never
    /// returns an `F` that cannot carry the header.
    #[test]
    fn selection_stays_in_bounds(
        sizes in vec(1usize..4096, 1..24),
        p_us in 0u64..12,
        threads in 1usize..64,
        machines in 1usize..16,
    ) {
        let selector = ParamSelector::new(NicProfile::connectx3_40g(), LinkProfile::infiniscale());
        let (l, h) = selector.detect_l_h();
        let w = WorkloadSample {
            result_sizes: sizes,
            process_time: SimSpan::micros(p_us),
            request_size: 64,
            client_threads: threads,
            client_machines: machines,
        };
        let params = selector.select(&w);
        prop_assert!(params.f >= l && params.f <= h, "F={} not in [{l},{h}]", params.f);
        prop_assert!(params.f >= RESP_HDR);
        let n = selector.derive_n(&w);
        prop_assert!(params.r >= 1 && params.r <= n, "R={} not in [1,{n}]", params.r);
    }

    /// Throughput estimates are finite and positive; *pure* repeated
    /// fetching (unbounded `R`) is monotone non-increasing in process
    /// time; once a finite `R` triggers the switch, the estimate
    /// equals server-reply's; and at a fixed thread count, spreading
    /// the threads over more client machines (fewer issuers contending
    /// on each out-bound engine, more engines) never lowers it. (Across
    /// the switch point throughput may jump *up* — that is exactly why
    /// the hybrid mechanism exists.)
    #[test]
    fn throughput_model_is_sane(
        size in 1usize..2048,
        p_us in 0u64..10,
        threads in 1usize..80,
        machines in 1usize..16,
    ) {
        let selector = ParamSelector::new(NicProfile::connectx3_40g(), LinkProfile::infiniscale());
        let mk = |p, client_machines| WorkloadSample {
            result_sizes: vec![size],
            process_time: SimSpan::micros(p),
            request_size: 64,
            client_threads: threads,
            client_machines,
        };
        let now = selector.rfp_throughput(u32::MAX, 448, &mk(p_us, machines), size).mops;
        let later = selector.rfp_throughput(u32::MAX, 448, &mk(p_us + 1, machines), size).mops;
        prop_assert!(now.is_finite() && now > 0.0);
        prop_assert!(later <= now + 1e-9, "P↑ should not raise pure-fetch throughput: {now} -> {later}");
        // A switched estimate coincides with server-reply.
        let switched = selector.rfp_throughput(0, 448, &mk(p_us + 5, machines), size);
        let sr = selector.server_reply_throughput(&mk(p_us + 5, machines), size);
        prop_assert_eq!(switched, sr);
        for r in [1, 5, u32::MAX] {
            let spread = selector.rfp_throughput(r, 448, &mk(p_us, machines + 1), size).mops;
            let packed = selector.rfp_throughput(r, 448, &mk(p_us, machines), size).mops;
            prop_assert!(
                spread >= packed - 1e-9,
                "{machines} -> {} machines lowered R={r}: {packed} -> {spread}",
                machines + 1
            );
        }
    }
}
