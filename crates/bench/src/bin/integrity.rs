//! Integrity sweep: corrupt-fetch detection and the checksum tax.
//!
//! A single-connection RFP echo rig runs against a server machine whose
//! memory is poisoned with torn-DMA and bit-flip windows at swept
//! probabilities. Every call carries a seeded pseudo-random payload the
//! client knows in advance, so corruption surfacing to the caller is
//! directly observable as an echo mismatch — the bench asserts there are
//! **zero** such mismatches at every fault rate while counting how many
//! corrupt images the integrity layer discarded and refetched on the
//! way.
//!
//! The zero-fault points with integrity on and off bracket the cost of
//! the protection itself (extended header + trailer bytes and the extra
//! verification work on every fetch): the `crc cost` line at the bottom
//! is their goodput delta.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin integrity [seed]
//! ```

use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_core::{connect, serve_loop, RfpConfig, RfpTelemetry};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// Per-READ fault probabilities swept (applied to torn-DMA and bit-flip
/// both). Zero is the baseline point shared with the integrity-off run.
const RATES: [f64; 4] = [0.0, 0.005, 0.02, 0.05];
/// Calls per swept point.
const CALLS: usize = 2_000;
/// Payload sizes drawn per call: spans one- and two-segment fetches at
/// the default `F = 256`.
const MAX_PAYLOAD: usize = 2_000;

struct Row {
    rate: f64,
    integrity: bool,
    mops: f64,
    torn: u64,
    crc_fail: u64,
    retries: u64,
    mismatches: u64,
}

/// Runs `CALLS` echo calls against a server with both fault knobs at
/// `rate`, returning the measured row. Panics (deliberately) if the rig
/// wedges before finishing.
fn run_point(seed: u64, &(rate, integrity): &(f64, bool)) -> Row {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    let cfg = RfpConfig {
        integrity,
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: SpanRecorder::new(16),
            prefix: "rfp.client.0".to_string(),
            track: 0,
        }),
        ..RfpConfig::default()
    };
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    sm.faults().set_torn_dma(rate);
    sm.faults().set_bitflip(rate);

    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));

    let ct = cm.thread("client");
    let done = Rc::new(Cell::new(0u64));
    let mismatches = Rc::new(Cell::new(0u64));
    let retries = Rc::new(Cell::new(0u64));
    let finished_ns = Rc::new(Cell::new(0u64));
    let (d, m, r, f) = (
        Rc::clone(&done),
        Rc::clone(&mismatches),
        Rc::clone(&retries),
        Rc::clone(&finished_ns),
    );
    sim.spawn(async move {
        let mut rng = StdRng::seed_from_u64(rfp_simnet::derive_seed(seed, 0x1D7E_6217));
        for _ in 0..CALLS {
            let len = rng.gen_range(0..MAX_PAYLOAD);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let out = client.call(&ct, &payload).await;
            if out.data != payload {
                m.set(m.get() + 1);
            }
            r.set(r.get() + out.info.integrity_retries as u64);
            d.set(d.get() + 1);
        }
        f.set(ct.now().as_nanos());
    });

    // Generous ceiling: even the worst fault rate finishes far sooner.
    sim.run_for(SimSpan::millis(200));
    assert_eq!(done.get(), CALLS as u64, "rig wedged at rate {rate}");

    // The fetch.* counters are created lazily on the first corrupt
    // fetch; reading through `counter()` would create them, so check
    // existence first.
    let lazy = |name: &str| {
        if registry.names().iter().any(|n| n == name) {
            registry.counter(name).get()
        } else {
            0
        }
    };
    Row {
        rate,
        integrity,
        mops: CALLS as f64 / (finished_ns.get() as f64 / 1e9) / 1e6,
        torn: lazy("fetch.torn"),
        crc_fail: lazy("fetch.crc_fail"),
        retries: retries.get(),
        mismatches: mismatches.get(),
    }
}

fn main() {
    let seed = seed_arg();

    // The integrity-off leg runs only fault-free: without verification
    // a poisoned READ would surface corrupt bytes by design, which is
    // exactly the failure mode the layer exists to close.
    let mut points: Vec<(f64, bool)> = vec![(0.0, false)];
    points.extend(RATES.iter().map(|&r| (r, true)));
    let rows = cells(&points, |point| run_point(seed, point));

    println!("# integrity sweep: echo fidelity and goodput under torn-DMA + bit-flip faults");
    println!("# seed={seed} calls={CALLS} max_payload={MAX_PAYLOAD}");
    println!("rate,integrity,mops,torn,crc_fail,retries,mismatches");
    let mut exports = Vec::new();
    for row in &rows {
        let mode = if row.integrity { "on" } else { "off" };
        println!(
            "{:.3},{mode},{:.4},{},{},{},{}",
            row.rate, row.mops, row.torn, row.crc_fail, row.retries, row.mismatches
        );
        for (metric, value) in [
            ("kops", (row.mops * 1e3) as u64),
            ("torn", row.torn),
            ("crc_fail", row.crc_fail),
            ("retries", row.retries),
        ] {
            exports.push((
                format!("bench.integrity.p{:.3}.{mode}.{metric}", row.rate),
                value,
            ));
        }
    }

    // Headline: no corrupt payload ever reaches a caller, at any rate.
    for row in &rows {
        assert_eq!(
            row.mismatches, 0,
            "corrupt payload surfaced at rate {} (integrity {})",
            row.rate, row.integrity
        );
    }
    // The knobs actually fire: every non-zero rate discarded fetches...
    for row in rows.iter().filter(|r| r.rate > 0.0) {
        assert!(
            row.retries > 0,
            "no corrupt fetch was ever manufactured at rate {}",
            row.rate
        );
    }
    // ...and clean runs discard none (the layer is silent when the
    // fabric is honest).
    for row in rows.iter().filter(|r| r.rate == 0.0) {
        assert_eq!(row.retries, 0, "spurious integrity retry on a clean run");
    }

    let off0 = rows[0].mops;
    let on0 = rows
        .iter()
        .find(|r| r.integrity && r.rate == 0.0)
        .expect("swept point")
        .mops;
    println!(
        "# crc cost: integrity on {:.4} Mops vs off {:.4} Mops ({:+.2}% goodput)",
        on0,
        off0,
        (on0 - off0) / off0 * 100.0
    );

    let path = emit_bench_json("integrity", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
