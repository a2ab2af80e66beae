//! The hybrid mechanism, live: watch a connection ride out a server
//! load spike.
//!
//! A client hammers an RFP service while the server's per-request
//! process time jumps from sub-microsecond to 30 µs and back. The §3.2
//! machinery reacts: after two consecutive calls exceed `R` failed
//! fetches, the connection switches to server-reply (client CPU drops);
//! when the server-reported process time shrinks again, it switches
//! back. The attached flight recorder captures the exact switch
//! instants.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mode_switch
//! ```

use std::cell::Cell;
use std::rc::Rc;

use rfp_repro::core::{connect, serve_loop, Mode, RfpConfig};
use rfp_repro::rnic::{Cluster, ClusterProfile};
use rfp_repro::simnet::{FlightRecorder, SimSpan, Simulation};

fn main() {
    let mut sim = Simulation::new(5);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));

    let events = FlightRecorder::new(64);
    let (client, conn) = connect(
        &cm,
        &sm,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        RfpConfig {
            recorder: Some(events.clone()),
            ..RfpConfig::default()
        },
    );
    let client = Rc::new(client);

    // Server whose process time the load generator will spike.
    let process_us = Rc::new(Cell::new(0u64));
    let p = Rc::clone(&process_us);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        move |req: &[u8]| (req.to_vec(), SimSpan::micros(p.get())),
        SimSpan::nanos(100),
    ));

    // The load spike: calm → overloaded (t=2ms) → recovered (t=6ms).
    let p2 = Rc::clone(&process_us);
    let h = sim.handle();
    sim.spawn(async move {
        h.sleep(SimSpan::millis(2)).await;
        println!("[{}] server load spike begins (P -> 30us)", h.now());
        p2.set(30);
        h.sleep(SimSpan::millis(4)).await;
        println!("[{}] server recovers (P -> 0)", h.now());
        p2.set(0);
    });

    // The client: continuous calls; sample the mode and CPU as we go.
    let cl = Rc::clone(&client);
    let ct = cm.thread("client");
    let ct2 = Rc::clone(&ct);
    let h2 = sim.handle();
    sim.spawn(async move {
        let mut last_mode = Mode::RemoteFetch;
        let mut window_start = h2.now();
        loop {
            let out = cl.call(&ct2, b"payload").await;
            if out.info.completed_in != last_mode {
                last_mode = out.info.completed_in;
            }
            // Periodic status line.
            if (h2.now() - window_start) > SimSpan::millis(1) {
                println!(
                    "[{}] mode={:?} client-cpu={:>5.1}% mean-attempts={:.2}",
                    h2.now(),
                    cl.mode(),
                    ct2.utilization() * 100.0,
                    cl.stats().mean_attempts(),
                );
                ct2.reset_utilization();
                cl.stats().reset();
                window_start = h2.now();
            }
        }
    });

    sim.run_for(SimSpan::millis(9));

    println!("\n--- flight recorder ({} events) ---", events.len());
    let mut out = Vec::new();
    events.dump(&mut out).expect("dump");
    print!("{}", String::from_utf8_lossy(&out));
    let mut switches = events.snapshot();
    switches.retain(|e| e.kind == "rfp.mode_switch");
    println!(
        "\n{} mode switches: overload detected {} after the spike, recovery {} after it ended",
        switches.len(),
        switches
            .first()
            .map(|e| format!(
                "{}",
                e.at.since(rfp_repro::simnet::SimTime::from_nanos(2_000_000))
            ))
            .unwrap_or_default(),
        switches
            .last()
            .map(|e| format!(
                "{}",
                e.at.since(rfp_repro::simnet::SimTime::from_nanos(6_000_000))
            ))
            .unwrap_or_default(),
    );
}
