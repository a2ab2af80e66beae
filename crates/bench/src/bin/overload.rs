//! Overload sweep: goodput vs offered load, with and without the
//! overload-control subsystem (credit-based admission, deadline-aware
//! shedding, cooperative client backoff).
//!
//! The rig is the Jakiro KV system with an artificial per-request
//! process time that makes the server CPU the bottleneck, swept over
//! closed-loop client counts from 0.5× to 4× of the saturation point.
//! Goodput counts only requests completed within the deadline; under
//! overload the uncontrolled system keeps executing every request —
//! all of them late — while the controlled one sheds cheaply and keeps
//! the server's cycles on requests that can still make their deadline.
//!
//! Also verifies the subsystem's headline cost claim: a shed request
//! costs the server exactly **two in-bound ops and zero out-bound ops**
//! (the client's request WRITE plus one verdict-bearing fetch READ).
//!
//! ```text
//! cargo run --release -p rfp-bench --bin overload [seed]
//! ```

use std::rc::Rc;

use rfp_bench::{cells, echo_rig, emit_bench_json, seed_arg};
use rfp_core::{IdlePolicy, OverloadConfig, RespStatus, RfpConfig};
use rfp_kvstore::systems::spawn_jakiro;
use rfp_kvstore::SystemConfig;
use rfp_simnet::{RetryPolicy, SimSpan, Simulation};

/// Closed-loop clients at 1× offered load (calibrated so the server CPU
/// saturates right around here).
const BASE_CLIENTS: usize = 6;
/// Offered-load multipliers swept (client count = mult × BASE_CLIENTS).
const MULTS: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 4.0];
/// Artificial per-request process time: makes server CPU the bottleneck.
const EXTRA_PROCESS: SimSpan = SimSpan::micros(2);
/// Server threads (= CPU capacity ≈ threads / process time).
const SERVER_THREADS: usize = 2;
/// The latency bound goodput is measured against — also the shedding
/// deadline stamped on every request when the subsystem is on.
const DEADLINE: SimSpan = SimSpan::micros(20);
/// Warm-up before, and length of, each measurement window.
const WARMUP: SimSpan = SimSpan::millis(2);
const WINDOW: SimSpan = SimSpan::millis(8);

struct Row {
    mult: f64,
    clients: usize,
    controlled: bool,
    mops: f64,
    goodput: f64,
    p99_us: f64,
    shed_rate: f64,
}

fn sweep_cfg(seed: u64, clients: usize, controlled: bool) -> SystemConfig {
    let mut cfg = SystemConfig {
        server_threads: SERVER_THREADS,
        client_machines: clients,
        clients_per_machine: 1,
        extra_process: EXTRA_PROCESS,
        // The overload path must stand on its own against CPU pile-up;
        // outliers are a different experiment's tail.
        outlier_prob: 0.0,
        seed,
        ..SystemConfig::default()
    };
    if controlled {
        cfg.rfp.overload = Some(OverloadConfig {
            deadline: DEADLINE,
            // A short queue and fast, tightly-capped re-admission: a
            // request rejected once must still be able to finish within
            // its 20µs deadline, and admitted batches must not queue
            // past it either.
            queue_limit: 4,
            retry: RetryPolicy::exponential(3, SimSpan::micros(2), SimSpan::micros(8), 0.3),
            credit_wait: SimSpan::micros(2),
            probe_pause: SimSpan::micros(2),
            ..OverloadConfig::default()
        });
    }
    cfg
}

fn run_point(seed: u64, &(mult, controlled): &(f64, bool)) -> Row {
    let clients = ((BASE_CLIENTS as f64 * mult).round() as usize).max(1);
    let cfg = sweep_cfg(seed, clients, controlled);
    let mut sim = Simulation::new(seed);
    let sys = spawn_jakiro(&mut sim, &cfg);
    sim.run_for(WARMUP);
    sys.reset_measurements();
    let t0 = sim.now();
    sim.run_for(WINDOW);
    let secs = (sim.now() - t0).as_secs_f64();

    let st = &sys.stats;
    let completed = st.completed.get();
    let rejected = st.rejected_busy.get() + st.rejected_shed.get();
    let mops = completed as f64 / secs / 1e6;
    Row {
        mult,
        clients,
        controlled,
        mops,
        goodput: mops * st.latency.frac_at_most(DEADLINE),
        p99_us: st
            .latency
            .percentile(99.0)
            .map(|s| s.as_micros_f64())
            .unwrap_or(0.0),
        shed_rate: rejected as f64 / (completed + rejected).max(1) as f64,
    }
}

/// Pins the shed cost on the wire: one request deliberately stamped
/// with an already-expired deadline is shed by the server, and the
/// server NIC must account exactly 2 in-bound ops (request WRITE +
/// verdict fetch READ) and 0 out-bound ops for it.
fn shed_cost_check(seed: u64) -> (u64, u64) {
    let cfg = RfpConfig {
        overload: Some(OverloadConfig {
            ..OverloadConfig::default()
        }),
        ..RfpConfig::default()
    };
    let rig = echo_rig(seed, cfg, IdlePolicy::fixed(SimSpan::nanos(100)));
    let (mut sim, client, ct) = (rig.sim, rig.client, rig.client_thread);
    let server_m = Rc::clone(rig.server_thread.machine());
    let counted = Rc::new(std::cell::Cell::new((0u64, 0u64)));
    let out_counts = Rc::clone(&counted);
    sim.spawn(async move {
        // Let the serve loop settle, then snapshot the NIC.
        ct.handle().sleep(SimSpan::micros(5)).await;
        let before = server_m.nic().counters();
        let out = client.call_overload(&ct, b"doomed", Some(ct.now())).await;
        assert_eq!(out.info.status, RespStatus::Shed, "expired call must shed");
        let after = server_m.nic().counters();
        out_counts.set((
            after.inbound_ops - before.inbound_ops,
            after.outbound_ops - before.outbound_ops,
        ));
    });
    sim.run_for(SimSpan::millis(1));
    counted.get()
}

fn main() {
    let seed = seed_arg();

    let (inbound, outbound) = shed_cost_check(seed);
    assert_eq!(
        (inbound, outbound),
        (2, 0),
        "a shed must cost exactly one request WRITE + one fetch READ in-bound"
    );

    let specs: Vec<(f64, bool)> = MULTS
        .iter()
        .flat_map(|&mult| [(mult, false), (mult, true)])
        .collect();
    let rows = cells(&specs, |spec| run_point(seed, spec));

    println!("# overload sweep: Jakiro goodput vs offered load, control off/on");
    println!(
        "# seed={seed} base_clients={BASE_CLIENTS} threads={SERVER_THREADS} \
         process={}us deadline={}us window={}ms",
        EXTRA_PROCESS.as_nanos() / 1_000,
        DEADLINE.as_nanos() / 1_000,
        WINDOW.as_nanos() / 1_000_000,
    );
    println!(
        "# shed_cost_check: inbound={inbound} outbound={outbound} (request WRITE + verdict READ)"
    );
    println!("mult,clients,control,mops,goodput_mops,p99_us,shed_rate");
    let mut exports = Vec::new();
    for row in &rows {
        let mode = if row.controlled { "on" } else { "off" };
        println!(
            "{:.1},{},{mode},{:.4},{:.4},{:.2},{:.4}",
            row.mult, row.clients, row.mops, row.goodput, row.p99_us, row.shed_rate
        );
        for (metric, value) in [
            ("goodput_kops", (row.goodput * 1e3) as u64),
            ("p99_ns", (row.p99_us * 1e3) as u64),
            ("shed_permille", (row.shed_rate * 1e3) as u64),
        ] {
            exports.push((
                format!("bench.overload.x{}.{mode}.{metric}", row.mult),
                value,
            ));
        }
    }

    // The headline claim: at 4× saturation the controlled system keeps
    // most of its peak goodput while the uncontrolled one collapses.
    let peak = rows.iter().map(|r| r.goodput).fold(0.0, f64::max);
    let at = |mult: f64, controlled: bool| {
        rows.iter()
            .find(|r| r.mult == mult && r.controlled == controlled)
            .expect("swept point")
            .goodput
    };
    let (on4, off4) = (at(4.0, true), at(4.0, false));
    assert!(
        on4 >= 0.70 * peak,
        "controlled goodput collapsed at 4x: {on4:.4} vs peak {peak:.4}"
    );
    assert!(
        off4 < 0.70 * peak,
        "uncontrolled goodput failed to degrade at 4x: {off4:.4} vs peak {peak:.4} — \
         the sweep no longer saturates the server"
    );

    let path = emit_bench_json("overload", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
