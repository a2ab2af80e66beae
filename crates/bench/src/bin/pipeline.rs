//! Pipelined-window sweep: single-client throughput vs ring window `W`.
//!
//! One client, one connection, one server thread. The client drives
//! batches of echo calls through [`RfpClient::call_pipelined`], which
//! keeps up to `W` calls outstanding in the connection's slot ring,
//! posts their request WRITEs and fetch READs without waiting — the
//! due fetches of a round share **one doorbell ring**
//! (`post_read_batch`) — and waits only for the older half of what is
//! posted. The sweep runs `W ∈ {1, 2, 4, 8, 16}` at one payload below
//! the server NIC's in-bound knee, and `W ≤ 4` at one above it (from
//! `W = 8` the client's out-bound engine binds and the two payloads
//! run alike), and reports:
//!
//! - throughput (Mops) — the pipelining win: request WRITEs and fetch
//!   READs of `W` calls share their wire round trips, up to the client
//!   out-bound engine's two ops per call;
//! - fetch READs per doorbell ring — how full the batches actually are;
//! - charged client issue cost per fetch READ — `issue_cpu` is paid per
//!   *doorbell*, not per READ, so it drops toward `issue_cpu / (W/2)`.
//!
//! Also pins the serve loop's adaptive idle backoff
//! ([`IdlePolicy::adaptive`]): at low load it cuts the server thread's
//! poll burn by an order of magnitude, at saturation it costs nothing.
//!
//! `W = 1` must reproduce the sequential client exactly; the sweep's
//! first row doubles as that regression anchor (every READ pays its own
//! doorbell: issue per READ = the profile's full `issue_cpu`).
//!
//! ```text
//! cargo run --release -p rfp-bench --bin pipeline [seed]
//! ```

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_core::{connect, serve_loop, IdlePolicy, RfpClient, RfpConfig, REQ_HDR, RESP_HDR};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{SimSpan, Simulation};

/// Request/response payload sizes swept (bytes), each with its ring
/// windows (powers of two; 1 = the sequential layout): the 32 B echo
/// under the in-bound knee and 512 B over it. Every request under the
/// knee costs the server NIC the same in-bound op, so one cell stands
/// for all of them. From `W = 8` the client's out-bound engine binds
/// and 512 B runs exactly as 32 B (its 102 ns of line time hide under
/// the 474 ns out-bound floor), so 512 B stops at `W = 4`.
const CELLS: [(usize, &[usize]); 2] = [(32, &[1, 2, 4, 8, 16]), (512, &[1, 2, 4])];
/// Calls handed to each `call_pipelined` invocation: large enough that
/// the ring stays full for many refills per batch.
const BATCH: usize = 64;
/// Warm-up before, and length of, each measurement window.
const WARMUP: SimSpan = SimSpan::millis(1);
const WINDOW: SimSpan = SimSpan::millis(10);
/// Client-side NIC issue cost from the paper testbed profile (ns); the
/// per-READ charge at `W = 1` and the numerator of the doorbell math.
const ISSUE_CPU_NS: f64 = 200.0;

struct Row {
    window: usize,
    payload: usize,
    mops: f64,
    reads_per_doorbell: f64,
    issue_per_read_ns: f64,
    /// Executor events (task polls + timer entries fired) and calls of
    /// the measurement window, and the host time they took.
    events: u64,
    calls: u64,
    host: Duration,
}

struct Rig {
    sim: Simulation,
    client: Rc<RfpClient>,
    client_thread: Rc<ThreadCtx>,
    server_thread: Rc<ThreadCtx>,
}

/// One client machine, one server machine, one connection with ring
/// window `w`, one echoing server thread paced by `idle`.
fn rig(seed: u64, w: usize, payload: usize, idle: IdlePolicy) -> Rig {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        window: w,
        // Whole response (header + echoed payload) in one READ: the
        // sweep measures pipelining, not extra-read amplification.
        fetch_size: RESP_HDR + payload,
        enable_mode_switch: false,
        ..RfpConfig::default()
    };
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let server_thread = sm.thread("server");
    sim.spawn(serve_loop(
        Rc::clone(&server_thread),
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        idle,
    ));
    Rig {
        sim,
        client: Rc::new(client),
        client_thread: cm.thread("client"),
        server_thread,
    }
}

/// Closed-loop pipelined echo sweep point; returns `(row, mops)` with
/// the row's doorbell math filled in from the client's NIC-side stats.
fn run_point(seed: u64, w: usize, payload: usize, idle: IdlePolicy) -> Row {
    let r = rig(seed, w, payload, idle);
    let mut sim = r.sim;
    let (client, ct) = (Rc::clone(&r.client), Rc::clone(&r.client_thread));
    sim.spawn(async move {
        let reqs: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| {
                let mut v = vec![0u8; payload];
                v[0] = i as u8;
                v
            })
            .collect();
        loop {
            let outs = client.call_pipelined(&ct, &reqs).await;
            for (req, out) in reqs.iter().zip(&outs) {
                assert_eq!(&out.data, req, "echo mismatch");
            }
        }
    });
    sim.run_for(WARMUP);
    r.client.stats().reset();
    let t0 = sim.now();
    let (ex0, host0) = (sim.stats(), Instant::now());
    sim.run_for(WINDOW);
    let (ex, host) = (sim.stats(), host0.elapsed());
    let secs = (sim.now() - t0).as_secs_f64();

    let st = r.client.stats();
    let (doorbells, batched, single) = (st.doorbells(), st.doorbell_reads(), st.single_reads());
    let reads = batched + single;
    Row {
        window: w,
        payload,
        mops: st.calls() as f64 / secs / 1e6,
        reads_per_doorbell: if doorbells == 0 {
            1.0
        } else {
            batched as f64 / doorbells as f64
        },
        issue_per_read_ns: ISSUE_CPU_NS * (doorbells + single) as f64 / reads.max(1) as f64,
        events: (ex.polls - ex0.polls) + (ex.timers_fired - ex0.timers_fired),
        calls: st.calls(),
        host,
    }
}

/// Server-thread poll burn at low load (one call every 100 µs): the
/// CPU-utilisation cost of scanning an almost-always-empty ring, with
/// and without adaptive idle backoff.
fn idle_burn(seed: u64, idle: IdlePolicy) -> f64 {
    let r = rig(seed, 1, 32, idle);
    let mut sim = r.sim;
    let (client, ct) = (Rc::clone(&r.client), Rc::clone(&r.client_thread));
    let served = Rc::new(Cell::new(0u64));
    let served_in = Rc::clone(&served);
    sim.spawn(async move {
        loop {
            ct.idle_wait(ct.handle().sleep(SimSpan::micros(100))).await;
            let out = client.call(&ct, b"ping").await;
            assert_eq!(out.data, b"ping");
            served_in.set(served_in.get() + 1);
        }
    });
    sim.run_for(WARMUP);
    r.server_thread.reset_utilization();
    sim.run_for(WINDOW);
    assert!(served.get() > 0, "low-load client made no calls");
    r.server_thread.utilization()
}

fn main() {
    let seed = seed_arg();

    let knee = ClusterProfile::paper_testbed().nic.inbound_knee_bytes();
    let [(below, _), (above, _)] = CELLS;
    assert!(
        below + REQ_HDR < knee && knee < above + REQ_HDR,
        "payload cells {below} B and {above} B must straddle the {knee} B in-bound knee"
    );

    let specs: Vec<(usize, usize)> = CELLS
        .iter()
        .flat_map(|&(payload, windows)| windows.iter().map(move |&w| (payload, w)))
        .collect();
    let rows = cells(&specs, |&(payload, w)| {
        run_point(seed, w, payload, IdlePolicy::fixed(SimSpan::nanos(100)))
    });

    println!("# pipeline sweep: single-client throughput vs ring window W");
    println!(
        "# seed={seed} batch={BATCH} warmup={}ms window={}ms issue_cpu={}ns",
        WARMUP.as_nanos() / 1_000_000,
        WINDOW.as_nanos() / 1_000_000,
        ISSUE_CPU_NS,
    );
    println!("window,payload,mops,reads_per_doorbell,issue_per_read_ns");
    let mut exports = Vec::new();
    for row in &rows {
        println!(
            "{},{},{:.4},{:.2},{:.2}",
            row.window, row.payload, row.mops, row.reads_per_doorbell, row.issue_per_read_ns
        );
        let key = format!("bench.pipeline.w{}.p{}", row.window, row.payload);
        for (metric, value) in [
            ("kops", (row.mops * 1e3) as u64),
            (
                "reads_per_doorbell_milli",
                (row.reads_per_doorbell * 1e3) as u64,
            ),
            ("issue_per_read_ps", (row.issue_per_read_ns * 1e3) as u64),
        ] {
            exports.push((format!("{key}.{metric}"), value));
        }
    }

    // Host cost of the sweep, on stderr: stdout and the bench json hold
    // only seed-determined values. Fewer events per call is the lever,
    // so events/s alone can fall as the sweep gets faster: calls per
    // wall-clock second is the number that says so.
    let events: u64 = rows.iter().map(|r| r.events).sum();
    let calls: u64 = rows.iter().map(|r| r.calls).sum();
    let host: Duration = rows.iter().map(|r| r.host).sum();
    eprintln!(
        "# executor: {events} events (polls + timers) for {calls} calls in \
         {:.3} s of measured windows = {:.2} Mevents/s, {:.3} Mcalls/s",
        host.as_secs_f64(),
        events as f64 / host.as_secs_f64() / 1e6,
        calls as f64 / host.as_secs_f64() / 1e6
    );

    let at = |w: usize, payload: usize| {
        rows.iter()
            .find(|r| r.window == w && r.payload == payload)
            .expect("swept point")
    };

    // Headline claim: pipelining at least doubles single-client 32 B
    // throughput once the window covers the wire round trip (W ≥ 8).
    let base = at(1, 32).mops;
    for w in [8, 16] {
        let mops = at(w, 32).mops;
        assert!(
            mops >= 2.0 * base,
            "W={w} failed the 2x throughput bar at 32B: {mops:.4} vs {base:.4} Mops"
        );
    }

    // The W = 1 anchor is the sequential client: every fetch READ pays
    // its own doorbell, i.e. the profile's full issue_cpu.
    for &(payload, windows) in &CELLS {
        let anchor = at(1, payload);
        assert_eq!(anchor.issue_per_read_ns, ISSUE_CPU_NS);
        assert_eq!(anchor.reads_per_doorbell, 1.0);
        // Doorbell batching: charged issue cost per READ falls
        // monotonically as the window widens...
        for pair in windows.windows(2) {
            let (lo, hi) = (at(pair[0], payload), at(pair[1], payload));
            assert!(
                hi.issue_per_read_ns <= lo.issue_per_read_ns,
                "issue/READ rose from W={} ({:.2}ns) to W={} ({:.2}ns) at {payload}B",
                lo.window,
                lo.issue_per_read_ns,
                hi.window,
                hi.issue_per_read_ns
            );
        }
    }
    // ...and by W = 16 most READs ride a shared ring.
    let wide = at(16, below);
    assert!(
        wide.issue_per_read_ns <= 0.25 * ISSUE_CPU_NS,
        "W=16 issue/READ at {below}B is {:.2}ns, expected <= {:.2}ns",
        wide.issue_per_read_ns,
        0.25 * ISSUE_CPU_NS
    );

    // Adaptive idle backoff: near-free at saturation, an order of
    // magnitude cheaper at low load.
    let adaptive = IdlePolicy::adaptive(SimSpan::nanos(100), SimSpan::micros(10));
    let sat_fixed = at(8, 32).mops;
    let sat_adaptive = run_point(seed, 8, 32, adaptive).mops;
    assert!(
        sat_adaptive >= 0.90 * sat_fixed,
        "adaptive backoff hurt saturated throughput: {sat_adaptive:.4} vs {sat_fixed:.4} Mops"
    );
    let burn_fixed = idle_burn(seed, IdlePolicy::fixed(SimSpan::nanos(100)));
    let burn_adaptive = idle_burn(seed, adaptive);
    assert!(
        burn_fixed > 0.5,
        "fixed-spin serve loop should busy-poll at low load: utilization {burn_fixed:.3}"
    );
    assert!(
        burn_adaptive < 0.2 * burn_fixed,
        "adaptive backoff failed to cut poll burn: {burn_adaptive:.3} vs fixed {burn_fixed:.3}"
    );
    println!(
        "# idle backoff: low-load server utilization fixed={burn_fixed:.3} \
         adaptive={burn_adaptive:.3}; saturated mops fixed={sat_fixed:.4} \
         adaptive={sat_adaptive:.4}"
    );
    for (metric, value) in [
        ("idle_util_fixed_milli", (burn_fixed * 1e3) as u64),
        ("idle_util_adaptive_milli", (burn_adaptive * 1e3) as u64),
        ("sat_adaptive_kops", (sat_adaptive * 1e3) as u64),
    ] {
        exports.push((format!("bench.pipeline.{metric}"), value));
    }
    let path = emit_bench_json("pipeline", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
