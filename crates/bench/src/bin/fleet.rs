//! Fleet-scaling sweep: logical clients 10² → 10⁵ over a fixed, small
//! physical footprint.
//!
//! The dedicated-connection designs the paper compares against pay QP
//! state, registered memory, and scan work **per client**. The mux
//! layer ([`RfpMux`](rfp_core::RfpMux)) claims all three are per
//! *physical connection* instead, with logical clients costing nothing
//! while idle. This sweep measures exactly that:
//!
//! - **server memory** (registered bytes, MRs) and **QP endpoints**
//!   must stay *flat* — zero marginal cost per added logical client —
//!   with QPs bounded by the ≤ 64 budget;
//! - **scan cost per served request** (`serve.scan.slots` per
//!   completed call) must stay flat: the sharded poller groups walk
//!   `M` rings regardless of fleet size;
//! - **goodput** must hold a flat plateau across the whole sweep.
//!
//! A second scenario checks tenant isolation: one tenant turns hot
//! (flooding drivers, zero think time) while seven stay cold. The
//! per-tenant admission domains ([`TenantCredits`](rfp_core::TenantCredits))
//! must keep every cold tenant within 20% of the goodput it saw in the
//! hot-free baseline run.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin fleet [seed]
//! ```

use rfp_bench::telemetry::{bench_registry, emit_bench_json};
use rfp_core::{OverloadConfig, RfpConfig};
use rfp_kvstore::{spawn_fleet_kv, FleetConfig, FleetKv, SystemConfig};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::WorkloadSpec;

/// Logical-client counts swept (the paper-scale fleet axis).
const FLEET_SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];
/// Physical connections — the entire server-side footprint.
const PHYSICAL: usize = 24;
/// Server poller groups (disjoint connection shards).
const GROUPS: usize = 4;
/// Tenants in every scenario.
const TENANTS: u32 = 8;
/// Concurrently-active drivers in the sweep (fleet duty cycle:
/// `drivers ≪ logical_clients`).
const DRIVERS: usize = 32;
const WARMUP: SimSpan = SimSpan::millis(2);
const WINDOW: SimSpan = SimSpan::millis(10);

fn base_cfg(seed: u64) -> SystemConfig {
    let base = SystemConfig::default();
    SystemConfig {
        spec: WorkloadSpec {
            key_count: 4_000,
            ..WorkloadSpec::paper_default()
        },
        rfp: RfpConfig {
            overload: Some(OverloadConfig {
                ..OverloadConfig::default()
            }),
            ..base.rfp
        },
        seed,
        ..base
    }
}

struct Point {
    n: usize,
    kops: f64,
    scan_slots_per_req: f64,
    server_mr_bytes: u64,
    server_qp_endpoints: u64,
    leases: u64,
    evictions: u64,
}

fn run_window(sim: &mut Simulation, sys: &FleetKv) -> u64 {
    sim.run_for(WARMUP);
    sys.reset_measurements();
    sim.run_for(WINDOW);
    sys.stats.completed.get()
}

fn sweep_point(seed: u64, n: usize) -> Point {
    let cfg = base_cfg(seed);
    let fleet = FleetConfig {
        logical_clients: n,
        physical_conns: PHYSICAL,
        poller_groups: GROUPS,
        tenants: TENANTS,
        drivers: DRIVERS,
        hot_tenant: None,
        hot_drivers: 0,
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn_fleet_kv(&mut sim, &cfg, &fleet);
    let done = run_window(&mut sim, &sys);
    assert!(done > 0, "fleet of {n} made no progress");
    let snap = sys.registry.snapshot();
    let scan_slots = snap.scalar("serve.scan.slots").unwrap_or(0.0);
    Point {
        n,
        kops: done as f64 / WINDOW.as_secs_f64() / 1e3,
        scan_slots_per_req: scan_slots / done as f64,
        server_mr_bytes: sys.server_machine.registered_bytes(),
        server_qp_endpoints: sys.server_machine.qp_endpoints(),
        leases: sys.muxes.iter().map(|m| m.leases()).sum(),
        evictions: sys.muxes.iter().map(|m| m.evictions()).sum(),
    }
}

/// Per-tenant goodput of one isolation run; `hot` adds flooding
/// drivers on tenant 0 while cold tenants keep their think time.
fn isolation_run(seed: u64, hot: bool) -> Vec<u64> {
    let mut cfg = base_cfg(seed);
    // Cold tenants offer moderate load so the baseline server has
    // headroom; isolation is then purely the admission layer's job.
    cfg.think_time = SimSpan::micros(20);
    let fleet = FleetConfig {
        logical_clients: 1_000,
        physical_conns: PHYSICAL,
        poller_groups: GROUPS,
        tenants: TENANTS,
        drivers: 16,
        hot_tenant: hot.then_some(0),
        hot_drivers: 8,
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn_fleet_kv(&mut sim, &cfg, &fleet);
    run_window(&mut sim, &sys);
    sys.tenant_goodput()
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse::<u64>().expect("seed must be a u64"))
        .unwrap_or(42);

    println!("# fleet sweep: logical clients over {PHYSICAL} physical conns, {GROUPS} poller groups, {TENANTS} tenants");
    println!(
        "# seed={seed} drivers={DRIVERS} warmup={}ms window={}ms",
        WARMUP.as_nanos() / 1_000_000,
        WINDOW.as_nanos() / 1_000_000,
    );
    println!("n,kops,scan_slots_per_req,server_mr_bytes,server_qp_endpoints,leases,evictions");

    let bench = bench_registry();
    let mut points = Vec::new();
    for &n in &FLEET_SIZES {
        let p = sweep_point(seed, n);
        println!(
            "{},{:.1},{:.2},{},{},{},{}",
            p.n,
            p.kops,
            p.scan_slots_per_req,
            p.server_mr_bytes,
            p.server_qp_endpoints,
            p.leases,
            p.evictions
        );
        for (metric, value) in [
            ("ops", (p.kops * 1e3) as u64),
            (
                "scan_slots_per_req_milli",
                (p.scan_slots_per_req * 1e3) as u64,
            ),
            ("server_mr_bytes", p.server_mr_bytes),
            ("server_qp_endpoints", p.server_qp_endpoints),
            ("leases", p.leases),
            ("evictions", p.evictions),
        ] {
            bench
                .counter(&format!("bench.fleet.n{n}.{metric}"))
                .add(value);
        }
        points.push(p);
    }

    // Flat server footprint: zero marginal memory or QP state per added
    // logical client (the whole point of leasing slot rings).
    let first = &points[0];
    for p in &points[1..] {
        assert_eq!(
            p.server_mr_bytes, first.server_mr_bytes,
            "server registered memory must not grow with logical clients"
        );
        assert_eq!(
            p.server_qp_endpoints, first.server_qp_endpoints,
            "server QP state must not grow with logical clients"
        );
    }
    assert!(
        first.server_qp_endpoints <= 64,
        "QP budget blown: {}",
        first.server_qp_endpoints
    );

    // Flat scan cost per served request: a 1000× larger fleet may not
    // cost the pollers more than 25% extra scan work per request.
    let scan_lo = points
        .iter()
        .map(|p| p.scan_slots_per_req)
        .fold(f64::MAX, f64::min);
    let scan_hi = points
        .iter()
        .map(|p| p.scan_slots_per_req)
        .fold(0.0, f64::max);
    assert!(
        scan_hi <= scan_lo * 1.25,
        "scan cost per request must stay flat: {scan_lo:.2}..{scan_hi:.2}"
    );

    // Flat goodput plateau across the whole sweep.
    let kops_lo = points.iter().map(|p| p.kops).fold(f64::MAX, f64::min);
    let kops_hi = points.iter().map(|p| p.kops).fold(0.0, f64::max);
    assert!(
        kops_hi <= kops_lo * 1.25,
        "goodput must plateau across fleet sizes: {kops_lo:.1}..{kops_hi:.1} kops"
    );

    // Oversubscribed sweeps must actually exercise lease movement.
    assert!(
        points.iter().all(|p| p.evictions > 0),
        "sweep points must churn leases"
    );

    // Hot-tenant isolation: per-tenant credit domains keep every cold
    // tenant within 20% of its hot-free goodput.
    println!("# hot-tenant isolation: tenant 0 floods, 1..{TENANTS} stay cold");
    println!("tenant,baseline_ok,hot_ok,ratio_permille");
    let baseline = isolation_run(seed, false);
    let with_hot = isolation_run(seed, true);
    let mut min_ratio = u64::MAX;
    for t in 0..TENANTS as usize {
        let ratio_permille = with_hot[t] * 1000 / baseline[t].max(1);
        println!("{t},{},{},{ratio_permille}", baseline[t], with_hot[t]);
        if t > 0 {
            min_ratio = min_ratio.min(ratio_permille);
            assert!(
                with_hot[t] * 5 >= baseline[t] * 4,
                "cold tenant {t} lost more than 20% to the hot tenant: \
                 {} vs baseline {}",
                with_hot[t],
                baseline[t]
            );
        }
    }
    assert!(
        with_hot[0] > baseline[0],
        "the hot tenant's extra drivers must add goodput ({} vs {})",
        with_hot[0],
        baseline[0]
    );
    bench
        .counter("bench.fleet.hot.cold_ratio_permille_min")
        .add(min_ratio);
    bench.counter("bench.fleet.hot.hot_ok").add(with_hot[0]);
    bench
        .counter("bench.fleet.hot.cold_ok_total")
        .add(with_hot[1..].iter().sum::<u64>());

    let path = emit_bench_json("fleet").expect("write BENCH_fleet.json");
    println!("# wrote {}", path.display());
    println!("# all fleet-scaling assertions passed");
}
