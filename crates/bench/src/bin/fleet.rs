//! Fleet run: 10⁵ logical clients over a fixed, small physical
//! footprint.
//!
//! The dedicated-connection designs the paper compares against pay QP
//! state, registered memory, and scan work **per client**. The mux
//! layer ([`RfpMux`](rfp_core::RfpMux)) claims all three are per
//! *physical connection* instead, with logical clients costing nothing
//! while idle. An idle logical client never reaches the simulation:
//! every call takes a fresh lease, so the traffic depends on the
//! drivers alone, and `spawn_fleet_kv` at `logical_clients = drivers`
//! and at 10⁵ is one run (pinned byte for byte in the kvstore
//! `systems` tests). One cell therefore stands for every fleet size.
//! It reports goodput, scan cost per served request, server memory and
//! QP endpoints, and asserts the QP budget (≤ 64) and lease churn.
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

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_core::{OverloadConfig, RfpConfig};
use rfp_kvstore::{
    spawn_fleet_kv, FleetConfig, FleetKv, SystemConfig, FLEET_PHYSICAL_CONNS, FLEET_POLLER_GROUPS,
    FLEET_TENANTS,
};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::WorkloadSpec;

/// Logical clients of the fleet cell (the paper-scale fleet).
const FLEET_SIZE: usize = 100_000;
/// Concurrently-active drivers of the fleet cell (fleet duty cycle:
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

fn run_window(sim: &mut Simulation, sys: &FleetKv) -> u64 {
    sim.run_for(WARMUP);
    sys.reset_measurements();
    sim.run_for(WINDOW);
    sys.stats.completed.get()
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
        drivers: 16,
        hot_tenant: hot.then_some(0),
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn_fleet_kv(&mut sim, &cfg, &fleet);
    run_window(&mut sim, &sys);
    sys.tenant_goodput()
}

/// The fleet cell's row: goodput, scan cost per request, and its
/// footprint columns.
struct FleetRow {
    logical_clients: usize,
    kops: f64,
    scan_slots_per_req: f64,
    footprint: [(&'static str, u64); 4],
}

/// Runs `logical_clients` over the fleet rig and checks the QP budget
/// and lease churn.
fn fleet_cell(seed: u64, &logical_clients: &usize) -> FleetRow {
    let fleet = FleetConfig {
        logical_clients,
        drivers: DRIVERS,
        hot_tenant: None,
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn_fleet_kv(&mut sim, &base_cfg(seed), &fleet);
    let done = run_window(&mut sim, &sys);
    assert!(done > 0, "the fleet made no progress");
    let scan_slots = sys.registry.snapshot().scalar("serve.scan.slots");
    let server_qp_endpoints = sys.server_machine.qp_endpoints();
    let evictions = sys.muxes.iter().map(|m| m.evictions()).sum();
    assert!(
        server_qp_endpoints <= 64,
        "QP budget blown: {server_qp_endpoints}"
    );
    // An oversubscribed fleet must actually exercise lease movement.
    assert!(evictions > 0, "the fleet must churn leases");
    FleetRow {
        logical_clients,
        kops: done as f64 / WINDOW.as_secs_f64() / 1e3,
        scan_slots_per_req: scan_slots.unwrap_or(0.0) / done as f64,
        footprint: [
            ("server_mr_bytes", sys.server_machine.registered_bytes()),
            ("server_qp_endpoints", server_qp_endpoints),
            ("leases", sys.muxes.iter().map(|m| m.leases()).sum()),
            ("evictions", evictions),
        ],
    }
}

fn main() {
    let seed = seed_arg();
    let fleet_rows = cells(&[FLEET_SIZE], |n| fleet_cell(seed, n));
    // Tenant isolation: the hot-free baseline, then tenant 0 flooding.
    let tenant_ok = cells(&[false, true], |&hot| isolation_run(seed, hot));
    let (baseline, with_hot) = (&tenant_ok[0], &tenant_ok[1]);

    println!("# fleet: {FLEET_SIZE} logical clients over {FLEET_PHYSICAL_CONNS} physical conns, {FLEET_POLLER_GROUPS} poller groups, {FLEET_TENANTS} tenants");
    println!(
        "# seed={seed} drivers={DRIVERS} warmup={}ms window={}ms",
        WARMUP.as_nanos() / 1_000_000,
        WINDOW.as_nanos() / 1_000_000,
    );
    println!("n,kops,scan_slots_per_req,server_mr_bytes,server_qp_endpoints,leases,evictions");
    let mut exports = Vec::new();
    for row in &fleet_rows {
        let n = row.logical_clients;
        let footprint: Vec<String> = row.footprint.iter().map(|(_, v)| v.to_string()).collect();
        let (kops, scan) = (row.kops, row.scan_slots_per_req);
        println!("{n},{kops:.1},{scan:.2},{}", footprint.join(","));
        let rates = [
            ("ops", (kops * 1e3) as u64),
            ("scan_slots_per_req_milli", (scan * 1e3) as u64),
        ];
        for (metric, value) in rates.into_iter().chain(row.footprint) {
            exports.push((format!("bench.fleet.n{n}.{metric}"), value));
        }
    }

    // Hot-tenant isolation: per-tenant credit domains keep every cold
    // tenant within 20% of its hot-free goodput.
    println!("# hot-tenant isolation: tenant 0 floods, 1..{FLEET_TENANTS} stay cold");
    println!("tenant,baseline_ok,hot_ok,ratio_permille");
    let mut min_ratio = u64::MAX;
    for t in 0..FLEET_TENANTS as usize {
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
    exports.extend(
        [
            ("cold_ratio_permille_min", min_ratio),
            ("hot_ok", with_hot[0]),
            ("cold_ok_total", with_hot[1..].iter().sum::<u64>()),
        ]
        .map(|(metric, value)| (format!("bench.fleet.hot.{metric}"), value)),
    );

    let path = emit_bench_json("fleet", exports).expect("write BENCH_fleet.json");
    println!("# wrote {}", path.display());
    println!("# all fleet-scaling assertions passed");
}
