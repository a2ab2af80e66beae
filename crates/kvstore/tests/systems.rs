//! Whole-system validation: the four KV systems running on the paper's
//! cluster shape must reproduce the paper's ordering and ballpark
//! numbers (Jakiro ≈ 5.5 MOPS, ServerReply ≈ 2.1 MOPS, RDMA-Memcached
//! CPU-bound below that, Pilaf amplified GETs).

use rfp_kvstore::{
    spawn_jakiro, spawn_memcached, spawn_pilaf, spawn_server_reply_kv, KvSystem, SystemConfig,
};
use std::rc::Rc;

use rfp_simnet::{Histogram, MetricValue, SimSpan, Simulation};
use rfp_workload::{OpMix, WorkloadSpec};

/// Runs a spawned system through warm-up and a measurement window;
/// returns (system, MOPS).
fn measure(
    spawn: impl FnOnce(&mut Simulation, &SystemConfig) -> KvSystem,
    cfg: &SystemConfig,
    window: SimSpan,
) -> (KvSystem, f64) {
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn(&mut sim, cfg);
    sim.run_for(SimSpan::millis(1)); // warm-up
    sys.reset_measurements();
    sim.run_for(window);
    let mops = sys.stats.completed.get() as f64 / window.as_secs_f64() / 1e6;
    (sys, mops)
}

fn small_cfg() -> SystemConfig {
    SystemConfig {
        spec: WorkloadSpec {
            key_count: 2_000,
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    }
}

#[test]
fn jakiro_correctness_and_low_miss_rate() {
    let cfg = SystemConfig {
        client_machines: 2,
        clients_per_machine: 2,
        ..small_cfg()
    };
    let (sys, mops) = measure(spawn_jakiro, &cfg, SimSpan::millis(3));
    let s = &sys.stats;
    assert!(
        s.completed.get() > 500,
        "too few ops: {}",
        s.completed.get()
    );
    assert_eq!(s.completed.get(), s.gets.get() + s.puts.get());
    // Everything is preloaded; misses only from rare LRU evictions.
    let miss_frac = s.misses.get() as f64 / s.gets.get().max(1) as f64;
    assert!(miss_frac < 0.05, "miss fraction {miss_frac}");
    assert!(mops > 0.5, "4 clients should push >0.5 MOPS, got {mops:.2}");
    // Latency in the microseconds range.
    let p50 = s.latency.percentile(50.0).unwrap();
    assert!(
        (2_000..20_000).contains(&p50.as_nanos()),
        "odd median latency {p50}"
    );
}

/// Checks every client's exported `rfp.client.<i>.latency` against its
/// connections, one per server shard (`rfp_clients` is seat-major):
/// they all record into that one cell, so its count is the sum of
/// their calls and its mean their calls' weighted mean, and the
/// exported p50 / p99 / max are the cell's. All the cells together hold
/// exactly the ledger's `kv.latency` samples.
fn check_client_latency(sys: &KvSystem, shards: usize) {
    let exported = sys.registry.snapshot().values;
    let all = Histogram::new();
    for (i, conns) in sys.rfp_clients.chunks(shards).enumerate() {
        let cell = sys.registry.histogram(&format!("rfp.client.{i}.latency"));
        let (mut calls, mut weighted_ns) = (0, 0);
        for conn in conns {
            let latency = &conn.stats().latency;
            let own = latency.samples().expect("telemetry keeps samples");
            assert!(Rc::ptr_eq(own, &cell), "client {i}: a cell per connection");
            let n = conn.stats().calls();
            assert!(n > 0, "client {i}: an idle connection proves nothing");
            calls += n;
            weighted_ns += n * latency.mean().unwrap().as_nanos();
        }
        assert_eq!(cell.len() as u64, calls, "client {i}: count");
        let ns = |p: f64| cell.percentile(p).unwrap().as_nanos();
        let MetricValue::Histogram {
            count,
            mean_ns,
            p50_ns,
            p99_ns,
            max_ns,
            ..
        } = exported[&format!("rfp.client.{i}.latency")]
        else {
            panic!("client {i}: latency is not a histogram");
        };
        assert_eq!(count, calls, "client {i}: exported count");
        // Each connection's mean is floored, so theirs lag by < 1 ns.
        let mean = weighted_ns / calls;
        assert!((mean..=mean + 1).contains(&mean_ns), "client {i}: mean");
        assert_eq!(mean_ns, cell.mean().unwrap().as_nanos(), "client {i}: mean");
        assert_eq!(
            (p50_ns, p99_ns),
            (ns(50.0), ns(99.0)),
            "client {i}: p50, p99"
        );
        assert_eq!(max_ns, cell.max().unwrap().as_nanos(), "client {i}: max");
        all.absorb(&cell);
    }
    let ledger = &sys.stats.latency;
    assert_eq!(all.len(), ledger.len());
    assert_eq!(all.mean(), ledger.mean());
    for p in [50.0, 99.0, 100.0] {
        assert_eq!(all.percentile(p), ledger.percentile(p), "p{p}");
    }
}

#[test]
fn client_latency_exports_one_cell_per_client() {
    let cfg = SystemConfig {
        server_threads: 3,
        client_machines: 2,
        clients_per_machine: 2,
        ..small_cfg()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_jakiro(&mut sim, &cfg);
    assert_eq!(sys.rfp_clients.len(), 4 * cfg.server_threads);
    sim.run_for(SimSpan::millis(1));
    check_client_latency(&sys, cfg.server_threads);
    sys.reset_measurements();
    sim.run_for(SimSpan::millis(1));
    check_client_latency(&sys, cfg.server_threads);
}

#[test]
fn jakiro_peak_matches_paper_ballpark() {
    // Paper §4.4.1: 6 server threads, 35 clients, 32 B values, uniform
    // 95% GET ⇒ 5.5 MOPS, ≈ half the NIC's in-bound peak.
    let cfg = small_cfg();
    let (sys, mops) = measure(spawn_jakiro, &cfg, SimSpan::millis(4));
    assert!(
        (4.6..6.2).contains(&mops),
        "Jakiro peak should be ≈5.5 MOPS, got {mops:.2}"
    );
    // §4.3: ≈2.005 server in-bound ops per request.
    let rounds = sys.inbound_ops_per_request();
    assert!(
        (1.9..2.4).contains(&rounds),
        "in-bound ops/request should be ≈2.005, got {rounds:.3}"
    );
}

#[test]
fn server_reply_is_outbound_bound() {
    let cfg = small_cfg();
    let (sys, mops) = measure(spawn_server_reply_kv, &cfg, SimSpan::millis(4));
    assert!(
        (1.5..2.2).contains(&mops),
        "ServerReply should cap near 2.1 MOPS, got {mops:.2}"
    );
    // The server really pushes every response out-bound.
    let out = sys.server_machine.nic().counters().outbound_ops;
    assert!(
        out as f64 >= 0.95 * sys.stats.completed.get() as f64,
        "out-bound ops {out} vs {} requests",
        sys.stats.completed.get()
    );
}

#[test]
fn memcached_is_cpu_bound_below_server_reply() {
    let cfg = SystemConfig {
        server_threads: 16,
        ..small_cfg()
    };
    let (sys, mops) = measure(spawn_memcached, &cfg, SimSpan::millis(4));
    assert!(
        (0.8..1.7).contains(&mops),
        "RDMA-Memcached should be CPU-bound ≈1.3 MOPS, got {mops:.2}"
    );
    // NIC out-bound is NOT saturated (CPU is the bottleneck).
    let out = sys.server_machine.nic().counters().outbound_ops;
    let out_mops = out as f64 / 0.004 / 1e6;
    assert!(
        out_mops < 2.0,
        "out-bound should be under-utilised: {out_mops:.2}"
    );
}

#[test]
fn paper_ordering_jakiro_over_server_reply_over_memcached() {
    let cfg = small_cfg();
    let (_, jakiro) = measure(spawn_jakiro, &cfg, SimSpan::millis(3));
    let (_, sr) = measure(spawn_server_reply_kv, &cfg, SimSpan::millis(3));
    let mcd_cfg = SystemConfig {
        server_threads: 16,
        ..small_cfg()
    };
    let (_, mcd) = measure(spawn_memcached, &mcd_cfg, SimSpan::millis(3));
    assert!(
        jakiro > 1.6 * sr,
        "Jakiro {jakiro:.2} vs ServerReply {sr:.2}"
    );
    assert!(sr > mcd, "ServerReply {sr:.2} vs Memcached {mcd:.2}");
    // Figure 12's headline: ≈160% improvement of Jakiro over ServerReply.
    let gain = jakiro / sr;
    assert!((1.8..3.5).contains(&gain), "gain {gain:.2}");
}

#[test]
fn pilaf_gets_are_amplified_and_slower_than_jakiro() {
    // Figure 11's setting: 50% GET. Pilaf GETs pay multiple one-sided
    // reads; PUTs take the server-reply path.
    let cfg = SystemConfig {
        spec: WorkloadSpec {
            key_count: 2_000,
            mix: OpMix::BALANCED,
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    };
    let (pilaf_sys, pilaf) = measure(spawn_pilaf, &cfg, SimSpan::millis(4));
    let (_, jakiro) = measure(spawn_jakiro, &cfg, SimSpan::millis(4));
    let ops_per_get =
        pilaf_sys.stats.bypass_ops.get() as f64 / pilaf_sys.stats.gets.get().max(1) as f64;
    assert!(
        (1.8..4.0).contains(&ops_per_get),
        "bypass GETs should take 2-4 one-sided ops (Pilaf: 3.2), got {ops_per_get:.2}"
    );
    assert!(
        jakiro > 1.5 * pilaf,
        "Jakiro {jakiro:.2} should clearly beat Pilaf {pilaf:.2} at 50% GET"
    );
}

#[test]
fn jakiro_throughput_holds_across_get_ratios() {
    // Figure 16: Jakiro's peak is mix-insensitive (server CPU is not
    // the bottleneck and EREW needs no write coordination).
    let mut results = Vec::new();
    for mix in [
        OpMix::READ_INTENSIVE,
        OpMix::BALANCED,
        OpMix::WRITE_INTENSIVE,
    ] {
        let cfg = SystemConfig {
            spec: WorkloadSpec {
                key_count: 2_000,
                mix,
                ..WorkloadSpec::paper_default()
            },
            ..SystemConfig::default()
        };
        let (_, mops) = measure(spawn_jakiro, &cfg, SimSpan::millis(3));
        results.push(mops);
    }
    let max = results.iter().cloned().fold(f64::MIN, f64::max);
    let min = results.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        min > 0.85 * max,
        "Jakiro should be flat across mixes: {results:?}"
    );
}

#[test]
fn erew_load_imbalance_under_skew_is_bounded() {
    // §4.4.3: "Although the most popular key is about 10^5 times more
    // often than the average key..., the load of the most loaded server
    // thread is <25% more than that of the thread with the least load,
    // in the case of launching six server threads." The paper's key
    // space is 128M; with a larger simulated population the head key's
    // share shrinks toward the paper's regime, so the imbalance bound
    // holds.
    let cfg = SystemConfig {
        spec: WorkloadSpec {
            key_count: 200_000,
            ..WorkloadSpec::paper_skewed()
        },
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_jakiro(&mut sim, &cfg);
    sim.run_for(SimSpan::millis(1));
    sys.reset_measurements();
    sim.run_for(SimSpan::millis(4));
    let served = sys.served_per_thread();
    assert_eq!(served.len(), 6);
    let max = *served.iter().max().expect("6 threads");
    let min = *served.iter().min().expect("6 threads");
    assert!(min > 0, "every thread must serve: {served:?}");
    let imbalance = max as f64 / min as f64;
    assert!(
        imbalance < 1.6,
        "EREW imbalance under Zipf(.99) should be modest (paper: <1.25 \
         at 128M keys): {imbalance:.2} from {served:?}"
    );
    // And the imbalance does not cost throughput: the NIC is still the
    // bottleneck (cross-checked by jakiro peak tests above).
}

#[test]
fn fleet_mux_serves_many_logicals_over_few_conns() {
    use rfp_core::{OverloadConfig, RfpConfig};
    use rfp_kvstore::{spawn_fleet_kv, FleetConfig, FLEET_PHYSICAL_CONNS};

    let cfg = SystemConfig {
        rfp: RfpConfig {
            overload: Some(OverloadConfig {
                ..OverloadConfig::default()
            }),
            ..SystemConfig::default().rfp
        },
        ..small_cfg()
    };
    let fleet = FleetConfig {
        logical_clients: 400,
        drivers: 24,
        hot_tenant: None,
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_fleet_kv(&mut sim, &cfg, &fleet);
    sim.run_for(SimSpan::millis(2));
    sys.reset_measurements();
    sim.run_for(SimSpan::millis(8));

    let done = sys.stats.completed.get();
    assert!(done > 1_000, "fleet must make progress: {done}");
    // 400 logical clients rode the fleet's physical conns over one QP
    // pair per client machine.
    let logical: u32 = sys.muxes.iter().map(|m| m.logical_count()).sum();
    assert_eq!(logical, 400);
    assert!(sys.server_machine.qp_endpoints() <= 2 * sys.muxes.len() as u64);
    let physical: usize = sys.muxes.iter().map(|m| m.physical()).sum();
    assert_eq!(physical, FLEET_PHYSICAL_CONNS);
    // Per-tenant accounting adds up and every tenant progressed.
    let per_tenant = sys.tenant_goodput();
    assert_eq!(per_tenant.iter().sum::<u64>(), done);
    for (t, &g) in per_tenant.iter().enumerate() {
        assert!(g > 0, "tenant {t} starved: {per_tenant:?}");
    }
    // Scan accounting flowed from the tenant-aware poller groups.
    let snap = sys.registry.snapshot();
    let scans = snap.scalar("serve.scan.conns").unwrap_or(0.0);
    assert!(scans > 0.0, "poller groups must book scan work");
}

#[test]
fn idle_logical_clients_cost_the_fleet_nothing() {
    // Every call takes a fresh lease, so a logical client nobody is
    // calling through never reaches the simulation: a fleet of 10⁵ runs
    // the very traffic of one logical client per driver, and the server
    // registers the same memory and QP endpoints for it.
    use rfp_core::{OverloadConfig, RfpConfig};
    use rfp_kvstore::{spawn_fleet_kv, FleetConfig};

    let cfg = SystemConfig {
        rfp: RfpConfig {
            overload: Some(OverloadConfig::default()),
            ..SystemConfig::default().rfp
        },
        ..small_cfg()
    };
    let run = |logical_clients: usize| {
        let fleet = FleetConfig {
            logical_clients,
            drivers: 24,
            hot_tenant: None,
        };
        let mut sim = Simulation::new(cfg.seed);
        let sys = spawn_fleet_kv(&mut sim, &cfg, &fleet);
        sim.run_for(SimSpan::millis(1));
        sys.reset_measurements();
        sim.run_for(SimSpan::millis(2));
        assert!(sys.stats.completed.get() > 0, "fleet must make progress");
        let mut csv = Vec::new();
        sys.registry
            .snapshot()
            .write_csv(&mut csv)
            .expect("write csv to vec");
        (
            String::from_utf8(csv).expect("csv is utf8"),
            sys.server_machine.registered_bytes(),
            sys.server_machine.qp_endpoints(),
        )
    };
    assert_eq!(run(24), run(100_000), "idle logical clients moved the run");
}

#[test]
fn fleet_slots_fit_tenant_stamped_puts() {
    // A 281 B PUT fills the slot a 16 B header would leave: the fleet's
    // tenant-stamped request must fit all the same.
    use rfp_core::{OverloadConfig, RfpConfig};
    use rfp_kvstore::{spawn_fleet_kv, FleetConfig};
    use rfp_workload::ValueSize;

    let cfg = SystemConfig {
        server_threads: 2,
        client_machines: 2,
        clients_per_machine: 2,
        spec: WorkloadSpec {
            key_count: 500,
            values: ValueSize::Fixed(281),
            mix: OpMix::BALANCED,
            ..WorkloadSpec::paper_default()
        },
        rfp: RfpConfig {
            overload: Some(OverloadConfig::default()),
            ..SystemConfig::default().rfp
        },
        ..SystemConfig::default()
    };
    let fleet = FleetConfig {
        logical_clients: 20,
        drivers: 4,
        hot_tenant: None,
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_fleet_kv(&mut sim, &cfg, &fleet);
    sim.run_for(SimSpan::millis(1));
    assert!(sys.stats.completed.get() > 100, "fleet must make progress");
}

// ---- One rig skeleton: what every preset now inherits from the one
// driver (each of these failed while the spawners were separate copies).

#[test]
fn every_system_honours_think_time() {
    // 20 µs of mean think time dwarfs the few-µs call: the open-ish loop
    // must complete far fewer calls in the same window. (The Pilaf and
    // Memcached copies of the client loop used to ignore the setting.)
    for (name, spawn) in [
        (
            "pilaf",
            spawn_pilaf as fn(&mut Simulation, &SystemConfig) -> KvSystem,
        ),
        ("memcached", spawn_memcached),
        ("jakiro", spawn_jakiro),
    ] {
        let closed = SystemConfig {
            client_machines: 2,
            clients_per_machine: 2,
            ..small_cfg()
        };
        let paced = SystemConfig {
            think_time: SimSpan::micros(20),
            ..closed.clone()
        };
        let (closed_sys, _) = measure(spawn, &closed, SimSpan::millis(2));
        let (paced_sys, _) = measure(spawn, &paced, SimSpan::millis(2));
        let (closed, paced) = (
            closed_sys.stats.completed.get(),
            paced_sys.stats.completed.get(),
        );
        assert!(
            paced * 2 < closed,
            "{name}: {paced} calls at 20us think vs {closed} closed-loop"
        );
    }
}

#[test]
fn served_per_thread_covers_round_robin_systems() {
    use rfp_kvstore::spawn_jakiro_shared;
    for (name, spawn) in [
        (
            "memcached",
            spawn_memcached as fn(&mut Simulation, &SystemConfig) -> KvSystem,
        ),
        ("jakiro-shared", spawn_jakiro_shared),
    ] {
        let cfg = small_cfg();
        let mut sim = Simulation::new(cfg.seed);
        let sys = spawn(&mut sim, &cfg);
        // No reset: the server-side `served` counts run from time zero.
        sim.run_for(SimSpan::millis(2));
        let served = sys.served_per_thread();
        assert_eq!(served.len(), cfg.server_threads, "{name}");
        assert!(served.iter().all(|&s| s > 0), "{name}: {served:?}");
        // Every completed call was served by exactly one thread; at most
        // one call per client is served but not yet booked.
        let (served, done) = (served.iter().sum::<u64>(), sys.stats.completed.get());
        let in_flight = cfg.total_clients() as u64;
        assert!(
            done <= served && served <= done + in_flight,
            "{name}: {served} served vs {done} completed"
        );
    }
}

#[test]
fn one_shard_is_jakiro_byte_for_byte() {
    use rfp_kvstore::spawn_sharded_jakiro;
    let registry_csv = |spawn: &dyn Fn(&mut Simulation, &SystemConfig) -> KvSystem| {
        let (sys, _) = measure(spawn, &small_cfg(), SimSpan::millis(2));
        let mut csv = Vec::new();
        let snapshot = sys.registry.snapshot();
        snapshot.write_csv(&mut csv).expect("write csv to vec");
        csv
    };
    let jakiro = registry_csv(&spawn_jakiro);
    let sharded = registry_csv(&|sim, cfg| spawn_sharded_jakiro(sim, cfg, 1));
    assert!(!jakiro.is_empty());
    assert_eq!(
        String::from_utf8(jakiro).unwrap(),
        String::from_utf8(sharded).unwrap()
    );
}

#[test]
#[should_panic(expected = "more than 64 clients per machine")]
fn more_than_64_clients_per_machine_is_rejected() {
    // Stream ids are `m * 64 + t`: `(0, 64)` would replay `(1, 0)`.
    let cfg = SystemConfig {
        client_machines: 2,
        clients_per_machine: 65,
        ..small_cfg()
    };
    let mut sim = Simulation::new(cfg.seed);
    spawn_jakiro(&mut sim, &cfg);
}
