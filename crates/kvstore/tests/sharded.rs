//! Scale-out tests: sharded Jakiro across multiple server machines.

use rfp_kvstore::{spawn_sharded_jakiro, SystemConfig};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::WorkloadSpec;

fn measure(servers: usize, client_machines: usize, clients_per: usize) -> (f64, f64, u64) {
    let cfg = SystemConfig {
        client_machines,
        clients_per_machine: clients_per,
        spec: WorkloadSpec {
            key_count: 4_000,
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_sharded_jakiro(&mut sim, &cfg, servers);
    sim.run_for(SimSpan::millis(1));
    sys.reset_measurements();
    let window = SimSpan::millis(4);
    sim.run_for(window);
    let mops = sys.stats.completed.get() as f64 / window.as_secs_f64() / 1e6;
    (
        mops,
        sys.inbound_ops_per_request(),
        sys.server_nic_counters().outbound_ops,
    )
}

#[test]
fn one_shard_matches_single_server_jakiro() {
    let (mops, rounds, out) = measure(1, 7, 5);
    assert!((4.6..6.2).contains(&mops), "single shard {mops:.2}");
    assert!((1.9..2.2).contains(&rounds), "rounds {rounds:.3}");
    assert_eq!(out, 0, "fast path stays in-bound-only");
}

#[test]
fn two_shards_nearly_double_throughput() {
    // With enough clients to saturate both server NICs, aggregate
    // throughput scales with shards (each NIC is an independent
    // in-bound pipe).
    let (one, _, _) = measure(1, 7, 5);
    // 14 client machines × 5 threads: enough aggregate client out-bound
    // (at ≤5 threads/NIC the issuing contention penalty stays small) to
    // saturate both server NICs.
    let (two, rounds, out) = measure(2, 14, 5);
    assert!(
        two > 1.7 * one,
        "2 shards should ≈2x one: {one:.2} -> {two:.2}"
    );
    assert!((1.9..2.2).contains(&rounds), "rounds stay ≈2: {rounds:.3}");
    assert_eq!(out, 0);
}

#[test]
fn sharding_does_not_break_correctness() {
    let cfg = SystemConfig {
        client_machines: 3,
        clients_per_machine: 2,
        spec: WorkloadSpec {
            key_count: 4_000,
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_sharded_jakiro(&mut sim, &cfg, 3);
    sim.run_for(SimSpan::millis(4));
    let s = &sys.stats;
    assert!(s.completed.get() > 1_000);
    let miss = s.misses.get() as f64 / s.gets.get().max(1) as f64;
    assert!(miss < 0.05, "miss fraction {miss} across shards");
}
