//! Scale-out: Jakiro sharded across multiple server machines.
//!
//! The paper's single-server bottleneck is one NIC's in-bound rate
//! (~11.26 MOPS ⇒ ~5.6 MOPS of requests). Sharding the key space over
//! more server machines multiplies that pipe; this example sweeps the
//! shard count and prints the aggregate throughput and the invariants
//! that must survive scale-out (≈2 in-bound ops per request, zero
//! server out-bound ops).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sharded_cluster
//! ```

use rfp_repro::kvstore::{spawn_sharded_jakiro, SystemConfig};
use rfp_repro::simnet::{SimSpan, Simulation};
use rfp_repro::workload::WorkloadSpec;

fn main() {
    println!("shards  clients  throughput  inbound-ops/req  server outbound");
    for (servers, client_machines) in [(1usize, 7usize), (2, 14), (3, 21), (4, 28)] {
        let cfg = SystemConfig {
            client_machines,
            clients_per_machine: 5,
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
        println!(
            "{servers:>6}  {:>7}  {mops:>7.2} MOPS  {:>13.3}  {:>13}",
            client_machines * 5,
            sys.inbound_ops_per_request(),
            sys.server_nic_counters().outbound_ops,
        );
    }
    println!("\nEach shard contributes an independent in-bound pipe; the RFP");
    println!("invariants (2 in-bound ops per request, no server out-bound RDMA)");
    println!("hold at every scale.");
}
