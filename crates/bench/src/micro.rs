//! Micro-benchmark drivers for the §2 hardware-characterisation figures
//! (3, 4, 5, 6): saturation loops of raw one-sided verbs.

use std::rc::Rc;

use rfp_paradigms::BypassClient;
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{SimSpan, Simulation};

/// Cluster size used by the paper's micro-benchmarks (1 server + 7
/// clients).
const MACHINES: usize = 8;

/// Measures the server's **in-bound** IOPS (MOPS): 7 client machines ×
/// `threads_per_client` threads issue synchronous READs of `bytes`.
pub fn inbound_mops(threads_per_client: usize, bytes: usize, window: SimSpan) -> f64 {
    inbound_mops_with(
        ClusterProfile::paper_testbed(),
        threads_per_client,
        bytes,
        window,
    )
}

/// [`inbound_mops`] against an arbitrary hardware profile (used by the
/// NIC-generation ablation).
pub fn inbound_mops_with(
    profile: ClusterProfile,
    threads_per_client: usize,
    bytes: usize,
    window: SimSpan,
) -> f64 {
    let mut sim = Simulation::new(101);
    let cluster = Cluster::new(&mut sim, profile, MACHINES);
    let server = cluster.machine(0);
    let remote = server.alloc_mr(bytes.max(64) * 2);

    for c in 1..MACHINES {
        let client = cluster.machine(c);
        for t in 0..threads_per_client {
            let qp = cluster.qp(c, 0);
            let local = client.alloc_mr(bytes.max(64) * 2);
            let thread = client.thread(format!("c{c}.{t}"));
            let r = Rc::clone(&remote);
            sim.spawn(async move {
                loop {
                    qp.read(&thread, &local, 0, &r, 0, bytes).await;
                }
            });
        }
    }

    sim.run_for(SimSpan::millis(1));
    server.nic().reset_counters();
    let t0 = sim.now();
    sim.run_for(window);
    server.nic().counters().inbound_ops as f64 / (sim.now() - t0).as_secs_f64() / 1e6
}

/// Measures the server's **out-bound** IOPS (MOPS): `threads` server
/// threads issue synchronous WRITEs of `bytes` to the 7 clients.
pub fn outbound_mops(threads: usize, bytes: usize, window: SimSpan) -> f64 {
    outbound_mops_with(ClusterProfile::paper_testbed(), threads, bytes, window)
}

/// [`outbound_mops`] against an arbitrary hardware profile.
pub fn outbound_mops_with(
    profile: ClusterProfile,
    threads: usize,
    bytes: usize,
    window: SimSpan,
) -> f64 {
    let mut sim = Simulation::new(102);
    let cluster = Cluster::new(&mut sim, profile, MACHINES);
    let server = cluster.machine(0);

    for t in 0..threads {
        let target = 1 + (t % (MACHINES - 1));
        let qp = cluster.qp(0, target);
        let local = server.alloc_mr(bytes.max(64) * 2);
        let remote = cluster.machine(target).alloc_mr(bytes.max(64) * 2);
        let thread = server.thread(format!("s{t}"));
        sim.spawn(async move {
            loop {
                qp.write(&thread, &local, 0, &remote, 0, bytes).await;
            }
        });
    }

    sim.run_for(SimSpan::millis(1));
    server.nic().reset_counters();
    let t0 = sim.now();
    sim.run_for(window);
    server.nic().counters().outbound_ops as f64 / (sim.now() - t0).as_secs_f64() / 1e6
}

/// Figure 6 driver: 21 client threads complete "requests" of `rounds`
/// dependent 32 B READs each. Returns `(request MOPS, raw IOPS)`.
pub fn amplified_throughput(rounds: u32, window: SimSpan) -> (f64, f64) {
    let mut sim = Simulation::new(103);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), MACHINES);
    let server = cluster.machine(0);
    let region = server.alloc_mr(4096);
    let completed = Rc::new(std::cell::Cell::new(0u64));

    // The paper tests Figure 6 with 21 client threads (footnote 3).
    for i in 0..21 {
        let machine = 1 + (i % (MACHINES - 1));
        let client = BypassClient::new(cluster.qp(machine, 0), 512);
        let thread = cluster.machine(machine).thread(format!("c{i}"));
        let r = Rc::clone(&region);
        let done = Rc::clone(&completed);
        sim.spawn(async move {
            loop {
                client.amplified_request(&thread, &r, rounds, 32).await;
                done.set(done.get() + 1);
            }
        });
    }

    sim.run_for(SimSpan::millis(1));
    server.nic().reset_counters();
    completed.set(0);
    let t0 = sim.now();
    sim.run_for(window);
    let secs = (sim.now() - t0).as_secs_f64();
    let reqs = completed.get() as f64 / secs / 1e6;
    let iops = server.nic().counters().inbound_ops as f64 / secs / 1e6;
    (reqs, iops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_produce_sane_numbers() {
        let w = SimSpan::millis(2);
        let inb = inbound_mops(5, 32, w);
        assert!((10.0..12.0).contains(&inb), "{inb}");
        let out = outbound_mops(4, 32, w);
        assert!((1.8..2.3).contains(&out), "{out}");
        let (reqs, iops) = amplified_throughput(4, w);
        assert!(reqs > 0.5 && iops > 3.9 * reqs, "{reqs} {iops}");
    }
}
