//! Host probes: public functions of one layer timed in isolation.
//!
//! Each probe sets its subject up, then times a fixed amount of work
//! and *returns* the timing with the op count and the allocations made
//! (NetCAT's `write_timed` / `read_timed` idiom: the measurement is the
//! return value of the operation). Op and allocation counts repeat
//! exactly; only the nanoseconds move between runs.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rand::SeedableRng;
use rfp_core::{connect, serve_loop, RfpConfig};
use rfp_kvstore::systems::apply_to_partition;
use rfp_kvstore::{KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{FifoServer, SimSpan, Simulation};
use rfp_workload::{Generator, Op, WorkloadSpec, Zipf};

use crate::host::AllocSnapshot;

/// What one probe run measured.
#[derive(Copy, Clone, Debug)]
pub struct Probe {
    /// Operations performed (known by construction or counted by the
    /// layer's own counter).
    pub ops: u64,
    /// Wall-clock nanoseconds the operations took.
    pub ns: f64,
    /// Allocations made while they ran.
    pub allocs: u64,
    /// Mean simulated latency of one op in ns, where the probe has one.
    pub sim_latency_ns: Option<f64>,
}

impl Probe {
    /// Host nanoseconds per op.
    pub fn host_ns(&self) -> f64 {
        self.ns / self.ops as f64
    }

    /// Allocations per op.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops as f64
    }
}

/// Times `work`, which returns how many ops it performed.
fn timed(work: impl FnOnce() -> u64) -> Probe {
    let a0 = AllocSnapshot::now();
    let t0 = Instant::now();
    let ops = work();
    let ns = t0.elapsed().as_nanos() as f64;
    Probe {
        ops,
        ns,
        allocs: AllocSnapshot::now().since(a0).allocs,
        sim_latency_ns: None,
    }
}

/// A named probe; `name` is the per-layer metric prefix.
pub struct ProbeSpec {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Runs the probe once.
    pub run: fn() -> Probe,
}

/// Every probe, in report order.
pub const PROBES: [ProbeSpec; 10] = [
    ProbeSpec {
        name: "simnet.sleep_event",
        run: sleep_event,
    },
    ProbeSpec {
        name: "simnet.fifo_serve",
        run: fifo_serve,
    },
    ProbeSpec {
        name: "rnic.read32",
        run: || raw_verb(false),
    },
    ProbeSpec {
        name: "rnic.write32",
        run: || raw_verb(true),
    },
    ProbeSpec {
        name: "core.echo_w1",
        run: echo_w1,
    },
    ProbeSpec {
        name: "kvstore.partition_get",
        run: || partition(true),
    },
    ProbeSpec {
        name: "kvstore.partition_put",
        run: || partition(false),
    },
    ProbeSpec {
        name: "kvstore.proto_roundtrip",
        run: proto_roundtrip,
    },
    ProbeSpec {
        name: "workload.gen_op",
        run: gen_op,
    },
    ProbeSpec {
        name: "workload.zipf_sample",
        run: zipf_sample,
    },
];

/// Timed repeats a probe's best time is taken over.
pub const REPEATS: usize = 9;

/// Runs `spec` once untimed (lazy one-time set-up in the layer must not
/// count), then [`REPEATS`] times, and returns the fastest run.
///
/// # Panics
///
/// Panics if two repeats disagree on the op or allocation count: the
/// simulator is deterministic, so that is a bug in the probe.
pub fn best_of_repeats(spec: &ProbeSpec) -> Probe {
    (spec.run)();
    let runs: Vec<Probe> = (0..REPEATS).map(|_| (spec.run)()).collect();
    let first = runs[0];
    for r in &runs {
        assert_eq!(
            (r.ops, r.allocs),
            (first.ops, first.allocs),
            "{}: op/alloc counts differ between repeats",
            spec.name
        );
    }
    runs.into_iter()
        .min_by(|a, b| a.ns.total_cmp(&b.ns))
        .expect("REPEATS > 0")
}

/// 100 tasks × 10 000 sleeps: one timer-heap push, one pop and one task
/// poll per op. (`Simulation` exposes no event counter, so the count is
/// known by construction.)
fn sleep_event() -> Probe {
    const TASKS: u64 = 100;
    const SLEEPS: u64 = 10_000;
    let mut sim = Simulation::new(1);
    for i in 0..TASKS {
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..SLEEPS {
                h.sleep(SimSpan::nanos(100 + i)).await;
            }
        });
    }
    timed(|| {
        sim.run();
        TASKS * SLEEPS
    })
}

/// 10 tasks queueing on one [`FifoServer`] (the NIC engines' model).
fn fifo_serve() -> Probe {
    const TASKS: u64 = 10;
    const SERVES: u64 = 20_000;
    let mut sim = Simulation::new(2);
    let server = Rc::new(FifoServer::new(sim.handle()));
    for _ in 0..TASKS {
        let server = Rc::clone(&server);
        sim.spawn(async move {
            for _ in 0..SERVES {
                server.serve(SimSpan::nanos(50)).await;
            }
        });
    }
    timed(|| {
        sim.run();
        assert_eq!(server.completed(), TASKS * SERVES);
        TASKS * SERVES
    })
}

/// Saturated raw 32 B one-sided verbs, 7 machines × 5 threads against
/// one server (the shape of `rfp_bench::micro::inbound_mops`); ops are
/// what the server NIC's in-bound engine counted.
fn raw_verb(write: bool) -> Probe {
    let mut sim = Simulation::new(3);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 8);
    let server = cluster.machine(0);
    let remote = server.alloc_mr(128);
    for c in 1..8 {
        let client = cluster.machine(c);
        for t in 0..5 {
            let qp = cluster.qp(c, 0);
            let local = client.alloc_mr(128);
            let thread = client.thread(format!("c{c}.{t}"));
            let remote = Rc::clone(&remote);
            sim.spawn(async move {
                loop {
                    if write {
                        qp.write(&thread, &local, 0, &remote, 0, 32).await;
                    } else {
                        qp.read(&thread, &local, 0, &remote, 0, 32).await;
                    }
                }
            });
        }
    }
    sim.run_for(SimSpan::micros(200));
    server.nic().reset_counters();
    timed(|| {
        sim.run_for(SimSpan::millis(4));
        server.nic().counters().inbound_ops
    })
}

/// One client, one connection, sequential 32 B `call`s against an
/// echoing server thread, unloaded: the base of the latency budget.
fn echo_w1() -> Probe {
    let mut sim = Simulation::new(4);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (server_m, client_m) = (cluster.machine(0), cluster.machine(1));
    let (client, conn) = connect(
        &client_m,
        &server_m,
        cluster.qp(1, 0),
        cluster.qp(0, 1),
        RfpConfig::default(),
    );
    sim.spawn(serve_loop(
        server_m.thread("server"),
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    let client = Rc::new(client);
    let thread = client_m.thread("client");
    {
        let client = Rc::clone(&client);
        sim.spawn(async move {
            let req = [0xA5u8; 32];
            loop {
                let out = client.call(&thread, &req).await;
                assert_eq!(out.data, req, "echo mismatch");
            }
        });
    }
    sim.run_for(SimSpan::micros(200));
    client.stats().reset();
    let mut probe = timed(|| {
        sim.run_for(SimSpan::millis(20));
        client.stats().calls()
    });
    let mean = client.stats().latency.mean().expect("calls completed");
    probe.sim_latency_ns = Some(mean.as_nanos() as f64);
    probe
}

const PROBE_KEYS: u64 = 2000;

fn probe_generator(seed: u64) -> Generator {
    WorkloadSpec {
        key_count: PROBE_KEYS,
        ..WorkloadSpec::paper_default()
    }
    .generator(seed)
}

/// `apply_to_partition` on a preloaded partition: GETs of present keys,
/// or PUTs overwriting them with 32 B values.
fn partition(get: bool) -> Probe {
    const OPS: u64 = 100_000;
    let mut gen = probe_generator(5);
    let pairs = gen.preload(PROBE_KEYS);
    let mut part = Partition::new(PROBE_KEYS as usize / 4);
    for (k, v) in &pairs {
        part.put(k, v);
    }
    timed(|| {
        for (key, value) in pairs.iter().cycle().take(OPS as usize) {
            let req = if get {
                KvRequest::Get { key }
            } else {
                KvRequest::Put { key, value }
            };
            let (resp, _) = apply_to_partition(&mut part, &req);
            black_box(resp);
        }
        OPS
    })
}

/// Encode a GET, decode it, encode a 32 B `Found`, decode it.
fn proto_roundtrip() -> Probe {
    const OPS: u64 = 100_000;
    let mut gen = probe_generator(6);
    let pairs = gen.preload(64);
    timed(|| {
        for (key, value) in pairs.iter().cycle().take(OPS as usize) {
            let wire = KvRequest::Get { key }.encode();
            let req = KvRequest::decode(black_box(&wire)).expect("round trip");
            assert_eq!(req.key(), &key[..]);
            let wire = KvResponse::Found(value.clone()).encode();
            match KvResponse::decode(black_box(&wire)).expect("round trip") {
                KvResponse::Found(v) => assert_eq!(&v, value),
                other => panic!("decoded {other:?}"),
            }
        }
        OPS
    })
}

/// The workload generator's `next_op` at the paper's 95 % GET mix.
fn gen_op() -> Probe {
    const OPS: u64 = 200_000;
    let mut gen = probe_generator(7);
    timed(|| {
        let mut gets = 0u64;
        for _ in 0..OPS {
            gets += matches!(black_box(gen.next_op()), Op::Get { .. }) as u64;
        }
        assert!(gets > OPS * 9 / 10, "95 % GET mix drew {gets} GETs");
        OPS
    })
}

/// Zipf(0.99) rank draws over the cores rig's 4096-key space.
fn zipf_sample() -> Probe {
    const OPS: u64 = 1_000_000;
    let zipf = Zipf::new(4096, 0.99);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    timed(|| {
        let mut acc = 0u64;
        for _ in 0..OPS {
            acc += zipf.sample(&mut rng);
        }
        black_box(acc);
        OPS
    })
}

/// Wall-clock seconds of one `rfp_bench::figures::fig10` sweep (ten
/// Jakiro runs of 1 + 4 sim-ms) written into a sink.
pub fn fig10_sweep_host_s() -> f64 {
    let t0 = Instant::now();
    rfp_bench::figures::fig10(&mut std::io::sink()).expect("a sink accepts every write");
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_repeat_their_op_and_alloc_counts() {
        let _serial = crate::host::counting_test_lock();
        for spec in &PROBES {
            // Other test threads share the allocation counters; a
            // clean pair within a few tries shows the probe itself
            // repeats exactly.
            let repeats_exactly = (0..5).any(|_| {
                let (a, b) = ((spec.run)(), (spec.run)());
                assert_eq!(a.ops, b.ops, "{}: ops", spec.name);
                assert!(a.ops > 0 && a.ns > 0.0, "{}", spec.name);
                a.allocs == b.allocs
            });
            assert!(repeats_exactly, "{}: alloc counts never agreed", spec.name);
        }
    }
}
