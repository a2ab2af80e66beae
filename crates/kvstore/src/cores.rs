//! Multi-core scaling rig: one server machine with N reactor cores,
//! an EREW-partitioned store, and a keyspace *constructed* so that key
//! popularity maps onto partitions in a controlled way.
//!
//! Zipf over a hashed keyspace does **not** concentrate load on one
//! partition — the hash sprays the popular ranks across all of them
//! (that is exactly the §4.4.3 load-balance argument). To study the
//! skew-collapse regime the reactor's work stealing exists for, the
//! rig builds the rank order deliberately:
//!
//! * it generates candidate key names and buckets them by
//!   [`partition_of`] until every partition owns `KEYS_PER_CORE`
//!   names;
//! * **uniform** runs interleave the buckets round-robin (rank `r` →
//!   partition `r % cores`), so uniform sampling loads every core
//!   equally;
//! * **skewed** runs lay partition 0's names first, so the head of a
//!   Zipf(θ) rank distribution lands entirely on core 0 (θ = 0.99 puts
//!   ~83% of draws there with 4 cores × 1024 keys) while the siblings
//!   starve — the worst case EREW admits.
//!
//! Clients are closed-loop and pipelined: each draws one ring window
//! of GETs per core, buckets them by owning partition, and drives each
//! bucket through the call engine on its per-core connection.

use std::ops::Deref;
use std::rc::Rc;

use rand::{Rng, SeedableRng};
use rfp_core::{
    connect, CallPolicy, CoreSpec, Reactor, ReactorConfig, RfpConfig, REQ_HDR, RESP_HDR,
};
use rfp_rnic::{ClusterProfile, ThreadCtx};
use rfp_simnet::{CoreSkewReport, SimSpan, SimTime, Simulation};
use rfp_workload::{Op, Zipf};

use crate::hash::partition_of;
use crate::rig::{kv_handler, preload_partitions, KvSystem, Seating};

/// Configuration of the multi-core scaling rig.
#[derive(Clone)]
pub struct CoresConfig {
    /// Simulated server cores (= store partitions = reactor cores).
    pub cores: usize,
    /// Lets idle cores steal from loaded siblings.
    pub steal: bool,
    /// `None` → uniform key popularity; `Some(θ)` → Zipf(θ) over the
    /// hot-first rank order (the head lands on partition 0).
    pub skew: Option<f64>,
    /// Ring window per connection (= pipelining depth per client draw).
    pub window: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for CoresConfig {
    fn default() -> Self {
        CoresConfig {
            cores: 4,
            steal: true,
            skew: None,
            window: 8,
            seed: 42,
        }
    }
}

impl CoresConfig {
    /// Total client threads.
    pub fn total_clients(&self) -> usize {
        CLIENT_MACHINES * CLIENTS_PER_MACHINE
    }

    fn rfp(&self) -> RfpConfig {
        let base = RfpConfig::default();
        let resp = (RESP_HDR + 5 + VALUE_LEN)
            .next_multiple_of(64)
            .max(256)
            .max(base.fetch_size);
        let req = (REQ_HDR + 7 + KEY_LEN).next_multiple_of(64).max(256);
        RfpConfig {
            window: self.window,
            check_cpu: CHECK_CPU,
            post_cpu: POST_CPU,
            resp_capacity: resp,
            req_capacity: req,
            ..base
        }
    }
}

/// Constructed key names are fixed-width (the paper's 16-byte keys).
const KEY_LEN: usize = 16;
/// Client machines, and client threads on each.
const CLIENT_MACHINES: usize = 12;
const CLIENTS_PER_MACHINE: usize = 3;
/// Extra application CPU per request, on top of the store's own lookup
/// cost. It makes the workload *CPU-bound* well below the NIC ceilings
/// (client out-bound ≈2.1 Mops/machine, server in-bound ≈11.3 Mops), so
/// the rig measures core scaling rather than wire saturation.
const EXTRA_PROCESS: SimSpan = SimSpan::nanos(750);
/// Preloaded value size (the headline 32-byte point).
const VALUE_LEN: usize = 32;
/// Constructed keys per partition.
const KEYS_PER_CORE: usize = 1024;
/// Server CPU per ring-slot header check and per posted response, as in
/// the other KV rigs ([`SystemConfig`](crate::SystemConfig)'s defaults).
const CHECK_CPU: SimSpan = SimSpan::nanos(30);
const POST_CPU: SimSpan = SimSpan::nanos(50);

/// Builds the rank-ordered keyspace described in the module docs:
/// `cores × keys_per_core` names, each partition owning exactly
/// `keys_per_core` of them, ordered hot-first (skewed) or round-robin
/// (uniform).
pub fn build_keyspace(cores: usize, keys_per_core: usize, hot_first: bool) -> Vec<Vec<u8>> {
    assert!(cores > 0 && keys_per_core > 0);
    let mut buckets: Vec<Vec<Vec<u8>>> = vec![Vec::new(); cores];
    let mut i = 0u64;
    while buckets.iter().any(|b| b.len() < keys_per_core) {
        let key = format!("key{i:013}").into_bytes();
        debug_assert_eq!(key.len(), KEY_LEN);
        let p = partition_of(&key, cores);
        if buckets[p].len() < keys_per_core {
            buckets[p].push(key);
        }
        i += 1;
    }
    if hot_first {
        buckets.concat()
    } else {
        let mut keys = Vec::with_capacity(cores * keys_per_core);
        for r in 0..keys_per_core {
            for b in &buckets {
                keys.push(b[r].clone());
            }
        }
        keys
    }
}

/// A running multi-core system: clients loop forever; warm up, call
/// [`CoresKv::reset_measurements`], run the window, read the stats.
/// Derefs to its [`KvSystem`] (cluster, stats, registry — additionally
/// `serve.core.*` —, server machine, client threads and endpoints,
/// server connections grouped by owning core).
pub struct CoresKv {
    /// The underlying system.
    pub kv: KvSystem,
    /// The serve reactor (per-core accessors, skew report).
    pub reactor: Reactor,
    /// The per-core server threads.
    pub core_threads: Vec<Rc<ThreadCtx>>,
}

impl Deref for CoresKv {
    type Target = KvSystem;

    fn deref(&self) -> &KvSystem {
        &self.kv
    }
}

impl CoresKv {
    /// Discards warm-up: everything [`KvSystem::reset_measurements`]
    /// clears, plus the reactor meters and core thread clocks.
    pub fn reset_measurements(&self) {
        self.kv.reset_measurements();
        self.reactor.reset_measurements();
    }

    /// Requests executed per core (own plus stolen).
    pub fn served_per_core(&self) -> Vec<u64> {
        (0..self.reactor.cores())
            .map(|i| self.reactor.served(i))
            .collect()
    }

    /// The point-in-time per-core load rollup.
    pub fn skew_report(&self, now: SimTime) -> CoreSkewReport {
        self.reactor.skew_report(now)
    }
}

/// Spawns the multi-core system: one server machine running an
/// N-core [`Reactor`] over an EREW-partitioned bucket
/// store, plus closed-loop pipelined GET clients sampling the
/// constructed keyspace. A preset of the [`rig`](crate::rig) skeleton:
/// the windowed driver draws one ring window of GETs *per core* and
/// routes each to the core owning its partition, so a draw costs ~one
/// round trip per loaded partition rather than one per request.
pub fn spawn_cores_kv(sim: &mut Simulation, cfg: &CoresConfig) -> CoresKv {
    let seating = Seating {
        servers: 1,
        machines: CLIENT_MACHINES,
        per_machine: CLIENTS_PER_MACHINE,
        seed: cfg.seed,
        think: SimSpan::ZERO,
    };
    let mut sys = KvSystem::bed(sim, &ClusterProfile::paper_testbed(), &seating, None);
    let rfp_cfg = cfg.rfp();

    // The constructed keyspace and its preloaded partitions.
    let keys = Rc::new(build_keyspace(cfg.cores, KEYS_PER_CORE, cfg.skew.is_some()));
    let value = vec![0x56u8; VALUE_LEN];
    let pairs = keys.iter().map(|key| (key, &value));
    let partitions = preload_partitions(pairs, cfg.cores, KEYS_PER_CORE / 4);

    // Clients: one connection per (client thread, core); requests are
    // routed to the core owning the key's partition (EREW).
    sys.server_conns = vec![Vec::new(); cfg.cores];
    let zipf = cfg.skew.map(|theta| Zipf::new(keys.len() as u64, theta));
    for idx in 0..seating.clients() {
        let seat = sys.seat(&seating, idx);
        let conns = (0..cfg.cores)
            .map(|core| sys.connect(&seat, 0, connect, rfp_cfg.clone(), core))
            .collect();
        let (keys, zipf, ncores) = (Rc::clone(&keys), zipf.clone(), cfg.cores);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seat.seed);
        let next_op = move || {
            let k = match &zipf {
                Some(z) => z.sample(&mut rng) as usize,
                None => rng.gen_range(0..keys.len()),
            };
            let key = keys[k].clone();
            Op::Get { key }
        };
        sim.spawn(seat.windowed(
            conns,
            cfg.window * cfg.cores,
            next_op,
            move |key| partition_of(key, ncores),
            CallPolicy::default(),
        ));
    }

    // The reactor: one core per partition, stealing as configured.
    let threads: Vec<_> = (0..cfg.cores)
        .map(|i| sys.server_machine.thread(format!("s{i}")))
        .collect();
    let specs: Vec<CoreSpec> = (0..cfg.cores)
        .map(|i| CoreSpec {
            thread: Rc::clone(&threads[i]),
            conns: sys.server_conns[i].clone(),
            handler: Box::new(kv_handler(Rc::clone(&partitions[i]), || EXTRA_PROCESS)),
        })
        .collect();
    let reactor = Reactor::new(
        ReactorConfig {
            steal: cfg.steal,
            registry: Some(sys.registry.clone()),
            recorder: None,
        },
        specs,
        SimSpan::nanos(100),
    );
    for i in 0..cfg.cores {
        sim.spawn(reactor.run_core(i));
    }

    CoresKv {
        kv: sys,
        reactor,
        core_threads: threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyspace_partitions_are_exact() {
        for cores in [1, 2, 4, 8] {
            let keys = build_keyspace(cores, 64, false);
            assert_eq!(keys.len(), cores * 64);
            let mut counts = vec![0usize; cores];
            for k in &keys {
                counts[partition_of(k, cores)] += 1;
            }
            assert!(counts.iter().all(|&c| c == 64), "{counts:?}");
        }
    }

    #[test]
    fn hot_first_head_lands_on_partition_zero() {
        let per = 64;
        let keys = build_keyspace(4, per, true);
        for k in &keys[..per] {
            assert_eq!(partition_of(k, 4), 0);
        }
    }

    #[test]
    fn uniform_order_interleaves_partitions() {
        let keys = build_keyspace(4, 64, false);
        for (r, k) in keys.iter().enumerate() {
            assert_eq!(partition_of(k, 4), r % 4);
        }
    }
}
