//! Full-system assembly of the key-value stores the paper evaluates
//! (and the §5 comparators), on a simulated cluster shaped like its
//! testbed (server machines plus client machines behind one switch,
//! §4.2). Every spawner is a *preset* of the one [`rig`](crate::rig)
//! skeleton: it picks a store handler, a route, a transport and a
//! driver, and the skeleton does the rest.
//!
//! * [`spawn_jakiro`] — Jakiro: RFP transport, EREW-partitioned bucket
//!   table, requests routed to the owning server thread by key.
//! * [`spawn_server_reply_kv`] — ServerReply: identical store and
//!   routing, but the server pushes results with out-bound WRITE.
//! * [`spawn_sharded_jakiro`] — Jakiro over `n` server machines: the
//!   routed rig with a two-level (machine, thread) shard space.
//! * [`spawn_memcached`] — RDMA-Memcached-like: server-reply transport,
//!   shared LRU store behind a lock, per-thread hot-key caches.
//! * [`spawn_jakiro_shared`] — the EREW ablation: one locked partition.
//! * [`spawn_pilaf`] / [`spawn_farm`] — the bypass rig: GETs are
//!   client-driven one-sided reads over the cuckoo/CRC or hopscotch
//!   store, PUTs go through server-reply RPC.
//! * [`spawn_herd`] — HERD-style UC-write / UD-send RPC.
//! * [`spawn_fleet_kv`] — a multiplexed logical-client fleet.
//!
//! Every spawner returns a [`KvSystem`] (or a wrapper that derefs to
//! one) whose client loops run forever; the caller warms up, calls
//! [`KvSystem::reset_measurements`], runs the measurement window, and
//! reads [`KvStats`](crate::KvStats).

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, serve_loop_tenant, shard_conns, CallPolicy, RespStatus, RfpConfig, RfpMux,
    TenantId, RESP_HDR,
};
use rfp_paradigms::{herd_connect, sr_connect, BypassClient};
use rfp_rnic::{ClusterProfile, Machine, ThreadCtx, Transport};
use rfp_simnet::{derive_seed, Counter, SimLock, SimSpan, Simulation};
use rfp_workload::{Op, WorkloadSpec};

use crate::bucket::Partition;
use crate::cell;
use crate::cuckoo::PilafStore;
use crate::hash::partition_of;
use crate::hopscotch::{FarmStore, NEIGHBORHOOD};
use crate::mcd::McdStore;
use crate::proto::{KvRequest, KvResponse};
use crate::rig::{
    decode_resp, encode_op, kv_handler, preload_partitions, spawn_pollers, BypassStore, Connect,
    KvSystem, Pacer, Seat, Seating,
};

/// Simulated CPU cost of one Jakiro/ServerReply GET (hash + copy).
const KV_GET_WORK: SimSpan = SimSpan::nanos(150);
/// Simulated CPU cost of one Jakiro/ServerReply PUT.
const KV_PUT_WORK: SimSpan = SimSpan::nanos(200);
/// Server threads dedicated to PUTs in the Pilaf/FaRM comparators.
const PILAF_PUT_THREADS: usize = 2;
/// Extra process time of an outlier request, drawn uniformly from this
/// range — sized so the rare slow requests reproduce the 15–17 µs Jakiro
/// calls of §4.4.2 (EXPERIMENTS.md, Figure 13).
const OUTLIER_EXTRA: (SimSpan, SimSpan) = (SimSpan::micros(3), SimSpan::micros(10));

/// Experiment configuration shared by all four systems.
#[derive(Clone)]
pub struct SystemConfig {
    /// Server threads (= cores) on the server machine.
    pub server_threads: usize,
    /// Client machines.
    pub client_machines: usize,
    /// Client threads per client machine.
    pub clients_per_machine: usize,
    /// Workload shape. `spec.key_count` doubles as the preload size.
    pub spec: WorkloadSpec,
    /// RFP tuning (fetch size, retry threshold, switch behaviour…).
    pub rfp: RfpConfig,
    /// Artificial extra process time added to every request (the `P`
    /// swept by Figure 14, produced with RDTSC spinning in the paper).
    pub extra_process: SimSpan,
    /// Cluster timing profile.
    pub profile: ClusterProfile,
    /// Probability that a request suffers an unexpectedly long process
    /// time (the paper measures ~0.2% of such outliers, §4.4.2; they
    /// create the latency tail of Figure 13 and the retry tail of
    /// Table 3, and are what the mode-switch hysteresis guards against).
    pub outlier_prob: f64,
    /// Mean exponentially-distributed client think time between
    /// requests. `ZERO` (the default, and the paper's methodology) is a
    /// closed loop at full tilt; non-zero values sweep offered load for
    /// latency-vs-load curves.
    pub think_time: SimSpan,
    /// Master seed.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        let spec = WorkloadSpec {
            // Scaled-down key space: the paper preloads 128 M pairs on a
            // 96 GB machine; simulation keeps the same access pattern
            // over a smaller population (documented in DESIGN.md).
            key_count: 20_000,
            ..WorkloadSpec::paper_default()
        };
        SystemConfig {
            server_threads: 6,
            client_machines: 7,
            clients_per_machine: 5,
            spec,
            rfp: RfpConfig {
                check_cpu: SimSpan::nanos(30),
                post_cpu: SimSpan::nanos(50),
                ..RfpConfig::default()
            },
            extra_process: SimSpan::ZERO,
            profile: ClusterProfile::paper_testbed(),
            outlier_prob: 0.002,
            think_time: SimSpan::ZERO,
            seed: 42,
        }
    }
}

/// Deterministic generator of the rare slow-request outliers.
struct OutlierGen {
    rng: rand::rngs::StdRng,
    prob: f64,
}

impl OutlierGen {
    fn new(cfg: &SystemConfig, stream: u64) -> Self {
        use rand::SeedableRng;
        OutlierGen {
            rng: rand::rngs::StdRng::seed_from_u64(derive_seed(cfg.seed, 0xBAD0 + stream)),
            prob: cfg.outlier_prob,
        }
    }

    /// Extra process time for the next request (usually zero).
    fn draw(&mut self) -> SimSpan {
        use rand::Rng;
        if self.prob > 0.0 && self.rng.gen::<f64>() < self.prob {
            let (min, max) = OUTLIER_EXTRA;
            SimSpan::nanos(self.rng.gen_range(min.as_nanos()..max.as_nanos()))
        } else {
            SimSpan::ZERO
        }
    }
}

impl SystemConfig {
    /// Total client threads.
    pub fn total_clients(&self) -> usize {
        self.client_machines * self.clients_per_machine
    }

    /// The client side of a bed with `servers` server machines.
    fn seating(&self, servers: usize) -> Seating {
        Seating {
            servers,
            machines: self.client_machines,
            per_machine: self.clients_per_machine,
            seed: self.seed,
            think: self.think_time,
        }
    }

    /// The workload's preload pairs, in generator order.
    fn preload(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.spec.generator(self.seed).preload(self.spec.key_count)
    }

    /// Buffer capacities sized for this workload.
    fn sized_rfp(&self) -> RfpConfig {
        let max_val = self.spec.values.max();
        // Integrity-stamped responses carry the 32-byte extended header
        // plus the 8-byte trailing canary.
        let resp_overhead = if self.rfp.integrity {
            rfp_core::RESP_HDR_EXT + rfp_core::RESP_TRAILER
        } else {
            RESP_HDR
        };
        let resp = (resp_overhead + 5 + max_val)
            .next_multiple_of(64)
            .max(256)
            .max(self.rfp.fetch_size);
        let req = (rfp_core::REQ_HDR + 7 + self.spec.key_len + max_val)
            .next_multiple_of(64)
            .max(256);
        RfpConfig {
            resp_capacity: resp,
            req_capacity: req,
            ..self.rfp.clone()
        }
    }
}

/// Applies one decoded request to a bucket-table partition, returning
/// the response and the application CPU cost of serving it.
pub fn apply_to_partition(
    partition: &mut Partition,
    parsed: &KvRequest<'_>,
) -> (KvResponse, SimSpan) {
    match parsed {
        KvRequest::Get { key } => {
            let resp = match partition.get(key) {
                Some(v) => KvResponse::Found(v.to_vec()),
                None => KvResponse::NotFound,
            };
            (resp, KV_GET_WORK)
        }
        KvRequest::Put { key, value } => {
            partition.put(key, value);
            (KvResponse::Stored, KV_PUT_WORK)
        }
    }
}

/// Extra process time of server thread `stream`'s next request: the
/// configured constant plus the rare outlier.
fn process_extra(cfg: &SystemConfig, stream: u64) -> impl FnMut() -> SimSpan {
    let (extra, mut outliers) = (cfg.extra_process, OutlierGen::new(cfg, stream));
    move || extra + outliers.draw()
}

/// The workload preloaded into `parts` EREW bucket-table partitions.
fn preloaded(cfg: &SystemConfig, parts: usize) -> Vec<Rc<RefCell<Partition>>> {
    let buckets = (cfg.spec.key_count as usize * 2 / parts / 8).max(64);
    preload_partitions(cfg.preload(), parts, buckets)
}

/// The routed rig (Jakiro, ServerReply, sharded Jakiro): keys are
/// partitioned across `servers × server_threads` shards, machine-major
/// (two-level EREW); every client holds one connection per shard and
/// routes each request to its owner. `staged` says whether the
/// transport runs RFP's client-side stages — overload admission and
/// fetch integrity only guard the remote-fetch path; a server-reply
/// comparator has no deadline-aware admission to stage.
fn spawn_routed_kv(
    sim: &mut Simulation,
    cfg: &SystemConfig,
    servers: usize,
    connect: Connect,
    staged: bool,
) -> KvSystem {
    let seating = cfg.seating(servers);
    let mut sys = KvSystem::bed(sim, &cfg.profile, &seating, cfg.rfp.recorder.as_ref());
    let shards = servers * cfg.server_threads;
    let partitions = preloaded(cfg, shards);
    let rfp_cfg = cfg.sized_rfp();
    let overload = staged && rfp_cfg.overload.is_some();
    if overload {
        sys.stats.register_overload_into(&sys.registry);
    }
    if staged && rfp_cfg.integrity {
        sys.stats.register_integrity_into(&sys.registry);
    }
    // Which policy stages each call carries.
    let policy = if overload {
        CallPolicy::admitted(None)
    } else {
        CallPolicy::default()
    };

    sys.server_conns = vec![Vec::new(); shards];
    for idx in 0..seating.clients() {
        let seat = sys.seat(&seating, idx);
        let mut ccfg = sys.client_cfg(&rfp_cfg, idx);
        if let Some(ov) = ccfg.overload.as_mut().filter(|_| staged) {
            // Decorrelate the per-client backoff jitter streams.
            ov.seed = derive_seed(ov.seed, idx as u64);
        }
        let conns = (0..shards)
            .map(|shard| {
                let server = shard / cfg.server_threads;
                sys.connect(&seat, server, connect, ccfg.clone(), shard)
            })
            .collect();
        let mut gen = cfg.spec.generator(seat.seed);
        sim.spawn(seat.windowed(
            conns,
            rfp_cfg.window,
            move || gen.next_op(),
            move |key| partition_of(key, shards),
            policy,
        ));
    }

    for (shard, conns) in sys.server_conns.iter().enumerate() {
        let machine = sys.cluster.machine(shard / cfg.server_threads);
        let thread = machine.thread(format!("s{}", shard % cfg.server_threads));
        let partition = Rc::clone(&partitions[shard]);
        let handler = kv_handler(partition, process_extra(cfg, shard as u64));
        sim.spawn(serve_loop(
            thread,
            conns.clone(),
            handler,
            SimSpan::nanos(100),
        ));
    }
    sys
}

/// Spawns Jakiro (RFP transport).
pub fn spawn_jakiro(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    spawn_routed_kv(sim, cfg, 1, connect, true)
}

/// Spawns the ServerReply comparator (same store, out-bound replies).
pub fn spawn_server_reply_kv(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    spawn_routed_kv(sim, cfg, 1, sr_connect, false)
}

/// Spawns Jakiro sharded over `servers` server machines.
///
/// The paper evaluates a single server (its bottleneck story is one
/// NIC's in-bound rate); its conclusion argues RFP "can be integrated
/// into many RPC-based systems", and its FaRM comparison cites a
/// 20-machine deployment. This is that deployment shape:
/// `cfg.client_machines` client machines follow the servers in the
/// cluster, `cfg.server_threads` is per server machine, and aggregate
/// throughput scales with server NICs until the clients' out-bound
/// capacity binds. With one server it *is* [`spawn_jakiro`].
///
/// # Panics
///
/// Panics if `servers` is zero.
pub fn spawn_sharded_jakiro(sim: &mut Simulation, cfg: &SystemConfig, servers: usize) -> KvSystem {
    assert!(servers > 0, "need at least one server shard");
    spawn_routed_kv(sim, cfg, servers, connect, true)
}

/// Seats every client with one connection, assigned to the server
/// threads round-robin (any thread can serve any key), and drives it
/// through the windowed driver with a constant route.
fn spawn_single_conn_clients(
    sim: &mut Simulation,
    cfg: &SystemConfig,
    sys: &mut KvSystem,
    connect: Connect,
) {
    let (seating, rfp_cfg) = (cfg.seating(1), cfg.sized_rfp());
    sys.server_conns = vec![Vec::new(); cfg.server_threads];
    for idx in 0..seating.clients() {
        let seat = sys.seat(&seating, idx);
        let ccfg = sys.client_cfg(&rfp_cfg, idx);
        let conn = sys.connect(&seat, 0, connect, ccfg, idx % cfg.server_threads);
        let mut gen = cfg.spec.generator(seat.seed);
        sim.spawn(seat.windowed(
            vec![conn],
            rfp_cfg.window,
            move || gen.next_op(),
            |_| 0,
            CallPolicy::default(),
        ));
    }
}

/// Spawns the RDMA-Memcached comparator: server-reply transport, shared
/// locked store, per-thread hot-key caches; clients are assigned to
/// server threads round-robin (any thread can serve any key).
pub fn spawn_memcached(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    let mut sys = KvSystem::bed(
        sim,
        &cfg.profile,
        &cfg.seating(1),
        cfg.rfp.recorder.as_ref(),
    );
    let store = McdStore::new((cfg.spec.key_count as usize * 2).max(1024));
    for (key, value) in cfg.preload() {
        store.preload(key, value);
    }
    spawn_single_conn_clients(sim, cfg, &mut sys, sr_connect);

    let groups = sys.server_conns.clone();
    spawn_pollers(sim, &sys.server_machine, "s", groups, |s| {
        let view = store.thread_view();
        let mut extra = process_extra(cfg, s as u64);
        async move |thread: &ThreadCtx, req: &[u8]| {
            let extra = extra();
            let resp = match KvRequest::decode(req).expect("well-formed request") {
                KvRequest::Get { key } => match view.get(thread, key).await {
                    Some(v) => KvResponse::Found(v),
                    None => KvResponse::NotFound,
                },
                KvRequest::Put { key, value } => {
                    view.put(thread, key, value.to_vec()).await;
                    KvResponse::Stored
                }
            };
            if !extra.is_zero() {
                thread.busy(extra).await;
            }
            resp.encode()
        }
    });
    sys
}

/// Spawns the EREW-ablation variant of Jakiro: the same store behind a
/// single shared lock accessed by all server threads (CREW-by-locking
/// instead of partitioning). Quantifies how much of Jakiro's mix- and
/// skew-insensitivity comes from the EREW design the paper adopts from
/// MICA/CPHash (§4.1).
pub fn spawn_jakiro_shared(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    // The serialized hold approximates the lock-protected portion of a
    // shared-structure access: reads only touch a recency stamp, writes
    // reorder the structure (cf. the MemC3/Memcached scalability
    // discussion the paper cites in §4.4.1).
    const SHARED_GET_HOLD: SimSpan = SimSpan::nanos(150);
    const SHARED_PUT_HOLD: SimSpan = SimSpan::nanos(400);

    let mut sys = KvSystem::bed(
        sim,
        &cfg.profile,
        &cfg.seating(1),
        cfg.rfp.recorder.as_ref(),
    );
    // One shared partition, one global lock.
    let store = preloaded(cfg, 1).remove(0);
    let lock = SimLock::new();
    spawn_single_conn_clients(sim, cfg, &mut sys, connect);

    let groups = sys.server_conns.clone();
    spawn_pollers(sim, &sys.server_machine, "s", groups, |s| {
        let (store, lock) = (Rc::clone(&store), lock.clone());
        let mut extra = process_extra(cfg, s as u64);
        async move |thread: &ThreadCtx, req: &[u8]| {
            let parsed = KvRequest::decode(req).expect("well-formed request");
            let hold = match &parsed {
                KvRequest::Get { .. } => SHARED_GET_HOLD,
                KvRequest::Put { .. } => SHARED_PUT_HOLD,
            };
            let extra = extra();
            let guard = lock.lock().await;
            let (resp, _work) = apply_to_partition(&mut store.borrow_mut(), &parsed);
            thread.busy(hold + extra).await;
            drop(guard);
            resp.encode()
        }
    });
    sys
}

/// The bypass rig (Pilaf, FaRM): GETs are client-driven one-sided reads
/// of the store's table (`scratch` bytes bound one fetch), PUTs go
/// through server-reply RPC to `PILAF_PUT_THREADS` server threads.
fn spawn_bypass_kv<S: BypassStore>(
    sim: &mut Simulation,
    cfg: &SystemConfig,
    scratch: usize,
    store: impl FnOnce(&Rc<Machine>) -> S,
) -> KvSystem {
    let seating = cfg.seating(1);
    let mut sys = KvSystem::bed(sim, &cfg.profile, &seating, cfg.rfp.recorder.as_ref());
    let rfp_cfg = cfg.sized_rfp();
    let store = Rc::new(store(&sys.server_machine));
    // Preload via the server-local path (setup time, no simulation
    // cost).
    for (key, value) in cfg.preload() {
        let inserted = store.insert_local(&key, &value);
        inserted.unwrap_or_else(|e| panic!("preload must fit the table: {e}"));
    }

    sys.server_conns = vec![Vec::new(); PILAF_PUT_THREADS];
    for idx in 0..seating.clients() {
        let seat = sys.seat(&seating, idx);
        let bypass = BypassClient::new(sys.cluster.qp(seat.machine.id().0, 0), scratch);
        let ccfg = sys.client_cfg(&rfp_cfg, idx);
        let put_cl = sys.connect(&seat, 0, sr_connect, ccfg, idx % PILAF_PUT_THREADS);
        let mut gen = cfg.spec.generator(seat.seed);
        let (thread, st, view) = (
            Rc::clone(&seat.thread),
            Rc::clone(&seat.stats),
            store.view(),
        );
        sim.spawn(seat.per_op(
            move || gen.next_op(),
            async move |op: &Op| match op {
                Op::Get { key } => {
                    let got = S::get(&bypass, &thread, &view, key).await;
                    st.bypass_ops.add(got.ops as u64);
                    st.crc_retries.add(got.crc_retries as u64);
                    Some(got.value.map_or(KvResponse::NotFound, KvResponse::Found))
                }
                Op::Put { .. } => {
                    let out = put_cl.call(&thread, &encode_op(op)).await;
                    Some(decode_resp(&out.data))
                }
            },
        ));
    }

    let groups = sys.server_conns.clone();
    spawn_pollers(sim, &sys.server_machine, "put", groups, |_| {
        let (store, extra) = (Rc::clone(&store), cfg.extra_process);
        async move |thread: &ThreadCtx, req: &[u8]| {
            // GETs are one-sided; the clients send these threads PUTs
            // only.
            let KvRequest::Put { key, value } =
                KvRequest::decode(req).expect("well-formed request")
            else {
                panic!("bypass PUT thread got a non-PUT request");
            };
            // Torn-window PUT: racing bypass GETs may observe it and
            // must CRC-retry.
            if let Err(e) = store.put(thread, key, value).await {
                panic!("bypass-store put failed: {e}");
            }
            if !extra.is_zero() {
                thread.busy(extra).await;
            }
            KvResponse::Stored.encode()
        }
    });
    sys
}

/// Cell size of a bypass store holding this workload's largest entry.
fn bypass_cell_size(cfg: &SystemConfig) -> usize {
    cell::len(cfg.spec.key_len, cfg.spec.values.max())
        .next_multiple_of(8)
        .max(64)
}

/// Spawns the Pilaf comparator: client-bypass GETs over the cuckoo/CRC
/// store (75%-filled, as the paper quotes), server-reply PUTs.
pub fn spawn_pilaf(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    let cell_size = bypass_cell_size(cfg);
    // 75% fill: buckets = keys / 0.75.
    let buckets = (cfg.spec.key_count as usize * 4 / 3).max(64);
    spawn_bypass_kv(sim, cfg, cell_size.max(512), |server| {
        PilafStore::new(server, buckets, buckets, cell_size)
    })
}

/// Spawns a FaRM-style comparator (paper §5): hopscotch-hashed inline
/// cells read by clients in **one** neighborhood-sized READ per GET
/// (fewer server ops than Pilaf, many more bytes than RFP); PUTs take
/// the server-reply path, as in FaRM.
pub fn spawn_farm(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    let cell_size = bypass_cell_size(cfg);
    // Hopscotch with H=8 sustains ~50% load before displacement fails;
    // FaRM trades table head-room for its one-read GETs.
    let buckets = (cfg.spec.key_count as usize * 2).max(64);
    spawn_bypass_kv(sim, cfg, (NEIGHBORHOOD * cell_size).max(512), |server| {
        FarmStore::new(server, buckets, cell_size)
    })
}

/// Spawns a HERD-style comparator (paper §5): same EREW bucket store as
/// Jakiro, but requests arrive as **UC** writes and responses leave as
/// **UD** sends — unreliable transports with client-side retransmission.
/// Faster than RC server-reply on message rate; unlike RFP, the server
/// burns out-bound ops and the application must tolerate loss.
pub fn spawn_herd(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    let seating = cfg.seating(1);
    let mut sys = KvSystem::bed(sim, &cfg.profile, &seating, cfg.rfp.recorder.as_ref());
    let partitions = preloaded(cfg, cfg.server_threads);
    let req_capacity = (rfp_core::REQ_HDR + 7 + cfg.spec.key_len + cfg.spec.values.max())
        .next_multiple_of(64)
        .max(256);

    let mut server_conns = vec![Vec::new(); cfg.server_threads];
    for idx in 0..seating.clients() {
        let seat = sys.seat(&seating, idx);
        let me = seat.machine.id().0;
        let mut conns = Vec::with_capacity(cfg.server_threads);
        for sconns in server_conns.iter_mut() {
            let (cl, sc) = herd_connect(
                &seat.machine,
                &sys.server_machine,
                sys.cluster.qp_typed(me, 0, Transport::Uc),
                sys.cluster.qp_typed(0, me, Transport::Ud),
                req_capacity,
            );
            conns.push(cl);
            sconns.push(Rc::new(sc));
        }
        let mut gen = cfg.spec.generator(seat.seed);
        let (thread, nthreads) = (Rc::clone(&seat.thread), cfg.server_threads);
        sim.spawn(seat.per_op(
            move || gen.next_op(),
            async move |op: &Op| {
                let conn = &conns[partition_of(op.key(), nthreads)];
                // `None`: retransmit budget exhausted (extreme loss);
                // skipped — an error RFP users never see.
                let data = conn.call(&thread, &encode_op(op)).await?;
                Some(decode_resp(&data))
            },
        ));
    }

    spawn_pollers(sim, &sys.server_machine, "s", server_conns, |s| {
        let partition = Rc::clone(&partitions[s]);
        let mut handle = kv_handler(partition, process_extra(cfg, s as u64));
        async move |thread: &ThreadCtx, req: &[u8]| {
            let (resp, work) = handle(req);
            if !work.is_zero() {
                thread.busy(work).await;
            }
            resp
        }
    });
    sys
}

/// Physical RFP connections (slot rings) of every fleet: the real
/// server cost, fixed however many logical clients ride them.
pub const FLEET_PHYSICAL_CONNS: usize = 24;
/// Server poller groups of every fleet; each owns a disjoint connection
/// shard.
pub const FLEET_POLLER_GROUPS: usize = 4;
/// Tenants of every fleet; drivers are spread across them round-robin.
pub const FLEET_TENANTS: u32 = 8;
/// Flooding drivers a [`FleetConfig::hot_tenant`] gets on top of the
/// baseline drivers.
const HOT_DRIVERS: usize = 8;

/// Load shape of a multiplexed client fleet (see [`spawn_fleet_kv`]);
/// the physical side is fixed by [`FLEET_PHYSICAL_CONNS`],
/// [`FLEET_POLLER_GROUPS`] and [`FLEET_TENANTS`].
#[derive(Clone)]
pub struct FleetConfig {
    /// Logical clients across the whole fleet. Free by design: every
    /// call takes a fresh lease, so an idle logical client never reaches
    /// the simulation, and any count from `drivers` up runs the same
    /// traffic.
    pub logical_clients: usize,
    /// Concurrently-active driver tasks cycling through the logical
    /// clients (the fleet's duty cycle: `drivers ≪ logical_clients`
    /// models mostly-idle clients).
    pub drivers: usize,
    /// When set, this tenant gets eight extra flooding drivers — the
    /// isolation scenario.
    pub hot_tenant: Option<u32>,
}

/// A running multiplexed fleet: N logical clients over M physical
/// connections over ≤ 2 QP pairs per client machine, served by sharded
/// tenant-aware poller groups. Derefs to its [`KvSystem`] (cluster,
/// stats, registry — additionally `serve.scan.*` and
/// `kv.tenant.<t>.goodput` — spans, server machine, driver threads;
/// `rfp_clients` are the physical connections, `server_conns` the
/// poller groups' shards), so
/// [`reset_measurements`](KvSystem::reset_measurements) discards the
/// fleet's warm-up too (mux lease counters keep running).
pub struct FleetKv {
    /// The underlying system.
    pub kv: KvSystem,
    /// One mux per client machine.
    pub muxes: Vec<Rc<RfpMux>>,
    /// Completed-Ok calls per tenant (index = tenant id).
    pub tenant_goodput: Vec<Rc<Counter>>,
}

impl Deref for FleetKv {
    type Target = KvSystem;

    fn deref(&self) -> &KvSystem {
        &self.kv
    }
}

impl FleetKv {
    /// Per-tenant completed-Ok calls, in tenant order.
    pub fn tenant_goodput(&self) -> Vec<u64> {
        self.tenant_goodput.iter().map(|g| g.get()).collect()
    }
}

/// Spawns a multiplexed KV fleet: `fleet.logical_clients` logical
/// clients over [`FLEET_PHYSICAL_CONNS`] slot rings, one shared QP pair
/// per client machine (QP virtualization), a single shared store
/// partition, and [`FLEET_POLLER_GROUPS`] tenant-aware server loops
/// ([`serve_loop_tenant`]) over disjoint connection shards.
///
/// Drivers run the overload-aware call path, so `cfg.rfp` must carry
/// overload control.
pub fn spawn_fleet_kv(sim: &mut Simulation, cfg: &SystemConfig, fleet: &FleetConfig) -> FleetKv {
    assert!(
        cfg.rfp.overload.is_some(),
        "fleet drivers use call_overload; set cfg.rfp.overload"
    );
    assert!(fleet.drivers > 0, "a fleet needs drivers");
    let machines = cfg.client_machines.min(FLEET_PHYSICAL_CONNS);
    let seating = Seating {
        machines,
        ..cfg.seating(1)
    };
    let mut sys = KvSystem::bed(sim, &cfg.profile, &seating, cfg.rfp.recorder.as_ref());
    sys.stats.register_overload_into(&sys.registry);
    let rfp_cfg = cfg.sized_rfp();

    // One shared partition: any poller group can serve any key (the
    // mux may land a tenant on any connection). Synchronous borrows in
    // a single-threaded sim — no lock needed.
    let part = preloaded(cfg, 1).remove(0);

    // One QP pair per client machine, shared by every connection on it:
    // the whole fleet rides `2 * machines` QP endpoints per side.
    let qp_pairs: Vec<_> = (0..machines)
        .map(|m| (sys.cluster.qp(1 + m, 0), sys.cluster.qp(0, 1 + m)))
        .collect();

    // Physical connections, round-robin across client machines.
    let mut per_machine_clients = vec![Vec::new(); machines];
    let mut server_conns = Vec::with_capacity(FLEET_PHYSICAL_CONNS);
    for k in 0..FLEET_PHYSICAL_CONNS {
        let m = k % machines;
        let mut ccfg = sys.client_cfg(&rfp_cfg, k);
        if let Some(ov) = &mut ccfg.overload {
            ov.seed = derive_seed(ov.seed, k as u64);
        }
        let (cl, sc) = connect(
            &sys.cluster.machine(1 + m),
            &sys.server_machine,
            Rc::clone(&qp_pairs[m].0),
            Rc::clone(&qp_pairs[m].1),
            ccfg,
        );
        let cl = Rc::new(cl);
        sys.rfp_clients.push(Rc::clone(&cl));
        per_machine_clients[m].push(cl);
        server_conns.push(Rc::new(sc));
    }

    // One mux per client machine.
    let muxes: Vec<Rc<RfpMux>> = per_machine_clients.into_iter().map(RfpMux::new).collect();

    let tenant_goodput: Vec<Rc<Counter>> = (0..FLEET_TENANTS)
        .map(|t| {
            let goodput = Rc::new(Counter::new());
            let name = format!("kv.tenant.{t}.goodput");
            sys.registry.register_counter(&name, &goodput);
            goodput
        })
        .collect();

    // Drivers: `fleet.drivers` baseline tasks cycling disjoint slices
    // of the logical fleet, then `HOT_DRIVERS` flooding tasks pinned to
    // the hot tenant, if there is one.
    let hot_tenants = fleet
        .hot_tenant
        .into_iter()
        .flat_map(|t| std::iter::repeat_n(t, HOT_DRIVERS));
    let tenants = (0..fleet.drivers as u32).map(|d| d % FLEET_TENANTS);
    for (d, tenant) in tenants.chain(hot_tenants).enumerate() {
        let hot = d >= fleet.drivers;
        let mux = &muxes[d % machines];
        // A baseline driver owns every logical client ≡ d (mod drivers);
        // a hot driver hammers through one dedicated logical client.
        let logicals: Vec<_> = if hot {
            vec![mux.logical_client(TenantId(tenant))]
        } else {
            (0..fleet.logical_clients)
                .filter(|l| l % fleet.drivers == d)
                .map(|_| mux.logical_client(TenantId(tenant)))
                .collect()
        };
        if logicals.is_empty() {
            continue;
        }
        let machine = sys.cluster.machine(1 + d % machines);
        let thread = machine.thread(format!("drv{d}"));
        sys.client_threads.push(Rc::clone(&thread));
        let seed = derive_seed(cfg.seed, 0xF1EE_7000 + d as u64);
        // Hot drivers flood: no think time.
        let think = if hot { SimSpan::ZERO } else { cfg.think_time };
        let seat = Seat {
            machine,
            thread: Rc::clone(&thread),
            seed,
            h: sim.handle(),
            stats: Rc::clone(&sys.stats),
            pacer: Pacer::new(derive_seed(seed, 0x0074_6869), think),
        };
        let mut gen = cfg.spec.generator(seed);
        let (st, goodput) = (
            Rc::clone(&sys.stats),
            Rc::clone(&tenant_goodput[tenant as usize]),
        );
        let mut next = 0usize;
        sim.spawn(seat.per_op(
            move || gen.next_op(),
            async move |op: &Op| {
                // Cycle the slice so every logical client stays live.
                let lc = &logicals[next % logicals.len()];
                next += 1;
                let out = lc.call_overload(&thread, &encode_op(op)).await;
                match out.info.status {
                    RespStatus::Ok => {
                        goodput.incr();
                        Some(decode_resp(&out.data))
                    }
                    RespStatus::Busy => {
                        st.rejected_busy.incr();
                        None
                    }
                    _ => {
                        st.rejected_shed.incr();
                        None
                    }
                }
            },
        ));
    }

    // Sharded tenant-aware poller groups, one server thread each.
    sys.server_conns = shard_conns(&server_conns, FLEET_POLLER_GROUPS);
    for (g, group) in sys.server_conns.iter().enumerate() {
        let thread = sys.server_machine.thread(format!("pg{g}"));
        let handler = kv_handler(Rc::clone(&part), process_extra(cfg, 0xF1EE + g as u64));
        sim.spawn(serve_loop_tenant(
            thread,
            group.clone(),
            handler,
            SimSpan::nanos(100),
        ));
    }

    FleetKv {
        kv: sys,
        muxes,
        tenant_goodput,
    }
}
