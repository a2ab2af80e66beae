//! Full-system assembly of the four key-value stores the paper
//! evaluates, on a simulated cluster shaped like its testbed (one server
//! machine plus client machines behind one switch, §4.2).
//!
//! * [`spawn_jakiro`] — Jakiro: RFP transport, EREW-partitioned bucket
//!   table, requests routed to the owning server thread by key.
//! * [`spawn_server_reply_kv`] — ServerReply: identical store and
//!   routing, but the server pushes results with out-bound WRITE.
//! * [`spawn_memcached`] — RDMA-Memcached-like: server-reply transport,
//!   shared LRU store behind a lock, per-thread hot-key caches.
//! * [`spawn_pilaf`] — Pilaf-like: GETs are client-driven one-sided
//!   reads over the cuckoo/CRC store, PUTs go through server-reply RPC.
//!
//! Every spawner returns a [`KvSystem`] whose client loops run forever;
//! the caller warms up, calls [`KvSystem::reset_measurements`], runs the
//! measurement window, and reads [`KvStats`].

use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, serve_loop_tenant, shard_conns, CallPolicy, MuxConfig, RespStatus,
    RfpClient, RfpConfig, RfpMux, RfpServerConn, RfpTelemetry, TenantId, RESP_HDR,
};
use rfp_paradigms::{sr_connect, BypassClient};
use rfp_rnic::{Cluster, ClusterProfile, Machine, ThreadCtx};
use rfp_simnet::{
    Counter, HealthHub, Histogram, MetricsRegistry, SimSpan, Simulation, SpanRecorder,
};
use rfp_workload::{Op, WorkloadSpec};

use crate::bucket::Partition;
use crate::cuckoo::{bypass_get, PilafStore};
use crate::hash::partition_of;
use crate::mcd::{McdCosts, McdStore};
use crate::proto::{KvRequest, KvResponse};

use std::cell::RefCell;

/// Simulated CPU cost of one Jakiro/ServerReply GET (hash + copy).
pub const KV_GET_WORK: SimSpan = SimSpan::nanos(150);
/// Simulated CPU cost of one Jakiro/ServerReply PUT.
pub const KV_PUT_WORK: SimSpan = SimSpan::nanos(200);

/// Shared measurement bundle, updated by every client loop.
///
/// The instruments are `Rc`-shared so a [`MetricsRegistry`] can export
/// them under the `kv.*` namespace (see [`KvStats::register_into`]).
#[derive(Default)]
pub struct KvStats {
    /// Completed requests.
    pub completed: Rc<Counter>,
    /// Completed GETs.
    pub gets: Rc<Counter>,
    /// Completed PUTs.
    pub puts: Rc<Counter>,
    /// GETs that found no value.
    pub misses: Rc<Counter>,
    /// End-to-end request latencies.
    pub latency: Rc<Histogram>,
    /// One-sided ops spent by bypass GETs (Pilaf only).
    pub bypass_ops: Rc<Counter>,
    /// Checksum-failure rereads observed by bypass GETs (Pilaf only).
    pub crc_retries: Rc<Counter>,
    /// Requests answered `Busy` by admission control (overload only).
    pub rejected_busy: Rc<Counter>,
    /// Requests shed for a missed deadline (overload only).
    pub rejected_shed: Rc<Counter>,
    /// Corrupt fetched images discarded and refetched by the RFP
    /// integrity layer before the response surfaced (integrity only).
    pub integrity_retries: Rc<Counter>,
}

impl KvStats {
    /// Clears everything (discard warm-up).
    pub fn reset(&self) {
        self.completed.reset();
        self.gets.reset();
        self.puts.reset();
        self.misses.reset();
        self.latency.reset();
        self.bypass_ops.reset();
        self.crc_retries.reset();
        self.rejected_busy.reset();
        self.rejected_shed.reset();
        self.integrity_retries.reset();
    }

    /// Exposes every instrument in `registry` under `kv.*`.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_counter("kv.completed", &self.completed);
        registry.register_counter("kv.gets", &self.gets);
        registry.register_counter("kv.puts", &self.puts);
        registry.register_counter("kv.misses", &self.misses);
        registry.register_histogram("kv.latency", &self.latency);
        registry.register_counter("kv.bypass.ops", &self.bypass_ops);
        registry.register_counter("kv.bypass.crc_retries", &self.crc_retries);
    }

    /// Additionally exposes the overload rejection counters. Called only
    /// when the subsystem is on, so runs without it keep their exported
    /// metric rows unchanged.
    pub fn register_overload_into(&self, registry: &MetricsRegistry) {
        registry.register_counter("kv.rejected.busy", &self.rejected_busy);
        registry.register_counter("kv.rejected.shed", &self.rejected_shed);
    }

    /// Additionally exposes the fetch-integrity counter. Like the
    /// overload registration, called only when the integrity layer is
    /// on, so integrity-off runs export the same metric rows as before.
    pub fn register_integrity_into(&self, registry: &MetricsRegistry) {
        registry.register_counter("kv.integrity_retries", &self.integrity_retries);
    }
}

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
    /// Memcached comparator cost model.
    pub mcd_costs: McdCosts,
    /// Server threads dedicated to PUTs in the Pilaf comparator.
    pub pilaf_put_threads: usize,
    /// Probability that a request suffers an unexpectedly long process
    /// time (the paper measures ~0.2% of such outliers, §4.4.2; they
    /// create the latency tail of Figure 13 and the retry tail of
    /// Table 3, and are what the mode-switch hysteresis guards against).
    pub outlier_prob: f64,
    /// Extra process time of an outlier request, drawn uniformly from
    /// this range.
    pub outlier_extra: (SimSpan, SimSpan),
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
            mcd_costs: McdCosts::default(),
            pilaf_put_threads: 2,
            outlier_prob: 0.002,
            outlier_extra: (SimSpan::micros(3), SimSpan::micros(10)),
            think_time: SimSpan::ZERO,
            seed: 42,
        }
    }
}

/// Deterministic generator of the rare slow-request outliers.
struct OutlierGen {
    rng: rand::rngs::StdRng,
    prob: f64,
    min_ns: u64,
    max_ns: u64,
}

impl OutlierGen {
    fn new(cfg: &SystemConfig, stream: u64) -> Self {
        use rand::SeedableRng;
        OutlierGen {
            rng: rand::rngs::StdRng::seed_from_u64(rfp_simnet::derive_seed(
                cfg.seed,
                0xBAD0 + stream,
            )),
            prob: cfg.outlier_prob,
            min_ns: cfg.outlier_extra.0.as_nanos(),
            max_ns: cfg
                .outlier_extra
                .1
                .as_nanos()
                .max(cfg.outlier_extra.0.as_nanos() + 1),
        }
    }

    /// Extra process time for the next request (usually zero).
    fn draw(&mut self) -> SimSpan {
        use rand::Rng;
        if self.prob > 0.0 && self.rng.gen::<f64>() < self.prob {
            SimSpan::nanos(self.rng.gen_range(self.min_ns..self.max_ns))
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

    /// Buffer capacities sized for this workload.
    pub(crate) fn rfp_sized(&self) -> RfpConfig {
        self.sized_rfp()
    }

    fn sized_rfp(&self) -> RfpConfig {
        let max_val = self.spec.values.max();
        // Integrity-stamped responses carry the 32-byte extended header
        // plus the 8-byte trailing canary.
        let resp_overhead = if self.rfp.integrity.enabled {
            rfp_core::RESP_HDR_EXT + rfp_core::RESP_TRAILER
        } else {
            RESP_HDR
        };
        let resp = (resp_overhead + 5 + max_val)
            .next_multiple_of(64)
            .max(256)
            .max(self.rfp.fetch_size);
        // Deadline-stamped requests carry the 16-byte extended header.
        let hdr = if self.rfp.overload.enabled {
            rfp_core::REQ_HDR_EXT
        } else {
            rfp_core::REQ_HDR
        };
        let req = (hdr + 7 + self.spec.key_len + max_val)
            .next_multiple_of(64)
            .max(256);
        RfpConfig {
            resp_capacity: resp,
            req_capacity: req,
            ..self.rfp.clone()
        }
    }
}

/// Retained finished request spans per system: enough to keep the tail
/// of a measurement window without unbounded memory growth.
const SPAN_CAPACITY: usize = 4096;

/// One registry + span ring per system: NIC engines and the `kv.*`
/// stats are registered up front; RFP connections add their own
/// `rfp.client.<n>.*` instruments lazily. When the base RFP config
/// carries a flight recorder, the cluster NICs report wire-level events
/// into it as well.
fn system_telemetry(
    cluster: &Cluster,
    stats: &KvStats,
    rfp: &RfpConfig,
) -> (MetricsRegistry, SpanRecorder) {
    let registry = MetricsRegistry::new();
    cluster.attach_metrics(&registry);
    stats.register_into(&registry);
    if let Some(recorder) = &rfp.recorder {
        cluster.attach_recorder(recorder);
    }
    (registry, SpanRecorder::new(SPAN_CAPACITY))
}

/// `base` specialised for client `idx`: instruments land under
/// `rfp.client.<idx>.*`, spans render on Chrome-trace row `idx`, and —
/// when a [`HealthHub`](rfp_simnet::HealthHub) is configured — health
/// samples land in the hub's connection `idx`.
fn client_rfp_cfg(
    base: &RfpConfig,
    registry: &MetricsRegistry,
    spans: &SpanRecorder,
    idx: usize,
) -> RfpConfig {
    RfpConfig {
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: format!("rfp.client.{idx}"),
            track: idx as u32,
        }),
        conn_id: idx as u32,
        ..base.clone()
    }
}

/// A running system: clients loop forever; sample the stats between
/// `run_for` windows.
pub struct KvSystem {
    /// The simulated cluster (machine 0 is the server).
    pub cluster: Cluster,
    /// Shared measurements.
    pub stats: Rc<KvStats>,
    /// Unified instrument registry (`nic.*`, `kv.*`, `rfp.client.*`).
    pub registry: MetricsRegistry,
    /// Finished request-lifecycle spans (RFP transports only).
    pub spans: SpanRecorder,
    /// The server machine.
    pub server_machine: Rc<Machine>,
    /// All client threads (for utilisation readings).
    pub client_threads: Vec<Rc<ThreadCtx>>,
    /// All RFP client endpoints (for retry/switch stats); empty for the
    /// bypass GET path.
    pub rfp_clients: Vec<Rc<RfpClient>>,
    /// Server-side connections grouped by owning server thread (empty
    /// for systems without RFP server endpoints); feeds the per-thread
    /// load-balance accounting of §4.4.3.
    pub server_conns: Vec<Vec<Rc<RfpServerConn>>>,
}

impl KvSystem {
    /// Discards warm-up: clears stats, NIC counters, utilisation
    /// windows and per-connection client stats.
    pub fn reset_measurements(&self) {
        self.stats.reset();
        for i in 0..self.cluster.len() {
            self.cluster.machine(i).nic().reset_counters();
        }
        for t in &self.client_threads {
            t.reset_utilization();
        }
        for c in &self.rfp_clients {
            c.stats().reset();
        }
        // Registered instruments overlap the resets above (same Rc
        // cells); this additionally clears client-connection counters
        // and the diff baseline, and drops warm-up spans.
        self.registry.reset();
        self.spans.reset();
    }

    /// Mean client CPU utilisation (Figure 15's metric).
    pub fn mean_client_utilization(&self) -> f64 {
        if self.client_threads.is_empty() {
            return 0.0;
        }
        self.client_threads
            .iter()
            .map(|t| t.utilization())
            .sum::<f64>()
            / self.client_threads.len() as f64
    }

    /// Requests served per server thread (for EREW load-balance checks:
    /// the paper finds the most-loaded thread <25% above the least under
    /// Zipf(.99), §4.4.3).
    pub fn served_per_thread(&self) -> Vec<u64> {
        self.server_conns
            .iter()
            .map(|conns| conns.iter().map(|c| c.served()).sum())
            .collect()
    }

    /// Server in-bound ops per completed request (§4.3's round-trip
    /// accounting; Jakiro measures 2.005).
    pub fn inbound_ops_per_request(&self) -> f64 {
        let ops = self.server_machine.nic().counters().inbound_ops;
        let done = self.stats.completed.get();
        if done == 0 {
            return 0.0;
        }
        ops as f64 / done as f64
    }
}

pub(crate) fn record_outcome(stats: &KvStats, op: &Op, resp: &KvResponse, latency: SimSpan) {
    stats.completed.incr();
    stats.latency.record(latency);
    match op {
        Op::Get { .. } => {
            stats.gets.incr();
            if matches!(resp, KvResponse::NotFound) {
                stats.misses.incr();
            }
        }
        Op::Put { .. } => stats.puts.incr(),
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
        KvRequest::Delete { key } => {
            let found = partition.remove(key).is_some();
            (KvResponse::Deleted(found), KV_PUT_WORK)
        }
        KvRequest::MultiGet { keys } => {
            let values = keys
                .iter()
                .map(|k| partition.get(k).map(<[u8]>::to_vec))
                .collect::<Vec<_>>();
            // One lookup's full cost plus a cheaper per-extra-key walk.
            let work = KV_GET_WORK + SimSpan::nanos(80) * (keys.len() as u64 - 1);
            (KvResponse::Values(values), work)
        }
    }
}

fn kv_handler(
    partition: Rc<RefCell<Partition>>,
    extra: SimSpan,
    mut outliers: OutlierGen,
) -> impl FnMut(&[u8]) -> (Vec<u8>, SimSpan) {
    move |req: &[u8]| {
        let parsed = KvRequest::decode(req).expect("client sent well-formed request");
        let jitter = outliers.draw();
        let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
        (resp.encode(), work + extra + jitter)
    }
}

/// Preloaded, EREW-partitioned bucket table (one partition per server
/// thread).
fn build_partitions(cfg: &SystemConfig) -> Vec<Rc<RefCell<Partition>>> {
    let per_part = (cfg.spec.key_count as usize * 2 / cfg.server_threads / 8).max(64);
    let parts: Vec<Rc<RefCell<Partition>>> = (0..cfg.server_threads)
        .map(|_| Rc::new(RefCell::new(Partition::new(per_part))))
        .collect();
    let mut gen = cfg.spec.generator(cfg.seed);
    for (key, value) in gen.preload(cfg.spec.key_count) {
        let p = partition_of(&key, cfg.server_threads);
        parts[p].borrow_mut().put(&key, &value);
    }
    parts
}

/// Common wiring for Jakiro and ServerReply-KV (which differ only in
/// transport pinning).
fn spawn_routed_kv(sim: &mut Simulation, cfg: &SystemConfig, server_reply: bool) -> KvSystem {
    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    let partitions = build_partitions(cfg);
    let rfp_cfg = cfg.sized_rfp();
    // Overload control only guards the remote-fetch transport; the
    // server-reply comparator has no deadline-aware admission path.
    let overload = !server_reply && rfp_cfg.overload.enabled;
    if overload {
        stats.register_overload_into(&registry);
    }
    // Likewise integrity only guards the remote-fetch transport.
    if !server_reply && rfp_cfg.integrity.enabled {
        stats.register_integrity_into(&registry);
    }

    // Per server thread: the connections it polls.
    let mut server_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.server_threads).map(|_| Vec::new()).collect();
    let mut rfp_clients = Vec::new();
    let mut client_threads = Vec::new();

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            // One connection per server thread (requests are routed to
            // the partition owner — EREW).
            let idx = m * cfg.clients_per_machine + t;
            let mut ccfg = client_rfp_cfg(&rfp_cfg, &registry, &spans, idx);
            if overload {
                // Decorrelate the per-client backoff jitter streams.
                ccfg.overload.seed = rfp_simnet::derive_seed(rfp_cfg.overload.seed, idx as u64);
            }
            let mut conns = Vec::with_capacity(cfg.server_threads);
            for sconns in server_conns.iter_mut() {
                let (cl, sc) = if server_reply {
                    sr_connect(
                        &client_m,
                        &server_m,
                        cluster.qp(1 + m, 0),
                        cluster.qp(0, 1 + m),
                        ccfg.clone(),
                    )
                } else {
                    connect(
                        &client_m,
                        &server_m,
                        cluster.qp(1 + m, 0),
                        cluster.qp(0, 1 + m),
                        ccfg.clone(),
                    )
                };
                let cl = Rc::new(cl);
                rfp_clients.push(Rc::clone(&cl));
                conns.push(cl);
                sconns.push(Rc::new(sc));
            }

            // The client loop.
            let spec = cfg.spec.clone();
            let seed = rfp_simnet::derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = stats.clone();
            let nthreads = cfg.server_threads;
            let think = cfg.think_time;
            let window = rfp_cfg.window;
            // The one thing that differs between client flavours: which
            // policy stages each call carries.
            let policy = if overload {
                CallPolicy::admitted(None)
            } else {
                CallPolicy::default()
            };
            let h = sim.handle();
            sim.spawn(async move {
                use rand::{Rng, SeedableRng};
                let mut gen = spec.generator(seed);
                let mut pause_rng = rand::rngs::StdRng::seed_from_u64(rfp_simnet::derive_seed(
                    seed,
                    0x0074_6869_6E6B,
                ));
                // Reused across rounds: a call allocates only its bytes.
                let mut ops: Vec<Op> = Vec::with_capacity(window);
                let mut buckets: Vec<Vec<usize>> = (0..nthreads).map(|_| Vec::new()).collect();
                let mut reqs: Vec<Vec<u8>> = Vec::new();
                loop {
                    if !think.is_zero() {
                        // Exponential think time ⇒ Poisson-ish offered
                        // load per client.
                        let u: f64 = pause_rng.gen_range(1e-9..1.0);
                        let pause = think.as_nanos() as f64 * -u.ln();
                        h.sleep(SimSpan::from_nanos_f64(pause)).await;
                    }
                    // Multi-get pattern: draw one ring window's worth of
                    // ops (one op on the paper's one-slot ring), bucket
                    // them by partition owner, and run each bucket
                    // through the call engine — up to `W` calls ride one
                    // connection concurrently, their fetch polls sharing
                    // doorbells.
                    ops.clear();
                    ops.extend((0..window).map(|_| gen.next_op()));
                    for (i, op) in ops.iter().enumerate() {
                        buckets[partition_of(op.key(), nthreads)].push(i);
                    }
                    for (p, bucket) in buckets.iter_mut().enumerate() {
                        if bucket.is_empty() {
                            continue;
                        }
                        reqs.clear();
                        reqs.extend(bucket.iter().map(|&i| match &ops[i] {
                            Op::Get { key } => KvRequest::Get { key }.encode(),
                            Op::Put { key, value } => KvRequest::Put { key, value }.encode(),
                        }));
                        conns[p]
                            .run(&thread, &reqs, policy, |i, out| {
                                let out = out.expect("no recovery stage, so no RpcError");
                                if out.info.integrity_retries > 0 {
                                    st.integrity_retries.add(out.info.integrity_retries as u64);
                                }
                                match out.info.status {
                                    RespStatus::Ok => {
                                        let resp =
                                            KvResponse::decode(&out.data).expect("server response");
                                        record_outcome(
                                            &st,
                                            &ops[bucket[i]],
                                            &resp,
                                            out.info.latency,
                                        );
                                    }
                                    // Rejected under overload: no payload
                                    // to decode, and rejections never
                                    // count as goodput.
                                    RespStatus::Busy => st.rejected_busy.incr(),
                                    _ => st.rejected_shed.incr(),
                                }
                            })
                            .await;
                        bucket.clear();
                    }
                }
            });
        }
    }

    // The server threads.
    for (s, conns) in server_conns.iter().enumerate() {
        let thread = server_m.thread(format!("s{s}"));
        let handler = kv_handler(
            Rc::clone(&partitions[s]),
            cfg.extra_process,
            OutlierGen::new(cfg, s as u64),
        );
        sim.spawn(serve_loop(
            thread,
            conns.clone(),
            handler,
            SimSpan::nanos(100),
        ));
    }

    KvSystem {
        server_machine: server_m,
        cluster,
        stats,
        registry,
        spans,
        client_threads,
        rfp_clients,
        server_conns,
    }
}

/// Spawns Jakiro (RFP transport).
pub fn spawn_jakiro(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    spawn_routed_kv(sim, cfg, false)
}

/// Spawns the ServerReply comparator (same store, out-bound replies).
pub fn spawn_server_reply_kv(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    spawn_routed_kv(sim, cfg, true)
}

/// Spawns the RDMA-Memcached comparator: server-reply transport, shared
/// locked store, per-thread hot-key caches; clients are assigned to
/// server threads round-robin (any thread can serve any key).
pub fn spawn_memcached(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    let rfp_cfg = cfg.sized_rfp();

    let store = McdStore::new(
        (cfg.spec.key_count as usize * 2).max(1024),
        cfg.mcd_costs.clone(),
    );
    let mut gen = cfg.spec.generator(cfg.seed);
    for (key, value) in gen.preload(cfg.spec.key_count) {
        store.preload(key, value);
    }

    let mut server_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.server_threads).map(|_| Vec::new()).collect();
    let mut rfp_clients = Vec::new();
    let mut client_threads = Vec::new();
    let mut client_idx = 0usize;

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            let (cl, sc) = sr_connect(
                &client_m,
                &server_m,
                cluster.qp(1 + m, 0),
                cluster.qp(0, 1 + m),
                client_rfp_cfg(&rfp_cfg, &registry, &spans, client_idx),
            );
            let cl = Rc::new(cl);
            rfp_clients.push(Rc::clone(&cl));
            server_conns[client_idx % cfg.server_threads].push(Rc::new(sc));
            client_idx += 1;

            let spec = cfg.spec.clone();
            let seed = rfp_simnet::derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = stats.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let mut gen = spec.generator(seed);
                loop {
                    let op = gen.next_op();
                    let req = match &op {
                        Op::Get { key } => KvRequest::Get { key }.encode(),
                        Op::Put { key, value } => KvRequest::Put { key, value }.encode(),
                    };
                    let t0 = h.now();
                    let out = cl.call(&thread, &req).await;
                    let resp = KvResponse::decode(&out.data).expect("server response");
                    record_outcome(&st, &op, &resp, h.now() - t0);
                }
            });
        }
    }

    for (s, conns) in server_conns.into_iter().enumerate() {
        if conns.is_empty() {
            continue;
        }
        let thread = server_m.thread(format!("s{s}"));
        let view = store.thread_view();
        let extra = cfg.extra_process;
        let mut outliers = OutlierGen::new(cfg, s as u64);
        sim.spawn(async move {
            loop {
                let mut served = false;
                for conn in &conns {
                    if let Some(req) = conn.try_recv(&thread).await {
                        let parsed = KvRequest::decode(&req).expect("well-formed request");
                        let jitter = outliers.draw();
                        let resp = match parsed {
                            KvRequest::Get { key } => match view.get(&thread, key).await {
                                Some(v) => KvResponse::Found(v),
                                None => KvResponse::NotFound,
                            },
                            KvRequest::Put { key, value } => {
                                view.put(&thread, key, value.to_vec()).await;
                                KvResponse::Stored
                            }
                            KvRequest::Delete { key } => {
                                KvResponse::Deleted(view.delete(&thread, key).await)
                            }
                            KvRequest::MultiGet { keys } => {
                                let mut values = Vec::with_capacity(keys.len());
                                for key in keys {
                                    values.push(view.get(&thread, key).await);
                                }
                                KvResponse::Values(values)
                            }
                        };
                        if !(extra + jitter).is_zero() {
                            thread.busy(extra + jitter).await;
                        }
                        conn.send(&thread, &resp.encode()).await;
                        served = true;
                    }
                }
                if !served {
                    thread.busy(SimSpan::nanos(100)).await;
                }
            }
        });
    }

    KvSystem {
        server_machine: server_m,
        cluster,
        stats,
        registry,
        spans,
        client_threads,
        rfp_clients,
        server_conns: Vec::new(),
    }
}

/// Spawns the Pilaf comparator: client-bypass GETs over the cuckoo/CRC
/// store (75%-filled, as the paper quotes), server-reply PUTs.
pub fn spawn_pilaf(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    let rfp_cfg = cfg.sized_rfp();

    // 75% fill: buckets = keys / 0.75.
    let buckets = (cfg.spec.key_count as usize * 4 / 3).max(64);
    let cell_size = (6 + cfg.spec.key_len + cfg.spec.values.max() + 8)
        .next_multiple_of(8)
        .max(64);
    let store = Rc::new(PilafStore::new(&server_m, buckets, buckets, cell_size));
    {
        // Preload via the server-local path (setup time, no simulation
        // cost).
        let mut gen = cfg.spec.generator(cfg.seed);
        for (key, value) in gen.preload(cfg.spec.key_count) {
            store
                .insert_local(&key, &value)
                .expect("preload fits the 75%-filled table");
        }
    }

    let mut put_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.pilaf_put_threads).map(|_| Vec::new()).collect();
    let mut rfp_clients = Vec::new();
    let mut client_threads = Vec::new();
    let mut client_idx = 0usize;

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            let bypass = BypassClient::new(cluster.qp(1 + m, 0), cell_size.max(512));
            let (put_cl, put_sc) = sr_connect(
                &client_m,
                &server_m,
                cluster.qp(1 + m, 0),
                cluster.qp(0, 1 + m),
                client_rfp_cfg(&rfp_cfg, &registry, &spans, client_idx),
            );
            let put_cl = Rc::new(put_cl);
            rfp_clients.push(Rc::clone(&put_cl));
            put_conns[client_idx % cfg.pilaf_put_threads].push(Rc::new(put_sc));
            client_idx += 1;

            let spec = cfg.spec.clone();
            let seed = rfp_simnet::derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = stats.clone();
            let view = store.view();
            let h = sim.handle();
            sim.spawn(async move {
                let mut gen = spec.generator(seed);
                loop {
                    let op = gen.next_op();
                    let t0 = h.now();
                    match &op {
                        Op::Get { key } => {
                            let got = bypass_get(&bypass, &thread, &view, key).await;
                            st.bypass_ops.add(got.ops as u64);
                            st.crc_retries.add(got.crc_retries as u64);
                            let resp = match got.value {
                                Some(v) => KvResponse::Found(v),
                                None => KvResponse::NotFound,
                            };
                            record_outcome(&st, &op, &resp, h.now() - t0);
                        }
                        Op::Put { key, value } => {
                            let req = KvRequest::Put { key, value }.encode();
                            let out = put_cl.call(&thread, &req).await;
                            let resp = KvResponse::decode(&out.data).expect("server response");
                            record_outcome(&st, &op, &resp, h.now() - t0);
                        }
                    }
                }
            });
        }
    }

    for (s, conns) in put_conns.into_iter().enumerate() {
        if conns.is_empty() {
            continue;
        }
        let thread = server_m.thread(format!("put{s}"));
        let store = Rc::clone(&store);
        let extra = cfg.extra_process;
        sim.spawn(async move {
            loop {
                let mut served = false;
                for conn in &conns {
                    if let Some(req) = conn.try_recv(&thread).await {
                        let parsed = KvRequest::decode(&req).expect("well-formed request");
                        let resp = match parsed {
                            KvRequest::Put { key, value } => {
                                // Torn-window PUT: racing bypass GETs
                                // may observe it and must CRC-retry.
                                match store.put(&thread, key, value).await {
                                    Ok(()) => KvResponse::Stored,
                                    Err(e) => panic!("pilaf put failed: {e}"),
                                }
                            }
                            KvRequest::Get { key } => {
                                // Fallback path (unused by the standard
                                // workload driver, but kept honest).
                                match store.lookup_local(key) {
                                    Some(v) => KvResponse::Found(v),
                                    None => KvResponse::NotFound,
                                }
                            }
                            KvRequest::Delete { key } => {
                                KvResponse::Deleted(store.remove_local(key))
                            }
                            KvRequest::MultiGet { keys } => KvResponse::Values(
                                keys.iter().map(|k| store.lookup_local(k)).collect(),
                            ),
                        };
                        if !extra.is_zero() {
                            thread.busy(extra).await;
                        }
                        conn.send(&thread, &resp.encode()).await;
                        served = true;
                    }
                }
                if !served {
                    thread.busy(SimSpan::nanos(100)).await;
                }
            }
        });
    }

    KvSystem {
        server_machine: server_m,
        cluster,
        stats,
        registry,
        spans,
        client_threads,
        rfp_clients,
        server_conns: Vec::new(),
    }
}

/// Spawns a HERD-style comparator (paper §5): same EREW bucket store as
/// Jakiro, but requests arrive as **UC** writes and responses leave as
/// **UD** sends — unreliable transports with client-side retransmission.
/// Faster than RC server-reply on message rate; unlike RFP, the server
/// burns out-bound ops and the application must tolerate loss.
pub fn spawn_herd(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    use rfp_paradigms::{herd_connect, HerdConfig, HerdServerConn};
    use rfp_rnic::Transport;

    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    let partitions = build_partitions(cfg);
    let herd_cfg = HerdConfig {
        req_capacity: (rfp_core::REQ_HDR + 7 + cfg.spec.key_len + cfg.spec.values.max())
            .next_multiple_of(64)
            .max(256),
        ..HerdConfig::default()
    };

    let mut server_conns: Vec<Vec<Rc<HerdServerConn>>> =
        (0..cfg.server_threads).map(|_| Vec::new()).collect();
    let mut client_threads = Vec::new();

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            let mut conns = Vec::with_capacity(cfg.server_threads);
            for sconns in server_conns.iter_mut() {
                let (cl, sc) = herd_connect(
                    &client_m,
                    &server_m,
                    cluster.qp_typed(1 + m, 0, Transport::Uc),
                    cluster.qp_typed(0, 1 + m, Transport::Ud),
                    herd_cfg.clone(),
                );
                conns.push(Rc::new(cl));
                sconns.push(Rc::new(sc));
            }

            let spec = cfg.spec.clone();
            let seed = rfp_simnet::derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = stats.clone();
            let nthreads = cfg.server_threads;
            let h = sim.handle();
            sim.spawn(async move {
                let mut gen = spec.generator(seed);
                loop {
                    let op = gen.next_op();
                    let conn = &conns[partition_of(op.key(), nthreads)];
                    let req = match &op {
                        Op::Get { key } => KvRequest::Get { key }.encode(),
                        Op::Put { key, value } => KvRequest::Put { key, value }.encode(),
                    };
                    let t0 = h.now();
                    let Some(data) = conn.call(&thread, &req).await else {
                        // Retransmit budget exhausted (extreme loss);
                        // skip — an error RFP users never see.
                        continue;
                    };
                    let resp = KvResponse::decode(&data).expect("server response");
                    record_outcome(&st, &op, &resp, h.now() - t0);
                }
            });
        }
    }

    for (s, conns) in server_conns.into_iter().enumerate() {
        let thread = server_m.thread(format!("s{s}"));
        let partition = Rc::clone(&partitions[s]);
        let extra = cfg.extra_process;
        let mut outliers = OutlierGen::new(cfg, s as u64);
        sim.spawn(async move {
            loop {
                let mut served = false;
                for conn in &conns {
                    if let Some(req) = conn.try_recv(&thread).await {
                        let parsed = KvRequest::decode(&req).expect("well-formed");
                        let jitter = outliers.draw();
                        let (resp, base) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                        let work = base + extra + jitter;
                        if !work.is_zero() {
                            thread.busy(work).await;
                        }
                        conn.send(&thread, &resp.encode()).await;
                        served = true;
                    }
                }
                if !served {
                    thread.busy(SimSpan::nanos(100)).await;
                }
            }
        });
    }

    KvSystem {
        server_machine: server_m,
        cluster,
        stats,
        registry,
        spans,
        client_threads,
        rfp_clients: Vec::new(),
        server_conns: Vec::new(),
    }
}

/// Spawns the EREW-ablation variant of Jakiro: the same store behind a
/// single shared lock accessed by all server threads (CREW-by-locking
/// instead of partitioning). Quantifies how much of Jakiro's mix- and
/// skew-insensitivity comes from the EREW design the paper adopts from
/// MICA/CPHash (§4.1).
pub fn spawn_jakiro_shared(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    use rfp_simnet::SimLock;

    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    let rfp_cfg = cfg.sized_rfp();

    // One shared partition, one global lock.
    let per_part = (cfg.spec.key_count as usize * 2 / 8).max(64);
    let store = Rc::new(RefCell::new(Partition::new(per_part)));
    let lock = SimLock::new();
    {
        let mut gen = cfg.spec.generator(cfg.seed);
        for (key, value) in gen.preload(cfg.spec.key_count) {
            store.borrow_mut().put(&key, &value);
        }
    }

    let mut server_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.server_threads).map(|_| Vec::new()).collect();
    let mut rfp_clients = Vec::new();
    let mut client_threads = Vec::new();
    let mut client_idx = 0usize;

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            // Any server thread can serve any key: one connection per
            // client, assigned round-robin.
            let (cl, sc) = connect(
                &client_m,
                &server_m,
                cluster.qp(1 + m, 0),
                cluster.qp(0, 1 + m),
                client_rfp_cfg(&rfp_cfg, &registry, &spans, client_idx),
            );
            let cl = Rc::new(cl);
            rfp_clients.push(Rc::clone(&cl));
            server_conns[client_idx % cfg.server_threads].push(Rc::new(sc));
            client_idx += 1;

            let spec = cfg.spec.clone();
            let seed = rfp_simnet::derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = stats.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let mut gen = spec.generator(seed);
                loop {
                    let op = gen.next_op();
                    let req = match &op {
                        Op::Get { key } => KvRequest::Get { key }.encode(),
                        Op::Put { key, value } => KvRequest::Put { key, value }.encode(),
                    };
                    let t0 = h.now();
                    let out = cl.call(&thread, &req).await;
                    let resp = KvResponse::decode(&out.data).expect("server response");
                    record_outcome(&st, &op, &resp, h.now() - t0);
                }
            });
        }
    }

    // The serialized hold approximates the lock-protected portion of a
    // shared-structure access: reads only touch a recency stamp, writes
    // reorder the structure (cf. the MemC3/Memcached scalability
    // discussion the paper cites in §4.4.1).
    const SHARED_GET_HOLD: SimSpan = SimSpan::nanos(150);
    const SHARED_PUT_HOLD: SimSpan = SimSpan::nanos(400);

    for (s, conns) in server_conns.into_iter().enumerate() {
        if conns.is_empty() {
            continue;
        }
        let thread = server_m.thread(format!("s{s}"));
        let store = Rc::clone(&store);
        let lock = lock.clone();
        let extra = cfg.extra_process;
        let mut outliers = OutlierGen::new(cfg, s as u64);
        sim.spawn(async move {
            loop {
                let mut served = false;
                for conn in &conns {
                    if let Some(req) = conn.try_recv(&thread).await {
                        let parsed = KvRequest::decode(&req).expect("well-formed");
                        let jitter = outliers.draw();
                        let hold = match &parsed {
                            KvRequest::Get { .. } => SHARED_GET_HOLD,
                            KvRequest::MultiGet { keys } => SHARED_GET_HOLD * keys.len() as u64,
                            KvRequest::Put { .. } | KvRequest::Delete { .. } => SHARED_PUT_HOLD,
                        };
                        let guard = lock.lock().await;
                        let (resp, _work) = apply_to_partition(&mut store.borrow_mut(), &parsed);
                        thread.busy(hold + extra + jitter).await;
                        drop(guard);
                        conn.send(&thread, &resp.encode()).await;
                        served = true;
                    }
                }
                if !served {
                    thread.busy(SimSpan::nanos(100)).await;
                }
            }
        });
    }

    KvSystem {
        server_machine: server_m,
        cluster,
        stats,
        registry,
        spans,
        client_threads,
        rfp_clients,
        server_conns: Vec::new(),
    }
}

/// Spawns a FaRM-style comparator (paper §5): hopscotch-hashed inline
/// cells read by clients in **one** neighborhood-sized READ per GET
/// (fewer server ops than Pilaf, many more bytes than RFP); PUTs take
/// the server-reply path, as in FaRM.
pub fn spawn_farm(sim: &mut Simulation, cfg: &SystemConfig) -> KvSystem {
    use crate::hopscotch::{farm_get, FarmStore};

    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    let rfp_cfg = cfg.sized_rfp();

    let cell_size = (6 + cfg.spec.key_len + cfg.spec.values.max() + 8)
        .next_multiple_of(8)
        .max(64);
    // Hopscotch with H=8 sustains ~50% load before displacement fails;
    // FaRM trades table head-room for its one-read GETs.
    let buckets = (cfg.spec.key_count as usize * 2).max(64);
    let store = Rc::new(FarmStore::new(&server_m, buckets, cell_size));
    {
        let mut gen = cfg.spec.generator(cfg.seed);
        for (key, value) in gen.preload(cfg.spec.key_count) {
            store
                .insert_local(&key, &value)
                .expect("preload fits the 50%-loaded hopscotch table");
        }
    }

    let mut put_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.pilaf_put_threads).map(|_| Vec::new()).collect();
    let mut rfp_clients = Vec::new();
    let mut client_threads = Vec::new();
    let mut client_idx = 0usize;

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            let scratch = (crate::hopscotch::NEIGHBORHOOD * cell_size).max(512);
            let bypass = BypassClient::new(cluster.qp(1 + m, 0), scratch);
            let (put_cl, put_sc) = sr_connect(
                &client_m,
                &server_m,
                cluster.qp(1 + m, 0),
                cluster.qp(0, 1 + m),
                client_rfp_cfg(&rfp_cfg, &registry, &spans, client_idx),
            );
            let put_cl = Rc::new(put_cl);
            rfp_clients.push(Rc::clone(&put_cl));
            put_conns[client_idx % cfg.pilaf_put_threads].push(Rc::new(put_sc));
            client_idx += 1;

            let spec = cfg.spec.clone();
            let seed = rfp_simnet::derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = stats.clone();
            let view = store.view();
            let h = sim.handle();
            sim.spawn(async move {
                let mut gen = spec.generator(seed);
                loop {
                    let op = gen.next_op();
                    let t0 = h.now();
                    match &op {
                        Op::Get { key } => {
                            let got = farm_get(&bypass, &thread, &view, key).await;
                            st.bypass_ops.add(got.ops as u64);
                            st.crc_retries.add(got.crc_retries as u64);
                            let resp = match got.value {
                                Some(v) => KvResponse::Found(v),
                                None => KvResponse::NotFound,
                            };
                            record_outcome(&st, &op, &resp, h.now() - t0);
                        }
                        Op::Put { key, value } => {
                            let req = KvRequest::Put { key, value }.encode();
                            let out = put_cl.call(&thread, &req).await;
                            let resp = KvResponse::decode(&out.data).expect("server response");
                            record_outcome(&st, &op, &resp, h.now() - t0);
                        }
                    }
                }
            });
        }
    }

    for (s, conns) in put_conns.into_iter().enumerate() {
        if conns.is_empty() {
            continue;
        }
        let thread = server_m.thread(format!("put{s}"));
        let store = Rc::clone(&store);
        let extra = cfg.extra_process;
        sim.spawn(async move {
            loop {
                let mut served = false;
                for conn in &conns {
                    if let Some(req) = conn.try_recv(&thread).await {
                        let parsed = KvRequest::decode(&req).expect("well-formed request");
                        let resp = match parsed {
                            KvRequest::Put { key, value } => {
                                match store.put(&thread, key, value).await {
                                    Ok(()) => KvResponse::Stored,
                                    Err(e) => panic!("farm put failed: {e}"),
                                }
                            }
                            KvRequest::Delete { key } => {
                                KvResponse::Deleted(store.remove_local(key))
                            }
                            KvRequest::Get { key } => match store.lookup_local(key) {
                                Some(v) => KvResponse::Found(v),
                                None => KvResponse::NotFound,
                            },
                            KvRequest::MultiGet { keys } => KvResponse::Values(
                                keys.iter().map(|k| store.lookup_local(k)).collect(),
                            ),
                        };
                        if !extra.is_zero() {
                            thread.busy(extra).await;
                        }
                        conn.send(&thread, &resp.encode()).await;
                        served = true;
                    }
                }
                if !served {
                    thread.busy(SimSpan::nanos(100)).await;
                }
            }
        });
    }

    KvSystem {
        server_machine: server_m,
        cluster,
        stats,
        registry,
        spans,
        client_threads,
        rfp_clients,
        server_conns: Vec::new(),
    }
}

/// Shape of a multiplexed client fleet (see [`spawn_fleet_kv`]).
#[derive(Clone)]
pub struct FleetConfig {
    /// Logical clients across the whole fleet. Cheap by design — this
    /// is the axis the fleet bench sweeps to 10⁵.
    pub logical_clients: usize,
    /// Physical RFP connections (slot rings); the real server cost.
    pub physical_conns: usize,
    /// Server poller groups; each owns a disjoint connection shard.
    pub poller_groups: usize,
    /// Tenants; logical clients are spread across them round-robin.
    pub tenants: u32,
    /// Concurrently-active driver tasks cycling through the logical
    /// clients (the fleet's duty cycle: `drivers ≪ logical_clients`
    /// models mostly-idle clients).
    pub drivers: usize,
    /// When set, this tenant gets [`hot_drivers`](FleetConfig::hot_drivers)
    /// extra flooding drivers — the isolation scenario.
    pub hot_tenant: Option<u32>,
    /// Extra drivers dedicated to the hot tenant.
    pub hot_drivers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            logical_clients: 100,
            physical_conns: 16,
            poller_groups: 4,
            tenants: 4,
            drivers: 16,
            hot_tenant: None,
            hot_drivers: 0,
        }
    }
}

/// A running multiplexed fleet: N logical clients over M physical
/// connections over ≤ 2 QP pairs per client machine, served by sharded
/// tenant-aware poller groups.
pub struct FleetKv {
    /// The simulated cluster (machine 0 is the server).
    pub cluster: Cluster,
    /// Shared measurements (goodput, latency, rejections).
    pub stats: Rc<KvStats>,
    /// Unified instrument registry (`nic.*`, `kv.*`, `rfp.client.*`,
    /// `serve.scan.*`).
    pub registry: MetricsRegistry,
    /// Finished request-lifecycle spans.
    pub spans: SpanRecorder,
    /// The server machine.
    pub server_machine: Rc<Machine>,
    /// One mux per client machine.
    pub muxes: Vec<Rc<RfpMux>>,
    /// Per-tenant health windows (hub connection id = tenant id).
    pub tenant_health: HealthHub,
    /// Completed-Ok calls per tenant (index = tenant id).
    pub tenant_goodput: Rc<Vec<Counter>>,
    /// Every server-side connection (pre-sharding).
    pub server_conns: Vec<Rc<RfpServerConn>>,
    /// All driver threads (for utilisation readings).
    pub client_threads: Vec<Rc<ThreadCtx>>,
}

impl FleetKv {
    /// Discards warm-up measurements (stats, NIC counters, registry,
    /// spans, per-tenant goodput; mux lease counters keep running).
    pub fn reset_measurements(&self) {
        self.stats.reset();
        for i in 0..self.cluster.len() {
            self.cluster.machine(i).nic().reset_counters();
        }
        for t in &self.client_threads {
            t.reset_utilization();
        }
        for c in self.muxes.iter().flat_map(|m| m.clients()) {
            c.stats().reset();
        }
        for g in self.tenant_goodput.iter() {
            g.reset();
        }
        self.registry.reset();
        self.spans.reset();
    }

    /// Per-tenant completed-Ok calls, in tenant order.
    pub fn tenant_goodput(&self) -> Vec<u64> {
        self.tenant_goodput.iter().map(Counter::get).collect()
    }
}

/// Spawns a multiplexed KV fleet: `fleet.logical_clients` logical
/// clients over `fleet.physical_conns` slot rings, one shared QP pair
/// per client machine (QP virtualization), a single shared store
/// partition, and `fleet.poller_groups` tenant-aware server loops
/// ([`serve_loop_tenant`]) over disjoint connection shards.
///
/// Drivers run the overload-aware call path, so `cfg.rfp` must have
/// overload control enabled.
pub fn spawn_fleet_kv(sim: &mut Simulation, cfg: &SystemConfig, fleet: &FleetConfig) -> FleetKv {
    assert!(
        cfg.rfp.overload.enabled,
        "fleet drivers use call_overload; enable cfg.rfp.overload"
    );
    assert!(fleet.tenants > 0 && fleet.drivers > 0 && fleet.physical_conns > 0);
    let machines = cfg.client_machines.min(fleet.physical_conns);
    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let (registry, spans) = system_telemetry(&cluster, &stats, &cfg.rfp);
    stats.register_overload_into(&registry);
    let rfp_cfg = cfg.rfp_sized();

    // One shared partition: any poller group can serve any key (the
    // mux may land a tenant on any connection). Synchronous borrows in
    // a single-threaded sim — no lock needed.
    let part = {
        let buckets = (cfg.spec.key_count as usize * 2 / 8).max(64);
        let part = Rc::new(RefCell::new(Partition::new(buckets)));
        let mut gen = cfg.spec.generator(cfg.seed);
        for (key, value) in gen.preload(cfg.spec.key_count) {
            part.borrow_mut().put(&key, &value);
        }
        part
    };

    // One QP pair per client machine, shared by every connection on it:
    // the whole fleet rides `2 * machines` QP endpoints per side.
    let qp_pairs: Vec<(Rc<rfp_rnic::Qp>, Rc<rfp_rnic::Qp>)> = (0..machines)
        .map(|m| (cluster.qp(1 + m, 0), cluster.qp(0, 1 + m)))
        .collect();

    // Physical connections, round-robin across client machines.
    let mut per_machine_clients: Vec<Vec<Rc<RfpClient>>> =
        (0..machines).map(|_| Vec::new()).collect();
    let mut server_conns = Vec::with_capacity(fleet.physical_conns);
    for k in 0..fleet.physical_conns {
        let m = k % machines;
        let client_m = cluster.machine(1 + m);
        let mut ccfg = client_rfp_cfg(&rfp_cfg, &registry, &spans, k);
        ccfg.overload.seed = rfp_simnet::derive_seed(rfp_cfg.overload.seed, k as u64);
        let (cl, sc) = connect(
            &client_m,
            &server_m,
            Rc::clone(&qp_pairs[m].0),
            Rc::clone(&qp_pairs[m].1),
            ccfg,
        );
        per_machine_clients[m].push(Rc::new(cl));
        server_conns.push(Rc::new(sc));
    }

    // One mux per client machine, all feeding one per-tenant hub.
    let tenant_health = HealthHub::default();
    let muxes: Vec<Rc<RfpMux>> = per_machine_clients
        .into_iter()
        .map(|clients| {
            RfpMux::new(
                clients,
                MuxConfig {
                    tenant_health: Some(tenant_health.clone()),
                    ..MuxConfig::default()
                },
            )
        })
        .collect();

    let tenant_goodput: Rc<Vec<Counter>> =
        Rc::new((0..fleet.tenants).map(|_| Counter::new()).collect());

    // Drivers: `fleet.drivers` baseline tasks cycling disjoint slices
    // of the logical fleet, plus `fleet.hot_drivers` flooding tasks
    // pinned to the hot tenant.
    let mut client_threads = Vec::new();
    let total_drivers = fleet.drivers
        + if fleet.hot_tenant.is_some() {
            fleet.hot_drivers
        } else {
            0
        };
    for d in 0..total_drivers {
        let hot = d >= fleet.drivers;
        let tenant = if hot {
            fleet.hot_tenant.expect("hot drivers imply a hot tenant")
        } else {
            d as u32 % fleet.tenants
        };
        let m = d % machines;
        let mux = Rc::clone(&muxes[m]);
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
        let thread = cluster.machine(1 + m).thread(format!("drv{d}"));
        client_threads.push(Rc::clone(&thread));
        let spec = cfg.spec.clone();
        let seed = rfp_simnet::derive_seed(cfg.seed, 0xF1EE_7000 + d as u64);
        let st = Rc::clone(&stats);
        let goodput = Rc::clone(&tenant_goodput);
        let think = cfg.think_time;
        let h = sim.handle();
        sim.spawn(async move {
            use rand::{Rng, SeedableRng};
            let mut gen = spec.generator(seed);
            let mut pause_rng =
                rand::rngs::StdRng::seed_from_u64(rfp_simnet::derive_seed(seed, 0x0074_6869));
            let mut next = 0usize;
            loop {
                if !hot && !think.is_zero() {
                    let u: f64 = pause_rng.gen_range(1e-9..1.0);
                    h.sleep(SimSpan::from_nanos_f64(think.as_nanos() as f64 * -u.ln()))
                        .await;
                }
                // Cycle the slice so every logical client stays live.
                let lc = &logicals[next % logicals.len()];
                next += 1;
                let op = gen.next_op();
                let req = match &op {
                    Op::Get { key } => KvRequest::Get { key }.encode(),
                    Op::Put { key, value } => KvRequest::Put { key, value }.encode(),
                };
                let t0 = h.now();
                let out = lc.call_overload(&thread, &req).await;
                match out.info.status {
                    RespStatus::Ok => {
                        let resp = KvResponse::decode(&out.data).expect("server response");
                        record_outcome(&st, &op, &resp, h.now() - t0);
                        goodput[tenant as usize].incr();
                    }
                    RespStatus::Busy => st.rejected_busy.incr(),
                    _ => st.rejected_shed.incr(),
                }
            }
        });
    }

    // Sharded tenant-aware poller groups, one server thread each.
    for (g, group) in shard_conns(&server_conns, fleet.poller_groups)
        .into_iter()
        .enumerate()
    {
        let thread = server_m.thread(format!("pg{g}"));
        let handler = kv_handler(
            Rc::clone(&part),
            cfg.extra_process,
            OutlierGen::new(cfg, 0xF1EE + g as u64),
        );
        sim.spawn(serve_loop_tenant(
            thread,
            group,
            handler,
            SimSpan::nanos(100),
        ));
    }

    FleetKv {
        cluster,
        stats,
        registry,
        spans,
        server_machine: server_m,
        muxes,
        tenant_health,
        tenant_goodput,
        server_conns,
        client_threads,
    }
}
