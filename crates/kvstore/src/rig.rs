//! The one rig skeleton every `spawn_*` system is assembled from.
//!
//! A rig is a *bed* (cluster with servers on machines `0..n` and client
//! machines after them, the [`KvStats`] ledger, registry, spans),
//! *seats* (one per client thread, each with its own seed and think-time
//! stream), a client *driver* per seat, a server loop per server
//! thread, and a [`KvSystem`] result. Each of those parts exists here
//! once; what differs between systems — the store handler, the route
//! function, the `issue` future, the transport's `connect` function —
//! is passed in by the preset, never switched on in here.
//!
//! **Determinism contract.** Sim-time is deterministic and the goldens
//! are byte-compared, so the parts fix the order of everything that
//! touches the simulation: per seat, `machine.thread()`, then the
//! preset's `cluster.qp()`/`connect` calls, then `sim.spawn` of the
//! driver; server threads and their loops after all seats; a fault
//! injector last. Per-client op streams are seeded `derive_seed(seed,
//! m * 64 + t + 1)`; the think-time stream is derived from that with
//! `THINK_SALT` and is only *drawn* when think time is non-zero.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_core::{
    CallInfo, CallPolicy, Reply, RespStatus, RfpClient, RfpConfig, RfpServerConn, RfpTelemetry,
    ScanHandler,
};
use rfp_paradigms::{BypassClient, HerdServerConn};
use rfp_rnic::{Cluster, ClusterProfile, Machine, NicCounters, Qp, ThreadCtx};
use rfp_simnet::{
    derive_seed, Counter, FlightRecorder, Histogram, MetricsRegistry, SimHandle, SimSpan,
    Simulation, SpanRecorder,
};
use rfp_workload::Op;

use crate::bucket::Partition;
use crate::cell::BypassGet;
use crate::hash::partition_of;
use crate::proto::{KvRequest, KvResponseRef};
use crate::systems::respond;

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

/// Retained finished request spans per system: enough to keep the tail
/// of a measurement window without unbounded memory growth.
const SPAN_CAPACITY: usize = 4096;

/// Salt of a seat's think-time stream (`"think"` in ASCII).
const THINK_SALT: u64 = 0x0074_6869_6E6B;

/// How a preset's RFP connections are made: [`rfp_core::connect`] or
/// [`rfp_paradigms::sr_connect`].
pub(crate) type Connect =
    fn(&Rc<Machine>, &Rc<Machine>, Rc<Qp>, Rc<Qp>, RfpConfig) -> (RfpClient, RfpServerConn);

/// The client side of a bed: which machines hold clients and how their
/// streams are seeded and paced.
pub(crate) struct Seating {
    /// Server machines; client machine `m` is cluster machine
    /// `servers + m`.
    pub servers: usize,
    /// Client machines.
    pub machines: usize,
    /// Client threads per client machine.
    pub per_machine: usize,
    /// Master seed the per-client streams derive from.
    pub seed: u64,
    /// Mean exponentially-distributed pause between a client's rounds.
    pub think: SimSpan,
}

impl Seating {
    /// Total client threads.
    pub fn clients(&self) -> usize {
        self.machines * self.per_machine
    }
}

/// A running system: clients loop forever; sample the stats between
/// `run_for` windows.
///
/// This is the one result type of the rig skeleton: machines before
/// the first client machine are servers, [`server_machine`] being the
/// first of them.
///
/// [`server_machine`]: KvSystem::server_machine
pub struct KvSystem {
    /// The simulated cluster (machine 0 is the server).
    pub cluster: Cluster,
    /// Shared measurements.
    pub stats: Rc<KvStats>,
    /// Unified instrument registry (`nic.*`, `kv.*`, `rfp.client.*`).
    pub registry: MetricsRegistry,
    /// Finished request-lifecycle spans (RFP transports only).
    pub spans: SpanRecorder,
    /// The (first) server machine.
    pub server_machine: Rc<Machine>,
    /// All client threads (for utilisation readings).
    pub client_threads: Vec<Rc<ThreadCtx>>,
    /// All RFP client endpoints (for retry/switch stats); empty for
    /// transports that are not RFP connections.
    pub rfp_clients: Vec<Rc<RfpClient>>,
    /// Server-side connections grouped by owning server thread (empty
    /// for systems without RFP server endpoints); feeds the per-thread
    /// load-balance accounting of §4.4.3.
    pub server_conns: Vec<Vec<Rc<RfpServerConn>>>,
}

impl KvSystem {
    /// The bed: cluster, ledger, and one registry + span ring — NIC
    /// engines and the `kv.*` stats are registered up front; RFP
    /// connections add their own `rfp.client.<n>.*` instruments lazily.
    /// With a flight recorder, the cluster NICs report wire-level
    /// events into it as well.
    pub(crate) fn bed(
        sim: &mut Simulation,
        profile: &ClusterProfile,
        seating: &Seating,
        recorder: Option<&FlightRecorder>,
    ) -> KvSystem {
        let cluster = Cluster::new(sim, profile.clone(), seating.servers + seating.machines);
        let stats = Rc::new(KvStats::default());
        let registry = MetricsRegistry::new();
        cluster.attach_metrics(&registry);
        stats.register_into(&registry);
        if let Some(recorder) = recorder {
            cluster.attach_recorder(recorder);
        }
        KvSystem {
            server_machine: cluster.machine(0),
            cluster,
            stats,
            registry,
            spans: SpanRecorder::new(SPAN_CAPACITY),
            client_threads: Vec::new(),
            rfp_clients: Vec::new(),
            server_conns: Vec::new(),
        }
    }

    /// Seats client `idx` (machine-major): creates its thread, books it
    /// in [`client_threads`](KvSystem::client_threads) and derives its
    /// streams.
    ///
    /// # Panics
    ///
    /// Panics when a machine holds more than 64 clients: the stream id
    /// `m * 64 + t` would repeat (`(0, 64)` ≡ `(1, 0)`).
    pub(crate) fn seat(&mut self, seating: &Seating, idx: usize) -> Seat {
        assert!(
            seating.per_machine <= 64,
            "more than 64 clients per machine would repeat a generator stream"
        );
        let (m, t) = (idx / seating.per_machine, idx % seating.per_machine);
        let machine = self.cluster.machine(seating.servers + m);
        let thread = machine.thread(format!("c{m}.{t}"));
        self.client_threads.push(Rc::clone(&thread));
        let seed = derive_seed(seating.seed, (m * 64 + t) as u64 + 1);
        Seat {
            machine,
            thread,
            seed,
            h: self.cluster.handle().clone(),
            stats: Rc::clone(&self.stats),
            pacer: Pacer::new(derive_seed(seed, THINK_SALT), seating.think),
        }
    }

    /// `base` specialised for client connection `idx`: instruments land
    /// under `rfp.client.<idx>.*`, spans render on Chrome-trace row
    /// `idx`, and — when a [`HealthHub`](rfp_simnet::HealthHub) is
    /// configured — health samples land in the hub's connection `idx`.
    pub(crate) fn client_cfg(&self, base: &RfpConfig, idx: usize) -> RfpConfig {
        RfpConfig {
            telemetry: Some(RfpTelemetry {
                registry: self.registry.clone(),
                spans: self.spans.clone(),
                prefix: format!("rfp.client.{idx}"),
                track: idx as u32,
            }),
            conn_id: idx as u32,
            ..base.clone()
        }
    }

    /// Connects `seat` to server machine `server` and books both ends:
    /// the client in [`rfp_clients`](KvSystem::rfp_clients), the server
    /// side under thread `group` of
    /// [`server_conns`](KvSystem::server_conns).
    pub(crate) fn connect(
        &mut self,
        seat: &Seat,
        server: usize,
        connect: Connect,
        cfg: RfpConfig,
        group: usize,
    ) -> Rc<RfpClient> {
        let me = seat.machine.id().0;
        let (cl, sc) = connect(
            &seat.machine,
            &self.cluster.machine(server),
            self.cluster.qp(me, server),
            self.cluster.qp(server, me),
            cfg,
        );
        let cl = Rc::new(cl);
        self.rfp_clients.push(Rc::clone(&cl));
        self.server_conns[group].push(Rc::new(sc));
        cl
    }

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

    /// The server machines: every machine before the first client's.
    fn server_machines(&self) -> Vec<Rc<Machine>> {
        let first_client = self.client_threads.first();
        let n = first_client.map_or(1, |t| t.machine().id().0);
        (0..n).map(|i| self.cluster.machine(i)).collect()
    }

    /// Server NIC work: the counters of every server NIC, summed.
    pub fn server_nic_counters(&self) -> NicCounters {
        let mut sum = NicCounters::default();
        for server in self.server_machines() {
            let nic = server.nic().counters();
            sum.inbound_ops += nic.inbound_ops;
            sum.outbound_ops += nic.outbound_ops;
            sum.inbound_bytes += nic.inbound_bytes;
            sum.outbound_bytes += nic.outbound_bytes;
            sum.dropped += nic.dropped;
        }
        sum
    }

    /// Server in-bound ops per completed request (§4.3's round-trip
    /// accounting; Jakiro measures 2.005 and stays ≈2 at any shard
    /// count).
    pub fn inbound_ops_per_request(&self) -> f64 {
        let done = self.stats.completed.get();
        if done == 0 {
            return 0.0;
        }
        self.server_nic_counters().inbound_ops as f64 / done as f64
    }
}

/// The exponential think-time pause between a client's rounds
/// (Poisson-ish offered load per client). The stream is only drawn
/// when the mean is non-zero, so closed-loop runs never touch it.
pub(crate) struct Pacer {
    rng: StdRng,
    think: SimSpan,
}

impl Pacer {
    pub(crate) fn new(seed: u64, think: SimSpan) -> Self {
        Pacer {
            rng: StdRng::seed_from_u64(seed),
            think,
        }
    }

    async fn pause(&mut self, h: &SimHandle) {
        if !self.think.is_zero() {
            let u: f64 = self.rng.gen_range(1e-9..1.0);
            let pause = self.think.as_nanos() as f64 * -u.ln();
            h.sleep(SimSpan::from_nanos_f64(pause)).await;
        }
    }
}

/// One client thread of a rig and everything its driver needs.
pub(crate) struct Seat {
    /// The client's machine.
    pub machine: Rc<Machine>,
    /// The client's thread.
    pub thread: Rc<ThreadCtx>,
    /// Seed of the client's op stream.
    pub seed: u64,
    /// Simulation handle (clock and sleeps).
    pub h: SimHandle,
    /// The rig's ledger.
    pub stats: Rc<KvStats>,
    /// The think-time stream.
    pub pacer: Pacer,
}

impl Seat {
    /// The windowed closed-loop driver for clients that call through
    /// [`RfpClient`]s: pause, draw `draw` ops (`next_op` refills an op
    /// in place), bucket them by `route`
    /// (an index into `conns`), run each bucket through the call
    /// engine — up to the ring window rides one connection
    /// concurrently, the fetch polls sharing doorbells — and book each
    /// bucket when it returns. `draw == 1` with a constant route is the
    /// plain sequential loop.
    pub(crate) async fn windowed(
        mut self,
        conns: Vec<Rc<RfpClient>>,
        draw: usize,
        mut next_op: impl FnMut(&mut Op),
        route: impl Fn(&[u8]) -> usize,
        policy: CallPolicy<'static>,
    ) {
        // Reused across rounds, buffers and all: a call allocates only
        // the payloads the API hands out (DESIGN.md "Allocation rule").
        let mut ops: Vec<Op> = (0..draw).map(|_| Op::Get { key: Vec::new() }).collect();
        let mut buckets: Vec<Vec<usize>> = conns.iter().map(|_| Vec::new()).collect();
        let mut reqs: Vec<Vec<u8>> = Vec::new();
        // A bucket's settled calls, noted off the engine's loan: which
        // op, its diagnostics, and whether a GET missed.
        let mut done: Vec<(usize, CallInfo, bool)> = Vec::new();
        loop {
            self.pacer.pause(&self.h).await;
            ops.iter_mut().for_each(&mut next_op);
            for (i, op) in ops.iter().enumerate() {
                buckets[route(op.key())].push(i);
            }
            for (conn, bucket) in conns.iter().zip(buckets.iter_mut()) {
                if bucket.is_empty() {
                    continue;
                }
                if reqs.len() < bucket.len() {
                    reqs.resize_with(bucket.len(), Vec::new);
                }
                let reqs = &mut reqs[..bucket.len()];
                for (req, &i) in reqs.iter_mut().zip(bucket.iter()) {
                    encode_op(&ops[i], req);
                }
                conn.run(&self.thread, reqs, policy, |i, out| {
                    let out = out.expect("no recovery stage, so no RpcError");
                    // Rejected under overload: no payload to decode.
                    let missed = out.info.status == RespStatus::Ok && is_miss(&out.data);
                    done.push((bucket[i], out.info, missed));
                })
                .await;
                // Booked when the bucket returns, not as each call
                // settles: a measurement window that ends mid-bucket
                // counts the whole bucket in the next one.
                for (i, info, missed) in done.drain(..) {
                    if info.integrity_retries > 0 {
                        let retries = info.integrity_retries as u64;
                        self.stats.integrity_retries.add(retries);
                    }
                    match info.status {
                        RespStatus::Ok => {
                            record_outcome(&self.stats, &ops[i], missed, info.latency)
                        }
                        // Rejections never count as goodput.
                        RespStatus::Busy => self.stats.rejected_busy.incr(),
                        _ => self.stats.rejected_shed.incr(),
                    }
                }
                bucket.clear();
            }
        }
    }

    /// The per-op closed-loop driver for paradigms that do not call
    /// through an [`RfpClient`] alone (bypass GETs, HERD, mux leases):
    /// pause, draw one op (`next_op` refills it in place), `issue` it,
    /// book the answer with the wall-to-wall latency. `issue` answers
    /// whether a GET missed, or `None` for an op that produced nothing
    /// to book.
    pub(crate) async fn per_op(
        mut self,
        mut next_op: impl FnMut(&mut Op),
        mut issue: impl AsyncFnMut(&Op) -> Option<bool>,
    ) {
        let mut op = Op::Get { key: Vec::new() };
        loop {
            self.pacer.pause(&self.h).await;
            next_op(&mut op);
            let t0 = self.h.now();
            if let Some(missed) = issue(&op).await {
                record_outcome(&self.stats, &op, missed, self.h.now() - t0);
            }
        }
    }
}

/// Writes the wire request of one workload op over `out`.
pub(crate) fn encode_op(op: &Op, out: &mut Vec<u8>) {
    match op {
        Op::Get { key } => KvRequest::Get { key }.encode_into(out),
        Op::Put { key, value } => KvRequest::Put { key, value }.encode_into(out),
    }
}

/// Whether a server response answers a GET miss, read in place: a
/// driver books hit or miss and copies no value. The rigs' servers only
/// send well-formed responses.
pub(crate) fn is_miss(data: &[u8]) -> bool {
    KvResponseRef::parse(data).expect("server response") == KvResponseRef::NotFound
}

fn record_outcome(stats: &KvStats, op: &Op, missed: bool, latency: SimSpan) {
    stats.completed.incr();
    stats.latency.record(latency);
    match op {
        Op::Get { .. } => {
            stats.gets.incr();
            if missed {
                stats.misses.incr();
            }
        }
        Op::Put { .. } => stats.puts.incr(),
    }
}

/// `parts` EREW bucket-table partitions of `buckets` buckets each,
/// preloaded with `pairs` (each routed to its key's owner).
pub fn preload_partitions<K: AsRef<[u8]>, V: AsRef<[u8]>>(
    pairs: impl IntoIterator<Item = (K, V)>,
    parts: usize,
    buckets: usize,
) -> Vec<Rc<RefCell<Partition>>> {
    let partitions: Vec<Rc<RefCell<Partition>>> = (0..parts)
        .map(|_| Rc::new(RefCell::new(Partition::new(buckets))))
        .collect();
    for (key, value) in pairs {
        let owner = &partitions[partition_of(key.as_ref(), parts)];
        owner.borrow_mut().put(key.as_ref(), value.as_ref());
    }
    partitions
}

/// The bucket-table request handler every RFP serve loop runs: decode,
/// apply to `partition`, encode the reply straight from the stored
/// value into the buffer the reactor lends, and charge the store's CPU
/// cost plus whatever `extra` adds for this request (artificial process
/// time, outlier jitter).
pub fn kv_handler(
    partition: Rc<RefCell<Partition>>,
    extra: impl FnMut() -> SimSpan,
) -> impl ScanHandler {
    KvHandler { partition, extra }
}

/// [`kv_handler`]'s state: the partition and the extra-time stream.
struct KvHandler<E> {
    partition: Rc<RefCell<Partition>>,
    extra: E,
}

impl<E: FnMut() -> SimSpan> ScanHandler for KvHandler<E> {
    fn serve(&mut self, req: &[u8], reply: &mut Vec<u8>) -> (Reply, SimSpan) {
        let parsed = KvRequest::decode(req).expect("client sent well-formed request");
        let work = respond(&self.partition, &parsed, reply);
        (Reply::Send, work + (self.extra)())
    }
}

/// The server end of a polled connection.
pub(crate) trait ServerEnd {
    /// The next pending request, if any.
    async fn try_recv(&self, thread: &Rc<ThreadCtx>) -> Option<Vec<u8>>;
    /// Answers the request last received.
    async fn send(&self, thread: &ThreadCtx, payload: &[u8]);
}

impl ServerEnd for RfpServerConn {
    async fn try_recv(&self, thread: &Rc<ThreadCtx>) -> Option<Vec<u8>> {
        RfpServerConn::try_recv(self, thread).await
    }
    async fn send(&self, thread: &ThreadCtx, payload: &[u8]) {
        RfpServerConn::send(self, thread, payload).await
    }
}

impl ServerEnd for HerdServerConn {
    async fn try_recv(&self, thread: &Rc<ThreadCtx>) -> Option<Vec<u8>> {
        HerdServerConn::try_recv(self, thread).await
    }
    async fn send(&self, thread: &ThreadCtx, payload: &[u8]) {
        HerdServerConn::send(self, thread, payload).await
    }
}

/// The async poll loop for stores whose handlers await (a lock, a
/// torn-window PUT, a cost model): scan the owned connections
/// round-robin, answer every pending request through `handle`, spin
/// 100 ns on an empty scan.
async fn poll_loop<C: ServerEnd>(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<C>>,
    mut handle: impl AsyncFnMut(&ThreadCtx, &[u8]) -> Vec<u8>,
) {
    loop {
        let mut served = false;
        for conn in &conns {
            if let Some(req) = conn.try_recv(&thread).await {
                let resp = handle(&thread, &req).await;
                conn.send(&thread, &resp).await;
                served = true;
            }
        }
        if !served {
            thread.busy(SimSpan::nanos(100)).await;
        }
    }
}

/// Spawns one [`poll_loop`] thread (`<prefix><s>` on `machine`) per
/// non-empty connection group, each with its own `handler(s)`.
pub(crate) fn spawn_pollers<C, H>(
    sim: &mut Simulation,
    machine: &Rc<Machine>,
    prefix: &str,
    groups: Vec<Vec<Rc<C>>>,
    mut handler: impl FnMut(usize) -> H,
) where
    C: ServerEnd + 'static,
    H: AsyncFnMut(&ThreadCtx, &[u8]) -> Vec<u8> + 'static,
{
    for (s, conns) in groups.into_iter().enumerate() {
        if conns.is_empty() {
            continue;
        }
        let thread = machine.thread(format!("{prefix}{s}"));
        sim.spawn(poll_loop(thread, conns, handler(s)));
    }
}

/// A store clients read with one-sided verbs and write through the
/// server: the cuckoo (Pilaf) and hopscotch (FaRM) tables, as the
/// bypass rig and the store tests drive them.
pub trait BypassStore: 'static {
    /// What a client needs to address the table remotely.
    type View: 'static;
    /// Why an insert or update can fail.
    type Error: std::fmt::Display;

    /// The client-side addressing view.
    fn view(&self) -> Self::View;
    /// Atomic setup-time insert-or-update (no torn window).
    fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), Self::Error>;
    /// Server PUT path: an in-place update with a torn window racing
    /// bypass GETs must checksum-retry over.
    fn put(
        &self,
        thread: &ThreadCtx,
        key: &[u8],
        value: &[u8],
    ) -> impl Future<Output = Result<(), Self::Error>>;
    /// One client-side GET.
    fn get(
        client: &BypassClient,
        thread: &ThreadCtx,
        view: &Self::View,
        key: &[u8],
    ) -> impl Future<Output = BypassGet>;
}
