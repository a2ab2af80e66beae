//! The chaos rig: a key-value store built for fault experiments.
//!
//! [`spawn_chaos_kv`] builds `P` store partitions × `R` replicas. With
//! one replica ([`ChaosConfig::default`]) it is the paper's Jakiro
//! shape: machine 0 runs one [`Reactor`] core per EREW partition. With
//! [`replication`](ChaosConfig::replication) it is a primary/backup
//! pair over one partition from `rfp-kvstore`'s
//! [`replica`](rfp_kvstore::replica) module: machine 0 is the primary,
//! machine 1 the standby fed by the primary's replication log. Clients
//! run on the machines after the servers. Each client holds one
//! [`ReplicaClient`] per partition and runs one loop. A router over one
//! replica is exactly `RfpClient::call_with_recovery` on its
//! connection: with nowhere to fail over, `call` returns the first
//! error.
//!
//! Three presets run on it: [`ChaosConfig::default`] (the `chaos` and
//! `doctor` sweeps), [`ChaosConfig::failover`] (fail-*stop* faults, with
//! a scheduled promotion of the backup) and [`ChaosConfig::grayfail`]
//! (fail-*slow* faults, where what matters is whether the gray-failure
//! subsystem — [`rfp_core::GrayConfig`] — keeps the read tail bounded).
//!
//! The rig records several layers of evidence per run:
//!
//! * **online invariant counters** — a GET that observes a version
//!   older than an already-acknowledged PUT of its key, or `NotFound`
//!   for such a key, books `lost_acked`; one that runs *backwards*
//!   relative to a version an earlier-completed read observed books
//!   `stale_reads` (the deposed-primary signature, and a pre-wipe
//!   version surfacing after a cold restart). Both compare against
//!   snapshots taken at call *start*, so a read racing a concurrent
//!   write is never a false positive;
//! * **a full operation history** — every call becomes a
//!   [`HistEntry`]; calls that exhausted their budget stay *pending*,
//!   which [`rfp_workload::check_history`] adjudicates;
//! * **recovery timing** — the span from a fault's onset to each
//!   client's next completed call (`recovery.time`);
//! * **read latencies** — every GET's `(start, latency)`, so a bench
//!   can take the read p99 over a measurement phase;
//! * **a duplicate-apply ledger** — the primary counts mutations it
//!   applied and the standby those it refused; with
//!   [`issued_puts`](ChaosState::issued_puts) they prove that neither
//!   retries nor failover double-apply a write.
//!
//! Every PUT value is `client << 32 | version` with a per-client
//! monotone version, so write values are globally unique and each key
//! has exactly one writer. *Reads* either roam every client's keys or
//! stay on the client's own ([`own_key_reads`](ChaosConfig::own_key_reads)).
//! Standby reads force the latter: the backup serves GETs from its
//! replicated partition while unpromoted ([`BackupRole::standby_reads`],
//! on with the gray subsystem), so a cross-client read there could see
//! a write another client saw early on the primary before the log batch
//! shipped. Own-key reads are immune, because `Sync` ack applies a
//! write at the backup before its issuer sees the ack.
//!
//! Promotion is the experiment's failure detector: the caller schedules
//! it ([`ChaosKv::promote_backup_at`]) only where the primary really is
//! dead. A partitioned primary is not: clients bounce off the standby
//! and come back once the link heals. Gray faults are the ones a crash
//! detector cannot see, so the gray preset never promotes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_core::{
    connect, CoreSpec, FailoverConfig, FailureCause, GrayConfig, OverloadConfig, Reactor,
    ReactorConfig, RecoveryConfig, ReplicaClient, RfpConfig, RfpServerConn, RfpTelemetry,
};
use rfp_kvstore::replica::{
    backup_serve_loop, primary_serve_loop, BackupRole, PrimaryRole, ReplicationConfig,
};
use rfp_kvstore::{kv_handler, partition_of, KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{
    derive_seed, FlightRecorder, HealthHub, Histogram, MetricsRegistry, RetryPolicy, Severity,
    SimSpan, SimTime, Simulation, SpanRecorder,
};
use rfp_workload::{HistEntry, RegOp};

use crate::inject::{install, InjectorSinks, Restart};
use crate::plan::{FaultKind, FaultPlan};

/// The epoch a promoted backup fences at (the rig promotes at most
/// once per run).
const PROMOTED_EPOCH: u16 = 1;

/// Idle pacing of every serve loop.
const SPIN: SimSpan = SimSpan::nanos(100);

/// Sizing and tuning of the chaos rig. [`Default`] is the one-replica
/// rig of the `chaos` sweep; [`failover`](Self::failover) and
/// [`grayfail`](Self::grayfail) are the replicated studies.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Client machines (one client thread each).
    pub clients: usize,
    /// Store partitions, one server core each (EREW, as Jakiro does).
    /// A replicated rig has one.
    pub server_threads: usize,
    /// Keys *written* per client (disjoint across clients).
    pub keys_per_client: usize,
    /// Operations each client issues before stopping. Bounded where
    /// the per-key histories must stay inside the checker's search
    /// capacity; `usize::MAX` runs until the simulation stops.
    pub ops_per_client: usize,
    /// Fraction of operations that are PUTs (always routed `call` —
    /// mutations anchor on the primary). GETs go through
    /// [`ReplicaClient::call_read`], which is `call` unless
    /// `failover.gray` mounts the gray-failure subsystem.
    pub put_ratio: f64,
    /// Read scope: each client reads only the keys it writes, instead
    /// of roaming every client's. Standby reads force it either way.
    pub own_key_reads: bool,
    /// Server overload control (admission, shedding, credits): every
    /// recovery call is deadline-stamped and the server sheds or
    /// busy-rejects instead of queueing without bound.
    pub overload: Option<OverloadConfig>,
    /// Primary/backup replication (`Sync` ack by default — standby
    /// reads lean on acked ⇒ applied-at-backup); `None` runs one
    /// replica.
    pub replication: Option<ReplicationConfig>,
    /// Client-side router policy: the recovery policy per replica, and
    /// `gray`, the gray-failure subsystem. Its `recovery.seed` salts
    /// the clients' jitter streams: client `c` draws from
    /// `derive_seed(seed, recovery.seed + c)`.
    pub failover: FailoverConfig,
    /// Let the server's [`Reactor`] cores steal work from each other.
    /// Off by default; the cores chaos tests turn it on to prove the
    /// recovery invariants hold while requests migrate between cores.
    pub reactor_steal: bool,
    /// Master seed for workloads and recovery jitter.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            clients: 3,
            server_threads: 2,
            keys_per_client: 8,
            ops_per_client: usize::MAX,
            put_ratio: 0.5,
            own_key_reads: true,
            overload: None,
            replication: None,
            failover: FailoverConfig {
                recovery: RecoveryConfig {
                    seed: 0xC0DE,
                    ..RecoveryConfig::default()
                },
                gray: None,
            },
            reactor_steal: false,
            seed: 7,
        }
    }
}

/// A router policy with a per-replica retry budget of `attempts`: short,
/// so the router stops flogging a dead primary and re-homes within a
/// bounded handful of attempts instead of riding out the full
/// single-server recovery schedule first.
fn short_retry(attempts: u32, salt: u64) -> FailoverConfig {
    let retry = RetryPolicy::exponential(attempts, SimSpan::micros(10), SimSpan::micros(200), 0.2);
    FailoverConfig {
        recovery: RecoveryConfig { retry, seed: salt },
        gray: None,
    }
}

impl ChaosConfig {
    /// The failover study: a primary/backup pair under crashes and
    /// partitions, with short op budgets of roaming reads.
    pub fn failover() -> Self {
        ChaosConfig {
            server_threads: 1,
            keys_per_client: 4,
            ops_per_client: 60,
            own_key_reads: false,
            replication: Some(ReplicationConfig::default()),
            failover: short_retry(4, 0xFA11),
            seed: 11,
            ..ChaosConfig::default()
        }
    }

    /// The gray-failure study: a longer, read-heavier workload of
    /// routed reads.
    pub fn grayfail() -> Self {
        ChaosConfig {
            ops_per_client: 400,
            put_ratio: 0.3,
            own_key_reads: true,
            failover: short_retry(6, 0x64AF),
            seed: 23,
            ..ChaosConfig::failover()
        }
    }
}

/// Shared outcome state, updated online by every client loop.
#[derive(Default)]
pub struct ChaosState {
    /// Completed calls (all kinds).
    pub completed: Cell<u64>,
    /// Acknowledged PUTs.
    pub acked_puts: Cell<u64>,
    /// PUT calls issued (acked or not) — the duplicate-apply ceiling.
    pub issued_puts: Cell<u64>,
    /// Calls that exhausted their recovery (and failover) budget.
    pub failed_calls: Cell<u64>,
    /// Failed calls whose final failure was an overload rejection
    /// (`Busy`/`Shed`) rather than a fault.
    pub rejected_calls: Cell<u64>,
    /// Acked-write losses observed: a GET returned `NotFound` or an
    /// older version for a key with an acknowledged newer PUT.
    pub lost_acked: Cell<u64>,
    /// Stale reads observed: a GET surfaced a version older than one an
    /// earlier-completed read had seen, or one from before a cold wipe.
    pub stale_reads: Cell<u64>,
    /// GETs answered `NotFound`.
    pub not_found: Cell<u64>,
    /// Server crash/restart cycles delivered to the rig.
    pub restarts: Cell<u64>,
    /// Clients that finished their op budget.
    pub done_clients: Cell<usize>,
    /// When the backup was promoted, if it was.
    pub promoted_at: Cell<Option<SimTime>>,
    /// key id → value of the last acked PUT (single writer per key and
    /// per-client-monotone versions make the max the latest).
    acked: RefCell<HashMap<u64, u64>>,
    /// key id → newest value any completed read has observed, raised to
    /// the writer's last issued value by a cold wipe.
    observed: RefCell<HashMap<u64, u64>>,
    /// Per client: the last version it issued.
    issued: Vec<Cell<u64>>,
    /// Cold wipes so far: a call that spans one is judged against the
    /// floors the wipe reset, not the ones it started with.
    wipes: Cell<u64>,
    keys_per_client: u64,
    /// Full operation history, in completion/abandonment order.
    history: RefCell<Vec<HistEntry>>,
    /// Per client: the fault onset still awaiting its next completed
    /// call.
    recovering: Vec<Cell<Option<SimTime>>>,
    /// Every completed GET as `(start_ns, latency_ns)`.
    read_lats: RefCell<Vec<(u64, u64)>>,
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl ChaosState {
    fn new(clients: usize, keys_per_client: usize) -> Self {
        ChaosState {
            issued: (0..clients).map(|_| Cell::new(0)).collect(),
            keys_per_client: keys_per_client as u64,
            recovering: (0..clients).map(|_| Cell::new(None)).collect(),
            ..ChaosState::default()
        }
    }

    /// The key's `(acked, observed)` floors as of now.
    fn floors(&self, key_id: u64) -> (Option<u64>, Option<u64>) {
        let acked = self.acked.borrow().get(&key_id).copied();
        (acked, self.observed.borrow().get(&key_id).copied())
    }

    /// Books the verdict on a completed GET that observed `got`.
    fn judge_read(
        &self,
        key_id: u64,
        (acked, observed): (Option<u64>, Option<u64>),
        got: Option<u64>,
    ) {
        let Some(v) = got else {
            bump(&self.not_found);
            if acked.is_some() {
                bump(&self.lost_acked);
            }
            return;
        };
        if acked.is_some_and(|floor| v < floor) {
            bump(&self.lost_acked);
        }
        if observed.is_some_and(|floor| v < floor) {
            bump(&self.stale_reads);
        }
        let mut obs = self.observed.borrow_mut();
        let slot = obs.entry(key_id).or_insert(v);
        *slot = (*slot).max(v);
    }

    /// A cold restart wiped the store: its data is legitimately gone,
    /// so no acked floor survives, and every value written before the
    /// wipe becomes stale. A writer's last issued value itself stays
    /// admitted: it may belong to the in-flight PUT, which the client
    /// legitimately resubmits (and re-commits) post-wipe.
    fn wipe(&self) {
        bump(&self.wipes);
        self.acked.borrow_mut().clear();
        let mut obs = self.observed.borrow_mut();
        for (c, issued) in self.issued.iter().enumerate() {
            let floor = ((c as u64) << 32) | issued.get();
            let first = c as u64 * self.keys_per_client;
            for key_id in first..first + self.keys_per_client {
                let slot = obs.entry(key_id).or_insert(floor);
                *slot = (*slot).max(floor);
            }
        }
    }

    /// The recorded history (for [`rfp_workload::check_history`]).
    pub fn history(&self) -> Vec<HistEntry> {
        self.history.borrow().clone()
    }

    /// Read latencies of GETs that *started* at or after `from` —
    /// the measurement-phase slice.
    pub fn read_lats_since(&self, from: SimTime) -> Vec<u64> {
        let floor = from.as_nanos();
        self.read_lats
            .borrow()
            .iter()
            .filter(|(start, _)| *start >= floor)
            .map(|(_, lat)| *lat)
            .collect()
    }

    /// Nearest-rank p99 read latency (ns) over GETs started at or after
    /// `from`; `None` with fewer than 10 samples.
    pub fn read_p99_since(&self, from: SimTime) -> Option<u64> {
        let lats = self.read_lats_since(from);
        if lats.len() < 10 {
            return None;
        }
        let hist = Histogram::new();
        for lat in lats {
            hist.record(SimSpan::nanos(lat));
        }
        hist.percentile(99.0).map(SimSpan::as_nanos)
    }

    /// Largest number of operations landed on any single key.
    pub fn max_ops_per_key(&self) -> usize {
        let mut per_key: HashMap<u64, usize> = HashMap::new();
        for e in self.history.borrow().iter() {
            *per_key.entry(e.key).or_default() += 1;
        }
        per_key.values().copied().max().unwrap_or(0)
    }
}

/// A running chaos rig.
pub struct ChaosKv {
    /// The simulated cluster: the replicas' machines (0 = primary,
    /// 1 = backup), then the clients'.
    pub cluster: Cluster,
    /// Unified instruments: `nic.*`, `rfp.client.*`, `serve.core.*`,
    /// and — only once faults actually fire — `fault.*` /
    /// `recovery.*` / `routing.*`.
    pub registry: MetricsRegistry,
    /// Request-lifecycle spans of the RFP connections.
    pub spans: SpanRecorder,
    /// Always-on flight recorder, the rig's one event log: `chaos.*`
    /// fault roots and window ends, `nic.*` wire events, the backup's
    /// `replica.promote`, and the clients' `recovery.*` /
    /// `overload.*` / `fetch.*` / `routing.*` reaction chains.
    pub recorder: FlightRecorder,
    /// Rolling per-connection health, keyed
    /// `(client * server_threads + partition) * replicas + replica`.
    pub health: HealthHub,
    /// Shared outcome state.
    pub state: Rc<ChaosState>,
    /// One router per client and partition, client-major.
    pub routers: Vec<Rc<ReplicaClient>>,
    /// Primary-side replication bookkeeping and apply ledger (idle
    /// without replication).
    pub primary_role: Rc<PrimaryRole>,
    /// Backup-side replication bookkeeping and refusal ledger (idle
    /// without replication).
    pub backup_role: Rc<BackupRole>,
    /// The backup's client-facing connections, which a promotion fences.
    backup_conns: Vec<Rc<RfpServerConn>>,
}

impl ChaosKv {
    /// Maximum time from a fault's onset to a client's next completed
    /// call, if a fault fired.
    pub fn max_recovery_time(&self) -> Option<SimSpan> {
        // Existence check first: reading through `histogram()` would
        // *create* the instrument on a fault-free run.
        let name = "recovery.time";
        if !self.registry.names().iter().any(|n| n == name) {
            return None;
        }
        self.registry.histogram(name).max()
    }

    /// Total replica re-homings across all clients.
    pub fn total_failovers(&self) -> u64 {
        self.routers.iter().map(|r| r.failovers()).sum()
    }

    /// Retry-budget tokens consumed and grants denied, summed.
    pub fn budget_totals(&self) -> (u64, u64) {
        self.routers.iter().fold((0, 0), |t, r| {
            (t.0 + r.budget().consumed(), t.1 + r.budget().denied())
        })
    }

    /// Schedules the failure detector: at `at`, the backup is promoted
    /// into the next epoch. A restarted ex-primary is then *deposed*:
    /// it comes back at its old epoch, and the fence keeps it from
    /// serving promoted-era clients.
    ///
    /// # Panics
    ///
    /// Panics on a rig without replication.
    pub fn promote_backup_at(&self, at: SimTime) {
        assert!(!self.backup_conns.is_empty(), "no backup to promote");
        let handle = self.cluster.handle().clone();
        let role = Rc::clone(&self.backup_role);
        let conns = self.backup_conns.clone();
        let st = Rc::clone(&self.state);
        let rec = self.recorder.clone();
        handle.clone().spawn(async move {
            handle.sleep_until(at).await;
            role.promote(&conns, PROMOTED_EPOCH);
            st.promoted_at.set(Some(handle.now()));
            let what = format!("backup promoted to epoch {PROMOTED_EPOCH}");
            rec.record(
                handle.now(),
                None,
                0,
                Severity::Info,
                "replica.promote",
                what,
            );
        });
    }
}

/// Spawns the rig; pass a [`FaultPlan`] to also install its injector.
/// End-to-end fetch integrity (CRC + generation + canary) runs iff the
/// plan can corrupt a fetched image (torn DMA, bit flips).
///
/// Passing `None` and passing an empty (or never-firing) plan produce
/// byte-identical metrics and trace output — the property pinned by this
/// crate's determinism tests.
///
/// # Panics
///
/// Panics without clients, keys or partitions, and on a replicated rig
/// of more than one partition.
pub fn spawn_chaos_kv(
    sim: &mut Simulation,
    cfg: &ChaosConfig,
    plan: Option<&FaultPlan>,
) -> ChaosKv {
    let parts = cfg.server_threads;
    assert!(cfg.clients > 0, "rig needs at least one client");
    assert!(cfg.keys_per_client > 0, "rig needs at least one key");
    assert!(parts > 0, "rig needs at least one partition");
    let replicas = 1 + cfg.replication.is_some() as usize;
    assert!(
        replicas == 1 || parts == 1,
        "a replicated rig has one partition"
    );
    let cluster = Cluster::new(sim, ClusterProfile::paper_testbed(), replicas + cfg.clients);
    let servers: Vec<_> = (0..replicas).map(|r| cluster.machine(r)).collect();

    let registry = MetricsRegistry::new();
    cluster.attach_metrics(&registry);
    let recorder = FlightRecorder::new(64 * 1024);
    cluster.attach_recorder(&recorder);
    let spans = SpanRecorder::new(1024);
    let health = HealthHub::default();

    // stores[replica][partition]
    let cap = (cfg.clients * cfg.keys_per_client * 2 / parts).max(64);
    let stores: Vec<Vec<Rc<RefCell<Partition>>>> = (0..replicas)
        .map(|_| {
            (0..parts)
                .map(|_| Rc::new(RefCell::new(Partition::new(cap))))
                .collect()
        })
        .collect();
    let primary_role = Rc::new(PrimaryRole::default());
    let backup_role = Rc::new(BackupRole::default());
    // Standby reads power scored routing: they come with the gray
    // subsystem.
    let standby_reads = cfg.failover.gray.is_some();
    backup_role.standby_reads.set(standby_reads);

    let state = Rc::new(ChaosState::new(cfg.clients, cfg.keys_per_client));
    let integrity = plan.is_some_and(|p| {
        p.events().iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::TornDma { .. } | FaultKind::BitFlip { .. }
            )
        })
    });

    // The dedicated replication link, primary -> backup. Plain RFP: the
    // log channel is deliberately outside the client-facing epoch fence
    // (see the `replica` module docs). The primary fetches the backup's
    // acks out of memory the same integrity faults corrupt.
    let repl = cfg.replication.as_ref().map(|replication| {
        let (ship, repl_conn) = connect(
            &servers[0],
            &servers[1],
            cluster.qp(0, 1),
            cluster.qp(1, 0),
            RfpConfig {
                enable_mode_switch: false,
                integrity,
                ..RfpConfig::default()
            },
        );
        ship.set_reconnect(cluster.qp_factory(0, 1));
        (replication.clone(), Rc::new(ship), Rc::new(repl_conn))
    });

    // server_conns[replica][partition]: the connections each core polls.
    let mut server_conns = vec![vec![Vec::new(); parts]; replicas];
    let mut routers = Vec::with_capacity(cfg.clients * parts);
    for c in 0..cfg.clients {
        let m = replicas + c;
        let client_m = cluster.machine(m);
        let thread = client_m.thread(format!("chaos-c{c}"));
        // One router per partition, over that partition's replicas.
        let mine: Vec<_> = (0..parts)
            .map(|p| {
                let mut conns = Vec::with_capacity(replicas);
                for (r, server_m) in servers.iter().enumerate() {
                    let idx = (c * parts + p) * replicas + r;
                    let rfp_cfg = RfpConfig {
                        // Remote fetch only: the recovery path does not
                        // interact with the hybrid switch.
                        enable_mode_switch: false,
                        overload: cfg.overload.as_ref().map(|ov| OverloadConfig {
                            // Decorrelate the per-connection backoff jitter.
                            seed: derive_seed(ov.seed, idx as u64),
                            ..ov.clone()
                        }),
                        integrity,
                        telemetry: Some(RfpTelemetry {
                            registry: registry.clone(),
                            spans: spans.clone(),
                            prefix: format!("rfp.client.{idx}"),
                            track: idx as u32,
                        }),
                        recorder: Some(recorder.clone()),
                        health: Some(health.clone()),
                        conn_id: idx as u32,
                        ..RfpConfig::default()
                    };
                    let (cl, sc) = connect(
                        &client_m,
                        server_m,
                        cluster.qp(m, r),
                        cluster.qp(r, m),
                        rfp_cfg,
                    );
                    cl.set_reconnect(cluster.qp_factory(m, r));
                    server_conns[r][p].push(Rc::new(sc));
                    conns.push(Rc::new(cl));
                }
                let router = Rc::new(ReplicaClient::new(
                    conns,
                    FailoverConfig {
                        recovery: RecoveryConfig {
                            seed: derive_seed(cfg.seed, cfg.failover.recovery.seed + c as u64),
                            ..cfg.failover.recovery.clone()
                        },
                        gray: cfg.failover.gray.as_ref().map(|g| GrayConfig {
                            seed: derive_seed(g.seed, c as u64),
                        }),
                    },
                ));
                routers.push(Rc::clone(&router));
                router
            })
            .collect();

        let st = Rc::clone(&state);
        let reg = registry.clone();
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
        let own_keys = c * cfg.keys_per_client..(c + 1) * cfg.keys_per_client;
        let read_keys = if cfg.own_key_reads || standby_reads {
            own_keys.clone()
        } else {
            0..cfg.clients * cfg.keys_per_client
        };
        let (ops, put_ratio) = (cfg.ops_per_client, cfg.put_ratio);
        sim.spawn(async move {
            for _ in 0..ops {
                let is_put = rng.gen::<f64>() < put_ratio;
                // Writers own a disjoint key range; readers roam theirs.
                let scope = if is_put { &own_keys } else { &read_keys };
                let key_id = rng.gen_range(scope.clone()) as u64;
                let key = format!("k{key_id}").into_bytes();
                let (req, value) = if is_put {
                    let version = st.issued[c].get() + 1;
                    st.issued[c].set(version);
                    let value = ((c as u64) << 32) | version;
                    let put = KvRequest::Put {
                        key: &key,
                        value: &value.to_le_bytes(),
                    };
                    bump(&st.issued_puts);
                    (put.encode(), Some(value))
                } else {
                    (KvRequest::Get { key: &key }.encode(), None)
                };
                // Invariant baselines snapshotted at call start: only
                // what was already settled *before* this op began can
                // convict the response.
                let (floors, wipes) = (st.floors(key_id), st.wipes.get());
                let start = thread.now().as_nanos();
                let router = &mine[partition_of(&key, mine.len())];
                let outcome = if is_put {
                    router.call(&thread, &req).await
                } else {
                    router.call_read(&thread, &req).await
                };
                let (end, op) = match outcome {
                    Ok(out) => {
                        let end = thread.now().as_nanos();
                        bump(&st.completed);
                        if let Some(at) = st.recovering[c].take() {
                            reg.histogram("recovery.time")
                                .record(thread.now().since(at));
                        }
                        let resp = KvResponse::decode(&out.data).expect("server response");
                        let op = match (value, resp) {
                            (Some(v), KvResponse::Stored) => {
                                bump(&st.acked_puts);
                                st.acked.borrow_mut().insert(key_id, v);
                                RegOp::Write(v)
                            }
                            (None, resp @ (KvResponse::Found(_) | KvResponse::NotFound)) => {
                                let got = match resp {
                                    KvResponse::Found(bytes) => Some(u64::from_le_bytes(
                                        bytes[..].try_into().expect("8-byte value"),
                                    )),
                                    _ => None,
                                };
                                // A cold wipe during the call
                                // legitimately reset the floors.
                                let floors = if st.wipes.get() == wipes {
                                    floors
                                } else {
                                    st.floors(key_id)
                                };
                                st.judge_read(key_id, floors, got);
                                st.read_lats.borrow_mut().push((start, end - start));
                                RegOp::Read(got)
                            }
                            (_, other) => panic!("unexpected response {other:?}"),
                        };
                        (Some(end), op)
                    }
                    Err(e) => {
                        bump(&st.failed_calls);
                        if matches!(e.last, FailureCause::Rejected(_)) {
                            bump(&st.rejected_calls);
                        }
                        // A write that exhausted its budget may still
                        // have taken effect: record it pending. A
                        // failed read observed nothing — drop it.
                        let Some(v) = value else { continue };
                        (None, RegOp::Write(v))
                    }
                };
                st.history.borrow_mut().push(HistEntry {
                    key: key_id,
                    client: c as u32,
                    start,
                    end,
                    op,
                });
            }
            st.done_clients.set(st.done_clients.get() + 1);
        });
    }

    // The servers: one reactor core per partition on the one replica,
    // or the primary and its standby.
    match &repl {
        None => {
            let specs = server_conns[0]
                .iter()
                .zip(&stores[0])
                .enumerate()
                .map(|(p, (conns, store))| CoreSpec {
                    thread: servers[0].thread(format!("chaos-s{p}")),
                    conns: conns.clone(),
                    handler: Box::new(kv_handler(Rc::clone(store), || SimSpan::ZERO)),
                })
                .collect();
            let reactor_cfg = ReactorConfig {
                steal: cfg.reactor_steal,
                registry: Some(registry.clone()),
                recorder: Some(recorder.clone()),
            };
            let reactor = Reactor::new(reactor_cfg, specs, SPIN);
            for p in 0..parts {
                sim.spawn(reactor.run_core(p));
            }
        }
        Some((replication, ship, repl_conn)) => {
            sim.spawn(primary_serve_loop(
                servers[0].thread("chaos-primary"),
                server_conns[0][0].clone(),
                Rc::clone(&stores[0][0]),
                Rc::clone(ship),
                replication.clone(),
                Rc::clone(&primary_role),
                SPIN,
            ));
            sim.spawn(backup_serve_loop(
                servers[1].thread("chaos-backup"),
                Rc::clone(repl_conn),
                server_conns[1][0].clone(),
                Rc::clone(&stores[1][0]),
                Rc::clone(&backup_role),
                SPIN,
            ));
        }
    }

    let backup_conns = server_conns.get(1).map_or_else(Vec::new, |b| b[0].clone());
    if let Some(plan) = plan {
        // Mark every client not already recovering at each fault onset,
        // so `recovery.time` measures fault -> next completed call.
        let mut onsets: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
        onsets.sort();
        onsets.dedup();
        if !onsets.is_empty() {
            let handle = cluster.handle().clone();
            let st = Rc::clone(&state);
            sim.spawn(async move {
                for at in onsets {
                    handle.sleep_until(at).await;
                    for cell in st.recovering.iter().filter(|c| c.get().is_none()) {
                        cell.set(Some(handle.now()));
                    }
                }
            });
        }
        // A restarted replica rebuilds its server-side connection state
        // (and the backup the replication stream's receive end) before
        // serving resumed clients; a cold restart also lost the store,
        // which lived in registered memory (no plan restarts a replicated
        // rig cold: nothing re-replicates a wiped replica). Installed
        // last, so a plan
        // that never fires leaves the already-spawned tasks' scheduling
        // untouched.
        let st = Rc::clone(&state);
        let recv_end = repl.map(|(_, _, conn)| conn);
        let on_restart = move |restart: &Restart| {
            let Some(conns) = server_conns.get(restart.machine) else {
                return;
            };
            bump(&st.restarts);
            if !restart.warm {
                for store in &stores[restart.machine] {
                    *store.borrow_mut() = Partition::new(cap);
                }
                st.wipe();
            }
            let log = recv_end.as_ref().filter(|_| restart.machine == 1);
            for conn in conns.iter().flatten().chain(log) {
                conn.recover_after_restart();
            }
        };
        let sinks = InjectorSinks {
            registry: Some(registry.clone()),
            on_restart: Some(Rc::new(on_restart)),
            recorder: Some(recorder.clone()),
        };
        install(sim, &cluster, plan, sinks);
    }

    ChaosKv {
        cluster,
        registry,
        spans,
        recorder,
        health,
        state,
        routers,
        primary_role,
        backup_role,
        backup_conns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_p99_is_nearest_rank() {
        let st = ChaosState::new(1, 1);
        // GETs started at 0..10 ns with latencies 1..=10 ns: the 99th
        // percentile by nearest rank is the ⌈9.9⌉ = 10th sample.
        st.read_lats
            .borrow_mut()
            .extend((1..=10).map(|lat| (lat - 1, lat)));
        assert_eq!(st.read_p99_since(SimTime::ZERO), Some(10));
        // Only the GETs started at or after 1 ns count: nine samples
        // are too few.
        assert_eq!(st.read_p99_since(SimTime::from_nanos(1)), None);
    }
}
