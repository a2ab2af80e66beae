//! The replicated key-value rig behind the failover and gray-failure
//! experiments.
//!
//! It assembles the primary/backup pair from `rfp-kvstore`'s
//! [`replica`](rfp_kvstore::replica) module — machine 0 is the primary,
//! machine 1 the standby backup fed by the primary's replication log,
//! machines `2..` run clients — and routes every client call through an
//! [`rfp_core::ReplicaClient`], so a dead or fenced primary re-homes
//! the client onto the backup automatically. Two presets run on it,
//! differing only in values:
//!
//! * [`spawn_failover_kv`] aims it at fail-*stop* faults (crashes,
//!   partitions) with an optional scheduled promotion of the backup;
//! * [`spawn_grayfail_kv`] aims it at fail-*slow* faults (slow links,
//!   flaky sub-recovery-threshold links, CPU-throttled serve loops).
//!   Nothing in those scenarios ever crashes, errors, or sheds, so the
//!   crash failover path never fires; what the rig measures is whether
//!   the gray-failure subsystem (scored routing, hedged reads, retry
//!   budgets — [`rfp_core::GrayConfig`]) keeps the **read tail**
//!   bounded while the fault is live.
//!
//! The rig records several layers of evidence per run:
//!
//! * **online invariant counters** — a GET that observes a version
//!   older than an already-acknowledged PUT of the same key books
//!   `lost_acked`; one that runs *backwards* relative to a version some
//!   earlier-completed read already observed books `stale_reads`
//!   (the deposed-primary signature). Both compare against snapshots
//!   taken at call *start*, so a read racing a concurrent write is
//!   never a false positive;
//! * **a full operation history** — every call becomes a
//!   [`HistEntry`]; calls that exhausted their budget stay *pending*
//!   (they may or may not have taken effect), exactly what
//!   [`rfp_workload::check_history`] is built to adjudicate;
//! * **fault timing** (failover preset) — the span from the first fault
//!   instant to each client's next completed call, in the
//!   `failover.time` histogram;
//! * **phase-tagged read latencies** — every GET's `(start, latency)`
//!   lands in a vector so a bench can compute the read p99 over the
//!   mitigation-steady measurement phase, excluding warmup and the
//!   detection transient;
//! * **duplicate-apply ledger** — the primary counts mutations it
//!   actually applied and the standby counts mutations it refused;
//!   together with the checker history and
//!   [`issued_puts`](FailoverState::issued_puts) these prove hedging
//!   never double-applies a write.
//!
//! Every PUT value is `client << 32 | version` with a per-client
//! monotone version, so write values are globally unique (the checker's
//! convention) and each key has exactly one writer. *Reads* either roam
//! the whole keyspace (cross-client reads are what make the surviving
//! failover histories worth checking) or stay on the client's own keys
//! — the gray preset's workload, and what any run with the gray
//! subsystem gets: with **standby reads** on — the backup serves GETs from its replicated
//! partition while unpromoted and refuses mutations with `Busy` without
//! executing them ([`BackupRole::standby_reads`], enabled with the gray
//! subsystem) — a cross-client read served by the standby could
//! legitimately observe a write another client saw early on the primary
//! before the log batch shipped (a real read-uncommitted anomaly of
//! standby reads, not a bug to hunt here); own-key reads are immune
//! because `Sync` ack applies a write at the backup before its issuer
//! sees the ack.
//!
//! Promotion is the experiment's failure detector: the caller schedules
//! it (`promote_at`) only for scenarios where the primary really is
//! dead. Partition scenarios deliberately leave the backup unpromoted —
//! clients bounce off the standby and come back once the link heals;
//! that costs availability, never consistency. Gray faults are exactly
//! the ones a crash detector cannot see, so that preset never promotes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_core::{connect, FailoverConfig, GrayConfig, RecoveryConfig, ReplicaClient, RfpConfig};
use rfp_kvstore::replica::{
    backup_serve_loop, primary_serve_loop, BackupRole, PrimaryRole, ReplicationConfig,
};
use rfp_kvstore::{KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{
    derive_seed, FlightRecorder, HealthHub, Histogram, MetricsRegistry, RetryPolicy, Severity,
    SimSpan, SimTime, Simulation, SpanRecorder,
};
use rfp_workload::{HistEntry, RegOp};

use crate::harness::{bump, histogram_max, version_of, Sinks, Tally};
use crate::inject::Restart;
use crate::plan::{FaultKind, FaultPlan};

/// The epoch a promoted backup fences at (the rig promotes at most
/// once per run).
const PROMOTED_EPOCH: u16 = 1;

/// Sizing and tuning of the replicated rig. [`Default`] is the
/// failover study's configuration, [`grayfail`](Self::grayfail) the
/// gray-failure study's.
#[derive(Clone, Debug)]
pub struct FailoverChaosConfig {
    /// Client machines (one client thread each), on machines `2..`.
    pub clients: usize,
    /// Keys *written* per client.
    pub keys_per_client: usize,
    /// Operations each client issues before stopping. Bounded so the
    /// per-key histories stay inside the checker's search capacity.
    pub ops_per_client: usize,
    /// Fraction of operations that are PUTs (always routed `call`,
    /// never hedged — mutations anchor on the primary). GETs go through
    /// [`ReplicaClient::call_hedged`], which is `call` unless
    /// `failover.gray` mounts the gray-failure subsystem.
    pub put_ratio: f64,
    /// Primary-side replication tuning (`Sync` ack by default — standby
    /// reads lean on acked ⇒ applied-at-backup).
    pub replication: ReplicationConfig,
    /// Client-side router policy (retry budget per replica, maximum
    /// re-homings per call, and `failover.gray`, the gray-failure
    /// subsystem).
    pub failover: FailoverConfig,
    /// Master seed for workloads and recovery jitter.
    pub seed: u64,
}

/// A router policy with a per-replica retry budget of `attempts`: short,
/// so the router stops flogging a dead primary and re-homes within a
/// bounded handful of attempts instead of riding out the full
/// single-server recovery schedule first.
fn short_retry(attempts: u32) -> FailoverConfig {
    let retry = RetryPolicy::exponential(attempts, SimSpan::micros(10), SimSpan::micros(200), 0.2);
    FailoverConfig {
        recovery: RecoveryConfig {
            retry,
            ..RecoveryConfig::default()
        },
        ..FailoverConfig::default()
    }
}

impl FailoverChaosConfig {
    /// The gray-failure study: a longer, read-heavier workload of
    /// hedged reads.
    pub fn grayfail() -> Self {
        FailoverChaosConfig {
            ops_per_client: 400,
            put_ratio: 0.3,
            failover: short_retry(6),
            seed: 23,
            ..FailoverChaosConfig::default()
        }
    }
}

impl Default for FailoverChaosConfig {
    fn default() -> Self {
        FailoverChaosConfig {
            clients: 3,
            keys_per_client: 4,
            ops_per_client: 60,
            put_ratio: 0.5,
            replication: ReplicationConfig::default(),
            failover: short_retry(4),
            seed: 11,
        }
    }
}

/// Shared outcome state, updated online by every client loop (derefs
/// to the rig-independent [`Tally`]).
pub struct FailoverState {
    tally: Tally,
    /// PUT calls issued (acked or not) — the duplicate-apply ceiling.
    pub issued_puts: Cell<u64>,
    /// Clients that finished their op budget.
    pub done_clients: Cell<usize>,
    /// When the backup was promoted, if it was.
    pub promoted_at: Cell<Option<SimTime>>,
    /// key id → value of the last acked PUT (single writer per key and
    /// per-client-monotone versions make the max the latest).
    acked: RefCell<HashMap<u64, u64>>,
    /// key id → newest value any completed read has observed.
    observed: RefCell<HashMap<u64, u64>>,
    /// Full operation history, in completion/abandonment order.
    history: RefCell<Vec<HistEntry>>,
    /// Per-client first-fault instant awaiting the first completed call.
    recovering: Vec<Cell<Option<SimTime>>>,
    /// Every completed GET as `(start_ns, latency_ns)`.
    read_lats: RefCell<Vec<(u64, u64)>>,
}

impl Deref for FailoverState {
    type Target = Tally;

    fn deref(&self) -> &Tally {
        &self.tally
    }
}

impl FailoverState {
    fn new(clients: usize) -> Self {
        FailoverState {
            tally: Tally::default(),
            issued_puts: Cell::new(0),
            done_clients: Cell::new(0),
            promoted_at: Cell::new(None),
            acked: RefCell::default(),
            observed: RefCell::default(),
            history: RefCell::default(),
            recovering: (0..clients).map(|_| Cell::new(None)).collect(),
            read_lats: RefCell::default(),
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

/// A running replicated rig.
pub struct FailoverKv {
    /// The simulated cluster (0 = primary, 1 = backup, `2..` clients).
    pub cluster: Cluster,
    /// Unified instruments (`rfp.client.*`, `fault.*`, `recovery.*`,
    /// `routing.*`, `failover.time`).
    pub registry: MetricsRegistry,
    /// Request-lifecycle spans.
    pub spans: SpanRecorder,
    /// Flight recorder: `chaos.*` fault roots and window ends, the
    /// backup's `replica.promote`, and the clients' `recovery.*`
    /// (`recovery.failover`, `recovery.hedge.*`) and `routing.demote`
    /// reaction chains.
    pub recorder: FlightRecorder,
    /// Rolling per-connection health (keyed `client * 2 + replica`).
    pub health: HealthHub,
    /// Shared outcome state.
    pub state: Rc<FailoverState>,
    /// One router per client, in machine order.
    pub routers: Vec<Rc<ReplicaClient>>,
    /// Primary-side replication bookkeeping (and the apply ledger).
    pub primary_role: Rc<PrimaryRole>,
    /// Backup-side replication bookkeeping (and the refusal ledger).
    pub backup_role: Rc<BackupRole>,
    /// The primary's store.
    pub primary_part: Rc<RefCell<Partition>>,
    /// The backup's store.
    pub backup_part: Rc<RefCell<Partition>>,
}

impl FailoverKv {
    /// Total replica re-homings across all clients.
    pub fn total_failovers(&self) -> u64 {
        self.routers.iter().map(|r| r.failovers()).sum()
    }

    /// Maximum observed client failover time, if any fault was timed.
    pub fn max_failover_time(&self) -> Option<SimSpan> {
        histogram_max(&self.registry, "failover.time")
    }

    /// `(issued, won, wasted)` hedge legs across all routers.
    pub fn total_hedges(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for r in &self.routers {
            let (i, w, x) = r.hedges();
            t.0 += i;
            t.1 += w;
            t.2 += x;
        }
        t
    }

    /// Retry-budget tokens consumed and grants denied, summed.
    pub fn budget_totals(&self) -> (u64, u64) {
        let mut t = (0, 0);
        for r in &self.routers {
            t.0 += r.budget().consumed();
            t.1 += r.budget().denied();
        }
        t
    }
}

/// What a preset of the replicated rig fixes, beyond its config.
struct Preset {
    /// Thread-name prefix.
    name: &'static str,
    /// Salt of the per-client recovery jitter streams.
    recovery_salt: u64,
    /// When the failure detector promotes the backup.
    promote_at: Option<SimTime>,
    /// Histogram timing first fault → each client's next completed
    /// call.
    fault_timer: Option<&'static str>,
    /// Read scope: each client reads only the keys it writes, instead
    /// of roaming every client's. Standby reads force it either way
    /// (see the module docs for why cross-client reads stop being
    /// linearizable under them).
    own_key_reads: bool,
    /// Whether a restarted backup rebuilds its server-side connection
    /// state (client-facing and the replication stream's receive end)
    /// like a restarted primary does.
    restart_backup: bool,
}

/// Spawns the failover preset; pass a [`FaultPlan`] to install its
/// injector and `promote_at` to schedule the failure detector's
/// promotion of the backup (crash scenarios only — a partitioned
/// primary is not dead). A restarted ex-primary rebuilds its connection
/// process state — but it is *deposed*: it comes back at its old epoch
/// and the fence keeps it from serving promoted-era clients.
pub fn spawn_failover_kv(
    sim: &mut Simulation,
    cfg: &FailoverChaosConfig,
    plan: Option<&FaultPlan>,
    promote_at: Option<SimTime>,
) -> FailoverKv {
    let preset = Preset {
        name: "failover",
        recovery_salt: 0xFA11,
        promote_at,
        fault_timer: Some("failover.time"),
        own_key_reads: false,
        restart_backup: false,
    };
    spawn_replicated_kv(sim, cfg, plan, preset)
}

/// Spawns the gray-failure preset (configure it from
/// [`FailoverChaosConfig::grayfail`]); pass a [`FaultPlan`] carrying
/// fail-slow windows (`slow_link`, or a `loss_burst` / `straggler` that
/// never heals) to install its injector. The backup is never promoted, and either replica rebuilds
/// its connection state after a restart.
pub fn spawn_grayfail_kv(
    sim: &mut Simulation,
    cfg: &FailoverChaosConfig,
    plan: Option<&FaultPlan>,
) -> FailoverKv {
    let preset = Preset {
        name: "gray",
        recovery_salt: 0x64AF,
        promote_at: None,
        fault_timer: None,
        own_key_reads: true,
        restart_backup: true,
    };
    spawn_replicated_kv(sim, cfg, plan, preset)
}

fn spawn_replicated_kv(
    sim: &mut Simulation,
    cfg: &FailoverChaosConfig,
    plan: Option<&FaultPlan>,
    preset: Preset,
) -> FailoverKv {
    assert!(cfg.clients > 0, "rig needs at least one client");
    assert!(cfg.keys_per_client > 0, "rig needs at least one key");
    let cluster = Cluster::new(sim, ClusterProfile::paper_testbed(), 2 + cfg.clients);
    let machines = [cluster.machine(0), cluster.machine(1)];
    let sinks = Sinks::attach(&cluster);

    let partition_cap = (cfg.clients * cfg.keys_per_client * 2).max(64);
    let primary_part = Rc::new(RefCell::new(Partition::new(partition_cap)));
    let backup_part = Rc::new(RefCell::new(Partition::new(partition_cap)));
    let primary_role = Rc::new(PrimaryRole::default());
    let backup_role = Rc::new(BackupRole::default());
    // Standby reads power scored routing and hedging: they come with
    // the gray subsystem.
    let standby_reads = cfg.failover.gray.is_some();
    backup_role.standby_reads.set(standby_reads);

    let state = Rc::new(FailoverState::new(cfg.clients));
    // End-to-end fetch integrity runs iff the plan can corrupt a fetched
    // image: torn-DMA and bit-flip windows would otherwise surface bad
    // bytes.
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
    // (see the `replica` module docs).
    let (ship, repl_conn) = connect(
        &machines[0],
        &machines[1],
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        RfpConfig {
            enable_mode_switch: false,
            // The primary fetches the backup's acks out of memory the
            // same integrity faults corrupt.
            integrity,
            ..RfpConfig::default()
        },
    );
    ship.set_reconnect(cluster.qp_factory(0, 1));
    let repl_conn = Rc::new(repl_conn);

    // Server-side client connections, per replica.
    let mut server_conns = [Vec::new(), Vec::new()];
    let mut routers: Vec<Rc<ReplicaClient>> = Vec::new();

    for c in 0..cfg.clients {
        let client_m = cluster.machine(2 + c);
        let thread = client_m.thread(format!("{}-c{c}", preset.name));
        let mut replicas = Vec::new();
        for (replica, server_m) in machines.iter().enumerate() {
            let (cl, sc) = connect(
                &client_m,
                server_m,
                cluster.qp(2 + c, replica),
                cluster.qp(replica, 2 + c),
                sinks.rfp_cfg(None, integrity, c * 2 + replica),
            );
            cl.set_reconnect(cluster.qp_factory(2 + c, replica));
            server_conns[replica].push(Rc::new(sc));
            replicas.push(Rc::new(cl));
        }
        let router = Rc::new(ReplicaClient::new(
            replicas,
            FailoverConfig {
                recovery: RecoveryConfig {
                    seed: derive_seed(cfg.seed, preset.recovery_salt + c as u64),
                    ..cfg.failover.recovery.clone()
                },
                gray: cfg.failover.gray.as_ref().map(|g| GrayConfig {
                    seed: derive_seed(g.seed, c as u64),
                    ..g.clone()
                }),
            },
        ));
        routers.push(Rc::clone(&router));

        let st = Rc::clone(&state);
        let reg = sinks.registry.clone();
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
        let own_keys = c * cfg.keys_per_client..(c + 1) * cfg.keys_per_client;
        let read_keys = if preset.own_key_reads || standby_reads {
            own_keys.clone()
        } else {
            0..cfg.clients * cfg.keys_per_client
        };
        let (ops, put_ratio) = (cfg.ops_per_client, cfg.put_ratio);
        let fault_timer = preset.fault_timer;
        sim.spawn(async move {
            let mut version = 0u64;
            for _ in 0..ops {
                let is_put = rng.gen::<f64>() < put_ratio;
                // Writers own a disjoint key range; readers roam theirs.
                let scope = if is_put { &own_keys } else { &read_keys };
                let key_id = rng.gen_range(scope.clone()) as u64;
                let key = format!("k{key_id}").into_bytes();
                let (req, value) = if is_put {
                    version += 1;
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
                let acked_floor = st.acked.borrow().get(&key_id).copied();
                let observed_floor = st.observed.borrow().get(&key_id).copied();
                let start = thread.now().as_nanos();
                let outcome = if is_put {
                    router.call(&thread, &req).await
                } else {
                    router.call_hedged(&thread, &req).await
                };
                let (end, op) = match outcome {
                    Ok(out) => {
                        let end = thread.now().as_nanos();
                        bump(&st.completed);
                        if let Some(crashed_at) = st.recovering[c].take() {
                            let timer = fault_timer.expect("only a timing preset marks clients");
                            reg.histogram(timer).record(thread.now().since(crashed_at));
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
                                    KvResponse::Found(bytes) => Some(version_of(&bytes)),
                                    _ => None,
                                };
                                st.judge_read(acked_floor, observed_floor, got);
                                if let Some(v) = got {
                                    let mut obs = st.observed.borrow_mut();
                                    let slot = obs.entry(key_id).or_insert(v);
                                    *slot = (*slot).max(v);
                                }
                                st.read_lats.borrow_mut().push((start, end - start));
                                RegOp::Read(got)
                            }
                            (_, other) => panic!("unexpected response {other:?}"),
                        };
                        (Some(end), op)
                    }
                    Err(_) => {
                        bump(&st.failed_calls);
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
    let [primary_conns, backup_conns] = server_conns;

    // The primary and its standby.
    sim.spawn(primary_serve_loop(
        machines[0].thread(format!("{}-primary", preset.name)),
        primary_conns.clone(),
        Rc::clone(&primary_part),
        Rc::new(ship),
        cfg.replication.clone(),
        Rc::clone(&primary_role),
        SimSpan::nanos(100),
    ));
    sim.spawn(backup_serve_loop(
        machines[1].thread(format!("{}-backup", preset.name)),
        Rc::clone(&repl_conn),
        backup_conns.clone(),
        Rc::clone(&backup_part),
        Rc::clone(&backup_role),
        SimSpan::nanos(100),
    ));

    // The failure detector: promote the backup into the next epoch at a
    // fixed (deterministic) instant after the crash.
    if let Some(at) = preset.promote_at {
        let handle = cluster.handle().clone();
        let role = Rc::clone(&backup_role);
        let conns = backup_conns.clone();
        let st = Rc::clone(&state);
        let rec = sinks.recorder.clone();
        sim.spawn(async move {
            let now = handle.now();
            if at > now {
                handle.sleep(at.since(now)).await;
            }
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

    if let Some(plan) = plan {
        // Mark every client as "recovering" at the first fault instant
        // so the timer histogram measures fault -> first completed call.
        let first_at = plan.events().iter().map(|e| e.at).min();
        if let Some(first_at) = first_at.filter(|_| preset.fault_timer.is_some()) {
            let handle = cluster.handle().clone();
            let st = Rc::clone(&state);
            sim.spawn(async move {
                let now = handle.now();
                if first_at > now {
                    handle.sleep(first_at.since(now)).await;
                }
                let at = handle.now();
                for cell in &st.recovering {
                    cell.set(Some(at));
                }
            });
        }
        // A restarted replica rebuilds its server-side connection state
        // before serving resumed clients.
        let restart_backup = preset.restart_backup;
        sinks.install(sim, &cluster, plan, move |restart: &Restart| {
            let (conns, repl) = match restart.machine {
                0 => (&primary_conns, None),
                1 if restart_backup => (&backup_conns, Some(&repl_conn)),
                _ => return,
            };
            for conn in conns.iter().chain(repl) {
                conn.recover_after_restart();
            }
        });
    }

    FailoverKv {
        cluster,
        registry: sinks.registry,
        spans: sinks.spans,
        recorder: sinks.recorder,
        health: sinks.health,
        state,
        routers,
        primary_role,
        backup_role,
        primary_part,
        backup_part,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_p99_is_nearest_rank() {
        let st = FailoverState::new(1);
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
