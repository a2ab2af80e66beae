//! A Jakiro-style key-value rig built for fault experiments.
//!
//! [`spawn_chaos_kv`] assembles the same shape as the paper's Jakiro —
//! one server machine running EREW-partitioned server threads, client
//! machines issuing routed requests over RFP — but with the fault-
//! tolerant client path: every call goes through
//! [`RfpClient::call_with_recovery`] with a QP-reconnect factory
//! installed, and every client keeps a **ledger** of acknowledged PUTs
//! so the harness can prove (or disprove) the recovery invariants:
//!
//! * **no acked write lost** — a GET must never observe a version older
//!   than the last acknowledged PUT of that key, and never `NotFound`
//!   for a key with an acknowledged PUT;
//! * **no stale data after a cold restart** — once registered memory is
//!   wiped, any pre-crash version surfacing again is corruption, not
//!   recovery.
//!
//! Keys are disjoint per client and values carry a per-client monotone
//! version number, so both invariants are checkable online without
//! coordination. Recovery time is measured per client as the span from
//! the crash instant to that client's first completed call afterwards
//! (`recovery.time` histogram).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_core::{
    connect, CoreSpec, FailureCause, OverloadConfig, Reactor, ReactorConfig, RecoveryConfig,
    RfpConfig, RfpServerConn, RfpTelemetry,
};
use rfp_kvstore::{kv_handler, partition_of, preload_partitions, KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{
    derive_seed, FlightRecorder, HealthHub, MetricsRegistry, SimSpan, SimTime, Simulation,
    SpanRecorder,
};

use crate::inject::{install, InjectorSinks, Restart};
use crate::plan::FaultPlan;

/// Sizing and tuning of the chaos rig.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Client machines (one client thread each).
    pub client_machines: usize,
    /// Server threads on machine 0, each owning one store partition.
    pub server_threads: usize,
    /// Distinct keys per client (disjoint across clients).
    pub keys_per_client: usize,
    /// Server overload control (admission, shedding, credits): with it,
    /// every recovery call is deadline-stamped and the server sheds or
    /// busy-rejects instead of queueing without bound.
    pub overload: Option<OverloadConfig>,
    /// End-to-end fetch integrity (CRC + generation + canary): every
    /// fetched response is verified and corrupt images are refetched
    /// instead of surfaced — required for rigs that schedule torn-DMA
    /// or bit-flip fault windows.
    pub integrity: bool,
    /// Master seed for workloads and recovery jitter.
    pub seed: u64,
    /// Let the server's [`Reactor`] cores steal work from each other.
    /// Off by default (each core serves only its own connections, the
    /// configuration the determinism pins cover); the cores chaos tests
    /// turn it on to prove the recovery invariants hold while requests
    /// migrate between cores.
    pub reactor_steal: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            client_machines: 3,
            server_threads: 2,
            keys_per_client: 8,
            overload: None,
            integrity: false,
            seed: 7,
            reactor_steal: false,
        }
    }
}

/// Fraction of the chaos rig's operations that are PUTs.
const PUT_RATIO: f64 = 0.5;

/// The online outcome counters every chaos rig keeps; each rig's state
/// derefs to one.
#[derive(Default)]
pub struct Tally {
    /// Completed calls (all kinds).
    pub completed: Cell<u64>,
    /// Acknowledged PUTs.
    pub acked_puts: Cell<u64>,
    /// Calls that exhausted their recovery (or failover) budget.
    pub failed_calls: Cell<u64>,
    /// Acked-write losses observed: a GET returned `NotFound` or an
    /// older version for a key with an acknowledged newer PUT.
    pub lost_acked: Cell<u64>,
    /// Stale reads observed: a GET surfaced a version older than the
    /// rig's staleness floor for that key (a pre-wipe version after a
    /// cold restart; a version older than one an earlier-completed read
    /// had already seen).
    pub stale_reads: Cell<u64>,
    /// GETs answered `NotFound`.
    pub not_found: Cell<u64>,
}

pub(crate) fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl Tally {
    /// Books the verdict on a completed GET that observed `got`
    /// against the key's floors: the last PUT acknowledged before the
    /// verdict's reference instant, and the rig's staleness floor.
    pub(crate) fn judge_read(
        &self,
        acked_floor: Option<u64>,
        stale_floor: Option<u64>,
        got: Option<u64>,
    ) {
        match got {
            Some(v) => {
                if acked_floor.is_some_and(|floor| v < floor) {
                    bump(&self.lost_acked);
                }
                if stale_floor.is_some_and(|floor| v < floor) {
                    bump(&self.stale_reads);
                }
            }
            None => {
                bump(&self.not_found);
                if acked_floor.is_some() {
                    bump(&self.lost_acked);
                }
            }
        }
    }
}

/// The 8-byte little-endian version a rig's PUT values carry.
pub(crate) fn version_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value.try_into().expect("8-byte version value"))
}

/// The telemetry sinks every chaos rig wires up: one registry (NIC
/// engines attached up front), request spans, an always-on flight
/// recorder the NICs report into, and the per-connection health hub.
pub(crate) struct Sinks {
    pub registry: MetricsRegistry,
    pub spans: SpanRecorder,
    pub recorder: FlightRecorder,
    pub health: HealthHub,
}

impl Sinks {
    pub(crate) fn attach(cluster: &Cluster) -> Sinks {
        let registry = MetricsRegistry::new();
        cluster.attach_metrics(&registry);
        let recorder = FlightRecorder::new(64 * 1024);
        cluster.attach_recorder(&recorder);
        Sinks {
            registry,
            spans: SpanRecorder::new(1024),
            recorder,
            health: HealthHub::default(),
        }
    }

    /// The RFP tuning of client connection `idx`: remote fetch only
    /// (the recovery path does not interact with the hybrid switch),
    /// wired to every sink.
    pub(crate) fn rfp_cfg(
        &self,
        overload: Option<&OverloadConfig>,
        integrity: bool,
        idx: usize,
    ) -> RfpConfig {
        RfpConfig {
            enable_mode_switch: false,
            overload: overload.map(|ov| OverloadConfig {
                // Decorrelate the per-connection backoff jitter streams.
                seed: derive_seed(ov.seed, idx as u64),
                ..ov.clone()
            }),
            integrity,
            telemetry: Some(RfpTelemetry {
                registry: self.registry.clone(),
                spans: self.spans.clone(),
                prefix: format!("rfp.client.{idx}"),
                track: idx as u32,
            }),
            recorder: Some(self.recorder.clone()),
            health: Some(self.health.clone()),
            conn_id: idx as u32,
            ..RfpConfig::default()
        }
    }

    /// Installs `plan`'s injector. Call it last, so a plan that never
    /// fires leaves the already-spawned workload tasks' scheduling
    /// untouched.
    pub(crate) fn install(
        &self,
        sim: &mut Simulation,
        cluster: &Cluster,
        plan: &FaultPlan,
        on_restart: impl Fn(&Restart) + 'static,
    ) {
        let sinks = InjectorSinks {
            registry: Some(self.registry.clone()),
            on_restart: Some(Rc::new(on_restart)),
            recorder: Some(self.recorder.clone()),
        };
        install(sim, cluster, plan, sinks);
    }
}

/// Per-client recovery bookkeeping.
#[derive(Default)]
struct Ledger {
    /// key → version of the last *acknowledged* PUT.
    acked: RefCell<HashMap<Vec<u8>, u64>>,
    /// Versions below this predate the last cold wipe: observing one is
    /// stale data, not recovery.
    epoch_floor: Cell<u64>,
    /// Last version issued by this client (monotone across restarts).
    next_version: Cell<u64>,
    /// Crash instant still awaiting this client's first completed call.
    recovering: Cell<Option<SimTime>>,
}

/// Shared outcome counters, updated online by every client loop
/// (derefs to the rig-independent [`Tally`]).
pub struct ChaosState {
    tally: Tally,
    /// Calls whose final failure was an overload rejection
    /// (`Busy`/`Shed`) rather than a fault — a subset of
    /// [`failed_calls`](Tally::failed_calls).
    pub rejected_calls: Cell<u64>,
    /// Crash/restart cycles delivered to the rig.
    pub restarts: Cell<u64>,
    ledgers: Vec<Rc<Ledger>>,
    partitions: Vec<Rc<RefCell<Partition>>>,
    partition_cap: usize,
    server_conns: RefCell<Vec<Rc<RfpServerConn>>>,
}

impl Deref for ChaosState {
    type Target = Tally;

    fn deref(&self) -> &Tally {
        &self.tally
    }
}

impl ChaosState {
    /// Applies the restart protocol for a server restart: rebuild each
    /// connection's process state from whatever survived in its buffers,
    /// and on a cold restart also reset the application store and the
    /// clients' expectations (the data is legitimately gone).
    fn on_server_restart(&self, restart: &Restart) {
        bump(&self.restarts);
        if !restart.warm {
            // The store lived in registered memory: wiped with it.
            for p in &self.partitions {
                *p.borrow_mut() = Partition::new(self.partition_cap);
            }
            for ledger in &self.ledgers {
                ledger.acked.borrow_mut().clear();
                // Versions strictly below the last issued one predate
                // the wipe. The last issued version itself is admitted:
                // it may belong to the in-flight PUT, which the client
                // legitimately resubmits (and re-commits) post-wipe.
                ledger.epoch_floor.set(ledger.next_version.get());
            }
        }
        for conn in self.server_conns.borrow().iter() {
            conn.recover_after_restart();
        }
        for ledger in &self.ledgers {
            // Only the earliest unrecovered crash is timed.
            if ledger.recovering.get().is_none() {
                ledger.recovering.set(Some(restart.crashed_at));
            }
        }
    }
}

/// A running chaos rig.
pub struct ChaosKv {
    /// The simulated cluster (machine 0 is the server).
    pub cluster: Cluster,
    /// Unified instruments: `nic.*`, `rfp.client.*`, and — only once
    /// faults actually fire — `fault.*` / `recovery.*`.
    pub registry: MetricsRegistry,
    /// Request-lifecycle spans of the RFP connections.
    pub spans: SpanRecorder,
    /// Always-on flight recorder, the rig's one event log: `chaos.*`
    /// fault roots and window ends, `nic.*` wire events, and the
    /// clients' `recovery.*` / `overload.*` / `fetch.*` reaction chains.
    pub recorder: FlightRecorder,
    /// Rolling per-connection health (one
    /// [`ConnHealth`](rfp_simnet::ConnHealth) per client connection,
    /// keyed `client * server_threads + server_thread`).
    pub health: HealthHub,
    /// Shared outcome counters.
    pub state: Rc<ChaosState>,
    /// The serve reactor, one core per server thread (per-core served
    /// and steal counters).
    pub reactor: Reactor,
}

/// Maximum of the `name` histogram, if the run ever recorded into it.
pub(crate) fn histogram_max(registry: &MetricsRegistry, name: &str) -> Option<SimSpan> {
    // Existence check first: reading through `histogram()` would
    // *create* the instrument on a fault-free run.
    if !registry.names().iter().any(|n| n == name) {
        return None;
    }
    registry.histogram(name).max()
}

impl ChaosKv {
    /// Maximum observed client recovery time, if any crash was timed.
    pub fn max_recovery_time(&self) -> Option<SimSpan> {
        histogram_max(&self.registry, "recovery.time")
    }
}

/// Spawns the rig; pass a [`FaultPlan`] to also install its injector.
///
/// Passing `None` and passing an empty (or never-firing) plan produce
/// byte-identical metrics and trace output — the property pinned by this
/// crate's determinism tests.
pub fn spawn_chaos_kv(
    sim: &mut Simulation,
    cfg: &ChaosConfig,
    plan: Option<&FaultPlan>,
) -> ChaosKv {
    assert!(cfg.client_machines > 0, "rig needs at least one client");
    assert!(
        cfg.server_threads > 0,
        "rig needs at least one server thread"
    );
    let cluster = Cluster::new(
        sim,
        ClusterProfile::paper_testbed(),
        1 + cfg.client_machines,
    );
    let server_m = cluster.machine(0);
    let sinks = Sinks::attach(&cluster);

    let partition_cap =
        (cfg.client_machines * cfg.keys_per_client * 2 / cfg.server_threads).max(64);
    let nothing = std::iter::empty::<(&[u8], &[u8])>();
    let partitions = preload_partitions(nothing, cfg.server_threads, partition_cap);

    let state = Rc::new(ChaosState {
        tally: Tally::default(),
        rejected_calls: Cell::new(0),
        restarts: Cell::new(0),
        ledgers: (0..cfg.client_machines).map(|_| Rc::default()).collect(),
        partitions: partitions.clone(),
        partition_cap,
        server_conns: RefCell::new(Vec::new()),
    });

    // Per server thread: the connections it polls.
    let mut server_conns: Vec<Vec<Rc<RfpServerConn>>> = vec![Vec::new(); cfg.server_threads];

    for c in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + c);
        let thread = client_m.thread(format!("chaos-c{c}"));
        // One connection per server thread: requests route to the
        // partition owner (EREW, as Jakiro does).
        let mut conns = Vec::with_capacity(cfg.server_threads);
        for (s, sconns) in server_conns.iter_mut().enumerate() {
            let (cl, sc) = connect(
                &client_m,
                &server_m,
                cluster.qp(1 + c, 0),
                cluster.qp(0, 1 + c),
                sinks.rfp_cfg(
                    cfg.overload.as_ref(),
                    cfg.integrity,
                    c * cfg.server_threads + s,
                ),
            );
            cl.set_reconnect(cluster.qp_factory(1 + c, 0));
            let sc = Rc::new(sc);
            state.server_conns.borrow_mut().push(Rc::clone(&sc));
            sconns.push(sc);
            conns.push(Rc::new(cl));
        }

        let ledger = Rc::clone(&state.ledgers[c]);
        let st = Rc::clone(&state);
        let reg = sinks.registry.clone();
        let recovery = RecoveryConfig {
            seed: derive_seed(cfg.seed, 0xC0DE + c as u64),
            ..RecoveryConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
        let keys = cfg.keys_per_client;
        let nthreads = cfg.server_threads;
        sim.spawn(async move {
            loop {
                let k = rng.gen_range(0..keys);
                let key = format!("c{c}.k{k}").into_bytes();
                let conn = &conns[partition_of(&key, nthreads)];
                let (req, put_version) = if rng.gen::<f64>() < PUT_RATIO {
                    let version = ledger.next_version.get() + 1;
                    ledger.next_version.set(version);
                    let value = version.to_le_bytes();
                    let put = KvRequest::Put {
                        key: &key,
                        value: &value,
                    };
                    (put.encode(), Some(version))
                } else {
                    (KvRequest::Get { key: &key }.encode(), None)
                };
                match conn.call_with_recovery(&thread, &req, &recovery).await {
                    Ok(out) => {
                        bump(&st.completed);
                        if let Some(crashed_at) = ledger.recovering.take() {
                            reg.histogram("recovery.time")
                                .record(thread.now().since(crashed_at));
                        }
                        let resp = KvResponse::decode(&out.data).expect("server response");
                        // Floors are read at completion: a cold wipe
                        // during the call legitimately resets them.
                        let acked_floor = ledger.acked.borrow().get(&key).copied();
                        let stale_floor = Some(ledger.epoch_floor.get());
                        match (put_version, resp) {
                            (Some(version), KvResponse::Stored) => {
                                bump(&st.acked_puts);
                                ledger.acked.borrow_mut().insert(key, version);
                            }
                            (None, KvResponse::Found(value)) => {
                                let got = Some(version_of(&value));
                                st.judge_read(acked_floor, stale_floor, got);
                            }
                            (None, KvResponse::NotFound) => {
                                st.judge_read(acked_floor, stale_floor, None);
                            }
                            (_, other) => panic!("unexpected response {other:?}"),
                        }
                    }
                    Err(e) => {
                        bump(&st.failed_calls);
                        if matches!(e.last, FailureCause::Rejected(_)) {
                            bump(&st.rejected_calls);
                        }
                    }
                }
            }
        });
    }

    // The server threads: one reactor, one core per thread; with
    // stealing off each core serves only its own connections.
    let specs = server_conns
        .into_iter()
        .enumerate()
        .map(|(s, conns)| CoreSpec {
            thread: server_m.thread(format!("chaos-s{s}")),
            conns,
            handler: Box::new(kv_handler(Rc::clone(&partitions[s]), || SimSpan::ZERO)),
        })
        .collect();
    let reactor = Reactor::new(
        ReactorConfig {
            steal: cfg.reactor_steal,
            registry: Some(sinks.registry.clone()),
            recorder: Some(sinks.recorder.clone()),
        },
        specs,
        SimSpan::nanos(100),
    );
    for s in 0..cfg.server_threads {
        sim.spawn(reactor.run_core(s));
    }

    if let Some(plan) = plan {
        let hook_state = Rc::clone(&state);
        sinks.install(sim, &cluster, plan, move |restart: &Restart| {
            if restart.machine == 0 {
                hook_state.on_server_restart(restart);
            }
        });
    }

    ChaosKv {
        cluster,
        registry: sinks.registry,
        spans: sinks.spans,
        recorder: sinks.recorder,
        health: sinks.health,
        state,
        reactor,
    }
}
