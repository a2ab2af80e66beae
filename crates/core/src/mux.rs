//! Fleet-scale connection multiplexing: many logical clients over few
//! physical connections.
//!
//! Every layer below this one assumes a *dedicated* connection per
//! client: its own slot ring, its own registered buffers, its own slice
//! of the server's scan. That is the paper's 8-machine shape, and it is
//! exactly what stops scaling at fleet sizes — QP state, registered
//! memory, and scan cost all grow linearly in clients even when almost
//! all of them are idle (RDMAvisor and Storm both measure this cliff).
//! RFP is unusually well placed to fix it: the server CPU is already in
//! the request path, so multiplexing is a lease table and a header
//! field, not a NIC feature.
//!
//! [`RfpMux`] virtualizes: N [`LogicalClient`] handles (stable tenant
//! ids) share M physical connections. A physical connection is
//! **leased** to at most one logical client at a time; the lease is
//! generation-stamped in the mux's table, so eviction is one counter
//! bump — the old holder's handle simply stops matching and it
//! re-acquires on its next call. Leases are sticky (a logical client
//! reuses its previous connection when idle) and evict LRU-idle under
//! pressure, dispensed strictly FIFO by the fixed [`Semaphore`]. An
//! idle logical client is two words in the holder's hand: zero ring
//! slots, zero registered bytes, zero scan work on the server — total
//! server cost is `O(M)` no matter how large N grows.
//!
//! On the server, [`shard_conns`] splits the physical connections into
//! P disjoint poller groups (EREW, like the per-thread partitioning the
//! serve loop already uses) and [`serve_loop_tenant`] runs one group
//! with per-tenant admission domains ([`TenantCredits`](crate::TenantCredits)): requests
//! carry their tenant in the request header, the sweep charges each
//! verdict to that tenant's own queue share, and credit advertisements
//! reflect the sender's backlog only — one hot tenant collapses its own
//! credits to zero while cold tenants keep full admission.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use rfp_rnic::ThreadCtx;
use rfp_simnet::{Semaphore, SemaphoreGuard};

use crate::client::{CallEngine, CallPolicy, CallResult, RfpClient, NO_RECOVERY};
use crate::conn::RfpServerConn;
use crate::header::RespStatus;
use crate::reactor::Reactor;
use crate::recovery::{RecoveryConfig, RpcError};
use crate::server::IdlePolicy;
use crate::server::RfpHandler;

/// Stable tenant identity of a logical client. Many logical clients may
/// share one tenant (a tenant is an accounting/isolation domain, not a
/// connection).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Upper bound on distinct physical QPs the mux'd connections may ride;
/// [`RfpMux::new`] asserts it. The fleet design point is "≤ 64 QPs
/// regardless of logical clients".
const MAX_PHYSICAL_QPS: usize = 64;

/// Lease state of one physical connection.
struct PhysState {
    /// Logical client currently holding the lease, if any.
    holder: Cell<Option<u32>>,
    /// Lease generation: bumped every time the lease is (re)granted, so
    /// an evicted holder's `(conn, generation)` handle stops matching —
    /// the eviction itself costs the old holder nothing until its next
    /// call.
    generation: Cell<u64>,
    /// The connection is carrying a call right now.
    busy: Cell<bool>,
    /// The connection has an entry in the idle-lease queue (dedup flag;
    /// entries are removed lazily).
    queued: Cell<bool>,
}

/// Idle-connection bookkeeping: never-leased connections and the LRU
/// queue of idle leased ones (eviction order).
struct Avail {
    free: Vec<usize>,
    idle_leased: VecDeque<usize>,
}

/// N logical clients multiplexed over M physical RFP connections.
pub struct RfpMux {
    clients: Vec<Rc<RfpClient>>,
    /// FIFO dispenser of "some connection is not busy" permits:
    /// callers are served in arrival order.
    sem: Semaphore,
    phys: Vec<PhysState>,
    avail: RefCell<Avail>,
    next_logical: Cell<u32>,
    leases: Cell<u64>,
    evictions: Cell<u64>,
    reuses: Cell<u64>,
}

impl RfpMux {
    /// Builds a mux over the given physical connections. Every request
    /// is stamped with its holder's tenant id.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty or the connections ride more than
    /// `MAX_PHYSICAL_QPS` distinct QPs (physical
    /// connections are expected to *share* QP pairs per machine — a
    /// fresh QP per connection would defeat the point).
    pub fn new(clients: Vec<Rc<RfpClient>>) -> Rc<Self> {
        assert!(!clients.is_empty(), "mux needs at least one connection");
        let qps: BTreeSet<usize> = clients
            .iter()
            .map(|c| Rc::as_ptr(&c.qp()) as usize)
            .collect();
        assert!(
            qps.len() <= MAX_PHYSICAL_QPS,
            "{} distinct QPs exceed the budget of {MAX_PHYSICAL_QPS}",
            qps.len(),
        );
        let m = clients.len();
        Rc::new(RfpMux {
            clients,
            sem: Semaphore::new(m),
            phys: (0..m)
                .map(|_| PhysState {
                    holder: Cell::new(None),
                    generation: Cell::new(0),
                    busy: Cell::new(false),
                    queued: Cell::new(false),
                })
                .collect(),
            avail: RefCell::new(Avail {
                free: (0..m).rev().collect(),
                idle_leased: VecDeque::new(),
            }),
            next_logical: Cell::new(0),
            leases: Cell::new(0),
            evictions: Cell::new(0),
            reuses: Cell::new(0),
        })
    }

    /// Creates a new logical client of `tenant`. This is the cheap
    /// operation the whole layer exists for: a handle and an id — no
    /// slots, no registered memory, no scan work until it calls.
    pub fn logical_client(self: &Rc<Self>, tenant: TenantId) -> LogicalClient {
        let id = self.next_logical.get();
        self.next_logical.set(id + 1);
        LogicalClient {
            mux: Rc::clone(self),
            id,
            tenant,
            lease: Cell::new(None),
        }
    }

    /// [`logical_client`](RfpMux::logical_client) with its lease
    /// pre-pinned to physical connection `phys` — the M=N configuration
    /// in which the mux reproduces the dedicated-connection path
    /// event-for-event (each logical client sticky-reuses its own
    /// connection forever; nothing is ever evicted).
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range or already leased.
    pub fn logical_client_pinned(self: &Rc<Self>, tenant: TenantId, phys: usize) -> LogicalClient {
        let lc = self.logical_client(tenant);
        let ph = &self.phys[phys];
        assert!(
            ph.holder.get().is_none(),
            "connection {phys} already leased"
        );
        {
            let mut avail = self.avail.borrow_mut();
            avail.free.retain(|&p| p != phys);
            avail.idle_leased.push_back(phys);
        }
        ph.holder.set(Some(lc.id));
        ph.generation.set(ph.generation.get() + 1);
        ph.queued.set(true);
        lc.lease.set(Some((phys, ph.generation.get())));
        self.leases.set(self.leases.get() + 1);
        self.clients[phys].set_tenant(Some(tenant.0));
        lc
    }

    /// Physical connections in the mux.
    pub fn physical(&self) -> usize {
        self.clients.len()
    }

    /// Logical clients created so far.
    pub fn logical_count(&self) -> u32 {
        self.next_logical.get()
    }

    /// Leases granted (fresh grants and moves; reuses not included).
    pub fn leases(&self) -> u64 {
        self.leases.get()
    }

    /// Leases revoked from idle holders to serve other logical clients.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Calls that sticky-reused the caller's previous connection.
    pub fn reuses(&self) -> u64 {
        self.reuses.get()
    }

    /// The physical connections (for stats aggregation).
    pub fn clients(&self) -> &[Rc<RfpClient>] {
        &self.clients
    }

    /// Waits FIFO-fair for a connection, then binds (or rebinds) the
    /// caller's lease to it.
    async fn acquire(&self, logical: &LogicalClient) -> (SemaphoreGuard, usize) {
        let permit = self.sem.acquire().await;
        (permit, self.claim(logical))
    }

    /// Picks the connection a fresh permit entitles the caller to:
    /// sticky reuse of its own lease when still held and idle, else a
    /// never-leased connection, else the LRU idle lease (evicted).
    fn claim(&self, logical: &LogicalClient) -> usize {
        if let Some((p, generation)) = logical.lease.get() {
            let ph = &self.phys[p];
            if ph.holder.get() == Some(logical.id)
                && ph.generation.get() == generation
                && !ph.busy.get()
            {
                ph.busy.set(true);
                self.reuses.set(self.reuses.get() + 1);
                return p;
            }
        }
        let mut avail = self.avail.borrow_mut();
        let p = if let Some(p) = avail.free.pop() {
            p
        } else {
            loop {
                let p = avail
                    .idle_leased
                    .pop_front()
                    .expect("a permit implies an available connection");
                self.phys[p].queued.set(false);
                // Entries are removed lazily: skip connections that went
                // busy (their holder sticky-reused them) since queueing.
                if !self.phys[p].busy.get() {
                    self.evictions.set(self.evictions.get() + 1);
                    break p;
                }
            }
        };
        let ph = &self.phys[p];
        ph.holder.set(Some(logical.id));
        ph.generation.set(ph.generation.get() + 1);
        ph.busy.set(true);
        self.leases.set(self.leases.get() + 1);
        logical.lease.set(Some((p, ph.generation.get())));
        self.clients[p].set_tenant(Some(logical.tenant.0));
        p
    }

    /// Returns connection `p` to the idle-lease pool (the lease itself
    /// stays with the holder until someone needs the connection).
    fn release(&self, p: usize) {
        let ph = &self.phys[p];
        ph.busy.set(false);
        if !ph.queued.get() {
            self.avail.borrow_mut().idle_leased.push_back(p);
            ph.queued.set(true);
        }
    }
}

/// One logical client: a stable identity calling through whatever
/// physical connection its current lease binds. Cheap enough to create
/// by the hundred thousand; costs nothing while idle.
pub struct LogicalClient {
    mux: Rc<RfpMux>,
    id: u32,
    tenant: TenantId,
    /// `(connection, generation)` of the last lease; stale once the
    /// generation moves on.
    lease: Cell<Option<(usize, u64)>>,
}

impl LogicalClient {
    /// This logical client's id (unique within its mux).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This logical client's tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Issues one call ([`RfpClient::call`]) through the leased
    /// connection, waiting FIFO-fair when all are busy.
    pub async fn call(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        let plain = CallPolicy::default();
        self.one(thread, req, plain).await.expect(NO_RECOVERY)
    }

    /// Overload-aware call: the deadline budget starts at *arrival*
    /// (time queued for a lease counts against it), and a call whose
    /// budget is spent before a connection frees up is shed locally —
    /// zero wire traffic.
    ///
    /// # Panics
    ///
    /// Panics if the mux'd connections carry no overload control.
    pub async fn call_overload(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        let ov = self.mux.clients[0].overload_config();
        let ov = ov.expect("call_overload requires overload control");
        let by_arrival = CallPolicy::admitted(Some(thread.now() + ov.deadline));
        self.one(thread, req, by_arrival).await.expect(NO_RECOVERY)
    }

    /// Pipelined batch over the leased connection
    /// ([`RfpClient::call_pipelined`]): the physical ring's window
    /// bounds in-flight calls, doorbell batching and all.
    pub async fn call_pipelined(&self, thread: &ThreadCtx, reqs: &[Vec<u8>]) -> Vec<CallResult> {
        self.in_order(thread, reqs).await
    }

    /// Fault-tolerant call ([`RfpClient::call_with_recovery`]) through
    /// the leased connection.
    pub async fn call_with_recovery(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        rec: &RecoveryConfig,
    ) -> Result<CallResult, RpcError> {
        self.one(thread, req, CallPolicy::recovered(rec)).await
    }
}

/// The one path behind every entry point of a logical client: wait
/// FIFO-fair for a lease, run `reqs` on the leased connection through
/// the call engine. A hard admission deadline already spent while
/// queueing sheds the calls locally.
impl CallEngine for LogicalClient {
    async fn run<R: AsRef<[u8]>>(
        &self,
        thread: &ThreadCtx,
        reqs: &[R],
        policy: CallPolicy<'_>,
        mut sink: impl FnMut(usize, Result<CallResult, RpcError>),
    ) {
        let t0 = thread.now();
        let (_permit, idx) = self.mux.acquire(self).await;
        if policy
            .admission
            .flatten()
            .is_some_and(|d| thread.now() >= d)
        {
            self.mux.release(idx);
            for i in 0..reqs.len() {
                sink(
                    i,
                    Ok(CallResult::rejected(RespStatus::Shed, thread.now() - t0)),
                );
            }
            return;
        }
        let conn = &self.mux.clients[idx];
        conn.run(thread, reqs, policy, sink).await;
        self.mux.release(idx);
    }
}

/// Splits `conns` into `groups` disjoint poller groups, round-robin, so
/// each group's load is statistically even. Every group is non-empty
/// (callers asking for more groups than connections get one group per
/// connection).
pub fn shard_conns(conns: &[Rc<RfpServerConn>], groups: usize) -> Vec<Vec<Rc<RfpServerConn>>> {
    let groups = groups.clamp(1, conns.len().max(1));
    let mut out: Vec<Vec<Rc<RfpServerConn>>> = (0..groups).map(|_| Vec::new()).collect();
    for (i, conn) in conns.iter().enumerate() {
        out[i % groups].push(Rc::clone(conn));
    }
    out
}

/// Runs one poller group with per-tenant admission domains: the
/// one-core serve [`Reactor`] whose admission stage charges
/// [`TenantCredits`](crate::TenantCredits) in place of the single
/// global queue bound. Requests without a tenant stamp share one
/// implicit domain, so an untenanted workload is admitted, bounded and
/// credited exactly as under [`serve_loop`](crate::serve_loop) — with
/// one difference, kept because `tests/reactor_identity.rs` pins both
/// sides of it: a `Shed` verdict here is stamped with the *current*
/// scan's domain level, there with the *previous* scan's.
///
/// # Panics
///
/// Panics if the group is empty or overload control is not enabled on
/// its connections (per-tenant credits are an overload-layer feature).
pub async fn serve_loop_tenant(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    handler: impl RfpHandler + 'static,
    idle: impl Into<IdlePolicy>,
) {
    Reactor::single(thread, conns, handler, idle)
        .per_tenant()
        .run_core(0)
        .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::RfpConfig;
    use crate::server::serve_loop;
    use rfp_rnic::{Cluster, ClusterProfile, Machine, Qp};
    use rfp_simnet::{SimSpan, Simulation};

    /// Builds `m` physical connections that share ONE QP pair between
    /// the client machine and the server — the QP-virtualization shape.
    #[allow(clippy::type_complexity)]
    fn mux_rig(
        sim: &mut Simulation,
        cfg: RfpConfig,
        m: usize,
        serve: bool,
    ) -> (
        Vec<Rc<RfpClient>>,
        Vec<Rc<RfpServerConn>>,
        Rc<Machine>,
        Rc<Machine>,
    ) {
        let cluster = Cluster::new(sim, ClusterProfile::paper_testbed(), 2);
        let (cm, smach) = (cluster.machine(0), cluster.machine(1));
        let qp_c2s: Rc<Qp> = cluster.qp(0, 1);
        let qp_s2c: Rc<Qp> = cluster.qp(1, 0);
        let mut clients = Vec::new();
        let mut conns = Vec::new();
        for _ in 0..m {
            let (cl, sc) = crate::conn::connect(
                &cm,
                &smach,
                Rc::clone(&qp_c2s),
                Rc::clone(&qp_s2c),
                cfg.clone(),
            );
            clients.push(Rc::new(cl));
            conns.push(Rc::new(sc));
        }
        if serve {
            for (i, conn) in conns.iter().enumerate() {
                let st = smach.thread(format!("server{i}"));
                sim.spawn(serve_loop(
                    st,
                    vec![Rc::clone(conn)],
                    |req: &[u8]| (req.to_vec(), SimSpan::micros(2)),
                    SimSpan::nanos(100),
                ));
            }
        }
        (clients, conns, cm, smach)
    }

    /// Completed calls across the mux's physical connections.
    fn calls(mux: &RfpMux) -> u64 {
        mux.clients().iter().map(|c| c.stats().calls()).sum()
    }

    #[test]
    fn mux_shares_few_conns_among_many_logicals() {
        let mut sim = Simulation::new(21);
        let cfg = RfpConfig::default();
        let (clients, _conns, cm, _sm) = mux_rig(&mut sim, cfg, 4, true);
        let mux = RfpMux::new(clients);

        // 16 logical clients (4 tenants), each issuing 3 calls.
        let running = Rc::new(Cell::new(16usize));
        for i in 0..16u32 {
            let lc = mux.logical_client(TenantId(i % 4));
            let t = cm.thread(format!("task{i}"));
            let running = Rc::clone(&running);
            sim.spawn(async move {
                for k in 0..3u32 {
                    let payload = (i * 100 + k).to_le_bytes();
                    let out = lc.call(&t, &payload).await;
                    assert_eq!(out.data, payload, "logical {i} call {k}");
                }
                running.set(running.get() - 1);
            });
        }
        sim.run_for(SimSpan::millis(20));
        assert_eq!(running.get(), 0, "all logical clients finished");
        assert_eq!(calls(&mux), 48);
        assert_eq!(mux.logical_count(), 16);
        // 16 logicals over 4 conns: leases must have moved.
        assert!(mux.evictions() > 0, "oversubscription must evict");
        assert!(
            mux.leases() >= 16,
            "every logical client was leased at least once"
        );
    }

    #[test]
    fn idle_logical_clients_cost_no_leases() {
        let mut sim = Simulation::new(3);
        let (clients, _conns, cm, _sm) = mux_rig(&mut sim, RfpConfig::default(), 2, true);
        let mux = RfpMux::new(clients);

        // A large fleet exists; only two ever call.
        let mut fleet = Vec::new();
        for i in 0..10_000u32 {
            fleet.push(mux.logical_client(TenantId(i % 7)));
        }
        for (k, lc) in fleet.into_iter().take(2).enumerate() {
            let t = cm.thread(format!("task{k}"));
            sim.spawn(async move {
                let out = lc.call(&t, b"ping").await;
                assert_eq!(out.data, b"ping");
            });
        }
        sim.run_for(SimSpan::millis(5));
        assert_eq!(calls(&mux), 2);
        // The 9 998 idle logical clients held nothing: two leases total.
        assert_eq!(mux.leases(), 2);
        assert_eq!(mux.evictions(), 0);
    }

    #[test]
    fn pinned_m_equals_n_never_evicts_and_always_reuses() {
        let mut sim = Simulation::new(5);
        let cfg = RfpConfig::default();
        let (clients, _conns, cm, _sm) = mux_rig(&mut sim, cfg, 3, true);
        let mux = RfpMux::new(clients);
        for i in 0..3u32 {
            let lc = mux.logical_client_pinned(TenantId(i), i as usize);
            let t = cm.thread(format!("task{i}"));
            sim.spawn(async move {
                for k in 0..4u32 {
                    let payload = (i * 10 + k).to_le_bytes();
                    let out = lc.call(&t, &payload).await;
                    assert_eq!(out.data, payload);
                }
            });
        }
        sim.run_for(SimSpan::millis(10));
        assert_eq!(calls(&mux), 12);
        assert_eq!(mux.evictions(), 0, "pinned leases never move");
        assert_eq!(mux.leases(), 3, "one pin each, no regrants");
        assert_eq!(mux.reuses(), 12, "every call reused its pin");
    }

    #[test]
    fn tenant_stamp_reaches_the_server() {
        let mut sim = Simulation::new(9);
        let (clients, conns, cm, sm) = mux_rig(&mut sim, RfpConfig::default(), 1, false);
        let conn = Rc::clone(&conns[0]);
        let seen = Rc::new(Cell::new(None));
        {
            let conn = Rc::clone(&conn);
            let seen = Rc::clone(&seen);
            let st = sm.thread("server");
            sim.spawn(async move {
                loop {
                    if let Some(req) = conn.try_recv(&st).await {
                        seen.set(conn.current_tenant());
                        conn.send(&st, &req).await;
                    } else {
                        st.busy(SimSpan::nanos(100)).await;
                    }
                }
            });
        }
        let mux = RfpMux::new(clients);
        let lc = mux.logical_client(TenantId(0xBEEF));
        let t = cm.thread("task");
        sim.spawn(async move {
            let _ = lc.call(&t, b"hi").await;
        });
        sim.run_for(SimSpan::millis(2));
        assert_eq!(seen.get(), Some(0xBEEF));
    }

    #[test]
    fn shard_conns_partitions_disjoint_and_covers() {
        let mut sim = Simulation::new(1);
        let (_clients, conns, _cm, _sm) = mux_rig(&mut sim, RfpConfig::default(), 7, false);
        let groups = shard_conns(&conns, 3);
        assert_eq!(groups.len(), 3);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 7);
        let mut seen = BTreeSet::new();
        for g in &groups {
            assert!(!g.is_empty());
            for c in g {
                assert!(seen.insert(Rc::as_ptr(c) as usize), "conn in two groups");
            }
        }
        // More groups than connections degrades to one conn per group.
        assert_eq!(shard_conns(&conns[..2], 5).len(), 2);
    }
}
