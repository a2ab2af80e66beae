//! A pool of RFP connections to one server.
//!
//! A single RFP connection carries one outstanding call (its buffers
//! hold one request/response pair — the paper's clients are synchronous,
//! §2.2). Concurrency within one client therefore comes from *multiple
//! connections*; this pool manages a set of them behind a FIFO
//! semaphore, so any number of concurrent tasks can issue calls and at
//! most `size` are in flight at once — the building block for open-loop
//! and pipelined client drivers.
//!
//! With [`attach_telemetry`](RfpPool::attach_telemetry) the pool reports
//! how long callers queue for a connection (`<prefix>.acquire_wait`) and
//! how many are queued right now (`<prefix>.queue_depth`) — under
//! overload the pool is the first place queueing shows up, before any
//! wire-level symptom.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_rnic::ThreadCtx;
use rfp_simnet::{Counter, Gauge, Histogram, MetricsRegistry, Semaphore, SemaphoreGuard};

use crate::client::{CallEngine, CallPolicy, CallResult, RfpClient, NO_RECOVERY};
use crate::header::RespStatus;
use crate::recovery::RpcError;

/// Registry-backed pool instruments (see
/// [`attach_telemetry`](RfpPool::attach_telemetry)).
struct PoolInstruments {
    /// Time callers spent waiting for a free connection.
    acquire_wait: Rc<Histogram>,
    /// Callers currently queued for a connection.
    queue_depth: Rc<Gauge>,
    /// Overload calls shed in the pool because their deadline budget was
    /// spent before a connection freed up (zero wire traffic).
    local_sheds: Rc<Counter>,
    /// Registry + prefix kept for the lazily created
    /// `<prefix>.integrity_retries` counter: like the client's recovery
    /// counters, a run that never sees a corrupt fetch materialises no
    /// instrument (keeping fault-free metric output byte-identical).
    registry: MetricsRegistry,
    prefix: String,
}

impl PoolInstruments {
    /// Folds one call's discarded-fetch count into the lazy pool-level
    /// counter.
    fn note_integrity(&self, retries: u32) {
        if retries > 0 {
            self.registry
                .counter(&format!("{}.integrity_retries", self.prefix))
                .add(retries as u64);
        }
    }
}

/// A fixed-size pool of RFP connections.
pub struct RfpPool {
    clients: Vec<Rc<RfpClient>>,
    sem: Semaphore,
    free: RefCell<Vec<usize>>,
    waiting: Cell<i64>,
    instruments: RefCell<Option<PoolInstruments>>,
}

impl RfpPool {
    /// Builds a pool over the given connections.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(clients: Vec<Rc<RfpClient>>) -> Self {
        assert!(!clients.is_empty(), "pool needs at least one connection");
        let n = clients.len();
        RfpPool {
            clients,
            sem: Semaphore::new(n),
            free: RefCell::new((0..n).rev().collect()),
            waiting: Cell::new(0),
            instruments: RefCell::new(None),
        }
    }

    /// Registers the pool's instruments under `prefix` (e.g.
    /// `"kv.pool"`): `<prefix>.acquire_wait` (histogram) and
    /// `<prefix>.queue_depth` (gauge). Without this call the pool
    /// touches no registry at all.
    pub fn attach_telemetry(&self, registry: &MetricsRegistry, prefix: &str) {
        *self.instruments.borrow_mut() = Some(PoolInstruments {
            acquire_wait: registry.histogram(&format!("{prefix}.acquire_wait")),
            queue_depth: registry.gauge(&format!("{prefix}.queue_depth")),
            local_sheds: registry.counter(&format!("{prefix}.local_sheds")),
            registry: registry.clone(),
            prefix: prefix.to_string(),
        });
    }

    /// Number of connections in the pool.
    pub fn size(&self) -> usize {
        self.clients.len()
    }

    /// Connections currently idle.
    pub fn idle(&self) -> usize {
        self.free.borrow().len()
    }

    /// The pooled connections (for stats aggregation).
    pub fn clients(&self) -> &[Rc<RfpClient>] {
        &self.clients
    }

    /// Waits FIFO-fair for a free connection, recording the wait against
    /// the pool instruments when attached.
    async fn acquire(&self, thread: &ThreadCtx) -> (SemaphoreGuard, usize) {
        let t0 = thread.now();
        self.waiting.set(self.waiting.get() + 1);
        if let Some(ins) = &*self.instruments.borrow() {
            ins.queue_depth.set(self.waiting.get());
        }
        let permit = self.sem.acquire().await;
        self.waiting.set(self.waiting.get() - 1);
        if let Some(ins) = &*self.instruments.borrow() {
            ins.queue_depth.set(self.waiting.get());
            ins.acquire_wait.record(thread.now() - t0);
        }
        let idx = self
            .free
            .borrow_mut()
            .pop()
            .expect("a permit implies a free connection");
        (permit, idx)
    }

    /// Issues one call on the next idle connection, waiting FIFO-fair
    /// when all are busy.
    pub async fn call(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        let plain = CallPolicy::default();
        self.one(thread, req, plain).await.expect(NO_RECOVERY)
    }

    /// Issues a whole batch of calls pipelined over **one** connection
    /// ([`RfpClient::call_pipelined`]): the connection's ring window
    /// bounds how many ride concurrently, and their fetch polls share
    /// doorbell rings. Waits FIFO-fair for a connection like
    /// [`call`](RfpPool::call); returns one result per request, in
    /// order.
    pub async fn call_pipelined(&self, thread: &ThreadCtx, reqs: &[Vec<u8>]) -> Vec<CallResult> {
        self.in_order(thread, reqs).await
    }

    /// Overload-aware [`call`](RfpPool::call): the call's deadline
    /// budget starts at *arrival*, so time queued in the pool counts
    /// against it, and a call whose budget is spent before a connection
    /// frees up is shed right here — zero wire traffic. That local shed
    /// is the cheapest graceful degradation the subsystem has: the
    /// pool's queue stops amplifying an already-overloaded server.
    ///
    /// # Panics
    ///
    /// Panics if the pooled connections do not have overload control
    /// enabled.
    pub async fn call_overload(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        let ov = self.clients[0].overload_config();
        assert!(ov.enabled, "call_overload requires overload control");
        let by_arrival = CallPolicy::admitted(Some(thread.now() + ov.deadline));
        self.one(thread, req, by_arrival).await.expect(NO_RECOVERY)
    }

    /// Total completed calls across the pool.
    pub fn total_calls(&self) -> u64 {
        self.clients.iter().map(|c| c.stats().calls()).sum()
    }
}

/// The one path behind every pool entry point: wait FIFO-fair for a
/// connection, run `reqs` on it through the call engine, and fold
/// discarded fetches into the pool counter. A hard admission deadline
/// already spent while queueing sheds the calls right here.
impl CallEngine for RfpPool {
    async fn run<R: AsRef<[u8]>>(
        &self,
        thread: &ThreadCtx,
        reqs: &[R],
        policy: CallPolicy<'_>,
        mut sink: impl FnMut(usize, Result<CallResult, RpcError>),
    ) {
        let t0 = thread.now();
        let (_permit, idx) = self.acquire(thread).await;
        if policy
            .admission
            .flatten()
            .is_some_and(|d| thread.now() >= d)
        {
            self.free.borrow_mut().push(idx);
            for i in 0..reqs.len() {
                if let Some(ins) = &*self.instruments.borrow() {
                    ins.local_sheds.incr();
                }
                sink(
                    i,
                    Ok(CallResult::rejected(RespStatus::Shed, thread.now() - t0)),
                );
            }
            return;
        }
        let booked = |i: usize, out: Result<CallResult, RpcError>| {
            if let (Some(ins), Ok(call)) = (&*self.instruments.borrow(), &out) {
                ins.note_integrity(call.info.integrity_retries);
            }
            sink(i, out)
        };
        self.clients[idx].run(thread, reqs, policy, booked).await;
        self.free.borrow_mut().push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::RfpConfig;
    use crate::server::serve_loop;
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::{SimSpan, Simulation, WaitGroup};
    use std::cell::Cell;

    fn pooled_rig(
        sim: &mut Simulation,
        cfg: RfpConfig,
        size: usize,
    ) -> (Rc<RfpPool>, Rc<rfp_rnic::Machine>) {
        let cluster = Cluster::new(sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let mut clients = Vec::new();
        let mut conns = Vec::new();
        for _ in 0..size {
            let (cl, sc) =
                crate::conn::connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg.clone());
            clients.push(Rc::new(cl));
            conns.push(Rc::new(sc));
        }
        // One server thread per connection and a fixed 10µs process
        // time: end-to-end concurrency is then visible in wall-clock
        // terms (a single server thread would serialize the processing
        // regardless of what the pool overlaps).
        for (i, conn) in conns.into_iter().enumerate() {
            let st = sm.thread(format!("server{i}"));
            sim.spawn(serve_loop(
                st,
                vec![conn],
                |req: &[u8]| (req.to_vec(), SimSpan::micros(10)),
                SimSpan::nanos(100),
            ));
        }
        (Rc::new(RfpPool::new(clients)), cm)
    }

    #[test]
    fn pool_runs_concurrent_calls_capped_at_size() {
        let mut sim = Simulation::new(13);
        let (pool, cm) = pooled_rig(&mut sim, RfpConfig::default(), 4);

        // 8 concurrent tasks over 4 connections.
        let wg = WaitGroup::new();
        let finished_at = Rc::new(Cell::new(0u64));
        for i in 0..8u32 {
            let p = Rc::clone(&pool);
            let t = cm.thread(format!("task{i}"));
            let token = wg.add();
            sim.spawn(async move {
                let out = p.call(&t, &i.to_le_bytes()).await;
                assert_eq!(out.data, i.to_le_bytes());
                drop(token);
            });
        }
        let w = wg.clone();
        let f = Rc::clone(&finished_at);
        let h = sim.handle();
        sim.spawn(async move {
            w.wait().await;
            f.set(h.now().as_nanos());
        });

        sim.run_for(SimSpan::millis(5));
        assert_eq!(pool.total_calls(), 8);
        assert_eq!(pool.idle(), 4);
        // 8 calls × ~13-25µs each (the 10µs server time rides the
        // hybrid switch), 4-way concurrent ⇒ two waves — far below 8
        // serial calls (~110µs+).
        let elapsed_us = finished_at.get() as f64 / 1e3;
        assert!(
            elapsed_us < 60.0,
            "pool failed to overlap calls: {elapsed_us:.1}us"
        );
    }

    #[test]
    fn pool_acquire_wait_p99_bounded_at_4x_oversubscription() {
        // 16 tasks over 4 connections (4× oversubscription), all
        // arriving together. With strict FIFO handoff every caller
        // waits at most 3 "waves" of calls ahead of it; the old
        // re-race admission let a late arriver overtake queued waiters,
        // which unbounded the tail. Each call is ~13-25µs end-to-end
        // (10µs server time riding the hybrid switch), so three waves
        // stay well under 100µs.
        let mut sim = Simulation::new(17);
        let (pool, cm) = pooled_rig(&mut sim, RfpConfig::default(), 4);
        let registry = MetricsRegistry::new();
        pool.attach_telemetry(&registry, "pool");
        let wait_hist = registry.histogram("pool.acquire_wait");

        for i in 0..16u32 {
            let p = Rc::clone(&pool);
            let t = cm.thread(format!("task{i}"));
            sim.spawn(async move {
                let _ = p.call(&t, &i.to_le_bytes()).await;
            });
        }
        sim.run_for(SimSpan::millis(5));

        assert_eq!(pool.total_calls(), 16);
        assert_eq!(wait_hist.len(), 16);
        let p99 = wait_hist.percentile(99.0).expect("16 samples");
        assert!(
            p99 < SimSpan::micros(100),
            "FIFO handoff should bound the acquire tail: p99 = {}ns",
            p99.as_nanos()
        );
        // The tail is the last wave, not an unlucky starved waiter: the
        // worst wait stays within 2× the median wait plus one wave.
        let p50 = wait_hist.percentile(50.0).expect("16 samples");
        let max = wait_hist.max().expect("16 samples");
        assert!(
            max <= p50 + p50 + SimSpan::micros(30),
            "starved waiter: max {}ns vs p50 {}ns",
            max.as_nanos(),
            p50.as_nanos()
        );
    }

    #[test]
    fn pool_telemetry_records_waits_and_depth() {
        let mut sim = Simulation::new(13);
        let (pool, cm) = pooled_rig(&mut sim, RfpConfig::default(), 2);
        let registry = MetricsRegistry::new();
        pool.attach_telemetry(&registry, "pool");
        let wait_hist = registry.histogram("pool.acquire_wait");
        let depth = registry.gauge("pool.queue_depth");

        for i in 0..6u32 {
            let p = Rc::clone(&pool);
            let t = cm.thread(format!("task{i}"));
            sim.spawn(async move {
                let _ = p.call(&t, &i.to_le_bytes()).await;
            });
        }
        sim.run_for(SimSpan::millis(5));

        // Every call recorded its acquire wait; with 6 tasks over 2
        // connections most of them queued for a while.
        assert_eq!(wait_hist.len(), 6);
        assert!(wait_hist.max().unwrap() > SimSpan::ZERO);
        // Everyone got through: the queue drained back to empty.
        assert_eq!(depth.get(), 0);
        assert_eq!(pool.total_calls(), 6);
    }
}
