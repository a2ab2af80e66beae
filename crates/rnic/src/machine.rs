//! Machines and simulated threads.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::{Rc, Weak};

use rfp_simnet::{BusyClock, SimHandle, SimSpan, SimTime, Sleep};

use crate::fault::MachineFaults;
use crate::mem::{MemRegion, MrId};
use crate::nic::Nic;
use crate::profile::NicProfile;

/// Identifier of a machine within one cluster.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MachineId(pub usize);

/// One host: a set of cores running simulated threads plus one RNIC.
///
/// Threads are modelled 1:1 with cores (the paper pins each server thread
/// to a dedicated core), so CPU time is accounted per-thread via
/// [`ThreadCtx`] rather than through a shared core scheduler.
pub struct Machine {
    id: MachineId,
    nic: Rc<Nic>,
    handle: SimHandle,
    next_mr: Cell<u64>,
    /// Cumulative bytes of registered (pinned) memory — the server-side
    /// footprint the fleet bench reports.
    registered_bytes: Cell<u64>,
    /// Queue pairs with an endpoint on this machine — each is real NIC
    /// cache plus host memory on the hardware this models.
    qp_endpoints: Cell<u64>,
    faults: MachineFaults,
    /// Every region registered on this machine, for cold-restart wipes.
    regions: RefCell<Vec<Weak<MemRegion>>>,
}

impl Machine {
    pub(crate) fn new(id: MachineId, handle: SimHandle, profile: NicProfile) -> Rc<Self> {
        Rc::new(Machine {
            id,
            nic: Rc::new(Nic::new(handle.clone(), profile)),
            handle,
            next_mr: Cell::new(0),
            registered_bytes: Cell::new(0),
            qp_endpoints: Cell::new(0),
            faults: MachineFaults::default(),
            regions: RefCell::new(Vec::new()),
        })
    }

    /// This machine's id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// This machine's NIC.
    pub fn nic(&self) -> &Rc<Nic> {
        &self.nic
    }

    /// The simulation handle this machine lives on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// This machine's injected-fault state (all healthy by default).
    pub fn faults(&self) -> &MachineFaults {
        &self.faults
    }

    /// Registers a zero-filled memory region of `len` bytes with the NIC
    /// (the `malloc_buf` substrate of RFP's Table 2).
    pub fn alloc_mr(&self, len: usize) -> Rc<MemRegion> {
        let seq = self.next_mr.get();
        self.next_mr.set(seq + 1);
        // Encode the owner in the rkey for debuggability.
        let id = MrId(((self.id.0 as u64) << 32) | seq);
        let mr = MemRegion::new(id, self.id, len);
        self.registered_bytes
            .set(self.registered_bytes.get() + len as u64);
        self.regions.borrow_mut().push(Rc::downgrade(&mr));
        mr
    }

    /// Cumulative bytes ever registered on this machine (pinned-memory
    /// footprint; regions are never unpinned in this model).
    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes.get()
    }

    /// Queue pairs with an endpoint on this machine.
    pub fn qp_endpoints(&self) -> u64 {
        self.qp_endpoints.get()
    }

    /// Books one QP endpoint (called at QP creation for both sides).
    pub(crate) fn note_qp_endpoint(&self) {
        self.qp_endpoints.set(self.qp_endpoints.get() + 1);
    }

    /// Zero-fills every live memory region registered on this machine —
    /// the cold-restart path, where a rebooted host loses its pinned
    /// buffers along with its DRAM contents. Watchers stay armed; they
    /// wake on the next remote write as usual.
    pub fn wipe_memory(&self) {
        let mut regions = self.regions.borrow_mut();
        regions.retain(|weak| match weak.upgrade() {
            Some(mr) => {
                mr.zero();
                true
            }
            None => false,
        });
    }

    /// Creates a simulated thread (= dedicated core) on this machine.
    pub fn thread(self: &Rc<Self>, name: impl Into<String>) -> Rc<ThreadCtx> {
        Rc::new(ThreadCtx {
            machine: Rc::clone(self),
            name: name.into(),
            busy: BusyClock::new(self.handle.now()),
            handle: self.handle.clone(),
        })
    }
}

/// Execution context of one simulated thread.
///
/// Tracks busy time: verb issue/poll loops and request processing accrue
/// busy time; blocking waits (server-reply mode) do not. The utilisation
/// figure this yields is what the paper plots in Figure 15.
pub struct ThreadCtx {
    machine: Rc<Machine>,
    name: String,
    busy: BusyClock,
    handle: SimHandle,
}

impl ThreadCtx {
    /// The machine this thread runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// The thread's debug name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulation handle (clock, sleeps, spawning).
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// Spends `span` of CPU time (accrues busy time and advances the
    /// clock). Used for request processing (`P`) and software verb costs.
    /// A straggler fault on the machine inflates the span. The span
    /// starts at the call, not at the first poll: await it on the spot.
    #[must_use = "the time is booked at the call but only spent by awaiting"]
    pub fn busy(&self, span: SimSpan) -> Sleep {
        self.handle.sleep(self.charge(span))
    }

    /// Books `span` of CPU time, inflated by a straggler fault, and
    /// returns the inflated span — how long the work takes from now.
    /// [`busy`](Self::busy) is this plus the sleep; an event sink that
    /// works on the thread's behalf schedules its own continuation after
    /// the returned span instead.
    #[inline]
    pub fn charge(&self, span: SimSpan) -> SimSpan {
        let span = self.cost(span);
        self.busy.add_busy(span);
        span
    }

    /// `span` inflated by a straggler fault, booked nowhere: how long
    /// the work would take if begun now.
    #[inline]
    pub fn cost(&self, span: SimSpan) -> SimSpan {
        let factor = self.machine.faults().cpu_factor();
        if factor == 1.0 {
            span
        } else {
            SimSpan::from_nanos_f64(span.as_nanos() as f64 * factor)
        }
    }

    /// Busy-waits until `fut` completes: the elapsed time counts as CPU
    /// busy (models polling a completion queue or spinning on memory).
    pub async fn busy_wait<T>(&self, fut: impl Future<Output = T>) -> T {
        let t0 = self.handle.now();
        let out = fut.await;
        self.busy.add_busy(self.handle.now() - t0);
        out
    }

    /// Blocks until `fut` completes **without** accruing busy time
    /// (models sleeping on an event, as server-reply clients do).
    pub async fn idle_wait<T>(&self, fut: impl Future<Output = T>) -> T {
        fut.await
    }

    /// Accrues `span` of busy time without advancing the clock; used by
    /// verbs, whose whole duration is CQ-polling (busy) time.
    pub fn note_busy(&self, span: SimSpan) {
        self.busy.add_busy(span);
    }

    /// CPU utilisation of this thread since the last reset.
    pub fn utilization(&self) -> f64 {
        self.busy.utilization(self.handle.now())
    }

    /// Resets the utilisation window (discards warm-up).
    pub fn reset_utilization(&self) {
        self.busy.reset(self.handle.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::profile::ClusterProfile;
    use rfp_simnet::Simulation;

    #[test]
    fn mr_ids_are_unique_per_machine() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let m0 = cluster.machine(0);
        let m1 = cluster.machine(1);
        let a = m0.alloc_mr(8);
        let b = m0.alloc_mr(8);
        let c = m1.alloc_mr(8);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(a.owner(), m0.id());
        assert_eq!(c.owner(), m1.id());
    }

    #[test]
    fn machines_account_registered_memory_and_qps() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let m0 = cluster.machine(0);
        let m1 = cluster.machine(1);
        let _a = m0.alloc_mr(100);
        let _b = m0.alloc_mr(28);
        assert_eq!(m0.registered_bytes(), 128);
        assert_eq!(m0.next_mr.get(), 2);
        assert_eq!(m1.registered_bytes(), 0);
        let _qp = cluster.qp(0, 1);
        assert_eq!(m0.qp_endpoints(), 1);
        assert_eq!(m1.qp_endpoints(), 1);
        let _qp2 = cluster.qp(1, 0);
        assert_eq!(m0.qp_endpoints(), 2);
        assert_eq!(m1.qp_endpoints(), 2);
    }

    #[test]
    fn busy_accounting_splits_busy_and_idle() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let t = cluster.machine(0).thread("worker");
        let th = Rc::clone(&t);
        let h = sim.handle();
        sim.spawn(async move {
            th.busy(SimSpan::micros(3)).await; // busy
            th.idle_wait(h.sleep(SimSpan::micros(7))).await; // idle
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 10_000);
        assert!((t.utilization() - 0.3).abs() < 1e-9, "{}", t.utilization());
    }

    #[test]
    fn busy_wait_accrues_elapsed_time() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let t = cluster.machine(0).thread("poller");
        let th = Rc::clone(&t);
        let h = sim.handle();
        sim.spawn(async move {
            th.busy_wait(h.sleep(SimSpan::micros(4))).await;
        });
        sim.run();
        assert!((t.utilization() - 1.0).abs() < 1e-9);
    }
}
