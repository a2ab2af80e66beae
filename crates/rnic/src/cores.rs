//! Multi-core server model: per-core run queues, cross-core handoff
//! cost, and per-core idle accounting.
//!
//! The RFP paper's Jakiro design keeps the server CPU in the request
//! path and scales it the way real RPC dataplanes do: N cores, each
//! owning a disjoint key partition (EREW, §4), with connections pinned
//! to the core that owns their keys. This module supplies the three
//! hardware-ish ingredients the serve reactor builds on:
//!
//! * [`RunQueue`] — a per-core queue of ready work with owner-end pops
//!   and thief-end steals, plus depth/steal accounting. A deque, not a
//!   channel: the simulation is cooperatively single-threaded, so
//!   plain `RefCell` interior mutability is enough and every push/pop
//!   is atomic between awaits.
//! * [`Handoff`] — the modeled cost of moving one request between
//!   cores (cache-line migration plus the queue touch). Real numbers
//!   are a few hundred nanoseconds; charging it as *busy* time on the
//!   thief keeps the trade honest — stealing is only a win while the
//!   victim is more backed up than the handoff costs.
//! * [`CoreMeter`] — per-core idle accounting (empty scans, nap time)
//!   complementing [`ThreadCtx`](crate::ThreadCtx) busy/idle clocks,
//!   so a sweep can report how much poll burn each core pays.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use rfp_simnet::SimSpan;

use crate::machine::{Machine, ThreadCtx};

/// Identifies one simulated server core within a machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Spawns `n` named threads on `machine`, one per simulated core
/// (`<prefix>0` .. `<prefix>{n-1}`). Purely a naming convention plus a
/// loop — each core is an ordinary [`ThreadCtx`] with its own busy
/// clock, which is what per-core utilisation reporting reads.
pub fn core_threads(machine: &Rc<Machine>, prefix: &str, n: usize) -> Vec<Rc<ThreadCtx>> {
    assert!(n > 0, "a server has at least one core");
    (0..n)
        .map(|i| machine.thread(format!("{prefix}{i}")))
        .collect()
}

/// A per-core run queue of ready work.
///
/// The owner pushes admitted work at the back and pops from the front
/// (FIFO — admission order is service order, which the overload loop's
/// shedding-safety invariant relies on). A thief steals from the back:
/// the most recently admitted request is the one least likely to have
/// its cache context warm on the owner, so it is the cheapest to move.
pub struct RunQueue<T> {
    items: RefCell<VecDeque<T>>,
    pushes: Cell<u64>,
    steals: Cell<u64>,
}

impl<T> Default for RunQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RunQueue<T> {
    pub fn new() -> Self {
        RunQueue {
            items: RefCell::new(VecDeque::new()),
            pushes: Cell::new(0),
            steals: Cell::new(0),
        }
    }

    /// Owner end: enqueue newly admitted work.
    pub fn push(&self, item: T) {
        self.items.borrow_mut().push_back(item);
        self.pushes.set(self.pushes.get() + 1);
    }

    /// Owner end: dequeue in admission order.
    pub fn pop(&self) -> Option<T> {
        self.items.borrow_mut().pop_front()
    }

    /// Thief end: take the most recently admitted item, counting the
    /// steal. Returns `None` when the queue is empty.
    pub fn steal(&self) -> Option<T> {
        let item = self.items.borrow_mut().pop_back();
        if item.is_some() {
            self.steals.set(self.steals.get() + 1);
        }
        item
    }

    pub fn len(&self) -> usize {
        self.items.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.borrow().is_empty()
    }

    /// Clears the queue (a crashed core's half-done scan dies with it).
    pub fn clear(&self) {
        self.items.borrow_mut().clear();
    }

    /// Total items ever pushed.
    pub fn pushes(&self) -> u64 {
        self.pushes.get()
    }

    /// Total items taken from the thief end.
    pub fn steals(&self) -> u64 {
        self.steals.get()
    }
}

/// The modeled cost of moving one request across cores.
///
/// Charged as *busy* time on the thief's core per stolen request —
/// the cache-line migration, the remote-queue touch, and the handler
/// state pulled cold. Tracks how many handoffs happened and the total
/// simulated time they burned.
pub struct Handoff {
    cost: SimSpan,
    count: Cell<u64>,
    total_ns: Cell<u64>,
}

impl Handoff {
    pub fn new(cost: SimSpan) -> Self {
        Handoff {
            cost,
            count: Cell::new(0),
            total_ns: Cell::new(0),
        }
    }

    /// The per-request handoff cost.
    pub fn cost(&self) -> SimSpan {
        self.cost
    }

    /// Charges one handoff to `thief` (busy time) and counts it.
    pub async fn charge(&self, thief: &ThreadCtx) {
        self.count.set(self.count.get() + 1);
        self.total_ns
            .set(self.total_ns.get() + self.cost.as_nanos());
        if !self.cost.is_zero() {
            thief.busy(self.cost).await;
        }
    }

    /// Handoffs charged so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Total simulated nanoseconds burned on handoffs.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.get()
    }

    /// Zeroes the accounting (start of a measurement window).
    pub fn reset(&self) {
        self.count.set(0);
        self.total_ns.set(0);
    }
}

/// Per-core idle accounting: how often a core's scan came up empty and
/// how long it napped, alongside the work it did serve.
#[derive(Default)]
pub struct CoreMeter {
    served: Cell<u64>,
    empty_scans: Cell<u64>,
    nap_ns: Cell<u64>,
}

impl CoreMeter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn note_served(&self, n: u64) {
        self.served.set(self.served.get() + n);
    }

    pub fn note_empty_scan(&self) {
        self.empty_scans.set(self.empty_scans.get() + 1);
    }

    pub fn note_nap(&self, nap: SimSpan) {
        self.nap_ns.set(self.nap_ns.get() + nap.as_nanos());
    }

    pub fn served(&self) -> u64 {
        self.served.get()
    }

    pub fn empty_scans(&self) -> u64 {
        self.empty_scans.get()
    }

    pub fn nap_ns(&self) -> u64 {
        self.nap_ns.get()
    }

    /// Zeroes the accounting (start of a measurement window).
    pub fn reset(&self) {
        self.served.set(0);
        self.empty_scans.set(0);
        self.nap_ns.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_queue_fifo_pop_lifo_steal() {
        let q = RunQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.steal(), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.steal(), None);
        assert_eq!(q.pushes(), 3);
        assert_eq!(q.steals(), 1);
    }

    #[test]
    fn run_queue_clear_drops_backlog() {
        let q = RunQueue::new();
        q.push("a");
        q.push("b");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pushes(), 2);
    }

    #[test]
    fn core_meter_accumulates() {
        let m = CoreMeter::new();
        m.note_served(3);
        m.note_empty_scan();
        m.note_nap(SimSpan::nanos(500));
        m.note_nap(SimSpan::nanos(250));
        assert_eq!(m.served(), 3);
        assert_eq!(m.empty_scans(), 1);
        assert_eq!(m.nap_ns(), 750);
    }
}
