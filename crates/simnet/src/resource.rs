//! A queueing resource with FIFO discipline.
//!
//! A [`FifoServer`] models a pipeline that serves one request at a time
//! (e.g. one engine of an RNIC): callers submit a service demand and are
//! resumed when the engine finishes their request, after all previously
//! queued requests. Because service order equals submission order and
//! service times are known on submission, the queue itself never needs to
//! be materialised — the server just tracks when it next becomes free.

use std::cell::Cell;

use crate::executor::{SimHandle, Sleep};
use crate::time::{SimSpan, SimTime};

/// A single-pipeline FIFO queueing resource.
///
/// # Examples
///
/// ```
/// use rfp_simnet::{Simulation, FifoServer, SimSpan};
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new(0);
/// let engine = Rc::new(FifoServer::new(sim.handle()));
/// for _ in 0..3 {
///     let e = Rc::clone(&engine);
///     sim.spawn(async move {
///         // Each op takes 100ns of engine time; ops queue FIFO.
///         e.serve(SimSpan::nanos(100)).await;
///     });
/// }
/// sim.run();
/// assert_eq!(sim.now().as_nanos(), 300);
/// assert_eq!(engine.completed(), 3);
/// ```
pub struct FifoServer {
    handle: SimHandle,
    next_free: Cell<SimTime>,
    busy: Cell<SimSpan>,
    completed: Cell<u64>,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new(handle: SimHandle) -> Self {
        FifoServer {
            handle,
            next_free: Cell::new(SimTime::ZERO),
            busy: Cell::new(SimSpan::ZERO),
            completed: Cell::new(0),
        }
    }

    /// Enqueues a request needing `demand` of service time and returns a
    /// future that completes when the server has finished it.
    pub fn serve(&self, demand: SimSpan) -> Sleep {
        self.handle.sleep_until(self.reserve(demand))
    }

    /// [`FifoServer::serve`] for callers that are not tasks: enqueues
    /// the request and returns the instant the server finishes it.
    pub fn reserve(&self, demand: SimSpan) -> SimTime {
        let finish = self.next_free.get().max(self.handle.now()) + demand;
        self.next_free.set(finish);
        self.busy.set(self.busy.get() + demand);
        self.completed.set(self.completed.get() + 1);
        finish
    }

    /// Instant at which all currently queued work finishes.
    pub fn next_free(&self) -> SimTime {
        self.next_free.get()
    }

    /// Total service time delivered so far.
    pub fn busy_time(&self) -> SimSpan {
        self.busy.get()
    }

    /// Number of requests accepted so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Resets the measurement counters (busy time, completions) without
    /// touching queued work; used to discard warm-up.
    pub fn reset_stats(&self) {
        self.busy.set(SimSpan::ZERO);
        self.completed.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fifo_preserves_submission_order() {
        let mut sim = Simulation::new(0);
        let server = Rc::new(FifoServer::new(sim.handle()));
        let order = Rc::new(RefCell::new(Vec::new()));
        // Submit in order 0,1,2 with different demands; completion order
        // must match submission order regardless of demand.
        for (i, d) in [(0u32, 300u64), (1, 100), (2, 200)] {
            let s = Rc::clone(&server);
            let ord = Rc::clone(&order);
            let h = sim.handle();
            sim.spawn(async move {
                s.serve(SimSpan::nanos(d)).await;
                ord.borrow_mut().push((i, h.now().as_nanos()));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![(0, 300), (1, 400), (2, 600)]);
        assert_eq!(server.busy_time().as_nanos(), 600);
    }

    #[test]
    fn fifo_idles_between_bursts() {
        let mut sim = Simulation::new(0);
        let server = Rc::new(FifoServer::new(sim.handle()));
        let s = Rc::clone(&server);
        let h = sim.handle();
        sim.spawn(async move {
            s.serve(SimSpan::nanos(50)).await;
            h.sleep(SimSpan::nanos(500)).await;
            // Server was idle; service starts immediately.
            let t0 = h.now();
            s.serve(SimSpan::nanos(50)).await;
            assert_eq!((h.now() - t0).as_nanos(), 50);
        });
        sim.run();
        assert_eq!(server.busy_time().as_nanos(), 100);
        assert_eq!(server.completed(), 2);
    }

    #[test]
    fn fifo_queue_wait_accumulates() {
        let mut sim = Simulation::new(0);
        let server = Rc::new(FifoServer::new(sim.handle()));
        let done = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let s = Rc::clone(&server);
            let d = Rc::clone(&done);
            let h = sim.handle();
            sim.spawn(async move {
                s.serve(SimSpan::nanos(100)).await;
                d.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        // Waits of 0, 100 and 200 ns ahead of each 100 ns service.
        assert_eq!(*done.borrow(), vec![100, 200, 300]);
    }

    #[test]
    fn reset_stats_clears_counters_only() {
        let mut sim = Simulation::new(0);
        let server = Rc::new(FifoServer::new(sim.handle()));
        let s = Rc::clone(&server);
        sim.spawn(async move {
            s.serve(SimSpan::nanos(10)).await;
        });
        sim.run();
        server.reset_stats();
        assert_eq!(server.completed(), 0);
        assert_eq!(server.busy_time(), SimSpan::ZERO);
        assert_eq!(server.next_free().as_nanos(), 10);
    }
}
