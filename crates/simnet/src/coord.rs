//! Higher-level coordination primitive for simulated processes: a
//! counting semaphore, single-threaded, deterministic and FIFO-fair
//! like the rest of the crate.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A counting semaphore with strict FIFO admission.
///
/// Releases hand permits *directly* to the oldest live waiter (a
/// per-waiter grant cell) instead of returning them to a shared pool
/// that woken and newly-arriving acquirers re-race for. The earlier
/// pool-and-re-race scheme admitted whichever queued waiter happened to
/// poll first — and left the waiter whose wake was stolen parked
/// without a registered waker. Directed handoff makes admission order
/// equal arrival order, which bounds the tail of `acquire` waits under
/// oversubscription (`rfp-core`'s mux dispenses its leases through one).
/// One permit is a FIFO mutex: the comparators' serialized critical
/// sections (RDMA-Memcached's LRU lock, the EREW ablation's store lock)
/// are `Semaphore::new(1)`.
///
/// # Examples
///
/// ```
/// use rfp_simnet::{Semaphore, SimSpan, Simulation};
///
/// let mut sim = Simulation::new(0);
/// let lock = Semaphore::new(1);
/// for _ in 0..3 {
///     let l = lock.clone();
///     let h = sim.handle();
///     sim.spawn(async move {
///         let _guard = l.acquire().await;
///         h.sleep(SimSpan::micros(1)).await; // serialized section
///     });
/// }
/// sim.run();
/// assert_eq!(sim.now().as_nanos(), 3_000); // three holds back-to-back
/// ```
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

struct SemState {
    /// Free permits not earmarked for any waiter.
    permits: usize,
    /// Live (not cancelled, not yet granted) queued waiters.
    waiting: usize,
    waiters: VecDeque<Rc<WaiterCell>>,
}

/// One queued acquirer. A release flips `granted` and wakes the stored
/// waker; the waiter completes on its next poll. Dropping a pending
/// `Acquire` flips `cancelled` so stale queue entries are skipped.
struct WaiterCell {
    waker: RefCell<Option<Waker>>,
    granted: Cell<bool>,
    cancelled: Cell<bool>,
}

impl SemState {
    /// Hands free permits to the oldest live waiters, in order.
    fn grant(&mut self) {
        while self.permits > 0 {
            let Some(cell) = self.waiters.pop_front() else {
                break;
            };
            if cell.cancelled.get() {
                continue;
            }
            self.permits -= 1;
            self.waiting -= 1;
            cell.granted.set(true);
            let waker = cell.waker.borrow_mut().take();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiting: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Acquires one permit, suspending until one is available; returns
    /// an RAII guard releasing it on drop. Admission is strictly FIFO:
    /// a new acquirer never overtakes an already-queued one.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            state: Rc::clone(&self.state),
            cell: None,
            done: false,
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    state: Rc<RefCell<SemState>>,
    cell: Option<Rc<WaiterCell>>,
    done: bool,
}

impl Future for Acquire {
    type Output = SemaphoreGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemaphoreGuard> {
        let state = Rc::clone(&self.state);
        let mut st = state.borrow_mut();
        if let Some(cell) = &self.cell {
            if cell.granted.get() {
                // A release earmarked a permit for *this* waiter.
                drop(st);
                self.done = true;
                return Poll::Ready(SemaphoreGuard {
                    state: Rc::clone(&self.state),
                });
            }
            *cell.waker.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        if st.permits > 0 && st.waiting == 0 {
            st.permits -= 1;
            drop(st);
            self.done = true;
            return Poll::Ready(SemaphoreGuard {
                state: Rc::clone(&self.state),
            });
        }
        let cell = Rc::new(WaiterCell {
            waker: RefCell::new(Some(cx.waker().clone())),
            granted: Cell::new(false),
            cancelled: Cell::new(false),
        });
        st.waiters.push_back(Rc::clone(&cell));
        st.waiting += 1;
        self.cell = Some(cell);
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let Some(cell) = &self.cell else {
            return;
        };
        let mut st = self.state.borrow_mut();
        if cell.granted.get() {
            // Granted but never claimed (future dropped between wake
            // and poll): the permit goes back to the next in line.
            st.permits += 1;
            st.grant();
        } else {
            cell.cancelled.set(true);
            st.waiting -= 1;
        }
    }
}

/// RAII permit of a [`Semaphore`].
pub struct SemaphoreGuard {
    state: Rc<RefCell<SemState>>,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.permits += 1;
        st.grant();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimSpan, Simulation};
    use std::cell::Cell;

    #[test]
    fn semaphore_caps_concurrency() {
        let mut sim = Simulation::new(0);
        let sem = Semaphore::new(2);
        let inside = Rc::new(Cell::new(0usize));
        let peak = Rc::new(Cell::new(0usize));
        for _ in 0..6 {
            let s = sem.clone();
            let i = Rc::clone(&inside);
            let p = Rc::clone(&peak);
            let h = sim.handle();
            sim.spawn(async move {
                let _g = s.acquire().await;
                i.set(i.get() + 1);
                p.set(p.get().max(i.get()));
                h.sleep(SimSpan::nanos(100)).await;
                i.set(i.get() - 1);
            });
        }
        sim.run();
        assert_eq!(peak.get(), 2, "at most two holders");
        // 6 tasks × 100ns with 2 permits = 300ns total.
        assert_eq!(sim.now().as_nanos(), 300);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn semaphore_admits_in_arrival_order() {
        let mut sim = Simulation::new(0);
        let sem = Semaphore::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u64 {
            let s = sem.clone();
            let o = Rc::clone(&order);
            let h = sim.handle();
            sim.spawn(async move {
                // Stagger arrivals so the queue order is unambiguous.
                h.sleep(SimSpan::nanos(i)).await;
                let _g = s.acquire().await;
                o.borrow_mut().push(i);
                h.sleep(SimSpan::nanos(100)).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn semaphore_cancelled_waiter_releases_its_place() {
        let mut sim = Simulation::new(0);
        let sem = Semaphore::new(1);
        let got = Rc::new(Cell::new(0u32));
        {
            let s = sem.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let _g = s.acquire().await;
                h.sleep(SimSpan::nanos(100)).await;
            });
        }
        {
            // Queues at t=10, gives up (drops the Acquire) at t=50,
            // before the holder releases at t=100.
            let s = sem.clone();
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(SimSpan::nanos(10)).await;
                let mut fut = Box::pin(s.acquire());
                // One poll queues the waiter; the drop below cancels it.
                std::future::poll_fn(|cx| {
                    let _ = fut.as_mut().poll(cx);
                    Poll::Ready(())
                })
                .await;
                h.sleep(SimSpan::nanos(40)).await;
                drop(fut);
            });
        }
        {
            let s = sem.clone();
            let g = Rc::clone(&got);
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(SimSpan::nanos(20)).await;
                let _g = s.acquire().await;
                g.set(h.now().as_nanos() as u32);
            });
        }
        sim.run();
        // The cancelled waiter ahead in the queue must not absorb the
        // release: the third task is admitted at t=100.
        assert_eq!(got.get(), 100);
        assert_eq!(sem.available(), 1);
    }
}
