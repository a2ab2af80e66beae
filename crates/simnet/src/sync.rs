//! Synchronisation primitives for simulated processes.
//!
//! All primitives are single-threaded (they live inside one
//! [`Simulation`](crate::Simulation)) and deterministic: waiters are
//! released in FIFO order.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// An unbounded FIFO channel between simulated processes.
///
/// `send` is synchronous (never blocks); `recv` suspends until a value is
/// available. Multiple receivers are served in FIFO order.
///
/// # Examples
///
/// ```
/// use rfp_simnet::{Channel, SimSpan, Simulation};
///
/// let mut sim = Simulation::new(0);
/// let ch: Channel<u32> = Channel::new();
/// let (tx, rx) = (ch.clone(), ch);
/// let h = sim.handle();
/// sim.spawn(async move {
///     h.sleep(SimSpan::micros(1)).await;
///     tx.send(7);
/// });
/// sim.spawn(async move {
///     assert_eq!(rx.recv().await, 7);
/// });
/// sim.run();
/// ```
pub struct Channel<T> {
    state: Rc<RefCell<ChannelState<T>>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            state: Rc::clone(&self.state),
        }
    }
}

struct ChannelState<T> {
    items: VecDeque<T>,
    waiters: VecDeque<Waker>,
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Channel<T> {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Channel {
            state: Rc::new(RefCell::new(ChannelState {
                items: VecDeque::new(),
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Enqueues a value, waking the longest-waiting receiver (if any).
    pub fn send(&self, value: T) {
        let mut st = self.state.borrow_mut();
        st.items.push_back(value);
        if let Some(w) = st.waiters.pop_front() {
            w.wake();
        }
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.state.borrow().items.len()
    }

    /// Whether the channel holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dequeues a value without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.state.borrow_mut().items.pop_front()
    }

    /// Suspends until a value can be dequeued.
    pub fn recv(&self) -> Recv<T> {
        Recv {
            state: Rc::clone(&self.state),
        }
    }
}

/// Future returned by [`Channel::recv`].
pub struct Recv<T> {
    state: Rc<RefCell<ChannelState<T>>>,
}

impl<T> Future for Recv<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.items.pop_front() {
            Poll::Ready(v)
        } else {
            // One entry per waiting task, or a `send` would spend its one
            // wake on a duplicate while another receiver stays parked.
            if !st.waiters.iter().any(|w| w.will_wake(cx.waker())) {
                st.waiters.push_back(cx.waker().clone());
            }
            Poll::Pending
        }
    }
}

/// Test support: production code waits on channels, semaphores and NIC
/// completions, never on a [`signal::Signal`]; the executor's, timeout's
/// and this file's tests wake tasks through one.
#[cfg(test)]
pub(crate) mod signal {
    use std::cell::RefCell;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    /// A level-triggered event: once [`fire`](Signal::fire)d, every current
    /// and future [`wait`](Signal::wait) completes immediately until
    /// [`reset`](Signal::reset).
    #[derive(Clone, Default)]
    pub(crate) struct Signal {
        state: Rc<RefCell<SignalState>>,
    }

    #[derive(Default)]
    struct SignalState {
        fired: bool,
        waiters: Vec<Waker>,
    }

    impl Signal {
        /// Creates an unfired signal.
        pub(crate) fn new() -> Self {
            Signal::default()
        }

        /// Fires the signal, waking all waiters.
        pub(crate) fn fire(&self) {
            let mut st = self.state.borrow_mut();
            st.fired = true;
            for w in st.waiters.drain(..) {
                w.wake();
            }
        }

        /// Clears the fired flag; subsequent waits block until the next fire.
        pub(crate) fn reset(&self) {
            self.state.borrow_mut().fired = false;
        }

        /// Completes once the signal has fired.
        pub(crate) fn wait(&self) -> SignalWait {
            SignalWait {
                state: Rc::clone(&self.state),
            }
        }
    }

    /// Future returned by [`Signal::wait`].
    pub(crate) struct SignalWait {
        state: Rc<RefCell<SignalState>>,
    }

    impl Future for SignalWait {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let mut st = self.state.borrow_mut();
            if st.fired {
                Poll::Ready(())
            } else {
                // A task re-polled for another reason is already registered:
                // a second entry would wake (and poll) it twice on `fire`.
                if !st.waiters.iter().any(|w| w.will_wake(cx.waker())) {
                    st.waiters.push(cx.waker().clone());
                }
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::signal::Signal;
    use super::*;
    use crate::{Semaphore, SimSpan, Simulation};
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn signal_wakes_all_waiters() {
        let mut sim = Simulation::new(0);
        let sig = Signal::new();
        let hits = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let s = sig.clone();
            let c = Rc::clone(&hits);
            sim.spawn(async move {
                s.wait().await;
                c.set(c.get() + 1);
            });
        }
        let s = sig.clone();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimSpan::micros(1)).await;
            s.fire();
        });
        sim.run();
        assert_eq!(hits.get(), 3);
    }

    #[test]
    fn signal_fired_completes_immediately() {
        let mut sim = Simulation::new(0);
        let sig = Signal::new();
        sig.fire();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        let s = sig.clone();
        sim.spawn(async move {
            s.wait().await;
            d.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    /// Polls `inner` and wakes its own task again, until `spins` runs
    /// out: a waiter that keeps being re-polled for another reason.
    struct Repoll<F> {
        inner: F,
        spins: u32,
        polls: Rc<Cell<u32>>,
    }

    impl<F: Future + Unpin> Future for Repoll<F> {
        type Output = F::Output;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.polls.set(self.polls.get() + 1);
            let out = Pin::new(&mut self.inner).poll(cx);
            if out.is_pending() && self.spins > 0 {
                self.spins -= 1;
                cx.waker().wake_by_ref();
            }
            out
        }
    }

    #[test]
    fn repolled_signal_waiter_is_woken_exactly_once() {
        let mut sim = Simulation::new(0);
        let sig = Signal::new();
        let polls = Rc::new(Cell::new(0u32));
        sim.spawn(Repoll {
            inner: sig.wait(),
            spins: 5,
            polls: Rc::clone(&polls),
        });
        sim.run();
        assert_eq!(polls.get(), 6, "first poll + five self-inflicted re-polls");
        let before = sim.stats().polls;
        sig.fire();
        sim.run();
        assert_eq!(sim.stats().polls - before, 1, "six registrations, one wake");
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn repolled_receiver_does_not_absorb_another_receivers_wake() {
        let mut sim = Simulation::new(0);
        let ch: Channel<u32> = Channel::new();
        let polls = Rc::new(Cell::new(0u32));
        let got = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&got);
        let repolled = Repoll {
            inner: ch.recv(),
            spins: 3,
            polls: Rc::clone(&polls),
        };
        sim.spawn(async move {
            let v = repolled.await;
            out.borrow_mut().push(v);
        });
        let (rx, out) = (ch.clone(), Rc::clone(&got));
        sim.spawn(async move {
            let v = rx.recv().await;
            out.borrow_mut().push(v);
        });
        sim.run();
        // Two sends, two parked receivers: each send must reach a
        // different task.
        ch.send(1);
        ch.send(2);
        sim.run();
        assert_eq!(*got.borrow(), vec![1, 2]);
        assert_eq!(polls.get(), 5, "four pending polls + the delivery");
    }

    #[test]
    fn signal_reset_blocks_again() {
        let mut sim = Simulation::new(0);
        let sig = Signal::new();
        sig.fire();
        sig.reset();
        let woke = Rc::new(Cell::new(false));
        let (s, w) = (sig.clone(), Rc::clone(&woke));
        sim.spawn(async move {
            s.wait().await;
            w.set(true);
        });
        sim.run();
        assert!(!woke.get(), "a reset signal blocks its waiters");
        sig.fire();
        sim.run();
        assert!(woke.get());
    }

    #[test]
    fn channel_delivers_in_order() {
        let mut sim = Simulation::new(0);
        let ch: Channel<u32> = Channel::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let rx = ch.clone();
        let out = Rc::clone(&seen);
        sim.spawn(async move {
            for _ in 0..3 {
                let v = rx.recv().await;
                out.borrow_mut().push(v);
            }
        });
        let tx = ch.clone();
        let h = sim.handle();
        sim.spawn(async move {
            for v in [10, 20, 30] {
                h.sleep(SimSpan::nanos(5)).await;
                tx.send(v);
            }
        });
        sim.run();
        assert_eq!(*seen.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn channel_try_recv_and_len() {
        let ch: Channel<u8> = Channel::new();
        assert!(ch.is_empty());
        ch.send(1);
        ch.send(2);
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.try_recv(), Some(1));
        assert_eq!(ch.try_recv(), Some(2));
        assert_eq!(ch.try_recv(), None);
    }

    #[test]
    fn lock_serializes_critical_sections() {
        let mut sim = Simulation::new(0);
        let lock = Semaphore::new(1);
        let inside = Rc::new(Cell::new(0u32));
        let max_inside = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let l = lock.clone();
            let i = Rc::clone(&inside);
            let m = Rc::clone(&max_inside);
            let h = sim.handle();
            sim.spawn(async move {
                let _g = l.acquire().await;
                i.set(i.get() + 1);
                m.set(m.get().max(i.get()));
                h.sleep(SimSpan::nanos(100)).await;
                i.set(i.get() - 1);
            });
        }
        sim.run();
        assert_eq!(max_inside.get(), 1, "lock admitted two holders");
        assert_eq!(sim.now().as_nanos(), 500);
    }

    #[test]
    fn lock_hands_off_fifo() {
        let mut sim = Simulation::new(0);
        let lock = Semaphore::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let l = lock.clone();
            let ord = Rc::clone(&order);
            let h = sim.handle();
            sim.spawn(async move {
                let _g = l.acquire().await;
                ord.borrow_mut().push(i);
                h.sleep(SimSpan::nanos(10)).await;
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }
}
