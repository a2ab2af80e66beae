//! The single-threaded cooperative executor driving the virtual clock.
//!
//! Simulated processes are ordinary Rust futures. The executor interleaves
//! two activities until quiescence (or a deadline):
//!
//! 1. poll every task whose waker has fired,
//! 2. when no task is runnable, pop the earliest pending timer event,
//!    advance the virtual clock to it, and fire its waker.
//!
//! Events scheduled for the same instant fire in scheduling order, which
//! makes runs fully deterministic.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crossbeam::queue::SegQueue;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{SimSpan, SimTime};

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Identifier of a task inside one [`Simulation`].
type TaskId = usize;

/// A timer entry in the event heap.
struct TimerEntry {
    at: SimTime,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Cumulative executor event counts of one [`Simulation`]: the
/// denominator of every "host cost per event" figure.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Task polls, spurious ones (a wake for a finished task) included.
    pub polls: u64,
    /// Timer entries popped off the event heap and fired.
    pub timers_fired: u64,
    /// Futures handed to `spawn`.
    pub spawned: u64,
}

/// Shared core of one simulation: clock, event heap, spawn queue, RNG.
pub(crate) struct SimCore {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    /// Futures spawned while the executor is running; drained by the driver.
    spawn_queue: RefCell<Vec<BoxFuture>>,
    /// Task ids whose wakers fired; drained by the driver.
    ready: Arc<SegQueue<TaskId>>,
    rng: RefCell<StdRng>,
    polls: Cell<u64>,
    timers_fired: Cell<u64>,
    spawned: Cell<u64>,
}

impl SimCore {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn spawn(&self, fut: BoxFuture) {
        self.spawned.set(self.spawned.get() + 1);
        self.spawn_queue.borrow_mut().push(fut);
    }

    fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            polls: self.polls.get(),
            timers_fired: self.timers_fired.get(),
            spawned: self.spawned.get(),
        }
    }

    /// Registers `waker` to fire at instant `at`.
    pub(crate) fn schedule_wake(&self, at: SimTime, waker: Waker) {
        debug_assert!(at >= self.now.get(), "cannot schedule in the past");
        let seq = self.next_seq();
        self.timers
            .borrow_mut()
            .push(Reverse(TimerEntry { at, seq, waker }));
    }
}

/// The waker for one task: pushes the task id on the shared ready queue.
struct TaskWaker {
    id: TaskId,
    ready: Arc<SegQueue<TaskId>>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A slot in the task slab.
///
/// The waker carries only the slot id, so it is built once, when the
/// slot is first created, and serves every poll of every task the slot
/// ever holds. A wake registered by a finished occupant that fires
/// after the slot was recycled costs the new occupant one spurious
/// poll.
struct Slot {
    waker: Waker,
    /// The task, or `None` once it finished (free slot).
    task: Option<BoxFuture>,
}

/// Owner and driver of one simulation run.
///
/// The `Simulation` owns all task futures, so dropping it drops every
/// simulated process (futures hold only [`SimHandle`]s back into the
/// core, which does not own tasks — no reference cycles, no leaks).
pub struct Simulation {
    core: Rc<SimCore>,
    tasks: Vec<Slot>,
    free: Vec<TaskId>,
    live: usize,
    /// Spawn-queue swap partner: keeps its capacity across drains.
    admitting: Vec<BoxFuture>,
}

impl Simulation {
    /// Creates a fresh simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            core: Rc::new(SimCore {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                timers: RefCell::new(BinaryHeap::new()),
                spawn_queue: RefCell::new(Vec::new()),
                ready: Arc::new(SegQueue::new()),
                rng: RefCell::new(StdRng::seed_from_u64(seed)),
                polls: Cell::new(0),
                timers_fired: Cell::new(0),
                spawned: Cell::new(0),
            }),
            tasks: Vec::new(),
            free: Vec::new(),
            live: 0,
            admitting: Vec::new(),
        }
    }

    /// A cheap clonable handle for use inside simulated processes.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: Rc::clone(&self.core),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Spawns a simulated process. It first runs when the executor next
    /// gets control.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        self.core.spawn(Box::pin(fut));
    }

    /// Number of live (unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.live + self.core.spawn_queue.borrow().len()
    }

    /// Cumulative executor event counts.
    pub fn stats(&self) -> ExecutorStats {
        self.core.stats()
    }

    fn admit_spawned(&mut self) {
        std::mem::swap(
            &mut *self.core.spawn_queue.borrow_mut(),
            &mut self.admitting,
        );
        for fut in self.admitting.drain(..) {
            let id = match self.free.pop() {
                Some(id) => {
                    self.tasks[id].task = Some(fut);
                    id
                }
                None => {
                    let id = self.tasks.len();
                    self.tasks.push(Slot {
                        waker: Waker::from(Arc::new(TaskWaker {
                            id,
                            ready: Arc::clone(&self.core.ready),
                        })),
                        task: Some(fut),
                    });
                    id
                }
            };
            self.live += 1;
            self.core.ready.push(id);
        }
    }

    fn poll_task(&mut self, id: TaskId) {
        self.core.polls.set(self.core.polls.get() + 1);
        let slot = &mut self.tasks[id];
        // Spurious wake for a finished task.
        let Some(fut) = &mut slot.task else { return };
        let mut cx = Context::from_waker(&slot.waker);
        if fut.as_mut().poll(&mut cx).is_ready() {
            slot.task = None;
            self.free.push(id);
            self.live -= 1;
        }
    }

    /// Polls every runnable task (including freshly spawned ones) until no
    /// task is runnable at the current instant.
    fn drain_runnable(&mut self) {
        loop {
            self.admit_spawned();
            let Some(id) = self.core.ready.pop() else {
                if self.core.spawn_queue.borrow().is_empty() {
                    return;
                }
                continue;
            };
            self.poll_task(id);
        }
    }

    /// Advances the clock to the next timer and fires every timer scheduled
    /// for that instant. Returns `false` when no timers remain.
    fn advance(&mut self) -> bool {
        let mut timers = self.core.timers.borrow_mut();
        let Some(Reverse(first)) = timers.pop() else {
            return false;
        };
        let at = first.at;
        debug_assert!(at >= self.core.now());
        self.core.now.set(at);
        first.waker.wake();
        let mut fired = 1;
        while let Some(Reverse(e)) = timers.peek() {
            if e.at != at {
                break;
            }
            let Reverse(e) = timers.pop().expect("peeked entry exists");
            e.waker.wake();
            fired += 1;
        }
        self.core
            .timers_fired
            .set(self.core.timers_fired.get() + fired);
        true
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Tasks blocked on synchronisation that will never fire simply remain
    /// suspended; they do not prevent `run` from returning.
    pub fn run(&mut self) {
        loop {
            self.drain_runnable();
            if !self.advance() {
                return;
            }
        }
    }

    /// Runs until the virtual clock reaches `deadline` (processing every
    /// event strictly before or at it), then sets the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            self.drain_runnable();
            let next = self.core.timers.borrow().peek().map(|Reverse(e)| e.at);
            match next {
                Some(at) if at <= deadline => {
                    self.advance();
                }
                _ => break,
            }
        }
        if self.core.now() < deadline {
            self.core.now.set(deadline);
        }
    }

    /// Convenience: `run_until(now + span)`.
    pub fn run_for(&mut self, span: SimSpan) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }
}

/// Clonable handle to the simulation, used inside simulated processes.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<SimCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Suspends the calling process for `span` of virtual time.
    pub fn sleep(&self, span: SimSpan) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline: self.core.now() + span,
            registered: false,
        }
    }

    /// Suspends until the virtual clock reaches `deadline` (immediately
    /// ready if the deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline,
            registered: false,
        }
    }

    /// Spawns another simulated process.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.core.spawn(Box::pin(fut));
    }

    /// Cumulative executor event counts.
    pub fn stats(&self) -> ExecutorStats {
        self.core.stats()
    }

    /// Draws from the simulation's master RNG (deterministic per seed).
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.core.rng.borrow_mut())
    }

    /// Registers `waker` to fire at `at`; used by custom futures
    /// (resources, timeouts) built on top of the executor.
    pub fn schedule_wake(&self, at: SimTime, waker: Waker) {
        self.core.schedule_wake(at, waker);
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    core: Rc<SimCore>,
    deadline: SimTime,
    registered: bool,
}

impl Sleep {
    /// The instant this sleep completes.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.core.schedule_wake(self.deadline, cx.waker().clone());
            self.registered = true;
        }
        Poll::Pending
    }
}

/// Yields once, letting every other runnable task at this instant proceed.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let seen = Rc::new(Cell::new(0u64));
        let s = Rc::clone(&seen);
        sim.spawn(async move {
            assert_eq!(h.now(), SimTime::ZERO);
            h.sleep(SimSpan::micros(7)).await;
            s.set(h.now().as_nanos());
        });
        sim.run();
        assert_eq!(seen.get(), 7_000);
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let h = sim.handle();
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                h.sleep(SimSpan::nanos(10)).await;
                ord.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_spawn_runs() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let flag = Rc::clone(&hit);
        sim.spawn(async move {
            let inner_flag = Rc::clone(&flag);
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(SimSpan::nanos(1)).await;
                inner_flag.set(true);
            });
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let count = Rc::new(Cell::new(0u32));
        let c = Rc::clone(&count);
        sim.spawn(async move {
            loop {
                h.sleep(SimSpan::micros(1)).await;
                c.set(c.get() + 1);
            }
        });
        sim.run_until(SimTime::from_nanos(10_500));
        assert_eq!(count.get(), 10);
        assert_eq!(sim.now().as_nanos(), 10_500);
        // The looping task is still alive, merely suspended.
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(0);
        sim.run_for(SimSpan::micros(3));
        assert_eq!(sim.now().as_nanos(), 3_000);
        sim.run_for(SimSpan::micros(2));
        assert_eq!(sim.now().as_nanos(), 5_000);
    }

    #[test]
    fn yield_now_interleaves_fairly() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                for step in 0..3 {
                    ord.borrow_mut().push((i, step));
                    yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn finished_tasks_free_their_slots() {
        let mut sim = Simulation::new(0);
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        // Slots are recycled for later spawns.
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run();
        // Each slot owns its one waker, so the waker count is the slot
        // count: neither grows when slots are recycled.
        assert!(sim.tasks.len() <= 100);
    }

    #[test]
    fn recycled_slot_sees_one_spurious_poll_from_a_stale_timer() {
        // Task A arms a timer through a detached waker clone and
        // finishes at once; B is then admitted into A's slot. The slot's
        // waker is shared by every occupant, so A's timer wakes B: one
        // poll with nothing to do, and nothing else changes.
        struct ArmAndFinish(SimHandle);
        impl Future for ArmAndFinish {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                let at = self.0.now() + SimSpan::nanos(50);
                self.0.schedule_wake(at, cx.waker().clone());
                Poll::Ready(())
            }
        }
        let mut sim = Simulation::new(0);
        sim.spawn(ArmAndFinish(sim.handle()));
        sim.run_until(SimTime::from_nanos(10));
        assert_eq!(sim.live_tasks(), 0);

        let h = sim.handle();
        let woke_at = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&woke_at);
        sim.spawn(async move {
            h.sleep(SimSpan::nanos(100)).await;
            out.set(h.now().as_nanos());
        });
        sim.run();
        assert_eq!(sim.tasks.len(), 1, "B reuses A's slot");
        assert_eq!(
            woke_at.get(),
            110,
            "the stale wake does not cut B's sleep short"
        );
        // A's poll, B's first poll, the spurious poll at t=50, B's
        // completion at t=110; both timers fired.
        assert_eq!(
            sim.stats(),
            ExecutorStats {
                polls: 4,
                timers_fired: 2,
                spawned: 2,
            }
        );
    }

    #[test]
    fn stats_count_every_poll_timer_and_spawn() {
        // The ledger's `simnet.sleep_event` shape: one timer entry and
        // one task poll per sleep, plus each task's first poll.
        const TASKS: u64 = 100;
        const SLEEPS: u64 = 10_000;
        let mut sim = Simulation::new(1);
        for i in 0..TASKS {
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..SLEEPS {
                    h.sleep(SimSpan::nanos(100 + i)).await;
                }
            });
        }
        assert_eq!(sim.stats().spawned, TASKS);
        assert_eq!(sim.stats().polls, 0);
        sim.run();
        assert_eq!(
            sim.handle().stats(),
            ExecutorStats {
                polls: TASKS * SLEEPS + TASKS,
                timers_fired: TASKS * SLEEPS,
                spawned: TASKS,
            }
        );
    }

    #[test]
    fn sleep_zero_completes_immediately() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            h.sleep(SimSpan::ZERO).await;
            d.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let draw = |seed| {
            let sim = Simulation::new(seed);
            sim.handle().with_rng(|r| r.gen::<u64>())
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
