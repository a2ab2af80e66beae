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
//!
//! A timer need not wake a task: a state machine that only advances on
//! the clock (a NIC engine moving a work request through its hops)
//! implements [`EventSink`] and schedules *typed events* instead. An
//! event takes the same place in the timer heap and in the ready FIFO a
//! task wake would, but is delivered as one `fire(token)` call — no
//! task slot, no boxed future, no poll.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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

/// Ready-FIFO entry standing for the event at the head of
/// `SimCore::events` (wakers can only push plain task ids).
const EVENT: TaskId = usize::MAX;

/// A clock-driven state machine fed by typed events
/// ([`SimHandle::schedule_event`] / [`SimHandle::post_event`]).
pub trait EventSink {
    /// Delivers one event. `token` is whatever the sink passed when it
    /// scheduled the event — typically a [`SlabKey`](crate::SlabKey)
    /// token, so an event outliving its subject finds a stale key.
    fn fire(self: Rc<Self>, token: u64);
}

/// A pending event: the sink (kept alive until delivery) and its token.
type Event = (Rc<dyn EventSink>, u64);

/// A timer entry: fires `fire` at `at`, after every entry scheduled
/// for that instant before it.
struct TimerEntry<F> {
    at: SimTime,
    seq: u64,
    fire: F,
}

impl<F> TimerEntry<F> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<F> PartialEq for TimerEntry<F> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<F> Eq for TimerEntry<F> {}
impl<F> PartialOrd for TimerEntry<F> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<F> Ord for TimerEntry<F> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

type TimerHeap<F> = BinaryHeap<Reverse<TimerEntry<F>>>;

/// The pending timers, earliest `(at, seq)` first. Task wakes and
/// events share the one `seq` order but not one heap: an event entry is
/// larger than a waker, and sifting the wider entries would tax every
/// plain sleep for a feature it does not use.
struct Timers {
    wakes: TimerHeap<Waker>,
    events: TimerHeap<Event>,
}

impl Timers {
    /// Sequence number of `heap`'s earliest entry, if it fires at `at`.
    fn due<F>(heap: &TimerHeap<F>, at: SimTime) -> Option<u64> {
        heap.peek()
            .filter(|Reverse(e)| e.at == at)
            .map(|Reverse(e)| e.seq)
    }

    /// The instant of the earliest pending timer.
    fn next_at(&self) -> Option<SimTime> {
        let wake = self.wakes.peek().map(|Reverse(e)| e.at);
        let event = self.events.peek().map(|Reverse(e)| e.at);
        match (wake, event) {
            (Some(w), Some(e)) => Some(w.min(e)),
            (w, e) => w.or(e),
        }
    }
}

/// What enters the ready FIFO once the running task's poll returns.
enum Admit {
    Task(BoxFuture),
    Event(Event),
}

/// Cumulative executor event counts of one [`Simulation`]: the
/// denominator of every "host cost per event" figure.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Task polls, spurious ones (a wake for a finished task) included.
    pub polls: u64,
    /// Timer entries popped off the event heap and fired, task wakes
    /// and typed events alike.
    pub timers_fired: u64,
    /// Futures handed to `spawn`.
    pub spawned: u64,
}

/// Shared core of one simulation: clock, event heap, spawn queue, RNG.
pub(crate) struct SimCore {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<Timers>,
    /// Futures spawned and events posted while the executor is running;
    /// drained by the driver.
    spawn_queue: RefCell<Vec<Admit>>,
    /// Task ids whose wakers fired, plus one [`EVENT`] marker per entry
    /// of `events`; drained by the driver.
    ready: Arc<SegQueue<TaskId>>,
    /// Events due now, in the order of their markers in `ready`.
    events: RefCell<VecDeque<Event>>,
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
        self.spawn_queue.borrow_mut().push(Admit::Task(fut));
    }

    /// Queues `event` for delivery behind everything already runnable.
    fn make_ready(&self, event: Event) {
        self.events.borrow_mut().push_back(event);
        self.ready.push(EVENT);
    }

    fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            polls: self.polls.get(),
            timers_fired: self.timers_fired.get(),
            spawned: self.spawned.get(),
        }
    }

    /// The next timer entry in scheduling order.
    fn entry<F>(&self, at: SimTime, fire: F) -> Reverse<TimerEntry<F>> {
        debug_assert!(at >= self.now.get(), "cannot schedule in the past");
        let seq = self.next_seq();
        Reverse(TimerEntry { at, seq, fire })
    }

    /// Registers `waker` to fire at instant `at`.
    pub(crate) fn schedule_wake(&self, at: SimTime, waker: Waker) {
        let entry = self.entry(at, waker);
        self.timers.borrow_mut().wakes.push(entry);
    }

    fn schedule_event(&self, at: SimTime, event: Event) {
        let entry = self.entry(at, event);
        self.timers.borrow_mut().events.push(entry);
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
    admitting: Vec<Admit>,
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Pending events own their sinks and unadmitted futures their
        // captures, either of which may hold a `SimHandle` back into
        // the core; the core must not keep them (and so itself) alive.
        let timers = std::mem::take(&mut self.core.timers.borrow_mut().events);
        let events = std::mem::take(&mut *self.core.events.borrow_mut());
        let queued = std::mem::take(&mut *self.core.spawn_queue.borrow_mut());
        drop((timers, events, queued));
    }
}

impl Simulation {
    /// Creates a fresh simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            core: Rc::new(SimCore {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                timers: RefCell::new(Timers {
                    wakes: BinaryHeap::new(),
                    events: BinaryHeap::new(),
                }),
                spawn_queue: RefCell::new(Vec::new()),
                ready: Arc::new(SegQueue::new()),
                events: RefCell::new(VecDeque::new()),
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
        let queue = self.core.spawn_queue.borrow();
        self.live + queue.iter().filter(|a| matches!(a, Admit::Task(_))).count()
    }

    /// Cumulative executor event counts.
    pub fn stats(&self) -> ExecutorStats {
        self.core.stats()
    }

    fn admit_spawned(&mut self) {
        if self.core.spawn_queue.borrow().is_empty() {
            return;
        }
        std::mem::swap(
            &mut *self.core.spawn_queue.borrow_mut(),
            &mut self.admitting,
        );
        for admitted in self.admitting.drain(..) {
            let fut = match admitted {
                Admit::Task(fut) => fut,
                Admit::Event(event) => {
                    self.core.make_ready(event);
                    continue;
                }
            };
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
            if id == EVENT {
                let event = self.core.events.borrow_mut().pop_front();
                let (sink, token) = event.expect("one queued event per marker");
                sink.fire(token);
            } else {
                self.poll_task(id);
            }
        }
    }

    /// Advances the clock to the next timer and fires every timer scheduled
    /// for that instant. Returns `false` when no timers remain.
    fn advance(&mut self) -> bool {
        let mut timers = self.core.timers.borrow_mut();
        let Some(at) = timers.next_at() else {
            return false;
        };
        debug_assert!(at >= self.core.now());
        self.core.now.set(at);
        let mut fired = 0;
        loop {
            let wake = Timers::due(&timers.wakes, at);
            let event = Timers::due(&timers.events, at);
            match (wake, event) {
                (None, None) => break,
                (Some(w), e) if e.is_none_or(|e| w < e) => {
                    let Reverse(entry) = timers.wakes.pop().expect("peeked entry exists");
                    entry.fire.wake();
                }
                _ => {
                    let Reverse(entry) = timers.events.pop().expect("peeked entry exists");
                    let alone =
                        fired == 0 && wake.is_none() && Timers::due(&timers.events, at).is_none();
                    if alone {
                        // Nothing else fires at this instant (the common
                        // case at nanosecond resolution), so there is
                        // nothing to order the event against: deliver it
                        // without a round trip through the ready FIFO.
                        drop(timers);
                        let (sink, token) = entry.fire;
                        sink.fire(token);
                        fired = 1;
                        break;
                    }
                    self.core.make_ready(entry.fire);
                }
            }
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
            let next = self.core.timers.borrow().next_at();
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

    /// Delivers `sink.fire(token)` at instant `at`, ordered among the
    /// task wakes and events of that instant by scheduling order —
    /// exactly where a task that slept until `at` would be polled.
    pub fn schedule_event(&self, at: SimTime, sink: Rc<dyn EventSink>, token: u64) {
        self.core.schedule_event(at, (sink, token));
    }

    /// Delivers `sink.fire(token)` at the current instant, once the
    /// running task's poll has returned — exactly where a task spawned
    /// now would first be polled.
    pub fn post_event(&self, sink: Rc<dyn EventSink>, token: u64) {
        let event = Admit::Event((sink, token));
        self.core.spawn_queue.borrow_mut().push(event);
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

    /// `(tag, token, now)` per event or task step, in execution order.
    type Log = Rc<RefCell<Vec<(&'static str, u64, u64)>>>;

    /// Appends to a shared log on every event.
    struct LogSink {
        tag: &'static str,
        h: SimHandle,
        log: Log,
    }

    impl EventSink for LogSink {
        fn fire(self: Rc<Self>, token: u64) {
            let now = self.h.now().as_nanos();
            self.log.borrow_mut().push((self.tag, token, now));
        }
    }

    #[test]
    fn events_and_wakes_of_one_instant_fire_in_scheduling_order() {
        let mut sim = Simulation::new(0);
        let log = Log::default();
        let sink = Rc::new(LogSink {
            tag: "event",
            h: sim.handle(),
            log: Rc::clone(&log),
        });
        let at = SimTime::from_nanos(10);
        // Scheduling order at t=10: event 0, task a, event 1, task b,
        // event 2 — and one event alone at t=20.
        sim.handle().schedule_event(at, Rc::clone(&sink) as _, 0);
        for (tag, token) in [("a", 1), ("b", 2)] {
            let (h, log) = (sim.handle(), Rc::clone(&log));
            let sink = Rc::clone(&sink);
            sim.spawn(async move {
                h.sleep(SimSpan::nanos(10)).await;
                log.borrow_mut().push((tag, 0, h.now().as_nanos()));
            });
            // Let the task register its sleep before the next event.
            sim.run_until(SimTime::ZERO);
            sim.handle().schedule_event(at, sink as _, token);
        }
        sim.handle()
            .schedule_event(SimTime::from_nanos(20), sink as _, 3);
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                ("event", 0, 10),
                ("a", 0, 10),
                ("event", 1, 10),
                ("b", 0, 10),
                ("event", 2, 10),
                ("event", 3, 20),
            ]
        );
        // Four events and two sleeps fired as timers; only the two
        // tasks were ever polled (first poll + wake each).
        assert_eq!(
            sim.stats(),
            ExecutorStats {
                polls: 4,
                timers_fired: 6,
                spawned: 2,
            }
        );
    }

    #[test]
    fn posted_event_runs_where_a_spawned_task_would_first_be_polled() {
        // Task p wakes task w, posts an event, spawns task s, then keeps
        // going: w was already runnable, so it goes first; the event and
        // s follow in posting order, after p's poll has returned.
        let mut sim = Simulation::new(0);
        let log = Log::default();
        let sink = Rc::new(LogSink {
            tag: "event",
            h: sim.handle(),
            log: Rc::clone(&log),
        });
        let signal = Rc::new(crate::Signal::new());
        let (l, sig) = (Rc::clone(&log), Rc::clone(&signal));
        sim.spawn(async move {
            sig.wait().await;
            l.borrow_mut().push(("w", 0, 0));
        });
        let (h, l) = (sim.handle(), Rc::clone(&log));
        sim.spawn(async move {
            signal.fire();
            h.post_event(sink as _, 7);
            let l2 = Rc::clone(&l);
            h.spawn(async move { l2.borrow_mut().push(("s", 0, 0)) });
            l.borrow_mut().push(("p", 0, 0));
        });
        sim.run();
        let order: Vec<_> = log.borrow().iter().map(|&(tag, ..)| tag).collect();
        assert_eq!(order, vec!["p", "w", "event", "s"]);
        assert_eq!(log.borrow()[2], ("event", 7, 0));
    }

    #[test]
    fn stale_event_token_never_reaches_a_recycled_slot() {
        // The sink's subjects live in a generation-stamped slab and
        // events name them by key token. A subject removed while its
        // event is pending leaves a stale token: the slot's next
        // occupant must not see that event.
        struct Subjects {
            slab: RefCell<crate::Slab<&'static str>>,
            seen: RefCell<Vec<&'static str>>,
        }
        impl EventSink for Subjects {
            fn fire(self: Rc<Self>, token: u64) {
                let key = crate::SlabKey::from_token(token);
                if let Some(name) = self.slab.borrow().get(key) {
                    self.seen.borrow_mut().push(name);
                }
            }
        }
        let mut sim = Simulation::new(0);
        let sink = Rc::new(Subjects {
            slab: RefCell::default(),
            seen: RefCell::default(),
        });
        let h = sim.handle();
        let old = sink.slab.borrow_mut().insert("old");
        h.schedule_event(SimTime::from_nanos(5), Rc::clone(&sink) as _, old.token());
        // Cancelled: the slot is recycled before the event fires.
        sink.slab.borrow_mut().remove(old);
        let new = sink.slab.borrow_mut().insert("new");
        assert_eq!(sink.slab.borrow().slots(), 1, "same slot, new generation");
        h.schedule_event(SimTime::from_nanos(9), Rc::clone(&sink) as _, new.token());
        sim.run();
        assert_eq!(*sink.seen.borrow(), vec!["new"]);
    }

    #[test]
    fn dropping_the_simulation_releases_pending_events() {
        let mut sim = Simulation::new(0);
        let sink = Rc::new(LogSink {
            tag: "never",
            h: sim.handle(),
            log: Rc::default(),
        });
        let h = sim.handle();
        h.schedule_event(SimTime::from_nanos(50), Rc::clone(&sink) as _, 0);
        h.post_event(Rc::clone(&sink) as _, 1);
        sim.run_until(SimTime::from_nanos(10));
        assert_eq!(sink.log.borrow().len(), 1, "the posted event ran");
        assert_eq!(Rc::strong_count(&sink), 2, "the timer keeps its sink alive");
        drop(sim);
        // The sink holds a handle into the core; the core must not hold
        // the sink in turn once its owner is gone.
        assert_eq!(Rc::strong_count(&sink), 1);
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
