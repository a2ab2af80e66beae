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
//!
//! A sink running a chain of self-scheduled events can *step in place*
//! ([`SimHandle::step_to`]): when its next event would be delivered
//! next and alone, the clock moves to it and the sink carries on,
//! skipping a heap round trip that would have handed the event back
//! alone anyway (DESIGN §19 "Clocked looks").
//!
//! A task is woken one of two ways (DESIGN §19 "Wake paths"). A
//! [`Sleep`] or a NIC completion parks through a [`Wakeup`] ticket that
//! names the task by slot id: firing it is a `VecDeque` push, with no
//! lock, atomic or reference count. Everything else goes through the
//! task's [`Waker`], which must be `Send + Sync` and so files the id on
//! a locked side queue, folded into the ready FIFO in call order.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// `SimCore::events`.
const EVENT: TaskId = usize::MAX;

/// Whom a timer entry or a completion wakes.
enum Target {
    /// The task in this slot: straight onto the ready FIFO.
    Task(TaskId),
    /// Whatever the waker stands for: through its own `wake`.
    Waker(Waker),
}

/// A wake ticket: taken from a polling context ([`SimHandle::wakeup`]),
/// redeemed once, behind everything runnable ([`SimHandle::wake`]) or
/// ahead of it ([`SimHandle::resume`]). It names the running task by slot id
/// when the context's waker is that task's own and holds a clone of the
/// waker otherwise (a combinator polling under its own waker). Like a
/// kept waker, a ticket that outlives its task costs the slot's next
/// occupant one spurious poll.
pub struct Wakeup {
    target: Target,
    /// The issuing simulation's stamp: a slot id means nothing elsewhere.
    sim: u64,
}

impl From<Waker> for Wakeup {
    fn from(waker: Waker) -> Self {
        Wakeup {
            target: Target::Waker(waker),
            sim: 0,
        }
    }
}

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

/// The pending timers, earliest `(at, seq)` first. Task wakes, events
/// and chained events share the one `seq` order but not one heap, each
/// kept small for its own traffic: an event entry is larger than a wake
/// target, and sifting the wider entries would tax every plain sleep; a
/// chain's short-horizon event ([`SimHandle::schedule_chained`]) would
/// sift through every NIC hop in flight on each push and pop.
#[derive(Default)]
struct Timers {
    wakes: TimerHeap<Target>,
    events: TimerHeap<Event>,
    chains: TimerHeap<Event>,
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
        let chain = self.chains.peek().map(|Reverse(e)| e.at);
        earliest(earliest(wake, event), chain)
    }
}

/// The earlier of two optional keys.
fn earliest<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
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
    /// Task wakes that arrived through a [`Waker`] — the locked path —
    /// rather than by slot id.
    pub waker_wakes: u64,
    /// Events handled in place ([`SimHandle::step_to`]) instead of
    /// entering the timer heap.
    pub stepped: u64,
}

/// Where a [`Waker`] files its wake. `Waker: Send + Sync` is a contract
/// the executor cannot narrow, so this side of the ready FIFO keeps its
/// lock; [`SimCore::fold`] moves the entries over.
#[derive(Default)]
struct Foreign {
    queue: SegQueue<TaskId>,
    /// Raised after every push: the executor's check is one load.
    pending: AtomicBool,
}

/// Stamps handed to simulations, so a [`Wakeup`] knows its own.
/// Relaxed: an identifier that publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Shared core of one simulation: clock, event heap, spawn queue, RNG.
pub(crate) struct SimCore {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<Timers>,
    /// Futures spawned and events posted while the executor is running;
    /// drained by the driver.
    spawn_queue: RefCell<Vec<Admit>>,
    /// Runnable task ids in wake order, plus one [`EVENT`] marker per
    /// entry of `events`; drained by the driver.
    ready: RefCell<VecDeque<TaskId>>,
    /// Wakes that arrived through a [`Waker`], not yet in `ready`.
    foreign: Arc<Foreign>,
    /// Slot id and waker identity ([`Waker::data`]) of the task polled
    /// last — during a poll, the running one. Never cleared: a context
    /// matching it later holds a clone of that slot's waker, which the
    /// slot id wakes just the same.
    running: Cell<Option<(TaskId, *const ())>>,
    stamp: u64,
    /// Events due now, in the order of their markers in `ready`.
    events: RefCell<VecDeque<Event>>,
    /// Deadline of the run in progress: no step in place goes past it.
    horizon: Cell<SimTime>,
    rng: RefCell<StdRng>,
    stats: Cell<ExecutorStats>,
}

impl SimCore {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    fn count(&self, event: impl FnOnce(&mut ExecutorStats)) {
        let mut stats = self.stats.get();
        event(&mut stats);
        self.stats.set(stats);
    }

    fn spawn(&self, fut: BoxFuture) {
        self.count(|s| s.spawned += 1);
        self.spawn_queue.borrow_mut().push(Admit::Task(fut));
    }

    /// Moves the wakes that arrived through a [`Waker`] behind what is
    /// already in `ready`. Runs before every push and every pop, so the
    /// merged FIFO is exactly call order.
    fn fold(&self) {
        // Pairs with the `Release` store in `TaskWaker::wake`.
        if !self.foreign.pending.load(Ordering::Acquire) {
            return;
        }
        // Relaxed: publishes nothing. Lowered before the drain, and the
        // queue's lock orders it before any push the drain misses, so a
        // wake racing the drain raises it again.
        self.foreign.pending.store(false, Ordering::Relaxed);
        let mut ready = self.ready.borrow_mut();
        while let Some(id) = self.foreign.queue.pop() {
            ready.push_back(id);
            self.count(|s| s.waker_wakes += 1);
        }
    }

    fn push_ready(&self, id: TaskId) {
        self.fold();
        self.ready.borrow_mut().push_back(id);
    }

    fn pop_ready(&self) -> Option<TaskId> {
        self.fold();
        self.ready.borrow_mut().pop_front()
    }

    /// Queues `event` for delivery behind everything already runnable.
    fn make_ready(&self, event: Event) {
        self.events.borrow_mut().push_back(event);
        self.push_ready(EVENT);
    }

    /// Whom to wake for the task being polled under `cx`.
    fn target(&self, cx: &Context<'_>) -> Target {
        match self.running.get() {
            Some((id, own)) if std::ptr::eq(cx.waker().data(), own) => Target::Task(id),
            _ => Target::Waker(cx.waker().clone()),
        }
    }

    /// The target of a ticket this simulation issued.
    fn redeem(&self, wakeup: Wakeup) -> Target {
        let own = matches!(wakeup.target, Target::Waker(_)) || wakeup.sim == self.stamp;
        assert!(own, "a wake ticket is good in its own simulation only");
        wakeup.target
    }

    /// Makes `target` runnable behind everything already runnable.
    fn wake(&self, target: Target) {
        match target {
            Target::Task(id) => self.push_ready(id),
            Target::Waker(waker) => waker.wake(),
        }
    }

    /// The next timer entry in scheduling order.
    fn entry<F>(&self, at: SimTime, fire: F) -> Reverse<TimerEntry<F>> {
        // Checked in every build: `advance` sets the clock from these.
        assert!(at >= self.now.get(), "cannot schedule in the past");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        Reverse(TimerEntry { at, seq, fire })
    }

    /// Registers `target` to be woken at instant `at`.
    fn schedule_wake(&self, at: SimTime, target: Target) {
        let entry = self.entry(at, target);
        self.timers.borrow_mut().wakes.push(entry);
    }

    /// See [`SimHandle::step_to`].
    #[inline]
    fn step_to(&self, at: SimTime) -> bool {
        let alone = at <= self.horizon.get()
            && self.timers.borrow().next_at().is_none_or(|next| at < next)
            && self.ready.borrow().is_empty()
            && self.spawn_queue.borrow().is_empty()
            && !self.foreign.pending.load(Ordering::Acquire);
        if alone {
            assert!(at >= self.now.get(), "cannot schedule in the past");
            self.seq.set(self.seq.get() + 1);
            self.now.set(at);
            self.count(|s| s.stepped += 1);
        }
        alone
    }
}

/// The waker for one task: files the task id on the foreign queue.
struct TaskWaker {
    id: TaskId,
    foreign: Arc<Foreign>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.foreign.queue.push(self.id);
        self.foreign.pending.store(true, Ordering::Release);
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
        let timers = std::mem::take(&mut *self.core.timers.borrow_mut());
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
                timers: RefCell::default(),
                spawn_queue: RefCell::new(Vec::new()),
                ready: RefCell::new(VecDeque::new()),
                foreign: Arc::default(),
                running: Cell::new(None),
                stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
                events: RefCell::new(VecDeque::new()),
                horizon: Cell::new(SimTime::ZERO),
                rng: RefCell::new(StdRng::seed_from_u64(seed)),
                stats: Cell::default(),
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
        self.core.stats.get()
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
                            foreign: Arc::clone(&self.core.foreign),
                        })),
                        task: Some(fut),
                    });
                    id
                }
            };
            self.live += 1;
            self.core.push_ready(id);
        }
    }

    fn poll_task(&mut self, id: TaskId) {
        self.core.count(|s| s.polls += 1);
        let slot = &mut self.tasks[id];
        // Spurious wake for a finished task.
        let Some(fut) = &mut slot.task else { return };
        self.core.running.set(Some((id, slot.waker.data())));
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
            let Some(id) = self.core.pop_ready() else {
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

    /// Advances the clock to the next timer, if that is due by `deadline`,
    /// and fires every timer scheduled for that instant. Returns `false`
    /// when no such timer remains. Call it only after `drain_runnable`,
    /// with nothing runnable.
    fn advance(&mut self, deadline: SimTime) -> bool {
        let mut timers = self.core.timers.borrow_mut();
        let Some(at) = timers.next_at().filter(|&at| at <= deadline) else {
            return false;
        };
        assert!(at >= self.core.now(), "the clock never runs backwards");
        self.core.now.set(at);
        let mut fired = 0;
        loop {
            let wake = Timers::due(&timers.wakes, at);
            let event = Timers::due(&timers.events, at);
            let chain = Timers::due(&timers.chains, at);
            let Some(first) = earliest(earliest(wake, event), chain) else {
                break;
            };
            fired += 1;
            // Nothing else fires at this instant (the common case at
            // nanosecond resolution) and, `drain_runnable` having
            // returned, nothing is runnable or awaits admission: with
            // nothing to order the entry against, it is delivered
            // without a round trip through the ready FIFO.
            let heads = wake.is_some() as u8 + event.is_some() as u8 + chain.is_some() as u8;
            let alone = fired == 1 && heads == 1;
            if wake == Some(first) {
                let Reverse(entry) = timers.wakes.pop().expect("peeked entry exists");
                match entry.fire {
                    Target::Task(id) if alone && Timers::due(&timers.wakes, at).is_none() => {
                        drop(timers);
                        self.poll_task(id);
                        break;
                    }
                    target => self.core.wake(target),
                }
            } else {
                let heap = if event == Some(first) {
                    &mut timers.events
                } else {
                    &mut timers.chains
                };
                let Reverse(entry) = heap.pop().expect("peeked entry exists");
                if alone && Timers::due(heap, at).is_none() {
                    drop(timers);
                    let (sink, token) = entry.fire;
                    sink.fire(token);
                    break;
                }
                self.core.make_ready(entry.fire);
            }
        }
        self.core.count(|s| s.timers_fired += fired);
        true
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Tasks blocked on synchronisation that will never fire simply remain
    /// suspended; they do not prevent `run` from returning.
    pub fn run(&mut self) {
        self.run_to(SimTime::MAX);
    }

    /// Runs until the virtual clock reaches `deadline` (processing every
    /// event strictly before or at it), then sets the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_to(deadline);
        if self.core.now() < deadline {
            self.core.now.set(deadline);
        }
    }

    /// Processes every event due by `deadline`; steps in place stay
    /// within it.
    fn run_to(&mut self, deadline: SimTime) {
        self.core.horizon.set(deadline);
        self.drain_runnable();
        while self.advance(deadline) {
            self.drain_runnable();
        }
        self.core.horizon.set(self.core.now());
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
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Suspends the calling process for `span` of virtual time.
    pub fn sleep(&self, span: SimSpan) -> Sleep {
        self.sleep_until(self.core.now() + span)
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
        self.core.stats.get()
    }

    /// Draws from the simulation's master RNG (deterministic per seed).
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.core.rng.borrow_mut())
    }

    /// A ticket that wakes the task being polled under `cx`; used by
    /// custom futures built on top of the executor.
    pub fn wakeup(&self, cx: &Context<'_>) -> Wakeup {
        Wakeup {
            target: self.core.target(cx),
            sim: self.core.stamp,
        }
    }

    /// Makes `wakeup`'s task runnable now, behind everything already
    /// runnable.
    pub fn wake(&self, wakeup: Wakeup) {
        self.core.wake(self.core.redeem(wakeup));
    }

    /// Delivers `sink.fire(token)` at instant `at`, ordered among the
    /// task wakes and events of that instant by scheduling order —
    /// exactly where a task that slept until `at` would be polled.
    pub fn schedule_event(&self, at: SimTime, sink: Rc<dyn EventSink>, token: u64) {
        let entry = self.core.entry(at, (sink, token));
        self.core.timers.borrow_mut().events.push(entry);
    }

    /// [`schedule_event`](Self::schedule_event) for the one pending
    /// event of an event chain — a sink that keeps scheduling its own
    /// next event a short time ahead (the server's ring sweep). Ordered
    /// exactly as `schedule_event` orders it; filed in a heap that holds
    /// one entry per chain, not one per NIC hop in flight.
    #[inline]
    pub fn schedule_chained(&self, at: SimTime, sink: Rc<dyn EventSink>, token: u64) {
        let entry = self.core.entry(at, (sink, token));
        self.core.timers.borrow_mut().chains.push(entry);
    }

    /// Steps in place to `at`: if an event scheduled now for `at` would
    /// be the executor's next delivery, alone at its instant — strictly
    /// earlier than every pending timer, within the run's deadline, with
    /// nothing runnable or awaiting admission — moves the clock there,
    /// draws the `seq` that event would have drawn and returns `true`:
    /// the caller handles that event itself, now, exactly where its
    /// delivery would have happened. Otherwise returns `false` and
    /// changes nothing; the caller schedules the event.
    ///
    /// For an event sink working through a chain of self-scheduled
    /// events: the chain skips the heap round trip and the dispatch of
    /// each event it can prove alone. Call it from an event's delivery
    /// only — a task's poll may go on past the caller (a combinator
    /// polling a sibling), which must not find the clock moved.
    #[inline]
    pub fn step_to(&self, at: SimTime) -> bool {
        self.core.step_to(at)
    }

    /// Makes `wakeup`'s task the next one polled, ahead of everything
    /// already runnable: an event sink that finished a stretch of work on
    /// the task's behalf hands the rest back at its own place in the
    /// order, where the task would have been polled had it done that
    /// work itself. A ticket holding a [`Waker`] wakes through it.
    pub fn resume(&self, wakeup: Wakeup) {
        match self.core.redeem(wakeup) {
            Target::Task(id) => self.core.ready.borrow_mut().push_front(id),
            target => self.core.wake(target),
        }
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
            let target = self.core.target(cx);
            self.core.schedule_wake(self.deadline, target);
            self.registered = true;
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Mutex;

    /// Registers `wakeup` (a ticket, or a plain [`Waker`]) to fire at
    /// `at`, as a `Sleep` does.
    fn schedule_wake(h: &SimHandle, at: SimTime, wakeup: impl Into<Wakeup>) {
        h.core.schedule_wake(at, h.core.redeem(wakeup.into()));
    }

    /// Parks its task once, leaving a ticket for it in `ticket` — the
    /// way a work request keeps its waiter.
    struct Park {
        h: SimHandle,
        ticket: Rc<RefCell<Option<Wakeup>>>,
        parked: bool,
    }

    impl Future for Park {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.parked {
                return Poll::Ready(());
            }
            self.parked = true;
            *self.ticket.borrow_mut() = Some(self.h.wakeup(cx));
            Poll::Pending
        }
    }

    /// Polls `inner` under a waker of its own that relays to the
    /// task's, as a combinator telling its branches apart does.
    struct Relay<F> {
        inner: F,
        relay: Arc<RelayWaker>,
    }

    #[derive(Default)]
    struct RelayWaker(Mutex<Option<Waker>>);

    impl Wake for RelayWaker {
        fn wake(self: Arc<Self>) {
            if let Some(task) = self.0.lock().unwrap().take() {
                task.wake();
            }
        }
    }

    impl<F: Future + Unpin> Future for Relay<F> {
        type Output = F::Output;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            *self.relay.0.lock().unwrap() = Some(cx.waker().clone());
            let waker = Waker::from(Arc::clone(&self.relay));
            Pin::new(&mut self.inner).poll(&mut Context::from_waker(&waker))
        }
    }

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
                schedule_wake(&self.0, at, cx.waker().clone());
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
        // completion at t=110; both timers fired, A's through its waker.
        assert_eq!(
            sim.stats(),
            ExecutorStats {
                polls: 4,
                timers_fired: 2,
                spawned: 2,
                waker_wakes: 1,
                stepped: 0,
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
                waker_wakes: 0,
                stepped: 0,
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
                waker_wakes: 0,
                stepped: 0,
            }
        );
    }

    #[test]
    fn waker_and_ticket_wakes_of_one_poll_run_in_call_order() {
        // One poll wakes a through a `Signal` (its waker), b through a
        // ticket and c through a `Channel` (its waker): the locked and
        // the local side of the ready FIFO interleave in call order.
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let signal = Rc::new(crate::Signal::new());
        let channel: crate::Channel<()> = crate::Channel::new();
        let ticket = Rc::new(RefCell::new(None));
        let (sig, ord) = (Rc::clone(&signal), Rc::clone(&order));
        sim.spawn(async move {
            sig.wait().await;
            ord.borrow_mut().push("a");
        });
        let (park, ord) = (Rc::clone(&ticket), Rc::clone(&order));
        let h = sim.handle();
        sim.spawn(async move {
            let parked = false;
            Park {
                h,
                ticket: park,
                parked,
            }
            .await;
            ord.borrow_mut().push("b");
        });
        let (rx, ord) = (channel.clone(), Rc::clone(&order));
        sim.spawn(async move {
            rx.recv().await;
            ord.borrow_mut().push("c");
        });
        sim.run();
        assert!(order.borrow().is_empty(), "all three are parked");
        let h = sim.handle();
        sim.spawn(async move {
            signal.fire();
            h.wake(ticket.borrow_mut().take().expect("b left its ticket"));
            channel.send(());
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.stats().waker_wakes, 2);
    }

    #[test]
    fn sleep_under_a_foreign_waker_takes_the_waker_path() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let woke_at = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&woke_at);
        sim.spawn(async move {
            let relayed = Relay {
                inner: h.sleep(SimSpan::nanos(70)),
                relay: Arc::default(),
            };
            relayed.await;
            out.set(h.now().as_nanos());
        });
        sim.run();
        assert_eq!(woke_at.get(), 70);
        assert_eq!(
            sim.stats(),
            ExecutorStats {
                polls: 2,
                timers_fired: 1,
                spawned: 1,
                waker_wakes: 1,
                stepped: 0,
            }
        );
    }

    #[test]
    fn a_wake_alone_at_its_instant_is_polled_straight_from_the_heap() {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (tag, span) in [("alone", 10), ("first", 20), ("second", 20)] {
            let (h, log) = (sim.handle(), Rc::clone(&log));
            sim.spawn(async move {
                h.sleep(SimSpan::nanos(span)).await;
                log.borrow_mut().push(tag);
            });
        }
        sim.drain_runnable();
        let parked = sim.stats();
        // t=10: the one `advance` call has already run the task.
        assert!(sim.advance(SimTime::from_nanos(20)));
        assert_eq!(*log.borrow(), vec!["alone"]);
        assert!(sim.core.ready.borrow().is_empty());
        let alone = sim.stats();
        assert_eq!(alone.polls, parked.polls + 1);
        assert_eq!(alone.timers_fired, parked.timers_fired + 1);
        // t=20: two wakes have an order, so both go through the FIFO.
        assert!(sim.advance(SimTime::from_nanos(20)));
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(sim.core.ready.borrow().len(), 2);
        sim.drain_runnable();
        assert_eq!(*log.borrow(), vec!["alone", "first", "second"]);
        assert_eq!(sim.stats().polls, alone.polls + 2);
        assert_eq!(sim.stats().timers_fired, alone.timers_fired + 2);
        assert_eq!(sim.stats().waker_wakes, 0);
    }

    #[test]
    #[should_panic(expected = "good in its own simulation only")]
    fn a_ticket_does_not_wake_a_stranger_in_another_simulation() {
        let mut sim = Simulation::new(0);
        let ticket = Rc::new(RefCell::new(None));
        sim.spawn(Park {
            h: sim.handle(),
            ticket: Rc::clone(&ticket),
            parked: false,
        });
        sim.run();
        let ticket = ticket.borrow_mut().take().expect("taken by the first poll");
        // Slot 0 exists over there too; the ticket must not reach it.
        let mut other = Simulation::new(0);
        other.spawn(std::future::pending());
        other.run();
        other.handle().wake(ticket);
    }

    #[test]
    fn recycled_slot_sees_one_spurious_poll_from_a_stale_ticket() {
        // The ticket twin of the stale-timer test above: A arms a timer
        // by ticket and finishes, B inherits the slot and the wake.
        struct ArmAndFinish(SimHandle);
        impl Future for ArmAndFinish {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                let at = self.0.now() + SimSpan::nanos(50);
                schedule_wake(&self.0, at, self.0.wakeup(cx));
                Poll::Ready(())
            }
        }
        let mut sim = Simulation::new(0);
        sim.spawn(ArmAndFinish(sim.handle()));
        sim.run_until(SimTime::from_nanos(10));
        let h = sim.handle();
        let woke_at = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&woke_at);
        sim.spawn(async move {
            h.sleep(SimSpan::nanos(100)).await;
            out.set(h.now().as_nanos());
        });
        sim.run();
        assert_eq!(sim.tasks.len(), 1, "B reuses A's slot");
        assert_eq!(woke_at.get(), 110);
        assert_eq!(
            sim.stats(),
            ExecutorStats {
                polls: 4,
                timers_fired: 2,
                spawned: 2,
                waker_wakes: 0,
                stepped: 0,
            }
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_an_event_in_the_past_panics_in_every_build() {
        let mut sim = Simulation::new(0);
        let sink = Rc::new(LogSink {
            tag: "late",
            h: sim.handle(),
            log: Log::default(),
        });
        sim.run_until(SimTime::from_nanos(100));
        sim.handle()
            .schedule_event(SimTime::from_nanos(10), sink as _, 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_a_wake_in_the_past_panics_in_every_build() {
        let mut sim = Simulation::new(0);
        sim.run_until(SimTime::from_nanos(100));
        schedule_wake(
            &sim.handle(),
            SimTime::from_nanos(10),
            Waker::noop().clone(),
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

    /// An event chain: each delivery logs itself and schedules the next
    /// one `period` later, until `until` — in place whenever the
    /// executor allows it.
    struct Chain {
        h: SimHandle,
        period: u64,
        until: u64,
        log: Log,
    }

    impl EventSink for Chain {
        fn fire(self: Rc<Self>, token: u64) {
            loop {
                let now = self.h.now();
                self.log.borrow_mut().push(("chain", token, now.as_nanos()));
                let at = now + SimSpan::nanos(self.period);
                if at.as_nanos() > self.until {
                    return;
                }
                if !self.h.step_to(at) {
                    self.h.schedule_chained(at, Rc::clone(&self) as _, token);
                    return;
                }
            }
        }
    }

    fn chain(sim: &Simulation, period: u64, until: u64, log: &Log) -> Rc<Chain> {
        Rc::new(Chain {
            h: sim.handle(),
            period,
            until,
            log: Rc::clone(log),
        })
    }

    /// Sleeps until `at`, then logs `tag`.
    fn sleeper(sim: &mut Simulation, tag: &'static str, at: u64, log: &Log) {
        let (h, log) = (sim.handle(), Rc::clone(log));
        sim.spawn(async move {
            h.sleep_until(SimTime::from_nanos(at)).await;
            log.borrow_mut().push((tag, 0, h.now().as_nanos()));
        });
    }

    #[test]
    fn a_chain_alone_in_time_steps_in_place() {
        let mut sim = Simulation::new(0);
        let log = Log::default();
        sim.handle()
            .post_event(chain(&sim, 10, 1_000, &log) as _, 0);
        sim.run();
        let instants: Vec<u64> = log.borrow().iter().map(|&(.., at)| at).collect();
        assert_eq!(instants, (0..=100).map(|i| i * 10).collect::<Vec<_>>());
        // One delivery from the FIFO, a hundred in place: no poll, no
        // timer entry.
        assert_eq!(
            sim.stats(),
            ExecutorStats {
                polls: 0,
                timers_fired: 0,
                spawned: 0,
                waker_wakes: 0,
                stepped: 100,
            }
        );
    }

    #[test]
    fn a_chained_event_tying_a_wake_sorts_by_seq() {
        // The wake is registered first: the chain's event, drawn later
        // for the same instant, cannot step past it and follows it.
        let mut sim = Simulation::new(0);
        let log = Log::default();
        sleeper(&mut sim, "task", 30, &log);
        sim.handle().post_event(chain(&sim, 30, 30, &log) as _, 0);
        sim.run();
        let order: Vec<_> = log.borrow().iter().map(|&(tag, _, at)| (tag, at)).collect();
        assert_eq!(order, [("chain", 0), ("task", 30), ("chain", 30)]);
        assert_eq!(sim.stats().stepped, 0);

        // The chain draws first (a runnable task keeps it from stepping),
        // the task's wake for the same instant after it.
        let mut sim = Simulation::new(0);
        let log = Log::default();
        sim.handle().post_event(chain(&sim, 30, 30, &log) as _, 0);
        sleeper(&mut sim, "task", 30, &log);
        sim.run();
        let order: Vec<_> = log.borrow().iter().map(|&(tag, _, at)| (tag, at)).collect();
        assert_eq!(order, [("chain", 0), ("chain", 30), ("task", 30)]);
        assert_eq!(sim.stats().stepped, 0);
    }

    #[test]
    fn a_resume_runs_before_the_rest_of_its_instant() {
        // At t=10 an event, then tasks a and b, all through the FIFO; the
        // event resumes the parked task c, which runs next, ahead of a
        // and b.
        struct Resume {
            h: SimHandle,
            ticket: Rc<RefCell<Option<Wakeup>>>,
            log: Log,
        }
        impl EventSink for Resume {
            fn fire(self: Rc<Self>, _: u64) {
                self.log
                    .borrow_mut()
                    .push(("event", 0, self.h.now().as_nanos()));
                let ticket = self.ticket.borrow_mut().take().expect("c is parked");
                self.h.resume(ticket);
            }
        }
        let mut sim = Simulation::new(0);
        let log = Log::default();
        let ticket = Rc::new(RefCell::new(None));
        let (h, park, l) = (sim.handle(), Rc::clone(&ticket), Rc::clone(&log));
        sim.spawn(async move {
            let parked = false;
            Park {
                h: h.clone(),
                ticket: park,
                parked,
            }
            .await;
            l.borrow_mut().push(("c", 0, h.now().as_nanos()));
        });
        sim.run();
        let sink = Rc::new(Resume {
            h: sim.handle(),
            ticket,
            log: Rc::clone(&log),
        });
        sim.handle()
            .schedule_event(SimTime::from_nanos(10), sink as _, 0);
        sleeper(&mut sim, "a", 10, &log);
        sleeper(&mut sim, "b", 10, &log);
        sim.run();
        let order: Vec<_> = log.borrow().iter().map(|&(tag, _, at)| (tag, at)).collect();
        assert_eq!(order, [("event", 10), ("c", 10), ("a", 10), ("b", 10)]);
    }

    #[test]
    fn run_until_never_steps_past_its_deadline() {
        let mut sim = Simulation::new(0);
        let log = Log::default();
        sim.handle().post_event(chain(&sim, 10, 100, &log) as _, 0);
        sim.run_until(SimTime::from_nanos(55));
        let last = log.borrow().last().map(|&(.., at)| at);
        assert_eq!(last, Some(50));
        assert_eq!(sim.now().as_nanos(), 55);
        // The step to 60 was refused: that event waits in the heap.
        assert_eq!((sim.stats().stepped, sim.stats().timers_fired), (5, 0));
        sim.run_until(SimTime::from_nanos(100));
        let instants: Vec<u64> = log.borrow().iter().map(|&(.., at)| at).collect();
        assert_eq!(instants, (0..=10).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!((sim.stats().stepped, sim.stats().timers_fired), (9, 1));
    }

    #[test]
    fn dropping_the_simulation_releases_a_held_sink() {
        let mut sim = Simulation::new(0);
        let log = Log::default();
        let sink = chain(&sim, 10, 1_000, &log);
        sim.handle().post_event(Rc::clone(&sink) as _, 0);
        sim.run_until(SimTime::from_nanos(35));
        assert_eq!(Rc::strong_count(&sink), 2, "its next event holds it");
        drop(sim);
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
