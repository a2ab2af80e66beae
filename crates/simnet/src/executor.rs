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
//! A sink running a chain of self-scheduled steps (the server's ring
//! sweep) files them as a [`ChainSink`]: only the first step that can
//! stop the chain is certain to be an event. The steps before it are
//! *lazy* — taken by the sink itself, without an event, unless a real
//! entry fires at one of their instants, in which case that step is
//! delivered as an event with the place in the order its own event
//! would have had (DESIGN.md "Lazy looks").
//!
//! A source whose events come due in the order it files them (a FIFO
//! engine's completions, a wire of one length) files them in a
//! [`Lane`]: the timer heap holds only the lane's head, so delivery is
//! a merge of sorted runs and each entry fires exactly where a plain
//! event would have (DESIGN.md "Lanes").
//!
//! A task is woken one of two ways (DESIGN.md "Wake paths"). A
//! [`Sleep`] or a NIC completion parks through a [`Wakeup`] ticket that
//! names the task by slot id: firing it is a `VecDeque` push, with no
//! lock, atomic or reference count. Everything else goes through the
//! task's [`Waker`], which must be `Send + Sync` and so files the id on
//! a locked side queue, folded into the ready FIFO in call order.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
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

/// A FIFO of events whose instants never decrease
/// ([`SimHandle::lane`], [`SimHandle::schedule_in`]).
#[derive(Copy, Clone, Debug)]
pub struct Lane(usize);

/// What an entry of the events heap delivers.
enum Fire {
    Event(Event),
    /// The head of this lane, whose key the entry holds.
    Lane(usize),
}

/// An event sink working through a chain of steps on a lattice of
/// instants ([`SimHandle::schedule_chained`]), most of which change
/// nothing another entry can observe — a ring sweep's looks that find
/// nothing. The chain files its next step and the first step that can
/// stop it; the steps in between are taken by [`settle`](Self::settle),
/// without an event, unless a real entry fires at one of their
/// instants: then that step is delivered by `fire`, at the place in the
/// order its own event would have had.
pub trait ChainSink: EventSink {
    /// Takes, without an event, every step of the chain due strictly
    /// before `before`, and returns the instant of the last one taken
    /// and of the next (at or after `before`, and never past the filed
    /// stop). Called by the executor before anything at or after those
    /// instants runs; it must schedule nothing.
    fn settle(&self, token: u64, before: SimTime) -> (SimTime, SimTime);
}

/// A plan made ahead of the clock from state that can change under it
/// — a [`ChainSink`]'s walk to its stop over the memory it polls and
/// the faults of its machine — told when that state changes.
pub trait Replan {
    /// What the plan read has changed: re-plan from the next step,
    /// whose instant and place in the order stay, and refile the stop
    /// ([`SimHandle::restop_chained`]).
    fn replan(&self);
}

/// The pending steps of one chain ([`SimHandle::schedule_chained`]).
struct Chain {
    sink: Rc<dyn ChainSink>,
    token: u64,
    /// The instant of the chain's next step.
    at: SimTime,
    /// The next step's place among the entries of its instant: before
    /// every timer entry whose `seq` is at least this one, and among
    /// chains tied on `seq`, by `prev`, then by `tie`. A step filed
    /// during a real delivery holds the `seq` it drew there; one after
    /// a lazy step holds the first `seq` not drawn when the clock passed
    /// that step. `prev` is the instant of the step before it (or of
    /// the filing), and `tie` the `seq` drawn at the chain's last filing.
    seq: u64,
    prev: SimTime,
    tie: u64,
    /// The first step that can stop the chain: delivered as an event
    /// whatever else shares its instant. Steps before it are lazy.
    stop: SimTime,
}

impl Chain {
    fn is(&self, sink: *const ()) -> bool {
        std::ptr::eq(Rc::as_ptr(&self.sink).cast::<()>(), sink)
    }
}

/// The pending chains: as many as sweeping threads, so a list, with the
/// earliest next step and the earliest stop kept.
#[derive(Default)]
struct Chains {
    list: Vec<Chain>,
    /// The instant of the earliest next step.
    next: Option<SimTime>,
    /// The earliest stop: the one instant the chains set.
    first_stop: Option<SimTime>,
}

impl Chains {
    /// Recomputes `next` and `first_stop` after the list changed.
    fn refresh(&mut self) {
        self.next = self.list.iter().map(|c| c.at).min();
        self.first_stop = self.list.iter().map(|c| c.stop).min();
    }

    /// Index of the first chain whose next step is due at `at`.
    fn due(&self, at: SimTime) -> Option<usize> {
        if self.next != Some(at) {
            return None;
        }
        let due = self.list.iter().enumerate().filter(|(_, c)| c.at == at);
        due.min_by_key(|(_, c)| (c.seq, c.prev, c.tie))
            .map(|(i, _)| i)
    }

    /// Takes chain `i`'s next step out, to be delivered.
    fn take(&mut self, i: usize) -> Chain {
        let chain = self.list.swap_remove(i);
        self.refresh();
        chain
    }

    fn find(&mut self, sink: *const ()) -> Option<&mut Chain> {
        self.list.iter_mut().find(|c| c.is(sink))
    }

    /// Files `chain`, replacing whatever its sink had pending.
    fn file(&mut self, chain: Chain) {
        match self.find(Rc::as_ptr(&chain.sink).cast::<()>()) {
            Some(pending) => *pending = chain,
            None => self.list.push(chain),
        }
        self.refresh();
    }
}

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

    /// The same entry, delivering `f(fire)`.
    fn map<G>(self, f: impl FnOnce(F) -> G) -> TimerEntry<G> {
        let TimerEntry { at, seq, fire } = self;
        TimerEntry {
            at,
            seq,
            fire: f(fire),
        }
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
/// events share the one `seq` order but not one heap, each kept small
/// for its own traffic: an event entry is larger than a wake target,
/// and sifting the wider entries would tax every plain sleep. A lane
/// keeps its entries in `(at, seq)` order behind one `events` entry
/// keyed by its head. Chains hold one next step each, whose key the
/// executor moves as it settles lazy steps.
#[derive(Default)]
struct Timers {
    wakes: TimerHeap<Target>,
    events: TimerHeap<Fire>,
    lanes: Vec<VecDeque<TimerEntry<Event>>>,
    chains: Chains,
}

impl Timers {
    /// Sequence number of `heap`'s earliest entry, if it fires at `at`.
    fn due<F>(heap: &TimerHeap<F>, at: SimTime) -> Option<u64> {
        heap.peek()
            .filter(|Reverse(e)| e.at == at)
            .map(|Reverse(e)| e.seq)
    }

    /// Takes out the earliest entry of `events`: a plain event, or the
    /// head of a lane, whose entry moves on to the lane's next head.
    fn pop_event(&mut self) -> Event {
        let mut top = self.events.peek_mut().expect("peeked entry exists");
        let Fire::Lane(i) = top.0.fire else {
            match PeekMut::pop(top).0.fire {
                Fire::Event(event) => return event,
                Fire::Lane(_) => unreachable!("matched above"),
            }
        };
        let lane = &mut self.lanes[i];
        let head = lane.pop_front().expect("a filed lane has a head");
        match lane.front() {
            Some(next) => (top.0.at, top.0.seq) = (next.at, next.seq),
            None => drop(PeekMut::pop(top)),
        }
        head.fire
    }

    /// The instant of the earliest pending timer or chain stop: lazy
    /// steps set no instant of their own.
    fn next_at(&self) -> Option<SimTime> {
        let wake = self.wakes.peek().map(|Reverse(e)| e.at);
        let event = self.events.peek().map(|Reverse(e)| e.at);
        earliest(earliest(wake, event), self.chains.first_stop)
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
    /// Timer entries fired — task wakes, typed events and chain steps
    /// delivered as events alike. A lazy chain step taken by
    /// [`ChainSink::settle`] is no event and is not counted.
    pub timers_fired: u64,
    /// Futures handed to `spawn`.
    pub spawned: u64,
    /// Task wakes that arrived through a [`Waker`] — the locked path —
    /// rather than by slot id.
    pub waker_wakes: u64,
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

    /// Has every chain take its lazy steps due before `before`. Nothing
    /// real happened since the clock passed them, so the steps they
    /// move onto take the next `seq` as their place in the order.
    fn settle(&self, before: SimTime) {
        let seq = self.seq.get();
        let chains = &mut self.timers.borrow_mut().chains;
        if chains.next.is_none_or(|next| next >= before) {
            return;
        }
        let mut next = SimTime::MAX;
        for chain in &mut chains.list {
            if chain.at < before {
                (chain.prev, chain.at) = chain.sink.settle(chain.token, before);
                chain.seq = seq;
                assert!(
                    before <= chain.at && chain.at <= chain.stop,
                    "a settled chain moves onto its next step, not past its stop"
                );
            }
            next = next.min(chain.at);
        }
        chains.next = Some(next);
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
        let next = self.core.timers.borrow().next_at();
        let Some(at) = next.filter(|&at| at <= deadline) else {
            return false;
        };
        assert!(at >= self.core.now(), "the clock never runs backwards");
        self.core.now.set(at);
        // The lazy steps before `at` are taken; one at `at` shares its
        // instant with a real entry and is delivered as an event.
        self.core.settle(at);
        let mut timers = self.core.timers.borrow_mut();
        let mut fired = 0;
        loop {
            let wake = Timers::due(&timers.wakes, at);
            let event = Timers::due(&timers.events, at);
            let chain = timers.chains.due(at);
            let real = earliest(wake, event);
            if chain.is_none() && real.is_none() {
                break;
            }
            fired += 1;
            // Nothing else fires at this instant (the common case at
            // nanosecond resolution) and, `drain_runnable` having
            // returned, nothing is runnable or awaits admission: with
            // nothing to order the entry against, it is delivered
            // without a round trip through the ready FIFO.
            let heads = wake.is_some() as u8 + event.is_some() as u8 + chain.is_some() as u8;
            let alone = fired == 1 && heads == 1;
            // A chain step goes before every entry drawn at or after
            // the `seq` it holds.
            if let Some(i) = chain.filter(|&i| real.is_none_or(|s| timers.chains.list[i].seq <= s))
            {
                let Chain { sink, token, .. } = timers.chains.take(i);
                if alone && timers.chains.due(at).is_none() {
                    drop(timers);
                    sink.fire(token);
                    break;
                }
                self.core.make_ready((sink as Rc<dyn EventSink>, token));
            } else if wake == real {
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
                let (sink, token) = timers.pop_event();
                if alone && Timers::due(&timers.events, at).is_none() {
                    drop(timers);
                    sink.fire(token);
                    break;
                }
                self.core.make_ready((sink, token));
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

    /// Processes every event due by `deadline`, and has every chain take
    /// its lazy steps due by it, before anything can read what they did.
    fn run_to(&mut self, deadline: SimTime) {
        self.drain_runnable();
        while self.advance(deadline) {
            self.drain_runnable();
        }
        if let Some(after) = deadline.as_nanos().checked_add(1) {
            self.core.settle(SimTime::from_nanos(after));
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
        let Reverse(entry) = self.core.entry(at, (sink, token));
        let entry = Reverse(entry.map(Fire::Event));
        self.core.timers.borrow_mut().events.push(entry);
    }

    /// A new, empty lane of this simulation.
    pub fn lane(&self) -> Lane {
        let lanes = &mut self.core.timers.borrow_mut().lanes;
        lanes.push(VecDeque::new());
        Lane(lanes.len() - 1)
    }

    /// [`schedule_event`](Self::schedule_event) through `lane`: the
    /// same instant and place in the order, but while the lane's
    /// instants never decrease only its head sits in the timer heap.
    /// An event due before the lane's tail is filed as a plain one.
    pub fn schedule_in(&self, lane: Lane, at: SimTime, sink: Rc<dyn EventSink>, token: u64) {
        let Reverse(entry) = self.core.entry(at, (sink, token));
        let timers = &mut *self.core.timers.borrow_mut();
        let queue = &mut timers.lanes[lane.0];
        match queue.back().map(|tail| at < tail.at) {
            // Behind its tail, the lane would no longer be sorted.
            Some(true) => timers.events.push(Reverse(entry.map(Fire::Event))),
            Some(false) => queue.push_back(entry),
            None => {
                let head = TimerEntry {
                    at,
                    seq: entry.seq,
                    fire: Fire::Lane(lane.0),
                };
                queue.push_back(entry);
                timers.events.push(Reverse(head));
            }
        }
    }

    /// Files the next step of `sink`'s chain at `at`, drawing its place
    /// in the order now — exactly where `schedule_event` would put an
    /// event — and `stop`, the first step that can stop the chain: an
    /// event whatever shares its instant. Each step before `stop` is
    /// taken by [`ChainSink::settle`] unless a real entry fires at its
    /// instant, when it is delivered as an event instead, at the place
    /// its own event would have had: as if scheduled at the step before
    /// it. Whatever `sink` had pending is replaced.
    pub fn schedule_chained(
        &self,
        at: SimTime,
        stop: SimTime,
        sink: Rc<dyn ChainSink>,
        token: u64,
    ) {
        assert!(at >= self.core.now(), "cannot schedule in the past");
        assert!(stop >= at, "a chain stops at or after its next step");
        let seq = self.core.seq.get();
        self.core.seq.set(seq + 1);
        self.core.timers.borrow_mut().chains.file(Chain {
            sink,
            token,
            at,
            seq,
            prev: self.core.now(),
            tie: seq,
            stop,
        });
    }

    /// Moves the stop of `sink`'s pending chain to `stop` (at or after
    /// its next step, whose instant and place stay): the sink re-planned
    /// ([`Replan::replan`]).
    ///
    /// # Panics
    ///
    /// Panics if `sink` has no chain pending.
    pub fn restop_chained<S: ChainSink>(&self, sink: &S, stop: SimTime) {
        let sink = std::ptr::from_ref(sink).cast::<()>();
        let chains = &mut self.core.timers.borrow_mut().chains;
        let chain = chains.find(sink).expect("a chain is pending");
        assert!(stop >= chain.at, "a chain stops at or after its next step");
        chain.stop = stop;
        chains.refresh();
    }

    /// Drops `sink`'s pending chain, if any.
    pub fn cancel_chained<S: ChainSink>(&self, sink: &S) {
        let sink = std::ptr::from_ref(sink).cast::<()>();
        let chains = &mut self.core.timers.borrow_mut().chains;
        chains.list.retain(|c| !c.is(sink));
        chains.refresh();
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
    use rand::Rng;
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
        // A lane's head and an event parked behind it.
        let lane = h.lane();
        h.schedule_in(lane, SimTime::from_nanos(60), Rc::clone(&sink) as _, 2);
        h.schedule_in(lane, SimTime::from_nanos(70), Rc::clone(&sink) as _, 3);
        sim.run_until(SimTime::from_nanos(10));
        assert_eq!(sink.log.borrow().len(), 1, "the posted event ran");
        assert_eq!(
            Rc::strong_count(&sink),
            4,
            "pending events keep their sink alive"
        );
        drop(sim);
        // The sink holds a handle into the core; the core must not hold
        // the sink in turn once its owner is gone.
        assert_eq!(Rc::strong_count(&sink), 1);
    }

    #[test]
    fn an_entry_filed_before_its_lanes_tail_fires_at_its_own_key() {
        let mut sim = Simulation::new(0);
        let log = Log::default();
        let sink = Rc::new(LogSink {
            tag: "event",
            h: sim.handle(),
            log: Rc::clone(&log),
        });
        let h = sim.handle();
        let lane = h.lane();
        let file = |at: u64, token: u64, lane: Option<Lane>| {
            let (at, sink) = (SimTime::from_nanos(at), Rc::clone(&sink) as _);
            match lane {
                Some(lane) => h.schedule_in(lane, at, sink, token),
                None => h.schedule_event(at, sink, token),
            }
        };
        file(100, 1, Some(lane));
        file(75, 2, None);
        // Before the tail at 100: filed as a plain event, ahead of it.
        file(50, 3, Some(lane));
        file(100, 4, Some(lane));
        file(50, 5, None);
        sim.run();
        let fired: Vec<_> = log.borrow().iter().map(|&(_, t, at)| (t, at)).collect();
        assert_eq!(fired, [(3, 50), (5, 50), (2, 75), (1, 100), (4, 100)]);
        assert_eq!(sim.stats().timers_fired, 5);
    }

    /// Files a random mix of follow-ups each time it fires: FIFO
    /// completions on two "engines", legs on a "wire" of one length
    /// (some lagged out of order), plain events and letters for a
    /// looker — through lanes, or all as plain events.
    struct Mixer {
        h: SimHandle,
        through_lanes: bool,
        /// Two engines and one wire.
        lanes: [Lane; 3],
        /// Each engine's next free instant, and the wire's last leg.
        free: [Cell<u64>; 2],
        wire_tail: Cell<u64>,
        /// Legs filed behind the wire's tail.
        behind: Cell<u64>,
        rng: RefCell<StdRng>,
        next_token: Cell<u64>,
        looker: Rc<Looker>,
        log: Log,
    }

    impl Mixer {
        fn file(self: &Rc<Self>, at: u64, lane: Option<usize>) {
            if lane == Some(2) {
                self.behind
                    .set(self.behind.get() + u64::from(at < self.wire_tail.get()));
                self.wire_tail.set(self.wire_tail.get().max(at));
            }
            let token = self.next_token.get();
            self.next_token.set(token + 1);
            let (at, sink) = (SimTime::from_nanos(at), Rc::clone(self) as _);
            match lane.filter(|_| self.through_lanes) {
                Some(i) => self.h.schedule_in(self.lanes[i], at, sink, token),
                None => self.h.schedule_event(at, sink, token),
            }
        }

        /// Files one random follow-up.
        fn follow_up(self: &Rc<Self>) {
            let now = self.h.now().as_nanos();
            let draw = self.rng.borrow_mut().gen::<u64>();
            let step = 10 * (draw % 6);
            match (draw >> 8) % 8 {
                i @ (0 | 1) => {
                    let free = &self.free[i as usize];
                    free.set(free.get().max(now) + step);
                    self.file(free.get(), Some(i as usize));
                }
                2..=4 => self.file(now + 40, Some(2)),
                5 => self.file(now + 40 + step, Some(2)),
                6 => self.file(now + step, None),
                _ => {
                    self.looker.mail.borrow_mut().push_back(1_000 + now);
                    self.looker.replan();
                }
            }
        }
    }

    impl EventSink for Mixer {
        fn fire(self: Rc<Self>, token: u64) {
            let now = self.h.now().as_nanos();
            let looks = self.looker.looks.get();
            self.log.borrow_mut().push(("mix", token, now));
            self.log.borrow_mut().push(("looks", looks, now));
            if now < 3_000 {
                let n = self.rng.borrow_mut().gen_range(1..=2u64);
                (0..n).for_each(|_| self.follow_up());
            }
        }
    }

    #[test]
    fn a_random_schedule_fires_the_same_through_lanes_as_through_the_heap() {
        let run = |through_lanes| {
            let mut sim = Simulation::new(0);
            let log = Log::default();
            let looker = Rc::new(Looker {
                tag: "look",
                h: sim.handle(),
                period: 50,
                until: 4_000,
                lazy: true,
                mail: Mail::default(),
                log: Rc::clone(&log),
                looks: Cell::new(0),
                busy: Cell::new(0),
                head: Cell::new(None),
            });
            let h = sim.handle();
            let mixer = Rc::new(Mixer {
                h: h.clone(),
                through_lanes,
                lanes: [h.lane(), h.lane(), h.lane()],
                free: Default::default(),
                wire_tail: Cell::new(0),
                behind: Cell::new(0),
                rng: RefCell::new(StdRng::seed_from_u64(7)),
                next_token: Cell::new(0),
                looker: Rc::clone(&looker),
                log: Rc::clone(&log),
            });
            looker.start();
            for tag in ["s0", "s1", "s2"] {
                let (h, log) = (sim.handle(), Rc::clone(&log));
                let spans = [30, 50, 20, 40].into_iter().cycle();
                sim.spawn(async move {
                    for span in spans.take(60) {
                        h.sleep(SimSpan::nanos(span)).await;
                        log.borrow_mut().push((tag, 0, h.now().as_nanos()));
                    }
                });
            }
            for _ in 0..8 {
                mixer.follow_up();
            }
            sim.run();
            (log.take(), sim.stats(), mixer.behind.get())
        };
        let (heap, heap_stats, _) = run(false);
        let (lanes, lane_stats, behind) = run(true);
        assert_eq!(lanes, heap, "fire order");
        assert_eq!(lane_stats, heap_stats);
        assert!(behind > 0, "a lagged leg left the wire out of order");
        // The mix ties lane heads, plain events, wakes and looks.
        let at = |tag: &'static str| heap.iter().filter(move |e| e.0 == tag).map(|e| e.2);
        let mixed: std::collections::HashSet<_> = at("mix").collect();
        assert!(
            at("look").any(|t| mixed.contains(&t)),
            "a look ties an event"
        );
        assert!(at("s0").any(|t| mixed.contains(&t)), "a wake ties an event");
        assert!(heap.len() > 500, "{} entries", heap.len());
    }

    /// A test chain on a lattice: a look every `period` from its start
    /// through `until` at a shared mailbox, each look booking `period`
    /// of CPU for the next. A look that finds letters takes one and
    /// logs it. Lazy, it files its next look and the first that can
    /// stop it — the next, if a letter waits, else its last — and the
    /// misses in between are settled; eager, every look is its own stop:
    /// one event per look, the reference.
    struct Looker {
        tag: &'static str,
        h: SimHandle,
        period: u64,
        until: u64,
        lazy: bool,
        mail: Mail,
        log: Log,
        /// Looks made and CPU time booked, however they were made.
        looks: Cell<u64>,
        busy: Cell<u64>,
        head: Cell<Option<SimTime>>,
    }

    type Mail = Rc<RefCell<VecDeque<u64>>>;

    impl Looker {
        /// Books the first look's CPU and files it, `period` from now.
        fn start(self: &Rc<Self>) {
            self.book(self.h.now());
        }

        /// Books the CPU of the look after the one at `at` and files it,
        /// unless the chain ends at `at`.
        fn book(self: &Rc<Self>, at: SimTime) {
            let next = at + SimSpan::nanos(self.period);
            if next.as_nanos() > self.until {
                self.head.set(None);
                return;
            }
            self.busy.set(self.busy.get() + self.period);
            self.head.set(Some(next));
            let stop = self.ahead(next);
            self.h.schedule_chained(next, stop, Rc::clone(self) as _, 0);
        }

        /// The first look from the one at `at` that can stop the chain.
        fn ahead(&self, at: SimTime) -> SimTime {
            if !self.lazy || !self.mail.borrow().is_empty() {
                return at;
            }
            let left = (self.until - at.as_nanos()) / self.period;
            at + SimSpan::nanos(left * self.period)
        }
    }

    impl EventSink for Looker {
        fn fire(self: Rc<Self>, _: u64) {
            let now = self.h.now();
            assert_eq!(self.head.get(), Some(now), "a look fires at its instant");
            self.looks.set(self.looks.get() + 1);
            if let Some(letter) = self.mail.borrow_mut().pop_front() {
                self.log
                    .borrow_mut()
                    .push((self.tag, letter, now.as_nanos()));
            }
            self.book(now);
        }
    }

    impl ChainSink for Looker {
        fn settle(&self, _: u64, before: SimTime) -> (SimTime, SimTime) {
            let mut at = self.head.get().expect("a look is filed");
            let mut last = at;
            while at < before {
                assert!(self.mail.borrow().is_empty(), "a lazy look missed");
                self.looks.set(self.looks.get() + 1);
                self.busy.set(self.busy.get() + self.period);
                last = at;
                at += SimSpan::nanos(self.period);
            }
            self.head.set(Some(at));
            (last, at)
        }
    }

    impl Replan for Looker {
        fn replan(&self) {
            match self.head.get() {
                Some(head) if head > self.h.now() => {
                    self.h.restop_chained(self, self.ahead(head));
                }
                // Due now, or done: a look reads the mail when it fires.
                _ => {}
            }
        }
    }

    /// Drops a letter in the mailbox when it fires and tells the
    /// lookers, as a NIC write into a swept ring does.
    struct Post {
        h: SimHandle,
        mail: Mail,
        lookers: Vec<Rc<Looker>>,
        log: Log,
    }

    impl EventSink for Post {
        fn fire(self: Rc<Self>, letter: u64) {
            self.mail.borrow_mut().push_back(letter);
            let now = self.h.now().as_nanos();
            self.log.borrow_mut().push(("post", letter, now));
            for looker in &self.lookers {
                looker.replan();
            }
        }
    }

    /// Logs the lookers' books when it fires: what an observer sharing
    /// an instant with lazy looks reads.
    struct Audit(Vec<Rc<Looker>>);

    impl EventSink for Audit {
        fn fire(self: Rc<Self>, _: u64) {
            for looker in &self.0 {
                let now = looker.h.now().as_nanos();
                let mut log = looker.log.borrow_mut();
                log.push(("looks", looker.looks.get(), now));
                log.push(("busy", looker.busy.get(), now));
            }
        }
    }

    /// What a scenario logged, and each looker's looks and busy time.
    type Outcome = (Vec<(&'static str, u64, u64)>, Vec<(u64, u64)>);

    /// One run of a chain scenario, eager or lazy.
    struct Scene {
        sim: Simulation,
        lookers: Vec<Rc<Looker>>,
        post: Rc<Post>,
        audit: Rc<Audit>,
        log: Log,
    }

    impl Scene {
        /// Lookers tagged `tags`, each looking every 50 ns through
        /// `until` once started.
        fn new(lazy: bool, tags: &[&'static str], until: u64) -> Scene {
            let lookers: Vec<_> = tags.iter().map(|&tag| (tag, 50)).collect();
            Scene::with_periods(lazy, &lookers, until)
        }

        /// Lookers tagged and looking every so many ns as `lookers`
        /// says, through `until` once started.
        fn with_periods(lazy: bool, lookers: &[(&'static str, u64)], until: u64) -> Scene {
            let sim = Simulation::new(0);
            let (log, mail) = (Log::default(), Mail::default());
            let lookers: Vec<_> = lookers
                .iter()
                .map(|&(tag, period)| {
                    Rc::new(Looker {
                        tag,
                        h: sim.handle(),
                        period,
                        until,
                        lazy,
                        mail: Rc::clone(&mail),
                        log: Rc::clone(&log),
                        looks: Cell::new(0),
                        busy: Cell::new(0),
                        head: Cell::new(None),
                    })
                })
                .collect();
            let post = Rc::new(Post {
                h: sim.handle(),
                mail,
                lookers: lookers.clone(),
                log: Rc::clone(&log),
            });
            let audit = Rc::new(Audit(lookers.clone()));
            Scene {
                sim,
                lookers,
                post,
                audit,
                log,
            }
        }

        /// Posts `letter` at `at`, scheduled now.
        fn post(&self, at: u64, letter: u64) {
            let sink = Rc::clone(&self.post) as _;
            self.sim
                .handle()
                .schedule_event(SimTime::from_nanos(at), sink, letter);
        }

        /// Audits the books at `at`, scheduled now.
        fn audit(&self, at: u64) {
            let sink = Rc::clone(&self.audit) as _;
            self.sim
                .handle()
                .schedule_event(SimTime::from_nanos(at), sink, 0);
        }

        /// What was logged and where the books and the counts stand.
        fn outcome(&self) -> Outcome {
            let books = self.lookers.iter();
            let books = books.map(|l| (l.looks.get(), l.busy.get())).collect();
            (self.log.borrow().clone(), books)
        }
    }

    /// Runs `scene` eagerly and lazily: same log, same books; the lazy
    /// run fires fewer timers. Returns the log.
    fn both_ways(
        tags: &[&'static str],
        until: u64,
        scene: impl Fn(&mut Scene),
    ) -> Vec<(&'static str, u64, u64)> {
        let lookers: Vec<_> = tags.iter().map(|&tag| (tag, 50)).collect();
        both_ways_with_periods(&lookers, until, scene)
    }

    /// [`both_ways`] with a period per looker.
    fn both_ways_with_periods(
        lookers: &[(&'static str, u64)],
        until: u64,
        scene: impl Fn(&mut Scene),
    ) -> Vec<(&'static str, u64, u64)> {
        let run = |lazy| {
            let mut s = Scene::with_periods(lazy, lookers, until);
            scene(&mut s);
            (s.outcome(), s.sim.stats())
        };
        let ((eager, eager_books), eager_stats) = run(false);
        let ((lazy, lazy_books), lazy_stats) = run(true);
        assert_eq!(lazy, eager, "fire order and readings");
        assert_eq!(lazy_books, eager_books, "looks and busy time");
        assert!(lazy_stats.timers_fired < eager_stats.timers_fired);
        eager
    }

    #[test]
    fn a_landing_scheduled_before_the_chain_began_is_seen_at_its_look() {
        // Scheduled at 0 before the chain draws its first look: at 150
        // it goes before the look drawn at 100, which finds the letter.
        let log = both_ways(&["a"], 400, |s| {
            s.post(150, 7);
            s.lookers[0].start();
            s.audit(175);
            s.sim.run();
        });
        assert_eq!(log[..2], [("post", 7, 150), ("a", 7, 150)]);
        assert_eq!(log[2..], [("looks", 3, 175), ("busy", 200, 175)]);
    }

    #[test]
    fn a_landing_scheduled_after_the_chain_began_is_seen_by_the_look_drawn_after_it() {
        // Scheduled at 0 after the first look was drawn, letter 1 still
        // goes before the look at 150 (drawn at 100); letter 2, scheduled
        // at 120, goes after it, and the look at 200 finds it.
        let log = both_ways(&["a"], 400, |s| {
            s.lookers[0].start();
            s.post(150, 1);
            s.sim.run_until(SimTime::from_nanos(120));
            s.post(150, 2);
            s.sim.run();
        });
        assert_eq!(
            log,
            [
                ("post", 1, 150),
                ("a", 1, 150),
                ("post", 2, 150),
                ("a", 2, 200)
            ]
        );
    }

    #[test]
    fn a_write_between_lattice_points_replans_the_chain() {
        let log = both_ways(&["a"], 1_000, |s| {
            s.lookers[0].start();
            s.post(125, 3);
            s.audit(125);
            s.sim.run();
        });
        assert_eq!(
            log,
            [
                ("post", 3, 125),
                ("looks", 2, 125),
                ("busy", 150, 125),
                ("a", 3, 150)
            ]
        );
    }

    #[test]
    fn run_until_never_steps_past_its_deadline() {
        let readings = |lazy| {
            let mut s = Scene::new(lazy, &["a"], 1_000);
            s.lookers[0].start();
            let mut books = Vec::new();
            for deadline in [175, 200, 201, 601] {
                s.sim.run_until(SimTime::from_nanos(deadline));
                books.push(s.outcome().1[0]);
            }
            s.post(650, 9);
            s.sim.run();
            (books, s.outcome())
        };
        let (books, outcome) = readings(true);
        // Looks at 50, 100, 150 by 175; the look at 200 and the charge
        // it books for 250 by 200; nothing new by 201.
        assert_eq!(books[..3], [(3, 200), (4, 250), (4, 250)]);
        assert_eq!((books, outcome), readings(false));
    }

    #[test]
    fn chains_tied_on_every_lattice_point_keep_the_order_of_their_last_real_looks() {
        // a drew first, so a looks first at every shared instant; a's
        // hit at 150 and b's look there are real, and keep that order.
        let log = both_ways(&["a", "b"], 1_000, |s| {
            s.lookers[0].start();
            s.lookers[1].start();
            s.post(137, 1);
            s.post(262, 2);
            s.post(263, 3);
            s.sim.run();
        });
        let hits: Vec<_> = log.iter().filter(|&&(tag, ..)| tag != "post").collect();
        assert_eq!(hits, [&("a", 1, 150), &("a", 2, 300), &("b", 3, 300)]);
    }

    #[test]
    fn chains_of_different_periods_landing_together_keep_the_order_of_their_previous_looks() {
        // a looks every 30 ns and draws first, b every 50 ns. At 150,
        // where the letter lands, b's look was drawn at 100 and a's at
        // 120, so b's look goes first and takes it. At 300 the audit and
        // letter 2, drawn at 200, go before both looks (a's drawn at
        // 270, b's at 250); b's goes first again.
        let log = both_ways_with_periods(&[("a", 30), ("b", 50)], 1_000, |s| {
            s.post(150, 1);
            s.lookers[0].start();
            s.lookers[1].start();
            s.sim.run_until(SimTime::from_nanos(200));
            s.post(300, 2);
            s.audit(300);
            s.sim.run();
        });
        let hits: Vec<_> = log.iter().filter(|&&(tag, ..)| tag != "post").collect();
        assert_eq!(
            hits,
            [
                &("b", 1, 150),
                &("looks", 9, 300),
                &("busy", 300, 300),
                &("looks", 5, 300),
                &("busy", 300, 300),
                &("b", 2, 300)
            ]
        );
    }

    #[test]
    fn a_chain_alone_in_time_steps_in_place() {
        let run = |lazy| {
            let mut s = Scene::new(lazy, &["a"], 5_000);
            s.lookers[0].start();
            s.sim.run();
            (s.outcome().1[0], s.sim.stats().timers_fired)
        };
        assert_eq!(run(false), ((100, 5_000), 100));
        assert_eq!(run(true), ((100, 5_000), 1));
    }

    /// Sleeps until `at`, then logs `tag`.
    fn sleeper(sim: &mut Simulation, tag: &'static str, at: u64, log: &Log) {
        let (h, log) = (sim.handle(), Rc::clone(log));
        sim.spawn(async move {
            h.sleep_until(SimTime::from_nanos(at)).await;
            log.borrow_mut().push((tag, 0, h.now().as_nanos()));
        });
    }

    /// Spawns a task that sleeps until `at`, then posts `letter` itself.
    fn poster(s: &mut Scene, at: u64, letter: u64) {
        let (h, post) = (s.sim.handle(), Rc::clone(&s.post));
        s.sim.spawn(async move {
            h.sleep_until(SimTime::from_nanos(at)).await;
            post.fire(letter);
        });
    }

    #[test]
    fn a_chained_event_tying_a_wake_sorts_by_seq() {
        for lazy in [false, true] {
            // The wake is registered first: the look, drawn later for
            // the same instant, follows the task and finds its letter.
            let mut s = Scene::new(lazy, &["a"], 100);
            poster(&mut s, 50, 1);
            s.sim.run_until(SimTime::ZERO);
            s.lookers[0].start();
            s.sim.run();
            assert_eq!(*s.log.borrow(), [("post", 1, 50), ("a", 1, 50)]);

            // The look draws first and misses; the next one finds it.
            let mut s = Scene::new(lazy, &["a"], 100);
            s.lookers[0].start();
            poster(&mut s, 50, 1);
            s.sim.run();
            assert_eq!(*s.log.borrow(), [("post", 1, 50), ("a", 1, 100)]);
        }
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
    fn dropping_the_simulation_releases_a_held_sink() {
        let mut s = Scene::new(true, &["a"], 1_000);
        s.lookers[0].start();
        s.sim.run_until(SimTime::from_nanos(35));
        let looker = Rc::clone(&s.lookers[0]);
        // The scene holds it thrice, its pending chain once.
        assert_eq!(Rc::strong_count(&looker), 5);
        drop(s);
        assert_eq!(Rc::strong_count(&looker), 1);
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
