//! The per-QP work-request engine.
//!
//! A verb is a plain-data work request ([`WorkRequest`]) in a
//! generation-stamped slab on its [`Qp`]. Each hop of its way through
//! the fabric — out-bound service, the wire, in-bound service, the
//! return leg — ends in one typed timer event on the executor; the
//! handler ([`Qp::step`]) advances the request and names the next hop,
//! and the last hop fires the caller's completion. No task, box or
//! reference-counted cell exists per operation, and every fault
//! decision is taken here, once, for the synchronous and the posted
//! verbs alike. Where each hop runs among the other work of its instant
//! is part of the model: DESIGN.md "NIC engine" states the two ordering
//! rules.
//!
//! Four kinds of hop come due in the order they are filed, and wait in
//! a [`Lane`] so that only each lane's head sits in the executor's
//! timer heap: an engine's service completions (`Out`, `In`), in that
//! engine's lane, and the wire legs (`Arrive`, `Return`), in one of the
//! fabric's two delay lines ([`WireLanes`]). A leg due before its
//! line's tail (a slow-link fault lags each leg by its own draw) is
//! filed as a plain event. The issue hop (`Start`), the NACK leg,
//! retransmission rounds and every task wake are plain events
//! (DESIGN.md "Lanes").

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rfp_simnet::{EventSink, Lane, SimHandle, SimTime, SlabKey, Wakeup};

use crate::fault::VerbError;
use crate::machine::ThreadCtx;
use crate::mem::MemRegion;
use crate::nic::Cost;
use crate::qp::{Qp, Transport};

/// Hardware retransmission rounds before an RC op stops retrying (real
/// RNICs raise a retry-exceeded error rather than resending forever).
const MAX_RETRANSMITS: u32 = 8;

/// What a work request moves.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) enum Op {
    Read,
    Write,
    #[default]
    Send,
}

/// The two ends of a one-sided op.
struct Sides {
    local: Rc<MemRegion>,
    local_off: usize,
    remote: Rc<MemRegion>,
    remote_off: usize,
}

/// The hop a request takes next.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
enum Stage {
    /// Enter the out-bound engine.
    #[default]
    Start,
    /// Out-bound service done: the op leaves the NIC.
    Out,
    /// An RC retransmission round trip done — the n-th, under the
    /// loss-burst probability sampled when the op first left the NIC.
    Resent(u32, f64),
    /// Detached tail of a synchronous unreliable verb: start the wire
    /// leg that ends at the given instant.
    Launch(SimTime),
    /// Forward wire leg done: the op reaches the remote NIC.
    Arrive,
    /// The NACK for a dead or re-keyed peer reaches the initiator.
    Nack(VerbError),
    /// In-bound service done: bytes are sampled / land.
    In,
    /// Return wire leg done: data or ACK reaches the initiator.
    Return,
}

/// A fabric's wire delay lines, one per healthy leg length: legs of
/// one length come due in the order they leave.
#[derive(Copy, Clone)]
pub(crate) struct WireLanes {
    /// Legs of one propagation delay: an op on its way out, an ACK on
    /// its way back.
    prop: Lane,
    /// READ data: propagation plus the READ turnaround.
    read_return: Lane,
}

impl WireLanes {
    pub(crate) fn new(h: &SimHandle) -> Self {
        WireLanes {
            prop: h.lane(),
            read_return: h.lane(),
        }
    }
}

/// What [`Qp::step`] asks of the executor.
enum Next {
    /// Run the stage at the given instant.
    Hop(SimTime, Stage),
    /// Run the stage now, where a task spawned here would first be
    /// polled.
    Admit(Stage),
    Retire,
}

/// One work request and its progress.
#[derive(Default)]
pub(crate) struct WorkRequest {
    op: Op,
    /// `None` for SEND.
    sides: Option<Sides>,
    len: usize,
    /// WRITE payload (snapshotted at issue), READ snapshot (sampled when
    /// the in-bound engine finishes) or SEND message.
    buf: Vec<u8>,
    /// The issuer spins on this request: it gated on the QP's error
    /// state before paying the issue cost, it draws transit loss when
    /// the op leaves the NIC, the completion resumes it at the
    /// completing hop's place in the order, and dropping its wait
    /// cancels the request.
    sync: bool,
    /// Transit-loss draw a posted unreliable verb took at post time.
    lost: Option<bool>,
    stage: Stage,
    /// The completion, once fired.
    result: Option<Option<VerbError>>,
    waiter: Option<Wakeup>,
    /// No [`Completion`] refers to this slot (any more): free it as
    /// soon as the request retires.
    unowned: bool,
    /// The last hop has run.
    retired: bool,
}

impl WorkRequest {
    /// The work request of a one-sided `op` ([`Qp::one_sided`]
    /// validates).
    pub(crate) fn one_sided(
        op: Op,
        (local, local_off): (&Rc<MemRegion>, usize),
        (remote, remote_off): (&Rc<MemRegion>, usize),
        len: usize,
    ) -> Self {
        let sides = Sides {
            local: Rc::clone(local),
            local_off,
            remote: Rc::clone(remote),
            remote_off,
        };
        WorkRequest {
            op,
            sides: Some(sides),
            len,
            ..WorkRequest::default()
        }
    }

    /// The work request of a SEND carrying `message`.
    pub(crate) fn send(message: Vec<u8>) -> Self {
        WorkRequest {
            op: Op::Send,
            len: message.len(),
            buf: message,
            ..WorkRequest::default()
        }
    }

    /// Fires the completion a CQ would report and wakes its waiter. A
    /// synchronous issuer is handed back next, where its own task would
    /// have run the completing hop; a posted op's waiter queues behind
    /// everything already runnable.
    fn complete(&mut self, h: &SimHandle, error: Option<VerbError>) {
        self.result = Some(error);
        match (self.waiter.take(), self.sync) {
            (Some(waiter), true) => h.resume(waiter),
            (Some(waiter), false) => h.wake(waiter),
            (None, _) => {}
        }
    }
}

/// Handle to an in-flight operation: `(qp, slot, generation)`.
///
/// Await it with [`Completion::wait`] (busy-polling, like a CQ spin) or
/// [`Completion::wait_idle`]; dropping it without waiting is allowed
/// (an unsignaled op whose completion is never consumed).
pub struct Completion {
    qp: Rc<Qp>,
    key: SlabKey,
}

impl Completion {
    fn result(&self) -> Option<Option<VerbError>> {
        let requests = self.qp.requests.borrow();
        let wr = requests.get(self.key);
        wr.expect("a live handle keeps its slot").result
    }

    /// Whether the op has already completed.
    pub fn is_done(&self) -> bool {
        self.result().is_some()
    }

    /// The completion-with-error a real CQ would report, if the op
    /// failed under an injected fault. Meaningful once [`is_done`]
    /// (healthy clusters always complete `None`).
    ///
    /// [`is_done`]: Completion::is_done
    pub fn error(&self) -> Option<VerbError> {
        self.result().flatten()
    }

    /// Busy-polls until the op completes (CQ spinning: the wait is CPU
    /// time).
    pub async fn wait(&self, thread: &ThreadCtx) {
        thread.busy_wait(self.done()).await;
    }

    /// Blocks until the op completes without accruing CPU time.
    pub async fn wait_idle(&self, thread: &ThreadCtx) {
        thread.idle_wait(self.done()).await;
    }

    /// Resolves at the completion, with no CPU accounting.
    pub(crate) fn done(&self) -> impl Future<Output = ()> + '_ {
        Done(self)
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        let mut requests = self.qp.requests.borrow_mut();
        let Some(wr) = requests.get_mut(self.key) else {
            return;
        };
        // A synchronous verb dropped mid-flight is cancelled — no later
        // hop runs, as when the future that used to be the flight was
        // dropped; whatever event is still queued finds a stale key.
        if wr.retired || (wr.sync && wr.result.is_none()) {
            let wr = requests.remove(self.key).expect("resolved above");
            self.qp.recycle(wr.buf);
        } else {
            wr.unowned = true;
        }
    }
}

/// Future behind [`Completion::done`].
struct Done<'a>(&'a Completion);

impl Future for Done<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let Completion { qp, key } = self.0;
        let mut requests = qp.requests.borrow_mut();
        let wr = requests.get_mut(*key);
        let wr = wr.expect("a live handle keeps its slot");
        if wr.result.is_some() {
            return Poll::Ready(());
        }
        // One slot suffices: a `Completion` is neither `Clone` nor
        // shared, so one task waits on it at a time.
        wr.waiter = Some(qp.local().handle().wakeup(cx));
        Poll::Pending
    }
}

impl EventSink for Qp {
    fn fire(self: Rc<Self>, token: u64) {
        self.run(SlabKey::from_token(token));
    }
}

impl Qp {
    /// Files `wr` as a synchronous verb's request. It enters the
    /// out-bound engine at `issued`, once its issuer has paid the issue
    /// cost, ordered among that instant's work as of the call. The
    /// issuer awaits [`Completion::done`].
    pub(crate) fn file_sync(self: &Rc<Self>, mut wr: WorkRequest, issued: SimTime) -> Completion {
        wr.sync = true;
        let key = self.requests.borrow_mut().insert(wr);
        let sink = Rc::clone(self) as Rc<dyn EventSink>;
        self.local()
            .handle()
            .schedule_event(issued, sink, key.token());
        Completion {
            qp: Rc::clone(self),
            key,
        }
    }

    /// Posts `wr` (the doorbell has rung): it enters the out-bound
    /// engine once the posting task's current poll returns.
    pub(crate) fn launch(self: &Rc<Self>, mut wr: WorkRequest) -> Completion {
        if !self.transport().is_reliable() {
            wr.lost = Some(self.lost_in_transit());
        }
        let key = self.requests.borrow_mut().insert(wr);
        let sink = Rc::clone(self) as Rc<dyn EventSink>;
        self.local().handle().post_event(sink, key.token());
        Completion {
            qp: Rc::clone(self),
            key,
        }
    }

    /// Advances `key`'s request through every hop that is due now and
    /// schedules the next one. A stale key (cancelled request) is a
    /// no-op.
    fn run(self: &Rc<Self>, key: SlabKey) {
        let h = self.local().handle();
        let now = h.now();
        let sink = || Rc::clone(self) as Rc<dyn EventSink>;
        let mut requests = self.requests.borrow_mut();
        while let Some(wr) = requests.get_mut(key) {
            match self.step(wr, now) {
                // A zero-length hop does not yield, like a sleep whose
                // deadline has already passed.
                Next::Hop(at, stage) if at <= now => wr.stage = stage,
                Next::Hop(at, stage) => {
                    wr.stage = stage;
                    return match self.lane(wr) {
                        Some(lane) => h.schedule_in(lane, at, sink(), key.token()),
                        None => h.schedule_event(at, sink(), key.token()),
                    };
                }
                Next::Admit(stage) => {
                    wr.stage = stage;
                    return h.post_event(sink(), key.token());
                }
                Next::Retire => {
                    // The one retire point: whatever the exit — landed,
                    // NACKed, cut, lost, dropped — the buffer goes back.
                    self.recycle(std::mem::take(&mut wr.buf));
                    wr.retired = true;
                    if wr.unowned {
                        requests.remove(key);
                    }
                    return;
                }
            }
        }
    }

    /// The lane `wr`'s next hop waits in, if it is one of the four
    /// kinds that come due in filing order.
    fn lane(&self, wr: &WorkRequest) -> Option<Lane> {
        match wr.stage {
            Stage::Out => Some(self.local().nic().outbound_lane),
            Stage::In => Some(self.remote().nic().inbound_lane),
            Stage::Return if wr.op == Op::Read => Some(self.wire.read_return),
            Stage::Arrive | Stage::Return => Some(self.wire.prop),
            _ => None,
        }
    }

    /// Runs the step `wr.stage` names — the whole choreography of
    /// every verb on every transport, faults included. Every gate draws
    /// nothing while the fault layer is disarmed, so healthy runs are
    /// bit-identical with or without it.
    fn step(&self, wr: &mut WorkRequest, now: SimTime) -> Next {
        let reliable = self.transport().is_reliable();
        let cost = match (wr.op, self.transport()) {
            (Op::Send, Transport::Ud) => Cost::Datagram,
            (Op::Send, _) => Cost::TwoSided,
            _ => Cost::OneSided,
        };
        let local_nic = self.local().nic();
        let h = self.local().handle();
        match wr.stage {
            Stage::Start => {
                // A posted one-sided op reports a QP already in the
                // error state here; `send_nowait` has no completion to
                // report through.
                let gated = !wr.sync && wr.sides.is_some();
                if let (true, Some(e)) = (gated, self.error_state()) {
                    wr.complete(h, Some(e));
                    return Next::Retire;
                }
                if let (Op::Write, Some(s)) = (wr.op, &wr.sides) {
                    wr.buf = self.snapshot(&s.local, s.local_off, wr.len);
                }
                Next::Hop(local_nic.serve_out(cost, wr.len), Stage::Out)
            }
            Stage::Out if !reliable => {
                // Fire-and-forget: complete as soon as the op left the
                // NIC; deliver (or lose) the packet asynchronously.
                wr.complete(h, None);
                let lost = wr.lost.take();
                if lost.unwrap_or_else(|| self.lost_in_transit()) {
                    return Next::Retire;
                }
                let arrive = now + self.prop();
                match wr.sync {
                    true => Next::Admit(Stage::Launch(arrive)),
                    false => Next::Hop(arrive, Stage::Arrive),
                }
            }
            Stage::Launch(arrive) => Next::Hop(arrive, Stage::Arrive),
            Stage::Out | Stage::Resent(..) => {
                // During a loss burst reliable traffic does not drop
                // but pays hardware retransmissions: each round is one
                // timeout-and-resend round trip, and resent packets
                // ride the same lossy link, so rounds repeat
                // geometrically (capped).
                let (rounds, burst) = match wr.stage {
                    Stage::Resent(rounds, burst) => (rounds, burst),
                    _ => (0, self.burst_loss()),
                };
                if rounds < MAX_RETRANSMITS && self.chance(burst) {
                    local_nic.note_rc_retransmit();
                    let resent = Stage::Resent(rounds + 1, burst);
                    return Next::Hop(now + self.prop() * 3, resent);
                }
                Next::Hop(now + self.prop(), Stage::Arrive)
            }
            Stage::Arrive => {
                if !reliable {
                    if self.remote().faults().is_crashed() || self.forward_cut() {
                        local_nic.note_drop();
                        return Next::Retire;
                    }
                } else if let Err(e) = self.remote_live() {
                    // NACK / retry-exhausted completion: one more wire
                    // leg, then the CQ reports the error.
                    return Next::Hop(now + self.prop(), Stage::Nack(e));
                }
                let done = self.remote().nic().serve_in(cost, wr.len);
                Next::Hop(done, Stage::In)
            }
            Stage::Nack(e) => {
                wr.complete(h, Some(e));
                Next::Retire
            }
            Stage::In => {
                match (wr.op, &wr.sides) {
                    (Op::Read, Some(s)) => {
                        // Data is sampled at the instant the serving
                        // NIC processes the op.
                        wr.buf = self.snapshot(&s.remote, s.remote_off, wr.len);
                        self.corrupt_in_flight(&s.remote, s.remote_off, &mut wr.buf);
                        let turnaround = local_nic.profile().read_turnaround;
                        return Next::Hop(now + (self.prop() + turnaround), Stage::Return);
                    }
                    (_, Some(s)) => s.remote.apply_remote_write(s.remote_off, &wr.buf),
                    (_, None) => self.rx.send(std::mem::take(&mut wr.buf)),
                }
                match reliable {
                    true => Next::Hop(now + self.prop(), Stage::Return),
                    false => Next::Retire,
                }
            }
            Stage::Return => {
                // A cut completion leg errors the op after its remote
                // side effects: a WRITE's payload has landed, a SEND was
                // delivered, and a READ's data never reaches local
                // memory.
                if self.reverse_cut() {
                    wr.complete(h, Some(VerbError::QpError));
                } else {
                    if let (Op::Read, Some(s)) = (wr.op, &wr.sides) {
                        s.local.write_local(s.local_off, &wr.buf);
                    }
                    wr.complete(h, None);
                }
                Next::Retire
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! One table over every verb × transport × issue form × fault: the
    //! synchronous and the posted form of an operation must report the
    //! same completion and leave the same trace on both NICs wherever
    //! the two have always agreed, and each row is pinned to the value
    //! the per-verb flight coroutines produced before the engine.

    use std::cell::{Cell, RefCell};
    use std::sync::{Arc, Mutex};
    use std::task::{Wake, Waker};

    use rfp_simnet::{timeout, SimSpan, Simulation};

    use super::*;
    use crate::cluster::Cluster;
    use crate::profile::ClusterProfile;

    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum Verb {
        Read,
        Write,
        Send,
    }

    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum Form {
        Sync,
        Posted,
    }

    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum Fault {
        Healthy,
        CrashedPeer,
        RekeyedQp,
        ForwardCut,
        ReverseCut,
        LossBurst,
    }

    /// What one operation did, as seen from outside the QP.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    struct Outcome {
        /// The completion's error; `None` also for an unsignaled SEND.
        error: Option<VerbError>,
        /// Whether the payload reached its destination memory / queue.
        landed: bool,
        /// Ops through the issuer's out-bound and the peer's in-bound
        /// engine, and packets the issuer's NIC counts dropped.
        out_ops: u64,
        in_ops: u64,
        dropped: u64,
        /// Instant the completion was consumed (the unsignaled SEND:
        /// the instant the thread was released).
        done_ns: u64,
    }

    const PAYLOAD: &[u8; 32] = b"0123456789abcdef0123456789abcdef";

    /// Polls `inner` under a waker of its own that relays to the
    /// task's, as a combinator telling its branches apart does: no
    /// future inside sees the running task's waker.
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

    fn fly(verb: Verb, transport: Transport, form: Form, fault: Fault) -> Outcome {
        fly_under(verb, transport, form, fault, false).0
    }

    /// Flies one operation — with `relayed`, from a task polled under a
    /// foreign waker — and also returns how many wakes took the waker
    /// path.
    fn fly_under(
        verb: Verb,
        transport: Transport,
        form: Form,
        fault: Fault,
        relayed: bool,
    ) -> (Outcome, u64) {
        let mut sim = Simulation::new(11);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let (local, remote) = (cm.alloc_mr(64), sm.alloc_mr(64));
        match verb {
            Verb::Read => remote.write_local(0, PAYLOAD),
            _ => local.write_local(0, PAYLOAD),
        }
        let qp = cluster.qp_typed(0, 1, transport);
        match fault {
            Fault::Healthy => {}
            Fault::CrashedPeer => sm.faults().set_crashed(true),
            Fault::RekeyedQp => sm.faults().bump_qp_epoch(),
            Fault::ForwardCut => cm.faults().block_to(1),
            Fault::ReverseCut => sm.faults().block_to(0),
            Fault::LossBurst => sm.faults().set_extra_loss(1.0),
        }
        let t = cm.thread("issuer");
        let done = Rc::new(Cell::new(None));
        let received = Rc::new(Cell::new(false));
        if verb == Verb::Send {
            let (rx, got) = (Rc::clone(&qp), Rc::clone(&received));
            sim.spawn(async move {
                got.set(rx.incoming().await == PAYLOAD);
            });
        }
        let (out, h, q) = (Rc::clone(&done), sim.handle(), Rc::clone(&qp));
        let (l, r) = (Rc::clone(&local), Rc::clone(&remote));
        let issuer = Box::pin(async move {
            let error = match (verb, form) {
                (Verb::Read, Form::Sync) => q.try_read(&t, &l, 0, &r, 0, 32).await.err(),
                (Verb::Write, Form::Sync) => q.try_write(&t, &l, 0, &r, 0, 32).await.err(),
                (Verb::Send, Form::Sync) => q.try_send(&t, PAYLOAD.to_vec()).await.err(),
                (Verb::Send, Form::Posted) => {
                    q.send_nowait(&t, PAYLOAD.to_vec()).await;
                    None
                }
                (_, Form::Posted) => {
                    let c = match verb {
                        Verb::Read => q.read_post(&t, &l, 0, &r, 0, 32).await,
                        _ => q.write_post(&t, &l, 0, &r, 0, 32).await,
                    };
                    c.wait(&t).await;
                    assert!(c.is_done());
                    c.error()
                }
            };
            out.set(Some((error, h.now().as_nanos())));
        });
        match relayed {
            true => sim.spawn(Relay {
                inner: issuer,
                relay: Arc::default(),
            }),
            false => sim.spawn(issuer),
        }
        sim.run_for(SimSpan::micros(50));
        let (error, done_ns) = done.get().expect("the verb completes");
        let outcome = Outcome {
            error,
            landed: match verb {
                Verb::Read => local.read_local(0, 32) == PAYLOAD,
                Verb::Write => remote.read_local(0, 32) == PAYLOAD,
                Verb::Send => received.get(),
            },
            out_ops: cm.nic().counters().outbound_ops,
            in_ops: sm.nic().counters().inbound_ops,
            dropped: cm.nic().counters().dropped,
            done_ns,
        };
        (outcome, sim.stats().waker_wakes)
    }

    /// Expected outcome, compactly: `(error, landed, out, in, dropped,
    /// done_ns)`.
    type Row = (Option<VerbError>, bool, u64, u64, u64, u64);

    fn outcome(row: Row) -> Outcome {
        let (error, landed, out_ops, in_ops, dropped, done_ns) = row;
        Outcome {
            error,
            landed,
            out_ops,
            in_ops,
            dropped,
            done_ns,
        }
    }

    use Fault::*;
    use VerbError::{QpError, RemoteDown};

    /// The synchronous form's outcome for every legal verb × transport
    /// under every fault, as the per-verb flight coroutines produced it
    /// before the engine existed.
    const TABLE: [(Verb, Transport, Fault, Row); 36] = [
        (
            Verb::Read,
            Transport::Rc,
            Healthy,
            (None, true, 1, 1, 0, 1513),
        ),
        (
            Verb::Read,
            Transport::Rc,
            CrashedPeer,
            (Some(RemoteDown), false, 1, 0, 0, 1274),
        ),
        (
            Verb::Read,
            Transport::Rc,
            RekeyedQp,
            (Some(QpError), false, 0, 0, 0, 0),
        ),
        (
            Verb::Read,
            Transport::Rc,
            ForwardCut,
            (Some(QpError), false, 1, 0, 0, 1274),
        ),
        (
            Verb::Read,
            Transport::Rc,
            ReverseCut,
            (Some(QpError), false, 1, 1, 0, 1513),
        ),
        (
            Verb::Read,
            Transport::Rc,
            LossBurst,
            (None, true, 1, 1, 0, 8713),
        ),
        (
            Verb::Write,
            Transport::Rc,
            Healthy,
            (None, true, 1, 1, 0, 1363),
        ),
        (
            Verb::Write,
            Transport::Rc,
            CrashedPeer,
            (Some(RemoteDown), false, 1, 0, 0, 1274),
        ),
        (
            Verb::Write,
            Transport::Rc,
            RekeyedQp,
            (Some(QpError), false, 0, 0, 0, 0),
        ),
        (
            Verb::Write,
            Transport::Rc,
            ForwardCut,
            (Some(QpError), false, 1, 0, 0, 1274),
        ),
        (
            Verb::Write,
            Transport::Rc,
            ReverseCut,
            (Some(QpError), true, 1, 1, 0, 1363),
        ),
        (
            Verb::Write,
            Transport::Rc,
            LossBurst,
            (None, true, 1, 1, 0, 8563),
        ),
        (
            Verb::Write,
            Transport::Uc,
            Healthy,
            (None, true, 1, 1, 0, 674),
        ),
        (
            Verb::Write,
            Transport::Uc,
            CrashedPeer,
            (None, false, 1, 0, 1, 674),
        ),
        (
            Verb::Write,
            Transport::Uc,
            RekeyedQp,
            (Some(QpError), false, 0, 0, 0, 0),
        ),
        (
            Verb::Write,
            Transport::Uc,
            ForwardCut,
            (None, false, 1, 0, 1, 674),
        ),
        (
            Verb::Write,
            Transport::Uc,
            ReverseCut,
            (None, true, 1, 1, 0, 674),
        ),
        (
            Verb::Write,
            Transport::Uc,
            LossBurst,
            (None, false, 1, 0, 1, 674),
        ),
        (
            Verb::Send,
            Transport::Rc,
            Healthy,
            (None, true, 1, 1, 0, 1748),
        ),
        (
            Verb::Send,
            Transport::Rc,
            CrashedPeer,
            (Some(RemoteDown), false, 1, 0, 0, 1274),
        ),
        (
            Verb::Send,
            Transport::Rc,
            RekeyedQp,
            (Some(QpError), false, 0, 0, 0, 0),
        ),
        (
            Verb::Send,
            Transport::Rc,
            ForwardCut,
            (Some(QpError), false, 1, 0, 0, 1274),
        ),
        (
            Verb::Send,
            Transport::Rc,
            ReverseCut,
            (Some(QpError), true, 1, 1, 0, 1748),
        ),
        (
            Verb::Send,
            Transport::Rc,
            LossBurst,
            (None, true, 1, 1, 0, 8948),
        ),
        (
            Verb::Send,
            Transport::Uc,
            Healthy,
            (None, true, 1, 1, 0, 674),
        ),
        (
            Verb::Send,
            Transport::Uc,
            CrashedPeer,
            (None, false, 1, 0, 1, 674),
        ),
        (
            Verb::Send,
            Transport::Uc,
            RekeyedQp,
            (Some(QpError), false, 0, 0, 0, 0),
        ),
        (
            Verb::Send,
            Transport::Uc,
            ForwardCut,
            (None, false, 1, 0, 1, 674),
        ),
        (
            Verb::Send,
            Transport::Uc,
            ReverseCut,
            (None, true, 1, 1, 0, 674),
        ),
        (
            Verb::Send,
            Transport::Uc,
            LossBurst,
            (None, false, 1, 0, 1, 674),
        ),
        (
            Verb::Send,
            Transport::Ud,
            Healthy,
            (None, true, 1, 1, 0, 500),
        ),
        (
            Verb::Send,
            Transport::Ud,
            CrashedPeer,
            (None, false, 1, 0, 1, 500),
        ),
        (
            Verb::Send,
            Transport::Ud,
            RekeyedQp,
            (Some(QpError), false, 0, 0, 0, 0),
        ),
        (
            Verb::Send,
            Transport::Ud,
            ForwardCut,
            (None, false, 1, 0, 1, 500),
        ),
        (
            Verb::Send,
            Transport::Ud,
            ReverseCut,
            (None, true, 1, 1, 0, 500),
        ),
        (
            Verb::Send,
            Transport::Ud,
            LossBurst,
            (None, false, 1, 0, 1, 500),
        ),
    ];

    #[test]
    fn sync_and_posted_forms_agree_under_every_fault() {
        for (verb, transport, fault, row) in TABLE {
            let sync = outcome(row);
            let case = format!("{verb:?} on {transport:?} under {fault:?}");
            assert_eq!(fly(verb, transport, Form::Sync, fault), sync, "sync {case}");
            let posted = match (verb, transport) {
                // An RC completion must be consumed: no unsignaled form.
                (Verb::Send, Transport::Rc) => continue,
                // `send_nowait` has no completion to report through: the
                // thread is released after the issue cost whatever
                // happens, and — its one disagreement with `try_send` —
                // a re-keyed QP is not gated, so the datagram still goes.
                (Verb::Send, _) if fault == RekeyedQp => outcome((None, true, 1, 1, 0, 200)),
                (Verb::Send, _) => Outcome {
                    done_ns: 200,
                    ..sync
                },
                // A posted one-sided op reports exactly what the
                // synchronous one does, at the same instant; only the
                // error-state gate sits after the doorbell instead of
                // before the issue cost.
                _ if fault == RekeyedQp => Outcome {
                    done_ns: 200,
                    ..sync
                },
                _ => sync,
            };
            assert_eq!(
                fly(verb, transport, Form::Posted, fault),
                posted,
                "posted {case}"
            );
        }
    }

    #[test]
    fn completions_awaited_under_a_foreign_waker_land_at_the_same_instant() {
        // The id arm of a wake ticket needs the running task's own
        // waker; under any other, the issue cost's `Sleep`, the
        // completion waiter and the synchronous hand-off fall back to
        // the waker they were polled with. Same table, same instants.
        for (verb, transport, fault, _) in TABLE {
            if verb == Verb::Send {
                continue; // its receiver parks on a `Channel`: waker wakes either way
            }
            let case = format!("{verb:?} on {transport:?} under {fault:?}");
            for form in [Form::Sync, Form::Posted] {
                let (direct, by_id) = fly_under(verb, transport, form, fault, false);
                let (relayed, by_waker) = fly_under(verb, transport, form, fault, true);
                assert_eq!(relayed, direct, "{form:?} {case}");
                assert_eq!(by_id, 0, "{form:?} {case}: the hot path took the lock");
                // Only a re-keyed synchronous verb fails before it ever waits.
                let waits = (form, fault) != (Form::Sync, RekeyedQp);
                assert_eq!(by_waker > 0, waits, "{form:?} {case}");
            }
        }
    }

    #[test]
    fn cancelled_sync_verb_frees_its_slot_and_its_events_go_stale() {
        // A READ abandoned mid-flight (its future dropped by a timeout)
        // stops where it is: the slot is recycled at once, nothing lands
        // locally, and the hop event still queued for the old occupant
        // must not advance the next one — which completes at its own
        // instant, not the stale event's.
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let (local, remote) = (cm.alloc_mr(64), sm.alloc_mr(64));
        remote.write_local(0, PAYLOAD);
        let qp = cluster.qp(0, 1);
        let t = cm.thread("issuer");
        let done = Rc::new(Cell::new(0u64));
        let (out, h, q, l) = (
            Rc::clone(&done),
            sim.handle(),
            Rc::clone(&qp),
            Rc::clone(&local),
        );
        sim.spawn(async move {
            // Out-bound service ends at 674 ns; give up at 500.
            let read = Box::pin(q.try_read(&t, &l, 0, &remote, 0, 32));
            assert!(timeout(&h, SimSpan::nanos(500), read).await.is_none());
            assert_eq!(q.requests.borrow().len(), 0, "cancelled: slot freed");
            // Same slot, next generation, posted while the cancelled
            // READ's out-bound event (t=674) is still in the heap.
            let write = q.write_post(&t, &l, 32, &remote, 32, 8).await;
            assert_eq!(q.work_request_slots(), 1);
            write.wait(&t).await;
            assert_eq!(write.error(), None);
            out.set(h.now().as_nanos());
        });
        sim.run();
        // Doorbell at 500 + 200 (the out-bound engine is free again
        // since 674), service 474, wire 300, in-bound 89, ACK 300.
        assert_eq!(done.get(), 700 + 474 + 300 + 89 + 300);
        assert_eq!(
            local.read_local(0, 32),
            vec![0; 32],
            "the READ never landed"
        );
        assert_eq!(sm.nic().counters().inbound_ops, 1, "only the WRITE arrived");
        assert_eq!(qp.requests.borrow().len(), 0);
    }

    #[test]
    fn posted_reads_backed_up_on_one_inbound_engine_complete_in_booking_order() {
        // Two clients each post a doorbell batch of eight 2 KB READs at
        // the same instant: each out-bound engine sends one every 474 ns,
        // the server's in-bound engine takes 410 ns per READ, so from the
        // first pair on every READ waits behind the ones booked before
        // it. Each completes one READ return leg after the instant the
        // FIFO booked for it, in the order the two wires delivered them.
        const LEN: usize = 2048;
        const BATCH: usize = 8;
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
        let server = cluster.machine(2).alloc_mr(LEN);
        let log = Rc::new(RefCell::new(Vec::new()));
        for client in 0..2 {
            let machine = cluster.machine(client);
            let (qp, t) = (cluster.qp(client, 2), machine.thread("poster"));
            let (local, remote) = (machine.alloc_mr(LEN * BATCH), Rc::clone(&server));
            let (h, log) = (sim.handle(), Rc::clone(&log));
            sim.spawn(async move {
                let entries: Vec<_> = (0..BATCH)
                    .map(|k| (Rc::clone(&local), k * LEN, Rc::clone(&remote), 0, LEN))
                    .collect();
                let mut posted = Vec::new();
                qp.post_read_batch(&t, &entries, &mut posted).await;
                for (k, read) in posted.into_iter().enumerate() {
                    let (h, log) = (h.clone(), Rc::clone(&log));
                    h.clone().spawn(async move {
                        read.done().await;
                        log.borrow_mut().push((client, k, h.now().as_nanos()));
                    });
                }
            });
        }
        sim.run();
        let nic = cluster.profile().nic.clone();
        let (out, service) = (nic.outbound_min.as_nanos(), nic.inbound_service(LEN));
        let (prop, turnaround) = (300, nic.read_turnaround.as_nanos());
        // The in-bound FIFO's books: READ k of each client arrives one
        // doorbell, k + 1 out-bound services and a wire leg after 0,
        // client 0's ahead of client 1's.
        let mut free = 0;
        let mut booked = Vec::new();
        for (k, client) in (0..BATCH).flat_map(|k| [(k, 0), (k, 1)]) {
            let arrive = 200 + out * (k as u64 + 1) + prop;
            free = free.max(arrive) + service.as_nanos();
            booked.push((client, k, free + prop + turnaround));
        }
        let queued = |w: &[(usize, usize, u64)]| w[1].2 - w[0].2 == service.as_nanos();
        assert!(booked.windows(2).all(queued), "every READ waits");
        assert_eq!(*log.borrow(), booked);
        let counters = cluster.machine(2).nic().counters();
        assert_eq!(counters.inbound_ops, 2 * BATCH as u64);
    }

    #[test]
    fn completed_sync_verb_resumes_its_issuer_ahead_of_ready_work() {
        // A WRITE issued at 0 completes at 200 + 474 + 300 + 89 + 300
        // = 1363 ns; its completing hop was scheduled at 1063. A task
        // that re-arms for 1363 at 1362 wakes behind that hop, so it is
        // already runnable when the completion fires — and the issuer,
        // handed back where its own task would have run the hop, still
        // goes first. A posted op's waiter would queue behind it.
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let (local, remote) = (cm.alloc_mr(64), sm.alloc_mr(64));
        let qp = cluster.qp(0, 1);
        let t = cm.thread("issuer");
        let order = Rc::new(RefCell::new(Vec::new()));
        let (log, h) = (Rc::clone(&order), sim.handle());
        sim.spawn(async move {
            qp.write(&t, &local, 0, &remote, 0, 8).await;
            log.borrow_mut().push(("issuer", h.now().as_nanos()));
        });
        let (log, h) = (Rc::clone(&order), sim.handle());
        sim.spawn(async move {
            h.sleep_until(SimTime::from_nanos(1362)).await;
            h.sleep_until(SimTime::from_nanos(1363)).await;
            log.borrow_mut().push(("bystander", h.now().as_nanos()));
        });
        sim.run();
        assert_eq!(*order.borrow(), [("issuer", 1363), ("bystander", 1363)]);
    }
}
