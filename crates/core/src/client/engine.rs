//! The client call engine: every call this crate makes, from the
//! paper's sequential `client_send`/`client_recv` to a pipelined,
//! admission-controlled, fault-tolerant batch, is the same loop over
//! the connection's ring window:
//!
//! ```text
//!          ┌───────────────────────────────────────────────────────────────┐
//!          ▼                                                               │
//!  refill ─► admit/recover ─► stage ─► submit ─► poll ─► reap ─► check ─► retire
//!  (tail     (credit gate,    (seq,    (post     (post   (wait   (accept,  (book,
//!   slot)     backoff wake,   header,  WRITE)    READ    for the 2nd READ,  free
//!             reconnect)      span)              or      older   verify,    slot,
//!                                                reply   half)   verdict)   sink)
//!                                                wait)
//! ```
//!
//! A [`Flight`] is one outstanding call. Window, admission, integrity,
//! recovery and the hybrid switch are stages that are each either
//! present or a no-op for a given call ([`CallPolicy`] and the
//! connection config decide); every protocol step exists once. The
//! sequential [`RfpClient::call`] is this loop at one flight with every
//! policy stage off.

use std::fmt;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_rnic::{Completion, MemRegion, ThreadCtx, VerbError};
use rfp_simnet::{derive_seed, timeout, RetryPolicy, SimSpan, SimTime};

use super::{CallInfo, CallResult, RfpClient};
use crate::conn::{Mode, RfpConfig, MODE_REMOTE_FETCH, MODE_SERVER_REPLY};
use crate::header::{RespHeader, RespStatus, REQ_HDR, RESP_HDR, RESP_TRAILER};
use crate::integrity::{verify_response, IntegrityFault, VERIFY_RETRIES};
use crate::observe::{incident as on, Chain, Incident};
use crate::overload::{OverloadConfig, MAX_PROBES};
use crate::recovery::{FailureCause, RecoveryConfig, RpcError, FETCH_DEADLINE};

/// Consecutive calls that must exceed `R` before the mode actually
/// switches (the paper's anti-flapping guard, §3.2).
const CONSECUTIVE_BEFORE_SWITCH: u32 = 2;
/// Switch back to remote fetching when a server-reply response reports
/// a process time below this — the Figure 9 crossover (P ≈ 7 µs), under
/// which repeated fetching beats server-reply again.
const SWITCH_BACK_BELOW: SimSpan = SimSpan::micros(7);
/// In server-reply mode, issue a safety remote fetch if no reply lands
/// within this interval (covers the race where the server posted the
/// response before observing the mode flip).
const REPLY_FALLBACK_POLL: SimSpan = SimSpan::micros(50);
/// CPU cost of re-establishing the QP and re-registering buffers
/// (connection setup handshake, `ibv_create_qp` + rkey exchange).
const RECONNECT_CPU: SimSpan = SimSpan::micros(5);

/// What one engine run applies to each of its calls on top of the plain
/// protocol. The default — both stages absent — is the paper's call.
///
/// A call carrying either stage bounds its own wait (verdict probes
/// past the admission deadline; a per-attempt fetch deadline), so it
/// stays in remote-fetch terms: server verdicts fail the attempt
/// instead of completing the call, and it never feeds the hybrid
/// switch.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallPolicy<'a> {
    /// Overload admission (requires
    /// [`RfpConfig::overload`](crate::RfpConfig::overload)):
    /// credit gate, a deadline stamped into every submission, verdict
    /// probes once it passes, and re-admission of `Busy`/`Shed`
    /// verdicts under a fresh sequence number; a call that exhausts the
    /// schedule ends `Ok` with the rejection status. The inner value is
    /// the hard whole-call deadline; `None` gives each admission a
    /// fresh `now + deadline` budget from the config.
    pub admission: Option<Option<SimTime>>,
    /// Crash recovery: verb errors, corrupt-fetch streaks and the
    /// per-attempt deadline fail the attempt, which backs off
    /// (jittered), re-establishes an errored QP and resubmits under the
    /// same sequence number; a call that exhausts the budget ends in an
    /// [`RpcError`]. Without it, verb errors are absorbed (the deposit
    /// or fetch is simply repeated).
    pub recovery: Option<&'a RecoveryConfig>,
}

impl<'a> CallPolicy<'a> {
    /// Admission only, with [`RfpClient::call_overload`]'s deadline
    /// argument.
    pub fn admitted(deadline: Option<SimTime>) -> Self {
        CallPolicy {
            admission: Some(deadline),
            recovery: None,
        }
    }

    /// Recovery only.
    pub fn recovered(rec: &'a RecoveryConfig) -> Self {
        CallPolicy {
            admission: None,
            recovery: Some(rec),
        }
    }

    /// Whether the call bounds its own wait (see the type's docs).
    fn bounded(&self) -> bool {
        self.admission.is_some() || self.recovery.is_some()
    }
}

/// Where a flight stands between rounds.
#[derive(Copy, Clone, Default)]
enum Phase {
    /// Waiting to be staged under a fresh sequence number: initially,
    /// and after a rejection (a rejected request was provably never
    /// executed, so a new seq cannot double-execute — while reusing the
    /// rejected seq would match the stale verdict forever).
    #[default]
    Admit,
    /// Staged; the deposit WRITE is pending (first submission, an
    /// absorbed verb error, or a same-seq resubmit).
    Send,
    /// Deposited; fetching the response.
    Poll,
    /// The last attempt failed with `last`; resubmit (`fresh`: under a
    /// new seq) once the backoff has been slept.
    Backoff { fresh: bool, last: FailureCause },
}

/// A flight's posted op — its deposit WRITE in [`Phase::Send`], its
/// fetch READ in [`Phase::Poll`] — left for [`Engine::reap`] to book.
struct Posted {
    /// Post order: `reap` waits for the median stamp.
    stamp: u64,
    /// Bytes the op moves: a READ's land in the landing zone.
    len: usize,
    done: Completion,
}

/// One outstanding call: everything the engine knows about it lives
/// here, so any number can be in flight on one connection.
#[derive(Default)]
pub(super) struct Flight {
    /// Index into the run's request batch (what the sink is told).
    idx: usize,
    /// Ring slot carrying this call.
    slot: usize,
    /// Current seq and flight-recorder cause link.
    pub(super) chain: Chain,
    /// Seq of the first submission; seeds the jitter stream.
    first_seq: u32,
    /// Staged request bytes on the wire (header + payload).
    wire_len: usize,
    /// Call entry (latency epoch).
    t0: SimTime,
    phase: Phase,
    /// Nothing happens to this flight before this instant (credit
    /// pause, probe pause, backoff).
    not_before: SimTime,
    /// Fetch READs that actually sampled the slot (the paper's `N`).
    attempts: u32,
    extra_read: bool,
    integrity_retries: u32,
    /// Fetches discarded by verification within the current attempt; at
    /// the configured budget a recovered attempt fails `Corrupt`.
    corrupt: u32,
    /// Whether this call already counted toward the overrun guard (at
    /// most once per call).
    counted_over: bool,
    /// Failed submission attempts so far.
    failed: u32,
    /// Deadline stamped into the staged header.
    stamp: Option<SimTime>,
    /// Whole-call bound on backoffs and attempt deadlines.
    clamp: Option<SimTime>,
    /// Recovery: when the current attempt's fetch gives up.
    attempt_deadline: Option<SimTime>,
    /// Admission: the credit pause has been served for this submission.
    gated: bool,
    /// Admission: verdict probes made since the stamp passed, and
    /// whether the pause before the next one has been served.
    probes: u32,
    probe_armed: bool,
    /// Recovery: re-establish the QP before resubmitting even though it
    /// reports no error — persistent corruption on a "healthy" QP is
    /// the one fault the transport cannot see.
    force_reconnect: bool,
    /// Reply mode: the landing zone has been inspected since the last
    /// deposit, so the next poll waits for a pushed reply.
    reply_primed: bool,
    /// Jitter stream: deterministic per (config seed, first seq),
    /// created at the first draw without touching the simulation's
    /// shared RNG.
    jitter: Option<StdRng>,
    /// The posted op not yet booked, if any: it may outlive the round
    /// that posted it.
    op: Option<Posted>,
    /// Bytes of response image a fetch brought in, not yet checked.
    landed: Option<usize>,
    outcome: Option<Result<CallResult, RpcError>>,
}

type ReadEntry = (Rc<MemRegion>, usize, Rc<MemRegion>, usize, usize);

/// The engine's working set, owned by the client and reused across
/// runs.
#[derive(Default)]
pub(super) struct Scratch {
    /// Outstanding calls, oldest first.
    pub(super) flights: Vec<Flight>,
    /// The ring slot the next flight stages. Flights take slots in ring
    /// order — the order the server's head looks expect — across runs,
    /// so `W = 1` always stages slot 0.
    tail: usize,
    entries: Vec<ReadEntry>,
    /// Completions of the round's doorbell-batched fetch READs, before
    /// they move into their flights.
    posted: Vec<Completion>,
    /// Stamp of the next posted op.
    posts: u64,
    /// Stamps of the posted ops, gathered by each reap.
    stamps: Vec<u64>,
    /// Empty payload buffers: `complete` fills one per call, and it
    /// comes back once the sink has read the result, so at most `W`
    /// ever exist (DESIGN.md "Allocation rule").
    payloads: Vec<Vec<u8>>,
}

impl Scratch {
    /// Drops whatever a previous run left behind (a `recv` future
    /// dropped mid-flight): the next staging of a slot allocates a
    /// fresh seq, so a late response to an abandoned one fails the
    /// acceptance check and is never surfaced.
    fn reset(&mut self) {
        self.flights.clear();
    }

    /// The tail slot, or `None` while a flight still holds it.
    fn free_slot(&self) -> Option<usize> {
        let held = self.flights.iter().any(|fl| fl.slot == self.tail);
        (!held).then_some(self.tail)
    }

    /// Takes the tail slot and advances the tail — or `None` while a
    /// flight still holds the tail, even with other slots free. Reaped
    /// rounds free slots out of order, and a deposit past a held slot
    /// lands off the server's head look: it would wait a whole
    /// full-scan rotation (DESIGN.md "Request ring").
    fn take_slot(&mut self, window: usize) -> Option<usize> {
        let slot = self.free_slot()?;
        // `window` is a power of two (a `connect` invariant).
        self.tail = (slot + 1) & (window - 1);
        Some(slot)
    }

    /// Whether any flight has an op posted and not yet reaped.
    fn posting(&self) -> bool {
        self.flights.iter().any(|fl| fl.op.is_some())
    }
}

impl RfpClient {
    /// The call engine: runs every request in `reqs` on this connection
    /// under `policy`, keeping up to `W` (the configured
    /// [`window`](crate::RfpConfig::window)) outstanding, and lends
    /// `sink` one `(request index, outcome)` per request as each
    /// settles (completion order, not request order). The result's
    /// payload buffer is the engine's, reused once `sink` returns; a
    /// caller that keeps the result clones it.
    ///
    /// # Panics
    ///
    /// Panics if a request exceeds the per-slot capacity, if `policy`
    /// asks for admission on a connection without overload control, or
    /// if the QP enters the error state with no recovery stage to
    /// re-establish it.
    pub async fn run<R: AsRef<[u8]>>(
        &self,
        thread: &ThreadCtx,
        reqs: &[R],
        policy: CallPolicy<'_>,
        sink: impl FnMut(usize, Result<&CallResult, RpcError>),
    ) {
        let mut sc = self.scratch.take();
        sc.reset();
        self.engine(thread, &policy)
            .drive(&mut sc, reqs, sink)
            .await;
        self.scratch.replace(sc);
    }

    fn engine<'a>(&'a self, thread: &'a ThreadCtx, policy: &'a CallPolicy<'a>) -> Engine<'a> {
        Engine {
            c: self,
            thread,
            policy,
        }
    }

    /// Stage + submit of one flight without entering the fetch loop
    /// (`send`); the flight stays in the scratch.
    pub(super) async fn submit_one(&self, thread: &ThreadCtx, req: &[u8]) {
        let policy = CallPolicy::default();
        let engine = self.engine(thread, &policy);
        let mut sc = self.scratch.take();
        sc.reset();
        let slot = sc.take_slot(self.shared.cfg.window);
        let slot = slot.expect("a fresh ring has a free slot");
        let mut fl = engine.new_flight(0, slot);
        engine.stage(&mut fl, req);
        sc.flights.push(fl);
        engine.submit(&mut sc).await;
        self.scratch.replace(sc);
    }

    /// Drives whatever [`submit_one`](RfpClient::submit_one) left
    /// outstanding to completion (`recv`).
    pub(super) async fn resume(
        &self,
        thread: &ThreadCtx,
        sink: impl FnMut(usize, Result<&CallResult, RpcError>),
    ) {
        let mut sc = self.scratch.take();
        let none: &[&[u8]] = &[];
        self.engine(thread, &CallPolicy::default())
            .drive(&mut sc, none, sink)
            .await;
        self.scratch.replace(sc);
    }
}

/// One engine run: the connection, the thread driving it, and the
/// policy of its calls.
struct Engine<'a> {
    c: &'a RfpClient,
    thread: &'a ThreadCtx,
    policy: &'a CallPolicy<'a>,
}

impl Engine<'_> {
    fn cfg(&self) -> &RfpConfig {
        &self.c.shared.cfg
    }

    /// The connection's overload stage, for a call under admission
    /// (`drive` checked it is there).
    fn overload(&self) -> &OverloadConfig {
        let stage = self.cfg().overload.as_ref();
        stage.expect("call_overload requires overload control")
    }

    fn now(&self) -> SimTime {
        self.thread.now()
    }

    fn note(&self, fl: &mut Flight, incident: Incident, detail: impl fmt::Display) {
        let obs = self.c.obs();
        obs.incident(self.now(), &mut fl.chain, incident, detail);
    }

    fn span_mark(&self, fl: &Flight, label: &'static str) {
        self.c.obs().span_mark(fl.slot, self.now(), label);
    }

    /// One-sided READ of `len` response-ring bytes at `off` into the
    /// landing zone.
    async fn read(&self, off: usize, len: usize) -> Result<(), VerbError> {
        let sh = &self.c.shared;
        let qp = self.c.qp();
        qp.try_read(self.thread, &sh.client_resp, off, &sh.resp, off, len)
            .await
    }

    async fn drive<R: AsRef<[u8]>>(
        &self,
        sc: &mut Scratch,
        reqs: &[R],
        mut sink: impl FnMut(usize, Result<&CallResult, RpcError>),
    ) {
        assert!(
            self.policy.admission.is_none() || self.cfg().overload.is_some(),
            "call_overload requires overload control"
        );
        let window = self.cfg().window;
        let mut next = 0;
        while next < reqs.len() || !sc.flights.is_empty() {
            // Refill: one new flight per free ring slot.
            while next < reqs.len() {
                let Some(slot) = sc.take_slot(window) else {
                    break;
                };
                sc.flights.push(self.new_flight(next, slot));
                next += 1;
            }
            // Admit / recover / stage whatever is due (a flight that
            // is sending or polling has nothing to begin).
            for fl in &mut sc.flights {
                let pending = matches!(fl.phase, Phase::Send | Phase::Poll);
                if !pending && self.now() >= fl.not_before {
                    self.begin(fl, reqs).await;
                }
            }
            self.submit(sc).await;
            for fl in &mut sc.flights {
                self.probe(fl);
            }
            let mode = self.c.mode.get();
            self.poll(sc, mode).await;
            self.reap(sc).await;
            for fl in &mut sc.flights {
                let Some(fetched) = fl.landed.take() else {
                    continue;
                };
                match self.check(fl, fetched, mode).await {
                    Some(hdr) => {
                        let data = sc.payloads.pop().unwrap_or_default();
                        fl.outcome = Some(Ok(self.complete(fl, &hdr, mode, data)));
                    }
                    None => self.bound_attempt(fl),
                }
            }
            // Retire: settled flights free their slot for the next
            // refill, and their payload buffer once the sink has read
            // it (a rejection's empty one was never the pool's).
            sc.flights.retain_mut(|fl| {
                let Some(out) = fl.outcome.take() else {
                    return true;
                };
                self.c.tail.set(fl.chain);
                sink(fl.idx, out.as_ref().map_err(|e| *e));
                if let Ok(CallResult { data, .. }) = out {
                    if data.capacity() > 0 {
                        sc.payloads.push(data);
                    }
                }
                false
            });
            // Idle: with every flight pausing (credit wait, probe pause,
            // backoff), nothing posted and nothing to refill, sleep to
            // the earliest wake-up instead of spinning.
            let refillable = next < reqs.len() && sc.free_slot().is_some();
            let busy = refillable || sc.posting();
            let wake = sc.flights.iter().map(|fl| fl.not_before).min();
            if let Some(wake) = wake.filter(|&w| !busy && w > self.now()) {
                let pause = self.thread.handle().sleep(wake.since(self.now()));
                self.thread.idle_wait(pause).await;
            }
        }
    }

    fn new_flight(&self, idx: usize, slot: usize) -> Flight {
        let t0 = self.now();
        let policy = self.policy;
        // A recovered call tells an overload-controlled server how long
        // its answer is worth computing; admission stamps its own
        // deadline at each submission.
        let ov = self.cfg().overload.as_ref();
        let stamp = ov
            .filter(|_| policy.admission.is_none() && policy.recovery.is_some())
            .map(|ov| t0 + ov.deadline);
        let first_seq = self.c.peek_seq_in(slot);
        Flight {
            idx,
            slot,
            chain: Chain {
                seq: first_seq,
                cause: None,
            },
            first_seq,
            t0,
            stamp,
            clamp: policy.admission.flatten().or(stamp),
            ..Flight::default()
        }
    }

    /// Next unit draw of `fl`'s jitter stream.
    fn draw(&self, fl: &mut Flight) -> f64 {
        let seed = match self.policy.recovery {
            Some(rec) => rec.seed,
            None => self.overload().seed,
        };
        let stream = fl.first_seq as u64;
        fl.jitter
            .get_or_insert_with(|| StdRng::seed_from_u64(derive_seed(seed, stream)))
            .gen()
    }

    /// The admit and recover stages for one flight that is due: wake
    /// from a backoff (recovery: note the resubmit, re-establish an
    /// errored QP), pass the credit gate (admission), and stage under a
    /// fresh seq when the flight needs one.
    async fn begin<R: AsRef<[u8]>>(&self, fl: &mut Flight, reqs: &[R]) {
        if let Phase::Backoff { fresh, last } = fl.phase {
            if fl.clamp.is_some_and(|d| self.now() >= d) {
                return self.give_up(fl, last);
            }
            if self.policy.recovery.is_some() {
                let what = if fresh {
                    "resubmitting rejected request under a fresh seq"
                } else {
                    "resubmitting request under the same seq"
                };
                self.note(fl, on::RESUBMIT, what);
                if std::mem::take(&mut fl.force_reconnect) || self.c.qp().error_state().is_some() {
                    self.reestablish_qp(fl).await;
                }
            }
            fl.corrupt = 0;
            fl.phase = if fresh { Phase::Admit } else { Phase::Send };
        }
        if !matches!(fl.phase, Phase::Admit) {
            return;
        }
        if let Some(hard) = self.policy.admission {
            let ov = self.overload();
            // Credit gate: a zero advertisement means the server's
            // queue was full — pause (jittered, so clients
            // desynchronise) instead of submitting work that will
            // bounce.
            if !fl.gated && self.c.credits.get() == 0 {
                let what = "zero credits: pausing before submit";
                self.note(fl, on::CREDIT_WAIT, what);
                let scale = 0.5 + self.draw(fl);
                let mut pause = SimSpan::from_nanos_f64(ov.credit_wait.as_nanos() as f64 * scale);
                let now = self.now();
                if let Some(d) = hard {
                    if now >= d {
                        return self.fail(fl, FailureCause::Rejected(RespStatus::Busy));
                    }
                    pause = pause.min(d.since(now));
                }
                fl.gated = true;
                if !pause.is_zero() {
                    fl.not_before = now + pause;
                    return;
                }
            }
            if std::mem::take(&mut fl.gated) {
                // The pause expires the gate: submit optimistically —
                // the worst case is one cheap Busy verdict refreshing
                // the level.
                self.c.credits.set(1);
            }
            fl.stamp = Some(hard.unwrap_or_else(|| self.now() + ov.deadline));
        }
        self.stage(fl, reqs[fl.idx].as_ref());
    }

    /// Stage: allocate the flight's next seq, open its span, and write
    /// header + payload into the slot's staging buffer.
    fn stage(&self, fl: &mut Flight, req: &[u8]) {
        let seq = self.c.alloc_seq_in(fl.slot);
        fl.chain.seq = seq;
        self.c.obs().span_begin(fl.slot, seq, self.now());
        fl.wire_len = REQ_HDR + req.len();
        assert!(
            fl.wire_len <= self.cfg().req_capacity,
            "request exceeds buffer capacity"
        );
        let hdr = self.c.req_header(req.len(), seq, fl.stamp);
        let base = self.c.shared.req_off(fl.slot);
        let staging = &self.c.shared.client_req;
        staging.write_local(base, &hdr.encode());
        staging.write_local(base + REQ_HDR, req);
        fl.phase = Phase::Send;
    }

    /// Submit: deposit every staged request. A lone deposit with
    /// nothing else posted uses the synchronous WRITE; otherwise each
    /// deposit is posted and left for [`reap`](Engine::reap).
    async fn submit(&self, sc: &mut Scratch) {
        let staged = |fl: &Flight| matches!(fl.phase, Phase::Send) && fl.op.is_none();
        let qp = self.c.qp();
        let (local, remote) = (&self.c.shared.client_req, &self.c.shared.req);
        let off = |fl: &Flight| self.c.shared.req_off(fl.slot);
        match sc.flights.iter().filter(|fl| staged(fl)).count() {
            0 => {}
            1 if !sc.posting() => {
                let fl = sc.flights.iter_mut().find(|fl| staged(fl));
                let fl = fl.expect("counted one staged flight");
                let done = qp
                    .try_write(self.thread, local, off(fl), remote, off(fl), fl.wire_len)
                    .await;
                self.deposited(fl, done.err());
            }
            _ => {
                for fl in sc.flights.iter_mut().filter(|fl| staged(fl)) {
                    let done = qp
                        .write_post(self.thread, local, off(fl), remote, off(fl), fl.wire_len)
                        .await;
                    let (stamp, len) = (sc.posts, fl.wire_len);
                    fl.op = Some(Posted { stamp, len, done });
                    sc.posts += 1;
                }
            }
        }
    }

    /// Reap: wait for the median-oldest posted op — the younger half
    /// keeps the out-bound engine busy meanwhile — then book every
    /// posted op that has finished: a deposit moves its flight to
    /// `Poll`, a fetch READ lands for the check stage.
    async fn reap(&self, sc: &mut Scratch) {
        sc.stamps.clear();
        let posted = sc.flights.iter().filter_map(|fl| fl.op.as_ref());
        sc.stamps.extend(posted.map(|op| op.stamp));
        if sc.stamps.is_empty() {
            return;
        }
        let mid = (sc.stamps.len() - 1) / 2;
        let median = *sc.stamps.select_nth_unstable(mid).1;
        let mut posted = sc.flights.iter().filter_map(|fl| fl.op.as_ref());
        let op = posted.find(|op| op.stamp == median);
        op.expect("a gathered stamp").done.wait(self.thread).await;
        for fl in &mut sc.flights {
            if !fl.op.as_ref().is_some_and(|op| op.done.is_done()) {
                continue;
            }
            let Posted { len, done, .. } = fl.op.take().expect("checked above");
            match fl.phase {
                Phase::Send => self.deposited(fl, done.error()),
                _ => self.fetched(fl, done.error(), len, "fetch_read"),
            }
        }
    }

    /// Books the completion of one deposit WRITE.
    fn deposited(&self, fl: &mut Flight, err: Option<VerbError>) {
        if let Some(e) = err {
            return self.faulted(fl, e);
        }
        fl.phase = Phase::Poll;
        fl.reply_primed = false;
        fl.probes = 0;
        fl.probe_armed = false;
        let fetch_deadline = self.policy.recovery.map(|_| self.now() + FETCH_DEADLINE);
        fl.attempt_deadline = fetch_deadline.map(|d| fl.clamp.map_or(d, |c| d.min(c)));
        self.span_mark(fl, "request_written");
    }

    /// What a verb error means for a call: with a recovery stage the
    /// attempt fails; without one it is absorbed (the NACK round trip
    /// advanced time; the deposit or fetch is repeated next round).
    fn faulted(&self, fl: &mut Flight, e: VerbError) {
        if self.policy.recovery.is_some() {
            self.note(fl, on::VERB_ERROR, "verb completed with error");
            return self.fail(fl, FailureCause::Verb(e));
        }
        assert!(
            self.c.qp().error_state().is_none(),
            "QP in the error state on a call with no recovery policy"
        );
    }

    /// Admission's probe stage: past the stamped deadline the verdict
    /// is (or shortly will be) `Shed`, so stop burning the in-bound
    /// engine on tight polling and probe at a widening, jittered pace;
    /// out of probes, shed locally.
    fn probe(&self, fl: &mut Flight) {
        let now = self.now();
        let due = matches!(fl.phase, Phase::Poll) && fl.op.is_none() && now >= fl.not_before;
        let expired = fl.stamp.is_some_and(|d| now > d);
        if self.policy.admission.is_none() || !due || !expired {
            return;
        }
        if std::mem::take(&mut fl.probe_armed) {
            return;
        }
        let ov = self.overload();
        if fl.probes >= MAX_PROBES {
            self.note(fl, on::LOCAL_SHED, "gave up probing for a verdict");
            return self.fail(fl, FailureCause::Rejected(RespStatus::Shed));
        }
        fl.probes += 1;
        let cap = SimSpan::nanos(ov.probe_pause.as_nanos().saturating_mul(8));
        let pace = RetryPolicy::exponential(MAX_PROBES, ov.probe_pause, cap, 0.25);
        let pause = pace.backoff_for(fl.probes, self.draw(fl));
        if !pause.is_zero() {
            fl.not_before = now + pause;
            fl.probe_armed = true;
        }
    }

    /// Poll: one fetch READ per deposited flight that is due and has
    /// none posted. A lone fetch with nothing else posted is
    /// synchronous; otherwise the fetches share one doorbell ring and
    /// are left for [`reap`](Engine::reap). In server-reply mode
    /// (one-slot rings only) the flight waits for the pushed reply
    /// instead.
    async fn poll(&self, sc: &mut Scratch, mode: Mode) {
        let now = self.now();
        let due = |fl: &Flight| {
            let idle = fl.op.is_none() && fl.outcome.is_none();
            matches!(fl.phase, Phase::Poll) && idle && now >= fl.not_before
        };
        if mode == Mode::ServerReply {
            for fl in sc.flights.iter_mut().filter(|fl| due(fl)) {
                self.await_reply(fl).await;
            }
            return;
        }
        let f = self.c.fetch_size.get();
        let stats = self.c.stats();
        match sc.flights.iter().filter(|fl| due(fl)).count() {
            0 => {}
            1 if !sc.posting() => {
                let fl = sc.flights.iter_mut().find(|fl| due(fl));
                let fl = fl.expect("counted one due flight");
                let done = self.read(self.c.shared.resp_off(fl.slot), f).await;
                if done.is_ok() {
                    stats.single_reads.incr();
                }
                self.fetched(fl, done.err(), f, "fetch_read");
            }
            _ => {
                let (local, remote) = (&self.c.shared.client_resp, &self.c.shared.resp);
                sc.entries.clear();
                for fl in sc.flights.iter().filter(|fl| due(fl)) {
                    let base = self.c.shared.resp_off(fl.slot);
                    let entry = (Rc::clone(local), base, Rc::clone(remote), base, f);
                    sc.entries.push(entry);
                }
                let qp = self.c.qp();
                qp.post_read_batch(self.thread, &sc.entries, &mut sc.posted)
                    .await;
                stats.doorbells.incr();
                stats.doorbell_reads.add(sc.posted.len() as u64);
                let polled = sc.flights.iter_mut().filter(|fl| due(fl));
                for (fl, done) in polled.zip(sc.posted.drain(..)) {
                    let (stamp, len) = (sc.posts, f);
                    fl.op = Some(Posted { stamp, len, done });
                    sc.posts += 1;
                }
            }
        }
    }

    /// Books the completion of one first-segment fetch READ of `len`
    /// bytes.
    fn fetched(&self, fl: &mut Flight, err: Option<VerbError>, len: usize, mark: &'static str) {
        if let Some(e) = err {
            return self.faulted(fl, e);
        }
        fl.landed = Some(len);
        fl.attempts += 1;
        self.span_mark(fl, mark);
        self.c.obs().fetch_bytes.add(len as u64);
    }

    /// Reply-mode poll: the landing zone is local, so a fresh deposit
    /// is checked at once; after that, block (idle — no busy polling in
    /// reply mode, which is the whole CPU saving of Figure 15) until a
    /// reply lands, with a fallback fetch covering the race where the
    /// server posted the response before it saw the mode flag.
    async fn await_reply(&self, fl: &mut Flight) {
        let cap = self.cfg().resp_capacity;
        if !std::mem::replace(&mut fl.reply_primed, true) {
            fl.landed = Some(cap);
            return;
        }
        let base = self.c.shared.resp_off(fl.slot);
        let landing = &self.c.shared.client_resp;
        let pushed = timeout(
            self.thread.handle(),
            REPLY_FALLBACK_POLL,
            landing.wait_remote_write(base..base + RESP_HDR),
        );
        if self.thread.idle_wait(pushed).await.is_some() {
            fl.landed = Some(cap);
            return;
        }
        self.note(fl, on::FALLBACK, "fallback fetch after reply-wait timeout");
        // The server pushes — and this fetch reads — the whole image,
        // so the check stage needs no second READ in reply mode.
        let f = self.c.fetch_size.get().max(cap);
        let done = self.read(base, f).await;
        if done.is_ok() {
            self.c.obs().fallback_fetches.incr();
        }
        self.fetched(fl, done.err(), f, "fallback_fetch_read");
    }

    /// Check: decode the landed header; on a match fetch the rest of an
    /// oversized response, verify the image, book the header's credits
    /// and epoch, and return the header to complete the call with — or,
    /// for a bounded call answered `Busy`/`Shed`/`Fenced`, fail the
    /// attempt.
    async fn check(&self, fl: &mut Flight, fetched: usize, mode: Mode) -> Option<RespHeader> {
        let cfg = self.cfg();
        self.thread.busy(cfg.check_cpu).await;
        let hdr = self.c.resp_hdr_at(fl.slot);
        if !self.c.accept_resp(&hdr, fl.chain.seq) {
            self.overrun(fl, mode).await;
            return None;
        }
        // The image to fetch and verify: wire header + payload + (with
        // integrity on) the trailing canary. A flipped size bit must
        // not drive the second READ past the registered region, so an
        // implausible footprint counts as torn.
        let guarded = cfg.integrity;
        let total = hdr.wire_len() + hdr.size as usize + if guarded { RESP_TRAILER } else { 0 };
        let mut verdict = Ok(());
        if guarded && total > cfg.resp_capacity {
            verdict = Err(IntegrityFault::Torn);
        } else if total > fetched {
            // Second fetch for the remainder (paper §3.2: only if the
            // real result exceeds the default fetch size).
            let rest = total - fetched;
            let done = self
                .read(self.c.shared.resp_off(fl.slot) + fetched, rest)
                .await;
            if let Err(e) = done {
                self.faulted(fl, e);
                return None;
            }
            self.span_mark(fl, "extra_fetch_read");
            self.c.obs().fetch_bytes.add(rest as u64);
            fl.extra_read = true;
        }
        if guarded && verdict.is_ok() {
            verdict = self.verify_fetched(fl.slot, &hdr);
        }
        if let Err(fault) = verdict {
            // Discard the fetched image: the next poll samples the
            // buffer afresh. Verdicts are verified too — a corrupt
            // fetch must not surface a spurious rejection.
            let incident = match fault {
                IntegrityFault::Torn => on::TORN,
                IntegrityFault::CrcMismatch => on::CRC_FAIL,
            };
            let what = format_args!("{fault:?} fetch discarded — refetching");
            self.note(fl, incident, what);
            fl.integrity_retries += 1;
            fl.corrupt += 1;
            return None;
        }
        if mode == Mode::ServerReply {
            self.span_mark(fl, "reply_received");
            // §3.2: the response carries the server's process time; if
            // it got short again, remote fetching is profitable — switch
            // back.
            let quick = SimSpan::micros(hdr.time_us as u64) < SWITCH_BACK_BELOW;
            if cfg.enable_mode_switch && quick {
                self.switch_mode(fl, Mode::RemoteFetch).await;
            }
        }
        if !fl.counted_over {
            self.c.consec_over.set(0);
        }
        self.c.note_accepted(&hdr);
        if self.policy.bounded() && hdr.status != RespStatus::Ok {
            let (incident, what) = match hdr.status {
                RespStatus::Busy => (on::BUSY_SEEN, "server answered Busy"),
                RespStatus::Fenced => (on::FENCED_SEEN, "server fenced a stale-epoch request"),
                _ => (on::SHED_SEEN, "server shed the request"),
            };
            self.note(fl, incident, what);
            self.fail(fl, FailureCause::Rejected(hdr.status));
            return None;
        }
        Some(hdr)
    }

    /// Verifies one fully fetched response image in `slot`'s landing
    /// zone (header from the first segment, payload + trailing canary
    /// as currently fetched, footprint already known to fit the
    /// buffer). `Err` carries the failure class.
    fn verify_fetched(&self, slot: usize, hdr: &RespHeader) -> Result<(), IntegrityFault> {
        let payload = self.c.shared.resp_off(slot) + hdr.wire_len();
        let canary = payload + hdr.size as usize;
        self.c.shared.client_resp.with_bytes(|bytes| {
            verify_response(
                hdr,
                &bytes[payload..canary],
                &bytes[canary..canary + RESP_TRAILER],
            )
        })
    }

    /// A missed fetch past `R` failed retries counts once per call. On
    /// a one-slot ring that is the hybrid switch's input (§3.2 defines
    /// it per call on a connection with one request outstanding): two
    /// consecutive overrunning calls flip the connection to
    /// server-reply. With more slots a slow call no longer means an
    /// idle client, so the overrun stays telemetry.
    async fn overrun(&self, fl: &mut Flight, mode: Mode) {
        let r = self.c.retry_threshold.get();
        if mode != Mode::RemoteFetch || fl.attempts <= r || fl.counted_over {
            return;
        }
        fl.counted_over = true;
        let cfg = self.cfg();
        if cfg.window == 1 {
            if self.policy.bounded() || !cfg.enable_mode_switch {
                return;
            }
            let over = self.c.consec_over.get() + 1;
            self.c.consec_over.set(over);
            if over >= CONSECUTIVE_BEFORE_SWITCH {
                self.switch_mode(fl, Mode::ServerReply).await;
            }
            return;
        }
        let (slot, fetches) = (fl.slot, fl.attempts);
        let what = format_args!("slot {slot} overran R={r} after {fetches} fetches");
        self.note(fl, on::SLOT_STALL, what);
    }

    /// Recovery's bounds on one attempt's fetch: a streak of corrupt
    /// fetches or the per-attempt deadline fails it.
    fn bound_attempt(&self, fl: &mut Flight) {
        let polling = matches!(fl.phase, Phase::Poll) && fl.outcome.is_none();
        if self.policy.recovery.is_none() || !polling {
            return;
        }
        if fl.corrupt >= VERIFY_RETRIES {
            let what = "verify-and-refetch budget exhausted";
            self.note(fl, on::CORRUPT_ATTEMPT, what);
            fl.force_reconnect = true;
            self.fail(fl, FailureCause::Corrupt);
        } else if fl.attempt_deadline.is_some_and(|d| self.now() >= d) {
            self.note(fl, on::DEADLINE, "attempt deadline expired");
            self.fail(fl, FailureCause::Deadline);
        }
    }

    /// One attempt failed: give up when the attempt budget or the
    /// call's deadline is spent, else schedule the jittered backoff
    /// (never past the deadline) before the resubmission.
    fn fail(&self, fl: &mut Flight, cause: FailureCause) {
        let retry = match self.policy.recovery {
            Some(rec) => rec.retry,
            None => self.overload().retry,
        };
        fl.failed += 1;
        if fl.failed >= retry.max_attempts.max(1) {
            return self.give_up(fl, cause);
        }
        let mut pause = retry.backoff_for(fl.failed, self.draw(fl));
        let now = self.now();
        if let Some(d) = fl.clamp {
            if now >= d {
                return self.give_up(fl, cause);
            }
            pause = pause.min(d.since(now));
        }
        fl.not_before = now + pause;
        fl.phase = Phase::Backoff {
            fresh: matches!(cause, FailureCause::Rejected(_)),
            last: cause,
        };
    }

    /// Settles a call that exhausted its retry schedule. Under
    /// admission a final rejection is an expected outcome, not a fault:
    /// the call ends `Ok` with the verdict and empty data. Gave-up
    /// calls feed neither the throughput nor the latency stats.
    fn give_up(&self, fl: &mut Flight, last: FailureCause) {
        let out = match last {
            FailureCause::Rejected(status) if self.policy.admission.is_some() => {
                let what = "call gave up after repeated rejections";
                self.note(fl, on::GIVE_UP, what);
                let mut out = CallResult::rejected(status, self.now() - fl.t0);
                out.info.attempts = fl.attempts;
                out.info.extra_read = fl.extra_read;
                out.info.integrity_retries = fl.integrity_retries;
                Ok(out)
            }
            _ => {
                self.note(fl, on::FAILED_CALL, "call exhausted its budget");
                Err(RpcError {
                    attempts: fl.failed,
                    last,
                })
            }
        };
        self.c.obs().span_end(fl.slot, self.now(), "gave_up");
        fl.outcome = Some(out);
    }

    /// Complete: read the payload out of the landing zone over `data`
    /// and book the finished call against the stats, the observer and
    /// its span — the one place a call is accounted, whatever stages it
    /// went through.
    fn complete(&self, fl: &Flight, hdr: &RespHeader, mode: Mode, mut data: Vec<u8>) -> CallResult {
        let payload = self.c.shared.resp_off(fl.slot) + hdr.wire_len();
        let len = hdr.size as usize;
        data.clear();
        // Grown to the largest payload seen, no further: one buffer
        // per ring slot stays in the pool for good.
        data.reserve_exact(len);
        let landing = &self.c.shared.client_resp;
        landing.with_bytes(|b| data.extend_from_slice(&b[payload..payload + len]));
        let out = CallResult {
            data,
            info: CallInfo {
                attempts: fl.attempts,
                extra_read: fl.extra_read,
                completed_in: mode,
                // Spans the whole call, pauses and backoffs included.
                latency: self.now() - fl.t0,
                server_time_us: hdr.time_us,
                status: hdr.status,
                integrity_retries: fl.integrity_retries,
            },
        };
        let info = &out.info;
        // Every attempt but a successful final fetch was a retry.
        let successes = match mode {
            Mode::RemoteFetch => 1,
            Mode::ServerReply => 0,
        };
        let retries = fl.attempts.saturating_sub(successes) as u64;
        let obs = self.c.obs();
        obs.completed(self.now(), info, retries);
        obs.span_end(fl.slot, self.now(), "completed");
        out
    }

    /// Re-establishes the QP via the installed factory (charging the
    /// reconnect CPU cost). Without a factory the old QP stays in place.
    async fn reestablish_qp(&self, fl: &mut Flight) {
        let fresh = {
            let factory = self.c.reconnect.borrow();
            factory.as_ref().map(|f| f())
        };
        let Some(fresh) = fresh else { return };
        // Connection handshake + MR re-registration.
        self.thread.busy(RECONNECT_CPU).await;
        *self.c.qp.borrow_mut() = fresh;
        self.note(fl, on::RECONNECT, "QP re-established");
    }

    /// Flips the connection's transport mode: tells the server through
    /// its mode flag, then books the switch.
    async fn switch_mode(&self, fl: &mut Flight, to: Mode) {
        let (c, sh) = (self.c, &self.c.shared);
        let byte = match to {
            Mode::RemoteFetch => MODE_REMOTE_FETCH,
            Mode::ServerReply => MODE_SERVER_REPLY,
        };
        sh.client_mode.write_local(0, &[byte]);
        let qp = c.qp();
        qp.write(self.thread, &sh.client_mode, 0, &sh.mode, 0, 1)
            .await;
        c.mode.set(to);
        c.consec_over.set(0);
        fl.reply_primed = false;
        self.span_mark(fl, "mode_switched");
        c.obs().switched(self.now(), &mut fl.chain, to);
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::{SimSpan, Simulation};

    use super::{Flight, Scratch};
    use crate::conn::{connect, RfpConfig};
    use crate::server::serve_loop;

    /// The payload pool holds at most `W` buffers however many calls
    /// ride the ring: a result's buffer comes back once the sink has
    /// read it, and a batch of many more calls than `W`, of growing
    /// sizes, never needs more than its flights hold at once.
    #[test]
    fn the_payload_pool_never_outgrows_the_window() {
        const W: usize = 8;
        let mut sim = Simulation::new(3);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (server, client) = (cluster.machine(0), cluster.machine(1));
        let cfg = RfpConfig {
            window: W,
            ..RfpConfig::default()
        };
        let (cl, sc) = connect(&client, &server, cluster.qp(1, 0), cluster.qp(0, 1), cfg);
        sim.spawn(serve_loop(
            server.thread("server"),
            vec![Rc::new(sc)],
            |req: &[u8]| (req.to_vec(), SimSpan::nanos(500)),
            SimSpan::nanos(100),
        ));
        let cl = Rc::new(cl);
        let (c, thread) = (Rc::clone(&cl), client.thread("client"));
        sim.spawn(async move {
            for round in 1..=20usize {
                let reqs: Vec<Vec<u8>> = (0..5 * W).map(|i| vec![i as u8; 8 * round]).collect();
                let outs = c.call_pipelined(&thread, &reqs).await;
                assert!(reqs.iter().zip(&outs).all(|(req, out)| out.data == *req));
            }
        });
        sim.run_for(SimSpan::millis(5));
        assert_eq!(cl.stats().calls(), 20 * 5 * W as u64, "every call settled");
        let pooled = cl.scratch.borrow().payloads.len();
        assert!(
            (2..=W).contains(&pooled),
            "{pooled} pooled payload buffers, W = {W}"
        );
    }

    /// Slots are staged in ring order, and a held tail blocks staging
    /// even with every other slot free.
    #[test]
    fn take_slot_waits_for_a_held_tail() {
        let mut sc = Scratch::default();
        for slot in 0..4 {
            assert_eq!(sc.take_slot(4), Some(slot));
            let fl = Flight {
                slot,
                ..Flight::default()
            };
            sc.flights.push(fl);
        }
        // Slots 1–3 settle before slot 0, the tail.
        sc.flights.retain(|fl| fl.slot == 0);
        assert_eq!(sc.take_slot(4), None);
        sc.flights.clear();
        assert_eq!(sc.take_slot(4), Some(0));
        assert_eq!(sc.take_slot(4), Some(1));
    }
}
