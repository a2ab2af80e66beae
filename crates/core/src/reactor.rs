//! The multi-core serve reactor: the one server-side ring drain.
//!
//! A [`Reactor`] owns N simulated cores, each core owns a disjoint set
//! of connections (EREW partitioning — keys hash to a partition, a
//! partition's connections pin to its core, so the common case touches
//! no shared state), and every core, every thief and every
//! `*_serve_loop` preset drains request rings through the same
//! scan (`Shared::scan`).
//!
//! # Scan order
//!
//! Per connection: **claim** it, then up to `window` times: **crash
//! check** → receive (one look, at the ring's head — or, on the one
//! ring the sweep scans in full, a pick that rotates from sweep to
//! sweep, round-robin looks until one is pending) → **verdict** →
//! reject on the spot, **serve in place**, or — the owner under
//! admission — **queue**. After the sweep the owner drains its
//! queue, awaits the handler's **commit**, and releases the replies the
//! handler held. Every reply goes into the slot captured at pickup (the
//! reply marker is restored with no intervening await), so queued,
//! stolen and held requests of one connection never cross responses.
//!
//! The synchronous skeleton of that order — claims, receives, crash
//! checks, budget, the looks and their CPU charge — is a cursor in each
//! core's sweep (`conn::Sweep`), a clocked event sink: a look is never
//! a poll of this task, which resumes only at a pending slot, a tripped
//! crash check or the end of the sweep, and is an executor event only
//! where it can stop the sweep or shares its instant with another
//! entry (DESIGN §19 "Lazy looks"). Everything
//! that awaits — pickup and its `Fenced` answer, verdicts, service, the
//! queue, commit, stealing, spin and nap — is the task code below.
//!
//! Two stages, each present or absent, never selected by a caller:
//!
//! * **Admission** — present iff the core's connections carry overload
//!   control. Rejections (`Shed` past the stamped deadline, `Busy`
//!   beyond the queue bound) are answered during the sweep, admitted
//!   requests run after it, so nothing the server began executing is
//!   ever shed; every reply is stamped with a credit level.
//!   [`serve_loop_tenant`](crate::serve_loop_tenant) scopes bound and
//!   credits per tenant — the one bit of policy the reactor cannot read
//!   off its connections.
//! * **Hold-and-commit** — present iff the handler uses it (see
//!   [`ScanHandler`]). Absent, the scan boxes no future and queues
//!   nothing.
//!
//! # Steal protocol
//!
//! Pure EREW collapses under zipfian skew: the core owning the hot
//! keys saturates while its siblings idle, and closed-loop clients
//! throttle the whole fleet down to the hot core's capacity. With
//! `steal` enabled, a core whose own scan found nothing goes hunting:
//!
//! 1. **Run-queue steal** — take admitted-but-unprocessed requests
//!    from a sibling's run queue (thief end, most recently admitted
//!    first), paying the modeled cross-core handoff (`HANDOFF_COST`)
//!    per request.
//! 2. **Ring steal** — run the scan over a loaded sibling's
//!    connections, still under the *owner's* admission rule and with
//!    the owner's handler (its partition of the store), serving in
//!    place. A core's backlog is what its last scan found plus what
//!    siblings stole from it since the scan before, so rings that
//!    thieves keep empty still mark it loaded. The pass takes as many
//!    requests as the victim's backlog exceeds the mean of every core's,
//!    and never fewer than what is left of `STEAL_BATCH` (8): under
//!    uniform load the excess is about zero and a pass takes one batch;
//!    under skew one pass drains the hot core's surplus.
//!
//! Claims are plain `Cell<bool>` test-and-sets: the simulation is
//! cooperatively single-threaded, so any code run between awaits is
//! atomic, and a claimed connection is simply skipped by whoever
//! arrives second — each connection's in-flight marker stays
//! single-writer.
//!
//! # Fidelity
//!
//! A single-core reactor over one ring, or over one-slot rings, replays
//! the pre-reactor loops *event for event* — scan orders, crash checks,
//! busy charges, credit stamps, idle backoff; `tests/reactor_identity.rs`
//! pins registry CSV, trace and payload equality against frozen copies
//! of them.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use rfp_rnic::ThreadCtx;
use rfp_simnet::{
    CoreLoad, CoreSkewReport, Counter, FlightRecorder, Gauge, MetricsRegistry, Severity, SimSpan,
    SimTime,
};

use crate::conn::{RfpServerConn, Ring, Stop, Sweep};
use crate::header::RespStatus;
use crate::overload::{admit, credits_for, Admission, OverloadConfig, TenantCredits, CREDIT_MAX};
use crate::server::{IdlePolicy, Reply, ScanHandler};

/// Modeled cost of moving one request across cores — the cache-line
/// migration, the remote-queue touch, the handler state pulled cold —
/// charged as busy time on the thief per stolen request, so stealing
/// only wins while the victim is more backed up than that.
const HANDOFF_COST: SimSpan = SimSpan::nanos(150);

/// Fewest requests a steal pass may take before re-scanning its own
/// partition — all a run-queue steal takes, and a ring steal's budget
/// when the victim's backlog is no more than the average (module docs,
/// "Steal protocol"): one client draw's worth per core at the cores
/// rig's default window of 8.
const STEAL_BATCH: usize = 8;

/// Reactor-wide knobs.
#[derive(Default)]
pub struct ReactorConfig {
    /// Lets idle cores steal work from loaded siblings.
    pub steal: bool,
    /// Per-core gauges/counters land here when set
    /// (`serve.core.<i>.steals`, `serve.core.<i>.queue_depth`, …).
    pub registry: Option<MetricsRegistry>,
    /// Steal events are recorded here when set.
    pub recorder: Option<FlightRecorder>,
}

/// One core's share of the server: its thread, the connections whose
/// keys it owns, and the handler closed over its store partition.
pub struct CoreSpec {
    /// The simulated core.
    pub thread: Rc<ThreadCtx>,
    /// Connections pinned to this core (EREW: their clients only send
    /// keys this core's partition owns).
    pub conns: Vec<Rc<RfpServerConn>>,
    /// The application handler for this core's partition.
    pub handler: Box<dyn ScanHandler>,
}

/// One picked-up request that outlives its pickup: everything
/// needed to answer it later (or from another core) without re-touching
/// the connection's in-flight marker.
struct Pending {
    /// Core that owns the request's connection (indexes `Shared::cores`).
    owner: usize,
    /// Connection index within the owner's set.
    conn: usize,
    /// Ring slot captured at pickup — the reply target.
    slot: usize,
    /// Tenant stamp captured at pickup (scopes the credit stamp).
    tenant: Option<u32>,
    /// An admitted request's payload on the run queue; a held reply's
    /// response payload afterwards.
    data: Vec<u8>,
}

struct CoreState {
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    /// The connections' request rings, in `conns` order: what a sweep
    /// of this core's domain visits.
    rings: Rc<[Rc<Ring>]>,
    /// This core's sweep, whoever's rings it visits.
    sweep: Rc<Sweep>,
    handler: RefCell<Box<dyn ScanHandler>>,
    /// The admission stage: the connections' overload knobs, present
    /// iff they carry overload control.
    admission: Option<OverloadConfig>,
    /// Admitted requests awaiting service. The owner pops the front
    /// (admission order is service order, which shedding safety relies
    /// on); a thief steals the back (the youngest request is the least
    /// likely to be cache-warm on the owner, so the cheapest to move).
    runq: RefCell<VecDeque<Pending>>,
    /// Replies the handler held, released after this scan's commit.
    held: RefCell<Vec<Pending>>,
    credits: TenantCredits,
    /// Credits advertised on responses, from the previous scan's
    /// backlog (the global admission rule).
    advertised: Cell<u16>,
    /// Requests the most recent scan found pending, plus those siblings
    /// stole from this core's domain since the scan before — the
    /// backlog signal thieves use to pick a loaded victim
    /// (`serve.core.<i>.queue_depth`).
    backlog: Rc<Gauge>,
    /// Requests this core executed, its own plus stolen ones
    /// (`serve.core.<i>.served`).
    served: Rc<Counter>,
    /// Requests this core executed on siblings' behalf
    /// (`serve.core.<i>.steals`).
    steals: Rc<Counter>,
    /// Simulated time those steals' handoffs cost
    /// (`serve.core.<i>.handoff_ns`).
    handoff_ns: Rc<Counter>,
    /// Requests siblings took from this core's domain.
    stolen: Cell<u64>,
    /// `stolen` as of this core's previous scan.
    stolen_mark: Cell<u64>,
}

#[derive(Default)]
struct ScanOutcome {
    /// A response (service or admission rejection) was produced.
    served_any: bool,
    crashed: bool,
    /// Requests found pending.
    backlog: usize,
    /// Requests executed in place (what a thief's batch counts).
    executed: usize,
}

/// What to do with a request just pulled off a ring, decided
/// synchronously by the owning core's admission stage.
enum Verdict {
    Run,
    Reject(RespStatus, u16),
}

struct Shared {
    /// Admission charges per-tenant credit domains instead of the one
    /// global queue bound (set by `serve_loop_tenant` alone).
    tenant_domains: bool,
    idle: IdlePolicy,
    steal: bool,
    recorder: Option<FlightRecorder>,
    cores: Vec<CoreState>,
}

/// N cores serving one RFP server's connections (see module docs).
///
/// Construct with [`Reactor::new`], then spawn [`Reactor::run_core`]
/// once per core. The handle stays usable afterwards for telemetry
/// ([`Reactor::skew_report`] and the per-core accessors).
pub struct Reactor {
    shared: Rc<Shared>,
}

impl Reactor {
    /// Builds a reactor over `cores`. Each core's admission stage is
    /// derived from its connections: present iff they carry overload
    /// control.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, any core owns no connections, or a
    /// core's connections disagree on whether overload control is on.
    pub fn new(cfg: ReactorConfig, cores: Vec<CoreSpec>, idle: impl Into<IdlePolicy>) -> Reactor {
        assert!(!cores.is_empty(), "reactor with no cores");
        let states = cores
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                assert!(
                    !spec.conns.is_empty(),
                    "reactor core {i} owns no connections"
                );
                let admission = spec.conns[0].overload().cloned();
                assert!(
                    spec.conns
                        .iter()
                        .all(|c| c.overload().is_some() == admission.is_some()),
                    "mixed overload configs on one server thread"
                );
                // The registry's cells when one is configured, so each
                // number is booked once; private cells otherwise.
                let reg = cfg.registry.as_ref();
                let counter = |name: &str| {
                    reg.map_or_else(Rc::default, |r| {
                        r.counter(&format!("serve.core.{i}.{name}"))
                    })
                };
                let backlog = reg.map_or_else(Rc::default, |r| {
                    r.gauge(&format!("serve.core.{i}.queue_depth"))
                });
                CoreState {
                    rings: spec.conns.iter().map(|c| Rc::clone(c.ring())).collect(),
                    sweep: Sweep::new(spec.thread.handle().clone()),
                    thread: spec.thread,
                    conns: spec.conns,
                    handler: RefCell::new(spec.handler),
                    advertised: Cell::new(CREDIT_MAX),
                    admission,
                    runq: RefCell::default(),
                    held: RefCell::default(),
                    credits: TenantCredits::new(),
                    steals: counter("steals"),
                    backlog,
                    served: counter("served"),
                    handoff_ns: counter("handoff_ns"),
                    stolen: Cell::new(0),
                    stolen_mark: Cell::new(0),
                }
            })
            .collect();
        Reactor {
            shared: Rc::new(Shared {
                tenant_domains: false,
                idle: idle.into(),
                steal: cfg.steal,
                recorder: cfg.recorder,
                cores: states,
            }),
        }
    }

    /// The one-core, no-steal reactor behind every `*_serve_loop`
    /// preset: `thread` scanning `conns` with `handler`.
    pub fn single(
        thread: Rc<ThreadCtx>,
        conns: Vec<Rc<RfpServerConn>>,
        handler: impl ScanHandler + 'static,
        idle: impl Into<IdlePolicy>,
    ) -> Reactor {
        let core = CoreSpec {
            thread,
            conns,
            handler: Box::new(handler),
        };
        Reactor::new(ReactorConfig::default(), vec![core], idle)
    }

    /// Scopes the admission stage per tenant, before any core runs.
    ///
    /// # Panics
    ///
    /// Panics if a core has no admission stage (per-tenant credit
    /// domains are an overload-layer feature).
    pub(crate) fn per_tenant(mut self) -> Reactor {
        let shared = Rc::get_mut(&mut self.shared).expect("reactor is not running yet");
        assert!(
            shared.cores.iter().all(|c| c.admission.is_some()),
            "serve_loop_tenant requires overload control (per-tenant credit domains)"
        );
        shared.tenant_domains = true;
        self
    }

    /// The future driving core `core` — spawn one per core.
    pub fn run_core(&self, core: usize) -> impl Future<Output = ()> {
        assert!(core < self.shared.cores.len(), "no such core");
        let shared = Rc::clone(&self.shared);
        async move { core_loop(shared, core).await }
    }

    /// One turn of core `core` — its scan, then a steal pass if that
    /// found nothing — for a caller that interleaves the scan with a
    /// loop of its own instead of spawning [`run_core`](Self::run_core)
    /// (a backup draining its log channel). Returns whether any
    /// response was produced.
    pub async fn turn(&self, core: usize) -> bool {
        self.shared
            .turn(core, &self.shared.cores[core].thread)
            .await
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.shared.cores.len()
    }

    /// Requests core `i` executed (its own plus stolen ones).
    pub fn served(&self, i: usize) -> u64 {
        self.shared.cores[i].served.get()
    }

    /// Requests core `i` executed on siblings' behalf.
    pub fn steals(&self, i: usize) -> u64 {
        self.shared.cores[i].steals.get()
    }

    /// Cross-core handoffs charged so far: one per stolen request.
    pub fn handoffs(&self) -> u64 {
        (0..self.cores()).map(|i| self.steals(i)).sum()
    }

    /// Total simulated nanoseconds burned on cross-core handoffs.
    pub fn handoff_ns(&self) -> u64 {
        self.handoffs() * HANDOFF_COST.as_nanos()
    }

    /// Point-in-time per-core load rollup (the `CoreSkew` health view).
    pub fn skew_report(&self, now: SimTime) -> CoreSkewReport {
        CoreSkewReport {
            at: now,
            cores: self
                .shared
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| CoreLoad {
                    core: i as u32,
                    served: c.served.get(),
                    queue_depth: c.backlog.get() as u64,
                    stolen: c.stolen.get(),
                })
                .collect(),
        }
    }

    /// Zeroes every per-core counter and utilization clock (start of a
    /// measurement window after warm-up).
    pub fn reset_measurements(&self) {
        for c in &self.shared.cores {
            c.served.reset();
            c.steals.reset();
            c.handoff_ns.reset();
            c.stolen.set(0);
            c.stolen_mark.set(0);
            c.thread.reset_utilization();
        }
    }
}

async fn core_loop(shared: Rc<Shared>, me: usize) {
    let thread = Rc::clone(&shared.cores[me].thread);
    let mut nap = SimSpan::ZERO;
    loop {
        // A crashed machine runs no software: park (idle, not busy)
        // until the restart clears the flag.
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(
                    thread
                        .handle()
                        .sleep(shared.idle.spin.max(SimSpan::micros(1))),
                )
                .await;
            continue;
        }
        if shared.turn(me, &thread).await {
            nap = SimSpan::ZERO;
            continue;
        }
        thread.busy(shared.idle.spin).await;
        nap = shared.idle.next_nap(nap);
        if !nap.is_zero() {
            thread.idle_wait(thread.handle().sleep(nap)).await;
        }
    }
}

impl Shared {
    /// Moves one request from `victim`'s domain to core `me`: the
    /// handoff's busy time on the thief, then the books.
    async fn hand_off(&self, me: usize, victim: usize, thread: &ThreadCtx) {
        thread.busy(HANDOFF_COST).await;
        let core = &self.cores[me];
        core.steals.incr();
        core.handoff_ns.add(HANDOFF_COST.as_nanos());
        let v = &self.cores[victim];
        v.stolen.set(v.stolen.get() + 1);
        if let Some(rec) = &self.recorder {
            rec.record(
                thread.now(),
                None,
                0,
                Severity::Info,
                "core.steal",
                format!("core {me} stole work from core {victim}"),
            );
        }
    }

    /// The verdict of `owner`'s admission stage on the request `conn`
    /// just delivered. Synchronous — must run with no await since that
    /// pickup.
    fn admission(&self, owner: usize, conn: &RfpServerConn, now: SimTime) -> Verdict {
        let core = &self.cores[owner];
        let Some(ov) = &core.admission else {
            return Verdict::Run;
        };
        let (deadline, tenant) = (conn.current_deadline(), conn.current_tenant());
        let verdict = if self.tenant_domains {
            core.credits.admit(ov, now, deadline, tenant)
        } else {
            admit(ov, now, deadline, core.runq.borrow().len())
        };
        match verdict {
            Admission::Admit => Verdict::Run,
            // Out of queue room: advertise zero so the client backs off
            // before resubmitting.
            Admission::Busy => Verdict::Reject(RespStatus::Busy, 0),
            Admission::Shed => Verdict::Reject(RespStatus::Shed, self.credit_stamp(owner, tenant)),
        }
    }

    /// The credit level a response to `tenant` carries right now: the
    /// sender's own domain backlog this scan under per-tenant domains,
    /// else the level the owner's last completed sweep advertised — so
    /// a `Shed` issued mid-sweep is stamped from the *current* scan
    /// there and from the *previous* one here (`reactor_identity.rs`
    /// pins both). Unused (zero, the legacy fill) without the stage.
    fn credit_stamp(&self, owner: usize, tenant: Option<u32>) -> u16 {
        let core = &self.cores[owner];
        if self.tenant_domains {
            core.credits.credits(tenant)
        } else {
            core.advertised.get()
        }
    }

    /// Readies `p`'s connection for the reply to `p`: credits stamped
    /// (when the admission stage is present) and the reply marker back
    /// on `p`'s slot. The caller posts with no await in between — the
    /// marker is connection-global and any concurrent pickup moves it.
    fn aim(&self, p: &Pending) -> &RfpServerConn {
        let core = &self.cores[p.owner];
        let conn = &core.conns[p.conn];
        if core.admission.is_some() {
            conn.set_advertised_credits(self.credit_stamp(p.owner, p.tenant));
        }
        conn.set_reply_slot(p.slot);
        conn
    }

    /// The shared slot-service epilogue: run the owner's handler,
    /// charge the processing span, honor a mid-service crash, and send,
    /// hold or refuse as the handler said, into the request's own slot.
    /// Returns `None` if the machine crashed mid-service (the half-done
    /// work dies with it; the client's resubmission redelivers after
    /// the restart), else whether the request was executed.
    async fn service_one(&self, me: usize, thread: &ThreadCtx, mut p: Pending) -> Option<bool> {
        let core = &self.cores[p.owner];
        let (reply, process) = core.handler.borrow_mut().serve(&p.data);
        if !process.is_zero() {
            thread.busy(process).await;
        }
        match reply {
            // A refusal is a verdict, posted like the admission
            // stage's: on the spot, whatever the machine's state.
            Reply::Refuse(status) => {
                self.aim(&p).reject(thread, status).await;
                return Some(false);
            }
            _ if thread.machine().faults().is_crashed() => return None,
            Reply::Send(resp) => self.aim(&p).send(thread, &resp).await,
            Reply::Hold(resp) => {
                // The owner alone commits and releases: N-core
                // replication is out of scope.
                assert!(
                    me == p.owner,
                    "a core whose handler holds replies cannot be a steal victim"
                );
                p.data = resp;
                core.held.borrow_mut().push(p);
            }
        }
        self.cores[me].served.incr();
        Some(true)
    }

    /// The ring drain (module docs, "Scan order"): core `me` sweeps
    /// `owner`'s connections. The owner (`me == owner`) queues what its
    /// admission stage admits, drains the queue after the sweep, then
    /// commits and releases held replies; a thief serves in place, at
    /// most `budget` requests, paying the handoff for each.
    async fn scan(
        &self,
        me: usize,
        owner: usize,
        thread: &Rc<ThreadCtx>,
        budget: usize,
    ) -> ScanOutcome {
        let core = &self.cores[owner];
        let crashed = || thread.machine().faults().is_crashed();
        let stolen = me != owner;
        let queue = core.admission.is_some() && !stolen;
        let mut out = ScanOutcome::default();
        if self.tenant_domains && !stolen {
            core.credits.begin_scan();
        }
        // The claims, receives, crash checks and slot looks run on the
        // sweep's clock; this task resumes at each pending slot.
        let sweep = &self.cores[me].sweep;
        sweep.begin(thread, &core.rings, true, budget);
        loop {
            let (ci, slot, hdr) = match sweep.next(out.executed).await {
                Stop::Hit { conn, slot, hdr } => (conn, slot, hdr),
                Stop::Crashed => {
                    out.crashed = true;
                    break;
                }
                Stop::End => break,
            };
            let conn = &core.conns[ci];
            let Some(req) = conn.pickup(thread, slot, hdr).await else {
                continue;
            };
            sweep.took();
            out.backlog += 1;
            let p = Pending {
                owner,
                conn: ci,
                slot,
                tenant: conn.current_tenant(),
                data: req,
            };
            match self.admission(owner, conn, thread.now()) {
                Verdict::Reject(status, credits) => {
                    conn.set_advertised_credits(credits);
                    conn.reject(thread, status).await;
                    out.served_any = true;
                }
                Verdict::Run if queue => core.runq.borrow_mut().push_back(p),
                Verdict::Run => {
                    if stolen {
                        self.hand_off(me, owner, thread).await;
                    }
                    match self.service_one(me, thread, p).await {
                        Some(executed) => {
                            out.served_any |= executed;
                            out.executed += executed as usize;
                        }
                        None => {
                            out.crashed = true;
                            sweep.abort();
                            break;
                        }
                    }
                }
            }
        }
        if stolen {
            return out;
        }
        if core.admission.is_some() {
            // Credits advertised on the *next* scan's rejections and
            // this batch's responses come from this scan's backlog —
            // the freshest level the server knows.
            core.advertised.set(credits_for(out.backlog));
        }
        if out.backlog == 0 {
            // Nothing picked up: nothing was queued, logged or held.
            return out;
        }
        // Admission is final — nothing admitted is ever shed — but a
        // crash drops whatever is still queued or held (the legacy
        // batch vector died with the scan); already-recv'd requests are
        // redelivered by resubmission after the restart.
        while !out.crashed && !crashed() {
            let Some(p) = core.runq.borrow_mut().pop_front() else {
                break;
            };
            match self.service_one(me, thread, p).await {
                Some(executed) => out.served_any |= executed,
                None => out.crashed = true,
            }
        }
        core.runq.borrow_mut().clear();
        let commit = core.handler.borrow_mut().commit();
        if let Some(commit) = commit {
            commit.await;
        }
        for p in core.held.take() {
            if crashed() {
                break;
            }
            self.aim(&p).send(thread, &p.data).await;
        }
        out
    }

    /// One turn of core `me`: its own scan, then — only if that left it
    /// idle, and never on a crashed machine — a steal pass. Returns
    /// whether any response was produced.
    async fn turn(&self, me: usize, thread: &Rc<ThreadCtx>) -> bool {
        let scan = self.scan(me, me, thread, usize::MAX).await;
        let core = &self.cores[me];
        // What thieves took since the previous scan was backlog too: a
        // hot core whose rings they keep empty must stay their victim.
        let stolen = core.stolen.get();
        let backlog = scan.backlog as u64 + stolen - core.stolen_mark.replace(stolen);
        core.backlog.set(backlog as i64);
        if scan.served_any || scan.crashed || !self.steal {
            return scan.served_any;
        }
        self.steal_pass(me, thread).await
    }

    /// One steal pass by an idle core: first sibling run queues, then
    /// loaded siblings' rings. Returns whether any response (service
    /// or rejection) was produced.
    async fn steal_pass(&self, me: usize, thread: &Rc<ThreadCtx>) -> bool {
        let n = self.cores.len();
        let mut taken = 0;
        let mut any = false;
        for k in 1..n {
            let v = (me + k) % n;
            let victim = &self.cores[v];
            // (a) Admitted-but-unprocessed work parked on the victim's
            // run queue. The victim already made the admission call;
            // the thief just executes, paying the handoff.
            while taken < STEAL_BATCH {
                if thread.machine().faults().is_crashed() {
                    return any;
                }
                let Some(p) = victim.runq.borrow_mut().pop_back() else {
                    break;
                };
                self.hand_off(me, v, thread).await;
                let Some(executed) = self.service_one(me, thread, p).await else {
                    return any;
                };
                taken += executed as usize;
                any |= executed;
            }
            if taken >= STEAL_BATCH {
                break;
            }
            // (b) Ring backlog: only victims whose last scan actually
            // found work — polling an idle sibling's rings would burn
            // thief CPU for nothing.
            let backlog = victim.backlog.get() as usize;
            if backlog == 0 {
                continue;
            }
            // The budget is the victim's excess over the average
            // backlog — about zero under uniform load, the hot core's
            // surplus under skew — and never less than the batch left.
            let mean = self
                .cores
                .iter()
                .map(|c| c.backlog.get() as usize)
                .sum::<usize>()
                / n;
            let budget = (STEAL_BATCH - taken).max(backlog.saturating_sub(mean));
            let ring = self.scan(me, v, thread, budget).await;
            taken += ring.executed;
            any |= ring.served_any;
            if ring.crashed {
                break;
            }
        }
        any
    }
}
