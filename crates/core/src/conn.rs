//! Connection setup: buffer pairs, configuration, and the server side.
//!
//! An RFP connection between one client thread and a server machine
//! consists of (Figure 7):
//!
//! * a **request buffer** in server memory — the client deposits requests
//!   with one-sided WRITE (in-bound at the server),
//! * a **response buffer** in server memory — the server posts results
//!   locally; the client fetches them with one-sided READ (again
//!   in-bound at the server),
//! * a **mode flag** in server memory — the client flips it between
//!   remote-fetch and server-reply (§3.2's hybrid mechanism),
//! * a client-local **response landing zone** — the target of the
//!   server's out-bound WRITE when the connection is in server-reply
//!   mode, and the destination of remote fetches otherwise.
//!
//! Buffer locations are exchanged once at registration; afterwards both
//! sides access their ends without further synchronisation (the paper's
//! `malloc_buf` registration step).
//!
//! The paper keeps one mode flag per ⟨client id, RPC id⟩ pair; here a
//! *connection* plays that role — an application multiplexing several
//! logical RPC streams opens one connection per stream (or shares a
//! few through [`RfpMux`](crate::RfpMux)), each with its own buffers,
//! flag and hybrid-switch state.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll};

use rfp_rnic::{Machine, MemRegion, Qp, ThreadCtx};
use rfp_simnet::{
    ChainSink, EventSink, MetricsRegistry, Replan, SimHandle, SimSpan, SimTime, SpanRecorder,
    Wakeup,
};

use crate::header::{
    resp_canary, ReqHeader, RespHeader, RespIntegrity, RespStatus, REQ_HDR, RESP_HDR, RESP_HDR_EXT,
    RESP_TRAILER,
};
use crate::observe::{incident, Chain, Observer};
use crate::overload::OverloadConfig;
use rfp_simnet::crc64;

/// Destination for one connection's telemetry: counters/gauges go into
/// `registry` under `prefix`, and one
/// [`RequestTrace`](rfp_simnet::RequestTrace) per completed call goes
/// into `spans`.
#[derive(Clone)]
pub struct RfpTelemetry {
    /// Registry receiving this connection's instruments.
    pub registry: MetricsRegistry,
    /// Recorder receiving one span per completed call.
    pub spans: SpanRecorder,
    /// Hierarchical metric prefix, e.g. `rfp.client.3`.
    pub prefix: String,
    /// Chrome-trace display row for this connection's spans.
    pub track: u32,
}

impl fmt::Debug for RfpTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RfpTelemetry")
            .field("prefix", &self.prefix)
            .field("track", &self.track)
            .finish_non_exhaustive()
    }
}

/// Tuning and sizing of one RFP connection.
#[derive(Clone, Debug)]
pub struct RfpConfig {
    /// `R`: failed remote-fetch retries tolerated per call before the
    /// call counts toward switching to server-reply.
    pub retry_threshold: u32,
    /// `F`: bytes fetched per remote READ (header + payload prefix).
    pub fetch_size: usize,
    /// Whether the hybrid mode switch is enabled ("Jakiro w/o Switch" in
    /// Figure 14 disables it).
    pub enable_mode_switch: bool,
    /// Mode the connection starts in. `RemoteFetch` is RFP proper;
    /// `ServerReply` with the switch disabled *is* the paper's
    /// ServerReply baseline (which it derives from Jakiro the same way).
    pub initial_mode: Mode,
    /// Capacity of the request buffer (header + payload). With a
    /// multi-slot ring this is the capacity of *one slot*.
    pub req_capacity: usize,
    /// Capacity of the response buffer (header + payload). With a
    /// multi-slot ring this is the capacity of *one slot*.
    pub resp_capacity: usize,
    /// `W`: ring slots per connection — the number of calls the
    /// pipelined client driver can keep outstanding. The default 1 is
    /// the paper's one-call-at-a-time layout, byte-identical to the
    /// pre-windowed format; larger powers of two tile `W` independent
    /// request/response slots into the registered buffers, each call's
    /// slot carried by its seq (see [`slot_of`](crate::header::slot_of)).
    pub window: usize,
    /// Server CPU cost to post a response into its local buffer.
    pub post_cpu: SimSpan,
    /// CPU cost to inspect a local header (client check / server scan).
    pub check_cpu: SimSpan,
    /// Optional telemetry sink: per-connection counters/gauges plus one
    /// request-lifecycle span per completed call.
    pub telemetry: Option<RfpTelemetry>,
    /// Overload control (credit-based admission, deadline shedding,
    /// cooperative backoff), when present.
    pub overload: Option<OverloadConfig>,
    /// End-to-end integrity for remote fetches: payload CRC, buffer
    /// generation, trailing canary (see [`verify_response`](crate::verify_response)).
    pub integrity: bool,
    /// Optional flight recorder: both endpoints append cause-chain
    /// events (retry→reconnect, shed verdicts, torn fetches, slot
    /// stalls, mode switches, reply-mode fallback fetches) tagged with
    /// `conn_id` and the call seq. Recording is
    /// synchronous bookkeeping — no simulated time or wire bytes — so
    /// `None` and `Some` runs are event-identical.
    pub recorder: Option<rfp_simnet::FlightRecorder>,
    /// Optional rolling-window health plane; the client books every
    /// completed call plus retry/shed/corrupt/credit/stall signals into
    /// `health.conn(conn_id)`. Same zero-timing-impact guarantee.
    pub health: Option<rfp_simnet::HealthHub>,
    /// Connection id tagged onto recorder events and health windows.
    pub conn_id: u32,
}

impl Default for RfpConfig {
    fn default() -> Self {
        RfpConfig {
            retry_threshold: 5,
            fetch_size: 256,
            enable_mode_switch: true,
            initial_mode: Mode::RemoteFetch,
            req_capacity: 16 * 1024,
            resp_capacity: 16 * 1024,
            window: 1,
            post_cpu: SimSpan::nanos(100),
            check_cpu: SimSpan::nanos(50),
            telemetry: None,
            overload: None,
            integrity: false,
            recorder: None,
            health: None,
            conn_id: 0,
        }
    }
}

impl RfpConfig {
    /// Bytes of response header this connection writes on the wire
    /// ([`RESP_HDR`], or [`RESP_HDR_EXT`] with integrity on).
    pub fn resp_wire_hdr(&self) -> usize {
        if self.integrity {
            RESP_HDR_EXT
        } else {
            RESP_HDR
        }
    }

    /// Largest response payload this connection can carry (integrity on
    /// additionally reserves the extended header and the trailing
    /// canary).
    fn max_resp_payload(&self) -> usize {
        if self.integrity {
            self.resp_capacity - RESP_HDR_EXT - RESP_TRAILER
        } else {
            self.resp_capacity - RESP_HDR
        }
    }

    /// Largest request payload a call on this connection can carry,
    /// whatever it stamps; one byte more and the call panics with
    /// `request exceeds buffer capacity`.
    pub fn max_req_payload(&self) -> usize {
        self.req_capacity - REQ_HDR
    }
}

/// Client-side transport mode of a connection (paper §3.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The client repeatedly fetches results with one-sided READs.
    RemoteFetch,
    /// The server pushes results with out-bound WRITEs.
    ServerReply,
}

/// Mode-flag byte values stored in the server-side mode region.
pub(crate) const MODE_REMOTE_FETCH: u8 = 0;
pub(crate) const MODE_SERVER_REPLY: u8 = 1;

/// The memory geometry shared by both endpoint objects.
pub(crate) struct Shared {
    /// Server-side request ring (`window` slots of `req_capacity`).
    pub req: Rc<MemRegion>,
    /// Server-side response ring (`window` slots of `resp_capacity`).
    pub resp: Rc<MemRegion>,
    /// Server-side mode flag (1 byte).
    pub mode: Rc<MemRegion>,
    /// Client-side response landing zone (mirrors the response ring).
    pub client_resp: Rc<MemRegion>,
    /// Client-side request staging buffer (mirrors the request ring).
    pub client_req: Rc<MemRegion>,
    /// Client-side 1-byte staging buffer for mode flips.
    pub client_mode: Rc<MemRegion>,
    pub cfg: RfpConfig,
    /// Where both endpoints book what happens on this connection.
    pub obs: Observer,
}

impl Shared {
    /// Byte offset of `slot`'s request buffer in the request ring.
    pub(crate) fn req_off(&self, slot: usize) -> usize {
        slot * self.cfg.req_capacity
    }

    /// Byte offset of `slot`'s response buffer in the response ring.
    pub(crate) fn resp_off(&self, slot: usize) -> usize {
        slot * self.cfg.resp_capacity
    }
}

/// Creates one client↔server RFP connection.
///
/// `qp_c2s` must go from the client's machine to the server's machine,
/// `qp_s2c` the reverse (used only in server-reply mode).
///
/// # Panics
///
/// Panics if the QPs do not connect the same two machines in opposite
/// directions, if `fetch_size` is smaller than the response header, if
/// a multi-slot ring is asked to start in server-reply mode, or if a
/// header check costs no time (an empty server sweep would then never
/// let the clock move).
pub fn connect(
    client_machine: &Rc<Machine>,
    server_machine: &Rc<Machine>,
    qp_c2s: Rc<Qp>,
    qp_s2c: Rc<Qp>,
    cfg: RfpConfig,
) -> (crate::client::RfpClient, RfpServerConn) {
    assert!(
        cfg.fetch_size >= RESP_HDR,
        "fetch size must cover the response header"
    );
    assert!(
        cfg.req_capacity >= REQ_HDR,
        "request buffer must cover the request header"
    );
    assert!(
        cfg.fetch_size <= cfg.resp_capacity,
        "fetch size exceeds the response buffer"
    );
    if cfg.integrity {
        assert!(
            cfg.fetch_size >= RESP_HDR_EXT,
            "fetch size must cover the extended response header"
        );
        assert!(
            cfg.resp_capacity >= RESP_HDR_EXT + RESP_TRAILER,
            "response buffer must cover the extended header and trailer"
        );
    }
    assert_eq!(qp_c2s.local().id(), client_machine.id(), "qp_c2s direction");
    assert_eq!(
        qp_c2s.remote().id(),
        server_machine.id(),
        "qp_c2s direction"
    );
    assert_eq!(qp_s2c.local().id(), server_machine.id(), "qp_s2c direction");
    assert_eq!(
        qp_s2c.remote().id(),
        client_machine.id(),
        "qp_s2c direction"
    );
    assert!(
        cfg.window >= 1 && cfg.window.is_power_of_two(),
        "window must be a power of two (slot mapping must survive seq wraparound)"
    );
    assert!(
        cfg.window == 1 || cfg.initial_mode == Mode::RemoteFetch,
        "server-reply needs a one-slot ring (it has one request outstanding per connection)"
    );
    assert!(
        !cfg.check_cpu.is_zero(),
        "a header check must cost CPU time"
    );

    let window = cfg.window;
    let shared = Rc::new(Shared {
        req: server_machine.alloc_mr(cfg.req_capacity * window),
        resp: server_machine.alloc_mr(cfg.resp_capacity * window),
        mode: server_machine.alloc_mr(1),
        client_resp: client_machine.alloc_mr(cfg.resp_capacity * window),
        client_req: client_machine.alloc_mr(cfg.req_capacity * window),
        client_mode: client_machine.alloc_mr(1),
        obs: Observer::new(&cfg),
        cfg,
    });
    // The initial mode is agreed at registration time (no RDMA needed).
    if shared.cfg.initial_mode == Mode::ServerReply {
        shared.mode.write_local(0, &[MODE_SERVER_REPLY]);
    }

    let client = crate::client::RfpClient::new(Rc::clone(&shared), qp_c2s);
    // Scan-cost counters are shared registry-wide (no per-conn prefix):
    // the interesting number is the *aggregate* slots inspected per
    // request served, which is what the fleet bench exports. Resolved
    // once here so the hot scan loop never
    // does a name lookup.
    let scan = shared.cfg.telemetry.as_ref().map(|t| ScanCounters {
        slots: t.registry.counter("serve.scan.slots"),
        conns: t.registry.counter("serve.scan.conns"),
    });
    let ring = Rc::new(Ring {
        window,
        check_cpu: shared.cfg.check_cpu,
        shared: Rc::clone(&shared),
        slots: (0..window).map(|_| SlotState::default()).collect(),
        scan_from: Cell::new(0),
        scan,
        claimed: Cell::new(false),
        sweeper: RefCell::new(Weak::new()),
        contested: Cell::new(false),
        quiet: Cell::new(false),
    });
    let server = RfpServerConn {
        ring: Rc::new([ring]),
        sweep: Sweep::new(server_machine.handle().clone()),
        cur_slot: Cell::new(0),
        shared,
        qp_reply: qp_s2c,
        advertise: Cell::new(0),
        epoch: Cell::new(0),
        served: Cell::new(0),
        replied_out_of_band: Cell::new(0),
        rejected_busy: Cell::new(0),
        rejected_shed: Cell::new(0),
        rejected_fenced: Cell::new(0),
    };
    (client, server)
}

/// Server endpoint of one RFP connection.
///
/// The server thread owning this connection polls it with
/// [`try_recv`](RfpServerConn::try_recv) and answers with
/// [`send`](RfpServerConn::send) — the paper's `server_recv` /
/// `server_send` (Table 2).
pub struct RfpServerConn {
    shared: Rc<Shared>,
    qp_reply: Rc<Qp>,
    /// This connection's request ring, as the one-ring list its own
    /// sweep visits.
    ring: Rc<[Rc<Ring>]>,
    /// The one-connection sweep behind [`try_recv`](Self::try_recv).
    sweep: Rc<Sweep>,
    /// Slot of the request last delivered by `try_recv` (the serve loop
    /// strictly alternates recv/send, so one marker suffices).
    cur_slot: Cell<usize>,
    /// Credit level stamped into outgoing response headers (overload
    /// control; stays 0 — the legacy zero fill — without the stage).
    advertise: Cell<u16>,
    /// Replication epoch this server currently serves in (stamped into
    /// every response header and fenced against every request's); 0
    /// outside replicated deployments.
    epoch: Cell<u16>,
    served: Cell<u64>,
    replied_out_of_band: Cell<u64>,
    rejected_busy: Cell<u64>,
    rejected_shed: Cell<u64>,
    rejected_fenced: Cell<u64>,
}

/// Cached handles to the shared `serve.scan.slots` / `serve.scan.conns`
/// counters: slots inspected and connections visited by the server's
/// request scan. Their ratio to requests served is the server-side scan
/// cost per request — the quantity a multiplexing layer must keep flat
/// as logical clients are added.
struct ScanCounters {
    slots: Rc<rfp_simnet::Counter>,
    conns: Rc<rfp_simnet::Counter>,
}

/// Per-slot server-side request state.
#[derive(Default)]
struct SlotState {
    /// Sequence of the last request delivered to the application from
    /// this slot (the idempotent-dedup marker).
    last_seq: Cell<u32>,
    /// When the slot's in-flight request was picked up (`time` field).
    pickup: Cell<SimTime>,
    /// Sequence of the slot's in-flight request.
    cur_seq: Cell<u32>,
    /// Deadline stamped into the slot's in-flight request, if any.
    cur_deadline: Cell<Option<SimTime>>,
    /// Tenant stamped into the slot's in-flight request, if any.
    cur_tenant: Cell<Option<u32>>,
    /// Buffer generation: bumped on every local post into this slot's
    /// response buffer (integrity layer; stays 0 and unstamped when it
    /// is off).
    generation: Cell<u32>,
}

/// The server's side of one request ring: the slot state a look reads
/// and the round-robin cursor and claim a sweep advances. Kept apart
/// from [`RfpServerConn`] so a [`Sweep`] can hold rings without holding
/// the connection that owns it.
pub(crate) struct Ring {
    /// `W` and the look's CPU cost, kept by the ring: read on every
    /// look.
    window: usize,
    check_cpu: SimSpan,
    shared: Rc<Shared>,
    /// Per-ring-slot request state (`window` entries).
    slots: Vec<SlotState>,
    /// Round-robin scan cursor across the ring slots.
    scan_from: Cell<usize>,
    /// Registry-wide scan-cost counters (`serve.scan.*`), resolved at
    /// connect time when telemetry is attached.
    scan: Option<ScanCounters>,
    /// The steal claim: a reactor sweep over a contested ring
    /// test-and-sets it around every visit, so the ring has one poller
    /// at any instant and whoever arrives second skips it.
    claimed: Cell<bool>,
    /// The first sweep to visit the ring, told of what changes under it.
    sweeper: RefCell<Weak<Sweep>>,
    /// A second sweep visits the ring too: its claim is contested, so
    /// no look at it is lazy.
    contested: Cell<bool>,
    /// A walk ahead found the ring's one slot holding nothing, and
    /// nothing has changed the ring since: the next walk need not read
    /// it.
    quiet: Cell<bool>,
}

impl Ring {
    fn window(&self) -> usize {
        self.window
    }

    /// Moves the scan cursor past `slot`.
    fn pass(&self, slot: usize) {
        // `window` is a power of two (a `connect` invariant).
        self.scan_from.set((slot + 1) & (self.window() - 1));
    }

    /// One look at `slot`: its request header, if the slot holds a
    /// request not yet delivered (acceptance is idempotent dedup — see
    /// [`RfpServerConn::try_recv`]).
    fn look(&self, slot: usize) -> Option<ReqHeader> {
        if let Some(scan) = &self.scan {
            scan.slots.incr();
        }
        self.pending(slot)
    }

    /// What a look at `slot` would find, booked nowhere.
    fn pending(&self, slot: usize) -> Option<ReqHeader> {
        let base = self.shared.req_off(slot);
        let hdr = self
            .shared
            .req
            .with_bytes(|ring| ReqHeader::decode(&ring[base..base + REQ_HDR]));
        (hdr.valid && hdr.seq != self.slots[slot].last_seq.get()).then_some(hdr)
    }

    /// Enlists `sweep` as a visitor: the first is told of every write
    /// into the ring; a second makes the ring contested, and the first
    /// makes every look an event from then on.
    fn enlist(self: &Rc<Self>, sweep: &Weak<Sweep>) {
        if self.contested.get() || Weak::ptr_eq(&self.sweeper.borrow(), sweep) {
            return;
        }
        let first = self.sweeper.replace(sweep.clone()).upgrade();
        match first {
            Some(first) => {
                self.contested.set(true);
                first.contest();
            }
            None => self.shared.req.set_planner(Rc::downgrade(self) as _),
        }
    }

    /// Whether `rings` are all one-slot rings sharing a look cost and
    /// scan counters.
    fn one_slot(rings: &[Rc<Ring>]) -> bool {
        let Some(first) = rings.first() else {
            return false;
        };
        let same_scan = |ring: &Ring| match (&ring.scan, &first.scan) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(&a.slots, &b.slots) && Rc::ptr_eq(&a.conns, &b.conns),
            _ => false,
        };
        let one_slot = |ring: &Rc<Ring>| {
            ring.window == 1 && ring.check_cpu == first.check_cpu && same_scan(ring)
        };
        rings.iter().all(one_slot)
    }
}

impl Replan for Ring {
    /// The ring's bytes or its delivery marks changed: it is no longer
    /// known quiet, and its sweeper re-plans.
    fn replan(&self) {
        self.quiet.set(false);
        let sweeper = self.sweeper.borrow().upgrade();
        if let Some(sweeper) = sweeper {
            sweeper.replan();
        }
    }
}

/// Where a [`Sweep`] hands control back to the task awaiting it.
pub(crate) enum Stop {
    /// A look found `slot` of the `conn`-th swept ring pending.
    Hit {
        conn: usize,
        slot: usize,
        hdr: ReqHeader,
    },
    /// The crash check before a receive tripped (reactor sweeps only).
    Crashed,
    /// Every ring visited, or the budget spent.
    End,
}

/// The step a sweep takes next.
#[derive(Copy, Clone, Default)]
enum At {
    /// Visit `rings[conn]`: budget, claim.
    #[default]
    Conn,
    /// Begin a receive on it: window, budget, crash check.
    Recv,
    /// Look at the slot at its cursor, `left` looks remaining in the
    /// receive.
    Look,
}

/// The synchronous skeleton of a sweep, kept between looks.
#[derive(Default)]
struct Cursor {
    /// The thread whose CPU the looks cost.
    thread: Option<Rc<ThreadCtx>>,
    rings: Rc<[Rc<Ring>]>,
    pos: Pos,
    /// A swept ring is contested: every look is an event.
    eager: bool,
    /// Every swept ring has one slot and the first one's scan counters:
    /// a miss then only moves the cursor to the next ring, and a run of
    /// misses is booked as one sum.
    one_slot: bool,
}

impl Cursor {
    fn thread(&self) -> &ThreadCtx {
        self.thread.as_deref().expect("a sweep runs after `begin`")
    }
}

/// Where in its rings a sweep stands.
#[derive(Copy, Clone, Default)]
struct Pos {
    /// A reactor sweep: claims each ring, checks for a crash before
    /// each receive and stops at `budget` executions.
    reactor: bool,
    budget: usize,
    /// The task's executions reached `budget`.
    spent: bool,
    at: At,
    conn: usize,
    /// The ring this sweep scans in full; every other one it looks at
    /// only from its head.
    full: usize,
    /// Receives begun on `rings[conn]` — at most its window.
    recvs: usize,
    left: usize,
    /// Slot of the look in flight.
    slot: usize,
    /// Bumped by every `begin`: the look event of an abandoned sweep
    /// carries a stale one.
    generation: u64,
}

/// What moving a sweep's cursor does to its rings and its thread: the
/// real thing ([`Book`]), or a dry run ahead of the looks ([`Ahead`]).
trait Walk {
    /// Claims `ring` for a visit; `false` if another visit holds it.
    fn claim(&mut self, ring: &Ring) -> bool;
    fn release(&mut self, ring: &Ring);
    /// Begins a receive on `ring`.
    fn recv(&mut self, ring: &Ring);
    /// The slot the next look at `ring` reads: a ring scanned in `full`
    /// moves its cursor on every look.
    fn slot(&mut self, ring: &Ring, full: bool) -> usize;
    /// The CPU time of a look.
    fn charge(&mut self, thread: &ThreadCtx, span: SimSpan) -> SimSpan;
}

/// Moves a sweep for real: `serve.scan.conns`, cursors, the thread's
/// busy clock and — where another sweep can test them, in a sweep over
/// a contested ring — claims. A ring no other sweep visits has its one
/// poller by construction.
struct Book {
    claims: bool,
}

impl Walk for Book {
    fn claim(&mut self, ring: &Ring) -> bool {
        !(self.claims && ring.claimed.replace(true))
    }

    fn release(&mut self, ring: &Ring) {
        if self.claims {
            ring.claimed.set(false);
        }
    }

    fn recv(&mut self, ring: &Ring) {
        if let Some(scan) = &ring.scan {
            scan.conns.incr();
        }
    }

    fn slot(&mut self, ring: &Ring, full: bool) -> usize {
        let slot = ring.scan_from.get();
        if full {
            ring.pass(slot);
        }
        slot
    }

    fn charge(&mut self, thread: &ThreadCtx, span: SimSpan) -> SimSpan {
        thread.charge(span)
    }
}

/// Walks a sweep ahead of its looks, moving nothing: it keeps the full
/// ring's cursor as the looks would leave it. Only a sweep over rings
/// no other sweep visits walks ahead, so no claim stands in its way.
struct Ahead {
    full_from: usize,
}

impl Walk for Ahead {
    fn claim(&mut self, _: &Ring) -> bool {
        true
    }

    fn release(&mut self, _: &Ring) {}

    fn recv(&mut self, _: &Ring) {}

    fn slot(&mut self, ring: &Ring, full: bool) -> usize {
        if !full {
            return ring.scan_from.get();
        }
        let slot = self.full_from;
        self.full_from = (slot + 1) & (ring.window() - 1);
        slot
    }

    fn charge(&mut self, thread: &ThreadCtx, span: SimSpan) -> SimSpan {
        thread.cost(span)
    }
}

impl Pos {
    /// Leaves `ring`, the one being visited, for the next.
    fn leave(&mut self, ring: &Ring, walk: &mut impl Walk) {
        if self.reactor {
            walk.release(ring);
        }
        self.conn += 1;
        self.at = At::Conn;
    }

    /// The stop for a look at the slot in flight of `ring` that found
    /// `hdr`; the ring's cursor moves past the slot.
    fn hit(&self, ring: &Ring, hdr: ReqHeader) -> Stop {
        ring.pass(self.slot);
        Stop::Hit {
            conn: self.conn,
            slot: self.slot,
            hdr,
        }
    }

    /// Moves to the next look, whose slot `slot` becomes, and returns
    /// its CPU time — or `Err` with the stop the sweep comes to first.
    fn seek(
        &mut self,
        rings: &[Rc<Ring>],
        thread: &ThreadCtx,
        walk: &mut impl Walk,
    ) -> Result<SimSpan, Stop> {
        loop {
            match self.at {
                At::Conn => {
                    let Some(ring) = rings.get(self.conn).filter(|_| !self.spent) else {
                        return Err(Stop::End);
                    };
                    if self.reactor && !walk.claim(ring) {
                        self.conn += 1;
                        continue;
                    }
                    self.recvs = 0;
                    self.at = At::Recv;
                }
                At::Recv => {
                    let ring = &rings[self.conn];
                    if self.recvs == ring.window() || self.spent {
                        self.leave(ring, walk);
                        continue;
                    }
                    if self.reactor && thread.machine().faults().is_crashed() {
                        self.leave(ring, walk);
                        return Err(Stop::Crashed);
                    }
                    walk.recv(ring);
                    self.recvs += 1;
                    self.left = if self.conn == self.full {
                        ring.window()
                    } else {
                        1
                    };
                    self.at = At::Look;
                }
                At::Look => {
                    let ring = &rings[self.conn];
                    if self.left == 0 {
                        // The receive found nothing.
                        self.leave(ring, walk);
                        continue;
                    }
                    self.left -= 1;
                    self.slot = walk.slot(ring, self.conn == self.full);
                    return Ok(walk.charge(thread, ring.check_cpu));
                }
            }
        }
    }
}

/// The server's ring sweep as a clocked event sink (DESIGN.md "Lazy
/// looks"). Claims, receives, crash checks, the slot looks and their
/// `check_cpu` charges are a cursor the sweep moves on its own clock;
/// the task is polled only at a [`Stop`], handed back through
/// [`SimHandle::resume`] so it runs at the look's own place in the
/// order. Allocated once per reactor core and once per connection (for
/// [`try_recv`](RfpServerConn::try_recv)).
///
/// A look that finds nothing changes nothing another entry can observe
/// but the sweep's own books, so the sweep walks ahead of its looks
/// against current ring memory and files one [`ChainSink`] chain: its
/// next look and the first look that can stop it — the first that
/// finds a request, or the last before the sweep ends. The looks in
/// between are made by [`settle`](ChainSink::settle) when the clock
/// passes them, and as events only where a real entry shares their
/// instant. Whatever can change what a later look reads re-plans from
/// the next look ([`replan`](Replan::replan)): a write into a swept
/// ring, a crash flag or CPU factor change on the thread's machine, a
/// restart's cursor reset; a new CPU factor also makes the next look an
/// event, as the looks after it are spaced anew. A ring a second sweep
/// visits is contested — its claims are another sweep's to test — so a
/// sweep over one makes every look an event.
///
/// A sweep scans one ring in full — up to `W` round-robin looks per
/// receive, the cursor advancing on each — and looks at every other
/// ring once per receive, at its cursor (its head): a hit moves the
/// cursor past the slot, a miss leaves the ring. So an idle ring costs
/// one look, and a client filling its slots in ring order is found at
/// the head. The full ring rotates from sweep to sweep, so a request
/// that lands off the head (re-staged after a rejection, resubmitted
/// after a restart reset the cursor) is found within one rotation.
pub(crate) struct Sweep {
    h: SimHandle,
    /// This sweep, as the rings and the machine it reads know it.
    me: Weak<Sweep>,
    /// The rotation: the next unbudgeted sweep scans ring
    /// `turn % rings.len()` in full.
    turn: Cell<usize>,
    cursor: RefCell<Cursor>,
    /// The instant of the next look, while the executor holds it.
    head: Cell<Option<SimTime>>,
    /// The first look that can stop the sweep, as last planned.
    planned: Cell<SimTime>,
    /// A look's CPU time as the thread's machine stood when the sweep
    /// last planned: the spacing of its looks (its rings share
    /// `check_cpu`).
    span: Cell<SimSpan>,
    /// The task awaiting the sweep while a look is in flight.
    waiter: Cell<Option<Wakeup>>,
    /// What the sweep handed back, until the task picks it up.
    stop: Cell<Option<Stop>>,
}

impl Sweep {
    pub(crate) fn new(h: SimHandle) -> Rc<Sweep> {
        Rc::new_cyclic(|me| Sweep {
            h,
            me: me.clone(),
            turn: Cell::new(0),
            cursor: RefCell::default(),
            head: Cell::new(None),
            planned: Cell::new(SimTime::ZERO),
            span: Cell::new(SimSpan::ZERO),
            waiter: Cell::new(None),
            stop: Cell::new(None),
        })
    }

    /// Starts a sweep of `rings` on `thread`; a `reactor` sweep claims,
    /// crash-checks and stops at `budget` executions. The first look is
    /// charged by the first [`next`](Self::next).
    pub(crate) fn begin(
        &self,
        thread: &Rc<ThreadCtx>,
        rings: &Rc<[Rc<Ring>]>,
        reactor: bool,
        budget: usize,
    ) {
        if self.head.take().is_some() {
            // The look of a sweep given up while it was in flight.
            self.h.cancel_chained(self);
        }
        // Only an unbudgeted sweep — an owner's of its own rings — moves
        // the rotation: a steal, which may stop anywhere, must not make
        // its thief's own sweeps skip a ring's full turn.
        let turn = self.turn.get();
        if budget == usize::MAX {
            self.turn.set(turn.wrapping_add(1));
        }
        let mut c = self.cursor.borrow_mut();
        if !c.thread.as_ref().is_some_and(|t| Rc::ptr_eq(t, thread)) {
            thread.machine().faults().add_planner(self.me.clone());
            c.thread = Some(Rc::clone(thread));
        }
        if !Rc::ptr_eq(&c.rings, rings) {
            // New rings to visit; the same ones tell this sweep when one
            // becomes contested.
            for ring in rings.iter() {
                ring.enlist(&self.me);
            }
            debug_assert!(
                rings.iter().all(|r| r.check_cpu == rings[0].check_cpu),
                "a sweep's looks are evenly spaced"
            );
            c.eager = rings.iter().any(|r| r.contested.get());
            c.one_slot = Ring::one_slot(rings);
            c.rings = Rc::clone(rings);
        }
        c.pos = Pos {
            reactor,
            budget,
            full: turn % rings.len(),
            generation: c.pos.generation + 1,
            ..Pos::default()
        };
        self.stop.take();
    }

    /// Runs the sweep to its next stop; `executed` is what the task has
    /// executed since [`begin`](Self::begin). After a hit the sweep
    /// resumes inside the receive that found it, unless the task
    /// [`took`](Self::took) the request.
    pub(crate) async fn next(self: &Rc<Self>, executed: usize) -> Stop {
        let at = {
            let mut c = self.cursor.borrow_mut();
            c.pos.spent = executed >= c.pos.budget;
            match Self::run(&mut c, self.h.now()) {
                Ok(stop) => return stop,
                Err(at) => at,
            }
        };
        self.file(at, None);
        Handback(self).await
    }

    /// The request of the last hit was delivered: its receive is over.
    pub(crate) fn took(&self) {
        self.cursor.borrow_mut().pos.at = At::Recv;
    }

    /// Gives the sweep up after a hit (a crash mid-service), releasing
    /// the ring being visited.
    pub(crate) fn abort(&self) {
        let c = &mut *self.cursor.borrow_mut();
        let book = &mut Book { claims: c.eager };
        c.pos.leave(&c.rings[c.pos.conn], book);
    }

    /// Advances `c`, standing at instant `t`, until it stops, or until
    /// its next look: `Err` with that look's instant. A look that takes
    /// no time (a zero straggler factor) is made at once.
    fn run(c: &mut Cursor, t: SimTime) -> Result<Stop, SimTime> {
        let Cursor {
            thread,
            rings,
            pos,
            eager,
            ..
        } = c;
        let thread = thread.as_deref().expect("a sweep runs after `begin`");
        let book = &mut Book { claims: *eager };
        loop {
            let span = match pos.seek(rings, thread, book) {
                Ok(span) => span,
                Err(stop) => return Ok(stop),
            };
            if !span.is_zero() {
                return Err(t + span);
            }
            let ring = &rings[pos.conn];
            if let Some(hdr) = ring.look(pos.slot) {
                return Ok(pos.hit(ring, hdr));
            }
        }
    }

    /// The instant of the first look from the one at `at` on that can
    /// stop the sweep, as ring memory and the machine stand now: one
    /// that finds a request, or the last before the sweep ends. With a
    /// contested ring, the look at `at`. Records the looks' spacing.
    fn ahead(&self, c: &Cursor, mut at: SimTime) -> SimTime {
        if c.eager {
            return at;
        }
        let (thread, mut pos) = (c.thread(), c.pos);
        let span = thread.cost(c.rings[0].check_cpu);
        self.span.set(span);
        let crashed = pos.reactor && thread.machine().faults().is_crashed();
        if let (true, At::Look, false, false) = (c.one_slot, pos.at, pos.spent, crashed) {
            // One look per ring, in ring order, to the first pending
            // one or the last.
            let rest = &c.rings[pos.conn..];
            let quiet = |r: &&Rc<Ring>| {
                if !r.quiet.get() {
                    r.quiet.set(r.pending(0).is_none());
                }
                r.quiet.get()
            };
            let misses = rest.iter().take_while(quiet).count();
            return at + span * misses.min(rest.len() - 1) as u64;
        }
        let mut walk = Ahead {
            full_from: c.rings[pos.full].scan_from.get(),
        };
        loop {
            if c.rings[pos.conn].pending(pos.slot).is_some() {
                return at;
            }
            match pos.seek(&c.rings, thread, &mut walk) {
                Ok(cost) => at += cost,
                Err(_) => return at,
            }
        }
    }

    /// Hands the executor the look at `at` and the first look that can
    /// stop the sweep: `planned`, when a plan that nothing changed since
    /// holds it, or found by walking ahead.
    fn file(self: &Rc<Self>, at: SimTime, planned: Option<SimTime>) {
        let (stop, generation) = {
            let c = self.cursor.borrow();
            let stop = planned.unwrap_or_else(|| self.ahead(&c, at));
            (stop, c.pos.generation)
        };
        self.head.set(Some(at));
        self.planned.set(stop);
        self.h
            .schedule_chained(at, stop, Rc::clone(self) as _, generation);
    }

    /// A ring of this sweep's is now another sweep's too: every look
    /// from the next on is an event, and claims are kept from now on,
    /// starting with the ring this sweep is visiting.
    fn contest(&self) {
        {
            let c = &mut *self.cursor.borrow_mut();
            let visiting = !matches!(c.pos.at, At::Conn);
            if c.pos.reactor && visiting && !c.eager {
                c.rings[c.pos.conn].claimed.set(true);
            }
            c.eager = true;
        }
        self.replan();
    }
}

impl EventSink for Sweep {
    fn fire(self: Rc<Self>, generation: u64) {
        let next = {
            let c = &mut *self.cursor.borrow_mut();
            if generation != c.pos.generation {
                return;
            }
            self.head.set(None);
            let ring = &c.rings[c.pos.conn];
            match ring.look(c.pos.slot) {
                Some(hdr) => Ok(c.pos.hit(ring, hdr)),
                None => Self::run(c, self.h.now()),
            }
        };
        match next {
            Ok(stop) => {
                self.stop.set(Some(stop));
                if let Some(waiter) = self.waiter.take() {
                    self.h.resume(waiter);
                }
            }
            // A look before the planned stop missed, as planned: the
            // plan still holds.
            Err(at) => {
                let planned = self.planned.get();
                self.file(at, (self.h.now() < planned).then_some(planned));
            }
        }
    }
}

impl ChainSink for Sweep {
    fn settle(&self, _: u64, before: SimTime) -> (SimTime, SimTime) {
        let c = &mut *self.cursor.borrow_mut();
        let mut at = self.head.get().expect("the executor holds a look");
        let mut last = at;
        let span = self.span.get();
        if c.one_slot && !span.is_zero() {
            // Misses on one-slot rings, as planned: each books a receive
            // and a look and moves the cursor one ring on.
            let mut misses = 0;
            while at < before {
                (last, at) = (at, at + span);
                misses += 1;
            }
            let next = c.pos.conn + misses as usize;
            debug_assert!(
                c.rings[c.pos.conn..next]
                    .iter()
                    .all(|r| r.pending(0).is_none()),
                "a lazy look found a request"
            );
            if let Some(scan) = &c.rings[0].scan {
                scan.slots.add(misses);
                scan.conns.add(misses);
            }
            c.thread().note_busy(span * misses);
            c.pos.conn = next;
        }
        while at < before {
            let ring = &c.rings[c.pos.conn];
            // Planned as a miss, and re-planned on every change to what
            // it reads: only its books are left to keep.
            debug_assert!(
                ring.pending(c.pos.slot).is_none(),
                "a lazy look found a request"
            );
            if let Some(scan) = &ring.scan {
                scan.slots.incr();
            }
            last = at;
            let Err(next) = Self::run(c, at) else {
                panic!("a look made without an event stopped its sweep");
            };
            at = next;
        }
        self.head.set(Some(at));
        (last, at)
    }
}

impl Replan for Sweep {
    fn replan(&self) {
        let Some(head) = self.head.get() else {
            return;
        };
        if head == self.h.now() {
            // A look due now reads what it finds when it fires, and
            // walks ahead afresh.
            self.planned.set(head);
            return;
        }
        let spacing = self.span.get();
        let stop = self.ahead(&self.cursor.borrow(), head);
        // A new CPU factor respaces the looks after the next one, which
        // becomes the stop: lazy looks follow a real one evenly spaced,
        // as their place in the order needs (DESIGN.md "Lazy looks").
        let stop = if self.span.get() == spacing {
            stop
        } else {
            head
        };
        self.planned.set(stop);
        self.h.restop_chained(self, stop);
    }
}

/// Parks the sweeping task until its sweep stops.
struct Handback<'a>(&'a Sweep);

impl Future for Handback<'_> {
    type Output = Stop;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Stop> {
        let sweep = self.0;
        match sweep.stop.take() {
            Some(stop) => Poll::Ready(stop),
            None => {
                sweep.waiter.set(Some(sweep.h.wakeup(cx)));
                Poll::Pending
            }
        }
    }
}

impl RfpServerConn {
    /// Checks the request buffer for a newly arrived request
    /// (`server_recv`). Returns its payload, or `None`.
    ///
    /// Acceptance doubles as idempotent dedup: a request is delivered
    /// iff its sequence differs from the last *delivered* one. The
    /// connection carries one call at a time, so a client resubmitting
    /// under the same seq (crash recovery) is ignored while that seq is
    /// in flight or already answered, and accepted fresh seqs — e.g.
    /// the first request after a server restart — need no handshake.
    ///
    /// Charges one header inspection of CPU time per ring slot looked
    /// at; a single-slot connection inspects exactly one header per
    /// call, as before windowing. Multi-slot rings are scanned
    /// round-robin from a persistent cursor, stopping at the first
    /// pending slot. This is a one-connection [`Sweep`]: the looks are
    /// events, and the task runs again only at the pending slot or at
    /// the end.
    pub async fn try_recv(&self, thread: &Rc<ThreadCtx>) -> Option<Vec<u8>> {
        self.sweep.begin(thread, &self.ring, false, usize::MAX);
        let mut req = Vec::new();
        while let Stop::Hit { slot, hdr, .. } = self.sweep.next(0).await {
            if self.pickup(thread, slot, hdr, &mut req).await {
                return Some(req);
            }
        }
        None
    }

    /// Takes delivery of the request a look found pending in `slot`
    /// under `hdr`: marks it in flight, copies its payload over `into`
    /// and returns `true` — or, fenced, answers it and returns `false`
    /// (the receive then goes on with the next slot).
    pub(crate) async fn pickup(
        &self,
        thread: &ThreadCtx,
        slot: usize,
        hdr: ReqHeader,
        into: &mut Vec<u8>,
    ) -> bool {
        let st = &self.ring().slots[slot];
        st.last_seq.set(hdr.seq);
        st.cur_seq.set(hdr.seq);
        st.cur_deadline.set(hdr.deadline);
        st.cur_tenant.set(hdr.tenant);
        st.pickup.set(thread.now());
        self.cur_slot.set(slot);
        if hdr.epoch != self.epoch.get() {
            // Epoch fence: the request was stamped in a different
            // replication epoch than this server serves in — either a
            // stale client that has not learned of a failover, or a
            // client that moved on while *we* are the deposed
            // ex-primary. Never deliver it to the application (so no
            // split-brain write is ever acked); answer `Fenced`
            // carrying our epoch so a lagging client can catch up.
            self.reject(thread, RespStatus::Fenced).await;
            return false;
        }
        let obs = &self.shared.obs;
        obs.span_mark(slot, thread.now(), "server_dequeued");
        let at = self.shared.req_off(slot) + REQ_HDR;
        // The slice is bounds-checked before `into` grows.
        self.shared.req.with_bytes(|b| {
            into.clear();
            into.extend_from_slice(&b[at..at + hdr.size as usize]);
        });
        true
    }

    /// This connection's request ring.
    pub(crate) fn ring(&self) -> &Rc<Ring> {
        &self.ring[0]
    }

    /// `W`: ring slots of this connection (the most requests a pipelined
    /// client can have pending at once — the serve loop's drain bound).
    pub fn window(&self) -> usize {
        self.shared.cfg.window
    }

    /// Deadline stamped into the request last delivered by
    /// [`try_recv`](RfpServerConn::try_recv), if the client stamped one.
    pub fn current_deadline(&self) -> Option<SimTime> {
        self.ring().slots[self.cur_slot.get()].cur_deadline.get()
    }

    /// Tenant stamped into the request last delivered by
    /// [`try_recv`](RfpServerConn::try_recv), if the client stamped one.
    pub fn current_tenant(&self) -> Option<u32> {
        self.ring().slots[self.cur_slot.get()].cur_tenant.get()
    }

    /// Sets the credit level stamped into subsequent response headers.
    pub fn set_advertised_credits(&self, credits: u16) {
        self.advertise.set(credits);
    }

    /// The connection's overload stage (shared config), when present.
    pub(crate) fn overload(&self) -> Option<&OverloadConfig> {
        self.shared.cfg.overload.as_ref()
    }

    /// Restores the in-flight marker before answering a queued request.
    /// Must be called with no intervening await before the send — the
    /// marker is connection-global and any concurrent pickup moves it.
    pub(crate) fn set_reply_slot(&self, slot: usize) {
        self.cur_slot.set(slot);
    }

    /// Posts the response for the in-flight request (`server_send`).
    ///
    /// In remote-fetch mode this only writes into the server's local
    /// response buffer (no out-bound RDMA — the whole point of RFP); in
    /// server-reply mode it additionally pushes the response to the
    /// client with an out-bound WRITE.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the response capacity or no request
    /// is in flight.
    pub async fn send(&self, thread: &ThreadCtx, payload: &[u8]) {
        self.post_response(thread, payload, RespStatus::Ok).await;
        self.served.set(self.served.get() + 1);
    }

    /// Answers the in-flight request with an overload rejection: an
    /// empty-payload response whose header carries the `Busy`/`Shed`
    /// verdict. The request was *not* executed; the client may resubmit
    /// under a fresh seq. Costs the same local post as a normal response
    /// and zero out-bound RDMA in remote-fetch mode — the client learns
    /// the verdict from its next (single) fetch READ.
    ///
    /// # Panics
    ///
    /// Panics if no request is in flight or `status` is `Ok`.
    pub async fn reject(&self, thread: &ThreadCtx, status: RespStatus) {
        assert!(status != RespStatus::Ok, "reject needs a rejection status");
        self.post_response(thread, &[], status).await;
        let (cell, incident) = match status {
            RespStatus::Busy => (&self.rejected_busy, incident::REJECT_BUSY),
            RespStatus::Shed => (&self.rejected_shed, incident::REJECT_SHED),
            RespStatus::Fenced => (&self.rejected_fenced, incident::REJECT_FENCED),
            RespStatus::Ok => unreachable!(),
        };
        cell.set(cell.get() + 1);
        // The server keeps no chain: each verdict is a root event.
        let seq = self.ring().slots[self.cur_slot.get()].cur_seq.get();
        let mut root = Chain { seq, cause: None };
        let what = format_args!("server rejected seq {seq} with {status:?}");
        let obs = &self.shared.obs;
        obs.incident(thread.now(), &mut root, incident, what);
    }

    async fn post_response(&self, thread: &ThreadCtx, payload: &[u8], status: RespStatus) {
        let slot = self.cur_slot.get();
        let st = &self.ring().slots[slot];
        let seq = st.cur_seq.get();
        assert!(seq != 0, "send without a received request");
        assert!(
            payload.len() <= self.shared.cfg.max_resp_payload(),
            "response exceeds buffer capacity"
        );
        let elapsed = thread.now() - st.pickup.get();
        let time_us = (elapsed.as_nanos() / 1_000).min(u16::MAX as u64) as u16;
        let integrity_on = self.shared.cfg.integrity;
        let integrity = if integrity_on {
            // The torn-DMA fault splices a concurrent READ from the
            // buffer's pre-post image; capture it only while that fault
            // is armed so healthy runs allocate nothing extra.
            if thread.machine().faults().torn_dma() > 0.0 {
                self.shared.resp.snapshot_history();
            }
            let generation = st.generation.get().wrapping_add(1);
            st.generation.set(generation);
            Some(RespIntegrity {
                crc: crc64(payload),
                generation,
            })
        } else {
            None
        };
        let hdr = RespHeader {
            valid: true,
            size: payload.len() as u32,
            seq,
            time_us,
            status,
            credits: self.advertise.get(),
            integrity,
            epoch: self.epoch.get(),
        };
        let wire_hdr = hdr.wire_len();
        let mut hdr_bytes = [0u8; RESP_HDR_EXT];
        hdr.encode(&mut hdr_bytes[..wire_hdr]);
        // Header after payload (and trailer): a concurrent remote fetch
        // must never see a valid header with stale payload bytes.
        let base = self.shared.resp_off(slot);
        self.shared.resp.write_local(base + wire_hdr, payload);
        if let Some(integrity) = integrity {
            self.shared.resp.write_local(
                base + wire_hdr + payload.len(),
                &resp_canary(seq, integrity.generation).to_le_bytes(),
            );
        }
        self.shared.resp.write_local(base, &hdr_bytes[..wire_hdr]);
        thread.busy(self.shared.cfg.post_cpu).await;
        let posted = match status {
            RespStatus::Ok => "response_posted",
            RespStatus::Busy => "rejected_busy",
            RespStatus::Shed => "rejected_shed",
            RespStatus::Fenced => "rejected_fenced",
        };
        self.shared.obs.span_mark(slot, thread.now(), posted);

        if self.mode() == Mode::ServerReply {
            self.replied_out_of_band
                .set(self.replied_out_of_band.get() + 1);
            let trailer = if integrity_on { RESP_TRAILER } else { 0 };
            self.qp_reply
                .write(
                    thread,
                    &self.shared.resp,
                    base,
                    &self.shared.client_resp,
                    base,
                    wire_hdr + payload.len() + trailer,
                )
                .await;
        }
    }

    /// Moves this connection into replication `epoch`: subsequent
    /// responses are stamped with it, and requests stamped in any other
    /// epoch are fenced instead of delivered. A promoted backup bumps
    /// it; a replication layer seeds it at deployment.
    pub fn set_epoch(&self, epoch: u16) {
        self.epoch.set(epoch);
    }

    /// Requests fenced for carrying a mismatched replication epoch.
    pub fn rejected_fenced(&self) -> u64 {
        self.rejected_fenced.get()
    }

    /// Rebuilds this connection's process state after a server restart.
    ///
    /// Process state (`last_seq`, the in-flight marker) died with the
    /// old process; what survives is whatever is in the registered
    /// buffers. After a **warm** restart the response buffer still holds
    /// the last answered response, so its header seq restores the dedup
    /// state — an already-answered request that the client replays is
    /// recognised and not re-executed. After a **cold** restart the
    /// buffers were wiped, the recovered seq is 0, and every replay is
    /// (correctly) executed against the empty store.
    pub fn recover_after_restart(&self) {
        for (slot, st) in self.ring().slots.iter().enumerate() {
            let base = self.shared.resp_off(slot);
            let wire_hdr = self.shared.cfg.resp_wire_hdr();
            let hdr = self
                .shared
                .resp
                .with_bytes(|ring| RespHeader::decode(&ring[base..base + wire_hdr]));
            let recovered = if hdr.valid { hdr.seq } else { 0 };
            st.last_seq.set(recovered);
            st.cur_seq.set(recovered);
            st.cur_deadline.set(None);
            st.cur_tenant.set(None);
            // A warm restart resumes the generation counter from the
            // buffer (the next post must not reuse the stamped
            // generation); a cold restart starts over from 0.
            st.generation.set(hdr.integrity.map_or(0, |i| i.generation));
            // Any span of a call interrupted by the crash is stale.
            self.shared.obs.span_drop(slot);
        }
        self.cur_slot.set(0);
        self.ring().scan_from.set(0);
        self.ring().replan();
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    /// Responses pushed via out-bound WRITE (server-reply mode).
    pub fn replied_out_of_band(&self) -> u64 {
        self.replied_out_of_band.get()
    }

    /// Requests turned away with `Busy` (queue bound reached).
    pub fn rejected_busy(&self) -> u64 {
        self.rejected_busy.get()
    }

    /// Requests shed for an expired deadline.
    pub fn rejected_shed(&self) -> u64 {
        self.rejected_shed.get()
    }

    /// Current mode flag as last written by the client.
    pub fn mode(&self) -> Mode {
        if self.shared.mode.with_bytes(|flag| flag[0]) == MODE_SERVER_REPLY {
            Mode::ServerReply
        } else {
            Mode::RemoteFetch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve_loop, IdlePolicy};
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::Simulation;

    /// A one-machine-pair rig with `conns` server connections of
    /// `window` slots each (the client ends are kept alive, unused).
    fn rig(
        sim: &mut Simulation,
        window: usize,
        conns: usize,
    ) -> (Cluster, Vec<Rc<RfpServerConn>>, Vec<crate::RfpClient>) {
        let cluster = Cluster::new(sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let (mut servers, mut clients) = (Vec::new(), Vec::new());
        for _ in 0..conns {
            let cfg = RfpConfig {
                window,
                ..RfpConfig::default()
            };
            let (client, server) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
            servers.push(Rc::new(server));
            clients.push(client);
        }
        (cluster, servers, clients)
    }

    /// Lands a 4-byte request with `seq` in `slot` of `conn`'s ring, as
    /// the in-bound engine does when a WRITE completes.
    fn deposit(conn: &RfpServerConn, slot: usize, seq: u32) {
        let hdr = ReqHeader {
            valid: true,
            size: 4,
            seq,
            deadline: None,
            tenant: None,
            epoch: 0,
        };
        let base = conn.shared.req_off(slot);
        conn.shared.req.write_local(base, &hdr.encode());
        conn.shared.req.write_local(base + REQ_HDR, &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "must cost CPU time")]
    fn a_header_check_that_costs_nothing_is_refused() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let cfg = RfpConfig {
            check_cpu: SimSpan::ZERO,
            ..RfpConfig::default()
        };
        let _ = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    }

    /// Lands a request in slot 2 when it fires.
    struct Probe(Rc<RfpServerConn>);

    impl EventSink for Probe {
        fn fire(self: Rc<Self>, _: u64) {
            deposit(&self.0, 2, 1);
        }
    }

    /// When the server, sweeping a W=4 ring every 50 ns from t=0 (looks
    /// at 50, 100, 150, 200, spin to 300, looks from 350), picks up a
    /// request that lands in slot 2 at 150 — the instant of that slot's
    /// look. The look was scheduled at 100; the landing event is
    /// scheduled at 0 (`early`) or at 120.
    fn pickup_of_a_landing_at_a_look(early: bool) -> u64 {
        let mut sim = Simulation::new(0);
        let (cluster, conns, _clients) = rig(&mut sim, 4, 1);
        let h = sim.handle();
        let probe = Rc::new(Probe(Rc::clone(&conns[0])));
        let landing = SimTime::from_nanos(150);
        if early {
            h.schedule_event(landing, Rc::clone(&probe) as _, 0);
        }
        let picked = Rc::new(Cell::new(None));
        let (seen, clock) = (Rc::clone(&picked), h.clone());
        sim.spawn(serve_loop(
            cluster.machine(1).thread("server"),
            conns,
            move |req: &[u8]| {
                seen.set(Some(clock.now().as_nanos()));
                (req.to_vec(), SimSpan::ZERO)
            },
            IdlePolicy::fixed(SimSpan::nanos(100)),
        ));
        // A wake at 120 either way. The landing shares the look's
        // instant, so that look is an event, at its own place.
        sim.spawn(async move {
            h.sleep_until(SimTime::from_nanos(120)).await;
            if !early {
                h.schedule_event(landing, probe as _, 0);
            }
        });
        sim.run_until(SimTime::from_nanos(1_000));
        picked.get().expect("the request was picked up")
    }

    #[test]
    fn a_landing_on_a_look_instant_is_seen_iff_scheduled_before_the_look() {
        assert_eq!(pickup_of_a_landing_at_a_look(true), 150);
        assert_eq!(pickup_of_a_landing_at_a_look(false), 450);
    }

    #[test]
    fn sweeps_sharing_look_instants_skip_each_others_claims() {
        // Two reactor sweeps over the same two one-slot rings, each with
        // a request pending, started at the same instant: the second
        // finds the first ring claimed and takes the other. Their looks
        // share t=50; the first, done with its ring, skips the second's.
        let mut sim = Simulation::new(0);
        let (cluster, conns, _clients) = rig(&mut sim, 1, 2);
        let rings: Rc<[Rc<Ring>]> = conns.iter().map(|c| Rc::clone(c.ring())).collect();
        for conn in &conns {
            deposit(conn, 0, 1);
        }
        let hits = Rc::new(RefCell::new(Vec::new()));
        for who in ["first", "second"] {
            let thread = cluster.machine(1).thread(who);
            let sweep = Sweep::new(sim.handle());
            let (rings, conns, hits) = (Rc::clone(&rings), conns.clone(), Rc::clone(&hits));
            sim.spawn(async move {
                sweep.begin(&thread, &rings, true, usize::MAX);
                while let Stop::Hit { conn, slot, hdr } = sweep.next(0).await {
                    hits.borrow_mut().push((who, conn, thread.now().as_nanos()));
                    conns[conn]
                        .pickup(&thread, slot, hdr, &mut Vec::new())
                        .await;
                    sweep.took();
                }
            });
        }
        sim.run();
        assert_eq!(*hits.borrow(), [("first", 0, 50), ("second", 1, 50)]);
        assert!(rings.iter().all(|r| !r.claimed.get()), "claims released");
    }

    #[test]
    fn an_idle_sweep_looks_once_at_each_ring_but_the_one_it_scans_in_full() {
        // R rings × W slots cost (R − 1) + W looks, not R·W; one ring
        // still costs W.
        let look = RfpConfig::default().check_cpu.as_nanos();
        for (rings, window) in [(1, 8), (4, 1), (4, 8), (3, 16)] {
            let mut sim = Simulation::new(0);
            let (cluster, conns, _clients) = rig(&mut sim, window, rings);
            let swept: Rc<[Rc<Ring>]> = conns.iter().map(|c| Rc::clone(c.ring())).collect();
            let thread = cluster.machine(1).thread("core");
            let sweep = Sweep::new(sim.handle());
            sim.spawn(async move {
                sweep.begin(&thread, &swept, true, usize::MAX);
                assert!(matches!(sweep.next(0).await, Stop::End));
            });
            sim.run();
            let looks = sim.now().as_nanos() / look;
            assert_eq!(
                looks,
                (rings - 1 + window) as u64,
                "{rings} rings × W={window}"
            );
        }
    }

    /// One reactor sweep of `conns`' rings that rejects every request it
    /// meets `Busy`; the `(ring, slot)` of each.
    async fn sweep_rejecting(
        sweep: &Rc<Sweep>,
        thread: &Rc<ThreadCtx>,
        conns: &[Rc<RfpServerConn>],
    ) -> Vec<(usize, usize)> {
        let rings: Rc<[Rc<Ring>]> = conns.iter().map(|c| Rc::clone(c.ring())).collect();
        sweep.begin(thread, &rings, true, usize::MAX);
        let mut met = Vec::new();
        while let Stop::Hit { conn, slot, hdr } = sweep.next(0).await {
            met.push((conn, slot));
            conns[conn].pickup(thread, slot, hdr, &mut Vec::new()).await;
            sweep.took();
            conns[conn].reject(thread, RespStatus::Busy).await;
        }
        met
    }

    #[test]
    fn a_request_off_a_rings_head_is_found_within_one_rotation() {
        // Ring 1 of three W=4 rings answers slots 0 and 1, so its head
        // moves to slot 2. Then a request lands off the head: a
        // rejected one re-staged in its old slot 0 under a fresh seq,
        // or one in slot 2 after a restart moved the head back to the
        // answered slot 0. Head looks alone would never find either.
        const RINGS: usize = 3;
        const W: usize = 4;
        for restart in [false, true] {
            let mut sim = Simulation::new(0);
            let (cluster, conns, _clients) = rig(&mut sim, W, RINGS);
            let thread = cluster.machine(1).thread("core");
            let sweep = Sweep::new(sim.handle());
            let found = Rc::new(Cell::new(None));
            let out = Rc::clone(&found);
            sim.spawn(async move {
                deposit(&conns[1], 0, 1);
                deposit(&conns[1], 1, 2);
                let met = sweep_rejecting(&sweep, &thread, &conns).await;
                assert_eq!(met, [(1, 0), (1, 1)]);
                let off_head = if restart {
                    deposit(&conns[1], 2, 3);
                    conns[1].recover_after_restart();
                    2
                } else {
                    deposit(&conns[1], 0, 1 + W as u32);
                    0
                };
                for sweeps in 1..=2 * RINGS {
                    let met = sweep_rejecting(&sweep, &thread, &conns).await;
                    if met.contains(&(1, off_head)) {
                        out.set(Some(sweeps));
                        return;
                    }
                }
            });
            sim.run();
            let sweeps = found.get().expect("the request was found");
            assert!(
                sweeps <= RINGS,
                "found after {sweeps} sweeps (restart: {restart})"
            );
        }
    }
}
