//! The client endpoint: connection state, statistics, telemetry notes,
//! and the public call entry points — each a thin wrapper over the one
//! call engine in [`engine`].

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use rfp_rnic::{Qp, ThreadCtx};
use rfp_simnet::{Counter, Histogram, MetricsRegistry, SimSpan, SimTime};

use crate::conn::{Mode, Shared};
use crate::header::{ReqHeader, RespHeader, RespStatus, RESP_HDR_EXT};
use crate::observe::{Chain, Incident, Observer};
use crate::overload::{OverloadConfig, CREDIT_MAX};
use crate::recovery::{RecoveryConfig, RpcError};

mod engine;

pub use engine::CallPolicy;
use engine::Scratch;

/// Outcome of one RPC call.
#[derive(Clone, Debug)]
pub struct CallResult {
    /// The response payload.
    pub data: Vec<u8>,
    /// Per-call diagnostics.
    pub info: CallInfo,
}

impl CallResult {
    /// A call nobody executed: the engine giving up after repeated
    /// `Busy`/`Shed` verdicts, or a mux shedding locally (zero wire
    /// traffic) because the deadline budget ran out while the call
    /// queued for a connection.
    pub(crate) fn rejected(status: RespStatus, latency: SimSpan) -> Self {
        CallResult {
            data: Vec::new(),
            info: CallInfo {
                attempts: 0,
                extra_read: false,
                completed_in: Mode::RemoteFetch,
                latency,
                server_time_us: 0,
                status,
                integrity_retries: 0,
            },
        }
    }
}

/// Per-call diagnostics (feeds Table 3 and the round-trip accounting of
/// §4.3).
#[derive(Copy, Clone, Debug)]
pub struct CallInfo {
    /// Remote-fetch attempts made for this call (the paper's `N`);
    /// zero when the call was served in server-reply mode without any
    /// fetch.
    pub attempts: u32,
    /// Whether a second READ was needed because the response exceeded
    /// the fetch size `F`.
    pub extra_read: bool,
    /// Mode the call completed in.
    pub completed_in: Mode,
    /// End-to-end call latency.
    pub latency: SimSpan,
    /// Server-reported process time (the response header's 16-bit
    /// `time` field, µs) — the online tuner's `P` sample.
    pub server_time_us: u16,
    /// The server's verdict on this call. Always [`RespStatus::Ok`]
    /// outside the overload-control path; [`RespStatus::Busy`] /
    /// [`RespStatus::Shed`] mark rejected calls, whose `data` is empty.
    pub status: RespStatus,
    /// Fetches of this call discarded and retried because they failed
    /// integrity verification (torn DMA, bit flips). Always 0 with the
    /// integrity layer absent.
    pub integrity_retries: u32,
}

/// Aggregated client statistics. The shared cells are also what a
/// configured [`RfpTelemetry`](crate::RfpTelemetry) registry exports
/// under the connection's prefix, so a call is booked once.
#[derive(Default)]
pub struct ClientStats {
    calls: Rc<Counter>,
    extra_reads: Rc<Counter>,
    switches_to_reply: Rc<Counter>,
    switches_to_fetch: Rc<Counter>,
    /// Calls by remote-fetch attempts: entry `n` counts the calls that
    /// took `n`, grown to the largest count seen.
    attempts_hist: RefCell<Vec<u64>>,
    /// Doorbell rings paid by the pipelined driver's batched fetch
    /// rounds (each covers ≥ 2 READs).
    doorbells: Counter,
    /// Fetch READs issued inside doorbell batches.
    doorbell_reads: Counter,
    /// Pipelined fetch READs issued individually (paying their own
    /// doorbell, like the sequential path).
    single_reads: Counter,
    /// End-to-end call latencies.
    pub latency: CallLatency,
}

/// A connection's end-to-end call latencies: an exact running mean of
/// its own, and — only where a telemetry registry exports them — the
/// registry's one [`Histogram`] cell for `{prefix}.latency`, which every
/// connection sharing that prefix records into (a client's connections
/// to each server thread keep one cell between them, not one each). A
/// rig that books every call's latency itself does not pay a second
/// histogram's record and fold per call. The cell's memory grows with
/// the distinct latencies it has seen, not with calls or connections.
#[derive(Default)]
pub struct CallLatency {
    sum_ns: Cell<u128>,
    calls: Cell<u64>,
    samples: OnceCell<Rc<Histogram>>,
}

impl CallLatency {
    fn record(&self, span: SimSpan) {
        self.sum_ns.set(self.sum_ns.get() + span.as_nanos() as u128);
        self.calls.set(self.calls.get() + 1);
        if let Some(samples) = self.samples.get() {
            samples.record(span);
        }
    }

    /// Mean call latency, or `None` before the first call — the same
    /// integer division as [`Histogram::mean`].
    pub fn mean(&self) -> Option<SimSpan> {
        let calls = self.calls.get();
        (calls > 0).then(|| SimSpan::nanos((self.sum_ns.get() / calls as u128) as u64))
    }

    /// The exported per-call samples, kept only while a registry
    /// exports them: the cell shared by every connection under this
    /// one's prefix, so it holds their calls as well as this one's.
    pub fn samples(&self) -> Option<&Rc<Histogram>> {
        self.samples.get()
    }

    fn reset(&self) {
        self.sum_ns.set(0);
        self.calls.set(0);
        if let Some(samples) = self.samples.get() {
            samples.reset();
        }
    }
}

impl ClientStats {
    pub(crate) fn record(&self, info: &CallInfo) {
        self.calls.incr();
        if info.extra_read {
            self.extra_reads.incr();
        }
        self.latency.record(info.latency);
        let mut hist = self.attempts_hist.borrow_mut();
        let n = info.attempts as usize;
        if n >= hist.len() {
            hist.resize(n + 1, 0);
        }
        hist[n] += 1;
    }

    /// Exposes the shared cells in `registry` as `{prefix}.calls`,
    /// `.extra_reads`, `.switches.to_reply` and `.switches.to_fetch`
    /// (connections sharing a prefix export their sum; each keeps its
    /// own, which [`RfpClient::stats`] reads), and records latencies
    /// into the registry's one `{prefix}.latency` cell, which every
    /// connection under the prefix shares.
    pub(crate) fn register_into(&self, registry: &MetricsRegistry, prefix: &str) {
        let counter = |name, cell| registry.register_counter(&format!("{prefix}.{name}"), cell);
        counter("calls", &self.calls);
        counter("extra_reads", &self.extra_reads);
        counter("switches.to_reply", &self.switches_to_reply);
        counter("switches.to_fetch", &self.switches_to_fetch);
        let cell = registry.histogram(&format!("{prefix}.latency"));
        self.latency.samples.get_or_init(|| cell);
    }

    pub(crate) fn record_switch(&self, to: Mode) {
        match to {
            Mode::ServerReply => self.switches_to_reply.incr(),
            Mode::RemoteFetch => self.switches_to_fetch.incr(),
        }
    }

    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean remote-fetch attempts per call.
    pub fn mean_attempts(&self) -> f64 {
        if self.calls() == 0 {
            return 0.0;
        }
        let hist = self.attempts_hist.borrow();
        let attempts: u64 = (hist.iter().enumerate())
            .map(|(a, &calls)| a as u64 * calls)
            .sum();
        attempts as f64 / self.calls() as f64
    }

    /// Calls that needed a second READ for an oversized response.
    pub fn extra_reads(&self) -> u64 {
        self.extra_reads.get()
    }

    /// Fraction of calls with more than `n` fetch attempts.
    pub fn frac_attempts_above(&self, n: u32) -> f64 {
        if self.calls() == 0 {
            return 0.0;
        }
        let hist = self.attempts_hist.borrow();
        let above: u64 = hist.iter().skip(n as usize + 1).sum();
        above as f64 / self.calls() as f64
    }

    /// Largest attempt count observed (the paper's "largest N").
    pub fn max_attempts(&self) -> u32 {
        // `record` grows the histogram to the count it books, and
        // `reset` empties it, so its last entry is never zero.
        self.attempts_hist.borrow().len().saturating_sub(1) as u32
    }

    /// Histogram of attempts → call count, for the attempt counts some
    /// call took.
    pub fn attempts_histogram(&self) -> BTreeMap<u32, u64> {
        let hist = self.attempts_hist.borrow();
        let taken = hist.iter().enumerate().filter(|&(_, &calls)| calls > 0);
        taken.map(|(a, &calls)| (a as u32, calls)).collect()
    }

    /// Times the connection switched into server-reply mode.
    pub fn switches_to_reply(&self) -> u64 {
        self.switches_to_reply.get()
    }

    /// Times the connection switched back to remote fetching.
    pub fn switches_to_fetch(&self) -> u64 {
        self.switches_to_fetch.get()
    }

    /// Doorbell rings paid for batched fetch rounds (pipelined driver).
    pub fn doorbells(&self) -> u64 {
        self.doorbells.get()
    }

    /// Fetch READs that rode a shared doorbell (pipelined driver).
    pub fn doorbell_reads(&self) -> u64 {
        self.doorbell_reads.get()
    }

    /// Pipelined fetch READs that paid their own doorbell.
    pub fn single_reads(&self) -> u64 {
        self.single_reads.get()
    }

    /// Clears all statistics (discard warm-up), the exported latency
    /// cell included: reset every connection under a prefix together.
    pub fn reset(&self) {
        self.calls.reset();
        self.extra_reads.reset();
        self.switches_to_reply.reset();
        self.switches_to_fetch.reset();
        self.doorbells.reset();
        self.doorbell_reads.reset();
        self.single_reads.reset();
        self.attempts_hist.borrow_mut().clear();
        self.latency.reset();
    }
}

/// A factory minting a fresh QP to the server, used to re-establish an
/// errored one (see [`RfpClient::set_reconnect`]).
pub type QpFactory = Box<dyn Fn() -> Rc<Qp>>;

/// Why unwrapping a call's `Result` is sound when its policy carries no
/// recovery stage: verb errors are absorbed and a final rejection is a
/// status, so nothing can produce an [`RpcError`].
pub(crate) const NO_RECOVERY: &str = "a call without a recovery stage cannot fail";

/// Anything requests can be run through: a connection
/// ([`RfpClient::run`]), or a mux lease wrapped around one. The
/// single-call and ordered-batch forms every public entry point is made
/// of come for free.
pub(crate) trait CallEngine {
    /// Runs `reqs` under `policy`, lending `sink` one `(request index,
    /// outcome)` per request as each settles.
    async fn run<R: AsRef<[u8]>>(
        &self,
        thread: &ThreadCtx,
        reqs: &[R],
        policy: CallPolicy<'_>,
        sink: impl FnMut(usize, Result<&CallResult, RpcError>),
    );

    /// One call, its result copied out of the engine's loan.
    async fn one(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        policy: CallPolicy<'_>,
    ) -> Result<CallResult, RpcError> {
        let mut out = None;
        let sink = |_, r: Result<&CallResult, _>| out = Some(r.cloned());
        self.run(thread, &[req], policy, sink).await;
        out.expect("the engine settles every call")
    }

    /// A plain batch, results copied out in request order.
    async fn in_order(&self, thread: &ThreadCtx, reqs: &[Vec<u8>]) -> Vec<CallResult> {
        let mut results: Vec<Option<CallResult>> = reqs.iter().map(|_| None).collect();
        let plain = CallPolicy::default();
        self.run(thread, reqs, plain, |i, r| {
            results[i] = Some(r.expect(NO_RECOVERY).clone())
        })
        .await;
        let settled = results.into_iter();
        settled.map(|r| r.expect("every call settles")).collect()
    }
}

impl CallEngine for RfpClient {
    async fn run<R: AsRef<[u8]>>(
        &self,
        thread: &ThreadCtx,
        reqs: &[R],
        policy: CallPolicy<'_>,
        sink: impl FnMut(usize, Result<&CallResult, RpcError>),
    ) {
        RfpClient::run(self, thread, reqs, policy, sink).await
    }
}

/// Client endpoint of one RFP connection, bound to one simulated thread.
///
/// Implements the paper's `client_send` / `client_recv` (Table 2), the
/// hybrid remote-fetch ↔ server-reply switch, the two-segment fetch,
/// and the policy stages layered on them (pipelining window, overload
/// admission, integrity verification, crash recovery) — all as one
/// call engine, [`run`](RfpClient::run); every other entry point is a
/// wrapper that picks a [`CallPolicy`].
pub struct RfpClient {
    shared: Rc<Shared>,
    qp: RefCell<Rc<Qp>>,
    /// Factory minting a fresh QP to the server, installed by fault-
    /// tolerant deployments; used to re-establish an errored QP.
    reconnect: RefCell<Option<QpFactory>>,
    /// Per-ring-slot sequence counters: slot `s` carries seqs
    /// `s+1, s+1+W, s+1+2W, …` so `seq ≡ slot+1 (mod W)` always holds
    /// (see [`slot_of`](crate::header::slot_of)). With `W = 1` this
    /// degenerates to the single `+1` counter.
    slot_seq: Vec<Cell<u32>>,
    /// The engine's reusable working set (flights, free ring slots,
    /// batch buffers), so a call allocates none of it. Taken out for
    /// the duration of a run; between `send` and `recv` it holds the
    /// outstanding flight.
    scratch: RefCell<Scratch>,
    mode: Cell<Mode>,
    /// Consecutive calls whose failed retries exceeded `R`.
    consec_over: Cell<u32>,
    /// Runtime-tunable `R` (initialised from config).
    retry_threshold: Cell<u32>,
    /// Runtime-tunable `F` (initialised from config).
    fetch_size: Cell<usize>,
    /// Last credit level the server advertised to this connection
    /// (overload control; starts at the maximum).
    credits: Cell<u16>,
    /// Chain of the last settled call: what the layers above (replica
    /// routing, failover) attach their events to once the call itself
    /// is over.
    tail: Cell<Chain>,
    /// Tenant id stamped into every request header while set (the mux
    /// layer re-stamps it on each lease handoff); `None` outside a mux.
    tenant: Cell<Option<u32>>,
    /// Highest replication epoch this client has observed. Stamped into
    /// every request header and compared against every response: a
    /// response from an older epoch (a deposed ex-primary) is ignored
    /// like a non-matching poll, and a response carrying a newer epoch
    /// moves the client forward. 0 outside replicated deployments.
    epoch: Cell<u16>,
}

impl RfpClient {
    pub(crate) fn new(shared: Rc<Shared>, qp: Rc<Qp>) -> Self {
        let retry_threshold = Cell::new(shared.cfg.retry_threshold);
        let fetch_size = Cell::new(shared.cfg.fetch_size);
        let initial_mode = shared.cfg.initial_mode;
        let credits = Cell::new(CREDIT_MAX);
        let window = shared.cfg.window;
        RfpClient {
            shared,
            qp: RefCell::new(qp),
            reconnect: RefCell::new(None),
            // Slot `s` starts one allocation (`+W`) short of `s + 1`.
            slot_seq: (0..window)
                .map(|s| Cell::new((s as u32 + 1).wrapping_sub(window as u32)))
                .collect(),
            scratch: RefCell::new(Scratch::default()),
            mode: Cell::new(initial_mode),
            consec_over: Cell::new(0),
            retry_threshold,
            fetch_size,
            credits,
            tail: Cell::new(Chain::default()),
            tenant: Cell::new(None),
            epoch: Cell::new(0),
        }
    }

    /// Sets the replication epoch stamped into subsequent requests
    /// (failover layers seed it; the client also adopts newer epochs
    /// from responses on its own).
    pub fn set_epoch(&self, epoch: u16) {
        self.epoch.set(epoch);
    }

    /// Highest replication epoch observed so far (0 when replication
    /// is off).
    pub fn known_epoch(&self) -> u16 {
        self.epoch.get()
    }

    /// Whether `hdr` answers `seq` in the current (or a newer) epoch.
    ///
    /// A valid match carrying a **newer** epoch is accepted and adopted
    /// — that is how a client learns of a completed failover (including
    /// from a `Fenced` verdict). A match carrying an **older** epoch is
    /// a deposed ex-primary still answering into the landing zone; it
    /// is treated exactly like a non-matching poll, so the call keeps
    /// fetching and the recovery layer eventually fails over instead of
    /// surfacing a stale read.
    fn accept_resp(&self, hdr: &RespHeader, seq: u32) -> bool {
        hdr.valid && hdr.seq == seq && hdr.epoch >= self.epoch.get()
    }

    /// Books an accepted (seq-matching, integrity-verified) response's
    /// header fields: the advertised credit level, and — on an explicit
    /// `Fenced` verdict only — any newer replication epoch it carries.
    /// Restricting adoption to fences keeps corruption from poisoning
    /// the epoch: the payload CRC does not cover the header's epoch
    /// bytes, but a single bit flip cannot turn status 0 (`Ok`) into 3
    /// (`Fenced`), so a flipped epoch on an ordinary response is simply
    /// ignored.
    fn note_accepted(&self, hdr: &RespHeader) {
        self.credits.set(hdr.credits);
        if hdr.status == RespStatus::Fenced && hdr.epoch > self.epoch.get() {
            self.epoch.set(hdr.epoch);
        }
    }

    /// Stamps (or clears) the tenant id carried by every subsequent
    /// request on this connection. A multiplexing layer sets it when a
    /// lease moves the connection to a different logical client.
    pub fn set_tenant(&self, tenant: Option<u32>) {
        self.tenant.set(tenant);
    }

    /// The QP currently carrying this connection's verbs.
    pub(crate) fn qp(&self) -> Rc<Qp> {
        Rc::clone(&self.qp.borrow())
    }

    /// Allocates the next sequence number of ring `slot` (counters of
    /// one slot advance by `W`, preserving `seq ≡ slot+1 (mod W)`).
    fn alloc_seq_in(&self, slot: usize) -> u32 {
        let seq = self.peek_seq_in(slot);
        self.slot_seq[slot].set(seq);
        seq
    }

    /// The sequence number `slot`'s next allocation will return,
    /// without allocating (jitter-seed derivation).
    fn peek_seq_in(&self, slot: usize) -> u32 {
        self.slot_seq[slot]
            .get()
            .wrapping_add(self.shared.cfg.window as u32)
    }

    /// Decodes the response header currently in `slot`'s landing zone,
    /// through a stack buffer (the fetch hot path allocates nothing).
    fn resp_hdr_at(&self, slot: usize) -> RespHeader {
        let mut buf = [0u8; RESP_HDR_EXT];
        let n = self.shared.cfg.resp_wire_hdr();
        self.shared
            .client_resp
            .read_local_into(self.shared.resp_off(slot), &mut buf[..n]);
        RespHeader::decode(&buf[..n])
    }

    /// Installs the QP factory used to re-establish the connection after
    /// a QP error (see [`RecoveryConfig`]). Without one, recovery keeps
    /// retrying on the original QP and a QP-error fault is fatal to the
    /// call.
    pub fn set_reconnect(&self, factory: impl Fn() -> Rc<Qp> + 'static) {
        *self.reconnect.borrow_mut() = Some(Box::new(factory));
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> &ClientStats {
        &self.shared.obs.stats
    }

    /// Current transport mode.
    pub fn mode(&self) -> Mode {
        self.mode.get()
    }

    /// Current `F`.
    pub fn fetch_size(&self) -> usize {
        self.fetch_size.get()
    }

    /// Largest `F` this connection's buffers can carry.
    pub fn max_fetch_size(&self) -> usize {
        self.shared.cfg.resp_capacity
    }

    /// The header a `size`-byte request staged now as `seq` carries.
    fn req_header(&self, size: usize, seq: u32, deadline: Option<SimTime>) -> ReqHeader {
        ReqHeader {
            valid: true,
            size: size as u32,
            seq,
            deadline,
            tenant: self.tenant.get(),
            epoch: self.epoch.get(),
        }
    }

    /// Applies new `(R, F)` parameters (output of the selection
    /// procedure, [`crate::ParamSelector`]).
    ///
    /// # Panics
    ///
    /// Panics if `f` cannot cover the response header.
    pub fn set_params(&self, r: u32, f: usize) {
        assert!(
            f >= self.shared.cfg.resp_wire_hdr(),
            "F must cover the response header"
        );
        assert!(
            f <= self.shared.cfg.resp_capacity,
            "F exceeds response buffer"
        );
        self.retry_threshold.set(r);
        self.fetch_size.set(f);
    }

    /// The connection's overload-control stage, when present.
    pub fn overload_config(&self) -> Option<&OverloadConfig> {
        self.shared.cfg.overload.as_ref()
    }

    /// `client_send`: deposits a request into server memory via
    /// one-sided WRITE — the engine's stage + submit steps for one
    /// flight, which the matching [`recv`](RfpClient::recv) then drives
    /// to completion.
    ///
    /// # Panics
    ///
    /// Panics if `req` exceeds the request capacity.
    pub async fn send(&self, thread: &ThreadCtx, req: &[u8]) {
        self.submit_one(thread, req).await;
    }

    /// `client_recv`: obtains the response for the last
    /// [`send`](RfpClient::send), via repeated remote fetching or
    /// server-reply depending on the connection mode.
    ///
    /// The reported latency spans from the matching `send` (end-to-end
    /// call time).
    ///
    /// # Panics
    ///
    /// Panics if no `send` is outstanding.
    pub async fn recv(&self, thread: &ThreadCtx) -> CallResult {
        let mut out = None;
        self.resume(thread, |_, r| out = Some(r.cloned())).await;
        out.expect("recv without an outstanding send")
            .expect(NO_RECOVERY)
    }

    /// One full RPC: the engine at one flight with every policy stage
    /// off.
    pub async fn call(&self, thread: &ThreadCtx, req: &[u8]) -> CallResult {
        self.one(thread, req, CallPolicy::default())
            .await
            .expect(NO_RECOVERY)
    }

    /// Pipelined multi-call driver: [`run`](RfpClient::run) with no
    /// policy stage, results collected in request order. Up to `W` (the
    /// configured [`window`](crate::RfpConfig::window)) calls ride the
    /// ring at once. Their request WRITEs and fetch READs are posted
    /// without waiting — a round's fetches share **one doorbell ring**
    /// ([`Qp::post_read_batch`]), so the client-side issue cost the
    /// paper charges per READ (§2.2) is paid once per round — and each
    /// round waits only for the older half of what is posted, which
    /// keeps the client's out-bound engine busy. With `W = 1` this is
    /// [`call`](RfpClient::call) in a loop, event for event.
    ///
    /// Verb errors from injected faults are absorbed, so the batch
    /// rides out a server restart.
    ///
    /// # Panics
    ///
    /// Panics if any request exceeds the per-slot capacity.
    pub async fn call_pipelined(&self, thread: &ThreadCtx, reqs: &[Vec<u8>]) -> Vec<CallResult> {
        self.in_order(thread, reqs).await
    }

    /// One overload-aware RPC (requires [`RfpConfig::overload`](crate::RfpConfig::overload)):
    /// [`run`](RfpClient::run) with the admission stage of
    /// [`CallPolicy`] on. A call still rejected when the retry schedule
    /// — or the explicit `deadline` — is exhausted returns the
    /// `Busy`/`Shed` status with empty data instead of an error: under
    /// overload a rejected call is an expected outcome, not a fault.
    ///
    /// `deadline` semantics: `Some(d)` is a hard absolute bound for the
    /// *whole call*, stamped into every resubmission and clamping every
    /// pause; `None` gives each admission attempt a fresh
    /// `now + deadline` budget from the config.
    pub async fn call_overload(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        deadline: Option<SimTime>,
    ) -> CallResult {
        self.one(thread, req, CallPolicy::admitted(deadline))
            .await
            .expect(NO_RECOVERY)
    }

    /// One fault-tolerant RPC: deposits the request, fetches the
    /// response under a per-attempt deadline, and on failure backs off
    /// (jittered exponential), re-establishes an errored QP, and
    /// resubmits under the **same** sequence number so a restarted
    /// server dedups the replay. See [`RecoveryConfig`].
    ///
    /// On a healthy cluster the first attempt succeeds and this behaves
    /// exactly like [`call`](RfpClient::call) in remote-fetch mode: no
    /// recovery instrument is created, no extra event is scheduled.
    pub async fn call_with_recovery(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        rec: &RecoveryConfig,
    ) -> Result<CallResult, RpcError> {
        self.one(thread, req, CallPolicy::recovered(rec)).await
    }

    /// Where this connection books what happens on it (the replica
    /// router's scorer reads its health window).
    pub(crate) fn obs(&self) -> &Observer {
        &self.shared.obs
    }

    /// Books an incident from *outside* the engine — the replica
    /// router's `recovery.*` / `routing.*` reactions — chained onto the
    /// last settled call.
    pub(crate) fn note_recovery(
        &self,
        thread: &ThreadCtx,
        incident: Incident,
        detail: impl fmt::Display,
    ) {
        let mut tail = self.tail.get();
        self.obs()
            .incident(thread.now(), &mut tail, incident, detail);
        self.tail.set(tail);
    }
}
