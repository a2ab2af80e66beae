//! The client endpoint: connection state, statistics, telemetry notes,
//! and the public call entry points — each a thin wrapper over the one
//! call engine in [`engine`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rfp_rnic::{Qp, ThreadCtx};
use rfp_simnet::{ConnHealth, Counter, Gauge, Histogram, Severity, SimSpan, SimTime};

use crate::conn::{Mode, RfpTelemetry, Shared};
use crate::header::{RespHeader, RespStatus, RESP_HDR_EXT};
use crate::overload::OverloadConfig;
use crate::recovery::{RecoveryConfig, RpcError};

mod engine;

pub use engine::CallPolicy;
use engine::Scratch;

/// Registry-backed instruments of one connection, created when the
/// config carries an [`RfpTelemetry`].
struct Instruments {
    telemetry: RfpTelemetry,
    calls: Rc<Counter>,
    /// Failed remote-fetch attempts (READs that found no valid header).
    retries: Rc<Counter>,
    extra_reads: Rc<Counter>,
    fallback_fetches: Rc<Counter>,
    switches_to_reply: Rc<Counter>,
    switches_to_fetch: Rc<Counter>,
    /// Bytes moved by remote-fetch READs (tracks the effective `F`).
    fetch_bytes: Rc<Counter>,
    latency: Rc<Histogram>,
    /// 0 = remote fetch, 1 = server reply.
    mode: Rc<Gauge>,
}

impl Instruments {
    fn new(telemetry: RfpTelemetry, initial_mode: Mode) -> Self {
        let reg = &telemetry.registry;
        let p = telemetry.prefix.clone();
        let this = Instruments {
            calls: reg.counter(&format!("{p}.calls")),
            retries: reg.counter(&format!("{p}.retries")),
            extra_reads: reg.counter(&format!("{p}.extra_reads")),
            fallback_fetches: reg.counter(&format!("{p}.fallback_fetches")),
            switches_to_reply: reg.counter(&format!("{p}.switches.to_reply")),
            switches_to_fetch: reg.counter(&format!("{p}.switches.to_fetch")),
            fetch_bytes: reg.counter(&format!("{p}.fetch.bytes")),
            latency: reg.histogram(&format!("{p}.latency")),
            mode: reg.gauge(&format!("{p}.mode")),
            telemetry,
        };
        this.mode.set(mode_level(initial_mode));
        this
    }
}

fn mode_level(mode: Mode) -> i64 {
    match mode {
        Mode::RemoteFetch => 0,
        Mode::ServerReply => 1,
    }
}

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
    /// `Busy`/`Shed` verdicts, or a pool/mux shedding locally (zero wire
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
    /// integrity layer off.
    pub integrity_retries: u32,
}

/// Aggregated client statistics.
#[derive(Default)]
pub struct ClientStats {
    calls: Cell<u64>,
    fetch_attempts: Cell<u64>,
    extra_reads: Cell<u64>,
    switches_to_reply: Cell<u64>,
    switches_to_fetch: Cell<u64>,
    attempts_hist: RefCell<BTreeMap<u32, u64>>,
    /// Doorbell rings paid by the pipelined driver's batched fetch
    /// rounds (each covers ≥ 2 READs).
    doorbells: Cell<u64>,
    /// Fetch READs issued inside doorbell batches.
    doorbell_reads: Cell<u64>,
    /// Pipelined fetch READs issued individually (paying their own
    /// doorbell, like the sequential path).
    single_reads: Cell<u64>,
    /// End-to-end call latencies.
    pub latency: Histogram,
}

impl ClientStats {
    fn record(&self, info: &CallInfo) {
        self.calls.set(self.calls.get() + 1);
        self.fetch_attempts
            .set(self.fetch_attempts.get() + info.attempts as u64);
        if info.extra_read {
            self.extra_reads.set(self.extra_reads.get() + 1);
        }
        *self
            .attempts_hist
            .borrow_mut()
            .entry(info.attempts)
            .or_insert(0) += 1;
        self.latency.record(info.latency);
    }

    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean remote-fetch attempts per call.
    pub fn mean_attempts(&self) -> f64 {
        if self.calls.get() == 0 {
            return 0.0;
        }
        self.fetch_attempts.get() as f64 / self.calls.get() as f64
    }

    /// Calls that needed a second READ for an oversized response.
    pub fn extra_reads(&self) -> u64 {
        self.extra_reads.get()
    }

    /// Fraction of calls with more than `n` fetch attempts.
    pub fn frac_attempts_above(&self, n: u32) -> f64 {
        if self.calls.get() == 0 {
            return 0.0;
        }
        let above: u64 = self
            .attempts_hist
            .borrow()
            .iter()
            .filter(|(&a, _)| a > n)
            .map(|(_, &c)| c)
            .sum();
        above as f64 / self.calls.get() as f64
    }

    /// Largest attempt count observed (the paper's "largest N").
    pub fn max_attempts(&self) -> u32 {
        self.attempts_hist
            .borrow()
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
    }

    /// Histogram of attempts → call count.
    pub fn attempts_histogram(&self) -> BTreeMap<u32, u64> {
        self.attempts_hist.borrow().clone()
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

    /// Clears all statistics (discard warm-up).
    pub fn reset(&self) {
        self.calls.set(0);
        self.fetch_attempts.set(0);
        self.extra_reads.set(0);
        self.switches_to_reply.set(0);
        self.switches_to_fetch.set(0);
        self.doorbells.set(0);
        self.doorbell_reads.set(0);
        self.single_reads.set(0);
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
/// ([`RfpClient::run`]), or a pool or mux lease wrapped around one. The
/// single-call and ordered-batch forms every public entry point is made
/// of come for free.
pub(crate) trait CallEngine {
    /// Runs `reqs` under `policy`, handing `sink` one `(request index,
    /// outcome)` per request as each settles.
    async fn run<R: AsRef<[u8]>>(
        &self,
        thread: &ThreadCtx,
        reqs: &[R],
        policy: CallPolicy<'_>,
        sink: impl FnMut(usize, Result<CallResult, RpcError>),
    );

    /// One call.
    async fn one(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        policy: CallPolicy<'_>,
    ) -> Result<CallResult, RpcError> {
        let mut out = None;
        self.run(thread, &[req], policy, |_, r| out = Some(r)).await;
        out.expect("the engine settles every call")
    }

    /// A plain batch, results in request order.
    async fn in_order(&self, thread: &ThreadCtx, reqs: &[Vec<u8>]) -> Vec<CallResult> {
        let mut results: Vec<Option<CallResult>> = reqs.iter().map(|_| None).collect();
        let plain = CallPolicy::default();
        self.run(thread, reqs, plain, |i, r| {
            results[i] = Some(r.expect(NO_RECOVERY))
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
        sink: impl FnMut(usize, Result<CallResult, RpcError>),
    ) {
        RfpClient::run(self, thread, reqs, policy, sink).await
    }
}

/// Position of a call in the flight recorder: the sequence number its
/// events are tagged with, and the id of its most recent event — the
/// cause link of the next one, so a call's events chain (deadline →
/// resubmit → reconnect). Each [`engine::Flight`] owns one, starting
/// with no cause at call entry.
#[derive(Copy, Clone, Debug, Default)]
struct Chain {
    seq: u32,
    cause: Option<u64>,
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
    /// the duration of a run; between `send` and `recv`, and between a
    /// hedge leg's submit and its polls, it holds the outstanding
    /// flight.
    scratch: RefCell<Scratch>,
    mode: Cell<Mode>,
    /// Consecutive calls whose failed retries exceeded `R`.
    consec_over: Cell<u32>,
    /// Runtime-tunable `R` (initialised from config).
    retry_threshold: Cell<u32>,
    /// Runtime-tunable `F` (initialised from config).
    fetch_size: Cell<usize>,
    /// Last credit level the server advertised to this connection
    /// (overload control; starts at the configured maximum).
    credits: Cell<u16>,
    stats: ClientStats,
    instruments: Option<Instruments>,
    /// This connection's rolling health window, when the config carries
    /// a [`HealthHub`](rfp_simnet::HealthHub).
    health: Option<Rc<ConnHealth>>,
    /// Chain of the last settled call: what the layers above (replica
    /// routing, failover) attach their events to once the call itself
    /// is over.
    tail: Cell<Chain>,
    /// Tenant id stamped into every request header while set (the mux
    /// layer re-stamps it on each lease handoff). `None` — the default
    /// everywhere outside a mux — keeps requests byte-identical to the
    /// untenanted layout.
    tenant: Cell<Option<u32>>,
    /// Highest replication epoch this client has observed. Stamped into
    /// every request header and compared against every response: a
    /// response from an older epoch (a deposed ex-primary) is ignored
    /// like a non-matching poll, and a response carrying a newer epoch
    /// moves the client forward. 0 — the default outside replicated
    /// deployments — keeps the wire bytes legacy-identical.
    epoch: Cell<u16>,
}

impl RfpClient {
    pub(crate) fn new(shared: Rc<Shared>, qp: Rc<Qp>) -> Self {
        let retry_threshold = Cell::new(shared.cfg.retry_threshold);
        let fetch_size = Cell::new(shared.cfg.fetch_size);
        let initial_mode = shared.cfg.initial_mode;
        let instruments = shared
            .cfg
            .telemetry
            .clone()
            .map(|t| Instruments::new(t, initial_mode));
        let credits = Cell::new(shared.cfg.overload.credit_max);
        let window = shared.cfg.window;
        let health = shared
            .cfg
            .health
            .as_ref()
            .map(|h| h.conn(shared.cfg.conn_id));
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
            stats: ClientStats::default(),
            instruments,
            health,
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

    /// Tenant id currently stamped into requests, if any.
    pub fn tenant(&self) -> Option<u32> {
        self.tenant.get()
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
        &self.stats
    }

    /// Current transport mode.
    pub fn mode(&self) -> Mode {
        self.mode.get()
    }

    /// Current `R`.
    pub fn retry_threshold(&self) -> u32 {
        self.retry_threshold.get()
    }

    /// Current `F`.
    pub fn fetch_size(&self) -> usize {
        self.fetch_size.get()
    }

    /// Largest `F` this connection's buffers can carry.
    pub fn max_fetch_size(&self) -> usize {
        self.shared.cfg.resp_capacity
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

    /// The connection's overload-control knobs.
    pub fn overload_config(&self) -> &OverloadConfig {
        &self.shared.cfg.overload
    }

    /// Last credit level the server advertised on this connection.
    pub fn credits(&self) -> u16 {
        self.credits.get()
    }

    /// This connection's rolling health window, when the config wired
    /// one in. The replica router's scorer reads it.
    pub(crate) fn conn_health(&self) -> Option<&Rc<ConnHealth>> {
        self.health.as_ref()
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
        self.submit_one(thread, req, &CallPolicy::default()).await;
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
        self.resume(thread, |_, r| out = Some(r)).await;
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
    /// ring at once and their fetch polls share **one doorbell ring per
    /// round** ([`Qp::post_read_batch`]) — the client-side issue cost
    /// the paper charges per READ (§2.2) is paid once per round instead
    /// of once per outstanding call. With `W = 1` this is
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

    /// One overload-aware RPC (requires [`OverloadConfig::enabled`]):
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

    /// Adds a milestone to `slot`'s in-flight span, if one exists.
    fn span_mark(&self, thread: &ThreadCtx, slot: usize, label: &'static str) {
        if let Some(span) = self.shared.span_mut(slot).as_mut() {
            span.mark_unordered(thread.now(), label);
        }
    }

    /// Closes `slot`'s span with a final milestone and hands it to the
    /// recorder.
    fn close_span(&self, thread: &ThreadCtx, slot: usize, label: &'static str) {
        if let Some(ins) = &self.instruments {
            if let Some(mut span) = self.shared.span_mut(slot).take() {
                span.mark_unordered(thread.now(), label);
                ins.telemetry.spans.record(span);
            }
        }
    }

    /// Appends a flight-recorder event tagged with this connection and
    /// the chain's seq, linked onto the chain's previous event, and
    /// makes it the next link's cause. Pure bookkeeping: no simulated
    /// time, no wire bytes — a `None` recorder run is event-identical
    /// to one with recording on.
    fn flight_event(
        &self,
        thread: &ThreadCtx,
        chain: &mut Chain,
        severity: Severity,
        kind: &'static str,
        detail: &str,
    ) {
        if let Some(rec) = &self.shared.cfg.recorder {
            chain.cause = Some(rec.record_caused(
                thread.now(),
                Some(self.shared.cfg.conn_id),
                chain.seq as u64,
                severity,
                kind,
                detail,
                chain.cause,
            ));
        }
    }

    /// Books one protocol incident on every telemetry plane at once:
    /// the lazily created `counter` (a run that never hits the
    /// incident materialises no instrument, keeping fault-free metric
    /// output byte-equal), a trace entry, a chained flight-recorder
    /// event, and the matching health-window signal.
    fn note(&self, thread: &ThreadCtx, chain: &mut Chain, counter: &'static str, what: &str) {
        // The counter's family picks the trace category and severity.
        let (category, severity) = match counter {
            c if c.starts_with("overload.") => ("rfp.overload", Severity::Warn),
            c if c.starts_with("fetch.") => ("rfp.integrity", Severity::Error),
            "recovery.failed_calls" => ("rfp.recovery", Severity::Error),
            _ => ("rfp.recovery", Severity::Warn),
        };
        if let Some(ins) = &self.instruments {
            let registry = &ins.telemetry.registry;
            registry.counter(counter).incr();
            if category == "rfp.integrity" {
                registry.counter("fetch.integrity_retries").incr();
            }
        }
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(thread.now(), category, format!("seq {}: {what}", chain.seq));
        }
        self.flight_event(thread, chain, severity, counter, what);
        if let Some(h) = &self.health {
            let now = thread.now();
            match counter {
                "overload.credit_waits" => h.record_credit_wait(now),
                "overload.busy_seen" => h.record_busy(now),
                "overload.sheds_seen" | "overload.local_sheds" => h.record_shed(now),
                "fetch.torn" | "fetch.crc_fail" => h.record_corrupt(now),
                "recovery.verb_errors" => h.record_verb_error(now),
                "recovery.reconnects" => h.record_reconnect(now),
                _ => {}
            }
        }
    }

    /// Runs `f` on the chain an event from *outside* the engine belongs
    /// to: a live hedge leg's, else the last settled call's.
    fn with_outer_chain(&self, f: impl FnOnce(&mut Chain)) {
        if let Some(fl) = self.scratch.borrow_mut().flights.first_mut() {
            return f(&mut fl.chain);
        }
        let mut chain = self.tail.get();
        f(&mut chain);
        self.tail.set(chain);
    }

    /// A `recovery.*` / `routing.*` [`note`](RfpClient::note) from the
    /// replica router, chained onto the call it concerns.
    pub(crate) fn note_recovery(&self, thread: &ThreadCtx, counter: &'static str, what: &str) {
        self.with_outer_chain(|chain| self.note(thread, chain, counter, what));
    }

    /// Books the replica router abandoning this connection: the
    /// `recovery.failovers` counter, a `recovery.failover` link chained
    /// onto the failed call's flight-recorder cause chain, and the
    /// health plane's failover signal. Lazy like the rest of the
    /// recovery telemetry: a run that never fails over creates nothing.
    pub(crate) fn note_failover(&self, thread: &ThreadCtx, detail: String) {
        if let Some(ins) = &self.instruments {
            ins.telemetry.registry.counter("recovery.failovers").incr();
        }
        if let Some(h) = &self.health {
            h.record_failover(thread.now());
        }
        self.with_outer_chain(|chain| {
            self.flight_event(thread, chain, Severity::Warn, "recovery.failover", &detail)
        });
        if let Some(trace) = &self.shared.cfg.trace {
            trace.record(thread.now(), "rfp.recovery", detail);
        }
    }
}
