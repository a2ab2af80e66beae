//! The NIC model: two asymmetric engines plus operation accounting.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_simnet::{
    Counter, FifoServer, FlightRecorder, Gauge, Lane, MetricsRegistry, Severity, SimHandle,
    SimSpan, SimTime,
};

use crate::profile::NicProfile;

/// Cumulative per-NIC operation counters.
///
/// `inbound_ops` is the number the paper's §4.3 round-trip accounting is
/// based on (e.g. Jakiro's 2.005 in-bound ops per GET at the server).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicCounters {
    /// One-sided ops served by the in-bound engine.
    pub inbound_ops: u64,
    /// One-sided ops issued through the out-bound engine.
    pub outbound_ops: u64,
    /// Payload bytes received by one-sided ops (writes in, reads out).
    pub inbound_bytes: u64,
    /// Payload bytes sent by one-sided ops.
    pub outbound_bytes: u64,
    /// Unreliable (UC/UD) packets this NIC put on the wire that never
    /// arrived — lost in transit or addressed to a crashed peer.
    pub dropped: u64,
}

/// The service-time table an op is charged at on either engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Cost {
    /// One-sided READ/WRITE: the asymmetric in-/out-bound costs.
    OneSided,
    /// Two-sided SEND/RECV on a connection: symmetric (paper §2.2).
    TwoSided,
    /// UD datagram: cheaper than RC (no connection state, no ACKs).
    Datagram,
}

/// Gauges kept current by the engines once a registry is attached.
struct NicGauges {
    inbound_backlog_ns: Rc<Gauge>,
    outbound_backlog_ns: Rc<Gauge>,
    inbound_busy_ns: Rc<Gauge>,
    outbound_busy_ns: Rc<Gauge>,
}

/// One simulated RNIC with separate in-bound and out-bound pipelines.
pub struct Nic {
    profile: NicProfile,
    handle: SimHandle,
    inbound: FifoServer,
    outbound: FifoServer,
    /// Where each engine's service completions wait: a FIFO engine
    /// finishes its ops in the order it books them.
    pub(crate) inbound_lane: Lane,
    pub(crate) outbound_lane: Lane,
    /// Threads currently inside an issuing verb on this NIC; drives the
    /// out-bound contention multiplier.
    active_issuers: Cell<usize>,
    inbound_ops: Rc<Counter>,
    outbound_ops: Rc<Counter>,
    inbound_bytes: Rc<Counter>,
    outbound_bytes: Rc<Counter>,
    dropped: Rc<Counter>,
    gauges: RefCell<Option<NicGauges>>,
    /// Flight recorder receiving wire-level loss/retransmit events,
    /// tagged with this NIC's machine index.
    recorder: RefCell<Option<(FlightRecorder, u32)>>,
}

impl Nic {
    pub(crate) fn new(handle: SimHandle, profile: NicProfile) -> Self {
        Nic {
            profile,
            handle: handle.clone(),
            inbound: FifoServer::new(handle.clone()),
            outbound: FifoServer::new(handle.clone()),
            inbound_lane: handle.lane(),
            outbound_lane: handle.lane(),
            active_issuers: Cell::new(0),
            inbound_ops: Rc::new(Counter::new()),
            outbound_ops: Rc::new(Counter::new()),
            inbound_bytes: Rc::new(Counter::new()),
            outbound_bytes: Rc::new(Counter::new()),
            dropped: Rc::new(Counter::new()),
            gauges: RefCell::new(None),
            recorder: RefCell::new(None),
        }
    }

    /// The timing model of this NIC.
    pub fn profile(&self) -> &NicProfile {
        &self.profile
    }

    /// Registers this NIC's instruments under `prefix` (e.g. `nic.0`):
    /// the four op/byte counters plus per-engine backlog and busy-time
    /// gauges, refreshed on every operation the engines accept.
    pub fn attach_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.inbound.ops"), &self.inbound_ops);
        registry.register_counter(&format!("{prefix}.outbound.ops"), &self.outbound_ops);
        registry.register_counter(&format!("{prefix}.inbound.bytes"), &self.inbound_bytes);
        registry.register_counter(&format!("{prefix}.outbound.bytes"), &self.outbound_bytes);
        registry.register_counter(&format!("{prefix}.dropped"), &self.dropped);
        *self.gauges.borrow_mut() = Some(NicGauges {
            inbound_backlog_ns: registry.gauge(&format!("{prefix}.inbound.backlog_ns")),
            outbound_backlog_ns: registry.gauge(&format!("{prefix}.outbound.backlog_ns")),
            inbound_busy_ns: registry.gauge(&format!("{prefix}.inbound.busy_ns")),
            outbound_busy_ns: registry.gauge(&format!("{prefix}.outbound.busy_ns")),
        });
        self.refresh_gauges();
    }

    /// Pushes current engine state into the attached gauges, if any.
    /// Backlog is the service time already committed past `now` — the
    /// analytic queue length of the never-materialised FIFO.
    fn refresh_gauges(&self) {
        if let Some(g) = self.gauges.borrow().as_ref() {
            let now = self.handle.now();
            let backlog = |next_free: SimTime| next_free.max(now).since(now).as_nanos() as i64;
            g.inbound_backlog_ns.set(backlog(self.inbound.next_free()));
            g.outbound_backlog_ns
                .set(backlog(self.outbound.next_free()));
            g.inbound_busy_ns
                .set(self.inbound.busy_time().as_nanos() as i64);
            g.outbound_busy_ns
                .set(self.outbound.busy_time().as_nanos() as i64);
        }
    }

    /// Marks a thread as inside an issuing verb; the guard un-marks on
    /// drop. The count feeds the out-bound contention multiplier.
    pub(crate) fn begin_issue(self: &Rc<Self>) -> IssueGuard {
        self.active_issuers.set(self.active_issuers.get() + 1);
        IssueGuard {
            nic: Rc::clone(self),
        }
    }

    /// Occupies the out-bound engine for one op of `bytes` at `cost`
    /// (one-sided service is inflated by the contention multiplier of
    /// the threads issuing right now); returns the instant service
    /// completes.
    pub(crate) fn serve_out(&self, cost: Cost, bytes: usize) -> SimTime {
        let service = match cost {
            Cost::OneSided => {
                let base = self.profile.outbound_service(bytes).as_nanos() as f64;
                let issuers = self.active_issuers.get();
                SimSpan::from_nanos_f64(base * self.profile.contention_multiplier(issuers))
            }
            Cost::TwoSided => self.profile.twosided_service(bytes),
            Cost::Datagram => self.profile.ud_service(bytes),
        };
        self.outbound_ops.incr();
        self.outbound_bytes.add(bytes as u64);
        let done = self.outbound.reserve(service);
        self.refresh_gauges();
        done
    }

    /// Occupies the in-bound engine for one op of `bytes` at `cost`;
    /// returns the instant service completes (when data lands / leaves).
    pub(crate) fn serve_in(&self, cost: Cost, bytes: usize) -> SimTime {
        let service = match cost {
            Cost::OneSided => self.profile.inbound_service(bytes),
            Cost::TwoSided => self.profile.twosided_service(bytes),
            Cost::Datagram => self.profile.ud_service(bytes),
        };
        self.inbound_ops.incr();
        self.inbound_bytes.add(bytes as u64);
        let done = self.inbound.reserve(service);
        self.refresh_gauges();
        done
    }

    /// Attaches a flight recorder; wire-level loss and retransmit
    /// events are appended to it, tagged with `machine` (and no
    /// connection — the NIC does not know which connection a packet
    /// belonged to; correlation happens through the time window).
    pub fn attach_recorder(&self, recorder: &FlightRecorder, machine: u32) {
        *self.recorder.borrow_mut() = Some((recorder.clone(), machine));
    }

    fn record_wire(&self, kind: &'static str, severity: Severity, detail: &str) {
        if let Some((rec, machine)) = self.recorder.borrow().as_ref() {
            rec.record(
                self.handle.now(),
                None,
                0,
                severity,
                kind,
                format!("machine {machine}: {detail}"),
            );
        }
    }

    /// Records one unreliable packet that left this NIC but never
    /// arrived.
    pub(crate) fn note_drop(&self) {
        self.dropped.incr();
        self.record_wire("nic.drop", Severity::Warn, "packet lost in transit");
    }

    /// Records one RC retransmission round trip paid during a loss
    /// burst (reliable transport: the op still completes).
    pub(crate) fn note_rc_retransmit(&self) {
        self.record_wire(
            "nic.rc_retransmit",
            Severity::Info,
            "RC retransmit round trip during loss burst",
        );
    }

    /// Snapshot of the operation counters.
    pub fn counters(&self) -> NicCounters {
        NicCounters {
            inbound_ops: self.inbound_ops.get(),
            outbound_ops: self.outbound_ops.get(),
            inbound_bytes: self.inbound_bytes.get(),
            outbound_bytes: self.outbound_bytes.get(),
            dropped: self.dropped.get(),
        }
    }

    /// Resets counters and engine statistics (keeps queued work), to
    /// discard warm-up before a measurement window.
    pub fn reset_counters(&self) {
        self.inbound_ops.reset();
        self.outbound_ops.reset();
        self.inbound_bytes.reset();
        self.outbound_bytes.reset();
        self.dropped.reset();
        self.inbound.reset_stats();
        self.outbound.reset_stats();
        self.refresh_gauges();
    }

    /// Busy time of the in-bound engine since the last reset (for
    /// utilisation cross-checks in tests).
    pub fn inbound_busy(&self) -> SimSpan {
        self.inbound.busy_time()
    }

    /// Busy time of the out-bound engine since the last reset.
    pub fn outbound_busy(&self) -> SimSpan {
        self.outbound.busy_time()
    }
}

/// RAII guard marking a thread as an active issuer on a NIC.
pub(crate) struct IssueGuard {
    nic: Rc<Nic>,
}

impl Drop for IssueGuard {
    fn drop(&mut self) {
        let n = self.nic.active_issuers.get();
        debug_assert!(n > 0);
        self.nic.active_issuers.set(n - 1);
    }
}
