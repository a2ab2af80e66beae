//! The connection's one telemetry seam.
//!
//! Both endpoints report through an [`Observer`] built once at
//! [`connect`](crate::connect): every protocol incident is one
//! [`Incident`] row booked by one [`Observer::incident`] call, which
//! fans it out to whichever planes the config attached — the lazily
//! created registry counter, a cause-chained flight-recorder event, the
//! health window's signal. Call sites never learn which planes exist.
//! Pure bookkeeping: no simulated time, no wire bytes, so a run with
//! every plane attached is event-identical to one with none.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use rfp_simnet::{
    ConnHealth, Counter, FlightRecorder, Gauge, HealthSignal, RequestTrace, Severity, SimTime,
};

use crate::client::{CallInfo, ClientStats};
use crate::conn::{Mode, RfpConfig, RfpTelemetry};

/// One kind of thing a connection reports besides its completed calls:
/// a row of the [`incident`] table.
#[derive(Copy, Clone)]
pub(crate) struct Incident {
    /// Registry counter, created at first occurrence (a run that never
    /// hits the incident exports no row).
    counter: Option<&'static str>,
    /// Flight-recorder kind.
    kind: &'static str,
    severity: Severity,
    /// Health-window signal.
    signal: Option<HealthSignal>,
}

/// The incident table: counter, recorder kind, severity, health signal.
#[rustfmt::skip] // a table reads by column
pub(crate) mod incident {
    use super::{HealthSignal as H, Incident, Severity::{self, *}};

    const fn row(counter: Option<&'static str>, kind: &'static str, severity: Severity, signal: Option<H>) -> Incident {
        Incident { counter, kind, severity, signal }
    }

    pub(crate) const CREDIT_WAIT:     Incident = row(Some("overload.credit_waits"),    "overload.credit_waits",     Warn,  Some(H::CreditWait));
    pub(crate) const BUSY_SEEN:       Incident = row(Some("overload.busy_seen"),       "overload.busy_seen",        Warn,  Some(H::Busy));
    pub(crate) const SHED_SEEN:       Incident = row(Some("overload.sheds_seen"),      "overload.sheds_seen",       Warn,  Some(H::Shed));
    pub(crate) const LOCAL_SHED:      Incident = row(Some("overload.local_sheds"),     "overload.local_sheds",      Warn,  Some(H::Shed));
    pub(crate) const GIVE_UP:         Incident = row(Some("overload.give_ups"),        "overload.give_ups",         Warn,  None);
    pub(crate) const TORN:            Incident = row(Some("fetch.torn"),               "fetch.torn",                Error, Some(H::Corrupt));
    pub(crate) const CRC_FAIL:        Incident = row(Some("fetch.crc_fail"),           "fetch.crc_fail",            Error, Some(H::Corrupt));
    pub(crate) const VERB_ERROR:      Incident = row(Some("recovery.verb_errors"),     "recovery.verb_errors",      Warn,  Some(H::VerbError));
    pub(crate) const RECONNECT:       Incident = row(Some("recovery.reconnects"),      "recovery.reconnects",       Warn,  Some(H::Reconnect));
    pub(crate) const DEADLINE:        Incident = row(Some("recovery.deadlines"),       "recovery.deadlines",        Warn,  None);
    pub(crate) const RESUBMIT:        Incident = row(Some("recovery.resubmits"),       "recovery.resubmits",        Warn,  None);
    pub(crate) const FENCED_SEEN:     Incident = row(Some("recovery.fenced_seen"),     "recovery.fenced_seen",      Warn,  None);
    pub(crate) const CORRUPT_ATTEMPT: Incident = row(Some("recovery.corrupt_attempts"), "recovery.corrupt_attempts", Warn,  None);
    pub(crate) const FAILED_CALL:     Incident = row(Some("recovery.failed_calls"),    "recovery.failed_calls",     Error, None);
    pub(crate) const SLOT_STALL:      Incident = row(None,                             "pipeline.slot_stall",       Warn,  Some(H::Stall));
    pub(crate) const MODE_SWITCH:     Incident = row(None,                             "rfp.mode_switch",           Info,  None);
    pub(crate) const FALLBACK:        Incident = row(None,                             "rfp.fallback",              Info,  None);
    // The replica router's reactions on this connection.
    pub(crate) const FAILOVER:        Incident = row(Some("recovery.failovers"),       "recovery.failover",         Warn,  Some(H::Failover));
    pub(crate) const BUDGET_CAPPED:   Incident = row(Some("recovery.budget_capped"),   "recovery.budget_capped",    Warn,  None);
    pub(crate) const BUDGET_DENIED:   Incident = row(Some("recovery.budget_denied"),   "recovery.budget_denied",    Warn,  None);
    pub(crate) const DEMOTE:          Incident = row(Some("routing.demote"),           "routing.demote",            Warn,  None);
    pub(crate) const RESTORE:         Incident = row(Some("routing.restore"),          "routing.restore",           Warn,  None);
    pub(crate) const PROBE:           Incident = row(Some("routing.probe"),            "routing.probe",             Warn,  None);
    pub(crate) const ROUTED_FALLBACK: Incident = row(Some("routing.fallback"),         "routing.fallback",          Warn,  None);
    // Server side: the verdict `RfpServerConn::reject` posted.
    pub const REJECT_BUSY:     Incident = row(Some("overload.busy_rejections"), "overload.reject_busy",      Warn,  None);
    pub const REJECT_SHED:     Incident = row(Some("overload.sheds"),           "overload.reject_shed",      Warn,  None);
    pub const REJECT_FENCED:   Incident = row(Some("replica.fenced"),           "replica.fence",             Warn,  None);
}

/// Position of a call in the flight recorder: the sequence number its
/// events are tagged with, and the id of its most recent event — the
/// cause link of the next one, so a call's events chain (deadline →
/// resubmit → reconnect). Each flight owns one, starting with no cause
/// at call entry.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Chain {
    pub seq: u32,
    pub cause: Option<u64>,
}

/// The planes one connection reports into (see the module docs).
pub(crate) struct Observer {
    conn_id: u32,
    telemetry: Option<RfpTelemetry>,
    recorder: Option<FlightRecorder>,
    /// This connection's rolling health window.
    pub health: Option<Rc<ConnHealth>>,
    /// Per-slot spans of the in-flight requests: one entry per ring slot
    /// when telemetry is configured, none otherwise. Both endpoints add
    /// milestones; each slot carries one request at a time.
    spans: RefCell<Vec<Option<RequestTrace>>>,
    /// The client's always-on statistics. A telemetry registry exports
    /// the same cells under the prefix, so a call is booked once.
    pub stats: ClientStats,
    /// What the stats do not count, exported as `.retries` (failed
    /// remote-fetch attempts), `.fallback_fetches`, `.fetch.bytes`
    /// (moved by fetch READs; tracks the effective `F`) and `.mode`
    /// (0 = remote fetch, 1 = server reply). Free-standing cells when
    /// no telemetry is configured.
    retries: Rc<Counter>,
    pub fallback_fetches: Rc<Counter>,
    pub fetch_bytes: Rc<Counter>,
    mode: Rc<Gauge>,
}

impl Observer {
    pub(crate) fn new(cfg: &RfpConfig) -> Self {
        let telemetry = cfg.telemetry.clone();
        let named = telemetry.as_ref().map(|t| (&t.registry, &t.prefix));
        let counter = |name: &str| match named {
            Some((reg, p)) => reg.counter(&format!("{p}.{name}")),
            None => Rc::default(),
        };
        let stats = ClientStats::default();
        let mode = match named {
            Some((reg, p)) => {
                stats.register_into(reg, p);
                reg.gauge(&format!("{p}.mode"))
            }
            None => Rc::default(),
        };
        mode.set((cfg.initial_mode == Mode::ServerReply) as i64);
        Observer {
            conn_id: cfg.conn_id,
            recorder: cfg.recorder.clone(),
            health: cfg.health.as_ref().map(|h| h.conn(cfg.conn_id)),
            spans: RefCell::new(vec![None; if named.is_some() { cfg.window } else { 0 }]),
            stats,
            retries: counter("retries"),
            fallback_fetches: counter("fallback_fetches"),
            fetch_bytes: counter("fetch.bytes"),
            mode,
            telemetry,
        }
    }

    /// Books one incident on every attached plane; the recorder event
    /// is tagged with this connection and the chain's seq, linked onto
    /// the chain's previous event, and becomes the next link's cause.
    /// `detail` is rendered only if a recorder keeps it.
    pub(crate) fn incident(
        &self,
        now: SimTime,
        chain: &mut Chain,
        incident: Incident,
        detail: impl fmt::Display,
    ) {
        let Incident {
            counter,
            kind,
            severity,
            signal,
        } = incident;
        if let (Some(t), Some(name)) = (&self.telemetry, counter) {
            t.registry.counter(name).incr();
            if signal == Some(HealthSignal::Corrupt) {
                t.registry.counter("fetch.integrity_retries").incr();
            }
        }
        if let Some(rec) = &self.recorder {
            let (conn, seq) = (Some(self.conn_id), chain.seq as u64);
            let detail = detail.to_string();
            chain.cause =
                Some(rec.record_caused(now, conn, seq, severity, kind, detail, chain.cause));
        }
        if let (Some(h), Some(signal)) = (&self.health, signal) {
            h.record(now, signal);
        }
    }

    /// Books one completed call, `retries` of whose fetch attempts
    /// failed.
    pub(crate) fn completed(&self, now: SimTime, info: &CallInfo, retries: u64) {
        self.stats.record(info);
        self.retries.add(retries);
        if let Some(h) = &self.health {
            h.record_call(now, info.latency, retries);
        }
    }

    /// Books the connection switching its transport mode to `to`.
    pub(crate) fn switched(&self, now: SimTime, chain: &mut Chain, to: Mode) {
        self.incident(
            now,
            chain,
            incident::MODE_SWITCH,
            format_args!("switched to {to:?}"),
        );
        self.mode.set((to == Mode::ServerReply) as i64);
        self.stats.record_switch(to);
    }

    /// Opens `slot`'s span as call `seq` is staged.
    pub(crate) fn span_begin(&self, slot: usize, seq: u32, now: SimTime) {
        if let Some(t) = &self.telemetry {
            let span = RequestTrace::begin(seq as u64, t.track, now, "issue");
            self.spans.borrow_mut()[slot] = Some(span);
        }
    }

    /// Adds a milestone to `slot`'s in-flight span, if one exists.
    pub(crate) fn span_mark(&self, slot: usize, now: SimTime, label: &'static str) {
        if let Some(Some(span)) = self.spans.borrow_mut().get_mut(slot) {
            span.mark_unordered(now, label);
        }
    }

    /// Closes `slot`'s span with a final milestone and hands it to the
    /// span recorder.
    pub(crate) fn span_end(&self, slot: usize, now: SimTime, label: &'static str) {
        if let (Some(t), Some(mut span)) = (&self.telemetry, self.span_drop(slot)) {
            span.mark_unordered(now, label);
            t.spans.record(span);
        }
    }

    /// Forgets `slot`'s span (a call interrupted by a server restart).
    pub(crate) fn span_drop(&self, slot: usize) -> Option<RequestTrace> {
        self.spans.borrow_mut().get_mut(slot)?.take()
    }
}
