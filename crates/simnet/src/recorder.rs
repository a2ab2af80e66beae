//! The flight recorder: a bounded ring of cause-chained events.
//!
//! The one event log of a simulated system. Where the
//! [`MetricsRegistry`](crate::MetricsRegistry) keeps aggregates, a
//! [`FlightRecorder`] keeps *structured* operational events — each tied
//! to a connection and request sequence number, and optionally to the
//! event that caused it — so a failure's causal history
//! (retry → backoff → QP re-establish, torn fetch → refetch, shed
//! verdict → resubmission) can be replayed after the fact.
//!
//! Recording is synchronous bookkeeping: it schedules nothing and
//! charges no simulated CPU, so an attached recorder never perturbs
//! timing — a run with the recorder on is event-identical on the wire
//! to the same run with it off.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::time::SimTime;

/// How loud a recorded event is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// High-rate diagnostics.
    Debug,
    /// Ordinary milestones.
    Info,
    /// Degradation worth surfacing.
    Warn,
    /// A fault or invariant violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        })
    }
}

/// One recorded flight event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone event id (also the global insertion order).
    pub id: u64,
    /// When it happened.
    pub at: SimTime,
    /// The connection it belongs to, if any (chaos controllers and
    /// NIC-level events may not have one).
    pub conn: Option<u32>,
    /// The request sequence number it belongs to (0 = none).
    pub seq: u64,
    /// How loud it is.
    pub severity: Severity,
    /// Stable event kind, e.g. `"recovery.resubmits"`.
    pub kind: &'static str,
    /// Free-form details.
    pub detail: String,
    /// Id of the event that caused this one, if recorded as a chain
    /// link.
    pub cause: Option<u64>,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] #{} {} {}",
            self.at, self.id, self.severity, self.kind
        )?;
        if let Some(conn) = self.conn {
            write!(f, " conn={conn}")?;
        }
        if self.seq != 0 {
            write!(f, " seq={}", self.seq)?;
        }
        if let Some(cause) = self.cause {
            write!(f, " cause=#{cause}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

struct Inner {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    next_id: u64,
    recorded: u64,
    dropped: u64,
    /// Cumulative per-kind counts, surviving ring eviction.
    kind_counts: BTreeMap<&'static str, u64>,
}

/// A bounded, shareable ring of [`FlightEvent`]s.
///
/// Clones share the ring.
///
/// # Examples
///
/// ```
/// use rfp_simnet::{FlightRecorder, Severity, SimTime};
///
/// let rec = FlightRecorder::new(64);
/// let t = SimTime::from_nanos(100);
/// let root = rec.record(t, Some(3), 7, Severity::Warn, "recovery.deadlines", "expired");
/// let leaf = rec.record_caused(t, Some(3), 7, Severity::Warn, "recovery.resubmits", "retrying", Some(root));
/// assert_eq!(rec.chain(leaf).len(), 2);
/// ```
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FlightRecorder")
            .field("len", &inner.events.len())
            .field("capacity", &inner.capacity)
            .field("recorded", &inner.recorded)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder capacity must be positive");
        FlightRecorder {
            inner: Rc::new(RefCell::new(Inner {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                next_id: 1,
                recorded: 0,
                dropped: 0,
                kind_counts: BTreeMap::new(),
            })),
        }
    }

    /// Records an event with no cause link; returns its id.
    pub fn record(
        &self,
        at: SimTime,
        conn: Option<u32>,
        seq: u64,
        severity: Severity,
        kind: &'static str,
        detail: impl Into<String>,
    ) -> u64 {
        self.record_caused(at, conn, seq, severity, kind, detail, None)
    }

    /// Records an event chained to `cause`; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_caused(
        &self,
        at: SimTime,
        conn: Option<u32>,
        seq: u64,
        severity: Severity,
        kind: &'static str,
        detail: impl Into<String>,
        cause: Option<u64>,
    ) -> u64 {
        let mut inner = self.inner.borrow_mut();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.recorded += 1;
        *inner.kind_counts.entry(kind).or_insert(0) += 1;
        inner.events.push_back(FlightEvent {
            id,
            at,
            conn,
            seq,
            severity,
            kind,
            detail: detail.into(),
            cause,
        });
        id
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Cumulative count of events of `kind` (survives ring eviction).
    pub fn kind_count(&self, kind: &str) -> u64 {
        self.inner
            .borrow()
            .kind_counts
            .get(kind)
            .copied()
            .unwrap_or(0)
    }

    /// Cumulative per-kind counts, in kind order.
    pub fn kind_counts(&self) -> BTreeMap<&'static str, u64> {
        self.inner.borrow().kind_counts.clone()
    }

    /// A snapshot of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.inner.borrow().events.iter().cloned().collect()
    }

    /// Retained events of one connection and sequence number — the
    /// request's replayable history — oldest first. `seq = 0` matches
    /// the connection's requestless events too.
    pub fn events_for(&self, conn: u32, seq: u64) -> Vec<FlightEvent> {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|e| e.conn == Some(conn) && (seq == 0 || e.seq == seq))
            .cloned()
            .collect()
    }

    /// Retained events within `[from, to]`, oldest first.
    pub fn events_in(&self, from: SimTime, to: SimTime) -> Vec<FlightEvent> {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|e| e.at >= from && e.at <= to)
            .cloned()
            .collect()
    }

    /// Walks the cause chain ending at event `id`, root first. Links
    /// pointing at evicted events terminate the walk; an unknown `id`
    /// yields an empty chain.
    pub fn chain(&self, id: u64) -> Vec<FlightEvent> {
        let inner = self.inner.borrow();
        let by_id = |id: u64| -> Option<&FlightEvent> {
            // Ids are assigned in ring order, so binary search works.
            inner
                .events
                .binary_search_by_key(&id, |e| e.id)
                .ok()
                .map(|i| &inner.events[i])
        };
        let mut chain = Vec::new();
        let mut cur = by_id(id);
        while let Some(e) = cur {
            chain.push(e.clone());
            cur = e.cause.and_then(by_id);
        }
        chain.reverse();
        chain
    }

    /// Writes every retained event as one line each.
    pub fn dump(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        for e in self.inner.borrow().events.iter() {
            writeln!(w, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn severity_orders_by_loudness() {
        assert!(Severity::Debug < Severity::Info && Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn records_with_monotone_ids() {
        let rec = FlightRecorder::new(8);
        let a = rec.record(t(1), Some(0), 1, Severity::Info, "a", "first");
        let b = rec.record(t(2), Some(0), 1, Severity::Warn, "b", "second");
        assert_eq!((a, b), (1, 2));
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, "a");
        assert_eq!(snap[1].severity, Severity::Warn);
    }

    #[test]
    fn ring_bound_evicts_oldest_but_kind_counts_survive() {
        let rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.record(t(i), None, 0, Severity::Info, "x", format!("e{i}"));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.kind_count("x"), 5);
        assert_eq!(rec.snapshot()[0].detail, "e3");
    }

    #[test]
    fn chain_walks_cause_links_root_first() {
        let rec = FlightRecorder::new(16);
        let root = rec.record(t(10), Some(1), 9, Severity::Warn, "fail", "deadline");
        let mid = rec.record_caused(
            t(20),
            Some(1),
            9,
            Severity::Warn,
            "retry",
            "resubmit",
            Some(root),
        );
        let tip = rec.record_caused(
            t(30),
            Some(1),
            9,
            Severity::Warn,
            "reconnect",
            "qp",
            Some(mid),
        );
        let chain = rec.chain(tip);
        let kinds: Vec<&str> = chain.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["fail", "retry", "reconnect"]);
        assert!(rec.chain(999).is_empty());
    }

    #[test]
    fn chain_stops_at_evicted_cause() {
        let rec = FlightRecorder::new(2);
        let root = rec.record(t(1), None, 0, Severity::Info, "root", "");
        let mid = rec.record_caused(t(2), None, 0, Severity::Info, "mid", "", Some(root));
        let tip = rec.record_caused(t(3), None, 0, Severity::Info, "tip", "", Some(mid));
        // Root was evicted by the third record.
        let kinds: Vec<&str> = rec.chain(tip).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["mid", "tip"]);
    }

    #[test]
    fn events_for_filters_conn_and_seq() {
        let rec = FlightRecorder::new(16);
        rec.record(t(1), Some(0), 5, Severity::Info, "a", "");
        rec.record(t(2), Some(1), 5, Severity::Info, "b", "");
        rec.record(t(3), Some(0), 6, Severity::Info, "c", "");
        assert_eq!(rec.events_for(0, 5).len(), 1);
        assert_eq!(rec.events_for(0, 0).len(), 2);
        assert!(rec.events_for(2, 0).is_empty());
    }

    #[test]
    fn events_in_window() {
        let rec = FlightRecorder::new(16);
        for i in 0..5u64 {
            rec.record(t(i * 10), None, 0, Severity::Info, "x", "");
        }
        assert_eq!(rec.events_in(t(10), t(30)).len(), 3);
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::new(4);
        let other = rec.clone();
        other.record(t(1), None, 0, Severity::Info, "shared", "");
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn dump_renders_lines() {
        let rec = FlightRecorder::new(4);
        let root = rec.record(t(1_000), Some(2), 7, Severity::Error, "fetch.torn", "torn");
        rec.record_caused(
            t(2_000),
            Some(2),
            7,
            Severity::Info,
            "refetch",
            "",
            Some(root),
        );
        let mut out = Vec::new();
        rec.dump(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fetch.torn"), "{text}");
        assert!(text.contains("conn=2"), "{text}");
        assert!(text.contains("cause=#1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }
}
