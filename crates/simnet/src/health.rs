//! The rolling health plane: per-connection sliding-window statistics,
//! deterministic anomaly detection, and dump-on-anomaly bundles.
//!
//! A [`HealthHub`] hands out one [`ConnHealth`] per connection. Each
//! keeps a sliding window of fixed-width epochs (aligned to the virtual
//! clock, so rotation is deterministic); every epoch holds an exact
//! [`Histogram`] of its call latencies and one counter per
//! [`HealthSignal`]. Recording is bookkeeping with no simulated-CPU
//! charge and no scheduled events, so the plane can stay on under a
//! W=16 pipelined load without perturbing timing.
//!
//! [`HealthHub::report`] merges the retained epochs into a
//! [`HealthReport`] (exact nearest-rank p50/p99, retry rate,
//! per-signal counts). [`HealthHub::capture_baselines`] freezes each
//! connection's window at one named instant as its healthy
//! [`Baseline`], the one copy there is; every later report carries it.
//! Its two readers keep no state: [`scan`] compares a report against
//! the baselines it carries with fixed thresholds and emits
//! [`Anomaly`]s, and `rfp-core`'s replica scorer applies the same
//! rules. [`DumpBundle`] renders the triggering window's
//! flight-recorder events, metrics snapshot and Chrome trace for
//! post-mortem replay.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;

use crate::metrics::MetricsSnapshot;
use crate::recorder::FlightRecorder;
use crate::span::SpanRecorder;
use crate::stats::Histogram;
use crate::time::{SimSpan, SimTime};

/// A countable per-connection signal: the key of the window's counters
/// (and the health column of a client's incident table).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthSignal {
    /// A `Shed` verdict (server or locally synthesised).
    Shed,
    /// A `Busy` verdict.
    Busy,
    /// A fetch discarded by integrity verification.
    Corrupt,
    /// A pause on a zero-credit gate.
    CreditWait,
    /// A pipeline slot overrunning its retry budget.
    Stall,
    /// A QP re-establishment.
    Reconnect,
    /// A verb completing with an error.
    VerbError,
    /// A failover to another replica.
    Failover,
}

/// Number of [`HealthSignal`] variants (`Failover` is the last).
const SIGNALS: usize = HealthSignal::Failover as usize + 1;

/// One fixed-width slice of a connection's history.
struct Epoch {
    start: SimTime,
    latency: Histogram,
    calls: u64,
    retries: u64,
    /// Occurrences of each [`HealthSignal`], indexed by discriminant.
    signals: [u64; SIGNALS],
}

impl Epoch {
    fn new(start: SimTime) -> Self {
        Epoch {
            start,
            latency: Histogram::new(),
            calls: 0,
            retries: 0,
            signals: [0; SIGNALS],
        }
    }
}

/// Width of one epoch, in nanoseconds: window slices rotate on this
/// boundary, aligned to the virtual clock.
const EPOCH_NS: u64 = 200_000;
/// Epochs retained: the window covers [`HealthHub::WINDOW`], 1.6 ms,
/// which holds the doctor's whole 1 ms fault span.
const EPOCHS: usize = 8;

/// Rolling-window health state of one connection, and its healthy
/// [`Baseline`] once [`HealthHub::capture_baselines`] has taken one.
pub struct ConnHealth {
    conn: u32,
    epochs: RefCell<VecDeque<Epoch>>,
    baseline: Cell<Option<Baseline>>,
}

impl ConnHealth {
    fn new(conn: u32) -> Self {
        ConnHealth {
            conn,
            epochs: RefCell::new(VecDeque::new()),
            baseline: Cell::new(None),
        }
    }

    /// The connection this state belongs to.
    pub fn conn(&self) -> u32 {
        self.conn
    }

    /// Epoch start containing `now`, aligned to the epoch width.
    fn aligned(&self, now: SimTime) -> SimTime {
        SimTime::from_nanos(now.as_nanos() / EPOCH_NS * EPOCH_NS)
    }

    /// Rotates the window so the back epoch contains `now`, then hands
    /// it to `f`.
    fn with_current<R>(&self, now: SimTime, f: impl FnOnce(&mut Epoch) -> R) -> R {
        let mut epochs = self.epochs.borrow_mut();
        let target = self.aligned(now);
        match epochs.back().map(|e| e.start) {
            None => epochs.push_back(Epoch::new(target)),
            Some(back_start) if back_start < target => {
                // Advance one epoch at a time so short gaps keep their
                // empty slices (rates stay honest); a long gap restarts
                // the window.
                let steps = (target.as_nanos() - back_start.as_nanos()) / EPOCH_NS;
                if steps as usize > EPOCHS {
                    epochs.clear();
                    epochs.push_back(Epoch::new(target));
                } else {
                    for s in 1..=steps {
                        let start = SimTime::from_nanos(back_start.as_nanos() + s * EPOCH_NS);
                        epochs.push_back(Epoch::new(start));
                        if epochs.len() > EPOCHS {
                            epochs.pop_front();
                        }
                    }
                }
            }
            Some(_) => {}
        }
        f(epochs.back_mut().expect("window is never empty"))
    }

    /// Books one completed call, `retries` of whose fetch attempts
    /// failed.
    pub fn record_call(&self, now: SimTime, latency: SimSpan, retries: u64) {
        self.with_current(now, |e| {
            e.calls += 1;
            e.retries += retries;
            e.latency.record(latency);
        });
    }

    /// Books one occurrence of `signal`.
    pub fn record(&self, now: SimTime, signal: HealthSignal) {
        self.with_current(now, |e| e.signals[signal as usize] += 1);
    }

    /// Merges the retained window into one report.
    pub fn report(&self, now: SimTime) -> ConnHealthReport {
        self.report_last(now, EPOCHS)
    }

    /// Merges the newest `epochs` epochs of the window, the one holding
    /// `now` included, into one report.
    pub fn report_last(&self, now: SimTime, epochs: usize) -> ConnHealthReport {
        // Rotate first so the report always describes the window ending
        // at `now`.
        self.with_current(now, |_| {});
        let window = self.epochs.borrow();
        let mut merged = Epoch::new(now);
        for e in window.iter().skip(window.len().saturating_sub(epochs)) {
            merged.latency.absorb(&e.latency);
            merged.calls += e.calls;
            merged.retries += e.retries;
            for (sum, n) in merged.signals.iter_mut().zip(&e.signals) {
                *sum += n;
            }
        }
        let count = |signal: HealthSignal| merged.signals[signal as usize];
        let quantile = |p: f64| merged.latency.percentile(p).map_or(0, SimSpan::as_nanos);
        ConnHealthReport {
            conn: self.conn,
            calls: merged.calls,
            p50_ns: quantile(50.0),
            p99_ns: quantile(99.0),
            retry_rate: if merged.calls == 0 {
                0.0
            } else {
                merged.retries as f64 / merged.calls as f64
            },
            sheds: count(HealthSignal::Shed),
            busys: count(HealthSignal::Busy),
            corrupts: count(HealthSignal::Corrupt),
            credit_waits: count(HealthSignal::CreditWait),
            stalls: count(HealthSignal::Stall),
            reconnects: count(HealthSignal::Reconnect),
            verb_errors: count(HealthSignal::VerbError),
            failovers: count(HealthSignal::Failover),
            baseline: self.baseline.get(),
        }
    }
}

/// The merged sliding window of one connection, ready for a scorer or
/// a detector.
#[derive(Clone, Debug)]
pub struct ConnHealthReport {
    /// The connection described.
    pub conn: u32,
    /// Calls completed inside the window.
    pub calls: u64,
    /// Median latency: the exact nearest-rank sample of the window, 0
    /// when it holds no call.
    pub p50_ns: u64,
    /// 99th percentile latency, likewise.
    pub p99_ns: u64,
    /// Failed fetch attempts per call.
    pub retry_rate: f64,
    /// `Shed` verdicts in the window.
    pub sheds: u64,
    /// `Busy` verdicts in the window.
    pub busys: u64,
    /// Integrity-discarded fetches in the window.
    pub corrupts: u64,
    /// Zero-credit pauses in the window.
    pub credit_waits: u64,
    /// Pipeline slot stalls in the window.
    pub stalls: u64,
    /// QP re-establishments in the window.
    pub reconnects: u64,
    /// Verbs completing with an error in the window.
    pub verb_errors: u64,
    /// Failovers to another replica in the window.
    pub failovers: u64,
    /// The connection's captured healthy baseline, if any.
    pub baseline: Option<Baseline>,
}

/// Fleet view: every connection's report, in connection order.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// The instant the report was taken.
    pub at: SimTime,
    /// Per-connection reports, sorted by connection id.
    pub conns: Vec<ConnHealthReport>,
}

impl HealthReport {
    /// The report of connection `conn`, if present.
    pub fn conn(&self, conn: u32) -> Option<&ConnHealthReport> {
        self.conns.iter().find(|c| c.conn == conn)
    }
}

/// A shareable hub handing out per-connection health state.
///
/// Clones share the connection map (like
/// [`MetricsRegistry`](crate::MetricsRegistry)). Create one with
/// [`HealthHub::default`]; every connection keeps the same
/// [`WINDOW`](HealthHub::WINDOW) of eight 200 µs epochs.
#[derive(Clone, Default)]
pub struct HealthHub {
    conns: Rc<RefCell<BTreeMap<u32, Rc<ConnHealth>>>>,
}

impl fmt::Debug for HealthHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthHub")
            .field("conns", &self.conns.borrow().len())
            .finish()
    }
}

impl HealthHub {
    /// Simulated time a window spans. A run that ends before `WINDOW`
    /// has dropped nothing from any window; a call booked more than
    /// `WINDOW` ago is gone from its connection's.
    pub const WINDOW: SimSpan = SimSpan::nanos(EPOCH_NS * EPOCHS as u64);

    /// The health state of connection `conn`, created on first use.
    pub fn conn(&self, conn: u32) -> Rc<ConnHealth> {
        Rc::clone(
            self.conns
                .borrow_mut()
                .entry(conn)
                .or_insert_with(|| Rc::new(ConnHealth::new(conn))),
        )
    }

    /// Captures every connection's window at `now` as its healthy
    /// [`Baseline`], replacing any earlier capture; a connection with
    /// too few calls gets none.
    pub fn capture_baselines(&self, now: SimTime) {
        for c in self.conns.borrow().values() {
            c.baseline.set(Baseline::of(&c.report(now)));
        }
    }

    /// Merges every connection's window into one fleet report.
    pub fn report(&self, now: SimTime) -> HealthReport {
        HealthReport {
            at: now,
            conns: self
                .conns
                .borrow()
                .values()
                .map(|c| c.report(now))
                .collect(),
        }
    }
}

/// What an anomaly detector can flag.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// Window p99 regressed past the baseline by the configured factor.
    LatencyRegression,
    /// Retry rate spiked past the baseline by the configured factor.
    RetrySpike,
    /// Integrity verification discarded fetches.
    CorruptionBurst,
    /// The server shed or busy-rejected calls.
    OverloadShedding,
    /// The credit gate paused submissions.
    CreditStarvation,
    /// A pipeline slot overran its retry budget.
    StuckSlot,
    /// Verb errors or QP re-establishments — the connection dropped.
    ConnectionDrop,
    /// The client abandoned a replica and re-homed onto another one.
    Failover,
    /// Gray failure: a sustained p99 regression with *no* matching
    /// drop/crash/overload/corruption root in the same window — the
    /// replica is degraded-but-alive (fail-slow NIC, flaky link,
    /// throttled server core) and liveness-based failover will never
    /// trip on it.
    GrayFailure,
    /// One server core is executing far more than its fair share of
    /// the served work (EREW partition skew with no stealing to level
    /// it): the aggregate collapses toward single-core capacity while
    /// the siblings idle.
    CoreImbalance,
}

impl AnomalyKind {
    /// Stable snake_case name (metric keys, CSV columns).
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::LatencyRegression => "latency_regression",
            AnomalyKind::RetrySpike => "retry_spike",
            AnomalyKind::CorruptionBurst => "corruption_burst",
            AnomalyKind::OverloadShedding => "overload_shedding",
            AnomalyKind::CreditStarvation => "credit_starvation",
            AnomalyKind::StuckSlot => "stuck_slot",
            AnomalyKind::ConnectionDrop => "connection_drop",
            AnomalyKind::Failover => "failover",
            AnomalyKind::GrayFailure => "gray_failure",
            AnomalyKind::CoreImbalance => "core_imbalance",
        }
    }

    /// Every kind, in declaration order.
    pub fn all() -> [AnomalyKind; 10] {
        [
            AnomalyKind::LatencyRegression,
            AnomalyKind::RetrySpike,
            AnomalyKind::CorruptionBurst,
            AnomalyKind::OverloadShedding,
            AnomalyKind::CreditStarvation,
            AnomalyKind::StuckSlot,
            AnomalyKind::ConnectionDrop,
            AnomalyKind::Failover,
            AnomalyKind::GrayFailure,
            AnomalyKind::CoreImbalance,
        ]
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One detected anomaly.
#[derive(Clone, Debug)]
pub struct Anomaly {
    /// When the triggering report was taken.
    pub at: SimTime,
    /// The connection it fired on.
    pub conn: u32,
    /// What fired.
    pub kind: AnomalyKind,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] conn {} {}: {}",
            self.at, self.conn, self.kind, self.detail
        )
    }
}

/// One core's executed-work share in a [`CoreSkewReport`].
#[derive(Clone, Debug)]
pub struct CoreLoad {
    /// Core index within its server.
    pub core: u32,
    /// Requests this core *executed* (its own plus any it stole).
    pub served: u64,
    /// Requests found pending in its most recent scan (run-queue
    /// depth, the backlog signal).
    pub queue_depth: u64,
    /// Requests siblings stole from this core's domain.
    pub stolen: u64,
}

/// Point-in-time per-core load rollup for one multi-core server — the
/// `CoreSkew` health view the doctor scans for a hot core.
#[derive(Clone, Debug)]
pub struct CoreSkewReport {
    /// When the rollup was taken.
    pub at: SimTime,
    /// One row per core, in core order.
    pub cores: Vec<CoreLoad>,
}

impl CoreSkewReport {
    /// Total requests executed across all cores.
    fn total_served(&self) -> u64 {
        self.cores.iter().map(|c| c.served).sum()
    }

    /// Hottest core by executed work, if any.
    pub fn hottest(&self) -> Option<&CoreLoad> {
        self.cores.iter().max_by_key(|c| c.served)
    }

    /// Executed-work imbalance: hottest core's served count over the
    /// per-core mean. 1.0 for a perfectly level (or empty) server.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_served();
        if self.cores.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.cores.len() as f64;
        self.hottest().map_or(1.0, |h| h.served as f64 / mean)
    }
}

/// Calls a window needs before it can be a [`Baseline`].
const MIN_BASELINE_CALLS: u64 = 16;
/// A core must execute more than this many times the per-core mean
/// served count before [`AnomalyKind::CoreImbalance`] fires.
const CORE_FACTOR: f64 = 2.0;
/// Total served work below which core-skew comparisons stay quiet (an
/// idle server has no meaningful balance).
const CORE_MIN_SERVED: u64 = 64;

/// The healthy reference of one connection, captured once into its
/// [`ConnHealth`] and carried by each of its reports. The anomaly
/// detector ([`scan`]) and the replica scorer in `rfp-core` read it
/// through the same rules, so a replica the doctor would flag is also
/// one the router de-prefers.
#[derive(Copy, Clone, Debug)]
pub struct Baseline {
    /// Healthy median latency (at least 1 ns, so ratios are defined).
    pub p50_ns: u64,
    /// Healthy p99 latency (at least 1 ns).
    pub p99_ns: u64,
    /// Healthy failed fetch attempts per call.
    pub retry_rate: f64,
}

impl Baseline {
    /// Window calls required before a window is compared against a
    /// baseline.
    pub const MIN_WINDOW_CALLS: u64 = 4;
    /// A latency quantile regressed once it exceeds this many times its
    /// baseline.
    pub const LATENCY_FACTOR: f64 = 3.0;
    /// A regressed p99 must also exceed the baseline p99 by this much
    /// (absolute guard against flagging noise around tiny baselines).
    const LATENCY_SLACK_NS: u64 = 2_000;
    /// Retry rate must exceed `baseline * RETRY_FACTOR + RETRY_MARGIN`.
    const RETRY_FACTOR: f64 = 3.0;
    /// Absolute retry-rate slack (extra retries per call).
    const RETRY_MARGIN: f64 = 1.0;

    /// `report` as a baseline, or `None` when it holds too few calls to
    /// be one.
    fn of(report: &ConnHealthReport) -> Option<Baseline> {
        (report.calls >= MIN_BASELINE_CALLS).then(|| Baseline {
            p50_ns: report.p50_ns.max(1),
            p99_ns: report.p99_ns.max(1),
            retry_rate: report.retry_rate,
        })
    }

    /// Whether `report`'s p99 regressed past this baseline: beyond
    /// `LATENCY_FACTOR` times its p99, and `LATENCY_SLACK_NS` above it.
    pub fn tail_regressed(&self, report: &ConnHealthReport) -> bool {
        report.p99_ns as f64 > Self::LATENCY_FACTOR * self.p99_ns as f64
            && report.p99_ns > self.p99_ns + Self::LATENCY_SLACK_NS
    }

    /// Whether `report`'s retry rate spiked past this baseline.
    pub fn retry_spike(&self, report: &ConnHealthReport) -> bool {
        report.retry_rate > self.retry_rate * Self::RETRY_FACTOR + Self::RETRY_MARGIN
    }
}

/// Scans a fleet report against each connection's own [`Baseline`];
/// returns the anomalies it trips, ordered by connection then kind.
///
/// A pure function of the report, so the same run always yields the
/// same anomaly list. The counter anomalies (corruption, shedding,
/// credit starvation, stuck slot, connection drop, failover) have no
/// threshold to tune: a clean run books none of those signals, so the
/// first occurrence in a window is the anomaly.
pub fn scan(report: &HealthReport) -> Vec<Anomaly> {
    // Fleet-wide hard-root screen for the gray-failure rule: a
    // saturated or crashing server sheds/errors on *some* conns while
    // merely slowing its siblings, and those siblings' regressions are
    // not rootless — the root is just booked one conn over. Gray means
    // no hard root anywhere in the window.
    let hard_root = report
        .conns
        .iter()
        .any(|c| c.verb_errors + c.reconnects + c.corrupts + c.sheds + c.busys + c.failovers > 0);
    let mut out = Vec::new();
    for c in &report.conns {
        let mut hit = |kind: AnomalyKind, detail: String| {
            out.push(Anomaly {
                at: report.at,
                conn: c.conn,
                kind,
                detail,
            });
        };
        if let Some(b) = c.baseline.filter(|_| c.calls >= Baseline::MIN_WINDOW_CALLS) {
            if b.tail_regressed(c) {
                hit(
                    AnomalyKind::LatencyRegression,
                    format!("p99 {}ns vs baseline {}ns", c.p99_ns, b.p99_ns),
                );
                // A regression with no hard root in the same window (no
                // drops, no corruption, no shedding, no failover — on
                // this conn or any sibling) is a gray failure: the
                // replica is degraded-but-alive and nothing else will
                // flag it.
                if !hard_root {
                    hit(
                        AnomalyKind::GrayFailure,
                        format!(
                            "p99 {}ns vs baseline {}ns with no drop/crash root",
                            c.p99_ns, b.p99_ns
                        ),
                    );
                }
            }
            if b.retry_spike(c) {
                hit(
                    AnomalyKind::RetrySpike,
                    format!(
                        "retry rate {:.2}/call vs baseline {:.2}/call",
                        c.retry_rate, b.retry_rate
                    ),
                );
            }
        }
        if c.corrupts > 0 {
            hit(
                AnomalyKind::CorruptionBurst,
                format!("{} fetches failed integrity verification", c.corrupts),
            );
        }
        if c.sheds + c.busys > 0 {
            hit(
                AnomalyKind::OverloadShedding,
                format!("{} shed + {} busy verdicts", c.sheds, c.busys),
            );
        }
        if c.credit_waits > 0 {
            hit(
                AnomalyKind::CreditStarvation,
                format!("{} zero-credit pauses", c.credit_waits),
            );
        }
        if c.stalls > 0 {
            hit(
                AnomalyKind::StuckSlot,
                format!("{} slots overran the retry budget", c.stalls),
            );
        }
        if c.verb_errors + c.reconnects > 0 {
            hit(
                AnomalyKind::ConnectionDrop,
                format!("{} verb errors, {} reconnects", c.verb_errors, c.reconnects),
            );
        }
        if c.failovers > 0 {
            hit(
                AnomalyKind::Failover,
                format!("{} replica failovers", c.failovers),
            );
        }
    }
    out
}

/// Scans a per-core load rollup for a hot core. Fires one
/// [`AnomalyKind::CoreImbalance`] on the hottest core when its executed
/// share exceeds `CORE_FACTOR` times the per-core mean — EREW skew that
/// stealing failed to (or was not allowed to) level. Idle servers
/// (below `CORE_MIN_SERVED` total) and single-core servers never fire.
pub fn scan_cores(skew: &CoreSkewReport) -> Vec<Anomaly> {
    if skew.cores.len() < 2 || skew.total_served() < CORE_MIN_SERVED {
        return Vec::new();
    }
    let imbalance = skew.imbalance();
    if imbalance <= CORE_FACTOR {
        return Vec::new();
    }
    let hot = skew
        .hottest()
        .expect("non-empty core set has a hottest core");
    vec![Anomaly {
        at: skew.at,
        conn: hot.core,
        kind: AnomalyKind::CoreImbalance,
        detail: format!(
            "core {} executed {} of {} ({:.2}x the per-core mean; \
             queue depth {}, {} stolen away)",
            hot.core,
            hot.served,
            skew.total_served(),
            imbalance,
            hot.queue_depth,
            hot.stolen,
        ),
    }]
}

/// A dump-on-anomaly bundle: the anomaly, the triggering window's
/// flight-recorder events, a metrics snapshot, and the window's Chrome
/// trace — everything needed to replay the failure's causal history.
pub struct DumpBundle<'a> {
    /// What fired.
    pub anomaly: &'a Anomaly,
    /// Flight recorder to pull the window's cause chains from.
    pub recorder: &'a FlightRecorder,
    /// Point-in-time metrics.
    pub metrics: &'a MetricsSnapshot,
    /// Span recorder to render the window's Chrome trace from.
    pub spans: &'a SpanRecorder,
    /// The offending window.
    pub window: (SimTime, SimTime),
}

impl DumpBundle<'_> {
    /// Renders the bundle as sectioned text (deterministic byte-for-byte
    /// for a given simulation state).
    pub fn write(&self, w: &mut dyn Write) -> io::Result<()> {
        let (from, to) = self.window;
        writeln!(w, "== anomaly ==")?;
        writeln!(w, "{}", self.anomaly)?;
        writeln!(w, "window: {from} .. {to}")?;
        writeln!(w, "== flight recorder ==")?;
        for e in self.recorder.events_in(from, to) {
            // The window's events plus, for connection-scoped
            // anomalies, the full chain behind each event.
            writeln!(w, "{e}")?;
            if let Some(cause) = e.cause {
                for link in self.recorder.chain(cause) {
                    writeln!(w, "  caused by: {link}")?;
                }
            }
        }
        writeln!(w, "== metrics ==")?;
        self.metrics.write_json(w)?;
        writeln!(w, "== chrome trace ==")?;
        self.spans.write_chrome_trace_window(w, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Severity;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn window_rotates_and_drops_old_epochs() {
        let h = HealthHub::default().conn(0);
        h.record_call(t(10), SimSpan::micros(1), 0);
        // 8 epochs of 200 µs: the call's epoch is the oldest retained
        // one until the ninth epoch opens at 1 600 µs.
        assert_eq!(HealthHub::WINDOW, SimSpan::micros(1_600));
        assert_eq!(h.report(t(50)).calls, 1);
        assert_eq!(h.report(t(1_590)).calls, 1);
        assert_eq!(h.report(t(1_610)).calls, 0);
    }

    #[test]
    fn long_gap_restarts_window() {
        let h = HealthHub::default().conn(0);
        h.record_call(t(10), SimSpan::micros(1), 0);
        h.record_call(t(100_000), SimSpan::micros(1), 0);
        assert_eq!(h.report(t(100_010)).calls, 1);
    }

    #[test]
    fn report_rates_and_sizes() {
        let h = HealthHub::default().conn(3);
        for i in 0..10 {
            h.record_call(t(i), SimSpan::micros(2), 1);
        }
        h.record(t(11), HealthSignal::Shed);
        h.record(t(12), HealthSignal::Corrupt);
        let r = h.report(t(20));
        assert_eq!(r.conn, 3);
        assert_eq!(r.calls, 10);
        assert_eq!(r.retry_rate, 1.0);
        assert_eq!((r.sheds, r.corrupts, r.busys), (1, 1, 0));
        assert_eq!(r.p50_ns, 2_000);
    }

    #[test]
    fn report_quantiles_are_exact_samples() {
        let h = HealthHub::default().conn(0);
        let empty = h.report(t(0));
        assert_eq!((empty.p50_ns, empty.p99_ns), (0, 0));
        // 1..=100 µs, half in each of two epochs of one window.
        for us in 1..=100u64 {
            let at = if us <= 50 { t(10) } else { t(250) };
            h.record_call(at, SimSpan::micros(us), 0);
        }
        let r = h.report(t(300));
        assert_eq!(r.calls, 100);
        assert_eq!((r.p50_ns, r.p99_ns), (50_000, 99_000));
    }

    #[test]
    fn hub_reports_sorted_and_shared() {
        let hub = HealthHub::default();
        let clone = hub.clone();
        clone.conn(5).record_call(t(1), SimSpan::micros(1), 0);
        hub.conn(2).record_call(t(1), SimSpan::micros(1), 0);
        let report = hub.report(t(10));
        let ids: Vec<u32> = report.conns.iter().map(|c| c.conn).collect();
        assert_eq!(ids, [2, 5]);
        assert!(report.conn(5).is_some());
        assert!(report.conn(9).is_none());
    }

    fn baseline_and_window(
        h: &HealthHub,
        degrade: impl Fn(&Rc<ConnHealth>, SimTime),
    ) -> Vec<Anomaly> {
        let c = h.conn(0);
        for i in 0..32u64 {
            c.record_call(t(i), SimSpan::micros(2), 0);
        }
        h.capture_baselines(t(40));
        // Move past the 1.6 ms window so the baseline epochs rotate out.
        for i in 0..8u64 {
            degrade(&c, t(2_000 + i));
        }
        scan(&h.report(t(2_010)))
    }

    #[test]
    fn capture_keeps_one_baseline_per_connection() {
        let h = HealthHub::default();
        for i in 0..16u64 {
            h.conn(0).record_call(t(i), SimSpan::micros(2), 0);
        }
        h.conn(1).record_call(t(1), SimSpan::micros(2), 0);
        assert!(h.report(t(20)).conns.iter().all(|c| c.baseline.is_none()));
        h.capture_baselines(t(20));
        // Reports carry the capture long after its window rotated out;
        // a connection too thin at capture time has none.
        let later = h.report(t(5_000));
        assert_eq!(later.conn(0).unwrap().baseline.unwrap().p99_ns, 2_000);
        assert!(later.conn(1).unwrap().baseline.is_none());
    }

    #[test]
    fn latency_regression_detected() {
        let h = HealthHub::default();
        let anomalies = baseline_and_window(&h, |c, at| {
            c.record_call(at, SimSpan::micros(50), 0);
        });
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == AnomalyKind::LatencyRegression),
            "{anomalies:?}"
        );
    }

    #[test]
    fn rootless_latency_regression_is_flagged_gray() {
        let h = HealthHub::default();
        // Slow calls and nothing else: no drops, no corruption, no
        // shedding — the degraded-but-alive signature.
        let anomalies = baseline_and_window(&h, |c, at| {
            c.record_call(at, SimSpan::micros(50), 0);
        });
        assert!(
            anomalies.iter().any(|a| a.kind == AnomalyKind::GrayFailure),
            "{anomalies:?}"
        );
    }

    #[test]
    fn regression_with_a_sibling_conn_root_is_not_gray() {
        let h = HealthHub::default();
        // Conn 0 regresses cleanly, but conn 1 sheds in the same
        // window: the fleet has a hard root (a saturated server books
        // its pushback wherever the rejected calls ran), so conn 0's
        // slowdown is not gray.
        let anomalies = baseline_and_window(&h, |c, at| {
            c.record_call(at, SimSpan::micros(50), 0);
            h.conn(1).record(at, HealthSignal::Shed);
        });
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == AnomalyKind::LatencyRegression),
            "{anomalies:?}"
        );
        assert!(
            !anomalies.iter().any(|a| a.kind == AnomalyKind::GrayFailure),
            "a regression with a sibling-conn root is not gray: {anomalies:?}"
        );
    }

    #[test]
    fn regression_with_a_drop_root_is_not_gray() {
        let h = HealthHub::default();
        let anomalies = baseline_and_window(&h, |c, at| {
            c.record_call(at, SimSpan::micros(50), 0);
            c.record(at, HealthSignal::VerbError);
        });
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == AnomalyKind::LatencyRegression),
            "{anomalies:?}"
        );
        assert!(
            !anomalies.iter().any(|a| a.kind == AnomalyKind::GrayFailure),
            "a regression rooted in connection drops is not gray: {anomalies:?}"
        );
    }

    #[test]
    fn retry_spike_detected() {
        let h = HealthHub::default();
        let anomalies = baseline_and_window(&h, |c, at| {
            c.record_call(at, SimSpan::micros(2), 10);
        });
        assert!(
            anomalies.iter().any(|a| a.kind == AnomalyKind::RetrySpike),
            "{anomalies:?}"
        );
        // Latency did not move, so no regression rides along.
        assert!(
            !anomalies
                .iter()
                .any(|a| a.kind == AnomalyKind::LatencyRegression),
            "{anomalies:?}"
        );
    }

    #[test]
    fn clean_window_is_quiet() {
        let h = HealthHub::default();
        let anomalies = baseline_and_window(&h, |c, at| {
            c.record_call(at, SimSpan::micros(2), 0);
        });
        assert!(anomalies.is_empty(), "{anomalies:?}");
    }

    #[test]
    fn counter_anomalies_need_no_baseline() {
        let h = HealthHub::default();
        let c = h.conn(1);
        for signal in [
            HealthSignal::Corrupt,
            HealthSignal::Shed,
            HealthSignal::CreditWait,
            HealthSignal::Stall,
            HealthSignal::VerbError,
        ] {
            c.record(t(5), signal);
        }
        let kinds: Vec<AnomalyKind> = scan(&h.report(t(10))).iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            [
                AnomalyKind::CorruptionBurst,
                AnomalyKind::OverloadShedding,
                AnomalyKind::CreditStarvation,
                AnomalyKind::StuckSlot,
                AnomalyKind::ConnectionDrop,
            ]
        );
    }

    #[test]
    fn dump_bundle_renders_sections() {
        let rec = FlightRecorder::new(16);
        let root = rec.record(t(5), Some(0), 3, Severity::Warn, "chaos.straggler", "x8");
        rec.record_caused(
            t(6),
            Some(0),
            3,
            Severity::Warn,
            "recovery.resubmits",
            "",
            Some(root),
        );
        let anomaly = Anomaly {
            at: t(10),
            conn: 0,
            kind: AnomalyKind::LatencyRegression,
            detail: "p99 regressed".into(),
        };
        let snap = MetricsSnapshot::default();
        let spans = SpanRecorder::new(4);
        let bundle = DumpBundle {
            anomaly: &anomaly,
            recorder: &rec,
            metrics: &snap,
            spans: &spans,
            window: (t(0), t(10)),
        };
        let mut out = Vec::new();
        bundle.write(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("== anomaly =="), "{text}");
        assert!(text.contains("latency_regression"), "{text}");
        assert!(text.contains("chaos.straggler"), "{text}");
        assert!(text.contains("caused by"), "{text}");
        assert!(text.contains("== metrics =="), "{text}");
        assert!(text.contains("== chrome trace =="), "{text}");
    }
}
