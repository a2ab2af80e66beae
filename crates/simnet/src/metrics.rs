//! A unified registry of named instruments.
//!
//! Components register (or lazily create) [`Counter`]s, [`Gauge`]s and
//! [`Histogram`]s under hierarchical dot-separated names —
//! `nic.0.inbound.ops`, `rfp.client.3.retries` — and experiments read
//! them back uniformly: as a point-in-time [`MetricsSnapshot`], or
//! exported as CSV / JSON / Prometheus text.
//!
//! Everything is keyed through `BTreeMap`s, so iteration order — and
//! therefore every exported byte — is deterministic for a given set of
//! recorded values.
//!
//! # Examples
//!
//! ```
//! use rfp_simnet::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("nic.0.inbound.ops").add(3);
//! reg.gauge("nic.0.inbound.depth").set(2);
//! let snap = reg.snapshot();
//! assert_eq!(snap.scalar("nic.0.inbound.ops"), Some(3.0));
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;

use crate::stats::{Counter, Histogram};

/// An instantaneous level (queue depth, busy nanoseconds, current mode).
///
/// Unlike a [`Counter`] it can go down.
#[derive(Default)]
pub struct Gauge {
    value: Cell<i64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, value: i64) {
        self.value.set(value);
    }

    /// Moves the level by `delta` (saturating).
    pub fn add(&self, delta: i64) {
        self.value.set(self.value.get().saturating_add(delta));
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.get()
    }
}

/// One exported value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Cumulative event count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Distribution summary (all durations in sim-nanoseconds).
    Histogram {
        count: u64,
        mean_ns: u64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
        max_ns: u64,
    },
}

impl MetricValue {
    /// The value reduced to one number: count for counters and
    /// histograms, level for gauges.
    pub fn scalar(&self) -> f64 {
        match *self {
            MetricValue::Counter(v) => v as f64,
            MetricValue::Gauge(v) => v as f64,
            MetricValue::Histogram { count, .. } => count as f64,
        }
    }
}

/// A point-in-time, deterministically ordered view of every registered
/// instrument.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Metric name → value, in name order.
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// The named metric reduced to one number (see
    /// [`MetricValue::scalar`]), or `None` if absent.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(MetricValue::scalar)
    }

    /// Writes `metric,field,value` rows, one line per exported number,
    /// sorted by metric name.
    pub fn write_csv(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "metric,field,value")?;
        for (name, value) in &self.values {
            match *value {
                MetricValue::Counter(v) => writeln!(w, "{name},count,{v}")?,
                MetricValue::Gauge(v) => writeln!(w, "{name},level,{v}")?,
                MetricValue::Histogram {
                    count,
                    mean_ns,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    max_ns,
                } => {
                    writeln!(w, "{name},count,{count}")?;
                    writeln!(w, "{name},mean_ns,{mean_ns}")?;
                    writeln!(w, "{name},p50_ns,{p50_ns}")?;
                    writeln!(w, "{name},p95_ns,{p95_ns}")?;
                    writeln!(w, "{name},p99_ns,{p99_ns}")?;
                    writeln!(w, "{name},max_ns,{max_ns}")?;
                }
            }
        }
        Ok(())
    }

    /// Writes the snapshot in the Prometheus text exposition format.
    ///
    /// Metric names are sanitized with `prometheus_name`; counters get
    /// a `_total` suffix and a `# TYPE` line, gauges export their level,
    /// and histograms are expanded to cumulative `_bucket{le="..."}`
    /// lines synthesized from the stored percentiles (nearest-rank
    /// cumulative counts), plus `_sum` and `_count`. Output is sorted by
    /// metric name, so it is byte-deterministic.
    pub fn write_prometheus(&self, w: &mut dyn Write) -> io::Result<()> {
        for (name, value) in &self.values {
            let n = prometheus_name(name);
            match *value {
                MetricValue::Counter(v) => {
                    writeln!(w, "# TYPE {n}_total counter")?;
                    writeln!(w, "{n}_total {v}")?;
                }
                MetricValue::Gauge(v) => {
                    writeln!(w, "# TYPE {n} gauge")?;
                    writeln!(w, "{n} {v}")?;
                }
                MetricValue::Histogram {
                    count,
                    mean_ns,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    max_ns,
                } => {
                    writeln!(w, "# TYPE {n} histogram")?;
                    // Cumulative nearest-rank count at quantile q is
                    // ceil(q * count); equal bounds collapse into one
                    // bucket keeping the larger count, and counts are
                    // forced nondecreasing.
                    let rank = |q: f64| ((q * count as f64).ceil() as u64).min(count);
                    let mut buckets: Vec<(u64, u64)> = vec![
                        (p50_ns, rank(0.50)),
                        (p95_ns, rank(0.95)),
                        (p99_ns, rank(0.99)),
                        (max_ns, count),
                    ];
                    buckets.sort();
                    buckets.dedup_by(|b, a| {
                        if a.0 == b.0 {
                            a.1 = a.1.max(b.1);
                            true
                        } else {
                            false
                        }
                    });
                    let mut floor = 0u64;
                    for (le, cum) in buckets {
                        floor = floor.max(cum);
                        writeln!(w, "{n}_bucket{{le=\"{le}\"}} {floor}")?;
                    }
                    writeln!(w, "{n}_bucket{{le=\"+Inf\"}} {count}")?;
                    writeln!(w, "{n}_sum {}", mean_ns.saturating_mul(count))?;
                    writeln!(w, "{n}_count {count}")?;
                }
            }
        }
        Ok(())
    }

    /// Writes the snapshot as a JSON object keyed by metric name
    /// (counters and gauges as numbers, histograms as objects).
    pub fn write_json(&self, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        let last = self.values.len().saturating_sub(1);
        for (i, (name, value)) in self.values.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            match *value {
                MetricValue::Counter(v) => writeln!(w, "  {}: {v}{comma}", json_string(name))?,
                MetricValue::Gauge(v) => writeln!(w, "  {}: {v}{comma}", json_string(name))?,
                MetricValue::Histogram {
                    count,
                    mean_ns,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    max_ns,
                } => writeln!(
                    w,
                    "  {}: {{\"count\": {count}, \"mean_ns\": {mean_ns}, \
                     \"p50_ns\": {p50_ns}, \"p95_ns\": {p95_ns}, \
                     \"p99_ns\": {p99_ns}, \"max_ns\": {max_ns}}}{comma}",
                    json_string(name)
                )?,
            }
        }
        writeln!(w, "}}")
    }
}

/// Maps a hierarchical metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and
/// a leading digit gets a `_` prefix. Stable: the same input always
/// yields the same output.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Default)]
struct Inner {
    /// A name exports the sum of its cells: connections that share a
    /// metric prefix each register their own (see
    /// [`MetricsRegistry::register_counter`]).
    counters: BTreeMap<String, Vec<Rc<Counter>>>,
    gauges: BTreeMap<String, Rc<Gauge>>,
    /// One cell per name: connections that share a prefix record into
    /// the same cell (see [`MetricsRegistry::register_histogram`]).
    histograms: BTreeMap<String, Rc<Histogram>>,
}

/// A shareable registry of named instruments.
///
/// Cloning is shallow: clones observe and extend the same instrument
/// set, so a registry can be threaded through every layer of a system
/// under test.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        let mut inner = self.inner.borrow_mut();
        assert_kind_free(&inner.gauges, &inner.histograms, name);
        let cells = inner.counters.entry(name.to_string());
        Rc::clone(&cells.or_insert_with(|| vec![Rc::default()])[0])
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Rc<Gauge> {
        let mut inner = self.inner.borrow_mut();
        assert_kind_free(&inner.counters, &inner.histograms, name);
        Rc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Rc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Rc<Histogram> {
        let mut inner = self.inner.borrow_mut();
        assert_kind_free(&inner.counters, &inner.gauges, name);
        Rc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Registers an existing counter under `name` (components that
    /// already own their instruments expose them this way). Several
    /// cells may share a name; it then exports their sum.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn register_counter(&self, name: &str, counter: &Rc<Counter>) {
        let mut inner = self.inner.borrow_mut();
        assert_kind_free(&inner.gauges, &inner.histograms, name);
        let cells = inner.counters.entry(name.to_string()).or_default();
        cells.push(Rc::clone(counter));
    }

    /// Registers an existing histogram under `name`. A name holds one
    /// cell: components that share one take it from [`Self::histogram`].
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different histogram, or is
    /// registered as a different kind.
    pub fn register_histogram(&self, name: &str, histogram: &Rc<Histogram>) {
        let mut inner = self.inner.borrow_mut();
        assert_kind_free(&inner.counters, &inner.gauges, name);
        let cell = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Rc::clone(histogram));
        assert!(
            Rc::ptr_eq(cell, histogram),
            "histogram {name:?} already registered with another cell"
        );
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.borrow();
        let mut names: Vec<String> = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.histograms.keys())
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// A point-in-time view of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let mut values = BTreeMap::new();
        for (name, cells) in &inner.counters {
            let sum = cells.iter().map(|c| c.get()).sum();
            values.insert(name.clone(), MetricValue::Counter(sum));
        }
        for (name, g) in &inner.gauges {
            values.insert(name.clone(), MetricValue::Gauge(g.get()));
        }
        for (name, h) in &inner.histograms {
            let ns = |s: Option<crate::SimSpan>| s.map_or(0, |v| v.as_nanos());
            values.insert(
                name.clone(),
                MetricValue::Histogram {
                    count: h.len() as u64,
                    mean_ns: ns(h.mean()),
                    p50_ns: ns(h.percentile(50.0)),
                    p95_ns: ns(h.percentile(95.0)),
                    p99_ns: ns(h.percentile(99.0)),
                    max_ns: ns(h.max()),
                },
            );
        }
        MetricsSnapshot { values }
    }

    /// Resets every counter and histogram (gauges keep their level:
    /// they describe present state, not history).
    pub fn reset(&self) {
        let inner = self.inner.borrow();
        for c in inner.counters.values().flatten() {
            c.reset();
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }
}

fn assert_kind_free<A, B>(a: &BTreeMap<String, A>, b: &BTreeMap<String, B>, name: &str) {
    assert!(
        !a.contains_key(name) && !b.contains_key(name),
        "metric {name:?} already registered as a different kind"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSpan;

    #[test]
    fn create_or_get_shares_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("a.ops").incr();
        reg.counter("a.ops").incr();
        assert_eq!(reg.counter("a.ops").get(), 2);
        let clone = reg.clone();
        clone.counter("a.ops").incr();
        assert_eq!(reg.counter("a.ops").get(), 3);
    }

    #[test]
    fn register_existing_instrument() {
        let reg = MetricsRegistry::new();
        let c = Rc::new(Counter::new());
        reg.register_counter("sys.served", &c);
        c.add(7);
        assert_eq!(reg.snapshot().scalar("sys.served"), Some(7.0));
    }

    #[test]
    fn cells_sharing_a_name_export_their_sum() {
        let reg = MetricsRegistry::new();
        let (a, b) = (Rc::new(Counter::new()), Rc::new(Counter::new()));
        reg.register_counter("client.calls", &a);
        reg.register_counter("client.calls", &b);
        a.add(2);
        b.add(5);
        assert_eq!(
            reg.snapshot().values["client.calls"],
            MetricValue::Counter(7)
        );
        reg.reset();
        assert_eq!((a.get(), b.get()), (0, 0));
    }

    #[test]
    fn a_histogram_name_holds_one_cell() {
        let reg = MetricsRegistry::new();
        let h = Rc::new(Histogram::new());
        reg.register_histogram("client.latency", &h);
        reg.register_histogram("client.latency", &h);
        assert!(Rc::ptr_eq(&reg.histogram("client.latency"), &h));
        h.record(SimSpan::nanos(10));
        reg.reset();
        assert_eq!(h.len(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered with another cell")]
    fn second_histogram_cell_under_a_name_rejected() {
        let reg = MetricsRegistry::new();
        reg.histogram("client.latency");
        reg.register_histogram("client.latency", &Rc::new(Histogram::new()));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_rejected() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn counter_registered_over_a_histogram_rejected() {
        let reg = MetricsRegistry::new();
        reg.histogram("x");
        reg.register_counter("x", &Rc::new(Counter::new()));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn histogram_registered_over_a_counter_rejected() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.register_histogram("x", &Rc::new(Histogram::new()));
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(4);
        reg.gauge("g").set(-2);
        let h = reg.histogram("h");
        h.record(SimSpan::nanos(10));
        h.record(SimSpan::nanos(30));
        let snap = reg.snapshot();
        assert_eq!(snap.values["c"], MetricValue::Counter(4));
        assert_eq!(snap.values["g"], MetricValue::Gauge(-2));
        match snap.values["h"] {
            MetricValue::Histogram {
                count,
                mean_ns,
                max_ns,
                ..
            } => {
                assert_eq!((count, mean_ns, max_ns), (2, 20, 30));
            }
            ref other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn csv_and_json_are_deterministic_and_ordered() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter("b.ops").add(2);
            reg.counter("a.ops").add(1);
            reg.gauge("m.depth").set(3);
            reg.histogram("z.lat").record(SimSpan::nanos(100));
            let mut csv = Vec::new();
            let mut json = Vec::new();
            let snap = reg.snapshot();
            snap.write_csv(&mut csv).unwrap();
            snap.write_json(&mut json).unwrap();
            (csv, json)
        };
        let (csv1, json1) = build();
        let (csv2, json2) = build();
        assert_eq!(csv1, csv2);
        assert_eq!(json1, json2);
        let text = String::from_utf8(csv1).unwrap();
        let a = text.find("a.ops").unwrap();
        let b = text.find("b.ops").unwrap();
        assert!(a < b, "rows must be name-sorted:\n{text}");
        let jtext = String::from_utf8(json1).unwrap();
        assert!(jtext.contains("\"m.depth\": 3"), "{jtext}");
        assert!(jtext.contains("\"count\": 1"), "{jtext}");
    }

    #[test]
    fn reset_clears_counts_keeps_gauges() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(5);
        reg.gauge("g").set(7);
        reg.histogram("h").record(SimSpan::nanos(1));
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.scalar("c"), Some(0.0));
        assert_eq!(snap.scalar("g"), Some(7.0));
        assert_eq!(snap.scalar("h"), Some(0.0));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn prometheus_name_sanitizes_stably() {
        assert_eq!(prometheus_name("nic.0.inbound.ops"), "nic_0_inbound_ops");
        assert_eq!(prometheus_name("rfp.client-3.p99µs"), "rfp_client_3_p99_s");
        assert_eq!(prometheus_name("0weird"), "_0weird");
        assert_eq!(prometheus_name(""), "_");
        assert_eq!(
            prometheus_name("nic.0.inbound.ops"),
            prometheus_name("nic.0.inbound.ops")
        );
    }

    #[test]
    fn prometheus_exposition_counters_and_gauges() {
        let reg = MetricsRegistry::new();
        reg.counter("a.ops").add(3);
        reg.gauge("q.depth").set(-2);
        let mut out = Vec::new();
        reg.snapshot().write_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("# TYPE a_ops_total counter\na_ops_total 3\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE q_depth gauge\nq_depth -2\n"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_exposition_histogram_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for ns in [10u64, 20, 30, 40] {
            h.record(SimSpan::nanos(ns));
        }
        let mut out = Vec::new();
        reg.snapshot().write_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_count 4"), "{text}");
        assert!(text.contains("lat_sum 100"), "{text}");
        // Bucket counts must be cumulative and nondecreasing.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert!(!counts.is_empty());
    }

    #[test]
    fn prometheus_exposition_is_deterministic() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter("b").add(1);
            reg.counter("a").add(2);
            reg.histogram("h").record(SimSpan::nanos(7));
            let mut out = Vec::new();
            reg.snapshot().write_prometheus(&mut out).unwrap();
            out
        };
        assert_eq!(build(), build());
    }
}
