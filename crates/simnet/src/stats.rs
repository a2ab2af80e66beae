//! Measurement helpers: counters, latency histograms, busy-time clocks.

use std::cell::{Cell, Ref, RefCell};

use crate::time::{SimSpan, SimTime};

/// A monotonically increasing event counter.
#[derive(Default)]
pub struct Counter {
    count: Cell<u64>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` — a pegged counter is a
    /// visible anomaly, a wrapped one silently reports garbage.
    pub fn add(&self, n: u64) {
        self.count.set(self.count.get().saturating_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.count.get()
    }

    /// Resets to zero (discarding warm-up).
    pub fn reset(&self) {
        self.count.set(0);
    }
}

/// A sample-recording histogram for latency-style measurements.
///
/// Stores raw samples (nanoseconds); experiments in this workspace record
/// at most a few million samples per run, so exact percentiles/CDFs are
/// affordable and simpler than bucketing.
///
/// Samples live in two runs: a sorted prefix and an unsorted tail of
/// recent inserts. Queries sort only the tail and merge it in, so a
/// record/query/record pattern (time-series sampling does this every
/// tick) costs O(tail log tail + n) per query instead of re-sorting all
/// n samples each time.
///
/// Both runs hold `u32` nanoseconds — half the memory of `u64` at the
/// same exactness. The rare sample of 2³² ns (~4.3 s) or more goes to a
/// third, sorted `wide` run; each of those sorts after every `u32`
/// sample, so the sorted order is `sorted` followed by `wide`.
#[derive(Default)]
pub struct Histogram {
    sorted: RefCell<Vec<u32>>,
    tail: RefCell<Vec<u32>>,
    wide: RefCell<Vec<u64>>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&self, span: SimSpan) {
        let ns = span.as_nanos();
        match u32::try_from(ns) {
            Ok(v) => self.tail.borrow_mut().push(v),
            Err(_) => {
                let mut wide = self.wide.borrow_mut();
                let at = wide.partition_point(|&w| w <= ns);
                wide.insert(at, ns);
            }
        }
    }

    /// Adds every sample of `other`.
    pub fn absorb(&self, other: &Histogram) {
        let mut tail = self.tail.borrow_mut();
        tail.extend_from_slice(&other.sorted.borrow());
        tail.extend_from_slice(&other.tail.borrow());
        let mut wide = self.wide.borrow_mut();
        wide.extend_from_slice(&other.wide.borrow());
        wide.sort_unstable();
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.sorted.borrow().len() + self.tail.borrow().len() + self.wide.borrow().len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all samples (e.g. after warm-up).
    pub fn reset(&self) {
        self.sorted.borrow_mut().clear();
        self.tail.borrow_mut().clear();
        self.wide.borrow_mut().clear();
    }

    /// Folds the unsorted tail into the sorted run and returns the
    /// whole sorted order. The first fold swaps the sorted tail into
    /// place; later ones merge it in from the back, in place — no
    /// merged copy is ever allocated.
    fn ranked(&self) -> Ranked<'_> {
        let mut tail = self.tail.borrow_mut();
        if !tail.is_empty() {
            tail.sort_unstable();
            let mut sorted = self.sorted.borrow_mut();
            if sorted.is_empty() {
                std::mem::swap(&mut *sorted, &mut *tail);
            } else {
                let (mut i, mut j) = (sorted.len(), tail.len());
                sorted.resize(i + j, 0);
                while j > 0 {
                    if i > 0 && sorted[i - 1] > tail[j - 1] {
                        sorted[i + j - 1] = sorted[i - 1];
                        i -= 1;
                    } else {
                        sorted[i + j - 1] = tail[j - 1];
                        j -= 1;
                    }
                }
                tail.clear();
            }
        }
        Ranked {
            narrow: self.sorted.borrow(),
            wide: self.wide.borrow(),
        }
    }

    /// Arithmetic mean, or `None` when empty. Order-insensitive, so the
    /// tail is summed in place without merging.
    pub fn mean(&self) -> Option<SimSpan> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let narrow: u128 = (self.sorted.borrow().iter())
            .chain(self.tail.borrow().iter())
            .map(|&v| v as u128)
            .sum();
        let wide: u128 = self.wide.borrow().iter().map(|&v| v as u128).sum();
        Some(SimSpan::nanos(((narrow + wide) / n as u128) as u64))
    }

    /// The `p`-th percentile (0.0..=100.0) by nearest-rank, or `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> Option<SimSpan> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let s = self.ranked();
        (s.len() > 0).then(|| SimSpan::nanos(s.nearest(p / 100.0)))
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<SimSpan> {
        let s = self.ranked();
        (s.len() > 0).then(|| SimSpan::nanos(s.nth(s.len() - 1)))
    }

    /// Fraction of samples at or below `bound` (0.0 when empty) — the
    /// goodput accounting of the overload ablation: completions slower
    /// than the deadline are throughput but not goodput.
    pub fn frac_at_most(&self, bound: SimSpan) -> f64 {
        let s = self.ranked();
        if s.len() == 0 {
            return 0.0;
        }
        let bound = bound.as_nanos();
        let n = match u32::try_from(bound) {
            Ok(b) => s.narrow.partition_point(|&v| v <= b),
            Err(_) => s.narrow.len() + s.wide.partition_point(|&v| v <= bound),
        };
        n as f64 / s.len() as f64
    }

    /// `points` evenly spaced (latency, cumulative-probability) pairs —
    /// the series plotted in the paper's CDF figures (Figs 13 and 20).
    pub fn cdf(&self, points: usize) -> Vec<(SimSpan, f64)> {
        let s = self.ranked();
        if s.len() == 0 || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                (SimSpan::nanos(s.nearest(frac)), frac)
            })
            .collect()
    }
}

/// A histogram's samples in sorted order: the `u32` run, then the
/// `wide` run.
struct Ranked<'a> {
    narrow: Ref<'a, Vec<u32>>,
    wide: Ref<'a, Vec<u64>>,
}

impl Ranked<'_> {
    fn len(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }

    /// The `idx`-th smallest sample, in nanoseconds.
    fn nth(&self, idx: usize) -> u64 {
        match self.narrow.get(idx) {
            Some(&v) => v.into(),
            None => self.wide[idx - self.narrow.len()],
        }
    }

    /// The nearest-rank sample at cumulative fraction `frac`, in
    /// nanoseconds. Requires at least one sample.
    fn nearest(&self, frac: f64) -> u64 {
        let n = self.len();
        self.nth(((frac * n as f64).ceil() as usize).max(1).min(n) - 1)
    }
}

/// Tracks how much of a simulated thread's lifetime it spent busy.
///
/// Feeds Figure 15 (client CPU utilisation under RFP vs server-reply):
/// busy-polling remote fetches accrue busy time, blocking waits do not.
pub struct BusyClock {
    busy: Cell<SimSpan>,
    epoch: Cell<SimTime>,
}

impl BusyClock {
    /// Creates a clock whose measurement window starts at `now`.
    pub fn new(now: SimTime) -> Self {
        BusyClock {
            busy: Cell::new(SimSpan::ZERO),
            epoch: Cell::new(now),
        }
    }

    /// Accrues `span` of busy time.
    pub fn add_busy(&self, span: SimSpan) {
        self.busy.set(self.busy.get() + span);
    }

    /// Total busy time since the epoch.
    pub fn busy(&self) -> SimSpan {
        self.busy.get()
    }

    /// Busy fraction of the window ending at `now` (0.0..=1.0).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let window = now.since(self.epoch.get());
        if window.is_zero() {
            return 0.0;
        }
        (self.busy.get().as_nanos() as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Restarts the measurement window at `now` (discarding warm-up).
    pub fn reset(&self, now: SimTime) {
        self.busy.set(SimSpan::ZERO);
        self.epoch.set(now);
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_merges_tail_across_interleaved_queries() {
        let h = Histogram::new();
        // Build up several sorted-run/tail generations and check every
        // query sees the full sample set in order.
        let mut all = Vec::new();
        for round in 0..5u64 {
            for k in 0..20u64 {
                let v = (k * 37 + round * 11) % 100 + 1;
                h.record(SimSpan::nanos(v));
                all.push(v);
            }
            let mut expect = all.clone();
            expect.sort_unstable();
            assert_eq!(h.len(), all.len());
            assert_eq!(h.max().unwrap().as_nanos(), *expect.last().unwrap());
            let mid = expect[expect.len().div_ceil(2) - 1];
            assert_eq!(h.percentile(50.0).unwrap().as_nanos(), mid);
        }
    }

    #[test]
    fn histogram_frac_at_most() {
        let h = Histogram::new();
        assert_eq!(h.frac_at_most(SimSpan::nanos(10)), 0.0);
        for v in [10, 20, 30, 40] {
            h.record(SimSpan::nanos(v));
        }
        assert_eq!(h.frac_at_most(SimSpan::nanos(5)), 0.0);
        assert_eq!(h.frac_at_most(SimSpan::nanos(10)), 0.25);
        assert_eq!(h.frac_at_most(SimSpan::nanos(25)), 0.5);
        assert_eq!(h.frac_at_most(SimSpan::nanos(40)), 1.0);
        // Unmerged tail samples count too.
        h.record(SimSpan::nanos(1));
        assert_eq!(h.frac_at_most(SimSpan::nanos(5)), 0.2);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let h = Histogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(SimSpan::nanos(v));
        }
        assert_eq!(h.percentile(50.0).unwrap().as_nanos(), 50);
        assert_eq!(h.percentile(90.0).unwrap().as_nanos(), 90);
        assert_eq!(h.percentile(100.0).unwrap().as_nanos(), 100);
        assert_eq!(h.percentile(0.0).unwrap().as_nanos(), 10);
        assert_eq!(h.mean().unwrap().as_nanos(), 55);
        assert_eq!(h.max().unwrap().as_nanos(), 100);
    }

    #[test]
    fn histogram_unsorted_input() {
        let h = Histogram::new();
        for v in [90, 10, 50] {
            h.record(SimSpan::nanos(v));
        }
        assert_eq!(h.percentile(50.0).unwrap().as_nanos(), 50);
        // Recording after a query resorts lazily.
        h.record(SimSpan::nanos(1));
        assert_eq!(h.percentile(0.0).unwrap().as_nanos(), 1);
    }

    #[test]
    fn histogram_empty_queries() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert!(h.mean().is_none());
        assert!(h.percentile(50.0).is_none());
        assert!(h.cdf(10).is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_rejects_bad_percentile() {
        let h = Histogram::new();
        h.record(SimSpan::nanos(1));
        let _ = h.percentile(101.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_max() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(SimSpan::nanos(v));
        }
        let cdf = h.cdf(10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(cdf.last().unwrap().0.as_nanos(), 1000);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// Samples on both sides of the 2³² ns split, its edges, and the
    /// extremes of the domain.
    fn sample() -> BoxedStrategy<u64> {
        const SPLIT: u64 = 1 << 32;
        prop_oneof![
            0u64..2_000,
            (SPLIT - 4)..(SPLIT + 4),
            0u64..=u64::MAX,
            (0usize..4).prop_map(|k| [0, u64::MAX, SPLIT - 1, SPLIT][k]),
        ]
    }

    proptest! {
        /// Every query answers exactly what the same query on one plain
        /// sorted `Vec<u64>` of every sample answers, through any
        /// interleaving of records, absorbs, resets and queries.
        #[test]
        fn histogram_matches_sorted_vec_reference(
            ops in vec((0u8..10, sample(), 0.0f64..=100.0, vec(sample(), 0..6)), 1..80)
        ) {
            let h = Histogram::new();
            let mut reference: Vec<u64> = Vec::new();
            for (kind, v, p, extra) in ops {
                match kind {
                    0..=5 => {
                        h.record(SimSpan::nanos(v));
                        reference.push(v);
                    }
                    6 => {
                        // A donor holding sorted, tail and wide samples.
                        let other = Histogram::new();
                        for (i, &e) in extra.iter().enumerate() {
                            other.record(SimSpan::nanos(e));
                            if i == extra.len() / 2 {
                                let _ = other.max();
                            }
                        }
                        h.absorb(&other);
                        reference.extend_from_slice(&extra);
                    }
                    7 => {
                        h.reset();
                        reference.clear();
                    }
                    _ => {
                        let mut s = reference.clone();
                        s.sort_unstable();
                        let n = s.len();
                        prop_assert_eq!(h.len(), n);
                        prop_assert_eq!(h.is_empty(), n == 0);
                        let nearest = |frac: f64| s[((frac * n as f64).ceil() as usize).max(1).min(n) - 1];
                        let nanos = |o: Option<SimSpan>| o.map(SimSpan::as_nanos);
                        let mean = (n > 0).then(|| {
                            (s.iter().map(|&x| x as u128).sum::<u128>() / n as u128) as u64
                        });
                        prop_assert_eq!(nanos(h.mean()), mean);
                        prop_assert_eq!(nanos(h.percentile(p)), (n > 0).then(|| nearest(p / 100.0)));
                        prop_assert_eq!(nanos(h.max()), s.last().copied());
                        let at_most = s.partition_point(|&x| x <= v);
                        let frac = if n == 0 { 0.0 } else { at_most as f64 / n as f64 };
                        prop_assert_eq!(h.frac_at_most(SimSpan::nanos(v)), frac);
                        let points = extra.len();
                        let cdf: Vec<(u64, f64)> = (h.cdf(points).into_iter())
                            .map(|(span, f)| (span.as_nanos(), f))
                            .collect();
                        let expect: Vec<(u64, f64)> = if n == 0 {
                            Vec::new()
                        } else {
                            (1..=points)
                                .map(|i| {
                                    let f = i as f64 / points as f64;
                                    (nearest(f), f)
                                })
                                .collect()
                        };
                        prop_assert_eq!(cdf, expect);
                    }
                }
            }
        }
    }

    #[test]
    fn busy_clock_fractions() {
        let t0 = SimTime::from_nanos(1000);
        let clock = BusyClock::new(t0);
        clock.add_busy(SimSpan::nanos(250));
        let now = SimTime::from_nanos(2000);
        assert!((clock.utilization(now) - 0.25).abs() < 1e-12);
        clock.reset(now);
        assert_eq!(clock.busy(), SimSpan::ZERO);
        assert_eq!(clock.utilization(now), 0.0);
    }
}
