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

/// An exact latency histogram: every sample is kept, as a count.
///
/// Samples (nanoseconds) are stored as sorted `(value, count)` runs, so
/// a histogram's memory grows with the distinct values it has seen, not
/// with the calls that recorded them. The model's latencies sit on a
/// coarse lattice: on the benchmark's workloads, 0.4–0.8 M call
/// latencies take 39 to 11 180 distinct values. Every query stays exact —
/// nearest-rank percentiles and CDFs, the `u128` mean — because nothing
/// is bucketed.
///
/// A record pushes into an unsorted tail of at most 1 024 samples.
/// The tail folds into the runs when it fills and before every ordered
/// query: it is sorted and merged into the runs in place, from the
/// back, so a fold allocates nothing once the runs' capacity covers the
/// distinct values.
///
/// A run is a `u32` value and a `u32` count, 8 B. A count that would
/// pass `u32::MAX` spills into a second run of the same value. The rare
/// sample of 2³² ns (~4.3 s) or more goes to a separate sorted `wide`
/// run, one entry per sample; each of those sorts after every run.
#[derive(Default)]
pub struct Histogram {
    runs: RefCell<Vec<Run>>,
    /// Samples held in `runs`.
    folded: Cell<usize>,
    tail: RefCell<Vec<u32>>,
    wide: RefCell<Vec<u64>>,
}

/// The most samples a histogram's unsorted tail holds before it folds.
const FOLD: usize = 1024;

/// `count` samples of `value` nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    value: u32,
    count: u32,
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
            Ok(v) => {
                let mut tail = self.tail.borrow_mut();
                tail.push(v);
                if tail.len() == FOLD {
                    self.fold_tail(&mut tail);
                }
            }
            Err(_) => {
                let mut wide = self.wide.borrow_mut();
                let at = wide.partition_point(|&w| w <= ns);
                wide.insert(at, ns);
            }
        }
    }

    /// Adds every sample of `other`: its runs merge straight into ours.
    pub fn absorb(&self, other: &Histogram) {
        other.fold();
        let donor = other.runs.borrow();
        merge_back(
            &mut self.runs.borrow_mut(),
            donor.len(),
            donor.iter().rev().copied(),
        );
        self.folded.set(self.folded.get() + other.folded.get());
        let mut wide = self.wide.borrow_mut();
        wide.extend_from_slice(&other.wide.borrow());
        wide.sort_unstable();
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.folded.get() + self.tail.borrow().len() + self.wide.borrow().len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all samples (e.g. after warm-up).
    pub fn reset(&self) {
        self.runs.borrow_mut().clear();
        self.folded.set(0);
        self.tail.borrow_mut().clear();
        self.wide.borrow_mut().clear();
    }

    /// Sorts the tail and merges it into the runs.
    fn fold_tail(&self, tail: &mut Vec<u32>) {
        tail.sort_unstable();
        let groups = tail.chunk_by(|a, b| a == b);
        let incoming = groups.clone().rev().map(|g| Run {
            value: g[0],
            count: g.len() as u32,
        });
        merge_back(&mut self.runs.borrow_mut(), groups.count(), incoming);
        self.folded.set(self.folded.get() + tail.len());
        tail.clear();
    }

    /// Folds whatever the tail holds into the runs.
    fn fold(&self) {
        let mut tail = self.tail.borrow_mut();
        if !tail.is_empty() {
            self.fold_tail(&mut tail);
        }
    }

    /// Folds the tail and returns every sample in sorted order.
    fn ranked(&self) -> Ranked<'_> {
        self.fold();
        Ranked {
            runs: self.runs.borrow(),
            wide: self.wide.borrow(),
            len: self.len(),
        }
    }

    /// Arithmetic mean, or `None` when empty. Order-insensitive, so the
    /// tail is summed in place without folding.
    pub fn mean(&self) -> Option<SimSpan> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let runs: u128 = (self.runs.borrow().iter())
            .map(|r| r.value as u128 * r.count as u128)
            .sum();
        let tail: u128 = self.tail.borrow().iter().map(|&v| v as u128).sum();
        let wide: u128 = self.wide.borrow().iter().map(|&v| v as u128).sum();
        Some(SimSpan::nanos(((runs + tail + wide) / n as u128) as u64))
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
        if s.len == 0 {
            return None;
        }
        let at = s.nearest([p / 100.0]).next();
        at.map(SimSpan::nanos)
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<SimSpan> {
        let s = self.ranked();
        let wide = s.wide.last().copied();
        wide.or_else(|| s.runs.last().map(|r| r.value.into()))
            .map(SimSpan::nanos)
    }

    /// Fraction of samples at or below `bound` (0.0 when empty) — the
    /// goodput accounting of the overload ablation: completions slower
    /// than the deadline are throughput but not goodput.
    pub fn frac_at_most(&self, bound: SimSpan) -> f64 {
        let s = self.ranked();
        if s.len == 0 {
            return 0.0;
        }
        let bound = bound.as_nanos();
        let n = match u32::try_from(bound) {
            Ok(b) => (s.runs.iter())
                .take_while(|r| r.value <= b)
                .map(|r| r.count as usize)
                .sum(),
            Err(_) => self.folded.get() + s.wide.partition_point(|&v| v <= bound),
        };
        n as f64 / s.len as f64
    }

    /// `points` evenly spaced (latency, cumulative-probability) pairs —
    /// the series plotted in the paper's CDF figures (Figs 13 and 20) —
    /// read off in one pass over the runs.
    pub fn cdf(&self, points: usize) -> Vec<(SimSpan, f64)> {
        let s = self.ranked();
        if s.len == 0 || points == 0 {
            return Vec::new();
        }
        let fracs = (1..=points).map(|i| i as f64 / points as f64);
        (s.nearest(fracs.clone()))
            .zip(fracs)
            .map(|(v, frac)| (SimSpan::nanos(v), frac))
            .collect()
    }
}

/// Merges `incoming`, `k` sorted runs listed from the largest value
/// down, into the sorted `runs` in place. The merged order is written
/// from the back of `runs` grown by `k`, so no unread run is ever
/// overwritten. Ours go first on a tie, so once `incoming` runs out
/// every unread run of ours sorts below the merged front: it stays put,
/// and only the merged suffix slides down over the gap that equal
/// values left. A run meeting the last-written run of its value adds to
/// its count; a sum past `u32::MAX` fills that run and spills the rest
/// into a new one.
fn merge_back(runs: &mut Vec<Run>, k: usize, incoming: impl Iterator<Item = Run>) {
    let mut incoming = incoming.peekable();
    let mut i = runs.len();
    let end = i + k;
    runs.resize(end, Run { value: 0, count: 0 });
    // `runs[w..end]` is the merged suffix; `w - i` never falls below
    // the incoming runs still unread.
    let mut w = end;
    while let Some(theirs) = incoming.peek() {
        let mut next = match i.checked_sub(1).map(|at| runs[at]) {
            Some(ours) if ours.value >= theirs.value => {
                i -= 1;
                ours
            }
            _ => incoming.next().expect("peeked"),
        };
        if w < end && runs[w].value == next.value {
            let sum = u64::from(runs[w].count) + u64::from(next.count);
            match u32::try_from(sum) {
                Ok(sum) => {
                    runs[w].count = sum;
                    continue;
                }
                Err(_) => {
                    runs[w].count = u32::MAX;
                    next.count = (sum - u64::from(u32::MAX)) as u32;
                }
            }
        }
        w -= 1;
        runs[w] = next;
    }
    runs.copy_within(w..end, i);
    runs.truncate(i + end - w);
}

/// A folded histogram's samples in sorted order: the runs, then the
/// `wide` run.
struct Ranked<'a> {
    runs: Ref<'a, Vec<Run>>,
    wide: Ref<'a, Vec<u64>>,
    len: usize,
}

impl Ranked<'_> {
    /// Each distinct stretch of the sorted order as (value, samples at
    /// or below it), ascending.
    fn cumulative(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let runs = self
            .runs
            .iter()
            .map(|r| (u64::from(r.value), r.count as usize));
        let wide = self.wide.iter().map(|&v| (v, 1));
        runs.chain(wide).scan(0, |seen, (v, c)| {
            *seen += c;
            Some((v, *seen))
        })
    }

    /// The nearest-rank sample at each cumulative fraction of `fracs`
    /// (non-decreasing), in nanoseconds, in one walk over the runs.
    /// Requires at least one sample.
    fn nearest<'s, F>(&'s self, fracs: F) -> impl Iterator<Item = u64> + 's
    where
        F: IntoIterator<Item = f64>,
        F::IntoIter: 's,
    {
        let n = self.len;
        let mut walk = self.cumulative().peekable();
        fracs.into_iter().map(move |frac| {
            let rank = ((frac * n as f64).ceil() as usize).clamp(1, n);
            while walk.next_if(|&(_, seen)| seen < rank).is_some() {}
            walk.peek().expect("rank within the samples").0
        })
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
        /// interleaving of records, bulk records past the fold size,
        /// absorbs, resets and queries. A `lattice` case draws every
        /// sample from a handful of values, as the model's latencies
        /// fall, so runs take many counts and merge on equal values.
        #[test]
        fn histogram_matches_sorted_vec_reference(
            ops in vec((0u8..12, sample(), 0.0f64..=100.0, vec(sample(), 0..6), 0usize..2_500), 1..80),
            lattice in any::<bool>(),
            palette in vec(sample(), 1..6),
        ) {
            let h = Histogram::new();
            let mut reference: Vec<u64> = Vec::new();
            let pick = |v: u64| if lattice { palette[v as usize % palette.len()] } else { v };
            for (kind, v, p, extra, bulk) in ops {
                let v = pick(v);
                let extra: Vec<u64> = extra.into_iter().map(pick).collect();
                // `extra` over and over, `bulk` samples in all.
                let many = || extra.iter().copied().cycle().take(bulk);
                match kind {
                    0..=5 => {
                        h.record(SimSpan::nanos(v));
                        reference.push(v);
                    }
                    6 => {
                        // A donor holding runs, a tail and wide samples.
                        let other = Histogram::new();
                        for (i, e) in many().enumerate() {
                            other.record(SimSpan::nanos(e));
                            if i == bulk / 2 {
                                let _ = other.max();
                            }
                        }
                        h.absorb(&other);
                        reference.extend(many());
                    }
                    7 => {
                        h.reset();
                        reference.clear();
                    }
                    8..=9 => {
                        for e in many() {
                            h.record(SimSpan::nanos(e));
                        }
                        reference.extend(many());
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
    fn runs_grow_with_distinct_values_not_samples() {
        let h = Histogram::new();
        for i in 0..2_000_000u64 {
            h.record(SimSpan::nanos(100 + (i * 7919) % 50));
            assert!(h.tail.borrow().len() < FOLD);
        }
        assert!(h.runs.borrow().len() <= 50);
        assert_eq!(h.len(), 2_000_000);
        assert_eq!(h.percentile(100.0).unwrap().as_nanos(), 149);
        assert_eq!(h.runs.borrow().len(), 50);
        assert!(h.runs.borrow().iter().all(|r| r.count == 40_000));
    }

    #[test]
    fn run_counts_spill_at_u32_max() {
        let run = |value, count| Run { value, count };
        let full = u32::MAX;
        let h = Histogram::new();
        *h.runs.borrow_mut() = vec![run(5, 1), run(7, full - 1)];
        h.folded.set(1 + full as usize - 1);
        for v in [7, 7, 7, 9] {
            h.record(SimSpan::nanos(v));
        }
        // A sum past `u32::MAX` fills the run it meets and spills the
        // rest into a new run of the same value, below it.
        assert_eq!(h.max().unwrap().as_nanos(), 9);
        assert_eq!(
            *h.runs.borrow(),
            [run(5, 1), run(7, 2), run(7, full), run(9, 1)]
        );

        let donor = Histogram::new();
        *donor.runs.borrow_mut() = vec![run(7, full)];
        donor.folded.set(full as usize);
        h.absorb(&donor);
        assert_eq!(
            *h.runs.borrow(),
            [run(5, 1), run(7, 2), run(7, full), run(7, full), run(9, 1)]
        );
        let n = 2 + 2 * full as usize + 2;
        assert_eq!(h.len(), n);
        assert_eq!(h.percentile(100.0 / n as f64).unwrap().as_nanos(), 5);
        assert_eq!(h.percentile(50.0).unwrap().as_nanos(), 7);
        assert_eq!(h.max().unwrap().as_nanos(), 9);
        assert_eq!(h.mean().unwrap().as_nanos(), 7);
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
