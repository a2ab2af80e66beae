//! Gray-failure resilience: replica health scoring and retry-storm
//! budgets (DESIGN.md §16).
//!
//! A *gray* replica is one that still answers — no crash, no verb
//! error, no shed — but answers slowly: a fail-slow NIC, a flaky
//! sub-recovery-threshold link, a CPU-throttled serve loop. The
//! recovery layer of PR 2 is blind to it (every call eventually
//! succeeds) and the failover layer never triggers (nothing errors),
//! so tail latency quietly inflates. This module supplies the two
//! mechanisms the replica router uses against it:
//!
//! * [`ReplicaScorer`] — folds each replica's rolling
//!   [`ConnHealthReport`] windows into a 0..=1 health score against a
//!   frozen healthy baseline; the router demotes replicas whose score
//!   drops below `DEMOTE_BELOW` and routes reads around them.
//! * [`RetryBudget`] — a token bucket shared by retries and failover
//!   switches. Successes refill it; under a retry storm it drains,
//!   capping amplification and degrading to fail-fast (shedding the
//!   retry, never the first attempt).
//!
//! The subsystem is present iff [`FailoverConfig::gray`](crate::FailoverConfig::gray)
//! is `Some`; scored routing and the budget are what gray mode *is*.

use std::cell::Cell;

use rfp_simnet::{Baseline, ConnHealthReport};

/// Score below which a replica is demoted (0..=1). The scorer's
/// penalties are sized against it: a fail-slow median alone
/// (0.25 + up to 0.5) crosses it, a tail-only regression (0.25) never
/// does.
pub(crate) const DEMOTE_BELOW: f64 = 0.5;
/// Every `PROBE_EVERY`-th routed read still targets a demoted preferred
/// replica, sampling it for recovery. This keeps probe traffic under 1%
/// of routed reads, so a demoted replica cannot drag the read p99 back
/// up (p99 tolerates 1% of slow samples).
pub(crate) const PROBE_EVERY: u64 = 256;

/// Tunables of the gray-failure subsystem, carried by `FailoverConfig`
/// when the router runs it.
#[derive(Clone, Debug)]
pub struct GrayConfig {
    /// Seed of the router's de-preference draw stream (private
    /// `StdRng`, never the simulation RNG — scoring decisions do not
    /// perturb unrelated event timing).
    pub seed: u64,
}

impl Default for GrayConfig {
    fn default() -> Self {
        GrayConfig { seed: 0x6B4A_9E21 }
    }
}

/// Folds per-replica [`ConnHealthReport`] windows into a health score
/// in 0..=1 (1 = healthy). The first sufficiently-populated window of
/// each replica freezes its baseline; later windows are scored by
/// accumulating penalties:
///
/// * **median** inflation past `LATENCY_FACTOR` × baseline p50: 0.25
///   plus up to 0.5 more as the ratio doubles past the threshold. The
///   median is the primary latency signal deliberately: a whole-replica
///   fail-slow fault drags *every* call, so p50 inflates as hard as
///   p99, while a handful of poisoned samples (one probe in a fast
///   window) can own a window's p99 without meaning the replica is
///   sick;
/// * **tail-only** regression (p99 past `LATENCY_FACTOR` × baseline
///   p99 with the median still healthy): 0.25 — evidence, but never
///   demoting alone;
/// * a retry spike ([`Baseline::retry_spike`]): 0.25;
/// * credit starvation (any credit wait in the window): 0.15;
/// * any hard-failure signal (verb errors, reconnects): 0.5.
///
/// The baseline and its thresholds are the anomaly detector's
/// ([`Baseline`]), so a replica the doctor would flag is also one the
/// router de-prefers.
///
/// `score = max(0, 1 − Σ penalties)`. A replica whose median inflates
/// past 1.25× the latency factor (3.75× baseline) crosses
/// the demotion threshold of 0.5 on latency alone — a pure
/// fail-slow fault demotes without any hard-failure evidence, and the
/// gradient is steep enough that even a flaky link whose inflation is
/// *capped* by RC retransmission limits (~8 rounds per verb) clears
/// it — and a milder regression paired with a retry spike demotes
/// too. A replica
/// that is slow for only a small fraction of requests keeps a degraded
/// (but above-threshold) score; intermittent grayness is surfaced by
/// the anomaly detector, not routed around.
pub struct ReplicaScorer {
    baselines: Vec<Cell<Option<Baseline>>>,
}

impl ReplicaScorer {
    /// A scorer for `replicas` replicas with no baselines yet.
    pub fn new(replicas: usize) -> Self {
        ReplicaScorer {
            baselines: (0..replicas).map(|_| Cell::new(None)).collect(),
        }
    }

    /// Scores replica `i`'s current window. Returns `None` until a
    /// baseline exists *and* the window carries enough calls — an
    /// unknown replica is neither preferred nor demoted. The first
    /// call with a populated window freezes the baseline (and returns
    /// `None`: the baseline window scores nothing against itself).
    pub fn score(&self, i: usize, report: &ConnHealthReport) -> Option<f64> {
        let slot = &self.baselines[i];
        let Some(base) = slot.get() else {
            slot.set(Baseline::of(report));
            return None;
        };
        if report.calls < Baseline::MIN_WINDOW_CALLS {
            return None;
        }
        let f = Baseline::LATENCY_FACTOR;
        let mut penalty = 0.0;
        let p50_ratio = report.p50_ns as f64 / base.p50_ns as f64;
        let p99_ratio = report.p99_ns as f64 / base.p99_ns as f64;
        if p50_ratio > f {
            penalty += 0.25 + 0.5 * ((p50_ratio - f) / (f / 2.0)).min(1.0);
        } else if p99_ratio > f {
            penalty += 0.25;
        }
        if base.retry_spike(report) {
            penalty += 0.25;
        }
        if report.credit_waits > 0 {
            penalty += 0.15;
        }
        if report.verb_errors + report.reconnects > 0 {
            penalty += 0.5;
        }
        Some((1.0 - penalty).max(0.0))
    }

    /// The frozen healthy-baseline p99 of replica `i`, once captured.
    pub fn baseline_p99(&self, i: usize) -> Option<u64> {
        self.baselines[i].get().map(|b| b.p99_ns)
    }
}

/// Per-client retry-storm budget: a token bucket drawn on by retries
/// and failover switches, refilled by successes.
///
/// Invariants (DESIGN.md §16):
///
/// * the **first attempt of a call is never gated** — an empty bucket
///   degrades retries to fail-fast, it does not black-hole traffic;
/// * a call **reserves** its retry allowance up front and **refunds**
///   what it did not use, so concurrent callers cannot over-commit
///   the pool;
/// * total retry amplification is bounded: past the initial
///   `MAX_TOKENS` burst, sustained retries-per-success cannot exceed
///   `REFILL_PER_SUCCESS`, because each retry consumes a token that
///   only a success puts back.
pub struct RetryBudget {
    tokens: Cell<f64>,
    /// Retry/failover grants denied because the bucket was dry.
    denied: Cell<u64>,
    /// Tokens irrevocably consumed (granted and not refunded).
    spent: Cell<u64>,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            tokens: Cell::new(Self::MAX_TOKENS),
            denied: Cell::new(0),
            spent: Cell::new(0),
        }
    }
}

impl RetryBudget {
    /// Bucket capacity (also the initial fill).
    const MAX_TOKENS: f64 = 16.0;
    /// Tokens returned per successful call, on top of refunding the
    /// call's unused reservation: the sustained retries-per-success
    /// bound, well inside the ≤ 2 tokens per completed call the
    /// `grayfail` sweep asserts.
    const REFILL_PER_SUCCESS: f64 = 0.5;

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens.get()
    }

    /// Reserves up to `want` whole tokens; returns how many were
    /// granted (0 when the bucket is dry). A grant of less than `want`
    /// bumps the denied counter once.
    pub fn reserve(&self, want: u32) -> u32 {
        let have = self.tokens.get().floor().max(0.0) as u32;
        let granted = want.min(have);
        if granted < want {
            self.denied.set(self.denied.get() + 1);
        }
        self.tokens.set(self.tokens.get() - granted as f64);
        self.spent.set(self.spent.get() + granted as u64);
        granted
    }

    /// Returns `unused` tokens of an earlier reservation.
    pub fn refund(&self, unused: u32) {
        self.spent
            .set(self.spent.get().saturating_sub(unused as u64));
        self.tokens
            .set((self.tokens.get() + unused as f64).min(Self::MAX_TOKENS));
    }

    /// Books one successful call: refills the bucket.
    pub fn on_success(&self) {
        self.tokens
            .set((self.tokens.get() + Self::REFILL_PER_SUCCESS).min(Self::MAX_TOKENS));
    }

    /// Reservations that came back short because the bucket was dry.
    pub fn denied(&self) -> u64 {
        self.denied.get()
    }

    /// Tokens consumed and never refunded — the storm-amplification
    /// ledger the `grayfail` sweep asserts against.
    pub fn consumed(&self) -> u64 {
        self.spent.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_simnet::{AnomalyDetector, AnomalyKind, HealthHub, SimSpan, SimTime};

    fn report(calls: u64, p99_ns: u64, retry_rate: f64) -> ConnHealthReport {
        ConnHealthReport {
            conn: 0,
            calls,
            p50_ns: p99_ns / 2,
            p99_ns,
            retry_rate,
            sheds: 0,
            busys: 0,
            corrupts: 0,
            credit_waits: 0,
            stalls: 0,
            reconnects: 0,
            verb_errors: 0,
            failovers: 0,
        }
    }

    #[test]
    fn scorer_freezes_baseline_then_scores() {
        let s = ReplicaScorer::new(2);
        // Thin window: neither baseline nor score.
        assert_eq!(s.score(0, &report(3, 10_000, 0.0)), None);
        assert_eq!(s.baseline_p99(0), None);
        // Populated healthy window freezes the baseline.
        assert_eq!(s.score(0, &report(100, 10_000, 0.1)), None);
        assert_eq!(s.baseline_p99(0), Some(10_000));
        // A healthy follow-up window scores 1.0.
        assert_eq!(s.score(0, &report(50, 12_000, 0.1)), Some(1.0));
        // Replica 1 is independent.
        assert_eq!(s.baseline_p99(1), None);
    }

    #[test]
    fn pure_latency_regression_drops_below_demotion_threshold() {
        let s = ReplicaScorer::new(1);
        s.score(0, &report(100, 10_000, 0.0));
        // 10x the baseline p99, no other signal: penalty 0.1 + 0.5.
        let score = s.score(0, &report(20, 100_000, 0.0)).unwrap();
        assert!(score < 0.5, "fail-slow alone must demote, got {score}");
        // Mild inflation below the factor keeps the replica healthy.
        assert_eq!(s.score(0, &report(20, 25_000, 0.0)), Some(1.0));
    }

    #[test]
    fn tail_only_regression_degrades_but_does_not_demote() {
        let s = ReplicaScorer::new(1);
        s.score(0, &report(100, 10_000, 0.0));
        // A few poisoned samples own the window p99 (20x) while the
        // median stays healthy: evidence, not a demotion.
        let mut r = report(200, 200_000, 0.0);
        r.p50_ns = 5_500;
        let score = s.score(0, &r).unwrap();
        assert_eq!(score, 0.75, "tail-only regression costs 0.25, got {score}");
    }

    #[test]
    fn hard_failure_signals_stack_with_latency() {
        let s = ReplicaScorer::new(1);
        s.score(0, &report(100, 10_000, 0.0));
        let mut r = report(20, 40_000, 5.0);
        r.verb_errors = 2;
        r.credit_waits = 3;
        let score = s.score(0, &r).unwrap();
        assert_eq!(score, 0.0, "stacked penalties clamp at zero");
    }

    /// The detector and the scorer read one retry rule off one
    /// baseline: a window just past it is a `RetrySpike` and costs the
    /// replica 0.25, a window at it is neither.
    #[test]
    fn detector_and_scorer_agree_on_a_retry_spike() {
        let t = |us: u64| SimTime::from_nanos(us * 1_000);
        // Baseline: 32 calls, 8 failed fetches — 0.25 per call, so the
        // rule fires above 0.25 × 3 + 1 = 1.75 per call.
        let hub = HealthHub::default();
        let c = hub.conn(0);
        for i in 0..32 {
            c.record_call(t(i), SimSpan::micros(2), (i % 4 == 0) as u64);
        }
        let (det, scorer) = (AnomalyDetector::new(), ReplicaScorer::new(1));
        let base = hub.report(t(40));
        det.set_baseline(&base);
        assert_eq!(
            scorer.score(0, &base.conns[0]),
            None,
            "freezes the baseline"
        );
        // Eight calls at the same latency, past the 1.6 ms window:
        // 14 failed fetches is 1.75 per call, 15 is 1.875.
        for (from, retries, spike) in [(2_000, 14, false), (6_000, 15, true)] {
            for i in 0..8 {
                c.record_call(
                    t(from + i),
                    SimSpan::micros(2),
                    (i < retries - 8) as u64 + 1,
                );
            }
            let window = hub.report(t(from + 10));
            assert_eq!(window.conns[0].calls, 8);
            let kinds: Vec<AnomalyKind> = det.scan(&window).iter().map(|a| a.kind).collect();
            let (expected, score): (&[AnomalyKind], f64) = if spike {
                (&[AnomalyKind::RetrySpike], 0.75)
            } else {
                (&[], 1.0)
            };
            assert_eq!(kinds, expected);
            assert_eq!(scorer.score(0, &window.conns[0]), Some(score));
        }
    }

    #[test]
    fn budget_reserves_refunds_and_refills() {
        let b = RetryBudget::default();
        assert_eq!(b.reserve(15), 15);
        assert_eq!(b.tokens(), 1.0);
        // Dry-ish bucket grants what it has and counts the denial.
        assert_eq!(b.reserve(3), 1);
        assert_eq!(b.denied(), 1);
        assert_eq!(b.reserve(2), 0);
        assert_eq!(b.denied(), 2);
        // Refund + refill restore headroom, capped at the maximum.
        b.refund(2);
        b.on_success();
        assert_eq!(b.tokens(), 2.5);
        for _ in 0..40 {
            b.on_success();
        }
        assert_eq!(b.tokens(), 16.0, "refill saturates at MAX_TOKENS");
    }

    #[test]
    fn gray_config_defaults_are_dormant() {
        assert!(crate::FailoverConfig::default().gray.is_none());
    }
}
