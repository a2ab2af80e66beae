//! Gray-failure resilience: replica health scoring and retry-storm
//! budgets (DESIGN.md "Scored routing").
//!
//! A *gray* replica is one that still answers — no crash, no verb
//! error, no shed — but answers slowly: a fail-slow NIC, a flaky
//! sub-recovery-threshold link, a CPU-throttled serve loop. The
//! recovery layer of PR 2 is blind to it (every call eventually
//! succeeds) and the failover layer never triggers (nothing errors),
//! so tail latency quietly inflates. This module supplies the two
//! mechanisms the replica router uses against it:
//!
//! * [`score`] — a pure function folding a replica's rolling
//!   [`ConnHealthReport`] window into a 0..=1 health score against the
//!   healthy [`Baseline`] the health plane captured for its connection
//!   (the report carries it; the scorer keeps no state); the router
//!   demotes replicas whose score drops below `DEMOTE_BELOW` and routes
//!   reads around them.
//! * [`RetryBudget`] — a token bucket shared by retries and failover
//!   switches. Successes refill it; under a retry storm it drains,
//!   capping amplification and degrading to fail-fast (shedding the
//!   retry, never the first attempt).
//!
//! The subsystem is present iff [`FailoverConfig::gray`](crate::FailoverConfig::gray)
//! is set; scored routing and the budget are what gray mode *is*.

use std::cell::Cell;

use rfp_simnet::{Baseline, ConnHealthReport};

/// Newest epochs of the health window the scorer also reads on their
/// own, so the calls a replica answered before a fault do not hide its
/// slow recent ones (see [`score`]).
pub(crate) const RECENT_EPOCHS: usize = 2;
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

/// Scores one replica's current health window, `report`, in 0..=1
/// (1 = healthy), with `recent` the same window's newest
/// [`RECENT_EPOCHS`] epochs. A pure function of the two reports: the
/// baseline is the one the health plane captured for the connection
/// ([`ConnHealthReport::baseline`]), and the thresholds are the
/// anomaly detector's ([`Baseline`]), so a replica the doctor would
/// flag is also one the router de-prefers. Returns `None` without a
/// baseline — an unknown replica is neither preferred nor demoted.
///
/// Penalties accumulate:
///
/// * **median** inflation past `LATENCY_FACTOR` × baseline p50: 0.25
///   plus up to 0.5 more as the ratio doubles past the threshold. The
///   median is the primary latency signal deliberately: a whole-replica
///   fail-slow fault drags *every* call, so p50 inflates as hard as
///   p99, while a handful of poisoned samples (one probe in a fast
///   window) can own a window's p99 without meaning the replica is
///   sick;
/// * **tail-only** regression ([`Baseline::tail_regressed`] with the
///   median still healthy): 0.25 — evidence, but never demoting alone;
/// * a retry spike ([`Baseline::retry_spike`]): 0.25;
/// * credit starvation (any credit wait in the window): 0.15;
/// * any hard-failure signal (verb errors, reconnects): 0.5.
///
/// `score = max(0, 1 − Σ penalties)`. A replica whose median inflates
/// past 1.25× the latency factor (3.75× baseline) crosses the demotion
/// threshold of 0.5 on latency alone — a pure fail-slow fault demotes
/// without any hard-failure evidence, and the gradient is steep enough
/// that even a flaky link whose inflation is *capped* by RC
/// retransmission limits (~8 rounds per verb) clears it — and a milder
/// regression paired with a retry spike demotes too. A replica that is
/// slow for only a small fraction of requests keeps a degraded (but
/// above-threshold) score; intermittent grayness is surfaced by the
/// anomaly detector, not routed around.
///
/// The window's newest epochs, `recent`, also speak on their own. With
/// no calls they carry no fresh evidence, and the replica's state
/// stands (`None`). They are **heard** when they hold
/// [`Baseline::MIN_WINDOW_CALLS`] calls, or when, thinner, their median
/// exceeds `LATENCY_FACTOR` × the baseline **p99**; a heard recent
/// median stands in for the window's when it is the higher, and scores
/// a window too thin for the full rule. The slower a gray replica, the
/// fewer calls it answers, so the thinner its epochs and the longer its
/// pre-fault calls hold the whole window's median down: without this
/// the slowest replicas were demoted last. The thin bound is stricter
/// than the full-window one — the median must clear the healthy tail,
/// not the healthy median — so an outlier the tail already covers
/// cannot demote a replica.
pub(crate) fn score(report: &ConnHealthReport, recent: &ConnHealthReport) -> Option<f64> {
    let base = report.baseline?;
    if recent.calls == 0 {
        return None;
    }
    let f = Baseline::LATENCY_FACTOR;
    let heard =
        recent.calls >= Baseline::MIN_WINDOW_CALLS || recent.p50_ns as f64 > f * base.p99_ns as f64;
    if report.calls < Baseline::MIN_WINDOW_CALLS && !heard {
        return None;
    }
    let p50_ns = if heard {
        recent.p50_ns.max(report.p50_ns)
    } else {
        report.p50_ns
    };
    let mut penalty = 0.0;
    let p50_ratio = p50_ns as f64 / base.p50_ns as f64;
    if p50_ratio > f {
        penalty += 0.25 + 0.5 * ((p50_ratio - f) / (f / 2.0)).min(1.0);
    } else if base.tail_regressed(report) {
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

/// Per-client retry-storm budget: a token bucket drawn on by retries
/// and failover switches, refilled by successes.
///
/// Invariants (DESIGN.md "Scored routing"):
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
    use rfp_simnet::{scan, AnomalyKind, HealthHub, SimSpan, SimTime};

    /// The captured baseline every [`report`] carries: p50 5 µs, p99
    /// 10 µs, no retries.
    const BASE: Baseline = Baseline {
        p50_ns: 5_000,
        p99_ns: 10_000,
        retry_rate: 0.0,
    };

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
            baseline: Some(BASE),
        }
    }

    /// Scores `r` as a window all of whose calls are recent.
    fn whole(r: &ConnHealthReport) -> Option<f64> {
        score(r, r)
    }

    #[test]
    fn scorer_scores_against_the_captured_baseline() {
        // No captured baseline: no score, however full the window.
        let mut bare = report(100, 10_000, 0.0);
        bare.baseline = None;
        assert_eq!(whole(&bare), None);
        // A healthy window scores 1.0 against the one its report carries.
        assert_eq!(whole(&report(50, 12_000, 0.1)), Some(1.0));
    }

    #[test]
    fn pure_latency_regression_drops_below_demotion_threshold() {
        // 10x the baseline p99, no other signal: penalty 0.1 + 0.5.
        let score = whole(&report(20, 100_000, 0.0)).unwrap();
        assert!(score < 0.5, "fail-slow alone must demote, got {score}");
        // Mild inflation below the factor keeps the replica healthy.
        assert_eq!(whole(&report(20, 25_000, 0.0)), Some(1.0));
    }

    /// Recent epochs speak through a window whose older calls are fast:
    /// thin, only when their median clears the factor × baseline p99;
    /// with a window's worth of calls, under the median rule. Recent
    /// epochs with no calls leave every window unscored.
    #[test]
    fn slow_recent_epochs_are_scored_however_thin() {
        // One slow call (p50 50 µs > 3 × 10 µs).
        let thin = report(1, 100_000, 0.0);
        assert!(whole(&thin).unwrap() < 0.5, "a slow thin window demotes");
        // Fast pre-fault calls hold the whole window's median down.
        let mut window = report(30, 200_000, 0.0);
        window.p50_ns = 6_000;
        let demoted = score(&window, &report(2, 150_000, 0.0)).unwrap();
        assert!(demoted < 0.5, "slow recent epochs demote, got {demoted}");
        // p50 20 µs: 4 × the baseline median, under 3 × its p99. Thin,
        // it says nothing; over a full window's worth of calls it
        // demotes under the median rule.
        let mild = report(2, 40_000, 0.0);
        assert_eq!(whole(&mild), None);
        assert_eq!(score(&window, &mild), Some(0.75));
        let recent = report(Baseline::MIN_WINDOW_CALLS, 40_000, 0.0);
        assert!(score(&window, &recent).unwrap() < 0.5);
        // No recent call: no fresh evidence, no verdict.
        assert_eq!(score(&window, &report(0, 0, 0.0)), None);
    }

    #[test]
    fn tail_only_regression_degrades_but_does_not_demote() {
        // A few poisoned samples own the window p99 (20x) while the
        // median stays healthy: evidence, not a demotion.
        let mut r = report(200, 200_000, 0.0);
        r.p50_ns = 5_500;
        let score = whole(&r).unwrap();
        assert_eq!(score, 0.75, "tail-only regression costs 0.25, got {score}");
    }

    #[test]
    fn hard_failure_signals_stack_with_latency() {
        let mut r = report(20, 40_000, 5.0);
        r.verb_errors = 2;
        r.credit_waits = 3;
        let score = whole(&r).unwrap();
        assert_eq!(score, 0.0, "stacked penalties clamp at zero");
    }

    /// Books 32 healthy calls of `latency_ns` and `retries` failed
    /// fetches every fourth call, then captures them as the hub's one
    /// baseline.
    fn captured(latency_ns: u64, retries: u64) -> HealthHub {
        let hub = HealthHub::default();
        let c = hub.conn(0);
        for i in 0..32u64 {
            let at = SimTime::from_nanos(i * 1_000);
            c.record_call(
                at,
                SimSpan::nanos(latency_ns),
                retries * (i % 4 == 0) as u64,
            );
        }
        hub.capture_baselines(SimTime::from_nanos(40_000));
        hub
    }

    /// Books `calls` as one window past the 1.6 ms health window, from
    /// `from_us`, and returns what the detector raises on it and what
    /// the scorer makes of it.
    fn judge(
        hub: &HealthHub,
        from_us: u64,
        calls: &[(u64, u64)],
    ) -> (Vec<AnomalyKind>, Option<f64>) {
        let t = |us: u64| SimTime::from_nanos(us * 1_000);
        let c = hub.conn(0);
        for (i, &(latency_ns, retries)) in calls.iter().enumerate() {
            c.record_call(t(from_us + i as u64), SimSpan::nanos(latency_ns), retries);
        }
        let window = hub.report(t(from_us + 10));
        assert_eq!(window.conns[0].calls, calls.len() as u64);
        let kinds = scan(&window).iter().map(|a| a.kind).collect();
        (kinds, whole(&window.conns[0]))
    }

    /// The detector and the scorer read one retry rule off one
    /// baseline: a window just past it is a `RetrySpike` and costs the
    /// replica 0.25, a window at it is neither.
    #[test]
    fn detector_and_scorer_agree_on_a_retry_spike() {
        // Baseline: 8 failed fetches over 32 calls — 0.25 per call, so
        // the rule fires above 0.25 × 3 + 1 = 1.75 per call.
        let hub = captured(2_000, 1);
        // Eight calls at the same latency: 14 failed fetches is 1.75
        // per call, 15 is 1.875.
        for (from, retries, spike) in [(2_000, 14, false), (6_000, 15, true)] {
            let calls: Vec<_> = (0..8)
                .map(|i| (2_000, (i < retries - 8) as u64 + 1))
                .collect();
            let expected: (&[AnomalyKind], f64) = if spike {
                (&[AnomalyKind::RetrySpike], 0.75)
            } else {
                (&[], 1.0)
            };
            let (kinds, score) = judge(&hub, from, &calls);
            assert_eq!((&kinds[..], score), (expected.0, Some(expected.1)));
        }
    }

    /// Likewise for the tail rule: a window whose p99 sits exactly at
    /// `LATENCY_FACTOR` × the baseline p99 raises nothing and costs
    /// nothing; one nanosecond past it is a `LatencyRegression` (gray:
    /// nothing else went wrong) and costs the replica 0.25.
    #[test]
    fn detector_and_scorer_agree_on_a_tail_regression() {
        let hub = captured(10_000, 0);
        let at = (Baseline::LATENCY_FACTOR * 10_000.0) as u64;
        for (from, tail, regressed) in [(2_000, at, false), (6_000, at + 1, true)] {
            // Seven healthy calls and one slow one: the slow one is the
            // window's nearest-rank p99, the median stays healthy.
            let mut calls = vec![(10_000, 0); 7];
            calls.push((tail, 0));
            let expected: (&[AnomalyKind], f64) = if regressed {
                (
                    &[AnomalyKind::LatencyRegression, AnomalyKind::GrayFailure],
                    0.75,
                )
            } else {
                (&[], 1.0)
            };
            let (kinds, score) = judge(&hub, from, &calls);
            assert_eq!((&kinds[..], score), (expected.0, Some(expected.1)));
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
        assert!(!crate::FailoverConfig::default().gray);
    }
}
