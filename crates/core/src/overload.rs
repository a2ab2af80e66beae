//! Overload control: credit-based admission and deadline-aware shedding.
//!
//! Under overload RFP's own mechanics work against it (§2.2 of the
//! paper): clients that exhaust their `R` fetch retries either keep
//! polling with RDMA READs — burning the in-bound engine the server
//! needs to absorb request WRITEs — or switch to server-reply mode and
//! burn the ≈5×-slower out-bound engine. Either way saturation turns
//! into collapse. This module adds the protocol-level pieces that turn
//! the collapse back into a plateau:
//!
//! * **deadline stamping** — a client using the overload path stamps an
//!   absolute deadline into the (extended) request header;
//! * **admission control** — the server bounds how many requests it
//!   admits per scan and sheds requests whose stamped deadline already
//!   passed, answering rejections with an explicit
//!   [`RespStatus`](crate::RespStatus) verdict that costs the client
//!   *one* in-bound READ instead of `R` of them;
//! * **credit advertisement** — every response carries the server's
//!   current admission-credit level; clients pause before submitting
//!   when credits hit zero, keeping rejected work off the wire
//!   entirely.
//!
//! The stage is present iff [`RfpConfig::overload`](crate::RfpConfig::overload)
//! is `Some`; a connection without it stamps no deadline, advertises no
//! credit and creates no instrument.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rfp_simnet::{RetryPolicy, SimSpan, SimTime};

// The credit curve, sized against the default admission sweep
// ([`OverloadConfig::queue_limit`] = 8): a full sweep's worth of credits
// while at most half a sweep is backed up, none once two sweeps are —
// whatever is submitted then would bounce.

/// Credits advertised when the server is idle (backlog at or below
/// [`CREDIT_LOW_WATER`]) — also what a client assumes before the first
/// response.
pub(crate) const CREDIT_MAX: u16 = 8;
/// Backlog (pending requests seen in one scan) at or below which the
/// full [`CREDIT_MAX`] is advertised.
const CREDIT_LOW_WATER: usize = 4;
/// Backlog at or above which zero credits are advertised; between the
/// waters the advertisement falls linearly.
const CREDIT_HIGH_WATER: usize = 16;

/// Verdict probes a client issues after a call's deadline before it
/// gives up on the attempt locally. Every rig runs with this value; the
/// probe pace doubles from [`OverloadConfig::probe_pause`] up to 8× it.
pub(crate) const MAX_PROBES: u32 = 8;

/// Tunables of the overload-control stage. Carried by
/// [`RfpConfig`](crate::RfpConfig), so both endpoints of a connection
/// see the same knobs.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Requests a server thread admits per scan of its connections;
    /// pending requests beyond this bound are answered `Busy`.
    pub queue_limit: usize,
    /// Per-call budget: the client stamps `now + deadline` into the
    /// request header, the server sheds any request it picks up after
    /// that instant, and the client stops tight-polling for the
    /// response once it passes.
    pub deadline: SimSpan,
    /// Re-admission schedule: attempts and jittered backoff applied
    /// when a call's submission is answered `Busy`/`Shed`.
    pub retry: RetryPolicy,
    /// Pause before submitting while the last advertised credit level
    /// is zero (jittered like a backoff step).
    pub credit_wait: SimSpan,
    /// After the call's deadline passes, the client stops tight-polling
    /// and probes for the verdict at this (jittered, exponentially
    /// growing) pace instead, `MAX_PROBES` (8) times at most.
    pub probe_pause: SimSpan,
    /// Seed of the client's backoff-jitter stream. Derive a distinct
    /// stream per client (e.g. `derive_seed(base, idx)`) so backoffs
    /// don't synchronise into a thundering herd.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_limit: 8,
            deadline: SimSpan::micros(50),
            retry: RetryPolicy::exponential(4, SimSpan::micros(10), SimSpan::micros(200), 0.3),
            credit_wait: SimSpan::micros(10),
            probe_pause: SimSpan::micros(5),
            seed: 0x0C10_AD00,
        }
    }
}

/// Verdict of the server's admission check for one pending request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Execute it (and never shed it afterwards).
    Admit,
    /// Reject: the scan's admission budget is exhausted.
    Busy,
    /// Reject: the stamped deadline already passed.
    Shed,
}

/// The admission rule, as a pure function so its safety properties are
/// directly testable: a request is shed **iff** its stamped deadline
/// has passed, turned away `Busy` **iff** it is within deadline but the
/// queue bound is reached, and admitted otherwise. The server scan calls
/// this once per pending request *before* any processing, so a request
/// the server has begun processing can never be shed.
pub fn admit(
    cfg: &OverloadConfig,
    now: SimTime,
    deadline: Option<SimTime>,
    queue_depth: usize,
) -> Admission {
    if let Some(d) = deadline {
        if now > d {
            return Admission::Shed;
        }
    }
    if queue_depth >= cfg.queue_limit.max(1) {
        return Admission::Busy;
    }
    Admission::Admit
}

/// Credits to advertise for a scan that found `backlog` pending
/// requests: [`CREDIT_MAX`] at or below the low water, zero at or above
/// the high water, linear in between.
pub fn credits_for(backlog: usize) -> u16 {
    if backlog <= CREDIT_LOW_WATER {
        return CREDIT_MAX;
    }
    if backlog >= CREDIT_HIGH_WATER {
        return 0;
    }
    let span = (CREDIT_HIGH_WATER - CREDIT_LOW_WATER) as f64;
    let over = (backlog - CREDIT_LOW_WATER) as f64;
    (CREDIT_MAX as f64 * (1.0 - over / span)).round() as u16
}

/// Per-tenant admission accounting for one scan of a shared (mux'd)
/// connection group.
///
/// The single-tenant loop bounds *total* admissions per scan with
/// [`admit`]; on a connection group shared by many tenants that one
/// global bound lets a flooding tenant consume the whole budget and
/// starve everyone else. `TenantCredits` keeps a separate admission
/// domain per tenant: each tenant gets the full `queue_limit` for
/// itself, so a hot tenant goes `Busy` once *its* share is spent while
/// cold tenants keep being admitted. Untenanted requests (no stamp in
/// the header) share one implicit domain, which reproduces the global
/// verdicts and the credits on every served reply when no tenant ever
/// stamps. One stamp differs: a `Shed` carries the *current* scan's
/// domain level here and the *previous* scan's level under the global
/// rule (`tests/reactor_identity.rs` pins both, so both stay).
///
/// Credit advertisements are also per-domain: the level stamped into a
/// response reflects the backlog *of the tenant that sent the request*,
/// so a cold tenant keeps seeing [`CREDIT_MAX`] while the hot tenant's
/// own credits collapse to zero (its clients then pace themselves off
/// the wire — the same mechanism, scoped).
#[derive(Default)]
pub struct TenantCredits {
    /// Per-tenant counts for the current scan: requests seen (drives
    /// credits) and requests admitted (drives the queue bound).
    domains: RefCell<BTreeMap<Option<u32>, TenantScan>>,
}

#[derive(Default, Copy, Clone)]
struct TenantScan {
    seen: usize,
    admitted: usize,
}

impl TenantCredits {
    /// Creates an empty accounting table.
    pub fn new() -> Self {
        TenantCredits::default()
    }

    /// Resets all domains for a new scan (admission sweeps are
    /// per-scan, like the single-tenant loop's `admitted` counter).
    pub fn begin_scan(&self) {
        self.domains.borrow_mut().clear();
    }

    /// Admission check for one pending request of `tenant`, charging
    /// the verdict to that tenant's domain. The queue bound applies to
    /// the tenant's own admissions this scan, not the group total.
    pub fn admit(
        &self,
        cfg: &OverloadConfig,
        now: SimTime,
        deadline: Option<SimTime>,
        tenant: Option<u32>,
    ) -> Admission {
        let mut domains = self.domains.borrow_mut();
        let dom = domains.entry(tenant).or_default();
        dom.seen += 1;
        let verdict = admit(cfg, now, deadline, dom.admitted);
        if verdict == Admission::Admit {
            dom.admitted += 1;
        }
        verdict
    }

    /// Credits to advertise to `tenant`, from its own backlog this scan.
    pub fn credits(&self, tenant: Option<u32>) -> u16 {
        let seen = self.domains.borrow().get(&tenant).map_or(0, |dom| dom.seen);
        credits_for(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            queue_limit: 4,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn expired_deadline_sheds_regardless_of_queue() {
        let c = cfg();
        let now = SimTime::from_nanos(1_000);
        let past = Some(SimTime::from_nanos(999));
        assert_eq!(admit(&c, now, past, 0), Admission::Shed);
        assert_eq!(admit(&c, now, past, 100), Admission::Shed);
    }

    #[test]
    fn deadline_boundary_is_inclusive() {
        // A pickup exactly at the deadline still makes it.
        let c = cfg();
        let now = SimTime::from_nanos(1_000);
        assert_eq!(
            admit(&c, now, Some(SimTime::from_nanos(1_000)), 0),
            Admission::Admit
        );
    }

    #[test]
    fn queue_bound_turns_busy() {
        let c = cfg();
        let now = SimTime::from_nanos(50);
        let future = Some(SimTime::from_nanos(10_000));
        assert_eq!(admit(&c, now, future, 3), Admission::Admit);
        assert_eq!(admit(&c, now, future, 4), Admission::Busy);
        // No deadline stamped: only the queue bound applies.
        assert_eq!(admit(&c, now, None, 4), Admission::Busy);
        assert_eq!(admit(&c, now, None, 0), Admission::Admit);
    }

    #[test]
    fn zero_queue_limit_behaves_like_one() {
        let c = OverloadConfig {
            queue_limit: 0,
            ..cfg()
        };
        assert_eq!(admit(&c, SimTime::ZERO, None, 0), Admission::Admit);
        assert_eq!(admit(&c, SimTime::ZERO, None, 1), Admission::Busy);
    }

    #[test]
    fn credits_interpolate_between_waters() {
        assert_eq!(credits_for(0), 8);
        assert_eq!(credits_for(4), 8);
        assert_eq!(credits_for(10), 4);
        assert_eq!(credits_for(16), 0);
        assert_eq!(credits_for(50), 0);
    }

    #[test]
    fn credits_monotone_in_backlog() {
        let mut prev = u16::MAX;
        for backlog in 0..20 {
            let cur = credits_for(backlog);
            assert!(cur <= prev, "credits rose with backlog at {backlog}");
            prev = cur;
        }
    }

    /// Requests admitted across all domains this scan.
    fn admitted(t: &TenantCredits) -> usize {
        t.domains.borrow().values().map(|d| d.admitted).sum()
    }

    #[test]
    fn tenant_domains_are_independent() {
        let c = cfg(); // queue_limit 4
        let t = TenantCredits::new();
        let now = SimTime::from_nanos(10);
        // Hot tenant 1 floods: admitted up to its own share, then Busy.
        for _ in 0..4 {
            assert_eq!(t.admit(&c, now, None, Some(1)), Admission::Admit);
        }
        assert_eq!(t.admit(&c, now, None, Some(1)), Admission::Busy);
        // Cold tenant 2 still gets its full share.
        assert_eq!(t.admit(&c, now, None, Some(2)), Admission::Admit);
        // So does the untenanted domain.
        assert_eq!(t.admit(&c, now, None, None), Admission::Admit);
        assert_eq!(admitted(&t), 6);
        assert_eq!(t.domains.borrow().len(), 3);
    }

    #[test]
    fn tenant_credits_reflect_own_backlog_only() {
        let c = cfg();
        let t = TenantCredits::new();
        let now = SimTime::from_nanos(10);
        for _ in 0..CREDIT_HIGH_WATER {
            let _ = t.admit(&c, now, None, Some(1));
        }
        let _ = t.admit(&c, now, None, Some(2));
        assert_eq!(t.credits(Some(1)), 0, "hot tenant throttled");
        assert_eq!(t.credits(Some(2)), CREDIT_MAX, "cold tenant untouched");
        assert_eq!(t.credits(Some(3)), CREDIT_MAX, "unseen tenant untouched");
    }

    #[test]
    fn tenant_sweep_resets_per_scan() {
        let c = cfg();
        let t = TenantCredits::new();
        let now = SimTime::from_nanos(10);
        for _ in 0..5 {
            let _ = t.admit(&c, now, None, Some(1));
        }
        t.begin_scan();
        assert_eq!(t.admit(&c, now, None, Some(1)), Admission::Admit);
        assert_eq!(admitted(&t), 1);
    }

    #[test]
    fn tenant_shed_still_wins_over_queue_state() {
        let c = cfg();
        let t = TenantCredits::new();
        let now = SimTime::from_nanos(1_000);
        let past = Some(SimTime::from_nanos(999));
        assert_eq!(t.admit(&c, now, past, Some(1)), Admission::Shed);
        // A shed charges the backlog (the request was pending) but not
        // the admission count.
        assert_eq!(admitted(&t), 0);
        assert!(t.credits(Some(1)) <= CREDIT_MAX);
    }
}
