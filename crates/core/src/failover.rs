//! Replica-aware call routing: failover across a static replica list,
//! plus the gray-failure mitigations of DESIGN.md "Scored routing"
//! (health-scored routing, retry budgets) — present iff
//! [`FailoverConfig::gray`] is set.
//!
//! A replicated service exposes the same RPC endpoint on every replica;
//! the client keeps one established [`RfpClient`] connection per
//! replica and routes calls to the **active** one. When a call exhausts
//! its recovery budget with a fault-shaped failure (verb error, expired
//! deadline, corrupt fetches, or an epoch fence it could not heal), the
//! router advances to the next replica in the list and resubmits there.
//!
//! Two rules keep failover safe:
//!
//! * **overload is not failure** — a `Busy`/`Shed` verdict means the
//!   replica is alive and pushing back; failing over would stampede the
//!   backup with the very load the primary just refused, so the
//!   rejection is surfaced to the caller instead;
//! * **epochs only rise** — the router carries the highest replication
//!   epoch any replica has taught it ([`RfpClient::known_epoch`]) into
//!   every connection it activates, so a deposed primary (still serving
//!   the old epoch) can produce nothing the router will accept: its
//!   responses are stamped below the known epoch and ignored, the call
//!   times out, and the router moves on.
//!
//! Resubmitting a write on a different replica can execute it twice
//! (the first replica may have applied it before dying without acking).
//! The router does not hide that: like the recovery loop's replays, it
//! relies on the application making its writes idempotent — the
//! key-value rigs do so by writing each version's full value, so a
//! double-applied PUT is indistinguishable from a single one.
//!
//! # Gray failures
//!
//! Crash failover never fires against a replica that is merely *slow*:
//! every call eventually completes, so nothing errors. With
//! [`FailoverConfig::gray`] set, the router adds two mitigations on
//! top of the crash path:
//!
//! * **scored routing** (`gray::score`) — each routed read scores the
//!   replicas' rolling health windows against the baselines the health
//!   plane captured for their connections; the router keeps none of
//!   its own. A replica falling below `DEMOTE_BELOW` is demoted (with a
//!   `routing.demote` flight-recorder entry carrying the triggering
//!   window's evidence) and reads divert to the best-scoring peer,
//!   save a probe every `PROBE_EVERY`-th (256th) call and a
//!   score-proportional trickle. A demotion never strands the router:
//!   with every candidate gray, traffic stays put.
//! * **retry budget** ([`RetryBudget`]) — retries and failover
//!   switches draw from one per-router token bucket refilled
//!   by successes; a dry bucket degrades to fail-fast (first attempts
//!   are never gated), bounding retry-storm amplification.
//!
//! Mutations always anchor on the active replica — standbys refuse
//! them — so scored routing applies to the read path (`call_read`);
//! `call` keeps the crash-failover contract.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_rnic::ThreadCtx;
use rfp_simnet::{derive_seed, SimSpan};

use crate::client::{CallResult, RfpClient};
use crate::gray::{self, RetryBudget, DEMOTE_BELOW, PROBE_EVERY, RECENT_EPOCHS};
use crate::header::RespStatus;
use crate::observe::incident;
use crate::recovery::{FailureCause, RecoveryConfig, RpcError};

/// Share of traffic a demoted replica keeps per unit of score — the
/// probabilistic de-preference trickle. Small enough that a demoted
/// replica cannot re-poison the routed tail (worst case 0.5% of reads
/// at a score just under the default threshold).
const DEPREF_KEEP_PER_SCORE: f64 = 0.01;
/// Salt of the de-preference draw stream off the recovery policy's
/// seed, so the router's draws never share the recovery jitter's.
const DEPREF_SALT: u64 = 0x6B4A_9E21;

/// Overload is not failure: a `Busy`/`Shed` verdict means the replica
/// is alive and pushing back.
fn overloaded(err: &RpcError) -> bool {
    matches!(
        err.last,
        FailureCause::Rejected(RespStatus::Busy | RespStatus::Shed)
    )
}

/// Replica switches one logical call may make before giving up and
/// surfacing the last error. A full tour of `n` replicas needs `n - 1`;
/// four allows a pair a second tour, so a replica that heals mid-call
/// is retried.
const MAX_FAILOVERS: u32 = 4;

/// Tunables of the replica router.
#[derive(Clone, Debug, Default)]
pub struct FailoverConfig {
    /// Recovery policy (per-attempt deadline, backoff, reconnect)
    /// applied on whichever replica is active.
    pub recovery: RecoveryConfig,
    /// Run the gray-failure mitigations: scored routing and the retry
    /// budget. The de-preference draws are seeded from
    /// `recovery.seed`.
    pub gray: bool,
}

/// Routes fault-tolerant calls across a static list of replicas.
///
/// Replica 0 is the deployment's designated primary; the router starts
/// there and only moves on observed failure, so a healthy run is
/// event-identical to calling the primary's [`RfpClient`] directly.
pub struct ReplicaClient {
    replicas: Vec<Rc<RfpClient>>,
    active: Cell<usize>,
    failovers: Cell<u64>,
    cfg: FailoverConfig,
    /// Retry/failover token bucket.
    budget: RetryBudget,
    /// Sticky demotion flags (cleared when a probe scores healthy).
    demoted: Vec<Cell<bool>>,
    /// Routed-read counter driving the probe cadence.
    route_clock: Cell<u64>,
    /// De-preference draw stream — private, never the simulation RNG,
    /// and touched only while a demotion is in force.
    depref_rng: RefCell<StdRng>,
    /// Consecutive failed calls. Scales the next call's backoff base
    /// (gray mode only) and — the failover-reset fix — is cleared by
    /// **any** success, including the first one completed on a freshly
    /// failed-over replica, so a healed deployment does not keep
    /// paying escalated backoffs.
    fail_streak: Cell<u32>,
}

impl ReplicaClient {
    /// Builds a router over `replicas` (in preference order; index 0 is
    /// the designated primary).
    ///
    /// # Panics
    ///
    /// Panics on an empty replica list.
    pub fn new(replicas: Vec<Rc<RfpClient>>, cfg: FailoverConfig) -> Self {
        assert!(!replicas.is_empty(), "router needs at least one replica");
        let demoted = replicas.iter().map(|_| Cell::new(false)).collect();
        // Only a gray router ever draws from it.
        let seed = derive_seed(cfg.recovery.seed, DEPREF_SALT);
        let depref_rng = RefCell::new(StdRng::seed_from_u64(seed));
        ReplicaClient {
            replicas,
            active: Cell::new(0),
            failovers: Cell::new(0),
            cfg,
            budget: RetryBudget::default(),
            demoted,
            route_clock: Cell::new(0),
            depref_rng,
            fail_streak: Cell::new(0),
        }
    }

    /// Index of the replica currently serving this router's calls.
    pub fn active(&self) -> usize {
        self.active.get()
    }

    /// Replica switches made over this router's lifetime.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Highest replication epoch any replica has taught this router.
    pub fn known_epoch(&self) -> u16 {
        self.replicas
            .iter()
            .map(|c| c.known_epoch())
            .max()
            .unwrap_or(0)
    }

    /// The active replica's connection.
    pub fn client(&self) -> &Rc<RfpClient> {
        &self.replicas[self.active.get()]
    }

    /// The router's retry/failover token bucket.
    pub fn budget(&self) -> &RetryBudget {
        &self.budget
    }

    /// Whether replica `i` is currently demoted by scored routing.
    pub fn is_demoted(&self, i: usize) -> bool {
        self.demoted[i].get()
    }

    /// Consecutive failed calls (escalated-backoff state; 0 after any
    /// success).
    pub fn fail_streak(&self) -> u32 {
        self.fail_streak.get()
    }

    /// Replica `idx`'s connection, seeded with the fleet-wide epoch: a
    /// replica learns of a promotion it slept through the moment the
    /// router returns to it.
    fn seeded(&self, idx: usize) -> &Rc<RfpClient> {
        let client = &self.replicas[idx];
        let epoch = self.known_epoch();
        if client.known_epoch() < epoch {
            client.set_epoch(epoch);
        }
        client
    }

    /// One call attempt on replica `idx` under the (budget-capped,
    /// streak-scaled) recovery policy, with the budget and streak
    /// bookkeeping on both outcomes. Without gray mode: epoch seed +
    /// one `call_with_recovery` under the configured policy.
    async fn attempt_on(
        &self,
        thread: &ThreadCtx,
        req: &[u8],
        idx: usize,
    ) -> Result<CallResult, RpcError> {
        let client = self.seeded(idx);
        if !self.cfg.gray {
            return client
                .call_with_recovery(thread, req, &self.cfg.recovery)
                .await;
        }
        // Budget-capped retries: the call reserves its retry allowance
        // up front; the first attempt is never gated.
        let want = self.cfg.recovery.retry.max_attempts.saturating_sub(1);
        let granted = self.budget.reserve(want);
        let mut rec = self.cfg.recovery.clone();
        rec.retry.max_attempts = granted + 1;
        let streak = self.fail_streak.get();
        if streak > 0 {
            // Escalate the backoff base while failures persist across
            // calls (2x per consecutive failure, saturating at the
            // policy cap after three).
            let shift = streak.min(3);
            let scaled = rec.retry.base.as_nanos().saturating_mul(1 << shift);
            rec.retry.base = SimSpan::nanos(scaled.min(rec.retry.cap.as_nanos()));
        }
        if granted < want {
            client.note_recovery(
                thread,
                incident::BUDGET_CAPPED,
                format_args!("retry budget granted {granted}/{want} retries"),
            );
        }
        match client.call_with_recovery(thread, req, &rec).await {
            Ok(out) => {
                // A successful call returns its whole reservation: the
                // budget charges only calls that exhaust recovery — the
                // storm contributors.
                self.budget.refund(granted);
                self.budget.on_success();
                self.fail_streak.set(0);
                Ok(out)
            }
            Err(err) => {
                // `err.attempts` counts attempts performed; the retries
                // actually spent stay consumed.
                self.budget
                    .refund(granted.saturating_sub(err.attempts.saturating_sub(1)));
                self.fail_streak
                    .set(self.fail_streak.get().saturating_add(1));
                Err(err)
            }
        }
    }

    /// One replicated RPC: calls the active replica under the recovery
    /// policy, rotating to the next replica after each fault-shaped
    /// failure (up to `MAX_FAILOVERS` switches).
    pub async fn call(&self, thread: &ThreadCtx, req: &[u8]) -> Result<CallResult, RpcError> {
        let mut switches = 0u32;
        loop {
            let idx = self.active.get();
            match self.attempt_on(thread, req, idx).await {
                Ok(out) => return Ok(out),
                Err(err) => {
                    // One replica has nowhere to fail over to.
                    let spent = switches >= MAX_FAILOVERS || self.replicas.len() < 2;
                    if overloaded(&err) || spent {
                        return Err(err);
                    }
                    // A failover switch resubmits elsewhere — it draws
                    // a token like any other retry so a storm cannot
                    // amplify through rotation.
                    if self.cfg.gray && self.budget.reserve(1) == 0 {
                        self.replicas[idx].note_recovery(
                            thread,
                            incident::BUDGET_DENIED,
                            "retry budget dry; surfacing instead of failing over",
                        );
                        return Err(err);
                    }
                    switches += 1;
                    let next = (idx + 1) % self.replicas.len();
                    self.failovers.set(self.failovers.get() + 1);
                    self.replicas[idx].note_recovery(
                        thread,
                        incident::FAILOVER,
                        format_args!("replica {idx} -> {next} after {:?}", err.last),
                    );
                    self.active.set(next);
                }
            }
        }
    }

    /// Refreshes every replica's health score and demotion flag.
    /// Pure bookkeeping — report folding and `Cell` flips, no wire
    /// traffic — so routing decisions never perturb event timing.
    fn refresh_scores(&self, thread: &ThreadCtx) -> Vec<Option<f64>> {
        let now = thread.now();
        (0..self.replicas.len())
            .map(|i| {
                let client = &self.replicas[i];
                let health = client.obs().health.as_ref()?;
                let report = health.report(now);
                let recent = health.report_last(now, RECENT_EPOCHS);
                let score = gray::score(&report, &recent)?;
                let was = self.demoted[i].get();
                if score < DEMOTE_BELOW && !was {
                    self.demoted[i].set(true);
                    client.note_recovery(
                        thread,
                        incident::DEMOTE,
                        format_args!(
                            "replica {i} demoted: score {score:.2} \
                             (window p99 {}ns vs baseline {}ns over {} calls, \
                             retry rate {:.2}, {} credit waits)",
                            report.p99_ns,
                            report.baseline.map_or(0, |b| b.p99_ns),
                            report.calls,
                            report.retry_rate,
                            report.credit_waits
                        ),
                    );
                } else if score >= DEMOTE_BELOW && was {
                    self.demoted[i].set(false);
                    client.note_recovery(
                        thread,
                        incident::RESTORE,
                        format_args!(
                            "replica {i} restored: score {score:.2} (window p99 {}ns)",
                            report.p99_ns
                        ),
                    );
                }
                Some(score)
            })
            .collect()
    }

    /// Picks the replica for one read of a gray router over two or
    /// more replicas: a demoted active replica diverts reads to the
    /// best-scoring peer — except for a recovery probe every
    /// `PROBE_EVERY`-th routed read and a score-proportional trickle.
    fn route_read(&self, thread: &ThreadCtx) -> usize {
        let pref = self.active.get();
        let scores = self.refresh_scores(thread);
        if !self.demoted[pref].get() {
            return pref;
        }
        let mut alt = (pref + 1) % self.replicas.len();
        let mut alt_score = f64::NEG_INFINITY;
        for (i, s) in scores.iter().enumerate() {
            if i == pref {
                continue;
            }
            // An unscored replica is assumed healthy: never strand the
            // router for lack of evidence.
            let s = s.unwrap_or(1.0);
            if s > alt_score {
                alt = i;
                alt_score = s;
            }
        }
        if self.demoted[alt].get() {
            // Never demote below one live replica: with every candidate
            // gray, traffic stays put.
            return pref;
        }
        // Counted from 1: the probe is the `PROBE_EVERY`-th routed
        // read, never the first one after a demotion.
        let tick = self.route_clock.get() + 1;
        self.route_clock.set(tick);
        if tick.is_multiple_of(PROBE_EVERY) {
            self.replicas[pref].note_recovery(
                thread,
                incident::PROBE,
                format_args!("probing demoted replica {pref} for recovery"),
            );
            return pref;
        }
        let keep = scores[pref].unwrap_or(0.0).max(0.0) * DEPREF_KEEP_PER_SCORE;
        let draw: f64 = self.depref_rng.borrow_mut().gen();
        if draw < keep {
            pref
        } else {
            alt
        }
    }

    /// One replicated **read** under scored routing: the routed
    /// replica serves it, and any failure falls back to the
    /// crash-failover path anchored on the active replica.
    ///
    /// Without the subsystem this is [`call`](ReplicaClient::call).
    pub async fn call_read(&self, thread: &ThreadCtx, req: &[u8]) -> Result<CallResult, RpcError> {
        if !self.cfg.gray || self.replicas.len() < 2 {
            return self.call(thread, req).await;
        }
        let target = self.route_read(thread);
        match self.attempt_on(thread, req, target).await {
            Ok(out) => Ok(out),
            Err(err) => {
                if overloaded(&err) && target == self.active.get() {
                    return Err(err);
                }
                self.replicas[target].note_recovery(
                    thread,
                    incident::ROUTED_FALLBACK,
                    format_args!("routed read on replica {target} failed ({:?})", err.last),
                );
                self.call(thread, req).await
            }
        }
    }
}
