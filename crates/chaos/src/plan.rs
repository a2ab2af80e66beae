//! Fault plans: sim-time-scheduled, seeded fault schedules.
//!
//! A [`FaultPlan`] is pure data — a list of [`FaultEvent`]s pinned to
//! simulated instants. Determinism falls out of the simulator's design:
//! the same plan against the same seeded simulation replays the same
//! faults at the same virtual nanoseconds, so every recovery experiment
//! is exactly reproducible (and bisectable) from `(plan, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_simnet::{derive_seed, SimSpan, SimTime};

/// One class of injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Extra unreliable-transport loss probability on one machine's NIC
    /// for the event's duration (compounds with the profile's base
    /// loss); RC traffic instead pays probabilistic retransmission
    /// delays. A flaky link is a loss burst under the recovery
    /// threshold that outlives the run.
    LossBurst {
        /// Target machine index.
        machine: usize,
        /// Additional loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Fabric-wide propagation-delay multiplier for the duration
    /// (congestion, a flapping uplink).
    LinkDegrade {
        /// Propagation multiplier (`> 1` slows every link).
        factor: f64,
    },
    /// CPU-time multiplier on one machine's threads for the duration
    /// (a straggler core: thermal throttling, a noisy neighbour). A
    /// fail-slow server is a straggler window that outlives the run.
    Straggler {
        /// Target machine index.
        machine: usize,
        /// Busy-span multiplier (`> 1` slows the machine).
        factor: f64,
    },
    /// Instantaneously transitions every QP touching one machine to the
    /// error state (the verbs-level `IBV_QPS_ERR`); henceforth their
    /// verbs complete with `VerbError::QpError` until re-established.
    QpError {
        /// Target machine index.
        machine: usize,
    },
    /// Machine crash followed by a restart after the event's duration.
    /// Process state always dies; `warm` controls whether registered
    /// memory regions survive (warm) or come back zeroed (cold).
    Crash {
        /// Target machine index.
        machine: usize,
        /// Whether registered memory survives the restart.
        warm: bool,
    },
    /// Torn-DMA window on one machine: READs of its memory complete
    /// mid-write with probability `p`, returning a spliced old/new
    /// buffer (the non-atomic-DMA race the integrity layer detects).
    TornDma {
        /// Target machine index.
        machine: usize,
        /// Per-READ tear probability in `[0, 1]`.
        p: f64,
    },
    /// Memory bit-flip window on one machine: READs of its memory
    /// return an image with one flipped bit with probability `p`.
    BitFlip {
        /// Target machine index.
        machine: usize,
        /// Per-READ flip probability in `[0, 1]`.
        p: f64,
    },
    /// Fail-slow link on one machine: every wire leg touching it pays a
    /// jittered extra latency around `lag_ns` for the duration, with no
    /// error completion ever raised — the canonical gray failure a
    /// liveness-based failover cannot see.
    SlowLink {
        /// Target machine index.
        machine: usize,
        /// Mean added one-way latency in nanoseconds.
        lag_ns: u64,
    },
    /// Asymmetric network partition for the event's duration: traffic
    /// `from → to` is dropped while the reverse direction keeps
    /// flowing (a one-way link failure / bad switch rule). An op whose
    /// request leg is cut errors with no remote side effect; an op
    /// whose completion leg is cut may land its payload remotely and
    /// still error locally. Schedule both directions for a full cut.
    Partition {
        /// Machine whose outbound traffic is dropped.
        from: usize,
        /// Destination it can no longer reach.
        to: usize,
    },
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulated instant the fault strikes.
    pub at: SimTime,
    /// How long it lasts (crash: downtime before restart; `QpError`:
    /// ignored — the transition is instantaneous).
    pub duration: SimSpan,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed identifying this plan (stamped into telemetry; also the
    /// stream [`FaultPlan::random`] draws from).
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan. Injecting it is a no-op by construction — no
    /// controller tasks beyond the schedule itself, no instruments, no
    /// RNG draws — so runs with and without it are byte-identical.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Schedules an arbitrary event.
    pub fn push(mut self, at: SimTime, duration: SimSpan, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, duration, kind });
        self
    }

    /// Schedules a loss burst on `machine`.
    pub fn loss_burst(self, at: SimTime, duration: SimSpan, machine: usize, loss: f64) -> Self {
        self.push(at, duration, FaultKind::LossBurst { machine, loss })
    }

    /// Schedules a fabric-wide link degradation.
    pub fn link_degrade(self, at: SimTime, duration: SimSpan, factor: f64) -> Self {
        self.push(at, duration, FaultKind::LinkDegrade { factor })
    }

    /// Schedules a straggler window on `machine`.
    pub fn straggler(self, at: SimTime, duration: SimSpan, machine: usize, factor: f64) -> Self {
        self.push(at, duration, FaultKind::Straggler { machine, factor })
    }

    /// Schedules a QP-error transition on `machine`.
    pub fn qp_error(self, at: SimTime, machine: usize) -> Self {
        self.push(at, SimSpan::ZERO, FaultKind::QpError { machine })
    }

    /// Schedules a crash of `machine` restarting after `downtime`.
    pub fn crash(self, at: SimTime, downtime: SimSpan, machine: usize, warm: bool) -> Self {
        self.push(at, downtime, FaultKind::Crash { machine, warm })
    }

    /// Schedules a torn-DMA window on `machine`.
    pub fn torn_dma(self, at: SimTime, duration: SimSpan, machine: usize, p: f64) -> Self {
        self.push(at, duration, FaultKind::TornDma { machine, p })
    }

    /// Schedules a memory bit-flip window on `machine`.
    pub fn bit_flip(self, at: SimTime, duration: SimSpan, machine: usize, p: f64) -> Self {
        self.push(at, duration, FaultKind::BitFlip { machine, p })
    }

    /// Schedules a fail-slow link window on `machine`.
    pub fn slow_link(self, at: SimTime, duration: SimSpan, machine: usize, lag_ns: u64) -> Self {
        self.push(at, duration, FaultKind::SlowLink { machine, lag_ns })
    }

    /// Schedules an asymmetric partition dropping `from → to` traffic
    /// for `duration` (call twice, swapped, for a symmetric cut).
    pub fn partition(self, at: SimTime, duration: SimSpan, from: usize, to: usize) -> Self {
        self.push(at, duration, FaultKind::Partition { from, to })
    }

    /// Draws a mixed plan of `events` faults over `(start, horizon)`
    /// against machines `0..machines`, deterministically from the seed.
    /// Crashes always target machine 0 (the conventional server).
    pub fn random(
        seed: u64,
        events: usize,
        start: SimTime,
        horizon: SimTime,
        machines: usize,
    ) -> Self {
        assert!(machines > 0, "plan needs at least one target machine");
        assert!(horizon > start, "horizon must follow start");
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xFA_0175));
        let window = horizon.since(start).as_nanos();
        let mut plan = FaultPlan::new(seed);
        for _ in 0..events {
            let at = start + SimSpan::nanos(rng.gen_range(0..window.max(1)));
            let duration = SimSpan::nanos(rng.gen_range((window / 20).max(1)..(window / 4).max(2)));
            let machine = rng.gen_range(0..machines);
            let kind = match rng.gen_range(0..5u32) {
                0 => FaultKind::LossBurst {
                    machine,
                    loss: rng.gen_range(0.05..0.5),
                },
                1 => FaultKind::LinkDegrade {
                    factor: rng.gen_range(2.0..10.0),
                },
                2 => FaultKind::Straggler {
                    machine,
                    factor: rng.gen_range(2.0..6.0),
                },
                3 => FaultKind::QpError { machine },
                _ => FaultKind::Crash {
                    machine: 0,
                    warm: rng.gen::<bool>(),
                },
            };
            plan.events.push(FaultEvent { at, duration, kind });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_events_in_order() {
        let plan = FaultPlan::new(7)
            .loss_burst(SimTime::from_nanos(10), SimSpan::micros(1), 1, 0.2)
            .qp_error(SimTime::from_nanos(20), 0)
            .crash(SimTime::from_nanos(30), SimSpan::micros(5), 0, true)
            .torn_dma(SimTime::from_nanos(40), SimSpan::micros(2), 0, 0.3)
            .bit_flip(SimTime::from_nanos(50), SimSpan::micros(2), 0, 0.1)
            .partition(SimTime::from_nanos(60), SimSpan::micros(3), 1, 0)
            .slow_link(SimTime::from_nanos(70), SimSpan::micros(4), 0, 25_000)
            .link_degrade(SimTime::from_nanos(80), SimSpan::micros(4), 3.0)
            .straggler(SimTime::from_nanos(90), SimSpan::micros(4), 0, 20.0);
        assert_eq!(plan.len(), 9);
        assert_eq!(plan.events()[1].duration, SimSpan::ZERO);
        assert!(matches!(
            plan.events()[2].kind,
            FaultKind::Crash { warm: true, .. }
        ));
        assert!(matches!(
            plan.events()[3].kind,
            FaultKind::TornDma { machine: 0, .. }
        ));
        assert!(matches!(
            plan.events()[4].kind,
            FaultKind::BitFlip { machine: 0, .. }
        ));
        assert!(matches!(
            plan.events()[5].kind,
            FaultKind::Partition { from: 1, to: 0 }
        ));
        assert!(matches!(
            plan.events()[6].kind,
            FaultKind::SlowLink {
                machine: 0,
                lag_ns: 25_000
            }
        ));
        assert!(matches!(
            plan.events()[7].kind,
            FaultKind::LinkDegrade { .. }
        ));
        assert!(matches!(
            plan.events()[8].kind,
            FaultKind::Straggler { machine: 0, .. }
        ));
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(
            9,
            6,
            SimTime::from_nanos(1_000),
            SimTime::from_nanos(2_000_000),
            3,
        );
        let b = FaultPlan::random(
            9,
            6,
            SimTime::from_nanos(1_000),
            SimTime::from_nanos(2_000_000),
            3,
        );
        assert_eq!(a, b);
        let c = FaultPlan::random(
            10,
            6,
            SimTime::from_nanos(1_000),
            SimTime::from_nanos(2_000_000),
            3,
        );
        assert_ne!(a, c);
    }
}
