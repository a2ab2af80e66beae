//! Failover rig end-to-end: crash and partition scenarios preserve the
//! replication invariants and leave linearizable histories.

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, ChaosKv, FaultPlan};
use rfp_simnet::{SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

const FAULT_AT: SimTime = SimTime::from_nanos(40_000);
const DETECT: SimSpan = SimSpan::micros(60);

fn cfg(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        ..ChaosConfig::failover()
    }
}

/// The failover rig under `plan`, with the backup promoted at
/// `promote_at`.
fn spawn(
    sim: &mut Simulation,
    cfg: &ChaosConfig,
    plan: Option<&FaultPlan>,
    promote_at: Option<SimTime>,
) -> ChaosKv {
    let rig = spawn_chaos_kv(sim, cfg, plan);
    if let Some(at) = promote_at {
        rig.promote_backup_at(at);
    }
    rig
}

#[test]
fn healthy_run_finishes_with_clean_invariants() {
    let mut sim = Simulation::new(41);
    let rig = spawn(&mut sim, &cfg(41), None, None);
    sim.run_for(SimSpan::millis(30));
    let cfg = cfg(41);
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.failed_calls.get(), 0);
    assert_eq!(rig.state.lost_acked.get(), 0);
    assert_eq!(rig.state.stale_reads.get(), 0);
    assert_eq!(rig.total_failovers(), 0);
    // Sync replication: everything acked is already on the backup.
    assert_eq!(
        rig.primary_role.shipped_entries.get(),
        rig.backup_role.applied.get()
    );
    assert!(rig.state.max_ops_per_key() <= 128, "history over capacity");
    check_history(&rig.state.history()).expect("healthy history must linearize");
}

#[test]
fn primary_crash_fails_over_without_losing_acked_writes() {
    let mut sim = Simulation::new(42);
    // Crash the primary permanently (downtime past the run window).
    let plan = FaultPlan::new(42).crash(FAULT_AT, SimSpan::millis(100), 0, true);
    let rig = spawn(&mut sim, &cfg(42), Some(&plan), Some(FAULT_AT + DETECT));
    sim.run_for(SimSpan::millis(40));
    let cfg = cfg(42);
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.lost_acked.get(), 0, "acked write lost");
    assert_eq!(rig.state.stale_reads.get(), 0, "stale read after failover");
    assert!(rig.total_failovers() >= 1, "nobody failed over");
    assert!(rig.state.promoted_at.get().is_some());
    let t = rig.max_recovery_time().expect("failover was timed");
    assert!(t <= SimSpan::millis(5), "failover took {t:?}, budget 5ms");
    check_history(&rig.state.history()).expect("crash history must linearize");
}

#[test]
fn partition_without_promotion_costs_availability_not_consistency() {
    let mut sim = Simulation::new(43);
    // Cut both directions between client machine 2 and the primary for
    // a while; the backup stays standby (the primary is not dead).
    let span = SimSpan::micros(400);
    let plan = FaultPlan::new(43)
        .partition(FAULT_AT, span, 2, 0)
        .partition(FAULT_AT, span, 0, 2);
    let rig = spawn(&mut sim, &cfg(43), Some(&plan), None);
    sim.run_for(SimSpan::millis(40));
    let cfg = cfg(43);
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.lost_acked.get(), 0, "acked write lost");
    assert_eq!(
        rig.state.stale_reads.get(),
        0,
        "stale read during partition"
    );
    // Consistency holds even though calls may have failed and the
    // router may have probed the (unpromoted) backup.
    check_history(&rig.state.history()).expect("partition history must linearize");
}

#[test]
fn crash_runs_are_deterministic_per_seed() {
    let run = || {
        let mut sim = Simulation::new(44);
        let plan = FaultPlan::new(44).crash(FAULT_AT, SimSpan::millis(100), 0, true);
        let rig = spawn(&mut sim, &cfg(44), Some(&plan), Some(FAULT_AT + DETECT));
        sim.run_for(SimSpan::millis(40));
        (
            rig.state.completed.get(),
            rig.state.acked_puts.get(),
            rig.state.failed_calls.get(),
            rig.total_failovers(),
            rig.state.history().len(),
        )
    };
    assert_eq!(run(), run());
}

/// The features the replicated rig can carry, all on in one run: sync
/// replication, fetch integrity (the rig's answer to a plan that
/// schedules corruption), gray routing of own-key reads —
/// under bit flips and torn DMA on both replicas for the whole run, plus
/// a permanent primary crash with scheduled promotion.
#[test]
fn integrity_routing_and_promotion_compose_under_corruption_and_crash() {
    use rfp_core::{FailoverConfig, GrayConfig, Mode};

    let seed = 45;
    let cfg = ChaosConfig {
        keys_per_client: 8,
        ops_per_client: 200,
        failover: FailoverConfig {
            gray: Some(GrayConfig::default()),
            ..ChaosConfig::failover().failover
        },
        seed,
        ..ChaosConfig::failover()
    };
    // Corruption from the start; the crash lands mid-workload, so routed
    // reads run against both the live pair and the promoted survivor.
    let (from, span) = (SimTime::from_nanos(5_000), SimSpan::millis(100));
    let crash_at = SimTime::from_nanos(400_000);
    let mut plan = FaultPlan::new(seed).crash(crash_at, span, 0, true);
    for replica in 0..2 {
        plan = plan
            .torn_dma(from, span, replica, 0.1)
            .bit_flip(from, span, replica, 0.1);
    }
    let mut sim = Simulation::new(seed);
    let rig = spawn(&mut sim, &cfg, Some(&plan), Some(crash_at + DETECT));
    sim.run_for(SimSpan::millis(40));

    let st = &rig.state;
    assert_eq!(
        st.done_clients.get(),
        cfg.clients,
        "a client never finished"
    );
    assert!(st.promoted_at.get().is_some() && rig.total_failovers() >= 1);
    assert!(
        rig.routers
            .iter()
            .all(|r| r.scorer().baseline_p99(0).is_some()),
        "a router never scored the primary: its reads were not routed"
    );
    assert_eq!(st.lost_acked.get(), 0, "acked write lost");
    assert_eq!(st.stale_reads.get(), 0, "a read ran backwards");
    // No corrupt payload surfaced: a damaged value would have failed to
    // parse (the client loop panics), tripped a counter above, or broken
    // the history below — while corrupt fetches demonstrably happened.
    let names = rig.registry.names();
    for fired in [
        "fault.torn_dma",
        "fault.bit_flips",
        "fetch.integrity_retries",
    ] {
        assert!(names.iter().any(|n| n == fired), "{fired} never fired");
    }
    // Retries and failover never double-applied: the primary
    // executed at most once per issued PUT (it stays down, so there is
    // no restart to re-execute across).
    let applied = rig.primary_role.applied_mutations.get();
    assert!(
        applied <= st.issued_puts.get(),
        "{applied} applied, {} issued",
        st.issued_puts.get()
    );
    assert!(st.max_ops_per_key() <= 128, "history over capacity");
    check_history(&st.history()).expect("composed history must linearize");
    // Serving stayed in-bound-only: no client ever left remote fetch,
    // and the backup's NIC — standby reads, log applies, then every
    // client after promotion — never issued an out-bound op. (The
    // primary's out-bound ops are its own log shipments: on that link it
    // is the RFP *client*.)
    for router in &rig.routers {
        assert_eq!(router.client().mode(), Mode::RemoteFetch);
    }
    assert_eq!(rig.cluster.machine(1).nic().counters().outbound_ops, 0);
}
