//! Crash/restart invariants under multi-core serving with stealing.
//!
//! The single-server restart tests (`restart.rs`) prove the recovery
//! invariants with independent serve loops. This file re-proves them in
//! the configuration the reactor refactor added: four cores sharing one
//! [`Reactor`](rfp_core::Reactor) with work stealing on, so requests
//! migrate between cores while the fault plan crashes the machine out
//! from under all of them at once. The invariants must not care which
//! core happened to be holding a request when the crash landed:
//!
//! * warm restart: no acknowledged PUT may be lost, reads stay
//!   linearizable (never an older version than the last acked PUT);
//! * the rig must make progress again after the restart on every core.

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_simnet::{SimSpan, SimTime, Simulation};

fn cores_cfg() -> ChaosConfig {
    ChaosConfig {
        server_threads: 4,
        reactor_steal: true,
        clients: 6,
        keys_per_client: 16,
        ..ChaosConfig::default()
    }
}

#[test]
fn warm_restart_under_stealing_loses_no_acked_put() {
    let mut sim = Simulation::new(23);
    let cfg = cores_cfg();
    let plan = FaultPlan::new(23).crash(
        SimTime::from_nanos(2_000_000),
        SimSpan::micros(300),
        0,
        true,
    );
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));

    sim.run_for(SimSpan::millis(2));
    let before = rig.state.completed.get();
    assert!(
        rig.state.acked_puts.get() > 0,
        "rig must ack PUTs before the crash"
    );
    sim.run_for(SimSpan::millis(6));

    assert_eq!(rig.state.restarts.get(), 1, "exactly one restart cycle");
    assert_eq!(
        rig.state.lost_acked.get(),
        0,
        "an acked PUT vanished across a warm restart under stealing"
    );
    assert_eq!(
        rig.state.stale_reads.get(),
        0,
        "a GET surfaced a version older than the last acked PUT"
    );
    assert!(
        rig.state.completed.get() > before,
        "clients must make progress after the restart"
    );
    // Every core resumed serving after the crash window.
    for core in 0..4 {
        assert!(
            rig.registry
                .counter(&format!("serve.core.{core}.served"))
                .get()
                > 0,
            "core {core} served nothing across the run"
        );
    }
    assert_eq!(
        rig.registry.snapshot().scalar("fault.crashes_warm"),
        Some(1.0)
    );
}

#[test]
fn stealing_rig_actually_steals_and_stays_linearizable() {
    // Fault-free control: same rig, no plan. Proves (a) the steal path
    // is genuinely exercised by this workload, so the crash test above
    // is covering crash-during-migration and not vacuously passing, and
    // (b) stealing alone never breaks the read-your-acked-writes
    // invariants.
    let mut sim = Simulation::new(23);
    let cfg = cores_cfg();
    let rig = spawn_chaos_kv(&mut sim, &cfg, None);
    sim.run_for(SimSpan::millis(8));

    let steals: u64 = (0..4)
        .map(|i| {
            rig.registry
                .counter(&format!("serve.core.{i}.steals"))
                .get()
        })
        .sum();
    assert!(
        steals > 0,
        "the cores chaos workload must exercise the steal path"
    );
    assert_eq!(rig.state.lost_acked.get(), 0);
    assert_eq!(rig.state.stale_reads.get(), 0);
    assert_eq!(rig.state.failed_calls.get(), 0);
    assert!(rig.state.acked_puts.get() > 0);
}
