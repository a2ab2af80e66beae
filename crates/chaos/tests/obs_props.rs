//! Flight-recorder coverage of injected faults (ISSUE satellite).
//!
//! Properties:
//!
//! * every fault window that fires inside the run anchors at least one
//!   matching `chaos.*` root event in the flight recorder, and crash
//!   windows additionally provoke `recovery.*` reaction chains;
//! * a fault-free run leaves the flight ring empty and the anomaly
//!   scanner silent — zero false positives, the doctor's baseline;
//! * the recorder dump and the anomaly list are bit-for-bit
//!   reproducible run to run at a fixed seed.

use proptest::prelude::*;

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_simnet::{scan, Severity, SimSpan, SimTime, Simulation};

const FAULT_AT: SimTime = SimTime::from_nanos(150_000);
const FAULT_SPAN: SimSpan = SimSpan::micros(100);
const WINDOW: SimSpan = SimSpan::micros(600);

/// Small rig, fast runs.
fn small_cfg(seed: u64) -> ChaosConfig {
    ChaosConfig {
        clients: 2,
        server_threads: 1,
        keys_per_client: 4,
        seed,
        ..ChaosConfig::default()
    }
}

/// Runs the rig under `plan` and returns `(recorder dump, anomaly list)`.
fn run_observed(seed: u64, plan: Option<&FaultPlan>) -> (Vec<u8>, String, rfp_chaos::ChaosKv) {
    let mut sim = Simulation::new(seed);
    let rig = spawn_chaos_kv(&mut sim, &small_cfg(seed), plan);
    sim.run_for(WINDOW);
    let mut dump = Vec::new();
    rig.recorder.dump(&mut dump).expect("dump recorder to vec");
    let anomalies = format!("{:?}", scan(&rig.health.report(sim.handle().now())));
    (dump, anomalies, rig)
}

/// One representative plan per fault class, all firing mid-window.
fn plan_for(class: usize, seed: u64) -> (FaultPlan, &'static str) {
    let plan = FaultPlan::new(seed);
    match class {
        0 => (
            plan.loss_burst(FAULT_AT, FAULT_SPAN, 0, 0.4),
            "chaos.loss_burst",
        ),
        1 => (
            plan.straggler(FAULT_AT, FAULT_SPAN, 0, 4.0),
            "chaos.straggler",
        ),
        2 => (
            plan.link_degrade(FAULT_AT, FAULT_SPAN, 4.0),
            "chaos.link_degrade",
        ),
        3 => (plan.qp_error(FAULT_AT, 0), "chaos.qp_error"),
        _ => (
            plan.crash(FAULT_AT, SimSpan::micros(150), 0, true),
            "chaos.crash",
        ),
    }
}

proptest! {
    /// Every fired fault window anchors a matching root event, and the
    /// root lands inside (at the opening edge of) the fault window.
    #[test]
    fn fired_fault_windows_anchor_cause_chains(
        seed in 0u64..200,
        class in 0usize..5,
    ) {
        let (plan, kind) = plan_for(class, seed);
        let (_, _, rig) = run_observed(seed, Some(&plan));
        prop_assert!(
            rig.recorder.kind_count(kind) >= 1,
            "no {} root event: {:?}",
            kind,
            rig.recorder.kind_counts()
        );
        let roots: Vec<_> = rig
            .recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect();
        for root in &roots {
            prop_assert_eq!(root.at, FAULT_AT, "root not at the fault instant");
        }
        // A crash is the one class whose client-side reaction is
        // guaranteed inside the window: the recovery machinery must
        // have appended reaction events after the root.
        if kind == "chaos.crash" {
            let reacted = rig
                .recorder
                .kind_counts()
                .iter()
                .any(|(k, _)| k.starts_with("recovery."));
            prop_assert!(
                reacted,
                "crash provoked no recovery.* reaction: {:?}",
                rig.recorder.kind_counts()
            );
        }
    }

    /// Fault-free runs are anomaly-free and leave the flight ring
    /// empty: the doctor's zero-false-positive baseline.
    #[test]
    fn fault_free_run_is_silent(seed in 0u64..200) {
        let (_, anomalies, rig) = run_observed(seed, None);
        prop_assert_eq!(anomalies, "[]");
        let noisy: Vec<_> = rig
            .recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.severity >= Severity::Warn)
            .collect();
        prop_assert!(noisy.is_empty(), "clean run raised {noisy:?}");
        prop_assert_eq!(rig.recorder.len(), 0, "clean run filled the flight ring");
    }

    /// Same seed, same plan ⇒ bit-identical recorder dump and anomaly
    /// list (the doctor's determinism contract).
    #[test]
    fn recorder_and_anomalies_are_deterministic(
        seed in 0u64..100,
        class in 0usize..5,
    ) {
        let (plan, _) = plan_for(class, seed);
        let a = run_observed(seed, Some(&plan));
        let b = run_observed(seed, Some(&plan));
        prop_assert_eq!(a.0, b.0, "recorder dump diverged");
        prop_assert_eq!(a.1, b.1, "anomaly list diverged");
    }
}
