//! Property pins of the gray-failure subsystem.
//!
//! * **Routing is safe under every chaos fault family** — crash, loss
//!   burst, straggler, QP error, slow link (a flaky link is a loss
//!   burst, a slow server a straggler): with scored routing and the
//!   retry budget on, no retry or failover ever applies a write twice
//!   (the primary's apply ledger stays within the issued-PUT ceiling
//!   while the server process lives, and every acked PUT was applied),
//!   no acked write is lost, no read runs backwards, and the full
//!   history linearizes. A routed read's response crossing a seq or
//!   generation boundary would surface as exactly one of those
//!   violations: an abandoned attempt's late response fails the next
//!   call's seq acceptance, and an epoch-fenced response is never
//!   accepted at all.
//!
//! * **A demoted replica is restored** once its fault heals.

use proptest::prelude::*;

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::{FailoverConfig, GrayConfig};
use rfp_simnet::{SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

/// Faults strike early enough to overlap the short proptest workload
/// (~300 ops/client at a few µs per op).
const FAULT_AT: SimTime = SimTime::from_nanos(100_000);
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
const WINDOW: SimSpan = SimSpan::millis(4);

/// Every chaos fault family, aimed at `machine` (0 = primary,
/// 1 = backup — the routed-read target).
fn family_plan(family: usize, seed: u64, machine: usize) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match family {
        0 => p.crash(FAULT_AT, SimSpan::micros(200), machine, true),
        1 => p.loss_burst(FAULT_AT, FAULT_SPAN, machine, 0.5),
        2 => p.straggler(FAULT_AT, FAULT_SPAN, machine, 8.0),
        3 => p.qp_error(FAULT_AT, machine),
        4 => p.slow_link(FAULT_AT, FAULT_SPAN, machine, 20_000),
        _ => unreachable!(),
    }
}

fn small_cfg(seed: u64) -> ChaosConfig {
    ChaosConfig {
        clients: 2,
        keys_per_client: 4,
        ops_per_client: 300,
        failover: FailoverConfig {
            gray: Some(GrayConfig::default()),
            ..ChaosConfig::grayfail().failover
        },
        seed,
        ..ChaosConfig::grayfail()
    }
}

proptest! {
    /// Safety under every chaos fault family (256 cases spread the
    /// five families over both machines): the write path may fail
    /// calls (a crashed primary with no promotion refuses progress
    /// for its downtime) but can never corrupt the register semantics
    /// routed reads rely on.
    #[test]
    fn routing_is_safe_under_every_fault_family(
        seed in 0u64..10_000,
        family in 0usize..5,
        machine in 0usize..2,
    ) {
        let cfg = small_cfg(seed);
        let plan = family_plan(family, seed, machine);
        let mut sim = Simulation::new(seed);
        let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));
        sim.run_for(WINDOW);
        let st = &rig.state;
        prop_assert_eq!(
            st.lost_acked.get(), 0,
            "family {} machine {}: lost an acked write", family, machine
        );
        prop_assert_eq!(
            st.stale_reads.get(), 0,
            "family {} machine {}: a read ran backwards", family, machine
        );
        let applied = rig.primary_role.applied_mutations.get();
        // The strict apply ledger pins retry dedup: while the
        // server process lives, no issued PUT may execute twice. A
        // crash can legitimately re-execute the one request caught
        // between apply and respond (at-least-once across restart —
        // the response-buffer seq only dedups *answered* requests;
        // exactly-once across crash is the epoch-fenced failover
        // protocol's job). The linearizability check below still pins
        // crash-family safety: re-executing the same write is
        // value-idempotent.
        if family != 0 {
            prop_assert!(
                applied <= st.issued_puts.get(),
                "family {family}: duplicate-applied mutation ({applied} applied, {} issued)",
                st.issued_puts.get()
            );
        }
        prop_assert!(
            applied >= st.acked_puts.get(),
            "family {family}: acked more than applied"
        );
        prop_assert!(
            check_history(&st.history()).is_ok(),
            "family {family} machine {machine}: history failed linearizability"
        );
    }
}

/// A demoted replica recovers: when the fault window closes, recovery
/// probes observe the healed median and the router restores the
/// replica (the `routing.restore` chain fires, cause-linked like the
/// demotion).
#[test]
fn demoted_replica_is_restored_after_the_fault_heals() {
    let seed = 7;
    let cfg = ChaosConfig {
        clients: 2,
        // 2_000 ops over 32 keys stays under the linearizability
        // checker's 128-op-per-key search cap.
        keys_per_client: 32,
        ops_per_client: 2_000,
        failover: FailoverConfig {
            gray: Some(GrayConfig::default()),
            ..ChaosConfig::grayfail().failover
        },
        seed,
        ..ChaosConfig::grayfail()
    };
    // The fault heals at 3ms, well before the 2_000-op workload
    // drains, so plenty of post-heal traffic reaches the probes (one
    // routed read in 256); PUTs, which always go to the primary, keep
    // its health window populated meanwhile.
    let plan = FaultPlan::new(seed).slow_link(
        SimTime::from_nanos(1_000_000),
        SimSpan::millis(2),
        0,
        30_000,
    );
    let mut sim = Simulation::new(seed);
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));
    sim.run_for(SimSpan::millis(20));
    assert!(
        rig.registry.counter("routing.demote").get() >= 1,
        "the fault window must demote the primary"
    );
    assert!(
        rig.registry.counter("routing.restore").get() >= 1,
        "probes must restore the healed primary"
    );
    assert!(
        rig.routers.iter().all(|r| !r.is_demoted(0)),
        "primary still demoted long after the fault healed"
    );
    assert_eq!(rig.state.lost_acked.get(), 0);
    assert!(check_history(&rig.state.history()).is_ok());
}
