//! Chaos-driven integrity property: under scheduled torn-DMA and
//! bit-flip fault windows, no `Ok` call ever surfaces a payload
//! differing from what the server wrote.
//!
//! The rig's ledgers make corruption observable without instrumentation
//! in the store itself: a corrupt GET value either fails to parse (the
//! client loop panics), parses to a version older than the acknowledged
//! one (`lost_acked`), or predates the epoch floor (`stale_reads`). A
//! corrupt PUT acknowledgement would desynchronise the ledger the same
//! way on the next GET.

use proptest::prelude::*;

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_simnet::{SimSpan, SimTime, Simulation};

fn integrity_rig_cfg(seed: u64) -> ChaosConfig {
    ChaosConfig {
        clients: 2,
        server_threads: 1,
        keys_per_client: 4,
        seed,
        ..ChaosConfig::default()
    }
}

proptest! {
    /// Random fault windows, random probabilities: the rig's judge
    /// finds nothing and the rig keeps making progress.
    #[test]
    fn no_ok_call_surfaces_corrupt_data(
        seed in 0u64..1_000,
        p_torn in 0.01f64..0.3,
        p_flip in 0.01f64..0.3,
        torn_at_us in 20u64..200,
        flip_at_us in 20u64..200,
        width_us in 50u64..400,
    ) {
        let mut sim = Simulation::new(seed);
        let cfg = integrity_rig_cfg(seed);
        let plan = FaultPlan::new(seed)
            .torn_dma(
                SimTime::from_nanos(torn_at_us * 1_000),
                SimSpan::micros(width_us),
                0,
                p_torn,
            )
            .bit_flip(
                SimTime::from_nanos(flip_at_us * 1_000),
                SimSpan::micros(width_us),
                0,
                p_flip,
            );
        let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));
        sim.run_for(SimSpan::micros(600));
        prop_assert!(rig.state.completed.get() > 0, "rig made no progress");
        let violations = rig.violations();
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }
}

/// Deterministic companion pinning that the chaos plumbing actually
/// reaches the fault knobs: a heavy window must manufacture corrupt
/// fetches (visible in the lazy `fetch.*` counters) while both
/// invariants still hold.
#[test]
fn heavy_windows_fire_and_are_absorbed() {
    let seed = 77;
    let mut sim = Simulation::new(seed);
    let cfg = integrity_rig_cfg(seed);
    let plan = FaultPlan::new(seed)
        .torn_dma(SimTime::from_nanos(50_000), SimSpan::millis(2), 0, 0.3)
        .bit_flip(SimTime::from_nanos(50_000), SimSpan::millis(2), 0, 0.3);
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));
    sim.run_for(SimSpan::millis(3));

    assert!(rig.state.completed.get() > 0);
    assert_eq!(rig.violations(), Vec::<String>::new());
    let names = rig.registry.names();
    assert!(
        names.iter().any(|n| n == "fault.torn_dma"),
        "torn-DMA window never fired"
    );
    assert!(
        names.iter().any(|n| n == "fault.bit_flips"),
        "bit-flip window never fired"
    );
    assert!(
        names.iter().any(|n| n == "fetch.integrity_retries")
            && rig.registry.counter("fetch.integrity_retries").get() > 0,
        "no corrupt fetch was ever discarded under 30% fault windows"
    );
}
