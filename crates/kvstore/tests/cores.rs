//! The multi-core rig with work stealing on: a Zipf(0.99) hot core's
//! backlog is spread over its siblings, and uniform load is left as it
//! was.

use rfp_kvstore::{spawn_cores_kv, CoresConfig, CoresKv};
use rfp_simnet::{SimSpan, Simulation};

/// Calls the uniform 4-core run completes at seed 42 when a sweep looks
/// at all rings but one only from their heads. The pin was 13 727 —
/// the count with the fixed 8-request steal batch — while every sweep
/// scanned every ring in full.
const UNIFORM_CALLS: u64 = 13_958;

fn run(skew: Option<f64>) -> CoresKv {
    let cfg = CoresConfig {
        skew,
        ..CoresConfig::default()
    };
    assert!(cfg.steal && cfg.cores == 4);
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_cores_kv(&mut sim, &cfg);
    sim.run_for(SimSpan::millis(1));
    sys.reset_measurements();
    sim.run_for(SimSpan::millis(4));
    sys
}

#[test]
fn stealing_levels_a_zipf_hot_core() {
    let served = run(Some(0.99)).served_per_core();
    let total: u64 = served.iter().sum();
    let hot = *served.iter().max().expect("four cores");
    assert!(
        hot * 100 <= total * 40,
        "hot core served {hot} of {total} requests (> 40 %): {served:?}"
    );
}

#[test]
fn stealing_leaves_uniform_throughput_in_place() {
    let done = run(None).stats.completed.get();
    let pinned = UNIFORM_CALLS as f64;
    assert!(
        (done as f64 - pinned).abs() <= 0.02 * pinned,
        "uniform 4-core run completed {done} calls, more than 2 % off {UNIFORM_CALLS}"
    );
}
