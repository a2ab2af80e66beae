//! The multi-core rig with work stealing on: a Zipf(0.99) hot core's
//! backlog is spread over its siblings, and uniform load is left as it
//! was.

use rfp_kvstore::{spawn_cores_kv, CoresConfig, CoresKv};
use rfp_simnet::{SimSpan, Simulation};

/// Calls the uniform 4-core run completes at seed 42 when a sweep looks
/// at all rings but one only from their heads and clients overlap their
/// rounds. The pin was 13 958 with lock-step client rounds, and 13 727
/// — the count with the fixed 8-request steal batch — while every sweep
/// scanned every ring in full.
const UNIFORM_CALLS: u64 = 14_208;

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

/// Clients stage ring slots strictly in order, so no request lands
/// behind a ring's head and waits out a full-scan rotation: the Zipf
/// tail stays within 2× its p99 (1.26×; 8.8× when clients skipped
/// held slots while rounds overlapped).
#[test]
fn zipf_tail_stays_near_its_p99() {
    let latency = &run(Some(0.99)).stats.latency;
    let ns = |p| latency.percentile(p).expect("calls completed").as_nanos();
    let (p99, p999) = (ns(99.0), ns(99.9));
    assert!(
        p999 <= 2 * p99,
        "4-core Zipf p999 {p999} ns is more than 2x its p99 {p99} ns"
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

/// Each per-core number is booked once: the registry's
/// `serve.core.<i>.*` cells are the reactor's own, so they read the same
/// values after the warm-up reset, and every handoff is one steal.
#[test]
fn per_core_numbers_are_booked_once() {
    let sys = run(Some(0.99));
    let reactor = &sys.reactor;
    let counter = |i: usize, name: &str| {
        sys.registry
            .counter(&format!("serve.core.{i}.{name}"))
            .get()
    };
    let mut steals = 0;
    for i in 0..reactor.cores() {
        assert_eq!(counter(i, "served"), reactor.served(i));
        assert_eq!(counter(i, "steals"), reactor.steals(i));
        assert_eq!(counter(i, "handoff_ns"), reactor.steals(i) * 150);
        steals += reactor.steals(i);
    }
    assert!(steals > 0, "the Zipf run must steal");
    assert_eq!(reactor.handoffs(), steals);
    assert_eq!(reactor.handoff_ns(), steals * 150);
}
