//! Doctor: fleet diagnosis on the chaos rig.
//!
//! Runs one scenario per injected fault class (plus a clean baseline)
//! through the always-on observability plane — flight recorder, rolling
//! health windows, anomaly detectors — and asserts the detection
//! matrix: every fault class surfaces as exactly its signature anomaly
//! (plus a small allowed set of incidental ones), and the clean
//! baseline raises nothing at all. Each signature anomaly's
//! dump-on-anomaly bundle must contain the originating `chaos.*` cause
//! chain, and every chaos-rig row must pass the rig's judge
//! (`ChaosKv::violations`): diagnosis never excuses a lost acked write
//! or a stale read. Fully deterministic per seed: running twice with
//! the same seed prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin doctor [seed]
//! ```

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::OverloadConfig;
use rfp_kvstore::{spawn_cores_kv, CoresConfig};
use rfp_simnet::{scan, scan_cores, AnomalyKind, DumpBundle, SimSpan, SimTime, Simulation};

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(2_000_000);
/// …and last this long.
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
/// Server downtime of the crash scenario.
const DOWNTIME: SimSpan = SimSpan::micros(300);

/// One chaos-rig row of the detection matrix.
struct Scenario {
    name: &'static str,
    cfg: ChaosConfig,
    plan: Option<FaultPlan>,
    /// When the failure detector promotes the backup (failover rig).
    promote_at: Option<SimTime>,
    /// The anomaly class this fault must surface as, and the
    /// flight-recorder kinds its dump bundle must chain back to, the
    /// injected root first.
    signature: Option<(AnomalyKind, &'static [&'static str])>,
    /// Incidental classes the fault may legitimately also raise.
    allowed: &'static [AnomalyKind],
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    use AnomalyKind::*;
    let chaos = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    let sc = |name, plan, signature, allowed| Scenario {
        name,
        cfg: chaos.clone(),
        plan,
        promote_at: None,
        signature,
        allowed,
    };
    vec![
        sc("clean", None, None, &[]),
        // A straggling server core leaves deposited requests sitting
        // unserved: the client's fetch polls come back empty over and
        // over — the retry spike is the *distinctive* symptom (latency
        // rises too, but that is the shared symptom of every slowdown).
        sc(
            "straggler",
            Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 16.0)),
            Some((RetrySpike, &["chaos.straggler"])),
            // A straggler is degraded-but-alive, so the rootless
            // regression it causes legitimately co-fires as gray.
            &[LatencyRegression, GrayFailure],
        ),
        // A loss burst on RC never surfaces as errors or retries — the
        // transport retransmits under the covers — so the only client-
        // visible symptom is the latency regression those geometric
        // retransmit rounds produce.
        sc(
            "loss_burst",
            Some(FaultPlan::new(seed).loss_burst(FAULT_AT, FAULT_SPAN, 0, 0.7)),
            Some((LatencyRegression, &["chaos.loss_burst"])),
            // RC retransmission leaves no hard-failure root, so the
            // regression also carries the gray-failure signature.
            &[RetrySpike, GrayFailure],
        ),
        // A fail-slow link: the wire itself lags while the RC transport
        // stays error-free — gray again, rooted at `chaos.slow_link`.
        sc(
            "gray_slow_link",
            Some(FaultPlan::new(seed).slow_link(FAULT_AT, FAULT_SPAN, 0, 20_000)),
            Some((GrayFailure, &["chaos.slow_link"])),
            &[LatencyRegression, RetrySpike],
        ),
        sc(
            "bit_flip",
            Some(FaultPlan::new(seed).bit_flip(FAULT_AT, FAULT_SPAN, 0, 0.05)),
            Some((CorruptionBurst, &["chaos.bit_flip"])),
            &[LatencyRegression, RetrySpike],
        ),
        Scenario {
            // Credit-based admission + deadline shedding.
            cfg: ChaosConfig {
                overload: Some(OverloadConfig {
                    deadline: SimSpan::micros(25),
                    ..OverloadConfig::default()
                }),
                ..chaos.clone()
            },
            ..sc(
                "overload",
                Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 64.0)),
                Some((OverloadShedding, &["chaos.straggler"])),
                &[LatencyRegression, RetrySpike, CreditStarvation],
            )
        },
        sc(
            "warm_crash",
            Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, true)),
            Some((ConnectionDrop, &["chaos.crash"])),
            &[LatencyRegression, RetrySpike],
        ),
        // The replicated primary/backup rig: a clean run (zero false
        // positives — nothing may look like a failover when nobody
        // failed over) and a primary crash whose signature anomaly is
        // `failover`, with a dump bundle that chains the clients'
        // `recovery.failover` reaction back to the `chaos.crash` root.
        Scenario {
            cfg: failover_cfg(seed),
            ..sc("failover_clean", None, None, &[])
        },
        Scenario {
            cfg: failover_cfg(seed),
            promote_at: Some(FAULT_AT + SimSpan::micros(60)),
            ..sc(
                "failover",
                Some(FaultPlan::new(seed).crash(FAULT_AT, SimSpan::millis(100), 0, true)),
                Some((Failover, &["chaos.crash", "recovery.failover"])),
                &[ConnectionDrop, LatencyRegression, RetrySpike],
            )
        },
    ]
}

/// The failover rig, with an unbounded budget so the clients stay
/// mid-workload through warm-up, fault window, and tail.
fn failover_cfg(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        ops_per_client: usize::MAX,
        ..ChaosConfig::failover()
    }
}

/// One CSV row of the matrix.
#[derive(Default)]
struct Row {
    name: &'static str,
    completed: u64,
    /// The first connection's health window at the scan: calls, p99
    /// and retry rate (zero on the reactor rig).
    calls_win: u64,
    p99_us: u64,
    retry_rate: f64,
    expected: &'static str,
    /// The kind of every raised anomaly.
    raised: Vec<AnomalyKind>,
    bundle_bytes: usize,
}

/// The distinct kinds of `raised`, sorted.
fn detected(raised: &[AnomalyKind]) -> Vec<AnomalyKind> {
    let mut kinds = raised.to_vec();
    kinds.sort();
    kinds.dedup();
    kinds
}

/// Runs one chaos-rig scenario through warm-up → baseline → fault
/// window → scan, checks its detection matrix row and dump bundle,
/// runs out the tail and calls the rig's judge.
fn diagnose(seed: u64, scenario: &Scenario) -> Row {
    let name = scenario.name;
    let mut sim = Simulation::new(seed);
    let rig = spawn_chaos_kv(&mut sim, &scenario.cfg, scenario.plan.as_ref());
    if let Some(at) = scenario.promote_at {
        rig.promote_backup_at(at);
    }

    // Phase 1 — warm-up: the fault's onset captures each connection's
    // baseline.
    rig.capture_baselines_at(FAULT_AT);
    sim.run_for(FAULT_AT.since(SimTime::ZERO));

    // Phase 2 — the fault window; scan while its effects are still
    // inside the rolling health window.
    sim.run_for(FAULT_SPAN);
    let scan_now = sim.handle().now();
    let report = rig.health.report(scan_now);
    let anomalies = scan(&report);
    let raised: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
    let detected = detected(&raised);

    let mut bundle_bytes = 0usize;
    match scenario.signature {
        None => assert!(
            anomalies.is_empty(),
            "{name}: clean run raised anomalies: {anomalies:?}"
        ),
        Some((expected, chain)) => {
            assert!(
                detected.contains(&expected),
                "{name}: expected {} anomaly, detected {detected:?} (report: {:?})",
                expected.as_str(),
                report.conns
            );
            for kind in &detected {
                assert!(
                    *kind == expected || scenario.allowed.contains(kind),
                    "{name}: unexpected {} anomaly (allowed: {:?})",
                    kind.as_str(),
                    scenario.allowed
                );
            }
            // The injected fault's root event must be in the ring.
            assert!(
                rig.recorder.kind_count(chain[0]) >= 1,
                "{name}: no {} root event: {:?}",
                chain[0],
                rig.recorder.kind_counts()
            );
            // Dump-on-anomaly: the bundle of the first signature
            // anomaly must carry the originating cause chain.
            let anomaly = anomalies
                .iter()
                .find(|a| a.kind == expected)
                .expect("signature anomaly present (asserted above)");
            let snap = rig.registry.snapshot();
            let bundle = DumpBundle {
                anomaly,
                recorder: &rig.recorder,
                metrics: &snap,
                spans: &rig.spans,
                window: (FAULT_AT, scan_now),
            };
            let mut dump = Vec::new();
            bundle.write(&mut dump).expect("write bundle to vec");
            let text = String::from_utf8(dump).expect("bundle is utf8");
            for needle in chain {
                assert!(
                    text.contains(needle),
                    "{name}: dump bundle lost the {needle} cause chain"
                );
            }
            bundle_bytes = text.len();
        }
    }

    // Phase 3 — run out the tail so `completed` reflects a healed
    // rig (the fault window is over; the fleet must keep serving), and
    // hold the run to the invariants its rig promises.
    sim.run_for(SimSpan::millis(3));
    let violations = rig.violations();
    assert!(violations.is_empty(), "{name}: {violations:?}");

    let win = report.conns.first();
    Row {
        name,
        completed: rig.state.completed.get(),
        calls_win: win.map(|c| c.calls).unwrap_or(0),
        p99_us: win.map(|c| c.p99_ns / 1_000).unwrap_or(0),
        retry_rate: win.map(|c| c.retry_rate).unwrap_or(0.0),
        expected: scenario.signature.map_or("none", |(k, _)| k.as_str()),
        raised,
        bundle_bytes,
    }
}

/// Runs one multi-core reactor row: four cores, `skew` on partition 0,
/// stealing on or off. A balanced reactor must raise nothing; unlevelled
/// EREW skew must surface as exactly `core_imbalance`.
fn balance(seed: u64, &(name, skew, steal): &(&'static str, Option<f64>, bool)) -> Row {
    let mut sim = Simulation::new(seed);
    let cfg = CoresConfig {
        cores: 4,
        steal,
        skew,
        seed,
        ..CoresConfig::default()
    };
    let sys = spawn_cores_kv(&mut sim, &cfg);
    sim.run_for(SimSpan::millis(1));
    sys.reset_measurements();
    sim.run_for(SimSpan::millis(2));

    let report = sys.skew_report(sim.now());
    let anomalies = scan_cores(&report);
    let raised: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
    if steal {
        assert!(
            anomalies.is_empty(),
            "balanced reactor raised anomalies: {anomalies:?}"
        );
    } else {
        assert_eq!(
            detected(&raised),
            vec![AnomalyKind::CoreImbalance],
            "hot-partition EREW run must surface as exactly core_imbalance \
             (skew report: {:?})",
            report.cores
        );
    }
    Row {
        name,
        completed: sys.stats.completed.get(),
        expected: if steal { "none" } else { "core_imbalance" },
        raised,
        ..Row::default()
    }
}

fn main() {
    let seed = seed_arg();
    let mut rows = cells(&scenarios(seed), |s| diagnose(seed, s));
    // `cores_clean`: a uniform keyspace with stealing on.
    // `cores_hot`: Zipf(0.99) concentrated on partition 0 with stealing
    // disabled — EREW skew nobody levels.
    rows.extend(cells(
        &[
            ("cores_clean", None, true),
            ("cores_hot", Some(0.99), false),
        ],
        |spec| balance(seed, spec),
    ));

    println!("# doctor: fault-class detection matrix on the chaos rig");
    println!(
        "# seed={seed} fault_at=2ms fault_span={}ms",
        FAULT_SPAN.as_nanos() / 1_000_000
    );
    println!("scenario,completed,calls_win,p99_us,retry_rate,expected,detected,bundle_bytes");
    for row in &rows {
        let detected = detected(&row.raised);
        let detected: Vec<&str> = detected.iter().map(|k| k.as_str()).collect();
        println!(
            "{},{},{},{},{:.3},{},{},{}",
            row.name,
            row.completed,
            row.calls_win,
            row.p99_us,
            row.retry_rate,
            row.expected,
            if detected.is_empty() {
                "none".to_string()
            } else {
                detected.join("+")
            },
            row.bundle_bytes,
        );
    }

    // Per row, a counter for every anomaly kind, zero or not (a stable
    // export shape), and the calls it completed.
    let exports = rows.iter().flat_map(|row| {
        let counts = AnomalyKind::all().into_iter().map(|kind| {
            let count = row.raised.iter().filter(|&&k| k == kind).count() as u64;
            (kind.as_str(), count)
        });
        counts
            .chain([("completed", row.completed)])
            .map(|(metric, value)| (format!("bench.doctor.{}.{metric}", row.name), value))
    });
    let path = emit_bench_json("doctor", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
