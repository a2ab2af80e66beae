//! Doctor: fleet diagnosis on the chaos rig.
//!
//! Runs one scenario per injected fault class (plus a clean baseline)
//! through the always-on observability plane — flight recorder, rolling
//! health windows, anomaly detectors — and asserts the detection
//! matrix: every fault class surfaces as exactly its signature anomaly
//! (plus a small allowed set of incidental ones), and the clean
//! baseline raises nothing at all. Each signature anomaly's
//! dump-on-anomaly bundle must contain the originating `chaos.*` cause
//! chain. Fully deterministic per seed: running twice with the same
//! seed prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin doctor [seed]
//! ```

use rfp_bench::{emit_bench_json, seed_arg};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::OverloadConfig;
use rfp_kvstore::{spawn_cores_kv, CoresConfig};
use rfp_simnet::{
    Anomaly, AnomalyDetector, AnomalyKind, DumpBundle, MetricsRegistry, SimSpan, SimTime,
    Simulation,
};

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(2_000_000);
/// …and last this long.
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
/// Server downtime of the crash scenario.
const DOWNTIME: SimSpan = SimSpan::micros(300);

/// One row of the detection matrix.
struct Scenario {
    name: &'static str,
    plan: Option<FaultPlan>,
    /// Arm credit-based admission + deadline shedding (overload row).
    overload: bool,
    /// The anomaly class this fault must surface as, and the root
    /// flight-recorder event its dump bundle must chain back to.
    signature: Option<(AnomalyKind, &'static str)>,
    /// Incidental classes the fault may legitimately also raise.
    allowed: &'static [AnomalyKind],
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    use AnomalyKind::*;
    vec![
        Scenario {
            name: "clean",
            plan: None,
            overload: false,
            signature: None,
            allowed: &[],
        },
        // A straggling server core leaves deposited requests sitting
        // unserved: the client's fetch polls come back empty over and
        // over — the retry spike is the *distinctive* symptom (latency
        // rises too, but that is the shared symptom of every slowdown).
        Scenario {
            name: "straggler",
            plan: Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 16.0)),
            overload: false,
            signature: Some((RetrySpike, "chaos.straggler")),
            // A straggler is degraded-but-alive, so the rootless
            // regression it causes legitimately co-fires as gray.
            allowed: &[LatencyRegression, GrayFailure],
        },
        // A loss burst on RC never surfaces as errors or retries — the
        // transport retransmits under the covers — so the only client-
        // visible symptom is the latency regression those geometric
        // retransmit rounds produce.
        Scenario {
            name: "loss_burst",
            plan: Some(FaultPlan::new(seed).loss_burst(FAULT_AT, FAULT_SPAN, 0, 0.7)),
            overload: false,
            signature: Some((LatencyRegression, "chaos.loss_burst")),
            // RC retransmission leaves no hard-failure root, so the
            // regression also carries the gray-failure signature.
            allowed: &[RetrySpike, GrayFailure],
        },
        // A fail-slow link: the wire itself lags while the RC transport
        // stays error-free — gray again, rooted at `chaos.slow_link`.
        Scenario {
            name: "gray_slow_link",
            plan: Some(FaultPlan::new(seed).slow_link(FAULT_AT, FAULT_SPAN, 0, 20_000)),
            overload: false,
            signature: Some((GrayFailure, "chaos.slow_link")),
            allowed: &[LatencyRegression, RetrySpike],
        },
        Scenario {
            name: "bit_flip",
            plan: Some(FaultPlan::new(seed).bit_flip(FAULT_AT, FAULT_SPAN, 0, 0.05)),
            overload: false,
            signature: Some((CorruptionBurst, "chaos.bit_flip")),
            allowed: &[LatencyRegression, RetrySpike],
        },
        Scenario {
            name: "overload",
            plan: Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 64.0)),
            overload: true,
            signature: Some((OverloadShedding, "chaos.straggler")),
            allowed: &[LatencyRegression, RetrySpike, CreditStarvation],
        },
        Scenario {
            name: "warm_crash",
            plan: Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, true)),
            overload: false,
            signature: Some((ConnectionDrop, "chaos.crash")),
            allowed: &[LatencyRegression, RetrySpike],
        },
    ]
}

/// Folds one matrix row into `bench`: a counter for every anomaly kind,
/// zero or not (a stable export shape), and the calls it completed.
fn export_row(bench: &MetricsRegistry, name: &str, anomalies: &[Anomaly], completed: u64) {
    for kind in AnomalyKind::all() {
        let count = anomalies.iter().filter(|a| a.kind == kind).count() as u64;
        bench
            .counter(&format!("bench.doctor.{name}.{}", kind.as_str()))
            .add(count);
    }
    bench
        .counter(&format!("bench.doctor.{name}.completed"))
        .add(completed);
}

fn main() {
    let seed = seed_arg();

    println!("# doctor: fault-class detection matrix on the chaos rig");
    println!(
        "# seed={seed} fault_at=2ms fault_span={}ms",
        FAULT_SPAN.as_nanos() / 1_000_000
    );
    println!("scenario,completed,calls_win,p99_us,retry_rate,expected,detected,bundle_bytes");

    let bench = MetricsRegistry::new();
    for scenario in scenarios(seed) {
        let mut sim = Simulation::new(seed);
        let mut cfg = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        if scenario.overload {
            cfg.overload = Some(OverloadConfig {
                deadline: SimSpan::micros(25),
                ..OverloadConfig::default()
            });
        }
        let rig = spawn_chaos_kv(&mut sim, &cfg, scenario.plan.as_ref());

        // Phase 1 — warm-up: establish each connection's baseline.
        sim.run_for(FAULT_AT.since(SimTime::ZERO));
        let detector = AnomalyDetector::new();
        detector.set_baseline(&rig.health.report(sim.handle().now()));

        // Phase 2 — the fault window; scan while its effects are still
        // inside the rolling health window.
        sim.run_for(FAULT_SPAN);
        let scan_now = sim.handle().now();
        let report = rig.health.report(scan_now);
        let anomalies = detector.scan(&report);

        // Detection matrix assertions.
        let mut detected: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
        detected.sort();
        detected.dedup();
        match scenario.signature {
            None => assert!(
                anomalies.is_empty(),
                "clean baseline raised anomalies: {anomalies:?}"
            ),
            Some((expected, root_kind)) => {
                assert!(
                    detected.contains(&expected),
                    "{}: expected {} anomaly, detected {:?} (report: {:?})",
                    scenario.name,
                    expected.as_str(),
                    detected,
                    report.conns
                );
                for kind in &detected {
                    assert!(
                        *kind == expected || scenario.allowed.contains(kind),
                        "{}: unexpected {} anomaly (allowed: {:?})",
                        scenario.name,
                        kind.as_str(),
                        scenario.allowed
                    );
                }
                // The injected fault's root event must be in the ring.
                assert!(
                    rig.recorder.kind_count(root_kind) >= 1,
                    "{}: no {} root event: {:?}",
                    scenario.name,
                    root_kind,
                    rig.recorder.kind_counts()
                );
            }
        }

        // Dump-on-anomaly: the bundle of the first signature anomaly
        // must carry the originating cause chain.
        let mut bundle_bytes = 0usize;
        if let Some((expected, root_kind)) = scenario.signature {
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
            assert!(
                text.contains(root_kind),
                "{}: dump bundle lost the {} cause chain",
                scenario.name,
                root_kind
            );
            bundle_bytes = text.len();
        }

        // Phase 3 — run out the tail so `completed` reflects a healed
        // rig (the fault window is over; the fleet must keep serving).
        sim.run_for(SimSpan::millis(3));

        let win = report.conns.first();
        println!(
            "{},{},{},{},{:.3},{},{},{}",
            scenario.name,
            rig.state.completed.get(),
            win.map(|c| c.calls).unwrap_or(0),
            win.map(|c| c.p99_ns / 1_000).unwrap_or(0),
            win.map(|c| c.retry_rate).unwrap_or(0.0),
            scenario
                .signature
                .map(|(k, _)| k.as_str())
                .unwrap_or("none"),
            if detected.is_empty() {
                "none".to_string()
            } else {
                detected
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            },
            bundle_bytes,
        );

        export_row(&bench, scenario.name, &anomalies, rig.state.completed.get());
    }

    // ---- failover rows: the replicated primary/backup rig ----
    //
    // Same phases as above, but on the failover rig: a clean run (zero
    // false positives — nothing may look like a failover when nobody
    // failed over) and a primary crash whose signature anomaly is
    // `failover`, with a dump bundle that chains the clients'
    // `recovery.failover` reaction back to the `chaos.crash` root.
    for (name, faulted) in [("failover_clean", false), ("failover", true)] {
        let mut sim = Simulation::new(seed);
        let cfg = ChaosConfig {
            seed,
            // Enough budget that the clients are still mid-workload
            // through warm-up, fault window, and tail.
            ops_per_client: 4_000,
            ..ChaosConfig::failover()
        };
        let plan =
            faulted.then(|| FaultPlan::new(seed).crash(FAULT_AT, SimSpan::millis(100), 0, true));
        let rig = spawn_chaos_kv(&mut sim, &cfg, plan.as_ref());
        if faulted {
            rig.promote_backup_at(FAULT_AT + SimSpan::micros(60));
        }

        sim.run_for(FAULT_AT.since(SimTime::ZERO));
        let detector = AnomalyDetector::new();
        detector.set_baseline(&rig.health.report(sim.handle().now()));
        sim.run_for(FAULT_SPAN);
        let scan_now = sim.handle().now();
        let report = rig.health.report(scan_now);
        let anomalies = detector.scan(&report);

        let mut detected: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
        detected.sort();
        detected.dedup();
        let mut bundle_bytes = 0usize;
        if faulted {
            use AnomalyKind::*;
            assert!(
                detected.contains(&Failover),
                "failover: expected failover anomaly, detected {detected:?} (report: {:?})",
                report.conns
            );
            for kind in &detected {
                assert!(
                    matches!(
                        kind,
                        Failover | ConnectionDrop | LatencyRegression | RetrySpike
                    ),
                    "failover: unexpected {} anomaly",
                    kind.as_str()
                );
            }
            assert!(
                rig.recorder.kind_count("chaos.crash") >= 1,
                "failover: no chaos.crash root event: {:?}",
                rig.recorder.kind_counts()
            );
            let anomaly = anomalies
                .iter()
                .find(|a| a.kind == Failover)
                .expect("failover anomaly present (asserted above)");
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
            for needle in ["chaos.crash", "recovery.failover"] {
                assert!(
                    text.contains(needle),
                    "failover: dump bundle lost the {needle} cause chain"
                );
            }
            bundle_bytes = text.len();
        } else {
            assert!(
                anomalies.is_empty(),
                "clean failover rig raised anomalies: {anomalies:?}"
            );
        }

        sim.run_for(SimSpan::millis(3));

        let win = report.conns.first();
        println!(
            "{},{},{},{},{:.3},{},{},{}",
            name,
            rig.state.completed.get(),
            win.map(|c| c.calls).unwrap_or(0),
            win.map(|c| c.p99_ns / 1_000).unwrap_or(0),
            win.map(|c| c.retry_rate).unwrap_or(0.0),
            if faulted { "failover" } else { "none" },
            if detected.is_empty() {
                "none".to_string()
            } else {
                detected
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            },
            bundle_bytes,
        );

        export_row(&bench, name, &anomalies, rig.state.completed.get());
    }

    // ---- core-balance rows: the multi-core serve reactor rig ----
    //
    // `cores_clean`: four reactor cores under a uniform keyspace with
    // stealing on — a balanced server must raise nothing (zero false
    // positives). `cores_hot`: the Zipf(0.99) keyspace concentrated on
    // partition 0 with stealing *disabled* — EREW skew nobody levels,
    // which must surface as exactly `core_imbalance`.
    for (name, skew, steal) in [
        ("cores_clean", None, true),
        ("cores_hot", Some(0.99), false),
    ] {
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
        let detector = AnomalyDetector::new();
        let anomalies = detector.scan_cores(&report);
        let mut detected: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
        detected.sort();
        detected.dedup();
        if steal {
            assert!(
                anomalies.is_empty(),
                "balanced reactor raised anomalies: {anomalies:?}"
            );
        } else {
            assert_eq!(
                detected,
                vec![AnomalyKind::CoreImbalance],
                "hot-partition EREW run must surface as exactly core_imbalance \
                 (skew report: {:?})",
                report.cores
            );
        }

        println!(
            "{},{},0,0,0.000,{},{},0",
            name,
            sys.stats.completed.get(),
            if steal { "none" } else { "core_imbalance" },
            if detected.is_empty() {
                "none".to_string()
            } else {
                detected
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            },
        );

        export_row(&bench, name, &anomalies, sys.stats.completed.get());
    }

    let path = emit_bench_json("doctor", &bench).expect("write bench json");
    eprintln!("# bench registry exported to {}", path.display());
}
