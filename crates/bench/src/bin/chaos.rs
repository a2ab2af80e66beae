//! Chaos ablation: the Jakiro-style rig under each fault class.
//!
//! Runs one scenario per fault class (plus a fault-free baseline and a
//! seeded mixed plan) on the one-replica chaos rig and reports, per
//! scenario, throughput, recovery effort, recovery time (a fault's onset
//! to a client's next completed call), the two safety
//! invariants (lost acked writes, stale reads) and the GETs answered
//! `NotFound` — the only mark a cold restart's memory wipe leaves. Fully
//! deterministic per seed: running twice with the same seed prints the
//! same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin chaos [seed]
//! ```

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::OverloadConfig;
use rfp_simnet::{SimSpan, SimTime, Simulation};

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(2_000_000);
/// …and every scenario runs this long in total.
const WINDOW: SimSpan = SimSpan::millis(8);
/// Duration of windowed faults (bursts, degradation, stragglers).
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
/// Server downtime of crash scenarios.
const DOWNTIME: SimSpan = SimSpan::micros(300);
/// The columns each scenario exports to `BENCH_chaos.json`.
const EXPORTED: [&str; 7] = [
    "completed",
    "lost_acked",
    "stale_reads",
    "not_found",
    "recovery_us_max",
    "rejected",
    "sheds",
];

/// One row of the ablation: a fault plan, optionally run with overload
/// control armed.
struct Scenario {
    name: &'static str,
    plan: Option<FaultPlan>,
    /// Arm credit-based admission and deadline-aware shedding. The
    /// deadline is generous (well above healthy latency), so only
    /// genuine pile-ups — the straggler window — shed.
    overload: bool,
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    let sc = |name, plan| Scenario {
        name,
        plan,
        overload: false,
    };
    vec![
        sc("baseline", None),
        sc(
            "loss_burst",
            Some(FaultPlan::new(seed).loss_burst(FAULT_AT, FAULT_SPAN, 0, 0.3)),
        ),
        sc(
            "link_degrade",
            Some(FaultPlan::new(seed).link_degrade(FAULT_AT, FAULT_SPAN, 8.0)),
        ),
        sc(
            "straggler",
            Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 4.0)),
        ),
        sc("qp_error", Some(FaultPlan::new(seed).qp_error(FAULT_AT, 0))),
        sc(
            "warm_restart",
            Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, true)),
        ),
        sc(
            "cold_restart",
            Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, false)),
        ),
        sc(
            "mixed",
            Some(FaultPlan::random(
                seed,
                6,
                FAULT_AT,
                FAULT_AT + SimSpan::millis(4),
                4,
            )),
        ),
        // Overload control composed with a severe straggler core:
        // requests stuck behind the slow thread miss their deadline and
        // are shed instead of queueing; both safety invariants must
        // still hold, because a shed request was never executed.
        Scenario {
            name: "overload_straggler",
            plan: Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 64.0)),
            overload: true,
        },
    ]
}

/// One scenario's CSV row: its name and its columns, in CSV order.
struct Row {
    name: &'static str,
    cols: Vec<(&'static str, u64)>,
}

/// Runs one scenario and checks its safety invariants.
fn run_scenario(seed: u64, scenario: &Scenario) -> Row {
    let Scenario {
        name,
        ref plan,
        overload,
    } = *scenario;
    let mut sim = Simulation::new(seed);
    let mut cfg = ChaosConfig {
        seed,
        ..ChaosConfig::default()
    };
    if overload {
        cfg.overload = Some(OverloadConfig {
            deadline: SimSpan::micros(25),
            ..OverloadConfig::default()
        });
    }
    let rig = spawn_chaos_kv(&mut sim, &cfg, plan.as_ref());
    sim.run_for(WINDOW);

    let snap = rig.registry.snapshot();
    let scalar = |n: &str| snap.scalar(n).unwrap_or(0.0) as u64;
    let faults_fired = [
        "fault.loss_bursts",
        "fault.link_degrades",
        "fault.stragglers",
        "fault.qp_errors",
        "fault.crashes_warm",
        "fault.crashes_cold",
    ]
    .iter()
    .map(|n| scalar(n))
    .sum::<u64>();
    let st = &rig.state;

    // The headline safety claims, checked on every run.
    assert_eq!(
        st.stale_reads.get(),
        0,
        "{name}: stale pre-wipe data surfaced"
    );
    if name != "mixed" {
        // The mixed plan may crash cold mid-call in ways that lose
        // unacked writes (fine) but single-fault scenarios must keep
        // the strict invariant.
        assert_eq!(st.lost_acked.get(), 0, "{name}: an acked write was lost");
    }

    Row {
        name,
        cols: vec![
            ("completed", st.completed.get()),
            ("acked_puts", st.acked_puts.get()),
            ("failed_calls", st.failed_calls.get()),
            ("lost_acked", st.lost_acked.get()),
            ("stale_reads", st.stale_reads.get()),
            ("not_found", st.not_found.get()),
            (
                "recovery_us_max",
                rig.max_recovery_time()
                    .map(|s| s.as_nanos() / 1_000)
                    .unwrap_or(0),
            ),
            ("resubmits", scalar("recovery.resubmits")),
            ("reconnects", scalar("recovery.reconnects")),
            ("deadlines", scalar("recovery.deadlines")),
            ("verb_errors", scalar("recovery.verb_errors")),
            ("faults_fired", faults_fired),
            ("rejected", st.rejected_calls.get()),
            // Server-side admission verdicts (lazy counters: zero — and
            // absent — when overload is off).
            ("busy_rejects", scalar("overload.busy_rejections")),
            ("sheds", scalar("overload.sheds")),
        ],
    }
}

fn main() {
    let seed = seed_arg();
    let rows = cells(&scenarios(seed), |s| run_scenario(seed, s));

    println!("# chaos ablation: Jakiro-style rig with client-side recovery");
    println!(
        "# seed={seed} window={}ms fault_at=2ms",
        WINDOW.as_nanos() / 1_000_000
    );
    let header: Vec<&str> = rows[0].cols.iter().map(|&(c, _)| c).collect();
    println!("scenario,{}", header.join(","));
    for row in &rows {
        let values: Vec<String> = row.cols.iter().map(|(_, v)| v.to_string()).collect();
        println!("{},{}", row.name, values.join(","));
    }

    // A cold restart comes back with wiped memory, a warm one does not:
    // the wipe surfaces as the extra keys a GET no longer finds.
    let not_found = |name: &str| {
        let row = rows.iter().find(|r| r.name == name).expect("scenario");
        row.cols
            .iter()
            .find(|(c, _)| *c == "not_found")
            .map(|&(_, v)| v)
    };
    assert!(
        not_found("cold_restart") > not_found("warm_restart"),
        "a cold restart must lose keys a warm restart keeps"
    );

    let exports = rows.iter().flat_map(|row| {
        let exported = row.cols.iter().filter(|(c, _)| EXPORTED.contains(c));
        exported.map(|&(metric, v)| (format!("bench.chaos.{}.{metric}", row.name), v))
    });
    let path = emit_bench_json("chaos", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
