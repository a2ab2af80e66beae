//! Gray-failure sweep: the replicated KV rig under fail-slow faults,
//! with and without scored routing.
//!
//! Runs `{slow_link, flaky_link, slow_server} × {baseline, routing}`
//! plus one clean reference cell and reports, per cell, the
//! measurement-phase read count and p99, the safety counters, the
//! demotion and retry-budget ledgers, and whether the recorded
//! history passes the linearizability checker. The headline
//! acceptance, asserted on every run:
//!
//! * **unmitigated hurts** — each fail-slow scenario inflates the
//!   baseline cell's read p99 past [`P99_BOUND`]× the clean p99;
//! * **mitigated is bounded** — scored routing keeps the read p99
//!   within [`P99_BOUND`]× clean under the same fault;
//! * **mitigation is safe** — zero lost acked writes, zero duplicate
//!   applies (`applied ≤ issued`, standby refusals never execute), a
//!   linearizable history in every cell;
//! * **storms stay bounded** — with the retry budget on, tokens
//!   consumed stay within [`AMPLIFICATION_BOUND`]× completed calls.
//!   Fail-slow faults error no call, so every reservation is refunded
//!   and this holds at 0 tokens here; the bound is proven on a real
//!   storm by `crates/core/tests/failover.rs`'s
//!   `retry_budget_bounds_a_storm_against_dead_replicas`.
//!
//! Fully deterministic per seed: running twice with the same seed
//! prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin grayfail [seed]
//! ```

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_simnet::{SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

/// Faults strike after this much healthy warm-up, the instant each
/// connection's baseline is captured: a primary connection's window
/// then holds about 200 calls, well over the 16 a baseline needs; a
/// standby's, which no read has reached yet, holds none and gets no
/// baseline, so scoring leaves it undemoted.
const FAULT_AT: SimTime = SimTime::from_nanos(1_000_000);
/// Fault windows outlive the run: a gray fault does not heal itself.
const FAULT_SPAN: SimSpan = SimSpan::millis(500);
/// Read p99 is measured over GETs started after this instant, leaving
/// the router one detection transient past the fault onset.
const MEASURE_FROM: SimTime = SimTime::from_nanos(3_000_000);
/// Every cell runs at most this long (ops budgets finish earlier).
const WINDOW: SimSpan = SimSpan::millis(400);
/// Mitigated read p99 must stay within this factor of the clean p99;
/// every unmitigated fail-slow cell must exceed it.
const P99_BOUND: f64 = 3.0;
/// Retry-budget tokens consumed per completed call, at most.
const AMPLIFICATION_BOUND: f64 = 2.0;

/// Added one-way wire latency of the slow-link scenario (~20× the
/// healthy propagation delay — a dying cable, not a dead one).
const SLOW_LINK_LAG_NS: u64 = 30_000;
/// Loss rate of the flaky-link scenario, a loss burst that never
/// heals: heavy RC retransmission, far under anything that errors a
/// verb (the recovery threshold). The latency inflation it can cause
/// is *capped* by the retransmit-round limit (~8 rounds per verb),
/// which is exactly what makes it the hardest scenario for the scorer.
const FLAKY_LOSS: f64 = 0.9;
/// CPU multiplier of the slow-server scenario, a straggler that never
/// heals.
const SLOW_SERVER_FACTOR: f64 = 30.0;

/// The columns each cell exports to `BENCH_grayfail.json`.
const EXPORTED: [&str; 7] = [
    "completed",
    "lost_acked",
    "meas_reads",
    "read_p99_us",
    "demotions",
    "budget_spent",
    "linearizable",
];

/// One cell's CSV row: its labels, its measured read p99, and its
/// columns in CSV order.
struct Row {
    scenario: &'static str,
    mode: &'static str,
    p99_ns: u64,
    cols: Vec<(&'static str, u64)>,
}

fn plan_for(seed: u64, scenario: &str) -> Option<FaultPlan> {
    match scenario {
        "clean" => None,
        "slow_link" => {
            Some(FaultPlan::new(seed).slow_link(FAULT_AT, FAULT_SPAN, 0, SLOW_LINK_LAG_NS))
        }
        "flaky_link" => Some(FaultPlan::new(seed).loss_burst(FAULT_AT, FAULT_SPAN, 0, FLAKY_LOSS)),
        "slow_server" => {
            Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, SLOW_SERVER_FACTOR))
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn gray_for(mode: &str) -> bool {
    match mode {
        "baseline" => false,
        "routing" => true,
        other => panic!("unknown mode {other}"),
    }
}

/// Runs one `(scenario, mode)` cell and checks its safety and
/// mitigation claims.
fn run_cell(seed: u64, &(scenario, mode): &(&'static str, &'static str)) -> Row {
    let gray = gray_for(mode);
    let mut sim = Simulation::new(seed);
    let cfg = ChaosConfig {
        clients: 4,
        // 1200 ops over 16 keys keeps every key under the
        // linearizability checker's 128-op search cap.
        keys_per_client: 16,
        ops_per_client: 1_200,
        failover: rfp_core::FailoverConfig {
            gray,
            ..ChaosConfig::grayfail().failover
        },
        seed,
        ..ChaosConfig::grayfail()
    };
    let plan = plan_for(seed, scenario);
    let rig = spawn_chaos_kv(&mut sim, &cfg, plan.as_ref());
    rig.capture_baselines_at(FAULT_AT);
    sim.run_for(WINDOW);

    let st = &rig.state;
    // Safety, the rig's judge: no acked write lost, no read runs
    // backwards, every client finished, the history linearizes, and
    // routing never double-applies a mutation — the primary applied at
    // most one execution per issued PUT and every standby-refused
    // mutation was provably unexecuted.
    let violations = rig.violations();
    assert!(violations.is_empty(), "{scenario}/{mode}: {violations:?}");
    let history = st.history();
    let linearizable = check_history(&history).is_ok();
    let reads = st.read_lats_since(MEASURE_FROM);
    let p99_ns = st
        .read_p99_since(MEASURE_FROM)
        .expect("measurement phase has reads");
    let (budget_spent, budget_denied) = rig.budget_totals();
    let demotions = rig
        .registry
        .names()
        .iter()
        .filter(|n| n.as_str() == "routing.demote")
        .map(|n| rig.registry.counter(n).get())
        .sum::<u64>();

    if scenario == "clean" {
        assert!(
            reads.len() >= 100,
            "clean cell too thin: {} measured reads",
            reads.len()
        );
    }
    // Mitigation visibility: a faulted mitigated cell must demote the
    // gray replica through a flight-recorded `routing.demote` chain
    // (carrying the triggering health window) — the evidence the
    // doctor's dump bundle surfaces.
    if scenario != "clean" && mode != "baseline" {
        assert!(
            demotions >= 1 && rig.recorder.kind_count("routing.demote") >= 1,
            "{scenario}/{mode}: no recorded demotion chain"
        );
    }
    // Retry-storm bound: tokens consumed (retries + switches that
    // stayed spent) per completed call.
    if mode != "baseline" {
        let amplification = budget_spent as f64 / st.completed.get().max(1) as f64;
        assert!(
            amplification <= AMPLIFICATION_BOUND,
            "{scenario}/{mode}: retry amplification {amplification:.2} exceeds {AMPLIFICATION_BOUND}"
        );
    }

    Row {
        scenario,
        mode,
        p99_ns,
        cols: vec![
            ("completed", st.completed.get()),
            ("acked_puts", st.acked_puts.get()),
            ("failed_calls", st.failed_calls.get()),
            ("lost_acked", st.lost_acked.get()),
            ("stale_reads", st.stale_reads.get()),
            ("meas_reads", reads.len() as u64),
            ("read_p99_us", p99_ns / 1_000),
            ("demotions", demotions),
            ("budget_spent", budget_spent),
            ("budget_denied", budget_denied),
            ("linearizable", linearizable as u64),
        ],
    }
}

fn main() {
    let seed = seed_arg();
    let mut specs = vec![("clean", "baseline")];
    for scenario in ["slow_link", "flaky_link", "slow_server"] {
        specs.extend(["baseline", "routing"].map(|mode| (scenario, mode)));
    }
    let rows = cells(&specs, |spec| run_cell(seed, spec));

    println!("# gray-failure sweep: fail-slow faults x scored routing");
    println!(
        "# seed={seed} fault_at={}us measure_from={}us p99_bound={P99_BOUND}x",
        FAULT_AT.as_nanos() / 1_000,
        MEASURE_FROM.as_nanos() / 1_000,
    );
    let header: Vec<&str> = rows[0].cols.iter().map(|&(c, _)| c).collect();
    println!("scenario,mode,{}", header.join(","));
    for row in &rows {
        let values: Vec<String> = row.cols.iter().map(|(_, v)| v.to_string()).collect();
        println!("{},{},{}", row.scenario, row.mode, values.join(","));
    }

    let clean = &rows[0];
    let bound_ns = (clean.p99_ns as f64 * P99_BOUND) as u64;
    for cell in &rows[1..] {
        let scenario = cell.scenario;
        if cell.mode == "baseline" {
            assert!(
                cell.p99_ns > bound_ns,
                "{scenario}/baseline: fault too mild to matter \
                 (p99 {}us, clean {}us)",
                cell.p99_ns / 1_000,
                clean.p99_ns / 1_000
            );
        } else {
            assert!(
                cell.p99_ns <= bound_ns,
                "{scenario}/{}: mitigated read p99 {}us exceeds {P99_BOUND}x clean ({}us)",
                cell.mode,
                cell.p99_ns / 1_000,
                clean.p99_ns / 1_000
            );
        }
    }

    let exports = rows.iter().flat_map(|row| {
        let key = format!("bench.grayfail.{}_{}", row.scenario, row.mode);
        let exported = row.cols.iter().filter(|(c, _)| EXPORTED.contains(c));
        exported.map(move |&(metric, v)| (format!("{key}.{metric}"), v))
    });
    let path = emit_bench_json("grayfail", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
