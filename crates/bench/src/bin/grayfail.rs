//! Gray-failure sweep: the replicated KV rig under fail-slow faults,
//! across mitigation levels.
//!
//! Runs `{slow_link, flaky_link, slow_server} × {baseline,
//! scored-routing, +hedging}` plus one clean reference cell and
//! reports, per cell, the measurement-phase read count and p99, the safety
//! counters, the hedge/budget ledgers, and whether the recorded
//! history passes the linearizability checker. The headline
//! acceptance, asserted on every run:
//!
//! * **unmitigated hurts** — each fail-slow scenario inflates the
//!   baseline cell's read p99 past [`P99_BOUND`]× the clean p99;
//! * **mitigated is bounded** — scored routing (and hedging on top)
//!   keep the read p99 within [`P99_BOUND`]× clean under the same
//!   fault;
//! * **mitigation is safe** — zero lost acked writes, zero duplicate
//!   applies (`applied ≤ issued`, standby refusals never execute), a
//!   linearizable history in every cell;
//! * **storms stay bounded** — with the retry budget on, tokens
//!   consumed stay within [`AMPLIFICATION_BOUND`]× completed calls.
//!
//! Fully deterministic per seed: running twice with the same seed
//! prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin grayfail [seed]
//! ```

use rfp_bench::{emit_bench_json, seed_arg};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::GrayConfig;
use rfp_simnet::{MetricsRegistry, SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

/// Faults strike after this much healthy warm-up (baselines freeze
/// well before: the scorer needs ~16 calls in a rolling window).
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

struct CellResult {
    p99_ns: u64,
    reads: usize,
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

fn gray_for(mode: &str) -> Option<GrayConfig> {
    match mode {
        "baseline" => None,
        "routing" => Some(GrayConfig::routing_only()),
        "hedged" => Some(GrayConfig::all_on()),
        other => panic!("unknown mode {other}"),
    }
}

fn run_cell(bench: &MetricsRegistry, seed: u64, scenario: &str, mode: &str) -> CellResult {
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
    sim.run_for(WINDOW);

    let st = &rig.state;
    assert_eq!(
        st.done_clients.get(),
        cfg.clients,
        "{scenario}/{mode}: a client never finished"
    );
    let history = st.history();
    let linearizable = check_history(&history).is_ok();
    let reads = st.read_lats_since(MEASURE_FROM);
    let p99_ns = st
        .read_p99_since(MEASURE_FROM)
        .expect("measurement phase has reads");
    let (hedges, hedge_wins, hedge_wasted) = rig.total_hedges();
    let (budget_spent, budget_denied) = rig.budget_totals();
    let demotions = rig
        .registry
        .names()
        .iter()
        .filter(|n| n.as_str() == "routing.demote")
        .map(|n| rig.registry.counter(n).get())
        .sum::<u64>();

    println!(
        "{scenario},{mode},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        st.completed.get(),
        st.acked_puts.get(),
        st.failed_calls.get(),
        st.lost_acked.get(),
        st.stale_reads.get(),
        reads.len(),
        p99_ns / 1_000,
        demotions,
        hedges,
        hedge_wins,
        hedge_wasted,
        budget_spent,
        budget_denied,
        linearizable as u32,
    );

    // Safety: no acked write lost, no read runs backwards, history
    // linearizes, and hedging never double-applies a mutation — the
    // primary applied at most one execution per issued PUT and every
    // standby-refused mutation was provably unexecuted.
    assert_eq!(
        st.lost_acked.get(),
        0,
        "{scenario}/{mode}: an acked write was lost"
    );
    assert_eq!(
        st.stale_reads.get(),
        0,
        "{scenario}/{mode}: a read ran backwards"
    );
    assert!(
        linearizable,
        "{scenario}/{mode}: history failed the linearizability checker"
    );
    assert!(
        rig.primary_role.applied_mutations.get() <= st.issued_puts.get(),
        "{scenario}/{mode}: duplicate-applied mutation ({} applied, {} issued)",
        rig.primary_role.applied_mutations.get(),
        st.issued_puts.get()
    );
    assert!(
        rig.primary_role.applied_mutations.get() >= st.acked_puts.get(),
        "{scenario}/{mode}: acked more than applied"
    );
    // Mitigation visibility: a faulted mitigated cell must demote the
    // gray replica through a flight-recorded `routing.demote` chain
    // (carrying the triggering health window), and a hedged cell's
    // hedge legs must leave `recovery.hedge.*` chains — the evidence
    // the doctor's dump bundle surfaces.
    if scenario != "clean" && mode != "baseline" {
        assert!(
            demotions >= 1 && rig.recorder.kind_count("routing.demote") >= 1,
            "{scenario}/{mode}: no recorded demotion chain"
        );
    }
    if hedges > 0 {
        assert!(
            rig.recorder.kind_count("recovery.hedge.issued") >= 1,
            "{scenario}/{mode}: hedges issued but no recorded hedge chain"
        );
    }
    // Retry-storm bound: tokens consumed (retries + hedges + switches
    // that stayed spent) per completed call.
    if mode != "baseline" {
        let amplification = budget_spent as f64 / st.completed.get().max(1) as f64;
        assert!(
            amplification <= AMPLIFICATION_BOUND,
            "{scenario}/{mode}: retry amplification {amplification:.2} exceeds {AMPLIFICATION_BOUND}"
        );
    }

    let row = format!("bench.grayfail.{scenario}_{mode}");
    for (metric, value) in [
        ("completed", st.completed.get()),
        ("lost_acked", st.lost_acked.get()),
        ("meas_reads", reads.len() as u64),
        ("read_p99_us", p99_ns / 1_000),
        ("demotions", demotions),
        ("hedges", hedges),
        ("hedge_wins", hedge_wins),
        ("budget_spent", budget_spent),
        ("linearizable", linearizable as u64),
    ] {
        bench.counter(&format!("{row}.{metric}")).add(value);
    }

    CellResult {
        p99_ns,
        reads: reads.len(),
    }
}

fn main() {
    let seed = seed_arg();

    println!("# gray-failure sweep: fail-slow faults x mitigation levels");
    println!(
        "# seed={seed} fault_at={}us measure_from={}us p99_bound={P99_BOUND}x",
        FAULT_AT.as_nanos() / 1_000,
        MEASURE_FROM.as_nanos() / 1_000,
    );
    println!(
        "scenario,mode,completed,acked_puts,failed_calls,lost_acked,stale_reads,\
         meas_reads,read_p99_us,demotions,hedges,hedge_wins,hedge_wasted,\
         budget_spent,budget_denied,linearizable"
    );

    let bench = MetricsRegistry::new();
    let clean = run_cell(&bench, seed, "clean", "baseline");
    assert!(
        clean.reads >= 100,
        "clean cell too thin: {} measured reads",
        clean.reads
    );
    let bound_ns = (clean.p99_ns as f64 * P99_BOUND) as u64;

    for scenario in ["slow_link", "flaky_link", "slow_server"] {
        let base = run_cell(&bench, seed, scenario, "baseline");
        assert!(
            base.p99_ns > bound_ns,
            "{scenario}/baseline: fault too mild to matter \
             (p99 {}us, clean {}us)",
            base.p99_ns / 1_000,
            clean.p99_ns / 1_000
        );
        for mode in ["routing", "hedged"] {
            let cell = run_cell(&bench, seed, scenario, mode);
            assert!(
                cell.p99_ns <= bound_ns,
                "{scenario}/{mode}: mitigated read p99 {}us exceeds {P99_BOUND}x clean ({}us)",
                cell.p99_ns / 1_000,
                clean.p99_ns / 1_000
            );
        }
    }

    let path = emit_bench_json("grayfail", &bench).expect("write bench json");
    eprintln!("# bench registry exported to {}", path.display());
}
