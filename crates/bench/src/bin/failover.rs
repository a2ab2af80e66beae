//! Failover sweep: the replicated KV rig under crash and partition
//! faults, across ack policies and load, plus the steady-state
//! replication tax on the headline 32 B bar.
//!
//! Part one runs the chaos failover rig (primary/backup replication,
//! epoch-fenced promotion, client-side replica routing) through
//! `{primary_crash, partition} x {sync, async} x {light, heavy}` and
//! reports, per cell, the safety counters, the failover count and
//! timing, and whether the recorded operation history passes the
//! linearizability checker. Sync cells must show **zero lost acked
//! writes, zero stale reads, and a linearizable history** — asserted on
//! every run. Async cells report the same columns to expose the
//! acked-but-unreplicated window; nothing is asserted about their
//! losses (that trade is the point of measuring them).
//!
//! Part two measures the replication tax: a GET-heavy (95/5) closed
//! loop with 16 concurrent workers and 32 B values against the same
//! primary, with replication off / sync / async. The sync bar must stay
//! within 5% of the replication-off bar.
//!
//! Fully deterministic per seed: running twice with the same seed
//! prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin failover [seed]
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::{connect, serve_loop, RfpConfig};
use rfp_kvstore::replica::{
    backup_serve_loop, primary_serve_loop, AckPolicy, BackupRole, PrimaryRole, ReplicationConfig,
};
use rfp_kvstore::{kv_handler, KvRequest, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{derive_seed, SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(40_000);
/// …and the failure detector promotes the backup this much later.
const DETECT: SimSpan = SimSpan::micros(60);
/// Asymmetric-cut duration for partition scenarios.
const PARTITION_SPAN: SimSpan = SimSpan::micros(400);
/// Every failover scenario runs this long (well past every client's op
/// budget, so stragglers finish even with faults in the way).
const WINDOW: SimSpan = SimSpan::millis(40);
/// Acceptance bound on client-observed failover time.
const FAILOVER_BUDGET: SimSpan = SimSpan::millis(5);

/// Workers in the replication-tax closed loop (the headline W=16 bar).
const TAX_WORKERS: usize = 16;
/// Value size of the tax workload (the headline 32 B bar).
const TAX_VALUE: usize = 32;
/// PUT fraction of the tax workload (GET-heavy, as the paper runs it).
const TAX_PUT_RATIO: f64 = 0.05;
/// Measurement window of each tax run.
const TAX_WINDOW: SimSpan = SimSpan::millis(5);
/// Maximum tolerated sync-replication throughput tax.
const TAX_BOUND: f64 = 0.05;
/// The columns each scenario cell exports to `BENCH_failover.json`.
const EXPORTED: [&str; 6] = [
    "completed",
    "lost_acked",
    "stale_reads",
    "failovers",
    "failover_us_max",
    "linearizable",
];

fn ack_name(ack: AckPolicy) -> &'static str {
    match ack {
        AckPolicy::Sync => "sync",
        AckPolicy::Async => "async",
    }
}

/// One scenario cell's CSV row: its labels and its columns, in CSV
/// order.
struct Row {
    scenario: &'static str,
    ack: AckPolicy,
    clients: usize,
    cols: Vec<(&'static str, u64)>,
}

/// Runs one `(scenario, ack, clients)` cell and checks its safety
/// claims.
fn run_scenario(seed: u64, &(scenario, ack, clients): &(&'static str, AckPolicy, usize)) -> Row {
    let mut sim = Simulation::new(seed);
    let cfg = ChaosConfig {
        clients,
        replication: Some(ReplicationConfig { ack }),
        seed,
        ..ChaosConfig::failover()
    };
    let (plan, promote_at) = match scenario {
        // The primary dies for good: downtime outlives the run.
        "crash" => (
            FaultPlan::new(seed).crash(FAULT_AT, SimSpan::millis(100), 0, true),
            Some(FAULT_AT + DETECT),
        ),
        // A both-direction cut between the first client machine and the
        // primary; the primary is alive, so nobody promotes.
        "partition" => (
            FaultPlan::new(seed)
                .partition(FAULT_AT, PARTITION_SPAN, 2, 0)
                .partition(FAULT_AT, PARTITION_SPAN, 0, 2),
            None,
        ),
        other => panic!("unknown scenario {other}"),
    };
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));
    if let Some(at) = promote_at {
        rig.promote_backup_at(at);
    }
    sim.run_for(WINDOW);

    let st = &rig.state;
    assert_eq!(
        st.done_clients.get(),
        clients,
        "{scenario}/{}/{clients}: a client never finished",
        ack_name(ack)
    );
    let history = st.history();
    let linearizable = check_history(&history).is_ok();

    // The headline safety claims. Sync mode: an acked write is a
    // replicated write, so no crash or cut may lose one, no read may
    // run backwards, and the surviving history must linearize.
    if matches!(ack, AckPolicy::Sync) {
        assert_eq!(
            st.lost_acked.get(),
            0,
            "{scenario}/sync/{clients}: an acked write was lost"
        );
        assert_eq!(
            st.stale_reads.get(),
            0,
            "{scenario}/sync/{clients}: a read ran backwards"
        );
        assert!(
            linearizable,
            "{scenario}/sync/{clients}: history failed the linearizability checker"
        );
    }
    if scenario == "crash" {
        assert!(
            rig.total_failovers() >= 1,
            "{scenario}/{}/{clients}: nobody failed over",
            ack_name(ack)
        );
        let t = rig.max_recovery_time().expect("failover was timed");
        assert!(
            t <= FAILOVER_BUDGET,
            "{scenario}/{}/{clients}: failover took {t:?}, budget {FAILOVER_BUDGET:?}",
            ack_name(ack)
        );
    }

    Row {
        scenario,
        ack,
        clients,
        cols: vec![
            ("completed", st.completed.get()),
            ("acked_puts", st.acked_puts.get()),
            ("failed_calls", st.failed_calls.get()),
            ("lost_acked", st.lost_acked.get()),
            ("stale_reads", st.stale_reads.get()),
            ("failovers", rig.total_failovers()),
            (
                "failover_us_max",
                rig.max_recovery_time()
                    .map(|s| s.as_nanos() / 1_000)
                    .unwrap_or(0),
            ),
            ("promoted", st.promoted_at.get().is_some() as u64),
            ("hist_ops", history.len() as u64),
            ("linearizable", linearizable as u64),
        ],
    }
}

/// Completed ops of a healthy GET-heavy closed loop against the
/// replicated primary, with replication off (`None`) or on; also
/// returns how many log entries the primary shipped, so a "0% tax"
/// can be told apart from "replication never engaged".
fn tax_run(seed: u64, &repl: &Option<AckPolicy>) -> (u64, u64) {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let (primary_m, backup_m, client_m) =
        (cluster.machine(0), cluster.machine(1), cluster.machine(2));
    let partition = Rc::new(RefCell::new(Partition::new(1024)));
    let backup_part = Rc::new(RefCell::new(Partition::new(1024)));
    let plain = || RfpConfig {
        enable_mode_switch: false,
        ..RfpConfig::default()
    };

    let (ship, repl_conn) = connect(
        &primary_m,
        &backup_m,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        plain(),
    );
    ship.set_reconnect(cluster.qp_factory(0, 1));

    let completed = Rc::new(Cell::new(0u64));
    let mut conns = Vec::with_capacity(TAX_WORKERS);
    for w in 0..TAX_WORKERS {
        let (cl, sc) = connect(
            &client_m,
            &primary_m,
            cluster.qp(2, 0),
            cluster.qp(0, 2),
            plain(),
        );
        conns.push(Rc::new(sc));
        let thread = client_m.thread(format!("tax-w{w}"));
        let done = Rc::clone(&completed);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7A_0000 + w as u64));
        sim.spawn(async move {
            let key = format!("t{w}").into_bytes();
            let value = [0xABu8; TAX_VALUE];
            // Seed the key so the GET stream observes real hits.
            let req = KvRequest::Put {
                key: &key,
                value: &value,
            }
            .encode();
            cl.call(&thread, &req).await;
            loop {
                let req = if rng.gen::<f64>() < TAX_PUT_RATIO {
                    KvRequest::Put {
                        key: &key,
                        value: &value,
                    }
                    .encode()
                } else {
                    KvRequest::Get { key: &key }.encode()
                };
                cl.call(&thread, &req).await;
                done.set(done.get() + 1);
            }
        });
    }

    // Replication off is the absent stage: the plain serve loop over
    // the same store handler.
    let role = Rc::new(PrimaryRole::default());
    let (thread, spin) = (primary_m.thread("tax-primary"), SimSpan::nanos(100));
    match repl {
        Some(ack) => sim.spawn(primary_serve_loop(
            thread,
            conns,
            Rc::clone(&partition),
            Rc::new(ship),
            ReplicationConfig { ack },
            Rc::clone(&role),
            spin,
        )),
        None => sim.spawn(serve_loop(
            thread,
            conns,
            kv_handler(Rc::clone(&partition), || SimSpan::ZERO),
            spin,
        )),
    };
    sim.spawn(backup_serve_loop(
        backup_m.thread("tax-backup"),
        Rc::new(repl_conn),
        Vec::new(),
        backup_part,
        Rc::new(BackupRole::default()),
        SimSpan::nanos(100),
    ));

    sim.run_for(TAX_WINDOW);
    assert!(!role.solo.get(), "tax rig lost its backup mid-measurement");
    (completed.get(), role.shipped_entries.get())
}

fn main() {
    let seed = seed_arg();
    let mut specs = Vec::new();
    for scenario in ["crash", "partition"] {
        for ack in [AckPolicy::Sync, AckPolicy::Async] {
            specs.extend([2, 4].map(|clients| (scenario, ack, clients)));
        }
    }
    let rows = cells(&specs, |spec| run_scenario(seed, spec));
    let taxes = cells(
        &[None, Some(AckPolicy::Sync), Some(AckPolicy::Async)],
        |repl| tax_run(seed, repl),
    );

    println!("# failover sweep: replicated KV rig under crash/partition faults");
    println!(
        "# seed={seed} fault_at={}us detect={}us window={}ms",
        FAULT_AT.as_nanos() / 1_000,
        DETECT.as_nanos() / 1_000,
        WINDOW.as_nanos() / 1_000_000
    );
    let names: Vec<&str> = rows[0].cols.iter().map(|&(name, _)| name).collect();
    println!("scenario,ack,clients,{}", names.join(","));
    let mut exports = Vec::new();
    for row in &rows {
        let (scenario, ack, clients) = (row.scenario, ack_name(row.ack), row.clients);
        let values: Vec<String> = row.cols.iter().map(|(_, v)| v.to_string()).collect();
        println!("{scenario},{ack},{clients},{}", values.join(","));
        let key = format!("bench.failover.{scenario}_{ack}_{clients}");
        let exported = row.cols.iter().filter(|(c, _)| EXPORTED.contains(c));
        exports.extend(exported.map(|&(metric, v)| (format!("{key}.{metric}"), v)));
    }

    println!("# replication tax: GET-heavy 32B closed loop, {TAX_WORKERS} workers");
    println!("mode,ops,shipped,mops_per_s,tax_pct");
    let off = taxes[0].0;
    let secs = TAX_WINDOW.as_nanos() as f64 / 1e9;
    let mut sync_ops = 0;
    for (mode, &(ops, shipped)) in ["off", "sync", "async"].into_iter().zip(&taxes) {
        let tax = 1.0 - ops as f64 / off as f64;
        println!(
            "{mode},{ops},{shipped},{:.3},{:.2}",
            ops as f64 / secs / 1e6,
            tax * 100.0
        );
        if mode != "off" {
            assert!(shipped > 0, "{mode}: replication never shipped an entry");
        }
        exports.push((format!("bench.failover.tax.{mode}_ops"), ops));
        if mode == "sync" {
            sync_ops = ops;
            // Whole basis points are enough resolution for the pin.
            exports.push((
                "bench.failover.tax.sync_tax_bp".to_string(),
                (tax * 10_000.0).max(0.0) as u64,
            ));
        }
    }
    assert!(
        sync_ops as f64 >= off as f64 * (1.0 - TAX_BOUND),
        "sync replication tax exceeds {:.0}%: {sync_ops} vs {off} ops",
        TAX_BOUND * 100.0
    );

    let path = emit_bench_json("failover", exports).expect("write bench json");
    eprintln!("# bench json written to {}", path.display());
}
