//! Chaos-driven slot-isolation property for the pipelined client: under
//! torn-DMA and bit-flip fault windows — and across a warm server crash
//! — no pipelined call ever surfaces another slot's payload or a corrupt
//! one. Every batch's results must be byte-exact echoes of its requests,
//! whatever interleaving, refetching, or resubmission the faults force.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use rfp_chaos::{install, FaultPlan, InjectorSinks, Restart};
use rfp_core::{
    connect, serve_loop, CallPolicy, OverloadConfig, RecoveryConfig, RespStatus, RfpClient,
    RfpConfig, RfpServerConn,
};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{SimSpan, SimTime, Simulation};

struct Rig {
    sim: Simulation,
    cluster: Cluster,
    client: Rc<RfpClient>,
    client_thread: Rc<ThreadCtx>,
    conn: Rc<RfpServerConn>,
}

/// One client machine (0), one server machine (1), a `window`-slot
/// connection with the integrity layer and overload control on (the
/// admission queue wide enough that a full window of plain calls is
/// never turned away), and an echo serve loop.
fn rig(seed: u64, window: usize) -> Rig {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        window,
        enable_mode_switch: false,
        integrity: true,
        overload: Some(OverloadConfig {
            queue_limit: 64,
            ..OverloadConfig::default()
        }),
        ..RfpConfig::default()
    };
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let conn = Rc::new(conn);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::clone(&conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        SimSpan::nanos(100),
    ));
    Rig {
        sim,
        cluster,
        client: Rc::new(client),
        client_thread: cm.thread("client"),
        conn,
    }
}

/// Spawns the driving task: back-to-back pipelined batches of
/// per-request distinctive payloads, each batch's echoes checked
/// byte-exactly on completion. Returns the completed-batch counter.
fn spawn_batches(rig: &mut Rig, batch: usize) -> Rc<Cell<u64>> {
    let completed = Rc::new(Cell::new(0u64));
    let (done, client, ct) = (
        Rc::clone(&completed),
        Rc::clone(&rig.client),
        Rc::clone(&rig.client_thread),
    );
    rig.sim.spawn(async move {
        for round in 0u64.. {
            let reqs: Vec<Vec<u8>> = (0..batch)
                .map(|i| {
                    let len = 8 + ((round as usize + i * 37) % 200);
                    (0..len)
                        .map(|j| (round as u8) ^ (i as u8).wrapping_mul(17) ^ (j as u8))
                        .collect()
                })
                .collect();
            let outs = client.call_pipelined(&ct, &reqs).await;
            for (req, out) in reqs.iter().zip(&outs) {
                assert_eq!(
                    &out.data, req,
                    "round {round}: a slot surfaced foreign or corrupt bytes"
                );
            }
            done.set(done.get() + 1);
        }
    });
    completed
}

proptest! {
    /// Random torn-DMA and bit-flip windows on the server: every
    /// pipelined call still returns exactly its own echo (corrupt
    /// fetches are discarded and refetched, never surfaced; slots never
    /// cross), and the rig keeps making progress.
    #[test]
    fn pipelined_slots_stay_isolated_under_corruption(
        seed in 0u64..500,
        window_log2 in 1u32..5,
        p_torn in 0.05f64..0.35,
        p_flip in 0.05f64..0.35,
        torn_at_us in 5u64..80,
        flip_at_us in 5u64..80,
        width_us in 50u64..400,
    ) {
        let window = 1usize << window_log2;
        let mut r = rig(seed, window);
        let plan = FaultPlan::new(seed)
            .torn_dma(
                SimTime::from_nanos(torn_at_us * 1_000),
                SimSpan::micros(width_us),
                1,
                p_torn,
            )
            .bit_flip(
                SimTime::from_nanos(flip_at_us * 1_000),
                SimSpan::micros(width_us),
                1,
                p_flip,
            );
        install(&mut r.sim, &r.cluster, &plan, InjectorSinks::default());
        let completed = spawn_batches(&mut r, 2 * window);
        r.sim.run_for(SimSpan::micros(600));
        prop_assert!(completed.get() > 0, "no batch completed under faults");
    }
}

/// Deterministic companion: a warm server crash mid-stream (memory
/// survives, per-slot dedup state rebuilt by the restart hook). The
/// in-flight batch rides the errored completions out, resubmits, and
/// still surfaces byte-exact echoes; batches keep completing after the
/// restart.
#[test]
fn pipelined_batches_survive_a_warm_server_crash() {
    let seed = 21;
    let mut r = rig(seed, 8);
    let conn = Rc::clone(&r.conn);
    let sinks = InjectorSinks {
        on_restart: Some(Rc::new(move |_r: &Restart| conn.recover_after_restart())),
        ..InjectorSinks::default()
    };
    let plan =
        FaultPlan::new(seed).crash(SimTime::from_nanos(40_000), SimSpan::micros(80), 1, true);
    install(&mut r.sim, &r.cluster, &plan, InjectorSinks { ..sinks });
    let completed = spawn_batches(&mut r, 16);
    r.sim.run_for(SimSpan::micros(40));
    let before_crash = completed.get();
    r.sim.run_for(SimSpan::micros(960));
    let after = completed.get();
    assert!(
        after > before_crash,
        "no batch completed across the crash window: {before_crash} -> {after}"
    );
}

/// Everything at once on one connection: a W = 4 ring, overload
/// admission, integrity verification and crash recovery, driven through
/// the call engine's public entry while a loss burst, torn DMA, bit
/// flips and a warm server crash hit the same run. Every call settles —
/// a byte-exact echo, an explicit `Busy`/`Shed`, or an `RpcError` —
/// batches keep completing after the restart, and the server NIC never
/// issues anything out-bound.
#[test]
fn pipelined_overload_integrity_recovery_compose_under_faults() {
    const BATCH: usize = 8;
    let seed = 33;
    let mut r = rig(seed, 4);
    let conn = Rc::clone(&r.conn);
    let sinks = InjectorSinks {
        on_restart: Some(Rc::new(move |_r: &Restart| conn.recover_after_restart())),
        ..InjectorSinks::default()
    };
    let us = |n: u64| SimTime::from_nanos(n * 1_000);
    let plan = FaultPlan::new(seed)
        .loss_burst(us(20), SimSpan::micros(150), 1, 0.3)
        .torn_dma(us(10), SimSpan::micros(700), 1, 0.15)
        .bit_flip(us(60), SimSpan::micros(700), 1, 0.15)
        .crash(us(200), SimSpan::micros(80), 1, true);
    install(&mut r.sim, &r.cluster, &plan, sinks);

    // (batches, echoes, rejections, errors)
    let tally = Rc::new(Cell::new((0u64, 0u64, 0u64, 0u64)));
    // (fetches discarded by verification, longest echo latency)
    let stress = Rc::new(Cell::new((0u64, SimSpan::ZERO)));
    let (seen, felt, client, ct) = (
        Rc::clone(&tally),
        Rc::clone(&stress),
        Rc::clone(&r.client),
        Rc::clone(&r.client_thread),
    );
    r.sim.spawn(async move {
        let rec = RecoveryConfig::default();
        let policy = CallPolicy {
            admission: Some(None),
            recovery: Some(&rec),
        };
        for round in 0u64.. {
            let reqs: Vec<Vec<u8>> = (0..BATCH)
                .map(|i| vec![(round as u8) ^ (i as u8).wrapping_mul(29); 16 + 40 * i])
                .collect();
            let mut settled = 0;
            let (_, mut echoes, mut rejections, mut errors) = seen.get();
            client
                .run(&ct, &reqs, policy, |i, out| {
                    settled += 1;
                    match out {
                        Ok(out) if out.info.status == RespStatus::Ok => {
                            assert_eq!(out.data, reqs[i], "round {round}: foreign or corrupt echo");
                            let (discarded, longest) = felt.get();
                            felt.set((
                                discarded + out.info.integrity_retries as u64,
                                longest.max(out.info.latency),
                            ));
                            echoes += 1;
                        }
                        Ok(out) => {
                            let verdict = out.info.status;
                            assert!(matches!(verdict, RespStatus::Busy | RespStatus::Shed));
                            assert!(out.data.is_empty());
                            rejections += 1;
                        }
                        Err(_) => errors += 1,
                    }
                })
                .await;
            assert_eq!(settled, BATCH, "round {round}: a call never settled");
            seen.set((round + 1, echoes, rejections, errors));
        }
    });
    r.sim.run_for(SimSpan::micros(300));
    let (after_restart, ..) = tally.get();
    r.sim.run_for(SimSpan::micros(1_200));
    let (batches, echoes, rejections, errors) = tally.get();
    assert!(
        batches > after_restart + 5,
        "batches stopped completing after the restart: {after_restart} -> {batches}"
    );
    assert!(
        echoes > rejections + errors,
        "the rig mostly failed: {echoes} echoes, {rejections} rejections, {errors} errors"
    );
    // The faults really bit: corrupt fetches were discarded, and some
    // call rode out the whole 80 µs outage before its echo came back.
    let (discarded, longest) = stress.get();
    assert!(discarded > 0, "no fetch was ever discarded");
    assert!(longest >= SimSpan::micros(80), "no call spanned the outage");
    assert_eq!(
        r.cluster.machine(1).nic().counters().outbound_ops,
        0,
        "the server NIC issued out-bound ops"
    );
}
