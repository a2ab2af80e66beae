//! Lease churn under faults: logical clients evict and re-lease each
//! other's connections while the wire loses packets and the server
//! warm-crashes mid-run.
//!
//! The invariants are the mux-era versions of this crate's classics:
//!
//! - **no lost acked writes** — an acknowledged PUT survives lease
//!   eviction, loss bursts, and the warm restart;
//! - **no cross-tenant payload leak** — a fetched value never carries
//!   another tenant's stamp, even though tenants constantly reuse each
//!   other's slot rings (the integrity layer's generation stamps catch
//!   stale-slot images before they surface);
//! - **deterministic recovery** — the same seed reproduces the same
//!   outcome counters, faults and all.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rfp_chaos::{install, FaultPlan, InjectorSinks, Restart};
use rfp_core::{
    connect, serve_loop_tenant, shard_conns, FailureCause, OverloadConfig, RecoveryConfig,
    RfpConfig, RfpMux, TenantId,
};
use rfp_kvstore::systems::apply_to_partition;
use rfp_kvstore::{KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{derive_seed, SimSpan, SimTime, Simulation};

const CLIENT_MACHINES: usize = 2;
const CONNS_PER_MACHINE: usize = 2;
const TASKS_PER_MACHINE: usize = 6;
const TENANTS: u32 = 3;
const KEYS_PER_TASK: usize = 4;
const POLLER_GROUPS: usize = 2;
const HORIZON: SimSpan = SimSpan::millis(14);

/// Everything the run observably produced.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    completed: u64,
    acked_puts: u64,
    failed: u64,
    rejected: u64,
    lost_acked: u64,
    leaks: u64,
    restarts: u64,
    leases: u64,
    evictions: u64,
    now_ns: u64,
}

fn run_lease_churn(seed: u64) -> Outcome {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(
        &mut sim,
        ClusterProfile::paper_testbed(),
        1 + CLIENT_MACHINES,
    );
    let server_m = cluster.machine(0);

    // One shared partition: the mux may land any tenant on any
    // connection, so every poller group serves every key.
    let part = Rc::new(RefCell::new(Partition::new(256)));

    let overload = OverloadConfig {
        // A wider deadline than the overload default: loss-burst
        // retransmits should exercise recovery, not mass shedding.
        deadline: SimSpan::micros(200),
        ..OverloadConfig::default()
    };

    // Physical connections: one QP pair per client machine, shared.
    let mut server_conns = Vec::new();
    let mut muxes = Vec::new();
    for m in 0..CLIENT_MACHINES {
        let client_m = cluster.machine(1 + m);
        let (qp_c2s, qp_s2c) = (cluster.qp(1 + m, 0), cluster.qp(0, 1 + m));
        let mut clients = Vec::new();
        for k in 0..CONNS_PER_MACHINE {
            let idx = m * CONNS_PER_MACHINE + k;
            let cfg = RfpConfig {
                enable_mode_switch: false,
                conn_id: idx as u32,
                overload: Some(OverloadConfig {
                    seed: derive_seed(seed, 0x0C10 + idx as u64),
                    ..overload.clone()
                }),
                integrity: true,
                ..RfpConfig::default()
            };
            let (cl, sc) = connect(
                &client_m,
                &server_m,
                Rc::clone(&qp_c2s),
                Rc::clone(&qp_s2c),
                cfg,
            );
            cl.set_reconnect(cluster.qp_factory(1 + m, 0));
            clients.push(Rc::new(cl));
            server_conns.push(Rc::new(sc));
        }
        muxes.push(RfpMux::new(clients));
    }

    // Outcome counters shared by every task.
    let completed = Rc::new(Cell::new(0u64));
    let acked_puts = Rc::new(Cell::new(0u64));
    let failed = Rc::new(Cell::new(0u64));
    let rejected = Rc::new(Cell::new(0u64));
    let lost_acked = Rc::new(Cell::new(0u64));
    let leaks = Rc::new(Cell::new(0u64));

    for (m, mux) in muxes.iter().enumerate() {
        for t in 0..TASKS_PER_MACHINE {
            let i = m * TASKS_PER_MACHINE + t;
            let tenant = i as u32 % TENANTS;
            let lc = mux.logical_client(TenantId(tenant));
            let thread = cluster.machine(1 + m).thread(format!("churn{i}"));
            let recovery = RecoveryConfig {
                seed: derive_seed(seed, 0xC0DE + i as u64),
                ..RecoveryConfig::default()
            };
            let mut rng = {
                use rand::SeedableRng;
                rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 1 + i as u64))
            };
            let (completed, acked_puts, failed, rejected, lost_acked, leaks) = (
                Rc::clone(&completed),
                Rc::clone(&acked_puts),
                Rc::clone(&failed),
                Rc::clone(&rejected),
                Rc::clone(&lost_acked),
                Rc::clone(&leaks),
            );
            sim.spawn(async move {
                use rand::Rng;
                // key → version of the last acknowledged PUT. Keys are
                // disjoint per task, so the ledger is local.
                let mut acked: HashMap<Vec<u8>, u64> = HashMap::new();
                let mut version = 0u64;
                loop {
                    let k = rng.gen_range(0..KEYS_PER_TASK);
                    let key = format!("L{i}.k{k}").into_bytes();
                    let is_put = rng.gen::<f64>() < 0.5;
                    let outcome = if is_put {
                        version += 1;
                        // The value carries the writer's tenant stamp:
                        // fetching someone else's bytes is observable.
                        let mut value = [0u8; 12];
                        value[..4].copy_from_slice(&tenant.to_le_bytes());
                        value[4..].copy_from_slice(&version.to_le_bytes());
                        let req = KvRequest::Put {
                            key: &key,
                            value: &value,
                        }
                        .encode();
                        lc.call_with_recovery(&thread, &req, &recovery)
                            .await
                            .map(|out| (out, Some(version)))
                    } else {
                        let req = KvRequest::Get { key: &key }.encode();
                        lc.call_with_recovery(&thread, &req, &recovery)
                            .await
                            .map(|out| (out, None))
                    };
                    match outcome {
                        Ok((out, put_version)) => {
                            completed.set(completed.get() + 1);
                            let resp = KvResponse::decode(&out.data).expect("server response");
                            match (put_version, resp) {
                                (Some(v), KvResponse::Stored) => {
                                    acked_puts.set(acked_puts.get() + 1);
                                    acked.insert(key.clone(), v);
                                }
                                (None, KvResponse::Found(value)) => {
                                    let vt = u32::from_le_bytes(
                                        value[..4].try_into().expect("12-byte value"),
                                    );
                                    if vt != tenant {
                                        leaks.set(leaks.get() + 1);
                                    }
                                    let vv = u64::from_le_bytes(
                                        value[4..].try_into().expect("12-byte value"),
                                    );
                                    if acked.get(&key).is_some_and(|&a| vv < a) {
                                        lost_acked.set(lost_acked.get() + 1);
                                    }
                                }
                                (None, KvResponse::NotFound) => {
                                    if acked.contains_key(&key) {
                                        lost_acked.set(lost_acked.get() + 1);
                                    }
                                }
                                (_, other) => panic!("unexpected response {other:?}"),
                            }
                        }
                        Err(e) => {
                            failed.set(failed.get() + 1);
                            if matches!(e.last, FailureCause::Rejected(_)) {
                                rejected.set(rejected.get() + 1);
                            }
                        }
                    }
                }
            });
        }
    }

    // Sharded tenant-aware poller groups over the shared partition.
    for (g, group) in shard_conns(&server_conns, POLLER_GROUPS)
        .into_iter()
        .enumerate()
    {
        let thread = server_m.thread(format!("pg{g}"));
        let partition = Rc::clone(&part);
        let handler = move |req: &[u8]| {
            let parsed = KvRequest::decode(req).expect("client sent well-formed request");
            let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
            (resp.encode(), work)
        };
        sim.spawn(serve_loop_tenant(
            thread,
            group,
            handler,
            SimSpan::nanos(100),
        ));
    }

    // The fault schedule: a loss burst on the server link, a warm
    // server crash, and a second burst on a client machine while the
    // fleet is re-leasing.
    let restarts = Rc::new(Cell::new(0u64));
    let plan = FaultPlan::new(seed)
        .loss_burst(SimTime::from_nanos(2_000_000), SimSpan::millis(1), 0, 0.25)
        .crash(
            SimTime::from_nanos(5_000_000),
            SimSpan::micros(300),
            0,
            true,
        )
        .loss_burst(SimTime::from_nanos(8_000_000), SimSpan::millis(1), 1, 0.25);
    let hook_conns = server_conns.clone();
    let hook_restarts = Rc::clone(&restarts);
    install(
        &mut sim,
        &cluster,
        &plan,
        InjectorSinks {
            on_restart: Some(Rc::new(move |restart: &Restart| {
                assert!(restart.warm, "this scenario schedules a warm crash");
                hook_restarts.set(hook_restarts.get() + 1);
                for conn in &hook_conns {
                    conn.recover_after_restart();
                }
            })),
            ..InjectorSinks::default()
        },
    );

    sim.run_for(HORIZON);
    Outcome {
        completed: completed.get(),
        acked_puts: acked_puts.get(),
        failed: failed.get(),
        rejected: rejected.get(),
        lost_acked: lost_acked.get(),
        leaks: leaks.get(),
        restarts: restarts.get(),
        leases: muxes.iter().map(|m| m.leases()).sum(),
        evictions: muxes.iter().map(|m| m.evictions()).sum(),
        now_ns: sim.now().as_nanos(),
    }
}

#[test]
fn lease_churn_under_faults_loses_nothing() {
    let out = run_lease_churn(1337);
    assert_eq!(out.lost_acked, 0, "acked write lost: {out:?}");
    assert_eq!(out.leaks, 0, "cross-tenant payload leak: {out:?}");
    assert_eq!(out.restarts, 1, "the warm crash must fire: {out:?}");
    assert!(out.completed > 500, "rig must make progress: {out:?}");
    assert!(out.acked_puts > 100, "rig must commit writes: {out:?}");
    // The whole point: leases moved constantly while faults fired.
    assert!(out.evictions > 100, "rig must churn leases: {out:?}");
    assert!(
        out.leases > out.evictions,
        "every eviction implies a regrant"
    );
}

#[test]
fn lease_churn_is_deterministic_per_seed() {
    let a = run_lease_churn(99);
    let b = run_lease_churn(99);
    assert_eq!(a, b, "same seed must reproduce the same recovery");
    assert_eq!(a.lost_acked, 0);
    assert_eq!(a.leaks, 0);
}
