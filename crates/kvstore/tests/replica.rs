//! Primary/backup replication end-to-end: sync log shipping, epoch
//! promotion, and failover through the replica router.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_core::{
    connect, CallPolicy, CallResult, FailoverConfig, OverloadConfig, RecoveryConfig, ReplicaClient,
    RespStatus, RfpClient, RfpConfig, RfpServerConn, RfpTelemetry, RpcError,
};
use rfp_kvstore::replica::{
    backup_serve_loop, primary_serve_loop, AckPolicy, BackupRole, PrimaryRole, ReplicationConfig,
};
use rfp_kvstore::{KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{MetricsRegistry, RetryPolicy, SimSpan, SimTime, Simulation, SpanRecorder};

/// Machine 0 = primary, 1 = backup, 2 = client.
struct Rig {
    sim: Simulation,
    cluster: Cluster,
    router: Rc<ReplicaClient>,
    client_thread: Rc<ThreadCtx>,
    primary_part: Rc<RefCell<Partition>>,
    backup_part: Rc<RefCell<Partition>>,
    primary_role: Rc<PrimaryRole>,
    backup_role: Rc<BackupRole>,
    backup_client_conns: Vec<Rc<RfpServerConn>>,
    /// Direct (unrouted) links to the primary, one thread each; the
    /// router owns the first.
    primary_clients: Vec<(Rc<RfpClient>, Rc<ThreadCtx>)>,
    primary_conns: Vec<Rc<RfpServerConn>>,
}

fn plain_cfg() -> RfpConfig {
    RfpConfig {
        enable_mode_switch: false,
        ..RfpConfig::default()
    }
}

fn short_recovery(seed: u64) -> RecoveryConfig {
    RecoveryConfig {
        retry: RetryPolicy::exponential(3, SimSpan::micros(5), SimSpan::micros(50), 0.2),
        seed,
    }
}

fn rig(ack: AckPolicy) -> Rig {
    rig_with(ack, plain_cfg(), 1)
}

/// The pair plus `clients` client links to the primary tuned by
/// `client_cfg` (the log channel stays plain).
fn rig_with(ack: AckPolicy, client_cfg: RfpConfig, clients: usize) -> Rig {
    let mut sim = Simulation::new(77);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let (primary_m, backup_m, client_m) =
        (cluster.machine(0), cluster.machine(1), cluster.machine(2));

    let primary_part = Rc::new(RefCell::new(Partition::new(256)));
    let backup_part = Rc::new(RefCell::new(Partition::new(256)));
    let primary_role = Rc::new(PrimaryRole::default());
    let backup_role = Rc::new(BackupRole::default());

    // The dedicated replication link, primary -> backup.
    let (ship, repl_conn) = connect(
        &primary_m,
        &backup_m,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        plain_cfg(),
    );
    ship.set_reconnect(cluster.qp_factory(0, 1));

    // Client links to both replicas.
    let mut primary_clients = Vec::new();
    let mut primary_conns = Vec::new();
    for c in 0..clients {
        let cfg = RfpConfig {
            conn_id: c as u32,
            ..client_cfg.clone()
        };
        let (cl, conn) = connect(
            &client_m,
            &primary_m,
            cluster.qp(2, 0),
            cluster.qp(0, 2),
            cfg,
        );
        cl.set_reconnect(cluster.qp_factory(2, 0));
        let name = if c == 0 {
            "client".into()
        } else {
            format!("client{c}")
        };
        primary_clients.push((Rc::new(cl), client_m.thread(name)));
        primary_conns.push(Rc::new(conn));
    }
    let (cl_b, backup_conn) = connect(
        &client_m,
        &backup_m,
        cluster.qp(2, 1),
        cluster.qp(1, 2),
        plain_cfg(),
    );
    cl_b.set_reconnect(cluster.qp_factory(2, 1));
    let replicas = vec![Rc::clone(&primary_clients[0].0), Rc::new(cl_b)];
    let backup_client_conns = vec![Rc::new(backup_conn)];

    sim.spawn(primary_serve_loop(
        primary_m.thread("primary"),
        primary_conns.clone(),
        Rc::clone(&primary_part),
        Rc::new(ship),
        ReplicationConfig { ack },
        Rc::clone(&primary_role),
        SimSpan::nanos(100),
    ));
    sim.spawn(backup_serve_loop(
        backup_m.thread("backup"),
        Rc::new(repl_conn),
        backup_client_conns.clone(),
        Rc::clone(&backup_part),
        Rc::clone(&backup_role),
        SimSpan::nanos(100),
    ));

    let router = Rc::new(ReplicaClient::new(
        replicas,
        FailoverConfig {
            recovery: short_recovery(0xB22),
            ..FailoverConfig::default()
        },
    ));
    Rig {
        client_thread: Rc::clone(&primary_clients[0].1),
        sim,
        cluster,
        router,
        primary_part,
        backup_part,
        primary_role,
        backup_role,
        backup_client_conns,
        primary_clients,
        primary_conns,
    }
}

fn put(i: u32) -> Vec<u8> {
    KvRequest::Put {
        key: format!("k{i}").into_bytes().as_slice(),
        value: format!("v{i}").into_bytes().as_slice(),
    }
    .encode()
}

#[test]
fn sync_replication_ships_every_put() {
    let mut r = rig(AckPolicy::Sync);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..10u32 {
            let out = router.call(&t, &put(i)).await.expect("healthy put");
            assert_eq!(KvResponse::decode(&out.data).unwrap(), KvResponse::Stored);
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    assert_eq!(done.get(), 10);
    assert_eq!(r.primary_role.shipped_entries.get(), 10);
    assert_eq!(r.backup_role.applied.get(), 10);
    assert!(!r.primary_role.solo.get());
    // Every acked PUT is already on the backup — the sync invariant.
    for i in 0..10u32 {
        let key = format!("k{i}").into_bytes();
        assert_eq!(
            r.backup_part.borrow_mut().get(&key),
            Some(format!("v{i}").as_bytes()),
            "k{i} missing on backup"
        );
    }
}

#[test]
fn primary_crash_promotes_backup_with_replicated_data() {
    let mut r = rig(AckPolicy::Sync);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let cluster_primary = r.cluster.machine(0);
    let backup_role = Rc::clone(&r.backup_role);
    let backup_conns = r.backup_client_conns.clone();
    let phase = Rc::new(Cell::new(0u32));
    let ph = Rc::clone(&phase);
    r.sim.spawn(async move {
        // Phase 1: replicate five writes through the primary.
        for i in 0..5u32 {
            router.call(&t, &put(i)).await.expect("pre-crash put");
        }
        ph.set(1);
        // The failure detector: crash the primary, promote the backup
        // into epoch 1.
        cluster_primary.faults().set_crashed(true);
        backup_role.promote(&backup_conns, 1);
        // Phase 2: reads and writes continue against the promoted
        // backup; pre-crash acked writes are all there.
        for i in 0..5u32 {
            let req = KvRequest::Get {
                key: format!("k{i}").into_bytes().as_slice(),
            }
            .encode();
            let out = router.call(&t, &req).await.expect("post-failover get");
            assert_eq!(
                KvResponse::decode(&out.data).unwrap(),
                KvResponse::Found(format!("v{i}").into_bytes()),
                "acked write k{i} lost in failover"
            );
        }
        let out = router.call(&t, &put(99)).await.expect("post-failover put");
        assert_eq!(KvResponse::decode(&out.data).unwrap(), KvResponse::Stored);
        ph.set(2);
    });
    r.sim.run_for(SimSpan::millis(50));
    assert_eq!(phase.get(), 2);
    assert_eq!(r.router.active(), 1);
    assert!(r.router.failovers() >= 1);
    assert_eq!(r.router.known_epoch(), 1);
    // The post-failover write landed on the backup, not the primary.
    assert_eq!(
        r.backup_part.borrow_mut().get(b"k99".as_slice()),
        Some(b"v99".as_slice())
    );
    assert_eq!(r.primary_part.borrow_mut().get(b"k99".as_slice()), None);
}

#[test]
fn backup_crash_demotes_primary_to_solo() {
    let mut r = rig(AckPolicy::Sync);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let cluster_backup = r.cluster.machine(1);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..3u32 {
            router.call(&t, &put(i)).await.expect("replicated put");
        }
        cluster_backup.faults().set_crashed(true);
        // Writes keep succeeding: the primary exhausts its ship budget,
        // declares the backup dead, and serves solo.
        for i in 3..6u32 {
            router.call(&t, &put(i)).await.expect("solo put");
        }
        d.set(1);
    });
    r.sim.run_for(SimSpan::millis(50));
    assert_eq!(done.get(), 1);
    assert!(r.primary_role.solo.get());
    assert_eq!(r.primary_role.shipped_entries.get(), 3);
    for i in 0..6u32 {
        let key = format!("k{i}").into_bytes();
        assert!(r.primary_part.borrow_mut().get(&key).is_some(), "k{i} lost");
    }
}

#[test]
fn async_ack_does_not_hold_responses() {
    let mut r = rig(AckPolicy::Async);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..8u32 {
            router.call(&t, &put(i)).await.expect("async put");
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    assert_eq!(done.get(), 8);
    // The log still ships (at scan end), just off the ack path.
    assert_eq!(r.primary_role.shipped_entries.get(), 8);
    assert_eq!(r.backup_role.applied.get(), 8);
}

/// The hold stage releases every held reply into the slot its request
/// was picked up from: one pipelined batch of 8 PUTs over a W=4 ring
/// against a `Sync` primary completes, and no PUT is acked before the
/// backup applied it. (The client accepts a response only under its
/// own call's seq, so a reply posted into another request's slot
/// completes nothing — which is how sending every held reply through
/// the connection-global marker stranded such a batch.) `run` with the
/// default policy is `call_pipelined` with a per-completion sink.
#[test]
fn sync_primary_answers_a_pipelined_window_slot_by_slot() {
    let cfg = RfpConfig {
        window: 4,
        ..plain_cfg()
    };
    let mut r = rig_with(AckPolicy::Sync, cfg, 1);
    let (client, t) = r.primary_clients[0].clone();
    let backup_part = Rc::clone(&r.backup_part);
    let acked = Rc::new(Cell::new(0u32));
    let a = Rc::clone(&acked);
    r.sim.spawn(async move {
        let reqs: Vec<Vec<u8>> = (0..8).map(put).collect();
        let sink = |i: usize, out: Result<CallResult, RpcError>| {
            let out = out.expect("healthy put");
            assert_eq!(KvResponse::decode(&out.data).unwrap(), KvResponse::Stored);
            let key = format!("k{i}").into_bytes();
            assert_eq!(
                backup_part.borrow_mut().get(&key),
                Some(format!("v{i}").as_bytes()),
                "k{i} acked before the backup applied it"
            );
            a.set(a.get() + 1);
        };
        client.run(&t, &reqs, CallPolicy::default(), sink).await;
    });
    r.sim.run_for(SimSpan::millis(1));
    assert_eq!(acked.get(), 8, "pipelined PUTs still unanswered after 1 ms");
    // One reply per request, each executed once and shipped once.
    assert_eq!(r.primary_conns[0].served(), 8);
    assert_eq!(r.primary_role.applied_mutations.get(), 8);
    assert_eq!(r.backup_role.applied.get(), 8);
}

/// One admission-controlled PUT of `k{i}`; an `Ok` must already be on
/// the backup when it returns.
async fn put_checked(
    client: &RfpClient,
    t: &ThreadCtx,
    backup_part: &RefCell<Partition>,
    i: u32,
) -> RespStatus {
    let out = client.call_overload(t, &put(i), None).await;
    if out.info.status == RespStatus::Ok {
        let key = format!("k{i}").into_bytes();
        let on_backup = backup_part.borrow_mut().get(&key).is_some();
        assert!(on_backup, "k{i} acked before the backup applied it");
    }
    out.info.status
}

/// A replicated primary is the same scan as every other server, so it
/// honours admission: with overload control on its connections it
/// advertises credits, busy-rejects beyond the queue bound and sheds
/// expired requests at the cost of two in-bound and zero out-bound NIC
/// ops, and still never acks an unreplicated write.
#[test]
fn replicated_primary_honours_admission() {
    let registry = MetricsRegistry::new();
    let cfg = RfpConfig {
        overload: Some(OverloadConfig {
            queue_limit: 1,
            ..OverloadConfig::default()
        }),
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: SpanRecorder::new(64),
            prefix: "rfp.client".into(),
            track: 0,
        }),
        ..plain_cfg()
    };
    let mut r = rig_with(AckPolicy::Sync, cfg, 4);
    let contend_at = SimTime::ZERO + SimSpan::micros(300);
    let finished = Rc::new(Cell::new(0usize));
    let shed_cost = Rc::new(Cell::new(None));
    for (c, (client, t)) in r.primary_clients.iter().cloned().enumerate() {
        let backup_part = Rc::clone(&r.backup_part);
        let (finished, shed_cost) = (Rc::clone(&finished), Rc::clone(&shed_cost));
        let (registry, primary_m) = (registry.clone(), r.cluster.machine(0));
        r.sim.spawn(async move {
            if c == 0 {
                // Alone, every reply carries the idle credit level: a
                // client that read zero would pause before its next
                // call.
                for i in 0..4 {
                    let status = put_checked(&client, &t, &backup_part, i).await;
                    assert_eq!(status, RespStatus::Ok);
                }
                let waited = registry
                    .names()
                    .iter()
                    .any(|n| n == "overload.credit_waits");
                assert!(!waited, "an idle primary advertised zero credits");
            }
            // Four closed-loop writers against a queue bound of one.
            t.handle().sleep(contend_at - t.now()).await;
            for i in 0..20 {
                put_checked(&client, &t, &backup_part, 100 * (c as u32 + 1) + i).await;
            }
            finished.set(finished.get() + 1);
            if c != 0 {
                return;
            }
            // Quiet again: one request stamped with an expired deadline
            // is shed, and the primary's NIC saw its WRITE and one
            // verdict-bearing READ — nothing out-bound.
            while finished.get() < 4 {
                t.handle().sleep(SimSpan::micros(10)).await;
            }
            t.handle().sleep(SimSpan::micros(100)).await;
            let before = primary_m.nic().counters();
            let out = client.call_overload(&t, &put(999), Some(t.now())).await;
            assert_eq!(out.info.status, RespStatus::Shed, "expired call must shed");
            let after = primary_m.nic().counters();
            shed_cost.set(Some((
                after.inbound_ops - before.inbound_ops,
                after.outbound_ops - before.outbound_ops,
            )));
        });
    }
    r.sim.run_for(SimSpan::millis(20));
    assert_eq!(shed_cost.get(), Some((2, 0)), "cost of one rejection");
    let busy: u64 = r.primary_conns.iter().map(|c| c.rejected_busy()).sum();
    assert!(busy > 0, "a queue bound of one never turned a writer away");
    // No reply ever left through the out-bound engine: the primary's
    // only out-bound ops are its own log shipments.
    for conn in &r.primary_conns {
        assert_eq!(conn.replied_out_of_band(), 0);
    }
    assert!(r
        .primary_part
        .borrow_mut()
        .get(b"k999".as_slice())
        .is_none());
    assert!(!r.primary_role.solo.get());
}
