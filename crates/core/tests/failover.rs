//! Replica-router failover: epoch-fenced switchover between two
//! live server endpoints.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, FailoverConfig, RecoveryConfig, ReplicaClient, RfpConfig, RfpServerConn,
};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{FlightRecorder, RetryPolicy, SimSpan, SimTime, Simulation};

/// One client machine plus `servers` server machines, all echoing; the
/// router prefers machine 1 (replica 0) and falls back to the next.
struct Rig {
    sim: Simulation,
    cluster: Cluster,
    router: Rc<ReplicaClient>,
    client_thread: Rc<ThreadCtx>,
    server_conns: Vec<Rc<RfpServerConn>>,
    recorder: FlightRecorder,
}

/// Short budget so a dead replica is abandoned quickly.
fn short_recovery() -> RecoveryConfig {
    RecoveryConfig {
        retry: RetryPolicy::exponential(3, SimSpan::micros(5), SimSpan::micros(50), 0.2),
        ..RecoveryConfig::default()
    }
}

fn rig() -> Rig {
    rig_of(2)
}

fn rig_of(servers: usize) -> Rig {
    let mut sim = Simulation::new(23);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1 + servers);
    let client_m = cluster.machine(0);
    let recorder = FlightRecorder::new(256);
    let mut replicas = Vec::new();
    let mut server_conns = Vec::new();
    for s in 1..=servers {
        let server_m = cluster.machine(s);
        let (cl, sc) = connect(
            &client_m,
            &server_m,
            cluster.qp(0, s),
            cluster.qp(s, 0),
            RfpConfig {
                enable_mode_switch: false,
                recorder: Some(recorder.clone()),
                ..RfpConfig::default()
            },
        );
        cl.set_reconnect(cluster.qp_factory(0, s));
        let sc = Rc::new(sc);
        let st = server_m.thread(format!("server-{s}"));
        sim.spawn(serve_loop(
            st,
            vec![Rc::clone(&sc)],
            |req: &[u8]| (req.to_vec(), SimSpan::nanos(200)),
            SimSpan::nanos(100),
        ));
        server_conns.push(sc);
        replicas.push(Rc::new(cl));
    }
    let router = Rc::new(ReplicaClient::new(
        replicas,
        FailoverConfig {
            recovery: short_recovery(),
            ..FailoverConfig::default()
        },
    ));
    Rig {
        client_thread: client_m.thread("client"),
        sim,
        cluster,
        router,
        server_conns,
        recorder,
    }
}

#[test]
fn healthy_run_sticks_to_the_primary() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..20u32 {
            let out = router.call(&t, &i.to_le_bytes()).await.expect("healthy");
            assert_eq!(out.data, i.to_le_bytes());
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(5));
    assert_eq!(done.get(), 20);
    assert_eq!(r.router.active(), 0);
    assert_eq!(r.router.failovers(), 0);
}

#[test]
fn primary_crash_fails_over_to_the_backup() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    // Promote the backup before the crash, as a failure detector would:
    // its responses then carry epoch 1.
    r.server_conns[1].set_epoch(1);
    r.cluster.machine(1).faults().set_crashed(true);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..10u32 {
            let out = router.call(&t, &i.to_le_bytes()).await.expect("failover");
            assert_eq!(out.data, i.to_le_bytes());
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(20));
    assert_eq!(done.get(), 10);
    assert_eq!(r.router.active(), 1);
    assert!(r.router.failovers() >= 1);
    // The router adopted the promoted replica's epoch...
    assert_eq!(r.router.known_epoch(), 1);
    // ...so if the deposed primary came back at epoch 0, nothing it
    // answers would pass the router's acceptance check.
}

#[test]
fn epoch_fence_self_heals_without_failover() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    // The active replica moves to epoch 3 (say, after a failover chain
    // elsewhere); the router's first epoch-0 call is fenced, adopts the
    // server's epoch from the `Fenced` verdict, and resubmits — all
    // inside one recovery loop, with no replica switch.
    r.server_conns[0].set_epoch(3);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        let out = router.call(&t, b"fence-me").await.expect("heals");
        assert_eq!(out.data, b"fence-me");
        d.set(true);
    });
    r.sim.run_for(SimSpan::millis(5));
    assert!(done.get());
    assert_eq!(r.router.failovers(), 0);
    assert_eq!(r.router.known_epoch(), 3);
    assert!(r.server_conns[0].rejected_fenced() >= 1);
}

#[test]
fn backoff_streak_resets_after_a_successful_failover() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    r.server_conns[1].set_epoch(1);
    r.cluster.machine(1).faults().set_crashed(true);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        // The first call burns the whole retry budget on the dead
        // primary (escalating the failure streak) before the failover
        // succeeds on the backup.
        let out = router.call(&t, b"streak").await.expect("failover");
        assert_eq!(out.data, b"streak");
        d.set(true);
    });
    r.sim.run_for(SimSpan::millis(20));
    assert!(done.get());
    assert!(r.router.failovers() >= 1);
    // The success must clear the escalated-backoff state: otherwise
    // the next transient error after a clean failover starts from the
    // streak the dead replica left behind and over-backs-off.
    assert_eq!(r.router.fail_streak(), 0);
}

/// A router over one replica has nowhere to fail over to: a call
/// against its crashed replica surfaces the first exhausted error —
/// exactly what the bare connection returns under the same policy, at
/// the same instant — instead of "switching" from replica 0 to replica
/// 0 and re-running the recovery schedule once per allowed switch.
#[test]
fn single_replica_surfaces_the_first_exhausted_error() {
    // Runs one doomed call, through the router or straight on its
    // connection, and returns the rig, the error and when it surfaced.
    let doomed = |routed: bool| {
        let mut r = rig_of(1);
        r.cluster.machine(1).faults().set_crashed(true);
        let router = Rc::clone(&r.router);
        let t = Rc::clone(&r.client_thread);
        let out = Rc::new(Cell::new(None));
        let o = Rc::clone(&out);
        r.sim.spawn(async move {
            let err = if routed {
                router.call(&t, b"doomed").await
            } else {
                let conn = router.client();
                conn.call_with_recovery(&t, b"doomed", &short_recovery())
                    .await
            };
            o.set(Some((err.expect_err("the only replica is down"), t.now())));
        });
        r.sim.run_for(SimSpan::millis(5));
        let (err, at) = out.take().expect("the call settled");
        (r, err, at)
    };
    let (r, err, at) = doomed(true);
    let (_, bare_err, bare_at) = doomed(false);
    assert_eq!((err, at), (bare_err, bare_at), "more than one schedule");
    assert!(at > SimTime::ZERO);
    assert_eq!((r.router.failovers(), r.router.active()), (0, 0));
    assert_eq!(r.recorder.kind_count("recovery.failover"), 0);
}

/// Without the gray stage the read entry point is the plain one: a run
/// whose calls enter through `call_read` returns the same results at
/// the same instants, and leaves the same flight record, as one whose
/// calls enter through `call` — healthy, and across a primary crash
/// mid-run.
#[test]
fn call_read_without_the_stage_is_call() {
    let run = |read: bool, crash: bool| {
        let mut r = rig();
        r.server_conns[1].set_epoch(1);
        let router = Rc::clone(&r.router);
        let t = Rc::clone(&r.client_thread);
        let primary = r.cluster.machine(1);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&outcomes);
        r.sim.spawn(async move {
            for i in 0..20u32 {
                if crash && i == 10 {
                    primary.faults().set_crashed(true);
                }
                let req = i.to_le_bytes();
                let res = if read {
                    router.call_read(&t, &req).await
                } else {
                    router.call(&t, &req).await
                };
                out.borrow_mut().push(format!("{:?} {res:?}", t.now()));
            }
        });
        r.sim.run_for(SimSpan::millis(20));
        let mut trace = Vec::new();
        r.recorder.dump(&mut trace).expect("dump events to vec");
        (outcomes.take(), trace)
    };
    for crash in [false, true] {
        let plain = run(false, crash);
        assert_eq!(plain.0.len(), 20, "every call settled");
        assert_eq!(plain, run(true, crash), "crash: {crash}");
    }
}
