//! End-to-end test of §3.2's online sampling path: a workload whose
//! result sizes drift mid-run must trigger a re-selection of `F`, after
//! which calls stop paying the second READ.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{connect, serve_loop, OnlineTuner, ParamSelector, RfpConfig, WorkloadSample};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{SimSpan, Simulation};

/// The deployment both tests model: one client thread on one machine,
/// 16 B requests.
fn one_client() -> WorkloadSample {
    WorkloadSample {
        result_sizes: Vec::new(),
        process_time: SimSpan::ZERO,
        request_size: 16,
        client_threads: 1,
        client_machines: 1,
    }
}

#[test]
fn tuner_adapts_fetch_size_to_drifting_results() {
    let mut sim = Simulation::new(21);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let profile = ClusterProfile::paper_testbed();
    let (client, conn) = connect(
        &cm,
        &sm,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        RfpConfig {
            fetch_size: 256,
            resp_capacity: 8192,
            req_capacity: 8192,
            ..RfpConfig::default()
        },
    );
    let client = Rc::new(client);

    // Server: result size controlled by the test.
    let result_size = Rc::new(Cell::new(40usize));
    let rs = Rc::clone(&result_size);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        move |_req: &[u8]| (vec![0xCD; rs.get()], SimSpan::nanos(200)),
        SimSpan::nanos(100),
    ));

    let tuner = Rc::new(OnlineTuner::new(
        ParamSelector::new(profile.nic.clone(), profile.link.clone()),
        64,  // window M
        100, // reselect period
        one_client(),
    ));

    let ct = cm.thread("client");
    let cl = Rc::clone(&client);
    let tn = Rc::clone(&tuner);
    let rs2 = Rc::clone(&result_size);
    let phase2_extra_reads = Rc::new(Cell::new((0u32, 0u32))); // (early, late)
    let counts = Rc::clone(&phase2_extra_reads);
    sim.spawn(async move {
        // Phase 1: small results — the tuner should keep F small.
        for _ in 0..200 {
            let out = cl.call(&ct, b"req").await;
            tn.observe(&cl, &out);
        }
        let f_small = cl.fetch_size();
        assert!(
            f_small < 600,
            "small results should keep F small, got {f_small}"
        );

        // Phase 2: results grow to 700 B — every call pays a second
        // READ until the tuner moves F.
        rs2.set(700);
        let mut early = 0;
        let mut late = 0;
        for i in 0..300u32 {
            let out = cl.call(&ct, b"req").await;
            if out.info.extra_read {
                if i < 64 {
                    early += 1;
                } else if i >= 200 {
                    late += 1;
                }
            }
            tn.observe(&cl, &out);
        }
        counts.set((early, late));
    });

    sim.run_for(SimSpan::millis(20));
    let (early, late) = phase2_extra_reads.get();
    assert!(
        early > 50,
        "before retuning every call double-reads: {early}"
    );
    assert_eq!(late, 0, "after retuning no call should double-read");
    assert!(
        client.fetch_size() >= 716,
        "F must now cover 700B results: {}",
        client.fetch_size()
    );
    assert!(tuner.retunes() >= 1, "at least one retune must have fired");
    assert!(tuner.observed() == 500);
}

#[test]
fn stable_workloads_do_not_flap() {
    // A steady workload: the first selection sticks, no further retunes.
    let mut sim = Simulation::new(22);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let profile = ClusterProfile::paper_testbed();
    let (client, conn) = connect(
        &cm,
        &sm,
        cluster.qp(0, 1),
        cluster.qp(1, 0),
        RfpConfig::default(),
    );
    let client = Rc::new(client);
    let st = sm.thread("server");
    sim.spawn(serve_loop(
        st,
        vec![Rc::new(conn)],
        |_req: &[u8]| (vec![1u8; 48], SimSpan::nanos(200)),
        SimSpan::nanos(100),
    ));
    let tuner = Rc::new(OnlineTuner::new(
        ParamSelector::new(profile.nic.clone(), profile.link.clone()),
        64,
        50,
        one_client(),
    ));
    let ct = cm.thread("client");
    let cl = Rc::clone(&client);
    let tn = Rc::clone(&tuner);
    sim.spawn(async move {
        for _ in 0..400 {
            let out = cl.call(&ct, b"x").await;
            tn.observe(&cl, &out);
        }
    });
    sim.run_for(SimSpan::millis(10));
    assert_eq!(tuner.observed(), 400);
    assert_eq!(
        tuner.retunes(),
        1,
        "exactly the initial selection, then stability"
    );
}
