//! Cross-crate integration: the umbrella crate's re-exports compose, a
//! custom application can be built from the public API alone, and the
//! parameter selector's predictions track the simulator's measurements.

use std::cell::Cell;
use std::rc::Rc;

use rfp_repro::core::{connect, serve_loop, ParamSelector, RfpConfig, WorkloadSample};
use rfp_repro::rnic::{Cluster, ClusterProfile};
use rfp_repro::simnet::{derive_seed, SimSpan, Simulation};
use rfp_repro::workload::ValueSize;

/// A bespoke "counter service" built purely from public APIs.
#[test]
fn custom_service_composes_from_public_api() {
    let mut sim = Simulation::new(derive_seed(1, 2));
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let server_m = cluster.machine(0);

    let counter = Rc::new(Cell::new(0i64));
    let mut conns = Vec::new();
    let mut clients = Vec::new();
    for m in 1..=2 {
        let cm = cluster.machine(m);
        let (cl, sc) = connect(
            &cm,
            &server_m,
            cluster.qp(m, 0),
            cluster.qp(0, m),
            RfpConfig::default(),
        );
        conns.push(Rc::new(sc));
        clients.push((Rc::new(cl), cm.thread(format!("c{m}"))));
    }

    let ctr = Rc::clone(&counter);
    sim.spawn(serve_loop(
        server_m.thread("server"),
        conns,
        move |req: &[u8]| {
            let delta = i64::from_le_bytes(req[..8].try_into().expect("8 bytes"));
            ctr.set(ctr.get() + delta);
            (ctr.get().to_le_bytes().to_vec(), SimSpan::nanos(100))
        },
        SimSpan::nanos(100),
    ));

    let final_values = Rc::new(Cell::new((0i64, 0i64)));
    for (i, (cl, thread)) in clients.into_iter().enumerate() {
        let fv = Rc::clone(&final_values);
        sim.spawn(async move {
            let mut last = 0;
            for _ in 0..100 {
                let out = cl.call(&thread, &1i64.to_le_bytes()).await;
                last = i64::from_le_bytes(out.data[..8].try_into().expect("8 bytes"));
            }
            let mut cur = fv.get();
            if i == 0 {
                cur.0 = last;
            } else {
                cur.1 = last;
            }
            fv.set(cur);
        });
    }

    sim.run_for(SimSpan::millis(5));
    assert_eq!(counter.get(), 200, "all 200 increments must apply");
    let (a, b) = final_values.get();
    assert!(a == 200 || b == 200, "someone observed the final count");
}

/// The closed-form selector model predicts the simulator within a
/// reasonable tolerance — the property that makes pre-run selection
/// meaningful.
#[test]
fn selector_model_tracks_simulated_throughput() {
    let profile = ClusterProfile::paper_testbed();
    let selector = ParamSelector::new(profile.nic.clone(), profile.link.clone());
    let w = WorkloadSample {
        result_sizes: vec![53],
        process_time: SimSpan::nanos(350),
        request_size: 60,
        client_threads: 35,
        client_machines: 7,
    };
    let predicted = selector.rfp_throughput(5, 256, &w, 53).mops;

    // Simulate the same shape via the Jakiro KV system (32 B values ⇒
    // 53 B responses with protocol overhead).
    use rfp_repro::kvstore::{spawn_jakiro, SystemConfig};
    use rfp_repro::workload::WorkloadSpec;
    let cfg = SystemConfig {
        spec: WorkloadSpec {
            key_count: 2_000,
            values: ValueSize::Fixed(32),
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_jakiro(&mut sim, &cfg);
    sim.run_for(SimSpan::millis(1));
    sys.reset_measurements();
    let window = SimSpan::millis(4);
    sim.run_for(window);
    let measured = sys.stats.completed.get() as f64 / window.as_secs_f64() / 1e6;

    let ratio = measured / predicted;
    assert!(
        (0.8..1.25).contains(&ratio),
        "selector model {predicted:.2} vs simulated {measured:.2} MOPS (ratio {ratio:.2})"
    );
}

/// Determinism across the whole stack: identical seeds give identical
/// results, different seeds differ.
#[test]
fn full_stack_determinism() {
    use rfp_repro::kvstore::{spawn_jakiro, SystemConfig};
    use rfp_repro::workload::WorkloadSpec;
    let run = |seed: u64| {
        let cfg = SystemConfig {
            seed,
            spec: WorkloadSpec {
                key_count: 1_000,
                ..WorkloadSpec::paper_default()
            },
            client_machines: 2,
            clients_per_machine: 2,
            ..SystemConfig::default()
        };
        let mut sim = Simulation::new(cfg.seed);
        let sys = spawn_jakiro(&mut sim, &cfg);
        sim.run_for(SimSpan::millis(3));
        (
            sys.stats.completed.get(),
            // The GET/PUT split depends on every sampled coin flip, so
            // it discriminates seeds even when the closed-loop op count
            // does not.
            sys.stats.gets.get(),
            sys.stats.latency.percentile(99.0).map(|s| s.as_nanos()),
            sys.server_machine.nic().counters().inbound_ops,
        )
    };
    assert_eq!(run(7), run(7), "same seed must reproduce bit-for-bit");
    assert_ne!(run(7), run(8), "different seeds must differ");
}
