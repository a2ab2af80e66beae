//! N=1 reactor ≡ legacy serve loops, byte for byte.
//!
//! The multi-core refactor folded three serve-loop variants (the
//! classic scan, the admission-swept batch drain, the per-tenant
//! poller loop) into one [`Reactor`](rfp_core::Reactor). The refactor
//! contract is that a single-core reactor replays the legacy loops
//! *event for event*: same try_recv order, same busy charges, same
//! crash checks, same credit stamps, same idle backoff. This test pins
//! that contract the way `prop_mux` pins the mux veneer: frozen
//! verbatim copies of the pre-refactor loops run against the reactor
//! under randomized knobs (policy, ring window, idle backoff, client
//! count, payload sizes, a server crash-and-restart window, a straggler
//! interval), and every observable surface — virtual clock, full
//! registry snapshot, NIC counters, every response payload — must
//! compare equal. Both arms make their slot looks through the same
//! one-ring sweep (`try_recv`); what is compared is the skeleton around
//! them — the reactor's cursor of claims, receives and crash checks
//! against the frozen task loops.
//!
//! The domain is one connection, or any number of one-slot rings
//! (`m == 1 || W == 1`). A multi-ring reactor sweep with `W > 1` looks
//! at all but one ring only from its head, where the legacy loops scan
//! every ring round-robin, so there the two differ by design.

use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;

use rfp_core::{
    admit, connect, credits_for, serve_loop, serve_loop_tenant, Admission, IdlePolicy,
    OverloadConfig, RespStatus, RfpClient, RfpConfig, RfpHandler, RfpServerConn, RfpTelemetry,
    TenantCredits,
};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// Which admission discipline the scenario runs (and which frozen
/// legacy loop the reactor is compared against).
#[derive(Copy, Clone, Debug)]
enum Policy {
    Plain,
    Overload,
    Tenant,
}

/// Everything observable about one run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    now_ns: u64,
    registry_csv: String,
    spans_recorded: u64,
    nics: Vec<rfp_rnic::NicCounters>,
    /// Every response payload (or rejection marker), per client, in
    /// call order.
    responses: Vec<Vec<Vec<u8>>>,
}

/// `IdlePolicy::next_nap`, reimplemented from its public contract (the
/// method itself is crate-private): zero without backoff, else doubling
/// from `spin` up to `max_nap`.
fn next_nap(idle: &IdlePolicy, prev: SimSpan) -> SimSpan {
    if idle.max_nap.is_zero() {
        return SimSpan::ZERO;
    }
    if prev.is_zero() {
        idle.spin.min(idle.max_nap)
    } else {
        SimSpan::nanos(prev.as_nanos().saturating_mul(2)).min(idle.max_nap)
    }
}

/// Frozen copy of the pre-reactor `serve_loop_plain`.
async fn legacy_plain(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    mut handler: impl RfpHandler,
    idle: IdlePolicy,
) {
    let mut nap = SimSpan::ZERO;
    loop {
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(thread.handle().sleep(idle.spin.max(SimSpan::micros(1))))
                .await;
            continue;
        }
        let mut served_any = false;
        'conns: for conn in &conns {
            for _ in 0..conn.window() {
                if thread.machine().faults().is_crashed() {
                    break 'conns;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                let (resp, process) = handler.handle(&req);
                if !process.is_zero() {
                    thread.busy(process).await;
                }
                if thread.machine().faults().is_crashed() {
                    break 'conns;
                }
                conn.send(&thread, &resp).await;
                served_any = true;
            }
        }
        if !served_any {
            thread.busy(idle.spin).await;
            nap = next_nap(&idle, nap);
            if !nap.is_zero() {
                thread.idle_wait(thread.handle().sleep(nap)).await;
            }
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

/// Frozen copy of the pre-reactor `serve_loop_overload`.
async fn legacy_overload(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    mut handler: impl RfpHandler,
    idle: IdlePolicy,
    // The legacy loop read this via the (crate-private) conn accessor;
    // the test passes the identical config in from the rig instead.
    ov: OverloadConfig,
) {
    let mut advertised = credits_for(0);
    let mut nap = SimSpan::ZERO;
    loop {
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(thread.handle().sleep(idle.spin.max(SimSpan::micros(1))))
                .await;
            continue;
        }
        let mut served_any = false;
        let mut crashed = false;
        let mut admitted: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut backlog = 0usize;
        'sweep: for (i, conn) in conns.iter().enumerate() {
            for _ in 0..conn.window() {
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    break 'sweep;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                backlog += 1;
                match admit(&ov, thread.now(), conn.current_deadline(), admitted.len()) {
                    Admission::Admit => admitted.push((i, req)),
                    Admission::Busy => {
                        conn.set_advertised_credits(0);
                        conn.reject(&thread, RespStatus::Busy).await;
                        served_any = true;
                    }
                    Admission::Shed => {
                        conn.set_advertised_credits(advertised);
                        conn.reject(&thread, RespStatus::Shed).await;
                        served_any = true;
                    }
                }
            }
        }
        advertised = credits_for(backlog);
        if !crashed {
            for (i, req) in admitted {
                if thread.machine().faults().is_crashed() {
                    break;
                }
                let (resp, process) = handler.handle(&req);
                if !process.is_zero() {
                    thread.busy(process).await;
                }
                if thread.machine().faults().is_crashed() {
                    break;
                }
                conns[i].set_advertised_credits(advertised);
                conns[i].send(&thread, &resp).await;
                served_any = true;
            }
        }
        if !served_any {
            thread.busy(idle.spin).await;
            nap = next_nap(&idle, nap);
            if !nap.is_zero() {
                thread.idle_wait(thread.handle().sleep(nap)).await;
            }
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

/// Frozen copy of the pre-reactor `serve_loop_tenant`.
async fn legacy_tenant(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    mut handler: impl RfpHandler,
    idle: IdlePolicy,
    ov: OverloadConfig,
) {
    let credits = TenantCredits::new();
    let mut nap = SimSpan::ZERO;
    loop {
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(thread.handle().sleep(idle.spin.max(SimSpan::micros(1))))
                .await;
            continue;
        }
        let mut served_any = false;
        let mut crashed = false;
        credits.begin_scan();
        let mut admitted: Vec<(usize, Option<u32>, Vec<u8>)> = Vec::new();
        'sweep: for (i, conn) in conns.iter().enumerate() {
            for _ in 0..conn.window() {
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    break 'sweep;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                let tenant = conn.current_tenant();
                match credits.admit(&ov, thread.now(), conn.current_deadline(), tenant) {
                    Admission::Admit => admitted.push((i, tenant, req)),
                    Admission::Busy => {
                        conn.set_advertised_credits(0);
                        conn.reject(&thread, RespStatus::Busy).await;
                        served_any = true;
                    }
                    Admission::Shed => {
                        conn.set_advertised_credits(credits.credits(tenant));
                        conn.reject(&thread, RespStatus::Shed).await;
                        served_any = true;
                    }
                }
            }
        }
        if !crashed {
            for (i, tenant, req) in admitted {
                if thread.machine().faults().is_crashed() {
                    break;
                }
                let (resp, process) = handler.handle(&req);
                if !process.is_zero() {
                    thread.busy(process).await;
                }
                if thread.machine().faults().is_crashed() {
                    break;
                }
                conns[i].set_advertised_credits(credits.credits(tenant));
                conns[i].send(&thread, &resp).await;
                served_any = true;
            }
        }
        if !served_any {
            thread.busy(idle.spin).await;
            nap = next_nap(&idle, nap);
            if !nap.is_zero() {
                thread.idle_wait(thread.handle().sleep(nap)).await;
            }
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

struct Scenario {
    seed: u64,
    policy: Policy,
    m: usize,
    window: usize,
    calls: usize,
    sizes: Vec<usize>,
    adaptive: bool,
    queue_limit: usize,
    deadline_us: u64,
    /// The server machine crashes at this instant (ns) and restarts
    /// warm this much later.
    crash: Option<(u64, u64)>,
    /// The server machine straggles by this factor over this window
    /// (start ns, length ns).
    straggle: Option<(u64, u64, f64)>,
}

/// Runs the scenario with the reactor-backed entry points
/// (`legacy = false`) or the frozen pre-refactor loops
/// (`legacy = true`). Rig construction is identical in both arms.
fn run(sc: &Scenario, legacy: bool) -> Observed {
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(1024);
    let mut sim = Simulation::new(sc.seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    cluster.attach_metrics(&registry);

    let overload_on = !matches!(sc.policy, Policy::Plain);
    let mut clients: Vec<Rc<RfpClient>> = Vec::new();
    let mut conns: Vec<Rc<RfpServerConn>> = Vec::new();
    let mut ov0: Option<OverloadConfig> = None;
    for i in 0..sc.m {
        let ov = overload_on.then(|| OverloadConfig {
            queue_limit: sc.queue_limit,
            deadline: SimSpan::micros(sc.deadline_us),
            seed: rfp_simnet::derive_seed(sc.seed, 0x0CAFE + i as u64),
            ..OverloadConfig::default()
        });
        if i == 0 {
            ov0 = ov.clone();
        }
        let cfg = RfpConfig {
            window: sc.window,
            overload: ov,
            telemetry: Some(RfpTelemetry {
                registry: registry.clone(),
                spans: spans.clone(),
                prefix: format!("rfp.client.{i}"),
                track: i as u32,
            }),
            conn_id: i as u32,
            ..RfpConfig::default()
        };
        let (cl, sc_conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
        if matches!(sc.policy, Policy::Tenant) {
            cl.set_tenant(Some(i as u32 % 2));
        }
        clients.push(Rc::new(cl));
        conns.push(Rc::new(sc_conn));
    }

    // One server thread owning every connection: the N=1 core shape
    // the identity contract covers.
    let st = sm.thread("server");
    let idle = if sc.adaptive {
        IdlePolicy::adaptive(SimSpan::nanos(100), SimSpan::micros(100))
    } else {
        IdlePolicy::fixed(SimSpan::nanos(100))
    };
    let handler = |req: &[u8]| (req.to_vec(), SimSpan::micros(1));
    match (sc.policy, legacy) {
        (Policy::Plain, false) | (Policy::Overload, false) => {
            sim.spawn(serve_loop(st, conns.clone(), handler, idle));
        }
        (Policy::Tenant, false) => {
            sim.spawn(serve_loop_tenant(st, conns.clone(), handler, idle));
        }
        (Policy::Plain, true) => {
            sim.spawn(legacy_plain(st, conns.clone(), handler, idle));
        }
        (Policy::Overload, true) => {
            sim.spawn(legacy_overload(
                st,
                conns.clone(),
                handler,
                idle,
                ov0.clone().expect("overload-controlled conns"),
            ));
        }
        (Policy::Tenant, true) => {
            sim.spawn(legacy_tenant(
                st,
                conns.clone(),
                handler,
                idle,
                ov0.clone().expect("overload-controlled conns"),
            ));
        }
    }

    // Faults, identical in both arms: a warm crash-and-restart window
    // (connections rebuild their dedup state at the restart, as the
    // chaos harness's restart hook does) and a straggler interval.
    if let Some((at, down)) = sc.crash {
        let (h, sm, conns) = (sim.handle(), Rc::clone(&sm), conns.clone());
        sim.spawn(async move {
            h.sleep(SimSpan::nanos(at)).await;
            sm.faults().set_crashed(true);
            h.sleep(SimSpan::nanos(down)).await;
            for conn in &conns {
                conn.recover_after_restart();
            }
            sm.faults().set_crashed(false);
        });
    }
    if let Some((at, len, factor)) = sc.straggle {
        let (h, sm) = (sim.handle(), Rc::clone(&sm));
        sim.spawn(async move {
            h.sleep(SimSpan::nanos(at)).await;
            sm.faults().set_cpu_factor(factor);
            h.sleep(SimSpan::nanos(len)).await;
            sm.faults().set_cpu_factor(1.0);
        });
    }

    let responses: Rc<std::cell::RefCell<Vec<Vec<Vec<u8>>>>> =
        Rc::new(std::cell::RefCell::new(vec![Vec::new(); sc.m]));
    for i in 0..sc.m {
        let t = cm.thread(format!("task{i}"));
        let client = Rc::clone(&clients[i]);
        let sizes = sc.sizes.clone();
        let calls = sc.calls;
        let out = Rc::clone(&responses);
        let pipelined = matches!(sc.policy, Policy::Plain) && sc.window > 1;
        let overload = overload_on;
        sim.spawn(async move {
            if pipelined {
                // One batch through the ring: multiple slots of one
                // connection pending in a single server scan.
                let reqs: Vec<Vec<u8>> = (0..calls)
                    .map(|k| {
                        let len = sizes[(i + k) % sizes.len()];
                        (0..len).map(|b| (b + i * 31 + k) as u8).collect()
                    })
                    .collect();
                let outs = client.call_pipelined(&t, &reqs).await;
                for o in outs {
                    out.borrow_mut()[i].push(o.data);
                }
                return;
            }
            for k in 0..calls {
                let len = sizes[(i + k) % sizes.len()];
                let payload: Vec<u8> = (0..len).map(|b| (b + i * 31 + k) as u8).collect();
                if overload {
                    let r = client.call_overload(&t, &payload, None).await;
                    // Rejections observe as status markers so both arms
                    // must reject identically, not just serve
                    // identically.
                    let data = match r.info.status {
                        RespStatus::Ok => r.data,
                        s => vec![0xEE, s as u8],
                    };
                    out.borrow_mut()[i].push(data);
                } else {
                    let r = client.call(&t, &payload).await;
                    out.borrow_mut()[i].push(r.data);
                }
            }
        });
    }
    sim.run_for(SimSpan::millis(3));

    let mut registry_csv = Vec::new();
    registry
        .snapshot()
        .write_csv(&mut registry_csv)
        .expect("render snapshot");
    Observed {
        now_ns: sim.now().as_nanos(),
        registry_csv: String::from_utf8(registry_csv).expect("csv is utf8"),
        spans_recorded: spans.recorded(),
        nics: (0..2)
            .map(|i| cluster.machine(i).nic().counters())
            .collect(),
        // A client still waiting at the horizon (a late crash) keeps its
        // handle: compare what was answered so far.
        responses: Rc::unwrap_or_clone(responses).into_inner(),
    }
}

proptest! {
    /// Single-core reactor ≡ frozen legacy loops, observably everywhere.
    #[test]
    fn single_core_reactor_is_byte_identical_to_legacy_loops(
        seed in 0u64..200,
        policy_pick in 0usize..3,
        m in 1usize..4,
        wexp in 0usize..3,
        calls in 1usize..5,
        sizes in vec(1usize..96, 1..4),
        adaptive in any::<bool>(),
        queue_limit in 1usize..8,
        deadline_tight in any::<bool>(),
        crash in any::<bool>(),
        crash_at in 0u64..2_500_000,
        crash_down in 1_000u64..300_000,
        straggle in any::<bool>(),
        straggle_at in 0u64..2_500_000,
        straggle_len in 1_000u64..500_000,
        straggle_factor in 1.0f64..4.0,
    ) {
        prop_assume!(m == 1 || wexp == 0);
        let sc = Scenario {
            seed,
            policy: [Policy::Plain, Policy::Overload, Policy::Tenant][policy_pick],
            m,
            window: 1usize << wexp,
            calls,
            sizes,
            adaptive,
            queue_limit,
            deadline_us: if deadline_tight { 5 } else { 1_000 },
            crash: crash.then_some((crash_at, crash_down)),
            straggle: straggle.then_some((straggle_at, straggle_len, straggle_factor)),
        };
        let reactor = run(&sc, false);
        let frozen = run(&sc, true);
        prop_assert_eq!(&reactor, &frozen);
    }
}
