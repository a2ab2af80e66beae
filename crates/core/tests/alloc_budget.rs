//! Steady-state allocation budget of the simulator hot path.
//!
//! The counters are process-global, so this binary holds exactly one
//! test function: a second one running on a parallel thread would be
//! counted into whichever window happened to be open.
//!
//! Every window opens after a warm-up that lets the timer heap, the
//! ready queue, the per-QP pools and the engine's scratch reach their
//! steady capacity; what is left is what the path pays per event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use rfp_core::{connect, serve_loop, IdlePolicy, RfpClient, RfpConfig, RfpTelemetry, RESP_HDR};
use rfp_rnic::{Cluster, ClusterProfile, Qp};
use rfp_simnet::{ExecutorStats, MetricsRegistry, SimSpan, Simulation, SpanRecorder};

struct CountingAlloc;

// Relaxed: a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is
// a relaxed atomic add, which cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made while `sim` advances by `span`.
fn allocs_during(sim: &mut Simulation, span: SimSpan) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_for(span);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The ledger's `simnet.sleep_event` shape: 100 tasks, each sleeping in
/// a loop. Returns (allocations, sleep events, wakes through a `Waker`)
/// of the measured window.
fn sleeping_tasks() -> (u64, u64, u64) {
    let mut sim = Simulation::new(1);
    let events = Rc::new(Cell::new(0u64));
    for i in 0..100u64 {
        let h = sim.handle();
        let events = Rc::clone(&events);
        sim.spawn(async move {
            loop {
                h.sleep(SimSpan::nanos(100 + i)).await;
                events.set(events.get() + 1);
            }
        });
    }
    sim.run_for(SimSpan::micros(100));
    let (before, waker_wakes) = (events.get(), sim.stats().waker_wakes);
    let allocs = allocs_during(&mut sim, SimSpan::millis(1));
    let waker_wakes = sim.stats().waker_wakes - waker_wakes;
    (allocs, events.get() - before, waker_wakes)
}

/// One client machine and one echoing server thread over `conns`
/// connections of `window` slots, each fetching the whole 32 B response
/// in one READ — reporting into `registry` (counters, one span per
/// call) if given, as every rig client does. Also returns the first
/// client's QP.
fn echo_rig(
    window: usize,
    conns: usize,
    check_cpu: SimSpan,
    registry: Option<&MetricsRegistry>,
) -> (Simulation, Cluster, Vec<RfpClient>, Rc<Qp>) {
    let mut sim = Simulation::new(7);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (sm, cm) = (cluster.machine(0), cluster.machine(1));
    let (mut clients, mut servers, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..conns {
        let cfg = RfpConfig {
            window,
            fetch_size: RESP_HDR + 32,
            enable_mode_switch: false,
            check_cpu,
            telemetry: registry.map(|registry| RfpTelemetry {
                registry: registry.clone(),
                spans: SpanRecorder::new(64),
                prefix: format!("rfp.c{i}"),
                track: i as u32,
            }),
            ..RfpConfig::default()
        };
        let qp = cluster.qp(1, 0);
        let (client, conn) = connect(&cm, &sm, Rc::clone(&qp), cluster.qp(0, 1), cfg);
        clients.push(client);
        servers.push(Rc::new(conn));
        qps.push(qp);
    }
    sim.spawn(serve_loop(
        sm.thread("server"),
        servers,
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        IdlePolicy::fixed(SimSpan::nanos(100)),
    ));
    (sim, cluster, clients, qps.swap_remove(0))
}

/// An idle `serve_loop` over a W=16 ring: every scan inspects 16 slot
/// headers and finds nothing. Returns (allocations, slots scanned, task
/// polls) of the measured window.
fn idle_scan() -> (u64, u64, u64) {
    let (mut sim, _cluster, _clients, _qp) = echo_rig(16, 1, SimSpan::nanos(50), None);
    sim.run_for(SimSpan::micros(100));
    let span = SimSpan::millis(1);
    let polls = sim.stats().polls;
    let allocs = allocs_during(&mut sim, span);
    // 16 × check_cpu (50 ns) + 100 ns spin per empty scan.
    let scans = span.as_nanos() / (16 * 50 + 100);
    (allocs, scans * 16, sim.stats().polls - polls)
}

/// What one measured echo window cost.
struct EchoCost {
    calls: u64,
    allocs: u64,
    /// Executor events of the window.
    events: ExecutorStats,
    /// Work-request slots the first client's QP ever held at once.
    slots: usize,
    client: Rc<RfpClient>,
}

impl EchoCost {
    fn per_call(&self, count: u64) -> f64 {
        count as f64 / self.calls as f64
    }
}

/// The measured echo shapes.
#[derive(Copy, Clone)]
enum Shape {
    /// One client streaming 64-call batches through `call_pipelined` on
    /// a W=16 ring.
    Pipelined,
    /// One client making sequential `call`s on a W=1 ring.
    Sequential,
    /// Jakiro's server thread: six W=1 connections checked at 30 ns,
    /// one sequential client each.
    Jakiro,
}

/// Closed-loop 32 B echo in `shape`.
fn echo_calls(shape: Shape, registry: Option<&MetricsRegistry>) -> EchoCost {
    let (window, conns, check) = match shape {
        Shape::Pipelined => (16, 1, 50),
        Shape::Sequential => (1, 1, 50),
        Shape::Jakiro => (1, 6, 30),
    };
    let (mut sim, cluster, clients, qp) = echo_rig(window, conns, SimSpan::nanos(check), registry);
    let calls = Rc::new(Cell::new(0u64));
    let clients: Vec<_> = clients.into_iter().map(Rc::new).collect();
    for client in &clients {
        let thread = cluster.machine(1).thread("client");
        let (client, done) = (Rc::clone(client), Rc::clone(&calls));
        sim.spawn(async move {
            let reqs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 32]).collect();
            loop {
                if let Shape::Pipelined = shape {
                    let outs = client.call_pipelined(&thread, &reqs).await;
                    assert!(outs.iter().zip(&reqs).all(|(o, r)| o.data == *r));
                    done.set(done.get() + outs.len() as u64);
                } else {
                    let out = client.call(&thread, &reqs[0]).await;
                    assert_eq!(out.data, reqs[0]);
                    done.set(done.get() + 1);
                }
            }
        });
    }
    sim.run_for(SimSpan::millis(2));
    let (calls0, events0) = (calls.get(), sim.stats());
    let allocs = allocs_during(&mut sim, SimSpan::millis(10));
    let events1 = sim.stats();
    EchoCost {
        calls: calls.get() - calls0,
        allocs,
        events: ExecutorStats {
            polls: events1.polls - events0.polls,
            timers_fired: events1.timers_fired - events0.timers_fired,
            spawned: events1.spawned - events0.spawned,
            waker_wakes: events1.waker_wakes - events0.waker_wakes,
        },
        slots: qp.work_request_slots(),
        client: Rc::clone(&clients[0]),
    }
}

#[test]
fn steady_state_allocation_budget() {
    let (sleep_allocs, sleeps, sleep_waker_wakes) = sleeping_tasks();
    let (scan_allocs, slots, scan_polls) = idle_scan();
    let w16 = echo_calls(Shape::Pipelined, None);
    let w1 = echo_calls(Shape::Sequential, None);
    let registry = MetricsRegistry::new();
    let observed = echo_calls(Shape::Sequential, Some(&registry));
    let jakiro = echo_calls(Shape::Jakiro, None);
    let scan_polls = scan_polls as f64 / slots as f64;
    eprintln!(
        "allocations: {sleep_allocs} over {sleeps} sleep events, {scan_allocs} over {slots} \
         idle slots ({scan_polls:.3} polls per idle slot)"
    );
    let rows = [
        ("W=16 call_pipelined", &w16),
        ("W=1 call", &w1),
        ("W=1 call, telemetry on", &observed),
        ("6 x W=1 call", &jakiro),
    ];
    for (name, cost) in rows {
        eprintln!(
            "{name}: per call {:.2} allocations, {:.2} polls, {:.2} timers, {:.2} spawns, \
             {:.2} waker wakes; {} work-request slots",
            cost.per_call(cost.allocs),
            cost.per_call(cost.events.polls),
            cost.per_call(cost.events.timers_fired),
            cost.per_call(cost.events.spawned),
            cost.per_call(cost.events.waker_wakes),
            cost.slots,
        );
    }

    assert!(sleeps > 100_000, "sleep window too short: {sleeps} events");
    assert_eq!(
        sleep_allocs, 0,
        "{sleep_allocs} allocations over {sleeps} sleep events"
    );
    // Every wake of the hot path — a sleep's timer, a completion, a
    // synchronous verb's hand-off — names its task by slot id; one that
    // goes through a `Waker` takes the executor's locked side queue.
    assert_eq!(sleep_waker_wakes, 0, "a sleep woke through its waker");
    assert!(slots > 10_000, "scan window too short: {slots} slots");
    assert_eq!(
        scan_allocs, 0,
        "{scan_allocs} allocations over {slots} idle slots"
    );
    // An idle sweep's looks are not even events: the task runs once to
    // start it, once at its end, once after the spin.
    assert!(
        scan_polls <= 0.15,
        "{scan_polls:.3} polls per idle slot, budget 0.15"
    );
    // Per call: the three owned API payloads (request `Vec`, response
    // `Vec`, `CallResult.data`) plus, pipelined, 1/64 of the batch's
    // result `Vec`. No NIC operation is a task: nothing is spawned, a
    // hop is a typed event rather than a poll, and the QP holds one
    // work-request slot per operation in flight — at most the window.
    // With telemetry on, a call builds and files its span too, whose
    // marks sit inline: no allocation more.
    // A ring look is no poll, and an event only where it can stop the
    // sweep or shares its instant with one: the server task runs at a
    // pending slot, at the end of a sweep and after its spin.
    for (name, cost, allocs, polls, events, window) in [
        ("W=16 call_pipelined", &w16, 4.0, 9.0, 20.5, 16),
        ("W=1 call", &w1, 3.1, 46.0, 96.0, 1),
        ("W=1 call, telemetry on", &observed, 3.1, 46.0, 96.0, 1),
        ("6 x W=1 call", &jakiro, 3.1, 15.0, 33.5, 1),
    ] {
        assert!(cost.calls > 1_000, "{name}: window too short");
        assert!(
            cost.per_call(cost.allocs) <= allocs,
            "{name}: {:.2} allocations per call, budget {allocs}",
            cost.per_call(cost.allocs)
        );
        assert_eq!(cost.events.spawned, 0, "{name}: a task per NIC op");
        assert_eq!(
            cost.events.waker_wakes, 0,
            "{name}: a wake through a `Waker`"
        );
        assert!(
            cost.per_call(cost.events.polls) <= polls,
            "{name}: {:.2} polls per call, budget {polls}",
            cost.per_call(cost.events.polls)
        );
        let heap = cost.events.polls + cost.events.timers_fired;
        assert!(
            cost.per_call(heap) <= events,
            "{name}: {:.2} polls + timers per call, budget {events}",
            cost.per_call(heap)
        );
        assert!(
            (1..=window).contains(&cost.slots),
            "{name}: {} work-request slots for a window of {window}",
            cost.slots
        );
    }
    // Booked once: the connection records into the registry's cell for
    // its prefix, here its alone, which holds one sample per call.
    let booked = registry.histogram("rfp.c0.latency");
    let stats = observed.client.stats();
    let samples = stats.latency.samples().expect("telemetry keeps samples");
    assert!(Rc::ptr_eq(&booked, samples), "the registry reads a copy");
    assert_eq!(booked.len() as u64, stats.calls());
}
