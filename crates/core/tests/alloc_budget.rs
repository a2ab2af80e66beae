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

use rfp_core::{connect, serve_loop, IdlePolicy, RfpClient, RfpConfig, RESP_HDR};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{SimSpan, Simulation};

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
/// a loop. Returns (allocations, sleep events) of the measured window.
fn sleeping_tasks() -> (u64, u64) {
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
    let before = events.get();
    let allocs = allocs_during(&mut sim, SimSpan::millis(1));
    (allocs, events.get() - before)
}

/// One client machine, one echoing server thread, one connection of
/// `window` slots fetching the whole 32 B response in one READ.
fn echo_rig(window: usize) -> (Simulation, Cluster, RfpClient) {
    let mut sim = Simulation::new(7);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (sm, cm) = (cluster.machine(0), cluster.machine(1));
    let cfg = RfpConfig {
        window,
        fetch_size: RESP_HDR + 32,
        enable_mode_switch: false,
        ..RfpConfig::default()
    };
    let (client, conn) = connect(&cm, &sm, cluster.qp(1, 0), cluster.qp(0, 1), cfg);
    sim.spawn(serve_loop(
        sm.thread("server"),
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        IdlePolicy::fixed(SimSpan::nanos(100)),
    ));
    (sim, cluster, client)
}

/// An idle `serve_loop` over a W=16 ring: every scan inspects 16 slot
/// headers and finds nothing. Returns (allocations, slots scanned).
fn idle_scan() -> (u64, u64) {
    let (mut sim, _cluster, _client) = echo_rig(16);
    sim.run_for(SimSpan::micros(100));
    let span = SimSpan::millis(1);
    let allocs = allocs_during(&mut sim, span);
    // 16 × check_cpu (50 ns) + 100 ns spin per empty scan.
    let scans = span.as_nanos() / (16 * 50 + 100);
    (allocs, scans * 16)
}

/// Closed-loop 32 B echo: `pipelined` streams 64-call batches through
/// `call_pipelined` on a W=16 ring, otherwise `call` on a W=1 ring.
/// Returns (allocations, calls completed) of the measured window.
fn echo_calls(pipelined: bool) -> (u64, u64) {
    let (mut sim, cluster, client) = echo_rig(if pipelined { 16 } else { 1 });
    let thread = cluster.machine(1).thread("client");
    let calls = Rc::new(Cell::new(0u64));
    let done = Rc::clone(&calls);
    sim.spawn(async move {
        let reqs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 32]).collect();
        loop {
            if pipelined {
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
    sim.run_for(SimSpan::millis(2));
    let before = calls.get();
    let allocs = allocs_during(&mut sim, SimSpan::millis(10));
    (allocs, calls.get() - before)
}

#[test]
fn steady_state_allocation_budget() {
    let (sleep_allocs, sleeps) = sleeping_tasks();
    let (scan_allocs, slots) = idle_scan();
    let (w16_allocs, w16_calls) = echo_calls(true);
    let (w1_allocs, w1_calls) = echo_calls(false);
    let per_call = |allocs: u64, calls: u64| allocs as f64 / calls as f64;
    eprintln!(
        "allocations: {sleep_allocs} over {sleeps} sleep events, {scan_allocs} over {slots} \
         idle slots, {:.2}/call W=16 pipelined, {:.2}/call W=1 sequential",
        per_call(w16_allocs, w16_calls),
        per_call(w1_allocs, w1_calls),
    );

    assert!(sleeps > 100_000, "sleep window too short: {sleeps} events");
    assert_eq!(
        sleep_allocs, 0,
        "{sleep_allocs} allocations over {sleeps} sleep events"
    );
    assert!(slots > 10_000, "scan window too short: {slots} slots");
    assert_eq!(
        scan_allocs, 0,
        "{scan_allocs} allocations over {slots} idle slots"
    );
    for (name, allocs, calls) in [
        ("W=16 call_pipelined", w16_allocs, w16_calls),
        ("W=1 call", w1_allocs, w1_calls),
    ] {
        assert!(calls > 1_000, "{name}: window too short: {calls} calls");
        assert!(
            per_call(allocs, calls) <= 8.0,
            "{name}: {:.2} allocations per call ({allocs} over {calls} calls), budget 8",
            per_call(allocs, calls)
        );
    }
}
