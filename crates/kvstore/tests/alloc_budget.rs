//! Steady-state allocation budget of the key-value data path.
//!
//! `rfp-core`'s budget stops at its echo handler; this one runs the
//! whole KV path — workload draw, request encode, server pickup, store
//! lookup, reply encode, fetch, outcome booking — and holds it to the
//! two payloads the API hands out per call: the handler's response
//! `Vec` and `CallResult.data` (DESIGN.md "Allocation rule").
//!
//! The counters are process-global, so this binary holds exactly one
//! test function: a second one running on a parallel thread would be
//! counted into whichever window happened to be open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rfp_kvstore::{spawn_cores_kv, spawn_jakiro, CoresConfig, KvSystem, SystemConfig};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::{OpMix, WorkloadSpec};

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

/// Allocations per completed call over `window` of `sim`, after a
/// warm-up that lets every pool, ring and scratch reach its steady
/// capacity.
fn allocs_per_call(sim: &mut Simulation, sys: &KvSystem, window: SimSpan) -> f64 {
    sim.run_for(SimSpan::millis(1));
    sys.reset_measurements();
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_for(window);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let calls = sys.stats.completed.get();
    assert!(calls > 1_000, "window too short: {calls} calls");
    allocs as f64 / calls as f64
}

#[test]
fn a_kv_call_allocates_only_its_two_api_payloads() {
    // Jakiro, GET-only: the headline cell's path without its PUTs.
    let cfg = SystemConfig {
        spec: WorkloadSpec {
            key_count: 2000,
            mix: OpMix { get_fraction: 1.0 },
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_jakiro(&mut sim, &cfg);
    let jakiro = allocs_per_call(&mut sim, &sys, SimSpan::millis(2));

    // The 4-core reactor with stealing under Zipf(0.99).
    let cfg = CoresConfig {
        skew: Some(0.99),
        ..CoresConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_cores_kv(&mut sim, &cfg);
    let cores = allocs_per_call(&mut sim, &sys, SimSpan::millis(4));

    eprintln!("allocations per call: jakiro {jakiro:.3}, cores {cores:.3}");
    for (name, per_call) in [("spawn_jakiro", jakiro), ("spawn_cores_kv", cores)] {
        assert!(
            per_call <= 2.2,
            "{name}: {per_call:.3} allocations per call, budget 2.2"
        );
    }
}
