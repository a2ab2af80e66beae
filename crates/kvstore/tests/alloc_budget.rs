//! Steady-state allocation budget of the key-value data path.
//!
//! `rfp-core`'s budget stops at its echo handler; this one runs the
//! whole KV path — workload draw, request encode, server pickup, store
//! lookup, reply encode into the reactor's lent buffer, fetch into the
//! engine's lent payload, outcome booking — and holds it to no
//! allocation per call: every buffer is reused (DESIGN.md "Allocation
//! rule"). Only a PUT that changes a value's length boxes a copy.
//!
//! The counters are process-global, so this binary holds exactly one
//! test function: a second one running on a parallel thread would be
//! counted into whichever window happened to be open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rfp_kvstore::{spawn_cores_kv, spawn_jakiro, CoresConfig, KvSystem, SystemConfig};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::{OpMix, ValueSize, WorkloadSpec};

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
/// capacity. Under Zipf(0.99) the cold cores' connections reach their
/// peak of calls settled at once (a client payload pool's size), and
/// the latency histograms their spread of values, only slowly: after
/// 1 ms the cores rig still grows them by 0.069 allocations per call
/// over the next 4 ms, after 3 ms by 0.025.
fn allocs_per_call(sim: &mut Simulation, sys: &KvSystem, window: SimSpan) -> f64 {
    sim.run_for(SimSpan::millis(3));
    sys.reset_measurements();
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_for(window);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let calls = sys.stats.completed.get();
    assert!(calls > 1_000, "window too short: {calls} calls");
    allocs as f64 / calls as f64
}

/// Allocations per completed call of Jakiro over 2 000 keys with
/// `spec`'s mix and values.
fn jakiro(spec: WorkloadSpec) -> f64 {
    let cfg = SystemConfig {
        spec: WorkloadSpec {
            key_count: 2000,
            ..spec
        },
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_jakiro(&mut sim, &cfg);
    allocs_per_call(&mut sim, &sys, SimSpan::millis(2))
}

#[test]
fn a_kv_call_allocates_nothing() {
    // Jakiro, GET-only: the headline cell's path without its PUTs.
    let gets = jakiro(WorkloadSpec {
        mix: OpMix { get_fraction: 1.0 },
        ..WorkloadSpec::paper_default()
    });

    // The 4-core reactor with stealing under Zipf(0.99).
    let cfg = CoresConfig {
        skew: Some(0.99),
        ..CoresConfig::default()
    };
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_cores_kv(&mut sim, &cfg);
    let cores = allocs_per_call(&mut sim, &sys, SimSpan::millis(4));

    // Half PUTs of uniform 32–1024 B values: an update that changes a
    // value's length boxes the new value (half the calls, nearly
    // always), and nothing else allocates.
    let mixed = jakiro(WorkloadSpec {
        mix: OpMix::BALANCED,
        values: ValueSize::Uniform { min: 32, max: 1024 },
        ..WorkloadSpec::paper_default()
    });

    eprintln!(
        "allocations per call: jakiro GET {gets:.3}, cores {cores:.3}, jakiro 50 % PUT {mixed:.3}"
    );
    for (name, per_call, budget) in [
        ("spawn_jakiro GET-only", gets, 0.05),
        ("spawn_cores_kv", cores, 0.05),
        ("spawn_jakiro 50 % mixed PUT", mixed, 0.6),
    ] {
        assert!(
            per_call <= budget,
            "{name}: {per_call:.3} allocations per call, budget {budget}"
        );
    }
}
