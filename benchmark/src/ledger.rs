//! The end-to-end pass: equal sim-time windows on one rig, both clocks
//! read around each.
//!
//! Sim-clock and allocation figures are taken over the first
//! [`LEDGER_WINDOWS`] windows — a fixed amount of simulated work, so
//! they repeat bit for bit for a seed. The host clock keeps sampling
//! further windows until the requested wall-clock budget is spent and
//! reports the median window.

use std::time::{Duration, Instant};

use rfp_simnet::SimSpan;

use crate::host::{iqr_pct, median, peak_rss_mib, ref_iter_ns, AllocSnapshot};
use crate::rigs::{percentile_us, Rig, Workload};

/// Windows the deterministic part of the ledger spans.
pub const LEDGER_WINDOWS: usize = 21;

/// Fresh rig constructions `setup_s` is the median of.
pub const SETUPS: usize = 9;

/// Builds the rig [`SETUPS`] times; returns the last one, warm and
/// reset, plus the median set-up time in seconds.
pub fn timed_set_up(w: &Workload, seed: u64) -> (Rig, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(w.set_up(seed, false));
        times.push(t0.elapsed().as_secs_f64());
    }
    (rig.expect("SETUPS > 0"), median(&times))
}

/// The modelled system's figures over everything since the rig's
/// reset. `PartialEq` on the raw floats is deliberate: two runs of one
/// seed must agree exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Calls completed.
    pub completed: u64,
    /// Calls refused or answered wrongly.
    pub failed: u64,
    /// Completed calls per simulated second, in millions.
    pub mops: f64,
    /// Median call latency, µs.
    pub p50_us: f64,
    /// 99th-percentile call latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile call latency, µs.
    pub p999_us: f64,
    /// Server-NIC in-bound one-sided ops per completed call.
    pub inbound_ops_per_call: f64,
    /// Server-NIC out-bound ops per completed call.
    pub outbound_ops_per_call: f64,
}

impl SimMetrics {
    /// Reads the rig; `sim_secs` is the simulated time since its reset.
    pub fn read(rig: &Rig, sim_secs: f64) -> Self {
        let st = rig.stats();
        let completed = st.completed.get();
        let per_call = |n: u64| n as f64 / completed.max(1) as f64;
        let nic = rig.server().nic().counters();
        SimMetrics {
            completed,
            failed: rig.failed(),
            mops: completed as f64 / sim_secs / 1e6,
            p50_us: percentile_us(&st.latency, 50.0),
            p99_us: percentile_us(&st.latency, 99.0),
            p999_us: percentile_us(&st.latency, 99.9),
            inbound_ops_per_call: per_call(nic.inbound_ops),
            outbound_ops_per_call: per_call(nic.outbound_ops),
        }
    }

    /// Share of attempted calls that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / (self.completed + self.failed).max(1) as f64
    }
}

/// Both host instruments around one sim-time window.
#[derive(Copy, Clone, Debug)]
pub struct Window {
    /// Calls completed inside the window.
    pub calls: u64,
    /// Wall-clock nanoseconds the window took.
    pub wall_ns: f64,
    /// Allocations made inside the window.
    pub allocs: AllocSnapshot,
}

impl Window {
    /// Advances `rig` by `span` of simulated time.
    pub fn run(rig: &mut Rig, span: SimSpan) -> Window {
        let calls0 = rig.stats().completed.get();
        let a0 = AllocSnapshot::now();
        let t0 = Instant::now();
        rig.sim.run_for(span);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        Window {
            calls: rig.stats().completed.get() - calls0,
            wall_ns,
            allocs: AllocSnapshot::now().since(a0),
        }
    }

    /// Host nanoseconds per completed call.
    pub fn ns_per_call(&self) -> f64 {
        self.wall_ns / self.calls.max(1) as f64
    }
}

/// Host-clock samples of a run of windows, each paired with the
/// reference kernel timed right before and right after it.
#[derive(Default)]
pub struct HostSamples {
    /// Wall ns per call, per window.
    pub ns_per_call: Vec<f64>,
    /// Reference-kernel ns per iteration, per window (mean of the
    /// timing before and the timing after).
    pub ref_iter_ns: Vec<f64>,
}

impl HostSamples {
    /// Books one window bracketed by two reference timings.
    pub fn push(&mut self, w: &Window, ref_before: f64, ref_after: f64) {
        self.ns_per_call.push(w.ns_per_call());
        self.ref_iter_ns.push((ref_before + ref_after) / 2.0);
    }

    /// Per-window cost in reference-kernel iterations.
    pub fn ref_units(&self) -> Vec<f64> {
        self.ns_per_call
            .iter()
            .zip(&self.ref_iter_ns)
            .map(|(ns, r)| ns / r)
            .collect()
    }

    /// The `host.*` per-layer rows.
    pub fn layer_rows(&self) -> [(&'static str, f64); 5] {
        let min = self
            .ns_per_call
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        [
            ("host.wall_ns_per_call.min", min),
            ("host.wall_ns_per_call.median", median(&self.ns_per_call)),
            ("host.ref_iter_ns.median", median(&self.ref_iter_ns)),
            ("host.ref_units.iqr_pct", iqr_pct(&self.ref_units())),
            ("host.windows", self.ns_per_call.len() as f64),
        ]
    }
}

/// Everything the end-to-end pass yields.
pub struct Pass {
    /// Sim-clock figures over the ledger windows.
    pub sim: SimMetrics,
    /// Allocations inside the ledger windows.
    pub allocs: AllocSnapshot,
    /// Host-clock samples over every window run.
    pub host: HostSamples,
    /// `VmHWM` when the ledger windows ended.
    pub peak_rss_mib: f64,
}

/// Runs the ledger windows, then further host-only windows until
/// `budget` of wall-clock has been spent measuring.
pub fn end_to_end(rig: &mut Rig, w: &Workload, budget: Duration) -> Pass {
    let started = Instant::now();
    let t0 = rig.sim.now();
    let mut host = HostSamples::default();
    let mut allocs = AllocSnapshot::default();
    let mut ledger = None;
    let mut ref_before = ref_iter_ns();
    while ledger.is_none() || started.elapsed() < budget {
        let win = Window::run(rig, w.window);
        let ref_after = ref_iter_ns();
        host.push(&win, ref_before, ref_after);
        ref_before = ref_after;
        if ledger.is_none() {
            allocs += win.allocs;
            if host.ns_per_call.len() == LEDGER_WINDOWS {
                let secs = (rig.sim.now() - t0).as_secs_f64();
                ledger = Some((SimMetrics::read(rig, secs), peak_rss_mib()));
            }
        }
    }
    let (sim, peak_rss_mib) = ledger.expect("loop ends only after the ledger is read");
    Pass {
        sim,
        allocs,
        host,
        peak_rss_mib,
    }
}
