//! Benchmark harnesses regenerating every table and figure of the RFP
//! paper's evaluation (§2 micro-benchmarks and §4 system results).
//!
//! Each experiment is a library function in [`figures`] writing
//! `figure,series,x,y`-style CSV rows (comment lines start with `#`),
//! registered by name in [`figures::EXPERIMENTS`]. Run one with e.g.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin all_figures -- fig12_server_threads
//! ```
//!
//! or everything by naming none (`--csv <dir>` additionally writes one
//! `<dir>/<name>.csv` per experiment).
//!
//! The per-experiment index mapping figures to modules lives in
//! `DESIGN.md`; paper-vs-measured numbers are recorded in
//! `EXPERIMENTS.md`, whose measured numbers [`prose`] renders from the
//! committed results.

pub mod ablations;
pub mod figures;
pub mod kvrun;
pub mod micro;
pub mod paper;
pub mod prose;
pub mod telemetry;

use std::io::{self, Write};

use rfp_core::{ParamSelector, Params, WorkloadSample};
use rfp_kvstore::SystemConfig;
use rfp_simnet::SimSpan;
use rfp_workload::{ValueSize, WorkloadSpec};

/// Key population of the figure and ablation rigs.
const KEYS: u64 = 2_000;

/// Simulated-time measurement window used by most experiments. Long
/// enough that queueing transients vanish, short enough that a full
/// figure regenerates in seconds.
fn window() -> SimSpan {
    SimSpan::millis(4)
}

/// Simulated warm-up discarded before each measurement.
fn warmup() -> SimSpan {
    SimSpan::millis(1)
}

/// Writes one CSV row `fig,series,x,y`.
fn row(
    w: &mut dyn Write,
    fig: &str,
    series: &str,
    x: impl std::fmt::Display,
    y: f64,
) -> io::Result<()> {
    writeln!(w, "{fig},{series},{x},{y:.4}")
}

/// The default rig over [`KEYS`] keys.
fn kv_cfg() -> SystemConfig {
    SystemConfig {
        spec: WorkloadSpec {
            key_count: KEYS,
            ..WorkloadSpec::paper_default()
        },
        ..SystemConfig::default()
    }
}

/// The §3.2 pre-run sample of rig `cfg`: its client threads and
/// machines, 64 B requests, and the given result sizes and process
/// time.
pub fn prerun_sample(
    cfg: &SystemConfig,
    result_sizes: Vec<usize>,
    process_time: SimSpan,
) -> WorkloadSample {
    WorkloadSample {
        result_sizes,
        process_time,
        request_size: 64,
        client_threads: cfg.client_machines * cfg.clients_per_machine,
        client_machines: cfg.client_machines,
    }
}

/// The result sizes a pre-run of `values` samples: 64 values, each
/// behind the KV response's 5 B tag and length.
pub fn prerun_results(values: ValueSize) -> Vec<usize> {
    values.samples(64, 7).iter().map(|s| s + 5).collect()
}

/// §3.2's pre-run selection on the figure rig (`kv_cfg`): `(R, F)`
/// for the sampled `result_sizes` at server process time
/// `process_time`.
pub fn preselect(result_sizes: Vec<usize>, process_time: SimSpan) -> Params {
    let cfg = kv_cfg();
    let sample = prerun_sample(&cfg, result_sizes, process_time);
    ParamSelector::new(cfg.profile.nic.clone(), cfg.profile.link.clone()).select(&sample)
}
