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
//! `<dir>/<name>.csv` per experiment). Both `all_figures` and `ablations`
//! run their tables through [`print_tables`]: each experiment renders
//! into a buffer of its own and touches no shared state.
//!
//! The sweep binaries (`chaos` … `cores`) each fold their cells into a
//! [`MetricsRegistry`] of their own `main` and export it with
//! [`emit_bench_json`]; nothing in this library writes to a registry it
//! did not create.
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

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rfp_core::{ParamSelector, Params, WorkloadSample};
use rfp_kvstore::SystemConfig;
use rfp_simnet::{MetricsRegistry, SimSpan};
use rfp_workload::{ValueSize, WorkloadSpec};

use figures::ExperimentFn;

/// A sweep binary's seed: its first command-line argument, 42 when
/// there is none.
///
/// # Panics
///
/// Panics if the argument is not a `u64`.
pub fn seed_arg() -> u64 {
    std::env::args()
        .nth(1)
        .map_or(42, |s| s.parse().expect("seed must be a u64"))
}

/// Exports `registry` as `BENCH_<name>.json` in the current directory
/// and returns the path written.
pub fn emit_bench_json(name: &str, registry: &MetricsRegistry) -> io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    registry.snapshot().write_json(&mut File::create(&path)?)?;
    Ok(path)
}

/// Runs one experiment into a buffer of its own.
pub fn render(experiment: ExperimentFn) -> io::Result<Vec<u8>> {
    let mut csv = Vec::new();
    experiment(&mut csv)?;
    Ok(csv)
}

/// Prints each `(name, experiment)` on stdout under a `## <name>` line,
/// rendered by [`render`]; with `csv_dir`, also writes the same bytes to
/// `<csv_dir>/<name>.csv`.
pub fn print_tables<'a>(
    experiments: impl IntoIterator<Item = &'a (&'a str, ExperimentFn)>,
    csv_dir: Option<&Path>,
) -> io::Result<()> {
    if let Some(dir) = csv_dir {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::stdout().lock();
    for (name, experiment) in experiments {
        writeln!(out, "## {name}")?;
        let csv = render(*experiment)?;
        if let Some(dir) = csv_dir {
            fs::write(dir.join(format!("{name}.csv")), &csv)?;
        }
        out.write_all(&csv)?;
    }
    Ok(())
}

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
