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
//! The sweep binaries (`chaos` … `cores`) run their cells through
//! [`cells`]: a cell is a function of the seed and its spec that returns
//! a row, prints nothing and writes to no registry but its rig's own.
//! Each `main` builds its specs in declared order, runs them, prints the
//! rows and exports them with [`emit_bench_json`].
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

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, IdlePolicy, ParamSelector, Params, RfpClient, RfpConfig, WorkloadSample,
};
use rfp_kvstore::SystemConfig;
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{MetricValue, MetricsSnapshot, SimSpan, Simulation};
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

/// Runs one sweep cell per spec and returns the rows in spec order.
///
/// Serial for now. The bounds are what a parallel runner needs: specs
/// shared across threads, rows sent back.
pub fn cells<S: Sync, R: Send>(specs: &[S], run: impl Fn(&S) -> R + Sync) -> Vec<R> {
    specs.iter().map(run).collect()
}

/// Exports `(metric, value)` pairs as counters in `BENCH_<name>.json`
/// in the current directory and returns the path written.
///
/// # Panics
///
/// Panics if a metric name repeats.
pub fn emit_bench_json(
    name: &str,
    exports: impl IntoIterator<Item = (String, u64)>,
) -> io::Result<PathBuf> {
    let mut values = BTreeMap::new();
    for (metric, value) in exports {
        let repeated = values.insert(metric.clone(), MetricValue::Counter(value));
        assert!(repeated.is_none(), "bench export {metric:?} repeated");
    }
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    MetricsSnapshot { values }.write_json(&mut File::create(&path)?)?;
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

/// A one-connection echo rig on the paper testbed: the client on
/// machine 0, and on machine 1 one server thread that answers every
/// request with its own bytes.
pub struct EchoRig {
    pub sim: Simulation,
    pub client: Rc<RfpClient>,
    pub client_thread: Rc<ThreadCtx>,
    pub server_thread: Rc<ThreadCtx>,
}

/// Builds an [`EchoRig`] whose connection is tuned by `cfg` and whose
/// server thread is paced by `idle`. The serve loop is spawned, not
/// run: the caller adds its client task (and any fault rates) before
/// running `sim`.
pub fn echo_rig(seed: u64, cfg: RfpConfig, idle: IdlePolicy) -> EchoRig {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    let (client, conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
    let server_thread = sm.thread("server");
    sim.spawn(serve_loop(
        Rc::clone(&server_thread),
        vec![Rc::new(conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        idle,
    ));
    EchoRig {
        sim,
        client: Rc::new(client),
        client_thread: cm.thread("client"),
        server_thread,
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

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "bench export \"bench.x.a\" repeated")]
    fn emit_bench_json_rejects_a_repeated_name() {
        let _ = super::emit_bench_json(
            "repeated",
            [("bench.x.a".to_string(), 1), ("bench.x.a".to_string(), 2)],
        );
    }
}
