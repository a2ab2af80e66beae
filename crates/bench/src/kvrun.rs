//! One-shot runner for the KV systems: spawn, warm up, measure, report.
//!
//! [`run_kv`] measures in one sweep; [`run_kv_telemetry`] additionally
//! samples the system's metric registry at fixed sim-time intervals and
//! writes the full telemetry bundle (metrics CSV/JSON, time series,
//! Chrome trace) to a directory. Both return everything they measured
//! as a [`KvRun`] and write to no registry but the system's own.

use std::fs::File;
use std::io;
use std::path::Path;

use rfp_kvstore::{KvSystem, SystemConfig};
use rfp_simnet::{MetricsRegistry, SimSpan, SimTime, Simulation};

/// Everything one measurement window yields.
#[derive(Clone, Debug)]
pub struct KvRun {
    /// Completed requests per second, in millions.
    pub mops: f64,
    /// Mean end-to-end latency in µs.
    pub mean_latency_us: f64,
    /// Median latency in µs.
    pub p50_us: f64,
    /// 99th-percentile latency in µs.
    pub p99_us: f64,
    /// Latency CDF points `(µs, cumulative probability)`.
    pub cdf: Vec<(f64, f64)>,
    /// Server in-bound one-sided ops per completed request.
    pub inbound_per_req: f64,
    /// Server out-bound one-sided ops per completed request.
    pub outbound_per_req: f64,
    /// Server in-bound payload bytes per completed request (the §5
    /// bandwidth-waste comparison: FaRM-style GETs fetch whole
    /// neighborhoods).
    pub inbound_bytes_per_req: f64,
    /// Mean client-thread CPU utilisation (0..1).
    pub client_util: f64,
    /// Mean remote-fetch attempts per call (RFP connections only).
    pub mean_attempts: f64,
    /// Fraction of calls needing more than one fetch attempt.
    pub frac_attempts_gt1: f64,
    /// Fraction of calls whose retry count exceeded one (the paper's
    /// Table 3 "percentage of N > 1", N = failed-fetch retries), i.e.
    /// three or more fetch attempts.
    pub frac_retries_gt1: f64,
    /// Largest fetch-attempt count observed.
    pub max_attempts: u32,
    /// Mode switches into server-reply across all connections.
    pub switches_to_reply: u64,
    /// One-sided ops per GET on the bypass path (Pilaf only).
    pub bypass_ops_per_get: f64,
    /// Checksum retries observed by bypass GETs (Pilaf only).
    pub crc_retries: u64,
}

/// Spawns `spawn(cfg)`, warms up `warmup`, measures `window`, and
/// aggregates the statistics.
pub fn run_kv(
    spawn: impl FnOnce(&mut Simulation, &SystemConfig) -> KvSystem,
    cfg: &SystemConfig,
    warmup: SimSpan,
    window: SimSpan,
) -> KvRun {
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn(&mut sim, cfg);
    sim.run_for(warmup);
    sys.reset_measurements();
    let t0 = sim.now();
    sim.run_for(window);
    collect_run(&sys, (sim.now() - t0).as_secs_f64())
}

/// Rows sampled across a [`run_kv_telemetry`] measurement window (plus
/// one zero baseline row at the window start).
const TELEMETRY_SAMPLES: u64 = 40;

/// Like [`run_kv`], but advances the measurement window in
/// `TELEMETRY_SAMPLES` fixed sim-time steps, sampling every registered
/// metric after each, then writes to `dir`:
///
/// * `metrics.csv` / `metrics.json` — the end-of-window registry snapshot,
/// * `timeseries.csv` — the sampled series (`time_ns` + one column per metric),
/// * `trace.json` — retained request spans as Chrome trace events.
///
/// All four files are byte-deterministic for a given configuration.
pub fn run_kv_telemetry(
    spawn: impl FnOnce(&mut Simulation, &SystemConfig) -> KvSystem,
    cfg: &SystemConfig,
    warmup: SimSpan,
    window: SimSpan,
    dir: &Path,
) -> io::Result<KvRun> {
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn(&mut sim, cfg);
    sim.run_for(warmup);
    sys.reset_measurements();
    let t0 = sim.now();
    // The columns are the metrics registered at the first sample.
    let names = sys.registry.names();
    let mut series = series_header(&names);
    push_sample(&mut series, &sys.registry, &names, t0);
    let step = (window.as_nanos() / TELEMETRY_SAMPLES).max(1);
    let mut covered = 0u64;
    while covered < window.as_nanos() {
        let chunk = step.min(window.as_nanos() - covered);
        sim.run_for(SimSpan::nanos(chunk));
        covered += chunk;
        push_sample(&mut series, &sys.registry, &names, sim.now());
    }
    let run = collect_run(&sys, (sim.now() - t0).as_secs_f64());

    std::fs::create_dir_all(dir)?;
    let snap = sys.registry.snapshot();
    snap.write_csv(&mut File::create(dir.join("metrics.csv"))?)?;
    snap.write_json(&mut File::create(dir.join("metrics.json"))?)?;
    std::fs::write(dir.join("timeseries.csv"), series)?;
    sys.spans
        .write_chrome_trace(&mut File::create(dir.join("trace.json"))?)?;
    Ok(run)
}

/// The `time_ns` header of a time series over the metrics `names`.
fn series_header(names: &[String]) -> String {
    format!(
        "time_ns{}\n",
        names.iter().map(|n| format!(",{n}")).collect::<String>()
    )
}

/// Appends one time-series row at `at`: each of `names` as its scalar
/// (counters and histogram counts cumulative, gauges as levels).
/// `f64`'s `Display` writes a whole number without a point, so counts
/// and levels come out as integers and the output is byte-stable.
fn push_sample(csv: &mut String, registry: &MetricsRegistry, names: &[String], at: SimTime) {
    let snap = registry.snapshot();
    csv.push_str(&at.as_nanos().to_string());
    for name in names {
        csv.push_str(&format!(",{}", snap.scalar(name).unwrap_or(0.0)));
    }
    csv.push('\n');
}

/// Aggregates one finished measurement window.
fn collect_run(sys: &KvSystem, secs: f64) -> KvRun {
    let stats = &sys.stats;
    let completed = stats.completed.get().max(1);
    // Summed over the server machines (one, except when sharded).
    let counters = sys.server_nic_counters();
    let us = |s: Option<SimSpan>| s.map(|v| v.as_micros_f64()).unwrap_or(0.0);

    let (mut attempts_sum, mut attempts_gt1, mut retries_gt1, mut calls) = (0.0, 0.0, 0.0, 0u64);
    let (mut max_attempts, mut switches) = (0u32, 0u64);
    for c in &sys.rfp_clients {
        let s = c.stats();
        calls += s.calls();
        attempts_sum += s.mean_attempts() * s.calls() as f64;
        attempts_gt1 += s.frac_attempts_above(1) * s.calls() as f64;
        retries_gt1 += s.frac_attempts_above(2) * s.calls() as f64;
        max_attempts = max_attempts.max(s.max_attempts());
        switches += s.switches_to_reply();
    }
    let calls_f = calls.max(1) as f64;

    KvRun {
        mops: stats.completed.get() as f64 / secs / 1e6,
        mean_latency_us: us(stats.latency.mean()),
        p50_us: us(stats.latency.percentile(50.0)),
        p99_us: us(stats.latency.percentile(99.0)),
        cdf: stats
            .latency
            .cdf(100)
            .into_iter()
            .map(|(l, p)| (l.as_micros_f64(), p))
            .collect(),
        inbound_per_req: counters.inbound_ops as f64 / completed as f64,
        outbound_per_req: counters.outbound_ops as f64 / completed as f64,
        inbound_bytes_per_req: counters.inbound_bytes as f64 / completed as f64,
        client_util: sys.mean_client_utilization(),
        mean_attempts: attempts_sum / calls_f,
        frac_attempts_gt1: attempts_gt1 / calls_f,
        frac_retries_gt1: retries_gt1 / calls_f,
        max_attempts,
        switches_to_reply: switches,
        bypass_ops_per_get: stats.bypass_ops.get() as f64 / stats.gets.get().max(1) as f64,
        crc_retries: stats.crc_retries.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn columns_are_the_metrics_registered_at_the_first_sample() {
        let reg = MetricsRegistry::new();
        reg.counter("a").incr();
        reg.counter("b").incr();
        let names = reg.names();
        let mut csv = series_header(&names);
        push_sample(&mut csv, &reg, &names, t(10));
        // Metrics registered later do not disturb existing columns.
        reg.counter("c").incr();
        push_sample(&mut csv, &reg, &names, t(20));
        assert_eq!(csv, "time_ns,a,b\n10,1,1\n20,1,1\n");
    }

    #[test]
    fn csv_is_deterministic_with_integer_values() {
        let render = || {
            let reg = MetricsRegistry::new();
            reg.counter("ops").add(7);
            reg.gauge("depth").set(-3);
            let names = reg.names();
            let mut csv = series_header(&names);
            push_sample(&mut csv, &reg, &names, t(1_000));
            push_sample(&mut csv, &reg, &names, t(2_000));
            csv
        };
        let a = render();
        assert_eq!(a, render());
        assert_eq!(a, "time_ns,depth,ops\n1000,-3,7\n2000,-3,7\n");
    }
}
