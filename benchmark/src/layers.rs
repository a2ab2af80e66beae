//! The traced pass: per-layer metrics harvested from outside.
//!
//! A plain rig and a traced rig of the same seed advance in alternating
//! windows. The traced rig's retained spans, registry, NIC engines,
//! threads and client endpoints are folded into the per-layer names;
//! the plain rig proves tracing moved no simulated number and prices
//! its host cost. Host probes and the comparator systems run after.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

use rfp_kvstore::{spawn_pilaf, spawn_server_reply_kv};
use rfp_simnet::{Histogram, RequestTrace, SimSpan};

use crate::host::{median, ref_iter_ns, AllocSnapshot};
use crate::ledger::{HostSamples, SimMetrics, Window};
use crate::probes::{best_of_repeats, fig10_sweep_host_s, PROBES};
use crate::rigs::{comparator, Rig, Workload};
use crate::{Metric, Outcome};

/// Windows each of the two rigs runs in the traced pass.
pub const TRACE_WINDOWS: usize = 5;

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 77] = [
    // The two end-to-end figures that are 0 on a healthy run and so
    // cannot carry a relative bound.
    ("sim_outbound_ops_per_call", "ops"),
    ("failed_share", "ratio"),
    // Host clock of the plain rig's windows.
    ("host.wall_ns_per_call.min", "ns"),
    ("host.wall_ns_per_call.median", "ns"),
    ("host.ref_iter_ns.median", "ns"),
    ("host.ref_units.iqr_pct", "%"),
    ("host.windows", "count"),
    ("host.unattributed_ns_per_call", "ns"),
    // Tracing on vs off.
    ("trace.sim_identical", "bool"),
    ("trace.host_overhead_pct", "%"),
    ("trace.allocs_per_call_delta", "allocs"),
    // simnet / rnic / core / kvstore / workload / bench host probes.
    ("simnet.sleep_event.host_ns", "ns"),
    ("simnet.sleep_event.allocs", "allocs"),
    ("simnet.fifo_serve.host_ns", "ns"),
    ("simnet.fifo_serve.allocs", "allocs"),
    ("rnic.read32.host_ns", "ns"),
    ("rnic.read32.allocs", "allocs"),
    ("rnic.write32.host_ns", "ns"),
    ("rnic.write32.allocs", "allocs"),
    ("core.echo_w1.host_ns", "ns"),
    ("core.echo_w1.allocs", "allocs"),
    ("core.echo_w1.sim_latency_ns", "ns"),
    ("kvstore.partition_get.host_ns", "ns"),
    ("kvstore.partition_get.allocs", "allocs"),
    ("kvstore.partition_put.host_ns", "ns"),
    ("kvstore.partition_put.allocs", "allocs"),
    ("kvstore.proto_roundtrip.host_ns", "ns"),
    ("kvstore.proto_roundtrip.allocs", "allocs"),
    ("workload.gen_op.host_ns", "ns"),
    ("workload.gen_op.allocs", "allocs"),
    ("workload.zipf_sample.host_ns", "ns"),
    ("workload.zipf_sample.allocs", "allocs"),
    ("bench.fig10_sweep.host_s", "s"),
    // Request-lifecycle budget folded from the retained spans.
    ("core.phase.request_written.mean_ns", "ns"),
    ("core.phase.request_written.p99_ns", "ns"),
    ("core.phase.server_dequeued.mean_ns", "ns"),
    ("core.phase.server_dequeued.p99_ns", "ns"),
    ("core.phase.response_posted.mean_ns", "ns"),
    ("core.phase.response_posted.p99_ns", "ns"),
    ("core.phase.fetch_read.mean_ns", "ns"),
    ("core.phase.fetch_read.p99_ns", "ns"),
    ("core.phase.completed.mean_ns", "ns"),
    ("core.phase.completed.p99_ns", "ns"),
    ("core.phase.other.mean_ns", "ns"),
    ("core.phase.other.p99_ns", "ns"),
    ("core.phase.samples", "count"),
    ("core.phase.residual_ns", "ns"),
    // Client endpoints, serve loop, reactor.
    ("core.client.fetch_attempts_per_call", "ops"),
    ("core.client.retried_share", "ratio"),
    ("core.client.extra_reads_per_call", "ops"),
    ("core.client.reads_per_doorbell", "ops"),
    ("core.client.switches_to_reply", "count"),
    ("core.client.cpu_util", "ratio"),
    ("core.server.scan_slots_per_call", "slots"),
    ("core.reactor.steals_per_kcall", "count"),
    ("core.reactor.handoff_ns_per_call", "ns"),
    ("core.reactor.imbalance", "ratio"),
    ("core.reactor.served_share.max", "ratio"),
    // NIC engines.
    ("rnic.server_inbound.busy_share", "ratio"),
    ("rnic.server_inbound.backlog_ns", "ns"),
    ("rnic.server_inbound.bytes_per_call", "bytes"),
    ("rnic.client_outbound.busy_share", "ratio"),
    ("rnic.client_outbound.ops_per_call", "ops"),
    ("rnic.dropped", "count"),
    // Store inputs and outcomes.
    ("kvstore.get_share", "ratio"),
    ("kvstore.miss_share", "ratio"),
    ("kvstore.thread_imbalance", "ratio"),
    // Comparator systems and calibration error.
    ("paradigms.server_reply.sim_mops", "Mcalls/s"),
    ("paradigms.server_reply.outbound_ops_per_call", "ops"),
    ("paradigms.server_reply.host_ns_per_call", "ns"),
    ("paradigms.pilaf.sim_mops", "Mcalls/s"),
    ("paradigms.pilaf.ops_per_get", "ops"),
    ("paradigms.pilaf.host_ns_per_call", "ns"),
    ("paradigms.jakiro_over_server_reply", "ratio"),
    ("paradigms.jakiro_over_pilaf", "ratio"),
    ("paper.jakiro_mops_err_pct", "%"),
    ("paper.server_reply_mops_err_pct", "%"),
];

/// Values for [`PER_LAYER`] names. A name never set does not apply to
/// the workload; it is reported as 0 and listed as not applicable.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let &(declared, _) = PER_LAYER
            .iter()
            .find(|&&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.values.insert(declared, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// Phase names the budget reports by themselves; every other mark
/// (second-segment and fallback fetches, mode switches) folds into
/// `other`, so the columns still sum to the end-to-end latency.
const PHASES: [&str; 5] = [
    "request_written",
    "server_dequeued",
    "response_posted",
    "fetch_read",
    "completed",
];

/// Folds spans into per-phase mean / p99 and the residual against their
/// summed end-to-end latency, in whole nanoseconds.
fn fold_phases(spans: &[RequestTrace], out: &mut Layers) -> u64 {
    // Per phase column: the total, and one summed duration per span.
    let mut columns: [(u64, Histogram); PHASES.len() + 1] = Default::default();
    let mut end_to_end = 0u64;
    for span in spans {
        let mut row = [0u64; PHASES.len() + 1];
        for phase in span.phases() {
            let col = PHASES
                .iter()
                .position(|&p| p == phase.name)
                .unwrap_or(PHASES.len());
            row[col] += phase.duration.as_nanos();
        }
        for ((total, per_span), ns) in columns.iter_mut().zip(row) {
            *total += ns;
            per_span.record(SimSpan::nanos(ns));
        }
        end_to_end += span.end_to_end().as_nanos();
    }
    let n = spans.len().max(1) as f64;
    for ((total, per_span), phase) in columns.iter().zip(PHASES.iter().chain(&["other"])) {
        let p99 = per_span.percentile(99.0).map_or(0, |s| s.as_nanos());
        out.set(&format!("core.phase.{phase}.mean_ns"), *total as f64 / n);
        out.set(&format!("core.phase.{phase}.p99_ns"), p99 as f64);
    }
    out.set("core.phase.samples", spans.len() as f64);
    let phase_total: u64 = columns.iter().map(|(total, _)| total).sum();
    let residual = phase_total.abs_diff(end_to_end);
    out.set("core.phase.residual_ns", residual as f64);
    residual
}

/// Reads every instrument the traced rig exposes. `sim_secs` is the
/// simulated time since its reset.
fn harvest(rig: &Rig, sim: &SimMetrics, sim_secs: f64, out: &mut Layers) {
    let per_call = |n: f64| n / sim.completed.max(1) as f64;
    out.set("sim_outbound_ops_per_call", sim.outbound_ops_per_call);
    out.set("failed_share", sim.failed_share());

    // Client endpoints.
    let (mut calls, mut attempts, mut retried, mut extra, mut switches) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut doorbells, mut doorbell_reads) = (0.0, 0.0);
    for c in rig.rfp_clients() {
        let s = c.stats();
        let n = s.calls() as f64;
        calls += n;
        attempts += s.mean_attempts() * n;
        retried += s.frac_attempts_above(1) * n;
        extra += s.extra_reads() as f64;
        switches += s.switches_to_reply() as f64;
        doorbells += s.doorbells() as f64;
        doorbell_reads += s.doorbell_reads() as f64;
    }
    let calls = calls.max(1.0);
    out.set("core.client.fetch_attempts_per_call", attempts / calls);
    out.set("core.client.retried_share", retried / calls);
    out.set("core.client.extra_reads_per_call", extra / calls);
    // No shared doorbell rung: every READ paid its own.
    let per_doorbell = if doorbells == 0.0 {
        1.0
    } else {
        doorbell_reads / doorbells
    };
    out.set("core.client.reads_per_doorbell", per_doorbell);
    out.set("core.client.switches_to_reply", switches);
    let threads = rig.client_threads();
    let util = threads.iter().map(|t| t.utilization()).sum::<f64>() / threads.len() as f64;
    out.set("core.client.cpu_util", util);

    // Serve loop and reactor.
    let snapshot = rig.registry().snapshot();
    if let Some(slots) = snapshot.scalar("serve.scan.slots") {
        out.set("core.server.scan_slots_per_call", per_call(slots));
    }
    let served = rig.served_per_thread();
    let total: u64 = served.iter().sum();
    let max = served.iter().copied().max().unwrap_or(0) as f64;
    out.set("core.reactor.served_share.max", max / total.max(1) as f64);
    out.set(
        "kvstore.thread_imbalance",
        max * served.len() as f64 / total.max(1) as f64,
    );
    if let Some(reactor) = rig.reactor() {
        let steals: u64 = (0..reactor.cores()).map(|i| reactor.steals(i)).sum();
        out.set(
            "core.reactor.steals_per_kcall",
            1000.0 * per_call(steals as f64),
        );
        out.set(
            "core.reactor.handoff_ns_per_call",
            per_call(reactor.handoff_ns() as f64),
        );
        out.set(
            "core.reactor.imbalance",
            reactor.skew_report(rig.sim.now()).imbalance(),
        );
    }

    // NIC engines: machine 0 is the server, the rest are clients.
    let sim_ns = sim_secs * 1e9;
    let nic = rig.server().nic();
    out.set(
        "rnic.server_inbound.busy_share",
        nic.inbound_busy().as_nanos() as f64 / sim_ns,
    );
    if let Some(backlog) = snapshot.scalar("nic.0.inbound.backlog_ns") {
        out.set("rnic.server_inbound.backlog_ns", backlog);
    }
    out.set(
        "rnic.server_inbound.bytes_per_call",
        per_call(nic.counters().inbound_bytes as f64),
    );
    let cluster = rig.cluster();
    let clients = (cluster.len() - 1) as f64;
    let (mut busy, mut ops, mut dropped) = (0.0, 0.0, nic.counters().dropped as f64);
    for m in 1..cluster.len() {
        let machine = cluster.machine(m);
        let nic = machine.nic();
        busy += nic.outbound_busy().as_nanos() as f64 / sim_ns;
        ops += nic.counters().outbound_ops as f64;
        dropped += nic.counters().dropped as f64;
    }
    out.set("rnic.client_outbound.busy_share", busy / clients);
    out.set("rnic.client_outbound.ops_per_call", per_call(ops));
    out.set("rnic.dropped", dropped);

    // Store inputs and outcomes.
    let st = rig.stats();
    let gets = st.gets.get() as f64;
    out.set("kvstore.get_share", per_call(gets));
    out.set("kvstore.miss_share", st.misses.get() as f64 / gets.max(1.0));
}

/// One comparator system on the headline configuration: a 10 sim-ms
/// window after the usual warm-up. Returns its sim figures and host ns
/// per call.
fn run_comparator(mut rig: Rig) -> (Rig, SimMetrics, f64) {
    let t0 = rig.sim.now();
    let win = Window::run(&mut rig, SimSpan::millis(10));
    let sim = SimMetrics::read(&rig, (rig.sim.now() - t0).as_secs_f64());
    (rig, sim, win.ns_per_call())
}

fn comparators(seed: u64, jakiro_mops: f64, out: &mut Layers) {
    let (_, sr, sr_ns) = run_comparator(comparator(seed, spawn_server_reply_kv));
    out.set("paradigms.server_reply.sim_mops", sr.mops);
    out.set(
        "paradigms.server_reply.outbound_ops_per_call",
        sr.outbound_ops_per_call,
    );
    out.set("paradigms.server_reply.host_ns_per_call", sr_ns);
    let (rig, pilaf, pilaf_ns) = run_comparator(comparator(seed, spawn_pilaf));
    let st = rig.stats();
    out.set("paradigms.pilaf.sim_mops", pilaf.mops);
    out.set(
        "paradigms.pilaf.ops_per_get",
        st.bypass_ops.get() as f64 / st.gets.get().max(1) as f64,
    );
    out.set("paradigms.pilaf.host_ns_per_call", pilaf_ns);
    out.set("paradigms.jakiro_over_server_reply", jakiro_mops / sr.mops);
    out.set("paradigms.jakiro_over_pilaf", jakiro_mops / pilaf.mops);
    // The paper's §4.3 peaks: Jakiro 5.5 MOPS, ServerReply 2.1 MOPS.
    out.set(
        "paper.jakiro_mops_err_pct",
        100.0 * (jakiro_mops - 5.5).abs() / 5.5,
    );
    out.set(
        "paper.server_reply_mops_err_pct",
        100.0 * (sr.mops - 2.1).abs() / 2.1,
    );
}

/// Runs the traced pass for `w`.
pub fn traced_pass(w: &'static Workload, seed: u64) -> Outcome {
    let mut out = Layers::default();
    let mut plain = w.set_up(seed, false);
    let mut traced = w.set_up(seed, true);
    let t0 = plain.sim.now();

    let (mut plain_host, mut traced_host) = (HostSamples::default(), HostSamples::default());
    let (mut plain_allocs, mut traced_allocs) =
        (AllocSnapshot::default(), AllocSnapshot::default());
    let mut ref_before = ref_iter_ns();
    for _ in 0..TRACE_WINDOWS {
        for (rig, host, allocs) in [
            (&mut plain, &mut plain_host, &mut plain_allocs),
            (&mut traced, &mut traced_host, &mut traced_allocs),
        ] {
            let win = Window::run(rig, w.window);
            let ref_after = ref_iter_ns();
            host.push(&win, ref_before, ref_after);
            *allocs += win.allocs;
            ref_before = ref_after;
        }
    }
    let sim_secs = (plain.sim.now() - t0).as_secs_f64();
    let sim = SimMetrics::read(&plain, sim_secs);
    let sim_traced = SimMetrics::read(&traced, sim_secs);
    let mut problems = plain.check_outputs();
    problems.extend(traced.check_outputs());

    for (name, value) in plain_host.layer_rows() {
        out.set(name, value);
    }
    out.set("trace.sim_identical", (sim == sim_traced) as u8 as f64);
    if sim != sim_traced {
        problems.push(format!(
            "tracing moved sim figures: {sim:?} vs {sim_traced:?}"
        ));
    }
    out.set(
        "trace.host_overhead_pct",
        100.0 * (median(&traced_host.ref_units()) / median(&plain_host.ref_units()) - 1.0),
    );
    let per_call = |a: AllocSnapshot, s: &SimMetrics| a.allocs as f64 / s.completed.max(1) as f64;
    out.set(
        "trace.allocs_per_call_delta",
        per_call(traced_allocs, &sim_traced) - per_call(plain_allocs, &sim),
    );

    harvest(&traced, &sim_traced, sim_secs, &mut out);
    let spans = traced.spans().map(|s| s.snapshot()).unwrap_or_default();
    if !spans.is_empty() && fold_phases(&spans, &mut out) != 0 {
        problems.push("phase durations do not sum to end-to-end latency".into());
    }

    for spec in &PROBES {
        let p = best_of_repeats(spec);
        out.set(&format!("{}.host_ns", spec.name), p.host_ns());
        out.set(&format!("{}.allocs", spec.name), p.allocs_per_op());
        if let Some(ns) = p.sim_latency_ns {
            out.set(&format!("{}.sim_latency_ns", spec.name), ns);
        }
    }
    out.set("bench.fig10_sweep.host_s", fig10_sweep_host_s());

    if w.sequential {
        // What no isolated probe explains: the load-dependent cost.
        let gets = out.get("kvstore.get_share");
        let explained = out.get("core.echo_w1.host_ns")
            + gets * out.get("kvstore.partition_get.host_ns")
            + (1.0 - gets) * out.get("kvstore.partition_put.host_ns")
            + out.get("kvstore.proto_roundtrip.host_ns")
            + out.get("workload.gen_op.host_ns");
        let measured = out.get("host.wall_ns_per_call.median");
        out.set("host.unattributed_ns_per_call", measured - explained);
    }
    if w.name == "jakiro_get95_32b" {
        comparators(seed, sim.mops, &mut out);
    }

    let not_applicable: Vec<&str> = PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !out.values.contains_key(n))
        .collect();
    if !not_applicable.is_empty() {
        println!(
            "# not applicable to {} (reported as 0): {}",
            w.name,
            not_applicable.join(" ")
        );
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: out.values.get(name).copied().unwrap_or(0.0),
        })
        .collect();
    let dir = write_artifacts(w, seed, &metrics, &not_applicable, &traced)
        .expect("write the traced pass's artifacts");
    println!("# layers and Chrome trace written to {}", dir.display());
    Outcome {
        sim,
        problems,
        metrics,
    }
}

/// Writes `out/<workload>.layers.json` and `out/<workload>.trace.json`
/// under the benchmark's directory.
fn write_artifacts(
    w: &Workload,
    seed: u64,
    metrics: &[Metric],
    not_applicable: &[&str],
    traced: &Rig,
) -> io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let mut f = BufWriter::new(File::create(dir.join(format!("{}.layers.json", w.name)))?);
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"metrics\": {{",
        w.name
    )?;
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        writeln!(f, "  {}{comma}", m.json())?;
    }
    let quoted: Vec<String> = not_applicable.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(f, "}}, \"not_applicable\": [{}]}}", quoted.join(", "))?;
    f.flush()?;
    if let Some(spans) = traced.spans() {
        let mut f = BufWriter::new(File::create(dir.join(format!("{}.trace.json", w.name)))?);
        spans.write_chrome_trace(&mut f)?;
        f.flush()?;
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_simnet::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn phases_fold_by_name_and_leave_no_residual() {
        let mut a = RequestTrace::begin(1, 0, t(0), "issue");
        a.mark(t(100), "request_written");
        a.mark(t(150), "server_dequeued");
        a.mark(t(400), "response_posted");
        a.mark(t(700), "fetch_read"); // a failed first attempt …
        a.mark(t(1000), "fetch_read"); // … and the one that hit
        a.mark(t(1200), "extra_fetch_read");
        a.mark(t(1210), "completed");
        let mut b = RequestTrace::begin(2, 0, t(50), "issue");
        b.mark(t(250), "request_written");
        b.mark(t(950), "completed");
        let mut out = Layers::default();
        assert_eq!(fold_phases(&[a, b], &mut out), 0);
        assert_eq!(out.get("core.phase.samples"), 2.0);
        assert_eq!(out.get("core.phase.request_written.mean_ns"), 150.0);
        assert_eq!(out.get("core.phase.fetch_read.mean_ns"), 300.0); // (300 + 300 + 0) / 2
        assert_eq!(out.get("core.phase.fetch_read.p99_ns"), 600.0);
        assert_eq!(out.get("core.phase.other.mean_ns"), 100.0);
        assert_eq!(out.get("core.phase.completed.mean_ns"), 355.0);
        let means: f64 = PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("core.phase.") && n.ends_with(".mean_ns"))
            .map(|(n, _)| out.get(n))
            .sum();
        assert_eq!(means, (1210.0 + 900.0) / 2.0);
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_names_are_refused() {
        Layers::default().set("core.phase.typo", 1.0);
    }

    /// `BENCHMARK.json` lists exactly the names and units this binary
    /// prints, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut rest = json.as_str();
        let mut listed = Vec::new();
        while let Some(at) = rest.find("{\"name\": \"") {
            rest = &rest[at + 10..];
            let name = &rest[..rest.find('"').unwrap()];
            let unit = rest[..rest.find('}').unwrap()]
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| &u[..u.find('"').unwrap()]);
            listed.push((name, unit));
        }
        let want: Vec<(&str, Option<&str>)> = crate::rigs::WORKLOADS
            .iter()
            .map(|w| (w.name, None))
            .chain(crate::END_TO_END.iter().map(|&(n, u)| (n, Some(u))))
            .chain(PER_LAYER.iter().map(|&(n, u)| (n, Some(u))))
            .collect();
        assert_eq!(listed, want);
    }
}
