//! Two-clock performance ledger for the RFP reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the end-to-end pass and prints the end-to-end
//! metrics; `--trace 1` runs the short traced pass, the host probes and
//! the comparators and prints the per-layer metrics. Every metric goes
//! to stdout as `name unit value`; the last line is the result as one
//! JSON object. `--all` runs every workload, one child process each
//! (peak RSS and the allocation counters are per process).

mod host;
mod layers;
mod ledger;
mod probes;
mod rigs;

use std::process::{Command, ExitCode};
use std::time::Duration;

use rigs::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// One reported number.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// `"name": {"value": …, "unit": "…"}`, the contract's JSON shape.
    pub fn json(&self) -> String {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name, self.value, self.unit
        )
    }
}

/// What either pass hands back for reporting.
pub struct Outcome {
    /// Sim figures the attempted / failed counts are taken from.
    pub sim: ledger::SimMetrics,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// The pass's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("sim_mops", "Mcalls/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_inbound_ops_per_call", "ops"),
    ("sim_inbound_only_share", "ratio"),
    ("ok_share", "ratio"),
    ("host_ref_units_per_call", "ref-iterations"),
    ("host_allocs_per_call", "allocs"),
    ("host_alloc_bytes_per_call", "bytes"),
    ("host_peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

struct Args {
    workload: Option<&'static Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                args.workload = Some(
                    Workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}; known: {}", known()))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(args)
}

/// Runs the end-to-end pass and pairs its values with [`END_TO_END`].
fn end_to_end_pass(w: &Workload, args: &Args) -> Outcome {
    let (mut rig, setup_s) = ledger::timed_set_up(w, args.seed);
    let pass = ledger::end_to_end(&mut rig, w, Duration::from_secs(args.seconds));
    let per_call = |n: u64| n as f64 / pass.sim.completed.max(1) as f64;
    println!(
        "# {}: {} calls in the {}-window ledger ({} beyond p99.9), {} host windows",
        w.name,
        pass.sim.completed,
        ledger::LEDGER_WINDOWS,
        pass.sim.completed / 1000,
        pass.host.ns_per_call.len(),
    );
    let values = [
        pass.sim.mops,
        pass.sim.p50_us,
        pass.sim.p99_us,
        pass.sim.p999_us,
        pass.sim.inbound_ops_per_call,
        1.0 - pass.sim.outbound_ops_per_call,
        1.0 - pass.sim.failed_share(),
        host::median(&pass.host.ref_units()),
        per_call(pass.allocs.allocs),
        per_call(pass.allocs.bytes),
        pass.peak_rss_mib,
        setup_s,
    ];
    Outcome {
        problems: rig.check_outputs(),
        sim: pass.sim,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect(),
    }
}

/// Runs one workload and prints its metrics as `name unit value` lines
/// followed by the result JSON object.
fn run_workload(w: &'static Workload, args: &Args) {
    let out = if args.trace {
        layers::traced_pass(w, args.seed)
    } else {
        end_to_end_pass(w, args)
    };
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.unit, m.value);
    }
    let body: Vec<String> = out.metrics.iter().map(Metric::json).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.sim.completed + out.sim.failed,
        out.sim.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.workload {
        // A result was printed; whether it is correct is in the result.
        run_workload(w, &args);
        return ExitCode::SUCCESS;
    }
    let exe = std::env::current_exe().expect("path of this executable");
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("re-run this executable for one workload");
        if !status.success() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
