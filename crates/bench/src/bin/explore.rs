//! Interactive experiment explorer: run any of the KV systems at an
//! arbitrary configuration point and print a full measurement report.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin explore -- \
//!     --system jakiro --server-threads 6 --client-machines 7 \
//!     --clients-per-machine 5 --value-size 32 --get-pct 95 \
//!     [--skew] [--process-us 0] [--fetch-size 256] [--retry 5] \
//!     [--shards 1] [--loss-pct 0] [--window-ms 4] [--seed 42] \
//!     [--telemetry <dir>]
//! ```
//!
//! Systems: `jakiro`, `server-reply`, `memcached`, `pilaf`, `herd`,
//! `jakiro-shared`, `sharded` (Jakiro over `--shards` server machines;
//! server NIC figures are summed over them).
//!
//! `--telemetry <dir>` additionally writes the full telemetry bundle —
//! `metrics.csv`, `metrics.json`, `timeseries.csv` (fixed-interval
//! samples across the window) and `trace.json` (request spans, Chrome
//! trace-event format) — into `<dir>`. Output is byte-deterministic for
//! a given configuration and seed.

use std::path::PathBuf;

use rfp_bench::kvrun::{run_kv, run_kv_telemetry, KvRun};
use rfp_kvstore::{
    spawn_herd, spawn_jakiro, spawn_jakiro_shared, spawn_memcached, spawn_pilaf,
    spawn_server_reply_kv, spawn_sharded_jakiro, KvSystem, SystemConfig,
};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::{KeyDist, OpMix, ValueSize, WorkloadSpec};

#[derive(Debug)]
struct Args {
    system: String,
    server_threads: usize,
    client_machines: usize,
    clients_per_machine: usize,
    value_size: usize,
    get_pct: f64,
    skew: bool,
    process_us: u64,
    fetch_size: Option<usize>,
    retry: Option<u32>,
    shards: usize,
    loss_pct: f64,
    window_ms: u64,
    seed: u64,
    keys: u64,
    telemetry: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            system: "jakiro".into(),
            server_threads: 6,
            client_machines: 7,
            clients_per_machine: 5,
            value_size: 32,
            get_pct: 95.0,
            skew: false,
            process_us: 0,
            fetch_size: None,
            retry: None,
            shards: 1,
            loss_pct: 0.0,
            window_ms: 4,
            seed: 42,
            keys: 2_000,
            telemetry: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--system" => args.system = value("--system")?,
            "--server-threads" => {
                args.server_threads = value(&flag)?.parse().map_err(|e| format!("{e}"))?
            }
            "--client-machines" => {
                args.client_machines = value(&flag)?.parse().map_err(|e| format!("{e}"))?
            }
            "--clients-per-machine" => {
                args.clients_per_machine = value(&flag)?.parse().map_err(|e| format!("{e}"))?
            }
            "--value-size" => {
                args.value_size = value(&flag)?.parse().map_err(|e| format!("{e}"))?
            }
            "--get-pct" => args.get_pct = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--skew" => args.skew = true,
            "--process-us" => {
                args.process_us = value(&flag)?.parse().map_err(|e| format!("{e}"))?
            }
            "--fetch-size" => {
                args.fetch_size = Some(value(&flag)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--retry" => args.retry = Some(value(&flag)?.parse().map_err(|e| format!("{e}"))?),
            "--shards" => args.shards = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--loss-pct" => args.loss_pct = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--window-ms" => args.window_ms = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--keys" => args.keys = value(&flag)?.parse().map_err(|e| format!("{e}"))?,
            "--telemetry" => args.telemetry = Some(value(&flag)?.into()),
            "--help" | "-h" => {
                return Err("see the module docs at the top of explore.rs".into());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn config_from(args: &Args) -> SystemConfig {
    let mut cfg = SystemConfig {
        server_threads: args.server_threads,
        client_machines: args.client_machines,
        clients_per_machine: args.clients_per_machine,
        spec: WorkloadSpec {
            key_count: args.keys,
            keys: if args.skew {
                KeyDist::Zipf(0.99)
            } else {
                KeyDist::Uniform
            },
            values: ValueSize::Fixed(args.value_size),
            mix: OpMix {
                get_fraction: args.get_pct / 100.0,
            },
            ..WorkloadSpec::paper_default()
        },
        extra_process: SimSpan::micros(args.process_us),
        seed: args.seed,
        ..SystemConfig::default()
    };
    if let Some(f) = args.fetch_size {
        cfg.rfp.fetch_size = f;
    }
    if let Some(r) = args.retry {
        cfg.rfp.retry_threshold = r;
    }
    cfg.profile.nic.unreliable_loss = args.loss_pct / 100.0;
    cfg
}

fn report(run: &KvRun) {
    println!("throughput          : {:.3} MOPS", run.mops);
    println!(
        "latency mean/p50/p99: {:.2} / {:.2} / {:.2} us",
        run.mean_latency_us, run.p50_us, run.p99_us
    );
    println!("server in-bound/req : {:.3}", run.inbound_per_req);
    println!("server out-bound/req: {:.3}", run.outbound_per_req);
    println!("client CPU          : {:.1}%", run.client_util * 100.0);
    if run.mean_attempts > 0.0 {
        println!(
            "fetch attempts mean/max: {:.3} / {} (N>1 on {:.3}% of calls)",
            run.mean_attempts,
            run.max_attempts,
            run.frac_retries_gt1 * 100.0
        );
        println!("mode switches       : {}", run.switches_to_reply);
    }
    if run.bypass_ops_per_get > 0.0 {
        println!(
            "bypass ops per GET  : {:.3} ({} crc retries)",
            run.bypass_ops_per_get, run.crc_retries
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cfg = config_from(&args);
    let warmup = SimSpan::millis(1);
    let window = SimSpan::millis(args.window_ms);

    println!("# system={} {args:?}", args.system);
    let shards = args.shards;
    let sharded =
        move |sim: &mut Simulation, cfg: &SystemConfig| spawn_sharded_jakiro(sim, cfg, shards);
    let spawn: &dyn Fn(&mut Simulation, &SystemConfig) -> KvSystem = match args.system.as_str() {
        "jakiro" => &spawn_jakiro,
        "server-reply" => &spawn_server_reply_kv,
        "memcached" => &spawn_memcached,
        "pilaf" => &spawn_pilaf,
        "herd" => &spawn_herd,
        "jakiro-shared" => &spawn_jakiro_shared,
        "sharded" => &sharded,
        other => {
            eprintln!("error: unknown system {other}");
            std::process::exit(2);
        }
    };
    let run = match &args.telemetry {
        Some(dir) => {
            let run =
                run_kv_telemetry(spawn, &cfg, warmup, window, dir).expect("write telemetry bundle");
            println!("# telemetry written to {}", dir.display());
            run
        }
        None => run_kv(spawn, &cfg, warmup, window),
    };
    report(&run);
}
