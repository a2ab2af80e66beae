//! Multi-core scaling sweep: reactor cores × key skew, with and
//! without work stealing.
//!
//! The serve reactor partitions keys EREW-style (each core owns its
//! partition's connections outright); this sweep measures the two
//! regimes that design must survive:
//!
//! - **uniform** keys must *scale*: 4 cores ≥ 3× the aggregate 32-byte
//!   GET throughput of 1 core (near-linear, minus scan and fan-out
//!   overheads);
//! - **Zipf(0.99) concentrated on one partition** is EREW's worst
//!   case. Without stealing the hot core saturates and the closed-loop
//!   clients drag the whole system down to little more than single-core
//!   throughput (the collapse). With stealing, idle siblings drain the
//!   hot core's rings — a pass takes the hot core's backlog above the
//!   average, paying the modeled cross-core handoff per request — and
//!   aggregate throughput stays within 1.25× of the uniform run.
//!
//! The skewed keyspace is *constructed* (see
//! [`rfp_kvstore::build_keyspace`]): hashing alone would spray the hot
//! ranks across partitions and hide the effect the paper's §4.4.3
//! load-balance argument warns about.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin cores [seed]
//! ```

use rfp_bench::{cells, emit_bench_json, seed_arg};
use rfp_kvstore::{spawn_cores_kv, CoresConfig, CoresKv};
use rfp_simnet::{SimSpan, Simulation};

/// Core counts swept.
const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The paper's skew exponent.
const THETA: f64 = 0.99;
const WARMUP: SimSpan = SimSpan::millis(1);
const WINDOW: SimSpan = SimSpan::millis(4);

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Uniform,
    Zipf { steal: bool },
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Uniform => "uniform",
            Mode::Zipf { steal: true } => "zipf",
            Mode::Zipf { steal: false } => "zipf_nosteal",
        }
    }
}

struct Point {
    cores: usize,
    mode: Mode,
    kops: f64,
    steals: u64,
    handoffs: u64,
    /// Hottest core's served count over the per-core mean (1.0 = flat).
    imbalance_milli: u64,
    served: Vec<u64>,
    /// The run's registry rows, for the determinism check.
    fingerprint: String,
}

fn run_point(seed: u64, &(cores, mode): &(usize, Mode)) -> Point {
    let cfg = CoresConfig {
        cores,
        steal: !matches!(mode, Mode::Zipf { steal: false }),
        skew: match mode {
            Mode::Uniform => None,
            Mode::Zipf { .. } => Some(THETA),
        },
        seed,
        ..CoresConfig::default()
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn_cores_kv(&mut sim, &cfg);
    sim.run_for(WARMUP);
    sys.reset_measurements();
    sim.run_for(WINDOW);
    let fingerprint = fingerprint(&sys);
    let done = sys.stats.completed.get();
    assert!(
        done > 0,
        "{cores}-core {} run made no progress",
        mode.label()
    );
    let report = sys.skew_report(sim.now());
    let steals: u64 = (0..cores).map(|i| sys.reactor.steals(i)).sum();
    Point {
        cores,
        mode,
        kops: done as f64 / WINDOW.as_secs_f64() / 1e3,
        steals,
        handoffs: sys.reactor.handoffs(),
        imbalance_milli: (report.imbalance() * 1e3) as u64,
        served: sys.served_per_core(),
        fingerprint,
    }
}

fn find(points: &[Point], cores: usize, mode: Mode) -> &Point {
    points
        .iter()
        .find(|p| p.cores == cores && p.mode == mode)
        .expect("swept point")
}

/// Byte-stable fingerprint of one run for the CI determinism check.
fn fingerprint(sys: &CoresKv) -> String {
    let mut buf = Vec::new();
    sys.registry
        .snapshot()
        .write_csv(&mut buf)
        .expect("in-memory CSV");
    String::from_utf8(buf).expect("CSV is UTF-8")
}

fn main() {
    let seed = seed_arg();

    let mut specs = Vec::new();
    for &n in &CORE_COUNTS {
        let modes: &[Mode] = if n == 1 {
            // Nothing to steal on one core; the skewed order degenerates
            // to a relabeled uniform keyspace.
            &[Mode::Uniform]
        } else {
            &[
                Mode::Uniform,
                Mode::Zipf { steal: true },
                Mode::Zipf { steal: false },
            ]
        };
        specs.extend(modes.iter().map(|&mode| (n, mode)));
    }
    let points = cells(&specs, |spec| run_point(seed, spec));

    println!("# cores sweep: reactor cores x skew, 32B GETs");
    println!(
        "# seed={seed} warmup={}ms window={}ms theta={THETA}",
        WARMUP.as_nanos() / 1_000_000,
        WINDOW.as_nanos() / 1_000_000,
    );
    println!("cores,mode,kops,steals,handoffs,imbalance_milli,served_per_core");
    let mut exports = Vec::new();
    for p in &points {
        println!(
            "{},{},{:.1},{},{},{},{}",
            p.cores,
            p.mode.label(),
            p.kops,
            p.steals,
            p.handoffs,
            p.imbalance_milli,
            p.served
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("|"),
        );
        let key = format!("bench.cores.c{}.{}", p.cores, p.mode.label());
        for (metric, value) in [
            ("ops", (p.kops * 1e3) as u64),
            ("steals", p.steals),
            ("handoffs", p.handoffs),
            ("imbalance_milli", p.imbalance_milli),
        ] {
            exports.push((format!("{key}.{metric}"), value));
        }
    }

    // Near-linear uniform scaling: 4 cores carry at least 3x the
    // aggregate throughput of 1.
    let one = find(&points, 1, Mode::Uniform);
    let four = find(&points, 4, Mode::Uniform);
    assert!(
        four.kops >= 3.0 * one.kops,
        "uniform 4-core must scale >=3x over 1 core: {:.1} vs {:.1} kops",
        four.kops,
        one.kops
    );

    // Skew tolerance: with stealing, the all-hot-keys-on-one-core
    // worst case stays within 1.25x of uniform throughput...
    let skew_steal = find(&points, 4, Mode::Zipf { steal: true });
    assert!(
        skew_steal.kops * 1.25 >= four.kops,
        "4-core zipf with stealing degraded more than 1.25x off uniform: \
         {:.1} vs {:.1} kops",
        skew_steal.kops,
        four.kops
    );
    assert!(
        skew_steal.steals > 0 && skew_steal.handoffs > 0,
        "the skewed run must actually exercise the steal path"
    );

    // ...while without stealing the hot core throttles the whole
    // closed loop (the collapse stealing exists to prevent).
    let skew_nosteal = find(&points, 4, Mode::Zipf { steal: false });
    assert!(
        skew_steal.kops >= 1.2 * skew_nosteal.kops,
        "stealing must materially beat EREW-only under skew: \
         {:.1} vs {:.1} kops",
        skew_steal.kops,
        skew_nosteal.kops
    );
    assert_eq!(skew_nosteal.steals, 0, "steal-off run must not steal");

    // The no-steal skewed run is visibly imbalanced; the uniform run
    // is not (these are the signals the CoreSkew health rollup and the
    // doctor's core_imbalance row key off).
    assert!(
        skew_nosteal.imbalance_milli > 2_000,
        "no-steal skew should concentrate >2x mean load on the hot core \
         (got {} milli)",
        skew_nosteal.imbalance_milli
    );
    assert!(
        four.imbalance_milli < 1_500,
        "uniform 4-core load should stay near-flat (got {} milli)",
        four.imbalance_milli
    );

    // Determinism: the same seed replays the swept 4-core stealing
    // cell byte-for-byte (registry rows compared).
    let replay = run_point(seed, &(4, Mode::Zipf { steal: true }));
    assert_eq!(
        replay.fingerprint, skew_steal.fingerprint,
        "same-seed runs must be byte-identical"
    );

    let path = emit_bench_json("cores", exports).expect("write BENCH_cores.json");
    println!("# wrote {}", path.display());
    println!("# all core-scaling assertions passed");
}
