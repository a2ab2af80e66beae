//! Every cell of a committed sweep is its own experiment.
//!
//! A sweep cell that matches another cell of the same sweep in every
//! metric says nothing the other does not: either the axis between them
//! never reaches the simulation, or two names run one mechanism, or the
//! metric that tells them apart is not exported. This reads the
//! committed `BENCH_<sweep>.json` of the nine sweeps `scripts/ci.sh`
//! runs and fails on any two cells with identical values for every
//! metric. A cell is a key minus its `bench.<sweep>.` prefix and its
//! last segment (the metric). There is no allowlist: drop the
//! duplicate cell or export what separates it.
//!
//! The paper-figure goldens under `experiments/` are out of scope: their
//! equal adjacent points (the flat region below the in-bound knee, say)
//! are results.

use std::collections::BTreeMap;

use rfp_bench::prose::{bench_json, sweep_cells, Metrics};

/// The sweeps `scripts/ci.sh` runs and gates, each with a committed
/// `BENCH_<sweep>.json`.
const SWEEPS: [&str; 9] = [
    "chaos",
    "overload",
    "integrity",
    "pipeline",
    "doctor",
    "fleet",
    "failover",
    "grayfail",
    "cores",
];

/// Groups of two or more cells of `sweep` that carry the same value for
/// every metric.
fn duplicate_cells(sweep: &str, json: &str) -> Vec<Vec<String>> {
    let cells = sweep_cells(sweep, json);
    let mut groups: BTreeMap<&Metrics, Vec<String>> = BTreeMap::new();
    for (name, metrics) in &cells {
        groups.entry(metrics).or_default().push(name.to_string());
    }
    groups.into_values().filter(|g| g.len() > 1).collect()
}

#[test]
fn no_two_cells_of_a_committed_sweep_are_identical() {
    let mut duplicates = Vec::new();
    for sweep in SWEEPS {
        for group in duplicate_cells(sweep, &bench_json(sweep)) {
            duplicates.push(format!("{sweep}: {}", group.join(" = ")));
        }
    }
    assert!(
        duplicates.is_empty(),
        "sweep cells identical in every metric:\n  {}",
        duplicates.join("\n  ")
    );
}

#[test]
fn a_planted_duplicate_cell_is_caught() {
    let json = r#"{
  "bench.demo.idle_milli": 24,
  "bench.demo.w1.p16.kops": 341,
  "bench.demo.w1.p16.reads": 1000,
  "bench.demo.w1.p32.kops": 341,
  "bench.demo.w1.p32.reads": 1000,
  "bench.demo.w1.p512.kops": 337,
  "bench.demo.w1.p512.reads": 1000,
  "bench.demo.w2.p16.kops": 341
}"#;
    assert_eq!(
        duplicate_cells("demo", json),
        vec![vec!["w1.p16".to_string(), "w1.p32".to_string()]]
    );
}
