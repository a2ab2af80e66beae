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
use std::path::Path;

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

/// Metric name → value, as printed.
type Cell<'a> = BTreeMap<&'a str, &'a str>;

/// Groups of two or more cells of `sweep` that carry the same value for
/// every metric, read from the flat one-key-per-line JSON the bench
/// registry writes.
fn duplicate_cells(sweep: &str, json: &str) -> Vec<Vec<String>> {
    let prefix = format!("bench.{sweep}.");
    let mut cells: BTreeMap<&str, Cell> = BTreeMap::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(": ") else {
            continue;
        };
        let key = key.trim_matches('"');
        let key = key
            .strip_prefix(&prefix)
            .unwrap_or_else(|| panic!("BENCH_{sweep}.json: key {key} outside {prefix}*"));
        let (cell, metric) = key.rsplit_once('.').unwrap_or(("", key));
        cells.entry(cell).or_default().insert(metric, value);
    }
    let mut groups: BTreeMap<&Cell, Vec<String>> = BTreeMap::new();
    for (name, metrics) in &cells {
        groups.entry(metrics).or_default().push(name.to_string());
    }
    groups.into_values().filter(|g| g.len() > 1).collect()
}

#[test]
fn no_two_cells_of_a_committed_sweep_are_identical() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut duplicates = Vec::new();
    for sweep in SWEEPS {
        let path = root.join(format!("BENCH_{sweep}.json"));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for group in duplicate_cells(sweep, &json) {
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
