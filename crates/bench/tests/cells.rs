//! Bench binaries own their numbers.
//!
//! A figure cell renders into a buffer of its own, and a binary leaves
//! behind only what it is asked for: `all_figures` without `--csv`
//! writes no file, and a sweep writes exactly its `BENCH_<sweep>.json`.
//! Each binary runs in a fresh empty directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use rfp_bench::figures::EXPERIMENTS;
use rfp_bench::prose::{bench_json, golden};

/// A fresh empty directory under the system temp dir, one per test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfp-bench-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The names of the entries of `dir`, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Runs `bin args…` in `dir` and returns its stdout; fails on a
/// non-zero exit.
fn run(bin: &str, args: &[&str], dir: &Path) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn bench binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is utf8")
}

#[test]
fn fig03_renders_its_golden_into_a_buffer() {
    let (_, fig03) = EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == "fig03_asymmetry")
        .expect("fig03 is registered");
    let csv = rfp_bench::render(*fig03).expect("a buffer accepts every write");
    assert_eq!(String::from_utf8(csv).unwrap(), golden("fig03_asymmetry"));
}

#[test]
fn all_figures_without_csv_writes_no_file() {
    let dir = scratch("all_figures");
    let stdout = run(
        env!("CARGO_BIN_EXE_all_figures"),
        &["fig03_asymmetry"],
        &dir,
    );
    assert_eq!(entries(&dir), Vec::<String>::new());
    assert_eq!(
        stdout,
        format!("## fig03_asymmetry\n{}", golden("fig03_asymmetry"))
    );
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn pipeline_writes_exactly_its_committed_bench_json() {
    let dir = scratch("pipeline");
    run(env!("CARGO_BIN_EXE_pipeline"), &["42"], &dir);
    assert_eq!(entries(&dir), ["BENCH_pipeline.json"]);
    let json = fs::read_to_string(dir.join("BENCH_pipeline.json")).expect("read BENCH json");
    assert_eq!(json, bench_json("pipeline"));
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}
