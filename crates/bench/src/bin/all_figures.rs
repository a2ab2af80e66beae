//! Regenerates the paper's figures and tables: all of them, or the
//! experiments named on the command line.
//!
//! ```text
//! all_figures [--csv <dir>] [name…]
//! ```
//!
//! Names are those of [`rfp_bench::figures::EXPERIMENTS`]
//! (`fig03_asymmetry` … `fig20_skew_cdf`, `table3_retries`). With
//! `--csv <dir>`, each experiment is additionally written to
//! `<dir>/<name>.csv` for inclusion in EXPERIMENTS.md.

use std::path::PathBuf;

use rfp_bench::figures::EXPERIMENTS;

/// The `--csv` directory and the experiment names given.
fn parse_args() -> Result<(Option<PathBuf>, Vec<String>), String> {
    let (mut dir, mut names) = (None, Vec::new());
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--csv" {
            dir = Some(it.next().ok_or("missing value for --csv")?.into());
        } else if EXPERIMENTS.iter().any(|(name, _)| *name == arg) {
            names.push(arg);
        } else {
            return Err(format!("unknown experiment {arg}"));
        }
    }
    Ok((dir, names))
}

fn main() {
    let (dir, names) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // Paper order, whatever order the names came in.
    let selected = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    rfp_bench::print_tables(
        EXPERIMENTS.iter().filter(|(name, _)| selected(name)),
        dir.as_deref(),
    )
    .expect("write tables");
}
