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

use std::io::Write;

use rfp_bench::figures::EXPERIMENTS;

/// The `--csv` directory and the experiment names given.
fn parse_args() -> Result<(Option<String>, Vec<String>), String> {
    let (mut dir, mut names) = (None, Vec::new());
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--csv" {
            dir = Some(it.next().ok_or("missing value for --csv")?);
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
    let mut out = std::io::stdout().lock();
    // Paper order, whatever order the names came in.
    let selected = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    for (name, f) in EXPERIMENTS.iter().filter(|(name, _)| selected(name)) {
        writeln!(out, "## {name}").expect("stdout");
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir).expect("create output dir");
            let mut file = std::fs::File::create(format!("{dir}/{name}.csv")).expect("create csv");
            f(&mut file).expect("write csv");
            // Echo to stdout as well.
            let body = std::fs::read_to_string(format!("{dir}/{name}.csv")).expect("read back");
            out.write_all(body.as_bytes()).expect("stdout");
        } else {
            f(&mut out).expect("stdout");
        }
    }
    let path = rfp_bench::telemetry::emit_bench_json("all_figures").expect("write bench json");
    writeln!(out, "# bench registry exported to {}", path.display()).expect("stdout");
}
