//! Rewrites every generated fence of EXPERIMENTS.md, README.md and
//! DESIGN.md in place from the committed results, after a number moved
//! on purpose:
//!
//! ```text
//! cargo run -p rfp-bench --bin render_docs
//! ```
//!
//! It renders with the code `crates/bench/tests/prose.rs` checks with,
//! reads committed files only and runs no simulation. It prints the
//! documents it changed, then what the check still reports (a number
//! outside a fence that is not a paper value), and exits non-zero if
//! anything is left.

use rfp_bench::prose::{check, repo_root, rewrite, DOCS};

fn main() {
    let mut left = Vec::new();
    for doc in DOCS {
        let path = repo_root().join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let fresh = rewrite(&text);
        if fresh != text {
            std::fs::write(&path, &fresh)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("rewrote {doc}");
        }
        left.extend(check(doc, &fresh));
    }
    for problem in &left {
        eprintln!("{problem}");
    }
    if !left.is_empty() {
        std::process::exit(1);
    }
}
