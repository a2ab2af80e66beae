//! One copy of every number: EXPERIMENTS.md and README.md restate a
//! committed result only inside a generated fence, and each fence reads
//! exactly what `rfp_bench::prose` renders from `experiments/*.csv`,
//! `BENCH_<sweep>.json`, the closed-form model and `paper.rs`. A
//! decimal, percentage, `×` ratio or MOPS figure outside a fence must be
//! a value the paper quotes. Reads committed files only; no simulation
//! runs. After moving a committed number on purpose, rewrite the fences
//! with `cargo run -p rfp-bench --bin render_docs`.

use rfp_bench::prose::{check, check_docs, repo_root};

#[test]
fn every_fence_matches_its_rendering_and_no_number_strays() {
    let problems = check_docs();
    assert!(
        problems.is_empty(),
        "docs out of step with the committed results \
         (cargo run -p rfp-bench --bin render_docs rewrites the fences):\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn a_planted_edit_and_a_stray_decimal_are_caught() {
    let doc = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    assert!(check("EXPERIMENTS.md", &doc).is_empty());

    // One rendered cell of the fig10 fence changed in memory: the
    // measured peak at 35 threads, 5.56 MOPS, typed as 5.57.
    let open = doc.find("<!-- gen:fig10 -->").expect("fig10 fence");
    let row = open
        + doc[open..]
            .find("| measured (MOPS) |")
            .expect("measured row");
    let cell = row + doc[row..].find(" 5.56 ").expect("35-thread cell");
    let mut edited = doc.clone();
    edited.replace_range(cell + 1..cell + 5, "5.57");
    let problems = check("EXPERIMENTS.md", &edited);
    assert_eq!(problems.len(), 1, "{problems:#?}");
    assert!(
        problems[0].contains("gen:fig10") && problems[0].contains("5.57"),
        "{}",
        problems[0]
    );

    // A stray decimal on a line of its own after the first heading, and
    // a paper value (the paper's 2.005 round trips) beside it, which
    // may stand outside a fence.
    let heading_end = doc.find('\n').expect("first line") + 1;
    let mut strayed = doc.clone();
    strayed.insert_str(heading_end, "Jakiro peaks at 5.58 MOPS (paper: 2.005).\n");
    let problems = check("EXPERIMENTS.md", &strayed);
    assert_eq!(
        problems,
        ["EXPERIMENTS.md:2: 5.58 MOPS outside a fence is not a paper.rs value"]
    );
}
