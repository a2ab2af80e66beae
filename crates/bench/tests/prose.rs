//! One copy of every number: EXPERIMENTS.md, README.md and DESIGN.md
//! restate a committed result only inside a generated fence, and each
//! fence reads exactly what `rfp_bench::prose` renders from
//! `experiments/*.csv`, `BENCH_<sweep>.json`, the closed-form model and
//! `paper.rs`. A decimal, percentage, `×` ratio or MOPS figure outside a
//! fence must be a value the paper quotes. Reads committed files only;
//! no simulation runs. After moving a committed number on purpose,
//! rewrite the fences with `cargo run -p rfp-bench --bin render_docs`.
//!
//! And every citation of DESIGN.md in the tree — a section number after
//! `§` or a quoted title — names one of its headings.

use std::path::Path;

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

    // DESIGN.md is held to the same rule: a measured decimal typed into
    // its prose is caught.
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    assert!(check("DESIGN.md", &design).is_empty());
    let heading_end = design.find('\n').expect("first line") + 1;
    let mut strayed = design.clone();
    strayed.insert_str(heading_end, "A head look costs 1.37 of a full scan.\n");
    assert_eq!(
        check("DESIGN.md", &strayed),
        ["DESIGN.md:2: 1.37 outside a fence is not a paper.rs value"]
    );
}

/// One citation of DESIGN.md: a section number or a heading title.
#[derive(Debug, PartialEq)]
enum Cite {
    Section(String),
    Title(String),
}

/// The section numbers (`5b`) and titles (`Wire format`) of DESIGN.md's
/// headings, code blocks skipped.
fn headings(design: &str) -> (Vec<String>, Vec<String>) {
    let (mut numbers, mut titles) = (Vec::new(), Vec::new());
    let mut in_code = false;
    for line in design.lines() {
        if line.starts_with("```") {
            in_code = !in_code;
        }
        if in_code || !line.starts_with('#') {
            continue;
        }
        let text = line.trim_start_matches('#').trim();
        let numbered = text.split_once(". ").filter(|(n, _)| {
            n.starts_with(|c: char| c.is_ascii_digit()) && n.chars().all(|c| c.is_alphanumeric())
        });
        match numbered {
            Some((number, title)) => {
                numbers.push(number.to_string());
                titles.push(title.to_string());
            }
            None => titles.push(text.to_string()),
        }
    }
    (numbers, titles)
}

/// The citations of DESIGN.md in `text`: `DESIGN` or `DESIGN.md`, then
/// any run of `§<number>`, and a `"<title>"` set off by a space, comma
/// or parenthesis. Comment markers at line starts are dropped and lines
/// joined, so a citation may wrap.
fn citations(text: &str) -> Vec<Cite> {
    let joined: Vec<&str> = text
        .lines()
        .map(|l| l.trim_start().trim_start_matches(['/', '!', '#']).trim())
        .collect();
    let joined = joined.join(" ");
    let mut found = Vec::new();
    let mut rest = joined.as_str();
    while let Some(at) = rest.find("DESIGN") {
        let glued = rest[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        rest = &rest[at + "DESIGN".len()..];
        if glued {
            continue;
        }
        let mut tail = rest.strip_prefix(".md").unwrap_or(rest);
        tail = tail.strip_prefix('`').unwrap_or(tail);
        tail = tail.strip_prefix("'s").unwrap_or(tail);
        loop {
            let spaced = tail.trim_start_matches([' ', ',', '(']);
            let set_off = spaced.len() < tail.len();
            if let Some(after) = spaced.strip_prefix('§') {
                let end = after
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '.')
                    .unwrap_or(after.len());
                let number = after[..end].trim_end_matches('.');
                found.push(Cite::Section(number.to_string()));
                tail = &after[end..];
                continue;
            }
            let title = spaced.strip_prefix('"').and_then(|t| t.split_once('"'));
            if let (true, Some((title, _))) = (set_off, title) {
                found.push(Cite::Title(title.to_string()));
            }
            break;
        }
    }
    found
}

/// The citations in `text` that name no heading of `design`.
fn dangling(design: &str, text: &str) -> Vec<Cite> {
    let (numbers, titles) = headings(design);
    citations(text)
        .into_iter()
        .filter(|c| match c {
            Cite::Section(n) => !numbers.contains(n),
            Cite::Title(t) => !titles.contains(t),
        })
        .collect()
}

/// Every text file under `dir`, build output skipped.
fn files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn every_design_citation_names_a_heading() {
    let root = repo_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "scripts"] {
        files_under(&root.join(dir), &mut files);
    }
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        files.push(root.join(doc));
    }
    let mut problems = Vec::new();
    let mut cited = 0;
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        cited += citations(&text).len();
        for cite in dangling(&design, &text) {
            let rel = file.strip_prefix(&root).unwrap_or(file);
            problems.push(format!("{}: {cite:?}", rel.display()));
        }
    }
    assert!(
        cited > 0,
        "no citation of DESIGN.md found: the scan is broken"
    );
    assert!(
        problems.is_empty(),
        "citations of DESIGN.md that name no heading of it (cite by title):\n  {}",
        problems.join("\n  ")
    );

    // A planted section number and title that DESIGN.md lacks are both
    // caught, also when the title wraps onto a comment line of its own.
    let planted = format!(
        "see DESIGN {}99 and\n/// DESIGN.md \"Gone\n/// chapter\".",
        '§'
    );
    assert_eq!(
        dangling(&design, &planted),
        [
            Cite::Section("99".into()),
            Cite::Title("Gone chapter".into())
        ]
    );
}
