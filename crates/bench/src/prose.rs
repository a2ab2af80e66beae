//! One copy of every number: the committed results and the prose that
//! quotes them.
//!
//! `experiments/*.csv` and `BENCH_<sweep>.json` are the only copy of a
//! measured number. The documents of [`DOCS`] restate one only inside
//! a fence,
//!
//! ```text
//! <!-- gen:<name> -->
//! …rendered text…
//! <!-- /gen -->
//! ```
//!
//! whose text [`FENCES`] renders from those files, the closed-form
//! model ([`predicted`]) and the paper's own values ([`crate::paper`]).
//! [`check`] re-renders every fence of a document and also reports any
//! decimal, percentage, `×` ratio or MOPS / kops figure outside a fence
//! (code blocks aside) that is not a paper value; `render_docs`
//! rewrites the fences in place after an on-purpose move. Nothing here
//! runs a simulation.
//!
//! This module is also the one reader of the committed results that
//! `tests/model.rs` and `tests/distinct_cells.rs` use.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rfp_core::{Bound, ParamSelector, Params};
use rfp_kvstore::SystemConfig;
use rfp_simnet::SimSpan;

use crate::paper;
use crate::prerun_sample;

mod fences;
use fences::FENCES;

/// The documents whose numbers are generated.
pub const DOCS: [&str; 3] = ["EXPERIMENTS.md", "README.md", "DESIGN.md"];

/// The repository root (this crate sits at `crates/bench`).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed golden `experiments/<name>.csv`.
pub fn golden(name: &str) -> String {
    read(&format!("experiments/{name}.csv"))
}

/// The committed `BENCH_<sweep>.json`.
pub fn bench_json(sweep: &str) -> String {
    read(&format!("BENCH_{sweep}.json"))
}

/// The data rows `fig,series,x,y` of a golden, comments skipped.
fn rows(csv: &str) -> impl Iterator<Item = [&str; 4]> {
    csv.lines().filter(|l| !l.starts_with('#')).map(|l| {
        let mut f = l.splitn(4, ',');
        [(); 4].map(|_| f.next().unwrap_or_else(|| panic!("golden row {l:?}")))
    })
}

/// The measured `y` of the golden row `fig,series,x,y`.
pub fn measured(csv: &str, fig: &str, series: &str, x: &str) -> f64 {
    rows(csv)
        .find(|r| r[..3] == [fig, series, x])
        .map(|r| r[3].parse().expect("numeric y"))
        .unwrap_or_else(|| panic!("no golden row {fig},{series},{x}"))
}

/// The `R=<r> F=<f>` a golden comment line starting with `prefix` records.
pub fn recorded_pick(csv: &str, prefix: &str) -> Params {
    let line = csv
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no comment line {prefix:?}"));
    let field = |key: &str| {
        let rest = &line[line.find(key).expect(key) + key.len()..];
        rest.split(' ').next().unwrap().parse::<usize>().unwrap()
    };
    Params {
        r: field("R=") as u32,
        f: field("F="),
    }
}

/// Metric name → value, as printed.
pub type Metrics<'a> = BTreeMap<&'a str, &'a str>;

/// The cells of `sweep`'s flat one-key-per-line BENCH json: a key
/// minus its `bench.<sweep>.` prefix and its last segment (the metric)
/// names the cell; a key with one segment is a metric of cell `""`.
///
/// # Panics
///
/// On a key outside `bench.<sweep>.`.
pub fn sweep_cells<'a>(sweep: &str, json: &'a str) -> BTreeMap<&'a str, Metrics<'a>> {
    let prefix = format!("bench.{sweep}.");
    let mut cells: BTreeMap<&str, Metrics> = BTreeMap::new();
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
    cells
}

/// Process time of a KV request in the model (the figures' pre-run).
pub const KV_PROCESS: SimSpan = SimSpan::nanos(200);

/// Bytes a GET response adds to its value (tag + length).
const KV_RESP_OVERHEAD: usize = 5;

/// The closed-form model's bound for `series` (`jakiro`, else
/// ServerReply) on rig `cfg` at `(R, F)` = `pick` with `value`-byte
/// values, as `figures.rs` runs them.
pub fn predicted(series: &str, cfg: &SystemConfig, pick: Params, value: usize) -> Bound {
    let selector = ParamSelector::new(cfg.profile.nic.clone(), cfg.profile.link.clone());
    let result = value + KV_RESP_OVERHEAD;
    let w = prerun_sample(cfg, vec![result], KV_PROCESS);
    if series == "jakiro" {
        selector.rfp_throughput(pick.r, pick.f, &w, result)
    } else {
        selector.server_reply_throughput(&w, result)
    }
}

/// A number a fence quotes.
enum Val {
    /// `y` of the golden row `series,x` of `experiments/<golden>.csv`.
    Y(&'static str, &'static str, &'static str),
    /// The largest `y` of a golden series.
    Peak(&'static str, &'static str),
    /// One metric of a committed sweep, divided by the second field:
    /// sweep, then the key without its `bench.<sweep>.` prefix.
    Bench(&'static str, &'static str, f64),
    /// The first over the second.
    Div(&'static Val, &'static Val),
}

/// How a number prints.
#[derive(Clone, Copy)]
enum Fmt {
    /// Fixed point with this many decimals.
    Fixed(usize),
    /// Fixed point and a `×`.
    Times(usize),
    /// Times 100, fixed point and a `%`.
    Pct(usize),
}

impl Fmt {
    fn show(self, v: f64) -> String {
        match self {
            Fmt::Fixed(d) => format!("{v:.d$}"),
            Fmt::Times(d) => format!("{v:.d$}×"),
            Fmt::Pct(d) => format!("{:.d$}%", v * 100.0),
        }
    }
}

/// One row of a golden table: a label, then one cell per x value.
enum Row {
    /// The series' `y`.
    Series(&'static str, &'static str, Fmt),
    /// One series over another at each x.
    Ratio(&'static str, &'static str, &'static str, Fmt),
    /// The closed-form model's Jakiro bound on the default rig with x
    /// client threads spread over its client machines (fig10).
    Predicted(&'static str, Fmt),
    /// A series of another golden at the same x values.
    Other(&'static str, &'static str, &'static str, Fmt),
}

/// One column of a sweep table.
enum Col {
    /// Header, the rest of the key after the row's cell (`.kops`,
    /// `_2.completed`), divisor, and how the quotient prints.
    Metric(&'static str, &'static str, f64, Fmt),
    /// Header and the rest of a 0/1 metric's key, printed no/yes.
    Flag(&'static str, &'static str),
    /// Header and every non-zero metric of the row's cell but the
    /// named one, by name.
    Raised(&'static str, &'static str),
    /// Header, the rest of the key, and the whole key of the metric it
    /// is divided by.
    Over(&'static str, &'static str, &'static str, Fmt),
}

/// What a fence renders.
enum Body {
    /// Series of one golden (rows) at its x values (columns). Header:
    /// the x axis's name, then each x as printed, with `x_unit`.
    Golden {
        golden: &'static str,
        axis: &'static str,
        xs: &'static [&'static str],
        x_unit: &'static str,
        rows: &'static [Row],
    },
    /// One committed sweep: a row per (label, cell or cell prefix), a
    /// column per metric. A missing metric prints `—`.
    Sweep {
        sweep: &'static str,
        head: &'static str,
        cells: &'static [(&'static str, &'static str)],
        cols: &'static [Col],
    },
    /// A template: `{p:<name>}` is a paper quote, `{<i>}` the i-th value.
    Text(&'static str, &'static [(Val, Fmt)]),
}

/// A named fence.
struct Fence {
    name: &'static str,
    body: Body,
}

/// Committed files read once per render pass.
#[derive(Default)]
struct Committed {
    files: BTreeMap<String, String>,
}

impl Committed {
    fn golden(&mut self, name: &str) -> &str {
        self.files
            .entry(format!("experiments/{name}.csv"))
            .or_insert_with(|| golden(name))
    }

    fn y(&mut self, name: &str, series: &str, x: &str) -> f64 {
        self.try_y(name, series, x)
            .unwrap_or_else(|| panic!("no golden row {name}:{series},{x}"))
    }

    /// The golden's `(x, y)` points of `series`, in file order.
    fn series(&mut self, name: &str, series: &str) -> Vec<(String, f64)> {
        rows(self.golden(name))
            .filter(|r| r[1] == series)
            .map(|r| (r[2].to_string(), r[3].parse().expect("numeric y")))
            .collect()
    }

    fn try_y(&mut self, name: &str, series: &str, x: &str) -> Option<f64> {
        let points = self.series(name, series);
        points.into_iter().find(|(px, _)| px == x).map(|(_, y)| y)
    }

    fn peak(&mut self, name: &str, series: &str) -> f64 {
        self.series(name, series)
            .into_iter()
            .map(|(_, y)| y)
            .reduce(f64::max)
            .unwrap_or_else(|| panic!("no golden series {name}:{series}"))
    }

    fn json(&mut self, sweep: &str) -> &str {
        self.files
            .entry(format!("BENCH_{sweep}.json"))
            .or_insert_with(|| bench_json(sweep))
    }

    fn metric(&mut self, sweep: &str, key: &str) -> Option<f64> {
        let (cell, metric) = key.rsplit_once('.').unwrap_or(("", key));
        let cells = sweep_cells(sweep, self.json(sweep));
        let value = cells.get(cell)?.get(metric)?;
        Some(value.parse().expect("numeric metric"))
    }

    fn val(&mut self, v: &Val) -> f64 {
        match v {
            Val::Y(g, s, x) => self.y(g, s, x),
            Val::Peak(g, s) => self.peak(g, s),
            Val::Bench(sweep, key, div) => {
                let v = self.metric(sweep, key);
                v.unwrap_or_else(|| panic!("BENCH_{sweep}.json has no {key}")) / div
            }
            Val::Div(a, b) => self.val(a) / self.val(b),
        }
    }

    /// `template` with `{p:<name>}` replaced by the paper's value and
    /// `{<i>}` by `vals[i]`.
    fn fill(&mut self, template: &str, vals: &[(Val, Fmt)]) -> String {
        let mut out = String::new();
        let mut rest = template;
        while let Some(open) = rest.find('{') {
            out.push_str(&rest[..open]);
            let close = open + rest[open..].find('}').expect("unclosed { in template");
            let key = &rest[open + 1..close];
            match key.strip_prefix("p:") {
                Some(name) => out.push_str(&paper::quote(name).to_string()),
                None => {
                    let (v, fmt) = &vals[key.parse::<usize>().expect("value index")];
                    let v = self.val(v);
                    out.push_str(&fmt.show(v));
                }
            }
            rest = &rest[close + 1..];
        }
        out + rest
    }

    fn render(&mut self, body: &Body) -> String {
        match body {
            Body::Golden {
                golden,
                axis,
                xs,
                x_unit,
                rows,
            } => {
                let head = xs.iter().map(|x| match x.parse::<f64>() {
                    Ok(_) => format!("{x}{x_unit}"),
                    Err(_) => x.to_string(),
                });
                let mut lines = vec![
                    table_row(std::iter::once(axis.to_string()).chain(head)),
                    table_row(std::iter::repeat_n("---".to_string(), xs.len() + 1)),
                ];
                for row in *rows {
                    let (label, fmt) = match row {
                        Row::Series(l, _, f)
                        | Row::Ratio(l, _, _, f)
                        | Row::Predicted(l, f)
                        | Row::Other(_, l, _, f) => (l, f),
                    };
                    let cells = xs.iter().map(|x| {
                        let y = match row {
                            Row::Series(_, series, _) => self.try_y(golden, series, x),
                            Row::Ratio(_, num, den, _) => self
                                .try_y(golden, num, x)
                                .zip(self.try_y(golden, den, x))
                                .map(|(a, b)| a / b),
                            Row::Predicted(..) => Some(fig10_predicted(x)),
                            Row::Other(other, _, series, _) => self.try_y(other, series, x),
                        };
                        y.map_or("—".into(), |y| fmt.show(y))
                    });
                    let cells: Vec<String> = cells.collect();
                    lines.push(table_row(std::iter::once(label.to_string()).chain(cells)));
                }
                lines.join("\n")
            }
            Body::Sweep {
                sweep,
                head,
                cells,
                cols,
            } => {
                let heads = cols.iter().map(|c| match c {
                    Col::Metric(h, ..) | Col::Flag(h, _) | Col::Raised(h, _) | Col::Over(h, ..) => {
                        h.to_string()
                    }
                });
                let mut lines = vec![
                    table_row(std::iter::once(head.to_string()).chain(heads)),
                    table_row(std::iter::repeat_n("---".to_string(), cols.len() + 1)),
                ];
                for (label, cell) in *cells {
                    let mut row = vec![label.to_string()];
                    for col in *cols {
                        row.push(self.cell(sweep, cell, col));
                    }
                    lines.push(table_row(row.into_iter()));
                }
                lines.join("\n")
            }
            Body::Text(template, vals) => self.fill(template, vals),
        }
    }

    fn cell(&mut self, sweep: &str, cell: &str, col: &Col) -> String {
        let key = |metric: &str| format!("{cell}{metric}");
        match col {
            Col::Metric(_, metric, div, fmt) => self
                .metric(sweep, &key(metric))
                .map_or("—".into(), |v| fmt.show(v / div)),
            Col::Over(_, metric, base, fmt) => {
                let base = self
                    .metric(sweep, base)
                    .unwrap_or_else(|| panic!("BENCH_{sweep}.json has no {base}"));
                self.metric(sweep, &key(metric))
                    .map_or("—".into(), |v| fmt.show(v / base))
            }
            Col::Flag(_, metric) => match self.metric(sweep, &key(metric)) {
                Some(1.0) => "yes".into(),
                Some(_) => "no".into(),
                None => "—".into(),
            },
            Col::Raised(_, except) => {
                let cells = sweep_cells(sweep, self.json(sweep));
                let raised: Vec<String> = cells
                    .get(cell)
                    .unwrap_or_else(|| panic!("BENCH_{sweep}.json has no cell {cell}"))
                    .iter()
                    .filter(|(m, v)| *m != except && **v != "0")
                    .map(|(m, v)| format!("{m} {v}"))
                    .collect();
                match raised.is_empty() {
                    true => "—".into(),
                    false => raised.join(", "),
                }
            }
        }
    }
}

/// fig10's x (client threads) on the default rig at its default (R, F).
fn fig10_predicted(x: &str) -> f64 {
    let base = SystemConfig::default();
    let threads: usize = x.parse().expect("fig10 x is a thread count");
    let cfg = SystemConfig {
        clients_per_machine: threads / base.client_machines,
        ..base
    };
    let pick = Params {
        r: cfg.rfp.retry_threshold,
        f: cfg.rfp.fetch_size,
    };
    predicted("jakiro", &cfg, pick, 32).mops
}

fn table_row(cells: impl Iterator<Item = String>) -> String {
    let cells: Vec<String> = cells.collect();
    format!("| {} |", cells.join(" | "))
}

const OPEN: &str = "<!-- gen:";
const CLOSE: &str = "<!-- /gen -->";

/// One fence of a document: its name, the byte range of its text, and
/// the line its opening marker is on.
struct Span {
    name: String,
    text: std::ops::Range<usize>,
    line: usize,
}

/// The fences of `text`, or the first malformed marker.
fn fences(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    let mut at = 0;
    while let Some(open) = text[at..].find(OPEN).map(|i| at + i) {
        // A marker quoted as code (`<!-- gen:… -->`) is text.
        if text[..open].ends_with('`') {
            at = open + OPEN.len();
            continue;
        }
        let line = text[..open].matches('\n').count() + 1;
        let name_end = text[open..]
            .find(" -->")
            .map(|i| open + i)
            .ok_or(format!("line {line}: unterminated fence marker"))?;
        let name = text[open + OPEN.len()..name_end].to_string();
        let start = name_end + " -->".len();
        let end = text[start..]
            .find(CLOSE)
            .map(|i| start + i)
            .ok_or(format!("line {line}: fence gen:{name} is never closed"))?;
        if text[start..end].contains(OPEN) {
            return Err(format!("line {line}: fence gen:{name} holds another fence"));
        }
        spans.push(Span {
            name,
            text: start..end,
            line,
        });
        at = end + CLOSE.len();
    }
    Ok(spans)
}

/// What a fence must hold: a block fence (one whose text starts on a
/// line of its own) holds the rendering on lines of its own, an inline
/// one holds it as is.
fn wrap(rendered: &str, block: bool) -> String {
    match block {
        true => format!("\n{rendered}\n"),
        false => rendered.to_string(),
    }
}

fn fence(name: &str) -> Option<&'static Fence> {
    FENCES.iter().find(|f| f.name == name)
}

/// Every problem of document `doc` with contents `text`: a fence that
/// is malformed, unknown or differs from its rendering, and a
/// decimal, percentage, `×` ratio or MOPS / kops figure outside a fence
/// and outside code blocks that is not a [`paper`] value.
pub fn check(doc: &str, text: &str) -> Vec<String> {
    let spans = match fences(text) {
        Ok(spans) => spans,
        Err(e) => return vec![format!("{doc}: {e}")],
    };
    let mut problems = Vec::new();
    let mut committed = Committed::default();
    for span in &spans {
        let Some(f) = fence(&span.name) else {
            problems.push(format!(
                "{doc}:{}: unknown fence gen:{}",
                span.line, span.name
            ));
            continue;
        };
        let have = &text[span.text.clone()];
        let want = wrap(&committed.render(&f.body), have.starts_with('\n'));
        if have != want {
            let (h, w) = have
                .lines()
                .zip(want.lines())
                .find(|(h, w)| h != w)
                .unwrap_or((have, &want));
            problems.push(format!(
                "{doc}:{}: fence gen:{} differs from its rendering: {h:?} should read {w:?}",
                span.line, span.name
            ));
        }
    }
    // Blank every fence, markers included, keeping the line breaks.
    let mut outside = text.to_string();
    let mut blank = |from: usize, to: usize| {
        let spaced: String = text[from..to]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        outside.replace_range(from..to, &spaced);
    };
    for span in spans.iter().rev() {
        let open = text[..span.text.start].rfind(OPEN).expect("marker");
        blank(open, span.text.end + CLOSE.len());
    }
    let mut in_code = false;
    for (i, line) in outside.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if in_code {
            continue;
        }
        for number in unquoted_numbers(line) {
            problems.push(format!(
                "{doc}:{}: {number} outside a fence is not a paper.rs value",
                i + 1
            ));
        }
    }
    problems
}

/// Units after which a number is a measurement the gate must see.
const UNITS: [&str; 6] = ["%", "×", "MOPS", "Mops", "kops", "Mcalls"];

/// The numbers of `line` that need a [`paper`] quote — a decimal, or a
/// number followed by one of [`UNITS`] (a range `a–b` takes the unit
/// after `b`) — and lack one. Section numbers (`§4.4.2`, `4.4.2`),
/// path or DOI segments and digits inside identifiers (`fig10`,
/// `ConnectX-3`) are not numbers.
fn unquoted_numbers(line: &str) -> Vec<String> {
    let chars: Vec<char> = line.chars().collect();
    let number_at = |i: usize| {
        let mut j = i;
        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '.') {
            j += 1;
        }
        while j > i && chars[j - 1] == '.' {
            j -= 1;
        }
        j
    };
    let mut found = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let end = number_at(i);
        let prev = i.checked_sub(1).map(|p| chars[p]);
        let in_word = match prev {
            Some(c) if c.is_alphanumeric() || "_.§/".contains(c) => true,
            Some('-') => i >= 2 && chars[i - 2].is_alphabetic(),
            _ => false,
        };
        let token: String = chars[i..end].iter().collect();
        i = end;
        // A section number, or a path or DOI segment (`10.1145/…`).
        if in_word || token.matches('.').count() > 1 || chars.get(end) == Some(&'/') {
            continue;
        }
        // A range's first end takes the unit after its second.
        let mut after = end;
        if after + 1 < chars.len()
            && matches!(chars[after], '–' | '-')
            && chars[after + 1].is_ascii_digit()
        {
            after = number_at(after + 1);
        }
        let rest: String = chars[after..].iter().collect();
        let rest = rest.trim_start();
        let unit = UNITS.iter().find(|u| rest.starts_with(*u));
        if !token.contains('.') && unit.is_none() {
            continue;
        }
        let value: f64 = token.parse().expect("digits");
        if !paper::QUOTES.iter().any(|(_, v)| *v == value) {
            found.push(match unit {
                Some(u) if u.starts_with(char::is_alphabetic) => format!("{token} {u}"),
                Some(u) => format!("{token}{u}"),
                None => token,
            });
        }
    }
    found
}

/// `text` with every fence re-rendered.
///
/// # Panics
///
/// On a malformed or unknown fence.
pub fn rewrite(text: &str) -> String {
    let spans = fences(text).unwrap_or_else(|e| panic!("{e}"));
    let mut committed = Committed::default();
    let mut out = text.to_string();
    for span in spans.iter().rev() {
        let f = fence(&span.name)
            .unwrap_or_else(|| panic!("line {}: unknown fence gen:{}", span.line, span.name));
        let block = text[span.text.clone()].starts_with('\n');
        out.replace_range(span.text.clone(), &wrap(&committed.render(&f.body), block));
    }
    out
}

/// [`check`] over every document of [`DOCS`] as committed, plus every
/// [`FENCES`] entry no document uses.
pub fn check_docs() -> Vec<String> {
    let mut problems = Vec::new();
    let mut used = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        problems.extend(check(doc, &text));
        used.extend(
            fences(&text)
                .unwrap_or_default()
                .into_iter()
                .map(|s| s.name),
        );
    }
    for f in FENCES {
        if !used.iter().any(|n| n == f.name) {
            problems.push(format!("fence gen:{} is in no document", f.name));
        }
    }
    problems
}
