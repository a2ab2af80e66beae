//! The closed-form cost model (`ParamSelector`, DESIGN.md "Cost model")
//! against the committed figures. Every Jakiro and ServerReply cell of fig10, fig12,
//! fig16 and fig17 that has a size is predicted within ±2 %, or sits on
//! the miss list with the component the model leaves out. The `(R, F)`
//! the figures ran with are the selector's own picks, read back from the
//! goldens' comment lines.

use rfp_bench::prose::{golden, measured, predicted, recorded_pick, KV_PROCESS};
use rfp_bench::{prerun_results, prerun_sample, preselect};
use rfp_core::{ParamSelector, Params, Resource};
use rfp_kvstore::SystemConfig;
use rfp_simnet::SimSpan;
use rfp_workload::ValueSize;

/// How far a covered cell may sit from the measurement.
const TOLERANCE_PCT: f64 = 2.0;

/// The cells the model misses by more than the tolerance: figure,
/// series, x values, the resource the model binds on there, and the
/// component the model leaves out.
const MISSES: &[(&str, &str, &[&str], Resource, &str)] = &[
    (
        "fig10",
        "jakiro",
        &["7", "14"],
        Resource::ClientThreads,
        "per-call latency: the server's pickup wait is not modelled (ROADMAP 2(a))",
    ),
    (
        "fig12",
        "jakiro",
        &["1", "2"],
        Resource::ServerInbound,
        "server CPU: one or two scan threads cannot keep the in-bound engine busy",
    ),
    (
        "fig12",
        "server_reply",
        &["1", "2", "4"],
        Resource::ServerOutbound,
        "server CPU: one to four reply threads, and at most four issuers inflate nothing",
    ),
    (
        "fig12",
        "server_reply",
        &["6", "8", "10", "12", "14", "16"],
        Resource::ServerOutbound,
        "server out-bound contention: needs the mean concurrent issuers (ROADMAP 2(a))",
    ),
    (
        "fig16",
        "server_reply",
        &["95", "50", "5"],
        Resource::ServerOutbound,
        "server out-bound contention: needs the mean concurrent issuers (ROADMAP 2(a))",
    ),
    (
        "fig17",
        "server_reply",
        &[
            "32", "64", "128", "256", "512", "1024", "2048", "4096", "8192",
        ],
        Resource::ServerOutbound,
        "server out-bound contention: needs the mean concurrent issuers (ROADMAP 2(a))",
    ),
];

/// One cell: where it is, the model's bound and the measurement.
struct Cell {
    fig: &'static str,
    series: &'static str,
    x: String,
    predicted: f64,
    resource: Resource,
    measured: f64,
}

impl Cell {
    fn err_pct(&self) -> f64 {
        (self.predicted / self.measured - 1.0) * 100.0
    }
}

/// Evaluates the model at every covered cell, with the settings
/// `figures.rs` runs: the default rig (7 client machines, 5 threads
/// each, R = 5, F = 256, 32 B values), varied per figure.
fn cells() -> Vec<Cell> {
    let base = SystemConfig::default();
    let goldens = [
        "fig10_jakiro_clients",
        "fig12_server_threads",
        "fig16_get_ratio",
        "fig17_value_size",
    ]
    .map(golden)
    .concat();
    let default_pick = Params {
        r: base.rfp.retry_threshold,
        f: base.rfp.fetch_size,
    };
    let fig17_pick = recorded_pick(&goldens, "# selected ");
    // (figure, series, x, rig, (R, F), value size)
    let mut at = Vec::new();
    for per_machine in 1..=10 {
        let cfg = SystemConfig {
            clients_per_machine: per_machine,
            ..SystemConfig::default()
        };
        let x = (per_machine * cfg.client_machines).to_string();
        at.push(("fig10", "jakiro", x, cfg, default_pick, 32));
    }
    for series in ["jakiro", "server_reply"] {
        // Server threads and the GET share are not inputs of the model:
        // every fig12 and fig16 cell is the default rig's.
        for x in ["1", "2", "4", "6", "8", "10", "12", "14", "16"] {
            at.push(("fig12", series, x.into(), base.clone(), default_pick, 32));
        }
        for x in ["95", "50", "5"] {
            at.push(("fig16", series, x.into(), base.clone(), default_pick, 32));
        }
        for size in [32usize, 64, 128, 256, 512, 1024, 2048, 4096, 8192] {
            at.push((
                "fig17",
                series,
                size.to_string(),
                base.clone(),
                fig17_pick,
                size,
            ));
        }
    }
    at.into_iter()
        .map(|(fig, series, x, cfg, p, value)| {
            let bound = predicted(series, &cfg, p, value);
            Cell {
                measured: measured(&goldens, fig, series, &x),
                fig,
                series,
                x,
                predicted: bound.mops,
                resource: bound.resource,
            }
        })
        .collect()
}

fn listed_miss(c: &Cell) -> Option<(Resource, &'static str)> {
    MISSES
        .iter()
        .find(|(fig, series, xs, ..)| {
            *fig == c.fig && *series == c.series && xs.contains(&c.x.as_str())
        })
        .map(|&(.., resource, blame)| (resource, blame))
}

#[test]
fn model_predicts_every_covered_cell_and_misses_exactly_the_listed_ones() {
    let cells = cells();
    let mut wrong = Vec::new();
    for c in &cells {
        let err = c.err_pct();
        let line = format!(
            "{} {} {}: model {:.3} ({:?}) vs measured {:.4}, {err:+.1} %",
            c.fig, c.series, c.x, c.predicted, c.resource, c.measured
        );
        match listed_miss(c) {
            None if err.abs() > TOLERANCE_PCT => wrong.push(format!("{line}: unlisted miss")),
            Some(_) if err.abs() <= TOLERANCE_PCT => {
                wrong.push(format!("{line}: listed, but within tolerance"))
            }
            Some((resource, _)) if resource != c.resource => {
                wrong.push(format!("{line}: listed as bound by {resource:?}"))
            }
            Some((_, blame)) => println!("{line}: miss, {blame}"),
            None => println!("{line}"),
        }
    }
    assert!(wrong.is_empty(), "model vs goldens:\n{}", wrong.join("\n"));
    // Every listed cell exists, so the list cannot name a cell no golden has.
    let listed: usize = MISSES.iter().map(|(_, _, xs, ..)| xs.len()).sum();
    let missed = cells.iter().filter(|c| listed_miss(c).is_some()).count();
    assert_eq!(listed, missed, "a miss-list entry names no covered cell");
}

/// Past eight threads a machine, fig10 declines because each client
/// machine's out-bound engine serves its threads under issuing
/// contention; the model's out-bound term tracks it within 1 %.
#[test]
fn client_outbound_contention_sets_the_fig10_decline() {
    for c in cells()
        .iter()
        .filter(|c| c.fig == "fig10" && ["56", "63", "70"].contains(&c.x.as_str()))
    {
        assert_eq!(c.resource, Resource::ClientOutbound, "fig10 {}", c.x);
        assert!(
            c.err_pct().abs() <= 1.0,
            "fig10 {}: {:+.2} %",
            c.x,
            c.err_pct()
        );
    }
}

/// The selector still makes the picks the goldens record, for the
/// samples `all_figures` and `ablations` pre-run.
#[test]
fn selection_matches_the_recorded_picks() {
    let mixed = prerun_results(ValueSize::Uniform { min: 32, max: 8192 });
    assert_eq!(
        preselect(mixed.clone(), KV_PROCESS),
        recorded_pick(&golden("fig17_value_size"), "# selected ")
    );
    assert_eq!(
        preselect(vec![605], SimSpan::nanos(350)),
        recorded_pick(&golden("ablation_param_selection"), "# selector picked ")
    );
    let base = SystemConfig::default();
    let selector = ParamSelector::new(base.profile.nic.clone(), base.profile.link.clone());
    assert_eq!(
        selector.derive_n(&prerun_sample(&base, mixed, KV_PROCESS)),
        3
    );
}
