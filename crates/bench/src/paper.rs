//! The values the RFP paper quotes: its §2 micro-benchmarks, its §4
//! results and the workload parameters it names, each under a handle.
//!
//! EXPERIMENTS.md and README.md may state these in running text; any
//! other decimal, percentage, `×` ratio or MOPS figure there must sit
//! inside a generated fence ([`crate::prose`]), whose paper column is
//! rendered from this table too.

/// Every value the paper quotes that the docs restate, as it writes it,
/// under the handle a fence's template names it by (`{p:<name>}`).
pub const QUOTES: &[(&str, f64)] = &[
    // Workloads (§4.1): GET shares, Zipf skew.
    ("get_pct_read", 95.0),
    ("get_pct_mixed", 50.0),
    ("get_pct_write", 5.0),
    ("zipf_skew", 0.99),
    // §2 micro-benchmarks on ConnectX-3, 32 B (Figures 3–6).
    ("inbound_mops", 11.26),
    ("outbound_mops", 2.11),
    ("asymmetry", 5.0),
    ("pilaf_reads_per_get", 3.2),
    // Figure 9: raw remote fetching vs server-reply against process
    // time; "converged" within 10 % at 7 µs, which sets N = 5.
    ("fig9_rf_p1_mops", 7.0),
    ("fig9_sr_mops", 2.0),
    ("fig9_rf_p5_mops", 2.5),
    ("fig9_converged_pct", 10.0),
    ("fig9_crossover_us", 7.0),
    ("retry_budget_n", 5.0),
    // Figure 10 and §4.3: Jakiro's peak and its round trips per GET.
    ("jakiro_mops", 5.5),
    ("inbound_ops_per_get", 2.005),
    // Figure 11 (50 % GET, 20 Gbps).
    ("fig11_jakiro_mops", 5.4),
    ("fig11_pilaf_mops", 1.3),
    ("fig11_gain", 4.0),
    // Figure 12: peaks over server threads.
    ("server_reply_mops", 2.1),
    ("memcached_mops", 1.3),
    ("fig12_gain", 2.6),
    ("fig12_gain_pct", 158.0),
    // Figures 13 and 20: mean latency at peak (µs), and Jakiro's 99th
    // percentile bound.
    ("jakiro_mean_us", 5.78),
    ("server_reply_mean_us", 12.06),
    ("memcached_mean_us", 14.76),
    ("jakiro_p99_pct", 99.0),
    // Figure 14: Jakiro's advantage below the switch point, in percent.
    ("fig14_gain_lo_pct", 30.0),
    ("fig14_gain_hi_pct", 320.0),
    // Figure 15: client CPU under remote fetching and once switched.
    ("cpu_fetching_pct", 100.0),
    ("cpu_switched_pct", 30.0),
    // Figure 16: Jakiro over Memcached at 95 % PUT.
    ("fig16_gain", 14.0),
    // Figure 17: Jakiro's advantage over 32 B–1 KB, in percent, and the
    // mixed 32–8192 B run (§4.4.3).
    ("fig17_gain_lo_pct", 60.0),
    ("fig17_gain_hi_pct", 280.0),
    ("mixed_jakiro_mops", 3.58),
    ("mixed_server_reply_mops", 1.49),
    ("mixed_memcached_mops", 1.02),
    // §4.4.3: the most-loaded EREW thread's excess over the least-loaded.
    ("erew_skew_pct", 25.0),
    // Figure 19 (Zipf 0.99, 95 % GET): Memcached's skewed peak.
    ("fig19_memcached_mops", 2.1),
    // Table 3: share of calls with N > 1 failed fetches, and the
    // largest N, per workload.
    ("table3_uniform95_pct", 0.105),
    ("table3_uniform95_max", 6.0),
    ("table3_uniform5_pct", 0.13),
    ("table3_uniform5_max", 5.0),
    ("table3_skewed95_pct", 0.09),
    ("table3_skewed95_max", 9.0),
    ("table3_skewed5_pct", 0.09),
    ("table3_skewed5_max", 4.0),
    // The abstract: RFP over both paradigms.
    ("gain_lo", 1.6),
    ("gain_hi", 4.0),
];

/// The value quoted under `name`.
///
/// # Panics
///
/// If no quote has that name: a fence names a value the table lacks.
pub fn quote(name: &str) -> f64 {
    QUOTES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("paper.rs has no quote {name:?}"))
        .1
}
