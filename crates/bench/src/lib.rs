//! Benchmark harnesses regenerating every table and figure of the RFP
//! paper's evaluation (§2 micro-benchmarks and §4 system results).
//!
//! Each experiment is a library function in [`figures`] writing
//! `figure,series,x,y`-style CSV rows (comment lines start with `#`),
//! registered by name in [`figures::EXPERIMENTS`]. Run one with e.g.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin all_figures -- fig12_server_threads
//! ```
//!
//! or everything by naming none (`--csv <dir>` additionally writes one
//! `<dir>/<name>.csv` per experiment).
//!
//! The per-experiment index mapping figures to modules lives in
//! `DESIGN.md`; paper-vs-measured numbers are recorded in
//! `EXPERIMENTS.md`.

pub mod ablations;
pub mod figures;
pub mod kvrun;
pub mod micro;
pub mod telemetry;

/// Simulated-time measurement window used by most experiments. Long
/// enough that queueing transients vanish, short enough that a full
/// figure regenerates in seconds.
pub const DEFAULT_WINDOW_MS: u64 = 4;

/// Simulated warm-up discarded before each measurement.
pub const DEFAULT_WARMUP_MS: u64 = 1;
