//! Process-wide benchmark telemetry.
//!
//! Every [`run_kv`](crate::kvrun::run_kv) measurement folds its headline
//! numbers into one process-wide [`MetricsRegistry`]; a bench binary
//! finishes by calling [`emit_bench_json`], leaving a machine-readable
//! `BENCH_<name>.json` next to the CSV it printed.

use std::fs::File;
use std::io;
use std::path::PathBuf;

use rfp_simnet::MetricsRegistry;

thread_local! {
    static REGISTRY: MetricsRegistry = MetricsRegistry::new();
}

/// The registry accumulating this process's benchmark aggregates
/// (`bench.*`). Clones share the same instruments.
pub fn bench_registry() -> MetricsRegistry {
    REGISTRY.with(MetricsRegistry::clone)
}

/// Exports the accumulated bench registry as `BENCH_<name>.json` in the
/// current directory and returns the path written.
pub fn emit_bench_json(name: &str) -> io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let mut file = File::create(&path)?;
    bench_registry().snapshot().write_json(&mut file)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_registry_is_shared_within_the_thread() {
        bench_registry().counter("bench.test.shared").add(2);
        bench_registry().counter("bench.test.shared").incr();
        assert_eq!(
            bench_registry().snapshot().scalar("bench.test.shared"),
            Some(3.0)
        );
    }
}
