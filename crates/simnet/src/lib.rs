//! Deterministic discrete-event simulation core.
//!
//! This crate provides the substrate on which the RDMA cluster model
//! (`rfp-rnic`) and every experiment in the RFP reproduction run:
//!
//! * a virtual clock measured in nanoseconds ([`SimTime`] / [`SimSpan`]),
//! * a single-threaded cooperative executor for simulated processes
//!   written as ordinary `async` functions ([`Simulation`] / [`SimHandle`]),
//! * timer futures ([`SimHandle::sleep`]), wake tickets for custom
//!   futures ([`Wakeup`]) and typed timer events for clock-driven state
//!   machines that are not tasks ([`EventSink`], keyed by a
//!   generation-stamped [`Slab`], and filed in a [`Lane`] where they
//!   come due in the order they are filed),
//! * a FIFO queueing resource ([`FifoServer`]) used to model NIC
//!   engines, and serialized critical sections ([`SimLock`]),
//! * synchronisation primitives for simulated processes ([`Channel`],
//!   [`Semaphore`]),
//! * measurement helpers ([`Counter`], [`Histogram`], [`BusyClock`]),
//! * observability: one cause-chained event log ([`FlightRecorder`])
//!   and the views beside it — a registry of hierarchically named
//!   instruments ([`MetricsRegistry`]), per-request phase spans
//!   ([`RequestTrace`], [`SpanRecorder`]) and rolling per-connection
//!   health windows with anomaly detection ([`HealthHub`],
//!   [`AnomalyDetector`]).
//!
//! Determinism: all state lives on one OS thread; events that fire at the
//! same virtual instant are dispatched in insertion order, so every run
//! with the same seed reproduces the same trace bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use rfp_simnet::{Simulation, SimSpan};
//!
//! let mut sim = Simulation::new(42);
//! let h = sim.handle();
//! sim.spawn(async move {
//!     h.sleep(SimSpan::micros(5)).await;
//!     assert_eq!(h.now().as_nanos(), 5_000);
//! });
//! sim.run();
//! ```

pub mod crc64;

mod coord;
mod executor;
mod health;
mod metrics;
mod recorder;
mod resource;
mod retry;
mod slab;
mod span;
mod stats;
mod sync;
mod time;
mod timeout;

pub use coord::{Semaphore, SemaphoreGuard};
pub use crc64::crc64;
pub use executor::{
    ChainSink, EventSink, ExecutorStats, Lane, Replan, SimHandle, Simulation, Sleep, Wakeup,
};
pub use health::{
    Anomaly, AnomalyDetector, AnomalyKind, Baseline, ConnHealth, ConnHealthReport, CoreLoad,
    CoreSkewReport, DumpBundle, HealthHub, HealthReport, HealthSignal,
};
pub use metrics::{Gauge, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use recorder::{FlightEvent, FlightRecorder, Severity};
pub use resource::FifoServer;
pub use retry::{retry, RetryExhausted, RetryPolicy};
pub use slab::{Slab, SlabKey};
pub use span::{Phase, RequestTrace, SpanRecorder};
pub use stats::{BusyClock, Counter, Histogram};
pub use sync::{Channel, Recv, SimLock, SimLockGuard};
pub use time::{SimSpan, SimTime};
pub use timeout::{timeout, Timeout};

/// Derives a per-component RNG seed from a master seed and a stream id.
///
/// Components (clients, servers, workload generators) each get an
/// independent deterministic stream so that adding one component does not
/// perturb the randomness seen by the others.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair; good avalanche, cheap, stable.
    // The golden-ratio offset keeps (0, 0) away from the fixed point at 0.
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
pub(crate) use sync::signal::Signal;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_streams_differ() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derive_seed_is_stable() {
        // The value is part of experiment reproducibility; lock it down.
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
        assert_ne!(derive_seed(0, 0), 0);
    }
}
