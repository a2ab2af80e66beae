//! Deterministic fault injection for the RFP simulator.
//!
//! The paper evaluates RFP on a healthy cluster; this crate supplies the
//! adversarial half of the story. A [`FaultPlan`] schedules faults at
//! simulated instants — NIC loss bursts, fabric-wide link degradation,
//! straggler cores, QP error transitions, and server crashes with warm
//! or cold restarts — and [`install`] (or the bundled
//! [`spawn_chaos_kv`] rig) delivers them into a running simulation.
//! Because the simulator is single-threaded over a virtual clock, every
//! run is exactly reproducible from `(plan, seed)`: a recovery bug found
//! under chaos replays under a debugger, fault for fault.
//!
//! Two rigs are bundled. [`spawn_chaos_kv`] drives a Jakiro-style KV
//! store through
//! [`RfpClient::call_with_recovery`](rfp_core::RfpClient::call_with_recovery)
//! and checks the recovery invariants online (no acked write lost, no
//! stale data after a cold wipe) — see `cargo run -p rfp-bench --bin
//! chaos` for the scenario sweep. The replicated rig puts a
//! primary/backup pair behind [`rfp_core::ReplicaClient`] routers and
//! records linearizability-checkable histories; its two presets,
//! [`spawn_failover_kv`] and [`spawn_grayfail_kv`], carry the `failover`
//! and `grayfail` sweeps. Both rigs share their telemetry sinks, store
//! handler and read-verdict ledger ([`Tally`]).

mod harness;
mod inject;
mod plan;
mod replicated;

pub use harness::{spawn_chaos_kv, ChaosConfig, ChaosKv, ChaosState, Tally};
pub use inject::{install, InjectorSinks, Restart, RestartHook};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use replicated::{
    spawn_failover_kv, spawn_grayfail_kv, FailoverChaosConfig, FailoverKv, FailoverState,
};
