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
//! The bundled rig drives a Jakiro-style key-value store through
//! [`rfp_core::ReplicaClient`] routers and checks the recovery
//! invariants online (no acked write lost, no stale read) while
//! recording linearizability-checkable histories. Its one-replica
//! preset carries the `chaos` and `doctor` sweeps; its primary/backup
//! presets, [`ChaosConfig::failover`] and [`ChaosConfig::grayfail`],
//! carry the `failover` and `grayfail` sweeps.

mod harness;
mod inject;
mod plan;

pub use harness::{spawn_chaos_kv, ChaosConfig, ChaosKv, ChaosState};
pub use inject::{install, InjectorSinks, Restart, RestartHook};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
