//! Simulated RDMA cluster: machines, RNICs, memory regions, queue pairs.
//!
//! This crate substitutes for the Mellanox ConnectX-3 InfiniBand testbed
//! used by the RFP paper (see `DESIGN.md` §2). It models the two hardware
//! properties the paper's argument rests on:
//!
//! * **In-bound vs out-bound asymmetry** (§2.2): each simulated NIC has
//!   two engines. The *in-bound* engine serves one-sided operations
//!   arriving from the network entirely in "hardware" at ≈11.26 MOPS for
//!   small payloads; the *out-bound* engine issues operations at only
//!   ≈2.11 MOPS because issuing involves software/hardware interaction.
//!   Out-bound service additionally degrades when more than a few threads
//!   issue concurrently (QP/CQ and lock contention), reproducing the
//!   scalability droops of the paper's Figures 3 and 4.
//! * **Real data movement**: one-sided READ/WRITE actually copy bytes
//!   between registered [`MemRegion`]s, so higher layers (checksums,
//!   retry loops, header protocols) behave exactly as they would on real
//!   remote memory — including observing torn data when a read races a
//!   multi-step local update.
//!
//! Simulated threads ([`ThreadCtx`]) issue verbs through [`Qp`]s. A
//! blocking verb occupies the thread for its whole duration (the paper's
//! clients busy-poll completion queues), which feeds the client CPU
//! utilisation measurements of Figure 15.

mod async_verbs;
mod cluster;
mod engine;
mod fault;
mod machine;
mod mem;
mod nic;
mod profile;
mod qp;

pub use async_verbs::Completion;
pub use cluster::Cluster;
pub use fault::{FabricFaults, MachineFaults, VerbError};
pub use machine::{Machine, MachineId, ThreadCtx};
pub use mem::{MemRegion, MrId};
pub use nic::{Nic, NicCounters};
pub use profile::{ClusterProfile, LinkProfile, NicProfile};
pub use qp::{Qp, Transport};
