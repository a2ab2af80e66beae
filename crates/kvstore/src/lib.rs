//! In-memory key-value systems for the RFP evaluation.
//!
//! The paper validates RFP with **Jakiro**, an in-memory key-value store
//! (§4.1), and compares it against three other systems. This crate
//! implements all four on the simulated cluster, plus every data
//! structure they need, from scratch:
//!
//! | System | Transport | Store | Module |
//! |---|---|---|---|
//! | Jakiro | RFP (remote fetching) | EREW bucketed 8-slot LRU table | [`bucket`], [`systems::spawn_jakiro`] |
//! | ServerReply | server-reply | same table | [`systems::spawn_server_reply_kv`] |
//! | RDMA-Memcached-like | server-reply | shared [`lru::LruCache`] behind a lock | [`mcd`], [`systems::spawn_memcached`] |
//! | Pilaf-like | server-bypass GET / server-reply PUT | 3-way cuckoo + CRC64 ([`PilafStore`], [`rfp_simnet::crc64()`]) | [`systems::spawn_pilaf`] |
//!
//! Every system serves the two ops the paper's workloads send, GET and
//! PUT, over the one wire protocol in [`proto`].

pub mod bucket;
pub mod cores;
pub mod hash;
pub mod hopscotch;
pub mod lru;
pub mod mcd;
pub mod proto;
pub mod replica;
pub mod rig;
pub mod systems;

mod cell;
mod cuckoo;

pub use bucket::{Partition, PutOutcome};
pub use cell::BypassGet;
pub use cores::{build_keyspace, spawn_cores_kv, CoresConfig, CoresKv};
pub use cuckoo::{CuckooError, PilafStore, PilafView};
pub use hash::{hash_bytes, partition_of};
pub use hopscotch::{FarmStore, FarmView, HopscotchError, NEIGHBORHOOD};
pub use lru::LruCache;
pub use mcd::{McdStore, McdThreadView};
pub use proto::{KvRequest, KvResponse, KvResponseRef, ProtoError};
pub use replica::{AckPolicy, BackupRole, PrimaryRole, ReplicaPair};
pub use rig::{kv_handler, preload_partitions, BypassStore, KvStats, KvSystem};
pub use systems::{
    spawn_farm, spawn_fleet_kv, spawn_herd, spawn_jakiro, spawn_jakiro_shared, spawn_memcached,
    spawn_pilaf, spawn_server_reply_kv, spawn_sharded_jakiro, FleetConfig, FleetKv, SystemConfig,
    FLEET_PHYSICAL_CONNS, FLEET_POLLER_GROUPS, FLEET_TENANTS,
};
