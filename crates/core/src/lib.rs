//! The Remote Fetching Paradigm (RFP) — the paper's core contribution.
//!
//! RFP is an RDMA-based RPC paradigm that keeps the server CPU in the
//! request path (so legacy RPC applications port with only moderate
//! effort) while making the server's NIC serve **only in-bound** RDMA:
//!
//! 1. clients deposit requests into server memory with one-sided WRITE,
//! 2. the server processes them and posts results into its **local**
//!    response buffers,
//! 3. clients **remotely fetch** results with one-sided READ.
//!
//! Because the paper's measured RNICs serve in-bound operations ≈5×
//! faster than they issue out-bound ones, this layout multiplies
//! attainable request throughput without the application redesign that
//! full server-bypass (Pilaf/FaRM-style) demands.
//!
//! Two client-side mechanisms make it practical (§3.2):
//!
//! * a **hybrid mode switch**: after `R` failed fetch retries on
//!   consecutive calls the connection falls back to classic server-reply
//!   (saving client CPU when the server is slow), and returns to remote
//!   fetching when the server-reported process time shrinks;
//! * a **two-segment fetch**: each fetch grabs `F` bytes (header +
//!   payload prefix) so that typical results arrive in a single READ,
//!   with one extra READ only for oversized results.
//!
//! `R` and `F` are selected automatically by enumerating the small
//! hardware-bounded candidate box ([`ParamSelector`]).
//!
//! # Examples
//!
//! An echo RPC between two simulated machines:
//!
//! ```
//! use std::rc::Rc;
//! use rfp_core::{connect, serve_loop, RfpConfig};
//! use rfp_rnic::{Cluster, ClusterProfile};
//! use rfp_simnet::{SimSpan, Simulation};
//!
//! let mut sim = Simulation::new(0);
//! let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
//! let (client_m, server_m) = (cluster.machine(0), cluster.machine(1));
//! let (client, server_conn) = connect(
//!     &client_m,
//!     &server_m,
//!     cluster.qp(0, 1),
//!     cluster.qp(1, 0),
//!     RfpConfig::default(),
//! );
//!
//! let st = server_m.thread("server");
//! sim.spawn(serve_loop(
//!     st,
//!     vec![Rc::new(server_conn)],
//!     |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
//!     SimSpan::nanos(100),
//! ));
//!
//! let ct = client_m.thread("client");
//! sim.spawn(async move {
//!     let reply = client.call(&ct, b"ping").await;
//!     assert_eq!(reply.data, b"ping");
//! });
//! sim.run_for(SimSpan::millis(1));
//! ```

pub mod api;

mod client;
mod conn;
mod failover;
mod gray;
mod header;
mod integrity;
mod mux;
mod observe;
mod overload;
mod params;
pub mod reactor;
mod recovery;
mod server;
mod tuner;

pub use client::{CallInfo, CallLatency, CallPolicy, CallResult, ClientStats, RfpClient};
pub use conn::{connect, Mode, RfpConfig, RfpServerConn, RfpTelemetry};
pub use failover::{FailoverConfig, ReplicaClient};
pub use gray::RetryBudget;
pub use header::{
    resp_canary, slot_of, ReqHeader, RespHeader, RespIntegrity, RespStatus, MAX_PAYLOAD, REQ_HDR,
    RESP_HDR, RESP_HDR_EXT, RESP_TRAILER,
};
pub use integrity::{verify_response, IntegrityFault};
pub use mux::{serve_loop_tenant, shard_conns, LogicalClient, RfpMux, TenantId};
pub use overload::{admit, credits_for, Admission, OverloadConfig, TenantCredits};
pub use params::{Bound, ParamSelector, Params, Resource, WorkloadSample};
pub use reactor::{CoreSpec, Reactor, ReactorConfig};
pub use recovery::{FailureCause, RecoveryConfig, RpcError};
pub use server::{serve_loop, Commit, IdlePolicy, Reply, RfpHandler, ScanHandler};
pub use tuner::OnlineTuner;
