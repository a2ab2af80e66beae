//! Baseline RDMA RPC paradigms and the design-choice taxonomy.
//!
//! The paper's Table 1 enumerates every way to apply RDMA to the three
//! steps of an RPC (request send, request process, result return); this
//! crate encodes that taxonomy ([`taxonomy`]) and implements the two
//! baseline paradigms RFP is compared against:
//!
//! * [`server_reply`] — the classic port: the server processes requests
//!   and pushes results back with out-bound WRITE. Bound by the server
//!   NIC's out-bound rate (~2.11 MOPS on the modelled hardware).
//! * [`bypass`] — full server-bypass: clients operate on server memory
//!   with one-sided verbs only. Fast per op, but suffers *bypass access
//!   amplification* (multiple rounds per logical request, §2.3).
//! * [`herd`] — a HERD-style transport over the unreliable UC/UD
//!   service types (§5): higher message rates than RC, at the price of
//!   loss handling (timeouts, retransmission, deduplication).

pub mod bypass;
pub mod herd;
pub mod server_reply;
pub mod taxonomy;

pub use bypass::BypassClient;
pub use herd::{herd_connect, HerdClient, HerdServerConn};
pub use server_reply::sr_connect;
pub use taxonomy::{Paradigm, ProcessChoice, RequestSend, ResultReturn};
