//! The paper's Table 2 API.
//!
//! | Paper API | Description (paper wording) | Here |
//! |---|---|---|
//! | `client_send(server_id, local_buf, size)` | client sends message (kept in `local_buf`) to server's memory through RDMA-write | [`client_send`] |
//! | `client_recv(server_id, local_buf)` | client remotely fetches message from server's memory into `local_buf` through RDMA-read | [`client_recv`] |
//! | `server_send(client_id, local_buf, size)` | server puts message for client into `local_buf` | [`server_send`] |
//! | `server_recv(client_id, local_buf)` | server receives message from `local_buf` | [`server_recv`] |
//! | `malloc_buf(size)` | allocate local buffers that are registered in the RNIC | [`malloc_buf`] |
//! | `free_buf(local_buf)` | free `local_buf` | dropping the [`LocalBuf`] |
//!
//! The idiomatic interface ([`RfpClient`], [`RfpServerConn`]) is a thin
//! layer over the same machinery; this module restates it in the exact
//! socket-like shape the paper advertises, so a port of an RPC layer
//! written against Table 2 maps one-to-one. The `server_id` /
//! `client_id` of the paper are connection handles here (a connection
//! *is* the registered ⟨client, server⟩ buffer pair).
//!
//! # Examples
//!
//! ```
//! use std::rc::Rc;
//! use rfp_core::api::{client_recv, client_send, malloc_buf, server_recv, server_send};
//! use rfp_core::{connect, RfpConfig};
//! use rfp_rnic::{Cluster, ClusterProfile};
//! use rfp_simnet::{SimSpan, Simulation};
//!
//! let mut sim = Simulation::new(0);
//! let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
//! let (cm, sm) = (cluster.machine(0), cluster.machine(1));
//! let (client, server) =
//!     connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), RfpConfig::default());
//! let server = Rc::new(server);
//!
//! // Server side, Table 2 style.
//! let st = sm.thread("server");
//! let sc = Rc::clone(&server);
//! sim.spawn(async move {
//!     let mut local_buf = malloc_buf(4096);
//!     loop {
//!         if let Some(size) = server_recv(&sc, &st, &mut local_buf).await {
//!             local_buf[..size].reverse();
//!             server_send(&sc, &st, &local_buf, size).await;
//!         } else {
//!             st.busy(SimSpan::nanos(100)).await;
//!         }
//!     }
//! });
//!
//! // Client side.
//! let ct = cm.thread("client");
//! sim.spawn(async move {
//!     let mut local_buf = malloc_buf(4096);
//!     local_buf[..4].copy_from_slice(b"ping");
//!     client_send(&client, &ct, &local_buf, 4).await;
//!     let size = client_recv(&client, &ct, &mut local_buf).await;
//!     assert_eq!(&local_buf[..size], b"gnip");
//!     drop(local_buf); // free_buf
//! });
//! sim.run_for(SimSpan::millis(1));
//! ```

use std::rc::Rc;

use rfp_rnic::ThreadCtx;

use crate::client::RfpClient;
use crate::conn::RfpServerConn;

/// A registered message buffer (the paper's `local_buf`).
///
/// In the simulation, "registering with the RNIC" has no separate cost
/// model — memory regions are registered at connection setup — so the
/// buffer is plain owned memory whose contents are staged into the
/// connection's registered regions by the send/recv calls.
pub type LocalBuf = Vec<u8>;

/// `malloc_buf(size)`: allocate a local buffer registered for RDMA.
pub fn malloc_buf(size: usize) -> LocalBuf {
    vec![0; size]
}

/// `client_send`: sends the first `size` bytes of `local_buf` into the
/// server's request memory through RDMA-write.
///
/// # Panics
///
/// Panics if `size` exceeds `local_buf` or the connection's request
/// capacity.
pub async fn client_send(
    client: &RfpClient,
    thread: &ThreadCtx,
    local_buf: &LocalBuf,
    size: usize,
) {
    client.send(thread, &local_buf[..size]).await;
}

/// `client_recv`: remotely fetches the response into `local_buf`
/// (repeated remote fetching, with the hybrid fallback); returns its
/// size.
///
/// # Panics
///
/// Panics if the response exceeds `local_buf`.
pub async fn client_recv(
    client: &RfpClient,
    thread: &ThreadCtx,
    local_buf: &mut LocalBuf,
) -> usize {
    let out = client.recv(thread).await;
    assert!(
        out.data.len() <= local_buf.len(),
        "response exceeds local_buf"
    );
    local_buf[..out.data.len()].copy_from_slice(&out.data);
    out.data.len()
}

/// `server_recv`: checks for a newly arrived request, copying it into
/// `local_buf`; returns its size if one arrived.
///
/// # Panics
///
/// Panics if the request exceeds `local_buf`.
pub async fn server_recv(
    conn: &RfpServerConn,
    thread: &Rc<ThreadCtx>,
    local_buf: &mut LocalBuf,
) -> Option<usize> {
    let req = conn.try_recv(thread).await?;
    assert!(req.len() <= local_buf.len(), "request exceeds local_buf");
    local_buf[..req.len()].copy_from_slice(&req);
    Some(req.len())
}

/// `server_send`: posts the first `size` bytes of `local_buf` as the
/// response — into the server's local response buffer only (the client
/// fetches it), unless the connection has switched to server-reply.
pub async fn server_send(
    conn: &RfpServerConn,
    thread: &ThreadCtx,
    local_buf: &LocalBuf,
    size: usize,
) {
    conn.send(thread, &local_buf[..size]).await;
}
