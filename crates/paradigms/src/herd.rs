//! A HERD-style RPC transport (paper §5, "Different Queue Pair Types").
//!
//! HERD and FaSST build key-value RPC on the *unreliable* transports:
//! requests arrive as UC WRITEs into per-client slots, responses leave
//! as UD SENDs. Both directions complete at the sender without ACKs, so
//! message rates beat RC — but "corrupted and silently dropped are both
//! possible", and the application inherits the subtle problems of
//! message loss and duplication. This module implements exactly that
//! trade: a timeout-and-retransmit client, sequence-number deduplication
//! and response caching on the server.
//!
//! The paper's position — which the `ablation_transports` harness lets
//! you check — is that such designs can beat RC server-reply on
//! throughput while RFP still wins by keeping the server path in-bound
//! only, without giving up reliability.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_core::{ReqHeader, REQ_HDR};
use rfp_rnic::{Machine, MemRegion, Qp, ThreadCtx, Transport};
use rfp_simnet::{timeout, SimSpan};

/// How long the client waits for a response before retransmitting.
const RETRANSMIT_AFTER: SimSpan = SimSpan::micros(100);
/// Give up after this many retransmissions of one call.
const MAX_RETRANSMITS: u32 = 16;
/// CPU cost to inspect a local header (server scan) — what the RFP
/// systems it is compared against charge per check.
const CHECK_CPU: SimSpan = SimSpan::nanos(30);

/// Creates one HERD-style client↔server connection.
///
/// `uc` must be a UC queue pair from the client's machine to the
/// server's; `ud` a UD queue pair from the server's machine to the
/// client's. `req_capacity` is the capacity of the request slot (header
/// + payload).
///
/// # Panics
///
/// Panics if the QPs have the wrong transports or directions.
pub fn herd_connect(
    client_machine: &Rc<Machine>,
    server_machine: &Rc<Machine>,
    uc: Rc<Qp>,
    ud: Rc<Qp>,
    req_capacity: usize,
) -> (HerdClient, HerdServerConn) {
    assert_eq!(uc.transport(), Transport::Uc, "request path must be UC");
    assert_eq!(ud.transport(), Transport::Ud, "response path must be UD");
    assert_eq!(uc.local().id(), client_machine.id(), "uc direction");
    assert_eq!(uc.remote().id(), server_machine.id(), "uc direction");
    assert_eq!(ud.local().id(), server_machine.id(), "ud direction");
    assert_eq!(ud.remote().id(), client_machine.id(), "ud direction");

    let req = server_machine.alloc_mr(req_capacity);
    let req_local = client_machine.alloc_mr(req_capacity);

    let client = HerdClient {
        uc,
        ud: Rc::clone(&ud),
        req_remote: Rc::clone(&req),
        req_local,
        req_capacity,
        seq: Cell::new(0),
        retransmits: Cell::new(0),
        calls: Cell::new(0),
    };
    let server = HerdServerConn {
        req,
        ud,
        last_seq: Cell::new(0),
        cached_resp: RefCell::new(Vec::new()),
        served: Cell::new(0),
    };
    (client, server)
}

/// Client endpoint: UC-write the request, wait for the UD response,
/// retransmit on loss.
pub struct HerdClient {
    uc: Rc<Qp>,
    ud: Rc<Qp>,
    req_remote: Rc<MemRegion>,
    req_local: Rc<MemRegion>,
    req_capacity: usize,
    seq: Cell<u32>,
    retransmits: Cell<u64>,
    calls: Cell<u64>,
}

impl HerdClient {
    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Retransmissions caused by lost requests or responses.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }

    async fn transmit(&self, thread: &ThreadCtx, len: usize) {
        self.uc
            .write(thread, &self.req_local, 0, &self.req_remote, 0, len)
            .await;
    }

    /// One transmit-and-wait attempt: (re)send the staged request, then
    /// wait for a response frame carrying our sequence number. Stale
    /// frames (responses to retransmitted older calls that arrived late)
    /// are discarded and restart the wait. HERD clients spin on their
    /// CQs, so the whole wait is busy time.
    async fn attempt(
        &self,
        thread: &ThreadCtx,
        seq: u32,
        total: usize,
        attempt: u32,
    ) -> Result<Vec<u8>, ()> {
        if attempt > 0 {
            self.retransmits.set(self.retransmits.get() + 1);
        }
        self.transmit(thread, total).await;
        loop {
            match thread
                .busy_wait(timeout(
                    thread.handle(),
                    RETRANSMIT_AFTER,
                    self.ud.incoming(),
                ))
                .await
            {
                Some(frame) => {
                    if frame.len() >= 4 {
                        let got_seq = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
                        if got_seq == seq {
                            return Ok(frame[4..].to_vec());
                        }
                    }
                    // Stale or corrupt frame: keep waiting.
                }
                None => return Err(()),
            }
        }
    }

    /// One RPC over the unreliable pair. Returns `None` when the call
    /// had to be abandoned after the retransmit budget (an error a
    /// reliable-transport application never has to surface).
    pub async fn call(&self, thread: &ThreadCtx, req: &[u8]) -> Option<Vec<u8>> {
        assert!(
            REQ_HDR + req.len() <= self.req_capacity,
            "request exceeds slot"
        );
        let seq = self.seq.get().wrapping_add(1);
        self.seq.set(seq);
        let hdr = ReqHeader {
            valid: true,
            size: req.len() as u32,
            seq,
            deadline: None,
            tenant: None,
            epoch: 0,
        };
        self.req_local.write_local(0, &hdr.encode());
        self.req_local.write_local(REQ_HDR, req);

        let total = REQ_HDR + req.len();
        // HERD retransmits immediately on timeout: zero backoff, one
        // initial transmission plus `MAX_RETRANSMITS` resends.
        for n in 0..=MAX_RETRANSMITS {
            if let Ok(payload) = self.attempt(thread, seq, total, n).await {
                self.calls.set(self.calls.get() + 1);
                return Some(payload);
            }
        }
        None
    }
}

/// Server endpoint: poll the request slot, deduplicate by sequence,
/// re-send the cached response for duplicates.
pub struct HerdServerConn {
    req: Rc<MemRegion>,
    ud: Rc<Qp>,
    last_seq: Cell<u32>,
    cached_resp: RefCell<Vec<u8>>,
    served: Cell<u64>,
}

impl HerdServerConn {
    /// Requests answered (excluding duplicate re-replies).
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    /// Marks the slot's request `seq` taken (an invalid header carrying
    /// its seq).
    fn consume(&self, seq: u32) {
        let taken = ReqHeader {
            valid: false,
            size: 0,
            seq,
            deadline: None,
            tenant: None,
            epoch: 0,
        };
        self.req.write_local(0, &taken.encode());
    }

    /// Polls the slot. Fresh requests are returned for processing;
    /// duplicates are answered from the cache transparently.
    pub async fn try_recv(&self, thread: &ThreadCtx) -> Option<Vec<u8>> {
        thread.busy(CHECK_CPU).await;
        let hdr = ReqHeader::decode(&self.req.read_local(0, REQ_HDR));
        if !hdr.valid {
            return None;
        }
        let expected = self.last_seq.get().wrapping_add(1);
        if hdr.seq == expected {
            self.last_seq.set(hdr.seq);
            let payload = self.req.read_local(REQ_HDR, hdr.size as usize);
            // Consume the slot so a *reappearance* of this sequence can
            // only be a client retransmission (lost response), not the
            // leftover of the request we just took.
            self.consume(hdr.seq);
            return Some(payload);
        }
        if hdr.seq == self.last_seq.get() && !self.cached_resp.borrow().is_empty() {
            // Retransmitted request whose response was (possibly) lost:
            // re-send the cached response.
            let frame = self.cached_resp.borrow().clone();
            // Consume the duplicate so we answer it once per arrival.
            self.consume(hdr.seq);
            self.ud.send_nowait(thread, frame).await;
        }
        None
    }

    /// Sends the response for the request most recently returned by
    /// [`try_recv`](Self::try_recv) and caches it for duplicate replies.
    pub async fn send(&self, thread: &ThreadCtx, payload: &[u8]) {
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&self.last_seq.get().to_le_bytes());
        frame.extend_from_slice(payload);
        *self.cached_resp.borrow_mut() = frame.clone();
        self.served.set(self.served.get() + 1);
        // Unsignaled send: the server thread never blocks on the
        // completion path (HERD's selective signaling).
        self.ud.send_nowait(thread, frame).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::Simulation;

    fn rig(
        loss: f64,
    ) -> (
        Simulation,
        Rc<HerdClient>,
        Rc<HerdServerConn>,
        Rc<ThreadCtx>,
    ) {
        let mut sim = Simulation::new(17);
        let mut profile = ClusterProfile::paper_testbed();
        profile.nic.unreliable_loss = loss;
        let cluster = Cluster::new(&mut sim, profile, 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let (client, server) = herd_connect(
            &cm,
            &sm,
            cluster.qp_typed(0, 1, Transport::Uc),
            cluster.qp_typed(1, 0, Transport::Ud),
            4 * 1024,
        );
        let server = Rc::new(server);
        let st = sm.thread("server");
        let sconn = Rc::clone(&server);
        sim.spawn(async move {
            loop {
                if let Some(req) = sconn.try_recv(&st).await {
                    let resp = req.iter().rev().copied().collect::<Vec<u8>>();
                    sconn.send(&st, &resp).await;
                } else {
                    st.busy(SimSpan::nanos(100)).await;
                }
            }
        });
        let ct = cm.thread("client");
        (sim, Rc::new(client), server, ct)
    }

    #[test]
    fn lossless_round_trip() {
        let (mut sim, client, server, ct) = rig(0.0);
        let cl = Rc::clone(&client);
        sim.spawn(async move {
            for i in 0..50u32 {
                let req = i.to_le_bytes().to_vec();
                let resp = cl.call(&ct, &req).await.expect("lossless");
                let expect: Vec<u8> = req.iter().rev().copied().collect();
                assert_eq!(resp, expect);
            }
        });
        sim.run_for(SimSpan::millis(5));
        assert_eq!(client.calls(), 50);
        assert_eq!(client.retransmits(), 0);
        assert_eq!(server.served(), 50);
    }

    #[test]
    fn loss_triggers_retransmission_but_calls_still_complete() {
        let (mut sim, client, server, ct) = rig(0.08);
        let cl = Rc::clone(&client);
        sim.spawn(async move {
            for i in 0..200u32 {
                let req = i.to_le_bytes().to_vec();
                let resp = cl.call(&ct, &req).await.expect("within budget");
                assert_eq!(resp[0], req[3]);
            }
        });
        sim.run_for(SimSpan::millis(50));
        assert_eq!(client.calls(), 200, "every call must complete");
        assert!(
            client.retransmits() > 0,
            "8% loss must force retransmissions"
        );
        // Lost responses lead to duplicate requests answered from cache.
        assert!(server.served() == 200);
    }

    #[test]
    fn ud_response_path_uses_server_outbound() {
        let (mut sim, client, _server, ct) = rig(0.0);
        let cl = Rc::clone(&client);
        sim.spawn(async move {
            for _ in 0..10 {
                cl.call(&ct, b"x").await.expect("lossless");
            }
        });
        sim.run_for(SimSpan::millis(2));
        // Unlike RFP, the HERD-style server *does* burn out-bound ops.
        // (Machine 1 is the server in this rig.)
    }
}
