//! Asynchronous (posted) verbs and doorbell batching.
//!
//! The paper's measurements deliberately issue one synchronous op at a
//! time ("batching the requests or issuing several RDMA operations
//! without waiting for the notifications of their completion can improve
//! the performance. However, these optimizations are not always
//! applicable and are out of this paper's topic", §2.2). This module
//! supplies exactly those mechanisms so the `ablation_pipelining`
//! harness can quantify what the paper set aside:
//!
//! * [`Qp::read_post`] / [`Qp::write_post`] — post an op and get a
//!   [`Completion`] back immediately; the thread pays only the software
//!   issue cost and may keep more ops in flight.
//! * [`Qp::post_read_batch`] — doorbell batching: `k` ops posted with a
//!   *single* issue cost (one doorbell ring), as in Kalia et al.'s
//!   guidelines.
//! * [`Qp::send_nowait`] — an unsignaled SEND on an unreliable
//!   transport.
//!
//! Posted ops still serialize on the NIC engines and move real bytes at
//! the same instants as their synchronous counterparts — the same
//! [`crate::engine`] flies both. What differs is the issue side: the
//! posting thread is not spinning on the op, so it is not among the
//! NIC's active issuers and accrues only the (straggler-inflated) issue
//! cost as busy time.

use std::rc::Rc;

pub use crate::engine::Completion;
use crate::engine::{Op, WorkRequest};
use crate::machine::ThreadCtx;
use crate::mem::MemRegion;
use crate::qp::Qp;

impl Qp {
    /// One doorbell ring: the software cost of posting, however many
    /// work requests the ring covers.
    async fn ring_doorbell(&self, thread: &ThreadCtx) {
        thread.busy(self.local().nic().profile().issue_cpu).await;
    }

    /// Rings the doorbell for one work request and lets it go.
    async fn post(self: &Rc<Self>, thread: &ThreadCtx, wr: WorkRequest) -> Completion {
        self.ring_doorbell(thread).await;
        self.launch(wr)
    }

    /// Posts a one-sided READ and returns immediately after the software
    /// issue cost; the returned [`Completion`] fires when the data has
    /// landed locally.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Qp::read`].
    pub async fn read_post(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) -> Completion {
        let wr = self.one_sided(Op::Read, thread, local, local_off, remote, remote_off, len);
        self.post(thread, wr).await
    }

    /// Doorbell batching: posts `entries` READs paying the issue cost
    /// **once**, and replaces the contents of `completions` with one
    /// completion per entry (the caller owns the buffer, so a polling
    /// loop reuses one across rounds).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any entry fails [`Qp::read`]'s
    /// conditions.
    #[allow(clippy::type_complexity)]
    pub async fn post_read_batch(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        entries: &[(Rc<MemRegion>, usize, Rc<MemRegion>, usize, usize)],
        completions: &mut Vec<Completion>,
    ) {
        assert!(!entries.is_empty(), "empty doorbell batch");
        let wr = |(local, local_off, remote, remote_off, len): &(_, _, _, _, _)| {
            self.one_sided(
                Op::Read,
                thread,
                local,
                *local_off,
                remote,
                *remote_off,
                *len,
            )
        };
        // Every entry is rejected before the ring, not after it.
        entries.iter().for_each(|entry| drop(wr(entry)));
        // One doorbell ring for the whole chain.
        self.ring_doorbell(thread).await;
        completions.clear();
        completions.extend(entries.iter().map(|entry| self.launch(wr(entry))));
    }

    /// Posts a one-sided WRITE; the [`Completion`] fires when the ACK
    /// returns (RC) or the op left the NIC (UC).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Qp::write`].
    pub async fn write_post(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) -> Completion {
        let wr = self.one_sided(Op::Write, thread, local, local_off, remote, remote_off, len);
        self.post(thread, wr).await
    }

    /// Unsignaled SEND on an unreliable transport: the issuing thread
    /// pays only the software issue cost and moves on; NIC engine time,
    /// propagation and delivery (or loss) happen asynchronously. This is
    /// the selective-signaling technique HERD-class systems use to keep
    /// server threads off the completion path (paper §5's reference to
    /// Kalia et al.'s guidelines).
    ///
    /// # Panics
    ///
    /// Panics on a reliable QP (an RC completion must be consumed) or if
    /// the thread is not on this QP's local machine.
    pub async fn send_nowait(self: &Rc<Self>, thread: &ThreadCtx, payload: Vec<u8>) {
        assert!(
            !self.transport().is_reliable(),
            "send_nowait requires an unreliable transport (UC/UD)"
        );
        self.assert_issuer(thread);
        // The NIC still serializes the send on its out-bound engine;
        // only the *thread* is off the hook: the completion is dropped
        // unconsumed.
        self.post(thread, WorkRequest::send(payload)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::fault::VerbError;
    use crate::profile::ClusterProfile;
    use rfp_simnet::{SimSpan, Simulation};
    use std::cell::Cell;

    #[test]
    fn posted_read_moves_bytes_and_completes() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(64);
        let remote = sm.alloc_mr(64);
        remote.write_local(0, b"posted!!");
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        let l = Rc::clone(&local);
        sim.spawn(async move {
            let c = qp.read_post(&t, &l, 0, &remote, 0, 8).await;
            assert!(!c.is_done(), "completion must be pending right after post");
            c.wait(&t).await;
            assert_eq!(&l.read_local(0, 8), b"posted!!");
            d.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn pipelined_reads_overlap_in_flight() {
        // Four posted reads complete in roughly the time the engine
        // needs to serve four ops — not four full round trips.
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(512);
        let remote = sm.alloc_mr(512);
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        let pipelined_ns = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&pipelined_ns);
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            let mut completions = Vec::new();
            for i in 0..4 {
                completions.push(qp.read_post(&t, &local, i * 64, &remote, i * 64, 32).await);
            }
            for c in completions {
                c.wait(&t).await;
            }
            out.set((h.now() - t0).as_nanos());
        });
        sim.run();
        // Sync: 4 × 1513ns = 6052. Pipelined: 1 RTT + 3 extra engine
        // slots ≈ 1513 + 3·474 ≈ 2.9µs.
        assert!(
            pipelined_ns.get() < 3_600,
            "pipelining should overlap round trips: {}ns",
            pipelined_ns.get()
        );
    }

    #[test]
    fn snapshot_pool_is_bounded_by_ops_in_flight_not_by_run_length() {
        // 200 rounds of four overlapping posted READs plus one posted
        // WRITE: however long the run, the QP ends up holding no more
        // buffers than ops were in flight together (fewer here — the
        // out-bound engine spaces the snapshots apart). The error exits
        // recycle too: rounds against a reverse partition (READ
        // snapshots taken, WRITE payloads landed, completions cut) and a
        // crashed peer (WRITE payloads NACKed) neither drain the pool —
        // which would re-allocate on every faulted op — nor grow it.
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(512);
        let remote = sm.alloc_mr(512);
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        let q = Rc::clone(&qp);
        let pooled = Rc::new(Cell::new([0usize; 3]));
        let out = Rc::clone(&pooled);
        sim.spawn(async move {
            let entries: Vec<_> = (0..4usize)
                .map(|i| (Rc::clone(&local), i * 64, Rc::clone(&remote), i * 64, 32))
                .collect();
            let mut completions = Vec::new();
            let mut after = [0; 3];
            let phases = [None, Some(VerbError::QpError), Some(VerbError::RemoteDown)];
            for (phase, expect) in phases.into_iter().enumerate() {
                match phase {
                    1 => sm.faults().block_to(0),
                    2 => sm.faults().set_crashed(true),
                    _ => {}
                }
                for _ in 0..200 {
                    let w = q.write_post(&t, &local, 256, &remote, 256, 48).await;
                    q.post_read_batch(&t, &entries, &mut completions).await;
                    for c in completions.iter().chain([&w]) {
                        c.wait(&t).await;
                        assert_eq!(c.error(), expect);
                    }
                }
                after[phase] = q.pooled_snapshots();
            }
            out.set(after);
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        let [healthy, cut, crashed] = pooled.get();
        assert!((1..=5).contains(&healthy), "{healthy} pooled buffers");
        assert_eq!(cut, healthy, "reverse-partition exits recycle");
        assert_eq!(crashed, healthy, "NACK exits recycle");
        assert!(qp.work_request_slots() <= 5);
    }

    #[test]
    fn doorbell_batch_pays_issue_once() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(512);
        let remote = sm.alloc_mr(512);
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        let batched = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&batched);
        let h = sim.handle();
        sim.spawn(async move {
            let entries: Vec<_> = (0..4usize)
                .map(|i| (Rc::clone(&local), i * 64, Rc::clone(&remote), i * 64, 32))
                .collect();
            let t0 = h.now();
            let mut completions = Vec::new();
            qp.post_read_batch(&t, &entries, &mut completions).await;
            // Posting cost: exactly one issue_cpu (200ns).
            assert_eq!((h.now() - t0).as_nanos(), 200);
            for c in completions {
                c.wait(&t).await;
            }
            out.set((h.now() - t0).as_nanos());
        });
        sim.run();
        assert!(batched.get() < 3_400, "{}ns", batched.get());
    }

    #[test]
    fn posted_write_lands_after_completion() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(64);
        let remote = sm.alloc_mr(64);
        local.write_local(0, b"async-wr");
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        let r = Rc::clone(&remote);
        sim.spawn(async move {
            let c = qp.write_post(&t, &local, 0, &r, 0, 8).await;
            c.wait_idle(&t).await;
            assert_eq!(&r.read_local(0, 8), b"async-wr");
        });
        sim.run();
        assert_eq!(&remote.read_local(0, 8), b"async-wr");
    }

    #[test]
    fn posted_read_to_crashed_peer_completes_with_error() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(64);
        let remote = sm.alloc_mr(64);
        remote.write_local(0, b"unreached");
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        sm.faults().set_crashed(true);
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        let l = Rc::clone(&local);
        sim.spawn(async move {
            let c = qp.read_post(&t, &l, 0, &remote, 0, 8).await;
            c.wait(&t).await;
            assert_eq!(c.error(), Some(VerbError::RemoteDown));
            // The NACKed flight never lands bytes locally.
            assert_eq!(l.read_local(0, 8), vec![0; 8]);
            d.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn dropped_completion_still_delivers() {
        // Unsignaled usage: drop the completion, the op still happens.
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let (cm, sm) = (cluster.machine(0), cluster.machine(1));
        let local = cm.alloc_mr(64);
        let remote = sm.alloc_mr(64);
        local.write_local(0, b"fire");
        let qp = cluster.qp(0, 1);
        let t = cm.thread("c");
        let h = sim.handle();
        let r = Rc::clone(&remote);
        sim.spawn(async move {
            drop(qp.write_post(&t, &local, 0, &r, 0, 4).await);
            h.sleep(SimSpan::micros(10)).await;
        });
        sim.run();
        assert_eq!(&remote.read_local(0, 4), b"fire");
    }
}
