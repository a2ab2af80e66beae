//! Queue pairs and verbs.
//!
//! All three InfiniBand transport types from the paper's §5 discussion
//! are modelled:
//!
//! * **RC** (Reliable Connection) — the only transport supporting both
//!   one-sided READ and WRITE; what RFP and all server-bypass designs
//!   require. Completions are ACK-driven.
//! * **UC** (Unreliable Connection) — supports WRITE but not READ;
//!   completions fire at the sender once the op leaves the NIC, and the
//!   packet may be silently lost.
//! * **UD** (Unreliable Datagram) — SEND/RECV only, cheapest per
//!   message (no connection state, no ACKs — how HERD/FaSST push
//!   message rates), lossy.
//!
//! The verbs in this file are *synchronous*: the issuing thread
//! busy-polls its completion queue until the op completes, matching the
//! paper's measurement methodology ("we always wait for an RDMA
//! operation's completion before starting the next operation", §2.2).
//! The posted forms are in [`crate::async_verbs`]. Either way a verb
//! only validates its arguments, pays its issue cost and files a work
//! request; [`crate::engine`] flies it.
//!
//! Timing of a one-sided op of `n` bytes issued by thread `T` on machine
//! `A` against memory of machine `B`:
//!
//! ```text
//! T: issue_cpu ──► A.outbound engine (FIFO, contention-inflated)
//!        ──► propagation ──► B.inbound engine (FIFO)   [bytes move here]
//!        ──► propagation (+ read_turnaround for READ) ──► completion
//! ```
//!
//! The whole interval counts as busy time for `T`.

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;

use crate::engine::{Op, WireLanes, WorkRequest};
use crate::fault::{FabricFaults, VerbError};
use crate::machine::{Machine, ThreadCtx};
use crate::mem::MemRegion;
use crate::profile::LinkProfile;
use rfp_simnet::{Channel, SimSpan, Slab};

/// InfiniBand transport service type of a queue pair (paper §5).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Reliable Connection: one-sided READ + WRITE, SEND/RECV, ACKed.
    Rc,
    /// Unreliable Connection: one-sided WRITE (no READ), SEND/RECV,
    /// fire-and-forget, lossy.
    Uc,
    /// Unreliable Datagram: SEND/RECV only, cheapest per message, lossy.
    Ud,
}

impl Transport {
    /// Whether this transport supports one-sided READ.
    fn supports_read(self) -> bool {
        matches!(self, Transport::Rc)
    }

    /// Whether this transport supports one-sided WRITE.
    fn supports_write(self) -> bool {
        matches!(self, Transport::Rc | Transport::Uc)
    }

    /// Whether delivery is guaranteed.
    pub fn is_reliable(self) -> bool {
        matches!(self, Transport::Rc)
    }
}

/// A queue pair from a local machine to a remote machine.
pub struct Qp {
    local: Rc<Machine>,
    remote: Rc<Machine>,
    link: LinkProfile,
    fabric: Rc<FabricFaults>,
    /// The fabric's wire delay lines.
    pub(crate) wire: WireLanes,
    transport: Transport,
    /// QP generation of each endpoint at creation time; if either
    /// machine's generation advances, this QP is in the error state.
    local_epoch: u64,
    remote_epoch: u64,
    /// Delivered two-sided messages awaiting `recv`.
    pub(crate) rx: Channel<Vec<u8>>,
    /// Work requests in flight (or completed and not yet consumed);
    /// never more slots than were occupied together.
    pub(crate) requests: RefCell<Slab<WorkRequest>>,
    /// Recycled buffers for the payload snapshot every one-sided op
    /// takes at its modelled instant (WRITE: at issue; READ: when the
    /// in-bound engine finishes). An op pops one — or starts an empty
    /// `Vec` when all are in flight — and the engine pushes it back when
    /// the request retires, so the pool holds at most as many buffers
    /// as ops were ever in flight together on this QP.
    snapshots: RefCell<Vec<Vec<u8>>>,
}

impl Qp {
    pub(crate) fn with_transport(
        local: Rc<Machine>,
        remote: Rc<Machine>,
        link: LinkProfile,
        fabric: Rc<FabricFaults>,
        wire: WireLanes,
        transport: Transport,
    ) -> Rc<Self> {
        let local_epoch = local.faults().qp_epoch();
        let remote_epoch = remote.faults().qp_epoch();
        local.note_qp_endpoint();
        remote.note_qp_endpoint();
        Rc::new(Qp {
            local,
            remote,
            link,
            fabric,
            wire,
            transport,
            local_epoch,
            remote_epoch,
            rx: Channel::new(),
            requests: RefCell::default(),
            snapshots: RefCell::new(Vec::new()),
        })
    }

    /// The issuing-side machine.
    pub fn local(&self) -> &Rc<Machine> {
        &self.local
    }

    /// The serving-side machine.
    pub fn remote(&self) -> &Rc<Machine> {
        &self.remote
    }

    /// This queue pair's transport service type.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Work-request slots this QP ever needed at once: the high-water
    /// mark of operations in flight plus completions not yet consumed.
    pub fn work_request_slots(&self) -> usize {
        self.requests.borrow().slots()
    }

    /// Whether this QP is usable by its issuing side right now.
    ///
    /// Healthy clusters never fail this; under injected faults it is the
    /// completion-with-error a real CQ would report.
    pub fn error_state(&self) -> Option<VerbError> {
        if self.local.faults().is_crashed() {
            return Some(VerbError::LocalDown);
        }
        if self.local_epoch != self.local.faults().qp_epoch()
            || self.remote_epoch != self.remote.faults().qp_epoch()
        {
            return Some(VerbError::QpError);
        }
        None
    }

    /// Wire-arrival fault gate: the op reached the remote NIC; is the
    /// peer still there and is this QP still valid on it? A partition
    /// cutting the request leg means nothing ever arrived — the
    /// initiator sees the same retry-exhausted error, with no remote
    /// side effect.
    pub(crate) fn remote_live(&self) -> Result<(), VerbError> {
        if self.forward_cut() {
            return Err(VerbError::QpError);
        }
        if self.remote.faults().is_crashed() {
            return Err(VerbError::RemoteDown);
        }
        if self.remote_epoch != self.remote.faults().qp_epoch() {
            return Err(VerbError::QpError);
        }
        Ok(())
    }

    /// Whether an asymmetric partition cuts the request leg (issuer →
    /// peer). One `Cell` load; draws nothing.
    pub(crate) fn forward_cut(&self) -> bool {
        self.local.faults().blocks_to(self.remote.id().0)
    }

    /// Whether an asymmetric partition cuts the completion leg (peer →
    /// issuer). Remote side effects may already have landed by the time
    /// this gate fires — that asymmetry is the point: a WRITE whose ACK
    /// is cut still delivered its payload.
    pub(crate) fn reverse_cut(&self) -> bool {
        self.remote.faults().blocks_to(self.local.id().0)
    }

    /// One-way propagation delay, inflated by any fabric degradation
    /// and by per-machine slow-link (gray fail-slow) lag; sampled once
    /// per wire leg. The lag draw happens only while a slow-link window
    /// is armed, so healthy runs are bit-identical with or without the
    /// fault layer.
    pub(crate) fn prop(&self) -> SimSpan {
        let factor = self.fabric.link_factor();
        let base = if factor == 1.0 {
            self.link.propagation
        } else {
            SimSpan::from_nanos_f64(self.link.propagation.as_nanos() as f64 * factor)
        };
        let lag = self
            .local
            .faults()
            .wire_lag_ns()
            .max(self.remote.faults().wire_lag_ns());
        if lag == 0 {
            return base;
        }
        // Jittered uniformly in [mean/2, 3·mean/2]: slow links are
        // noisy, not a clean constant offset.
        let extra = self
            .local
            .handle()
            .with_rng(|rng| rng.gen_range(lag / 2..=lag + lag / 2));
        base + SimSpan::nanos(extra)
    }

    /// One Bernoulli draw from the simulation's RNG — none at all when
    /// `p` is zero, so a disarmed fault leaves the stream untouched.
    pub(crate) fn chance(&self, p: f64) -> bool {
        p > 0.0 && self.local.handle().with_rng(|rng| rng.gen::<f64>()) < p
    }

    /// Loss-burst probability contributed by the endpoints' fault state.
    pub(crate) fn burst_loss(&self) -> f64 {
        self.local
            .faults()
            .extra_loss()
            .max(self.remote.faults().extra_loss())
    }

    /// Draws whether an unreliable op is lost in transit; a loss burst
    /// on either endpoint compounds with the profile's base loss rate.
    /// Losses are charged to the sender's NIC drop counter.
    pub(crate) fn lost_in_transit(&self) -> bool {
        let base = self.local.nic().profile().unreliable_loss;
        let burst = self.burst_loss();
        let p = if burst == 0.0 {
            base
        } else {
            1.0 - (1.0 - base) * (1.0 - burst)
        };
        let lost = self.chance(p);
        if lost {
            self.local.nic().note_drop();
        }
        lost
    }

    /// Copies `mr[off..off + len]` into a buffer from the recycled pool.
    pub(crate) fn snapshot(&self, mr: &MemRegion, off: usize, len: usize) -> Vec<u8> {
        let mut buf = self.snapshots.borrow_mut().pop().unwrap_or_default();
        buf.resize(len, 0);
        mr.read_local_into(off, &mut buf);
        buf
    }

    /// Returns a retired request's buffer to the pool (a SEND's message
    /// went to the receiver and a NACKed READ never sampled: nothing to
    /// keep).
    pub(crate) fn recycle(&self, buf: Vec<u8>) {
        if buf.capacity() > 0 {
            self.snapshots.borrow_mut().push(buf);
        }
    }

    #[cfg(test)]
    pub(crate) fn pooled_snapshots(&self) -> usize {
        self.snapshots.borrow().len()
    }

    /// Applies the remote machine's memory-integrity faults to a READ
    /// snapshot. Torn DMA splices the snapshot's suffix from the remote
    /// region's pre-write image (the READ completed mid-write); a bit
    /// flip corrupts one sampled bit. Draws nothing while both faults
    /// are disarmed, so healthy runs are bit-identical with or without
    /// the fault layer.
    pub(crate) fn corrupt_in_flight(
        &self,
        remote: &MemRegion,
        remote_off: usize,
        snapshot: &mut [u8],
    ) {
        let faults = self.remote.faults();
        if !snapshot.is_empty() && self.chance(faults.torn_dma()) {
            remote.with_history(|hist| {
                if let Some(hist) = hist {
                    // Prefix from the new image, suffix from the old:
                    // the in-bound engine sampled the front of the
                    // buffer after the write and the back before it.
                    let cut = self
                        .local
                        .handle()
                        .with_rng(|rng| rng.gen_range(0..snapshot.len()));
                    for (i, byte) in snapshot.iter_mut().enumerate().skip(cut) {
                        if let Some(&old) = hist.get(remote_off + i) {
                            *byte = old;
                        }
                    }
                }
            });
        }
        if !snapshot.is_empty() && self.chance(faults.bitflip()) {
            let (byte, bit) = self
                .local
                .handle()
                .with_rng(|rng| (rng.gen_range(0..snapshot.len()), rng.gen_range(0..8u32)));
            snapshot[byte] ^= 1 << bit;
        }
    }

    pub(crate) fn assert_issuer(&self, thread: &ThreadCtx) {
        assert_eq!(
            thread.machine().id(),
            self.local.id(),
            "thread must issue on the QP's local machine"
        );
    }

    /// Validates a one-sided verb — at the caller, for the synchronous
    /// and the posted forms alike — and builds its work request.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn one_sided(
        &self,
        op: Op,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) -> WorkRequest {
        let (supported, needs) = match op {
            Op::Read => (self.transport.supports_read(), "READ requires RC"),
            _ => (self.transport.supports_write(), "WRITE requires RC or UC"),
        };
        assert!(supported, "one-sided {needs} (got {:?})", self.transport);
        self.assert_issuer(thread);
        assert_eq!(
            local.owner(),
            self.local.id(),
            "local MR not registered on this machine"
        );
        assert_eq!(
            remote.owner(),
            self.remote.id(),
            "remote MR not registered on the peer (bad rkey)"
        );
        assert!(local_off + len <= local.len(), "local range out of MR");
        assert!(remote_off + len <= remote.len(), "remote range out of MR");
        WorkRequest::one_sided(op, (local, local_off), (remote, remote_off), len)
    }

    /// The synchronous issue path: the thread pays the software issue
    /// cost, then spins on the completion — counted among the NIC's
    /// active issuers (out-bound contention) and busy for the whole
    /// verb. A QP already in the error state fails at once, at no cost.
    async fn spin(self: &Rc<Self>, thread: &ThreadCtx, wr: WorkRequest) -> Result<(), VerbError> {
        if let Some(e) = self.error_state() {
            return Err(e);
        }
        let h = thread.handle();
        let t0 = h.now();
        let nic = self.local.nic();
        let _issuing = nic.begin_issue();
        let done = self.file_sync(wr, t0 + nic.profile().issue_cpu);
        done.done().await;
        thread.note_busy(h.now() - t0);
        done.error().map_or(Ok(()), Err)
    }

    /// One-sided RDMA READ: copies `len` bytes from the remote region
    /// into the local region. Returns when the completion is consumed.
    ///
    /// The remote CPU is never involved (server-bypass property); the
    /// bytes are snapshotted at the instant the remote in-bound engine
    /// finishes the op.
    ///
    /// # Panics
    ///
    /// Panics if the thread or regions do not belong to this QP's
    /// machines, if a range exceeds a region, or — unlike
    /// [`Qp::try_read`] — if an injected fault errors the op.
    pub async fn read(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) {
        self.try_read(thread, local, local_off, remote, remote_off, len)
            .await
            .expect("READ failed on a QP with no recovery path");
    }

    /// Fallible [`Qp::read`]: completes with a [`VerbError`] instead of
    /// panicking when an injected fault errors the op — after the NACK
    /// round trip for a dead or re-keyed peer, and without touching
    /// local memory when the returning data is cut off.
    pub async fn try_read(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) -> Result<(), VerbError> {
        let wr = self.one_sided(Op::Read, thread, local, local_off, remote, remote_off, len);
        self.spin(thread, wr).await
    }

    /// One-sided RDMA WRITE: copies `len` bytes from the local region
    /// into the remote region. Returns when the ACK-driven completion is
    /// consumed; the bytes land remotely (and wake write-watchers) at the
    /// instant the remote in-bound engine finishes.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Qp::read`] (fault-aware callers use
    /// [`Qp::try_write`]).
    pub async fn write(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) {
        self.try_write(thread, local, local_off, remote, remote_off, len)
            .await
            .expect("WRITE failed on a QP with no recovery path");
    }

    /// Fallible [`Qp::write`]: completes with a [`VerbError`] instead of
    /// panicking when an injected fault errors the op. A UC write to a
    /// crashed peer still completes `Ok` (fire-and-forget) — the packet
    /// is counted dropped at the sender's NIC.
    pub async fn try_write(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        local: &Rc<MemRegion>,
        local_off: usize,
        remote: &Rc<MemRegion>,
        remote_off: usize,
        len: usize,
    ) -> Result<(), VerbError> {
        let wr = self.one_sided(Op::Write, thread, local, local_off, remote, remote_off, len);
        self.spin(thread, wr).await
    }

    /// Two-sided SEND. On RC the completion is ACK-driven and two-sided
    /// ops show no in/out asymmetry (paper §2.2): both NICs pay the
    /// symmetric two-sided cost. On UC/UD the send completes once it
    /// leaves the NIC (UD additionally at the cheaper datagram cost) and
    /// may be lost.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not on this QP's local machine (or, on
    /// RC, if an injected fault errors the op — fault-aware callers use
    /// [`Qp::try_send`]).
    pub async fn send(self: &Rc<Self>, thread: &ThreadCtx, payload: Vec<u8>) {
        self.try_send(thread, payload)
            .await
            .expect("SEND failed on a QP with no recovery path");
    }

    /// Fallible [`Qp::send`]: RC sends complete with a [`VerbError`]
    /// instead of panicking when an injected fault errors the op; UC/UD
    /// sends to a crashed peer still complete `Ok` (fire-and-forget)
    /// with the datagram counted dropped at the sender's NIC.
    pub async fn try_send(
        self: &Rc<Self>,
        thread: &ThreadCtx,
        payload: Vec<u8>,
    ) -> Result<(), VerbError> {
        self.assert_issuer(thread);
        self.spin(thread, WorkRequest::send(payload)).await
    }

    /// A raw receive future for the next message on this QP, without
    /// busy-time accounting — for callers that need to compose the wait
    /// (e.g. with [`rfp_simnet::timeout`] for loss recovery) and account
    /// CPU themselves.
    pub fn incoming(&self) -> rfp_simnet::Recv<Vec<u8>> {
        self.rx.recv()
    }

    /// Two-sided RECV: busy-polls for the next message on this QP (the
    /// receiving thread spins on its completion queue).
    ///
    /// # Panics
    ///
    /// Panics if the thread is not on this QP's remote machine (RECVs are
    /// posted by the peer of the sender).
    pub async fn recv(&self, thread: &ThreadCtx) -> Vec<u8> {
        assert_eq!(
            thread.machine().id(),
            self.remote.id(),
            "recv must be posted on the QP's remote machine"
        );
        thread.busy_wait(self.rx.recv()).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::profile::ClusterProfile;
    use rfp_simnet::Simulation;
    use std::cell::Cell;

    fn two_machines() -> (Simulation, Cluster) {
        let mut sim = Simulation::new(7);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        (sim, cluster)
    }

    #[test]
    fn read_moves_remote_bytes() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        remote.write_local(8, b"hello rdma");
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        let l = Rc::clone(&local);
        let r = Rc::clone(&remote);
        sim.spawn(async move {
            qp.read(&t, &l, 0, &r, 8, 10).await;
        });
        sim.run();
        assert_eq!(&local.read_local(0, 10), b"hello rdma");
    }

    #[test]
    fn scratch_reuse_never_leaks_bytes_across_reads() {
        // The sync READ snapshots through a recycled buffer of the
        // QP's pool; back-to-back reads of shrinking/growing lengths and
        // different sources must each surface exactly their own bytes
        // (a stale tail from the previous, longer snapshot would show
        // up here).
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(256);
        let remote = server.alloc_mr(256);
        let long: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(3)).collect();
        remote.write_local(0, &long);
        remote.write_local(128, b"short");
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        let (l, r) = (Rc::clone(&local), Rc::clone(&remote));
        sim.spawn(async move {
            qp.read(&t, &l, 0, &r, 0, 64).await;
            qp.read(&t, &l, 64, &r, 128, 5).await;
            // Grow again after the shrink: the recycled scratch must be
            // re-zeroed/refilled, not resurface the first read's bytes.
            r.write_local(0, &[0xAB; 64]);
            qp.read(&t, &l, 128, &r, 0, 64).await;
        });
        sim.run();
        assert_eq!(local.read_local(0, 64), long);
        assert_eq!(&local.read_local(64, 5), b"short");
        assert_eq!(local.read_local(128, 64), vec![0xAB; 64]);
    }

    #[test]
    fn write_moves_local_bytes_and_counts_ops() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        local.write_local(0, b"ping");
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        let l = Rc::clone(&local);
        let r = Rc::clone(&remote);
        sim.spawn(async move {
            qp.write(&t, &l, 0, &r, 16, 4).await;
        });
        sim.run();
        assert_eq!(&remote.read_local(16, 4), b"ping");
        assert_eq!(server.nic().counters().inbound_ops, 1);
        assert_eq!(client.nic().counters().outbound_ops, 1);
        assert_eq!(server.nic().counters().inbound_bytes, 4);
    }

    #[test]
    fn attached_registry_sees_nic_traffic() {
        let (mut sim, cluster) = two_machines();
        let registry = rfp_simnet::MetricsRegistry::new();
        cluster.attach_metrics(&registry);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        sim.spawn(async move {
            qp.write(&t, &local, 0, &remote, 16, 4).await;
        });
        sim.run();
        let snap = registry.snapshot();
        // A WRITE from machine 0 to machine 1: out-bound at the issuer,
        // in-bound at the target — mirrored through the registry.
        assert_eq!(snap.scalar("nic.0.outbound.ops"), Some(1.0));
        assert_eq!(snap.scalar("nic.1.inbound.ops"), Some(1.0));
        assert_eq!(snap.scalar("nic.1.inbound.bytes"), Some(4.0));
        assert_eq!(snap.scalar("nic.0.inbound.ops"), Some(0.0));
        // Engine busy gauges track FifoServer busy time.
        let busy = snap.scalar("nic.1.inbound.busy_ns").unwrap();
        assert!(busy > 0.0, "in-bound engine must have accrued busy time");
        assert_eq!(busy, server.nic().inbound_busy().as_nanos() as f64);
    }

    #[test]
    fn single_read_latency_matches_model() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        let lat = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&lat);
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            qp.read(&t, &local, 0, &remote, 0, 32).await;
            out.set((h.now() - t0).as_nanos());
        });
        sim.run();
        // 200 issue + 474 outbound + 300 prop + 89 inbound + 300 prop +
        // 150 turnaround = 1513 ns — in the ~1.5 µs ballpark of real
        // small-read latency on this hardware class.
        assert_eq!(lat.get(), 1513);
    }

    #[test]
    fn write_is_cheaper_than_read() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp_r = cluster.qp(0, 1);
        let qp_w = cluster.qp(0, 1);
        let t = client.thread("c");
        let read_ns = Rc::new(Cell::new(0u64));
        let write_ns = Rc::new(Cell::new(0u64));
        let (r_out, w_out) = (Rc::clone(&read_ns), Rc::clone(&write_ns));
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            qp_w.write(&t, &local, 0, &remote, 0, 32).await;
            w_out.set((h.now() - t0).as_nanos());
            let t1 = h.now();
            qp_r.read(&t, &local, 0, &remote, 0, 32).await;
            r_out.set((h.now() - t1).as_nanos());
        });
        sim.run();
        assert!(write_ns.get() < read_ns.get());
    }

    #[test]
    fn verb_time_counts_as_busy() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        let th = Rc::clone(&t);
        sim.spawn(async move {
            qp.read(&th, &local, 0, &remote, 0, 32).await;
        });
        sim.run();
        assert!((t.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn send_recv_round_trip() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let qp = cluster.qp(0, 1);
        let qp2 = Rc::clone(&qp);
        let ct = client.thread("c");
        let st = server.thread("s");
        let got = Rc::new(std::cell::RefCell::new(Vec::new()));
        let out = Rc::clone(&got);
        sim.spawn(async move {
            qp.send(&ct, b"msg".to_vec()).await;
        });
        sim.spawn(async move {
            *out.borrow_mut() = qp2.recv(&st).await;
        });
        sim.run();
        assert_eq!(&*got.borrow(), b"msg");
    }

    #[test]
    #[should_panic(expected = "bad rkey")]
    fn read_rejects_foreign_mr() {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let local = client.alloc_mr(64);
        // "Remote" region actually owned by the client machine.
        let bogus = client.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        sim.spawn(async move {
            qp.read(&t, &local, 0, &bogus, 0, 8).await;
        });
        sim.run();
    }

    /// Posts a WRITE of `len` bytes at `remote_off` into a region owned
    /// by machine `owner` over the QP 0 → 1.
    fn post_write_to(owner: usize, remote_off: usize, len: usize) {
        let (mut sim, cluster) = two_machines();
        let client = cluster.machine(0);
        let local = client.alloc_mr(64);
        let target = cluster.machine(owner).alloc_mr(64);
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        sim.spawn(async move {
            drop(qp.write_post(&t, &local, 0, &target, remote_off, len).await);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "bad rkey")]
    fn write_post_rejects_foreign_mr() {
        // The "remote" region is actually owned by the client machine.
        post_write_to(0, 0, 8);
    }

    #[test]
    #[should_panic(expected = "remote range out of MR")]
    fn write_post_rejects_out_of_range() {
        // Rejected at the caller, not later inside a detached flight.
        post_write_to(1, 60, 8);
    }

    #[test]
    fn reads_serialize_on_server_inbound_engine() {
        // Two clients on different machines reading the same server:
        // their in-bound service must serialize at the server NIC.
        let mut sim = Simulation::new(1);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
        let server = cluster.machine(2);
        let remote = server.alloc_mr(4096);
        for c in 0..2 {
            let qp = cluster.qp(c, 2);
            let client = cluster.machine(c);
            let local = client.alloc_mr(4096);
            let t = client.thread("c");
            let r = Rc::clone(&remote);
            sim.spawn(async move {
                // Large ops so in-bound service dominates.
                qp.read(&t, &local, 0, &r, 0, 4096).await;
            });
        }
        sim.run();
        let served = server.nic().counters();
        assert_eq!(served.inbound_ops, 2);
        // In-bound engine busy = 2 × service(4096) with no overlap.
        let per_op = server.nic().profile().inbound_service(4096);
        assert_eq!(
            server.nic().inbound_busy().as_nanos(),
            2 * per_op.as_nanos()
        );
    }
}

#[cfg(test)]
mod transport_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::profile::ClusterProfile;
    use rfp_simnet::{SimSpan, Simulation};
    use std::cell::Cell;

    #[test]
    fn uc_write_completes_without_round_trip() {
        let mut sim = Simulation::new(7);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        local.write_local(0, b"uc-payload");
        let rc = cluster.qp(0, 1);
        let uc = cluster.qp_typed(0, 1, Transport::Uc);
        let t = client.thread("c");
        let (rc_ns, uc_ns) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
        let (r_out, u_out) = (Rc::clone(&rc_ns), Rc::clone(&uc_ns));
        let h = sim.handle();
        let remote2 = Rc::clone(&remote);
        sim.spawn(async move {
            let t0 = h.now();
            rc.write(&t, &local, 0, &remote2, 0, 10).await;
            r_out.set((h.now() - t0).as_nanos());
            let t1 = h.now();
            uc.write(&t, &local, 0, &remote2, 16, 10).await;
            u_out.set((h.now() - t1).as_nanos());
        });
        sim.run();
        // Fire-and-forget beats the ACKed RC write...
        assert!(
            uc_ns.get() < rc_ns.get(),
            "{} !< {}",
            uc_ns.get(),
            rc_ns.get()
        );
        // ...and the data still lands (delivery is asynchronous).
        assert_eq!(&remote.read_local(16, 10), b"uc-payload");
    }

    #[test]
    fn ud_send_is_cheaper_than_rc_send() {
        let mut sim = Simulation::new(1);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let rc = cluster.qp(0, 1);
        let ud = cluster.qp_typed(0, 1, Transport::Ud);
        let t = client.thread("c");
        let (rc_ns, ud_ns) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
        let (r_out, u_out) = (Rc::clone(&rc_ns), Rc::clone(&ud_ns));
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            rc.send(&t, vec![1; 32]).await;
            r_out.set((h.now() - t0).as_nanos());
            let t1 = h.now();
            ud.send(&t, vec![2; 32]).await;
            u_out.set((h.now() - t1).as_nanos());
        });
        sim.run();
        assert!(
            ud_ns.get() < rc_ns.get(),
            "{} !< {}",
            ud_ns.get(),
            rc_ns.get()
        );
    }

    #[test]
    #[should_panic(expected = "READ requires RC")]
    fn uc_rejects_read() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let local = client.alloc_mr(8);
        let remote = cluster.machine(1).alloc_mr(8);
        let uc = cluster.qp_typed(0, 1, Transport::Uc);
        let t = client.thread("c");
        sim.spawn(async move {
            uc.read(&t, &local, 0, &remote, 0, 8).await;
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "WRITE requires RC or UC")]
    fn ud_rejects_write() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let local = client.alloc_mr(8);
        let remote = cluster.machine(1).alloc_mr(8);
        let ud = cluster.qp_typed(0, 1, Transport::Ud);
        let t = client.thread("c");
        sim.spawn(async move {
            ud.write(&t, &local, 0, &remote, 0, 8).await;
        });
        sim.run();
    }

    #[test]
    fn lossy_ud_drops_a_fraction_of_messages() {
        let mut sim = Simulation::new(3);
        let mut profile = ClusterProfile::paper_testbed();
        profile.nic.unreliable_loss = 0.25;
        let cluster = Cluster::new(&mut sim, profile, 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let ud = cluster.qp_typed(0, 1, Transport::Ud);
        let ud_rx = Rc::clone(&ud);
        let ct = client.thread("c");
        let st = server.thread("s");
        let received = Rc::new(Cell::new(0u32));
        let got = Rc::clone(&received);
        const SENT: u32 = 400;
        sim.spawn(async move {
            for i in 0..SENT {
                ud.send(&ct, i.to_le_bytes().to_vec()).await;
            }
        });
        sim.spawn(async move {
            loop {
                let _ = ud_rx.recv(&st).await;
                got.set(got.get() + 1);
            }
        });
        sim.run_for(SimSpan::millis(2));
        let received = received.get();
        assert!(received < SENT, "some messages must drop");
        let loss = 1.0 - received as f64 / SENT as f64;
        assert!((0.15..0.35).contains(&loss), "loss rate {loss}");
    }

    #[test]
    fn lossy_ud_counts_drops_at_the_sender() {
        let mut sim = Simulation::new(3);
        let mut profile = ClusterProfile::paper_testbed();
        profile.nic.unreliable_loss = 0.25;
        let cluster = Cluster::new(&mut sim, profile, 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let ud = cluster.qp_typed(0, 1, Transport::Ud);
        let ud_rx = Rc::clone(&ud);
        let ct = client.thread("c");
        let st = server.thread("s");
        let received = Rc::new(Cell::new(0u64));
        let got = Rc::clone(&received);
        const SENT: u64 = 200;
        sim.spawn(async move {
            for i in 0..SENT {
                ud.send(&ct, i.to_le_bytes().to_vec()).await;
            }
        });
        sim.spawn(async move {
            loop {
                let _ = ud_rx.recv(&st).await;
                got.set(got.get() + 1);
            }
        });
        sim.run_for(SimSpan::millis(2));
        let dropped = client.nic().counters().dropped;
        assert!(dropped > 0, "losses must be counted, not silent");
        assert_eq!(received.get() + dropped, SENT);
        // The receiving NIC loses nothing of its own.
        assert_eq!(server.nic().counters().dropped, 0);
    }

    #[test]
    fn crashed_remote_errors_reads_after_a_round_trip() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        let t = client.thread("c");
        server.faults().set_crashed(true);
        let outcome = Rc::new(Cell::new(None));
        let out = Rc::clone(&outcome);
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            let res = qp.try_read(&t, &local, 0, &remote, 0, 8).await;
            out.set(Some((res, (h.now() - t0).as_nanos())));
        });
        sim.run();
        let (res, elapsed) = outcome.get().unwrap();
        assert_eq!(res, Err(VerbError::RemoteDown));
        // The initiator only learns from the NACK timeout: it paid the
        // issue + out-bound + both propagation legs.
        assert!(elapsed >= 200 + 474 + 2 * 300, "elapsed {elapsed}");
    }

    #[test]
    fn qp_epoch_bump_errors_old_qps_but_not_new_ones() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let old_qp = cluster.qp(0, 1);
        server.faults().bump_qp_epoch();
        assert_eq!(old_qp.error_state(), Some(VerbError::QpError));
        let factory = cluster.qp_factory(0, 1);
        let new_qp = factory();
        assert_eq!(new_qp.error_state(), None);
        let t = client.thread("c");
        let ok = Rc::new(Cell::new(false));
        let flag = Rc::clone(&ok);
        sim.spawn(async move {
            assert_eq!(
                old_qp.try_write(&t, &local, 0, &remote, 0, 8).await,
                Err(VerbError::QpError)
            );
            assert_eq!(new_qp.try_write(&t, &local, 0, &remote, 0, 8).await, Ok(()));
            flag.set(true);
        });
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn forward_partition_errors_ops_without_remote_side_effects() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        local.write_local(0, b"blocked");
        let qp = cluster.qp(0, 1);
        // Cut the request leg only: 0 → 1 drops, 1 → 0 keeps flowing.
        client.faults().block_to(1);
        let t = client.thread("c");
        let ok = Rc::new(Cell::new(false));
        let flag = Rc::clone(&ok);
        let r = Rc::clone(&remote);
        sim.spawn(async move {
            assert_eq!(
                qp.try_write(&t, &local, 0, &r, 0, 7).await,
                Err(VerbError::QpError)
            );
            assert_eq!(
                qp.try_read(&t, &local, 0, &r, 0, 7).await,
                Err(VerbError::QpError)
            );
            flag.set(true);
        });
        sim.run();
        assert!(ok.get());
        // Nothing reached the peer.
        assert_eq!(remote.read_local(0, 7), vec![0; 7]);
    }

    #[test]
    fn reverse_partition_lands_write_payload_but_errors_completion() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        local.write_local(0, b"one-way");
        let qp = cluster.qp(0, 1);
        // Cut the ACK leg only: the request still arrives.
        server.faults().block_to(0);
        let t = client.thread("c");
        let ok = Rc::new(Cell::new(false));
        let flag = Rc::clone(&ok);
        let r = Rc::clone(&remote);
        let l = Rc::clone(&local);
        sim.spawn(async move {
            assert_eq!(
                qp.try_write(&t, &l, 0, &r, 0, 7).await,
                Err(VerbError::QpError)
            );
            // A READ's returning data is also cut: local memory stays
            // untouched.
            assert_eq!(
                qp.try_read(&t, &l, 32, &r, 0, 7).await,
                Err(VerbError::QpError)
            );
            flag.set(true);
        });
        sim.run();
        assert!(ok.get());
        // The WRITE's payload landed despite the failed completion —
        // the asymmetry a split-brain fence must survive.
        assert_eq!(&remote.read_local(0, 7), b"one-way");
        assert_eq!(local.read_local(32, 7), vec![0; 7]);
    }

    #[test]
    fn healed_partition_restores_service() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        local.write_local(0, b"after");
        let qp = cluster.qp(0, 1);
        client.faults().block_to(1);
        client.faults().unblock_to(1);
        let t = client.thread("c");
        let ok = Rc::new(Cell::new(false));
        let flag = Rc::clone(&ok);
        let r = Rc::clone(&remote);
        sim.spawn(async move {
            assert_eq!(qp.try_write(&t, &local, 0, &r, 0, 5).await, Ok(()));
            flag.set(true);
        });
        sim.run();
        assert!(ok.get());
        assert_eq!(&remote.read_local(0, 5), b"after");
    }

    #[test]
    fn link_degradation_scales_propagation() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        cluster.fabric().set_link_factor(10.0);
        let t = client.thread("c");
        let lat = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&lat);
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            qp.read(&t, &local, 0, &remote, 0, 32).await;
            out.set((h.now() - t0).as_nanos());
        });
        sim.run();
        // Healthy latency is 1513ns with 2×300ns propagation; at 10× the
        // propagation legs cost 6000ns instead of 600ns.
        assert_eq!(lat.get(), 1513 - 600 + 6000);
    }

    #[test]
    fn slow_link_lag_inflates_latency_without_errors() {
        let mut sim = Simulation::new(9);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let local = client.alloc_mr(64);
        let remote = server.alloc_mr(64);
        let qp = cluster.qp(0, 1);
        server.faults().set_wire_lag(30_000);
        let t = client.thread("c");
        let lat = Rc::new(Cell::new(0u64));
        let out = Rc::clone(&lat);
        let h = sim.handle();
        sim.spawn(async move {
            let t0 = h.now();
            // `read` (not `try_read`) doubles as the no-error assert:
            // a slow link degrades, it never errors.
            qp.read(&t, &local, 0, &remote, 0, 32).await;
            out.set((h.now() - t0).as_nanos());
        });
        sim.run();
        // Healthy READ is 1513 ns; each of the two wire legs now pays a
        // jittered extra in [15 µs, 45 µs].
        assert!(lat.get() >= 1513 + 2 * 15_000, "lat {}", lat.get());
        assert!(lat.get() <= 1513 + 2 * 45_000, "lat {}", lat.get());
        server.faults().set_wire_lag(0);
    }

    #[test]
    fn straggler_factor_inflates_cpu_busy_spans() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let m = cluster.machine(0);
        m.faults().set_cpu_factor(3.0);
        let t = m.thread("slow");
        sim.spawn(async move {
            t.busy(SimSpan::micros(2)).await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 6_000);
    }

    #[test]
    fn cold_wipe_zeroes_registered_regions() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let m = cluster.machine(0);
        let mr = m.alloc_mr(16);
        mr.write_local(0, b"payload");
        m.wipe_memory();
        assert_eq!(mr.read_local(0, 7), vec![0; 7]);
    }

    #[test]
    fn reliable_rc_never_drops_despite_loss_setting() {
        // The loss knob applies to unreliable transports only.
        let mut sim = Simulation::new(3);
        let mut profile = ClusterProfile::paper_testbed();
        profile.nic.unreliable_loss = 0.5;
        let cluster = Cluster::new(&mut sim, profile, 2);
        let client = cluster.machine(0);
        let server = cluster.machine(1);
        let rc = cluster.qp(0, 1);
        let rc_rx = Rc::clone(&rc);
        let ct = client.thread("c");
        let st = server.thread("s");
        let received = Rc::new(Cell::new(0u32));
        let got = Rc::clone(&received);
        sim.spawn(async move {
            for i in 0..100u32 {
                rc.send(&ct, i.to_le_bytes().to_vec()).await;
            }
        });
        sim.spawn(async move {
            for _ in 0..100 {
                let _ = rc_rx.recv(&st).await;
                got.set(got.get() + 1);
            }
        });
        sim.run_for(SimSpan::millis(2));
        assert_eq!(received.get(), 100);
    }
}
