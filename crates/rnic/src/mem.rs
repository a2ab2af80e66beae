//! Registered memory regions.
//!
//! A [`MemRegion`] models a pinned, RNIC-registered buffer. Remote verbs
//! copy real bytes in and out of it, and local code (the owning server or
//! client) reads/writes it directly in zero simulated time — matching
//! real RDMA, where local access to registered memory is plain memory
//! access.
//!
//! Regions also support *write watchers*: futures that complete when a
//! remote WRITE lands in a watched byte range. Higher layers use this
//! both as a cheap stand-in for memory polling loops (the wake instant
//! equals the instant a poll would first observe the data) and for the
//! blocking wait of server-reply mode.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use rfp_simnet::Replan;

use crate::machine::MachineId;

/// Identifier of a memory region within one cluster (its "rkey").
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MrId(pub u64);

/// A registered memory region owned by one machine.
pub struct MemRegion {
    id: MrId,
    owner: MachineId,
    bytes: RefCell<Vec<u8>>,
    watchers: RefCell<Vec<Watcher>>,
    next_watcher: Cell<u64>,
    /// Monotone count of remote writes applied, used by watchers to
    /// detect writes that landed between polls.
    write_epoch: RefCell<u64>,
    /// Pre-write image captured by [`MemRegion::snapshot_history`]; the
    /// torn-DMA fault splices concurrent READs from it. `None` unless a
    /// writer explicitly snapshots (healthy runs never allocate it).
    history: RefCell<Option<Vec<u8>>>,
    /// The plan made from this region's bytes (a server's ring sweep's
    /// walk ahead), told of every change to them.
    planner: RefCell<Option<Weak<dyn Replan>>>,
}

/// One pending [`WriteWait`]: registered by its first poll, gone once
/// an overlapping write woke it or the wait was dropped.
struct Watcher {
    id: u64,
    range: Range<usize>,
    waker: Waker,
}

impl MemRegion {
    pub(crate) fn new(id: MrId, owner: MachineId, len: usize) -> Rc<Self> {
        Rc::new(MemRegion {
            id,
            owner,
            bytes: RefCell::new(vec![0; len]),
            watchers: RefCell::new(Vec::new()),
            next_watcher: Cell::new(0),
            write_epoch: RefCell::new(0),
            history: RefCell::new(None),
            planner: RefCell::new(None),
        })
    }

    /// This region's id (the rkey a client would present).
    pub fn id(&self) -> MrId {
        self.id
    }

    /// The machine whose NIC serves remote access to this region.
    pub fn owner(&self) -> MachineId {
        self.owner
    }

    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.borrow().len()
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `src` into the region at `offset` (local CPU store).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the registered length.
    pub fn write_local(&self, offset: usize, src: &[u8]) {
        let mut b = self.bytes.borrow_mut();
        let end = offset
            .checked_add(src.len())
            .filter(|&e| e <= b.len())
            .unwrap_or_else(|| panic!("write past end of MR {:?}", self.id));
        b[offset..end].copy_from_slice(src);
        drop(b);
        self.changed();
    }

    /// Names the plan made from this region's bytes: every later change
    /// to them — a local or remote write, a wipe — has it re-plan
    /// ([`Replan::replan`]).
    pub fn set_planner(&self, planner: Weak<dyn Replan>) {
        *self.planner.borrow_mut() = Some(planner);
    }

    fn changed(&self) {
        let planner = self.planner.borrow().as_ref().and_then(Weak::upgrade);
        if let Some(planner) = planner {
            planner.replan();
        }
    }

    /// Copies `len` bytes starting at `offset` out of the region (local
    /// CPU load) into a freshly allocated `Vec` — for callers that keep
    /// the bytes. A polling path that only inspects them (header decode,
    /// flag byte, canary check) should borrow through
    /// [`with_bytes`](MemRegion::with_bytes) or copy into its own buffer
    /// with [`read_local_into`](MemRegion::read_local_into), neither of
    /// which allocates.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the registered length.
    pub fn read_local(&self, offset: usize, len: usize) -> Vec<u8> {
        let b = self.bytes.borrow();
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= b.len())
            .unwrap_or_else(|| panic!("read past end of MR {:?}", self.id));
        b[offset..end].to_vec()
    }

    /// Reads into a caller-provided buffer without allocating.
    pub fn read_local_into(&self, offset: usize, dst: &mut [u8]) {
        let b = self.bytes.borrow();
        let end = offset
            .checked_add(dst.len())
            .filter(|&e| e <= b.len())
            .unwrap_or_else(|| panic!("read past end of MR {:?}", self.id));
        dst.copy_from_slice(&b[offset..end]);
    }

    /// Borrow the raw bytes for in-place inspection (local access only).
    pub fn with_bytes<T>(&self, f: impl FnOnce(&[u8]) -> T) -> T {
        f(&self.bytes.borrow())
    }

    /// Zero-fills the region (cold-restart wipe). Not a remote write:
    /// the write epoch does not advance and watchers are not woken; the
    /// plan made from it re-plans.
    pub(crate) fn zero(&self) {
        self.bytes.borrow_mut().fill(0);
        *self.history.borrow_mut() = None;
        self.changed();
    }

    /// Records the region's current contents as its pre-write image.
    ///
    /// A writer about to overwrite the region calls this so the torn-DMA
    /// fault can splice a concurrent READ from the bytes the write is
    /// replacing. Fault-injection support: overwrites any prior
    /// snapshot, and costs nothing unless called.
    pub fn snapshot_history(&self) {
        let current = self.bytes.borrow().clone();
        *self.history.borrow_mut() = Some(current);
    }

    /// Borrow the pre-write image captured by
    /// [`snapshot_history`](MemRegion::snapshot_history), if any.
    pub fn with_history<T>(&self, f: impl FnOnce(Option<&[u8]>) -> T) -> T {
        f(self.history.borrow().as_deref())
    }

    /// Applies a *remote* write (called by the NIC at the instant the
    /// in-bound engine finishes the op) and wakes overlapping watchers.
    pub(crate) fn apply_remote_write(&self, offset: usize, src: &[u8]) {
        self.write_local(offset, src);
        *self.write_epoch.borrow_mut() += 1;
        let range = offset..offset + src.len();
        let mut watchers = self.watchers.borrow_mut();
        let mut i = 0;
        while i < watchers.len() {
            if ranges_overlap(&watchers[i].range, &range) {
                let w = watchers.swap_remove(i);
                w.waker.wake();
            } else {
                i += 1;
            }
        }
    }

    /// Current remote-write epoch (increments once per remote WRITE).
    fn write_epoch(&self) -> u64 {
        *self.write_epoch.borrow()
    }

    /// Completes the next time a remote WRITE touches `range`.
    ///
    /// The wait observes only writes that land **after** the call, so
    /// callers should check memory contents first and only wait if the
    /// expected data has not yet arrived (see
    /// [`ThreadCtx::idle_wait`](crate::ThreadCtx) users).
    pub fn wait_remote_write(self: &Rc<Self>, range: Range<usize>) -> WriteWait {
        WriteWait {
            mr: Rc::clone(self),
            range,
            epoch_at_start: self.write_epoch(),
            watcher: None,
        }
    }
}

fn ranges_overlap(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Future returned by [`MemRegion::wait_remote_write`].
pub struct WriteWait {
    mr: Rc<MemRegion>,
    range: Range<usize>,
    epoch_at_start: u64,
    /// Id of this wait's entry in `mr.watchers`, once registered.
    watcher: Option<u64>,
}

impl Future for WriteWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        // Any write since the wait began may have been ours; conservative
        // wake-up on epoch advance keeps the future race-free (a write
        // landing between creation and first poll is not missed).
        if this.mr.write_epoch() != this.epoch_at_start {
            return Poll::Ready(());
        }
        // One watcher per wait: a re-poll (a timeout's deadline firing,
        // a combinator's other branch) refreshes it in place.
        let mut watchers = this.mr.watchers.borrow_mut();
        let registered = this.watcher;
        match registered.and_then(|id| watchers.iter_mut().find(|w| w.id == id)) {
            Some(w) => w.waker.clone_from(cx.waker()),
            None => {
                let id = this.mr.next_watcher.get();
                this.mr.next_watcher.set(id + 1);
                watchers.push(Watcher {
                    id,
                    range: this.range.clone(),
                    waker: cx.waker().clone(),
                });
                this.watcher = Some(id);
            }
        }
        Poll::Pending
    }
}

impl Drop for WriteWait {
    fn drop(&mut self) {
        // An abandoned wait (timed out, cancelled) takes its watcher
        // along. A list borrowed right now (dropped from inside a wake)
        // keeps the entry, which then costs one spurious wake.
        if let (Some(id), Ok(mut watchers)) = (self.watcher, self.mr.watchers.try_borrow_mut()) {
            watchers.retain(|w| w.id != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> Rc<MemRegion> {
        MemRegion::new(MrId(1), MachineId(0), len)
    }

    #[test]
    fn local_read_write_round_trip() {
        let mr = region(16);
        mr.write_local(4, &[1, 2, 3]);
        assert_eq!(mr.read_local(4, 3), vec![1, 2, 3]);
        assert_eq!(mr.read_local(0, 4), vec![0, 0, 0, 0]);
        let mut buf = [0u8; 2];
        mr.read_local_into(5, &mut buf);
        assert_eq!(buf, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "write past end")]
    fn write_out_of_bounds_panics() {
        region(8).write_local(7, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn read_out_of_bounds_panics() {
        let _ = region(8).read_local(8, 1);
    }

    #[test]
    fn overlap_detection() {
        assert!(ranges_overlap(&(0..4), &(3..5)));
        assert!(!ranges_overlap(&(0..4), &(4..5)));
        assert!(ranges_overlap(&(2..3), &(0..10)));
    }

    #[test]
    fn history_snapshot_holds_pre_write_image() {
        let mr = region(8);
        mr.with_history(|h| assert!(h.is_none()));
        mr.write_local(0, &[1, 2, 3]);
        mr.snapshot_history();
        mr.write_local(0, &[9, 9, 9]);
        mr.with_history(|h| assert_eq!(h.unwrap()[..3], [1, 2, 3]));
        // A cold wipe discards the image along with the contents.
        mr.zero();
        mr.with_history(|h| assert!(h.is_none()));
    }

    #[test]
    fn remote_write_bumps_epoch() {
        let mr = region(8);
        assert_eq!(mr.write_epoch(), 0);
        mr.apply_remote_write(0, &[9]);
        assert_eq!(mr.write_epoch(), 1);
        assert_eq!(mr.read_local(0, 1), vec![9]);
        // Local writes do not bump the remote epoch.
        mr.write_local(0, &[1]);
        assert_eq!(mr.write_epoch(), 1);
    }

    #[test]
    fn write_wait_wakes_on_overlapping_write() {
        use rfp_simnet::{SimSpan, Simulation};
        use std::cell::Cell;

        let mut sim = Simulation::new(0);
        let mr = region(64);
        let woke_at = Rc::new(Cell::new(0u64));

        let mr2 = Rc::clone(&mr);
        let woke = Rc::clone(&woke_at);
        let h = sim.handle();
        sim.spawn(async move {
            mr2.wait_remote_write(0..16).await;
            woke.set(h.now().as_nanos());
        });

        let mr3 = Rc::clone(&mr);
        let h2 = sim.handle();
        sim.spawn(async move {
            h2.sleep(SimSpan::nanos(100)).await;
            // Non-overlapping write: must not wake the waiter.
            mr3.apply_remote_write(32, &[1]);
            h2.sleep(SimSpan::nanos(100)).await;
            mr3.apply_remote_write(8, &[2]);
        });

        sim.run();
        assert_eq!(woke_at.get(), 200);
    }

    #[test]
    fn abandoned_waits_leave_no_watcher_and_a_write_wakes_once() {
        use rfp_simnet::{timeout, SimSpan, Simulation};

        let mut sim = Simulation::new(0);
        let mr = region(64);
        let (m, h) = (Rc::clone(&mr), sim.handle());
        sim.spawn(async move {
            // The reply-mode wait against a silent server: every round
            // times out, and the deadline's wake re-polls the wait.
            for _ in 0..10 {
                let wait = m.wait_remote_write(0..16);
                assert!(timeout(&h, SimSpan::micros(50), wait).await.is_none());
            }
            assert_eq!(m.watchers.borrow().len(), 0, "stale watchers");
            m.wait_remote_write(0..16).await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 500_000);
        assert_eq!(mr.watchers.borrow().len(), 1, "the live wait's");
        let polls = sim.stats().polls;
        mr.apply_remote_write(8, &[1]);
        sim.run();
        assert_eq!(sim.stats().polls - polls, 1, "one write, one wake");
        assert_eq!(sim.live_tasks(), 0);
        assert!(mr.watchers.borrow().is_empty());
    }

    #[test]
    fn write_wait_created_before_poll_sees_early_write() {
        use rfp_simnet::Simulation;

        let mut sim = Simulation::new(0);
        let mr = region(8);
        // Create the wait, apply the write, then await: must not hang.
        let wait = mr.wait_remote_write(0..8);
        mr.apply_remote_write(0, &[1]);
        let done = Rc::new(std::cell::Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            wait.await;
            d.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
