//! A FaRM-style store: hopscotch hashing with inline, self-verifying
//! cells, read by clients in **one** large one-sided READ.
//!
//! The paper's §5 discussion of FaRM: "FaRM uses Hopscotch hashing that
//! leads to something like batching the requests. With FaRM, a client
//! needs to fetch `N·(Sk+Sv)` data to get a single key-value pair, where
//! `N` is usually larger than 6 … a lot of the bandwidth and MOPS will
//! be wasted if only a few data in the `N` fetched key-value pairs are
//! used."
//!
//! This module reproduces that design point: every key lives within `H`
//! cells of its home bucket (the hopscotch *neighborhood*), each cell
//! inlines one self-verifying entry (DESIGN.md "Bypass cell"), and a
//! GET is a single READ of the whole `H`-cell neighborhood — one op,
//! `H × cell` bytes. The trade against Jakiro is then measurable: fewer
//! server in-bound *ops* per GET than Pilaf (1 vs ~2.6), far more
//! *bytes* than RFP, and PUTs still need the server (as in FaRM).
//!
//! The table is laid out in a registered memory region with `H − 1`
//! trailing spill cells so neighborhoods never wrap.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_paradigms::BypassClient;
use rfp_rnic::{Machine, MemRegion, ThreadCtx};
use rfp_simnet::SimSpan;

use crate::cell::{self, BypassGet};
use crate::hash::hash_bytes;
use crate::rig::BypassStore;

/// Neighborhood size (FaRM's `H`; the paper's `N > 6` fetch factor).
pub const NEIGHBORHOOD: usize = 8;

const SEED: u64 = 0x0066_6172_6D68_6F70;

/// Errors from server-side mutations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HopscotchError {
    /// No free cell could be hopped into the key's neighborhood.
    Full,
    /// Key + value exceed the cell size.
    EntryTooLarge,
}

impl std::fmt::Display for HopscotchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HopscotchError::Full => write!(f, "hopscotch neighborhood full"),
            HopscotchError::EntryTooLarge => write!(f, "entry exceeds cell size"),
        }
    }
}

impl std::error::Error for HopscotchError {}

/// Client-visible geometry.
#[derive(Clone)]
pub struct FarmView {
    /// The inline cell table.
    pub table: Rc<MemRegion>,
    /// Home buckets (cells `0..buckets`; spill up to `buckets + H - 1`).
    pub buckets: usize,
    /// Bytes per cell.
    pub cell_size: usize,
}

impl FarmView {
    /// The key's home bucket.
    fn home_of(&self, key: &[u8]) -> usize {
        (hash_bytes(SEED, key) % self.buckets as u64) as usize
    }
}

/// An occupied cell as the server records it: `(home bucket, key)`.
type Resident = (usize, Box<[u8]>);

/// Server-side owner of the store.
pub struct FarmStore {
    view: FarmView,
    /// The server's own record of each cell. Lookups and displacement
    /// read it, never the table, whose cells another PUT thread may be
    /// tearing.
    cells: RefCell<Vec<Option<Resident>>>,
    entries: RefCell<usize>,
    /// In-place updates between their two halves. Displacement copies
    /// raw cells, so an insert waits until none is tearing.
    tearing: Cell<u32>,
    /// CPU gap splitting in-place updates (torn-read window, as in the
    /// Pilaf store).
    pub update_gap: SimSpan,
}

impl FarmStore {
    /// Allocates a table of `buckets` home buckets on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `cell_size` cannot hold the
    /// header and checksum.
    pub fn new(machine: &Rc<Machine>, buckets: usize, cell_size: usize) -> Self {
        assert!(buckets > 0, "empty table");
        assert!(cell_size > cell::len(0, 0), "cell too small");
        let cells = buckets + NEIGHBORHOOD - 1;
        let table = machine.alloc_mr(cells * cell_size);
        // Checksummed-empty cells so clients always validate reads.
        let empty = cell::encode(b"", b"", cell_size);
        for c in 0..cells {
            table.write_local(c * cell_size, &empty);
        }
        FarmStore {
            view: FarmView {
                table,
                buckets,
                cell_size,
            },
            cells: RefCell::new(vec![None; cells]),
            entries: RefCell::new(0),
            tearing: Cell::new(0),
            update_gap: SimSpan::nanos(400),
        }
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        *self.entries.borrow()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell_off(&self, cell: usize) -> usize {
        cell * self.view.cell_size
    }

    fn find_cell(&self, key: &[u8]) -> Option<usize> {
        let home = self.view.home_of(key);
        let cells = self.cells.borrow();
        (home..home + NEIGHBORHOOD)
            .find(|&c| matches!(&cells[c], Some((h, k)) if *h == home && **k == *key))
    }

    /// Server-local lookup (the store tests read through it).
    pub fn lookup_local(&self, key: &[u8]) -> Option<Vec<u8>> {
        let at = self.find_cell(key)?;
        let bytes = self
            .view
            .table
            .read_local(self.cell_off(at), self.view.cell_size);
        let (_, value) = cell::decode(&bytes).expect("read back with no PUT mid-write");
        Some(value.to_vec())
    }

    fn write_cell(&self, at: usize, key: &[u8], value: &[u8]) {
        let bytes = cell::encode(key, value, self.view.cell_size);
        self.view.table.write_local(self.cell_off(at), &bytes);
    }

    /// Finds (or hops free) a cell inside `home`'s neighborhood —
    /// the classic hopscotch displacement.
    fn make_room(&self, home: usize) -> Result<usize, HopscotchError> {
        // Nearest free cell at or after home.
        let mut free = {
            let cells = self.cells.borrow();
            (home..cells.len()).find(|&c| cells[c].is_none())
        }
        .ok_or(HopscotchError::Full)?;

        while free >= home + NEIGHBORHOOD {
            // Hop: find an entry in (free-H, free) that may move to
            // `free` (its own neighborhood covers `free`).
            let candidate = {
                let cells = self.cells.borrow();
                (free.saturating_sub(NEIGHBORHOOD - 1)..free).find(|&j| {
                    cells[j]
                        .as_ref()
                        .is_some_and(|(h, _)| h + NEIGHBORHOOD > free)
                })
            };
            let Some(j) = candidate else {
                return Err(HopscotchError::Full);
            };
            // Move entry j → free.
            let bytes = self
                .view
                .table
                .read_local(self.cell_off(j), self.view.cell_size);
            self.view.table.write_local(self.cell_off(free), &bytes);
            let mut cells = self.cells.borrow_mut();
            cells[free] = cells[j].take();
            drop(cells);
            self.write_cell(j, b"", b"");
            free = j;
        }
        Ok(free)
    }
}

impl BypassStore for FarmStore {
    type View = FarmView;
    type Error = HopscotchError;

    fn view(&self) -> FarmView {
        self.view.clone()
    }

    fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), HopscotchError> {
        if cell::len(key.len(), value.len()) > self.view.cell_size {
            return Err(HopscotchError::EntryTooLarge);
        }
        if let Some(at) = self.find_cell(key) {
            self.write_cell(at, key, value);
            return Ok(());
        }
        let home = self.view.home_of(key);
        let at = self.make_room(home)?;
        self.write_cell(at, key, value);
        self.cells.borrow_mut()[at] = Some((home, key.into()));
        *self.entries.borrow_mut() += 1;
        Ok(())
    }

    /// Rewrites the whole padded cell torn at its midpoint; inserts
    /// (atomically) when absent, once no other PUT thread is tearing a
    /// cell the insert's displacement could move.
    async fn put(
        &self,
        thread: &ThreadCtx,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), HopscotchError> {
        if cell::len(key.len(), value.len()) > self.view.cell_size {
            return Err(HopscotchError::EntryTooLarge);
        }
        if let Some(at) = self.find_cell(key) {
            let bytes = cell::encode(key, value, self.view.cell_size);
            let off = self.cell_off(at);
            self.tearing.set(self.tearing.get() + 1);
            cell::write_torn(thread, self.update_gap, &self.view.table, off, &bytes).await;
            self.tearing.set(self.tearing.get() - 1);
            return Ok(());
        }
        while self.tearing.get() > 0 {
            thread.busy(self.update_gap).await;
        }
        self.insert_local(key, value)
    }

    /// One READ of the key's whole neighborhood (`H × cell` bytes, the
    /// §5 bandwidth cost), reread whole while any cell before the key's
    /// is torn.
    async fn get(
        client: &BypassClient,
        thread: &ThreadCtx,
        view: &FarmView,
        key: &[u8],
    ) -> BypassGet {
        let off = view.home_of(key) * view.cell_size;
        let len = NEIGHBORHOOD * view.cell_size;
        let mut got = BypassGet::default();
        let found = got
            .read_verified(client, thread, &view.table, off, len, |blob| {
                for bytes in blob.chunks_exact(view.cell_size) {
                    let (k, v) = cell::decode(bytes)?;
                    if k == key {
                        return Some(Some(v.to_vec()));
                    }
                }
                Some(None)
            })
            .await;
        got.value = found.flatten();
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::Simulation;

    fn store() -> (Simulation, FarmStore) {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let store = FarmStore::new(&cluster.machine(0), 64, 96);
        (sim, store)
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let (_sim, s) = store();
        s.insert_local(b"alpha", b"one").expect("room");
        s.insert_local(b"beta", b"two").expect("room");
        assert_eq!(s.lookup_local(b"alpha"), Some(b"one".to_vec()));
        assert_eq!(s.lookup_local(b"beta"), Some(b"two".to_vec()));
        assert_eq!(s.lookup_local(b"gamma"), None);
        s.insert_local(b"alpha", b"uno").expect("update");
        assert_eq!(s.lookup_local(b"alpha"), Some(b"uno".to_vec()));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn displacement_keeps_entries_findable() {
        let (_sim, s) = store();
        // Fill to a load where hopping must happen.
        let mut stored = Vec::new();
        for i in 0..48u32 {
            let key = i.to_le_bytes();
            if s.insert_local(&key, &[i as u8; 24]).is_ok() {
                stored.push(key);
            }
        }
        assert!(stored.len() >= 40, "unexpectedly early fill failure");
        for key in &stored {
            let v = s.lookup_local(key).expect("hopped entries stay findable");
            assert_eq!(v[0], key[0]);
        }
    }

    #[test]
    fn entries_stay_in_their_neighborhood() {
        let (_sim, s) = store();
        for i in 0..40u32 {
            let _ = s.insert_local(&i.to_le_bytes(), b"v");
        }
        let cells = s.cells.borrow();
        for (cell, resident) in cells.iter().enumerate() {
            if let Some((h, _)) = resident {
                assert!(
                    cell >= *h && cell < *h + NEIGHBORHOOD,
                    "cell {cell} home {h}"
                );
            }
        }
    }

    #[test]
    fn oversized_entry_rejected() {
        let (_sim, s) = store();
        assert_eq!(
            s.insert_local(b"key", &[0u8; 96]),
            Err(HopscotchError::EntryTooLarge)
        );
    }

    #[test]
    fn an_insert_never_hops_a_cell_a_put_is_tearing() {
        let mut sim = Simulation::new(5);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let server = cluster.machine(0);
        let s = Rc::new(FarmStore::new(&server, 64, 96));
        // Seven keys fill home bucket `h`'s cells h..h+6 and `hopped`
        // (home h+1) takes h+7, so inserting `late` (home h) must hop
        // `hopped` to h+8. The 60 B values put each entry past the
        // midpoint of its 96 B cell, so a PUT really tears it.
        let home = |i: u32| s.view.home_of(&i.to_le_bytes());
        let h = home(0);
        let mut same = (1u32..).filter(|&i| home(i) == h);
        let fill: Vec<u32> = std::iter::once(0).chain(same.by_ref().take(6)).collect();
        let late = same.next().expect("a key homed at h").to_le_bytes();
        let hopped = (1u32..)
            .find(|&i| home(i) == h + 1)
            .expect("a key homed at h+1");
        let hopped = hopped.to_le_bytes();
        for i in &fill {
            s.insert_local(&i.to_le_bytes(), b"fill").expect("room");
        }
        s.insert_local(&hopped, &[1; 60]).expect("room");
        assert_eq!(s.find_cell(&hopped), Some(h + 7));

        for (i, key) in [hopped, late].into_iter().enumerate() {
            let (s, t, sleep) = (
                Rc::clone(&s),
                server.thread(format!("put{i}")),
                sim.handle(),
            );
            sim.spawn(async move {
                sleep.sleep(SimSpan::nanos(100 * i as u64)).await;
                s.put(&t, &key, &[i as u8 + 2; 60]).await.expect("room");
            });
        }
        sim.run();
        assert_eq!(s.find_cell(&hopped), Some(h + 8), "the insert hopped it");

        let view = s.view();
        let client = BypassClient::new(cluster.qp(1, 0), 4096);
        let t = cluster.machine(1).thread("c");
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = Rc::clone(&got);
        sim.spawn(async move {
            for key in [hopped, late] {
                let value = FarmStore::get(&client, &t, &view, &key).await.value;
                g.borrow_mut().push(value);
            }
        });
        sim.run();
        let want = [Some(vec![2; 60]), Some(vec![3; 60])];
        assert_eq!(*got.borrow(), want);
    }

    #[test]
    fn one_sided_get_finds_values_in_one_read() {
        let mut sim = Simulation::new(3);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let server = cluster.machine(0);
        let store = FarmStore::new(&server, 128, 96);
        store.insert_local(b"remote", b"readable").expect("room");
        let view = store.view();
        let client = BypassClient::new(cluster.qp(1, 0), 4096);
        let t = cluster.machine(1).thread("c");
        let done = Rc::new(std::cell::Cell::new(false));
        let d = Rc::clone(&done);
        // Every GET moves one whole neighborhood through the server NIC.
        let inbound = move || server.nic().counters().inbound_bytes;
        let neighborhood = (NEIGHBORHOOD * 96) as u64;
        sim.spawn(async move {
            let got = FarmStore::get(&client, &t, &view, b"remote").await;
            assert_eq!(got.value.as_deref(), Some(&b"readable"[..]));
            assert_eq!(got.ops, 1, "FaRM GET is one neighborhood read");
            assert_eq!(inbound(), neighborhood);
            let miss = FarmStore::get(&client, &t, &view, b"absent").await;
            assert_eq!(miss.value, None);
            assert_eq!(miss.ops, 1);
            assert_eq!(inbound(), 2 * neighborhood);
            d.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
