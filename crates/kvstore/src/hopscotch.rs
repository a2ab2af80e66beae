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
//! inlines `[klen][vlen][key][value][crc]`, and a GET is a single READ
//! of the whole `H`-cell neighborhood — one op, `H × cell` bytes. The
//! trade against Jakiro is then measurable: fewer server in-bound *ops*
//! per GET than Pilaf (1 vs ~2.6), far more *bytes* than RFP, and PUTs
//! still need the server (as in FaRM).
//!
//! The table is laid out in a registered memory region with `H − 1`
//! trailing spill cells so neighborhoods never wrap.

use std::cell::RefCell;
use std::rc::Rc;

use rfp_paradigms::BypassClient;
use rfp_rnic::{Machine, MemRegion, ThreadCtx};
use rfp_simnet::SimSpan;

use crate::cuckoo::BypassGet;
use crate::hash::hash_bytes;
use crate::rig::BypassStore;
use rfp_simnet::crc64;

/// Neighborhood size (FaRM's `H`; the paper's `N > 6` fetch factor).
pub const NEIGHBORHOOD: usize = 8;

const SEED: u64 = 0x0066_6172_6D68_6F70;
/// Cell header: `[klen:u16][vlen:u32]`; crc trails the payload.
const CELL_HDR: usize = 6;

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

    /// Byte range of the key's whole neighborhood (single READ).
    fn neighborhood_range(&self, key: &[u8]) -> (usize, usize) {
        let home = self.home_of(key);
        (home * self.cell_size, NEIGHBORHOOD * self.cell_size)
    }
}

/// Server-side owner of the store.
pub struct FarmStore {
    view: FarmView,
    /// Server-side occupancy map (`Some(home)` per occupied cell).
    homes: RefCell<Vec<Option<usize>>>,
    entries: RefCell<usize>,
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
        assert!(cell_size > CELL_HDR + 8, "cell too small");
        let cells = buckets + NEIGHBORHOOD - 1;
        let table = machine.alloc_mr(cells * cell_size);
        // Checksummed-empty cells so clients always validate reads.
        let empty = Self::encode_cell(cell_size, b"", b"");
        for c in 0..cells {
            table.write_local(c * cell_size, &empty);
        }
        FarmStore {
            view: FarmView {
                table,
                buckets,
                cell_size,
            },
            homes: RefCell::new(vec![None; cells]),
            entries: RefCell::new(0),
            update_gap: SimSpan::nanos(400),
        }
    }

    /// The client-visible geometry.
    pub fn view(&self) -> FarmView {
        self.view.clone()
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        *self.entries.borrow()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode_cell(cell_size: usize, key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(cell_size);
        bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
        bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        let crc = crc64(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.resize(cell_size, 0);
        bytes
    }

    /// Decodes a cell; `None` on checksum failure, `Some(None)` when the
    /// cell is validly empty.
    #[allow(clippy::type_complexity)]
    fn decode_cell(bytes: &[u8]) -> Option<Option<(Vec<u8>, Vec<u8>)>> {
        if bytes.len() < CELL_HDR + 8 {
            return None;
        }
        let klen = u16::from_le_bytes(bytes[0..2].try_into().ok()?) as usize;
        let vlen = u32::from_le_bytes(bytes[2..6].try_into().ok()?) as usize;
        let body_end = CELL_HDR + klen + vlen;
        if body_end + 8 > bytes.len() {
            return None;
        }
        let crc = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().ok()?);
        if crc64(&bytes[..body_end]) != crc {
            return None;
        }
        if klen == 0 {
            return Some(None);
        }
        Some(Some((
            bytes[CELL_HDR..CELL_HDR + klen].to_vec(),
            bytes[CELL_HDR + klen..body_end].to_vec(),
        )))
    }

    fn cell_off(&self, cell: usize) -> usize {
        cell * self.view.cell_size
    }

    fn read_cell_key(&self, cell: usize) -> Option<Vec<u8>> {
        let bytes = self
            .view
            .table
            .read_local(self.cell_off(cell), self.view.cell_size);
        Self::decode_cell(&bytes)
            .expect("server-local cells are never torn")
            .map(|(k, _)| k)
    }

    fn find_cell(&self, key: &[u8]) -> Option<usize> {
        let home = self.view.home_of(key);
        let homes = self.homes.borrow();
        (home..home + NEIGHBORHOOD)
            .find(|&c| homes[c] == Some(home) && self.read_cell_key(c).as_deref() == Some(key))
    }

    /// Server-local lookup.
    pub fn lookup_local(&self, key: &[u8]) -> Option<Vec<u8>> {
        let cell = self.find_cell(key)?;
        let bytes = self
            .view
            .table
            .read_local(self.cell_off(cell), self.view.cell_size);
        Self::decode_cell(&bytes)
            .expect("server-local cells are never torn")
            .map(|(_, v)| v)
    }

    fn write_cell(&self, cell: usize, key: &[u8], value: &[u8]) {
        let bytes = Self::encode_cell(self.view.cell_size, key, value);
        self.view.table.write_local(self.cell_off(cell), &bytes);
    }

    /// Atomic insert-or-update for preloading (no torn window).
    pub fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), HopscotchError> {
        if CELL_HDR + key.len() + value.len() + 8 > self.view.cell_size {
            return Err(HopscotchError::EntryTooLarge);
        }
        if let Some(cell) = self.find_cell(key) {
            self.write_cell(cell, key, value);
            return Ok(());
        }
        let cell = self.make_room(self.view.home_of(key))?;
        self.write_cell(cell, key, value);
        self.homes.borrow_mut()[cell] = Some(self.view.home_of(key));
        *self.entries.borrow_mut() += 1;
        Ok(())
    }

    /// In-place update with a torn window (server PUT path); inserts
    /// when absent.
    pub async fn put(
        &self,
        thread: &ThreadCtx,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), HopscotchError> {
        if CELL_HDR + key.len() + value.len() + 8 > self.view.cell_size {
            return Err(HopscotchError::EntryTooLarge);
        }
        if let Some(cell) = self.find_cell(key) {
            let bytes = Self::encode_cell(self.view.cell_size, key, value);
            let off = self.cell_off(cell);
            let half = bytes.len() / 2;
            self.view.table.write_local(off, &bytes[..half]);
            thread.busy(self.update_gap).await;
            self.view.table.write_local(off + half, &bytes[half..]);
            return Ok(());
        }
        self.insert_local(key, value)
    }

    /// Finds (or hops free) a cell inside `home`'s neighborhood —
    /// the classic hopscotch displacement.
    fn make_room(&self, home: usize) -> Result<usize, HopscotchError> {
        let cells = self.homes.borrow().len();
        // Nearest free cell at or after home.
        let mut free = {
            let homes = self.homes.borrow();
            (home..cells).find(|&c| homes[c].is_none())
        }
        .ok_or(HopscotchError::Full)?;

        while free >= home + NEIGHBORHOOD {
            // Hop: find an entry in (free-H, free) that may move to
            // `free` (its own neighborhood covers `free`).
            let candidate = {
                let homes = self.homes.borrow();
                (free.saturating_sub(NEIGHBORHOOD - 1)..free)
                    .find(|&j| homes[j].is_some_and(|h| h + NEIGHBORHOOD > free))
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
            let mut homes = self.homes.borrow_mut();
            homes[free] = homes[j].take();
            drop(homes);
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
        FarmStore::view(self)
    }
    fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), HopscotchError> {
        FarmStore::insert_local(self, key, value)
    }
    async fn put(
        &self,
        thread: &ThreadCtx,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), HopscotchError> {
        FarmStore::put(self, thread, key, value).await
    }
    async fn get(
        client: &BypassClient,
        thread: &ThreadCtx,
        view: &FarmView,
        key: &[u8],
    ) -> BypassGet {
        let got = farm_get(client, thread, view, key).await;
        BypassGet {
            value: got.value,
            ops: got.ops,
            crc_retries: got.crc_retries,
        }
    }
}

/// Outcome of a client-side FaRM GET.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FarmGet {
    /// The value, if present.
    value: Option<Vec<u8>>,
    /// One-sided ops used (1 unless a torn cell forced a reread).
    ops: u32,
    /// Bytes fetched (`H × cell` per read — the §5 bandwidth cost).
    bytes: u64,
    /// Checksum retries.
    crc_retries: u32,
}

/// Performs one FaRM-style GET: a single READ of the key's whole
/// neighborhood, rereading on checksum failure.
async fn farm_get(
    client: &BypassClient,
    thread: &ThreadCtx,
    view: &FarmView,
    key: &[u8],
) -> FarmGet {
    const MAX_CRC_RETRIES: u32 = 64;
    let (off, len) = view.neighborhood_range(key);
    let mut ops = 0u32;
    let mut bytes = 0u64;
    let mut crc_retries = 0u32;
    'reread: loop {
        ops += 1;
        bytes += len as u64;
        let blob = client.fetch(thread, &view.table, off, len).await;
        for c in 0..NEIGHBORHOOD {
            let cell = &blob[c * view.cell_size..(c + 1) * view.cell_size];
            match FarmStore::decode_cell(cell) {
                Some(Some((k, v))) if k == key => {
                    return FarmGet {
                        value: Some(v),
                        ops,
                        bytes,
                        crc_retries,
                    };
                }
                Some(_) => {}
                None => {
                    // Torn cell (racing PUT): refetch the neighborhood.
                    crc_retries += 1;
                    if crc_retries >= MAX_CRC_RETRIES {
                        return FarmGet {
                            value: None,
                            ops,
                            bytes,
                            crc_retries,
                        };
                    }
                    continue 'reread;
                }
            }
        }
        return FarmGet {
            value: None,
            ops,
            bytes,
            crc_retries,
        };
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
        let homes = s.homes.borrow();
        for (cell, home) in homes.iter().enumerate() {
            if let Some(h) = home {
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
        sim.spawn(async move {
            let got = farm_get(&client, &t, &view, b"remote").await;
            assert_eq!(got.value.as_deref(), Some(&b"readable"[..]));
            assert_eq!(got.ops, 1, "FaRM GET is one neighborhood read");
            assert_eq!(got.bytes, (NEIGHBORHOOD * 96) as u64);
            let miss = farm_get(&client, &t, &view, b"absent").await;
            assert_eq!(miss.value, None);
            assert_eq!(miss.ops, 1);
            d.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
