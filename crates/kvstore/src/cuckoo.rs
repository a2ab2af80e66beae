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
//! * **extent cells** — fixed-size cells, each holding one
//!   self-verifying entry (DESIGN.md "Bypass cell") with no padding.
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
use rfp_simnet::{crc64, SimSpan};

use crate::cell::{self, BypassGet};
use crate::hash::hash_bytes;
use crate::rig::BypassStore;

/// Bytes per slot in the table region.
const SLOT_SIZE: usize = 40;
const SLOT_CRC_COVER: usize = 30;
const SLOT_CRC_OFF: usize = 30;

/// Seeds of the three cuckoo hash functions.
const CUCKOO_SEEDS: [u64; 3] = [0xC0FF_EE01, 0xC0FF_EE02, 0xC0FF_EE03];

/// Give up displacement after this many kicks (the table is then
/// effectively full at this load factor).
const MAX_KICKS: usize = 256;

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
        assert!(cell_size > cell::len(0, 0), "cell too small");
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
        // `write_slot` lands a whole slot in one `write_local`, so the
        // server's PUT threads never see one half-written.
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

    fn write_cell(&self, at: u64, key: &[u8], value: &[u8]) {
        let bytes = cell::encode(key, value, cell::len(key.len(), value.len()));
        self.view.data.write_local(self.cell_off(at), &bytes);
    }

    /// Reads `range` of the slot's extent raw, located by the slot (the
    /// server's record) rather than by the extent's own header.
    fn read_extent(&self, slot: &Slot, range: std::ops::Range<usize>) -> Vec<u8> {
        let off = self.cell_off(slot.cell) + range.start;
        self.view.data.read_local(off, range.len())
    }

    /// Finds the bucket currently holding `key`, if any.
    fn find(&self, key: &[u8]) -> Option<(usize, Slot)> {
        let tag = self.view.key_tag(key);
        for b in self.view.candidate_buckets(key) {
            let slot = self.read_slot(b);
            if !slot.is_vacant()
                && slot.key_hash == tag
                && slot.klen as usize == key.len()
                && self.read_extent(&slot, cell::key_range(key.len())) == key
            {
                return Some((b, slot));
            }
        }
        None
    }

    /// Server-local lookup (the store tests read through it).
    pub fn lookup_local(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (_, slot) = self.find(key)?;
        let value = cell::value_range(slot.klen as usize, slot.vlen as usize);
        Some(self.read_extent(&slot, value))
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
            let rkey = self.read_extent(&homeless, cell::key_range(homeless.klen as usize));
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

/// What one extent READ of a GET saw.
enum Extent {
    /// A verified entry: the value, if the key is the GET's.
    Read(Option<Vec<u8>>),
    /// An entry of other lengths than the slot records.
    Resized,
}

impl BypassStore for PilafStore {
    type View = PilafView;
    type Error = CuckooError;

    fn view(&self) -> PilafView {
        self.view.clone()
    }

    fn insert_local(&self, key: &[u8], value: &[u8]) -> Result<(), CuckooError> {
        if cell::len(key.len(), value.len()) > self.view.cell_size {
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

    /// The server's PUT (Pilaf serves PUTs with an RPC): an in-place
    /// update rewrites the bare extent torn at its midpoint, then
    /// refreshes the slot (new vlen ⇒ new slot CRC).
    async fn put(&self, thread: &ThreadCtx, key: &[u8], value: &[u8]) -> Result<(), CuckooError> {
        if cell::len(key.len(), value.len()) > self.view.cell_size {
            return Err(CuckooError::EntryTooLarge);
        }
        if let Some((bucket, slot)) = self.find(key) {
            let bytes = cell::encode(key, value, cell::len(key.len(), value.len()));
            let off = self.cell_off(slot.cell);
            cell::write_torn(thread, self.update_gap, &self.view.data, off, &bytes).await;
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

    /// Probes the key's candidate buckets with one-sided READs, fetches
    /// the extent, and rereads any slot or extent whose checksum fails
    /// (Figure 8b's loop). An extent whose header names other lengths
    /// than its slot is a PUT the slot does not show yet: the slot is
    /// reread before the extent is.
    async fn get(
        client: &BypassClient,
        thread: &ThreadCtx,
        view: &PilafView,
        key: &[u8],
    ) -> BypassGet {
        let tag = view.key_tag(key);
        let mut got = BypassGet::default();
        for bucket in view.candidate_buckets(key) {
            let off = bucket * SLOT_SIZE;
            loop {
                let read =
                    got.read_verified(client, thread, &view.table, off, SLOT_SIZE, Slot::decode);
                let Some(slot) = read.await else {
                    return got;
                };
                if slot.is_vacant() || slot.key_hash != tag || slot.klen as usize != key.len() {
                    break;
                }
                // The extent as the slot sizes it, in one READ.
                let lengths = (key.len(), slot.vlen as usize);
                let len = cell::len(lengths.0, lengths.1);
                let off = slot.cell as usize * view.cell_size;
                let read = got.read_verified(client, thread, &view.data, off, len, |bytes| {
                    if cell::lengths(bytes) != Some(lengths) {
                        return Some(Extent::Resized);
                    }
                    let (k, v) = cell::decode(bytes)?;
                    Some(Extent::Read((k == key).then(|| v.to_vec())))
                });
                match read.await {
                    None => return got,
                    Some(Extent::Resized) => {
                        if !got.reject() {
                            return got;
                        }
                    }
                    // The key hash collided with another key.
                    Some(Extent::Read(None)) => break,
                    Some(Extent::Read(value)) => {
                        got.value = value;
                        return got;
                    }
                }
            }
        }
        got
    }
}
