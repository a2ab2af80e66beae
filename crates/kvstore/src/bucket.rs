//! Jakiro's in-memory key-value structure (§4.1).
//!
//! "The in-memory structure contains a number of buckets, each of which
//! contains eight slots … When a bucket is full, we use a strict LRU
//! policy for slot eviction in this bucket. The whole structure is
//! partitioned across different server threads in Exclusive Read
//! Exclusive Write (EREW); each server thread only accesses its own
//! data partition."
//!
//! One [`Partition`] is owned exclusively by one server thread — no
//! locks anywhere, which is what lets Jakiro saturate the NIC with just
//! a couple of cores. The paper's slots are 8-byte pointers into a
//! separate pair store (a bucket fills one cacheline); this port inlines
//! the pairs into the slots, which changes constants but no behaviour
//! the experiments measure.

use crate::hash::hash_bytes;

/// Slots per bucket (a cacheline of 8-byte slots in the paper).
const SLOTS_PER_BUCKET: usize = 8;

const BUCKET_SEED: u64 = 0x6A61_6B69_726F;

/// Result of a [`Partition::put`].
#[derive(Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// A new pair occupied a free slot.
    Inserted,
    /// The key existed; its value was replaced.
    Updated,
    /// The bucket was full; the least-recently-used pair was evicted
    /// and the new pair took its slot.
    Evicted,
}

struct Slot {
    hash: u64,
    key: Box<[u8]>,
    value: Box<[u8]>,
    last_used: u64,
}

struct Bucket {
    slots: Vec<Slot>,
}

/// One EREW partition of the bucketed hash table.
///
/// # Examples
///
/// ```
/// use rfp_kvstore::{Partition, PutOutcome};
///
/// let mut part = Partition::new(16);
/// assert_eq!(part.put(b"key", b"value"), PutOutcome::Inserted);
/// assert_eq!(part.get(b"key"), Some(&b"value"[..]));
/// assert_eq!(part.put(b"key", b"newer"), PutOutcome::Updated);
/// ```
pub struct Partition {
    buckets: Vec<Bucket>,
    clock: u64,
    entries: usize,
    evictions: u64,
}

impl Partition {
    /// Creates a partition with `buckets` buckets (capacity
    /// `buckets × 8` pairs).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "partition needs at least one bucket");
        Partition {
            buckets: (0..buckets)
                .map(|_| Bucket {
                    slots: Vec::with_capacity(SLOTS_PER_BUCKET),
                })
                .collect(),
            clock: 0,
            entries: 0,
            evictions: 0,
        }
    }

    fn bucket_of(&self, hash: u64) -> usize {
        (hash % self.buckets.len() as u64) as usize
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the partition stores nothing.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// LRU evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let hash = hash_bytes(BUCKET_SEED, key);
        let b = self.bucket_of(hash);
        let stamp = self.tick();
        let bucket = &mut self.buckets[b];
        let slot = bucket
            .slots
            .iter_mut()
            .find(|s| s.hash == hash && *s.key == *key)?;
        slot.last_used = stamp;
        Some(&slot.value)
    }

    /// Inserts or updates `key`, evicting the bucket's LRU pair when
    /// full (the paper's strict intra-bucket LRU). An update, or an
    /// insert over an evicted pair, writes in place wherever the old
    /// bytes have the new length: only a length change boxes a copy.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> PutOutcome {
        let hash = hash_bytes(BUCKET_SEED, key);
        let b = self.bucket_of(hash);
        let stamp = self.tick();
        let bucket = &mut self.buckets[b];

        if let Some(slot) = bucket
            .slots
            .iter_mut()
            .find(|s| s.hash == hash && *s.key == *key)
        {
            overwrite(&mut slot.value, value);
            slot.last_used = stamp;
            return PutOutcome::Updated;
        }

        if bucket.slots.len() < SLOTS_PER_BUCKET {
            bucket.slots.push(Slot {
                hash,
                key: key.into(),
                value: value.into(),
                last_used: stamp,
            });
            self.entries += 1;
            return PutOutcome::Inserted;
        }

        let victim = bucket
            .slots
            .iter_mut()
            .min_by_key(|s| s.last_used)
            .expect("bucket is full, hence non-empty");
        victim.hash = hash;
        overwrite(&mut victim.key, key);
        overwrite(&mut victim.value, value);
        victim.last_used = stamp;
        self.evictions += 1;
        PutOutcome::Evicted
    }
}

/// Writes `src` over `dst`: in place when the lengths match, else into
/// a fresh box of exactly `src`'s length (no spare capacity is kept for
/// other lengths).
fn overwrite(dst: &mut Box<[u8]>, src: &[u8]) {
    if dst.len() == src.len() {
        dst.copy_from_slice(src);
    } else {
        *dst = src.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trip() {
        let mut p = Partition::new(16);
        assert_eq!(p.put(b"k1", b"v1"), PutOutcome::Inserted);
        assert_eq!(p.get(b"k1"), Some(&b"v1"[..]));
        assert_eq!(p.get(b"nope"), None);
        assert_eq!(p.put(b"k1", b"v2"), PutOutcome::Updated);
        assert_eq!(p.get(b"k1"), Some(&b"v2"[..]));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn full_bucket_evicts_strict_lru() {
        // One bucket: the 9th insert evicts exactly the LRU key.
        let mut p = Partition::new(1);
        for i in 0..8u8 {
            assert_eq!(p.put(&[i], b"v"), PutOutcome::Inserted);
        }
        // Touch everything except key [3]; it becomes the LRU.
        for i in 0..8u8 {
            if i != 3 {
                assert!(p.get(&[i]).is_some());
            }
        }
        assert_eq!(p.put(b"new", b"v"), PutOutcome::Evicted);
        assert_eq!(p.get(&[3u8][..]), None);
        assert!(p.get(b"new").is_some());
        assert_eq!(p.len(), 8);
        assert_eq!(p.evictions(), 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut p = Partition::new(1);
        for i in 0..8u8 {
            p.put(&[i], b"v");
        }
        // Key [0] was inserted first but a GET saves it.
        assert!(p.get(&[0u8][..]).is_some());
        assert_eq!(p.put(b"x", b"v"), PutOutcome::Evicted);
        assert_eq!(p.get(&[1u8][..]), None);
        assert!(p.get(&[0u8][..]).is_some());
    }

    /// An update of the same length overwrites the stored value where
    /// it lies; a length change replaces it.
    #[test]
    fn an_equal_length_update_keeps_the_value_in_place() {
        let mut p = Partition::new(16);
        p.put(b"key", b"first");
        let at = p.get(b"key").expect("stored").as_ptr();
        assert_eq!(p.put(b"key", b"newer"), PutOutcome::Updated);
        let value = p.get(b"key").expect("stored");
        assert_eq!((value, value.as_ptr()), (&b"newer"[..], at));
        p.put(b"key", b"longer value");
        assert_eq!(p.get(b"key"), Some(&b"longer value"[..]));
    }

    /// An insert into a full bucket takes over the LRU pair's boxes
    /// where the lengths match.
    #[test]
    fn an_evicting_insert_reuses_the_victims_boxes() {
        let mut p = Partition::new(1);
        for i in 0..8u8 {
            p.put(&[i, 0], &[i; 4]);
        }
        let boxes = |p: &Partition, key: &[u8]| {
            let slots = &p.buckets[0].slots;
            let s = slots.iter().find(|s| *s.key == *key).expect("stored");
            (s.key.as_ptr(), s.value.as_ptr())
        };
        let victim = boxes(&p, &[0, 0]);
        assert_eq!(p.put(&[9, 0], &[9; 4]), PutOutcome::Evicted);
        assert_eq!(boxes(&p, &[9, 0]), victim);
        assert_eq!(p.get(&[9, 0]), Some(&[9u8; 4][..]));
        assert_eq!(p.get(&[0, 0]), None);
    }

    #[test]
    fn many_keys_distribute_across_buckets() {
        let mut p = Partition::new(64);
        for i in 0..300u32 {
            p.put(&i.to_le_bytes(), b"val");
        }
        // 64 buckets × 8 slots = 512 capacity: everything fits unless
        // hashing is badly skewed; allow a few collisions' evictions.
        assert!(
            p.len() >= 290,
            "len {} evictions {}",
            p.len(),
            p.evictions()
        );
        let mut hits = 0;
        for i in 0..300u32 {
            if p.get(&i.to_le_bytes()).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits as usize, p.len());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = Partition::new(0);
    }
}
