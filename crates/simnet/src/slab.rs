//! A generation-stamped slab: stable `u64` tokens for recycled slots.
//!
//! An [`EventSink`](crate::EventSink) names the subject of an event by a
//! plain `u64`. When subjects come and go at the rate of RDMA operations
//! their storage must be recycled, and an event (or a handle) that
//! outlives its subject must not be mistaken for one addressed to the
//! slot's next occupant. Each slot therefore carries a generation that
//! advances on every removal; a [`SlabKey`] is `(slot, generation)` and
//! only resolves while both match.

/// Key of one [`Slab`] entry; stale once that entry is removed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SlabKey {
    slot: u32,
    generation: u32,
}

impl SlabKey {
    /// Packs the key into an event token.
    pub fn token(self) -> u64 {
        (self.generation as u64) << 32 | self.slot as u64
    }

    /// Inverse of [`SlabKey::token`].
    pub fn from_token(token: u64) -> Self {
        SlabKey {
            slot: token as u32,
            generation: (token >> 32) as u32,
        }
    }
}

/// Slots holding `T`, recycled most-recently-freed first.
pub struct Slab<T> {
    /// Each slot's current generation and occupant.
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` in a free slot (or a new one) and returns its key.
    pub fn insert(&mut self, value: T) -> SlabKey {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots")
        });
        let (generation, occupant) = &mut self.slots[slot as usize];
        *occupant = Some(value);
        SlabKey {
            slot,
            generation: *generation,
        }
    }

    /// The entry `key` was issued for, unless it has been removed.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.slot as usize) {
            Some((generation, occupant)) if *generation == key.generation => occupant.as_mut(),
            _ => None,
        }
    }

    /// Shared-reference form of [`Slab::get_mut`].
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.slots.get(key.slot as usize) {
            Some((generation, occupant)) if *generation == key.generation => occupant.as_ref(),
            _ => None,
        }
    }

    /// Removes and returns `key`'s entry, making the key (and every
    /// copy of it) stale and the slot reusable.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let (generation, occupant) = self.slots.get_mut(key.slot as usize)?;
        if *generation != key.generation {
            return None;
        }
        let value = occupant.take()?;
        *generation = generation.wrapping_add(1);
        self.free.push(key.slot);
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever created: the high-water mark of [`Slab::len`].
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_through_tokens() {
        let mut slab = Slab::default();
        let a = slab.insert('a');
        let b = slab.insert('b');
        assert_ne!(a.token(), b.token());
        assert_eq!(SlabKey::from_token(a.token()), a);
        assert_eq!(slab.get(SlabKey::from_token(b.token())), Some(&'b'));
    }

    #[test]
    fn removal_recycles_the_slot_and_stales_the_key() {
        let mut slab = Slab::default();
        let old = slab.insert(1);
        assert_eq!(slab.remove(old), Some(1));
        assert_eq!(slab.remove(old), None, "a key removes once");
        let new = slab.insert(2);
        assert_eq!(slab.slots(), 1, "the slot is reused, not a new one grown");
        assert_ne!(old, new);
        // The old key sees neither the new occupant nor a way to evict it.
        assert_eq!(slab.get(old), None);
        assert_eq!(slab.get_mut(old), None);
        assert_eq!(slab.remove(old), None);
        assert_eq!(slab.get(new), Some(&2));
    }

    #[test]
    fn slots_track_the_high_water_mark_of_live_entries() {
        let mut slab = Slab::default();
        for round in 0..100 {
            let keys: Vec<_> = (0..4).map(|i| slab.insert(round * 4 + i)).collect();
            assert_eq!(slab.len(), 4);
            for key in keys {
                slab.remove(key);
            }
        }
        assert!(slab.is_empty());
        assert_eq!(slab.slots(), 4);
    }
}
