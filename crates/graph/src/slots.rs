//! Copy-on-write slot vectors — the versioned backing store of
//! [`crate::PropertyGraph`]'s node and relationship tables.
//!
//! A [`CowSlots`] is a dense, tombstoning `Vec<Option<T>>` chunked into
//! `Arc`-shared blocks. Cloning one is O(slots / CHUNK) atomic increments
//! — no entity data is copied — which is what makes cloning a whole
//! `PropertyGraph` cheap enough to run once per committed write batch
//! (the multi-version snapshot protocol of [`crate::version`]). Mutation
//! goes through [`Arc::make_mut`] at two levels:
//!
//! * first touch of a chunk after a clone copies that chunk's slot
//!   *pointers* (CHUNK `Arc` bumps, one allocation);
//! * first touch of an entity after a clone deep-copies that one entity.
//!
//! A graph that has never been cloned (the common single-owner case:
//! tests, benches, the recovery replayer) sees every `make_mut` find a
//! unique `Arc` and mutate in place — the copy in copy-on-write is paid
//! only while an older version is actually alive.

use std::sync::Arc;

/// Slots per chunk. A power of two so the index split is a shift/mask;
/// large enough that cloning a 100k-entity table is ~100 `Arc` bumps,
/// small enough that the first write into a shared chunk copies only
/// 1024 pointers.
const CHUNK: usize = 1024;

/// A chunked, `Arc`-shared, tombstoning slot vector. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct CowSlots<T> {
    chunks: Vec<Arc<Vec<Option<Arc<T>>>>>,
    /// Total slots, live and tombstoned (the next id to assign).
    len: usize,
}

impl<T> Default for CowSlots<T> {
    fn default() -> Self {
        CowSlots {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> CowSlots<T> {
    /// A store of `n` empty (tombstoned) slots, for snapshot restore.
    pub(crate) fn with_slots(n: usize) -> Self {
        let chunk = |start: usize| Arc::new(vec![None; CHUNK.min(n - start)]);
        let chunks = (0..n).step_by(CHUNK).map(chunk).collect();
        CowSlots { chunks, len: n }
    }

    /// Total slots, live and tombstoned.
    pub(crate) fn slot_count(&self) -> usize {
        self.len
    }

    /// Shared access to a live slot.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        self.chunks[i / CHUNK][i % CHUNK].as_deref()
    }

    /// Exclusive access to a live slot, copying shared chunk/entity
    /// structure as needed.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let chunk = Arc::make_mut(&mut self.chunks[i / CHUNK]);
        chunk[i % CHUNK].as_mut().map(Arc::make_mut)
    }

    /// Tombstones a slot, returning the entity that lived there.
    pub(crate) fn take(&mut self, i: usize) -> Option<T> {
        if i >= self.len {
            return None;
        }
        let chunk = Arc::make_mut(&mut self.chunks[i / CHUNK]);
        chunk[i % CHUNK]
            .take()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
    }

    /// Appends a live slot, returning its index.
    pub(crate) fn push(&mut self, v: T) -> usize {
        let i = self.len;
        if i.is_multiple_of(CHUNK) {
            let mut fresh = Vec::with_capacity(CHUNK);
            fresh.push(Some(Arc::new(v)));
            self.chunks.push(Arc::new(fresh));
        } else {
            let chunk = Arc::make_mut(self.chunks.last_mut().expect("non-empty"));
            chunk.push(Some(Arc::new(v)));
        }
        self.len = i + 1;
        i
    }

    /// Fills a pre-sized (tombstoned) slot, for snapshot restore.
    pub(crate) fn set(&mut self, i: usize, v: T) {
        assert!(i < self.len, "set past pre-sized slots");
        let chunk = Arc::make_mut(&mut self.chunks[i / CHUNK]);
        chunk[i % CHUNK] = Some(Arc::new(v));
    }

    /// Iterates over `(index, entity)` for every live slot, in id order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (usize, &T)> {
        self.chunks.iter().enumerate().flat_map(|(ci, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(si, slot)| slot.as_deref().map(|v| (ci * CHUNK + si, v)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_take_roundtrip() {
        let mut s: CowSlots<u32> = CowSlots::default();
        for i in 0..2500u32 {
            assert_eq!(s.push(i), i as usize);
        }
        assert_eq!(s.slot_count(), 2500);
        assert_eq!(s.get(1234), Some(&1234));
        assert_eq!(s.get(2500), None);
        assert_eq!(s.take(1234), Some(1234));
        assert_eq!(s.get(1234), None, "tombstoned");
        assert_eq!(s.take(1234), None, "double take");
        assert_eq!(s.push(9999), 2500, "ids never reused");
        let live: Vec<u32> = s.iter_live().map(|(_, &v)| v).collect();
        assert_eq!(live.len(), 2500);
    }

    #[test]
    fn clone_shares_until_written() {
        let mut a: CowSlots<u32> = CowSlots::default();
        for i in 0..3000u32 {
            a.push(i);
        }
        let b = a.clone();
        *a.get_mut(7).unwrap() = 700;
        a.take(2999);
        assert_eq!(b.get(7), Some(&7), "clone is a frozen snapshot");
        assert_eq!(b.get(2999), Some(&2999));
        assert_eq!(a.get(7), Some(&700));
        assert_eq!(a.get(2999), None);
        // Untouched chunks are still physically shared.
        assert!(Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert!(!Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
    }

    #[test]
    fn with_slots_then_set_matches_push_shape() {
        let mut s: CowSlots<u32> = CowSlots::with_slots(1500);
        assert_eq!(s.slot_count(), 1500);
        assert!(s.iter_live().next().is_none());
        s.set(0, 10);
        s.set(1030, 20);
        let live: Vec<(usize, u32)> = s.iter_live().map(|(i, &v)| (i, v)).collect();
        assert_eq!(live, vec![(0, 10), (1030, 20)]);
    }
}
