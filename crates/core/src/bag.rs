//! The one counted multiset: rows counted exactly under Cypher
//! equivalence, and un-counted on retraction.
//!
//! Grouping, `DISTINCT` and view maintenance all reduce to this count, so
//! one type serves them all: the group table of
//! [`crate::project::GroupedAggState`], the distinct inputs of a
//! `DISTINCT` aggregate ([`crate::aggregate::DistinctSet`]), and a
//! maintained view's counted bag and subscriber diff.
//!
//! A [`CountedMap`] keeps insertion-ordered slots, each holding a key (a
//! sequence of values), the number of its live copies and a payload, under
//! four rules:
//!
//! * keys are Fx-hashed over [`Value::hash_equivalent`] and compared with
//!   [`Value::equivalent`] (`1 ≡ 1.0`, `null ≡ null`), and a lookup by a
//!   borrowed `&[Value]` allocates nothing;
//! * removing the last live copy leaves a tombstone (bucket entries index
//!   into the slots, so slots never shift), and a re-added key takes a
//!   fresh slot at the end — draining a key and adding it back reads as if
//!   the drained copies were never added, so retraction is
//!   order-transparent;
//! * tombstones are dropped once they are half the slots, so a map churned
//!   for a million commits costs what its live keys cost, not its history;
//! * [`CountedMap::merge`] adds a sibling covering later rows slot by slot,
//!   in its order, so merging morsel partials in morsel order reproduces
//!   the row-order fold.

use cypher_graph::fxhash::{FxHashMap, FxHasher};
use cypher_graph::Value;
use std::borrow::Borrow;
use std::hash::Hasher;

#[derive(Clone, Debug)]
struct Slot<K, V> {
    /// The key's hash, kept so that compaction and merging never rehash.
    hash: u64,
    key: K,
    /// Live copies; `0` is a tombstone.
    count: u64,
    value: V,
}

/// An insertion-ordered multiset of keys under Cypher equivalence, each
/// live key with its copy count and a payload (see the module docs).
#[derive(Clone, Debug)]
pub struct CountedMap<K, V> {
    slots: Vec<Slot<K, V>>,
    buckets: FxHashMap<u64, Vec<usize>>,
    /// Tombstones in `slots`.
    dead: usize,
}

impl<K, V> Default for CountedMap<K, V> {
    fn default() -> Self {
        CountedMap {
            slots: Vec::new(),
            buckets: FxHashMap::default(),
            dead: 0,
        }
    }
}

fn hash(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash_equivalent(&mut h);
    }
    h.finish()
}

impl<K: Borrow<[Value]>, V> CountedMap<K, V> {
    /// The live slot of `key`, which hashes to `hash`.
    fn find(&self, hash: u64, key: &[Value]) -> Option<usize> {
        self.buckets.get(&hash)?.iter().copied().find(|&i| {
            let s = &self.slots[i];
            let k: &[Value] = s.key.borrow();
            s.count > 0 && k.len() == key.len() && k.iter().zip(key).all(|(a, b)| a.equivalent(b))
        })
    }

    fn push(&mut self, slot: Slot<K, V>) -> usize {
        let i = self.slots.len();
        self.buckets.entry(slot.hash).or_default().push(i);
        self.slots.push(slot);
        i
    }

    /// Counts one more copy of `key`, in a new slot with the default
    /// payload when none is live. `true` when the key became visible.
    pub fn add(&mut self, key: K) -> bool
    where
        V: Default,
    {
        let hash = hash(key.borrow());
        if let Some(i) = self.find(hash, key.borrow()) {
            self.slots[i].count += 1;
            return false;
        }
        let value = V::default();
        self.push(Slot {
            hash,
            key,
            count: 1,
            value,
        });
        true
    }

    /// Counts one more copy of the borrowed `key` and answers its
    /// payload. Only a key with no live slot calls `make`, for the owned
    /// key and the payload of its new slot.
    pub fn add_with(&mut self, key: &[Value], make: impl FnOnce() -> (K, V)) -> &mut V {
        let hash = hash(key);
        let i = match self.find(hash, key) {
            Some(i) => i,
            None => {
                let (key, value) = make();
                self.push(Slot {
                    hash,
                    key,
                    count: 0,
                    value,
                })
            }
        };
        let slot = &mut self.slots[i];
        slot.count += 1;
        &mut slot.value
    }

    /// The payload of `key`'s live slot.
    pub fn get_mut(&mut self, key: &[Value]) -> Option<&mut V> {
        let i = self.find(hash(key), key)?;
        Some(&mut self.slots[i].value)
    }

    /// Takes one copy of `key` out: `None` when no copy is live,
    /// `Some(true)` when it was the last one (the key became invisible).
    pub fn remove(&mut self, key: &[Value]) -> Option<bool> {
        let i = self.find(hash(key), key)?;
        self.slots[i].count -= 1;
        if self.slots[i].count > 0 {
            return Some(false);
        }
        self.dead += 1;
        if 2 * self.dead >= self.slots.len() {
            self.slots.retain(|s| s.count > 0);
            self.buckets.clear();
            self.dead = 0;
            for (i, s) in self.slots.iter().enumerate() {
                self.buckets.entry(s.hash).or_default().push(i);
            }
        }
        Some(true)
    }

    /// Adds a sibling covering later rows: each of its live slots, in
    /// order, counts into this map's live slot of the same key, `combine`
    /// folding the sibling's payload in, or else takes a new slot at the
    /// end.
    pub fn merge(&mut self, other: Self, mut combine: impl FnMut(&mut V, V)) {
        for s in other.slots.into_iter().filter(|s| s.count > 0) {
            match self.find(s.hash, s.key.borrow()) {
                Some(i) => {
                    let mine = &mut self.slots[i];
                    mine.count += s.count;
                    combine(&mut mine.value, s.value);
                }
                None => {
                    self.push(s);
                }
            }
        }
    }
}

impl<K, V> CountedMap<K, V> {
    /// The number of live keys.
    pub fn len(&self) -> usize {
        self.slots.len() - self.dead
    }

    /// True when no key is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slots held, tombstones included.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Drops every key.
    pub fn clear(&mut self) {
        *self = CountedMap::default();
    }

    /// The live keys in first-live-insertion order, with their copy
    /// counts and payloads.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64, &V)> {
        let live = self.slots.iter().filter(|s| s.count > 0);
        live.map(|s| (&s.key, s.count, &s.value))
    }

    /// [`CountedMap::iter`], by value.
    pub fn into_live(self) -> impl Iterator<Item = (K, u64, V)> {
        let live = self.slots.into_iter().filter(|s| s.count > 0);
        live.map(|s| (s.key, s.count, s.value))
    }
}
