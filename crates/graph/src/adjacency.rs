//! Sorted-adjacency kernel for worst-case-optimal multiway joins.
//!
//! The native adjacency lists of [`crate::PropertyGraph`] are kept in
//! *insertion* order — ideal for `Expand`, useless for intersection. This
//! module maintains a per-version cache of the same lists **sorted by
//! neighbour node id**, which turns "which nodes are adjacent to all of
//! `a`, `b`, …?" into a k-way merge over sorted sequences: the core step
//! of a leapfrog-style worst-case-optimal join whose work is bounded by
//! the AGM output bound rather than by intermediate-result sizes.
//!
//! Layout and invalidation:
//!
//! * Node slots are grouped into fixed-width **shards** of
//!   [`SHARD_NODES`] slots. Each shard stores its `out` and `inc`
//!   neighbour lists in one CSR block (`offsets` + flat `Neighbor` data),
//!   sorted by `(node, rel)` per slot, behind an `Arc`.
//! * The graph records a per-shard **epoch** bumped by every mutation
//!   that touches a node's adjacency (relationship add/delete at either
//!   endpoint). A rebuild reuses the `Arc` of every shard whose epoch is
//!   unchanged, so a point commit re-sorts only the shards it dirtied —
//!   the copy-on-write discipline of the versioned slot store carried
//!   over to the derived structure.
//! * Builds are lazy (first intersection query after a version publishes
//!   pays for them) and shard-parallel: dirty shards are claimed from an
//!   atomic counter by a scoped worker pool.
//!
//! The intersection primitives ([`gallop`], [`intersect_nodes`]) use
//! galloping (exponential-probe) search, so intersecting a small list
//! against a large one costs `O(small · log(large))` probes.

use crate::graph::NodeId;
use crate::graph::RelId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Node slots per adjacency shard. A power of two, sized so a point
/// commit touching a handful of nodes dirties a handful of shards while
/// a 100k-node graph still builds with ~25 parallelizable units.
pub const SHARD_NODES: usize = 4096;

/// One sorted adjacency entry: the neighbour reached and the relationship
/// traversed. Ordered by `(node, rel)` so equal-node runs are contiguous
/// and deterministically ordered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Neighbor {
    /// The neighbouring node (the relationship's other endpoint; for a
    /// self-loop, the node itself).
    pub node: NodeId,
    /// The relationship traversed to reach it.
    pub rel: RelId,
}

/// CSR block: `data[offsets[i]..offsets[i + 1]]` is slot `i`'s sorted
/// neighbour list.
#[derive(Debug, Default)]
struct Csr {
    offsets: Vec<usize>,
    data: Vec<Neighbor>,
}

impl Csr {
    fn slice(&self, local: usize) -> &[Neighbor] {
        match (self.offsets.get(local), self.offsets.get(local + 1)) {
            (Some(&lo), Some(&hi)) => &self.data[lo..hi],
            _ => &[],
        }
    }
}

/// One shard's sorted adjacency, frozen at a build: the epoch it was
/// built under (for reuse checks) and the out/in CSR blocks.
#[derive(Debug)]
pub struct AdjacencyShard {
    epoch: u64,
    out: Csr,
    inc: Csr,
}

/// The sorted-adjacency cache of one graph version: an `Arc`'d shard per
/// [`SHARD_NODES`] node slots. Obtained from
/// [`crate::PropertyGraph::sorted_adjacency`]; immutable once built.
#[derive(Debug)]
pub struct SortedAdjacency {
    version: u64,
    shards: Vec<Arc<AdjacencyShard>>,
}

impl SortedAdjacency {
    /// The graph version this cache was built against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Outgoing `(node, rel)` entries of `n`, sorted by `(node, rel)`.
    /// Nodes added after the build (necessarily without relationships,
    /// since adding one dirties the shard) resolve to the empty slice.
    pub fn out(&self, n: NodeId) -> &[Neighbor] {
        self.side(n, false)
    }

    /// Incoming `(node, rel)` entries of `n` (the neighbour is the
    /// relationship's source), sorted by `(node, rel)`.
    pub fn inc(&self, n: NodeId) -> &[Neighbor] {
        self.side(n, true)
    }

    fn side(&self, n: NodeId, incoming: bool) -> &[Neighbor] {
        let slot = n.0 as usize;
        match self.shards.get(slot / SHARD_NODES) {
            Some(shard) => {
                let csr = if incoming { &shard.inc } else { &shard.out };
                csr.slice(slot % SHARD_NODES)
            }
            None => &[],
        }
    }
}

/// Rebuilds the cache for `version`, reusing every shard of `prev` whose
/// epoch is unchanged. `per_slot` appends slot `i`'s raw out/in entries
/// (any order; the builder sorts). Shards are built by `threads` scoped
/// workers claiming dirty shards from an atomic counter.
pub(crate) fn rebuild<F>(
    version: u64,
    slot_count: usize,
    epochs: &[u64],
    prev: Option<&SortedAdjacency>,
    threads: usize,
    per_slot: &F,
) -> SortedAdjacency
where
    F: Fn(usize, &mut Vec<Neighbor>, &mut Vec<Neighbor>) + Sync,
{
    let n_shards = slot_count.div_ceil(SHARD_NODES);
    let epoch_of = |s: usize| epochs.get(s).copied().unwrap_or(0);
    // Partition into reusable and dirty shards. A trailing shard that
    // only grew by relationship-free nodes keeps its epoch and is safely
    // reused: lookups past its built extent fall back to empty slices.
    let mut shards: Vec<Option<Arc<AdjacencyShard>>> = (0..n_shards)
        .map(|s| {
            prev.and_then(|p| p.shards.get(s))
                .filter(|shard| shard.epoch == epoch_of(s))
                .cloned()
        })
        .collect();
    let dirty: Vec<usize> = (0..n_shards).filter(|&s| shards[s].is_none()).collect();

    let build_one = |s: usize| -> Arc<AdjacencyShard> {
        let base = s * SHARD_NODES;
        let slots = SHARD_NODES.min(slot_count - base);
        let mut out = Vec::new();
        let mut inc = Vec::new();
        let mut out_offsets = Vec::with_capacity(slots + 1);
        let mut inc_offsets = Vec::with_capacity(slots + 1);
        out_offsets.push(0);
        inc_offsets.push(0);
        for local in 0..slots {
            let o0 = out.len();
            let i0 = inc.len();
            per_slot(base + local, &mut out, &mut inc);
            out[o0..].sort_unstable();
            inc[i0..].sort_unstable();
            out_offsets.push(out.len());
            inc_offsets.push(inc.len());
        }
        Arc::new(AdjacencyShard {
            epoch: epoch_of(s),
            out: Csr {
                offsets: out_offsets,
                data: out,
            },
            inc: Csr {
                offsets: inc_offsets,
                data: inc,
            },
        })
    };

    let workers = threads.max(1).min(dirty.len());
    if workers <= 1 {
        for &s in &dirty {
            shards[s] = Some(build_one(s));
        }
    } else {
        let next = AtomicUsize::new(0);
        let built: Vec<_> = (0..dirty.len())
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&s) = dirty.get(i) else { break };
                    *built[i].lock().unwrap() = Some(build_one(s));
                });
            }
        });
        for (i, slot) in built.into_iter().enumerate() {
            shards[dirty[i]] = slot.into_inner().unwrap();
        }
    }

    SortedAdjacency {
        version,
        shards: shards
            .into_iter()
            .map(|s| s.expect("all shards built"))
            .collect(),
    }
}

/// Galloping (exponential-probe) lower bound: the first index `>= start`
/// whose entry's node id is `>= target`, or `list.len()`. Each comparison
/// increments `probes`, the kernel's work counter.
pub fn gallop(list: &[Neighbor], start: usize, target: NodeId, probes: &mut u64) -> usize {
    let n = list.len();
    if start >= n {
        return n;
    }
    *probes += 1;
    if list[start].node >= target {
        return start;
    }
    // Exponential probe to bracket the answer…
    let mut step = 1usize;
    let mut lo = start;
    loop {
        let hi = lo + step;
        if hi >= n {
            break;
        }
        *probes += 1;
        if list[hi].node >= target {
            // …then binary search inside (lo, hi].
            return lo + 1 + partition_point(&list[lo + 1..=hi], target, probes);
        }
        lo = hi;
        step <<= 1;
    }
    lo + 1 + partition_point(&list[lo + 1..], target, probes)
}

/// Binary-search partition point (`first entry with node >= target`),
/// counting comparisons.
fn partition_point(list: &[Neighbor], target: NodeId, probes: &mut u64) -> usize {
    let mut lo = 0usize;
    let mut hi = list.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *probes += 1;
        if list[mid].node < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// K-way leapfrog intersection of the *node sets* of sorted neighbour
/// lists: appends each node id present in every list once to `out` (the
/// lists themselves may hold several relationships per node). Returns the
/// number of galloping probes performed.
pub fn intersect_nodes(lists: &[&[Neighbor]], out: &mut Vec<NodeId>) -> u64 {
    let mut probes = 0u64;
    if lists.is_empty() {
        return probes;
    }
    let mut pos = vec![0usize; lists.len()];
    // The current frontier: the maximum of the lists' current nodes.
    'outer: while let Some(first) = lists[0].get(pos[0]) {
        let mut target = first.node;
        loop {
            let mut all_equal = true;
            for (i, list) in lists.iter().enumerate() {
                pos[i] = gallop(list, pos[i], target, &mut probes);
                match list.get(pos[i]) {
                    None => break 'outer,
                    Some(e) if e.node > target => {
                        target = e.node;
                        all_equal = false;
                    }
                    Some(_) => {}
                }
            }
            if all_equal {
                out.push(target);
                // Advance every list past the matched node.
                for (i, list) in lists.iter().enumerate() {
                    while list.get(pos[i]).is_some_and(|e| e.node == target) {
                        pos[i] += 1;
                    }
                }
                break;
            }
        }
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, PropertyGraph};

    fn nb(node: u64, rel: u64) -> Neighbor {
        Neighbor {
            node: NodeId(node),
            rel: RelId(rel),
        }
    }

    #[test]
    fn gallop_finds_lower_bounds() {
        let list: Vec<Neighbor> = [1u64, 3, 3, 7, 9, 12, 40, 41, 42, 90]
            .iter()
            .enumerate()
            .map(|(i, &n)| nb(n, i as u64))
            .collect();
        let mut probes = 0;
        assert_eq!(gallop(&list, 0, NodeId(0), &mut probes), 0);
        assert_eq!(gallop(&list, 0, NodeId(3), &mut probes), 1);
        assert_eq!(gallop(&list, 2, NodeId(3), &mut probes), 2);
        assert_eq!(gallop(&list, 0, NodeId(8), &mut probes), 4);
        assert_eq!(gallop(&list, 0, NodeId(90), &mut probes), 9);
        assert_eq!(gallop(&list, 0, NodeId(91), &mut probes), 10);
        assert_eq!(gallop(&list, 10, NodeId(1), &mut probes), 10);
        assert!(probes > 0);
    }

    #[test]
    fn intersect_nodes_matches_naive() {
        let a: Vec<Neighbor> = (0..200).map(|i| nb(i * 2, i)).collect();
        let b: Vec<Neighbor> = (0..200).map(|i| nb(i * 3, 1000 + i)).collect();
        let c: Vec<Neighbor> = (0..500).map(|i| nb(i, 2000 + i)).collect();
        let mut out = Vec::new();
        intersect_nodes(&[&a, &b, &c], &mut out);
        // Common nodes: multiples of 6 within all three ranges (`a` tops
        // out at 398, `c` at 499).
        let expect: Vec<NodeId> = (0..=396).filter(|i| i % 6 == 0).map(NodeId).collect();
        assert_eq!(out, expect);
        // Duplicate node runs collapse to one entry.
        let d = vec![nb(6, 1), nb(6, 2), nb(12, 3)];
        let mut out = Vec::new();
        intersect_nodes(&[&d, &c], &mut out);
        assert_eq!(out, vec![NodeId(6), NodeId(12)]);
        // Empty list short-circuits.
        let mut out = Vec::new();
        intersect_nodes(&[&a, &[]], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cache_is_sorted_and_matches_expand() {
        let mut g = PropertyGraph::new();
        let n: Vec<_> = (0..50).map(|_| g.add_node(&["N"], [])).collect();
        // A deliberately shuffled insertion order.
        for i in 0..50usize {
            let s = n[(i * 7) % 50];
            let t = n[(i * 13 + 3) % 50];
            g.add_rel(s, t, "E", []).unwrap();
        }
        let adj = g.sorted_adjacency();
        for &node in &n {
            let out = adj.out(node);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "sorted out list");
            let mut expect: Vec<(NodeId, RelId)> = g
                .expand(node, Direction::Outgoing)
                .map(|(r, m)| (m, r))
                .collect();
            expect.sort_unstable();
            let got: Vec<(NodeId, RelId)> = out.iter().map(|e| (e.node, e.rel)).collect();
            assert_eq!(got, expect);
            let inc = adj.inc(node);
            assert!(inc.windows(2).all(|w| w[0] <= w[1]), "sorted inc list");
            let mut expect: Vec<(NodeId, RelId)> = g
                .expand(node, Direction::Incoming)
                .map(|(r, m)| (m, r))
                .collect();
            expect.sort_unstable();
            let got: Vec<(NodeId, RelId)> = inc.iter().map(|e| (e.node, e.rel)).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn cache_reuses_arc_and_invalidates_per_version() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&["N"], []);
        let b = g.add_node(&["N"], []);
        g.add_rel(a, b, "E", []).unwrap();
        let v1 = g.sorted_adjacency();
        let v1b = g.sorted_adjacency();
        assert!(Arc::ptr_eq(&v1, &v1b), "same version: cached Arc returned");
        // A non-adjacency mutation bumps the version but every shard
        // epoch is unchanged: the shards are physically reused.
        let k = g.intern("x");
        g.set_node_prop(a, k, crate::Value::int(1)).unwrap();
        let v2 = g.sorted_adjacency();
        assert!(!Arc::ptr_eq(&v1, &v2));
        assert!(
            Arc::ptr_eq(&v1.shards[0], &v2.shards[0]),
            "clean shard reused"
        );
        // An adjacency mutation dirties the shard and forces a rebuild.
        g.add_rel(b, a, "E", []).unwrap();
        let v3 = g.sorted_adjacency();
        assert!(
            !Arc::ptr_eq(&v2.shards[0], &v3.shards[0]),
            "dirty shard rebuilt"
        );
        assert_eq!(v3.inc(a).len(), 1);
    }

    #[test]
    fn clone_carries_cache_and_diverges_after() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let b = g.add_node(&[], []);
        g.add_rel(a, b, "E", []).unwrap();
        let before = g.sorted_adjacency();
        let clone = g.clone();
        assert!(Arc::ptr_eq(&before, &clone.sorted_adjacency()));
        g.add_rel(b, a, "E", []).unwrap();
        assert_eq!(g.sorted_adjacency().out(b).len(), 1);
        assert!(clone.sorted_adjacency().out(b).is_empty(), "clone frozen");
    }

    #[test]
    fn self_loops_appear_in_both_sides() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let r = g.add_rel(a, a, "E", []).unwrap();
        let adj = g.sorted_adjacency();
        assert_eq!(adj.out(a), &[nb(a.0, r.0)]);
        assert_eq!(adj.inc(a), &[nb(a.0, r.0)]);
    }

    #[test]
    fn deleted_rels_leave_the_cache() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let b = g.add_node(&[], []);
        let r1 = g.add_rel(a, b, "E", []).unwrap();
        g.add_rel(a, b, "E", []).unwrap();
        let _ = g.sorted_adjacency();
        g.delete_rel(r1).unwrap();
        let adj = g.sorted_adjacency();
        assert_eq!(adj.out(a).len(), 1);
        assert_eq!(adj.inc(b).len(), 1);
    }
}
