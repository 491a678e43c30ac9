//! Sorted-adjacency kernel for worst-case-optimal multiway joins.
//!
//! Every node record of [`crate::PropertyGraph`] keeps its `out` and `inc`
//! lists as [`Neighbor`] entries **sorted by `(node, rel)`** (see
//! [`crate::PropertyGraph::out_neighbors`]). The same lists `Expand`
//! walks therefore turn "which nodes are adjacent to all of `a`, `b`,
//! …?" into a k-way merge over sorted sequences: the core step of a
//! leapfrog-style worst-case-optimal join whose work is bounded by the
//! AGM output bound rather than by intermediate-result sizes.
//!
//! [`gallop`] is the merge's one primitive: a galloping
//! (exponential-probe) search, so the engine's multiway intersection
//! (`MultiwayIntersectOp`, one cursor per guard) intersects a small list
//! against a large one in `O(small · log(large))` probes.

use crate::graph::{NodeId, RelId};

/// One adjacency entry: the neighbour reached and the relationship
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
