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
//! The intersection primitives ([`gallop`], [`intersect_nodes`]) use
//! galloping (exponential-probe) search, so intersecting a small list
//! against a large one costs `O(small · log(large))` probes.

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
}
