//! Path values (paper Section 4.1): `path(n)` and
//! `path(n₁, r₁, n₂, …, n_{m−1}, r_{m−1}, n_m)`, with the concatenation
//! operator `·` which is defined only when the first path ends where the
//! second starts.

use crate::graph::{NodeId, RelId};
use std::fmt;

/// An alternating node/relationship sequence, always starting and ending at
/// a node. The representation (`start` plus `(rel, node)` steps) makes the
/// alternation invariant unrepresentable to violate.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Path {
    start: NodeId,
    steps: Vec<(RelId, NodeId)>,
}

impl Path {
    /// The zero-length path `path(n)`.
    pub fn single(n: NodeId) -> Path {
        Path::new(n, Vec::new())
    }

    /// Builds a path from a start node and steps.
    pub fn new(start: NodeId, steps: Vec<(RelId, NodeId)>) -> Path {
        Path { start, steps }
    }

    /// The first node.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The last node.
    pub fn end(&self) -> NodeId {
        self.steps.last().map(|&(_, n)| n).unwrap_or(self.start)
    }

    /// Number of relationships in the path (its length).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the zero-length path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// All nodes, in order (length + 1 entries).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.steps.len() + 1);
        v.push(self.start);
        v.extend(self.steps.iter().map(|&(_, n)| n));
        v
    }

    /// All relationships, in order.
    pub fn rels(&self) -> Vec<RelId> {
        self.steps.iter().map(|&(r, _)| r).collect()
    }

    /// The `(rel, node)` steps.
    pub fn steps(&self) -> &[(RelId, NodeId)] {
        &self.steps
    }

    /// True iff `r` occurs in the path. Used to enforce the relationship-
    /// isomorphism precondition of Section 4.2 ("all relationships in p are
    /// distinct").
    pub fn contains_rel(&self, r: RelId) -> bool {
        self.steps.iter().any(|&(s, _)| s == r)
    }

    /// True iff `n` occurs in the path (for node-isomorphism matching).
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.start == n || self.steps.iter().any(|&(_, m)| m == n)
    }

    /// True iff all relationships in the path are pairwise distinct.
    pub fn rels_distinct(&self) -> bool {
        let mut seen: Vec<RelId> = Vec::with_capacity(self.steps.len());
        for &(r, _) in &self.steps {
            if seen.contains(&r) {
                return false;
            }
            seen.push(r);
        }
        true
    }

    /// Appends a step in place.
    pub fn push(&mut self, r: RelId, n: NodeId) {
        self.steps.push((r, n));
    }

    /// Path concatenation `p₁ · p₂` (paper §4.1). Returns `None` when
    /// `p₁` does not end where `p₂` starts, in which case the operation is
    /// undefined.
    pub fn concat(&self, other: &Path) -> Option<Path> {
        if self.end() != other.start {
            return None;
        }
        let steps = [&self.steps[..], &other.steps].concat();
        Some(Path::new(self.start, steps))
    }

    /// The reverse path (traversing the same relationships backwards).
    pub fn reverse(&self) -> Path {
        let nodes = self.nodes();
        let steps = self.steps.iter().enumerate().rev();
        let steps = steps.map(|(i, &(r, _))| (r, nodes[i])).collect();
        Path::new(self.end(), steps)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}", self.start)?;
        for (r, n) in &self.steps {
            write!(f, " {r} {n}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }
    fn r(i: u64) -> RelId {
        RelId(i)
    }

    #[test]
    fn single_path() {
        let p = Path::single(n(1));
        assert_eq!(p.start(), n(1));
        assert_eq!(p.end(), n(1));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.nodes(), vec![n(1)]);
        assert!(p.rels().is_empty());
    }

    #[test]
    fn build_and_inspect() {
        let mut p = Path::single(n(1));
        p.push(r(1), n(2));
        p.push(r(2), n(3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.end(), n(3));
        assert_eq!(p.nodes(), vec![n(1), n(2), n(3)]);
        assert_eq!(p.rels(), vec![r(1), r(2)]);
        assert!(p.contains_rel(r(1)));
        assert!(!p.contains_rel(r(9)));
        assert!(p.contains_node(n(1)));
        assert!(p.contains_node(n(3)));
        assert!(!p.contains_node(n(9)));
    }

    #[test]
    fn concat_defined_only_when_compatible() {
        let mut p1 = Path::single(n(1));
        p1.push(r(1), n(2));
        let mut p2 = Path::single(n(2));
        p2.push(r(2), n(3));
        let joined = p1.concat(&p2).expect("compatible endpoints");
        assert_eq!(joined.nodes(), vec![n(1), n(2), n(3)]);

        let p3 = Path::single(n(9));
        assert!(p1.concat(&p3).is_none());
    }

    #[test]
    fn reverse_roundtrip() {
        let mut p = Path::single(n(1));
        p.push(r(1), n(2));
        p.push(r(2), n(3));
        let rev = p.reverse();
        assert_eq!(rev.start(), n(3));
        assert_eq!(rev.end(), n(1));
        assert_eq!(rev.rels(), vec![r(2), r(1)]);
        assert_eq!(rev.reverse(), p);
    }

    #[test]
    fn rels_distinct_detects_repeats() {
        let mut p = Path::single(n(1));
        p.push(r(1), n(2));
        p.push(r(1), n(1));
        assert!(!p.rels_distinct());
    }
}
