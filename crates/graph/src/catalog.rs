//! A registry of multiple named property graphs — the substrate for the
//! Cypher 10 multiple-graphs feature (paper Section 6): "named graph
//! references, which represent externally located graphs, graphs created by
//! the query, or graphs created by a previous query in a composition of
//! queries".
//!
//! Graphs are shared under a [`parking_lot::RwLock`] so that a composed
//! query chain can read several source graphs while constructing a new
//! target graph.

use crate::graph::PropertyGraph;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A shared, lockable graph reference (a "graph reference" in Cypher 10
/// terms).
pub type GraphRef = Arc<RwLock<PropertyGraph>>;

/// A catalog of named graphs.
///
/// Iteration order is deterministic (name order) so that query results that
/// enumerate graphs are reproducible.
#[derive(Default, Clone)]
pub struct Catalog {
    graphs: BTreeMap<String, GraphRef>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a graph under `name`, returning its
    /// reference.
    pub fn register(&mut self, name: impl Into<String>, g: PropertyGraph) -> GraphRef {
        let r: GraphRef = Arc::new(RwLock::new(g));
        self.graphs.insert(name.into(), r.clone());
        r
    }

    /// Looks up a graph by name.
    pub fn get(&self, name: &str) -> Option<GraphRef> {
        self.graphs.get(name).cloned()
    }

    /// Removes a graph, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<GraphRef> {
        self.graphs.remove(name)
    }

    /// True iff a graph with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.graphs.contains_key(name)
    }

    /// The registered names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.graphs.keys().map(String::as_str)
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when no graphs are registered.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn register_and_get() {
        let mut cat = Catalog::new();
        let mut g = PropertyGraph::new();
        g.add_node(&["City"], [("name", Value::str("Houston"))]);
        cat.register("soc_net", g);
        assert!(cat.contains("soc_net"));
        assert!(!cat.contains("other"));
        let r = cat.get("soc_net").unwrap();
        assert_eq!(r.read().node_count(), 1);
    }

    #[test]
    fn shared_reference_sees_writes() {
        let mut cat = Catalog::new();
        cat.register("g", PropertyGraph::new());
        let r1 = cat.get("g").unwrap();
        let r2 = cat.get("g").unwrap();
        r1.write().add_node(&[], []);
        assert_eq!(r2.read().node_count(), 1);
    }

    #[test]
    fn names_sorted() {
        let mut cat = Catalog::new();
        cat.register("zeta", PropertyGraph::new());
        cat.register("alpha", PropertyGraph::new());
        let names: Vec<_> = cat.names().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn remove_graph() {
        let mut cat = Catalog::new();
        cat.register("g", PropertyGraph::new());
        assert!(cat.remove("g").is_some());
        assert!(cat.is_empty());
        assert!(cat.remove("g").is_none());
    }
}
