//! The property graph `G = ⟨N, R, src, tgt, ι, λ, τ⟩` of paper Section 4.1,
//! stored *natively*: each node record holds direct references to its
//! incident relationships, in both directions, so that the `Expand`
//! operator (paper Section 2, "Neo4j implementation") "never needs to read
//! any unnecessary data, or proceed via an indirection such as an index in
//! order to find related nodes". Each list holds [`Neighbor`] entries
//! — the relationship and the node it reaches — sorted by `(node, rel)`,
//! so the same lists also feed the sorted-list intersections of
//! worst-case-optimal joins (see [`crate::adjacency`]).
//!
//! Mutation support (add/delete/set/remove) backs the update clauses of
//! Section 2 (`CREATE`, `DELETE`, `SET`, `MERGE`).

use crate::adjacency::Neighbor;
use crate::change::{Change, ChangeSink};
use crate::fxhash::FxHashMap;
use crate::index::{value_bucket, IndexCardinality, IndexSet};
use crate::interner::{Interner, Symbol};
use crate::slots::CowSlots;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A node identifier — an element of the countably infinite set `N`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u64);

/// A relationship identifier — an element of the countably infinite set `R`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RelId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Direction of traversal relative to a node, mirroring the three arrow
/// forms of relationship patterns (Figure 3): `->`, `<-` and undirected.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Direction {
    /// Follow relationships whose source is the current node.
    Outgoing,
    /// Follow relationships whose target is the current node.
    Incoming,
    /// Follow relationships in either orientation.
    Both,
}

impl Direction {
    /// The direction as seen from the other endpoint.
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Outgoing => Direction::Incoming,
            Direction::Incoming => Direction::Outgoing,
            Direction::Both => Direction::Both,
        }
    }
}

/// Errors raised by graph mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The node id does not denote a live node.
    NoSuchNode(NodeId),
    /// The relationship id does not denote a live relationship.
    NoSuchRel(RelId),
    /// Attempted to delete a node that still has relationships without
    /// `DETACH DELETE`.
    NodeHasRelationships(NodeId, usize),
    /// A [`PropertyGraph::restore`] input was internally inconsistent
    /// (out-of-order ids, dangling endpoints, slot counts too small).
    InvalidSnapshot(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            GraphError::NoSuchRel(r) => write!(f, "no such relationship: {r}"),
            GraphError::NodeHasRelationships(n, k) => {
                write!(f, "cannot delete {n}: still has {k} relationship(s)")
            }
            GraphError::InvalidSnapshot(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A small sorted-by-insertion property map `ι(e, ·)`; property counts are
/// tiny in practice, so linear probing over a vector beats a hash table.
#[derive(Default, Debug, Clone, PartialEq)]
pub struct PropMap {
    entries: Vec<(Symbol, Value)>,
}

impl PropMap {
    /// Looks up a property.
    pub fn get(&self, k: Symbol) -> Option<&Value> {
        self.entries.iter().find(|(s, _)| *s == k).map(|(_, v)| v)
    }

    /// Sets a property, replacing any previous value. Setting `null`
    /// removes the key, per Cypher `SET n.k = null` semantics.
    pub fn set(&mut self, k: Symbol, v: Value) {
        if v.is_null() {
            self.remove(k);
            return;
        }
        match self.entries.iter_mut().find(|(s, _)| *s == k) {
            Some((_, slot)) => *slot = v,
            None => self.entries.push((k, v)),
        }
    }

    /// Removes a property, returning its value if present.
    pub fn remove(&mut self, k: Symbol) -> Option<Value> {
        let idx = self.entries.iter().position(|(s, _)| *s == k)?;
        Some(self.entries.swap_remove(idx).1)
    }

    /// Iterates over `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no properties are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all properties.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    labels: Vec<Symbol>,
    props: PropMap,
    /// Relationships whose `src` is this node, with their targets,
    /// sorted by `(node, rel)`.
    out: Vec<Neighbor>,
    /// Relationships whose `tgt` is this node, with their sources,
    /// sorted by `(node, rel)`.
    inc: Vec<Neighbor>,
}

#[derive(Debug, Clone)]
struct RelData {
    src: NodeId,
    tgt: NodeId,
    rel_type: Symbol,
    props: PropMap,
}

/// Aggregate statistics used by the cost-based planner (paper Section 2
/// cites a selectivity cost model \[21\]).
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Live node count.
    pub nodes: usize,
    /// Live relationship count.
    pub rels: usize,
    /// Node count per label.
    pub label_cardinality: FxHashMap<Symbol, usize>,
    /// Relationship count per type.
    pub type_cardinality: FxHashMap<Symbol, usize>,
    /// Entry/distinct-value counts per indexed property key, from which
    /// the planner derives equality-seek selectivities.
    pub prop_cardinality: FxHashMap<Symbol, IndexCardinality>,
}

/// The full state of one live node, as exported into snapshots: public
/// id, labels and properties named by **strings** (interner-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// The node's id.
    pub id: NodeId,
    /// Its labels, sorted and deduplicated.
    pub labels: Vec<Arc<str>>,
    /// Its properties in property-map order.
    pub props: Vec<(Arc<str>, Value)>,
}

/// The full state of one live relationship, as exported into snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct RelState {
    /// The relationship's id.
    pub id: RelId,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub tgt: NodeId,
    /// The relationship type.
    pub rel_type: Arc<str>,
    /// Its properties in property-map order.
    pub props: Vec<(Arc<str>, Value)>,
}

/// An in-memory property graph with native adjacency.
///
/// Node and relationship ids are dense indices; deletions leave tombstones
/// so that ids of live entities are stable (the formal model's identifiers
/// never change meaning).
///
/// All bulk structures — the node/relationship tables (`CowSlots`) and
/// the index posting lists — are `Arc`-shared copy-on-write, so cloning a
/// graph is cheap (O(chunks + index keys), no entity data copied) and the
/// clone is a frozen snapshot: a writer mutates its own clone, and
/// [`crate::version::VersionedGraph::publish_view`] publishes it as one
/// immutable [`crate::version::GraphView`] per committed write batch.
#[derive(Default)]
pub struct PropertyGraph {
    nodes: CowSlots<NodeData>,
    rels: CowSlots<RelData>,
    interner: Interner,
    /// Label, property and composite label/property indexes, maintained
    /// incrementally by every mutation below (see [`crate::index`]). They
    /// back the planner's `NodeIndexScan` and `PropertyIndexSeek`
    /// operators (the "indexing of node data" the paper's Section 5
    /// describes).
    indexes: IndexSet,
    type_counts: FxHashMap<Symbol, usize>,
    live_nodes: usize,
    live_rels: usize,
    /// The pluggable change-stream consumer (see [`crate::change`]).
    /// `None` (the default) makes every emission a no-op branch.
    sink: Option<Box<dyn ChangeSink>>,
    /// `Some` inside [`PropertyGraph::bulk_load`], whose relationships
    /// are appended to their endpoints' lists: the nodes an append left
    /// out of order (with repeats), whose lists the scope sorts on exit.
    unsorted: Option<Vec<NodeId>>,
}

/// Clones the graph **without** its change sink: a clone is a detached
/// in-memory copy (the differential-test oracle pattern), not a second
/// writer of the same durable store.
impl Clone for PropertyGraph {
    fn clone(&self) -> Self {
        PropertyGraph {
            nodes: self.nodes.clone(),
            rels: self.rels.clone(),
            interner: self.interner.clone(),
            indexes: self.indexes.clone(),
            type_counts: self.type_counts.clone(),
            live_nodes: self.live_nodes,
            live_rels: self.live_rels,
            sink: None,
            unsorted: None,
        }
    }
}

/// `Debug` for the graph, omitting the (non-`Debug`) change sink.
impl fmt::Debug for PropertyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PropertyGraph")
            .field("nodes", &self.nodes)
            .field("rels", &self.rels)
            .field("interner", &self.interner)
            .field("indexes", &self.indexes)
            .field("type_counts", &self.type_counts)
            .field("live_nodes", &self.live_nodes)
            .field("live_rels", &self.live_rels)
            .field("sink", &self.sink.as_ref().map(|_| "<ChangeSink>"))
            .finish()
    }
}

impl PropertyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to the token interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Interns a token string.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Resolves a symbol to its text.
    pub fn resolve(&self, s: Symbol) -> &str {
        self.interner.resolve(s)
    }

    // -- change stream -------------------------------------------------------

    /// Installs a change sink; every subsequent successful mutation emits
    /// one [`Change`] record per primitive store operation. Replaces any
    /// previous sink.
    pub fn set_change_sink(&mut self, sink: Box<dyn ChangeSink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the installed change sink, if any.
    pub fn take_change_sink(&mut self) -> Option<Box<dyn ChangeSink>> {
        self.sink.take()
    }

    /// True when a change sink is installed (mutations are being recorded).
    pub fn has_change_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Hands a record to the sink, if one is installed. Callers guard with
    /// [`PropertyGraph::has_change_sink`] before building the (allocating)
    /// record, so the unplugged path costs one branch.
    fn emit(&mut self, change: Change) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(change);
        }
    }

    /// Runs `load` with appending adjacency: relationships it adds are
    /// pushed onto their endpoints' lists, and on every exit (errors and
    /// panics included) each list an append left out of order is sorted
    /// once. The stable sort is run-adaptive, so a sorted prefix plus an
    /// appended tail costs one merge instead of an O(degree) insert per
    /// entry. For loads into a graph the caller owns (snapshot decode,
    /// WAL replay, `CREATE`): lists may be unsorted inside, so nothing
    /// that needs their order may run there. Scopes do not nest.
    pub fn bulk_load<T>(&mut self, load: impl FnOnce(&mut PropertyGraph) -> T) -> T {
        debug_assert!(self.unsorted.is_none(), "nested bulk_load");
        /// Ends the scope, however it ends. Deleting entries keeps a
        /// sorted list sorted, so only the recorded nodes need a sort.
        struct Seal<'g>(&'g mut PropertyGraph);
        impl Drop for Seal<'_> {
            fn drop(&mut self) {
                let g = &mut *self.0;
                let mut unsorted = g.unsorted.take().unwrap_or_default();
                unsorted.sort_unstable();
                unsorted.dedup();
                for n in unsorted {
                    if let Some(d) = g.node_mut(n) {
                        d.out.sort();
                        d.inc.sort();
                    }
                }
            }
        }
        self.unsorted = Some(Vec::new());
        let seal = Seal(self);
        load(&mut *seal.0)
    }

    /// Resolves a property map into `(string key, value)` pairs for a
    /// change record.
    fn resolved_props(&self, pm: &PropMap) -> Vec<(Arc<str>, Value)> {
        pm.iter()
            .map(|(k, v)| (self.interner.resolve_arc(k), v.clone()))
            .collect()
    }

    // -- construction --------------------------------------------------------

    /// Adds a node with string labels and properties. Convenience wrapper
    /// over [`PropertyGraph::add_node_syms`].
    pub fn add_node(
        &mut self,
        labels: &[&str],
        props: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> NodeId {
        let label_syms: Vec<Symbol> = labels.iter().map(|l| self.interner.intern(l)).collect();
        let prop_syms: Vec<(Symbol, Value)> = props
            .into_iter()
            .map(|(k, v)| (self.interner.intern(k), v))
            .collect();
        self.add_node_syms(label_syms, prop_syms)
    }

    /// Adds a node with pre-interned labels and properties.
    pub fn add_node_syms(&mut self, labels: Vec<Symbol>, props: Vec<(Symbol, Value)>) -> NodeId {
        let id = NodeId(self.nodes.slot_count() as u64);
        let mut pm = PropMap::default();
        for (k, v) in props {
            pm.set(k, v);
        }
        let mut labels = labels;
        labels.sort_unstable();
        labels.dedup();
        let indexed: Vec<(Symbol, u64)> = pm.iter().map(|(k, v)| (k, value_bucket(v))).collect();
        self.indexes.on_node_added(id, &labels, &indexed);
        if self.has_change_sink() {
            let change = Change::AddNode {
                id,
                labels: labels
                    .iter()
                    .map(|&l| self.interner.resolve_arc(l))
                    .collect(),
                props: self.resolved_props(&pm),
            };
            self.emit(change);
        }
        self.nodes.push(NodeData {
            labels,
            props: pm,
            out: Vec::new(),
            inc: Vec::new(),
        });
        self.live_nodes += 1;
        id
    }

    /// The node's current `(key, value bucket)` pairs, as the index hooks
    /// expect them.
    fn indexed_props(&self, n: NodeId) -> Vec<(Symbol, u64)> {
        self.node(n)
            .map(|d| d.props.iter().map(|(k, v)| (k, value_bucket(v))).collect())
            .unwrap_or_default()
    }

    /// Live nodes whose property `k` is equivalent to `v`, via the node
    /// property index (deterministic order).
    pub fn nodes_with_prop(&self, k: Symbol, v: &Value) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .indexes
            .prop_candidates(k, value_bucket(v))
            .iter()
            .copied()
            .filter(|&n| {
                self.node_prop(n, k)
                    .map(|w| w.equivalent(v))
                    .unwrap_or(false)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Live nodes with label `l` whose property `k` is equivalent to `v`,
    /// via the composite label/property index (deterministic order). This
    /// is the storage-side half of the planner's `PropertyIndexSeek`.
    pub fn nodes_with_label_prop(&self, l: Symbol, k: Symbol, v: &Value) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .indexes
            .label_prop_candidates(l, k, value_bucket(v))
            .iter()
            .copied()
            .filter(|&n| {
                debug_assert!(self.has_label(n, l), "composite index label drift");
                self.node_prop(n, k)
                    .map(|w| w.equivalent(v))
                    .unwrap_or(false)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Adds a relationship of the given type between two live nodes.
    pub fn add_rel(
        &mut self,
        src: NodeId,
        tgt: NodeId,
        rel_type: &str,
        props: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Result<RelId, GraphError> {
        let t = self.interner.intern(rel_type);
        let prop_syms: Vec<(Symbol, Value)> = props
            .into_iter()
            .map(|(k, v)| (self.interner.intern(k), v))
            .collect();
        self.add_rel_syms(src, tgt, t, prop_syms)
    }

    /// Adds a relationship with a pre-interned type.
    pub fn add_rel_syms(
        &mut self,
        src: NodeId,
        tgt: NodeId,
        rel_type: Symbol,
        props: Vec<(Symbol, Value)>,
    ) -> Result<RelId, GraphError> {
        if !self.contains_node(src) {
            return Err(GraphError::NoSuchNode(src));
        }
        if !self.contains_node(tgt) {
            return Err(GraphError::NoSuchNode(tgt));
        }
        let id = RelId(self.rels.slot_count() as u64);
        let mut pm = PropMap::default();
        for (k, v) in props {
            pm.set(k, v);
        }
        if self.has_change_sink() {
            let change = Change::AddRel {
                id,
                src,
                tgt,
                rel_type: self.interner.resolve_arc(rel_type),
                props: self.resolved_props(&pm),
            };
            self.emit(change);
        }
        self.rels.push(RelData {
            src,
            tgt,
            rel_type,
            props: pm,
        });
        self.link(src, tgt, id);
        *self.type_counts.entry(rel_type).or_insert(0) += 1;
        self.live_rels += 1;
        Ok(id)
    }

    /// Enters the newest relationship `rel` into its endpoints' lists. An
    /// entry past the last one is a push; any other is inserted in place,
    /// or appended inside a [`PropertyGraph::bulk_load`] scope.
    fn link(&mut self, src: NodeId, tgt: NodeId, rel: RelId) {
        for (at, node, out) in [(src, tgt, true), (tgt, src, false)] {
            let d = self.nodes.get_mut(at.0 as usize).expect("live endpoint");
            let list = if out { &mut d.out } else { &mut d.inc };
            let e = Neighbor { node, rel };
            let in_order = list.last().is_none_or(|last| *last < e);
            match &mut self.unsorted {
                _ if in_order => list.push(e),
                None => list.insert(list.partition_point(|x| *x < e), e),
                // Out of order in a bulk scope: sorted when the scope ends.
                Some(unsorted) => {
                    unsorted.push(at);
                    list.push(e);
                }
            }
        }
    }

    // -- deletion ------------------------------------------------------------

    /// Deletes a relationship.
    pub fn delete_rel(&mut self, r: RelId) -> Result<(), GraphError> {
        let data = self
            .rels
            .take(r.0 as usize)
            .ok_or(GraphError::NoSuchRel(r))?;
        // Found by relationship id, so this also works on the unsorted
        // lists of a bulk scope; `remove` keeps the rest in order.
        let unlink = |list: &mut Vec<Neighbor>| {
            if let Some(i) = list.iter().position(|e| e.rel == r) {
                list.remove(i);
            }
        };
        if let Some(n) = self.node_mut(data.src) {
            unlink(&mut n.out);
        }
        if let Some(n) = self.node_mut(data.tgt) {
            unlink(&mut n.inc);
        }
        if let Some(c) = self.type_counts.get_mut(&data.rel_type) {
            *c = c.saturating_sub(1);
        }
        self.live_rels -= 1;
        self.emit(Change::DeleteRel { id: r });
        Ok(())
    }

    /// Deletes a node; fails if it still has incident relationships
    /// (plain `DELETE` semantics).
    pub fn delete_node(&mut self, n: NodeId) -> Result<(), GraphError> {
        let deg = self.degree(n, Direction::Both);
        if deg > 0 {
            return Err(GraphError::NodeHasRelationships(n, deg));
        }
        self.remove_node_record(n)
    }

    /// Deletes a node together with all its relationships
    /// (`DETACH DELETE` semantics).
    pub fn detach_delete_node(&mut self, n: NodeId) -> Result<(), GraphError> {
        if !self.contains_node(n) {
            return Err(GraphError::NoSuchNode(n));
        }
        let lists = self.out_neighbors(n).iter().chain(self.in_neighbors(n));
        let mut incident: Vec<RelId> = lists.map(|e| e.rel).collect();
        incident.sort_unstable();
        incident.dedup();
        for r in incident {
            self.delete_rel(r)?;
        }
        self.remove_node_record(n)
    }

    fn remove_node_record(&mut self, n: NodeId) -> Result<(), GraphError> {
        let data = self
            .nodes
            .take(n.0 as usize)
            .ok_or(GraphError::NoSuchNode(n))?;
        let indexed: Vec<(Symbol, u64)> = data
            .props
            .iter()
            .map(|(k, v)| (k, value_bucket(v)))
            .collect();
        self.indexes.on_node_removed(n, &data.labels, &indexed);
        self.live_nodes -= 1;
        self.emit(Change::DeleteNode { id: n });
        Ok(())
    }

    // -- accessors -----------------------------------------------------------

    fn node(&self, n: NodeId) -> Option<&NodeData> {
        self.nodes.get(n.0 as usize)
    }

    fn node_mut(&mut self, n: NodeId) -> Option<&mut NodeData> {
        self.nodes.get_mut(n.0 as usize)
    }

    fn rel(&self, r: RelId) -> Option<&RelData> {
        self.rels.get(r.0 as usize)
    }

    fn rel_mut(&mut self, r: RelId) -> Option<&mut RelData> {
        self.rels.get_mut(r.0 as usize)
    }

    /// True iff `n` is a live node of the graph.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.node(n).is_some()
    }

    /// True iff `r` is a live relationship.
    pub fn contains_rel(&self, r: RelId) -> bool {
        self.rel(r).is_some()
    }

    /// `λ(n)`: the labels of a node.
    pub fn labels(&self, n: NodeId) -> &[Symbol] {
        self.node(n).map(|d| d.labels.as_slice()).unwrap_or(&[])
    }

    /// True iff `ℓ ∈ λ(n)`.
    pub fn has_label(&self, n: NodeId, l: Symbol) -> bool {
        self.labels(n).contains(&l)
    }

    /// `τ(r)`: the type of a relationship.
    pub fn rel_type(&self, r: RelId) -> Option<Symbol> {
        self.rel(r).map(|d| d.rel_type)
    }

    /// `src(r)`.
    pub fn src(&self, r: RelId) -> Option<NodeId> {
        self.rel(r).map(|d| d.src)
    }

    /// `tgt(r)`.
    pub fn tgt(&self, r: RelId) -> Option<NodeId> {
        self.rel(r).map(|d| d.tgt)
    }

    /// Given a relationship and one endpoint, the other endpoint. For a
    /// self-loop returns the same node.
    pub fn other_end(&self, r: RelId, n: NodeId) -> Option<NodeId> {
        let d = self.rel(r)?;
        if d.src == n {
            Some(d.tgt)
        } else if d.tgt == n {
            Some(d.src)
        } else {
            None
        }
    }

    /// `ι(n, k)` for nodes.
    pub fn node_prop(&self, n: NodeId, k: Symbol) -> Option<&Value> {
        self.node(n).and_then(|d| d.props.get(k))
    }

    /// `ι(r, k)` for relationships.
    pub fn rel_prop(&self, r: RelId, k: Symbol) -> Option<&Value> {
        self.rel(r).and_then(|d| d.props.get(k))
    }

    /// Node property looked up by string key (convenience for tests).
    pub fn node_prop_by_name(&self, n: NodeId, k: &str) -> Option<&Value> {
        let sym = self.interner.get(k)?;
        self.node_prop(n, sym)
    }

    /// Relationship property looked up by string key.
    pub fn rel_prop_by_name(&self, r: RelId, k: &str) -> Option<&Value> {
        let sym = self.interner.get(k)?;
        self.rel_prop(r, sym)
    }

    /// Iterates over a node's properties.
    pub fn node_props(&self, n: NodeId) -> impl Iterator<Item = (Symbol, &Value)> {
        self.node(n).into_iter().flat_map(|d| d.props.iter())
    }

    /// Iterates over a relationship's properties.
    pub fn rel_props(&self, r: RelId) -> impl Iterator<Item = (Symbol, &Value)> {
        self.rel(r).into_iter().flat_map(|d| d.props.iter())
    }

    /// Outgoing relationships of a node with their targets, sorted by
    /// `(node, rel)` (direct references, no index).
    pub fn out_neighbors(&self, n: NodeId) -> &[Neighbor] {
        self.node(n).map(|d| d.out.as_slice()).unwrap_or(&[])
    }

    /// Incoming relationships of a node with their sources, sorted by
    /// `(node, rel)`.
    pub fn in_neighbors(&self, n: NodeId) -> &[Neighbor] {
        self.node(n).map(|d| d.inc.as_slice()).unwrap_or(&[])
    }

    /// All `(rel, neighbour)` pairs reachable from `n` in the given
    /// direction, walked without collecting them: the out list, then the
    /// in list, each in `(node, rel)` order. A self-loop appears once in
    /// every direction, `Both` included, matching the undirected pattern
    /// semantics in §4.2 item (e′).
    pub fn expand(&self, n: NodeId, dir: Direction) -> impl Iterator<Item = (RelId, NodeId)> + '_ {
        let (out, inc) = match dir {
            Direction::Outgoing => (self.out_neighbors(n), &[][..]),
            Direction::Incoming => (&[][..], self.in_neighbors(n)),
            Direction::Both => (self.out_neighbors(n), self.in_neighbors(n)),
        };
        let both = dir == Direction::Both;
        // Under `Both`, skip self-loops in `inc` (an incoming entry from
        // `n` itself): already emitted from `out`.
        out.iter()
            .chain(inc.iter().filter(move |e| !both || e.node != n))
            .map(|e| (e.rel, e.node))
    }

    /// Degree in the given direction.
    pub fn degree(&self, n: NodeId, dir: Direction) -> usize {
        let (out, inc) = (self.out_neighbors(n), self.in_neighbors(n));
        match dir {
            Direction::Outgoing => out.len(),
            Direction::Incoming => inc.len(),
            Direction::Both => out.len() + inc.iter().filter(|e| e.node != n).count(),
        }
    }

    /// Iterates over live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter_live().map(|(i, _)| NodeId(i as u64))
    }

    /// Iterates over live relationship ids.
    pub fn rels(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels.iter_live().map(|(i, _)| RelId(i as u64))
    }

    /// Live nodes with the given label, via the label index.
    pub fn nodes_with_label(&self, l: Symbol) -> &[NodeId] {
        self.indexes.nodes_with_label(l)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live relationships.
    pub fn rel_count(&self) -> usize {
        self.live_rels
    }

    /// Number of live nodes with a given label.
    pub fn label_cardinality(&self, l: Symbol) -> usize {
        self.nodes_with_label(l).len()
    }

    /// Number of live relationships of a given type.
    pub fn type_cardinality(&self, t: Symbol) -> usize {
        self.type_counts.get(&t).copied().unwrap_or(0)
    }

    /// Cardinality statistics of the property index for key `k`
    /// (`entries` nodes spread over `distinct` values).
    pub fn prop_index_cardinality(&self, k: Symbol) -> IndexCardinality {
        self.indexes.prop_cardinality(k)
    }

    /// Cardinality statistics of the composite `(label, key)` index.
    pub fn label_prop_index_cardinality(&self, l: Symbol, k: Symbol) -> IndexCardinality {
        self.indexes.label_prop_cardinality(l, k)
    }

    /// Snapshot of planner statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            nodes: self.live_nodes,
            rels: self.live_rels,
            label_cardinality: self.indexes.label_cardinalities().collect(),
            type_cardinality: self.type_counts.clone(),
            prop_cardinality: self.indexes.prop_cardinalities().collect(),
        }
    }

    // -- mutation of live entities -------------------------------------------

    /// `SET n.k = v` (removes the key when `v` is `null`).
    pub fn set_node_prop(&mut self, n: NodeId, k: Symbol, v: Value) -> Result<(), GraphError> {
        let d = self.node(n).ok_or(GraphError::NoSuchNode(n))?;
        let labels = d.labels.clone();
        let old_bucket = d.props.get(k).map(value_bucket);
        if let Some(bucket) = old_bucket {
            self.indexes.on_prop_removed(n, &labels, k, bucket);
        }
        if !v.is_null() {
            self.indexes.on_prop_set(n, &labels, k, value_bucket(&v));
        }
        if self.has_change_sink() {
            let change = Change::SetNodeProp {
                id: n,
                key: self.interner.resolve_arc(k),
                value: v.clone(),
            };
            self.emit(change);
        }
        self.node_mut(n)
            .map(|d| d.props.set(k, v))
            .ok_or(GraphError::NoSuchNode(n))
    }

    /// `SET r.k = v` for relationships.
    pub fn set_rel_prop(&mut self, r: RelId, k: Symbol, v: Value) -> Result<(), GraphError> {
        if !self.contains_rel(r) {
            return Err(GraphError::NoSuchRel(r));
        }
        if self.has_change_sink() {
            let change = Change::SetRelProp {
                id: r,
                key: self.interner.resolve_arc(k),
                value: v.clone(),
            };
            self.emit(change);
        }
        self.rel_mut(r)
            .map(|d| d.props.set(k, v))
            .ok_or(GraphError::NoSuchRel(r))
    }

    /// `REMOVE n.k`.
    pub fn remove_node_prop(&mut self, n: NodeId, k: Symbol) -> Result<(), GraphError> {
        let d = self.node(n).ok_or(GraphError::NoSuchNode(n))?;
        let labels = d.labels.clone();
        let old_bucket = d.props.get(k).map(value_bucket);
        if let Some(bucket) = old_bucket {
            self.indexes.on_prop_removed(n, &labels, k, bucket);
        }
        if self.has_change_sink() {
            let change = Change::RemoveNodeProp {
                id: n,
                key: self.interner.resolve_arc(k),
            };
            self.emit(change);
        }
        self.node_mut(n)
            .map(|d| {
                d.props.remove(k);
            })
            .ok_or(GraphError::NoSuchNode(n))
    }

    /// Replaces all properties of a node (`SET n = {..}`).
    pub fn replace_node_props(
        &mut self,
        n: NodeId,
        props: Vec<(Symbol, Value)>,
    ) -> Result<(), GraphError> {
        let labels = self
            .node(n)
            .ok_or(GraphError::NoSuchNode(n))?
            .labels
            .clone();
        for (k, bucket) in self.indexed_props(n) {
            self.indexes.on_prop_removed(n, &labels, k, bucket);
        }
        let d = self.node_mut(n).expect("checked above");
        d.props.clear();
        for (k, v) in props {
            d.props.set(k, v);
        }
        for (k, bucket) in self.indexed_props(n) {
            self.indexes.on_prop_set(n, &labels, k, bucket);
        }
        if self.has_change_sink() {
            // Emit the post-deduplication state, so replay is idempotent
            // with respect to duplicate keys in the input.
            let props = self
                .node(n)
                .map(|d| self.resolved_props(&d.props))
                .unwrap_or_default();
            self.emit(Change::ReplaceNodeProps { id: n, props });
        }
        Ok(())
    }

    /// `SET n:Label`.
    pub fn add_label(&mut self, n: NodeId, l: Symbol) -> Result<(), GraphError> {
        let d = self.node_mut(n).ok_or(GraphError::NoSuchNode(n))?;
        if !d.labels.contains(&l) {
            d.labels.push(l);
            d.labels.sort_unstable();
            let indexed = self.indexed_props(n);
            self.indexes.on_label_added(n, l, &indexed);
            if self.has_change_sink() {
                let change = Change::AddLabel {
                    id: n,
                    label: self.interner.resolve_arc(l),
                };
                self.emit(change);
            }
        }
        Ok(())
    }

    /// `REMOVE n:Label`.
    pub fn remove_label(&mut self, n: NodeId, l: Symbol) -> Result<(), GraphError> {
        let d = self.node_mut(n).ok_or(GraphError::NoSuchNode(n))?;
        if let Some(pos) = d.labels.iter().position(|&x| x == l) {
            d.labels.remove(pos);
            let indexed = self.indexed_props(n);
            self.indexes.on_label_removed(n, l, &indexed);
            if self.has_change_sink() {
                let change = Change::RemoveLabel {
                    id: n,
                    label: self.interner.resolve_arc(l),
                };
                self.emit(change);
            }
        }
        Ok(())
    }

    // -- durable-state export / restore --------------------------------------

    /// Total node slots, live and tombstoned: the next node id to be
    /// assigned. Snapshots record it so restored graphs keep assigning
    /// fresh ids (ids are never reused).
    pub fn node_slot_count(&self) -> usize {
        self.nodes.slot_count()
    }

    /// Total relationship slots, live and tombstoned.
    pub fn rel_slot_count(&self) -> usize {
        self.rels.slot_count()
    }

    /// Exports every live node in id order, tokens resolved to strings.
    pub fn export_nodes(&self) -> Vec<NodeState> {
        self.nodes
            .iter_live()
            .map(|(i, d)| NodeState {
                id: NodeId(i as u64),
                labels: d
                    .labels
                    .iter()
                    .map(|&l| self.interner.resolve_arc(l))
                    .collect(),
                props: self.resolved_props(&d.props),
            })
            .collect()
    }

    /// Exports every live relationship in id order.
    pub fn export_rels(&self) -> Vec<RelState> {
        self.rels
            .iter_live()
            .map(|(i, d)| RelState {
                id: RelId(i as u64),
                src: d.src,
                tgt: d.tgt,
                rel_type: self.interner.resolve_arc(d.rel_type),
                props: self.resolved_props(&d.props),
            })
            .collect()
    }

    /// Reconstructs a graph from exported state, validating internal
    /// consistency (replay must be total — corrupt snapshots become a
    /// structured error, never a panic). Indexes are rebuilt from scratch
    /// through the same hooks a commit runs; because posting lists are
    /// canonically sorted, the rebuilt index set is bit-identical to the
    /// incrementally-maintained one of the graph that produced the export.
    pub fn restore(
        node_slots: usize,
        rel_slots: usize,
        nodes: Vec<NodeState>,
        rels: Vec<RelState>,
    ) -> Result<PropertyGraph, GraphError> {
        let bad = |msg: String| GraphError::InvalidSnapshot(msg);
        let mut g = PropertyGraph::new();
        g.nodes = CowSlots::with_slots(node_slots);
        let mut last_node: Option<u64> = None;
        for ns in nodes {
            let idx = ns.id.0 as usize;
            if idx >= node_slots {
                return Err(bad(format!(
                    "node {} beyond slot count {node_slots}",
                    ns.id
                )));
            }
            if last_node.is_some_and(|p| ns.id.0 <= p) {
                return Err(bad(format!(
                    "node ids not strictly increasing at {}",
                    ns.id
                )));
            }
            last_node = Some(ns.id.0);
            let mut labels: Vec<Symbol> = ns.labels.iter().map(|l| g.interner.intern(l)).collect();
            labels.sort_unstable();
            labels.dedup();
            let mut pm = PropMap::default();
            for (k, v) in ns.props {
                pm.set(g.interner.intern(&k), v);
            }
            let indexed: Vec<(Symbol, u64)> =
                pm.iter().map(|(k, v)| (k, value_bucket(v))).collect();
            g.indexes.on_node_added(ns.id, &labels, &indexed);
            g.nodes.set(
                idx,
                NodeData {
                    labels,
                    props: pm,
                    out: Vec::new(),
                    inc: Vec::new(),
                },
            );
            g.live_nodes += 1;
        }
        g.rels = CowSlots::with_slots(rel_slots);
        g.bulk_load(|g| {
            let mut last_rel: Option<u64> = None;
            for rs in rels {
                let idx = rs.id.0 as usize;
                if idx >= rel_slots {
                    return Err(bad(format!("rel {} beyond slot count {rel_slots}", rs.id)));
                }
                if last_rel.is_some_and(|p| rs.id.0 <= p) {
                    return Err(bad(format!("rel ids not strictly increasing at {}", rs.id)));
                }
                last_rel = Some(rs.id.0);
                if !g.contains_node(rs.src) {
                    return Err(bad(format!("rel {} has dangling source {}", rs.id, rs.src)));
                }
                if !g.contains_node(rs.tgt) {
                    return Err(bad(format!("rel {} has dangling target {}", rs.id, rs.tgt)));
                }
                let rel_type = g.interner.intern(&rs.rel_type);
                let mut pm = PropMap::default();
                for (k, v) in rs.props {
                    pm.set(g.interner.intern(&k), v);
                }
                g.rels.set(
                    idx,
                    RelData {
                        src: rs.src,
                        tgt: rs.tgt,
                        rel_type,
                        props: pm,
                    },
                );
                g.link(rs.src, rs.tgt, rs.id);
                *g.type_counts.entry(rel_type).or_insert(0) += 1;
                g.live_rels += 1;
            }
            Ok(())
        })?;
        Ok(g)
    }

    /// Renders the complete observable state — entities, every neighbour
    /// list entry for entry, type counts and all three index families — in
    /// a canonical, interner- and hash-map-order-independent text form. Two graphs with equal dumps
    /// are indistinguishable to every query and every planner statistic;
    /// the crash-recovery differential suite compares dumps of recovered
    /// graphs against the in-memory oracle.
    pub fn canonical_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "slots nodes={} rels={} live nodes={} rels={}",
            self.nodes.slot_count(),
            self.rels.slot_count(),
            self.live_nodes,
            self.live_rels
        )
        .unwrap();
        for ns in self.export_nodes() {
            // Labels are stored sorted by interner *symbol* (assignment
            // order); sort the strings so the dump is genuinely
            // interner-independent — a graph rebuilt by replay interns
            // tokens in a different order than one that also interned
            // tokens for read-only queries.
            let mut labels = ns.labels;
            labels.sort();
            let mut props = ns.props;
            props.sort_by(|a, b| a.0.cmp(&b.0));
            writeln!(out, "node {} labels={labels:?} props={props:?}", ns.id).unwrap();
            let list = |l: &[Neighbor]| {
                let entries: Vec<String> =
                    l.iter().map(|e| format!("{}:{}", e.node, e.rel)).collect();
                entries.join(" ")
            };
            let (o, i) = (self.out_neighbors(ns.id), self.in_neighbors(ns.id));
            writeln!(out, "  out [{}] in [{}]", list(o), list(i)).unwrap();
        }
        for rs in self.export_rels() {
            let mut props = rs.props;
            props.sort_by(|a, b| a.0.cmp(&b.0));
            writeln!(
                out,
                "rel {} {}->{} type={} props={props:?}",
                rs.id, rs.src, rs.tgt, rs.rel_type
            )
            .unwrap();
        }
        let mut types: Vec<(String, usize)> = self
            .type_counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&t, &c)| (self.interner.resolve(t).to_string(), c))
            .collect();
        types.sort();
        writeln!(out, "type-counts {types:?}").unwrap();
        let resolve = |s: Symbol| self.interner.resolve(s).to_string();
        self.indexes.canonical_dump(&resolve, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (PropertyGraph, NodeId, NodeId, RelId) {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&["Person"], [("name", Value::str("Ada"))]);
        let b = g.add_node(&["Person", "Admin"], [("name", Value::str("Bo"))]);
        let r = g
            .add_rel(a, b, "KNOWS", [("since", Value::int(1985))])
            .unwrap();
        (g, a, b, r)
    }

    #[test]
    fn build_and_read_back() {
        let (g, a, b, r) = sample();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 1);
        assert_eq!(g.src(r), Some(a));
        assert_eq!(g.tgt(r), Some(b));
        assert_eq!(g.resolve(g.rel_type(r).unwrap()), "KNOWS");
        assert_eq!(g.node_prop_by_name(a, "name"), Some(&Value::str("Ada")));
        assert_eq!(g.rel_prop_by_name(r, "since"), Some(&Value::int(1985)));
        let person = g.interner().get("Person").unwrap();
        assert!(g.has_label(a, person));
        assert_eq!(g.nodes_with_label(person), &[a, b]);
    }

    #[test]
    fn adjacency_is_direct() {
        let (g, a, b, r) = sample();
        assert_eq!(g.out_neighbors(a), &[Neighbor { node: b, rel: r }]);
        assert_eq!(g.in_neighbors(b), &[Neighbor { node: a, rel: r }]);
        let hops = |n, dir| g.expand(n, dir).collect::<Vec<_>>();
        assert_eq!(hops(a, Direction::Outgoing), vec![(r, b)]);
        assert_eq!(hops(b, Direction::Incoming), vec![(r, a)]);
        assert_eq!(hops(a, Direction::Both), vec![(r, b)]);
        assert_eq!(g.degree(a, Direction::Both), 1);
        assert_eq!(g.degree(a, Direction::Incoming), 0);
    }

    #[test]
    fn self_loop_counted_once_in_both() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(&[], []);
        let r = g.add_rel(n, n, "SELF", []).unwrap();
        assert_eq!(g.degree(n, Direction::Both), 1);
        // Both-direction expand yields the loop once.
        assert_eq!(g.expand(n, Direction::Both).collect::<Vec<_>>(), [(r, n)]);
        assert_eq!(g.other_end(r, n), Some(n));
    }

    #[test]
    fn delete_rel_updates_adjacency_and_counts() {
        let (mut g, a, b, r) = sample();
        g.delete_rel(r).unwrap();
        assert_eq!(g.rel_count(), 0);
        assert!(g.out_neighbors(a).is_empty());
        assert!(g.in_neighbors(b).is_empty());
        let t = g.interner().get("KNOWS").unwrap();
        assert_eq!(g.type_cardinality(t), 0);
        assert!(g.delete_rel(r).is_err());
    }

    #[test]
    fn delete_node_refuses_when_connected() {
        let (mut g, a, _, _) = sample();
        assert!(matches!(
            g.delete_node(a),
            Err(GraphError::NodeHasRelationships(_, 1))
        ));
        g.detach_delete_node(a).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.rel_count(), 0);
        let person = g.interner().get("Person").unwrap();
        assert_eq!(g.nodes_with_label(person).len(), 1);
    }

    #[test]
    fn tombstones_keep_ids_stable() {
        let (mut g, a, b, _) = sample();
        g.detach_delete_node(a).unwrap();
        let c = g.add_node(&["Person"], []);
        assert_ne!(c, a, "ids are never reused");
        assert!(g.contains_node(b));
        assert!(!g.contains_node(a));
        let live: Vec<NodeId> = g.nodes().collect();
        assert_eq!(live, vec![b, c]);
    }

    #[test]
    fn set_and_remove_props() {
        let (mut g, a, _, r) = sample();
        let k = g.intern("age");
        g.set_node_prop(a, k, Value::int(36)).unwrap();
        assert_eq!(g.node_prop(a, k), Some(&Value::int(36)));
        g.set_node_prop(a, k, Value::Null).unwrap(); // null removes
        assert_eq!(g.node_prop(a, k), None);
        let w = g.intern("weight");
        g.set_rel_prop(r, w, Value::float(0.5)).unwrap();
        assert_eq!(g.rel_prop(r, w), Some(&Value::float(0.5)));
    }

    #[test]
    fn labels_add_remove_update_index() {
        let (mut g, a, _, _) = sample();
        let l = g.intern("Admin");
        assert!(!g.has_label(a, l));
        g.add_label(a, l).unwrap();
        assert!(g.has_label(a, l));
        assert_eq!(g.label_cardinality(l), 2);
        g.remove_label(a, l).unwrap();
        assert!(!g.has_label(a, l));
        assert_eq!(g.label_cardinality(l), 1);
    }

    #[test]
    fn stats_reflect_graph() {
        let (g, _, _, _) = sample();
        let stats = g.stats();
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.rels, 1);
        let person = g.interner().get("Person").unwrap();
        assert_eq!(stats.label_cardinality[&person], 2);
    }

    #[test]
    fn add_rel_to_missing_node_fails() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        assert!(g.add_rel(a, NodeId(99), "X", []).is_err());
    }

    #[test]
    fn property_index_tracks_mutations() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(
            &["P"],
            [("name", Value::str("Ada")), ("age", Value::int(3))],
        );
        let b = g.add_node(&["P"], [("name", Value::str("Bo"))]);
        let name = g.interner().get("name").unwrap();
        assert_eq!(g.nodes_with_prop(name, &Value::str("Ada")), vec![a]);
        assert_eq!(g.nodes_with_prop(name, &Value::str("Bo")), vec![b]);
        assert!(g.nodes_with_prop(name, &Value::str("Cy")).is_empty());

        // Update re-indexes.
        g.set_node_prop(a, name, Value::str("Ada2")).unwrap();
        assert!(g.nodes_with_prop(name, &Value::str("Ada")).is_empty());
        assert_eq!(g.nodes_with_prop(name, &Value::str("Ada2")), vec![a]);

        // Setting null removes from the index.
        g.set_node_prop(b, name, Value::Null).unwrap();
        assert!(g.nodes_with_prop(name, &Value::str("Bo")).is_empty());

        // Replace rebuilds.
        let age = g.interner().get("age").unwrap();
        g.replace_node_props(a, vec![(age, Value::int(9))]).unwrap();
        assert!(g.nodes_with_prop(name, &Value::str("Ada2")).is_empty());
        assert_eq!(g.nodes_with_prop(age, &Value::int(9)), vec![a]);

        // Numeric equivalence: 9 and 9.0 share an index entry.
        assert_eq!(g.nodes_with_prop(age, &Value::float(9.0)), vec![a]);

        // Deleting the node cleans the index.
        g.detach_delete_node(a).unwrap();
        assert!(g.nodes_with_prop(age, &Value::int(9)).is_empty());
    }

    #[test]
    fn composite_index_follows_label_and_prop_churn() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&["P"], [("k", Value::int(1))]);
        let b = g.add_node(&["P", "Q"], [("k", Value::int(1))]);
        let _c = g.add_node(&["P"], [("k", Value::int(2))]);
        let p = g.interner().get("P").unwrap();
        let q = g.interner().get("Q").unwrap();
        let k = g.interner().get("k").unwrap();

        assert_eq!(g.nodes_with_label_prop(p, k, &Value::int(1)), vec![a, b]);
        assert_eq!(g.nodes_with_label_prop(q, k, &Value::int(1)), vec![b]);
        // Numeric equivalence reaches the same bucket.
        assert_eq!(
            g.nodes_with_label_prop(p, k, &Value::float(1.0)),
            vec![a, b]
        );

        // Adding a label back-fills the composite entries for existing
        // properties.
        g.add_label(a, q).unwrap();
        assert_eq!(g.nodes_with_label_prop(q, k, &Value::int(1)), vec![a, b]);
        // Removing it drops them again.
        g.remove_label(a, q).unwrap();
        assert_eq!(g.nodes_with_label_prop(q, k, &Value::int(1)), vec![b]);

        // SET rewrites relocate the entry to the new value's bucket.
        g.set_node_prop(a, k, Value::int(2)).unwrap();
        assert_eq!(g.nodes_with_label_prop(p, k, &Value::int(1)), vec![b]);
        assert!(g.nodes_with_label_prop(p, k, &Value::int(2)).contains(&a));

        // Statistics reflect the index contents.
        let c = g.prop_index_cardinality(k);
        assert_eq!(c.entries, 3);
        assert_eq!(c.distinct, 2);
        let pc = g.label_prop_index_cardinality(p, k);
        assert_eq!(pc.entries, 3);

        // Deletion cleans the composite index.
        g.detach_delete_node(b).unwrap();
        assert!(g.nodes_with_label_prop(q, k, &Value::int(1)).is_empty());
    }

    /// Asserts every list of `g` is strictly `(node, rel)`-ordered and
    /// holds exactly what `expand` yields.
    fn assert_sorted_and_expanded(g: &PropertyGraph) {
        for n in g.nodes() {
            for (list, dir) in [
                (g.out_neighbors(n), Direction::Outgoing),
                (g.in_neighbors(n), Direction::Incoming),
            ] {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "{n} {dir:?} sorted");
                let mut expect: Vec<Neighbor> = g
                    .expand(n, dir)
                    .map(|(rel, node)| Neighbor { node, rel })
                    .collect();
                expect.sort_unstable();
                assert_eq!(list, expect.as_slice());
            }
        }
    }

    /// 50 relationships among the first 50 nodes (made on demand), in
    /// an order shuffled by `salt`.
    fn shuffled(g: &mut PropertyGraph, salt: u64) {
        while g.node_count() < 50 {
            g.add_node(&["N"], []);
        }
        for i in 0..50 {
            let (s, t) = ((i * 7 + salt) % 50, (i * 13 + 3 * salt + 3) % 50);
            g.add_rel(NodeId(s), NodeId(t), "E", []).unwrap();
        }
    }

    #[test]
    fn sorted_lists_agree_with_expand() {
        let mut g = PropertyGraph::new();
        shuffled(&mut g, 0);
        shuffled(&mut g, 1);
        assert_sorted_and_expanded(&g);
    }

    #[test]
    fn bulk_load_sorts_on_every_exit() {
        let mut g = PropertyGraph::new();
        let done: Result<(), GraphError> = g.bulk_load(|g| {
            shuffled(g, 0);
            Err(GraphError::NoSuchNode(NodeId(0)))
        });
        assert!(done.is_err());
        assert_sorted_and_expanded(&g);
        // A later scope merges its appended tails into the sorted lists,
        // and deletes inside the scope find their entries.
        g.bulk_load(|g| {
            shuffled(g, 1);
            g.delete_rel(RelId(3)).unwrap();
            g.delete_rel(RelId(77)).unwrap();
        });
        assert_eq!(g.rel_count(), 98);
        assert_sorted_and_expanded(&g);
    }

    #[test]
    fn self_loops_appear_on_both_sides() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let r = g.add_rel(a, a, "E", []).unwrap();
        let e = [Neighbor { node: a, rel: r }];
        assert_eq!(g.out_neighbors(a), &e);
        assert_eq!(g.in_neighbors(a), &e);
    }

    #[test]
    fn deleted_rels_leave_the_lists() {
        let (mut g, a, b, r1) = sample();
        let r2 = g.add_rel(a, b, "E", []).unwrap();
        g.delete_rel(r1).unwrap();
        assert_eq!(g.out_neighbors(a), &[Neighbor { node: b, rel: r2 }]);
        assert_eq!(g.in_neighbors(b), &[Neighbor { node: a, rel: r2 }]);
    }

    #[test]
    fn clone_stays_frozen_after_the_original_mutates() {
        let (mut g, a, b, _) = sample();
        let clone = g.clone();
        g.add_rel(b, a, "E", []).unwrap();
        assert_eq!(g.out_neighbors(b).len(), 1);
        assert!(clone.out_neighbors(b).is_empty(), "clone frozen");
        assert_eq!(clone.in_neighbors(b).len(), 1);
    }

    #[test]
    fn labels_deduplicated() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(&["A", "A"], []);
        assert_eq!(g.labels(n).len(), 1);
    }
}
