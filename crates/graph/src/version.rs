//! Multi-version concurrency control for [`PropertyGraph`]: writers
//! prepare the next copy-on-write version off to the side while any
//! number of readers execute against frozen, immutable published
//! snapshots.
//!
//! ## The protocol
//!
//! * Every committed write batch publishes one [`GraphView`] — an
//!   `Arc`-shared, never-again-mutated [`PropertyGraph`] tagged with the
//!   **transaction id** of the batch that produced it (for durable
//!   databases this is the WAL batch sequence number, so the in-memory
//!   version history and the on-disk log speak the same ids).
//! * A writer executes on a private copy-on-write clone of the latest
//!   version. Cloning is cheap — `Arc`-shared chunks and posting lists,
//!   no entity data copied (see `crate::slots`) — and the clone is
//!   invisible to readers until [`VersionedGraph::publish_view`] makes it
//!   the latest version. A query batch is therefore **atomic to
//!   readers**: they observe either none of its mutations or all of them,
//!   never a torn mid-batch state.
//! * Publication is one lock around the latest view. [`VersionedGraph::latest`]
//!   clones an `Arc` under it and `publish_view` swaps one; the lock is a
//!   leaf, never held across a call, so an in-flight write transaction
//!   (which runs on its own clone, not under this lock) never blocks
//!   readers. A reader is served some version published between its
//!   admission and its first read.
//!
//! ## Eager retirement
//!
//! The store holds only the latest version: a publish drops the store's
//! reference to the superseded one. That never frees memory out from
//! under a reader: a [`GraphView`] is itself a strong `Arc`, so each
//! version's memory is reclaimed exactly when the last view of it drops
//! — readers pin precisely what they hold, for as long as they hold it.

use crate::graph::PropertyGraph;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

/// An immutable snapshot of the graph at one committed version.
///
/// A `GraphView` is a strong handle: the underlying graph memory stays
/// alive for as long as any view of that version exists, no matter how
/// many newer versions have been published since. Cloning is one `Arc`
/// bump. Derefs to [`PropertyGraph`], so the entire read API is
/// available directly on the view.
#[derive(Clone, Debug)]
pub struct GraphView {
    graph: Arc<PropertyGraph>,
    version: u64,
}

impl GraphView {
    /// Wraps an already-frozen graph as a view at `version`.
    pub fn new(graph: Arc<PropertyGraph>, version: u64) -> GraphView {
        GraphView { graph, version }
    }

    /// The transaction id of the commit that published this view (0 for
    /// the initial version of a fresh graph).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen graph.
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// The shared ownership handle of the frozen graph.
    pub fn graph_arc(&self) -> &Arc<PropertyGraph> {
        &self.graph
    }
}

impl Deref for GraphView {
    type Target = PropertyGraph;

    fn deref(&self) -> &PropertyGraph {
        &self.graph
    }
}

/// A borrowed handle to the graph a read executes against: either a
/// pinned multi-version snapshot (carrying its version/transaction id)
/// or a plain borrow (the single-owner helpers, version unknown).
///
/// This is the parameter type of the engine's entire read path; both
/// `&PropertyGraph` and `&GraphView` convert into it, so versioned
/// sessions and borrow-based tests share one signature.
#[derive(Clone, Copy, Debug)]
pub struct ViewRef<'a> {
    graph: &'a PropertyGraph,
    version: Option<u64>,
}

impl<'a> ViewRef<'a> {
    /// The graph being read.
    pub fn graph(self) -> &'a PropertyGraph {
        self.graph
    }

    /// The pinned version, when this handle came from a [`GraphView`].
    pub fn version(self) -> Option<u64> {
        self.version
    }
}

impl<'a> From<&'a PropertyGraph> for ViewRef<'a> {
    fn from(graph: &'a PropertyGraph) -> ViewRef<'a> {
        ViewRef {
            graph,
            version: None,
        }
    }
}

impl<'a> From<&'a GraphView> for ViewRef<'a> {
    fn from(view: &'a GraphView) -> ViewRef<'a> {
        ViewRef {
            graph: view.graph(),
            version: Some(view.version()),
        }
    }
}

/// The multi-version store: the latest published view behind one lock.
///
/// ```
/// use std::sync::Arc;
/// use cypher_graph::{PropertyGraph, Value, VersionedGraph};
///
/// let mut g = PropertyGraph::new();
/// g.add_node(&["Seed"], []);
/// let vg = VersionedGraph::new(g, 0);
///
/// let before = vg.latest(); // frozen at version 0
/// let mut next = before.graph().clone(); // the writer's private COW clone
/// next.add_node(&["New"], [("v", Value::int(1))]);
/// assert_eq!(vg.latest().node_count(), 1, "unpublished writes are invisible");
/// let after = vg.publish_view(Arc::new(next), 1);
/// assert_eq!(after.version(), 1);
/// assert_eq!(before.node_count(), 1, "old views are frozen forever");
/// assert_eq!(vg.latest().node_count(), 2);
/// ```
pub struct VersionedGraph {
    latest: Mutex<GraphView>,
}

impl std::fmt::Debug for VersionedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedGraph")
            .field("version", &self.latest_version())
            .finish_non_exhaustive()
    }
}

impl VersionedGraph {
    /// Publishes `graph` (typically fresh or just recovered) as the
    /// initial version with the given transaction id.
    pub fn new(mut graph: PropertyGraph, initial_version: u64) -> VersionedGraph {
        // Published versions never mutate, so they must not hold a change
        // sink (and clones drop it anyway); strip defensively.
        let _ = graph.take_change_sink();
        VersionedGraph {
            latest: Mutex::new(GraphView::new(Arc::new(graph), initial_version)),
        }
    }

    fn lock_latest(&self) -> MutexGuard<'_, GraphView> {
        self.latest.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The version of the latest published view. Cheaper than
    /// [`VersionedGraph::latest`] when only the id is needed.
    pub fn latest_version(&self) -> u64 {
        self.lock_latest().version()
    }

    /// Admits a reader to the latest published version: one `Arc` clone
    /// under the leaf lock. The returned view is frozen for its whole
    /// lifetime.
    pub fn latest(&self) -> GraphView {
        self.lock_latest().clone()
    }

    /// Publishes a frozen graph as `version`. Transactions execute on
    /// their own copy-on-write clones, serialized by the commit pipeline's
    /// apply lock, and the group's seal leader publishes their snapshots
    /// in seal order. `graph` must not carry a change sink, and `version`
    /// must be strictly newer than the latest published one.
    pub fn publish_view(&self, graph: Arc<PropertyGraph>, version: u64) -> GraphView {
        debug_assert!(!graph.has_change_sink(), "published graphs are frozen");
        let view = GraphView::new(graph, version);
        let superseded = {
            let mut latest = self.lock_latest();
            assert!(
                version > latest.version(),
                "versions are monotonic: {} !> {}",
                version,
                latest.version()
            );
            std::mem::replace(&mut *latest, view.clone())
        };
        // Eager retirement, outside the lock: if no reader holds the
        // superseded version, its last reference (and every COW chunk
        // only it shares) is freed here.
        drop(superseded);
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn assert_send_sync<T: Send + Sync>() {}

    /// The writer's side of a commit: clone the latest version, add one
    /// `N` node, publish at the next version id.
    fn commit_one_node(vg: &VersionedGraph, i: usize) -> GraphView {
        let base = vg.latest();
        let mut next = base.graph().clone();
        next.add_node(&["N"], [("i", Value::int(i as i64))]);
        vg.publish_view(Arc::new(next), base.version() + 1)
    }

    #[test]
    fn handles_are_send_sync() {
        assert_send_sync::<GraphView>();
        assert_send_sync::<VersionedGraph>();
        assert_send_sync::<PropertyGraph>();
    }

    #[test]
    fn snapshot_isolation_batch_atomicity() {
        let mut g = PropertyGraph::new();
        let seed = g.add_node(&["Seed"], [("v", Value::int(0))]);
        let vg = VersionedGraph::new(g, 7);
        let v7 = vg.latest();
        assert_eq!(v7.version(), 7);

        let mut next = v7.graph().clone();
        let a = next.add_node(&["A"], []);
        next.add_rel(seed, a, "X", []).unwrap();
        // Mid-batch state is invisible: latest() still serves version 7.
        assert_eq!(vg.latest().version(), 7);
        assert_eq!(vg.latest().node_count(), 1);
        let v8 = vg.publish_view(Arc::new(next), 8);
        assert_eq!(v8.version(), 8);
        assert_eq!(v8.node_count(), 2);
        assert_eq!(v8.rel_count(), 1);
        // The old view is frozen forever.
        assert_eq!(v7.node_count(), 1);
        assert_eq!(v7.rel_count(), 0);
        assert_eq!(vg.latest_version(), 8);
    }

    #[test]
    #[should_panic(expected = "versions are monotonic")]
    fn publishing_a_version_that_is_not_newer_panics() {
        let vg = VersionedGraph::new(PropertyGraph::new(), 3);
        vg.publish_view(Arc::new(PropertyGraph::new()), 3);
    }

    #[test]
    fn old_views_survive_eager_retirement() {
        let mut g = PropertyGraph::new();
        g.add_node(&["Seed"], []);
        let vg = VersionedGraph::new(g, 0);
        let pinned = vg.latest();
        const PUBLISHES: usize = 192;
        for i in 0..PUBLISHES {
            commit_one_node(&vg, i);
        }
        assert_eq!(pinned.version(), 0);
        assert_eq!(pinned.node_count(), 1);
        assert_eq!(vg.latest().node_count(), 1 + PUBLISHES);
        assert_eq!(vg.latest_version(), PUBLISHES as u64);
        // Eager retirement: the store dropped its reference to version 0
        // at the very next publish — this pin is the only thing keeping
        // it alive.
        assert_eq!(Arc::strong_count(pinned.graph_arc()), 1);
    }

    #[test]
    fn concurrent_readers_see_only_committed_versions() {
        // A writer streams commits while readers hammer latest(); every
        // admitted view must be internally consistent: version v ⇔
        // exactly 1 + v nodes (each commit adds one node).
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut g = PropertyGraph::new();
        g.add_node(&["Seed"], []);
        let vg = VersionedGraph::new(g, 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let view = vg.latest();
                        assert_eq!(
                            view.node_count() as u64,
                            1 + view.version(),
                            "torn or mismatched snapshot"
                        );
                        assert!(view.version() >= last, "versions went backwards");
                        last = view.version();
                    }
                });
            }
            for i in 0..200 {
                commit_one_node(&vg, i);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(vg.latest_version(), 200);
    }
}
