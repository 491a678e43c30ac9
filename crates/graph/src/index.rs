//! Secondary indexes over nodes, with the cardinality statistics the
//! cost-based planner consumes.
//!
//! Three index families are maintained **incrementally** by every mutation
//! path of [`crate::graph::PropertyGraph`] (`CREATE`, `DELETE`, `SET`,
//! `REMOVE`, `MERGE` all bottom out in the store's mutators, so the
//! indexes can never drift from the base data — the concern the
//! incremental-view-maintenance literature calls *update correctness*):
//!
//! * the **label index** `ℓ → { n | ℓ ∈ λ(n) }`,
//! * the **property index** `k → (h(v) → { n | ι(n, k) ≡ v })`, and
//! * the **composite label/property index**
//!   `(ℓ, k) → (h(v) → { n | ℓ ∈ λ(n) ∧ ι(n, k) ≡ v })`,
//!
//! where `h` is the equivalence-respecting hash of [`Value`]
//! ([`Value::hash_equivalent`]). Buckets are hash classes, not exact value
//! classes: readers re-check candidates with [`Value::equivalent`], so a
//! hash collision costs time, never correctness.
//!
//! Every bucket map also carries running totals, from which
//! [`IndexCardinality`] derives the planner's selectivity estimate for an
//! equality seek: `entries / distinct` ≈ expected matches per looked-up
//! value, the classic uniform-values assumption (cf. the output-size
//! bounds of Abo Khamis et al., *Computing Join Queries with Functional
//! Dependencies*, which this per-key statistic crudely approximates).

use crate::fxhash::FxHashMap;
use crate::graph::NodeId;
use crate::interner::Symbol;
use crate::value::Value;
use std::sync::Arc;

/// Hashes a value into its index bucket, respecting Cypher equivalence
/// (so `9` and `9.0` land in the same bucket).
pub fn value_bucket(v: &Value) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fxhash::FxHasher::default();
    v.hash_equivalent(&mut h);
    h.finish()
}

/// Cardinality statistics for one indexed key (or one `(label, key)`
/// pair): how many index entries exist and how many distinct values they
/// spread over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCardinality {
    /// Total `(node, value)` entries indexed under the key.
    pub entries: usize,
    /// Number of distinct indexed values (hash classes).
    pub distinct: usize,
}

impl IndexCardinality {
    /// Expected number of nodes returned by an equality seek, under the
    /// uniform-values assumption. Zero when nothing is indexed.
    pub fn seek_estimate(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.entries as f64 / self.distinct as f64
        }
    }
}

/// Inserts into a posting list, keeping it sorted by node id. Posting
/// lists are **canonically ordered**: the common case (a freshly created
/// node, whose id exceeds every existing one) is an O(1) append, while
/// late label/property additions to old nodes pay a binary-search insert.
/// Canonical order is what lets crash recovery rebuild every index
/// bit-identical to the incrementally-maintained one — index state is a
/// pure function of graph content, never of mutation history.
fn insert_sorted(list: &mut Vec<NodeId>, n: NodeId) {
    match list.last() {
        Some(&last) if last >= n => {
            if let Err(pos) = list.binary_search(&n) {
                list.insert(pos, n);
            }
        }
        _ => list.push(n),
    }
}

/// Shards per value-bucket map. The copy-on-write bill of the first
/// mutation touching a key after a snapshot clone is one shard's map
/// copy — 1/32 of the key's distinct values — instead of the whole map
/// (a point `SET` on a 100k-distinct-values key drops from ~ms to ~µs).
const BUCKET_SHARDS: usize = 32;

/// One value-bucketed posting-list map plus its running totals,
/// **sharded** by bucket hash for copy-on-write friendliness. Every
/// level is `Arc`-shared: cloning copies shard *pointers*, mutating
/// copies the one touched shard map and the one touched posting list,
/// each once per clone generation via [`Arc::make_mut`].
#[derive(Debug, Clone)]
struct ValueBuckets {
    shards: Vec<Arc<FxHashMap<u64, Arc<Vec<NodeId>>>>>,
    entries: usize,
}

impl Default for ValueBuckets {
    fn default() -> Self {
        ValueBuckets {
            shards: (0..BUCKET_SHARDS).map(|_| Arc::default()).collect(),
            entries: 0,
        }
    }
}

/// Which shard a bucket hash lives in. Low bits: `value_bucket` hashes
/// are finalized (well-mixed), so any bit window spreads evenly.
fn shard_of(bucket: u64) -> usize {
    (bucket as usize) & (BUCKET_SHARDS - 1)
}

impl ValueBuckets {
    fn insert(&mut self, bucket: u64, n: NodeId) {
        let shard = Arc::make_mut(&mut self.shards[shard_of(bucket)]);
        insert_sorted(Arc::make_mut(shard.entry(bucket).or_default()), n);
        self.entries += 1;
    }

    fn remove(&mut self, bucket: u64, n: NodeId) {
        let shard = Arc::make_mut(&mut self.shards[shard_of(bucket)]);
        if let Some(list) = shard.get_mut(&bucket) {
            if let Ok(pos) = list.binary_search(&n) {
                Arc::make_mut(list).remove(pos);
                self.entries -= 1;
                if list.is_empty() {
                    shard.remove(&bucket);
                }
            }
        }
    }

    fn candidates(&self, bucket: u64) -> &[NodeId] {
        self.shards[shard_of(bucket)]
            .get(&bucket)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    fn cardinality(&self) -> IndexCardinality {
        IndexCardinality {
            entries: self.entries,
            distinct: self.shards.iter().map(|s| s.len()).sum(),
        }
    }

    /// Canonical rendering: buckets sorted by hash, lists verbatim.
    /// Shard layout is invisible here — the dump is a pure function of
    /// the indexed content, exactly as before sharding.
    fn dump(&self) -> String {
        use std::fmt::Write;
        let mut buckets: Vec<(u64, &Vec<NodeId>)> = self
            .shards
            .iter()
            .flat_map(|s| s.iter().map(|(&h, v)| (h, &**v)))
            .collect();
        buckets.sort_by_key(|&(h, _)| h);
        let mut s = String::new();
        for (h, nodes) in buckets {
            write!(s, "{h:016x}={nodes:?} ").unwrap();
        }
        s
    }
}

/// The full set of node indexes of one [`crate::graph::PropertyGraph`].
///
/// The store owns exactly one `IndexSet` and routes every node mutation
/// through the `on_*` hooks below; each hook is O(labels × properties
/// touched) — the incremental cost of staying consistent.
/// Every posting structure is `Arc`-shared copy-on-write: cloning an
/// `IndexSet` is O(indexed labels + keys + (label, key) pairs) pointer
/// bumps, and a mutation after a clone copies only the structures it
/// touches (see [`crate::version`] for the multi-version protocol this
/// serves).
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    /// `ℓ → nodes`, sorted by node id (scan order is deterministic *and*
    /// canonical — see [`insert_sorted`]).
    labels: FxHashMap<Symbol, Arc<Vec<NodeId>>>,
    /// `k → value → nodes`.
    props: FxHashMap<Symbol, Arc<ValueBuckets>>,
    /// `(ℓ, k) → value → nodes` — the composite index backing
    /// `PropertyIndexSeek`.
    label_props: FxHashMap<(Symbol, Symbol), Arc<ValueBuckets>>,
}

impl IndexSet {
    /// Creates an empty index set.
    pub fn new() -> Self {
        Self::default()
    }

    // -- mutation hooks ------------------------------------------------------

    /// A node was created with the given labels and properties. `labels`
    /// must already be deduplicated.
    pub fn on_node_added(&mut self, n: NodeId, labels: &[Symbol], props: &[(Symbol, u64)]) {
        for &l in labels {
            insert_sorted(Arc::make_mut(self.labels.entry(l).or_default()), n);
        }
        for &(k, bucket) in props {
            Arc::make_mut(self.props.entry(k).or_default()).insert(bucket, n);
            for &l in labels {
                Arc::make_mut(self.label_props.entry((l, k)).or_default()).insert(bucket, n);
            }
        }
    }

    /// A node is being removed; `labels`/`props` describe its state at
    /// removal time.
    pub fn on_node_removed(&mut self, n: NodeId, labels: &[Symbol], props: &[(Symbol, u64)]) {
        for &l in labels {
            if let Some(list) = self.labels.get_mut(&l) {
                Arc::make_mut(list).retain(|&x| x != n);
            }
        }
        for &(k, bucket) in props {
            if let Some(b) = self.props.get_mut(&k) {
                Arc::make_mut(b).remove(bucket, n);
            }
            for &l in labels {
                if let Some(b) = self.label_props.get_mut(&(l, k)) {
                    Arc::make_mut(b).remove(bucket, n);
                }
            }
        }
    }

    /// A label was added to a live node with the given current properties.
    pub fn on_label_added(&mut self, n: NodeId, l: Symbol, props: &[(Symbol, u64)]) {
        insert_sorted(Arc::make_mut(self.labels.entry(l).or_default()), n);
        for &(k, bucket) in props {
            Arc::make_mut(self.label_props.entry((l, k)).or_default()).insert(bucket, n);
        }
    }

    /// A label was removed from a live node with the given current
    /// properties.
    pub fn on_label_removed(&mut self, n: NodeId, l: Symbol, props: &[(Symbol, u64)]) {
        if let Some(list) = self.labels.get_mut(&l) {
            Arc::make_mut(list).retain(|&x| x != n);
        }
        for &(k, bucket) in props {
            if let Some(b) = self.label_props.get_mut(&(l, k)) {
                Arc::make_mut(b).remove(bucket, n);
            }
        }
    }

    /// A property value was set on a node carrying `labels`.
    pub fn on_prop_set(&mut self, n: NodeId, labels: &[Symbol], k: Symbol, bucket: u64) {
        Arc::make_mut(self.props.entry(k).or_default()).insert(bucket, n);
        for &l in labels {
            Arc::make_mut(self.label_props.entry((l, k)).or_default()).insert(bucket, n);
        }
    }

    /// A property value was removed from a node carrying `labels`.
    pub fn on_prop_removed(&mut self, n: NodeId, labels: &[Symbol], k: Symbol, bucket: u64) {
        if let Some(b) = self.props.get_mut(&k) {
            Arc::make_mut(b).remove(bucket, n);
        }
        for &l in labels {
            if let Some(b) = self.label_props.get_mut(&(l, k)) {
                Arc::make_mut(b).remove(bucket, n);
            }
        }
    }

    // -- lookups -------------------------------------------------------------

    /// Live nodes with the given label, in insertion order.
    pub fn nodes_with_label(&self, l: Symbol) -> &[NodeId] {
        self.labels.get(&l).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Candidate nodes whose property `k` hashes like `v`. Callers must
    /// re-check equivalence (hash classes may collide).
    pub fn prop_candidates(&self, k: Symbol, bucket: u64) -> &[NodeId] {
        self.props
            .get(&k)
            .map(|b| b.candidates(bucket))
            .unwrap_or(&[])
    }

    /// Candidate nodes with label `l` whose property `k` hashes like `v`.
    pub fn label_prop_candidates(&self, l: Symbol, k: Symbol, bucket: u64) -> &[NodeId] {
        self.label_props
            .get(&(l, k))
            .map(|b| b.candidates(bucket))
            .unwrap_or(&[])
    }

    // -- statistics ----------------------------------------------------------

    /// Number of nodes carrying the label.
    pub fn label_cardinality(&self, l: Symbol) -> usize {
        self.nodes_with_label(l).len()
    }

    /// Cardinality statistics of the property index for `k`.
    pub fn prop_cardinality(&self, k: Symbol) -> IndexCardinality {
        self.props
            .get(&k)
            .map(|b| b.cardinality())
            .unwrap_or_default()
    }

    /// Cardinality statistics of the composite index for `(l, k)`.
    pub fn label_prop_cardinality(&self, l: Symbol, k: Symbol) -> IndexCardinality {
        self.label_props
            .get(&(l, k))
            .map(|b| b.cardinality())
            .unwrap_or_default()
    }

    /// Iterates over `(label, node count)` pairs for every indexed label.
    pub fn label_cardinalities(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.labels.iter().map(|(&l, v)| (l, v.len()))
    }

    /// Iterates over `(key, cardinality)` pairs for every indexed
    /// property key.
    pub fn prop_cardinalities(&self) -> impl Iterator<Item = (Symbol, IndexCardinality)> + '_ {
        self.props.iter().map(|(&k, b)| (k, b.cardinality()))
    }

    // -- canonical dump ------------------------------------------------------

    /// Renders the complete index contents in a canonical, hash-map-order-
    /// independent form: labels/keys are resolved to strings through
    /// `resolve` and sorted, value buckets are sorted by bucket hash, and
    /// posting lists appear verbatim (they are sorted by construction).
    ///
    /// Two `IndexSet`s with equal dumps answer every lookup identically —
    /// this is the "bit-identical indexes" witness of the crash-recovery
    /// differential suite.
    pub fn canonical_dump(&self, resolve: &dyn Fn(Symbol) -> String, out: &mut String) {
        use std::fmt::Write;
        let mut labels: Vec<(String, &Vec<NodeId>)> = self
            .labels
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&l, v)| (resolve(l), &**v))
            .collect();
        labels.sort();
        for (l, nodes) in labels {
            writeln!(out, "label-index {l}: {nodes:?}").unwrap();
        }
        let mut props: Vec<(String, &ValueBuckets)> = self
            .props
            .iter()
            .filter(|(_, b)| b.entries > 0)
            .map(|(&k, b)| (resolve(k), &**b))
            .collect();
        props.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, b) in props {
            writeln!(out, "prop-index {k}: {}", b.dump()).unwrap();
        }
        let mut composite: Vec<(String, String, &ValueBuckets)> = self
            .label_props
            .iter()
            .filter(|(_, b)| b.entries > 0)
            .map(|(&(l, k), b)| (resolve(l), resolve(k), &**b))
            .collect();
        composite.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        for (l, k, b) in composite {
            writeln!(out, "composite-index {l}/{k}: {}", b.dump()).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        // Symbols are plain newtyped indices; fabricate them directly.
        Symbol(i)
    }

    #[test]
    fn composite_index_tracks_label_and_prop_churn() {
        let mut idx = IndexSet::new();
        let (person, name) = (sym(0), sym(1));
        let n = NodeId(0);
        let bucket = value_bucket(&Value::str("Ada"));

        idx.on_node_added(n, &[person], &[(name, bucket)]);
        assert_eq!(idx.label_prop_candidates(person, name, bucket), &[n]);
        assert_eq!(idx.label_prop_cardinality(person, name).entries, 1);

        // Removing the label drops the composite entry but keeps the
        // key-only one.
        idx.on_label_removed(n, person, &[(name, bucket)]);
        assert!(idx.label_prop_candidates(person, name, bucket).is_empty());
        assert_eq!(idx.prop_candidates(name, bucket), &[n]);

        // Re-adding the label restores it.
        idx.on_label_added(n, person, &[(name, bucket)]);
        assert_eq!(idx.label_prop_candidates(person, name, bucket), &[n]);

        idx.on_node_removed(n, &[person], &[(name, bucket)]);
        assert!(idx.label_prop_candidates(person, name, bucket).is_empty());
        assert!(idx.prop_candidates(name, bucket).is_empty());
        assert_eq!(idx.label_cardinality(person), 0);
    }

    #[test]
    fn seek_estimate_is_entries_over_distinct() {
        let mut idx = IndexSet::new();
        let k = sym(0);
        for i in 0..10u64 {
            // Five distinct values, two nodes each.
            idx.on_prop_set(NodeId(i), &[], k, i % 5);
        }
        let c = idx.prop_cardinality(k);
        assert_eq!(c.entries, 10);
        assert_eq!(c.distinct, 5);
        assert!((c.seek_estimate() - 2.0).abs() < f64::EPSILON);
        assert_eq!(IndexCardinality::default().seek_estimate(), 0.0);
    }
}
