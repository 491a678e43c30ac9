//! Incremental view maintenance: delta-maintained standing queries.
//!
//! A **view** is a read-only query registered once with
//! [`crate::Database::create_view`] and kept materialized across commits.
//! On every published commit group the registry folds the group's change
//! records into each view's persistent state as **deltas** — retractions
//! enumerated against the pre-group graph, insertions against the
//! post-group graph — and publishes the refreshed output table
//! *atomically with the data version*: a reader that sees version `v`
//! of the graph sees exactly the view contents of version `v`.
//!
//! ## Maintenance modes
//!
//! [`ViewEntry`] classifies each view once, at creation:
//!
//! * **Grouped-aggregate fold** — the match half compiles to a
//!   [`DeltaPlan`] (single rigid path, no graph-rescanning expressions)
//!   and the projection aggregates or deduplicates through retractable
//!   aggregators only ([`cypher_core::aggregate::AggKind::is_retractable`]),
//!   with bare aggregate items, no `SKIP`/`LIMIT`, and `ORDER BY`
//!   restricted to projected columns. The persistent state is a
//!   [`GroupedAggState`]; a refresh retracts the old rows, feeds the new
//!   ones, and snapshots the live groups — O(changed rows + live groups)
//!   per commit, independent of the base table size. The changed rows
//!   are enumerated by the engine's own planner and morsel driver,
//!   anchored at the changed nodes ([`DeltaPlan::affected_rows`]).
//! * **Counted-bag projection** — same match half, but a plain
//!   (non-aggregating, non-`DISTINCT`) projection. The state is a
//!   [`CountedMap`] of projected rows, each keyed by its precomputed
//!   `ORDER BY` keys followed by its values; a refresh adjusts counts —
//!   O(changed rows) — and re-sorts at publication.
//! * **Full recomputation** — everything else. The view stays correct (the query is re-run against each published
//!   version) but pays full evaluation per commit;
//!   `cypher_view_full_recomputes_total` counts these so operators can
//!   see which standing queries missed the fast path.
//!
//! The grouped fold's groups, the counted bag and the bag difference of
//! subscriber frames all count rows in the one [`CountedMap`], so they
//! share its equivalence, tombstone and compaction rules.
//!
//! A delta fold that cannot find a row it must retract (which would mean
//! the maintained state diverged) falls back to a one-off full
//! recomputation instead of publishing a corrupt table — correctness
//! never depends on the incremental path being right, only speed does.
//!
//! Output tables are compared and diffed as **bags**: among rows with
//! equal `ORDER BY` keys (or in unordered views), the maintained row
//! order may differ from a cold re-evaluation's.
//!
//! ## Subscriptions
//!
//! [`ViewSubscription`] delivers one [`ViewChange`] per published commit
//! group that changed the view's contents: the bag difference (added and
//! removed rows) between the previous and the new published table,
//! stamped with the version. Replaying the changes on top of the initial
//! table reproduces every published state in order.

use crate::registry::DatabaseMetrics;
use crate::{Error, Record, Schema, Table};
use cypher_ast::expr::Expr;
use cypher_ast::query::{Query, SortItem};
use cypher_core::bag::CountedMap;
use cypher_core::clauses::apply_order_by_scoped;
use cypher_core::error::EvalError;
use cypher_core::project::{cmp_sort_keys, sort_keys, GroupedAggState, ProjectionPlan};
use cypher_core::{Bindings, EvalContext, Params};
use cypher_engine::{DeltaPlan, EngineConfig};
use cypher_graph::{affected_nodes, Change, GraphView, PropertyGraph, Value, ViewRef};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Published tables retained per view: a pinned reader whose snapshot is
/// at most this many versions behind the head reads its exact table from
/// the ring; older pins fall back to cold evaluation.
const PUBLISHED_RING: usize = 64;

/// One delta of a view's contents, pushed to subscribers when a commit
/// group publishes: the bag difference between the previous published
/// table and the one at `version`.
#[derive(Debug, Clone)]
pub struct ViewChange {
    /// The view's name.
    pub name: String,
    /// The published version this delta produces.
    pub version: u64,
    /// Rows present at `version` but not before (with multiplicity).
    pub added: Table,
    /// Rows present before but not at `version` (with multiplicity).
    pub removed: Table,
}

/// A live subscription to one view's change stream (see
/// [`crate::Database::subscribe`]). Dropping it unsubscribes lazily: the
/// registry prunes the channel at its next send.
pub struct ViewSubscription {
    rx: Receiver<ViewChange>,
}

impl ViewSubscription {
    /// Blocks up to `timeout` for the next change frame. `None` on
    /// timeout or when the view was dropped.
    pub fn next_timeout(&self, timeout: Duration) -> Option<ViewChange> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Blocks up to `timeout`, distinguishing "nothing yet" from "the
    /// stream is over" — what a push loop needs to know when to stop.
    pub fn poll(&self, timeout: Duration) -> SubscriptionPoll {
        match self.rx.recv_timeout(timeout) {
            Ok(c) => SubscriptionPoll::Frame(c),
            Err(RecvTimeoutError::Timeout) => SubscriptionPoll::Idle,
            Err(RecvTimeoutError::Disconnected) => SubscriptionPoll::Closed,
        }
    }
}

/// Outcome of one [`ViewSubscription::poll`] round.
#[derive(Debug)]
pub enum SubscriptionPoll {
    /// A committed version changed the view's rows.
    Frame(ViewChange),
    /// Nothing arrived within the timeout; the subscription is live.
    Idle,
    /// The view was dropped (or its database closed): no further frames
    /// will ever arrive.
    Closed,
}

/// A delta-maintained view: its match half, its projection, and the
/// state the match rows fold into.
struct Fold {
    delta: DeltaPlan,
    proj: ProjectionPlan,
    order: Vec<SortItem>,
    state: FoldState,
}

/// The persistent state of a [`Fold`].
enum FoldState {
    /// Aggregation and/or `DISTINCT` folded with exact retraction support.
    Agg(GroupedAggState),
    /// Counted bag of projected rows for plain projections.
    Rows(CountedBag),
}

impl Fold {
    fn mode_name(&self) -> &'static str {
        match self.state {
            FoldState::Agg(_) => "grouped-aggregate fold",
            FoldState::Rows(_) => "counted-bag projection",
        }
    }

    /// Folds one match row in (evaluated against `ctx`'s graph).
    fn insert(&mut self, ctx: &EvalContext<'_>, row: &Record) -> Result<(), EvalError> {
        match &mut self.state {
            FoldState::Agg(state) => state.feed(ctx, &self.proj, self.delta.schema(), row),
            FoldState::Rows(bag) => {
                bag.add(bag_key(ctx, &self.proj, &self.delta, &self.order, row)?);
                Ok(())
            }
        }
    }

    /// Takes one match row out; `false` when the state never held it
    /// (the state diverged).
    fn retract(&mut self, ctx: &EvalContext<'_>, row: &Record) -> Result<bool, EvalError> {
        match &mut self.state {
            FoldState::Agg(state) => state.retract(ctx, &self.proj, self.delta.schema(), row),
            FoldState::Rows(bag) => {
                let key = bag_key(ctx, &self.proj, &self.delta, &self.order, row)?;
                Ok(bag.remove(&key).is_some())
            }
        }
    }

    /// Empties the state and folds in every row of `ctx`'s graph.
    fn rebuild(&mut self, ctx: &EvalContext<'_>, cfg: &EngineConfig) -> Result<(), EvalError> {
        match &mut self.state {
            FoldState::Agg(state) => *state = GroupedAggState::default(),
            FoldState::Rows(bag) => bag.clear(),
        }
        for row in self.delta.all_rows(ctx, cfg)? {
            self.insert(ctx, &row)?;
        }
        Ok(())
    }

    /// The output table of the current state, `ORDER BY` applied.
    fn publish(&self, ctx: &EvalContext<'_>) -> Result<Table, EvalError> {
        match &self.state {
            FoldState::Agg(state) => {
                let out = state.finalize_snapshot(ctx, &self.proj, self.delta.schema())?;
                if self.order.is_empty() {
                    return Ok(out);
                }
                apply_order_by_scoped(ctx, &self.order, out, None)
            }
            FoldState::Rows(bag) => Ok(expand(bag, self.proj.out_schema().clone(), &self.order)),
        }
    }

    /// Folds one commit group's delta — retractions enumerated against
    /// `old`, insertions against `new_graph` — and returns the new output
    /// table. A retraction the state cannot find rebuilds it from
    /// `new_graph` rather than publish a corrupt table.
    fn refresh(
        &mut self,
        old: &GraphView,
        new_graph: &PropertyGraph,
        changes: &[&[Change]],
        cfg: &EngineConfig,
        metrics: &DatabaseMetrics,
    ) -> Result<Table, EvalError> {
        let mut affected = Vec::new();
        for batch in changes {
            affected.extend(affected_nodes(batch, old.graph()));
        }
        affected.sort_unstable();
        affected.dedup();
        let params = Params::new();
        let ctx_old = EvalContext::new(old.graph(), &params).with_config(cfg.match_config);
        let ctx_new = EvalContext::new(new_graph, &params).with_config(cfg.match_config);
        let retractions = self.delta.affected_rows(&ctx_old, cfg, &affected)?;
        let insertions = self.delta.affected_rows(&ctx_new, cfg, &affected)?;
        if metrics.enabled() {
            metrics
                .view_delta_rows
                .add((retractions.len() + insertions.len()) as u64);
        }
        let mut consistent = true;
        for row in &retractions {
            if !self.retract(&ctx_old, row)? {
                consistent = false;
                break;
            }
        }
        if consistent {
            for row in &insertions {
                self.insert(&ctx_new, row)?;
            }
        } else {
            if metrics.enabled() {
                metrics.view_full_recomputes.inc();
            }
            self.rebuild(&ctx_new, cfg)?;
        }
        self.publish(&ctx_new)
    }
}

/// The persistent state of a `Rows` view: its projected rows, counted,
/// each keyed by its precomputed `ORDER BY` keys followed by its values.
type CountedBag = CountedMap<Vec<Value>, ()>;

/// Expands the live rows of `bag` into an output table, stably sorted by
/// their precomputed keys per `order` (slot order among equal keys).
fn expand(bag: &CountedBag, schema: Arc<Schema>, order: &[SortItem]) -> Table {
    let mut live: Vec<_> = bag.iter().collect();
    live.sort_by(|(a, ..), (b, ..)| cmp_sort_keys(order.iter().map(|k| k.ascending), a, b));
    let mut out = Table::empty(schema);
    for (key, count, _) in live {
        for _ in 0..count {
            out.push(Record::new(key[order.len()..].to_vec()));
        }
    }
    out
}

/// True when `e` is a plain variable reference to one of `schema`'s
/// columns — the conservative shape under which an aggregate view's
/// `ORDER BY` is guaranteed to be computable from the finalized output
/// alone (no group representative row needed).
fn is_output_column_ref(e: &Expr, schema: &Schema) -> bool {
    matches!(e, Expr::Var(name) if schema.contains(name))
}

/// One registered standing query.
struct ViewEntry {
    name: String,
    query_text: String,
    query: Arc<Query>,
    /// How the output is kept current across commits: delta-folded, or
    /// (`None`) the whole query re-run against each published version.
    fold: Option<Fold>,
    /// `(version, output)` ring of recent publications, newest last.
    published: VecDeque<(u64, Arc<Table>)>,
    subs: Vec<Sender<ViewChange>>,
    /// Set when a refresh failed even after the full-recompute fallback;
    /// reads surface it instead of a stale table.
    broken: Option<String>,
}

impl ViewEntry {
    /// Classifies `query` and materializes the initial state and table
    /// against `at`.
    fn create(
        name: &str,
        text: &str,
        query: Arc<Query>,
        at: &GraphView,
        cfg: &EngineConfig,
    ) -> Result<ViewEntry, Error> {
        let mut fold = Self::classify(&query);
        let initial = match &mut fold {
            None => cold_eval(at, &query, cfg)?,
            Some(fold) => {
                let params = Params::new();
                let ctx = EvalContext::new(at.graph(), &params).with_config(cfg.match_config);
                fold.rebuild(&ctx, cfg)?;
                fold.publish(&ctx)?
            }
        };
        let mut published = VecDeque::with_capacity(PUBLISHED_RING);
        published.push_back((at.version(), Arc::new(initial)));
        Ok(ViewEntry {
            name: name.to_string(),
            query_text: text.to_string(),
            query,
            fold,
            published,
            subs: Vec::new(),
            broken: None,
        })
    }

    /// Picks the maintenance mode for `query`: `None` (full
    /// recomputation) for anything outside the delta-foldable fragment —
    /// a correct, if slower, view; genuinely invalid queries fail at the
    /// initial materialization instead.
    fn classify(query: &Query) -> Option<Fold> {
        let delta = DeltaPlan::compile(query)?;
        let Query::Single(sq) = query else {
            return None;
        };
        let ret = sq.ret.as_ref()?;
        let proj = ProjectionPlan::compile(ret, delta.visible_schema()).ok()?;
        // SKIP/LIMIT slice an ordered sequence: under churn the slice
        // boundary depends on tie order among equal keys, which a
        // maintained bag does not preserve — always recompute.
        if ret.skip.is_some() || ret.limit.is_some() {
            return None;
        }
        let order = ret.order_by.clone();
        let state = if proj.is_aggregating() || ret.distinct {
            // DISTINCT *after* aggregation is a second dedup layer the
            // single grouped state cannot express.
            if proj.is_aggregating() && ret.distinct {
                return None;
            }
            if !proj.all_aggs_retractable() || !proj.aggregated_items_are_bare() {
                return None;
            }
            // Group representative rows are not retained (a retraction
            // may concern entities deleted from the graph), so sort keys
            // must be answerable from the output columns alone.
            if !ret
                .order_by
                .iter()
                .all(|s| is_output_column_ref(&s.expr, proj.out_schema()))
            {
                return None;
            }
            FoldState::Agg(GroupedAggState::default())
        } else {
            FoldState::Rows(CountedBag::default())
        };
        Some(Fold {
            delta,
            proj,
            order,
            state,
        })
    }

    /// The published table for a reader pinned at `version`: the newest
    /// publication at or below it. `None` when the pin predates the
    /// retained ring (the caller re-evaluates cold).
    fn published_at(&self, version: u64) -> Option<Arc<Table>> {
        self.published
            .iter()
            .rev()
            .find(|(v, _)| *v <= version)
            .map(|(_, t)| Arc::clone(t))
    }

    fn push_published(&mut self, version: u64, table: Arc<Table>) {
        if self.published.len() >= PUBLISHED_RING {
            self.published.pop_front();
        }
        self.published.push_back((version, table));
    }

    /// Folds one commit group's delta into the state and returns the new
    /// output table. `Err` means even the full-recompute fallback failed.
    fn refresh(
        &mut self,
        old: &GraphView,
        new_graph: &PropertyGraph,
        changes: &[&[Change]],
        cfg: &EngineConfig,
        metrics: &DatabaseMetrics,
    ) -> Result<Table, Error> {
        match &mut self.fold {
            None => {
                if metrics.enabled() {
                    metrics.view_full_recomputes.inc();
                }
                cold_eval(new_graph, &self.query, cfg)
            }
            Some(fold) => Ok(fold.refresh(old, new_graph, changes, cfg, metrics)?),
        }
    }

    /// The `EXPLAIN VIEW` rendering: mode, pattern, the plan each anchor
    /// position runs (planned against `at`, as a fold would), fold shape.
    fn explain(&self, at: &GraphView, cfg: &EngineConfig) -> String {
        let mode = self
            .fold
            .as_ref()
            .map_or("full recomputation", Fold::mode_name);
        let mut s = format!("view {}: {mode}\n", self.name);
        s.push_str(&format!("  query: {}\n", self.query_text.trim()));
        match &self.fold {
            None => {
                s.push_str("  every commit re-evaluates the query against the new version\n");
            }
            Some(Fold {
                delta,
                proj,
                order,
                state,
            }) => {
                let anchors = delta.explain_anchors(at.graph(), cfg);
                let fold = match state {
                    FoldState::Agg(_) => "retract(old) + feed(new)",
                    FoldState::Rows(_) => "counted-bag add/remove",
                };
                s.push_str(&format!("  pattern: {}\n", delta.pattern()));
                s.push_str(&format!(
                    "  delta pass: {} anchor position(s), {fold}\n",
                    anchors.len()
                ));
                for line in anchors {
                    s.push_str(&format!("    {line}\n"));
                }
                if let FoldState::Agg(_) = state {
                    s.push_str(&format!(
                        "  fold: {} group key(s), aggregates [{}]\n",
                        proj.key_names().len(),
                        proj.agg_display().join(", ")
                    ));
                }
                if !order.is_empty() {
                    s.push_str(&format!("  order: {} key(s)\n", order.len()));
                }
            }
        }
        let head = self.published.back();
        if let Some((v, t)) = head {
            s.push_str(&format!("  published: version {v}, {} row(s)\n", t.len()));
        }
        s
    }
}

/// The counted-bag key of one match row: its `ORDER BY` keys, computed
/// under the two-layer scope (projected columns shadow the match row),
/// followed by the projected row's values.
fn bag_key(
    ctx: &EvalContext<'_>,
    proj: &ProjectionPlan,
    delta: &DeltaPlan,
    order: &[SortItem],
    row: &Record,
) -> Result<Vec<Value>, EvalError> {
    let out = proj.project_row(ctx, delta.schema(), row)?;
    if order.is_empty() {
        return Ok(out.into_values());
    }
    let mut key = Vec::with_capacity(order.len() + out.values().len());
    let projected = Bindings::new(proj.out_schema(), &out);
    let source = Bindings::new(delta.schema(), row);
    sort_keys(ctx, order, &projected, Some(&source), &mut key)?;
    key.extend(out.into_values());
    Ok(key)
}

/// Cold evaluation of a view query against a published version or a
/// not-yet-published candidate graph.
pub(crate) fn cold_eval<'a>(
    at: impl Into<ViewRef<'a>>,
    q: &Query,
    cfg: &EngineConfig,
) -> Result<Table, Error> {
    Ok(cypher_engine::execute_read_cached(
        at,
        q,
        &Params::new(),
        cfg,
        None,
    )?)
}

/// The bag difference `new − old` / `old − new`, for subscriber frames.
fn bag_diff(old: &Table, new: &Table) -> (Table, Table) {
    let mut counts = CountedMap::<&[Value], ()>::default();
    for r in old.rows() {
        counts.add(r.values());
    }
    let mut added = Table::empty(new.schema().clone());
    for r in new.rows() {
        if counts.remove(r.values()).is_none() {
            added.push(r.clone());
        }
    }
    let mut removed = Table::empty(old.schema().clone());
    for (r, n, _) in counts.iter() {
        for _ in 0..n {
            removed.push(Record::new(r.to_vec()));
        }
    }
    (added, removed)
}

/// The standing-query registry of one database: lives in the commit
/// pipeline's shared state and is refreshed by whichever thread publishes
/// a commit group, *before* the data version becomes visible — so view
/// contents and graph version move atomically.
pub(crate) struct ViewRegistry {
    cfg: EngineConfig,
    entries: Vec<ViewEntry>,
}

impl ViewRegistry {
    pub(crate) fn new(cfg: EngineConfig) -> ViewRegistry {
        ViewRegistry {
            cfg,
            entries: Vec::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entry(&self, name: &str) -> Option<&ViewEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Registers and materializes a view at `at`. Errors when the name is
    /// taken, the query does not parse, or it is not read-only.
    pub(crate) fn create(&mut self, name: &str, text: &str, at: &GraphView) -> Result<u64, Error> {
        if name.is_empty() {
            return Err(Error::Eval(EvalError::new("view names must be non-empty")));
        }
        if self.entry(name).is_some() {
            return Err(Error::Eval(EvalError::new(format!(
                "view {name} already exists"
            ))));
        }
        let query = Arc::new(crate::parse_query(text)?);
        if query.is_updating() {
            return Err(Error::Eval(EvalError::new(
                "views must be read-only queries",
            )));
        }
        let entry = ViewEntry::create(name, text, query, at, &self.cfg)?;
        self.entries.push(entry);
        Ok(at.version())
    }

    /// Unregisters a view; subscribers see their channel disconnect.
    pub(crate) fn drop_view(&mut self, name: &str) -> Result<(), Error> {
        match self.entries.iter().position(|e| e.name == name) {
            Some(i) => {
                self.entries.remove(i);
                Ok(())
            }
            None => Err(Error::Eval(EvalError::new(format!("no such view: {name}")))),
        }
    }

    pub(crate) fn explain(&self, name: &str, at: &GraphView) -> Result<String, Error> {
        match self.entry(name) {
            Some(e) => Ok(e.explain(at, &self.cfg)),
            None => Err(Error::Eval(EvalError::new(format!("no such view: {name}")))),
        }
    }

    /// The published table for a reader at `version`: `Ok(Some)` from the
    /// ring, `Ok(None)` when the pin predates retention (caller
    /// re-evaluates cold against its own snapshot).
    pub(crate) fn read_at(&self, name: &str, version: u64) -> Result<Option<Arc<Table>>, Error> {
        let Some(e) = self.entry(name) else {
            return Err(Error::Eval(EvalError::new(format!("no such view: {name}"))));
        };
        if let Some(msg) = &e.broken {
            return Err(Error::Eval(EvalError::new(format!(
                "view {name} is broken: {msg}"
            ))));
        }
        Ok(e.published_at(version))
    }

    /// The query text of `name` (for cold fallback evaluation).
    pub(crate) fn query_of(&self, name: &str) -> Result<Arc<Query>, Error> {
        match self.entry(name) {
            Some(e) => Ok(Arc::clone(&e.query)),
            None => Err(Error::Eval(EvalError::new(format!("no such view: {name}")))),
        }
    }

    /// Opens a change-stream subscription on `name`.
    pub(crate) fn subscribe(&mut self, name: &str) -> Result<ViewSubscription, Error> {
        let Some(e) = self.entries.iter_mut().find(|e| e.name == name) else {
            return Err(Error::Eval(EvalError::new(format!("no such view: {name}"))));
        };
        let (tx, rx) = mpsc::channel();
        e.subs.push(tx);
        Ok(ViewSubscription { rx })
    }

    /// Refreshes every view for one publishing commit group. Called by
    /// the publisher with the pre-group published view (`old`), the
    /// group's final candidate graph, the version it will publish as, and
    /// the members' change batches in commit order.
    pub(crate) fn refresh_all(
        &mut self,
        old: &GraphView,
        new_graph: &PropertyGraph,
        new_version: u64,
        changes: &[&[Change]],
        metrics: &DatabaseMetrics,
    ) {
        let ViewRegistry { cfg, entries } = self;
        for e in entries {
            if e.broken.is_some() {
                continue;
            }
            let started = Instant::now();
            let refreshed = e.refresh(old, new_graph, changes, cfg, metrics);
            match refreshed {
                Ok(table) => {
                    let table = Arc::new(table);
                    if !e.subs.is_empty() {
                        let prev = e.published.back().map(|(_, t)| Arc::clone(t));
                        if let Some(prev) = prev {
                            let (added, removed) = bag_diff(&prev, &table);
                            if !added.is_empty() || !removed.is_empty() {
                                let change = ViewChange {
                                    name: e.name.clone(),
                                    version: new_version,
                                    added,
                                    removed,
                                };
                                e.subs.retain(|s| s.send(change.clone()).is_ok());
                            }
                        }
                    }
                    e.push_published(new_version, table);
                }
                Err(err) => {
                    // Publishing a stale table would silently violate the
                    // version-atomicity contract; surface the failure on
                    // every subsequent read instead.
                    e.broken = Some(err.to_string());
                }
            }
            if metrics.enabled() {
                metrics
                    .view_refresh_us
                    .record(started.elapsed().as_micros() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: Vec<Vec<i64>>) -> Table {
        let schema = Schema::new(vec!["a".into(), "b".into()]);
        let mut t = Table::empty(schema);
        for r in rows {
            t.push(Record::new(r.into_iter().map(Value::int).collect()));
        }
        t
    }

    #[test]
    fn bag_diff_reports_multiplicity() {
        let old = table(vec![vec![1, 1], vec![2, 2], vec![2, 2], vec![3, 3]]);
        let new = table(vec![vec![2, 2], vec![3, 3], vec![3, 3], vec![4, 4]]);
        let (added, removed) = bag_diff(&old, &new);
        // new − old: one extra (3,3) and (4,4); old − new: (1,1), one (2,2).
        assert_eq!(added.len(), 2);
        assert_eq!(removed.len(), 2);
        let has = |t: &Table, v: i64, n: usize| {
            t.rows()
                .iter()
                .filter(|r| r.get(0).equivalent(&Value::int(v)))
                .count()
                == n
        };
        assert!(has(&added, 3, 1) && has(&added, 4, 1));
        assert!(has(&removed, 1, 1) && has(&removed, 2, 1));
    }
}
