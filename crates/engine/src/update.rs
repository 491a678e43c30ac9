//! Updating clauses (paper Section 2, "Data modification"): `CREATE`,
//! `DELETE` / `DETACH DELETE`, `SET`, `REMOVE`, and `MERGE` ("tries to
//! match the given pattern, and creates the pattern if no match was
//! found").
//!
//! Each clause remains a function from tables to tables — `CREATE` and
//! `MERGE` extend rows with the entities they bind, the others pass rows
//! through — so updating queries compose linearly exactly like reading
//! ones. Each ends its segment in the `Write` sink: the segment's steps
//! read the graph as it was before the clause, and the sink applies the
//! arriving rows in row order to the graph itself, evaluating its own
//! expressions against the graph as earlier rows left it.
//!
//! **Index maintenance**: every mutation here bottoms out in a
//! [`PropertyGraph`] mutator (`add_node_syms`, `set_node_prop`,
//! `add_label`, `detach_delete_node`, …), each of which updates the
//! label, property and composite label/property indexes incrementally
//! (see `cypher_graph::index`). There is no code path that changes the
//! store without updating the indexes, so a `MATCH` planned against the
//! indexes right after any sequence of update clauses sees exactly the
//! mutated graph — the invariant the differential test suite
//! (`tests/index_differential.rs`) exercises.

use crate::exec::{EngineConfig, Segment};
use crate::ops::{Collect, Sink};
use crate::planner::{plan_match, WcoJoinMode};
use crate::pushdown::project_visible;
use cypher_ast::expr::Expr;
use cypher_ast::pattern::{Dir, NodePattern, PathPattern};
use cypher_ast::query::{Clause, RemoveItem, SetItem};
use cypher_core::error::{err, EvalError};
use cypher_core::expr::{eval_expr, Bindings};
use cypher_core::matching::unbound_free_vars;
use cypher_core::table::{Record, RowBatch, Schema, Table};
use cypher_core::{EvalContext, Params};
use cypher_graph::fxhash::FxHashMap;
use cypher_graph::{NodeId, PropertyGraph, RelId, Symbol, Value, ViewRef};
use std::slice;
use std::sync::{Arc, Mutex};

/// The sink an updating clause's segment runs into. The driver runs a
/// write segment on the calling thread, so batches arrive in row order;
/// each row is applied as it arrives, inside the clause's one
/// [`PropertyGraph::bulk_load`] scope. The steps read a snapshot taken
/// before the scope; what reads the graph being written intersects no
/// lists (see [`merge_segment`]; pattern expressions walk `expand`), and
/// deletes find entries by relationship id.
pub(crate) struct Write<'w> {
    clause: &'w Clause,
    params: &'w Params,
    cfg: &'w EngineConfig,
    /// The fields in scope at the end of the segment, which the clause
    /// reads.
    visible: Arc<Schema>,
    /// The rows the clause answers (see [`written`]).
    out: Arc<Schema>,
    /// `MERGE`'s match plan.
    merge: Option<Segment>,
    /// Whether a later clause reads the answered rows: an update-only
    /// statement keeps none.
    keep: bool,
    /// The graph written to.
    graph: Mutex<&'w mut PropertyGraph>,
}

/// What a [`Write`] run keeps: the answered rows, and what a `DELETE`
/// removes when the clause ends.
#[derive(Default)]
pub(crate) struct Kept {
    rows: Vec<Record>,
    nodes: Vec<NodeId>,
    rels: Vec<RelId>,
}

impl<'w> Write<'w> {
    /// The sink of `clause` over a segment whose fields in scope are
    /// `visible`, applying to `g`; `merge` is [`merge_segment`] for a
    /// `MERGE`.
    pub(crate) fn new(
        g: &'w mut PropertyGraph,
        clause: &'w Clause,
        visible: &Arc<Schema>,
        merge: Option<Segment>,
        keep: bool,
        (params, cfg): (&'w Params, &'w EngineConfig),
    ) -> Self {
        Write {
            clause,
            params,
            cfg,
            visible: visible.clone(),
            out: written(clause, visible),
            merge,
            keep,
            graph: Mutex::new(g),
        }
    }

    /// Applies one batch of the pipeline's rows (schema `schema`) to `g`
    /// in order.
    fn batch(
        &self,
        g: &mut PropertyGraph,
        schema: &Schema,
        batch: RowBatch,
        kept: &mut Kept,
    ) -> Result<(), EvalError> {
        let (params, cfg) = (self.params, self.cfg);
        let mut build = Builder::new(params, cfg, None);
        let new_vars = &self.out.names()[self.visible.len()..];
        let mut keep = |row| {
            if self.keep {
                kept.rows.push(row);
            }
        };
        for row in self.visible_rows(schema, batch) {
            let at = (&*self.visible, &row);
            match self.clause {
                Clause::Create { patterns } => {
                    keep(build.row(g, patterns, &self.visible, &row, new_vars)?);
                    continue;
                }
                Clause::Merge {
                    pattern,
                    on_create,
                    on_match,
                } => {
                    let matches = {
                        let merge = self.merge.as_ref().expect("MERGE has its match plan");
                        let ctx = EvalContext::new(g, params).with_config(cfg.match_config);
                        let one = Table::new(self.visible.clone(), vec![row.clone()]);
                        let raw = merge.run(&ctx, cfg, one, &Collect, None, None)?;
                        project_visible(raw, &self.out).into_rows()
                    };
                    if matches.is_empty() {
                        let pats = slice::from_ref(pattern);
                        let made = build.row(g, pats, &self.visible, &row, new_vars)?;
                        self.set_items(g, on_create, (&*self.out, &made))?;
                        keep(made);
                    }
                    for m in matches {
                        self.set_items(g, on_match, (&*self.out, &m))?;
                        keep(m);
                    }
                    continue;
                }
                Clause::Set { items } => self.set_items(g, items, at)?,
                Clause::Remove { items } => self.remove_items(g, items, at)?,
                Clause::Delete { exprs, .. } => {
                    for e in exprs {
                        match self.eval(g, at, e)? {
                            Value::Null => {}
                            Value::Node(n) => kept.nodes.push(n),
                            Value::Rel(r) => kept.rels.push(r),
                            Value::Path(p) => {
                                kept.nodes.extend(p.nodes());
                                kept.rels.extend(p.rels());
                            }
                            other => {
                                return err(format!(
                                    "DELETE requires nodes, relationships or paths, got {}",
                                    other.type_name()
                                ))
                            }
                        }
                    }
                }
                _ => return err("not an updating clause"),
            }
            keep(row);
        }
        Ok(())
    }

    /// A batch's rows over the fields in scope, without the hidden
    /// columns of the pipeline's `schema`.
    fn visible_rows(&self, schema: &Schema, batch: RowBatch) -> impl Iterator<Item = Record> {
        let (len, mut cols) = (batch.len(), batch.into_columns());
        if schema.names() != self.visible.names() {
            let at = |n: &String| schema.index_of(n).expect("visible column present");
            let idxs = self.visible.names().iter().map(at);
            cols = idxs.map(|i| std::mem::take(&mut cols[i])).collect();
        }
        RowBatch::new(len, cols).into_records()
    }

    /// Ends the clause, answering the kept rows. `[DETACH] DELETE`
    /// removes what its rows named only now (relationships before nodes),
    /// so that repeated references to the same entity are harmless —
    /// Cypher's end-of-clause visibility rule.
    fn end(&self, g: &mut PropertyGraph, mut kept: Kept) -> Result<Table, EvalError> {
        if let Clause::Delete { detach, .. } = self.clause {
            kept.rels.sort_unstable();
            kept.rels.dedup();
            kept.nodes.sort_unstable();
            kept.nodes.dedup();
            for &r in &kept.rels {
                if g.contains_rel(r) {
                    g.delete_rel(r)?;
                }
            }
            for &n in &kept.nodes {
                if !g.contains_node(n) {
                    continue;
                }
                if *detach {
                    g.detach_delete_node(n)?;
                } else {
                    g.delete_node(n)?;
                }
            }
        }
        Ok(Table::new(self.out.clone(), kept.rows))
    }
}

impl Sink for Write<'_> {
    type Partial = Kept;

    fn partial(&self, _schema: &Arc<Schema>) -> Kept {
        Kept::default()
    }

    fn feed(
        &self,
        _ctx: &EvalContext<'_>,
        schema: &Schema,
        kept: &mut Kept,
        batch: RowBatch,
    ) -> Result<(), EvalError> {
        self.batch(&mut self.graph.lock().unwrap(), schema, batch, kept)
    }

    fn finish(
        &self,
        _ctx: &EvalContext<'_>,
        _schema: &Arc<Schema>,
        mut parts: impl Iterator<Item = Kept>,
    ) -> Result<Table, EvalError> {
        let kept = parts.next().expect("a write segment runs as one morsel");
        self.end(&mut self.graph.lock().unwrap(), kept)
    }

    /// The collected rows applied in order to a copy of the graph the
    /// steps read — the pre-clause graph, which the streamed run applied
    /// the same rows to.
    fn materialized(&self, ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError> {
        let (schema, mut kept) = (raw.schema().clone(), Kept::default());
        ctx.graph.clone().bulk_load(|g| {
            self.batch(g, &schema, RowBatch::from_table(raw), &mut kept)?;
            self.end(g, kept)
        })
    }
}

/// The schema of the rows `clause` answers over the fields `visible`:
/// `CREATE` and `MERGE` append their patterns' new names in binding
/// order, the other updating clauses pass rows through.
pub(crate) fn written(clause: &Clause, visible: &Arc<Schema>) -> Arc<Schema> {
    let patterns = match clause {
        Clause::Create { patterns } => patterns,
        Clause::Merge { pattern, .. } => slice::from_ref(pattern),
        _ => return visible.clone(),
    };
    let new_vars = unbound_free_vars(patterns, &|n| visible.contains(n));
    Schema::new([visible.names(), &new_vars].concat())
}

/// `MERGE`'s match plan (`None` for any other clause): its pattern
/// planned once over the fields `visible`, which are pre-bound, as a
/// segment of its own. Per driving row it runs against the graph as
/// earlier rows left it, so MERGE sees its own creations, and binds all
/// matches (`ON MATCH` applies to them in the plan's row order) or
/// creates the pattern. It never intersects: the write scope leaves
/// lists out of order.
pub(crate) fn merge_segment(
    view: ViewRef<'_>,
    visible: &Arc<Schema>,
    clause: &Clause,
    cfg: &EngineConfig,
) -> Option<Segment> {
    let Clause::Merge { pattern, .. } = clause else {
        return None;
    };
    let cfg = cfg.clone().with_wco_join(WcoJoinMode::Off);
    let planned = plan_match(view, visible.names(), slice::from_ref(pattern), &cfg);
    let mut seg = Segment::new(visible.clone());
    seg.push_match("MERGE", &planned, None);
    Some(seg)
}

/// A driving row: its schema and values.
type Row<'r> = (&'r Schema, &'r Record);

/// The names a row's patterns created so far, with what they bound.
type Made = Vec<(String, Value)>;

struct RowView<'a> {
    row: Row<'a>,
    made: &'a [(String, Value)],
}

impl cypher_core::VarLookup for RowView<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        let (schema, row) = self.row;
        self.made
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| schema.index_of(name).map(|i| row.get(i).clone()))
    }
}

/// The one pattern-construction walker, behind `CREATE`, `MERGE`'s create
/// branch and `RETURN GRAPH`: it builds a pattern tuple once per row into
/// a graph, and a name it creates denotes that entity for the rest of the
/// row.
pub(crate) struct Builder<'s> {
    params: &'s Params,
    cfg: &'s EngineConfig,
    /// How a node variable bound by the driving row resolves. `None`
    /// (`CREATE`, `MERGE`): it is that node, and expressions read the
    /// graph being built. `Some` (`RETURN GRAPH`): a copy of the node from
    /// this source graph, made once per node; expressions read the source.
    copy: Option<(&'s PropertyGraph, FxHashMap<NodeId, NodeId>)>,
}

impl<'s> Builder<'s> {
    pub(crate) fn new(
        params: &'s Params,
        cfg: &'s EngineConfig,
        copy_from: Option<&'s PropertyGraph>,
    ) -> Self {
        let copy = copy_from.map(|src| (src, FxHashMap::default()));
        Builder { params, cfg, copy }
    }

    /// Builds `patterns` into `g` for `row` and answers the row extended
    /// by the values of `new_vars` (`null` for a name nothing bound).
    pub(crate) fn row(
        &mut self,
        g: &mut PropertyGraph,
        patterns: &[PathPattern],
        schema: &Schema,
        row: &Record,
        new_vars: &[String],
    ) -> Result<Record, EvalError> {
        let mut made = Made::new();
        for pat in patterns {
            self.path(g, pat, (schema, row), &mut made)?;
        }
        let mut out = row.clone();
        for v in new_vars {
            let val = made.iter().find(|(n, _)| n == v).map(|(_, val)| val);
            out.push(val.cloned().unwrap_or(Value::Null));
        }
        Ok(out)
    }

    fn path(
        &mut self,
        g: &mut PropertyGraph,
        pat: &PathPattern,
        row: Row<'_>,
        made: &mut Made,
    ) -> Result<(), EvalError> {
        let create = self.copy.is_none();
        if create && pat.name.is_some() {
            return err("CREATE cannot bind a path name");
        }
        let mut current = self.node(g, &pat.start, row, made)?;
        for (rho, chi) in &pat.steps {
            if create && !rho.range.is_single() {
                return err("CREATE requires single relationships (no variable length)");
            } else if !create && (!rho.range.is_single() || rho.types.len() != 1) {
                return err("RETURN GRAPH requires single typed relationships");
            }
            let target = self.node(g, chi, row, made)?;
            let (src, tgt) = match rho.dir {
                Dir::Out => (current, target),
                Dir::In => (target, current),
                Dir::Both if create => return err("CREATE requires a directed relationship"),
                Dir::Both => return err("RETURN GRAPH requires directed relationships"),
            };
            if rho.types.len() != 1 {
                return err("CREATE requires exactly one relationship type");
            }
            let t = g.intern(&rho.types[0]);
            let props = self.props(g, &rho.props, row, made)?;
            let r = g.add_rel_syms(src, tgt, t, props)?;
            if let Some(name) = &rho.name {
                made.push((name.clone(), Value::Rel(r)));
            }
            current = target;
        }
        Ok(())
    }

    fn node(
        &mut self,
        g: &mut PropertyGraph,
        chi: &NodePattern,
        row: Row<'_>,
        made: &mut Made,
    ) -> Result<NodeId, EvalError> {
        if let Some(name) = &chi.name {
            let own = made.iter().any(|(n, _)| n == name);
            let view = RowView { row, made };
            if let Some(v) = cypher_core::VarLookup::lookup(&view, name) {
                return match (&mut self.copy, v) {
                    // A node this row built is reused as it is.
                    (Some(_), Value::Node(n)) if own => Ok(n),
                    (Some((src, copied)), Value::Node(n)) => Ok(copy_node(src, copied, g, n)),
                    (Some(_), other) => err(format!(
                        "RETURN GRAPH variable {name} must be a node, got {}",
                        other.type_name()
                    )),
                    (None, Value::Node(n)) if chi.labels.is_empty() && chi.props.is_empty() => {
                        Ok(n)
                    }
                    (None, Value::Node(_)) => err(format!(
                        "CREATE cannot add labels/properties to the bound variable {name}"
                    )),
                    (None, Value::Null) => err(format!("cannot CREATE with null variable {name}")),
                    (None, other) => err(format!(
                        "variable {name} is bound to {}, expected a node",
                        other.type_name()
                    )),
                };
            }
        }
        let labels = chi.labels.iter().map(|l| g.intern(l)).collect();
        let props = self.props(g, &chi.props, row, made)?;
        let n = g.add_node_syms(labels, props);
        if let Some(name) = &chi.name {
            made.push((name.clone(), Value::Node(n)));
        }
        Ok(n)
    }

    /// A property map over the row, its keys interned into `g`.
    fn props(
        &self,
        g: &mut PropertyGraph,
        props: &[(String, Expr)],
        row: Row<'_>,
        made: &[(String, Value)],
    ) -> Result<Vec<(Symbol, Value)>, EvalError> {
        let graph = self.copy.as_ref().map_or(&*g, |(src, _)| *src);
        let ctx = EvalContext::new(graph, self.params).with_config(self.cfg.match_config);
        let view = RowView { row, made };
        let vals = props.iter().map(|(_, e)| eval_expr(&ctx, &view, e));
        let vals = vals.collect::<Result<Vec<_>, _>>()?;
        Ok(props
            .iter()
            .zip(vals)
            .map(|((k, _), v)| (g.intern(k), v))
            .collect())
    }
}

/// The copy in `out` of the source node `n` (labels and properties),
/// made on first use.
fn copy_node(
    src: &PropertyGraph,
    copied: &mut FxHashMap<NodeId, NodeId>,
    out: &mut PropertyGraph,
    n: NodeId,
) -> NodeId {
    *copied.entry(n).or_insert_with(|| {
        let labels = src.labels(n).iter();
        let labels = labels.map(|&l| out.intern(src.resolve(l))).collect();
        let props = src.node_props(n);
        let props = props.map(|(k, v)| (out.intern(src.resolve(k)), v.clone()));
        let props = props.collect();
        out.add_node_syms(labels, props)
    })
}

/// The per-row updates of `SET` and `REMOVE`, evaluated against the graph
/// as earlier rows left it.
impl Write<'_> {
    /// The value of `e` over one driving row.
    fn eval(
        &self,
        g: &PropertyGraph,
        (schema, row): Row<'_>,
        e: &Expr,
    ) -> Result<Value, EvalError> {
        let ctx = EvalContext::new(g, self.params).with_config(self.cfg.match_config);
        eval_expr(&ctx, &Bindings::new(schema, row), e)
    }

    /// The node `var` binds in one driving row for `SET`/`REMOVE var:Label`
    /// (`clause`), `None` for `null`.
    fn label_target(
        &self,
        g: &PropertyGraph,
        at: Row<'_>,
        (clause, var): (&str, &str),
    ) -> Result<Option<NodeId>, EvalError> {
        match self.eval(g, at, &Expr::var(var.to_string()))? {
            Value::Node(n) => Ok(Some(n)),
            Value::Null => Ok(None),
            _ => err(format!("{clause} {var}:Label requires a node")),
        }
    }

    /// `SET` items applied to one row.
    fn set_items(
        &self,
        graph: &mut PropertyGraph,
        items: &[SetItem],
        at: Row<'_>,
    ) -> Result<(), EvalError> {
        for item in items {
            match item {
                SetItem::Prop(base, key, value) => {
                    let target = self.eval(graph, at, base)?;
                    let v = self.eval(graph, at, value)?;
                    let k = graph.intern(key);
                    match target {
                        Value::Node(n) => graph.set_node_prop(n, k, v)?,
                        Value::Rel(r) => graph.set_rel_prop(r, k, v)?,
                        Value::Null => {} // SET on null is a no-op
                        other => {
                            return err(format!(
                                "SET target must be a node or relationship, got {}",
                                other.type_name()
                            ))
                        }
                    }
                }
                SetItem::Replace(var, value) | SetItem::Merge(var, value) => {
                    let target = self.eval(graph, at, &Expr::var(var.clone()))?;
                    let v = self.eval(graph, at, value)?;
                    let Value::Node(n) = target else {
                        if target.is_null() {
                            continue;
                        }
                        return err(format!("SET {var} = map requires a node"));
                    };
                    let props: Vec<(Symbol, Value)> = match v {
                        Value::Map(m) => {
                            m.into_iter().map(|(k, v)| (graph.intern(&k), v)).collect()
                        }
                        Value::Node(src) => {
                            graph.node_props(src).map(|(k, v)| (k, v.clone())).collect()
                        }
                        other => {
                            return err(format!(
                                "SET {var} = requires a map or node, got {}",
                                other.type_name()
                            ))
                        }
                    };
                    if matches!(item, SetItem::Merge(..)) {
                        for (k, v) in props {
                            graph.set_node_prop(n, k, v)?;
                        }
                    } else {
                        graph.replace_node_props(n, props)?;
                    }
                }
                SetItem::Labels(var, labels) => {
                    let Some(n) = self.label_target(graph, at, ("SET", var))? else {
                        continue;
                    };
                    for l in labels {
                        let sym = graph.intern(l);
                        graph.add_label(n, sym)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// `REMOVE` items applied to one row.
    fn remove_items(
        &self,
        graph: &mut PropertyGraph,
        items: &[RemoveItem],
        at: Row<'_>,
    ) -> Result<(), EvalError> {
        for item in items {
            match item {
                RemoveItem::Prop(base, key) => {
                    let target = self.eval(graph, at, base)?;
                    let Some(k) = graph.interner().get(key) else {
                        continue;
                    };
                    match target {
                        Value::Node(n) => graph.remove_node_prop(n, k)?,
                        Value::Rel(r) => graph.set_rel_prop(r, k, Value::Null)?,
                        Value::Null => {}
                        other => {
                            return err(format!(
                                "REMOVE target must be a node or relationship, got {}",
                                other.type_name()
                            ))
                        }
                    }
                }
                RemoveItem::Labels(var, labels) => {
                    let Some(n) = self.label_target(graph, at, ("REMOVE", var))? else {
                        continue;
                    };
                    for l in labels {
                        if let Some(sym) = graph.interner().get(l) {
                            graph.remove_label(n, sym)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
