//! Updating clauses (paper Section 2, "Data modification"): `CREATE`,
//! `DELETE` / `DETACH DELETE`, `SET`, `REMOVE`, and `MERGE` ("tries to
//! match the given pattern, and creates the pattern if no match was
//! found").
//!
//! Each clause remains a function from tables to tables — `CREATE` and
//! `MERGE` extend rows with the entities they bind, the others pass rows
//! through — so updating queries compose linearly exactly like reading
//! ones.
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

use crate::exec::EngineConfig;
use crate::ops::{drive, Collect};
use crate::planner::{plan_match, PlannedMatch, WcoJoinMode};
use crate::pushdown::project_visible;
use cypher_ast::expr::Expr;
use cypher_ast::pattern::{Dir, NodePattern, PathPattern};
use cypher_ast::query::{Clause, RemoveItem, SetItem};
use cypher_core::error::{err, EvalError};
use cypher_core::expr::{eval_expr, Bindings};
use cypher_core::matching::unbound_free_vars;
use cypher_core::table::{Record, Schema, Table};
use cypher_core::{EvalContext, Params};
use cypher_graph::fxhash::FxHashMap;
use cypher_graph::{NodeId, PropertyGraph, RelId, Symbol, Value, ViewRef};
use std::slice;
use std::sync::Arc;

/// Applies an updating clause to the driving table in one
/// [`PropertyGraph::bulk_load`] scope, sealed before the next clause. No
/// intersection runs in it (see [`merge_plan`]; pattern expressions walk
/// `expand`), and deletes find entries by relationship id.
pub(crate) fn apply(
    g: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    clause: &Clause,
    t: Table,
) -> Result<Table, EvalError> {
    g.bulk_load(|g| match clause {
        Clause::Create { patterns } => exec_create(g, params, cfg, patterns, t),
        Clause::Merge {
            pattern,
            on_create,
            on_match,
        } => exec_merge(g, params, cfg, pattern, on_create, on_match, t),
        Clause::Delete { detach, exprs } => exec_delete(g, params, cfg, *detach, exprs, t),
        Clause::Set { items } => exec_set(g, params, cfg, items, t),
        Clause::Remove { items } => exec_remove(g, params, cfg, items, t),
        _ => err("not an updating clause"),
    })
}

/// `CREATE pattern_tuple`: instantiates the patterns once per driving row.
pub fn exec_create(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    patterns: &[PathPattern],
    table: Table,
) -> Result<Table, EvalError> {
    let schema = table.schema().clone();
    let out_schema = extended(&schema, patterns);
    let new_vars = &out_schema.names()[schema.len()..];
    let mut out = Table::empty(out_schema.clone());
    let mut build = Builder::new(params, cfg, None);
    for row in table.rows() {
        out.push(build.row(graph, patterns, &schema, row, new_vars)?);
    }
    Ok(out)
}

/// The schema of the rows `CREATE` or `MERGE` of `patterns` answers: the
/// driving fields, then the patterns' new names in binding order.
pub(crate) fn extended(schema: &Schema, patterns: &[PathPattern]) -> Arc<Schema> {
    let new_vars = unbound_free_vars(patterns, &|n| schema.contains(n));
    Schema::new([schema.names(), &new_vars].concat())
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
            let vals = self.eval(g, &rho.props, row, made)?;
            let t = g.intern(&rho.types[0]);
            let props = keyed(g, &rho.props, vals);
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
        let vals = self.eval(g, &chi.props, row, made)?;
        let labels = chi.labels.iter().map(|l| g.intern(l)).collect();
        let props = keyed(g, &chi.props, vals);
        let n = g.add_node_syms(labels, props);
        if let Some(name) = &chi.name {
            made.push((name.clone(), Value::Node(n)));
        }
        Ok(n)
    }

    /// A property map's values over the row.
    fn eval(
        &self,
        g: &PropertyGraph,
        props: &[(String, Expr)],
        row: Row<'_>,
        made: &[(String, Value)],
    ) -> Result<Vec<Value>, EvalError> {
        let graph = self.copy.as_ref().map_or(g, |(src, _)| *src);
        let ctx = EvalContext::new(graph, self.params).with_config(self.cfg.match_config);
        let view = RowView { row, made };
        props
            .iter()
            .map(|(_, e)| eval_expr(&ctx, &view, e))
            .collect()
    }
}

/// A property map's keys, interned into `g`, paired with their values.
fn keyed(
    g: &mut PropertyGraph,
    props: &[(String, Expr)],
    vals: Vec<Value>,
) -> Vec<(Symbol, Value)> {
    props
        .iter()
        .zip(vals)
        .map(|((k, _), v)| (g.intern(k), v))
        .collect()
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

/// `MERGE`'s match plan — its pattern planned once over the driving
/// `schema`, whose columns are pre-bound — and the schema of its rows.
/// It never intersects: `MERGE`'s write scope leaves lists out of order.
pub(crate) fn merge_plan(
    view: ViewRef<'_>,
    schema: &Arc<Schema>,
    pattern: &PathPattern,
    cfg: &EngineConfig,
) -> (PlannedMatch, Arc<Schema>) {
    let pats = slice::from_ref(pattern);
    let cfg = EngineConfig {
        wco_join: WcoJoinMode::Off,
        ..cfg.clone()
    };
    let planned = plan_match(view, schema.names(), pats, &cfg);
    (planned, extended(schema, pats))
}

/// `MERGE pattern [ON CREATE SET …] [ON MATCH SET …]`: per driving row,
/// bind all matches of the pattern, or create it when there are none.
/// The match plan runs per row against the graph as earlier rows left it,
/// so MERGE sees its own creations; `ON MATCH` applies to the matches in
/// the plan's row order. A row's match runs on the calling thread: one
/// row's plan is too small to pay for starting the worker pool.
pub fn exec_merge(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    pattern: &PathPattern,
    on_create: &[SetItem],
    on_match: &[SetItem],
    table: Table,
) -> Result<Table, EvalError> {
    let schema = table.schema().clone();
    let (planned, out_schema) = merge_plan(ViewRef::from(&*graph), &schema, pattern, cfg);
    let new_vars = &out_schema.names()[schema.len()..];
    let mut build = Builder::new(params, cfg, None);
    let mut out = Table::empty(out_schema.clone());
    let one_thread = cfg.clone().with_threads(1);
    for row in table.rows() {
        let one = Table::new(schema.clone(), vec![row.clone()]);
        let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
        let matches = drive(&ctx, &planned.plan.steps, one, &one_thread, &Collect, None)?;
        let matches = project_visible(matches, &out_schema).into_rows();
        if matches.is_empty() {
            let pats = slice::from_ref(pattern);
            let new_row = build.row(graph, pats, &schema, row, new_vars)?;
            apply_set_items(graph, params, cfg, on_create, &out_schema, &new_row)?;
            out.push(new_row);
        }
        for m in matches {
            apply_set_items(graph, params, cfg, on_match, &out_schema, &m)?;
            out.push(m);
        }
    }
    Ok(out)
}

/// The value of `e` over one driving row.
fn eval_at(
    g: &PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    (schema, row): Row<'_>,
    e: &Expr,
) -> Result<Value, EvalError> {
    let ctx = EvalContext::new(g, params).with_config(cfg.match_config);
    eval_expr(&ctx, &Bindings::new(schema, row), e)
}

/// The node `var` binds in one driving row for `SET`/`REMOVE var:Label`
/// (`clause`), `None` for `null`.
fn label_target(
    g: &PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    at: Row<'_>,
    (clause, var): (&str, &str),
) -> Result<Option<NodeId>, EvalError> {
    match eval_at(g, params, cfg, at, &Expr::var(var.to_string()))? {
        Value::Node(n) => Ok(Some(n)),
        Value::Null => Ok(None),
        _ => err(format!("{clause} {var}:Label requires a node")),
    }
}

/// `SET` items applied to one row.
fn apply_set_items(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    items: &[SetItem],
    schema: &Schema,
    row: &Record,
) -> Result<(), EvalError> {
    let at = (schema, row);
    for item in items {
        match item {
            SetItem::Prop(base, key, value) => {
                let target = eval_at(graph, params, cfg, at, base)?;
                let v = eval_at(graph, params, cfg, at, value)?;
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
                let target = eval_at(graph, params, cfg, at, &Expr::var(var.clone()))?;
                let v = eval_at(graph, params, cfg, at, value)?;
                let Value::Node(n) = target else {
                    if target.is_null() {
                        continue;
                    }
                    return err(format!("SET {var} = map requires a node"));
                };
                let props: Vec<(Symbol, Value)> = match v {
                    Value::Map(m) => m.into_iter().map(|(k, v)| (graph.intern(&k), v)).collect(),
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
                let Some(n) = label_target(graph, params, cfg, at, ("SET", var))? else {
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

/// `SET` clause: applies items to every row, passing the table through.
pub fn exec_set(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    items: &[SetItem],
    table: Table,
) -> Result<Table, EvalError> {
    for row in table.rows() {
        apply_set_items(graph, params, cfg, items, table.schema(), row)?;
    }
    Ok(table)
}

/// `REMOVE` clause.
pub fn exec_remove(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    items: &[RemoveItem],
    table: Table,
) -> Result<Table, EvalError> {
    for row in table.rows() {
        let at = (&**table.schema(), row);
        for item in items {
            match item {
                RemoveItem::Prop(base, key) => {
                    let target = eval_at(graph, params, cfg, at, base)?;
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
                    let Some(n) = label_target(graph, params, cfg, at, ("REMOVE", var))? else {
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
    }
    Ok(table)
}

/// `[DETACH] DELETE`: deletions are collected across all rows first, then
/// applied (relationships before nodes), so that repeated references to
/// the same entity are harmless — matching Cypher's end-of-clause
/// visibility rule.
pub fn exec_delete(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    detach: bool,
    exprs: &[Expr],
    table: Table,
) -> Result<Table, EvalError> {
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut rels: Vec<RelId> = Vec::new();
    for row in table.rows() {
        for e in exprs {
            match eval_at(graph, params, cfg, (table.schema(), row), e)? {
                Value::Null => {}
                Value::Node(n) => nodes.push(n),
                Value::Rel(r) => rels.push(r),
                Value::Path(p) => {
                    nodes.extend(p.nodes());
                    rels.extend(p.rels());
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
    rels.sort_unstable();
    rels.dedup();
    nodes.sort_unstable();
    nodes.dedup();
    for r in rels {
        if graph.contains_rel(r) {
            graph.delete_rel(r)?;
        }
    }
    for n in nodes {
        if !graph.contains_node(n) {
            continue;
        }
        if detach {
            graph.detach_delete_node(n)?;
        } else {
            graph.delete_node(n)?;
        }
    }
    Ok(table)
}
