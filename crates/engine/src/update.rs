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
use cypher_ast::expr::Expr;
use cypher_ast::pattern::{Dir, PathPattern};
use cypher_ast::query::{Clause, RemoveItem, SetItem};
use cypher_core::error::{err, EvalError};
use cypher_core::expr::{eval_expr, Bindings};
use cypher_core::matching::{match_patterns, unbound_free_vars};
use cypher_core::table::{Record, Table};
use cypher_core::{EvalContext, Params};
use cypher_graph::{NodeId, PropertyGraph, RelId, Symbol, Value};

/// Applies an updating clause to the driving table.
pub(crate) fn apply(
    g: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    clause: &Clause,
    t: Table,
) -> Result<Table, EvalError> {
    match clause {
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
    }
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
    let new_vars = unbound_free_vars(patterns, &|n| schema.contains(n));
    let mut out_schema = schema.clone();
    for v in &new_vars {
        out_schema = out_schema.with_field(v.clone());
    }
    let mut out = Table::empty(out_schema);
    for row in table.rows() {
        let mut bindings: Vec<(String, Value)> = Vec::new();
        for pat in patterns {
            create_pattern(graph, params, cfg, pat, &schema, row, &mut bindings)?;
        }
        let mut new_row = row.clone();
        for v in &new_vars {
            let val = bindings
                .iter()
                .find(|(n, _)| n == v)
                .map(|(_, val)| val.clone())
                .unwrap_or(Value::Null);
            new_row.push(val);
        }
        out.push(new_row);
    }
    Ok(out)
}

struct RowView<'a> {
    schema: &'a cypher_core::Schema,
    row: &'a Record,
    extra: &'a [(String, Value)],
}

impl cypher_core::VarLookup for RowView<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.extra
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| self.schema.index_of(name).map(|i| self.row.get(i).clone()))
    }
}

fn eval_props(
    graph: &PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    props: &[(String, Expr)],
    view: &RowView<'_>,
) -> Result<Vec<(String, Value)>, EvalError> {
    let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
    let mut out = Vec::with_capacity(props.len());
    for (k, e) in props {
        out.push((k.clone(), eval_expr(&ctx, view, e)?));
    }
    Ok(out)
}

fn create_pattern(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    pat: &PathPattern,
    schema: &cypher_core::Schema,
    row: &Record,
    bindings: &mut Vec<(String, Value)>,
) -> Result<(), EvalError> {
    if pat.name.is_some() {
        return err("CREATE cannot bind a path name");
    }
    // Resolve or create the start node, then walk the steps.
    let mut current =
        resolve_or_create_node(graph, params, cfg, &pat.start, schema, row, bindings)?;
    for (rho, chi) in &pat.steps {
        if !rho.range.is_single() {
            return err("CREATE requires single relationships (no variable length)");
        }
        let target = resolve_or_create_node(graph, params, cfg, chi, schema, row, bindings)?;
        let (src, tgt) = match rho.dir {
            Dir::Out => (current, target),
            Dir::In => (target, current),
            Dir::Both => return err("CREATE requires a directed relationship"),
        };
        if rho.types.len() != 1 {
            return err("CREATE requires exactly one relationship type");
        }
        let props = {
            let view = RowView {
                schema,
                row,
                extra: bindings,
            };
            eval_props(graph, params, cfg, &rho.props, &view)?
        };
        let t = graph.intern(&rho.types[0]);
        let prop_syms: Vec<(Symbol, Value)> = props
            .into_iter()
            .map(|(k, v)| (graph.intern(&k), v))
            .collect();
        let r = graph
            .add_rel_syms(src, tgt, t, prop_syms)
            .map_err(|e| EvalError::new(e.to_string()))?;
        if let Some(name) = &rho.name {
            bindings.push((name.clone(), Value::Rel(r)));
        }
        current = target;
    }
    Ok(())
}

fn resolve_or_create_node(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    chi: &cypher_ast::pattern::NodePattern,
    schema: &cypher_core::Schema,
    row: &Record,
    bindings: &mut Vec<(String, Value)>,
) -> Result<NodeId, EvalError> {
    // A bound name reuses the existing node (and must not restate labels
    // or properties, as in Cypher).
    if let Some(name) = &chi.name {
        let view = RowView {
            schema,
            row,
            extra: bindings,
        };
        if let Some(v) = cypher_core::VarLookup::lookup(&view, name) {
            return match v {
                Value::Node(n) => {
                    if !chi.labels.is_empty() || !chi.props.is_empty() {
                        err(format!(
                            "CREATE cannot add labels/properties to the bound variable {name}"
                        ))
                    } else {
                        Ok(n)
                    }
                }
                Value::Null => err(format!("cannot CREATE with null variable {name}")),
                other => err(format!(
                    "variable {name} is bound to {}, expected a node",
                    other.type_name()
                )),
            };
        }
    }
    let props = {
        let view = RowView {
            schema,
            row,
            extra: bindings,
        };
        eval_props(graph, params, cfg, &chi.props, &view)?
    };
    let labels: Vec<Symbol> = chi.labels.iter().map(|l| graph.intern(l)).collect();
    let prop_syms: Vec<(Symbol, Value)> = props
        .into_iter()
        .map(|(k, v)| (graph.intern(&k), v))
        .collect();
    let n = graph.add_node_syms(labels, prop_syms);
    if let Some(name) = &chi.name {
        bindings.push((name.clone(), Value::Node(n)));
    }
    Ok(n)
}

/// `MERGE pattern [ON CREATE SET …] [ON MATCH SET …]`: per driving row,
/// bind all matches of the pattern, or create it when there are none.
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
    let pats = std::slice::from_ref(pattern);
    let new_vars = unbound_free_vars(pats, &|n| schema.contains(n));
    let mut out_schema = schema.clone();
    for v in &new_vars {
        out_schema = out_schema.with_field(v.clone());
    }
    let mut out = Table::empty(out_schema.clone());
    for row in table.rows() {
        // Try to match first (read-only borrow scope).
        let matches = {
            let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
            let b = Bindings::new(&schema, row);
            match_patterns(&ctx, &b, pats)?
        };
        if matches.is_empty() {
            let mut bindings: Vec<(String, Value)> = Vec::new();
            create_pattern(graph, params, cfg, pattern, &schema, row, &mut bindings)?;
            let mut new_row = row.clone();
            for v in &new_vars {
                let val = bindings
                    .iter()
                    .find(|(n, _)| n == v)
                    .map(|(_, val)| val.clone())
                    .unwrap_or(Value::Null);
                new_row.push(val);
            }
            apply_set_items(graph, params, cfg, on_create, &out_schema, &new_row)?;
            out.push(new_row);
        } else {
            for m in matches {
                let mut new_row = row.clone();
                for v in &new_vars {
                    let val = m
                        .iter()
                        .find(|(n, _)| n == v)
                        .map(|(_, val)| val.clone())
                        .expect("match binds all free vars");
                    new_row.push(val);
                }
                apply_set_items(graph, params, cfg, on_match, &out_schema, &new_row)?;
                out.push(new_row);
            }
        }
    }
    Ok(out)
}

/// `SET` items applied to one row.
fn apply_set_items(
    graph: &mut PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    items: &[SetItem],
    schema: &cypher_core::Schema,
    row: &Record,
) -> Result<(), EvalError> {
    for item in items {
        match item {
            SetItem::Prop(base, key, value) => {
                let (target, v) = {
                    let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
                    let b = Bindings::new(schema, row);
                    (eval_expr(&ctx, &b, base)?, eval_expr(&ctx, &b, value)?)
                };
                let k = graph.intern(key);
                match target {
                    Value::Node(n) => graph
                        .set_node_prop(n, k, v)
                        .map_err(|e| EvalError::new(e.to_string()))?,
                    Value::Rel(r) => graph
                        .set_rel_prop(r, k, v)
                        .map_err(|e| EvalError::new(e.to_string()))?,
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
                let additive = matches!(item, SetItem::Merge(_, _));
                let (target, v) = {
                    let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
                    let b = Bindings::new(schema, row);
                    (
                        eval_expr(&ctx, &b, &Expr::var(var.clone()))?,
                        eval_expr(&ctx, &b, value)?,
                    )
                };
                let Value::Node(n) = target else {
                    if target.is_null() {
                        continue;
                    }
                    return err(format!("SET {var} = map requires a node"));
                };
                let props: Vec<(String, Value)> = match v {
                    Value::Map(m) => m.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                    Value::Node(src) => graph
                        .node_props(src)
                        .map(|(k, v)| (graph.resolve(k).to_string(), v.clone()))
                        .collect(),
                    other => {
                        return err(format!(
                            "SET {var} = requires a map or node, got {}",
                            other.type_name()
                        ))
                    }
                };
                let prop_syms: Vec<(Symbol, Value)> = props
                    .into_iter()
                    .map(|(k, v)| (graph.intern(&k), v))
                    .collect();
                if additive {
                    for (k, v) in prop_syms {
                        graph
                            .set_node_prop(n, k, v)
                            .map_err(|e| EvalError::new(e.to_string()))?;
                    }
                } else {
                    graph
                        .replace_node_props(n, prop_syms)
                        .map_err(|e| EvalError::new(e.to_string()))?;
                }
            }
            SetItem::Labels(var, labels) => {
                let target = {
                    let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
                    let b = Bindings::new(schema, row);
                    eval_expr(&ctx, &b, &Expr::var(var.clone()))?
                };
                let Value::Node(n) = target else {
                    if target.is_null() {
                        continue;
                    }
                    return err(format!("SET {var}:Label requires a node"));
                };
                for l in labels {
                    let sym = graph.intern(l);
                    graph
                        .add_label(n, sym)
                        .map_err(|e| EvalError::new(e.to_string()))?;
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
    let schema = table.schema().clone();
    for row in table.rows() {
        apply_set_items(graph, params, cfg, items, &schema, row)?;
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
    let schema = table.schema().clone();
    for row in table.rows() {
        for item in items {
            match item {
                RemoveItem::Prop(base, key) => {
                    let target = {
                        let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
                        let b = Bindings::new(&schema, row);
                        eval_expr(&ctx, &b, base)?
                    };
                    let Some(k) = graph.interner().get(key) else {
                        continue;
                    };
                    match target {
                        Value::Node(n) => graph
                            .remove_node_prop(n, k)
                            .map_err(|e| EvalError::new(e.to_string()))?,
                        Value::Rel(r) => {
                            graph
                                .set_rel_prop(r, k, Value::Null)
                                .map_err(|e| EvalError::new(e.to_string()))?;
                        }
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
                    let target = {
                        let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
                        let b = Bindings::new(&schema, row);
                        eval_expr(&ctx, &b, &Expr::var(var.clone()))?
                    };
                    let Value::Node(n) = target else {
                        if target.is_null() {
                            continue;
                        }
                        return err(format!("REMOVE {var}:Label requires a node"));
                    };
                    for l in labels {
                        if let Some(sym) = graph.interner().get(l) {
                            graph
                                .remove_label(n, sym)
                                .map_err(|e| EvalError::new(e.to_string()))?;
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
    let schema = table.schema().clone();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut rels: Vec<RelId> = Vec::new();
    for row in table.rows() {
        for e in exprs {
            let v = {
                let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
                let b = Bindings::new(&schema, row);
                eval_expr(&ctx, &b, e)?
            };
            match v {
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
            graph
                .delete_rel(r)
                .map_err(|e| EvalError::new(e.to_string()))?;
        }
    }
    for n in nodes {
        if !graph.contains_node(n) {
            continue;
        }
        if detach {
            graph
                .detach_delete_node(n)
                .map_err(|e| EvalError::new(e.to_string()))?;
        } else {
            graph
                .delete_node(n)
                .map_err(|e| EvalError::new(e.to_string()))?;
        }
    }
    Ok(table)
}
