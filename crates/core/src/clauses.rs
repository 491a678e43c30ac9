//! Clause semantics `[[C]]_G : Table → Table` (paper Figure 7), extended
//! with the aggregation behaviour described in Section 3 and the
//! `DISTINCT` / `ORDER BY` / `SKIP` / `LIMIT` sub-clauses of the surface
//! language.
//!
//! Implemented here:
//!
//! * `[[MATCH π̄ (WHERE e)]]` and `[[OPTIONAL MATCH π̄ (WHERE e)]]`,
//! * `[[WITH ret (WHERE e)]]` (projection, grouping + aggregation),
//! * `[[UNWIND e AS a]]` — including the paper's corner cases: an empty
//!   list produces no rows and a non-list value (including `null`)
//!   produces a single row,
//! * `[[WHERE e]]` — keeps exactly the rows where the predicate is `true`.
//!
//! Updating clauses and `FROM GRAPH` are implemented by `cypher-engine`;
//! the reference evaluator covers the read core formalized by the paper.

use crate::error::{err, EvalError};
use crate::expr::{eval_expr, truth_of, Bindings, NoVars, VarLookup};
use crate::matching::{match_patterns, unbound_free_vars};
use crate::project::{cmp_sort_keys, sort_keys, GroupedAggState, ProjectionPlan};
use crate::table::{Record, Schema, Table};
use crate::EvalContext;
use cypher_ast::expr::Expr;
use cypher_ast::pattern::PathPattern;
use cypher_ast::query::{Clause, Return, SortItem};
use cypher_graph::{Tri, Value};

pub use crate::project::alpha;

/// Applies one clause to a driving table.
pub fn apply_clause(
    ctx: &EvalContext<'_>,
    clause: &Clause,
    table: Table,
) -> Result<Table, EvalError> {
    match clause {
        Clause::Match {
            optional,
            patterns,
            where_,
        } => {
            if *optional {
                apply_optional_match(ctx, patterns, where_.as_ref(), table)
            } else {
                let matched = apply_match(ctx, patterns, table)?;
                match where_ {
                    Some(pred) => apply_where(ctx, pred, matched),
                    None => Ok(matched),
                }
            }
        }
        Clause::With { ret, where_ } => {
            let projected = apply_projection(ctx, ret, table)?;
            match where_ {
                Some(pred) => apply_where(ctx, pred, projected),
                None => Ok(projected),
            }
        }
        Clause::Unwind { expr, alias } => apply_unwind(ctx, expr, alias, table),
        Clause::Create { .. }
        | Clause::Merge { .. }
        | Clause::Delete { .. }
        | Clause::Set { .. }
        | Clause::Remove { .. } => {
            err("updating clauses are not part of the read core; use cypher-engine to execute them")
        }
        Clause::FromGraph { .. } => {
            err("FROM GRAPH requires the multigraph executor in cypher-engine")
        }
    }
}

/// `[[MATCH π̄]]_G(T) = ⊎_{u∈T} { u · u′ | u′ ∈ match(π̄, G, u) }`.
pub fn apply_match(
    ctx: &EvalContext<'_>,
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
    for u in table.rows() {
        let bindings = Bindings::new(&schema, u);
        let matches = match_patterns(ctx, &bindings, patterns)?;
        for m in matches {
            let mut row = u.clone();
            for v in &new_vars {
                let val = m
                    .iter()
                    .find(|(n, _)| n == v)
                    .map(|(_, val)| val.clone())
                    .expect("every free variable is bound by a successful match");
                row.push(val);
            }
            out.push(row);
        }
    }
    Ok(out)
}

/// `[[OPTIONAL MATCH π̄ WHERE e]]_G(T)`: per driving row, the matches of
/// the single-row table — or one row padded with `null`s when there are
/// none (Figure 7).
pub fn apply_optional_match(
    ctx: &EvalContext<'_>,
    patterns: &[PathPattern],
    where_: Option<&Expr>,
    table: Table,
) -> Result<Table, EvalError> {
    let schema = table.schema().clone();
    let new_vars = unbound_free_vars(patterns, &|n| schema.contains(n));
    let mut out_schema = schema.clone();
    for v in &new_vars {
        out_schema = out_schema.with_field(v.clone());
    }
    let mut out = Table::empty(out_schema.clone());
    for u in table.rows() {
        let single = Table::new(schema.clone(), vec![u.clone()]);
        let matched = apply_match(ctx, patterns, single)?;
        let filtered = match where_ {
            Some(pred) => apply_where(ctx, pred, matched)?,
            None => matched,
        };
        if filtered.is_empty() {
            let mut row = u.clone();
            for _ in &new_vars {
                row.push(Value::Null);
            }
            out.push(row);
        } else {
            for r in filtered.rows() {
                out.push(r.clone());
            }
        }
    }
    Ok(out)
}

/// `[[WHERE e]]_G(T) = { u ∈ T | [[e]]_{G,u} = true }`.
pub fn apply_where(ctx: &EvalContext<'_>, pred: &Expr, table: Table) -> Result<Table, EvalError> {
    let schema = table.schema().clone();
    let mut out = Table::empty(schema.clone());
    for u in table.rows() {
        let b = Bindings::new(&schema, u);
        if truth_of(ctx, &b, pred)? == Tri::True {
            out.push(u.clone());
        }
    }
    Ok(out)
}

/// `[[UNWIND e AS a]]_G(T)` (Figure 7): a list yields one row per element,
/// the empty list yields no rows, and any other value — including `null` —
/// yields a single row carrying that value. (Note: this follows the paper
/// exactly; some implementations instead drop `null` rows.)
pub fn apply_unwind(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    alias: &str,
    table: Table,
) -> Result<Table, EvalError> {
    let schema = table.schema().clone();
    if schema.contains(alias) {
        return err(format!("UNWIND alias {alias} shadows an existing field"));
    }
    let out_schema = schema.with_field(alias.to_string());
    let mut out = Table::empty(out_schema);
    for u in table.rows() {
        let b = Bindings::new(&schema, u);
        let v = eval_expr(ctx, &b, expr)?;
        match v {
            Value::List(items) => {
                for item in items {
                    let mut row = u.clone();
                    row.push(item);
                    out.push(row);
                }
            }
            other => {
                let mut row = u.clone();
                row.push(other);
                out.push(row);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Projection (WITH / RETURN) with grouping and aggregation
// ---------------------------------------------------------------------------

/// Applies a `WITH`/`RETURN` projection body: star expansion, grouping and
/// aggregation, `DISTINCT`, `ORDER BY`, `SKIP`, `LIMIT`.
///
/// The heavy lifting lives in [`crate::project`]: the body is compiled
/// once into a [`ProjectionPlan`] and the rows folded through a
/// [`GroupedAggState`] — the *same* state type the parallel engine folds
/// per morsel, so the sequential reference semantics and the pushdown
/// share one implementation.
pub fn apply_projection(
    ctx: &EvalContext<'_>,
    ret: &Return,
    table: Table,
) -> Result<Table, EvalError> {
    let plan = ProjectionPlan::compile(ret, table.schema())?;
    let schema = table.schema().clone();
    let mut out;
    // Pre-projection rows kept alongside the output so that ORDER BY can
    // reference variables that were not projected (`RETURN a.i ORDER BY
    // a.x` is legal Cypher). Grouped projections keep the group's
    // representative row; DISTINCT drops the scope entirely.
    let mut sources: Vec<Record> = Vec::new();

    if plan.is_aggregating() {
        let mut state = GroupedAggState::default();
        for u in table.rows() {
            state.feed(ctx, &plan, &schema, u)?;
        }
        let (t, srcs) = state.finalize(ctx, &plan, &schema)?;
        out = t;
        sources = srcs;
        // DISTINCT over the grouped rows (after which only projected
        // columns remain addressable, as in Cypher).
        if ret.distinct {
            out = out.dedup();
            sources.clear();
        }
    } else if ret.distinct {
        // A DISTINCT projection is grouping by every item with no
        // aggregates: first occurrence kept, original row order preserved.
        let mut state = GroupedAggState::default();
        for u in table.rows() {
            state.feed(ctx, &plan, &schema, u)?;
        }
        let (t, _) = state.finalize(ctx, &plan, &schema)?;
        out = t;
    } else {
        out = Table::empty(plan.out_schema().clone());
        for u in table.rows() {
            out.push(plan.project_row(ctx, &schema, u)?);
            if !ret.order_by.is_empty() {
                sources.push(u.clone());
            }
        }
    }

    // 5. ORDER BY: sort keys see the projected columns first, then (when
    //    no DISTINCT intervened) the pre-projection scope.
    if !ret.order_by.is_empty() {
        let src = if sources.is_empty() {
            None
        } else {
            Some((schema.clone(), sources))
        };
        out = apply_order_by_scoped(ctx, &ret.order_by, out, src)?;
    }

    // 6. SKIP / LIMIT.
    let skip = eval_count(ctx, ret.skip.as_ref(), "SKIP")?;
    let limit = match &ret.limit {
        Some(_) => Some(eval_count(ctx, ret.limit.as_ref(), "LIMIT")?),
        None => None,
    };
    if skip > 0 || limit.is_some() {
        out = out.slice(skip, limit);
    }
    Ok(out)
}

/// Evaluates a `SKIP`/`LIMIT` count expression (row-independent; `None`
/// means 0). Shared with the engine's top-k pushdown, which needs the
/// bound before the rows flow.
pub fn eval_count(ctx: &EvalContext<'_>, e: Option<&Expr>, what: &str) -> Result<usize, EvalError> {
    let Some(e) = e else { return Ok(0) };
    let v = eval_expr(ctx, &NoVars, e)?;
    match v.as_int() {
        Some(i) if i >= 0 => Ok(i as usize),
        _ => err(format!("{what} requires a non-negative integer, got {v}")),
    }
}

/// Sorts by the `ORDER BY` keys, using the total orderability order
/// (`null` last in ascending position).
pub fn apply_order_by(
    ctx: &EvalContext<'_>,
    keys: &[SortItem],
    table: Table,
) -> Result<Table, EvalError> {
    apply_order_by_scoped(ctx, keys, table, None)
}

/// [`apply_order_by`] with an optional pre-projection scope: `sources[i]`
/// is the source record of output row `i` over `src.0`. Public because
/// the engine's aggregation pushdown sorts its merged group rows through
/// exactly this path (sort keys may reference each group's representative
/// source row).
pub fn apply_order_by_scoped(
    ctx: &EvalContext<'_>,
    keys: &[SortItem],
    table: Table,
    src: Option<(std::sync::Arc<Schema>, Vec<Record>)>,
) -> Result<Table, EvalError> {
    let schema = table.schema().clone();
    // Precompute sort keys (decorate–sort–undecorate) so errors surface
    // before the sort comparator runs.
    let mut decorated: Vec<(Vec<Value>, Record)> = Vec::with_capacity(table.len());
    for (i, u) in table.rows().iter().enumerate() {
        let source = src.as_ref().map(|(ss, rows)| Bindings::new(ss, &rows[i]));
        let source = source.as_ref().map(|s| s as &dyn VarLookup);
        let mut ks = Vec::with_capacity(keys.len());
        sort_keys(ctx, keys, &Bindings::new(&schema, u), source, &mut ks)?;
        decorated.push((ks, u.clone()));
    }
    decorated.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(keys.iter().map(|k| k.ascending), ka, kb));
    let mut out = Table::empty(schema);
    for (_, r) in decorated {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{table_of, EvalContext, Params};
    use cypher_ast::query::{Return, ReturnItem};
    use cypher_graph::PropertyGraph;
    use cypher_parser::parse_expression;

    fn ret_items(items: &[(&str, Option<&str>)]) -> Return {
        Return {
            items: items
                .iter()
                .map(|(e, a)| ReturnItem {
                    expr: parse_expression(e).unwrap(),
                    alias: a.map(String::from),
                })
                .collect(),
            ..Return::default()
        }
    }

    fn sample_table() -> Table {
        table_of(
            &["g", "v"],
            vec![
                vec![Value::str("a"), Value::int(1)],
                vec![Value::str("a"), Value::int(2)],
                vec![Value::str("b"), Value::int(30)],
                vec![Value::str("b"), Value::Null],
            ],
        )
    }

    #[test]
    fn projection_without_aggregates_maps_rows() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let out =
            apply_projection(&ctx, &ret_items(&[("v + 1", Some("w"))]), sample_table()).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.cell(0, "w"), Some(&Value::int(2)));
        assert!(out.cell(3, "w").unwrap().is_null());
    }

    #[test]
    fn grouping_keys_partition_rows() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let out = apply_projection(
            &ctx,
            &ret_items(&[("g", None), ("count(v)", Some("c")), ("sum(v)", Some("s"))]),
            sample_table(),
        )
        .unwrap();
        let expected = table_of(
            &["g", "c", "s"],
            vec![
                vec![Value::str("a"), Value::int(2), Value::int(3)],
                vec![Value::str("b"), Value::int(1), Value::int(30)],
            ],
        );
        out.assert_bag_eq(&expected);
    }

    #[test]
    fn null_group_key_forms_its_own_group() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let t = table_of(
            &["k"],
            vec![vec![Value::Null], vec![Value::Null], vec![Value::int(1)]],
        );
        let out =
            apply_projection(&ctx, &ret_items(&[("k", None), ("count(*)", Some("c"))]), t).unwrap();
        let expected = table_of(
            &["k", "c"],
            vec![
                vec![Value::Null, Value::int(2)],
                vec![Value::int(1), Value::int(1)],
            ],
        );
        out.assert_bag_eq(&expected);
    }

    #[test]
    fn alpha_names_are_expression_text() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let out = apply_projection(&ctx, &ret_items(&[("v", None)]), sample_table()).unwrap();
        assert_eq!(out.schema().names(), &["v".to_string()]);
    }

    #[test]
    fn duplicate_output_names_rejected() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        // Both items project the name `v`.
        let r = apply_projection(
            &ctx,
            &ret_items(&[("v", None), ("g", Some("v"))]),
            sample_table(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn distinct_then_order_then_slice() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let mut ret = ret_items(&[("v", None)]);
        ret.distinct = true;
        ret.order_by = vec![SortItem {
            expr: parse_expression("v").unwrap(),
            ascending: false,
        }];
        ret.limit = Some(parse_expression("2").unwrap());
        let out = apply_projection(&ctx, &ret, sample_table()).unwrap();
        // Distinct values {1, 2, 30, null}; desc puts null first (null is
        // greatest), then 30.
        assert_eq!(out.len(), 2);
        assert!(out.rows()[0].get(0).is_null());
        assert_eq!(out.rows()[1].get(0), &Value::int(30));
    }

    #[test]
    fn unwind_alias_shadowing_is_error() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let r = apply_unwind(&ctx, &parse_expression("[1]").unwrap(), "v", sample_table());
        assert!(r.is_err());
    }

    #[test]
    fn where_on_empty_table_is_empty() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let t = Table::empty(Schema::new(vec!["x".into()]));
        let out = apply_where(&ctx, &parse_expression("x > 0").unwrap(), t).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn skip_limit_expressions_must_be_non_negative() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let mut ret = ret_items(&[("v", None)]);
        ret.limit = Some(parse_expression("-1").unwrap());
        assert!(apply_projection(&ctx, &ret, sample_table()).is_err());
        let mut ret2 = ret_items(&[("v", None)]);
        ret2.skip = Some(parse_expression("'x'").unwrap());
        assert!(apply_projection(&ctx, &ret2, sample_table()).is_err());
    }
}
