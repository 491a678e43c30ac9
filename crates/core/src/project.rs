//! Reusable projection machinery: compiled `WITH`/`RETURN` bodies,
//! grouped-aggregation partial states, and bounded top-k accumulators.
//!
//! [`crate::clauses::apply_projection`] (the sequential reference path)
//! and the morsel-driven engine's partial-aggregation pushdown are **one
//! implementation**: both compile the projection once into a
//! [`ProjectionPlan`], fold rows into a [`GroupedAggState`] (or a
//! [`TopKState`] for `ORDER BY … LIMIT`), and finalize. The states are
//! self-contained and `Send`, so the engine can fold one per morsel inside
//! its worker pool and merge them **in morsel order** — which, because
//! every constituent ([`crate::aggregate::Aggregator`], distinct sets,
//! group creation order, top-k tie-breaking) is defined to reproduce the
//! row-order fold under in-order merging, keeps parallel output
//! bit-identical to sequential output.

use crate::aggregate::{AggKind, Aggregator};
use crate::bag::CountedMap;
use crate::error::{err, EvalError};
use crate::expr::{eval_expr, Bindings, NoVars, VarLookup};
use crate::table::{Record, RowBatch, Schema, Table};
use crate::{EvalContext, Params};
use cypher_ast::expr::Expr;
use cypher_ast::query::{Return, ReturnItem, SortItem};
use cypher_graph::{Symbol, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// The implementation-dependent injective naming function `α` of Section
/// 4.3: we use the unparsed expression text, which matches the column
/// headers of the paper's examples (e.g. `r.name`).
pub fn alpha(e: &Expr) -> String {
    e.to_string()
}

/// One compiled projection item.
struct ProjItem {
    /// Output column name.
    name: String,
    /// The (possibly rewritten) expression; aggregate subtrees are replaced
    /// by placeholder parameters.
    expr: Expr,
    /// True when the original item contained an aggregate.
    aggregated: bool,
}

/// One extracted aggregate call.
struct AggSpec {
    kind: AggKind,
    distinct: bool,
    arg: Option<Expr>,
    aux: Option<Expr>,
    placeholder: String,
}

/// Replaces each aggregate call in `e` by a fresh placeholder parameter
/// (the placeholder names contain a space, which the surface syntax cannot
/// produce, so they can never collide with user parameters).
fn extract_aggregates(e: &Expr, specs: &mut Vec<AggSpec>) -> Expr {
    match e {
        Expr::CountStar => {
            let placeholder = format!(" agg {}", specs.len());
            specs.push(AggSpec {
                kind: AggKind::CountStar,
                distinct: false,
                arg: None,
                aux: None,
                placeholder: placeholder.clone(),
            });
            Expr::Param(placeholder)
        }
        Expr::FnCall {
            name,
            args,
            distinct,
        } => {
            if let Some(kind) = AggKind::from_name(name) {
                let placeholder = format!(" agg {}", specs.len());
                specs.push(AggSpec {
                    kind,
                    distinct: *distinct,
                    arg: args.first().cloned(),
                    aux: args.get(1).cloned(),
                    placeholder: placeholder.clone(),
                });
                Expr::Param(placeholder)
            } else {
                Expr::FnCall {
                    name: name.clone(),
                    args: args.iter().map(|a| extract_aggregates(a, specs)).collect(),
                    distinct: *distinct,
                }
            }
        }
        Expr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(extract_aggregates(a, specs))),
        Expr::Or(a, b) => Expr::Or(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::And(a, b) => Expr::And(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::List(items) => {
            Expr::List(items.iter().map(|a| extract_aggregates(a, specs)).collect())
        }
        Expr::Map(kvs) => Expr::Map(
            kvs.iter()
                .map(|(k, v)| (k.clone(), extract_aggregates(v, specs)))
                .collect(),
        ),
        Expr::Prop(e, k) => Expr::Prop(Box::new(extract_aggregates(e, specs)), k.clone()),
        Expr::Index(a, b) => Expr::Index(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::Slice(e, lo, hi) => Expr::Slice(
            Box::new(extract_aggregates(e, specs)),
            lo.as_ref().map(|x| Box::new(extract_aggregates(x, specs))),
            hi.as_ref().map(|x| Box::new(extract_aggregates(x, specs))),
        ),
        Expr::In(a, b) => Expr::In(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::StartsWith(a, b) => Expr::StartsWith(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::EndsWith(a, b) => Expr::EndsWith(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::Contains(a, b) => Expr::Contains(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::Xor(a, b) => Expr::Xor(
            Box::new(extract_aggregates(a, specs)),
            Box::new(extract_aggregates(b, specs)),
        ),
        Expr::Not(a) => Expr::Not(Box::new(extract_aggregates(a, specs))),
        Expr::IsNull(a) => Expr::IsNull(Box::new(extract_aggregates(a, specs))),
        Expr::IsNotNull(a) => Expr::IsNotNull(Box::new(extract_aggregates(a, specs))),
        Expr::Case {
            input,
            whens,
            else_,
        } => Expr::Case {
            input: input
                .as_ref()
                .map(|x| Box::new(extract_aggregates(x, specs))),
            whens: whens
                .iter()
                .map(|(w, t)| (extract_aggregates(w, specs), extract_aggregates(t, specs)))
                .collect(),
            else_: else_
                .as_ref()
                .map(|x| Box::new(extract_aggregates(x, specs))),
        },
        // Scoped forms (list/pattern comprehensions, quantifiers, pattern
        // predicates) cannot legally contain outer-level aggregates; they
        // are left atomic — any aggregate inside them is reported by the
        // evaluator.
        other => other.clone(),
    }
}

/// A `WITH`/`RETURN` body compiled against a concrete input schema: star
/// expansion done, output names resolved and checked, aggregate subtrees
/// extracted. Compiling is cheap and pure — both the sequential evaluator
/// and every parallel worker share one instance.
pub struct ProjectionPlan {
    items: Vec<ProjItem>,
    specs: Vec<AggSpec>,
    out_schema: Arc<Schema>,
    any_agg: bool,
    /// Whether each group keeps its first source row, cloned once when
    /// the group is created. Only where the projection reads it: an
    /// aggregated item that is not a bare aggregate (`a.v + count(*)`)
    /// evaluates over it, and so does an `ORDER BY` key that is not an
    /// output column (when no `DISTINCT` drops the pre-projection scope).
    keep_repr: bool,
}

impl ProjectionPlan {
    /// Compiles a projection body against the input schema. Fails on the
    /// same conditions the sequential path reported: `RETURN *` over no
    /// fields, duplicate output column names.
    pub fn compile(ret: &Return, input: &Schema) -> Result<ProjectionPlan, EvalError> {
        // 1. Expand `∗` into explicit items (Figure 6's rewrite).
        let mut items: Vec<ReturnItem> = Vec::new();
        if ret.star {
            if input.is_empty() && ret.items.is_empty() {
                return err("RETURN * / WITH * require at least one field");
            }
            for n in input.names() {
                items.push(ReturnItem::aliased(Expr::var(n.clone()), n.clone()));
            }
        }
        items.extend(ret.items.iter().cloned());

        // 2. Output names: the alias if present, else α(expr); must be
        //    distinct.
        let mut proj: Vec<ProjItem> = Vec::new();
        let mut any_agg = false;
        let mut specs: Vec<AggSpec> = Vec::new();
        for item in &items {
            let name = item.alias.clone().unwrap_or_else(|| alpha(&item.expr));
            let aggregated = item.expr.contains_aggregate();
            any_agg |= aggregated;
            let expr = if aggregated {
                extract_aggregates(&item.expr, &mut specs)
            } else {
                item.expr.clone()
            };
            if proj.iter().any(|p| p.name == name) {
                return err(format!("duplicate column name in projection: {name}"));
            }
            proj.push(ProjItem {
                name,
                expr,
                aggregated,
            });
        }
        let out_schema = Schema::new(proj.iter().map(|p| p.name.clone()).collect());
        // An `ORDER BY` key that is not an output column falls through to
        // the pre-projection scope, unless `DISTINCT` drops that scope.
        let sorts_on_source = !ret.distinct
            && ret
                .order_by
                .iter()
                .any(|s| !matches!(&s.expr, Expr::Var(n) if out_schema.contains(n)));
        let mut plan = ProjectionPlan {
            items: proj,
            specs,
            out_schema,
            any_agg,
            keep_repr: false,
        };
        plan.keep_repr = any_agg && (sorts_on_source || !plan.aggregated_items_are_bare());
        Ok(plan)
    }

    /// True when any item contains an aggregate (the projection groups).
    pub fn is_aggregating(&self) -> bool {
        self.any_agg
    }

    /// The output schema (one column per item, in order).
    pub fn out_schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    /// Output names of the non-aggregated items — the implicit grouping
    /// keys (for `EXPLAIN`).
    pub fn key_names(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter(|p| !p.aggregated)
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Rendered aggregate calls, e.g. `count(*)`, `sum(DISTINCT x)` (for
    /// `EXPLAIN`).
    pub fn agg_display(&self) -> Vec<String> {
        self.specs
            .iter()
            .map(|s| {
                let name = match s.kind {
                    AggKind::CountStar => return "count(*)".to_string(),
                    AggKind::Count => "count",
                    AggKind::Sum => "sum",
                    AggKind::Avg => "avg",
                    AggKind::Min => "min",
                    AggKind::Max => "max",
                    AggKind::Collect => "collect",
                    AggKind::StDev => "stdev",
                    AggKind::StDevP => "stdevp",
                    AggKind::PercentileCont => "percentileCont",
                    AggKind::PercentileDisc => "percentileDisc",
                };
                let d = if s.distinct { "DISTINCT " } else { "" };
                let a = s.arg.as_ref().map(alpha).unwrap_or_default();
                format!("{name}({d}{a})")
            })
            .collect()
    }

    /// True when every aggregate call in the plan supports exact
    /// retraction ([`AggKind::is_retractable`]) — a necessary condition
    /// for delta-maintaining a view of this projection.
    pub fn all_aggs_retractable(&self) -> bool {
        self.specs.iter().all(|s| s.kind.is_retractable(s.distinct))
    }

    /// True when every aggregated item is a *bare* aggregate call (after
    /// extraction the rewritten item is exactly its placeholder
    /// parameter), e.g. `count(*)` or `sum(n.v)` but not `1 + count(*)`
    /// with `count(*)` buried in arithmetic over the group's
    /// representative row. Incremental maintenance requires this so
    /// finalization never consults a representative source row (which a
    /// retraction may have deleted from the graph).
    pub fn aggregated_items_are_bare(&self) -> bool {
        self.items
            .iter()
            .filter(|p| p.aggregated)
            .all(|p| matches!(&p.expr, Expr::Param(name) if name.starts_with(" agg ")))
    }

    /// One empty aggregator per aggregate call: a new group's.
    fn fresh_aggs(&self) -> Vec<Aggregator> {
        self.specs
            .iter()
            .map(|s| Aggregator::new(s.kind, s.distinct))
            .collect()
    }

    /// Evaluates the non-aggregated projection of one row with the
    /// generic evaluator: the reference path
    /// ([`crate::clauses::apply_projection`]) that a
    /// [`BoundProjection`] must equal.
    pub fn project_row(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        row: &Record,
    ) -> Result<Record, EvalError> {
        let b = Bindings::new(schema, row);
        let mut out = Vec::with_capacity(self.items.len());
        for p in &self.items {
            out.push(eval_expr(ctx, &b, &p.expr)?);
        }
        Ok(Record::new(out))
    }

    /// Binds the items, and every aggregate's arguments, to an input
    /// schema and to `ctx`'s snapshot, once for many rows: `x` becomes a
    /// column, `x.k` a column plus the interned key. The result evaluates
    /// them a column at a time, without per-row name lookups or key
    /// hashing (the engine's `WITH` step and projecting sinks).
    pub fn bind<'a>(&'a self, ctx: &EvalContext<'_>, schema: &'a Schema) -> BoundProjection<'a> {
        let bind = |e: &Expr| BoundItem::of(ctx, schema, e);
        BoundProjection {
            plan: self,
            schema,
            items: self.items.iter().map(|p| bind(&p.expr)).collect(),
            args: self
                .specs
                .iter()
                .map(|s| [&s.arg, &s.aux].map(|e| e.as_ref().map_or(BoundItem::Eval, bind)))
                .collect(),
        }
    }
}

/// How one expression of a [`BoundProjection`] reads its rows.
enum BoundItem {
    /// `x`: a copy of the column.
    Column(usize),
    /// `x.k` over a column: read straight off a node or relationship with
    /// the interned key (`None`: never interned, so no entity carries it);
    /// any other value goes through the evaluator.
    Prop(usize, Option<Symbol>),
    /// Everything else: [`eval_expr`], exactly as unbound.
    Eval,
}

impl BoundItem {
    /// The column a bare `x` copies.
    fn as_column(&self) -> Option<usize> {
        match self {
            BoundItem::Column(c) => Some(*c),
            _ => None,
        }
    }

    fn of(ctx: &EvalContext<'_>, schema: &Schema, e: &Expr) -> BoundItem {
        let (var, key) = match e {
            Expr::Var(x) => (x, None),
            Expr::Prop(base, k) => match &**base {
                Expr::Var(x) => (x, Some(k)),
                _ => return BoundItem::Eval,
            },
            _ => return BoundItem::Eval,
        };
        match (schema.index_of(var), key) {
            (Some(col), None) => BoundItem::Column(col),
            (Some(col), Some(k)) => BoundItem::Prop(col, ctx.graph.interner().get(k)),
            // Undefined: the evaluator raises the error.
            (None, _) => BoundItem::Eval,
        }
    }

    /// `e`, the expression this was bound from, over the rows of `batch`
    /// (of `schema`): the column of its values, equal to [`eval_expr`]'s,
    /// or the first row on which it fails and its error.
    fn column(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        batch: &RowBatch,
        e: &Expr,
    ) -> Result<Vec<Value>, (usize, EvalError)> {
        let eval = |row| eval_expr(ctx, &batch.row(schema, row), e).map_err(|x| (row, x));
        let g = ctx.graph;
        let mut out = Vec::with_capacity(batch.len());
        match *self {
            BoundItem::Column(col) => out.extend_from_slice(&batch.columns()[col]),
            BoundItem::Prop(col, key) => {
                for (row, v) in batch.columns()[col].iter().enumerate() {
                    let prop = match v {
                        Value::Node(n) => key.and_then(|k| g.node_prop(*n, k)),
                        Value::Rel(r) => key.and_then(|k| g.rel_prop(*r, k)),
                        _ => {
                            out.push(eval(row)?);
                            continue;
                        }
                    };
                    out.push(prop.cloned().unwrap_or(Value::Null));
                }
            }
            BoundItem::Eval => {
                for row in 0..batch.len() {
                    out.push(eval(row)?);
                }
            }
        }
        Ok(out)
    }
}

/// A [`ProjectionPlan`] bound to one input schema and snapshot
/// ([`ProjectionPlan::bind`]).
pub struct BoundProjection<'a> {
    plan: &'a ProjectionPlan,
    schema: &'a Schema,
    /// One per item.
    items: Vec<BoundItem>,
    /// One `[argument, second argument]` pair per aggregate call.
    args: Vec<[BoundItem; 2]>,
}

impl BoundProjection<'_> {
    /// Evaluates the non-aggregated projection of a batch of the bound
    /// schema, one output column per item; equal, value and error alike,
    /// to [`ProjectionPlan::project_row`] on each row in turn. An item
    /// that is a bare column of an owned batch takes the column itself
    /// where no later item reads it.
    pub fn project_batch(
        &self,
        ctx: &EvalContext<'_>,
        batch: Cow<'_, RowBatch>,
    ) -> Result<RowBatch, EvalError> {
        let items = || self.items.iter().zip(&self.plan.items);
        // A bare column cannot fail, so leaving it out keeps the error.
        let exprs = items().filter(|(b, _)| b.as_column().is_none());
        let mut out = Vec::with_capacity(self.items.len());
        self.columns(ctx, exprs.map(|(b, p)| (b, &p.expr)), &batch, &mut out)?;
        let len = batch.len();
        let mut cols = match batch {
            Cow::Owned(batch) => Cow::Owned(batch.into_columns()),
            Cow::Borrowed(batch) => Cow::Borrowed(batch.columns()),
        };
        for (i, (b, _)) in items().enumerate() {
            let Some(c) = b.as_column() else {
                continue;
            };
            let read_later = items().skip(i + 1).any(|(b, _)| b.as_column() == Some(c));
            out.insert(
                i,
                match &mut cols {
                    Cow::Owned(cols) if !read_later => std::mem::take(&mut cols[c]),
                    cols => cols[c].clone(),
                },
            );
        }
        Ok(RowBatch::new(len, out))
    }

    /// The one entry that evaluates bound expressions: each of `exprs`
    /// over the rows of `batch`, a column at a time, appended to `out`. A
    /// row-at-a-time evaluation would raise the first error in row-major
    /// order, so a failure is answered with that error: the rows up to
    /// the failing one are evaluated again, row by row, and the first
    /// error found is raised, whichever column failed first.
    fn columns<'e>(
        &self,
        ctx: &EvalContext<'_>,
        exprs: impl Iterator<Item = (&'e BoundItem, &'e Expr)> + Clone,
        batch: &RowBatch,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), EvalError> {
        let schema = self.schema;
        for (item, e) in exprs.clone() {
            match item.column(ctx, schema, batch, e) {
                Ok(col) => out.push(col),
                Err((failed, error)) => {
                    for row in 0..=failed {
                        for (_, e) in exprs.clone() {
                            eval_expr(ctx, &batch.row(schema, row), e)?;
                        }
                    }
                    return Err(error);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Grouped aggregation
// ---------------------------------------------------------------------------

/// A group's aggregators and representative row.
#[derive(Clone)]
struct Group {
    aggs: Vec<Aggregator>,
    /// The group's first source row (`None` unless the projection reads
    /// it: see `ProjectionPlan::keep_repr`).
    repr: Option<Record>,
}

/// A partial grouped-aggregation state: feed rows, merge sibling states
/// (in row order), finalize into the projected table.
///
/// With an aggregating [`ProjectionPlan`] this is hash-grouped
/// aggregation; with a non-aggregating plan every item acts as a key and
/// the state degenerates to ordered duplicate elimination — exactly the
/// semantics of a `DISTINCT` projection (first occurrence kept, original
/// row order preserved).
///
/// The groups are a [`CountedMap`] from grouping key to group, counting
/// the rows folded in: a group retracted down to zero rows is invisible,
/// and a re-fed key starts a fresh group at the end, so full retraction is
/// order-transparent. Folding a row into an existing group allocates
/// nothing: the key is evaluated into a buffer the state reuses and probed
/// by slice, and it is copied, with the representative row, only into a
/// new group.
#[derive(Default)]
pub struct GroupedAggState {
    groups: CountedMap<Vec<Value>, Group>,
    /// The grouping key of the row being folded.
    key: Vec<Value>,
}

impl GroupedAggState {
    /// Evaluates the grouping key of `row` into the reusable buffer.
    fn eval_key(
        &mut self,
        ctx: &EvalContext<'_>,
        plan: &ProjectionPlan,
        schema: &Schema,
        row: &Record,
    ) -> Result<(), EvalError> {
        self.key.clear();
        let b = Bindings::new(schema, row);
        for p in plan.items.iter().filter(|p| !p.aggregated) {
            self.key.push(eval_expr(ctx, &b, &p.expr)?);
        }
        Ok(())
    }

    /// The live group of the key in the buffer, created with the source
    /// row `repr` when there is none, with one more row counted in.
    fn group_of(&mut self, plan: &ProjectionPlan, repr: impl FnOnce() -> Record) -> &mut Group {
        let key = &self.key;
        self.groups.add_with(key, || {
            let repr = plan.keep_repr.then(repr);
            let aggs = plan.fresh_aggs();
            (key.clone(), Group { aggs, repr })
        })
    }

    /// Folds one source row in with the generic evaluator (the reference
    /// path): evaluates the grouping keys, finds or creates the group,
    /// and feeds every aggregator.
    pub fn feed(
        &mut self,
        ctx: &EvalContext<'_>,
        plan: &ProjectionPlan,
        schema: &Schema,
        row: &Record,
    ) -> Result<(), EvalError> {
        self.eval_key(ctx, plan, schema, row)?;
        let b = Bindings::new(schema, row);
        let group = self.group_of(plan, || row.clone());
        for (agg, spec) in group.aggs.iter_mut().zip(&plan.specs) {
            agg.push(match &spec.arg {
                Some(e) => eval_expr(ctx, &b, e)?,
                None => Value::Null,
            });
            if let Some(e) = &spec.aux {
                agg.push_aux(eval_expr(ctx, &b, e)?);
            }
        }
        Ok(())
    }

    /// Folds a batch of the bound schema in: the fold of
    /// [`GroupedAggState::feed`] on each row in turn, value and error
    /// alike, with every grouping key and aggregate argument evaluated as
    /// a column ([`BoundProjection`]). A row that joins an existing group
    /// allocates nothing.
    pub fn feed_batch(
        &mut self,
        ctx: &EvalContext<'_>,
        bound: &BoundProjection<'_>,
        batch: &RowBatch,
    ) -> Result<(), EvalError> {
        let plan = bound.plan;
        let items = bound.items.iter().zip(&plan.items);
        let keys = items
            .filter(|(_, p)| !p.aggregated)
            .map(|(b, p)| (b, &p.expr));
        let args = bound.args.iter().zip(&plan.specs);
        let args = args.flat_map(|([a, x], s)| [(a, &s.arg), (x, &s.aux)]);
        let exprs = keys
            .clone()
            .chain(args.filter_map(|(b, e)| Some((b, e.as_ref()?))));
        let mut columns = Vec::with_capacity(exprs.clone().count());
        bound.columns(ctx, exprs, batch, &mut columns)?;
        let (keys, args) = columns.split_at_mut(keys.count());
        let take = |col: &mut Vec<Value>, row: usize| std::mem::replace(&mut col[row], Value::Null);
        for row in 0..batch.len() {
            self.key.clear();
            self.key.extend(keys.iter_mut().map(|c| take(c, row)));
            let group = self.group_of(plan, || batch.row(bound.schema, row).record());
            let mut args = args.iter_mut();
            for (agg, spec) in group.aggs.iter_mut().zip(&plan.specs) {
                agg.push(match spec.arg {
                    Some(_) => take(args.next().expect("argument column"), row),
                    None => Value::Null,
                });
                if spec.aux.is_some() {
                    agg.push_aux(take(args.next().expect("argument column"), row));
                }
            }
        }
        Ok(())
    }

    /// Undoes one [`GroupedAggState::feed`] of `row`: re-evaluates the
    /// grouping keys and aggregate arguments (against `ctx` — for view
    /// maintenance this is the **pre-update** graph, so the evaluations
    /// reproduce what the original feed saw), retracts from every
    /// aggregator, and tombstones the group when its last row leaves.
    ///
    /// Returns `false` (without touching anything) when no live group
    /// matches — the row was never fed, which callers treat as a signal to
    /// fall back to full recomputation rather than publish a corrupt
    /// state. Requires every aggregate kind in the plan to satisfy
    /// [`AggKind::is_retractable`].
    pub fn retract(
        &mut self,
        ctx: &EvalContext<'_>,
        plan: &ProjectionPlan,
        schema: &Schema,
        row: &Record,
    ) -> Result<bool, EvalError> {
        self.eval_key(ctx, plan, schema, row)?;
        let Some(group) = self.groups.get_mut(&self.key) else {
            return Ok(false);
        };
        for (agg, spec) in group.aggs.iter_mut().zip(&plan.specs) {
            let v = match &spec.arg {
                Some(argexpr) => eval_expr(ctx, &Bindings::new(schema, row), argexpr)?,
                None => Value::Null,
            };
            agg.retract(v);
        }
        self.groups.remove(&self.key);
        Ok(true)
    }

    /// Folds a sibling state covering **later** rows into this one. Group
    /// creation order, representative rows and every aggregator reproduce
    /// the row-order fold, so merging states in morsel order yields the
    /// bit-identical sequential result.
    pub fn merge(&mut self, other: GroupedAggState) {
        self.groups.merge(other.groups, |mine, theirs| {
            for (mine, theirs) in mine.aggs.iter_mut().zip(theirs.aggs) {
                mine.merge(theirs);
            }
        });
    }

    /// Finishes every group into an output row. Returns the projected
    /// table plus, per output row, the group's source row (for the
    /// `ORDER BY` pre-projection scope; empty when `keep_repr` was off).
    ///
    /// An aggregation with no grouping keys over no rows still produces
    /// one (empty) group — `RETURN count(*)` on nothing is 0.
    pub fn finalize(
        self,
        ctx: &EvalContext<'_>,
        plan: &ProjectionPlan,
        src_schema: &Schema,
    ) -> Result<(Table, Vec<Record>), EvalError> {
        let groups = self.groups.into_live().map(|(key, _, group)| (key, group));
        Self::finish(ctx, plan, src_schema, groups)
    }

    /// Non-consuming [`GroupedAggState::finalize`]: finishes clones of the
    /// live groups, leaving this state intact for further
    /// feeds/retractions. This is the incremental-view refresh path — the
    /// state persists across commits, the output table is rebuilt per
    /// publication (O(live groups), independent of the base table size).
    pub fn finalize_snapshot(
        &self,
        ctx: &EvalContext<'_>,
        plan: &ProjectionPlan,
        src_schema: &Schema,
    ) -> Result<Table, EvalError> {
        let groups = self
            .groups
            .iter()
            .map(|(key, _, g)| (key.clone(), g.clone()));
        Ok(Self::finish(ctx, plan, src_schema, groups)?.0)
    }

    /// Finishes live groups into output rows (see
    /// [`GroupedAggState::finalize`]).
    fn finish(
        ctx: &EvalContext<'_>,
        plan: &ProjectionPlan,
        src_schema: &Schema,
        groups: impl Iterator<Item = (Vec<Value>, Group)>,
    ) -> Result<(Table, Vec<Record>), EvalError> {
        let has_keys = plan.items.iter().any(|p| !p.aggregated);
        let mut groups = groups.peekable();
        let none = !has_keys && plan.any_agg && groups.peek().is_none();
        let aggs = none.then(|| plan.fresh_aggs());
        let empty = aggs.map(|aggs| (Vec::new(), Group { aggs, repr: None }));

        let mut out = Table::empty(plan.out_schema.clone());
        let mut sources: Vec<Record> = Vec::new();
        for (key, group) in groups.chain(empty) {
            if !plan.any_agg {
                // Key-only (DISTINCT) state: the key *is* the output row.
                out.push(Record::new(key));
                continue;
            }
            let mut results = Vec::with_capacity(group.aggs.len());
            for agg in group.aggs {
                results.push(agg.finish()?);
            }
            // Placeholder params carry this group's aggregate results to
            // an item that is more than a bare aggregate — over a copy of
            // the query's parameters, made only for such an item.
            let mut params: Option<Params> = None;
            let mut row = Record::empty();
            let mut key_iter = key.into_iter();
            let repr_ok = group
                .repr
                .as_ref()
                .is_some_and(|r| r.values().len() == src_schema.len());
            for p in &plan.items {
                if !p.aggregated {
                    row.push(key_iter.next().expect("key arity"));
                    continue;
                }
                let bare = plan
                    .specs
                    .iter()
                    .position(|s| matches!(&p.expr, Expr::Param(name) if *name == s.placeholder));
                if let Some(i) = bare {
                    row.push(results[i].clone());
                    continue;
                }
                let params = params.get_or_insert_with(|| {
                    let mut params = ctx.params.clone();
                    for (spec, result) in plan.specs.iter().zip(&results) {
                        params.insert(spec.placeholder.clone(), result.clone());
                    }
                    params
                });
                let group_ctx = EvalContext {
                    graph: ctx.graph,
                    params,
                    config: ctx.config,
                };
                // Non-key parts of an aggregated item are evaluated on the
                // group's representative row (the fabricated empty group
                // of an all-aggregate projection has none).
                row.push(if repr_ok {
                    let repr = group.repr.as_ref().expect("repr_ok");
                    eval_expr(&group_ctx, &Bindings::new(src_schema, repr), &p.expr)?
                } else {
                    eval_expr(&group_ctx, &NoVars, &p.expr)?
                });
            }
            out.push(row);
            if plan.keep_repr {
                sources.push(if repr_ok {
                    group.repr.unwrap()
                } else {
                    Record::empty()
                });
            }
        }
        Ok((out, sources))
    }
}

// ---------------------------------------------------------------------------
// Bounded top-k
// ---------------------------------------------------------------------------

/// One retained row: its sort keys, a per-state sequence number (for
/// stability), and the projected output row.
struct TopKEntry {
    keys: Vec<Value>,
    seq: u64,
    row: Record,
}

/// A bounded accumulator for `ORDER BY … LIMIT` (optionally with `SKIP`):
/// keeps the first `k = skip + limit` rows of the stable sort order, in a
/// max-heap, so memory is O(k) instead of O(rows).
///
/// Stability matches [`Table::sort_by`] (a stable sort): among rows whose
/// keys compare equal, earlier rows win. Within one state the sequence
/// number arbitrates; across states, [`TopKState::merge_sorted`] orders
/// states before sequence numbers — so feeding morsels into separate
/// states and merging them in morsel order reproduces the sequential
/// stable sort's prefix exactly.
pub struct TopKState {
    k: usize,
    /// Ascending flag per sort key.
    ascending: Vec<bool>,
    /// Max-heap by (keys, seq): `heap[0]` is the worst retained entry.
    heap: Vec<TopKEntry>,
    next_seq: u64,
}

/// Two-layer assignment for sort keys: projected columns shadow the
/// pre-projection row (the `RETURN a.i ORDER BY a.x` scoping rule).
struct SortScope<'a> {
    projected: &'a dyn VarLookup,
    source: Option<&'a dyn VarLookup>,
}

impl VarLookup for SortScope<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.projected
            .lookup(name)
            .or_else(|| self.source.and_then(|s| s.lookup(name)))
    }
}

/// Appends to `out` the `ORDER BY` keys of one projected row, evaluated
/// with its columns shadowing its `source` row, when the sort may read
/// one.
pub fn sort_keys(
    ctx: &EvalContext<'_>,
    order: &[SortItem],
    projected: &dyn VarLookup,
    source: Option<&dyn VarLookup>,
    out: &mut Vec<Value>,
) -> Result<(), EvalError> {
    let scope = SortScope { projected, source };
    for k in order {
        out.push(eval_expr(ctx, &scope, &k.expr)?);
    }
    Ok(())
}

/// Compares two rows' `ORDER BY` keys: lexicographically in the
/// orderability order, each key reversed where it sorts descending.
pub fn cmp_sort_keys(
    ascending: impl IntoIterator<Item = bool>,
    a: &[Value],
    b: &[Value],
) -> Ordering {
    for ((asc, a), b) in ascending.into_iter().zip(a).zip(b) {
        let ord = a.cmp_order(b);
        let ord = if asc { ord } else { ord.reverse() };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

impl TopKState {
    /// An empty accumulator retaining the first `k` rows of the order
    /// defined by `keys`.
    pub fn new(k: usize, keys: &[SortItem]) -> TopKState {
        TopKState {
            k,
            ascending: keys.iter().map(|s| s.ascending).collect(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    fn cmp_keys(&self, a: &[Value], b: &[Value]) -> Ordering {
        cmp_sort_keys(self.ascending.iter().copied(), a, b)
    }

    fn cmp_entries(&self, a: &TopKEntry, b: &TopKEntry) -> Ordering {
        self.cmp_keys(&a.keys, &b.keys).then(a.seq.cmp(&b.seq))
    }

    /// Evaluates the sort keys of one projected row (`projected`, with
    /// its optional source row for the pre-projection scope) and offers
    /// it; `row` builds the projected row only when the state keeps it.
    pub fn feed(
        &mut self,
        ctx: &EvalContext<'_>,
        keys: &[SortItem],
        projected: &dyn VarLookup,
        source: Option<&dyn VarLookup>,
        row: impl FnOnce() -> Record,
    ) -> Result<(), EvalError> {
        let mut ks = Vec::with_capacity(keys.len());
        sort_keys(ctx, keys, projected, source, &mut ks)?;
        if self.admits(&ks) {
            self.offer(ks, row());
        } else {
            self.next_seq += 1;
        }
        Ok(())
    }

    /// Whether a row with sort keys `keys`, offered next, is kept. A
    /// later row with equal keys never displaces the worst entry.
    fn admits(&self, keys: &[Value]) -> bool {
        self.heap.len() < self.k
            || (self.k > 0 && self.cmp_keys(keys, &self.heap[0].keys) == Ordering::Less)
    }

    /// Offers a row with pre-computed sort keys.
    pub fn offer(&mut self, keys: Vec<Value>, row: Record) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !self.admits(&keys) {
            return;
        }
        let entry = TopKEntry { keys, seq, row };
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.cmp_entries(&self.heap[i], &self.heap[parent]) == Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len()
                && self.cmp_entries(&self.heap[l], &self.heap[largest]) == Ordering::Greater
            {
                largest = l;
            }
            if r < self.heap.len()
                && self.cmp_entries(&self.heap[r], &self.heap[largest]) == Ordering::Greater
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// Drains this state into `(keys, row)` pairs sorted by (keys, seq).
    fn into_sorted(self) -> Vec<(Vec<Value>, u64, Record)> {
        let TopKState {
            ascending,
            mut heap,
            ..
        } = self;
        heap.sort_by(|a, b| {
            let ord = cmp_sort_keys(ascending.iter().copied(), &a.keys, &b.keys);
            ord.then(a.seq.cmp(&b.seq))
        });
        heap.into_iter().map(|e| (e.keys, e.seq, e.row)).collect()
    }

    /// Merges partial states **in row (morsel) order** and produces the
    /// final `skip..skip+limit` slice as rows. Equivalent to stably
    /// sorting the concatenated inputs and slicing.
    pub fn merge_sorted(
        states: Vec<TopKState>,
        keys: &[SortItem],
        skip: usize,
        limit: usize,
        out_schema: Arc<Schema>,
    ) -> Table {
        // Concatenate per-state sorted survivors in state order, then
        // stable-sort by keys alone: ties keep state order then seq order,
        // which is exactly the global stable order.
        let mut all: Vec<(Vec<Value>, Record)> = Vec::new();
        for st in states {
            for (ks, _, row) in st.into_sorted() {
                all.push((ks, row));
            }
        }
        all.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(keys.iter().map(|k| k.ascending), ka, kb));
        let mut out = Table::empty(out_schema);
        for (_, row) in all.into_iter().skip(skip).take(limit) {
            out.push(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{table_of, Params};
    use cypher_ast::query::Return;
    use cypher_graph::PropertyGraph;
    use cypher_parser::{parse_expression, parse_query};

    fn ret_of(src: &str) -> Return {
        let q = parse_query(&format!("MATCH (n) {src}")).unwrap();
        match q {
            cypher_ast::query::Query::Single(sq) => sq.ret.unwrap(),
            _ => panic!(),
        }
    }

    #[test]
    fn compile_reports_duplicates_and_star() {
        let schema = Schema::new(vec!["n".into()]);
        assert!(ProjectionPlan::compile(&ret_of("RETURN n.v AS a, n.i AS a"), &schema).is_err());
        let empty = Schema::empty();
        let star = Return {
            star: true,
            ..Return::default()
        };
        assert!(ProjectionPlan::compile(&star, &empty).is_err());
    }

    fn shape(item: &BoundItem) -> &'static str {
        match item {
            BoundItem::Column(_) => "column",
            BoundItem::Prop(..) => "prop",
            BoundItem::Eval => "eval",
        }
    }

    /// The bound fast paths equal the generic evaluator (what
    /// `ProjectionPlan::project_row` and `GroupedAggState::feed` run),
    /// value and error text alike, on every shape a column can hold: as a
    /// projected item, as a grouping key and as an aggregate's argument.
    #[test]
    fn bound_projection_matches_eval_expr() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&["Person"], [("name", Value::str("Ada"))]);
        let b = g.add_node(&["Person"], []);
        let r = g
            .add_rel(a, b, "KNOWS", [("since", Value::int(1985))])
            .unwrap();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let eval =
            |src: &str, u: &dyn VarLookup| eval_expr(&ctx, u, &parse_expression(src).unwrap());
        let schema = Schema::new(["n", "r", "m", "t", "z"].map(String::from).to_vec());
        let row = Record::new(vec![
            Value::Node(a),
            Value::Rel(r),
            eval("{name: 'map', k: 1}", &NoVars).unwrap(),
            eval("date('2024-02-29')", &NoVars).unwrap(),
            Value::Null,
        ]);
        // The row as a one-row batch.
        let batch = RowBatch::from_table(Table::new(schema.clone(), vec![row.clone()]));
        let cases = [
            ("n", "column"),
            ("r", "column"),
            ("m", "column"),
            ("t", "column"),
            ("z", "column"),
            ("n.name", "prop"),
            ("r.since", "prop"),
            ("m.name", "prop"),
            ("t.year", "prop"),
            ("z.name", "prop"),
            // Interned (a relationship carries it), absent on the node.
            ("n.since", "prop"),
            ("n.nowhere", "prop"),
            ("q", "eval"),
            ("q.name", "eval"),
            ("t.nowhere", "prop"),
        ];
        for (src, want) in cases {
            let plan =
                ProjectionPlan::compile(&ret_of(&format!("RETURN {src} AS c")), &schema).unwrap();
            let bound = plan.bind(&ctx, &schema);
            assert_eq!(shape(&bound.items[0]), want, "{src} binds as");
            let fast = bound.project_batch(&ctx, Cow::Borrowed(&batch));
            let slow = eval(src, &Bindings::new(&schema, &row));
            match (fast, slow) {
                (Ok(out), Ok(v)) => {
                    assert_eq!(format!("{:?}", out.columns()), format!("{:?}", [[v]]))
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{src}"),
                (fast, slow) => panic!("{src}: bound {fast:?}, generic {slow:?}"),
            }
        }

        // Folds `ret` over the row twice (a new group, then a hit), bound
        // and generic, and compares the finished tables or errors.
        let fold_both = |ret: &str, check: &dyn Fn(&BoundProjection<'_>)| {
            let plan = ProjectionPlan::compile(&ret_of(ret), &schema).unwrap();
            let bound = plan.bind(&ctx, &schema);
            check(&bound);
            let (mut fast, mut slow) = (GroupedAggState::default(), GroupedAggState::default());
            let run = |st: &mut GroupedAggState, bound: Option<&BoundProjection<'_>>| {
                for _ in 0..2 {
                    match bound {
                        Some(b) => st.feed_batch(&ctx, b, &batch)?,
                        None => st.feed(&ctx, &plan, &schema, &row)?,
                    }
                }
                Ok::<_, EvalError>(())
            };
            let fast =
                run(&mut fast, Some(&bound)).and_then(|()| fast.finalize(&ctx, &plan, &schema));
            let slow = run(&mut slow, None).and_then(|()| slow.finalize(&ctx, &plan, &schema));
            match (fast, slow) {
                (Ok((t1, _)), Ok((t2, _))) => {
                    assert_eq!(
                        format!("{:?}", t1.rows()),
                        format!("{:?}", t2.rows()),
                        "{ret}"
                    )
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{ret}"),
                (fast, slow) => panic!("{ret}: bound {fast:?}, generic {slow:?}"),
            }
        };
        for (src, want) in cases {
            fold_both(&format!("RETURN {src} AS k, count(*) AS c"), &|b| {
                assert_eq!(shape(&b.items[0]), want, "key {src} binds as")
            });
        }
        let args = [
            ("collect(n.name)", "prop", "eval"),
            ("sum(r.since)", "prop", "eval"),
            ("collect(n.nowhere)", "prop", "eval"),
            ("count(z)", "column", "eval"),
            ("collect(z.name)", "prop", "eval"),
            ("collect(m)", "column", "eval"),
            ("collect(m.name)", "prop", "eval"),
            ("count(q)", "eval", "eval"),
            // A string cannot be summed: the error surfaces at finish.
            ("sum(n.name)", "prop", "eval"),
            ("avg(m)", "column", "eval"),
            ("percentileCont(r.since, 0.5)", "prop", "eval"),
            ("percentileCont(r.since, m.k)", "prop", "prop"),
            ("percentileDisc(r.since, z)", "prop", "column"),
            ("percentileCont(r.since, n.name)", "prop", "prop"),
            ("percentileCont(r.since, n.nowhere)", "prop", "prop"),
        ];
        for (call, arg, aux) in args {
            fold_both(&format!("RETURN n.name AS k, {call} AS a"), &|b| {
                let [a, x] = &b.args[0];
                assert_eq!((shape(a), shape(x)), (arg, aux), "{call} binds as")
            });
        }
    }

    #[test]
    fn grouped_state_split_feed_matches_single_feed() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let ret = ret_of("RETURN n AS g, count(*) AS c, sum(v) AS s");
        let table = table_of(
            &["n", "v"],
            vec![
                vec![Value::str("a"), Value::int(1)],
                vec![Value::str("b"), Value::float(0.25)],
                vec![Value::str("a"), Value::int(2)],
                vec![Value::str("b"), Value::float(0.5)],
                vec![Value::str("c"), Value::Null],
            ],
        );
        let schema = table.schema().clone();
        let plan = ProjectionPlan::compile(&ret, &schema).unwrap();

        let mut whole = GroupedAggState::default();
        for r in table.rows() {
            whole.feed(&ctx, &plan, &schema, r).unwrap();
        }
        let (base, _) = whole.finalize(&ctx, &plan, &schema).unwrap();

        for chunk in [1usize, 2, 3] {
            let mut acc = GroupedAggState::default();
            for part in table.rows().chunks(chunk) {
                let mut s = GroupedAggState::default();
                for r in part {
                    s.feed(&ctx, &plan, &schema, r).unwrap();
                }
                acc.merge(s);
            }
            let (merged, _) = acc.finalize(&ctx, &plan, &schema).unwrap();
            assert!(
                merged.ordered_eq(&base),
                "chunk={chunk}\nbase:\n{base}\nmerged:\n{merged}"
            );
        }
    }

    #[test]
    fn grouped_state_compacts_retracted_groups() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let ret = ret_of("RETURN v AS v, count(*) AS c");
        let schema = Schema::new(vec!["v".into()]);
        let plan = ProjectionPlan::compile(&ret, &schema).unwrap();
        let row = |v: i64| Record::new(vec![Value::int(v)]);
        let mut st = GroupedAggState::default();
        st.feed(&ctx, &plan, &schema, &row(0)).unwrap();
        for i in 0..10_000i64 {
            assert!(st.retract(&ctx, &plan, &schema, &row(i % 2)).unwrap());
            st.feed(&ctx, &plan, &schema, &row((i + 1) % 2)).unwrap();
        }
        let live = st.groups.len();
        assert_eq!(live, 1);
        assert!(
            st.groups.slots() <= 2 * live + 1,
            "{} slots",
            st.groups.slots()
        );
        let (out, _) = st.finalize(&ctx, &plan, &schema).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "v"), Some(&Value::int(0)));
        assert_eq!(out.cell(0, "c"), Some(&Value::int(1)));
    }

    #[test]
    fn empty_keyless_aggregation_yields_one_group() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let ret = ret_of("RETURN count(*) AS c");
        let schema = Schema::new(vec!["n".into()]);
        let plan = ProjectionPlan::compile(&ret, &schema).unwrap();
        let st = GroupedAggState::default();
        let (out, _) = st.finalize(&ctx, &plan, &schema).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.cell(0, "c"), Some(&Value::int(0)));
    }

    #[test]
    fn topk_matches_stable_sort_prefix() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let keys = vec![SortItem {
            expr: parse_expression("k").unwrap(),
            ascending: true,
        }];
        let schema = Schema::new(vec!["k".into(), "tag".into()]);
        // Ties on k; stability must keep the earlier tag.
        let rows: Vec<Record> = (0..40)
            .map(|i| Record::new(vec![Value::int(i % 7), Value::int(i)]))
            .collect();
        for (skip, limit) in [(0usize, 5usize), (3, 4), (0, 40), (10, 100)] {
            let k = skip + limit;
            // Single state.
            let mut st = TopKState::new(k, &keys);
            for r in &rows {
                let b = Bindings::new(&schema, r);
                st.feed(&ctx, &keys, &b, None, || r.clone()).unwrap();
            }
            let got = TopKState::merge_sorted(vec![st], &keys, skip, limit, schema.clone());
            // Oracle: stable sort + slice.
            let mut t = Table::new(schema.clone(), rows.clone());
            t.sort_by(|a, b| a.get(0).cmp_order(b.get(0)));
            let want = t.slice(skip, Some(limit));
            assert!(
                got.ordered_eq(&want),
                "skip={skip} limit={limit}\nwant:\n{want}\ngot:\n{got}"
            );
            // Partitioned into several states, merged in order.
            for chunk in [1usize, 7, 16] {
                let mut states = Vec::new();
                for part in rows.chunks(chunk) {
                    let mut s = TopKState::new(k, &keys);
                    for r in part {
                        let b = Bindings::new(&schema, r);
                        s.feed(&ctx, &keys, &b, None, || r.clone()).unwrap();
                    }
                    states.push(s);
                }
                let merged = TopKState::merge_sorted(states, &keys, skip, limit, schema.clone());
                assert!(
                    merged.ordered_eq(&want),
                    "chunk={chunk} skip={skip} limit={limit}\nwant:\n{want}\ngot:\n{merged}"
                );
            }
        }
    }
}
