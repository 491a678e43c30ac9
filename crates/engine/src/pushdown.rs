//! The projection [`Sink`]s a segment ends in: partial aggregation,
//! top-k and plain projection pushed into the morsel pipeline.
//!
//! A projection that aggregates, deduplicates or sorts is a *pipeline
//! breaker*: collected first, a segment's output is one table and
//! grouping/sorting runs single-threaded over it. For the
//! analytic queries Section 3 of the paper centers on (implicit grouping
//! keys, `count`, `collect`, ordered projections) that table *is* the
//! cost — it scales with the pre-aggregation row count and serializes the
//! most expensive clause.
//!
//! When the projection that ends a segment — the `RETURN`, or a `WITH`
//! that aggregates, deduplicates, sorts or slices — qualifies
//! ([`select_sink`]), the driver instead feeds every morsel of the
//! segment straight into a partial state:
//!
//! * aggregating projections and `DISTINCT` fold into a
//!   [`GroupedAggState`] ([`Fold`]) — the *same* type the sequential
//!   reference semantics use, so there is exactly one grouping
//!   implementation;
//! * `ORDER BY … LIMIT k` (no aggregation) folds into a bounded
//!   [`TopKState`] of `skip + limit` rows per morsel ([`TopK`]);
//! * a plain projection ([`Map`]) projects each batch as it arrives, so
//!   the match table is never collected, copied and projected again.
//!
//! All merge their partials in morsel order, and every constituent is
//! designed to make that merge reproduce the sequential row-order fold
//! bit-for-bit — group creation order, distinct first-occurrence order,
//! `min`/`max` tie-breaking, stable-sort tie-breaking, and (via exact
//! float summation) `sum`/`avg` bits.

use crate::exec::{EngineConfig, PartialAggMode};
use crate::ops::Sink;
use cypher_ast::query::Return;
use cypher_core::clauses::{apply_order_by_scoped, apply_projection, eval_count};
use cypher_core::error::EvalError;
use cypher_core::project::{GroupedAggState, ProjectionPlan, TopKState};
use cypher_core::table::{Record, RowBatch, Schema, Table};
use cypher_core::EvalContext;
use std::borrow::Cow;
use std::sync::Arc;

/// A segment's closing projection compiled for the pipeline: what
/// [`Fold`], [`TopK`] and [`Map`] share.
pub(crate) struct Projection<'q> {
    plan: ProjectionPlan,
    ret: &'q Return,
    /// The schema the projection is written against: the fields in scope
    /// at the end of the segment. (The pipeline's raw schema is a
    /// superset with hidden columns; expressions resolve by name, so
    /// feeding raw rows is equivalent — and saves a per-row projection.)
    visible: Arc<Schema>,
    /// `SKIP` and `LIMIT` (0 when absent), or why they do not evaluate.
    bounds: Result<(usize, usize), EvalError>,
}

impl Projection<'_> {
    /// Applies `SKIP`/`LIMIT` to the finished rows.
    fn bounded(&self, out: Table) -> Result<Table, EvalError> {
        let (skip, limit) = self.bounds.clone()?;
        let limit = self.ret.limit.as_ref().map(|_| limit);
        Ok(if skip > 0 || limit.is_some() {
            out.slice(skip, limit)
        } else {
            out
        })
    }
}

/// Grouped aggregation, or `DISTINCT` as grouping by every item.
pub(crate) struct Fold<'q>(Projection<'q>);

/// `ORDER BY … LIMIT` with neither aggregates nor `DISTINCT`.
pub(crate) struct TopK<'q>(Projection<'q>);

/// A plain projection: no aggregates, `DISTINCT` or `ORDER BY`.
pub(crate) struct Map<'q>(Projection<'q>);

/// What a qualifying projection runs into.
pub(crate) enum FinalSink<'q> {
    /// See [`Fold`].
    Fold(Fold<'q>),
    /// See [`TopK`].
    TopK(TopK<'q>),
    /// See [`Map`].
    Map(Map<'q>),
}

impl FinalSink<'_> {
    /// The operator line `EXPLAIN` and `PROFILE` show for this sink.
    pub(crate) fn label(&self) -> String {
        match self {
            FinalSink::Fold(Fold(p)) => format!(
                "PartialAggregate(keys=[{}], aggs=[{}]{})",
                p.plan.key_names().join(", "),
                p.plan.agg_display().join(", "),
                if p.plan.is_aggregating() {
                    ""
                } else {
                    ", distinct"
                }
            ),
            FinalSink::TopK(TopK(p)) => match &p.bounds {
                Ok((skip, limit)) => format!("TopK(k={})", skip.saturating_add(*limit)),
                Err(_) => "TopK(k=?)".to_string(),
            },
            FinalSink::Map(Map(p)) => {
                format!("Project({})", p.plan.out_schema().names().join(", "))
            }
        }
    }
}

/// Sink selection, the one place it is decided: a segment that ends at
/// the projection `ret` (a `RETURN`, or a `WITH` that breaks the stream)
/// runs into it when pushdown is enabled and the projection is not a
/// bare `ORDER BY` (which needs its whole input). `visible` names the
/// fields in scope at the end of the segment. `None` means the rows are
/// collected and [`project`]ed.
pub(crate) fn select_sink<'q>(
    ctx: &EvalContext<'_>,
    cfg: &EngineConfig,
    ret: &'q Return,
    visible: &Arc<Schema>,
) -> Option<FinalSink<'q>> {
    if cfg.partial_agg == PartialAggMode::Off {
        return None;
    }
    let folds = ret.distinct || ret.items.iter().any(|i| i.expr.contains_aggregate());
    if !folds && !ret.order_by.is_empty() && ret.limit.is_none() {
        return None;
    }
    // A projection that does not compile is the collecting path's error.
    let plan = ProjectionPlan::compile(ret, visible).ok()?;
    let bounds = eval_count(ctx, ret.skip.as_ref(), "SKIP").and_then(|skip| {
        let limit = match &ret.limit {
            Some(_) => eval_count(ctx, ret.limit.as_ref(), "LIMIT")?,
            None => 0,
        };
        Ok((skip, limit))
    });
    let projection = Projection {
        plan,
        ret,
        visible: visible.clone(),
        bounds,
    };
    Some(if folds {
        FinalSink::Fold(Fold(projection))
    } else if ret.order_by.is_empty() {
        FinalSink::Map(Map(projection))
    } else {
        FinalSink::TopK(TopK(projection))
    })
}

impl Sink for Fold<'_> {
    type Partial = GroupedAggState;

    fn partial(&self, _schema: &Arc<Schema>) -> GroupedAggState {
        // Whether groups keep a representative row is the plan's to say.
        GroupedAggState::default()
    }

    fn feed(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        part: &mut GroupedAggState,
        batch: RowBatch,
    ) -> Result<(), EvalError> {
        let bound = self.0.plan.bind(ctx, schema);
        part.feed_batch(ctx, &bound, &batch)
    }

    /// Merges the groups, then applies the tail of the projection
    /// (`DISTINCT` over groups, `ORDER BY`, `SKIP`/`LIMIT`).
    fn finish(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Arc<Schema>,
        mut parts: impl Iterator<Item = GroupedAggState>,
    ) -> Result<Table, EvalError> {
        let Projection { plan, ret, .. } = &self.0;
        let mut acc = parts.next().expect("a run has at least one morsel");
        parts.for_each(|st| acc.merge(st));
        let (mut out, mut sources) = acc.finalize(ctx, plan, schema)?;
        if ret.distinct && plan.is_aggregating() {
            out = out.dedup();
            sources.clear();
        }
        if !ret.order_by.is_empty() {
            let src = (!sources.is_empty()).then(|| (schema.clone(), sources));
            out = apply_order_by_scoped(ctx, &ret.order_by, out, src)?;
        }
        self.0.bounded(out)
    }

    fn materialized(&self, ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError> {
        project(ctx, self.0.ret, raw, &self.0.visible)
    }
}

impl Sink for TopK<'_> {
    type Partial = TopKState;

    fn partial(&self, _schema: &Arc<Schema>) -> TopKState {
        // Unevaluable bounds keep nothing; `finish` raises them.
        let k = self
            .0
            .bounds
            .as_ref()
            .map_or(0, |(skip, limit)| skip.saturating_add(*limit));
        TopKState::new(k, &self.0.ret.order_by)
    }

    fn feed(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        part: &mut TopKState,
        batch: RowBatch,
    ) -> Result<(), EvalError> {
        let Projection { plan, ret, .. } = &self.0;
        let bound = plan.bind(ctx, schema);
        let out = bound.project_batch(ctx, Cow::Borrowed(&batch))?;
        for row in 0..batch.len() {
            let projected = out.row(plan.out_schema(), row);
            let source = batch.row(schema, row);
            part.feed(ctx, &ret.order_by, &projected, Some(&source), || {
                projected.record()
            })?;
        }
        Ok(())
    }

    fn finish(
        &self,
        _ctx: &EvalContext<'_>,
        _schema: &Arc<Schema>,
        parts: impl Iterator<Item = TopKState>,
    ) -> Result<Table, EvalError> {
        let Projection { plan, ret, .. } = &self.0;
        let (skip, limit) = self.0.bounds.clone()?;
        Ok(TopKState::merge_sorted(
            parts.collect(),
            &ret.order_by,
            skip,
            limit,
            plan.out_schema().clone(),
        ))
    }

    fn materialized(&self, ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError> {
        project(ctx, self.0.ret, raw, &self.0.visible)
    }
}

impl Sink for Map<'_> {
    type Partial = Vec<Record>;

    fn partial(&self, _schema: &Arc<Schema>) -> Vec<Record> {
        Vec::new()
    }

    fn feed(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        part: &mut Vec<Record>,
        batch: RowBatch,
    ) -> Result<(), EvalError> {
        let bound = self.0.plan.bind(ctx, schema);
        part.extend(bound.project_batch(ctx, Cow::Owned(batch))?.into_records());
        Ok(())
    }

    /// Concatenates the projected rows in morsel order, then applies
    /// `SKIP`/`LIMIT`.
    fn finish(
        &self,
        _ctx: &EvalContext<'_>,
        _schema: &Arc<Schema>,
        parts: impl Iterator<Item = Vec<Record>>,
    ) -> Result<Table, EvalError> {
        let out = Table::new(self.0.plan.out_schema().clone(), parts.flatten().collect());
        self.0.bounded(out)
    }

    fn materialized(&self, ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError> {
        project(ctx, self.0.ret, raw, &self.0.visible)
    }
}

/// The projection `ret` of the collected pipeline output `raw` over the
/// `visible` fields: the definition every sink agrees with.
pub(crate) fn project(
    ctx: &EvalContext<'_>,
    ret: &Return,
    raw: Table,
    visible: &Arc<Schema>,
) -> Result<Table, EvalError> {
    apply_projection(ctx, ret, project_visible(raw, visible))
}

/// Projects the pipeline output down to the `visible` fields (dropping
/// hidden bookkeeping columns); a table that has none is returned as is.
pub(crate) fn project_visible(raw: Table, visible: &Arc<Schema>) -> Table {
    if raw.schema().names() == visible.names() {
        return raw;
    }
    let at = |n: &String| raw.schema().index_of(n).expect("visible column present");
    let idxs: Vec<usize> = visible.names().iter().map(at).collect();
    let row = |r: &Record| Record::new(idxs.iter().map(|&i| r.get(i).clone()).collect());
    Table::new(visible.clone(), raw.rows().iter().map(row).collect())
}
