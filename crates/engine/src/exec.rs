//! The clause-by-clause executor.
//!
//! One loop walks a query's clauses ([`execute`] and [`execute_read`]
//! differ only in whether it may touch the graph). Reading clauses
//! (`MATCH`, `OPTIONAL MATCH`) are compiled by the planner and run by
//! the morsel driver of [`crate::ops`] into a sink: normally the one
//! that collects the rows, but the **final** `MATCH` runs straight into
//! its `RETURN` (`pushdown`) unless that is a bare `ORDER BY`, so that no
//! match table materializes.
//! Mid-query `WITH` and `UNWIND` reuse the reference semantics of
//! [`cypher_core`] directly; updating clauses are dispatched to
//! [`crate::update`].

use crate::cache::{plan_match_memo, MemoSite, PlanMemo};
use crate::ops::{drive, Collect, PlanProfile, Sink};
use crate::plan::PlanStep;
use crate::planner::{plan_match, PlannedMatch, PlannerMode, PlannerOptions, WcoJoinMode};
use crate::pushdown::{project_visible, select_sink, FinalSink};
use crate::update;
use cypher_ast::expr::Expr;
use cypher_ast::pattern::PathPattern;
use cypher_ast::query::{Clause, Query, SingleQuery};
use cypher_core::clauses::{apply_projection, apply_unwind, apply_where};
use cypher_core::error::{err, EvalError};
use cypher_core::morphism::Morphism;
use cypher_core::project::ProjectionPlan;
use cypher_core::table::{Record, Schema, Table};
use cypher_core::{EvalContext, MatchConfig, Params};
use cypher_graph::{PropertyGraph, Value, ViewRef};

/// Engine configuration: pattern-matching semantics, the plan strategy,
/// which secondary indexes the planner may exploit, the batch/thread
/// knobs of the morsel-driven runtime, and the durability knobs the
/// `Database` facade consumes.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Morphism mode and variable-length safeguards (shared with the
    /// reference evaluator).
    pub match_config: MatchConfig,
    /// Expand-based plans vs the cartesian baseline.
    pub planner_mode: PlannerMode,
    /// Allow `NodeIndexScan` over the label index (on by default).
    /// Turning an index off changes plans, never results.
    pub use_label_index: bool,
    /// Allow `PropertyIndexSeek` over the exact-match property indexes
    /// (on by default).
    pub use_property_index: bool,
    /// Worst-case-optimal join policy for cyclic `MATCH` patterns.
    /// Defaults to [`WcoJoinMode::Auto`] (cost-based); override with
    /// `CYPHER_WCO_JOIN` (`off` / `auto` / `force`). Never changes
    /// results — only whether cycle-closing variables are bound by a
    /// `MultiwayIntersect` or an `Expand` chain.
    pub wco_join: WcoJoinMode,
    /// Rows per batch (morsel) flowing between operators, and the
    /// granularity at which parallel workers claim scan work. Defaults to
    /// 1024 (override with the `CYPHER_MORSEL_SIZE` environment variable;
    /// clamped to ≥ 1 at execution time).
    pub morsel_size: usize,
    /// Worker threads for morsel-parallel `MATCH` pipelines. `1` (the
    /// default; override with `CYPHER_NUM_THREADS`) runs the classic
    /// single-threaded executor with zero dispatch overhead and
    /// reproduces its output bit-for-bit. Any higher count produces the
    /// *same row sequence* — morsels are merged in claim-index order, so
    /// results never depend on thread scheduling.
    pub num_threads: usize,
    /// Data directory for the durable storage engine. `None` (the default
    /// when the `CYPHER_DATA_DIR` environment variable is unset) keeps the
    /// graph purely in memory. The engine's executors ignore this knob —
    /// the `cypher::Database` facade consumes it to open a write-ahead
    /// log + snapshot store and commit each query's mutations as one
    /// atomic batch.
    pub persistence: Option<std::path::PathBuf>,
    /// Snapshot-compaction trigger: when the WAL grows beyond this many
    /// bytes, the `Database` facade checkpoints (snapshot + WAL truncate).
    /// Defaults to 4 MiB; override with `CYPHER_WAL_COMPACT_BYTES`.
    pub wal_compact_bytes: u64,
    /// Whether the final aggregating/`DISTINCT`/`ORDER BY … LIMIT`
    /// projection is pushed down into the morsel pipeline (partial
    /// aggregation / top-k). Defaults to [`PartialAggMode::Auto`];
    /// override with `CYPHER_PARTIAL_AGG` (`off` / `auto` / `force`).
    /// Never changes results — only where the folding happens.
    pub partial_agg: PartialAggMode,
    /// Capacity of the `cypher::Database` parse+plan LRU cache (entries);
    /// `0` disables caching. Defaults to 128; override with
    /// `CYPHER_PLAN_CACHE_SIZE`. The stateless `run`/`run_read` helpers
    /// ignore this knob — only the `Database` facade holds a cache.
    pub plan_cache_size: usize,
    /// Whether the `Database` write path coalesces concurrently-arriving
    /// transactions into one WAL seal + one published version (group
    /// commit). On by default and deliberately not an environment
    /// variable: off, every transaction seals its own group of one —
    /// same protocol, no coalescing; cybench's `write_commit` workload and
    /// the tests that set this field are its users. Never changes
    /// per-transaction semantics, only how many fsyncs a burst of
    /// writers pays.
    pub group_commit: bool,
    /// When the durable write path forces sealed groups to stable
    /// storage. Defaults to [`FsyncMode::Os`]; override with
    /// `CYPHER_FSYNC_MODE` (`os` / `sync` / `pipelined`).
    pub fsync_mode: FsyncMode,
    /// Slow-query threshold in milliseconds: the `cypher::Database`
    /// facade emits one structured log entry for every query whose wall
    /// time meets or exceeds it (`0` logs everything). `None` (the
    /// default when `CYPHER_SLOW_QUERY_MS` is unset) disables the log.
    pub slow_query_ms: Option<u64>,
    /// Whether the engine and the `Database` facade record metrics at
    /// all. On by default; override with `CYPHER_METRICS` (`on` / `off`).
    /// Off, every counter site is skipped — the hot path carries no
    /// atomic traffic.
    pub metrics_enabled: bool,
    /// Executor counters ([`crate::ops::ExecMetrics`]) shared by the
    /// owning `Database`, recorded once per pipeline run. `None` (the
    /// default) records nothing; the field never enters the plan-cache
    /// fingerprint.
    pub exec_metrics: Option<std::sync::Arc<crate::ops::ExecMetrics>>,
}

/// Default WAL size (bytes) beyond which a snapshot is taken.
pub const DEFAULT_WAL_COMPACT_BYTES: u64 = 4 * 1024 * 1024;

/// Default capacity of the `Database` parse+plan cache.
pub const DEFAULT_PLAN_CACHE_SIZE: usize = 128;

/// When the executor pushes the final projection into the morsel workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartialAggMode {
    /// Never push down: always materialize the match output and project
    /// it sequentially (the pre-pushdown behaviour; differential
    /// baseline).
    Off,
    /// Push down whenever the final clause qualifies; dispatch to the
    /// worker pool under the same work-size gate as the scan pipeline.
    #[default]
    Auto,
    /// Like `Auto`, but parallel dispatch engages regardless of the
    /// work-size gate — every qualifying query exercises the partial
    /// merge path even on tiny inputs (CI's worst-case-interleaving
    /// matrix cell).
    Force,
}

/// When (and where) the durable write path fsyncs a sealed commit group.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FsyncMode {
    /// Never fsync per group: sealed bytes sit in the kernel page cache
    /// (process-crash durable, not power-loss durable) until a
    /// checkpoint or close forces them down. The fastest mode and the
    /// pre-group-commit behaviour.
    #[default]
    Os,
    /// fsync every group before its version is published and its
    /// transactions are acknowledged — power-loss durability, paid for
    /// inline by the sealing leader.
    Sync,
    /// Like `Sync`, but the fsync runs on a background scheduler thread
    /// through a duplicate file handle: the leader seals group N+1 while
    /// group N flushes, overlapping WAL append with fsync latency.
    /// Publish/acknowledge still happen only after the fsync succeeds.
    Pipelined,
}

impl EngineConfig {
    /// The planner-facing slice of this configuration.
    pub fn planner_options(&self) -> PlannerOptions {
        PlannerOptions {
            mode: self.planner_mode,
            use_label_index: self.use_label_index,
            use_property_index: self.use_property_index,
            wco_join: self.wco_join,
        }
    }

    /// The dispatch gate of the morsel driver, asked by execution and
    /// `EXPLAIN` alike: a source-anchored pipeline goes to the worker
    /// pool when its source emits more rows than this. `None` (one
    /// thread) never dispatches; [`PartialAggMode::Force`] opens the
    /// gate for an `evaluating` sink so tiny inputs exercise the merge.
    pub(crate) fn parallel_gate(&self, evaluating: bool) -> Option<usize> {
        (self.num_threads > 1).then(|| {
            if evaluating && self.partial_agg == PartialAggMode::Force {
                0
            } else {
                self.morsel_size.max(1)
            }
        })
    }

    /// This configuration with both index families disabled — every
    /// `MATCH` anchor becomes a scan plus filters. Useful as a planner
    /// baseline and in differential tests.
    pub fn without_indexes(self) -> Self {
        EngineConfig {
            use_label_index: false,
            use_property_index: false,
            ..self
        }
    }

    /// This configuration with the given worker-thread count.
    pub fn with_threads(self, num_threads: usize) -> Self {
        EngineConfig {
            num_threads,
            ..self
        }
    }

    /// This configuration with the given morsel size.
    pub fn with_morsel_size(self, morsel_size: usize) -> Self {
        EngineConfig {
            morsel_size,
            ..self
        }
    }

    /// This configuration with the given partial-aggregation mode.
    pub fn with_partial_agg(self, partial_agg: PartialAggMode) -> Self {
        EngineConfig {
            partial_agg,
            ..self
        }
    }

    /// This configuration with the given worst-case-optimal join mode.
    pub fn with_wco_join(self, wco_join: WcoJoinMode) -> Self {
        EngineConfig { wco_join, ..self }
    }
}

/// One operator line of a [`QueryProfile`]: the planned step, what the
/// cost model predicted for it, and what actually happened.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// The rendered plan step (same text as EXPLAIN).
    pub operator: String,
    /// The cost model's estimated output cardinality for this step.
    pub estimated_rows: f64,
    /// Rows the operator actually produced, summed across all morsels.
    pub rows: u64,
    /// Batches the operator emitted, summed across all morsels.
    pub batches: u64,
    /// Wall time spent *in* this operator (exclusive of the operators
    /// beneath it), summed across all workers, in microseconds.
    pub time_us: u64,
    /// Galloping probes the operator's intersection kernel performed
    /// (`MultiwayIntersect` only; 0 elsewhere).
    pub probes: u64,
    /// Summed intersection lengths — candidate nodes adjacent to every
    /// guard (`MultiwayIntersect` only; 0 elsewhere).
    pub isect: u64,
}

/// The measured execution of one `MATCH` clause.
#[derive(Clone, Debug)]
pub struct ClauseProfile {
    /// `"MATCH"` or `"OPTIONAL MATCH"`.
    pub label: String,
    /// Per-operator measurements, in pipeline order; a clause folded
    /// into the `RETURN` ends with its `PartialAggregate(…)`, `TopK(…)`
    /// or `Project(…)` sink. Empty when the clause was delegated to the
    /// reference matcher (node-isomorphism mode), which has no operator
    /// pipeline to instrument.
    pub operators: Vec<OpProfile>,
    /// Morsels executed (1 for a sequential run).
    pub morsels: u64,
    /// Whether the clause was dispatched across the worker pool.
    pub parallel: bool,
}

/// The result of `PROFILE`-ing a query: per-clause, per-operator actuals
/// next to the planner's estimates. Produced by [`profile_read`];
/// rendered with [`QueryProfile::render`].
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    /// One entry per executed `MATCH` clause, in execution order
    /// (including clauses on both sides of a `UNION`).
    pub clauses: Vec<ClauseProfile>,
    /// Rows of the final result.
    pub rows: u64,
    /// End-to-end wall time, in microseconds.
    pub elapsed_us: u64,
}

impl QueryProfile {
    /// Renders the annotated plan tree: the EXPLAIN layout with
    /// `(est rows / rows / batches / time)` appended to every operator.
    pub fn render(&self) -> String {
        let mut s = String::from("PROFILE\n");
        for c in &self.clauses {
            if c.parallel {
                s.push_str(&format!(
                    "{} plan ({} morsels, parallel):\n",
                    c.label, c.morsels
                ));
            } else {
                s.push_str(&format!("{} plan:\n", c.label));
            }
            if c.operators.is_empty() {
                s.push_str("(reference matcher: no operator pipeline)\n");
            }
            for (i, op) in c.operators.iter().enumerate() {
                // Intersection kernel counters only where they exist, so
                // every other operator line keeps its exact shape.
                let kernel = if op.probes != 0 || op.isect != 0 {
                    format!(", probes: {}, isect: {}", op.probes, op.isect)
                } else {
                    String::new()
                };
                s.push_str(&format!(
                    "{:indent$}{}  (est rows: {:.1}, rows: {}, batches: {}, time: {}us{})\n",
                    "",
                    op.operator,
                    op.estimated_rows,
                    op.rows,
                    op.batches,
                    op.time_us,
                    kernel,
                    indent = i
                ));
            }
        }
        s.push_str(&format!(
            "(returned {} rows in {}us)",
            self.rows, self.elapsed_us
        ));
        s
    }
}

/// Executes a read-only query with per-operator instrumentation and
/// returns the result table alongside its [`QueryProfile`].
///
/// The result rows are **bit-identical** to [`execute_read`] under the
/// same configuration, because it *is* that execution: the same plan,
/// dispatch and sink, with every operator and the sink wrapped in a
/// measuring probe.
pub fn profile_read<'a>(
    view: impl Into<ViewRef<'a>>,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<(Table, QueryProfile), EvalError> {
    let t0 = std::time::Instant::now();
    let mut clauses: Vec<ClauseProfile> = Vec::new();
    let mut access = Access::Read(view.into());
    let t = exec_query(
        &mut access,
        q,
        params,
        cfg,
        None,
        &mut 0,
        Some(&mut clauses),
    )?;
    let rows = t.len() as u64;
    Ok((
        t,
        QueryProfile {
            clauses,
            rows,
            elapsed_us: t0.elapsed().as_micros() as u64,
        },
    ))
}

/// Executes a read-only query against a frozen snapshot. Updating
/// clauses are rejected; use [`execute`] for those.
///
/// The whole read path takes a [`ViewRef`]: a pinned
/// [`cypher_graph::GraphView`] from a versioned session, or a plain
/// `&PropertyGraph` borrow for single-owner callers — both convert.
pub fn execute_read<'a>(
    view: impl Into<ViewRef<'a>>,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<Table, EvalError> {
    execute_read_cached(view, q, params, cfg, None)
}

/// [`execute_read`] with an optional [`PlanMemo`]: `MATCH` clauses reuse
/// plans the memo already holds and record the plans they compile.
pub fn execute_read_cached<'a>(
    view: impl Into<ViewRef<'a>>,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
    memo: Option<&PlanMemo>,
) -> Result<Table, EvalError> {
    let mut access = Access::Read(view.into());
    exec_query(&mut access, q, params, cfg, memo, &mut 0, None)
}

/// Executes any query, including updating clauses, against a mutable
/// graph. Returns the final table (empty, with no fields, for update-only
/// queries).
pub fn execute(
    graph: &mut PropertyGraph,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<Table, EvalError> {
    execute_cached(graph, q, params, cfg, None)
}

/// [`execute`] with an optional [`PlanMemo`] (see
/// [`execute_read_cached`]).
pub fn execute_cached(
    graph: &mut PropertyGraph,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
    memo: Option<&PlanMemo>,
) -> Result<Table, EvalError> {
    exec_query(
        &mut Access::Write(graph),
        q,
        params,
        cfg,
        memo,
        &mut 0,
        None,
    )
}

/// What the clause loop may do with the graph it runs against.
enum Access<'g> {
    /// A frozen snapshot: updating clauses are refused.
    Read(ViewRef<'g>),
    /// The graph itself: updating clauses go to [`crate::update`].
    Write(&'g mut PropertyGraph),
}

impl Access<'_> {
    fn view(&self) -> ViewRef<'_> {
        match self {
            Access::Read(view) => *view,
            Access::Write(graph) => ViewRef::from(&**graph),
        }
    }

    fn graph_mut(&mut self) -> Result<&mut PropertyGraph, EvalError> {
        match self {
            Access::Read(_) => err("updating clause in a read-only execution"),
            Access::Write(graph) => Ok(graph),
        }
    }
}

/// `branch` numbers the single queries of a `UNION` left to right (the
/// plan memo's site key); `profile` collects one entry per `MATCH`.
fn exec_query(
    access: &mut Access<'_>,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
    memo: Option<&PlanMemo>,
    branch: &mut usize,
    mut profile: Option<&mut Vec<ClauseProfile>>,
) -> Result<Table, EvalError> {
    match q {
        Query::Single(sq) => {
            let b = *branch;
            *branch += 1;
            exec_single(access, sq, params, cfg, memo, b, profile)
        }
        Query::Union { all, left, right } => {
            let profile_l = profile.as_deref_mut();
            let l = exec_query(access, left, params, cfg, memo, branch, profile_l)?;
            let r = exec_query(access, right, params, cfg, memo, branch, profile)?;
            if !l.schema().same_fields(r.schema()) {
                return err(format!(
                    "UNION requires identical field sets: {:?} vs {:?}",
                    l.schema().names(),
                    r.schema().names()
                ));
            }
            let u = l.bag_union(r);
            Ok(if *all { u } else { u.dedup() })
        }
    }
}

fn exec_single(
    access: &mut Access<'_>,
    sq: &SingleQuery,
    params: &Params,
    cfg: &EngineConfig,
    memo: Option<&PlanMemo>,
    branch: usize,
    mut profile: Option<&mut Vec<ClauseProfile>>,
) -> Result<Table, EvalError> {
    let mut t = Table::unit();
    for (i, clause) in sq.clauses.iter().enumerate() {
        t = match clause {
            Clause::Match {
                optional,
                patterns,
                where_,
            } => {
                let (out, folded) = exec_match_memo(
                    access.view(),
                    params,
                    cfg,
                    patterns,
                    where_.as_ref(),
                    *optional,
                    t,
                    memo.map(|m| (m, (branch, i))),
                    Some((sq, i)),
                    profile.as_deref_mut(),
                )?;
                if folded {
                    return Ok(out);
                }
                out
            }
            Clause::With { ret, where_ } => {
                let ctx =
                    EvalContext::new(access.view().graph(), params).with_config(cfg.match_config);
                let projected = apply_projection(&ctx, ret, t)?;
                match where_ {
                    Some(p) => apply_where(&ctx, p, projected)?,
                    None => projected,
                }
            }
            Clause::Unwind { expr, alias } => {
                let ctx =
                    EvalContext::new(access.view().graph(), params).with_config(cfg.match_config);
                apply_unwind(&ctx, expr, alias, t)?
            }
            Clause::FromGraph { .. } => {
                return err("FROM GRAPH requires a catalog; use the multigraph executor")
            }
            Clause::Create { patterns } => {
                update::exec_create(access.graph_mut()?, params, cfg, patterns, t)?
            }
            Clause::Merge {
                pattern,
                on_create,
                on_match,
            } => update::exec_merge(
                access.graph_mut()?,
                params,
                cfg,
                pattern,
                on_create,
                on_match,
                t,
            )?,
            Clause::Delete { detach, exprs } => {
                update::exec_delete(access.graph_mut()?, params, cfg, *detach, exprs, t)?
            }
            Clause::Set { items } => update::exec_set(access.graph_mut()?, params, cfg, items, t)?,
            Clause::Remove { items } => {
                update::exec_remove(access.graph_mut()?, params, cfg, items, t)?
            }
        };
    }
    if sq.ret_graph.is_some() {
        return err("RETURN GRAPH requires a catalog; use the multigraph executor");
    }
    match &sq.ret {
        Some(ret) => {
            if ret.star && ret.items.is_empty() && t.schema().is_empty() {
                return err("RETURN * requires at least one field");
            }
            let ctx = EvalContext::new(access.view().graph(), params).with_config(cfg.match_config);
            apply_projection(&ctx, ret, t)
        }
        // Update-only query: no rows, no fields.
        None => Ok(Table::empty(Schema::empty())),
    }
}

/// Executes one `[OPTIONAL] MATCH … [WHERE …]` clause through the planned
/// pipeline, against a frozen snapshot.
pub fn exec_match<'a>(
    view: impl Into<ViewRef<'a>>,
    params: &Params,
    cfg: &EngineConfig,
    patterns: &[PathPattern],
    where_: Option<&Expr>,
    optional: bool,
    table: Table,
) -> Result<Table, EvalError> {
    let view = view.into();
    exec_match_memo(
        view, params, cfg, patterns, where_, optional, table, None, None, None,
    )
    .map(|(t, _)| t)
}

/// Runs a planned `MATCH` (plus its `WHERE`, as a trailing filter step)
/// over `input` into `sink`. When profiling, the run is probed and its
/// profile recorded: plan-step text + cost-model estimate + the measured
/// actuals, with `sink_label` naming a folding sink's row. Probe timings
/// are *inclusive* (each stage contains everything beneath it); the
/// exclusive time reported subtracts the stage immediately below.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_match<S: Sink>(
    ctx: &EvalContext<'_>,
    cfg: &EngineConfig,
    label: &str,
    planned: &PlannedMatch,
    where_: Option<&Expr>,
    input: Table,
    sink: &S,
    sink_label: Option<String>,
    profile: Option<&mut Vec<ClauseProfile>>,
) -> Result<Table, EvalError> {
    let plan = &planned.plan;
    let mut steps = plan.steps.clone();
    if let Some(p) = where_ {
        steps.push(PlanStep::FilterExpr { pred: p.clone() });
    }
    let Some(profile) = profile else {
        return drive(ctx, &steps, input, cfg, sink, None);
    };
    let mut prof = PlanProfile::default();
    let out = drive(ctx, &steps, input, cfg, sink, Some(&mut prof))?;
    // Neither the appended WHERE filter nor the sink has a planner
    // entry; their estimate is the plan's final cardinality.
    let names = steps.iter().map(|s| s.to_string()).chain(sink_label);
    let mut below = 0;
    let operators = names
        .zip(&prof.stages)
        .enumerate()
        .map(|(i, (operator, st))| {
            let time_us = st.nanos.saturating_sub(below) / 1_000;
            below = st.nanos;
            OpProfile {
                operator,
                estimated_rows: *plan.step_estimates.get(i).unwrap_or(&plan.estimated_rows),
                rows: st.rows,
                batches: st.batches,
                time_us,
                probes: st.probes,
                isect: st.isect,
            }
        })
        .collect();
    profile.push(ClauseProfile {
        label: label.to_string(),
        operators,
        morsels: prof.morsels,
        parallel: prof.parallel,
    });
    Ok(out)
}

/// [`exec_match`] with an optional plan-memo site, an optional profile
/// to record into, and the clause's position `(query, index)` when it is
/// one [`select_sink`] may fold into the `RETURN` — in which case the
/// table returned is the query's result and the flag is set.
#[allow(clippy::too_many_arguments)]
fn exec_match_memo(
    view: ViewRef<'_>,
    params: &Params,
    cfg: &EngineConfig,
    patterns: &[PathPattern],
    where_: Option<&Expr>,
    optional: bool,
    table: Table,
    memo: Option<(&PlanMemo, MemoSite)>,
    at: Option<(&SingleQuery, usize)>,
    profile: Option<&mut Vec<ClauseProfile>>,
) -> Result<(Table, bool), EvalError> {
    let graph = view.graph();
    let label = if optional { "OPTIONAL MATCH" } else { "MATCH" };
    let ctx = EvalContext::new(graph, params).with_config(cfg.match_config);
    // Node isomorphism needs global node tracking that the pipeline does
    // not model; delegate to the reference matcher (documented fallback).
    if cfg.match_config.morphism == Morphism::NodeIsomorphism {
        if let Some(prof_out) = profile {
            // No operator pipeline to instrument; record the clause so
            // the profile still mirrors the query's shape.
            prof_out.push(ClauseProfile {
                label: label.to_string(),
                operators: Vec::new(),
                morsels: 0,
                parallel: false,
            });
        }
        let out = if optional {
            cypher_core::clauses::apply_optional_match(&ctx, patterns, where_, table)?
        } else {
            let m = cypher_core::clauses::apply_match(&ctx, patterns, table)?;
            match where_ {
                Some(p) => apply_where(&ctx, p, m)?,
                None => m,
            }
        };
        return Ok((out, false));
    }

    if !optional {
        let planned = plan_match_memo(
            memo,
            view,
            table.schema().names(),
            patterns,
            cfg.planner_options(),
        );
        let mut visible = table.schema().names().to_vec();
        visible.extend(planned.new_vars.iter().cloned());
        let sink = at.and_then(|(sq, i)| select_sink(&ctx, cfg, sq, i, &visible));
        let sink_label = profile.as_ref().and(sink.as_ref()).map(FinalSink::label);
        // `Sink` is not object-safe: one monomorphic call per sink type.
        macro_rules! run {
            ($sink:expr) => {
                run_match(
                    &ctx, cfg, label, &planned, where_, table, $sink, sink_label, profile,
                )?
            };
        }
        return Ok(match &sink {
            Some(FinalSink::Fold(s)) => (run!(s), true),
            Some(FinalSink::TopK(s)) => (run!(s), true),
            Some(FinalSink::Map(s)) => (run!(s), true),
            None => (
                project_visible(run!(&Collect), &Schema::new(visible)),
                false,
            ),
        });
    }

    // OPTIONAL MATCH: tag each driving row with a hidden index, run the
    // pipeline (including the WHERE, per Figure 7), then null-pad inputs
    // that produced nothing.
    let idx_col = " opt_idx".to_string();
    let mut tagged_schema = table.schema().clone();
    tagged_schema = tagged_schema.with_field(idx_col.clone());
    let mut tagged = Table::empty(tagged_schema.clone());
    for (i, r) in table.rows().iter().enumerate() {
        let mut row = r.clone();
        row.push(Value::int(i as i64));
        tagged.push(row);
    }
    let planned = plan_match_memo(
        memo,
        view,
        tagged_schema.names(),
        patterns,
        cfg.planner_options(),
    );
    let raw = run_match(
        &ctx, cfg, label, &planned, where_, tagged, &Collect, None, profile,
    )?;

    // Group pipeline outputs by input index.
    let idx_pos = raw.schema().index_of(&idx_col).expect("hidden idx kept");
    let mut by_input: Vec<Vec<&Record>> = vec![Vec::new(); table.len()];
    for r in raw.rows() {
        let Value::Integer(i) = r.get(idx_pos) else {
            unreachable!("index column holds integers")
        };
        by_input[*i as usize].push(r);
    }

    let mut out_schema = table.schema().clone();
    for v in &planned.new_vars {
        out_schema = out_schema.with_field(v.clone());
    }
    let mut out = Table::empty(out_schema);
    let var_pos: Vec<usize> = planned
        .new_vars
        .iter()
        .map(|v| raw.schema().index_of(v).expect("pipeline binds new vars"))
        .collect();
    for (i, input_row) in table.rows().iter().enumerate() {
        if by_input[i].is_empty() {
            let mut row = input_row.clone();
            for _ in &planned.new_vars {
                row.push(Value::Null);
            }
            out.push(row);
        } else {
            for m in &by_input[i] {
                let mut row = input_row.clone();
                for &p in &var_pos {
                    row.push(m.get(p).clone());
                }
                out.push(row);
            }
        }
    }
    Ok((out, false))
}

/// Renders the physical plan of every `MATCH` clause in a query — a
/// minimal `EXPLAIN` — plus, from the executor's own dispatch gate and
/// sink selection, whether the worker pool can engage and what a final
/// `MATCH` runs into (`PartialAggregate(…)` / `TopK(k=…)` / `Project(…)`),
/// against the given snapshot's statistics.
///
/// When the handle carries a version (it came from a pinned
/// `GraphView`), the output opens with a `snapshot version N` line —
/// the witness of *which* committed state the statistics (and therefore
/// the plan choices) were read from.
pub fn explain<'a>(view: impl Into<ViewRef<'a>>, q: &Query, cfg: &EngineConfig) -> String {
    fn go(view: ViewRef<'_>, q: &Query, cfg: &EngineConfig, out: &mut String) {
        match q {
            Query::Single(sq) => {
                // Best effort without the caller's parameters (a `LIMIT
                // $n` renders as `TopK(k=?)`).
                let params = Params::new();
                let ctx = EvalContext::new(view.graph(), &params).with_config(cfg.match_config);
                let mut fields: Vec<String> = Vec::new();
                for (i, clause) in sq.clauses.iter().enumerate() {
                    match clause {
                        Clause::Match {
                            patterns, optional, ..
                        } => {
                            let PlannedMatch { plan, new_vars } =
                                plan_match(view, &fields, patterns, cfg.planner_options());
                            out.push_str(if *optional {
                                "OPTIONAL MATCH plan:\n"
                            } else {
                                "MATCH plan:\n"
                            });
                            out.push_str(&plan.to_string());
                            out.push('\n');
                            fields.extend(new_vars);
                            let sink = select_sink(&ctx, cfg, sq, i, &fields);
                            if let Some(gate) = cfg.parallel_gate(sink.is_some()) {
                                if plan.steps.first().is_some_and(|s| s.is_source()) {
                                    out.push_str(&format!(
                                        "(parallel: {} threads, morsel size {}; engages when \
                                         driving rows × scanned items exceed {gate})\n",
                                        cfg.num_threads,
                                        cfg.morsel_size.max(1)
                                    ));
                                } else {
                                    out.push_str("(sequential: source is pre-bound)\n");
                                }
                            }
                            if let Some(sink) = sink {
                                out.push_str(&sink.label());
                                out.push('\n');
                            }
                        }
                        // Projection replaces the visible schema; UNWIND
                        // appends its alias — mirrored here so later plans
                        // (and the sink line) see the schema the executor
                        // actually runs with.
                        Clause::With { ret, .. } => {
                            let distinct_names = fields
                                .iter()
                                .collect::<std::collections::HashSet<_>>()
                                .len()
                                == fields.len();
                            fields = if distinct_names {
                                match ProjectionPlan::compile(ret, &Schema::new(fields.clone())) {
                                    Ok(plan) => plan.out_schema().names().to_vec(),
                                    Err(_) => Vec::new(),
                                }
                            } else {
                                Vec::new()
                            };
                        }
                        Clause::Unwind { alias, .. } => {
                            if !fields.contains(alias) {
                                fields.push(alias.clone());
                            }
                        }
                        _ => {}
                    }
                }
            }
            Query::Union { left, right, .. } => {
                go(view, left, cfg, out);
                go(view, right, cfg, out);
            }
        }
    }
    let view = view.into();
    let mut s = String::new();
    if let Some(v) = view.version() {
        s.push_str(&format!("snapshot version {v}\n"));
    }
    go(view, q, cfg, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    fn figure4() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let n1 = g.add_node(&["Teacher"], []);
        let n2 = g.add_node(&["Student"], []);
        let n3 = g.add_node(&["Teacher"], []);
        let n4 = g.add_node(&["Teacher"], []);
        g.add_rel(n1, n2, "KNOWS", []).unwrap();
        g.add_rel(n2, n3, "KNOWS", []).unwrap();
        g.add_rel(n3, n4, "KNOWS", []).unwrap();
        g
    }

    fn run(g: &PropertyGraph, src: &str) -> Table {
        let params = Params::new();
        let q = parse_query(src).unwrap();
        execute_read(g, &q, &params, &EngineConfig::default()).unwrap()
    }

    #[test]
    fn engine_matches_reference_on_figure4() {
        let g = figure4();
        let params = Params::new();
        for src in [
            "MATCH (x:Teacher) RETURN x",
            "MATCH (x:Teacher)-[:KNOWS*2]->(y) RETURN x, y",
            "MATCH (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher) RETURN x, z, y",
            "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) RETURN x, y",
            "MATCH (x)-[r]-(y) RETURN x, y",
            "MATCH p = (x)-[:KNOWS*]->(y) RETURN x, y, length(p) AS len",
            "OPTIONAL MATCH (s:Student)-[:TEACHES]->(t) RETURN s, t",
            "MATCH (a), (b:Student) RETURN a, b",
        ] {
            let q = parse_query(src).unwrap();
            let engine = execute_read(&g, &q, &params, &EngineConfig::default()).unwrap();
            let ctx = EvalContext::new(&g, &params);
            let reference = cypher_core::eval_query(&ctx, &q).unwrap();
            assert!(
                engine.bag_eq(&reference),
                "{src}\nengine:\n{engine}\nreference:\n{reference}"
            );
        }
    }

    #[test]
    fn cartesian_baseline_agrees_with_expand() {
        let g = figure4();
        let params = Params::new();
        let q = parse_query("MATCH (x:Teacher)-[:KNOWS]->(y) RETURN x, y").unwrap();
        let fast = execute_read(&g, &q, &params, &EngineConfig::default()).unwrap();
        let slow = execute_read(
            &g,
            &q,
            &params,
            &EngineConfig {
                planner_mode: PlannerMode::CartesianJoin,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(fast.bag_eq(&slow));
    }

    #[test]
    fn optional_match_null_padding() {
        let g = figure4();
        let out = run(
            &g,
            "MATCH (x:Teacher) OPTIONAL MATCH (x)-[:KNOWS]->(y:Teacher) RETURN x, y",
        );
        // n1 knows n2 (Student, filtered), n3 knows n4, n4 knows nobody:
        // rows (n1, null), (n3, n4), (n4, null).
        assert_eq!(out.len(), 3);
        let nulls = out.rows().iter().filter(|r| r.get(1).is_null()).count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn where_filters_in_pipeline() {
        let g = figure4();
        let out = run(&g, "MATCH (x)-[:KNOWS]->(y) WHERE y:Teacher RETURN x, y");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn update_then_read() {
        let mut g = PropertyGraph::new();
        let params = Params::new();
        let q = parse_query(
            "CREATE (a:Person {name: 'Ada'})-[:KNOWS {since: 1985}]->(b:Person {name: 'Bo'})",
        )
        .unwrap();
        let out = execute(&mut g, &q, &params, &EngineConfig::default()).unwrap();
        assert_eq!(out.len(), 0);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 1);
        let check = run(
            &g,
            "MATCH (a:Person)-[r:KNOWS]->(b) RETURN a.name, r.since, b.name",
        );
        assert_eq!(check.cell(0, "a.name"), Some(&Value::str("Ada")));
        assert_eq!(check.cell(0, "r.since"), Some(&Value::int(1985)));
    }

    #[test]
    fn read_execution_rejects_updates() {
        let g = PropertyGraph::new();
        let params = Params::new();
        let q = parse_query("CREATE (n)").unwrap();
        assert!(execute_read(&g, &q, &params, &EngineConfig::default()).is_err());
    }

    #[test]
    fn explain_mentions_expand() {
        let g = figure4();
        let q = parse_query("MATCH (x:Teacher)-[:KNOWS]->(y) RETURN x").unwrap();
        let plan = explain(&g, &q, &EngineConfig::default());
        assert!(plan.contains("NodeIndexScan"), "{plan}");
        assert!(plan.contains("Expand"), "{plan}");
    }

    #[test]
    fn explain_shows_property_index_seek() {
        let mut g = PropertyGraph::new();
        let params = Params::new();
        let create = parse_query("CREATE (:Person {name: 'Ada'}), (:Person {name: 'Bo'})").unwrap();
        execute(&mut g, &create, &params, &EngineConfig::default()).unwrap();
        let q = parse_query("MATCH (n:Person {name: 'Ada'}) RETURN n").unwrap();
        let plan = explain(&g, &q, &EngineConfig::default());
        assert!(
            plan.contains("PropertyIndexSeek(n:Person.name = 'Ada')"),
            "{plan}"
        );
        // With the property index off the anchor falls back to the label
        // index; with both off, to a full scan.
        let no_prop = explain(
            &g,
            &q,
            &EngineConfig {
                use_property_index: false,
                ..EngineConfig::default()
            },
        );
        assert!(no_prop.contains("NodeIndexScan(n:Person)"), "{no_prop}");
        let no_idx = explain(&g, &q, &EngineConfig::default().without_indexes());
        assert!(no_idx.contains("AllNodesScan"), "{no_idx}");
    }

    #[test]
    fn parallel_execution_matches_sequential_row_for_row() {
        // 200 nodes so every morsel size below actually chunks the scan.
        let mut g = PropertyGraph::new();
        let mut prev = None;
        for i in 0..200 {
            let labels: &[&str] = if i % 3 == 0 { &["Hub"] } else { &["Leaf"] };
            let n = g.add_node(labels, [("i", Value::int(i))]);
            if let Some(p) = prev {
                g.add_rel(p, n, "NEXT", []).unwrap();
            }
            prev = Some(n);
        }
        let params = Params::new();
        let seq = EngineConfig::default().with_threads(1);
        for src in [
            "MATCH (n:Hub) RETURN n",
            "MATCH (n) WHERE n.i > 100 RETURN n.i AS i",
            "MATCH (a:Hub)-[:NEXT]->(b) RETURN a.i AS x, b.i AS y",
            "MATCH (a)-[:NEXT*1..2]->(b:Hub) RETURN a, b",
            "MATCH (x:Hub) OPTIONAL MATCH (x)-[:NEXT]->(y:Hub) RETURN x, y",
        ] {
            let q = parse_query(src).unwrap();
            let base = execute_read(&g, &q, &params, &seq).unwrap();
            for (threads, morsel) in [(2, 1), (3, 7), (4, 64), (8, 1024)] {
                let cfg = seq.clone().with_threads(threads).with_morsel_size(morsel);
                let par = execute_read(&g, &q, &params, &cfg).unwrap();
                // Identical row *sequence*, not merely the same bag:
                // morsels are merged in claim-index order.
                assert!(
                    par.ordered_eq(&base),
                    "{src} (threads={threads}, morsel={morsel})\nseq:\n{base}\npar:\n{par}"
                );
            }
        }
    }

    #[test]
    fn parallel_errors_match_sequential_errors() {
        let mut g = PropertyGraph::new();
        for i in 0..50 {
            g.add_node(&["N"], [("v", Value::int(i))]);
        }
        let params = Params::new();
        // `+` on a node is an evaluation error raised mid-pipeline.
        let q = parse_query("MATCH (n:N) WHERE n + 1 = 2 RETURN n").unwrap();
        let seq_err =
            execute_read(&g, &q, &params, &EngineConfig::default().with_threads(1)).unwrap_err();
        let par_err = execute_read(
            &g,
            &q,
            &params,
            &EngineConfig::default().with_threads(4).with_morsel_size(4),
        )
        .unwrap_err();
        assert_eq!(seq_err, par_err, "parallel error is the canonical one");
    }

    #[test]
    fn explain_shows_parallelism() {
        let g = figure4();
        let q = parse_query("MATCH (x:Teacher)-[:KNOWS]->(y) RETURN x").unwrap();
        let seq = explain(&g, &q, &EngineConfig::default().with_threads(1));
        assert!(!seq.contains("parallel:"), "{seq}");
        let par = explain(
            &g,
            &q,
            &EngineConfig::default()
                .with_threads(4)
                .with_morsel_size(512)
                .with_partial_agg(PartialAggMode::Auto),
        );
        assert!(
            par.contains(
                "(parallel: 4 threads, morsel size 512; \
                 engages when driving rows × scanned items exceed 512)"
            ),
            "{par}"
        );
    }

    #[test]
    fn index_toggles_do_not_change_results() {
        let g = figure4();
        let params = Params::new();
        let q = parse_query("MATCH (x:Teacher)-[:KNOWS]->(y) RETURN x, y").unwrap();
        let on = execute_read(&g, &q, &params, &EngineConfig::default()).unwrap();
        let off =
            execute_read(&g, &q, &params, &EngineConfig::default().without_indexes()).unwrap();
        assert!(on.bag_eq(&off));
    }
}
