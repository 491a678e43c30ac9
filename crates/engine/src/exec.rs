//! The clause interpreter.
//!
//! One loop walks a query's clauses for every entry point ([`execute`],
//! [`execute_read`], [`profile_read`], [`explain`] and the catalog
//! composition of [`crate::multigraph`]). Each run of streamable clauses
//! — non-optional `MATCH`, the `WHERE` filters, a `WITH` that projects
//! row by row, `UNWIND` — is compiled into one *segment*: a step list the
//! morsel driver of [`crate::ops`] runs without building a table between
//! clauses. Every other clause ends the segment. One that ends at a `WITH`
//! or the `RETURN` runs into that projection's sink (`pushdown.rs`);
//! `OPTIONAL MATCH`, `FROM GRAPH` and the updating clauses
//! ([`crate::update`]) apply to the collected table.

use crate::cache::{plan_match_memo, PlanMemo};
use crate::multigraph::{construct_graph, view_named, Graphs};
use crate::ops::{drive, Collect, PlanProfile, Sink};
use crate::plan::PlanStep;
use crate::planner::{PlannedMatch, PlannerMode, PlannerOptions, WcoJoinMode};
use crate::pushdown::{project, project_visible, select_sink, FinalSink};
use crate::update;
use cypher_ast::expr::Expr;
use cypher_ast::pattern::PathPattern;
use cypher_ast::query::{Clause, Query, Return, SingleQuery};
use cypher_core::error::{err, EvalError};
use cypher_core::project::ProjectionPlan;
use cypher_core::table::{Record, Schema, Table};
use cypher_core::{EvalContext, MatchConfig, Params};
use cypher_graph::{PropertyGraph, Value, ViewRef};
use std::borrow::Cow;
use std::sync::Arc;

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
    /// Whether the aggregating/`DISTINCT`/`ORDER BY … LIMIT`/plain
    /// projection that ends a segment is pushed down into the morsel
    /// pipeline (partial aggregation / top-k / per-batch projection).
    /// Defaults to [`PartialAggMode::Auto`];
    /// override with `CYPHER_PARTIAL_AGG` (`off` / `auto`).
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
    /// `CYPHER_FSYNC_MODE` (`os` / `sync`).
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

/// When the executor pushes a segment's closing projection into the
/// morsel workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PartialAggMode {
    /// Never push down: always collect the segment's output and project
    /// it sequentially (the pre-pushdown behaviour; differential
    /// baseline).
    Off,
    /// Push down whenever the projection qualifies; dispatch to the
    /// worker pool under the same work-size gate as the scan pipeline
    /// (one row at `morsel_size = 1`, so every multi-row input takes the
    /// partial merge path there).
    #[default]
    Auto,
}

/// When the durable write path fsyncs a sealed commit group.
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
    /// inline by the sealing leader while the next writers execute and
    /// queue into the following group.
    Sync,
}

impl EngineConfig {
    /// The planner-facing slice of this configuration.
    pub fn planner_options(&self) -> PlannerOptions {
        PlannerOptions {
            mode: self.planner_mode,
            use_label_index: self.use_label_index,
            use_property_index: self.use_property_index,
            wco_join: self.wco_join,
            nodes_distinct: self.match_config.morphism.nodes_distinct(),
        }
    }

    /// The dispatch gate of the morsel driver, asked by execution and
    /// `EXPLAIN` alike: a source-anchored pipeline goes to the worker
    /// pool when its source emits more rows than this. `None` (one
    /// thread) never dispatches.
    pub(crate) fn parallel_gate(&self) -> Option<usize> {
        (self.num_threads > 1).then(|| self.morsel_size.max(1))
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

/// The measured execution of one segment: a run of streamable clauses
/// driven as one pipeline.
#[derive(Clone, Debug)]
pub struct ClauseProfile {
    /// The keywords of the clauses the segment covers, e.g. `"MATCH"`,
    /// `"OPTIONAL MATCH"` or `"MATCH WITH MATCH"`.
    pub label: String,
    /// Per-operator measurements, in pipeline order; a segment folded
    /// into a projection ends with its `PartialAggregate(…)`, `TopK(…)`
    /// or `Project(…)` sink.
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
    /// One entry per executed segment, in execution order (including
    /// both sides of a `UNION`).
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
    let mut exec = Exec {
        profile: Some(Vec::new()),
        ..Exec::new(params, cfg, None)
    };
    let t = exec.query(&mut Access::Read(view.into()), q)?;
    let rows = t.len() as u64;
    Ok((
        t,
        QueryProfile {
            clauses: exec.profile.unwrap_or_default(),
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
    Exec::new(params, cfg, memo).query(&mut Access::Read(view.into()), q)
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
    Exec::new(params, cfg, memo).query(&mut Access::Write(graph), q)
}

/// Executes a query over the named graphs of a catalog, starting on its
/// default graph; a `RETURN GRAPH` leaves its graph in `graphs.built`.
pub(crate) fn execute_on_graphs(
    graphs: &mut Graphs<'_>,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<Table, EvalError> {
    let mut access = Access::Read(graphs.default);
    let catalog = Some(graphs);
    Exec {
        catalog,
        ..Exec::new(params, cfg, None)
    }
    .query(&mut access, q)
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

/// A run of streamable clauses compiled into one step list for
/// [`drive`]: non-optional `MATCH` plans, `WHERE` filters, plain `WITH`
/// projections and `UNWIND`s. Any other clause ends it.
pub(crate) struct Segment {
    /// The keywords of the clauses it covers (EXPLAIN and PROFILE).
    label: Cow<'static, str>,
    steps: Vec<PlanStep>,
    /// The cost model's estimate after each step; `None` for the `WHERE`
    /// filter of a `MATCH`, which EXPLAIN does not list.
    estimates: Vec<Option<f64>>,
    /// The estimated output of the steps so far.
    estimated_rows: f64,
    /// The fields in scope after the steps, in order.
    visible: Arc<Schema>,
    /// Hidden columns bound since the last projection, which a later
    /// `MATCH` must not reuse.
    hidden: Vec<String>,
}

impl Segment {
    /// An empty segment over a driving table with schema `visible`.
    pub(crate) fn new(visible: Arc<Schema>) -> Segment {
        Segment {
            label: Cow::Borrowed(""),
            steps: Vec::new(),
            estimates: Vec::new(),
            estimated_rows: 1.0,
            visible,
            hidden: Vec::new(),
        }
    }

    /// The columns a `MATCH` appended now is planned against.
    fn fields(&self) -> Vec<String> {
        [self.visible.names(), &self.hidden].concat()
    }

    fn push(&mut self, keyword: &'static str, step: PlanStep, estimate: Option<f64>) {
        if self.label.is_empty() {
            self.label = Cow::Borrowed(keyword);
        } else if !keyword.is_empty() {
            self.label = Cow::Owned(format!("{} {keyword}", self.label));
        }
        self.steps.push(step);
        self.estimates.push(estimate);
    }

    /// Appends a planned `MATCH` and its `WHERE`.
    pub(crate) fn push_match(
        &mut self,
        label: &'static str,
        planned: &PlannedMatch,
        pred: Option<&Expr>,
    ) {
        let (plan, before) = (&planned.plan, self.estimated_rows);
        for (i, step) in plan.steps.iter().enumerate() {
            let est = plan.step_estimates.get(i).unwrap_or(&plan.estimated_rows);
            self.push(
                if i == 0 { label } else { "" },
                step.clone(),
                Some(before * est),
            );
        }
        self.estimated_rows = before * plan.estimated_rows;
        self.visible = Schema::new([self.visible.names(), &planned.new_vars].concat());
        self.hidden.extend(planned.hidden.iter().cloned());
        if let Some(pred) = pred {
            self.push("", PlanStep::FilterExpr { pred: pred.clone() }, None);
        }
    }

    /// Appends the `WHERE` of a `WITH` (or, opening a segment, of the
    /// clause that broke the previous one).
    fn push_where(&mut self, pred: Option<&Expr>) {
        if let Some(pred) = pred {
            let keyword = if self.label.is_empty() { "WHERE" } else { "" };
            let step = PlanStep::FilterExpr { pred: pred.clone() };
            self.push(keyword, step, Some(self.estimated_rows));
        }
    }

    /// Appends a plain `WITH` projection, compiled against the fields in
    /// scope (so a bad projection fails whether or not rows arrive).
    fn push_project(&mut self, ret: &Return) -> Result<(), EvalError> {
        let plan = ProjectionPlan::compile(ret, &self.visible)?;
        let step = PlanStep::Project {
            ret: ret.clone(),
            scope: self.visible.names().to_vec(),
        };
        self.visible = plan.out_schema().clone();
        self.hidden.clear();
        self.push("WITH", step, Some(self.estimated_rows));
        Ok(())
    }

    fn push_unwind(&mut self, expr: &Expr, alias: &str) -> Result<(), EvalError> {
        if self.visible.contains(alias) {
            return err(format!("UNWIND alias {alias} shadows an existing field"));
        }
        self.visible = self.visible.with_field(alias);
        let step = PlanStep::Unwind {
            expr: expr.clone(),
            alias: alias.to_string(),
        };
        self.push("UNWIND", step, Some(self.estimated_rows));
        Ok(())
    }

    /// Runs the steps over `input` into `sink`. When profiling, the run
    /// is probed and its profile recorded: step text + estimate + the
    /// measured actuals, with `sink_label` naming a folding sink's row.
    /// Probe timings are *inclusive* (each stage contains everything
    /// beneath it); the exclusive time reported subtracts the stage
    /// immediately below.
    pub(crate) fn run<S: Sink>(
        &self,
        ctx: &EvalContext<'_>,
        cfg: &EngineConfig,
        input: Table,
        sink: &S,
        sink_label: Option<String>,
        profile: Option<&mut Vec<ClauseProfile>>,
    ) -> Result<Table, EvalError> {
        let Some(profile) = profile else {
            return drive(ctx, &self.steps, input, cfg, sink, None);
        };
        let mut prof = PlanProfile::default();
        let out = drive(ctx, &self.steps, input, cfg, sink, Some(&mut prof))?;
        let names = self.steps.iter().map(|s| s.to_string()).chain(sink_label);
        // An unestimated step (and the sink) shows the estimate above it.
        let mut est = self.estimated_rows;
        let estimates = self.estimates.iter().chain(std::iter::repeat(&None));
        let mut below = 0;
        let operators = names
            .zip(estimates)
            .zip(&prof.stages)
            .map(|((operator, e), st)| {
                est = e.unwrap_or(est);
                let time_us = st.nanos.saturating_sub(below) / 1_000;
                below = st.nanos;
                OpProfile {
                    operator,
                    estimated_rows: est,
                    rows: st.rows,
                    batches: st.batches,
                    time_us,
                    probes: st.probes,
                    isect: st.isect,
                }
            })
            .collect();
        profile.push(ClauseProfile {
            label: self.label.to_string(),
            operators,
            morsels: prof.morsels,
            parallel: prof.parallel,
        });
        Ok(out)
    }

    /// The EXPLAIN block: the estimated steps, whether the worker pool
    /// can engage, and the `sink` the segment runs into.
    fn render(&self, cfg: &EngineConfig, sink: Option<String>, out: &mut String) {
        out.push_str(&format!("{} plan:\n", self.label));
        let listed = self.steps.iter().zip(&self.estimates);
        let listed = listed.filter_map(|(s, e)| Some((s, (*e)?)));
        for (i, (s, e)) in listed.enumerate() {
            out.push_str(&format!("{:i$}{s}  (est rows: {e:.1})\n", ""));
        }
        out.push_str(&format!("(estimated rows: {:.1})\n", self.estimated_rows));
        if let Some(gate) = cfg.parallel_gate() {
            if self.steps.first().is_some_and(|s| s.is_source()) {
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
            out.push_str(&sink);
            out.push('\n');
        }
    }
}

/// Whether a `WITH` projects row by row, and so streams inside a segment.
fn streams(ret: &Return) -> bool {
    !ret.distinct
        && ret.order_by.is_empty()
        && ret.skip.is_none()
        && ret.limit.is_none()
        && !ret.items.iter().any(|i| i.expr.contains_aggregate())
}

/// One execution of a query — the clause loop every entry point runs.
struct Exec<'e, 'g> {
    params: &'e Params,
    cfg: &'e EngineConfig,
    memo: Option<&'e PlanMemo>,
    /// The single query being run, numbered left to right across a
    /// `UNION` (the plan memo's site is `(branch, clause index)`).
    branch: usize,
    /// The named graphs of a catalog run (`FROM GRAPH`, `RETURN GRAPH`).
    catalog: Option<&'e mut Graphs<'g>>,
    /// One entry per segment run, when profiling.
    profile: Option<Vec<ClauseProfile>>,
    /// The rendered plan, when explaining: segments and updating clauses
    /// render instead of running — a segment as its block, or its sink
    /// line alone when it has no steps; an updating clause as one line,
    /// and MERGE also as its match plan.
    explain: Option<String>,
}

impl<'e, 'g> Exec<'e, 'g> {
    fn new(params: &'e Params, cfg: &'e EngineConfig, memo: Option<&'e PlanMemo>) -> Self {
        Exec {
            params,
            cfg,
            memo,
            branch: 0,
            catalog: None,
            profile: None,
            explain: None,
        }
    }

    fn query(&mut self, access: &mut Access<'g>, q: &Query) -> Result<Table, EvalError> {
        match q {
            Query::Single(sq) => {
                let out = self.single(access, sq);
                self.branch += 1;
                out
            }
            Query::Union { all, left, right } => {
                let single = |q: &Query| matches!(q, Query::Single(sq) if sq.ret_graph.is_some());
                if single(left) || single(right) {
                    return err("RETURN GRAPH cannot be combined with UNION");
                }
                let l = self.query(access, left)?;
                let r = self.query(access, right)?;
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

    fn ctx<'v>(&self, view: ViewRef<'v>) -> EvalContext<'v>
    where
        'e: 'v,
    {
        EvalContext::new(view.graph(), self.params).with_config(self.cfg.match_config)
    }

    /// Streamable clauses extend the current segment; every other clause
    /// runs it (into the projection of a breaking `WITH`) and then
    /// applies itself to the resulting table.
    fn single(&mut self, access: &mut Access<'g>, sq: &SingleQuery) -> Result<Table, EvalError> {
        if let Some(graphs) = &self.catalog {
            *access = Access::Read(graphs.default);
        }
        let mut t = Table::unit();
        let mut seg = Segment::new(t.schema().clone());
        for (i, clause) in sq.clauses.iter().enumerate() {
            match clause {
                Clause::Match {
                    optional: false,
                    patterns,
                    where_,
                } => {
                    let site = self.memo.map(|m| (m, (self.branch, i)));
                    let opts = self.cfg.planner_options();
                    let planned =
                        plan_match_memo(site, access.view(), &seg.fields(), patterns, opts);
                    seg.push_match("MATCH", &planned, where_.as_ref());
                    continue;
                }
                Clause::With { ret, where_ } if streams(ret) => {
                    seg.push_project(ret)?;
                    seg.push_where(where_.as_ref());
                    continue;
                }
                Clause::Unwind { expr, alias } => {
                    seg.push_unwind(expr, alias)?;
                    continue;
                }
                _ => {}
            }
            let ret = match clause {
                Clause::With { ret, .. } => Some(ret),
                _ => None,
            };
            t = self.finish(access.view(), &seg, t, ret)?;
            // A breaking `WITH`'s `WHERE` opens the next segment.
            let mut carried = None;
            t = match clause {
                Clause::With { where_, .. } => {
                    carried = where_.as_ref();
                    t
                }
                Clause::Match {
                    patterns, where_, ..
                } => self.optional_match(access.view(), i, patterns, where_.as_ref(), t)?,
                Clause::FromGraph { name, .. } => {
                    let Some(graphs) = &self.catalog else {
                        return err("FROM GRAPH requires a catalog; use the multigraph executor");
                    };
                    *access = Access::Read(view_named(&graphs.views, name)?);
                    t
                }
                // Explaining, an updating clause renders one line (and
                // MERGE its match plan) and answers the schema it would.
                _ if self.explain.is_some() => {
                    let out = self.explain.as_mut().expect("explaining");
                    out.push_str(&format!("{clause}\n"));
                    Table::empty(match clause {
                        Clause::Create { patterns } => update::extended(t.schema(), patterns),
                        Clause::Merge { pattern, .. } => {
                            let view = access.view();
                            let (planned, rows) =
                                update::merge_plan(view, t.schema(), pattern, self.cfg);
                            let mut merge = Segment::new(t.schema().clone());
                            merge.push_match("MERGE", &planned, None);
                            merge.render(self.cfg, None, out);
                            rows
                        }
                        _ => t.schema().clone(),
                    })
                }
                _ => update::apply(access.graph_mut()?, self.params, self.cfg, clause, t)?,
            };
            seg = Segment::new(t.schema().clone());
            seg.push_where(carried);
        }
        let ret = sq.ret.as_ref();
        if ret.is_some_and(|r| r.star && r.items.is_empty()) && seg.visible.is_empty() {
            return err("RETURN * requires at least one field");
        }
        let t = self.finish(access.view(), &seg, t, ret)?;
        if let Some((name, patterns)) = &sq.ret_graph {
            let Some(graphs) = self.catalog.as_deref_mut() else {
                return err("RETURN GRAPH requires a catalog; use the multigraph executor");
            };
            let g = construct_graph(access.view().graph(), self.params, self.cfg, patterns, &t)?;
            graphs.built = Some((name.clone(), g));
        }
        // `RETURN GRAPH` and update-only queries answer no rows, no fields.
        Ok(if ret.is_some() {
            t
        } else {
            Table::empty(Schema::empty())
        })
    }

    /// Runs `seg` over `input` into the projection `ret` — its pushed-down
    /// sink when [`select_sink`] picks one — or, without one, collects the
    /// visible fields. Explaining renders the segment instead and answers
    /// an empty table of the same schema.
    fn finish(
        &mut self,
        view: ViewRef<'_>,
        seg: &Segment,
        input: Table,
        ret: Option<&Return>,
    ) -> Result<Table, EvalError> {
        if seg.steps.is_empty() && ret.is_none() {
            return Ok(input);
        }
        let ctx = self.ctx(view);
        let visible = seg.visible.clone();
        let sink = ret.and_then(|ret| select_sink(&ctx, self.cfg, ret, &visible));
        let shown = self.profile.is_some() || self.explain.is_some();
        let sink_label = sink.as_ref().filter(|_| shown).map(FinalSink::label);
        if let Some(out) = &mut self.explain {
            match sink_label {
                _ if !seg.steps.is_empty() => seg.render(self.cfg, sink_label, out),
                Some(sink) => out.push_str(&format!("{sink}\n")),
                None => {}
            }
            let schema = match ret {
                Some(ret) => ProjectionPlan::compile(ret, &visible)?.out_schema().clone(),
                None => visible,
            };
            return Ok(Table::empty(schema));
        }
        let profile = self.profile.as_mut().filter(|_| !seg.steps.is_empty());
        // `Sink` is not object-safe: one monomorphic call per sink type.
        macro_rules! run {
            ($sink:expr) => {
                seg.run(&ctx, self.cfg, input, $sink, sink_label, profile)?
            };
        }
        Ok(match &sink {
            Some(FinalSink::Fold(s)) => run!(s),
            Some(FinalSink::TopK(s)) => run!(s),
            Some(FinalSink::Map(s)) => run!(s),
            None => {
                let raw = run!(&Collect);
                match ret {
                    Some(ret) => project(&ctx, ret, raw, &visible)?,
                    None => project_visible(raw, &visible),
                }
            }
        })
    }

    /// `OPTIONAL MATCH`: tags each driving row with its index, runs the
    /// pattern and its `WHERE` (per Figure 7) as a segment of their own,
    /// then null-pads the inputs that produced nothing. The segment keeps
    /// driving-row order, so each input's matches arrive together.
    fn optional_match(
        &mut self,
        view: ViewRef<'_>,
        i: usize,
        patterns: &[PathPattern],
        where_: Option<&Expr>,
        table: Table,
    ) -> Result<Table, EvalError> {
        let width = table.schema().len();
        let tagged = table.schema().with_field(" opt_idx".to_string());
        let site = self.memo.map(|m| (m, (self.branch, i)));
        let opts = self.cfg.planner_options();
        let planned = plan_match_memo(site, view, tagged.names(), patterns, opts);
        let mut seg = Segment::new(tagged.clone());
        seg.push_match("OPTIONAL MATCH", &planned, where_);
        let rows = table.rows().iter().enumerate();
        let rows = rows.map(|(k, r)| Record::new([r.values(), &[Value::int(k as i64)]].concat()));
        let raw = self.finish(view, &seg, Table::new(tagged, rows.collect()), None)?;
        let schema = Schema::new([table.schema().names(), &planned.new_vars].concat());
        let nulls = vec![Value::Null; planned.new_vars.len()];
        let (mut matches, mut out) = (raw.into_rows().into_iter().peekable(), Vec::new());
        for (k, row) in table.into_rows().into_iter().enumerate() {
            let padded = out.len();
            let ours = |m: &Record| matches!(m.get(width), Value::Integer(j) if *j == k as i64);
            while let Some(m) = matches.next_if(ours) {
                out.push(Record::new(
                    [&m.values()[..width], &m.values()[width + 1..]].concat(),
                ));
            }
            if out.len() == padded {
                out.push(Record::new([row.values(), &nulls].concat()));
            }
        }
        Ok(Table::new(schema, out))
    }
}

/// Renders the compiled segments of a query — a minimal `EXPLAIN`: each
/// segment's estimated steps (a `MATCH`'s own `WHERE` filter carries no
/// estimate and is not listed), whether the worker pool can engage, and the projection
/// sink it runs into (`PartialAggregate(…)` / `TopK(k=…)` /
/// `Project(…)`), against the given snapshot's statistics. Nothing runs;
/// rendering stops at a clause that fails to compile.
///
/// When the handle carries a version (it came from a pinned
/// `GraphView`), the output opens with a `snapshot version N` line —
/// the witness of *which* committed state the statistics (and therefore
/// the plan choices) were read from.
pub fn explain<'a>(view: impl Into<ViewRef<'a>>, q: &Query, cfg: &EngineConfig) -> String {
    let view = view.into();
    let mut s = String::new();
    if let Some(v) = view.version() {
        s.push_str(&format!("snapshot version {v}\n"));
    }
    // Best effort without the caller's parameters (a `LIMIT $n` renders
    // as `TopK(k=?)`).
    let params = Params::new();
    let mut exec = Exec {
        explain: Some(s),
        ..Exec::new(&params, cfg, None)
    };
    let _ = exec.query(&mut Access::Read(view), q);
    exec.explain.unwrap_or_default()
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
        run_at(g, src, &EngineConfig::default())
    }

    fn run_at(g: &PropertyGraph, src: &str, cfg: &EngineConfig) -> Table {
        execute_read(g, &parse_query(src).unwrap(), &Params::new(), cfg).unwrap()
    }

    /// This crate's own smoke check against the oracle; the integration
    /// tests run these queries at every cell of `cypher_tck::diff`.
    #[test]
    fn engine_matches_reference_on_figure4() {
        let (g, params) = (figure4(), Params::new());
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
            let reference = cypher_core::eval_query(&EvalContext::new(&g, &params), &q);
            let engine = run(&g, src);
            assert!(engine.bag_eq(&reference.unwrap()), "{src}\n{engine}");
        }
    }

    const TEACHER_PAIRS: &str = "MATCH (x:Teacher)-[:KNOWS]->(y) RETURN x, y";

    #[test]
    fn cartesian_baseline_agrees_with_expand() {
        let cartesian = EngineConfig {
            planner_mode: PlannerMode::CartesianJoin,
            ..EngineConfig::default()
        };
        let (g, expand) = (figure4(), run(&figure4(), TEACHER_PAIRS));
        assert!(run_at(&g, TEACHER_PAIRS, &cartesian).bag_eq(&expand));
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
        let (g, off) = (figure4(), EngineConfig::default().without_indexes());
        assert!(run_at(&g, TEACHER_PAIRS, &off).bag_eq(&run(&g, TEACHER_PAIRS)));
    }
}
