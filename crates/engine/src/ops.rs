//! Batch-at-a-time (morsel-driven) physical operators.
//!
//! The paper (Section 2): "The final query compilation uses either a
//! simple tuple-at-a-time iterator-based execution model, or compiles the
//! query to Java bytecode". The original executor here implemented the
//! tuple-at-a-time model; this module is its batch refactor: every
//! operator exposes `next_batch()`, pulling a [`RowBatch`] of up to
//! `morsel_size` records at a time from its child. Batching amortizes the
//! per-row virtual dispatch of the Volcano model and — more importantly —
//! gives the executor a natural unit of parallelism: the *morsel*
//! (Leis et al., "Morsel-driven parallelism"). `drive` — the one way a
//! plan is run — partitions a pipeline's source into morsels, dispatches
//! them across a `std::thread::scope` worker pool, feeds each morsel into
//! a fresh partial of its `Sink` and merges the partials *in morsel
//! order*, so the result is identical for every thread count — including
//! 1, which bypasses dispatch entirely and reproduces the classic
//! single-threaded execution bit-for-bit.
//!
//! `Expand` still exploits the native adjacency of [`cypher_graph`]: "it
//! utilizes the fact that the data representation contains direct
//! references from each node via its edges to the related nodes".

use crate::exec::EngineConfig;
use crate::plan::{PathElem, PlanStep};
use cypher_ast::expr::Expr;
use cypher_ast::pattern::Dir;
use cypher_core::error::{err, EvalError};
use cypher_core::expr::{eval_expr, truth_of, Bindings};
use cypher_core::morphism::Morphism;
use cypher_core::project::ProjectionPlan;
use cypher_core::table::{Record, Schema, Table};
use cypher_core::EvalContext;
use cypher_graph::{
    gallop, Direction, Neighbor, NodeId, Path, PropertyGraph, RelId, SortedAdjacency, Symbol, Tri,
    Value,
};
use cypher_metrics::Counter;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The default number of rows per batch (morsel).
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// A batch of records flowing between operators — the unit of work of the
/// morsel-driven executor. Sources cap batches at the configured morsel
/// size; intermediate operators may shrink (filters) or grow (expands)
/// them, re-chunking at the next cap check.
#[derive(Debug, Default)]
pub struct RowBatch {
    rows: Vec<Record>,
}

impl RowBatch {
    /// An empty batch with room for `n` rows.
    pub fn with_capacity(n: usize) -> RowBatch {
        RowBatch {
            rows: Vec::with_capacity(n),
        }
    }

    /// Wraps a row vector.
    pub fn from_rows(rows: Vec<Record>) -> RowBatch {
        RowBatch { rows }
    }

    /// Appends a row.
    pub fn push(&mut self, r: Record) {
        self.rows.push(r);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in order.
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Moves the rows out.
    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }
}

/// A pull-based operator: a stream of row batches with a fixed schema.
pub trait Operator {
    /// The output schema.
    fn schema(&self) -> &Arc<Schema>;
    /// Pulls the next non-empty batch, `None` at end of stream.
    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError>;
    /// Kernel counters `(probes, intersection length)` for operators that
    /// intersect sorted adjacencies; `None` for everything else. Read by
    /// the profiling shim at end of stream.
    fn intersect_stats(&self) -> Option<(u64, u64)> {
        None
    }
}

cypher_metrics::instruments! {
    /// Executor-level event counters, shared through
    /// [`crate::exec::EngineConfig::exec_metrics`]. Recording is lock-free
    /// (relaxed atomics) and happens once per pipeline run — never per row
    /// or per batch — so the hot path stays untouched; a `None` handle
    /// skips even that.
    pub struct ExecMetrics {
        /// Morsels executed by `MATCH` pipelines (a sequential run counts 1).
        pub morsels: Counter = "cypher_exec_morsels_total", "morsels executed by MATCH pipelines";
        pub rows: Counter = "cypher_exec_rows_total",
            "rows produced by MATCH pipelines (pre-projection)";
        pub parallel_runs: Counter = "cypher_exec_parallel_runs_total",
            "pipeline runs that engaged the parallel dispatcher";
        pub intersect_probes: Counter = "cypher_exec_intersect_probes_total",
            "galloping probes issued by multiway intersection joins";
        /// Nodes surviving a multiway adjacency intersection (the summed
        /// intersection lengths, before label filtering).
        pub intersect_nodes: Counter = "cypher_exec_intersect_nodes_total",
            "candidate nodes surviving multiway adjacency intersection";
        pub intersect_rows: Counter = "cypher_exec_intersect_rows_total",
            "rows emitted by MultiwayIntersect operators";
    }
}

/// Measured totals of one pipeline stage across a probed run: every batch
/// it emitted, every row in those batches, and the wall time spent inside
/// it (inclusive of the stages beneath it — the pipeline is linear, so
/// callers recover exclusive time by subtracting the child's total).
#[derive(Clone, Debug, Default)]
pub(crate) struct OpStats {
    /// Rows the stage emitted (for the sink: took in).
    pub rows: u64,
    /// Non-empty batches the stage emitted (for the sink: took in).
    pub batches: u64,
    /// Wall nanoseconds inside the stage, children included. Parallel
    /// runs sum the per-worker times (CPU-style, not elapsed).
    pub nanos: u64,
    /// Galloping probes (`MultiwayIntersect` steps only; 0 elsewhere).
    pub probes: u64,
    /// Intersection length — nodes adjacent to every guard
    /// (`MultiwayIntersect` steps only; 0 elsewhere).
    pub isect: u64,
}

impl OpStats {
    fn merge(&mut self, other: &OpStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.nanos += other.nanos;
        self.probes += other.probes;
        self.isect += other.isect;
    }
}

/// The measured execution of one plan, filled by a probed [`drive`]:
/// per-stage totals summed over all morsels, plus the dispatch shape.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanProfile {
    /// One entry per plan step, then one for the sink.
    pub stages: Vec<OpStats>,
    /// Morsels executed (1 for a sequential run).
    pub morsels: u64,
    /// Whether the parallel dispatcher engaged.
    pub parallel: bool,
}

/// The probe around one operator. The counters are plain (non-atomic)
/// cells private to the morsel's thread; workers never share a slot, so
/// probing adds no synchronization to the pipeline itself and costs one
/// `Instant::now()` pair per batch.
struct ProfiledOp<'a> {
    inner: Box<dyn Operator + 'a>,
    slot: Rc<RefCell<Vec<OpStats>>>,
    idx: usize,
}

impl Operator for ProfiledOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let t = Instant::now();
        let res = self.inner.next_batch();
        let nanos = t.elapsed().as_nanos() as u64;
        let mut stats = self.slot.borrow_mut();
        let s = &mut stats[self.idx];
        s.nanos += nanos;
        match &res {
            Ok(Some(b)) => {
                s.rows += b.len() as u64;
                s.batches += 1;
            }
            Ok(None) => {
                // End of stream: harvest the operator's kernel counters.
                if let Some((probes, isect)) = self.inner.intersect_stats() {
                    s.probes = probes;
                    s.isect = isect;
                }
            }
            Err(_) => {}
        }
        res
    }
}

/// What a pipeline's output rows are folded into. [`drive`] feeds every
/// morsel into a fresh [`Sink::Partial`] and hands the partials to
/// [`Sink::finish`] in morsel order; an implementation whose `finish`
/// over in-order partials equals feeding one partial every row is
/// therefore independent of thread count and morsel size.
pub(crate) trait Sink: Sync {
    /// One morsel's share of the result.
    type Partial: Send;
    /// Whether the sink evaluates expressions between batches. Such a run
    /// interleaves its own evaluation with the pipeline's, so its errors
    /// are not the canonical ones and are answered by a re-run.
    const EVALUATES: bool;
    /// A fresh partial for a pipeline that emits `schema`.
    fn partial(&self, schema: &Arc<Schema>) -> Self::Partial;
    /// Takes in one batch.
    fn feed(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        part: &mut Self::Partial,
        batch: RowBatch,
    ) -> Result<(), EvalError>;
    /// Merges the partials (at least one), given in morsel order, into
    /// the result.
    fn finish(
        &self,
        ctx: &EvalContext<'_>,
        schema: &Arc<Schema>,
        parts: impl Iterator<Item = Self::Partial>,
    ) -> Result<Table, EvalError>;
    /// The same result computed from the collected pipeline output — the
    /// definition folding must agree with, and how [`drive`] answers a
    /// failed run.
    fn materialized(&self, ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError>;
}

/// The sink that keeps every row: the pipeline's raw output table.
pub(crate) struct Collect;

impl Sink for Collect {
    type Partial = Table;
    const EVALUATES: bool = false;

    fn partial(&self, schema: &Arc<Schema>) -> Table {
        Table::empty(schema.clone())
    }

    fn feed(
        &self,
        _ctx: &EvalContext<'_>,
        _schema: &Schema,
        part: &mut Table,
        batch: RowBatch,
    ) -> Result<(), EvalError> {
        for r in batch.into_rows() {
            part.push(r);
        }
        Ok(())
    }

    fn finish(
        &self,
        _ctx: &EvalContext<'_>,
        _schema: &Arc<Schema>,
        mut parts: impl Iterator<Item = Table>,
    ) -> Result<Table, EvalError> {
        let mut out = parts.next().expect("a run has at least one morsel");
        for t in parts {
            for r in t.into_rows() {
                out.push(r);
            }
        }
        Ok(out)
    }

    fn materialized(&self, _ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError> {
        Ok(raw)
    }
}

/// Executes a compiled segment — the steps of a run of `MATCH`, plain
/// `WITH`, `WHERE` and `UNWIND` clauses — over a driving table into
/// `sink`: the only way a plan is run. The dispatch decision is made once: a
/// plan anchored on a source whose output (`driving rows × scanned
/// items`) exceeds [`EngineConfig::parallel_gate`] is cut into morsels
/// claimed by `cfg.num_threads` workers; anything else is one morsel on
/// the calling thread. `probe`, when given, wraps every operator and the
/// sink in measurement and receives the totals.
///
/// **Determinism:** morsel `k` covers rows `[k·m, (k+1)·m)` of the
/// source's row-major product (driving row outer, scanned item inner) —
/// the order the sequential pipeline emits — every operator is a pure
/// function of its input row sequence, and every sink merges its
/// partials in morsel order. The result is therefore the same for every
/// `num_threads` and `morsel_size`, not merely the same bag.
///
/// **Canonical errors:** workers race and an evaluating sink evaluates
/// between batches, so the first error of a parallel or evaluating run
/// is scheduling-dependent. Any such error is discarded and answered by
/// one sequential re-run through [`Collect`] and [`Sink::materialized`]:
/// the canonical error is the first one the sequential run of the
/// segment raises, in row order.
pub(crate) fn drive<'a, S: Sink>(
    ctx: &'a EvalContext<'a>,
    steps: &[PlanStep],
    input: Table,
    cfg: &'a EngineConfig,
    sink: &S,
    mut probe: Option<&mut PlanProfile>,
) -> Result<Table, EvalError> {
    // Resolve every source once; all morsels and the re-run share the
    // lists (a second scan inside the pipeline — a disconnected pattern —
    // is not re-collected per morsel).
    let prepared = prepare_sources(ctx, steps)?;
    let run = Run {
        ctx,
        steps,
        prepared: &prepared,
        cfg,
    };
    let total = match prepared.first() {
        Some(Some((_, items))) => input.len().saturating_mul(items.len()),
        _ => 0,
    };
    let gate = cfg.parallel_gate();
    let first = if gate.is_some_and(|gate| total > gate) {
        run.morsels(&input, total, sink, probe.as_deref_mut())
    } else if S::EVALUATES {
        // Borrowed so the re-run still has it: one copy of the driving
        // table, whose rows are cloned a batch at a time.
        run.whole(Cow::Borrowed(&input), sink, probe.as_deref_mut())
    } else {
        return run.whole(Cow::Owned(input), sink, probe);
    };
    first.or_else(|_| sink.materialized(ctx, run.whole(Cow::Owned(input), &Collect, probe)?))
}

/// What every execution of one plan — whole, per morsel, or the
/// canonical re-run — shares.
struct Run<'p> {
    ctx: &'p EvalContext<'p>,
    steps: &'p [PlanStep],
    prepared: &'p [PreparedSource],
    cfg: &'p EngineConfig,
}

/// One pipeline drained into one partial.
struct Morsel<P> {
    part: P,
    schema: Arc<Schema>,
    rows: u64,
    /// Per-stage measurements; empty unless probed.
    stages: Vec<OpStats>,
}

impl<'p> Run<'p> {
    fn cap(&self) -> usize {
        self.cfg.morsel_size.max(1)
    }

    /// The whole input as one morsel on the calling thread.
    fn whole<S: Sink>(
        &self,
        input: Cow<'_, Table>,
        sink: &S,
        probe: Option<&mut PlanProfile>,
    ) -> Result<Table, EvalError> {
        let source = Box::new(TableScan::new(input, self.cap()));
        let m = self.pump(source, 0, sink, probe.is_some())?;
        self.merge(m, std::iter::empty(), false, sink, probe)
    }

    /// The source's `total` output rows cut into morsels of `cap` rows,
    /// claimed by the worker pool.
    fn morsels<S: Sink>(
        &self,
        driving: &Table,
        total: usize,
        sink: &S,
        probe: Option<&mut PlanProfile>,
    ) -> Result<Table, EvalError> {
        let cap = self.cap();
        let (var, items) = self.prepared[0].as_ref().expect("source-anchored");
        let schema = driving.schema().with_field(var.clone());
        let probing = probe.is_some();
        let mut done = parallel_morsels(self.cfg.num_threads, total.div_ceil(cap), |k| {
            let source = Box::new(MorselScan {
                schema: schema.clone(),
                driving,
                items: Arc::clone(items),
                range: k * cap..((k + 1) * cap).min(total),
            });
            self.pump(source, 1, sink, probing)
        })?
        .into_iter();
        let first = done.next().expect("a run has at least one morsel");
        self.merge(first, done, true, sink, probe)
    }

    /// Builds the pipeline over `source` — which already stands for the
    /// first `attached` steps — and drains it into a fresh partial.
    fn pump<'x, S: Sink>(
        &'x self,
        source: Box<dyn Operator + 'x>,
        attached: usize,
        sink: &S,
        probing: bool,
    ) -> Result<Morsel<S::Partial>, EvalError> {
        let slot = probing.then(|| {
            let stages = vec![OpStats::default(); self.steps.len() + 1];
            Rc::new(RefCell::new(stages))
        });
        let metrics = self.cfg.exec_metrics.as_deref();
        let mut op = source;
        for (i, (step, prep)) in self.steps.iter().zip(self.prepared).enumerate() {
            if i >= attached {
                op = attach(self.ctx, step, prep, op, self.cap(), metrics)?;
            }
            if let Some(slot) = &slot {
                op = Box::new(ProfiledOp {
                    inner: op,
                    slot: Rc::clone(slot),
                    idx: i,
                });
            }
        }
        let schema = op.schema().clone();
        let mut part = sink.partial(&schema);
        let (mut rows, mut batches) = (0, 0);
        let started = probing.then(Instant::now);
        while let Some(batch) = op.next_batch()? {
            rows += batch.len() as u64;
            batches += 1;
            sink.feed(self.ctx, &schema, &mut part, batch)?;
        }
        let stages = slot.map_or_else(Vec::new, |slot| {
            let mut stages = slot.take();
            stages[self.steps.len()] = OpStats {
                rows,
                batches,
                nanos: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
                ..OpStats::default()
            };
            stages
        });
        Ok(Morsel {
            part,
            schema,
            rows,
            stages,
        })
    }

    /// Finishes the sink over the morsels' partials, in the order given,
    /// and records the run — once — in `ExecMetrics` and the probe.
    fn merge<S: Sink>(
        &self,
        first: Morsel<S::Partial>,
        rest: impl Iterator<Item = Morsel<S::Partial>>,
        parallel: bool,
        sink: &S,
        probe: Option<&mut PlanProfile>,
    ) -> Result<Table, EvalError> {
        let Morsel {
            part,
            schema,
            mut rows,
            mut stages,
        } = first;
        let mut n = 1;
        let started = probe.is_some().then(Instant::now);
        let parts = std::iter::once(part).chain(rest.map(|m| {
            n += 1;
            rows += m.rows;
            for (acc, s) in stages.iter_mut().zip(&m.stages) {
                acc.merge(s);
            }
            m.part
        }));
        let out = sink.finish(self.ctx, &schema, parts)?;
        if let Some(m) = &self.cfg.exec_metrics {
            m.morsels.add(n);
            m.rows.add(rows);
            if parallel {
                m.parallel_runs.inc();
            }
        }
        if let Some(p) = probe {
            if let (Some(sink_stage), Some(t)) = (stages.last_mut(), started) {
                sink_stage.nanos += t.elapsed().as_nanos() as u64;
            }
            *p = PlanProfile {
                stages,
                morsels: n,
                parallel,
            };
        }
        Ok(out)
    }
}

/// The morsel dispatcher: `threads` scoped workers claim morsel indices
/// `0..n_morsels` from a shared atomic counter and run `work` on each;
/// the results come back **indexed by morsel**. After any failure the
/// remaining morsels are skipped and the first stored error is returned.
fn parallel_morsels<P, F>(threads: usize, n_morsels: usize, work: F) -> Result<Vec<P>, EvalError>
where
    P: Send,
    F: Fn(usize) -> Result<P, EvalError> + Sync,
{
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<Result<P, EvalError>>>> =
        Mutex::new((0..n_morsels).map(|_| None).collect());

    std::thread::scope(|s| {
        for _ in 0..threads.min(n_morsels) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_morsels || failed.load(Ordering::Relaxed) {
                    break;
                }
                let res = work(i);
                if res.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                slots.lock().unwrap()[i] = Some(res);
            });
        }
    });

    // A `None` slot was skipped after a failure elsewhere, whose error
    // the collect stops at.
    slots.into_inner().unwrap().into_iter().flatten().collect()
}

/// A source step's resolved scan list: the bound column plus the
/// `Arc`-shared items, or `None` for non-source steps.
type PreparedSource = Option<(String, Arc<[Value]>)>;

/// Resolves every source step of a plan to its scan list.
fn prepare_sources(
    ctx: &EvalContext<'_>,
    steps: &[PlanStep],
) -> Result<Vec<PreparedSource>, EvalError> {
    steps
        .iter()
        .map(|s| Ok(source_items(ctx, s)?.map(|(var, items)| (var, items.into()))))
        .collect()
}

/// Materializes the item list a source step scans — the node or
/// relationship bindings it would push onto every driving row — or `None`
/// when the step is not a source.
fn source_items(
    ctx: &EvalContext<'_>,
    step: &PlanStep,
) -> Result<Option<(String, Vec<Value>)>, EvalError> {
    Ok(match step {
        PlanStep::AllNodesScan { var } => {
            Some((var.clone(), ctx.graph.nodes().map(Value::Node).collect()))
        }
        PlanStep::NodeIndexScan { var, label } => {
            let nodes = match ctx.graph.interner().get(label) {
                Some(sym) => ctx
                    .graph
                    .nodes_with_label(sym)
                    .iter()
                    .map(|&n| Value::Node(n))
                    .collect(),
                None => Vec::new(),
            };
            Some((var.clone(), nodes))
        }
        PlanStep::PropertyIndexSeek {
            var,
            label,
            key,
            value,
        } => {
            // The value is a literal or parameter: evaluable without a row.
            let v = eval_expr(ctx, &cypher_core::expr::NoVars, value)?;
            // `{k: null}` never matches (`=` with null is not true), and
            // the index only answers equivalence queries — guard it out.
            let interner = ctx.graph.interner();
            let nodes = if v.is_null() {
                Vec::new()
            } else {
                match (label, interner.get(key)) {
                    (_, None) => Vec::new(),
                    // Composite (label, key, value) seek.
                    (Some(l), Some(k)) => match interner.get(l) {
                        Some(l) => ctx.graph.nodes_with_label_prop(l, k, &v),
                        None => Vec::new(),
                    },
                    // Key-only seek.
                    (None, Some(k)) => ctx.graph.nodes_with_prop(k, &v),
                }
            };
            Some((var.clone(), nodes.into_iter().map(Value::Node).collect()))
        }
        PlanStep::RelScan { var } => {
            Some((var.clone(), ctx.graph.rels().map(Value::Rel).collect()))
        }
        _ => None,
    })
}

fn col_idx(schema: &Schema, name: &str) -> Result<usize, EvalError> {
    schema
        .index_of(name)
        .ok_or_else(|| EvalError::new(format!("internal: unknown plan column {name:?}")))
}

fn attach<'a>(
    ctx: &'a EvalContext<'a>,
    step: &PlanStep,
    prep: &PreparedSource,
    child: Box<dyn Operator + 'a>,
    cap: usize,
    metrics: Option<&'a ExecMetrics>,
) -> Result<Box<dyn Operator + 'a>, EvalError> {
    let schema = child.schema().clone();
    if let Some((var, items)) = prep {
        return Ok(Box::new(ItemScan {
            schema: schema.with_field(var.clone()),
            child,
            items: Arc::clone(items),
            cap,
            input: None,
            row_idx: 0,
            item_idx: 0,
        }));
    }
    Ok(match step {
        PlanStep::Argument { var } => {
            col_idx(&schema, var)?; // validated; pass-through
            child
        }
        PlanStep::AllNodesScan { .. }
        | PlanStep::NodeIndexScan { .. }
        | PlanStep::PropertyIndexSeek { .. }
        | PlanStep::RelScan { .. } => unreachable!("sources handled above"),
        PlanStep::Expand {
            from,
            rel,
            to,
            dir,
            types,
            lo,
            hi,
            single,
            reversed,
            exclude,
            props,
        } => {
            let from_idx = col_idx(&schema, from)?;
            let rel_bound = schema.index_of(rel);
            let to_bound = schema.index_of(to);
            let mut out_schema = schema.clone();
            if rel_bound.is_none() {
                out_schema = out_schema.with_field(rel.clone());
            }
            if to_bound.is_none() && to != rel {
                out_schema = out_schema.with_field(to.clone());
            }
            let exclude_idx: Vec<usize> = exclude
                .iter()
                .map(|c| col_idx(&schema, c))
                .collect::<Result<_, _>>()?;
            let type_syms = resolve_types(ctx, types);
            // Per-hop property keys resolved once per operator; `None`
            // marks a key that was never interned (no hop can satisfy it).
            let props = props
                .iter()
                .map(|(k, e)| (ctx.graph.interner().get(k), e.clone()))
                .collect();
            Box::new(ExpandOp {
                ctx,
                schema: out_schema,
                rows: PerRow::new(child, cap),
                from_idx,
                rel_bound,
                to_bound,
                dir: dir_of(*dir),
                type_syms,
                lo: *lo,
                hi: *hi,
                single: *single,
                reversed: *reversed,
                exclude_idx,
                props,
                in_schema: schema,
            })
        }
        PlanStep::MultiwayIntersect {
            to,
            guards,
            labels,
            exclude,
        } => {
            let mut out_schema = schema.clone();
            let mut gstates = Vec::with_capacity(guards.len());
            for g in guards {
                let from_idx = col_idx(&schema, &g.from)?;
                out_schema = out_schema.with_field(g.rel.clone());
                let props = g
                    .props
                    .iter()
                    .map(|(k, e)| (ctx.graph.interner().get(k), e.clone()))
                    .collect();
                gstates.push(IntersectGuardState {
                    from_idx,
                    dir: dir_of(g.dir),
                    type_syms: resolve_types(ctx, &g.types),
                    props,
                });
            }
            let out_schema = out_schema.with_field(to.clone());
            let exclude_idx: Vec<usize> = exclude
                .iter()
                .map(|c| col_idx(&schema, c))
                .collect::<Result<_, _>>()?;
            let label_syms: Option<Vec<Symbol>> =
                labels.iter().map(|l| ctx.graph.interner().get(l)).collect();
            Box::new(MultiwayIntersectOp {
                ctx,
                schema: out_schema,
                in_schema: schema,
                rows: PerRow::new(child, cap),
                guards: gstates,
                label_syms,
                exclude_idx,
                adj: ctx.graph.sorted_adjacency(),
                metrics,
                probes: 0,
                isect: 0,
                rows_out: 0,
                flushed: false,
            })
        }
        PlanStep::FilterLabels { var, labels } => {
            let idx = col_idx(&schema, var)?;
            // `None`: a label never interned, so nothing matches (the
            // child still drains, so upstream errors surface).
            let syms: Option<Vec<Symbol>> =
                labels.iter().map(|l| ctx.graph.interner().get(l)).collect();
            filter(schema, child, move |row| match (&syms, row.get(idx)) {
                (None, _) | (_, Value::Null) => Ok(false),
                (Some(syms), Value::Node(n)) => {
                    Ok(syms.iter().all(|&l| ctx.graph.has_label(*n, l)))
                }
                (_, other) => err(format!("label filter on non-node {}", other.type_name())),
            })
        }
        PlanStep::FilterProps { var, props } => {
            let idx = col_idx(&schema, var)?;
            // Property keys are interned symbols; resolve them once per
            // operator instead of hashing the key string on every row.
            let mut props: Vec<_> = props
                .iter()
                .map(|(k, e)| (ctx.graph.interner().get(k), e.clone(), None))
                .collect();
            let s = schema.clone();
            filter(schema, child, move |row| {
                props_keep(ctx, &s, idx, &mut props, row)
            })
        }
        PlanStep::FilterEndpoints {
            rel,
            from,
            to,
            dir,
            types,
            exclude,
        } => {
            let (rel, from, to) = (
                col_idx(&schema, rel)?,
                col_idx(&schema, from)?,
                col_idx(&schema, to)?,
            );
            let exclude: Vec<usize> = exclude
                .iter()
                .map(|c| col_idx(&schema, c))
                .collect::<Result<_, _>>()?;
            let (dir, types) = (*dir, resolve_types(ctx, types));
            let g = ctx.graph;
            filter(schema, child, move |row| {
                let (Value::Rel(r), Value::Node(a), Value::Node(b)) =
                    (row.get(rel), row.get(from), row.get(to))
                else {
                    return Ok(false);
                };
                if !type_ok(g, &types, *r) {
                    return Ok(false);
                }
                // Endpoint agreement per direction (item (e′) of §4.2).
                let (src, tgt) = (g.src(*r).expect("live rel"), g.tgt(*r).expect("live rel"));
                let ends = match dir {
                    Dir::Out => src == *a && tgt == *b,
                    Dir::In => src == *b && tgt == *a,
                    Dir::Both => (src == *a && tgt == *b) || (src == *b && tgt == *a),
                };
                // Relationship isomorphism between scanned rel columns.
                let reused = |i: &usize| matches!(row.get(*i), Value::Rel(r2) if r2 == r);
                Ok(ends && !(ctx.config.morphism.rels_distinct() && exclude.iter().any(reused)))
            })
        }
        PlanStep::FilterExpr { pred } => {
            let (s, pred) = (schema.clone(), pred.clone());
            filter(schema, child, move |row| {
                Ok(truth_of(ctx, &Bindings::new(&s, row), &pred)? == Tri::True)
            })
        }
        PlanStep::PathBind { var, elements } => {
            let elements: Vec<(bool, bool, usize)> = elements
                .iter()
                .map(|e| match e {
                    PathElem::Node(c) => Ok((true, false, col_idx(&schema, c)?)),
                    PathElem::Rel(c) => Ok((false, false, col_idx(&schema, c)?)),
                    PathElem::RelList(c) => Ok((false, true, col_idx(&schema, c)?)),
                })
                .collect::<Result<_, EvalError>>()?;
            stage(schema.with_field(var.clone()), child, move |batch| {
                let rows = batch.into_rows().into_iter();
                let rows = rows.map(|row| bind_path(ctx, &elements, row));
                Ok(RowBatch::from_rows(rows.collect::<Result<_, _>>()?))
            })
        }
        PlanStep::Project { ret, scope } => {
            let plan = ProjectionPlan::compile(ret, &Schema::new(scope.clone()))?;
            // Bound once per batch, as the final plain projection binds.
            stage(plan.out_schema().clone(), child, move |batch| {
                let bound = plan.bind(ctx, &schema);
                let rows = batch.rows().iter().map(|r| bound.project_row(ctx, r));
                Ok(RowBatch::from_rows(rows.collect::<Result<_, _>>()?))
            })
        }
        PlanStep::Unwind { expr, alias } => Box::new(UnwindOp {
            ctx,
            schema: schema.with_field(alias.clone()),
            in_schema: schema,
            rows: PerRow::new(child, cap),
            expr: expr.clone(),
        }),
    })
}

/// `None` in the inner option marks a type that was never interned — such
/// a pattern can match nothing.
fn resolve_types(ctx: &EvalContext<'_>, types: &[String]) -> Option<Vec<Symbol>> {
    if types.is_empty() {
        return Some(Vec::new());
    }
    let resolved: Vec<Symbol> = types
        .iter()
        .filter_map(|t| ctx.graph.interner().get(t))
        .collect();
    if resolved.is_empty() {
        None // no admissible type exists in this graph
    } else {
        Some(resolved)
    }
}

fn dir_of(d: Dir) -> Direction {
    match d {
        Dir::Out => Direction::Outgoing,
        Dir::In => Direction::Incoming,
        Dir::Both => Direction::Both,
    }
}

/// Whether `r`'s type is admissible: `Some(vec![])` = any type;
/// `Some(list)` = one of; `None` = no admissible type exists.
fn type_ok(g: &PropertyGraph, syms: &Option<Vec<Symbol>>, r: RelId) -> bool {
    match syms {
        None => false,
        Some(list) => list.is_empty() || list.contains(&g.rel_type(r).expect("live rel")),
    }
}

/// Relationship isomorphism: whether `r` is already bound in one of the
/// `exclude` columns (a relationship, or a variable-length list of them).
fn rel_excluded(ctx: &EvalContext<'_>, exclude: &[usize], row: &Record, r: RelId) -> bool {
    ctx.config.morphism.rels_distinct()
        && exclude.iter().any(|&i| match row.get(i) {
            Value::Rel(r2) => *r2 == r,
            Value::List(items) => items
                .iter()
                .any(|v| matches!(v, Value::Rel(r2) if *r2 == r)),
            _ => false,
        })
}

/// Whether `r` carries every expected `(key, value)` (`=`, not
/// equivalence).
fn props_ok(g: &PropertyGraph, expected: &[(Symbol, Value)], r: RelId) -> bool {
    expected
        .iter()
        .all(|(k, want)| g.rel_prop(r, *k).is_some_and(|v| v.equals(want).is_true()))
}

/// The input cursor of an operator that maps every input row to a run
/// of output rows (`Expand`, `MultiwayIntersect`, `Unwind`); `P` yields
/// one row's run.
struct PerRow<'a, P = std::vec::IntoIter<Record>> {
    child: Box<dyn Operator + 'a>,
    cap: usize,
    /// The current input batch and the index of its next row.
    input: Option<(RowBatch, usize)>,
    /// The current row's output still awaiting emission.
    pending: P,
}

impl<'a, P: Iterator<Item = Record> + Default> PerRow<'a, P> {
    fn new(child: Box<dyn Operator + 'a>, cap: usize) -> Self {
        PerRow {
            child,
            cap,
            input: None,
            pending: P::default(),
        }
    }

    /// Moves pending rows into `out`; while `out` has room, steps to the
    /// next input row and answers `true` for the caller to expand
    /// [`PerRow::current`] into [`PerRow::expanded`]. `false`: `out` is
    /// full or the input is exhausted.
    fn advance(&mut self, out: &mut RowBatch) -> Result<bool, EvalError> {
        while out.len() < self.cap {
            if let Some(r) = self.pending.next() {
                out.push(r);
                continue;
            }
            match &mut self.input {
                Some((batch, next)) if *next < batch.len() => {
                    *next += 1;
                    return Ok(true);
                }
                _ => match self.child.next_batch()? {
                    Some(b) => self.input = Some((b, 0)),
                    None => return Ok(false),
                },
            }
        }
        Ok(false)
    }

    /// The input row [`PerRow::advance`] stepped to.
    fn current(&self) -> &Record {
        let (batch, next) = self.input.as_ref().expect("advanced to a row");
        &batch.rows()[next - 1]
    }

    /// Queues the current row's output.
    fn expanded(&mut self, rows: P) {
        self.pending = rows;
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// The driving table as a source: its rows moved out, or cloned one
/// batch at a time from a borrowed table that the error re-run reads again.
struct TableScan<'d> {
    schema: Arc<Schema>,
    rows: Cow<'d, [Record]>,
    next: usize,
    cap: usize,
}

impl<'d> TableScan<'d> {
    fn new(t: Cow<'d, Table>, cap: usize) -> Self {
        let schema = t.schema().clone();
        let rows = match t {
            Cow::Owned(t) => Cow::Owned(t.into_rows()),
            Cow::Borrowed(t) => Cow::Borrowed(t.rows()),
        };
        TableScan {
            schema,
            rows,
            next: 0,
            cap,
        }
    }
}

impl Operator for TableScan<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let range = self.next..(self.next + self.cap).min(self.rows.len());
        self.next = range.end;
        let rows: Vec<Record> = match &mut self.rows {
            Cow::Owned(rows) => rows[range].iter_mut().map(std::mem::take).collect(),
            Cow::Borrowed(rows) => rows[range].to_vec(),
        };
        Ok((!rows.is_empty()).then(|| RowBatch::from_rows(rows)))
    }
}

/// The one scan operator behind `AllNodesScan`, `NodeIndexScan`,
/// `PropertyIndexSeek` and `RelScan`: for every driving row, emit one
/// output row per item of a pre-materialized, `Arc`-shared list. The items
/// are *not* cloned per operator — parallel workers and re-built pipelines
/// share one allocation.
struct ItemScan<'a> {
    schema: Arc<Schema>,
    child: Box<dyn Operator + 'a>,
    items: Arc<[Value]>,
    cap: usize,
    /// The input batch currently being multiplied, with its cursors.
    input: Option<RowBatch>,
    row_idx: usize,
    item_idx: usize,
}

impl Operator for ItemScan<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        if self.items.is_empty() {
            // No output is possible, but upstream evaluation *errors*
            // must still surface: drain the child instead of ending the
            // stream outright.
            while self.child.next_batch()?.is_some() {}
            return Ok(None);
        }
        loop {
            let Some(batch) = self.input.take() else {
                match self.child.next_batch()? {
                    None => return Ok(None),
                    Some(b) => {
                        self.row_idx = 0;
                        self.item_idx = 0;
                        self.input = Some(b);
                        continue;
                    }
                }
            };
            let remaining = (batch.len() - self.row_idx)
                .saturating_mul(self.items.len())
                .saturating_sub(self.item_idx);
            let mut out = RowBatch::with_capacity(self.cap.min(remaining));
            while self.row_idx < batch.len() && out.len() < self.cap {
                let row = &batch.rows()[self.row_idx];
                while self.item_idx < self.items.len() && out.len() < self.cap {
                    let mut r = row.cloned_with_extra(1);
                    r.push(self.items[self.item_idx].clone());
                    out.push(r);
                    self.item_idx += 1;
                }
                if self.item_idx == self.items.len() {
                    self.item_idx = 0;
                    self.row_idx += 1;
                }
            }
            if self.row_idx < batch.len() {
                self.input = Some(batch); // morsel boundary mid-batch
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

/// The anchor scan of one parallel morsel: rows `range` of the row-major
/// `driving × items` product — the order [`ItemScan`] emits them in — as
/// one batch (a morsel is at most the batch cap; they are the same knob).
struct MorselScan<'d> {
    schema: Arc<Schema>,
    driving: &'d Table,
    items: Arc<[Value]>,
    range: std::ops::Range<usize>,
}

impl Operator for MorselScan<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        if self.range.is_empty() {
            return Ok(None);
        }
        let per_row = self.items.len();
        let mut out = RowBatch::with_capacity(self.range.len());
        for idx in std::mem::take(&mut self.range) {
            let mut r = self.driving.rows()[idx / per_row].cloned_with_extra(1);
            r.push(self.items[idx % per_row].clone());
            out.push(r);
        }
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Expand
// ---------------------------------------------------------------------------

struct ExpandOp<'a> {
    ctx: &'a EvalContext<'a>,
    schema: Arc<Schema>,
    in_schema: Arc<Schema>,
    rows: PerRow<'a>,
    from_idx: usize,
    rel_bound: Option<usize>,
    to_bound: Option<usize>,
    dir: Direction,
    /// `Some(vec![])` = any type; `Some(list)` = one of; `None` = no
    /// admissible type exists (match nothing).
    type_syms: Option<Vec<Symbol>>,
    lo: u64,
    hi: u64,
    single: bool,
    reversed: bool,
    exclude_idx: Vec<usize>,
    /// Per-hop property conditions, keys pre-resolved at build time;
    /// expected values depend only on the driving row, so they are
    /// evaluated once per row.
    props: Vec<(Option<Symbol>, Expr)>,
}

impl ExpandOp<'_> {
    /// Whether `r` may be the next hop from `row`.
    fn hop_ok(&self, row: &Record, expected: &[(Symbol, Value)], r: RelId) -> bool {
        let g = self.ctx.graph;
        type_ok(g, &self.type_syms, r)
            && !rel_excluded(self.ctx, &self.exclude_idx, row, r)
            && props_ok(g, expected, r)
    }

    fn effective_hi(&self) -> u64 {
        if self.hi != u64::MAX {
            return self.hi;
        }
        match self.ctx.config.morphism {
            Morphism::Homomorphism => self.ctx.config.var_length_cap,
            _ => self.ctx.graph.rel_count() as u64,
        }
    }

    /// Computes all expansions for one input row.
    fn expand_row(&self, row: &Record) -> Result<Vec<Record>, EvalError> {
        let mut out = Vec::new();
        let from = match row.get(self.from_idx) {
            Value::Node(n) => *n,
            Value::Null => return Ok(out),
            other => {
                return err(format!(
                    "Expand source must be a node, got {}",
                    other.type_name()
                ))
            }
        };
        // Type/property conditions apply per traversed hop; when the type
        // or a property key was never interned no hop can satisfy them —
        // but a zero-hop (`*0..`) acceptance is still valid, its hop
        // conditions being vacuous.
        let mut hops_possible = self.type_syms.is_some();
        // Evaluate expected per-hop property values once per row (the
        // keys were resolved once per operator at build time).
        let mut expected: Vec<(Symbol, Value)> = Vec::with_capacity(self.props.len());
        for (sym, e) in &self.props {
            let Some(sym) = sym else {
                hops_possible = false;
                continue;
            };
            let b = Bindings::new(&self.in_schema, row);
            expected.push((*sym, eval_expr(self.ctx, &b, e)?));
        }

        if self.single {
            if !hops_possible {
                return Ok(out);
            }
            for (r, next) in self.ctx.graph.expand(from, self.dir) {
                if !self.hop_ok(row, &expected, r) {
                    continue;
                }
                if let Some(ri) = self.rel_bound {
                    if !row.get(ri).equivalent(&Value::Rel(r)) {
                        continue;
                    }
                }
                if let Some(ti) = self.to_bound {
                    if !row.get(ti).equivalent(&Value::Node(next)) {
                        continue;
                    }
                }
                let mut rec = row.cloned_with_extra(2);
                if self.rel_bound.is_none() {
                    rec.push(Value::Rel(r));
                }
                if self.to_bound.is_none() {
                    rec.push(Value::Node(next));
                }
                out.push(rec);
            }
        } else {
            let hi = if hops_possible {
                self.effective_hi()
            } else {
                0
            };
            let mut stack_rels: Vec<RelId> = Vec::new();
            self.var_dfs(row, &expected, from, 0, hi, &mut stack_rels, &mut out)?;
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn var_dfs(
        &self,
        row: &Record,
        expected: &[(Symbol, Value)],
        at: NodeId,
        k: u64,
        hi: u64,
        rels: &mut Vec<RelId>,
        out: &mut Vec<Record>,
    ) -> Result<(), EvalError> {
        if k >= self.lo {
            // The DFS collects relationships in traversal order; a
            // reversed step must bind them in pattern order (Section 4.2
            // item (a')), which is the traversal reversed.
            let list = if self.reversed {
                Value::List(rels.iter().rev().map(|&r| Value::Rel(r)).collect())
            } else {
                Value::List(rels.iter().map(|&r| Value::Rel(r)).collect())
            };
            let mut emit = true;
            if let Some(ri) = self.rel_bound {
                emit &= row.get(ri).equivalent(&list);
            }
            if let Some(ti) = self.to_bound {
                emit &= row.get(ti).equivalent(&Value::Node(at));
            }
            if emit {
                let mut rec = row.cloned_with_extra(2);
                if self.rel_bound.is_none() {
                    rec.push(list);
                }
                if self.to_bound.is_none() {
                    rec.push(Value::Node(at));
                }
                out.push(rec);
            }
        }
        if k >= hi {
            return Ok(());
        }
        let distinct = self.ctx.config.morphism.rels_distinct();
        for (r, next) in self.ctx.graph.expand(at, self.dir) {
            if (distinct && rels.contains(&r)) || !self.hop_ok(row, expected, r) {
                continue;
            }
            rels.push(r);
            self.var_dfs(row, expected, next, k + 1, hi, rels, out)?;
            rels.pop();
        }
        Ok(())
    }
}

impl Operator for ExpandOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let mut out = RowBatch::with_capacity(self.rows.cap.min(64));
        while self.rows.advance(&mut out)? {
            let exp = self.expand_row(self.rows.current())?;
            self.rows.expanded(exp.into_iter());
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

// ---------------------------------------------------------------------------
// Multiway intersect (worst-case-optimal join)
// ---------------------------------------------------------------------------

/// One compiled guard of a [`MultiwayIntersectOp`]: the bound node column
/// the target must be adjacent to, the direction the pattern traverses
/// that edge, and the type/property conditions its relationship must
/// satisfy.
struct IntersectGuardState {
    from_idx: usize,
    dir: Direction,
    /// `Some(vec![])` = any type; `Some(list)` = one of; `None` = no
    /// admissible type exists (match nothing).
    type_syms: Option<Vec<Symbol>>,
    /// Relationship property conditions, keys pre-resolved at build time.
    props: Vec<(Option<Symbol>, Expr)>,
}

/// One guard's position in the sorted adjacency of its (already bound)
/// endpoint. `Both` walks the out and incoming lists as a merged cursor;
/// an incoming entry whose neighbour equals `from` is a self-loop already
/// present in the out list and is skipped, so the union enumerates each
/// `(node, rel)` pair once — exactly what `expand(_, Both)` yields.
struct GuardCursor<'s> {
    out: &'s [Neighbor],
    inc: &'s [Neighbor],
    opos: usize,
    ipos: usize,
    from: NodeId,
    both: bool,
}

impl<'s> GuardCursor<'s> {
    fn new(adj: &'s SortedAdjacency, from: NodeId, dir: Direction) -> Self {
        let (out, inc) = match dir {
            Direction::Outgoing => (adj.out(from), &[][..]),
            Direction::Incoming => (&[][..], adj.inc(from)),
            Direction::Both => (adj.out(from), adj.inc(from)),
        };
        let mut c = GuardCursor {
            out,
            inc,
            opos: 0,
            ipos: 0,
            from,
            both: matches!(dir, Direction::Both),
        };
        c.skip_loops();
        c
    }

    /// Incoming entries at `from` itself are self-loops; in `Both` mode
    /// the out list already carries them.
    fn skip_loops(&mut self) {
        if self.both {
            while self.inc.get(self.ipos).is_some_and(|e| e.node == self.from) {
                self.ipos += 1;
            }
        }
    }

    /// The smallest neighbour node at or beyond the cursor.
    fn current(&self) -> Option<NodeId> {
        match (self.out.get(self.opos), self.inc.get(self.ipos)) {
            (Some(a), Some(b)) => Some(a.node.min(b.node)),
            (Some(a), None) => Some(a.node),
            (None, Some(b)) => Some(b.node),
            (None, None) => None,
        }
    }

    /// Gallops both lists to the first entry with node ≥ `target` and
    /// returns the node found there (`None` when exhausted).
    fn seek(&mut self, target: NodeId, probes: &mut u64) -> Option<NodeId> {
        self.opos = gallop(self.out, self.opos, target, probes);
        self.ipos = gallop(self.inc, self.ipos, target, probes);
        self.skip_loops();
        self.current()
    }

    /// Appends the relationship ids of every entry at exactly `v`. The
    /// cursor must have been seeked to `v`.
    fn rels_at(&self, v: NodeId, out: &mut Vec<RelId>) {
        let mut i = self.opos;
        while let Some(e) = self.out.get(i) {
            if e.node != v {
                break;
            }
            out.push(e.rel);
            i += 1;
        }
        let mut i = self.ipos;
        while let Some(e) = self.inc.get(i) {
            if e.node != v {
                break;
            }
            out.push(e.rel);
            i += 1;
        }
    }

    /// Advances both lists past every entry at `v`.
    fn advance_past(&mut self, v: NodeId) {
        while self.out.get(self.opos).is_some_and(|e| e.node == v) {
            self.opos += 1;
        }
        while self.inc.get(self.ipos).is_some_and(|e| e.node == v) {
            self.ipos += 1;
        }
        self.skip_loops();
    }
}

/// The worst-case-optimal join operator: binds the target variable by
/// *intersecting* the sorted adjacency lists of every already-bound
/// pattern neighbour (leapfrog-style, one galloping cursor per guard),
/// instead of expanding one edge and filtering the rest. For each node in
/// the intersection it enumerates the admissible relationships of every
/// guard and emits one row per combination (Cypher's bag semantics:
/// parallel edges yield one match each), pairwise-distinct when the
/// morphism mode demands relationship-uniqueness.
///
/// Determinism: candidates are produced in ascending node id order and
/// relationship combinations in ascending lexicographic order, a pure
/// function of the input row — morsel-order merging therefore reproduces
/// the sequential row sequence at any thread count.
struct MultiwayIntersectOp<'a> {
    ctx: &'a EvalContext<'a>,
    schema: Arc<Schema>,
    in_schema: Arc<Schema>,
    rows: PerRow<'a>,
    guards: Vec<IntersectGuardState>,
    /// `None` when some label was never interned (matches nothing).
    label_syms: Option<Vec<Symbol>>,
    exclude_idx: Vec<usize>,
    adj: Arc<SortedAdjacency>,
    metrics: Option<&'a ExecMetrics>,
    /// Kernel counters, flushed to `metrics` once at end of stream.
    probes: u64,
    isect: u64,
    rows_out: u64,
    flushed: bool,
}

impl MultiwayIntersectOp<'_> {
    fn labels_ok(&self, n: NodeId) -> bool {
        match &self.label_syms {
            None => false,
            Some(syms) => syms.iter().all(|&l| self.ctx.graph.has_label(n, l)),
        }
    }

    /// Computes all bindings of the target variable for one input row.
    fn intersect_row(
        &self,
        row: &Record,
        probes: &mut u64,
        isect: &mut u64,
    ) -> Result<Vec<Record>, EvalError> {
        let mut out = Vec::new();
        // Resolve every guard's bound endpoint and evaluate its expected
        // relationship property values (once per row, like `ExpandOp`; a
        // never-interned key or type makes the guard unsatisfiable but
        // the remaining expressions are still evaluated so errors
        // surface exactly as the expand-based plan raises them).
        let mut froms = Vec::with_capacity(self.guards.len());
        let mut expected: Vec<Vec<(Symbol, Value)>> = Vec::with_capacity(self.guards.len());
        let mut possible = true;
        for g in &self.guards {
            let from = match row.get(g.from_idx) {
                Value::Node(n) => *n,
                Value::Null => return Ok(out),
                other => {
                    return err(format!(
                        "Expand source must be a node, got {}",
                        other.type_name()
                    ))
                }
            };
            froms.push(from);
            possible &= g.type_syms.is_some();
            let mut exp = Vec::with_capacity(g.props.len());
            for (sym, e) in &g.props {
                let Some(sym) = sym else {
                    possible = false;
                    continue;
                };
                let b = Bindings::new(&self.in_schema, row);
                exp.push((*sym, eval_expr(self.ctx, &b, e)?));
            }
            expected.push(exp);
        }
        if !possible {
            return Ok(out);
        }
        let mut cursors: Vec<GuardCursor<'_>> = self
            .guards
            .iter()
            .zip(&froms)
            .map(|(g, &f)| GuardCursor::new(&self.adj, f, g.dir))
            .collect();
        // Leapfrog: gallop every cursor to the frontier; when all land on
        // the same node it is adjacent to every guard.
        let mut target = match cursors[0].current() {
            Some(n) => n,
            None => return Ok(out),
        };
        let mut rel_lists: Vec<Vec<RelId>> = vec![Vec::new(); self.guards.len()];
        'outer: loop {
            let mut all_equal = true;
            for c in cursors.iter_mut() {
                match c.seek(target, probes) {
                    None => break 'outer,
                    Some(n) if n > target => {
                        target = n;
                        all_equal = false;
                    }
                    Some(_) => {}
                }
            }
            if all_equal {
                *isect += 1;
                if self.labels_ok(target) {
                    let mut any_empty = false;
                    for ((list, c), (g, exp)) in rel_lists
                        .iter_mut()
                        .zip(&cursors)
                        .zip(self.guards.iter().zip(&expected))
                    {
                        list.clear();
                        c.rels_at(target, list);
                        let graph = self.ctx.graph;
                        list.retain(|&r| {
                            type_ok(graph, &g.type_syms, r)
                                && !rel_excluded(self.ctx, &self.exclude_idx, row, r)
                                && props_ok(graph, exp, r)
                        });
                        // Out- and inc-runs were appended back to back;
                        // restore ascending rel order for determinism.
                        list.sort_unstable();
                        any_empty |= list.is_empty();
                    }
                    if !any_empty {
                        let mut chosen = Vec::with_capacity(self.guards.len());
                        self.emit_combos(row, target, &rel_lists, 0, &mut chosen, &mut out);
                    }
                }
                for c in cursors.iter_mut() {
                    c.advance_past(target);
                }
                match cursors[0].current() {
                    Some(n) => target = n,
                    None => break,
                }
            }
        }
        Ok(out)
    }

    /// Emits one output row per combination of admissible relationships,
    /// ascending-lexicographic, honouring relationship-uniqueness among
    /// the combination itself (`exclude_idx` covered the columns bound
    /// before this operator).
    fn emit_combos(
        &self,
        row: &Record,
        v: NodeId,
        lists: &[Vec<RelId>],
        depth: usize,
        chosen: &mut Vec<RelId>,
        out: &mut Vec<Record>,
    ) {
        if depth == lists.len() {
            let mut rec = row.cloned_with_extra(chosen.len() + 1);
            for &r in chosen.iter() {
                rec.push(Value::Rel(r));
            }
            rec.push(Value::Node(v));
            out.push(rec);
            return;
        }
        let distinct = self.ctx.config.morphism.rels_distinct();
        for &r in &lists[depth] {
            if distinct && chosen.contains(&r) {
                continue;
            }
            chosen.push(r);
            self.emit_combos(row, v, lists, depth + 1, chosen, out);
            chosen.pop();
        }
    }

    fn flush_metrics(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        if let Some(m) = self.metrics {
            m.intersect_probes.add(self.probes);
            m.intersect_nodes.add(self.isect);
            m.intersect_rows.add(self.rows_out);
        }
    }
}

impl Operator for MultiwayIntersectOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let mut out = RowBatch::with_capacity(self.rows.cap.min(64));
        while self.rows.advance(&mut out)? {
            let (mut probes, mut isect) = (0, 0);
            let exp = self.intersect_row(self.rows.current(), &mut probes, &mut isect)?;
            self.probes += probes;
            self.isect += isect;
            self.rows_out += exp.len() as u64;
            self.rows.expanded(exp.into_iter());
        }
        if out.is_empty() {
            self.flush_metrics();
            return Ok(None);
        }
        Ok(Some(out))
    }

    fn intersect_stats(&self) -> Option<(u64, u64)> {
        Some((self.probes, self.isect))
    }
}

// ---------------------------------------------------------------------------
// Filters, path materialization and projection
// ---------------------------------------------------------------------------

/// The operator of every step that maps a batch to a batch — the
/// filters, `ProjectPath` and `Project` — skipping batches left empty.
struct Stage<'a, F> {
    schema: Arc<Schema>,
    child: Box<dyn Operator + 'a>,
    f: F,
}

impl<F: FnMut(RowBatch) -> Result<RowBatch, EvalError>> Operator for Stage<'_, F> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        while let Some(batch) = self.child.next_batch()? {
            let out = (self.f)(batch)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

fn stage<'a>(
    schema: Arc<Schema>,
    child: Box<dyn Operator + 'a>,
    f: impl FnMut(RowBatch) -> Result<RowBatch, EvalError> + 'a,
) -> Box<dyn Operator + 'a> {
    Box::new(Stage { schema, child, f })
}

/// A [`Stage`] keeping the rows `keep` accepts.
fn filter<'a>(
    schema: Arc<Schema>,
    child: Box<dyn Operator + 'a>,
    mut keep: impl FnMut(&Record) -> Result<bool, EvalError> + 'a,
) -> Box<dyn Operator + 'a> {
    stage(schema, child, move |batch| {
        let mut out = RowBatch::with_capacity(batch.len());
        for row in batch.into_rows() {
            if keep(&row)? {
                out.push(row);
            }
        }
        Ok(out)
    })
}

/// Whether the entity in column `idx` carries every pattern property.
/// `props` holds `(symbol, expected-value expr, its value once known)`;
/// a `None` symbol is a key that was never interned — no entity can
/// carry it. A literal or parameter does not depend on the row: it is
/// evaluated on the first row that reaches the filter and reused.
fn props_keep(
    ctx: &EvalContext<'_>,
    schema: &Schema,
    idx: usize,
    props: &mut [(Option<Symbol>, Expr, Option<Value>)],
    row: &Record,
) -> Result<bool, EvalError> {
    let g = ctx.graph;
    for (sym, e, known) in props {
        let fresh;
        let want = match known {
            Some(v) => &*v,
            None => {
                let v = eval_expr(ctx, &Bindings::new(schema, row), e)?;
                if matches!(e, Expr::Lit(_) | Expr::Param(_)) {
                    &*known.insert(v)
                } else {
                    fresh = v;
                    &fresh
                }
            }
        };
        let got = match row.get(idx) {
            Value::Node(n) => sym.and_then(|s| g.node_prop(*n, s)),
            Value::Rel(r) => sym.and_then(|s| g.rel_prop(*r, s)),
            Value::Null => return Ok(false),
            other => return err(format!("property filter on {}", other.type_name())),
        };
        match got {
            Some(v) if v.equals(want).is_true() => {}
            _ => return Ok(false),
        }
    }
    Ok(true)
}

/// Appends the named path walked through `elements` — `(is_node,
/// is_list, column)` triples in path order — to `row`.
fn bind_path(
    ctx: &EvalContext<'_>,
    elements: &[(bool, bool, usize)],
    mut row: Record,
) -> Result<Record, EvalError> {
    let g = ctx.graph;
    let mut path: Option<Path> = None;
    let mut current: Option<NodeId> = None;
    let extend = |path: &mut Option<Path>, current: &mut Option<NodeId>, r: RelId| {
        let cur = current.expect("path starts with a node");
        let next = g.other_end(r, cur).expect("live rel endpoint");
        path.as_mut().expect("path initialized").push(r, next);
        *current = Some(next);
    };
    for &(is_node, is_list, idx) in elements {
        if is_node {
            if path.is_none() {
                let Value::Node(n) = row.get(idx) else {
                    return err("path element is not a node");
                };
                path = Some(Path::single(*n));
                current = Some(*n);
            }
            // Interior node columns are consistency-checked by the
            // matcher; the walk itself determines them.
        } else if is_list {
            let Value::List(items) = row.get(idx).clone() else {
                return err("variable-length path element is not a list");
            };
            for v in items {
                let Value::Rel(r) = v else {
                    return err("path relationship list holds a non-relationship");
                };
                extend(&mut path, &mut current, r);
            }
        } else {
            let Value::Rel(r) = row.get(idx) else {
                return err("path element is not a relationship");
            };
            extend(&mut path, &mut current, *r);
        }
    }
    row.push(Value::Path(path.expect("non-empty path pattern")));
    Ok(row)
}

// ---------------------------------------------------------------------------
// UNWIND
// ---------------------------------------------------------------------------

/// One driving row's `UNWIND` output, made lazily: the row extended by
/// each element in turn, so a long list is never a table.
#[derive(Default)]
struct Unwound<'a> {
    row: Record,
    items: Cow<'a, [Value]>,
    next: usize,
}

impl Iterator for Unwound<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let item = self.items.get(self.next)?.clone();
        self.next += 1;
        let mut r = self.row.cloned_with_extra(1);
        r.push(item);
        Some(r)
    }
}

/// `UNWIND`: a list yields one row per element (none for the empty
/// list), any other value — `null` included — a single row (Figure 7).
struct UnwindOp<'a> {
    ctx: &'a EvalContext<'a>,
    schema: Arc<Schema>,
    in_schema: Arc<Schema>,
    rows: PerRow<'a, Unwound<'a>>,
    expr: Expr,
}

impl Operator for UnwindOp<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let ctx = self.ctx;
        let mut out = RowBatch::with_capacity(self.rows.cap.min(64));
        while self.rows.advance(&mut out)? {
            let row = self.rows.current().clone();
            // A parameter's list is read in place rather than copied.
            let param = match &self.expr {
                Expr::Param(p) => ctx.params.get(p),
                _ => None,
            };
            let items = match param {
                Some(Value::List(items)) => Cow::Borrowed(items.as_slice()),
                _ => match eval_expr(ctx, &Bindings::new(&self.in_schema, &row), &self.expr)? {
                    Value::List(items) => Cow::Owned(items),
                    other => Cow::Owned(vec![other]),
                },
            };
            self.rows.expanded(Unwound {
                row,
                items,
                next: 0,
            });
        }
        Ok((!out.is_empty()).then_some(out))
    }
}
