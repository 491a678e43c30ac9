//! Batch-at-a-time (morsel-driven) physical operators, run a column at a
//! time.
//!
//! The paper (Section 2): "The final query compilation uses either a
//! simple tuple-at-a-time iterator-based execution model, or compiles the
//! query to Java bytecode". The original executor here implemented the
//! tuple-at-a-time model; this module is its batch refactor: every
//! operator exposes `next_batch()`, pulling a [`RowBatch`] of up to
//! `morsel_size` rows at a time from its child. Batching amortizes the
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
//! **The currency is columns.** A batch holds one `Vec<Value>` per schema
//! field, and every step works on a whole column: a scan pushes the label
//! index's id slice straight into a new column; `Expand`, variable-length
//! expand, `MultiwayIntersect` and `UNWIND` record, per output row, the
//! input row it extends (a parent-index column, the one-level factorised
//! representation of Kimelfeld, Martens and Niewerth) and gather the input
//! columns by it once per batch (`Gather`); a filter computes a keep-mask
//! and compacts every column in place; a projection evaluates each item
//! as a column. A `Record` is built only where a row leaves the
//! pipeline: into a collected table, a group's representative row or a
//! top-k entry.
//!
//! **Errors are the reference semantics' errors:** a failed run is
//! answered by re-running step prefixes to the first failing step (`drive`).
//!
//! `Expand` still exploits the native adjacency of [`cypher_graph`]: "it
//! utilizes the fact that the data representation contains direct
//! references from each node via its edges to the related nodes".

use crate::exec::EngineConfig;
use crate::plan::{PathElem, PlanStep};
use cypher_ast::expr::Expr;
use cypher_ast::pattern::Dir;
use cypher_core::error::{err, EvalError};
use cypher_core::expr::{eval_expr, truth_of, ColumnBindings};
use cypher_core::matching::dir_of;
use cypher_core::morphism::Morphism;
use cypher_core::project::ProjectionPlan;
pub use cypher_core::table::RowBatch;
use cypher_core::table::{Schema, Table};
use cypher_core::EvalContext;
use cypher_graph::{
    gallop, Direction, Neighbor, NodeId, Path, PropertyGraph, RelId, Symbol, Tri, Value,
};
use cypher_metrics::Counter;
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The default number of rows per batch (morsel).
pub const DEFAULT_MORSEL_SIZE: usize = 1024;

/// An output batch under construction by an operator that extends input
/// rows (a scan, an expand, an `UNWIND`): each output row names the input
/// row it extends (its *parent*), the operator pushes its new values onto
/// the trailing columns, and [`Gather::settle`] gathers the input columns
/// by parent index once per input batch.
struct Gather {
    /// The input's `in_width` columns, then the new ones.
    cols: Vec<Vec<Value>>,
    in_width: usize,
    /// The parents of the rows added since the last [`Gather::settle`]
    /// (none kept when the input has no columns to gather).
    parents: Vec<usize>,
    len: usize,
}

impl Gather {
    fn new(in_width: usize, width: usize, capacity: usize) -> Gather {
        Gather {
            cols: (0..in_width + width)
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            in_width,
            parents: Vec::with_capacity(if in_width > 0 { capacity } else { 0 }),
            len: 0,
        }
    }

    /// Adds `n` rows extending row `parent` of the current input batch.
    fn extend(&mut self, parent: usize, n: usize) {
        if self.in_width > 0 {
            self.parents.extend(std::iter::repeat_n(parent, n));
        }
        self.len += n;
    }

    /// Gathers the input columns of the rows added since the last call
    /// from `input`, the batch their parents index.
    fn settle(&mut self, input: &RowBatch) {
        for (out, col) in self.cols.iter_mut().zip(input.columns()) {
            out.extend(self.parents.iter().map(|&p| col[p].clone()));
        }
        self.parents.clear();
    }

    fn finish(self) -> Option<RowBatch> {
        (self.len > 0).then(|| RowBatch::new(self.len, self.cols))
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
    /// definition folding must agree with, and how [`drive`] raises a
    /// failure of the sink's.
    fn materialized(&self, ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError>;
}

/// The sink that keeps every row: the pipeline's raw output table.
pub(crate) struct Collect;

impl Sink for Collect {
    type Partial = Table;

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
        for r in batch.into_records() {
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
/// `sink`: the only way a plan is run. The driving table enters as one
/// column batch, and every step runs a column at a time. The dispatch
/// decision is made once: a plan anchored on a source whose output
/// (`driving rows × scanned items`) exceeds
/// [`EngineConfig::parallel_gate`] is cut into morsels claimed by
/// `cfg.num_threads` workers; anything else is one morsel on the calling
/// thread. `probe`, when given, wraps every operator and the sink in
/// measurement and receives the totals.
///
/// **Determinism:** morsel `k` covers rows `[k·m, (k+1)·m)` of the
/// source's row-major product (driving row outer, scanned item inner) —
/// the order the sequential pipeline emits — every operator is a pure
/// function of its input row sequence, and every sink merges its
/// partials in morsel order. The result is therefore the same for every
/// `num_threads` and `morsel_size`, not merely the same bag.
///
/// **One failure rule:** batches stream, so a later step (or the sink)
/// can fail before an earlier step reaches its failing row. A failed
/// run's error is discarded, and sequential re-runs of step prefixes into
/// [`Discard`] binary-search for the shortest failing one (prefixes fail
/// monotonically). Its error is the answer: the earlier steps ran clean
/// over the rows the clause-at-a-time semantics feed its last step, which
/// raises its first failing row (row-major, see `BoundProjection`). If
/// every step runs clean, [`Collect`] + [`Sink::materialized`] raise the
/// sink's error.
pub(crate) fn drive<'a, S: Sink>(
    ctx: &'a EvalContext<'a>,
    steps: &[PlanStep],
    input: Table,
    cfg: &'a EngineConfig,
    sink: &S,
    probe: Option<&mut PlanProfile>,
) -> Result<Table, EvalError> {
    // Resolve every source once; all morsels and the re-runs share the
    // lists (a second scan inside the pipeline — a disconnected pattern —
    // is not re-collected per morsel).
    let prepared = steps.iter().map(|s| source_items(ctx, s));
    let prepared = prepared.collect::<Result<Vec<_>, _>>()?;
    let anchor = prepared.first().and_then(Option::as_ref);
    let run = Run {
        ctx,
        steps,
        prepared: &prepared,
        cfg,
        schema: match anchor {
            Some((var, _)) => input.schema().with_field(var.clone()),
            None => input.schema().clone(),
        },
    };
    // Borrowed by every run, its rows cloned a batch at a time.
    let driving = RowBatch::from_table(input);
    let total = anchor.map_or(0, |(_, items)| driving.len().saturating_mul(items.len()));
    let gate = cfg.parallel_gate();
    let first = if gate.is_some_and(|gate| total > gate) {
        run.morsels(&driving, total, sink, probe)
    } else {
        run.whole(&driving, sink, probe)
    };
    first.or_else(|_| run.canonical(&driving, sink))
}

/// The sink that keeps nothing: a step prefix run into it only shows
/// whether the prefix fails.
struct Discard;

impl Sink for Discard {
    type Partial = ();

    fn partial(&self, _schema: &Arc<Schema>) {}

    fn feed(
        &self,
        _ctx: &EvalContext<'_>,
        _schema: &Schema,
        _part: &mut (),
        _batch: RowBatch,
    ) -> Result<(), EvalError> {
        Ok(())
    }

    fn finish(
        &self,
        _ctx: &EvalContext<'_>,
        schema: &Arc<Schema>,
        _parts: impl Iterator<Item = ()>,
    ) -> Result<Table, EvalError> {
        Ok(Table::empty(schema.clone()))
    }

    fn materialized(&self, _ctx: &EvalContext<'_>, raw: Table) -> Result<Table, EvalError> {
        Ok(raw)
    }
}

/// What every run of one plan — whole, per morsel or a prefix — shares.
struct Run<'p> {
    ctx: &'p EvalContext<'p>,
    steps: &'p [PlanStep],
    prepared: &'p [PreparedSource<'p>],
    cfg: &'p EngineConfig,
    /// The schema of the anchor scan's rows.
    schema: Arc<Schema>,
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

    /// The anchor scan over rows `range` (all when `None`) of the product
    /// of the driving rows and the first step's items (or of the driving
    /// rows alone, when the first step is no source), with the number of
    /// steps it stands for.
    fn anchor<'x>(
        &'x self,
        driving: &'x RowBatch,
        range: Option<Range<usize>>,
    ) -> (Box<dyn Operator + 'x>, usize) {
        let items = self.prepared.first().and_then(Option::as_ref);
        let items = items.map(|(_, items)| items);
        let range = range.unwrap_or(0..driving.len() * items.map_or(1, Items::len));
        let scan = Scan {
            schema: self.schema.clone(),
            child: None,
            input: Cow::Borrowed(driving),
            items,
            next: range.start,
            end: range.end,
            cap: self.cap(),
        };
        (Box::new(scan), usize::from(items.is_some()))
    }

    /// The whole input as one morsel on the calling thread.
    fn whole<S: Sink>(
        &self,
        driving: &RowBatch,
        sink: &S,
        probe: Option<&mut PlanProfile>,
    ) -> Result<Table, EvalError> {
        let (source, attached) = self.anchor(driving, None);
        let m = self.pump(source, attached, sink, probe.is_some())?;
        self.merge(m, std::iter::empty(), false, sink, probe)
    }

    /// The source's `total` output rows cut into morsels of `cap` rows,
    /// claimed by the worker pool.
    fn morsels<S: Sink>(
        &self,
        driving: &RowBatch,
        total: usize,
        sink: &S,
        probe: Option<&mut PlanProfile>,
    ) -> Result<Table, EvalError> {
        let cap = self.cap();
        let probing = probe.is_some();
        let mut done = parallel_morsels(self.cfg.num_threads, total.div_ceil(cap), |k| {
            let range = k * cap..((k + 1) * cap).min(total);
            let (source, attached) = self.anchor(driving, Some(range));
            self.pump(source, attached, sink, probing)
        })?
        .into_iter();
        let first = done.next().expect("a run has at least one morsel");
        self.merge(first, done, true, sink, probe)
    }

    /// The canonical answer to a failed run over `driving` (see
    /// [`drive`]): the error of the shortest failing step prefix, or,
    /// when every step runs clean, the sink's over the collected rows.
    fn canonical<S: Sink>(&self, driving: &RowBatch, sink: &S) -> Result<Table, EvalError> {
        // The first `clean` steps run clean and the first `failing` fail,
        // `steps + 1` standing for the sink.
        let (mut clean, mut failing, mut error) = (0, self.steps.len() + 1, None);
        while failing - clean > 1 {
            let mid = (clean + failing) / 2;
            let prefix = Run {
                steps: &self.steps[..mid],
                prepared: &self.prepared[..mid],
                schema: self.schema.clone(),
                ..*self
            };
            match prefix.whole(driving, &Discard, None) {
                Ok(_) => clean = mid,
                Err(e) => (failing, error) = (mid, Some(e)),
            }
        }
        match error {
            Some(e) => Err(e),
            None => sink.materialized(self.ctx, self.whole(driving, &Collect, None)?),
        }
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

/// What a source step scans: node ids — the label index's own slice, or
/// a list collected once per run — or relationship ids. A scan pushes
/// them straight into its new column.
enum Items<'g> {
    Nodes(Cow<'g, [NodeId]>),
    Rels(Vec<RelId>),
}

impl Items<'_> {
    fn len(&self) -> usize {
        match self {
            Items::Nodes(ids) => ids.len(),
            Items::Rels(ids) => ids.len(),
        }
    }

    /// Appends items `range` to `col`.
    fn push_range(&self, range: Range<usize>, col: &mut Vec<Value>) {
        match self {
            Items::Nodes(ids) => col.extend(ids[range].iter().map(|&n| Value::Node(n))),
            Items::Rels(ids) => col.extend(ids[range].iter().map(|&r| Value::Rel(r))),
        }
    }
}

/// A source step's bound column and scanned items, or `None` for
/// non-source steps.
type PreparedSource<'g> = Option<(String, Items<'g>)>;

/// The items a source step scans — the node or relationship bindings it
/// would push onto every driving row — or `None` when the step is not a
/// source.
fn source_items<'g>(
    ctx: &EvalContext<'g>,
    step: &PlanStep,
) -> Result<PreparedSource<'g>, EvalError> {
    let graph = ctx.graph;
    let (var, items) = match step {
        PlanStep::AllNodesScan { var } => (var, Items::Nodes(graph.nodes().collect())),
        PlanStep::NodeIndexScan { var, label } => {
            let nodes = match graph.interner().get(label) {
                Some(sym) => graph.nodes_with_label(sym),
                None => &[],
            };
            (var, Items::Nodes(Cow::Borrowed(nodes)))
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
            let interner = graph.interner();
            let nodes = if v.is_null() {
                Vec::new()
            } else {
                match (label, interner.get(key)) {
                    (_, None) => Vec::new(),
                    // Composite (label, key, value) seek.
                    (Some(l), Some(k)) => match interner.get(l) {
                        Some(l) => graph.nodes_with_label_prop(l, k, &v),
                        None => Vec::new(),
                    },
                    // Key-only seek.
                    (None, Some(k)) => graph.nodes_with_prop(k, &v),
                }
            };
            (var, Items::Nodes(Cow::Owned(nodes)))
        }
        PlanStep::RelScan { var } => (var, Items::Rels(graph.rels().collect())),
        _ => return Ok(None),
    };
    Ok(Some((var.clone(), items)))
}

fn col_idx(schema: &Schema, name: &str) -> Result<usize, EvalError> {
    schema
        .index_of(name)
        .ok_or_else(|| EvalError::new(format!("internal: unknown plan column {name:?}")))
}

fn attach<'a>(
    ctx: &'a EvalContext<'a>,
    step: &PlanStep,
    prep: &'a PreparedSource<'a>,
    child: Box<dyn Operator + 'a>,
    cap: usize,
    metrics: Option<&'a ExecMetrics>,
) -> Result<Box<dyn Operator + 'a>, EvalError> {
    let schema = child.schema().clone();
    if let Some((var, items)) = prep {
        return Ok(Box::new(Scan {
            schema: schema.with_field(var.clone()),
            child: Some(child),
            input: Cow::Owned(RowBatch::default()),
            items: Some(items),
            next: 0,
            end: 0,
            cap,
        }));
    }
    Ok(match step {
        PlanStep::Argument { var } => {
            // A pre-bound node position: `null` matches nothing and any
            // other non-node is an error, as in the reference semantics. A
            // batch of nodes only, the usual case, passes untouched.
            let (idx, var) = (col_idx(&schema, var)?, var.clone());
            stage(schema, child, move |mut batch| {
                let col = &batch.columns()[idx];
                if col.iter().all(|v| matches!(v, Value::Node(_))) {
                    return Ok(batch);
                }
                let keep = col.iter().map(|v| match v {
                    Value::Node(_) => Ok(true),
                    Value::Null => Ok(false),
                    other => err(format!(
                        "variable {var} is bound to {} but used as a node pattern",
                        other.type_name()
                    )),
                });
                let keep = keep.collect::<Result<Vec<_>, _>>()?;
                batch.retain(&keep);
                Ok(batch)
            })
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
            let expand = ExpandOp {
                ctx,
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
                nodes_distinct: ctx.config.morphism.nodes_distinct(),
                in_schema: schema,
            };
            Box::new(Fanout::new(out_schema, child, cap, expand))
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
            let intersect = MultiwayIntersectOp {
                ctx,
                in_schema: schema,
                guards: gstates,
                label_syms,
                exclude_idx,
                metrics,
                probes: 0,
                isect: 0,
                rows_out: 0,
            };
            Box::new(Fanout::new(out_schema, child, cap, intersect))
        }
        PlanStep::FilterLabels { var, labels } => {
            let idx = col_idx(&schema, var)?;
            // `None`: a label never interned, so nothing matches (the
            // child still drains, so upstream errors surface).
            let syms: Option<Vec<Symbol>> =
                labels.iter().map(|l| ctx.graph.interner().get(l)).collect();
            filter(schema, child, move |b, row| match (&syms, b.at(idx, row)) {
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
            filter(schema, child, move |b, row| {
                props_keep(ctx, &mut props, &b.row(&s, row), b.at(idx, row))
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
            filter(schema, child, move |b, row| {
                let (Value::Rel(r), Value::Node(a), Value::Node(c)) =
                    (b.at(rel, row), b.at(from, row), b.at(to, row))
                else {
                    return Ok(false);
                };
                if !type_ok(g, &types, *r) {
                    return Ok(false);
                }
                // Endpoint agreement per direction (item (e′) of §4.2).
                let (src, tgt) = (g.src(*r).expect("live rel"), g.tgt(*r).expect("live rel"));
                let ends = match dir {
                    Dir::Out => src == *a && tgt == *c,
                    Dir::In => src == *c && tgt == *a,
                    Dir::Both => (src == *a && tgt == *c) || (src == *c && tgt == *a),
                };
                // Relationship isomorphism between scanned rel columns.
                let reused = |i: &usize| matches!(b.at(*i, row), Value::Rel(r2) if r2 == r);
                Ok(ends && !(ctx.config.morphism.rels_distinct() && exclude.iter().any(reused)))
            })
        }
        PlanStep::FilterExpr { pred } => {
            let (s, pred) = (schema.clone(), pred.clone());
            filter(schema, child, move |b, row| {
                Ok(truth_of(ctx, &b.row(&s, row), &pred)? == Tri::True)
            })
        }
        PlanStep::DistinctNodes { paths } => {
            let paths = paths.iter().map(|p| path_columns(&schema, p));
            let paths = paths.collect::<Result<Vec<_>, _>>()?;
            let mut seen = Vec::new();
            filter(schema, child, move |b, row| {
                seen.clear();
                for elements in &paths {
                    walk_path(ctx, elements, b, row, |_, n| seen.push(n))?;
                }
                seen.sort_unstable();
                Ok(seen.windows(2).all(|w| w[0] != w[1]))
            })
        }
        PlanStep::PathBind { var, elements } => {
            let elements = path_columns(&schema, elements)?;
            stage(schema.with_field(var.clone()), child, move |mut batch| {
                let mut paths = Vec::with_capacity(batch.len());
                for row in 0..batch.len() {
                    let mut path: Option<Path> = None;
                    walk_path(ctx, &elements, &batch, row, |r, n| match (&mut path, r) {
                        (Some(path), Some(r)) => path.push(r, n),
                        _ => path = Some(Path::single(n)),
                    })?;
                    paths.push(Value::Path(path.expect("non-empty path pattern")));
                }
                batch.push_column(paths);
                Ok(batch)
            })
        }
        PlanStep::Project { ret, scope } => {
            let plan = ProjectionPlan::compile(ret, &Schema::new(scope.clone()))?;
            // Bound once per batch, as the final plain projection binds.
            stage(plan.out_schema().clone(), child, move |batch| {
                plan.bind(ctx, &schema)
                    .project_batch(ctx, Cow::Owned(batch))
            })
        }
        PlanStep::Unwind { expr, alias } => {
            let unwind = UnwindOp {
                ctx,
                in_schema: schema.clone(),
                expr: expr.clone(),
            };
            Box::new(Fanout::new(
                schema.with_field(alias.clone()),
                child,
                cap,
                unwind,
            ))
        }
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

/// Whether `r`'s type is admissible: `Some(vec![])` = any type;
/// `Some(list)` = one of; `None` = no admissible type exists.
fn type_ok(g: &PropertyGraph, syms: &Option<Vec<Symbol>>, r: RelId) -> bool {
    match syms {
        None => false,
        Some(list) => list.is_empty() || list.contains(&g.rel_type(r).expect("live rel")),
    }
}

/// Relationship isomorphism: whether `r` is already bound, in row `row`
/// of `input`, in one of the `exclude` columns (a relationship, or a
/// variable-length list of them).
fn rel_excluded(
    ctx: &EvalContext<'_>,
    exclude: &[usize],
    input: &RowBatch,
    row: usize,
    r: RelId,
) -> bool {
    ctx.config.morphism.rels_distinct()
        && exclude.iter().any(|&i| match input.at(i, row) {
            Value::Rel(r2) => *r2 == r,
            Value::List(items) => items
                .iter()
                .any(|v| matches!(v, Value::Rel(r2) if *r2 == r)),
            _ => false,
        })
}

/// The node a hop starts from, `None` for `null` (no hops).
fn hop_source(v: &Value) -> Result<Option<NodeId>, EvalError> {
    match v {
        Value::Node(n) => Ok(Some(*n)),
        Value::Null => Ok(None),
        other => err(format!(
            "Expand source must be a node, got {}",
            other.type_name()
        )),
    }
}

/// The expected values of per-hop property conditions, evaluated once per
/// row (keys were resolved once per operator), and whether every key was
/// interned: a key that never was makes no hop satisfy them.
fn expected_props(
    ctx: &EvalContext<'_>,
    props: &[(Option<Symbol>, Expr)],
    row: &ColumnBindings<'_>,
) -> Result<(Vec<(Symbol, Value)>, bool), EvalError> {
    let mut expected = Vec::with_capacity(props.len());
    for (sym, e) in props {
        if let Some(sym) = sym {
            expected.push((*sym, eval_expr(ctx, row, e)?));
        }
    }
    let known = expected.len() == props.len();
    Ok((expected, known))
}

/// Whether `r` carries every expected `(key, value)` (`=`, not
/// equivalence).
fn props_ok(g: &PropertyGraph, expected: &[(Symbol, Value)], r: RelId) -> bool {
    expected
        .iter()
        .all(|(k, want)| g.rel_prop(r, *k).is_some_and(|v| v.equals(want).is_true()))
}

// ---------------------------------------------------------------------------
// The scan
// ---------------------------------------------------------------------------

/// The one scan, behind the driving table and `AllNodesScan`,
/// `NodeIndexScan`, `PropertyIndexSeek` and `RelScan`: rows `next..end`
/// of the row-major product of the driving rows and the scanned `items`,
/// up to `cap` at a time. The driving rows are the driving table (no
/// `child`: the whole run, or one morsel's range of it) or each batch a
/// child emits (a source inside a pipeline); without `items` the driving
/// rows pass through. The items are *not* copied per operator: parallel
/// workers and re-built pipelines share one list.
struct Scan<'a> {
    schema: Arc<Schema>,
    child: Option<Box<dyn Operator + 'a>>,
    input: Cow<'a, RowBatch>,
    items: Option<&'a Items<'a>>,
    next: usize,
    end: usize,
    cap: usize,
}

impl Operator for Scan<'_> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let n = self.items.map_or(1, Items::len);
        while self.next >= self.end {
            // An empty item list still drains the child, so upstream
            // evaluation errors surface.
            let Some(child) = &mut self.child else {
                return Ok(None);
            };
            let Some(batch) = child.next_batch()? else {
                return Ok(None);
            };
            (self.next, self.end) = (0, batch.len() * n);
            self.input = Cow::Owned(batch);
        }
        let range = self.next..(self.next + self.cap).min(self.end);
        self.next = range.end;
        let Some(items) = self.items else {
            return Ok(Some(match &mut self.input {
                Cow::Owned(input) if range.len() == input.len() => std::mem::take(input),
                input => {
                    let cols = input.columns().iter().map(|c| c[range.clone()].to_vec());
                    RowBatch::new(range.len(), cols.collect())
                }
            }));
        };
        let in_width = self.schema.len() - 1;
        let mut out = Gather::new(in_width, 1, range.len());
        let mut p = range.start;
        while p < range.end {
            // The rest of driving row `p / n`'s run, within the range.
            let (row, i) = (p / n, p % n);
            let m = (n - i).min(range.end - p);
            items.push_range(i..i + m, &mut out.cols[in_width]);
            out.extend(row, m);
            p += m;
        }
        out.settle(&self.input);
        Ok(out.finish())
    }
}

// ---------------------------------------------------------------------------
// Operators that extend each input row by a run of output rows
// ---------------------------------------------------------------------------

/// What a [`Fanout`] runs: the step that maps one input row to a run of
/// output rows (`Expand`, `MultiwayIntersect`, `UNWIND`).
trait Expander<'a> {
    /// Fills `run`, an empty buffer, with the new values of `row`'s
    /// output rows, in order and row-major (or replaces it, an `UNWIND`
    /// by its list), and answers how many rows that is.
    fn expand(
        &mut self,
        input: &RowBatch,
        row: usize,
        run: &mut Cow<'a, [Value]>,
    ) -> Result<usize, EvalError>;

    /// See [`Operator::intersect_stats`].
    fn intersect_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Called at end of stream.
    fn finish(&mut self) {}
}

/// The operator of every step that maps each input row to a run of
/// output rows: it asks its [`Expander`] for one input row's run at a
/// time and cuts the runs into batches of `cap` rows, each output row
/// recorded by its parent so the input columns are gathered once per
/// input batch ([`Gather`]). A run longer than a batch continues in the
/// next one.
struct Fanout<'a, E> {
    schema: Arc<Schema>,
    child: Box<dyn Operator + 'a>,
    cap: usize,
    /// The input's columns, and the new columns per output row.
    in_width: usize,
    width: usize,
    /// The input batch and the index of its next row.
    input: RowBatch,
    next: usize,
    /// The input row whose run is pending, the run's new values, its
    /// rows and how many of them were emitted.
    current: usize,
    run: Cow<'a, [Value]>,
    rows: usize,
    taken: usize,
    /// The previous batch's length: the next one's capacity.
    hint: usize,
    expander: E,
}

impl<'a, E: Expander<'a>> Fanout<'a, E> {
    fn new(schema: Arc<Schema>, child: Box<dyn Operator + 'a>, cap: usize, expander: E) -> Self {
        let in_width = child.schema().len();
        Fanout {
            width: schema.len() - in_width,
            schema,
            child,
            cap,
            in_width,
            input: RowBatch::default(),
            next: 0,
            current: 0,
            run: Cow::Borrowed(&[]),
            rows: 0,
            taken: 0,
            hint: 0,
            expander,
        }
    }
}

impl<'a, E: Expander<'a>> Operator for Fanout<'a, E> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, EvalError> {
        let mut out = Gather::new(self.in_width, self.width, self.hint);
        while out.len < self.cap {
            if self.taken < self.rows {
                let n = (self.rows - self.taken).min(self.cap - out.len);
                let vals = self.taken * self.width..(self.taken + n) * self.width;
                let new = &mut out.cols[self.in_width..];
                if let Cow::Owned(run) = &mut self.run {
                    for (i, v) in run[vals].iter_mut().enumerate() {
                        new[i % self.width].push(std::mem::replace(v, Value::Null));
                    }
                } else {
                    for (i, v) in self.run[vals].iter().enumerate() {
                        new[i % self.width].push(v.clone());
                    }
                }
                out.extend(self.current, n);
                self.taken += n;
            } else if self.next < self.input.len() {
                (self.current, self.taken) = (self.next, 0);
                self.next += 1;
                match &mut self.run {
                    Cow::Owned(buf) => buf.clear(),
                    run => *run = Cow::Owned(Vec::new()),
                }
                let run = &mut self.run;
                self.rows = self.expander.expand(&self.input, self.current, run)?;
            } else {
                out.settle(&self.input);
                match self.child.next_batch()? {
                    Some(batch) => (self.input, self.next) = (batch, 0),
                    None => break,
                }
            }
        }
        out.settle(&self.input);
        self.hint = out.len;
        let out = out.finish();
        if out.is_none() {
            self.expander.finish();
        }
        Ok(out)
    }

    fn intersect_stats(&self) -> Option<(u64, u64)> {
        self.expander.intersect_stats()
    }
}

// ---------------------------------------------------------------------------
// Expand
// ---------------------------------------------------------------------------

struct ExpandOp<'a> {
    ctx: &'a EvalContext<'a>,
    in_schema: Arc<Schema>,
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
    /// Node isomorphism: a variable-length traversal never steps back
    /// onto one of its own nodes (the `DistinctNodes` filter closing the
    /// plan checks the rest of the clause).
    nodes_distinct: bool,
}

/// One input row of an expand: its batch and index.
type Row<'r> = (&'r RowBatch, usize);

impl ExpandOp<'_> {
    /// Whether `r` may be the next hop from `row`.
    fn hop_ok(&self, (input, row): Row<'_>, expected: &[(Symbol, Value)], r: RelId) -> bool {
        let g = self.ctx.graph;
        type_ok(g, &self.type_syms, r)
            && !rel_excluded(self.ctx, &self.exclude_idx, input, row, r)
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

    /// Appends the new values of every expansion of one input row to
    /// `out`, answering how many there are.
    fn expand_row(&self, at: Row<'_>, out: &mut Vec<Value>) -> Result<usize, EvalError> {
        let (input, row) = at;
        let Some(from) = hop_source(input.at(self.from_idx, row))? else {
            return Ok(0);
        };
        // Type/property conditions apply per traversed hop; when the type
        // or a property key was never interned no hop can satisfy them —
        // but a zero-hop (`*0..`) acceptance is still valid, its hop
        // conditions being vacuous.
        let (expected, keys_known) =
            expected_props(self.ctx, &self.props, &input.row(&self.in_schema, row))?;
        let hops_possible = keys_known && self.type_syms.is_some();

        if !self.single {
            let hi = if hops_possible {
                self.effective_hi()
            } else {
                0
            };
            let mut nodes: Vec<NodeId> = self.nodes_distinct.then_some(from).into_iter().collect();
            let (rels, nodes) = (&mut Vec::new(), &mut nodes);
            return Ok(self.var_dfs(at, &expected, from, 0, hi, rels, nodes, out));
        }
        if !hops_possible {
            return Ok(0);
        }
        let (g, expected) = (self.ctx.graph, &expected);
        let mut emit = |(r, next)| self.emit(at, Value::Rel(r), next, out);
        // Both ends bound, and `to`'s reversed lists shorter (a leaf's hop
        // into a hub): walk them filtered to `from`. A pair's entries sit in
        // the same order in both ends' lists, so rows keep the `from` order.
        if let Some(&Value::Node(to)) = self.to_bound.map(|i| input.at(i, row)) {
            let (n_out, n_inc) = (g.out_neighbors(from).len(), g.in_neighbors(from).len());
            let (to_out, to_inc) = (g.out_neighbors(to), g.in_neighbors(to));
            let (from_len, first, second) = match self.dir {
                Direction::Outgoing => (n_out, to_inc, &[][..]),
                Direction::Incoming => (n_inc, to_out, &[][..]),
                Direction::Both if from == to => (n_out + n_inc, to_inc, &[][..]),
                Direction::Both => (n_out + n_inc, to_inc, to_out),
            };
            if first.len() + second.len() < from_len {
                let hops = first.iter().chain(second);
                let hops = hops.filter(|e| e.node == from && self.hop_ok(at, expected, e.rel));
                return Ok(hops.map(|e| emit((e.rel, to))).sum());
            }
        }
        let hops = g.expand(from, self.dir);
        let hops = hops.filter(|&(r, _)| self.hop_ok(at, expected, r));
        Ok(hops.map(emit).sum())
    }

    /// Appends the new values of a match ending at `node` over `rel` (a
    /// relationship or, variable-length, their list) unless a bound column
    /// disagrees; answers the rows appended.
    fn emit(&self, (input, row): Row<'_>, rel: Value, node: NodeId, out: &mut Vec<Value>) -> usize {
        let node = Value::Node(node);
        let disagrees = |bound: Option<usize>, v: &Value| {
            bound.is_some_and(|i| !input.at(i, row).equivalent(v))
        };
        if disagrees(self.rel_bound, &rel) || disagrees(self.to_bound, &node) {
            return 0;
        }
        out.extend(self.rel_bound.is_none().then_some(rel));
        out.extend(self.to_bound.is_none().then_some(node));
        1
    }

    /// The traversals from `node`, `k` hops in over `rels`. Under node
    /// isomorphism `nodes` holds the nodes visited, start included, and no
    /// hop returns to one; otherwise it stays empty.
    #[allow(clippy::too_many_arguments)]
    fn var_dfs(
        &self,
        at: Row<'_>,
        expected: &[(Symbol, Value)],
        node: NodeId,
        k: u64,
        hi: u64,
        rels: &mut Vec<RelId>,
        nodes: &mut Vec<NodeId>,
        out: &mut Vec<Value>,
    ) -> usize {
        let mut rows = 0;
        if k >= self.lo {
            // The DFS collects relationships in traversal order; a
            // reversed step must bind them in pattern order (Section 4.2
            // item (a')), which is the traversal reversed.
            let list = if self.reversed {
                Value::List(rels.iter().rev().map(|&r| Value::Rel(r)).collect())
            } else {
                Value::List(rels.iter().map(|&r| Value::Rel(r)).collect())
            };
            rows += self.emit(at, list, node, out);
        }
        if k >= hi {
            return rows;
        }
        let distinct = self.ctx.config.morphism.rels_distinct();
        for (r, next) in self.ctx.graph.expand(node, self.dir) {
            let reused = distinct && rels.contains(&r);
            if reused || nodes.contains(&next) || !self.hop_ok(at, expected, r) {
                continue;
            }
            rels.push(r);
            if self.nodes_distinct {
                nodes.push(next);
            }
            rows += self.var_dfs(at, expected, next, k + 1, hi, rels, nodes, out);
            rels.pop();
            if self.nodes_distinct {
                nodes.pop();
            }
        }
        rows
    }
}

impl<'a> Expander<'a> for ExpandOp<'a> {
    fn expand(
        &mut self,
        input: &RowBatch,
        row: usize,
        run: &mut Cow<'a, [Value]>,
    ) -> Result<usize, EvalError> {
        self.expand_row((input, row), run.to_mut())
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

/// One guard's position in the sorted neighbour lists of its (already
/// bound) endpoint. `Both` walks the out and incoming lists as a merged
/// cursor; an incoming entry whose neighbour equals `from` is a self-loop
/// already present in the out list and is skipped, so the union
/// enumerates each `(node, rel)` pair once — exactly what
/// `expand(_, Both)` yields.
struct GuardCursor<'s> {
    out: &'s [Neighbor],
    inc: &'s [Neighbor],
    opos: usize,
    ipos: usize,
    from: NodeId,
    both: bool,
}

impl<'s> GuardCursor<'s> {
    fn new(graph: &'s PropertyGraph, from: NodeId, dir: Direction) -> Self {
        let (out, inc) = match dir {
            Direction::Outgoing => (graph.out_neighbors(from), &[][..]),
            Direction::Incoming => (&[][..], graph.in_neighbors(from)),
            Direction::Both => (graph.out_neighbors(from), graph.in_neighbors(from)),
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
            self.ipos = run_end(self.inc, self.ipos, self.from);
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
        let out_run = &self.out[self.opos..run_end(self.out, self.opos, v)];
        let inc_run = &self.inc[self.ipos..run_end(self.inc, self.ipos, v)];
        out.extend(out_run.iter().chain(inc_run).map(|e| e.rel));
    }

    /// Advances both lists past every entry at `v`.
    fn advance_past(&mut self, v: NodeId) {
        self.opos = run_end(self.out, self.opos, v);
        self.ipos = run_end(self.inc, self.ipos, v);
        self.skip_loops();
    }
}

/// The end of the run of entries at node `v` that starts at `pos`.
fn run_end(list: &[Neighbor], pos: usize, v: NodeId) -> usize {
    pos + list[pos..].iter().take_while(|e| e.node == v).count()
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
    in_schema: Arc<Schema>,
    guards: Vec<IntersectGuardState>,
    /// `None` when some label was never interned (matches nothing).
    label_syms: Option<Vec<Symbol>>,
    exclude_idx: Vec<usize>,
    metrics: Option<&'a ExecMetrics>,
    /// Kernel counters, flushed to `metrics` once at end of stream.
    probes: u64,
    isect: u64,
    rows_out: u64,
}

impl MultiwayIntersectOp<'_> {
    fn labels_ok(&self, n: NodeId) -> bool {
        match &self.label_syms {
            None => false,
            Some(syms) => syms.iter().all(|&l| self.ctx.graph.has_label(n, l)),
        }
    }

    /// Appends the new values of every binding of the target variable for
    /// one input row to `out`, answering how many there are.
    fn intersect_row(&mut self, at: Row<'_>, out: &mut Vec<Value>) -> Result<usize, EvalError> {
        let (input, row) = at;
        // Resolve every guard's bound endpoint and evaluate its expected
        // relationship property values (once per row, like `ExpandOp`; a
        // never-interned key or type makes the guard unsatisfiable but
        // the remaining expressions are still evaluated so errors
        // surface exactly as the expand-based plan raises them).
        let mut froms = Vec::with_capacity(self.guards.len());
        let mut expected: Vec<Vec<(Symbol, Value)>> = Vec::with_capacity(self.guards.len());
        let mut possible = true;
        for g in &self.guards {
            let Some(from) = hop_source(input.at(g.from_idx, row))? else {
                return Ok(0);
            };
            froms.push(from);
            let (exp, keys_known) =
                expected_props(self.ctx, &g.props, &input.row(&self.in_schema, row))?;
            possible &= keys_known && g.type_syms.is_some();
            expected.push(exp);
        }
        if !possible {
            return Ok(0);
        }
        let mut cursors: Vec<GuardCursor<'_>> = self
            .guards
            .iter()
            .zip(&froms)
            .map(|(g, &f)| GuardCursor::new(self.ctx.graph, f, g.dir))
            .collect();
        // Leapfrog: gallop every cursor to the frontier; when all land on
        // the same node it is adjacent to every guard.
        let mut target = match cursors[0].current() {
            Some(n) => n,
            None => return Ok(0),
        };
        let (mut rows, mut probes, mut isect) = (0, 0, 0);
        let mut rel_lists: Vec<Vec<RelId>> = vec![Vec::new(); self.guards.len()];
        'outer: loop {
            let mut all_equal = true;
            for c in cursors.iter_mut() {
                match c.seek(target, &mut probes) {
                    None => break 'outer,
                    Some(n) if n > target => {
                        target = n;
                        all_equal = false;
                    }
                    Some(_) => {}
                }
            }
            if all_equal {
                isect += 1;
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
                                && !rel_excluded(self.ctx, &self.exclude_idx, input, row, r)
                                && props_ok(graph, exp, r)
                        });
                        // Out- and inc-runs were appended back to back;
                        // restore ascending rel order for determinism.
                        list.sort_unstable();
                        any_empty |= list.is_empty();
                    }
                    if !any_empty {
                        let mut chosen = Vec::with_capacity(self.guards.len());
                        rows += self.emit_combos(target, &rel_lists, &mut chosen, out);
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
        self.probes += probes;
        self.isect += isect;
        self.rows_out += rows as u64;
        Ok(rows)
    }

    /// Appends one output row per combination of admissible relationships,
    /// ascending-lexicographic, honouring relationship-uniqueness among
    /// the combination itself (`exclude_idx` covered the columns bound
    /// before this operator); answers how many.
    fn emit_combos(
        &self,
        v: NodeId,
        lists: &[Vec<RelId>],
        chosen: &mut Vec<RelId>,
        out: &mut Vec<Value>,
    ) -> usize {
        let Some(list) = lists.get(chosen.len()) else {
            out.extend(chosen.iter().map(|&r| Value::Rel(r)));
            out.push(Value::Node(v));
            return 1;
        };
        let distinct = self.ctx.config.morphism.rels_distinct();
        let mut rows = 0;
        for &r in list {
            if distinct && chosen.contains(&r) {
                continue;
            }
            chosen.push(r);
            rows += self.emit_combos(v, lists, chosen, out);
            chosen.pop();
        }
        rows
    }
}

impl<'a> Expander<'a> for MultiwayIntersectOp<'a> {
    fn expand(
        &mut self,
        input: &RowBatch,
        row: usize,
        run: &mut Cow<'a, [Value]>,
    ) -> Result<usize, EvalError> {
        self.intersect_row((input, row), run.to_mut())
    }

    fn intersect_stats(&self) -> Option<(u64, u64)> {
        Some((self.probes, self.isect))
    }

    fn finish(&mut self) {
        if let Some(m) = self.metrics {
            m.intersect_probes.add(self.probes);
            m.intersect_nodes.add(self.isect);
            m.intersect_rows.add(self.rows_out);
        }
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

/// A [`Stage`] keeping the rows `keep` accepts: a keep-mask per batch,
/// then every column compacted in place.
fn filter<'a>(
    schema: Arc<Schema>,
    child: Box<dyn Operator + 'a>,
    mut keep: impl FnMut(&RowBatch, usize) -> Result<bool, EvalError> + 'a,
) -> Box<dyn Operator + 'a> {
    stage(schema, child, move |mut batch| {
        let mut mask = Vec::with_capacity(batch.len());
        for row in 0..batch.len() {
            mask.push(keep(&batch, row)?);
        }
        batch.retain(&mask);
        Ok(batch)
    })
}

/// Whether the entity `entity` (the filtered column's value in the row
/// `row`) carries every pattern property. `props` holds `(symbol,
/// expected-value expr, its value once known)`; a `None` symbol is a key
/// that was never interned — no entity can carry it. A literal or
/// parameter does not depend on the row: it is evaluated on the first
/// row that reaches the filter and reused.
fn props_keep(
    ctx: &EvalContext<'_>,
    props: &mut [(Option<Symbol>, Expr, Option<Value>)],
    row: &ColumnBindings<'_>,
    entity: &Value,
) -> Result<bool, EvalError> {
    let g = ctx.graph;
    for (sym, e, known) in props {
        let fresh;
        let want = match known {
            Some(v) => &*v,
            None => {
                let v = eval_expr(ctx, row, e)?;
                if matches!(e, Expr::Lit(_) | Expr::Param(_)) {
                    &*known.insert(v)
                } else {
                    fresh = v;
                    &fresh
                }
            }
        };
        let got = match entity {
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

/// A path pattern's element columns as `(is_node, is_list, column)`
/// triples, in path order.
fn path_columns(schema: &Schema, elements: &[PathElem]) -> Result<Vec<PathCol>, EvalError> {
    let col = |e: &PathElem| match e {
        PathElem::Node(c) => Ok((true, false, col_idx(schema, c)?)),
        PathElem::Rel(c) => Ok((false, false, col_idx(schema, c)?)),
        PathElem::RelList(c) => Ok((false, true, col_idx(schema, c)?)),
    };
    elements.iter().map(col).collect()
}

/// One element of a path: `(is_node, is_list, column)`.
type PathCol = (bool, bool, usize);

/// Walks the path through `elements` in row `row` of `batch`: `visit`
/// sees the start node, then every relationship with the node it
/// reaches. Interior node columns are consistency-checked by the
/// matcher; the walk itself determines them, so a zero-hop step adds no
/// node.
fn walk_path(
    ctx: &EvalContext<'_>,
    elements: &[PathCol],
    batch: &RowBatch,
    row: usize,
    mut visit: impl FnMut(Option<RelId>, NodeId),
) -> Result<(), EvalError> {
    let mut current: Option<NodeId> = None;
    for &(is_node, is_list, idx) in elements {
        let rels = match batch.at(idx, row) {
            _ if is_node && current.is_some() => continue,
            Value::Node(n) if is_node => {
                visit(None, *n);
                current = Some(*n);
                continue;
            }
            _ if is_node => return err("path element is not a node"),
            Value::List(items) if is_list => items.as_slice(),
            _ if is_list => return err("variable-length path element is not a list"),
            r @ Value::Rel(_) => std::slice::from_ref(r),
            _ => return err("path element is not a relationship"),
        };
        for v in rels {
            let Value::Rel(r) = v else {
                return err("path relationship list holds a non-relationship");
            };
            let cur = current.expect("path starts with a node");
            let next = ctx.graph.other_end(*r, cur).expect("live rel endpoint");
            visit(Some(*r), next);
            current = Some(next);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// UNWIND
// ---------------------------------------------------------------------------

/// `UNWIND`: a list yields one row per element (none for the empty
/// list), any other value — `null` included — a single row (Figure 7). A
/// parameter's list is read in place, so a long list is never copied.
struct UnwindOp<'a> {
    ctx: &'a EvalContext<'a>,
    in_schema: Arc<Schema>,
    expr: Expr,
}

impl<'a> Expander<'a> for UnwindOp<'a> {
    fn expand(
        &mut self,
        input: &RowBatch,
        row: usize,
        run: &mut Cow<'a, [Value]>,
    ) -> Result<usize, EvalError> {
        let ctx = self.ctx;
        let param = match &self.expr {
            Expr::Param(p) => ctx.params.get(p),
            _ => None,
        };
        *run = match param {
            Some(Value::List(items)) => Cow::Borrowed(items.as_slice()),
            _ => match eval_expr(ctx, &input.row(&self.in_schema, row), &self.expr)? {
                Value::List(items) => Cow::Owned(items),
                other => Cow::Owned(vec![other]),
            },
        };
        Ok(run.len())
    }
}
