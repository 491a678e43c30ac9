//! The cost-based `MATCH` planner.
//!
//! Mirrors the strategy the paper attributes to Neo4j (Section 2): query
//! planning "based on the IDP algorithm, using a cost model" — for the
//! linear path patterns of core Cypher, dynamic programming over join
//! orders degenerates to choosing the cheapest *anchor* node pattern of
//! each path (by index statistics, or a pre-bound argument) and expanding
//! outward along native adjacency with the `Expand` operator. Disconnected
//! patterns compose by nested iteration, which is exactly a cartesian
//! product.
//!
//! Anchor costing is **statistics-driven**: the store maintains per-label
//! node counts and per-`(label, key)` entry/distinct-value counts (see
//! `cypher_graph::index`), and the planner prices each candidate start
//! position as the expected number of rows its scan or seek produces —
//! `|label|` for a `NodeIndexScan`, `entries / distinct` for a
//! `PropertyIndexSeek` (the uniform-values assumption of the selectivity
//! cost model the paper cites).
//!
//! [`PlannerMode::CartesianJoin`] disables `Expand` and compiles rigid
//! patterns to the relational baseline (scan nodes × scan relationships +
//! endpoint filters) measured against `Expand` in experiment E17.
//!
//! Anchor choice doubles as the executor's **parallelism decision**: every
//! plan starts with a source step (scan or seek) unless the anchor is
//! pre-bound, and `ops::drive` partitions exactly that source
//! into morsels for the worker pool. Picking the cheapest anchor therefore
//! also picks the smallest work list to split.

use crate::exec::EngineConfig;
use crate::plan::{IntersectGuard, MatchPlan, PathElem, PlanStep};
use cypher_ast::expr::Expr;
use cypher_ast::pattern::{Dir, NodePattern, PathPattern, RelPattern};
use cypher_graph::{PropertyGraph, ViewRef};

/// Constant property values the planner may look up in the property
/// index: literals or parameters (anything not depending on the row).
fn constant_props(chi: &NodePattern) -> impl Iterator<Item = (&String, &Expr)> {
    chi.props
        .iter()
        .filter(|(_, e)| matches!(e, Expr::Lit(_) | Expr::Param(_)))
        .map(|(k, e)| (k, e))
}

/// Plan strategy selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlannerMode {
    /// Anchor + `Expand` chains (the Neo4j-style plan).
    #[default]
    ExpandBased,
    /// Relational baseline: cartesian scans + endpoint filters (falls back
    /// to `Expand` for variable-length steps, which have no bounded
    /// relational encoding).
    CartesianJoin,
}

/// When the planner may compile a cyclic `MATCH` to a worst-case-optimal
/// multiway intersection instead of a binary `Expand` chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WcoJoinMode {
    /// Never: always plan `Expand` chains (the pre-intersection planner).
    Off,
    /// Cost-based: build both plans and keep the one whose *peak*
    /// intermediate-cardinality estimate is lower. Ties keep the chain.
    #[default]
    Auto,
    /// Always use the intersection plan when the pattern is eligible
    /// (cyclic, single-hop, self-contained) — the benchmarking override.
    Force,
}

/// The output of planning one `MATCH` clause: the pipeline plus the
/// *visible* (non-hidden) variables it introduces, in deterministic order.
#[derive(Debug, Clone)]
pub struct PlannedMatch {
    /// The physical plan.
    pub plan: MatchPlan,
    /// New visible columns appended to the driving table.
    pub new_vars: Vec<String>,
    /// New hidden columns (anonymous pattern elements).
    pub hidden: Vec<String>,
}

struct PlanCtx<'a> {
    graph: &'a PropertyGraph,
    cfg: &'a EngineConfig,
    bound: Vec<String>,
    steps: Vec<PlanStep>,
    step_est: Vec<f64>,
    rel_cols: Vec<String>,
    /// Each path's element columns, kept under node isomorphism only.
    paths: Vec<Vec<PathElem>>,
    anon_counter: usize,
    est_rows: f64,
}

/// The index access the planner selected for a start node, with its
/// estimated output cardinality.
struct SeekChoice {
    label: Option<String>,
    key: String,
    value: Expr,
    est: f64,
}

impl PlanCtx<'_> {
    /// Appends a step and records the cost model's running estimate at
    /// that point — callers multiply `est_rows` *before* emitting, so
    /// each step's recorded value is its own estimated output.
    fn emit(&mut self, step: PlanStep) {
        self.steps.push(step);
        self.step_est.push(self.est_rows);
    }

    fn is_bound(&self, name: &str) -> bool {
        self.bound.iter().any(|b| b == name)
    }

    fn bind(&mut self, name: &str) {
        if !self.is_bound(name) {
            self.bound.push(name.to_string());
        }
    }

    /// A hidden name no driving field holds (an earlier `MATCH` of the
    /// same segment may have bound ` anon0`).
    fn fresh_anon(&mut self) -> String {
        loop {
            let n = format!(" anon{}", self.anon_counter);
            self.anon_counter += 1;
            if !self.is_bound(&n) {
                return n;
            }
        }
    }

    fn label_cardinality(&self, label: &str) -> usize {
        self.graph
            .interner()
            .get(label)
            .map(|sym| self.graph.label_cardinality(sym))
            .unwrap_or(0)
    }

    /// Expected rows of an equality seek on `(label, key)` (composite
    /// index) or `key` alone, from the store's index statistics.
    fn seek_estimate(&self, label: Option<&str>, key: &str) -> f64 {
        let interner = self.graph.interner();
        let Some(k) = interner.get(key) else {
            return 0.0; // never-interned key: nothing can match
        };
        match label {
            Some(l) => match interner.get(l) {
                Some(l) => self
                    .graph
                    .label_prop_index_cardinality(l, k)
                    .seek_estimate(),
                None => 0.0,
            },
            None => self.graph.prop_index_cardinality(k).seek_estimate(),
        }
    }

    /// The cheapest index seek available for a node pattern, if the
    /// property index is enabled and the pattern pins a constant value.
    fn best_seek(&self, chi: &NodePattern) -> Option<SeekChoice> {
        if !self.cfg.use_property_index {
            return None;
        }
        let mut best: Option<SeekChoice> = None;
        for (key, value) in constant_props(chi) {
            // Prefer the composite index through the most selective
            // label; ties keep the composite (earlier candidates win).
            let mut choice: Option<(Option<&str>, f64)> = None;
            for cand in chi
                .labels
                .iter()
                .map(|l| (Some(l.as_str()), self.seek_estimate(Some(l), key)))
                .chain(std::iter::once((None, self.seek_estimate(None, key))))
            {
                if choice.map(|(_, est)| cand.1 < est).unwrap_or(true) {
                    choice = Some(cand);
                }
            }
            let candidate = choice.map(|(label, est)| SeekChoice {
                label: label.map(String::from),
                key: key.clone(),
                value: value.clone(),
                est,
            });
            if let Some(c) = candidate {
                if best.as_ref().map(|b| c.est < b.est).unwrap_or(true) {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// Estimated number of start candidates for a node pattern, from the
    /// index statistics.
    fn start_cost(&self, chi: &NodePattern) -> f64 {
        if let Some(name) = &chi.name {
            if self.is_bound(name) {
                return 0.5; // already a single binding per driving row
            }
        }
        if let Some(seek) = self.best_seek(chi) {
            // An index seek returns `entries / distinct` rows on average;
            // clamp to ≥ a nominal fraction of a row so a seek still
            // prices above a pre-bound argument.
            return seek.est.max(0.6);
        }
        if chi.labels.is_empty() || !self.cfg.use_label_index {
            self.graph.node_count() as f64
        } else {
            chi.labels
                .iter()
                .map(|l| self.label_cardinality(l) as f64)
                .fold(f64::INFINITY, f64::min)
        }
    }

    /// Average fan-out of one hop of the given relationship pattern.
    fn expand_factor(&self, rho: &RelPattern) -> f64 {
        let n = self.graph.node_count().max(1) as f64;
        let r = if rho.types.is_empty() {
            self.graph.rel_count() as f64
        } else {
            rho.types
                .iter()
                .map(|t| {
                    self.graph
                        .interner()
                        .get(t)
                        .map(|sym| self.graph.type_cardinality(sym))
                        .unwrap_or(0) as f64
                })
                .sum()
        };
        let per_dir = r / n;
        match rho.dir {
            Dir::Both => per_dir * 2.0,
            _ => per_dir,
        }
    }

    /// Total relationships an edge pattern can draw from (`|E|` restricted
    /// to its types) — the per-relation cardinality entering the AGM
    /// bound.
    fn edge_cardinality(&self, rho: &RelPattern) -> f64 {
        let r = if rho.types.is_empty() {
            self.graph.rel_count() as f64
        } else {
            rho.types
                .iter()
                .map(|t| {
                    self.graph
                        .interner()
                        .get(t)
                        .map(|sym| self.graph.type_cardinality(sym))
                        .unwrap_or(0) as f64
                })
                .sum()
        };
        r.max(1.0)
    }
}

/// Plans one `MATCH` clause over the given driving-table fields.
///
/// `view` is the snapshot whose statistics drive anchor/seek selection —
/// a [`cypher_graph::GraphView`] from a versioned session or a plain
/// `&PropertyGraph` borrow. `cfg` names the plan strategy, the index
/// families the plan may use, the cyclic-join policy and, through its
/// morphism, whether every plan ends in a `DistinctNodes` filter.
pub fn plan_match<'a>(
    view: impl Into<ViewRef<'a>>,
    driving_fields: &[String],
    patterns: &[PathPattern],
    cfg: &EngineConfig,
) -> PlannedMatch {
    let graph = view.into().graph();
    let new_ctx = || PlanCtx {
        graph,
        cfg,
        bound: driving_fields.to_vec(),
        steps: Vec::new(),
        step_est: Vec::new(),
        rel_cols: Vec::new(),
        paths: Vec::new(),
        anon_counter: 0,
        est_rows: 1.0,
    };

    // The classic plan: each path independently, anchor + expand chain
    // (or the cartesian baseline).
    let mut ctx = new_ctx();
    for pat in patterns {
        let all_single = pat.rel_patterns().all(|r| r.range.is_single());
        if cfg.planner_mode == PlannerMode::CartesianJoin && all_single && !pat.steps.is_empty() {
            plan_path_cartesian(&mut ctx, pat);
        } else {
            plan_path_expand(&mut ctx, pat);
        }
    }
    let chain = finish_plan(ctx, driving_fields);

    // The worst-case-optimal alternative: when the pattern's join graph
    // is cyclic (and eligible), plan the whole `MATCH` by variable
    // elimination, binding cycle-closing variables with one multiway
    // intersection instead of expand + filter.
    if cfg.planner_mode != PlannerMode::ExpandBased || cfg.wco_join == WcoJoinMode::Off {
        return chain;
    }
    let mut wco_ctx = new_ctx();
    let Some((vertices, edges)) = wco_join_graph(&mut wco_ctx, patterns) else {
        return chain;
    };
    plan_wco(&mut wco_ctx, &vertices, &edges);
    let wco = finish_plan(wco_ctx, driving_fields);
    match cfg.wco_join {
        WcoJoinMode::Force => wco,
        // The decision metric is the *peak* estimated intermediate
        // cardinality — the quantity worst-case-optimal joins bound.
        // Strict `<`: on ties (e.g. statistics-free graphs) the chain
        // plan keeps its well-tested pipeline.
        _ => {
            if peak_estimate(&wco.plan) < peak_estimate(&chain.plan) {
                wco
            } else {
                chain
            }
        }
    }
}

/// Packages a finished planning context, separating the visible new
/// variables from hidden (space-prefixed) columns. Under node isomorphism
/// the plan ends in the filter over every path's nodes.
fn finish_plan(mut ctx: PlanCtx<'_>, driving_fields: &[String]) -> PlannedMatch {
    if !ctx.paths.is_empty() {
        let paths = std::mem::take(&mut ctx.paths);
        ctx.emit(PlanStep::DistinctNodes { paths });
    }
    let (hidden, new_vars) = ctx
        .bound
        .iter()
        .filter(|v| !driving_fields.contains(v))
        .cloned()
        .partition(|v| v.starts_with(' '));
    PlannedMatch {
        plan: MatchPlan {
            steps: ctx.steps,
            estimated_rows: ctx.est_rows,
            step_estimates: ctx.step_est,
        },
        new_vars,
        hidden,
    }
}

/// The largest per-step cardinality estimate of a plan — the cost model's
/// proxy for peak intermediate-result size.
fn peak_estimate(plan: &MatchPlan) -> f64 {
    plan.step_estimates.iter().copied().fold(0.0, f64::max)
}

/// Column names for the nodes and relationships of a path, generating
/// hidden names for anonymous positions.
fn path_columns(ctx: &mut PlanCtx<'_>, pat: &PathPattern) -> (Vec<String>, Vec<String>) {
    let mut node_cols = Vec::with_capacity(pat.steps.len() + 1);
    let mut rel_cols = Vec::with_capacity(pat.steps.len());
    let fresh_or = |ctx: &mut PlanCtx<'_>, name: &Option<String>| match name {
        Some(n) => n.clone(),
        None => ctx.fresh_anon(),
    };
    node_cols.push(fresh_or(ctx, &pat.start.name));
    for (rho, chi) in &pat.steps {
        rel_cols.push(fresh_or(ctx, &rho.name));
        node_cols.push(fresh_or(ctx, &chi.name));
    }
    (node_cols, rel_cols)
}

/// Emits the scan/argument for a start node plus its label/property
/// filters.
fn emit_start(ctx: &mut PlanCtx<'_>, col: &str, chi: &NodePattern) {
    if ctx.is_bound(col) {
        ctx.emit(PlanStep::Argument { var: col.into() });
        emit_node_filters(ctx, col, chi, None);
        return;
    }
    // Prefer an index seek on a constant property — the composite
    // (label, key, value) index when a label is present.
    if let Some(seek) = ctx.best_seek(chi) {
        let scanned_label = seek.label.clone();
        ctx.est_rows *= seek.est.max(1.0);
        ctx.emit(PlanStep::PropertyIndexSeek {
            var: col.into(),
            label: seek.label,
            key: seek.key,
            value: seek.value,
        });
        ctx.bind(col);
        // Labels not covered by the composite seek and all property
        // conditions still apply; the re-checked key is cheap and keeps
        // `=` semantics exact (the index answers *equivalence* queries,
        // which differ from `=` on numerics vs nulls).
        emit_node_filters(ctx, col, chi, scanned_label.as_deref());
        return;
    }
    if chi.labels.is_empty() || !ctx.cfg.use_label_index {
        ctx.est_rows *= ctx.graph.node_count() as f64;
        ctx.emit(PlanStep::AllNodesScan { var: col.into() });
        ctx.bind(col);
        emit_node_filters(ctx, col, chi, None);
    } else {
        // Scan by the most selective label, filter the rest.
        let best = chi
            .labels
            .iter()
            .min_by_key(|l| ctx.label_cardinality(l))
            .unwrap()
            .clone();
        ctx.est_rows *= ctx.label_cardinality(&best).max(1) as f64;
        ctx.emit(PlanStep::NodeIndexScan {
            var: col.into(),
            label: best.clone(),
        });
        ctx.bind(col);
        emit_node_filters(ctx, col, chi, Some(&best));
    }
}

/// Label/property filters for a node column; `scanned_label` was already
/// established by a label scan and is skipped.
fn emit_node_filters(
    ctx: &mut PlanCtx<'_>,
    col: &str,
    chi: &NodePattern,
    scanned_label: Option<&str>,
) {
    let labels: Vec<String> = chi
        .labels
        .iter()
        .filter(|l| Some(l.as_str()) != scanned_label)
        .cloned()
        .collect();
    if !labels.is_empty() {
        ctx.emit(PlanStep::FilterLabels {
            var: col.into(),
            labels,
        });
    }
    if !chi.props.is_empty() {
        ctx.emit(PlanStep::FilterProps {
            var: col.into(),
            props: chi.props.clone(),
        });
    }
}

/// Emits one `Expand` step (plus target filters). `reversed` flips the
/// written direction when expanding right-to-left.
#[allow(clippy::too_many_arguments)]
fn emit_expand(
    ctx: &mut PlanCtx<'_>,
    from_col: &str,
    rel_col: &str,
    to_col: &str,
    rho: &RelPattern,
    chi_to: &NodePattern,
    reversed: bool,
) {
    let dir = if reversed {
        match rho.dir {
            Dir::Out => Dir::In,
            Dir::In => Dir::Out,
            Dir::Both => Dir::Both,
        }
    } else {
        rho.dir
    };
    let (lo, hi) = rho.range.bounds();
    ctx.est_rows *= ctx.expand_factor(rho).max(0.1);
    ctx.emit(PlanStep::Expand {
        from: from_col.into(),
        rel: rel_col.into(),
        to: to_col.into(),
        dir,
        types: rho.types.clone(),
        lo,
        hi,
        single: rho.range.is_single(),
        reversed,
        exclude: ctx.rel_cols.clone(),
        props: if rho.range.is_single() {
            Vec::new()
        } else {
            rho.props.clone()
        },
    });
    ctx.rel_cols.push(rel_col.to_string());
    ctx.bind(rel_col);
    ctx.bind(to_col);
    // On an expand-into as well: this occurrence may add labels/props.
    emit_node_filters(ctx, to_col, chi_to, None);
    // Relationship property conditions apply per traversed hop and are
    // evaluated inside the Expand operator via FilterProps on single hops.
    if !rho.props.is_empty() && rho.range.is_single() {
        ctx.emit(PlanStep::FilterProps {
            var: rel_col.into(),
            props: rho.props.clone(),
        });
    }
}

fn plan_path_expand(ctx: &mut PlanCtx<'_>, pat: &PathPattern) {
    let (node_cols, rel_cols) = path_columns(ctx, pat);
    let node_pats: Vec<&NodePattern> = pat.node_patterns().collect();
    let rel_pats: Vec<&RelPattern> = pat.rel_patterns().collect();

    // Anchor selection: the cheapest node position. Variable-length
    // relationship property maps force left-to-right evaluation from an
    // anchor at or before them only in the sense of condition evaluation,
    // which is order-independent here, so pure cost decides.
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for (i, chi) in node_pats.iter().enumerate() {
        let mut cost = ctx.start_cost(chi);
        // Prefer positions whose column is literally bound already.
        if ctx.is_bound(&node_cols[i]) {
            cost = 0.4;
        }
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }

    emit_start(ctx, &node_cols[best], node_pats[best]);
    // Expand rightwards from the anchor…
    for i in best..rel_pats.len() {
        emit_expand(
            ctx,
            &node_cols[i],
            &rel_cols[i],
            &node_cols[i + 1],
            rel_pats[i],
            node_pats[i + 1],
            false,
        );
    }
    // …then leftwards.
    for i in (0..best).rev() {
        emit_expand(
            ctx,
            &node_cols[i + 1],
            &rel_cols[i],
            &node_cols[i],
            rel_pats[i],
            node_pats[i],
            true,
        );
    }

    emit_path_bind(ctx, pat, &node_cols, &rel_cols);
}

fn plan_path_cartesian(ctx: &mut PlanCtx<'_>, pat: &PathPattern) {
    let (node_cols, rel_cols) = path_columns(ctx, pat);
    let node_pats: Vec<&NodePattern> = pat.node_patterns().collect();
    let rel_pats: Vec<&RelPattern> = pat.rel_patterns().collect();

    // Scan every node position…
    for (col, chi) in node_cols.iter().zip(&node_pats) {
        emit_start(ctx, col, chi);
    }
    // …scan every relationship position and filter endpoints.
    for (i, rho) in rel_pats.iter().enumerate() {
        let rel_col = &rel_cols[i];
        if !ctx.is_bound(rel_col) {
            ctx.est_rows *= ctx.graph.rel_count().max(1) as f64;
            ctx.emit(PlanStep::RelScan {
                var: rel_col.clone(),
            });
            ctx.bind(rel_col);
        }
        ctx.emit(PlanStep::FilterEndpoints {
            rel: rel_col.clone(),
            from: node_cols[i].clone(),
            to: node_cols[i + 1].clone(),
            dir: rho.dir,
            types: rho.types.clone(),
            exclude: ctx.rel_cols.clone(),
        });
        ctx.rel_cols.push(rel_col.clone());
        if !rho.props.is_empty() {
            ctx.emit(PlanStep::FilterProps {
                var: rel_col.clone(),
                props: rho.props.clone(),
            });
        }
    }

    emit_path_bind(ctx, pat, &node_cols, &rel_cols);
}

/// Records the path's alternating element columns for the node-isomorphism
/// filter and, when the path is named, binds it.
fn emit_path_bind(
    ctx: &mut PlanCtx<'_>,
    pat: &PathPattern,
    node_cols: &[String],
    rel_cols: &[String],
) {
    let mut elements = vec![PathElem::Node(node_cols[0].clone())];
    for (i, (rho, _)) in pat.steps.iter().enumerate() {
        if rho.range.is_single() {
            elements.push(PathElem::Rel(rel_cols[i].clone()));
        } else {
            elements.push(PathElem::RelList(rel_cols[i].clone()));
        }
        elements.push(PathElem::Node(node_cols[i + 1].clone()));
    }
    if ctx.cfg.match_config.morphism.nodes_distinct() {
        ctx.paths.push(elements.clone());
    }
    let Some(path_name) = &pat.name else { return };
    ctx.emit(PlanStep::PathBind {
        var: path_name.clone(),
        elements,
    });
    ctx.bind(path_name);
}

// ---------------------------------------------------------------------------
// Worst-case-optimal planning (cyclic patterns)
// ---------------------------------------------------------------------------

/// One variable of the pattern join graph: its output column and every
/// node pattern occurrence that constrains it (a named variable may
/// appear in several paths; anonymous nodes are always fresh vertices and
/// therefore can never close a cycle).
struct WcoVertex<'p> {
    col: String,
    pats: Vec<&'p NodePattern>,
}

/// One relationship of the pattern join graph, written `(u)-rho-(v)` —
/// `rho.dir` is relative to `u`.
struct WcoEdge<'p> {
    u: usize,
    v: usize,
    rel_col: String,
    rho: &'p RelPattern,
}

/// Loop-free union-find lookup with halving.
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Builds the join graph of a whole `MATCH` clause and checks it is
/// *eligible* for worst-case-optimal planning: every relationship
/// single-hop with a fresh unique name, no named paths, no variables
/// pre-bound by the driving table, only constant (literal/parameter)
/// property maps — and, after merging repeated node variables, at least
/// one cycle (an edge whose endpoints are already connected; self-loops
/// don't count, expand-into closes those fine). Returns `None` when any
/// condition fails, which sends the caller back to the chain plan.
fn wco_join_graph<'p>(
    ctx: &mut PlanCtx<'_>,
    patterns: &'p [PathPattern],
) -> Option<(Vec<WcoVertex<'p>>, Vec<WcoEdge<'p>>)> {
    let constant = |e: &Expr| matches!(e, Expr::Lit(_) | Expr::Param(_));
    let mut node_names: Vec<&str> = Vec::new();
    let mut rel_names: Vec<&str> = Vec::new();
    for pat in patterns {
        if pat.name.is_some() {
            return None; // named paths keep the chain plan's bind order
        }
        for chi in pat.node_patterns() {
            if !chi.props.iter().all(|(_, e)| constant(e)) {
                return None;
            }
            if let Some(n) = &chi.name {
                if ctx.is_bound(n) {
                    return None;
                }
                if !node_names.contains(&n.as_str()) {
                    node_names.push(n);
                }
            }
        }
        for rho in pat.rel_patterns() {
            if !rho.range.is_single() || !rho.props.iter().all(|(_, e)| constant(e)) {
                return None;
            }
            if let Some(n) = &rho.name {
                // A repeated relationship variable (or one shadowing a
                // node variable or driving column) pins bindings across
                // steps — the chain plan's rel_bound machinery handles
                // those.
                if ctx.is_bound(n) || rel_names.contains(&n.as_str()) {
                    return None;
                }
                rel_names.push(n);
            }
        }
    }
    if rel_names.iter().any(|r| node_names.contains(r)) {
        return None;
    }

    let mut vertices: Vec<WcoVertex<'p>> = Vec::new();
    let mut edges: Vec<WcoEdge<'p>> = Vec::new();
    for pat in patterns {
        let mut prev = intern_vertex(ctx, &mut vertices, &pat.start);
        let mut elements = vec![PathElem::Node(vertices[prev].col.clone())];
        for (rho, chi) in &pat.steps {
            let cur = intern_vertex(ctx, &mut vertices, chi);
            let rel_col = match &rho.name {
                Some(n) => n.clone(),
                None => ctx.fresh_anon(),
            };
            elements.push(PathElem::Rel(rel_col.clone()));
            elements.push(PathElem::Node(vertices[cur].col.clone()));
            edges.push(WcoEdge {
                u: prev,
                v: cur,
                rel_col,
                rho,
            });
            prev = cur;
        }
        if ctx.cfg.match_config.morphism.nodes_distinct() {
            ctx.paths.push(elements);
        }
    }

    let mut parent: Vec<usize> = (0..vertices.len()).collect();
    let mut cyclic = false;
    for e in &edges {
        if e.u == e.v {
            continue;
        }
        let (ru, rv) = (uf_find(&mut parent, e.u), uf_find(&mut parent, e.v));
        if ru == rv {
            cyclic = true;
        } else {
            parent[ru] = rv;
        }
    }
    cyclic.then_some((vertices, edges))
}

/// Looks up (by name) or creates the join-graph vertex of one node
/// pattern occurrence.
fn intern_vertex<'p>(
    ctx: &mut PlanCtx<'_>,
    vertices: &mut Vec<WcoVertex<'p>>,
    chi: &'p NodePattern,
) -> usize {
    if let Some(name) = &chi.name {
        if let Some(i) = vertices.iter().position(|v| &v.col == name) {
            vertices[i].pats.push(chi);
            return i;
        }
        vertices.push(WcoVertex {
            col: name.clone(),
            pats: vec![chi],
        });
    } else {
        let col = ctx.fresh_anon();
        vertices.push(WcoVertex {
            col,
            pats: vec![chi],
        });
    }
    vertices.len() - 1
}

/// Plans an eligible cyclic `MATCH` by greedy variable elimination: each
/// round binds the unbound vertex with the most edges into the bound set
/// (ties keep pattern order; a fresh component anchors at its cheapest
/// scan). One such edge is a plain `Expand`; two or more become a single
/// `MultiwayIntersect` that binds the variable worst-case-optimally.
/// Edges left between two bound vertices (self-loops included) close as
/// expand-into, exactly like the chain plan's cycle closing.
///
/// Costing: an intersection's output estimate multiplies the guards'
/// fan-outs and divides by `n^(k-1)` (independent-edge selectivity), then
/// clamps to the running AGM bound `∏ card(e)^{w(e)}` with `w(e) = ½` for
/// edges between two cycle vertices (join-graph degree ≥ 2) and `1`
/// otherwise — the fractional edge cover that prices a triangle at
/// `|E|^{3/2}` rather than `|E|³`.
fn plan_wco(ctx: &mut PlanCtx<'_>, vertices: &[WcoVertex<'_>], edges: &[WcoEdge<'_>]) {
    let nverts = vertices.len();
    let mut vbound = vec![false; nverts];
    let mut done = vec![false; edges.len()];
    let mut degree = vec![0usize; nverts];
    for e in edges {
        degree[e.u] += 1;
        degree[e.v] += 1;
    }
    let n = ctx.graph.node_count().max(1) as f64;
    let mut agm = 1.0f64;

    for _ in 0..nverts {
        // Edges joining each unbound vertex to the bound set.
        let incident_of = |v: usize, vbound: &[bool], done: &[bool]| -> Vec<usize> {
            edges
                .iter()
                .enumerate()
                .filter(|(i, e)| {
                    !done[*i]
                        && ((e.u == v && e.v != v && vbound[e.v])
                            || (e.v == v && e.u != v && vbound[e.u]))
                })
                .map(|(i, _)| i)
                .collect()
        };
        let mut pick = None;
        let mut pick_incident: Vec<usize> = Vec::new();
        for v in 0..nverts {
            if vbound[v] {
                continue;
            }
            let inc = incident_of(v, &vbound, &done);
            if pick.is_none() || inc.len() > pick_incident.len() {
                pick = Some(v);
                pick_incident = inc;
            }
        }
        let v = pick.expect("unbound vertex remains");

        if pick_incident.is_empty() {
            // Fresh component: re-anchor at the cheapest unbound vertex.
            let mut anchor = v;
            let mut anchor_cost = f64::INFINITY;
            for (cand, vx) in vertices.iter().enumerate() {
                if vbound[cand] {
                    continue;
                }
                let cost = vx
                    .pats
                    .iter()
                    .map(|chi| ctx.start_cost(chi))
                    .fold(f64::INFINITY, f64::min);
                if cost < anchor_cost {
                    anchor_cost = cost;
                    anchor = cand;
                }
            }
            let vx = &vertices[anchor];
            let mut best = 0;
            let mut best_cost = f64::INFINITY;
            for (i, chi) in vx.pats.iter().enumerate() {
                let cost = ctx.start_cost(chi);
                if cost < best_cost {
                    best_cost = cost;
                    best = i;
                }
            }
            emit_start(ctx, &vx.col, vx.pats[best]);
            for (i, chi) in vx.pats.iter().enumerate() {
                if i != best {
                    emit_node_filters(ctx, &vx.col, chi, None);
                }
            }
            vbound[anchor] = true;
            close_bound_edges(ctx, vertices, edges, &vbound, &mut done, &degree, &mut agm);
            continue;
        }

        let vx = &vertices[v];
        if pick_incident.len() == 1 {
            let e = &edges[pick_incident[0]];
            let reversed = e.u == v; // expanding against the written side
            let from_col = if reversed {
                &vertices[e.v].col
            } else {
                &vertices[e.u].col
            };
            let from_col = from_col.clone();
            agm *= ctx.edge_cardinality(e.rho).powf(edge_weight(e, &degree));
            emit_expand(
                ctx, &from_col, &e.rel_col, &vx.col, e.rho, vx.pats[0], reversed,
            );
            for chi in &vx.pats[1..] {
                emit_node_filters(ctx, &vx.col, chi, None);
            }
            done[pick_incident[0]] = true;
        } else {
            let mut guards = Vec::with_capacity(pick_incident.len());
            let mut factor = 1.0f64;
            for &ei in &pick_incident {
                let e = &edges[ei];
                let flip = e.u == v; // guard hangs off the bound endpoint
                let from = if flip { e.v } else { e.u };
                let dir = if flip {
                    match e.rho.dir {
                        Dir::Out => Dir::In,
                        Dir::In => Dir::Out,
                        Dir::Both => Dir::Both,
                    }
                } else {
                    e.rho.dir
                };
                guards.push(IntersectGuard {
                    from: vertices[from].col.clone(),
                    rel: e.rel_col.clone(),
                    dir,
                    types: e.rho.types.clone(),
                    props: e.rho.props.clone(),
                });
                factor *= ctx.expand_factor(e.rho).max(0.1);
                agm *= ctx.edge_cardinality(e.rho).powf(edge_weight(e, &degree));
                done[ei] = true;
            }
            // Union of every occurrence's labels, checked inside the
            // operator (candidates are filtered before relationship
            // enumeration).
            let mut labels: Vec<String> = Vec::new();
            for chi in &vx.pats {
                for l in &chi.labels {
                    if !labels.contains(l) {
                        labels.push(l.clone());
                    }
                }
            }
            let k = pick_incident.len() as i32;
            ctx.est_rows *= (factor / n.powi(k - 1)).max(0.001);
            ctx.est_rows = ctx.est_rows.min(agm);
            ctx.emit(PlanStep::MultiwayIntersect {
                to: vx.col.clone(),
                guards,
                labels,
                exclude: ctx.rel_cols.clone(),
            });
            for &ei in &pick_incident {
                ctx.rel_cols.push(edges[ei].rel_col.clone());
                ctx.bind(&edges[ei].rel_col);
            }
            ctx.bind(&vx.col);
            // Node labels were folded into the step; property maps become
            // residual filters (as everywhere else in the planner).
            for chi in &vx.pats {
                if !chi.props.is_empty() {
                    ctx.emit(PlanStep::FilterProps {
                        var: vx.col.clone(),
                        props: chi.props.clone(),
                    });
                }
            }
        }
        vbound[v] = true;
        close_bound_edges(ctx, vertices, edges, &vbound, &mut done, &degree, &mut agm);
    }
}

/// AGM exponent of one edge: ½ inside a cycle, 1 on a tree edge.
fn edge_weight(e: &WcoEdge<'_>, degree: &[usize]) -> f64 {
    if degree[e.u] >= 2 && degree[e.v] >= 2 {
        0.5
    } else {
        1.0
    }
}

/// Emits expand-into steps for every remaining edge whose endpoints are
/// both bound (cycle-closing edges the greedy pick didn't consume, and
/// self-loops).
#[allow(clippy::too_many_arguments)]
fn close_bound_edges(
    ctx: &mut PlanCtx<'_>,
    vertices: &[WcoVertex<'_>],
    edges: &[WcoEdge<'_>],
    vbound: &[bool],
    done: &mut [bool],
    degree: &[usize],
    agm: &mut f64,
) {
    let empty = NodePattern {
        name: None,
        labels: Vec::new(),
        props: Vec::new(),
    };
    for (i, e) in edges.iter().enumerate() {
        if done[i] || !vbound[e.u] || !vbound[e.v] {
            continue;
        }
        *agm *= ctx.edge_cardinality(e.rho).powf(edge_weight(e, degree));
        let from_col = vertices[e.u].col.clone();
        // Node filters were emitted when the endpoints were bound; the
        // empty pattern adds none.
        emit_expand(
            ctx,
            &from_col,
            &e.rel_col,
            &vertices[e.v].col,
            e.rho,
            &empty,
            false,
        );
        done[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::Value;
    use cypher_parser::parse_pattern;

    /// Whether some step of `planned` is a `PlanStep::$step`.
    macro_rules! has {
        ($planned:expr, $step:ident) => {
            $planned
                .plan
                .steps
                .iter()
                .any(|s| matches!(s, PlanStep::$step { .. }))
        };
    }

    fn sample_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        // 100 Person nodes, 3 Admin nodes, chain of KNOWS.
        let mut prev = None;
        for i in 0..100 {
            let labels: &[&str] = if i < 3 {
                &["Person", "Admin"]
            } else {
                &["Person"]
            };
            let n = g.add_node(labels, [("i", Value::int(i))]);
            if let Some(p) = prev {
                g.add_rel(p, n, "KNOWS", []).unwrap();
            }
            prev = Some(n);
        }
        g
    }

    #[test]
    fn anchors_on_most_selective_label() {
        let g = sample_graph();
        let p = parse_pattern("(a:Person)-[:KNOWS]->(b:Admin)").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        // The Admin side has 3 nodes vs 100 Person: anchor must be b.
        match &planned.plan.steps[0] {
            PlanStep::NodeIndexScan { var, label } => {
                assert_eq!(var, "b");
                assert_eq!(label, "Admin");
            }
            other => panic!("expected label scan, got {other}"),
        }
        // And the expand runs right-to-left (reversed direction).
        assert!(planned
            .plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::Expand { from, to, dir: Dir::In, .. } if from == "b" && to == "a")));
        // Binding order follows the traversal (anchor first).
        assert_eq!(planned.new_vars, vec!["b", "a"]);
    }

    #[test]
    fn bound_variable_becomes_argument() {
        let g = sample_graph();
        let p = parse_pattern("(a)-[:KNOWS]->(b)").unwrap();
        let planned = plan_match(&g, &["a".to_string()], &[p], &EngineConfig::default());
        assert!(matches!(
            &planned.plan.steps[0],
            PlanStep::Argument { var } if var == "a"
        ));
        assert_eq!(planned.new_vars, vec!["b"]);
    }

    #[test]
    fn anonymous_elements_get_hidden_columns() {
        let g = sample_graph();
        let p = parse_pattern("()-[:KNOWS]->()").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        assert!(planned.new_vars.is_empty());
        let PlanStep::Expand { rel, .. } = &planned.plan.steps[1] else {
            panic!("expected expand")
        };
        assert!(rel.starts_with(' '), "anonymous rel column is hidden");
    }

    fn cartesian() -> EngineConfig {
        EngineConfig {
            planner_mode: PlannerMode::CartesianJoin,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn cartesian_mode_uses_rel_scans() {
        let g = sample_graph();
        let p = parse_pattern("(a:Admin)-[r:KNOWS]->(b)").unwrap();
        let planned = plan_match(&g, &[], &[p], &cartesian());
        assert!(has!(planned, RelScan));
        assert!(has!(planned, FilterEndpoints));
        assert!(!has!(planned, Expand));
    }

    #[test]
    fn cartesian_mode_falls_back_for_var_length() {
        let g = sample_graph();
        let p = parse_pattern("(a)-[:KNOWS*1..3]->(b)").unwrap();
        let planned = plan_match(&g, &[], &[p], &cartesian());
        assert!(has!(planned, Expand));
    }

    #[test]
    fn exclusion_lists_grow_along_the_chain() {
        let g = sample_graph();
        let p = parse_pattern("(a)-[r1]->(b)-[r2]->(c)").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        let expands: Vec<&PlanStep> = planned
            .plan
            .steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Expand { .. }))
            .collect();
        assert_eq!(expands.len(), 2);
        let PlanStep::Expand { exclude, .. } = expands[1] else {
            unreachable!()
        };
        assert_eq!(exclude.len(), 1, "second expand excludes the first rel");
    }

    #[test]
    fn constant_property_uses_index_scan() {
        let g = sample_graph();
        let p = parse_pattern("(a:Person {i: 5})-[:KNOWS]->(b)").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        match &planned.plan.steps[0] {
            PlanStep::PropertyIndexSeek {
                var, label, key, ..
            } => {
                assert_eq!(var, "a");
                assert_eq!(label.as_deref(), Some("Person"), "composite index used");
                assert_eq!(key, "i");
            }
            other => panic!("expected property seek, got {other}"),
        }
        // The residual property filter keeps `=` semantics exact.
        assert!(has!(planned, FilterProps));
    }

    #[test]
    fn property_anchor_beats_label_anchor() {
        let g = sample_graph();
        // Anchor must move to b: {i: 7} pins a single node even though
        // Admin is a small label on the other side.
        let p = parse_pattern("(a:Admin)-[:KNOWS]->(b {i: 7})").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        assert!(
            matches!(&planned.plan.steps[0], PlanStep::PropertyIndexSeek { var, .. } if var == "b"),
            "plan: {:?}",
            planned.plan
        );
    }

    #[test]
    fn statistics_pick_the_more_selective_key() {
        let mut g = PropertyGraph::new();
        // `kind` has 2 distinct values over 100 nodes (est. 50 rows per
        // seek); `serial` is unique (est. 1 row). The planner must seek
        // on `serial`.
        for i in 0..100 {
            g.add_node(
                &["Device"],
                [("kind", Value::int(i % 2)), ("serial", Value::int(i))],
            );
        }
        let p = parse_pattern("(d:Device {kind: 1, serial: 37})").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        match &planned.plan.steps[0] {
            PlanStep::PropertyIndexSeek { key, label, .. } => {
                assert_eq!(key, "serial");
                assert_eq!(label.as_deref(), Some("Device"));
            }
            other => panic!("expected property seek, got {other}"),
        }
        assert!(planned.plan.estimated_rows <= 2.0, "{:?}", planned.plan);
    }

    #[test]
    fn disabling_property_index_falls_back_to_label_scan() {
        let g = sample_graph();
        let p = parse_pattern("(a:Person {i: 5})").unwrap();
        let cfg = EngineConfig {
            use_property_index: false,
            ..EngineConfig::default()
        };
        let planned = plan_match(&g, &[], &[p], &cfg);
        assert!(
            matches!(&planned.plan.steps[0], PlanStep::NodeIndexScan { .. }),
            "plan: {:?}",
            planned.plan
        );
        // Property conditions survive as residual filters.
        assert!(has!(planned, FilterProps));
    }

    #[test]
    fn disabling_all_indexes_scans_everything() {
        let g = sample_graph();
        let p = parse_pattern("(a:Person {i: 5})").unwrap();
        let cfg = EngineConfig::default().without_indexes();
        let planned = plan_match(&g, &[], &[p], &cfg);
        assert!(
            matches!(&planned.plan.steps[0], PlanStep::AllNodesScan { .. }),
            "plan: {:?}",
            planned.plan
        );
        assert!(has!(planned, FilterLabels));
    }

    /// 100 nodes, 10 outgoing KNOWS each — dense enough that expand
    /// chains blow up quadratically on cyclic patterns.
    fn dense_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let nodes: Vec<_> = (0..100)
            .map(|i| g.add_node(&["N"], [("i", Value::int(i))]))
            .collect();
        for i in 0..100usize {
            for j in 1..=10usize {
                let t = (i * 7 + j * 13) % 100;
                g.add_rel(nodes[i], nodes[t], "KNOWS", []).unwrap();
            }
        }
        g
    }

    fn triangle() -> Vec<PathPattern> {
        vec![
            parse_pattern("(a)-[r1:KNOWS]->(b)-[r2:KNOWS]->(c)").unwrap(),
            parse_pattern("(a)-[r3:KNOWS]->(c)").unwrap(),
        ]
    }

    #[test]
    fn force_plans_cyclic_match_with_intersection() {
        let g = sample_graph();
        let cfg = EngineConfig::default().with_wco_join(WcoJoinMode::Force);
        let planned = plan_match(&g, &[], &triangle(), &cfg);
        let isect: Vec<&PlanStep> = planned
            .plan
            .steps
            .iter()
            .filter(|s| matches!(s, PlanStep::MultiwayIntersect { .. }))
            .collect();
        assert_eq!(isect.len(), 1, "plan: {:?}", planned.plan);
        let PlanStep::MultiwayIntersect { to, guards, .. } = isect[0] else {
            unreachable!()
        };
        // The cycle-closing variable is bound last, by intersecting the
        // adjacencies of both already-bound neighbours.
        assert_eq!(to, "c");
        assert_eq!(guards.len(), 2);
        assert_eq!(guards[0].from, "b");
        assert_eq!(guards[1].from, "a");
        assert!(guards.iter().all(|g| g.dir == Dir::Out));
        assert_eq!(planned.new_vars, vec!["a", "r1", "b", "r2", "r3", "c"]);
    }

    #[test]
    fn off_never_plans_intersection() {
        let g = dense_graph();
        let cfg = EngineConfig::default().with_wco_join(WcoJoinMode::Off);
        let planned = plan_match(&g, &[], &triangle(), &cfg);
        assert!(!has!(planned, MultiwayIntersect));
    }

    #[test]
    fn auto_intersects_on_dense_graphs_and_chains_on_sparse() {
        // Dense (avg degree 10): the chain's intermediate result dwarfs
        // the intersection's, so Auto flips to the intersect plan.
        let planned = plan_match(&dense_graph(), &[], &triangle(), &EngineConfig::default());
        assert!(has!(planned, MultiwayIntersect), "plan: {:?}", planned.plan);
        // Sparse (a chain, avg degree ≈ 1): estimates tie at the anchor
        // scan, and ties keep the expand chain.
        let planned = plan_match(&sample_graph(), &[], &triangle(), &EngineConfig::default());
        assert!(
            !has!(planned, MultiwayIntersect),
            "plan: {:?}",
            planned.plan
        );
    }

    #[test]
    fn ineligible_patterns_keep_the_chain_plan_even_forced() {
        let g = dense_graph();
        let cfg = EngineConfig::default().with_wco_join(WcoJoinMode::Force);
        let no_isect = |pats: Vec<PathPattern>| {
            let planned = plan_match(&g, &[], &pats, &cfg);
            assert!(
                !has!(planned, MultiwayIntersect),
                "plan: {:?}",
                planned.plan
            );
        };
        // Acyclic.
        no_isect(vec![
            parse_pattern("(a)-[r1:KNOWS]->(b)-[r2:KNOWS]->(c)").unwrap()
        ]);
        // Repeated relationship variable.
        no_isect(vec![
            parse_pattern("(a)-[r:KNOWS]->(b)-[r2:KNOWS]->(c)").unwrap(),
            parse_pattern("(a)-[r:KNOWS]->(c)").unwrap(),
        ]);
        // Variable-length step in the cycle.
        no_isect(vec![
            parse_pattern("(a)-[r1:KNOWS*1..2]->(b)-[r2:KNOWS]->(c)").unwrap(),
            parse_pattern("(a)-[r3:KNOWS]->(c)").unwrap(),
        ]);
        // Named path.
        no_isect(vec![
            parse_pattern("p = (a)-[r1:KNOWS]->(b)-[r2:KNOWS]->(c)").unwrap(),
            parse_pattern("(a)-[r3:KNOWS]->(c)").unwrap(),
        ]);
        // A self-loop alone is not a cycle the intersection can exploit.
        no_isect(vec![parse_pattern("(a)-[r1:KNOWS]->(a)").unwrap()]);
    }

    #[test]
    fn two_cycle_flips_the_closing_guard_direction() {
        let g = dense_graph();
        let cfg = EngineConfig::default().with_wco_join(WcoJoinMode::Force);
        let p = parse_pattern("(a)-[r1:KNOWS]->(b)<-[r2:KNOWS]-(a)").unwrap();
        let planned = plan_match(&g, &[], &[p], &cfg);
        let Some(PlanStep::MultiwayIntersect { to, guards, .. }) = planned
            .plan
            .steps
            .iter()
            .find(|s| matches!(s, PlanStep::MultiwayIntersect { .. }))
        else {
            panic!("expected intersection, plan: {:?}", planned.plan)
        };
        assert_eq!(to, "b");
        // Both guards hang off `a`; directions follow the pattern as
        // seen from `a`.
        assert!(guards.iter().all(|g| g.from == "a"));
        assert_eq!(guards.len(), 2);
    }

    #[test]
    fn named_path_emits_path_bind() {
        let g = sample_graph();
        let p = parse_pattern("p = (a)-[:KNOWS*]->(b)").unwrap();
        let planned = plan_match(&g, &[], &[p], &EngineConfig::default());
        assert!(planned
            .plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::PathBind { var, .. } if var == "p")));
        assert!(planned.new_vars.contains(&"p".to_string()));
    }
}
