//! Changed-entity-anchored delta evaluation for incremental view
//! maintenance (the "delta-join pass" of the standing-query subsystem).
//!
//! A maintainable match-shaped view is a query of the form
//!
//! ```text
//! MATCH π [WHERE expr] RETURN …
//! ```
//!
//! with a **single rigid path pattern** — every relationship pattern is a
//! single hop (`RangeSpec::None`). [`DeltaPlan::compile`] rewrites the
//! pattern so *every* node and relationship position carries a name
//! (anonymous positions get synthetic names containing a space, which the
//! surface syntax cannot produce), making each match row a complete
//! binding tuple: one entity per position.
//!
//! The soundness argument for delta maintenance rests on that shape.
//! Every change record either alters a node directly or alters a
//! relationship, whose two endpoints [`cypher_graph::affected_nodes`]
//! resolves against the pre-update graph. A row of the view can only
//! appear, disappear, or change between versions if some entity it binds
//! (or a property/label of one) changed — and since each bound
//! relationship is incident to two bound node positions, every such row
//! binds at least one *affected node*. So re-enumerating only the rows
//! that bind an affected node — [`DeltaPlan::affected_rows`] against the
//! old graph gives the retractions, the same call against the new graph
//! gives the insertions — folds exactly the difference between the two
//! versions into the view state.
//!
//! Because every position is named, each distinct binding tuple occurs in
//! the match bag with multiplicity exactly one (the tuple determines the
//! path tuple), so deduplicating by tuple across the anchor positions is
//! exact: a row binding three affected nodes is enumerated up to three
//! times and counted once.
//!
//! `WHERE` comes along for free — the predicate runs as the plan's
//! trailing filter on each enumerated row, against the same graph the row
//! was enumerated in — with one restriction, checked at compile time: no
//! existential pattern predicate or pattern comprehension anywhere in the
//! query ([`expr_rescans_graph`]). Those constructs consult parts of the
//! graph the row does *not* bind, so a change far from a row could flip
//! its predicate without touching any of its entities, breaking the
//! anchoring argument. Views containing them fall back to full
//! recomputation.
//!
//! ## Re-rooting at the anchor
//!
//! Enumeration is an ordinary `MATCH` run: per anchor position, the
//! affected nodes form a one-column driving table named after it,
//! [`plan_match`] plans the pattern over it and the morsel driver runs
//! the plan with `WHERE` appended. The planner prices a pre-bound
//! position at a constant 0.4 rows — below any index seek's 0.6 floor
//! and any scan that can return a node (only an empty label's is lower)
//! — so the plan starts there (`Argument`) and expands rightwards, then
//! leftwards with the written direction reversed; the worst-case-optimal
//! alternative refuses pre-bound variables. No statistic can flip that
//! choice, so plans are made per call with no cache, and the work is the
//! affected nodes' neighbourhoods, never a scan of the base graph. Under
//! `Morphism::NodeIsomorphism` each plan ends in the `DistinctNodes`
//! filter, which reads only the row's own bindings, so the anchoring
//! argument holds unchanged.

use crate::exec::{EngineConfig, Segment};
use crate::ops::Collect;
use crate::plan::PlanStep;
use crate::planner::{plan_match, PlannedMatch};
use crate::pushdown::project_visible;
use cypher_ast::expr::Expr;
use cypher_ast::pattern::PathPattern;
use cypher_ast::query::{Clause, Query};
use cypher_core::bag::CountedMap;
use cypher_core::error::EvalError;
use cypher_core::{EvalContext, Record, Schema, Table};
use cypher_graph::{NodeId, PropertyGraph, Value};
use std::slice;
use std::sync::Arc;

/// True when the expression (or any subexpression) re-scans the graph
/// beyond the entities the current row binds: existential pattern
/// predicates (`WHERE (a)-->(b)`) and pattern comprehensions. Such
/// expressions are not delta-maintainable — their value can change
/// without any bound entity changing.
pub fn expr_rescans_graph(e: &Expr) -> bool {
    fn walk(e: &Expr, found: &mut bool) {
        if *found {
            return;
        }
        match e {
            Expr::PatternPredicate(_) | Expr::PatternComprehension { .. } => *found = true,
            other => other.for_each_child(&mut |c| walk(c, found)),
        }
    }
    let mut found = false;
    walk(e, &mut found);
    found
}

/// Prefix of the synthetic names given to anonymous pattern positions.
/// Contains a space, so no parsed query can collide with (or project) one.
const SYNTH: &str = " δ";

/// A compiled delta-join pass: the fully-named single-path pattern, its
/// `WHERE` predicate, and the binding schema.
pub struct DeltaPlan {
    /// The rewritten pattern: every node/relationship position named.
    pattern: PathPattern,
    /// The `MATCH`'s `WHERE` predicate, if any.
    where_: Option<Expr>,
    /// Distinct node-position names, in traversal order — the anchor set.
    node_names: Vec<String>,
    /// Schema of the binding rows: every distinct position name, in
    /// traversal order (synthetic names included).
    schema: Arc<Schema>,
    /// The user-visible subset of [`DeltaPlan::schema`] (synthetic names
    /// stripped) — what `RETURN *` may expand to.
    visible: Arc<Schema>,
}

impl DeltaPlan {
    /// Classifies a read query's *match shape* for delta maintenance.
    /// Returns `None` — caller falls back to full recomputation — unless
    /// the query is a single non-optional `MATCH` of one rigid,
    /// single-hop-per-step, unnamed path followed directly by `RETURN`,
    /// with no graph-rescanning expression anywhere (pattern property
    /// maps, `WHERE`, return items, `ORDER BY`).
    ///
    /// The *projection* half of maintainability (retractable aggregates,
    /// bare aggregate items, no `SKIP`/`LIMIT`) is the caller's check —
    /// this function owns only the pattern-and-predicate half.
    pub fn compile(q: &Query) -> Option<DeltaPlan> {
        let Query::Single(sq) = q else {
            return None;
        };
        if sq.ret_graph.is_some() {
            return None;
        }
        let ret = sq.ret.as_ref()?;
        let (patterns, where_) = match sq.clauses.as_slice() {
            [Clause::Match {
                optional: false,
                patterns,
                where_,
            }] => (patterns, where_),
            _ => return None,
        };
        let [pattern] = patterns.as_slice() else {
            return None;
        };
        if pattern.name.is_some() {
            return None;
        }
        if !pattern.rel_patterns().all(|r| r.range.is_single()) {
            return None;
        }
        // No graph-rescanning subexpression anywhere the view evaluates.
        let prop_exprs = pattern
            .node_patterns()
            .flat_map(|n| n.props.iter())
            .map(|(_, e)| e)
            .chain(
                pattern
                    .rel_patterns()
                    .flat_map(|r| r.props.iter())
                    .map(|(_, e)| e),
            );
        let ret_exprs = ret
            .items
            .iter()
            .map(|i| &i.expr)
            .chain(ret.order_by.iter().map(|s| &s.expr))
            .chain(ret.skip.iter())
            .chain(ret.limit.iter());
        let mut all_exprs = prop_exprs.chain(ret_exprs).chain(where_.iter());
        if all_exprs.any(expr_rescans_graph) {
            return None;
        }

        // Name every anonymous position.
        let mut pattern = pattern.clone();
        let mut fresh = 0usize;
        fn name_node(n: &mut cypher_ast::pattern::NodePattern, fresh: &mut usize) {
            if n.name.is_none() {
                n.name = Some(format!("{SYNTH}n{fresh}"));
                *fresh += 1;
            }
        }
        name_node(&mut pattern.start, &mut fresh);
        for (r, n) in &mut pattern.steps {
            if r.name.is_none() {
                r.name = Some(format!("{SYNTH}r{fresh}"));
                fresh += 1;
            }
            name_node(n, &mut fresh);
        }

        let mut node_names: Vec<String> = Vec::new();
        for n in pattern.node_patterns() {
            let name = n.name.clone().expect("all positions named");
            if !node_names.contains(&name) {
                node_names.push(name);
            }
        }
        let all_names = pattern.free_vars();
        let visible = Schema::new(
            all_names
                .iter()
                .filter(|n| !n.starts_with(SYNTH))
                .cloned()
                .collect(),
        );
        let schema = Schema::new(all_names);
        Some(DeltaPlan {
            pattern,
            where_: where_.clone(),
            node_names,
            schema,
            visible,
        })
    }

    /// Schema of the rows [`DeltaPlan::all_rows`] /
    /// [`DeltaPlan::affected_rows`] produce: one column per pattern
    /// position, synthetic names included.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The user-visible columns (what the projection may reference and
    /// what `RETURN *` expands to).
    pub fn visible_schema(&self) -> &Arc<Schema> {
        &self.visible
    }

    /// The rewritten pattern, for `EXPLAIN VIEW` rendering.
    pub fn pattern(&self) -> &PathPattern {
        &self.pattern
    }

    /// One line per anchor position: the plan [`DeltaPlan::affected_rows`]
    /// runs from it against `graph`, `WHERE` included — for `EXPLAIN VIEW`.
    pub fn explain_anchors(&self, graph: &PropertyGraph, cfg: &EngineConfig) -> Vec<String> {
        let where_ = self
            .where_
            .iter()
            .map(|w| PlanStep::FilterExpr { pred: w.clone() });
        self.node_names
            .iter()
            .map(|name| {
                let mut steps = self.plan(graph, slice::from_ref(name), cfg).plan.steps;
                steps.extend(where_.clone());
                let steps: Vec<String> = steps.iter().map(PlanStep::to_string).collect();
                format!("anchor {}: {}", name.trim_start(), steps.join(" → "))
            })
            .collect()
    }

    /// Every binding row of the pattern over the whole graph, `WHERE`
    /// applied — the initial materialization fold.
    pub fn all_rows(
        &self,
        ctx: &EvalContext<'_>,
        cfg: &EngineConfig,
    ) -> Result<Vec<Record>, EvalError> {
        self.run(ctx, cfg, Table::unit())
    }

    /// Every binding row that binds at least one node of `affected`,
    /// enumerated by anchoring the affected nodes at each node position
    /// and deduplicated by the complete binding tuple (exact — see the
    /// module docs). Evaluated against `ctx.graph`: call with the
    /// pre-update graph for retractions, the post-update graph for
    /// insertions.
    pub fn affected_rows(
        &self,
        ctx: &EvalContext<'_>,
        cfg: &EngineConfig,
        affected: &[NodeId],
    ) -> Result<Vec<Record>, EvalError> {
        let live: Vec<Record> = affected
            .iter()
            .filter(|&&d| ctx.graph.contains_node(d))
            .map(|&d| Record::new(vec![Value::Node(d)]))
            .collect();
        let (mut out, mut seen) = (Vec::new(), CountedMap::<Vec<Value>, ()>::default());
        for name in &self.node_names {
            let anchors = Table::new(Schema::new(vec![name.clone()]), live.clone());
            let rows = self.run(ctx, cfg, anchors)?.into_iter();
            out.extend(rows.filter(|r| seen.add(r.values().to_vec())));
        }
        Ok(out)
    }

    /// Plans the pattern over driving-table columns `bound`.
    fn plan(&self, graph: &PropertyGraph, bound: &[String], cfg: &EngineConfig) -> PlannedMatch {
        plan_match(graph, bound, slice::from_ref(&self.pattern), cfg)
    }

    /// Runs the pattern (plus `WHERE`) over `input` the way a `MATCH`
    /// clause runs, returning rows in binding-schema order.
    fn run(
        &self,
        ctx: &EvalContext<'_>,
        cfg: &EngineConfig,
        input: Table,
    ) -> Result<Vec<Record>, EvalError> {
        let planned = self.plan(ctx.graph, input.schema().names(), cfg);
        let mut seg = Segment::new(input.schema().clone());
        seg.push_match("MATCH", &planned, self.where_.as_ref());
        let raw = seg.run(ctx, cfg, input, &Collect, None, None)?;
        Ok(project_visible(raw, &self.schema).into_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_core::Params;
    use cypher_graph::PropertyGraph;
    use cypher_parser::parse_query;

    fn plan_of(src: &str) -> Option<DeltaPlan> {
        DeltaPlan::compile(&parse_query(src).unwrap())
    }

    #[test]
    fn classification_accepts_single_rigid_path() {
        assert!(plan_of("MATCH (a)-[r:KNOWS]->(b) RETURN a, b").is_some());
        assert!(plan_of("MATCH (a {k: 1})-->(b) WHERE b.v > 0 RETURN count(*) AS n").is_some());
        assert!(plan_of("MATCH (n:Person) RETURN n.name AS name").is_some());
    }

    #[test]
    fn classification_rejects_unmaintainable_shapes() {
        // Multiple patterns, var-length, OPTIONAL, named path, multiple
        // clauses, unions, pattern predicates.
        assert!(plan_of("MATCH (a)-->(b), (b)-->(c) RETURN a").is_none());
        assert!(plan_of("MATCH (a)-[*1..3]->(b) RETURN a").is_none());
        assert!(plan_of("OPTIONAL MATCH (a)-->(b) RETURN a").is_none());
        assert!(plan_of("MATCH p = (a)-->(b) RETURN a").is_none());
        assert!(plan_of("MATCH (a) MATCH (b) RETURN a, b").is_none());
        assert!(plan_of("MATCH (a) RETURN a UNION MATCH (b) RETURN b").is_none());
        assert!(plan_of("MATCH (a) WHERE (a)-->() RETURN a").is_none());
        assert!(plan_of("MATCH (a) RETURN [(a)-->(b) | b.v] AS vs").is_none());
    }

    #[test]
    fn affected_rows_match_brute_force_diff() {
        let params = Params::new();
        // The built-in cell: `tests/view_maintenance.rs` folds deltas at
        // the other cells.
        let cfg = EngineConfig::default();

        // Old graph: a chain with properties.
        let mut old = PropertyGraph::new();
        let n: Vec<_> = (0..6)
            .map(|i| old.add_node(&["P"], [("v", Value::int(i - 1))]))
            .collect();
        for w in n.windows(2) {
            old.add_rel(w[0], w[1], "KNOWS", []).unwrap();
        }
        // New graph: delete one edge (via clone-and-mutate), flip two
        // props. n4 is affected only through its property, so the 3-node
        // path's row (n3, n4, n5) binds an affected node in the middle
        // position alone.
        let mut new = old.clone();
        let changes = {
            let buf = cypher_graph::SharedChangeBuffer::new();
            new.set_change_sink(Box::new(buf.clone()));
            let rid = new.out_neighbors(n[1])[0].rel;
            new.delete_rel(rid).unwrap();
            let k = new.intern("v");
            new.set_node_prop(n[1], k, Value::int(100)).unwrap();
            new.set_node_prop(n[4], k, Value::int(-5)).unwrap();
            let _ = new.take_change_sink();
            buf.drain()
        };

        let affected = cypher_graph::affected_nodes(&changes, &old);
        let octx = EvalContext::new(&old, &params);
        let nctx = EvalContext::new(&new, &params);
        let keys = |rows: Vec<Record>| rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();

        for src in [
            "MATCH (a)-[r:KNOWS]->(b) WHERE b.v > 0 RETURN a",
            "MATCH (a)-[r:KNOWS]->(b)-[s:KNOWS]->(c) WHERE b.v > 0 RETURN a",
        ] {
            let plan = plan_of(src).unwrap();
            // Delta algebra: all_rows(old) − retractions + insertions must
            // be bag-equal to all_rows(new).
            let mut rows = keys(plan.all_rows(&octx, &cfg).unwrap());
            let retractions = keys(plan.affected_rows(&octx, &cfg, &affected).unwrap());
            assert!(!retractions.is_empty(), "{src}");
            for k in retractions {
                let pos = rows.iter().position(|x| *x == k).expect("retract unknown");
                rows.remove(pos);
            }
            rows.extend(keys(plan.affected_rows(&nctx, &cfg, &affected).unwrap()));
            let mut want = keys(plan.all_rows(&nctx, &cfg).unwrap());
            rows.sort();
            want.sort();
            assert_eq!(rows, want, "{src}");
        }
    }
}
