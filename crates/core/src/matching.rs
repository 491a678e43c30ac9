//! Pattern matching (paper Section 4.2).
//!
//! Implements the satisfaction relation `(p, G, u) ⊨ π` and the bag
//!
//! ```text
//! match(π̄, G, u) = ⊎_{p̄ in G, π̄′ ∈ rigid(π̄)} { u′ | dom(u′) = free(π̄) − dom(u)
//!                                                    and (p̄, G, u·u′) ⊨ π̄′ }
//! ```
//!
//! of Equation (1), under the morphism configuration of Section 8.
//!
//! Rather than literally materializing the (possibly infinite) set
//! `rigid(π)`, variable-length relationship patterns are evaluated by a
//! depth-first enumeration of hop counts within the declared range. For a
//! fixed tuple of paths, the hop-count split determines the rigid pattern
//! uniquely, so the DFS enumerates exactly the `(p̄, π̄′)` combinations of
//! Equation (1) — each contributing one occurrence to the output bag. This
//! equivalence is checked against an explicit rigid-expansion oracle in the
//! property-test suite (experiment E13).
//!
//! Relationship isomorphism — "as a precondition for a path p to satisfy
//! any pattern … all relationships in p are distinct", extended to tuples
//! by "no relationship id occurs in more than one path in p̄" — is enforced
//! positionally with a used-relationship set threaded through the search.

use crate::error::EvalError;
use crate::expr::{eval_expr, VarLookup};
use crate::morphism::Morphism;
use crate::EvalContext;
use cypher_ast::pattern::{Dir, NodePattern, PathPattern, RelPattern};
use cypher_graph::fxhash::FxHashSet;
use cypher_graph::{Direction, NodeId, Path, RelId, Value};

/// Matching configuration: the morphism mode plus the hop cap applied to
/// unbounded variable-length patterns under homomorphism (where result sets
/// would otherwise be infinite — the `(x)-[*0..]->(x)` discussion of §4.2).
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Which elements may repeat in a match.
    pub morphism: Morphism,
    /// Upper bound substituted for `∞` under [`Morphism::Homomorphism`].
    pub var_length_cap: u64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            morphism: Morphism::EdgeIsomorphism,
            var_length_cap: 12,
        }
    }
}

/// One match: the new bindings `u′` with `dom(u′) = free(π̄) − dom(u)`, in
/// a deterministic (pattern-traversal) order.
pub type MatchRow = Vec<(String, Value)>;

/// Computes the bag `match(π̄, G, u)`.
pub fn match_patterns(
    ctx: &EvalContext<'_>,
    u: &dyn VarLookup,
    patterns: &[PathPattern],
) -> Result<Vec<MatchRow>, EvalError> {
    let mut st = MatchState::new(*ctx, u, false);
    st.match_tuple(patterns, 0)?;
    Ok(st.out)
}

/// True iff `match(π̄, G, u)` is non-empty (used by existential pattern
/// predicates in `WHERE`); stops at the first witness.
pub fn has_match(
    ctx: &EvalContext<'_>,
    u: &dyn VarLookup,
    patterns: &[PathPattern],
) -> Result<bool, EvalError> {
    let mut st = MatchState::new(*ctx, u, true);
    st.match_tuple(patterns, 0)?;
    Ok(!st.out.is_empty())
}

/// The free variables of a pattern tuple not bound by the driving record:
/// `free(π̄) − dom(u)`, in binding order. These are the fields `MATCH`
/// appends to the table (and the fields `OPTIONAL MATCH` nulls out when
/// nothing matches).
pub fn unbound_free_vars(patterns: &[PathPattern], bound: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    for p in patterns {
        for v in p.free_vars() {
            if !bound(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

struct AccView<'a> {
    acc: &'a [(String, Value)],
    base: &'a dyn VarLookup,
}

impl VarLookup for AccView<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.acc
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| self.base.lookup(name))
    }
}

struct MatchState<'a> {
    ctx: EvalContext<'a>,
    base: &'a dyn VarLookup,
    acc: Vec<(String, Value)>,
    used_rels: FxHashSet<RelId>,
    used_nodes: FxHashSet<NodeId>,
    out: Vec<MatchRow>,
    stop_at_first: bool,
}

/// What `try_bind` did, so it can be undone on backtrack.
enum Bound {
    /// The name was absent and has been pushed onto `acc`.
    Fresh,
    /// The name was already bound to an equal value (or was `nil`).
    Existing,
}

impl<'a> MatchState<'a> {
    fn new(ctx: EvalContext<'a>, base: &'a dyn VarLookup, stop_at_first: bool) -> Self {
        MatchState {
            ctx,
            base,
            acc: Vec::new(),
            used_rels: FxHashSet::default(),
            used_nodes: FxHashSet::default(),
            out: Vec::new(),
            stop_at_first,
        }
    }

    fn done(&self) -> bool {
        self.stop_at_first && !self.out.is_empty()
    }

    fn eval(&self, e: &cypher_ast::expr::Expr) -> Result<Value, EvalError> {
        let view = AccView {
            acc: &self.acc,
            base: self.base,
        };
        eval_expr(&self.ctx, &view, e)
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        AccView {
            acc: &self.acc,
            base: self.base,
        }
        .lookup(name)
    }

    /// Binds `name` to `value`, or checks consistency with an existing
    /// binding. Returns `None` when the pattern cannot match.
    fn try_bind(&mut self, name: &Option<String>, value: Value) -> Option<Bound> {
        let Some(name) = name else {
            return Some(Bound::Existing);
        };
        match self.lookup(name) {
            Some(existing) => {
                if existing.equivalent(&value) {
                    Some(Bound::Existing)
                } else {
                    None
                }
            }
            None => {
                self.acc.push((name.clone(), value));
                Some(Bound::Fresh)
            }
        }
    }

    fn unbind(&mut self, b: Bound) {
        if matches!(b, Bound::Fresh) {
            let popped = self.acc.pop();
            debug_assert!(popped.is_some());
        }
    }

    /// Checks the label and property conditions of a node pattern
    /// `χ = (a, L, P)` at node `n` (the name is handled by `try_bind`):
    /// `L ⊆ λ(n)` and `[[ι(n, k) = P(k)]] = true` for every defined `k`.
    fn sat_node_conditions(&self, n: NodeId, chi: &NodePattern) -> Result<bool, EvalError> {
        let g = self.ctx.graph;
        for l in &chi.labels {
            match g.interner().get(l) {
                Some(sym) if g.has_label(n, sym) => {}
                _ => return Ok(false),
            }
        }
        for (k, e) in &chi.props {
            let expected = self.eval(e)?;
            let actual = g.interner().get(k).and_then(|sym| g.node_prop(n, sym));
            match actual {
                Some(v) if v.equals(&expected).is_true() => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Checks the type and property conditions of a relationship pattern at
    /// relationship `r` — items (c′) and (d′) of the satisfaction
    /// definition.
    fn sat_rel_conditions(&self, r: RelId, rho: &RelPattern) -> Result<bool, EvalError> {
        let g = self.ctx.graph;
        if !rho.types.is_empty() {
            let t = g.rel_type(r).expect("live relationship");
            let ok = rho
                .types
                .iter()
                .any(|name| g.interner().get(name) == Some(t));
            if !ok {
                return Ok(false);
            }
        }
        for (k, e) in &rho.props {
            let expected = self.eval(e)?;
            let actual = g.interner().get(k).and_then(|sym| g.rel_prop(r, sym));
            match actual {
                Some(v) if v.equals(&expected).is_true() => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    // -- the search ----------------------------------------------------------

    fn match_tuple(&mut self, patterns: &[PathPattern], idx: usize) -> Result<(), EvalError> {
        if self.done() {
            return Ok(());
        }
        if idx == patterns.len() {
            self.out.push(self.acc.clone());
            return Ok(());
        }
        let pat = &patterns[idx];
        // Start candidates: a bound name pins the node; otherwise a label
        // narrows the scan via the label index; otherwise scan all nodes.
        let candidates: Vec<NodeId> = match &pat.start.name {
            Some(name) => match self.lookup(name) {
                Some(Value::Node(n)) => vec![n],
                Some(Value::Null) => return Ok(()),
                Some(other) => {
                    return Err(EvalError::new(format!(
                        "variable {name} is bound to {} but used as a node pattern",
                        other.type_name()
                    )))
                }
                None => self.start_scan(&pat.start),
            },
            None => self.start_scan(&pat.start),
        };
        for n in candidates {
            if self.done() {
                return Ok(());
            }
            if !self.ctx.graph.contains_node(n) {
                continue;
            }
            let Some(guard) = self.try_bind(&pat.start.name, Value::Node(n)) else {
                continue;
            };
            let sat = self.sat_node_conditions(n, &pat.start)?;
            let node_fresh = if sat && self.ctx.config.morphism.nodes_distinct() {
                if self.used_nodes.contains(&n) {
                    false
                } else {
                    self.used_nodes.insert(n);
                    true
                }
            } else {
                false
            };
            let node_ok = !self.ctx.config.morphism.nodes_distinct() || node_fresh;
            if sat && node_ok {
                let path = Path::single(n);
                self.match_steps(patterns, idx, 0, n, path)?;
            }
            if node_fresh {
                self.used_nodes.remove(&n);
            }
            self.unbind(guard);
        }
        Ok(())
    }

    fn start_scan(&self, chi: &NodePattern) -> Vec<NodeId> {
        let g = self.ctx.graph;
        // Pick the most selective resolvable label.
        let mut best: Option<&[NodeId]> = None;
        for l in &chi.labels {
            match g.interner().get(l) {
                Some(sym) => {
                    let list = g.nodes_with_label(sym);
                    if best.map(|b| list.len() < b.len()).unwrap_or(true) {
                        best = Some(list);
                    }
                }
                // A label that was never interned labels no node.
                None => return Vec::new(),
            }
        }
        match best {
            Some(list) => list.to_vec(),
            None => g.nodes().collect(),
        }
    }

    fn match_steps(
        &mut self,
        patterns: &[PathPattern],
        pat_idx: usize,
        step_idx: usize,
        current: NodeId,
        path: Path,
    ) -> Result<(), EvalError> {
        if self.done() {
            return Ok(());
        }
        let pat = &patterns[pat_idx];
        if step_idx == pat.steps.len() {
            // Whole path matched: bind the path name (π/a) if present.
            let Some(guard) = self.try_bind(&pat.name, Value::Path(path)) else {
                return Ok(());
            };
            self.match_tuple(patterns, pat_idx + 1)?;
            self.unbind(guard);
            return Ok(());
        }
        let (rho, chi) = &pat.steps[step_idx];
        if rho.range.is_single() {
            self.match_single_hop(patterns, pat_idx, step_idx, current, path, rho, chi)
        } else {
            let (lo, hi) = rho.range.bounds();
            let hi = self.effective_upper(hi);
            self.var_length_dfs(
                patterns,
                pat_idx,
                step_idx,
                current,
                path,
                rho,
                chi,
                lo,
                hi,
                0,
                Vec::new(),
            )
        }
    }

    /// The `I = nil` case: exactly one relationship, bound directly (item
    /// (a″): `u(a) = r₁`, not a singleton list).
    #[allow(clippy::too_many_arguments)]
    fn match_single_hop(
        &mut self,
        patterns: &[PathPattern],
        pat_idx: usize,
        step_idx: usize,
        current: NodeId,
        path: Path,
        rho: &RelPattern,
        chi: &NodePattern,
    ) -> Result<(), EvalError> {
        let dir = dir_of(rho.dir);
        let hops = self.ctx.graph.expand(current, dir);
        for (r, next) in hops {
            if self.done() {
                return Ok(());
            }
            if self.ctx.config.morphism.rels_distinct() && self.used_rels.contains(&r) {
                continue;
            }
            if !self.sat_rel_conditions(r, rho)? {
                continue;
            }
            let Some(rel_guard) = self.try_bind(&rho.name, Value::Rel(r)) else {
                continue;
            };
            self.step_to(patterns, pat_idx, step_idx, &path, r, next, chi)?;
            self.unbind(rel_guard);
        }
        Ok(())
    }

    /// Common tail of a hop: bind the target node pattern, mark usage,
    /// extend the path, recurse into the next step.
    #[allow(clippy::too_many_arguments)]
    fn step_to(
        &mut self,
        patterns: &[PathPattern],
        pat_idx: usize,
        step_idx: usize,
        path: &Path,
        r: RelId,
        next: NodeId,
        chi: &NodePattern,
    ) -> Result<(), EvalError> {
        let Some(node_guard) = self.try_bind(&chi.name, Value::Node(next)) else {
            return Ok(());
        };
        let mut keep = self.sat_node_conditions(next, chi)?;
        let mut node_marked = false;
        if keep && self.ctx.config.morphism.nodes_distinct() {
            if self.used_nodes.contains(&next) {
                keep = false;
            } else {
                self.used_nodes.insert(next);
                node_marked = true;
            }
        }
        if keep {
            let rel_marked = self.ctx.config.morphism.rels_distinct();
            if rel_marked {
                self.used_rels.insert(r);
            }
            let mut new_path = path.clone();
            new_path.push(r, next);
            self.match_steps(patterns, pat_idx, step_idx + 1, next, new_path)?;
            if rel_marked {
                self.used_rels.remove(&r);
            }
        }
        if node_marked {
            self.used_nodes.remove(&next);
        }
        self.unbind(node_guard);
        Ok(())
    }

    fn effective_upper(&self, hi: u64) -> u64 {
        if hi != u64::MAX {
            return hi;
        }
        match self.ctx.config.morphism {
            // Relationship isomorphism bounds path length by |R|.
            Morphism::EdgeIsomorphism | Morphism::NodeIsomorphism => {
                self.ctx.graph.rel_count() as u64
            }
            // Homomorphism would be infinite; clamp (documented).
            Morphism::Homomorphism => self.ctx.config.var_length_cap,
        }
    }

    /// Variable-length relationship pattern: DFS over hop counts in
    /// `[lo, hi]`. Each completed traversal corresponds to exactly one
    /// rigid expansion `ρ′ = (d, a, T, P, (k, k))` with `k` hops, so each
    /// is emitted once — reproducing the bag multiplicities of Equation (1)
    /// (the duplicate † rows of the Section 3 walkthrough arise here).
    #[allow(clippy::too_many_arguments)]
    fn var_length_dfs(
        &mut self,
        patterns: &[PathPattern],
        pat_idx: usize,
        step_idx: usize,
        current: NodeId,
        path: Path,
        rho: &RelPattern,
        chi: &NodePattern,
        lo: u64,
        hi: u64,
        k: u64,
        rels_so_far: Vec<RelId>,
    ) -> Result<(), EvalError> {
        if self.done() {
            return Ok(());
        }
        if k >= lo {
            // Accept here: bind the list of traversed relationships (item
            // (a′): `u(a) = list(r₁, …, rₘ)`, the empty list for m = 0).
            // A failed endpoint bind (the variable is pinned to another
            // node) only skips *this* acceptance — longer traversals may
            // still reach the pinned node, so the hop enumeration below
            // must continue regardless.
            let list = Value::List(rels_so_far.iter().map(|&r| Value::Rel(r)).collect());
            if let Some(rel_guard) = self.try_bind(&rho.name, list) {
                if let Some(node_guard) = self.try_bind(&chi.name, Value::Node(current)) {
                    // Under node isomorphism the endpoint was already
                    // marked used when we stepped onto it (or it is the
                    // start node); nothing further to check here.
                    if self.sat_node_conditions(current, chi)? {
                        self.match_steps(patterns, pat_idx, step_idx + 1, current, path.clone())?;
                    }
                    self.unbind(node_guard);
                }
                self.unbind(rel_guard);
            }
        }
        if k >= hi || self.done() {
            return Ok(());
        }
        let dir = dir_of(rho.dir);
        let hops = self.ctx.graph.expand(current, dir);
        for (r, next) in hops {
            if self.done() {
                return Ok(());
            }
            if self.ctx.config.morphism.rels_distinct() && self.used_rels.contains(&r) {
                continue;
            }
            if !self.sat_rel_conditions(r, rho)? {
                continue;
            }
            // Intermediate nodes of a variable-length pattern are
            // anonymous positions: under node isomorphism they must be
            // fresh.
            let mut node_marked = false;
            if self.ctx.config.morphism.nodes_distinct() {
                if self.used_nodes.contains(&next) {
                    continue;
                }
                self.used_nodes.insert(next);
                node_marked = true;
            }
            let rel_marked = self.ctx.config.morphism.rels_distinct();
            if rel_marked {
                self.used_rels.insert(r);
            }
            let mut new_path = path.clone();
            new_path.push(r, next);
            let mut new_rels = rels_so_far.clone();
            new_rels.push(r);
            self.var_length_dfs(
                patterns,
                pat_idx,
                step_idx,
                next,
                new_path,
                rho,
                chi,
                lo,
                hi,
                k + 1,
                new_rels,
            )?;
            if rel_marked {
                self.used_rels.remove(&r);
            }
            if node_marked {
                self.used_nodes.remove(&next);
            }
        }
        Ok(())
    }
}

/// The graph direction a pattern arrow walks.
pub fn dir_of(d: Dir) -> Direction {
    match d {
        Dir::Out => Direction::Outgoing,
        Dir::In => Direction::Incoming,
        Dir::Both => Direction::Both,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::NoVars;
    use crate::{EvalContext, Params};
    use cypher_graph::PropertyGraph;
    use cypher_parser::parse_pattern;

    /// The property graph of Figure 4: teachers n1, n3, n4, student n2,
    /// with KNOWS edges n1→n2, n2→n3, n3→n4.
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

    fn run(g: &PropertyGraph, pat: &str) -> Vec<MatchRow> {
        let params = Params::new();
        let ctx = EvalContext::new(g, &params);
        let p = parse_pattern(pat).unwrap();
        match_patterns(&ctx, &NoVars, std::slice::from_ref(&p)).unwrap()
    }

    fn rows_for<'r>(rows: &'r [MatchRow], var: &str) -> Vec<&'r Value> {
        rows.iter()
            .map(|r| &r.iter().find(|(n, _)| n == var).unwrap().1)
            .collect()
    }

    #[test]
    fn example_4_2_node_patterns() {
        // (x:Teacher) matches n1, n3, n4; (y) matches all four nodes.
        let g = figure4();
        let rows = run(&g, "(x:Teacher)");
        assert_eq!(rows.len(), 3);
        let rows_any = run(&g, "(y)");
        assert_eq!(rows_any.len(), 4);
    }

    #[test]
    fn example_4_3_rigid_knows2() {
        // (x:Teacher)-[:KNOWS*2]->(y): only x=n1, y=n3 via n1 r1 n2 r2 n3.
        let g = figure4();
        let rows = run(&g, "(x:Teacher)-[:KNOWS*2]->(y)");
        assert_eq!(rows.len(), 1);
        let xs = rows_for(&rows, "x");
        let ys = rows_for(&rows, "y");
        assert_eq!(xs[0], &Value::Node(NodeId(0)));
        assert_eq!(ys[0], &Value::Node(NodeId(2)));
    }

    #[test]
    fn example_4_4_variable_length_named_middle() {
        // (x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher):
        // satisfied by p1 (z=n2, y=n3) and p2 under two assignments
        // (z=n2, y=n4) and (z=n3, y=n4).
        let g = figure4();
        let rows = run(
            &g,
            "(x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher)",
        );
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn example_4_5_bag_multiplicity() {
        // With the middle node anonymous, the path n1…n4 satisfies the
        // pattern two ways (splits 1+2 and 2+1): two copies of the same
        // assignment are added to the bag.
        let g = figure4();
        let rows = run(
            &g,
            "(x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher)",
        );
        assert_eq!(rows.len(), 3); // (n1,n3) once + (n1,n4) twice
        let n4 = Value::Node(NodeId(3));
        let to_n4 = rows
            .iter()
            .filter(|r| r.iter().any(|(n, v)| n == "y" && v.equivalent(&n4)))
            .count();
        assert_eq!(to_n4, 2, "two copies of u for the n1→n4 path");
    }

    #[test]
    fn example_4_6_match_with_driving_table() {
        // [[MATCH (x)-[:KNOWS*]->(y)]] on T = {(x: n1), (x: n3)}.
        let g = figure4();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let p = parse_pattern("(x)-[:KNOWS*]->(y)").unwrap();

        let schema = crate::Schema::new(vec!["x".into()]);
        let mut all = Vec::new();
        for start in [NodeId(0), NodeId(2)] {
            let row = crate::Record::new(vec![Value::Node(start)]);
            let b = crate::Bindings::new(&schema, &row);
            let rows = match_patterns(&ctx, &b, std::slice::from_ref(&p)).unwrap();
            for r in rows {
                all.push((start, r));
            }
        }
        // Expected: (n1,n2), (n1,n3), (n1,n4), (n3,n4).
        assert_eq!(all.len(), 4);
        let ys: Vec<NodeId> = all
            .iter()
            .map(
                |(_, r)| match &r.iter().find(|(n, _)| n == "y").unwrap().1 {
                    Value::Node(n) => *n,
                    _ => panic!(),
                },
            )
            .collect();
        assert!(ys.contains(&NodeId(1)));
        assert!(ys.contains(&NodeId(2)));
        assert_eq!(ys.iter().filter(|&&n| n == NodeId(3)).count(), 2);
    }

    #[test]
    fn relationship_isomorphism_bounds_self_loop() {
        // §4.2 complexity discussion: single node with a self-loop,
        // pattern (x)-[*0..]->(x): exactly two matches (0 hops and 1 hop).
        let mut g = PropertyGraph::new();
        let n = g.add_node(&[], []);
        g.add_rel(n, n, "LOOP", []).unwrap();
        let rows = run(&g, "(x)-[*0..]->(x)");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn homomorphism_unbounded_is_clamped() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(&[], []);
        g.add_rel(n, n, "LOOP", []).unwrap();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params).with_config(MatchConfig {
            morphism: Morphism::Homomorphism,
            var_length_cap: 5,
        });
        let p = parse_pattern("(x)-[*0..]->(x)").unwrap();
        let rows = match_patterns(&ctx, &NoVars, std::slice::from_ref(&p)).unwrap();
        // 0..=5 hops → 6 matches under homomorphism with cap 5.
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn node_isomorphism_rejects_revisits() {
        // Triangle a→b→c→a; a 3-step pattern must wrap around to the start
        // node, which node isomorphism forbids but edge isomorphism allows
        // (three distinct edges).
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let b = g.add_node(&[], []);
        let c = g.add_node(&[], []);
        g.add_rel(a, b, "E", []).unwrap();
        g.add_rel(b, c, "E", []).unwrap();
        g.add_rel(c, a, "E", []).unwrap();
        let params = Params::new();
        let p = parse_pattern("(p)-->(q)-->(r)-->(s)").unwrap();

        let edge_ctx = EvalContext::new(&g, &params);
        let edge_rows = match_patterns(&edge_ctx, &NoVars, std::slice::from_ref(&p)).unwrap();
        assert_eq!(edge_rows.len(), 3, "one full cycle from each start node");

        let node_ctx = EvalContext::new(&g, &params).with_config(MatchConfig {
            morphism: Morphism::NodeIsomorphism,
            var_length_cap: 12,
        });
        let node_rows = match_patterns(&node_ctx, &NoVars, std::slice::from_ref(&p)).unwrap();
        assert_eq!(node_rows.len(), 0, "every 3-step walk revisits a node");

        // A 2-step pattern visits three distinct nodes and matches under
        // both morphisms.
        let p2 = parse_pattern("(p)-->(q)-->(r)").unwrap();
        let e2 = match_patterns(&edge_ctx, &NoVars, std::slice::from_ref(&p2)).unwrap();
        let n2 = match_patterns(&node_ctx, &NoVars, std::slice::from_ref(&p2)).unwrap();
        assert_eq!(e2.len(), 3);
        assert_eq!(n2.len(), 3);
    }

    #[test]
    fn tuple_patterns_share_edge_exclusion() {
        // Two patterns in one MATCH may not bind the same relationship.
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let b = g.add_node(&[], []);
        g.add_rel(a, b, "E", []).unwrap();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let p1 = parse_pattern("(a)-[r1]->(b)").unwrap();
        let p2 = parse_pattern("(c)-[r2]->(d)").unwrap();
        let rows = match_patterns(&ctx, &NoVars, &[p1, p2]).unwrap();
        assert_eq!(
            rows.len(),
            0,
            "only one edge exists; tuples need two distinct"
        );
    }

    #[test]
    fn property_conditions_filter() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&["P"], [("age", Value::int(30))]);
        let _b = g.add_node(&["P"], [("age", Value::int(40))]);
        let rows = run(&g, "(x:P {age: 30})");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows_for(&rows, "x")[0], &Value::Node(a));
        // Missing property never matches.
        let rows2 = run(&g, "(x:P {nope: 1})");
        assert_eq!(rows2.len(), 0);
    }

    #[test]
    fn bound_rel_variable_joins() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let b = g.add_node(&[], []);
        g.add_rel(a, b, "E", []).unwrap();
        g.add_rel(a, b, "E", []).unwrap();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        // Same relationship variable in both patterns of the tuple: it
        // would have to bind one edge twice, which relationship
        // isomorphism forbids.
        let p1 = parse_pattern("(a)-[r]->(b)").unwrap();
        let p2 = parse_pattern("(c)-[r]->(d)").unwrap();
        let rows = match_patterns(&ctx, &NoVars, &[p1, p2]).unwrap();
        assert_eq!(rows.len(), 0);
    }

    #[test]
    fn named_path_binds_path_value() {
        let g = figure4();
        let rows = run(&g, "p = (x:Student)-[:KNOWS]->(y)");
        assert_eq!(rows.len(), 1);
        let p = rows_for(&rows, "p")[0];
        match p {
            Value::Path(path) => {
                assert_eq!(path.len(), 1);
                assert_eq!(path.start(), NodeId(1));
                assert_eq!(path.end(), NodeId(2));
            }
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn undirected_matches_both_orientations() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&[], []);
        let b = g.add_node(&[], []);
        g.add_rel(a, b, "E", []).unwrap();
        let rows = run(&g, "(x)-[r]-(y)");
        // Each orientation is a distinct match: (a,b) and (b,a).
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unbound_free_vars_subtracts_domain() {
        let p = parse_pattern("(x)-[r]->(y)").unwrap();
        let vars = unbound_free_vars(std::slice::from_ref(&p), &|n| n == "x");
        assert_eq!(vars, vec!["r", "y"]);
    }

    #[test]
    fn anonymous_patterns_add_no_bindings() {
        let g = figure4();
        let rows = run(&g, "()-[:KNOWS]->()");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn zero_length_var_pattern() {
        // (x)-[*0..0]->(y) binds y = x for every node.
        let g = figure4();
        let rows = run(&g, "(x)-[*0..0]->(y)");
        assert_eq!(rows.len(), 4);
        for r in &rows {
            let x = &r.iter().find(|(n, _)| n == "x").unwrap().1;
            let y = &r.iter().find(|(n, _)| n == "y").unwrap().1;
            assert!(x.equivalent(y));
        }
    }
}
