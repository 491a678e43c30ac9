//! Physical plan representation for `MATCH` pipelines and the plain
//! `WITH` / `UNWIND` steps that stream between them.
//!
//! The paper (Section 2, "Neo4j implementation") describes execution plans
//! that "contain largely the same operators as in relational database
//! engines and an additional operator called Expand … semantically very
//! similar to a relational join", which exploits the native adjacency of
//! the store. The plan language here mirrors that: scans produce node
//! bindings, `Expand` follows adjacency, filters check labels, properties
//! and general predicates, and `PathBind` materializes named paths.

use cypher_ast::expr::Expr;
use cypher_ast::pattern::Dir;
use cypher_ast::query::Return;
use cypher_core::project::ProjectionPlan;
use cypher_core::table::Schema;
use std::fmt;

/// Where a step's output column comes from / goes to. Columns whose name
/// starts with a space are *hidden*: they carry anonymous pattern elements
/// and bookkeeping, and are projected away when the clause finishes.
pub type Col = String;

/// One step of a `MATCH` pipeline. Steps are applied in order, each
/// transforming the stream of row batches (morsel-driven, a
/// [`crate::ops::RowBatch`] at a time).
#[derive(Clone, Debug, PartialEq)]
pub enum PlanStep {
    /// Bind `var` to every node of the graph.
    AllNodesScan {
        /// Output column.
        var: Col,
    },
    /// Bind `var` to every node with the given label, via the label
    /// secondary index.
    NodeIndexScan {
        /// Output column.
        var: Col,
        /// The label narrowing the scan.
        label: String,
    },
    /// Bind `var` to the nodes whose property `key` equals the constant
    /// `value`, seeking the exact-match property index (paper Section 5:
    /// "search optimizations through indexing of node data"). With a
    /// `label` the composite `(label, key, value)` index answers the seek
    /// directly; without one the key-only index is used.
    PropertyIndexSeek {
        /// Output column.
        var: Col,
        /// The label of the composite index used, if any.
        label: Option<String>,
        /// The indexed property key.
        key: String,
        /// The constant value expression (literal or parameter).
        value: Expr,
    },
    /// Bind `var` to every relationship of the graph (used only by the
    /// cartesian baseline plans of experiment E17).
    RelScan {
        /// Output column.
        var: Col,
    },
    /// The start node is already bound by the driving table: a `null`
    /// matches nothing, and any other non-node value is an error.
    Argument {
        /// The pre-bound column.
        var: Col,
    },
    /// Follow adjacency from `from`, binding `rel` and `to`.
    ///
    /// * single-hop (`lo == hi == 1`, `single == true`): `rel` is bound to
    ///   the relationship itself;
    /// * variable-length: `rel` is bound to the list of traversed
    ///   relationships, with `lo..=hi` hops (`hi == u64::MAX` for `∞`).
    ///
    /// If `to` (or `rel`) is already bound in the incoming schema the step
    /// degenerates to an expand-into (join filter). `exclude` lists the
    /// relationship columns already bound within this `MATCH`, enforcing
    /// relationship isomorphism positionally.
    Expand {
        /// Source node column (must be bound).
        from: Col,
        /// Relationship (or relationship-list) output column.
        rel: Col,
        /// Target node output column.
        to: Col,
        /// Pattern direction, as seen from `from`.
        dir: Dir,
        /// Admissible relationship types (empty = any).
        types: Vec<String>,
        /// Minimum hop count.
        lo: u64,
        /// Maximum hop count (`u64::MAX` = unbounded).
        hi: u64,
        /// True for the `I = nil` single-relationship form.
        single: bool,
        /// True when the planner walks this step right-to-left (the anchor
        /// sits at or beyond the pattern's right end). `dir` is already
        /// flipped accordingly; variable-length steps must additionally
        /// reverse the traversed relationship list so `rel` binds it in
        /// *pattern* order (left to right, as the formal semantics and
        /// `ProjectPath` both require).
        reversed: bool,
        /// Relationship columns that this step's matches must not reuse.
        exclude: Vec<Col>,
        /// Per-hop relationship property conditions (variable-length
        /// patterns check these on every traversed relationship;
        /// single-hop conditions are emitted as a separate `FilterProps`).
        props: Vec<(String, Expr)>,
    },
    /// Worst-case-optimal closing step for cyclic patterns: bind `to` to
    /// every node adjacent to **all** of the guards' already-bound `from`
    /// nodes, by a leapfrog intersection of their sorted adjacency lists
    /// (see `cypher_graph::adjacency`). One output row is emitted per
    /// combination of admissible relationships across the guards, so the
    /// step is a bag-semantics join, not a set intersection.
    MultiwayIntersect {
        /// Target node output column (unbound in the incoming schema).
        to: Col,
        /// The pattern edges being closed, one per already-bound
        /// neighbour. At least two (a single guard is an `Expand`).
        guards: Vec<IntersectGuard>,
        /// Labels `to` must carry, checked inline during intersection.
        labels: Vec<String>,
        /// Relationship columns bound earlier in this `MATCH` that the
        /// guards' matches must not reuse (relationship isomorphism).
        exclude: Vec<Col>,
    },
    /// Keep rows where the node in `var` has all the labels.
    FilterLabels {
        /// Node column.
        var: Col,
        /// Required labels.
        labels: Vec<String>,
    },
    /// Keep rows where the entity in `var` has each property equal to the
    /// expression's value (pattern property maps).
    FilterProps {
        /// Node or relationship column.
        var: Col,
        /// `key = expr` requirements.
        props: Vec<(String, Expr)>,
    },
    /// Keep rows where both endpoint columns agree with the relationship
    /// column (cartesian baseline only).
    FilterEndpoints {
        /// Relationship column.
        rel: Col,
        /// Source-side node column.
        from: Col,
        /// Target-side node column.
        to: Col,
        /// Direction.
        dir: Dir,
        /// Admissible types (empty = any).
        types: Vec<String>,
        /// Relationship columns that must differ from `rel`.
        exclude: Vec<Col>,
    },
    /// Keep rows where a general predicate is `true` (the `WHERE` of the
    /// clause).
    FilterExpr {
        /// The predicate.
        pred: Expr,
    },
    /// Node isomorphism: keep rows whose paths, walked through their
    /// alternating element columns (the spec `PathBind` takes) and taken
    /// together, visit no node twice. A zero-hop step's endpoint is its
    /// start's position, not a second one.
    DistinctNodes {
        /// Each path pattern's element columns.
        paths: Vec<Vec<PathElem>>,
    },
    /// Materialize a named path (`π/a`) from its bound elements.
    PathBind {
        /// Output column for the path value.
        var: Col,
        /// The alternating element columns.
        elements: Vec<PathElem>,
    },
    /// Replace every row by a plain `WITH` projection of it (no
    /// aggregate, `DISTINCT`, `ORDER BY`, `SKIP` or `LIMIT`).
    Project {
        /// The projection body.
        ret: Return,
        /// The fields in scope, in order (what `*` expands to).
        scope: Vec<Col>,
    },
    /// `UNWIND expr AS alias`: one row per list element, a single row
    /// for any other value (`null` included).
    Unwind {
        /// The unwound expression.
        expr: Expr,
        /// The output column.
        alias: Col,
    },
}

/// One edge closed by a [`PlanStep::MultiwayIntersect`]: the bound node
/// it connects, the relationship column it binds, and the admissibility
/// conditions of the pattern edge.
#[derive(Clone, Debug, PartialEq)]
pub struct IntersectGuard {
    /// Already-bound node column (the pattern neighbour).
    pub from: Col,
    /// Relationship output column this guard binds.
    pub rel: Col,
    /// Direction as seen from `from` (towards the intersected node).
    pub dir: Dir,
    /// Admissible relationship types (empty = any).
    pub types: Vec<String>,
    /// Relationship property conditions (`key = expr`), checked inline.
    pub props: Vec<(String, Expr)>,
}

impl PlanStep {
    /// True for the *source* steps — the scans and seeks that multiply the
    /// driving table by a materialized item list (`AllNodesScan`,
    /// `NodeIndexScan`, `PropertyIndexSeek`, `RelScan`). Sources are where
    /// the morsel-driven executor injects parallelism: their item list is
    /// partitioned into morsels and dispatched across the worker pool (see
    /// `ops::drive`).
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            PlanStep::AllNodesScan { .. }
                | PlanStep::NodeIndexScan { .. }
                | PlanStep::PropertyIndexSeek { .. }
                | PlanStep::RelScan { .. }
        )
    }
}

/// One element of a named path, referencing columns bound earlier in the
/// pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PathElem {
    /// A node column.
    Node(Col),
    /// A single-relationship column.
    Rel(Col),
    /// A relationship-list column (variable-length step).
    RelList(Col),
}

/// The compiled plan for one `MATCH` clause.
#[derive(Clone, Debug, Default)]
pub struct MatchPlan {
    /// The pipeline steps, in execution order.
    pub steps: Vec<PlanStep>,
    /// Estimated output cardinality (cost-model output, for EXPLAIN).
    pub estimated_rows: f64,
    /// The cost model's running estimate *after* each step — one entry
    /// per step, printed on the step's EXPLAIN line and compared against
    /// actual counts by PROFILE.
    pub step_estimates: Vec<f64>,
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStep::AllNodesScan { var } => write!(f, "AllNodesScan({var})"),
            PlanStep::NodeIndexScan { var, label } => {
                write!(f, "NodeIndexScan({var}:{label})")
            }
            PlanStep::PropertyIndexSeek {
                var,
                label,
                key,
                value,
            } => match label {
                Some(l) => write!(f, "PropertyIndexSeek({var}:{l}.{key} = {value})"),
                None => write!(f, "PropertyIndexSeek({var}.{key} = {value})"),
            },
            PlanStep::RelScan { var } => write!(f, "RelScan({var})"),
            PlanStep::Argument { var } => write!(f, "Argument({var})"),
            PlanStep::Expand {
                from,
                rel,
                to,
                dir,
                types,
                lo,
                hi,
                single,
                ..
            } => {
                let arrow = match dir {
                    Dir::Out => "->",
                    Dir::In => "<-",
                    Dir::Both => "--",
                };
                let t = if types.is_empty() {
                    String::new()
                } else {
                    format!(":{}", types.join("|"))
                };
                let range = if *single {
                    String::new()
                } else if *hi == u64::MAX {
                    format!("*{lo}..")
                } else {
                    format!("*{lo}..{hi}")
                };
                write!(f, "Expand({from}){arrow}[{rel}{t}{range}]({to})")
            }
            PlanStep::MultiwayIntersect {
                to, guards, labels, ..
            } => {
                let target = if labels.is_empty() {
                    to.clone()
                } else {
                    format!("{to}:{}", labels.join(":"))
                };
                let gs: Vec<String> = guards
                    .iter()
                    .map(|g| {
                        let t = if g.types.is_empty() {
                            String::new()
                        } else {
                            format!(":{}", g.types.join("|"))
                        };
                        match g.dir {
                            Dir::Out => format!("({})-[{}{t}]->", g.from, g.rel),
                            Dir::In => format!("({})<-[{}{t}]-", g.from, g.rel),
                            Dir::Both => format!("({})-[{}{t}]-", g.from, g.rel),
                        }
                    })
                    .collect();
                write!(f, "MultiwayIntersect({} ({target}))", gs.join(" & "))
            }
            PlanStep::FilterLabels { var, labels } => {
                write!(f, "Filter({var}:{})", labels.join(":"))
            }
            PlanStep::FilterProps { var, props } => {
                let ks: Vec<&str> = props.iter().map(|(k, _)| k.as_str()).collect();
                write!(f, "Filter({var}.{{{}}})", ks.join(", "))
            }
            PlanStep::FilterEndpoints { rel, from, to, .. } => {
                write!(f, "FilterEndpoints({from})-[{rel}]-({to})")
            }
            PlanStep::FilterExpr { pred } => write!(f, "Filter({pred})"),
            PlanStep::DistinctNodes { paths } => {
                let path = |els: &Vec<PathElem>| {
                    let el = |e: &PathElem| match e {
                        PathElem::Node(c) => format!("({c})"),
                        PathElem::Rel(c) => format!("-[{c}]-"),
                        PathElem::RelList(c) => format!("-[{c}*]-"),
                    };
                    els.iter().map(el).collect::<String>()
                };
                let paths: Vec<String> = paths.iter().map(path).collect();
                write!(f, "DistinctNodes({})", paths.join(", "))
            }
            PlanStep::PathBind { var, .. } => write!(f, "ProjectPath({var})"),
            PlanStep::Project { ret, scope } => {
                let plan = ProjectionPlan::compile(ret, &Schema::new(scope.clone()));
                let names = plan.map(|p| p.out_schema().names().join(", "));
                write!(f, "Project({})", names.unwrap_or_default())
            }
            PlanStep::Unwind { expr, alias } => write!(f, "Unwind({expr} AS {alias})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let s = PlanStep::Expand {
            from: "a".into(),
            rel: "r".into(),
            to: "b".into(),
            dir: Dir::Out,
            types: vec!["KNOWS".into()],
            lo: 1,
            hi: 1,
            single: true,
            reversed: false,
            exclude: vec![],
            props: vec![],
        };
        assert_eq!(s.to_string(), "Expand(a)->[r:KNOWS](b)");
        let v = PlanStep::Expand {
            from: "a".into(),
            rel: " anon0".into(),
            to: "b".into(),
            dir: Dir::In,
            types: vec![],
            lo: 1,
            hi: u64::MAX,
            single: false,
            reversed: true,
            exclude: vec![],
            props: vec![],
        };
        assert_eq!(v.to_string(), "Expand(a)<-[ anon0*1..](b)");
        assert_eq!(
            PlanStep::NodeIndexScan {
                var: "r".into(),
                label: "Researcher".into()
            }
            .to_string(),
            "NodeIndexScan(r:Researcher)"
        );
        assert_eq!(
            PlanStep::PropertyIndexSeek {
                var: "n".into(),
                label: Some("Person".into()),
                key: "name".into(),
                value: Expr::var("x".to_string()),
            }
            .to_string(),
            "PropertyIndexSeek(n:Person.name = x)"
        );
        let m = PlanStep::MultiwayIntersect {
            to: "c".into(),
            guards: vec![
                IntersectGuard {
                    from: "a".into(),
                    rel: "r1".into(),
                    dir: Dir::Out,
                    types: vec!["T".into()],
                    props: vec![],
                },
                IntersectGuard {
                    from: "b".into(),
                    rel: "r2".into(),
                    dir: Dir::Both,
                    types: vec![],
                    props: vec![],
                },
            ],
            labels: vec!["L".into()],
            exclude: vec![],
        };
        assert_eq!(
            m.to_string(),
            "MultiwayIntersect((a)-[r1:T]-> & (b)-[r2]- (c:L))"
        );
        assert!(!m.is_source());
    }
}
