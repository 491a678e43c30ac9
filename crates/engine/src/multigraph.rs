//! Multiple named graphs and query composition (paper Section 6, Cypher
//! 10): `FROM GRAPH name [AT '…']` switches the source graph for the
//! following reading clauses, and `RETURN GRAPH name OF pattern_tuple`
//! constructs a new named graph from the final driving table and registers
//! it in the catalog — so that "Cypher queries \[can\] be composed as a
//! chain of elementary queries", as in Example 6.1.
//!
//! Simplifications relative to the full proposal: the `AT "<uri>"`
//! locator is accepted but graphs are resolved by name in the in-process
//! [`Catalog`]; the result of a query is either a table or a graph name
//! (not a combined table-graphs value).

use crate::exec::{exec_match, EngineConfig};
use cypher_ast::pattern::{Dir, PathPattern};
use cypher_ast::query::{Clause, Query, SingleQuery};
use cypher_core::clauses::{apply_projection, apply_unwind, apply_where};
use cypher_core::error::{err, EvalError};
use cypher_core::expr::Bindings;
use cypher_core::table::{Schema, Table};
use cypher_core::{EvalContext, Params, VarLookup};
use cypher_graph::fxhash::FxHashMap;
use cypher_graph::{Catalog, NodeId, PropertyGraph, Symbol, Value};

/// The outcome of a composed query: a table (ordinary `RETURN`) or the
/// name of a newly constructed graph (`RETURN GRAPH`).
#[derive(Debug)]
pub enum MultiResult {
    /// A projected table.
    Table(Table),
    /// The name of the graph registered in the catalog.
    Graph(String),
}

/// Executes a read/construct query against a catalog of named graphs.
/// `default_graph` names the graph used before any `FROM GRAPH` clause.
pub fn execute_on_catalog(
    catalog: &mut Catalog,
    default_graph: &str,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<MultiResult, EvalError> {
    let Query::Single(sq) = q else {
        return err("UNION is not supported in multigraph composition");
    };
    exec_single(catalog, default_graph, sq, params, cfg)
}

fn exec_single(
    catalog: &mut Catalog,
    default_graph: &str,
    sq: &SingleQuery,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<MultiResult, EvalError> {
    let mut current = default_graph.to_string();
    let mut t = Table::unit();
    let get = |catalog: &Catalog, name: &str| {
        catalog
            .get(name)
            .ok_or_else(|| EvalError::new(format!("no graph named {name} in the catalog")))
    };
    for clause in &sq.clauses {
        match clause {
            Clause::FromGraph { name, .. } => {
                get(catalog, name)?; // must exist
                current = name.clone();
            }
            Clause::Match {
                optional,
                patterns,
                where_,
            } => {
                let gref = get(catalog, &current)?;
                let g = gref.read();
                t = exec_match(&*g, params, cfg, patterns, where_.as_ref(), *optional, t)?;
            }
            Clause::With { ret, where_ } => {
                let gref = get(catalog, &current)?;
                let g = gref.read();
                let ctx = EvalContext::new(&g, params).with_config(cfg.match_config);
                t = apply_projection(&ctx, ret, t)?;
                if let Some(p) = where_ {
                    t = apply_where(&ctx, p, t)?;
                }
            }
            Clause::Unwind { expr, alias } => {
                let gref = get(catalog, &current)?;
                let g = gref.read();
                let ctx = EvalContext::new(&g, params).with_config(cfg.match_config);
                t = apply_unwind(&ctx, expr, alias, t)?;
            }
            _ => return err("multigraph composition supports reading clauses only"),
        }
    }
    if let Some((name, patterns)) = &sq.ret_graph {
        let gref = get(catalog, &current)?;
        let constructed = {
            let g = gref.read();
            construct_graph(&g, params, cfg, patterns, &t)?
        };
        catalog.register(name.clone(), constructed);
        return Ok(MultiResult::Graph(name.clone()));
    }
    if let Some(ret) = &sq.ret {
        let gref = get(catalog, &current)?;
        let g = gref.read();
        let ctx = EvalContext::new(&g, params).with_config(cfg.match_config);
        return Ok(MultiResult::Table(apply_projection(&ctx, ret, t)?));
    }
    err("a composed query must end in RETURN or RETURN GRAPH")
}

/// Builds a new property graph from the driving table: bound node
/// variables are copied (labels and properties) from the source graph —
/// each source node once — and the pattern's relationships are created per
/// row, as in `RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)`.
fn construct_graph(
    src: &PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    patterns: &[PathPattern],
    table: &Table,
) -> Result<PropertyGraph, EvalError> {
    let mut out = PropertyGraph::new();
    let mut copied: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let schema: &Schema = table.schema();

    let mut copy_node = |out: &mut PropertyGraph, n: NodeId| -> NodeId {
        if let Some(&m) = copied.get(&n) {
            return m;
        }
        let labels: Vec<Symbol> = src
            .labels(n)
            .iter()
            .map(|&l| out.intern(src.resolve(l)))
            .collect();
        let props: Vec<(Symbol, Value)> = src
            .node_props(n)
            .map(|(k, v)| (src.resolve(k).to_string(), v.clone()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(k, v)| (out.intern(&k), v))
            .collect();
        let m = out.add_node_syms(labels, props);
        copied.insert(n, m);
        m
    };

    for row in table.rows() {
        for pat in patterns {
            let b = Bindings::new(schema, row);
            // Resolve the start node.
            let mut current = resolve_constructed_node(
                src,
                params,
                cfg,
                &pat.start,
                &b,
                &mut copy_node,
                &mut out,
            )?;
            for (rho, chi) in &pat.steps {
                if !rho.range.is_single() || rho.types.len() != 1 {
                    return err("RETURN GRAPH requires single typed relationships");
                }
                let target =
                    resolve_constructed_node(src, params, cfg, chi, &b, &mut copy_node, &mut out)?;
                let (s, t) = match rho.dir {
                    Dir::Out => (current, target),
                    Dir::In => (target, current),
                    Dir::Both => return err("RETURN GRAPH requires directed relationships"),
                };
                let ty = out.intern(&rho.types[0]);
                let props: Vec<(Symbol, Value)> = {
                    let ctx = EvalContext::new(src, params).with_config(cfg.match_config);
                    let mut ps = Vec::new();
                    for (k, e) in &rho.props {
                        let v = cypher_core::eval_expr(&ctx, &b, e)?;
                        ps.push((k.clone(), v));
                    }
                    ps.into_iter().map(|(k, v)| (out.intern(&k), v)).collect()
                };
                out.add_rel_syms(s, t, ty, props)
                    .map_err(|e| EvalError::new(e.to_string()))?;
                current = target;
            }
        }
    }
    Ok(out)
}

fn resolve_constructed_node(
    src: &PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    chi: &cypher_ast::pattern::NodePattern,
    b: &Bindings<'_>,
    copy_node: &mut impl FnMut(&mut PropertyGraph, NodeId) -> NodeId,
    out: &mut PropertyGraph,
) -> Result<NodeId, EvalError> {
    if let Some(name) = &chi.name {
        if let Some(v) = b.lookup(name) {
            return match v {
                Value::Node(n) => Ok(copy_node(out, n)),
                other => err(format!(
                    "RETURN GRAPH variable {name} must be a node, got {}",
                    other.type_name()
                )),
            };
        }
    }
    // Unbound: create a fresh node per row with the pattern's labels and
    // properties.
    let labels: Vec<Symbol> = chi.labels.iter().map(|l| out.intern(l)).collect();
    let props: Vec<(Symbol, Value)> = {
        let ctx = EvalContext::new(src, params).with_config(cfg.match_config);
        let mut ps = Vec::new();
        for (k, e) in &chi.props {
            ps.push((k.clone(), cypher_core::eval_expr(&ctx, b, e)?));
        }
        ps.into_iter().map(|(k, v)| (out.intern(&k), v)).collect()
    };
    Ok(out.add_node_syms(labels, props))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    /// A small social network for Example 6.1: persons with FRIEND edges
    /// (and `since` years), plus a citizen register graph with cities.
    fn catalog() -> Catalog {
        let mut soc = PropertyGraph::new();
        let a = soc.add_node(&["Person"], [("name", Value::str("a"))]);
        let b = soc.add_node(&["Person"], [("name", Value::str("b"))]);
        let c = soc.add_node(&["Person"], [("name", Value::str("c"))]);
        soc.add_rel(a, c, "FRIEND", [("since", Value::int(2000))])
            .unwrap();
        soc.add_rel(b, c, "FRIEND", [("since", Value::int(2001))])
            .unwrap();
        let mut cat = Catalog::new();
        cat.register("soc_net", soc);
        cat
    }

    #[test]
    fn example_6_1_share_friend_projection() {
        let mut cat = catalog();
        let params = Params::new();
        let q = parse_query(
            "FROM GRAPH soc_net AT 'hdfs://x/soc_network'
             MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b)
             WITH DISTINCT a, b
             RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)",
        )
        .unwrap();
        let res =
            execute_on_catalog(&mut cat, "soc_net", &q, &params, &EngineConfig::default()).unwrap();
        let MultiResult::Graph(name) = res else {
            panic!("expected a graph result")
        };
        assert_eq!(name, "friends");
        let friends = cat.get("friends").unwrap();
        let g = friends.read();
        // a and b share friend c (both directions of the undirected match).
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 2);

        // Compose: query the constructed graph.
        drop(g);
        let q2 =
            parse_query("FROM GRAPH friends MATCH (x)-[:SHARE_FRIEND]->(y) RETURN x.name, y.name")
                .unwrap();
        let res2 = execute_on_catalog(&mut cat, "soc_net", &q2, &params, &EngineConfig::default())
            .unwrap();
        let MultiResult::Table(t) = res2 else {
            panic!()
        };
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn from_graph_switches_source() {
        let mut cat = catalog();
        let mut other = PropertyGraph::new();
        other.add_node(&["City"], [("name", Value::str("Houston"))]);
        cat.register("register", other);
        let params = Params::new();
        let q = parse_query("FROM GRAPH register MATCH (c:City) RETURN c.name").unwrap();
        let res =
            execute_on_catalog(&mut cat, "soc_net", &q, &params, &EngineConfig::default()).unwrap();
        let MultiResult::Table(t) = res else { panic!() };
        assert_eq!(t.cell(0, "c.name"), Some(&Value::str("Houston")));
    }

    #[test]
    fn missing_graph_is_error() {
        let mut cat = catalog();
        let params = Params::new();
        let q = parse_query("FROM GRAPH nope MATCH (n) RETURN n").unwrap();
        assert!(
            execute_on_catalog(&mut cat, "soc_net", &q, &params, &EngineConfig::default()).is_err()
        );
    }

    #[test]
    fn copied_nodes_deduplicated() {
        let mut cat = catalog();
        let params = Params::new();
        // Every person pairs with every friend; 'c' appears in several
        // rows but is copied once.
        let q = parse_query(
            "MATCH (a:Person)-[:FRIEND]-(b:Person)
             RETURN GRAPH pairs OF (a)-[:PAIRED]->(b)",
        )
        .unwrap();
        execute_on_catalog(&mut cat, "soc_net", &q, &params, &EngineConfig::default()).unwrap();
        let g = cat.get("pairs").unwrap();
        let g = g.read();
        assert_eq!(g.node_count(), 3, "each source node copied once");
        assert_eq!(g.rel_count(), 4, "one relationship per matched row");
    }
}
