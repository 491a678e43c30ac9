//! Multiple named graphs and query composition (paper Section 6, Cypher
//! 10): `FROM GRAPH name [AT '…']` switches the source graph for the
//! following reading clauses, and `RETURN GRAPH name OF pattern_tuple`
//! constructs a new named graph from the final driving table and registers
//! it in the catalog — so that "Cypher queries \[can\] be composed as a
//! chain of elementary queries", as in Example 6.1.
//!
//! There is no second executor here: [`execute_on_catalog`] takes every
//! graph's read guard once and runs the query through the one clause loop
//! of [`crate::exec`], whose `FROM GRAPH` switches its read view among
//! these graphs; this module keeps the catalog plumbing and
//! `construct_graph`.
//!
//! Simplifications relative to the full proposal: the `AT "<uri>"`
//! locator is accepted but graphs are resolved by name in the in-process
//! [`Catalog`]; the result of a query is either a table or a graph name
//! (not a combined table-graphs value).

use crate::exec::{execute_on_graphs, EngineConfig};
use crate::update::Builder;
use cypher_ast::pattern::PathPattern;
use cypher_ast::query::Query;
use cypher_core::error::{err, EvalError};
use cypher_core::table::Table;
use cypher_core::Params;
use cypher_graph::{Catalog, PropertyGraph, ViewRef};

/// The outcome of a composed query: a table (ordinary `RETURN`) or the
/// name of a newly constructed graph (`RETURN GRAPH`).
#[derive(Debug)]
pub enum MultiResult {
    /// A projected table.
    Table(Table),
    /// The name of the graph registered in the catalog.
    Graph(String),
}

/// A catalog opened for one query: every graph's read view by name, the
/// default graph each single query starts on, and what a `RETURN GRAPH`
/// built.
pub(crate) struct Graphs<'g> {
    pub(crate) views: Vec<(&'g str, ViewRef<'g>)>,
    pub(crate) default: ViewRef<'g>,
    pub(crate) built: Option<(String, PropertyGraph)>,
}

/// The view of the graph named `name` (what `FROM GRAPH name` reads).
pub(crate) fn view_named<'g>(
    views: &[(&'g str, ViewRef<'g>)],
    name: &str,
) -> Result<ViewRef<'g>, EvalError> {
    match views.iter().find(|(n, _)| *n == name) {
        Some(&(_, view)) => Ok(view),
        None => err(format!("no graph named {name} in the catalog")),
    }
}

/// Executes a query against a catalog of named graphs, through the one
/// clause loop of [`crate::exec`] with each graph's read guard taken
/// once. `default_graph` names the graph used before any `FROM GRAPH`
/// clause; a `RETURN GRAPH` registers its graph after the guards are
/// released.
pub fn execute_on_catalog(
    catalog: &mut Catalog,
    default_graph: &str,
    q: &Query,
    params: &Params,
    cfg: &EngineConfig,
) -> Result<MultiResult, EvalError> {
    let (table, built) = {
        let refs: Vec<_> = catalog.names().map(|n| (n, catalog.get(n))).collect();
        let guards: Vec<_> = refs
            .iter()
            .flat_map(|(n, g)| Some((*n, g.as_ref()?.read())))
            .collect();
        let views: Vec<_> = guards
            .iter()
            .map(|(n, g)| (*n, ViewRef::from(&**g)))
            .collect();
        let mut graphs = Graphs {
            default: view_named(&views, default_graph)?,
            views,
            built: None,
        };
        (
            execute_on_graphs(&mut graphs, q, params, cfg)?,
            graphs.built,
        )
    };
    Ok(match built {
        Some((name, g)) => {
            catalog.register(name.clone(), g);
            MultiResult::Graph(name)
        }
        None => MultiResult::Table(table),
    })
}

/// Builds a new property graph from the driving table: bound node
/// variables are copied (labels and properties) from the source graph —
/// each source node once — and the pattern's relationships are created per
/// row, as in `RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)`.
pub(crate) fn construct_graph(
    src: &PropertyGraph,
    params: &Params,
    cfg: &EngineConfig,
    patterns: &[PathPattern],
    table: &Table,
) -> Result<PropertyGraph, EvalError> {
    let mut out = PropertyGraph::new();
    let mut build = Builder::new(params, cfg, Some(src));
    for row in table.rows() {
        build.row(&mut out, patterns, table.schema(), row, &[])?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse_query;

    /// Example 6.1's social network: persons a and b are FRIENDs of c.
    fn catalog() -> Catalog {
        let mut soc = PropertyGraph::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| soc.add_node(&["Person"], [("name", n.into())]));
        for (x, y) in [(a, 2000_i64), (b, 2001)] {
            soc.add_rel(x, c, "FRIEND", [("since", y.into())]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register("soc_net", soc);
        cat
    }

    /// The built-in cell: catalog queries run the one clause loop the
    /// differential suites sweep at every cell.
    fn run(cat: &mut Catalog, q: &str) -> Result<MultiResult, EvalError> {
        let (q, cfg) = (parse_query(q).unwrap(), EngineConfig::default());
        execute_on_catalog(cat, "soc_net", &q, &Params::new(), &cfg)
    }

    /// A `RETURN GRAPH` query's graph: (name, nodes, relationships).
    fn built(cat: &mut Catalog, q: &str) -> (String, usize, usize) {
        let Ok(MultiResult::Graph(name)) = run(cat, q) else {
            panic!("{q}")
        };
        let g = cat.get(&name).unwrap();
        let g = g.read();
        (name, g.node_count(), g.rel_count())
    }

    #[test]
    fn example_6_1_share_friend_projection() {
        let mut cat = catalog();
        let q = "FROM GRAPH soc_net AT 'hdfs://x/soc_network'
                 MATCH (a)-[r1:FRIEND]-()-[r2:FRIEND]-(b) WITH DISTINCT a, b
                 RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)";
        // a and b share friend c (both directions of the undirected match).
        assert_eq!(built(&mut cat, q), ("friends".into(), 2, 2));
        // Compose: query the constructed graph.
        let q2 = "FROM GRAPH friends MATCH (x)-[:SHARE_FRIEND]->(y) RETURN x.name, y.name";
        assert!(matches!(run(&mut cat, q2), Ok(MultiResult::Table(t)) if t.len() == 2));
    }

    #[test]
    fn missing_graph_is_error() {
        assert!(run(&mut catalog(), "FROM GRAPH nope MATCH (n) RETURN n").is_err());
    }

    #[test]
    fn copied_nodes_deduplicated() {
        // Every person pairs with every friend; 'c' appears in several
        // rows but is copied once: 3 nodes, one relationship per row.
        let q = "MATCH (a:Person)-[:FRIEND]-(b:Person) RETURN GRAPH pairs OF (a)-[:PAIRED]->(b)";
        assert_eq!(built(&mut catalog(), q), ("pairs".into(), 3, 4));
    }
}
