//! Grammar-driven random Cypher query generator — the workload half of the
//! parallel differential test harness.
//!
//! Queries are drawn from a small grammar covering the read surface the
//! engine parallelizes: linear `MATCH` patterns (with optional second
//! paths, shared variables, variable-length hops), `WHERE` predicates over
//! the integer properties the [`crate::random_graph`] substrate guarantees
//! (`v`, `i`), and the full family of pipeline breakers — aggregation,
//! `DISTINCT`, `ORDER BY`, `SKIP`/`LIMIT`.
//!
//! Two invariants keep every generated query *differentially comparable*
//! (equal as a sorted multiset across evaluators and thread counts):
//!
//! * every variable referenced by `WHERE` or `RETURN` is bound by the
//!   `MATCH`, so no query errors;
//! * `SKIP`/`LIMIT` only follow an `ORDER BY` whose key is the query's
//!   single projected column, so the kept multiset is fully determined
//!   even when the sort has ties (tied rows are then indistinguishable).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The vocabulary a [`QueryGenerator`] draws from. The default matches the
/// `random_graph(_, _, &["A", "B"], &["X", "Y"], _)` substrate of the
/// differential suites: labels `A`/`B`, relationship types `X`/`Y`, and
/// integer node properties `v` (small, collision-heavy) and `i` (unique).
#[derive(Debug, Clone)]
pub struct QueryVocabulary {
    /// Node labels patterns and predicates may mention.
    pub labels: Vec<String>,
    /// Relationship types patterns may mention.
    pub types: Vec<String>,
    /// Integer-valued node property keys.
    pub int_props: Vec<String>,
}

impl Default for QueryVocabulary {
    fn default() -> Self {
        QueryVocabulary {
            labels: vec!["A".into(), "B".into()],
            types: vec!["X".into(), "Y".into()],
            int_props: vec!["v".into(), "i".into()],
        }
    }
}

/// A deterministic stream of random read queries: same seed, same
/// queries, on every run and platform (the RNG is the workspace's own
/// [`rand::rngs::SmallRng`] shim).
#[derive(Debug)]
pub struct QueryGenerator {
    rng: SmallRng,
    vocab: QueryVocabulary,
    /// Counter behind the fresh `i` values update statements assign, so
    /// generated `CREATE`s never collide with the substrate's unique ids.
    fresh: i64,
}

impl QueryGenerator {
    /// A generator over the default vocabulary.
    pub fn new(seed: u64) -> QueryGenerator {
        QueryGenerator::with_vocabulary(seed, QueryVocabulary::default())
    }

    /// A generator over an explicit vocabulary.
    pub fn with_vocabulary(seed: u64, vocab: QueryVocabulary) -> QueryGenerator {
        QueryGenerator {
            rng: SmallRng::seed_from_u64(seed),
            vocab,
            fresh: 1_000,
        }
    }

    /// Draws the next query.
    pub fn next_query(&mut self) -> String {
        let mut vars: Vec<String> = Vec::new();
        let mut rel_vars: Vec<String> = Vec::new();

        let mut pattern = self.gen_path(&mut vars, &mut rel_vars);
        if self.rng.gen_bool(0.2) {
            let second = self.gen_path(&mut vars, &mut rel_vars);
            pattern.push_str(", ");
            pattern.push_str(&second);
        }

        let mut q = format!("MATCH {pattern}");
        if self.rng.gen_bool(0.45) {
            q.push_str(" WHERE ");
            q.push_str(&self.gen_predicate(&vars));
        }
        q.push(' ');
        q.push_str(&self.gen_return(&vars, &rel_vars));
        q
    }

    /// Draws the next **update** statement: `CREATE`, `SET` (property,
    /// map-replace, map-merge, label), `REMOVE` (property, label),
    /// `DELETE`/`DETACH DELETE`, or `MERGE` with `ON CREATE`/`ON MATCH`.
    ///
    /// Every statement is total over any graph shaped by the vocabulary —
    /// deletions always detach, matches that bind nothing make the update
    /// a no-op — so a generated stream never errors and is exactly
    /// reproducible: the substrate the recovery and parallel differential
    /// harnesses replay against their oracles.
    pub fn next_update(&mut self) -> String {
        let label = pick(&mut self.rng, &self.vocab.labels).clone();
        let label2 = pick(&mut self.rng, &self.vocab.labels).clone();
        let ty = pick(&mut self.rng, &self.vocab.types).clone();
        let k = self.rng.gen_range(0..10);
        let k2 = self.rng.gen_range(0..10);
        match self.rng.gen_range(0..10) {
            // Grow the graph: CREATE dominates so workloads stay dense.
            0 | 1 => {
                let (i1, i2) = (self.fresh, self.fresh + 1);
                self.fresh += 2;
                format!(
                    "CREATE (:{label} {{v: {k}, i: {i1}}})-[:{ty} {{w: {k2}}}]->\
                     (:{label2} {{v: {k2}, i: {i2}}})"
                )
            }
            2 => {
                let i1 = self.fresh;
                self.fresh += 1;
                format!("CREATE (:{label} {{v: {k}, i: {i1}}})")
            }
            // Point and predicate SETs.
            3 => format!("MATCH (n:{label}) WHERE n.v = {k} SET n.v = {k2}"),
            4 => {
                let i1 = self.fresh;
                self.fresh += 1;
                if self.rng.gen_bool(0.5) {
                    format!("MATCH (n:{label} {{v: {k}}}) SET n += {{u: {i1}}}")
                } else {
                    format!("MATCH (n:{label} {{v: {k}}}) SET n = {{v: {k2}, i: {i1}}}")
                }
            }
            // Relationship property churn.
            5 => format!("MATCH (a:{label})-[r:{ty}]->(b) SET r.w = {k2}"),
            // Label churn (exercises the composite-index backfill).
            6 => {
                if self.rng.gen_bool(0.5) {
                    format!("MATCH (n:{label}) WHERE n.v = {k} SET n:{label2}")
                } else {
                    format!("MATCH (n:{label}) WHERE n.v = {k} REMOVE n:{label2}")
                }
            }
            // Property removal.
            7 => format!("MATCH (n:{label} {{v: {k}}}) REMOVE n.v"),
            // Deletions: relationships alone, or detach-delete nodes.
            8 => {
                if self.rng.gen_bool(0.6) {
                    format!("MATCH (a)-[r:{ty}]->(b:{label}) WHERE b.v = {k} DELETE r")
                } else {
                    format!("MATCH (n:{label}) WHERE n.v = {k} DETACH DELETE n")
                }
            }
            // MERGE, with and without conditional SETs.
            _ => {
                let i1 = self.fresh;
                self.fresh += 1;
                match self.rng.gen_range(0..3) {
                    0 => format!("MERGE (n:{label} {{v: {k}}})"),
                    1 => format!(
                        "MERGE (n:{label} {{v: {k}}}) \
                         ON CREATE SET n.i = {i1} ON MATCH SET n.u = {k2}"
                    ),
                    _ => format!(
                        "MERGE (a:{label} {{v: {k}}})-[:{ty}]->(b:{label2} {{v: {k2}}}) \
                         ON CREATE SET a.i = {i1}"
                    ),
                }
            }
        }
    }

    /// Draws the next **churn** update: the delete/retraction-heavy
    /// mirror of [`QueryGenerator::next_update`]. Deletions, property
    /// and label removals, and overwrites dominate; creations still
    /// appear (3 in 10) so the graph never empties and the destructive
    /// statements keep finding targets. This is the workload that
    /// exercises incremental-view **retraction** paths: most statements
    /// shrink or rewrite rows a standing query already materialized.
    ///
    /// The same totality invariant as `next_update` holds — deletions
    /// always detach, empty matches are no-ops — so a churn stream
    /// never errors and replays exactly.
    pub fn next_churn_update(&mut self) -> String {
        let label = pick(&mut self.rng, &self.vocab.labels).clone();
        let label2 = pick(&mut self.rng, &self.vocab.labels).clone();
        let ty = pick(&mut self.rng, &self.vocab.types).clone();
        let k = self.rng.gen_range(0..10);
        let k2 = self.rng.gen_range(0..10);
        match self.rng.gen_range(0..10) {
            // Keep some inflow so there is always something to retract.
            0 | 1 => {
                let (i1, i2) = (self.fresh, self.fresh + 1);
                self.fresh += 2;
                format!(
                    "CREATE (:{label} {{v: {k}, i: {i1}}})-[:{ty} {{w: {k2}}}]->\
                     (:{label2} {{v: {k2}, i: {i2}}})"
                )
            }
            2 => {
                let i1 = self.fresh;
                self.fresh += 1;
                format!("CREATE (:{label} {{v: {k}, i: {i1}}})")
            }
            // Relationship deletions.
            3 | 4 => format!("MATCH (a)-[r:{ty}]->(b:{label}) WHERE b.v = {k} DELETE r"),
            // Node deletions.
            5 | 6 => format!("MATCH (n:{label}) WHERE n.v = {k} DETACH DELETE n"),
            // Property retraction: the grouping key itself disappears.
            7 => format!("MATCH (n:{label} {{v: {k}}}) REMOVE n.v"),
            // Label retraction: rows leave label-filtered views.
            8 => format!("MATCH (n:{label}) WHERE n.v = {k} REMOVE n:{label2}"),
            // Overwrite: retraction + insertion in one statement.
            _ => format!("MATCH (n:{label}) WHERE n.v = {k} SET n.v = {k2}"),
        }
    }

    /// Draws the next **aggregation-heavy** query: implicit grouping
    /// keys, `count`/`sum`/`min`/`max`/`avg`/`collect(DISTINCT …)`,
    /// `DISTINCT` projections, `ORDER BY … LIMIT` (top-k shaped), and
    /// `WITH`-chained aggregates — the workload the partial-aggregation
    /// pushdown must get bit-identical across thread counts and morsel
    /// sizes.
    ///
    /// Differential-comparability invariants on top of the base grammar's:
    ///
    /// * every `ORDER BY` sorts by a **total** order — the leading sort
    ///   key is either a grouping key (distinct per output row), a
    ///   `DISTINCT` output column, or the substrate's unique `i`
    ///   property — so even row-for-row comparison against the reference
    ///   oracle is well-defined;
    /// * `collect` is the only order-sensitive aggregate emitted, and the
    ///   harness canonicalizes list cells before comparing against the
    ///   oracle (the engine's pipelines feed aggregation in a different
    ///   row order than the reference evaluator; engine-vs-engine stays
    ///   exact).
    pub fn next_aggregate_query(&mut self) -> String {
        let mut vars: Vec<String> = Vec::new();
        let mut rel_vars: Vec<String> = Vec::new();
        let mut pattern = self.gen_path(&mut vars, &mut rel_vars);
        if self.rng.gen_bool(0.15) {
            let second = self.gen_path(&mut vars, &mut rel_vars);
            pattern.push_str(", ");
            pattern.push_str(&second);
        }
        let mut q = format!("MATCH {pattern}");
        if self.rng.gen_bool(0.4) {
            q.push_str(" WHERE ");
            q.push_str(&self.gen_predicate(&vars));
        }
        q.push(' ');
        q.push_str(&self.gen_aggregate_return(&vars));
        q
    }

    /// Draws the next **cyclic-pattern** query: a triangle, diamond or
    /// 4-cycle over named node variables — the shapes the worst-case-
    /// optimal multiway intersection join targets — with mixed labels,
    /// directions, relationship types and literal property predicates.
    ///
    /// Every step is single-hop and every relationship variable is
    /// fresh, so the patterns stay eligible for the intersection plan
    /// (the planner may still choose the expand chain; both enumerate
    /// the same bag). Intersection and expand plans bind variables in
    /// different orders, so harnesses compare these queries row-for-row
    /// only *within* one plan policy (across thread counts) and as
    /// sorted multisets across policies.
    pub fn next_cyclic_query(&mut self) -> String {
        let mut rel_idx = 0usize;
        let mut rel = |rng: &mut SmallRng, vocab: &QueryVocabulary| -> String {
            let var = if rng.gen_bool(0.5) {
                let v = format!("e{rel_idx}");
                rel_idx += 1;
                v
            } else {
                String::new()
            };
            let ty = if rng.gen_bool(0.5) {
                format!(":{}", pick(rng, &vocab.types))
            } else {
                String::new()
            };
            let props = if rng.gen_bool(0.15) {
                format!(" {{w: {}}}", rng.gen_range(0..100))
            } else {
                String::new()
            };
            let body = format!("[{var}{ty}{props}]");
            match rng.gen_range(0..3) {
                0 => format!("-{body}->"),
                1 => format!("<-{body}-"),
                _ => format!("-{body}-"),
            }
        };
        let node = |rng: &mut SmallRng, vocab: &QueryVocabulary, var: &str| -> String {
            let label = if rng.gen_bool(0.35) {
                format!(":{}", pick(rng, &vocab.labels))
            } else {
                String::new()
            };
            let props = if rng.gen_bool(0.15) {
                format!(" {{v: {}}}", rng.gen_range(0..10))
            } else {
                String::new()
            };
            format!("({var}{label}{props})")
        };
        let rng = &mut self.rng;
        let vocab = &self.vocab;
        let (vars, pattern): (&[&str], String) = match rng.gen_range(0..3) {
            // Triangle: a–b–c plus the closing a–c edge.
            0 => {
                let p = format!(
                    "{}{}{}{}{}, {}{}{}",
                    node(rng, vocab, "a"),
                    rel(rng, vocab),
                    node(rng, vocab, "b"),
                    rel(rng, vocab),
                    node(rng, vocab, "c"),
                    node(rng, vocab, "a"),
                    rel(rng, vocab),
                    node(rng, vocab, "c"),
                );
                (&["a", "b", "c"], p)
            }
            // Diamond: two length-2 paths a→…→d through b and c.
            1 => {
                let p = format!(
                    "{}{}{}{}{}, {}{}{}{}{}",
                    node(rng, vocab, "a"),
                    rel(rng, vocab),
                    node(rng, vocab, "b"),
                    rel(rng, vocab),
                    node(rng, vocab, "d"),
                    node(rng, vocab, "a"),
                    rel(rng, vocab),
                    node(rng, vocab, "c"),
                    rel(rng, vocab),
                    node(rng, vocab, "d"),
                );
                (&["a", "b", "c", "d"], p)
            }
            // 4-cycle: a–b–c–d plus the closing a–d edge.
            _ => {
                let p = format!(
                    "{}{}{}{}{}{}{}, {}{}{}",
                    node(rng, vocab, "a"),
                    rel(rng, vocab),
                    node(rng, vocab, "b"),
                    rel(rng, vocab),
                    node(rng, vocab, "c"),
                    rel(rng, vocab),
                    node(rng, vocab, "d"),
                    node(rng, vocab, "a"),
                    rel(rng, vocab),
                    node(rng, vocab, "d"),
                );
                (&["a", "b", "c", "d"], p)
            }
        };
        let mut q = format!("MATCH {pattern}");
        if rng.gen_bool(0.3) {
            let x = *pick(rng, vars);
            let y = *pick(rng, vars);
            q.push_str(&match rng.gen_range(0..3) {
                0 => format!(" WHERE {x}.v > {}", rng.gen_range(0..10)),
                1 => format!(" WHERE {x}.v = {y}.v"),
                _ => format!(" WHERE {x}.v < {} AND {y}.v > 0", rng.gen_range(1..10)),
            });
        }
        match rng.gen_range(0..3) {
            0 => {
                let items: Vec<String> = vars.iter().map(|v| format!("{v}.i AS {v}0")).collect();
                q.push_str(&format!(" RETURN {}", items.join(", ")));
            }
            1 => q.push_str(" RETURN count(*) AS c"),
            _ => {
                let x = *pick(rng, vars);
                q.push_str(&format!(" RETURN DISTINCT {x}.v AS d"));
            }
        }
        q
    }

    /// The projection half of [`QueryGenerator::next_aggregate_query`].
    fn gen_aggregate_return(&mut self, vars: &[String]) -> String {
        let g = pick(&mut self.rng, vars).clone();
        let a = pick(&mut self.rng, vars).clone();
        let dir = if self.rng.gen_bool(0.5) { " DESC" } else { "" };
        let limit = self.rng.gen_range(1..6);
        match self.rng.gen_range(0..9) {
            // Grouped count, optionally ordered by the (distinct) key.
            0 => {
                if self.rng.gen_bool(0.5) {
                    format!("RETURN {g}.v AS g, count(*) AS c")
                } else {
                    format!("RETURN {g}.v AS g, count(*) AS c ORDER BY g{dir} LIMIT {limit}")
                }
            }
            // A fuller aggregate battery over one grouping key.
            1 => format!(
                "RETURN {g}.v AS g, count({a}.i) AS c, sum({a}.v) AS s, \
                 min({a}.i) AS mn, max({a}.i) AS mx"
            ),
            // Exact float aggregation (avg is float-valued).
            2 => {
                if self.rng.gen_bool(0.5) {
                    format!("RETURN {g}.v AS g, avg({a}.i) AS m ORDER BY g{dir}")
                } else {
                    format!("RETURN {g}.v AS g, sum({a}.i) AS s, avg({a}.v) AS m")
                }
            }
            // Keyless (single-group) aggregates, incl. DISTINCT variants.
            3 => match self.rng.gen_range(0..4) {
                0 => "RETURN count(*) AS c".to_string(),
                1 => format!("RETURN count(DISTINCT {a}.v) AS c"),
                2 => format!("RETURN sum(DISTINCT {a}.v) AS s, count(*) AS c"),
                _ => format!("RETURN min({a}.v) AS mn, max({a}.v) AS mx, avg({a}.i) AS m"),
            },
            // collect(DISTINCT …): order-sensitive value, distinct set.
            4 => format!("RETURN {g}.v AS g, collect(DISTINCT {a}.v) AS xs"),
            // DISTINCT projections (ordered and truncated variants).
            5 => {
                let key = pick(&mut self.rng, &self.vocab.int_props).clone();
                match self.rng.gen_range(0..3) {
                    0 => format!("RETURN DISTINCT {a}.{key} AS d"),
                    1 => format!("RETURN DISTINCT {a}.{key} AS d ORDER BY d{dir}"),
                    _ => format!("RETURN DISTINCT {a}.{key} AS d ORDER BY d{dir} LIMIT {limit}"),
                }
            }
            // Top-k: ORDER BY the unique `i`, so the kept rows are exact.
            6 => {
                let skip = if self.rng.gen_bool(0.4) {
                    format!(" SKIP {}", self.rng.gen_range(0..3))
                } else {
                    String::new()
                };
                if self.rng.gen_bool(0.5) {
                    format!("RETURN {a}.i AS k ORDER BY k{dir}{skip} LIMIT {limit}")
                } else {
                    // Multi-key sort: ties on v broken by the unique i.
                    format!(
                        "RETURN {a}.i AS k, {a}.v AS w \
                         ORDER BY w{dir}, k{skip} LIMIT {limit}"
                    )
                }
            }
            // WITH-chained aggregates: aggregate over aggregates.
            7 => {
                if self.rng.gen_bool(0.5) {
                    format!(
                        "WITH {g}.v AS g, count(*) AS c \
                         RETURN g, sum(c) AS s ORDER BY g{dir}"
                    )
                } else {
                    format!(
                        "WITH {g}.v AS g, count(*) AS c WHERE c > 1 \
                         RETURN count(*) AS groups, sum(c) AS rows"
                    )
                }
            }
            // Aggregates combined with scalar arithmetic on the key.
            _ => format!("RETURN {g}.v + 1 AS g1, count(*) AS c, sum({a}.i) AS s"),
        }
    }

    /// `path := node (rel node){0..2}`, binding fresh (or occasionally
    /// shared) node variables.
    fn gen_path(&mut self, vars: &mut Vec<String>, rel_vars: &mut Vec<String>) -> String {
        let hops = self.rng.gen_range(0..3);
        let mut s = self.gen_node(vars);
        for _ in 0..hops {
            s.push_str(&self.gen_rel(rel_vars));
            s.push_str(&self.gen_node(vars));
        }
        s
    }

    /// `node := '(' var (':' label)? ('{v: k}')? ')'`. One time in ten the
    /// variable is a re-used earlier binding (a join / shared endpoint).
    fn gen_node(&mut self, vars: &mut Vec<String>) -> String {
        let var = if !vars.is_empty() && self.rng.gen_bool(0.1) {
            vars[self.rng.gen_range(0..vars.len())].clone()
        } else {
            let v = format!("n{}", vars.len());
            vars.push(v.clone());
            v
        };
        let label = if self.rng.gen_bool(0.5) {
            format!(":{}", pick(&mut self.rng, &self.vocab.labels))
        } else {
            String::new()
        };
        let props = if self.rng.gen_bool(0.3) {
            format!(" {{v: {}}}", self.rng.gen_range(0..10))
        } else {
            String::new()
        };
        format!("({var}{label}{props})")
    }

    /// `rel := '-[' var? (':' type)? range? ']-'` with a direction.
    fn gen_rel(&mut self, rel_vars: &mut Vec<String>) -> String {
        let var = if self.rng.gen_bool(0.25) {
            let v = format!("r{}", rel_vars.len());
            rel_vars.push(v.clone());
            v
        } else {
            String::new()
        };
        let ty = if self.rng.gen_bool(0.6) {
            format!(":{}", pick(&mut self.rng, &self.vocab.types))
        } else {
            String::new()
        };
        let range = if self.rng.gen_bool(0.2) {
            *pick(&mut self.rng, &["*0..1", "*1..2", "*1..3"])
        } else {
            ""
        };
        let body = format!("[{var}{ty}{range}]");
        match self.rng.gen_range(0..3) {
            0 => format!("-{body}->"),
            1 => format!("<-{body}-"),
            _ => format!("-{body}-"),
        }
    }

    /// `pred := cmp ((AND|OR) cmp)?` over bound node variables.
    fn gen_predicate(&mut self, vars: &[String]) -> String {
        let first = self.gen_comparison(vars);
        if self.rng.gen_bool(0.3) {
            let op = if self.rng.gen_bool(0.5) { "AND" } else { "OR" };
            let second = self.gen_comparison(vars);
            format!("{first} {op} {second}")
        } else {
            first
        }
    }

    fn gen_comparison(&mut self, vars: &[String]) -> String {
        let var = pick(&mut self.rng, vars).clone();
        match self.rng.gen_range(0..5) {
            0 => format!("{var}.v > {}", self.rng.gen_range(0..10)),
            1 => format!("{var}.v < {}", self.rng.gen_range(0..10)),
            2 => format!("{var}.v = {}", self.rng.gen_range(0..10)),
            3 => {
                let other = pick(&mut self.rng, vars).clone();
                format!("{var}.v = {other}.v")
            }
            _ => format!("{var}:{}", pick(&mut self.rng, &self.vocab.labels)),
        }
    }

    /// `ret := RETURN (DISTINCT)? items (ORDER BY …)? (SKIP/LIMIT)?`.
    fn gen_return(&mut self, vars: &[String], rel_vars: &[String]) -> String {
        match self.rng.gen_range(0..7) {
            // Entity values (nodes, occasionally a relationship binding).
            0 => {
                let mut items: Vec<String> = Vec::new();
                items.push(pick(&mut self.rng, vars).clone());
                if !rel_vars.is_empty() && self.rng.gen_bool(0.5) {
                    items.push(pick(&mut self.rng, rel_vars).clone());
                } else if vars.len() > 1 && self.rng.gen_bool(0.5) {
                    items.push(pick(&mut self.rng, vars).clone());
                }
                items.sort();
                items.dedup();
                format!("RETURN {}", items.join(", "))
            }
            // Property projections.
            1 => {
                let a = pick(&mut self.rng, vars).clone();
                if vars.len() > 1 && self.rng.gen_bool(0.5) {
                    let b = pick(&mut self.rng, vars).clone();
                    format!("RETURN {a}.v AS a0, {b}.i AS a1")
                } else {
                    format!("RETURN {a}.v AS a0")
                }
            }
            // Bare and grouped aggregation.
            2 => "RETURN count(*) AS c".to_string(),
            3 => {
                let g = pick(&mut self.rng, vars).clone();
                format!("RETURN {g}.v AS g, count(*) AS c")
            }
            // DISTINCT (a pipeline breaker with per-worker duplicates).
            4 => {
                let a = pick(&mut self.rng, vars).clone();
                let key = pick(&mut self.rng, &self.vocab.int_props).clone();
                format!("RETURN DISTINCT {a}.{key} AS d")
            }
            // ORDER BY without truncation: any projection may ride along.
            5 => {
                let a = pick(&mut self.rng, vars).clone();
                let dir = if self.rng.gen_bool(0.5) { " DESC" } else { "" };
                format!("RETURN {a}.v AS s ORDER BY s{dir}")
            }
            // ORDER BY + SKIP/LIMIT: single projected column == sort key,
            // so ties cannot make the kept multiset ambiguous.
            _ => {
                let a = pick(&mut self.rng, vars).clone();
                let key = pick(&mut self.rng, &self.vocab.int_props).clone();
                let dir = if self.rng.gen_bool(0.5) { " DESC" } else { "" };
                let skip = if self.rng.gen_bool(0.4) {
                    format!(" SKIP {}", self.rng.gen_range(0..3))
                } else {
                    String::new()
                };
                format!(
                    "RETURN {a}.{key} AS k ORDER BY k{dir}{skip} LIMIT {}",
                    self.rng.gen_range(1..6)
                )
            }
        }
    }
}

/// Uniform draw from a slice, free-standing so callers can borrow the
/// vocabulary and the RNG at the same time.
fn pick<'v, T>(rng: &mut SmallRng, options: &'v [T]) -> &'v T {
    &options[rng.gen_range(0..options.len())]
}

/// Draws `n` queries from a fresh generator — convenience for test
/// harnesses.
pub fn random_queries(n: usize, seed: u64) -> Vec<String> {
    let mut gen = QueryGenerator::new(seed);
    (0..n).map(|_| gen.next_query()).collect()
}

/// Draws `n` update statements from a fresh generator.
pub fn random_updates(n: usize, seed: u64) -> Vec<String> {
    let mut gen = QueryGenerator::new(seed);
    (0..n).map(|_| gen.next_update()).collect()
}

/// Draws `n` churn (delete/retraction-heavy) update statements from a
/// fresh generator.
pub fn random_churn_updates(n: usize, seed: u64) -> Vec<String> {
    let mut gen = QueryGenerator::new(seed);
    (0..n).map(|_| gen.next_churn_update()).collect()
}

/// Draws `n` aggregation-heavy queries from a fresh generator.
pub fn random_aggregate_queries(n: usize, seed: u64) -> Vec<String> {
    let mut gen = QueryGenerator::new(seed);
    (0..n).map(|_| gen.next_aggregate_query()).collect()
}

/// Draws `n` cyclic-pattern queries from a fresh generator.
pub fn random_cyclic_queries(n: usize, seed: u64) -> Vec<String> {
    let mut gen = QueryGenerator::new(seed);
    (0..n).map(|_| gen.next_cyclic_query()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(random_queries(50, 7), random_queries(50, 7));
        assert_ne!(random_queries(50, 7), random_queries(50, 8));
    }

    #[test]
    fn queries_are_well_formed_enough() {
        for q in random_queries(300, 42) {
            assert!(q.starts_with("MATCH ("), "{q}");
            assert!(q.contains("RETURN"), "{q}");
            // SKIP/LIMIT only ever follow an ORDER BY (determinism rule).
            if q.contains("LIMIT") || q.contains("SKIP") {
                assert!(q.contains("ORDER BY"), "{q}");
            }
        }
    }

    #[test]
    fn update_generator_is_deterministic_and_covers_the_clauses() {
        assert_eq!(random_updates(80, 7), random_updates(80, 7));
        assert_ne!(random_updates(80, 7), random_updates(80, 8));
        let us = random_updates(400, 3).join("\n");
        for needle in [
            "CREATE",
            "SET",
            "REMOVE n.v",
            "REMOVE n:",
            "SET n:",
            "DELETE r",
            "DETACH DELETE",
            "MERGE",
            "ON CREATE",
            "ON MATCH",
            "SET n += {",
            "SET n = {",
            "SET r.w",
        ] {
            assert!(us.contains(needle), "400 updates never produced {needle}");
        }
    }

    #[test]
    fn churn_generator_is_deterministic_and_retraction_heavy() {
        assert_eq!(random_churn_updates(80, 7), random_churn_updates(80, 7));
        assert_ne!(random_churn_updates(80, 7), random_churn_updates(80, 8));
        let us = random_churn_updates(400, 3);
        let joined = us.join("\n");
        for needle in [
            "CREATE",
            "DELETE r",
            "DETACH DELETE",
            "REMOVE n.v",
            "REMOVE n:",
            "SET n.v",
        ] {
            assert!(
                joined.contains(needle),
                "400 churn updates never produced {needle}"
            );
        }
        // The preset's point: destructive/rewriting statements dominate.
        let destructive = us.iter().filter(|u| !u.starts_with("CREATE")).count();
        assert!(
            destructive * 2 > us.len(),
            "only {destructive}/{} churn statements were non-CREATE",
            us.len()
        );
    }

    #[test]
    fn fresh_ids_never_repeat() {
        let mut gen = QueryGenerator::new(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let u = gen.next_update();
            for part in u.split("i: ") {
                if let Some(num) = part.split(['}', ',']).next() {
                    if let Ok(i) = num.trim().parse::<i64>() {
                        if i >= 1_000 {
                            assert!(seen.insert(i), "fresh id {i} repeated in {u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn aggregate_grammar_is_deterministic_and_covers_the_features() {
        assert_eq!(
            random_aggregate_queries(60, 5),
            random_aggregate_queries(60, 5)
        );
        assert_ne!(
            random_aggregate_queries(60, 5),
            random_aggregate_queries(60, 6)
        );
        let qs = random_aggregate_queries(400, 2).join("\n");
        for needle in [
            "count(*)",
            "count(DISTINCT",
            "sum(",
            "sum(DISTINCT",
            "min(",
            "max(",
            "avg(",
            "collect(DISTINCT",
            "RETURN DISTINCT",
            "ORDER BY",
            "LIMIT",
            "SKIP",
            "WITH",
            "WHERE",
        ] {
            assert!(
                qs.contains(needle),
                "400 agg queries never produced {needle}"
            );
        }
        // Truncation only ever follows a total-order ORDER BY.
        for q in random_aggregate_queries(400, 2) {
            if q.contains("LIMIT") || q.contains("SKIP") {
                assert!(q.contains("ORDER BY"), "{q}");
            }
        }
    }

    #[test]
    fn cyclic_grammar_is_deterministic_and_covers_the_shapes() {
        assert_eq!(random_cyclic_queries(60, 5), random_cyclic_queries(60, 5));
        assert_ne!(random_cyclic_queries(60, 5), random_cyclic_queries(60, 6));
        let qs = random_cyclic_queries(400, 2);
        let all = qs.join("\n");
        for needle in [
            "(c), (a)", // triangle: closing edge back to a
            "(d), (a)", // diamond / 4-cycle second path
            "count(*)",
            "RETURN DISTINCT",
            "WHERE",
            ":X",
            ":Y",
            ":A",
            "{v:",
            "{w:",
            "]->",
            "<-[",
            "]-(", // undirected steps appear
        ] {
            assert!(
                all.contains(needle),
                "400 cyclic queries never produced {needle}"
            );
        }
        for q in &qs {
            // Every pattern has two comma-joined paths sharing endpoints,
            // single-hop steps only, and fully named node variables.
            assert!(q.starts_with("MATCH (a"), "{q}");
            assert!(q.contains(", (a"), "{q}");
            let pattern = q.split(" RETURN").next().unwrap();
            assert!(!pattern.contains("count"), "{q}");
            assert!(!pattern.contains('*'), "variable-length hop in {q}");
        }
    }

    #[test]
    fn grammar_covers_the_breakers() {
        let qs = random_queries(400, 1).join("\n");
        for needle in [
            "count(*)", "DISTINCT", "ORDER BY", "LIMIT", "WHERE", "*1..2",
        ] {
            assert!(qs.contains(needle), "400 queries never produced {needle}");
        }
    }
}
