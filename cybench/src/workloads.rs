//! The six workloads: their statements, their deterministic op streams,
//! and the answers every op is checked against.
//!
//! An op stream depends only on `(workload, seed, lane)`; the server
//! sees nothing but the statements and parameters it yields.

use cypher::workload::{powerlaw_social, QueryGenerator, QueryVocabulary};
use cypher::{Database, Params, PropertyGraph, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// `social-L` / `social-S`: persons in the preferential-attachment graph.
pub const PERSONS_L: usize = 100_000;
pub const PERSONS_S: usize = 10_000;
/// `read_write_cycle` only: on this tree the counted-bag view costs a
/// full edge scan per commit (8 ms on `social-S`), which would leave a
/// 10 s window at the 1 000 samples p99 needs; a quarter of the graph
/// keeps the same views and statements with room to spare.
pub const PERSONS_XS: usize = 2_500;
const EDGES_PER: usize = 4;

/// Write streams are split into this many key lanes (`i % LANES`), one
/// per connection, so no two connections ever write the same key and the
/// last acknowledged value of every key is known without a global order.
pub const LANES: usize = 2;

/// Unprepared texts in the `adhoc_query` pool: 32× the plan cache.
const ADHOC_POOL: usize = 4_096;
/// Every `ADHOC_ORACLE_STRIDE`-th pool text is also checked against the
/// reference evaluator (64 of them).
const ADHOC_ORACLE_STRIDE: usize = 64;
/// Bindings per `traverse_agg` shape whose full answer comes from the
/// reference evaluator; one op in `SAMPLE_EVERY` uses one of them.
const SAMPLE_KEYS: usize = 16;
const SAMPLE_EVERY: u64 = 8;
const SAMPLE_SLOT: u64 = 1;

const POINT_READ: &str = "MATCH (n:Person {i: $i}) RETURN n.v AS v";
const SET_V: &str = "MATCH (p:Person {i: $i}) SET p.v = $v";
const CREATE_FOLLOWER: &str =
    "MATCH (p:Person {i: $i}) CREATE (p)-[:FOLLOWS {w: $w}]->(:Person {i: $new, v: $v})";
/// Every seventh person is also a `Bot` and `v` takes ten values, so on
/// `social-L` the composite-index seek hands back about 1 430 rows
/// (~60 KB of reply) for next to no engine work. (`WHERE p.i < $n`
/// would scan all 100 000 persons per op — there is no range index — and
/// the scan, not the reply, would be the workload.)
const BIG_RESULT: &str = "MATCH (p:Bot {v: $v}) RETURN p.i AS i, p.v AS v, labels(p) AS l";

/// `traverse_agg` shapes, by statement index. Every account follows four
/// earlier ones, so walking FOLLOWS *forward* from `$i` costs the same
/// for (almost) every binding — 4^k paths — where a walk against the
/// arrows would cost a hub ten thousand times what it costs a newcomer
/// and a window's throughput would be whichever hubs it drew.
const FAN_OUT: &str = "MATCH (p:Person {i: $i})-[:FOLLOWS]->(:Person)-[:FOLLOWS]->(:Person)\
     -[:FOLLOWS]->(:Person)-[:FOLLOWS]->(:Person)-[:FOLLOWS]->(f:Person) \
     RETURN f.v AS v, count(*) AS c ORDER BY c DESC LIMIT 10";
/// Triangles through each account three hops out: the closing edge makes
/// the planner bind `c` with a `MultiwayIntersect`.
const TRIANGLES: &str = "MATCH (s:Person {i: $i})-[:FOLLOWS]->(:Person)-[:FOLLOWS]->(:Person)\
     -[:FOLLOWS]->(a:Person), (a)-[:FOLLOWS]->(b:Person)-[:FOLLOWS]->(c:Person), \
     (a)-[:FOLLOWS]->(c) RETURN count(*) AS triangles";
const REACH: &str = "MATCH (a:Person {i: $i})-[:FOLLOWS*1..5]->(b:Person) RETURN count(*) AS paths";
/// The one shape big enough for morsel parallelism (`num_threads = C`).
const LABEL_AGG: &str = "MATCH (p:Person) RETURN p.v AS v, count(*) AS c, avg(p.i) AS m";
const LABEL_AGG_STMT: usize = 3;
/// One op in this many is the full-label aggregate, at a fixed place in
/// the schedule, so every slice of a window holds the same mix.
const LABEL_AGG_EVERY: u64 = 32;

pub const VIEW_BY_V: &str = "by_v";
pub const VIEW_HEAVY: &str = "heavy_edges";
const VIEW_BY_V_TEXT: &str = "MATCH (p:Person) RETURN p.v AS v, count(*) AS c";
/// `w` is uniform on 0..100, so `w > 98` keeps about 1 % of the edges.
const VIEW_HEAVY_TEXT: &str =
    "MATCH (a:Person)-[f:FOLLOWS]->(b:Person) WHERE f.w > 98 RETURN a.i AS a, b.i AS b";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointRead,
    AdhocQuery,
    TraverseAgg,
    BigResult,
    WriteCommit,
    ReadWriteCycle,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub persons: usize,
    /// Client connections of the untraced run.
    pub connections: usize,
    /// `EngineConfig::num_threads`: 1 everywhere but `traverse_agg`.
    pub engine_threads: usize,
    /// Statements every connection prepares, in `Req::Execute::stmt` order.
    pub statements: Vec<&'static str>,
    pub views: Vec<(&'static str, &'static str)>,
    /// Ops each connection runs unmeasured at the end of set-up (plan
    /// cache, lazy adjacency build, allocator warm-up).
    pub warmup_ops: usize,
}

impl Workload {
    /// `conns` is `C = min(nproc, 2)`. `small` (smoke) puts every
    /// workload on `social-S`.
    pub fn by_name(name: &str, conns: usize, small: bool) -> Option<Workload> {
        let large = if small { PERSONS_S } else { PERSONS_L };
        let w =
            |kind, name, persons, connections, statements: &[&'static str], warmup_ops| Workload {
                kind,
                name,
                persons,
                connections,
                engine_threads: 1,
                statements: statements.to_vec(),
                views: Vec::new(),
                warmup_ops,
            };
        Some(match name {
            "point_read" => w(
                Kind::PointRead,
                "point_read",
                large,
                conns,
                &[POINT_READ],
                4_000,
            ),
            "adhoc_query" => w(
                Kind::AdhocQuery,
                "adhoc_query",
                PERSONS_S,
                conns,
                &[],
                1_000,
            ),
            "traverse_agg" => Workload {
                engine_threads: conns,
                ..w(
                    Kind::TraverseAgg,
                    "traverse_agg",
                    large,
                    1,
                    &[FAN_OUT, TRIANGLES, REACH, LABEL_AGG],
                    256,
                )
            },
            "big_result" => w(Kind::BigResult, "big_result", large, 1, &[BIG_RESULT], 32),
            "write_commit" => w(
                Kind::WriteCommit,
                "write_commit",
                PERSONS_S,
                conns,
                &[SET_V, CREATE_FOLLOWER],
                1_000,
            ),
            "read_write_cycle" => Workload {
                views: vec![(VIEW_BY_V, VIEW_BY_V_TEXT), (VIEW_HEAVY, VIEW_HEAVY_TEXT)],
                ..w(
                    Kind::ReadWriteCycle,
                    "read_write_cycle",
                    PERSONS_XS,
                    // One connection: two closed loops phase-lock on the
                    // serialized view publisher and flip between regimes
                    // (p99 9 ms in one, 65 ms in the other, same code and
                    // seed) — the load generator's doing, not the system's.
                    1,
                    &[SET_V, POINT_READ],
                    32,
                )
            },
            _ => return None,
        })
    }

    pub fn dataset_name(&self) -> &'static str {
        match self.persons {
            PERSONS_L => "social-L",
            PERSONS_S => "social-S",
            _ => "social-XS",
        }
    }

    pub fn generate(&self, seed: u64) -> PropertyGraph {
        powerlaw_social(self.persons, EDGES_PER, seed)
    }

    /// The op stream of one lane. Lanes are independent: lane 0 of a
    /// seed is the same sequence whether or not lane 1 runs beside it.
    pub fn ops(&self, seed: u64, lane: usize) -> OpGen {
        assert!(lane < LANES, "lane {lane} out of range");
        OpGen {
            kind: self.kind,
            persons: self.persons as i64,
            lane: lane as i64,
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane as u64),
            k: 0,
            sample_keys: sample_keys(seed, self.persons),
            pool: if self.kind == Kind::AdhocQuery {
                adhoc_pool(seed, self.persons)
            } else {
                Arc::from([])
            },
        }
    }
}

/// The `SAMPLE_KEYS` bindings whose answers the oracle provides.
fn sample_keys(seed: u64, persons: usize) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A4D_504C);
    (0..SAMPLE_KEYS)
        .map(|_| rng.gen_range(0..persons as i64))
        .collect()
}

/// `ADHOC_POOL` textually distinct read statements from the repo's own
/// `QueryGenerator`, over the social vocabulary: seven in eight a cyclic
/// pattern (triangle, diamond, 4-cycle — the longest texts and the most
/// planning the generator offers), one in eight a linear path.
///
/// The generator was written for 20-node graphs; on 10 000 nodes an
/// unanchored pattern runs for seconds and the engine, not the parser
/// and planner, would be the workload. So every text's first node is
/// pinned to one person by an `i` literal — which also makes every text
/// distinct — and a linear text is kept only if it is a single path
/// without variable-length hops (a second, unpinned path or a `*1..3`
/// through a hub is the same explosion again).
fn adhoc_pool(seed: u64, persons: usize) -> Arc<[Arc<str>]> {
    let vocab = QueryVocabulary {
        labels: vec!["Person".into(), "Bot".into()],
        types: vec!["FOLLOWS".into()],
        int_props: vec!["v".into(), "i".into()],
    };
    let mut gen = QueryGenerator::with_vocabulary(seed, vocab);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xAD0C);
    let mut seen: HashSet<String> = HashSet::new();
    let mut pool: Vec<Arc<str>> = Vec::with_capacity(ADHOC_POOL);
    while pool.len() < ADHOC_POOL {
        let cyclic = !pool.len().is_multiple_of(8);
        let text = if cyclic {
            gen.next_cyclic_query()
        } else {
            gen.next_query()
        };
        let pattern_end = text.find(" WHERE ").or_else(|| text.find(" RETURN "));
        let pattern = &text[..pattern_end.expect("generated query has a RETURN")];
        if !cyclic && (pattern.contains('*') || pattern.contains("), (")) {
            continue;
        }
        // Later accounts have few followers, so the pinned start is never
        // a hub whose neighbourhood would swamp parse and plan time.
        let key = rng.gen_range(persons as i64 / 2..persons as i64);
        let close = text.find(')').expect("first node pattern closes");
        let first = &text[..close];
        let anchored = match first.strip_suffix('}') {
            Some(with_props) => format!("{with_props}, i: {key}}}{}", &text[close..]),
            None => format!("{first} {{i: {key}}}{}", &text[close..]),
        };
        if seen.insert(anchored.clone()) {
            pool.push(Arc::from(anchored));
        }
    }
    pool.into()
}

/// One request of an op.
#[derive(Debug, Clone)]
pub enum Req {
    /// A prepared statement, by index into `Workload::statements`.
    Execute {
        stmt: usize,
        params: Params,
    },
    /// Unprepared text (no parameters: the text is the variation).
    Query {
        text: Arc<str>,
    },
    ReadView {
        name: &'static str,
    },
}

/// What a write acknowledged by the server must have made durable.
#[derive(Debug, Clone, Copy)]
pub enum Effect {
    Set { i: i64, v: i64 },
    Create { new: i64 },
}

/// How a reply is judged.
#[derive(Debug, Clone)]
pub enum Check {
    /// One row, one cell: `written` if the op itself set it, else the
    /// generator's value for person `i`.
    PersonV { i: i64, written: Option<i64> },
    /// Every bot with this `v`: row count and checksum from the
    /// generator's graph.
    BigResult { v: i64 },
    /// A `traverse_agg` shape: the oracle's table when `sample` names one
    /// of the sampled bindings, the shape's row-count rule otherwise.
    Shape { stmt: usize, sample: Option<usize> },
    /// Pool text `idx`: row count always, the oracle's table on the sample.
    Adhoc { idx: usize },
    /// The write was acknowledged with a commit version.
    Committed(Effect),
    /// The aggregate view, at a version no older than this connection's
    /// last commit, still counting every person exactly once.
    ViewFresh,
}

#[derive(Debug, Clone)]
pub struct Step {
    pub req: Req,
    pub check: Check,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub steps: Vec<Step>,
}

pub struct OpGen {
    kind: Kind,
    persons: i64,
    lane: i64,
    rng: SmallRng,
    k: u64,
    sample_keys: Vec<i64>,
    pool: Arc<[Arc<str>]>,
}

fn params<const N: usize>(pairs: [(&str, i64); N]) -> Params {
    pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::int(v)))
        .collect()
}

impl OpGen {
    /// A key of this lane among the generator's persons.
    fn lane_key(&mut self) -> i64 {
        let lanes = LANES as i64;
        self.rng.gen_range(0..self.persons / lanes) * lanes + self.lane
    }

    pub fn next_op(&mut self) -> Op {
        let k = self.k;
        self.k += 1;
        let step = |req, check| Step { req, check };
        let steps = match self.kind {
            Kind::PointRead => {
                let i = self.rng.gen_range(0..self.persons);
                vec![step(
                    Req::Execute {
                        stmt: 0,
                        params: params([("i", i)]),
                    },
                    Check::PersonV { i, written: None },
                )]
            }
            Kind::AdhocQuery => {
                // Lanes walk the pool half a pool apart, so a text's next
                // use is always thousands of texts (≫ the 128-entry plan
                // cache) after its last.
                let idx =
                    (k as usize + self.lane as usize * (self.pool.len() / LANES)) % self.pool.len();
                vec![step(
                    Req::Query {
                        text: Arc::clone(&self.pool[idx]),
                    },
                    Check::Adhoc { idx },
                )]
            }
            Kind::TraverseAgg => {
                // A fixed schedule, not a draw: the aggregate costs a
                // hundred anchored ops, and a slice that happened to draw
                // two more of them would read as a slower system.
                let stmt = match k % LABEL_AGG_EVERY {
                    0 => LABEL_AGG_STMT,
                    slot => (slot % 3) as usize,
                };
                let (i, sample) = if k % SAMPLE_EVERY == SAMPLE_SLOT {
                    let s = (k / SAMPLE_EVERY) as usize % self.sample_keys.len();
                    (self.sample_keys[s], Some(s))
                } else {
                    (self.rng.gen_range(0..self.persons), None)
                };
                vec![step(
                    Req::Execute {
                        stmt,
                        params: params([("i", i)]),
                    },
                    Check::Shape { stmt, sample },
                )]
            }
            Kind::BigResult => {
                let v = self.rng.gen_range(0..10);
                vec![step(
                    Req::Execute {
                        stmt: 0,
                        params: params([("v", v)]),
                    },
                    Check::BigResult { v },
                )]
            }
            Kind::WriteCommit => {
                let i = self.lane_key();
                let v = self.rng.gen_range(0..10);
                if k.is_multiple_of(2) {
                    vec![step(
                        Req::Execute {
                            stmt: 0,
                            params: params([("i", i), ("v", v)]),
                        },
                        Check::Committed(Effect::Set { i, v }),
                    )]
                } else {
                    let new = self.persons + (k as i64 / 2) * LANES as i64 + self.lane;
                    let w = self.rng.gen_range(0..100);
                    vec![step(
                        Req::Execute {
                            stmt: 1,
                            params: params([("i", i), ("w", w), ("new", new), ("v", v)]),
                        },
                        Check::Committed(Effect::Create { new }),
                    )]
                }
            }
            Kind::ReadWriteCycle => {
                let i = self.lane_key();
                let v = self.rng.gen_range(0..10);
                vec![
                    step(
                        Req::Execute {
                            stmt: 0,
                            params: params([("i", i), ("v", v)]),
                        },
                        Check::Committed(Effect::Set { i, v }),
                    ),
                    step(Req::ReadView { name: VIEW_BY_V }, Check::ViewFresh),
                    step(
                        Req::Execute {
                            stmt: 1,
                            params: params([("i", i)]),
                        },
                        Check::PersonV {
                            i,
                            written: Some(v),
                        },
                    ),
                ]
            }
        };
        Op { steps }
    }
}

/// A reply, whichever response frame carried it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Commit version of an acknowledged write.
    pub committed: Option<u64>,
    /// Version a view read is exact at.
    pub version: Option<u64>,
    pub table: Table,
}

/// What one connection has been promised so far.
#[derive(Debug, Default)]
pub struct ConnState {
    pub last_commit: u64,
    pub sets: HashMap<i64, i64>,
    pub created: Vec<i64>,
}

/// Records what an acknowledged write promised. False when a write came
/// back without a commit version (it matched nothing, or was refused);
/// true for every other kind of check.
pub fn record_ack(check: &Check, reply: &Reply, state: &mut ConnState) -> bool {
    let Check::Committed(effect) = check else {
        return true;
    };
    let Some(version) = reply.committed else {
        return false;
    };
    state.last_commit = version;
    match *effect {
        Effect::Set { i, v } => {
            state.sets.insert(i, v);
        }
        Effect::Create { new } => state.created.push(new),
    }
    true
}

/// The answers, computed once per run after set-up and outside its clock.
pub struct Expect {
    persons: usize,
    /// `v` of person `i`, from the generator's own graph.
    v: Vec<i64>,
    /// `big_result`: `(rows, checksum)` of the bots with `v`, at index `v`.
    bots: Vec<(usize, u64)>,
    /// Oracle tables: `samples[stmt][sample]`.
    samples: Vec<Vec<Table>>,
    adhoc_rows: Vec<usize>,
    adhoc_oracle: HashMap<usize, Table>,
}

fn int(v: Option<&Value>) -> Option<i64> {
    match v {
        Some(Value::Integer(i)) => Some(*i),
        _ => None,
    }
}

fn big_result_row_sum(i: i64, v: i64, labels: usize) -> u64 {
    (i * 31 + v * 7) as u64 + labels as u64
}

impl Expect {
    /// `g` is the generator's graph; `db` the loaded database, asked only
    /// through the reference evaluator (and, for `adhoc_query` row
    /// counts, the engine once per text — a self-consistency check the
    /// oracle sample anchors).
    pub fn build(w: &Workload, seed: u64, g: &PropertyGraph, db: &Database) -> Expect {
        let key_i = g.interner().get("i").expect("generator sets `i`");
        let key_v = g.interner().get("v").expect("generator sets `v`");
        let mut v = vec![0i64; w.persons];
        let mut labels = vec![0usize; w.persons];
        for n in g.nodes() {
            let i = int(g.node_prop(n, key_i)).expect("integer `i`") as usize;
            v[i] = int(g.node_prop(n, key_v)).expect("integer `v`");
            labels[i] = g.labels(n).len();
        }
        let mut bots = vec![(0usize, 0u64); 10];
        for i in (0..w.persons).filter(|&i| labels[i] == 2) {
            let (rows, sum) = &mut bots[v[i] as usize];
            *rows += 1;
            *sum += big_result_row_sum(i as i64, v[i], labels[i]);
        }
        let mut expect = Expect {
            persons: w.persons,
            v,
            bots,
            samples: Vec::new(),
            adhoc_rows: Vec::new(),
            adhoc_oracle: HashMap::new(),
        };
        let mut session = db.session();
        match w.kind {
            Kind::TraverseAgg => {
                let keys = sample_keys(seed, w.persons);
                expect.samples = w
                    .statements
                    .iter()
                    .enumerate()
                    .map(|(stmt, text)| {
                        // The aggregate ignores `$i`: one evaluation.
                        let keys = if stmt == LABEL_AGG_STMT {
                            &keys[..1]
                        } else {
                            &keys[..]
                        };
                        keys.iter()
                            .map(|&i| {
                                session
                                    .query_reference(text, &params([("i", i)]))
                                    .expect("oracle evaluates a traverse_agg shape")
                            })
                            .collect()
                    })
                    .collect();
            }
            Kind::AdhocQuery => {
                let none = Params::new();
                for (idx, text) in adhoc_pool(seed, w.persons).iter().enumerate() {
                    let got = session
                        .query(text, &none)
                        .unwrap_or_else(|e| panic!("adhoc text fails: {e}: {text}"));
                    expect.adhoc_rows.push(got.len());
                    if idx % ADHOC_ORACLE_STRIDE == 0 {
                        let oracle = session
                            .query_reference(text, &none)
                            .expect("oracle evaluates an adhoc text");
                        expect.adhoc_oracle.insert(idx, oracle);
                    }
                }
            }
            _ => {}
        }
        expect
    }

    /// Judges one reply and records what an acknowledged write promised.
    pub fn verify(&self, check: &Check, reply: &Reply, state: &mut ConnState) -> bool {
        let t = &reply.table;
        match check {
            Check::PersonV { i, written } => {
                let want = written.unwrap_or_else(|| self.v[*i as usize]);
                t.len() == 1 && int(t.cell(0, "v")) == Some(want)
            }
            Check::BigResult { v } => {
                let mut sum = 0u64;
                for row in 0..t.len() {
                    let (Some(i), Some(v), Some(Value::List(l))) = (
                        int(t.cell(row, "i")),
                        int(t.cell(row, "v")),
                        t.cell(row, "l"),
                    ) else {
                        return false;
                    };
                    sum += big_result_row_sum(i, v, l.len());
                }
                (t.len(), sum) == self.bots[*v as usize]
            }
            Check::Shape { stmt, sample } => match sample {
                Some(s) => t.bag_eq(&self.samples[*stmt][*s]),
                // The aggregate takes no binding, so the oracle's answer
                // holds for every one of its ops.
                None if *stmt == LABEL_AGG_STMT => t.bag_eq(&self.samples[*stmt][0]),
                // Ten `v` groups exist (the first few accounts follow
                // nobody: no rows); the anchored counts are one row.
                None if *stmt == 0 => t.len() <= 10,
                None => t.len() == 1 && int(t.rows()[0].values().first()).is_some(),
            },
            Check::Adhoc { idx } => {
                t.len() == self.adhoc_rows[*idx]
                    && self.adhoc_oracle.get(idx).is_none_or(|o| t.bag_eq(o))
            }
            Check::Committed(_) => record_ack(check, reply, state),
            Check::ViewFresh => {
                let total: i64 = (0..t.len()).filter_map(|r| int(t.cell(r, "c"))).sum();
                reply.version.is_some_and(|v| v >= state.last_commit)
                    && t.len() <= 10
                    && total == self.persons as i64
            }
        }
    }
}
