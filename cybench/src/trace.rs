//! The traced run: the same ops, executed in-process and cut at every
//! crate boundary the benchmark can reach from outside.
//!
//! One op becomes a small tree of spans:
//!
//! ```text
//! wire/request     Request::encode → write_frame → read_exact_frame → Request::decode
//! cypher/read      Session::query                       (or cypher/write, cypher/view_read)
//! ├─ parser/parse    parse_query(text)                  only when the plan cache missed
//! ├─ engine/plan     execute_read_cached, empty memo    only when the plan cache missed
//! │  └─ engine/exec  execute_read_cached, warm memo
//! ├─ engine/exec     execute[_read]_cached, warm memo   when the plan cache hit
//! └─ storage/append  Store::commit of the captured changes   writes only
//! wire/response    Response::encode → write_frame → read_exact_frame → Response::decode
//! ```
//!
//! The benchmark cannot open `Session::query` and time what happens
//! inside it — that is ROADMAP item 1(a). So a `cypher/*` span's children
//! are **replays**: the same parser / engine / storage calls, made by the
//! benchmark directly after the session call, on the snapshot the session
//! saw. They carry the session span as `parent` and are subtracted from
//! it by duration, which leaves `cypher`'s self time = cache lookup,
//! admission, commit pipeline, view fold, publish, bookkeeping. Replay
//! time is not part of the op; an op's in-process time is the sum of its
//! three root spans.

use crate::alloc::allocations_during;
use crate::drive::wrong_answer;
use crate::json::{obj, Json};
use crate::stats::median;
use crate::workloads::{ConnState, Expect, OpGen, Reply, Req, Workload};
use cypher::ast::Query;
use cypher::{
    parse_query, Database, EngineConfig, GraphView, Params, PlanMemo, Session, SharedChangeBuffer,
    Store, Value,
};
use cypher_wire::{read_exact_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_BYTES};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Counts that must repeat exactly for a seed are taken over this fixed
/// prefix of the traced ops, whatever the window length.
pub const COUNTED_OPS: usize = 256;
/// The traced pass stops here even if the window has not passed, which
/// bounds the span buffer.
const MAX_TRACED_OPS: usize = 20_000;
/// At most six spans per request, three requests per op.
const SPANS_PER_OP: usize = 18;
/// `trace_<workload>.json` holds the spans of this many leading ops.
const OPS_IN_TRACE_FILE: u32 = 1_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one is subtracted from.
    pub parent: Option<u32>,
    /// Timed beside the op, not part of it (`storage/sync` under
    /// `FsyncMode::Os`): never subtracted, never summed into the op.
    pub probe: bool,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            // Allocated before the first op so recording never reallocates.
            spans: Vec::with_capacity(MAX_TRACED_OPS * SPANS_PER_OP),
        }
    }

    /// Times `f` as one span and returns its index with `f`'s result.
    fn span<T>(
        &mut self,
        op: u32,
        (layer, name): (&'static str, &'static str),
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            layer,
            name,
            start_ns,
            end_ns,
            parent,
            probe: false,
        });
        (self.spans.len() as u32 - 1, out)
    }
}

/// Counts accumulated over the traced ops.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub wire_bytes: u64,
    pub rows: u64,
    pub allocs: u64,
    pub commits: u64,
    pub wal_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// The in-process executor of one lane.
struct InProc<'a> {
    w: &'a Workload,
    db: &'a Database,
    cfg: &'a EngineConfig,
    session: Session,
    tracer: Tracer,
    /// Every prepared statement, parsed, with the plan memo its replays
    /// share (filled by the first replay, warm from then on).
    prepared: HashMap<&'static str, (Query, PlanMemo)>,
    /// Receives the change batches captured from write replays.
    scratch: Store,
    frame: Vec<u8>,
    counts: Counts,
}

impl InProc<'_> {
    fn run_op(
        &mut self,
        op: u32,
        ops: &mut OpGen,
        expect: &Expect,
        state: &mut ConnState,
    ) -> Result<(), String> {
        let mut wrong = None;
        for step in &ops.next_op().steps {
            let reply = self.run_step(op, &step.req)?;
            if !expect.verify(&step.check, &reply, state) {
                wrong.get_or_insert_with(|| wrong_answer(step, &reply));
            }
        }
        self.counts.ops += 1;
        wrong.map_or(Ok(()), Err)
    }

    fn run_step(&mut self, op: u32, req: &Req) -> Result<Reply, String> {
        // What `cypher_client::Client` would send for this request.
        let request = match req {
            Req::Execute { stmt, params } => Request::Execute {
                id: *stmt as u32,
                params: params.clone(),
            },
            Req::Query { text } => Request::Query {
                text: text.to_string(),
                params: Params::new(),
            },
            Req::ReadView { name } => Request::ReadView {
                name: name.to_string(),
            },
        };
        let frame = &mut self.frame;
        let (_, decoded) = self.tracer.span(op, ("wire", "request"), None, || {
            frame.clear();
            write_frame(frame, &request.encode())?;
            let payload = read_exact_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES)?;
            Request::decode(&payload)
        });
        let decoded = decoded.map_err(|e| format!("request codec: {e}"))?;
        self.counts.wire_bytes += self.frame.len() as u64;

        let before = self.session.snapshot();
        let cache_before = self.db.plan_cache_stats();
        let wal_before = self.db.wal_bytes();
        let session = &mut self.session;
        let no_params = Params::new();
        let (text, params): (Option<&str>, &Params) = match &decoded {
            Request::Execute { id, params } => (Some(self.w.statements[*id as usize]), params),
            Request::Query { text, params } => (Some(text.as_str()), params),
            _ => (None, &no_params),
        };
        let kind = match text {
            None => "view_read",
            Some(t) if self.prepared.get(t).is_some_and(|(q, _)| q.is_updating()) => "write",
            Some(_) => "read",
        };
        let (session_span, response) =
            self.tracer.span(op, ("cypher", kind), None, || match text {
                None => {
                    let Request::ReadView { name } = &decoded else {
                        unreachable!("only view reads carry no text");
                    };
                    session
                        .view_versioned(name)
                        .map(|(version, table)| Response::ViewRows { version, table })
                }
                Some(text) => session.query(text, params).map(|table| Response::Rows {
                    committed: session.last_commit_version(),
                    table,
                }),
            });
        let response = response.map_err(|e| format!("session: {e}"))?;
        if let Some(text) = text {
            let hit = self.db.plan_cache_stats().hits > cache_before.hits;
            self.counts.cache_hits += u64::from(hit);
            self.counts.cache_misses += u64::from(!hit);
            let params = params.clone();
            self.replay(op, session_span, &before, text, &params, hit)?;
        }
        if let Response::Rows {
            committed: Some(_), ..
        } = &response
        {
            // A compaction inside the commit shrinks the log; such a
            // commit's own bytes cannot be told from outside, so skip it.
            if let (Some(b), Some(a)) = (wal_before, self.db.wal_bytes()) {
                if a > b {
                    self.counts.commits += 1;
                    self.counts.wal_bytes += a - b;
                }
            }
        }

        let frame = &mut self.frame;
        let (_, reply) = self.tracer.span(op, ("wire", "response"), None, || {
            frame.clear();
            write_frame(frame, &response.encode())?;
            let payload = read_exact_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES)?;
            Response::decode(&payload)
        });
        self.counts.wire_bytes += self.frame.len() as u64;
        match reply.map_err(|e| format!("response codec: {e}"))? {
            Response::Rows { committed, table } => {
                self.counts.rows += table.len() as u64;
                Ok(Reply {
                    committed,
                    version: None,
                    table,
                })
            }
            Response::ViewRows { version, table } => {
                self.counts.rows += table.len() as u64;
                Ok(Reply {
                    committed: None,
                    version: Some(version),
                    table,
                })
            }
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Repeats, as spans under `parent`, the calls `Session::query` made
    /// into the parser, the engine and the store.
    fn replay(
        &mut self,
        op: u32,
        parent: u32,
        before: &GraphView,
        text: &str,
        params: &Params,
        cache_hit: bool,
    ) -> Result<(), String> {
        let cfg = self.cfg;
        let parent = Some(parent);
        if !cache_hit {
            // The session parsed and planned; so do we, and the warm
            // re-execution under the cold one splits plan from exec.
            let (_, q) = self
                .tracer
                .span(op, ("parser", "parse"), parent, || parse_query(text));
            let q = q.map_err(|e| format!("replay parse: {e}"))?;
            if !q.is_updating() {
                let memo = PlanMemo::new();
                let (cold, r) = self.tracer.span(op, ("engine", "plan"), parent, || {
                    cypher_engine::execute_read_cached(before, &q, params, cfg, Some(&memo))
                });
                r.map_err(|e| format!("replay plan: {e}"))?;
                let (_, r) = self.tracer.span(op, ("engine", "exec"), Some(cold), || {
                    cypher_engine::execute_read_cached(before, &q, params, cfg, Some(&memo))
                });
                r.map_err(|e| format!("replay exec: {e}"))?;
                count_allocations(&mut self.counts, || {
                    cypher_engine::execute_read_cached(before, &q, params, cfg, Some(&memo)).is_ok()
                });
                return Ok(());
            }
            // A write that missed the cache (its first execution): fall
            // through to the warm replay below; its planning stays in
            // `cypher` self time, once.
        }
        let (q, memo) = self
            .prepared
            .get(text)
            .ok_or_else(|| format!("cache hit on an unprepared text: {text}"))?;
        if !q.is_updating() {
            let (_, r) = self.tracer.span(op, ("engine", "exec"), parent, || {
                cypher_engine::execute_read_cached(before, q, params, cfg, Some(memo))
            });
            r.map_err(|e| format!("replay exec: {e}"))?;
            count_allocations(&mut self.counts, || {
                cypher_engine::execute_read_cached(before, q, params, cfg, Some(memo)).is_ok()
            });
            return Ok(());
        }
        // The write ran against a copy-on-write clone of the published
        // graph with change capture on; so does its replay.
        let mut g = before.graph().clone();
        let captured = SharedChangeBuffer::new();
        g.set_change_sink(Box::new(captured.clone()));
        let (_, r) = self.tracer.span(op, ("engine", "exec"), parent, || {
            cypher_engine::execute_cached(&mut g, q, params, cfg, Some(memo))
        });
        r.map_err(|e| format!("replay write: {e}"))?;
        let mut again = before.graph().clone();
        count_allocations(&mut self.counts, || {
            cypher_engine::execute_cached(&mut again, q, params, cfg, Some(memo)).is_ok()
        });
        let changes = captured.drain();
        let scratch = &mut self.scratch;
        let (_, r) = self.tracer.span(op, ("storage", "append"), parent, || {
            scratch.commit(&changes)
        });
        r.map_err(|e| format!("replay append: {e}"))?;
        // `FsyncMode::Os` never syncs on the commit path, so this is a
        // probe beside the op: what a device flush would have added.
        let (sync, r) = self
            .tracer
            .span(op, ("storage", "sync"), None, || scratch.sync());
        self.tracer.spans[sync as usize].probe = true;
        r.map_err(|e| format!("replay sync: {e}"))?;
        Ok(())
    }
}

/// `engine.allocs_per_op`: allocations of one more, untimed, execution —
/// only for the counted prefix. Counting bumps a shared atomic per
/// allocation, which slows the parallel aggregate by a third and has no
/// place inside a timed span.
fn count_allocations(counts: &mut Counts, execute: impl FnOnce() -> bool) {
    if counts.ops < COUNTED_OPS as u64 {
        let (_, allocs) = allocations_during(execute);
        counts.allocs += allocs;
    }
}

/// What the traced pass found.
pub struct Traced {
    pub tracer: Tracer,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Over all traced ops, and over the first `COUNTED_OPS` of them.
    pub counts: Counts,
    pub counted_prefix: Counts,
    /// Database-side deltas over the pass.
    pub view_folds: u64,
    pub view_fold_us_sum: u64,
    pub view_full_recomputes: u64,
    pub groups: u64,
    pub group_members: u64,
}

/// Runs `ops` in-process for `window` — but never fewer than
/// `COUNTED_OPS` ops nor more than the span buffer holds.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    w: &Workload,
    db: &Database,
    cfg: &EngineConfig,
    scratch_dir: &Path,
    ops: &mut OpGen,
    expect: &Expect,
    state: &mut ConnState,
    window: Duration,
) -> Result<Traced, String> {
    let _ = std::fs::remove_dir_all(scratch_dir);
    let (scratch, _) = Store::open(scratch_dir).map_err(|e| format!("scratch store: {e}"))?;
    let prepared = w
        .statements
        .iter()
        .map(|text| {
            parse_query(text)
                .map(|q| (*text, (q, PlanMemo::new())))
                .map_err(|e| format!("parse {text}: {e}"))
        })
        .collect::<Result<HashMap<_, _>, String>>()?;
    let mut inproc = InProc {
        w,
        db,
        cfg,
        session: db.session(),
        tracer: Tracer::new(),
        prepared,
        scratch,
        frame: Vec::with_capacity(1 << 20),
        counts: Counts::default(),
    };
    let m = db.metrics();
    let folds_before = m.view_refresh_us.snapshot();
    let recomputes_before = m.view_full_recomputes.get();
    let groups_before = m.commit_group_size.snapshot();
    let mut failed = 0;
    let mut first_failure = None;
    let mut counted_prefix = Counts::default();
    let opened = Instant::now();
    let mut op = 0u32;
    while (op as usize) < MAX_TRACED_OPS
        && (opened.elapsed() < window || (op as usize) < COUNTED_OPS)
    {
        if let Err(e) = inproc.run_op(op, ops, expect, state) {
            failed += 1;
            first_failure.get_or_insert(e);
        }
        op += 1;
        if op as usize == COUNTED_OPS {
            counted_prefix = inproc.counts;
        }
    }
    let folds = m.view_refresh_us.snapshot();
    let groups = m.commit_group_size.snapshot();
    Ok(Traced {
        failed,
        first_failure,
        counts: inproc.counts,
        counted_prefix,
        view_folds: folds.count - folds_before.count,
        view_fold_us_sum: folds.sum - folds_before.sum,
        view_full_recomputes: m.view_full_recomputes.get() - recomputes_before,
        groups: groups.count - groups_before.count,
        group_members: groups.sum - groups_before.sum,
        tracer: inproc.tracer,
    })
}

/// Per-op self time of every `layer/name`, and each op's in-process time.
pub struct SelfTimes {
    /// `"layer/name"` → self time in µs, one entry per op (0 when the op
    /// has no such span).
    pub by_span: BTreeMap<String, Vec<f64>>,
    pub by_layer: BTreeMap<&'static str, Vec<f64>>,
    pub op_us: Vec<f64>,
}

impl SelfTimes {
    pub fn of(spans: &[Span]) -> SelfTimes {
        let ops = spans.iter().map(|s| s.op as usize + 1).max().unwrap_or(0);
        let mut children_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes {
            by_span: BTreeMap::new(),
            by_layer: BTreeMap::new(),
            op_us: vec![0.0; ops],
        };
        for (i, s) in spans.iter().enumerate() {
            let duration = s.end_ns - s.start_ns;
            // A replay can run longer than the call it repeats (a colder
            // cache, an interrupt): the parent's self time stops at zero.
            let self_us = duration.saturating_sub(children_ns[i]) as f64 / 1e3;
            out.by_span
                .entry(format!("{}/{}", s.layer, s.name))
                .or_insert_with(|| vec![0.0; ops])[s.op as usize] += self_us;
            if s.probe {
                continue;
            }
            out.by_layer
                .entry(s.layer)
                .or_insert_with(|| vec![0.0; ops])[s.op as usize] += self_us;
            if s.parent.is_none() {
                out.op_us[s.op as usize] += duration as f64 / 1e3;
            }
        }
        out
    }

    pub fn span_median_us(&self, key: &str) -> f64 {
        self.by_span.get(key).map_or(0.0, |v| median(v))
    }

    /// The budget table: per layer (or per `layer/name` span), the median
    /// self time per op and the share of the client-observed round trip
    /// (mean self time over mean RTT, so the shares of one workload add
    /// up to 1). The `server` row is what no in-process call accounts
    /// for: socket, thread hand-off, scheduling — the round trip minus
    /// the op.
    pub fn budget_table<K: ToString>(&self, rows: &BTreeMap<K, Vec<f64>>, rtt_us: &[f64]) -> Json {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mean_rtt, mean_op) = (mean(rtt_us), mean(&self.op_us));
        let row = |median_self_us: f64, mean_self_us: f64| {
            obj([
                ("median_self_us", Json::from(median_self_us)),
                ("share_of_rtt", Json::from(mean_self_us / mean_rtt)),
            ])
        };
        let mut table: Vec<(String, Json)> = rows
            .iter()
            .map(|(key, v)| (key.to_string(), row(median(v), mean(v))))
            .collect();
        table.push((
            "server".to_string(),
            row(median(rtt_us) - median(&self.op_us), mean_rtt - mean_op),
        ));
        Json::Obj(table)
    }
}

/// `trace_<workload>.json`: the spans of the leading ops, as recorded.
pub fn trace_file(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let kept: Vec<Json> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.op < OPS_IN_TRACE_FILE)
        .map(|(id, s)| {
            obj([
                ("id", Json::from(id)),
                ("op_id", Json::from(u64::from(s.op))),
                ("layer", Json::from(s.layer)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
                ("probe", Json::from(s.probe)),
            ])
        })
        .collect();
    obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("spans_recorded", Json::from(spans.len())),
        ("ops_in_file", Json::from(u64::from(OPS_IN_TRACE_FILE))),
        ("spans", Json::Arr(kept)),
    ])
}

/// `graph.seek_us`: the index seek under a point read, on `view`.
pub fn probe_seek_us(view: &GraphView, persons: usize) -> f64 {
    let g = view.graph();
    let (Some(label), Some(key)) = (g.interner().get("Person"), g.interner().get("i")) else {
        return f64::NAN;
    };
    let samples: Vec<f64> = (0..1_000usize)
        .map(|k| {
            let value = Value::int(((k * 7_919) % persons) as i64);
            let t = Instant::now();
            std::hint::black_box(g.nodes_with_label_prop(label, key, &value));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// `graph.cow_write_us`: clone a published graph and make the first
/// write to the clone — the copy a commit pays while readers hold the
/// previous version.
pub fn probe_cow_write_us(view: &GraphView, persons: usize) -> f64 {
    let published = view.graph();
    let (Some(label), Some(key_i), Some(key_v)) = (
        published.interner().get("Person"),
        published.interner().get("i"),
        published.interner().get("v"),
    ) else {
        return f64::NAN;
    };
    let samples: Vec<f64> = (0..200usize)
        .filter_map(|k| {
            let i = Value::int(((k * 7_919) % persons) as i64);
            let node = *published.nodes_with_label_prop(label, key_i, &i).first()?;
            let t = Instant::now();
            let mut g = published.clone();
            g.set_node_prop(node, key_v, Value::int(k as i64 % 10))
                .ok()?;
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            drop(g);
            Some(us)
        })
        .collect();
    median(&samples)
}
