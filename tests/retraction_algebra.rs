//! Property tests for the **retraction algebra** behind incremental
//! view maintenance: feeding rows into a mergeable partial state and
//! then retracting them must leave a state whose finalized output is
//! **bit-identical** (float bit patterns included — `ExactFloatSum`,
//! `stdev`'s exact moments) to a state that was never fed those rows —
//! under arbitrary interleavings of kept and retracted rows, arbitrary
//! retraction orders, and arbitrary merge shapes (the morsel-parallel
//! fold splits the stream at random chunk boundaries and merges).
//!
//! Covered states: [`GroupedAggState`] (count/sum/avg/stdev/stdevp and
//! the DISTINCT min/max family), [`DistinctSet`] (counted multiplicity and
//! full-retraction order transparency), and the [`CountedMap`] all of
//! them count rows in, against a naive ordered-list model (first-live
//! insertion order, counts, fresh slots after full retraction, merges,
//! and bounded slots under churn).
//!
//! Output-row *order* of a grouped state is first-group-appearance
//! order, which retracted rows legitimately influence (a group opened
//! by a retracted row and later joined by a kept row survives in its
//! original slot) — so grouped outputs compare as sorted row sets; the
//! cells themselves must match bit-for-bit.
//!
//! No engine cell reaches these states: the suite reads no
//! `EngineConfig`, and the random chunk merges stand in for threads and
//! morsels.

use cypher::{parse_query, Params, PropertyGraph, Record, Schema, Table, Value};
use cypher_core::aggregate::DistinctSet;
use cypher_core::bag::CountedMap;
use cypher_core::project::{GroupedAggState, ProjectionPlan};
use cypher_core::EvalContext;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Material: rows over schema (g, x), with floats spanning ~80 orders of
// binary magnitude so naive summation would actually lose bits.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Num {
    Int(i64),
    Float(i64, i32),
    Null,
}

impl Num {
    fn value(&self) -> Value {
        match self {
            Num::Int(i) => Value::int(*i),
            Num::Float(m, e) => Value::float((*m as f64) * 2f64.powi(*e)),
            Num::Null => Value::Null,
        }
    }
}

fn arb_num() -> BoxedStrategy<Num> {
    prop_oneof![
        (-1_000i64..1_000).prop_map(Num::Int),
        ((-9_999i64..10_000), (-40i32..40)).prop_map(|(m, e)| Num::Float(m, e)),
        Just(Num::Null),
    ]
    .boxed()
}

/// One source row: `extra` rows are fed and later retracted; the rest
/// form the oracle stream.
fn arb_rows() -> BoxedStrategy<Vec<(bool, u8, Num)>> {
    proptest::collection::vec((0u8..5, 0u8..4, arb_num()), 0..48)
        .prop_map(|v| {
            v.into_iter()
                // ~2 in 5 rows are later retracted.
                .map(|(tag, g, n)| (tag < 2, g, n))
                .collect()
        })
        .boxed()
}

fn src_schema() -> Arc<Schema> {
    Schema::new(vec!["g".to_string(), "x".to_string()])
}

fn record(g: u8, n: &Num) -> Record {
    Record::new(vec![Value::int(g as i64), n.value()])
}

/// Compiles the projection plan of `RETURN …` against the (g, x) schema.
fn plan_of(ret: &str) -> ProjectionPlan {
    let q = parse_query(&format!("MATCH (g) {ret}")).unwrap();
    let cypher::ast::query::Query::Single(sq) = q else {
        panic!("not a single query");
    };
    ProjectionPlan::compile(sq.ret.as_ref().unwrap(), &src_schema()).unwrap()
}

/// Renders a value so equal fingerprints mean equal **bits** for floats
/// (NaN payloads and signed zeros included), not just Cypher equality.
fn fingerprint_value(out: &mut String, v: &Value) {
    match v {
        Value::Float(f) => out.push_str(&format!("f:{:016x}", f.to_bits())),
        other => out.push_str(&format!("{other:?}")),
    }
}

fn row_fingerprint(r: &Record) -> String {
    let mut s = String::new();
    for v in r.values() {
        fingerprint_value(&mut s, v);
        s.push('|');
    }
    s
}

fn sorted_fingerprints(t: &Table) -> Vec<String> {
    let mut v: Vec<String> = t.rows().iter().map(row_fingerprint).collect();
    v.sort();
    v
}

/// A tiny deterministic shuffle (the proptest shim has no
/// `prop_shuffle`): Fisher–Yates driven by an LCG over `seed`.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// Folds the stream into chunked partial states (split where `splits`
/// says) merged in order — the exact shape of the morsel-parallel fold.
/// With `include_extras = false` this is the never-fed oracle.
fn fold_grouped(
    ctx: &EvalContext<'_>,
    plan: &ProjectionPlan,
    rows: &[(bool, u8, Num)],
    splits: &[bool],
    include_extras: bool,
) -> GroupedAggState {
    let schema = src_schema();
    let mut states = vec![GroupedAggState::default()];
    for (i, (extra, g, n)) in rows.iter().enumerate() {
        if splits.get(i).copied().unwrap_or(false) {
            states.push(GroupedAggState::default());
        }
        if *extra && !include_extras {
            continue;
        }
        states
            .last_mut()
            .unwrap()
            .feed(ctx, plan, &schema, &record(*g, n))
            .unwrap();
    }
    let mut it = states.into_iter();
    let mut acc = it.next().unwrap();
    for s in it {
        acc.merge(s);
    }
    acc
}

fn check_grouped_retraction(ret: &str, rows: &[(bool, u8, Num)], splits: &[bool], order_seed: u64) {
    let graph = PropertyGraph::new();
    let params = Params::new();
    let ctx = EvalContext::new(&graph, &params);
    let plan = plan_of(ret);
    let schema = src_schema();

    let mut state = fold_grouped(&ctx, &plan, rows, splits, true);
    let mut extras: Vec<&(bool, u8, Num)> = rows.iter().filter(|(e, _, _)| *e).collect();
    shuffle(&mut extras, order_seed);
    for (_, g, n) in extras {
        let hit = state.retract(&ctx, &plan, &schema, &record(*g, n)).unwrap();
        prop_assert!(hit, "retracting a row that was fed must find its group");
    }

    let oracle = fold_grouped(&ctx, &plan, rows, splits, false);
    let got = state.finalize_snapshot(&ctx, &plan, &schema).unwrap();
    let want = oracle.finalize_snapshot(&ctx, &plan, &schema).unwrap();
    prop_assert_eq!(
        sorted_fingerprints(&got),
        sorted_fingerprints(&want),
        "feed-then-retract diverged from never-fed for {}",
        ret
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn grouped_agg_feed_then_retract_is_identity(
        rows in arb_rows(),
        splits in proptest::collection::vec(any::<bool>(), 0..48),
        order_seed in any::<u64>(),
    ) {
        // count/sum/avg and both stdev flavors: i128 integer sums,
        // ExactFloatSum and the exact-moments subtraction all on the line.
        check_grouped_retraction(
            "RETURN g AS g, count(*) AS c, count(x) AS cx, sum(x) AS s, \
             avg(x) AS a, stdev(x) AS sd, stdevp(x) AS sp",
            &rows, &splits, order_seed,
        );
    }

    #[test]
    fn distinct_min_max_feed_then_retract_is_identity(
        rows in arb_rows(),
        splits in proptest::collection::vec(any::<bool>(), 0..48),
        order_seed in any::<u64>(),
    ) {
        // The DISTINCT family rides DistinctSet's counted slots; min/max
        // are only retractable under DISTINCT.
        check_grouped_retraction(
            "RETURN g AS g, min(DISTINCT x) AS lo, max(DISTINCT x) AS hi, \
             sum(DISTINCT x) AS s, count(DISTINCT x) AS c",
            &rows, &splits, order_seed,
        );
    }

    #[test]
    fn ungrouped_aggregates_survive_full_retraction(
        rows in arb_rows(),
        order_seed in any::<u64>(),
    ) {
        // No grouping keys: the single global group must survive total
        // retraction (RETURN count(*) over nothing is still one row).
        check_grouped_retraction(
            "RETURN count(x) AS c, sum(x) AS s, stdev(x) AS sd",
            &rows, &[], order_seed,
        );
    }

    #[test]
    fn distinct_set_counts_multiplicity_and_restores_order(
        base in proptest::collection::vec((0i64..12, 1u8..4), 0..24),
        extra in proptest::collection::vec((100i64..112, 1u8..4), 0..24),
        order_seed in any::<u64>(),
    ) {
        // `base` and `extra` draw from disjoint value ranges so full
        // retraction of the extras must restore the *exact* visible
        // sequence, not just the set.
        let mut set = DistinctSet::new();
        let mut oracle = DistinctSet::new();
        let (mut bi, mut ei) = (0usize, 0usize);
        let mut seed = order_seed;
        while bi < base.len() || ei < extra.len() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let take_extra = if ei >= extra.len() {
                false
            } else if bi >= base.len() {
                true
            } else {
                (seed >> 40) & 1 == 1
            };
            let (v, copies) = if take_extra {
                ei += 1;
                extra[ei - 1]
            } else {
                bi += 1;
                base[bi - 1]
            };
            for _ in 0..copies {
                set.insert(Value::int(v));
                if v < 100 {
                    oracle.insert(Value::int(v));
                }
            }
        }
        // Multiplicity law: only the removal of the *last* live copy of
        // a value reports "became invisible", and over-draining is an
        // absent no-op. (The same value can appear in several `extra`
        // tuples, so drain per distinct value.)
        let mut totals: std::collections::HashMap<i64, u32> = std::collections::HashMap::new();
        for &(v, copies) in &extra {
            *totals.entry(v).or_default() += copies as u32;
        }
        for (&v, &copies) in &totals {
            for i in 0..copies {
                let became_invisible = set.remove(&Value::int(v));
                prop_assert_eq!(
                    became_invisible,
                    i + 1 == copies,
                    "copy {} of {} for value {}",
                    i + 1,
                    copies,
                    v
                );
            }
            prop_assert!(
                !set.remove(&Value::int(v)),
                "an over-drained value must report absent"
            );
        }
        let got: Vec<String> = set.values().map(|v| format!("{v:?}")).collect();
        let want: Vec<String> = oracle.values().map(|v| format!("{v:?}")).collect();
        prop_assert_eq!(got, want, "full retraction must be order-transparent");
    }
}

// ---------------------------------------------------------------------
// The counted multiset, against a naive model
// ---------------------------------------------------------------------

/// One operation on a counted map: `0` adds with a payload bump
/// (`add_with`), `1` adds (`add`), `2` removes one copy.
type MapOp = (u8, Vec<Value>);

/// Keys of one or two values from a domain with equivalent members
/// (`1 ≡ 1.0`, `null ≡ null`), so lookups must hash and compare under
/// Cypher equivalence.
fn arb_map_ops() -> BoxedStrategy<Vec<MapOp>> {
    let domain = || {
        (0u8..6).prop_map(|i| match i {
            0 => Value::int(0),
            1 => Value::int(1),
            2 => Value::float(1.0),
            3 => Value::int(2),
            4 => Value::Null,
            _ => Value::str("a"),
        })
    };
    let key = proptest::collection::vec(domain(), 1..3);
    proptest::collection::vec((0u8..3, key), 0..64).boxed()
}

/// The model: live entries in first-live-insertion order, each with its
/// copy count and payload (the `add_with` calls that reached it).
#[derive(Default)]
struct NaiveBag(Vec<(Vec<Value>, u64, u64)>);

impl NaiveBag {
    fn find(&self, key: &[Value]) -> Option<usize> {
        self.0.iter().position(|(k, ..)| {
            k.len() == key.len() && k.iter().zip(key).all(|(a, b)| a.equivalent(b))
        })
    }

    /// Adds `n` copies carrying `bumps` payload; `true` when `key` was
    /// not live.
    fn add(&mut self, key: &[Value], n: u64, bumps: u64) -> bool {
        match self.find(key) {
            Some(i) => {
                self.0[i].1 += n;
                self.0[i].2 += bumps;
                false
            }
            None => {
                self.0.push((key.to_vec(), n, bumps));
                true
            }
        }
    }

    fn remove(&mut self, key: &[Value]) -> Option<bool> {
        let i = self.find(key)?;
        self.0[i].1 -= 1;
        let last = self.0[i].1 == 0;
        if last {
            self.0.remove(i);
        }
        Some(last)
    }
}

/// Runs `ops` on a map and the model side by side, checking every
/// answer, the live contents and the slot bound after each step.
fn run_map_ops(map: &mut CountedMap<Vec<Value>, u64>, model: &mut NaiveBag, ops: &[MapOp]) {
    for (op, key) in ops {
        match op {
            0 => {
                *map.add_with(key, || (key.clone(), 0)) += 1;
                model.add(key, 1, 1);
            }
            1 => assert_eq!(map.add(key.clone()), model.add(key, 1, 0)),
            _ => assert_eq!(map.remove(key), model.remove(key), "remove {:?}", key),
        }
        check_map(map, model);
    }
}

fn check_map(map: &CountedMap<Vec<Value>, u64>, model: &NaiveBag) {
    let shown = |k: &[Value], n: u64, p: u64| format!("{k:?} x{n} p{p}");
    let got: Vec<String> = map.iter().map(|(k, n, p)| shown(k, n, *p)).collect();
    let want: Vec<String> = model.0.iter().map(|(k, n, p)| shown(k, *n, *p)).collect();
    assert_eq!(got, want);
    assert_eq!(map.len(), model.0.len());
    // Tombstones never outnumber the live keys: compaction keeps a
    // churned map at the size of what is live, not of its history.
    assert!(
        map.slots() <= 2 * map.len(),
        "{} slots for {} live keys",
        map.slots(),
        map.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counted_map_matches_a_naive_multiset(
        ops in arb_map_ops(),
        later in arb_map_ops(),
        churn in 0u64..200,
    ) {
        let mut map = CountedMap::default();
        let mut model = NaiveBag::default();
        run_map_ops(&mut map, &mut model, &ops);

        // A sibling covering later rows merges its live slots in its
        // order: into this map's live slot of the key, or at the end.
        let mut sibling = CountedMap::default();
        let mut sibling_model = NaiveBag::default();
        run_map_ops(&mut sibling, &mut sibling_model, &later);
        map.merge(sibling, |mine, theirs| *mine += theirs);
        for (k, n, p) in &sibling_model.0 {
            model.add(k, *n, *p);
        }
        check_map(&map, &model);

        // Churning a key in and out leaves no history and keeps the live
        // order; draining it and adding it back takes a fresh slot.
        let key = vec![Value::str("churn")];
        for _ in 0..churn {
            prop_assert!(map.add(key.clone()));
            prop_assert_eq!(map.remove(&key), Some(true));
            check_map(&map, &model);
        }
        run_map_ops(&mut map, &mut model, &ops);
    }
}
