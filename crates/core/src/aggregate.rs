//! Aggregating functions: `count`, `sum`, `avg`, `min`, `max`, `collect`,
//! `stdev`, `stdevp`, `percentileCont`, `percentileDisc`.
//!
//! Aggregation is described in Section 3 of the paper: in a `WITH` or
//! `RETURN` list, non-aggregating expressions act as implicit grouping
//! keys, and each aggregate folds over the rows of its group. `null`
//! inputs are skipped (so `count(s)` over the table of Figure 2a yields 0
//! for Nils), and `DISTINCT` folds each distinct value once (as in
//! `count(DISTINCT p2)` of the running example).
//!
//! Since the partial-aggregation pushdown, an [`Aggregator`] is a
//! **mergeable partial state**: any row subset can be folded into its own
//! accumulator and the accumulators combined with [`Aggregator::merge`].
//! The morsel-driven executor exploits this to aggregate inside the
//! worker pool; merging partials **in morsel order** reproduces the
//! sequential fold bit-for-bit:
//!
//! * `count`/`sum`/`avg`/`min`/`max`/`stdev` keep **constant-size** state,
//!   so aggregating never materializes its input;
//! * float sums (`sum`, `avg`, `stdev`) accumulate **exactly** via
//!   [`ExactFloatSum`] (Shewchuk's nonoverlapping-expansion algorithm, as
//!   in Python's `math.fsum`), which makes the result independent of both
//!   accumulation and merge order — the property that lets morsel size
//!   *and* thread count vary without perturbing a single bit;
//! * `collect` and the percentiles materialize by definition; `DISTINCT`
//!   variants keep the distinct set (hash-indexed, first-occurrence
//!   order) and fold it at finish time, so merging never double-counts.

use crate::bag::CountedMap;
use crate::error::{err, EvalError};
use cypher_graph::value::cmp_f64;
use cypher_graph::Value;
use std::slice;

/// Which aggregate a call denotes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggKind {
    /// `count(expr)` — number of non-null inputs.
    Count,
    /// `count(*)` — number of rows.
    CountStar,
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)` (by comparability; incomparable mixes use orderability).
    Min,
    /// `max(expr)`.
    Max,
    /// `collect(expr)` — list of non-null inputs.
    Collect,
    /// `stdev(expr)` — sample standard deviation.
    StDev,
    /// `stdevp(expr)` — population standard deviation.
    StDevP,
    /// `percentileCont(expr, p)` — linear-interpolation percentile.
    PercentileCont,
    /// `percentileDisc(expr, p)` — nearest-rank percentile.
    PercentileDisc,
}

impl AggKind {
    /// Maps a (lower-case) function name to its kind.
    pub fn from_name(name: &str) -> Option<AggKind> {
        Some(match name {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "avg" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "collect" => AggKind::Collect,
            "stdev" => AggKind::StDev,
            "stdevp" => AggKind::StDevP,
            "percentilecont" => AggKind::PercentileCont,
            "percentiledisc" => AggKind::PercentileDisc,
            _ => return None,
        })
    }

    /// True when [`Aggregator::retract`] undoes a [`Aggregator::push`] of
    /// the same value *exactly* — feed-then-retract finishes identically
    /// to never having fed.
    ///
    /// Counts and the exact sums/moments retract by inverse arithmetic
    /// ([`ExactFloatSum`] keeps separate sign expansions, so `+x` then
    /// `−x` cancels before the single final rounding). Non-distinct
    /// `min`/`max` keep only the running extremum and cannot un-see a
    /// retracted winner; `collect` is order-sensitive (removing an
    /// arbitrary occurrence cannot restore the remaining feed order); the
    /// percentiles carry a last-row auxiliary argument. `DISTINCT`
    /// variants keep their full (refcounted) input set, which makes every
    /// order-insensitive finisher retractable — only `collect(DISTINCT)`
    /// (first-occurrence order) and the percentiles stay out.
    pub fn is_retractable(self, distinct: bool) -> bool {
        match self {
            AggKind::Count
            | AggKind::CountStar
            | AggKind::Sum
            | AggKind::Avg
            | AggKind::StDev
            | AggKind::StDevP => true,
            AggKind::Min | AggKind::Max => distinct,
            AggKind::Collect | AggKind::PercentileCont | AggKind::PercentileDisc => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Exact float summation
// ---------------------------------------------------------------------------

/// Grow-expansion step (Shewchuk): adds `x` into a list of nonzero,
/// nonoverlapping partials in increasing magnitude. Returns `false` when
/// the running sum's magnitude left the `f64` range (the caller decides
/// how to degrade; the partials are cleared so no `inf`/`NaN` garbage can
/// linger in them).
fn grow_expansion(partials: &mut Vec<f64>, mut x: f64) -> bool {
    let mut i = 0;
    for j in 0..partials.len() {
        let mut y = partials[j];
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        let hi = x + y;
        if hi.is_infinite() {
            partials.clear();
            return false;
        }
        let lo = y - (hi - x);
        if lo != 0.0 {
            partials[i] = lo;
            i += 1;
        }
        x = hi;
    }
    partials.truncate(i);
    if x != 0.0 {
        partials.push(x);
    }
    true
}

/// Correctly rounds an expansion (nonzero, nonoverlapping, increasing
/// magnitude) to the nearest `f64` — CPython `msum`'s final loop: descend
/// from the largest partial, tracking the remainder for the
/// round-half-even correction.
fn round_expansion(partials: &[f64]) -> f64 {
    let n = partials.len();
    if n == 0 {
        return 0.0;
    }
    let mut i = n - 1;
    let mut hi = partials[i];
    let mut lo = 0.0;
    while i > 0 {
        i -= 1;
        let x = hi;
        let y = partials[i];
        hi = x + y;
        let yr = hi - x;
        lo = y - yr;
        if lo != 0.0 {
            break;
        }
    }
    // If the truncated remainder is exactly half an ulp, the partial
    // below it decides the rounding direction.
    if i > 0 && ((lo < 0.0 && partials[i - 1] < 0.0) || (lo > 0.0 && partials[i - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

/// An exact, order-independent accumulator for `f64` sums.
///
/// Positive and negative inputs accumulate into **separate** expansions
/// (Shewchuk grow-expansions, the machinery behind Python's `math.fsum`),
/// so each expansion's exact value grows monotonically in magnitude;
/// [`ExactFloatSum::value`] merges the two exactly and rounds correctly
/// once. Because every represented value is *exact*, the result does not
/// depend on the order in which values (or other accumulators, via
/// [`ExactFloatSum::merge`]) were added — which is what keeps float
/// aggregates bit-identical across every morsel size and thread count.
///
/// Degradation is order-independent too: a same-sign running total can
/// only overflow when the *exact* sum of that sign's inputs exceeds the
/// `f64` range — a property of the input multiset, not of the order — at
/// which point that side saturates to `±inf` (both sides saturated, or a
/// `NaN` input, yield `NaN`, mirroring IEEE `inf − inf`). The one
/// divergence from real arithmetic: a saturated side no longer cancels
/// against the other (`Σ⁺ = 1.5·MAX, Σ⁻ = −MAX` reports `+inf`, not
/// `0.5·MAX`) — deterministically, where plain left-fold summation would
/// report `inf`, a finite value, or `NaN` depending on encounter order.
#[derive(Clone, Debug, Default)]
pub struct ExactFloatSum {
    /// Expansion of the positive inputs (its *value* is exact; individual
    /// rounding remainders inside it may be negative).
    pos: Vec<f64>,
    /// Expansion of the negative inputs.
    neg: Vec<f64>,
    /// The positive side's exact total left the `f64` range (or a `+inf`
    /// was fed).
    pos_sat: bool,
    /// Likewise for the negative side.
    neg_sat: bool,
    /// A `NaN` was fed.
    nan: bool,
}

impl ExactFloatSum {
    /// An empty sum (value `0.0`).
    pub fn new() -> ExactFloatSum {
        ExactFloatSum::default()
    }

    /// Adds one value.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.nan = true;
        } else if x > 0.0 {
            if !self.pos_sat && !grow_expansion(&mut self.pos, x) {
                self.pos_sat = true;
            }
        } else if x < 0.0 && !self.neg_sat && !grow_expansion(&mut self.neg, x) {
            self.neg_sat = true;
        }
        // x == ±0.0 contributes nothing.
    }

    /// Folds another accumulator in. Exactness makes this associative and
    /// commutative.
    pub fn merge(&mut self, other: &ExactFloatSum) {
        self.nan |= other.nan;
        if other.pos_sat {
            self.pos_sat = true;
            self.pos.clear();
        } else if !self.pos_sat {
            // The partials of a sign expansion are its exact value; their
            // individual signs don't matter to the overflow argument.
            for &p in &other.pos {
                if !grow_expansion(&mut self.pos, p) {
                    self.pos_sat = true;
                    break;
                }
            }
        }
        if other.neg_sat {
            self.neg_sat = true;
            self.neg.clear();
        } else if !self.neg_sat {
            for &p in &other.neg {
                if !grow_expansion(&mut self.neg, p) {
                    self.neg_sat = true;
                    break;
                }
            }
        }
    }

    /// True when no `NaN`/overflow degraded the sum — the value is the
    /// exact real sum, correctly rounded.
    pub fn is_exact(&self) -> bool {
        !(self.nan || self.pos_sat || self.neg_sat)
    }

    /// The correctly-rounded sum.
    pub fn value(&self) -> f64 {
        if self.nan || (self.pos_sat && self.neg_sat) {
            return f64::NAN;
        }
        if self.pos_sat {
            return f64::INFINITY;
        }
        if self.neg_sat {
            return f64::NEG_INFINITY;
        }
        // Combine the two expansions exactly. |Σ⁺| and |Σ⁻| are both
        // finite, and every carried partial sum of the mixed cascade is
        // bounded by max(|Σ⁺|, |Σ⁻|) (opposite signs only cancel), so
        // this cannot overflow.
        let mut combined = self.pos.clone();
        for &p in &self.neg {
            if !grow_expansion(&mut combined, p) {
                // Unreachable by the bound above; degrade deterministically
                // rather than panic in release builds.
                debug_assert!(false, "mixed-sign combine overflowed");
                return f64::NAN;
            }
        }
        round_expansion(&combined)
    }

    /// The partials whose exact sum is this accumulator's value (only
    /// meaningful while [`ExactFloatSum::is_exact`]); used by the exact
    /// moment arithmetic of `stdev`.
    fn exact_parts(&self) -> impl Iterator<Item = f64> + '_ {
        self.pos.iter().chain(self.neg.iter()).copied()
    }
}

// ---------------------------------------------------------------------------
// Distinct sets
// ---------------------------------------------------------------------------

/// A refcounted multiset of [`Value`]s under Cypher *equivalence*
/// (`null ≡ null`, `1 ≡ 1.0`) that exposes its **live** distinct values in
/// first-live-insertion order: a [`CountedMap`] keyed by one value, so
/// draining a value and inserting it again yields the same visible
/// sequence as if the drained copies were never inserted — the property
/// the incremental-view retraction path relies on.
#[derive(Clone, Debug, Default)]
pub struct DistinctSet(CountedMap<[Value; 1], ()>);

impl DistinctSet {
    /// An empty set.
    pub fn new() -> DistinctSet {
        DistinctSet::default()
    }

    /// Inserts one copy; returns `true` when the value was not yet live
    /// (it became visible by this insertion).
    pub fn insert(&mut self, v: Value) -> bool {
        self.0.add([v])
    }

    /// Removes one copy; returns `true` when this removed the **last**
    /// live copy (the value became invisible). Removing an absent value is
    /// a no-op returning `false`.
    pub fn remove(&mut self, v: &Value) -> bool {
        self.0.remove(slice::from_ref(v)) == Some(true)
    }

    /// The live distinct values in first-live-insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|([v], _, _)| v)
    }

    /// Moves the live values out (first-live-insertion order).
    pub fn into_values(self) -> Vec<Value> {
        self.0.into_live().map(|([v], _, _)| v).collect()
    }

    /// Number of live distinct values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Unions another set in — copy counts add — keeping first-occurrence
    /// order (this set's occurrences count as earlier).
    pub fn merge(&mut self, other: DistinctSet) {
        self.0.merge(other.0, |_, _| {});
    }
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

/// The per-kind partial state. `DISTINCT` aggregates keep their
/// [`DistinctSet`] instead and fold it into a fresh state at finish time
/// (partial folds over overlapping distinct sets would double-count).
#[derive(Debug, Clone)]
enum AggState {
    /// `count(expr)`: non-null inputs seen.
    Count(u64),
    /// `sum` / `avg`.
    Numeric {
        /// Non-null inputs seen.
        count: u64,
        /// Exact integer sum. `i128` cannot overflow under fewer than
        /// 2⁶⁴ `i64` terms, so additions — and retractions — are always
        /// exact; the `i64` range check happens once, at finish.
        int_sum: i128,
        /// Non-integer numeric inputs currently folded in (a count, not a
        /// flag, so retracting the last float restores integer typing).
        non_int: u64,
        /// Exact float sum of every input (ints included).
        float_sum: ExactFloatSum,
        /// First non-numeric input, reported at finish (matching the
        /// sequential fold, which also surfaces the earliest offender).
        error: Option<EvalError>,
    },
    /// `min` / `max`: the running extremum.
    Extremum(Option<Value>),
    /// `stdev` / `stdevp`: count plus exact Σx and Σx².
    Moments {
        /// Non-null inputs seen.
        count: u64,
        /// Exact Σx.
        sum: ExactFloatSum,
        /// Exact Σx².
        sum_sq: ExactFloatSum,
        /// First non-numeric input.
        error: Option<EvalError>,
    },
    /// `collect` and the percentiles: all inputs, in feed order.
    Values(Vec<Value>),
}

/// A running aggregate over one group — a **mergeable partial state**.
#[derive(Debug, Clone)]
pub struct Aggregator {
    kind: AggKind,
    distinct: bool,
    /// Rows fed (for `count(*)`).
    rows: u64,
    state: AggState,
    /// The distinct inputs, for `DISTINCT` variants.
    seen: DistinctSet,
    /// Second argument (percentile), captured from the last row.
    aux: Option<Value>,
}

fn fresh_state(kind: AggKind) -> AggState {
    match kind {
        AggKind::Count | AggKind::CountStar => AggState::Count(0),
        AggKind::Sum | AggKind::Avg => AggState::Numeric {
            count: 0,
            int_sum: 0,
            non_int: 0,
            float_sum: ExactFloatSum::new(),
            error: None,
        },
        AggKind::Min | AggKind::Max => AggState::Extremum(None),
        AggKind::StDev | AggKind::StDevP => AggState::Moments {
            count: 0,
            sum: ExactFloatSum::new(),
            sum_sq: ExactFloatSum::new(),
            error: None,
        },
        AggKind::Collect | AggKind::PercentileCont | AggKind::PercentileDisc => {
            AggState::Values(Vec::new())
        }
    }
}

fn non_numeric(v: &Value) -> EvalError {
    EvalError::new(format!("cannot aggregate {}", v.type_name()))
}

impl Aggregator {
    /// Creates an empty accumulator.
    pub fn new(kind: AggKind, distinct: bool) -> Self {
        Aggregator {
            kind,
            distinct,
            rows: 0,
            state: fresh_state(kind),
            seen: DistinctSet::new(),
            aux: None,
        }
    }

    /// Feeds one row. For `count(*)` the value is ignored; for other
    /// aggregates `null` inputs are skipped.
    pub fn push(&mut self, v: Value) {
        self.rows += 1;
        if self.kind == AggKind::CountStar || v.is_null() {
            return;
        }
        if self.distinct {
            // Distinct aggregates fold their set at finish time.
            self.seen.insert(v);
            return;
        }
        accumulate(self.kind, &mut self.state, v);
    }

    /// Feeds the auxiliary (second) argument for percentile aggregates.
    pub fn push_aux(&mut self, v: Value) {
        self.aux = Some(v);
    }

    /// Undoes one [`Aggregator::push`] of `v`. Only meaningful when
    /// [`AggKind::is_retractable`] holds for this aggregator's kind —
    /// feeding then retracting a value finishes identically to never
    /// having fed it (counts reverse, `i128` integer sums subtract
    /// exactly, and [`ExactFloatSum`] cancels `+x` against `−x` exactly
    /// before its single final rounding). A recorded non-numeric error
    /// stays sticky, exactly as it would had the offending row been fed
    /// into a fresh accumulator and merged away.
    pub fn retract(&mut self, v: Value) {
        debug_assert!(
            self.kind.is_retractable(self.distinct),
            "retract on non-retractable {:?}",
            self.kind
        );
        self.rows = self.rows.saturating_sub(1);
        if self.kind == AggKind::CountStar || v.is_null() {
            return;
        }
        if self.distinct {
            self.seen.remove(&v);
            return;
        }
        match &mut self.state {
            AggState::Count(n) => *n = n.saturating_sub(1),
            AggState::Numeric {
                count,
                int_sum,
                non_int,
                float_sum,
                ..
            } => {
                *count = count.saturating_sub(1);
                if let Some(x) = v.as_number() {
                    float_sum.add(-x);
                    match v {
                        Value::Integer(i) => *int_sum -= i as i128,
                        _ => *non_int = non_int.saturating_sub(1),
                    }
                }
            }
            AggState::Moments {
                count, sum, sum_sq, ..
            } => {
                *count = count.saturating_sub(1);
                if let Some(x) = v.as_number() {
                    sum.add(-x);
                    // Subtract x² exactly: the negated rounded product
                    // plus the negated two-product remainder.
                    let hi = x * x;
                    sum_sq.add(-hi);
                    if hi.is_finite() {
                        sum_sq.add(-x.mul_add(x, -hi));
                    }
                }
            }
            AggState::Extremum(_) | AggState::Values(_) => {
                debug_assert!(false, "retract on non-retractable state");
            }
        }
    }

    /// Folds another partial accumulator of the same kind into this one.
    /// `other` must cover **later** rows than `self`; merging partials in
    /// row (morsel) order reproduces the sequential fold exactly —
    /// including `min`/`max` tie-breaking, `collect` order, distinct
    /// first-occurrence order, and (via [`ExactFloatSum`]) float bits.
    pub fn merge(&mut self, other: Aggregator) {
        debug_assert_eq!(self.kind, other.kind);
        debug_assert_eq!(self.distinct, other.distinct);
        self.rows += other.rows;
        if other.aux.is_some() {
            self.aux = other.aux;
        }
        if self.distinct {
            self.seen.merge(other.seen);
            return;
        }
        match (&mut self.state, other.state) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Numeric {
                    count,
                    int_sum,
                    non_int,
                    float_sum,
                    error,
                },
                AggState::Numeric {
                    count: c2,
                    int_sum: i2,
                    non_int: n2,
                    float_sum: f2,
                    error: e2,
                },
            ) => {
                *count += c2;
                *int_sum += i2;
                *non_int += n2;
                float_sum.merge(&f2);
                if error.is_none() {
                    *error = e2;
                }
            }
            (AggState::Extremum(cur), AggState::Extremum(cand)) => {
                if let Some(c) = cand {
                    replace_extremum(self.kind, cur, c);
                }
            }
            (
                AggState::Moments {
                    count,
                    sum,
                    sum_sq,
                    error,
                },
                AggState::Moments {
                    count: c2,
                    sum: s2,
                    sum_sq: q2,
                    error: e2,
                },
            ) => {
                *count += c2;
                sum.merge(&s2);
                sum_sq.merge(&q2);
                if error.is_none() {
                    *error = e2;
                }
            }
            (AggState::Values(a), AggState::Values(b)) => a.extend(b),
            _ => unreachable!("merging aggregators of different kinds"),
        }
    }

    /// Produces the aggregate result.
    pub fn finish(self) -> Result<Value, EvalError> {
        if self.kind == AggKind::CountStar {
            return Ok(Value::int(self.rows as i64));
        }
        let state = if self.distinct {
            // The distinct set, in its deterministic first-occurrence
            // order, through the fold plain aggregates use.
            let mut state = fresh_state(self.kind);
            for v in self.seen.into_values() {
                accumulate(self.kind, &mut state, v);
            }
            state
        } else {
            self.state
        };
        match state {
            AggState::Count(n) => Ok(Value::int(n as i64)),
            AggState::Numeric {
                count,
                int_sum,
                non_int,
                float_sum,
                error,
            } => {
                if let Some(e) = error {
                    return Err(e);
                }
                match self.kind {
                    AggKind::Sum => {
                        if count == 0 {
                            Ok(Value::int(0))
                        } else if non_int == 0 {
                            i64::try_from(int_sum)
                                .map(Value::int)
                                .map_err(|_| EvalError::new("integer overflow in sum()"))
                        } else {
                            Ok(Value::float(float_sum.value()))
                        }
                    }
                    AggKind::Avg => {
                        if count == 0 {
                            Ok(Value::Null)
                        } else {
                            Ok(Value::float(float_sum.value() / count as f64))
                        }
                    }
                    _ => unreachable!(),
                }
            }
            AggState::Extremum(v) => Ok(v.unwrap_or(Value::Null)),
            AggState::Moments {
                count,
                sum,
                sum_sq,
                error,
            } => {
                if let Some(e) = error {
                    return Err(e);
                }
                finish_moments(self.kind, count, &sum, &sum_sq)
            }
            AggState::Values(vals) => finish_slice(self.kind, vals, self.aux),
        }
    }
}

/// Feeds one non-null value into a non-distinct state.
fn accumulate(kind: AggKind, state: &mut AggState, v: Value) {
    match state {
        AggState::Count(n) => *n += 1,
        AggState::Numeric {
            count,
            int_sum,
            non_int,
            float_sum,
            error,
        } => {
            *count += 1;
            match v.as_number() {
                Some(x) => {
                    float_sum.add(x);
                    match v {
                        Value::Integer(i) => *int_sum += i as i128,
                        _ => *non_int += 1,
                    }
                }
                None => {
                    if error.is_none() {
                        *error = Some(non_numeric(&v));
                    }
                }
            }
        }
        AggState::Extremum(cur) => replace_extremum(kind, cur, v),
        AggState::Moments {
            count,
            sum,
            sum_sq,
            error,
        } => {
            *count += 1;
            match v.as_number() {
                Some(x) => {
                    sum.add(x);
                    add_square_exact(sum_sq, x);
                }
                None => {
                    if error.is_none() {
                        *error = Some(non_numeric(&v));
                    }
                }
            }
        }
        AggState::Values(vals) => vals.push(v),
    }
}

/// Replaces the running extremum when the candidate wins. Tie behaviour
/// matches the original fold over materialized values (`Iterator::min_by`
/// keeps the *first* of equal minima, `max_by` the *last* of equal
/// maxima), so merging partials in row order is transparent.
fn replace_extremum(kind: AggKind, cur: &mut Option<Value>, cand: Value) {
    let take = match cur {
        None => true,
        Some(c) => match kind {
            AggKind::Min => cand.cmp_order(c) == std::cmp::Ordering::Less,
            AggKind::Max => cand.cmp_order(c) != std::cmp::Ordering::Less,
            _ => unreachable!(),
        },
    };
    if take {
        *cur = Some(cand);
    }
}

/// Adds `x²` to an accumulator **exactly**: the rounded product plus its
/// two-product remainder (`fma(x, x, −x·x)`), so Σx² carries no per-term
/// rounding loss.
fn add_square_exact(acc: &mut ExactFloatSum, x: f64) {
    let hi = x * x;
    acc.add(hi);
    if hi.is_finite() {
        acc.add(x.mul_add(x, -hi));
    }
}

/// Adds `a·b` to an accumulator exactly (two-product via fused
/// multiply-add).
fn add_product_exact(acc: &mut ExactFloatSum, a: f64, b: f64) {
    let hi = a * b;
    acc.add(hi);
    if hi.is_finite() {
        acc.add(a.mul_add(b, -hi));
    }
}

fn finish_moments(
    kind: AggKind,
    n: u64,
    sum: &ExactFloatSum,
    sum_sq: &ExactFloatSum,
) -> Result<Value, EvalError> {
    if n == 0 {
        return Ok(Value::Null);
    }
    let denom = match kind {
        AggKind::StDev => n.saturating_sub(1),
        AggKind::StDevP => n,
        _ => unreachable!(),
    };
    if denom == 0 {
        return Ok(Value::float(0.0));
    }
    let nf = n as f64; // exact: group sizes are far below 2^53
    let ss_n = if sum.is_exact() && sum_sq.is_exact() {
        // n·Σ(x−mean)² = n·Σx² − (Σx)², formed as one exact expansion so
        // the subtraction — where the naive E[x²]−E[x]² formulation
        // cancels catastrophically — happens before any rounding. Both
        // moments are exact (squares enter via two-products), so the only
        // roundings are the final division and the square root.
        let mut acc = ExactFloatSum::new();
        for p in sum_sq.exact_parts() {
            add_product_exact(&mut acc, p, nf);
        }
        let parts: Vec<f64> = sum.exact_parts().collect();
        for &a in &parts {
            for &b in &parts {
                let hi = a * b;
                acc.add(-hi);
                if hi.is_finite() {
                    acc.add(-a.mul_add(b, -hi));
                }
            }
        }
        acc.value()
    } else {
        // Degraded (non-finite inputs or range overflow): IEEE algebra,
        // still a pure function of the input multiset.
        let s = sum.value();
        sum_sq.value() * nf - s * s
    };
    // Clamp rounding residue at 0, but let NaN/inf propagate.
    let ss_n = if ss_n.is_nan() { ss_n } else { ss_n.max(0.0) };
    Ok(Value::float((ss_n / (nf * denom as f64)).sqrt()))
}

/// `collect` and the percentiles: the finishers that need every value.
fn finish_slice(kind: AggKind, vals: Vec<Value>, aux: Option<Value>) -> Result<Value, EvalError> {
    match kind {
        AggKind::Collect => Ok(Value::List(vals)),
        AggKind::PercentileCont => percentile(&vals, aux, true),
        AggKind::PercentileDisc => percentile(&vals, aux, false),
        _ => unreachable!("only collect and the percentiles keep their values"),
    }
}

fn percentile(vals: &[Value], aux: Option<Value>, cont: bool) -> Result<Value, EvalError> {
    if vals.is_empty() {
        return Ok(Value::Null);
    }
    let p = aux
        .as_ref()
        .and_then(Value::as_number)
        .ok_or_else(|| EvalError::new("percentile requires a numeric percentile argument"))?;
    if !(0.0..=1.0).contains(&p) {
        return err(format!("percentile must be in [0, 1], got {p}"));
    }
    let mut nums: Vec<f64> = Vec::with_capacity(vals.len());
    for v in vals {
        nums.push(
            v.as_number()
                .ok_or_else(|| EvalError::new("percentile over non-numeric value"))?,
        );
    }
    // `ORDER BY`'s number order: NaN sorts after every other number.
    nums.sort_by(|a, b| cmp_f64(*a, *b));
    if cont {
        let rank = p * (nums.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Ok(Value::float(nums[lo] + (nums[hi] - nums[lo]) * frac))
    } else {
        // Nearest-rank: smallest value whose rank ≥ p·n.
        let idx = ((p * nums.len() as f64).ceil() as usize).clamp(1, nums.len()) - 1;
        let x = nums[idx];
        // Preserve integer-ness when the inputs were integers.
        if vals.iter().all(|v| matches!(v, Value::Integer(_))) {
            Ok(Value::int(x as i64))
        } else {
            Ok(Value::float(x))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use AggKind::*;

    /// Every kind, the two percentiles last.
    #[rustfmt::skip]
    const KINDS: [AggKind; 11] = [
        Count, CountStar, Sum, Avg, Min, Max, Collect, StDev, StDevP, PercentileCont, PercentileDisc,
    ];

    fn run(kind: AggKind, distinct: bool, vals: Vec<Value>) -> Value {
        let mut a = Aggregator::new(kind, distinct);
        for v in vals {
            a.push(v);
        }
        a.finish().unwrap()
    }

    /// Same inputs, but fed through several partials merged in order —
    /// must be indistinguishable from the single fold.
    fn run_split(kind: AggKind, distinct: bool, vals: Vec<Value>, chunk: usize) -> Value {
        let mut acc = Aggregator::new(kind, distinct);
        for part in vals.chunks(chunk.max(1)) {
            let mut a = Aggregator::new(kind, distinct);
            for v in part {
                a.push(v.clone());
            }
            acc.merge(a);
        }
        acc.finish().unwrap()
    }

    #[test]
    fn count_skips_nulls() {
        // Figure 2a → 2b: count(s) for Nils (one null row) is 0.
        assert_eq!(run(AggKind::Count, false, vec![Value::Null]), Value::int(0));
        assert_eq!(
            run(
                AggKind::Count,
                false,
                vec![Value::int(1), Value::Null, Value::int(2)]
            ),
            Value::int(2)
        );
    }

    #[test]
    fn count_star_counts_rows() {
        let mut a = Aggregator::new(AggKind::CountStar, false);
        a.push(Value::Null);
        a.push(Value::Null);
        assert_eq!(a.finish().unwrap(), Value::int(2));
    }

    #[test]
    fn count_distinct() {
        // §3: count(DISTINCT p2) over {n4, n9, n5, n9} = 3.
        let vals = vec![
            Value::str("n4"),
            Value::str("n9"),
            Value::str("n5"),
            Value::str("n9"),
        ];
        assert_eq!(run(AggKind::Count, true, vals), Value::int(3));
    }

    #[test]
    fn sum_and_avg() {
        let vals = vec![Value::int(1), Value::int(2), Value::int(3)];
        assert_eq!(run(AggKind::Sum, false, vals.clone()), Value::int(6));
        assert_eq!(run(AggKind::Avg, false, vals), Value::float(2.0));
        assert_eq!(run(AggKind::Sum, false, vec![]), Value::int(0));
        assert_eq!(run(AggKind::Avg, false, vec![]), Value::Null);
        assert_eq!(
            run(AggKind::Sum, false, vec![Value::int(1), Value::float(0.5)]),
            Value::float(1.5)
        );
    }

    #[test]
    fn min_max() {
        let vals = vec![Value::int(3), Value::int(1), Value::int(2)];
        assert_eq!(run(AggKind::Min, false, vals.clone()), Value::int(1));
        assert_eq!(run(AggKind::Max, false, vals), Value::int(3));
        assert_eq!(run(AggKind::Min, false, vec![]), Value::Null);
    }

    #[test]
    fn collect_skips_nulls_keeps_duplicates() {
        let vals = vec![Value::int(1), Value::Null, Value::int(1)];
        assert_eq!(run(AggKind::Collect, false, vals).to_string(), "[1, 1]");
        assert_eq!(
            run(
                AggKind::Collect,
                true,
                vec![Value::int(1), Value::int(1), Value::int(2)]
            )
            .to_string(),
            "[1, 2]"
        );
        assert_eq!(run(AggKind::Collect, false, vec![]).to_string(), "[]");
    }

    #[test]
    fn stdev_values() {
        let vals: Vec<Value> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&x| Value::float(x))
            .collect();
        let pop = run(AggKind::StDevP, false, vals.clone());
        let Value::Float(p) = pop else { panic!() };
        assert!((p - 2.0).abs() < 1e-9);
        let samp = run(AggKind::StDev, false, vals);
        let Value::Float(s) = samp else { panic!() };
        assert!((s - 2.138089935).abs() < 1e-6);
        assert_eq!(
            run(AggKind::StDev, false, vec![Value::int(5)]),
            Value::float(0.0)
        );
    }

    #[test]
    fn percentiles() {
        let mut a = Aggregator::new(AggKind::PercentileCont, false);
        for i in 1..=5 {
            a.push(Value::int(i));
            a.push_aux(Value::float(0.5));
        }
        assert_eq!(a.finish().unwrap(), Value::float(3.0));

        let mut b = Aggregator::new(AggKind::PercentileDisc, false);
        for i in 1..=4 {
            b.push(Value::int(i));
            b.push_aux(Value::float(0.5));
        }
        assert_eq!(b.finish().unwrap(), Value::int(2));
    }

    #[test]
    fn from_name_mapping() {
        assert_eq!(AggKind::from_name("count"), Some(AggKind::Count));
        assert_eq!(AggKind::from_name("collect"), Some(AggKind::Collect));
        assert_eq!(AggKind::from_name("size"), None);
    }

    #[test]
    fn merge_matches_single_fold_for_every_kind() {
        let vals: Vec<Value> = (0..23)
            .map(|i| match i % 5 {
                0 => Value::Null,
                1 => Value::int(i),
                2 => Value::float(i as f64 * 0.25),
                3 => Value::int(-i),
                _ => Value::float(1.0 / (i as f64 + 1.0)),
            })
            .collect();
        // The percentiles need their second argument.
        for kind in KINDS[..9].iter().copied() {
            for distinct in [false, true] {
                if distinct && kind == AggKind::CountStar {
                    continue;
                }
                let whole = run(kind, distinct, vals.clone());
                for chunk in [1, 2, 7, 23] {
                    let split = run_split(kind, distinct, vals.clone(), chunk);
                    // Bit-identical, not merely approximately equal.
                    assert_eq!(
                        whole.to_string(),
                        split.to_string(),
                        "{kind:?} distinct={distinct} chunk={chunk}"
                    );
                    assert!(whole.equivalent(&split));
                }
            }
        }
    }

    /// `DISTINCT` and plain aggregates fold through one accumulator: on
    /// a list without duplicates they agree in either input order, and
    /// every kind but `collect` is independent of that order. Integers
    /// near `i64::MAX` make a partial sum leave the range mid-fold.
    #[test]
    fn distinct_and_plain_folds_agree_on_duplicate_free_lists() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let finish = |kind: AggKind, distinct: bool, vals: &[Value]| {
            let mut a = Aggregator::new(kind, distinct);
            for v in vals {
                a.push(v.clone());
                a.push_aux(Value::float(0.3));
            }
            match a.finish() {
                Ok(v) => v.to_string(),
                Err(e) => format!("error: {e}"),
            }
        };
        for _ in 0..300 {
            let len = (next() % 10) as usize;
            let mut vals: Vec<Value> = Vec::new();
            while vals.len() < len {
                let r = next();
                let k = (r >> 8) as i64;
                let v = match r % 12 {
                    0..=2 => Value::int(i64::MAX - k % 3),
                    3..=5 => Value::int(-(k % 3) - 1),
                    6..=8 => Value::int(k % 4),
                    9 => Value::float((k % 1000) as f64 + 0.5),
                    10 => Value::float(-((k % 1000) as f64) - 0.25),
                    _ => Value::str(format!("s{}", k % 5)),
                };
                if !vals.contains(&v) {
                    vals.push(v);
                }
            }
            let reversed: Vec<Value> = vals.iter().rev().cloned().collect();
            for kind in KINDS {
                let plain = finish(kind, false, &vals);
                assert_eq!(finish(kind, true, &vals), plain, "{kind:?} {vals:?}");
                let back = finish(kind, false, &reversed);
                assert_eq!(finish(kind, true, &reversed), back, "{kind:?} {vals:?}");
                if kind != AggKind::Collect {
                    assert_eq!(back, plain, "{kind:?} {vals:?}");
                }
            }
        }
    }

    #[test]
    fn merge_preserves_error_reporting() {
        // Non-numeric input in the *second* chunk still errors.
        let mut a = Aggregator::new(AggKind::Sum, false);
        a.push(Value::int(1));
        let mut b = Aggregator::new(AggKind::Sum, false);
        b.push(Value::str("x"));
        a.merge(b);
        let e = a.finish().unwrap_err();
        assert!(e.to_string().contains("cannot aggregate"), "{e}");

        // Integer overflow reported as before.
        let mut c = Aggregator::new(AggKind::Sum, false);
        c.push(Value::int(i64::MAX));
        c.push(Value::int(1));
        assert!(c
            .finish()
            .unwrap_err()
            .to_string()
            .contains("integer overflow in sum()"));

        // …but a float input anywhere switches to float arithmetic, in
        // which the same magnitudes do not overflow.
        let mut d = Aggregator::new(AggKind::Sum, false);
        d.push(Value::int(i64::MAX));
        d.push(Value::int(1));
        d.push(Value::float(0.5));
        assert!(matches!(d.finish().unwrap(), Value::Float(_)));
    }

    #[test]
    fn exact_float_sum_is_order_and_partition_independent() {
        // A deterministic pseudo-random mix of magnitudes.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut vals: Vec<f64> = Vec::new();
        for i in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let m = ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            let e = ((x >> 3) % 60) as i32 - 30;
            vals.push(m * 2f64.powi(e) + i as f64);
        }
        let mut base = ExactFloatSum::new();
        for &v in &vals {
            base.add(v);
        }
        let expect = base.value();
        // Partitioned into chunks of several sizes, merged.
        for chunk in [1usize, 3, 17, 64] {
            let mut acc = ExactFloatSum::new();
            for part in vals.chunks(chunk) {
                let mut s = ExactFloatSum::new();
                for &v in part {
                    s.add(v);
                }
                acc.merge(&s);
            }
            assert_eq!(acc.value().to_bits(), expect.to_bits(), "chunk={chunk}");
        }
        // Reversed order.
        let mut rev = ExactFloatSum::new();
        for &v in vals.iter().rev() {
            rev.add(v);
        }
        assert_eq!(rev.value().to_bits(), expect.to_bits());
        // Exactness on a classic cancellation case.
        let mut c = ExactFloatSum::new();
        for &v in &[1e16, 1.0, -1e16] {
            c.add(v);
        }
        assert_eq!(c.value(), 1.0);
    }

    #[test]
    fn exact_float_sum_handles_non_finite() {
        let mut s = ExactFloatSum::new();
        s.add(1.0);
        s.add(f64::INFINITY);
        assert_eq!(s.value(), f64::INFINITY);
        let mut t = ExactFloatSum::new();
        t.add(f64::INFINITY);
        t.add(f64::NEG_INFINITY);
        assert!(t.value().is_nan());
        let mut u = ExactFloatSum::new();
        u.add(f64::NAN);
        u.add(1.0);
        assert!(u.value().is_nan());
    }

    #[test]
    fn exact_float_sum_overflow_is_order_and_partition_independent() {
        // The running positive (or negative) total leaving the f64 range
        // must degrade the same way for every order and partition — this
        // exact multiset once returned NaN sequentially but 0 when folded
        // as two merged partials.
        let vals = [1e308, 1e308, -1e308, -1e308];
        let mut expect: Option<u64> = None;
        // Every permutation…
        let perms: [[usize; 4]; 6] = [
            [0, 1, 2, 3],
            [0, 2, 1, 3],
            [2, 0, 3, 1],
            [2, 3, 0, 1],
            [0, 2, 3, 1],
            [3, 1, 2, 0],
        ];
        for p in perms {
            let mut s = ExactFloatSum::new();
            for &i in &p {
                s.add(vals[i]);
            }
            let bits = s.value().to_bits();
            match expect {
                None => expect = Some(bits),
                Some(e) => assert_eq!(bits, e, "permutation {p:?} diverged"),
            }
        }
        // …and every chunked merge agree.
        for chunk in [1usize, 2, 3] {
            let mut acc = ExactFloatSum::new();
            for part in vals.chunks(chunk) {
                let mut s = ExactFloatSum::new();
                for &v in part {
                    s.add(v);
                }
                acc.merge(&s);
            }
            assert_eq!(acc.value().to_bits(), expect.unwrap(), "chunk={chunk}");
        }
        // Both sides saturated reads as inf − inf.
        assert!(f64::from_bits(expect.unwrap()).is_nan());
        // One-sided overflow is +inf in every shape.
        let mut one = ExactFloatSum::new();
        for v in [1e308, 1e308, -5.0] {
            one.add(v);
        }
        assert_eq!(one.value(), f64::INFINITY);
        // Large but in-range magnitudes still cancel exactly.
        let mut fine = ExactFloatSum::new();
        for v in [1e308, -1e308, 1.25] {
            fine.add(v);
        }
        assert_eq!(fine.value(), 1.25);
    }

    #[test]
    fn stdev_survives_large_mean_small_spread() {
        // E[x²]−E[x]² cancels catastrophically at mean 1e8; the exact
        // moment arithmetic must recover the two-pass answer.
        let vals = vec![Value::float(1e8), Value::float(1e8 + 1.0)];
        let Value::Float(s) = run(AggKind::StDev, false, vals.clone()) else {
            panic!()
        };
        assert!(
            (s - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12,
            "stdev lost precision: {s}"
        );
        let Value::Float(p) = run(AggKind::StDevP, false, vals.clone()) else {
            panic!()
        };
        assert!((p - 0.5).abs() < 1e-12, "stdevp lost precision: {p}");
        // And identically when folded through merged partials.
        let Value::Float(m) = run_split(AggKind::StDev, false, vals, 1) else {
            panic!()
        };
        assert_eq!(s.to_bits(), m.to_bits());
    }

    #[test]
    fn distinct_set_orders_by_first_occurrence() {
        let mut s = DistinctSet::new();
        assert!(s.insert(Value::int(2)));
        assert!(s.insert(Value::int(1)));
        assert!(!s.insert(Value::float(2.0))); // 2 ≡ 2.0
        assert!(s.insert(Value::Null));
        assert!(!s.insert(Value::Null));
        assert_eq!(s.len(), 3);
        let shown: Vec<String> = s.values().map(|v| v.to_string()).collect();
        assert_eq!(shown, ["2", "1", "null"]);
    }

    #[test]
    fn distinct_set_remove_is_refcounted_and_order_transparent() {
        let mut s = DistinctSet::new();
        s.insert(Value::int(1));
        s.insert(Value::int(2));
        s.insert(Value::float(2.0)); // refcount on the 2-slot
        assert!(!s.remove(&Value::int(2))); // one copy left
        assert_eq!(s.len(), 2);
        assert!(s.remove(&Value::int(2))); // last copy gone
        assert_eq!(s.len(), 1);
        assert!(!s.remove(&Value::int(2))); // absent: no-op
                                            // Re-insertion takes a fresh slot at the end: same visible
                                            // sequence as if the drained copies were never inserted.
        s.insert(Value::int(3));
        s.insert(Value::int(2));
        let shown: Vec<String> = s.values().map(|v| v.to_string()).collect();
        assert_eq!(shown, ["1", "3", "2"]);
        assert_eq!(s.into_values().len(), 3);
    }

    #[test]
    fn distinct_set_compacts_retracted_values() {
        let mut s = DistinctSet::new();
        s.insert(Value::int(0));
        for i in 0..10_000i64 {
            s.remove(&Value::int(i % 2));
            s.insert(Value::int((i + 1) % 2));
        }
        assert_eq!(s.len(), 1);
        assert!(s.0.slots() <= 2 * s.len() + 1, "{} slots", s.0.slots());
        assert_eq!(s.values().collect::<Vec<_>>(), [&Value::int(0)]);
    }

    #[test]
    fn retract_restores_never_fed_result() {
        // For every retractable shape: feed base ∪ extra, retract extra,
        // finish — must equal (bit-for-bit, via Display) feeding base only.
        let base = vec![
            Value::int(3),
            Value::float(0.1),
            Value::Null,
            Value::int(-7),
            Value::float(1e8),
        ];
        let extra = vec![
            Value::float(1e8 + 1.0),
            Value::int(41),
            Value::Null,
            Value::float(-0.25),
            Value::int(3),
        ];
        for kind in [
            AggKind::Count,
            AggKind::CountStar,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::StDev,
            AggKind::StDevP,
            AggKind::Min,
            AggKind::Max,
        ] {
            for distinct in [false, true] {
                if !kind.is_retractable(distinct) || kind == AggKind::CountStar && distinct {
                    continue;
                }
                let want = run(kind, distinct, base.clone());
                let mut a = Aggregator::new(kind, distinct);
                for v in base.iter().chain(&extra) {
                    a.push(v.clone());
                }
                for v in &extra {
                    a.retract(v.clone());
                }
                let got = a.finish().unwrap();
                assert_eq!(
                    want.to_string(),
                    got.to_string(),
                    "{kind:?} distinct={distinct}"
                );
            }
        }
    }

    #[test]
    fn retracting_last_float_restores_integer_sum() {
        let mut a = Aggregator::new(AggKind::Sum, false);
        a.push(Value::int(1));
        a.push(Value::float(0.5));
        a.push(Value::int(2));
        a.retract(Value::float(0.5));
        assert_eq!(a.finish().unwrap(), Value::int(3));
    }
}
