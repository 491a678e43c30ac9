//! The value set `V` of the paper (Section 4.1), defined inductively:
//! identifiers, base types (integers and strings — we also include IEEE
//! floats as every real implementation does), `true`, `false`, `null`,
//! lists, maps, and paths; extended with the Cypher 10 temporal types.
//!
//! Three distinct notions of "sameness" coexist in Cypher and are kept
//! carefully separate here:
//!
//! * **equality** ([`Value::equals`]) — the `=` operator, three-valued:
//!   `null` propagates, `NaN ≠ NaN`, cross-type comparisons are `false`;
//! * **equivalence** ([`Value::equivalent`]) — used by `DISTINCT`, grouping
//!   and `UNION`: `null ≡ null` and `NaN ≡ NaN`;
//! * **orderability** ([`Value::cmp_order`]) — the total order used by
//!   `ORDER BY`: values of different types order by a fixed type rank and
//!   `null` sorts last.

use crate::graph::{NodeId, RelId};
use crate::path::Path;
use crate::temporal::Temporal;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// SQL-style three-valued logic truth values (paper Section 4.3, "Logic":
/// "Just like SQL, Cypher uses 3-value logic for dealing with nulls").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Tri {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown (the truth value of `null`).
    Null,
}

impl Tri {
    /// Kleene conjunction.
    pub fn and(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Null,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Null,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // deliberate: Kleene ¬, not ops::Not
    pub fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Null => Tri::Null,
        }
    }

    /// Exclusive or: null-propagating.
    pub fn xor(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (Null, _) | (_, Null) => Null,
            (a, b) => {
                if a != b {
                    True
                } else {
                    False
                }
            }
        }
    }

    /// True iff this is `Tri::True` — the filter condition of `WHERE`
    /// (Figure 7 keeps a row only when the predicate is exactly `true`).
    pub fn is_true(self) -> bool {
        self == Tri::True
    }

    /// Converts a Rust bool.
    pub fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }

    /// Converts to a [`Value`]: `True`/`False` become booleans, `Null`
    /// becomes `Value::Null`.
    pub fn into_value(self) -> Value {
        match self {
            Tri::True => Value::Bool(true),
            Tri::False => Value::Bool(false),
            Tri::Null => Value::Null,
        }
    }
}

/// A Cypher runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// The unknown value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer (the base type `Z` of the paper).
    Integer(i64),
    /// An IEEE-754 double.
    Float(f64),
    /// A string (the base type `Σ*` of the paper).
    String(Arc<str>),
    /// `list(v₁, …, vₘ)`.
    List(Vec<Value>),
    /// `map((k₁,v₁), …, (kₘ,vₘ))` with distinct keys; kept sorted by key.
    Map(BTreeMap<Arc<str>, Value>),
    /// A node identifier (an element of `N`).
    Node(NodeId),
    /// A relationship identifier (an element of `R`).
    Rel(RelId),
    /// `path(n₁, r₁, …, nₘ)`.
    Path(Path),
    /// A Cypher 10 temporal value.
    Temporal(Temporal),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::String(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Value {
        Value::Integer(i)
    }

    /// Builds a float value.
    pub fn float(f: f64) -> Value {
        Value::Float(f)
    }

    /// Builds a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Builds a map value from `(key, value)` pairs.
    pub fn map(items: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Map(
            items
                .into_iter()
                .map(|(k, v)| (Arc::from(k.as_str()), v))
                .collect(),
        )
    }

    /// True iff this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The Cypher type name, as returned by diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Integer(_) => "INTEGER",
            Value::Float(_) => "FLOAT",
            Value::String(_) => "STRING",
            Value::List(_) => "LIST",
            Value::Map(_) => "MAP",
            Value::Node(_) => "NODE",
            Value::Rel(_) => "RELATIONSHIP",
            Value::Path(_) => "PATH",
            Value::Temporal(t) => match t {
                Temporal::Date(_) => "DATE",
                Temporal::LocalTime(_) => "LOCALTIME",
                Temporal::LocalDateTime(_) => "LOCALDATETIME",
                Temporal::DateTime(_) => "DATETIME",
                Temporal::Duration(_) => "DURATION",
            },
        }
    }

    /// Numeric view: integers and floats as `f64`, else `None`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean truthiness as a three-valued result: `null → Null`,
    /// non-boolean values are an error in Cypher but we map them to `Null`
    /// to keep predicates total (mirroring lenient openCypher runtimes).
    pub fn truth(&self) -> Tri {
        match self {
            Value::Bool(true) => Tri::True,
            Value::Bool(false) => Tri::False,
            _ => Tri::Null,
        }
    }

    // -- equality ----------------------------------------------------------

    /// Cypher `=`: three-valued equality.
    pub fn equals(&self, other: &Value) -> Tri {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Tri::Null,
            (Bool(a), Bool(b)) => Tri::from_bool(a == b),
            (Integer(a), Integer(b)) => Tri::from_bool(a == b),
            (Float(a), Float(b)) => Tri::from_bool(a == b), // NaN ≠ NaN
            (Integer(a), Float(b)) | (Float(b), Integer(a)) => Tri::from_bool(*a as f64 == *b),
            (String(a), String(b)) => Tri::from_bool(a == b),
            (Node(a), Node(b)) => Tri::from_bool(a == b),
            (Rel(a), Rel(b)) => Tri::from_bool(a == b),
            (Path(a), Path(b)) => Tri::from_bool(a == b),
            (Temporal(a), Temporal(b)) => {
                if a.rank() == b.rank() {
                    Tri::from_bool(a.cmp_order(b) == Ordering::Equal)
                } else {
                    Tri::False
                }
            }
            (List(a), List(b)) => {
                if a.len() != b.len() {
                    return Tri::False;
                }
                let mut acc = Tri::True;
                for (x, y) in a.iter().zip(b) {
                    acc = acc.and(x.equals(y));
                    if acc == Tri::False {
                        return Tri::False;
                    }
                }
                acc
            }
            (Map(a), Map(b)) => {
                if a.len() != b.len() || !a.keys().eq(b.keys()) {
                    return Tri::False;
                }
                let mut acc = Tri::True;
                for (x, y) in a.values().zip(b.values()) {
                    acc = acc.and(x.equals(y));
                    if acc == Tri::False {
                        return Tri::False;
                    }
                }
                acc
            }
            _ => Tri::False, // cross-type
        }
    }

    // -- comparability (<, <=, >, >=) ---------------------------------------

    /// Cypher comparison for the inequality operators. Returns `None`
    /// (meaning `null`) when either side is `null` or the values are
    /// incomparable (different, non-numeric types).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Integer(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Integer(b)) => a.partial_cmp(&(*b as f64)),
            (String(a), String(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Temporal(a), Temporal(b)) if a.rank() == b.rank() => Some(a.cmp_order(b)),
            (List(a), List(b)) => {
                // Lexicographic; any incomparable element pair makes the
                // whole comparison undefined.
                for (x, y) in a.iter().zip(b) {
                    match x.compare(y)? {
                        Ordering::Equal => continue,
                        ord => return Some(ord),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => None,
        }
    }

    // -- orderability & equivalence ------------------------------------------

    /// Type rank for the global orderability order. `null` ranks last so it
    /// sorts after every other value in ascending `ORDER BY`.
    fn order_rank(&self) -> u8 {
        match self {
            Value::Map(_) => 0,
            Value::Node(_) => 1,
            Value::Rel(_) => 2,
            Value::List(_) => 3,
            Value::Path(_) => 4,
            Value::Temporal(_) => 5,
            Value::String(_) => 6,
            Value::Bool(_) => 7,
            Value::Integer(_) | Value::Float(_) => 8,
            Value::Null => 9,
        }
    }

    /// The total "orderability" order used by `ORDER BY`, `DISTINCT` and
    /// grouping. All values are mutually comparable; `NaN` sorts after all
    /// other numbers; `null` sorts after everything.
    pub fn cmp_order(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Integer(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Integer(b)) => cmp_f64(*a, *b as f64),
            (String(a), String(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Node(a), Node(b)) => a.cmp(b),
            (Rel(a), Rel(b)) => a.cmp(b),
            (Temporal(a), Temporal(b)) => a.cmp_order(b),
            (Path(a), Path(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b) {
                    match x.cmp_order(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Map(a), Map(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    match ka.cmp(kb) {
                        Ordering::Equal => {}
                        ord => return ord,
                    }
                    match va.cmp_order(vb) {
                        Ordering::Equal => {}
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => self.order_rank().cmp(&other.order_rank()),
        }
    }

    /// Equivalence: reflexive sameness used by `DISTINCT`, grouping keys and
    /// set-`UNION` duplicate elimination. Unlike [`Value::equals`], here
    /// `null ≡ null` and `NaN ≡ NaN`.
    pub fn equivalent(&self, other: &Value) -> bool {
        self.cmp_order(other) == Ordering::Equal
    }

    /// Hashes consistently with [`Value::equivalent`] (so `1` and `1.0` hash
    /// alike, as do all `NaN`s).
    pub fn hash_equivalent<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Integer(i) => {
                state.write_u8(2);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                let canon = if f.is_nan() { f64::NAN } else { *f };
                // Normalize -0.0 to 0.0 so it hashes like the integer 0.
                let canon = if canon == 0.0 { 0.0 } else { canon };
                canon.to_bits().hash(state);
            }
            Value::String(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::List(items) => {
                state.write_u8(4);
                state.write_usize(items.len());
                for v in items {
                    v.hash_equivalent(state);
                }
            }
            Value::Map(m) => {
                state.write_u8(5);
                state.write_usize(m.len());
                for (k, v) in m {
                    k.hash(state);
                    v.hash_equivalent(state);
                }
            }
            Value::Node(n) => {
                state.write_u8(6);
                n.hash(state);
            }
            Value::Rel(r) => {
                state.write_u8(7);
                r.hash(state);
            }
            Value::Path(p) => {
                state.write_u8(8);
                p.hash(state);
            }
            Value::Temporal(t) => {
                state.write_u8(9);
                state.write_u8(t.rank());
                t.hash(state);
            }
        }
    }
}

/// Rust `==` on values is defined as Cypher *equivalence* (the reflexive
/// relation used by `DISTINCT`), **not** the three-valued `=` operator —
/// use [`Value::equals`] for the latter.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.equivalent(other)
    }
}

impl Eq for Value {}

/// `ORDER BY`'s total order on numbers: IEEE order, NaN after the rest.
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).unwrap(),
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::String(s) => write!(f, "'{s}'"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Node(n) => write!(f, "{n}"),
            Value::Rel(r) => write!(f, "{r}"),
            Value::Path(p) => write!(f, "{p}"),
            Value::Temporal(t) => write!(f, "{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_logic_truth_tables() {
        use Tri::*;
        // SQL / Kleene truth tables, as stated in §4.3 of the paper.
        assert_eq!(True.and(Null), Null);
        assert_eq!(False.and(Null), False);
        assert_eq!(True.or(Null), True);
        assert_eq!(False.or(Null), Null);
        assert_eq!(Null.not(), Null);
        assert_eq!(True.xor(Null), Null);
        assert_eq!(True.xor(False), True);
        assert_eq!(True.xor(True), False);
    }

    #[test]
    fn equality_null_propagates() {
        assert_eq!(Value::Null.equals(&Value::int(1)), Tri::Null);
        assert_eq!(Value::int(1).equals(&Value::Null), Tri::Null);
        assert_eq!(Value::Null.equals(&Value::Null), Tri::Null);
    }

    #[test]
    fn equality_numeric_cross_type() {
        assert_eq!(Value::int(1).equals(&Value::float(1.0)), Tri::True);
        assert_eq!(Value::int(1).equals(&Value::float(1.5)), Tri::False);
    }

    #[test]
    fn equality_nan() {
        let nan = Value::float(f64::NAN);
        assert_eq!(nan.equals(&nan), Tri::False);
        assert!(nan.equivalent(&nan));
    }

    #[test]
    fn equality_cross_type_is_false() {
        assert_eq!(Value::int(1).equals(&Value::str("1")), Tri::False);
        assert_eq!(Value::Bool(true).equals(&Value::int(1)), Tri::False);
    }

    #[test]
    fn list_equality_three_valued() {
        let a = Value::list([Value::int(1), Value::Null]);
        let b = Value::list([Value::int(1), Value::int(2)]);
        assert_eq!(a.equals(&b), Tri::Null);
        let c = Value::list([Value::int(9), Value::Null]);
        assert_eq!(c.equals(&b), Tri::False); // first element already false
        let short = Value::list([Value::int(1)]);
        assert_eq!(short.equals(&b), Tri::False); // length mismatch is false
    }

    #[test]
    fn compare_incomparable_is_none() {
        assert_eq!(Value::int(1).compare(&Value::str("a")), None);
        assert_eq!(Value::Null.compare(&Value::int(1)), None);
        assert_eq!(Value::int(1).compare(&Value::int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("a").compare(&Value::str("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn orderability_is_total_and_null_last() {
        let vals = vec![
            Value::Null,
            Value::int(3),
            Value::float(2.5),
            Value::str("z"),
            Value::Bool(false),
            Value::list([Value::int(1)]),
            Value::map([("a".to_string(), Value::int(1))]),
        ];
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.cmp_order(b));
        assert!(sorted.last().unwrap().is_null());
        // Totality / antisymmetry spot-check.
        for a in &vals {
            for b in &vals {
                assert_eq!(a.cmp_order(b), b.cmp_order(a).reverse());
            }
        }
    }

    #[test]
    fn equivalence_and_hash_agree() {
        use std::collections::hash_map::DefaultHasher;
        let pairs = [
            (Value::int(1), Value::float(1.0)),
            (Value::Null, Value::Null),
            (Value::float(f64::NAN), Value::float(f64::NAN)),
            (Value::float(0.0), Value::float(-0.0)),
        ];
        for (a, b) in pairs {
            assert!(a.equivalent(&b), "{a:?} ≡ {b:?}");
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash_equivalent(&mut ha);
            b.hash_equivalent(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "{a:?} / {b:?} hash");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::float(1.0).to_string(), "1.0");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(
            Value::list([Value::int(1), Value::Null]).to_string(),
            "[1, null]"
        );
        assert_eq!(
            Value::map([("k".into(), Value::int(1))]).to_string(),
            "{k: 1}"
        );
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).truth(), Tri::True);
        assert_eq!(Value::Bool(false).truth(), Tri::False);
        assert_eq!(Value::Null.truth(), Tri::Null);
        assert_eq!(Value::int(1).truth(), Tri::Null);
    }
}
