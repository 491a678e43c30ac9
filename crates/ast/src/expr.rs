//! Expression abstract syntax (paper Figure 5, "expressions"), extended
//! with the surface constructs of Sections 2–3: arithmetic, `CASE`, list
//! comprehensions, quantifiers, pattern predicates (existential subqueries)
//! and parameters.

use crate::pattern::PathPattern;
use std::sync::Arc;

/// A literal value occurring in query text.
#[derive(Clone, PartialEq, Debug)]
pub enum Literal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal.
    Integer(i64),
    /// A float literal.
    Float(f64),
    /// A string literal, shared by every value it evaluates to.
    String(Arc<str>),
}

/// Comparison operators (`inequalities` row of Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators (part of the base function set `F`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    /// `+` (also string and list concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^`
    Pow,
}

/// Quantifier kinds over lists: `ALL`, `ANY`, `NONE`, `SINGLE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quantifier {
    /// Every element satisfies the predicate.
    All,
    /// At least one element satisfies it.
    Any,
    /// No element satisfies it.
    None,
    /// Exactly one element satisfies it.
    Single,
}

/// A Cypher expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal `v ∈ V`.
    Lit(Literal),
    /// A name `a ∈ A`.
    Var(String),
    /// A query parameter `$name` (paper §2, "Pragmatic").
    Param(String),
    /// Property access `expr.k`.
    Prop(Box<Expr>, String),
    /// Map literal `{k₁: e₁, …}`.
    Map(Vec<(String, Expr)>),
    /// List literal `[e₁, …]`.
    List(Vec<Expr>),
    /// `e₁ IN e₂`.
    In(Box<Expr>, Box<Expr>),
    /// Subscript `e₁[e₂]`.
    Index(Box<Expr>, Box<Expr>),
    /// Slice `e[from..to]` with optional bounds.
    Slice(Box<Expr>, Option<Box<Expr>>, Option<Box<Expr>>),
    /// `e₁ STARTS WITH e₂`.
    StartsWith(Box<Expr>, Box<Expr>),
    /// `e₁ ENDS WITH e₂`.
    EndsWith(Box<Expr>, Box<Expr>),
    /// `e₁ CONTAINS e₂`.
    Contains(Box<Expr>, Box<Expr>),
    /// `e₁ OR e₂` (3-valued).
    Or(Box<Expr>, Box<Expr>),
    /// `e₁ AND e₂` (3-valued).
    And(Box<Expr>, Box<Expr>),
    /// `e₁ XOR e₂` (3-valued).
    Xor(Box<Expr>, Box<Expr>),
    /// `NOT e` (3-valued).
    Not(Box<Expr>),
    /// `e IS NULL`.
    IsNull(Box<Expr>),
    /// `e IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// A comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// An arithmetic operation.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// A function application `f(e₁, …)`; `distinct` marks
    /// `f(DISTINCT e)` for aggregating functions.
    FnCall {
        /// The function name (lower-cased by the parser).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// `DISTINCT` flag for aggregation.
        distinct: bool,
    },
    /// `count(*)`.
    CountStar,
    /// A label predicate `e:L₁:L₂` in expression position (used in the
    /// paper's fraud query: `pInfo:SSN OR pInfo:PhoneNumber`).
    HasLabels(Box<Expr>, Vec<String>),
    /// `CASE` (both the simple and the searched form).
    Case {
        /// The scrutinee of a simple `CASE e WHEN …`; `None` for the
        /// searched form.
        input: Option<Box<Expr>>,
        /// `WHEN cond THEN value` arms.
        whens: Vec<(Expr, Expr)>,
        /// `ELSE` value (defaults to `null`).
        else_: Option<Box<Expr>>,
    },
    /// List comprehension `[x IN list WHERE pred | body]`.
    ListComprehension {
        /// The bound variable.
        var: String,
        /// The list expression.
        list: Box<Expr>,
        /// Optional filter.
        filter: Option<Box<Expr>>,
        /// Optional mapping body (identity if absent).
        body: Option<Box<Expr>>,
    },
    /// A quantified predicate `all(x IN list WHERE pred)` etc.
    Quantified {
        /// Which quantifier.
        q: Quantifier,
        /// The bound variable.
        var: String,
        /// The list expression.
        list: Box<Expr>,
        /// The predicate.
        pred: Box<Expr>,
    },
    /// An existential pattern predicate: a path pattern used as a boolean
    /// expression in `WHERE`, e.g. `WHERE (a)-[:KNOWS]->(b)` — the paper's
    /// "existential subqueries".
    PatternPredicate(Box<PathPattern>),
    /// A pattern comprehension `[(a)-[:X]->(b) WHERE pred | body]`: the
    /// list of `body` values over all matches of the pattern, in match
    /// order. Variables of the pattern not bound in the enclosing scope
    /// are local to the comprehension.
    PatternComprehension {
        /// The matched pattern.
        pattern: Box<PathPattern>,
        /// Optional filter over each match.
        filter: Option<Box<Expr>>,
        /// The projected value per match.
        body: Box<Expr>,
    },
}

impl Expr {
    /// Integer literal shorthand.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Literal::Integer(i))
    }

    /// String literal shorthand.
    pub fn str(s: impl Into<Arc<str>>) -> Expr {
        Expr::Lit(Literal::String(s.into()))
    }

    /// Variable reference shorthand.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `null` literal shorthand.
    pub fn null() -> Expr {
        Expr::Lit(Literal::Null)
    }

    /// Property access shorthand.
    pub fn prop(base: Expr, key: impl Into<String>) -> Expr {
        Expr::Prop(Box::new(base), key.into())
    }

    /// Equality comparison shorthand.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(a), Box::new(b))
    }

    /// True iff the expression tree contains an aggregating function call
    /// (`count`, `sum`, …) not nested inside another aggregation. Used to
    /// split `WITH`/`RETURN` items into grouping keys and aggregates
    /// (paper §3: "non-aggregating expressions act as implicit grouping
    /// keys").
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::CountStar => true,
            Expr::FnCall { name, args, .. } => {
                is_aggregate_fn(name) || args.iter().any(Expr::contains_aggregate)
            }
            _ => {
                let mut found = false;
                self.for_each_child(&mut |c| {
                    if c.contains_aggregate() {
                        found = true;
                    }
                });
                found
            }
        }
    }

    /// Applies `f` to each direct child expression.
    pub fn for_each_child(&self, f: &mut dyn FnMut(&Expr)) {
        use Expr::*;
        match self {
            Lit(_) | Var(_) | Param(_) | CountStar | PatternPredicate(_) => {}
            PatternComprehension { filter, body, .. } => {
                if let Some(x) = filter {
                    f(x);
                }
                f(body);
            }
            Prop(e, _) | Not(e) | IsNull(e) | IsNotNull(e) | Neg(e) => f(e),
            Map(kvs) => kvs.iter().for_each(|(_, e)| f(e)),
            List(es) => es.iter().for_each(f),
            In(a, b)
            | Index(a, b)
            | StartsWith(a, b)
            | EndsWith(a, b)
            | Contains(a, b)
            | Or(a, b)
            | And(a, b)
            | Xor(a, b)
            | Cmp(_, a, b)
            | Arith(_, a, b) => {
                f(a);
                f(b);
            }
            Slice(e, lo, hi) => {
                f(e);
                if let Some(lo) = lo {
                    f(lo);
                }
                if let Some(hi) = hi {
                    f(hi);
                }
            }
            FnCall { args, .. } => args.iter().for_each(f),
            HasLabels(e, _) => f(e),
            Case {
                input,
                whens,
                else_,
            } => {
                if let Some(i) = input {
                    f(i);
                }
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_ {
                    f(e);
                }
            }
            ListComprehension {
                list, filter, body, ..
            } => {
                f(list);
                if let Some(x) = filter {
                    f(x);
                }
                if let Some(x) = body {
                    f(x);
                }
            }
            Quantified { list, pred, .. } => {
                f(list);
                f(pred);
            }
        }
    }
}

/// The aggregating functions of the implementation's base set `F`.
pub fn is_aggregate_fn(name: &str) -> bool {
    matches!(
        name,
        "count"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "collect"
            | "stdev"
            | "stdevp"
            | "percentilecont"
            | "percentiledisc"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = Expr::FnCall {
            name: "count".into(),
            args: vec![Expr::var("s")],
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        assert!(Expr::CountStar.contains_aggregate());
        assert!(!Expr::var("x").contains_aggregate());

        // Nested: 1 + count(x)
        let nested = Expr::Arith(ArithOp::Add, Box::new(Expr::int(1)), Box::new(agg));
        assert!(nested.contains_aggregate());

        // Non-aggregate function.
        let f = Expr::FnCall {
            name: "size".into(),
            args: vec![Expr::var("x")],
            distinct: false,
        };
        assert!(!f.contains_aggregate());
    }

    #[test]
    fn shorthands() {
        assert_eq!(Expr::int(3), Expr::Lit(Literal::Integer(3)));
        assert_eq!(
            Expr::prop(Expr::var("r"), "name"),
            Expr::Prop(Box::new(Expr::Var("r".into())), "name".into())
        );
    }

    #[test]
    fn for_each_child_covers_case() {
        let e = Expr::Case {
            input: Some(Box::new(Expr::var("x"))),
            whens: vec![(Expr::int(1), Expr::int(2))],
            else_: Some(Box::new(Expr::int(3))),
        };
        let mut n = 0;
        e.for_each_child(&mut |_| n += 1);
        assert_eq!(n, 4);
    }
}
