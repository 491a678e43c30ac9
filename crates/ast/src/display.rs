//! The unparser: renders the abstract syntax back to valid Cypher text.
//!
//! This regenerates the concrete syntax of Figures 3 and 5 and is the basis
//! of the grammar round-trip tests (`tests/grammar_roundtrip.rs`):
//! `parse(render(ast)) == ast`. Expressions are rendered fully
//! parenthesized so the round-trip is independent of precedence.

use crate::expr::{ArithOp, CmpOp, Expr, Literal, Quantifier};
use crate::pattern::{Dir, NodePattern, PathPattern, RangeSpec, RelPattern};
use crate::query::{Clause, Query, RemoveItem, Return, ReturnItem, SetItem, SortItem};
use std::fmt;

fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '\'' => out.push_str("\\'"),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "null"),
            Literal::Bool(b) => write!(f, "{b}"),
            // Negative numeric literals are parenthesized so they survive
            // postfix contexts (`(-1).a` rather than `-1.a`, which would
            // re-parse as a negated property access).
            Literal::Integer(i) if *i < 0 => write!(f, "({i})"),
            Literal::Integer(i) => write!(f, "{i}"),
            Literal::Float(x) if x.is_sign_negative() => write!(f, "({x:?})"),
            Literal::Float(x) => write!(f, "{x:?}"),
            Literal::String(s) => write!(f, "'{}'", escape_string(s)),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
            ArithOp::Pow => "^",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Expr::*;
        match self {
            Lit(l) => write!(f, "{l}"),
            Var(a) => write!(f, "{a}"),
            Param(p) => write!(f, "${p}"),
            Prop(e, k) => write!(f, "{e}.{k}"),
            Map(kvs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in kvs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            List(es) => {
                write!(f, "[")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            In(a, b) => write!(f, "({a} IN {b})"),
            Index(a, b) => write!(f, "{a}[{b}]"),
            Slice(e, lo, hi) => {
                write!(f, "{e}[")?;
                if let Some(lo) = lo {
                    write!(f, "{lo}")?;
                }
                write!(f, "..")?;
                if let Some(hi) = hi {
                    write!(f, "{hi}")?;
                }
                write!(f, "]")
            }
            StartsWith(a, b) => write!(f, "({a} STARTS WITH {b})"),
            EndsWith(a, b) => write!(f, "({a} ENDS WITH {b})"),
            Contains(a, b) => write!(f, "({a} CONTAINS {b})"),
            Or(a, b) => write!(f, "({a} OR {b})"),
            And(a, b) => write!(f, "({a} AND {b})"),
            Xor(a, b) => write!(f, "({a} XOR {b})"),
            Not(e) => write!(f, "(NOT {e})"),
            IsNull(e) => write!(f, "({e} IS NULL)"),
            IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Neg(e) => write!(f, "(-{e})"),
            FnCall {
                name,
                args,
                distinct,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            CountStar => write!(f, "count(*)"),
            HasLabels(e, ls) => {
                write!(f, "({e}")?;
                for l in ls {
                    write!(f, ":{l}")?;
                }
                write!(f, ")")
            }
            Case {
                input,
                whens,
                else_,
            } => {
                write!(f, "CASE")?;
                if let Some(i) = input {
                    write!(f, " {i}")?;
                }
                for (w, t) in whens {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            ListComprehension {
                var,
                list,
                filter,
                body,
            } => {
                write!(f, "[{var} IN {list}")?;
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                if let Some(b) = body {
                    write!(f, " | {b}")?;
                }
                write!(f, "]")
            }
            Quantified { q, var, list, pred } => {
                let name = match q {
                    Quantifier::All => "all",
                    Quantifier::Any => "any",
                    Quantifier::None => "none",
                    Quantifier::Single => "single",
                };
                write!(f, "{name}({var} IN {list} WHERE {pred})")
            }
            PatternPredicate(p) => write!(f, "{p}"),
            PatternComprehension {
                pattern,
                filter,
                body,
            } => {
                write!(f, "[{pattern}")?;
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                write!(f, " | {body}]")
            }
        }
    }
}

impl fmt::Display for NodePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        if let Some(n) = &self.name {
            write!(f, "{n}")?;
        }
        for l in &self.labels {
            write!(f, ":{l}")?;
        }
        if !self.props.is_empty() {
            if self.name.is_some() || !self.labels.is_empty() {
                write!(f, " ")?;
            }
            write!(f, "{{")?;
            for (i, (k, v)) in self.props.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}: {v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for RelPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pre, post) = match self.dir {
            Dir::Out => ("-", "->"),
            Dir::In => ("<-", "-"),
            Dir::Both => ("-", "-"),
        };
        write!(f, "{pre}")?;
        let has_body = self.name.is_some()
            || !self.types.is_empty()
            || !self.props.is_empty()
            || self.range != RangeSpec::None;
        if has_body {
            write!(f, "[")?;
            if let Some(n) = &self.name {
                write!(f, "{n}")?;
            }
            for (i, t) in self.types.iter().enumerate() {
                write!(f, "{}{t}", if i == 0 { ":" } else { "|" })?;
            }
            if let RangeSpec::Var(lo, hi) = self.range {
                write!(f, "*")?;
                match (lo, hi) {
                    (None, None) => {}
                    (Some(a), Some(b)) if a == b => write!(f, "{a}")?,
                    (Some(a), Some(b)) => write!(f, "{a}..{b}")?,
                    (Some(a), None) => write!(f, "{a}..")?,
                    (None, Some(b)) => write!(f, "..{b}")?,
                }
            }
            if !self.props.is_empty() {
                write!(f, " {{")?;
                for (i, (k, v)) in self.props.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")?;
            }
            write!(f, "]")?;
        }
        write!(f, "{post}")
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = &self.name {
            write!(f, "{n} = ")?;
        }
        write!(f, "{}", self.start)?;
        for (r, n) in &self.steps {
            write!(f, "{r}{n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SortItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if !self.ascending {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

impl fmt::Display for ReturnItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if let Some(a) = &self.alias {
            write!(f, " AS {a}")?;
        }
        Ok(())
    }
}

impl Return {
    fn fmt_body(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        let mut first = true;
        if self.star {
            write!(f, "*")?;
            first = false;
        }
        for item in &self.items {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
            first = false;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, s) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
        }
        if let Some(s) = &self.skip {
            write!(f, " SKIP {s}")?;
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetItem::Prop(e, k, v) => write!(f, "{e}.{k} = {v}"),
            SetItem::Replace(a, m) => write!(f, "{a} = {m}"),
            SetItem::Merge(a, m) => write!(f, "{a} += {m}"),
            SetItem::Labels(a, ls) => {
                write!(f, "{a}")?;
                for l in ls {
                    write!(f, ":{l}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for RemoveItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoveItem::Prop(e, k) => write!(f, "{e}.{k}"),
            RemoveItem::Labels(a, ls) => {
                write!(f, "{a}")?;
                for l in ls {
                    write!(f, ":{l}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::Match {
                optional,
                patterns,
                where_,
            } => {
                if *optional {
                    write!(f, "OPTIONAL ")?;
                }
                write!(f, "MATCH ")?;
                for (i, p) in patterns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                if let Some(w) = where_ {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Clause::With { ret, where_ } => {
                write!(f, "WITH ")?;
                ret.fmt_body(f)?;
                if let Some(w) = where_ {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Clause::Unwind { expr, alias } => write!(f, "UNWIND {expr} AS {alias}"),
            Clause::Create { patterns } => {
                write!(f, "CREATE ")?;
                for (i, p) in patterns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Clause::Merge {
                pattern,
                on_create,
                on_match,
            } => {
                write!(f, "MERGE {pattern}")?;
                if !on_create.is_empty() {
                    write!(f, " ON CREATE SET ")?;
                    for (i, s) in on_create.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{s}")?;
                    }
                }
                if !on_match.is_empty() {
                    write!(f, " ON MATCH SET ")?;
                    for (i, s) in on_match.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{s}")?;
                    }
                }
                Ok(())
            }
            Clause::Delete { detach, exprs } => {
                if *detach {
                    write!(f, "DETACH ")?;
                }
                write!(f, "DELETE ")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Clause::Set { items } => {
                write!(f, "SET ")?;
                for (i, s) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
            Clause::Remove { items } => {
                write!(f, "REMOVE ")?;
                for (i, s) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
            Clause::FromGraph { name, at } => {
                write!(f, "FROM GRAPH {name}")?;
                if let Some(a) = at {
                    write!(f, " AT '{}'", escape_string(a))?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Single(q) => {
                let mut first = true;
                for c in &q.clauses {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{c}")?;
                    first = false;
                }
                if let Some(r) = &q.ret {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "RETURN ")?;
                    r.fmt_body(f)?;
                } else if let Some((name, pats)) = &q.ret_graph {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "RETURN GRAPH {name} OF ")?;
                    for (i, p) in pats.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Query::Union { all, left, right } => {
                write!(f, "{left} UNION ")?;
                if *all {
                    write!(f, "ALL ")?;
                }
                write!(f, "{right}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{NodePattern, RelPattern};

    #[test]
    fn node_pattern_forms() {
        assert_eq!(NodePattern::any().to_string(), "()");
        assert_eq!(NodePattern::named("x").to_string(), "(x)");
        assert_eq!(
            NodePattern::named("x")
                .with_label("Person")
                .with_label("Male")
                .to_string(),
            "(x:Person:Male)"
        );
        assert_eq!(
            NodePattern::named("x")
                .with_prop("name", Expr::str("Nils"))
                .to_string(),
            "(x {name: 'Nils'})"
        );
    }

    #[test]
    fn rel_pattern_forms() {
        assert_eq!(RelPattern::any(Dir::Out).to_string(), "-->");
        assert_eq!(RelPattern::any(Dir::In).to_string(), "<--");
        assert_eq!(RelPattern::any(Dir::Both).to_string(), "--");
        assert_eq!(
            RelPattern::typed(Dir::Out, "KNOWS").to_string(),
            "-[:KNOWS]->"
        );
        assert_eq!(
            RelPattern::typed(Dir::Both, "KNOWS")
                .with_range(Some(1), Some(1))
                .to_string(),
            "-[:KNOWS*1]-"
        );
        assert_eq!(
            RelPattern::typed(Dir::Out, "KNOWS")
                .with_range(Some(1), Some(2))
                .to_string(),
            "-[:KNOWS*1..2]->"
        );
        assert_eq!(
            RelPattern::any(Dir::Out).with_range(None, None).to_string(),
            "-[*]->"
        );
        let mut r = RelPattern::typed(Dir::Out, "A");
        r.types.push("B".into());
        assert_eq!(r.to_string(), "-[:A|B]->");
    }

    #[test]
    fn path_pattern_ascii_art() {
        let p = PathPattern::node(NodePattern::named("a"))
            .step(
                RelPattern::typed(Dir::Out, "SUPERVISES").named("r"),
                NodePattern::named("s").with_label("Student"),
            )
            .with_name("p");
        assert_eq!(p.to_string(), "p = (a)-[r:SUPERVISES]->(s:Student)");
    }

    #[test]
    fn expression_rendering() {
        let e = Expr::And(
            Box::new(Expr::eq(
                Expr::prop(Expr::var("n"), "name"),
                Expr::str("it's"),
            )),
            Box::new(Expr::IsNotNull(Box::new(Expr::var("x")))),
        );
        assert_eq!(e.to_string(), "((n.name = 'it\\'s') AND (x IS NOT NULL))");
    }

    #[test]
    fn float_literal_reparsable() {
        assert_eq!(Expr::Lit(Literal::Float(1.0)).to_string(), "1.0");
        assert_eq!(Expr::Lit(Literal::Float(2.5)).to_string(), "2.5");
    }

    #[test]
    fn clause_rendering() {
        let c = Clause::Match {
            optional: true,
            patterns: vec![PathPattern::node(NodePattern::named("r")).step(
                RelPattern::typed(Dir::Out, "SUPERVISES"),
                NodePattern::named("s").with_label("Student"),
            )],
            where_: None,
        };
        assert_eq!(
            c.to_string(),
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)"
        );
    }
}
