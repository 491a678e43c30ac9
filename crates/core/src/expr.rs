//! Expression semantics `[[expr]]_{G,u}` (paper Section 4.3, "Semantics of
//! expressions").
//!
//! An expression denotes a value in `V`, determined by the graph `G` and an
//! assignment `u` of values to names. Logic is SQL-style three-valued;
//! property access, list indexing and comparisons are null-propagating;
//! genuinely ill-typed operations (e.g. adding a node to an integer) are
//! evaluation errors.

use crate::error::{err, EvalError};
use crate::functions::apply_function;
use crate::matching;
use crate::table::{Record, RowBatch, Schema};
use crate::EvalContext;
use cypher_ast::expr::{is_aggregate_fn, ArithOp, CmpOp, Expr, Literal, Quantifier};
use cypher_graph::{Temporal, Tri, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An assignment `u`: anything that can resolve a name to a value.
pub trait VarLookup {
    /// Resolves a name, cloning the value.
    fn lookup(&self, name: &str) -> Option<Value>;
}

/// The standard assignment: a record viewed through its schema.
pub struct Bindings<'a> {
    /// Field names.
    pub schema: &'a Schema,
    /// Field values.
    pub row: &'a Record,
}

impl<'a> Bindings<'a> {
    /// Pairs a schema with a record.
    pub fn new(schema: &'a Schema, row: &'a Record) -> Self {
        Bindings { schema, row }
    }
}

impl VarLookup for Bindings<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.schema.index_of(name).map(|i| self.row.get(i).clone())
    }
}

/// One row of a [`RowBatch`] viewed through its schema: the assignment
/// the engine's column-at-a-time operators evaluate under.
pub struct ColumnBindings<'a> {
    /// Field names.
    pub schema: &'a Schema,
    /// The rows, one column per field.
    pub batch: &'a RowBatch,
    /// The row.
    pub row: usize,
}

impl ColumnBindings<'_> {
    /// The row as a record (a row leaving the columns).
    pub fn record(&self) -> Record {
        let cols = self.batch.columns();
        Record::new(cols.iter().map(|c| c[self.row].clone()).collect())
    }
}

impl VarLookup for ColumnBindings<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        let i = self.schema.index_of(name)?;
        Some(self.batch.at(i, self.row).clone())
    }
}

impl RowBatch {
    /// Row `row` as an assignment over `schema`.
    pub fn row<'a>(&'a self, schema: &'a Schema, row: usize) -> ColumnBindings<'a> {
        ColumnBindings {
            schema,
            batch: self,
            row,
        }
    }
}

/// An assignment extended with one local binding (used by comprehensions
/// and quantifiers, whose iteration variable shadows outer names).
pub struct WithLocal<'a> {
    parent: &'a dyn VarLookup,
    name: &'a str,
    value: &'a Value,
}

impl VarLookup for WithLocal<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        if name == self.name {
            Some(self.value.clone())
        } else {
            self.parent.lookup(name)
        }
    }
}

/// An empty assignment.
pub struct NoVars;

impl VarLookup for NoVars {
    fn lookup(&self, _name: &str) -> Option<Value> {
        None
    }
}

/// Evaluates `[[expr]]_{G,u}`.
pub fn eval_expr(
    ctx: &EvalContext<'_>,
    u: &dyn VarLookup,
    expr: &Expr,
) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(l) => Ok(eval_literal(l)),
        Expr::Var(a) => u
            .lookup(a)
            .ok_or_else(|| EvalError::new(format!("undefined variable: {a}"))),
        Expr::Param(p) => ctx
            .params
            .get(p)
            .cloned()
            .ok_or_else(|| EvalError::new(format!("missing parameter: ${p}"))),
        Expr::Prop(base, key) => {
            let v = eval_expr(ctx, u, base)?;
            eval_prop_access(ctx, &v, key)
        }
        Expr::Map(kvs) => {
            let mut m = BTreeMap::new();
            for (k, e) in kvs {
                m.insert(Arc::from(k.as_str()), eval_expr(ctx, u, e)?);
            }
            Ok(Value::Map(m))
        }
        Expr::List(es) => {
            let mut items = Vec::with_capacity(es.len());
            for e in es {
                items.push(eval_expr(ctx, u, e)?);
            }
            Ok(Value::List(items))
        }
        Expr::In(x, list) => {
            let xv = eval_expr(ctx, u, x)?;
            let lv = eval_expr(ctx, u, list)?;
            match lv {
                Value::Null => Ok(Value::Null),
                Value::List(items) => {
                    let mut acc = Tri::False;
                    for item in &items {
                        match xv.equals(item) {
                            Tri::True => return Ok(Value::Bool(true)),
                            Tri::Null => acc = Tri::Null,
                            Tri::False => {}
                        }
                    }
                    Ok(acc.into_value())
                }
                other => err(format!("IN requires a list, got {}", other.type_name())),
            }
        }
        Expr::Index(base, idx) => {
            let b = eval_expr(ctx, u, base)?;
            let i = eval_expr(ctx, u, idx)?;
            eval_index(&b, &i)
        }
        Expr::Slice(base, lo, hi) => {
            let b = eval_expr(ctx, u, base)?;
            let lo = match lo {
                Some(e) => Some(eval_expr(ctx, u, e)?),
                None => None,
            };
            let hi = match hi {
                Some(e) => Some(eval_expr(ctx, u, e)?),
                None => None,
            };
            eval_slice(&b, lo, hi)
        }
        Expr::StartsWith(a, b) => eval_string_pred(ctx, u, a, b, |x, y| x.starts_with(y)),
        Expr::EndsWith(a, b) => eval_string_pred(ctx, u, a, b, |x, y| x.ends_with(y)),
        Expr::Contains(a, b) => eval_string_pred(ctx, u, a, b, |x, y| x.contains(y)),
        Expr::Or(a, b) => {
            let x = truth_of(ctx, u, a)?;
            // Short-circuit on True; still three-valued.
            if x == Tri::True {
                return Ok(Value::Bool(true));
            }
            let y = truth_of(ctx, u, b)?;
            Ok(x.or(y).into_value())
        }
        Expr::And(a, b) => {
            let x = truth_of(ctx, u, a)?;
            if x == Tri::False {
                return Ok(Value::Bool(false));
            }
            let y = truth_of(ctx, u, b)?;
            Ok(x.and(y).into_value())
        }
        Expr::Xor(a, b) => {
            let x = truth_of(ctx, u, a)?;
            let y = truth_of(ctx, u, b)?;
            Ok(x.xor(y).into_value())
        }
        Expr::Not(e) => Ok(truth_of(ctx, u, e)?.not().into_value()),
        Expr::IsNull(e) => Ok(Value::Bool(eval_expr(ctx, u, e)?.is_null())),
        Expr::IsNotNull(e) => Ok(Value::Bool(!eval_expr(ctx, u, e)?.is_null())),
        Expr::Cmp(op, a, b) => {
            let x = eval_expr(ctx, u, a)?;
            let y = eval_expr(ctx, u, b)?;
            Ok(eval_cmp(*op, &x, &y).into_value())
        }
        Expr::Arith(op, a, b) => {
            let x = eval_expr(ctx, u, a)?;
            let y = eval_expr(ctx, u, b)?;
            eval_arith(*op, &x, &y)
        }
        Expr::Neg(e) => match eval_expr(ctx, u, e)? {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => i
                .checked_neg()
                .map(Value::Integer)
                .ok_or_else(|| EvalError::new("integer overflow in negation")),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Temporal(Temporal::Duration(d)) => {
                Ok(Value::Temporal(Temporal::Duration(d.negate())))
            }
            other => err(format!("cannot negate {}", other.type_name())),
        },
        Expr::FnCall {
            name,
            args,
            distinct,
        } => {
            if is_aggregate_fn(name) {
                return err(format!(
                    "aggregating function {name}() not allowed in this context"
                ));
            }
            if *distinct {
                return err("DISTINCT only applies to aggregating functions");
            }
            // `exists(<pattern>)` asks whether the pattern matches — the
            // pattern predicate already evaluates to exactly that boolean,
            // so pass it through instead of testing the *value* for null
            // (which would make `exists` of a non-matching pattern true).
            if name == "exists" && args.len() == 1 {
                if let Expr::PatternPredicate(_) = &args[0] {
                    return eval_expr(ctx, u, &args[0]);
                }
            }
            call_function(ctx, u, name, args)
        }
        Expr::CountStar => err("count(*) not allowed in this context"),
        Expr::HasLabels(e, labels) => {
            let v = eval_expr(ctx, u, e)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Node(n) => {
                    let all = labels.iter().all(|l| {
                        ctx.graph
                            .interner()
                            .get(l)
                            .is_some_and(|sym| ctx.graph.has_label(n, sym))
                    });
                    Ok(Value::Bool(all))
                }
                other => err(format!(
                    "label predicate requires a node, got {}",
                    other.type_name()
                )),
            }
        }
        Expr::Case {
            input,
            whens,
            else_,
        } => {
            let scrutinee = match input {
                Some(e) => Some(eval_expr(ctx, u, e)?),
                None => None,
            };
            for (w, t) in whens {
                let fire = match &scrutinee {
                    Some(s) => {
                        let wv = eval_expr(ctx, u, w)?;
                        s.equals(&wv) == Tri::True
                    }
                    None => truth_of(ctx, u, w)? == Tri::True,
                };
                if fire {
                    return eval_expr(ctx, u, t);
                }
            }
            match else_ {
                Some(e) => eval_expr(ctx, u, e),
                None => Ok(Value::Null),
            }
        }
        Expr::ListComprehension {
            var,
            list,
            filter,
            body,
        } => {
            let lv = eval_expr(ctx, u, list)?;
            let items = match lv {
                Value::Null => return Ok(Value::Null),
                Value::List(items) => items,
                other => {
                    return err(format!(
                        "list comprehension requires a list, got {}",
                        other.type_name()
                    ))
                }
            };
            let mut out = Vec::new();
            for item in items {
                let scope = WithLocal {
                    parent: u,
                    name: var,
                    value: &item,
                };
                if let Some(p) = filter {
                    if truth_of(ctx, &scope, p)? != Tri::True {
                        continue;
                    }
                }
                match body {
                    Some(b) => out.push(eval_expr(ctx, &scope, b)?),
                    None => out.push(item.clone()),
                }
            }
            Ok(Value::List(out))
        }
        Expr::Quantified { q, var, list, pred } => {
            let lv = eval_expr(ctx, u, list)?;
            let items = match lv {
                Value::Null => return Ok(Value::Null),
                Value::List(items) => items,
                other => {
                    return err(format!(
                        "quantifier requires a list, got {}",
                        other.type_name()
                    ))
                }
            };
            let mut trues = 0usize;
            let mut nulls = 0usize;
            for item in &items {
                let scope = WithLocal {
                    parent: u,
                    name: var,
                    value: item,
                };
                match truth_of(ctx, &scope, pred)? {
                    Tri::True => trues += 1,
                    Tri::Null => nulls += 1,
                    Tri::False => {}
                }
            }
            let falses = items.len() - trues - nulls;
            let tri = match q {
                Quantifier::All => {
                    if falses > 0 {
                        Tri::False
                    } else if nulls > 0 {
                        Tri::Null
                    } else {
                        Tri::True
                    }
                }
                Quantifier::Any => {
                    if trues > 0 {
                        Tri::True
                    } else if nulls > 0 {
                        Tri::Null
                    } else {
                        Tri::False
                    }
                }
                Quantifier::None => {
                    if trues > 0 {
                        Tri::False
                    } else if nulls > 0 {
                        Tri::Null
                    } else {
                        Tri::True
                    }
                }
                Quantifier::Single => {
                    if trues > 1 {
                        Tri::False
                    } else if nulls > 0 {
                        Tri::Null
                    } else {
                        Tri::from_bool(trues == 1)
                    }
                }
            };
            Ok(tri.into_value())
        }
        Expr::PatternPredicate(p) => {
            let found = matching::has_match(ctx, u, std::slice::from_ref(p))?;
            Ok(Value::Bool(found))
        }
        Expr::PatternComprehension {
            pattern,
            filter,
            body,
        } => {
            let rows = matching::match_patterns(ctx, u, std::slice::from_ref(pattern))?;
            let mut out = Vec::with_capacity(rows.len());
            for bindings in rows {
                let scope = WithBindings {
                    parent: u,
                    bindings: &bindings,
                };
                if let Some(p) = filter {
                    if truth_of(ctx, &scope, p)? != Tri::True {
                        continue;
                    }
                }
                out.push(eval_expr(ctx, &scope, body)?);
            }
            Ok(Value::List(out))
        }
    }
}

/// An assignment extended with a set of match bindings (used by pattern
/// comprehensions).
struct WithBindings<'a> {
    parent: &'a dyn VarLookup,
    bindings: &'a [(String, Value)],
}

impl VarLookup for WithBindings<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| self.parent.lookup(name))
    }
}

/// Evaluates an expression to a three-valued truth value (the coercion used
/// by `WHERE` and the logical connectives).
pub fn truth_of(ctx: &EvalContext<'_>, u: &dyn VarLookup, e: &Expr) -> Result<Tri, EvalError> {
    let v = eval_expr(ctx, u, e)?;
    match v {
        Value::Bool(b) => Ok(Tri::from_bool(b)),
        Value::Null => Ok(Tri::Null),
        other => err(format!(
            "expected a boolean predicate, got {}",
            other.type_name()
        )),
    }
}

/// Evaluates up to three arguments into a stack array, so a call
/// allocates no argument vector per row; longer calls keep a `Vec`.
/// Out of line, to keep the array out of `eval_expr`'s recursive frame.
#[inline(never)]
fn call_function(
    ctx: &EvalContext<'_>,
    u: &dyn VarLookup,
    name: &str,
    args: &[Expr],
) -> Result<Value, EvalError> {
    if args.len() <= 3 {
        let mut vals = [Value::Null, Value::Null, Value::Null];
        for (slot, a) in vals.iter_mut().zip(args) {
            *slot = eval_expr(ctx, u, a)?;
        }
        return apply_function(ctx, name, &mut vals[..args.len()]);
    }
    let mut vals = args
        .iter()
        .map(|a| eval_expr(ctx, u, a))
        .collect::<Result<Vec<_>, _>>()?;
    apply_function(ctx, name, &mut vals)
}

fn eval_literal(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Integer(i) => Value::Integer(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::String(Arc::clone(s)),
    }
}

fn eval_prop_access(ctx: &EvalContext<'_>, base: &Value, key: &str) -> Result<Value, EvalError> {
    match base {
        Value::Null => Ok(Value::Null),
        Value::Node(n) => Ok(ctx
            .graph
            .interner()
            .get(key)
            .and_then(|k| ctx.graph.node_prop(*n, k))
            .cloned()
            .unwrap_or(Value::Null)),
        Value::Rel(r) => Ok(ctx
            .graph
            .interner()
            .get(key)
            .and_then(|k| ctx.graph.rel_prop(*r, k))
            .cloned()
            .unwrap_or(Value::Null)),
        Value::Map(m) => Ok(m.get(key).cloned().unwrap_or(Value::Null)),
        Value::Temporal(t) => temporal_component(t, key),
        other => err(format!(
            "cannot access property .{key} on {}",
            other.type_name()
        )),
    }
}

fn temporal_component(t: &Temporal, key: &str) -> Result<Value, EvalError> {
    use Temporal::*;
    let v = match (t, key) {
        (Date(d), "year") => Value::int(d.year()),
        (Date(d), "month") => Value::int(d.month() as i64),
        (Date(d), "day") => Value::int(d.day() as i64),
        (Date(d), "weekday") => Value::int(d.weekday() as i64),
        (LocalTime(t), "hour") => Value::int(t.hour() as i64),
        (LocalTime(t), "minute") => Value::int(t.minute() as i64),
        (LocalTime(t), "second") => Value::int(t.second() as i64),
        (LocalTime(t), "nanosecond") => Value::int(t.nanosecond() as i64),
        (LocalDateTime(dt), "year") => Value::int(dt.date.year()),
        (LocalDateTime(dt), "month") => Value::int(dt.date.month() as i64),
        (LocalDateTime(dt), "day") => Value::int(dt.date.day() as i64),
        (LocalDateTime(dt), "hour") => Value::int(dt.time.hour() as i64),
        (LocalDateTime(dt), "minute") => Value::int(dt.time.minute() as i64),
        (LocalDateTime(dt), "second") => Value::int(dt.time.second() as i64),
        (DateTime(z), "year") => Value::int(z.local.date.year()),
        (DateTime(z), "month") => Value::int(z.local.date.month() as i64),
        (DateTime(z), "day") => Value::int(z.local.date.day() as i64),
        (DateTime(z), "hour") => Value::int(z.local.time.hour() as i64),
        (DateTime(z), "offsetSeconds") => Value::int(z.offset_seconds as i64),
        (Duration(d), "months") => Value::int(d.months),
        (Duration(d), "days") => Value::int(d.days),
        (Duration(d), "seconds") => Value::int(d.seconds),
        (Duration(d), "nanoseconds") => Value::int(d.nanos),
        _ => return err(format!("unknown temporal component .{key}")),
    };
    Ok(v)
}

fn eval_index(base: &Value, idx: &Value) -> Result<Value, EvalError> {
    match (base, idx) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::List(items), Value::Integer(i)) => {
            let len = items.len() as i64;
            let j = if *i < 0 { i + len } else { *i };
            if j < 0 || j >= len {
                Ok(Value::Null)
            } else {
                Ok(items[j as usize].clone())
            }
        }
        (Value::Map(m), Value::String(k)) => Ok(m.get(k.as_ref()).cloned().unwrap_or(Value::Null)),
        (b, i) => err(format!(
            "cannot index {} with {}",
            b.type_name(),
            i.type_name()
        )),
    }
}

fn eval_slice(base: &Value, lo: Option<Value>, hi: Option<Value>) -> Result<Value, EvalError> {
    let items = match base {
        Value::Null => return Ok(Value::Null),
        Value::List(items) => items,
        other => return err(format!("cannot slice {}", other.type_name())),
    };
    let len = items.len() as i64;
    let norm = |v: &Value| -> Result<Option<i64>, EvalError> {
        match v {
            Value::Null => Ok(None),
            Value::Integer(i) => {
                let j = if *i < 0 { i + len } else { *i };
                Ok(Some(j.clamp(0, len)))
            }
            other => err(format!(
                "slice bound must be an integer, got {}",
                other.type_name()
            )),
        }
    };
    let start = match &lo {
        Some(v) => match norm(v)? {
            Some(s) => s,
            None => return Ok(Value::Null),
        },
        None => 0,
    };
    let end = match &hi {
        Some(v) => match norm(v)? {
            Some(e) => e,
            None => return Ok(Value::Null),
        },
        None => len,
    };
    if start >= end {
        return Ok(Value::List(Vec::new()));
    }
    Ok(Value::List(items[start as usize..end as usize].to_vec()))
}

fn eval_string_pred(
    ctx: &EvalContext<'_>,
    u: &dyn VarLookup,
    a: &Expr,
    b: &Expr,
    f: impl Fn(&str, &str) -> bool,
) -> Result<Value, EvalError> {
    let x = eval_expr(ctx, u, a)?;
    let y = eval_expr(ctx, u, b)?;
    match (&x, &y) {
        (Value::String(s), Value::String(t)) => Ok(Value::Bool(f(s, t))),
        // Any null or non-string operand yields null (openCypher behaviour).
        _ => Ok(Value::Null),
    }
}

fn eval_cmp(op: CmpOp, a: &Value, b: &Value) -> Tri {
    match op {
        CmpOp::Eq => a.equals(b),
        CmpOp::Neq => a.equals(b).not(),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => match a.compare(b) {
            None => Tri::Null,
            Some(ord) => {
                let holds = match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Tri::from_bool(holds)
            }
        },
    }
}

fn eval_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use Value::*;
    if a.is_null() || b.is_null() {
        return Ok(Null);
    }
    match op {
        ArithOp::Add => match (a, b) {
            (Integer(x), Integer(y)) => x
                .checked_add(*y)
                .map(Integer)
                .ok_or_else(|| EvalError::new("integer overflow in +")),
            (Float(x), Float(y)) => Ok(Float(x + y)),
            (Integer(x), Float(y)) => Ok(Float(*x as f64 + y)),
            (Float(x), Integer(y)) => Ok(Float(x + *y as f64)),
            (String(x), String(y)) => Ok(Value::str(format!("{x}{y}"))),
            (String(x), Integer(y)) => Ok(Value::str(format!("{x}{y}"))),
            (String(x), Float(y)) => Ok(Value::str(format!("{x}{y}"))),
            (Integer(x), String(y)) => Ok(Value::str(format!("{x}{y}"))),
            (Float(x), String(y)) => Ok(Value::str(format!("{x}{y}"))),
            (List(x), List(y)) => {
                let mut out = x.clone();
                out.extend(y.iter().cloned());
                Ok(List(out))
            }
            (List(x), y) => {
                let mut out = x.clone();
                out.push(y.clone());
                Ok(List(out))
            }
            (x, List(y)) => {
                let mut out = vec![x.clone()];
                out.extend(y.iter().cloned());
                Ok(List(out))
            }
            (
                Temporal(cypher_graph::Temporal::Duration(x)),
                Temporal(cypher_graph::Temporal::Duration(y)),
            ) => Ok(Temporal(cypher_graph::Temporal::Duration(x.plus(*y)))),
            (
                Temporal(cypher_graph::Temporal::Date(d)),
                Temporal(cypher_graph::Temporal::Duration(x)),
            ) => Ok(Temporal(cypher_graph::Temporal::Date(d.plus(*x)))),
            (
                Temporal(cypher_graph::Temporal::LocalDateTime(dt)),
                Temporal(cypher_graph::Temporal::Duration(x)),
            ) => Ok(Temporal(cypher_graph::Temporal::LocalDateTime(dt.plus(*x)))),
            (x, y) => err(format!(
                "cannot add {} and {}",
                x.type_name(),
                y.type_name()
            )),
        },
        ArithOp::Sub => match (a, b) {
            (Integer(x), Integer(y)) => x
                .checked_sub(*y)
                .map(Integer)
                .ok_or_else(|| EvalError::new("integer overflow in -")),
            (Float(x), Float(y)) => Ok(Float(x - y)),
            (Integer(x), Float(y)) => Ok(Float(*x as f64 - y)),
            (Float(x), Integer(y)) => Ok(Float(x - *y as f64)),
            (
                Temporal(cypher_graph::Temporal::Duration(x)),
                Temporal(cypher_graph::Temporal::Duration(y)),
            ) => Ok(Temporal(cypher_graph::Temporal::Duration(
                x.plus(y.negate()),
            ))),
            (
                Temporal(cypher_graph::Temporal::Date(d)),
                Temporal(cypher_graph::Temporal::Duration(x)),
            ) => Ok(Temporal(cypher_graph::Temporal::Date(d.plus(x.negate())))),
            (
                Temporal(cypher_graph::Temporal::LocalDateTime(dt)),
                Temporal(cypher_graph::Temporal::Duration(x)),
            ) => Ok(Temporal(cypher_graph::Temporal::LocalDateTime(
                dt.plus(x.negate()),
            ))),
            (x, y) => err(format!(
                "cannot subtract {} from {}",
                y.type_name(),
                x.type_name()
            )),
        },
        ArithOp::Mul => match (a, b) {
            (Integer(x), Integer(y)) => x
                .checked_mul(*y)
                .map(Integer)
                .ok_or_else(|| EvalError::new("integer overflow in *")),
            (Float(x), Float(y)) => Ok(Float(x * y)),
            (Integer(x), Float(y)) => Ok(Float(*x as f64 * y)),
            (Float(x), Integer(y)) => Ok(Float(x * *y as f64)),
            (x, y) => err(format!(
                "cannot multiply {} and {}",
                x.type_name(),
                y.type_name()
            )),
        },
        ArithOp::Div => match (a, b) {
            (Integer(_), Integer(0)) => err("division by zero"),
            (Integer(x), Integer(y)) => Ok(Integer(x / y)),
            (Float(x), Float(y)) => Ok(Float(x / y)),
            (Integer(x), Float(y)) => Ok(Float(*x as f64 / y)),
            (Float(x), Integer(y)) => Ok(Float(x / *y as f64)),
            (x, y) => err(format!(
                "cannot divide {} by {}",
                x.type_name(),
                y.type_name()
            )),
        },
        ArithOp::Mod => match (a, b) {
            (Integer(_), Integer(0)) => err("modulo by zero"),
            (Integer(x), Integer(y)) => Ok(Integer(x % y)),
            (Float(x), Float(y)) => Ok(Float(x % y)),
            (Integer(x), Float(y)) => Ok(Float(*x as f64 % y)),
            (Float(x), Integer(y)) => Ok(Float(x % *y as f64)),
            (x, y) => err(format!(
                "cannot take {} mod {}",
                x.type_name(),
                y.type_name()
            )),
        },
        ArithOp::Pow => match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => Ok(Float(x.powf(y))),
            _ => err(format!(
                "cannot raise {} to {}",
                a.type_name(),
                b.type_name()
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalContext, Params};
    use cypher_graph::PropertyGraph;
    use cypher_parser::parse_expression;

    fn eval(src: &str) -> Result<Value, EvalError> {
        let g = PropertyGraph::new();
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let e = parse_expression(src).unwrap();
        eval_expr(&ctx, &NoVars, &e)
    }

    fn val(src: &str) -> Value {
        eval(src).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(val("1 + 2 * 3"), Value::int(7));
        assert_eq!(val("7 / 2"), Value::int(3)); // integer division
        assert_eq!(val("7.0 / 2"), Value::float(3.5));
        assert_eq!(val("7 % 3"), Value::int(1));
        assert_eq!(val("2 ^ 10"), Value::float(1024.0));
        assert_eq!(val("-(3)"), Value::int(-3));
        assert!(eval("1 / 0").is_err());
        assert!(eval("9223372036854775807 + 1").is_err());
    }

    #[test]
    fn null_propagation_in_arithmetic() {
        assert!(val("1 + null").is_null());
        assert!(val("null * 3").is_null());
        assert!(val("-null").is_null());
    }

    #[test]
    fn string_concat_and_predicates() {
        assert_eq!(val("'a' + 'b'"), Value::str("ab"));
        assert_eq!(val("'a' + 1"), Value::str("a1"));
        assert_eq!(val("'hello' STARTS WITH 'he'"), Value::Bool(true));
        assert_eq!(val("'hello' ENDS WITH 'lo'"), Value::Bool(true));
        assert_eq!(val("'hello' CONTAINS 'ell'"), Value::Bool(true));
        assert!(val("'hello' CONTAINS null").is_null());
        assert!(val("1 STARTS WITH 'x'").is_null());
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(val("true OR null"), Value::Bool(true));
        assert!(val("false OR null").is_null());
        assert_eq!(val("false AND null"), Value::Bool(false));
        assert!(val("true AND null").is_null());
        assert!(val("NOT null").is_null());
        assert!(val("true XOR null").is_null());
        assert_eq!(val("null IS NULL"), Value::Bool(true));
        assert_eq!(val("1 IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(val("1 < 2"), Value::Bool(true));
        assert_eq!(val("1 = 1.0"), Value::Bool(true));
        assert_eq!(val("1 <> 2"), Value::Bool(true));
        assert!(val("1 = null").is_null());
        assert!(val("1 < 'a'").is_null()); // incomparable
        assert_eq!(val("'a' < 'b'"), Value::Bool(true));
    }

    #[test]
    fn list_operations() {
        assert_eq!(val("[1, 2, 3][0]"), Value::int(1));
        assert_eq!(val("[1, 2, 3][-1]"), Value::int(3));
        assert!(val("[1, 2][5]").is_null());
        assert_eq!(
            val("[1, 2, 3, 4][1..3]"),
            Value::list([Value::int(2), Value::int(3)])
        );
        assert_eq!(
            val("[1, 2, 3][..2]"),
            Value::list([Value::int(1), Value::int(2)])
        );
        assert_eq!(val("[1, 2, 3][-2..]").to_string(), "[2, 3]");
        assert_eq!(val("2 IN [1, 2]"), Value::Bool(true));
        assert_eq!(val("5 IN [1, 2]"), Value::Bool(false));
        assert!(val("5 IN [1, null]").is_null());
        assert!(val("null IN [1]").is_null());
        assert_eq!(val("[1] + [2]").to_string(), "[1, 2]");
        assert_eq!(val("[1] + 2").to_string(), "[1, 2]");
    }

    #[test]
    fn map_literal_and_access() {
        assert_eq!(val("{a: 1, b: 'x'}.a"), Value::int(1));
        assert!(val("{a: 1}.missing").is_null());
        assert_eq!(val("{a: 1}['a']"), Value::int(1));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            val("CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END"),
            Value::str("yes")
        );
        assert_eq!(
            val("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"),
            Value::str("two")
        );
        assert!(val("CASE 9 WHEN 1 THEN 'one' END").is_null());
        // null scrutinee never matches a WHEN (null = x is null, not true).
        assert_eq!(
            val("CASE null WHEN null THEN 'n' ELSE 'e' END"),
            Value::str("e")
        );
    }

    #[test]
    fn comprehensions_and_quantifiers() {
        assert_eq!(
            val("[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]").to_string(),
            "[20, 40]"
        );
        assert_eq!(val("all(x IN [1,2] WHERE x > 0)"), Value::Bool(true));
        assert_eq!(val("any(x IN [1,2] WHERE x > 1)"), Value::Bool(true));
        assert_eq!(val("none(x IN [1,2] WHERE x > 5)"), Value::Bool(true));
        assert_eq!(val("single(x IN [1,2] WHERE x = 1)"), Value::Bool(true));
        assert_eq!(val("single(x IN [1,1] WHERE x = 1)"), Value::Bool(false));
        assert!(val("all(x IN [1, null] WHERE x > 0)").is_null());
        assert_eq!(val("any(x IN [null, 2] WHERE x > 1)"), Value::Bool(true));
        assert!(val("[x IN null | x]").is_null());
    }

    #[test]
    fn params_resolve() {
        let g = PropertyGraph::new();
        let mut params = Params::new();
        params.insert("d".into(), Value::int(5));
        let ctx = EvalContext::new(&g, &params);
        let e = parse_expression("$d * 2").unwrap();
        assert_eq!(eval_expr(&ctx, &NoVars, &e).unwrap(), Value::int(10));
        let missing = parse_expression("$nope").unwrap();
        assert!(eval_expr(&ctx, &NoVars, &missing).is_err());
    }

    #[test]
    fn undefined_variable_is_error() {
        assert!(eval("nosuchvar + 1").is_err());
    }

    #[test]
    fn property_on_node_and_null() {
        let mut g = PropertyGraph::new();
        let n = g.add_node(&["P"], [("name", Value::str("Ada"))]);
        let params = Params::new();
        let ctx = EvalContext::new(&g, &params);
        let schema = crate::Schema::new(vec!["n".into()]);
        let row = crate::Record::new(vec![Value::Node(n)]);
        let b = Bindings::new(&schema, &row);
        let e = parse_expression("n.name").unwrap();
        assert_eq!(eval_expr(&ctx, &b, &e).unwrap(), Value::str("Ada"));
        let e2 = parse_expression("n.missing").unwrap();
        assert!(eval_expr(&ctx, &b, &e2).unwrap().is_null());
        assert!(val("null.foo").is_null());
    }

    #[test]
    fn temporal_components_via_functions() {
        assert_eq!(val("date('2018-06-10').year"), Value::int(2018));
        assert_eq!(val("date('2018-06-10').month"), Value::int(6));
        assert_eq!(
            val("(localdatetime('2018-06-10T12:30:00') + duration('P1D')).day"),
            Value::int(11)
        );
        assert_eq!(
            val("duration('P1D') + duration('PT12H')").to_string(),
            "P1DT12H"
        );
    }
}
