//! The base function set `F` of the data model (paper Section 4.1: "we
//! assume a finite set F of predefined functions … the semantics is
//! parameterized by this set").
//!
//! Included are the functions used by the paper's examples (`collect` and
//! `labels` appear in Section 3 — `collect` is an aggregate and lives in
//! [`crate::aggregate`]) plus the standard openCypher scalar library and
//! the Cypher 10 temporal constructors.
//!
//! Naming note: openCypher spells the duration difference function
//! `duration.between(a, b)`; our grammar has no namespaced function names,
//! so it is exposed as `durationBetween(a, b)`.

use crate::error::{err, EvalError};
use crate::EvalContext;
use cypher_graph::{Date, Duration, LocalDateTime, LocalTime, Temporal, Value, ZonedDateTime};

fn arity(name: &str, args: &[Value], n: usize) -> Result<(), EvalError> {
    if args.len() == n {
        Ok(())
    } else {
        err(format!(
            "{name}() expects {n} argument(s), got {}",
            args.len()
        ))
    }
}

/// Applies a scalar function from `F` to evaluated arguments, which it
/// may move out of (`coalesce` takes its winner).
pub fn apply_function(
    ctx: &EvalContext<'_>,
    name: &str,
    args: &mut [Value],
) -> Result<Value, EvalError> {
    match name {
        // -- entity inspection ------------------------------------------------
        "id" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Node(n) => Ok(Value::int(n.0 as i64)),
                Value::Rel(r) => Ok(Value::int(r.0 as i64)),
                v => err(format!(
                    "id() requires a node or relationship, got {}",
                    v.type_name()
                )),
            }
        }
        "labels" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Node(n) => Ok(Value::List(
                    ctx.graph
                        .labels(*n)
                        .iter()
                        .map(|&l| Value::String(ctx.graph.interner().resolve_arc(l)))
                        .collect(),
                )),
                v => err(format!("labels() requires a node, got {}", v.type_name())),
            }
        }
        "type" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Rel(r) => {
                    let t = ctx
                        .graph
                        .rel_type(*r)
                        .ok_or_else(|| EvalError::new("dangling relationship"))?;
                    Ok(Value::String(ctx.graph.interner().resolve_arc(t)))
                }
                v => err(format!(
                    "type() requires a relationship, got {}",
                    v.type_name()
                )),
            }
        }
        "properties" => {
            arity(name, args, 1)?;
            let interner = ctx.graph.interner();
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Node(n) => Ok(Value::Map(
                    ctx.graph
                        .node_props(*n)
                        .map(|(k, v)| (interner.resolve_arc(k), v.clone()))
                        .collect(),
                )),
                Value::Rel(r) => Ok(Value::Map(
                    ctx.graph
                        .rel_props(*r)
                        .map(|(k, v)| (interner.resolve_arc(k), v.clone()))
                        .collect(),
                )),
                Value::Map(m) => Ok(Value::Map(m.clone())),
                v => err(format!("properties() does not apply to {}", v.type_name())),
            }
        }
        "keys" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Node(n) => Ok(Value::List(
                    ctx.graph
                        .node_props(*n)
                        .map(|(k, _)| Value::String(ctx.graph.interner().resolve_arc(k)))
                        .collect(),
                )),
                Value::Rel(r) => Ok(Value::List(
                    ctx.graph
                        .rel_props(*r)
                        .map(|(k, _)| Value::String(ctx.graph.interner().resolve_arc(k)))
                        .collect(),
                )),
                Value::Map(m) => Ok(Value::List(
                    m.keys().map(|k| Value::str(k.as_ref())).collect(),
                )),
                v => err(format!("keys() does not apply to {}", v.type_name())),
            }
        }
        "exists" => {
            arity(name, args, 1)?;
            Ok(Value::Bool(!args[0].is_null()))
        }
        "startnode" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Rel(r) => ctx
                    .graph
                    .src(*r)
                    .map(Value::Node)
                    .ok_or_else(|| EvalError::new("dangling relationship")),
                v => err(format!(
                    "startNode() requires a relationship, got {}",
                    v.type_name()
                )),
            }
        }
        "endnode" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Rel(r) => ctx
                    .graph
                    .tgt(*r)
                    .map(Value::Node)
                    .ok_or_else(|| EvalError::new("dangling relationship")),
                v => err(format!(
                    "endNode() requires a relationship, got {}",
                    v.type_name()
                )),
            }
        }
        // -- paths ------------------------------------------------------------
        "nodes" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Path(p) => Ok(Value::List(
                    p.nodes().into_iter().map(Value::Node).collect(),
                )),
                v => err(format!("nodes() requires a path, got {}", v.type_name())),
            }
        }
        "relationships" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Path(p) => Ok(Value::List(p.rels().into_iter().map(Value::Rel).collect())),
                v => err(format!(
                    "relationships() requires a path, got {}",
                    v.type_name()
                )),
            }
        }
        "length" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Path(p) => Ok(Value::int(p.len() as i64)),
                Value::List(items) => Ok(Value::int(items.len() as i64)),
                Value::String(s) => Ok(Value::int(s.chars().count() as i64)),
                v => err(format!("length() does not apply to {}", v.type_name())),
            }
        }
        // -- collections --------------------------------------------------------
        "size" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::List(items) => Ok(Value::int(items.len() as i64)),
                Value::String(s) => Ok(Value::int(s.chars().count() as i64)),
                Value::Map(m) => Ok(Value::int(m.len() as i64)),
                v => err(format!("size() does not apply to {}", v.type_name())),
            }
        }
        "head" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::List(items) => Ok(items.first().cloned().unwrap_or(Value::Null)),
                v => err(format!("head() requires a list, got {}", v.type_name())),
            }
        }
        "last" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::List(items) => Ok(items.last().cloned().unwrap_or(Value::Null)),
                v => err(format!("last() requires a list, got {}", v.type_name())),
            }
        }
        "tail" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::List(items) => Ok(Value::List(items.iter().skip(1).cloned().collect())),
                v => err(format!("tail() requires a list, got {}", v.type_name())),
            }
        }
        "reverse" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::List(items) => Ok(Value::List(items.iter().rev().cloned().collect())),
                Value::String(s) => Ok(Value::str(s.chars().rev().collect::<String>())),
                v => err(format!("reverse() does not apply to {}", v.type_name())),
            }
        }
        "range" => {
            if args.len() != 2 && args.len() != 3 {
                return err("range() expects 2 or 3 arguments");
            }
            let lo = int_arg("range", &args[0])?;
            let hi = int_arg("range", &args[1])?;
            let step = if args.len() == 3 {
                int_arg("range", &args[2])?
            } else {
                1
            };
            if step == 0 {
                return err("range() step must not be zero");
            }
            let mut out = Vec::new();
            let mut i = lo;
            if step > 0 {
                while i <= hi {
                    out.push(Value::int(i));
                    i += step;
                }
            } else {
                while i >= hi {
                    out.push(Value::int(i));
                    i += step;
                }
            }
            Ok(Value::List(out))
        }
        "coalesce" => Ok(args
            .iter_mut()
            .find(|v| !v.is_null())
            .map_or(Value::Null, |v| std::mem::replace(v, Value::Null))),
        // -- conversions ---------------------------------------------------------
        "tostring" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::String(s) => Ok(Value::str(s.as_ref())),
                v => Ok(Value::str(v.to_string())),
            }
        }
        "tointeger" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Integer(i) => Ok(Value::int(*i)),
                Value::Float(f) => Ok(Value::int(*f as i64)),
                Value::String(s) => Ok(s
                    .trim()
                    .parse::<i64>()
                    .map(Value::int)
                    .unwrap_or(Value::Null)),
                v => err(format!("toInteger() does not apply to {}", v.type_name())),
            }
        }
        "tofloat" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Integer(i) => Ok(Value::float(*i as f64)),
                Value::Float(f) => Ok(Value::float(*f)),
                Value::String(s) => Ok(s
                    .trim()
                    .parse::<f64>()
                    .map(Value::float)
                    .unwrap_or(Value::Null)),
                v => err(format!("toFloat() does not apply to {}", v.type_name())),
            }
        }
        "toboolean" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(*b)),
                Value::String(s) => match s.trim().to_ascii_lowercase().as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    _ => Ok(Value::Null),
                },
                v => err(format!("toBoolean() does not apply to {}", v.type_name())),
            }
        }
        // -- numeric ---------------------------------------------------------------
        "abs" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Integer(i) => Ok(Value::int(i.abs())),
                Value::Float(f) => Ok(Value::float(f.abs())),
                v => err(format!("abs() requires a number, got {}", v.type_name())),
            }
        }
        "sign" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Integer(i) => Ok(Value::int(i.signum())),
                Value::Float(f) => Ok(Value::int(if *f > 0.0 {
                    1
                } else if *f < 0.0 {
                    -1
                } else {
                    0
                })),
                v => err(format!("sign() requires a number, got {}", v.type_name())),
            }
        }
        "ceil" => float_fn(name, args, f64::ceil),
        "floor" => float_fn(name, args, f64::floor),
        "round" => float_fn(name, args, f64::round),
        "sqrt" => float_fn(name, args, f64::sqrt),
        "exp" => float_fn(name, args, f64::exp),
        "log" => float_fn(name, args, f64::ln),
        "log10" => float_fn(name, args, f64::log10),
        "sin" => float_fn(name, args, f64::sin),
        "cos" => float_fn(name, args, f64::cos),
        "tan" => float_fn(name, args, f64::tan),
        "pi" => {
            arity(name, args, 0)?;
            Ok(Value::float(std::f64::consts::PI))
        }
        // -- strings -----------------------------------------------------------------
        "toupper" => string_fn(name, args, |s| s.to_uppercase()),
        "tolower" => string_fn(name, args, |s| s.to_lowercase()),
        "trim" => string_fn(name, args, |s| s.trim().to_string()),
        "ltrim" => string_fn(name, args, |s| s.trim_start().to_string()),
        "rtrim" => string_fn(name, args, |s| s.trim_end().to_string()),
        "replace" => {
            arity(name, args, 3)?;
            match (&args[0], &args[1], &args[2]) {
                (Value::Null, _, _) | (_, Value::Null, _) | (_, _, Value::Null) => Ok(Value::Null),
                (Value::String(s), Value::String(find), Value::String(rep)) => {
                    Ok(Value::str(s.replace(find.as_ref(), rep)))
                }
                _ => err("replace() requires three strings"),
            }
        }
        "split" => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::String(s), Value::String(delim)) => Ok(Value::List(
                    s.split(delim.as_ref()).map(Value::str).collect(),
                )),
                _ => err("split() requires two strings"),
            }
        }
        "substring" => {
            if args.len() != 2 && args.len() != 3 {
                return err("substring() expects 2 or 3 arguments");
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = str_arg("substring", &args[0])?;
            let start = int_arg("substring", &args[1])?.max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = if args.len() == 3 {
                (start + int_arg("substring", &args[2])?.max(0) as usize).min(chars.len())
            } else {
                chars.len()
            };
            let start = start.min(chars.len());
            Ok(Value::str(chars[start..end].iter().collect::<String>()))
        }
        "left" => {
            arity(name, args, 2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = str_arg("left", &args[0])?;
            let n = int_arg("left", &args[1])?.max(0) as usize;
            Ok(Value::str(s.chars().take(n).collect::<String>()))
        }
        "right" => {
            arity(name, args, 2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = str_arg("right", &args[0])?;
            let n = int_arg("right", &args[1])?.max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let start = chars.len().saturating_sub(n);
            Ok(Value::str(chars[start..].iter().collect::<String>()))
        }
        // -- temporal (Cypher 10, paper §6) ------------------------------------------
        "date" => {
            arity(name, args, 1)?;
            temporal_ctor(&args[0], |s| Date::parse(s).map(Temporal::Date))
        }
        "localtime" => {
            arity(name, args, 1)?;
            temporal_ctor(&args[0], |s| LocalTime::parse(s).map(Temporal::LocalTime))
        }
        "localdatetime" => {
            arity(name, args, 1)?;
            temporal_ctor(&args[0], |s| {
                LocalDateTime::parse(s).map(Temporal::LocalDateTime)
            })
        }
        "datetime" => {
            arity(name, args, 1)?;
            temporal_ctor(&args[0], |s| {
                ZonedDateTime::parse(s).map(Temporal::DateTime)
            })
        }
        "duration" => {
            arity(name, args, 1)?;
            temporal_ctor(&args[0], |s| Duration::parse(s).map(Temporal::Duration))
        }
        "durationbetween" => {
            arity(name, args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Temporal(Temporal::Date(a)), Value::Temporal(Temporal::Date(b))) => Ok(
                    Value::Temporal(Temporal::Duration(Duration::between_dates(*a, *b))),
                ),
                (
                    Value::Temporal(Temporal::LocalDateTime(a)),
                    Value::Temporal(Temporal::LocalDateTime(b)),
                ) => Ok(Value::Temporal(Temporal::Duration(Duration::between(
                    *a, *b,
                )))),
                _ => err("durationBetween() requires two dates or two localdatetimes"),
            }
        }
        other => err(format!("unknown function: {other}()")),
    }
}

fn int_arg(name: &str, v: &Value) -> Result<i64, EvalError> {
    v.as_int().ok_or_else(|| {
        EvalError::new(format!(
            "{name}() requires an integer, got {}",
            v.type_name()
        ))
    })
}

fn str_arg<'a>(name: &str, v: &'a Value) -> Result<&'a str, EvalError> {
    v.as_str()
        .ok_or_else(|| EvalError::new(format!("{name}() requires a string, got {}", v.type_name())))
}

fn float_fn(name: &str, args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value, EvalError> {
    arity(name, args, 1)?;
    match &args[0] {
        Value::Null => Ok(Value::Null),
        v => match v.as_number() {
            Some(x) => Ok(Value::float(f(x))),
            None => err(format!("{name}() requires a number, got {}", v.type_name())),
        },
    }
}

fn string_fn(name: &str, args: &[Value], f: impl Fn(&str) -> String) -> Result<Value, EvalError> {
    arity(name, args, 1)?;
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::String(s) => Ok(Value::str(f(s))),
        v => err(format!("{name}() requires a string, got {}", v.type_name())),
    }
}

fn temporal_ctor(
    arg: &Value,
    parse: impl Fn(&str) -> Result<Temporal, cypher_graph::temporal::TemporalError>,
) -> Result<Value, EvalError> {
    match arg {
        Value::Null => Ok(Value::Null),
        Value::String(s) => parse(s)
            .map(Value::Temporal)
            .map_err(|e| EvalError::new(e.to_string())),
        Value::Temporal(t) => Ok(Value::Temporal(*t)),
        v => err(format!(
            "temporal constructor requires a string, got {}",
            v.type_name()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;
    use cypher_graph::PropertyGraph;

    fn ctx_graph() -> (PropertyGraph, Params) {
        let mut g = PropertyGraph::new();
        let a = g.add_node(&["Person", "Admin"], [("name", Value::str("Ada"))]);
        let b = g.add_node(&["Person"], []);
        g.add_rel(a, b, "KNOWS", [("since", Value::int(1985))])
            .unwrap();
        (g, Params::new())
    }

    fn call(g: &PropertyGraph, p: &Params, name: &str, mut args: Vec<Value>) -> Value {
        let ctx = EvalContext::new(g, p);
        apply_function(&ctx, name, &mut args).unwrap()
    }

    #[test]
    fn entity_functions() {
        let (g, p) = ctx_graph();
        let n = g.nodes().next().unwrap();
        let r = g.rels().next().unwrap();
        assert_eq!(call(&g, &p, "id", vec![Value::Node(n)]), Value::int(0));
        assert_eq!(
            call(&g, &p, "labels", vec![Value::Node(n)]).to_string(),
            "['Person', 'Admin']" // interning order
        );
        assert_eq!(
            call(&g, &p, "type", vec![Value::Rel(r)]),
            Value::str("KNOWS")
        );
        assert_eq!(
            call(&g, &p, "keys", vec![Value::Node(n)]).to_string(),
            "['name']"
        );
        assert_eq!(
            call(&g, &p, "properties", vec![Value::Rel(r)]).to_string(),
            "{since: 1985}"
        );
        assert_eq!(
            call(&g, &p, "startnode", vec![Value::Rel(r)]),
            Value::Node(n)
        );
    }

    #[test]
    fn collection_functions() {
        let (g, p) = ctx_graph();
        let l = Value::list([Value::int(1), Value::int(2), Value::int(3)]);
        assert_eq!(call(&g, &p, "size", vec![l.clone()]), Value::int(3));
        assert_eq!(call(&g, &p, "head", vec![l.clone()]), Value::int(1));
        assert_eq!(call(&g, &p, "last", vec![l.clone()]), Value::int(3));
        assert_eq!(call(&g, &p, "tail", vec![l.clone()]).to_string(), "[2, 3]");
        assert_eq!(
            call(&g, &p, "reverse", vec![l.clone()]).to_string(),
            "[3, 2, 1]"
        );
        assert_eq!(
            call(
                &g,
                &p,
                "range",
                vec![Value::int(1), Value::int(5), Value::int(2)]
            )
            .to_string(),
            "[1, 3, 5]"
        );
        assert_eq!(
            call(
                &g,
                &p,
                "range",
                vec![Value::int(3), Value::int(1), Value::int(-1)]
            )
            .to_string(),
            "[3, 2, 1]"
        );
        assert_eq!(
            call(
                &g,
                &p,
                "coalesce",
                vec![Value::Null, Value::int(7), Value::int(9)]
            ),
            Value::int(7)
        );
        assert_eq!(call(&g, &p, "head", vec![Value::List(vec![])]), Value::Null);
    }

    #[test]
    fn conversion_functions() {
        let (g, p) = ctx_graph();
        assert_eq!(
            call(&g, &p, "tostring", vec![Value::int(7)]),
            Value::str("7")
        );
        assert_eq!(
            call(&g, &p, "tointeger", vec![Value::str(" 42 ")]),
            Value::int(42)
        );
        assert_eq!(
            call(&g, &p, "tointeger", vec![Value::str("x")]),
            Value::Null
        );
        assert_eq!(
            call(&g, &p, "tofloat", vec![Value::str("2.5")]),
            Value::float(2.5)
        );
        assert_eq!(
            call(&g, &p, "toboolean", vec![Value::str("TRUE")]),
            Value::Bool(true)
        );
    }

    #[test]
    fn numeric_functions() {
        let (g, p) = ctx_graph();
        assert_eq!(call(&g, &p, "abs", vec![Value::int(-3)]), Value::int(3));
        assert_eq!(
            call(&g, &p, "sign", vec![Value::float(-0.5)]),
            Value::int(-1)
        );
        assert_eq!(
            call(&g, &p, "ceil", vec![Value::float(1.2)]),
            Value::float(2.0)
        );
        assert_eq!(call(&g, &p, "sqrt", vec![Value::int(9)]), Value::float(3.0));
        assert_eq!(call(&g, &p, "abs", vec![Value::Null]), Value::Null);
    }

    #[test]
    fn string_functions() {
        let (g, p) = ctx_graph();
        assert_eq!(
            call(&g, &p, "toupper", vec![Value::str("abc")]),
            Value::str("ABC")
        );
        assert_eq!(
            call(&g, &p, "trim", vec![Value::str("  x  ")]),
            Value::str("x")
        );
        assert_eq!(
            call(
                &g,
                &p,
                "replace",
                vec![Value::str("ababa"), Value::str("b"), Value::str("c")]
            ),
            Value::str("acaca")
        );
        assert_eq!(
            call(&g, &p, "split", vec![Value::str("a,b"), Value::str(",")]).to_string(),
            "['a', 'b']"
        );
        assert_eq!(
            call(
                &g,
                &p,
                "substring",
                vec![Value::str("hello"), Value::int(1), Value::int(3)]
            ),
            Value::str("ell")
        );
        assert_eq!(
            call(&g, &p, "left", vec![Value::str("hello"), Value::int(2)]),
            Value::str("he")
        );
        assert_eq!(
            call(&g, &p, "right", vec![Value::str("hello"), Value::int(2)]),
            Value::str("lo")
        );
    }

    #[test]
    fn temporal_constructors() {
        let (g, p) = ctx_graph();
        let d = call(&g, &p, "date", vec![Value::str("2018-06-10")]);
        assert_eq!(d.to_string(), "2018-06-10");
        let a = call(&g, &p, "date", vec![Value::str("2018-06-10")]);
        let b = call(&g, &p, "date", vec![Value::str("2018-06-15")]);
        let diff = call(&g, &p, "durationbetween", vec![a, b]);
        assert_eq!(diff.to_string(), "P5D");
    }

    #[test]
    fn unknown_function_is_error() {
        let (g, p) = ctx_graph();
        let ctx = EvalContext::new(&g, &p);
        assert!(apply_function(&ctx, "frobnicate", &mut []).is_err());
    }
}
