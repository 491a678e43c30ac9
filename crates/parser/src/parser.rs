//! Recursive-descent parser for the Cypher grammar of Figures 3 and 5 of
//! the paper, extended with the surface language of Sections 2–3 and 6:
//! updating clauses, `ORDER BY`/`SKIP`/`LIMIT`/`DISTINCT`, `CASE`,
//! list comprehensions, quantifiers, parameters, `UNION [ALL]` and the
//! Cypher 10 multigraph clauses.
//!
//! The parser is hand-written with one-token lookahead plus explicit
//! backtracking for the two genuinely ambiguous spots of the grammar:
//! parenthesized expressions vs. pattern predicates, and list literals vs.
//! list comprehensions.

use crate::lexer::{lex, Spanned, Token};
use cypher_ast::expr::{ArithOp, CmpOp, Expr, Literal, Quantifier};
use cypher_ast::pattern::{Dir, NodePattern, PathPattern, RangeSpec, RelPattern};
use cypher_ast::query::{
    Clause, Query, RemoveItem, Return, ReturnItem, SetItem, SingleQuery, SortItem,
};
use std::fmt;

/// A parse failure with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based line (0 when at end of input).
    pub line: u32,
    /// 1-based column (0 when at end of input).
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete Cypher query.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.eat_tok(&Token::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

/// Parses a standalone expression (used by tests and the TCK runner).
pub fn parse_expression(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a standalone path pattern (Figure 3).
pub fn parse_pattern(src: &str) -> Result<PathPattern, ParseError> {
    let mut p = Parser::new(src)?;
    let pat = p.path_pattern()?;
    p.expect_eof()?;
    Ok(pat)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let toks = lex(src).map_err(|e| ParseError {
            msg: e.msg,
            line: e.line,
            col: e.col,
        })?;
        Ok(Parser { toks, pos: 0 })
    }

    // -- primitives ---------------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.toks.get(self.pos + off).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0));
        ParseError {
            msg: msg.into(),
            line,
            col,
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos < self.toks.len() {
            Err(self.error(format!(
                "unexpected trailing input starting at '{}'",
                self.toks[self.pos].tok
            )))
        } else {
            Ok(())
        }
    }

    fn check_tok(&self, t: &Token) -> bool {
        self.peek() == Some(t)
    }

    fn eat_tok(&mut self, t: &Token) -> bool {
        if self.check_tok(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{t}', found {}",
                self.peek()
                    .map(|x| x.to_string())
                    .unwrap_or("end of input".into())
            )))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn at_kw_at(&self, off: usize, kw: &str) -> bool {
        matches!(self.peek_at(off), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected keyword {kw}, found {}",
                self.peek()
                    .map(|x| x.to_string())
                    .unwrap_or("end of input".into())
            )))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!(
                "expected identifier, found {}",
                self.peek()
                    .map(|x| x.to_string())
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    // -- queries ------------------------------------------------------------

    fn query(&mut self) -> Result<Query, ParseError> {
        let mut q = Query::Single(self.single_query()?);
        while self.at_kw("UNION") {
            self.bump();
            let all = self.eat_kw("ALL");
            let rhs = Query::Single(self.single_query()?);
            q = Query::Union {
                all,
                left: Box::new(q),
                right: Box::new(rhs),
            };
        }
        Ok(q)
    }

    fn single_query(&mut self) -> Result<SingleQuery, ParseError> {
        let mut clauses = Vec::new();
        let mut ret = None;
        let mut ret_graph = None;
        loop {
            if self.at_kw("MATCH") || (self.at_kw("OPTIONAL") && self.at_kw_at(1, "MATCH")) {
                let optional = self.eat_kw("OPTIONAL");
                self.expect_kw("MATCH")?;
                let patterns = self.pattern_list()?;
                let where_ = if self.eat_kw("WHERE") {
                    Some(self.expr()?)
                } else {
                    None
                };
                clauses.push(Clause::Match {
                    optional,
                    patterns,
                    where_,
                });
            } else if self.at_kw("WITH") {
                self.bump();
                let r = self.return_body()?;
                let where_ = if self.eat_kw("WHERE") {
                    Some(self.expr()?)
                } else {
                    None
                };
                clauses.push(Clause::With { ret: r, where_ });
            } else if self.at_kw("UNWIND") {
                self.bump();
                let expr = self.expr()?;
                self.expect_kw("AS")?;
                let alias = self.ident()?;
                clauses.push(Clause::Unwind { expr, alias });
            } else if self.at_kw("CREATE") {
                self.bump();
                let patterns = self.pattern_list()?;
                clauses.push(Clause::Create { patterns });
            } else if self.at_kw("MERGE") {
                self.bump();
                let pattern = self.path_pattern()?;
                let mut on_create = Vec::new();
                let mut on_match = Vec::new();
                while self.at_kw("ON") {
                    self.bump();
                    if self.eat_kw("CREATE") {
                        self.expect_kw("SET")?;
                        on_create.extend(self.set_items()?);
                    } else if self.eat_kw("MATCH") {
                        self.expect_kw("SET")?;
                        on_match.extend(self.set_items()?);
                    } else {
                        return Err(self.error("expected CREATE or MATCH after ON"));
                    }
                }
                clauses.push(Clause::Merge {
                    pattern,
                    on_create,
                    on_match,
                });
            } else if self.at_kw("DETACH") || self.at_kw("DELETE") {
                let detach = self.eat_kw("DETACH");
                self.expect_kw("DELETE")?;
                let mut exprs = vec![self.expr()?];
                while self.eat_tok(&Token::Comma) {
                    exprs.push(self.expr()?);
                }
                clauses.push(Clause::Delete { detach, exprs });
            } else if self.at_kw("SET") {
                self.bump();
                let items = self.set_items()?;
                clauses.push(Clause::Set { items });
            } else if self.at_kw("REMOVE") {
                self.bump();
                let mut items = vec![self.remove_item()?];
                while self.eat_tok(&Token::Comma) {
                    items.push(self.remove_item()?);
                }
                clauses.push(Clause::Remove { items });
            } else if self.at_kw("FROM") {
                self.bump();
                self.expect_kw("GRAPH")?;
                let name = self.ident()?;
                let at = if self.eat_kw("AT") {
                    match self.bump() {
                        Some(Token::Str(s)) => Some(s),
                        _ => return Err(self.error("expected string after AT")),
                    }
                } else {
                    None
                };
                clauses.push(Clause::FromGraph { name, at });
            } else if self.at_kw("RETURN") {
                self.bump();
                if self.at_kw("GRAPH") {
                    self.bump();
                    let name = self.ident()?;
                    self.expect_kw("OF")?;
                    let pats = self.pattern_list()?;
                    ret_graph = Some((name, pats));
                } else {
                    ret = Some(self.return_body()?);
                }
                break;
            } else {
                break;
            }
        }
        if clauses.is_empty() && ret.is_none() && ret_graph.is_none() {
            return Err(self.error("expected a clause"));
        }
        Ok(SingleQuery {
            clauses,
            ret,
            ret_graph,
        })
    }

    fn return_body(&mut self) -> Result<Return, ParseError> {
        let distinct = self.eat_kw("DISTINCT");
        let mut star = false;
        let mut items = Vec::new();
        if self.eat_tok(&Token::Star) {
            star = true;
            while self.eat_tok(&Token::Comma) {
                items.push(self.return_item()?);
            }
        } else {
            items.push(self.return_item()?);
            while self.eat_tok(&Token::Comma) {
                items.push(self.return_item()?);
            }
        }
        let mut order_by = Vec::new();
        if self.at_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("DESC") || self.eat_kw("DESCENDING") {
                    false
                } else {
                    self.eat_kw("ASC");
                    self.eat_kw("ASCENDING");
                    true
                };
                order_by.push(SortItem { expr, ascending });
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let skip = if self.eat_kw("SKIP") {
            Some(self.expr()?)
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Return {
            distinct,
            star,
            items,
            order_by,
            skip,
            limit,
        })
    }

    fn return_item(&mut self) -> Result<ReturnItem, ParseError> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(ReturnItem { expr, alias })
    }

    fn set_items(&mut self) -> Result<Vec<SetItem>, ParseError> {
        let mut items = vec![self.set_item()?];
        while self.eat_tok(&Token::Comma) {
            items.push(self.set_item()?);
        }
        Ok(items)
    }

    fn set_item(&mut self) -> Result<SetItem, ParseError> {
        // `a:Label...` form.
        if matches!(self.peek(), Some(Token::Ident(_))) && self.peek_at(1) == Some(&Token::Colon) {
            let var = self.ident()?;
            let mut labels = Vec::new();
            while self.eat_tok(&Token::Colon) {
                labels.push(self.ident()?);
            }
            return Ok(SetItem::Labels(var, labels));
        }
        let target = self.postfix_expr()?;
        match (&target, self.peek()) {
            (Expr::Prop(base, key), Some(Token::Eq)) => {
                let (base, key) = ((**base).clone(), key.clone());
                self.bump();
                let value = self.expr()?;
                Ok(SetItem::Prop(base, key, value))
            }
            (Expr::Var(a), Some(Token::Eq)) => {
                let a = a.clone();
                self.bump();
                let value = self.expr()?;
                Ok(SetItem::Replace(a, value))
            }
            (Expr::Var(a), Some(Token::PlusEq)) => {
                let a = a.clone();
                self.bump();
                let value = self.expr()?;
                Ok(SetItem::Merge(a, value))
            }
            _ => Err(self.error("invalid SET item")),
        }
    }

    fn remove_item(&mut self) -> Result<RemoveItem, ParseError> {
        if matches!(self.peek(), Some(Token::Ident(_))) && self.peek_at(1) == Some(&Token::Colon) {
            let var = self.ident()?;
            let mut labels = Vec::new();
            while self.eat_tok(&Token::Colon) {
                labels.push(self.ident()?);
            }
            return Ok(RemoveItem::Labels(var, labels));
        }
        let target = self.postfix_expr()?;
        match target {
            Expr::Prop(base, key) => Ok(RemoveItem::Prop(*base, key)),
            _ => Err(self.error("invalid REMOVE item")),
        }
    }

    // -- patterns (Figure 3) -------------------------------------------------

    fn pattern_list(&mut self) -> Result<Vec<PathPattern>, ParseError> {
        let mut pats = vec![self.path_pattern()?];
        while self.eat_tok(&Token::Comma) {
            pats.push(self.path_pattern()?);
        }
        Ok(pats)
    }

    fn path_pattern(&mut self) -> Result<PathPattern, ParseError> {
        // `a = pattern` — one-token lookahead for `Ident =`.
        let name = if matches!(self.peek(), Some(Token::Ident(_)))
            && self.peek_at(1) == Some(&Token::Eq)
        {
            let n = self.ident()?;
            self.bump(); // '='
            Some(n)
        } else {
            None
        };
        let start = self.node_pattern()?;
        let mut steps = Vec::new();
        while matches!(self.peek(), Some(Token::Dash) | Some(Token::Lt)) {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            steps.push((rel, node));
        }
        Ok(PathPattern { name, start, steps })
    }

    fn node_pattern(&mut self) -> Result<NodePattern, ParseError> {
        self.expect_tok(&Token::LParen)?;
        let name = if matches!(self.peek(), Some(Token::Ident(_))) {
            Some(self.ident()?)
        } else {
            None
        };
        let mut labels = Vec::new();
        while self.eat_tok(&Token::Colon) {
            labels.push(self.ident()?);
        }
        let props = if self.check_tok(&Token::LBrace) {
            self.prop_map()?
        } else {
            Vec::new()
        };
        self.expect_tok(&Token::RParen)?;
        Ok(NodePattern {
            name,
            labels,
            props,
        })
    }

    fn rel_pattern(&mut self) -> Result<RelPattern, ParseError> {
        // Three shapes: `<-[…]-`, `-[…]->`, `-[…]-` (body optional).
        let leading_lt = self.eat_tok(&Token::Lt);
        self.expect_tok(&Token::Dash)?;
        let mut rel = RelPattern::any(Dir::Both);
        if self.eat_tok(&Token::LBracket) {
            if matches!(self.peek(), Some(Token::Ident(_))) {
                rel.name = Some(self.ident()?);
            }
            if self.eat_tok(&Token::Colon) {
                rel.types.push(self.ident()?);
                while self.eat_tok(&Token::Pipe) {
                    self.eat_tok(&Token::Colon); // both `|T` and `|:T` accepted
                    rel.types.push(self.ident()?);
                }
            }
            if self.eat_tok(&Token::Star) {
                rel.range = self.range_spec()?;
            }
            if self.check_tok(&Token::LBrace) {
                rel.props = self.prop_map()?;
            }
            self.expect_tok(&Token::RBracket)?;
        }
        self.expect_tok(&Token::Dash)?;
        let trailing_gt = self.eat_tok(&Token::Gt);
        rel.dir = match (leading_lt, trailing_gt) {
            (true, false) => Dir::In,
            (false, true) => Dir::Out,
            (false, false) => Dir::Both,
            (true, true) => return Err(self.error("relationship pattern cannot point both ways")),
        };
        Ok(rel)
    }

    fn range_spec(&mut self) -> Result<RangeSpec, ParseError> {
        // After `*`: `∗`, `∗d`, `∗d1..`, `∗..d2`, `∗d1..d2` (Figure 3).
        let lo = if let Some(Token::Int(i)) = self.peek() {
            let v = *i;
            self.bump();
            Some(u64::try_from(v).map_err(|_| self.error("negative range bound"))?)
        } else {
            None
        };
        if self.eat_tok(&Token::DotDot) {
            let hi = if let Some(Token::Int(i)) = self.peek() {
                let v = *i;
                self.bump();
                Some(u64::try_from(v).map_err(|_| self.error("negative range bound"))?)
            } else {
                None
            };
            Ok(RangeSpec::Var(lo, hi))
        } else {
            // `*d` means exactly d; bare `*` means unbounded.
            match lo {
                Some(d) => Ok(RangeSpec::Var(Some(d), Some(d))),
                None => Ok(RangeSpec::Var(None, None)),
            }
        }
    }

    fn prop_map(&mut self) -> Result<Vec<(String, Expr)>, ParseError> {
        self.expect_tok(&Token::LBrace)?;
        let mut props = Vec::new();
        if !self.check_tok(&Token::RBrace) {
            loop {
                let key = self.ident()?;
                self.expect_tok(&Token::Colon)?;
                let value = self.expr()?;
                props.push((key, value));
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_tok(&Token::RBrace)?;
        Ok(props)
    }

    // -- expressions (Figure 5) -----------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.xor_expr()?;
        while self.at_kw("OR") {
            self.bump();
            let rhs = self.xor_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn xor_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("XOR") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.at_kw("AND") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at_kw("NOT") {
            self.bump();
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison_expr()
    }

    fn comparison_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Eq) => Some(CmpOp::Eq),
                Some(Token::Neq) => Some(CmpOp::Neq),
                Some(Token::Lt) => Some(CmpOp::Lt),
                Some(Token::Le) => Some(CmpOp::Le),
                Some(Token::Gt) => Some(CmpOp::Gt),
                Some(Token::Ge) => Some(CmpOp::Ge),
                _ => None,
            };
            if let Some(op) = op {
                self.bump();
                let rhs = self.add_expr()?;
                lhs = Expr::Cmp(op, Box::new(lhs), Box::new(rhs));
                continue;
            }
            if self.at_kw("IN") {
                self.bump();
                let rhs = self.add_expr()?;
                lhs = Expr::In(Box::new(lhs), Box::new(rhs));
                continue;
            }
            if self.at_kw("STARTS") {
                self.bump();
                self.expect_kw("WITH")?;
                let rhs = self.add_expr()?;
                lhs = Expr::StartsWith(Box::new(lhs), Box::new(rhs));
                continue;
            }
            if self.at_kw("ENDS") {
                self.bump();
                self.expect_kw("WITH")?;
                let rhs = self.add_expr()?;
                lhs = Expr::EndsWith(Box::new(lhs), Box::new(rhs));
                continue;
            }
            if self.at_kw("CONTAINS") {
                self.bump();
                let rhs = self.add_expr()?;
                lhs = Expr::Contains(Box::new(lhs), Box::new(rhs));
                continue;
            }
            if self.at_kw("IS") {
                self.bump();
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    lhs = Expr::IsNotNull(Box::new(lhs));
                } else {
                    self.expect_kw("NULL")?;
                    lhs = Expr::IsNull(Box::new(lhs));
                }
                continue;
            }
            return Ok(lhs);
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Dash) => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.pow_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                Some(Token::Percent) => ArithOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.pow_expr()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.unary_expr()?;
        if self.eat_tok(&Token::Caret) {
            // Right-associative.
            let rhs = self.pow_expr()?;
            return Ok(Expr::Arith(ArithOp::Pow, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_tok(&Token::Dash) {
            let inner = self.unary_expr()?;
            // Fold negative numeric literals so that `-1` is the literal
            // −1 (keeps render/parse round-trips stable).
            return Ok(match inner {
                Expr::Lit(Literal::Integer(i)) => Expr::Lit(Literal::Integer(-i)),
                Expr::Lit(Literal::Float(f)) => Expr::Lit(Literal::Float(-f)),
                other => Expr::Neg(Box::new(other)),
            });
        }
        if self.eat_tok(&Token::Plus) {
            return self.unary_expr();
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            if self.check_tok(&Token::Dot) {
                self.bump();
                let key = self.ident()?;
                e = Expr::Prop(Box::new(e), key);
                continue;
            }
            if self.check_tok(&Token::LBracket) {
                self.bump();
                // `e[..hi]`, `e[lo..]`, `e[lo..hi]`, `e[idx]`.
                if self.eat_tok(&Token::DotDot) {
                    let hi = if self.check_tok(&Token::RBracket) {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect_tok(&Token::RBracket)?;
                    e = Expr::Slice(Box::new(e), None, hi);
                    continue;
                }
                let first = self.expr()?;
                if self.eat_tok(&Token::DotDot) {
                    let hi = if self.check_tok(&Token::RBracket) {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect_tok(&Token::RBracket)?;
                    e = Expr::Slice(Box::new(e), Some(Box::new(first)), hi);
                } else {
                    self.expect_tok(&Token::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(first));
                }
                continue;
            }
            // Label predicate in expression position (`pInfo:SSN`), only
            // after a plain variable so map keys and pattern syntax are
            // unaffected.
            if self.check_tok(&Token::Colon) && matches!(e, Expr::Var(_)) {
                let mut labels = Vec::new();
                while self.eat_tok(&Token::Colon) {
                    labels.push(self.ident()?);
                }
                e = Expr::HasLabels(Box::new(e), labels);
                continue;
            }
            return Ok(e);
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.bump();
                Ok(Expr::Lit(Literal::Integer(i)))
            }
            Some(Token::Float(x)) => {
                self.bump();
                Ok(Expr::Lit(Literal::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Expr::Lit(Literal::String(s.into())))
            }
            Some(Token::Dollar) => {
                self.bump();
                match self.bump() {
                    Some(Token::Ident(s)) => Ok(Expr::Param(s)),
                    Some(Token::Int(i)) => Ok(Expr::Param(i.to_string())),
                    _ => Err(self.error("expected parameter name after $")),
                }
            }
            Some(Token::LBrace) => {
                let props = self.prop_map()?;
                Ok(Expr::Map(props))
            }
            Some(Token::LBracket) => self.list_or_comprehension(),
            Some(Token::LParen) => self.paren_or_pattern(),
            Some(Token::Ident(id)) => {
                if id.eq_ignore_ascii_case("true") {
                    self.bump();
                    return Ok(Expr::Lit(Literal::Bool(true)));
                }
                if id.eq_ignore_ascii_case("false") {
                    self.bump();
                    return Ok(Expr::Lit(Literal::Bool(false)));
                }
                if id.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(Expr::Lit(Literal::Null));
                }
                if id.eq_ignore_ascii_case("case") {
                    return self.case_expr();
                }
                // Quantifiers: all/any/none/single(var IN list WHERE pred).
                let quant = match id.to_ascii_lowercase().as_str() {
                    "all" => Some(Quantifier::All),
                    "any" => Some(Quantifier::Any),
                    "none" => Some(Quantifier::None),
                    "single" => Some(Quantifier::Single),
                    _ => None,
                };
                if let Some(q) = quant {
                    if self.peek_at(1) == Some(&Token::LParen)
                        && matches!(self.peek_at(2), Some(Token::Ident(_)))
                        && self.at_kw_at(3, "IN")
                    {
                        self.bump(); // name
                        self.bump(); // (
                        let var = self.ident()?;
                        self.expect_kw("IN")?;
                        let list = self.expr()?;
                        self.expect_kw("WHERE")?;
                        let pred = self.expr()?;
                        self.expect_tok(&Token::RParen)?;
                        return Ok(Expr::Quantified {
                            q,
                            var,
                            list: Box::new(list),
                            pred: Box::new(pred),
                        });
                    }
                }
                if self.peek_at(1) == Some(&Token::LParen) {
                    return self.fn_call();
                }
                self.bump();
                Ok(Expr::Var(id))
            }
            other => Err(self.error(format!(
                "expected expression, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    fn fn_call(&mut self) -> Result<Expr, ParseError> {
        let name = self.ident()?.to_ascii_lowercase();
        self.expect_tok(&Token::LParen)?;
        if name == "count" && self.eat_tok(&Token::Star) {
            self.expect_tok(&Token::RParen)?;
            return Ok(Expr::CountStar);
        }
        let distinct = self.eat_kw("DISTINCT");
        let mut args = Vec::new();
        if !self.check_tok(&Token::RParen) {
            args.push(self.expr()?);
            while self.eat_tok(&Token::Comma) {
                args.push(self.expr()?);
            }
        }
        self.expect_tok(&Token::RParen)?;
        Ok(Expr::FnCall {
            name,
            args,
            distinct,
        })
    }

    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("CASE")?;
        let input = if self.at_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut whens = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.expr()?;
            self.expect_kw("THEN")?;
            let t = self.expr()?;
            whens.push((w, t));
        }
        if whens.is_empty() {
            return Err(self.error("CASE requires at least one WHEN"));
        }
        let else_ = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            input,
            whens,
            else_,
        })
    }

    fn list_or_comprehension(&mut self) -> Result<Expr, ParseError> {
        self.expect_tok(&Token::LBracket)?;
        if self.check_tok(&Token::RBracket) {
            self.bump();
            return Ok(Expr::List(Vec::new()));
        }
        // `[(a)-[:X]->(b) WHERE … | body]` is a pattern comprehension:
        // recognized by a path pattern with at least one step followed by
        // WHERE or `|` (a body is mandatory).
        if self.check_tok(&Token::LParen) {
            let save = self.pos;
            if let Ok(pat) = self.path_pattern() {
                if !pat.steps.is_empty() && (self.at_kw("WHERE") || self.check_tok(&Token::Pipe)) {
                    let filter = if self.eat_kw("WHERE") {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    self.expect_tok(&Token::Pipe)?;
                    let body = Box::new(self.expr()?);
                    self.expect_tok(&Token::RBracket)?;
                    return Ok(Expr::PatternComprehension {
                        pattern: Box::new(pat),
                        filter,
                        body,
                    });
                }
            }
            self.pos = save;
        }
        // `[x IN list …]` is a comprehension.
        if matches!(self.peek(), Some(Token::Ident(_))) && self.at_kw_at(1, "IN") {
            let var = self.ident()?;
            self.expect_kw("IN")?;
            let list = self.expr()?;
            let filter = if self.eat_kw("WHERE") {
                Some(Box::new(self.expr()?))
            } else {
                None
            };
            let body = if self.eat_tok(&Token::Pipe) {
                Some(Box::new(self.expr()?))
            } else {
                None
            };
            self.expect_tok(&Token::RBracket)?;
            return Ok(Expr::ListComprehension {
                var,
                list: Box::new(list),
                filter,
                body,
            });
        }
        let mut items = vec![self.expr()?];
        while self.eat_tok(&Token::Comma) {
            items.push(self.expr()?);
        }
        self.expect_tok(&Token::RBracket)?;
        Ok(Expr::List(items))
    }

    fn paren_or_pattern(&mut self) -> Result<Expr, ParseError> {
        // Ambiguity: `( … )` may open a parenthesized expression or a
        // pattern predicate like `(a)-[:KNOWS]->(b)`. Try the pattern
        // first; accept it only if it has at least one relationship step
        // (a bare `(x)` is the variable `x`).
        let save = self.pos;
        if let Ok(pat) = self.path_pattern() {
            if !pat.steps.is_empty() {
                return Ok(Expr::PatternPredicate(Box::new(pat)));
            }
        }
        self.pos = save;
        self.expect_tok(&Token::LParen)?;
        let e = self.expr()?;
        self.expect_tok(&Token::RParen)?;
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_section3_query() {
        let q = parse_query(
            "MATCH (r:Researcher)
             OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
             WITH r, count(s) AS studentsSupervised
             MATCH (r)-[:AUTHORS]->(p1:Publication)
             OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication)
             RETURN r.name, studentsSupervised,
                    count(DISTINCT p2) AS citedCount",
        )
        .unwrap();
        let Query::Single(sq) = q else {
            panic!("expected single query")
        };
        assert_eq!(sq.clauses.len(), 5);
        let ret = sq.ret.unwrap();
        assert_eq!(ret.items.len(), 3);
        assert_eq!(ret.items[2].alias.as_deref(), Some("citedCount"));
        match &ret.items[2].expr {
            Expr::FnCall {
                name,
                distinct,
                args,
            } => {
                assert_eq!(name, "count");
                assert!(*distinct);
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected expr {other:?}"),
        }
    }

    #[test]
    fn parse_variable_length_patterns() {
        let p = parse_pattern("(x:Teacher)-[:KNOWS*1..2]->(z)-[:KNOWS*1..2]->(y:Teacher)").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].0.range, RangeSpec::Var(Some(1), Some(2)));
        let p2 = parse_pattern("(x)-[*0..]->(x)").unwrap();
        assert_eq!(p2.steps[0].0.range, RangeSpec::Var(Some(0), None));
        let p3 = parse_pattern("(a)-[:KNOWS*2]->(b)").unwrap();
        assert_eq!(p3.steps[0].0.range, RangeSpec::Var(Some(2), Some(2)));
        let p4 = parse_pattern("(a)-[r*]->(b)").unwrap();
        assert_eq!(p4.steps[0].0.range, RangeSpec::Var(None, None));
        assert_eq!(p4.steps[0].0.name.as_deref(), Some("r"));
    }

    #[test]
    fn rel_pattern_equivalences_from_paper() {
        // §4.2: `-[:KNOWS*1 {since: 1985}]-` and `-[:KNOWS*1..1 {since:
        // 1985}]-` denote the same pattern.
        let a = parse_pattern("()-[:KNOWS*1 {since: 1985}]-()").unwrap();
        let b = parse_pattern("()-[:KNOWS*1..1 {since: 1985}]-()").unwrap();
        assert_eq!(a.steps[0].0, b.steps[0].0);
        // While `-[:KNOWS {since: 1985}]-` has I = nil.
        let c = parse_pattern("()-[:KNOWS {since: 1985}]-()").unwrap();
        assert_eq!(c.steps[0].0.range, RangeSpec::None);
        assert_ne!(a.steps[0].0, c.steps[0].0);
    }

    #[test]
    fn directions() {
        let p = parse_pattern("(a)-->(b)<--(c)--(d)").unwrap();
        assert_eq!(p.steps[0].0.dir, Dir::Out);
        assert_eq!(p.steps[1].0.dir, Dir::In);
        assert_eq!(p.steps[2].0.dir, Dir::Both);
    }

    #[test]
    fn named_path() {
        let p = parse_pattern("p = (a)-[:X]->(b)").unwrap();
        assert_eq!(p.name.as_deref(), Some("p"));
    }

    #[test]
    fn multiple_types() {
        let p = parse_pattern("(a)-[:A|B|C]->(b)").unwrap();
        assert_eq!(p.steps[0].0.types, vec!["A", "B", "C"]);
        let p2 = parse_pattern("(a)-[:A|:B]->(b)").unwrap();
        assert_eq!(p2.steps[0].0.types, vec!["A", "B"]);
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::int(1)),
                Box::new(Expr::Arith(
                    ArithOp::Mul,
                    Box::new(Expr::int(2)),
                    Box::new(Expr::int(3))
                ))
            )
        );
        // NOT binds tighter than AND; AND tighter than OR.
        let e2 = parse_expression("NOT a AND b OR c").unwrap();
        assert_eq!(
            e2,
            Expr::Or(
                Box::new(Expr::And(
                    Box::new(Expr::Not(Box::new(Expr::var("a")))),
                    Box::new(Expr::var("b"))
                )),
                Box::new(Expr::var("c"))
            )
        );
        // Power is right-associative.
        let e3 = parse_expression("2 ^ 3 ^ 2").unwrap();
        assert_eq!(
            e3,
            Expr::Arith(
                ArithOp::Pow,
                Box::new(Expr::int(2)),
                Box::new(Expr::Arith(
                    ArithOp::Pow,
                    Box::new(Expr::int(3)),
                    Box::new(Expr::int(2))
                ))
            )
        );
    }

    #[test]
    fn string_operators() {
        let e = parse_expression("n.name STARTS WITH 'N' AND n.name CONTAINS 'il'").unwrap();
        match e {
            Expr::And(a, b) => {
                assert!(matches!(*a, Expr::StartsWith(_, _)));
                assert!(matches!(*b, Expr::Contains(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn list_operations() {
        assert!(matches!(
            parse_expression("[1, 2, 3]").unwrap(),
            Expr::List(v) if v.len() == 3
        ));
        assert!(matches!(
            parse_expression("x IN [1, 2]").unwrap(),
            Expr::In(_, _)
        ));
        assert!(matches!(
            parse_expression("xs[0]").unwrap(),
            Expr::Index(_, _)
        ));
        assert!(matches!(
            parse_expression("xs[1..3]").unwrap(),
            Expr::Slice(_, Some(_), Some(_))
        ));
        assert!(matches!(
            parse_expression("xs[..3]").unwrap(),
            Expr::Slice(_, None, Some(_))
        ));
        assert!(matches!(
            parse_expression("xs[1..]").unwrap(),
            Expr::Slice(_, Some(_), None)
        ));
    }

    #[test]
    fn list_comprehension() {
        let e = parse_expression("[x IN range(1, 10) WHERE x % 2 = 0 | x * x]").unwrap();
        match e {
            Expr::ListComprehension {
                var, filter, body, ..
            } => {
                assert_eq!(var, "x");
                assert!(filter.is_some());
                assert!(body.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantifiers() {
        let e = parse_expression("all(x IN xs WHERE x > 0)").unwrap();
        assert!(matches!(
            e,
            Expr::Quantified {
                q: Quantifier::All,
                ..
            }
        ));
        // `none` used as a plain function still parses as a call.
        let e2 = parse_expression("none(xs)").unwrap();
        assert!(matches!(e2, Expr::FnCall { .. }));
    }

    #[test]
    fn case_expressions() {
        let e = parse_expression("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END").unwrap();
        assert!(matches!(e, Expr::Case { input: None, .. }));
        let e2 = parse_expression("CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").unwrap();
        match e2 {
            Expr::Case {
                input,
                whens,
                else_,
            } => {
                assert!(input.is_some());
                assert_eq!(whens.len(), 2);
                assert!(else_.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pattern_predicate_in_where() {
        let q = parse_query("MATCH (a), (b) WHERE (a)-[:KNOWS]->(b) RETURN a").unwrap();
        let Query::Single(sq) = q else { panic!() };
        let Clause::Match { where_, .. } = &sq.clauses[0] else {
            panic!()
        };
        assert!(matches!(where_, Some(Expr::PatternPredicate(_))));
    }

    #[test]
    fn parenthesized_expression_not_pattern() {
        let e = parse_expression("(1 + 2) * 3").unwrap();
        assert!(matches!(e, Expr::Arith(ArithOp::Mul, _, _)));
        let e2 = parse_expression("(x)").unwrap();
        assert_eq!(e2, Expr::var("x"));
    }

    #[test]
    fn label_predicate_expression() {
        // From the paper's fraud query: WHERE pInfo:SSN OR pInfo:PhoneNumber.
        let e = parse_expression("pInfo:SSN OR pInfo:PhoneNumber").unwrap();
        match e {
            Expr::Or(a, _) => match *a {
                Expr::HasLabels(v, ls) => {
                    assert_eq!(*v, Expr::var("pInfo"));
                    assert_eq!(ls, vec!["SSN"]);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_queries() {
        let q = parse_query("RETURN 1 AS x UNION RETURN 2 AS x UNION ALL RETURN 3 AS x").unwrap();
        let Query::Union { all, left, .. } = q else {
            panic!()
        };
        assert!(all);
        assert!(matches!(*left, Query::Union { all: false, .. }));
    }

    #[test]
    fn updating_clauses() {
        let q = parse_query(
            "MATCH (a:Person {name: 'Ada'})
             MERGE (b:Person {name: 'Bo'})
               ON CREATE SET b.created = true
               ON MATCH SET b.matched = true
             CREATE (a)-[:KNOWS {since: 2020}]->(b)
             SET a.age = 36, a:Verified, a += {x: 1}
             REMOVE a.temp, a:Unverified
             DETACH DELETE a",
        )
        .unwrap();
        let Query::Single(sq) = q else { panic!() };
        assert_eq!(sq.clauses.len(), 6);
        assert!(sq.ret.is_none());
        let Clause::Set { items } = &sq.clauses[3] else {
            panic!()
        };
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], SetItem::Prop(_, _, _)));
        assert!(matches!(items[1], SetItem::Labels(_, _)));
        assert!(matches!(items[2], SetItem::Merge(_, _)));
    }

    #[test]
    fn order_skip_limit() {
        let q = parse_query(
            "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service)
             RETURN svc, count(DISTINCT dep) AS dependents
             ORDER BY dependents DESC
             LIMIT 1",
        )
        .unwrap();
        let Query::Single(sq) = q else { panic!() };
        let ret = sq.ret.unwrap();
        assert_eq!(ret.order_by.len(), 1);
        assert!(!ret.order_by[0].ascending);
        assert_eq!(ret.limit, Some(Expr::int(1)));
    }

    #[test]
    fn with_where_fraud_query() {
        let q = parse_query(
            "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo)
             WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address
             WITH pInfo,
                  collect(accHolder.uniqueId) AS accountHolders,
                  count(*) AS fraudRingCount
             WHERE fraudRingCount > 1
             RETURN accountHolders,
                    labels(pInfo) AS personalInformation,
                    fraudRingCount",
        )
        .unwrap();
        let Query::Single(sq) = q else { panic!() };
        assert_eq!(sq.clauses.len(), 2);
        let Clause::With { where_, ret } = &sq.clauses[1] else {
            panic!()
        };
        assert!(where_.is_some());
        assert_eq!(ret.items.len(), 3);
    }

    #[test]
    fn from_graph_clause() {
        let q = parse_query(
            "FROM GRAPH soc_net AT 'hdfs://x/soc_network'
             MATCH (a)-[:FRIEND]-(b)
             RETURN a, b",
        )
        .unwrap();
        let Query::Single(sq) = q else { panic!() };
        let Clause::FromGraph { name, at } = &sq.clauses[0] else {
            panic!()
        };
        assert_eq!(name, "soc_net");
        assert_eq!(at.as_deref(), Some("hdfs://x/soc_network"));
    }

    #[test]
    fn return_graph_of() {
        let q = parse_query(
            "MATCH (a)-[:FRIEND]-()-[:FRIEND]-(b)
             WITH DISTINCT a, b
             RETURN GRAPH friends OF (a)-[:SHARE_FRIEND]->(b)",
        )
        .unwrap();
        let Query::Single(sq) = q else { panic!() };
        let (name, pats) = sq.ret_graph.unwrap();
        assert_eq!(name, "friends");
        assert_eq!(pats.len(), 1);
    }

    #[test]
    fn unwind_and_params() {
        let q = parse_query("UNWIND $events AS e RETURN e.id").unwrap();
        let Query::Single(sq) = q else { panic!() };
        let Clause::Unwind { expr, alias } = &sq.clauses[0] else {
            panic!()
        };
        assert_eq!(expr, &Expr::Param("events".into()));
        assert_eq!(alias, "e");
    }

    #[test]
    fn return_star_and_distinct() {
        let q = parse_query("MATCH (n) RETURN *").unwrap();
        let Query::Single(sq) = q else { panic!() };
        assert!(sq.ret.unwrap().star);
        let q2 = parse_query("MATCH (n) RETURN DISTINCT n, n.x").unwrap();
        let Query::Single(sq2) = q2 else { panic!() };
        let r = sq2.ret.unwrap();
        assert!(r.distinct);
        assert_eq!(r.items.len(), 2);
    }

    #[test]
    fn error_positions() {
        let err = parse_query("MATCH (n RETURN n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
        assert!(parse_query("").is_err());
        assert!(parse_query("FROB (n)").is_err());
        assert!(parse_query("MATCH (a)<-[:X]->(b) RETURN a").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_query("match (n) return n").is_ok());
        assert!(parse_query("MaTcH (n) rEtUrN n").is_ok());
    }
}
