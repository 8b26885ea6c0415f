//! Recursive-descent / Pratt parser producing [`Script`]s.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! script   := stmt (';' stmt)* ';'?
//! stmt     := ['def'] IDENT '=' expr | expr
//! expr     := ternary
//! ternary  := elvis ('?' expr ':' expr)?
//! elvis    := or ('?:' or)*
//! or       := and ('||' and)*
//! and      := equality ('&&' equality)*
//! equality := compare (('==' | '!=') compare)*
//! compare  := additive (('<'|'<='|'>'|'>=') additive)*
//! additive := term (('+'|'-') term)*
//! term     := power (('*'|'/'|'%') power)*
//! power    := unary ('**' power)?           // right associative
//! unary    := ('-'|'!') unary | postfix
//! postfix  := primary ('[' expr ']')*
//! primary  := literal | IDENT | IDENT '(' args ')' | '(' expr ')'
//!           | '[' list-or-map ']'
//! ```

use crate::ast::{BinOp, Expr, Script, Stmt, UnOp};
use crate::error::{ExprError, Pos};
use crate::lexer::{lex, SpannedTok, Tok};
use crate::value::Value;

/// Parse a source string into a [`Script`].
pub fn parse(src: &str) -> Result<Script, ExprError> {
    let toks = lex(src)?;
    let mut p = Parser { src, toks, pos: 0 };
    let script = p.script()?;
    if let Some(t) = p.peek() {
        return Err(p.unexpected(t.clone(), "end of input"));
    }
    Ok(script)
}

/// Parse a source string that must be a single expression (no statements).
pub fn parse_expr(src: &str) -> Result<Expr, ExprError> {
    let script = parse(src)?;
    match <[Stmt; 1]>::try_from(script.stmts) {
        Ok([Stmt::Expr(e)]) => Ok(e),
        _ => Err(ExprError::UnexpectedToken {
            found: "statement list".into(),
            expected: "a single expression",
            pos: Pos::default(),
        }),
    }
}

struct Parser<'s> {
    src: &'s str,
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> Pos {
        match self.toks.get(self.pos) {
            Some(t) => Pos::at(self.src, t.offset),
            None => Pos::at(self.src, self.src.len()),
        }
    }

    fn unexpected(&self, found: Tok, expected: &'static str) -> ExprError {
        ExprError::UnexpectedToken {
            found: found.to_string(),
            expected,
            pos: self.here(),
        }
    }

    fn eof(&self, expected: &'static str) -> ExprError {
        ExprError::UnexpectedEof { expected }
    }

    fn expect(&mut self, want: Tok, expected: &'static str) -> Result<(), ExprError> {
        match self.peek() {
            Some(t) if *t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.unexpected(t.clone(), expected)),
            None => Err(self.eof(expected)),
        }
    }

    fn script(&mut self) -> Result<Script, ExprError> {
        let mut stmts = Vec::new();
        loop {
            // Allow (and skip) empty statements / trailing semicolons.
            while self.peek() == Some(&Tok::Semi) {
                self.pos += 1;
            }
            if self.peek().is_none() {
                break;
            }
            stmts.push(self.stmt()?);
            match self.peek() {
                Some(Tok::Semi) => continue,
                Some(_) | None => break,
            }
        }
        if stmts.is_empty() {
            return Err(self.eof("an expression"));
        }
        Ok(Script { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ExprError> {
        // `def x = e`
        if self.peek() == Some(&Tok::Def) {
            self.pos += 1;
            let name = match self.next() {
                Some(Tok::Ident(n)) => n,
                Some(t) => return Err(self.unexpected(t, "a variable name after 'def'")),
                None => return Err(self.eof("a variable name after 'def'")),
            };
            self.expect(Tok::Assign, "'=' after variable name")?;
            let e = self.expr()?;
            return Ok(Stmt::Assign(name, e));
        }
        // `x = e` (lookahead: IDENT '=' not '==')
        if let (Some(Tok::Ident(_)), Some(Tok::Assign)) = (self.peek(), self.peek2()) {
            let name = match self.next() {
                Some(Tok::Ident(n)) => n,
                _ => unreachable!("checked by lookahead"),
            };
            self.pos += 1; // consume '='
            let e = self.expr()?;
            return Ok(Stmt::Assign(name, e));
        }
        Ok(Stmt::Expr(self.expr()?))
    }

    fn expr(&mut self) -> Result<Expr, ExprError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ExprError> {
        let cond = self.elvis()?;
        if self.peek() == Some(&Tok::Question) {
            self.pos += 1;
            let then = self.expr()?;
            self.expect(Tok::Colon, "':' in ternary")?;
            let els = self.expr()?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(then), Box::new(els)));
        }
        Ok(cond)
    }

    fn elvis(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.or()?;
        while self.peek() == Some(&Tok::Elvis) {
            self.pos += 1;
            let right = self.or()?;
            left = Expr::Elvis(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn or(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            let right = self.and()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.equality()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            let right = self.equality()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn equality(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.compare()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Eq) => BinOp::Eq,
                Some(Tok::Ne) => BinOp::Ne,
                _ => break,
            };
            self.pos += 1;
            let right = self.compare()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn compare(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Le) => BinOp::Le,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Ge) => BinOp::Ge,
                _ => break,
            };
            self.pos += 1;
            let right = self.additive()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.term()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr, ExprError> {
        let mut left = self.power()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let right = self.power()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn power(&mut self) -> Result<Expr, ExprError> {
        let base = self.unary()?;
        if self.peek() == Some(&Tok::StarStar) {
            self.pos += 1;
            // Right-associative: 2**3**2 == 2**(3**2).
            let exp = self.power()?;
            return Ok(Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Expr, ExprError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr::Unary(UnOp::Neg, Box::new(e)))
            }
            Some(Tok::Bang) => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr::Unary(UnOp::Not, Box::new(e)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ExprError> {
        let mut base = self.primary()?;
        while self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            let idx = self.expr()?;
            self.expect(Tok::RBracket, "']' after index")?;
            base = Expr::Index(Box::new(base), Box::new(idx));
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr, ExprError> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Expr::Lit(Value::Float(f))),
            Some(Tok::Str(s)) => Ok(Expr::Lit(Value::Str(s.into()))),
            Some(Tok::True) => Ok(Expr::Lit(Value::Bool(true))),
            Some(Tok::False) => Ok(Expr::Lit(Value::Bool(false))),
            Some(Tok::Null) => Ok(Expr::Lit(Value::Null)),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "')' after arguments")?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::LBracket) => self.list_or_map(),
            Some(t) => Err(self.unexpected(t, "an expression")),
            None => Err(self.eof("an expression")),
        }
    }

    /// After consuming '[': Groovy collection literal. `[:]` is the empty
    /// map; `[k: v, ...]` a map; otherwise a list.
    fn list_or_map(&mut self) -> Result<Expr, ExprError> {
        // Empty map `[:]`.
        if self.peek() == Some(&Tok::Colon) && self.peek2() == Some(&Tok::RBracket) {
            self.pos += 2;
            return Ok(Expr::MapLit(Vec::new()));
        }
        // Empty list `[]`.
        if self.peek() == Some(&Tok::RBracket) {
            self.pos += 1;
            return Ok(Expr::ListLit(Vec::new()));
        }
        // Map if it starts with IDENT ':' or STRING ':'.
        let is_map = matches!(
            (self.peek(), self.peek2()),
            (Some(Tok::Ident(_)), Some(Tok::Colon)) | (Some(Tok::Str(_)), Some(Tok::Colon))
        );
        if is_map {
            let mut pairs = Vec::new();
            loop {
                let key = match self.next() {
                    Some(Tok::Ident(k)) | Some(Tok::Str(k)) => k,
                    Some(t) => return Err(self.unexpected(t, "a map key")),
                    None => return Err(self.eof("a map key")),
                };
                self.expect(Tok::Colon, "':' after map key")?;
                let v = self.expr()?;
                pairs.push((key, v));
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            self.expect(Tok::RBracket, "']' closing map literal")?;
            Ok(Expr::MapLit(pairs))
        } else {
            let mut items = Vec::new();
            loop {
                items.push(self.expr()?);
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            self.expect(Tok::RBracket, "']' closing list literal")?;
            Ok(Expr::ListLit(items))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        parse_expr(src).unwrap()
    }

    #[test]
    fn paper_expressions_parse() {
        // §VI step 2 and step 5 verbatim.
        let e = expr("(a + b + c)/3");
        assert_eq!(e.free_vars(), vec!["a", "b", "c"]);
        let e = expr("(a + b)/2");
        assert_eq!(e.free_vars(), vec!["a", "b"]);
    }

    #[test]
    fn precedence_mul_over_add() {
        assert_eq!(
            expr("1 + 2 * 3"),
            Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Lit(Value::Int(1))),
                Box::new(Expr::Binary(
                    BinOp::Mul,
                    Box::new(Expr::Lit(Value::Int(2))),
                    Box::new(Expr::Lit(Value::Int(3)))
                ))
            )
        );
    }

    #[test]
    fn power_is_right_associative_and_binds_tighter_than_mul() {
        let e = expr("2 ** 3 ** 2");
        // 2 ** (3 ** 2)
        match e {
            Expr::Binary(BinOp::Pow, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Pow, _, _)));
            }
            other => panic!("{other:?}"),
        }
        let e = expr("2 * 3 ** 2");
        assert!(matches!(e, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn unary_binds_tighter_than_binary() {
        let e = expr("-a + b");
        assert!(matches!(e, Expr::Binary(BinOp::Add, _, _)));
        let e = expr("!a && b");
        assert!(matches!(e, Expr::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn ternary_and_elvis() {
        let e = expr("a > 0 ? a : -a");
        assert!(matches!(e, Expr::Ternary(_, _, _)));
        let e = expr("a ?: 0");
        assert!(matches!(e, Expr::Elvis(_, _)));
        // Nested ternary in the else branch.
        let e = expr("a ? 1 : b ? 2 : 3");
        assert!(matches!(e, Expr::Ternary(_, _, _)));
    }

    #[test]
    fn calls_and_indexing() {
        let e = expr("avg(a, b)[0]");
        assert!(matches!(e, Expr::Index(_, _)));
        let e = expr("max(1, 2, 3)");
        assert!(matches!(e, Expr::Call(ref n, ref args) if n == "max" && args.len() == 3));
        let e = expr("now()");
        assert!(matches!(e, Expr::Call(ref n, ref args) if n == "now" && args.is_empty()));
    }

    #[test]
    fn collection_literals() {
        assert_eq!(expr("[]"), Expr::ListLit(vec![]));
        assert_eq!(expr("[:]"), Expr::MapLit(vec![]));
        let e = expr("[1, 2, 3]");
        assert!(matches!(e, Expr::ListLit(ref xs) if xs.len() == 3));
        let e = expr("[x: 1, y: 2]");
        assert!(matches!(e, Expr::MapLit(ref ps) if ps.len() == 2 && ps[0].0 == "x"));
        let e = expr("['with space': 1]");
        assert!(matches!(e, Expr::MapLit(ref ps) if ps[0].0 == "with space"));
    }

    #[test]
    fn scripts_with_statements() {
        let s = parse("t = a + b; t / 2").unwrap();
        assert_eq!(s.stmts.len(), 2);
        assert!(matches!(s.stmts[0], Stmt::Assign(ref n, _) if n == "t"));
        assert_eq!(s.free_vars(), vec!["a", "b"]);

        let s = parse("def x = 1; x + 1;").unwrap();
        assert_eq!(s.stmts.len(), 2);
    }

    #[test]
    fn equality_vs_assignment() {
        let s = parse("a == b").unwrap();
        assert!(matches!(
            s.stmts[0],
            Stmt::Expr(Expr::Binary(BinOp::Eq, _, _))
        ));
        let s = parse("a = b").unwrap();
        assert!(matches!(s.stmts[0], Stmt::Assign(_, _)));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("(a +").is_err());
        assert!(parse("a +").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("f(1,").is_err());
        assert!(parse("a ? b").is_err());
        assert!(parse("def = 3").is_err());
        assert!(parse("1 2").is_err(), "two expressions without separator");
        assert!(
            parse_expr("a = 1").is_err(),
            "parse_expr rejects statements"
        );
    }

    #[test]
    fn comparison_is_non_associative_enough() {
        // `a < b < c` parses as `(a < b) < c` — accepted by the grammar,
        // rejected at evaluation (bool vs number). Just assert the shape.
        let e = expr("a < b < c");
        assert!(matches!(e, Expr::Binary(BinOp::Lt, _, _)));
    }
}
