//! Recursive-descent parser for JMS message selectors.
//!
//! Grammar (SQL-92 conditional expression subset, JMS 1.1 §3.8.1):
//!
//! ```text
//! selector    := or_expr
//! or_expr     := and_expr (OR and_expr)*
//! and_expr    := not_expr (AND not_expr)*
//! not_expr    := NOT not_expr | predicate
//! predicate   := additive ( cmp_op additive
//!                         | [NOT] BETWEEN additive AND additive
//!                         | [NOT] IN '(' string (',' string)* ')'
//!                         | [NOT] LIKE string [ESCAPE string]
//!                         | IS [NOT] NULL )?
//! additive    := multiplic (('+'|'-') multiplic)*
//! multiplic   := unary (('*'|'/') unary)*
//! unary       := '-' unary | '+' unary | primary
//! primary     := literal | identifier | '(' or_expr ')'
//! ```

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::lexer::{tokenize, Keyword, LexError, Token, TokenKind};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error raised while parsing a selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParseError {
    /// Byte offset in the selector string (input length for "unexpected
    /// end of input").
    pub offset: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { offset: e.offset, message: e.message }
    }
}

/// Parses a selector string into an [`Expr`].
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset for syntactically invalid
/// selectors (JMS mandates rejecting them at subscription time).
///
/// # Examples
///
/// ```
/// use rjms_selector::parse;
/// assert!(parse("JMSPriority >= 7 OR urgent = TRUE").is_ok());
/// assert!(parse("color = ").is_err());
/// ```
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0, input_len: input.len() };
    let expr = p.or_expr()?;
    if let Some(tok) = p.peek() {
        return Err(ParseError {
            offset: tok.offset,
            message: format!("unexpected {} after end of expression", tok.kind),
        });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let token = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        // The parser never goes back: of a consumed token only the offset
        // is read again, so its kind (and string) moves out.
        let kind = std::mem::replace(&mut token.kind, TokenKind::Comma);
        Some(Token { kind, offset: token.offset })
    }

    fn eof_error(&self, expected: &str) -> ParseError {
        ParseError {
            offset: self.input_len,
            message: format!("unexpected end of input, expected {expected}"),
        }
    }

    fn error_at(&self, tok: &Token, expected: &str) -> ParseError {
        ParseError {
            offset: tok.offset,
            message: format!("expected {expected}, found {}", tok.kind),
        }
    }

    /// Consumes the next token if it is the given keyword.
    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), Some(Token { kind: TokenKind::Keyword(k), .. }) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        match self.next() {
            Some(Token { kind: TokenKind::Keyword(k), .. }) if k == kw => Ok(()),
            Some(tok) => Err(self.error_at(&tok, &format!("keyword `{kw}`"))),
            None => Err(self.eof_error(&format!("keyword `{kw}`"))),
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(tok) if tok.kind == *kind => Ok(()),
            Some(tok) => Err(self.error_at(&tok, what)),
            None => Err(self.eof_error(what)),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Token { kind: TokenKind::Str(s), .. }) => Ok(s),
            Some(tok) => Err(self.error_at(&tok, what)),
            None => Err(self.eof_error(what)),
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.not_expr()?;
            Ok(Expr::Not(Box::new(inner)))
        } else {
            self.predicate()
        }
    }

    /// An additive expression optionally followed by one predicate suffix.
    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.additive()?;

        // Comparison operators.
        let cmp = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Eq) => Some(CmpOp::Eq),
            Some(TokenKind::Ne) => Some(CmpOp::Ne),
            Some(TokenKind::Lt) => Some(CmpOp::Lt),
            Some(TokenKind::Le) => Some(CmpOp::Le),
            Some(TokenKind::Gt) => Some(CmpOp::Gt),
            Some(TokenKind::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(Expr::cmp(op, lhs, rhs));
        }

        // IS [NOT] NULL.
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }

        // [NOT] BETWEEN / IN / LIKE.
        let negated = self.eat_keyword(Keyword::Not);
        if self.eat_keyword(Keyword::Between) {
            let lo = self.additive()?;
            self.expect_keyword(Keyword::And)?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_keyword(Keyword::In) {
            self.expect_kind(&TokenKind::LParen, "`(`")?;
            let mut list = vec![self.expect_string("string literal")?];
            while matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Comma)) {
                self.pos += 1;
                list.push(self.expect_string("string literal")?);
            }
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            return Ok(Expr::InList { expr: Box::new(lhs), list, negated });
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.expect_string("pattern string")?;
            let escape = if self.eat_keyword(Keyword::Escape) {
                let esc = self.expect_string("escape string")?;
                let mut chars = esc.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Some(c),
                    _ => {
                        return Err(ParseError {
                            offset: self.tokens[self.pos - 1].offset,
                            message: format!("ESCAPE must be a single character, got '{esc}'"),
                        })
                    }
                }
            } else {
                None
            };
            return Ok(Expr::Like { expr: Box::new(lhs), pattern, escape, negated });
        }
        if negated {
            // We consumed NOT but found no BETWEEN/IN/LIKE after it.
            return match self.peek() {
                Some(tok) => Err(self.error_at(tok, "BETWEEN, IN or LIKE after NOT")),
                None => Err(self.eof_error("BETWEEN, IN or LIKE after NOT")),
            };
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => ArithOp::Add,
                Some(TokenKind::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::arith(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => ArithOp::Mul,
                Some(TokenKind::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::arith(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Minus) => {
                self.pos += 1;
                let inner = self.unary()?;
                // Fold negation into numeric literals for canonical ASTs.
                Ok(Expr::neg(inner))
            }
            Some(TokenKind::Plus) => {
                self.pos += 1;
                self.unary()
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            None => Err(self.eof_error("an expression")),
            Some(tok) => match tok.kind {
                TokenKind::Int(v) => Ok(Expr::Literal(Value::Int(v))),
                TokenKind::Float(v) => Ok(Expr::Literal(Value::Float(v))),
                TokenKind::Str(s) => Ok(Expr::Literal(Value::Str(s))),
                TokenKind::Keyword(Keyword::True) => Ok(Expr::Literal(Value::Bool(true))),
                TokenKind::Keyword(Keyword::False) => Ok(Expr::Literal(Value::Bool(false))),
                TokenKind::Ident(name) => Ok(Expr::Ident(name)),
                TokenKind::LParen => {
                    let inner = self.or_expr()?;
                    self.expect_kind(&TokenKind::RParen, "`)`")?;
                    Ok(inner)
                }
                _ => Err(self.error_at(&tok, "a literal, identifier or `(`")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ArithOp, CmpOp};

    fn ident(s: &str) -> Expr {
        Expr::Ident(s.into())
    }

    fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    #[test]
    fn parses_simple_comparison() {
        let e = parse("price < 10").unwrap();
        assert_eq!(e, Expr::cmp(CmpOp::Lt, ident("price"), int(10)));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let e = parse("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::Or(lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Cmp { .. }));
                assert!(matches!(*rhs, Expr::And(_, _)));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn not_binds_tighter_than_and() {
        let e = parse("NOT a = 1 AND b = 2").unwrap();
        match e {
            Expr::And(lhs, _) => assert!(matches!(*lhs, Expr::Not(_))),
            other => panic!("expected AND at top, got {other:?}"),
        }
    }

    #[test]
    fn multiplication_binds_tighter_than_addition() {
        let e = parse("a + b * 2 = 10").unwrap();
        match e {
            Expr::Cmp { lhs, .. } => match *lhs {
                Expr::Arith { op: ArithOp::Add, rhs, .. } => {
                    assert!(matches!(*rhs, Expr::Arith { op: ArithOp::Mul, .. }))
                }
                other => panic!("expected +, got {other:?}"),
            },
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn parses_between() {
        let e = parse("weight BETWEEN 2 AND 5").unwrap();
        assert_eq!(
            e,
            Expr::Between {
                expr: Box::new(ident("weight")),
                lo: Box::new(int(2)),
                hi: Box::new(int(5)),
                negated: false,
            }
        );
    }

    #[test]
    fn parses_not_between() {
        let e = parse("w NOT BETWEEN 1 AND 2").unwrap();
        assert!(matches!(e, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn between_bounds_may_be_arithmetic() {
        let e = parse("x BETWEEN lo + 1 AND hi * 2").unwrap();
        match e {
            Expr::Between { lo, hi, .. } => {
                assert!(matches!(*lo, Expr::Arith { op: ArithOp::Add, .. }));
                assert!(matches!(*hi, Expr::Arith { op: ArithOp::Mul, .. }));
            }
            other => panic!("expected BETWEEN, got {other:?}"),
        }
    }

    #[test]
    fn parses_in_list() {
        let e = parse("country IN ('UK', 'US', 'DE')").unwrap();
        assert_eq!(
            e,
            Expr::InList {
                expr: Box::new(ident("country")),
                list: vec!["UK".into(), "US".into(), "DE".into()],
                negated: false,
            }
        );
    }

    #[test]
    fn parses_like_with_escape() {
        let e = parse(r"name LIKE 'a\_b%' ESCAPE '\'").unwrap();
        assert_eq!(
            e,
            Expr::Like {
                expr: Box::new(ident("name")),
                pattern: r"a\_b%".into(),
                escape: Some('\\'),
                negated: false,
            }
        );
    }

    #[test]
    fn parses_is_null_variants() {
        assert!(matches!(parse("x IS NULL").unwrap(), Expr::IsNull { negated: false, .. }));
        assert!(matches!(parse("x IS NOT NULL").unwrap(), Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn unary_minus_folds_into_literals() {
        assert_eq!(parse("x = -5").unwrap(), Expr::cmp(CmpOp::Eq, ident("x"), int(-5)));
        assert!(matches!(
            parse("x = -y").unwrap(),
            Expr::Cmp { rhs, .. } if matches!(*rhs, Expr::Neg(_))
        ));
    }

    #[test]
    fn boolean_literals() {
        assert_eq!(parse("TRUE").unwrap(), Expr::Literal(Value::Bool(true)));
        assert_eq!(
            parse("urgent = FALSE").unwrap(),
            Expr::cmp(CmpOp::Eq, ident("urgent"), Expr::Literal(Value::Bool(false)))
        );
    }

    #[test]
    fn parenthesized_grouping() {
        let e = parse("(a = 1 OR b = 2) AND c = 3").unwrap();
        match e {
            Expr::And(lhs, _) => assert!(matches!(*lhs, Expr::Or(_, _))),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn error_on_trailing_tokens() {
        let err = parse("a = 1 b").unwrap_err();
        assert!(err.message.contains("after end of expression"));
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn error_on_missing_rhs() {
        let err = parse("a = ").unwrap_err();
        assert!(err.message.contains("end of input"));
    }

    #[test]
    fn error_on_not_without_predicate() {
        let err = parse("a NOT 5").unwrap_err();
        assert!(err.message.contains("BETWEEN, IN or LIKE"));
    }

    #[test]
    fn error_on_multichar_escape() {
        let err = parse("a LIKE 'x%' ESCAPE 'ab'").unwrap_err();
        assert!(err.message.contains("single character"));
    }

    #[test]
    fn error_on_nonstring_in_list() {
        assert!(parse("a IN (1, 2)").is_err());
    }

    #[test]
    fn deeply_nested_parentheses() {
        let sel = format!("{}x = 1{}", "(".repeat(100), ")".repeat(100));
        assert!(parse(&sel).is_ok());
    }

    #[test]
    fn keywords_not_usable_as_identifiers() {
        assert!(parse("BETWEEN = 1").is_err());
    }

    #[test]
    fn realistic_presence_selector() {
        // The paper's motivating scenario: presence updates of friends.
        let sel = "msgType = 'presence' AND (userId IN ('alice', 'bob') OR broadcast = TRUE) \
                   AND priority BETWEEN 3 AND 9 AND device NOT LIKE 'test%'";
        parse(sel).unwrap();
    }
}
