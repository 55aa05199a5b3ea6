//! Abstract syntax tree of JMS message selector expressions.
//!
//! The grammar is the SQL-92 conditional-expression subset mandated by the
//! JMS 1.1 specification §3.8.1. The [`std::fmt::Display`] implementation
//! pretty-prints an expression back to valid selector syntax; the property
//! test `display_reparse_roundtrip` in `tests/proptests.rs` guarantees that
//! `parse(expr.to_string())` reproduces `expr`.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The selector-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// The selector-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A selector expression.
///
/// # Examples
///
/// ```
/// use rjms_selector::parse;
/// let e = parse("color = 'red' AND weight BETWEEN 2 AND 5").unwrap();
/// // Display prints fully parenthesized canonical selector syntax.
/// assert_eq!(
///     e.to_string(),
///     "((color) = ('red')) AND ((weight) BETWEEN (2) AND (5))"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Literal value (`'red'`, `42`, `2.5`, `TRUE`).
    Literal(Value),
    /// Property or header-field reference (`color`, `JMSPriority`).
    Ident(String),
    /// Logical negation `NOT e`.
    Not(Box<Expr>),
    /// Conjunction `a AND b`.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction `a OR b`.
    Or(Box<Expr>, Box<Expr>),
    /// Comparison `a <op> b`.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Arithmetic `a <op> b`.
    Arith {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary minus `-e`.
    Neg(Box<Expr>),
    /// `e [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// Whether the test is negated.
        negated: bool,
    },
    /// `e [NOT] IN ('a', 'b', ...)`.
    InList {
        /// Tested expression (an identifier per JMS, but any string-valued
        /// expression is accepted).
        expr: Box<Expr>,
        /// The candidate strings.
        list: Vec<String>,
        /// Whether the test is negated.
        negated: bool,
    },
    /// `e [NOT] LIKE 'pat%' [ESCAPE '\']`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern with `%` (any run) and `_` (any single char) wildcards.
        pattern: String,
        /// Optional escape character.
        escape: Option<char>,
        /// Whether the test is negated.
        negated: bool,
    },
    /// `e IS [NOT] NULL`.
    IsNull {
        /// Tested expression (an identifier per JMS).
        expr: Box<Expr>,
        /// Whether the test is negated (`IS NOT NULL`).
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for a comparison.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Convenience constructor for an arithmetic operation.
    pub fn arith(op: ArithOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Arith { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Negation smart constructor: folds negation into numeric literals
    /// (`-5` is the literal −5, not `Neg(5)`), which is the canonical form
    /// the parser produces.
    #[allow(clippy::should_implement_trait)] // associated constructor, not `-expr`
    pub fn neg(e: Expr) -> Expr {
        match e {
            Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(v.wrapping_neg())),
            Expr::Literal(Value::Float(v)) => Expr::Literal(Value::Float(-v)),
            other => Expr::Neg(Box::new(other)),
        }
    }
}

impl fmt::Display for Expr {
    /// Prints fully parenthesized canonical selector syntax, guaranteeing an
    /// unambiguous re-parse.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Ident(name) => f.write_str(name),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::And(a, b) => write!(f, "({a}) AND ({b})"),
            Expr::Or(a, b) => write!(f, "({a}) OR ({b})"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs}) {op} ({rhs})"),
            Expr::Arith { op, lhs, rhs } => write!(f, "({lhs}) {op} ({rhs})"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Between { expr, lo, hi, negated } => write!(
                f,
                "({expr}) {}BETWEEN ({lo}) AND ({hi})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr}) {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, s) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "'{}'", s.replace('\'', "''"))?;
                }
                f.write_str(")")
            }
            Expr::Like { expr, pattern, escape, negated } => {
                write!(
                    f,
                    "({expr}) {}LIKE '{}'",
                    if *negated { "NOT " } else { "" },
                    pattern.replace('\'', "''")
                )?;
                if let Some(c) = escape {
                    let esc = if *c == '\'' { "''".to_owned() } else { c.to_string() };
                    write!(f, " ESCAPE '{esc}'")?;
                }
                Ok(())
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr}) IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_literal_forms() {
        assert_eq!(Expr::Literal(Value::Int(5)).to_string(), "5");
        assert_eq!(Expr::Ident("color".into()).to_string(), "color");
    }

    #[test]
    fn display_nested_expression() {
        let e = Expr::And(
            Box::new(Expr::cmp(
                CmpOp::Eq,
                Expr::Ident("color".into()),
                Expr::Literal(Value::from("red")),
            )),
            Box::new(Expr::IsNull { expr: Box::new(Expr::Ident("size".into())), negated: true }),
        );
        assert_eq!(e.to_string(), "((color) = ('red')) AND ((size) IS NOT NULL)");
    }

    #[test]
    fn display_escapes_quotes() {
        let e = Expr::InList {
            expr: Box::new(Expr::Ident("name".into())),
            list: vec!["o'brien".into()],
            negated: false,
        };
        assert_eq!(e.to_string(), "(name) IN ('o''brien')");
    }
}
