//! # rjms-selector
//!
//! A complete implementation of the JMS 1.1 message-selector language
//! (SQL-92 conditional expression subset) plus the correlation-ID filter
//! family used by the paper's measurement study.
//!
//! A *message selector* is the filter a subscriber installs on a JMS server
//! so that only matching messages are forwarded. The server evaluates every
//! subscriber's selector against every published message — the per-filter
//! cost `t_fltr` in the paper's service-time model (Eq. 1). This crate
//! provides:
//!
//! * [`parse`] — selector string → [`ast::Expr`], with precise errors,
//! * [`Program`] — the expression compiled for repeated, clone-free
//!   evaluation against any [`eval::PropertySource`] or against property
//!   values the caller resolved once for many selectors,
//! * [`eval::evaluate`] / [`eval::matches`] — the tree-walking reference
//!   of the three-valued-logic semantics, which no dispatch path runs: the
//!   tests hold the program to it (`tests/conformance.rs`,
//!   `tests/proptests.rs`, `program.rs`' exhaustive tables and the
//!   broker's `bound_evaluation_agrees_with_the_tree_walker`),
//! * [`corrid::CorrelationFilter`] — exact / range (`[7;13]`) / prefix
//!   correlation-ID filters,
//! * [`Selector`] — a parsed and compiled, reusable selector handle.
//!
//! ## Example
//!
//! ```
//! use rjms_selector::Selector;
//! use rjms_selector::value::Value;
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), rjms_selector::parser::ParseError> {
//! let sel = Selector::parse("color = 'red' AND weight BETWEEN 2 AND 5")?;
//! let mut msg = HashMap::new();
//! msg.insert("color".to_owned(), Value::from("red"));
//! msg.insert("weight".to_owned(), Value::from(3i64));
//! assert!(sel.matches(&msg));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod corrid;
pub mod eval;
pub mod lexer;
pub mod like;
pub mod parser;
pub mod program;
pub mod value;

pub use ast::Expr;
pub use corrid::CorrelationFilter;
pub use eval::{evaluate, matches, PropertySource};
pub use parser::{parse, ParseError};
pub use program::Program;
pub use value::{Truth, Value, ValueRef};

use serde::{Deserialize, Serialize};

/// A parsed message selector, ready for repeated evaluation.
///
/// Wraps the AST and the [`Program`] compiled from it together with the
/// original source text; cloning is cheap relative to parsing, and
/// [`std::fmt::Display`] returns the original selector string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selector {
    source: String,
    expr: Expr,
    program: Program,
}

impl Selector {
    /// Parses a selector string.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for syntactically invalid selectors, exactly
    /// as a JMS provider must reject them when the subscription is created.
    pub fn parse(source: &str) -> Result<Self, ParseError> {
        let expr = parse(source)?;
        let program = Program::compile(&expr);
        Ok(Self { source: source.to_owned(), expr, program })
    }

    /// The original selector text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The compiled expression.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Evaluates the selector; `true` iff the message must be forwarded.
    pub fn matches<P: PropertySource + ?Sized>(&self, props: &P) -> bool {
        self.evaluate(props).is_true()
    }

    /// Full three-valued evaluation result.
    pub fn evaluate<P: PropertySource + ?Sized>(&self, props: &P) -> Truth {
        self.program.evaluate(props)
    }
}

impl std::fmt::Display for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.source)
    }
}

impl std::str::FromStr for Selector {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn selector_handle_roundtrip() {
        let s: Selector = "a = 1".parse().unwrap();
        assert_eq!(s.source(), "a = 1");
        assert_eq!(s.to_string(), "a = 1");
    }

    #[test]
    fn selector_matches() {
        let s = Selector::parse("n > 2").unwrap();
        let mut p = HashMap::new();
        p.insert("n".to_owned(), Value::Int(3));
        assert!(s.matches(&p));
        assert_eq!(s.evaluate(&p), Truth::True);
    }

    #[test]
    fn selector_rejects_garbage() {
        assert!(Selector::parse("((").is_err());
    }
}
