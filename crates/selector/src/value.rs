//! Typed values flowing through selector evaluation.
//!
//! JMS message properties are typed (`boolean`, integral, floating point,
//! `String`); selector evaluation follows SQL-92 semantics: integral and
//! floating-point values compare after numeric promotion, strings and
//! booleans only support `=` / `<>`, and any cross-type comparison is
//! *unknown* rather than an error.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed property value of a message.
///
/// # Examples
///
/// ```
/// use rjms_selector::value::Value;
/// assert_eq!(Value::from(42i64), Value::Int(42));
/// assert_eq!(Value::from("red"), Value::Str("red".to_owned()));
/// assert!(Value::Int(2).numeric().is_some());
/// assert!(Value::Bool(true).numeric().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Boolean property (`TRUE` / `FALSE` literals).
    Bool(bool),
    /// Integral property (JMS `byte`/`short`/`int`/`long` collapse to i64).
    Int(i64),
    /// Floating-point property (JMS `float`/`double` collapse to f64).
    Float(f64),
    /// String property.
    Str(String),
}

impl Value {
    /// The borrowed view evaluation works on.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }

    /// Numeric view after SQL-92 promotion; `None` for strings and booleans.
    pub fn numeric(&self) -> Option<f64> {
        self.as_ref().numeric()
    }

    /// Whether two values are comparable with an ordering operator
    /// (`<`, `<=`, `>`, `>=`): only numeric values are.
    pub fn ordered_comparable(&self, other: &Value) -> bool {
        self.numeric().is_some() && other.numeric().is_some()
    }

    /// SQL-92 equality, see [`ValueRef::sql_eq`].
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.as_ref().sql_eq(other.as_ref())
    }

    /// A short name of the type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }
}

/// A borrowed, `Copy` view of a [`Value`]: what a [`crate::PropertySource`]
/// hands out and what both evaluators compute on, so that evaluating a
/// selector neither clones a property nor allocates.
///
/// # Examples
///
/// ```
/// use rjms_selector::value::{Value, ValueRef};
/// let owned = Value::from("red");
/// assert_eq!(owned.as_ref(), ValueRef::Str("red"));
/// assert_eq!(ValueRef::Int(3).sql_eq(ValueRef::Float(3.0)), Some(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String, borrowed from the message or from the selector's literal.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// Numeric view after SQL-92 promotion; `None` for strings and booleans.
    pub fn numeric(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            ValueRef::Bool(_) | ValueRef::Str(_) => None,
        }
    }

    /// SQL-92 equality: two integers compare exactly (an `f64` cannot tell
    /// neighbours above 2⁵³ apart), `Int` with `Float` after numeric
    /// promotion, `Bool` and `Str` with their own type; everything else is
    /// *unknown* (`None`).
    #[inline]
    pub fn sql_eq(self, other: ValueRef<'_>) -> Option<bool> {
        match (self, other) {
            (ValueRef::Bool(a), ValueRef::Bool(b)) => Some(a == b),
            (ValueRef::Str(a), ValueRef::Str(b)) => Some(a == b),
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a == b),
            _ => Some(self.numeric()? == other.numeric()?),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                // Keep a decimal point so the literal re-lexes as a float.
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// SQL-92 three-valued logic truth value.
///
/// A selector only forwards a message when the whole expression evaluates to
/// [`Truth::True`]; both `False` and `Unknown` suppress delivery.
///
/// # Examples
///
/// ```
/// use rjms_selector::value::Truth;
/// assert_eq!(Truth::Unknown.and(Truth::False), Truth::False);
/// assert_eq!(Truth::Unknown.or(Truth::True), Truth::True);
/// assert_eq!(Truth::Unknown.not(), Truth::Unknown);
/// assert!(!Truth::Unknown.is_true());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown (missing property or incomparable types).
    Unknown,
}

impl Truth {
    /// Three-valued conjunction.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued disjunction.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued negation.
    #[allow(clippy::should_implement_trait)] // SQL-92 NOT, deliberately not `!`
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// `self.not()` when `negated`, for the `NOT` variants of `BETWEEN`,
    /// `IN` and `LIKE`.
    pub fn negated_if(self, negated: bool) -> Truth {
        if negated {
            self.not()
        } else {
            self
        }
    }

    /// `true` only for [`Truth::True`] — the message-forwarding criterion.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Self {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

impl From<Option<bool>> for Truth {
    fn from(b: Option<bool>) -> Self {
        match b {
            Some(true) => Truth::True,
            Some(false) => Truth::False,
            None => Truth::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_promotion() {
        assert_eq!(Value::Int(3).numeric(), Some(3.0));
        assert_eq!(Value::Float(2.5).numeric(), Some(2.5));
        assert_eq!(Value::Str("3".into()).numeric(), None);
        assert_eq!(Value::Bool(true).numeric(), None);
    }

    #[test]
    fn sql_eq_same_types() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Int(3)), Some(true));
        assert_eq!(Value::Str("a".into()).sql_eq(&Value::Str("b".into())), Some(false));
        assert_eq!(Value::Bool(true).sql_eq(&Value::Bool(true)), Some(true));
    }

    #[test]
    fn sql_eq_numeric_promotion() {
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.0)), Some(true));
        assert_eq!(Value::Float(2.5).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn sql_eq_is_exact_on_integers_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 are one f64.
        let (a, b) = (9_007_199_254_740_992i64, 9_007_199_254_740_993i64);
        assert_eq!(a as f64, b as f64);
        assert_eq!(Value::Int(a).sql_eq(&Value::Int(b)), Some(false));
        assert_eq!(Value::Int(b).sql_eq(&Value::Int(b)), Some(true));
        assert_eq!(Value::Int(i64::MAX).sql_eq(&Value::Int(i64::MAX - 1)), Some(false));
        // Mixed operands still promote: the float cannot tell them apart.
        assert_eq!(Value::Int(b).sql_eq(&Value::Float(a as f64)), Some(true));
    }

    #[test]
    fn sql_eq_cross_type_unknown() {
        assert_eq!(Value::Str("3".into()).sql_eq(&Value::Int(3)), None);
        assert_eq!(Value::Bool(true).sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Bool(false).sql_eq(&Value::Str("false".into())), None);
    }

    #[test]
    fn ordered_comparable_only_numbers() {
        assert!(Value::Int(1).ordered_comparable(&Value::Float(2.0)));
        assert!(!Value::Str("a".into()).ordered_comparable(&Value::Str("b".into())));
        assert!(!Value::Bool(true).ordered_comparable(&Value::Int(1)));
    }

    #[test]
    fn truth_tables() {
        use Truth::*;
        // AND
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        // OR
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(Unknown.or(Unknown), Unknown);
        // NOT
        assert_eq!(True.not(), False);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn display_round_trippable_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Str("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn truth_from_option() {
        assert_eq!(Truth::from(Some(true)), Truth::True);
        assert_eq!(Truth::from(None), Truth::Unknown);
    }
}
