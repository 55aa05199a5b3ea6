//! Three-valued-logic evaluation of selector expressions.
//!
//! Evaluation follows SQL-92/JMS semantics: a reference to a property that is
//! not set on the message, and any type-incompatible operation, yields
//! *unknown*; `AND`/`OR`/`NOT` combine truth values by the three-valued truth
//! tables; the message is forwarded only if the whole selector is *true*.
//!
//! The tree walker here is the reference semantics, not a dispatch path:
//! [`crate::Selector`] and the broker run the compiled [`crate::Program`],
//! and the tests hold it to this module's answers — `tests/conformance.rs`
//! (every row through both), `tests/proptests.rs::
//! program_agrees_with_the_tree_walker`, `program.rs`' exhaustive
//! operator × literal × value table, and the broker's
//! `subscriptions.rs::bound_evaluation_agrees_with_the_tree_walker`.

use crate::ast::{ArithOp, CmpOp, Expr};
pub use crate::like::like_match;
use crate::value::{Truth, Value, ValueRef};

/// Source of property values for selector evaluation.
///
/// Implemented by the broker's message type; also implemented for
/// `&[(String, Value)]` slices and `std::collections::HashMap` so that the
/// evaluator can be used standalone.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use rjms_selector::{parse, eval::{evaluate, PropertySource}, value::{Truth, Value}};
///
/// let mut props = HashMap::new();
/// props.insert("color".to_owned(), Value::from("red"));
/// let expr = parse("color = 'red'").unwrap();
/// assert_eq!(evaluate(&expr, &props), Truth::True);
/// ```
pub trait PropertySource {
    /// The value of the named property, or `None` if it is not set. The
    /// view borrows from the source: a lookup never clones.
    fn property(&self, name: &str) -> Option<ValueRef<'_>>;
}

impl PropertySource for std::collections::HashMap<String, Value> {
    fn property(&self, name: &str) -> Option<ValueRef<'_>> {
        self.get(name).map(Value::as_ref)
    }
}

impl PropertySource for std::collections::BTreeMap<String, Value> {
    fn property(&self, name: &str) -> Option<ValueRef<'_>> {
        self.get(name).map(Value::as_ref)
    }
}

impl PropertySource for [(String, Value)] {
    fn property(&self, name: &str) -> Option<ValueRef<'_>> {
        self.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_ref())
    }
}

impl<T: PropertySource + ?Sized> PropertySource for &T {
    fn property(&self, name: &str) -> Option<ValueRef<'_>> {
        (**self).property(name)
    }
}

/// Evaluates a selector expression against a property source by walking
/// the tree: the reference semantics (see the module doc for the tests
/// that hold the compiled [`crate::Program`] to it).
///
/// Never panics, regardless of the expression or message contents: all type
/// mismatches yield [`Truth::Unknown`], as the JMS specification requires.
pub fn evaluate<P: PropertySource + ?Sized>(expr: &Expr, props: &P) -> Truth {
    truth_of(expr, props)
}

/// Convenience wrapper: `true` iff the selector evaluates to [`Truth::True`]
/// (the message-forwarding criterion).
pub fn matches<P: PropertySource + ?Sized>(expr: &Expr, props: &P) -> bool {
    evaluate(expr, props).is_true()
}

/// Evaluates an expression to a *value* (`None` = unknown/null).
fn value_of<'a, P: PropertySource + ?Sized>(expr: &'a Expr, props: &'a P) -> Option<ValueRef<'a>> {
    match expr {
        Expr::Literal(v) => Some(v.as_ref()),
        Expr::Ident(name) => props.property(name),
        Expr::Neg(e) => negate(value_of(e, props)?),
        Expr::Arith { op, lhs, rhs } => arith(*op, value_of(lhs, props)?, value_of(rhs, props)?),
        // A nested predicate has no value semantics in JMS, so it maps
        // onto booleans with unknown → None.
        other => truth_value(truth_of(other, props)),
    }
}

/// Unary minus: wrapping on integers, unknown on non-numbers.
pub(crate) fn negate(v: ValueRef<'_>) -> Option<ValueRef<'static>> {
    match v {
        ValueRef::Int(v) => Some(ValueRef::Int(v.wrapping_neg())),
        ValueRef::Float(v) => Some(ValueRef::Float(-v)),
        ValueRef::Bool(_) | ValueRef::Str(_) => None,
    }
}

/// A predicate's result in value position.
pub(crate) fn truth_value(t: Truth) -> Option<ValueRef<'static>> {
    match t {
        Truth::True => Some(ValueRef::Bool(true)),
        Truth::False => Some(ValueRef::Bool(false)),
        Truth::Unknown => None,
    }
}

/// A value in boolean position: only a boolean has a truth.
pub(crate) fn value_truth(v: Option<ValueRef<'_>>) -> Truth {
    match v {
        Some(ValueRef::Bool(b)) => Truth::from(b),
        _ => Truth::Unknown,
    }
}

/// SQL-92 arithmetic: exact on integers, promoting to float when mixed;
/// non-numeric operands and division by integer zero yield unknown.
pub(crate) fn arith(op: ArithOp, a: ValueRef<'_>, b: ValueRef<'_>) -> Option<ValueRef<'static>> {
    match (a, b) {
        (ValueRef::Int(x), ValueRef::Int(y)) => Some(ValueRef::Int(match op {
            ArithOp::Add => x.wrapping_add(y),
            ArithOp::Sub => x.wrapping_sub(y),
            ArithOp::Mul => x.wrapping_mul(y),
            ArithOp::Div if y == 0 => return None,
            ArithOp::Div => x.wrapping_div(y),
        })),
        _ => {
            let (x, y) = (a.numeric()?, b.numeric()?);
            Some(ValueRef::Float(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            }))
        }
    }
}

/// Evaluates an expression to a truth value.
fn truth_of<P: PropertySource + ?Sized>(expr: &Expr, props: &P) -> Truth {
    match expr {
        Expr::Not(e) => truth_of(e, props).not(),
        Expr::And(a, b) => {
            // Short-circuit on definite False, preserving three-valued
            // semantics (False AND anything = False).
            let ta = truth_of(a, props);
            if ta == Truth::False {
                return Truth::False;
            }
            ta.and(truth_of(b, props))
        }
        Expr::Or(a, b) => {
            let ta = truth_of(a, props);
            if ta == Truth::True {
                return Truth::True;
            }
            ta.or(truth_of(b, props))
        }
        Expr::Cmp { op, lhs, rhs } => match (value_of(lhs, props), value_of(rhs, props)) {
            (Some(a), Some(b)) => compare(*op, a, b),
            _ => Truth::Unknown,
        },
        Expr::Between { expr, lo, hi, negated } => {
            let (v, l, h) = (value_of(expr, props), value_of(lo, props), value_of(hi, props));
            match (v, l, h) {
                (Some(v), Some(l), Some(h)) => between(v, l, h).negated_if(*negated),
                _ => Truth::Unknown,
            }
        }
        // IN and LIKE apply to strings only.
        Expr::InList { expr, list, negated } => match value_of(expr, props) {
            Some(ValueRef::Str(s)) => Truth::from(list.iter().any(|c| c == s)).negated_if(*negated),
            _ => Truth::Unknown,
        },
        Expr::Like { expr, pattern, escape, negated } => match value_of(expr, props) {
            Some(ValueRef::Str(s)) => {
                Truth::from(like_match(s, pattern, *escape)).negated_if(*negated)
            }
            _ => Truth::Unknown,
        },
        Expr::IsNull { expr, negated } => {
            let is_null = value_of(expr, props).is_none();
            // IS NULL is the one operator that never yields unknown.
            Truth::from(is_null != *negated)
        }
        // A bare value in boolean position: TRUE literal or boolean property.
        other => value_truth(value_of(other, props)),
    }
}

/// `v BETWEEN lo AND hi`: sugar for `v >= lo AND v <= hi`.
pub(crate) fn between(v: ValueRef<'_>, lo: ValueRef<'_>, hi: ValueRef<'_>) -> Truth {
    compare(CmpOp::Ge, v, lo).and(compare(CmpOp::Le, v, hi))
}

/// SQL-92 comparison: two integers compare exactly, an integer and a float
/// after numeric promotion; strings and booleans know `=` and `<>` only.
#[inline]
pub(crate) fn compare(op: CmpOp, a: ValueRef<'_>, b: ValueRef<'_>) -> Truth {
    let ordering = match (op, a, b) {
        (CmpOp::Eq, ..) => return Truth::from(a.sql_eq(b)),
        (CmpOp::Ne, ..) => return Truth::from(a.sql_eq(b).map(|equal| !equal)),
        (_, ValueRef::Int(x), ValueRef::Int(y)) => Some(x.cmp(&y)),
        _ => match (a.numeric(), b.numeric()) {
            (Some(x), Some(y)) => x.partial_cmp(&y),
            _ => return Truth::Unknown,
        },
    };
    Truth::from(holds(op, ordering))
}

/// Whether `op` holds of two operands in this `ordering`; `None` when one
/// is a NaN: every ordering test and `=` are then false, `<>` true.
#[inline]
pub(crate) fn holds(op: CmpOp, ordering: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    match op {
        CmpOp::Eq => ordering == Some(Equal),
        CmpOp::Ne => ordering != Some(Equal),
        CmpOp::Lt => ordering == Some(Less),
        CmpOp::Le => matches!(ordering, Some(Less | Equal)),
        CmpOp::Gt => ordering == Some(Greater),
        CmpOp::Ge => matches!(ordering, Some(Greater | Equal)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    fn props(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
    }

    fn eval_str(selector: &str, pairs: &[(&str, Value)]) -> Truth {
        evaluate(&parse(selector).unwrap(), &props(pairs))
    }

    #[test]
    fn simple_equality() {
        assert_eq!(eval_str("color = 'red'", &[("color", "red".into())]), Truth::True);
        assert_eq!(eval_str("color = 'red'", &[("color", "blue".into())]), Truth::False);
    }

    #[test]
    fn missing_property_is_unknown() {
        assert_eq!(eval_str("color = 'red'", &[]), Truth::Unknown);
        assert_eq!(eval_str("NOT color = 'red'", &[]), Truth::Unknown);
    }

    #[test]
    fn numeric_promotion_in_comparison() {
        assert_eq!(eval_str("x = 3.0", &[("x", 3i64.into())]), Truth::True);
        assert_eq!(eval_str("x < 3.5", &[("x", 3i64.into())]), Truth::True);
    }

    #[test]
    fn cross_type_comparison_is_unknown() {
        assert_eq!(eval_str("x = 'red'", &[("x", 3i64.into())]), Truth::Unknown);
        assert_eq!(eval_str("x < 'red'", &[("x", 3i64.into())]), Truth::Unknown);
        assert_eq!(eval_str("b > 0", &[("b", true.into())]), Truth::Unknown);
    }

    #[test]
    fn three_valued_and_or() {
        // False AND Unknown = False; True OR Unknown = True.
        assert_eq!(eval_str("a = 1 AND missing = 2", &[("a", 2i64.into())]), Truth::False);
        assert_eq!(eval_str("a = 2 OR missing = 2", &[("a", 2i64.into())]), Truth::True);
        assert_eq!(eval_str("a = 2 AND missing = 2", &[("a", 2i64.into())]), Truth::Unknown);
    }

    #[test]
    fn arithmetic_in_predicates() {
        assert_eq!(eval_str("a + b = 5", &[("a", 2i64.into()), ("b", 3i64.into())]), Truth::True);
        assert_eq!(eval_str("a * 2 > 5", &[("a", 3i64.into())]), Truth::True);
        assert_eq!(eval_str("a / 2 = 1", &[("a", 3i64.into())]), Truth::True); // int div
        assert_eq!(eval_str("a / 2.0 = 1.5", &[("a", 3i64.into())]), Truth::True);
    }

    #[test]
    fn division_by_integer_zero_is_unknown() {
        assert_eq!(eval_str("a / 0 = 1", &[("a", 3i64.into())]), Truth::Unknown);
        // Float division by zero follows IEEE (inf), which compares normally.
        assert_eq!(eval_str("a / 0.0 > 1000", &[("a", 3i64.into())]), Truth::True);
    }

    #[test]
    fn between_inclusive() {
        let p: &[(&str, Value)] = &[("w", 5i64.into())];
        assert_eq!(eval_str("w BETWEEN 5 AND 10", p), Truth::True);
        assert_eq!(eval_str("w BETWEEN 1 AND 5", p), Truth::True);
        assert_eq!(eval_str("w BETWEEN 6 AND 10", p), Truth::False);
        assert_eq!(eval_str("w NOT BETWEEN 6 AND 10", p), Truth::True);
        assert_eq!(eval_str("w BETWEEN 1 AND missing", p), Truth::Unknown);
    }

    #[test]
    fn in_list_semantics() {
        let p: &[(&str, Value)] = &[("c", "UK".into())];
        assert_eq!(eval_str("c IN ('UK', 'US')", p), Truth::True);
        assert_eq!(eval_str("c IN ('DE')", p), Truth::False);
        assert_eq!(eval_str("c NOT IN ('DE')", p), Truth::True);
        assert_eq!(eval_str("missing IN ('DE')", &[]), Truth::Unknown);
        // IN on a non-string property is unknown.
        assert_eq!(eval_str("n IN ('5')", &[("n", 5i64.into())]), Truth::Unknown);
    }

    #[test]
    fn is_null_never_unknown() {
        assert_eq!(eval_str("missing IS NULL", &[]), Truth::True);
        assert_eq!(eval_str("missing IS NOT NULL", &[]), Truth::False);
        assert_eq!(eval_str("x IS NULL", &[("x", 1i64.into())]), Truth::False);
        assert_eq!(eval_str("x IS NOT NULL", &[("x", 1i64.into())]), Truth::True);
    }

    #[test]
    fn boolean_property_in_boolean_position() {
        assert_eq!(eval_str("urgent", &[("urgent", true.into())]), Truth::True);
        assert_eq!(eval_str("urgent", &[("urgent", false.into())]), Truth::False);
        assert_eq!(eval_str("urgent", &[]), Truth::Unknown);
        // Non-boolean property in boolean position is unknown, not an error.
        assert_eq!(eval_str("urgent", &[("urgent", 1i64.into())]), Truth::Unknown);
    }

    #[test]
    fn like_expression_integration() {
        assert_eq!(eval_str("phone LIKE '12%3'", &[("phone", "12993".into())]), Truth::True);
        assert_eq!(eval_str("phone NOT LIKE '12%3'", &[("phone", "12994".into())]), Truth::True);
        assert_eq!(eval_str("phone LIKE '12%3'", &[]), Truth::Unknown);
    }

    #[test]
    fn matches_only_on_true() {
        let e = parse("missing = 1").unwrap();
        assert!(!matches(&e, &props(&[])));
        let e = parse("1 = 1").unwrap();
        assert!(matches(&e, &props(&[])));
    }

    #[test]
    fn jms_spec_example() {
        // The canonical example from the JMS spec §3.8.1.1.
        let sel = "JMSType = 'car' AND color = 'blue' AND weight > 2500";
        let p = props(&[
            ("JMSType", "car".into()),
            ("color", "blue".into()),
            ("weight", 3000i64.into()),
        ]);
        assert_eq!(evaluate(&parse(sel).unwrap(), &p), Truth::True);
    }

    #[test]
    fn slice_property_source() {
        let pairs = vec![("a".to_owned(), Value::Int(1))];
        let e = parse("a = 1").unwrap();
        assert!(matches(&e, pairs.as_slice()));
    }
}
