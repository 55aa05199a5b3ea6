//! JMS 1.1 §3.8.1 conformance table: selector syntax and semantics cases
//! drawn from the specification text and its examples, evaluated against
//! fixed property sets by both evaluators: the tree-walking reference and
//! the compiled program a [`Selector`] runs.

use rjms_selector::value::{Truth, Value};
use rjms_selector::{evaluate, parse, Selector};
use std::collections::HashMap;

fn props(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
}

#[track_caller]
fn check(selector: &str, pairs: &[(&str, Value)], expect: Truth) {
    let expr = parse(selector).unwrap_or_else(|e| panic!("`{selector}` must parse: {e}"));
    let props = props(pairs);
    assert_eq!(evaluate(&expr, &props), expect, "selector `{selector}`, tree walker");
    let compiled = Selector::parse(selector).unwrap();
    assert_eq!(compiled.evaluate(&props), expect, "selector `{selector}`, program");
    assert_eq!(compiled.matches(&props), expect == Truth::True, "selector `{selector}`");
}

#[test]
fn spec_example_selector() {
    // "JMSType = 'car' AND color = 'blue' AND weight > 2500" (§3.8.1.1).
    let sel = "JMSType = 'car' AND color = 'blue' AND weight > 2500";
    check(
        sel,
        &[("JMSType", "car".into()), ("color", "blue".into()), ("weight", 3000i64.into())],
        Truth::True,
    );
    check(
        sel,
        &[("JMSType", "car".into()), ("color", "red".into()), ("weight", 3000i64.into())],
        Truth::False,
    );
}

#[test]
fn identifiers_are_case_sensitive_keywords_are_not() {
    check("Age = 10 and AGE = 20", &[("Age", 10i64.into()), ("AGE", 20i64.into())], Truth::True);
    assert!(parse("a BeTwEeN 1 AnD 3").is_ok());
}

#[test]
fn reserved_words_rejected_as_identifiers() {
    for kw in ["NULL", "NOT", "AND", "OR", "BETWEEN", "LIKE", "IN", "IS", "ESCAPE"] {
        assert!(
            parse(&format!("{kw} = 1")).is_err(),
            "reserved word `{kw}` must not parse as an identifier"
        );
    }
    // TRUE/FALSE are *literals*, not identifiers: `TRUE = 1` parses (and
    // evaluates to unknown — boolean vs number), but they can never bind a
    // property value.
    check("TRUE = 1", &[("TRUE", 1i64.into())], Truth::Unknown);
    check("FALSE = FALSE", &[], Truth::True);
}

#[test]
fn numeric_literal_forms() {
    check("x = 57", &[("x", 57i64.into())], Truth::True);
    check("x = 57.0", &[("x", 57i64.into())], Truth::True);
    check("x = 5.7E1", &[("x", 57i64.into())], Truth::True);
    check("x = +57", &[("x", 57i64.into())], Truth::True);
    check("x = -57", &[("x", (-57i64).into())], Truth::True);
}

#[test]
fn string_literals_single_quotes_doubled_escape() {
    check("s = 'literal'", &[("s", "literal".into())], Truth::True);
    check("s = 'literal''s'", &[("s", "literal's".into())], Truth::True);
    // String comparison is case sensitive.
    check("s = 'Literal'", &[("s", "literal".into())], Truth::False);
}

#[test]
fn between_is_inclusive_sugar() {
    // "age BETWEEN 15 AND 19 is equivalent to age >= 15 AND age <= 19".
    for age in [14i64, 15, 17, 19, 20] {
        let expect = Truth::from((15..=19).contains(&age));
        check("age BETWEEN 15 AND 19", &[("age", age.into())], expect);
        check("age >= 15 AND age <= 19", &[("age", age.into())], expect);
    }
    // "age NOT BETWEEN 15 AND 19" ≡ "age < 15 OR age > 19".
    check("age NOT BETWEEN 15 AND 19", &[("age", 20i64.into())], Truth::True);
}

#[test]
fn in_list_spec_semantics() {
    // "Country IN ('UK', 'US', 'France')".
    let sel = "Country IN ('UK', 'US', 'France')";
    check(sel, &[("Country", "UK".into())], Truth::True);
    check(sel, &[("Country", "Peru".into())], Truth::False);
    // Equivalent to the OR expansion.
    check(
        "Country = 'UK' OR Country = 'US' OR Country = 'France'",
        &[("Country", "UK".into())],
        Truth::True,
    );
    // "If identifier of an IN ... operation is NULL, the value ... is
    // unknown."
    check(sel, &[], Truth::Unknown);
    check("Country NOT IN ('UK')", &[], Truth::Unknown);
}

#[test]
fn like_spec_examples() {
    // phone LIKE '12%3' — '123' and '12993' true, '1234' false.
    check("phone LIKE '12%3'", &[("phone", "123".into())], Truth::True);
    check("phone LIKE '12%3'", &[("phone", "12993".into())], Truth::True);
    check("phone LIKE '12%3'", &[("phone", "1234".into())], Truth::False);
    // word LIKE 'l_se' — 'lose' true, 'loose' false.
    check("word LIKE 'l_se'", &[("word", "lose".into())], Truth::True);
    check("word LIKE 'l_se'", &[("word", "loose".into())], Truth::False);
    // underscored LIKE '\_%' ESCAPE '\' — '_foo' true, 'bar' false.
    check(r"underscored LIKE '\_%' ESCAPE '\'", &[("underscored", "_foo".into())], Truth::True);
    check(r"underscored LIKE '\_%' ESCAPE '\'", &[("underscored", "bar".into())], Truth::False);
    // NULL identifier → unknown.
    check("phone NOT LIKE '12%3'", &[], Truth::Unknown);
}

#[test]
fn is_null_spec_examples() {
    // "prop_name IS NULL" — true when the property is absent.
    check("prop_name IS NULL", &[], Truth::True);
    check("prop_name IS NULL", &[("prop_name", 1i64.into())], Truth::False);
    check("prop_name IS NOT NULL", &[("prop_name", 1i64.into())], Truth::True);
}

#[test]
fn three_valued_logic_tables() {
    // §3.8.1.2: SQL 92 NULL semantics.
    // unknown AND false = false
    check("missing = 1 AND 1 = 2", &[], Truth::False);
    // unknown AND true = unknown
    check("missing = 1 AND 1 = 1", &[], Truth::Unknown);
    // unknown OR true = true
    check("missing = 1 OR 1 = 1", &[], Truth::True);
    // unknown OR false = unknown
    check("missing = 1 OR 1 = 2", &[], Truth::Unknown);
    // NOT unknown = unknown
    check("NOT missing = 1", &[], Truth::Unknown);
}

#[test]
fn arithmetic_precedence_and_unary() {
    check(
        "a + b * c = 7",
        &[("a", 1i64.into()), ("b", 2i64.into()), ("c", 3i64.into())],
        Truth::True,
    );
    check(
        "(a + b) * c = 9",
        &[("a", 1i64.into()), ("b", 2i64.into()), ("c", 3i64.into())],
        Truth::True,
    );
    check("-a = -5", &[("a", 5i64.into())], Truth::True);
    check("a - -b = 8", &[("a", 5i64.into()), ("b", 3i64.into())], Truth::True);
}

#[test]
fn comparison_of_exact_and_approximate_numerics() {
    // "Comparison ... of exact and approximate numeric values is allowed".
    check("f > 2", &[("f", 2.5f64.into())], Truth::True);
    check("i < 2.7", &[("i", 2i64.into())], Truth::True);
    check("i = 2.0", &[("i", 2i64.into())], Truth::True);
}

#[test]
fn integers_compare_exactly_beyond_f64_precision() {
    // 2^53 and 2^53 + 1 round to the same f64; as integers they differ.
    let (even, odd) = (9_007_199_254_740_992i64, 9_007_199_254_740_993i64);
    let id = |v: i64| [("id", Value::from(v))];
    check("id = 9007199254740993", &id(even), Truth::False);
    check("id <> 9007199254740993", &id(even), Truth::True);
    check("id = 9007199254740993", &id(odd), Truth::True);
    check("id < 9007199254740993", &id(even), Truth::True);
    check("id >= 9007199254740993", &id(even), Truth::False);
    check("id > 9007199254740992", &id(odd), Truth::True);
    check("id <= 9007199254740992", &id(odd), Truth::False);
    check("id BETWEEN 9007199254740993 AND 9007199254740993", &id(even), Truth::False);
    check("id BETWEEN 9007199254740993 AND 9007199254740993", &id(odd), Truth::True);
    check("id + 1 = 9007199254740994", &id(odd), Truth::True);
    check("id + 1 > 9007199254740993", &id(even), Truth::False);
    // An integer against a float still promotes (SQL-92), where the two
    // neighbours are one value.
    check("id = 9007199254740992.0", &id(odd), Truth::True);
}

#[test]
fn string_and_boolean_restricted_to_equality() {
    // "String and Boolean comparison is restricted to = and <>."
    check("s = 'a'", &[("s", "a".into())], Truth::True);
    check("s <> 'b'", &[("s", "a".into())], Truth::True);
    check("s > 'a'", &[("s", "b".into())], Truth::Unknown);
    check("b = TRUE", &[("b", true.into())], Truth::True);
    check("b <> FALSE", &[("b", true.into())], Truth::True);
    check("b >= TRUE", &[("b", true.into())], Truth::Unknown);
}

#[test]
fn type_mismatch_yields_unknown_not_error() {
    // "...comparing a boolean and a string ... the value of the expression
    // is unknown" — never a runtime error.
    check("s = 1", &[("s", "1".into())], Truth::Unknown);
    check("n = TRUE", &[("n", 1i64.into())], Truth::Unknown);
    check("n + s = 2", &[("n", 1i64.into()), ("s", "1".into())], Truth::Unknown);
}

/// Type conflicts a static analysis could flag, as facts about
/// evaluation: over a property that is a number, a string or absent, a
/// selector that needs one property to be two types, or an operator on a
/// literal of the wrong type, is unknown or false, never true.
#[test]
fn type_conflicts_are_never_true() {
    let x = |v: Value| [("x", v)];
    // A number fails `LIKE`, a string fails `>`: where one conjunct could
    // hold, the other is unknown.
    let sel = "x > 5 AND x LIKE 'a%'";
    check(sel, &x(7i64.into()), Truth::Unknown);
    check(sel, &x(3i64.into()), Truth::False);
    check(sel, &x("abc".into()), Truth::Unknown);
    check(sel, &x("b".into()), Truth::False);
    check(sel, &[], Truth::Unknown);
    // Equality binds the property's type through its literal.
    let sel = "x = 'alice' AND x = 5";
    check(sel, &x("alice".into()), Truth::Unknown);
    check(sel, &x(5i64.into()), Truth::Unknown);
    check(sel, &[], Truth::Unknown);
    // Arithmetic makes its operands numbers.
    let sel = "x + y > 10 AND x LIKE 'a%'";
    check(sel, &[("x", 7i64.into()), ("y", 5i64.into())], Truth::Unknown);
    check(sel, &[("x", "abc".into()), ("y", 5i64.into())], Truth::Unknown);
    check(sel, &[], Truth::Unknown);
    // A literal of the wrong type: unknown whatever the message holds.
    for sel in ["5 LIKE '5%'", "'a' BETWEEN 1 AND 2", "1 = 'one'"] {
        for props in [&x(5i64.into())[..], &x("5".into()), &[]] {
            check(sel, props, Truth::Unknown);
        }
    }
    // A number in a boolean position is unknown; the other disjunct can
    // still make the selector true.
    let sel = "x = 1 OR 5 + 3";
    check(sel, &x(1i64.into()), Truth::True);
    check(sel, &x(2i64.into()), Truth::Unknown);
    check(sel, &[], Truth::Unknown);
}

/// A constant comparison decides the selector before any property does:
/// `1 = 2 AND …` is false, `1 = 1` true, on every message.
#[test]
fn constant_selectors_ignore_the_message() {
    for props in [&[("x", Value::from(7i64))][..], &[("x", "abc".into())], &[]] {
        check("1 = 2", props, Truth::False);
        check("TRUE AND FALSE", props, Truth::False);
        check("1 = 2 AND x > 5", props, Truth::False);
        check("1 = 1", props, Truth::True);
        check("1 = 1 OR x LIKE 'a%'", props, Truth::True);
    }
}

#[test]
fn whitespace_is_insignificant() {
    let a = Selector::parse("a=1 AND b=2").unwrap();
    let b = Selector::parse("  a \t=\n 1   AND b = 2 ").unwrap();
    assert_eq!(a.expr(), b.expr());
}

#[test]
fn invalid_syntax_rejected() {
    for bad in [
        "",
        "=",
        "a =",
        "a = 1 AND",
        "a BETWEEN 1",
        "a IN ()",
        "a IN ('x',)",
        "a LIKE",
        "a IS",
        "a IS NOT",
        "(a = 1",
        "a = 1)",
        "a == 1",
        "a != 1",
        "'unclosed",
    ] {
        assert!(parse(bad).is_err(), "`{bad}` must be rejected");
    }
}
