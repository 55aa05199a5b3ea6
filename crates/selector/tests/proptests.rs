//! Property-based tests for the selector language.
//!
//! Four core invariants:
//! 1. **Display → reparse round-trip**: pretty-printing any AST produces a
//!    selector string that parses back to the identical AST.
//! 2. **Evaluator totality**: evaluation never panics, for arbitrary ASTs
//!    against arbitrary property maps.
//! 3. **Program ≡ tree walker**: the compiled program gives the reference
//!    evaluator's answer, on operands chosen to disagree if anything can.
//! 4. **Column ≡ row by row ≡ program**: a run of compact rows evaluated as
//!    a column hits exactly the rows that hold.
//!
//! `PROPTEST_CASES` sets the case count of the last two.

use proptest::prelude::*;
use rjms_selector::ast::{ArithOp, CmpOp, Expr};
use rjms_selector::eval::evaluate;
use rjms_selector::program::{CmpColumn, Names};
use rjms_selector::value::Value;
use rjms_selector::{parse, Program, Selector};
use std::collections::HashMap;

/// Strategy for property identifiers that are not reserved words.
fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_]{0,8}".prop_filter("not a keyword", |s| {
        !matches!(
            s.to_ascii_uppercase().as_str(),
            "AND"
                | "OR"
                | "NOT"
                | "BETWEEN"
                | "IN"
                | "LIKE"
                | "ESCAPE"
                | "IS"
                | "NULL"
                | "TRUE"
                | "FALSE"
        )
    })
}

/// Strategy for literal values.
///
/// Floats are restricted to finite values with an exact decimal
/// representation round-trip (proptest's f64 can produce values whose
/// Display→parse round-trip is exact in Rust, which is what we rely on).
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-zA-Z0-9 '%_]{0,12}".prop_map(Value::Str),
    ]
}

/// Strategy for arbitrary selector expressions.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        value_strategy().prop_map(Expr::Literal),
        ident_strategy().prop_map(Expr::Ident),
    ];
    expr_strategy_over(leaf, "[a-zA-Z0-9']{0,8}", "[a-zA-Z0-9%_]{0,10}", Just(None))
}

/// Expressions over the given leaves, `IN` list members, `LIKE` patterns
/// and `LIKE` escapes.
fn expr_strategy_over(
    leaf: impl Strategy<Value = Expr> + 'static,
    in_member: &'static str,
    like_pattern: &'static str,
    like_escape: impl Strategy<Value = Option<char>> + Clone + 'static,
) -> impl Strategy<Value = Expr> {
    leaf.prop_recursive(5, 64, 4, move |inner| {
        let like_escape = like_escape.clone();
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (cmp_op_strategy(), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
            (
                prop_oneof![
                    Just(ArithOp::Add),
                    Just(ArithOp::Sub),
                    Just(ArithOp::Mul),
                    Just(ArithOp::Div)
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::arith(op, a, b)),
            // Expr::neg folds literal negation, matching parser canonical form.
            inner.clone().prop_map(Expr::neg),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| Expr::Between {
                    expr: Box::new(e),
                    lo: Box::new(lo),
                    hi: Box::new(hi),
                    negated,
                }
            ),
            (inner.clone(), prop::collection::vec(in_member, 1..4), any::<bool>())
                .prop_map(|(e, list, negated)| Expr::InList { expr: Box::new(e), list, negated }),
            (inner.clone(), like_pattern, like_escape, any::<bool>()).prop_map(
                |(e, pattern, escape, negated)| Expr::Like {
                    expr: Box::new(e),
                    pattern,
                    escape,
                    negated,
                }
            ),
            (inner.clone(), any::<bool>())
                .prop_map(|(e, negated)| Expr::IsNull { expr: Box::new(e), negated }),
        ]
    })
}

/// Strategy for property maps.
fn props_strategy() -> impl Strategy<Value = HashMap<String, Value>> {
    prop::collection::hash_map(ident_strategy(), value_strategy(), 0..6)
}

/// Compares expressions structurally, treating float literals as equal when
/// both bit patterns match after a Display/parse round-trip (our Display
/// prints shortest-round-trip floats, so exact equality holds).
fn expr_eq(a: &Expr, b: &Expr) -> bool {
    a == b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_reparse_roundtrip(expr in expr_strategy()) {
        let printed = expr.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert!(
            expr_eq(&expr, &reparsed),
            "round-trip mismatch:\n  original: {expr:?}\n  printed:  {printed}\n  reparsed: {reparsed:?}"
        );
    }

    #[test]
    fn evaluation_never_panics(expr in expr_strategy(), props in props_strategy()) {
        // Totality: any AST against any property map evaluates to a Truth.
        let _ = evaluate(&expr, &props);
    }

    #[test]
    fn negation_involution(expr in expr_strategy(), props in props_strategy()) {
        // NOT (NOT e) has the same truth value as e.
        let double = Expr::Not(Box::new(Expr::Not(Box::new(expr.clone()))));
        prop_assert_eq!(evaluate(&expr, &props), evaluate(&double, &props));
    }

    #[test]
    fn and_is_commutative(
        a in expr_strategy(),
        b in expr_strategy(),
        props in props_strategy()
    ) {
        let ab = Expr::And(Box::new(a.clone()), Box::new(b.clone()));
        let ba = Expr::And(Box::new(b), Box::new(a));
        prop_assert_eq!(evaluate(&ab, &props), evaluate(&ba, &props));
    }

    #[test]
    fn de_morgan(
        a in expr_strategy(),
        b in expr_strategy(),
        props in props_strategy()
    ) {
        // NOT (a AND b) == (NOT a) OR (NOT b) in three-valued logic.
        let lhs = Expr::Not(Box::new(Expr::And(Box::new(a.clone()), Box::new(b.clone()))));
        let rhs = Expr::Or(
            Box::new(Expr::Not(Box::new(a))),
            Box::new(Expr::Not(Box::new(b))),
        );
        prop_assert_eq!(evaluate(&lhs, &props), evaluate(&rhs, &props));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "[ -~]{0,64}") {
        // Arbitrary printable ASCII must either parse or produce an error —
        // never a panic.
        let _ = Selector::parse(&input);
    }

    #[test]
    fn selector_matches_equals_truth_true(
        expr in expr_strategy(),
        props in props_strategy()
    ) {
        use rjms_selector::value::Truth;
        let m = rjms_selector::eval::matches(&expr, &props);
        prop_assert_eq!(m, evaluate(&expr, &props) == Truth::True);
    }
}

/// The identifiers of the differential test: few enough that a selector
/// and a property map often meet, and every `JMS*` header among them.
const NAMES: [&str; 10] = [
    "a",
    "b",
    "c",
    "name",
    "JMSMessageID",
    "JMSTimestamp",
    "JMSCorrelationID",
    "JMSType",
    "JMSPriority",
    "JMSExpiration",
];

/// Operands where an evaluator is most likely to slip: the ends of `i64`,
/// integers an `f64` cannot tell apart, zero divisors, NaN and the
/// infinities, and strings that `LIKE` and `IN` can hit.
fn edge_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        prop::sample::select(EDGE_INTS.to_vec()).prop_map(Value::Int),
        (-4i64..4).prop_map(Value::Int),
        prop::sample::select(EDGE_FLOATS.to_vec()).prop_map(Value::Float),
        "[ab%_\\\\]{0,3}".prop_map(Value::Str),
    ]
}

/// The ends of `i64` and the integers around 2⁵³, where an `f64` stops
/// telling neighbours apart.
const EDGE_INTS: [i64; 11] = [
    i64::MIN,
    i64::MIN + 1,
    -1,
    0,
    1,
    2,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    i64::MAX - 1,
    i64::MAX,
];

/// NaN, the infinities, both zeros and floats equal to integers.
const EDGE_FLOATS: [f64; 9] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    0.5,
    1.0,
    (1u64 << 53) as f64,
    i64::MAX as f64,
];

/// `=`, `<>`, `<`, `<=`, `>`, `>=`.
fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge])
}

/// Besides literals and identifiers, the leaves are the predicates a
/// program treats specially, on an identifier so that they often meet a
/// property: `ident <cmp> literal` and `literal <cmp> ident` (one
/// instruction, and a row when it is the whole selector), `IN` (binary
/// search) and `LIKE` (pre-parsed pattern, with and without an escape).
fn edge_expr_strategy() -> impl Strategy<Value = Expr> {
    const WORD: &str = "[ab%_\\\\]{0,2}";
    const PATTERN: &str = "[ab%_\\\\]{0,5}";
    let ident = || prop::sample::select(NAMES.to_vec()).prop_map(|n| Expr::Ident(n.to_owned()));
    let literal = || edge_value_strategy().prop_map(Expr::Literal);
    let escape = || prop::option::of(prop::sample::select(vec!['\\', '%', 'a']));
    let leaf = prop_oneof![
        literal(),
        ident(),
        (cmp_op_strategy(), ident(), literal()).prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
        (cmp_op_strategy(), literal(), ident()).prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
        (ident(), prop::collection::vec(WORD, 1..6), any::<bool>())
            .prop_map(|(e, list, negated)| Expr::InList { expr: Box::new(e), list, negated }),
        (ident(), PATTERN, escape(), any::<bool>()).prop_map(|(e, pattern, escape, negated)| {
            Expr::Like { expr: Box::new(e), pattern, escape, negated }
        }),
    ];
    expr_strategy_over(leaf, WORD, PATTERN, escape())
}

/// Some of [`NAMES`] set, the rest missing.
fn edge_props_strategy() -> impl Strategy<Value = HashMap<String, Value>> {
    prop::collection::hash_map(
        prop::sample::select(NAMES.to_vec()).prop_map(str::to_owned),
        edge_value_strategy(),
        0..8,
    )
}

proptest! {
    #[test]
    fn program_agrees_with_the_tree_walker(
        expr in edge_expr_strategy(),
        props in edge_props_strategy()
    ) {
        let reference = evaluate(&expr, &props);
        let program = Program::compile(&expr);
        prop_assert_eq!(program.evaluate(&props), reference, "by name: {}", expr);
        // The broker's way: bound to a table that other selectors share,
        // which is resolved against the message once and read by slot.
        let mut table = Names::default();
        for name in NAMES.iter().rev() {
            table.intern(name);
        }
        let bound = program.bind(&mut table);
        let resolved: Vec<_> =
            table.as_slice().iter().map(|n| props.get(n).map(Value::as_ref)).collect();
        prop_assert_eq!(bound.run(&resolved), reference, "by slot: {}", expr);
        if let Some(row) = bound.as_row() {
            prop_assert_eq!(row.run(&resolved), reference, "by row: {}", expr);
        }
    }
}

/// The table of the column test: a run's slot is one of these names.
const SLOTS: [&str; 4] = ["a", "b", "c", "d"];

/// A run of compact rows of one shape: one slot, one operator, the literal
/// on one side, and 1–40 literals of one kind.
fn column_strategy() -> impl Strategy<Value = Vec<Expr>> {
    let ints = prop_oneof![prop::sample::select(EDGE_INTS.to_vec()), -4i64..4];
    let literals = prop_oneof![
        prop::collection::vec(ints.prop_map(Value::Int), 1..40),
        prop::collection::vec(
            prop::sample::select(EDGE_FLOATS.to_vec()).prop_map(Value::Float),
            1..40
        ),
        prop::collection::vec(any::<bool>().prop_map(Value::Bool), 1..40),
    ];
    let slot = prop::sample::select(SLOTS.to_vec());
    (slot, cmp_op_strategy(), any::<bool>(), literals).prop_map(
        |(name, op, literal_first, literals)| {
            let cmp = |literal| {
                let (ident, literal) = (Expr::Ident(name.to_owned()), Expr::Literal(literal));
                if literal_first {
                    Expr::cmp(op, literal, ident)
                } else {
                    Expr::cmp(op, ident, literal)
                }
            };
            literals.into_iter().map(cmp).collect()
        },
    )
}

proptest! {
    /// The kernel that evaluates a run as a column hits exactly the rows
    /// whose own `CmpRow::run` is true, and each row answers what its
    /// program does, on values that are missing, integers an `f64` cannot
    /// tell apart, NaN, ±0, ±∞, booleans and strings.
    #[test]
    fn a_column_hits_exactly_the_rows_that_hold(
        exprs in column_strategy(),
        values in prop::collection::vec(prop::option::of(edge_value_strategy()), SLOTS.len())
    ) {
        let mut table = Names::default();
        for name in SLOTS {
            table.intern(name);
        }
        let bound: Vec<_> = exprs.iter().map(|e| Program::compile(e).bind(&mut table)).collect();
        let rows: Vec<_> = bound.iter().map(|b| b.as_row().expect("a compact row")).collect();
        let mut column = CmpColumn::new(rows[0]);
        for row in &rows[1..] {
            prop_assert_eq!(column.push(*row), Ok(()));
        }
        let resolved: Vec<_> = values.iter().map(|v| v.as_ref().map(Value::as_ref)).collect();
        let mut hits = Vec::new();
        column.run(&resolved, |at| hits.push(at));
        let holding: Vec<usize> =
            (0..rows.len()).filter(|at| rows[*at].run(&resolved).is_true()).collect();
        prop_assert_eq!(hits, holding, "{:?} on {:?}", exprs, values);
        for ((row, program), expr) in rows.iter().zip(&bound).zip(&exprs) {
            prop_assert_eq!(row.run(&resolved), program.run(&resolved), "{} on {:?}", expr, values);
        }
    }
}

/// What keeps its program: anything but one comparison of an identifier
/// with a number or a boolean, and a slot a `u16` cannot hold.
#[test]
fn only_one_comparison_with_a_scalar_literal_has_a_row() {
    let compile = |source: &str| Program::compile(&parse(source).unwrap());
    let mut table = Names::default();
    for source in ["key = 'red'", "key = 7 AND key = 7", "key = other", "key + 1 = 2", "key"] {
        assert_eq!(compile(source).bind(&mut table).as_row(), None, "{source}");
    }
    let mut wide = Names::default();
    for i in 0..=u32::from(u16::MAX) {
        wide.intern(&format!("p{i}"));
    }
    assert!(compile("p65535 = 7").bind(&mut wide).as_row().is_some());
    assert!(compile("late = 7").bind(&mut wide).as_row().is_none());
}

#[test]
fn like_match_agrees_with_naive_regex_semantics() {
    // Differential test of the LIKE matcher against a naive recursive
    // implementation on a crafted corpus.
    fn naive(text: &[char], pat: &[char]) -> bool {
        match (text.first(), pat.first()) {
            (_, None) => text.is_empty(),
            (_, Some('%')) => (0..=text.len()).any(|k| naive(&text[k..], &pat[1..])),
            (Some(t), Some('_')) => {
                let _ = t;
                naive(&text[1..], &pat[1..])
            }
            (Some(t), Some(p)) => *t == *p && naive(&text[1..], &pat[1..]),
            (None, Some(_)) => false,
        }
    }
    let texts = ["", "a", "ab", "abc", "aab", "banana", "aaaa", "xyz"];
    let pats = ["", "%", "_", "a%", "%a", "a_c", "%an%", "a%a", "____", "%%b", "b_n_n_"];
    for t in texts {
        for p in pats {
            let tc: Vec<char> = t.chars().collect();
            let pc: Vec<char> = p.chars().collect();
            assert_eq!(
                rjms_selector::eval::like_match(t, p, None),
                naive(&tc, &pc),
                "mismatch for text={t:?} pattern={p:?}"
            );
        }
    }
}
