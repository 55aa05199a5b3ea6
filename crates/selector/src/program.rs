//! Compiled selectors.
//!
//! [`Program::compile`] flattens an [`Expr`] tree, in one pass, into a
//! vector of [`Op`]s that refer to each other by index:
//!
//! * an identifier becomes a *slot*, an index into the program's own list
//!   of the distinct names it references ([`Program::names`]).
//!   [`Program::evaluate`] looks a slot's name up in a property source;
//!   [`Program::bind`] renumbers the slots onto a table of [`Names`] that many
//!   programs share, and the [`BoundProgram`] reads an array its caller
//!   resolved against that table once for all of them;
//! * a literal is stored once and borrowed;
//! * a `LIKE` pattern is parsed and an `IN` list sorted;
//! * `identifier <cmp> literal`, by far the most common selector, is one
//!   instruction (`literal <cmp> identifier` the same one, mirrored);
//!   bound, and with a scalar literal, it is also a 16-byte [`CmpRow`], and
//!   consecutive rows of one shape are a [`CmpColumn`].
//!
//! Running a program computes on [`ValueRef`]s only: it clones nothing and
//! allocates nothing. Its semantics are those of [`crate::eval::evaluate`],
//! the tree walker it is tested against.

use crate::ast::{ArithOp, CmpOp, Expr};
use crate::eval::{
    arith, between, compare, holds, negate, truth_value, value_truth, PropertySource,
};
use crate::like::LikePattern;
use crate::value::{Truth, Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of an [`Op`] in its program.
type Idx = u32;

/// One instruction. Operands are the indices of earlier instructions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Op {
    Literal(Value),
    Slot(u32),
    Not(Idx),
    And(Idx, Idx),
    Or(Idx, Idx),
    Cmp {
        op: CmpOp,
        lhs: Idx,
        rhs: Idx,
    },
    /// `Cmp` of a `Slot` with a `Literal`, without the two indirections.
    CmpSlotLiteral {
        op: CmpOp,
        slot: u32,
        literal: Value,
    },
    Arith {
        op: ArithOp,
        lhs: Idx,
        rhs: Idx,
    },
    Neg(Idx),
    Between {
        expr: Idx,
        lo: Idx,
        hi: Idx,
        negated: bool,
    },
    /// `list` is sorted.
    In {
        expr: Idx,
        list: Box<[Box<str>]>,
        negated: bool,
    },
    Like {
        expr: Idx,
        pattern: LikePattern,
        negated: bool,
    },
    IsNull {
        expr: Idx,
        negated: bool,
    },
}

/// Distinct names in order of first use; a name's position is its slot.
/// A program keeps the identifiers of its selector in one, and a broker
/// topic the names of all the programs bound to it ([`Program::bind`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Names {
    names: Vec<String>,
    /// `names` by name, once there are more than [`SEARCHED_NAMES`]: a
    /// handful is searched faster than hashed, and thousands (a selector
    /// off the wire may bring them) still intern in linear time.
    index: Option<HashMap<String, u32>>,
}

/// Up to this many names are searched rather than hashed.
const SEARCHED_NAMES: usize = 8;

impl Names {
    /// The slot of `name`, which is added if it is new.
    pub fn intern(&mut self, name: &str) -> u32 {
        let known = match &self.index {
            None => self.names.iter().position(|n| n == name).map(|at| at as u32),
            Some(index) => index.get(name).copied(),
        };
        known.unwrap_or_else(|| {
            let slot = self.names.len() as u32;
            self.names.push(name.to_owned());
            if let Some(index) = &mut self.index {
                index.insert(name.to_owned(), slot);
            } else if self.names.len() > SEARCHED_NAMES {
                self.index = Some(self.names.iter().cloned().zip(0..).collect());
            }
            slot
        })
    }

    /// The names, by slot.
    pub fn as_slice(&self) -> &[String] {
        &self.names
    }

    /// Forgets every name.
    pub fn clear(&mut self) {
        self.names.clear();
        self.index = None;
    }
}

/// A selector compiled for repeated evaluation.
///
/// # Examples
///
/// ```
/// use rjms_selector::{parse, Program};
/// use rjms_selector::value::{Truth, Value};
///
/// let program = Program::compile(&parse("weight > 2 AND color = 'red'").unwrap());
/// assert_eq!(program.names(), ["weight", "color"]);
/// let props = [("color".to_owned(), Value::from("red")), ("weight".to_owned(), Value::Int(3))];
/// assert_eq!(program.evaluate(props.as_slice()), Truth::True);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// In post-order: the root is last.
    ops: Vec<Op>,
    names: Names,
}

impl Program {
    /// Compiles an expression: one pass over the tree.
    pub fn compile(expr: &Expr) -> Self {
        let mut program = Self { ops: Vec::new(), names: Names::default() };
        program.push(expr);
        program
    }

    /// Emits the instructions of `expr`, operands first; returns the index
    /// of its own instruction.
    fn push(&mut self, expr: &Expr) -> Idx {
        let op = match expr {
            Expr::Literal(v) => Op::Literal(v.clone()),
            Expr::Ident(name) => Op::Slot(self.names.intern(name)),
            Expr::Not(e) => Op::Not(self.push(e)),
            Expr::And(a, b) => Op::And(self.push(a), self.push(b)),
            Expr::Or(a, b) => Op::Or(self.push(a), self.push(b)),
            Expr::Cmp { op, lhs, rhs } => match (&**lhs, &**rhs) {
                (Expr::Ident(name), Expr::Literal(literal)) => self.cmp_slot(*op, name, literal),
                // `7 < key` is `key > 7`.
                (Expr::Literal(literal), Expr::Ident(name)) => {
                    self.cmp_slot(mirrored(*op), name, literal)
                }
                _ => Op::Cmp { op: *op, lhs: self.push(lhs), rhs: self.push(rhs) },
            },
            Expr::Arith { op, lhs, rhs } => {
                Op::Arith { op: *op, lhs: self.push(lhs), rhs: self.push(rhs) }
            }
            Expr::Neg(e) => Op::Neg(self.push(e)),
            Expr::Between { expr, lo, hi, negated } => Op::Between {
                expr: self.push(expr),
                lo: self.push(lo),
                hi: self.push(hi),
                negated: *negated,
            },
            Expr::InList { expr, list, negated } => {
                let mut list: Box<[Box<str>]> = list.iter().map(|s| s.as_str().into()).collect();
                list.sort_unstable();
                Op::In { expr: self.push(expr), list, negated: *negated }
            }
            Expr::Like { expr, pattern, escape, negated } => Op::Like {
                expr: self.push(expr),
                pattern: LikePattern::parse(pattern, *escape),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => {
                Op::IsNull { expr: self.push(expr), negated: *negated }
            }
        };
        self.ops.push(op);
        self.ops.len() as Idx - 1
    }

    fn cmp_slot(&mut self, op: CmpOp, name: &str, literal: &Value) -> Op {
        Op::CmpSlotLiteral { op, slot: self.names.intern(name), literal: literal.clone() }
    }

    /// The distinct identifiers the selector references, in order of first
    /// appearance: slot `i` stands for `names()[i]`.
    pub fn names(&self) -> &[String] {
        self.names.as_slice()
    }

    /// Runs the program against a property source, looking each referenced
    /// name up as it is reached.
    pub fn evaluate<P: PropertySource + ?Sized>(&self, props: &P) -> Truth {
        truth(&self.ops, &|slot| props.property(&self.names()[slot]))
    }

    /// A copy of the program for a `table` of names shared with other
    /// programs, which gains the names it does not hold yet.
    pub fn bind(&self, table: &mut Names) -> BoundProgram {
        let mut bound = |slot: u32| table.intern(&self.names()[slot as usize]);
        let ops = self.ops.iter().map(|op| match op {
            Op::Slot(slot) => Op::Slot(bound(*slot)),
            Op::CmpSlotLiteral { op, slot, literal } => {
                Op::CmpSlotLiteral { op: *op, slot: bound(*slot), literal: literal.clone() }
            }
            other => other.clone(),
        });
        BoundProgram { ops: ops.collect() }
    }
}

/// A [`Program`] whose slots index a table of names its caller keeps (see
/// [`Program::bind`]): the caller resolves the table against a message
/// once and every program bound to it reads the resolved values.
///
/// # Examples
///
/// ```
/// use rjms_selector::program::{Names, Program};
/// use rjms_selector::value::{Truth, ValueRef};
/// use rjms_selector::parse;
///
/// let mut table = Names::default();
/// let by_size = Program::compile(&parse("size > 2").unwrap()).bind(&mut table);
/// let red = Program::compile(&parse("weight > 2 AND color = 'red'").unwrap()).bind(&mut table);
/// assert_eq!(table.as_slice(), ["size", "weight", "color"]);
/// let resolved = [None, Some(ValueRef::Int(3)), Some(ValueRef::Str("red"))];
/// assert_eq!(by_size.run(&resolved), Truth::Unknown);
/// assert_eq!(red.run(&resolved), Truth::True);
/// // One comparison with a number is also a row; nothing else is.
/// assert_eq!(by_size.as_row().unwrap().run(&resolved), Truth::Unknown);
/// assert!(red.as_row().is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoundProgram {
    ops: Box<[Op]>,
}

impl BoundProgram {
    /// Runs the program; `resolved[slot]` is the value of the table's
    /// name `slot`, `None` when the message does not set it.
    ///
    /// # Panics
    ///
    /// Panics if `resolved` is shorter than the table the program was
    /// bound to.
    #[inline]
    pub fn run(&self, resolved: &[Option<ValueRef<'_>>]) -> Truth {
        truth(&self.ops, &|slot| resolved[slot])
    }

    /// The program as a [`CmpRow`]: `Some` exactly for the one instruction
    /// `slot <cmp> literal` with a scalar literal and a slot below 2¹⁶.
    pub fn as_row(&self) -> Option<CmpRow> {
        let [Op::CmpSlotLiteral { op, slot, literal }] = &*self.ops else { return None };
        let (kind, bits) = match literal {
            Value::Bool(b) => (LiteralKind::Bool, u64::from(*b)),
            Value::Int(i) => (LiteralKind::Int, *i as u64),
            Value::Float(f) => (LiteralKind::Float, f.to_bits()),
            Value::Str(_) => return None,
        };
        Some(CmpRow { bits, slot: u16::try_from(*slot).ok()?, op: *op, kind })
    }
}

/// A bound `slot <cmp> scalar-literal` by value ([`BoundProgram::as_row`]),
/// 16 bytes: a scan over many selectors reads rows, not each one's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmpRow {
    /// The literal: 0 or 1, an `i64`'s bits or an `f64`'s, by `kind`.
    bits: u64,
    slot: u16,
    op: CmpOp,
    kind: LiteralKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LiteralKind {
    Bool,
    Int,
    Float,
}

impl CmpRow {
    /// What the [`BoundProgram`] it was taken from returns for `resolved`,
    /// its panic on a `resolved` shorter than the table included.
    // Always inline: this is the body of the broker's scan loop, where a
    // call and its spills cost as much as the comparison.
    #[inline(always)]
    pub fn run(&self, resolved: &[Option<ValueRef<'_>>]) -> Truth {
        use LiteralKind::{Bool, Float, Int};
        let (int, float) = (self.bits as i64, f64::from_bits(self.bits));
        // `eval::compare` with the literal's type known: exact on two
        // integers, promoted with a float, `=` and `<>` only on booleans.
        let ordering = match (resolved[usize::from(self.slot)], self.kind) {
            (Some(ValueRef::Int(v)), Int) => Some(v.cmp(&int)),
            (Some(ValueRef::Int(v)), Float) => (v as f64).partial_cmp(&float),
            (Some(ValueRef::Float(v)), Int) => v.partial_cmp(&(int as f64)),
            (Some(ValueRef::Float(v)), Float) => v.partial_cmp(&float),
            (Some(ValueRef::Bool(v)), Bool) if matches!(self.op, CmpOp::Eq | CmpOp::Ne) => {
                Some(v.cmp(&(int != 0)))
            }
            _ => return Truth::Unknown,
        };
        Truth::from(holds(self.op, ordering))
    }
}

/// Consecutive [`CmpRow`]s of one shape — one slot, one operator, one
/// literal kind — kept as a column of their literals: [`CmpColumn::run`]
/// reads the slot and matches the value's type once for the column, then
/// compares the value with each literal in a tight loop. Every row is still
/// evaluated; none is skipped.
///
/// # Examples
///
/// ```
/// use rjms_selector::program::{CmpColumn, Names, Program};
/// use rjms_selector::{parse, ValueRef};
///
/// let mut table = Names::default();
/// let mut row =
///     |source: &str| Program::compile(&parse(source).unwrap()).bind(&mut table).as_row();
/// let mut column = CmpColumn::new(row("key = 0").unwrap());
/// (1..4).for_each(|i| column.push(row(&format!("key = {i}")).unwrap()).unwrap());
/// // Another operator is another shape.
/// assert!(column.push(row("key > 0").unwrap()).is_err());
/// let mut hits = Vec::new();
/// column.run(&[Some(ValueRef::Int(2))], |at| hits.push(at));
/// assert_eq!(hits, [2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CmpColumn {
    /// Each row's literal, as its [`CmpRow`] keeps it.
    literals: Vec<u64>,
    slot: u16,
    op: CmpOp,
    kind: LiteralKind,
}

impl CmpColumn {
    /// A column of one row.
    pub fn new(row: CmpRow) -> Self {
        Self { literals: vec![row.bits], slot: row.slot, op: row.op, kind: row.kind }
    }

    /// Appends `row` if it has the column's shape; hands it back if not.
    pub fn push(&mut self, row: CmpRow) -> Result<(), CmpRow> {
        if (row.slot, row.op, row.kind) != (self.slot, self.op, self.kind) {
            return Err(row);
        }
        self.literals.push(row.bits);
        Ok(())
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = CmpRow> + '_ {
        let (slot, op, kind) = (self.slot, self.op, self.kind);
        self.literals.iter().map(move |&bits| CmpRow { bits, slot, op, kind })
    }

    /// Calls `hit(i)`, in row order, for every row `i` whose
    /// [`CmpRow::run`] is true for `resolved`, and for no other.
    ///
    /// # Panics
    ///
    /// Panics if `resolved` is shorter than the table, as [`CmpRow::run`].
    pub fn run(&self, resolved: &[Option<ValueRef<'_>>], mut hit: impl FnMut(usize)) {
        // A call per hit, so that the loops below stay small.
        let hit: &mut dyn FnMut(usize) = &mut hit;
        let literals = self.literals.iter();
        match (resolved[usize::from(self.slot)], self.kind) {
            (Some(ValueRef::Int(v)), LiteralKind::Int) => {
                each_holding(self.op, v, literals.map(|&bits| bits as i64), hit)
            }
            (Some(ValueRef::Float(v)), LiteralKind::Float) => {
                each_holding(self.op, v, literals.map(|&bits| f64::from_bits(bits)), hit)
            }
            // Unknown under every operator.
            (None, _) => {}
            // The mixed pairings, row by row: an integer with a float,
            // booleans, a string value.
            _ => each(self.rows(), |row| row.run(resolved).is_true(), hit),
        }
    }
}

/// Calls `hit(i)` for each `i` with `value <op> literals[i]`. On two `i64`s
/// and on two `f64`s `PartialOrd`'s operators are `eval::holds` of
/// `partial_cmp`, NaN included: false under `=` and every ordering, true
/// under `<>`.
#[inline(always)]
fn each_holding<T: PartialOrd + Copy>(
    op: CmpOp,
    value: T,
    literals: impl Iterator<Item = T>,
    hit: &mut dyn FnMut(usize),
) {
    match op {
        CmpOp::Eq => each(literals, |literal| value == literal, hit),
        CmpOp::Ne => each(literals, |literal| value != literal, hit),
        CmpOp::Lt => each(literals, |literal| value < literal, hit),
        CmpOp::Le => each(literals, |literal| value <= literal, hit),
        CmpOp::Gt => each(literals, |literal| value > literal, hit),
        CmpOp::Ge => each(literals, |literal| value >= literal, hit),
    }
}

/// Calls `hit(i)` for each `i` whose `rows[i]` `holds`.
#[inline(always)]
fn each<T>(rows: impl Iterator<Item = T>, holds: impl Fn(T) -> bool, hit: &mut dyn FnMut(usize)) {
    for (at, row) in rows.enumerate() {
        if holds(row) {
            hit(at);
        }
    }
}

/// The truth of the program `ops` (its root is last); `read` supplies the
/// value of a slot, `None` when the property is not set.
#[inline]
fn truth<'a>(ops: &'a [Op], read: &impl Fn(usize) -> Option<ValueRef<'a>>) -> Truth {
    match ops {
        // The one-instruction program runs without the interpreter's
        // call frame: a scan over hundreds of `key = i` is this line.
        [Op::CmpSlotLiteral { op, slot, literal }] => {
            compare_slot(*op, read(*slot as usize), literal)
        }
        _ => truth_at(ops, ops.len() as Idx - 1, read),
    }
}

#[inline]
fn compare_slot(op: CmpOp, value: Option<ValueRef<'_>>, literal: &Value) -> Truth {
    match value {
        Some(value) => compare(op, value, literal.as_ref()),
        None => Truth::Unknown,
    }
}

/// The operator that holds of `(b, a)` exactly when `op` holds of `(a, b)`.
fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

fn truth_at<'a>(ops: &'a [Op], at: Idx, read: &impl Fn(usize) -> Option<ValueRef<'a>>) -> Truth {
    match &ops[at as usize] {
        Op::CmpSlotLiteral { op, slot, literal } => {
            compare_slot(*op, read(*slot as usize), literal)
        }
        Op::Not(e) => truth_at(ops, *e, read).not(),
        Op::And(a, b) => {
            // False AND anything = False, so the right side can be
            // skipped; Unknown AND b still needs b.
            let ta = truth_at(ops, *a, read);
            if ta == Truth::False {
                return Truth::False;
            }
            ta.and(truth_at(ops, *b, read))
        }
        Op::Or(a, b) => {
            let ta = truth_at(ops, *a, read);
            if ta == Truth::True {
                return Truth::True;
            }
            ta.or(truth_at(ops, *b, read))
        }
        Op::Cmp { op, lhs, rhs } => match (value_at(ops, *lhs, read), value_at(ops, *rhs, read)) {
            (Some(a), Some(b)) => compare(*op, a, b),
            _ => Truth::Unknown,
        },
        Op::Between { expr, lo, hi, negated } => {
            match (value_at(ops, *expr, read), value_at(ops, *lo, read), value_at(ops, *hi, read)) {
                (Some(v), Some(l), Some(h)) => between(v, l, h).negated_if(*negated),
                _ => Truth::Unknown,
            }
        }
        // IN and LIKE apply to strings only.
        Op::In { expr, list, negated } => match value_at(ops, *expr, read) {
            Some(ValueRef::Str(s)) => {
                Truth::from(list.binary_search_by(|c| (**c).cmp(s)).is_ok()).negated_if(*negated)
            }
            _ => Truth::Unknown,
        },
        Op::Like { expr, pattern, negated } => match value_at(ops, *expr, read) {
            Some(ValueRef::Str(s)) => Truth::from(pattern.matches(s)).negated_if(*negated),
            _ => Truth::Unknown,
        },
        // IS NULL is the one operator that never yields unknown.
        Op::IsNull { expr, negated } => {
            Truth::from(value_at(ops, *expr, read).is_none() != *negated)
        }
        Op::Literal(_) | Op::Slot(_) | Op::Arith { .. } | Op::Neg(_) => {
            value_truth(value_at(ops, at, read))
        }
    }
}

fn value_at<'a>(
    ops: &'a [Op],
    at: Idx,
    read: &impl Fn(usize) -> Option<ValueRef<'a>>,
) -> Option<ValueRef<'a>> {
    match &ops[at as usize] {
        Op::Literal(v) => Some(v.as_ref()),
        Op::Slot(slot) => read(*slot as usize),
        Op::Neg(e) => negate(value_at(ops, *e, read)?),
        Op::Arith { op, lhs, rhs } => {
            arith(*op, value_at(ops, *lhs, read)?, value_at(ops, *rhs, read)?)
        }
        _ => truth_value(truth_at(ops, at, read)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(selector: &str) -> Program {
        Program::compile(&parse(selector).unwrap())
    }

    #[test]
    fn the_dominant_shape_is_one_instruction() {
        let program = compile("key = 7");
        assert_eq!(
            program.ops,
            [Op::CmpSlotLiteral { op: CmpOp::Eq, slot: 0, literal: Value::Int(7) }]
        );
        assert_eq!(program.names(), ["key"]);
        // The mirrored form is the same instruction, its operator turned.
        assert_eq!(compile("7 = key").ops, program.ops);
        assert_eq!(compile("7 <= key").ops, compile("key >= 7").ops);
        assert_eq!(compile("key = other").ops.len(), 3);
    }

    /// Six operators × scalar literals × what a property can hold that a
    /// comparison treats differently, the literal on either side: the row,
    /// the program and the tree walker give one answer, and the column of
    /// one operator's rows of one literal kind hits exactly the rows whose
    /// answer is true.
    #[test]
    fn a_row_and_its_column_agree_with_the_program_and_the_tree_walker() {
        use CmpOp::*;
        const BIG: i64 = (1 << 53) + 1;
        let kinds = [
            [1, 0, -3, BIG].map(Value::Int).to_vec(),
            [2.5, 1.0, f64::NAN, -0.0, f64::INFINITY].map(Value::Float).to_vec(),
            [true, false].map(Value::Bool).to_vec(),
        ];
        let mut values = vec![None, Some(Value::from("1"))];
        values.extend([1, 0, BIG - 1, BIG].map(|i| Some(Value::Int(i))));
        values.extend([1.0, 2.5, f64::NAN, 0.0, f64::NEG_INFINITY].map(|f| Some(Value::Float(f))));
        values.extend([true, false].map(|b| Some(Value::Bool(b))));
        let cmp = |op, literal: &Value, literal_first| {
            let (key, literal) = (Expr::Ident("key".to_owned()), Expr::Literal(literal.clone()));
            if literal_first {
                Expr::cmp(op, literal, key)
            } else {
                Expr::cmp(op, key, literal)
            }
        };
        for op in [Eq, Ne, Lt, Le, Gt, Ge] {
            for (literals, literal_first) in kinds.iter().flat_map(|k| [(k, false), (k, true)]) {
                let exprs: Vec<Expr> = literals.iter().map(|l| cmp(op, l, literal_first)).collect();
                let bound: Vec<BoundProgram> =
                    exprs.iter().map(|e| Program::compile(e).bind(&mut Names::default())).collect();
                let rows: Vec<CmpRow> = bound.iter().map(|b| b.as_row().expect("a row")).collect();
                let mut column = CmpColumn::new(rows[0]);
                rows[1..].iter().for_each(|row| column.push(*row).unwrap());
                assert!(column.rows().eq(rows.iter().copied()));
                for value in &values {
                    let props: Vec<_> =
                        value.iter().map(|v| ("key".to_owned(), v.clone())).collect();
                    let resolved = [value.as_ref().map(Value::as_ref)];
                    let mut holding = Vec::new();
                    for (at, expr) in exprs.iter().enumerate() {
                        let reference = crate::eval::evaluate(expr, props.as_slice());
                        assert_eq!(bound[at].run(&resolved), reference, "{expr} on {value:?}");
                        assert_eq!(rows[at].run(&resolved), reference, "{expr} on {value:?}");
                        if reference.is_true() {
                            holding.push(at);
                        }
                    }
                    let mut hits = Vec::new();
                    column.run(&resolved, |at| hits.push(at));
                    assert_eq!(hits, holding, "{op:?} column of {literals:?} on {value:?}");
                }
            }
        }
    }

    #[test]
    fn a_column_takes_only_rows_of_its_shape() {
        let mut table = Names::default();
        let mut row = |source| compile(source).bind(&mut table).as_row().unwrap();
        let mut column = CmpColumn::new(row("key = 1"));
        for other in ["key = 2.5", "key = TRUE", "key <> 1", "other = 1"] {
            let other = row(other);
            assert_eq!(column.push(other), Err(other));
        }
        assert_eq!(column.push(row("3 = key")), Ok(()));
        assert_eq!(column.rows().collect::<Vec<_>>(), [row("key = 1"), row("key = 3")]);
    }

    #[test]
    fn a_repeated_identifier_shares_one_slot() {
        let program = compile("a > 1 AND b = 2 AND a < 9 AND JMSPriority > a");
        assert_eq!(program.names(), ["a", "b", "JMSPriority"]);
    }

    #[test]
    fn operands_precede_their_instruction() {
        let program = compile("NOT (a + 1 BETWEEN b AND 9) OR c LIKE 'x%' OR d IN ('q', 'p')");
        for (at, op) in program.ops.iter().enumerate() {
            let operands: Vec<Idx> = match op {
                Op::Not(e) | Op::Neg(e) => vec![*e],
                Op::And(a, b) | Op::Or(a, b) => vec![*a, *b],
                Op::Cmp { lhs, rhs, .. } | Op::Arith { lhs, rhs, .. } => vec![*lhs, *rhs],
                Op::Between { expr, lo, hi, .. } => vec![*expr, *lo, *hi],
                Op::In { expr, .. } | Op::Like { expr, .. } | Op::IsNull { expr, .. } => {
                    vec![*expr]
                }
                Op::Literal(_) | Op::Slot(_) | Op::CmpSlotLiteral { .. } => vec![],
            };
            assert!(operands.iter().all(|&o| (o as usize) < at), "{at}: {op:?}");
        }
    }

    #[test]
    fn in_lists_are_sorted_for_the_binary_search() {
        let program = compile("c IN ('UK', 'DE', 'US', 'DE')");
        let Some(Op::In { list, .. }) = program.ops.last() else { panic!("{:?}", program.ops) };
        assert_eq!(list.iter().map(|s| &**s).collect::<Vec<_>>(), ["DE", "DE", "UK", "US"]);
        let bound = program.bind(&mut Names::default());
        for (country, expect) in [("DE", Truth::True), ("US", Truth::True), ("FR", Truth::False)] {
            assert_eq!(bound.run(&[Some(ValueRef::Str(country))]), expect);
        }
    }

    #[test]
    fn evaluate_reads_names_and_a_bound_program_reads_its_table() {
        let program = compile("weight * 2 > limit AND weight < 9");
        assert_eq!(program.names(), ["weight", "limit"]);
        let props = [("limit".to_owned(), Value::Int(6)), ("weight".to_owned(), Value::Int(3))];
        assert_eq!(program.evaluate(props.as_slice()), Truth::False);

        // A table that holds the two names in other places, among others.
        let mut table = Names::default();
        for name in ["limit", "color"] {
            table.intern(name);
        }
        let bound = program.bind(&mut table);
        assert_eq!(table.as_slice(), ["limit", "color", "weight"]);
        let resolved = [Some(ValueRef::Float(5.5)), None, Some(ValueRef::Int(3))];
        assert_eq!(bound.run(&resolved), Truth::True);
        assert_eq!(bound.run(&[None, None, None]), Truth::Unknown);
        // Binding leaves the program itself as it was.
        assert_eq!(program.evaluate(props.as_slice()), Truth::False);
    }

    #[test]
    fn many_names_are_still_interned_once_each() {
        let n = 4 * SEARCHED_NAMES;
        let terms: Vec<String> =
            (0..n).map(|i| format!("p{i} = {i} AND p{} >= 0", i / 2)).collect();
        let program = compile(&terms.join(" AND "));
        let expected: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        assert_eq!(program.names(), expected);
        let props: Vec<(String, Value)> =
            (0..n).map(|i| (format!("p{i}"), Value::Int(i as i64))).collect();
        assert_eq!(program.evaluate(props.as_slice()), Truth::True);
    }

    #[test]
    fn an_instruction_stays_within_a_cache_line() {
        assert!(std::mem::size_of::<Op>() <= 48, "{}", std::mem::size_of::<Op>());
        assert_eq!(std::mem::size_of::<CmpRow>(), 16);
        assert_eq!(std::mem::size_of::<Option<CmpRow>>(), 16);
    }
}
