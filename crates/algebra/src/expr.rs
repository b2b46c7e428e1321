//! Scalar expressions and predicates over tuples.
//!
//! An [`Expr`] evaluates against a single *flat* tuple — for
//! multi-variable queries the evaluator concatenates the tuples of all
//! range variables and the expression addresses attributes by flat
//! index.  This keeps evaluation allocation-free on the hot path; the
//! TQuel layer resolves names to indices during semantic analysis.

use std::fmt;

use chronos_core::error::{CoreError, CoreResult};
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
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
    fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A scalar expression over a flat tuple.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// The value at a flat attribute index.
    Attr(usize),
    /// A constant.
    Const(Value),
}

impl Expr {
    /// Evaluates to a value.
    pub fn eval<'a>(&'a self, tuple: &'a Tuple) -> CoreResult<&'a Value> {
        self.eval_values(tuple.values())
    }

    /// Evaluates against the values of a flat tuple, for callers that
    /// reuse one buffer across many tuples.
    pub fn eval_values<'a>(&'a self, values: &'a [Value]) -> CoreResult<&'a Value> {
        match self {
            Expr::Attr(i) => values
                .get(*i)
                .ok_or_else(|| CoreError::Invalid(format!("attribute index {i} out of range"))),
            Expr::Const(v) => Ok(v),
        }
    }
}

/// Writes the name of index `i` — an attribute of a flat tuple, or a
/// range variable of a `when` environment.
pub type NameFn<'a> = dyn Fn(&mut fmt::Formatter<'_>, usize) -> fmt::Result + 'a;

/// The default name of index `i`: `$i`.
pub(crate) fn index_name(f: &mut fmt::Formatter<'_>, i: usize) -> fmt::Result {
    write!(f, "${i}")
}

/// An expression or predicate rendered with caller-chosen names for its
/// indices (see [`Predicate::named`]).  Plain `Display` prints index `i`
/// as `$i`.
pub struct Named<'a, T: ?Sized> {
    pub(crate) item: &'a T,
    pub(crate) name: &'a NameFn<'a>,
}

impl fmt::Display for Named<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.item {
            Expr::Attr(i) => (self.name)(f, *i),
            Expr::Const(v @ (Value::Str(_) | Value::Date(_))) => write!(f, "\"{v}\""),
            Expr::Const(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for Named<'_, Predicate> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name;
        match self.item {
            Predicate::True => f.write_str("true"),
            Predicate::Cmp(op, a, b) => {
                write!(
                    f,
                    "{} {op} {}",
                    Named { item: a, name },
                    Named { item: b, name }
                )
            }
            Predicate::And(a, b) => {
                // `or` binds looser than `and`: bracket it inside one.
                let side = |p: &Predicate, f: &mut fmt::Formatter<'_>| match p {
                    Predicate::Or(..) => write!(f, "({})", p.named(name)),
                    _ => write!(f, "{}", p.named(name)),
                };
                side(a, f)?;
                f.write_str(" and ")?;
                side(b, f)
            }
            Predicate::Or(a, b) => write!(f, "{} or {}", a.named(name), b.named(name)),
            Predicate::Not(a) => write!(f, "not ({})", a.named(name)),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.named(&index_name).fmt(f)
    }
}

/// A boolean predicate over a flat tuple.
#[derive(Clone, PartialEq, Debug)]
pub enum Predicate {
    /// Always true (empty `where` clause).
    True,
    /// Comparison of two scalar expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates against a flat tuple.
    pub fn eval(&self, tuple: &Tuple) -> CoreResult<bool> {
        self.eval_values(tuple.values())
    }

    /// Evaluates against the values of a flat tuple, for callers that
    /// reuse one buffer across many tuples.
    pub fn eval_values(&self, values: &[Value]) -> CoreResult<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp(op, a, b) => {
                let (a, b) = (a.eval_values(values)?, b.eval_values(values)?);
                if a.attr_type() != b.attr_type() {
                    return Err(CoreError::Invalid(format!(
                        "cannot compare {} with {}",
                        a.attr_type(),
                        b.attr_type()
                    )));
                }
                Ok(op.holds(a.cmp(b)))
            }
            Predicate::And(a, b) => Ok(a.eval_values(values)? && b.eval_values(values)?),
            Predicate::Or(a, b) => Ok(a.eval_values(values)? || b.eval_values(values)?),
            Predicate::Not(a) => Ok(!a.eval_values(values)?),
        }
    }

    /// Renders with attribute `i` written by `name` (`explain` passes
    /// `var.attr` names).
    pub fn named<'a>(&'a self, name: &'a NameFn<'a>) -> Named<'a, Predicate> {
        Named { item: self, name }
    }

    /// Convenience: `attr = constant` (the paper's
    /// `where f.name = "Merrie"`).
    pub fn attr_eq(idx: usize, v: impl Into<Value>) -> Predicate {
        Predicate::Cmp(CmpOp::Eq, Expr::Attr(idx), Expr::Const(v.into()))
    }

    /// Conjunction builder.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction builder.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation builder.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::tuple::tuple;

    #[test]
    fn comparisons() {
        let t = tuple(["Merrie", "full"]);
        assert!(Predicate::attr_eq(0, "Merrie").eval(&t).unwrap());
        assert!(!Predicate::attr_eq(0, "Tom").eval(&t).unwrap());
        let lt = Predicate::Cmp(CmpOp::Lt, Expr::Attr(1), Expr::Const("zzz".into()));
        assert!(lt.eval(&t).unwrap());
        let ge = Predicate::Cmp(CmpOp::Ge, Expr::Attr(0), Expr::Const("Merrie".into()));
        assert!(ge.eval(&t).unwrap());
        let ne = Predicate::Cmp(CmpOp::Ne, Expr::Attr(0), Expr::Attr(1));
        assert!(ne.eval(&t).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple(["Merrie", "full"]);
        let p = Predicate::attr_eq(0, "Merrie").and(Predicate::attr_eq(1, "full"));
        assert!(p.eval(&t).unwrap());
        let q = Predicate::attr_eq(0, "Tom").or(Predicate::attr_eq(1, "full"));
        assert!(q.eval(&t).unwrap());
        assert!(!q.clone().not().eval(&t).unwrap());
        assert!(Predicate::True.eval(&t).unwrap());
    }

    #[test]
    fn display_quotes_strings_and_parenthesises_or_and_not() {
        let p = Predicate::attr_eq(0, "Merrie")
            .and(Predicate::Cmp(
                CmpOp::Lt,
                Expr::Attr(3),
                Expr::Const(Value::Int(7)),
            ))
            .and(Predicate::attr_eq(1, "a").or(Predicate::attr_eq(1, "b").not()));
        assert_eq!(
            p.to_string(),
            r#"$0 = "Merrie" and $3 < 7 and ($1 = "a" or not ($1 = "b"))"#
        );
        let names = |f: &mut fmt::Formatter<'_>, i: usize| write!(f, "f.a{i}");
        assert_eq!(
            Predicate::attr_eq(2, "x").named(&names).to_string(),
            r#"f.a2 = "x""#
        );
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let t = tuple(["Merrie", "full"]);
        let bad = Predicate::Cmp(CmpOp::Eq, Expr::Attr(0), Expr::Const(Value::Int(3)));
        assert!(bad.eval(&t).is_err());
    }

    #[test]
    fn out_of_range_attr_is_an_error() {
        let t = tuple(["Merrie"]);
        assert!(Predicate::attr_eq(5, "x").eval(&t).is_err());
    }
}
