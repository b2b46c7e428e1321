//! Temporal expressions and predicates — the TQuel `when` clause.
//!
//! The paper's historical query
//!
//! ```text
//! retrieve (f1.rank)
//! where f1.name = "Merrie" and f2.name = "Tom"
//! when f1 overlap start of f2
//! ```
//!
//! combines *temporal expressions* over the valid times of the range
//! variables (`f1`, `start of f2`, `e1 extend e2`) with *temporal
//! predicates* (`overlap`, `precede`, `equal`).  Expressions evaluate to
//! periods (instants are one-chronon periods); predicates evaluate to
//! booleans over an environment binding each range variable to its
//! tuple's valid period.

use std::fmt;

use chronos_core::error::{CoreError, CoreResult};
use chronos_core::period::Period;

use crate::expr::{index_name, NameFn, Named};

/// A temporal expression over the valid times of range variables.
#[derive(Clone, PartialEq, Debug)]
pub enum TemporalExpr {
    /// The valid period of the `i`-th range variable.
    Var(usize),
    /// A constant period (a date literal, or a literal interval).
    Const(Period),
    /// `start of e` — the instant at which `e` begins.
    StartOf(Box<TemporalExpr>),
    /// `end of e` — the last instant inside `e`.
    EndOf(Box<TemporalExpr>),
    /// `e1 extend e2` — the smallest period covering both.
    Extend(Box<TemporalExpr>, Box<TemporalExpr>),
    /// `e1 overlap e2` as an expression — the intersection (TQuel's
    /// `valid` clause uses this form).
    Intersect(Box<TemporalExpr>, Box<TemporalExpr>),
}

impl TemporalExpr {
    /// Evaluates against the periods of the range variables.
    pub fn eval(&self, env: &[Period]) -> CoreResult<Period> {
        match self {
            TemporalExpr::Var(i) => env
                .get(*i)
                .copied()
                .ok_or_else(|| CoreError::Invalid(format!("range variable {i} unbound"))),
            TemporalExpr::Const(p) => Ok(*p),
            TemporalExpr::StartOf(e) => Ok(e.eval(env)?.start_of()),
            TemporalExpr::EndOf(e) => Ok(e.eval(env)?.end_of()),
            TemporalExpr::Extend(a, b) => Ok(a.eval(env)?.extend(b.eval(env)?)),
            TemporalExpr::Intersect(a, b) => Ok(a.eval(env)?.intersect(b.eval(env)?)),
        }
    }

    /// `start of` builder.
    #[must_use]
    pub fn start_of(self) -> TemporalExpr {
        TemporalExpr::StartOf(Box::new(self))
    }

    /// `end of` builder.
    #[must_use]
    pub fn end_of(self) -> TemporalExpr {
        TemporalExpr::EndOf(Box::new(self))
    }

    /// `extend` builder.
    #[must_use]
    pub fn extend(self, other: TemporalExpr) -> TemporalExpr {
        TemporalExpr::Extend(Box::new(self), Box::new(other))
    }

    /// Renders with range variable `i` written by `name`.
    pub fn named<'a>(&'a self, name: &'a NameFn<'a>) -> Named<'a, TemporalExpr> {
        Named { item: self, name }
    }
}

impl fmt::Display for Named<'_, TemporalExpr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name;
        match self.item {
            TemporalExpr::Var(i) => name(f, *i),
            TemporalExpr::Const(p) => write!(f, "{p}"),
            TemporalExpr::StartOf(e) => write!(f, "start of {}", e.named(name)),
            TemporalExpr::EndOf(e) => write!(f, "end of {}", e.named(name)),
            TemporalExpr::Extend(a, b) => {
                write!(f, "({} extend {})", a.named(name), b.named(name))
            }
            TemporalExpr::Intersect(a, b) => {
                write!(f, "({} overlap {})", a.named(name), b.named(name))
            }
        }
    }
}

impl fmt::Display for TemporalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.named(&index_name).fmt(f)
    }
}

/// A temporal predicate — the body of a `when` clause.
#[derive(Clone, PartialEq, Debug)]
pub enum TemporalPred {
    /// Empty `when` clause.
    True,
    /// `e1 overlap e2` — the periods share a chronon.
    Overlap(TemporalExpr, TemporalExpr),
    /// `e1 precede e2` — `e1` ends before (or exactly when) `e2` starts.
    Precede(TemporalExpr, TemporalExpr),
    /// `e1 equal e2`.
    Equal(TemporalExpr, TemporalExpr),
    /// Conjunction.
    And(Box<TemporalPred>, Box<TemporalPred>),
    /// Disjunction.
    Or(Box<TemporalPred>, Box<TemporalPred>),
    /// Negation.
    Not(Box<TemporalPred>),
}

impl TemporalPred {
    /// Evaluates against the periods of the range variables.
    pub fn eval(&self, env: &[Period]) -> CoreResult<bool> {
        match self {
            TemporalPred::True => Ok(true),
            TemporalPred::Overlap(a, b) => Ok(a.eval(env)?.overlaps(b.eval(env)?)),
            TemporalPred::Precede(a, b) => Ok(a.eval(env)?.precedes(b.eval(env)?)),
            TemporalPred::Equal(a, b) => Ok(a.eval(env)? == b.eval(env)?),
            TemporalPred::And(a, b) => Ok(a.eval(env)? && b.eval(env)?),
            TemporalPred::Or(a, b) => Ok(a.eval(env)? || b.eval(env)?),
            TemporalPred::Not(a) => Ok(!a.eval(env)?),
        }
    }

    /// Conjunction builder.
    #[must_use]
    pub fn and(self, other: TemporalPred) -> TemporalPred {
        TemporalPred::And(Box::new(self), Box::new(other))
    }

    /// Renders with range variable `i` written by `name` (`explain`
    /// passes the variable names).
    pub fn named<'a>(&'a self, name: &'a NameFn<'a>) -> Named<'a, TemporalPred> {
        Named { item: self, name }
    }
}

impl fmt::Display for Named<'_, TemporalPred> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name;
        match self.item {
            TemporalPred::True => f.write_str("true"),
            TemporalPred::Overlap(a, b) => {
                write!(f, "{} overlap {}", a.named(name), b.named(name))
            }
            TemporalPred::Precede(a, b) => {
                write!(f, "{} precede {}", a.named(name), b.named(name))
            }
            TemporalPred::Equal(a, b) => write!(f, "{} equal {}", a.named(name), b.named(name)),
            TemporalPred::And(a, b) => {
                // `or` binds looser than `and`: bracket it inside one.
                let side = |p: &TemporalPred, f: &mut fmt::Formatter<'_>| match p {
                    TemporalPred::Or(..) => write!(f, "({})", p.named(name)),
                    _ => write!(f, "{}", p.named(name)),
                };
                side(a, f)?;
                f.write_str(" and ")?;
                side(b, f)
            }
            TemporalPred::Or(a, b) => write!(f, "{} or {}", a.named(name), b.named(name)),
            TemporalPred::Not(a) => write!(f, "not ({})", a.named(name)),
        }
    }
}

impl fmt::Display for TemporalPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.named(&index_name).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::calendar::date;
    use chronos_core::period::Period;

    fn env_fig6() -> Vec<Period> {
        // f1 = Merrie full [12/01/82, ∞); f2 = Tom [12/05/82, ∞).
        vec![
            Period::from_start(date("12/01/82").unwrap()),
            Period::from_start(date("12/05/82").unwrap()),
        ]
    }

    #[test]
    fn paper_when_clause_holds_for_full_not_associate() {
        // when f1 overlap start of f2
        let pred = TemporalPred::Overlap(TemporalExpr::Var(0), TemporalExpr::Var(1).start_of());
        assert!(pred.eval(&env_fig6()).unwrap());
        // Merrie associate [09/01/77, 12/01/82) does not overlap Tom's start.
        let env = vec![
            Period::new(date("09/01/77").unwrap(), date("12/01/82").unwrap()).unwrap(),
            Period::from_start(date("12/05/82").unwrap()),
        ];
        assert!(!pred.eval(&env).unwrap());
        // …but it does precede Tom.
        let prec = TemporalPred::Precede(TemporalExpr::Var(0), TemporalExpr::Var(1));
        assert!(prec.eval(&env).unwrap());
    }

    #[test]
    fn extend_and_intersect_expressions() {
        let a = Period::new(date("01/01/80").unwrap(), date("01/01/81").unwrap()).unwrap();
        let b = Period::new(date("06/01/80").unwrap(), date("06/01/82").unwrap()).unwrap();
        let env = vec![a, b];
        let ext = TemporalExpr::Var(0).extend(TemporalExpr::Var(1));
        assert_eq!(ext.eval(&env).unwrap(), a.extend(b));
        let inter = TemporalExpr::Intersect(
            Box::new(TemporalExpr::Var(0)),
            Box::new(TemporalExpr::Var(1)),
        );
        assert_eq!(inter.eval(&env).unwrap(), a.intersect(b));
        let eq = TemporalPred::Equal(
            TemporalExpr::Var(0).start_of(),
            TemporalExpr::Const(Period::instant(date("01/01/80").unwrap())),
        );
        assert!(eq.eval(&env).unwrap());
    }

    #[test]
    fn boolean_structure() {
        let env = env_fig6();
        let t = TemporalPred::True;
        let p = TemporalPred::Overlap(TemporalExpr::Var(0), TemporalExpr::Var(1));
        let both = t.clone().and(p.clone());
        assert!(both.eval(&env).unwrap());
        assert!(!TemporalPred::Not(Box::new(p.clone())).eval(&env).unwrap());
        assert!(
            TemporalPred::Or(Box::new(TemporalPred::Not(Box::new(t))), Box::new(p))
                .eval(&env)
                .unwrap()
        );
    }

    #[test]
    fn display_names_variables() {
        let pred = TemporalPred::Overlap(TemporalExpr::Var(0), TemporalExpr::Var(1).start_of())
            .and(TemporalPred::Not(Box::new(TemporalPred::Precede(
                TemporalExpr::Var(0),
                TemporalExpr::Var(1),
            ))));
        assert_eq!(
            pred.to_string(),
            "$0 overlap start of $1 and not ($0 precede $1)"
        );
        let either = TemporalPred::Or(
            Box::new(TemporalPred::Equal(
                TemporalExpr::Var(0),
                TemporalExpr::Var(1),
            )),
            Box::new(TemporalPred::True),
        );
        assert_eq!(
            TemporalPred::True.and(either).to_string(),
            "true and ($0 equal $1 or true)"
        );
        let names = |f: &mut fmt::Formatter<'_>, i: usize| f.write_str(["f1", "f2"][i]);
        assert_eq!(
            pred.named(&names).to_string(),
            "f1 overlap start of f2 and not (f1 precede f2)"
        );
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let pred = TemporalPred::Overlap(TemporalExpr::Var(5), TemporalExpr::Var(0));
        assert!(pred.eval(&env_fig6()).is_err());
    }
}
