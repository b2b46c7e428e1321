//! Abstract syntax of Quel/TQuel statements.

use chronos_core::value::AttrType;

/// A reference to `var.attr`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrRef {
    /// The range variable.
    pub var: String,
    /// The attribute name.
    pub attr: String,
}

/// A scalar operand in a `where` clause or target list.
#[derive(Clone, PartialEq, Debug)]
pub enum Operand {
    /// `var.attr`
    Attr(AttrRef),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
}

/// Comparison operators (surface syntax).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOpAst {
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

/// A `where` clause expression.
#[derive(Clone, PartialEq, Debug)]
pub enum WhereExpr {
    /// Comparison of two operands.
    Cmp(CmpOpAst, Operand, Operand),
    /// Conjunction.
    And(Box<WhereExpr>, Box<WhereExpr>),
    /// Disjunction.
    Or(Box<WhereExpr>, Box<WhereExpr>),
    /// Negation.
    Not(Box<WhereExpr>),
}

/// A temporal expression in `when` / `valid` / `as of` position.
#[derive(Clone, PartialEq, Debug)]
pub enum TexprAst {
    /// A range variable's valid time.
    Var(String),
    /// A date literal (quoted, e.g. `"12/10/82"`).
    Date(String),
    /// The `forever` literal — the end of time (`∞`).
    Forever,
    /// `start of e`
    StartOf(Box<TexprAst>),
    /// `end of e`
    EndOf(Box<TexprAst>),
    /// `e1 extend e2`
    Extend(Box<TexprAst>, Box<TexprAst>),
    /// `e1 overlap e2` used as an expression (intersection).
    Overlap(Box<TexprAst>, Box<TexprAst>),
}

/// A `when` clause predicate.
#[derive(Clone, PartialEq, Debug)]
pub enum WhenExpr {
    /// `e1 overlap e2`
    Overlap(TexprAst, TexprAst),
    /// `e1 precede e2`
    Precede(TexprAst, TexprAst),
    /// `e1 equal e2`
    Equal(TexprAst, TexprAst),
    /// Conjunction.
    And(Box<WhenExpr>, Box<WhenExpr>),
    /// Disjunction.
    Or(Box<WhenExpr>, Box<WhenExpr>),
    /// Negation.
    Not(Box<WhenExpr>),
}

/// The `valid` clause of a retrieve or modification statement.
#[derive(Clone, PartialEq, Debug)]
pub enum ValidClause {
    /// `valid at e` — an event instant (or the start instant of `e`).
    At(TexprAst),
    /// `valid from e1 to e2` — a period.
    FromTo(TexprAst, TexprAst),
}

/// The `as of` clause.
#[derive(Clone, PartialEq, Debug)]
pub struct AsOfClause {
    /// The rollback instant.
    pub at: TexprAst,
    /// Optional second instant: `as of e1 through e2`.
    pub through: Option<TexprAst>,
}

/// Aggregate functions usable in a target list (Quel's aggregate
/// operators, minus grouping).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// `count(var.attr)` — number of qualifying rows.
    Count,
    /// `sum(var.attr)` over an int or float attribute.
    Sum,
    /// `avg(var.attr)` over an int or float attribute.
    Avg,
    /// `min(var.attr)`.
    Min,
    /// `max(var.attr)`.
    Max,
}

impl AggFunc {
    /// Parses a function name (contextual, not a reserved word).
    pub fn from_name(s: &str) -> Option<AggFunc> {
        match s {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// The value expression of one target-list entry.
#[derive(Clone, PartialEq, Debug)]
pub enum TargetExpr {
    /// `var.attr`
    Attr(AttrRef),
    /// `func(var.attr)` — an aggregate over the qualifying rows.
    Aggregate(AggFunc, AttrRef),
}

/// One entry of a retrieve target list:
/// `[name =] var.attr` or `[name =] func(var.attr)`.
#[derive(Clone, PartialEq, Debug)]
pub struct Target {
    /// Result attribute name (defaults to the source attribute name, or
    /// to the function name for aggregates).
    pub name: Option<String>,
    /// What to compute.
    pub expr: TargetExpr,
}

/// One entry of an append/replace assignment list: `attr = literal`.
#[derive(Clone, PartialEq, Debug)]
pub struct Assignment {
    /// The target attribute name.
    pub attr: String,
    /// The assigned literal.
    pub value: Operand,
}

/// A `retrieve` statement.
#[derive(Clone, PartialEq, Debug)]
pub struct Retrieve {
    /// `retrieve into <name>` destination, if any.
    pub into: Option<String>,
    /// The target list.
    pub targets: Vec<Target>,
    /// `valid …` clause.
    pub valid: Option<ValidClause>,
    /// `where …` clause.
    pub where_clause: Option<WhereExpr>,
    /// `when …` clause.
    pub when_clause: Option<WhenExpr>,
    /// `as of …` clause.
    pub as_of: Option<AsOfClause>,
}

/// Relation classes in `create` statements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClassAst {
    /// `as static`
    Static,
    /// `as rollback`
    Rollback,
    /// `as historical`
    Historical,
    /// `as temporal`
    Temporal,
}

/// A statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Statement {
    /// `range of f is faculty`
    RangeDecl {
        /// The variable being declared.
        var: String,
        /// The relation it ranges over.
        relation: String,
    },
    /// `retrieve …`
    Retrieve(Retrieve),
    /// `append to rel (a = v, …) [valid …]`
    Append {
        /// Target relation.
        relation: String,
        /// Attribute assignments.
        assignments: Vec<Assignment>,
        /// Valid-time stamp for the new tuple.
        valid: Option<ValidClause>,
    },
    /// `delete f [where …]`
    Delete {
        /// The range variable naming the target rows.
        var: String,
        /// Row filter.
        where_clause: Option<WhereExpr>,
    },
    /// `replace f (a = v, …) [valid …] [where …]`
    Replace {
        /// The range variable naming the target rows.
        var: String,
        /// Attribute assignments (unmentioned attributes keep their
        /// values).
        assignments: Vec<Assignment>,
        /// New valid-time stamp, if any.
        valid: Option<ValidClause>,
        /// Row filter.
        where_clause: Option<WhereExpr>,
    },
    /// `create rel (a = str, …) [as class] [event|interval]`
    Create {
        /// The new relation's name.
        relation: String,
        /// `(name, type)` attribute declarations.
        attrs: Vec<(String, AttrType)>,
        /// Relation class (defaults to temporal).
        class: ClassAst,
        /// Event or interval signature (defaults to interval).
        event: bool,
    },
    /// `destroy rel`
    Destroy {
        /// The relation to drop.
        relation: String,
    },
    /// `explain stmt` / `profile stmt` — run the wrapped statement with
    /// a trace capture and report the span tree instead of (or, for
    /// `profile`, alongside) its normal output.  `explain` shows
    /// structure, access paths, and row counts; `profile` adds wall
    /// times.  Both words are contextual identifiers, not reserved.
    Explain {
        /// True for `profile` (include timings).
        profile: bool,
        /// The statement being traced.
        inner: Box<Statement>,
    },
    /// `analyze rel` — collect temporal storage statistics for a
    /// relation into the `sys$tablestats` system relation.  Like
    /// `explain`, `analyze` is a contextual identifier, not reserved.
    Analyze {
        /// The relation to collect statistics over.
        relation: String,
    },
    /// `freeze rel` — migrate the relation's closed (wholly-past)
    /// versions off the mutable heap into an immutable, mmap-backed
    /// segment file.  Contextual identifier, like `analyze`.
    Freeze {
        /// The relation whose history to freeze.
        relation: String,
    },
}
