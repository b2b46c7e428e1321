//! Semantic analysis: from parsed AST to an executable plan.
//!
//! Analysis resolves range variables against their declared relations,
//! attribute names against schemas, lowers `where` expressions to
//! flat-index [`Predicate`]s and `when`/`valid` clauses to
//! [`TemporalPred`]/[`TemporalExpr`]s over variable indices, and decides
//! the class of the derived relation:
//!
//! * the result carries **valid time** iff any referenced variable ranges
//!   over a historical or temporal relation;
//! * it carries **transaction time** iff it carries valid time and every
//!   *target-list* variable ranges over a temporal relation (the paper's
//!   Figure 8 result carries the transaction time of the target
//!   variable's row);
//! * a rollback (`as of`) query over a static-rollback relation yields a
//!   **pure static relation** (paper §4.2).
//!
//! Analysis also splits the top-level conjuncts of `where` and `when`
//! per range variable ([`VarFilter`]), so the evaluator can narrow each
//! variable's rows before it forms the product.
//!
//! Default timestamps follow the paper's worked examples: when no
//! `valid` clause is given, a derived tuple's valid time is the
//! intersection of the valid times of the variables appearing in the
//! target list, and its transaction time likewise.

use std::collections::HashMap;

use chronos_algebra::expr::{CmpOp, Expr, Predicate};
use chronos_algebra::when::{TemporalExpr, TemporalPred};
use chronos_core::calendar::date;
use chronos_core::period::Period;
use chronos_core::schema::{Attribute, RelationClass, Schema, TemporalSignature};
use chronos_core::value::{AttrType, Value};

use crate::ast::{
    AggFunc, AsOfClause, AttrRef, CmpOpAst, Operand, Retrieve, Target, TargetExpr, TexprAst,
    ValidClause, WhenExpr, WhereExpr,
};
use crate::error::{TquelError, TquelResult};
use crate::provider::{AsOfSpec, RelationInfo, RelationProvider};

/// A range variable bound in a plan.
#[derive(Clone, Debug)]
pub struct VarBinding {
    /// The variable name.
    pub name: String,
    /// The relation it ranges over.
    pub relation: String,
    /// Catalog info for the relation.
    pub info: RelationInfo,
    /// Offset of this variable's attributes in the flat tuple.
    pub offset: usize,
}

impl VarBinding {
    /// Whether the variable's rows carry valid time.
    pub fn has_valid_time(&self) -> bool {
        matches!(
            self.info.class,
            RelationClass::Historical | RelationClass::Temporal
        )
    }

    /// Whether the variable's relation supports rollback.
    pub fn has_transaction_time(&self) -> bool {
        matches!(
            self.info.class,
            RelationClass::StaticRollback | RelationClass::Temporal
        )
    }
}

/// The lowered `valid` clause.
#[derive(Clone, Debug)]
pub enum ValidPlan {
    /// `valid at e` — the result is event-stamped.
    At(TemporalExpr),
    /// `valid from e1 to e2` — the result period is
    /// `[start of e1, start of e2)`: the `to` bound is exclusive.
    FromTo(TemporalExpr, TemporalExpr),
}

/// One resolved target-list entry.
#[derive(Clone, Copy, Debug)]
pub enum TargetPlan {
    /// Project the flat attribute at this index.
    Attr(usize),
    /// Aggregate over the flat attribute at this index.
    Aggregate(AggFunc, usize),
}

/// The conjuncts of `where` and `when` that mention one range variable
/// only, rebased onto that variable's own row.
#[derive(Clone, PartialEq, Debug)]
pub struct VarFilter {
    /// The variable, as an index into [`RetrievePlan::vars`].
    pub var: usize,
    /// `where` conjuncts over the variable's own tuple.
    pub predicate: Predicate,
    /// `when` conjuncts over the variable's own valid period (`Var(0)`).
    pub when: TemporalPred,
    /// The constant of the first conjunct `attribute 0 = constant` among
    /// them: the key the variable's relation is read by.
    pub key: Option<Value>,
}

/// An executable retrieve plan.
#[derive(Clone, Debug)]
pub struct RetrievePlan {
    /// Destination relation name for `retrieve into`.
    pub into: Option<String>,
    /// Range variables in binding order (flat-tuple layout).
    pub vars: Vec<VarBinding>,
    /// `(output name, what to compute)` per target.
    pub targets: Vec<(String, TargetPlan)>,
    /// True iff the target list aggregates (the result is then a single
    /// static tuple over the qualifying rows).
    pub aggregated: bool,
    /// Distinct variable indices referenced by the target list, in
    /// order — the variables whose timestamps the result inherits.
    pub target_vars: Vec<usize>,
    /// The `where` predicate over the flat tuple.
    pub predicate: Predicate,
    /// The `when` predicate over variable valid times.
    pub when: TemporalPred,
    /// Per-variable filters, at most one per variable: each variable's
    /// own conjuncts of `predicate` and `when`, plus the constant
    /// equalities that equi-join conjuncts imply for it.  They only
    /// narrow the product's inputs — `predicate` and `when` still decide
    /// every answer, so clearing this changes no result.
    pub filters: Vec<VarFilter>,
    /// The `valid` clause, if any.
    pub valid: Option<ValidPlan>,
    /// The resolved `as of` clause, if any.
    pub as_of: Option<AsOfSpec>,
    /// Does the result carry valid time?
    pub result_valid: bool,
    /// Does the result carry transaction time?
    pub result_tx: bool,
    /// Signature of the result's valid time.
    pub result_signature: TemporalSignature,
    /// Schema of the result relation.
    pub out_schema: Schema,
}

/// Analyzes a parsed retrieve against range declarations and a catalog.
pub fn analyze_retrieve(
    stmt: &Retrieve,
    ranges: &HashMap<String, String>,
    provider: &dyn RelationProvider,
) -> TquelResult<RetrievePlan> {
    let mut binder = Binder::new(ranges, provider);

    // Bind variables in order of first appearance: targets, where, when,
    // valid.
    for t in &stmt.targets {
        match &t.expr {
            TargetExpr::Attr(r) | TargetExpr::Aggregate(_, r) => binder.bind(&r.var)?,
        }
    }
    if let Some(w) = &stmt.where_clause {
        binder.bind_where_vars(w)?;
    }
    if let Some(w) = &stmt.when_clause {
        binder.bind_when_vars(w)?;
    }
    match &stmt.valid {
        Some(ValidClause::At(e)) => binder.bind_texpr_vars(e)?,
        Some(ValidClause::FromTo(a, b)) => {
            binder.bind_texpr_vars(a)?;
            binder.bind_texpr_vars(b)?;
        }
        None => {}
    }

    let vars = binder.vars;
    let var_index: HashMap<&str, usize> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (v.name.as_str(), i))
        .collect();

    // Resolve targets.
    let aggregated = stmt
        .targets
        .iter()
        .any(|t| matches!(t.expr, TargetExpr::Aggregate(..)));
    if aggregated
        && stmt
            .targets
            .iter()
            .any(|t| matches!(t.expr, TargetExpr::Attr(_)))
    {
        return Err(TquelError::Semantic(
            "cannot mix aggregates with plain attributes in a target list \
             (grouping is not supported)"
                .into(),
        ));
    }
    let mut targets = Vec::with_capacity(stmt.targets.len());
    let mut target_vars: Vec<usize> = Vec::new();
    let mut out_attrs: Vec<Attribute> = Vec::new();
    for Target { name, expr } in &stmt.targets {
        let (plan, out_name, out_type, attr) = match expr {
            TargetExpr::Attr(attr) => {
                let (flat, a) = resolve_attr(attr, &vars, &var_index)?;
                (
                    TargetPlan::Attr(flat),
                    name.clone().unwrap_or_else(|| attr.attr.clone()),
                    a.attr_type(),
                    attr,
                )
            }
            TargetExpr::Aggregate(func, attr) => {
                let (flat, a) = resolve_attr(attr, &vars, &var_index)?;
                let ty = aggregate_type(*func, a.attr_type(), &attr.attr)?;
                (
                    TargetPlan::Aggregate(*func, flat),
                    name.clone().unwrap_or_else(|| func.as_str().to_string()),
                    ty,
                    attr,
                )
            }
        };
        if out_attrs.iter().any(|x| x.name() == out_name) {
            return Err(TquelError::Semantic(format!(
                "duplicate result attribute {out_name:?} (rename with 'name = var.attr')"
            )));
        }
        out_attrs.push(Attribute::new(&out_name, out_type));
        targets.push((out_name, plan));
        let vi = var_index[attr.var.as_str()];
        if !target_vars.contains(&vi) {
            target_vars.push(vi);
        }
    }
    let out_schema = Schema::new(out_attrs).map_err(|e| TquelError::Semantic(e.to_string()))?;

    // Lower the where clause.
    let predicate = match &stmt.where_clause {
        Some(w) => lower_where(w, &vars, &var_index)?,
        None => Predicate::True,
    };

    // Lower the when clause; variables in temporal positions must carry
    // valid time.
    let when = match &stmt.when_clause {
        Some(w) => lower_when(w, &vars, &var_index)?,
        None => TemporalPred::True,
    };

    let filters = push_down(&vars, &predicate, &when);

    // Lower the valid clause.
    let valid = match &stmt.valid {
        Some(ValidClause::At(e)) => Some(ValidPlan::At(lower_texpr(e, &vars, &var_index)?)),
        Some(ValidClause::FromTo(a, b)) => Some(ValidPlan::FromTo(
            lower_texpr(a, &vars, &var_index)?,
            lower_texpr(b, &vars, &var_index)?,
        )),
        None => None,
    };

    // Resolve the as-of clause (constants only) and check capability.
    let as_of = match &stmt.as_of {
        Some(clause) => Some(resolve_as_of(clause)?),
        None => None,
    };
    if as_of.is_some() {
        for v in &vars {
            if !v.has_transaction_time() {
                return Err(TquelError::Semantic(format!(
                    "'as of' requires rollback support, but {} ranges over {} — a {} relation",
                    v.name, v.relation, v.info.class
                )));
            }
        }
    }

    // Result class: an explicit valid clause always yields a
    // timestamped result; otherwise the result inherits valid time from
    // the target-list variables.  Aggregates summarize over time and
    // yield a pure static relation.
    let result_valid =
        !aggregated && (valid.is_some() || target_vars.iter().any(|&i| vars[i].has_valid_time()));
    let result_tx = result_valid
        && !target_vars.is_empty()
        && target_vars
            .iter()
            .all(|&i| vars[i].info.class == RelationClass::Temporal);
    let result_signature = match &valid {
        Some(ValidPlan::At(_)) => TemporalSignature::Event,
        Some(ValidPlan::FromTo(..)) => TemporalSignature::Interval,
        None => {
            // Inherit: event only if every timestamped target var is event.
            let sigs: Vec<TemporalSignature> = target_vars
                .iter()
                .filter(|&&i| vars[i].has_valid_time())
                .map(|&i| vars[i].info.signature)
                .collect();
            if !sigs.is_empty() && sigs.iter().all(|s| *s == TemporalSignature::Event) {
                TemporalSignature::Event
            } else {
                TemporalSignature::Interval
            }
        }
    };

    Ok(RetrievePlan {
        into: stmt.into.clone(),
        vars,
        targets,
        aggregated,
        target_vars,
        predicate,
        when,
        filters,
        valid,
        as_of,
        result_valid,
        result_tx,
        result_signature,
        out_schema,
    })
}

/// Splits the top-level conjuncts of `predicate` and `when` into
/// per-variable filters.  A conjunct goes to a variable's filter iff it
/// mentions that variable and no other; one that spans two variables
/// (an `or` among them) or none stays in the full predicate only.
fn push_down(vars: &[VarBinding], predicate: &Predicate, when: &TemporalPred) -> Vec<VarFilter> {
    let owner = |flat: usize| {
        vars.iter()
            .position(|v| (v.offset..v.offset + v.info.schema.arity()).contains(&flat))
            .expect("analysis resolves every attribute to a variable")
    };
    let mut wheres = Vec::new();
    where_conjuncts(predicate, &mut wheres);
    let implied = implied_equalities(&wheres);

    let mut filters: Vec<VarFilter> = (0..vars.len())
        .map(|var| VarFilter {
            var,
            predicate: Predicate::True,
            when: TemporalPred::True,
            key: None,
        })
        .collect();
    for c in wheres.into_iter().chain(&implied) {
        let mut attrs = Vec::new();
        pred_attrs(c, &mut attrs);
        let Some((&first, rest)) = attrs.split_first() else {
            continue;
        };
        let var = owner(first);
        if rest.iter().all(|&a| owner(a) == var) {
            let f = &mut filters[var];
            let c = rebase_pred(c, vars[var].offset);
            if f.key.is_none() {
                f.key = key_constant(&c).cloned();
            }
            f.predicate = match std::mem::replace(&mut f.predicate, Predicate::True) {
                Predicate::True => c,
                acc => acc.and(c),
            };
        }
    }
    let mut whens = Vec::new();
    when_conjuncts(when, &mut whens);
    for c in whens {
        let mut used = Vec::new();
        tpred_vars(c, &mut used);
        if let Some((&var, rest)) = used.split_first() {
            if rest.iter().all(|&v| v == var) {
                let f = &mut filters[var];
                f.when = match std::mem::replace(&mut f.when, TemporalPred::True) {
                    TemporalPred::True => rebase_tpred(c),
                    acc => acc.and(rebase_tpred(c)),
                };
            }
        }
    }
    filters.retain(|f| f.predicate != Predicate::True || f.when != TemporalPred::True);
    filters
}

/// The constant of a conjunct `attribute 0 = constant`.
fn key_constant(c: &Predicate) -> Option<&Value> {
    match c {
        Predicate::Cmp(CmpOp::Eq, Expr::Attr(0), Expr::Const(k))
        | Predicate::Cmp(CmpOp::Eq, Expr::Const(k), Expr::Attr(0)) => Some(k),
        _ => None,
    }
}

fn where_conjuncts<'p>(p: &'p Predicate, out: &mut Vec<&'p Predicate>) {
    match p {
        Predicate::And(a, b) => {
            where_conjuncts(a, out);
            where_conjuncts(b, out);
        }
        Predicate::True => {}
        other => out.push(other),
    }
}

fn when_conjuncts<'p>(p: &'p TemporalPred, out: &mut Vec<&'p TemporalPred>) {
    match p {
        TemporalPred::And(a, b) => {
            when_conjuncts(a, out);
            when_conjuncts(b, out);
        }
        TemporalPred::True => {}
        other => out.push(other),
    }
}

/// The `a = const` conjuncts that top-level `a = b` and `b = const`
/// conjuncts imply (transitively), other than those already present.
/// Sound because `=` on [`Value`]s is an equivalence and analysis gives
/// both sides of every comparison one type.
fn implied_equalities(conjuncts: &[&Predicate]) -> Vec<Predicate> {
    let mut links = Vec::new();
    let mut known: Vec<(usize, &Value)> = Vec::new();
    for c in conjuncts {
        match c {
            Predicate::Cmp(CmpOp::Eq, Expr::Attr(a), Expr::Attr(b)) => links.push((*a, *b)),
            Predicate::Cmp(CmpOp::Eq, Expr::Attr(a), Expr::Const(v))
            | Predicate::Cmp(CmpOp::Eq, Expr::Const(v), Expr::Attr(a))
                if !known.contains(&(*a, v)) =>
            {
                known.push((*a, v));
            }
            _ => {}
        }
    }
    let explicit = known.len();
    let mut i = 0;
    while i < known.len() {
        let (attr, v) = known[i];
        for &(a, b) in &links {
            let other = match attr {
                x if x == a => b,
                x if x == b => a,
                _ => continue,
            };
            if !known.contains(&(other, v)) {
                known.push((other, v));
            }
        }
        i += 1;
    }
    known[explicit..]
        .iter()
        .map(|&(a, v)| Predicate::attr_eq(a, v.clone()))
        .collect()
}

fn pred_attrs(p: &Predicate, out: &mut Vec<usize>) {
    match p {
        Predicate::True => {}
        Predicate::Cmp(_, a, b) => {
            for e in [a, b] {
                if let Expr::Attr(i) = e {
                    out.push(*i);
                }
            }
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            pred_attrs(a, out);
            pred_attrs(b, out);
        }
        Predicate::Not(a) => pred_attrs(a, out),
    }
}

fn rebase_pred(p: &Predicate, offset: usize) -> Predicate {
    let expr = |e: &Expr| match e {
        Expr::Attr(i) => Expr::Attr(i - offset),
        c => c.clone(),
    };
    match p {
        Predicate::True => Predicate::True,
        Predicate::Cmp(op, a, b) => Predicate::Cmp(*op, expr(a), expr(b)),
        Predicate::And(a, b) => rebase_pred(a, offset).and(rebase_pred(b, offset)),
        Predicate::Or(a, b) => rebase_pred(a, offset).or(rebase_pred(b, offset)),
        Predicate::Not(a) => rebase_pred(a, offset).not(),
    }
}

fn tpred_vars(p: &TemporalPred, out: &mut Vec<usize>) {
    match p {
        TemporalPred::True => {}
        TemporalPred::Overlap(a, b) | TemporalPred::Precede(a, b) | TemporalPred::Equal(a, b) => {
            texpr_vars(a, out);
            texpr_vars(b, out);
        }
        TemporalPred::And(a, b) | TemporalPred::Or(a, b) => {
            tpred_vars(a, out);
            tpred_vars(b, out);
        }
        TemporalPred::Not(a) => tpred_vars(a, out),
    }
}

fn texpr_vars(e: &TemporalExpr, out: &mut Vec<usize>) {
    match e {
        TemporalExpr::Var(i) => out.push(*i),
        TemporalExpr::Const(_) => {}
        TemporalExpr::StartOf(a) | TemporalExpr::EndOf(a) => texpr_vars(a, out),
        TemporalExpr::Extend(a, b) | TemporalExpr::Intersect(a, b) => {
            texpr_vars(a, out);
            texpr_vars(b, out);
        }
    }
}

/// Rebases a one-variable `when` conjunct onto that variable's period
/// alone: every `Var(i)` becomes `Var(0)`.
fn rebase_tpred(p: &TemporalPred) -> TemporalPred {
    let pred = |p: &TemporalPred| Box::new(rebase_tpred(p));
    match p {
        TemporalPred::True => TemporalPred::True,
        TemporalPred::Overlap(a, b) => TemporalPred::Overlap(rebase_texpr(a), rebase_texpr(b)),
        TemporalPred::Precede(a, b) => TemporalPred::Precede(rebase_texpr(a), rebase_texpr(b)),
        TemporalPred::Equal(a, b) => TemporalPred::Equal(rebase_texpr(a), rebase_texpr(b)),
        TemporalPred::And(a, b) => TemporalPred::And(pred(a), pred(b)),
        TemporalPred::Or(a, b) => TemporalPred::Or(pred(a), pred(b)),
        TemporalPred::Not(a) => TemporalPred::Not(pred(a)),
    }
}

fn rebase_texpr(e: &TemporalExpr) -> TemporalExpr {
    let expr = |e: &TemporalExpr| Box::new(rebase_texpr(e));
    match e {
        TemporalExpr::Var(_) => TemporalExpr::Var(0),
        TemporalExpr::Const(p) => TemporalExpr::Const(*p),
        TemporalExpr::StartOf(a) => TemporalExpr::StartOf(expr(a)),
        TemporalExpr::EndOf(a) => TemporalExpr::EndOf(expr(a)),
        TemporalExpr::Extend(a, b) => TemporalExpr::Extend(expr(a), expr(b)),
        TemporalExpr::Intersect(a, b) => TemporalExpr::Intersect(expr(a), expr(b)),
    }
}

struct Binder<'a> {
    ranges: &'a HashMap<String, String>,
    provider: &'a dyn RelationProvider,
    vars: Vec<VarBinding>,
    next_offset: usize,
}

impl<'a> Binder<'a> {
    fn new(ranges: &'a HashMap<String, String>, provider: &'a dyn RelationProvider) -> Self {
        Binder {
            ranges,
            provider,
            vars: Vec::new(),
            next_offset: 0,
        }
    }

    fn bind(&mut self, var: &str) -> TquelResult<()> {
        if self.vars.iter().any(|v| v.name == var) {
            return Ok(());
        }
        let relation = self.ranges.get(var).ok_or_else(|| {
            TquelError::Semantic(format!(
                "range variable {var:?} is not declared (use 'range of {var} is <relation>')"
            ))
        })?;
        let info = self
            .provider
            .info(relation)
            .ok_or_else(|| TquelError::Semantic(format!("unknown relation {relation:?}")))?;
        let offset = self.next_offset;
        self.next_offset += info.schema.arity();
        self.vars.push(VarBinding {
            name: var.to_string(),
            relation: relation.clone(),
            info,
            offset,
        });
        Ok(())
    }

    fn bind_where_vars(&mut self, w: &WhereExpr) -> TquelResult<()> {
        match w {
            WhereExpr::Cmp(_, a, b) => {
                for op in [a, b] {
                    if let Operand::Attr(r) = op {
                        self.bind(&r.var)?;
                    }
                }
                Ok(())
            }
            WhereExpr::And(a, b) | WhereExpr::Or(a, b) => {
                self.bind_where_vars(a)?;
                self.bind_where_vars(b)
            }
            WhereExpr::Not(a) => self.bind_where_vars(a),
        }
    }

    fn bind_when_vars(&mut self, w: &WhenExpr) -> TquelResult<()> {
        match w {
            WhenExpr::Overlap(a, b) | WhenExpr::Precede(a, b) | WhenExpr::Equal(a, b) => {
                self.bind_texpr_vars(a)?;
                self.bind_texpr_vars(b)
            }
            WhenExpr::And(a, b) | WhenExpr::Or(a, b) => {
                self.bind_when_vars(a)?;
                self.bind_when_vars(b)
            }
            WhenExpr::Not(a) => self.bind_when_vars(a),
        }
    }

    fn bind_texpr_vars(&mut self, e: &TexprAst) -> TquelResult<()> {
        match e {
            TexprAst::Var(v) => self.bind(v),
            TexprAst::Date(_) | TexprAst::Forever => Ok(()),
            TexprAst::StartOf(a) | TexprAst::EndOf(a) => self.bind_texpr_vars(a),
            TexprAst::Extend(a, b) | TexprAst::Overlap(a, b) => {
                self.bind_texpr_vars(a)?;
                self.bind_texpr_vars(b)
            }
        }
    }
}

fn resolve_attr<'v>(
    r: &AttrRef,
    vars: &'v [VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<(usize, &'v Attribute)> {
    let vi = *var_index.get(r.var.as_str()).ok_or_else(|| {
        TquelError::Semantic(format!("range variable {:?} is not declared", r.var))
    })?;
    let v = &vars[vi];
    let ai = v.info.schema.index_of(&r.attr).ok_or_else(|| {
        TquelError::Semantic(format!(
            "relation {:?} has no attribute {:?} (schema {})",
            v.relation, r.attr, v.info.schema
        ))
    })?;
    Ok((v.offset + ai, v.info.schema.attribute(ai)))
}

fn operand_type(
    op: &Operand,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<(Expr, AttrType)> {
    match op {
        Operand::Attr(r) => {
            let (flat, a) = resolve_attr(r, vars, var_index)?;
            Ok((Expr::Attr(flat), a.attr_type()))
        }
        Operand::Str(s) => {
            // A quoted literal compared against a date attribute is a
            // date; the executor handles that coercion at lowering time
            // (see lower_where).
            Ok((Expr::Const(Value::str(s)), AttrType::Str))
        }
        Operand::Int(i) => Ok((Expr::Const(Value::Int(*i)), AttrType::Int)),
        Operand::Float(x) => Ok((Expr::Const(Value::Float(*x)), AttrType::Float)),
        Operand::Bool(b) => Ok((Expr::Const(Value::Bool(*b)), AttrType::Bool)),
    }
}

fn lower_where(
    w: &WhereExpr,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<Predicate> {
    match w {
        WhereExpr::Cmp(op, a, b) => {
            let (mut ea, mut ta) = operand_type(a, vars, var_index)?;
            let (mut eb, mut tb) = operand_type(b, vars, var_index)?;
            // Coerce string literals to dates when compared with a date
            // attribute (user-defined time: "merely a date" §4.5).
            if ta == AttrType::Date && tb == AttrType::Str {
                if let (Expr::Const(Value::Str(s)), Operand::Str(_)) = (&eb, b) {
                    let c = date(s).map_err(|e| TquelError::Semantic(e.to_string()))?;
                    eb = Expr::Const(Value::Date(c));
                    tb = AttrType::Date;
                }
            }
            if tb == AttrType::Date && ta == AttrType::Str {
                if let (Expr::Const(Value::Str(s)), Operand::Str(_)) = (&ea, a) {
                    let c = date(s).map_err(|e| TquelError::Semantic(e.to_string()))?;
                    ea = Expr::Const(Value::Date(c));
                    ta = AttrType::Date;
                }
            }
            if ta != tb {
                return Err(TquelError::Semantic(format!(
                    "type mismatch in comparison: {ta} vs {tb}"
                )));
            }
            let op = match op {
                CmpOpAst::Eq => CmpOp::Eq,
                CmpOpAst::Ne => CmpOp::Ne,
                CmpOpAst::Lt => CmpOp::Lt,
                CmpOpAst::Le => CmpOp::Le,
                CmpOpAst::Gt => CmpOp::Gt,
                CmpOpAst::Ge => CmpOp::Ge,
            };
            Ok(Predicate::Cmp(op, ea, eb))
        }
        WhereExpr::And(a, b) => {
            Ok(lower_where(a, vars, var_index)?.and(lower_where(b, vars, var_index)?))
        }
        WhereExpr::Or(a, b) => {
            Ok(lower_where(a, vars, var_index)?.or(lower_where(b, vars, var_index)?))
        }
        WhereExpr::Not(a) => Ok(lower_where(a, vars, var_index)?.not()),
    }
}

fn lower_when(
    w: &WhenExpr,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<TemporalPred> {
    match w {
        WhenExpr::Overlap(a, b) => Ok(TemporalPred::Overlap(
            lower_texpr(a, vars, var_index)?,
            lower_texpr(b, vars, var_index)?,
        )),
        WhenExpr::Precede(a, b) => Ok(TemporalPred::Precede(
            lower_texpr(a, vars, var_index)?,
            lower_texpr(b, vars, var_index)?,
        )),
        WhenExpr::Equal(a, b) => Ok(TemporalPred::Equal(
            lower_texpr(a, vars, var_index)?,
            lower_texpr(b, vars, var_index)?,
        )),
        WhenExpr::And(a, b) => {
            Ok(lower_when(a, vars, var_index)?.and(lower_when(b, vars, var_index)?))
        }
        WhenExpr::Or(a, b) => Ok(TemporalPred::Or(
            Box::new(lower_when(a, vars, var_index)?),
            Box::new(lower_when(b, vars, var_index)?),
        )),
        WhenExpr::Not(a) => Ok(TemporalPred::Not(Box::new(lower_when(a, vars, var_index)?))),
    }
}

fn lower_texpr(
    e: &TexprAst,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<TemporalExpr> {
    match e {
        TexprAst::Var(v) => {
            let vi = *var_index.get(v.as_str()).ok_or_else(|| {
                TquelError::Semantic(format!("range variable {v:?} is not declared"))
            })?;
            if !vars[vi].has_valid_time() {
                return Err(TquelError::Semantic(format!(
                    "{v:?} ranges over a {} relation, which carries no valid time",
                    vars[vi].info.class
                )));
            }
            Ok(TemporalExpr::Var(vi))
        }
        TexprAst::Date(s) => {
            let c = date(s).map_err(|e| TquelError::Semantic(e.to_string()))?;
            Ok(TemporalExpr::Const(Period::instant(c)))
        }
        TexprAst::Forever => Ok(TemporalExpr::Const(Period::instant_at(
            chronos_core::timepoint::TimePoint::PlusInfinity,
        ))),
        TexprAst::StartOf(a) => Ok(lower_texpr(a, vars, var_index)?.start_of()),
        TexprAst::EndOf(a) => Ok(lower_texpr(a, vars, var_index)?.end_of()),
        TexprAst::Extend(a, b) => {
            Ok(lower_texpr(a, vars, var_index)?.extend(lower_texpr(b, vars, var_index)?))
        }
        TexprAst::Overlap(a, b) => Ok(TemporalExpr::Intersect(
            Box::new(lower_texpr(a, vars, var_index)?),
            Box::new(lower_texpr(b, vars, var_index)?),
        )),
    }
}

/// Resolves an `as of` clause, which must be constant (no range
/// variables).
pub fn resolve_as_of(clause: &AsOfClause) -> TquelResult<AsOfSpec> {
    let at = const_instant(&clause.at)?;
    match &clause.through {
        None => Ok(AsOfSpec::At(at)),
        Some(e) => {
            let through = const_instant(e)?;
            if through < at {
                return Err(TquelError::Semantic(format!(
                    "'as of … through …' runs backwards: {at} > {through}"
                )));
            }
            Ok(AsOfSpec::Through(at, through))
        }
    }
}

fn const_instant(e: &TexprAst) -> TquelResult<chronos_core::chronon::Chronon> {
    match e {
        TexprAst::Date(s) => date(s).map_err(|e| TquelError::Semantic(e.to_string())),
        other => Err(TquelError::Semantic(format!(
            "'as of' takes a constant date, not {other:?}"
        ))),
    }
}

/// The result type of an aggregate over an attribute of type `ty`.
fn aggregate_type(func: AggFunc, ty: AttrType, attr: &str) -> TquelResult<AttrType> {
    match func {
        AggFunc::Count => Ok(AttrType::Int),
        AggFunc::Min | AggFunc::Max => Ok(ty),
        AggFunc::Sum => match ty {
            AttrType::Int | AttrType::Float => Ok(ty),
            other => Err(TquelError::Semantic(format!(
                "sum over non-numeric attribute {attr:?} ({other})"
            ))),
        },
        AggFunc::Avg => match ty {
            AttrType::Int | AttrType::Float => Ok(AttrType::Float),
            other => Err(TquelError::Semantic(format!(
                "avg over non-numeric attribute {attr:?} ({other})"
            ))),
        },
    }
}

/// Lowers a `where` clause that may reference only the single variable
/// `var` ranging over `info` (used by `delete`/`replace`, whose target
/// rows come from one relation).
pub fn analyze_where_single(
    w: &WhereExpr,
    var: &str,
    info: &RelationInfo,
) -> TquelResult<Predicate> {
    let vars = vec![VarBinding {
        name: var.to_string(),
        relation: String::new(),
        info: info.clone(),
        offset: 0,
    }];
    let var_index: HashMap<&str, usize> = [(var, 0usize)].into_iter().collect();
    lower_where(w, &vars, &var_index)
}

/// Lowers a constant `valid` clause (no range variables) for
/// modification statements.
pub fn analyze_valid_const(v: &ValidClause) -> TquelResult<ValidPlan> {
    let vars: Vec<VarBinding> = Vec::new();
    let var_index: HashMap<&str, usize> = HashMap::new();
    match v {
        ValidClause::At(e) => Ok(ValidPlan::At(lower_texpr(e, &vars, &var_index)?)),
        ValidClause::FromTo(a, b) => Ok(ValidPlan::FromTo(
            lower_texpr(a, &vars, &var_index)?,
            lower_texpr(b, &vars, &var_index)?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use chronos_core::schema::faculty_schema;

    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse_statement;
    use crate::provider::SourceRow;

    /// A catalog of one temporal `faculty (name, rank)`; nothing scans.
    struct Faculty;

    impl RelationProvider for Faculty {
        fn info(&self, relation: &str) -> Option<RelationInfo> {
            (relation == "faculty").then(|| RelationInfo {
                schema: faculty_schema(),
                class: RelationClass::Temporal,
                signature: TemporalSignature::Interval,
            })
        }

        fn scan(&self, _: &str, _: Option<&AsOfSpec>) -> TquelResult<Arc<Vec<SourceRow>>> {
            unreachable!("analysis never scans")
        }
    }

    fn filters(retrieve: &str) -> Vec<VarFilter> {
        let Ok(Statement::Retrieve(stmt)) = parse_statement(retrieve) else {
            panic!("not a retrieve: {retrieve}");
        };
        let ranges: HashMap<String, String> = [("f1", "faculty"), ("f2", "faculty")]
            .into_iter()
            .map(|(v, r)| (v.to_string(), r.to_string()))
            .collect();
        analyze_retrieve(&stmt, &ranges, &Faculty)
            .expect("analyzes")
            .filters
    }

    fn only_where(var: usize, predicate: Predicate) -> VarFilter {
        VarFilter {
            var,
            key: key_constant(&predicate).cloned(),
            predicate,
            when: TemporalPred::True,
        }
    }

    #[test]
    fn each_variable_keeps_its_own_conjuncts_rebased_onto_its_tuple() {
        let got = filters(
            r#"retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom"
               when f1 overlap start of f2"#,
        );
        assert_eq!(
            got,
            [
                only_where(0, Predicate::attr_eq(0, "Merrie")),
                only_where(1, Predicate::attr_eq(0, "Tom")),
            ]
        );
    }

    #[test]
    fn an_equi_join_carries_a_constant_to_the_other_side() {
        let got = filters(r#"retrieve (f1.rank) where f1.name = f2.name and f2.name = "k""#);
        assert_eq!(
            got,
            [
                only_where(0, Predicate::attr_eq(0, "k")),
                only_where(1, Predicate::attr_eq(0, "k")),
            ]
        );
    }

    #[test]
    fn the_key_is_the_first_constant_equality_on_attribute_0() {
        let keys = |retrieve: &str| -> Vec<(usize, Option<Value>)> {
            filters(retrieve)
                .into_iter()
                .map(|f| (f.var, f.key))
                .collect()
        };
        // Not the first conjunct: the first one on attribute 0.
        assert_eq!(
            keys(
                r#"retrieve (f1.rank) where f1.rank = "full" and "b" = f1.name and f1.name = "c""#
            ),
            [(0, Some(Value::str("b")))]
        );
        // Derived through an equi-join; f2's own conjunct comes first.
        assert_eq!(
            keys(r#"retrieve (f1.rank) where f1.name = f2.name and f2.name = "k""#),
            [(0, Some(Value::str("k"))), (1, Some(Value::str("k")))]
        );
        // A disjunction, an inequality or another attribute pins no key.
        assert_eq!(
            keys(
                r#"retrieve (f1.rank) where (f1.name = "a" or f1.name = "b")
                   and f2.name != "c" and f2.rank = "full""#
            ),
            [(0, None), (1, None)]
        );
    }

    #[test]
    fn conjuncts_over_two_variables_or_none_are_not_pushed() {
        let got = filters(
            r#"retrieve (f1.rank) where (f1.rank = "full" or f2.rank = "full")
               and "a" = "b" and f1.rank < f2.rank"#,
        );
        assert_eq!(got, []);
    }

    #[test]
    fn a_one_variable_when_conjunct_is_rebased_onto_its_period() {
        let got = filters(
            r#"retrieve (f1.rank) where (f2.name = "a" or f2.rank = "b")
               when f2 overlap "01/01/80" and f1 precede f2"#,
        );
        let day = Period::instant(date("01/01/80").expect("valid"));
        assert_eq!(
            got,
            [VarFilter {
                var: 1,
                predicate: Predicate::attr_eq(0, "a").or(Predicate::attr_eq(1, "b")),
                when: TemporalPred::Overlap(TemporalExpr::Var(0), TemporalExpr::Const(day)),
                key: None,
            }]
        );
    }
}
