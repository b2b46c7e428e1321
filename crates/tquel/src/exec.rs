//! The tuple-calculus evaluator.
//!
//! A retrieve is answered as the paper (and Quel) define it: the
//! combinations of the range variables' rows that satisfy the `where`
//! predicate over attribute values and the `when` predicate over valid
//! times, projected through the target list with derived timestamps.
//!
//! The evaluator does not form the whole cartesian product.  Each
//! variable's relation is read through one
//! [`access`](RelationProvider::access) request carrying the variable's
//! key constant, so the provider may return only that key's rows; the
//! rows are then narrowed by the variable's own conjuncts (the plan's
//! [`VarFilter`](crate::analyze::VarFilter)s); the product runs over the
//! narrowed inputs and re-checks the full `where` and `when` on every
//! combination.  Reading by key and narrowing both keep each scan's
//! order, so the qualifying combinations come out in the same order as
//! over the full product.
//!
//! Derived timestamps (§4.4's closure property — "this derived relation
//! is a temporal relation, so further temporal relations can be derived
//! from it"):
//!
//! * valid time — the `valid` clause when present, otherwise the
//!   intersection of the target-list variables' valid times;
//! * transaction time — the intersection of the target-list variables'
//!   transaction periods (temporal operands only).
//!
//! Rows whose derived valid period is empty hold at no time and are
//! dropped.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use chronos_algebra::expr::Predicate;
use chronos_algebra::when::TemporalPred;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

use chronos_obs::{noop_recorder, Recorder};

use crate::analyze::{analyze_retrieve, RetrievePlan, TargetPlan, ValidPlan, VarFilter};
use crate::ast::{AggFunc, Retrieve};
use crate::error::{TquelError, TquelResult};
use crate::provider::{AccessRequest, RelationProvider, SourceRow};

/// One row of a query result, carrying whatever timestamps the result
/// class has.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRow {
    /// The projected attribute values.
    pub tuple: Tuple,
    /// Valid time (historical and temporal results).
    pub validity: Option<Validity>,
    /// Transaction time (temporal results).
    pub tx: Option<Period>,
}

/// A derived relation.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRelation {
    /// Result schema.
    pub schema: Schema,
    /// Which of the four classes the derived relation belongs to.
    pub kind: DatabaseClass,
    /// Signature of the valid time, when carried.
    pub signature: TemporalSignature,
    /// The rows.
    pub rows: Vec<ResultRow>,
}

impl ResultRelation {
    /// The values of a single-attribute result, as strings (convenience
    /// for tests and examples).
    pub fn column_strings(&self, idx: usize) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| r.tuple.get(idx).to_string())
            .collect()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Executes an analyzed plan.
pub fn execute_plan(
    plan: &RetrievePlan,
    provider: &dyn RelationProvider,
) -> TquelResult<ResultRelation> {
    execute_plan_traced(plan, provider, noop_recorder())
}

/// Executes an analyzed plan, recording per-operator spans (scan,
/// filter, product, aggregate) into `recorder`.
pub fn execute_plan_traced(
    plan: &RetrievePlan,
    provider: &dyn RelationProvider,
    recorder: &Recorder,
) -> TquelResult<ResultRelation> {
    let exec_span = recorder.span("tquel/exec");
    // One slot per variable, filled in binding order, so each narrowed
    // input can borrow its scan while the later ones run.
    let scans: Vec<OnceCell<Arc<Vec<SourceRow>>>> =
        plan.vars.iter().map(|_| OnceCell::new()).collect();
    let mut inputs: Vec<Vec<&SourceRow>> = Vec::with_capacity(plan.vars.len());
    let mut estimates: Vec<Option<u64>> = Vec::with_capacity(plan.vars.len());
    for (vi, (v, slot)) in plan.vars.iter().zip(&scans).enumerate() {
        let filter = plan.filters.iter().find(|f| f.var == vi);
        let key = filter.and_then(|f| f.key.as_ref());
        let span = recorder.span("tquel/scan");
        if recorder.is_enabled() {
            let attr = |f: &mut fmt::Formatter<'_>, i: usize| {
                f.write_str(v.info.schema.attribute(i).name())
            };
            span.detail(match key {
                Some(k) => format!(
                    "{} over {} [key {}]",
                    v.name,
                    v.relation,
                    Predicate::attr_eq(0, k.clone()).named(&attr)
                ),
                None => format!("{} over {}", v.name, v.relation),
            });
        }
        // Statistics describe a whole current-state scan, so estimates
        // only apply to unkeyed, non-rollback scans; keyed and `as of`
        // operators show actuals alone.
        let est = if plan.as_of.is_none() && key.is_none() {
            provider.estimated_rows(&v.relation)
        } else {
            None
        };
        if let Some(est) = est {
            span.rows_est(est);
        }
        estimates.push(est);
        let request = AccessRequest {
            as_of: plan.as_of.as_ref(),
            key,
        };
        let rows = provider.access(&v.relation, &request)?;
        span.rows_out(rows.len() as u64);
        let rows = slot.get_or_init(|| rows);
        inputs.push(match filter {
            Some(filter) => narrow(plan, filter, rows, recorder)?,
            None => rows.iter().collect(),
        });
    }
    let combinations: u64 = inputs.iter().map(|rows| rows.len() as u64).product();
    // The product's input estimate is the product of the per-scan
    // estimates — defined only when every scan had one.
    let est_combinations: Option<u64> = estimates
        .iter()
        .copied()
        .try_fold(1u64, |acc, e| e.map(|e| acc.saturating_mul(e)));

    if plan.aggregated {
        let span = recorder.span("tquel/aggregate");
        span.rows_in(combinations);
        if let Some(est) = est_combinations {
            span.rows_est(est);
        }
        let result = execute_aggregate(plan, &inputs)?;
        span.rows_out(result.len() as u64);
        exec_span.rows_out(result.len() as u64);
        return Ok(result);
    }
    let product_span = recorder.span("tquel/product");
    product_span.rows_in(combinations);
    if let Some(est) = est_combinations {
        product_span.rows_est(est);
    }

    let kind = match (plan.result_valid, plan.result_tx) {
        (true, true) => DatabaseClass::Temporal,
        (true, false) => DatabaseClass::Historical,
        _ => DatabaseClass::Static,
    };

    /// Set semantics over derived rows: tuple + both timestamps.
    type RowKey = (Tuple, Option<Validity>, Option<(TimePoint, TimePoint)>);
    let mut rows: Vec<ResultRow> = Vec::new();
    let mut seen: HashSet<RowKey> = HashSet::new();
    for_each_match(plan, &inputs, |combo, flat, env| {
        if let Some(row) = derive_row(plan, combo, flat, env)? {
            let key = (
                row.tuple.clone(),
                row.validity,
                row.tx.map(|p| (p.start(), p.end())),
            );
            if seen.insert(key) {
                rows.push(row);
            }
        }
        Ok(())
    })?;

    product_span.rows_out(rows.len() as u64);
    exec_span.rows_out(rows.len() as u64);
    Ok(ResultRelation {
        schema: plan.out_schema.clone(),
        kind,
        signature: plan.result_signature,
        rows,
    })
}

/// A row's valid period; rows without valid time hold always.
fn valid_period(row: &SourceRow) -> Period {
    row.validity.map_or(Period::ALWAYS, |v| v.period())
}

/// The rows of `scan` that pass `filter`, in scan order, under a
/// `tquel/filter` span naming the pushed conjuncts.
fn narrow<'a>(
    plan: &RetrievePlan,
    filter: &VarFilter,
    scan: &'a [SourceRow],
    recorder: &Recorder,
) -> TquelResult<Vec<&'a SourceRow>> {
    let span = recorder.span("tquel/filter");
    if recorder.is_enabled() {
        span.detail(describe(plan, filter));
    }
    span.rows_in(scan.len() as u64);
    let mut kept = Vec::new();
    for row in scan {
        if filter.predicate.eval(&row.tuple)?
            && filter.when.eval(std::slice::from_ref(&valid_period(row)))?
        {
            kept.push(row);
        }
    }
    span.rows_out(kept.len() as u64);
    Ok(kept)
}

/// `where f.name = "Merrie" when f overlap …` — a filter's conjuncts in
/// the variable's own names.
fn describe(plan: &RetrievePlan, filter: &VarFilter) -> String {
    let v = &plan.vars[filter.var];
    let attr = |f: &mut fmt::Formatter<'_>, i: usize| {
        write!(f, "{}.{}", v.name, v.info.schema.attribute(i).name())
    };
    let var = |f: &mut fmt::Formatter<'_>, _| f.write_str(&v.name);
    let mut parts = Vec::new();
    if filter.predicate != Predicate::True {
        parts.push(format!("where {}", filter.predicate.named(&attr)));
    }
    if filter.when != TemporalPred::True {
        parts.push(format!("when {}", filter.when.named(&var)));
    }
    parts.join(" ")
}

/// Calls `visit` for every combination of `inputs` (one row per
/// variable, the last variable varying fastest) that satisfies the
/// plan's full `where` and `when`, passing the rows, the flat tuple's
/// values and the valid-time environment.  The three buffers are
/// allocated once; a step rewrites only the variables whose row changed.
fn for_each_match<'a>(
    plan: &RetrievePlan,
    inputs: &[Vec<&'a SourceRow>],
    mut visit: impl FnMut(&[&'a SourceRow], &[Value], &[Period]) -> TquelResult<()>,
) -> TquelResult<()> {
    if inputs.iter().any(Vec::is_empty) {
        return Ok(());
    }
    let mut idx = vec![0usize; inputs.len()];
    let mut combo: Vec<&SourceRow> = inputs.iter().map(|rows| rows[0]).collect();
    let mut flat: Vec<Value> = combo
        .iter()
        .flat_map(|r| r.tuple.values())
        .cloned()
        .collect();
    let mut env: Vec<Period> = combo.iter().map(|r| valid_period(r)).collect();
    loop {
        if plan.predicate.eval_values(&flat)? && plan.when.eval(&env)? {
            visit(&combo, &flat, &env)?;
        }
        // Advance the odometer; variables `d..` move to a new row.
        let mut d = inputs.len();
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < inputs[d].len() {
                break;
            }
            idx[d] = 0;
        }
        for v in d..inputs.len() {
            let row = inputs[v][idx[v]];
            let at = plan.vars[v].offset;
            combo[v] = row;
            flat[at..at + row.tuple.arity()].clone_from_slice(row.tuple.values());
            env[v] = valid_period(row);
        }
    }
}

/// Running state of one aggregate target.
#[derive(Clone, Debug)]
enum AggState {
    Count(i64),
    SumInt(i64),
    SumFloat(f64),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc, sample_is_float: bool) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum if sample_is_float => AggState::SumFloat(0.0),
            AggFunc::Sum => AggState::SumInt(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn observe(&mut self, v: &Value) -> TquelResult<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(s) => {
                *s += v
                    .as_int()
                    .ok_or_else(|| TquelError::Semantic("sum over a non-integer value".into()))?;
            }
            AggState::SumFloat(s) => match v {
                Value::Float(x) => *s += x,
                Value::Int(i) => *s += *i as f64,
                other => {
                    return Err(TquelError::Semantic(format!(
                        "sum over non-numeric value {other}"
                    )))
                }
            },
            AggState::Avg { sum, n } => {
                match v {
                    Value::Float(x) => *sum += x,
                    Value::Int(i) => *sum += *i as f64,
                    other => {
                        return Err(TquelError::Semantic(format!(
                            "avg over non-numeric value {other}"
                        )))
                    }
                }
                *n += 1;
            }
            AggState::Min(best) => {
                if best.as_ref().is_none_or(|b| v < b) {
                    *best = Some(v.clone());
                }
            }
            AggState::Max(best) => {
                if best.as_ref().is_none_or(|b| v > b) {
                    *best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// The final value; `None` when the aggregate is undefined over an
    /// empty set (min/max/avg of nothing).
    fn finish(self) -> Option<Value> {
        match self {
            AggState::Count(n) => Some(Value::Int(n)),
            AggState::SumInt(s) => Some(Value::Int(s)),
            AggState::SumFloat(s) => Some(Value::Float(s)),
            AggState::Avg { n: 0, .. } => None,
            AggState::Avg { sum, n } => Some(Value::Float(sum / n as f64)),
            AggState::Min(v) | AggState::Max(v) => v,
        }
    }
}

/// Aggregated execution: one pass over the qualifying combinations,
/// producing a single static tuple (or the empty relation when a
/// value aggregate is undefined over an empty set).
fn execute_aggregate(
    plan: &RetrievePlan,
    inputs: &[Vec<&SourceRow>],
) -> TquelResult<ResultRelation> {
    let mut states: Vec<(AggState, usize)> = plan
        .targets
        .iter()
        .zip(plan.out_schema.attributes())
        .map(|((_, t), out_attr)| match t {
            TargetPlan::Aggregate(func, flat) => {
                let is_float = out_attr.attr_type() == chronos_core::value::AttrType::Float;
                (AggState::new(*func, is_float), *flat)
            }
            TargetPlan::Attr(_) => unreachable!("analysis rejects mixed target lists"),
        })
        .collect();
    for_each_match(plan, inputs, |_, flat, _| {
        for (state, flat_idx) in &mut states {
            state.observe(&flat[*flat_idx])?;
        }
        Ok(())
    })?;

    let mut values = Vec::with_capacity(states.len());
    let mut defined = true;
    for (state, _) in states {
        match state.finish() {
            Some(v) => values.push(v),
            None => defined = false,
        }
    }
    let rows = if defined {
        vec![ResultRow {
            tuple: Tuple::new(values),
            validity: None,
            tx: None,
        }]
    } else {
        Vec::new()
    };
    Ok(ResultRelation {
        schema: plan.out_schema.clone(),
        kind: DatabaseClass::Static,
        signature: plan.result_signature,
        rows,
    })
}

fn derive_row(
    plan: &RetrievePlan,
    combo: &[&SourceRow],
    flat: &[Value],
    env: &[Period],
) -> TquelResult<Option<ResultRow>> {
    // Valid time.
    let validity = if plan.result_valid {
        let validity = match &plan.valid {
            Some(ValidPlan::At(e)) => {
                let p = e.eval(env)?;
                match p.start() {
                    TimePoint::Finite(c) => Validity::Event(c),
                    other => {
                        return Err(TquelError::Semantic(format!(
                            "'valid at' must yield a finite instant, got {other}"
                        )))
                    }
                }
            }
            Some(ValidPlan::FromTo(a, b)) => {
                // `from a to b`: `[start of a, start of b)` — the `to`
                // bound is exclusive, matching the paper's tables where
                // Merrie's `(to) 12/01/82` meets `full` starting
                // 12/01/82.
                let from = a.eval(env)?.start();
                let to = b.eval(env)?.start();
                Validity::Interval(Period::clamped(from, to))
            }
            None => {
                // Default: intersection of target-list variables' valid
                // times.
                let mut p = Period::ALWAYS;
                for &vi in &plan.target_vars {
                    if plan.vars[vi].has_valid_time() {
                        p = p.intersect(env[vi]);
                    }
                }
                match plan.result_signature {
                    TemporalSignature::Event => match p.start() {
                        TimePoint::Finite(c) if !p.is_empty() => Validity::Event(c),
                        _ => return Ok(None),
                    },
                    TemporalSignature::Interval => Validity::Interval(p),
                }
            }
        };
        if let Validity::Interval(p) = validity {
            if p.is_empty() {
                return Ok(None); // holds at no time
            }
        }
        Some(validity)
    } else {
        None
    };

    // Transaction time: intersection of target-list temporal operands.
    let tx = if plan.result_tx {
        let mut p = Period::ALWAYS;
        for &vi in &plan.target_vars {
            if plan.vars[vi].info.class == RelationClass::Temporal {
                let row_tx = combo[vi].tx.ok_or_else(|| {
                    TquelError::Semantic(format!(
                        "temporal relation {:?} scanned without transaction time",
                        plan.vars[vi].relation
                    ))
                })?;
                p = p.intersect(row_tx);
            }
        }
        if p.is_empty() {
            return Ok(None); // versions never co-existed in the store
        }
        Some(p)
    } else {
        None
    };

    // Project.
    let values: Vec<Value> = plan
        .targets
        .iter()
        .map(|(_, t)| match t {
            TargetPlan::Attr(flat_idx) => flat[*flat_idx].clone(),
            TargetPlan::Aggregate(..) => {
                unreachable!("aggregated plans take the aggregate path")
            }
        })
        .collect();
    Ok(Some(ResultRow {
        tuple: Tuple::new(values),
        validity,
        tx,
    }))
}

/// Analyzes and executes a retrieve statement against range
/// declarations, with analyze/exec spans recorded into `recorder`
/// ([`noop_recorder`] when nothing is tracing).
pub fn execute_retrieve_traced(
    stmt: &Retrieve,
    ranges: &HashMap<String, String>,
    provider: &dyn RelationProvider,
    recorder: &Recorder,
) -> TquelResult<ResultRelation> {
    let plan = {
        let _span = recorder.span("tquel/analyze");
        analyze_retrieve(stmt, ranges, provider)?
    };
    execute_plan_traced(&plan, provider, recorder)
}
