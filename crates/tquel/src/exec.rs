//! The tuple-calculus evaluator.
//!
//! A retrieve is evaluated as the paper (and Quel) define it: the
//! cartesian product of the range variables' row sets, filtered by the
//! `where` predicate over attribute values and the `when` predicate over
//! valid times, then projected through the target list with derived
//! timestamps.
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

use std::collections::HashMap;
use std::collections::HashSet;

use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

use chronos_obs::{noop_recorder, Recorder};

use crate::analyze::{analyze_retrieve, RetrievePlan, TargetPlan, ValidPlan};
use crate::ast::{AggFunc, Retrieve};
use crate::error::{TquelError, TquelResult};
use crate::provider::{RelationProvider, SourceRow};

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
/// product, aggregate) into `recorder`.
pub fn execute_plan_traced(
    plan: &RetrievePlan,
    provider: &dyn RelationProvider,
    recorder: &Recorder,
) -> TquelResult<ResultRelation> {
    let exec_span = recorder.span("tquel/exec");
    // Scan each range variable (shared row sets — a caching provider
    // hands the same Arc to every retrieve at the same coordinate).
    let mut scans: Vec<std::sync::Arc<Vec<SourceRow>>> = Vec::with_capacity(plan.vars.len());
    let mut estimates: Vec<Option<u64>> = Vec::with_capacity(plan.vars.len());
    for v in &plan.vars {
        let span = recorder.span("tquel/scan");
        span.detail(format!("{} over {}", v.name, v.relation));
        // Statistics describe the current state, so estimates only apply
        // to non-rollback scans; `as of` operators show actuals alone.
        let est = if plan.as_of.is_none() {
            provider.estimated_rows(&v.relation)
        } else {
            None
        };
        if let Some(est) = est {
            span.rows_est(est);
        }
        estimates.push(est);
        let rows = provider.scan(&v.relation, plan.as_of.as_ref())?;
        span.rows_out(rows.len() as u64);
        scans.push(rows);
    }
    let combinations: u64 = scans.iter().map(|s| s.len() as u64).product();
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
        let result = execute_aggregate(plan, &scans)?;
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

    // Cartesian product via an index vector (no recursion, no clones of
    // the scans).
    if scans.iter().any(|s| s.is_empty()) {
        product_span.rows_out(0);
        exec_span.rows_out(0);
        return Ok(ResultRelation {
            schema: plan.out_schema.clone(),
            kind,
            signature: plan.result_signature,
            rows,
        });
    }
    let mut idx = vec![0usize; scans.len()];
    'product: loop {
        let combo: Vec<&SourceRow> = idx.iter().zip(&scans).map(|(&i, s)| &s[i]).collect();

        // Flat tuple and period environment.
        let mut values = Vec::new();
        for r in &combo {
            values.extend_from_slice(r.tuple.values());
        }
        let flat = Tuple::new(values);
        let env: Vec<Period> = combo
            .iter()
            .map(|r| r.validity.map_or(Period::ALWAYS, |v| v.period()))
            .collect();

        if plan.predicate.eval(&flat)? && plan.when.eval(&env)? {
            if let Some(row) = derive_row(plan, &combo, &flat, &env)? {
                let key = (
                    row.tuple.clone(),
                    row.validity,
                    row.tx.map(|p| (p.start(), p.end())),
                );
                if seen.insert(key) {
                    rows.push(row);
                }
            }
        }

        // Advance the odometer.
        let mut d = scans.len();
        loop {
            if d == 0 {
                break 'product;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < scans[d].len() {
                break;
            }
            idx[d] = 0;
        }
    }

    product_span.rows_out(rows.len() as u64);
    exec_span.rows_out(rows.len() as u64);
    Ok(ResultRelation {
        schema: plan.out_schema.clone(),
        kind,
        signature: plan.result_signature,
        rows,
    })
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
    scans: &[std::sync::Arc<Vec<SourceRow>>],
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

    if !scans.iter().any(|s| s.is_empty()) {
        let mut idx = vec![0usize; scans.len()];
        'product: loop {
            let combo: Vec<&SourceRow> = idx.iter().zip(scans).map(|(&i, s)| &s[i]).collect();
            let mut values = Vec::new();
            for r in &combo {
                values.extend_from_slice(r.tuple.values());
            }
            let flat = Tuple::new(values);
            let env: Vec<Period> = combo
                .iter()
                .map(|r| r.validity.map_or(Period::ALWAYS, |v| v.period()))
                .collect();
            if plan.predicate.eval(&flat)? && plan.when.eval(&env)? {
                for (state, flat_idx) in &mut states {
                    state.observe(flat.get(*flat_idx))?;
                }
            }
            let mut d = scans.len();
            loop {
                if d == 0 {
                    break 'product;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < scans[d].len() {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

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
    flat: &Tuple,
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
            TargetPlan::Attr(flat_idx) => flat.get(*flat_idx).clone(),
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
