//! Narrowing is invisible: a retrieve evaluated over inputs narrowed by
//! each range variable's own conjuncts answers exactly as the same plan
//! with nothing pushed — the same rows in the same order, the same
//! valid and transaction periods, the same error text.  The pushed plan
//! also reads each keyed variable's relation by its key through
//! `Database::access`, while the unpushed one reads it whole, so this
//! compares keyed against unkeyed reads as well.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_core::calendar::{date, Date};
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine};
use chronos_tquel::analyze::analyze_retrieve;
use chronos_tquel::ast::Statement;
use chronos_tquel::exec::execute_plan;
use chronos_tquel::parse_statement;
use proptest::prelude::*;

/// `(name, has valid time, has transaction time)` of the three
/// relations every history writes to.
const RELATIONS: [(&str, bool, bool); 3] = [
    ("t_rel", true, true),
    ("h_rel", true, false),
    ("r_rel", false, true),
];

fn base() -> Chronon {
    date("01/01/80").expect("valid date")
}

/// `"mm/dd/yy"`, `days` after the history's first day.
fn day(days: u8) -> String {
    format!(
        "\"{}\"",
        Date::from_chronon(Chronon::new(base().ticks() + i64::from(days)))
    )
}

/// One write: `(relation, op, name, (rank, pay), (valid from, valid length, clock advance))`.
type Step = (usize, u8, u8, (u8, u8), (u8, u8, u8));

fn arb_history() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0usize..3,
            0u8..4,
            0u8..4,
            (0u8..3, 0u8..6),
            (0u8..60, 0u8..30, 1u8..4),
        ),
        6..18,
    )
}

/// Replays `history` through engine sessions; refused writes are part
/// of the history too.
fn build(history: &[Step]) -> Arc<Engine> {
    let clock = Arc::new(ManualClock::new(base()));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run(
            "create t_rel (name = str, rank = str, pay = int) as temporal
             create h_rel (name = str, rank = str, pay = int) as historical
             create r_rel (name = str, rank = str, pay = int) as rollback",
        )
        .expect("create");
    for &(rel, op, name, (rank, pay), (from, len, advance)) in history {
        clock.tick(i64::from(advance));
        let (rel, valid_time, _) = RELATIONS[rel];
        let valid = match (valid_time, len) {
            (false, _) => String::new(),
            (true, 0) => format!(" valid from {} to forever", day(from)),
            (true, _) => format!(" valid from {} to {}", day(from), day(from + len)),
        };
        let stmt = match op {
            0 | 1 => format!(
                "append to {rel} (name = \"n{name}\", rank = \"r{rank}\", pay = {pay}){valid}"
            ),
            2 => format!(
                "range of w is {rel}
                 replace w (rank = \"r{rank}\", pay = {pay}){valid} where w.name = \"n{name}\""
            ),
            _ => format!("range of w is {rel}\ndelete w where w.name = \"n{name}\""),
        };
        let _ = engine.session().run(&stmt);
    }
    engine
}

/// One conjunct: `(kind, variable, other variable, constant, constant)`.
/// Variables are taken modulo the number bound; constants reach one
/// past the names and ranks the histories use, so some filters keep
/// nothing.
type Conj = (u8, usize, usize, u8, u8);

fn arb_conjs(max: usize) -> impl Strategy<Value = Vec<Conj>> {
    prop::collection::vec((0u8..8, 0usize..3, 0usize..3, 0u8..5, 0u8..5), 0..max)
}

/// A generated retrieve: `(relations of the variables, aggregate?,
/// where conjuncts, when conjuncts, as of)`.
type Query = (
    Vec<usize>,
    Option<u8>,
    Vec<Conj>,
    Vec<Conj>,
    Option<(u8, u8)>,
);

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(0usize..3, 1..4),
        prop::option::of(0u8..4),
        arb_conjs(5),
        arb_conjs(3),
        prop::option::of((0u8..70, 0u8..20)),
    )
}

fn where_text(&(kind, i, j, k, m): &Conj, n: usize) -> String {
    let (a, b) = (format!("v{}", i % n), format!("v{}", j % n));
    match kind {
        0 => format!("{a}.name = \"n{k}\""),
        1 => format!("{a}.pay < {k}"),
        // With kind 0 on either side: the transitive form.
        2 => format!("{a}.name = {b}.name"),
        // Spans two variables unless `a` and `b` coincide.
        3 => format!("({a}.rank = \"r{k}\" or {b}.pay < {m})"),
        4 => format!("not ({a}.rank = \"r{k}\")"),
        5 => format!("\"n{k}\" = \"n{m}\""),
        6 => format!("({a}.name = \"n{k}\" or {a}.pay < {m})"),
        _ => format!("{a}.pay = {b}.pay and {b}.pay = {k}"),
    }
}

/// A `when` conjunct over the variables that carry valid time.
fn when_text(&(kind, i, j, k, m): &Conj, timed: &[String]) -> String {
    let (a, b) = (&timed[i % timed.len()], &timed[j % timed.len()]);
    let (d1, d2) = (day(k * 12), day(m * 12 + 6));
    match kind {
        0 | 1 => format!("{a} overlap {d1}"),
        2 => format!("{a} overlap start of {b}"),
        3 => format!("{a} precede {b}"),
        4 => format!("not ({a} overlap {d1})"),
        5 => format!("({a} overlap {d1} or {b} overlap {d2})"),
        6 => format!("end of {a} precede {d2}"),
        _ => format!("start of {a} equal start of {b}"),
    }
}

/// The retrieve's text and its range declarations.
fn render(query: &Query) -> (String, HashMap<String, String>) {
    let (rels, aggregate, wheres, whens, as_of) = query;
    let n = rels.len();
    let ranges: HashMap<String, String> = rels
        .iter()
        .enumerate()
        .map(|(i, &r)| (format!("v{i}"), RELATIONS[r].0.to_string()))
        .collect();
    let targets = match aggregate {
        Some(f) => format!(
            "c = {}(v0.pay)",
            ["count", "sum", "min", "max"][usize::from(*f)]
        ),
        None => format!("v0.name, x = v{}.rank, y = v{}.pay", 1 % n, n - 1),
    };
    let mut text = format!("retrieve ({targets})");
    if !wheres.is_empty() {
        let conjs: Vec<String> = wheres.iter().map(|c| where_text(c, n)).collect();
        text.push_str(&format!(" where {}", conjs.join(" and ")));
    }
    let timed: Vec<String> = (0..n)
        .filter(|&i| RELATIONS[rels[i]].1)
        .map(|i| format!("v{i}"))
        .collect();
    if !whens.is_empty() && !timed.is_empty() {
        let conjs: Vec<String> = whens.iter().map(|c| when_text(c, &timed)).collect();
        text.push_str(&format!(" when {}", conjs.join(" and ")));
    }
    if let Some((at, through)) = as_of {
        if rels.iter().all(|&r| RELATIONS[r].2) {
            text.push_str(&format!(" as of {}", day(*at)));
            if *through > 0 {
                text.push_str(&format!(" through {}", day(at + through)));
            }
        }
    }
    (text, ranges)
}

fn cases() -> ProptestConfig {
    // The nightly CI job sweeps `PROPTEST_CASES=2048 cargo test --test
    // narrowing`.
    ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
    )
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn narrowed_inputs_answer_like_the_unpushed_plan(
        history in arb_history(),
        queries in prop::collection::vec(arb_query(), 8..16),
    ) {
        let engine = build(&history);
        for query in &queries {
            let (text, ranges) = render(query);
            let Ok(Statement::Retrieve(retrieve)) = parse_statement(&text) else {
                panic!("generated text does not parse: {text}");
            };
            engine.with_db(|db| -> Result<(), TestCaseError> {
                // Analysis is shared by both sides; only a plan can differ.
                let Ok(plan) = analyze_retrieve(&retrieve, &ranges, db) else {
                    return Ok(());
                };
                let mut unpushed = plan.clone();
                unpushed.filters.clear();
                let narrowed = execute_plan(&plan, db).map_err(|e| e.to_string());
                let full = execute_plan(&unpushed, db).map_err(|e| e.to_string());
                prop_assert_eq!(narrowed, full, "{}\nfilters: {:?}", text, plan.filters);
                Ok(())
            })?;
        }
    }
}
