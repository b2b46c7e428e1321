//! What a keyed read costs in allocations outside the work itself.
//!
//! A thread-local counting allocator counts every `alloc`, `alloc_zeroed`
//! and `realloc` the measured call makes on the test's own thread.  On
//! the three `point_read` statement shapes (current, `when … overlap`,
//! `as of`), over the `point_read` relation's shape:
//!
//! * `lex` makes at most one allocation — its token vector; tokens
//!   borrow the source;
//! * `parse_program` makes at most one allocation per name the AST
//!   keeps, plus [`PARSE_OVERHEAD`];
//! * `render_outcomes` makes as many allocations for a one-row answer
//!   as for an eight-row one: cells are formatted into one buffer, not
//!   one `String` each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine};
use chronos_tquel::ast::{
    AsOfClause, Operand, Retrieve, Statement, TargetExpr, TexprAst, WhenExpr, WhereExpr,
};
use chronos_tquel::parse_program;
use chronos_tquel::token::lex;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// What `parse_program` may allocate besides the AST's names: the
/// token vector, the statement vector and the target vector.
const PARSE_OVERHEAD: u64 = 3;

/// The three `point_read` shapes for `key`.
fn shapes(key: &str) -> [String; 3] {
    let head = format!(r#"retrieve (e.name, e.dept, e.salary) where e.name = "{key}""#);
    [
        head.clone(),
        format!(r#"{head} when e overlap "03/15/71""#),
        format!(r#"{head} as of "02/01/80""#),
    ]
}

/// The `String`s a retrieve's AST keeps.
fn names(r: &Retrieve) -> u64 {
    fn texpr(t: &TexprAst) -> u64 {
        match t {
            TexprAst::Var(_) | TexprAst::Date(_) => 1,
            TexprAst::Forever => 0,
            TexprAst::StartOf(t) | TexprAst::EndOf(t) => texpr(t),
            TexprAst::Extend(a, b) | TexprAst::Overlap(a, b) => texpr(a) + texpr(b),
        }
    }
    fn operand(o: &Operand) -> u64 {
        match o {
            Operand::Attr(_) => 2,
            Operand::Str(_) => 1,
            _ => 0,
        }
    }
    fn wexpr(w: &WhereExpr) -> u64 {
        match w {
            WhereExpr::Cmp(_, a, b) => operand(a) + operand(b),
            WhereExpr::And(a, b) | WhereExpr::Or(a, b) => wexpr(a) + wexpr(b),
            WhereExpr::Not(a) => wexpr(a),
        }
    }
    fn when(w: &WhenExpr) -> u64 {
        match w {
            WhenExpr::Overlap(a, b) | WhenExpr::Precede(a, b) | WhenExpr::Equal(a, b) => {
                texpr(a) + texpr(b)
            }
            WhenExpr::And(a, b) | WhenExpr::Or(a, b) => when(a) + when(b),
            WhenExpr::Not(a) => when(a),
        }
    }
    let targets: u64 = r
        .targets
        .iter()
        .map(|t| {
            u64::from(t.name.is_some())
                + match &t.expr {
                    TargetExpr::Attr(_) | TargetExpr::Aggregate(_, _) => 2,
                }
        })
        .sum();
    targets
        + u64::from(r.into.is_some())
        + r.where_clause.as_ref().map_or(0, wexpr)
        + r.when_clause.as_ref().map_or(0, when)
        + r.as_of.as_ref().map_or(0, |AsOfClause { at, through }| {
            texpr(at) + through.as_ref().map_or(0, texpr)
        })
}

#[test]
fn lexing_allocates_only_the_token_vector() {
    for src in shapes("k00007") {
        let (n, tokens) = allocations(|| lex(&src).expect("lexes"));
        assert!(
            n <= 1,
            "lex made {n} allocations for {} tokens of {src}",
            tokens.len()
        );
    }
}

#[test]
fn parsing_allocates_per_name_not_per_token() {
    for src in shapes("k00007") {
        let (n, stmts) = allocations(|| parse_program(&src).expect("parses"));
        let [Statement::Retrieve(r)] = stmts.as_slice() else {
            panic!("one retrieve: {stmts:?}");
        };
        let names = names(r);
        assert!(
            n <= names + PARSE_OVERHEAD,
            "parse_program made {n} allocations for {names} names + {PARSE_OVERHEAD}: {src}"
        );
    }
}

#[test]
fn rendering_allocates_the_same_for_one_row_and_eight() {
    // The `point_read` relation's shape: a temporal relation of
    // (name, dept, salary), one version per key, so each keyed shape
    // answers one row.  Department d00 holds eight keys.
    let clock = Arc::new(ManualClock::new(date("01/01/80").expect("date")));
    let engine = Engine::start(Database::in_memory(clock));
    let mut s = engine.session();
    s.run("create emp (name = str, dept = str, salary = int) as temporal")
        .expect("create");
    s.run("range of e is emp").expect("range");
    for k in 0..16 {
        s.run(&format!(
            r#"append to emp (name = "k{k:05}", dept = "d{:02}", salary = {}) valid from "01/01/70" to forever"#,
            k % 2,
            1_000 + k
        ))
        .expect("append");
    }
    s.refresh();
    let eight = r#"retrieve (e.name, e.dept, e.salary) where e.dept = "d00" as of "02/01/80""#;
    for one in shapes("k00004") {
        let mut counts = Vec::new();
        for (src, rows) in [(one.as_str(), 1), (eight, 8)] {
            let outcomes = s.run(src).expect("runs");
            let answer = outcomes[0].relation().expect("a retrieve");
            assert_eq!(answer.len(), rows, "{src}");
            let (n, body) = allocations(|| chronos_db::net::render_outcomes(&outcomes));
            assert!(body.ends_with(&format!(
                "({rows} row{})\n",
                if rows == 1 { "" } else { "s" }
            )));
            counts.push(n);
        }
        assert_eq!(
            counts[0], counts[1],
            "render_outcomes allocations, one row vs eight: {one}"
        );
    }
    drop(s);
    engine.shutdown();
}
