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
//!
//! The allocator also records the largest single request, so that the
//! decoders of untrusted bytes can be held to [`DECODE_BUDGET`]: a
//! count read from a crafted WAL frame, checkpoint or catalog — each
//! with a valid CRC — is refused with a typed error, and reserves no
//! more than the bytes that follow it can hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::clock::ManualClock;
use chronos_db::catalog::Catalog;
use chronos_db::{Database, Engine};
use chronos_storage::codec::{self, crc32, put_uvarint, Reader};
use chronos_storage::inspect::{scan_wal_bytes, TailState};
use chronos_storage::wal::decode_record;
use chronos_storage::StorageError;
use chronos_tquel::ast::{
    AsOfClause, Operand, Retrieve, Statement, TargetExpr, TexprAst, WhenExpr, WhereExpr,
};
use chronos_tquel::parse_program;
use chronos_tquel::token::lex;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// The largest single allocation `f` requests on this thread, and its
/// result.
fn largest_request<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// The most one decode of a crafted input may request at once.
const DECODE_BUDGET: usize = 64 * 1024;

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

/// A WAL payload: relation 0, commit time 0, then `rest` (the op count
/// and the ops).
fn wal_payload(rest: &[u8]) -> Vec<u8> {
    [&[0, 0, 0, 0, 0][..], rest].concat()
}

/// `bytes` after a uvarint `n`.
fn counted(n: u64, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, n);
    out.extend_from_slice(bytes);
    out
}

/// `body` behind `magic` and its CRC, as checkpoints and catalogs are.
fn crc_framed(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    [&magic[..], &crc32(body).to_le_bytes(), body].concat()
}

/// Decodes one crafted WAL payload within the budget, as a record and
/// as a log frame, and returns the record's error.
fn refuse_frame(payload: &[u8]) -> StorageError {
    let (largest, decoded) = largest_request(|| decode_record(payload));
    assert!(
        largest <= DECODE_BUDGET,
        "decode_record requested {largest} bytes"
    );
    let frame = [
        &(payload.len() as u32).to_le_bytes()[..],
        &crc32(payload).to_le_bytes(),
        payload,
    ]
    .concat();
    let (largest, scan) = largest_request(|| scan_wal_bytes(&frame));
    assert!(
        largest <= DECODE_BUDGET,
        "the log walk requested {largest} bytes"
    );
    assert!(
        matches!(scan.tail, TailState::Corrupt { offset: 0, .. }),
        "{:?}",
        scan.tail
    );
    decoded.expect_err("a crafted frame decodes")
}

#[test]
fn a_crafted_op_count_reserves_only_what_the_frame_holds() {
    // 2^24 ops promised, one remove of the empty tuple present.
    let err = refuse_frame(&wal_payload(&counted(1 << 24, &[1, 0, 0])));
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
}

#[test]
fn a_crafted_arity_reserves_only_what_the_bytes_hold() {
    // A tuple of 2^20 values with one present: read alone, as a logged
    // insert, and as a checkpoint row.
    let tuple = counted(1 << 20, &[1, 2]);
    let (largest, alone) = largest_request(|| codec::get_tuple(&mut Reader::new(&tuple)));
    assert!(
        largest <= DECODE_BUDGET,
        "get_tuple requested {largest} bytes"
    );
    assert!(matches!(alone, Err(StorageError::Corrupt(_))), "{alone:?}");

    let insert = [&[1, 0][..], &tuple].concat();
    let err = refuse_frame(&wal_payload(&insert));
    assert!(matches!(err, StorageError::Corrupt(_)), "{err}");

    // No floor, one image (relation 0, no commit, no transactions) of
    // one row; under format 2's magic, which every build since reads.
    let body = [&[0, 1, 0, 0, 0, 1][..], &tuple].concat();
    let file = crc_framed(b"CHRONCK2", &body);
    let (largest, decoded) = largest_request(|| chronos_db::checkpoint::decode(&file));
    assert!(
        largest <= DECODE_BUDGET,
        "checkpoint decode requested {largest} bytes"
    );
    assert!(
        matches!(decoded, Err(StorageError::Corrupt(_))),
        "{:?}",
        decoded.map(|c| c.len)
    );
}

#[test]
fn a_crafted_catalog_arity_is_an_error_not_a_reservation() {
    // One relation `r` (id 0, static, interval) whose schema promises
    // `arity` attributes and holds one; under the oldest magic, which
    // every build reads.
    for arity in [1u64 << 20, 1 << 62] {
        let body = [
            &[1, 1, 1, b'r', 0, 0, 0][..],
            &counted(arity, &[1, b'a', 0]),
        ]
        .concat();
        let path =
            std::env::temp_dir().join(format!("chronos-cost-catalog-{}", std::process::id()));
        std::fs::write(&path, crc_framed(b"CHRONCAT", &body)).expect("write");
        let (largest, loaded) = largest_request(|| Catalog::load(&path));
        std::fs::remove_file(&path).expect("clean up");
        assert!(
            largest <= DECODE_BUDGET,
            "arity {arity}: requested {largest} bytes"
        );
        assert!(
            matches!(loaded, Err(StorageError::Corrupt(_))),
            "arity {arity}: {:?}",
            loaded.map(|c| c.len())
        );
    }
}
