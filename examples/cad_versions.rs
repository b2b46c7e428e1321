//! Engineering version control on a rollback relation — the use case of
//! Mueller & Steinbauer's CAM databases and Reed's SWALLOW, both
//! classified as transaction-time systems in the paper's Figure 13.
//!
//! ```text
//! cargo run --example cad_versions
//! ```
//!
//! A parts database evolves as engineers release revisions.  Because the
//! relation is append-only over transaction time, any shipped
//! configuration can be reproduced exactly with a rollback query — and
//! past releases can never be silently edited.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, DbError, Engine};
use chronos_tquel::printer::render;

fn main() {
    let clock = Arc::new(ManualClock::new(date("01/05/84").unwrap()));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create parts (part = str, revision = str, material = str) as rollback")
        .expect("create");

    let at = |day: &str, stmt: &str| {
        clock.advance_to(date(day).unwrap());
        engine
            .session()
            .run(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    };

    // Development history of a bracket and a housing.
    at(
        "01/05/84",
        r#"append to parts (part = "bracket", revision = "A", material = "steel")"#,
    );
    at(
        "01/05/84",
        r#"append to parts (part = "housing", revision = "A", material = "aluminum")"#,
    );
    // Rev B of the bracket switches material.
    at(
        "03/12/84",
        r#"range of p is parts
          replace p (revision = "B", material = "titanium") where p.part = "bracket""#,
    );
    // The housing is dropped from the product…
    at(
        "05/20/84",
        r#"range of p is parts delete p where p.part = "housing""#,
    );
    // …and a cover is added.
    at(
        "05/20/84",
        r#"append to parts (part = "cover", revision = "A", material = "abs")"#,
    );
    // Rev C fixes the bracket again.
    at(
        "08/02/84",
        r#"range of p is parts
          replace p (revision = "C", material = "titanium") where p.part = "bracket""#,
    );

    // Ship dates and the configurations they froze.
    for ship in ["02/01/84", "04/15/84", "09/01/84"] {
        println!("--- configuration shipped {ship} (rollback query)");
        let res = engine
            .session()
            .query(&format!(
                r#"range of p is parts
                   retrieve (p.part, p.revision, p.material)
                   as of "{ship}""#
            ))
            .expect("query");
        print!("{}", render(&res));
        println!();
    }

    // The February ship used the steel bracket; September the titanium C.
    let rev_at = |engine: &Arc<Engine>, day: &str| {
        engine
            .session()
            .query(&format!(
                r#"range of p is parts
                   retrieve (p.revision, p.material)
                   where p.part = "bracket" as of "{day}""#
            ))
            .expect("query")
            .rows[0]
            .tuple
            .to_string()
    };
    assert_eq!(rev_at(&engine, "02/01/84"), "(A, steel)");
    assert_eq!(rev_at(&engine, "09/01/84"), "(C, titanium)");

    // Append-only means history cannot be rewritten: a commit dated
    // before the last release is rejected by the transaction manager,
    // and the database clock never goes backwards.
    clock.advance_to(date("12/01/84").unwrap());
    engine
        .session()
        .run(r#"append to parts (part = "gasket", revision = "A", material = "rubber")"#)
        .expect("append");
    let before = engine
        .session()
        .query(r#"range of p is parts retrieve (p.part, p.revision) as of "04/15/84""#)
        .expect("query")
        .len();
    assert_eq!(before, 2, "the April configuration is frozen forever");

    // Window query: everything that was EVER a part during 1984.
    let all_1984 = engine
        .session()
        .query(
            r#"range of p is parts
               retrieve (p.part, p.revision)
               as of "01/01/84" through "12/31/84""#,
        )
        .expect("query");
    println!("--- every version current at some point in 1984 (as of … through …)");
    print!("{}", render(&all_1984));

    // Rollback relations have no valid time: a `when` clause is a
    // capability error, exactly per Figure 11.
    let err = engine
        .session()
        .query(r#"range of p is parts retrieve (p.part) when p overlap "06/01/84""#)
        .unwrap_err();
    assert!(matches!(err, DbError::Tquel(_)));
    println!("\n'when' on a rollback relation correctly rejected: {err}");
}
