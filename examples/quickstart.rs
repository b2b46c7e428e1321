//! Quickstart: the paper's `faculty` story, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Creates a temporal (bitemporal) relation, applies the six
//! transactions behind the paper's Figure 8 using TQuel, then asks the
//! paper's four queries — including the flagship pair showing that the
//! database remembers *what it believed and when*.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine};
use chronos_tquel::printer::render;

fn main() {
    // The engine never reads wall time; transactions are stamped from
    // this clock, which we move through the paper's dates.
    let clock = Arc::new(ManualClock::new(date("01/01/77").unwrap()));
    let engine = Engine::start(Database::in_memory(clock.clone()));

    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");

    let at = |day: &str, stmt: &str| {
        clock.advance_to(date(day).unwrap());
        engine
            .session()
            .run(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
        println!(
            "[{day}] {}",
            stmt.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    };

    // Merrie is hired (recorded a week early — postactive).
    at(
        "08/25/77",
        r#"append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever"#,
    );
    // Tom is entered as full…
    at(
        "12/01/82",
        r#"append to faculty (name = "Tom", rank = "full") valid from "12/05/82" to forever"#,
    );
    // …and corrected to associate.
    at(
        "12/07/82",
        r#"range of f is faculty
          replace f (rank = "associate") valid from "12/05/82" to forever where f.name = "Tom""#,
    );
    // Merrie's promotion is recorded two weeks late — retroactive.
    at(
        "12/15/82",
        r#"range of f is faculty
          replace f (rank = "full") valid from "12/01/82" to forever where f.name = "Merrie""#,
    );
    // Mike is hired, and later leaves effective 03/01/84.
    at(
        "01/10/83",
        r#"append to faculty (name = "Mike", rank = "assistant") valid from "01/01/83" to forever"#,
    );
    at(
        "02/25/84",
        r#"range of f is faculty
          replace f (rank = "assistant") valid from "01/01/83" to "03/01/84" where f.name = "Mike""#,
    );

    clock.advance_to(date("01/01/85").unwrap());
    let q = |title: &str, src: &str| {
        println!("\n--- {title}");
        let result = engine.session().query(src).expect("query");
        print!("{}", render(&result));
        result
    };

    q(
        "Current knowledge (historical query): Merrie's rank when Tom arrived",
        r#"range of f1 is faculty
           range of f2 is faculty
           retrieve (f1.rank)
           where f1.name = "Merrie" and f2.name = "Tom"
           when f1 overlap start of f2"#,
    );

    let early = q(
        "What the database believed on 12/10/82 (bitemporal query)",
        r#"range of f1 is faculty
           range of f2 is faculty
           retrieve (f1.rank)
           where f1.name = "Merrie" and f2.name = "Tom"
           when f1 overlap start of f2
           as of "12/10/82""#,
    );
    assert_eq!(early.column_strings(0), ["associate"]);

    let late = q(
        "…and on 12/20/82, after the retroactive correction",
        r#"range of f1 is faculty
           range of f2 is faculty
           retrieve (f1.rank)
           where f1.name = "Merrie" and f2.name = "Tom"
           when f1 overlap start of f2
           as of "12/20/82""#,
    );
    assert_eq!(late.column_strings(0), ["full"]);

    println!(
        "\nThe database was inconsistent with reality from 12/01/82 to 12/15/82 —\n\
         and, being temporal, it can prove it."
    );
}
