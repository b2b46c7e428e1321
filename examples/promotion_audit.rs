//! User-defined time — auditing the `promotion` event relation of the
//! paper's Figure 9.
//!
//! ```text
//! cargo run --example promotion_audit
//! ```
//!
//! The `effective` date "is merely a date which appears on the promotion
//! letter" — user-defined time, stored but never interpreted by the
//! engine.  The *valid* time is when the promotion was signed; the
//! *transaction* time is when it reached the database.  Comparing the
//! three exposes paperwork lag and retroactive decisions.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::Validity;
use chronos_db::{Database, Engine};

fn main() {
    let clock = Arc::new(ManualClock::new(date("01/01/77").unwrap()));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create promotion (name = str, rank = str, effective = date) as temporal event")
        .expect("create");

    // The six events of Figure 9: (entered-on, signed-on, effective-on).
    let events: &[(&str, &str, &str, &str, &str)] = &[
        ("08/25/77", "08/25/77", "Merrie", "associate", "09/01/77"),
        ("12/01/82", "12/05/82", "Tom", "full", "12/05/82"),
        ("12/07/82", "12/07/82", "Tom", "associate", "12/05/82"),
        ("12/15/82", "12/11/82", "Merrie", "full", "12/01/82"),
        ("01/10/83", "01/01/83", "Mike", "assistant", "01/01/83"),
        ("02/25/84", "02/25/84", "Mike", "left", "03/01/84"),
    ];
    for (entered, signed, name, rank, effective) in events {
        clock.advance_to(date(entered).unwrap());
        engine
            .session()
            .run(&format!(
                r#"append to promotion (name = "{name}", rank = "{rank}", effective = "{effective}")
                   valid at "{signed}""#
            ))
            .expect("append");
    }

    // Query through TQuel: when was Merrie's full professorship signed?
    let res = engine
        .session()
        .query(
            r#"range of p is promotion
               retrieve (p.effective)
               where p.name = "Merrie" and p.rank = "full""#,
        )
        .expect("query");
    println!(
        "Merrie's promotion to full was effective {}",
        res.rows[0].tuple.get(0)
    );
    assert_eq!(res.column_strings(0), ["12/01/82"]);

    // Audit: compare the three kinds of time per event.
    println!("\naudit of the three kinds of time per promotion letter:");
    println!(
        "{:<8} {:<10} | {:>10} | {:>10} | {:>10} | finding",
        "name", "rank", "effective", "signed", "recorded"
    );
    engine.with_db(|db| {
        let rel = db.relation("promotion").expect("exists").table();
        for row in rel.scan_rows().expect("scan") {
            let name = row.tuple.get(0).to_string();
            let rank = row.tuple.get(1).to_string();
            let effective = row.tuple.get(2).as_date().expect("date attr");
            let signed = match row.validity {
                Validity::Event(c) => c,
                Validity::Interval(_) => unreachable!("event relation"),
            };
            let recorded = row
                .tx
                .start()
                .finite()
                .expect("transaction starts are finite");
            let finding = classify(effective, signed, recorded);
            println!(
                "{:<8} {:<10} | {:>10} | {:>10} | {:>10} | {finding}",
                name,
                rank,
                effective.to_string(),
                signed.to_string(),
                recorded.to_string()
            );
        }
    });

    println!("\n(the engine never interpreted `effective`; the audit logic did)");
}

/// Classifies a promotion record by the relationship of its three times.
fn classify(effective: Chronon, signed: Chronon, recorded: Chronon) -> &'static str {
    if effective < signed {
        "retroactive decision (effective before signing)"
    } else if effective > recorded {
        "postactive record (takes effect after recording)"
    } else if recorded > signed {
        "paperwork lag (recorded after signing)"
    } else {
        "same-day processing"
    }
}
