//! Retroactive salary changes — the paper's §2/§3 motivating example.
//!
//! ```text
//! cargo run --example payroll
//! ```
//!
//! "An example often cited … is a retroactive salary raise, where the
//! time at which the raise was recorded (say, 12/1/83) [differs from]
//! the time at which the raise was to take effect (say, 8/1/83)."
//!
//! Payroll cut checks each month from the salary the database showed *at
//! that time*; after the retroactive raise, the amount owed is computed
//! from what the database *now* knows was true back then.  The
//! difference is the back pay — computable only because the relation is
//! bitemporal.

use std::sync::Arc;

use chronos_core::calendar::{date, Date};
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine};

fn main() {
    let clock = Arc::new(ManualClock::new(date("01/01/83").unwrap()));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create salary (name = str, monthly = int) as temporal")
        .expect("create");

    let at = |day: &str, stmt: &str| {
        clock.advance_to(date(day).unwrap());
        engine
            .session()
            .run(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    };

    // Merrie's salary is $4,000/month from the start of 1983.
    at(
        "01/01/83",
        r#"append to salary (name = "Merrie", monthly = 4000) valid from "01/01/83" to forever"#,
    );
    // On 12/01/83 a raise to $5,000 is recorded, retroactive to 08/01/83.
    at(
        "12/01/83",
        r#"range of s is salary
          replace s (monthly = 5000) valid from "08/01/83" to forever
          where s.name = "Merrie""#,
    );

    // Payroll ran on the first of each month, paying what the database
    // said *on that day* (a rollback query per pay date).
    engine.with_db(|db| {
        let rel = db.relation("salary").expect("exists").table();
        println!("month     | paid (as of pay date) | correct (current knowledge)");
        println!("----------+-----------------------+----------------------------");
        let mut paid_total = 0i64;
        let mut owed_total = 0i64;
        for month in 1..=12u8 {
            let pay_date = Date::new(1983, month, 1).expect("valid").to_chronon();
            let paid = salary_at(rel, pay_date, pay_date);
            let correct = salary_at(rel, pay_date, date("12/31/83").unwrap());
            paid_total += paid;
            owed_total += correct;
            println!(
                "{:>9} | {:>21} | {:>27}",
                Date::from_chronon(pay_date).to_string(),
                format!("${paid}"),
                format!("${correct}")
            );
        }
        let back_pay = owed_total - paid_total;
        println!("----------+-----------------------+----------------------------");
        println!("totals    | ${paid_total:>20} | ${owed_total:>26}");
        println!("\nBack pay owed to Merrie: ${back_pay}");
        // Aug–Nov were paid at 4000 but should have been 5000.
        assert_eq!(back_pay, 4 * 1000);

        // The audit trail: what did the database believe about August's
        // salary, and when did that belief change?
        println!("\nBelief history for valid time 08/01/83:");
        for as_of in ["08/01/83", "11/30/83", "12/01/83"] {
            let v = salary_at(rel, date("08/01/83").unwrap(), date(as_of).unwrap());
            println!("  as of {as_of}: ${v}");
        }
    });
}

/// The monthly salary valid at `valid`, as the database stored it at
/// `as_of` (0 if no row — the bitemporal point query of §4.4).
fn salary_at(
    rel: &chronos_storage::table::StoredBitemporalTable,
    valid: Chronon,
    as_of: Chronon,
) -> i64 {
    rel.valid_at_as_of(valid, as_of)
        .expect("scan")
        .first()
        .and_then(|row| row.tuple.get(1).as_int())
        .unwrap_or(0)
}
