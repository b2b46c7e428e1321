//! E19 — end-to-end TQuel: parse + analyze + evaluate the paper's four
//! query shapes (static, rollback, historical, bitemporal) against a
//! populated temporal database.

use std::sync::Arc;

use chronos_core::calendar::Date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine};
use criterion::{criterion_group, criterion_main, Criterion};

fn build_db(profs: usize) -> Arc<Engine> {
    let clock = Arc::new(ManualClock::new(Chronon::new(900)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    for i in 0..profs {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"append to faculty (name = "prof{i:05}", rank = "assistant")
                   valid from "{}" to forever"#,
                Date::from_chronon(Chronon::new(900 + i as i64))
            ))
            .expect("append");
    }
    for i in 0..profs / 2 {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"range of f is faculty
                   replace f (rank = "associate")
                   valid from "{}" to forever
                   where f.name = "prof{i:05}""#,
                Date::from_chronon(Chronon::new(2000 + i as i64))
            ))
            .expect("replace");
    }
    engine
}

fn bench_tquel(c: &mut Criterion) {
    let engine = build_db(200);
    let as_of = Date::from_chronon(Chronon::new(2050)).to_string();
    let when = Date::from_chronon(Chronon::new(1500)).to_string();

    let mut group = c.benchmark_group("tquel_queries");
    group.bench_function("parse_only", |b| {
        b.iter(|| {
            chronos_tquel::parse_program(
                r#"range of f1 is faculty
                   range of f2 is faculty
                   retrieve (f1.rank)
                   where f1.name = "prof00007" and f2.name = "prof00009"
                   when f1 overlap start of f2
                   as of "12/10/82""#,
            )
            .expect("parses")
        })
    });
    let static_q =
        r#"range of f is faculty retrieve (f.rank) where f.name = "prof00007""#.to_string();
    let rollback_q = format!(
        r#"range of f is faculty retrieve (f.rank) where f.name = "prof00007" as of "{as_of}""#
    );
    let historical_q = format!(
        r#"range of f is faculty retrieve (f.rank) where f.name = "prof00007" when f overlap "{when}""#
    );
    let bitemporal_q = format!(
        r#"range of f1 is faculty
           range of f2 is faculty
           retrieve (f1.rank)
           where f1.name = "prof00007" and f2.name = "prof00009"
           when f1 overlap start of f2
           as of "{as_of}""#
    );
    for (name, q) in [
        ("static_projection", &static_q),
        ("rollback_as_of", &rollback_q),
        ("historical_when", &historical_q),
        ("bitemporal_join", &bitemporal_q),
    ] {
        group.bench_function(name, |b| {
            let mut session = engine.session();
            b.iter(|| session.query(q).expect("query").len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tquel);
criterion_main!(benches);
