//! Rendering of derived relations in the paper's tabular format.
//!
//! Explicit attributes come first; the double bar separates them from
//! the DBMS-maintained temporal columns, exactly as in Figures 4, 6, 8
//! and 9 ("the double vertical bars separate the non-temporal domains
//! from the DBMS-maintained temporal domains").

use chronos_core::calendar::Date;
use chronos_core::chronon::Chronon;
use chronos_core::relation::Validity;
use chronos_core::render::TextTable;
use chronos_core::schema::TemporalSignature;
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::timepoint::TimePoint;
use chronos_core::value::Value;

use crate::exec::ResultRelation;

/// Renders a result relation as an aligned text table.
pub fn render(rel: &ResultRelation) -> String {
    let mut out = String::new();
    render_into(rel, &mut out);
    out
}

/// Appends [`render`]'s text to `out`: each cell is formatted once,
/// and `out` grows at most once.
pub fn render_into(rel: &ResultRelation, out: &mut String) {
    let has_valid = rel.rows.iter().any(|r| r.validity.is_some())
        || matches!(
            rel.kind,
            DatabaseClass::Historical | DatabaseClass::Temporal
        );
    let has_tx = rel.rows.iter().any(|r| r.tx.is_some()) || rel.kind == DatabaseClass::Temporal;
    let interval = rel.signature == TemporalSignature::Interval;

    let attributes = rel.schema.attributes();
    let valid_cols = match (has_valid, interval) {
        (false, _) => 0,
        (true, interval) => 1 + usize::from(interval),
    };
    let ncols = attributes.len() + valid_cols + if has_tx { 2 } else { 0 };
    let mut table = TextTable::with_capacity(ncols, rel.rows.len());
    if has_valid || has_tx {
        table = table.with_double_bar_before(attributes.len());
    }
    for a in attributes {
        table.push_text(a.name());
    }
    if has_valid {
        if interval {
            table.push_text("valid (from)");
            table.push_text("valid (to)");
        } else {
            table.push_text("valid (at)");
        }
    }
    if has_tx {
        table.push_text("tx (start)");
        table.push_text("tx (end)");
    }
    // Each row's cells go in as they come; a row whose validity does
    // not match the signature is padded or cut at its end.
    for row in &rel.rows {
        for v in row.tuple.values() {
            match v {
                Value::Str(s) => table.push_text(s),
                Value::Date(c) => push_date(&mut table, *c),
                other => table.push_cell(other),
            }
        }
        if has_valid {
            match row.validity {
                Some(Validity::Event(c)) => push_date(&mut table, c),
                Some(Validity::Interval(p)) => {
                    push_point(&mut table, p.start());
                    push_point(&mut table, p.end());
                }
                None => {
                    table.push_text("");
                    if interval {
                        table.push_text("");
                    }
                }
            }
        }
        if has_tx {
            match row.tx {
                Some(p) => {
                    push_point(&mut table, p.start());
                    push_point(&mut table, p.end());
                }
                None => {
                    table.push_text("");
                    table.push_text("");
                }
            }
        }
        table.end_row();
    }
    table.render_into(out);
}

/// A date cell, written without the formatter: most cells are dates.
fn push_date(table: &mut TextTable, c: Chronon) {
    table.push_text(Date::from_chronon(c).text().as_str());
}

fn push_point(table: &mut TextTable, p: TimePoint) {
    match p {
        TimePoint::Finite(c) => push_date(table, c),
        infinite => table.push_cell(infinite),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ResultRow;
    use chronos_core::calendar::date;
    use chronos_core::period::Period;
    use chronos_core::schema::{Attribute, Schema};
    use chronos_core::tuple::tuple;
    use chronos_core::value::AttrType;

    #[test]
    fn renders_the_figure_8_result_row() {
        let rel = ResultRelation {
            schema: Schema::new(vec![Attribute::new("rank", AttrType::Str)]).unwrap(),
            kind: DatabaseClass::Temporal,
            signature: TemporalSignature::Interval,
            rows: vec![ResultRow {
                tuple: tuple(["associate"]),
                validity: Some(Validity::Interval(Period::from_start(
                    date("09/01/77").unwrap(),
                ))),
                tx: Some(
                    Period::new(date("08/25/77").unwrap(), date("12/15/82").unwrap()).unwrap(),
                ),
            }],
        };
        let s = render(&rel);
        assert!(s.contains("rank"), "{s}");
        assert!(s.contains("associate"), "{s}");
        assert!(s.contains("09/01/77"), "{s}");
        assert!(s.contains("∞"), "{s}");
        assert!(s.contains("08/25/77") && s.contains("12/15/82"), "{s}");
        assert!(
            s.contains("||"),
            "double bar separates temporal domains: {s}"
        );
    }

    #[test]
    fn static_results_have_no_temporal_columns() {
        let rel = ResultRelation {
            schema: Schema::new(vec![Attribute::new("rank", AttrType::Str)]).unwrap(),
            kind: DatabaseClass::Static,
            signature: TemporalSignature::Interval,
            rows: vec![ResultRow {
                tuple: tuple(["full"]),
                validity: None,
                tx: None,
            }],
        };
        let s = render(&rel);
        assert!(!s.contains("valid"), "{s}");
        assert!(!s.contains("tx"), "{s}");
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn event_results_use_single_at_column() {
        let rel = ResultRelation {
            schema: Schema::new(vec![Attribute::new("name", AttrType::Str)]).unwrap(),
            kind: DatabaseClass::Historical,
            signature: TemporalSignature::Event,
            rows: vec![ResultRow {
                tuple: tuple(["Merrie"]),
                validity: Some(Validity::Event(date("12/11/82").unwrap())),
                tx: None,
            }],
        };
        let s = render(&rel);
        assert!(s.contains("valid (at)"), "{s}");
        assert!(!s.contains("(from)"), "{s}");
        assert!(s.contains("12/11/82"), "{s}");
    }
}
