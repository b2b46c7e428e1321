//! The table renderer against the one it replaced.
//!
//! `oracle` below is the previous `printer::render` and `TextTable`,
//! kept verbatim but for one change: each cell's text comes from the
//! previous `Display` of `Date`, `Value` and `TimePoint` (the
//! `format!`-based ones), written out as plain functions.  Every
//! generated relation — all four classes, event and interval
//! signatures, missing validity and transaction time, mismatched
//! validity, ±∞, empty and non-ASCII strings, negative numbers, floats,
//! bools and dates outside 1900–1999 — must render byte for byte as the
//! oracle renders it.

use chronos_core::calendar::Date;
use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::render::TextTable;
use chronos_core::schema::{Attribute, Schema, TemporalSignature};
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::{AttrType, Value};
use chronos_db::ExecOutcome;
use chronos_tquel::exec::{ResultRelation, ResultRow};
use chronos_tquel::printer::render;
use proptest::prelude::*;

mod oracle {
    use super::*;
    use std::fmt::Write as _;

    pub fn date_text(c: Chronon) -> String {
        let d = Date::from_chronon(c);
        if (1900..2000).contains(&d.year()) {
            format!("{:02}/{:02}/{:02}", d.month(), d.day(), d.year() - 1900)
        } else {
            format!("{:02}/{:02}/{:04}", d.month(), d.day(), d.year())
        }
    }

    pub fn value_text(v: &Value) -> String {
        match v {
            Value::Str(s) => s.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => format!("{x}"),
            Value::Bool(b) => (if *b { "true" } else { "false" }).to_string(),
            Value::Date(c) => date_text(*c),
        }
    }

    pub fn point_text(p: TimePoint) -> String {
        match p {
            TimePoint::MinusInfinity => "-∞".to_string(),
            TimePoint::Finite(c) => date_text(c),
            TimePoint::PlusInfinity => "∞".to_string(),
        }
    }

    pub fn render(rel: &ResultRelation) -> String {
        let has_valid = rel.rows.iter().any(|r| r.validity.is_some())
            || matches!(
                rel.kind,
                chronos_core::taxonomy::DatabaseClass::Historical
                    | chronos_core::taxonomy::DatabaseClass::Temporal
            );
        let has_tx = rel.rows.iter().any(|r| r.tx.is_some())
            || rel.kind == chronos_core::taxonomy::DatabaseClass::Temporal;

        let mut headers: Vec<String> = rel
            .schema
            .attributes()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let explicit = headers.len();
        if has_valid {
            match rel.signature {
                TemporalSignature::Event => headers.push("valid (at)".into()),
                TemporalSignature::Interval => {
                    headers.push("valid (from)".into());
                    headers.push("valid (to)".into());
                }
            }
        }
        if has_tx {
            headers.push("tx (start)".into());
            headers.push("tx (end)".into());
        }

        let mut table = OldTextTable::new(headers);
        if has_valid || has_tx {
            table = table.with_double_bar_before(explicit);
        }
        for row in &rel.rows {
            let mut cells: Vec<String> = row.tuple.values().iter().map(value_text).collect();
            if has_valid {
                match row.validity {
                    Some(Validity::Event(c)) => cells.push(date_text(c)),
                    Some(Validity::Interval(p)) => {
                        cells.push(point_text(p.start()));
                        cells.push(point_text(p.end()));
                    }
                    None => {
                        cells.push(String::new());
                        if rel.signature == TemporalSignature::Interval {
                            cells.push(String::new());
                        }
                    }
                }
            }
            if has_tx {
                match row.tx {
                    Some(p) => {
                        cells.push(point_text(p.start()));
                        cells.push(point_text(p.end()));
                    }
                    None => {
                        cells.push(String::new());
                        cells.push(String::new());
                    }
                }
            }
            table.push_row(cells);
        }
        table.render()
    }

    #[derive(Clone, Debug, Default)]
    pub struct OldTextTable {
        headers: Vec<String>,
        rows: Vec<Vec<String>>,
        /// Column index before which the double bar `||` is drawn.
        double_bar_before: Option<usize>,
    }

    impl OldTextTable {
        pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> OldTextTable {
            OldTextTable {
                headers: headers.into_iter().map(Into::into).collect(),
                rows: Vec::new(),
                double_bar_before: None,
            }
        }

        #[must_use]
        pub fn with_double_bar_before(mut self, idx: usize) -> OldTextTable {
            self.double_bar_before = Some(idx);
            self
        }

        pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
            let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
            row.resize(self.headers.len(), String::new());
            self.rows.push(row);
        }

        pub fn render(&self) -> String {
            let ncols = self.headers.len();
            let mut widths: Vec<usize> = self.headers.iter().map(|h| display_width(h)).collect();
            for row in &self.rows {
                for (i, cell) in row.iter().enumerate().take(ncols) {
                    widths[i] = widths[i].max(display_width(cell));
                }
            }
            let sep_for = |i: usize| -> &'static str {
                if self.double_bar_before == Some(i) {
                    " || "
                } else if i == 0 {
                    ""
                } else {
                    " | "
                }
            };
            let mut out = String::new();
            let render_row = |cells: &[String], out: &mut String| {
                for (i, w) in widths.iter().enumerate() {
                    out.push_str(sep_for(i));
                    let cell = cells.get(i).map(String::as_str).unwrap_or("");
                    out.push_str(cell);
                    for _ in 0..w.saturating_sub(display_width(cell)) {
                        out.push(' ');
                    }
                }
                while out.ends_with(' ') {
                    out.pop();
                }
                out.push('\n');
            };
            render_row(&self.headers, &mut out);
            // Header rule.
            let mut rule = String::new();
            for (i, w) in widths.iter().enumerate() {
                rule.push_str(match sep_for(i) {
                    " || " => "-++-",
                    " | " => "-+-",
                    _ => "",
                });
                for _ in 0..*w {
                    rule.push('-');
                }
            }
            let _ = writeln!(out, "{rule}");
            for row in &self.rows {
                render_row(row, &mut out);
            }
            out
        }
    }

    fn display_width(s: &str) -> usize {
        s.chars().count()
    }
}

/// Characters strings are drawn from: ASCII, multi-byte letters, the
/// paper's glyphs, and the space the renderer trims at a line's end.
const CHARS: &[char] = &['a', 'Z', '7', ' ', '|', 'é', 'ß', '∞', '✓', '字', '-'];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..7)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// A chronon mostly in the paper's century, otherwise anywhere from
/// about 3000 BCE to 12 000 CE (negative and five-digit years).
fn arb_chronon() -> impl Strategy<Value = Chronon> {
    prop_oneof![
        3 => (-25_567i64..10_957).prop_map(Chronon::new),
        1 => (-1_800_000i64..3_700_000).prop_map(Chronon::new),
    ]
}

fn arb_point() -> impl Strategy<Value = TimePoint> {
    prop_oneof![
        1 => Just(TimePoint::MinusInfinity),
        6 => arb_chronon().prop_map(TimePoint::Finite),
        2 => Just(TimePoint::PlusInfinity),
    ]
}

fn arb_period() -> impl Strategy<Value = Period> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Period::new(a.min(b), a.max(b)).expect("ordered"))
}

fn arb_value(ty: AttrType) -> BoxedStrategy<Value> {
    match ty {
        AttrType::Str => arb_text().prop_map(|s| Value::str(&s)).boxed(),
        AttrType::Int => prop_oneof![
            (-1_000i64..1_000).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
        ]
        .boxed(),
        AttrType::Float => prop_oneof![
            (-10_000i64..10_000).prop_map(|i| Value::Float(i as f64 / 8.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(1e21)),
            Just(Value::Float(1e300)),
            Just(Value::Float(f64::NAN)),
        ]
        .boxed(),
        AttrType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        AttrType::Date => arb_chronon().prop_map(Value::Date).boxed(),
    }
}

const TYPES: [AttrType; 5] = [
    AttrType::Str,
    AttrType::Int,
    AttrType::Float,
    AttrType::Bool,
    AttrType::Date,
];
const CLASSES: [DatabaseClass; 4] = [
    DatabaseClass::Static,
    DatabaseClass::StaticRollback,
    DatabaseClass::Historical,
    DatabaseClass::Temporal,
];

fn arb_validity() -> impl Strategy<Value = Option<Validity>> {
    prop_oneof![
        1 => Just(None),
        1 => arb_chronon().prop_map(|c| Some(Validity::Event(c))),
        2 => arb_period().prop_map(|p| Some(Validity::Interval(p))),
    ]
}

fn arb_relation() -> impl Strategy<Value = ResultRelation> {
    let schema = (
        prop::collection::vec((arb_text(), 0..TYPES.len()), 1..5),
        0..CLASSES.len(),
        any::<bool>(),
        any::<u64>(),
    );
    schema.prop_map(|(attrs, class, event, seed)| {
        // Names must be distinct: suffix each with its position.
        let attrs: Vec<Attribute> = attrs
            .into_iter()
            .enumerate()
            .map(|(i, (name, ty))| Attribute::new(format!("{name}{i}"), TYPES[ty]))
            .collect();
        let types: Vec<AttrType> = attrs.iter().map(Attribute::attr_type).collect();
        // Rows are drawn from their own generator, seeded per relation,
        // because their shape depends on the schema just drawn.
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let nrows = rng.below(6) as usize;
        let has_valid = CLASSES[class].supports_historical_queries();
        let has_tx = CLASSES[class].supports_rollback();
        let rows = (0..nrows)
            .map(|_| {
                let values = types
                    .iter()
                    .map(|&ty| arb_value(ty).new_value(&mut rng))
                    .collect();
                // Any class may carry a stray validity or tx period:
                // the renderer draws the columns when any row has one.
                let stray = rng.below(8) == 0;
                ResultRow {
                    tuple: Tuple::new(values),
                    validity: if has_valid || stray {
                        arb_validity().new_value(&mut rng)
                    } else {
                        None
                    },
                    tx: if (has_tx || stray) && rng.below(6) != 0 {
                        Some(arb_period().new_value(&mut rng))
                    } else {
                        None
                    },
                }
            })
            .collect();
        ResultRelation {
            schema: Schema::new(attrs).expect("distinct names"),
            kind: CLASSES[class],
            signature: if event {
                TemporalSignature::Event
            } else {
                TemporalSignature::Interval
            },
            rows,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn printer_renders_every_relation_as_the_oracle_does(rel in arb_relation()) {
        let want = oracle::render(&rel);
        prop_assert_eq!(render(&rel), want.clone());
        // The wire body is the same table and its row-count line.
        let plural = if rel.len() == 1 { "" } else { "s" };
        let body = chronos_db::net::render_outcomes(&[ExecOutcome::Retrieved(rel.clone())]);
        prop_assert_eq!(body, format!("{want}({} row{plural})\n", rel.len()));
    }

    #[test]
    fn text_tables_render_as_the_oracle_does(
        headers in prop::collection::vec(arb_text(), 0..5),
        rows in prop::collection::vec(prop::collection::vec(arb_text(), 0..7), 0..5),
        bar in prop::option::of(0usize..6),
    ) {
        let mut old = oracle::OldTextTable::new(headers.clone());
        let mut new = TextTable::new(&headers);
        if let Some(bar) = bar {
            old = old.with_double_bar_before(bar);
            new = new.with_double_bar_before(bar);
        }
        for row in &rows {
            old.push_row(row.clone());
            new.push_row(row);
        }
        prop_assert_eq!(new.len(), rows.len());
        prop_assert_eq!(new.render(), old.render());
    }

    #[test]
    fn values_and_dates_display_and_pad_as_before(
        c in arb_chronon(),
        i in any::<i64>(),
        x in (-10_000i64..10_000).prop_map(|i| i as f64 / 8.0),
        s in arb_text(),
    ) {
        let text = oracle::date_text(c);
        let date = Date::from_chronon(c);
        prop_assert_eq!(date.to_string(), text.clone());
        prop_assert_eq!(format!("{date:>10}"), format!("{text:>10}"));
        prop_assert_eq!(format!("{date:*<12}|{date:^11}"), format!("{text:*<12}|{text:^11}"));
        prop_assert_eq!(format!("{c:>10}"), format!("{text:>10}"));
        for v in [Value::Int(i), Value::Float(x), Value::str(&s), Value::Bool(i < 0), Value::Date(c)] {
            let text = oracle::value_text(&v);
            prop_assert_eq!(v.to_string(), text.clone());
            prop_assert_eq!(format!("{v:>12}|{v:<7}|{v:^9}"), format!("{text:>12}|{text:<7}|{text:^9}"));
        }
    }
}
