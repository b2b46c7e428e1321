//! Workloads: seed-generated statement streams and the shadow that
//! knows every answer.
//!
//! Each workload is a load script (single-statement commits through one
//! connection, so transaction times are deterministic) plus the lazy
//! statement stream the measured connection runs.  The generator mirrors every write
//! into a shadow built from `chronos-core`'s reference relations — one
//! small reference relation per key — and derives each statement's
//! expected response from it, so the driver can check status, row count,
//! attribute, valid-time and (where deterministic) transaction-time
//! content of everything the server says.

use std::collections::{BTreeMap, HashSet};

use chronos_core::calendar::{date, Date};
use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::historical::HistoricalRelation;
use chronos_core::relation::rollback::{RollbackStore, TimestampedRollback};
use chronos_core::relation::static_rel::StaticRelation;
use chronos_core::relation::temporal::{BitemporalTable, TemporalStore};
use chronos_core::relation::{HistoricalOp, RowSelector, StaticOp, Validity};
use chronos_core::schema::{Attribute, RelationClass, Schema, TemporalSignature};
use chronos_core::tuple::Tuple;
use chronos_core::value::{AttrType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys in `emp` (`point_read`, `asof_sweep`).
pub const EMP_KEYS: usize = 400;
/// Versions per `emp` key: one `append` plus three `replace`s.
pub const EMP_VERSIONS: usize = 4;
/// Keys in `fac` (`temporal_join`).
pub const FAC_KEYS: usize = 64;
/// Versions per `fac` key: one `append`, one `replace` that opens a
/// second period, then corrections of that period's salary in place —
/// history to load and replay without more rows for the joins to pair.
pub const FAC_VERSIONS: usize = 8;
/// Keys per relation class at the start of `taxonomy_mix`.
pub const MIX_KEYS: usize = 250;
/// Fixed `as of` instants `point_read`, `temporal_join` and
/// `taxonomy_mix` draw from (fits the 32-entry scan cache).
pub const FIXED_INSTANTS: usize = 8;
/// Distinct `as of` instants `asof_sweep` cycles through (16× the scan
/// cache).
pub const SWEEP_INSTANTS: usize = 512;
/// `taxonomy_mix`: statements run in the measured part of a repetition.
/// A fixed count, not a time: two of its four relations keep every
/// version ever written, so relation size — and with it write latency,
/// memory, disk and reopen time — follows the number of statements
/// completed.  Under a time limit a faster server would finish more, grow
/// larger and be reported as regressing on all of those.  Sized so that
/// the seed commit takes about 2 s over them — a fifth of `run_seconds`,
/// like a repetition of the other workloads.
pub const MIX_STATEMENTS: u64 = 4_000;
/// `taxonomy_mix`: a checkpoint is asked for every this many statements
/// of the stream: 8 fixed stream positions.
pub const CHECKPOINT_EVERY: u64 = 500;
/// `taxonomy_mix`: after the measured part a final checkpoint is taken
/// and this many more statements run, unmeasured, so that the directory
/// that is sized, killed and reopened is a checkpoint image plus a log
/// tail of fixed length.
pub const MIX_TAIL_STATEMENTS: usize = 500;
/// Share of `taxonomy_mix` statements that write, percent.
pub const MIX_WRITE_PCT: u32 = 60;

/// The day the server's clock is advanced to before the load.
pub const CLOCK_START: &str = "01/01/80";

const ATTRS: &str = "name = str, dept = str, salary = int";
const TARGETS: [&str; 3] = ["name", "dept", "salary"];

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Key lookups over a relation whose scans all fit the scan cache.
    PointRead,
    /// `as of` lookups over 16× more instants than the scan cache holds.
    AsofSweep,
    /// Two-variable temporal joins.
    TemporalJoin,
    /// 60 % writes / 40 % reads over one relation of each class.
    TaxonomyMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PointRead,
        Workload::AsofSweep,
        Workload::TemporalJoin,
        Workload::TaxonomyMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::AsofSweep => "asof_sweep",
            Workload::TemporalJoin => "temporal_join",
            Workload::TaxonomyMix => "taxonomy_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointRead => {
                "key lookups whose scans all fit the scan cache: filter/evaluate over every row to return 1-4 does the work; key and valid-time pushdown must show here"
            }
            Workload::AsofSweep => {
                "as-of lookups over 512 instants, 16x the scan cache: rollback reconstruction in storage does the work; cache, segment and access-path changes show here and not on point_read"
            }
            Workload::TemporalJoin => {
                "two-variable temporal joins: the cartesian product in the evaluator does the work and storage almost none; a real join must show here"
            }
            Workload::TaxonomyMix => {
                "60% writes / 40% reads, a fixed statement count over one relation of each class with checkpoints: parse, session, group commit, apply, WAL fsync, ack do the work; guards write cost and reopen"
            }
        }
    }

    fn relations(self) -> Vec<RelSpec> {
        let rel = |name, var, class| RelSpec { name, var, class };
        match self {
            Workload::PointRead | Workload::AsofSweep => {
                vec![rel("emp", "e", RelationClass::Temporal)]
            }
            Workload::TemporalJoin => vec![rel("fac", "f1", RelationClass::Temporal)],
            Workload::TaxonomyMix => vec![
                rel("s_emp", "s", RelationClass::Static),
                rel("r_emp", "r", RelationClass::StaticRollback),
                rel("h_emp", "h", RelationClass::Historical),
                rel("t_emp", "t", RelationClass::Temporal),
            ],
        }
    }

    /// Repetitions per run: each sets a fresh server up, drives it, and
    /// reopens it.  Fewer where a set-up is dear (1 600 commits), so that
    /// a run takes the seed commit 16–21 s on every workload.
    pub fn repetitions(self) -> usize {
        match self {
            Workload::PointRead | Workload::AsofSweep => 5,
            Workload::TemporalJoin => 14,
            Workload::TaxonomyMix => 11,
        }
    }

    /// Measured windows per repetition.  The read-only workloads cut
    /// `--seconds` into windows of 0.5–0.7 s — the shortest that still
    /// hold 200 of `temporal_join`'s statements, ten beyond the p95 — so
    /// that a disturbance of a second or two leaves most of a run's
    /// windows clean; where a set-up is dear a repetition holds four.
    /// `taxonomy_mix`'s state grows, so its fixed statement count is one
    /// window.
    pub fn windows(self) -> usize {
        match self {
            Workload::PointRead | Workload::AsofSweep => 4,
            Workload::TemporalJoin | Workload::TaxonomyMix => 1,
        }
    }

    /// Kill + reopen cycles per repetition (1.5–2 s of them in a run).
    pub fn reopens(self) -> usize {
        match self {
            Workload::PointRead | Workload::AsofSweep => 3,
            Workload::TemporalJoin => 12,
            Workload::TaxonomyMix => 15,
        }
    }

    /// Statements run in the measured part of a repetition, where that
    /// is fixed; `None` where the state is read-only and the stream runs
    /// until the repetition's share of `--seconds` has passed.
    pub fn fixed_statements(self) -> Option<u64> {
        match self {
            Workload::TaxonomyMix => Some(MIX_STATEMENTS),
            _ => None,
        }
    }

    /// Statements run after the measured part and a final checkpoint,
    /// before the directory is measured.
    pub fn tail_statements(self) -> usize {
        match self {
            Workload::TaxonomyMix => MIX_TAIL_STATEMENTS,
            _ => 0,
        }
    }

    /// The temporal relation whose history the storage-layer metrics
    /// are measured on.
    pub fn primary_relation(self) -> &'static str {
        self.relations()
            .iter()
            .find(|r| r.class == RelationClass::Temporal)
            .expect("every workload has a temporal relation")
            .name
    }
}

/// The schema every benchmark relation shares.
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::new("name", AttrType::Str),
        Attribute::new("dept", AttrType::Str),
        Attribute::new("salary", AttrType::Int),
    ])
    .expect("distinct attribute names")
}

#[derive(Clone, Copy, Debug)]
struct RelSpec {
    name: &'static str,
    var: &'static str,
    class: RelationClass,
}

impl RelSpec {
    fn has_valid_time(&self) -> bool {
        matches!(
            self.class,
            RelationClass::Historical | RelationClass::Temporal
        )
    }

    fn has_tx_time(&self) -> bool {
        matches!(
            self.class,
            RelationClass::StaticRollback | RelationClass::Temporal
        )
    }
}

// ----------------------------------------------------------------
// expected responses
// ----------------------------------------------------------------

/// What the server must answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A rendered table with exactly these rows (as a multiset); only
    /// the first `cols` cells of each row are compared (a rollback
    /// relation's transaction-time columns are not modelled).
    Rows {
        /// Expected cells per row, sorted.
        rows: Vec<Vec<String>>,
        /// Leading cells compared.
        cols: usize,
    },
    /// This exact body.
    Exact(String),
}

impl Expect {
    /// Checks one response; `Err` describes the mismatch.
    pub fn check(&self, ok: bool, body: &str) -> Result<(), String> {
        if !ok {
            return Err(format!("server error: {}", body.trim_end()));
        }
        match self {
            Expect::Exact(want) if body == want => Ok(()),
            Expect::Exact(want) => Err(format!("expected {want:?}, got {body:?}")),
            Expect::Rows { rows, cols } => {
                let got = parse_table(body, *cols)?;
                if &got == rows {
                    Ok(())
                } else {
                    Err(format!("expected rows {rows:?}, got {got:?}"))
                }
            }
        }
    }
}

/// Parses the CLI's rendered table into sorted rows of at most `cols`
/// trimmed cells, checking the `(N rows)` trailer against the row count.
pub fn parse_table(body: &str, cols: usize) -> Result<Vec<Vec<String>>, String> {
    let mut lines = body.lines();
    let (Some(_header), Some(_rule)) = (lines.next(), lines.next()) else {
        return Err(format!("not a table: {body:?}"));
    };
    let mut rows = Vec::new();
    let mut trailer = None;
    for line in lines {
        if line.starts_with('(') {
            trailer = Some(line);
            break;
        }
        // `a | b || c` — the double bar leaves one empty cell behind.
        let cells: Vec<String> = line
            .split('|')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .take(cols)
            .map(str::to_string)
            .collect();
        rows.push(cells);
    }
    let counted = trailer
        .and_then(|t| t.trim_start_matches('(').split(' ').next())
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| format!("table without a row-count trailer: {body:?}"))?;
    if counted != rows.len() {
        return Err(format!(
            "trailer says {counted} rows, table has {}",
            rows.len()
        ));
    }
    rows.sort();
    Ok(rows)
}

// ----------------------------------------------------------------
// the shadow
// ----------------------------------------------------------------

/// An `as of` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsOf {
    /// `as of t`
    At(Chronon),
    /// `as of t1 through t2`
    Through(Chronon, Chronon),
}

/// One key's history in the reference relation of its class.
#[derive(Clone, Debug)]
enum KeyShadow {
    Static(StaticRelation),
    Rollback(TimestampedRollback),
    Historical(HistoricalRelation),
    Temporal(BitemporalTable),
}

/// A row as a query sees it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Visible {
    tuple: Tuple,
    valid: Option<Period>,
    tx: Option<Period>,
}

impl KeyShadow {
    fn new(class: RelationClass) -> KeyShadow {
        let interval = TemporalSignature::Interval;
        match class {
            RelationClass::Static => KeyShadow::Static(StaticRelation::new(schema())),
            RelationClass::StaticRollback => {
                KeyShadow::Rollback(TimestampedRollback::new(schema()))
            }
            RelationClass::Historical => {
                KeyShadow::Historical(HistoricalRelation::new(schema(), interval))
            }
            RelationClass::Temporal => {
                KeyShadow::Temporal(BitemporalTable::new(schema(), interval))
            }
        }
    }

    fn apply(&mut self, tx: Chronon, ops: &[HistoricalOp]) {
        let static_ops = || -> Vec<StaticOp> {
            ops.iter()
                .map(|op| match op {
                    HistoricalOp::Insert { tuple, .. } => StaticOp::Insert(tuple.clone()),
                    HistoricalOp::Remove { selector } => StaticOp::Delete(selector.tuple.clone()),
                    HistoricalOp::SetValidity { .. } => {
                        unreachable!("static classes are never re-stamped")
                    }
                })
                .collect()
        };
        let applied = match self {
            KeyShadow::Static(r) => r.apply(&static_ops()),
            KeyShadow::Rollback(r) => r.commit(tx, &static_ops()),
            KeyShadow::Historical(r) => r.apply(ops),
            KeyShadow::Temporal(r) => r.commit(tx, ops),
        };
        applied.expect("generated operations are valid against the shadow");
    }

    /// The rows a scan of this key yields under `as_of`.
    fn visible(&self, as_of: Option<AsOf>) -> Vec<Visible> {
        let plain = |tuple: &Tuple| Visible {
            tuple: tuple.clone(),
            valid: None,
            tx: None,
        };
        let window = |t1: Chronon, t2: Chronon| Period::clamped(t1, t2.succ());
        match (self, as_of) {
            (KeyShadow::Static(r), _) => r.iter().map(plain).collect(),
            (KeyShadow::Rollback(r), None) => r.current().iter().map(plain).collect(),
            (KeyShadow::Rollback(r), Some(AsOf::At(t))) => {
                r.rollback(t).iter().map(plain).collect()
            }
            (KeyShadow::Rollback(r), Some(AsOf::Through(t1, t2))) => {
                let mut seen = HashSet::new();
                r.rows()
                    .iter()
                    .filter(|row| row.tx.overlaps(window(t1, t2)))
                    .filter(|row| seen.insert(row.tuple.clone()))
                    .map(|row| plain(&row.tuple))
                    .collect()
            }
            (KeyShadow::Historical(r), _) => r
                .rows()
                .iter()
                .map(|row| Visible {
                    tuple: row.tuple.clone(),
                    valid: Some(row.validity.period()),
                    tx: None,
                })
                .collect(),
            (KeyShadow::Temporal(r), as_of) => r
                .rows()
                .iter()
                .filter(|row| match as_of {
                    None => row.is_current(),
                    Some(AsOf::At(t)) => row.tx.contains(t),
                    Some(AsOf::Through(t1, t2)) => row.tx.overlaps(window(t1, t2)),
                })
                .map(|row| Visible {
                    tuple: row.tuple.clone(),
                    valid: Some(row.validity.period()),
                    tx: Some(row.tx),
                })
                .collect(),
        }
    }
}

fn cells(row: &Visible) -> Vec<String> {
    let mut out: Vec<String> = row.tuple.values().iter().map(ToString::to_string).collect();
    for p in [row.valid, row.tx].into_iter().flatten() {
        out.push(p.start().to_string());
        out.push(p.end().to_string());
    }
    out
}

/// One relation's shadow: a reference relation per key.
#[derive(Clone, Debug)]
struct Shadow {
    spec: RelSpec,
    keys: BTreeMap<String, KeyShadow>,
}

impl Shadow {
    fn new(spec: RelSpec) -> Shadow {
        Shadow {
            spec,
            keys: BTreeMap::new(),
        }
    }

    fn visible(&self, key: &str, as_of: Option<AsOf>) -> Vec<Visible> {
        self.keys.get(key).map_or(Vec::new(), |k| k.visible(as_of))
    }

    fn apply(&mut self, key: &str, tx: Chronon, ops: &[HistoricalOp]) {
        self.keys
            .entry(key.to_string())
            .or_insert_with(|| KeyShadow::new(self.spec.class))
            .apply(tx, ops);
    }

    /// Leading cells of a result row that are compared: the attributes,
    /// the valid period and, of a temporal relation, the start of the
    /// transaction period and (`tx_end`) its end.  The end is left out
    /// where the stream writes: an `as of` scan the server keeps in its
    /// frozen cache goes on showing `∞` for a version that a later
    /// commit has closed, where an uncached one shows the closing time.
    fn checked_cols(&self, tx_end: bool) -> usize {
        let mut cols = TARGETS.len();
        if self.spec.has_valid_time() {
            cols += 2;
        }
        if self.spec.class == RelationClass::Temporal {
            cols += 1 + usize::from(tx_end);
        }
        cols
    }
}

// ----------------------------------------------------------------
// statements
// ----------------------------------------------------------------

/// One statement of a load script or a stream.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The TQuel text sent to the server.
    pub text: String,
    /// True for `append` / `replace` / `delete`.
    pub is_write: bool,
    /// What the server must answer.
    pub expect: Expect,
    /// Attribute bytes this statement hands the database to keep.
    pub user_bytes: u64,
    /// For writes: the relation and the operations the statement lowers
    /// to (what `Engine::commit` takes when TQuel is bypassed).
    pub commit: Option<(&'static str, Vec<HistoricalOp>)>,
    /// For load statements: the transaction time the commit receives.
    pub tx: Option<Chronon>,
}

fn day(c: Chronon) -> String {
    Date::from_chronon(c).to_string()
}

fn key_name(i: usize) -> String {
    format!("k{i:05}")
}

fn row_tuple(name: &str, dept: &str, salary: i64) -> Tuple {
    Tuple::new(vec![Value::str(name), Value::str(dept), Value::Int(salary)])
}

fn target_list(var: &str) -> String {
    TARGETS
        .iter()
        .map(|a| format!("{var}.{a}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn as_of_clause(as_of: Option<AsOf>) -> String {
    match as_of {
        None => String::new(),
        Some(AsOf::At(t)) => format!(" as of \"{}\"", day(t)),
        Some(AsOf::Through(t1, t2)) => {
            format!(" as of \"{}\" through \"{}\"", day(t1), day(t2))
        }
    }
}

/// The validity clause of a write on a relation with valid time.
fn valid_clause(spec: &RelSpec, from: Chronon) -> String {
    if spec.has_valid_time() {
        format!(" valid from \"{}\" to forever", day(from))
    } else {
        String::new()
    }
}

/// A single-variable key lookup and its expected rows.
fn lookup(
    shadow: &Shadow,
    key: &str,
    when: Option<Chronon>,
    as_of: Option<AsOf>,
    tx_end: bool,
) -> Stmt {
    let var = shadow.spec.var;
    let mut text = format!(
        "retrieve ({}) where {var}.name = \"{key}\"",
        target_list(var)
    );
    if let Some(d) = when {
        text.push_str(&format!(" when {var} overlap \"{}\"", day(d)));
    }
    text.push_str(&as_of_clause(as_of));
    let cols = shadow.checked_cols(tx_end);
    let mut rows: Vec<Vec<String>> = shadow
        .visible(key, as_of)
        .iter()
        .filter(|row| match (when, row.valid) {
            (Some(d), Some(valid)) => valid.overlaps(Period::instant(d)),
            _ => true,
        })
        .map(|row| {
            let mut c = cells(row);
            c.truncate(cols);
            c
        })
        .collect();
    rows.sort();
    Stmt {
        text,
        is_write: false,
        expect: Expect::Rows { rows, cols },
        user_bytes: 0,
        commit: None,
        tx: None,
    }
}

/// The paper's flagship two-variable query: `a`'s rows as they held when
/// `b`'s began.
fn flagship_join(shadow: &Shadow, a: &str, b: &str, as_of: Option<AsOf>) -> Stmt {
    let text = format!(
        "retrieve ({}) where f1.name = \"{a}\" and f2.name = \"{b}\" when f1 overlap start of f2{}",
        target_list("f1"),
        as_of_clause(as_of)
    );
    let others = shadow.visible(b, as_of);
    let mut seen = HashSet::new();
    let mut rows: Vec<Vec<String>> = shadow
        .visible(a, as_of)
        .into_iter()
        .filter(|r1| {
            let v1 = r1.valid.expect("temporal rows carry valid time");
            others.iter().any(|r2| {
                let v2 = r2.valid.expect("temporal rows carry valid time");
                v1.overlaps(v2.start_of())
            })
        })
        .filter(|r1| seen.insert(r1.clone()))
        .map(|r1| cells(&r1))
        .collect();
    rows.sort();
    Stmt {
        text,
        is_write: false,
        expect: Expect::Rows {
            rows,
            cols: TARGETS.len() + 4,
        },
        user_bytes: 0,
        commit: None,
        tx: None,
    }
}

/// The equi-join: pairs of one key's versions that overlap in valid
/// time, stamped with the intersection on both axes.
fn equi_join(shadow: &Shadow, key: &str, as_of: Option<AsOf>) -> Stmt {
    let text = format!(
        "retrieve (f1.name, s1 = f1.salary, s2 = f2.salary) where f1.name = f2.name and f1.name = \"{key}\" when f1 overlap f2{}",
        as_of_clause(as_of)
    );
    let visible = shadow.visible(key, as_of);
    let mut seen = HashSet::new();
    let mut rows = Vec::new();
    for r1 in &visible {
        for r2 in &visible {
            let (v1, v2) = (r1.valid.expect("temporal"), r2.valid.expect("temporal"));
            if !v1.overlaps(v2) {
                continue;
            }
            let tx = r1.tx.expect("temporal").intersect(r2.tx.expect("temporal"));
            if tx.is_empty() {
                continue; // the two versions never co-existed in the store
            }
            let row = Visible {
                tuple: Tuple::new(vec![
                    r1.tuple.get(0).clone(),
                    r1.tuple.get(2).clone(),
                    r2.tuple.get(2).clone(),
                ]),
                valid: Some(v1.intersect(v2)),
                tx: Some(tx),
            };
            if seen.insert(row.clone()) {
                rows.push(cells(&row));
            }
        }
    }
    rows.sort();
    Stmt {
        text,
        is_write: false,
        expect: Expect::Rows { rows, cols: 3 + 4 },
        user_bytes: 0,
        commit: None,
        tx: None,
    }
}

/// `append to rel (…) [valid from … to forever]`.
fn append(
    shadow: &mut Shadow,
    key: &str,
    dept: &str,
    salary: i64,
    from: Chronon,
    tx: Chronon,
) -> Stmt {
    let spec = shadow.spec;
    let text = format!(
        "append to {} (name = \"{key}\", dept = \"{dept}\", salary = {salary}){}",
        spec.name,
        valid_clause(&spec, from)
    );
    let validity = if spec.has_valid_time() {
        Period::from_start(from)
    } else {
        Period::ALWAYS
    };
    let ops = vec![HistoricalOp::insert(
        row_tuple(key, dept, salary),
        Validity::Interval(validity),
    )];
    shadow.apply(key, tx, &ops);
    Stmt {
        text,
        is_write: true,
        expect: Expect::Exact(format!("appended (transaction time {})\n", day(tx))),
        user_bytes: (key.len() + dept.len() + 8) as u64,
        commit: Some((spec.name, ops)),
        tx: None,
    }
}

/// `replace v (salary = …) [valid from … to forever] where v.name = key`,
/// lowered the way the session documents it: each current row of the key
/// that reaches into the new period is terminated where the new period
/// begins (or retracted when it begins no earlier), and the new fact is
/// recorded once.
fn replace(shadow: &mut Shadow, key: &str, salary: i64, from: Chronon, tx: Chronon) -> Stmt {
    let spec = shadow.spec;
    let text = format!(
        "replace {} (salary = {salary}){} where {}.name = \"{key}\"",
        spec.var,
        valid_clause(&spec, from),
        spec.var
    );
    let mut ops = Vec::new();
    let mut affected = 0;
    let mut staged = HashSet::new();
    for old in shadow.visible(key, None) {
        let mut values = old.tuple.values().to_vec();
        values[2] = Value::Int(salary);
        let new_tuple = Tuple::new(values);
        match old.valid {
            None => {
                ops.push(HistoricalOp::remove(RowSelector::tuple(old.tuple.clone())));
                ops.push(HistoricalOp::insert(
                    new_tuple,
                    Validity::Interval(Period::ALWAYS),
                ));
            }
            Some(old_valid) => {
                let new_valid = Period::from_start(from);
                if old_valid.end() <= new_valid.start() {
                    continue; // entirely before the new period
                }
                let sel = RowSelector::exact(old.tuple.clone(), Validity::Interval(old_valid));
                if old_valid.start() < new_valid.start() {
                    ops.push(HistoricalOp::set_validity(
                        sel,
                        Period::clamped(old_valid.start(), new_valid.start()),
                    ));
                } else {
                    ops.push(HistoricalOp::remove(sel));
                }
                if staged.insert(new_tuple.clone()) {
                    ops.push(HistoricalOp::insert(
                        new_tuple,
                        Validity::Interval(new_valid),
                    ));
                }
            }
        }
        affected += 1;
    }
    assert!(affected > 0, "replace generated for an absent key {key}");
    shadow.apply(key, tx, &ops);
    Stmt {
        text,
        is_write: true,
        expect: Expect::Exact(format!("replaced {affected} row(s)\n")),
        user_bytes: 8,
        commit: Some((spec.name, ops)),
        tx: None,
    }
}

/// `delete v where v.name = key`.  Every row the benchmark deletes
/// starts after the server's clock, so the session retracts it outright
/// whatever "now" a concurrent commit has moved it to.
fn delete(shadow: &mut Shadow, key: &str, tx: Chronon) -> Stmt {
    let spec = shadow.spec;
    let text = format!("delete {} where {}.name = \"{key}\"", spec.var, spec.var);
    let ops: Vec<HistoricalOp> = shadow
        .visible(key, None)
        .into_iter()
        .map(|row| {
            HistoricalOp::remove(match row.valid {
                None => RowSelector::tuple(row.tuple),
                Some(valid) => RowSelector::exact(row.tuple, Validity::Interval(valid)),
            })
        })
        .collect();
    assert!(!ops.is_empty(), "delete generated for an absent key {key}");
    let n = ops.len();
    shadow.apply(key, tx, &ops);
    Stmt {
        text,
        is_write: true,
        expect: Expect::Exact(format!("deleted {n} row(s)\n")),
        user_bytes: 0,
        commit: Some((spec.name, ops)),
        tx: None,
    }
}

// ----------------------------------------------------------------
// plans and streams
// ----------------------------------------------------------------

/// Everything one run of a workload executes.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// `create` statements, one per relation.
    pub ddl: Vec<String>,
    /// `(variable, relation)` range declarations a connection makes
    /// once.
    pub range_vars: Vec<(&'static str, &'static str)>,
    /// The same declarations as one TQuel program.
    pub ranges: String,
    /// The load: single-statement commits, in order, one connection.
    pub load: Vec<Stmt>,
    /// The statement stream the measured connection runs.
    pub stream: Stream,
}

/// A lazy, deterministic statement stream.
pub struct Stream {
    workload: Workload,
    rng: StdRng,
    shadows: Vec<Shadow>,
    /// Fixed `as of` instants (all within the load's transaction times).
    instants: Vec<Chronon>,
    /// Bounds of the valid-time dates `when` clauses draw from.
    valid_domain: (Chronon, Chronon),
    /// Statements generated so far.
    issued: u64,
    /// The transaction time the next commit receives: with one writer
    /// the transaction manager's `max(clock, last + 1)` counts on from the
    /// load, past every instant a query names.
    next_tx: Chronon,
}

/// Valid times of `taxonomy_mix` start here: after anything the server's
/// clock can reach in a run, so every fact is postactive and a `delete`
/// retracts it regardless of the commit time it happens to get.
fn mix_valid_base() -> Chronon {
    date("01/01/2100").expect("a valid date")
}

impl Plan {
    /// Generates the plan for `workload` from `seed`; the same seed gives
    /// the same load and the same streams.
    pub fn generate(workload: Workload, seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_726f_6e6f_7300);
        let specs = workload.relations();
        let mut shadows: Vec<Shadow> = specs.iter().map(|s| Shadow::new(*s)).collect();
        let clock = date(CLOCK_START).expect("a valid date");
        let mut load: Vec<Stmt> = Vec::new();
        let valid_domain;
        match workload {
            Workload::PointRead | Workload::AsofSweep | Workload::TemporalJoin => {
                let (keys, versions) = match workload {
                    Workload::TemporalJoin => (FAC_KEYS, FAC_VERSIONS),
                    _ => (EMP_KEYS, EMP_VERSIONS),
                };
                let base = date("01/01/70").expect("a valid date");
                valid_domain = (base, base + 400 * EMP_VERSIONS as i64 + 400);
                let mut order: Vec<usize> = (0..keys).collect();
                // Version-major, so every relation's history spans the
                // whole range of the load's transaction times.
                for version in 0..versions {
                    for shadow in shadows.iter_mut() {
                        shuffle(&mut order, &mut rng);
                        for &k in &order {
                            let key = key_name(k);
                            let salary = 1_000 * (version as i64 + 1) + rng.gen_range(0i64..1_000);
                            if version == 0 {
                                let dept = format!("d{:02}", rng.gen_range(0u32..20));
                                let from = base + rng.gen_range(0i64..300);
                                load_commit(&mut load, clock, |tx| {
                                    append(shadow, &key, &dept, salary, from, tx)
                                });
                            } else {
                                let latest = latest_start(shadow, &key);
                                let from = if workload == Workload::TemporalJoin && version >= 2 {
                                    latest // a correction: same period, new salary
                                } else {
                                    latest + rng.gen_range(300i64..400)
                                };
                                load_commit(&mut load, clock, |tx| {
                                    replace(shadow, &key, salary, from, tx)
                                });
                            }
                        }
                    }
                }
            }
            Workload::TaxonomyMix => {
                let base = mix_valid_base();
                valid_domain = (base, base + 3_000);
                for shadow in shadows.iter_mut() {
                    for k in 0..MIX_KEYS {
                        let key = key_name(k);
                        let dept = format!("d{:02}", rng.gen_range(0u32..20));
                        let salary = rng.gen_range(1_000i64..2_000);
                        let from = base + rng.gen_range(0i64..300);
                        load_commit(&mut load, clock, |tx| {
                            append(shadow, &key, &dept, salary, from, tx)
                        });
                    }
                }
            }
        }
        let commits = load.len() as i64;
        // Instants spread over the load's transaction times, none past its
        // last commit: a later one could name a commit of the measured
        // window, whose transaction time concurrent writers decide.
        let instants: Vec<Chronon> = (1..=FIXED_INSTANTS as i64)
            .map(|i| clock + (commits - 1) * i / FIXED_INSTANTS as i64 - rng.gen_range(0i64..5))
            .collect();
        let ddl = specs
            .iter()
            .map(|s| {
                let class = match s.class {
                    RelationClass::Static => "static",
                    RelationClass::StaticRollback => "rollback",
                    RelationClass::Historical => "historical",
                    RelationClass::Temporal => "temporal",
                };
                format!("create {} ({ATTRS}) as {class}", s.name)
            })
            .collect();
        let range_vars: Vec<(&'static str, &'static str)> = match workload {
            Workload::TemporalJoin => vec![("f1", "fac"), ("f2", "fac")],
            _ => specs.iter().map(|s| (s.var, s.name)).collect(),
        };
        let ranges = range_vars
            .iter()
            .map(|(var, rel)| format!("range of {var} is {rel}"))
            .collect::<Vec<_>>()
            .join(" ");
        let stream = Stream {
            workload,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            shadows,
            instants,
            valid_domain,
            issued: 0,
            next_tx: clock + commits,
        };
        Plan {
            workload,
            ddl,
            range_vars,
            ranges,
            load,
            stream,
        }
    }

    /// The primary temporal relation's history as storage sees it:
    /// `(transaction time, operations)` per commit of the load.
    pub fn primary_history(&self) -> Vec<(Chronon, Vec<HistoricalOp>)> {
        let primary = self.workload.primary_relation();
        self.load
            .iter()
            .filter_map(|stmt| match (&stmt.commit, stmt.tx) {
                (Some((rel, ops)), Some(tx)) if *rel == primary => Some((tx, ops.clone())),
                _ => None,
            })
            .collect()
    }
}

/// Appends one load statement.  The i-th commit of the load receives
/// `clock + i`: the transaction manager hands out `max(clock, last + 1)`
/// and the server's clock stands still during the load, so with one
/// writer the echoed transaction time is exact.
fn load_commit(load: &mut Vec<Stmt>, clock: Chronon, stmt_at: impl FnOnce(Chronon) -> Stmt) {
    let tx = clock + load.len() as i64;
    let mut stmt = stmt_at(tx);
    stmt.tx = Some(tx);
    load.push(stmt);
}

fn shuffle(v: &mut [usize], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The latest valid-time start among a key's current rows.
fn latest_start(shadow: &Shadow, key: &str) -> Chronon {
    shadow
        .visible(key, None)
        .iter()
        .filter_map(|row| row.valid?.start().finite())
        .max()
        .expect("the key has a current row with a finite start")
}

impl Stream {
    /// The next statement of the stream.
    pub fn next_stmt(&mut self) -> Stmt {
        self.issued += 1;
        match self.workload {
            Workload::PointRead => self.point_read(),
            Workload::AsofSweep => self.asof_sweep(),
            Workload::TemporalJoin => self.temporal_join(),
            Workload::TaxonomyMix => self.taxonomy_mix(),
        }
    }

    /// Statements generated so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// True when the statement just generated is one after which the
    /// server is asked for a checkpoint.
    pub fn checkpoint_due(&self) -> bool {
        self.workload == Workload::TaxonomyMix && self.issued.is_multiple_of(CHECKPOINT_EVERY)
    }

    fn when_date(&mut self) -> Chronon {
        let (lo, hi) = self.valid_domain;
        lo + self.rng.gen_range(0..hi.since(lo))
    }

    fn fixed_instant(&mut self) -> Chronon {
        self.instants[self.rng.gen_range(0..self.instants.len())]
    }

    fn point_read(&mut self) -> Stmt {
        let key = key_name(self.rng.gen_range(0..EMP_KEYS));
        let (when, as_of) = match self.rng.gen_range(0u32..10) {
            0..=3 => (None, None),
            4..=6 => (Some(self.when_date()), None),
            _ => (None, Some(AsOf::At(self.fixed_instant()))),
        };
        lookup(&self.shadows[0], &key, when, as_of, true)
    }

    fn asof_sweep(&mut self) -> Stmt {
        // The key rotates; the instant strides through 512 distinct
        // points of the load's transaction times so that no two
        // neighbouring statements share a scan.
        let key = key_name(self.issued as usize * 7 % EMP_KEYS);
        let (first, last) = (self.instants[0], *self.instants.last().expect("instants"));
        let slot = self.issued * 37 % SWEEP_INSTANTS as u64;
        let at = first + last.since(first) * slot as i64 / SWEEP_INSTANTS as i64;
        let as_of = if self.rng.gen_range(0u32..4) == 0 {
            AsOf::Through(at, at + 3)
        } else {
            AsOf::At(at)
        };
        lookup(&self.shadows[0], &key, None, Some(as_of), true)
    }

    fn temporal_join(&mut self) -> Stmt {
        let a = key_name(self.rng.gen_range(0..FAC_KEYS));
        let as_of = self
            .rng
            .gen_bool(0.5)
            .then(|| AsOf::At(self.fixed_instant()));
        if self.rng.gen_bool(0.5) {
            let b = key_name(self.rng.gen_range(0..FAC_KEYS));
            flagship_join(&self.shadows[0], &a, &b, as_of)
        } else {
            equi_join(&self.shadows[0], &a, as_of)
        }
    }

    fn taxonomy_mix(&mut self) -> Stmt {
        let key = key_name(self.rng.gen_range(0..MIX_KEYS));
        let class = self.rng.gen_range(0..self.shadows.len());
        let write = self.rng.gen_range(0u32..100) < MIX_WRITE_PCT;
        let present = !self.shadows[class].visible(&key, None).is_empty();
        let spec = self.shadows[class].spec;
        if !write {
            let as_of = (spec.has_tx_time() && self.rng.gen_bool(0.5))
                .then(|| AsOf::At(self.fixed_instant()));
            let when = (spec.has_valid_time() && self.rng.gen_bool(0.5)).then(|| self.when_date());
            return lookup(&self.shadows[class], &key, when, as_of, false);
        }
        let tx = self.next_tx;
        self.next_tx = tx.succ();
        let salary = 10_000 + self.issued as i64;
        let shadow = &mut self.shadows[class];
        if !present {
            let dept = format!("d{:02}", self.rng.gen_range(0u32..20));
            let from = mix_valid_base() + self.rng.gen_range(0i64..300);
            return append(shadow, &key, &dept, salary, from, tx);
        }
        if self.rng.gen_range(0u32..4) == 0 {
            return delete(shadow, &key, tx);
        }
        let from = if spec.has_valid_time() {
            let latest = latest_start(shadow, &key);
            if self.rng.gen_range(0u32..4) == 0 {
                // A retroactive correction: the new fact begins before
                // the latest one did and supersedes it.
                (latest - self.rng.gen_range(1i64..200)).max_of(mix_valid_base())
            } else {
                latest + self.rng.gen_range(30i64..400)
            }
        } else {
            Chronon::ZERO // unused: no valid clause
        };
        replace(shadow, &key, salary, from, tx)
    }

    /// Reads that together cover everything the stream's writes were
    /// acknowledged for: the current state of every key of every relation
    /// (read-only workloads sample their own stream).
    pub fn verification(&mut self) -> Vec<Stmt> {
        match self.workload {
            Workload::TaxonomyMix => self
                .shadows
                .iter()
                .flat_map(|shadow| {
                    (0..MIX_KEYS).map(move |k| lookup(shadow, &key_name(k), None, None, true))
                })
                .collect(),
            _ => (0..100).map(|_| self.next_stmt()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(stream: &mut Stream, n: usize) -> Vec<String> {
        (0..n).map(|_| stream.next_stmt().text).collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for workload in Workload::ALL {
            let mut a = Plan::generate(workload, 7);
            let mut b = Plan::generate(workload, 7);
            let mut c = Plan::generate(workload, 8);
            let load = |p: &Plan| p.load.iter().map(|s| s.text.clone()).collect::<Vec<_>>();
            assert_eq!(load(&a), load(&b), "{workload:?} load");
            assert_ne!(load(&a), load(&c), "{workload:?} load varies with the seed");
            assert_eq!(
                a.load.len(),
                c.load.len(),
                "sizes do not depend on the seed"
            );
            let (ta, tb) = (texts(&mut a.stream, 300), texts(&mut b.stream, 300));
            assert_eq!(ta, tb, "{workload:?} stream");
            assert_ne!(ta, texts(&mut c.stream, 300));
        }
    }

    #[test]
    fn load_sizes_are_the_documented_ones() {
        let sizes: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| Plan::generate(*w, 1).load.len())
            .collect();
        assert_eq!(
            sizes,
            vec![
                EMP_KEYS * EMP_VERSIONS,
                EMP_KEYS * EMP_VERSIONS,
                FAC_KEYS * FAC_VERSIONS,
                4 * MIX_KEYS
            ]
        );
    }

    #[test]
    fn asof_sweep_names_sixteen_times_the_cache() {
        let mut plan = Plan::generate(Workload::AsofSweep, 3);
        let mut instants = HashSet::new();
        for _ in 0..4_000 {
            let text = plan.stream.next_stmt().text;
            instants.insert(text.split(" as of ").nth(1).unwrap().to_string());
        }
        assert!(
            instants.len() >= SWEEP_INSTANTS,
            "{} instants",
            instants.len()
        );
    }

    #[test]
    fn taxonomy_mix_keeps_its_write_share_and_statement_kinds() {
        let mut plan = Plan::generate(Workload::TaxonomyMix, 5);
        let stmts: Vec<Stmt> = (0..4_000).map(|_| plan.stream.next_stmt()).collect();
        let writes = stmts.iter().filter(|s| s.is_write).count();
        assert!((2_200..2_600).contains(&writes), "{writes} writes of 4000");
        for kind in ["append to", "replace ", "delete ", "retrieve "] {
            assert!(stmts.iter().any(|s| s.text.starts_with(kind)), "{kind}");
        }
        assert_eq!(MIX_STATEMENTS / CHECKPOINT_EVERY, 8, "checkpoint positions");
    }

    #[test]
    fn parse_table_reads_the_cli_rendering() {
        let body = "name   | salary || valid (from) | valid (to) | tx (start) | tx (end)\n\
                    -------+--------++--------------+------------+------------+---------\n\
                    k00093 | 1094   || 01/01/71     | ∞          | 12/09/80   | 08/16/81\n\
                    k00093 | 1093   || 01/01/70     | 01/01/71   | 12/09/80   | ∞\n\
                    (2 rows)\n";
        let rows = parse_table(body, 4).unwrap();
        assert_eq!(
            rows,
            vec![
                vec!["k00093", "1093", "01/01/70", "01/01/71"],
                vec!["k00093", "1094", "01/01/71", "∞"],
            ]
        );
        assert!(
            parse_table("name\n----\n(1 row)\n", 1).is_err(),
            "count mismatch"
        );
        assert_eq!(parse_table("name\n----\n(0 rows)\n", 1).unwrap().len(), 0);
    }

    #[test]
    fn expectations_reject_wrong_answers() {
        let exact = Expect::Exact("replaced 1 row(s)\n".into());
        assert!(exact.check(true, "replaced 1 row(s)\n").is_ok());
        assert!(exact.check(true, "replaced 2 row(s)\n").is_err());
        assert!(exact.check(false, "replaced 1 row(s)\n").is_err());
        let rows = Expect::Rows {
            rows: vec![vec!["k1".into(), "5".into()]],
            cols: 2,
        };
        assert!(rows.check(true, "a | b\n--+--\nk1 | 5\n(1 row)\n").is_ok());
        assert!(rows.check(true, "a | b\n--+--\nk1 | 6\n(1 row)\n").is_err());
        assert!(rows.check(true, "a | b\n--+--\n(0 rows)\n").is_err());
    }
}
