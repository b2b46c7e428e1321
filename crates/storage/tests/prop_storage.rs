//! Property tests for the storage layer: codec fuzz round-trips,
//! interval tree vs linear scan, WAL record round-trips,
//! the storage-backed table vs the reference bitemporal store, and the
//! frozen-segment format (delta codec and period coalescing round-trips,
//! frozen table vs pure-heap table).

use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::prelude::*;
use chronos_core::schema::faculty_schema;
use chronos_core::timepoint::TimePoint;
use chronos_storage::codec;
use chronos_storage::index::IntervalTree;
use chronos_storage::table::{Read, StoredBitemporalTable, Superseded, TxSelect};
use chronos_storage::wal::{decode_record, encode_record, Wal, WalRecord};
use chronos_storage::StorageError;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-zA-Z ]{0,12}".prop_map(Value::str),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        (-100_000i64..100_000).prop_map(|t| Value::Date(Chronon::new(t))),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), 0..5).prop_map(Tuple::new)
}

/// A few strings, so that a frame's tuples repeat them.
const POOL: [&str; 4] = ["Merrie", "full", "", "d07"];

/// Values mostly drawn from [`POOL`]: string references occur.
fn arb_pooled_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..POOL.len()).prop_map(|i| Value::str(POOL[i])),
        1 => arb_value(),
    ]
}

fn arb_pooled_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_pooled_value(), 0..5).prop_map(Tuple::new)
}

fn arb_selector() -> impl Strategy<Value = RowSelector> {
    (arb_pooled_tuple(), prop::option::of(arb_validity())).prop_map(|(tuple, validity)| {
        match validity {
            Some(v) => RowSelector::exact(tuple, v),
            None => RowSelector::tuple(tuple),
        }
    })
}

/// One op of each kind, over pooled tuples.
fn arb_op() -> impl Strategy<Value = HistoricalOp> {
    prop_oneof![
        (arb_pooled_tuple(), arb_validity()).prop_map(|(t, v)| HistoricalOp::insert(t, v)),
        arb_selector().prop_map(HistoricalOp::remove),
        (arb_selector(), arb_validity()).prop_map(|(s, v)| HistoricalOp::set_validity(s, v)),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        any::<u32>(),
        -10_000i64..10_000,
        prop::collection::vec(arb_op(), 0..6),
    )
        .prop_map(|(rel_id, tx, ops)| WalRecord {
            rel_id,
            tx_time: Chronon::new(tx),
            ops,
        })
}

fn arb_validity() -> impl Strategy<Value = Validity> {
    prop_oneof![
        (-1000i64..1000, 1i64..500).prop_map(|(a, len)| Validity::Interval(
            Period::new(Chronon::new(a), Chronon::new(a + len)).unwrap()
        )),
        (-1000i64..1000).prop_map(|a| Validity::Interval(Period::from_start(Chronon::new(a)))),
        (-1000i64..1000).prop_map(|a| Validity::Event(Chronon::new(a))),
    ]
}

proptest! {
    #[test]
    fn value_codec_round_trips(v in arb_value()) {
        let mut buf = Vec::new();
        codec::put_value(&mut buf, &v);
        let mut r = codec::Reader::new(&buf);
        prop_assert_eq!(codec::get_value(&mut r).unwrap(), v);
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn tuple_codec_round_trips(t in arb_tuple()) {
        let mut buf = Vec::new();
        codec::put_tuple(&mut buf, &t);
        let mut r = codec::Reader::new(&buf);
        prop_assert_eq!(codec::get_tuple(&mut r).unwrap(), t);
    }

    /// Garbage, and frames that are truncated, have a byte flipped or
    /// are spliced from two encodings, decode to an error or to some
    /// record — never a panic — and a truncated frame always to an error.
    #[test]
    fn decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        one in arb_record(),
        two in arb_record(),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let mut r = codec::Reader::new(&bytes);
        let _ = codec::get_tuple(&mut r); // must not panic
        let mut r = codec::Reader::new(&bytes);
        let _ = codec::StrDecoder::default().get_tuple(&mut r);
        let mut r = codec::Reader::new(&bytes);
        let _ = codec::get_validity(&mut r);
        let _ = decode_record(&bytes);
        let (one, two) = (encode_record(&one), encode_record(&two));
        let truncated = &one[..cut.index(one.len())];
        prop_assert!(decode_record(truncated).is_err(), "cut at {}", truncated.len());
        let mut flipped = one.clone();
        flipped[at.index(one.len())] ^= 1 << bit;
        let _ = decode_record(&flipped);
        let spliced = [&one[..at.index(one.len())], &two[cut.index(two.len())..]].concat();
        let _ = decode_record(&spliced);
    }

    #[test]
    fn wal_record_round_trips(rec in arb_record()) {
        prop_assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
    }

    #[test]
    fn interval_tree_matches_scan(
        entries in prop::collection::vec((0i64..300, 1i64..60), 1..150),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        probes in prop::collection::vec(0i64..360, 1..20),
    ) {
        let mut tree = IntervalTree::new();
        let mut shadow: Vec<(Period, usize)> = Vec::new();
        for (i, (a, len)) in entries.iter().enumerate() {
            let p = Period::new(Chronon::new(*a), Chronon::new(a + len)).unwrap();
            tree.insert(p, i);
            shadow.push((p, i));
        }
        for idx in removals {
            if shadow.is_empty() { break; }
            let (p, v) = shadow.swap_remove(idx.index(shadow.len()));
            prop_assert!(tree.remove(p, &v));
        }
        prop_assert_eq!(tree.len(), shadow.len());
        for probe in probes {
            let t = TimePoint::at(Chronon::new(probe));
            let mut got: Vec<usize> = tree.stab_values(t).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = shadow
                .iter()
                .filter(|(p, _)| p.contains_point(t))
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "probe {}", probe);
        }
    }
}

// ---------------------------------------------------------------------
// The log against a list of frames
// ---------------------------------------------------------------------

/// One call on a [`Wal`] handle.
#[derive(Clone, Debug)]
enum LogCall {
    Stage(WalRecord),
    Sync,
    /// Back to a frame boundary, picked among the frames the log holds.
    TruncateTo(prop::sample::Index),
    Reset,
}

fn arb_log_calls() -> impl Strategy<Value = Vec<LogCall>> {
    // Up to 24 ops make frames from a few bytes to past `RESERVE`.
    let record =
        (any::<u32>(), prop::collection::vec(arb_op(), 0..24)).prop_map(|(rel_id, ops)| {
            WalRecord {
                rel_id,
                tx_time: Chronon::new(i64::from(rel_id % 1000)),
                ops,
            }
        });
    let call = prop_oneof![
        6 => record.prop_map(LogCall::Stage),
        3 => Just(LogCall::Sync),
        1 => any::<prop::sample::Index>().prop_map(LogCall::TruncateTo),
        1 => Just(LogCall::Reset),
    ];
    prop::collection::vec(call, 0..24)
}

proptest! {
    /// Whatever staging, syncing, truncating and resetting leaves, the
    /// log recovers exactly the frames a plain list says it holds, with
    /// nothing torn.  A power cut that keeps the synced prefix and cuts
    /// off or zeroes the rest of the file from any byte on recovers a
    /// prefix of those frames holding every one that ends before the cut.
    #[test]
    fn the_log_recovers_what_a_list_of_frames_holds(
        calls in arb_log_calls(),
        at in any::<prop::sample::Index>(),
        zero in any::<bool>(),
    ) {
        let path = std::env::temp_dir().join(format!("chronos-prop-wal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        // (frame end, record), in log order.
        let mut model: Vec<(u64, WalRecord)> = Vec::new();
        for call in calls {
            match call {
                LogCall::Stage(rec) => {
                    wal.append_no_sync(&rec).unwrap();
                    model.push((wal.logical_len(), rec));
                }
                LogCall::Sync => wal.group_sync().unwrap(),
                LogCall::TruncateTo(i) => {
                    model.truncate(i.index(model.len() + 1));
                    wal.truncate_to(model.last().map_or(0, |(end, _)| *end)).unwrap();
                }
                LogCall::Reset => {
                    model.clear();
                    wal.reset().unwrap();
                }
            }
        }
        let frames: Vec<WalRecord> = model.iter().map(|(_, rec)| rec.clone()).collect();
        let recovered = Wal::recover(&path).unwrap();
        prop_assert_eq!(&recovered.records, &frames);
        prop_assert_eq!(recovered.valid_len, wal.logical_len());
        prop_assert_eq!(recovered.torn_bytes, 0);

        let mut bytes = std::fs::read(&path).unwrap();
        let from = wal.synced_len() as usize;
        let cut = from + at.index(bytes.len() - from + 1);
        if zero {
            bytes[cut..].fill(0);
        } else {
            bytes.truncate(cut);
        }
        std::fs::write(&path, &bytes).unwrap();
        let kept = Wal::recover(&path).unwrap().records;
        let whole = model.iter().filter(|(end, _)| *end <= cut as u64).count();
        prop_assert!(
            kept.len() >= whole && frames.starts_with(&kept),
            "{} of {} frames kept after a cut at {} ({} end before it)",
            kept.len(), frames.len(), cut, whole
        );
        std::fs::remove_file(&path).unwrap();
    }
}

// ---------------------------------------------------------------------
// Differential: stored table vs reference bitemporal store
// ---------------------------------------------------------------------

const NAMES: [&str; 4] = ["Merrie", "Tom", "Mike", "Ilsoo"];
const RANKS: [&str; 3] = ["assistant", "associate", "full"];

#[derive(Clone, Debug)]
enum ScriptOp {
    Insert(usize, usize, i64, Option<i64>),
    RemoveNth(usize),
    RestampNth(usize, i64, Option<i64>),
}

fn arb_script() -> impl Strategy<Value = Vec<Vec<ScriptOp>>> {
    let op = prop_oneof![
        4 => (0..NAMES.len(), 0..RANKS.len(), 0i64..300, prop::option::of(1i64..200))
            .prop_map(|(n, r, a, len)| ScriptOp::Insert(n, r, a, len)),
        2 => (0usize..32).prop_map(ScriptOp::RemoveNth),
        2 => ((0usize..32), 0i64..300, prop::option::of(1i64..200))
            .prop_map(|(i, a, len)| ScriptOp::RestampNth(i, a, len)),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..4), 1..10)
}

fn validity(a: i64, len: Option<i64>) -> Validity {
    Validity::Interval(match len {
        Some(l) => Period::new(Chronon::new(a), Chronon::new(a + l)).unwrap(),
        None => Period::from_start(Chronon::new(a)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stored_table_equivalent_to_reference(script in arb_script()) {
        let schema = faculty_schema();
        let mut stored = StoredBitemporalTable::in_memory(schema.clone(), TemporalSignature::Interval);
        let mut reference = BitemporalTable::new(schema.clone(), TemporalSignature::Interval);
        let mut shadow = HistoricalRelation::new(schema, TemporalSignature::Interval);

        let mut tx_time = Chronon::new(1000);
        let mut commits = Vec::new();
        for tx in &script {
            let mut ops = Vec::new();
            for s in tx {
                match s {
                    ScriptOp::Insert(n, r, a, len) => {
                        let op = HistoricalOp::insert(tuple([NAMES[*n], RANKS[*r]]), validity(*a, *len));
                        if shadow.apply(std::slice::from_ref(&op)).is_ok() {
                            ops.push(op);
                        }
                    }
                    ScriptOp::RemoveNth(i) => {
                        let rows = shadow.rows();
                        if rows.is_empty() { continue; }
                        let row = &rows[i % rows.len()];
                        let op = HistoricalOp::remove(RowSelector::exact(row.tuple.clone(), row.validity));
                        shadow.apply(std::slice::from_ref(&op)).unwrap();
                        ops.push(op);
                    }
                    ScriptOp::RestampNth(i, a, len) => {
                        let rows = shadow.rows();
                        if rows.is_empty() { continue; }
                        let row = &rows[i % rows.len()];
                        let op = HistoricalOp::set_validity(
                            RowSelector::exact(row.tuple.clone(), row.validity),
                            validity(*a, *len),
                        );
                        if shadow.apply(std::slice::from_ref(&op)).is_ok() {
                            ops.push(op);
                        }
                    }
                }
            }
            if ops.is_empty() { continue; }
            stored.try_commit(tx_time, &ops).expect("valid ops");
            reference.commit(tx_time, &ops).expect("valid ops");
            commits.push(tx_time);
            tx_time = tx_time + 3;
        }

        prop_assert_eq!(stored.current(), reference.current());
        // Row for row in the order the shadow — driven by the same ops,
        // outside the table — keeps.
        prop_assert_eq!(stored.current().rows().to_vec(), shadow.rows().to_vec());
        prop_assert_eq!(stored.stored_tuples(), reference.stored_tuples());
        for &ct in &commits {
            for probe in [ct - 1, ct, ct + 1] {
                prop_assert_eq!(stored.rollback(probe), reference.rollback(probe), "at {}", probe);
            }
        }
        // Indexed bitemporal point queries agree with brute force over
        // the reference rows.
        for (v, a) in [(50i64, 1001i64), (150, 1010), (290, 1030)] {
            let (v, a) = (Chronon::new(v), Chronon::new(a));
            let mut got: Vec<Tuple> = stored
                .valid_at_as_of(v, a)
                .unwrap()
                .into_iter()
                .map(|r| r.tuple)
                .collect();
            got.sort();
            let mut want: Vec<Tuple> = reference
                .rows()
                .iter()
                .filter(|r| r.tx.contains(a) && r.validity.valid_at(v))
                .map(|r| r.tuple.clone())
                .collect();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}

/// An image is untrusted: a current row no commit could have stored
/// is refused with what the reference says to inserting it.
#[test]
fn from_rows_refuses_current_rows_the_reference_would_not_insert() {
    let tx = Period::from_start(Chronon::new(10));
    let standing = BitemporalRow {
        tuple: tuple(["Tom", "full"]),
        validity: Period::from_start(Chronon::new(3)).into(),
        tx,
    };
    let event = Validity::from(Chronon::new(3));
    let empty = Period::new(Chronon::new(3), Chronon::new(3)).unwrap();
    for (tuple, validity) in [
        (standing.tuple.clone(), standing.validity),
        (tuple(["Zed", "full"]), event),
        (tuple(["Zed", "full"]), empty.into()),
        (tuple(["Zed"]), standing.validity),
    ] {
        let mut oracle = HistoricalRelation::new(faculty_schema(), TemporalSignature::Interval);
        oracle
            .insert(standing.tuple.clone(), standing.validity)
            .unwrap();
        let expected = oracle.insert(tuple.clone(), validity).unwrap_err();
        let bad = BitemporalRow {
            tuple,
            validity,
            tx,
        };
        for superseded in [Superseded::Closed, Superseded::Dropped] {
            let err = StoredBitemporalTable::from_rows(
                faculty_schema(),
                TemporalSignature::Interval,
                superseded,
                vec![standing.clone(), bad.clone()],
                Some(Chronon::new(10)),
                2,
            )
            .map(|_| ())
            .unwrap_err();
            assert!(
                matches!(&err, StorageError::Core(e) if *e == expected),
                "{err} ≠ {expected}"
            );
        }
    }
}

/// The frozen benchmark compiles against two names the table has
/// outgrown; they answer as what they now stand for.
#[test]
fn the_names_the_frozen_benchmark_calls_still_answer() {
    let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
    let merrie = tuple(["Merrie", "associate"]);
    t.begin()
        .insert(merrie.clone(), Period::from_start(Chronon::new(5)))
        .commit(Chronon::new(10))
        .unwrap();
    t.begin()
        .remove(RowSelector::tuple(merrie))
        .insert(
            tuple(["Merrie", "full"]),
            Period::from_start(Chronon::new(15)),
        )
        .commit(Chronon::new(20))
        .unwrap();
    assert_eq!(t.current_ref().rows(), t.current().rows());
    for at in [5, 10, 15, 20, 25].map(Chronon::new) {
        assert_eq!(
            t.try_rollback_checkpointed(at).unwrap(),
            t.try_rollback(at).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Differential: frozen segments vs the pure heap
// ---------------------------------------------------------------------

use chronos_core::relation::temporal::BitemporalRow;
use chronos_storage::segment::{self, Segment};

/// Unique temp path per proptest case.
fn unique_seg_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "chronos-prop-{tag}-{}-{}.seg",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Arbitrary frozen version chains: per key, versions with strictly
/// advancing, closed transaction periods — `abut == true` makes the
/// next period start where the previous ended (the coalesce-encoded
/// fast path), `false` leaves a gap (the full-period fallback).
fn arb_frozen_chains() -> impl Strategy<Value = Vec<BitemporalRow>> {
    let version = (0..RANKS.len(), arb_validity(), 1i64..40, any::<bool>());
    prop::collection::vec((0..NAMES.len(), prop::collection::vec(version, 1..8)), 1..5).prop_map(
        |keys| {
            let mut rows = Vec::new();
            for (ki, (n, versions)) in keys.into_iter().enumerate() {
                // Distinct keys per chain: suffix the name with the index.
                let name = format!("{}{}", NAMES[n], ki);
                let mut start = 10;
                for (r, validity, len, abut) in versions {
                    let end = start + len;
                    rows.push(BitemporalRow {
                        tuple: tuple([name.as_str(), RANKS[r]]),
                        validity,
                        tx: Period::new(Chronon::new(start), Chronon::new(end)).unwrap(),
                    });
                    start = if abut { end } else { end + 3 };
                }
            }
            rows
        },
    )
}

fn row_key(r: &BitemporalRow) -> (String, TimePoint, TimePoint) {
    (format!("{:?}", r.tuple), r.tx.start(), r.tx.end())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode = id for the segment's delta codec and period
    /// coalescing, over arbitrary version chains.
    #[test]
    fn segment_codec_round_trips(rows in arb_frozen_chains()) {
        let path = unique_seg_path("codec");
        segment::write_segment(&path, 42, &rows).unwrap();
        let seg = Segment::open(&path).unwrap();
        prop_assert_eq!(seg.versions() as usize, rows.len());
        let mut got = seg.rows().unwrap();
        got.sort_by_key(row_key);
        let mut want = rows.clone();
        want.sort_by_key(row_key);
        prop_assert_eq!(got, want);
        // The image also passes the doctor's structural validation.
        let bytes = std::fs::read(&path).unwrap();
        prop_assert!(segment::check_bytes(&bytes).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}

/// Commits `script` to `t`, each transaction's ops built from the
/// table's own current state, and returns the commit times it
/// accepted; a transaction the table refuses is skipped.
fn drive_script(t: &mut StoredBitemporalTable, script: &[Vec<ScriptOp>]) -> Vec<Chronon> {
    let mut tx_time = Chronon::new(1000);
    let mut commits = Vec::new();
    for tx in script {
        let current = t.current();
        let rows = current.rows();
        let ops: Vec<HistoricalOp> = tx
            .iter()
            .filter_map(|s| match s {
                ScriptOp::Insert(n, r, a, len) => Some(HistoricalOp::insert(
                    tuple([NAMES[*n], RANKS[*r]]),
                    validity(*a, *len),
                )),
                ScriptOp::RemoveNth(i) => rows.get(i % rows.len().max(1)).map(|row| {
                    HistoricalOp::remove(RowSelector::exact(row.tuple.clone(), row.validity))
                }),
                ScriptOp::RestampNth(i, a, len) => rows.get(i % rows.len().max(1)).map(|row| {
                    HistoricalOp::set_validity(
                        RowSelector::exact(row.tuple.clone(), row.validity),
                        validity(*a, *len),
                    )
                }),
            })
            .collect();
        if ops.is_empty() {
            continue;
        }
        if t.try_commit(tx_time, &ops).is_ok() {
            commits.push(tx_time);
        }
        tx_time = tx_time + 3;
    }
    commits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A frozen table answers every query byte-identically to the
    /// pure-heap table driven by the same script.
    #[test]
    fn frozen_table_equivalent_to_heap_table(script in arb_script()) {
        let schema = faculty_schema();
        let mut heap_only =
            StoredBitemporalTable::in_memory(schema.clone(), TemporalSignature::Interval);
        let mut frozen = StoredBitemporalTable::in_memory(schema, TemporalSignature::Interval);
        let commits = drive_script(&mut heap_only, &script);
        prop_assert_eq!(drive_script(&mut frozen, &script), commits, "tables in lockstep");

        let path = unique_seg_path("diff");
        let report = frozen.freeze_into(&path).unwrap();
        prop_assert_eq!(
            report.as_ref().map(|r| r.versions as usize).unwrap_or(0),
            heap_only.frozen_version_count()
        );

        // Full scans are byte-identical as multisets.
        let mut a = heap_only.scan_rows().unwrap();
        let mut b = frozen.scan_rows().unwrap();
        a.sort_by_key(row_key);
        b.sort_by_key(row_key);
        prop_assert_eq!(a, b);

        // Rollbacks, as-of scans and point lookups agree at every
        // commit boundary.
        for &ct in &commits {
            for probe in [ct - 1, ct, ct + 1] {
                prop_assert_eq!(
                    heap_only.rollback(probe),
                    frozen.rollback(probe),
                    "rollback at {}", probe
                );
                let at = Read::tx(TxSelect::At(probe));
                let mut x = heap_only.read(&at).unwrap();
                let mut y = frozen.read(&at).unwrap();
                x.sort_by_key(row_key);
                y.sort_by_key(row_key);
                prop_assert_eq!(x, y, "read at {}", probe);
                for name in NAMES {
                    let k = Value::str(name);
                    let mut x = heap_only.lookup_key_as_of(&k, probe).unwrap();
                    let mut y = frozen.lookup_key_as_of(&k, probe).unwrap();
                    x.sort_by_key(row_key);
                    y.sort_by_key(row_key);
                    prop_assert_eq!(x, y, "lookup({}) at {}", name, probe);
                }
            }
        }
        // Keyed reads over a window agree between the twins too.
        let windows = commits.windows(2).map(|w| (w[0], w[1]));
        for (from, to) in windows.chain(commits.first().map(|&c| (c - 1, c + 100))) {
            let window = Period::new(from, to).unwrap();
            for name in NAMES {
                let k = Value::str(name);
                let during = Read {
                    key: Some(&k),
                    ..Read::tx(TxSelect::During(window))
                };
                let mut x = heap_only.read(&during).unwrap();
                let mut y = frozen.read(&during).unwrap();
                x.sort_by_key(row_key);
                y.sort_by_key(row_key);
                prop_assert_eq!(x, y, "lookup_during({}) over {}", name, window);
            }
        }
        if report.is_some() {
            std::fs::remove_file(&path).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Every read vs a filtered full scan
// ---------------------------------------------------------------------

/// A valid-time restriction of a read, with its reference predicate.
#[derive(Clone, Copy, Debug)]
enum ValidProbe {
    None,
    At(Chronon),
    Over(Period),
}

impl ValidProbe {
    fn period(self) -> Option<Period> {
        match self {
            ValidProbe::None => None,
            ValidProbe::At(t) => Some(Period::instant(t)),
            ValidProbe::Over(q) => Some(q),
        }
    }

    fn admits(self, validity: Validity) -> bool {
        match self {
            ValidProbe::None => true,
            ValidProbe::At(t) => validity.valid_at(t),
            ValidProbe::Over(q) => validity.period().overlaps(q),
        }
    }
}

fn tx_admits(tx: TxSelect, row: &BitemporalRow) -> bool {
    match tx {
        TxSelect::Any => true,
        TxSelect::Open => row.is_current(),
        TxSelect::At(t) => row.tx.contains(t),
        TxSelect::During(window) => row.tx.overlaps(window),
    }
}

/// Every read — each transaction-time selection, with no key, a key
/// the scripts write and one they never do, and with no valid-time
/// restriction, an instant or a window — answers exactly what a full
/// scan filtered by the reference predicates does, in the scan's order.
fn assert_reads_match_filtered_scan(
    t: &StoredBitemporalTable,
    context: &str,
) -> Result<(), TestCaseError> {
    let rows = t.scan_rows().unwrap();
    let period = |from: i64, to: i64| Period::new(Chronon::new(from), Chronon::new(to)).unwrap();
    let mut txs = vec![TxSelect::Any, TxSelect::Open];
    txs.extend([999, 1000, 1004, 1013, 1030].map(|t| TxSelect::At(Chronon::new(t))));
    txs.extend(
        [(990, 1001), (1003, 1010), (1000, 1100)].map(|(a, b)| TxSelect::During(period(a, b))),
    );
    let mut valids = vec![ValidProbe::None];
    valids.extend(
        (-10i64..=520)
            .step_by(15)
            .map(|t| ValidProbe::At(Chronon::new(t))),
    );
    valids.extend(
        [
            (-50, 0),
            (0, 1),
            (40, 160),
            (150, 151),
            (299, 420),
            (480, 900),
        ]
        .map(|(a, b)| ValidProbe::Over(period(a, b))),
    );
    let (present, absent) = (Value::str(NAMES[0]), Value::str("Nobody"));
    for tx in txs {
        for key in [None, Some(&present), Some(&absent)] {
            for valid in &valids {
                let expected: Vec<BitemporalRow> = rows
                    .iter()
                    .filter(|r| {
                        tx_admits(tx, r)
                            && key.is_none_or(|k| r.tuple.get(0) == k)
                            && valid.admits(r.validity)
                    })
                    .cloned()
                    .collect();
                let read = Read {
                    tx,
                    key,
                    valid: valid.period(),
                };
                prop_assert_eq!(t.read(&read).unwrap(), expected, "{}: {:?}", context, read);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every read agrees with the full scan, row for row and in order,
    /// for both fates of a superseded version, after a freeze and after
    /// a restore from rows.
    #[test]
    fn current_slices_equal_a_filtered_scan(script in arb_script()) {
        for superseded in [Superseded::Closed, Superseded::Dropped] {
            let schema = faculty_schema();
            let mut t = StoredBitemporalTable::new(schema.clone(), TemporalSignature::Interval, superseded);
            drive_script(&mut t, &script);
            assert_reads_match_filtered_scan(&t, &format!("{superseded:?}"))?;

            let path = unique_seg_path("slices");
            let report = t.freeze_into(&path).unwrap();
            assert_reads_match_filtered_scan(&t, &format!("{superseded:?} frozen"))?;

            let restored = StoredBitemporalTable::from_rows(
                schema,
                TemporalSignature::Interval,
                superseded,
                t.scan_rows().unwrap(),
                t.last_commit(),
                t.transactions(),
            )
            .unwrap();
            assert_reads_match_filtered_scan(&restored, &format!("{superseded:?} restored"))?;
            prop_assert_eq!(restored.current(), t.current());
            if report.is_some() {
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
