//! The storage-backed temporal relation — and, restricted, every other
//! class.
//!
//! [`StoredBitemporalTable`] is the production implementation of the
//! paper's temporal relation, and the one store behind all four relation
//! classes: a static, rollback or historical relation is this table with
//! an axis pinned or hidden by the database layer and, for the classes
//! without transaction time, superseded versions dropped instead of
//! closed ([`Superseded`]).  Rows live in a slotted-page [`HeapFile`]
//! (the database logs every commit to its
//! [`Wal`](crate::wal::Wal) before the table applies it), and three
//! indexes — all in memory, all rebuilt from the rows — answer the
//! taxonomy's characteristic queries:
//!
//! * a **transaction-time interval tree** — the rollback operation
//!   (`as of t`) is a stabbing query;
//! * a **current-row index** — the rows of the current historical state
//!   in the order they were inserted, each with its validity and the
//!   heap record holding it, and a directory of them by key (first
//!   attribute).  It is the table's only copy of the current state:
//!   modifications address current rows by content, a `delete` or
//!   `replace` that names a key finds its rows here without reading a
//!   heap page, a scan of the latest state walks it in order, and a
//!   timeslice of the current state (`valid at t`) filters it by
//!   validity before decoding a row;
//! * a **key index** — every heap version by key, with its transaction
//!   period: a keyed read at a past coordinate decodes only that key's
//!   versions stored then (frozen segments have their own key directory).
//!
//! Every read goes through one function, [`StoredBitemporalTable::read`]:
//! a [`Read`] names a transaction-time selection (every version, the
//! open ones, those stored at an instant or over a window), optionally a
//! key and a valid-time window — rollback and timeslice as two
//! selections on one relation — and the table picks the index that
//! answers it.  Every answer lists frozen segments first, then the heap
//! in record order.
//!
//! Semantics are defined by `chronos-core`'s reference stores: every
//! commit is validated by exactly the reference transition rules — run on
//! the slice of the current historical state that carries a tuple the
//! transaction names, since no other row can change the verdict — so the
//! stored table is observationally equivalent to
//! [`SnapshotTemporal`](chronos_core::relation::temporal::SnapshotTemporal)
//! and [`BitemporalTable`](chronos_core::relation::temporal::BitemporalTable)
//! by construction — and differentially tested to be.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use chronos_core::value::Value;

use chronos_core::chronon::Chronon;
use chronos_core::error::CoreError;
use chronos_core::period::Period;
use chronos_core::relation::historical::HistoricalRelation;
use chronos_core::relation::temporal::{BitemporalRow, TemporalStore};
use chronos_core::relation::{HistoricalOp, Validity};
use chronos_core::schema::{Schema, TemporalSignature};
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_obs::{Disk, Recorder};

use crate::codec::{
    get_period, get_tuple, get_validity, put_period, put_tuple, put_validity, Reader,
};
use crate::error::{StorageError, StorageResult};
use crate::heap::HeapFile;
use crate::index::IntervalTree;
use crate::page::{RecordId, MAX_RECORD};
use crate::pager::{BufferPool, MemPager, PageStore};
use crate::segment::{self, FreezeReport, Segment};

fn encode_row(tuple: &Tuple, validity: Validity, tx: Period) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_tuple(&mut buf, tuple);
    put_validity(&mut buf, validity);
    put_period(&mut buf, tx);
    buf
}

fn decode_row(bytes: &[u8]) -> StorageResult<BitemporalRow> {
    let mut r = Reader::new(bytes);
    let tuple = get_tuple(&mut r)?;
    let validity = get_validity(&mut r)?;
    let tx = get_period(&mut r)?;
    if !r.is_exhausted() {
        return Err(StorageError::Corrupt("trailing bytes after row".into()));
    }
    Ok(BitemporalRow {
        tuple,
        validity,
        tx,
    })
}

/// One reference transition of a historical state.
fn apply_op(state: &mut HistoricalRelation, op: &HistoricalOp) -> chronos_core::CoreResult<()> {
    match op {
        HistoricalOp::Insert { tuple, validity } => state.insert(tuple.clone(), *validity),
        HistoricalOp::Remove { selector } => state.remove(selector).map(drop),
        HistoricalOp::SetValidity { selector, validity } => {
            state.set_validity(selector, *validity).map(drop)
        }
    }
}

/// Physical storage statistics for one table, measured by walking the
/// heap (see [`StoredBitemporalTable::physical_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhysicalStats {
    /// Heap pages allocated.
    pub pages: u32,
    /// Pages × 8 KiB: what the heap costs on disk (or in the pager).
    pub bytes_on_disk: u64,
    /// Live record count — every stored version of every row.
    pub versions: u64,
    /// Bytes of live record payload across all pages.
    pub occupied_bytes: u64,
    /// Payload bytes per 1000 bytes on disk (page occupancy, permille).
    pub occupancy_x1000: u64,
    /// `bytes_on_disk / versions`: the all-in physical cost of storing
    /// one version.
    pub bytes_per_version: u64,
    /// Measured version duplication, ×1000.  Each version is priced at
    /// (its encoded length − bytes shared with the previous version of
    /// the same key), where *shared* is the common prefix plus common
    /// suffix — a cheap stand-in for a delta encoding.  The factor is
    /// `occupied_bytes × 1000 / Σ delta`: 1000 means versions share
    /// nothing; 3000 means two of every three stored bytes repeat the
    /// previous version — the "excessive duplication" the paper warns
    /// rollback stores pay for.
    pub dup_factor_x1000: u64,
}

/// Bytes a prefix/suffix delta encoding of `b` against `a` would not
/// need to store: the longest common prefix plus the longest common
/// suffix of the remainder, capped at the shorter length.
pub(crate) fn shared_bytes(a: &[u8], b: &[u8]) -> usize {
    let max = a.len().min(b.len());
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
        .min(max - prefix);
    prefix + suffix
}

/// What a table does with a version once a later commit supersedes it.
/// The relation class decides: a class with transaction time keeps the
/// version with its period closed (append-only, paper §4.2/§4.4); a
/// static or historical relation drops it physically — "forgotten
/// completely" (§4.1), no memory of corrections (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Superseded {
    /// The version stays, its transaction period closed at the commit.
    Closed,
    /// The version is deleted from the heap and its indexes.
    Dropped,
}

/// One row of the current historical state as the current-row index
/// holds it: its content and the heap record that stores it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CurrentEntry {
    /// The explicit attribute values.
    pub tuple: Tuple,
    /// When the information is true in reality.
    pub validity: Validity,
    /// The heap record holding the (open) version.
    pub rid: RecordId,
}

/// A transaction [`StoredBitemporalTable::validate`] refuses.
#[derive(Debug)]
pub struct Refusal {
    /// The position of the op that was refused; `None` when it is the
    /// commit time that does not advance the clock.
    pub op: Option<usize>,
    /// Why.
    pub error: StorageError,
}

impl From<Refusal> for StorageError {
    fn from(refusal: Refusal) -> StorageError {
        refusal.error
    }
}

/// The order [`StoredBitemporalTable::current_entries`] lists rows in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CurrentOrder {
    /// The order the reference [`HistoricalRelation`] keeps: by
    /// insertion, a corrected row staying where it was.
    Reference,
    /// The order [`scan_rows`](StoredBitemporalTable::scan_rows) meets
    /// them on the heap.
    Heap,
}

/// Which stored versions a [`Read`] selects by transaction time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxSelect {
    /// Every version, closed or open.
    Any,
    /// The open versions: the current state.
    Open,
    /// The versions stored as of `t` — the rollback operation (`as of t`).
    At(Chronon),
    /// The versions whose transaction period overlaps the window
    /// (`as of … through …`).
    During(Period),
}

impl TxSelect {
    /// True iff a version stored over `tx` is selected.
    fn admits(self, tx: Period) -> bool {
        match self {
            TxSelect::Any => true,
            TxSelect::Open => tx.end() == TimePoint::PlusInfinity,
            TxSelect::At(t) => tx.contains(t),
            TxSelect::During(window) => tx.overlaps(window),
        }
    }

    /// False when no version in `seg` can be selected.  A segment holds
    /// only closed versions.
    fn may_hold(self, seg: &Segment) -> bool {
        match self {
            TxSelect::Any => true,
            TxSelect::Open => false,
            TxSelect::At(t) => seg.covers(t),
            TxSelect::During(window) => seg.covers_window(window),
        }
    }
}

/// One read of a [`StoredBitemporalTable`]: a selection on each time
/// axis of the bitemporal relation, and optionally a key.
#[derive(Clone, Copy, Debug)]
pub struct Read<'a> {
    /// Which versions, by transaction time.
    pub tx: TxSelect,
    /// Only the versions whose first attribute is this key.
    pub key: Option<&'a Value>,
    /// Only the versions whose valid period overlaps this one; the
    /// timeslice `valid at t` is [`Period::instant`]`(t)`.
    pub valid: Option<Period>,
}

impl Read<'_> {
    /// Every version `tx` selects: any key, any validity.
    pub fn tx(tx: TxSelect) -> Self {
        Read {
            tx,
            key: None,
            valid: None,
        }
    }

    fn admits_validity(&self, validity: Validity) -> bool {
        self.valid
            .is_none_or(|valid| validity.period().overlaps(valid))
    }

    /// True iff the read selects `row` (its key already matched).
    fn admits(&self, row: &BitemporalRow) -> bool {
        self.tx.admits(row.tx) && self.admits_validity(row.validity)
    }
}

/// A durable, index-accelerated temporal relation.
pub struct StoredBitemporalTable<S: PageStore = MemPager> {
    schema: Schema,
    signature: TemporalSignature,
    superseded: Superseded,
    rel_id: u32,
    heap: HeapFile<S>,
    /// The current historical state, each row under the sequence number
    /// of its insertion.  A validity correction restamps in place, so
    /// ascending sequence is the reference [`HistoricalRelation`]'s order.
    current: BTreeMap<u64, CurrentEntry>,
    /// The sequence numbers of the current rows by key (first
    /// attribute), ascending.
    current_index: HashMap<Value, Vec<u64>>,
    /// The sequence number the next inserted row takes.
    next_seq: u64,
    /// Transaction-time periods of every row.
    tx_index: IntervalTree<RecordId>,
    /// Every heap version by key (first attribute): its transaction
    /// period and record, kept in step with `tx_index`.
    versions: HashMap<Value, Vec<(Period, RecordId)>>,
    last_commit: Option<Chronon>,
    transactions: usize,
    /// Frozen history: immutable, delta-encoded, mmap-backed segments
    /// holding versions whose transaction period is wholly past.  The
    /// heap keeps only the mutable tail; reads merge both.  Segments
    /// are a rebuildable cache — the WAL and checkpoint images alone
    /// reconstruct every row, so losing one is never lossy.
    segments: Vec<Arc<Segment>>,
    /// Engine instruments and trace spans; a disabled recorder until
    /// the owning `Database` (or a test) hands down a live one.
    recorder: Arc<Recorder>,
    /// The owning database's disk, whose fault plan may fail an apply's
    /// `table.commit.apply` and `heap.insert` steps; plain by default.
    disk: Disk,
    /// Heap writes made so far: an apply that fails compares it to tell
    /// a refused commit from a partly applied one.
    heap_writes: u64,
}

impl StoredBitemporalTable<MemPager> {
    /// Creates a fresh in-memory table (no durability) that keeps every
    /// superseded version — the temporal relation of the paper.
    pub fn in_memory(schema: Schema, signature: TemporalSignature) -> Self {
        Self::new(schema, signature, Superseded::Closed)
    }

    /// Creates a fresh in-memory table with the given fate for
    /// superseded versions.
    pub fn new(schema: Schema, signature: TemporalSignature, superseded: Superseded) -> Self {
        let heap = HeapFile::open(BufferPool::new(MemPager::new(), 64))
            .expect("empty in-memory heap opens");
        StoredBitemporalTable {
            schema,
            signature,
            superseded,
            rel_id: 0,
            heap,
            current: BTreeMap::new(),
            current_index: HashMap::new(),
            next_seq: 0,
            tx_index: IntervalTree::new(),
            versions: HashMap::new(),
            last_commit: None,
            transactions: 0,
            segments: Vec::new(),
            recorder: Arc::new(Recorder::disabled()),
            disk: Disk::default(),
            heap_writes: 0,
        }
    }

    /// Reconstructs a table from checkpointed rows, rebuilding the heap,
    /// the transaction-time tree, the key index and the current-row
    /// index.  The rows are untrusted: each must fit the schema and
    /// signature, start no later than `last_commit`, be current if the
    /// table keeps no closed versions, and — if current — be a row a
    /// commit could have inserted beside the current rows before it.
    pub fn from_rows(
        schema: Schema,
        signature: TemporalSignature,
        superseded: Superseded,
        rows: Vec<BitemporalRow>,
        last_commit: Option<Chronon>,
        transactions: usize,
    ) -> StorageResult<Self> {
        let mut table = StoredBitemporalTable::new(schema, signature, superseded);
        let horizon = last_commit.map_or(TimePoint::MINUS_INFINITY, TimePoint::at);
        for row in rows {
            if row.tx.start() > horizon {
                return Err(StorageError::Corrupt(format!(
                    "version of {} committed at {} after the last commit {horizon}",
                    row.tuple,
                    row.tx.start()
                )));
            }
            if row.is_current() {
                // The reference's verdict on inserting it: schema,
                // signature, a non-empty period, no duplicate.
                let insert = HistoricalOp::insert(row.tuple.clone(), row.validity);
                let mut peers = table.named_slice(std::slice::from_ref(&insert));
                apply_op(&mut peers, &insert).map_err(StorageError::Core)?;
            } else if superseded == Superseded::Dropped {
                return Err(StorageError::Corrupt(format!(
                    "closed version {} in a relation that keeps none",
                    row.tuple
                )));
            } else {
                table.schema.check(&row.tuple).map_err(StorageError::Core)?;
                row.validity
                    .check_signature(table.signature)
                    .map_err(StorageError::Core)?;
            }
            let rid = table
                .heap
                .insert(&encode_row(&row.tuple, row.validity, row.tx))?;
            table.tx_index.insert(row.tx, rid);
            table.index_version(&row.tuple, row.tx, rid);
            if row.is_current() {
                table.index_current(row.tuple, row.validity, rid);
            }
        }
        table.last_commit = last_commit;
        table.transactions = transactions;
        Ok(table)
    }
}

impl<S: PageStore> StoredBitemporalTable<S> {
    /// The relation id used in the shared log.
    pub fn rel_id(&self) -> u32 {
        self.rel_id
    }

    /// Routes this table's instruments (access-path spans, pager I/O)
    /// into `recorder`.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.heap.pool().set_recorder(Arc::clone(&recorder));
        self.recorder = recorder;
    }

    /// Gives the table its database's disk, whose fault plan may fail
    /// an apply's in-memory steps.
    pub fn set_disk(&mut self, disk: Disk) {
        self.disk = disk;
    }

    /// The one read of the table: every version `read` selects, frozen
    /// segments first (in attach order, each in chain order), then the
    /// heap in record order.  The path follows the request:
    ///
    /// * a key takes the key index — of the key's heap versions only
    ///   those whose transaction period qualifies are decoded — and each
    ///   segment's key directory;
    /// * otherwise `At` stabs, and `During` overlaps, the
    ///   transaction-time tree;
    /// * `Open` filters the current-row index by validity before a row
    ///   is decoded (segments hold closed versions only);
    /// * `Any` walks the heap.
    ///
    /// A segment whose transaction-time range or bloom filter rules the
    /// read out is skipped without decoding a row.  The span's `rows_in`
    /// counts the heap records decoded.
    pub fn read(&self, read: &Read) -> StorageResult<Vec<BitemporalRow>> {
        let span = self.recorder.span(match read.tx {
            TxSelect::Any => "storage/scan",
            TxSelect::Open => "storage/current",
            TxSelect::At(_) | TxSelect::During(_) => "storage/asof",
        });
        let mut rows = self.segment_rows(read)?;
        let mut rids = Vec::new();
        let heap_walk = match (read.key, read.tx) {
            (Some(key), tx) => {
                span.detail("key index");
                let versions = self.versions.get(key).into_iter().flatten();
                let stored = versions.filter(|(period, _)| tx.admits(*period));
                rids.extend(stored.map(|(_, rid)| *rid));
                false
            }
            (None, TxSelect::Any) => {
                span.detail("heap scan");
                true
            }
            (None, TxSelect::Open) => {
                span.detail("current-row map");
                let open = self.current.values();
                let valid = open.filter(|entry| read.admits_validity(entry.validity));
                rids.extend(valid.map(|entry| entry.rid));
                false
            }
            (None, TxSelect::At(t)) => {
                span.detail("tx-index stab");
                self.tx_index
                    .stab(TimePoint::at(t), |_, rid| rids.push(*rid));
                false
            }
            (None, TxSelect::During(window)) => {
                span.detail("tx-index overlap");
                self.tx_index.overlapping(window, |_, rid| rids.push(*rid));
                false
            }
        };
        let decoded = if heap_walk {
            rows.reserve(self.heap.len());
            let mut err = None;
            self.heap.scan(|_, bytes| match decode_row(bytes) {
                Ok(row) if read.admits(&row) => rows.push(row),
                Ok(_) => {}
                Err(e) => err = Some(e),
            })?;
            if let Some(e) = err {
                return Err(e);
            }
            let scanned = self.heap.len() as u64;
            self.recorder.count_n(|m| &m.heap_rows_scanned, scanned);
            scanned
        } else {
            self.recorder.count(|m| &m.index_probes);
            rids.sort_unstable();
            rows.reserve(rids.len());
            for &rid in &rids {
                let row = self.decode_at(rid)?;
                if read.admits(&row) {
                    rows.push(row);
                }
            }
            rids.len() as u64
        };
        span.rows_in(decoded);
        span.rows_out(rows.len() as u64);
        Ok(rows)
    }

    /// The segment rows `read` selects, in attach order: of each segment
    /// that may hold one, the key's chain or every chain.
    fn segment_rows(&self, read: &Read) -> StorageResult<Vec<BitemporalRow>> {
        let mut out = Vec::new();
        if self.segments.is_empty() {
            return Ok(out);
        }
        let key = read.key.map(segment::value_key_bytes);
        for seg in &self.segments {
            if !read.tx.may_hold(seg) || key.as_ref().is_some_and(|k| !seg.may_contain(k)) {
                self.recorder.count(|m| &m.segment_skips);
                continue;
            }
            let rows = match &key {
                None => seg.rows()?,
                Some(k) => match seg.find_chain(k) {
                    Some(idx) => seg.chain_rows(idx)?,
                    None => {
                        self.recorder.count(|m| &m.segment_bloom_fps);
                        continue;
                    }
                },
            };
            self.recorder.count(|m| &m.segment_hits);
            out.extend(rows.into_iter().filter(|row| read.admits(row)));
        }
        Ok(out)
    }

    /// Every stored version: [`read`](Self::read) of [`TxSelect::Any`].
    /// Kept as a name because the frozen benchmark calls it.
    #[doc(hidden)]
    pub fn scan_rows(&self) -> StorageResult<Vec<BitemporalRow>> {
        self.read(&Read::tx(TxSelect::Any))
    }

    /// The versions stored at `as_of` that are valid at `valid`.  Kept as
    /// a name because the frozen benchmark calls it.
    #[doc(hidden)]
    pub fn valid_at_as_of(
        &self,
        valid: Chronon,
        as_of: Chronon,
    ) -> StorageResult<Vec<BitemporalRow>> {
        let valid = Some(Period::instant(valid));
        self.read(&Read {
            valid,
            ..Read::tx(TxSelect::At(as_of))
        })
    }

    /// The versions of `key` stored at `as_of`.  Kept as a name because
    /// the frozen benchmark calls it.
    #[doc(hidden)]
    pub fn lookup_key_as_of(
        &self,
        key: &Value,
        as_of: Chronon,
    ) -> StorageResult<Vec<BitemporalRow>> {
        self.read(&Read {
            key: Some(key),
            ..Read::tx(TxSelect::At(as_of))
        })
    }

    /// Decodes the heap record at `rid` in place.
    fn decode_at(&self, rid: RecordId) -> StorageResult<BitemporalRow> {
        self.heap.with_record(rid, decode_row)?
    }

    /// Fallible rollback (the trait method panics on storage errors): the
    /// historical state rebuilt from the timestamps of the rows stored as
    /// of `t`, at the cost of that [`read`](Self::read).
    pub fn try_rollback(&self, t: Chronon) -> StorageResult<HistoricalRelation> {
        let span = self.recorder.span("storage/rollback");
        let mut out = HistoricalRelation::new(self.schema.clone(), self.signature);
        for row in self.read(&Read::tx(TxSelect::At(t)))? {
            out.insert(row.tuple, row.validity)
                .map_err(StorageError::Core)?;
        }
        span.rows_out(out.len() as u64);
        Ok(out)
    }

    /// [`try_rollback`](Self::try_rollback) under the name the frozen
    /// benchmark calls it by.
    #[doc(hidden)]
    pub fn try_rollback_checkpointed(&self, t: Chronon) -> StorageResult<HistoricalRelation> {
        self.try_rollback(t)
    }

    /// Heap pages backing the table.
    pub fn heap_pages(&self) -> u32 {
        self.heap.pages()
    }

    /// Walks the heap and measures the table's physical shape: pages,
    /// occupancy, bytes per version, and the duplication factor between
    /// consecutive versions of the same key (grouped by first attribute,
    /// ordered by transaction start).  One pass over the pages plus a
    /// sort — cheap enough for `analyze` and `sys$pages`.
    pub fn physical_stats(&self) -> StorageResult<PhysicalStats> {
        let mut versions: Vec<(Option<Value>, TimePoint, Vec<u8>)> =
            Vec::with_capacity(self.heap.len());
        let mut scan_err = None;
        self.heap.scan(|_, data| match decode_row(data) {
            Ok(row) => {
                let key = row.tuple.try_get(0).cloned();
                versions.push((key, row.tx.start(), data.to_vec()));
            }
            Err(e) => scan_err = Some(e),
        })?;
        if let Some(e) = scan_err {
            return Err(e);
        }
        versions.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let occupied: u64 = versions.iter().map(|v| v.2.len() as u64).sum();
        let mut delta = 0u64;
        for (i, (key, _, bytes)) in versions.iter().enumerate() {
            let prev = versions[..i].last().filter(|p| p.0 == *key);
            delta += match prev {
                Some(p) => (bytes.len() - shared_bytes(&p.2, bytes)) as u64,
                None => bytes.len() as u64,
            };
        }
        let pages = self.heap.pages();
        let bytes_on_disk = u64::from(pages) * crate::page::PAGE_SIZE as u64;
        let n = versions.len() as u64;
        Ok(PhysicalStats {
            pages,
            bytes_on_disk,
            versions: n,
            occupied_bytes: occupied,
            occupancy_x1000: (occupied * 1000).checked_div(bytes_on_disk).unwrap_or(0),
            bytes_per_version: bytes_on_disk.checked_div(n).unwrap_or(0),
            dup_factor_x1000: (occupied * 1000).checked_div(delta).unwrap_or(1000),
        })
    }

    /// [`TemporalStore::current`] under the name the frozen benchmark
    /// calls it by.
    #[doc(hidden)]
    pub fn current_ref(&self) -> HistoricalRelation {
        self.current()
    }

    /// The current rows in reference order, each with its stored
    /// transaction period.  Heap order stops being insertion order once
    /// deleted slots are reused, so this is the order-preserving image
    /// of a table that drops superseded versions.
    pub fn current_rows(&self) -> StorageResult<Vec<BitemporalRow>> {
        self.current
            .values()
            .map(|entry| self.decode_at(entry.rid))
            .collect()
    }

    /// The current rows with the heap record holding each, in `order`:
    /// all of them, or only those whose first attribute is `key`.
    /// Answered from memory — a keyed probe costs the key's rows, not
    /// the relation's, and neither reads a heap page.
    pub fn current_entries(&self, key: Option<&Value>, order: CurrentOrder) -> Vec<&CurrentEntry> {
        let mut entries: Vec<&CurrentEntry> = match key {
            Some(key) => self.keyed(key).map(|(_, entry)| entry).collect(),
            None => self.current.values().collect(),
        };
        if order == CurrentOrder::Heap {
            entries.sort_unstable_by_key(|e| e.rid);
        }
        entries
    }

    /// The current rows of `key` with their sequence numbers, ascending.
    fn keyed(&self, key: &Value) -> impl Iterator<Item = (u64, &CurrentEntry)> {
        let seqs = self.current_index.get(key).into_iter().flatten();
        seqs.map(|seq| (*seq, &self.current[seq]))
    }

    fn index_current(&mut self, tuple: Tuple, validity: Validity, rid: RecordId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.current_index
            .entry(tuple.get(0).clone())
            .or_default()
            .push(seq);
        let entry = CurrentEntry {
            tuple,
            validity,
            rid,
        };
        self.current.insert(seq, entry);
    }

    /// Validates a transaction through the reference semantics without
    /// modifying anything: `tx_time` must advance the commit clock and
    /// `ops` must be a legal transition of the current historical state.
    ///
    /// Every op names one tuple, and whether the reference accepts it —
    /// and what it says when it does not — depends only on the current
    /// rows carrying that tuple.  So the ops run through
    /// [`HistoricalRelation`]'s own transitions on just those rows: the
    /// verdict and the error text are the reference's by construction,
    /// at the cost of the rows named rather than of the relation.
    ///
    /// A version that could not be stored is refused here as well, so
    /// that a validated transaction has nothing left to fail on but I/O.
    pub fn validate(&self, tx_time: Chronon, ops: &[HistoricalOp]) -> Result<(), Refusal> {
        if let Some(last) = self.last_commit {
            if tx_time <= last {
                return Err(Refusal {
                    op: None,
                    error: StorageError::Core(CoreError::NonMonotonicCommit {
                        last: last.to_string(),
                        attempted: tx_time.to_string(),
                    }),
                });
            }
        }
        let mut slice = self.named_slice(ops);
        for (i, op) in ops.iter().enumerate() {
            let refused = |error| Refusal { op: Some(i), error };
            apply_op(&mut slice, op).map_err(|e| refused(StorageError::Core(e)))?;
            let (tuple, validity) = match op {
                HistoricalOp::Insert { tuple, validity } => (tuple, *validity),
                HistoricalOp::SetValidity { selector, validity } => (&selector.tuple, *validity),
                HistoricalOp::Remove { .. } => continue,
            };
            self.check_fits(tuple, validity, tx_time).map_err(refused)?;
        }
        Ok(())
    }

    /// Refuses a version no heap page could hold — now, or once it is
    /// superseded: a table that keeps closed versions rewrites the
    /// record with the end of its transaction period filled in, and the
    /// longest end is the last tick.
    fn check_fits(&self, tuple: &Tuple, validity: Validity, tx_time: Chronon) -> StorageResult<()> {
        let tx = match self.superseded {
            Superseded::Closed => Period::clamped(tx_time, Chronon::MAX),
            Superseded::Dropped => Period::from_start(tx_time),
        };
        let needed = encode_row(tuple, validity, tx).len();
        if needed > MAX_RECORD {
            return Err(StorageError::PageFull {
                needed,
                available: MAX_RECORD,
            });
        }
        Ok(())
    }

    /// The current rows carrying a tuple that `ops` name, as a historical
    /// relation of their own.
    fn named_slice(&self, ops: &[HistoricalOp]) -> HistoricalRelation {
        let mut slice = HistoricalRelation::new(self.schema.clone(), self.signature);
        let mut named: HashSet<&Tuple> = HashSet::with_capacity(ops.len());
        for op in ops {
            let tuple = match op {
                HistoricalOp::Insert { tuple, .. } => tuple,
                HistoricalOp::Remove { selector } | HistoricalOp::SetValidity { selector, .. } => {
                    &selector.tuple
                }
            };
            if !named.insert(tuple) {
                continue;
            }
            // A tuple the schema will refuse may not even have a key.
            let peers = tuple.try_get(0).into_iter().flat_map(|key| self.keyed(key));
            for (_, entry) in peers.filter(|(_, e)| e.tuple == *tuple) {
                slice
                    .insert(entry.tuple.clone(), entry.validity)
                    .expect("current rows are well-formed and distinct");
            }
        }
        #[cfg(test)]
        tests::LARGEST_SLICE.with(|n| n.set(n.get().max(slice.len())));
        slice
    }

    /// Fallible commit: validate, then apply.  The table keeps no log:
    /// a database logs the commit between the two.
    pub fn try_commit(&mut self, tx_time: Chronon, ops: &[HistoricalOp]) -> StorageResult<()> {
        self.validate(tx_time, ops)?;
        self.apply_validated(tx_time, ops)
    }

    /// Applies a transaction [`validate`](Self::validate) has just
    /// accepted (a caller that keeps its own log appends in between).
    /// Each op does its fallible work first — the heap, the
    /// transaction-time tree and the key index — and only then touches
    /// the current-row index: an op the heap refuses leaves the index as
    /// it was before it, still agreeing with the heap.  A failure after
    /// an earlier heap write of the same commit (a `replace` whose
    /// insert fails after its remove closed a version) cannot be taken
    /// back that way, so it is reported as
    /// [`StorageError::PartlyApplied`]; the heap is in memory and
    /// `validate` has checked that every version fits, so nothing
    /// short of an injected fault gets that far.  Nothing is copied, and
    /// an op costs the current rows of the key it names, not the current
    /// state.
    pub fn apply_validated(&mut self, tx_time: Chronon, ops: &[HistoricalOp]) -> StorageResult<()> {
        // Clone the handle so the span's borrow doesn't pin `self`.
        let recorder = Arc::clone(&self.recorder);
        let span = recorder.span("storage/commit");
        span.rows_in(ops.len() as u64);
        self.disk.unwind_point("table.commit.apply")?;
        let writes = self.heap_writes;
        self.apply_ops(tx_time, ops).map_err(|e| {
            if self.heap_writes == writes {
                e
            } else {
                StorageError::PartlyApplied(Box::new(e))
            }
        })?;
        self.last_commit = Some(tx_time);
        self.transactions += 1;
        Ok(())
    }

    fn apply_ops(&mut self, tx_time: Chronon, ops: &[HistoricalOp]) -> StorageResult<()> {
        for op in ops {
            match op {
                HistoricalOp::Insert { tuple, validity } => {
                    let rid = self.heap_insert(tuple, *validity, tx_time)?;
                    self.index_current(tuple.clone(), *validity, rid);
                }
                HistoricalOp::Remove { selector } => {
                    let matched = self.matching(selector);
                    for (_, rid) in &matched {
                        self.heap_close(*rid, tx_time)?;
                    }
                    for (seq, _) in &matched {
                        self.current.remove(seq);
                    }
                    let key = selector.tuple.get(0);
                    let seqs = self
                        .current_index
                        .get_mut(key)
                        .expect("validate found a row this selects");
                    seqs.retain(|seq| self.current.contains_key(seq));
                    if seqs.is_empty() {
                        self.current_index.remove(key);
                    }
                }
                HistoricalOp::SetValidity { selector, validity } => {
                    let mut restamped = Vec::new();
                    for (seq, rid) in self.matching(selector) {
                        self.heap_close(rid, tx_time)?;
                        let new = self.heap_insert(&selector.tuple, *validity, tx_time)?;
                        restamped.push((seq, new));
                    }
                    for (seq, rid) in restamped {
                        let entry = self.current.get_mut(&seq).expect("matching read it");
                        entry.validity = *validity;
                        entry.rid = rid;
                    }
                }
            }
        }
        Ok(())
    }

    /// The current rows `selector` matches, in reference order: the
    /// sequence number and heap record of each.
    fn matching(&self, selector: &chronos_core::relation::RowSelector) -> Vec<(u64, RecordId)> {
        self.keyed(selector.tuple.get(0))
            .filter(|(_, e)| selector.matches(&e.tuple, e.validity))
            .map(|(seq, e)| (seq, e.rid))
            .collect()
    }

    /// Stores a new open version and indexes its transaction period and
    /// key.
    fn heap_insert(
        &mut self,
        tuple: &Tuple,
        validity: Validity,
        tx_time: Chronon,
    ) -> StorageResult<RecordId> {
        let tx = Period::from_start(tx_time);
        self.disk.unwind_point("heap.insert")?;
        let rid = self.heap.insert(&encode_row(tuple, validity, tx))?;
        self.heap_writes += 1;
        self.tx_index.insert(tx, rid);
        self.index_version(tuple, tx, rid);
        Ok(rid)
    }

    /// Adds the heap version at `rid` to the key index.
    fn index_version(&mut self, tuple: &Tuple, tx: Period, rid: RecordId) {
        // Clone the key only for its first version.
        let key = tuple.get(0);
        match self.versions.get_mut(key) {
            Some(bucket) => bucket.push((tx, rid)),
            None => {
                self.versions.insert(key.clone(), vec![(tx, rid)]);
            }
        }
    }

    /// The key index's entry for the heap version at `rid`.
    fn version_entry(
        &mut self,
        tuple: &Tuple,
        rid: RecordId,
    ) -> (&mut Vec<(Period, RecordId)>, usize) {
        let bucket = self
            .versions
            .get_mut(tuple.get(0))
            .expect("key index in sync");
        // From the back: the version a commit closes is usually recent.
        let at = bucket
            .iter()
            .rposition(|(_, r)| *r == rid)
            .expect("key index in sync");
        (bucket, at)
    }

    /// Removes the heap version at `rid` from the key index.
    fn unindex_version(&mut self, tuple: &Tuple, rid: RecordId) {
        let (bucket, at) = self.version_entry(tuple, rid);
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.versions.remove(tuple.get(0));
        }
    }

    /// Supersedes the open version at `rid`: its transaction period is
    /// closed at `tx_time`, or the version is dropped outright where the
    /// table keeps none.
    fn heap_close(&mut self, rid: RecordId, tx_time: Chronon) -> StorageResult<()> {
        let row = self.decode_at(rid)?;
        let closed = match self.superseded {
            Superseded::Dropped => {
                self.heap.delete(rid)?;
                None
            }
            Superseded::Closed => {
                let closed_tx = Period::clamped(row.tx.start(), TimePoint::at(tx_time));
                let moved = self
                    .heap
                    .update(rid, &encode_row(&row.tuple, row.validity, closed_tx))?;
                Some((closed_tx, moved))
            }
        };
        self.heap_writes += 1;
        assert!(self.tx_index.remove(row.tx, &rid), "tx index in sync");
        // Reindex under the (possibly moved) record id and closed
        // transaction period.
        match closed {
            Some((closed_tx, moved)) => {
                self.tx_index.insert(closed_tx, moved);
                let (bucket, at) = self.version_entry(&row.tuple, rid);
                bucket[at] = (closed_tx, moved);
            }
            None => self.unindex_version(&row.tuple, rid),
        }
        Ok(())
    }

    /// Flushes heap pages (durability of the log does not depend on
    /// this; the heap is reconstructed from the log on open).
    pub fn flush(&self) -> StorageResult<()> {
        self.heap.pool().flush()
    }

    /// The frozen segments attached to this table.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Versions held by frozen segments.
    pub fn segment_versions(&self) -> usize {
        self.segments.iter().map(|s| s.versions() as usize).sum()
    }

    /// Versions still on the heap whose transaction period is closed —
    /// immutable forever, hence freezable.  Cheap: the heap row count
    /// minus the open (current) rows.
    pub fn frozen_version_count(&self) -> usize {
        self.heap.len() - self.current.len()
    }

    /// Freezes every closed version out of the heap into an immutable
    /// segment at `path`, leaving the mutable tail (open transaction
    /// periods) on the pager.  Returns `None` when nothing is
    /// freezable.  Ordering of the durability steps is what makes a
    /// crash at any point harmless:
    ///
    /// 1. the segment is written to a `.tmp` sibling, fsynced, and
    ///    renamed into place;
    /// 2. the segment is mapped and validated;
    /// 3. only then are the frozen rows deleted from the heap and
    ///    de-indexed.
    ///
    /// The WAL and checkpoint images remain the authority throughout —
    /// recovery rebuilds the full heap and discards stale segments, so
    /// an interrupted freeze is simply redone later.
    pub fn freeze_into(&mut self, path: &Path) -> StorageResult<Option<FreezeReport>> {
        let recorder = Arc::clone(&self.recorder);
        let span = recorder.span("storage/freeze");
        let mut victims: Vec<(RecordId, BitemporalRow)> = Vec::new();
        let mut scan_err = None;
        self.heap.scan(|rid, bytes| match decode_row(bytes) {
            Ok(row) => {
                if !row.is_current() {
                    victims.push((rid, row));
                }
            }
            Err(e) => scan_err = Some(e),
        })?;
        if let Some(e) = scan_err {
            return Err(e);
        }
        if victims.is_empty() {
            span.detail("nothing frozen (no closed versions)");
            return Ok(None);
        }
        let rows: Vec<BitemporalRow> = victims.iter().map(|(_, row)| row.clone()).collect();
        let report = segment::write_segment(path, self.rel_id, &rows)?;
        let seg = Arc::new(Segment::open(path)?);
        // The segment is durable and mapped: the heap copies can go.
        for (rid, row) in victims {
            self.heap.delete(rid)?;
            assert!(self.tx_index.remove(row.tx, &rid), "tx index in sync");
            self.unindex_version(&row.tuple, rid);
        }
        span.detail(format!(
            "froze {} version(s) in {} chain(s), {} bytes",
            report.versions, report.chains, report.file_bytes
        ));
        span.rows_out(report.versions);
        self.segments.push(seg);
        Ok(Some(report))
    }
}

impl<S: PageStore> TemporalStore for StoredBitemporalTable<S> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn signature(&self) -> TemporalSignature {
        self.signature
    }

    fn commit(&mut self, tx_time: Chronon, ops: &[HistoricalOp]) -> chronos_core::CoreResult<()> {
        self.try_commit(tx_time, ops).map_err(|e| match e {
            StorageError::Core(c) => c,
            other => CoreError::Invalid(other.to_string()),
        })
    }

    fn rollback(&self, t: Chronon) -> HistoricalRelation {
        self.try_rollback(t)
            .expect("storage-backed rollback failed (corrupt heap?)")
    }

    fn current(&self) -> HistoricalRelation {
        let mut current = HistoricalRelation::new(self.schema.clone(), self.signature);
        for entry in self.current.values() {
            current
                .insert(entry.tuple.clone(), entry.validity)
                .expect("current rows are well-formed and distinct");
        }
        current
    }

    fn last_commit(&self) -> Option<Chronon> {
        self.last_commit
    }

    fn transactions(&self) -> usize {
        self.transactions
    }

    fn stored_tuples(&self) -> usize {
        self.heap.len() + self.segment_versions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::calendar::date;
    use chronos_core::relation::temporal::BitemporalTable;
    use chronos_core::relation::RowSelector;
    use chronos_core::schema::faculty_schema;
    use chronos_core::tuple::tuple;

    thread_local! {
        /// The largest validation slice built on this thread.
        pub(super) static LARGEST_SLICE: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn d(s: &str) -> Chronon {
        date(s).unwrap()
    }

    /// Figure 8's six commits.
    fn figure_8() -> Vec<(Chronon, Vec<HistoricalOp>)> {
        let from = |s| Period::from_start(d(s));
        let span = |a, b| Period::new(d(a), d(b)).unwrap();
        let sel = |name, rank| RowSelector::tuple(tuple([name, rank]));
        vec![
            (
                d("08/25/77"),
                vec![HistoricalOp::insert(
                    tuple(["Merrie", "associate"]),
                    from("09/01/77"),
                )],
            ),
            (
                d("12/01/82"),
                vec![HistoricalOp::insert(
                    tuple(["Tom", "full"]),
                    from("12/05/82"),
                )],
            ),
            (
                d("12/07/82"),
                vec![
                    HistoricalOp::remove(sel("Tom", "full")),
                    HistoricalOp::insert(tuple(["Tom", "associate"]), from("12/05/82")),
                ],
            ),
            (
                d("12/15/82"),
                vec![
                    HistoricalOp::set_validity(
                        sel("Merrie", "associate"),
                        span("09/01/77", "12/01/82"),
                    ),
                    HistoricalOp::insert(tuple(["Merrie", "full"]), from("12/01/82")),
                ],
            ),
            (
                d("01/10/83"),
                vec![HistoricalOp::insert(
                    tuple(["Mike", "assistant"]),
                    from("01/01/83"),
                )],
            ),
            (
                d("02/25/84"),
                vec![HistoricalOp::set_validity(
                    sel("Mike", "assistant"),
                    span("01/01/83", "03/01/84"),
                )],
            ),
        ]
    }

    fn drive_figure_8<T: TemporalStore>(s: &mut T) {
        for (tx, ops) in figure_8() {
            s.commit(tx, &ops).unwrap();
        }
    }

    /// Logs `commits` for relation `rel_id` to a fresh log at `path`,
    /// the way a database does before it applies them.
    fn log(path: &Path, rel_id: u32, commits: Vec<(Chronon, Vec<HistoricalOp>)>) {
        let _ = std::fs::remove_file(path);
        let mut wal = crate::wal::Wal::open(path).unwrap();
        for (tx_time, ops) in commits {
            let rec = crate::wal::WalRecord {
                rel_id,
                tx_time,
                ops,
            };
            wal.append(&rec).unwrap();
        }
    }

    /// A fresh table holding the replay of `rel_id`'s intact records in
    /// the log at `path`.
    fn replay(path: &Path, rel_id: u32) -> StoredBitemporalTable {
        let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        for rec in crate::wal::Wal::recover(path).unwrap().records {
            if rec.rel_id == rel_id {
                t.try_commit(rec.tx_time, &rec.ops).unwrap();
            }
        }
        t
    }

    #[test]
    fn agrees_with_reference_bitemporal_table() {
        let mut stored =
            StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        let mut reference = BitemporalTable::new(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut stored);
        drive_figure_8(&mut reference);

        assert_eq!(stored.stored_tuples(), 7);
        assert_eq!(stored.current(), reference.current());
        for t in (d("01/01/77").ticks()..=d("12/31/84").ticks()).step_by(5) {
            let t = Chronon::new(t);
            assert_eq!(stored.rollback(t), reference.rollback(t), "at {t}");
        }
        // Physical rows match as multisets.
        let mut a = stored.scan_rows().unwrap();
        let mut b = reference.rows().to_vec();
        let key = |r: &BitemporalRow| {
            (
                r.tuple.clone(),
                r.validity.period().start(),
                r.validity.period().end(),
                r.tx.start(),
                r.tx.end(),
            )
        };
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn indexed_queries_answer_the_paper() {
        let mut stored =
            StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut stored);
        // as of 12/10/82, valid at 12/05/82 → Merrie associate.
        let rows = stored.valid_at_as_of(d("12/05/82"), d("12/10/82")).unwrap();
        let merrie: Vec<_> = rows
            .iter()
            .filter(|r| r.tuple.get(0).as_str() == Some("Merrie"))
            .collect();
        assert_eq!(merrie.len(), 1);
        assert_eq!(merrie[0].tuple.get(1).as_str(), Some("associate"));
        // current timeslice at 12/05/82 → full (corrected history).
        let valid = Some(Period::instant(d("12/05/82")));
        let rows = stored
            .read(&Read {
                valid,
                ..Read::tx(TxSelect::Open)
            })
            .unwrap();
        let merrie: Vec<_> = rows
            .iter()
            .filter(|r| r.tuple.get(0).as_str() == Some("Merrie"))
            .collect();
        assert_eq!(merrie[0].tuple.get(1).as_str(), Some("full"));
        // overlap scan.
        let valid = Period::new(d("01/01/83"), d("01/01/84"));
        let overlapping = Read {
            valid,
            ..Read::tx(TxSelect::Open)
        };
        assert_eq!(stored.read(&overlapping).unwrap().len(), 3);
    }

    #[test]
    fn physical_stats_measure_versions_and_duplication() {
        let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        let empty = t.physical_stats().unwrap();
        assert_eq!(empty.versions, 0);
        assert_eq!(empty.dup_factor_x1000, 1000, "no versions, no duplication");
        drive_figure_8(&mut t);
        let stats = t.physical_stats().unwrap();
        assert_eq!(stats.versions, 7);
        assert_eq!(stats.pages, t.heap_pages());
        assert_eq!(
            stats.bytes_on_disk,
            u64::from(stats.pages) * crate::page::PAGE_SIZE as u64
        );
        assert!(stats.occupied_bytes > 0);
        assert!(stats.occupied_bytes <= stats.bytes_on_disk);
        assert_eq!(
            stats.occupancy_x1000,
            stats.occupied_bytes * 1000 / stats.bytes_on_disk
        );
        assert_eq!(stats.bytes_per_version, stats.bytes_on_disk / 7);
        // Merrie and Mike each store consecutive versions differing only
        // in a few timestamp bytes, so measured duplication exceeds 1.0×.
        assert!(stats.dup_factor_x1000 > 1000, "{stats:?}");
    }

    #[test]
    fn shared_bytes_prices_prefix_plus_suffix() {
        assert_eq!(shared_bytes(b"abcdef", b"abcxef"), 5);
        assert_eq!(shared_bytes(b"abc", b"abc"), 3);
        assert_eq!(shared_bytes(b"abc", b"xyz"), 0);
        // Prefix and suffix overlap is capped at the shorter length.
        assert_eq!(shared_bytes(b"aaaa", b"aaaaaa"), 4);
        assert_eq!(shared_bytes(b"", b"abc"), 0);
    }

    #[test]
    fn durable_table_replays_after_reopen() {
        let path = std::env::temp_dir().join(format!("chronos-table-wal-{}", std::process::id()));
        log(&path, 7, figure_8());
        let t = replay(&path, 7);
        assert_eq!(t.transactions(), 6);
        assert_eq!(t.stored_tuples(), 7);
        assert_eq!(t.last_commit(), Some(d("02/25/84")));
        let rows = t.valid_at_as_of(d("12/05/82"), d("12/10/82")).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.tuple.get(1).as_str() == Some("associate")));
        // Other relations' records in the same log are ignored.
        assert_eq!(replay(&path, 99).transactions(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_recovery_drops_only_the_torn_commit() {
        use std::io::Write;
        let path = std::env::temp_dir().join(format!("chronos-table-torn-{}", std::process::id()));
        log(&path, 1, figure_8());
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x10, 0x00, 0x00, 0x00, 0xDE, 0xAD]).unwrap();
        }
        let t = replay(&path, 1);
        assert_eq!(t.transactions(), 6, "intact commits survive the torn tail");
        std::fs::remove_file(&path).unwrap();
    }

    /// A freeze whose segment cannot be written (its directory does not
    /// exist) fails and leaves the heap holding every version.
    #[test]
    fn a_freeze_that_cannot_write_leaves_the_heap_in_charge() {
        let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut t);
        let before = t.scan_rows().unwrap();
        let nowhere = std::env::temp_dir()
            .join(format!("chronos-no-such-dir-{}", std::process::id()))
            .join("faculty-0.seg");
        assert!(t.freeze_into(&nowhere).is_err());
        assert!(t.segments().is_empty());
        assert_eq!(t.scan_rows().unwrap(), before);
        assert_eq!(t.frozen_version_count(), 3, "every closed version stays");
    }

    /// Many-commit workload over a two-column schema: inserts with
    /// occasional validity corrections, commit times 10 ticks apart.
    fn drive_many(s: &mut impl TemporalStore, commits: usize) {
        for i in 0..commits {
            let t = Chronon::new((i as i64 + 1) * 10);
            let name = format!("row{i}");
            let mut txn = s.begin().insert(
                tuple([name.as_str(), "assistant"]),
                Period::from_start(Chronon::new(i as i64)),
            );
            if i % 7 == 3 {
                let prev = format!("row{}", i - 1);
                txn = txn.set_validity(
                    RowSelector::tuple(tuple([prev.as_str(), "assistant"])),
                    Period::new(Chronon::new(i as i64 - 1), Chronon::new(i as i64 + 100)).unwrap(),
                );
            }
            txn.commit(t).unwrap();
        }
    }

    fn seg_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "chronos-table-seg-{tag}-{}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sorted_encodings(rows: &[BitemporalRow]) -> Vec<Vec<u8>> {
        let mut enc: Vec<Vec<u8>> = rows
            .iter()
            .map(|r| encode_row(&r.tuple, r.validity, r.tx))
            .collect();
        enc.sort();
        enc
    }

    #[test]
    fn freeze_moves_closed_versions_and_preserves_answers_byte_identically() {
        let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut t);
        let before = t.scan_rows().unwrap();
        let ticks = (d("01/01/77").ticks()..=d("12/31/84").ticks()).step_by(7);
        let states_before: Vec<_> = ticks
            .clone()
            .map(|tick| t.try_rollback(Chronon::new(tick)).unwrap())
            .collect();
        let closed = t.frozen_version_count();
        assert_eq!(closed, 3, "figure 8 closes three versions");

        let path = seg_path("fig8");
        let report = t.freeze_into(&path).unwrap().expect("something froze");
        assert_eq!(report.versions as usize, closed);
        assert_eq!(t.frozen_version_count(), 0, "tail holds only open rows");
        assert_eq!(t.stored_tuples(), 7, "logical content unchanged");
        assert_eq!(t.segment_versions(), closed);

        // The mmap-backed answer is byte-identical to the heap answer.
        let after = t.scan_rows().unwrap();
        assert_eq!(sorted_encodings(&before), sorted_encodings(&after));

        // Indexed reads merge segments and agree with the pre-freeze
        // reference on every probe.
        let probe = d("12/10/82");
        assert_eq!(
            sorted_encodings(&t.read(&Read::tx(TxSelect::At(probe))).unwrap()),
            sorted_encodings(
                &before
                    .iter()
                    .filter(|r| r.tx.contains(probe))
                    .cloned()
                    .collect::<Vec<_>>()
            )
        );
        for (tick, state) in ticks.zip(states_before) {
            let at = Chronon::new(tick);
            assert_eq!(
                t.try_rollback(at).unwrap(),
                state,
                "rollback mismatch at {at}"
            );
        }

        // Nothing left to freeze: a second call is a no-op.
        let again = seg_path("fig8-again");
        assert!(t.freeze_into(&again).unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn point_lookup_agrees_between_heap_and_segments() {
        let mut heap_only =
            StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        let mut frozen =
            StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        drive_many(&mut heap_only, 60);
        drive_many(&mut frozen, 60);
        let path = seg_path("lookup");
        frozen.freeze_into(&path).unwrap().expect("chains froze");
        for tick in [5, 35, 77, 140, 300, 601] {
            let at = Chronon::new(tick);
            for key in ["row2", "row9", "row31", "ghost"] {
                let k = chronos_core::value::Value::str(key);
                assert_eq!(
                    sorted_encodings(&heap_only.lookup_key_as_of(&k, at).unwrap()),
                    sorted_encodings(&frozen.lookup_key_as_of(&k, at).unwrap()),
                    "lookup({key}) as of {at}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// `-0.0 = 0.0`, so a keyed read of either finds both — on the heap
    /// and in a segment alike.
    #[test]
    fn keys_equal_under_eq_share_a_lookup() {
        use chronos_core::schema::Attribute;
        use chronos_core::value::AttrType;
        let schema = Schema::new(vec![
            Attribute::new("x", AttrType::Float),
            Attribute::new("tag", AttrType::Str),
        ])
        .unwrap();
        let mut t = StoredBitemporalTable::in_memory(schema, TemporalSignature::Interval);
        let row = |x: f64, tag: &str| Tuple::new(vec![Value::Float(x), Value::str(tag)]);
        let forever = Validity::Interval(Period::ALWAYS);
        let commit = |t: &mut StoredBitemporalTable, tick, ops: &[HistoricalOp]| {
            t.try_commit(Chronon::new(tick), ops).unwrap();
        };
        commit(&mut t, 10, &[HistoricalOp::insert(row(0.0, "a"), forever)]);
        commit(&mut t, 20, &[HistoricalOp::insert(row(-0.0, "b"), forever)]);
        // Close both, so that a freeze moves them into a segment.
        let gone =
            [row(0.0, "a"), row(-0.0, "b")].map(|r| HistoricalOp::remove(RowSelector::tuple(r)));
        commit(&mut t, 30, &gone);
        let at = Chronon::new(25);
        let tags = |t: &StoredBitemporalTable, key: f64| -> Vec<String> {
            let mut tags: Vec<String> = t
                .lookup_key_as_of(&Value::Float(key), at)
                .unwrap()
                .iter()
                .map(|r| r.tuple.get(1).to_string())
                .collect();
            tags.sort();
            tags
        };
        for key in [0.0, -0.0] {
            assert_eq!(tags(&t, key), ["a", "b"], "heap, key {key}");
        }
        let path = seg_path("signed-zero");
        t.freeze_into(&path).unwrap().expect("two closed versions");
        for key in [0.0, -0.0] {
            assert_eq!(tags(&t, key), ["a", "b"], "segment, key {key}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dropped_versions_leave_nothing_behind() {
        let mut t = StoredBitemporalTable::new(
            faculty_schema(),
            TemporalSignature::Interval,
            Superseded::Dropped,
        );
        let mut reference = HistoricalRelation::new(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut t);
        // The current state is Figure 6's historical relation, in the
        // reference's order …
        for (name, rank, from, to) in [
            ("Merrie", "associate", "09/01/77", Some("12/01/82")),
            ("Tom", "associate", "12/05/82", None),
            ("Merrie", "full", "12/01/82", None),
            ("Mike", "assistant", "01/01/83", Some("03/01/84")),
        ] {
            let p = match to {
                Some(to) => Period::new(d(from), d(to)).unwrap(),
                None => Period::from_start(d(from)),
            };
            reference.insert(tuple([name, rank]), p).unwrap();
        }
        assert_eq!(t.current().rows(), reference.rows());
        // … and nothing else is stored.
        assert_eq!(t.stored_tuples(), 4);
        assert_eq!(t.frozen_version_count(), 0);
        assert_eq!(t.transactions(), 6);
        // current_rows follows the reference's order, not the heap's: the
        // corrected rows took the dead slots of the versions they replaced.
        let rows = t.current_rows().unwrap();
        let pairs: Vec<_> = rows.iter().map(|r| (&r.tuple, r.validity)).collect();
        let expect: Vec<_> = reference
            .rows()
            .iter()
            .map(|r| (&r.tuple, r.validity))
            .collect();
        assert_eq!(pairs, expect);
        assert!(rows.iter().all(BitemporalRow::is_current));
        // The image restores to the same table, and a closed version in
        // it is refused rather than resurrected.
        let restored = StoredBitemporalTable::from_rows(
            faculty_schema(),
            TemporalSignature::Interval,
            Superseded::Dropped,
            rows.clone(),
            t.last_commit(),
            t.transactions(),
        )
        .unwrap();
        assert_eq!(restored.current().rows(), reference.rows());
        let mut closed = rows;
        closed[0].tx = Period::new(d("08/25/77"), d("12/15/82")).unwrap();
        assert!(matches!(
            StoredBitemporalTable::from_rows(
                faculty_schema(),
                TemporalSignature::Interval,
                Superseded::Dropped,
                closed,
                t.last_commit(),
                t.transactions(),
            ),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn a_commit_validates_on_the_rows_it_names_not_the_relation() {
        let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        // 500 keys, re-ranked three times over: 2 000 versions, 500 current.
        let mut tick = 0;
        let mut commit = |t: &mut StoredBitemporalTable, ops: &[HistoricalOp]| {
            tick += 10;
            t.try_commit(Chronon::new(tick), ops).unwrap();
        };
        let forever = Validity::Interval(Period::ALWAYS);
        for k in 0..500 {
            let row = tuple([format!("k{k}"), "r0".into()]);
            commit(&mut t, &[HistoricalOp::insert(row, forever)]);
        }
        for round in 0..3 {
            for k in 0..500 {
                let old = tuple([format!("k{k}"), format!("r{round}")]);
                let new = tuple([format!("k{k}"), format!("r{}", round + 1)]);
                commit(
                    &mut t,
                    &[
                        HistoricalOp::remove(RowSelector::exact(old, forever)),
                        HistoricalOp::insert(new, forever),
                    ],
                );
            }
        }
        assert_eq!((t.stored_tuples(), t.current().len()), (2000, 500));
        // One key's transaction: a second fact, a correction of the
        // first, then a retraction — three ops naming two tuples.
        LARGEST_SLICE.with(|n| n.set(0));
        let (first, second) = (tuple(["k7", "r3"]), tuple(["k7", "extra"]));
        let ops = [
            HistoricalOp::insert(second.clone(), forever),
            HistoricalOp::set_validity(
                RowSelector::tuple(first),
                Period::from_start(Chronon::new(5)),
            ),
            HistoricalOp::remove(RowSelector::tuple(second)),
        ];
        t.validate(Chronon::new(tick + 10), &ops).unwrap();
        t.apply_validated(Chronon::new(tick + 10), &ops).unwrap();
        assert_eq!(
            LARGEST_SLICE.with(std::cell::Cell::get),
            1,
            "the only current row the ops name is (k7, r3)"
        );
        let k7 = t.current_entries(Some(&"k7".into()), CurrentOrder::Reference);
        assert_eq!(k7.len(), 1);
        assert_eq!(t.current().len(), 500);
    }

    /// `t` lists its current rows as `oracle` — a reference relation
    /// driven with the same ops — holds them: row for row in order, key
    /// by key, each entry at the open version that carries it.
    fn assert_follows(t: &StoredBitemporalTable, oracle: &HistoricalRelation, context: &str) {
        for key in [
            None,
            Some("Merrie"),
            Some("Tom"),
            Some("Zed"),
            Some("Ghost"),
        ] {
            let listed: Vec<_> = t
                .current_entries(key.map(Value::from).as_ref(), CurrentOrder::Reference)
                .into_iter()
                .map(|e| (e.tuple.clone(), e.validity))
                .collect();
            let expected: Vec<_> = oracle
                .rows()
                .iter()
                .filter(|r| key.is_none_or(|k| r.tuple.get(0).as_str() == Some(k)))
                .map(|r| (r.tuple.clone(), r.validity))
                .collect();
            assert_eq!(listed, expected, "{context}: {key:?}");
        }
        let entries = t.current_entries(None, CurrentOrder::Reference);
        for (entry, row) in entries.into_iter().zip(t.current_rows().unwrap()) {
            assert!(row.is_current(), "{context}");
            assert_eq!((&row.tuple, row.validity), (&entry.tuple, entry.validity));
        }
    }

    #[test]
    fn current_entries_follow_the_reference_through_corrections_and_removals() {
        use chronos_core::relation::temporal::SnapshotTemporal;
        let mut oracle = SnapshotTemporal::new(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut oracle);
        let oracle = oracle.current();
        // A correction, a removal and an insert on top of Figure 8.
        let more = [
            HistoricalOp::set_validity(
                RowSelector::tuple(tuple(["Tom", "associate"])),
                Period::new(d("12/05/82"), d("01/01/85")).unwrap(),
            ),
            HistoricalOp::remove(RowSelector::tuple(tuple(["Merrie", "associate"]))),
            HistoricalOp::insert(tuple(["Zed", "full"]), Period::from_start(d("01/01/85"))),
        ];
        for superseded in [Superseded::Closed, Superseded::Dropped] {
            let mut t = StoredBitemporalTable::new(
                faculty_schema(),
                TemporalSignature::Interval,
                superseded,
            );
            drive_figure_8(&mut t);
            assert_follows(&t, &oracle, "live");
            // Heap order is the order a scan meets the open versions in.
            let scanned = t.scan_rows().unwrap();
            let heap_order = t.current_entries(None, CurrentOrder::Heap);
            for (entry, row) in heap_order
                .iter()
                .zip(scanned.iter().filter(|r| r.is_current()))
            {
                assert_eq!((&entry.tuple, entry.validity), (&row.tuple, row.validity));
            }
            // A restore inserts the image's current rows in image order —
            // the heap's where versions are kept, the reference's where
            // they are dropped — and follows the reference from there.
            let image = match superseded {
                Superseded::Closed => scanned,
                Superseded::Dropped => t.current_rows().unwrap(),
            };
            let mut expect = HistoricalRelation::new(faculty_schema(), TemporalSignature::Interval);
            for row in image.iter().filter(|r| r.is_current()) {
                expect.insert(row.tuple.clone(), row.validity).unwrap();
            }
            let mut restored = StoredBitemporalTable::from_rows(
                faculty_schema(),
                TemporalSignature::Interval,
                superseded,
                image,
                t.last_commit(),
                t.transactions(),
            )
            .unwrap();
            assert_follows(&restored, &expect, "restored");
            let at = d("12/10/82");
            assert_eq!(restored.try_rollback(at).unwrap(), t.rollback(at));
            restored.try_commit(d("01/01/85"), &more).unwrap();
            expect.apply(&more).unwrap();
            assert_follows(&restored, &expect, "restored, then written");
        }

        // Log replay re-runs the commits themselves.
        let path = std::env::temp_dir().join(format!("chronos-table-order-{}", std::process::id()));
        let mut commits = figure_8();
        commits.push((d("01/01/85"), more.to_vec()));
        log(&path, 5, commits);
        let replayed = replay(&path, 5);
        let mut after = oracle;
        after.apply(&more).unwrap();
        assert_follows(&replayed, &after, "replayed");
        std::fs::remove_file(&path).unwrap();
    }

    /// Every row under one key: reference order has to survive removals
    /// from the middle of the one bucket and refills of the freed slots.
    #[test]
    fn current_entries_follow_the_reference_when_every_row_shares_a_key() {
        let mut t = StoredBitemporalTable::new(
            faculty_schema(),
            TemporalSignature::Interval,
            Superseded::Dropped,
        );
        let mut oracle = HistoricalRelation::new(faculty_schema(), TemporalSignature::Interval);
        let mut tick = 0;
        let mut commit = |t: &mut StoredBitemporalTable, ops: &[HistoricalOp]| {
            tick += 1;
            t.try_commit(Chronon::new(tick), ops).unwrap();
            oracle.apply(ops).unwrap();
        };
        let forever = Validity::Interval(Period::ALWAYS);
        let row = |n: usize| tuple(["Tom".to_string(), format!("r{n}")]);
        for n in 0..300 {
            commit(&mut t, &[HistoricalOp::insert(row(n), forever)]);
        }
        // Free slots in the middle, then reuse them: heap order and
        // reference order part ways.
        let removals: Vec<_> = (100..200)
            .map(|n| HistoricalOp::remove(RowSelector::tuple(row(n))))
            .collect();
        commit(&mut t, &removals);
        let refills: Vec<_> = (300..350)
            .map(|n| HistoricalOp::insert(row(n), forever))
            .collect();
        commit(&mut t, &refills);

        assert_eq!(oracle.len(), 250);
        assert_follows(&t, &oracle, "one key");
        let reference: Vec<_> = oracle.rows().iter().map(|r| r.tuple.clone()).collect();
        let heap_order: Vec<_> = t
            .scan_rows()
            .unwrap()
            .into_iter()
            .map(|r| r.tuple)
            .collect();
        assert_ne!(heap_order, reference, "the refills reused freed slots");
    }

    #[test]
    fn failed_commit_leaves_no_trace() {
        let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
        drive_figure_8(&mut t);
        let before = t.stored_tuples();
        let err = t
            .begin()
            .remove(RowSelector::tuple(tuple(["Ghost", "x"])))
            .commit(d("06/01/84"));
        assert!(err.is_err());
        assert_eq!(t.stored_tuples(), before);
        assert_eq!(t.transactions(), 6);
    }

    /// A `point_read`-shaped history: 400 keys, each appended once and
    /// then replaced three times — the row's validity cut where the new
    /// salary starts and the new fact inserted — one commit per
    /// statement, with the keys in a fresh shuffled order each round.
    fn drive_point_read_shaped(t: &mut StoredBitemporalTable) {
        const KEYS: usize = 400;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let row = |k: usize, dept: u64, salary: u64| {
            Tuple::new(vec![
                Value::str(format!("k{k:05}")),
                Value::str(format!("d{dept:02}")),
                Value::Int(salary as i64),
            ])
        };
        let mut tx = Chronon::new(3652);
        let mut current: Vec<Option<(Tuple, Chronon)>> = vec![None; KEYS];
        let mut order: Vec<usize> = (0..KEYS).collect();
        for version in 0..4u64 {
            for i in (1..KEYS).rev() {
                order.swap(i, next(i as u64 + 1) as usize);
            }
            for &k in &order {
                let salary = 1_000 * (version + 1) + next(1_000);
                let ops = if version == 0 {
                    let from = Chronon::new(next(300) as i64);
                    let new = row(k, next(20), salary);
                    current[k] = Some((new.clone(), from));
                    vec![HistoricalOp::insert(new, Period::from_start(from))]
                } else {
                    let (old, start) = current[k].take().expect("key was appended");
                    let from = start + (300 + next(100) as i64);
                    let mut values = old.values().to_vec();
                    values[2] = Value::Int(salary as i64);
                    let new = Tuple::new(values);
                    current[k] = Some((new.clone(), from));
                    vec![
                        HistoricalOp::set_validity(
                            RowSelector::exact(old, Period::from_start(start)),
                            Period::new(start, from).unwrap(),
                        ),
                        HistoricalOp::insert(new, Period::from_start(from)),
                    ]
                };
                t.try_commit(tx, &ops).unwrap();
                tx = tx + 1;
            }
        }
    }

    /// Where every version lands is a contract — heap order is scan
    /// order — so a change to page fitting or compaction must leave
    /// every record id, the record it holds and the page count exactly
    /// as they were.
    #[test]
    fn placement_of_a_point_read_history_is_pinned() {
        use chronos_core::schema::Attribute;
        use chronos_core::value::AttrType;
        let schema = Schema::new(vec![
            Attribute::new("name", AttrType::Str),
            Attribute::new("dept", AttrType::Str),
            Attribute::new("salary", AttrType::Int),
        ])
        .unwrap();
        let mut t = StoredBitemporalTable::in_memory(schema, TemporalSignature::Interval);
        drive_point_read_shaped(&mut t);
        // FNV-1a over every (page, slot, record) in scan order, then the
        // page count.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut versions = 0;
        t.heap
            .scan(|rid, record| {
                feed(&rid.page.to_le_bytes());
                feed(&rid.slot.to_le_bytes());
                feed(record);
                versions += 1;
            })
            .unwrap();
        feed(&t.heap_pages().to_le_bytes());
        assert_eq!(
            (versions, t.heap_pages(), digest),
            (2800, 11, 0x9fed_7e34_5479_a491),
            "placement drifted"
        );
    }
}
