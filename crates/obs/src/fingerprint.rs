//! The query-fingerprint store: per-statement-shape workload
//! aggregates.
//!
//! The session layer normalizes every executed statement (literals
//! replaced by `"?"`, structure preserved — see `chronos-tquel`'s
//! `fingerprint` module for the rules) and records the execution here
//! under the normalized text's FNV-1a hash.  Two statements that differ
//! only in literals therefore share one entry, which accumulates:
//!
//! * call count and a latency histogram (p50/p99 over all calls);
//! * total rows returned;
//! * the last access path a traced execution took (`-` until a capture
//!   runs — tracing is not forced onto the hot path);
//! * the worst estimated-vs-actual row-count misestimation any operator
//!   of this shape has shown (×1000 fixed point), so bad estimates are
//!   themselves observable.
//!
//! The store is bounded: when full, a new fingerprint evicts the
//! least-called entry (the workload's long tail), never the head.
//! Surfaced as the `sys$queries` system relation (which the `/queries`
//! HTTP endpoint renders) and the CLI's `\top`.

use std::sync::Mutex;

use crate::metrics::LatencyHistogram;

/// Fingerprints the store retains.
pub const DEFAULT_FINGERPRINT_CAPACITY: usize = 128;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The fingerprint of a normalized statement text: its FNV-1a hash —
/// tiny, dependency-free, and stable across platforms and runs (unlike
/// `DefaultHasher`, which is randomly seeded per process).
pub fn shape_hash(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One fingerprint's aggregates, snapshotted for rendering.
#[derive(Debug, Clone)]
pub struct FingerprintStats {
    /// FNV-1a hash of the normalized statement text.
    pub hash: u64,
    /// The normalized statement (literals replaced by `"?"`).
    pub statement: String,
    /// Statement kind (`retrieve`, `append`, `analyze`, …).
    pub kind: &'static str,
    /// Executions recorded under this fingerprint.
    pub calls: u64,
    /// Median wall time over all calls.
    pub p50_ns: u64,
    /// Tail wall time over all calls.
    pub p99_ns: u64,
    /// Total rows returned by all calls.
    pub rows_out: u64,
    /// Access path of the most recent *traced* execution (`-` until
    /// one runs).
    pub access_path: String,
    /// Worst per-operator |estimate/actual| ratio seen, ×1000
    /// (0 = no estimate recorded yet; 1000 = perfect).
    pub worst_misestimate_x1000: u64,
}

struct Entry {
    hash: u64,
    statement: String,
    kind: &'static str,
    calls: u64,
    latency: LatencyHistogram,
    rows_out: u64,
    access_path: String,
    worst_misestimate_x1000: u64,
}

impl Entry {
    fn stats(&self) -> FingerprintStats {
        let snap = self.latency.snapshot();
        FingerprintStats {
            hash: self.hash,
            statement: self.statement.clone(),
            kind: self.kind,
            calls: self.calls,
            p50_ns: snap.percentile(50.0).unwrap_or(0),
            p99_ns: snap.percentile(99.0).unwrap_or(0),
            rows_out: self.rows_out,
            access_path: self.access_path.clone(),
            worst_misestimate_x1000: self.worst_misestimate_x1000,
        }
    }
}

/// Bounded store of per-fingerprint workload aggregates; lives inside
/// the [`Recorder`](crate::Recorder) beside the slow-query log.
pub struct QueryFingerprints {
    capacity: usize,
    inner: Mutex<Vec<Entry>>,
}

impl Default for QueryFingerprints {
    fn default() -> Self {
        QueryFingerprints::new(DEFAULT_FINGERPRINT_CAPACITY)
    }
}

impl QueryFingerprints {
    /// An empty store retaining up to `capacity` fingerprints.
    pub fn new(capacity: usize) -> QueryFingerprints {
        QueryFingerprints {
            capacity: capacity.max(1),
            inner: Mutex::new(Vec::new()),
        }
    }

    /// [`record_execution`](Self::record_execution) under its former
    /// signature, whose two counts are ignored.  The frozen chronobench
    /// harness still calls it; it goes when the harness stops (ROADMAP
    /// item 1a).
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        hash: u64,
        statement: &str,
        kind: &'static str,
        duration_ns: u64,
        rows_out: u64,
        _: u64,
        _: u64,
        access_path: Option<&str>,
    ) {
        self.record_execution(hash, statement, kind, duration_ns, rows_out, access_path);
    }

    /// Records one execution of a statement with the given normalized
    /// text.  `access_path` is `Some` only when the execution ran under
    /// a trace capture (the path the spans named).
    pub fn record_execution(
        &self,
        hash: u64,
        statement: &str,
        kind: &'static str,
        duration_ns: u64,
        rows_out: u64,
        access_path: Option<&str>,
    ) {
        self.fold(statement, || hash, kind, duration_ns, rows_out, access_path);
    }

    /// [`record_execution`](Self::record_execution) for the normalized
    /// text alone, returning its fingerprint.  The text is hashed
    /// ([`shape_hash`]) only when the store first meets it: a known
    /// shape costs a string comparison, not a hash, per execution.
    pub fn record_statement(
        &self,
        statement: &str,
        kind: &'static str,
        duration_ns: u64,
        rows_out: u64,
        access_path: Option<&str>,
    ) -> u64 {
        let hash = || shape_hash(statement);
        self.fold(statement, hash, kind, duration_ns, rows_out, access_path)
    }

    /// Folds one execution into `statement`'s entry (made, under
    /// `hash()`, if the store has none), returning the entry's hash.
    fn fold(
        &self,
        statement: &str,
        hash: impl FnOnce() -> u64,
        kind: &'static str,
        duration_ns: u64,
        rows_out: u64,
        access_path: Option<&str>,
    ) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let entry = match inner.iter_mut().find(|e| e.statement == statement) {
            Some(e) => e,
            None => {
                if inner.len() == self.capacity {
                    // Evict the long tail, never the head.
                    let victim = inner
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.calls)
                        .map(|(i, _)| i)
                        .expect("capacity >= 1");
                    inner.swap_remove(victim);
                }
                inner.push(Entry {
                    hash: hash(),
                    statement: statement.to_string(),
                    kind,
                    calls: 0,
                    latency: LatencyHistogram::default(),
                    rows_out: 0,
                    access_path: "-".to_string(),
                    worst_misestimate_x1000: 0,
                });
                inner.last_mut().expect("just pushed")
            }
        };
        entry.calls += 1;
        entry.latency.record_ns(duration_ns);
        entry.rows_out += rows_out;
        if let Some(path) = access_path {
            entry.access_path = path.to_string();
        }
        entry.hash
    }

    /// Records a per-operator estimated-vs-actual row-count ratio
    /// (×1000, ≥1000) against an already-recorded fingerprint; keeps
    /// the worst.  Unknown hashes are ignored (the entry was evicted).
    pub fn record_misestimate(&self, hash: u64, factor_x1000: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.iter_mut().find(|e| e.hash == hash) {
            e.worst_misestimate_x1000 = e.worst_misestimate_x1000.max(factor_x1000);
        }
    }

    /// Snapshot of every fingerprint, most-called first.
    pub fn entries(&self) -> Vec<FingerprintStats> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<FingerprintStats> = inner.iter().map(Entry::stats).collect();
        out.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.statement.cmp(&b.statement)));
        out
    }

    /// Number of distinct fingerprints retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the store.
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }

    /// Human-readable rendering (the CLI's `\top` workload section).
    pub fn render(&self) -> String {
        let entries = self.entries();
        if entries.is_empty() {
            return "  (no query fingerprints yet — run some statements)\n".to_string();
        }
        let mut out = format!("  workload fingerprints ({} shape(s)):\n", entries.len());
        for e in &entries {
            out.push_str(&format!(
                "  {:>6} call(s)  p50 {:>9} ns  p99 {:>9} ns  {:>8} row(s)  {}\n",
                e.calls,
                e.p50_ns,
                e.p99_ns,
                e.rows_out,
                e.statement.replace('\n', " ")
            ));
        }
        out
    }
}

impl std::fmt::Debug for QueryFingerprints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryFingerprints")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_statement_is_hashed_when_first_met_and_shares_its_entry() {
        let store = QueryFingerprints::new(8);
        let text = "retrieve (f.rank) where f.name = \"?\"";
        let hash = store.record_statement(text, "retrieve", 100, 1, None);
        assert_eq!(hash, shape_hash(text));
        store.record_execution(hash, text, "retrieve", 200, 1, None);
        assert_eq!(store.record_statement(text, "retrieve", 300, 1, None), hash);
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].hash, entries[0].calls), (hash, 3));
    }

    #[test]
    fn aggregates_by_hash() {
        let store = QueryFingerprints::new(8);
        store.record_execution(
            42,
            "retrieve (f.rank) where f.name = \"?\"",
            "retrieve",
            100,
            1,
            None,
        );
        store.record_execution(
            42,
            "retrieve (f.rank) where f.name = \"?\"",
            "retrieve",
            300,
            2,
            None,
        );
        store.record_execution(7, "append to faculty (name = \"?\")", "append", 50, 0, None);
        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].calls, 2, "most-called first");
        assert_eq!(entries[0].rows_out, 3);
        assert_eq!(entries[0].access_path, "-");
    }

    #[test]
    fn eviction_drops_the_least_called() {
        let store = QueryFingerprints::new(2);
        store.record_execution(1, "a", "retrieve", 1, 0, None);
        store.record_execution(1, "a", "retrieve", 1, 0, None);
        store.record_execution(2, "b", "retrieve", 1, 0, None);
        store.record_execution(3, "c", "retrieve", 1, 0, None);
        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|e| e.hash == 1), "head survives");
        assert!(entries.iter().any(|e| e.hash == 3), "newcomer admitted");
    }

    #[test]
    fn misestimate_keeps_the_worst_and_ignores_unknown() {
        let store = QueryFingerprints::new(4);
        store.record_execution(9, "q", "retrieve", 1, 0, Some("heap scan"));
        store.record_misestimate(9, 2_000);
        store.record_misestimate(9, 1_500);
        store.record_misestimate(404, 9_000); // evicted/unknown: no-op
        let e = &store.entries()[0];
        assert_eq!(e.worst_misestimate_x1000, 2_000);
        assert_eq!(e.access_path, "heap scan");
    }

    #[test]
    fn json_is_well_formed_with_hostile_text() {
        // The store keeps hostile text verbatim; `sys$queries`'
        // renderer escapes it.
        let store = QueryFingerprints::new(4);
        let statement = "retrieve (f.name) where f.name = \"M\\\"er\nrie\"";
        store.record_execution(1, statement, "retrieve", 10, 1, Some("path \"quoted\""));
        let e = &store.entries()[0];
        assert_eq!(e.statement, statement);
        assert_eq!(e.access_path, "path \"quoted\"");
    }

    #[test]
    fn empty_render_and_json() {
        let store = QueryFingerprints::default();
        assert!(store.is_empty());
        assert!(store.entries().is_empty());
        assert!(store.render().contains("no query fingerprints"));
    }
}
