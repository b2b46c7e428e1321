//! The slow-query log: a bounded ring of captured statement profiles.
//!
//! The session layer wraps every statement in a trace capture when the
//! log is enabled; any statement whose wall time meets the threshold is
//! admitted here with its rendered span tree and counter deltas — the
//! same artifact the `profile` prefix produces, but captured
//! automatically while the system runs.
//!
//! The threshold is a plain nanosecond count behind an atomic:
//!
//! * `u64::MAX` (the default, [`SLOWLOG_DISABLED`]) disables the log —
//!   the statement path pays one relaxed load and a branch, nothing
//!   else (priced with the rest of the stack by EXPERIMENTS.md T10);
//! * `0` admits every statement (the determinism tests drive this);
//! * anything in between is an operational slow-query threshold.
//!
//! The ring holds the most recent [`DEFAULT_SLOWLOG_CAPACITY`] entries;
//! `seq` numbers are global, so consumers can tell how many admissions
//! the ring has already shed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Entries the ring retains.
pub const DEFAULT_SLOWLOG_CAPACITY: usize = 64;

/// Threshold value that disables capture entirely.
pub const SLOWLOG_DISABLED: u64 = u64::MAX;

/// One admitted slow statement.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Global admission number (0-based, never reset).
    pub seq: u64,
    /// The statement's canonical text (unparsed AST).
    pub statement: String,
    /// Wall time of the statement.
    pub duration_ns: u64,
    /// Rendered span tree + counter deltas (the `profile` artifact).
    pub report: String,
    /// Transaction-clock reading (chronon ticks) at admission; lets the
    /// `sys$slow` system relation index entries in engine time.
    pub at_tick: i64,
    /// The engine session that ran the statement (0 = a local,
    /// unregistered session such as the CLI's embedded one).
    pub session_id: u64,
    /// The request trace id the statement ran under (client-chosen or
    /// server-minted), correlating this entry with the events journal
    /// and the wire response.
    pub trace_id: String,
}

#[derive(Default)]
struct SlowInner {
    entries: Vec<SlowEntry>,
    next: usize,
    seq: u64,
}

/// Bounded ring of slow-statement captures; lives inside the
/// [`Recorder`](crate::Recorder).
pub struct SlowLog {
    threshold_ns: AtomicU64,
    capacity: usize,
    inner: Mutex<SlowInner>,
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog::new(DEFAULT_SLOWLOG_CAPACITY)
    }
}

impl SlowLog {
    /// A disabled log retaining up to `capacity` entries once enabled.
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            threshold_ns: AtomicU64::new(SLOWLOG_DISABLED),
            capacity: capacity.max(1),
            inner: Mutex::new(SlowInner::default()),
        }
    }

    /// The current admission threshold in nanoseconds.
    #[inline]
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Sets the admission threshold (`u64::MAX` disables, 0 admits all).
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// True iff statements should be captured at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.threshold_ns() != SLOWLOG_DISABLED
    }

    /// Admits one slow statement; returns its global seq number.
    /// `at_tick` is the transaction clock's current chronon reading;
    /// `session_id`/`trace_id` attribute the entry to the session and
    /// request that produced it.
    pub fn admit(
        &self,
        statement: String,
        duration_ns: u64,
        report: String,
        at_tick: i64,
        session_id: u64,
        trace_id: String,
    ) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.seq;
        inner.seq += 1;
        let entry = SlowEntry {
            seq,
            statement,
            duration_ns,
            report,
            at_tick,
            session_id,
            trace_id,
        };
        if inner.entries.len() < self.capacity {
            inner.entries.push(entry);
        } else {
            let slot = inner.next;
            inner.entries[slot] = entry;
        }
        inner.next = (inner.next + 1) % self.capacity;
        seq
    }

    /// Total admissions ever (≥ `entries().len()`).
    pub fn admitted(&self) -> u64 {
        self.inner.lock().unwrap().seq
    }

    /// Ring contents, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.entries.len());
        if inner.entries.len() == self.capacity {
            out.extend_from_slice(&inner.entries[inner.next..]);
            out.extend_from_slice(&inner.entries[..inner.next]);
        } else {
            out.extend_from_slice(&inner.entries);
        }
        out
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True iff nothing has been admitted (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the ring (seq numbering continues).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries.clear();
        inner.next = 0;
    }

    /// Human-readable rendering (the CLI's `\slow` output).
    pub fn render(&self) -> String {
        let entries = self.entries();
        if entries.is_empty() {
            return format!(
                "slow-query log empty (threshold {})\n",
                match self.threshold_ns() {
                    SLOWLOG_DISABLED => "disabled".to_string(),
                    ns => format!("{ns} ns"),
                }
            );
        }
        let mut out = String::new();
        for e in &entries {
            out.push_str(&format!(
                "#{} ({} ns) [session {} trace {}]  {}\n",
                e.seq,
                e.duration_ns,
                e.session_id,
                if e.trace_id.is_empty() {
                    "-"
                } else {
                    &e.trace_id
                },
                e.statement.replace('\n', " ")
            ));
            for line in e.report.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("threshold_ns", &self.threshold_ns())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let log = SlowLog::default();
        assert!(!log.is_enabled());
        assert_eq!(log.threshold_ns(), SLOWLOG_DISABLED);
        assert!(log.is_empty());
    }

    #[test]
    fn ring_keeps_newest_and_global_seq() {
        let log = SlowLog::new(3);
        log.set_threshold_ns(0);
        for i in 0..5 {
            log.admit(
                format!("stmt {i}"),
                i,
                format!("report {i}"),
                i as i64,
                i,
                format!("t-{i}"),
            );
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest first, newest retained"
        );
        assert_eq!(log.admitted(), 5);
    }

    #[test]
    fn json_is_well_formed_with_hostile_text() {
        // The log keeps hostile text verbatim; `sys$slow`'s renderer
        // escapes it.
        let log = SlowLog::new(4);
        let statement = "retrieve (f.name) where f.name = \"Mer\\rie\"\n";
        let report = "tquel/exec [path \"quoted\"]\n  storage/scan\n";
        let trace_id = "cli\"quoted\\id";
        log.admit(
            statement.to_string(),
            42,
            report.to_string(),
            7,
            3,
            trace_id.to_string(),
        );
        let e = &log.entries()[0];
        assert_eq!(
            (e.statement.as_str(), e.report.as_str(), e.trace_id.as_str()),
            (statement, report, trace_id)
        );
    }

    #[test]
    fn clear_empties_but_seq_continues() {
        let log = SlowLog::new(2);
        log.admit("a".into(), 1, String::new(), 0, 0, String::new());
        log.clear();
        assert!(log.is_empty());
        let seq = log.admit("b".into(), 1, String::new(), 0, 0, String::new());
        assert_eq!(seq, 1);
    }
}
