//! Structured lifecycle event journal.
//!
//! An [`EventJournal`] is a JSONL file (`events.jsonl`, kept beside the
//! WAL) recording rare engine lifecycle events — recovery start/stop,
//! checkpoint builds, slow-query admissions (commits are not
//! journaled: the WAL's frames are their record).  The journal is
//! diagnostic and never synced: recovery does not read it.  Each line
//! is one self-contained JSON object:
//!
//! ```text
//! {"seq": 12, "ts_ns": 48211094, "event": "recovery", "frames_replayed": 3, ...}
//! ```
//!
//! * `seq` is a strictly increasing admission number (never reset, not
//!   by rotation and not by reopening: an open resumes after the last
//!   line on disk), so consumers can detect gaps.
//! * `ts_ns` is a **monotonic** timestamp: nanoseconds since the journal
//!   was opened, read from [`Instant`].  Wall-clock time is deliberately
//!   absent — the engine's own notion of time is the transaction clock,
//!   and a monotonic offset cannot run backwards under NTP steps.
//! * Rotation is by size: when appending a line would push the file past
//!   `max_bytes`, older generations shift (`.1` → `.2`, …), the current
//!   file is renamed to `<path>.1`, and a fresh file is started.  The
//!   number of retained generations is configurable (default one), so
//!   disk use is bounded at ~`(generations + 1) × max_bytes`.  Each
//!   rotation writes a `journal_rotate` event as the first line of the
//!   fresh file.
//!
//! The workspace has no serde; encoding is hand-rolled here and checked
//! by the [`validate_json`] well-formedness validator (also used by the
//! `check.sh` JSONL gate).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::fault::{Disk, DiskFile};

/// Default rotation threshold: 4 MiB per generation.
pub const DEFAULT_JOURNAL_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// Default number of rotated generations kept on disk (`<path>.1`).
pub const DEFAULT_JOURNAL_GENERATIONS: usize = 1;

/// A field value in a journal event.
#[derive(Debug, Clone)]
pub enum EventValue {
    U64(u64),
    I64(i64),
    Bool(bool),
    Str(String),
}

impl From<u64> for EventValue {
    fn from(v: u64) -> Self {
        EventValue::U64(v)
    }
}
impl From<usize> for EventValue {
    fn from(v: usize) -> Self {
        EventValue::U64(v as u64)
    }
}
impl From<i64> for EventValue {
    fn from(v: i64) -> Self {
        EventValue::I64(v)
    }
}
impl From<bool> for EventValue {
    fn from(v: bool) -> Self {
        EventValue::Bool(v)
    }
}
impl From<&str> for EventValue {
    fn from(v: &str) -> Self {
        EventValue::Str(v.to_string())
    }
}
impl From<String> for EventValue {
    fn from(v: String) -> Self {
        EventValue::Str(v)
    }
}

impl EventValue {
    fn write_json(&self, out: &mut String) {
        match self {
            EventValue::U64(v) => out.push_str(&v.to_string()),
            EventValue::I64(v) => out.push_str(&v.to_string()),
            EventValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            EventValue::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
        }
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct JournalInner {
    file: DiskFile,
    seq: u64,
    bytes: u64,
    rotations: u64,
}

/// Point-in-time counters of an [`EventJournal`], surfaced through
/// `engine_stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Admission numbers handed out so far, over the journal's life.
    pub seq: u64,
    /// Rotations performed since the journal was opened.
    pub rotations: u64,
    /// Rotated generations retained on disk (`.1`..`.k`).
    pub generations: usize,
    /// Per-generation size threshold in bytes.
    pub max_bytes: u64,
}

/// Append-only JSONL journal of engine lifecycle events.
pub struct EventJournal {
    disk: Disk,
    path: PathBuf,
    max_bytes: u64,
    generations: usize,
    origin: Instant,
    inner: Mutex<JournalInner>,
}

impl EventJournal {
    /// Opens (appending to, creating if needed) the journal at `path`
    /// with the default rotation threshold; every write goes through
    /// `disk`.
    pub fn open(disk: &Disk, path: &Path) -> std::io::Result<EventJournal> {
        Self::open_with_retention(
            disk,
            path,
            DEFAULT_JOURNAL_MAX_BYTES,
            DEFAULT_JOURNAL_GENERATIONS,
        )
    }

    /// Opens the journal with an explicit rotation threshold and number
    /// of rotated generations to retain (`<path>.1` .. `<path>.k`).
    pub fn open_with_retention(
        disk: &Disk,
        path: &Path,
        max_bytes: u64,
        generations: usize,
    ) -> std::io::Result<EventJournal> {
        let file = disk.open_append(path)?;
        let bytes = file.size()?;
        // `seq` is global across opens: resume after the newest line on
        // disk (the rotated `.1` holds it when the live file is empty).
        let seq = [path.to_path_buf(), generation_path(path, 1)]
            .iter()
            .find_map(|p| last_seq(p))
            .map_or(0, |last| last + 1);
        Ok(EventJournal {
            disk: disk.clone(),
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(1),
            generations: generations.max(1),
            origin: Instant::now(),
            inner: Mutex::new(JournalInner {
                file,
                seq,
                bytes,
                rotations: 0,
            }),
        })
    }

    /// Snapshot of the journal's counters and configuration.
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.lock().unwrap();
        JournalStats {
            seq: inner.seq,
            rotations: inner.rotations,
            generations: self.generations,
            max_bytes: self.max_bytes,
        }
    }

    /// Composes one JSONL line (without allocating a sequence number).
    fn compose(seq: u64, ts_ns: u64, event: &str, fields: &[(&str, EventValue)]) -> String {
        let mut line = String::with_capacity(96);
        line.push_str(&format!(
            "{{\"seq\": {seq}, \"ts_ns\": {ts_ns}, \"event\": \"{}\"",
            escape_json(event)
        ));
        for (name, value) in fields {
            line.push_str(&format!(", \"{}\": ", escape_json(name)));
            value.write_json(&mut line);
        }
        line.push_str("}\n");
        line
    }

    /// Allocates the next seq and writes `line` (already composed with
    /// that seq).  Write errors are swallowed.
    fn write_line(inner: &mut JournalInner, line: &str) {
        inner.seq += 1;
        if inner.file.append(line.as_bytes()).is_ok() {
            inner.bytes += line.len() as u64;
        }
    }

    /// Appends one event line.  Write errors are swallowed: journaling
    /// is diagnostic, never a reason to fail the engine operation that
    /// emitted the event.
    pub fn emit(&self, event: &str, fields: &[(&str, EventValue)]) {
        let ts_ns = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        let line = Self::compose(inner.seq, ts_ns, event, fields);
        if inner.bytes > 0 && inner.bytes + line.len() as u64 > self.max_bytes {
            // The rotation decision precedes seq allocation so the
            // `journal_rotate` marker lands first in the fresh file
            // with a lower seq than the event that triggered it.
            if self.rotate(&mut inner).is_err() {
                return;
            }
            inner.rotations += 1;
            let rot = Self::compose(
                inner.seq,
                ts_ns,
                "journal_rotate",
                &[
                    ("rotations", inner.rotations.into()),
                    ("generations", self.generations.into()),
                ],
            );
            Self::write_line(&mut inner, &rot);
            let line = Self::compose(inner.seq, ts_ns, event, fields);
            Self::write_line(&mut inner, &line);
        } else {
            Self::write_line(&mut inner, &line);
        }
    }

    /// Shifts rotated generations (`.i` → `.i+1`, dropping the oldest),
    /// renames the live file to `<path>.1`, and starts a fresh one.
    fn rotate(&self, inner: &mut JournalInner) -> std::io::Result<()> {
        for i in (1..self.generations).rev() {
            let from = generation_path(&self.path, i);
            if from.exists() {
                self.disk
                    .rename(&from, &generation_path(&self.path, i + 1))?;
            }
        }
        self.disk
            .rename(&self.path, &generation_path(&self.path, 1))?;
        inner.file = self.disk.open_append(&self.path)?;
        inner.bytes = 0;
        Ok(())
    }

    /// Last `n` journal lines across all retained generations, oldest
    /// first.  Holds the journal lock so a concurrent rotation cannot
    /// tear the read.
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        let _inner = self.inner.lock().unwrap();
        let mut lines: Vec<String> = Vec::new();
        for i in (1..=self.generations).rev() {
            if let Ok(text) = std::fs::read_to_string(generation_path(&self.path, i)) {
                lines.extend(
                    text.lines()
                        .filter(|l| !l.trim().is_empty())
                        .map(str::to_string),
                );
            }
        }
        if let Ok(text) = std::fs::read_to_string(&self.path) {
            lines.extend(
                text.lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(str::to_string),
            );
        }
        if lines.len() > n {
            lines.split_off(lines.len() - n)
        } else {
            lines
        }
    }
}

/// Path of rotated generation `i` (1-based) of the journal at `path`.
fn generation_path(path: &Path, i: usize) -> PathBuf {
    let mut rotated = path.as_os_str().to_owned();
    rotated.push(format!(".{i}"));
    PathBuf::from(rotated)
}

/// The `seq` of the last line of the journal file at `path`, read from
/// the file's tail (widened until it holds a whole line).
fn last_seq(path: &Path) -> Option<u64> {
    let mut file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    let mut window = 4096;
    loop {
        let start = len.saturating_sub(window);
        let mut tail = Vec::new();
        file.seek(SeekFrom::Start(start)).ok()?;
        file.read_to_end(&mut tail).ok()?;
        // A window that starts mid-file may cut its first line.
        let last = String::from_utf8_lossy(&tail)
            .lines()
            .skip(usize::from(start > 0))
            .filter_map(parse_event_summary)
            .last();
        if last.is_some() || start == 0 {
            return last.map(|(seq, ..)| seq);
        }
        window *= 4;
    }
}

/// Extracts `(seq, ts_ns, event, detail)` from a journal line: the
/// fixed prefix every line starts with, and as `detail` the line's
/// other fields as one JSON object (`{}` when it has none); `None` for
/// lines that don't carry the prefix.  Event names are engine-chosen
/// identifiers, so no unescaping is needed.
pub fn parse_event_summary(line: &str) -> Option<(u64, u64, String, String)> {
    fn field_u64(line: &str, key: &str) -> Option<u64> {
        let at = line.find(key)? + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }
    let seq = field_u64(line, "\"seq\": ")?;
    let ts_ns = field_u64(line, "\"ts_ns\": ")?;
    let key = "\"event\": \"";
    let at = line.find(key)? + key.len();
    let end = at + line[at..].find('"')?;
    let rest = line[end + 1..].trim_end();
    let detail = format!("{{{}", rest.strip_prefix(", ").unwrap_or(rest));
    Some((seq, ts_ns, line[at..end].to_string(), detail))
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("path", &self.path)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// JSON well-formedness validation (for the check.sh JSONL gate and the
// journal's own tests; the workspace has no serde to lean on).
// ---------------------------------------------------------------------

/// Validates that `s` is exactly one well-formed JSON value.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

/// Validates that every non-empty line of `text` parses as JSON.
/// Returns the number of lines validated.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at offset {pos}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("short \\u escape at offset {pos}"))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at offset {pos}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at offset {pos}")),
            },
            c if c < 0x20 => {
                return Err(format!("unescaped control byte {c:#04x} at offset {pos}"))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(pos) {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chronos-events-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut rotated = p.as_os_str().to_owned();
        rotated.push(".1");
        let _ = std::fs::remove_file(PathBuf::from(rotated));
        p
    }

    #[test]
    fn every_emitted_line_is_well_formed_json() {
        let path = temp_path("wellformed");
        let j = EventJournal::open(&Disk::default(), &path).unwrap();
        j.emit("recovery", &[("frames_replayed", 3u64.into())]);
        j.emit(
            "slow_query",
            &[
                ("statement", "retrieve (f.rank) \"quoted\"\nnext".into()),
                ("duration_ns", 12345u64.into()),
                ("admitted", true.into()),
            ],
        );
        j.emit("plain", &[]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_jsonl(&text).unwrap(), 3);
        assert!(text.contains("\"event\": \"recovery\""));
        assert!(text.contains("\\\"quoted\\\""));
        // A line's other fields are its detail, itself well-formed JSON.
        let details: Vec<String> = text
            .lines()
            .map(|line| parse_event_summary(line).unwrap().3)
            .collect();
        assert_eq!(details[0], "{\"frames_replayed\": 3}");
        assert_eq!(details[2], "{}");
        for detail in &details {
            validate_json(detail).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seq_and_ts_are_monotonic() {
        let path = temp_path("monotonic");
        let j = EventJournal::open(&Disk::default(), &path).unwrap();
        for _ in 0..5 {
            j.emit("tick", &[]);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut last_seq = None;
        let mut last_ts = None;
        for line in text.lines() {
            let seq: u64 = extract_number(line, "\"seq\": ");
            let ts: u64 = extract_number(line, "\"ts_ns\": ");
            if let Some(prev) = last_seq {
                assert!(seq > prev, "seq must strictly increase");
            }
            if let Some(prev) = last_ts {
                assert!(ts >= prev, "ts_ns must be monotonic");
            }
            last_seq = Some(seq);
            last_ts = Some(ts);
        }
        assert_eq!(last_seq, Some(4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_by_size_keeps_two_generations_and_global_seq() {
        let path = temp_path("rotate");
        let j = EventJournal::open_with_retention(
            &Disk::default(),
            &path,
            256,
            DEFAULT_JOURNAL_GENERATIONS,
        )
        .unwrap();
        for i in 0..40 {
            j.emit("fill", &[("i", (i as u64).into())]);
        }
        let live = std::fs::read_to_string(&path).unwrap();
        let mut rotated_path = path.as_os_str().to_owned();
        rotated_path.push(".1");
        let rotated_path = PathBuf::from(rotated_path);
        let rotated = std::fs::read_to_string(&rotated_path).unwrap();
        validate_jsonl(&live).unwrap();
        validate_jsonl(&rotated).unwrap();
        // seq keeps counting across the rotation boundary; each
        // rotation spends one extra seq on its journal_rotate marker.
        let stats = j.stats();
        assert!(stats.rotations >= 1);
        assert_eq!(stats.seq, 40 + stats.rotations);
        assert_eq!(stats.generations, DEFAULT_JOURNAL_GENERATIONS);
        assert!(live.contains("\"i\": 39"));
        // The fresh file opens with the rotation marker.
        assert!(live.starts_with("{\"seq\": "));
        assert!(live
            .lines()
            .next()
            .unwrap()
            .contains("\"event\": \"journal_rotate\""));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&rotated_path).unwrap();
    }

    #[test]
    fn retention_keeps_k_generations_with_global_seq() {
        let path = temp_path("retention");
        // Clean up any stale generation files from a previous run.
        for i in 1..=4 {
            let mut p = path.as_os_str().to_owned();
            p.push(format!(".{i}"));
            let _ = std::fs::remove_file(PathBuf::from(p));
        }
        let j = EventJournal::open_with_retention(&Disk::default(), &path, 128, 3).unwrap();
        for i in 0..120 {
            j.emit("fill", &[("i", (i as u64).into())]);
        }
        let gen = |i: usize| {
            let mut p = path.as_os_str().to_owned();
            p.push(format!(".{i}"));
            PathBuf::from(p)
        };
        assert!(gen(1).exists() && gen(2).exists() && gen(3).exists());
        assert!(!gen(4).exists(), "retention must cap at 3 generations");
        let stats = j.stats();
        assert!(
            stats.rotations > 3,
            "expected many rotations, got {}",
            stats.rotations
        );
        assert_eq!(stats.generations, 3);
        // tail_lines stitches generations oldest-first with strictly
        // increasing seq, and the rotation markers parse.
        let tail = j.tail_lines(50);
        assert!(!tail.is_empty());
        let mut last = None;
        let mut saw_rotate = false;
        for line in &tail {
            let (seq, _ts, event, _) = parse_event_summary(line).unwrap();
            if let Some(prev) = last {
                assert!(seq > prev, "seq must strictly increase across generations");
            }
            last = Some(seq);
            if event == "journal_rotate" {
                saw_rotate = true;
            }
        }
        assert!(saw_rotate);
        assert_eq!(j.tail_lines(3).len(), 3);
        std::fs::remove_file(&path).unwrap();
        for i in 1..=3 {
            std::fs::remove_file(gen(i)).unwrap();
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\": [1, -2.5, 3e4], \"b\": {\"c\": null}, \"d\": \"x\\n\\u0041\"}",
            "  true  ",
            "-0.5e-2",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good:?} rejected: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "01abc",
            "{} trailing",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }

    fn extract_number(line: &str, key: &str) -> u64 {
        let at = line.find(key).unwrap() + key.len();
        line[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    }
}
