//! The benchmark's own span recorder.
//!
//! Spans are opened and closed around calls into the engine's public
//! functions — nothing inside the program is instrumented.  Each span
//! records its name, start, end, the span that caused it, and the id of
//! the statement it belongs to.  Spans stay in memory during the pass
//! and are written out as JSON lines when it ends.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `tquel.parser.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The statement this span belongs to.
    pub stmt: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; a disabled recorder takes the same calls
/// and records nothing, which is how tracing overhead is measured.
pub struct SpanRecorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
}

impl SpanRecorder {
    /// A recorder that keeps every span.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
        }
    }

    /// A recorder that keeps nothing (the untraced twin of a pass).
    pub fn disabled() -> SpanRecorder {
        SpanRecorder {
            enabled: false,
            ..SpanRecorder::new()
        }
    }

    /// Subsequent spans belong to statement `id`.
    pub fn statement(&mut self, id: u64) {
        self.stmt = id;
    }

    /// Runs `f` inside a span called `name`, child of whatever span is
    /// open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanRecorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span measured elsewhere (a callback that cannot borrow
    /// the recorder): `dur_ns` long, ending now, child of the open span.
    pub fn leaf(&mut self, name: &'static str, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"stmt\": {}}}",
                s.name, s.start_ns, s.end_ns, s.stmt
            )?;
        }
        Ok(())
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

/// Self-time samples (ns) grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(own as f64);
    }
    by_name
}

/// Per statement, `1 − Σ child self times / whole`, the children being
/// every span of the statement below its root (parentless) span and
/// `whole[stmt]` the time of whatever the root decomposes — an
/// independently timed run of the same statement.  Statements without a
/// `whole` are left out.  Returns the median over statements: the share
/// of the typical statement that no layer span accounts for, which one
/// preempted statement among hundreds cannot move.
pub fn unattributed_ratio(spans: &[Span], whole: &BTreeMap<u64, f64>) -> f64 {
    let mut attributed: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some() && whole.contains_key(&s.stmt) {
            *attributed.entry(s.stmt).or_default() += own as f64;
        }
    }
    let ratios: Vec<f64> = attributed
        .iter()
        .map(|(stmt, ns)| 1.0 - ns / whole[stmt])
        .collect();
    crate::stats::median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stmt: 1,
        }
    }

    /// run [0,100) ⊃ parse [0,10), exec [10,90) ⊃ scan [20,60), render [90,96)
    fn tree() -> Vec<Span> {
        vec![
            span("run", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("exec", 10, 90, Some(0)),
            span("scan", 20, 60, Some(2)),
            span("render", 90, 96, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let own = self_times(&tree());
        // run: 100 − (10 + 80 + 6); exec: 80 − 40; leaves keep theirs.
        assert_eq!(own, vec![4, 10, 40, 40, 6]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn unattributed_is_what_no_child_covers() {
        // Statement 1: the tree above, 96 of its ns attributed.  Statements
        // 2 and 3: one 50 ns child each under a root.
        let mut spans = tree();
        for stmt in [2, 3] {
            let root = spans.len();
            spans.push(Span {
                stmt,
                ..span("run", 0, 60, None)
            });
            spans.push(Span {
                stmt,
                ..span("exec", 0, 50, Some(root))
            });
        }
        // Against independently timed wholes of 100, 100 and 200 ns the
        // statements leave 4 %, 50 % and 75 % unexplained; the median
        // statement, 50 %.
        let whole = BTreeMap::from([(1, 100.0), (2, 100.0), (3, 200.0)]);
        assert!((unattributed_ratio(&spans, &whole) - 0.5).abs() < 1e-12);
        // A statement without a whole (a write, say) is left out.
        let whole = BTreeMap::from([(1, 100.0), (3, 200.0)]);
        assert!((unattributed_ratio(&spans, &whole) - (0.04 + 0.75) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags_statements() {
        let mut rec = SpanRecorder::new();
        rec.statement(7);
        rec.span("run", |r| {
            r.span("parse", |_| ());
            r.leaf("scan", 0);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.stmt == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = SpanRecorder::disabled();
        let v = rec.span("run", |r| r.span("parse", |_| 5));
        assert_eq!(v, 5);
        assert!(rec.spans().is_empty());
    }
}
