//! The metrics registry: named atomic counters and fixed-bucket
//! latency histograms, snapshotted into a plain serializable struct.
//!
//! Counters are relaxed `AtomicU64`s — a single uncontended RMW per
//! increment, safe to call from any thread.
//! Histograms use power-of-two nanosecond buckets (bucket *i* covers
//! `[2^i, 2^(i+1))` ns) so recording is a `leading_zeros` plus one
//! atomic increment, with percentiles estimated from bucket upper
//! bounds at snapshot time.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge with a monotone high-watermark, for level
/// readings (queue depth) rather than event counts.  Same relaxed
/// atomics as [`Counter`]: the reading is advisory, not a fence.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_watermark: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            high_watermark: AtomicU64::new(0),
        }
    }

    /// Publish a new level and fold it into the high-watermark.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_watermark.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever published.
    #[inline]
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 39 covers everything at or
/// above `2^39` ns (~9.2 minutes), far beyond any single operation.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Fixed-bucket latency histogram over power-of-two nanosecond bins.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    samples: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    /// Bucket index for a duration: `floor(log2(ns))`, clamped.
    #[inline]
    fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            samples: self.samples.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub samples: u64,
    pub total_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            samples: 0,
            total_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Upper bound (exclusive) of bucket `i` in nanoseconds.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        1u64 << (i as u32 + 1).min(63)
    }

    /// Estimated value at percentile `p` in `[0, 100]`, as the upper
    /// bound of the bucket where the cumulative count crosses the
    /// target rank.  Returns `None` for an empty histogram.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        Some(Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }

    pub fn mean_ns(&self) -> Option<u64> {
        self.total_ns.checked_div(self.samples)
    }

    /// Per-field difference against an earlier snapshot.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            samples: self.samples.saturating_sub(earlier.samples),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
        }
    }
}

/// What a histogram's samples are: the unit suffix its Prometheus
/// family and its `sys$stats` totals and percentiles carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds (`_ns`).
    Ns,
    /// A plain count (no suffix).
    Count,
}

impl Unit {
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Ns => "_ns",
            Unit::Count => "",
        }
    }
}

/// One metric's value, tagged with its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading<'a> {
    /// A monotone count of events.
    Counter(u64),
    /// A level reading; a delta carries the later one.
    Gauge(u64),
    Histogram(&'a HistogramSnapshot, Unit),
}

/// One named, documented reading: a row of the metric table that
/// `/metrics` and `sys$stats` both render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric<'a> {
    pub name: &'static str,
    pub help: &'static str,
    pub reading: Reading<'a>,
}

impl<'a> Metric<'a> {
    pub fn new(name: &'static str, reading: Reading<'a>, help: &'static str) -> Metric<'a> {
        Metric {
            name,
            help,
            reading,
        }
    }
}

/// Declares every instrument of the registry once, and from that one
/// list generates [`Instruments`] (the live atomics), [`MetricsSnapshot`]
/// (their plain copy), the snapshot, `since`, `is_zero` and
/// [`MetricsSnapshot::metrics`] (the enumeration both renderings walk).
/// A gauge may name a second snapshot field for its high-watermark.
macro_rules! declare_metrics {
    (
        counters { $( $counter:ident: $counter_help:literal, )* }
        gauges { $( $gauge:ident: $gauge_help:literal $( / $hwm:ident: $hwm_help:literal )?, )* }
        histograms { $( $hist:ident($unit:ident): $hist_help:literal, )* }
    ) => {
        /// Every named instrument in the engine.  Public fields: callers
        /// increment through [`Recorder`](crate::Recorder) helpers so the
        /// enabled check stays in one place, but tests may read them
        /// directly.
        #[derive(Default)]
        pub struct Instruments {
            $( #[doc = $counter_help] pub $counter: Counter, )*
            $( #[doc = $gauge_help] pub $gauge: Gauge, )*
            $( #[doc = $hist_help] pub $hist: LatencyHistogram, )*
        }

        /// Every instrument in the engine, snapshotted.  Field order is
        /// the exposition order of `/metrics` and `sys$stats`.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( #[doc = $counter_help] pub $counter: u64, )*
            $(
                #[doc = $gauge_help] pub $gauge: u64,
                $( #[doc = $hwm_help] pub $hwm: u64, )?
            )*
            $( #[doc = $hist_help] pub $hist: HistogramSnapshot, )*
        }

        impl Instruments {
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $counter: self.$counter.get(), )*
                    $(
                        $gauge: self.$gauge.get(),
                        $( $hwm: self.$gauge.high_watermark(), )?
                    )*
                    $( $hist: self.$hist.snapshot(), )*
                }
            }
        }

        impl MetricsSnapshot {
            /// Every metric in exposition order, with its kind, unit and
            /// help line.
            pub fn metrics(&self) -> Vec<Metric<'_>> {
                vec![
                    $( Metric::new(
                        stringify!($counter),
                        Reading::Counter(self.$counter),
                        $counter_help,
                    ), )*
                    $(
                        Metric::new(stringify!($gauge), Reading::Gauge(self.$gauge), $gauge_help),
                        $( Metric::new(stringify!($hwm), Reading::Gauge(self.$hwm), $hwm_help), )?
                    )*
                    $( Metric::new(
                        stringify!($hist),
                        Reading::Histogram(&self.$hist, Unit::$unit),
                        $hist_help,
                    ), )*
                ]
            }

            /// Counter-wise difference against an earlier snapshot.
            /// Gauges are level readings, so the delta carries the later
            /// reading unchanged.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $counter: self.$counter - earlier.$counter, )*
                    $(
                        $gauge: self.$gauge,
                        $( $hwm: self.$hwm, )?
                    )*
                    $( $hist: self.$hist.since(&earlier.$hist), )*
                }
            }
        }
    };
}

declare_metrics! {
    counters {
        pager_page_reads: "Heap pages read through the pager.",
        pager_page_writes: "Heap pages written through the pager.",
        wal_appends: "Records appended to the write-ahead log.",
        wal_fsyncs: "Write-ahead log fsyncs.",
        heap_rows_scanned: "Row versions read by whole-relation heap scans.",
        index_probes: "Reads answered through an index instead of a heap scan.",
        segment_hits: "Frozen-segment reads that consulted a segment's map.",
        segment_skips: "Frozen segments skipped wholesale (tx-range or bloom miss).",
        segment_bloom_fps: "Bloom probes that passed but found no chain in the directory.",
        commits: "Transactions committed.",
        sessions_opened: "Sessions opened.",
        sessions_closed: "Sessions closed.",
        group_commit_batches: "Group-commit batches written (one fsync each).",
        group_fsyncs_saved: "Fsyncs saved by group commit: commits beyond the first in a batch.",
        submit_stalls: "Submissions that found the bounded writer queue full and blocked.",
        checkpoints: "Checkpoints written, explicit and the writer's policy alike.",
        checkpoint_failures: "Policy checkpoints that failed (journaled; the policy retries).",
        net_requests: "TQuel service requests read.",
        net_errors: "TQuel service requests answered with an error.",
        net_bytes_in: "TQuel service request bytes read.",
        net_bytes_out: "TQuel service response bytes written.",
    }
    gauges {
        commit_queue_depth: "Writer-queue depth at the last submit or drain."
            / commit_queue_hwm: "Deepest the writer queue has ever been.",
        checkpoint_bytes: "Length of the checkpoint file last loaded or written.",
    }
    histograms {
        commit_latency(Ns): "One commit validated, logged and applied (before its fsync).",
        group_batch_size(Count): "Commits per group-commit batch (one WAL fsync each).",
        commit_queue_wait(Ns): "Commit stage: submit-to-dequeue wait in the writer queue.",
        commit_lock_wait(Ns): "Commit stage: the writer waiting for the database write lock.",
        commit_apply(Ns): "Commit stage: applying the batch under the lock.",
        commit_fsync(Ns): "Commit stage: the covering group fsync.",
        commit_ack(Ns): "Commit stage: acking the batch's sessions.",
        read_lock_wait(Ns): "Time spent acquiring the shared read lock.",
    }
}

impl MetricsSnapshot {
    /// Sessions opened and not yet closed.
    pub fn active_sessions(&self) -> u64 {
        self.sessions_opened.saturating_sub(self.sessions_closed)
    }

    /// True iff no instrument ever fired — the disabled-recorder
    /// invariant asserted by the figures smoke check.
    pub fn is_zero(&self) -> bool {
        self.metrics().iter().all(|m| match m.reading {
            Reading::Counter(v) | Reading::Gauge(v) => v == 0,
            Reading::Histogram(h, _) => h.samples == 0,
        })
    }
}

/// Prometheus text exposition of `metrics`: one `chronos_*` family per
/// metric, each with its `# HELP` and `# TYPE` line; histograms use the
/// cumulative `_bucket` form.
pub fn prometheus(metrics: &[Metric<'_>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for m in metrics {
        let (kind, unit) = match m.reading {
            Reading::Counter(_) => ("counter", ""),
            Reading::Gauge(_) => ("gauge", ""),
            Reading::Histogram(_, unit) => ("histogram", unit.suffix()),
        };
        let name = format!("chronos_{}{unit}", m.name);
        let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", m.help);
        match m.reading {
            Reading::Counter(v) | Reading::Gauge(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            Reading::Histogram(h, _) => {
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    cumulative += c;
                    if c > 0 {
                        let le = HistogramSnapshot::bucket_upper_bound(i);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.samples);
                let _ = writeln!(out, "{name}_sum {}", h.total_ns);
                let _ = writeln!(out, "{name}_count {}", h.samples);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basic() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_bucketing() {
        // Bucket i covers [2^i, 2^(i+1)): boundary values land low.
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(1023), 9);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().percentile(50.0), None);
        // 90 fast samples (~100ns, bucket 6) and 10 slow (~1ms, bucket 19).
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.samples, 100);
        assert_eq!(s.percentile(50.0), Some(128)); // bucket 6 upper bound
        assert_eq!(s.percentile(90.0), Some(128));
        assert_eq!(s.percentile(99.0), Some(1 << 20)); // bucket 19 upper bound
        assert_eq!(s.percentile(99.9), Some(1 << 20));
        // The buckets carry the explicit bounds.
        assert_eq!(s.buckets[6], 90);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(6), 128);
        assert_eq!(s.buckets[19], 10);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(19), 1 << 20);
        assert_eq!(s.mean_ns(), Some((90 * 100 + 10 * 1_000_000) / 100));
    }

    #[test]
    fn prometheus_exposition_is_cumulative_with_sum_and_count() {
        // The scrape must carry real histogram series — monotone
        // cumulative `_bucket{le=...}` counts ending at `+Inf`, plus
        // `_sum` and `_count` — not just summary quantiles.
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let m = MetricsSnapshot {
            commit_latency: h.snapshot(),
            ..Default::default()
        };
        let text = prometheus(&m.metrics());
        assert!(text.contains("# TYPE chronos_commit_latency_ns histogram"));
        assert!(text.contains("chronos_commit_latency_ns_bucket{le=\"128\"} 90"));
        // Cumulative: the slow bucket reports 90 + 10, not 10.
        assert!(text.contains(&format!(
            "chronos_commit_latency_ns_bucket{{le=\"{}\"}} 100",
            1u64 << 20
        )));
        assert!(text.contains("chronos_commit_latency_ns_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains(&format!(
            "chronos_commit_latency_ns_sum {}",
            90 * 100 + 10 * 1_000_000
        )));
        assert!(text.contains("chronos_commit_latency_ns_count 100"));
    }

    #[test]
    fn histogram_since_is_counterwise() {
        let h = LatencyHistogram::new();
        h.record_ns(10);
        let early = h.snapshot();
        h.record_ns(10);
        h.record_ns(1000);
        let diff = h.snapshot().since(&early);
        assert_eq!(diff.samples, 2);
        assert_eq!(diff.total_ns, 1010);
    }

    #[test]
    fn snapshot_consistent_under_concurrent_updates() {
        // Writers hammer the histogram while a reader snapshots; every
        // snapshot must be internally coherent (bucket sum == samples
        // is not guaranteed mid-update, but it may never exceed the
        // number of recordings issued, and the final snapshot must be
        // exact).
        let h = Arc::new(LatencyHistogram::new());
        let writers = 4;
        let per_writer = 10_000u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per_writer {
                        h.record_ns((w as u64 + 1) * 37 + i % 512);
                    }
                });
            }
            let h = Arc::clone(&h);
            s.spawn(move || {
                for _ in 0..100 {
                    let snap = h.snapshot();
                    let bucket_sum: u64 = snap.buckets.iter().sum();
                    assert!(bucket_sum <= writers as u64 * per_writer);
                    assert!(snap.samples <= writers as u64 * per_writer);
                    if snap.samples > 0 {
                        assert!(snap.percentile(99.0).is_some());
                    }
                }
            });
        });
        let final_snap = h.snapshot();
        assert_eq!(final_snap.samples, writers as u64 * per_writer);
        assert_eq!(
            final_snap.buckets.iter().sum::<u64>(),
            writers as u64 * per_writer
        );
    }

    #[test]
    fn snapshot_json_and_prometheus_render() {
        let s = MetricsSnapshot {
            index_probes: 3,
            commits: 7,
            ..Default::default()
        };
        let metrics = s.metrics();
        assert_eq!(metrics.len(), 21 + 3 + 8);
        let find = |name| metrics.iter().find(|m| m.name == name).unwrap().reading;
        assert_eq!(find("index_probes"), Reading::Counter(3));
        assert_eq!(find("commits"), Reading::Counter(7));
        assert_eq!(
            find("commit_latency"),
            Reading::Histogram(&s.commit_latency, Unit::Ns)
        );
        assert_eq!(
            find("group_batch_size"),
            Reading::Histogram(&s.group_batch_size, Unit::Count)
        );
        let prom = prometheus(&metrics);
        assert!(prom.contains("chronos_index_probes 3"));
        assert!(prom.contains(
            "# HELP chronos_commits Transactions committed.\n# TYPE chronos_commits counter\n"
        ));
        assert!(prom.contains("chronos_commit_latency_ns_count 0"));
        assert!(prom.contains("# TYPE chronos_group_batch_size histogram"));
        let families = prom.lines().filter(|l| l.starts_with("# HELP ")).count();
        assert_eq!(families, metrics.len(), "one help line per metric");
    }

    #[test]
    fn gauge_enumeration_is_consistent_across_renderings() {
        let instruments = Instruments::default();
        instruments.commit_queue_depth.set(9);
        instruments.commit_queue_depth.set(3);
        instruments.checkpoint_bytes.set(4096);
        let s = instruments.snapshot();
        assert_eq!((s.commit_queue_depth, s.commit_queue_hwm), (3, 9));
        let gauges: Vec<_> = s
            .metrics()
            .into_iter()
            .filter_map(|m| match m.reading {
                Reading::Gauge(v) => Some((m.name, v)),
                _ => None,
            })
            .collect();
        assert_eq!(
            gauges,
            [
                ("commit_queue_depth", 3),
                ("commit_queue_hwm", 9),
                ("checkpoint_bytes", 4096)
            ]
        );
        let prom = prometheus(&s.metrics());
        for (name, v) in gauges {
            assert!(prom.contains(&format!(
                "# TYPE chronos_{name} gauge\nchronos_{name} {v}\n"
            )));
        }
    }

    #[test]
    fn since_subtracts_counters_and_histograms_and_keeps_gauges() {
        let instruments = Instruments::default();
        instruments.commits.add(2);
        instruments.commit_queue_depth.set(5);
        instruments.commit_apply.record_ns(10);
        let early = instruments.snapshot();
        instruments.commits.add(3);
        instruments.commit_queue_depth.set(1);
        instruments.commit_apply.record_ns(20);
        let delta = instruments.snapshot().since(&early);
        assert_eq!(delta.commits, 3);
        assert_eq!((delta.commit_queue_depth, delta.commit_queue_hwm), (1, 5));
        assert_eq!(
            (delta.commit_apply.samples, delta.commit_apply.total_ns),
            (1, 20)
        );
    }

    #[test]
    fn zero_detection() {
        let mut s = MetricsSnapshot::default();
        assert!(s.is_zero());
        s.index_probes = 1;
        assert!(!s.is_zero());
    }
}
