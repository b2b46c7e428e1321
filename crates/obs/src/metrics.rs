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

/// Every named counter in the engine, snapshotted.  Field order is the
/// exposition order for both the Prometheus text format and the
/// `sys$stats` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub pager_page_reads: u64,
    pub pager_page_writes: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub heap_rows_scanned: u64,
    pub index_probes: u64,
    /// Frozen-segment reads that consulted a segment's map.
    pub segment_hits: u64,
    /// Frozen segments skipped wholesale (tx-range or bloom miss).
    pub segment_skips: u64,
    /// Bloom probes that passed but found no chain in the directory.
    pub segment_bloom_fps: u64,
    pub commits: u64,
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub group_commit_batches: u64,
    pub group_fsyncs_saved: u64,
    /// Submissions that found the bounded writer queue full and had to
    /// block (backpressure events, not blocked nanoseconds).
    pub submit_stalls: u64,
    /// Checkpoints written, explicit and the writer's policy alike.
    pub checkpoints: u64,
    /// Policy checkpoints that failed (journaled; the policy retries
    /// once the log has grown by max(floor, checkpoint) again).
    pub checkpoint_failures: u64,
    pub net_requests: u64,
    pub net_errors: u64,
    pub net_bytes_in: u64,
    pub net_bytes_out: u64,
    /// Writer-queue depth at the last submit/drain (gauge).
    pub commit_queue_depth: u64,
    /// Deepest the writer queue has ever been (gauge high-watermark).
    pub commit_queue_hwm: u64,
    /// Length of the checkpoint file last loaded or written (gauge).
    pub checkpoint_bytes: u64,
    pub commit_latency: HistogramSnapshot,
    /// Commits per group-commit batch.  Same power-of-two machinery as
    /// the latency histograms, but the recorded value is a *count*
    /// (commits covered by one WAL fsync), not nanoseconds.
    pub group_batch_size: HistogramSnapshot,
    /// Commit-latency decomposition: submit-to-dequeue wait in the
    /// bounded writer queue.
    pub commit_queue_wait: HistogramSnapshot,
    /// Commit-latency decomposition: writer thread waiting for the
    /// database write lock.
    pub commit_lock_wait: HistogramSnapshot,
    /// Commit-latency decomposition: applying the batch under the lock.
    pub commit_apply: HistogramSnapshot,
    /// Commit-latency decomposition: the covering group fsync.
    pub commit_fsync: HistogramSnapshot,
    /// Commit-latency decomposition: acking the batch's sessions.
    pub commit_ack: HistogramSnapshot,
    /// Read-side contention: time spent acquiring the shared read lock.
    pub read_lock_wait: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// `(name, value)` pairs for every plain counter, in exposition
    /// order.  Keeping this as the single enumeration point means the
    /// `sys$stats` and Prometheus renderings can never drift apart.
    pub fn counters(&self) -> [(&'static str, u64); 21] {
        [
            ("pager_page_reads", self.pager_page_reads),
            ("pager_page_writes", self.pager_page_writes),
            ("wal_appends", self.wal_appends),
            ("wal_fsyncs", self.wal_fsyncs),
            ("heap_rows_scanned", self.heap_rows_scanned),
            ("index_probes", self.index_probes),
            ("segment_hits", self.segment_hits),
            ("segment_skips", self.segment_skips),
            ("segment_bloom_fps", self.segment_bloom_fps),
            ("commits", self.commits),
            ("sessions_opened", self.sessions_opened),
            ("sessions_closed", self.sessions_closed),
            ("group_commit_batches", self.group_commit_batches),
            ("group_fsyncs_saved", self.group_fsyncs_saved),
            ("submit_stalls", self.submit_stalls),
            ("checkpoints", self.checkpoints),
            ("checkpoint_failures", self.checkpoint_failures),
            ("net_requests", self.net_requests),
            ("net_errors", self.net_errors),
            ("net_bytes_in", self.net_bytes_in),
            ("net_bytes_out", self.net_bytes_out),
        ]
    }

    /// `(name, value)` pairs for every gauge (level readings, not
    /// monotone counts), in exposition order.
    pub fn gauges(&self) -> [(&'static str, u64); 3] {
        [
            ("commit_queue_depth", self.commit_queue_depth),
            ("commit_queue_hwm", self.commit_queue_hwm),
            ("checkpoint_bytes", self.checkpoint_bytes),
        ]
    }

    /// `(name, snapshot)` pairs for every histogram, in exposition
    /// order — the single enumeration point for the `sys$stats` and
    /// Prometheus renderings.  `group_batch_size` reads in commits per
    /// batch, everything else in nanoseconds.
    pub fn histograms(&self) -> [(&'static str, &HistogramSnapshot); 8] {
        [
            ("commit_latency", &self.commit_latency),
            ("group_batch_size", &self.group_batch_size),
            ("commit_queue_wait", &self.commit_queue_wait),
            ("commit_lock_wait", &self.commit_lock_wait),
            ("commit_apply", &self.commit_apply),
            ("commit_fsync", &self.commit_fsync),
            ("commit_ack", &self.commit_ack),
            ("read_lock_wait", &self.read_lock_wait),
        ]
    }

    /// The unit suffix of the histogram family `name`: `_ns` for the
    /// latency families, none for `group_batch_size` (commits per
    /// batch).  Both the Prometheus family names and the `sys$stats`
    /// percentile names carry it.
    pub fn histogram_unit(name: &str) -> &'static str {
        if name == "group_batch_size" {
            ""
        } else {
            "_ns"
        }
    }

    /// Sessions opened and not yet closed.
    pub fn active_sessions(&self) -> u64 {
        self.sessions_opened.saturating_sub(self.sessions_closed)
    }

    /// True iff no instrument ever fired — the disabled-recorder
    /// invariant asserted by the figures smoke check.
    pub fn is_zero(&self) -> bool {
        self.counters().iter().all(|(_, v)| *v == 0)
            && self.gauges().iter().all(|(_, v)| *v == 0)
            && self.histograms().iter().all(|(_, h)| h.samples == 0)
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            pager_page_reads: self.pager_page_reads - earlier.pager_page_reads,
            pager_page_writes: self.pager_page_writes - earlier.pager_page_writes,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            heap_rows_scanned: self.heap_rows_scanned - earlier.heap_rows_scanned,
            index_probes: self.index_probes - earlier.index_probes,
            segment_hits: self.segment_hits - earlier.segment_hits,
            segment_skips: self.segment_skips - earlier.segment_skips,
            segment_bloom_fps: self.segment_bloom_fps - earlier.segment_bloom_fps,
            commits: self.commits - earlier.commits,
            sessions_opened: self.sessions_opened - earlier.sessions_opened,
            sessions_closed: self.sessions_closed - earlier.sessions_closed,
            group_commit_batches: self.group_commit_batches - earlier.group_commit_batches,
            group_fsyncs_saved: self.group_fsyncs_saved - earlier.group_fsyncs_saved,
            submit_stalls: self.submit_stalls - earlier.submit_stalls,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_failures: self.checkpoint_failures - earlier.checkpoint_failures,
            net_requests: self.net_requests - earlier.net_requests,
            net_errors: self.net_errors - earlier.net_errors,
            net_bytes_in: self.net_bytes_in - earlier.net_bytes_in,
            net_bytes_out: self.net_bytes_out - earlier.net_bytes_out,
            // Gauges are level readings; a difference is meaningless,
            // so the delta carries the later reading unchanged.
            commit_queue_depth: self.commit_queue_depth,
            commit_queue_hwm: self.commit_queue_hwm,
            checkpoint_bytes: self.checkpoint_bytes,
            commit_latency: self.commit_latency.since(&earlier.commit_latency),
            group_batch_size: self.group_batch_size.since(&earlier.group_batch_size),
            commit_queue_wait: self.commit_queue_wait.since(&earlier.commit_queue_wait),
            commit_lock_wait: self.commit_lock_wait.since(&earlier.commit_lock_wait),
            commit_apply: self.commit_apply.since(&earlier.commit_apply),
            commit_fsync: self.commit_fsync.since(&earlier.commit_fsync),
            commit_ack: self.commit_ack.since(&earlier.commit_ack),
            read_lock_wait: self.read_lock_wait.since(&earlier.read_lock_wait),
        }
    }

    /// Prometheus text exposition (one `chronos_*` family per
    /// instrument; histograms use the cumulative `_bucket` form).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(&format!(
                "# TYPE chronos_{name} counter\nchronos_{name} {v}\n"
            ));
        }
        for (name, v) in self.gauges() {
            out.push_str(&format!(
                "# TYPE chronos_{name} gauge\nchronos_{name} {v}\n"
            ));
        }
        for (plain, h) in self.histograms() {
            let name = format!("{plain}{}", Self::histogram_unit(plain));
            out.push_str(&format!("# TYPE chronos_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cumulative += c;
                if c > 0 {
                    out.push_str(&format!(
                        "chronos_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        HistogramSnapshot::bucket_upper_bound(i)
                    ));
                }
            }
            out.push_str(&format!(
                "chronos_{name}_bucket{{le=\"+Inf\"}} {}\n",
                h.samples
            ));
            out.push_str(&format!("chronos_{name}_sum {}\n", h.total_ns));
            out.push_str(&format!("chronos_{name}_count {}\n", h.samples));
        }
        out
    }
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
        let text = m.to_prometheus();
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
        let counters = s.counters();
        assert!(counters.contains(&("index_probes", 3)));
        assert!(counters.contains(&("commits", 7)));
        let (name, latency) = s.histograms()[0];
        assert_eq!(name, "commit_latency");
        assert_eq!(latency.percentile(99.9), None);
        assert!(latency.buckets.iter().all(|&c| c == 0));
        let prom = s.to_prometheus();
        assert!(prom.contains("chronos_index_probes 3"));
        assert!(prom.contains("# TYPE chronos_commits counter"));
        assert!(prom.contains("chronos_commit_latency_ns_count 0"));
    }

    #[test]
    fn gauge_enumeration_is_consistent_across_renderings() {
        // The queue-depth gauge pair and the checkpoint length must
        // appear, under the same names, in the enumeration point and the
        // Prometheus exposition — the no-drift invariant for every
        // scraper.
        let s = MetricsSnapshot {
            commit_queue_depth: 3,
            commit_queue_hwm: 9,
            checkpoint_bytes: 4096,
            ..Default::default()
        };
        let gauges = s.gauges();
        assert_eq!(gauges.len(), 3);
        assert_eq!(gauges[0], ("commit_queue_depth", 3));
        assert_eq!(gauges[1], ("commit_queue_hwm", 9));
        assert_eq!(gauges[2], ("checkpoint_bytes", 4096));
        let prom = s.to_prometheus();
        for (name, v) in gauges {
            assert!(
                prom.contains(&format!("# TYPE chronos_{name} gauge")),
                "Prometheus missing gauge TYPE line for {name}"
            );
            assert!(
                prom.contains(&format!("chronos_{name} {v}")),
                "Prometheus missing gauge sample for {name}"
            );
        }
    }

    #[test]
    fn zero_detection() {
        let mut s = MetricsSnapshot::default();
        assert!(s.is_zero());
        s.index_probes = 1;
        assert!(!s.is_zero());
    }
}
