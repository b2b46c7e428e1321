//! The one declaration of every metric the benchmark reports: name,
//! unit, direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` is generated from this table (`--emit-benchmark-json`)
//! and a unit test holds the committed file equal to it.

use crate::model::Workload;

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The name printed and cited (`metric` on `workload`).
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// What a user of the server sees; measured over the socket, tracing off.
///
/// A bound is three times the widest interquartile spread the metric
/// showed on any workload over two sets of ten runs of the seed commit
/// (table in the README) — the driver's machine spread that much wider
/// than this one on the run it refused — and at most the contract's
/// 25 %, which every timed metric reaches or all but reaches.  `server_peak_rss_mb` keeps
/// 15 %, `disk_bytes_per_user_byte` — a count that repeats to 1 % — 5 %.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("stmts_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("read_p95_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p95_us", "us", Lower, 0.25),
    e2e("reopen_ms", "ms", Lower, 0.25),
    e2e("disk_bytes_per_user_byte", "B/B", Lower, 0.05),
    e2e("server_peak_rss_mb", "MiB", Lower, 0.15),
];

/// Single layers; measured in process by the traced pass, no bound.
pub const PER_LAYER: &[MetricDef] = &[
    layer("db.net.ping_us", "us", Lower),
    layer("db.net.overhead_us", "us", Lower),
    layer("db.net.render_us", "us", Lower),
    layer("db.net.bytes_out_per_stmt", "B", Lower),
    layer("tquel.parser.parse_us", "us", Lower),
    layer("tquel.analyze.analyze_us", "us", Lower),
    layer("tquel.exec.evaluate_us", "us", Lower),
    layer("tquel.exec.rows_examined_per_result", "ratio", Lower),
    layer("db.session.run_us", "us", Lower),
    layer("db.session.monitor_us", "us", Lower),
    layer("db.provider.scan_us", "us", Lower),
    layer("db.cache.hit_ratio", "ratio", Higher),
    layer("db.cache.frozen_hit_ratio", "ratio", Higher),
    layer("db.engine.commit_us", "us", Lower),
    layer("db.session.modify_us", "us", Lower),
    layer("db.session.modify_overhead_us", "us", Lower),
    layer("db.engine.fsyncs_per_commit", "ratio", Lower),
    layer("db.engine.group_batch_avg", "count", Higher),
    layer("db.engine.stage_queue_wait_p50_us", "us", Lower),
    layer("db.engine.stage_apply_p50_us", "us", Lower),
    layer("db.engine.stage_fsync_p50_us", "us", Lower),
    layer("db.engine.stage_ack_p50_us", "us", Lower),
    layer("db.engine.stage_apply_mean_us", "us", Lower),
    layer("db.engine.stage_fsync_mean_us", "us", Lower),
    layer("db.checkpoint.checkpoint_ms", "ms", Lower),
    layer("db.open.open_ms", "ms", Lower),
    layer("storage.table.scan_rows_us", "us", Lower),
    layer("storage.table.rollback_us", "us", Lower),
    layer("storage.table.valid_at_as_of_us", "us", Lower),
    layer("storage.table.lookup_key_as_of_us", "us", Lower),
    layer("storage.table.try_commit_us", "us", Lower),
    layer("storage.table.heap_pages", "count", Lower),
    layer("storage.wal.append_sync_us", "us", Lower),
    layer("storage.wal.group_sync_us", "us", Lower),
    layer("storage.wal.bytes_per_user_byte", "B/B", Lower),
    layer("storage.pager.hit_ratio", "ratio", Higher),
    layer("storage.segment.freeze_ms", "ms", Lower),
    layer("storage.segment.skip_ratio", "ratio", Higher),
    layer("storage.segment.dup_factor", "ratio", Lower),
    layer("algebra.join.overlap_join_us", "us", Lower),
    layer("algebra.join.hash_join_us", "us", Lower),
    layer("core.relation.rollback_ref_us", "us", Lower),
    layer("trace.unattributed_ratio", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The definition of `name`, in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let metric = |m: &MetricDef| {
        let mut s = format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        );
        if let Some(bound) = m.bound {
            s.push_str(&format!(", \"bound\": {bound}"));
        }
        s.push('}');
        s
    };
    let list = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200,
                "{} why is {} chars",
                w.name(),
                w.why().len()
            );
        }
    }
}
