//! The end-to-end run: what a client of the server sees, tracing off.
//!
//! One run repeats the whole measurement several times, each repetition
//! on a fresh directory and a fresh server process: set the server up
//! (spawn + load + ready: `setup_s`), drive it over one closed-loop
//! connection — for an equal share of `--seconds`, cut into short
//! windows, where the state is read-only; for a fixed number of
//! statements, one window, where it grows — then size its directory, kill
//! and reopen it several times and read back everything that was
//! acknowledged.  Every window gives one value per timing, every
//! repetition one per other metric, and the run reports their median
//! or, of those a stall of the disk moves, the mean of their better third
//! (see [`summarise`]).  Every response in every phase is checked.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chronos_db::QueryClient;

use crate::metrics::{self, Better};
use crate::model::{Plan, Stmt, Workload, CLOCK_START};
use crate::server::{dir_bytes, Server};
use crate::stats::{percentile, tail_is_thin, Summary};
use crate::{Outcome, Tally};

/// The tail quantile reported beside each median: p95, the highest one
/// every workload supports with ten samples beyond it in a repetition.
const TAIL: f64 = 0.95;

/// Where and how long to run.
pub struct Config {
    /// The release `chronos` binary.
    pub chronos: PathBuf,
    /// Scratch directory for database directories.
    pub data_dir: PathBuf,
    /// Measured time of the read-only workloads, all windows together.
    pub seconds: u64,
    /// Workload seed.
    pub seed: u64,
}

/// Sends one statement, returning its client-side latency in µs and
/// whether the answer was the expected one.
fn execute(client: &mut QueryClient, stmt: &Stmt) -> (f64, Result<(), String>) {
    let started = Instant::now();
    let response = client.execute(&stmt.text);
    let latency = started.elapsed().as_secs_f64() * 1e6;
    let checked = match response {
        Ok(r) => stmt.expect.check(r.ok, &r.body),
        Err(e) => Err(format!("connection failed: {e}")),
    };
    (latency, checked)
}

/// A connection with its range variables declared that has answered a
/// ping.
fn ready_client(server: &Server, plan: &Plan) -> Result<QueryClient, String> {
    let mut client = server.connect()?;
    let declared = client
        .execute(&plan.ranges)
        .map_err(|e| format!("range declarations: connection failed: {e}"))?;
    if !declared.ok {
        return Err(format!("range declarations: {}", declared.body.trim_end()));
    }
    match client.ping() {
        Ok(true) => Ok(client),
        other => Err(format!("ping failed: {other:?}")),
    }
}

/// Client-side latencies of one phase, µs, reads and writes apart.
#[derive(Default)]
struct Latencies {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
}

impl Latencies {
    fn push(&mut self, stmt: &Stmt, latency_us: f64) {
        if stmt.is_write {
            self.write_us.push(latency_us);
        } else {
            self.read_us.push(latency_us);
        }
    }

    fn len(&self) -> usize {
        self.read_us.len() + self.write_us.len()
    }
}

/// A metric's values — one per window, per reopen or per repetition —
/// and the measurements they were drawn from.
struct Values {
    name: &'static str,
    values: Vec<f64>,
    samples: u64,
    /// True when one stalled `fsync` is enough to move a value: a tail
    /// or a rate over durable writes, a load's duration (see
    /// [`summarise`]).
    disk_bound: bool,
}

impl Values {
    fn new(name: &'static str) -> Values {
        Values {
            name,
            values: Vec::new(),
            samples: 0,
            disk_bound: false,
        }
    }

    fn one(name: &'static str, value: f64) -> Values {
        Values {
            values: vec![value],
            samples: 1,
            ..Values::new(name)
        }
    }
}

/// Adds the p50 and the tail of one window's (or one load's) latencies.
/// True when fewer than ten samples lie beyond the tail.
fn push_quantiles(p50: &mut Values, tail: &mut Values, us: &mut [f64]) -> bool {
    us.sort_by(f64::total_cmp);
    for (into, p) in [(p50, 0.5), (tail, TAIL)] {
        into.values.push(percentile(us, p));
        into.samples += us.len() as u64;
    }
    tail_is_thin(us.len(), TAIL)
}

/// What one repetition measured.
struct Repetition {
    /// Every end-to-end metric, in declaration order.
    metrics: Vec<Values>,
    /// Statements of the measured windows, and how long they took.
    statements: usize,
    measured: Duration,
    checkpoints: u64,
    /// Tail metrics with fewer than ten samples beyond the quantile in
    /// some window.
    thin: Vec<&'static str>,
}

/// Runs one repetition of `plan` on `dir`.
fn repetition(
    cfg: &Config,
    plan: &mut Plan,
    dir: &Path,
    window: Duration,
    tally: &mut Tally,
) -> Result<Repetition, String> {
    let workload = plan.workload;
    let _ = std::fs::remove_dir_all(dir);

    // Set up: spawn, create, load through one connection, one ready
    // connection.
    let started = Instant::now();
    let mut server = Server::spawn(&cfg.chronos, dir)?;
    server.command_reply(&format!("\\advance {CLOCK_START}"))?;
    let mut loader = server.connect()?;
    for ddl in plan.ddl.iter().chain([&plan.ranges]) {
        let r = loader
            .execute(ddl)
            .map_err(|e| format!("{ddl}: connection failed: {e}"))?;
        if !r.ok {
            return Err(format!("{ddl}: {}", r.body.trim_end()));
        }
    }
    let mut load = Latencies::default();
    for stmt in &plan.load {
        let (latency, checked) = execute(&mut loader, stmt);
        load.push(stmt, latency);
        tally.check(&stmt.text, checked);
    }
    drop(loader);
    let mut client = ready_client(&server, plan)?;
    let setup = started.elapsed();
    let mut user_bytes: u64 = plan.load.iter().map(|s| s.user_bytes).sum();

    // The closed loop: next statement only after the previous response,
    // no think time, until the fixed count has run or, without one, the
    // window ends.
    let fixed = workload.fixed_statements();
    let mut windows: Vec<(Latencies, Duration)> = Vec::new();
    let mut checkpoints_sent = 0;
    for _ in 0..workload.windows() {
        let mut driven = Latencies::default();
        let start = Instant::now();
        let mut measured = Duration::ZERO;
        while fixed.map_or_else(|| start.elapsed() < window, |n| plan.stream.issued() < n) {
            let stmt = plan.stream.next_stmt();
            let (latency, checked) = execute(&mut client, &stmt);
            measured = start.elapsed();
            driven.push(&stmt, latency);
            let lost = matches!(&checked, Err(why) if why.starts_with("connection failed"));
            if checked.is_ok() {
                user_bytes += stmt.user_bytes;
            }
            tally.check(&stmt.text, checked);
            if lost {
                return Err(format!("{}: the connection was lost", workload.name()));
            }
            if plan.stream.checkpoint_due() && server.command("\\checkpoint").is_ok() {
                checkpoints_sent += 1;
            }
        }
        windows.push((driven, measured));
    }

    // Let requested checkpoints finish, so that the directory that is
    // measured (and then killed) is quiescent.
    let mut checkpoints = 0;
    let waited = Instant::now();
    while checkpoints < checkpoints_sent && waited.elapsed() < Duration::from_secs(60) {
        checkpoints += server.drain_replies().len() as u64;
        std::thread::sleep(Duration::from_millis(1));
    }
    // A final checkpoint and a fixed unmeasured tail: the directory is a
    // checkpoint image plus a log tail, as a server's mostly is.
    let tail = workload.tail_statements();
    if tail > 0 {
        server.command_reply("\\checkpoint")?;
        checkpoints += 1;
        for _ in 0..tail {
            let stmt = plan.stream.next_stmt();
            let (_, checked) = execute(&mut client, &stmt);
            if checked.is_ok() {
                user_bytes += stmt.user_bytes;
            }
            tally.check(&stmt.text, checked);
        }
    }
    drop(client);
    let peak_rss_mb = server.peak_rss_mb()?;
    let disk_bytes = dir_bytes(dir);

    // Kill and reopen, then re-read what was acknowledged.  (A kill
    // leaves the OS cache intact: this is weaker than the repository's
    // fault matrix, which truncates the log.)
    let mut reopens_ms = Vec::new();
    for _ in 0..workload.reopens() {
        server.kill();
        let started = Instant::now();
        server = Server::spawn(&cfg.chronos, dir)?;
        let alive = server.connect()?.ping();
        reopens_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if !matches!(alive, Ok(true)) {
            return Err(format!("reopened server did not answer a ping: {alive:?}"));
        }
    }
    let mut verifier = ready_client(&server, plan)?;
    for stmt in plan.stream.verification() {
        let (_, checked) = execute(&mut verifier, &stmt);
        tally.check(&stmt.text, checked);
    }

    let mut rate = Values::new("stmts_per_s");
    let [mut read_p50, mut read_p95, mut write_p50, mut write_p95] =
        ["read_p50_us", "read_p95_us", "write_p50_us", "write_p95_us"].map(Values::new);
    let mut thin = Vec::new();
    for (driven, measured) in &mut windows {
        if driven.read_us.is_empty() {
            return Err("a window completed no read".into());
        }
        rate.values
            .push(driven.len() as f64 / measured.as_secs_f64());
        rate.samples += driven.len() as u64;
        if push_quantiles(&mut read_p50, &mut read_p95, &mut driven.read_us) {
            thin.push(read_p95.name);
        }
        if !driven.write_us.is_empty() {
            rate.disk_bound = true;
            if push_quantiles(&mut write_p50, &mut write_p95, &mut driven.write_us) {
                thin.push(write_p95.name);
            }
        }
    }
    write_p95.disk_bound = true;
    // Read-only windows: the durable single-statement commits of the
    // load are this workload's writes.
    if write_p50.values.is_empty() {
        push_quantiles(&mut write_p50, &mut write_p95, &mut load.write_us);
    }
    let metrics = vec![
        Values {
            disk_bound: true,
            ..Values::one("setup_s", setup.as_secs_f64())
        },
        rate,
        read_p50,
        read_p95,
        write_p50,
        write_p95,
        Values {
            samples: reopens_ms.len() as u64,
            values: reopens_ms,
            ..Values::new("reopen_ms")
        },
        Values::one(
            "disk_bytes_per_user_byte",
            disk_bytes as f64 / user_bytes as f64,
        ),
        Values::one("server_peak_rss_mb", peak_rss_mb),
    ];
    Ok(Repetition {
        metrics,
        statements: windows.iter().map(|(driven, _)| driven.len()).sum(),
        measured: windows.iter().map(|(_, measured)| *measured).sum(),
        checkpoints,
        thin,
    })
}

/// Removes the run's database directories when the run ends, however it
/// ends.  Not earlier: the filesystem discards freed blocks with its next
/// journal commits, and an `fsync` that has to wait for that takes ten
/// times as long — deleting one repetition's files slowed the next one's
/// load.
struct Directories(Vec<PathBuf>);

impl Drop for Directories {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Every metric's values over all repetitions, in declaration order.
fn pooled(reps: &[Repetition]) -> Vec<Values> {
    let mut all: Vec<Values> = Vec::new();
    for rep in reps {
        for (i, m) in rep.metrics.iter().enumerate() {
            if all.len() <= i {
                all.push(Values {
                    disk_bound: m.disk_bound,
                    ..Values::new(m.name)
                });
            }
            all[i].values.extend(&m.values);
            all[i].samples += m.samples;
        }
    }
    all
}

/// The run's value of a metric: the median of its values, unless one
/// stalled `fsync` is enough to move a value — then the mean of the
/// better third of them (the lowest where lower is better).  The sandbox
/// shares its disk: stalls come in spells that can touch more than half
/// of a run's windows, and only ever add time.  A median over tails or
/// rates of durable writes then reports the neighbour (the driver's
/// machine spread 31–41 % on them), the better third still the program.
/// A p50 shrugs a stall off inside its window, and reads never reach
/// the disk, so those keep the median — which in turn ignores the host's
/// other habit, a spell of a quarter more speed a fifth of the time, that
/// a better third would catch more or less of.
fn summarise(m: &Values) -> (&'static str, Summary) {
    let summary = if m.disk_bound {
        let higher = metrics::find(m.name).is_some_and(|def| def.better == Better::Higher);
        Summary::better_third(&m.values, higher, m.samples)
    } else {
        Summary::of(&m.values, m.samples)
    };
    (m.name, summary)
}

/// Runs `workload` end to end and reports every end-to-end metric.
pub fn run(workload: Workload, cfg: &Config) -> Result<Outcome, String> {
    let repetitions = workload.repetitions();
    let window = Duration::from_secs(cfg.seconds) / (repetitions * workload.windows()) as u32;
    let mut tally = Tally::default();
    let mut directories = Directories(Vec::new());
    let mut reps = Vec::new();
    for i in 0..repetitions {
        // Generated outside the timed set-up: the generator is not the
        // system under test.
        let mut plan = Plan::generate(workload, cfg.seed);
        let dir = cfg.data_dir.join(format!("{}-{i}", workload.name()));
        directories.0.push(dir.clone());
        reps.push(repetition(cfg, &mut plan, &dir, window, &mut tally)?);
    }
    drop(directories);

    let mut thin: Vec<&'static str> = reps.iter().flat_map(|rep| rep.thin.clone()).collect();
    thin.sort_unstable();
    thin.dedup();
    if !thin.is_empty() {
        eprintln!(
            "chronobench: {}: fewer than ten samples beyond the quantile in some window of {thin:?}",
            workload.name()
        );
    }
    let all = pooled(&reps);
    let each: Vec<String> = all
        .iter()
        .map(|m| format!("{} {:?}", m.name, m.values))
        .collect();
    let sum = |f: fn(&Repetition) -> f64| reps.iter().map(f).sum::<f64>();
    let notes = vec![
        ("repetitions", reps.len().to_string()),
        ("statements", sum(|rep| rep.statements as f64).to_string()),
        (
            "measured_s",
            sum(|rep| rep.measured.as_secs_f64()).to_string(),
        ),
        ("checkpoints", sum(|rep| rep.checkpoints as f64).to_string()),
        ("thin_tails", thin.join(" ")),
        ("each_value", each.join("; ")),
    ];
    Ok(Outcome {
        metrics: all.iter().map(summarise).collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        mismatches: tally.mismatches,
        notes,
    })
}

/// The directory a run keeps its databases in.
pub fn data_dir(build_dir: &Path) -> PathBuf {
    build_dir.join("chronobench")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(setup_s: f64, write_p95_us: &[f64]) -> Repetition {
        Repetition {
            metrics: vec![
                Values::one("setup_s", setup_s),
                Values {
                    values: write_p95_us.to_vec(),
                    samples: 400,
                    disk_bound: true,
                    ..Values::new("write_p95_us")
                },
            ],
            statements: 400,
            measured: Duration::from_millis(100),
            checkpoints: 0,
            thin: Vec::new(),
        }
    }

    #[test]
    fn stalled_windows_do_not_move_a_disk_bound_value() {
        // Three repetitions of two windows, four of the six stalled.
        let reps = [
            rep(0.5, &[10.0, 900.0]),
            rep(0.6, &[1_000.0, 12.0]),
            rep(0.7, &[800.0, 700.0]),
        ];
        let mut all = pooled(&reps);
        assert_eq!(all[0].values, [0.5, 0.6, 0.7]);
        let (name, p95) = summarise(&all[1]);
        assert_eq!(
            (name, p95.value, p95.samples),
            ("write_p95_us", 11.0, 1_200)
        );
        assert!(p95.q3 > 700.0, "the quartiles still show them");
        // Anything else takes the median of the same values.
        all[1].disk_bound = false;
        assert_eq!(summarise(&all[1]).1.value, 750.0);
    }

    #[test]
    fn quantiles_sort_and_flag_a_thin_tail() {
        let (mut p50, mut p95) = (Values::new("a"), Values::new("b"));
        let mut us: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let thin = push_quantiles(&mut p50, &mut p95, &mut us);
        assert!(!thin, "200 samples leave ten beyond the p95");
        assert!(push_quantiles(&mut p50, &mut p95, &mut us[1..]));
        assert_eq!(
            (p50.values[0], p95.values[0], p95.samples),
            (100.0, 190.0, 399)
        );
    }
}
