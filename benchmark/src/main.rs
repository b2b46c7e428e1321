//! `chronobench` — the end-to-end + per-layer benchmark of ChronosDB.
//!
//! Run through `benchmark/run.sh`, which builds the server and this
//! program first.  Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` measures one
//!   workload once and prints one JSON object as the last line of
//!   stdout (`--trace 0`: the end-to-end metrics over the socket,
//!   tracing off; `--trace 1`: the per-layer metrics of the traced
//!   in-process pass);
//! * without `--workload`, every workload is measured both ways and
//!   every metric printed as `workload name unit value`;
//! * `--agree` measures every workload end to end several times on each
//!   of two sides of the same tree and compares the sides against the
//!   bounds (`--against-seconds S` gives the second side another window
//!   length: the metrics must not depend on it).
//!
//! See `benchmark/README.md` for every metric and workload.

mod cpu;
mod e2e;
mod layers;
mod metrics;
mod model;
mod server;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use model::Workload;
use stats::Summary;

/// What measuring one workload one way produced.
pub struct Outcome {
    /// Every metric of the mode, by declared name.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Statements (and direct layer operations) whose result was checked.
    pub attempted: u64,
    /// Errors, wrong answers and acknowledged-but-lost writes.
    pub failed: u64,
    /// The first few failures, for the log.
    pub mismatches: Vec<String>,
    /// Counts worth keeping beside the metrics (provenance).
    pub notes: Vec<(&'static str, String)>,
}

/// Counts checked results and keeps the first few failures for the log.
#[derive(Default)]
pub struct Tally {
    /// Results checked.
    pub attempted: u64,
    /// Results that were wrong.
    pub failed: u64,
    /// The first few failures.
    pub mismatches: Vec<String>,
}

impl Tally {
    /// How many failures are kept verbatim.
    const KEPT: usize = 5;

    /// Counts one checked result of `what`.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.mismatches.len() < Tally::KEPT {
                self.mismatches.push(format!("{what}: {why}"));
            }
        }
    }
}

#[derive(Clone)]
struct Args {
    chronos: PathBuf,
    build_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    agree: bool,
    against_seconds: Option<u64>,
}

fn seconds(value: &str) -> Result<u64, String> {
    match value.parse() {
        Ok(s) if (1..=60).contains(&s) => Ok(s),
        _ => Err(format!("a window is 1..=60 seconds, not {value:?}")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        chronos: PathBuf::new(),
        build_dir: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        agree: false,
        against_seconds: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} takes a value"))
                .cloned()
        };
        match flag.as_str() {
            "--chronos" => args.chronos = PathBuf::from(value()?),
            "--build-dir" => args.build_dir = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => args.seconds = seconds(&value()?)?,
            "--against-seconds" => args.against_seconds = Some(seconds(&value()?)?),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.chronos.as_os_str().is_empty() || args.build_dir.as_os_str().is_empty() {
        return Err("--chronos and --build-dir are required (use benchmark/run.sh)".into());
    }
    if args.against_seconds.is_some() && !args.agree {
        return Err("--against-seconds goes with --agree".into());
    }
    Ok(args)
}

/// Measures `workload` once: over the socket (`traced == false`) or
/// layer by layer in process.
fn measure(workload: Workload, traced: bool, args: &Args) -> Result<Outcome, String> {
    let cfg = e2e::Config {
        chronos: args.chronos.clone(),
        data_dir: e2e::data_dir(&args.build_dir),
        seconds: args.seconds,
        seed: args.seed,
    };
    std::fs::create_dir_all(&cfg.data_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.data_dir.display()))?;
    // Both passes, and the server, run on one CPU (see `cpu.rs`).
    let cpu = cpu::confine_to_one();
    if cpu.is_none() {
        eprintln!(
            "chronobench: cannot confine the run to one CPU; the scheduler places its threads"
        );
    }
    let mut outcome = if traced {
        layers::run(workload, &cfg)?
    } else {
        e2e::run(workload, &cfg)?
    };
    outcome.notes.push(("seconds", args.seconds.to_string()));
    outcome.notes.push((
        "confined_to_cpu",
        cpu.map_or("no".to_string(), |cpu| cpu.to_string()),
    ));
    let declared = if traced { PER_LAYER } else { END_TO_END };
    for def in declared {
        match outcome.metrics.iter().find(|(name, _)| *name == def.name) {
            None => return Err(format!("{} was not measured", def.name)),
            Some((_, s)) if !s.value.is_finite() => {
                return Err(format!("{} measured as {}", def.name, s.value))
            }
            Some(_) => {}
        }
    }
    for m in &outcome.mismatches {
        eprintln!("chronobench: {}: FAILED {m}", workload.name());
    }
    Ok(outcome)
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("?", |m| m.unit)
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(name, _)| metrics::find(name).is_some())
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.value,
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp every result carries: what ran, where, on what.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let data_dir = e2e::data_dir(&args.build_dir);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("date", command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ("nproc", nproc.to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        ("data_dir_filesystem", server::filesystem_type(&data_dir)),
        ("seed", args.seed.to_string()),
        ("connections", "1".to_string()),
        (
            "load_model",
            "closed loop, one connection, one statement in flight, no think time".into(),
        ),
        (
            "flush_policy",
            "server default: one WAL fsync per group-commit batch, acknowledged after it".into(),
        ),
    ]
}

fn json_object(pairs: &[(&'static str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", metrics::json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One measured (workload, mode) of a result file.
struct Section {
    workload: Workload,
    traced: bool,
    outcome: Outcome,
}

/// Writes `result.json` whole: provenance plus every section measured by
/// this invocation.  Never merged into the repository's `BENCH_*.json`.
fn write_result(args: &Args, sections: &[Section]) -> Result<PathBuf, String> {
    let mut out = format!(
        "{{\n  \"provenance\": {},\n  \"results\": [\n",
        json_object(&provenance(args))
    );
    let rendered: Vec<String> = sections
        .iter()
        .map(|s| {
            let metrics: Vec<String> = s
                .outcome
                .metrics
                .iter()
                .map(|(name, m)| {
                    format!(
                        "        {{\"name\": \"{name}\", \"unit\": \"{}\", \"value\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                        unit_of(name), m.value, m.q1, m.q3, m.samples
                    )
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"counts\": {},\n      \"metrics\": [\n{}\n      ]}}",
                s.workload.name(),
                u8::from(s.traced),
                s.outcome.attempted,
                s.outcome.failed,
                json_object(&s.outcome.notes),
                metrics.join(",\n")
            )
        })
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  ]\n}\n");
    let path = e2e::data_dir(&args.build_dir).join("result.json");
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Measures every workload both ways, printing each metric as
/// `workload name unit value` (quartiles and sample count beside it).
fn full_set(args: &Args) -> Result<Vec<Section>, String> {
    let mut sections = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let outcome = measure(workload, traced, args)?;
            for (name, s) in &outcome.metrics {
                println!(
                    "{} {name} {} {}  (q1 {} q3 {} n {})",
                    workload.name(),
                    unit_of(name),
                    s.value,
                    s.q1,
                    s.q3,
                    s.samples
                );
            }
            println!(
                "{} {} attempted {} failed {} failed_ratio {}",
                workload.name(),
                if traced { "traced" } else { "end_to_end" },
                outcome.attempted,
                outcome.failed,
                outcome.failed as f64 / outcome.attempted.max(1) as f64
            );
            sections.push(Section {
                workload,
                traced,
                outcome,
            });
        }
    }
    Ok(sections)
}

/// `trace.unattributed_ratio` above this means the traced composition no
/// longer explains the real statement: the full run fails.
const MAX_UNATTRIBUTED: f64 = 0.05;

fn value_of(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, m)| m.value)
        .expect("measure() checked every declared metric")
}

/// True when every traced section's layers add up to its real statement.
fn layers_add_up(sections: &[Section]) -> bool {
    let mut ok = true;
    for s in sections.iter().filter(|s| s.traced) {
        let ratio = value_of(&s.outcome, "trace.unattributed_ratio");
        if ratio > MAX_UNATTRIBUTED {
            eprintln!(
                "chronobench: {}: trace.unattributed_ratio {ratio} exceeds {MAX_UNATTRIBUTED}",
                s.workload.name()
            );
            ok = false;
        }
    }
    ok
}

/// End-to-end runs per side of `--agree`.  A side's value is their
/// median and its spread the distance between their quartiles — the
/// run-to-run spread, which single-valued metrics (memory, disk) have too.
const AGREE_RUNS: usize = 3;

/// How two sides measuring one end-to-end metric on the same code relate.
fn verdict(def: &MetricDef, first: &Summary, second: &Summary) -> &'static str {
    let bound = def.bound.expect("end-to-end metrics have a bound");
    let apart = (second.value - first.value).abs() / first.value.abs();
    let spread = |s: &Summary| (s.q3 - s.q1).abs() / s.value.abs();
    if apart <= bound {
        "ok"
    } else if spread(first).max(spread(second)) > bound {
        "unresolved"
    } else {
        "disagree"
    }
}

fn agree(args: &Args) -> Result<bool, String> {
    let mut other = args.clone();
    other.seconds = args.against_seconds.unwrap_or(args.seconds);
    let sides = [args, &other];
    let mut agreed = true;
    let mut sections = Vec::new();
    for workload in Workload::ALL {
        let mut runs: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
        for run in 0..AGREE_RUNS {
            // Alternate which side goes first, so drift falls on both.
            for side in [run % 2, 1 - run % 2] {
                runs[side].push(measure(workload, false, sides[side])?);
            }
        }
        for def in END_TO_END {
            let side = |runs: &[Outcome]| {
                let values: Vec<f64> = runs.iter().map(|o| value_of(o, def.name)).collect();
                Summary::of(&values, values.len() as u64)
            };
            let (x, y) = (side(&runs[0]), side(&runs[1]));
            let v = verdict(def, &x, &y);
            agreed &= v != "disagree";
            println!(
                "agree {} {} {} first {} (q1 {} q3 {}) second {} (q1 {} q3 {}) bound {} {v}",
                workload.name(),
                def.name,
                def.unit,
                x.value,
                x.q1,
                x.q3,
                y.value,
                y.q1,
                y.q3,
                def.bound.expect("bound")
            );
        }
        sections.extend(runs.into_iter().flatten().map(|outcome| Section {
            workload,
            traced: false,
            outcome,
        }));
    }
    write_result(args, &sections)?;
    Ok(agreed && sections.iter().all(|s| s.outcome.failed == 0))
}

fn run(argv: &[String]) -> Result<bool, String> {
    if argv.iter().any(|a| a == "--emit-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return Ok(true);
    }
    let args = parse_args(argv)?;
    if args.agree {
        return agree(&args);
    }
    match (args.workload, args.trace) {
        (Some(workload), Some(traced)) => {
            let outcome = measure(workload, traced, &args)?;
            let line = result_line(&outcome);
            let path = write_result(
                &args,
                &[Section {
                    workload,
                    traced,
                    outcome,
                }],
            )?;
            eprintln!("chronobench: wrote {}", path.display());
            // The verdict travels in the line's `correct` and `failed`
            // fields; a run that printed its result exits 0.
            println!("{line}");
            Ok(true)
        }
        (Some(_), None) | (None, Some(_)) => {
            Err("--workload and --trace go together (omit both to run everything)".into())
        }
        (None, None) => {
            let sections = full_set(&args)?;
            let path = write_result(&args, &sections)?;
            eprintln!("chronobench: wrote {}", path.display());
            Ok(layers_add_up(&sections) && sections.iter().all(|s| s.outcome.failed == 0))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "chronobench: FAILED (wrong answers, lost writes, unexplained time or disagreeing runs)"
            );
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("chronobench: error: {e}");
            ExitCode::from(2)
        }
    }
}
