//! `chronos` — an interactive TQuel shell over ChronosDB.
//!
//! ```text
//! cargo run -p chronos-db --bin chronos [-- [flags] <database-dir>]
//! ```
//!
//! With a directory argument the database is durable (catalog + WAL +
//! checkpoints + `events.jsonl` journal); without one it is in-memory.
//! Statements may span lines and are executed when a blank line (or end
//! of input) is reached, so the paper's multi-line queries paste
//! directly.
//!
//! Flags:
//!
//! ```text
//! --batch                  no prompt (for piped scripts); any statement
//!                          error makes the process exit non-zero
//! --serve ADDR             also serve TQuel over TCP on ADDR (e.g.
//!                          127.0.0.1:7878): concurrent clients each get
//!                          a snapshot-pinned session; writes go through
//!                          the group-commit queue.  The shell stays
//!                          usable; the service stops when it exits.
//! --connect ADDR           be a client of a running `--serve` instance
//!                          instead of opening a database: statements
//!                          are shipped to the server, results printed
//! --trace-id ID            (with --connect) stamp every shipped batch
//!                          with this trace id instead of letting the
//!                          server mint one — the id the server echoes
//!                          back is printed to stderr, and the same id
//!                          appears in the server's slow-query log,
//!                          `sys$sessions`, and events journal
//! --obs-addr ADDR          serve /metrics /stats /slow /wal /storage
//!                          /healthz /readyz on ADDR (e.g.
//!                          127.0.0.1:0); the bound
//!                          address is printed to stderr.  For durable
//!                          databases the exporter starts *before*
//!                          recovery, so /healthz reports 503 until the
//!                          WAL is replayed.
//! --slow-threshold-ns N    capture statements slower than N ns in the
//!                          slow-query log (0 captures everything)
//! --sample-interval-ms N   start the background stats sampler: every
//!                          N ms a snapshot of the engine counters is
//!                          appended to the `sys$stats` system relation
//!                          (queryable in TQuel, served at /history)
//! --stats-json             one-shot mode: open the database (replaying
//!                          its WAL if durable), print the engine's
//!                          statistics as `sys$stats` rows in JSON to
//!                          stdout, exit — the same document /stats
//!                          serves, without a server
//! --get ADDR PATH          one-shot mode: HTTP GET PATH from a running
//!                          exporter at ADDR, print status + body, exit
//! --check-jsonl FILE       one-shot mode: validate FILE as JSONL
//!                          (e.g. a database's events.jsonl), exit
//! --inspect DIR            one-shot doctor mode: walk a database
//!                          directory read-only — WITHOUT running
//!                          recovery — validating the WAL frame by
//!                          frame, the checkpoint, the catalog, and the
//!                          events journal; print a report and exit 0
//!                          (clean), 2 (torn/corrupt, offsets named),
//!                          or 1 (directory unreadable)
//! --inspect-json DIR       the same walk, but dump one JSON object
//!                          per WAL frame (plus a tail verdict) as
//!                          JSONL on stdout
//! ```
//!
//! Shell commands start with `\`:
//!
//! ```text
//! \d                 list relations and their classes
//! \checkpoint        checkpoint a durable database
//! \now               show the database clock
//! \advance mm/dd/yy  move the clock forward (great for replaying the paper)
//! \stats             engine counters (Prometheus text exposition)
//! \sessions          live sessions and connections (who is pinned where)
//! \slow              the slow-query log (captured profiles)
//! \sample            take one telemetry sample now (into sys$stats)
//! \top               query fingerprints by call count (per-operator
//!                    time: `profile <statement>`)
//! \obs PATH          GET PATH from this process's own exporter
//! \q                 quit
//! ```
//!
//! Any statement may be prefixed with `explain` (span tree, access
//! paths, row counts) or `profile` (the same plus wall times).

use std::io::{BufRead, Write};
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::clock::{Clock, ManualClock, SystemClock};
use chronos_db::{introspect, Database, Engine, ObsBootstrap, QueryClient, QueryServer};
use chronos_obs::export::ObsServer;

/// Parsed command line; `None` from [`Args::parse`] means a one-shot
/// mode already ran (or usage was printed) and the process should exit.
struct Args {
    dir: Option<std::path::PathBuf>,
    batch: bool,
    serve_addr: Option<String>,
    connect_addr: Option<String>,
    trace_id: Option<String>,
    obs_addr: Option<String>,
    slow_threshold_ns: Option<u64>,
    sample_interval_ms: Option<u64>,
    stats_json: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Option<Args>, String> {
        let mut args = Args {
            dir: None,
            batch: false,
            serve_addr: None,
            connect_addr: None,
            trace_id: None,
            obs_addr: None,
            slow_threshold_ns: None,
            sample_interval_ms: None,
            stats_json: false,
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--batch" => args.batch = true,
                "--serve" => {
                    let addr = it.next().ok_or("--serve takes an address")?;
                    args.serve_addr = Some(addr.clone());
                }
                "--connect" => {
                    let addr = it.next().ok_or("--connect takes an address")?;
                    args.connect_addr = Some(addr.clone());
                }
                "--trace-id" => {
                    let id = it.next().ok_or("--trace-id takes an id")?;
                    if id.is_empty() || id.len() > 255 {
                        return Err("--trace-id must be 1..=255 bytes".into());
                    }
                    args.trace_id = Some(id.clone());
                }
                "--obs-addr" => {
                    let addr = it.next().ok_or("--obs-addr takes an address")?;
                    args.obs_addr = Some(addr.clone());
                }
                "--slow-threshold-ns" => {
                    let n = it.next().ok_or("--slow-threshold-ns takes a number")?;
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("bad --slow-threshold-ns value {n:?}"))?;
                    args.slow_threshold_ns = Some(n);
                }
                "--sample-interval-ms" => {
                    let n = it.next().ok_or("--sample-interval-ms takes a number")?;
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("bad --sample-interval-ms value {n:?}"))?;
                    if n == 0 {
                        return Err("--sample-interval-ms must be positive".into());
                    }
                    args.sample_interval_ms = Some(n);
                }
                "--stats-json" => args.stats_json = true,
                "--get" => {
                    let addr = it.next().ok_or("--get takes ADDR PATH")?;
                    let path = it.next().ok_or("--get takes ADDR PATH")?;
                    match chronos_obs::http_get(addr, path) {
                        Ok((status, body)) => {
                            println!("{status}");
                            print!("{body}");
                            std::process::exit(if status == 200 { 0 } else { 2 });
                        }
                        Err(e) => {
                            eprintln!("GET {addr}{path} failed: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                "--check-jsonl" => {
                    let file = it.next().ok_or("--check-jsonl takes a file")?;
                    let text = std::fs::read_to_string(file)
                        .map_err(|e| format!("cannot read {file}: {e}"))?;
                    match chronos_obs::validate_jsonl(&text) {
                        Ok(n) => {
                            println!("{file}: {n} well-formed JSON line(s)");
                            std::process::exit(0);
                        }
                        Err(e) => {
                            eprintln!("{file}: {e}");
                            std::process::exit(2);
                        }
                    }
                }
                "--inspect" | "--inspect-json" => {
                    let json = arg == "--inspect-json";
                    let dir = it.next().ok_or(format!("{arg} takes a database dir"))?;
                    let dir = std::path::Path::new(dir);
                    match chronos_db::doctor::inspect(dir) {
                        Ok(report) => {
                            if json {
                                print!("{}", report.frames_jsonl());
                            } else {
                                print!("{}", report.human_report());
                            }
                            std::process::exit(report.exit_code());
                        }
                        Err(e) => {
                            eprintln!("cannot inspect {}: {e}", dir.display());
                            std::process::exit(1);
                        }
                    }
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag {other}"));
                }
                dir => {
                    if args.dir.is_some() {
                        return Err(format!("more than one database dir ({dir:?})"));
                    }
                    args.dir = Some(std::path::PathBuf::from(dir));
                }
            }
        }
        if args.connect_addr.is_some() && (args.serve_addr.is_some() || args.dir.is_some()) {
            return Err("--connect opens no database (drop --serve / the dir argument)".into());
        }
        if args.trace_id.is_some() && args.connect_addr.is_none() {
            return Err("--trace-id only applies to --connect mode".into());
        }
        if args.stats_json && args.connect_addr.is_some() {
            return Err(
                "--stats-json opens a database; use --get ADDR /stats against a server".into(),
            );
        }
        Ok(Some(args))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: chronos [--batch] [--serve ADDR] [--obs-addr ADDR] [--slow-threshold-ns N] [--sample-interval-ms N] [--stats-json] [dir]"
            );
            eprintln!("       chronos [--batch] --connect ADDR [--trace-id ID]");
            eprintln!("       chronos --get ADDR PATH");
            eprintln!("       chronos --check-jsonl FILE");
            eprintln!("       chronos --inspect DIR | --inspect-json DIR");
            std::process::exit(1);
        }
    };

    if let Some(addr) = &args.connect_addr {
        let client = match QueryClient::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("connected to chronos service at {addr}");
        let had_error = repl(
            Shell::Connect {
                client,
                trace_id: args.trace_id.clone(),
            },
            None,
            &None,
            !args.batch,
        );
        if args.batch && had_error {
            std::process::exit(1);
        }
        return;
    }

    // The clock starts at the epoch and only moves forward (transaction
    // time is append-only): `\advance` to any date — e.g. the paper's
    // 08/25/77 — before your first commit, or to today with
    // `\advance <today>`.
    let manual = Arc::new(ManualClock::new(chronos_core::chronon::Chronon::ZERO));
    let clock: Arc<dyn Clock> = manual.clone();
    let _today = SystemClock::default().now(); // printed in the banner below
    let mut obs_server: Option<ObsServer> = None;
    let mut db = match &args.dir {
        Some(dir) => {
            // The exporter comes up before recovery so /healthz honestly
            // reports 503 while the WAL replays.
            let obs = ObsBootstrap::new();
            if let Some(addr) = &args.obs_addr {
                match obs.serve(addr) {
                    Ok(server) => {
                        eprintln!("observability at http://{}/", server.addr());
                        obs_server = Some(server);
                    }
                    Err(e) => {
                        eprintln!("cannot serve observability on {addr}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            match Database::open_with_obs(dir, clock, &obs) {
                Ok(db) => {
                    eprintln!("opened durable database at {}", dir.display());
                    db
                }
                Err(e) => {
                    eprintln!("cannot open {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        None => {
            eprintln!("in-memory database (pass a directory for durability)");
            let db = Database::in_memory(clock);
            if let Some(addr) = &args.obs_addr {
                match db.serve_observability(addr) {
                    Ok(server) => {
                        eprintln!("observability at http://{}/", server.addr());
                        obs_server = Some(server);
                    }
                    Err(e) => {
                        eprintln!("cannot serve observability on {addr}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            db
        }
    };
    if args.stats_json {
        // One-shot: the /stats document on stdout, then exit —
        // scriptable without binding an exporter.
        let rows = introspect::stats_rows(&db.engine_stats(), db.now());
        println!("{}", introspect::document(&[("sys$stats", &rows)]));
        return;
    }
    if let Some(ns) = args.slow_threshold_ns {
        db.set_slow_query_threshold_ns(ns);
    }
    if let Some(ms) = args.sample_interval_ms {
        match db.start_stats_sampler(std::time::Duration::from_millis(ms)) {
            Ok(()) => eprintln!("stats sampler running every {ms}ms (retrieve from sys$stats)"),
            Err(e) => {
                eprintln!("cannot start stats sampler: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "clock at {} — use \\advance mm/dd/yy to move it (today is {})",
        chronos_core::calendar::Date::from_chronon(db.now()),
        chronos_core::calendar::Date::from_chronon(_today)
    );

    // The database moves into the engine; with `--serve` the shell is
    // one more session beside the network clients.
    let engine = Engine::start(db);
    let server =
        args.serve_addr
            .as_ref()
            .map(|addr| match QueryServer::serve(Arc::clone(&engine), addr) {
                Ok(server) => {
                    eprintln!("TQuel service at {} (chronos --connect)", server.addr());
                    server
                }
                Err(e) => {
                    eprintln!("cannot serve TQuel on {addr}: {e}");
                    std::process::exit(1);
                }
            });
    let had_error = repl(
        Shell::Engine {
            session: Box::new(engine.session()),
            engine: Arc::clone(&engine),
        },
        Some(&manual),
        &obs_server,
        !args.batch,
    );
    if let Some(server) = server {
        server.shutdown();
    }
    drop(engine); // drains the writer and closes the database
    drop(obs_server); // joins the accept thread
    if args.batch && had_error {
        std::process::exit(1);
    }
}

/// The two faces of the shell: a session over this process's engine
/// (beside the TQuel service, with `--serve`), or a network client of
/// a running service.
enum Shell {
    Engine {
        session: Box<chronos_db::Session>,
        engine: Arc<Engine>,
    },
    Connect {
        client: QueryClient,
        trace_id: Option<String>,
    },
}

impl Shell {
    /// Runs one statement batch; returns `false` if it errored.
    fn execute(&mut self, src: &str) -> bool {
        match self {
            Shell::Engine { session, .. } => {
                // Mirror the service: each batch begins a fresh read
                // snapshot, then holds it for the whole program.
                session.refresh();
                match session.run(src) {
                    Ok(outcomes) => {
                        // The same text the service answers with.
                        print!("{}", chronos_db::net::render_outcomes(&outcomes));
                        true
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        false
                    }
                }
            }
            Shell::Connect { client, trace_id } => {
                let result = match trace_id {
                    Some(id) => client.execute_traced(src, id),
                    None => client.execute(src),
                };
                match result {
                    Ok(response) => {
                        if trace_id.is_some() {
                            eprintln!("  [trace {}]", response.trace_id);
                        }
                        print!("{}", response.body);
                        if !response.ok {
                            eprintln!("error: {}", response.body.trim_end());
                        }
                        response.ok
                    }
                    Err(e) => {
                        eprintln!("error: connection failed: {e}");
                        false
                    }
                }
            }
        }
    }

    /// Runs `f` with read access to the engine state, if this shell
    /// has any (a `--connect` client does not).
    fn with_db<R>(&mut self, f: impl FnOnce(&Database) -> R) -> Option<R> {
        match self {
            Shell::Engine { engine, .. } => Some(engine.with_db(f)),
            Shell::Connect { .. } => None,
        }
    }

    fn checkpoint(&mut self) -> Option<Result<(), chronos_db::DbError>> {
        match self {
            Shell::Engine { engine, .. } => Some(engine.checkpoint()),
            Shell::Connect { .. } => None,
        }
    }
}

/// The line loop shared by both shell modes.  Returns true if any
/// statement errored.
fn repl(
    mut shell: Shell,
    manual: Option<&Arc<ManualClock>>,
    obs_server: &Option<ObsServer>,
    interactive: bool,
) -> bool {
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    // Batch scripts (heredocs in CI) must fail loudly: any statement
    // error makes the whole run exit non-zero.
    let mut had_error = false;
    if interactive {
        print!("chronos> ");
        let _ = std::io::stdout().flush();
    }
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.starts_with('\\') {
            if !buffer.trim().is_empty() {
                had_error |= !shell.execute(&buffer);
                buffer.clear();
            }
            let mut parts = trimmed.split_whitespace();
            match parts.next() {
                Some("\\q") | Some("\\quit") => break,
                Some("\\d") => match shell.with_db(|db| {
                    let mut out = String::new();
                    for name in db.relation_names() {
                        let class = db.classify(&name).expect("cataloged");
                        let stored = db.relation(&name).expect("cataloged").stored_tuples();
                        out.push_str(&format!("  {name}  [{class}]  {stored} stored tuples\n"));
                    }
                    for name in chronos_db::system_relation_names() {
                        out.push_str(&format!("  {name}  [system, read-only]\n"));
                    }
                    out
                }) {
                    Some(listing) => print!("{listing}"),
                    None => eprintln!("  \\d is not available over --connect"),
                },
                Some("\\now") => match shell.with_db(|db| db.now()) {
                    Some(now) => {
                        println!("  {}", chronos_core::calendar::Date::from_chronon(now))
                    }
                    None => eprintln!("  \\now is not available over --connect"),
                },
                Some("\\advance") => match (manual, parts.next().map(date)) {
                    (Some(manual), Some(Ok(t))) => {
                        manual.advance_to(t);
                        println!("  clock at {}", chronos_core::calendar::Date::from_chronon(t));
                    }
                    (None, _) => eprintln!("  \\advance is not available over --connect"),
                    _ => eprintln!("usage: \\advance mm/dd/yy"),
                },
                Some("\\checkpoint") => match shell.checkpoint() {
                    Some(Ok(())) => println!("  checkpointed"),
                    Some(Err(e)) => {
                        eprintln!("  {e}");
                        had_error = true;
                    }
                    None => eprintln!("  \\checkpoint is not available over --connect"),
                },
                Some("\\stats") => match shell.with_db(|db| db.engine_stats().to_prometheus()) {
                    Some(stats) => print!("{stats}"),
                    None => eprintln!("  \\stats is not available over --connect"),
                },
                Some("\\sessions") => match shell.with_db(|db| {
                    render_sessions(
                        db.session_registry().sessions(),
                        db.session_registry().connections(),
                    )
                }) {
                    Some(listing) => print!("{listing}"),
                    None => eprintln!("  \\sessions is not available over --connect"),
                },
                Some("\\slow") => match shell.with_db(|db| db.recorder().slowlog().render()) {
                    Some(slow) => print!("{slow}"),
                    None => eprintln!("  \\slow is not available over --connect"),
                },
                Some("\\sample") => match shell.with_db(|db| db.sample_now()) {
                    Some(at) => println!(
                        "  sampled at {} (retrieve from sys$stats)",
                        chronos_core::calendar::Date::from_chronon(at)
                    ),
                    None => eprintln!("  \\sample is not available over --connect"),
                },
                Some("\\top") => match shell.with_db(|db| db.recorder().fingerprints().render()) {
                    Some(top) => print!("{top}"),
                    None => eprintln!("  \\top is not available over --connect"),
                },
                Some("\\obs") => match (obs_server, parts.next()) {
                    (Some(server), Some(path)) => {
                        match chronos_obs::http_get(&server.addr().to_string(), path) {
                            Ok((status, body)) => {
                                println!("{status} {path}");
                                print!("{body}");
                            }
                            Err(e) => eprintln!("  GET {path} failed: {e}"),
                        }
                    }
                    (None, _) => eprintln!("  no exporter (start with --obs-addr ADDR)"),
                    (_, None) => eprintln!("usage: \\obs /healthz"),
                },
                Some(other) => eprintln!("unknown command {other} (try \\d, \\now, \\advance, \\checkpoint, \\stats, \\sessions, \\slow, \\sample, \\top, \\obs, \\q)"),
                None => {}
            }
        } else if trimmed.is_empty() {
            if !buffer.trim().is_empty() {
                had_error |= !shell.execute(&buffer);
                buffer.clear();
            }
        } else {
            buffer.push_str(&line);
            buffer.push('\n');
        }
        if interactive && buffer.trim().is_empty() {
            print!("chronos> ");
            let _ = std::io::stdout().flush();
        }
    }
    if !buffer.trim().is_empty() {
        had_error |= !shell.execute(&buffer);
    }
    had_error
}

/// Renders the live session/connection registry (the `\sessions` twin
/// of the exporter's `/sessions` endpoint and the `sys$sessions` /
/// `sys$connections` system relations).
fn render_sessions(
    sessions: Vec<chronos_db::SessionRow>,
    connections: Vec<chronos_db::ConnRow>,
) -> String {
    let mut out = String::new();
    if sessions.is_empty() {
        out.push_str("  (no live sessions)\n");
    } else {
        out.push_str("  session      pin  statements      idle  trace\n");
        for s in &sessions {
            out.push_str(&format!(
                "  {:>7}  {:>7}  {:>10}  {:>6}ms  {}\n",
                s.session_id,
                s.pin_ticks,
                s.statements,
                s.idle_ns / 1_000_000,
                if s.trace_id.is_empty() {
                    "-"
                } else {
                    &s.trace_id
                },
            ));
        }
    }
    if connections.is_empty() {
        out.push_str("  (no network connections)\n");
    } else {
        out.push_str("  conn  session  requests    bytes in   bytes out  peer\n");
        for c in &connections {
            out.push_str(&format!(
                "  {:>4}  {:>7}  {:>8}  {:>10}  {:>10}  {}\n",
                c.conn_id, c.session_id, c.requests, c.bytes_in, c.bytes_out, c.peer
            ));
        }
    }
    out
}
