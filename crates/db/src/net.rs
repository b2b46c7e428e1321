//! The TQuel network endpoint: a zero-dependency TCP query service.
//!
//! [`QueryServer`] accepts connections on a `TcpListener` and gives
//! each one its own thread owning a snapshot-pinned
//! [`Session`](crate::session::Session) — the wire-level
//! twin of the embedded observability exporter in `chronos-obs`
//! (single accept loop, stop-flag + connect-kick shutdown), but
//! read-write and session-oriented.
//!
//! ## Protocol
//!
//! Length-prefixed binary frames, little-endian, over one TCP stream:
//!
//! ```text
//! request:   [u32 len] [u8 opcode] [payload: len-1 bytes]
//! response:  [u32 len] [u8 status] [u8 trace_len] [trace_id] [body]
//! ```
//!
//! | opcode | payload | meaning                                      |
//! |--------|---------|----------------------------------------------|
//! | 1      | `[u8 trace_len][trace_id][UTF-8 program]` — execute  |
//! |        | under a fresh snapshot (the pin refreshes first).    |
//! |        | `trace_len 0` asks the server to mint the trace id.  |
//! | 2      | ignored — ping, answers `pong`                       |
//! | 3      | as 1, but the session keeps its existing snapshot    |
//!
//! | status | meaning                                                |
//! |--------|--------------------------------------------------------|
//! | 0      | ok — body is the rendered outcomes (CLI text)          |
//! | 1      | error — body is the error message                      |
//!
//! Every response carries the trace id the request ran under
//! (client-chosen when supplied, server-minted otherwise; empty for
//! pings and protocol errors), so clients can correlate a wire
//! response with the server's slow-query log, `sys$sessions`, and
//! events journal.
//!
//! A frame longer than [`MAX_FRAME_BYTES`] (or truncated mid-frame by
//! a hangup) is a protocol violation: the server answers one clean
//! error frame (best effort), counts it in `net_errors`, and closes.
//! Statements acknowledge only after their covering group fsync, so a
//! status-0 `append` is durable.
//!
//! [`QueryClient`] is the matching blocking client (used by the CLI's
//! `--connect` mode and the bench harness).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use chronos_obs::Recorder;
use chronos_tquel::printer::render;

use crate::engine::Engine;
use crate::introspect::SessionRegistry;
use crate::session::{ExecOutcome, Session};

/// Hard cap on one frame (request or response).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Execute a TQuel program under a fresh snapshot.
pub const OP_EXECUTE: u8 = 1;
/// Liveness probe.
pub const OP_PING: u8 = 2;
/// Execute a TQuel program under the session's existing snapshot.
pub const OP_EXECUTE_PINNED: u8 = 3;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// How often blocked connection reads re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// One response from the query service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// True iff the request succeeded (status byte 0).
    pub ok: bool,
    /// The trace id the request ran under — the client-chosen id when
    /// one was supplied, the server-minted one otherwise (empty for
    /// pings and protocol errors).
    pub trace_id: String,
    /// Rendered outcomes on success, the error message on failure.
    pub body: String,
}

/// A running TQuel query service; shuts down when dropped.
pub struct QueryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<StdMutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl QueryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serves TQuel sessions over `engine` from background threads —
    /// one acceptor plus one thread per connection.
    pub fn serve(engine: Arc<Engine>, addr: &str) -> std::io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(StdMutex::new(Vec::new()));
        let stop_flag = Arc::clone(&stop);
        let conn_reg = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name("chronos-serve".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let engine = Arc::clone(&engine);
                    let stop = Arc::clone(&stop_flag);
                    let handle = std::thread::Builder::new()
                        .name("chronos-conn".to_string())
                        .spawn(move || {
                            // A dropped connection is the client's
                            // problem; the server keeps accepting.
                            let _ = serve_connection(stream, &engine, &stop);
                        });
                    if let Ok(handle) = handle {
                        conn_reg.lock().expect("conns lock").push(handle);
                    }
                }
            })?;
        Ok(QueryServer {
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, disconnects every session, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self.conns.lock().expect("conns lock").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// One connection's request loop: owns a pinned session for its whole
/// lifetime.  Returns when the peer hangs up, violates the protocol,
/// or the server stops.
fn serve_connection(
    mut stream: TcpStream,
    engine: &Arc<Engine>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let recorder = Arc::clone(engine.recorder());
    let registry = Arc::clone(engine.session_registry());
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut session = engine.session();
    let conn_id = registry.register_connection(peer, session.session_id());
    let result = serve_requests(
        &mut stream,
        stop,
        &mut session,
        &recorder,
        &registry,
        conn_id,
    );
    registry.deregister_connection(conn_id);
    result
}

/// The per-connection request loop, factored out so the registry entry
/// is removed on every exit path.
fn serve_requests(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    session: &mut Session,
    recorder: &Recorder,
    registry: &SessionRegistry,
    conn_id: u64,
) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (opcode, payload) = match read_frame(stream, stop, &mut buf) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Protocol violation (oversized length word, truncated
                // frame): answer one clean error frame — best effort,
                // the peer may already be gone — count it, and close.
                recorder.count(|m| &m.net_requests);
                recorder.count(|m| &m.net_errors);
                registry.record_conn_io(conn_id, 0, 0);
                let body = format!("protocol error: {e}");
                let _ = write_response(stream, STATUS_ERR, "", body.as_bytes());
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let frame_in = (4 + 1 + payload.len()) as u64;
        recorder.count(|m| &m.net_requests);
        recorder.count_n(|m| &m.net_bytes_in, frame_in);
        let (status, trace, body) = match opcode {
            OP_PING => (STATUS_OK, String::new(), "pong".to_string()),
            OP_EXECUTE | OP_EXECUTE_PINNED => match decode_execute(&payload) {
                Ok((trace_id, src)) => {
                    if opcode == OP_EXECUTE {
                        // Each request is its own read transaction:
                        // see everything durable up to now, then hold
                        // that snapshot for the whole program.
                        session.refresh();
                    }
                    session.set_trace_id(trace_id);
                    let result = session.run(src);
                    // `run` resolved the trace id (client-chosen or
                    // minted); echo it either way so the client can
                    // correlate even a failed request.
                    let trace = session.last_trace_id().to_string();
                    match result {
                        Ok(outcomes) => (STATUS_OK, trace, render_outcomes(&outcomes)),
                        Err(e) => (STATUS_ERR, trace, e.to_string()),
                    }
                }
                Err(msg) => (STATUS_ERR, String::new(), msg),
            },
            other => (STATUS_ERR, String::new(), format!("unknown opcode {other}")),
        };
        if status == STATUS_ERR {
            recorder.count(|m| &m.net_errors);
        }
        let frame_out = (4 + 1 + 1 + trace.len() + body.len()) as u64;
        write_response(stream, status, &trace, body.as_bytes())?;
        recorder.count_n(|m| &m.net_bytes_out, frame_out);
        registry.record_conn_io(conn_id, frame_in, frame_out);
    }
}

/// Splits an execute payload into its trace-id prefix and program text.
fn decode_execute(payload: &[u8]) -> Result<(&str, &str), String> {
    let Some((&tlen, rest)) = payload.split_first() else {
        return Err("empty execute payload".to_string());
    };
    let tlen = tlen as usize;
    if rest.len() < tlen {
        return Err(format!("trace id length {tlen} exceeds the payload"));
    }
    let trace =
        std::str::from_utf8(&rest[..tlen]).map_err(|_| "trace id is not UTF-8".to_string())?;
    let src = std::str::from_utf8(&rest[tlen..]).map_err(|_| "payload is not UTF-8".to_string())?;
    Ok((trace, src))
}

/// Writes one `[status][trace_len][trace_id][body]` response frame.
fn write_response(
    stream: &mut TcpStream,
    status: u8,
    trace: &str,
    body: &[u8],
) -> std::io::Result<()> {
    debug_assert!(trace.len() <= u8::MAX as usize);
    let mut payload = Vec::with_capacity(1 + trace.len() + body.len());
    payload.push(trace.len() as u8);
    payload.extend_from_slice(trace.as_bytes());
    payload.extend_from_slice(body);
    write_frame(stream, status, &payload)
}

/// Extracts the next complete frame from `stream`, buffering partial
/// reads in `buf` and re-checking `stop` every [`POLL_INTERVAL`].
/// `Ok(None)` means orderly end (EOF between frames, or server stop);
/// EOF with a partial frame buffered is an `InvalidData` error.
fn read_frame(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    loop {
        if buf.len() >= 4 {
            let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
            if len == 0 || len > MAX_FRAME_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad frame length {len}"),
                ));
            }
            if buf.len() >= 4 + len {
                let opcode = buf[4];
                let payload = buf[5..4 + len].to_vec();
                buf.drain(..4 + len);
                return Ok(Some((opcode, payload)));
            }
        }
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                // The peer hung up mid-frame.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("truncated frame ({} bytes buffered at EOF)", buf.len()),
                ));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

fn write_frame(stream: &mut TcpStream, head: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = 1 + payload.len();
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame too large ({len} bytes)"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(head);
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Renders a statement batch's outcomes the way the CLI prints them —
/// the response body of a status-0 execute.
pub fn render_outcomes(outcomes: &[ExecOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        match outcome {
            ExecOutcome::Retrieved(rel) => {
                out.push_str(&render(rel));
                out.push_str(&format!(
                    "({} row{})\n",
                    rel.len(),
                    if rel.len() == 1 { "" } else { "s" }
                ));
            }
            ExecOutcome::Appended(t) => {
                out.push_str(&format!(
                    "appended (transaction time {})\n",
                    chronos_core::calendar::Date::from_chronon(*t)
                ));
            }
            ExecOutcome::Materialized { relation, rows } => {
                out.push_str(&format!("materialized {rows} row(s) into {relation}\n"));
            }
            ExecOutcome::Deleted(n) => out.push_str(&format!("deleted {n} row(s)\n")),
            ExecOutcome::Replaced(n) => out.push_str(&format!("replaced {n} row(s)\n")),
            ExecOutcome::Created => out.push_str("created\n"),
            ExecOutcome::Destroyed => out.push_str("destroyed\n"),
            ExecOutcome::Explained { profile, report } => {
                out.push_str(&format!(
                    "{} plan:\n",
                    if *profile { "profile" } else { "explain" }
                ));
                for line in report.lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
            ExecOutcome::Analyzed { relation, stats } => {
                out.push_str(&format!(
                    "analyzed {relation} ({stats} statistic(s) into sys$tablestats)\n"
                ));
            }
            ExecOutcome::Frozen {
                relation,
                versions,
                chains,
                file_bytes,
            } => {
                if *versions == 0 {
                    out.push_str(&format!("froze {relation}: nothing freezable\n"));
                } else {
                    out.push_str(&format!(
                        "froze {relation}: {versions} version(s) in {chains} chain(s), \
                         {file_bytes} bytes\n"
                    ));
                }
            }
            ExecOutcome::Declared => {}
        }
    }
    out
}

/// A blocking client for the query service: one TCP connection, one
/// server-side session.
pub struct QueryClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl QueryClient {
    /// Connects to a running [`QueryServer`].
    pub fn connect(addr: &str) -> std::io::Result<QueryClient> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
        let stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // Generous: an execute blocks on its covering group fsync.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(QueryClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Executes a TQuel program under a fresh snapshot; the server
    /// mints the trace id (echoed in [`Response::trace_id`]).
    pub fn execute(&mut self, src: &str) -> std::io::Result<Response> {
        self.execute_traced(src, "")
    }

    /// [`execute`](Self::execute) under a client-chosen trace id
    /// (at most 255 bytes; empty asks the server to mint one), for
    /// end-to-end correlation with the server's slow-query log,
    /// `sys$sessions`, and events journal.
    pub fn execute_traced(&mut self, src: &str, trace_id: &str) -> std::io::Result<Response> {
        self.request(OP_EXECUTE, &encode_execute(src, trace_id)?)
    }

    /// Executes a TQuel program under the session's pinned snapshot
    /// (taken at connect, or at the last plain `execute`).
    pub fn execute_pinned(&mut self, src: &str) -> std::io::Result<Response> {
        self.request(OP_EXECUTE_PINNED, &encode_execute(src, "")?)
    }

    /// Liveness probe; true iff the server answered `pong`.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        let r = self.request(OP_PING, b"")?;
        Ok(r.ok && r.body == "pong")
    }

    fn request(&mut self, opcode: u8, payload: &[u8]) -> std::io::Result<Response> {
        write_frame(&mut self.stream, opcode, payload)?;
        let (status, payload) = self.read_response()?;
        // Every response leads with its trace-id prefix.
        let Some((&tlen, rest)) = payload.split_first() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "empty response frame",
            ));
        };
        let tlen = tlen as usize;
        if rest.len() < tlen {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response trace id length {tlen} exceeds the payload"),
            ));
        }
        Ok(Response {
            ok: status == STATUS_OK,
            trace_id: String::from_utf8_lossy(&rest[..tlen]).into_owned(),
            body: String::from_utf8_lossy(&rest[tlen..]).into_owned(),
        })
    }

    fn read_response(&mut self) -> std::io::Result<(u8, Vec<u8>)> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if len == 0 || len > MAX_FRAME_BYTES {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad frame length {len}"),
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let status = self.buf[4];
                    let payload = self.buf[5..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok((status, payload));
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Builds an execute payload: `[u8 trace_len][trace_id][program]`.
fn encode_execute(src: &str, trace_id: &str) -> std::io::Result<Vec<u8>> {
    if trace_id.len() > u8::MAX as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("trace id too long ({} bytes, max 255)", trace_id.len()),
        ));
    }
    let mut payload = Vec::with_capacity(1 + trace_id.len() + src.len());
    payload.push(trace_id.len() as u8);
    payload.extend_from_slice(trace_id.as_bytes());
    payload.extend_from_slice(src.as_bytes());
    Ok(payload)
}

impl std::fmt::Debug for QueryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryClient").finish()
    }
}
