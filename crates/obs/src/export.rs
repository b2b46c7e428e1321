//! The embedded HTTP observability exporter.
//!
//! A zero-dependency HTTP/1.1 server over [`std::net::TcpListener`]
//! serving eleven read-only endpoints:
//!
//! | endpoint               | body                                   | status    |
//! |------------------------|----------------------------------------|-----------|
//! | `/metrics`             | Prometheus text exposition             | 200       |
//! | `/stats`               | engine stats JSON                      | 200       |
//! | `/slow`                | slow-query log JSON                    | 200       |
//! | `/queries`             | query-fingerprint workload JSON        | 200       |
//! | `/sessions`            | live session/connection JSON           | 200       |
//! | `/events?n=N`          | last N event-journal entries (JSON)    | 200       |
//! | `/history?metric=&n=`  | sampled metric history (JSON)          | 200       |
//! | `/wal`                 | physical WAL statistics (JSON)         | 200       |
//! | `/storage`             | per-relation page/heap stats (JSON)    | 200       |
//! | `/healthz`             | `ok` / `starting`                      | 200 / 503 |
//! | `/readyz`              | readiness detail JSON                  | 200 / 503 |
//!
//! The server knows nothing about the database: it reads everything
//! through the [`ObsSource`] trait, which the `db` crate implements over
//! its `Arc`-shared recorder, health state, and telemetry.  Requests
//! are handled one at a time on a single background thread — the
//! endpoints are all cheap snapshot reads, and a scrape interval is
//! orders of magnitude longer than a response.
//!
//! [`http_get`] is the matching `curl`-equivalent raw-TCP client, used
//! by the CLI helper mode, the integration tests, and `check.sh`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine readiness, flag by flag.  `/healthz` and `/readyz` flip from
/// 503 to 200 once every stage of recovery has completed; the `db` layer
/// marks the flags as `Database::open` progresses.
#[derive(Debug, Default)]
pub struct Health {
    catalog_loaded: AtomicBool,
    checkpoint_loaded: AtomicBool,
    wal_recovered: AtomicBool,
    // Informational: whether the background stats sampler is running.
    // Deliberately not part of ready() — a database without a sampler
    // is fully serviceable.
    sampler_running: AtomicBool,
}

impl Health {
    /// All flags down: the engine is still recovering.
    pub fn starting() -> Health {
        Health::default()
    }

    /// All flags up (an in-memory database has nothing to recover).
    pub fn ready_now() -> Health {
        let h = Health::default();
        h.mark_catalog_loaded();
        h.mark_checkpoint_loaded();
        h.mark_wal_recovered();
        h
    }

    pub fn mark_catalog_loaded(&self) {
        self.catalog_loaded.store(true, Ordering::Release);
    }

    pub fn mark_checkpoint_loaded(&self) {
        self.checkpoint_loaded.store(true, Ordering::Release);
    }

    pub fn mark_wal_recovered(&self) {
        self.wal_recovered.store(true, Ordering::Release);
    }

    /// Records whether the background stats sampler is running (shown
    /// in `/readyz`, never gates readiness).
    pub fn mark_sampler(&self, running: bool) {
        self.sampler_running.store(running, Ordering::Release);
    }

    /// True while the background stats sampler thread is alive.
    pub fn sampler_running(&self) -> bool {
        self.sampler_running.load(Ordering::Acquire)
    }

    /// True once catalog, checkpoint image, and WAL recovery are done.
    pub fn ready(&self) -> bool {
        self.catalog_loaded.load(Ordering::Acquire)
            && self.checkpoint_loaded.load(Ordering::Acquire)
            && self.wal_recovered.load(Ordering::Acquire)
    }

    /// Readiness detail (the `/readyz` body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ready\": {}, \"catalog_loaded\": {}, \"checkpoint_loaded\": {}, \
             \"wal_recovered\": {}, \"sampler_running\": {}}}",
            self.ready(),
            self.catalog_loaded.load(Ordering::Acquire),
            self.checkpoint_loaded.load(Ordering::Acquire),
            self.wal_recovered.load(Ordering::Acquire),
            self.sampler_running.load(Ordering::Acquire)
        )
    }
}

/// What the exporter serves.  Implemented by the `db` crate over its
/// shared engine handles; the server itself holds no database borrow.
pub trait ObsSource: Send + Sync {
    /// `/metrics`: Prometheus text exposition.
    fn prometheus(&self) -> String;
    /// `/stats`: engine statistics JSON.
    fn stats_json(&self) -> String;
    /// `/slow`: slow-query log JSON.
    fn slow_json(&self) -> String;
    /// `/queries`: query-fingerprint workload aggregates JSON.
    /// Sources without a fingerprint store report an empty list.
    fn queries_json(&self) -> String {
        "{\"queries\": []}".to_string()
    }
    /// `/events?n=N`: last `n` event-journal entries as a JSON array of
    /// objects.  Sources without a journal return `{"events": []}`.
    fn events_json(&self, n: usize) -> String {
        let _ = n;
        "{\"events\": []}".to_string()
    }
    /// `/history?metric=&n=`: the last `n` sampled values of `metric`
    /// from the telemetry store, as `{"metric": ..., "samples": [...]}`.
    fn history_json(&self, metric: &str, n: usize) -> String {
        let _ = n;
        format!(
            "{{\"metric\": \"{}\", \"samples\": []}}",
            crate::events::escape_json(metric)
        )
    }
    /// `/sessions`: live session and connection introspection JSON.
    /// Sources without an engine session registry report empty lists.
    fn sessions_json(&self) -> String {
        "{\"sessions\": [], \"connections\": []}".to_string()
    }
    /// `/wal`: physical WAL statistics (the `sys$wal` rows as JSON).
    /// Sources without a physical snapshot report an empty list.
    fn wal_json(&self) -> String {
        "{\"wal\": []}".to_string()
    }
    /// `/storage`: per-relation page/heap statistics (the `sys$pages`
    /// rows as JSON).  Sources without a physical snapshot report an
    /// empty list.
    fn storage_json(&self) -> String {
        "{\"storage\": []}".to_string()
    }
    /// Readiness for `/healthz` + `/readyz`.
    fn health(&self) -> &Health;
}

/// A running exporter; shuts down when dropped.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// the observability endpoints from a background thread.
pub fn serve(addr: &str, source: Arc<dyn ObsSource>) -> std::io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("chronos-obs".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = stream {
                    // Diagnostic plane: a failed response never matters
                    // beyond the one scrape that lost it.
                    let _ = handle_connection(stream, source.as_ref());
                }
            }
        })?;
    Ok(ObsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

fn handle_connection(mut stream: TcpStream, source: &dyn ObsSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let request_line = read_request_line(&mut stream)?;
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            return respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                "bad request\n",
            )
        }
    };
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    const PROM: &str = "text/plain; version=0.0.4";
    const JSON: &str = "application/json";
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/metrics" => respond(&mut stream, 200, "OK", PROM, &source.prometheus()),
        "/stats" => respond(&mut stream, 200, "OK", JSON, &source.stats_json()),
        "/slow" => respond(&mut stream, 200, "OK", JSON, &source.slow_json()),
        "/queries" => respond(&mut stream, 200, "OK", JSON, &source.queries_json()),
        "/sessions" => respond(&mut stream, 200, "OK", JSON, &source.sessions_json()),
        "/wal" => respond(&mut stream, 200, "OK", JSON, &source.wal_json()),
        "/storage" => respond(&mut stream, 200, "OK", JSON, &source.storage_json()),
        "/events" => {
            let n = query_param(query, "n")
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_EVENTS_TAIL);
            respond(&mut stream, 200, "OK", JSON, &source.events_json(n))
        }
        "/history" => match query_param(query, "metric") {
            Some(metric) if !metric.is_empty() => {
                let n = query_param(query, "n")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(DEFAULT_HISTORY_TAIL);
                respond(
                    &mut stream,
                    200,
                    "OK",
                    JSON,
                    &source.history_json(&metric, n),
                )
            }
            _ => respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                "missing ?metric= parameter\n",
            ),
        },
        "/healthz" => {
            if source.health().ready() {
                respond(&mut stream, 200, "OK", "text/plain", "ok\n")
            } else {
                respond(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "starting\n",
                )
            }
        }
        "/readyz" => {
            let health = source.health();
            let body = health.to_json();
            if health.ready() {
                respond(&mut stream, 200, "OK", JSON, &body)
            } else {
                respond(&mut stream, 503, "Service Unavailable", JSON, &body)
            }
        }
        _ => respond(&mut stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

/// Default tail length for `/events` when `?n=` is absent.
pub const DEFAULT_EVENTS_TAIL: usize = 64;

/// Default tail length for `/history` when `?n=` is absent.
pub const DEFAULT_HISTORY_TAIL: usize = 32;

/// Extracts `key` from an `a=1&b=2` query string (no percent-decoding:
/// the observability parameters are metric names and counts).
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.to_string())
    })
}

/// Reads up to the end of the request head (or 8 KiB) and returns the
/// request line.
fn read_request_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    Ok(head.lines().next().unwrap_or("").to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    // Bodies are newline-terminated so terminal consumers (curl, the
    // CLI's `\obs`) leave the cursor on a fresh line.
    let newline = if body.ends_with('\n') { "" } else { "\n" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len() + newline.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.write_all(newline.as_bytes())?;
    stream.flush()
}

/// `curl`-equivalent raw-TCP GET: returns `(status, body)`.  The shared
/// test helper behind the CLI's `--get` mode, the integration tests, and
/// the `check.sh` smoke probes.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = match response.find("\r\n\r\n") {
        Some(at) => response[at + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeSource {
        health: Health,
    }

    impl ObsSource for FakeSource {
        fn prometheus(&self) -> String {
            "# TYPE chronos_commits counter\nchronos_commits 7\n".to_string()
        }
        fn stats_json(&self) -> String {
            "{\"metrics\": {}}".to_string()
        }
        fn slow_json(&self) -> String {
            "[]".to_string()
        }
        fn events_json(&self, n: usize) -> String {
            format!("{{\"requested\": {n}, \"events\": []}}")
        }
        fn history_json(&self, metric: &str, n: usize) -> String {
            format!("{{\"metric\": \"{metric}\", \"requested\": {n}, \"samples\": []}}")
        }
        fn health(&self) -> &Health {
            &self.health
        }
    }

    #[test]
    fn serves_every_endpoint() {
        let server = serve(
            "127.0.0.1:0",
            Arc::new(FakeSource {
                health: Health::ready_now(),
            }),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("chronos_commits 7"));
        // JSON bodies come back newline-terminated.
        assert_eq!(
            http_get(&addr, "/stats").unwrap(),
            (200, "{\"metrics\": {}}\n".into())
        );
        assert_eq!(http_get(&addr, "/slow").unwrap(), (200, "[]\n".into()));
        // The default queries body for sources without a fingerprint store.
        assert_eq!(
            http_get(&addr, "/queries").unwrap(),
            (200, "{\"queries\": []}\n".into())
        );
        // The default sessions body for sources without a registry.
        assert_eq!(
            http_get(&addr, "/sessions").unwrap(),
            (200, "{\"sessions\": [], \"connections\": []}\n".into())
        );
        // The default physical-storage bodies for sources without a
        // snapshot store.
        assert_eq!(
            http_get(&addr, "/wal").unwrap(),
            (200, "{\"wal\": []}\n".into())
        );
        assert_eq!(
            http_get(&addr, "/storage").unwrap(),
            (200, "{\"storage\": []}\n".into())
        );
        assert_eq!(http_get(&addr, "/healthz").unwrap(), (200, "ok\n".into()));
        let (status, body) = http_get(&addr, "/readyz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ready\": true"));
        assert!(body.contains("\"sampler_running\": false"));
        assert_eq!(http_get(&addr, "/nope").unwrap().0, 404);
        server.shutdown();
    }

    #[test]
    fn query_string_endpoints_route_and_validate() {
        let server = serve(
            "127.0.0.1:0",
            Arc::new(FakeSource {
                health: Health::ready_now(),
            }),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/events?n=5").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"requested\": 5"));
        // Default n when the parameter is absent or malformed.
        let (_, body) = http_get(&addr, "/events").unwrap();
        assert!(body.contains(&format!("\"requested\": {DEFAULT_EVENTS_TAIL}")));
        let (_, body) = http_get(&addr, "/events?n=bogus").unwrap();
        assert!(body.contains(&format!("\"requested\": {DEFAULT_EVENTS_TAIL}")));
        let (status, body) = http_get(&addr, "/history?metric=commits&n=3").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"metric\": \"commits\""));
        assert!(body.contains("\"requested\": 3"));
        // metric is mandatory.
        assert_eq!(http_get(&addr, "/history").unwrap().0, 400);
        assert_eq!(http_get(&addr, "/history?n=3").unwrap().0, 400);
        server.shutdown();
    }

    #[test]
    fn unready_health_reports_503() {
        let source = Arc::new(FakeSource {
            health: Health::starting(),
        });
        let server = serve("127.0.0.1:0", Arc::clone(&source) as Arc<dyn ObsSource>).unwrap();
        let addr = server.addr().to_string();
        assert_eq!(http_get(&addr, "/healthz").unwrap().0, 503);
        let (status, body) = http_get(&addr, "/readyz").unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"ready\": false"));
        // Flip the flags while the server runs: 503 becomes 200.
        source.health.mark_catalog_loaded();
        source.health.mark_checkpoint_loaded();
        source.health.mark_wal_recovered();
        assert_eq!(http_get(&addr, "/healthz").unwrap().0, 200);
        server.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let server = serve(
            "127.0.0.1:0",
            Arc::new(FakeSource {
                health: Health::ready_now(),
            }),
        )
        .unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }

    #[test]
    fn shutdown_frees_the_port_quickly() {
        let server = serve(
            "127.0.0.1:0",
            Arc::new(FakeSource {
                health: Health::ready_now(),
            }),
        )
        .unwrap();
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: connecting may succeed transiently on
        // some stacks, but a GET must not be answered.
        assert!(http_get(&addr.to_string(), "/healthz").is_err());
    }
}
