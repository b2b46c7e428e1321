//! The TQuel network service end to end over loopback: many clients
//! against one engine, snapshot semantics of pinned vs refreshing
//! requests, error propagation, and clean shutdown.

use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine, QueryClient, QueryServer};

fn serve_fresh() -> (Arc<Engine>, QueryServer) {
    let clock = Arc::new(ManualClock::new(Chronon::new(0)));
    let db = Database::in_memory(clock);
    let engine = Engine::start(db);
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    let server = QueryServer::serve(Arc::clone(&engine), "127.0.0.1:0").expect("serve");
    (engine, server)
}

#[test]
fn four_clients_replay_fifty_statements_each() {
    let (engine, server) = serve_fresh();
    let addr = server.addr().to_string();
    let mut handles = Vec::new();
    for c in 0..4 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = QueryClient::connect(&addr).expect("connect");
            assert!(client.ping().expect("ping"), "service answers ping");
            for i in 0..50 {
                let resp = if i % 5 == 4 {
                    // Every fifth statement reads back through the
                    // same connection's session.
                    client
                        .execute("range of f is faculty retrieve (f.name)")
                        .expect("retrieve round trip")
                } else {
                    client
                        .execute(&format!(
                            r#"append to faculty (name = "c{c}s{i:02}", rank = "assistant")"#
                        ))
                        .expect("append round trip")
                };
                assert!(resp.ok, "statement {i} on client {c} failed: {}", resp.body);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    // 4 clients × 40 appends each actually committed.
    let stats = engine.stats();
    assert_eq!(stats.metrics.commits, 160);
    let rows = engine
        .session()
        .query("range of f is faculty retrieve (f.name)")
        .expect("final count")
        .rows
        .len();
    assert_eq!(rows, 160);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn pinned_requests_hold_their_snapshot_but_execute_refreshes() {
    let (engine, server) = serve_fresh();
    let addr = server.addr().to_string();
    let mut reader = QueryClient::connect(&addr).expect("reader connect");
    let mut writer = QueryClient::connect(&addr).expect("writer connect");
    let q = "range of f is faculty retrieve (f.name)";
    // Pin the reader's connection at the empty relation.
    let before = reader.execute_pinned(q).expect("pin");
    assert!(before.ok);
    let resp = writer
        .execute(r#"append to faculty (name = "Merrie", rank = "full")"#)
        .expect("append");
    assert!(resp.ok, "{}", resp.body);
    // Pinned requests keep serving the old snapshot...
    let pinned = reader.execute_pinned(q).expect("pinned read");
    assert_eq!(pinned.body, before.body, "pinned snapshot moved");
    // ...while a plain execute refreshes to the durable watermark.
    let fresh = reader.execute(q).expect("refreshing read");
    assert_ne!(fresh.body, before.body, "execute must see the commit");
    assert!(fresh.body.contains("Merrie"));
    server.shutdown();
    engine.shutdown();
}

#[test]
fn service_reports_errors_without_dropping_the_connection() {
    let (engine, server) = serve_fresh();
    let addr = server.addr().to_string();
    let mut client = QueryClient::connect(&addr).expect("connect");
    let bad = client.execute("retrieve (f.name)").expect("round trip");
    assert!(!bad.ok, "undeclared range variable must fail");
    assert!(!bad.body.is_empty(), "error responses carry a message");
    // The connection (and its session) survives the error.
    let good = client
        .execute(r#"append to faculty (name = "Ann", rank = "lecturer")"#)
        .expect("round trip after error");
    assert!(good.ok, "{}", good.body);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn client_chosen_trace_id_round_trips_end_to_end() {
    let clock = Arc::new(ManualClock::new(Chronon::new(0)));
    let db = Database::in_memory(clock);
    // Capture everything so the traced statement lands in the slow log.
    db.set_slow_query_threshold_ns(0);
    let engine = Engine::start(db);
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    let server = QueryServer::serve(Arc::clone(&engine), "127.0.0.1:0").expect("serve");
    let addr = server.addr().to_string();

    let mut client = QueryClient::connect(&addr).expect("connect");
    let resp = client
        .execute_traced(
            r#"append to faculty (name = "Merrie", rank = "full")"#,
            "req-42",
        )
        .expect("traced execute");
    assert!(resp.ok, "{}", resp.body);
    // The wire response echoes the client-chosen id...
    assert_eq!(resp.trace_id, "req-42");
    // ...the slow-query log carries it...
    let slow = engine.recorder().slowlog().entries();
    assert!(
        slow.iter().any(|e| e.trace_id == "req-42"),
        "slow log missing trace: {slow:?}"
    );
    // ...and a second connection sees it live in sys$sessions.
    let mut observer = QueryClient::connect(&addr).expect("observer connect");
    let sessions = observer
        .execute("range of s is sys$sessions retrieve (s.trace_id)")
        .expect("sys$sessions over the wire");
    assert!(sessions.ok, "{}", sessions.body);
    assert!(
        sessions.body.contains("req-42"),
        "sys$sessions missing trace: {}",
        sessions.body
    );
    // Without a client id the server mints one and still echoes it.
    let minted = client
        .execute("range of f is faculty retrieve (f.name)")
        .expect("untraced execute");
    assert!(minted.ok, "{}", minted.body);
    assert!(
        minted.trace_id.starts_with("t-"),
        "server-minted id has the t- prefix, got {:?}",
        minted.trace_id
    );
    // Oversized client-side trace ids are a typed local error, not a frame.
    let too_long = "x".repeat(256);
    let err = client
        .execute_traced("retrieve (f.name)", &too_long)
        .expect_err("trace over 255 bytes must fail client-side");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    server.shutdown();
    engine.shutdown();
}

/// Reads everything the server sends before closing, then parses the
/// single `[u32 len][u8 status][u8 trace_len][trace][body]` frame.
fn read_error_frame(stream: &mut std::net::TcpStream) -> (u8, String) {
    use std::io::Read;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("drain connection");
    assert!(bytes.len() >= 6, "no complete frame, got {bytes:?}");
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    assert_eq!(4 + len, bytes.len(), "exactly one frame before close");
    let status = bytes[4];
    let trace_len = bytes[5] as usize;
    assert_eq!(trace_len, 0, "protocol errors carry no trace id");
    (status, String::from_utf8_lossy(&bytes[6..]).into_owned())
}

#[test]
fn oversized_frame_gets_a_clean_error_frame_and_close() {
    use std::io::Write;
    let (engine, server) = serve_fresh();
    let addr = server.addr();
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    // A length word over the cap is rejected before any payload is read.
    let huge = (chronos_db::net::MAX_FRAME_BYTES + 1) as u32;
    raw.write_all(&huge.to_le_bytes()).expect("send length");
    raw.flush().expect("flush");
    let (status, body) = read_error_frame(&mut raw);
    assert_eq!(status, 1, "protocol violations answer STATUS_ERR");
    assert!(
        body.contains("protocol error") && body.contains("bad frame length"),
        "unexpected body: {body}"
    );
    // The violation is visible in the net metrics...
    let stats = engine.stats();
    assert!(stats.metrics.net_errors >= 1, "net_errors not counted");
    // ...and the server keeps accepting fresh connections.
    let mut client = QueryClient::connect(&addr.to_string()).expect("reconnect");
    assert!(client.ping().expect("ping after violation"));
    server.shutdown();
    engine.shutdown();
}

#[test]
fn truncated_frame_gets_a_clean_error_frame_and_close() {
    use std::io::Write;
    let (engine, server) = serve_fresh();
    let addr = server.addr();
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    // Promise a 100-byte frame, deliver 6, hang up mid-frame.
    raw.write_all(&100u32.to_le_bytes()).expect("send length");
    raw.write_all(&[1u8; 6]).expect("send partial payload");
    raw.flush().expect("flush");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let (status, body) = read_error_frame(&mut raw);
    assert_eq!(status, 1, "truncation answers STATUS_ERR");
    assert!(
        body.contains("protocol error") && body.contains("truncated frame"),
        "unexpected body: {body}"
    );
    let stats = engine.stats();
    assert!(stats.metrics.net_errors >= 1, "net_errors not counted");
    assert!(
        stats.metrics.net_requests >= 1,
        "violations still count as requests"
    );
    let mut client = QueryClient::connect(&addr.to_string()).expect("reconnect");
    assert!(client.ping().expect("ping after truncation"));
    server.shutdown();
    engine.shutdown();
}

#[test]
fn pings_count_in_net_metrics() {
    let (engine, server) = serve_fresh();
    let addr = server.addr().to_string();
    let before = engine.stats().metrics;
    let mut client = QueryClient::connect(&addr).expect("connect");
    for _ in 0..3 {
        assert!(client.ping().expect("ping"));
    }
    let after = engine.stats().metrics;
    assert!(
        after.net_requests >= before.net_requests + 3,
        "pings must count as requests"
    );
    assert!(after.net_bytes_in > before.net_bytes_in);
    assert!(after.net_bytes_out > before.net_bytes_out);
    assert_eq!(after.net_errors, before.net_errors, "pings are not errors");
    server.shutdown();
    engine.shutdown();
}

#[test]
fn shutdown_unblocks_connected_clients() {
    let (engine, server) = serve_fresh();
    let addr = server.addr().to_string();
    let mut client = QueryClient::connect(&addr).expect("connect");
    assert!(client.ping().expect("ping"));
    server.shutdown();
    // Further requests fail at the transport layer rather than hanging.
    let outcome = client.ping();
    assert!(
        outcome.is_err() || !outcome.unwrap(),
        "ping succeeded against a stopped server"
    );
    engine.shutdown();
}

#[test]
fn a_response_is_counted_before_the_client_has_it() {
    let (engine, server) = serve_fresh();
    let mut client = QueryClient::connect(&server.addr().to_string()).expect("connect");
    for src in [
        r#"append to faculty (name = "Merrie", rank = "full")"#,
        "range of f is faculty retrieve (f.name, f.rank)",
        "retrieve (zzz.name)",
    ] {
        let before = engine.stats().metrics.net_bytes_out;
        let r = client.execute(src).expect("execute");
        // No sleep: the server counted the frame before sending it.
        let after = engine.stats().metrics.net_bytes_out;
        let frame = 4 + 1 + 1 + r.trace_id.len() + r.body.len();
        assert_eq!(after - before, frame as u64, "{src}: {r:?}");
    }
    drop(client);
    server.shutdown();
    engine.shutdown();
}
