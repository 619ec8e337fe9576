//! HTTP edge-case suite: hostile and awkward byte streams must elicit
//! exactly the wire bytes committed under `tests/golden/`. Each golden is
//! the full server output (bytes until close) for one scripted client, as
//! recorded while the blocking accept pool — the original, obviously
//! sequential implementation — and the epoll reactor agreed on it byte for
//! byte. A transcript change is a wire-protocol change and must be
//! reviewed as one.
//!
//! Covered: requests dripped one byte at a time (partial reads), two
//! requests in one TCP segment (pipelining), a stalled header
//! (slowloris-style — the server must neither answer early nor hang up),
//! bodies split across writes, garbage, oversized heads, and mid-header
//! EOF.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use atpm_serve::server::{AppState, ServeConfig, Server};

fn boot() -> (Server, Arc<AppState>) {
    let state = AppState::new();
    let cfg = ServeConfig {
        workers: 2,
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(state.clone(), &cfg).unwrap();
    (server, state)
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Reads until EOF (server closed) or the deadline, returning everything.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

/// Reads exactly one HTTP response (status line + headers +
/// content-length body) off the stream.
fn read_one_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let text = String::from_utf8_lossy(&head);
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("response body");
    (status, body)
}

/// Runs `script` against a fresh connection on a fresh server, then
/// asserts the full wire output (bytes until close) equals the committed
/// transcript `expected`. Returns it as text for the scenario's own
/// readable assertions.
fn golden(expected: &[u8], script: impl Fn(&mut TcpStream)) -> String {
    let (mut server, _state) = boot();
    let mut stream = connect(&server);
    script(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    let wire = read_to_close(&mut stream);
    server.shutdown();
    assert!(
        wire == expected,
        "wire output diverged from the golden transcript\n got: {:?}\nwant: {:?}",
        String::from_utf8_lossy(&wire),
        String::from_utf8_lossy(expected),
    );
    String::from_utf8_lossy(expected).into_owned()
}

#[test]
fn dripped_request_one_byte_at_a_time() {
    let text = golden(include_bytes!("golden/dripped_request.http"), |stream| {
        for b in b"GET /healthz HTTP/1.1\r\n\r\n" {
            stream.write_all(&[*b]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("\"ok\":true"), "{text}");
}

#[test]
fn two_requests_in_one_segment_are_pipelined_in_order() {
    let text = golden(include_bytes!("golden/pipelined_pair.http"), |stream| {
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
    });
    let first = text.find("HTTP/1.1 200 OK").expect("first response");
    let second = text
        .find("HTTP/1.1 404 Not Found")
        .expect("second response");
    assert!(first < second, "responses must preserve request order");
}

#[test]
fn slowloris_stalled_header_neither_answers_nor_hangs_up() {
    let (mut server, _state) = boot();
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nx-slow: lor")
        .unwrap();
    // Stall mid-header. The server must sit tight: no response bytes, no
    // close.
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut probe = [0u8; 1];
    match stream.read(&mut probe) {
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error {e}"
        ),
        Ok(0) => panic!("server hung up on a slow client"),
        Ok(_) => panic!("server answered an incomplete request"),
    }
    // Completing the header gets the answer after all.
    stream.write_all(b"is\r\n\r\n").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, body) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"ok\":true"));
    server.shutdown();
}

#[test]
fn slowloris_with_idle_timeout_gets_reaped() {
    // The timeout variant: with a short `idle_timeout_ms`, a stalled
    // header no longer pins the connection. The server must close it
    // without sending a byte, and a live connection must survive its own
    // deadline as long as it keeps talking.
    let state = AppState::new();
    let cfg = ServeConfig {
        workers: 2,
        shards: 1,
        idle_timeout_ms: 1_000,
        ..ServeConfig::default()
    };
    let mut server = Server::start(state, &cfg).unwrap();

    let mut stalled = connect(&server);
    stalled
        .write_all(b"GET /healthz HTTP/1.1\r\nx-slow: lor")
        .unwrap();
    let mut chatty = connect(&server);

    // Keep the chatty connection active past several deadlines, with a
    // cadence (200ms vs a 1s timeout) wide enough that CI scheduler
    // stalls cannot spuriously reap it.
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(200));
        chatty
            .write_all(b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        let (status, _) = read_one_response(&mut chatty);
        assert_eq!(status, 200, "active connection must survive the timeout");
    }

    // The stalled one must have been reaped: EOF, no response bytes.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let leftovers = read_to_close(&mut stalled);
    assert!(
        leftovers.is_empty(),
        "reaped connection must close silently, got {leftovers:?}"
    );
    server.shutdown();
}

#[test]
fn body_split_across_many_writes() {
    let body = b"{\"snapshot\":\"missing\",\"policy\":{\"name\":\"deploy_all\"},\"world_seed\":1}";
    let text = golden(include_bytes!("golden/body_split.http"), |stream| {
        stream
            .write_all(
                format!(
                    "POST /sessions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        for chunk in body.chunks(7) {
            stream.write_all(chunk).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    assert!(
        text.starts_with("HTTP/1.1 404 Not Found"),
        "complete body must reach the router: {text}"
    );
}

#[test]
fn garbage_and_oversized_heads_get_matching_errors() {
    // Garbage request line → 400, close.
    let text = golden(
        include_bytes!("golden/garbage_request_line.http"),
        |stream| {
            stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        },
    );
    assert!(text.starts_with("HTTP/1.1 400 "));

    // Unsupported version → 505.
    let text = golden(
        include_bytes!("golden/unsupported_version.http"),
        |stream| {
            stream.write_all(b"GET /x SPDY/3\r\n\r\n").unwrap();
        },
    );
    assert!(text.starts_with("HTTP/1.1 505 "));

    // A never-ending header line → 431, close (the slowloris that never
    // stops talking, as opposed to the one that stops mid-word).
    let text = golden(include_bytes!("golden/header_flood.http"), |stream| {
        let padding = vec![b'a'; 70 * 1024];
        stream.write_all(b"GET /x HTTP/1.1\r\nx-flood: ").unwrap();
        let _ = stream.write_all(&padding);
    });
    assert!(text.starts_with("HTTP/1.1 431 "));

    // Chunked transfer encoding → 501.
    let text = golden(include_bytes!("golden/chunked_encoding.http"), |stream| {
        stream
            .write_all(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap();
    });
    assert!(text.starts_with("HTTP/1.1 501 "));
}

#[test]
fn framer_hardening_rejects_are_byte_identical() {
    // Three framer hardening rejects, each pinned to its golden transcript:
    // mismatched duplicate Content-Length (request smuggling),
    // sign-prefixed Content-Length (lenient integer parse), and
    // prefix-matched HTTP versions.

    // Duplicate Content-Length with mismatched values → 400, close. A
    // first-match parser would frame the body at 7 and treat the rest of
    // the bytes — here a second, attacker-shaped request — as pipelined.
    let smuggle: &[u8] = b"POST /sessions HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 999\r\n\r\n0123456GET /snapshots HTTP/1.1\r\n\r\n";
    let text = golden(
        include_bytes!("golden/conflicting_lengths_smuggle.http"),
        |stream| {
            stream.write_all(smuggle).unwrap();
        },
    );
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert_eq!(
        text.matches("HTTP/1.1").count(),
        1,
        "the smuggled tail must never be answered as a second request: {text}"
    );

    // Sign-prefixed length (RFC 7230 forbids anything but 1*DIGIT) → 400.
    let text = golden(include_bytes!("golden/signed_length.http"), |stream| {
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: +7\r\n\r\n0123456")
            .unwrap();
    });
    assert!(text.starts_with("HTTP/1.1 400 "));

    // Invented minor versions → 505 (only HTTP/1.0 and HTTP/1.1 pass).
    let text = golden(
        include_bytes!("golden/invented_minor_version.http"),
        |stream| {
            stream
                .write_all(b"GET /healthz HTTP/1.9999\r\n\r\n")
                .unwrap();
        },
    );
    assert!(text.starts_with("HTTP/1.1 505 "));
}

#[test]
fn dripped_smuggling_attempt_gets_the_same_400() {
    // The incremental framer sees the conflicting lengths arrive one byte
    // at a time; it must neither answer early nor resolve first-match
    // once the head completes.
    let raw: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 999\r\n\r\n0123456";
    let text = golden(include_bytes!("golden/dripped_smuggle.http"), |stream| {
        for b in raw {
            // The server answers 400 and closes the moment the head
            // completes; dripping the (now unwanted) body tail may hit a
            // broken pipe, which is part of the expected shape.
            if stream.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    assert!(text.starts_with("HTTP/1.1 400 "));
}

#[test]
fn pipelined_request_after_agreeing_duplicates_still_answers() {
    // Byte-identical duplicate lengths are legal: the body frames once at
    // 7, and the genuinely pipelined second request is answered in order.
    let raw: &[u8] = b"POST /nope HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n0123456GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    let text = golden(
        include_bytes!("golden/agreeing_duplicate_lengths.http"),
        |stream| stream.write_all(raw).unwrap(),
    );
    let first = text.find("HTTP/1.1 404 Not Found").expect("first response");
    let second = text.find("HTTP/1.1 200 OK").expect("second response");
    assert!(first < second, "responses must preserve request order");
}

#[test]
fn request_id_echo_is_byte_identical_across_backends() {
    // A usable client-supplied X-Request-Id (non-empty, ≤ 64 bytes, RFC
    // 7230 token chars) is echoed verbatim.
    let raw: &[u8] =
        b"GET /healthz HTTP/1.1\r\nx-request-id: client-id-1\r\nconnection: close\r\n\r\n";
    let text = golden(
        include_bytes!("golden/request_id_supplied.http"),
        |stream| stream.write_all(raw).unwrap(),
    );
    assert!(
        text.contains("x-request-id: client-id-1"),
        "supplied id must echo: {text}"
    );

    // No header → the server generates from a per-server counter that only
    // parsed requests consume, so a fresh server's first id is always
    // req-0000000000000000.
    let text = golden(
        include_bytes!("golden/request_id_generated.http"),
        |stream| {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
                .unwrap();
        },
    );
    assert!(
        text.contains("x-request-id: req-0000000000000000"),
        "generated id must be deterministic on a fresh server: {text}"
    );
}

#[test]
fn unusable_request_ids_are_replaced_not_echoed() {
    // Oversized (> 64 bytes) and non-token ids must not be reflected into
    // a response header; the server substitutes a generated id instead.
    let oversized = "a".repeat(65);
    let raw =
        format!("GET /healthz HTTP/1.1\r\nx-request-id: {oversized}\r\nconnection: close\r\n\r\n");
    let text = golden(
        include_bytes!("golden/request_id_oversized.http"),
        |stream| stream.write_all(raw.as_bytes()).unwrap(),
    );
    assert!(!text.contains(&oversized), "oversized id echoed: {text}");
    assert!(
        text.contains("x-request-id: req-0000000000000000"),
        "{text}"
    );

    // Garbage id: spaces and slashes are not tchars (and could smuggle
    // header syntax if reflected).
    let text = golden(include_bytes!("golden/request_id_garbage.http"), |stream| {
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nx-request-id: not a/token\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
    });
    assert!(!text.contains("not a/token"), "garbage id echoed: {text}");
    assert!(
        text.contains("x-request-id: req-0000000000000000"),
        "{text}"
    );
}

#[test]
fn batch_routes_echo_request_ids_and_land_in_the_event_log() {
    // The new batch verbs go through the same diagnostic plumbing as every
    // other route: a usable client X-Request-Id echoes back on the
    // response, and both calls land in /debug/events under that id.
    use atpm_serve::json::Json;
    use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
    use atpm_serve::snapshot::Snapshot;

    /// One response with its full head text (for header assertions).
    fn read_response_with_head(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response head");
            head.push(byte[0]);
        }
        let text = String::from_utf8_lossy(&head).into_owned();
        let status: u16 = text
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let content_length: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).expect("response body");
        (status, text, body)
    }

    fn post(stream: &mut TcpStream, path: &str, rid: &str, body: &str) -> (u16, String, Json) {
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nx-request-id: {rid}\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let (status, head, bytes) = read_response_with_head(stream);
        let json = Json::parse(&String::from_utf8_lossy(&bytes)).unwrap();
        (status, head, json)
    }

    let (mut server, state) = boot();
    state.store.insert(
        Snapshot::build(&SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 4,
            rr_theta: 4_000,
            seed: 1,
            threads: 1,
        })
        .unwrap(),
    );
    let mut stream = connect(&server);
    let (status, _, created) = post(
        &mut stream,
        "/sessions",
        "batch-create-1",
        r#"{"snapshot":"g","policy":{"name":"deploy_all"},"world_seed":3}"#,
    );
    assert_eq!(status, 201);
    let token = created
        .get("session")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let (status, head, resp) = post(
        &mut stream,
        &format!("/sessions/{token}/next_batch"),
        "batch-next-1",
        r#"{"k":2}"#,
    );
    assert_eq!(status, 200);
    assert!(
        head.contains("x-request-id: batch-next-1"),
        "supplied id must echo on next_batch: {head}"
    );
    let seeds: Vec<u64> = resp
        .get("seeds")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    assert!(!seeds.is_empty());

    let seeds_json = seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let (status, head, _) = post(
        &mut stream,
        &format!("/sessions/{token}/observe_batch"),
        "batch-observe-1",
        &format!(r#"{{"seeds":[{seeds_json}],"simulate":true}}"#),
    );
    assert_eq!(status, 200);
    assert!(
        head.contains("x-request-id: batch-observe-1"),
        "supplied id must echo on observe_batch: {head}"
    );

    // Both calls must be visible in the structured event ring, keyed by
    // the client-supplied ids.
    stream
        .write_all(b"GET /debug/events HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let events = String::from_utf8_lossy(&read_to_close(&mut stream)).into_owned();
    assert!(
        events.contains("batch-next-1") && events.contains("next_batch"),
        "next_batch missing from event log:\n{events}"
    );
    assert!(
        events.contains("batch-observe-1") && events.contains("observe_batch"),
        "observe_batch missing from event log:\n{events}"
    );
    server.shutdown();
}

#[test]
fn eof_mid_header_answers_400_and_closes() {
    let text = golden(include_bytes!("golden/eof_mid_header.http"), |stream| {
        stream.write_all(b"GET /healthz HTT").unwrap();
        // `golden` shuts down the write side after the script,
        // producing the mid-header EOF.
    });
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(text.contains("mid-header"), "{text}");
}

#[test]
fn clean_eof_on_idle_keepalive_closes_silently() {
    let text = golden(include_bytes!("golden/clean_eof.http"), |stream| {
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        // Read our response, then just go away (`golden` shuts down).
        let (status, _) = read_one_response(stream);
        assert_eq!(status, 200);
    });
    // Nothing after the first response.
    assert!(
        text.is_empty(),
        "no bytes owed after a clean keep-alive EOF"
    );
}
