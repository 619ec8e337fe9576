//! Hand-rolled HTTP/1.1 request parsing and response writing — just enough
//! protocol for a loopback JSON API, std-only.
//!
//! Supported: request line + headers, `Content-Length` bodies, keep-alive
//! (the HTTP/1.1 default) and `Connection: close`. Not supported (rejected
//! cleanly): chunked transfer encoding, upgrades, multi-line headers.
//! Header and body sizes are capped so a misbehaving client cannot balloon
//! a worker's memory.
//!
//! Requests are cut incrementally: [`frame_request`] scans a connection's
//! receive buffer on the reactor thread and says whether a complete
//! request is present (and how long it is) without blocking;
//! [`parse_frame`] then parses the complete frame on a worker thread. Both
//! funnel into the same [`parse_head`]. The tests keep a blocking
//! line-at-a-time reader (`read_request`) over the same `parse_head` as
//! the obviously-sequential reference the framer must agree with on every
//! prefix of every request.
//!
//! Responses are encoded into a byte vector ([`encode_response`] and
//! friends) that the reactor writes out.

use std::io::Write;
#[cfg(test)]
use std::io::{self, BufRead};

/// Longest accepted request head (request line + headers), bytes.
pub const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted body, bytes (observation lists on million-node graphs
/// fit comfortably; anything bigger is a client bug).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path with any `?query` suffix stripped.
    pub path: String,
    /// The raw query string after `?` (no decoding), empty when absent.
    pub query: String,
    /// Lowercased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-delimited; empty if absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Path split into non-empty segments: `/sessions/s1/next` →
    /// `["sessions", "s1", "next"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// First value of `key` in the query string (`?seconds=2&n=50`). No
    /// percent-decoding — the `/debug/*` parameters are plain integers.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Outcome of reading one request off a connection.
#[cfg(test)]
pub enum ReadOutcome {
    /// A complete request.
    Ok(Request),
    /// Clean EOF before any bytes — the peer closed an idle keep-alive
    /// connection; not an error.
    Closed,
    /// The peer sent something unusable; the caller should answer with this
    /// status and close.
    Malformed(u16, String),
}

/// Parses a completed head (request line + header lines, terminators
/// stripped) into a body-less [`Request`] plus the declared
/// `Content-Length`. This is the single source of truth for head
/// semantics: the framer, the frame parser, and the blocking reference
/// reader in the tests all call it, with identical error statuses.
fn parse_head(lines: &[Vec<u8>]) -> Result<(Request, Option<usize>), (u16, String)> {
    let request_line = String::from_utf8_lossy(&lines[0]).into_owned();
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err((400, "bad request line".into()));
    };
    // Exact-match the two versions this server speaks. A prefix test
    // (`starts_with("HTTP/1.")`) would wave through inventions like
    // `HTTP/1.9999`, which RFC 9112 §2.3 does not define and which
    // intermediaries may interpret differently than we do.
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err((505, "unsupported HTTP version".into()));
    }

    let mut headers = Vec::with_capacity(lines.len() - 1);
    for line in &lines[1..] {
        let text = String::from_utf8_lossy(line);
        let Some((name, value)) = text.split_once(':') else {
            return Err((400, "bad header line".into()));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let req = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
        body: Vec::new(),
    };

    // Like Content-Length below, Transfer-Encoding must be checked across
    // *every* repeat of the header (and every comma-separated element):
    // first-match resolution would let `Transfer-Encoding: identity`
    // followed by `Transfer-Encoding: chunked` slip past this guard while
    // a fronting proxy honors the chunked coding — the same smuggling
    // class as mismatched duplicate lengths.
    for (name, value) in &req.headers {
        if name == "transfer-encoding"
            && value
                .split(',')
                .any(|coding| !coding.trim().eq_ignore_ascii_case("identity"))
        {
            return Err((501, "chunked transfer encoding not supported".into()));
        }
    }
    let content_length = parse_content_length(&req)?;
    Ok((req, content_length))
}

/// Resolves the request's framing length from its `Content-Length`
/// header(s), defending the two classic smuggling vectors (RFC 7230
/// §3.3.2 / RFC 9112 §6.3):
///
/// * **Duplicate or list-valued lengths.** `Content-Length: 7` followed by
///   `Content-Length: 999` (or `Content-Length: 7, 999`) must not be
///   resolved first-match-wins — a proxy that picks the *other* value
///   would hand the tail of the body to the next request in the
///   connection. Repeats are tolerated only when every value is
///   byte-identical after trimming; any mismatch is a 400.
/// * **Lenient integer syntax.** The grammar is `1*DIGIT`; Rust's
///   `parse::<usize>` also accepts a leading `+`, which an intermediary
///   parsing strictly would frame differently (`+7` → error vs 7). Only
///   ASCII digits are accepted here.
///
/// Framing and parsing both funnel through this one function, so a reject
/// is decided once, before any body byte is read.
fn parse_content_length(req: &Request) -> Result<Option<usize>, (u16, String)> {
    let mut resolved: Option<(&str, usize)> = None;
    for (name, value) in &req.headers {
        if name != "content-length" {
            continue;
        }
        // A list-valued header (`7, 7`) is equivalent to repeating the
        // header line, so both forms share the per-value loop.
        for raw in value.split(',') {
            let text = raw.trim();
            if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
                return Err((400, "bad content-length".into()));
            }
            let Ok(len) = text.parse::<usize>() else {
                return Err((400, "bad content-length".into()));
            };
            match resolved {
                None => resolved = Some((text, len)),
                Some((first, _)) if first == text => {}
                Some(_) => {
                    return Err((400, "conflicting content-length values".into()));
                }
            }
        }
    }
    match resolved {
        Some((_, len)) if len > MAX_BODY => Err((413, "body too large".into())),
        Some((_, len)) => Ok(Some(len)),
        None => Ok(None),
    }
}

/// Reads one HTTP/1.1 request from `stream`: the blocking reference the
/// incremental framer is tested against.
#[cfg(test)]
pub fn read_request<R: BufRead>(stream: &mut R) -> io::Result<ReadOutcome> {
    // Request line + headers, byte-capped (including any single oversized
    // line — the budget is bytes consumed so far, not line count).
    let mut head: Vec<Vec<u8>> = Vec::new();
    let mut head_bytes = 0usize;
    loop {
        if head_bytes >= MAX_HEAD {
            // Also guards the leading-blank-line tolerance below from being
            // fed forever.
            return Ok(ReadOutcome::Malformed(431, "request head too large".into()));
        }
        let mut line = Vec::new();
        let n = match read_line_crlf(stream, &mut line, MAX_HEAD - head_bytes) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Ok(ReadOutcome::Malformed(431, "request head too large".into()));
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(if head.is_empty() && head_bytes == 0 {
                ReadOutcome::Closed
            } else {
                ReadOutcome::Malformed(400, "connection closed mid-header".into())
            });
        }
        head_bytes += n;
        if line.is_empty() {
            if head.is_empty() {
                // Tolerate leading blank lines per RFC 9112 §2.2.
                continue;
            }
            break;
        }
        head.push(line);
        if head_bytes > MAX_HEAD {
            return Ok(ReadOutcome::Malformed(431, "request head too large".into()));
        }
    }

    let (mut req, content_length) = match parse_head(&head) {
        Ok(parsed) => parsed,
        Err((status, message)) => return Ok(ReadOutcome::Malformed(status, message)),
    };
    if let Some(len) = content_length {
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body)?;
        req.body = body;
    }
    Ok(ReadOutcome::Ok(req))
}

/// Incremental framing verdict over a connection's receive buffer.
#[derive(Debug)]
pub enum FrameStatus {
    /// Not enough bytes for a full request yet. `head_complete` reports
    /// whether the header block has fully arrived (so an EOF here can be
    /// classified: mid-header gets a 400, mid-body a silent close — the
    /// same split the blocking reader produces).
    Partial {
        /// Headers done, body still streaming in.
        head_complete: bool,
    },
    /// The first `len` bytes of the buffer are one complete request.
    Complete {
        /// Frame length in bytes (head + body).
        len: usize,
    },
    /// The bytes can never become a valid request: answer with this status
    /// and close.
    Malformed {
        /// HTTP status to answer with.
        status: u16,
        /// Human-readable cause.
        message: String,
    },
}

/// Scanned head lines: shared by [`frame_request`] and [`parse_frame`].
enum HeadScan {
    /// Head incomplete after `buf.len()` bytes.
    Partial,
    /// Head complete: `lines` hold the stripped head, `head_len` is its
    /// wire length including the blank-line terminator.
    Done {
        lines: Vec<Vec<u8>>,
        head_len: usize,
    },
    /// No complete head within [`MAX_HEAD`] bytes.
    TooLarge,
}

/// Walks `buf` line by line (CRLF or bare LF, matching the blocking
/// reader) until the blank line that ends the head. When `collect` is
/// `Some`, stripped line contents are appended to it — the framer's hot
/// path passes `None`, so the per-read-event scan over a still-incomplete
/// head allocates nothing (this runs on the reactor thread for every
/// readiness event of a dripping client).
fn walk_head(buf: &[u8], mut collect: Option<&mut Vec<Vec<u8>>>) -> HeadScan {
    let mut pos = 0usize;
    let mut seen_line = false;
    loop {
        let Some(rel) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // No newline in the remainder: either still streaming or the
            // line already blew the budget.
            return if buf.len() >= MAX_HEAD {
                HeadScan::TooLarge
            } else {
                HeadScan::Partial
            };
        };
        let mut line = &buf[pos..pos + rel];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        pos += rel + 1;
        if line.is_empty() {
            if !seen_line {
                // Leading blank lines tolerated (RFC 9112 §2.2) — but they
                // spend head budget, like the blocking reader.
                if pos >= MAX_HEAD {
                    return HeadScan::TooLarge;
                }
                continue;
            }
            return HeadScan::Done {
                lines: Vec::new(),
                head_len: pos,
            };
        }
        seen_line = true;
        if let Some(lines) = collect.as_deref_mut() {
            lines.push(line.to_vec());
        }
        if pos >= MAX_HEAD {
            return HeadScan::TooLarge;
        }
    }
}

/// [`walk_head`] with the lines materialized (for the parse step).
fn scan_head(buf: &[u8]) -> HeadScan {
    let mut lines: Vec<Vec<u8>> = Vec::new();
    match walk_head(buf, Some(&mut lines)) {
        HeadScan::Done { head_len, .. } => HeadScan::Done { lines, head_len },
        other => other,
    }
}

/// Decides, without blocking or consuming, whether `buf` starts with a
/// complete HTTP/1.1 request. Used by the reactor to cut frames off a
/// connection's receive buffer; the statuses match the blocking reference
/// reader's byte by byte.
///
/// Cost discipline (this runs on the reactor thread, once per readiness
/// event): while the head is incomplete the call is a single
/// allocation-free scan of the buffered bytes; lines are materialized and
/// parsed only once the head terminator has arrived.
pub fn frame_request(buf: &[u8]) -> FrameStatus {
    // Allocation-free pre-pass: find the head end (or bail Partial).
    let head_len = match walk_head(buf, None) {
        HeadScan::Partial => {
            return FrameStatus::Partial {
                head_complete: false,
            }
        }
        HeadScan::TooLarge => {
            return FrameStatus::Malformed {
                status: 431,
                message: "request head too large".into(),
            }
        }
        HeadScan::Done { head_len, .. } => head_len,
    };
    let (lines, head_len) = match scan_head(&buf[..head_len]) {
        HeadScan::Done { lines, head_len } => (lines, head_len),
        // walk_head already proved the head complete and within budget.
        _ => unreachable!("head completeness decided by the pre-pass"),
    };
    match parse_head(&lines) {
        Err((status, message)) => FrameStatus::Malformed { status, message },
        Ok((_, content_length)) => {
            let body = content_length.unwrap_or(0);
            if buf.len() >= head_len + body {
                FrameStatus::Complete {
                    len: head_len + body,
                }
            } else {
                FrameStatus::Partial {
                    head_complete: true,
                }
            }
        }
    }
}

/// Parses a complete frame (as delimited by [`frame_request`]) into a
/// [`Request`]. Runs on a worker thread, off the reactor. Errors are
/// `(status, message)` pairs for the error response — they can only occur
/// if the caller hands over a frame `frame_request` didn't bless.
pub fn parse_frame(frame: &[u8]) -> Result<Request, (u16, String)> {
    let (lines, head_len) = match scan_head(frame) {
        HeadScan::Done { lines, head_len } => (lines, head_len),
        HeadScan::TooLarge => return Err((431, "request head too large".into())),
        HeadScan::Partial => return Err((400, "incomplete request frame".into())),
    };
    let (mut req, content_length) = parse_head(&lines)?;
    let body = content_length.unwrap_or(0);
    if frame.len() < head_len + body {
        return Err((400, "incomplete request body".into()));
    }
    req.body = frame[head_len..head_len + body].to_vec();
    Ok(req)
}

/// Reads one CRLF- (or bare-LF-) terminated line into `out` (terminator
/// stripped). Returns bytes consumed; 0 means EOF. Errors if the line
/// exceeds `limit`.
#[cfg(test)]
fn read_line_crlf<R: BufRead>(
    stream: &mut R,
    out: &mut Vec<u8>,
    limit: usize,
) -> io::Result<usize> {
    let mut consumed = 0usize;
    loop {
        let buf = stream.fill_buf()?;
        if buf.is_empty() {
            return Ok(consumed);
        }
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            out.extend_from_slice(&buf[..nl]);
            stream.consume(nl + 1);
            consumed += nl + 1;
            if out.last() == Some(&b'\r') {
                out.pop();
            }
            return Ok(consumed);
        }
        let n = buf.len();
        out.extend_from_slice(buf);
        stream.consume(n);
        consumed += n;
        if consumed > limit {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "header line too long",
            ));
        }
    }
}

/// Encodes a JSON response — the form worker threads hand back to the
/// reactor as a [`Reply`](atpm_net::Reply). `keep_alive` controls the
/// `Connection` header; the caller decides whether to actually keep
/// reading.
pub fn encode_response(status: u16, body: &[u8], keep_alive: bool) -> Vec<u8> {
    encode_response_with(status, body, keep_alive, &[])
}

/// [`encode_response`] plus caller-supplied extra headers (name must be
/// lowercase; emitted between the fixed headers and the blank line). Used
/// for `X-Request-Id` and for `Retry-After` on 503s.
pub fn encode_response_with(
    status: u16,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    encode_response_ct(status, "application/json", body, keep_alive, extra)
}

/// The fully general response encoder: JSON callers go through
/// [`encode_response_with`] (which pins the `application/json` header
/// bytes); `GET /metrics` supplies the Prometheus exposition content type.
pub fn encode_response_ct(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 96);
    write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .expect("writing to a Vec cannot fail");
    for (name, value) in extra {
        write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Minimal reason-phrase table for the statuses the API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Status",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> ReadOutcome {
        read_request(&mut BufReader::new(raw.as_bytes())).unwrap()
    }

    #[test]
    fn parses_post_with_body() {
        let out = parse(
            "POST /sessions/s1/next?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        let ReadOutcome::Ok(req) = out else {
            panic!("expected Ok")
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/s1/next");
        assert_eq!(req.segments(), vec!["sessions", "s1", "next"]);
        assert_eq!(req.body, b"{\"a\":1}");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_close_header() {
        let ReadOutcome::Ok(req) = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!("expected Ok")
        };
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        assert!(matches!(parse(""), ReadOutcome::Closed));
    }

    #[test]
    fn malformed_inputs_get_statuses() {
        let cases: Vec<(&str, u16)> = vec![
            ("GARBAGE\r\n\r\n", 400),
            ("GET /x SPDY/3\r\n\r\n", 505),
            ("GET /x HTTP/1.1\r\nbadheader\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
        ];
        for (raw, want) in cases {
            match parse(raw) {
                ReadOutcome::Malformed(status, _) => assert_eq!(status, want, "{raw:?}"),
                _ => panic!("{raw:?} should be malformed"),
            }
        }
    }

    #[test]
    fn version_check_is_exact_not_prefix() {
        // Only the two versions the server actually speaks pass.
        for ok in ["HTTP/1.1", "HTTP/1.0"] {
            assert!(
                matches!(parse(&format!("GET /x {ok}\r\n\r\n")), ReadOutcome::Ok(_)),
                "{ok} must be accepted"
            );
        }
        // Prefix-matching lookalikes (RFC 9112 defines no HTTP/1.2+) and
        // other majors are 505, on both entry points.
        for bad in ["HTTP/1.9999", "HTTP/1.2", "HTTP/1.", "HTTP/2.0", "HTTP/11"] {
            let raw = format!("GET /x {bad}\r\n\r\n");
            match parse(&raw) {
                ReadOutcome::Malformed(status, _) => assert_eq!(status, 505, "{bad}"),
                _ => panic!("{bad} should be rejected"),
            }
            assert!(
                matches!(
                    frame_request(raw.as_bytes()),
                    FrameStatus::Malformed { status: 505, .. }
                ),
                "framer must agree on {bad}"
            );
        }
    }

    #[test]
    fn content_length_must_be_digits_only() {
        // Rust's usize parser takes a leading '+'; RFC 7230 1*DIGIT does
        // not, and a strict intermediary would frame `+7` differently.
        for bad in ["+7", "-7", " 7 8", "7a", "0x7", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nbodybytes");
            match parse(&raw) {
                ReadOutcome::Malformed(status, _) => assert_eq!(status, 400, "{bad:?}"),
                _ => panic!("{bad:?} should be malformed"),
            }
            assert!(
                matches!(
                    frame_request(raw.as_bytes()),
                    FrameStatus::Malformed { status: 400, .. }
                ),
                "framer must agree on {bad:?}"
            );
        }
        // Leading zeros are ugly but grammatical.
        let ReadOutcome::Ok(req) =
            parse("POST /x HTTP/1.1\r\nContent-Length: 007\r\n\r\n{\"a\":1}")
        else {
            panic!("leading zeros are valid 1*DIGIT");
        };
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn transfer_encoding_is_checked_across_all_repeats() {
        // First-match resolution would see only `identity` and wave the
        // chunked coding through — the TE flavor of the duplicate-header
        // smuggle.
        let cases = [
            "POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: identity, chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: identity\r\n\r\n",
        ];
        for raw in cases {
            match parse(raw) {
                ReadOutcome::Malformed(status, _) => assert_eq!(status, 501, "{raw:?}"),
                _ => panic!("{raw:?} must be rejected"),
            }
            assert!(
                matches!(
                    frame_request(raw.as_bytes()),
                    FrameStatus::Malformed { status: 501, .. }
                ),
                "framer must agree on {raw:?}"
            );
        }
        // Pure identity (repeated or listed) is still a no-op encoding.
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: identity\r\n\r\n"),
            ReadOutcome::Ok(_)
        ));
    }

    #[test]
    fn duplicate_content_lengths_must_agree() {
        // The smuggling shape: first-match resolution would frame the body
        // at 7 and leave the tail to be parsed as a fresh request.
        let smuggle = "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 999\r\n\r\n0123456";
        match parse(smuggle) {
            ReadOutcome::Malformed(status, msg) => {
                assert_eq!(status, 400);
                assert!(msg.contains("conflicting"), "{msg}");
            }
            _ => panic!("mismatched duplicate content-length must be rejected"),
        }
        assert!(matches!(
            frame_request(smuggle.as_bytes()),
            FrameStatus::Malformed { status: 400, .. }
        ));
        // List form is the same attack in one line.
        let listed = "POST /x HTTP/1.1\r\nContent-Length: 7, 999\r\n\r\n0123456";
        assert!(matches!(parse(listed), ReadOutcome::Malformed(400, _)));
        // Identical repeats are tolerated (RFC 7230 §3.3.2 allows it) and
        // frame exactly once.
        let dup_ok = "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n0123456";
        let ReadOutcome::Ok(req) = parse(dup_ok) else {
            panic!("identical duplicates are acceptable");
        };
        assert_eq!(req.body, b"0123456");
        let FrameStatus::Complete { len } = frame_request(dup_ok.as_bytes()) else {
            panic!("identical duplicates must frame");
        };
        assert_eq!(len, dup_ok.len());
        // "07" vs "7" agree numerically but not byte-wise: still rejected,
        // the conservative reading of "identical field values".
        let sneaky = "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 07\r\n\r\n0123456";
        assert!(matches!(parse(sneaky), ReadOutcome::Malformed(400, _)));
    }

    #[test]
    fn oversized_single_header_line_gets_431_not_a_dropped_connection() {
        let raw = format!("GET /x HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        match read_request(&mut BufReader::new(raw.as_bytes())).unwrap() {
            ReadOutcome::Malformed(status, _) => assert_eq!(status, 431),
            _ => panic!("expected 431"),
        }
    }

    #[test]
    fn response_wire_format() {
        let text = String::from_utf8(encode_response(200, b"{}", true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let closing = String::from_utf8(encode_response(410, b"{}", false)).unwrap();
        assert!(closing.starts_with("HTTP/1.1 410 Gone\r\n"));
        assert!(closing.contains("connection: close\r\n"));
    }

    #[test]
    fn framer_matches_blocking_reader_on_every_prefix() {
        // The framer's equivalence with the blocking reference: for any byte
        // stream, the incremental framer must (a) stay Partial on every
        // strict prefix of a request, (b) cut the same frame the blocking
        // reader consumes, and (c) produce the same parse.
        let cases: Vec<&str> = vec![
            "GET /healthz HTTP/1.1\r\n\r\n",
            "POST /sessions/s1/next?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            "\r\n\r\nGET /tolerated HTTP/1.1\r\n\r\n", // leading blank lines
            "GET /bare-lf HTTP/1.1\nConnection: close\n\n",
        ];
        for raw in cases {
            let bytes = raw.as_bytes();
            for cut in 0..bytes.len() {
                match frame_request(&bytes[..cut]) {
                    FrameStatus::Partial { .. } => {}
                    other => panic!("prefix {cut} of {raw:?} gave {other:?}"),
                }
            }
            let FrameStatus::Complete { len } = frame_request(bytes) else {
                panic!("{raw:?} should frame completely");
            };
            assert_eq!(len, bytes.len(), "{raw:?}");
            let framed = parse_frame(bytes).unwrap();
            let ReadOutcome::Ok(blocking) = parse(raw) else {
                panic!("{raw:?} should parse");
            };
            assert_eq!(framed.method, blocking.method);
            assert_eq!(framed.path, blocking.path);
            assert_eq!(framed.headers, blocking.headers);
            assert_eq!(framed.body, blocking.body);
        }
    }

    #[test]
    fn framer_matches_blocking_reader_on_malformed_input() {
        let cases: Vec<(&str, u16)> = vec![
            ("GARBAGE\r\n\r\n", 400),
            ("GET /x SPDY/3\r\n\r\n", 505),
            ("GET /x HTTP/1.1\r\nbadheader\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
                413,
            ),
        ];
        for (raw, want) in cases {
            let FrameStatus::Malformed { status, .. } = frame_request(raw.as_bytes()) else {
                panic!("{raw:?} should be malformed");
            };
            assert_eq!(status, want, "framer on {raw:?}");
            match parse(raw) {
                ReadOutcome::Malformed(status, _) => assert_eq!(status, want, "reader on {raw:?}"),
                _ => panic!("{raw:?} should be malformed for the blocking reader too"),
            }
        }
    }

    #[test]
    fn framer_handles_pipelining_and_oversized_heads() {
        // Two requests in one buffer: the frame is exactly the first one.
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let FrameStatus::Complete { len } = frame_request(raw) else {
            panic!("first request should frame");
        };
        assert_eq!(len, 19);
        let req = parse_frame(&raw[..len]).unwrap();
        assert_eq!(req.path, "/a");
        // An unterminated header flood trips the cap without a newline.
        let flood = vec![b'a'; MAX_HEAD + 1];
        assert!(matches!(
            frame_request(&flood),
            FrameStatus::Malformed { status: 431, .. }
        ));
        // A terminated but oversized head trips it too.
        let mut big = b"GET /x HTTP/1.1\r\n".to_vec();
        while big.len() <= MAX_HEAD {
            big.extend_from_slice(b"x-pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        big.extend_from_slice(b"\r\n");
        assert!(matches!(
            frame_request(&big),
            FrameStatus::Malformed { status: 431, .. }
        ));
        // Body split across arrivals: head-complete partial until the last
        // byte lands.
        let post = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        match frame_request(&post[..post.len() - 1]) {
            FrameStatus::Partial { head_complete } => assert!(head_complete),
            other => panic!("expected head-complete partial, got {other:?}"),
        }
        assert!(matches!(
            frame_request(post),
            FrameStatus::Complete { len } if len == post.len()
        ));
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let bytes = encode_response_with(503, b"{}", false, &[("retry-after", "1")]);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text[..head_end].contains("retry-after: 1"));
        assert!(text.ends_with("\r\n\r\n{}"));
        // No extras → byte-identical to the plain encoder.
        assert_eq!(
            encode_response_with(200, b"{}", true, &[]),
            encode_response(200, b"{}", true)
        );
    }

    #[test]
    fn keep_alive_sequencing_on_one_stream() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut stream = BufReader::new(raw.as_bytes());
        let ReadOutcome::Ok(a) = read_request(&mut stream).unwrap() else {
            panic!()
        };
        let ReadOutcome::Ok(b) = read_request(&mut stream).unwrap() else {
            panic!()
        };
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(matches!(
            read_request(&mut stream).unwrap(),
            ReadOutcome::Closed
        ));
    }
}
