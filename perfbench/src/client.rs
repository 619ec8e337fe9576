//! The benchmark's client side: a keep-alive HTTP/1.1 connection that
//! tags every request with an `X-Request-Id`, the session runner shared by
//! the HTTP runs and the in-process reference, and the closed loop.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use atpm_serve::protocol::{CreateSessionReq, Ledger, ObserveReq};
use atpm_serve::{Json, LocalClient, ProtocolClient};

/// One HTTP response.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A blocking keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request (`id` empty: no `X-Request-Id` header) and reads
    /// the response.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8], id: &str) -> io::Result<Reply> {
        let frame = request_frame(method, path, body, id);
        self.writer.write_all(&frame)?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(Reply { status, body })
    }
}

/// The exact bytes a request puts on the wire.
pub fn request_frame(method: &str, path: &str, body: &[u8], id: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(160 + body.len());
    let id_header = if id.is_empty() {
        String::new()
    } else {
        format!("x-request-id: {id}\r\n")
    };
    write!(
        frame,
        "{method} {path} HTTP/1.1\r\nhost: atpm\r\ncontent-type: application/json\r\n{id_header}content-length: {}\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    frame.extend_from_slice(body);
    frame
}

/// Protocol verbs, as the latency metrics group them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Create,
    Next,
    Observe,
    Ledger,
    Delete,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Create => "create",
            Verb::Next => "next",
            Verb::Observe => "observe",
            Verb::Ledger => "ledger",
            Verb::Delete => "delete",
        }
    }

    /// Whether the server journals this verb (every mutation does).
    pub fn journals(self) -> bool {
        self != Verb::Ledger
    }
}

/// One client call as the client saw it.
#[derive(Clone, Debug)]
pub struct Call {
    pub verb: Verb,
    /// Start, relative to the benchmark's epoch.
    pub start: Duration,
    pub dur: Duration,
    /// `X-Request-Id` sent (empty in process).
    pub id: String,
    /// Request bytes and response body, kept only when capturing.
    pub wire: Option<(Vec<u8>, String)>,
}

/// Transport under the session runner: HTTP or the in-process dispatcher.
pub trait Api {
    /// Makes one call; `Err` for a transport failure or a non-2xx status.
    fn call(&mut self, verb: Verb, method: &str, path: &str, body: &Json) -> Result<Json, String>;
    /// Calls made so far.
    fn calls(&mut self) -> &mut Vec<Call>;
}

/// HTTP transport over one connection, timing every call.
pub struct HttpApi {
    addr: String,
    conn: Option<Conn>,
    tag: String,
    seq: u64,
    epoch: Instant,
    capture: bool,
    calls: Vec<Call>,
}

impl HttpApi {
    pub fn new(addr: &str, tag: String, epoch: Instant, capture: bool) -> HttpApi {
        HttpApi {
            addr: addr.to_string(),
            conn: None,
            tag,
            seq: 0,
            epoch,
            capture,
            calls: Vec::new(),
        }
    }
}

impl Api for HttpApi {
    fn call(&mut self, verb: Verb, method: &str, path: &str, body: &Json) -> Result<Json, String> {
        self.seq += 1;
        let id = format!("{}-{}", self.tag, self.seq);
        let body = body.encode();
        let start = Instant::now();
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(&self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let sent = conn.send(method, path, body.as_bytes(), &id);
        let dur = start.elapsed();
        let reply = match sent {
            Ok(reply) => reply,
            Err(e) => {
                self.conn = None;
                return Err(format!("{method} {path}: transport: {e}"));
            }
        };
        if !(200..300).contains(&reply.status) {
            return Err(format!("{method} {path}: {} {}", reply.status, reply.body));
        }
        let json = Json::parse(&reply.body).map_err(|e| format!("{method} {path}: {e}"))?;
        let wire = self.capture.then(|| {
            (
                request_frame(method, path, body.as_bytes(), &id),
                reply.body,
            )
        });
        self.calls.push(Call {
            verb,
            start: start - self.epoch,
            dur,
            id,
            wire,
        });
        Ok(json)
    }

    fn calls(&mut self) -> &mut Vec<Call> {
        &mut self.calls
    }
}

/// In-process transport: the server's own dispatcher without sockets.
pub struct LocalApi {
    client: LocalClient,
    epoch: Instant,
    calls: Vec<Call>,
}

impl LocalApi {
    pub fn new(client: LocalClient, epoch: Instant) -> LocalApi {
        LocalApi {
            client,
            epoch,
            calls: Vec::new(),
        }
    }
}

impl Api for LocalApi {
    fn call(&mut self, verb: Verb, method: &str, path: &str, body: &Json) -> Result<Json, String> {
        let start = Instant::now();
        let out = self.client.call(method, path, body);
        let dur = start.elapsed();
        self.calls.push(Call {
            verb,
            start: start - self.epoch,
            dur,
            id: String::new(),
            wire: None,
        });
        out.map_err(|e| format!("{method} {path}: {} {}", e.status, e.message))
    }

    fn calls(&mut self) -> &mut Vec<Call> {
        &mut self.calls
    }
}

/// One finished session.
pub struct SessionRun {
    pub index: usize,
    pub ledger: Ledger,
    pub calls: Vec<Call>,
    /// Client wall time from `create` to the end of `delete`.
    pub wall: Duration,
    pub start: Duration,
}

fn seeds_of(resp: &Json) -> Result<Option<Vec<u32>>, String> {
    if resp.get("done").and_then(Json::as_bool).unwrap_or(false) {
        return Ok(None);
    }
    let seeds = resp
        .get("seeds")
        .and_then(Json::as_arr)
        .ok_or("response missing 'seeds'")?
        .iter()
        .map(|x| x.as_u64().map(|v| v as u32).ok_or("non-integer seed"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(seeds))
}

/// Drives one session to completion with server-simulated observations:
/// create → (next → observe)* → ledger → delete.
pub fn run_session<A: Api>(
    api: &mut A,
    index: usize,
    req: &CreateSessionReq,
    epoch: Instant,
) -> Result<SessionRun, String> {
    let first_call = api.calls().len();
    let t0 = Instant::now();
    let resp = api.call(Verb::Create, "POST", "/sessions", &req.to_json())?;
    let token = resp
        .get("session")
        .and_then(Json::as_str)
        .ok_or("create: response missing 'session'")?
        .to_string();
    loop {
        let path = format!("/sessions/{token}/next");
        let resp = api.call(Verb::Next, "POST", &path, &Json::obj([]))?;
        let Some(seeds) = seeds_of(&resp)? else { break };
        for seed in seeds {
            let path = format!("/sessions/{token}/observe");
            let body = ObserveReq::Simulate { seed }.to_json();
            api.call(Verb::Observe, "POST", &path, &body)?;
        }
    }
    let path = format!("/sessions/{token}/ledger");
    let resp = api.call(Verb::Ledger, "GET", &path, &Json::obj([]))?;
    let ledger = Ledger::from_json(&resp).map_err(|e| format!("ledger: {}", e.message))?;
    api.call(
        Verb::Delete,
        "DELETE",
        &format!("/sessions/{token}"),
        &Json::obj([]),
    )?;
    Ok(SessionRun {
        index,
        ledger,
        calls: api.calls()[first_call..].to_vec(),
        wall: t0.elapsed(),
        start: t0 - epoch,
    })
}

/// What a closed-loop phase produced.
pub struct LoopOut {
    pub sessions: Vec<SessionRun>,
    /// HTTP calls issued.
    pub attempted: u64,
    /// Sessions aborted by a failed call, with the reason.
    pub failures: Vec<String>,
    /// Loop start, relative to the benchmark's epoch.
    pub start: Duration,
    /// Loop start to the end of the last session.
    pub wall: Duration,
}

/// Runs `clients` closed-loop clients: each starts its next session as soon
/// as the previous one ends, until `duration` has passed; sessions in
/// flight at the deadline run to completion and count.
pub fn closed_loop(
    addr: &str,
    clients: usize,
    duration: Duration,
    first_index: usize,
    make_req: &(dyn Fn(usize) -> CreateSessionReq + Sync),
    epoch: Instant,
    capture: bool,
) -> LoopOut {
    let next = AtomicUsize::new(first_index);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<SessionRun>, u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let mut api =
                        HttpApi::new(addr, format!("pb{first_index:x}-{c}"), epoch, capture);
                    let mut done = Vec::new();
                    let mut failures = Vec::new();
                    while t0.elapsed() < duration {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let req = make_req(index);
                        match run_session(&mut api, index, &req, epoch) {
                            Ok(run) => done.push(run),
                            Err(e) => failures.push(format!("session {index}: {e}")),
                        }
                    }
                    (done, api.seq, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = LoopOut {
        sessions: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        start: t0 - epoch,
        wall: t0.elapsed(),
    };
    for (sessions, attempted, failures) in per_client {
        out.sessions.extend(sessions);
        out.attempted += attempted;
        out.failures.extend(failures);
    }
    out.sessions.sort_by_key(|s| s.index);
    out
}
