//! The server transport: reactor shards multiplexing thousands of
//! keep-alive connections over a small request-executing worker pool.
//!
//! Topology: `shards` reactor threads each own an epoll instance and a
//! clone of the shared listener (registered `EPOLLEXCLUSIVE`, so the
//! kernel wakes one shard per connect). A reactor never executes a
//! request — its [`HttpDriver`] frame-cuts the receive buffer with
//! [`frame_request`](crate::http::frame_request) and posts the complete
//! frame to the worker pool over an mpsc channel. Workers parse, dispatch
//! through [`route`](crate::server::route) via [`respond`](crate::server::respond),
//! encode the response, and push it into the owning shard's
//! [`ReplyQueue`]; the queue's eventfd waker pulls the reactor out of
//! `epoll_wait` to write it, resuming across partial writes.
//!
//! The request pipeline is the sequential `read → parse → respond → write`
//! of a blocking server — one in-flight request per connection, pipelined
//! requests served in order — only spread over threads; the wire bytes it
//! produces for awkward clients are pinned by the golden transcripts in
//! `tests/http_edge_cases.rs`. Worker count bounds CPU concurrency;
//! connection count is bounded only by fds; the reactor→worker queue is
//! bounded by overload shedding (dispatches past `max_queue` waiting jobs
//! answer `503 Retry-After` straight from the reactor thread, counted in
//! `/healthz`).
//!
//! Reactors do I/O only: session expiry and checkpoints run on the
//! server's maintenance thread (see [`Server`](crate::server::Server)), so
//! their journal fsyncs never stall a shard's connections.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use atpm_net::{ConnId, Driver, Reactor, ReactorConfig, Reply, ReplyQueue, Sliced};

use crate::http::{self, FrameStatus};
use crate::json::Json;
use crate::server::{request_id, respond, valid_request_id, AppState, RespBody, ServeConfig};

/// A complete request frame on its way to a worker, with the return
/// address (shard queue + connection) attached.
struct Job {
    conn: ConnId,
    frame: Vec<u8>,
    replies: Arc<ReplyQueue>,
    /// Dispatch time, for the queue-wait histogram (reactor → worker).
    enqueued: Instant,
}

/// JSON error body in wire form, matching the router's error shape.
fn error_bytes(status: u16, message: &str) -> Vec<u8> {
    let body = Json::obj([("error", Json::Str(message.to_string()))]).encode();
    http::encode_response(status, body.as_bytes(), false)
}

/// Cheap header scan for a client-supplied `X-Request-Id` in a raw frame.
///
/// The shed path answers 503 from the reactor thread *without* parsing the
/// request, but an overloaded rejection should still echo the caller's id
/// so it can be correlated client-side. Only a valid id (per
/// [`valid_request_id`]) is returned; the generated-id counter is never
/// consumed here, so sheds leave no gaps in the generated sequence.
fn shed_request_id(frame: &[u8]) -> Option<&str> {
    let head_end = frame.windows(4).position(|w| w == b"\r\n\r\n")?;
    for line in frame[..head_end].split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue; // request line, or a fragment with no header syntax
        };
        if line[..colon].eq_ignore_ascii_case(b"x-request-id") {
            let value = std::str::from_utf8(&line[colon + 1..]).ok()?.trim();
            return valid_request_id(value).then_some(value);
        }
    }
    None
}

/// The HTTP protocol plugged into a reactor shard.
struct HttpDriver {
    jobs: mpsc::Sender<Job>,
    state: Arc<AppState>,
}

impl Driver for HttpDriver {
    fn slice(&mut self, buf: &[u8]) -> Sliced {
        match http::frame_request(buf) {
            FrameStatus::Partial { head_complete } => Sliced::Partial { head_complete },
            FrameStatus::Complete { len } => Sliced::Frame(len),
            FrameStatus::Malformed { status, message } => {
                Sliced::Fatal(error_bytes(status, &message))
            }
        }
    }

    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>) {
        // Overload control: the queue between the reactors and the workers
        // is the only unbounded buffer in the pipeline. Past `max_queue`
        // waiting jobs, shed the request right here — a cheap 503 with
        // Retry-After now beats an indefinitely queued answer later.
        let m = &self.state.metrics;
        let max = m.max_queue.get();
        if max > 0 && m.queue_depth.get() >= max {
            m.shed_503.inc();
            let body =
                Json::obj([("error", Json::Str("server overloaded; retry later".into()))]).encode();
            let mut extra = vec![("retry-after", "1")];
            if let Some(id) = shed_request_id(&frame) {
                extra.push(("x-request-id", id));
            }
            replies.push(Reply {
                conn,
                bytes: http::encode_response_with(503, body.as_bytes(), false, &extra),
                keep_alive: false,
                id: None,
            });
            return;
        }
        m.queue_depth.inc();
        // A send failure means the worker pool is gone (shutdown); the
        // connection dies with the reactor moments later.
        if self
            .jobs
            .send(Job {
                conn,
                frame,
                replies: replies.clone(),
                enqueued: Instant::now(),
            })
            .is_err()
        {
            m.queue_depth.dec();
        }
    }

    fn eof_reply(&mut self, head_complete: bool) -> Option<Vec<u8>> {
        // Mid-header EOF answers 400; mid-body EOF closes silently — the
        // head was valid, so there is no protocol error to report, only an
        // abandoned request.
        (!head_complete).then(|| error_bytes(400, "connection closed mid-header"))
    }
}

fn run_worker(rx: &Mutex<mpsc::Receiver<Job>>, state: &AppState) {
    loop {
        // Holding the lock across `recv` is the standard shared-receiver
        // idiom: idle workers queue on the mutex instead of the channel.
        // No stop check here: on shutdown the queue must *drain* (every
        // accepted job gets its reply flushed by the draining reactor);
        // workers exit when the last shard driver drops the sender.
        let job = match rx.lock().unwrap_or_else(|p| p.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => return, // all senders (shard drivers) gone
        };
        let m = &state.metrics;
        m.queue_depth.dec();
        let waited = job.enqueued.elapsed();
        let reply = match http::parse_frame(&job.frame) {
            Ok(req) => {
                // Latency (and the queue wait measured above) record
                // strictly after respond, so a /metrics scrape never counts
                // itself and a /debug/events tail never lists its own
                // request.
                let rid = request_id(state, &req);
                let t0 = Instant::now();
                let (status, body) = respond(state, &req);
                m.queue_wait_seconds.record_duration(waited);
                m.record_request(&req.method, &req.path, t0);
                state.events.record(
                    "http",
                    &rid,
                    &format!("{} {}", req.method, req.path),
                    status,
                    t0.elapsed(),
                );
                let keep = !req.wants_close();
                // 503s (degraded journal) always carry Retry-After.
                let mut extra = vec![("x-request-id", rid.as_str())];
                if status == 503 {
                    extra.push(("retry-after", "1"));
                }
                let bytes = match &body {
                    RespBody::Json(json) => {
                        http::encode_response_with(status, json.encode().as_bytes(), keep, &extra)
                    }
                    RespBody::Text(ct, text) => {
                        http::encode_response_ct(status, ct, text.as_bytes(), keep, &extra)
                    }
                };
                Reply {
                    conn: job.conn,
                    bytes,
                    keep_alive: keep,
                    // Reply ids feed the reactor's per-request span args;
                    // skip the clone entirely when tracing is off.
                    id: atpm_obs::tracer().enabled().then(|| rid.clone()),
                }
            }
            Err((status, message)) => Reply {
                conn: job.conn,
                bytes: error_bytes(status, &message),
                keep_alive: false,
                id: None,
            },
        };
        job.replies.push(reply);
    }
}

/// The running transport: shard reactors + worker pool.
pub(crate) struct EpollBackend {
    shards: Vec<JoinHandle<()>>,
    queues: Vec<Arc<ReplyQueue>>,
    workers: Vec<JoinHandle<()>>,
}

impl EpollBackend {
    /// Spawns `cfg.shards` reactors over clones of `listener` and
    /// `cfg.workers` request executors. Fails with `Unsupported` where the
    /// epoll shims don't exist.
    pub(crate) fn start(
        state: Arc<AppState>,
        cfg: &ServeConfig,
        listener: &TcpListener,
        stop: Arc<AtomicBool>,
    ) -> io::Result<EpollBackend> {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));

        // Reactors first: if epoll is unsupported, fail before spawning
        // anything.
        let mut reactors = Vec::new();
        for _ in 0..cfg.shards.max(1) {
            let reactor = Reactor::new(
                listener.try_clone()?,
                ReactorConfig {
                    // A frame can never legitimately exceed head + body
                    // caps; beyond that reads pause, not break.
                    read_limit: http::MAX_HEAD + http::MAX_BODY + 1024,
                    write_backpressure: 1 << 20,
                    idle_timeout_ms: Some(cfg.idle_timeout_ms),
                    max_conns: 65_536,
                    drain_ms: cfg.drain_ms,
                },
            )?
            .with_metrics(state.metrics.net.clone());
            reactors.push(reactor);
        }

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let state = state.clone();
                std::thread::spawn(move || run_worker(&rx, &state))
            })
            .collect();

        let mut queues = Vec::new();
        let mut shards = Vec::new();
        for reactor in reactors {
            queues.push(reactor.replies());
            let driver = HttpDriver {
                jobs: tx.clone(),
                state: state.clone(),
            };
            let stop = stop.clone();
            shards.push(std::thread::spawn(move || {
                reactor.run(driver, &stop);
            }));
        }
        drop(tx); // workers exit once every shard driver is gone

        Ok(EpollBackend {
            shards,
            queues,
            workers,
        })
    }

    /// Interrupts the shards (the stop flag is already raised) and joins
    /// everything.
    pub(crate) fn shutdown(&mut self) {
        for queue in &self.queues {
            queue.waker().wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        // All drivers (job senders) died with their reactors; workers see
        // the channel close and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
