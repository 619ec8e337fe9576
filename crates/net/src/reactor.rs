//! The readiness reactor: one thread, one epoll instance, thousands of
//! multiplexed connections.
//!
//! The reactor owns a nonblocking `TcpListener` plus every accepted
//! `TcpStream`, and drives each connection through a small state machine:
//!
//! ```text
//!   readable ──> read_buf ──> Driver::slice ──┬── Partial: wait for bytes
//!                                             ├── Frame: Driver::dispatch
//!                                             └── Fatal:  queue reply, close
//!   dispatch ──> busy (reads paused) ──> ReplyQueue::push (any thread)
//!        ──> waker ──> write_buf ──> flush, EPOLLOUT on short write
//!        ──> drained ──> parse next pipelined frame or resume reading
//! ```
//!
//! Exactly one frame per connection is in flight at a time: while `busy`
//! the reactor neither reads nor parses that connection (natural
//! backpressure, and it keeps pipelined requests sequentially ordered —
//! the same observable behavior as a blocking one-thread-per-connection
//! server). Responses are produced on *other* threads and land in the
//! shard's [`ReplyQueue`]; the queue's [`Waker`] pulls the reactor out of
//! `epoll_wait` to write them.
//!
//! The reactor keeps no timers and runs no periodic work of its own: with
//! an idle timeout set and at least one connection open, it wakes every
//! `idle_timeout_ms / 8` to scan its connections and close each one that
//! is not busy and has been quiet for the whole timeout. With no
//! connections it parks in `epoll_wait` with no timeout at all.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atpm_obs::trace::tracer;

use crate::buf::{read_nonblocking, ReadStatus, WriteBuf};
use crate::fault::{gate, Site};
use crate::metrics::NetMetrics;
use crate::poll::{Event, Interest, Poller};
use crate::wake::Waker;

/// Opaque connection identity: slot plus generation, so a reply addressed
/// to a connection that died (and whose slot was recycled) is dropped
/// instead of corrupting the successor.
pub type ConnId = u64;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

fn conn_token(slot: u32, gen: u32) -> u64 {
    TOKEN_BASE + slot as u64 + ((gen as u64) << 32)
}

fn token_parts(token: u64) -> (u32, u32) {
    (
        ((token & 0xFFFF_FFFF) - TOKEN_BASE) as u32,
        (token >> 32) as u32,
    )
}

/// Verdict of [`Driver::slice`] over a connection's read buffer.
pub enum Sliced {
    /// No complete frame yet; `head_complete` reports whether the frame
    /// head (e.g. the HTTP header block) has fully arrived — it decides
    /// what a mid-frame EOF means.
    Partial {
        /// Frame head fully buffered, body still streaming.
        head_complete: bool,
    },
    /// The first `n` bytes of the buffer are one complete frame.
    Frame(usize),
    /// The peer sent something unusable: send these reply bytes and close.
    Fatal(Vec<u8>),
}

/// A finished response traveling back to the reactor, from any thread.
pub struct Reply {
    /// The connection the frame came from.
    pub conn: ConnId,
    /// Wire bytes to send.
    pub bytes: Vec<u8>,
    /// `false` closes the connection once the bytes are flushed.
    pub keep_alive: bool,
    /// Request id for diagnostics: when set, the reactor attaches it to
    /// the `inflight` span so a trace links back to the `X-Request-Id`
    /// the client saw. Workers only populate it while tracing is enabled
    /// (it is an allocation the hot path otherwise skips).
    pub id: Option<String>,
}

/// The completion side of a shard: worker threads push, the waker fires,
/// the reactor drains. One per reactor.
pub struct ReplyQueue {
    queue: Mutex<Vec<Reply>>,
    waker: Waker,
}

impl ReplyQueue {
    /// Queues a finished response and wakes the reactor.
    pub fn push(&self, reply: Reply) {
        self.queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(reply);
        self.waker.wake();
    }

    /// The shard's waker (also usable to interrupt the reactor for
    /// shutdown).
    pub fn waker(&self) -> &Waker {
        &self.waker
    }

    fn drain_into(&self, out: &mut Vec<Reply>) {
        out.append(&mut self.queue.lock().unwrap_or_else(|p| p.into_inner()));
    }
}

/// The protocol plugged into a reactor. `slice` runs on the reactor thread
/// and must be cheap (a scan, not a parse); `dispatch` hands the frame off
/// — to a worker pool, or inline for trivial protocols — and the response
/// comes back through the [`ReplyQueue`].
pub trait Driver: Send {
    /// Frame-cut the front of the read buffer.
    fn slice(&mut self, buf: &[u8]) -> Sliced;

    /// Process one complete frame; the reply lands in `replies` whenever
    /// it is ready.
    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>);

    /// Parting reply for a peer that closed mid-frame (`None` = just
    /// close). An HTTP driver answers 400 for a half-sent head but stays
    /// silent for a half-sent body, matching blocking-server behavior.
    fn eof_reply(&mut self, head_complete: bool) -> Option<Vec<u8>> {
        let _ = head_complete;
        None
    }
}

/// Reactor knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Per-connection read-buffer cap; reads pause (backpressure) once
    /// buffered bytes reach it. Must exceed the protocol's largest frame or
    /// oversized frames can never complete.
    pub read_limit: usize,
    /// Pause reading while more than this many response bytes are queued.
    pub write_backpressure: usize,
    /// Close connections idle at least this long (no reads, no replies)
    /// and not waiting on a dispatched frame. Connections are scanned
    /// every eighth of the timeout, so one closes within 9/8 of it.
    /// `None` keeps them forever, like a blocking server would.
    pub idle_timeout_ms: Option<u64>,
    /// Accept cap: connections beyond this are accepted and immediately
    /// dropped, shedding load instead of ballooning.
    pub max_conns: usize,
    /// Graceful-drain budget on stop: keep the loop alive (listener
    /// deregistered, no new accepts) up to this long while in-flight
    /// frames finish and queued reply bytes flush. `0` preserves the old
    /// semantics — exit immediately, dropping unflushed responses.
    pub drain_ms: u64,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            read_limit: 1 << 20,
            write_backpressure: 1 << 20,
            idle_timeout_ms: None,
            max_conns: 65_536,
            drain_ms: 0,
        }
    }
}

/// End-of-run accounting, returned by [`Reactor::run`]. In a leak-free
/// shutdown every slot that ever existed is back on the free list — the
/// chaos suite asserts exactly that after every fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections still open when the loop exited (their streams close
    /// with the reactor; nonzero is normal when clients are still
    /// connected at stop, but must be zero once all peers have hung up).
    pub live_conns: usize,
    /// Total connection slots ever allocated.
    pub slots: usize,
    /// Slots on the free list at exit.
    pub free_slots: usize,
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    read_buf: Vec<u8>,
    write: WriteBuf,
    /// A frame is dispatched and its reply not yet queued for write.
    busy: bool,
    /// Peer closed its write side; `read_buf` holds the final bytes.
    eof: bool,
    /// Close as soon as the write buffer drains.
    close_after_flush: bool,
    interest: Interest,
    last_activity_ms: u64,
    /// Dispatch timestamp of the in-flight frame, kept only while tracing
    /// is enabled; closes the dispatch→reply span in `reply_ready`.
    dispatched_at: Option<Instant>,
}

/// One event loop. Construct with a bound listener, then [`run`](Self::run)
/// it on a dedicated thread.
pub struct Reactor {
    listener: TcpListener,
    poller: Poller,
    replies: Arc<ReplyQueue>,
    cfg: ReactorConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    gens: Vec<u32>,
    t0: Instant,
    live: usize,
    metrics: Option<Arc<NetMetrics>>,
}

impl Reactor {
    /// Wraps `listener` (switched to nonblocking; clones of one listener
    /// may back several reactors — registration is `EPOLLEXCLUSIVE`, so
    /// shards don't stampede on every connect).
    pub fn new(listener: TcpListener, cfg: ReactorConfig) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(&listener, TOKEN_LISTENER, Interest::READ, true)?;
        poller.add(&waker, TOKEN_WAKER, Interest::READ, false)?;
        Ok(Reactor {
            listener,
            poller,
            replies: Arc::new(ReplyQueue {
                queue: Mutex::new(Vec::new()),
                waker,
            }),
            cfg,
            conns: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            t0: Instant::now(),
            live: 0,
            metrics: None,
        })
    }

    /// Attaches connection-plane counters (typically registered in the
    /// owning server's metrics registry). Without this the reactor runs
    /// uncounted — the chaos and unit harnesses don't care.
    pub fn with_metrics(mut self, metrics: Arc<NetMetrics>) -> Reactor {
        self.metrics = Some(metrics);
        self
    }

    /// The shard's completion queue — hand it to whoever produces replies.
    /// Its waker also interrupts [`run`](Self::run) so a raised stop flag
    /// is observed immediately.
    pub fn replies(&self) -> Arc<ReplyQueue> {
        self.replies.clone()
    }

    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Runs the event loop until `stop` is raised. Consumes the reactor;
    /// every owned connection closes on exit. Returns slot accounting so
    /// harnesses can assert the shard leaked nothing.
    ///
    /// With no connection open, or no idle timeout, the reactor parks
    /// *indefinitely* — there is no polling heartbeat. Shutdown is
    /// therefore a two-step contract: raise `stop`, then fire the shard's
    /// waker ([`ReplyQueue::waker`](ReplyQueue::waker)) to pull the loop out
    /// of `epoll_wait`. [`ReplyQueue::push`] wakes as a side effect, so
    /// reply traffic can never stall the loop either.
    ///
    /// With a nonzero [`ReactorConfig::drain_ms`], a raised stop flag first
    /// deregisters the listener and keeps the loop running — up to the
    /// budget — until no connection has a dispatched frame awaiting its
    /// reply or unflushed response bytes, so accepted work is answered
    /// instead of dropped on the floor.
    pub fn run(mut self, mut driver: impl Driver, stop: &AtomicBool) -> ReactorStats {
        let mut events: Vec<Event> = Vec::new();
        let mut finished: Vec<Reply> = Vec::new();
        // Drain deadline (reactor-clock ms), set when stop is first seen.
        let mut drain_until: Option<u64> = None;
        // Reactor-clock ms of the next idle scan.
        let mut next_scan = 0u64;
        loop {
            if stop.load(Ordering::SeqCst) {
                if self.cfg.drain_ms == 0 {
                    break;
                }
                let deadline = *drain_until.get_or_insert_with(|| {
                    // Entering drain: no new connections, finish the rest.
                    let _ = self.poller.remove(&self.listener);
                    self.now_ms() + self.cfg.drain_ms
                });
                let in_flight = self
                    .conns
                    .iter()
                    .flatten()
                    .any(|c| c.busy || !c.write.is_empty());
                if !in_flight || self.now_ms() >= deadline {
                    break;
                }
            }
            let mut timeout = match self.cfg.idle_timeout_ms {
                Some(_) if self.live > 0 => Some(Duration::from_millis(
                    next_scan.saturating_sub(self.now_ms()),
                )),
                _ => None,
            };
            if drain_until.is_some() {
                // Bounded naps while draining, so the deadline is honored
                // even if no event ever arrives.
                let cap = Duration::from_millis(25);
                timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
            }
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing epoll instance is unrecoverable for this shard;
                // bail rather than spin.
                break;
            }
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    // A listener event already in flight when drain began
                    // must not admit new work.
                    TOKEN_LISTENER if drain_until.is_none() => self.accept_ready(),
                    TOKEN_LISTENER => {}
                    TOKEN_WAKER => self.replies.waker().drain(),
                    token => self.conn_ready(token, ev, &mut driver),
                }
            }
            events = batch;

            // Completions may have landed whether or not the waker event
            // made this batch; always drain.
            self.replies.drain_into(&mut finished);
            for reply in finished.drain(..) {
                self.reply_ready(reply, &mut driver);
            }

            if let Some(idle_ms) = self.cfg.idle_timeout_ms {
                let now = self.now_ms();
                if now >= next_scan {
                    self.close_idle(idle_ms, now);
                    next_scan = now + (idle_ms / 8).max(1);
                }
            }
        }
        ReactorStats {
            live_conns: self.live,
            slots: self.conns.len(),
            free_slots: self.free.len(),
        }
    }

    fn accept_ready(&mut self) {
        loop {
            // Fault gate first: an injected EMFILE/EINTR exercises the same
            // arms a real kernel error would.
            let accepted = match gate(Site::Accept) {
                Ok(_) => self.listener.accept().map(|(stream, _)| stream),
                Err(e) => Err(e),
            };
            match accepted {
                Ok(stream) => {
                    if self.live >= self.cfg.max_conns {
                        drop(stream); // shed
                        continue;
                    }
                    let _ = self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Fd exhaustion (EMFILE=24 / ENFILE=23): the pending
                // connection keeps the level-triggered listener readable,
                // so returning immediately would spin this shard at 100%
                // CPU against the very workers that could free fds. Back
                // off briefly; the connection either gets accepted on a
                // later pass or times out client-side.
                Err(e) if e.raw_os_error() == Some(24) || e.raw_os_error() == Some(23) => {
                    std::thread::sleep(Duration::from_millis(25));
                    return;
                }
                // Other transient accept errors (ECONNABORTED, ...):
                // yield; level-triggered epoll re-arms us.
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                (self.conns.len() - 1) as u32
            }
        };
        let gen = self.gens[slot as usize];
        let token = conn_token(slot, gen);
        if let Err(e) = self.poller.add(&stream, token, Interest::READ, false) {
            // The slot was claimed above but no Conn was installed; without
            // this push it would leak from both lists forever.
            self.free.push(slot);
            return Err(e);
        }
        self.conns[slot as usize] = Some(Conn {
            stream,
            gen,
            read_buf: Vec::new(),
            write: WriteBuf::new(),
            busy: false,
            eof: false,
            close_after_flush: false,
            interest: Interest::READ,
            last_activity_ms: self.now_ms(),
            dispatched_at: None,
        });
        self.live += 1;
        if let Some(m) = &self.metrics {
            m.accepts.inc();
        }
        Ok(())
    }

    fn lookup(&self, token: u64) -> Option<u32> {
        let (slot, gen) = token_parts(token);
        match self.conns.get(slot as usize)? {
            Some(conn) if conn.gen == gen => Some(slot),
            _ => None,
        }
    }

    fn close(&mut self, slot: u32) {
        if let Some(conn) = self.conns[slot as usize].take() {
            let _ = self.poller.remove(&conn.stream);
            self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
            self.free.push(slot);
            self.live -= 1;
            if let Some(m) = &self.metrics {
                m.conns_closed.inc();
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &Event, driver: &mut impl Driver) {
        let Some(slot) = self.lookup(token) else {
            return;
        };
        if ev.readable {
            self.read_ready(slot, driver);
        }
        // The read path may have closed the slot.
        if self.conns[slot as usize].is_some() && ev.writable {
            self.flush_and_rearm(slot, driver);
        }
    }

    fn read_ready(&mut self, slot: u32, driver: &mut impl Driver) {
        {
            let cfg_read_limit = self.cfg.read_limit;
            let now = self.now_ms();
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.last_activity_ms = now;
            if conn.busy || conn.close_after_flush || conn.eof {
                // Not interested in bytes right now (level-triggered events
                // for a paused conn are possible until interest updates).
                return;
            }
            match read_nonblocking(&mut conn.stream, &mut conn.read_buf, cfg_read_limit) {
                Ok(ReadStatus::Eof) => conn.eof = true,
                Ok(ReadStatus::WouldBlock) | Ok(ReadStatus::LimitReached) => {}
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.advance_conn(slot, driver);
    }

    /// Parses and dispatches as much as the connection's state allows, then
    /// flushes and recomputes interest.
    fn advance_conn(&mut self, slot: u32, driver: &mut impl Driver) {
        let replies = self.replies.clone();
        loop {
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            if conn.busy || conn.close_after_flush {
                break;
            }
            match driver.slice(&conn.read_buf) {
                Sliced::Frame(n) => {
                    let frame: Vec<u8> = conn.read_buf.drain(..n).collect();
                    conn.busy = true;
                    conn.dispatched_at = tracer().enabled().then(Instant::now);
                    let token = conn_token(slot, conn.gen);
                    if let Some(m) = &self.metrics {
                        m.dispatches.inc();
                    }
                    driver.dispatch(token, frame, &replies);
                }
                Sliced::Partial { head_complete } => {
                    if conn.eof {
                        if !conn.read_buf.is_empty() {
                            if let Some(reply) = driver.eof_reply(head_complete) {
                                conn.write.push(&reply);
                            }
                            conn.read_buf.clear();
                        }
                        conn.close_after_flush = true;
                    }
                    break;
                }
                Sliced::Fatal(reply) => {
                    conn.write.push(&reply);
                    conn.read_buf.clear();
                    conn.close_after_flush = true;
                }
            }
        }
        self.flush_and_rearm(slot, driver);
    }

    /// A worker finished a frame: queue the response and keep the
    /// connection's pipeline moving.
    fn reply_ready(&mut self, reply: Reply, driver: &mut impl Driver) {
        let Some(slot) = self.lookup(reply.conn) else {
            return; // connection died while the worker was busy
        };
        {
            let now = self.now_ms();
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.busy = false;
            conn.last_activity_ms = now;
            if let Some(start) = conn.dispatched_at.take() {
                tracer().record_with_id(
                    "net",
                    "inflight",
                    start,
                    start.elapsed(),
                    reply.id.as_deref(),
                );
            }
            conn.write.push(&reply.bytes);
            if !reply.keep_alive {
                conn.close_after_flush = true;
                conn.read_buf.clear();
            }
        }
        self.advance_conn(slot, driver);
    }

    /// Flushes the write buffer and recomputes epoll interest; closes the
    /// connection when its story is over.
    fn flush_and_rearm(&mut self, slot: u32, _driver: &mut impl Driver) {
        let conn = self.conns[slot as usize].as_mut().expect("live slot");
        let drained = match conn.write.flush_to(&mut conn.stream) {
            Ok(d) => d,
            Err(_) => {
                self.close(slot);
                return;
            }
        };
        if drained && conn.close_after_flush {
            self.close(slot);
            return;
        }
        if drained && conn.eof && !conn.busy && conn.read_buf.is_empty() {
            // Peer is gone and nothing is owed: done.
            self.close(slot);
            return;
        }
        let desired = Interest {
            readable: !conn.busy
                && !conn.close_after_flush
                && !conn.eof
                && conn.write.pending() < self.cfg.write_backpressure
                && conn.read_buf.len() < self.cfg.read_limit,
            writable: !drained,
        };
        if desired != conn.interest {
            let token = conn_token(slot, conn.gen);
            if self.poller.modify(&conn.stream, token, desired).is_err() {
                self.close(slot);
                return;
            }
            let conn = self.conns[slot as usize].as_mut().expect("live slot");
            conn.interest = desired;
        }
    }

    /// Closes every connection that is not waiting on a dispatched frame's
    /// reply and has seen no read or reply for at least `idle_ms`.
    fn close_idle(&mut self, idle_ms: u64, now: u64) {
        for slot in 0..self.conns.len() {
            let quiet = self.conns[slot]
                .as_ref()
                .is_some_and(|c| !c.busy && now.saturating_sub(c.last_activity_ms) >= idle_ms);
            if quiet {
                self.close(slot as u32);
            }
        }
    }
}
