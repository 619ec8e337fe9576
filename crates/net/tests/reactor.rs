//! Reactor integration tests over real loopback sockets, with a toy
//! line-framed protocol: each frame is one `\n`-terminated line; the reply
//! is the line uppercased (same terminator). A line starting with `!` is a
//! protocol error ("fatal"), answered with `ERR\n` and a close — enough
//! surface to exercise framing, dispatch, deferred replies from a worker
//! thread, pipelining, partial writes, EOF handling, and idle timeouts. On
//! the worker, a line starting with `slow` takes [`SLOW_MS`] to answer.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use atpm_net::{ConnId, Driver, Reactor, ReactorConfig, Reply, ReplyQueue, Sliced};

/// Where the echo driver computes its replies.
enum Mode {
    /// On the reactor thread, inside `dispatch` (simplest possible driver).
    Inline,
    /// On a separate worker thread fed by a channel — the deferred-response
    /// path the serve layer uses (reply arrives via the waker).
    Worker(mpsc::Sender<(ConnId, Vec<u8>, Arc<ReplyQueue>)>),
}

struct EchoDriver {
    mode: Mode,
}

/// How long the worker takes over a `slow` line.
const SLOW_MS: u64 = 300;

fn echo_reply(conn: ConnId, frame: &[u8]) -> Reply {
    if frame.first() == Some(&b'!') {
        return Reply {
            conn,
            bytes: b"ERR\n".to_vec(),
            keep_alive: false,
            id: None,
        };
    }
    Reply {
        conn,
        bytes: frame.to_ascii_uppercase(),
        keep_alive: true,
        id: None,
    }
}

impl Driver for EchoDriver {
    fn slice(&mut self, buf: &[u8]) -> Sliced {
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => Sliced::Frame(nl + 1),
            None if buf.len() > 1024 => Sliced::Fatal(b"TOO LONG\n".to_vec()),
            None => Sliced::Partial {
                head_complete: false,
            },
        }
    }

    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>) {
        match &self.mode {
            Mode::Inline => replies.push(echo_reply(conn, &frame)),
            Mode::Worker(tx) => {
                tx.send((conn, frame, replies.clone())).unwrap();
            }
        }
    }

    fn eof_reply(&mut self, _head_complete: bool) -> Option<Vec<u8>> {
        Some(b"EOF MID FRAME\n".to_vec())
    }
}

struct Harness {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
    worker_thread: Option<std::thread::JoinHandle<()>>,
    queue: Arc<ReplyQueue>,
}

impl Harness {
    fn start(cfg: ReactorConfig, deferred: bool) -> Harness {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new(listener, cfg).unwrap();
        let queue = reactor.replies();
        let stop = Arc::new(AtomicBool::new(false));

        let (worker_thread, mode) = if deferred {
            let (tx, rx) = mpsc::channel::<(ConnId, Vec<u8>, Arc<ReplyQueue>)>();
            let rx = Mutex::new(rx);
            let handle = std::thread::spawn(move || {
                while let Ok((conn, frame, replies)) = rx.lock().unwrap().recv() {
                    // Simulate real work happening off the reactor thread.
                    let ms = if frame.starts_with(b"slow") {
                        SLOW_MS
                    } else {
                        1
                    };
                    std::thread::sleep(Duration::from_millis(ms));
                    replies.push(echo_reply(conn, &frame));
                }
            });
            (Some(handle), Mode::Worker(tx))
        } else {
            (None, Mode::Inline)
        };

        let driver = EchoDriver { mode };
        let stop2 = stop.clone();
        let reactor_thread = Some(std::thread::spawn(move || {
            reactor.run(driver, &stop2);
        }));
        Harness {
            addr,
            stop,
            reactor_thread,
            worker_thread,
            queue,
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.waker().wake();
        if let Some(h) = self.reactor_thread.take() {
            h.join().unwrap();
        }
        // Worker exits when the driver (its Sender) is dropped with the
        // reactor.
        if let Some(h) = self.worker_thread.take() {
            h.join().unwrap();
        }
    }
}

fn read_exactly(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf).unwrap();
    buf
}

#[test]
fn inline_echo_roundtrip_and_keepalive() {
    let h = Harness::start(ReactorConfig::default(), false);
    let mut c = h.connect();
    for word in ["alpha\n", "beta\n", "gamma\n"] {
        c.write_all(word.as_bytes()).unwrap();
        assert_eq!(
            read_exactly(&mut c, word.len()),
            word.to_uppercase().as_bytes()
        );
    }
}

#[test]
fn deferred_worker_replies_via_waker() {
    let h = Harness::start(ReactorConfig::default(), true);
    let mut c = h.connect();
    c.write_all(b"deferred\n").unwrap();
    assert_eq!(read_exactly(&mut c, 9), b"DEFERRED\n");
}

#[test]
fn pipelined_frames_answered_in_order() {
    let h = Harness::start(ReactorConfig::default(), true);
    let mut c = h.connect();
    // Three frames in one segment; replies must come back sequentially.
    c.write_all(b"one\ntwo\nthree\n").unwrap();
    assert_eq!(read_exactly(&mut c, 14), b"ONE\nTWO\nTHREE\n");
}

#[test]
fn byte_by_byte_frames_assemble() {
    let h = Harness::start(ReactorConfig::default(), false);
    let mut c = h.connect();
    for b in b"drip\n" {
        c.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(read_exactly(&mut c, 5), b"DRIP\n");
}

#[test]
fn fatal_frame_answers_then_closes() {
    let h = Harness::start(ReactorConfig::default(), false);
    let mut c = h.connect();
    c.write_all(b"!boom\n").unwrap();
    assert_eq!(read_exactly(&mut c, 4), b"ERR\n");
    let mut rest = Vec::new();
    assert_eq!(c.read_to_end(&mut rest).unwrap(), 0, "server must close");
}

#[test]
fn eof_mid_frame_gets_the_parting_reply() {
    let h = Harness::start(ReactorConfig::default(), false);
    let mut c = h.connect();
    c.write_all(b"no newline").unwrap();
    c.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).unwrap();
    assert_eq!(rest, b"EOF MID FRAME\n");
}

#[test]
fn clean_disconnect_is_silent() {
    let h = Harness::start(ReactorConfig::default(), false);
    let c = h.connect();
    drop(c); // no bytes sent: the reactor should just reap it
    let mut c2 = h.connect();
    c2.write_all(b"still alive\n").unwrap();
    assert_eq!(read_exactly(&mut c2, 12), b"STILL ALIVE\n");
}

#[test]
fn many_concurrent_idle_connections_do_not_starve_service() {
    // The whole point of the reactor: with one thread, hold dozens of idle
    // connections while still serving new traffic promptly.
    let h = Harness::start(ReactorConfig::default(), true);
    let idle: Vec<TcpStream> = (0..64).map(|_| h.connect()).collect();
    let mut active = h.connect();
    active.write_all(b"work\n").unwrap();
    assert_eq!(read_exactly(&mut active, 5), b"WORK\n");
    // Idle connections still usable afterwards.
    let mut one = idle.into_iter().next().unwrap();
    one.write_all(b"late\n").unwrap();
    assert_eq!(read_exactly(&mut one, 5), b"LATE\n");
}

#[test]
fn large_frames_exercise_partial_writes() {
    // A reply far larger than a socket buffer forces the EPOLLOUT
    // resumption path.
    let h = Harness::start(ReactorConfig::default(), false);
    let mut c = h.connect();
    let line = "x".repeat(900);
    let mut expected = Vec::new();
    for _ in 0..200 {
        c.write_all(line.as_bytes()).unwrap();
        c.write_all(b"\n").unwrap();
        expected.extend_from_slice(line.to_uppercase().as_bytes());
        expected.push(b'\n');
    }
    let got = read_exactly(&mut c, expected.len());
    assert_eq!(got, expected);
}

#[test]
fn waker_shutdown_interrupts_an_indefinite_park() {
    // With no connections the reactor parks in epoll_wait with no timeout
    // at all; the stop flag alone can never be observed. The
    // shutdown contract — raise stop, then wake — must tear it down
    // promptly anyway.
    let h = Harness::start(ReactorConfig::default(), false);
    // Give the loop time to reach its indefinite park.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    drop(h); // Harness::drop raises stop, wakes, joins
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "shutdown took {:?} — the waker did not interrupt the park",
        t0.elapsed()
    );
}

#[test]
fn idle_timeout_reaps_quiet_connections_but_not_active_ones() {
    let cfg = ReactorConfig {
        idle_timeout_ms: Some(100),
        ..Default::default()
    };
    let h = Harness::start(cfg, false);
    let mut quiet = h.connect();
    let mut chatty = h.connect();
    // Keep one connection active past the other's deadline.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(40));
        chatty.write_all(b"ping\n").unwrap();
        assert_eq!(read_exactly(&mut chatty, 5), b"PING\n");
    }
    // The quiet one must be gone by now.
    let mut rest = Vec::new();
    quiet
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    assert_eq!(
        quiet.read_to_end(&mut rest).unwrap(),
        0,
        "idle connection should have been closed"
    );
    // And the chatty one survives.
    chatty.write_all(b"still\n").unwrap();
    assert_eq!(read_exactly(&mut chatty, 6), b"STILL\n");
}

#[test]
fn idle_timeout_spares_a_connection_waiting_on_a_slow_reply() {
    // The worker takes three idle timeouts over the frame. The connection
    // sends and receives nothing meanwhile, but it is busy, so the idle
    // scan must leave it open for the reply and the frame after it.
    let cfg = ReactorConfig {
        idle_timeout_ms: Some(SLOW_MS / 3),
        ..Default::default()
    };
    let h = Harness::start(cfg, true);
    let mut c = h.connect();
    let t0 = std::time::Instant::now();
    c.write_all(b"slow\n").unwrap();
    assert_eq!(read_exactly(&mut c, 5), b"SLOW\n");
    assert!(t0.elapsed() >= Duration::from_millis(SLOW_MS));
    c.write_all(b"after\n").unwrap();
    assert_eq!(read_exactly(&mut c, 6), b"AFTER\n");
}
