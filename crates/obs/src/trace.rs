//! A lightweight span/tracing facade drainable into Chrome trace-event
//! JSON (loadable in `chrome://tracing` and Perfetto).
//!
//! The tracer is process-global and off by default. Disabled, every hook
//! is one relaxed atomic load — no clock read, no lock, no allocation —
//! so instrumentation can stay in the hot paths permanently (the bench
//! regression gate runs with tracing disabled and must not move). Enabled,
//! spans buffer into a bounded drop-oldest ring; [`Tracer::drain_json`]
//! serializes and clears it. Event names are `&'static str` so recording
//! allocates nothing until the ring itself grows; the optional per-event
//! request id ([`Tracer::record_with_id`]) is the one owned allocation,
//! paid only while tracing is on.
//!
//! The ring drops **oldest** events when full: a long-running traced
//! process keeps the most recent history, and the cumulative
//! [`Tracer::dropped_total`] count (exported as
//! `atpm_obs_trace_dropped_total`) tells a scrape how much was shed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cap on buffered events; past it the oldest are evicted (and counted).
const EVENT_CAP: usize = 1 << 20;

struct Event {
    name: &'static str,
    cat: &'static str,
    tid: u64,
    ts_ns: u64,
    dur_ns: u64,
    /// Request id rendered as `"args":{"id":...}` when present.
    id: Option<Box<str>>,
}

/// The global trace collector. See the module docs.
pub struct Tracer {
    enabled: AtomicBool,
    t0: Instant,
    events: Mutex<VecDeque<Event>>,
    cap: usize,
    dropped: AtomicU64,
}

/// The process tracer (created on first use, disabled until
/// [`Tracer::set_enabled`]).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::with_cap(EVENT_CAP))
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    fn with_cap(cap: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            t0: Instant::now(),
            events: Mutex::new(VecDeque::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are being collected. One relaxed load — this is the
    /// entire cost of every hook while tracing is off.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Events evicted from the ring since process start. Cumulative —
    /// draining does not reset it (it backs the monotone
    /// `atpm_obs_trace_dropped_total` counter).
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Opens a span; its duration records when the guard drops. Returns an
    /// inert guard when disabled.
    pub fn span(&'static self, cat: &'static str, name: &'static str) -> Span {
        Span {
            live: self.enabled().then(|| (self, Instant::now(), cat, name)),
        }
    }

    /// Records a completed interval with an explicit start, for code that
    /// measured the interval itself (queue waits, stage timers). No-op
    /// when disabled.
    pub fn record(&self, cat: &'static str, name: &'static str, start: Instant, dur: Duration) {
        self.record_with_id(cat, name, start, dur, None);
    }

    /// [`Tracer::record`] carrying a request id, rendered into the
    /// event's `args` so a span in the trace viewer links back to the
    /// `X-Request-Id` a client saw.
    pub fn record_with_id(
        &self,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        dur: Duration,
        id: Option<&str>,
    ) {
        if !self.enabled() {
            return;
        }
        let ts_ns = start
            .checked_duration_since(self.t0)
            .unwrap_or_default()
            .as_nanos() as u64;
        let mut events = self.events.lock().unwrap_or_else(|p| p.into_inner());
        while events.len() >= self.cap {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(Event {
            name,
            cat,
            tid: thread_id(),
            ts_ns,
            dur_ns: dur.as_nanos() as u64,
            id: id.map(Box::from),
        });
    }

    /// Number of buffered events (tests).
    pub fn pending(&self) -> usize {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Serializes and clears the buffer as Chrome trace-event JSON:
    /// one `"X"` (complete) event per span, `ts`/`dur` in microseconds.
    /// The output loads directly in Perfetto / `chrome://tracing`.
    pub fn drain_json(&self) -> String {
        let events = std::mem::take(&mut *self.events.lock().unwrap_or_else(|p| p.into_inner()));
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for e in &events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_into(&mut out, e.name);
            out.push_str("\",\"cat\":\"");
            escape_into(&mut out, e.cat);
            out.push_str("\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&e.tid.to_string());
            out.push_str(",\"ts\":");
            push_us(&mut out, e.ts_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, e.dur_ns);
            if let Some(id) = &e.id {
                out.push_str(",\"args\":{\"id\":\"");
                escape_into(&mut out, id);
                out.push_str("\"}");
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":\"");
        out.push_str(&self.dropped_total().to_string());
        out.push_str("\"}}");
        out
    }
}

/// Nanoseconds as fractional microseconds (`123.456`).
fn push_us(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1_000).to_string());
    out.push('.');
    let frac = ns % 1_000;
    out.push_str(&format!("{frac:03}"));
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// RAII span guard returned by [`Tracer::span`].
pub struct Span {
    live: Option<(&'static Tracer, Instant, &'static str, &'static str)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((tracer, start, cat, name)) = self.live.take() {
            tracer.record(cat, name, start, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; keep its tests serial.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_hooks_record_nothing() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let t = tracer();
        t.set_enabled(false);
        let before = t.pending();
        {
            let _s = t.span("test", "noop");
        }
        t.record("test", "noop", Instant::now(), Duration::from_micros(1));
        assert_eq!(t.pending(), before);
    }

    #[test]
    fn spans_drain_as_chrome_json_with_request_id_args() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let t = tracer();
        t.drain_json(); // reset any residue
        t.set_enabled(true);
        {
            let _s = t.span("cat", "work");
            std::thread::sleep(Duration::from_millis(1));
        }
        t.record_with_id(
            "net",
            "inflight",
            Instant::now(),
            Duration::from_micros(5),
            Some("req-00000000000000aa"),
        );
        t.set_enabled(false);
        let json = t.drain_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"work\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(
            json.contains("\"args\":{\"id\":\"req-00000000000000aa\"}"),
            "request id must land in span args: {json}"
        );
        assert_eq!(t.pending(), 0, "drain must clear the buffer");
    }

    #[test]
    fn ring_caps_drop_oldest_and_count_cumulatively() {
        let t = Tracer::with_cap(4);
        t.set_enabled(true);
        const NAMES: [&str; 6] = ["e0", "e1", "e2", "e3", "e4", "e5"];
        for name in NAMES {
            t.record("test", name, Instant::now(), Duration::from_micros(1));
        }
        t.set_enabled(false);
        assert_eq!(t.pending(), 4, "ring holds exactly the cap");
        assert_eq!(t.dropped_total(), 2, "two oldest evicted and counted");
        let json = t.drain_json();
        assert!(
            !json.contains("\"e0\"") && !json.contains("\"e1\""),
            "oldest gone: {json}"
        );
        assert!(json.contains("\"e5\""), "newest kept: {json}");
        assert_eq!(
            t.dropped_total(),
            2,
            "drain must not reset the cumulative drop count"
        );
    }
}
