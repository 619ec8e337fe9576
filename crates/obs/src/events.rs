//! Bounded structured event log for request-scoped diagnostics.
//!
//! A fixed-capacity ring of [`EventRecord`]s — one per completed request
//! (or any other discrete occurrence a caller wants tied to a request id).
//! Oldest records are evicted first and counted in [`EventLog::dropped`],
//! so the log is always a recent-history tail: `GET /debug/events` renders
//! it, and the dropped counter is exported so a scrape can tell how much
//! history the window actually covers.
//!
//! Unlike the metrics registry this is per-instance state (each
//! `AppState` owns one), so a fresh server renders an empty tail.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// One structured record: what happened, for which request, with what
/// outcome. Field order in [`EventLog::render_tail`] is stable — scripts
/// may parse it.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Wall-clock milliseconds since the Unix epoch at record time.
    pub ts_unix_ms: u64,
    /// Event category, e.g. `"http"`.
    pub kind: &'static str,
    /// Request id (`X-Request-Id`, supplied or generated).
    pub id: String,
    /// HTTP status (or 0 for non-HTTP events).
    pub status: u16,
    /// Duration of the work the event describes, in microseconds.
    pub dur_us: u64,
    /// Free-form detail, e.g. `"GET /metrics"`.
    pub detail: String,
}

/// Drop-oldest bounded event ring. All methods take one short mutex; the
/// record path allocates (two `String`s) — this is for request-rate
/// events, not signal handlers.
pub struct EventLog {
    ring: Mutex<VecDeque<EventRecord>>,
    cap: usize,
    dropped: AtomicU64,
}

impl EventLog {
    /// A log keeping at most `cap` records (minimum 1).
    pub fn with_cap(cap: usize) -> EventLog {
        EventLog {
            ring: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn record(&self, kind: &'static str, id: &str, detail: &str, status: u16, dur: Duration) {
        let ts_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let record = EventRecord {
            ts_unix_ms,
            kind,
            id: id.to_string(),
            status,
            dur_us: dur.as_micros() as u64,
            detail: detail.to_string(),
        };
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        while ring.len() >= self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Records evicted since construction (cumulative, never resets).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent `n` records, oldest of those first.
    pub fn tail(&self, n: usize) -> Vec<EventRecord> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Render the tail as one `key=value` line per record:
    ///
    /// ```text
    /// ts_ms=1719690000123 kind=http id=req-0000000000000000 status=200 dur_us=84 detail="GET /healthz"
    /// ```
    pub fn render_tail(&self, n: usize) -> String {
        let mut out = String::new();
        for r in self.tail(n) {
            let detail = r.detail.replace('"', "'");
            out.push_str(&format!(
                "ts_ms={} kind={} id={} status={} dur_us={} detail=\"{}\"\n",
                r.ts_unix_ms, r.kind, r.id, r.status, r.dur_us, detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts_cumulatively() {
        let log = EventLog::with_cap(3);
        for i in 0..5u16 {
            log.record(
                "http",
                &format!("req-{i}"),
                "GET /x",
                200 + i,
                Duration::from_micros(7),
            );
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let tail = log.tail(10);
        assert_eq!(
            tail.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["req-2", "req-3", "req-4"],
            "oldest evicted first"
        );
        // Draining via tail() does not reset anything: dropped is
        // cumulative and the ring keeps its records.
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn render_tail_is_stable_key_value_lines() {
        let log = EventLog::with_cap(16);
        log.record(
            "http",
            "req-abc",
            "GET /metrics",
            200,
            Duration::from_micros(123),
        );
        log.record(
            "http",
            "req-def",
            "POST /\"quoted\"",
            503,
            Duration::from_micros(4),
        );
        let text = log.render_tail(1);
        assert_eq!(text.lines().count(), 1, "tail(1) keeps only the newest");
        let line = text.lines().next().unwrap();
        assert!(line.contains("kind=http"));
        assert!(line.contains("id=req-def"));
        assert!(line.contains("status=503"));
        assert!(line.contains("dur_us=4"));
        assert!(
            line.contains("detail=\"POST /'quoted'\""),
            "quotes sanitized: {line}"
        );
        assert!(line.starts_with("ts_ms="));
        let empty = EventLog::with_cap(4);
        assert_eq!(empty.render_tail(100), "");
        assert!(empty.is_empty());
    }
}
