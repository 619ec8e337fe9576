//! The concurrent session manager: adaptive sessions keyed by token.
//!
//! Each session pairs a [`PolicyStepper`] with a suspended
//! [`SessionState`]; the serve-observe-update loop of the paper's adaptive
//! protocol (§II-B) is driven one request at a time:
//!
//! 1. `next_batch` — resume the session, let the policy commit up to `k`
//!    seeds decided against **one** residual state, suspend again. The
//!    batch is now *pending*: the residual graph is not touched until its
//!    cascade is observed.
//! 2. `observe_batch` — apply the realized joint activations
//!    (client-reported, or server-simulated against the session's
//!    possible world) as one adaptivity round and clear the pending batch.
//! 3. `ledger` — read the profit ledger at any time.
//!
//! A single seed is a batch of one: `next` is `next_batch` with `k = 1`
//! and `observe` is `observe_batch` of one seed, through the same code
//! and the same journal records. The verb families differ only in their
//! 409 wording, and in that the single-seed verbs refuse a pending
//! multi-seed batch, which they could neither re-serve nor observe.
//!
//! Concurrency: the table itself is a `Mutex<HashMap>` held only for
//! lookup/insert; each session sits behind its own `Arc<Mutex<_>>`, so
//! requests for different sessions proceed in parallel and requests for the
//! same session serialize (the protocol is inherently sequential per
//! session). `next` is **idempotent**: while a batch is pending, retrying
//! returns that same batch again, whatever `k` the retry asks for (a
//! client that lost the response can safely re-ask), and the residual
//! graph is untouched until the observation. Genuinely conflicting calls
//! (an observation with nothing pending or for the wrong seeds) are
//! rejected with 409 rather than corrupting the run — the serve protocol
//! stays byte-identical to the in-process
//! [`run_stepper`](atpm_core::run_stepper) drive.
//!
//! Durability: with [`attach_journal`](SessionManager::attach_journal), every
//! committed transition (create / new batch / observation / delete) is
//! appended to an [`ATPMJNL2` journal](crate::journal) — idempotent retries
//! are not re-journaled. [`recover`](SessionManager::recover) replays a
//! journal through these same handlers, rebuilding each session bit-for-bit
//! (same token, same seed sequence, same ledger).
//!
//! Expiry: every session records a last-touched timestamp from the
//! manager's clock (monotonic by default, injectable for tests), and
//! [`sweep_expired`](SessionManager::sweep_expired) evicts sessions idle
//! past a TTL — abandoned runs would otherwise pin their suspended
//! residual graph forever. Evicted tokens leave a bounded tombstone so
//! later requests get an honest `410 Gone` instead of a confusable 404.
//! The sweep is driven by the server's reactor tick; the manager itself
//! never spawns.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use atpm_core::{AdaptiveSession, PolicyStepper, SessionState};
use atpm_graph::Node;

use crate::journal::{Journal, Record};
use crate::metrics::ServeMetrics;
use crate::protocol::{ApiError, CreateSessionReq, Ledger, ObserveBatchReq, ObserveReq};
use crate::snapshot::{Snapshot, SnapshotStore};

/// Millisecond clock the manager stamps sessions with. Injectable so the
/// expiry tests can advance time by fiat instead of sleeping.
pub type ClockMs = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Tombstones of evicted sessions, capped FIFO so an eviction storm cannot
/// grow the table it was meant to shrink.
#[derive(Default)]
struct Tombstones {
    set: std::collections::HashSet<String>,
    order: VecDeque<String>,
}

const MAX_TOMBSTONES: usize = 65_536;

impl Tombstones {
    fn insert(&mut self, token: String) {
        if self.set.insert(token.clone()) {
            self.order.push_back(token);
            while self.order.len() > MAX_TOMBSTONES {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }
}

/// One hosted session.
struct SessionEntry {
    snapshot: Arc<Snapshot>,
    stepper: Box<dyn PolicyStepper>,
    /// Suspended between requests; `Some` except transiently inside a
    /// request handler.
    state: Option<SessionState>,
    /// Batch committed by `next`/`next_batch` and not yet observed
    /// (empty = nothing pending; the single-seed route pends a batch of
    /// one).
    pending: Vec<Node>,
    /// Policy exhausted (stepper returned an empty batch).
    done: bool,
    /// Manager-clock milliseconds of the last request that touched this
    /// session (any verb counts as a sign of life).
    last_touched_ms: u64,
}

/// The 503 a mutating request answers with when the journal is poisoned:
/// the transition may not survive a crash, so it is refused rather than
/// acked undurably. Read routes keep serving.
fn degraded_error(e: io::Error) -> ApiError {
    ApiError::new(
        503,
        format!("journal degraded; durability lost ({e}); mutations disabled"),
    )
}

/// The error a session answers with after a handler panic tore its state:
/// the run cannot be continued consistently, only discarded.
fn corrupted() -> ApiError {
    ApiError::new(
        500,
        "session state lost by an earlier panic; DELETE it and open a new one",
    )
}

impl SessionEntry {
    /// Runs `f` on the resumed session, suspending the result back. If `f`
    /// panics, the state stays `None` and the panic propagates (the server
    /// catches it at the request boundary); later calls get a clean 500
    /// from [`corrupted`] instead of a cascading panic.
    fn with_session<T>(
        &mut self,
        f: impl FnOnce(&mut Box<dyn PolicyStepper>, &mut AdaptiveSession<'_>) -> T,
    ) -> Result<T, ApiError> {
        let state = self.state.take().ok_or_else(corrupted)?;
        let snapshot = self.snapshot.clone();
        let mut session = AdaptiveSession::resume(&snapshot.instance, state);
        let out = f(&mut self.stepper, &mut session);
        self.state = Some(session.suspend());
        Ok(out)
    }

    fn ledger(&self) -> Result<Ledger, ApiError> {
        let state = self.state.as_ref().ok_or_else(corrupted)?;
        Ok(Ledger {
            algorithm: self.stepper.name().into_owned(),
            selected: state.selected().to_vec(),
            profit: state.profit(&self.snapshot.instance),
            total_activated: state.total_activated(),
            num_alive: state.num_alive(),
            sampling_work: state.sampling_work(),
            rounds: state.rounds(),
            oracle_queries: state.oracle_queries(),
            done: self.done,
        })
    }
}

/// Response of `next`/`next_batch`: the committed seed batch (empty when
/// done).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NextBatch {
    /// Seeds awaiting observation. The single-seed route commits 0 or 1;
    /// `next_batch` commits up to the requested `k`, all decided against
    /// one residual state.
    pub seeds: Vec<Node>,
    /// Whether the policy has finished.
    pub done: bool,
}

/// Response of `observe`/`observe_batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// The activation set that was applied (as reported, or as simulated).
    pub activated: Vec<Node>,
    /// How many of those were newly activated.
    pub newly_activated: usize,
    /// Ledger after applying the observation.
    pub ledger: Ledger,
}

/// Concurrent session table over a snapshot store.
pub struct SessionManager {
    store: Arc<SnapshotStore>,
    sessions: Mutex<HashMap<String, Arc<Mutex<SessionEntry>>>>,
    next_id: AtomicU64,
    clock: ClockMs,
    expired: Mutex<Tombstones>,
    /// Committed-transition journal, when durability is configured.
    journal: Mutex<Option<Arc<Journal>>>,
    /// Raised during [`recover`](Self::recover) so replayed transitions are
    /// not appended back to the journal they came from.
    replaying: AtomicBool,
    /// Serializes [`checkpoint`](Self::checkpoint) calls (the periodic
    /// thread vs. an operator-triggered one must not interleave rotations).
    checkpointing: Mutex<()>,
    /// Lifecycle counters + journal timings, when the owning server bound
    /// them (a bare manager — unit tests, LocalClient — runs uncounted).
    metrics: OnceLock<Arc<ServeMetrics>>,
}

/// Journal health as reported on `/healthz`. A manager without a journal
/// reports the inert defaults, so the body has the same fields either way.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalStats {
    /// Active segment size in bytes.
    pub bytes: u64,
    /// Segment files on disk (active + sealed).
    pub segments: u64,
    /// High-water seq of the last durable checkpoint (0 when none).
    pub last_checkpoint_seq: u64,
    /// The configured fsync policy (`"none"` without a journal).
    pub policy: String,
    /// True once a durability failure poisoned the journal.
    pub degraded: bool,
}

impl SessionManager {
    /// A manager over `store`, stamping sessions with a monotonic clock
    /// anchored at construction.
    pub fn new(store: Arc<SnapshotStore>) -> Self {
        let t0 = Instant::now();
        Self::with_clock(store, Arc::new(move || t0.elapsed().as_millis() as u64))
    }

    /// A manager with an injected clock (expiry tests drive time by hand).
    pub fn with_clock(store: Arc<SnapshotStore>, clock: ClockMs) -> Self {
        SessionManager {
            store,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            clock,
            expired: Mutex::new(Tombstones::default()),
            journal: Mutex::new(None),
            replaying: AtomicBool::new(false),
            checkpointing: Mutex::new(()),
            metrics: OnceLock::new(),
        }
    }

    /// Binds the server's metrics so session lifecycle events and journal
    /// I/O are counted. First bind wins; later calls are ignored.
    pub fn bind_metrics(&self, metrics: Arc<ServeMetrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// Attaches a journal: every committed transition from here on is
    /// appended to it. Call before serving traffic (typically right after
    /// [`recover`](Self::recover)ing the same journal's records).
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        *self.journal.lock().unwrap_or_else(|p| p.into_inner()) = Some(journal);
    }

    /// The attached journal, if any.
    fn journal(&self) -> Option<Arc<Journal>> {
        self.journal
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Fsyncs the attached journal, if any — the graceful-shutdown
    /// durability barrier. An error here means the tail of the run may
    /// not have reached the disk; the caller must surface it (the server
    /// binary exits nonzero so supervisors notice lost durability).
    pub fn sync_journal(&self) -> io::Result<()> {
        let Some(journal) = self.journal() else {
            return Ok(());
        };
        let t0 = Instant::now();
        let result = journal.sync();
        if let Some(m) = self.metrics.get() {
            m.journal_fsync_seconds.record_duration(t0.elapsed());
        }
        result
    }

    /// Journal health for `/healthz` (inert defaults without a journal).
    pub fn journal_stats(&self) -> JournalStats {
        match self.journal() {
            Some(journal) => JournalStats {
                bytes: journal.bytes(),
                segments: journal.segments(),
                last_checkpoint_seq: journal.last_checkpoint_seq(),
                policy: journal.policy().render(),
                degraded: journal.poisoned(),
            },
            None => JournalStats {
                bytes: 0,
                segments: 0,
                last_checkpoint_seq: 0,
                policy: "none".into(),
                degraded: false,
            },
        }
    }

    /// True once the attached journal is poisoned: durability is lost,
    /// so mutating routes must stop acking (degraded mode).
    pub fn journal_degraded(&self) -> bool {
        self.journal().is_some_and(|journal| journal.poisoned())
    }

    /// Advances the session-id counter to at least `floor` (the
    /// checkpoint head's watermark — recovered-then-deleted sessions must
    /// never recycle a token).
    pub fn bump_next_id(&self, floor: u64) {
        self.next_id.fetch_max(floor, Ordering::Relaxed);
    }

    /// Appends a record to the attached journal and blocks until it is
    /// durable under the configured fsync policy (a no-op when no journal
    /// is attached or while replaying). A durability failure poisons the
    /// journal and surfaces as a 503 — fsyncgate semantics: never ack a
    /// transition the disk may not hold.
    /// A record over the journal's size limit is a 413 and poisons
    /// nothing. `make` runs only when a journal is attached and not
    /// replaying, so the hot path never clones request payloads.
    fn log(&self, make: impl FnOnce() -> Record) -> Result<(), ApiError> {
        if self.replaying.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(journal) = self.journal() else {
            return Ok(());
        };
        let t0 = Instant::now();
        let seq = journal.append(&make()).map_err(|e| match e.kind() {
            io::ErrorKind::InvalidInput => ApiError::new(413, e.to_string()),
            _ => degraded_error(e),
        })?;
        if let Some(m) = self.metrics.get() {
            m.journal_append_seconds.record_duration(t0.elapsed());
        }
        journal.commit(seq).map_err(degraded_error)
    }

    /// Rotates the journal and has it compact the sealed records of every
    /// live session into an `ATPMCKP2` checkpoint, retiring the sealed
    /// segments. Returns the number of sessions checkpointed (0 without a
    /// journal). Recovery becomes load-checkpoint + replay-tail: bounded
    /// in records, regardless of run length.
    pub fn checkpoint(&self) -> io::Result<usize> {
        let Some(journal) = self.journal() else {
            return Ok(0);
        };
        let _serial = self.checkpointing.lock().unwrap_or_else(|p| p.into_inner());
        // Drop guard, not a manual record at the end: a failed rotate or
        // checkpoint write still counts — slow failures matter as much as
        // slow successes.
        let _timer = self
            .metrics
            .get()
            .map(|m| m.journal_checkpoint_seconds.start_timer());
        // Rotate first: from here on, every new append lands in the fresh
        // segment, above the checkpoint's head seq, and replays after it.
        journal.rotate()?;
        let entries: Vec<(String, Arc<Mutex<SessionEntry>>)> = {
            let table = self.sessions.lock().expect("session table poisoned");
            table
                .iter()
                .map(|(token, entry)| (token.clone(), entry.clone()))
                .collect()
        };
        // A panic-quarantined session (state taken) is left out; it is
        // discarded at the next restart, which is strictly better than
        // resurrecting a corrupt run.
        let live: HashSet<String> = entries
            .into_iter()
            .filter(|(_, entry)| lock_entry(entry).state.is_some())
            .map(|(token, _)| token)
            .collect();
        let next_id = self.next_id.load(Ordering::Relaxed);
        journal.write_checkpoint(next_id, &live)
    }

    /// Replays journal records through the live handlers, rebuilding every
    /// session that was open at the crash. Returns the number of sessions
    /// live afterwards.
    ///
    /// Sessions are deterministic given `(snapshot, policy, world seed,
    /// observations)`, so re-driving `next_batch`/`observe_batch`
    /// reproduces each session bit-for-bit. That covers single-seed
    /// rounds too: they are journaled as batches of one. Every
    /// replayed round is checked against the journaled batch, and a
    /// divergence (the named snapshot was rebuilt differently than the one
    /// the journal ran against) discards that session rather than
    /// resurrecting a corrupt run. Tombstones are not persisted: a session
    /// evicted before the crash answers 404 after recovery, not 410.
    pub fn recover(&self, records: &[Record]) -> usize {
        self.replaying.store(true, Ordering::SeqCst);
        for record in records {
            let replayed = match record {
                Record::Create { id, token, req } => {
                    // New tokens must never collide with recovered ones.
                    self.next_id.fetch_max(id + 1, Ordering::Relaxed);
                    let _ = self.create_with_token(req, token);
                    continue;
                }
                Record::NextBatch {
                    token,
                    seeds,
                    k,
                    done,
                } => self
                    .next_batch(token, *k)
                    .is_ok_and(|batch| batch.seeds == *seeds && batch.done == *done),
                Record::ObserveBatch { token, req } => self.observe_batch(token, req).is_ok(),
                Record::Delete { .. } => false,
            };
            if !replayed {
                self.delete(record.token());
            }
        }
        self.replaying.store(false, Ordering::SeqCst);
        self.len()
    }

    /// The manager's current clock reading, milliseconds.
    pub fn now_ms(&self) -> u64 {
        (self.clock)()
    }

    /// The snapshot store sessions draw from.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a session; returns `(token, algorithm name, k)`.
    ///
    /// Write-ahead ordering: the `Create` record is journaled (and made
    /// durable) while the entry's lock is held across the table insert,
    /// so no transition of the session can reach the journal ahead of its
    /// creation (replay would drop it as a stray). A journal failure
    /// undoes the insert and answers 503 — no orphan state.
    pub fn create(&self, req: &CreateSessionReq) -> Result<(String, String, usize), ApiError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let token = format!("s{:08x}", splitmix64(id));
        let (entry, algorithm, k) = self.build_entry(req)?;
        let entry = Arc::new(Mutex::new(entry));
        let guard = lock_entry(&entry);
        self.sessions
            .lock()
            .expect("session table poisoned")
            .insert(token.clone(), entry.clone());
        if let Err(e) = self.log(|| Record::Create {
            id,
            token: token.clone(),
            req: req.clone(),
        }) {
            self.sessions
                .lock()
                .expect("session table poisoned")
                .remove(&token);
            return Err(e);
        }
        drop(guard);
        // Counted here (not in build_entry) so journal recovery's
        // replayed creates don't inflate the API counter.
        if let Some(m) = self.metrics.get() {
            m.sessions_created.inc();
        }
        Ok((token, algorithm, k))
    }

    /// [`create`](Self::create) under a caller-chosen token — journal
    /// recovery, which must reuse the journaled one.
    fn create_with_token(
        &self,
        req: &CreateSessionReq,
        token: &str,
    ) -> Result<(String, String, usize), ApiError> {
        let (entry, algorithm, k) = self.build_entry(req)?;
        self.sessions
            .lock()
            .expect("session table poisoned")
            .insert(token.to_string(), Arc::new(Mutex::new(entry)));
        Ok((token.to_string(), algorithm, k))
    }

    /// Validates the request and builds a fresh (uninserted) entry.
    fn build_entry(
        &self,
        req: &CreateSessionReq,
    ) -> Result<(SessionEntry, String, usize), ApiError> {
        let snapshot = self
            .store
            .get(&req.snapshot)
            .ok_or_else(|| ApiError::not_found("snapshot", &req.snapshot))?;
        let stepper = req.policy.build()?;
        let algorithm = stepper.name().into_owned();
        let k = snapshot.instance.k();
        let state = AdaptiveSession::new(&snapshot.instance, req.world_seed).suspend();
        let entry = SessionEntry {
            snapshot,
            stepper,
            state: Some(state),
            pending: Vec::new(),
            done: false,
            last_touched_ms: self.now_ms(),
        };
        Ok((entry, algorithm, k))
    }

    fn entry(&self, token: &str) -> Result<Arc<Mutex<SessionEntry>>, ApiError> {
        if let Some(entry) = self
            .sessions
            .lock()
            .expect("session table poisoned")
            .get(token)
            .cloned()
        {
            return Ok(entry);
        }
        if self.was_expired(token) {
            return Err(ApiError::new(
                410,
                format!("session '{token}' expired and was evicted; open a new one"),
            ));
        }
        Err(ApiError::not_found("session", token))
    }

    /// Whether `token` was evicted by an expiry sweep (and not since
    /// superseded). Requests for such sessions answer `410 Gone`.
    pub fn was_expired(&self, token: &str) -> bool {
        self.expired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .set
            .contains(token)
    }

    /// Evicts every session idle for at least `ttl_ms` manager-clock
    /// milliseconds. Sessions mid-request (their per-session lock held) are
    /// skipped — by definition they are being touched right now. Returns
    /// how many sessions were evicted.
    pub fn sweep_expired(&self, ttl_ms: u64) -> usize {
        let now = self.now_ms();
        let mut table = self.sessions.lock().expect("session table poisoned");
        let stale: Vec<String> = table
            .iter()
            .filter_map(|(token, entry)| {
                // A poisoned entry (earlier handler panic) is quarantined,
                // not in use — it must stay sweepable or it leaks forever.
                let guard = match entry.try_lock() {
                    Ok(guard) => guard,
                    Err(std::sync::TryLockError::Poisoned(poison)) => poison.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => return None,
                };
                (now.saturating_sub(guard.last_touched_ms) >= ttl_ms).then(|| token.clone())
            })
            .collect();
        if stale.is_empty() {
            return 0;
        }
        let mut tombstones = self.expired.lock().unwrap_or_else(|p| p.into_inner());
        for token in &stale {
            table.remove(token);
            tombstones.insert(token.clone());
        }
        drop(tombstones);
        drop(table);
        if let Some(m) = self.metrics.get() {
            m.sessions_expired.add(stale.len() as u64);
        }
        for token in &stale {
            // Best-effort: a degraded journal must not wedge the sweep;
            // the eviction already happened in memory, and an unlogged
            // Delete only resurrects a dead session at the next restart.
            let _ = self.log(|| Record::Delete {
                token: token.clone(),
            });
        }
        stale.len()
    }

    /// Advances the policy to its next committed seed: a batch round of
    /// `k = 1`, byte-identical to the pre-batch single-seed protocol by the
    /// stepper contract.
    pub fn next(&self, token: &str) -> Result<NextBatch, ApiError> {
        self.next_round(token, 1, Verbs::Single)
    }

    /// Advances the policy by one low-adaptivity round: up to `k` seeds
    /// decided against the current residual state, all pending together
    /// until `observe_batch` reports their joint cascade.
    pub fn next_batch(&self, token: &str, k: usize) -> Result<NextBatch, ApiError> {
        if k == 0 {
            return Err(ApiError::bad_request("k must be positive"));
        }
        self.next_round(token, k, Verbs::Batch)
    }

    /// The one decision path behind both `next` verbs.
    fn next_round(&self, token: &str, k: usize, verbs: Verbs) -> Result<NextBatch, ApiError> {
        let entry = self.entry(token)?;
        let mut entry = lock_entry(&entry);
        entry.last_touched_ms = self.now_ms();
        if let Some(err) = conflict(verbs, &entry.pending, None) {
            return Err(err);
        }
        if !entry.pending.is_empty() {
            // Idempotent retry: a client whose response got lost (crash,
            // shed, dropped connection) re-asks and receives the committed
            // batch verbatim, whatever `k` the retry asks for — nothing
            // advances, nothing re-journals.
            return Ok(NextBatch {
                seeds: entry.pending.clone(),
                done: false,
            });
        }
        if entry.done {
            return Ok(NextBatch {
                seeds: Vec::new(),
                done: true,
            });
        }
        let seeds = entry.with_session(|stepper, session| stepper.next_batch(session, k))?;
        let done = seeds.is_empty();
        entry.pending = seeds.clone();
        entry.done = done;
        self.log(|| Record::NextBatch {
            token: token.to_string(),
            seeds: seeds.clone(),
            k,
            done,
        })?;
        Ok(NextBatch { seeds, done })
    }

    /// Applies an observation for the pending seed: a batch observation
    /// of one seed.
    pub fn observe(&self, token: &str, req: &ObserveReq) -> Result<Observed, ApiError> {
        self.observe_round(token, &ObserveBatchReq::from(req.clone()), Verbs::Single)
    }

    /// Applies a joint observation for the whole pending batch. The
    /// reported `seeds` must be exactly the pending batch (same seeds,
    /// same order) — the batch generalization of the single-seed 409
    /// rule.
    pub fn observe_batch(&self, token: &str, req: &ObserveBatchReq) -> Result<Observed, ApiError> {
        self.observe_round(token, req, Verbs::Batch)
    }

    /// The one observation path behind both `observe` verbs. Every check
    /// runs before the session changes.
    fn observe_round(
        &self,
        token: &str,
        req: &ObserveBatchReq,
        verbs: Verbs,
    ) -> Result<Observed, ApiError> {
        let entry = self.entry(token)?;
        let mut entry = lock_entry(&entry);
        entry.last_touched_ms = self.now_ms();
        if let Some(err) = conflict(verbs, &entry.pending, Some(req.seeds())) {
            return Err(err);
        }
        let n = entry.snapshot.instance.graph().num_nodes();
        let (activated, newly_activated) = match req {
            ObserveBatchReq::Simulate { seeds } => {
                let cascade = entry.with_session(|_, session| session.select_batch(seeds))?;
                let newly = cascade.len();
                (cascade, newly)
            }
            ObserveBatchReq::Report { seeds, activated } => {
                // A node activates at most once, so a longer report can
                // only repeat ids — and would journal an unbounded record.
                if activated.len() > n {
                    return Err(ApiError::bad_request(format!(
                        "activated lists {} nodes, more than the {n}-node graph holds",
                        activated.len()
                    )));
                }
                if let Some(&bad) = activated.iter().find(|&&v| v as usize >= n) {
                    return Err(ApiError::bad_request(format!(
                        "activated node {bad} out of range for a {n}-node graph"
                    )));
                }
                // Under the IC model a committed seed always activates
                // itself (it was alive when the stepper proposed it); a
                // report omitting it would leave the ledger paying for a
                // seed the residual graph still considers inactive.
                if let Some(&seed) = seeds.iter().find(|s| !activated.contains(s)) {
                    return Err(ApiError::bad_request(format!(
                        "activated must include the seed {seed} itself"
                    )));
                }
                let newly = entry
                    .with_session(|_, session| session.apply_observations(seeds, activated))?;
                (activated.clone(), newly)
            }
        };
        entry.pending.clear();
        self.log(|| Record::ObserveBatch {
            token: token.to_string(),
            req: req.clone(),
        })?;
        let ledger = entry.ledger()?;
        Ok(Observed {
            newly_activated,
            activated,
            ledger,
        })
    }

    /// The session's current profit ledger.
    pub fn ledger(&self, token: &str) -> Result<Ledger, ApiError> {
        let entry = self.entry(token)?;
        let mut entry = lock_entry(&entry);
        entry.last_touched_ms = self.now_ms();
        entry.ledger()
    }

    /// Closes a session; returns whether it existed.
    pub fn delete(&self, token: &str) -> bool {
        let removed = self
            .sessions
            .lock()
            .expect("session table poisoned")
            .remove(token)
            .is_some();
        if removed {
            // Replay deletes (journal recovery discarding a diverged
            // session) are bookkeeping, not API traffic.
            if !self.replaying.load(Ordering::SeqCst) {
                if let Some(m) = self.metrics.get() {
                    m.sessions_deleted.inc();
                }
            }
            // Best-effort, as in the sweep: the removal is already
            // visible; degraded mode gates new mutations at the router.
            let _ = self.log(|| Record::Delete {
                token: token.to_string(),
            });
        }
        removed
    }
}

/// Locks a session entry, recovering from poison: a panic inside an earlier
/// request must quarantine that session (handled via the taken-state check),
/// not wedge every later request on the same entry.
fn lock_entry(entry: &Arc<Mutex<SessionEntry>>) -> std::sync::MutexGuard<'_, SessionEntry> {
    entry.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The verb family a request came in on. Both families run the same
/// batch code; only [`conflict`]'s wording tells them apart.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verbs {
    /// `next`/`observe`: rounds of one seed.
    Single,
    /// `next_batch`/`observe_batch`.
    Batch,
}

/// The 409 for a request that does not fit the pending batch, or `None`
/// when it may proceed. `observed` holds an observation's seeds (`None`
/// for a `next`). The single-seed verbs can neither re-serve nor observe
/// a multi-seed batch — handing out one seed of it would wedge the
/// session — and word the shared rules for one seed.
fn conflict(verbs: Verbs, pending: &[Node], observed: Option<&[Node]>) -> Option<ApiError> {
    let single = verbs == Verbs::Single;
    let n = pending.len();
    let message = match observed {
        None if single && n > 1 => {
            format!("a batch of {n} seeds is pending; POST observe_batch first")
        }
        None => return None,
        Some(_) if n == 0 && single => "no seed awaiting observation; POST next first".into(),
        Some(_) if n == 0 => "no batch awaiting observation; POST next_batch first".into(),
        Some(_) if single && n > 1 => {
            format!("a batch of {n} seeds is pending; POST observe_batch instead")
        }
        Some(seeds) if seeds == pending => return None,
        Some(seeds) if single => format!(
            "observation is for seed {}, but seed {} is pending",
            seeds[0], pending[0]
        ),
        Some(seeds) => {
            format!("observation is for seeds {seeds:?}, but seeds {pending:?} are pending")
        }
    };
    Some(ApiError::new(409, message))
}

/// SplitMix64 — scrambles the sequential counter into opaque-looking tokens.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PolicySpec, SnapshotReq, SnapshotSource};

    fn store() -> Arc<SnapshotStore> {
        let store = Arc::new(SnapshotStore::new());
        store.insert(
            Snapshot::build(&SnapshotReq {
                name: "g".into(),
                source: SnapshotSource::Preset {
                    dataset: "nethept".into(),
                    scale: 0.02,
                },
                k: 5,
                rr_theta: 5_000,
                seed: 1,
                threads: 1,
            })
            .unwrap(),
        );
        store
    }

    fn manager() -> SessionManager {
        SessionManager::new(store())
    }

    fn create(m: &SessionManager, policy: PolicySpec, world: u64) -> String {
        m.create(&CreateSessionReq {
            snapshot: "g".into(),
            policy,
            world_seed: world,
        })
        .unwrap()
        .0
    }

    #[test]
    fn full_deploy_all_run_through_the_protocol() {
        let m = manager();
        let token = create(&m, PolicySpec::DeployAll, 7);
        let mut selected = Vec::new();
        loop {
            let batch = m.next(&token).unwrap();
            if batch.done {
                break;
            }
            let seed = batch.seeds[0];
            let obs = m.observe(&token, &ObserveReq::Simulate { seed }).unwrap();
            assert!(obs.activated.contains(&seed));
            selected.push(seed);
        }
        let ledger = m.ledger(&token).unwrap();
        assert!(ledger.done);
        assert_eq!(ledger.selected, selected);
        assert_eq!(ledger.algorithm, "DeployAll");
        assert!(!selected.is_empty());
        assert!(m.delete(&token));
        assert!(!m.delete(&token));
        assert!(m.ledger(&token).is_err());
    }

    #[test]
    fn out_of_order_calls_conflict() {
        let m = manager();
        let token = create(&m, PolicySpec::DeployAll, 7);
        // observe before any next: 409.
        let err = m
            .observe(&token, &ObserveReq::Simulate { seed: 0 })
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(err.message, "no seed awaiting observation; POST next first");
        let batch = m.next(&token).unwrap();
        let seed = batch.seeds[0];
        // next again without observing: idempotent — same pending seed back.
        let retry = m.next(&token).unwrap();
        assert_eq!(retry.seeds, vec![seed]);
        assert!(!retry.done);
        // observing the wrong seed: 409.
        let err = m
            .observe(&token, &ObserveReq::Simulate { seed: seed + 1 })
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(
            err.message,
            format!(
                "observation is for seed {}, but seed {seed} is pending",
                seed + 1
            )
        );
        // correct observation unblocks.
        m.observe(&token, &ObserveReq::Simulate { seed }).unwrap();
        assert!(m.next(&token).is_ok());
    }

    #[test]
    fn report_mode_validates_and_applies_external_activations() {
        let m = manager();
        let token = create(&m, PolicySpec::DeployAll, 7);
        let seed = m.next(&token).unwrap().seeds[0];
        let err = m
            .observe(
                &token,
                &ObserveReq::Report {
                    seed,
                    activated: vec![u32::MAX],
                },
            )
            .unwrap_err();
        assert_eq!(err.status, 400);
        // A report omitting the seed itself is inconsistent under IC: 400.
        let err = m
            .observe(
                &token,
                &ObserveReq::Report {
                    seed,
                    activated: vec![],
                },
            )
            .unwrap_err();
        assert_eq!(err.status, 400);
        let obs = m
            .observe(
                &token,
                &ObserveReq::Report {
                    seed,
                    activated: vec![seed],
                },
            )
            .unwrap();
        assert_eq!(obs.ledger.total_activated, 1);
        assert_eq!(obs.ledger.selected, vec![seed]);
    }

    /// Drives `token` in batched rounds of `k`, observing by simulation;
    /// returns the final ledger.
    fn drive_batched(m: &SessionManager, token: &str, k: usize) -> Ledger {
        loop {
            let batch = m.next_batch(token, k).unwrap();
            if batch.done {
                return m.ledger(token).unwrap();
            }
            m.observe_batch(
                token,
                &ObserveBatchReq::Simulate {
                    seeds: batch.seeds.clone(),
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn batch_size_one_is_byte_identical_to_single_seed_protocol() {
        let m = manager();
        for world in [3u64, 11, 27] {
            let single = create(&m, PolicySpec::DeployAll, world);
            let batched = create(&m, PolicySpec::DeployAll, world);
            let a = drive_to_completion(&m, &single);
            let b = drive_batched(&m, &batched, 1);
            assert_eq!(a.selected, b.selected, "world {world}");
            assert_eq!(a.profit.to_bits(), b.profit.to_bits(), "world {world}");
            assert_eq!(a.rounds, b.rounds, "world {world}");
        }
    }

    #[test]
    fn batched_protocol_finishes_in_fewer_rounds() {
        let m = manager();
        let single = create(&m, PolicySpec::DeployAll, 5);
        let batched = create(&m, PolicySpec::DeployAll, 5);
        let a = drive_to_completion(&m, &single);
        let b = drive_batched(&m, &batched, 4);
        assert_eq!(
            a.selected
                .iter()
                .copied()
                .collect::<std::collections::HashSet<_>>(),
            b.selected
                .iter()
                .copied()
                .collect::<std::collections::HashSet<_>>(),
            "DeployAll takes every remaining target either way"
        );
        assert_eq!(a.profit.to_bits(), b.profit.to_bits());
        assert!(
            b.rounds < a.rounds,
            "batched {} vs single {}",
            b.rounds,
            a.rounds
        );
    }

    #[test]
    fn pending_batch_is_reserved_idempotently_and_conflicts_are_409() {
        let m = manager();
        let token = create(&m, PolicySpec::DeployAll, 7);
        // observe_batch before any next_batch: 409.
        let err = m
            .observe_batch(&token, &ObserveBatchReq::Simulate { seeds: vec![0] })
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(
            err.message,
            "no batch awaiting observation; POST next_batch first"
        );
        let batch = m.next_batch(&token, 3).unwrap();
        assert!(batch.seeds.len() > 1, "{:?}", batch.seeds);
        // Retry with a different k: same pending batch back, verbatim.
        assert_eq!(m.next_batch(&token, 8).unwrap().seeds, batch.seeds);
        assert_eq!(m.next_batch(&token, 1).unwrap().seeds, batch.seeds);
        // The single-seed verbs conflict with a multi-seed pending batch.
        let n = batch.seeds.len();
        let err = m.next(&token).unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(
            err.message,
            format!("a batch of {n} seeds is pending; POST observe_batch first")
        );
        let err = m
            .observe(
                &token,
                &ObserveReq::Simulate {
                    seed: batch.seeds[0],
                },
            )
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(
            err.message,
            format!("a batch of {n} seeds is pending; POST observe_batch instead")
        );
        // Wrong seeds (subset, reorder) conflict too.
        let err = m
            .observe_batch(
                &token,
                &ObserveBatchReq::Simulate {
                    seeds: vec![batch.seeds[0]],
                },
            )
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(
            err.message,
            format!(
                "observation is for seeds {:?}, but seeds {:?} are pending",
                [batch.seeds[0]],
                batch.seeds
            )
        );
        let mut reversed = batch.seeds.clone();
        reversed.reverse();
        let err = m
            .observe_batch(
                &token,
                &ObserveBatchReq::Simulate {
                    seeds: reversed.clone(),
                },
            )
            .unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(
            err.message,
            format!(
                "observation is for seeds {reversed:?}, but seeds {:?} are pending",
                batch.seeds
            )
        );
        // The exact batch unblocks, and counts one adaptivity round.
        let obs = m
            .observe_batch(
                &token,
                &ObserveBatchReq::Simulate {
                    seeds: batch.seeds.clone(),
                },
            )
            .unwrap();
        assert_eq!(obs.ledger.rounds, 1);
        assert_eq!(obs.ledger.selected, batch.seeds);
    }

    #[test]
    fn batch_report_mode_requires_every_seed_activated() {
        let m = manager();
        let token = create(&m, PolicySpec::DeployAll, 7);
        let batch = m.next_batch(&token, 2).unwrap();
        assert_eq!(batch.seeds.len(), 2);
        // Omitting one seed from the activation report: 400.
        let err = m
            .observe_batch(
                &token,
                &ObserveBatchReq::Report {
                    seeds: batch.seeds.clone(),
                    activated: vec![batch.seeds[0]],
                },
            )
            .unwrap_err();
        assert_eq!(err.status, 400);
        let obs = m
            .observe_batch(
                &token,
                &ObserveBatchReq::Report {
                    seeds: batch.seeds.clone(),
                    activated: batch.seeds.clone(),
                },
            )
            .unwrap();
        assert_eq!(obs.ledger.total_activated, 2);
        assert_eq!(obs.ledger.rounds, 1);
    }

    #[test]
    fn unknown_tokens_and_snapshots_are_404() {
        let m = manager();
        assert_eq!(m.next("nope").unwrap_err().status, 404);
        let err = m
            .create(&CreateSessionReq {
                snapshot: "missing".into(),
                policy: PolicySpec::DeployAll,
                world_seed: 0,
            })
            .unwrap_err();
        assert_eq!(err.status, 404);
    }

    #[test]
    fn sessions_progress_independently() {
        let m = manager();
        let a = create(&m, PolicySpec::DeployAll, 1);
        let b = create(&m, PolicySpec::Ars { prob: 1.0, seed: 0 }, 1);
        assert_eq!(m.len(), 2);
        let sa = m.next(&a).unwrap().seeds[0];
        let sb = m.next(&b).unwrap().seeds[0];
        // Same snapshot, same world, both policies take the first target.
        assert_eq!(sa, sb);
        m.observe(&a, &ObserveReq::Simulate { seed: sa }).unwrap();
        // b still pending; a can continue, and b's retry re-serves its seed.
        assert!(m.next(&a).is_ok());
        assert_eq!(m.next(&b).unwrap().seeds, vec![sb]);
        m.observe(&b, &ObserveReq::Simulate { seed: sb }).unwrap();
        assert!(m.next(&b).is_ok());
    }

    fn manager_with_mock_clock() -> (SessionManager, Arc<std::sync::atomic::AtomicU64>) {
        let clock = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handle = clock.clone();
        let m = SessionManager::with_clock(
            store(),
            Arc::new(move || handle.load(std::sync::atomic::Ordering::SeqCst)),
        );
        (m, clock)
    }

    #[test]
    fn sweep_evicts_idle_sessions_and_answers_410() {
        use std::sync::atomic::Ordering;
        let (m, clock) = manager_with_mock_clock();
        let idle = create(&m, PolicySpec::DeployAll, 1);
        let active = create(&m, PolicySpec::DeployAll, 2);

        clock.store(50_000, Ordering::SeqCst);
        m.ledger(&active).unwrap(); // a sign of life refreshes the stamp
        clock.store(70_000, Ordering::SeqCst);
        // idle untouched for 70s, active for 20s: TTL 60s evicts only idle.
        assert_eq!(m.sweep_expired(60_000), 1);
        assert_eq!(m.len(), 1);

        let err = m.next(&idle).unwrap_err();
        assert_eq!(err.status, 410, "evicted session answers Gone");
        assert!(err.message.contains("expired"));
        assert_eq!(m.ledger(&idle).unwrap_err().status, 410);
        assert!(m.was_expired(&idle));
        // The surviving session still works, and unknown tokens stay 404.
        assert!(m.next(&active).is_ok());
        assert_eq!(m.next("nope").unwrap_err().status, 404);
        // Re-sweeping is idempotent.
        assert_eq!(m.sweep_expired(60_000), 0);
    }

    #[test]
    fn sweep_counts_any_touch_as_life_and_spares_pending_work() {
        use std::sync::atomic::Ordering;
        let (m, clock) = manager_with_mock_clock();
        let token = create(&m, PolicySpec::DeployAll, 3);
        // A pending (unobserved) seed does not shield an abandoned session.
        m.next(&token).unwrap();
        clock.store(120_000, Ordering::SeqCst);
        assert_eq!(m.sweep_expired(60_000), 1);
        assert_eq!(
            m.observe(&token, &ObserveReq::Simulate { seed: 0 })
                .unwrap_err()
                .status,
            410
        );

        // But regular observes keep a slow-but-alive session going.
        let token = create(&m, PolicySpec::DeployAll, 4);
        for step in 1..=5u64 {
            clock.store(120_000 + step * 50_000, Ordering::SeqCst);
            assert_eq!(m.sweep_expired(60_000), 0, "step {step}");
            match m.next(&token) {
                Ok(batch) if !batch.done => {
                    m.observe(
                        &token,
                        &ObserveReq::Simulate {
                            seed: batch.seeds[0],
                        },
                    )
                    .unwrap();
                }
                _ => break,
            }
        }
        assert!(m.ledger(&token).is_ok());
    }

    #[test]
    fn tokens_are_unique() {
        let m = manager();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            assert!(seen.insert(create(&m, PolicySpec::DeployAll, 0)));
        }
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("atpm-mgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Drives `token` on `m` until done, observing by simulation; returns
    /// the final ledger.
    fn drive_to_completion(m: &SessionManager, token: &str) -> Ledger {
        loop {
            let batch = m.next(token).unwrap();
            if batch.done {
                return m.ledger(token).unwrap();
            }
            m.observe(
                token,
                &ObserveReq::Simulate {
                    seed: batch.seeds[0],
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn journal_recovery_rebuilds_an_interrupted_session_bit_for_bit() {
        let path = temp_journal("recover");
        // Reference: the same session driven uninterrupted, no journal.
        let reference = {
            let m = manager();
            let token = create(&m, PolicySpec::DeployAll, 11);
            drive_to_completion(&m, &token)
        };

        // "Crash" mid-session: two observed rounds plus a pending seed,
        // then the manager is simply dropped (no shutdown, no sync).
        let (token, pending) = {
            let m = manager();
            let (journal, records) = Journal::open(&path).unwrap();
            assert!(records.is_empty());
            m.attach_journal(Arc::new(journal));
            let token = create(&m, PolicySpec::DeployAll, 11);
            for _ in 0..2 {
                let seed = m.next(&token).unwrap().seeds[0];
                m.observe(&token, &ObserveReq::Simulate { seed }).unwrap();
            }
            let pending = m.next(&token).unwrap().seeds[0];
            (token, pending)
        };

        // Restart: fresh manager over an equivalent store, same journal.
        let m = manager();
        let (journal, records) = Journal::open(&path).unwrap();
        assert_eq!(m.recover(&records), 1, "one live session to recover");
        m.attach_journal(Arc::new(journal));
        // The client's retried `next` gets the exact pending seed back.
        assert_eq!(m.next(&token).unwrap().seeds, vec![pending]);
        let recovered = drive_to_completion(&m, &token);
        assert_eq!(recovered.selected, reference.selected);
        assert_eq!(
            recovered.profit.to_bits(),
            reference.profit.to_bits(),
            "recovered ledger must be bit-equal"
        );
        assert_eq!(recovered.total_activated, reference.total_activated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_recovery_reserves_the_exact_pending_batch() {
        let path = temp_journal("recover-batch");
        // Reference: the same batched session driven uninterrupted.
        let reference = {
            let m = manager();
            let token = create(&m, PolicySpec::DeployAll, 13);
            drive_batched(&m, &token, 3)
        };

        // "Crash" with one observed round plus a pending 3-seed batch.
        let (token, pending) = {
            let m = manager();
            let (journal, records) = Journal::open(&path).unwrap();
            assert!(records.is_empty());
            m.attach_journal(Arc::new(journal));
            let token = create(&m, PolicySpec::DeployAll, 13);
            let first = m.next_batch(&token, 3).unwrap();
            m.observe_batch(&token, &ObserveBatchReq::Simulate { seeds: first.seeds })
                .unwrap();
            let pending = m.next_batch(&token, 3).unwrap().seeds;
            (token, pending)
        };

        let m = manager();
        let (journal, records) = Journal::open(&path).unwrap();
        assert_eq!(m.recover(&records), 1);
        m.attach_journal(Arc::new(journal));
        // The retried next_batch re-serves the exact pending batch.
        assert_eq!(m.next_batch(&token, 3).unwrap().seeds, pending);
        let recovered = {
            m.observe_batch(&token, &ObserveBatchReq::Simulate { seeds: pending })
                .unwrap();
            drive_batched(&m, &token, 3)
        };
        assert_eq!(recovered.selected, reference.selected);
        assert_eq!(
            recovered.profit.to_bits(),
            reference.profit.to_bits(),
            "recovered batched ledger must be bit-equal"
        );
        assert_eq!(recovered.rounds, reference.rounds);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_advances_the_token_counter_and_drops_deleted_sessions() {
        let path = temp_journal("counter");
        let old_token = {
            let m = manager();
            let (journal, _) = Journal::open(&path).unwrap();
            m.attach_journal(Arc::new(journal));
            let dead = create(&m, PolicySpec::DeployAll, 1);
            m.delete(&dead);
            create(&m, PolicySpec::DeployAll, 2)
        };
        let m = manager();
        let (journal, records) = Journal::open(&path).unwrap();
        assert_eq!(m.recover(&records), 1, "deleted session stays deleted");
        m.attach_journal(Arc::new(journal));
        assert!(m.ledger(&old_token).is_ok());
        let fresh = create(&m, PolicySpec::DeployAll, 3);
        assert_ne!(fresh, old_token, "counter must advance past the journal");
        let _ = std::fs::remove_file(&path);
    }
}
