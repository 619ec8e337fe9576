//! Crash-safe session journal: an append-only, checksummed log of
//! committed protocol transitions with group-commit fsync, checkpoint +
//! segment rotation, and fault-injectable file I/O.
//!
//! Sessions are deterministic functions of `(snapshot, policy spec,
//! world_seed, ordered observations)` — the entire adaptive run can be
//! reconstructed by replaying the protocol calls that produced it. So the
//! journal does not serialize `SessionState` (megabytes of residual graph
//! per record); it logs the *transitions* the manager committed, and
//! recovery re-drives them through the same [`SessionManager`] code paths
//! that served them live. A recovered session is therefore bit-equal to
//! the lost one: same token, same seed sequence, same profit ledger.
//!
//! ## Wire format
//!
//! Two segment generations share the frame discipline; readers accept
//! both, writers produce v2:
//!
//! ```text
//! "ATPMJNL1"                         8-byte magic (legacy v1 segments)
//! repeat:
//!   len: u32 LE                      payload byte length
//!   crc: u32 LE                      CRC-32 (IEEE) of payload
//!   payload: len bytes               one JSON record, {"op": ...}
//!
//! "ATPMJNL2"                         8-byte magic (current segments)
//! repeat:
//!   len: u32 LE                      payload byte length
//!   crc: u32 LE                      CRC-32 (IEEE) of seq ++ payload
//!   seq: u64 LE                      global commit sequence number
//!   payload: len bytes               one JSON record, {"op": ...}
//! ```
//!
//! Appends are `write_all` + `flush` per record, so a crash can only tear
//! the *final* record. Opening validates each record's length and checksum
//! and truncates the active segment at the first torn or corrupt offset —
//! everything before the checksum boundary replays, everything after never
//! happened (the client's retry layer re-drives the lost tail). Torn tails
//! are counted and reported in [`OpenInfo`], never silently swallowed.
//!
//! ## Durability: group-commit fsync
//!
//! [`FsyncPolicy`] decides when appended records become *durable* (past
//! the kernel's page cache). `shutdown` defers the barrier to graceful
//! shutdown (a power loss can lose the whole run); `always` fsyncs behind
//! every record; `group:MS` batches concurrent appends behind one barrier
//! with a bounded-latency window — the first committer becomes the leader,
//! sleeps `MS`, issues one fsync for everything appended meanwhile, and
//! wakes the group. [`Journal::commit`] blocks until the caller's record
//! is durable, so a reply is never sent for a record a crash could lose.
//!
//! A failed fsync **poisons** the journal (fsyncgate semantics: the
//! kernel may have dropped the dirty pages, so retrying and pretending
//! would silently ack lost writes). A poisoned journal fails every
//! subsequent append/commit; the server degrades to read-only.
//!
//! ## Checkpoint + rotation (`ATPMCKP1`)
//!
//! Rotation seals the active segment as `<path>.old.<seq>` and starts a
//! fresh one; a checkpoint then serializes every live session's replayable
//! history into `<path>.ckp` (CRC-framed like the journal, written to a
//! temp file, fsynced, atomically renamed) and deletes segments older than
//! the checkpoint. Recovery = load checkpoint + replay tail segments,
//! skipping records already folded into a session's checkpointed
//! `last_seq` — bounded work, regardless of how long the server ran.
//!
//! ## Fault injection
//!
//! Every file operation routes through a [`JournalIo`] implementation.
//! [`RealIo`] is the passthrough; [`FaultIo`] injects scripted faults
//! (short write, `EINTR`, `ENOSPC`, failing fsync) in the spirit of
//! `atpm-net`'s `SysPolicy`, with process-wide injection counters exported
//! as `atpm_serve_journal_fault_injected_total`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::protocol::{nodes_field, ApiError, CreateSessionReq, ObserveBatchReq, ObserveReq};
use atpm_graph::Node;

const MAGIC_V1: &[u8; 8] = b"ATPMJNL1";
const MAGIC_V2: &[u8; 8] = b"ATPMJNL2";
const CKP_MAGIC: &[u8; 8] = b"ATPMCKP1";
/// Upper bound on a single record's payload; a declared length beyond this
/// is treated as tail corruption, not an allocation request.
const MAX_RECORD: usize = 16 * 1024 * 1024;

/// One committed protocol transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `POST /sessions` succeeded: session `token` (minted from counter
    /// value `id`) exists with this request.
    Create {
        /// Raw counter value the token was minted from (recovery must
        /// advance the counter past it so new tokens cannot collide).
        id: u64,
        /// The minted token.
        token: String,
        /// The creating request (snapshot, policy, world seed).
        req: CreateSessionReq,
    },
    /// `POST next` committed a new seed batch (idempotent replays of an
    /// already-pending seed are not journaled — they change nothing).
    Next {
        /// Session token.
        token: String,
        /// The committed batch.
        seeds: Vec<Node>,
        /// Whether the policy finished.
        done: bool,
    },
    /// `POST observe` applied an observation.
    Observe {
        /// Session token.
        token: String,
        /// The observation applied.
        req: ObserveReq,
    },
    /// `POST next_batch` committed a new seed batch under an explicit
    /// requested round size (idempotent re-serves are not journaled).
    NextBatch {
        /// Session token.
        token: String,
        /// The committed batch.
        seeds: Vec<Node>,
        /// The `k` the round was requested with. Replay must re-ask with
        /// the same `k` — a policy may commit fewer than `k` seeds, and
        /// the request size is part of its deterministic decision state.
        k: usize,
        /// Whether the policy finished.
        done: bool,
    },
    /// `POST observe_batch` applied a joint batch observation.
    ObserveBatch {
        /// Session token.
        token: String,
        /// The observation applied.
        req: ObserveBatchReq,
    },
    /// The session ended (`DELETE`, or an expiry sweep evicted it).
    Delete {
        /// Session token.
        token: String,
    },
}

impl Record {
    /// JSON payload form.
    pub fn to_json(&self) -> Json {
        match self {
            Record::Create { id, token, req } => Json::obj([
                ("op", Json::Str("create".into())),
                ("id", Json::UInt(*id)),
                ("token", Json::Str(token.clone())),
                ("req", req.to_json()),
            ]),
            Record::Next { token, seeds, done } => Json::obj([
                ("op", Json::Str("next".into())),
                ("token", Json::Str(token.clone())),
                ("seeds", Json::nums(seeds.iter().copied())),
                ("done", Json::Bool(*done)),
            ]),
            Record::Observe { token, req } => Json::obj([
                ("op", Json::Str("observe".into())),
                ("token", Json::Str(token.clone())),
                ("req", req.to_json()),
            ]),
            Record::NextBatch {
                token,
                seeds,
                k,
                done,
            } => Json::obj([
                ("op", Json::Str("next_batch".into())),
                ("token", Json::Str(token.clone())),
                ("seeds", Json::nums(seeds.iter().copied())),
                ("k", Json::UInt(*k as u64)),
                ("done", Json::Bool(*done)),
            ]),
            Record::ObserveBatch { token, req } => Json::obj([
                ("op", Json::Str("observe_batch".into())),
                ("token", Json::Str(token.clone())),
                ("req", req.to_json()),
            ]),
            Record::Delete { token } => Json::obj([
                ("op", Json::Str("delete".into())),
                ("token", Json::Str(token.clone())),
            ]),
        }
    }

    /// Parses a payload.
    pub fn from_json(v: &Json) -> Result<Record, ApiError> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("record missing 'op'"))?;
        let token = |v: &Json| -> Result<String, ApiError> {
            v.get("token")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ApiError::bad_request("record missing 'token'"))
        };
        match op {
            "create" => Ok(Record::Create {
                id: v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ApiError::bad_request("create record missing 'id'"))?,
                token: token(v)?,
                req: CreateSessionReq::from_json(
                    v.get("req")
                        .ok_or_else(|| ApiError::bad_request("create record missing 'req'"))?,
                )?,
            }),
            "next" => Ok(Record::Next {
                token: token(v)?,
                seeds: nodes_field(v, "seeds")?,
                done: v
                    .get("done")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ApiError::bad_request("next record missing 'done'"))?,
            }),
            "observe" => Ok(Record::Observe {
                token: token(v)?,
                req: ObserveReq::from_json(
                    v.get("req")
                        .ok_or_else(|| ApiError::bad_request("observe record missing 'req'"))?,
                )?,
            }),
            "next_batch" => Ok(Record::NextBatch {
                token: token(v)?,
                seeds: nodes_field(v, "seeds")?,
                k: v.get("k")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ApiError::bad_request("next_batch record missing 'k'"))?
                    as usize,
                done: v
                    .get("done")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| ApiError::bad_request("next_batch record missing 'done'"))?,
            }),
            "observe_batch" => {
                Ok(Record::ObserveBatch {
                    token: token(v)?,
                    req: ObserveBatchReq::from_json(v.get("req").ok_or_else(|| {
                        ApiError::bad_request("observe_batch record missing 'req'")
                    })?)?,
                })
            }
            "delete" => Ok(Record::Delete { token: token(v)? }),
            other => Err(ApiError::bad_request(format!(
                "unknown journal op '{other}'"
            ))),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) — bitwise, no table;
/// journal records are small and appended off the hot request path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Fsync policy

/// When appended records become durable. Parsed from `--fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One fsync at graceful shutdown; a power loss can lose the run.
    Shutdown,
    /// Group commit: batch appends behind one barrier with a bounded
    /// window of this many milliseconds. A power loss can lose at most
    /// the records of the last window — and none that were acked.
    Group(u64),
    /// Fsync behind every record (a zero-width group window).
    Always,
}

impl FsyncPolicy {
    /// Parses `shutdown`, `always`, or `group:MS`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "shutdown" => Ok(FsyncPolicy::Shutdown),
            "always" => Ok(FsyncPolicy::Always),
            _ => match s.strip_prefix("group:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(FsyncPolicy::Group)
                    .map_err(|_| format!("bad group window '{ms}' (want group:MS)")),
                None => Err(format!(
                    "unknown fsync policy '{s}' (want shutdown, group:MS, or always)"
                )),
            },
        }
    }

    /// Canonical display form (the `/healthz` `fsync_policy` value).
    pub fn render(&self) -> String {
        match self {
            FsyncPolicy::Shutdown => "shutdown".to_string(),
            FsyncPolicy::Group(ms) => format!("group:{ms}"),
            FsyncPolicy::Always => "always".to_string(),
        }
    }
}

impl Default for FsyncPolicy {
    /// The durable-by-default setting: a 5 ms group window.
    fn default() -> FsyncPolicy {
        FsyncPolicy::Group(5)
    }
}

// ---------------------------------------------------------------------------
// Fault-injectable file I/O

/// A file operation site where [`FaultIo`] can inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoSite {
    /// Creating/truncating a file (fresh segment, checkpoint temp).
    Create,
    /// Appending frame bytes.
    Write,
    /// A durability barrier (`fsync`) on a file or directory.
    Fsync,
    /// Atomic rename (rotation, checkpoint publish).
    Rename,
    /// Deleting an obsolete segment or stale temp file.
    Remove,
}

/// Number of injectable sites.
pub const IO_SITE_COUNT: usize = 5;

/// Every site with its metrics label, in index order.
pub const IO_SITES: [(IoSite, &str); IO_SITE_COUNT] = [
    (IoSite::Create, "create"),
    (IoSite::Write, "write"),
    (IoSite::Fsync, "fsync"),
    (IoSite::Rename, "rename"),
    (IoSite::Remove, "remove"),
];

fn io_site_index(site: IoSite) -> usize {
    match site {
        IoSite::Create => 0,
        IoSite::Write => 1,
        IoSite::Fsync => 2,
        IoSite::Rename => 3,
        IoSite::Remove => 4,
    }
}

/// Process-wide injected-fault counters, one per site (exported as
/// `atpm_serve_journal_fault_injected_total`). Cumulative across every
/// `FaultIo` instance — mirrors `atpm_net::fault::injected_total`.
static INJECTED: [AtomicU64; IO_SITE_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Total faults injected at `site` since process start.
pub fn injected_total(site: IoSite) -> u64 {
    INJECTED[io_site_index(site)].load(Ordering::Relaxed)
}

/// The journal's file-operation surface. Everything the journal and
/// checkpoint writer do to the filesystem goes through one of these, so a
/// fault-injecting implementation can exercise every failure edge.
pub trait JournalIo: Send + Sync {
    /// Create (truncating) a file open for read+write.
    fn create(&self, path: &Path) -> io::Result<File>;
    /// Append bytes to an open file.
    fn write_all(&self, file: &File, buf: &[u8]) -> io::Result<()>;
    /// Durability barrier on an open file (or directory) handle.
    fn fsync(&self, file: &File) -> io::Result<()>;
    /// Atomic rename.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// Passthrough to the real filesystem.
#[derive(Debug, Default)]
pub struct RealIo;

impl JournalIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
    }

    fn write_all(&self, mut file: &File, buf: &[u8]) -> io::Result<()> {
        file.write_all(buf)
    }

    fn fsync(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// What a scripted fault does when it fires.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Fail with this errno.
    Fail(i32),
    /// Write only this many bytes, then fail — a torn append.
    Short(usize),
}

struct FaultScript {
    site: IoSite,
    /// Fires on the nth (1-based) operation at `site`.
    nth: u64,
    fault: Fault,
}

/// A [`JournalIo`] that injects scripted faults, passing everything else
/// through to the real filesystem. Scripts are one-shot: the nth operation
/// at a site fails, all others succeed.
#[derive(Default)]
pub struct FaultIo {
    counts: [AtomicU64; IO_SITE_COUNT],
    scripts: Mutex<Vec<FaultScript>>,
}

impl FaultIo {
    /// A fault plan with no scripted failures (pure passthrough).
    pub fn new() -> FaultIo {
        FaultIo::default()
    }

    /// Fail the `nth` (1-based) operation at `site` with `errno`.
    pub fn fail(self, site: IoSite, nth: u64, errno: i32) -> FaultIo {
        self.scripts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(FaultScript {
                site,
                nth,
                fault: Fault::Fail(errno),
            });
        self
    }

    /// Tear the `nth` (1-based) write: only `bytes` of the buffer land
    /// before the error surfaces.
    pub fn short_write(self, nth: u64, bytes: usize) -> FaultIo {
        self.scripts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(FaultScript {
                site: IoSite::Write,
                nth,
                fault: Fault::Short(bytes),
            });
        self
    }

    fn gate(&self, site: IoSite) -> Option<Fault> {
        let n = self.counts[io_site_index(site)].fetch_add(1, Ordering::Relaxed) + 1;
        let scripts = self.scripts.lock().unwrap_or_else(|p| p.into_inner());
        let fault = scripts
            .iter()
            .find(|s| s.site == site && s.nth == n)
            .map(|s| s.fault)?;
        INJECTED[io_site_index(site)].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }
}

impl JournalIo for FaultIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        if let Some(Fault::Fail(errno)) = self.gate(IoSite::Create) {
            return Err(io::Error::from_raw_os_error(errno));
        }
        RealIo.create(path)
    }

    fn write_all(&self, file: &File, buf: &[u8]) -> io::Result<()> {
        match self.gate(IoSite::Write) {
            Some(Fault::Fail(errno)) => Err(io::Error::from_raw_os_error(errno)),
            Some(Fault::Short(n)) => {
                RealIo.write_all(file, &buf[..n.min(buf.len())])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short write",
                ))
            }
            None => RealIo.write_all(file, buf),
        }
    }

    fn fsync(&self, file: &File) -> io::Result<()> {
        if let Some(Fault::Fail(errno)) = self.gate(IoSite::Fsync) {
            return Err(io::Error::from_raw_os_error(errno));
        }
        RealIo.fsync(file)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(Fault::Fail(errno)) = self.gate(IoSite::Rename) {
            return Err(io::Error::from_raw_os_error(errno));
        }
        RealIo.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if let Some(Fault::Fail(errno)) = self.gate(IoSite::Remove) {
            return Err(io::Error::from_raw_os_error(errno));
        }
        RealIo.remove(path)
    }
}

/// Retry a transiently-interrupted syscall (`EINTR`) a bounded number of
/// times; any other error surfaces immediately.
fn retry_eintr<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    for _ in 0..16 {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
    op()
}

// ---------------------------------------------------------------------------
// Checkpoint sessions

/// One committed adaptivity round as checkpointed: the observation that
/// closed it, tagged with the `k` the batch was requested with (replay
/// must re-ask with the same `k` — the request size is part of the
/// policy's deterministic decision state).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRec {
    /// The `next`/`next_batch` request size that opened the round
    /// (1 for the single-seed routes).
    pub k: usize,
    /// The observation that closed the round.
    pub req: ObserveBatchReq,
}

impl RoundRec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::UInt(self.k as u64)),
            ("req", self.req.to_json()),
        ])
    }

    /// Parses a round. Accepts the pre-batch shape (a bare `ObserveReq`
    /// with its `seed` field) as a round of `k = 1`, so checkpoints
    /// written before batched seeding keep loading.
    fn from_json(v: &Json) -> Result<RoundRec, ApiError> {
        if let Some(req) = v.get("req") {
            return Ok(RoundRec {
                k: v.get("k")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ApiError::bad_request("round missing 'k'"))?
                    as usize,
                req: ObserveBatchReq::from_json(req)?,
            });
        }
        Ok(RoundRec {
            k: 1,
            req: ObserveReq::from_json(v)?.into(),
        })
    }
}

/// One live session's replayable history, as serialized into an
/// `ATPMCKP1` checkpoint. The stepper itself (internal RNG, residual
/// graph cursors) is never serialized — the session is re-derived by
/// replaying `req` + `rounds` through the live manager, which is exactly
/// the journal-recovery path and therefore bit-equal by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CkpSession {
    /// Session token.
    pub token: String,
    /// Counter value the token was minted from.
    pub id: u64,
    /// The creating request.
    pub req: CreateSessionReq,
    /// Every committed round, in order (each carries its batch).
    pub rounds: Vec<RoundRec>,
    /// A handed-out-but-unobserved batch, if any (empty = none).
    pub pending: Vec<Node>,
    /// The request size of the most recent stepper round — the `k` to
    /// replay the pending batch (or the final, policy-exhausting round)
    /// with. 1 for sessions driven over the single-seed routes.
    pub pending_k: usize,
    /// Whether the policy finished.
    pub done: bool,
    /// Highest journal seq folded into this state; tail records at or
    /// below it are already reflected here and must not replay.
    pub last_seq: u64,
}

impl CkpSession {
    fn to_json(&self) -> Json {
        Json::obj([
            ("op", Json::Str("ckp-session".into())),
            ("token", Json::Str(self.token.clone())),
            ("id", Json::UInt(self.id)),
            ("req", self.req.to_json()),
            (
                "rounds",
                Json::Arr(self.rounds.iter().map(RoundRec::to_json).collect()),
            ),
            ("pending", Json::nums(self.pending.iter().copied())),
            ("pending_k", Json::UInt(self.pending_k as u64)),
            ("done", Json::Bool(self.done)),
            ("last_seq", Json::UInt(self.last_seq)),
        ])
    }

    fn from_json(v: &Json) -> Result<CkpSession, ApiError> {
        if v.get("op").and_then(Json::as_str) != Some("ckp-session") {
            return Err(ApiError::bad_request("not a ckp-session frame"));
        }
        let token = v
            .get("token")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("ckp-session missing 'token'"))?
            .to_string();
        let rounds = v
            .get("rounds")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad_request("ckp-session missing 'rounds'"))?
            .iter()
            .map(RoundRec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // Pre-batch checkpoints hold a scalar (or null) pending seed;
        // current ones hold the pending batch as an array.
        let pending = match v.get("pending") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(_)) => nodes_field(v, "pending")?,
            Some(p) => vec![p
                .as_u64()
                .and_then(|n| Node::try_from(n).ok())
                .ok_or_else(|| ApiError::bad_request("ckp-session bad 'pending'"))?],
        };
        Ok(CkpSession {
            token,
            id: v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::bad_request("ckp-session missing 'id'"))?,
            req: CreateSessionReq::from_json(
                v.get("req")
                    .ok_or_else(|| ApiError::bad_request("ckp-session missing 'req'"))?,
            )?,
            rounds,
            pending,
            pending_k: v.get("pending_k").and_then(Json::as_u64).unwrap_or(1) as usize,
            done: v
                .get("done")
                .and_then(Json::as_bool)
                .ok_or_else(|| ApiError::bad_request("ckp-session missing 'done'"))?,
            last_seq: v.get("last_seq").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// The transition sequence that rebuilds this session through
    /// [`SessionManager::recover`] — the same records the journal would
    /// have held. Rounds synthesize uniformly as batch records: a
    /// single-seed round is a batch round of `k = 1`, byte-identical by
    /// the stepper contract.
    fn synthesize(&self) -> Vec<Record> {
        let mut records = Vec::with_capacity(2 + self.rounds.len() * 2);
        records.push(Record::Create {
            id: self.id,
            token: self.token.clone(),
            req: self.req.clone(),
        });
        for round in &self.rounds {
            records.push(Record::NextBatch {
                token: self.token.clone(),
                seeds: round.req.seeds().to_vec(),
                k: round.k,
                done: false,
            });
            records.push(Record::ObserveBatch {
                token: self.token.clone(),
                req: round.req.clone(),
            });
        }
        if !self.pending.is_empty() {
            records.push(Record::NextBatch {
                token: self.token.clone(),
                seeds: self.pending.clone(),
                k: self.pending_k,
                done: false,
            });
        }
        if self.done {
            records.push(Record::NextBatch {
                token: self.token.clone(),
                seeds: vec![],
                k: self.pending_k.max(1),
                done: true,
            });
        }
        records
    }
}

// ---------------------------------------------------------------------------
// Open-time report

/// What [`Journal::open_with`] found on disk — surfaced so the server can
/// count torn tails, log offsets, and advance its id counter.
#[derive(Debug, Clone, Default)]
pub struct OpenInfo {
    /// Truncation/corruption events: `(file, byte offset of the tear)`.
    pub torn: Vec<(String, u64)>,
    /// Sealed `.old.*` segments replayed (leftovers of an interrupted
    /// checkpoint; the next successful checkpoint retires them).
    pub segments_replayed: u64,
    /// Sessions loaded from the checkpoint (0 when none exists).
    pub checkpoint_sessions: u64,
    /// The checkpoint's high-water seq (0 when none exists).
    pub checkpoint_seq: u64,
    /// Session-id counter floor recorded in the checkpoint head; the
    /// manager must advance past it so recovered-then-deleted sessions
    /// can never recycle a token.
    pub next_id_floor: u64,
}

/// One parsed segment file.
struct ParsedSegment {
    /// `(seq, record)` in append order; v1 frames carry seq 0.
    records: Vec<(u64, Record)>,
    /// Byte offset just past the last intact frame.
    good_len: u64,
    /// Total byte length scanned (`> good_len` means a torn tail).
    total_len: u64,
    /// Whether the segment uses the v1 (seq-less) frame layout.
    v1: bool,
}

/// Walks a segment's frames, stopping at the first torn or corrupt one.
/// Errors only on a bad magic.
fn parse_segment(bytes: &[u8]) -> io::Result<ParsedSegment> {
    let v1 = if bytes.len() >= 8 && &bytes[..8] == MAGIC_V2 {
        false
    } else if bytes.len() >= 8 && &bytes[..8] == MAGIC_V1 {
        true
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an ATPMJNL1/ATPMJNL2 journal (bad magic)",
        ));
    };
    let head = if v1 { 8usize } else { 16usize };
    let mut records = Vec::new();
    let mut offset = 8usize;
    while let Some(header) = bytes.get(offset..offset + head) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD {
            break;
        }
        // v2 checksums cover seq ++ payload (contiguous on disk), so a
        // flipped sequence number is corruption, not a silent replay skew.
        let Some(checked) = bytes.get(offset + 8..offset + head + len) else {
            break;
        };
        if crc32(checked) != crc {
            break;
        }
        let seq = if v1 {
            0
        } else {
            u64::from_le_bytes(checked[0..8].try_into().unwrap())
        };
        let payload = &checked[if v1 { 0 } else { 8 }..];
        let parsed = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|json| Record::from_json(&json).ok());
        let Some(record) = parsed else {
            // A record that checksums but doesn't parse is corruption
            // (or a future format); treat it as the tail boundary.
            break;
        };
        records.push((seq, record));
        offset += head + len;
    }
    Ok(ParsedSegment {
        records,
        good_len: offset as u64,
        total_len: bytes.len() as u64,
        v1,
    })
}

/// A parsed `ATPMCKP1` checkpoint.
struct ParsedCkp {
    max_seq: u64,
    next_id: u64,
    sessions: Vec<CkpSession>,
    /// Byte offset of a torn/corrupt tail, if any frame failed its check.
    torn_at: Option<u64>,
}

/// Parses a checkpoint file. `None` when the magic or head frame is
/// unusable (the checkpoint contributes nothing; tail segments still
/// replay). Broken session frames mark the tail: the sessions before them
/// load, everything after is discarded — never a panic.
fn parse_checkpoint(bytes: &[u8]) -> Option<ParsedCkp> {
    if bytes.len() < 8 || &bytes[..8] != CKP_MAGIC {
        return None;
    }
    let mut offset = 8usize;
    let mut frames = Vec::new();
    let mut torn_at = None;
    while let Some(header) = bytes.get(offset..offset + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD {
            break;
        }
        let Some(payload) = bytes.get(offset + 8..offset + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(json) = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| Json::parse(text).ok())
        else {
            break;
        };
        frames.push(json);
        offset += 8 + len;
    }
    if (offset as u64) < bytes.len() as u64 {
        torn_at = Some(offset as u64);
    }
    let mut frames = frames.into_iter();
    let head = frames.next()?;
    if head.get("op").and_then(Json::as_str) != Some("ckp-head") {
        return None;
    }
    let max_seq = head.get("max_seq").and_then(Json::as_u64)?;
    let next_id = head.get("next_id").and_then(Json::as_u64).unwrap_or(0);
    let mut sessions = Vec::new();
    for frame in frames {
        match CkpSession::from_json(&frame) {
            Ok(session) => sessions.push(session),
            // A session frame that checksums but doesn't parse is
            // corruption; it and everything after it are untrustworthy.
            Err(_) => break,
        }
    }
    Some(ParsedCkp {
        max_seq,
        next_id,
        sessions,
        torn_at,
    })
}

// ---------------------------------------------------------------------------
// The journal

/// The active segment: the open file plus the append high-water mark.
struct ActiveSegment {
    file: File,
    /// Seq of the last record appended (globally monotonic across
    /// rotations and restarts).
    appended_seq: u64,
    /// Legacy v1 segment — appends keep the seq-less frame layout so the
    /// file stays self-consistent.
    v1: bool,
}

/// Group-commit state: the durable high-water mark plus leader election.
struct CommitState {
    durable_seq: u64,
    /// A committer is currently inside the window/fsync.
    leader: bool,
}

/// An open journal, positioned for appends.
pub struct Journal {
    path: PathBuf,
    policy: FsyncPolicy,
    io: Arc<dyn JournalIo>,
    active: Mutex<ActiveSegment>,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Set on any write/fsync failure: the OS may have dropped dirty
    /// pages, so every later operation fails fast instead of silently
    /// acking writes that would not survive a crash.
    poisoned: AtomicBool,
    /// Active segment size in bytes (lock-free read for `/healthz`).
    bytes: AtomicU64,
    /// Segment files on disk (active + sealed `.old.*`).
    segments: AtomicU64,
    /// High-water seq of the last durable checkpoint (0 when none).
    last_ckp_seq: AtomicU64,
    /// Fsync latency sink, bound by the server's metrics registry.
    fsync_hist: OnceLock<Arc<atpm_obs::Histogram>>,
    open_info: OpenInfo,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual: the boxed `JournalIo` carries no `Debug` bound.
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("poisoned", &self.poisoned())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens the journal at `path` with the legacy defaults: real file
    /// I/O and shutdown-only fsync. See [`Journal::open_with`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Vec<Record>)> {
        Journal::open_with(path, FsyncPolicy::Shutdown, Arc::new(RealIo))
    }

    /// Opens (creating if absent) the journal at `path`, loading the full
    /// recovery sequence: checkpoint sessions first (synthesized back into
    /// transition records), then leftover sealed segments, then the active
    /// segment — skipping tail records a checkpointed session has already
    /// folded in. The active segment is truncated at the first torn or
    /// corrupt offset; every truncation is reported in [`OpenInfo`].
    pub fn open_with(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        io: Arc<dyn JournalIo>,
    ) -> io::Result<(Journal, Vec<Record>)> {
        let path = path.as_ref().to_path_buf();
        let mut info = OpenInfo::default();
        let mut records: Vec<Record> = Vec::new();
        let mut last_seq_by_token: HashMap<String, u64> = HashMap::new();
        let mut max_seq = 0u64;

        // 1. Checkpoint, if present.
        let ckp_path = ckp_path(&path);
        if let Ok(bytes) = std::fs::read(&ckp_path) {
            if let Some(ckp) = parse_checkpoint(&bytes) {
                if let Some(offset) = ckp.torn_at {
                    info.torn.push((ckp_path.display().to_string(), offset));
                }
                info.checkpoint_sessions = ckp.sessions.len() as u64;
                info.checkpoint_seq = ckp.max_seq;
                info.next_id_floor = ckp.next_id;
                max_seq = max_seq.max(ckp.max_seq);
                for session in &ckp.sessions {
                    last_seq_by_token.insert(session.token.clone(), session.last_seq);
                    max_seq = max_seq.max(session.last_seq);
                    records.extend(session.synthesize());
                }
            }
        }

        // Skip rule: a record at or below a checkpointed session's
        // `last_seq` is already reflected in its synthesized history.
        // (v1 frames read back as seq 0 and only survive in sealed
        // segments, which by construction predate the serialization.)
        let keep = |seq: u64, record: &Record| -> bool {
            let token = match record {
                Record::Create { token, .. }
                | Record::Next { token, .. }
                | Record::Observe { token, .. }
                | Record::NextBatch { token, .. }
                | Record::ObserveBatch { token, .. }
                | Record::Delete { token } => token,
            };
            last_seq_by_token.get(token).is_none_or(|last| seq > *last)
        };

        // 2. Sealed segments left by an interrupted checkpoint, oldest
        // first. They are replayed but never truncated — the next
        // successful checkpoint deletes them whole.
        for (_, old_path) in list_old_segments(&path) {
            let bytes = std::fs::read(&old_path)?;
            let Ok(parsed) = parse_segment(&bytes) else {
                info.torn.push((old_path.display().to_string(), 0));
                continue;
            };
            if parsed.good_len < parsed.total_len {
                info.torn
                    .push((old_path.display().to_string(), parsed.good_len));
            }
            info.segments_replayed += 1;
            for (seq, record) in parsed.records {
                max_seq = max_seq.max(seq);
                if keep(seq, &record) {
                    records.push(record);
                }
            }
        }

        // 3. The active segment, truncated at the first bad frame.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (good_len, v1) = if bytes.is_empty() {
            io.write_all(&file, MAGIC_V2)?;
            file.flush()?;
            (8u64, false)
        } else {
            let parsed = parse_segment(&bytes)?;
            if parsed.good_len < parsed.total_len {
                info.torn
                    .push((path.display().to_string(), parsed.good_len));
                file.set_len(parsed.good_len)?;
            }
            file.seek(SeekFrom::Start(parsed.good_len))?;
            for (seq, record) in parsed.records {
                max_seq = max_seq.max(seq);
                if keep(seq, &record) {
                    records.push(record);
                }
            }
            (parsed.good_len, parsed.v1)
        };

        let segments = 1 + info.segments_replayed;
        let journal = Journal {
            path,
            policy,
            io,
            active: Mutex::new(ActiveSegment {
                file,
                appended_seq: max_seq,
                v1,
            }),
            commit: Mutex::new(CommitState {
                durable_seq: max_seq,
                leader: false,
            }),
            commit_cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            bytes: AtomicU64::new(good_len),
            segments: AtomicU64::new(segments),
            last_ckp_seq: AtomicU64::new(info.checkpoint_seq),
            fsync_hist: OnceLock::new(),
            open_info: info,
        };
        Ok((journal, records))
    }

    /// What open-time recovery found (torn tails, checkpoint stats).
    pub fn open_info(&self) -> &OpenInfo {
        &self.open_info
    }

    /// The configured durability policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Routes fsync latencies into `hist` (first binding wins).
    pub fn bind_fsync_histogram(&self, hist: Arc<atpm_obs::Histogram>) {
        let _ = self.fsync_hist.set(hist);
    }

    /// True once a durability failure has been observed; every later
    /// append/commit/sync fails fast.
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Active segment size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Segment files on disk (active + sealed).
    pub fn segments(&self) -> u64 {
        self.segments.load(Ordering::Relaxed)
    }

    /// High-water seq of the last durable checkpoint (0 when none).
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_ckp_seq.load(Ordering::Relaxed)
    }

    fn poison(&self) -> io::Error {
        self.poisoned.store(true, Ordering::Release);
        // Anyone parked on the commit barrier must wake and observe it.
        self.commit_cv.notify_all();
        poisoned_error()
    }

    /// Appends one record, flushed to the OS before returning so a
    /// process crash cannot lose it, and returns its commit seq. The
    /// record is *not* durable against power loss until
    /// [`Journal::commit`] passes that seq.
    pub fn append(&self, record: &Record) -> io::Result<u64> {
        if self.poisoned() {
            return Err(poisoned_error());
        }
        let payload = record.to_json().encode();
        let payload = payload.as_bytes();
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        let seq = active.appended_seq + 1;
        let frame = if active.v1 {
            let mut frame = Vec::with_capacity(8 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
            frame.extend_from_slice(payload);
            frame
        } else {
            encode_frame_v2(seq, payload)
        };
        // A failed or torn append leaves an unparseable frame mid-file;
        // appending more records after it would strand them past the
        // recovery truncation point. Poison instead of pretending.
        if let Err(e) = retry_eintr(|| self.io.write_all(&active.file, &frame)) {
            drop(active);
            self.poison();
            return Err(e);
        }
        if let Err(e) = active.file.flush() {
            drop(active);
            self.poison();
            return Err(e);
        }
        active.appended_seq = seq;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(seq)
    }

    /// Blocks until the record at `seq` is durable under the configured
    /// policy. Under `group:MS`, the first committer becomes the leader:
    /// it sleeps out the window, issues one fsync covering every record
    /// appended meanwhile, and wakes the group. `always` is a zero-width
    /// window; `shutdown` returns immediately (durability deferred).
    pub fn commit(&self, seq: u64) -> io::Result<()> {
        let window_ms = match self.policy {
            FsyncPolicy::Shutdown => return Ok(()),
            FsyncPolicy::Group(ms) => ms,
            FsyncPolicy::Always => 0,
        };
        loop {
            let mut commit = self.commit.lock().unwrap_or_else(|p| p.into_inner());
            if commit.durable_seq >= seq {
                return Ok(());
            }
            if self.poisoned() {
                return Err(poisoned_error());
            }
            if commit.leader {
                // A leader is already in flight; park until it reports.
                let wait = Duration::from_millis(window_ms.saturating_mul(4).max(50));
                let (guard, _) = self
                    .commit_cv
                    .wait_timeout(commit, wait)
                    .unwrap_or_else(|p| p.into_inner());
                drop(guard);
                continue;
            }
            commit.leader = true;
            drop(commit);
            if window_ms > 0 {
                std::thread::sleep(Duration::from_millis(window_ms));
            }
            let result = self.fsync_active();
            let mut commit = self.commit.lock().unwrap_or_else(|p| p.into_inner());
            commit.leader = false;
            match result {
                Ok(appended) => {
                    commit.durable_seq = commit.durable_seq.max(appended);
                    let durable = commit.durable_seq;
                    drop(commit);
                    self.commit_cv.notify_all();
                    if durable >= seq {
                        return Ok(());
                    }
                }
                Err(e) => {
                    drop(commit);
                    self.poison();
                    return Err(e);
                }
            }
        }
    }

    /// Fsyncs the active segment under the file lock, returning the
    /// append high-water mark the barrier covers.
    fn fsync_active(&self) -> io::Result<u64> {
        let active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        let appended = active.appended_seq;
        let t0 = Instant::now();
        retry_eintr(|| self.io.fsync(&active.file))?;
        if let Some(hist) = self.fsync_hist.get() {
            hist.record_duration(t0.elapsed());
        }
        Ok(appended)
    }

    /// Full durability barrier: fsync everything appended so far (used at
    /// graceful shutdown, and by rotation to seal a segment).
    pub fn sync(&self) -> io::Result<()> {
        if self.poisoned() {
            return Err(poisoned_error());
        }
        match self.fsync_active() {
            Ok(appended) => {
                let mut commit = self.commit.lock().unwrap_or_else(|p| p.into_inner());
                commit.durable_seq = commit.durable_seq.max(appended);
                drop(commit);
                self.commit_cv.notify_all();
                Ok(())
            }
            Err(e) => {
                self.poison();
                Err(e)
            }
        }
    }

    /// Seals the active segment as `<path>.old.<seq>` (fsynced first, so
    /// the sealed file is fully durable) and starts a fresh empty
    /// segment. New appends land in the fresh segment with the seq
    /// counter continuing uninterrupted.
    pub fn rotate(&self) -> io::Result<()> {
        if self.poisoned() {
            return Err(poisoned_error());
        }
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        // Seal: everything in the old segment becomes durable before the
        // file stops being the append target.
        let t0 = Instant::now();
        if let Err(e) = retry_eintr(|| self.io.fsync(&active.file)) {
            drop(active);
            self.poison();
            return Err(e);
        }
        if let Some(hist) = self.fsync_hist.get() {
            hist.record_duration(t0.elapsed());
        }
        let sealed_seq = active.appended_seq;
        let sealed_path = old_segment_path(&self.path, sealed_seq);
        // Rename failure before any new file exists is recoverable: the
        // journal keeps appending to the unrotated segment.
        self.io.rename(&self.path, &sealed_path)?;
        let fresh = match self.io.create(&self.path) {
            Ok(file) => file,
            Err(e) => {
                // Roll back: restore the sealed file as the active path.
                // If even that fails there is no append target left.
                if self.io.rename(&sealed_path, &self.path).is_err() {
                    drop(active);
                    self.poison();
                }
                return Err(e);
            }
        };
        if let Err(e) = self.io.write_all(&fresh, MAGIC_V2).and_then(|()| {
            let mut f = &fresh;
            f.flush()
        }) {
            // The fresh segment has no valid magic; nothing appended to
            // it would survive recovery.
            drop(active);
            self.poison();
            return Err(e);
        }
        active.file = fresh;
        active.v1 = false;
        self.bytes.store(8, Ordering::Relaxed);
        self.segments.fetch_add(1, Ordering::Relaxed);
        drop(active);
        // The sealed segment is fsynced: everything up to `sealed_seq`
        // is durable, so parked committers can be released.
        let mut commit = self.commit.lock().unwrap_or_else(|p| p.into_inner());
        commit.durable_seq = commit.durable_seq.max(sealed_seq);
        drop(commit);
        self.commit_cv.notify_all();
        Ok(())
    }

    /// Writes an `ATPMCKP1` checkpoint covering `sessions` (temp file →
    /// fsync → atomic rename → directory fsync), then deletes every
    /// sealed segment — their records are all reflected in the
    /// checkpoint. Call [`Journal::rotate`] first so the active segment
    /// holds only post-serialization records.
    pub fn write_checkpoint(&self, next_id: u64, sessions: &[CkpSession]) -> io::Result<()> {
        let max_seq = {
            let active = self.active.lock().unwrap_or_else(|p| p.into_inner());
            active.appended_seq
        };
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(CKP_MAGIC);
        let head = Json::obj([
            ("op", Json::Str("ckp-head".into())),
            ("max_seq", Json::UInt(max_seq)),
            ("next_id", Json::UInt(next_id)),
            ("sessions", Json::UInt(sessions.len() as u64)),
        ]);
        push_ckp_frame(&mut buf, &head);
        for session in sessions {
            push_ckp_frame(&mut buf, &session.to_json());
        }
        let ckp = ckp_path(&self.path);
        let tmp = ckp_tmp_path(&self.path);
        // A checkpoint failure is not a journal failure: the segments it
        // would have retired stay on disk and replay at the next open, so
        // errors here propagate without poisoning.
        let file = self.io.create(&tmp)?;
        retry_eintr(|| self.io.write_all(&file, &buf))?;
        retry_eintr(|| self.io.fsync(&file))?;
        self.io.rename(&tmp, &ckp)?;
        // Make the rename itself durable before retiring old segments.
        if let Ok(dir) = File::open(parent_dir(&self.path)) {
            retry_eintr(|| self.io.fsync(&dir))?;
        }
        self.last_ckp_seq.store(max_seq, Ordering::Relaxed);
        // Retention: every sealed segment predates the checkpoint.
        // Removal failures only delay retirement until the next round.
        let mut remaining = 1u64;
        for (_, old_path) in list_old_segments(&self.path) {
            if self.io.remove(&old_path).is_err() {
                remaining += 1;
            }
        }
        self.segments.store(remaining, Ordering::Relaxed);
        Ok(())
    }
}

/// The sentinel error every operation on a poisoned journal returns.
fn poisoned_error() -> io::Error {
    io::Error::other("journal poisoned: an earlier durability failure may have lost writes")
}

fn encode_frame_v2(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut checked = Vec::with_capacity(8 + payload.len());
    checked.extend_from_slice(&seq.to_le_bytes());
    checked.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(&checked).to_le_bytes());
    frame.extend_from_slice(&checked);
    frame
}

fn push_ckp_frame(buf: &mut Vec<u8>, json: &Json) {
    let payload = json.encode();
    let payload = payload.as_bytes();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn ckp_path(path: &Path) -> PathBuf {
    append_ext(path, ".ckp")
}

fn ckp_tmp_path(path: &Path) -> PathBuf {
    append_ext(path, ".ckp.tmp")
}

fn old_segment_path(path: &Path, seq: u64) -> PathBuf {
    append_ext(path, &format!(".old.{seq:020}"))
}

fn append_ext(path: &Path, ext: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(ext);
    path.with_file_name(name)
}

fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Sealed segments next to `path`, sorted by seal seq ascending.
fn list_old_segments(path: &Path) -> Vec<(u64, PathBuf)> {
    let prefix = format!(
        "{}.old.",
        path.file_name().unwrap_or_default().to_string_lossy()
    );
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(parent_dir(path)) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(suffix) = name.strip_prefix(&prefix) {
            if let Ok(seq) = suffix.parse::<u64>() {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PolicySpec;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("atpm-journal-{tag}-{}", std::process::id()));
        p
    }

    fn scrub(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(ckp_path(path));
        let _ = std::fs::remove_file(ckp_tmp_path(path));
        for (_, old) in list_old_segments(path) {
            let _ = std::fs::remove_file(old);
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Create {
                id: 1,
                token: "s00000001".into(),
                req: CreateSessionReq {
                    snapshot: "g".into(),
                    policy: PolicySpec::Ars { prob: 0.5, seed: 9 },
                    world_seed: 42,
                },
            },
            Record::Next {
                token: "s00000001".into(),
                seeds: vec![17],
                done: false,
            },
            Record::Observe {
                token: "s00000001".into(),
                req: ObserveReq::Report {
                    seed: 17,
                    activated: vec![17, 4],
                },
            },
            Record::NextBatch {
                token: "s00000001".into(),
                seeds: vec![3, 8],
                k: 4,
                done: false,
            },
            Record::ObserveBatch {
                token: "s00000001".into(),
                req: ObserveBatchReq::Report {
                    seeds: vec![3, 8],
                    activated: vec![3, 8, 11],
                },
            },
            Record::Next {
                token: "s00000001".into(),
                seeds: vec![],
                done: true,
            },
            Record::Delete {
                token: "s00000001".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_json() {
        for record in sample_records() {
            let encoded = record.to_json().encode();
            let parsed = Record::from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(parsed, record);
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = temp_path("roundtrip");
        scrub(&path);
        let (journal, existing) = Journal::open(&path).unwrap();
        assert!(existing.is_empty());
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records());
        assert!(
            journal.open_info().torn.is_empty(),
            "clean reopen reports no torn tail"
        );
        scrub(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_the_checksum_boundary() {
        let path = temp_path("torn");
        scrub(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        // Tear the final record mid-payload, as a crash mid-write would.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (journal, replayed) = Journal::open(&path).unwrap();
        let all = sample_records();
        assert_eq!(replayed, all[..all.len() - 1]);
        // The tear is reported, with its byte offset, not swallowed.
        assert_eq!(journal.open_info().torn.len(), 1);
        let (file, offset) = &journal.open_info().torn[0];
        assert!(file.contains("atpm-journal-torn"));
        assert!(*offset > 8, "tear offset is past the magic: {offset}");
        // The torn bytes are gone: appending resumes from the boundary.
        journal.append(all.last().unwrap()).unwrap();
        drop(journal);
        let (_journal, healed) = Journal::open(&path).unwrap();
        assert_eq!(healed, all);
        scrub(&path);
    }

    #[test]
    fn corrupt_checksum_marks_the_tail() {
        let path = temp_path("crc");
        scrub(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record: it and everything
        // after it must be discarded (a bad middle means an untrustworthy
        // tail), while the first record survives. v2 frames carry a
        // 16-byte header (len + crc + seq).
        let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let second_payload_start = 8 + 16 + first_len + 16;
        bytes[second_payload_start + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records()[..1]);
        scrub(&path);
    }

    #[test]
    fn v1_segments_still_replay() {
        let path = temp_path("v1compat");
        scrub(&path);
        // Hand-write a legacy segment: v1 magic, 8-byte frame headers.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        for record in sample_records() {
            let payload = record.to_json().encode();
            let payload = payload.as_bytes();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        std::fs::write(&path, &bytes).unwrap();
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records());
        // Appends to a v1 file keep the v1 frame layout, so the mixed
        // file stays parseable end to end.
        journal.append(&sample_records()[0]).unwrap();
        drop(journal);
        let (_journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), sample_records().len() + 1);
        scrub(&path);
    }

    #[test]
    fn bad_magic_is_refused_not_clobbered() {
        let path = temp_path("magic");
        scrub(&path);
        std::fs::write(&path, b"definitely not a journal").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The file was left alone.
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a journal");
        scrub(&path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_renders() {
        assert_eq!(FsyncPolicy::parse("shutdown"), Ok(FsyncPolicy::Shutdown));
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("group:5"), Ok(FsyncPolicy::Group(5)));
        assert_eq!(FsyncPolicy::parse("group:0"), Ok(FsyncPolicy::Group(0)));
        assert!(FsyncPolicy::parse("group:x").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Group(5));
        for p in ["shutdown", "always", "group:7"] {
            assert_eq!(FsyncPolicy::parse(p).unwrap().render(), p);
        }
    }

    #[test]
    fn group_commit_acks_only_durable_records() {
        let path = temp_path("group");
        scrub(&path);
        let (journal, _) =
            Journal::open_with(&path, FsyncPolicy::Group(1), Arc::new(RealIo)).unwrap();
        let journal = Arc::new(journal);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let journal = journal.clone();
            handles.push(std::thread::spawn(move || {
                for record in sample_records() {
                    let seq = journal.append(&record).unwrap();
                    journal.commit(seq).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!journal.poisoned());
        drop(journal);
        let (_journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 4 * sample_records().len());
        scrub(&path);
    }

    #[test]
    fn failed_fsync_poisons_the_journal() {
        let path = temp_path("fsyncgate");
        scrub(&path);
        let io = Arc::new(FaultIo::new().fail(IoSite::Fsync, 1, atpm_net::fault::ENOSPC));
        let (journal, _) = Journal::open_with(&path, FsyncPolicy::Always, io).unwrap();
        let seq = journal.append(&sample_records()[0]).unwrap();
        let err = journal.commit(seq).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(atpm_net::fault::ENOSPC));
        assert!(journal.poisoned(), "a failed fsync must poison");
        // No retry-and-pretend: every later operation fails fast.
        assert!(journal.append(&sample_records()[0]).is_err());
        assert!(journal.commit(seq).is_err());
        assert!(journal.sync().is_err());
        assert!(journal.rotate().is_err());
        scrub(&path);
    }

    #[test]
    fn short_write_poisons_and_recovery_truncates_the_torn_frame() {
        let path = temp_path("shortwrite");
        scrub(&path);
        // Fault the second record's write: 5 bytes of frame land.
        let io = Arc::new(FaultIo::new().short_write(3, 5));
        let (journal, _) = Journal::open_with(&path, FsyncPolicy::Shutdown, io).unwrap();
        journal.append(&sample_records()[0]).unwrap();
        assert!(journal.append(&sample_records()[1]).is_err());
        assert!(journal.poisoned(), "a torn append must poison");
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records()[..1], "torn frame truncated");
        assert_eq!(journal.open_info().torn.len(), 1);
        scrub(&path);
    }

    #[test]
    fn eintr_is_retried_transparently() {
        let path = temp_path("eintr");
        scrub(&path);
        let io = Arc::new(
            FaultIo::new()
                .fail(IoSite::Write, 2, atpm_net::fault::EINTR)
                .fail(IoSite::Fsync, 1, atpm_net::fault::EINTR),
        );
        let (journal, _) = Journal::open_with(&path, FsyncPolicy::Always, io).unwrap();
        let seq = journal.append(&sample_records()[0]).unwrap();
        journal.commit(seq).unwrap();
        assert!(!journal.poisoned(), "EINTR is transient, not poison");
        assert!(injected_total(IoSite::Write) >= 1);
        scrub(&path);
    }

    #[test]
    fn rotation_seals_and_recovery_spans_segments() {
        let path = temp_path("rotate");
        scrub(&path);
        let (journal, _) =
            Journal::open_with(&path, FsyncPolicy::Shutdown, Arc::new(RealIo)).unwrap();
        let all = sample_records();
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        assert_eq!(journal.segments(), 2);
        journal.append(&all[2]).unwrap();
        drop(journal);
        assert_eq!(list_old_segments(&path).len(), 1);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, all[..3], "sealed + active segments replay");
        assert_eq!(journal.open_info().segments_replayed, 1);
        scrub(&path);
    }

    #[test]
    fn checkpoint_retires_sealed_segments_and_reloads() {
        let path = temp_path("ckp");
        scrub(&path);
        let (journal, _) =
            Journal::open_with(&path, FsyncPolicy::Shutdown, Arc::new(RealIo)).unwrap();
        let all = sample_records();
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        let session = CkpSession {
            token: "s00000001".into(),
            id: 1,
            req: CreateSessionReq {
                snapshot: "g".into(),
                policy: PolicySpec::Ars { prob: 0.5, seed: 9 },
                world_seed: 42,
            },
            rounds: vec![],
            pending: vec![17],
            pending_k: 1,
            done: false,
            last_seq: 2,
        };
        journal
            .write_checkpoint(7, std::slice::from_ref(&session))
            .unwrap();
        assert_eq!(journal.segments(), 1, "sealed segments retired");
        assert!(list_old_segments(&path).is_empty());
        assert_eq!(journal.last_checkpoint_seq(), 2);
        // Post-checkpoint tail.
        journal.append(&all[2]).unwrap();
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        // Synthesized: Create + pending NextBatch; then the tail Observe.
        assert_eq!(
            replayed,
            vec![
                Record::Create {
                    id: 1,
                    token: "s00000001".into(),
                    req: session.req.clone(),
                },
                Record::NextBatch {
                    token: "s00000001".into(),
                    seeds: vec![17],
                    k: 1,
                    done: false,
                },
                all[2].clone(),
            ]
        );
        assert_eq!(journal.open_info().checkpoint_sessions, 1);
        assert_eq!(journal.open_info().next_id_floor, 7);
        assert_eq!(journal.open_info().checkpoint_seq, 2);
        scrub(&path);
    }

    #[test]
    fn checkpoint_skips_tail_records_already_folded_in() {
        let path = temp_path("ckpskip");
        scrub(&path);
        let (journal, _) =
            Journal::open_with(&path, FsyncPolicy::Shutdown, Arc::new(RealIo)).unwrap();
        let all = sample_records();
        // Records land in the *active* segment with seqs 1..=3, then the
        // checkpoint claims the session has folded in everything up to
        // seq 2 — as happens when appends race the serialization scan.
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.append(&all[2]).unwrap();
        let session = CkpSession {
            token: "s00000001".into(),
            id: 1,
            req: CreateSessionReq {
                snapshot: "g".into(),
                policy: PolicySpec::Ars { prob: 0.5, seed: 9 },
                world_seed: 42,
            },
            rounds: vec![],
            pending: vec![17],
            pending_k: 1,
            done: false,
            last_seq: 2,
        };
        journal.write_checkpoint(2, &[session]).unwrap();
        drop(journal);
        let (_journal, replayed) = Journal::open(&path).unwrap();
        // Synthesized Create + pending Next, then only the seq-3 tail
        // record — seqs 1 and 2 are already folded into the checkpoint.
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[2], all[2]);
        scrub(&path);
    }

    #[test]
    fn ckp_session_json_round_trips() {
        let session = CkpSession {
            token: "sdeadbeef".into(),
            id: 12,
            req: CreateSessionReq {
                snapshot: "g".into(),
                policy: PolicySpec::Hatp {
                    eps_threshold: Some(0.25),
                    max_theta: Some(1 << 12),
                    seed: 3,
                    threads: 1,
                },
                world_seed: 8,
            },
            rounds: vec![
                RoundRec {
                    k: 1,
                    req: ObserveReq::Simulate { seed: 4 }.into(),
                },
                RoundRec {
                    k: 4,
                    req: ObserveBatchReq::Report {
                        seeds: vec![9, 13],
                        activated: vec![9, 2, 5, 13],
                    },
                },
            ],
            pending: vec![],
            pending_k: 4,
            done: true,
            last_seq: 31,
        };
        let encoded = session.to_json().encode();
        let parsed = CkpSession::from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(parsed, session);
    }

    #[test]
    fn pre_batch_ckp_session_shape_still_parses() {
        // A checkpoint written before batched seeding: rounds are bare
        // ObserveReq objects and 'pending' is a scalar seed.
        let old = Json::obj([
            ("op", Json::Str("ckp-session".into())),
            ("token", Json::Str("sfeedface".into())),
            ("id", Json::UInt(3)),
            (
                "req",
                CreateSessionReq {
                    snapshot: "g".into(),
                    policy: PolicySpec::DeployAll,
                    world_seed: 6,
                }
                .to_json(),
            ),
            (
                "rounds",
                Json::Arr(vec![ObserveReq::Simulate { seed: 4 }.to_json()]),
            ),
            ("pending", Json::UInt(9)),
            ("done", Json::Bool(false)),
            ("last_seq", Json::UInt(5)),
        ]);
        let parsed = CkpSession::from_json(&Json::parse(&old.encode()).unwrap()).unwrap();
        assert_eq!(parsed.pending, vec![9]);
        assert_eq!(parsed.pending_k, 1, "legacy rounds replay at k = 1");
        assert_eq!(
            parsed.rounds,
            vec![RoundRec {
                k: 1,
                req: ObserveBatchReq::Simulate { seeds: vec![4] },
            }]
        );
        // Legacy pending synthesizes as a batch-of-one NextBatch.
        let records = parsed.synthesize();
        assert_eq!(
            records.last(),
            Some(&Record::NextBatch {
                token: "sfeedface".into(),
                seeds: vec![9],
                k: 1,
                done: false,
            })
        );
    }
}
