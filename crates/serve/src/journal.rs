//! Crash-safe session journal: an append-only, checksummed log of
//! committed protocol transitions with group-commit fsync, checkpoint +
//! segment rotation, and fault-injectable file I/O.
//!
//! Sessions are deterministic functions of `(snapshot, policy spec,
//! world_seed, ordered observations)` — the entire adaptive run can be
//! reconstructed by replaying the protocol calls that produced it. So the
//! journal does not serialize `SessionState` (megabytes of residual graph
//! per record); it logs the *transitions* the manager committed, and
//! recovery re-drives them through the same
//! [`SessionManager`](crate::manager::SessionManager) code paths
//! that served them live. A recovered session is therefore bit-equal to
//! the lost one: same token, same seed sequence, same profit ledger.
//!
//! ## Wire format
//!
//! One segment generation:
//!
//! ```text
//! "ATPMJNL2"                         8-byte magic
//! repeat:
//!   len: u32 LE                      payload byte length
//!   crc: u32 LE                      CRC-32 (IEEE) of seq ++ payload
//!   seq: u64 LE                      global commit sequence number
//!   payload: len bytes               one JSON record, {"op": ...}
//! ```
//!
//! Appends are `write_all` + `flush` per record, so a crash can only tear
//! the *final* record. Opening validates each record's length and checksum
//! and truncates the active segment at the first torn offset — everything
//! before the checksum boundary replays, everything after never happened
//! (the client's retry layer re-drives the lost tail). Torn tails are
//! counted and reported in [`OpenInfo`], never silently swallowed. A frame
//! that passes its checksum but does not parse is no crash artifact: it
//! fails the open, naming the file and byte offset, and nothing is
//! truncated. Files of retired formats — `ATPMJNL1` segments, the
//! `next`/`observe` records, `ATPMCKP1` checkpoints — are refused the same
//! way and never rewritten.
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
//! ## Checkpoint = compacted journal (`ATPMCKP2`)
//!
//! Rotation seals the active segment as `<path>.old.<seq>` and starts a
//! fresh one. A checkpoint then compacts everything sealed — the previous
//! checkpoint and the sealed segments, read by the same loader as
//! [`Journal::open_with`] — into `<path>.ckp`, keeping the records of the
//! sessions the manager still holds, verbatim with their original seqs,
//! grouped by session:
//!
//! ```text
//! "ATPMCKP2"                         8-byte magic
//! head frame                         seq = sealed high-water seq,
//!                                    {"op":"ckp-head","next_id":N,"records":M}
//! M record frames                    ATPMJNL2 frames, each session's
//!                                    starting with its create
//! ```
//!
//! The file is written to a temp file, fsynced, atomically renamed, and
//! the sealed segments are deleted. Recovery = checkpoint records, then
//! sealed records above the head seq (left by a failed deletion), then the
//! active segment, whose records are all above it — bounded work,
//! regardless of how long the server ran. A torn checkpoint drops the
//! session whose frames straddle the tear: a session loads whole or not
//! at all. A checkpoint that exists but cannot be read fails the open.
//!
//! An idle rotation seals nothing, so a segment that a failed checkpoint
//! left behind waits for the next compaction. A compaction that finds the
//! checkpoint vanished, or a tear the open did not report, fails before it
//! writes or removes anything.
//!
//! ## Fault injection
//!
//! Every file operation routes through a [`JournalIo`] implementation.
//! [`RealIo`] is the passthrough; [`FaultIo`] injects scripted faults
//! (short write, `EINTR`, `ENOSPC`, failing fsync) in the spirit of
//! `atpm-net`'s `SysPolicy`, with process-wide injection counters exported
//! as `atpm_serve_journal_fault_injected_total`.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::protocol::{nodes_field, ApiError, CreateSessionReq, ObserveBatchReq};
use atpm_graph::Node;

const MAGIC: &[u8; 8] = b"ATPMJNL2";
const CKP_MAGIC: &[u8; 8] = b"ATPMCKP2";
/// Magics of retired formats, refused by name.
const RETIRED_MAGIC: &[u8; 8] = b"ATPMJNL1";
const RETIRED_CKP_MAGIC: &[u8; 8] = b"ATPMCKP1";
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
    /// `POST next` or `next_batch` committed a new seed batch under the
    /// requested round size (`k = 1` for `next`). Idempotent re-serves of
    /// a pending batch are not journaled — they change nothing.
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
    /// `POST observe` or `observe_batch` applied an observation (a
    /// single-seed observation is a batch of one).
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
    /// The session the transition belongs to.
    pub fn token(&self) -> &str {
        match self {
            Record::Create { token, .. }
            | Record::NextBatch { token, .. }
            | Record::ObserveBatch { token, .. }
            | Record::Delete { token } => token,
        }
    }

    /// JSON payload form.
    pub fn to_json(&self) -> Json {
        match self {
            Record::Create { id, token, req } => Json::obj([
                ("op", Json::Str("create".into())),
                ("id", Json::UInt(*id)),
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

    /// Parses a payload. Any other op — including the retired
    /// `next`/`observe` — is an error.
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
// Reading segments and checkpoints

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

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The intact frames of one file, as `(seq, parsed payload)` in file order.
struct Walk<T> {
    frames: Vec<(u64, T)>,
    /// Byte offset just past the last intact frame (below the file length
    /// means a torn tail).
    good_len: u64,
}

/// The one frame walker, for segments and checkpoints alike: walks the
/// `ATPMJNL2` frames behind the 8-byte magic of `bytes`, parsing each
/// payload with `parse`. A torn frame (short, oversized, or failing its
/// CRC) ends the walk — it is the crash window. A frame that passes its
/// CRC but does not parse is no crash artifact but a bug or another
/// build's record; truncating there would destroy every acked record
/// behind it, so it is an error naming `file`, the offset and the cause.
fn walk_frames<T>(
    file: &Path,
    bytes: &[u8],
    mut parse: impl FnMut(&Json) -> Result<T, ApiError>,
) -> io::Result<Walk<T>> {
    let mut frames = Vec::new();
    let mut offset = 8usize;
    while let Some(header) = bytes.get(offset..offset + 16) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD {
            break;
        }
        // Checksums cover seq ++ payload (contiguous on disk), so a
        // flipped sequence number is corruption, not a silent replay skew.
        let Some(checked) = bytes.get(offset + 8..offset + 16 + len) else {
            break;
        };
        if crc32(checked) != crc {
            break;
        }
        let seq = u64::from_le_bytes(checked[0..8].try_into().unwrap());
        let parsed = std::str::from_utf8(&checked[8..])
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
            .and_then(|json| parse(&json).map_err(|e| e.message));
        let value = parsed.map_err(|cause| {
            invalid(format!(
                "{}: frame at byte {offset} passes its checksum but does not parse: {cause}",
                file.display()
            ))
        })?;
        frames.push((seq, value));
        offset += 16 + len;
    }
    Ok(Walk {
        frames,
        good_len: offset as u64,
    })
}

/// Reads one segment: its magic, then its frames as records.
fn read_segment(file: &Path, bytes: &[u8]) -> io::Result<Walk<Record>> {
    match bytes.get(..8) {
        Some(magic) if magic == MAGIC => walk_frames(file, bytes, Record::from_json),
        Some(magic) if magic == RETIRED_MAGIC => Err(invalid(format!(
            "{}: ATPMJNL1 is a retired journal format; this build reads only ATPMJNL2",
            file.display()
        ))),
        _ => Err(invalid(format!(
            "{}: not an ATPMJNL2 journal (bad magic)",
            file.display()
        ))),
    }
}

/// Everything recovery reads ahead of the active segment.
#[derive(Default)]
struct Sealed {
    /// The checkpoint's records, then the sealed segments' records above
    /// its head seq: `(seq, record)` in replay order.
    records: Vec<(u64, Record)>,
    /// The sealed segments read, oldest first.
    segments: Vec<PathBuf>,
    /// Every record sealed so far is at or below this seq (the checkpoint
    /// head's or the newest sealed segment's); every active one is above.
    sealed_seq: u64,
    /// A checkpoint file was there to read.
    ckp_found: bool,
    info: OpenInfo,
}

/// The loader [`Journal::open_with`] and the checkpoint compaction share:
/// the checkpoint at `path.ckp`, then the sealed `path.old.*` segments.
/// Sealed records at or below the checkpoint's head seq were compacted
/// into it (their segment outlived a failed deletion) and are skipped. A
/// checkpoint that exists but cannot be read fails the load, like a
/// sealed segment: skipping it would lose its sessions.
fn load_sealed(path: &Path) -> io::Result<Sealed> {
    let mut sealed = Sealed::default();
    let ckp = ckp_path(path);
    match std::fs::read(&ckp) {
        Ok(bytes) => {
            sealed.ckp_found = true;
            read_checkpoint(&ckp, &bytes, &mut sealed)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let head_seq = sealed.info.checkpoint_seq;
    for (seal_seq, old_path) in list_old_segments(path) {
        let bytes = std::fs::read(&old_path)?;
        let walk = read_segment(&old_path, &bytes)?;
        if walk.good_len < bytes.len() as u64 {
            sealed
                .info
                .torn
                .push((old_path.display().to_string(), walk.good_len));
        }
        sealed.info.segments_replayed += 1;
        sealed
            .records
            .extend(walk.frames.into_iter().filter(|(seq, _)| *seq > head_seq));
        sealed.sealed_seq = sealed.sealed_seq.max(seal_seq);
        sealed.segments.push(old_path);
    }
    Ok(sealed)
}

/// A checkpoint's head frame payload.
struct CkpHead {
    next_id: u64,
    /// Record frames written behind the head; fewer on disk means the
    /// file was cut, even at a frame boundary.
    records: u64,
}

impl CkpHead {
    fn to_json(&self) -> Json {
        Json::obj([
            ("op", Json::Str("ckp-head".into())),
            ("next_id", Json::UInt(self.next_id)),
            ("records", Json::UInt(self.records)),
        ])
    }

    fn from_json(v: &Json) -> Result<CkpHead, ApiError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ApiError::bad_request(format!("ckp-head missing '{key}'")))
        };
        if v.get("op").and_then(Json::as_str) != Some("ckp-head") {
            return Err(ApiError::bad_request(
                "checkpoint does not open with a ckp-head",
            ));
        }
        Ok(CkpHead {
            next_id: field("next_id")?,
            records: field("records")?,
        })
    }
}

/// Loads the checkpoint `bytes` into `sealed`. A checkpoint with a foreign
/// magic or no intact head contributes nothing and is reported as a tear:
/// boot degrades to the segments, it never fails. A torn record tail drops
/// the session whose frames straddle the tear.
fn read_checkpoint(file: &Path, bytes: &[u8], sealed: &mut Sealed) -> io::Result<()> {
    let name = file.display().to_string();
    match bytes.get(..8) {
        Some(magic) if magic == CKP_MAGIC => {}
        Some(magic) if magic == RETIRED_CKP_MAGIC => {
            return Err(invalid(format!(
                "{name}: ATPMCKP1 is a retired checkpoint format; this build reads only ATPMCKP2"
            )))
        }
        _ => {
            sealed.info.torn.push((name, 0));
            return Ok(());
        }
    }
    let mut head = None;
    let walk = walk_frames(file, bytes, |json| {
        if head.is_some() {
            return Record::from_json(json).map(Some);
        }
        head = Some(CkpHead::from_json(json)?);
        Ok(None)
    })?;
    let mut frames = walk.frames.into_iter();
    let (Some(head), Some((head_seq, _))) = (head, frames.next()) else {
        sealed.info.torn.push((name, walk.good_len));
        return Ok(());
    };
    let mut records: Vec<(u64, Record)> = frames
        .filter_map(|(seq, record)| record.map(|r| (seq, r)))
        .collect();
    if walk.good_len < bytes.len() as u64 || (records.len() as u64) < head.records {
        sealed.info.torn.push((name, walk.good_len));
        // Sessions are grouped, so the straddling one is the last read.
        if let Some(token) = records.last().map(|(_, r)| r.token().to_string()) {
            records.retain(|(_, r)| r.token() != token);
        }
    }
    sealed.info.checkpoint_sessions = records
        .iter()
        .filter(|(_, r)| matches!(r, Record::Create { .. }))
        .count() as u64;
    sealed.info.checkpoint_seq = head_seq;
    sealed.info.next_id_floor = head.next_id;
    sealed.sealed_seq = head_seq;
    sealed.records = records;
    Ok(())
}

// ---------------------------------------------------------------------------
// The journal

/// The active segment: the open file plus the append high-water mark.
struct ActiveSegment {
    file: File,
    /// Seq of the last record appended (globally monotonic across
    /// rotations and restarts).
    appended_seq: u64,
}

/// What the next compaction must find on disk. Anything else is damage
/// done since the open: compacting over it would overwrite or delete the
/// only durable copy of live sessions.
struct Expected {
    /// A checkpoint file exists: read by the open, or written since.
    ckp: bool,
    /// Tears the open reported; recovery already dropped what they cut.
    torn: Vec<(String, u64)>,
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
    /// Held across a compaction, which it also serializes.
    expected: Mutex<Expected>,
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
    /// recovery sequence: the checkpoint's records, then the sealed
    /// segments' records above its head seq, then the active segment. The
    /// active segment is truncated at its torn tail; every tear is
    /// reported in [`OpenInfo`]. A frame that passes its checksum but does
    /// not parse, a retired format, or a foreign segment fails the open
    /// and leaves every file as it was.
    pub fn open_with(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        io: Arc<dyn JournalIo>,
    ) -> io::Result<(Journal, Vec<Record>)> {
        let path = path.as_ref().to_path_buf();
        let sealed = load_sealed(&path)?;
        let mut info = sealed.info;
        let mut records: Vec<Record> = sealed.records.into_iter().map(|(_, r)| r).collect();
        let mut max_seq = sealed.sealed_seq;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let good_len = if bytes.is_empty() {
            io.write_all(&file, MAGIC)?;
            file.flush()?;
            8
        } else {
            let walk = read_segment(&path, &bytes)?;
            if walk.good_len < bytes.len() as u64 {
                info.torn.push((path.display().to_string(), walk.good_len));
                file.set_len(walk.good_len)?;
            }
            file.seek(SeekFrom::Start(walk.good_len))?;
            for (seq, record) in walk.frames {
                max_seq = max_seq.max(seq);
                records.push(record);
            }
            walk.good_len
        };

        let segments = 1 + info.segments_replayed;
        let expected = Expected {
            ckp: sealed.ckp_found,
            torn: info.torn.clone(),
        };
        let journal = Journal {
            path,
            policy,
            io,
            active: Mutex::new(ActiveSegment {
                file,
                appended_seq: max_seq,
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
            expected: Mutex::new(expected),
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
    ///
    /// A payload over the 16 MiB frame limit is refused with
    /// `InvalidInput`: recovery would read its frame as a torn tail and
    /// truncate there, dropping it and every later record. The refusal
    /// writes nothing and leaves the journal healthy.
    pub fn append(&self, record: &Record) -> io::Result<u64> {
        if self.poisoned() {
            return Err(poisoned_error());
        }
        let payload = record.to_json().encode();
        let payload = payload.as_bytes();
        if payload.len() > MAX_RECORD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "journal record of {} bytes exceeds the {MAX_RECORD}-byte limit",
                    payload.len()
                ),
            ));
        }
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        let seq = active.appended_seq + 1;
        let frame = encode_frame_v2(seq, payload);
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
    /// counter continuing uninterrupted. An active segment with no records
    /// is left as it is: its seal name is the last seal's, and renaming
    /// it there would replace a sealed segment not yet compacted.
    pub fn rotate(&self) -> io::Result<()> {
        if self.poisoned() {
            return Err(poisoned_error());
        }
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        // `bytes` only moves under the active lock.
        if self.bytes() == MAGIC.len() as u64 {
            return Ok(());
        }
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
        if let Err(e) = self.io.write_all(&fresh, MAGIC).and_then(|()| {
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

    /// Compacts everything sealed — the previous checkpoint and the sealed
    /// segments — into a fresh `ATPMCKP2` checkpoint holding the records
    /// of the `live` sessions, verbatim and grouped by session, then
    /// deletes the sealed segments. Returns how many sessions it wrote. Call
    /// [`Journal::rotate`] first: records appended since stay in the
    /// active segment, above the head seq, and replay after the
    /// checkpoint. A live session whose create is not sealed yet is left
    /// out; the active segment holds all of it. The write is crash-safe
    /// (temp file → fsync → atomic rename → directory fsync).
    ///
    /// A checkpoint that vanished, or a tear in the checkpoint or a sealed
    /// segment that the open did not report, fails the compaction before
    /// anything is written or removed: the live sessions those files held
    /// are still in memory, and folding the damage in would make the loss
    /// permanent.
    pub fn write_checkpoint(&self, next_id: u64, live: &HashSet<String>) -> io::Result<usize> {
        let mut expected = self.expected.lock().unwrap_or_else(|p| p.into_inner());
        let sealed = load_sealed(&self.path)?;
        let ckp = ckp_path(&self.path);
        if expected.ckp && !sealed.ckp_found {
            return Err(invalid(format!(
                "{}: checkpoint vanished since the open; not compacting without it",
                ckp.display()
            )));
        }
        if let Some((file, offset)) = sealed.info.torn.iter().find(|t| !expected.torn.contains(t)) {
            return Err(invalid(format!(
                "{file}: torn at byte {offset} since the open; not compacting over it"
            )));
        }
        // Each live session ranks by the position of its create; one
        // whose first sealed record is anything else is not written.
        let mut rank: HashMap<&str, Option<usize>> = HashMap::new();
        for (i, (_, record)) in sealed.records.iter().enumerate() {
            rank.entry(record.token()).or_insert_with(|| {
                (live.contains(record.token()) && matches!(record, Record::Create { .. }))
                    .then_some(i)
            });
        }
        let mut kept: Vec<&(u64, Record)> = sealed
            .records
            .iter()
            .filter(|(_, r)| rank[r.token()].is_some())
            .collect();
        // Stable: each session's records keep their journal order.
        kept.sort_by_key(|(_, r)| rank[r.token()]);
        let head = CkpHead {
            next_id,
            records: kept.len() as u64,
        };
        let mut buf = CKP_MAGIC.to_vec();
        buf.extend(encode_frame_v2(
            sealed.sealed_seq,
            head.to_json().encode().as_bytes(),
        ));
        for (seq, record) in kept {
            buf.extend(encode_frame_v2(*seq, record.to_json().encode().as_bytes()));
        }
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
        self.last_ckp_seq
            .store(sealed.sealed_seq, Ordering::Relaxed);
        // The file just written is whole; its open-time tear is history.
        expected.ckp = true;
        let name = ckp.display().to_string();
        expected.torn.retain(|(file, _)| *file != name);
        // Retention: every segment read is compacted. A removal failure
        // only delays retirement; the loader skips what the head covers.
        let mut remaining = 1u64;
        for old_path in &sealed.segments {
            if self.io.remove(old_path).is_err() {
                remaining += 1;
            }
        }
        self.segments.store(remaining, Ordering::Relaxed);
        Ok(rank.values().filter(|r| r.is_some()).count())
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
            Record::NextBatch {
                token: "s00000001".into(),
                seeds: vec![17],
                k: 1,
                done: false,
            },
            Record::ObserveBatch {
                token: "s00000001".into(),
                req: ObserveBatchReq::Report {
                    seeds: vec![17],
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
            Record::NextBatch {
                token: "s00000001".into(),
                seeds: vec![],
                k: 1,
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

    const TOKEN: &str = "s00000001";

    fn live(tokens: &[&str]) -> HashSet<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    fn create(token: &str, id: u64) -> Record {
        Record::Create {
            id,
            token: token.into(),
            req: CreateSessionReq {
                snapshot: "g".into(),
                policy: PolicySpec::Ars { prob: 0.5, seed: 9 },
                world_seed: 42,
            },
        }
    }

    fn next(token: &str, seed: Node) -> Record {
        Record::NextBatch {
            token: token.into(),
            seeds: vec![seed],
            k: 1,
            done: false,
        }
    }

    #[test]
    fn a_checksummed_frame_that_does_not_parse_fails_the_open_untouched() {
        let path = temp_path("bogus");
        scrub(&path);
        let all = sample_records();
        let mut bytes = b"ATPMJNL2".to_vec();
        bytes.extend(encode_frame_v2(1, all[0].to_json().encode().as_bytes()));
        let bogus_at = bytes.len();
        bytes.extend(encode_frame_v2(2, br#"{"op":"bogus"}"#));
        bytes.extend(encode_frame_v2(3, all[1].to_json().encode().as_bytes()));
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(message.contains("atpm-journal-bogus"), "{message}");
        assert!(message.contains(&format!("byte {bogus_at}")), "{message}");
        assert!(message.contains("'bogus'"), "{message}");
        // Nothing was truncated: the acked record behind the frame stays.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        scrub(&path);
    }

    #[test]
    fn a_checksummed_checkpoint_frame_that_does_not_parse_fails_the_open() {
        let path = temp_path("bogusckp");
        scrub(&path);
        let head = CkpHead {
            next_id: 2,
            records: 1,
        };
        let mut bytes = CKP_MAGIC.to_vec();
        bytes.extend(encode_frame_v2(1, head.to_json().encode().as_bytes()));
        bytes.extend(encode_frame_v2(1, br#"{"op":"bogus"}"#));
        std::fs::write(ckp_path(&path), &bytes).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(message.contains(".ckp"), "{message}");
        assert!(message.contains("'bogus'"), "{message}");
        assert_eq!(std::fs::read(ckp_path(&path)).unwrap(), bytes);
        assert!(!path.exists(), "a failed open creates no segment");
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
        assert_eq!(journal.write_checkpoint(7, &live(&[TOKEN])).unwrap(), 1);
        assert_eq!(journal.segments(), 1, "sealed segments retired");
        assert!(list_old_segments(&path).is_empty());
        assert_eq!(journal.last_checkpoint_seq(), 2);
        // Post-checkpoint tail.
        journal.append(&all[2]).unwrap();
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        // The compacted Create + pending NextBatch; then the tail Observe.
        assert_eq!(replayed, all[..3]);
        assert_eq!(journal.open_info().checkpoint_sessions, 1);
        assert_eq!(journal.open_info().next_id_floor, 7);
        assert_eq!(journal.open_info().checkpoint_seq, 2);
        scrub(&path);
    }

    #[test]
    fn a_failed_segment_removal_still_replays_each_record_once() {
        let path = temp_path("ckpremove");
        scrub(&path);
        let io = Arc::new(FaultIo::new().fail(IoSite::Remove, 1, atpm_net::fault::ENOSPC));
        let (journal, _) = Journal::open_with(&path, FsyncPolicy::Shutdown, io).unwrap();
        let all = sample_records();
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        journal.append(&all[2]).unwrap();
        assert_eq!(journal.write_checkpoint(2, &live(&[TOKEN])).unwrap(), 1);
        assert_eq!(
            journal.segments(),
            2,
            "the sealed segment outlived its removal"
        );
        assert_eq!(list_old_segments(&path).len(), 1);
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(
            replayed,
            all[..3],
            "records the checkpoint holds are skipped"
        );
        assert_eq!(journal.open_info().segments_replayed, 1);
        // The next checkpoint compacts and retires the leftover too.
        journal.rotate().unwrap();
        assert_eq!(journal.write_checkpoint(2, &live(&[TOKEN])).unwrap(), 1);
        assert!(list_old_segments(&path).is_empty());
        drop(journal);
        let (_journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, all[..3]);
        scrub(&path);
    }

    #[test]
    fn a_record_appended_between_rotate_and_checkpoint_replays_once() {
        let path = temp_path("ckprace");
        scrub(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        let all = sample_records();
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        // Lands in the fresh segment while the checkpoint is being built.
        journal.append(&all[2]).unwrap();
        journal.write_checkpoint(2, &live(&[TOKEN])).unwrap();
        journal.append(&all[3]).unwrap();
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, all[..4]);
        assert_eq!(journal.open_info().checkpoint_seq, 2);
        scrub(&path);
    }

    #[test]
    fn successive_checkpoints_keep_a_long_lived_sessions_full_history() {
        let path = temp_path("ckptwice");
        scrub(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        let all = sample_records();
        let keep = live(&[TOKEN]);
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        journal.write_checkpoint(2, &keep).unwrap();
        journal.append(&all[2]).unwrap();
        journal.append(&all[3]).unwrap();
        journal.rotate().unwrap();
        journal.write_checkpoint(2, &keep).unwrap();
        journal.append(&all[4]).unwrap();
        drop(journal);
        assert!(list_old_segments(&path).is_empty());
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, all[..5]);
        assert_eq!(journal.open_info().checkpoint_seq, 4);
        assert_eq!(journal.open_info().checkpoint_sessions, 1);
        scrub(&path);
    }

    #[test]
    fn checkpoint_leaves_out_dropped_sessions_and_histories_without_a_create() {
        let path = temp_path("ckpdrop");
        scrub(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        // "sa" is deleted; "sb" is live but its create is not sealed.
        for record in [
            create("sa", 1),
            create("sc", 3),
            next("sa", 5),
            next("sb", 6),
            next("sc", 7),
            Record::Delete { token: "sa".into() },
        ] {
            journal.append(&record).unwrap();
        }
        journal.rotate().unwrap();
        assert_eq!(
            journal.write_checkpoint(4, &live(&["sb", "sc"])).unwrap(),
            1
        );
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, [create("sc", 3), next("sc", 7)]);
        assert_eq!(journal.open_info().checkpoint_sessions, 1);
        scrub(&path);
    }

    #[test]
    fn an_idle_rotation_after_a_failed_checkpoint_keeps_the_sealed_records() {
        let path = temp_path("ckpidle");
        scrub(&path);
        // Create #1 is the rotation's fresh segment, #2 the checkpoint's
        // temp file.
        let io = Arc::new(FaultIo::new().fail(IoSite::Create, 2, atpm_net::fault::ENOSPC));
        let (journal, _) = Journal::open_with(&path, FsyncPolicy::Shutdown, io).unwrap();
        let all = sample_records();
        let keep = live(&[TOKEN]);
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        assert!(journal.write_checkpoint(2, &keep).is_err());
        // One idle period: nothing appended, the next checkpoint runs.
        journal.rotate().unwrap();
        assert_eq!(list_old_segments(&path).len(), 1);
        assert_eq!(journal.write_checkpoint(2, &keep).unwrap(), 1);
        assert!(list_old_segments(&path).is_empty());
        drop(journal);
        let (_journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, all[..2]);
        scrub(&path);
    }

    #[test]
    fn a_checkpoint_damaged_since_the_open_is_not_compacted_over() {
        let path = temp_path("ckpdamage");
        scrub(&path);
        let all = sample_records();
        let keep = live(&[TOKEN]);
        let (journal, _) = Journal::open(&path).unwrap();
        journal.append(&all[0]).unwrap();
        journal.append(&all[1]).unwrap();
        journal.rotate().unwrap();
        journal.write_checkpoint(2, &keep).unwrap();
        journal.append(&all[2]).unwrap();
        journal.rotate().unwrap();
        let ckp = ckp_path(&path);
        let intact = std::fs::read(&ckp).unwrap();
        let mut torn = intact.clone();
        torn.truncate(intact.len() - 3);
        let sealed = list_old_segments(&path);
        assert_eq!(sealed.len(), 1);

        std::fs::remove_file(&ckp).unwrap();
        let err = journal.write_checkpoint(2, &keep).unwrap_err();
        assert!(err.to_string().contains("vanished"), "{err}");
        assert!(!ckp.exists());
        std::fs::write(&ckp, &torn).unwrap();
        let err = journal.write_checkpoint(2, &keep).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // Nothing renamed or removed.
        assert_eq!(std::fs::read(&ckp).unwrap(), torn);
        assert_eq!(list_old_segments(&path), sealed);

        // A tear the open reported is one recovery already took: the
        // compaction goes ahead and writes a whole checkpoint.
        std::fs::write(&ckp, &intact).unwrap();
        let (_, expected) = Journal::open(&path).unwrap();
        std::fs::write(&ckp, &torn).unwrap();
        drop(journal);
        let (journal, replayed) = Journal::open(&path).unwrap();
        assert!(!journal.open_info().torn.is_empty());
        assert_eq!(replayed, expected[2..], "the straddling session is dropped");
        journal.write_checkpoint(2, &keep).unwrap();
        // That checkpoint's tear is history: damage to the new file fails.
        std::fs::write(&ckp, b"ATPMCKP2").unwrap();
        assert!(journal.write_checkpoint(2, &keep).is_err());
        scrub(&path);
    }
}
