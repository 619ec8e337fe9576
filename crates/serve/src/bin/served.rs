//! `atpm-served` — run the adaptive-seeding service standalone.
//!
//! ```text
//! cargo run -p atpm-serve --release --bin atpm-served -- [flags]
//!
//! flags: --addr HOST:PORT      bind address          (default 127.0.0.1:8080)
//!        --workers N           request workers       (default 4)
//!        --shards N            epoll reactor shards  (default 2)
//!        --session-ttl SECS    evict sessions idle this long (default: never)
//!        --idle-timeout SECS   close connections idle this long (default
//!                              60; must be at least 1)
//!        --max-queue N         shed 503 past N queued jobs (default 1024,
//!                              0 = never shed)
//!        --journal PATH        append-only session journal, replayed
//!                              (checkpoint + tail) on restart (default: none)
//!        --fsync POLICY        journal durability: shutdown | group:MS |
//!                              always (default group:5). group and always
//!                              are one group commit: a reply waits for one
//!                              fsync, shared by the commits that arrived
//!                              meanwhile; MS adds no delay
//!        --checkpoint-every S  checkpoint live sessions + rotate the
//!                              journal every S seconds; 0 disables
//!                              (default 300)
//!        --trace PATH          enable span tracing; dump Chrome trace-event
//!                              JSON (Perfetto-loadable) here on shutdown
//!        --drain-ms MS         graceful-shutdown drain window (default 500)
//!        --snapshot-budget MB  snapshot-store LRU byte budget (default: unbounded)
//!        --preset NAME         preload a snapshot from a Table II preset
//!        --graph PATH          ...or from an edge-list/ATPMGRF1 file
//!        --name NAME           snapshot store key    (default "default")
//!        --scale F --k N --rr-theta N --seed S      snapshot knobs
//! ```
//!
//! Without `--preset`/`--graph` the server starts with an empty store;
//! load snapshots over the API (`POST /snapshots`). Runs until killed.
//! `--workers` bounds CPU concurrency only — connection count is limited
//! by fds, not threads. The transport is epoll-based: Linux x86_64/aarch64
//! only; elsewhere the server refuses to start (exit 1). CPU profiles come
//! from `GET /debug/profile?seconds=N`, which arms the sampling profiler
//! for its window only.

use atpm_serve::journal::FsyncPolicy;
use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

#[derive(Debug)]
struct Args {
    cfg: ServeConfig,
    snapshot: Option<SnapshotReq>,
}

/// Parses a seconds flag into milliseconds. A count whose milliseconds
/// overflow `u64` is a usage error rather than a silent wrap.
fn secs_to_ms(flag: &str, value: &str) -> Result<u64, String> {
    let secs: u64 = value.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    secs.checked_mul(1_000)
        .ok_or_else(|| format!("bad {flag}: {secs} seconds is out of range"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:8080".into(),
        ..ServeConfig::default()
    };
    let mut name = "default".to_string();
    let mut source: Option<SnapshotSource> = None;
    let (mut scale, mut k, mut rr_theta, mut seed) = (0.05f64, 8usize, 10_000usize, 7u64);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value_of("--addr")?,
            "--workers" => {
                cfg.workers = value_of("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--shards" => {
                cfg.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if cfg.shards == 0 {
                    return Err("need at least one shard".into());
                }
            }
            "--session-ttl" => {
                let ms = secs_to_ms("--session-ttl", &value_of("--session-ttl")?)?;
                cfg.session_ttl_ms = (ms > 0).then_some(ms);
            }
            "--idle-timeout" => {
                cfg.idle_timeout_ms = secs_to_ms("--idle-timeout", &value_of("--idle-timeout")?)?;
                if cfg.idle_timeout_ms == 0 {
                    return Err("--idle-timeout must be at least 1 second".into());
                }
            }
            "--max-queue" => {
                cfg.max_queue = value_of("--max-queue")?
                    .parse()
                    .map_err(|e| format!("bad --max-queue: {e}"))?;
            }
            "--journal" => cfg.journal_path = Some(value_of("--journal")?),
            "--fsync" => {
                let v = value_of("--fsync")?;
                cfg.fsync =
                    FsyncPolicy::parse(&v).map_err(|e| format!("bad --fsync '{v}': {e}"))?;
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every_ms =
                    secs_to_ms("--checkpoint-every", &value_of("--checkpoint-every")?)?;
            }
            "--trace" => cfg.trace_path = Some(value_of("--trace")?),
            "--drain-ms" => {
                cfg.drain_ms = value_of("--drain-ms")?
                    .parse()
                    .map_err(|e| format!("bad --drain-ms: {e}"))?;
            }
            "--snapshot-budget" => {
                let mb: usize = value_of("--snapshot-budget")?
                    .parse()
                    .map_err(|e| format!("bad --snapshot-budget: {e}"))?;
                let bytes = mb
                    .checked_mul(1024 * 1024)
                    .ok_or_else(|| format!("bad --snapshot-budget: {mb} MB is out of range"))?;
                cfg.snapshot_budget_bytes = (bytes > 0).then_some(bytes);
            }
            "--preset" => {
                source = Some(SnapshotSource::Preset {
                    dataset: value_of("--preset")?,
                    scale,
                });
            }
            "--graph" => {
                source = Some(SnapshotSource::File {
                    path: value_of("--graph")?,
                    default_prob: 0.1,
                });
            }
            "--name" => name = value_of("--name")?,
            "--scale" => {
                scale = value_of("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if let Some(SnapshotSource::Preset { scale: s, .. }) = &mut source {
                    *s = scale;
                }
            }
            "--k" => {
                k = value_of("--k")?
                    .parse()
                    .map_err(|e| format!("bad --k: {e}"))?;
            }
            "--rr-theta" => {
                rr_theta = value_of("--rr-theta")?
                    .parse()
                    .map_err(|e| format!("bad --rr-theta: {e}"))?;
            }
            "--seed" => {
                seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if cfg.workers == 0 {
        return Err("need at least one worker".into());
    }
    Ok(Args {
        cfg,
        snapshot: source.map(|source| SnapshotReq {
            name,
            source,
            k,
            rr_theta,
            seed,
            threads: 1,
        }),
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: atpm-served [--addr HOST:PORT] \
                 [--workers N] [--shards N] [--session-ttl SECS] \
                 [--idle-timeout SECS] [--max-queue N] [--journal PATH] \
                 [--fsync shutdown|group:MS|always] [--checkpoint-every SECS] \
                 [--trace PATH] \
                 [--drain-ms MS] [--snapshot-budget MB] \
                 [--preset NAME | --graph PATH] \
                 [--name NAME] [--scale F] [--k N] [--rr-theta N] [--seed S]"
            );
            std::process::exit(2);
        }
    };
    let state = AppState::new();
    if let Some(req) = &args.snapshot {
        eprintln!("# building snapshot '{}'...", req.name);
        match Snapshot::build(req) {
            Ok(snap) => {
                eprintln!(
                    "# snapshot '{}': n={} m={} targets={} rr_sets={}",
                    snap.name,
                    snap.instance.graph().num_nodes(),
                    snap.instance.graph().num_edges(),
                    snap.instance.k(),
                    snap.rr.len(),
                );
                state.store.insert(snap);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    match Server::start(state, &args.cfg) {
        Ok(mut server) => {
            eprintln!(
                "# atpm-served listening on http://{} ({} workers{}); Ctrl-C to stop",
                server.addr(),
                args.cfg.workers,
                match args.cfg.session_ttl_ms {
                    Some(ttl) => format!(", session TTL {}s", ttl / 1_000),
                    None => String::new(),
                } + &match &args.cfg.journal_path {
                    Some(path) => format!(", journal {path}"),
                    None => String::new(),
                },
            );
            // SIGINT/SIGTERM raise a flag; seeing it, shut down gracefully
            // (drain in-flight work, fsync the journal, dump the trace).
            // On platforms without the signal shim the old behavior stands:
            // run until killed.
            match atpm_net::sys::arm_terminate_flag() {
                Ok(flag) => {
                    while !flag.load(std::sync::atomic::Ordering::Acquire) {
                        std::thread::park_timeout(std::time::Duration::from_millis(200));
                    }
                    eprintln!("# terminate signal received; draining...");
                    server.shutdown();
                    // Lost durability must not look like a clean exit: a
                    // failed shutdown fsync (or a journal already poisoned
                    // by an earlier failure) exits nonzero so supervisors
                    // notice.
                    if server.durability_error().is_some() {
                        std::process::exit(3);
                    }
                }
                Err(_) => loop {
                    std::thread::park();
                },
            }
        }
        Err(e) => {
            eprintln!("error: cannot start server on {}: {e}", args.cfg.addr);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_flags(flags: &[&str]) -> Result<Args, String> {
        parse(&flags.iter().map(|f| f.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn duration_and_size_flags_scale_normal_values() {
        let args = parse_flags(&[
            "--session-ttl",
            "30",
            "--idle-timeout",
            "5",
            "--checkpoint-every",
            "2",
            "--snapshot-budget",
            "3",
        ])
        .unwrap();
        assert_eq!(args.cfg.session_ttl_ms, Some(30_000));
        assert_eq!(args.cfg.idle_timeout_ms, 5_000);
        assert_eq!(args.cfg.checkpoint_every_ms, 2_000);
        assert_eq!(args.cfg.snapshot_budget_bytes, Some(3 * 1024 * 1024));
        // Zero still means "off" where the flag documents it.
        let args = parse_flags(&["--session-ttl", "0", "--checkpoint-every", "0"]).unwrap();
        assert_eq!(args.cfg.session_ttl_ms, None);
        assert_eq!(args.cfg.checkpoint_every_ms, 0);
    }

    #[test]
    fn overflowing_flag_values_are_usage_errors() {
        let secs = (u64::MAX / 1_000 + 1).to_string();
        for flag in ["--session-ttl", "--idle-timeout", "--checkpoint-every"] {
            let err = parse_flags(&[flag, &secs]).unwrap_err();
            assert!(err.contains(flag) && err.contains("out of range"), "{err}");
        }
        // The largest value that fits still parses.
        let max = (u64::MAX / 1_000).to_string();
        let args = parse_flags(&["--checkpoint-every", &max]).unwrap();
        assert_eq!(args.cfg.checkpoint_every_ms, u64::MAX / 1_000 * 1_000);

        let mb = (usize::MAX / (1024 * 1024) + 1).to_string();
        let err = parse_flags(&["--snapshot-budget", &mb]).unwrap_err();
        assert!(
            err.contains("--snapshot-budget") && err.contains("out of range"),
            "{err}"
        );
    }

    #[test]
    fn idle_timeout_zero_is_rejected() {
        let err = parse_flags(&["--idle-timeout", "0"]).unwrap_err();
        assert!(err.contains("--idle-timeout"), "{err}");
    }
}
