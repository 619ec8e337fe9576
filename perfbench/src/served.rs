//! The measured `atpm-served` child process, read only from outside: its
//! stderr banner, `/healthz`, `/metrics`, and `/proc/<pid>`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atpm_obs::Scrape;

use crate::client::Conn;

/// How long a boot (graph load, IMM targets, calibration, RR index, bind)
/// may take before the run is abandoned.
const BOOT_DEADLINE: Duration = Duration::from_secs(60);

/// Command-line knobs of one boot.
pub struct BootSpec<'a> {
    /// The `atpm-served` executable.
    pub bin: &'a Path,
    /// Edge-list file the snapshot loads.
    pub graph: &'a Path,
    /// Snapshot construction seed.
    pub seed: u64,
    /// Journal file, under the server's default group-commit fsync.
    pub journal: PathBuf,
    /// Chrome-trace dump path when tracing.
    pub trace: Option<PathBuf>,
}

/// A running server.
pub struct Served {
    child: Child,
    /// `HOST:PORT` the server bound.
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Served {
    /// Spawns the server and waits for its first `200 /healthz`. Returns the
    /// server and the cold-boot time: spawn to that first answer.
    pub fn boot(spec: &BootSpec<'_>) -> Result<(Served, Duration), String> {
        let mut cmd = Command::new(spec.bin);
        cmd.args(["--addr", "127.0.0.1:0", "--name", "bench"])
            .arg("--graph")
            .arg(spec.graph)
            .args(["--k", &crate::TARGETS.to_string()])
            .args(["--rr-theta", &crate::RR_THETA.to_string()])
            .args(["--seed", &spec.seed.to_string()])
            .arg("--journal")
            .arg(&spec.journal);
        if let Some(trace) = &spec.trace {
            cmd.arg("--trace").arg(trace);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.bin.display()))?;
        let (tx, rx) = mpsc::channel::<String>();
        let pipe = child.stderr.take().expect("stderr is piped");
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut served = Served {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        served.addr = wait_listening(&rx, t0)?;
        // The banner prints right after bind; the first healthz answer is
        // the moment a client can be served.
        loop {
            if let Ok(mut conn) = Conn::connect(&served.addr) {
                if let Ok(reply) = conn.send("GET", "/healthz", b"", "") {
                    if reply.status == 200 {
                        return Ok((served, t0.elapsed()));
                    }
                }
            }
            if t0.elapsed() > BOOT_DEADLINE {
                return Err(format!("server at {} never answered /healthz", served.addr));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Process id, for `/proc` reads.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILLs the server and reaps it.
    pub fn kill(mut self) {
        self.reap_now();
    }

    /// SIGTERMs the server (graceful drain, journal fsync, trace dump) and
    /// waits for it to exit.
    pub fn terminate(mut self) -> Result<(), String> {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("kill -TERM: {e}"))?;
        if !status.success() {
            return Err(format!("kill -TERM exited with {status}"));
        }
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(code)) if code.success() => break,
                Ok(Some(code)) => return Err(format!("server exited with {code}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("server did not exit after SIGTERM".into()),
            }
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        Ok(())
    }

    fn reap_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.reap_now();
        }
    }
}

/// Reads the server's stderr until the listening banner and returns the
/// bound address.
fn wait_listening(rx: &Receiver<String>, t0: Instant) -> Result<String, String> {
    let mut seen = Vec::new();
    loop {
        let left = BOOT_DEADLINE.saturating_sub(t0.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    return Ok(addr.to_string());
                }
                seen.push(line);
            }
            Err(_) => {
                return Err(format!(
                    "server exited or hung before listening; stderr:\n{}",
                    seen.join("\n")
                ))
            }
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("VmHWM missing from /proc status")?;
    Ok(kb / 1024.0)
}

/// On-CPU nanoseconds summed over every thread (`/proc/<pid>/task/*/schedstat`).
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0u64;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread can exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(&path) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{}: bad schedstat", path.display()))?;
        }
    }
    Ok(total)
}

/// Scrapes `/metrics`. A non-200 answer or an exposition that fails the
/// repository's lint aborts the run.
pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("metrics: connect: {e}"))?;
    let reply = conn
        .send("GET", "/metrics", b"", "")
        .map_err(|e| format!("metrics: {e}"))?;
    if reply.status != 200 {
        return Err(format!("metrics: /metrics answered {}", reply.status));
    }
    atpm_obs::lint(&reply.body).map_err(|e| format!("metrics: exposition lint: {e}"))?;
    Scrape::parse(&reply.body).map_err(|e| format!("metrics: parse: {e}"))
}
