//! Protocol clients: in-process (no sockets) and HTTP-over-TCP.
//!
//! [`LocalClient`] calls the same [`route`] dispatcher the HTTP workers
//! use, so embedding the service in a binary (tests, the `serve_campaign`
//! example) exercises exactly the deployed protocol minus the wire.
//! [`HttpClient`] is the blocking socket counterpart used by the load
//! generator and the end-to-end tests; it keeps its connection alive
//! across requests, mirroring a real client SDK.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use atpm_graph::Node;

use crate::json::Json;
use crate::protocol::{
    nodes_field, ApiError, CreateSessionReq, Ledger, NextBatchReq, ObserveBatchReq, ObserveReq,
    SnapshotReq,
};
use crate::server::{route, AppState};
use std::sync::Arc;

/// Outcome of a protocol call made through a client.
pub type ApiResult = Result<Json, ApiError>;

/// A transport-agnostic protocol client: both clients implement the same
/// typed calls, so test and benchmark drivers are generic over transport.
pub trait ProtocolClient {
    /// Raw call: method + path + JSON body.
    fn call(&mut self, method: &str, path: &str, body: &Json) -> ApiResult;

    /// Loads a snapshot.
    fn create_snapshot(&mut self, req: &SnapshotReq) -> ApiResult {
        self.call("POST", "/snapshots", &req.to_json())
    }

    /// Opens a session; returns its token.
    fn create_session(&mut self, req: &CreateSessionReq) -> Result<String, ApiError> {
        let resp = self.call("POST", "/sessions", &req.to_json())?;
        resp.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ApiError::new(500, "response missing 'session'"))
    }

    /// Asks for the next seed batch; `None` when the policy is done.
    fn next(&mut self, token: &str) -> Result<Option<Vec<Node>>, ApiError> {
        seeds_of(&self.call("POST", &format!("/sessions/{token}/next"), &Json::obj([]))?)
    }

    /// Asks for the next batch of up to `k` seeds in one low-adaptivity
    /// round; `None` when the policy is done. The pending batch must be
    /// observed via [`observe_batch`](Self::observe_batch) before the next
    /// round.
    fn next_batch(&mut self, token: &str, k: usize) -> Result<Option<Vec<Node>>, ApiError> {
        seeds_of(&self.call(
            "POST",
            &format!("/sessions/{token}/next_batch"),
            &NextBatchReq { k }.to_json(),
        )?)
    }

    /// Reports (or asks the server to simulate) an observation.
    fn observe(&mut self, token: &str, req: &ObserveReq) -> ApiResult {
        self.call(
            "POST",
            &format!("/sessions/{token}/observe"),
            &req.to_json(),
        )
    }

    /// Reports (or asks the server to simulate) a whole round's observation.
    fn observe_batch(&mut self, token: &str, req: &ObserveBatchReq) -> ApiResult {
        self.call(
            "POST",
            &format!("/sessions/{token}/observe_batch"),
            &req.to_json(),
        )
    }

    /// Reads the session ledger.
    fn ledger(&mut self, token: &str) -> Result<Ledger, ApiError> {
        let resp = self.call("GET", &format!("/sessions/{token}/ledger"), &Json::obj([]))?;
        Ledger::from_json(&resp)
    }

    /// Closes a session.
    fn delete_session(&mut self, token: &str) -> ApiResult {
        self.call("DELETE", &format!("/sessions/{token}"), &Json::obj([]))
    }

    /// Drives one full adaptive run with server-side simulation: create →
    /// (next → observe)* → ledger. Returns the final ledger.
    fn run_session(&mut self, req: &CreateSessionReq) -> Result<Ledger, ApiError> {
        let token = self.create_session(req)?;
        while let Some(seeds) = self.next(&token)? {
            for seed in seeds {
                self.observe(&token, &ObserveReq::Simulate { seed })?;
            }
        }
        let ledger = self.ledger(&token)?;
        self.delete_session(&token)?;
        Ok(ledger)
    }

    /// Drives one full adaptive run in batched rounds of up to `k` seeds
    /// with server-side simulation: create → (next_batch → observe_batch)* →
    /// ledger. At `k = 1` the resulting ledger is byte-identical to
    /// [`run_session`](Self::run_session)'s.
    fn run_session_batched(
        &mut self,
        req: &CreateSessionReq,
        k: usize,
    ) -> Result<Ledger, ApiError> {
        let token = self.create_session(req)?;
        while let Some(seeds) = self.next_batch(&token, k)? {
            self.observe_batch(&token, &ObserveBatchReq::Simulate { seeds })?;
        }
        let ledger = self.ledger(&token)?;
        self.delete_session(&token)?;
        Ok(ledger)
    }
}

/// Parses a `next`/`next_batch` response: `None` when the policy is done.
/// Seeds go through the strict [`nodes_field`], so a response holding a
/// non-integer or out-of-range id is an error, never a dropped or wrapped
/// seed.
fn seeds_of(resp: &Json) -> Result<Option<Vec<Node>>, ApiError> {
    if resp.get("done").and_then(Json::as_bool).unwrap_or(false) {
        return Ok(None);
    }
    nodes_field(resp, "seeds").map(Some)
}

/// In-process client: protocol semantics without sockets.
pub struct LocalClient {
    state: Arc<AppState>,
}

impl LocalClient {
    /// A client over shared state.
    pub fn new(state: Arc<AppState>) -> Self {
        LocalClient { state }
    }

    /// The shared state (e.g. to start a socket server over the same store).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }
}

impl ProtocolClient for LocalClient {
    fn call(&mut self, method: &str, path: &str, body: &Json) -> ApiResult {
        route(&self.state, method, path, body).map(|(_, json)| json)
    }
}

/// Blocking HTTP/1.1 client over one keep-alive connection.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: atpm\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.writer.write_all(body)?;
        self.writer.flush()?;

        // Status line.
        let mut status_line = String::new();
        read_line(&mut self.reader, &mut status_line)?;
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        // Headers.
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            read_line(&mut self.reader, &mut line)?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }

    /// GETs `path` and returns `(status, body)` as text — the non-JSON
    /// escape hatch `/metrics` scrapes use (the exposition is Prometheus
    /// text, not a protocol object).
    pub fn get_text(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, bytes) = self.exchange("GET", path, b"")?;
        let text = String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
        Ok((status, text))
    }
}

fn read_line(reader: &mut BufReader<TcpStream>, out: &mut String) -> io::Result<()> {
    let mut byte = [0u8; 1];
    loop {
        reader.read_exact(&mut byte)?;
        if byte[0] == b'\n' {
            if out.ends_with('\r') {
                out.pop();
            }
            return Ok(());
        }
        out.push(byte[0] as char);
    }
}

impl ProtocolClient for HttpClient {
    fn call(&mut self, method: &str, path: &str, body: &Json) -> ApiResult {
        let (status, bytes) = self
            .exchange(method, path, body.encode().as_bytes())
            .map_err(|e| ApiError::new(500, format!("transport: {e}")))?;
        let text =
            String::from_utf8(bytes).map_err(|_| ApiError::new(500, "non-UTF-8 response body"))?;
        let json = Json::parse(&text).map_err(|e| ApiError::new(500, format!("bad body: {e}")))?;
        if (200..300).contains(&status) {
            Ok(json)
        } else {
            let message = json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string();
            Err(ApiError::new(status, message))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PolicySpec, SnapshotSource};

    fn snapshot_req() -> SnapshotReq {
        SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 4,
            rr_theta: 4_000,
            seed: 1,
            threads: 1,
        }
    }

    fn session_req(world: u64) -> CreateSessionReq {
        CreateSessionReq {
            snapshot: "g".into(),
            policy: PolicySpec::DeployAll,
            world_seed: world,
        }
    }

    #[test]
    fn local_client_runs_a_full_session() {
        let mut client = LocalClient::new(AppState::new());
        client.create_snapshot(&snapshot_req()).unwrap();
        let ledger = client.run_session(&session_req(5)).unwrap();
        assert!(ledger.done);
        assert!(!ledger.selected.is_empty());
        assert_eq!(ledger.algorithm, "DeployAll");
        // Session was deleted by run_session.
        assert!(client.state().manager.is_empty());
    }

    #[test]
    fn batched_run_at_k1_matches_single_seed_run() {
        let mut client = LocalClient::new(AppState::new());
        client.create_snapshot(&snapshot_req()).unwrap();
        let single = client.run_session(&session_req(5)).unwrap();
        let batched = client.run_session_batched(&session_req(5), 1).unwrap();
        assert_eq!(batched, single);
        assert_eq!(batched.profit.to_bits(), single.profit.to_bits());
        assert_eq!(batched.rounds, single.rounds);
    }

    #[test]
    fn batched_run_over_http_matches_local() {
        use crate::server::{ServeConfig, Server};
        let state = AppState::new();
        let mut local = LocalClient::new(state.clone());
        local.create_snapshot(&snapshot_req()).unwrap();
        let mut server = Server::start(state, &ServeConfig::default()).unwrap();

        let req = CreateSessionReq {
            snapshot: "g".into(),
            policy: PolicySpec::ThresholdBatch {
                theta: 2_000,
                eps: 0.1,
                seed: 7,
                threads: 1,
            },
            world_seed: 5,
        };
        let mut http = HttpClient::connect(server.addr()).unwrap();
        let from_http = http.run_session_batched(&req, 4).unwrap();
        let from_local = local.run_session_batched(&req, 4).unwrap();
        assert_eq!(from_http, from_local);
        assert_eq!(from_http.profit.to_bits(), from_local.profit.to_bits());
        assert!(from_http.rounds >= 1);
        server.shutdown();
    }

    /// A client whose server answers every call with one canned body.
    struct Canned(Json);

    impl ProtocolClient for Canned {
        fn call(&mut self, _: &str, _: &str, _: &Json) -> ApiResult {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn malformed_seeds_are_errors_not_dropped_or_wrapped() {
        let canned = |seed| {
            let seeds = Json::Arr(vec![Json::UInt(3), seed]);
            Canned(Json::obj([("seeds", seeds), ("done", Json::Bool(false))]))
        };
        for bad in [Json::Num(1.5), Json::UInt(1 << 32), Json::Str("4".into())] {
            let mut client = canned(bad.clone());
            assert!(client.next("s").is_err(), "next accepted {bad:?}");
            assert!(
                client.next_batch("s", 2).is_err(),
                "next_batch accepted {bad:?}"
            );
        }
        let mut client = canned(Json::UInt(u32::MAX.into()));
        assert_eq!(client.next("s").unwrap(), Some(vec![3, u32::MAX]));
        assert_eq!(client.next_batch("s", 2).unwrap(), Some(vec![3, u32::MAX]));
    }

    #[test]
    fn local_client_surfaces_api_errors() {
        let mut client = LocalClient::new(AppState::new());
        let err = client.create_session(&session_req(1)).unwrap_err();
        assert_eq!(err.status, 404);
    }

    #[test]
    fn http_client_matches_local_client() {
        use crate::server::{ServeConfig, Server};
        let state = AppState::new();
        let mut local = LocalClient::new(state.clone());
        local.create_snapshot(&snapshot_req()).unwrap();
        let mut server = Server::start(state, &ServeConfig::default()).unwrap();

        let mut http = HttpClient::connect(server.addr()).unwrap();
        let from_http = http.run_session(&session_req(5)).unwrap();
        let from_local = local.run_session(&session_req(5)).unwrap();
        assert_eq!(from_http, from_local);
        assert_eq!(from_http.profit.to_bits(), from_local.profit.to_bits());

        // Error statuses travel the wire too.
        let err = http.next("missing").unwrap_err();
        assert_eq!(err.status, 404);
        server.shutdown();
    }
}
