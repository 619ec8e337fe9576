//! The serve protocol's typed messages and their JSON wire forms.
//!
//! Every request/response the HTTP layer speaks has a struct here with
//! `to_json` / `from_json` converters, so the in-process
//! [`LocalClient`](crate::client::LocalClient), the socket
//! [`HttpClient`](crate::client::HttpClient), the router, and the tests all
//! share one definition of the wire format.
//!
//! ```text
//! POST   /snapshots                      SnapshotReq      -> SnapshotInfo
//! GET    /snapshots                                       -> [SnapshotInfo]
//! GET    /snapshots/:name                                 -> SnapshotInfo
//! POST   /snapshots/:name/estimate       EstimateReq      -> EstimateResp
//! DELETE /snapshots/:name                                 -> {}
//! POST   /sessions                       CreateSessionReq -> CreateSessionResp
//! POST   /sessions/:id/next                               -> NextResp
//! POST   /sessions/:id/observe           ObserveReq       -> ObserveResp
//! POST   /sessions/:id/next_batch        NextBatchReq     -> NextResp
//! POST   /sessions/:id/observe_batch     ObserveBatchReq  -> ObserveResp
//! GET    /sessions/:id/ledger                             -> Ledger
//! DELETE /sessions/:id                                    -> {}
//! GET    /healthz                                         -> {"ok":true}
//! ```

use atpm_core::policies::{Ars, DeployAll, Hatp, ThresholdBatch};
use atpm_core::{AdaptivePolicy, PolicyStepper};
use atpm_graph::Node;

use crate::json::Json;

/// A protocol-level failure: HTTP status + message. The router turns this
/// into an error response body `{"error": message}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl ApiError {
    /// Convenience constructor.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        ApiError {
            status,
            message: message.into(),
        }
    }

    /// 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    /// 404 for a named thing.
    pub fn not_found(what: &str, name: &str) -> Self {
        Self::new(404, format!("{what} '{name}' not found"))
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for ApiError {}

pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    v.get(key)
        .ok_or_else(|| ApiError::bad_request(format!("missing field '{key}'")))
}

pub(crate) fn str_field(v: &Json, key: &str) -> Result<String, ApiError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a string")))
}

pub(crate) fn u64_field(v: &Json, key: &str) -> Result<u64, ApiError> {
    field(v, key)?.as_u64().ok_or_else(|| {
        ApiError::bad_request(format!("field '{key}' must be a nonnegative integer"))
    })
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            ApiError::bad_request(format!("field '{key}' must be a nonnegative integer"))
        }),
    }
}

/// Most sampler threads a wire request may ask for. The cap is a fixed
/// constant, not the machine's parallelism, because `threads` is part of
/// the deterministic sampling contract (results are a function of
/// `(input, seed, threads)` and must not depend on the serving host); it
/// only exists so wire input cannot make the server spawn an unbounded
/// number of OS threads per round.
pub const MAX_WIRE_THREADS: u64 = 64;

/// Parses an optional worker-thread count, bounded by
/// [`MAX_WIRE_THREADS`]. Over-asking is a client error, not a clamp —
/// silently changing `threads` would silently change the sampled worlds.
fn opt_threads(v: &Json) -> Result<usize, ApiError> {
    let requested = opt_u64(v, "threads")?.unwrap_or(1).max(1);
    if requested > MAX_WIRE_THREADS {
        return Err(ApiError::bad_request(format!(
            "threads = {requested} exceeds the cap of {MAX_WIRE_THREADS}"
        )));
    }
    Ok(requested as usize)
}

/// Most RR sets a wire request may ask one sampling call for
/// (`threshold_batch.theta`, `hatp.max_theta`, a snapshot's `rr_theta`).
/// A batch of θ sets is allocated up front, and HATP's per-segment RR pool
/// keeps the sets of every round it draws, and a failed allocation aborts
/// the process rather than unwinding, so the cap keeps wire input from
/// taking the server down. It is also served HATP's default `max_theta`.
/// The operator's `--rr-theta` flag is not capped.
pub const MAX_WIRE_THETA: u64 = 1 << 22;

/// Rejects a wire RR-set count above [`MAX_WIRE_THETA`].
fn check_wire_theta(key: &str, theta: u64) -> Result<usize, ApiError> {
    if theta > MAX_WIRE_THETA {
        return Err(ApiError::bad_request(format!(
            "{key} = {theta} exceeds the cap of {MAX_WIRE_THETA}"
        )));
    }
    Ok(theta as usize)
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a number"))),
    }
}

/// Parses a JSON array of node ids.
pub fn nodes_field(v: &Json, key: &str) -> Result<Vec<Node>, ApiError> {
    let arr = field(v, key)?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be an array")))?;
    arr.iter()
        .map(|x| {
            x.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must hold node ids")))
        })
        .collect()
}

/// Served HATP's configuration: the paper defaults with the wire's
/// overrides, and `max_theta` within (and by default at)
/// [`MAX_WIRE_THETA`].
fn hatp_config(
    eps_threshold: Option<f64>,
    max_theta: Option<usize>,
    seed: u64,
    threads: usize,
) -> Result<Hatp, ApiError> {
    let mut cfg = Hatp {
        seed,
        threads,
        ..Default::default()
    };
    if let Some(e) = eps_threshold {
        if !(e > 0.0 && e <= cfg.eps0) {
            return Err(ApiError::bad_request(
                "eps_threshold must be in (0, 0.5]".to_string(),
            ));
        }
        cfg.eps_threshold = e;
    }
    let max_theta = max_theta.unwrap_or(MAX_WIRE_THETA as usize);
    if max_theta == 0 {
        return Err(ApiError::bad_request(
            "max_theta must be positive".to_string(),
        ));
    }
    cfg.max_theta = check_wire_theta("max_theta", max_theta as u64)?;
    Ok(cfg)
}

/// Which adaptive policy a session runs, with its knobs. This is the
/// dynamically-configured face of the policy zoo: specs arrive as JSON,
/// construct steppers at runtime, and report composed display names.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// HATP (Algorithm 4) with optional overrides of the paper defaults.
    Hatp {
        /// Relative-error threshold ε (default 0.05).
        eps_threshold: Option<f64>,
        /// Per-round RR-set cap, at most [`MAX_WIRE_THETA`], which is also
        /// the default: the segment's RR pool grows with it.
        max_theta: Option<usize>,
        /// Sampling RNG seed.
        seed: u64,
        /// Sampler worker threads (default 1 — the server already runs one
        /// thread per connection).
        threads: usize,
    },
    /// Adaptive random set with selection probability `prob`.
    Ars {
        /// Selection probability (default 0.5).
        prob: f64,
        /// Coin RNG seed (mixed with the session's world seed).
        seed: u64,
    },
    /// Seed every target that is still inactive.
    DeployAll,
    /// Low-adaptivity threshold-sampling batch policy (beyond the paper;
    /// selects whole batches per sampling round — pair with `next_batch`).
    ThresholdBatch {
        /// Fresh RR sets per round (default 4000).
        theta: usize,
        /// Threshold decay per sweep, in (0, 1) (default 0.1).
        eps: f64,
        /// Sampling RNG seed.
        seed: u64,
        /// Sampler worker threads.
        threads: usize,
    },
}

impl PolicySpec {
    /// Parses the `"policy"` object of a session-creation request.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let name = str_field(v, "name")?;
        match name.as_str() {
            "hatp" => Ok(PolicySpec::Hatp {
                eps_threshold: opt_f64(v, "eps_threshold")?,
                max_theta: opt_u64(v, "max_theta")?.map(|x| x as usize),
                seed: opt_u64(v, "seed")?.unwrap_or(0),
                threads: opt_threads(v)?,
            }),
            "ars" => Ok(PolicySpec::Ars {
                prob: opt_f64(v, "prob")?.unwrap_or(0.5),
                seed: opt_u64(v, "seed")?.unwrap_or(0),
            }),
            "deploy_all" => Ok(PolicySpec::DeployAll),
            "threshold_batch" => Ok(PolicySpec::ThresholdBatch {
                theta: opt_u64(v, "theta")?.unwrap_or(4_000) as usize,
                eps: opt_f64(v, "eps")?.unwrap_or(0.1),
                seed: opt_u64(v, "seed")?.unwrap_or(0),
                threads: opt_threads(v)?,
            }),
            other => Err(ApiError::bad_request(format!(
                "unknown policy '{other}' (expected hatp | ars | deploy_all | threshold_batch)"
            ))),
        }
    }

    /// The wire form accepted by [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        match self {
            PolicySpec::Hatp {
                eps_threshold,
                max_theta,
                seed,
                threads,
            } => {
                let mut pairs = vec![
                    ("name", Json::Str("hatp".into())),
                    ("seed", Json::UInt(*seed)),
                    ("threads", Json::UInt(*threads as u64)),
                ];
                if let Some(e) = eps_threshold {
                    pairs.push(("eps_threshold", Json::Num(*e)));
                }
                if let Some(t) = max_theta {
                    pairs.push(("max_theta", Json::UInt(*t as u64)));
                }
                Json::obj(pairs)
            }
            PolicySpec::Ars { prob, seed } => Json::obj([
                ("name", Json::Str("ars".into())),
                ("prob", Json::Num(*prob)),
                ("seed", Json::UInt(*seed)),
            ]),
            PolicySpec::DeployAll => Json::obj([("name", Json::Str("deploy_all".into()))]),
            PolicySpec::ThresholdBatch {
                theta,
                eps,
                seed,
                threads,
            } => Json::obj([
                ("name", Json::Str("threshold_batch".into())),
                ("theta", Json::UInt(*theta as u64)),
                ("eps", Json::Num(*eps)),
                ("seed", Json::UInt(*seed)),
                ("threads", Json::UInt(*threads as u64)),
            ]),
        }
    }

    /// Builds the stepper this spec describes. Validates knob ranges.
    pub fn build(&self) -> Result<Box<dyn PolicyStepper>, ApiError> {
        match self {
            PolicySpec::Hatp {
                eps_threshold,
                max_theta,
                seed,
                threads,
            } => Ok(Box::new(
                hatp_config(*eps_threshold, *max_theta, *seed, *threads)?.stepper(),
            )),
            PolicySpec::Ars { prob, seed } => {
                if !(0.0..=1.0).contains(prob) {
                    return Err(ApiError::bad_request("prob must be in [0, 1]".to_string()));
                }
                Ok(Box::new(
                    Ars {
                        prob: *prob,
                        seed: *seed,
                    }
                    .stepper(),
                ))
            }
            PolicySpec::DeployAll => Ok(Box::new(DeployAll.stepper())),
            PolicySpec::ThresholdBatch {
                theta,
                eps,
                seed,
                threads,
            } => {
                if *theta == 0 {
                    return Err(ApiError::bad_request("theta must be positive".to_string()));
                }
                check_wire_theta("theta", *theta as u64)?;
                if !(*eps > 0.0 && *eps < 1.0) {
                    return Err(ApiError::bad_request("eps must be in (0, 1)".to_string()));
                }
                Ok(Box::new(
                    ThresholdBatch {
                        theta: *theta,
                        eps: *eps,
                        seed: *seed,
                        threads: *threads,
                        ..Default::default()
                    }
                    .stepper(),
                ))
            }
        }
    }
}

/// `POST /snapshots` — load a named snapshot into the store.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotReq {
    /// Store key.
    pub name: String,
    /// Where the graph comes from.
    pub source: SnapshotSource,
    /// Target-set size for the calibrated instance.
    pub k: usize,
    /// RR sets to pre-freeze for warm-started estimate queries.
    pub rr_theta: usize,
    /// Construction RNG seed (IMM target selection, calibration, RR index).
    pub seed: u64,
    /// Sampler threads used while building.
    pub threads: usize,
}

/// Graph source of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotSource {
    /// A Table II preset stand-in generated at `scale`.
    Preset {
        /// Dataset name (`nethept`, `epinions`, `dblp`, `livejournal`).
        dataset: String,
        /// Generation scale in (0, 1].
        scale: f64,
    },
    /// A graph file (`ATPMGRF1` binary or text edge list, auto-sniffed).
    File {
        /// Path on the server's filesystem.
        path: String,
        /// Probability for two-column edge-list lines.
        default_prob: f64,
    },
}

impl SnapshotReq {
    /// Parses the request body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let source = if v.get("preset").is_some() {
            SnapshotSource::Preset {
                dataset: str_field(v, "preset")?,
                scale: opt_f64(v, "scale")?.unwrap_or(0.02),
            }
        } else if v.get("path").is_some() {
            SnapshotSource::File {
                path: str_field(v, "path")?,
                default_prob: opt_f64(v, "default_prob")?.unwrap_or(0.1),
            }
        } else {
            return Err(ApiError::bad_request(
                "snapshot needs either 'preset' or 'path'".to_string(),
            ));
        };
        Ok(SnapshotReq {
            name: str_field(v, "name")?,
            source,
            k: u64_field(v, "k")? as usize,
            rr_theta: check_wire_theta("rr_theta", opt_u64(v, "rr_theta")?.unwrap_or(20_000))?,
            seed: opt_u64(v, "seed")?.unwrap_or(0),
            threads: opt_threads(v)?,
        })
    }

    /// The wire form accepted by [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("k", Json::UInt(self.k as u64)),
            ("rr_theta", Json::UInt(self.rr_theta as u64)),
            ("seed", Json::UInt(self.seed)),
            ("threads", Json::UInt(self.threads as u64)),
        ];
        match &self.source {
            SnapshotSource::Preset { dataset, scale } => {
                pairs.push(("preset", Json::Str(dataset.clone())));
                pairs.push(("scale", Json::Num(*scale)));
            }
            SnapshotSource::File { path, default_prob } => {
                pairs.push(("path", Json::Str(path.clone())));
                pairs.push(("default_prob", Json::Num(*default_prob)));
            }
        }
        Json::obj(pairs)
    }
}

/// `POST /sessions` — open an adaptive session on a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateSessionReq {
    /// Snapshot to run against.
    pub snapshot: String,
    /// Policy to drive.
    pub policy: PolicySpec,
    /// Possible-world seed (the paper's φ).
    pub world_seed: u64,
}

impl CreateSessionReq {
    /// Parses the request body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        Ok(CreateSessionReq {
            snapshot: str_field(v, "snapshot")?,
            policy: PolicySpec::from_json(field(v, "policy")?)?,
            world_seed: u64_field(v, "world_seed")?,
        })
    }

    /// The wire form accepted by [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("snapshot", Json::Str(self.snapshot.clone())),
            ("policy", self.policy.to_json()),
            ("world_seed", Json::UInt(self.world_seed)),
        ])
    }
}

/// `POST /sessions/:id/observe` — report how a committed seed's cascade
/// realized.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveReq {
    /// The server simulates the cascade against the session's own world
    /// (closed-loop benchmarking, protocol tests).
    Simulate {
        /// The seed returned by the last `next` call.
        seed: Node,
    },
    /// The caller reports externally realized activations (a live
    /// deployment feeding real feedback).
    Report {
        /// The seed returned by the last `next` call.
        seed: Node,
        /// Every node observed active after the seed's cascade.
        activated: Vec<Node>,
    },
}

impl ObserveReq {
    /// Parses the request body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let seed = u64_field(v, "seed")?;
        let seed =
            u32::try_from(seed).map_err(|_| ApiError::bad_request("seed id out of range"))?;
        if v.get("simulate").and_then(Json::as_bool).unwrap_or(false) {
            Ok(ObserveReq::Simulate { seed })
        } else {
            Ok(ObserveReq::Report {
                seed,
                activated: nodes_field(v, "activated")?,
            })
        }
    }

    /// The wire form accepted by [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        match self {
            ObserveReq::Simulate { seed } => Json::obj([
                ("seed", Json::UInt(u64::from(*seed))),
                ("simulate", Json::Bool(true)),
            ]),
            ObserveReq::Report { seed, activated } => Json::obj([
                ("seed", Json::UInt(u64::from(*seed))),
                ("activated", Json::nums(activated.iter().copied())),
            ]),
        }
    }
}

/// Most seeds a wire request may ask for in one batch round. Purely an
/// abuse bound — real batch sizes are small (adaptivity trades quality
/// away as `k` grows).
pub const MAX_WIRE_BATCH: u64 = 4_096;

/// `POST /sessions/:id/next_batch` — ask the policy for its next batch of
/// up to `k` seeds, decided against one residual state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NextBatchReq {
    /// Upper bound on the number of seeds in the round.
    pub k: usize,
}

impl NextBatchReq {
    /// Parses the request body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let k = u64_field(v, "k")?;
        if k == 0 {
            return Err(ApiError::bad_request("k must be positive".to_string()));
        }
        if k > MAX_WIRE_BATCH {
            return Err(ApiError::bad_request(format!(
                "k = {k} exceeds the cap of {MAX_WIRE_BATCH}"
            )));
        }
        Ok(NextBatchReq { k: k as usize })
    }

    /// The wire form accepted by [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        Json::obj([("k", Json::UInt(self.k as u64))])
    }
}

/// `POST /sessions/:id/observe_batch` — report how a committed batch's
/// joint cascade realized. The batch generalization of [`ObserveReq`]:
/// `seeds` must be exactly the pending batch from the last `next_batch`.
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveBatchReq {
    /// The server simulates the joint cascade against the session's world.
    Simulate {
        /// The batch returned by the last `next_batch` call, in order.
        seeds: Vec<Node>,
    },
    /// The caller reports externally realized activations.
    Report {
        /// The batch returned by the last `next_batch` call, in order.
        seeds: Vec<Node>,
        /// Every node observed active after the joint cascade.
        activated: Vec<Node>,
    },
}

impl ObserveBatchReq {
    /// The batch this observation is for.
    pub fn seeds(&self) -> &[Node] {
        match self {
            ObserveBatchReq::Simulate { seeds } | ObserveBatchReq::Report { seeds, .. } => seeds,
        }
    }

    /// Parses the request body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let seeds = nodes_field(v, "seeds")?;
        if v.get("simulate").and_then(Json::as_bool).unwrap_or(false) {
            Ok(ObserveBatchReq::Simulate { seeds })
        } else {
            Ok(ObserveBatchReq::Report {
                seeds,
                activated: nodes_field(v, "activated")?,
            })
        }
    }

    /// The wire form accepted by [`from_json`](Self::from_json).
    pub fn to_json(&self) -> Json {
        match self {
            ObserveBatchReq::Simulate { seeds } => Json::obj([
                ("seeds", Json::nums(seeds.iter().copied())),
                ("simulate", Json::Bool(true)),
            ]),
            ObserveBatchReq::Report { seeds, activated } => Json::obj([
                ("seeds", Json::nums(seeds.iter().copied())),
                ("activated", Json::nums(activated.iter().copied())),
            ]),
        }
    }
}

impl From<ObserveReq> for ObserveBatchReq {
    fn from(req: ObserveReq) -> Self {
        match req {
            ObserveReq::Simulate { seed } => ObserveBatchReq::Simulate { seeds: vec![seed] },
            ObserveReq::Report { seed, activated } => ObserveBatchReq::Report {
                seeds: vec![seed],
                activated,
            },
        }
    }
}

/// The profit ledger of a session (response of `observe` and `ledger`).
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Policy display name.
    pub algorithm: String,
    /// Seeds committed so far, in selection order.
    pub selected: Vec<Node>,
    /// Realized profit `I_φ(S) − c(S)`.
    pub profit: f64,
    /// Nodes activated so far.
    pub total_activated: usize,
    /// Alive nodes remaining in the residual graph.
    pub num_alive: usize,
    /// RR sets generated by the policy so far.
    pub sampling_work: u64,
    /// Adaptivity rounds committed so far (one per observed batch; the
    /// single-seed protocol counts one round per seed).
    pub rounds: u64,
    /// Marginal-profit oracle queries spent by the policy so far (recorded
    /// by batch policies; zero for policies that predate the counter).
    pub oracle_queries: u64,
    /// Whether the policy has finished examining every candidate.
    pub done: bool,
}

impl Ledger {
    /// The wire form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("selected", Json::nums(self.selected.iter().copied())),
            ("profit", Json::Num(self.profit)),
            ("total_activated", Json::UInt(self.total_activated as u64)),
            ("num_alive", Json::UInt(self.num_alive as u64)),
            ("sampling_work", Json::UInt(self.sampling_work)),
            ("rounds", Json::UInt(self.rounds)),
            ("oracle_queries", Json::UInt(self.oracle_queries)),
            ("done", Json::Bool(self.done)),
        ])
    }

    /// Parses a response body.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        Ok(Ledger {
            algorithm: str_field(v, "algorithm")?,
            selected: nodes_field(v, "selected")?,
            profit: field(v, "profit")?
                .as_f64()
                .ok_or_else(|| ApiError::bad_request("profit must be a number"))?,
            total_activated: u64_field(v, "total_activated")? as usize,
            num_alive: u64_field(v, "num_alive")? as usize,
            sampling_work: u64_field(v, "sampling_work")?,
            rounds: opt_u64(v, "rounds")?.unwrap_or(0),
            oracle_queries: opt_u64(v, "oracle_queries")?.unwrap_or(0),
            done: field(v, "done")?
                .as_bool()
                .ok_or_else(|| ApiError::bad_request("done must be a boolean"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_specs_round_trip() {
        for spec in [
            PolicySpec::Hatp {
                eps_threshold: Some(0.25),
                max_theta: Some(1 << 16),
                seed: 7,
                threads: 2,
            },
            PolicySpec::Hatp {
                eps_threshold: None,
                max_theta: None,
                seed: 0,
                threads: 1,
            },
            PolicySpec::Ars { prob: 0.5, seed: 3 },
            PolicySpec::DeployAll,
            PolicySpec::ThresholdBatch {
                theta: 2_000,
                eps: 0.2,
                seed: 11,
                threads: 2,
            },
        ] {
            let json = spec.to_json();
            let parsed = PolicySpec::from_json(&Json::parse(&json.encode()).unwrap()).unwrap();
            assert_eq!(parsed, spec);
            assert!(spec.build().is_ok());
        }
    }

    #[test]
    fn policy_spec_rejects_bad_knobs() {
        assert!(PolicySpec::from_json(&Json::obj([("name", Json::Str("nope".into()))])).is_err());
        // Thread bomb: a wire request cannot demand unbounded OS threads.
        let bomb = Json::obj([
            ("name", Json::Str("hatp".into())),
            ("threads", Json::UInt(100_000_000)),
        ]);
        assert_eq!(PolicySpec::from_json(&bomb).unwrap_err().status, 400);
        let bad_eps = PolicySpec::Hatp {
            eps_threshold: Some(0.9),
            max_theta: None,
            seed: 0,
            threads: 1,
        };
        assert!(bad_eps.build().is_err());
        let zero_cap = PolicySpec::Hatp {
            eps_threshold: None,
            max_theta: Some(0),
            seed: 0,
            threads: 1,
        };
        let err = zero_cap.build().err().expect("max_theta 0");
        assert_eq!(err.status, 400);
        assert_eq!(err.message, "max_theta must be positive");
        let bad_prob = PolicySpec::Ars { prob: 1.5, seed: 0 };
        assert!(bad_prob.build().is_err());
        let bad_batch_eps = PolicySpec::ThresholdBatch {
            theta: 1_000,
            eps: 1.0,
            seed: 0,
            threads: 1,
        };
        assert!(bad_batch_eps.build().is_err());
    }

    #[test]
    fn wire_rr_set_counts_are_capped() {
        let policy = |theta: u64| {
            PolicySpec::from_json(&Json::obj([
                ("name", Json::Str("threshold_batch".into())),
                ("theta", Json::UInt(theta)),
            ]))
            .unwrap()
            .build()
        };
        let snapshot = |rr_theta: u64| {
            SnapshotReq::from_json(&Json::obj([
                ("name", Json::Str("g".into())),
                ("preset", Json::Str("nethept".into())),
                ("k", Json::UInt(4)),
                ("rr_theta", Json::UInt(rr_theta)),
            ]))
        };
        assert_eq!(MAX_WIRE_THETA, 4_194_304);
        assert!(policy(MAX_WIRE_THETA).is_ok());
        assert_eq!(snapshot(MAX_WIRE_THETA).unwrap().rr_theta, 1 << 22);
        let err = policy(MAX_WIRE_THETA + 1)
            .err()
            .expect("theta over the cap");
        assert_eq!(err.status, 400);
        assert_eq!(err.message, "theta = 4194305 exceeds the cap of 4194304");
        let err = snapshot(MAX_WIRE_THETA + 1).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.message, "rr_theta = 4194305 exceeds the cap of 4194304");
    }

    #[test]
    fn served_hatp_max_theta_is_capped_and_defaults_to_the_cap() {
        let hatp = |max_theta: Option<u64>| {
            let mut pairs = vec![("name", Json::Str("hatp".into()))];
            if let Some(t) = max_theta {
                pairs.push(("max_theta", Json::UInt(t)));
            }
            PolicySpec::from_json(&Json::obj(pairs)).unwrap()
        };
        // Absent means the wire cap, not the library's unlimited default:
        // a segment's RR pool grows with the rounds' θ.
        assert!(hatp(None).build().is_ok());
        let cfg = hatp_config(None, None, 0, 1).unwrap();
        assert_eq!(cfg.max_theta, 1 << 22);
        assert_eq!(Hatp::default().max_theta, usize::MAX);
        assert_eq!(
            hatp_config(None, Some(1 << 16), 0, 1).unwrap().max_theta,
            1 << 16
        );
        assert!(hatp(Some(MAX_WIRE_THETA)).build().is_ok());
        let err = hatp(Some(MAX_WIRE_THETA + 1))
            .build()
            .err()
            .expect("max_theta over the cap");
        assert_eq!(err.status, 400);
        assert_eq!(
            err.message,
            "max_theta = 4194305 exceeds the cap of 4194304"
        );
        let err = hatp(Some(u64::MAX)).build().err().expect("u64::MAX");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn snapshot_and_session_requests_round_trip() {
        let snap = SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 8,
            rr_theta: 10_000,
            seed: 1,
            threads: 1,
        };
        let parsed = SnapshotReq::from_json(&Json::parse(&snap.to_json().encode()).unwrap());
        assert_eq!(parsed.unwrap(), snap);

        let file = SnapshotReq {
            name: "f".into(),
            source: SnapshotSource::File {
                path: "/tmp/g.bin".into(),
                default_prob: 0.1,
            },
            k: 4,
            rr_theta: 5_000,
            seed: 2,
            threads: 2,
        };
        let parsed = SnapshotReq::from_json(&Json::parse(&file.to_json().encode()).unwrap());
        assert_eq!(parsed.unwrap(), file);

        let create = CreateSessionReq {
            snapshot: "g".into(),
            policy: PolicySpec::DeployAll,
            world_seed: 42,
        };
        let parsed = CreateSessionReq::from_json(&Json::parse(&create.to_json().encode()).unwrap());
        assert_eq!(parsed.unwrap(), create);
    }

    #[test]
    fn observe_requests_round_trip() {
        for req in [
            ObserveReq::Simulate { seed: 5 },
            ObserveReq::Report {
                seed: 5,
                activated: vec![5, 6, 7],
            },
        ] {
            let parsed = ObserveReq::from_json(&Json::parse(&req.to_json().encode()).unwrap());
            assert_eq!(parsed.unwrap(), req);
        }
    }

    #[test]
    fn batch_requests_round_trip() {
        let next = NextBatchReq { k: 4 };
        let parsed = NextBatchReq::from_json(&Json::parse(&next.to_json().encode()).unwrap());
        assert_eq!(parsed.unwrap(), next);
        assert!(NextBatchReq::from_json(&Json::obj([("k", Json::UInt(0))])).is_err());
        assert!(
            NextBatchReq::from_json(&Json::obj([("k", Json::UInt(MAX_WIRE_BATCH + 1))])).is_err()
        );

        for req in [
            ObserveBatchReq::Simulate { seeds: vec![5, 9] },
            ObserveBatchReq::Report {
                seeds: vec![5, 9],
                activated: vec![5, 6, 9],
            },
        ] {
            let parsed = ObserveBatchReq::from_json(&Json::parse(&req.to_json().encode()).unwrap());
            assert_eq!(parsed.unwrap(), req);
            assert_eq!(req.seeds(), &[5, 9]);
        }
    }

    #[test]
    fn batch_of_one_observation_converts_both_ways() {
        // Both observation modes convert exactly: the seed becomes a
        // one-seed batch and a report keeps its activations verbatim.
        for (single, batch) in [
            (
                ObserveReq::Simulate { seed: 7 },
                ObserveBatchReq::Simulate { seeds: vec![7] },
            ),
            (
                ObserveReq::Report {
                    seed: 7,
                    activated: vec![7, 8],
                },
                ObserveBatchReq::Report {
                    seeds: vec![7],
                    activated: vec![7, 8],
                },
            ),
        ] {
            assert_eq!(ObserveBatchReq::from(single), batch);
        }
    }

    #[test]
    fn ledger_round_trips_profit_bits() {
        let ledger = Ledger {
            algorithm: "HATP".into(),
            selected: vec![3, 1, 4],
            profit: 1.0 / 3.0 - 7.25,
            total_activated: 9,
            num_alive: 91,
            sampling_work: 123_456,
            rounds: 3,
            oracle_queries: 42,
            done: false,
        };
        let parsed = Ledger::from_json(&Json::parse(&ledger.to_json().encode()).unwrap()).unwrap();
        assert_eq!(parsed.profit.to_bits(), ledger.profit.to_bits());
        assert_eq!(parsed, ledger);
    }
}
