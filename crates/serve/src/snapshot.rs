//! The snapshot store: named, refcounted graph snapshots with a prebuilt
//! RR index.
//!
//! A [`Snapshot`] bundles everything a session needs to start instantly:
//! the immutable [`TpmInstance`] (graph + IMM-selected targets + calibrated
//! costs) and an indexed [`RrCollection`] sampled at load time. Sessions and
//! estimate queries share the snapshot through an `Arc`, so creating a
//! session is O(1) in graph size — the expensive work (graph generation or
//! file load, IMM target selection, cost calibration, RR sampling +
//! index build) happens exactly once per snapshot, and concurrent readers
//! never contend: the store's `RwLock` is only held to look up or swap the
//! `Arc`, never while a query runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use atpm_core::setup::{calibrated_instance, CalibrationConfig};
use atpm_core::{CostSplit, TpmInstance};
use atpm_graph::gen::Dataset;
use atpm_graph::io;
use atpm_ris::{generate_batch, RrCollection};

use crate::json::Json;
use crate::protocol::{ApiError, SnapshotReq, SnapshotSource};

/// A loaded snapshot: instance + warm RR index.
pub struct Snapshot {
    /// Store key.
    pub name: String,
    /// The problem instance sessions run against.
    pub instance: TpmInstance,
    /// Indexed RR batch over the full graph, sampled at load time. Spread
    /// estimates answer from this without resampling.
    pub rr: RrCollection,
}

impl Snapshot {
    /// Builds a snapshot from a request: loads/generates the graph, selects
    /// the target set, calibrates costs, samples and indexes the RR batch.
    pub fn build(req: &SnapshotReq) -> Result<Snapshot, ApiError> {
        let graph = match &req.source {
            SnapshotSource::Preset { dataset, scale } => {
                let d = Dataset::parse(dataset).ok_or_else(|| {
                    ApiError::bad_request(format!(
                        "unknown preset '{dataset}' (expected nethept | epinions | dblp | livejournal)"
                    ))
                })?;
                if !(*scale > 0.0 && *scale <= 1.0) {
                    return Err(ApiError::bad_request("scale must be in (0, 1]"));
                }
                d.generate(*scale, req.seed)
            }
            SnapshotSource::File { path, default_prob } => {
                io::load_auto(path, *default_prob as f32)
                    .map_err(|e| ApiError::bad_request(format!("cannot load '{path}': {e}")))?
            }
        };
        let n = graph.num_nodes();
        if req.k == 0 || req.k >= n.max(1) {
            return Err(ApiError::bad_request(format!(
                "k = {} out of range for a {n}-node graph",
                req.k
            )));
        }
        let instance = calibrated_instance(
            graph,
            req.k,
            CostSplit::DegreeProportional,
            CalibrationConfig {
                lb_theta: req.rr_theta.clamp(1_000, 400_000),
                seed: req.seed,
                threads: req.threads,
                ..Default::default()
            },
        );
        let rr = generate_batch(
            &instance.graph(),
            req.rr_theta,
            req.seed.wrapping_add(0x5EED),
            req.threads,
        );
        Ok(Snapshot {
            name: req.name.clone(),
            instance,
            rr,
        })
    }

    /// Resident bytes this snapshot pins: the graph with its baked
    /// sampling view ([`Graph::heap_bytes`](atpm_graph::Graph::heap_bytes)),
    /// the instance's per-node cost array and the indexed RR batch. This is
    /// what the store's LRU budget charges.
    pub fn mem_bytes(&self) -> usize {
        let graph = self.instance.graph();
        graph.heap_bytes() + graph.num_nodes() * std::mem::size_of::<f64>() + self.rr.mem_bytes()
    }

    /// Store/info wire form.
    pub fn info_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("nodes", Json::Num(self.instance.graph().num_nodes() as f64)),
            ("edges", Json::Num(self.instance.graph().num_edges() as f64)),
            ("targets", Json::Num(self.instance.k() as f64)),
            ("total_cost", Json::Num(self.instance.total_cost())),
            ("rr_sets", Json::Num(self.rr.len() as f64)),
            ("mem_bytes", Json::Num(self.mem_bytes() as f64)),
        ])
    }

    /// Warm-start spread estimate of a seed set: `n · CovR(S)/θ` against the
    /// indexed RR batch. The coverage count marks sets in the calling
    /// thread's reusable marks, so steady-state queries allocate nothing.
    pub fn estimate_spread(&self, nodes: &[u32]) -> Result<f64, ApiError> {
        let n = self.instance.graph().num_nodes();
        if let Some(&bad) = nodes.iter().find(|&&u| u as usize >= n) {
            return Err(ApiError::bad_request(format!(
                "node {bad} out of range for a {n}-node graph"
            )));
        }
        Ok(self.rr.spread_set(nodes))
    }
}

/// A stored snapshot plus its LRU stamp. The stamp is an atomic so `get`
/// (read lock only) can refresh recency without write contention.
struct StoreEntry {
    snap: Arc<Snapshot>,
    last_used: AtomicU64,
}

/// Named snapshots behind a `RwLock`: cheap concurrent lookup, exclusive
/// only for insert/remove — now with an optional LRU size budget.
///
/// Eviction policy: after each insert, while the summed
/// [`Snapshot::mem_bytes`] exceeds the budget, the least-recently-used
/// snapshot is dropped — except snapshots that are *pinned* (their `Arc`
/// is held outside the store: live sessions, in-flight estimates) and the
/// most recently used one, which is always kept so the working snapshot
/// cannot evict itself. The budget is therefore a soft cap: pinned + newest
/// stay resident regardless.
#[derive(Default)]
pub struct SnapshotStore {
    map: RwLock<HashMap<String, StoreEntry>>,
    /// LRU clock: bumped on every touch.
    use_counter: AtomicU64,
    /// Byte budget; 0 = unbounded.
    budget: AtomicUsize,
    /// Lifetime evictions (observability).
    evictions: AtomicU64,
}

impl SnapshotStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the LRU byte budget (0 = unbounded) and enforces it
    /// immediately.
    pub fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::SeqCst);
        let mut map = self.map.write().expect("snapshot store poisoned");
        self.enforce_budget(&mut map);
    }

    /// The current LRU byte budget (0 = unbounded).
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::SeqCst)
    }

    /// Snapshots evicted by the budget over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::SeqCst)
    }

    fn stamp(&self) -> u64 {
        self.use_counter.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Inserts (or replaces) a snapshot under its name, then enforces the
    /// budget. Sessions opened on a replaced snapshot keep their `Arc` and
    /// finish against the old data.
    pub fn insert(&self, snapshot: Snapshot) -> Arc<Snapshot> {
        let arc = Arc::new(snapshot);
        let mut map = self.map.write().expect("snapshot store poisoned");
        map.insert(
            arc.name.clone(),
            StoreEntry {
                snap: arc.clone(),
                last_used: AtomicU64::new(self.stamp()),
            },
        );
        self.enforce_budget(&mut map);
        arc
    }

    /// Looks up a snapshot by name, refreshing its LRU stamp.
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        let map = self.map.read().expect("snapshot store poisoned");
        let entry = map.get(name)?;
        entry.last_used.store(self.stamp(), Ordering::SeqCst);
        Some(entry.snap.clone())
    }

    /// Removes a snapshot; returns whether it existed. Live sessions keep
    /// their `Arc`.
    pub fn remove(&self, name: &str) -> bool {
        self.map
            .write()
            .expect("snapshot store poisoned")
            .remove(name)
            .is_some()
    }

    /// Info for every stored snapshot, name-sorted, each including its
    /// `mem_bytes` — `GET /snapshots` is the memory dashboard.
    pub fn list_json(&self) -> Json {
        let map = self.map.read().expect("snapshot store poisoned");
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        Json::Arr(names.iter().map(|n| map[*n].snap.info_json()).collect())
    }

    /// Evicts LRU-first until within budget. Skips pinned snapshots
    /// (`Arc` held outside the store — live sessions never lose their
    /// graph) and the single most-recently-used entry.
    fn enforce_budget(&self, map: &mut HashMap<String, StoreEntry>) {
        let budget = self.budget.load(Ordering::SeqCst);
        if budget == 0 {
            return;
        }
        loop {
            let total: usize = map.values().map(|e| e.snap.mem_bytes()).sum();
            if total <= budget {
                return;
            }
            let newest = map
                .values()
                .map(|e| e.last_used.load(Ordering::SeqCst))
                .max()
                .unwrap_or(0);
            let victim = map
                .iter()
                .filter(|(_, e)| {
                    // Unpinned: the store's Arc is the only one.
                    Arc::strong_count(&e.snap) == 1 && e.last_used.load(Ordering::SeqCst) != newest
                })
                .min_by_key(|(_, e)| e.last_used.load(Ordering::SeqCst))
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    map.remove(&name);
                    self.evictions.fetch_add(1, Ordering::SeqCst);
                }
                None => return, // everything left is pinned or newest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_req(name: &str) -> SnapshotReq {
        SnapshotReq {
            name: name.into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 5,
            rr_theta: 5_000,
            seed: 1,
            threads: 1,
        }
    }

    #[test]
    fn build_produces_frozen_index_and_targets() {
        let snap = Snapshot::build(&tiny_req("g")).unwrap();
        assert_eq!(snap.instance.k(), 5);
        assert_eq!(snap.rr.len(), 5_000);
        // The index answers estimates immediately.
        let t = snap.instance.target().to_vec();
        let spread = snap.estimate_spread(&t).unwrap();
        assert!(spread >= 1.0, "IMM targets must reach someone: {spread}");
        assert!(spread <= snap.instance.graph().num_nodes() as f64);
    }

    #[test]
    fn build_is_deterministic() {
        let a = Snapshot::build(&tiny_req("a")).unwrap();
        let b = Snapshot::build(&tiny_req("b")).unwrap();
        assert_eq!(a.instance.target(), b.instance.target());
        assert_eq!(a.rr.len(), b.rr.len());
    }

    #[test]
    fn build_rejects_bad_requests() {
        let mut bad = tiny_req("x");
        bad.k = 0;
        assert!(Snapshot::build(&bad).is_err());
        let mut bad = tiny_req("x");
        bad.source = SnapshotSource::Preset {
            dataset: "nope".into(),
            scale: 0.02,
        };
        assert!(Snapshot::build(&bad).is_err());
        let mut bad = tiny_req("x");
        bad.source = SnapshotSource::File {
            path: "/definitely/not/here.bin".into(),
            default_prob: 0.1,
        };
        assert!(Snapshot::build(&bad).is_err());
    }

    #[test]
    fn store_insert_get_replace_remove() {
        let store = SnapshotStore::new();
        assert!(store.get("g").is_none());
        let first = store.insert(Snapshot::build(&tiny_req("g")).unwrap());
        let got = store.get("g").unwrap();
        assert!(Arc::ptr_eq(&first, &got));
        // Replacement: old Arc stays valid for live sessions.
        let second = store.insert(Snapshot::build(&tiny_req("g")).unwrap());
        assert!(!Arc::ptr_eq(&first, &store.get("g").unwrap()));
        assert!(Arc::ptr_eq(&second, &store.get("g").unwrap()));
        assert_eq!(first.instance.k(), 5);
        assert!(store.remove("g"));
        assert!(!store.remove("g"));
        assert_eq!(store.list_json(), Json::Arr(vec![]));
    }

    /// Summed `mem_bytes` over `GET /snapshots`.
    fn listed_mem_bytes(store: &SnapshotStore) -> u64 {
        let list = store.list_json();
        let infos = list.as_arr().unwrap();
        infos
            .iter()
            .map(|i| i.get("mem_bytes").unwrap().as_u64().unwrap())
            .sum()
    }

    #[test]
    fn mem_bytes_scales_with_edges_and_rr_index() {
        let snap = Snapshot::build(&tiny_req("g")).unwrap();
        let mem = snap.mem_bytes();
        assert!(
            mem >= 12 * snap.instance.graph().num_edges() + snap.rr.mem_bytes(),
            "accounting must cover graph + index: {mem}"
        );
        assert_eq!(
            snap.info_json().get("mem_bytes").unwrap().as_u64(),
            Some(mem as u64)
        );
    }

    #[test]
    fn lru_budget_evicts_coldest_unpinned_snapshot() {
        let store = SnapshotStore::new();
        let a = store.insert(Snapshot::build(&tiny_req("a")).unwrap());
        let one = a.mem_bytes();
        drop(a); // unpin
        store.insert(Snapshot::build(&tiny_req("b")).unwrap());
        store.insert(Snapshot::build(&tiny_req("c")).unwrap());
        assert_eq!(listed_mem_bytes(&store), 3 * one as u64);

        // Touch "a" so "b" becomes the coldest, then squeeze to two.
        store.get("a").unwrap();
        store.set_budget(2 * one);
        assert!(store.get("b").is_none(), "LRU victim must be b");
        assert!(store.get("a").is_some() && store.get("c").is_some());
        assert_eq!(store.evictions(), 1);

        // Inserting over budget evicts again — now "a" or "c", whichever
        // is colder (c was touched last above).
        store.insert(Snapshot::build(&tiny_req("d")).unwrap());
        assert_eq!(listed_mem_bytes(&store), 2 * one as u64);
        assert!(store.get("a").is_none(), "a was coldest at insert time");
        assert_eq!(store.evictions(), 2);
    }

    #[test]
    fn pinned_snapshots_survive_any_budget() {
        let store = SnapshotStore::new();
        let pinned = store.insert(Snapshot::build(&tiny_req("pinned")).unwrap());
        store.insert(Snapshot::build(&tiny_req("loose")).unwrap());
        // Budget of one byte: everything evictable must go, but the pinned
        // Arc (a live session, in spirit) and the newest entry survive.
        store.set_budget(1);
        assert!(
            store.get("pinned").is_some(),
            "a session's snapshot must never be evicted from under it"
        );
        assert!(store.get("loose").is_some(), "newest entry is protected");
        // Unpinning and touching something else lets the budget reclaim it.
        drop(pinned);
        store.insert(Snapshot::build(&tiny_req("newest")).unwrap());
        assert!(store.get("pinned").is_none());
        assert_eq!(store.list_json().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn estimate_rejects_out_of_range_nodes() {
        let snap = Snapshot::build(&tiny_req("g")).unwrap();
        assert!(snap.estimate_spread(&[u32::MAX]).is_err());
    }
}
