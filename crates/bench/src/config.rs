//! Experiment configuration and CLI parsing (no external argument-parsing
//! dependency; the grammar is tiny).

use atpm_graph::gen::Dataset;
use atpm_graph::Graph;

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Multiplier on each dataset's default scale (1.0 = laptop defaults;
    /// combined with `paper`, scales become Table II sizes).
    pub scale_mult: f64,
    /// Paper-fidelity mode: full k-grid, 20 worlds, full dataset scales.
    pub paper: bool,
    /// Number of sampled realizations per configuration.
    pub worlds: usize,
    /// Seed-set sizes to sweep.
    pub k_grid: Vec<usize>,
    /// Sampler worker threads (`--threads`). Defaults to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Include ADDATP where the grid allows (it is orders of magnitude
    /// slower; the paper itself only completes it on NetHEPT).
    pub with_addatp: bool,
    /// Per-round RR cap applied to ADDATP (keeps its n² tail affordable).
    pub addatp_max_theta: usize,
    /// External graph file (`--graph`): when set, experiments run on this
    /// graph (text edge list or `ATPMGRF1` binary, auto-sniffed) instead of
    /// the generated preset stand-ins.
    pub graph_path: Option<String>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale_mult: 1.0,
            paper: false,
            worlds: 5,
            k_grid: vec![10, 25, 50, 100],
            threads: atpm_ris::workspace::available_threads(),
            seed: 20200420, // ICDE'20 opening day
            with_addatp: true,
            addatp_max_theta: 1 << 20,
            graph_path: None,
        }
    }
}

impl ExpConfig {
    /// The paper's full grid (§VI-A): k ∈ {10, 25, 50, 100, 200, 500},
    /// 20 realizations, Table II dataset sizes.
    pub fn paper_mode() -> Self {
        ExpConfig {
            paper: true,
            worlds: 20,
            k_grid: vec![10, 25, 50, 100, 200, 500],
            ..Default::default()
        }
    }

    /// Parses CLI flags after the subcommand. Returns an error string on
    /// unknown or malformed flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = ExpConfig::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value_of = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match arg.as_str() {
                "--paper" => {
                    let keep_seed = cfg.seed;
                    cfg = ExpConfig::paper_mode();
                    cfg.seed = keep_seed;
                }
                "--scale" => {
                    cfg.scale_mult = value_of("--scale")?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--worlds" => {
                    cfg.worlds = value_of("--worlds")?
                        .parse()
                        .map_err(|e| format!("bad --worlds: {e}"))?;
                }
                "--threads" => {
                    cfg.threads = value_of("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?;
                }
                "--seed" => {
                    cfg.seed = value_of("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--k" => {
                    cfg.k_grid = value_of("--k")?
                        .split(',')
                        .map(|t| t.parse().map_err(|e| format!("bad --k: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--no-addatp" => cfg.with_addatp = false,
                "--graph" => cfg.graph_path = Some(value_of("--graph")?),
                "--quick" => {
                    cfg.worlds = 3;
                    cfg.k_grid = vec![10, 25, 50];
                    cfg.scale_mult = 0.5;
                    cfg.addatp_max_theta = 1 << 17;
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if cfg.worlds == 0 || cfg.k_grid.is_empty() {
            return Err("need at least one world and one k".into());
        }
        if cfg.threads == 0 {
            return Err("need at least one worker thread".into());
        }
        Ok(cfg)
    }

    /// Effective generation scale of a dataset under this config.
    pub fn scale_of(&self, d: Dataset) -> f64 {
        let base = if self.paper { 1.0 } else { d.default_scale() };
        (base * self.scale_mult).clamp(1e-6, 1.0)
    }

    /// World seeds for the evaluation protocol.
    pub fn world_seeds(&self) -> Vec<u64> {
        (0..self.worlds as u64)
            .map(|i| self.seed.wrapping_mul(1_000_003).wrapping_add(i))
            .collect()
    }

    /// Whether ADDATP should run for this dataset/k (paper: NetHEPT only;
    /// we additionally bound k to keep the default run short).
    pub fn addatp_enabled(&self, d: Dataset, k: usize) -> bool {
        self.with_addatp && d == Dataset::NetHept && (self.paper || k <= 25)
    }

    /// Loads the `--graph` override, if one was given. The file format is
    /// sniffed: `ATPMGRF1` magic means binary, anything else is parsed as a
    /// text edge list (two-column lines get probability 0.1, the trivalency
    /// midpoint).
    ///
    /// Loads are cached process-wide by path: an `experiments all` run asks
    /// for the graph once per figure driver, and re-parsing a multi-GB file
    /// nine times would dominate the run. Cache hits hand out clones (CSR
    /// clone is a flat memcpy, orders of magnitude cheaper than parsing).
    pub fn load_graph_override(&self) -> Result<Option<Graph>, String> {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<HashMap<String, Graph>>> = OnceLock::new();
        match &self.graph_path {
            None => Ok(None),
            Some(path) => {
                let mut cache = CACHE
                    .get_or_init(Default::default)
                    .lock()
                    .expect("graph cache poisoned");
                if let Some(g) = cache.get(path) {
                    return Ok(Some(g.clone()));
                }
                let g = atpm_graph::io::load_auto(path, 0.1)
                    .map_err(|e| format!("--graph {path}: {e}"))?;
                cache.insert(path.clone(), g.clone());
                Ok(Some(g))
            }
        }
    }

    /// Datasets a grid run should cover: all four stand-ins normally, a
    /// single slot when an external `--graph` replaces generation (the
    /// external graph is the same file regardless of the dataset label, so
    /// running it four times would report duplicates).
    pub fn datasets(&self) -> &'static [Dataset] {
        if self.graph_path.is_some() {
            &[Dataset::NetHept]
        } else {
            &Dataset::ALL
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn default_roundtrip() {
        let cfg = ExpConfig::parse(&[]).unwrap();
        assert_eq!(cfg.worlds, 5);
        assert!(!cfg.paper);
    }

    #[test]
    fn paper_mode_lifts_grid() {
        let cfg = ExpConfig::parse(&s(&["--paper"])).unwrap();
        assert_eq!(cfg.worlds, 20);
        assert_eq!(cfg.k_grid, vec![10, 25, 50, 100, 200, 500]);
        assert_eq!(cfg.scale_of(Dataset::LiveJournal), 1.0);
    }

    #[test]
    fn k_list_parses() {
        let cfg = ExpConfig::parse(&s(&["--k", "5,10,20"])).unwrap();
        assert_eq!(cfg.k_grid, vec![5, 10, 20]);
    }

    #[test]
    fn scale_multiplies_defaults() {
        let cfg = ExpConfig::parse(&s(&["--scale", "0.5"])).unwrap();
        let expected = Dataset::Epinions.default_scale() * 0.5;
        assert!((cfg.scale_of(Dataset::Epinions) - expected).abs() < 1e-12);
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(ExpConfig::parse(&s(&["--nope"])).is_err());
        assert!(ExpConfig::parse(&s(&["--worlds"])).is_err());
        assert!(ExpConfig::parse(&s(&["--worlds", "x"])).is_err());
        assert!(ExpConfig::parse(&s(&["--worlds", "0"])).is_err());
        assert!(ExpConfig::parse(&s(&["--threads", "0"])).is_err());
        // The thread count has one flag: --threads.
        assert!(ExpConfig::parse(&s(&["--max-threads", "2"])).is_err());
    }

    #[test]
    fn threads_default_uses_machine_parallelism() {
        let cfg = ExpConfig::default();
        assert!(cfg.threads >= 1);
        // No silent throttle: the default tracks available parallelism.
        assert_eq!(cfg.threads, atpm_ris::workspace::available_threads());
    }

    #[test]
    fn graph_override_parses_loads_and_gates_datasets() {
        let cfg = ExpConfig::parse(&[]).unwrap();
        assert!(cfg.graph_path.is_none());
        assert!(cfg.load_graph_override().unwrap().is_none());
        assert_eq!(cfg.datasets().len(), 4);

        // Write a tiny edge list and load it through the override.
        let path = std::env::temp_dir().join("atpm_expconfig_graph.txt");
        std::fs::write(&path, "0 1 0.5\n1 2\n").unwrap();
        let cfg = ExpConfig::parse(&s(&["--graph", path.to_str().unwrap()])).unwrap();
        assert_eq!(cfg.datasets().len(), 1);
        let g = cfg.load_graph_override().unwrap().unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        let _ = std::fs::remove_file(&path);

        // Missing file: an error message, not a panic.
        let cfg = ExpConfig::parse(&s(&["--graph", "/no/such/file"])).unwrap();
        assert!(cfg.load_graph_override().is_err());
        // Missing value: parse error.
        assert!(ExpConfig::parse(&s(&["--graph"])).is_err());
    }

    #[test]
    fn world_seeds_are_distinct_and_stable() {
        let cfg = ExpConfig::default();
        let a = cfg.world_seeds();
        let b = cfg.world_seeds();
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
    }

    #[test]
    fn addatp_policy_gate() {
        let cfg = ExpConfig::default();
        assert!(cfg.addatp_enabled(Dataset::NetHept, 10));
        assert!(!cfg.addatp_enabled(Dataset::NetHept, 100));
        assert!(!cfg.addatp_enabled(Dataset::Epinions, 10));
        let paper = ExpConfig::paper_mode();
        assert!(paper.addatp_enabled(Dataset::NetHept, 500));
    }
}
