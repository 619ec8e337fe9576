//! Shared scaffolding for the parallel RIS engine: worker seeding, sharded
//! fan-out/fan-in, and the epoch-marked scratch marks every hot query path
//! reuses.
//!
//! Before this module existed, `sampler` and `stream` each carried a private
//! `worker_seed` and a private copy of the scoped-thread spawn/merge loop;
//! the two had silently diverged. Every parallel entry point now derives
//! worker streams from [`worker_seed`] and fans out through [`run_sharded`],
//! so determinism semantics ("pure function of `(input, seed, threads)`")
//! are defined in exactly one place.

/// Derives the RNG seed of worker `tid` from a batch seed.
///
/// Workers must not share streams; the mix is a wyhash-style multiply-add
/// whose constants are pinned by `tests::worker_seed_values_are_pinned` —
/// changing them silently redraws every sampled world, so any change must be
/// deliberate.
#[inline]
pub fn worker_seed(seed: u64, tid: u64) -> u64 {
    seed ^ tid
        .wrapping_mul(0xA0761D6478BD642F)
        .wrapping_add(0xE7037ED1A0B428DB)
}

/// Splits `total` work items across `threads` *workers* (deterministic
/// stream shards) and merges the per-worker outputs in worker order.
///
/// `worker(tid, quota, seed)` runs with `quota` items and the stream seed
/// `worker_seed(seed, tid)`. Quotas differ by at most one and sum to
/// `total`; the returned vector is indexed by `tid`, so the merge order —
/// and therefore the final result — is independent of thread scheduling.
///
/// The worker count fixes the *streams* (and hence the sampled worlds);
/// the OS threads that execute them are capped separately at
/// `available_parallelism()`. Oversubscribing a small machine — the
/// 1-vCPU build container running a `threads = 4` benchmark — used to pay
/// spawn and context-switch overhead for nothing; now the four shards run
/// on however many cores exist, producing bit-identical output either way
/// (shard `tid`'s content depends only on its seed and quota).
pub fn run_sharded<T, W>(total: usize, threads: usize, seed: u64, worker: W) -> Vec<T>
where
    T: Send,
    W: Fn(usize, usize, u64) -> T + Sync,
{
    let threads = threads.max(1).min(total.max(1));
    let per = total / threads;
    let extra = total % threads;
    let quota_of = |tid: usize| per + usize::from(tid < extra);
    let os_threads = threads.min(available_threads());
    if os_threads == 1 {
        return (0..threads)
            .map(|tid| worker(tid, quota_of(tid), worker_seed(seed, tid as u64)))
            .collect();
    }
    // Work-steal shard indices; slots keep the output in worker order.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..threads).map(|_| std::sync::Mutex::new(None)).collect();
    let run = |slots: &[std::sync::Mutex<Option<T>>]| loop {
        let tid = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if tid >= threads {
            return;
        }
        let out = worker(tid, quota_of(tid), worker_seed(seed, tid as u64));
        *slots[tid].lock().expect("RIS worker panicked") = Some(out);
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..os_threads)
            .map(|_| scope.spawn(|| run(&slots)))
            .collect();
        run(&slots);
        for h in handles {
            h.join().expect("RIS worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("RIS worker panicked")
                .expect("every shard filled")
        })
        .collect()
}

/// Epoch-stamped marks over a dense id universe: O(1) set/test, O(1)
/// *bulk clear* (bump the epoch), zero allocation after the first use at a
/// given universe size.
///
/// This is the allocation discipline the whole engine runs on: instead of
/// `vec![false; n]` per query, every reusable visit/coverage buffer keeps a
/// `u16` stamp per id and compares it against the current epoch. The epoch
/// wraps after `u16::MAX` generations, at which point the stamps are zeroed
/// once — a 2-byte-per-id memset every 65k generations, amortized free,
/// and the narrow stamp halves the random-access working set of the
/// sampling and coverage hot loops.
#[derive(Debug, Default)]
pub struct EpochMarks {
    stamp: Vec<u16>,
    epoch: u16,
}

impl EpochMarks {
    /// Empty marks; the stamp array grows on first [`begin`](Self::begin).
    pub const fn new() -> Self {
        EpochMarks {
            stamp: Vec::new(),
            epoch: 0,
        }
    }

    /// Starts a new generation over ids `0..n`: all marks read as unset.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
    }

    /// Marks `i`; returns `true` when `i` was unmarked in this generation.
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let slot = &mut self.stamp[i];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `i` is marked in the current generation. Ids beyond the
    /// universe of the last [`begin`](Self::begin) read as unmarked.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamp.get(i).is_some_and(|&s| s == self.epoch)
    }

    /// Universe size the marks currently cover.
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }

    /// Prefetches the stamp slot of `i` (no-op if the marks have not grown
    /// that far yet). The samplers use this to overlap the next root's
    /// first stamp write with the current sample.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if let Some(slot) = self.stamp.get(i) {
            atpm_graph::view::prefetch_read(slot);
        }
    }
}

/// The machine's available parallelism, at least 1: the default worker
/// count for samplers, and the cap on the OS threads that run them.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values: the shared helper must keep producing the exact streams
    /// the sampler used before the dedup, or every stored experiment
    /// trajectory silently changes meaning.
    #[test]
    fn worker_seed_values_are_pinned() {
        assert_eq!(worker_seed(0, 0), 0xE7037ED1A0B428DB);
        assert_eq!(worker_seed(7, 0), 0xE7037ED1A0B428DB ^ 7);
        assert_eq!(
            worker_seed(0, 1),
            0xA0761D6478BD642Fu64.wrapping_add(0xE7037ED1A0B428DB)
        );
        assert_eq!(
            worker_seed(42, 3),
            42 ^ 3u64
                .wrapping_mul(0xA0761D6478BD642F)
                .wrapping_add(0xE7037ED1A0B428DB)
        );
        // Distinct workers get distinct streams.
        let seeds: std::collections::HashSet<u64> = (0..64).map(|t| worker_seed(9, t)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn run_sharded_splits_quotas_exactly() {
        let quotas = run_sharded(10, 4, 1, |tid, quota, _| (tid, quota));
        assert_eq!(quotas, vec![(0, 3), (1, 3), (2, 2), (3, 2)]);
        let total: usize = quotas.iter().map(|&(_, q)| q).sum();
        assert_eq!(total, 10);
        // Never more workers than items.
        assert_eq!(run_sharded(2, 8, 1, |tid, q, _| (tid, q)).len(), 2);
        // Single worker runs inline with tid 0.
        assert_eq!(
            run_sharded(5, 1, 3, |tid, q, s| (tid, q, s)),
            vec![(0, 5, worker_seed(3, 0))]
        );
    }

    #[test]
    fn run_sharded_merges_in_worker_order() {
        let parts = run_sharded(100, 7, 5, |tid, _, seed| (tid, seed));
        for (i, &(tid, seed)) in parts.iter().enumerate() {
            assert_eq!(tid, i);
            assert_eq!(seed, worker_seed(5, i as u64));
        }
    }

    #[test]
    fn epoch_marks_reset_in_o1() {
        let mut m = EpochMarks::new();
        m.begin(10);
        assert!(m.mark(3));
        assert!(!m.mark(3), "second mark reports already-set");
        assert!(m.is_marked(3));
        assert!(!m.is_marked(4));
        m.begin(10);
        assert!(
            !m.is_marked(3),
            "new generation clears marks without touching memory"
        );
        assert!(m.mark(3));
        // Growing the universe keeps old marks addressable.
        m.begin(20);
        assert!(m.mark(19));
        assert!(!m.is_marked(3));
        assert!(!m.is_marked(10_000), "out-of-universe ids read unmarked");
    }

    #[test]
    fn epoch_marks_survive_wraparound() {
        let mut m = EpochMarks {
            stamp: vec![u16::MAX - 1; 4],
            epoch: u16::MAX - 1,
        };
        assert!(m.is_marked(0));
        m.begin(4); // epoch -> MAX
        assert!(!m.is_marked(0));
        assert!(m.mark(0));
        m.begin(4); // wraps: stamps zeroed, epoch 1
        assert!(!m.is_marked(0));
        assert!(m.mark(0) && m.is_marked(0));
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
