//! Content-addressed compilation plan cache.
//!
//! The fusion search is the dominant cost of compilation (paper
//! Tab. 8), yet its result is a **pure function** of `(graph, machine,
//! search config)` — and PR 1 made it deterministic to the bit across
//! thread counts. That makes compilation memoizable with no correctness
//! trade-off at all, which is exactly what a serving deployment needs:
//! repeated and near-duplicate graphs are the common case.
//!
//! Three layers, composable but separately testable:
//!
//! * [`PlanKey`] — the cache key: canonical graph fingerprint
//!   ([`flashfuser_graph::fingerprint`]) × machine fingerprint × search
//!   config fingerprint. Any change to any of the three is a different
//!   key, which is the entire invalidation story.
//! * [`PlanCache`] — an in-memory [`lru::Lru`] in front of an optional
//!   on-disk [`store::DiskStore`] (hand-rolled JSON, see
//!   `flashfuser_core::codec`). Disk hits are promoted into memory.
//! * [`coalesce::InFlight`] — single-flight execution so concurrent
//!   misses on one key run the search exactly once.
//!
//! Cached plans are **bit-identical** to freshly searched plans — the
//! property `tests/plan_cache.rs` in the facade asserts.
//!
//! Whole-graph compilation reuses [`PlanKey`] unchanged: every fused
//! segment of a partitioned `OpGraph` is keyed by its *recovered*
//! chain's canonical fingerprint. One graph compile looks each
//! distinct chain up once, however many segments share it, so a model
//! whose layers repeat one FFN and one attention shape costs two
//! lookups (two searches cold), and different models sharing a shape
//! share entries — across processes when the disk tier is configured.

pub mod coalesce;
pub mod lru;
pub mod store;

pub use coalesce::InFlight;
pub use lru::Lru;
pub use store::DiskStore;

use flashfuser_core::codec::PlanRecord;
use flashfuser_core::{MachineDescriptor, SearchConfig};
use flashfuser_graph::ChainSpec;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The content-addressed identity of one compilation.
///
/// Two compilations share a key iff they would provably produce the
/// same plan: same canonical graph (insertion order and names ignored),
/// same machine description, same result-relevant search knobs
/// (`SearchConfig::fingerprint` excludes `threads` — results are
/// thread-invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical graph fingerprint ([`ChainSpec::fingerprint`]).
    pub graph: u64,
    /// Machine fingerprint ([`MachineDescriptor::fingerprint`]).
    pub machine: u64,
    /// Search-config fingerprint ([`SearchConfig::fingerprint`]).
    pub config: u64,
}

impl PlanKey {
    /// Assembles a key from pre-computed fingerprints.
    pub fn new(graph: u64, machine: u64, config: u64) -> Self {
        Self {
            graph,
            machine,
            config,
        }
    }

    /// Derives the key for one compilation request.
    pub fn derive(chain: &ChainSpec, params: &MachineDescriptor, config: &SearchConfig) -> Self {
        Self {
            graph: chain.fingerprint(),
            machine: params.fingerprint(),
            config: config.fingerprint(),
        }
    }

    /// The 48-hex-digit file stem used by the on-disk store.
    pub fn file_stem(&self) -> String {
        format!(
            "{:016x}{:016x}{:016x}",
            self.graph, self.machine, self.config
        )
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.file_stem())
    }
}

/// A point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits served from the in-memory LRU.
    pub mem_hits: u64,
    /// Hits served from disk (and promoted into memory).
    pub disk_hits: u64,
    /// Misses (the caller had to search).
    pub misses: u64,
    /// Records inserted.
    pub inserts: u64,
    /// In-memory evictions.
    pub evictions: u64,
}

impl CacheStats {
    /// All hits, regardless of tier.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits() as f64 / total as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mem + {} disk hits, {} misses ({:.0}% hit rate), {} inserts, {} evictions",
            self.mem_hits,
            self.disk_hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.inserts,
            self.evictions
        )
    }
}

/// The two-tier plan cache: in-memory LRU over an optional disk store.
///
/// Thread-safe: lookups and inserts take an internal lock only long
/// enough to touch the LRU; disk I/O happens outside it. Values are
/// `Arc`ed so hits are cheap to share across threads.
#[derive(Debug)]
pub struct PlanCache {
    lru: Mutex<Lru<PlanKey, Arc<PlanRecord>>>,
    disk: Option<DiskStore>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

/// Default in-memory capacity (entries). Plans are a few hundred bytes
/// each; this is deliberately small so eviction is exercised in real
/// deployments, with the disk tier as the backstop.
pub const DEFAULT_CAPACITY: usize = 256;

impl PlanCache {
    /// A memory-only cache with the given LRU capacity.
    pub fn in_memory(capacity: usize) -> PlanCache {
        PlanCache {
            lru: Mutex::new(Lru::new(capacity)),
            disk: None,
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// A cache backed by the on-disk store at `dir` (created if
    /// missing).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn with_disk(capacity: usize, dir: impl AsRef<Path>) -> io::Result<PlanCache> {
        let mut cache = Self::in_memory(capacity);
        cache.disk = Some(DiskStore::open(dir)?);
        Ok(cache)
    }

    /// Looks `key` up: memory first, then disk (a disk hit is promoted
    /// into memory). `None` is a miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<PlanRecord>> {
        self.lookup(key, true)
    }

    /// Like [`PlanCache::get`] but invisible to [`PlanCache::stats`] —
    /// for double-checked lookups (e.g. a single-flight leader
    /// re-checking after winning the flight) that would otherwise count
    /// the same logical request twice.
    pub fn get_untracked(&self, key: &PlanKey) -> Option<Arc<PlanRecord>> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &PlanKey, track: bool) -> Option<Arc<PlanRecord>> {
        if let Some(hit) = self.lru.lock().expect("plan LRU poisoned").get(key) {
            if track {
                self.mem_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some(Arc::clone(hit));
        }
        if let Some(disk) = &self.disk {
            if let Some(record) = disk.load(key) {
                if track {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
                let record = Arc::new(record);
                self.lru
                    .lock()
                    .expect("plan LRU poisoned")
                    .insert(*key, Arc::clone(&record));
                return Some(record);
            }
        }
        if track {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Inserts a record under `key` (memory + disk when configured).
    /// Disk write failures are swallowed: the cache is an accelerator,
    /// never a correctness dependency.
    pub fn put(&self, key: PlanKey, record: Arc<PlanRecord>) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.lru
            .lock()
            .expect("plan LRU poisoned")
            .insert(key, Arc::clone(&record));
        if let Some(disk) = &self.disk {
            let _ = disk.save(&key, &record);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.lru.lock().expect("plan LRU poisoned").evictions(),
        }
    }

    /// Live in-memory entries.
    pub fn len(&self) -> usize {
        self.lru.lock().expect("plan LRU poisoned").len()
    }

    /// `true` when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports the memory tier (at most the LRU capacity, the most
    /// recently used entries) to a [`DiskStore`]-format directory
    /// (created if missing) and returns how many records were written.
    /// A fresh replica opens it with [`PlanCache::with_disk`]. A
    /// disk-backed cache's own directory already holds every record, so
    /// ship that instead; this is how a memory-only cache writes its
    /// warm set.
    ///
    /// The LRU lock is held only long enough to clone the `Arc`s;
    /// serialization and I/O happen outside it.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error (snapshot export is explicit and
    /// user-initiated, so unlike the passive disk tier it does *not*
    /// swallow failures).
    pub fn export_to(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        let store = DiskStore::open(dir)?;
        let entries: Vec<(PlanKey, Arc<PlanRecord>)> = {
            let lru = self.lru.lock().expect("plan LRU poisoned");
            lru.iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
        };
        for (key, record) in &entries {
            store.save(key, record)?;
        }
        Ok(entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_core::SearchEngine;
    use flashfuser_tensor::Activation;

    fn record(tag: &str) -> Arc<PlanRecord> {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named(tag);
        let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
        let result = engine.search(&chain, &SearchConfig::default()).unwrap();
        Arc::new(PlanRecord {
            plan: result.best().analysis.plan().clone(),
            seconds: 1e-6,
            global_bytes: 1,
            dsm_bytes: 2,
            feasible: result.stats().eligible,
        })
    }

    #[test]
    fn key_separates_all_three_axes() {
        let params = MachineDescriptor::h100_sxm();
        let config = SearchConfig::default();
        let g3 = ChainSpec::standard_ffn(128, 512, 416, 256, Activation::Relu);
        let other = ChainSpec::standard_ffn(128, 512, 416, 128, Activation::Relu);
        let base = PlanKey::derive(&g3, &params, &config);
        assert_ne!(base, PlanKey::derive(&other, &params, &config));
        assert_ne!(
            base,
            PlanKey::derive(&g3, &MachineDescriptor::a100_sxm(), &config)
        );
        let mut cfg2 = config.clone();
        cfg2.top_k = 5;
        assert_ne!(base, PlanKey::derive(&g3, &params, &cfg2));
        // threads is result-neutral and must NOT change the key.
        let threaded = config.clone().with_threads(7);
        assert_eq!(base, PlanKey::derive(&g3, &params, &threaded));
        assert_eq!(base.file_stem().len(), 48);
    }

    #[test]
    fn memory_tier_hit_and_miss_accounting() {
        let cache = PlanCache::in_memory(4);
        let key = PlanKey::new(1, 2, 3);
        assert!(cache.get(&key).is_none());
        cache.put(key, record("a"));
        assert!(cache.get(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.mem_hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert!(stats.to_string().contains("50% hit rate"));
    }

    #[test]
    fn disk_tier_survives_a_new_cache_and_promotes() {
        let dir = std::env::temp_dir().join(format!("ff-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = PlanKey::new(10, 20, 30);
        let r = record("persist");
        {
            let cache = PlanCache::with_disk(4, &dir).unwrap();
            cache.put(key, Arc::clone(&r));
        }
        // Fresh process-equivalent: empty memory, warm disk.
        let cache = PlanCache::with_disk(4, &dir).unwrap();
        let hit = cache.get(&key).expect("disk hit");
        assert_eq!(*hit, *r);
        assert_eq!(cache.stats().disk_hits, 1);
        // Second lookup is served from memory (promotion).
        cache.get(&key).unwrap();
        assert_eq!(cache.stats().mem_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_export_serves_a_replica_as_its_disk_tier() {
        let dir = std::env::temp_dir().join(format!("ff-cache-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = PlanCache::in_memory(8);
        let r = record("snap");
        for i in 0..3 {
            warm.put(PlanKey::new(i, 7, 7), Arc::clone(&r));
        }
        assert_eq!(warm.export_to(&dir).unwrap(), 3);
        // A corrupt record and a foreign file sit beside the snapshot.
        std::fs::write(
            dir.join(format!("{}.json", PlanKey::new(9, 9, 9).file_stem())),
            "]]",
        )
        .unwrap();
        std::fs::write(dir.join("README.txt"), "not a record").unwrap();
        // A replica whose LRU holds fewer plans than the snapshot opens
        // it as its disk tier and still serves every record.
        let replica = PlanCache::with_disk(2, &dir).unwrap();
        for i in 0..3 {
            let hit = replica.get(&PlanKey::new(i, 7, 7)).expect("snapshot hit");
            assert_eq!(*hit, *r);
        }
        // The corrupt record is a miss, not an error.
        assert!(replica.get(&PlanKey::new(9, 9, 9)).is_none());
        let stats = replica.stats();
        assert_eq!((stats.mem_hits, stats.disk_hits, stats.misses), (0, 3, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_is_counted_but_disk_backstops() {
        let dir = std::env::temp_dir().join(format!("ff-cache-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PlanCache::with_disk(2, &dir).unwrap();
        let r = record("evict");
        for i in 0..3 {
            cache.put(PlanKey::new(i, 0, 0), Arc::clone(&r));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted key (0) still hits via disk.
        assert!(cache.get(&PlanKey::new(0, 0, 0)).is_some());
        assert_eq!(cache.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
