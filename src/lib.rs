//! FlashFuser — kernel fusion for compute-intensive operator chains via
//! inter-core connection (DSM), reproduced in Rust on a simulated
//! H100-class GPU.
//!
//! This is the facade crate: it re-exports every subsystem and offers
//! four compilation entry points:
//!
//! * [`compile`] — one chain, one full search (enumerate → prune →
//!   analyze → rank → profile) on a throwaway [`Compiler`];
//! * [`Compiler`] — a reusable front door: a target machine plus a
//!   search config over a shared content-addressed plan cache
//!   (in-memory LRU + optional on-disk store) and in-flight coalescer,
//!   for serving workloads where repeated graphs dominate;
//!   [`Compiler::for_machine`] re-targets it per request without
//!   splitting that state;
//! * [`compile_batch`] — batch compilation that dedupes identical
//!   graphs within the batch and shards distinct ones across worker
//!   threads;
//! * [`Compiler::compile_graph`] — whole-graph compilation: an
//!   arbitrary operator DAG is partitioned into fusible chains and
//!   unfused remainders, every chain goes through the cached per-chain
//!   path, and the stitched [`GraphPlan`] comes back with end-to-end
//!   timing.
//!
//! Compiled graph plans are *numerically falsifiable*:
//! [`validate_graph`] executes a plan (fused segments tile-by-tile,
//! unfused remainders op-by-op) against a per-op reference interpreter
//! on identical seeded inputs and reconciles per-segment traffic with
//! the dataflow analyzer — the differential oracle behind the `fuzz`
//! CLI subcommand.
//!
//! # Quickstart
//!
//! ```
//! use flashfuser::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
//! let compiled = flashfuser::compile(&chain, &MachineDescriptor::h100_sxm())?;
//! assert!(compiled.measured_seconds > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Cached compilation
//!
//! ```
//! use flashfuser::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiler = Compiler::new(MachineDescriptor::h100_sxm());
//! let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
//! let cold = compiler.compile(&chain)?;
//! let warm = compiler.compile(&chain)?; // cache hit: no search runs
//! assert_eq!(cold.plan, warm.plan); // bit-identical
//! assert_eq!(compiler.searches_run(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Whole-graph compilation
//!
//! ```
//! use flashfuser::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiler = Compiler::new(MachineDescriptor::h100_sxm());
//!
//! // Two FFN layers of the same shape, as an operator DAG.
//! let layer = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Gelu);
//! let mut g = OpGraph::new();
//! let x = g.add_input("tokens", 128, 256);
//! let l1 = g.append_chain(&layer, x, "l1");
//! let l2 = g.append_chain(&layer, l1, "l2");
//! g.add_node(OpKind::Output, vec![l2], "out");
//!
//! let plan = compiler.compile_graph(&g)?;
//! assert_eq!(plan.fused_segments().count(), 2); // both layers fused
//! assert_eq!(compiler.searches_run(), 1); // layer 2 hit the plan cache
//! assert!(plan.seconds > 0.0 && plan.seconds < plan.unfused_seconds);
//! # Ok(())
//! # }
//! ```
//!
//! The repository layout and modelling decisions live in `DESIGN.md`;
//! the measured-vs-paper numbers of every table and figure in
//! `REPRO.json`, which `crates/bench`'s `repro` binary regenerates.

pub use flashfuser_cache as cache;
pub use flashfuser_core as core;
pub use flashfuser_graph as graph;
pub use flashfuser_serve as serve;
pub use flashfuser_sim as sim;
pub use flashfuser_tensor as tensor;
pub use flashfuser_workloads as workloads;

use flashfuser_cache::{CacheStats, InFlight, PlanCache, PlanKey, DEFAULT_CAPACITY};
use flashfuser_core::codec::PlanRecord;
use flashfuser_core::segment::{partition_graph, PartitionError, Segment};
use flashfuser_core::{
    FusedPlan, MachineDescriptor, MemLevel, SearchConfig, SearchEngine, SearchError,
};
use flashfuser_graph::op::NodeId;
use flashfuser_graph::{ChainSpec, OpGraph};
use flashfuser_sim::{SimProfiler, UnfusedKernelPricer};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

pub mod service;
pub mod validate;

pub use validate::{
    validate_graph, validate_graph_with, GraphValidation, SegmentCheck, ValidateError,
    DEFAULT_TOLERANCE,
};

/// The most common imports, bundled.
pub mod prelude {
    pub use crate::{
        validate_graph, validate_graph_with, Compiled, CompiledSegment, Compiler, CompilerOptions,
        FusedSegment, GraphPlan, GraphValidation, UnfusedSegment,
    };
    pub use flashfuser_cache::{CacheStats, PlanCache, PlanKey};
    pub use flashfuser_core::comm::ClusterShape;
    pub use flashfuser_core::{
        BlockTile, DataflowAnalyzer, LoopSchedule, MachineDescriptor, SearchConfig, SearchEngine,
    };
    pub use flashfuser_graph::{
        match_chains, rand_graph, ChainDims, ChainSpec, Dim, OpGraph, OpKind, RandGraphConfig,
    };
    pub use flashfuser_sim::{execute_fused, unfused_time, SimProfiler, TrafficCounters};
    pub use flashfuser_tensor::{Activation, KernelKind, Matrix, NumericConfig};
}

/// The result of [`compile`]: the selected plan and its measured cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The winning fused execution plan.
    pub plan: FusedPlan,
    /// Simulated kernel time in seconds.
    pub measured_seconds: f64,
    /// Global-memory bytes the plan moves.
    pub global_bytes: u64,
    /// Candidates that passed Rules 1–4 and the tile/cluster geometry —
    /// the population the bound and Rule 5 then work on; identical for
    /// every thread count.
    pub feasible_candidates: u64,
}

/// The default search configuration for a machine: top-K = 11, DSM
/// spill, search on every core; SMEM-only spill on devices without a
/// DSM pool (cluster limit 1).
pub fn default_config_for(params: &MachineDescriptor) -> SearchConfig {
    let mut config = SearchConfig::default();
    config.prune.max_cluster = params.max_cluster();
    if params.max_cluster() <= 1 {
        // Pre-Hopper: no DSM pool to spill into.
        config.prune.lowest_spill = MemLevel::Smem;
    }
    config
}

/// Runs the full FlashFuser pipeline on one chain with default settings
/// (see [`default_config_for`]). Every call searches from scratch; use
/// a [`Compiler`] to amortise across repeated graphs.
///
/// # Errors
///
/// Returns [`SearchError::NoFeasiblePlan`] when no fusion plan exists
/// under the machine's capacity constraints.
pub fn compile(chain: &ChainSpec, params: &MachineDescriptor) -> Result<Compiled, SearchError> {
    Compiler::new(params.clone()).compile(chain)
}

/// Compiles a batch of chains with a fresh in-memory [`Compiler`]:
/// identical graphs are deduplicated within the batch (searched once),
/// distinct graphs are sharded across worker threads. Results come back
/// in input order.
pub fn compile_batch(
    chains: &[ChainSpec],
    params: &MachineDescriptor,
) -> Vec<Result<Compiled, SearchError>> {
    Compiler::new(params.clone()).compile_batch(chains)
}

/// Configuration of a [`Compiler`].
#[derive(Debug, Clone, Default)]
pub struct CompilerOptions {
    /// Search configuration; `None` derives [`default_config_for`] the
    /// target machine. Part of the cache key (minus `threads`).
    pub config: Option<SearchConfig>,
    /// Directory for the persistent plan store; `None` keeps the cache
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for [`Compiler::compile_batch`]; `0` uses every
    /// available core. Each worker's inner search divides the remaining
    /// cores, so a batch never oversubscribes the host.
    pub batch_workers: usize,
}

impl CompilerOptions {
    /// The defaults: derived search config, memory-only, auto batch
    /// workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// This configuration with a persistent cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }
}

/// A reusable compilation front door: a target machine and a search
/// config over a shared plan cache, in-flight coalescer and counters.
///
/// Compilation is a pure function of `(graph, machine, search config)`
/// — every field of a [`Compiled`] and of a persisted record is the
/// same for any thread count, host or scan interleaving — so results
/// are memoized under [`PlanKey`]. A cache hit returns a plan
/// **bit-identical** to what a fresh search would produce, including
/// the measured outcome of the original profiling run.
///
/// `Compiler` is `Sync`: share it behind an `Arc` and call
/// [`Compiler::compile`] from as many threads as you like; concurrent
/// misses on the same key run one search. [`Compiler::for_machine`]
/// returns a view on another target that shares all of that state.
#[derive(Debug)]
pub struct Compiler {
    engine: SearchEngine,
    config: SearchConfig,
    shared: Arc<Shared>,
}

/// What every view of one [`Compiler`] shares. [`PlanKey`] hashes the
/// machine fingerprint and the config, so plans for different targets
/// never collide in the one cache and coalescer.
#[derive(Debug)]
struct Shared {
    /// [`CompilerOptions::config`] when it was explicit — it then
    /// applies to every target instead of [`default_config_for`] each.
    config_override: Option<SearchConfig>,
    cache: PlanCache,
    inflight: InFlight<PlanKey, Result<Arc<PlanRecord>, SearchError>>,
    batch_workers: usize,
    searches: AtomicU64,
    profile_calls: AtomicU64,
    coalesced: AtomicU64,
    /// Keys imported by [`Compiler::preload`] — so cache hits can be
    /// attributed to the snapshot in the serving stats.
    preloaded: std::sync::RwLock<std::collections::HashSet<PlanKey>>,
    preload_hits: AtomicU64,
}

impl Compiler {
    /// A compiler with default options (memory-only cache).
    pub fn new(params: MachineDescriptor) -> Compiler {
        Self::with_options(params, CompilerOptions::new()).expect("memory-only compiler: no I/O")
    }

    /// A compiler with explicit options.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when `options.cache_dir` cannot
    /// be created.
    pub fn with_options(
        params: MachineDescriptor,
        options: CompilerOptions,
    ) -> io::Result<Compiler> {
        let cache = match &options.cache_dir {
            Some(dir) => PlanCache::with_disk(DEFAULT_CAPACITY, dir)?,
            None => PlanCache::in_memory(DEFAULT_CAPACITY),
        };
        let shared = Shared {
            config_override: options.config,
            cache,
            inflight: InFlight::new(),
            batch_workers: options.batch_workers,
            searches: AtomicU64::new(0),
            profile_calls: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            preloaded: std::sync::RwLock::new(std::collections::HashSet::new()),
            preload_hits: AtomicU64::new(0),
        };
        Ok(Self::view(Arc::new(shared), params))
    }

    /// A view of this compiler targeting `machine`: same plan cache,
    /// coalescer and counters, so repeat requests for one descriptor
    /// hit warm entries whether it came inline, from a file or from the
    /// built-in registry. The search config is the explicit
    /// [`CompilerOptions::config`] when one was set, otherwise
    /// [`default_config_for`] the new target — so an A100-class
    /// descriptor gets its SMEM-only spill floor even on an
    /// H100-default compiler.
    pub fn for_machine(&self, machine: &MachineDescriptor) -> Compiler {
        Self::view(Arc::clone(&self.shared), machine.clone())
    }

    fn view(shared: Arc<Shared>, machine: MachineDescriptor) -> Compiler {
        let config = shared
            .config_override
            .clone()
            .unwrap_or_else(|| default_config_for(&machine));
        Compiler {
            engine: SearchEngine::new(machine),
            config,
            shared,
        }
    }

    /// The machine this compiler targets.
    pub fn params(&self) -> &MachineDescriptor {
        self.engine.params()
    }

    /// The search configuration in use (part of the cache key).
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The cache key this compiler derives for `chain`.
    pub fn key_for(&self, chain: &ChainSpec) -> PlanKey {
        PlanKey::derive(chain, self.engine.params(), &self.config)
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Number of actual fusion searches this compiler has executed
    /// (cache hits and coalesced waits do not count).
    pub fn searches_run(&self) -> u64 {
        self.shared.searches.load(Ordering::Relaxed)
    }

    /// Total profiler invocations across all searches (the call
    /// accounting coalescing tests assert on).
    pub fn profile_calls(&self) -> u64 {
        self.shared.profile_calls.load(Ordering::Relaxed)
    }

    /// Requests that joined another caller's in-flight search instead
    /// of running their own (single-flight followers). The serving
    /// stats surface this: under a same-key thundering herd,
    /// `searches_run` stays at 1 while this counts the herd.
    pub fn coalesced_waits(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Imports a warm-cache snapshot directory (as written by
    /// [`Compiler::export_snapshot`]) into the plan cache and returns
    /// how many records arrived. Subsequent cache hits on imported keys
    /// are attributed to the snapshot via [`Compiler::preload_hits`] —
    /// the number a fleet operator watches to confirm a replica really
    /// booted hot instead of quietly re-searching.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when `dir` is missing or
    /// unreadable (individual corrupt records are skipped, not fatal).
    pub fn preload(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        let keys = self.shared.cache.preload_from(dir)?;
        let count = keys.len();
        self.shared
            .preloaded
            .write()
            .expect("preloaded set poisoned")
            .extend(keys);
        Ok(count)
    }

    /// Exports every in-memory cached plan to `dir` in the snapshot
    /// format [`Compiler::preload`] reads (which is also the disk-tier
    /// format, so a snapshot can double as a seed `--cache-dir`).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error; snapshot export never partially
    /// succeeds silently.
    pub fn export_snapshot(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        self.shared.cache.export_to(dir)
    }

    /// Keys imported by [`Compiler::preload`] so far.
    pub fn preloaded_keys(&self) -> u64 {
        self.shared
            .preloaded
            .read()
            .expect("preloaded set poisoned")
            .len() as u64
    }

    /// Cache hits served by records that arrived via
    /// [`Compiler::preload`] rather than this process's own searches.
    pub fn preload_hits(&self) -> u64 {
        self.shared.preload_hits.load(Ordering::Relaxed)
    }

    /// Compiles one chain, consulting the cache first.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when no fusion plan
    /// exists (negative results are *not* cached).
    pub fn compile(&self, chain: &ChainSpec) -> Result<Compiled, SearchError> {
        let (record, _) = self.compile_record(chain, None)?;
        Ok(self.to_compiled(chain, &record))
    }

    /// Compiles a batch: dedupes content-identical chains, then shards
    /// the distinct keys across worker threads (each worker splitting
    /// the remaining cores for its inner search). Results are returned
    /// in input order; duplicates share one search.
    pub fn compile_batch(&self, chains: &[ChainSpec]) -> Vec<Result<Compiled, SearchError>> {
        self.batch_records(chains)
            .into_iter()
            .zip(chains)
            .map(|(outcome, chain)| outcome.map(|record| self.to_compiled(chain, &record)))
            .collect()
    }

    /// Like [`Compiler::compile_batch`] but returning the full
    /// persistable [`PlanRecord`] per request (what the serving API
    /// responds with), each projected onto its caller's chain.
    pub fn compile_batch_records(
        &self,
        chains: &[ChainSpec],
    ) -> Vec<Result<PlanRecord, SearchError>> {
        self.batch_records(chains)
            .into_iter()
            .zip(chains)
            .map(|(outcome, chain)| outcome.map(|record| project_record(&record, chain)))
            .collect()
    }

    /// The shared batch path: per-input cached-or-searched records
    /// (duplicates share one `Arc`).
    fn batch_records(&self, chains: &[ChainSpec]) -> Vec<Result<Arc<PlanRecord>, SearchError>> {
        let keys: Vec<PlanKey> = chains.iter().map(|c| self.key_for(c)).collect();
        // Dedupe: first occurrence of each key claims a slot.
        let mut slot_of = std::collections::HashMap::new();
        let mut unique = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            slot_of.entry(*key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
        }
        let workers = self.batch_worker_count(unique.len());
        let inner_threads = (self.config.effective_threads() / workers.max(1)).max(1);
        let results: Vec<OnceLock<Result<Arc<PlanRecord>, SearchError>>> =
            (0..unique.len()).map(|_| OnceLock::new()).collect();
        if workers <= 1 {
            for (slot, &i) in unique.iter().enumerate() {
                let outcome = self.compile_record(&chains[i], None).map(|(r, _)| r);
                results[slot].set(outcome).expect("slot set once");
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= unique.len() {
                            break;
                        }
                        let outcome = self
                            .compile_record(&chains[unique[slot]], Some(inner_threads))
                            .map(|(r, _)| r);
                        results[slot].set(outcome).expect("slot claimed once");
                    });
                }
            });
        }
        keys.iter()
            .map(|key| {
                let slot = slot_of[key];
                match results[slot].get().expect("every slot filled") {
                    Ok(record) => Ok(Arc::clone(record)),
                    Err(e) => Err(e.clone()),
                }
            })
            .collect()
    }

    /// Compiles one chain and returns the full persistable
    /// [`PlanRecord`] — the serving API's response body — projected
    /// onto the caller's chain exactly as [`Compiler::compile`]
    /// projects its [`Compiled`].
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when no fusion plan
    /// exists.
    pub fn compile_record_for(&self, chain: &ChainSpec) -> Result<PlanRecord, SearchError> {
        let (record, _) = self.compile_record(chain, None)?;
        Ok(project_record(&record, chain))
    }

    /// Worker count for a batch of `unique` distinct keys.
    fn batch_worker_count(&self, unique: usize) -> usize {
        let configured = if self.shared.batch_workers > 0 {
            self.shared.batch_workers
        } else {
            flashfuser_core::available_threads()
        };
        configured.min(unique).max(1)
    }

    /// The cached-or-searched record for `chain`, and whether *this
    /// call* ran the search (`false` on a cache hit or when it joined
    /// another caller's flight).
    fn compile_record(
        &self,
        chain: &ChainSpec,
        threads_override: Option<usize>,
    ) -> Result<(Arc<PlanRecord>, bool), SearchError> {
        let key = self.key_for(chain);
        if let Some(hit) = self.shared.cache.get(&key) {
            self.attribute_hit(&key);
            return Ok((hit, false));
        }
        let mut searched = false;
        let (outcome, leader) = self.shared.inflight.run(key, || {
            // Double-check: a leader that finished between our lookup
            // and this flight may already have populated the cache.
            // Untracked so one logical request counts one miss.
            if let Some(hit) = self.shared.cache.get_untracked(&key) {
                return Ok(hit);
            }
            searched = true;
            let record = Arc::new(self.search_record(chain, threads_override)?);
            self.shared.cache.put(key, Arc::clone(&record));
            Ok(record)
        });
        if !leader {
            self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Ok((outcome?, searched))
    }

    /// Credits a cache hit to the snapshot when its key was preloaded.
    fn attribute_hit(&self, key: &PlanKey) {
        let preloaded = self
            .shared
            .preloaded
            .read()
            .expect("preloaded set poisoned");
        if !preloaded.is_empty() && preloaded.contains(key) {
            self.shared.preload_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs one full search (the cold path).
    fn search_record(
        &self,
        chain: &ChainSpec,
        threads_override: Option<usize>,
    ) -> Result<PlanRecord, SearchError> {
        self.shared.searches.fetch_add(1, Ordering::Relaxed);
        let mut config = self.config.clone();
        if let Some(threads) = threads_override {
            // Thread count never changes the result (deterministic
            // merge), so batch workers may split the cores freely.
            config.threads = threads;
        }
        let mut profiler = SimProfiler::new(self.params().clone());
        let result = self
            .engine
            .search_with_profiler(chain, &config, &mut profiler)?;
        self.shared
            .profile_calls
            .fetch_add(profiler.profiled, Ordering::Relaxed);
        let best = result.best();
        let measured = best.measured.expect("profiled search always measures");
        Ok(PlanRecord {
            plan: best.analysis.plan().clone(),
            seconds: measured.seconds,
            global_bytes: measured.global_bytes,
            dsm_bytes: measured.dsm_bytes,
            feasible: result.stats().eligible,
        })
    }

    /// Projects a record onto the caller's chain. The key guarantees
    /// content equality; only metadata (the workload name) can differ,
    /// and the caller's version wins — which is exactly what a fresh
    /// search of `chain` would have produced.
    fn to_compiled(&self, chain: &ChainSpec, record: &PlanRecord) -> Compiled {
        let projected = project_record(record, chain);
        Compiled {
            plan: projected.plan,
            measured_seconds: projected.seconds,
            global_bytes: projected.global_bytes,
            feasible_candidates: projected.feasible,
        }
    }

    /// Compiles an arbitrary operator DAG into a stitched [`GraphPlan`].
    ///
    /// The graph is partitioned by
    /// [`flashfuser_core::segment::partition_graph`]: fusible two-GEMM
    /// chains are recovered by pattern matching (validated against the
    /// canonical chain forms via content fingerprints), segment
    /// boundaries come from a DP over topological cut points scored by
    /// the cost model's admissible chain bound, and everything else is
    /// priced as stand-alone unfused kernels at [`UNFUSED_EFFICIENCY`].
    /// Each fused segment then goes through [`Compiler::compile`] — so
    /// segments share the plan cache, and models whose layers repeat a
    /// shape search once and hit `layers - 1` times.
    ///
    /// Two fallbacks keep the stitched plan no worse than the unfused
    /// baseline (the paper's §IV-C3 binning rule, applied per segment):
    /// a segment whose *measured* fused time loses to its unfused bar
    /// is stitched at the unfused time (`fell_back`), and a segment
    /// with no feasible fused plan is emitted as an unfused segment.
    ///
    /// # Errors
    ///
    /// Returns [`GraphCompileError::Partition`] when the graph is
    /// ill-shaped or has no compute nodes.
    pub fn compile_graph(&self, graph: &OpGraph) -> Result<GraphPlan, GraphCompileError> {
        let pricer = UnfusedKernelPricer::new(self.params().clone(), UNFUSED_EFFICIENCY);
        let partition = partition_graph(graph, self.params(), &pricer)?;
        let shapes = graph
            .infer_shapes()
            .expect("partition_graph already validated the shapes");
        // Per-op global bytes of a node run stood alone — the traffic an
        // infeasible chain really moves once it degrades to one kernel
        // per operator (remainder segments are priced identically by the
        // partitioner, so executed traffic reconciles either way).
        let op_bytes = |nodes: &[NodeId]| -> u64 {
            nodes
                .iter()
                .map(|&id| graph.op_cost(&shapes, id).bytes)
                .sum()
        };
        let mut segments = Vec::with_capacity(partition.segments.len());
        let mut seconds = 0.0;
        let mut unfused_seconds = 0.0;
        let mut global_bytes = 0u64;
        for segment in partition.segments {
            match segment {
                Segment::Fused {
                    chain,
                    nodes,
                    unfused_seconds: bar,
                    ..
                } => match self.compile_record(&chain, None) {
                    Ok((record, searched)) => {
                        let compiled = self.to_compiled(&chain, &record);
                        let fell_back = compiled.measured_seconds >= bar;
                        seconds += compiled.measured_seconds.min(bar);
                        global_bytes += if fell_back {
                            chain.unfused_global_bytes()
                        } else {
                            compiled.global_bytes
                        };
                        unfused_seconds += bar;
                        segments.push(CompiledSegment::Fused(Box::new(FusedSegment {
                            chain,
                            compiled,
                            nodes,
                            unfused_seconds: bar,
                            fell_back,
                            searched,
                        })));
                    }
                    Err(SearchError::NoFeasiblePlan) => {
                        seconds += bar;
                        unfused_seconds += bar;
                        let bytes = op_bytes(&nodes);
                        global_bytes += bytes;
                        segments.push(CompiledSegment::Unfused(UnfusedSegment {
                            nodes,
                            seconds: bar,
                            bytes,
                        }));
                    }
                },
                Segment::Unfused {
                    nodes,
                    est_seconds,
                    bytes,
                } => {
                    seconds += est_seconds;
                    unfused_seconds += est_seconds;
                    global_bytes += bytes;
                    segments.push(CompiledSegment::Unfused(UnfusedSegment {
                        nodes,
                        seconds: est_seconds,
                        bytes,
                    }));
                }
            }
        }
        Ok(GraphPlan {
            segments,
            seconds,
            unfused_seconds,
            global_bytes,
        })
    }
}

/// A record with the caller's chain substituted for the cached one —
/// content-equal by key construction, only the name metadata differs.
fn project_record(record: &PlanRecord, chain: &ChainSpec) -> PlanRecord {
    let mut plan = record.plan.clone();
    plan.chain = chain.clone();
    PlanRecord {
        plan,
        seconds: record.seconds,
        global_bytes: record.global_bytes,
        dsm_bytes: record.dsm_bytes,
        feasible: record.feasible,
    }
}

/// Kernel efficiency assumed for unfused remainder kernels and the
/// per-segment fallback bar: tuned-but-unfused, SGLang-class — the same
/// derate the end-to-end baseline in `flashfuser_bench::e2e` uses.
pub const UNFUSED_EFFICIENCY: f64 = 0.92;

/// A fused segment of a [`GraphPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSegment {
    /// The recovered chain this segment compiles.
    pub chain: ChainSpec,
    /// The per-chain compilation result (bit-identical to a direct
    /// [`Compiler::compile`] of `chain`).
    pub compiled: Compiled,
    /// Graph nodes the fused kernel replaces.
    pub nodes: Vec<NodeId>,
    /// The unfused bar the fused plan had to beat.
    pub unfused_seconds: f64,
    /// `true` when the measured fused time lost to the bar and the
    /// stitched total uses the unfused time instead.
    pub fell_back: bool,
    /// `true` when compiling this segment ran a search; `false` when it
    /// was served from the plan cache (or coalesced).
    pub searched: bool,
}

impl FusedSegment {
    /// The seconds this segment contributes to the stitched total.
    pub fn stitched_seconds(&self) -> f64 {
        self.compiled.measured_seconds.min(self.unfused_seconds)
    }
}

/// A run of operators left as stand-alone unfused kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct UnfusedSegment {
    /// The covered graph nodes, in topological order.
    pub nodes: Vec<NodeId>,
    /// Summed kernel seconds.
    pub seconds: f64,
    /// Summed global bytes.
    pub bytes: u64,
}

/// One stitched segment of a compiled graph. The fused variant is
/// boxed: it carries a whole [`FusedPlan`], which would otherwise
/// dominate the size of every segment.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledSegment {
    /// Compiled through the fusion engine.
    Fused(Box<FusedSegment>),
    /// Priced as stand-alone kernels.
    Unfused(UnfusedSegment),
}

impl CompiledSegment {
    /// The seconds this segment contributes to [`GraphPlan::seconds`].
    pub fn seconds(&self) -> f64 {
        match self {
            CompiledSegment::Fused(f) => f.stitched_seconds(),
            CompiledSegment::Unfused(u) => u.seconds,
        }
    }

    /// The graph nodes this segment covers.
    pub fn nodes(&self) -> &[NodeId] {
        match self {
            CompiledSegment::Fused(f) => &f.nodes,
            CompiledSegment::Unfused(u) => &u.nodes,
        }
    }
}

/// The result of [`Compiler::compile_graph`]: per-segment plans plus
/// stitched end-to-end figures.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPlan {
    /// Segments in topological order, covering every compute node once.
    pub segments: Vec<CompiledSegment>,
    /// Stitched end-to-end seconds (fused segments at their measured
    /// time, capped by the per-segment fallback; remainders unfused).
    pub seconds: f64,
    /// The all-unfused baseline for the same graph.
    pub unfused_seconds: f64,
    /// Global-memory bytes the stitched execution moves.
    pub global_bytes: u64,
}

impl GraphPlan {
    /// The fused segments, in order.
    pub fn fused_segments(&self) -> impl Iterator<Item = &FusedSegment> {
        self.segments.iter().filter_map(|s| match s {
            CompiledSegment::Fused(f) => Some(f.as_ref()),
            CompiledSegment::Unfused(_) => None,
        })
    }

    /// End-to-end speedup over the all-unfused baseline (≥ 1 by the
    /// per-segment fallback).
    pub fn speedup(&self) -> f64 {
        self.unfused_seconds / self.seconds
    }
}

/// Why [`Compiler::compile_graph`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphCompileError {
    /// The graph could not be partitioned (ill-shaped or empty).
    Partition(PartitionError),
}

impl fmt::Display for GraphCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphCompileError::Partition(e) => write!(f, "cannot partition graph: {e}"),
        }
    }
}

impl std::error::Error for GraphCompileError {}

impl From<PartitionError> for GraphCompileError {
    fn from(e: PartitionError) -> Self {
        GraphCompileError::Partition(e)
    }
}
