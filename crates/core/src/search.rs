//! The fusion search engine (paper §IV-C3, Algorithm 2).
//!
//! `EnumerateAllCandidates -> PruneCandidates -> DataflowAnalyzer ->
//! CalculateCost -> UpdateTopKList -> ProfileBestFromList`.
//!
//! The engine ranks every candidate of the [`CandidateStream`] — Rules
//! 1–4 plus the tile/cluster geometry, so every one of them *can* exist —
//! with the analytical cost model, keeps the best `K` (the paper selects
//! `K = 11` from Fig. 12b), and then asks a [`PlanProfiler`] — the
//! simulator — to measure those finalists and pick the winner.
//!
//! # Score, don't build
//!
//! The model is analytical: a candidate is a handful of integers priced
//! in closed form, and only the `K` finalists are ever needed as plans.
//! The scan therefore computes, at each of its three nesting levels,
//! only what varies there, and allocates nothing until the top-K is
//! final:
//!
//! * per `(schedule, cluster)` **group** — one floor under every plane
//!   bound of the group ([`CostModel::group_floor`]), read off the group
//!   header; the schedule's facts (which dims are spatial, the strip
//!   order) are O(1) reads off the [`LoopSchedule`], and the group's
//!   filtered tile axes hand every plane its geometry by lookup;
//! * per `(blk_m, blk_n)` [`Plane`] — the bound, staged: the compute term
//!   ([`CostModel::compute_s`]), then the mandatory tile traffic and the
//!   HBM term ([`CostModel::hbm_s`]); for a plane that survives both, the
//!   full pricing ([`CostModel::plane_pricing`]) and the plane-level half
//!   of the analysis ([`DataflowAnalyzer::plane`]);
//! * per **candidate** — [`PlaneTerms::score`] (Rule 5 and the per-tier
//!   volumes, as [`CostTerms`]), [`CostModel::estimate`], and a push of
//!   one `Copy` entry into the worker's top-K buffer.
//!
//! After the deterministic merge the ≤ `K` survivors are turned into
//! plans ([`DataflowAnalyzer::materialise`]); each keeps the estimate
//! it was ranked on, which [`CostModel::evaluate`] reproduces bit for
//! bit (one pricing core).
//!
//! [`PlaneTerms::score`]: crate::analyzer::PlaneTerms::score
//!
//! # One floor per group, one bound per plane
//!
//! The mandatory traffic and the block count are non-increasing in
//! `blk_m` and `blk_n`, so a group's floor — the unquantised compute time
//! against the traffic of its largest tiles at the occupancy of its most
//! blocks — is at or below the bound of every plane in it. The engine
//! sorts the groups by `(floor, first seq)` and ranks them best first;
//! once the next floor is strictly above the bar (below), that group and
//! every later one are cut without visiting a plane.
//!
//! [`CostModel::lower_bound_for`] does not depend on `blk_k` or `blk_l`:
//! with `grid_k = grid_l = 1` (true of every streamed candidate) the
//! trip and tile factors of the mandatory traffic cancel, so the bound —
//! and the traffic itself — is bit-equal across a whole `(schedule,
//! cluster, blk_m, blk_n)` plane (`tests/search_parallel.rs` pins that).
//! Inside a ranked group the scan therefore prices the bound once per
//! plane and — when it already loses — skips the plane's entire `blk_k x
//! blk_l` sub-lattice; a plane that survives the bound but fails a
//! plane-level capacity check ([`PlaneTerms::infeasible`]) is skipped
//! whole too; inside a surviving plane the scan re-tests the same bound
//! against the (possibly tightened) worst before each score. Groups are
//! not visited in stream order, so "loses" respects `(est, seq)` ties:
//! against the worker's own full buffer a bound equal to the worst still
//! enters at an earlier `seq`; against the shared bar only a strictly
//! higher bound loses. Floor and bound are admissible (they never exceed
//! the true cost), so a skipped candidate could not have displaced a
//! finalist: the top-K equals that of an exhaustive analyze-everything
//! scan, which `tests/search_parallel.rs` and `tests/stream_oracle.rs`
//! check against an in-test oracle and [`SearchEngine::brute_force`]
//! checks on the simulator.
//!
//! [`PlaneTerms::infeasible`]: crate::analyzer::PlaneTerms::infeasible
//!
//! # Parallel ranking
//!
//! Each candidate is a pure function of `(chain, schedule, cluster,
//! tile)`, so the work unit is a whole group: workers claim the next
//! group of the floor order through one atomic index, each into its own
//! bounded top-K buffer, and the buffers are merged at the end. The bar
//! is shared — one atomic holding the lowest `k`-th estimate any full
//! buffer has reached — so every worker skips on what the best of them
//! has found. Ties in analytical cost are broken by the candidate's
//! position in the stream's total order (`Candidate::seq`), so the merged
//! result is **bit-identical** to a single-threaded scan regardless of
//! thread count — see [`SearchConfig::threads`]. What does depend on the
//! interleaving is how many candidates, planes and groups the bounds
//! skipped; those counts are diagnostics ([`SearchStats`]) and are never
//! persisted.

use crate::analyzer::{CostTerms, DataflowAnalysis, DataflowAnalyzer};
use crate::cost::CostModel;
use crate::machine::{MachineDescriptor, MemLevel};
use crate::profiler::{PlanProfiler, ProfileOutcome};
use crate::prune::{Candidate, CandidateStream, Plane, PlaneGroup, PlaneIter, PruneConfig};
use crate::schedule::LoopSchedule;
use flashfuser_graph::ChainSpec;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Stream positions claimed per queue pop of [`SearchEngine::brute_force`]
/// — a worker profiles the planes that begin inside its window — and the
/// candidates per worker below which a scan stays on fewer threads (see
/// [`worker_count`]): small enough for load balance, large enough that a
/// scan too short to repay a thread start stays on the calling thread.
const WORK_BLOCK: u64 = 8192;

/// Search-engine configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Top-K candidates forwarded to profiling. The paper uses 11.
    pub top_k: usize,
    /// Pruning configuration (cluster limit, lowest spill tier).
    pub prune: PruneConfig,
    /// Worker threads for candidate ranking and brute-force profiling.
    /// `0` (the default) uses every available core; `1` scans on the
    /// calling thread. Results are identical for every value — parallel
    /// merges are deterministic.
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            top_k: 11,
            prune: PruneConfig::default(),
            threads: 0,
        }
    }
}

impl SearchConfig {
    /// A configuration restricted to a single SM's resources (no DSM) —
    /// how SMEM-only baselines search.
    pub fn smem_only() -> Self {
        Self {
            prune: PruneConfig {
                max_cluster: 1,
                lowest_spill: MemLevel::Smem,
                allow_inter_cluster_reduce: false,
            },
            ..Self::default()
        }
    }

    /// This configuration with an explicit thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker count the engine will actually use: `threads`, or every
    /// available core when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_threads()
        }
    }

    /// Stable content fingerprint of every field that can change the
    /// search *result*. Part of the plan-cache key.
    ///
    /// `threads` is deliberately excluded: the parallel merge is
    /// deterministic, so the result is identical for every thread count
    /// and a plan searched on one host stays valid on another.
    pub fn fingerprint(&self) -> u64 {
        let mut h = flashfuser_graph::StableHasher::new();
        h.write_usize(self.top_k);
        h.write_usize(self.prune.max_cluster);
        h.write_usize(self.prune.lowest_spill.index());
        h.write_u8(u8::from(self.prune.allow_inter_cluster_reduce));
        h.finish()
    }
}

/// One ranked candidate: analysis, analytical estimate, and (if
/// profiled) the measured outcome.
#[derive(Debug, Clone)]
pub struct RankedPlan {
    /// The analyzed plan.
    pub analysis: DataflowAnalysis,
    /// Analytical estimate in seconds ([`CostModel::evaluate`]`.est_s`).
    pub est_seconds: f64,
    /// Measured outcome after profiling, if any.
    pub measured: Option<ProfileOutcome>,
}

/// Search statistics (feeds Tables III and VIII).
///
/// `considered` and `eligible` are pure functions of the chain and
/// [`SearchConfig::prune`]. Everything else describes how *this run*
/// went — it depends on the thread count and on worker interleaving —
/// and is a diagnostic: print it, never persist it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Candidates scanned: the whole [`CandidateStream`]. The stream
    /// holds only candidates that pass Rules 1–4 *and* the tile/cluster
    /// geometry, so this equals `eligible`.
    pub considered: u64,
    /// Candidates that passed Rules 1–4 and the tile/cluster geometry —
    /// the population the bound and Rule 5 then work on. The stream's
    /// closed-form length, so it is identical for every thread count;
    /// this is the count plan records persist.
    pub eligible: u64,
    /// Diagnostic: candidates that scored successfully (survived Rule
    /// 5). Candidates skipped by the bound are not scored and not
    /// counted, so this varies with scan interleaving.
    pub feasible: u64,
    /// Diagnostic: candidates skipped — one at a time, a whole plane or a
    /// whole group at once — because their lower bound could not beat
    /// the worker's top-K worst or the shared bar. Varies with scan
    /// interleaving.
    pub prefiltered: u64,
    /// Diagnostic: `(schedule, cluster, blk_m, blk_n)` planes the scan
    /// visited, each priced once; the planes of a group cut on its floor
    /// are not visited. Varies with scan interleaving.
    pub planes: u64,
    /// Diagnostic: visited planes dropped whole, before any candidate
    /// was scored — on the bound (their candidates are in `prefiltered`)
    /// or on a plane-level capacity check (their candidates are in no
    /// other count: none of them could have been feasible). Varies with
    /// scan interleaving.
    pub planes_skipped: u64,
    /// Diagnostic: `(schedule, cluster)` groups of the stream, each given
    /// one floor. A pure function of the chain and the pruning config.
    pub groups: u64,
    /// Diagnostic: groups cut whole on their floor — none of their planes
    /// visited, all of their candidates in `prefiltered`. Varies with
    /// scan interleaving.
    pub groups_skipped: u64,
    /// Diagnostic: worker threads used for ranking.
    pub threads: usize,
    /// Diagnostic: wall-clock seconds spent in enumeration + analysis +
    /// ranking.
    pub analysis_seconds: f64,
    /// Diagnostic: wall-clock seconds spent profiling the top-K.
    pub profiling_seconds: f64,
}

/// Search failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// No candidate survived pruning and analysis.
    NoFeasiblePlan,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NoFeasiblePlan => write!(f, "no feasible fusion plan found"),
        }
    }
}

impl Error for SearchError {}

/// The result of a search: top-K plans ordered by analytical cost, plus
/// the index of the winner (by measurement when profiled, else rank 0).
#[derive(Debug, Clone)]
pub struct SearchResult {
    top_k: Vec<RankedPlan>,
    best_idx: usize,
    stats: SearchStats,
}

impl SearchResult {
    /// The winning plan.
    pub fn best(&self) -> &RankedPlan {
        &self.top_k[self.best_idx]
    }

    /// All finalists, best analytical estimate first.
    pub fn top_k(&self) -> &[RankedPlan] {
        &self.top_k
    }

    /// Index of the winner within [`SearchResult::top_k`].
    pub fn best_index(&self) -> usize {
        self.best_idx
    }

    /// Statistics of the run.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// A scored candidate inside a worker's bounded top-K buffer: analytical
/// estimate, the candidate (its `seq` breaks ties deterministically) and
/// its terms — what [`DataflowAnalyzer::materialise`] needs should it
/// survive the merge. `Copy`: entering the buffer allocates nothing.
#[derive(Clone, Copy)]
struct Scored<'a> {
    est: f64,
    candidate: Candidate<'a>,
    terms: CostTerms,
}

/// `true` when `(a_est, a_seq)` orders strictly before `(b_est, b_seq)`
/// in the engine's total candidate order (cost first, stream position as
/// the tie break). `est` values are finite by construction.
fn orders_before(a_est: f64, a_seq: u64, b_est: f64, b_seq: u64) -> bool {
    a_est < b_est || (a_est == b_est && a_seq < b_seq)
}

/// Inserts `s` into the sorted bounded buffer `top` (capacity `k`);
/// `false` when it ranks below a full buffer's worst and stays out.
fn push_top_k<'a>(top: &mut Vec<Scored<'a>>, k: usize, s: Scored<'a>) -> bool {
    if top.len() == k {
        let w = top.last().expect("k >= 1");
        if !orders_before(s.est, s.candidate.seq, w.est, w.candidate.seq) {
            return false;
        }
        top.pop();
    }
    let pos =
        top.partition_point(|p| orders_before(p.est, p.candidate.seq, s.est, s.candidate.seq));
    top.insert(pos, s);
    true
}

/// One ranking worker's output: its bounded top-K and its share of the
/// counts.
#[derive(Default)]
struct RankShard<'a> {
    top: Vec<Scored<'a>>,
    feasible: u64,
    prefiltered: u64,
    planes: u64,
    planes_skipped: u64,
    groups_skipped: u64,
}

impl<'a> RankShard<'a> {
    /// `true` when no candidate with an estimate of at least `lb`, at
    /// stream position `seq` or after it, can enter the merged top-K.
    /// Against this worker's full buffer the test is `(est, seq)`-aware —
    /// groups are not visited in `seq` order, so a tie with the worst
    /// still enters when it sits earlier in the stream. Against the
    /// shared `bar`, whose candidates' positions are unknown here, only
    /// a strictly higher bound loses.
    fn loses(&self, k: usize, bar: f64, lb: f64, seq: u64) -> bool {
        lb > bar
            || self.top.len() == k && {
                let w = &self.top[k - 1];
                !orders_before(lb, seq, w.est, w.candidate.seq)
            }
    }

    /// Pushes `s` into the buffer; when that lowers a full buffer's worst
    /// below `bar`, lowers `bar` to it. The load comes first, so the
    /// shared cache line is written only when the bar improves.
    fn push(&mut self, k: usize, s: Scored<'a>, bar: &AtomicU64) {
        if push_top_k(&mut self.top, k, s) && self.top.len() == k {
            let worst = self.top[k - 1].est.to_bits();
            if worst < bar.load(Ordering::Relaxed) {
                bar.fetch_min(worst, Ordering::Relaxed);
            }
        }
    }

    /// Drops a whole group on its floor: none of its planes is visited.
    fn cut(&mut self, group: PlaneGroup<'_, '_>) {
        self.prefiltered += group.len;
        self.groups_skipped += 1;
    }
}

/// What the workers of one best-first ranking share: the stream's groups
/// in floor order, the index of the next one to claim, and the bar.
///
/// Both atomics are read and written `Relaxed`: each is a value in its
/// own right and publishes no other data. Any bar value a worker reads
/// is one some full buffer has reached, and buffers only improve, so a
/// stale read skips less, never wrongly. The scope's join orders every
/// worker's shard before the merge reads it.
struct BestFirst<'s, 'a> {
    stream: &'s CandidateStream<'a>,
    /// `(floor, group index)` for every group, ascending by floor, then
    /// by stream position.
    order: Vec<(f64, usize)>,
    /// Position in `order` of the next group to claim.
    next: AtomicUsize,
    /// `f64` bits of the lowest `k`-th estimate any worker's full buffer
    /// has held; `+inf` until one fills. Every estimate is finite and
    /// positive, so the bits order as the values do and `fetch_min` on
    /// them is a minimum of the values.
    bar: AtomicU64,
}

impl<'s, 'a> BestFirst<'s, 'a> {
    /// Prices every group's floor (O(1) each, off the group headers) and
    /// sorts the groups by it.
    fn new(scan: &Scan<'_>, stream: &'s CandidateStream<'a>) -> Self {
        let mut order: Vec<(f64, usize)> = stream
            .groups()
            .enumerate()
            .map(|(index, group)| (scan.cost_model.group_floor(scan.chain, &group), index))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self {
            stream,
            order,
            next: AtomicUsize::new(0),
            bar: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// One worker's share: claims groups best floor first and ranks each,
    /// until none is left or the claimed one's floor is strictly above
    /// the bar. Floors ascend and the bar only falls, so then every group
    /// after it loses too: the worker stops every worker and counts them
    /// all as cut.
    fn drain(&self, scan: &Scan<'_>, k: usize, shard: &mut RankShard<'a>) {
        while let Some(&(floor, index)) = self.order.get(self.next.fetch_add(1, Ordering::Relaxed))
        {
            let group = self.stream.group(index);
            if floor > f64::from_bits(self.bar.load(Ordering::Relaxed)) {
                shard.cut(group);
                // Groups claimed before the swap are their claimers' to
                // rank or cut; the rest no one will claim.
                let unclaimed = self.next.swap(self.order.len(), Ordering::Relaxed);
                for &(_, index) in self.order.get(unclaimed..).unwrap_or_default() {
                    shard.cut(self.stream.group(index));
                }
                break;
            }
            scan.rank_group(k, shard, &self.bar, group);
        }
    }
}

/// One brute-force worker's output: its best `(seconds, seq, plan)` (if
/// any candidate in its share was feasible) and its profile-call count.
#[derive(Default)]
struct BruteShard {
    best: Option<(f64, u64, RankedPlan)>,
    profiled: u64,
}

/// What the workers of one scan share, read-only.
struct Scan<'c> {
    chain: &'c ChainSpec,
    analyzer: DataflowAnalyzer,
    cost_model: CostModel,
}

/// The fusion search engine.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    params: MachineDescriptor,
}

impl SearchEngine {
    /// Creates an engine for the given machine.
    pub fn new(params: MachineDescriptor) -> Self {
        Self { params }
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &MachineDescriptor {
        &self.params
    }

    /// Analytical search: enumerate, prune, score, rank; the top-K are
    /// materialised. The winner is the cost-model rank-1 plan (no
    /// profiling).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when nothing survives.
    pub fn search(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
    ) -> Result<SearchResult, SearchError> {
        let (top_k, stats) = self.rank_candidates(chain, config);
        if top_k.is_empty() {
            return Err(SearchError::NoFeasiblePlan);
        }
        Ok(SearchResult {
            top_k,
            best_idx: 0,
            stats,
        })
    }

    /// Full Algorithm 2: rank candidates, then profile the top-K in rank
    /// order on the calling thread and select the measured-fastest
    /// (`ProfileBestFromList`; earlier rank on ties).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when nothing survives.
    pub fn search_with_profiler(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
        profiler: &mut dyn PlanProfiler,
    ) -> Result<SearchResult, SearchError> {
        let (mut top_k, mut stats) = self.rank_candidates(chain, config);
        if top_k.is_empty() {
            return Err(SearchError::NoFeasiblePlan);
        }
        let t0 = Instant::now();
        let mut best_idx = 0;
        let mut best_time = f64::INFINITY;
        for (i, ranked) in top_k.iter_mut().enumerate() {
            let outcome = profiler.profile(ranked.analysis.plan());
            if outcome.seconds < best_time {
                best_time = outcome.seconds;
                best_idx = i;
            }
            ranked.measured = Some(outcome);
        }
        stats.profiling_seconds = t0.elapsed().as_secs_f64();
        Ok(SearchResult {
            top_k,
            best_idx,
            stats,
        })
    }

    /// Brute force for Table VIII: profile *every* feasible candidate on
    /// the device and return the true optimum (minimum measured seconds;
    /// ties broken by stream position, so parallel and sequential runs
    /// agree exactly). Returns the winner, its outcome and the number of
    /// candidates profiled. No bound is applied here — brute force is
    /// the unfiltered oracle the guided search is validated against.
    /// Workers profile on [`PlanProfiler::fork`]s when the profiler has
    /// them, else everything runs on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when nothing survives.
    pub fn brute_force(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
        profiler: &mut dyn PlanProfiler,
    ) -> Result<(RankedPlan, u64), SearchError> {
        let stream = CandidateStream::build(chain, &config.prune, LoopSchedule::all());
        let threads = worker_count(config, stream.len());
        let scan = self.scan(chain, &config.prune);

        let forks: Option<Vec<Box<dyn PlanProfiler + Send>>> = if threads > 1 {
            (0..threads).map(|_| profiler.fork()).collect()
        } else {
            None
        };
        let shards: Vec<BruteShard> = match forks {
            Some(forks) => {
                let workers = forks
                    .into_iter()
                    .map(|fork| (fork, BruteShard::default()))
                    .collect();
                let (queue, total) = (AtomicU64::new(0), stream.len());
                run_workers(workers, |(fork, shard)| loop {
                    let start = queue.fetch_add(WORK_BLOCK, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    scan.brute_shard(
                        fork.as_mut(),
                        shard,
                        stream.planes(start, start + WORK_BLOCK),
                    );
                })
                .into_iter()
                .map(|(_, shard)| shard)
                .inspect(|shard| profiler.join(shard.profiled))
                .collect()
            }
            None => {
                let mut shard = BruteShard::default();
                scan.brute_shard(profiler, &mut shard, stream.planes(0, stream.len()));
                vec![shard]
            }
        };
        let profiled = shards.iter().map(|shard| shard.profiled).sum();
        shards
            .into_iter()
            .filter_map(|shard| shard.best)
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
            .map(|(_, _, plan)| (plan, profiled))
            .ok_or(SearchError::NoFeasiblePlan)
    }

    /// Ranks the stream with the analytical cost model, best group floor
    /// first, in parallel, returning the deterministic global top-K.
    fn rank_candidates(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
    ) -> (Vec<RankedPlan>, SearchStats) {
        let t0 = Instant::now();
        let stream = CandidateStream::build(chain, &config.prune, LoopSchedule::all());
        let k = config.top_k.max(1);
        let threads = worker_count(config, stream.len());
        let scan = self.scan(chain, &config.prune);
        let best_first = BestFirst::new(&scan, &stream);

        let workers = (0..threads)
            .map(|_| RankShard {
                top: Vec::with_capacity(k),
                ..RankShard::default()
            })
            .collect();
        let shards = run_workers(workers, |shard| best_first.drain(&scan, k, shard));

        let mut stats = SearchStats {
            considered: stream.len(),
            eligible: stream.len(),
            groups: best_first.order.len() as u64,
            threads,
            ..SearchStats::default()
        };
        let mut merged: Vec<Scored> = Vec::with_capacity(k * shards.len());
        for shard in shards {
            stats.feasible += shard.feasible;
            stats.prefiltered += shard.prefiltered;
            stats.planes += shard.planes;
            stats.planes_skipped += shard.planes_skipped;
            stats.groups_skipped += shard.groups_skipped;
            merged.extend(shard.top);
        }
        // The deterministic merge: global order is (est, seq); each shard
        // already holds the best k of what it scored under that order,
        // and nothing it skipped could have entered.
        merged.sort_by(|a, b| {
            a.est
                .total_cmp(&b.est)
                .then_with(|| a.candidate.seq.cmp(&b.candidate.seq))
        });
        merged.truncate(k);
        // Only now does anything become a plan.
        let top_k = merged
            .into_iter()
            .map(|s| {
                let Candidate {
                    schedule,
                    cluster,
                    tile,
                    ..
                } = s.candidate;
                let analysis = scan
                    .analyzer
                    .materialise(chain, schedule, cluster, tile, &s.terms);
                debug_assert_eq!(
                    scan.cost_model.evaluate(&analysis).est_s.to_bits(),
                    s.est.to_bits(),
                    "estimate and evaluate share one pricing core"
                );
                RankedPlan {
                    est_seconds: s.est,
                    analysis,
                    measured: None,
                }
            })
            .collect();
        stats.analysis_seconds = t0.elapsed().as_secs_f64();
        (top_k, stats)
    }

    /// The analyzer and cost model for one scan of `chain`, configured
    /// like the given pruning config.
    fn scan<'c>(&self, chain: &'c ChainSpec, prune: &PruneConfig) -> Scan<'c> {
        Scan {
            chain,
            analyzer: DataflowAnalyzer::new(self.params.clone())
                .with_lowest_spill(prune.lowest_spill)
                .with_inter_cluster_reduce(prune.allow_inter_cluster_reduce),
            cost_model: CostModel::new(self.params.clone()),
        }
    }
}

impl Scan<'_> {
    /// Ranks one claimed group into a worker's shard, plane by plane in
    /// stream order. Per plane the bound is staged: the compute term
    /// alone, then with the HBM term (the mandatory traffic), and only a
    /// plane that survives both gets its full pricing and the
    /// plane-level half of the analysis. Per candidate the bound lets
    /// through: score, estimate, push. Nothing here allocates.
    fn rank_group<'a>(
        &self,
        k: usize,
        shard: &mut RankShard<'a>,
        bar: &AtomicU64,
        group: PlaneGroup<'a, '_>,
    ) {
        let chain = self.chain;
        let flops = chain.total_flops();
        let l2_bytes = self.analyzer.params().l2_bytes();
        let cluster_size = group.cluster.blocks();
        for plane in group.planes() {
            shard.planes += 1;
            let bar_now = f64::from_bits(bar.load(Ordering::Relaxed));
            // Priced on the plane's first candidate: neither the traffic
            // nor the block count reads `blk_k` or `blk_l`.
            let (first, geometry) = plane.first();
            let blocks = geometry.blocks_total(plane.cluster);
            let compute_s = self.cost_model.compute_s(flops, blocks);
            // Admissible: est >= lb >= compute_s, so a plane that loses on
            // either has no candidate that could enter the top-K.
            if shard.loses(k, bar_now, compute_s, plane.seq) {
                shard.prefiltered += plane.len();
                shard.planes_skipped += 1;
                continue;
            }
            let traffic = geometry.mandatory_traffic(chain, plane.cluster, first, l2_bytes);
            let lb = compute_s.max(
                self.cost_model
                    .hbm_s(traffic.hbm_bytes, blocks, cluster_size),
            );
            if shard.loses(k, bar_now, lb, plane.seq) {
                shard.prefiltered += plane.len();
                shard.planes_skipped += 1;
                continue;
            }
            let pricing = self.cost_model.plane_pricing(flops, blocks, cluster_size);
            debug_assert_eq!(
                pricing.lower_bound(traffic.hbm_bytes).to_bits(),
                lb.to_bits(),
                "the staged bound is the pricing's own"
            );
            let terms = self.analyzer.plane(
                chain,
                plane.schedule,
                plane.cluster,
                first,
                &geometry,
                traffic,
            );
            if terms.infeasible() {
                shard.planes_skipped += 1;
                continue;
            }
            for (candidate, geometry) in plane.candidates().with_geometry() {
                // The worst may have tightened since the plane began.
                if shard.loses(k, bar_now, lb, candidate.seq) {
                    shard.prefiltered += 1;
                    continue;
                }
                let Ok(terms) = terms.score(candidate.tile, geometry) else {
                    continue;
                };
                shard.feasible += 1;
                let est = self.cost_model.estimate(&pricing, &terms);
                shard.push(
                    k,
                    Scored {
                        est,
                        candidate,
                        terms,
                    },
                    bar,
                );
            }
        }
    }

    /// Analyzes and profiles every candidate of one claimed run of
    /// planes, keeping the shard's best `(seconds, seq)`.
    fn brute_shard(
        &self,
        profiler: &mut dyn PlanProfiler,
        shard: &mut BruteShard,
        planes: PlaneIter<'_, '_>,
    ) {
        for cand in planes.flat_map(Plane::candidates) {
            let Ok(analysis) =
                self.analyzer
                    .analyze(self.chain, cand.schedule, cand.cluster, cand.tile)
            else {
                continue;
            };
            let outcome = profiler.profile(analysis.plan());
            shard.profiled += 1;
            let better = shard
                .best
                .as_ref()
                .is_none_or(|(bs, bq, _)| orders_before(outcome.seconds, cand.seq, *bs, *bq));
            if better {
                shard.best = Some((
                    outcome.seconds,
                    cand.seq,
                    RankedPlan {
                        est_seconds: self.cost_model.evaluate(&analysis).est_s,
                        analysis,
                        measured: Some(outcome),
                    },
                ));
            }
        }
    }
}

/// Every available core, falling back to 1 when parallelism cannot be
/// queried — the single resolver behind every "`0` means all cores"
/// knob (search workers, batch workers).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves the worker count for a stream: the configured thread count,
/// capped so no worker would start without a window of its own.
fn worker_count(config: &SearchConfig, candidates: u64) -> usize {
    let max_useful = candidates.div_ceil(WORK_BLOCK).max(1);
    config
        .effective_threads()
        .min(usize::try_from(max_useful).unwrap_or(usize::MAX))
        .max(1)
}

/// Runs `drain` once per worker, one thread each. The first worker
/// drains on the calling thread — a scan that needs one worker spawns
/// nothing, and a short scan is not held up by a thread start — the
/// others on threads of their own. Every worker is moved into its thread
/// — its counters live on that thread's stack, not beside a neighbour's
/// in one cache line — and comes back in the order given.
fn run_workers<W: Send>(workers: Vec<W>, drain: impl Fn(&mut W) + Sync) -> Vec<W> {
    let drain = &|mut worker: W| {
        drain(&mut worker);
        worker
    };
    std::thread::scope(|scope| {
        let mut workers = workers.into_iter();
        let first = workers.next().expect("at least one worker");
        let handles: Vec<_> = workers
            .map(|worker| scope.spawn(move || drain(worker)))
            .collect();
        let mut done = vec![drain(first)];
        done.extend(
            handles
                .into_iter()
                .map(|handle| handle.join().expect("scan worker panicked")),
        );
        done
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::FakeProfiler;
    use flashfuser_tensor::Activation;

    fn small_chain() -> ChainSpec {
        ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu)
    }

    fn engine() -> SearchEngine {
        SearchEngine::new(MachineDescriptor::h100_sxm())
    }

    #[test]
    fn search_returns_sorted_top_k() {
        let result = engine()
            .search(&small_chain(), &SearchConfig::default())
            .unwrap();
        let costs: Vec<f64> = result.top_k().iter().map(|p| p.est_seconds).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        assert!(result.top_k().len() <= 11);
        assert_eq!(result.best_index(), 0);
        let stats = result.stats();
        assert!(stats.feasible > 0);
        assert!(stats.considered == stats.eligible && stats.eligible >= stats.feasible);
        assert!(stats.prefiltered > 0, "the bound should fire on this chain");
    }

    #[test]
    fn profiled_search_may_pick_non_rank1() {
        let mut profiler = FakeProfiler::default();
        let result = engine()
            .search_with_profiler(&small_chain(), &SearchConfig::default(), &mut profiler)
            .unwrap();
        assert_eq!(profiler.calls, result.top_k().len());
        // Every finalist was measured; the winner minimises measured time.
        let best = result.best().measured.unwrap().seconds;
        for p in result.top_k() {
            assert!(best <= p.measured.unwrap().seconds + 1e-18);
        }
    }

    #[test]
    fn smem_only_config_still_finds_small_plans() {
        // A small chain fits SMEM-only fusion — the Chimera regime.
        let result = engine()
            .search(&small_chain(), &SearchConfig::smem_only())
            .unwrap();
        assert!(result.best().analysis.plan().cluster.blocks() == 1);
    }

    #[test]
    fn smem_only_fusion_unprofitable_on_large_intermediates() {
        // OPT-1.3B-sized chain: without DSM the only surviving "fused"
        // plans re-stream inputs so heavily that they move *more* global
        // data than the unfused round trip — fusion fails in the
        // profitable sense of Fig. 5 — while the DSM search finds a plan
        // that moves less.
        let big = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let smem = engine().search(&big, &SearchConfig::smem_only()).unwrap();
        let smem_traffic = smem.best().analysis.volume(MemLevel::Global);
        assert!(
            smem_traffic > big.unfused_global_bytes(),
            "smem-only fused {} should exceed unfused {}",
            smem_traffic,
            big.unfused_global_bytes()
        );
        let dsm = engine().search(&big, &SearchConfig::default()).unwrap();
        let dsm_traffic = dsm.best().analysis.volume(MemLevel::Global);
        assert!(
            dsm_traffic < big.unfused_global_bytes(),
            "dsm fused {} should beat unfused {}",
            dsm_traffic,
            big.unfused_global_bytes()
        );
        assert!(dsm_traffic < smem_traffic);
    }

    #[test]
    fn best_dsm_plan_actually_uses_dsm_for_big_chains() {
        let big = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let result = engine().search(&big, &SearchConfig::default()).unwrap();
        assert!(result.best().analysis.plan().cluster.blocks() > 1);
    }

    #[test]
    fn brute_force_at_least_matches_topk_choice() {
        let chain = small_chain();
        let config = SearchConfig::default();
        let mut p1 = FakeProfiler::default();
        let guided = engine()
            .search_with_profiler(&chain, &config, &mut p1)
            .unwrap();
        let mut p2 = FakeProfiler::default();
        let (brute, profiled) = engine().brute_force(&chain, &config, &mut p2).unwrap();
        assert!(profiled >= guided.top_k().len() as u64);
        assert_eq!(p2.calls as u64, profiled);
        assert!(brute.measured.unwrap().seconds <= guided.best().measured.unwrap().seconds + 1e-18);
    }

    #[test]
    fn top_k_of_one_works() {
        let config = SearchConfig {
            top_k: 1,
            ..SearchConfig::default()
        };
        let result = engine().search(&small_chain(), &config).unwrap();
        assert_eq!(result.top_k().len(), 1);
    }

    #[test]
    fn single_thread_and_parallel_agree_exactly() {
        let chain = small_chain();
        let seq_cfg = SearchConfig::default().with_threads(1);
        let par_cfg = SearchConfig::default().with_threads(4);
        let a = engine().search(&chain, &seq_cfg).unwrap();
        let b = engine().search(&chain, &par_cfg).unwrap();
        assert_eq!(a.top_k().len(), b.top_k().len());
        for (x, y) in a.top_k().iter().zip(b.top_k()) {
            assert_eq!(x.est_seconds, y.est_seconds);
            assert_eq!(x.analysis.plan().to_string(), y.analysis.plan().to_string());
        }
    }
}
