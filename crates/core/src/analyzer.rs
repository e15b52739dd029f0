//! The dataflow analyzer (paper §IV-B, Algorithm 1).
//!
//! For a candidate `(schedule, cluster, tile)` the analyzer:
//!
//! 1. derives the plan geometry (grid / trips per dimension),
//! 2. computes the per-block footprint of the *reused* tensor — the
//!    `C` strip when L is iterated outside N (Fig. 9 "MLNK"), or the
//!    partial-`E` strip when N is iterated outside L (Fig. 9 "MNLK"),
//! 3. places that footprint greedily across the
//!    register → SMEM → DSM → global hierarchy (Algorithm 1 lines
//!    15–23), debiting what the streaming working set already consumes,
//! 4. charges data-movement volume to every tier: global tile traffic
//!    (with intra-cluster TMA multicast dedup), strip spill traffic per
//!    reuse pass, and the `dsm_comm` volumes of
//!    `flashfuser-comm::volume`.
//!
//! Steps 2–4 are [`DataflowAnalyzer::score`]: closed-form arithmetic over
//! a handful of integers, returning [`CostTerms`] and touching no heap —
//! what the search engine runs on every candidate. Turning a score into
//! a [`FusedPlan`] with its [`ResourceMapping`] is
//! [`DataflowAnalyzer::materialise`], which the search runs on its top-K
//! finalists only; [`DataflowAnalyzer::analyze`] is the two in sequence.
//! The half of `score` that does not read `blk_k` or `blk_l` is
//! [`DataflowAnalyzer::plane`], computed once per `(schedule, cluster,
//! blk_m, blk_n)` plane.
//!
//! # Traffic model
//!
//! Whole-device global-memory bytes (f16) charged per tensor:
//!
//! * `A`: `clusters x trips_m*trips_n*trips_k x cls_m*cls_k x |A tile|`
//!   (multicast across the `cls_n` blocks sharing a tile),
//! * `B`: `... x cls_k*cls_n x |B tile|` (x2 branches when gated),
//! * `D`: `clusters x trips_m*trips_n*trips_l x cls_n*cls_l x |D tile|`,
//! * `E`: `S_m*S_l*2 x grid_n` (atomic contributions when N is spatial
//!   across clusters — the `inter_cluster_reduce` path).
//!
//! Strip spill traffic: bytes placed at tier `l` are re-touched once per
//! reuse pass (`trips_l` passes for a C strip, `2*trips_n - 1` for an
//! accumulated E strip).

use crate::machine::{MachineDescriptor, MemLevel};
use crate::mapping::{Placement, ResourceMapping, TensorMapping, TensorRole};
use crate::plan::{FusedPlan, MandatoryTraffic, PlanError, PlanGeometry};
use crate::schedule::LoopSchedule;
use crate::tiling::BlockTile;
use flashfuser_comm::volume::{
    all_exchange_volume, reduce_scatter_volume, shuffle_volume, CommVolume,
};
use flashfuser_comm::ClusterShape;
use flashfuser_graph::{ChainSpec, Dim};
use std::error::Error;
use std::fmt;

/// Which reused-strip dataflow the schedule induces (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripKind {
    /// N iterated outside L (or N fully spatial): partial-E strip is
    /// accumulated across N iterations.
    EStrip,
    /// L iterated outside N (both temporal): the C strip is materialised
    /// once and re-read on every L iteration.
    CStrip,
}

/// Why a candidate fails analysis (these are exactly the conditions
/// pruning Rules 3–5 reject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisError {
    /// Geometry (divisibility / cross-cluster) failure.
    Plan(PlanError),
    /// K is temporal but not the innermost temporal loop: the activation
    /// would see partial sums (Rule 3).
    KNotInnermost,
    /// The GEMM0 or GEMM1 register accumulator tile exceeds the register
    /// file.
    AccumulatorTooLarge {
        /// Required bytes (f32 accumulation).
        required: u64,
        /// Available register bytes.
        available: u64,
    },
    /// The streaming working set (double-buffered input tiles plus the
    /// intermediate tile pair) exceeds SMEM.
    WorkingSetTooLarge {
        /// Required bytes.
        required: u64,
        /// Available SMEM bytes.
        available: u64,
    },
    /// The reused strip cannot be placed at or above the configured
    /// lowest spill tier (Rule 5).
    StripDoesNotFit {
        /// Strip footprint in bytes.
        footprint: u64,
        /// The configured lowest spill tier.
        lowest: MemLevel,
    },
    /// The plan needs `inter_cluster_reduce` (N spatial across clusters)
    /// but the target does not implement the TMA atomic-reduce path —
    /// the case for every pre-Hopper baseline.
    InterClusterReduceUnavailable,
    /// An attention chain with a schedule that does not materialise the
    /// complete C (scores) strip before GEMM1: the rowwise softmax
    /// needs every score of a row, so attention fuses only in the
    /// C-strip order with the full N extent inside one cluster.
    AttentionNeedsCStrip,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Plan(e) => write!(f, "{e}"),
            AnalysisError::KNotInnermost => {
                write!(
                    f,
                    "temporal K must be the innermost loop (activation needs complete sums)"
                )
            }
            AnalysisError::AccumulatorTooLarge {
                required,
                available,
            } => {
                write!(
                    f,
                    "accumulator needs {required} B of {available} B registers"
                )
            }
            AnalysisError::WorkingSetTooLarge {
                required,
                available,
            } => {
                write!(f, "working set needs {required} B of {available} B SMEM")
            }
            AnalysisError::StripDoesNotFit { footprint, lowest } => {
                write!(
                    f,
                    "reused strip of {footprint} B does not fit at or above {lowest}"
                )
            }
            AnalysisError::InterClusterReduceUnavailable => {
                write!(
                    f,
                    "plan needs inter_cluster_reduce, unavailable on this target"
                )
            }
            AnalysisError::AttentionNeedsCStrip => {
                write!(
                    f,
                    "attention needs the C-strip order with N resident in one cluster \
                     (rowwise softmax reads complete score rows)"
                )
            }
        }
    }
}

impl Error for AnalysisError {}

impl From<PlanError> for AnalysisError {
    fn from(e: PlanError) -> Self {
        AnalysisError::Plan(e)
    }
}

/// Everything Algorithm 1 decides about one candidate, as plain
/// integers: the geometry, the per-tier data-movement volumes, the
/// reused strip and where it was placed, and the latency-chain counts.
/// `Copy` and heap-free — this is what [`DataflowAnalyzer::score`]
/// returns, what the cost model prices ([`CostModel::estimate`]) and
/// what the search engine holds per top-K entry; a [`FusedPlan`] is
/// built from it only for finalists
/// ([`DataflowAnalyzer::materialise`]).
///
/// [`CostModel::estimate`]: crate::cost::CostModel::estimate
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTerms {
    geometry: PlanGeometry,
    /// Bytes per tier, indexed by [`MemLevel::index`].
    volumes: [u64; MemLevel::ALL.len()],
    strip_kind: StripKind,
    strip_footprint: u64,
    strip_placement: Placement,
    smem_working: u64,
    dsm_steps: u64,
    barriers: u64,
}

impl CostTerms {
    /// Data-movement volume charged to `level` (bytes, whole device).
    pub fn volume(&self, level: MemLevel) -> u64 {
        self.volumes[level.index()]
    }

    /// Which strip dataflow the schedule induced.
    pub fn strip_kind(&self) -> StripKind {
        self.strip_kind
    }

    /// Per-block footprint of the reused strip in bytes.
    pub fn strip_footprint(&self) -> u64 {
        self.strip_footprint
    }

    /// Streaming working-set bytes per block (SMEM).
    pub fn smem_working(&self) -> u64 {
        self.smem_working
    }

    /// Serialised DSM communication steps on one block's critical path
    /// (multiplied by the NoC hop latency in the timing model).
    pub fn dsm_steps(&self) -> u64 {
        self.dsm_steps
    }

    /// Barrier phases on one block's critical path.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }
}

/// The result of Algorithm 1: the final plan plus the [`CostTerms`] it
/// was built from (which it derefs to, so `analysis.volume(level)` and
/// the other terms read straight off it). The search engine ranks on
/// `CostTerms` alone and only the top-K finalists ever become one of
/// these.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowAnalysis {
    plan: FusedPlan,
    terms: CostTerms,
}

impl DataflowAnalysis {
    /// The final plan (`p_final`).
    pub fn plan(&self) -> &FusedPlan {
        &self.plan
    }
}

impl std::ops::Deref for DataflowAnalysis {
    type Target = CostTerms;

    fn deref(&self) -> &CostTerms {
        &self.terms
    }
}

/// The dataflow analyzer: machine parameters plus the lowest tier the
/// reused strip may spill to.
///
/// FlashFuser runs with `lowest_spill = MemLevel::Dsm` ("with DSM, the
/// lowest-level cache, selected by default", §V-A). SMEM-only baselines
/// use `MemLevel::Smem` (reproducing the Chimera cliff), and the `DA`
/// ablation of Fig. 15 uses `MemLevel::Global`.
#[derive(Debug, Clone)]
pub struct DataflowAnalyzer {
    params: MachineDescriptor,
    lowest_spill: MemLevel,
    allow_inter_cluster_reduce: bool,
}

/// What Algorithm 1 knows about a candidate before it reads `blk_k` or
/// `blk_l`: the half of the analysis a whole `(schedule, cluster, blk_m,
/// blk_n)` plane shares ([`DataflowAnalyzer::plane`]). The search builds
/// one per plane that survives the cost bound, drops the plane when
/// [`PlaneTerms::infeasible`] says no candidate of it can pass, and
/// otherwise calls [`PlaneTerms::score`] per candidate.
#[derive(Debug, Clone, Copy)]
pub struct PlaneTerms<'z> {
    analyzer: &'z DataflowAnalyzer,
    cluster: ClusterShape,
    /// A rejection that precedes every per-candidate check: the plane
    /// needs an unavailable inter-cluster reduce, or the schedule fails
    /// Rule 3's temporal face.
    early: Option<AnalysisError>,
    /// An attention chain outside the C-strip order, or with N split
    /// across clusters. Reported after the capacity checks, as
    /// [`AnalysisError::AttentionNeedsCStrip`].
    attention_illegal: bool,
    attention: bool,
    /// 2 for gated chains (two B branches), else 1.
    branches: u64,
    c_strip_order: bool,
    trips_m: u64,
    trips_n: u64,
    clusters: u64,
    blocks: u64,
    traffic: MandatoryTraffic,
    c_tile_bytes: u64,
    /// f32 accumulator of the GEMM0 tile.
    c_accum: u64,
    reg_volume: u64,
    /// Blocks per shuffle group, and shuffle groups per cluster.
    shuffle_group: u64,
    shuffle_groups: u64,
    /// Shuffle groups per reduce, and reduce groups per cluster.
    reduce_group: u64,
    reduce_groups: u64,
}

impl DataflowAnalyzer {
    /// Creates the analyzer with the FlashFuser default (spill up to DSM,
    /// TMA atomic inter-cluster reduction available).
    pub fn new(params: MachineDescriptor) -> Self {
        Self {
            params,
            lowest_spill: MemLevel::Dsm,
            allow_inter_cluster_reduce: true,
        }
    }

    /// Overrides the lowest spill tier (builder style).
    pub fn with_lowest_spill(mut self, lowest: MemLevel) -> Self {
        self.lowest_spill = lowest;
        self
    }

    /// Enables/disables the `inter_cluster_reduce` path (builder style).
    /// Pre-Hopper baselines (BOLT, Chimera, MCFuser) lack the TMA
    /// `cp.reduce.async.bulk` instruction and must disable it.
    pub fn with_inter_cluster_reduce(mut self, allow: bool) -> Self {
        self.allow_inter_cluster_reduce = allow;
        self
    }

    /// The configured lowest spill tier.
    pub fn lowest_spill(&self) -> MemLevel {
        self.lowest_spill
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &MachineDescriptor {
        &self.params
    }

    /// Runs Algorithm 1 on one candidate.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the candidate is geometrically or
    /// capacity-wise infeasible — the analyzer doubles as the oracle for
    /// pruning Rules 3–5.
    pub fn analyze(
        &self,
        chain: &ChainSpec,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
    ) -> Result<DataflowAnalysis, AnalysisError> {
        let geometry = PlanGeometry::derive(chain.dims(), schedule, cluster, tile)?;
        self.analyze_with_geometry(chain, schedule, cluster, tile, geometry)
    }

    /// [`DataflowAnalyzer::analyze`] for callers that already hold the
    /// candidate's [`PlanGeometry`]: [`DataflowAnalyzer::score`], then
    /// [`DataflowAnalyzer::materialise`]. `geometry` must come from the
    /// same `(chain.dims(), schedule, cluster, tile)`.
    ///
    /// The search engine does not call this: it scores every candidate
    /// and materialises only its top-K finalists. Brute force, the
    /// Table III count's callers and the differential tests do.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the candidate is structurally or
    /// capacity-wise infeasible (Rules 3–5).
    pub fn analyze_with_geometry(
        &self,
        chain: &ChainSpec,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
        geometry: PlanGeometry,
    ) -> Result<DataflowAnalysis, AnalysisError> {
        let terms = self.score(chain, schedule, cluster, tile, geometry)?;
        Ok(self.materialise(chain, schedule, cluster, tile, &terms))
    }

    /// Algorithm 1 without the plan: checks Rules 3–5 and charges every
    /// tier, allocating nothing. `geometry` must come from the same
    /// `(chain.dims(), schedule, cluster, tile)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the candidate is structurally or
    /// capacity-wise infeasible (Rules 3–5).
    pub fn score(
        &self,
        chain: &ChainSpec,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
        geometry: PlanGeometry,
    ) -> Result<CostTerms, AnalysisError> {
        let traffic = geometry.mandatory_traffic(chain, cluster, tile, self.params.l2_bytes());
        self.plane(chain, schedule, cluster, tile, &geometry, traffic)
            .score(tile, geometry)
    }

    /// The plane-level half of [`DataflowAnalyzer::score`]: everything
    /// that reads only the chain, the schedule, the cluster, `blk_m`,
    /// `blk_n` and the M/N half of the geometry. `(tile, geometry)` may
    /// be any candidate of the plane, and `traffic` its
    /// [`PlanGeometry::mandatory_traffic`] at this analyzer's L2 size —
    /// bit-equal across the plane (with `grid_k = grid_l = 1` the trip
    /// and tile factors along K and L cancel), so the search computes it
    /// once and feeds it to the cost bound and to this.
    pub fn plane(
        &self,
        chain: &ChainSpec,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
        geometry: &PlanGeometry,
        traffic: MandatoryTraffic,
    ) -> PlaneTerms<'_> {
        let early = if geometry.needs_inter_cluster_reduce() && !self.allow_inter_cluster_reduce {
            Some(AnalysisError::InterClusterReduceUnavailable)
        } else if !schedule.is_spatial(Dim::K) && schedule.innermost_temporal() != Some(Dim::K) {
            // Rule 3 (temporal face): a temporal K must be innermost,
            // else the activation between the GEMMs would consume
            // partial sums.
            Some(AnalysisError::KNotInnermost)
        } else {
            None
        };
        let c_strip_order = !schedule.is_spatial(Dim::N)
            && !schedule.is_spatial(Dim::L)
            && schedule.is_outer(Dim::L, Dim::N);
        let attention = chain.kind().is_attention();
        // Attention's rowwise softmax reads *complete* score rows, so a
        // fused plan must materialise the whole C strip of a block-row
        // before GEMM1 starts: only the C-strip order qualifies, and the
        // full N extent must live inside one cluster (a spatial N grid
        // would split rows across clusters with no DSM path between
        // them).
        let attention_illegal = attention && (!c_strip_order || geometry.grid(Dim::N) > 1);
        let clusters = geometry.clusters_total();
        let shuffle_group = cluster.cls_shuffle() as u64;
        let reduce_group = cluster.cls_reduce() as u64;
        PlaneTerms {
            analyzer: self,
            cluster,
            early,
            attention_illegal,
            attention,
            branches: if chain.kind().is_gated() { 2 } else { 1 },
            c_strip_order,
            trips_m: geometry.trips(Dim::M) as u64,
            trips_n: geometry.trips(Dim::N) as u64,
            clusters,
            blocks: geometry.blocks_total(cluster),
            traffic,
            c_tile_bytes: tile.c_tile_bytes(),
            c_accum: (tile.m * tile.n) as u64 * 4,
            // Tensor-core operand feed out of the register file: ~3
            // bytes per FLOP-pair (two f16 operands in, f32 accumulate
            // forwarded).
            reg_volume: (chain.total_flops() as f64 * 1.5) as u64,
            shuffle_group,
            shuffle_groups: cluster.blocks() as u64 / shuffle_group,
            reduce_group,
            reduce_groups: cluster.blocks() as u64 / reduce_group,
        }
    }

    /// Builds the [`FusedPlan`] and its [`ResourceMapping`] for a scored
    /// candidate. `terms` must be [`DataflowAnalyzer::score`]'s answer
    /// for the same `(chain, schedule, cluster, tile)`.
    pub fn materialise(
        &self,
        chain: &ChainSpec,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
        terms: &CostTerms,
    ) -> DataflowAnalysis {
        let staged = |bytes: u64| TensorMapping::single(MemLevel::Smem, 2 * bytes);
        let mut mapping = ResourceMapping::new();
        mapping.insert(TensorRole::A, staged(tile.a_tile_bytes()));
        mapping.insert(TensorRole::B, staged(tile.b_tile_bytes()));
        if chain.kind().is_gated() {
            mapping.insert(TensorRole::BGate, staged(tile.b_tile_bytes()));
        }
        mapping.insert(TensorRole::D, staged(tile.d_tile_bytes()));
        let strip_role = match terms.strip_kind {
            StripKind::CStrip => TensorRole::CStrip,
            StripKind::EStrip => TensorRole::EStrip,
        };
        mapping.insert(strip_role, terms.strip_placement.into());
        DataflowAnalysis {
            plan: FusedPlan {
                chain: chain.clone(),
                schedule: schedule.clone(),
                cluster,
                tile,
                geometry: terms.geometry,
                mapping,
            },
            terms: *terms,
        }
    }
}

impl PlaneTerms<'_> {
    /// `true` when no candidate of the plane can pass
    /// [`PlaneTerms::score`], whatever its `blk_k` and `blk_l`: one of
    /// the plane-level rejections holds, the GEMM0 accumulator alone
    /// overflows the register file, or the intermediate tile pair alone
    /// overflows SMEM.
    pub fn infeasible(&self) -> bool {
        let params = &self.analyzer.params;
        self.early.is_some()
            || self.attention_illegal
            || self.c_accum > params.reg_bytes_per_sm()
            || 2 * self.c_tile_bytes > params.smem_bytes_per_sm()
    }

    /// The candidate-level half of [`DataflowAnalyzer::score`]. `tile`
    /// and `geometry` must belong to a candidate of this plane.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the candidate is structurally or
    /// capacity-wise infeasible (Rules 3–5). Precedence, when several
    /// hold: inter-cluster reduce, Rule 3, accumulators, working set,
    /// attention's strip order, strip placement.
    #[inline]
    pub fn score(
        &self,
        tile: BlockTile,
        geometry: PlanGeometry,
    ) -> Result<CostTerms, AnalysisError> {
        if let Some(early) = self.early {
            return Err(early);
        }
        let params = &self.analyzer.params;
        let (cluster, branches) = (self.cluster, self.branches);
        let (trips_m, trips_n, clusters, blocks) =
            (self.trips_m, self.trips_n, self.clusters, self.blocks);

        // --- Register accumulators (f32). --------------------------------
        let e_accum = (tile.m * tile.l) as u64 * 4;
        let reg_needed = self.c_accum.max(e_accum);
        if reg_needed > params.reg_bytes_per_sm() {
            return Err(AnalysisError::AccumulatorTooLarge {
                required: reg_needed,
                available: params.reg_bytes_per_sm(),
            });
        }

        // --- Streaming working set in SMEM (double-buffered stages). -----
        let smem_working = 2
            * (tile.a_tile_bytes() + branches * tile.b_tile_bytes() + tile.d_tile_bytes())
            + 2 * self.c_tile_bytes;
        if smem_working > params.smem_bytes_per_sm() {
            return Err(AnalysisError::WorkingSetTooLarge {
                required: smem_working,
                available: params.smem_bytes_per_sm(),
            });
        }

        // --- Reused strip footprint (Fig. 9). -----------------------------
        let trips_l = geometry.trips(Dim::L) as u64;
        let trips_k = geometry.trips(Dim::K) as u64;
        let c_strip_order = self.c_strip_order;
        let (strip_kind, strip_footprint, reuse_passes) = if c_strip_order {
            // L outer: hold the C strip, re-read it on every L trip.
            (StripKind::CStrip, trips_n * self.c_tile_bytes, trips_l)
        } else {
            // N outer (or spatial): accumulate the E strip across N trips.
            let footprint = if trips_n > 1 {
                trips_l * tile.e_tile_bytes()
            } else {
                tile.e_tile_bytes()
            };
            (StripKind::EStrip, footprint, 2 * trips_n - 1)
        };

        if self.attention_illegal {
            return Err(AnalysisError::AttentionNeedsCStrip);
        }

        // --- Greedy placement (Algorithm 1 lines 15-23). ------------------
        let free_smem = params.smem_bytes_per_sm() - smem_working;
        let free_reg = params.reg_bytes_per_sm() - reg_needed;
        let peer_blocks = cluster.blocks().saturating_sub(1) as u64;
        // The pool one peer contributes over the fabric is its Cluster-
        // tier window minus its own working set (peers run the same
        // kernel). On machines where the window is the peer's whole
        // scratchpad (H100) this is exactly the peer's free SMEM.
        let peer_free = params.capacity(MemLevel::Dsm).saturating_sub(smem_working);
        // In `SPILL_ORDER`. The DSM pool is the aggregated free window of
        // the peer blocks in the cluster. Strips of peer blocks are
        // disjoint slices of the same logical tensor, so per-block
        // accounting against the peer pool does not double-count (see
        // DESIGN.md).
        let budget = [free_reg, free_smem, peer_blocks * peer_free, u64::MAX];
        let lowest = self.analyzer.lowest_spill;
        let strip_placement = Placement::greedy(strip_footprint, budget, lowest).ok_or(
            AnalysisError::StripDoesNotFit {
                footprint: strip_footprint,
                lowest,
            },
        )?;

        // --- Global tile traffic (multicast-deduplicated). ----------------
        // Shared with the cost model's admissible lower bound — see
        // `PlanGeometry::mandatory_traffic`.
        let (cls_m, cls_n, cls_k) = (cluster.m() as u64, cluster.n() as u64, cluster.k() as u64);
        let l2_raw = self.traffic.l2_raw_bytes;
        let mut global = self.traffic.hbm_bytes;

        // --- Strip spill traffic per tier. ---------------------------------
        let mut volumes = [0u64; MemLevel::ALL.len()];
        for &(level, alloc) in strip_placement.allocations() {
            let passes = reuse_passes.max(1);
            let touched = blocks * trips_m * alloc * passes;
            volumes[level.index()] += touched;
        }
        let strip_global_spill = volumes[MemLevel::Global.index()];
        global += strip_global_spill;

        // --- dsm_comm traffic. ---------------------------------------------
        let mut dsm = CommVolume::default();
        let mut dsm_steps = 0u64;
        let mut barriers = 0u64;
        let uses_exchange = cls_k > 1;
        if uses_exchange {
            // Gated chains exchange both branch accumulators.
            let exchange_bytes = branches * self.c_tile_bytes;
            let invocations = clusters * trips_m * trips_n * cls_m * cls_n;
            dsm = dsm.merge(all_exchange_volume(cluster.k(), exchange_bytes).scaled(invocations));
            let per_block = trips_m * trips_n * (cls_k - 1);
            dsm_steps += per_block;
            barriers += trips_m * trips_n;
        }
        if self.attention && cls_n > 1 {
            // Rowwise softmax statistics: the C strip of one block-row is
            // split across the cls_n column-owner blocks, so the row max
            // and the row sum are each combined in an all-exchange round
            // among those blocks — 2 rounds of cls_n*(cls_n-1) messages
            // of tile.m f32 stats per strip, once per (m-trip, m-row).
            // The stats live entirely in the cluster's DSM tier; nothing
            // touches HBM (the traffic the paper saves).
            let stat_bytes = 2 * cls_n * (cls_n - 1) * tile.m as u64 * 4;
            let invocations = clusters * trips_m * cls_m;
            dsm.dsm_bytes += invocations * stat_bytes;
            dsm_steps += trips_m * 2 * (cls_n - 1);
            barriers += trips_m * 2;
        }
        let shuffle_group = self.shuffle_group;
        if shuffle_group > 1 {
            // In the E-strip order a received C tile serves every L trip,
            // so the ring runs once per (m, n) iteration; the C-strip
            // order re-shuffles per (l, n) iteration.
            let shuffle_repeats = if c_strip_order { trips_l } else { 1 };
            let invocations = clusters * trips_m * trips_n * shuffle_repeats * self.shuffle_groups;
            dsm = dsm.merge(
                shuffle_volume(shuffle_group as usize, self.c_tile_bytes).scaled(invocations),
            );
            dsm_steps += trips_m * trips_n * shuffle_repeats * (shuffle_group - 1);
            barriers += trips_m * trips_n * shuffle_repeats * (shuffle_group - 1);
        }
        let reduce_group = self.reduce_group;
        if reduce_group > 1 {
            let invocations = clusters * trips_m * trips_l * self.reduce_groups;
            dsm = dsm.merge(
                reduce_scatter_volume(reduce_group as usize, tile.e_tile_bytes())
                    .scaled(invocations),
            );
            dsm_steps += trips_m * trips_l * (reduce_group - 1);
            barriers += trips_m * trips_l;
        }
        volumes[MemLevel::Dsm.index()] += dsm.dsm_bytes;
        global += dsm.global_bytes;

        // --- SMEM / register volume. ---------------------------------------
        // Everything loaded from global lands in SMEM; DSM transfers read
        // peer SMEM and write local SMEM; MMA operand reads come on top.
        let mma_reads = blocks
            * trips_m
            * trips_n
            * (trips_k * (tile.a_tile_bytes() + branches * tile.b_tile_bytes())
                + trips_l * (self.c_tile_bytes + tile.d_tile_bytes()));
        let smem_volume = l2_raw + strip_global_spill + 2 * dsm.dsm_bytes + mma_reads;
        volumes[MemLevel::Smem.index()] += smem_volume;
        volumes[MemLevel::Reg.index()] += self.reg_volume;
        volumes[MemLevel::Global.index()] = global;
        // L2 sees every load, including the re-loads it filters from HBM.
        volumes[MemLevel::L2.index()] += l2_raw + strip_global_spill;

        Ok(CostTerms {
            geometry,
            volumes,
            strip_kind,
            strip_footprint,
            strip_placement,
            smem_working,
            dsm_steps,
            barriers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    fn chain() -> ChainSpec {
        ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu)
    }

    fn analyzer() -> DataflowAnalyzer {
        DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
    }

    fn sched(spatial: &[Dim], temporal: &[Dim]) -> LoopSchedule {
        LoopSchedule::new(spatial.to_vec(), temporal.to_vec())
    }

    #[test]
    fn k_not_innermost_rejected() {
        let s = sched(&[Dim::M], &[Dim::K, Dim::N, Dim::L]);
        let err = analyzer()
            .analyze(
                &chain(),
                &s,
                ClusterShape::single_block(),
                BlockTile::new(64, 64, 32, 64),
            )
            .unwrap_err();
        assert_eq!(err, AnalysisError::KNotInnermost);
    }

    #[test]
    fn spatial_k_bypasses_innermost_rule() {
        // K spatial within the cluster: the all_exchange completes sums.
        let s = sched(&[Dim::M, Dim::K], &[Dim::N, Dim::L]);
        let cluster = ClusterShape::new(1, 2, 2, 2).unwrap();
        let tile = BlockTile::new(64, 64, 128, 64); // cls_k*blk_k = 256 = K
        let a = analyzer().analyze(&chain(), &s, cluster, tile).unwrap();
        assert!(a.volume(MemLevel::Dsm) > 0, "exchange traffic expected");
    }

    #[test]
    fn strip_kind_follows_loop_order() {
        let tile = BlockTile::new(64, 64, 32, 64);
        let cluster = ClusterShape::single_block();
        // N outer of L -> E strip.
        let a = analyzer()
            .analyze(
                &chain(),
                &sched(&[Dim::M], &[Dim::N, Dim::L, Dim::K]),
                cluster,
                tile,
            )
            .unwrap();
        assert_eq!(a.strip_kind(), StripKind::EStrip);
        assert_eq!(a.strip_footprint(), (256 / 64) as u64 * tile.e_tile_bytes());
        // L outer of N -> C strip.
        let b = analyzer()
            .analyze(
                &chain(),
                &sched(&[Dim::M], &[Dim::L, Dim::N, Dim::K]),
                cluster,
                tile,
            )
            .unwrap();
        assert_eq!(b.strip_kind(), StripKind::CStrip);
        assert_eq!(
            b.strip_footprint(),
            (1024 / 64) as u64 * tile.c_tile_bytes()
        );
    }

    #[test]
    fn fused_global_traffic_beats_unfused() {
        // A good fused plan must move (much) less global data than the
        // unfused round-trip — the headline claim of the paper.
        let c = chain();
        let s = sched(&[Dim::M], &[Dim::N, Dim::L, Dim::K]);
        let cluster = ClusterShape::new(1, 4, 1, 4).unwrap();
        let tile = BlockTile::new(128, 128, 64, 64);
        let a = analyzer().analyze(&c, &s, cluster, tile).unwrap();
        assert!(
            a.volume(MemLevel::Global) < c.unfused_global_bytes(),
            "fused {} vs unfused {}",
            a.volume(MemLevel::Global),
            c.unfused_global_bytes()
        );
    }

    #[test]
    fn smem_only_spill_reproduces_capacity_cliff() {
        // GPT-6.7B-sized intermediate: C strip = N/blk_n * c_tile far
        // exceeds one SM's SMEM, so an SMEM-limited analyzer must fail
        // while the DSM-enabled one succeeds.
        let big = ChainSpec::standard_ffn(128, 16384, 4096, 4096, Activation::Relu);
        let s = sched(&[Dim::M], &[Dim::L, Dim::N, Dim::K]);
        let cluster_smem = ClusterShape::single_block();
        let tile = BlockTile::new(128, 128, 64, 128);
        let smem_only = analyzer().with_lowest_spill(MemLevel::Smem);
        let err = smem_only.analyze(&big, &s, cluster_smem, tile).unwrap_err();
        assert!(matches!(err, AnalysisError::StripDoesNotFit { .. }));
        // The same dataflow with a 16-block cluster fits in the DSM pool.
        let cluster_dsm = ClusterShape::new(1, 8, 2, 16).unwrap();
        let ok = analyzer().analyze(&big, &s, cluster_dsm, tile);
        assert!(ok.is_ok(), "{ok:?}");
        assert_eq!(
            ok.unwrap().plan().deepest_reused_level(),
            Some(MemLevel::Dsm)
        );
    }

    #[test]
    fn gated_chain_doubles_b_traffic() {
        let std = chain();
        let gated = ChainSpec::gated_ffn(128, 1024, 256, 256, Activation::Silu);
        let s = sched(&[Dim::M], &[Dim::N, Dim::L, Dim::K]);
        let cluster = ClusterShape::single_block();
        let tile = BlockTile::new(128, 64, 32, 64);
        let a_std = analyzer().analyze(&std, &s, cluster, tile).unwrap();
        let a_gated = analyzer().analyze(&gated, &s, cluster, tile).unwrap();
        let diff = a_gated.volume(MemLevel::Global) - a_std.volume(MemLevel::Global);
        // The extra traffic is exactly one more pass over B.
        let b_pass = (1024 / 64) * (256 / 32) * tile.b_tile_bytes();
        assert_eq!(diff, b_pass);
    }

    #[test]
    fn dsm_traffic_scales_with_shuffle_group() {
        let c = chain();
        let s = sched(&[Dim::M], &[Dim::N, Dim::L, Dim::K]);
        let tile = BlockTile::new(64, 64, 32, 32);
        let small = ClusterShape::new(1, 2, 1, 2).unwrap(); // shuffle = 2
        let large = ClusterShape::new(1, 8, 1, 8).unwrap(); // shuffle = 8
        let a_small = analyzer().analyze(&c, &s, small, tile).unwrap();
        let a_large = analyzer().analyze(&c, &s, large, tile).unwrap();
        assert!(a_large.volume(MemLevel::Dsm) > a_small.volume(MemLevel::Dsm));
    }

    #[test]
    fn working_set_overflow_rejected() {
        let tile = BlockTile::new(128, 512, 256, 128);
        let err = analyzer()
            .analyze(
                &chain(),
                &sched(&[Dim::M], &[Dim::N, Dim::L, Dim::K]),
                ClusterShape::single_block(),
                tile,
            )
            .unwrap_err();
        // 2*(128*256 + 256*512 + 512*128)*2B + 2*128*512*2B = 1.15 MB > 227 KB
        // ... but the register accumulator check fires first (128*512*4B =
        // 256 KB > 128 KB), which is also a Rule 5 capacity rejection.
        assert!(
            matches!(
                err,
                AnalysisError::WorkingSetTooLarge { .. }
                    | AnalysisError::AccumulatorTooLarge { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn volumes_present_for_all_levels() {
        let a = analyzer()
            .analyze(
                &chain(),
                &sched(&[Dim::M], &[Dim::N, Dim::L, Dim::K]),
                ClusterShape::new(1, 2, 2, 2).unwrap(),
                BlockTile::new(64, 64, 32, 64),
            )
            .unwrap();
        for level in [
            MemLevel::Reg,
            MemLevel::Smem,
            MemLevel::Global,
            MemLevel::L2,
        ] {
            assert!(a.volume(level) > 0, "no volume at {level}");
        }
        assert!(a.dsm_steps() > 0);
        assert!(a.barriers() > 0);
    }
}
