//! The analytical cost model (paper §IV-C1, Eq. 1–3).
//!
//! Each memory tier `l` contributes `C_l = V_l / B_l`; the plan's
//! estimated time is the *bottleneck* stage —
//! `max(compute, max_l C_l)` — because a well-pipelined kernel overlaps
//! compute with every transfer tier. The search engine minimises this
//! minimax objective (Eq. 2) subject to the capacity constraints the
//! analyzer already enforced (Eq. 3).
//!
//! The model deliberately ignores latency chains, barrier costs and wave
//! quantisation — the second-order effects the simulator *does* model —
//! which is exactly why the paper profiles the top-K candidates on
//! hardware instead of trusting rank 1 (Fig. 12).

use crate::analyzer::{CostTerms, DataflowAnalysis};
use crate::comm::geometry::H100_MAX_CLUSTER;
use crate::comm::ClusterShape;
use crate::machine::{MachineDescriptor, MemLevel};
use crate::plan::PlanGeometry;
use crate::schedule::LoopSchedule;
use crate::tiling::BlockTile;
use flashfuser_graph::{ChainSpec, Dim};
use std::collections::BTreeMap;
use std::fmt;

/// Fraction of the serialised DSM-hop/barrier chain that survives
/// software pipelining (double-buffered rings hide the rest). Shared
/// with the simulator's timing model so both cost plans consistently.
pub const LATENCY_AMORTIZATION: f64 = 0.15;

/// Per-tier cost decomposition of one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Tensor-core time, seconds.
    pub compute_s: f64,
    /// Transfer time per tier, seconds.
    pub tier_s: BTreeMap<MemLevel, f64>,
    /// Un-overlapped communication-latency chain, seconds.
    pub latency_s: f64,
    /// The bottleneck estimate: `max(compute, max_l tier) + latency`.
    pub est_s: f64,
    /// Which stage is the bottleneck (`None` = compute-bound).
    pub bottleneck: Option<MemLevel>,
}

impl CostBreakdown {
    /// Estimated TFLOP/s implied by the estimate.
    pub fn tflops(&self, total_flops: u64) -> f64 {
        total_flops as f64 / self.est_s / 1e12
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "est {:.3} us (compute {:.3} us",
            self.est_s * 1e6,
            self.compute_s * 1e6
        )?;
        for (level, s) in &self.tier_s {
            write!(f, ", {level} {:.3} us", s * 1e6)?;
        }
        match self.bottleneck {
            Some(l) => write!(f, ") bottleneck={l}"),
            None => write!(f, ") compute-bound"),
        }
    }
}

/// The half of Eq. 1–2 that a whole `(schedule, cluster, blk_m, blk_n)`
/// plane of candidates shares: everything the model derives from the
/// chain's FLOPs, the block count and the cluster size. Every candidate
/// of a plane launches the same grid, so the search computes this once
/// per plane ([`CostModel::plane_pricing`]) and prices each candidate's
/// volumes against it ([`CostModel::estimate`]).
///
/// Like Chimera's model (which this one extends, §IV-C1), the tier costs
/// account for parallelism: a grid with fewer resident blocks than SMs
/// can neither saturate the memory system nor fill the tensor cores, so
/// both are derated by the occupancy fraction.
#[derive(Debug, Clone, Copy)]
pub struct PlanePricing {
    /// Tensor-core time at the grid's wave-quantised occupancy, seconds.
    compute_s: f64,
    /// Bandwidth of each tier at the cluster size in effect, derated by
    /// the grid's occupancy; indexed by [`MemLevel::index`].
    tier_bw: [f64; MemLevel::ALL.len()],
    /// Fabric remote-access latency at the cluster size, cycles.
    dsm_latency_cycles: f64,
}

impl PlanePricing {
    /// The admissible bound `max(compute time, minimum-HBM-traffic
    /// time)` for a plane whose mandatory traffic reaches HBM with
    /// `hbm_bytes` (see [`CostModel::lower_bound`]).
    pub fn lower_bound(&self, hbm_bytes: u64) -> f64 {
        let hbm_s = hbm_bytes as f64 / self.tier_bw[MemLevel::Global.index()];
        self.compute_s.max(hbm_s)
    }
}

/// What the pricing core returns: [`CostBreakdown`] without its map.
struct Priced {
    /// Transfer time per tier; only tiers with a non-zero volume count.
    tier_s: [f64; MemLevel::ALL.len()],
    latency_s: f64,
    est_s: f64,
    bottleneck: Option<MemLevel>,
}

/// Fabric bandwidth and remote-access latency at one cluster size — a
/// `log2` and a `powf` each, which is why [`CostModel`] tabulates them.
fn dsm_terms(params: &MachineDescriptor, cluster_size: usize) -> (f64, f64) {
    (
        params.dsm_bw(cluster_size),
        params.dsm_latency_cycles(cluster_size),
    )
}

/// The minimax cost model over [`MachineDescriptor`] bandwidths.
#[derive(Debug, Clone)]
pub struct CostModel {
    params: MachineDescriptor,
    /// [`dsm_terms`] by cluster size, for every size a
    /// [`ClusterShape::new`] cluster can have: the search asks once per
    /// plane.
    dsm_by_cluster: Vec<(f64, f64)>,
    cycle_s: f64,
}

impl CostModel {
    /// Creates the model.
    pub fn new(params: MachineDescriptor) -> Self {
        let dsm_by_cluster = (0..=H100_MAX_CLUSTER)
            .map(|size| dsm_terms(&params, size))
            .collect();
        let cycle_s = params.cycle_s();
        Self {
            params,
            dsm_by_cluster,
            cycle_s,
        }
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &MachineDescriptor {
        &self.params
    }

    /// The plane-invariant half of the model for a grid of `blocks`
    /// blocks in clusters of `cluster_size`, running `flops` FLOPs.
    pub fn plane_pricing(&self, flops: u64, blocks: u64, cluster_size: usize) -> PlanePricing {
        let sms = self.params.num_sms() as u64;
        let waves = blocks.div_ceil(sms).max(1);
        let wave_eff = blocks as f64 / (waves * sms) as f64;
        let bw_util = (blocks as f64 / sms as f64).clamp(0.05, 1.0);
        let compute_s = flops as f64 / self.params.peak_flops() / wave_eff;
        let (dsm_bw, dsm_latency_cycles) = self
            .dsm_by_cluster
            .get(cluster_size)
            .copied()
            .unwrap_or_else(|| dsm_terms(&self.params, cluster_size));
        let tier_bw = MemLevel::ALL.map(|level| {
            let bw = match level {
                MemLevel::Dsm => dsm_bw,
                _ => self.params.bandwidth(level, cluster_size),
            };
            bw * bw_util
        });
        PlanePricing {
            compute_s,
            tier_bw,
            dsm_latency_cycles,
        }
    }

    /// The one pricing core: Eq. 1–2 over per-tier volumes plus the
    /// amortized DSM-latency chain. [`CostModel::evaluate`] and
    /// [`CostModel::estimate`] both end here, so their `est_s` are
    /// bit-equal by construction.
    #[inline]
    fn price(&self, pricing: &PlanePricing, terms: &CostTerms) -> Priced {
        let mut tier_s = [0.0; MemLevel::ALL.len()];
        let mut est_s = pricing.compute_s;
        let mut bottleneck = None;
        for level in MemLevel::ALL {
            let v = terms.volume(level);
            if v == 0 {
                continue;
            }
            let t = v as f64 / pricing.tier_bw[level.index()];
            tier_s[level.index()] = t;
            if t > est_s {
                est_s = t;
                bottleneck = Some(level);
            }
        }
        let latency_s = LATENCY_AMORTIZATION
            * (terms.dsm_steps() as f64 * pricing.dsm_latency_cycles
                + terms.barriers() as f64 * self.params.barrier_cycles())
            * self.cycle_s;
        Priced {
            tier_s,
            latency_s,
            est_s: est_s + latency_s,
            bottleneck,
        }
    }

    /// Evaluates Eq. 1–2 for an analyzed plan, plus the amortized
    /// DSM-latency chain (hops and barriers that pipelining cannot hide).
    pub fn evaluate(&self, analysis: &DataflowAnalysis) -> CostBreakdown {
        let plan = analysis.plan();
        let pricing = self.plane_pricing(
            plan.chain.total_flops(),
            plan.blocks_total(),
            plan.cluster.blocks(),
        );
        let priced = self.price(&pricing, analysis);
        let tier_s = MemLevel::ALL
            .into_iter()
            .filter(|level| analysis.volume(*level) != 0)
            .map(|level| (level, priced.tier_s[level.index()]))
            .collect();
        CostBreakdown {
            compute_s: pricing.compute_s,
            tier_s,
            latency_s: priced.latency_s,
            est_s: priced.est_s,
            bottleneck: priced.bottleneck,
        }
    }

    /// [`CostModel::evaluate`]`.est_s` for a scored candidate, without
    /// building the plan or the breakdown: what the search ranks on.
    /// `pricing` must be the candidate's plane's.
    #[inline]
    pub fn estimate(&self, pricing: &PlanePricing, terms: &CostTerms) -> f64 {
        self.price(pricing, terms).est_s
    }

    /// An optimistic whole-chain bound used by the graph partitioner to
    /// score a prospective fused segment *before any search runs*: the
    /// roofline maximum of perfect-occupancy tensor-core time and the
    /// chain's minimum fused HBM traffic
    /// ([`ChainSpec::fused_min_global_bytes`]) at full achievable
    /// bandwidth.
    ///
    /// Both terms underestimate their counterparts in
    /// [`CostModel::evaluate`] (which derates by occupancy and only adds
    /// tiers and latency on top), so the score never overstates the
    /// value of fusing a segment — the same admissibility philosophy as
    /// the candidate-level [`CostModel::lower_bound`], one level up.
    pub fn chain_lower_bound(&self, chain: &ChainSpec) -> f64 {
        let compute_s = chain.total_flops() as f64 / self.params.peak_flops();
        let hbm_s = chain.fused_min_global_bytes() as f64 / self.params.hbm_bw();
        compute_s.max(hbm_s)
    }

    /// An *admissible* lower bound on [`CostModel::evaluate`]`.est_s` for
    /// one candidate, computable from the plan geometry alone — no
    /// dataflow analysis, no resource mapping, no allocation.
    ///
    /// The bound is `max(compute time, minimum-HBM-traffic time)` where:
    ///
    /// * the compute term is *identical* to the one `evaluate` charges
    ///   (same wave-quantised occupancy derate — both read it off
    ///   [`CostModel::plane_pricing`]), and
    /// * the HBM term prices the A/B/D/E tile traffic through the same
    ///   [`PlanGeometry::mandatory_traffic`] helper the analyzer itself
    ///   charges — the analyzer only ever *adds* strip-spill and
    ///   inter-cluster-reduce bytes on top, and `evaluate` only ever
    ///   adds the non-negative latency chain.
    ///
    /// Hence for every candidate the analyzer accepts,
    /// `lower_bound <= evaluate(analysis).est_s` holds exactly, which is
    /// what lets the search engine skip scoring for candidates that
    /// cannot beat the current top-K worst without ever changing the
    /// search result (see `SearchEngine`).
    ///
    /// Returns `None` when the geometry itself is infeasible or Rule 3's
    /// temporal face fails — cases the analyzer would reject anyway.
    pub fn lower_bound(
        &self,
        chain: &ChainSpec,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
    ) -> Option<f64> {
        let geometry = PlanGeometry::derive(chain.dims(), schedule, cluster, tile).ok()?;
        if !schedule.is_spatial(Dim::K) && schedule.innermost_temporal() != Some(Dim::K) {
            return None;
        }
        Some(self.lower_bound_for(chain, &geometry, cluster, tile))
    }

    /// The pricing half of [`CostModel::lower_bound`], for callers that
    /// already derived the candidate's [`PlanGeometry`]. `geometry` must
    /// come from the same `(chain, schedule, cluster, tile)`.
    ///
    /// With `grid_k = grid_l = 1` — which `PlanGeometry::derive`
    /// enforces — the result does not depend on `tile.k` or `tile.l`
    /// (the trip and tile factors of the mandatory traffic cancel), and
    /// `tests/search_parallel.rs` pins that. The search engine relies on
    /// it: it computes the two halves of this function —
    /// [`CostModel::plane_pricing`] and the mandatory traffic — once per
    /// `(blk_m, blk_n)` plane, takes the plane's bound from them
    /// ([`PlanePricing::lower_bound`]) and reuses both for every
    /// candidate it then scores.
    // Still probed once per candidate by loops in other crates (the
    // differential tests, the benchmark's trace bin): without the hint,
    // whether it inlines there is up to how the codegen units happen to
    // be cut.
    #[inline]
    pub fn lower_bound_for(
        &self,
        chain: &ChainSpec,
        geometry: &PlanGeometry,
        cluster: ClusterShape,
        tile: BlockTile,
    ) -> f64 {
        let blocks = geometry.blocks_total(cluster);
        // The analyzer's mandatory A/B/D/E traffic — the same helper the
        // analyzer itself charges, so the two cannot drift apart.
        let traffic = geometry.mandatory_traffic(chain, cluster, tile, self.params.l2_bytes());
        self.plane_pricing(chain.total_flops(), blocks, cluster.blocks())
            .lower_bound(traffic.hbm_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DataflowAnalyzer;
    use crate::comm::ClusterShape;
    use crate::schedule::LoopSchedule;
    use crate::tiling::BlockTile;
    use flashfuser_graph::{ChainSpec, Dim};
    use flashfuser_tensor::Activation;

    fn analyzed(chain: &ChainSpec, cluster: ClusterShape, tile: BlockTile) -> DataflowAnalysis {
        let s = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(chain, &s, cluster, tile)
            .unwrap()
    }

    #[test]
    fn estimate_is_max_of_stages() {
        let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
        let a = analyzed(
            &chain,
            ClusterShape::new(1, 2, 2, 2).unwrap(),
            BlockTile::new(64, 64, 32, 64),
        );
        let cb = CostModel::new(MachineDescriptor::h100_sxm()).evaluate(&a);
        let max_tier = cb.tier_s.values().copied().fold(0.0, f64::max);
        assert!((cb.est_s - cb.latency_s - cb.compute_s.max(max_tier)).abs() < 1e-15);
        assert!(cb.est_s > 0.0);
    }

    #[test]
    fn memory_bound_small_m_chain() {
        // M=128 FFN chains are memory-bound (the paper's premise): the
        // bottleneck must be a memory tier, not compute.
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let a = analyzed(
            &chain,
            ClusterShape::new(1, 4, 2, 8).unwrap(),
            BlockTile::new(128, 128, 64, 128),
        );
        let cb = CostModel::new(MachineDescriptor::h100_sxm()).evaluate(&a);
        assert!(cb.bottleneck.is_some(), "expected memory-bound: {cb}");
    }

    #[test]
    fn tflops_inverse_to_time() {
        let chain = ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu);
        let a = analyzed(
            &chain,
            ClusterShape::single_block(),
            BlockTile::new(64, 64, 32, 64),
        );
        let cb = CostModel::new(MachineDescriptor::h100_sxm()).evaluate(&a);
        let t = cb.tflops(chain.total_flops());
        assert!(t > 0.0);
        assert!(t <= MachineDescriptor::h100_sxm().peak_flops() / 1e12 + 1e-9);
    }

    #[test]
    fn display_mentions_bottleneck() {
        let chain = ChainSpec::standard_ffn(128, 4096, 1024, 1024, Activation::Relu);
        let a = analyzed(
            &chain,
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(128, 64, 64, 64),
        );
        let cb = CostModel::new(MachineDescriptor::h100_sxm()).evaluate(&a);
        assert!(cb.to_string().contains("est"));
    }
}
