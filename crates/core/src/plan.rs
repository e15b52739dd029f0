//! The fused execution plan and its derived geometry.
//!
//! A [`FusedPlan`] is the complete `p_final` of Algorithm 1: loop
//! schedule + tile sizes + cluster shape + resource mapping. The
//! [`PlanGeometry`] derives the grid/trip structure every consumer
//! (analyzer, cost model, simulator) agrees on:
//!
//! For each dimension `d`:
//! `S_d = grid_d (clusters) x cls_d (blocks in cluster) x trips_d
//! (temporal iterations) x blk_d (tile)`.
//! Spatial dims have `trips_d = 1`; temporal dims have `grid_d = 1`.

use crate::comm::ClusterShape;
use crate::machine::MemLevel;
use crate::mapping::ResourceMapping;
use crate::schedule::LoopSchedule;
use crate::tiling::BlockTile;
use flashfuser_graph::{ChainDims, ChainSpec, Dim};
use std::error::Error;
use std::fmt;

/// Why a (schedule, cluster, tile) triple cannot be realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// `S_d` is not divisible by `blk_d x cls_d` for some dim.
    Indivisible {
        /// The offending dimension.
        dim: Dim,
        /// Problem extent.
        size: usize,
        /// `blk_d * cls_d`.
        unit: usize,
    },
    /// K is schedule-spatial but one cluster cannot cover it — partial
    /// sums of `C` would cross clusters, where no activation-correct
    /// combine path exists (pruning Rule 3's spatial face).
    SpatialKAcrossClusters,
    /// L is schedule-spatial but one cluster cannot cover it — every
    /// L-cluster would need the whole intermediate with no path to share
    /// it (pruning Rule 4).
    SpatialLAcrossClusters,
    /// A plan's stored geometry disagrees with what its own
    /// `(dims, schedule, cluster, tile)` derive to — the plan was
    /// hand-built or corrupted (see [`FusedPlan::check_geometry`]).
    GeometryMismatch,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Indivisible { dim, size, unit } => {
                write!(
                    f,
                    "dim {dim}: extent {size} not divisible by cls*blk = {unit}"
                )
            }
            PlanError::SpatialKAcrossClusters => {
                write!(f, "spatial K spans multiple clusters (no combine path)")
            }
            PlanError::SpatialLAcrossClusters => {
                write!(f, "spatial L spans multiple clusters (no data path for C)")
            }
            PlanError::GeometryMismatch => {
                write!(f, "plan geometry disagrees with its schedule/cluster/tile")
            }
        }
    }
}

impl Error for PlanError {}

/// Derived per-dimension structure of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanGeometry {
    /// Clusters along each dim (canonical M,N,K,L order).
    pub grid: [usize; 4],
    /// Temporal iterations per block along each dim.
    pub trips: [usize; 4],
}

impl PlanGeometry {
    /// Derives the geometry, validating divisibility and the cross-cluster
    /// constraints on K and L.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for indivisible or cross-cluster-illegal
    /// combinations.
    pub fn derive(
        dims: ChainDims,
        schedule: &LoopSchedule,
        cluster: ClusterShape,
        tile: BlockTile,
    ) -> Result<Self, PlanError> {
        let mut geometry = Self::UNIT;
        for dim in Dim::ALL {
            let size = dims.size(dim);
            let unit = tile.by_index(dim.index()) * cluster.size(dim);
            if unit == 0 || !size.is_multiple_of(unit) {
                return Err(PlanError::Indivisible { dim, size, unit });
            }
            geometry.set_count(dim, schedule.is_spatial(dim), size / unit);
        }
        if geometry.grid(Dim::K) > 1 {
            return Err(PlanError::SpatialKAcrossClusters);
        }
        if geometry.grid(Dim::L) > 1 {
            return Err(PlanError::SpatialLAcrossClusters);
        }
        Ok(geometry)
    }

    /// One cluster, one trip along every dim — what
    /// [`PlanGeometry::set_count`] starts from.
    pub(crate) const UNIT: PlanGeometry = PlanGeometry {
        grid: [1; 4],
        trips: [1; 4],
    };

    /// Records `count = S_d / (blk_d·cls_d)` for `dim`: clusters when
    /// the dim is spatial, trips when it is temporal.
    pub(crate) fn set_count(&mut self, dim: Dim, spatial: bool, count: usize) {
        if spatial {
            self.grid[dim.index()] = count;
        } else {
            self.trips[dim.index()] = count;
        }
    }

    /// Clusters along `dim`.
    pub fn grid(&self, dim: Dim) -> usize {
        self.grid[dim.index()]
    }

    /// Temporal trip count along `dim`.
    pub fn trips(&self, dim: Dim) -> usize {
        self.trips[dim.index()]
    }

    /// Total clusters launched.
    pub fn clusters_total(&self) -> u64 {
        self.grid.iter().map(|&g| g as u64).product()
    }

    /// Total thread blocks launched with clusters of `cluster`.
    pub fn blocks_total(&self, cluster: ClusterShape) -> u64 {
        self.clusters_total() * cluster.blocks() as u64
    }

    /// `true` when partial output sums cross clusters (N is spatial over
    /// more than one cluster), requiring `inter_cluster_reduce`.
    pub fn needs_inter_cluster_reduce(&self) -> bool {
        self.grid[Dim::N.index()] > 1
    }

    /// The *mandatory* tile traffic of this geometry — the A/B/D/E bytes
    /// every execution must move, with intra-cluster TMA multicast dedup
    /// and the L2 residency filter applied. The dataflow analyzer only
    /// ever *adds* strip-spill and DSM-communication bytes on top of
    /// `hbm_bytes`, which is what makes it a sound basis for the search
    /// engine's admissible cost lower bound. This is the single source
    /// of truth for that accounting: the analyzer and the cost model's
    /// `lower_bound_for` both call it.
    pub fn mandatory_traffic(
        &self,
        chain: &ChainSpec,
        cluster: ClusterShape,
        tile: BlockTile,
        l2_bytes: u64,
    ) -> MandatoryTraffic {
        let dims = chain.dims();
        let branches: u64 = if chain.kind().is_gated() { 2 } else { 1 };
        let clusters = self.clusters_total();
        let trips_m = self.trips(Dim::M) as u64;
        let trips_n = self.trips(Dim::N) as u64;
        let trips_k = self.trips(Dim::K) as u64;
        let trips_l = self.trips(Dim::L) as u64;
        let (cls_m, cls_n, cls_k, cls_l) = (
            cluster.m() as u64,
            cluster.n() as u64,
            cluster.k() as u64,
            cluster.l() as u64,
        );
        let a_raw = clusters * trips_m * trips_n * trips_k * cls_m * cls_k * tile.a_tile_bytes();
        let b_raw =
            clusters * trips_m * trips_n * trips_k * cls_k * cls_n * branches * tile.b_tile_bytes();
        let d_raw = clusters * trips_m * trips_n * trips_l * cls_n * cls_l * tile.d_tile_bytes();
        // E is written once per spatial-N cluster (atomic contributions
        // through the `inter_cluster_reduce` path when grid_n > 1).
        let e_bytes = dims.e_bytes_f16() * self.grid(Dim::N) as u64;
        // L2 residency filter: re-loads of a tensor whose distinct bytes
        // fit comfortably in L2 are served on-chip; only the first pass
        // (the distinct bytes) reaches HBM. Tensors larger than half the
        // L2 stream from HBM every time.
        let l2_resident = |distinct: u64, raw: u64| -> u64 {
            if distinct <= l2_bytes / 2 {
                distinct.min(raw)
            } else {
                raw
            }
        };
        MandatoryTraffic {
            hbm_bytes: l2_resident(dims.a_bytes_f16(), a_raw)
                + l2_resident(branches * dims.b_bytes_f16(), b_raw)
                + l2_resident(dims.d_bytes_f16(), d_raw)
                + e_bytes,
            l2_raw_bytes: a_raw + b_raw + d_raw + e_bytes,
        }
    }
}

/// The unavoidable A/B/D/E tile traffic of a plan geometry (see
/// [`PlanGeometry::mandatory_traffic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MandatoryTraffic {
    /// Bytes reaching HBM after the L2 residency filter.
    pub hbm_bytes: u64,
    /// Raw bytes hitting L2 (re-loads included).
    pub l2_raw_bytes: u64,
}

/// A complete fused execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedPlan {
    /// The chain being fused.
    pub chain: ChainSpec,
    /// Spatial/temporal loop partition.
    pub schedule: LoopSchedule,
    /// Cluster shape.
    pub cluster: ClusterShape,
    /// Block tile sizes.
    pub tile: BlockTile,
    /// Derived geometry (consistent with the fields above).
    pub geometry: PlanGeometry,
    /// Placement of every tensor across the hierarchy.
    pub mapping: ResourceMapping,
}

impl FusedPlan {
    /// Total thread blocks launched.
    pub fn blocks_total(&self) -> u64 {
        self.geometry.blocks_total(self.cluster)
    }

    /// Re-derives the geometry from the plan's own fields and checks it
    /// against the stored one. Plans produced by
    /// [`PlanGeometry::derive`]-based paths (the analyzer, the search
    /// engine) hold this by construction; hand-built or deserialized
    /// plans may not, and executing such a plan would index tiles out
    /// of bounds — so executors call this first and surface a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`PlanError`] when the fields no longer
    /// derive a legal geometry, or [`PlanError::GeometryMismatch`] when
    /// they derive a *different* one than the plan stores.
    pub fn check_geometry(&self) -> Result<(), PlanError> {
        let derived =
            PlanGeometry::derive(self.chain.dims(), &self.schedule, self.cluster, self.tile)?;
        if derived != self.geometry {
            return Err(PlanError::GeometryMismatch);
        }
        Ok(())
    }

    /// The slowest memory tier holding reused intermediate data — the
    /// headline property of a plan ("does it need DSM? does it spill to
    /// global?").
    pub fn deepest_reused_level(&self) -> Option<MemLevel> {
        self.mapping.deepest_reused_level()
    }
}

/// The short one-line description reports print, e.g.
/// `M|nlk cls(m=1,n=2,k=2,l=2) blk(m=64,n=64,k=32,l=64) spill=smem`.
impl fmt::Display for FusedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} spill=", self.schedule, self.cluster, self.tile)?;
        match self.deepest_reused_level() {
            Some(level) => write!(f, "{level}"),
            None => f.write_str("none"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_graph::Dim;
    use flashfuser_tensor::Activation;

    fn dims() -> ChainDims {
        ChainDims::new(128, 512, 256, 256)
    }

    fn sched_m_spatial() -> LoopSchedule {
        LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K])
    }

    #[test]
    fn geometry_accounting_identity() {
        let cluster = ClusterShape::new(1, 2, 2, 2).unwrap();
        let tile = BlockTile::new(64, 64, 32, 64);
        let g = PlanGeometry::derive(dims(), &sched_m_spatial(), cluster, tile).unwrap();
        for dim in Dim::ALL {
            let covered =
                g.grid(dim) * cluster.size(dim) * g.trips(dim) * tile.by_index(dim.index());
            assert_eq!(covered, dims().size(dim), "coverage identity for {dim}");
        }
        // M spatial: grid_m = 128/64 = 2, trips_m = 1.
        assert_eq!(g.grid(Dim::M), 2);
        assert_eq!(g.trips(Dim::M), 1);
        // N temporal: trips_n = 512/(2*64) = 4.
        assert_eq!(g.trips(Dim::N), 4);
        assert_eq!(g.clusters_total(), 2);
    }

    #[test]
    fn indivisible_rejected() {
        let cluster = ClusterShape::new(1, 1, 1, 1).unwrap();
        let tile = BlockTile::new(48, 64, 32, 64); // 48 does not divide 128
        let err = PlanGeometry::derive(dims(), &sched_m_spatial(), cluster, tile).unwrap_err();
        assert!(matches!(err, PlanError::Indivisible { dim: Dim::M, .. }));
    }

    #[test]
    fn spatial_k_must_fit_one_cluster() {
        let sched = LoopSchedule::new(vec![Dim::M, Dim::K], vec![Dim::N, Dim::L]);
        // K = 256, cls_k * blk_k = 2 * 32 = 64 -> grid_k = 4 > 1: illegal.
        let cluster = ClusterShape::new(1, 1, 2, 2).unwrap();
        let tile = BlockTile::new(64, 64, 32, 64);
        let err = PlanGeometry::derive(dims(), &sched, cluster, tile).unwrap_err();
        assert_eq!(err, PlanError::SpatialKAcrossClusters);
        // With cls_k * blk_k = 2 * 128 = 256 it is legal (grid_k = 1).
        let tile_ok = BlockTile::new(64, 64, 128, 64);
        assert!(PlanGeometry::derive(dims(), &sched, cluster, tile_ok).is_ok());
    }

    #[test]
    fn spatial_l_must_fit_one_cluster() {
        let sched = LoopSchedule::new(vec![Dim::M, Dim::L], vec![Dim::N, Dim::K]);
        let cluster = ClusterShape::new(1, 2, 1, 2).unwrap();
        let tile = BlockTile::new(64, 64, 32, 64); // grid_l = 256/128 = 2
        let err = PlanGeometry::derive(dims(), &sched, cluster, tile).unwrap_err();
        assert_eq!(err, PlanError::SpatialLAcrossClusters);
        let tile_ok = BlockTile::new(64, 64, 32, 128); // cls_l*blk_l = 256
        assert!(PlanGeometry::derive(dims(), &sched, cluster, tile_ok).is_ok());
    }

    #[test]
    fn inter_cluster_reduce_iff_spatial_n_grid() {
        let sched = LoopSchedule::new(vec![Dim::M, Dim::N], vec![Dim::L, Dim::K]);
        let cluster = ClusterShape::new(1, 2, 1, 2).unwrap();
        let tile = BlockTile::new(64, 64, 32, 64);
        let g = PlanGeometry::derive(dims(), &sched, cluster, tile).unwrap();
        assert_eq!(g.grid(Dim::N), 4);
        assert!(g.needs_inter_cluster_reduce());
        let g2 = PlanGeometry::derive(dims(), &sched_m_spatial(), cluster, tile).unwrap();
        assert!(!g2.needs_inter_cluster_reduce());
    }

    #[test]
    fn check_geometry_catches_inconsistent_plans() {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
        let cluster = ClusterShape::new(1, 2, 2, 2).unwrap();
        let tile = BlockTile::new(64, 64, 32, 64);
        let geometry =
            PlanGeometry::derive(chain.dims(), &sched_m_spatial(), cluster, tile).unwrap();
        let mut plan = FusedPlan {
            chain,
            schedule: sched_m_spatial(),
            cluster,
            tile,
            geometry,
            mapping: ResourceMapping::new(),
        };
        plan.check_geometry().unwrap();
        // Swap in a larger problem: the stored geometry goes stale.
        plan.chain = ChainSpec::standard_ffn(256, 512, 256, 256, Activation::Relu);
        assert_eq!(plan.check_geometry(), Err(PlanError::GeometryMismatch));
        // A problem no tile divides does not even derive.
        plan.chain = ChainSpec::standard_ffn(100, 512, 256, 256, Activation::Relu);
        assert!(matches!(
            plan.check_geometry(),
            Err(PlanError::Indivisible { dim: Dim::M, .. })
        ));
    }

    #[test]
    fn plan_summary_mentions_parts() {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
        let cluster = ClusterShape::new(1, 2, 2, 2).unwrap();
        let tile = BlockTile::new(64, 64, 32, 64);
        let geometry =
            PlanGeometry::derive(chain.dims(), &sched_m_spatial(), cluster, tile).unwrap();
        let plan = FusedPlan {
            chain,
            schedule: sched_m_spatial(),
            cluster,
            tile,
            geometry,
            mapping: ResourceMapping::new(),
        };
        assert_eq!(plan.blocks_total(), 2 * 4);
        let s = plan.to_string();
        assert!(s.contains("M|nlk"));
        assert!(s.contains("cls("));
    }
}
