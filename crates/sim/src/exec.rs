//! Functional execution of fused plans.
//!
//! [`execute_fused`] interprets a [`FusedPlan`] at tile granularity with
//! real `f32` arithmetic, following the cluster dataflow of the paper's
//! Fig. 7/8:
//!
//! * Each cluster holds `cls_m x cls_n x cls_k` blocks. Block `(bm, bn,
//!   bk)` accumulates the partial intermediate for its `(m, n)` tile over
//!   its contiguous K slab.
//! * `dsm_all_exchange` combines the `cls_k` partials (summing both
//!   branch accumulators for gated chains, then applying
//!   `act(gate) ⊙ up` locally — the paper's sequential-branch variant
//!   generalised to any `cls_k`).
//! * For the second GEMM, block `(bn, bk)` owns output column
//!   `q = bk * cls_shuffle + (bn mod cls_shuffle)`; its shuffle group is
//!   the `cls_shuffle` blocks sharing `bk` and `bn div cls_shuffle`, and
//!   the `cls_reduce` blocks with the same `q` form the reduce group —
//!   these assignments satisfy the identities
//!   `cls_shuffle = cls_l / cls_k` and
//!   `cls_reduce = cls_n * cls_k / cls_l` of §IV-A by construction.
//! * Output tiles are reduce-scattered inside the cluster and written to
//!   global memory once; when N is spatial across clusters the write is
//!   an atomic accumulation (`inter_cluster_reduce`).
//!
//! Every tile movement increments [`TrafficCounters`], with TMA
//! multicast deduplication inside a cluster, so the counters can be
//! reconciled against the dataflow analyzer's predictions.

use crate::counters::TrafficCounters;
use flashfuser_core::{FusedPlan, MemLevel, PlanError};
use flashfuser_graph::chain::ChainInputs;
use flashfuser_graph::Dim;
use flashfuser_tensor::gemm::matmul_accumulate_with;
use flashfuser_tensor::{
    rowwise_softmax_inplace, softmax_scale, Matrix, MicroKernel, NumericConfig, ShapeError,
};
use std::error::Error;
use std::fmt;

/// Functional-execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// Inputs do not match the chain dimensions.
    Shape(ShapeError),
    /// A gated chain was executed without its gate weight.
    MissingGateWeight,
    /// An attention plan whose schedule is not the C-strip order with
    /// the full N extent in one cluster — the rowwise softmax needs
    /// complete score rows (defensive: the analyzer rejects such plans
    /// at analysis time, so only hand-built plans reach this).
    AttentionSchedule,
    /// The plan's stored geometry is illegal or stale for its own
    /// schedule/cluster/tile (hand-built or corrupted plans) — running
    /// it would index tiles out of bounds, so it is rejected up front.
    Plan(PlanError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Shape(e) => write!(f, "{e}"),
            ExecError::MissingGateWeight => write!(f, "gated chain executed without gate weight"),
            ExecError::AttentionSchedule => write!(
                f,
                "attention plan is not in the C-strip order with N in one cluster \
                 (rowwise softmax needs complete score rows)"
            ),
            ExecError::Plan(e) => write!(f, "degenerate plan geometry: {e}"),
        }
    }
}

impl Error for ExecError {}

impl From<ShapeError> for ExecError {
    fn from(e: ShapeError) -> Self {
        ExecError::Shape(e)
    }
}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

/// Executes `plan` on `inputs`, returning the output matrix `E[M, L]`
/// and filling `counters` with the traffic the execution generated.
///
/// # Errors
///
/// Returns [`ExecError`] if the inputs do not match the plan's chain.
pub fn execute_fused(
    plan: &FusedPlan,
    inputs: &ChainInputs,
    counters: &mut TrafficCounters,
) -> Result<Matrix, ExecError> {
    execute_fused_with(plan, inputs, counters, NumericConfig::naive())
}

/// [`execute_fused`] with an explicit numeric backend: every per-tile
/// GEMM accumulation runs through the selected
/// [`MicroKernel`]. The traffic
/// accounting is identical under every backend — the kernel changes how
/// a tile's FLOPs are computed, never which tiles move.
///
/// # Errors
///
/// Returns [`ExecError`] under exactly the same conditions as
/// [`execute_fused`].
pub fn execute_fused_with(
    plan: &FusedPlan,
    inputs: &ChainInputs,
    counters: &mut TrafficCounters,
    numeric: NumericConfig,
) -> Result<Matrix, ExecError> {
    plan.check_geometry()?;
    let dims = plan.chain.dims();
    if inputs.a.shape() != (dims.m, dims.k)
        || inputs.b.shape() != (dims.k, dims.n)
        || inputs.d.shape() != (dims.n, dims.l)
    {
        return Err(ExecError::Shape(ShapeError::new(
            "execute_fused",
            inputs.a.shape(),
            (dims.m, dims.k),
        )));
    }
    if plan.chain.kind().is_attention() {
        let s = &plan.schedule;
        let c_strip = !s.is_spatial(Dim::N) && !s.is_spatial(Dim::L) && s.is_outer(Dim::L, Dim::N);
        if !c_strip || plan.geometry.grid(Dim::N) > 1 {
            return Err(ExecError::AttentionSchedule);
        }
    }
    let gated = plan.chain.kind().is_gated();
    let b_gate = match (gated, &inputs.b_gate) {
        (true, Some(g)) => Some(g),
        (true, None) => return Err(ExecError::MissingGateWeight),
        (false, _) => None,
    };
    counters.kernel_launches += 1;

    let interp = Interp {
        plan,
        a: &inputs.a,
        b: &inputs.b,
        b_gate,
        d: &inputs.d,
        kernel: numeric.micro_kernel(),
    };
    interp.run(counters)
}

/// Internal interpreter state.
struct Interp<'a> {
    plan: &'a FusedPlan,
    a: &'a Matrix,
    b: &'a Matrix,
    b_gate: Option<&'a Matrix>,
    d: &'a Matrix,
    kernel: &'a dyn MicroKernel,
}

impl Interp<'_> {
    fn run(&self, counters: &mut TrafficCounters) -> Result<Matrix, ExecError> {
        let dims = self.plan.chain.dims();
        let g = &self.plan.geometry;
        let mut e = Matrix::zeros(dims.m, dims.l);
        let atomic_store = g.needs_inter_cluster_reduce();
        for im in 0..g.grid(Dim::M) {
            for jn in 0..g.grid(Dim::N) {
                self.run_cluster(im, jn, &mut e, atomic_store, counters)?;
            }
        }
        Ok(e)
    }

    /// Executes one cluster over all its temporal trips.
    fn run_cluster(
        &self,
        im: usize,
        jn: usize,
        e: &mut Matrix,
        atomic_store: bool,
        counters: &mut TrafficCounters,
    ) -> Result<(), ExecError> {
        let plan = self.plan;
        let g = &plan.geometry;
        let t = plan.tile;
        let cls = plan.cluster;
        let (cm, cn, ck, cl) = (cls.m(), cls.n(), cls.k(), cls.l());
        let (tm, tn, tk, tl) = (
            g.trips(Dim::M),
            g.trips(Dim::N),
            g.trips(Dim::K),
            g.trips(Dim::L),
        );
        let schedule = &plan.schedule;
        // Fig. 9 dataflow selection, identical to the analyzer's.
        let c_strip_order = !schedule.is_spatial(Dim::N)
            && !schedule.is_spatial(Dim::L)
            && schedule.is_outer(Dim::L, Dim::N);

        for t_m in 0..tm {
            for bmi in 0..cm {
                let m0 = ((im * tm + t_m) * cm + bmi) * t.m;
                // Weights (B, D) are multicast across the cls_m block
                // rows of the cluster: only row 0 charges their loads.
                let charge_shared = bmi == 0;
                let row = RowCtx {
                    m0,
                    jn,
                    cn,
                    ck,
                    cl,
                    charge_shared,
                    atomic_store,
                };
                if c_strip_order {
                    self.run_c_strip_row(&row, (tn, tk, tl), e, counters)?;
                } else {
                    self.run_e_strip_row(&row, (tn, tk, tl), e, counters)?;
                }
            }
        }
        Ok(())
    }

    /// E-strip dataflow (N outer / spatial): accumulate partial E tiles
    /// across N trips, reduce and store at the end.
    fn run_e_strip_row(
        &self,
        row: &RowCtx,
        (tn, tk, tl): (usize, usize, usize),
        e: &mut Matrix,
        counters: &mut TrafficCounters,
    ) -> Result<(), ExecError> {
        let t = self.plan.tile;
        // e_acc[block][t_l] — block linear index = bn * ck + bk.
        let blocks = row.cn * row.ck;
        let mut e_acc = vec![vec![Matrix::zeros(t.m, t.l); tl]; blocks];
        for t_n in 0..tn {
            let complete_c = self.gemm0_phase(row, t_n, tk, counters)?;
            // GEMM1: each block walks its shuffle group's C tiles (ring),
            // updating every L-trip accumulator with each received tile.
            self.gemm1_accumulate(&complete_c, row, t_n, 0, tl, &mut e_acc, counters)?;
        }
        for t_l in 0..tl {
            let single: Vec<Vec<Matrix>> = e_acc
                .iter()
                .map(|per_block| vec![per_block[t_l].clone()])
                .collect();
            self.reduce_and_store_single(row, t_l, &single, e, counters)?;
        }
        Ok(())
    }

    /// C-strip dataflow (L outer): materialise the whole C strip first,
    /// then iterate L trips over it, re-shuffling per (t_l, t_n).
    fn run_c_strip_row(
        &self,
        row: &RowCtx,
        (tn, tk, tl): (usize, usize, usize),
        e: &mut Matrix,
        counters: &mut TrafficCounters,
    ) -> Result<(), ExecError> {
        let t = self.plan.tile;
        let blocks = row.cn * row.ck;
        // strip[t_n][block] = the block's complete C tile for that trip.
        let mut strip = Vec::with_capacity(tn);
        for t_n in 0..tn {
            strip.push(self.gemm0_phase(row, t_n, tk, counters)?);
        }
        if self.plan.chain.kind().is_attention() {
            self.softmax_strip(row, &mut strip, counters)?;
        }
        for t_l in 0..tl {
            let mut e_acc = vec![vec![Matrix::zeros(t.m, t.l)]; blocks];
            for (t_n, c_tiles) in strip.iter().enumerate() {
                self.gemm1_accumulate(c_tiles, row, t_n, t_l, 1, &mut e_acc, counters)?;
            }
            self.reduce_and_store_single(row, t_l, &e_acc, e, counters)?;
        }
        Ok(())
    }

    /// Rowwise softmax over the complete C strip of one block-row — the
    /// attention epilogue between the two GEMMs. The strip holds every
    /// score of each row (the C-strip gate guarantees it), assembled
    /// here in global column order so the shared
    /// [`rowwise_softmax_inplace`] helper defines the arithmetic
    /// bit-identically to the per-op oracle. When the strip is split
    /// across `cls_n` column-owner blocks, the row max and row sum are
    /// each combined in an all-exchange round among those blocks —
    /// `2 * cls_n * (cls_n - 1)` messages of `tile.m` f32 stats, priced
    /// in the DSM tier exactly as the analyzer predicts; nothing
    /// touches HBM.
    fn softmax_strip(
        &self,
        row: &RowCtx,
        strip: &mut [Vec<Matrix>],
        counters: &mut TrafficCounters,
    ) -> Result<(), ExecError> {
        let t = self.plan.tile;
        let (cn, ck) = (row.cn, row.ck);
        let tn = strip.len();
        let scale = softmax_scale(self.plan.chain.softmax_scale_k());
        // Assemble the block-row's scores in global column order
        // (grid(N) == 1, so (t_n, bni) enumerates columns 0..N).
        let mut rows = Matrix::zeros(t.m, tn * cn * t.n);
        for (t_n, tiles) in strip.iter().enumerate() {
            for bni in 0..cn {
                let col0 = (t_n * cn + bni) * t.n;
                rows.add_tile(0, col0, &tiles[bni * ck])?;
            }
        }
        rowwise_softmax_inplace(&mut rows, scale);
        for (t_n, tiles) in strip.iter_mut().enumerate() {
            for bni in 0..cn {
                let col0 = (t_n * cn + bni) * t.n;
                let tile = rows.tile(0, col0, t.m, t.n)?;
                for bki in 0..ck {
                    tiles[bni * ck + bki] = tile.clone();
                }
            }
        }
        if cn > 1 {
            counters.record_primitive("softmax_stats");
            counters.add(
                MemLevel::Dsm,
                2 * cn as u64 * (cn as u64 - 1) * t.m as u64 * 4,
            );
            counters.barriers += 2;
        }
        Ok(())
    }

    /// GEMM0 + all_exchange for one `(m-row, n-trip)`: returns the
    /// complete (activated) C tile held by each block, indexed
    /// `bn * ck + bk`.
    fn gemm0_phase(
        &self,
        row: &RowCtx,
        t_n: usize,
        tk: usize,
        counters: &mut TrafficCounters,
    ) -> Result<Vec<Matrix>, ExecError> {
        let (m0, jn, cn, ck) = (row.m0, row.jn, row.cn, row.ck);
        let plan = self.plan;
        let t = plan.tile;
        let g = &plan.geometry;
        let tn = g.trips(Dim::N);
        let act = plan.chain.kind().activation();
        let gated = plan.chain.kind().is_gated();
        let branches: u64 = if gated { 2 } else { 1 };

        // Partial accumulation per block over its contiguous K slab.
        let mut partial_up = vec![Matrix::zeros(t.m, t.n); cn * ck];
        let mut partial_gate = if gated {
            vec![Matrix::zeros(t.m, t.n); cn * ck]
        } else {
            vec![]
        };
        for bni in 0..cn {
            let n0 = ((jn * tn + t_n) * cn + bni) * t.n;
            for bki in 0..ck {
                let idx = bni * ck + bki;
                for t_k in 0..tk {
                    let k0 = (bki * tk + t_k) * t.k;
                    let a_tile = self.a.tile(m0, k0, t.m, t.k)?;
                    // TMA multicast: the A tile is shared by all cls_n
                    // blocks of this (bmi, bki); charge it once (bni==0).
                    if bni == 0 {
                        counters.add(MemLevel::Global, t.a_tile_bytes());
                        counters.add(MemLevel::Smem, t.a_tile_bytes());
                    }
                    let b_tile = self.b.tile(k0, n0, t.k, t.n)?;
                    // B is multicast across the cls_m block rows.
                    if row.charge_shared {
                        counters.add(MemLevel::Global, branches * t.b_tile_bytes());
                        counters.add(MemLevel::Smem, branches * t.b_tile_bytes());
                    }
                    matmul_accumulate_with(self.kernel, &mut partial_up[idx], &a_tile, &b_tile)?;
                    if let Some(bg) = self.b_gate {
                        let g_tile = bg.tile(k0, n0, t.k, t.n)?;
                        matmul_accumulate_with(
                            self.kernel,
                            &mut partial_gate[idx],
                            &a_tile,
                            &g_tile,
                        )?;
                    }
                }
            }
        }

        // dsm_all_exchange across the ck partials of each bn column.
        let mut complete = vec![Matrix::zeros(t.m, t.n); cn * ck];
        for bni in 0..cn {
            if ck > 1 {
                counters.record_primitive(if gated {
                    "all_exchange.mul"
                } else {
                    "all_exchange.add"
                });
                counters.barriers += 1;
            }
            let mut up_sum = Matrix::zeros(t.m, t.n);
            let mut gate_sum = Matrix::zeros(t.m, t.n);
            for bki in 0..ck {
                let idx = bni * ck + bki;
                up_sum = up_sum.add(&partial_up[idx])?;
                if gated {
                    gate_sum = gate_sum.add(&partial_gate[idx])?;
                }
            }
            // Each of the ck blocks reads the other ck-1 partials (for
            // both branches when gated).
            let remote_reads = (ck as u64) * (ck as u64 - 1);
            counters.add(MemLevel::Dsm, remote_reads * branches * t.c_tile_bytes());
            let tile = if gated {
                act.apply_matrix(&gate_sum).mul_elem(&up_sum)?
            } else {
                act.apply_matrix(&up_sum)
            };
            for bki in 0..ck {
                complete[bni * ck + bki] = tile.clone();
            }
        }
        Ok(complete)
    }

    /// GEMM1 for one n-trip: ring-shuffle complete C tiles within each
    /// shuffle group and update the accumulators of each block.
    ///
    /// `l_base` is the outer L-trip offset (0 in the E-strip order where
    /// the inner loop walks all `tl_count` trips; the current `t_l` in
    /// the C-strip order where `tl_count == 1`).
    #[allow(clippy::too_many_arguments)]
    fn gemm1_accumulate(
        &self,
        complete_c: &[Matrix],
        row: &RowCtx,
        t_n: usize,
        l_base: usize,
        tl_count: usize,
        e_acc: &mut [Vec<Matrix>],
        counters: &mut TrafficCounters,
    ) -> Result<(), ExecError> {
        let plan = self.plan;
        let t = plan.tile;
        let tn = plan.geometry.trips(Dim::N);
        let (jn, cn, ck, cl) = (row.jn, row.cn, row.ck, row.cl);
        let cls_shuffle = plan.cluster.cls_shuffle();
        for bni in 0..cn {
            for bki in 0..ck {
                let idx = bni * ck + bki;
                let q = bki * cls_shuffle + (bni % cls_shuffle);
                let group_base = (bni / cls_shuffle) * cls_shuffle;
                if cls_shuffle > 1 {
                    counters.record_primitive("shuffle");
                }
                for step in 0..cls_shuffle {
                    // Ring: step 0 is the block's own tile; the rest are
                    // remote reads from peers in the group.
                    let peer_bn = group_base + (bni % cls_shuffle + step) % cls_shuffle;
                    let c_tile = &complete_c[peer_bn * ck + bki];
                    if step > 0 {
                        counters.add(MemLevel::Dsm, t.c_tile_bytes());
                        counters.barriers += 1;
                    }
                    let n0 = ((jn * tn + t_n) * cn + peer_bn) * t.n;
                    for (i, acc) in e_acc[idx].iter_mut().enumerate().take(tl_count) {
                        let l0 = ((l_base + i) * cl + q) * t.l;
                        let d_tile = self.d.tile(n0, l0, t.n, t.l)?;
                        // Each (n-slice, column) D tile is consumed by
                        // exactly one block of this row (the q/bki
                        // assignment is a bijection), so every read is a
                        // distinct load; dedup across block rows only.
                        if row.charge_shared {
                            counters.add(MemLevel::Global, t.d_tile_bytes());
                            counters.add(MemLevel::Smem, t.d_tile_bytes());
                        }
                        matmul_accumulate_with(self.kernel, acc, c_tile, &d_tile)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Reduce-scatter + store for one l-trip: sums the `cls_reduce`
    /// contributor accumulators of each column and writes the tile.
    fn reduce_and_store_single(
        &self,
        row: &RowCtx,
        t_l: usize,
        e_acc: &[Vec<Matrix>],
        e: &mut Matrix,
        counters: &mut TrafficCounters,
    ) -> Result<(), ExecError> {
        let t = self.plan.tile;
        let (m0, cn, ck, cl) = (row.m0, row.cn, row.ck, row.cl);
        let cls_shuffle = self.plan.cluster.cls_shuffle();
        let cls_reduce = self.plan.cluster.cls_reduce();
        for q in 0..cl {
            let bki = q / cls_shuffle;
            let r = q % cls_shuffle;
            let mut tile = Matrix::zeros(t.m, t.l);
            let mut contributors = 0;
            for group in 0..(cn / cls_shuffle) {
                let bni = group * cls_shuffle + r;
                let idx = bni * ck + bki;
                tile = tile.add(&e_acc[idx][0])?;
                contributors += 1;
            }
            debug_assert_eq!(contributors, cls_reduce, "reduce group size mismatch");
            if cls_reduce > 1 {
                counters.record_primitive("reduce_scatter");
                counters.barriers += 1;
                counters.add(MemLevel::Dsm, (cls_reduce as u64 - 1) * t.e_tile_bytes());
            }
            let l0 = (t_l * cl + q) * t.l;
            counters.add(MemLevel::Global, t.e_tile_bytes());
            if row.atomic_store {
                counters.record_primitive("inter_cluster_reduce");
            }
            e.add_tile(m0, l0, &tile)?;
        }
        Ok(())
    }
}

/// Loop-invariant context of one cluster block-row execution.
struct RowCtx {
    m0: usize,
    jn: usize,
    cn: usize,
    ck: usize,
    cl: usize,
    charge_shared: bool,
    atomic_store: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_core::comm::ClusterShape;
    use flashfuser_core::{BlockTile, DataflowAnalyzer, LoopSchedule, MachineDescriptor};
    use flashfuser_graph::ChainSpec;
    use flashfuser_tensor::Activation;

    fn make_plan(
        chain: &ChainSpec,
        spatial: &[Dim],
        temporal: &[Dim],
        cluster: ClusterShape,
        tile: BlockTile,
    ) -> FusedPlan {
        let schedule = LoopSchedule::new(spatial.to_vec(), temporal.to_vec());
        DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(chain, &schedule, cluster, tile)
            .expect("plan must analyze")
            .plan()
            .clone()
    }

    fn check_correct(plan: &FusedPlan, seed: u64) -> TrafficCounters {
        let inputs = plan.chain.make_inputs(seed);
        let expected = plan.chain.reference_output(&inputs).unwrap();
        let mut counters = TrafficCounters::new();
        let got = execute_fused(plan, &inputs, &mut counters).unwrap();
        assert!(
            expected.approx_eq(&got, 1e-3).unwrap(),
            "plan {} diverged: max err {}",
            plan.summary(),
            expected.max_abs_diff(&got).unwrap()
        );
        counters
    }

    #[test]
    fn single_block_plan_matches_reference() {
        let chain = ChainSpec::standard_ffn(32, 64, 48, 64, Activation::Relu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::single_block(),
            BlockTile::new(16, 16, 16, 16),
        );
        let c = check_correct(&plan, 1);
        assert_eq!(c.dsm_bytes(), 0, "single block must not touch DSM");
        assert_eq!(c.kernel_launches, 1);
    }

    #[test]
    fn k_split_exchange_matches_reference() {
        let chain = ChainSpec::standard_ffn(32, 64, 64, 64, Activation::Relu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::new(1, 1, 2, 2).unwrap(),
            BlockTile::new(16, 32, 16, 16),
        );
        let c = check_correct(&plan, 2);
        assert!(c.primitive_count("all_exchange.add") > 0);
        assert!(c.dsm_bytes() > 0);
    }

    #[test]
    fn shuffle_and_reduce_match_reference() {
        // cls = (1, 4, 2, 4): cls_shuffle = 2, cls_reduce = 2 — the full
        // Fig. 7(a)-style dataflow with every primitive exercised.
        let chain = ChainSpec::standard_ffn(32, 128, 64, 128, Activation::Relu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::new(1, 4, 2, 4).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        );
        let c = check_correct(&plan, 3);
        assert!(c.primitive_count("all_exchange.add") > 0);
        assert!(c.primitive_count("shuffle") > 0);
        assert!(c.primitive_count("reduce_scatter") > 0);
    }

    #[test]
    fn reduce_free_geometry_matches_reference() {
        // Fig. 7(b): cls_l = cls_n * cls_k -> cls_reduce = 1, no
        // reduce_scatter at the store.
        let chain = ChainSpec::standard_ffn(16, 64, 32, 128, Activation::Relu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::new(1, 4, 2, 8).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        );
        let c = check_correct(&plan, 4);
        assert_eq!(c.primitive_count("reduce_scatter"), 0);
        assert!(c.primitive_count("shuffle") > 0);
    }

    #[test]
    fn gated_chain_matches_reference() {
        let chain = ChainSpec::gated_ffn(16, 64, 32, 64, Activation::Silu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::new(1, 2, 2, 2).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        );
        let c = check_correct(&plan, 5);
        assert!(c.primitive_count("all_exchange.mul") > 0);
        assert_eq!(c.primitive_count("all_exchange.add"), 0);
    }

    #[test]
    fn c_strip_order_matches_reference() {
        // L outer of N (the "MLNK" dataflow of Fig. 9).
        let chain = ChainSpec::standard_ffn(32, 96, 48, 64, Activation::Relu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::L, Dim::N, Dim::K],
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        );
        check_correct(&plan, 6);
    }

    #[test]
    fn spatial_n_uses_atomic_store() {
        // N spatial over several clusters: partial E accumulates through
        // the inter-cluster reduce (atomic adds in global memory).
        let chain = ChainSpec::standard_ffn(16, 128, 32, 32, Activation::Relu);
        let plan = make_plan(
            &chain,
            &[Dim::M, Dim::N],
            &[Dim::L, Dim::K],
            ClusterShape::new(1, 2, 1, 2).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        );
        assert!(plan.geometry.needs_inter_cluster_reduce());
        let c = check_correct(&plan, 7);
        assert!(c.primitive_count("inter_cluster_reduce") > 0);
    }

    #[test]
    fn identity_activation_and_gelu_work() {
        for act in [Activation::Identity, Activation::Gelu] {
            let chain = ChainSpec::standard_ffn(16, 32, 32, 32, act);
            let plan = make_plan(
                &chain,
                &[Dim::M],
                &[Dim::N, Dim::L, Dim::K],
                ClusterShape::new(1, 2, 1, 2).unwrap(),
                BlockTile::new(16, 16, 16, 16),
            );
            check_correct(&plan, 8);
        }
    }

    #[test]
    fn blocked_backend_matches_reference_with_identical_traffic() {
        // The numeric backend changes how a tile's FLOPs are computed,
        // never which tiles move: counters must agree bit for bit.
        for chain in [
            ChainSpec::standard_ffn(32, 128, 64, 128, Activation::Relu),
            ChainSpec::gated_ffn(16, 64, 32, 64, Activation::Silu),
        ] {
            let plan = make_plan(
                &chain,
                &[Dim::M],
                &[Dim::N, Dim::L, Dim::K],
                ClusterShape::new(1, 2, 2, 2).unwrap(),
                BlockTile::new(16, 16, 16, 16),
            );
            let inputs = chain.make_inputs(12);
            let expected = chain.reference_output(&inputs).unwrap();
            let mut naive_c = TrafficCounters::new();
            execute_fused(&plan, &inputs, &mut naive_c).unwrap();
            let mut blocked_c = TrafficCounters::new();
            let got = execute_fused_with(
                &plan,
                &inputs,
                &mut blocked_c,
                flashfuser_tensor::NumericConfig::blocked(),
            )
            .unwrap();
            assert!(
                expected.approx_eq(&got, 1e-3).unwrap(),
                "blocked backend diverged: max err {}",
                expected.max_abs_diff(&got).unwrap()
            );
            assert_eq!(naive_c, blocked_c);
        }
    }

    #[test]
    fn attention_chain_matches_reference() {
        for scaled in [false, true] {
            let chain = ChainSpec::attention(32, 64, 48, 64, scaled);
            let plan = make_plan(
                &chain,
                &[Dim::M],
                &[Dim::L, Dim::N, Dim::K],
                ClusterShape::new(1, 2, 1, 2).unwrap(),
                BlockTile::new(16, 16, 16, 16),
            );
            let c = check_correct(&plan, 11);
            assert!(
                c.primitive_count("softmax_stats") > 0,
                "split-N strip must exchange row stats"
            );
        }
    }

    #[test]
    fn attention_single_block_keeps_stats_local() {
        let chain = ChainSpec::attention(16, 32, 32, 32, true);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::L, Dim::N, Dim::K],
            ClusterShape::single_block(),
            BlockTile::new(16, 16, 16, 16),
        );
        let c = check_correct(&plan, 12);
        assert_eq!(c.dsm_bytes(), 0, "one block owns every score row");
        assert_eq!(c.primitive_count("softmax_stats"), 0);
    }

    #[test]
    fn attention_dsm_traffic_matches_analyzer_prediction() {
        // The softmax row-stat exchange is priced by the same formula in
        // the analyzer and charged by the executor: exact agreement.
        let chain = ChainSpec::attention(32, 64, 64, 64, true);
        let schedule = LoopSchedule::new(vec![Dim::M], vec![Dim::L, Dim::N, Dim::K]);
        let cluster = ClusterShape::new(1, 2, 2, 4).unwrap();
        let tile = BlockTile::new(16, 16, 16, 16);
        let analysis = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(&chain, &schedule, cluster, tile)
            .unwrap();
        let inputs = chain.make_inputs(13);
        let expected = chain.reference_output(&inputs).unwrap();
        let mut counters = TrafficCounters::new();
        let got = execute_fused(analysis.plan(), &inputs, &mut counters).unwrap();
        assert!(expected.approx_eq(&got, 1e-3).unwrap());
        assert!(counters.primitive_count("softmax_stats") > 0);
        assert!(counters.primitive_count("all_exchange.add") > 0);
        assert_eq!(
            counters.dsm_bytes(),
            analysis.volume(flashfuser_core::MemLevel::Dsm)
        );
        assert_eq!(counters.global_bytes(), analysis.volume(MemLevel::L2));
    }

    #[test]
    fn attention_rejects_non_c_strip_schedules() {
        let chain = ChainSpec::attention(32, 64, 48, 64, true);
        let tile = BlockTile::new(16, 16, 16, 16);
        // The analyzer refuses at plan time (N inner of L)...
        let bad = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        assert!(matches!(
            DataflowAnalyzer::new(MachineDescriptor::h100_sxm()).analyze(
                &chain,
                &bad,
                ClusterShape::single_block(),
                tile
            ),
            Err(flashfuser_core::AnalysisError::AttentionNeedsCStrip)
        ));
        // ...and a hand-mutated plan trips the executor's own gate.
        let mut plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::L, Dim::N, Dim::K],
            ClusterShape::single_block(),
            tile,
        );
        plan.schedule = bad;
        let inputs = plan.chain.make_inputs(1);
        let mut c = TrafficCounters::new();
        assert!(matches!(
            execute_fused(&plan, &inputs, &mut c),
            Err(ExecError::AttentionSchedule)
        ));
    }

    #[test]
    fn missing_gate_weight_is_error() {
        let chain = ChainSpec::gated_ffn(16, 32, 32, 32, Activation::Silu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::single_block(),
            BlockTile::new(16, 16, 16, 16),
        );
        let mut inputs = plan.chain.make_inputs(1);
        inputs.b_gate = None;
        let mut c = TrafficCounters::new();
        assert!(matches!(
            execute_fused(&plan, &inputs, &mut c),
            Err(ExecError::MissingGateWeight)
        ));
    }

    #[test]
    fn corrupted_plan_geometry_is_an_error_not_a_panic() {
        // A plan whose chain was swapped after analysis (the shape a
        // hand-built or corrupted cache record would take): the stored
        // geometry no longer covers the problem, and before the
        // `check_geometry` gate this indexed tiles out of bounds.
        let chain = ChainSpec::standard_ffn(32, 64, 48, 64, Activation::Relu);
        let mut plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::single_block(),
            BlockTile::new(16, 16, 16, 16),
        );
        let bigger = ChainSpec::standard_ffn(64, 64, 48, 64, Activation::Relu);
        plan.chain = bigger.clone();
        let inputs = bigger.make_inputs(1);
        let mut c = TrafficCounters::new();
        assert!(matches!(
            execute_fused(&plan, &inputs, &mut c),
            Err(ExecError::Plan(
                flashfuser_core::PlanError::GeometryMismatch
            ))
        ));
        // A chain no tile divides fails the derivation itself.
        let odd = ChainSpec::standard_ffn(33, 64, 48, 64, Activation::Relu);
        plan.chain = odd.clone();
        let inputs = odd.make_inputs(1);
        assert!(matches!(
            execute_fused(&plan, &inputs, &mut c),
            Err(ExecError::Plan(
                flashfuser_core::PlanError::Indivisible { .. }
            ))
        ));
    }

    #[test]
    fn dsm_traffic_matches_analyzer_prediction() {
        // Executor and analyzer implement the same exchange/shuffle/
        // reduce volume model; their DSM byte counts must agree exactly.
        for (spatial, temporal) in [
            (vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]),
            (vec![Dim::M], vec![Dim::L, Dim::N, Dim::K]),
        ] {
            let chain = ChainSpec::standard_ffn(32, 128, 64, 128, Activation::Relu);
            let schedule = LoopSchedule::new(spatial, temporal);
            let cluster = ClusterShape::new(1, 4, 2, 4).unwrap();
            let tile = BlockTile::new(16, 16, 16, 16);
            let analysis = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
                .analyze(&chain, &schedule, cluster, tile)
                .unwrap();
            let inputs = chain.make_inputs(10);
            let mut counters = TrafficCounters::new();
            execute_fused(analysis.plan(), &inputs, &mut counters).unwrap();
            assert_eq!(
                counters.dsm_bytes(),
                analysis.volume(flashfuser_core::MemLevel::Dsm),
                "schedule {}",
                schedule.name()
            );
            // The executor counts every memory-system load (the L2 view);
            // the analyzer's Global volume additionally filters re-loads
            // of L2-resident tensors.
            assert_eq!(counters.global_bytes(), analysis.volume(MemLevel::L2));
        }
    }

    #[test]
    fn global_traffic_matches_analyzer_prediction() {
        // The executor's measured loads must equal the analyzer's raw
        // (L2-level) volume — both implement the same multicast model —
        // and the HBM-filtered Global volume can only be smaller.
        let chain = ChainSpec::standard_ffn(32, 128, 64, 128, Activation::Relu);
        let schedule = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        let cluster = ClusterShape::new(1, 4, 2, 4).unwrap();
        let tile = BlockTile::new(16, 16, 16, 16);
        let analysis = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(&chain, &schedule, cluster, tile)
            .unwrap();
        let inputs = chain.make_inputs(9);
        let mut counters = TrafficCounters::new();
        execute_fused(analysis.plan(), &inputs, &mut counters).unwrap();
        assert_eq!(
            counters.global_bytes(),
            analysis.volume(MemLevel::L2),
            "executor vs analyzer raw traffic"
        );
        assert!(analysis.volume(MemLevel::Global) <= analysis.volume(MemLevel::L2));
    }
}
