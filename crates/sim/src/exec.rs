//! Functional execution of fused plans.
//!
//! [`execute_fused_with`] interprets a [`FusedPlan`] at tile granularity with
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
//!
//! Nothing is copied to be computed on: one arena per execution holds
//! the intermediates, updated in place, and each tile GEMM streams from
//! panels packed once — with the bits of the same tile GEMMs run one by
//! one (DESIGN.md, "Pack once, stream tiles").

use crate::counters::TrafficCounters;
use flashfuser_core::{BlockTile, FusedPlan, LoopSchedule, MemLevel, PlanError};
use flashfuser_graph::chain::ChainInputs;
use flashfuser_graph::Dim;
use flashfuser_tensor::{
    rowwise_softmax_inplace, softmax_scale, BlockedKernel, KernelKind, MatMut, MatRef, Matrix,
    NumericConfig, Order, ShapeError,
};
use std::error::Error;
use std::fmt;

/// Functional-execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// A per-op kernel's operand shapes do not compose.
    Shape(ShapeError),
    /// A chain operand (`"A"`, `"B"`, `"B_gate"` or `"D"`) has shape
    /// `got` where the plan's chain needs `want`.
    Operand {
        /// Which operand.
        name: &'static str,
        /// Its shape.
        got: (usize, usize),
        /// The shape the chain needs.
        want: (usize, usize),
    },
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
            ExecError::Operand { name, got, want } => write!(
                f,
                "operand {name} is {}x{}, the chain needs {}x{}",
                got.0, got.1, want.0, want.1
            ),
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
/// Every per-tile GEMM accumulation runs through the kernel `numeric`
/// selects ([`NumericConfig::default`] is the naive oracle). The
/// traffic accounting is identical under every backend — the kernel
/// changes how a tile's FLOPs are computed, never which tiles move.
///
/// # Errors
///
/// Returns [`ExecError`] if the inputs do not match the plan's chain.
pub fn execute_fused_with(
    plan: &FusedPlan,
    inputs: &ChainInputs,
    counters: &mut TrafficCounters,
    numeric: NumericConfig,
) -> Result<Matrix, ExecError> {
    let (a, b, b_gate, d) = (&inputs.a, &inputs.b, inputs.b_gate.as_ref(), &inputs.d);
    Operands { a, b, b_gate, d }.execute(plan, counters, numeric)
}

/// Fig. 9's dataflow selection, identical to the analyzer's: the C strip
/// is materialised whole when L is outer of N and neither is spatial.
fn c_strip_order(s: &LoopSchedule) -> bool {
    !s.is_spatial(Dim::N) && !s.is_spatial(Dim::L) && s.is_outer(Dim::L, Dim::N)
}

/// The chain operands of one execution, borrowed from their owner.
pub(crate) struct Operands<'a> {
    pub(crate) a: &'a Matrix,
    pub(crate) b: &'a Matrix,
    pub(crate) b_gate: Option<&'a Matrix>,
    pub(crate) d: &'a Matrix,
}

impl Operands<'_> {
    /// Checks the plan and every operand against the plan's chain, then
    /// executes it (see [`execute_fused_with`]).
    pub(crate) fn execute(
        mut self,
        plan: &FusedPlan,
        counters: &mut TrafficCounters,
        numeric: NumericConfig,
    ) -> Result<Matrix, ExecError> {
        plan.check_geometry()?;
        let gated = plan.chain.kind().is_gated();
        if gated && self.b_gate.is_none() {
            return Err(ExecError::MissingGateWeight);
        }
        self.b_gate = self.b_gate.filter(|_| gated);
        let d = plan.chain.dims();
        let check = |name, m: &Matrix, want| match m.shape() {
            got if got == want => Ok(()),
            got => Err(ExecError::Operand { name, got, want }),
        };
        check("A", self.a, (d.m, d.k))?;
        check("B", self.b, (d.k, d.n))?;
        self.b_gate
            .map_or(Ok(()), |g| check("B_gate", g, (d.k, d.n)))?;
        check("D", self.d, (d.n, d.l))?;
        let one_strip = c_strip_order(&plan.schedule) && plan.geometry.grid(Dim::N) == 1;
        if plan.chain.kind().is_attention() && !one_strip {
            return Err(ExecError::AttentionSchedule);
        }
        counters.kernel_launches += 1;
        Ok(Exec::new(plan, self, numeric.kernel).run(counters))
    }
}

/// One execution: the plan, its operands and extents.
struct Exec<'a> {
    plan: &'a FusedPlan,
    ops: Operands<'a>,
    t: BlockTile,
    /// `cls_m, cls_n, cls_k, cls_l, cls_shuffle`.
    cls: [usize; 5],
    /// Temporal trips along M, N, K, L.
    trips: [usize; 4],
    c_strip: bool,
    /// E accumulator slots per block (one per l-trip in E-strip order).
    slots: usize,
    /// The order each GEMM's tiles sum in.
    orders: [Order; 2],
    /// K extent of one GEMM0 call: `t.k`, or a block's whole K slab in
    /// the naive order, where a sum runs on through C across calls.
    k_step: usize,
}

/// Every buffer of one execution, allocated once. Packed: A per
/// `(block row, k-tile)`; the current cluster column's B and gate per
/// `(k-tile, n-tile)`, D per `(n-tile, l-tile)`; the row's C tiles.
struct Arena {
    a: Vec<f32>,
    b: [Vec<f32>; 2],
    d: Vec<f32>,
    c_packed: Vec<f32>,
    /// One n-trip's K partials, `t.m × t.n` per block, per branch.
    parts: [Vec<f32>; 2],
    /// The row's complete C tiles in column order (one n-trip's or, in
    /// C-strip order, the whole strip's).
    c: Matrix,
    /// E accumulators, `t.m × t.l` per `(block, slot)`.
    e: Vec<f32>,
    /// One row of a gate or reduce sum.
    sum: Vec<f32>,
}

/// Where one cluster block row sits.
struct Row {
    m0: usize,
    /// Weights (B, D) are multicast across the `cls_m` block rows of a
    /// cluster: only row 0 charges their loads.
    charge_shared: bool,
}

/// Sets `dst` to the element-wise sum of `rows`, added in order onto
/// zeros — the summation order of the exchange and the reduce.
fn sum_rows<'r>(dst: &mut [f32], rows: impl Iterator<Item = &'r [f32]>) {
    dst.fill(0.0);
    for row in rows {
        for (d, &v) in dst.iter_mut().zip(row) {
            *d += v;
        }
    }
}

/// Packs the `tiles` grid of `h × w` tiles of `m` from tile `at` on,
/// tile `(i, j)` into equal part `i * tiles.1 + j` of `buf`.
fn pack_grid(
    buf: &mut [f32],
    m: MatRef<'_>,
    at: (usize, usize),
    tiles: (usize, usize),
    (h, w): (usize, usize),
    pack: fn(&mut [f32], MatRef<'_>),
) {
    let len = buf.len() / (tiles.0 * tiles.1);
    for (i, part) in buf.chunks_exact_mut(len).enumerate() {
        let (r, c) = (at.0 + i / tiles.1, at.1 + i % tiles.1);
        pack(part, m.sub(r * h, c * w, h, w));
    }
}

/// Tile `index` of a buffer of packed tiles `len` long.
fn packed(buf: &[f32], index: usize, len: usize) -> &[f32] {
    &buf[index * len..(index + 1) * len]
}

impl<'a> Exec<'a> {
    fn new(plan: &'a FusedPlan, ops: Operands<'a>, kind: KernelKind) -> Self {
        let (t, c) = (plan.tile, plan.cluster);
        let (c_strip, tl) = (c_strip_order(&plan.schedule), plan.geometry.trips(Dim::L));
        let orders = [kind.order(t.m, t.n, t.k), kind.order(t.m, t.l, t.n)];
        let tk = plan.geometry.trips(Dim::K);
        Exec {
            plan,
            ops,
            t,
            cls: [c.m(), c.n(), c.k(), c.l(), c.cls_shuffle()],
            trips: Dim::ALL.map(|d| plan.geometry.trips(d)),
            c_strip,
            slots: if c_strip { 1 } else { tl },
            orders,
            k_step: t.k * if orders[0] == Order::Naive { tk } else { 1 },
        }
    }

    fn run(&self, counters: &mut TrafficCounters) -> Matrix {
        let (t, g) = (self.t, &self.plan.geometry);
        let [cm, cn, ck, cl, _] = self.cls;
        let [tm, tn, _, tl] = self.trips;
        let (m_tiles, n_tiles, kd) = (self.ops.a.rows() / t.m, tn * cn, self.k_step);
        let k_tiles = self.ops.a.cols() / kd;
        let strip = if self.c_strip { n_tiles } else { cn };
        let gated = self.ops.b_gate.is_some();
        let weight = vec![0.0; k_tiles * n_tiles * BlockedKernel::packed_b_len(kd, t.n)];
        let part = vec![0.0; cn * ck * t.m * t.n];
        let mut arena = Arena {
            a: vec![0.0; m_tiles * k_tiles * BlockedKernel::packed_a_len(t.m, kd)],
            b: [weight.clone(), if gated { weight } else { Vec::new() }],
            d: vec![0.0; n_tiles * cl * tl * BlockedKernel::packed_b_len(t.n, t.l)],
            parts: [part.clone(), if gated { part } else { Vec::new() }],
            c: Matrix::zeros(t.m, strip * t.n),
            c_packed: vec![0.0; strip * BlockedKernel::packed_a_len(t.m, t.n)],
            e: vec![0.0; cn * ck * self.slots * t.m * t.l],
            sum: vec![0.0; t.n.max(t.l)],
        };
        let (pack_a, pack_b) = (BlockedKernel::pack_a, BlockedKernel::pack_b);
        let (a, a_tiles) = (self.ops.a.view(), (m_tiles, k_tiles));
        pack_grid(&mut arena.a, a, (0, 0), a_tiles, (t.m, kd), pack_a);
        let mut out = Matrix::zeros(self.ops.a.rows(), self.ops.d.cols());
        for jn in 0..g.grid(Dim::N) {
            let weights = [Some(self.ops.b), self.ops.b_gate].into_iter().flatten();
            for (w, buf) in weights.zip(&mut arena.b) {
                let at = (0, jn * n_tiles);
                pack_grid(buf, w.view(), at, (k_tiles, n_tiles), (kd, t.n), pack_b);
            }
            let (d, at) = (self.ops.d.view(), (jn * n_tiles, 0));
            pack_grid(&mut arena.d, d, at, (n_tiles, cl * tl), (t.n, t.l), pack_b);
            for m_tile in 0..g.grid(Dim::M) * tm * cm {
                let row = Row {
                    m0: m_tile * t.m,
                    charge_shared: m_tile % cm == 0,
                };
                self.run_row(&row, &mut arena, &mut out, counters);
            }
        }
        out
    }

    /// One cluster block row. E-strip order (N outer or spatial): each
    /// n-trip's C tiles update every l-trip's E accumulators, which are
    /// reduced and stored at the end. C-strip order (L outer): the whole
    /// C strip is materialised first, then each l-trip re-shuffles it.
    fn run_row(
        &self,
        row: &Row,
        arena: &mut Arena,
        out: &mut Matrix,
        counters: &mut TrafficCounters,
    ) {
        let [_, tn, _, tl] = self.trips;
        if !self.c_strip {
            arena.e.fill(0.0);
            for t_n in 0..tn {
                self.gemm0_phase(row, t_n, arena, counters);
                self.pack_c(arena);
                self.gemm1_accumulate(row, t_n, 0, tl, arena, counters);
            }
            for t_l in 0..tl {
                self.reduce_and_store(row, t_l, t_l, arena, out, counters);
            }
            return;
        }
        for t_n in 0..tn {
            self.gemm0_phase(row, t_n, arena, counters);
        }
        if self.plan.chain.kind().is_attention() {
            self.softmax_strip(arena, counters);
        }
        self.pack_c(arena);
        for t_l in 0..tl {
            arena.e.fill(0.0);
            for t_n in 0..tn {
                self.gemm1_accumulate(row, t_n, t_l, 1, arena, counters);
            }
            self.reduce_and_store(row, t_l, 0, arena, out, counters);
        }
    }

    /// Packs the row's complete C tiles for the second GEMM.
    fn pack_c(&self, arena: &mut Arena) {
        let (tiles, shape) = ((1, arena.c.cols() / self.t.n), (self.t.m, self.t.n));
        let (c, pack_a) = (arena.c.view(), BlockedKernel::pack_a);
        pack_grid(&mut arena.c_packed, c, (0, 0), tiles, shape, pack_a);
    }

    /// Rowwise softmax over the complete C strip of one block row — the
    /// attention epilogue between the two GEMMs. The strip holds every
    /// score of each row in global column order (`grid(N) == 1`), so the
    /// shared [`rowwise_softmax_inplace`] helper defines the arithmetic
    /// bit-identically to the per-op oracle. When the strip is split
    /// across `cls_n` column-owner blocks, the row max and row sum are
    /// each combined in an all-exchange round among those blocks —
    /// `2 * cls_n * (cls_n - 1)` messages of `tile.m` f32 stats, priced
    /// in the DSM tier exactly as the analyzer predicts; nothing
    /// touches HBM.
    fn softmax_strip(&self, arena: &mut Arena, counters: &mut TrafficCounters) {
        let cn = self.cls[1] as u64;
        let scale = softmax_scale(self.plan.chain.softmax_scale_k());
        rowwise_softmax_inplace(&mut arena.c, scale);
        if cn > 1 {
            counters.record_primitive("softmax_stats");
            counters.add(MemLevel::Dsm, 2 * cn * (cn - 1) * self.t.m as u64 * 4);
            counters.barriers += 2;
        }
    }

    /// GEMM0 + all_exchange for one `(block row, n-trip)`: leaves the
    /// complete (activated) C tile of each block column in the strip.
    fn gemm0_phase(
        &self,
        row: &Row,
        t_n: usize,
        arena: &mut Arena,
        counters: &mut TrafficCounters,
    ) {
        let t = self.t;
        let [_, cn, ck, _, _] = self.cls;
        let [_, tn, tk, _] = self.trips;
        let branches = 1 + usize::from(self.ops.b_gate.is_some());
        // TMA multicast: an A tile is shared by the cls_n blocks of its
        // (bm, bk) and a weight tile by the cls_m block rows, so each is
        // charged once.
        let a_bytes = (ck * tk) as u64 * t.a_tile_bytes();
        let b_bytes = (cn * ck * tk * branches) as u64 * t.b_tile_bytes();
        for bytes in [a_bytes, if row.charge_shared { b_bytes } else { 0 }] {
            counters.add(MemLevel::Global, bytes);
            counters.add(MemLevel::Smem, bytes);
        }
        let len = t.m * t.n;
        let (kd, calls) = (self.k_step, tk * t.k / self.k_step);
        let a_len = BlockedKernel::packed_a_len(t.m, kd);
        let b_len = BlockedKernel::packed_b_len(kd, t.n);
        let a_row = row.m0 / t.m * ck * calls;
        for bni in 0..cn {
            let nt = t_n * cn + bni;
            for (parts, b) in arena.parts.iter_mut().zip(&arena.b).take(branches) {
                // Each block's partial over its K slab: its GEMM calls in
                // order, from zero.
                let blocks = parts[bni * ck * len..].chunks_exact_mut(len).take(ck);
                for (bki, part) in blocks.enumerate() {
                    part.fill(0.0);
                    for kt in bki * calls..(bki + 1) * calls {
                        BlockedKernel::new().run_tiles(
                            MatMut::new(&mut *part, t.m, t.n, t.n),
                            packed(&arena.a, a_row + kt, a_len),
                            packed(b, kt * tn * cn + nt, b_len),
                            kd,
                            self.orders[0],
                        );
                    }
                }
            }
            self.all_exchange(bni, if self.c_strip { t_n } else { 0 }, arena, counters);
        }
    }

    /// `dsm_all_exchange` across the `cls_k` partials of block column
    /// `bni`: sums them (per branch) in block order and writes the
    /// activated — for gated chains, `act(gate) ⊙ up` — complete C tile
    /// into strip slot `slot`.
    fn all_exchange(
        &self,
        bni: usize,
        slot: usize,
        arena: &mut Arena,
        counters: &mut TrafficCounters,
    ) {
        let t = self.t;
        let [_, cn, ck, _, _] = self.cls;
        let gated = self.ops.b_gate.is_some();
        let act = self.plan.chain.kind().activation();
        if ck > 1 {
            counters.record_primitive(if gated {
                "all_exchange.mul"
            } else {
                "all_exchange.add"
            });
            counters.barriers += 1;
        }
        // Each of the ck blocks reads the other ck-1 partials (for both
        // branches when gated).
        let remote_reads = (ck * (ck - 1)) as u64 * (1 + u64::from(gated));
        counters.add(MemLevel::Dsm, remote_reads * t.c_tile_bytes());
        let len = t.m * t.n;
        let blocks = bni * ck * len..(bni + 1) * ck * len;
        let mut strip = arena.c.view_mut();
        let mut tile = strip.sub_mut(0, (slot * cn + bni) * t.n, t.m, t.n);
        for i in 0..t.m {
            let cols = i * t.n..(i + 1) * t.n;
            let [up_parts, gate_parts] = &arena.parts;
            let up = tile.row_mut(i);
            let up_rows = up_parts[blocks.clone()].chunks_exact(len);
            sum_rows(up, up_rows.map(|p| &p[cols.clone()]));
            if gated {
                let gate = &mut arena.sum[..t.n];
                let gate_rows = gate_parts[blocks.clone()].chunks_exact(len);
                sum_rows(gate, gate_rows.map(|p| &p[cols.clone()]));
                for (u, &g) in up.iter_mut().zip(gate.iter()) {
                    *u *= act.apply(g);
                }
            } else {
                for u in up {
                    *u = act.apply(*u);
                }
            }
        }
    }

    /// GEMM1 for one n-trip: ring-shuffle complete C tiles within each
    /// shuffle group and update the accumulators of each block.
    ///
    /// `l_base` is the outer L-trip offset (0 in the E-strip order where
    /// the inner loop walks all `tl_count` trips, one accumulator slot
    /// each; the current `t_l` in the C-strip order where
    /// `tl_count == 1`).
    fn gemm1_accumulate(
        &self,
        row: &Row,
        t_n: usize,
        l_base: usize,
        tl_count: usize,
        arena: &mut Arena,
        counters: &mut TrafficCounters,
    ) {
        let t = self.t;
        let [_, cn, ck, cl, cls_shuffle] = self.cls;
        let tl = self.trips[3];
        let slot = if self.c_strip { t_n } else { 0 };
        let c_len = BlockedKernel::packed_a_len(t.m, t.n);
        let d_len = BlockedKernel::packed_b_len(t.n, t.l);
        let e_len = t.m * t.l;
        // Ring: step 0 is each block's own tile; the rest are remote
        // reads from peers in its group.
        let blocks = (cn * ck) as u64;
        if cls_shuffle > 1 {
            for _ in 0..blocks {
                counters.record_primitive("shuffle");
            }
            let remote = blocks * (cls_shuffle as u64 - 1);
            counters.add(MemLevel::Dsm, remote * t.c_tile_bytes());
            counters.barriers += remote;
        }
        // Each (n-slice, column) D tile is consumed by exactly one block
        // of this row (the q/bki assignment is a bijection), so every
        // read is a distinct load; dedup across block rows only.
        if row.charge_shared {
            let d_bytes = blocks * (cls_shuffle * tl_count) as u64 * t.d_tile_bytes();
            counters.add(MemLevel::Global, d_bytes);
            counters.add(MemLevel::Smem, d_bytes);
        }
        for bni in 0..cn {
            for bki in 0..ck {
                let idx = bni * ck + bki;
                let q = bki * cls_shuffle + (bni % cls_shuffle);
                let group_base = (bni / cls_shuffle) * cls_shuffle;
                for step in 0..cls_shuffle {
                    let peer_bn = group_base + (bni % cls_shuffle + step) % cls_shuffle;
                    let (nt, c_tile) = (t_n * cn + peer_bn, slot * cn + peer_bn);
                    for i in 0..tl_count {
                        let lt = (l_base + i) * cl + q;
                        let e = (idx * self.slots + i) * e_len;
                        BlockedKernel::new().run_tiles(
                            MatMut::new(&mut arena.e[e..e + e_len], t.m, t.l, t.l),
                            packed(&arena.c_packed, c_tile, c_len),
                            packed(&arena.d, nt * cl * tl + lt, d_len),
                            t.n,
                            self.orders[1],
                        );
                    }
                }
            }
        }
    }

    /// Reduce-scatter + store for one l-trip: sums the `cls_reduce`
    /// contributor accumulators (slot `slot`) of each column in group
    /// order and adds the sum into the output tile.
    fn reduce_and_store(
        &self,
        row: &Row,
        t_l: usize,
        slot: usize,
        arena: &mut Arena,
        out: &mut Matrix,
        counters: &mut TrafficCounters,
    ) {
        let t = self.t;
        let [_, cn, ck, cl, cls_shuffle] = self.cls;
        let cls_reduce = self.plan.cluster.cls_reduce();
        debug_assert_eq!(cn / cls_shuffle, cls_reduce, "reduce group size mismatch");
        let e_len = t.m * t.l;
        let mut out = out.view_mut();
        for q in 0..cl {
            let (bki, r) = (q / cls_shuffle, q % cls_shuffle);
            if cls_reduce > 1 {
                counters.record_primitive("reduce_scatter");
                counters.barriers += 1;
                counters.add(MemLevel::Dsm, (cls_reduce as u64 - 1) * t.e_tile_bytes());
            }
            counters.add(MemLevel::Global, t.e_tile_bytes());
            if self.plan.geometry.needs_inter_cluster_reduce() {
                counters.record_primitive("inter_cluster_reduce");
            }
            let mut dst = out.sub_mut(row.m0, (t_l * cl + q) * t.l, t.m, t.l);
            for i in 0..t.m {
                let sum = &mut arena.sum[..t.l];
                let contributors = (0..cn / cls_shuffle).map(|group| {
                    let idx = (group * cls_shuffle + r) * ck + bki;
                    let at = (idx * self.slots + slot) * e_len + i * t.l;
                    &arena.e[at..at + t.l]
                });
                sum_rows(sum, contributors);
                for (v, &s) in dst.row_mut(i).iter_mut().zip(sum.iter()) {
                    *v += s;
                }
            }
        }
    }
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
        let got =
            execute_fused_with(plan, &inputs, &mut counters, NumericConfig::default()).unwrap();
        assert!(
            expected.approx_eq(&got, 1e-3).unwrap(),
            "plan {} diverged: max err {}",
            plan,
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
            execute_fused_with(&plan, &inputs, &mut naive_c, NumericConfig::default()).unwrap();
            let mut blocked_c = TrafficCounters::new();
            let got = execute_fused_with(&plan, &inputs, &mut blocked_c, NumericConfig::blocked())
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
        let got = execute_fused_with(
            analysis.plan(),
            &inputs,
            &mut counters,
            NumericConfig::default(),
        )
        .unwrap();
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
            execute_fused_with(&plan, &inputs, &mut c, NumericConfig::default()),
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
            execute_fused_with(&plan, &inputs, &mut c, NumericConfig::default()),
            Err(ExecError::MissingGateWeight)
        ));
    }

    #[test]
    fn every_operand_is_checked_and_named_with_both_shapes() {
        // Gated 16x64x32x64: A is 16x32, B and B_gate 32x64, D 64x64.
        let chain = ChainSpec::gated_ffn(16, 64, 32, 64, Activation::Silu);
        let plan = make_plan(
            &chain,
            &[Dim::M],
            &[Dim::N, Dim::L, Dim::K],
            ClusterShape::new(1, 2, 2, 2).unwrap(),
            BlockTile::new(16, 16, 16, 16),
        );
        let good = chain.make_inputs(1);
        let wrong = |f: fn(&mut ChainInputs)| {
            let mut inputs = good.clone();
            f(&mut inputs);
            inputs
        };
        let cases = [
            (
                wrong(|i| i.a = Matrix::zeros(32, 16)),
                "A",
                (32, 16),
                (16, 32),
            ),
            (
                wrong(|i| i.b = Matrix::zeros(32, 48)),
                "B",
                (32, 48),
                (32, 64),
            ),
            // A gate weight larger than the chain's used to pass, its
            // top-left block silently multiplied.
            (
                wrong(|i| i.b_gate = Some(Matrix::zeros(48, 80))),
                "B_gate",
                (48, 80),
                (32, 64),
            ),
            (
                wrong(|i| i.d = Matrix::zeros(64, 32)),
                "D",
                (64, 32),
                (64, 64),
            ),
        ];
        for (inputs, name, got, want) in cases {
            let err = execute_fused_with(
                &plan,
                &inputs,
                &mut TrafficCounters::new(),
                NumericConfig::default(),
            )
            .unwrap_err();
            match &err {
                ExecError::Operand {
                    name: n,
                    got: g,
                    want: w,
                } => assert_eq!((*n, *g, *w), (name, got, want)),
                other => panic!("{name}: expected an operand error, got {other}"),
            }
            assert_eq!(
                err.to_string(),
                format!(
                    "operand {name} is {}x{}, the chain needs {}x{}",
                    got.0, got.1, want.0, want.1
                )
            );
        }
        assert!(execute_fused_with(
            &plan,
            &good,
            &mut TrafficCounters::new(),
            NumericConfig::default()
        )
        .is_ok());
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
            execute_fused_with(&plan, &inputs, &mut c, NumericConfig::default()),
            Err(ExecError::Plan(
                flashfuser_core::PlanError::GeometryMismatch
            ))
        ));
        // A chain no tile divides fails the derivation itself.
        let odd = ChainSpec::standard_ffn(33, 64, 48, 64, Activation::Relu);
        plan.chain = odd.clone();
        let inputs = odd.make_inputs(1);
        assert!(matches!(
            execute_fused_with(&plan, &inputs, &mut c, NumericConfig::default()),
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
            execute_fused_with(
                analysis.plan(),
                &inputs,
                &mut counters,
                NumericConfig::default(),
            )
            .unwrap();
            assert_eq!(
                counters.dsm_bytes(),
                analysis.volume(flashfuser_core::MemLevel::Dsm),
                "schedule {schedule}"
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
        execute_fused_with(
            analysis.plan(),
            &inputs,
            &mut counters,
            NumericConfig::default(),
        )
        .unwrap();
        assert_eq!(
            counters.global_bytes(),
            analysis.volume(MemLevel::L2),
            "executor vs analyzer raw traffic"
        );
        assert!(analysis.volume(MemLevel::Global) <= analysis.volume(MemLevel::L2));
    }
}
