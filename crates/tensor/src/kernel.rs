//! Pluggable GEMM numeric backends.
//!
//! Every numeric path in the repository — the graph interpreter, the
//! fused executor and `validate_graph_with` — bottoms out in a
//! matrix multiply. [`MicroKernel`] abstracts that inner kernel so the
//! whole stack can select, explicitly and deterministically, between:
//!
//! * [`NaiveKernel`] — the scalar i-k-j reference loop from
//!   [`crate::gemm::matmul_accumulate`]. It stays the repository's
//!   numeric oracle: simple enough to audit by eye, with a fixed
//!   accumulation order that defines "ground truth" for every
//!   differential check.
//! * [`BlockedKernel`] — a cache-blocked, packed GEMM in the BLIS
//!   style: A and B are repacked into contiguous micro-panels sized
//!   for L1/L2, and an unrolled `MR`×`NR` (8×32) register-blocked
//!   micro-tile does the arithmetic. The inner loops are plain safe
//!   Rust over fixed-size arrays, written so rustc/LLVM autovectorizes
//!   them — no `unsafe`, no intrinsics.
//!
//! Selection is threaded through call sites as a [`NumericConfig`];
//! there is intentionally no CPU sniffing or runtime dispatch by
//! hardware feature, so a given (seed, config) pair reproduces
//! bit-identical outputs on every run.

use crate::error::ShapeError;
use crate::gemm;
use crate::matrix::{MatMut, MatRef, Matrix};

/// Rows of the register-blocked micro-tile.
const MR: usize = 8;
/// Columns of the register-blocked micro-tile.
const NR: usize = 32;

/// Default M-panel height (A block resident in L2).
const DEFAULT_MC: usize = 256;
/// Default K-panel depth (one A micro-panel + one B micro-panel fit in L1:
/// `(MR + NR) * KC * 4` bytes = 40 KiB).
const DEFAULT_KC: usize = 256;
/// Default N-panel width (packed B block resident in L2/L3).
const DEFAULT_NC: usize = 1024;

/// Below this FLOP count the packed path's setup (buffer allocation and
/// panel packing) costs more than it saves, so [`BlockedKernel::gemm`]
/// falls back to the naive loop. The cutoff is a fixed constant — part
/// of the kernel's deterministic definition, not a tuning knob.
const NAIVE_CUTOFF_FLOPS: u64 = 2 * 32 * 32 * 32;

/// A GEMM backend with accumulate semantics: `C += A × B`.
///
/// Implementations must be deterministic — a fixed accumulation order,
/// independent of input values and of the host CPU — so that seeded
/// experiments reproduce bit-for-bit.
pub trait MicroKernel: std::fmt::Debug + Send + Sync {
    /// Stable identifier used in fuzz output and CLI flags.
    fn name(&self) -> &'static str;

    /// Computes `C += A × B`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `A.cols() != B.rows()` or `C` is not
    /// `A.rows() × B.cols()`.
    fn gemm(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) -> Result<(), ShapeError>;
}

/// The scalar i-k-j reference loop — the repository's numeric oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NaiveKernel;

impl MicroKernel for NaiveKernel {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn gemm(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) -> Result<(), ShapeError> {
        gemm::matmul_accumulate(c, a, b)
    }
}

/// Cache-blocked, packed GEMM with an autovectorized micro-tile.
///
/// The loop nest follows the classic BLIS decomposition: N is split
/// into `nc`-wide column strips, K into `kc`-deep slabs, M into
/// `mc`-tall row blocks. Within a block, B is packed into `NR`-wide
/// row panels and A into `MR`-tall column panels (both zero-padded
/// at ragged edges), and an `MR`×`NR` (8×32) register-blocked
/// micro-tile accumulates over the K slab before being added back into
/// `C`. Both stages are public, so a caller reusing an operand across
/// many GEMMs packs it once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedKernel {
    mc: usize,
    kc: usize,
    nc: usize,
}

impl Default for BlockedKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockedKernel {
    /// The default cache-sized blocking.
    pub const fn new() -> Self {
        Self {
            mc: DEFAULT_MC,
            kc: DEFAULT_KC,
            nc: DEFAULT_NC,
        }
    }

    /// The packed loop nest over the two stages: pack, then
    /// [`BlockedKernel::run_tiles`]. Shapes must already be validated.
    pub(crate) fn gemm_packed(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) {
        let (m, k) = a.shape();
        let n = b.cols();
        if m == 0 || n == 0 {
            return;
        }
        let mc = self.mc.min(m.next_multiple_of(MR));
        let kc = self.kc.min(k.max(1));
        let nc = self.nc.min(n.next_multiple_of(NR));
        let mut ap = vec![0.0f32; Self::packed_a_len(mc, kc)];
        let mut bp = vec![0.0f32; Self::packed_b_len(kc, nc)];
        let (a, b, mut c) = (a.view(), b.view(), c.view_mut());
        for jc in (0..n).step_by(nc) {
            let nc_eff = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kc_eff = kc.min(k - pc);
                Self::pack_b(&mut bp, b.sub(pc, jc, kc_eff, nc_eff));
                for ic in (0..m).step_by(mc) {
                    let mc_eff = mc.min(m - ic);
                    Self::pack_a(&mut ap, a.sub(ic, pc, mc_eff, kc_eff));
                    let c = c.sub_mut(ic, jc, mc_eff, nc_eff);
                    self.run_tiles(c, &ap, &bp, kc_eff, Order::Chunked);
                }
            }
        }
    }

    /// Length [`BlockedKernel::pack_a`] fills for `rows × depth`.
    pub fn packed_a_len(rows: usize, depth: usize) -> usize {
        rows.next_multiple_of(MR) * depth
    }

    /// Length [`BlockedKernel::pack_b`] fills for `depth × cols`.
    pub fn packed_b_len(depth: usize, cols: usize) -> usize {
        depth * cols.next_multiple_of(NR)
    }

    /// Packs the `m × depth` operand `a` into `MR`-tall (8) column
    /// micro-panels: within each panel, the `MR` values of one K step are
    /// contiguous. Rows past `m` are zero-padded.
    pub fn pack_a(ap: &mut [f32], a: MatRef<'_>) {
        let (m, depth) = a.shape();
        for ip in 0..m.div_ceil(MR) {
            let panel = &mut ap[ip * depth * MR..(ip + 1) * depth * MR];
            let rows = MR.min(m - ip * MR);
            for i in 0..MR {
                let src = (i < rows).then(|| a.row(ip * MR + i));
                for (p, d) in panel.iter_mut().skip(i).step_by(MR).enumerate() {
                    *d = src.map_or(0.0, |row| row[p]);
                }
            }
        }
    }

    /// Packs the `depth × n` operand `b` into `NR`-wide (32) row
    /// micro-panels: within each panel, the `NR` values of one K step are
    /// contiguous. Columns past `n` are zero-padded.
    pub fn pack_b(bp: &mut [f32], b: MatRef<'_>) {
        let (depth, n) = b.shape();
        for jp in 0..n.div_ceil(NR) {
            let panel = &mut bp[jp * depth * NR..(jp + 1) * depth * NR];
            let cols = NR.min(n - jp * NR);
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                dst[..cols].copy_from_slice(&b.row(p)[jp * NR..jp * NR + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }

    /// `C += A × B` in `order`, from operands packed `depth` steps deep.
    /// How they were packed, or which rows share a panel, does not enter
    /// the result.
    pub fn run_tiles(&self, mut c: MatMut<'_>, ap: &[f32], bp: &[f32], depth: usize, order: Order) {
        let (m, n) = c.shape();
        let fused = order == Order::Chunked;
        let chunk = if fused { self.kc } else { depth.max(1) };
        for k0 in (0..depth).step_by(chunk) {
            let k1 = depth.min(k0 + chunk);
            for jp in 0..n.div_ceil(NR) {
                let bp_panel = &bp[(jp * depth + k0) * NR..(jp * depth + k1) * NR];
                let cols = jp * NR..n.min((jp + 1) * NR);
                for ip in 0..m.div_ceil(MR) {
                    let ap_panel = &ap[(ip * depth + k0) * MR..(ip * depth + k1) * MR];
                    let rows = ip * MR..m.min((ip + 1) * MR);
                    let mut acc = [[0.0f32; NR]; MR];
                    if fused {
                        acc = micro_tile::<true>(acc, ap_panel, bp_panel);
                    } else {
                        for (acc_row, i) in acc.iter_mut().zip(rows.clone()) {
                            acc_row[..cols.len()].copy_from_slice(&c.row_mut(i)[cols.clone()]);
                        }
                        acc = micro_tile::<false>(acc, ap_panel, bp_panel);
                    }
                    for (acc_row, i) in acc.iter().zip(rows) {
                        for (cv, &av) in c.row_mut(i)[cols.clone()].iter_mut().zip(acc_row) {
                            *cv = if fused { *cv + av } else { av };
                        }
                    }
                }
            }
        }
    }
}

/// How [`BlockedKernel::run_tiles`] sums each output element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Per `kc`-deep chunk, one FMA sum from zero, added into `C`.
    Chunked,
    /// The naive loop's: each product added onto `C`'s running value —
    /// bit for bit [`crate::gemm::matmul_accumulate`].
    Naive,
}

impl MicroKernel for BlockedKernel {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) -> Result<(), ShapeError> {
        check_shapes("blocked_gemm", c, a, b)?;
        if below_cutoff(a.rows(), b.cols(), a.cols()) {
            return gemm::matmul_accumulate(c, a, b);
        }
        self.gemm_packed(c, a, b);
        Ok(())
    }
}

/// `true` when an `m × n × k` GEMM is below [`NAIVE_CUTOFF_FLOPS`].
fn below_cutoff(m: usize, n: usize, k: usize) -> bool {
    gemm::gemm_flops(m as u64, n as u64, k as u64) < NAIVE_CUTOFF_FLOPS
}

fn check_shapes(op: &'static str, c: &Matrix, a: &Matrix, b: &Matrix) -> Result<(), ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(op, a.shape(), b.shape()));
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(ShapeError::new(op, c.shape(), (a.rows(), b.cols())));
    }
    Ok(())
}

/// The register-blocked inner kernel: accumulates one [`MR`]×[`NR`]
/// tile onto `acc` over a K slab from packed panels.
///
/// The accumulator is [`MR`] explicit local `[f32; NR]` arrays — not a
/// 2-D array — and the row updates are hand-unrolled in the K-step
/// body. Both choices are load-bearing for codegen: with a 2-D
/// accumulator indexed in a loop, LLVM's loop vectorizer picks the
/// strided (row-crossing) direction and spills the tile to memory with
/// gather/scatter, an order of magnitude slower. With per-row locals
/// the tile is SROA'd into vector registers and each row update
/// becomes one broadcast + one fused multiply-add over the whole row —
/// measured by the benchmark as `tensor.kernel.blocked_gflops_512`, all
/// in safe Rust.
#[inline]
fn micro_tile<const FUSED: bool>(acc: [[f32; NR]; MR], ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let [mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6, mut r7] = acc;
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let ak: &[f32; MR] = ak.try_into().expect("A panel step is MR wide");
        let bk: &[f32; NR] = bk.try_into().expect("B panel step is NR wide");
        for j in 0..NR {
            r0[j] = step::<FUSED>(ak[0], bk[j], r0[j]);
            r1[j] = step::<FUSED>(ak[1], bk[j], r1[j]);
            r2[j] = step::<FUSED>(ak[2], bk[j], r2[j]);
            r3[j] = step::<FUSED>(ak[3], bk[j], r3[j]);
            r4[j] = step::<FUSED>(ak[4], bk[j], r4[j]);
            r5[j] = step::<FUSED>(ak[5], bk[j], r5[j]);
            r6[j] = step::<FUSED>(ak[6], bk[j], r6[j]);
            r7[j] = step::<FUSED>(ak[7], bk[j], r7[j]);
        }
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// One micro-tile step, `c + a * b`: fused ([`fmadd`]) for
/// [`Order::Chunked`], a separate multiply and add — the naive loop's
/// rounding — otherwise.
#[inline(always)]
fn step<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        fmadd(a, b, c)
    } else {
        c + a * b
    }
}

/// `a * b + c` as a hardware FMA when the compile target has one, and
/// as separate multiply + add otherwise — `f32::mul_add` without
/// hardware FMA lowers to a libm call that is orders of magnitude
/// slower than the arithmetic it replaces. The FMA form rounds once
/// instead of twice; both are within the blocked kernel's documented
/// 1e-4 normwise envelope against the naive oracle.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        c + a * b
    }
}

/// Which [`MicroKernel`] a numeric path uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// [`NaiveKernel`]: the scalar reference loop and numeric oracle.
    #[default]
    Naive,
    /// [`BlockedKernel`]: the packed, cache-blocked fast path.
    Blocked,
}

static NAIVE: NaiveKernel = NaiveKernel;
static BLOCKED: BlockedKernel = BlockedKernel::new();

impl KernelKind {
    /// The shared kernel instance for this kind.
    pub fn kernel(self) -> &'static dyn MicroKernel {
        match self {
            KernelKind::Naive => &NAIVE,
            KernelKind::Blocked => &BLOCKED,
        }
    }

    /// The [`Order`] giving an `m × n × k` GEMM this kind's rounding:
    /// chunked only for the blocked kind at or above its cutoff.
    pub fn order(self, m: usize, n: usize, k: usize) -> Order {
        match self {
            KernelKind::Blocked if !below_cutoff(m, n, k) => Order::Chunked,
            _ => Order::Naive,
        }
    }

    /// Parses the CLI spelling (`"naive"` / `"blocked"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "naive" => Some(KernelKind::Naive),
            "blocked" => Some(KernelKind::Blocked),
            _ => None,
        }
    }

    /// Every selectable kind, in bench order.
    pub fn all() -> [KernelKind; 2] {
        [KernelKind::Naive, KernelKind::Blocked]
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kernel().name())
    }
}

/// Deterministic, explicit numeric-backend selection for the
/// executors and `validate_graph_with`; [`NumericConfig::default`] is
/// the naive oracle.
///
/// Selection is a plain enum rather than CPU detection so that fuzz
/// seeds stay reproducible: the same (seed, config) pair yields the
/// same bits on every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NumericConfig {
    /// The GEMM backend every matmul on the path uses.
    pub kernel: KernelKind,
}

impl NumericConfig {
    /// The oracle configuration (naive kernel) — the default.
    pub fn naive() -> Self {
        NumericConfig {
            kernel: KernelKind::Naive,
        }
    }

    /// The fast-path configuration (blocked kernel).
    pub fn blocked() -> Self {
        NumericConfig {
            kernel: KernelKind::Blocked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_matrix;

    fn normwise_close(got: &Matrix, reference: &Matrix, tol: f32) -> bool {
        let err = got.max_abs_diff(reference).unwrap();
        let scale = reference
            .as_slice()
            .iter()
            .fold(1.0f32, |m, v| m.max(v.abs()));
        err / scale <= tol
    }

    #[test]
    fn blocked_matches_naive_above_the_cutoff() {
        // 96 x 80 x 72 is above NAIVE_CUTOFF_FLOPS and not a multiple
        // of the micro-tile in any dimension.
        let a = seeded_matrix(96, 72, 11);
        let b = seeded_matrix(72, 80, 12);
        let mut naive = Matrix::zeros(96, 80);
        NaiveKernel.gemm(&mut naive, &a, &b).unwrap();
        let mut blocked = Matrix::zeros(96, 80);
        BlockedKernel::new().gemm(&mut blocked, &a, &b).unwrap();
        assert!(normwise_close(&blocked, &naive, 1e-5));
    }

    #[test]
    fn blocked_accumulates_into_existing_output() {
        let a = seeded_matrix(40, 48, 21);
        let b = seeded_matrix(48, 40, 22);
        let mut expect = Matrix::from_fn(40, 40, |r, c| (r + c) as f32);
        let mut got = expect.clone();
        NaiveKernel.gemm(&mut expect, &a, &b).unwrap();
        BlockedKernel::new().gemm(&mut got, &a, &b).unwrap();
        assert!(normwise_close(&got, &expect, 1e-5));
    }

    #[test]
    fn degenerate_block_shapes_stay_correct() {
        let a = seeded_matrix(13, 9, 7);
        let b = seeded_matrix(9, 11, 8);
        let reference = gemm::matmul(&a, &b).unwrap();
        let uniform = [1, 2, 3, 4, 5, 8, 16, 64].map(|block| (block, block, block));
        for (mc, kc, nc) in uniform.into_iter().chain([(2, 3, 5), (8, 16, 8)]) {
            let mut c = Matrix::zeros(13, 11);
            BlockedKernel { mc, kc, nc }.gemm_packed(&mut c, &a, &b);
            assert!(
                reference.approx_eq(&c, 1e-5).unwrap(),
                "blocks ({mc},{kc},{nc}) diverged"
            );
        }
    }

    #[test]
    fn packed_tiles_give_the_bits_of_the_gemm_they_stand_for() {
        // Ragged against MR/NR, and one K extent past a 256-deep chunk.
        for (m, n, k) in [(1, 1, 1), (13, 9, 11), (16, 48, 32), (9, 33, 300)] {
            let a = seeded_matrix(m, k, 41);
            let b = seeded_matrix(k, n, 42);
            let start = Matrix::from_fn(m, n, |r, c| (r * n + c) as f32 * 0.01 - 1.0);
            let mut ap = vec![0.0; BlockedKernel::packed_a_len(m, k)];
            let mut bp = vec![0.0; BlockedKernel::packed_b_len(k, n)];
            BlockedKernel::pack_a(&mut ap, a.view());
            BlockedKernel::pack_b(&mut bp, b.view());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for order in [Order::Naive, Order::Chunked] {
                let mut want = start.clone();
                match order {
                    Order::Naive => gemm::matmul_accumulate(&mut want, &a, &b).unwrap(),
                    Order::Chunked => BlockedKernel::new().gemm_packed(&mut want, &a, &b),
                }
                let mut got = start.clone();
                BlockedKernel::new().run_tiles(got.view_mut(), &ap, &bp, k, order);
                assert_eq!(bits(&got), bits(&want), "{m}x{n}x{k} {order:?}");
            }
        }
        assert_eq!(KernelKind::Naive.order(64, 64, 64), Order::Naive);
        assert_eq!(KernelKind::Blocked.order(16, 16, 16), Order::Naive);
        assert_eq!(KernelKind::Blocked.order(32, 32, 32), Order::Chunked);
    }

    #[test]
    fn kernels_reject_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        for kind in KernelKind::all() {
            assert!(kind.kernel().gemm(&mut c, &a, &b).is_err());
        }
        let b = Matrix::zeros(3, 5);
        for kind in KernelKind::all() {
            assert!(
                kind.kernel().gemm(&mut c, &a, &b).is_err(),
                "wrong C shape must be rejected"
            );
        }
    }

    #[test]
    fn kind_parses_its_own_display() {
        for kind in KernelKind::all() {
            assert_eq!(KernelKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(KernelKind::parse("turbo"), None);
        assert_eq!(KernelKind::default(), KernelKind::Naive);
        assert_eq!(NumericConfig::default(), NumericConfig::naive());
    }
}
