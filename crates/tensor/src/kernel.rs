//! Pluggable GEMM numeric backends.
//!
//! Every numeric path in the repository — the graph interpreter, the
//! fused/unfused executors and `validate_graph` — bottoms out in a
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

use crate::activation::Activation;
use crate::error::ShapeError;
use crate::gemm;
use crate::matrix::Matrix;

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

    /// Computes `C = act(C + A × B)`, the fused-epilogue form.
    ///
    /// The default applies the activation as a separate pass after
    /// [`MicroKernel::gemm`]; kernels may override it to apply the
    /// epilogue while output blocks are still cache-resident.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] under the same conditions as
    /// [`MicroKernel::gemm`].
    fn gemm_epilogue(
        &self,
        c: &mut Matrix,
        a: &Matrix,
        b: &Matrix,
        act: Activation,
    ) -> Result<(), ShapeError> {
        self.gemm(c, a, b)?;
        act.apply_inplace(c);
        Ok(())
    }
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
/// `C`.
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

    /// The packed loop nest. Shapes must already be validated.
    ///
    /// When `epi` is set, the activation is applied to each completed
    /// `nc`-wide column strip of `C` right after its final K slab, while
    /// the strip is still cache-warm.
    pub(crate) fn gemm_packed(
        &self,
        c: &mut Matrix,
        a: &Matrix,
        b: &Matrix,
        epi: Option<Activation>,
    ) {
        let (m, k) = a.shape();
        let n = b.cols();
        if m == 0 || n == 0 {
            return;
        }
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let c_s = c.as_mut_slice();
        let mc = self.mc.min(m.next_multiple_of(MR));
        let kc = self.kc.min(k.max(1));
        let nc = self.nc.min(n.next_multiple_of(NR));
        let mut ap = vec![0.0f32; mc.next_multiple_of(MR) * kc];
        let mut bp = vec![0.0f32; kc * nc.next_multiple_of(NR)];
        let mut jc = 0;
        while jc < n {
            let nc_eff = nc.min(n - jc);
            let n_panels = nc_eff.div_ceil(NR);
            let mut pc = 0;
            while pc < k {
                let kc_eff = kc.min(k - pc);
                pack_b(&mut bp, b_s, n, pc, jc, kc_eff, nc_eff);
                let mut ic = 0;
                while ic < m {
                    let mc_eff = mc.min(m - ic);
                    let m_panels = mc_eff.div_ceil(MR);
                    pack_a(&mut ap, a_s, k, ic, pc, mc_eff, kc_eff);
                    for jp in 0..n_panels {
                        let bp_panel = &bp[jp * kc_eff * NR..(jp + 1) * kc_eff * NR];
                        let j0 = jc + jp * NR;
                        let nr_eff = NR.min(n - j0);
                        for ip in 0..m_panels {
                            let ap_panel = &ap[ip * kc_eff * MR..(ip + 1) * kc_eff * MR];
                            let i0 = ic + ip * MR;
                            let mr_eff = MR.min(m - i0);
                            let acc = micro_tile(ap_panel, bp_panel);
                            for (di, acc_row) in acc.iter().enumerate().take(mr_eff) {
                                let start = (i0 + di) * n + j0;
                                let c_row = &mut c_s[start..start + nr_eff];
                                for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                                    *cv += av;
                                }
                            }
                        }
                    }
                    ic += mc_eff;
                }
                pc += kc_eff;
            }
            if let Some(act) = epi {
                for i in 0..m {
                    for v in &mut c_s[i * n + jc..i * n + jc + nc_eff] {
                        *v = act.apply(*v);
                    }
                }
            }
            jc += nc_eff;
        }
    }
}

impl MicroKernel for BlockedKernel {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm(&self, c: &mut Matrix, a: &Matrix, b: &Matrix) -> Result<(), ShapeError> {
        check_shapes("blocked_gemm", c, a, b)?;
        if below_cutoff(a, b) {
            return gemm::matmul_accumulate(c, a, b);
        }
        self.gemm_packed(c, a, b, None);
        Ok(())
    }

    fn gemm_epilogue(
        &self,
        c: &mut Matrix,
        a: &Matrix,
        b: &Matrix,
        act: Activation,
    ) -> Result<(), ShapeError> {
        check_shapes("blocked_gemm", c, a, b)?;
        if below_cutoff(a, b) {
            gemm::matmul_accumulate(c, a, b)?;
            act.apply_inplace(c);
            return Ok(());
        }
        self.gemm_packed(c, a, b, Some(act));
        Ok(())
    }
}

fn below_cutoff(a: &Matrix, b: &Matrix) -> bool {
    gemm::gemm_flops(a.rows() as u64, b.cols() as u64, a.cols() as u64) < NAIVE_CUTOFF_FLOPS
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

/// Packs an `m_eff × k_eff` block of `a` (top-left at `(row0, col0)`,
/// leading dimension `lda`) into [`MR`]-tall column micro-panels:
/// within each panel, the `MR` values of one K step are contiguous.
/// Rows past `m_eff` are zero-padded.
fn pack_a(
    ap: &mut [f32],
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    m_eff: usize,
    k_eff: usize,
) {
    for ip in 0..m_eff.div_ceil(MR) {
        let panel = &mut ap[ip * k_eff * MR..(ip + 1) * k_eff * MR];
        let rows = MR.min(m_eff - ip * MR);
        for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = if i < rows {
                    a[(row0 + ip * MR + i) * lda + col0 + p]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs a `k_eff × n_eff` block of `b` (top-left at `(row0, col0)`,
/// leading dimension `ldb`) into [`NR`]-wide row micro-panels: within
/// each panel, the `NR` values of one K step are contiguous. Columns
/// past `n_eff` are zero-padded.
fn pack_b(
    bp: &mut [f32],
    b: &[f32],
    ldb: usize,
    row0: usize,
    col0: usize,
    k_eff: usize,
    n_eff: usize,
) {
    for jp in 0..n_eff.div_ceil(NR) {
        let panel = &mut bp[jp * k_eff * NR..(jp + 1) * k_eff * NR];
        let cols = NR.min(n_eff - jp * NR);
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let src0 = (row0 + p) * ldb + col0 + jp * NR;
            dst[..cols].copy_from_slice(&b[src0..src0 + cols]);
            dst[cols..].fill(0.0);
        }
    }
}

/// The register-blocked inner kernel: accumulates one [`MR`]×[`NR`]
/// tile over a full K slab from packed panels.
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
fn micro_tile(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut r0 = [0.0f32; NR];
    let mut r1 = [0.0f32; NR];
    let mut r2 = [0.0f32; NR];
    let mut r3 = [0.0f32; NR];
    let mut r4 = [0.0f32; NR];
    let mut r5 = [0.0f32; NR];
    let mut r6 = [0.0f32; NR];
    let mut r7 = [0.0f32; NR];
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let ak: &[f32; MR] = ak.try_into().expect("A panel step is MR wide");
        let bk: &[f32; NR] = bk.try_into().expect("B panel step is NR wide");
        for j in 0..NR {
            r0[j] = fmadd(ak[0], bk[j], r0[j]);
            r1[j] = fmadd(ak[1], bk[j], r1[j]);
            r2[j] = fmadd(ak[2], bk[j], r2[j]);
            r3[j] = fmadd(ak[3], bk[j], r3[j]);
            r4[j] = fmadd(ak[4], bk[j], r4[j]);
            r5[j] = fmadd(ak[5], bk[j], r5[j]);
            r6[j] = fmadd(ak[6], bk[j], r6[j]);
            r7[j] = fmadd(ak[7], bk[j], r7[j]);
        }
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
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
/// executors and `validate_graph`.
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

    /// The selected kernel instance.
    pub fn micro_kernel(&self) -> &'static dyn MicroKernel {
        self.kernel.kernel()
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
    fn epilogue_matches_separate_activation_for_both_kernels() {
        let a = seeded_matrix(48, 40, 31);
        let b = seeded_matrix(40, 56, 32);
        for kind in KernelKind::all() {
            for act in Activation::all() {
                let kernel = kind.kernel();
                let mut separate = Matrix::from_fn(48, 56, |r, c| (r * 56 + c) as f32 * 0.01);
                let mut fused = separate.clone();
                kernel.gemm(&mut separate, &a, &b).unwrap();
                act.apply_inplace(&mut separate);
                kernel.gemm_epilogue(&mut fused, &a, &b, act).unwrap();
                assert_eq!(
                    fused.as_slice(),
                    separate.as_slice(),
                    "{kind} epilogue diverged for {act:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_block_shapes_stay_correct() {
        let a = seeded_matrix(13, 9, 7);
        let b = seeded_matrix(9, 11, 8);
        let reference = gemm::matmul(&a, &b).unwrap();
        let uniform = [1, 2, 3, 4, 5, 8, 16, 64].map(|block| (block, block, block));
        for (mc, kc, nc) in uniform.into_iter().chain([(2, 3, 5), (8, 16, 8)]) {
            let mut c = Matrix::zeros(13, 11);
            BlockedKernel { mc, kc, nc }.gemm_packed(&mut c, &a, &b, None);
            assert!(
                reference.approx_eq(&c, 1e-5).unwrap(),
                "blocks ({mc},{kc},{nc}) diverged"
            );
        }
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
        assert_eq!(NumericConfig::blocked().micro_kernel().name(), "blocked");
    }
}
