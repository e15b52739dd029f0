//! Convolution-to-GEMM lowering (`im2col`).
//!
//! The paper's conv chains (Table V) are executed as GEMM chains after an
//! im2col transform (Fig. 1(a)). This module provides the transform plus a
//! direct convolution reference, so tests can prove the lowering is exact.
//!
//! Layout conventions: inputs are CHW (`channels x height x width`)
//! flattened into a `Matrix` of shape `(C, H*W)`; weights are
//! `(OC, IC*KH*KW)`; the im2col patch matrix is `(H_out*W_out, IC*KH*KW)`
//! so that `patches x weightsᵀ` yields `(H_out*W_out, OC)` — the GEMM
//! orientation the fusion engine consumes (M = spatial positions).

use crate::error::ShapeError;
use crate::matrix::Matrix;

/// Geometry of a 2-D convolution, stride 1 with "same"-style zero padding
/// chosen so `H_out = H` (the ResNet blocks in Table V use 1x1 and 3x3
/// kernels with padding preserving spatial size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Input (and output) height.
    pub height: usize,
    /// Input (and output) width.
    pub width: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size (1 or 3 in Table V).
    pub kernel: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (same-padding requires odd kernels) or any
    /// dimension is zero.
    pub fn new(
        in_channels: usize,
        height: usize,
        width: usize,
        out_channels: usize,
        kernel: usize,
    ) -> Self {
        assert!(kernel % 2 == 1, "same-padding requires an odd kernel size");
        assert!(
            in_channels > 0 && height > 0 && width > 0 && out_channels > 0,
            "conv dimensions must be positive"
        );
        Self {
            in_channels,
            height,
            width,
            out_channels,
            kernel,
        }
    }

    /// Zero padding on each side (`(kernel - 1) / 2`).
    pub fn padding(&self) -> usize {
        (self.kernel - 1) / 2
    }

    /// Rows of the im2col patch matrix: `H * W` spatial positions.
    pub fn gemm_m(&self) -> usize {
        self.height * self.width
    }

    /// Columns of the im2col patch matrix: `IC * K * K`.
    pub fn gemm_k(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Output columns of the lowered GEMM: `OC`.
    pub fn gemm_n(&self) -> usize {
        self.out_channels
    }
}

/// Expands a CHW input (`(C, H*W)` matrix) into the im2col patch matrix of
/// shape `(H*W, IC*K*K)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not `(in_channels, height*width)`.
pub fn im2col(input: &Matrix, spec: &Conv2dSpec) -> Result<Matrix, ShapeError> {
    let expected = (spec.in_channels, spec.height * spec.width);
    if input.shape() != expected {
        return Err(ShapeError::new("im2col", input.shape(), expected));
    }
    let pad = spec.padding() as isize;
    let (h, w, k) = (spec.height as isize, spec.width as isize, spec.kernel);
    let mut patches = Matrix::zeros(spec.gemm_m(), spec.gemm_k());
    for oy in 0..h {
        for ox in 0..w {
            let row = (oy * w + ox) as usize;
            let mut col = 0;
            for c in 0..spec.in_channels {
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = oy + ky as isize - pad;
                        let ix = ox + kx as isize - pad;
                        let v = if iy >= 0 && iy < h && ix >= 0 && ix < w {
                            input[(c, (iy * w + ix) as usize)]
                        } else {
                            0.0
                        };
                        patches.set(row, col, v);
                        col += 1;
                    }
                }
            }
        }
    }
    Ok(patches)
}

/// Direct (non-GEMM) 2-D convolution reference.
///
/// `input` is `(IC, H*W)`, `weights` is `(OC, IC*K*K)`; the result is
/// `(OC, H*W)` in the same CHW-flattened layout.
///
/// # Errors
///
/// Returns [`ShapeError`] on layout mismatch.
pub fn conv2d_direct(
    input: &Matrix,
    weights: &Matrix,
    spec: &Conv2dSpec,
) -> Result<Matrix, ShapeError> {
    let expected_in = (spec.in_channels, spec.height * spec.width);
    if input.shape() != expected_in {
        return Err(ShapeError::new("conv2d_direct", input.shape(), expected_in));
    }
    let expected_w = (spec.out_channels, spec.gemm_k());
    if weights.shape() != expected_w {
        return Err(ShapeError::new(
            "conv2d_direct",
            weights.shape(),
            expected_w,
        ));
    }
    let pad = spec.padding() as isize;
    let (h, w, k) = (spec.height as isize, spec.width as isize, spec.kernel);
    let mut out = Matrix::zeros(spec.out_channels, spec.height * spec.width);
    for oc in 0..spec.out_channels {
        for oy in 0..h {
            for ox in 0..w {
                let mut acc = 0.0;
                for ic in 0..spec.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = oy + ky as isize - pad;
                            let ix = ox + kx as isize - pad;
                            if iy >= 0 && iy < h && ix >= 0 && ix < w {
                                let wv = weights[(oc, ic * k * k + ky * k + kx)];
                                acc += wv * input[(ic, (iy * w + ix) as usize)];
                            }
                        }
                    }
                }
                out.set(oc, (oy * w + ox) as usize, acc);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_with;
    use crate::kernel::KernelKind;
    use crate::rng::seeded_matrix;

    /// The lowered convolution: `im2col(input) × weightsᵀ`, `(H*W, OC)`.
    fn conv2d_as_gemm(
        kind: KernelKind,
        input: &Matrix,
        weights: &Matrix,
        s: &Conv2dSpec,
    ) -> Matrix {
        let patches = im2col(input, s).unwrap();
        matmul_with(kind.kernel(), &patches, &weights.transpose()).unwrap()
    }

    fn spec_1x1() -> Conv2dSpec {
        Conv2dSpec::new(3, 4, 5, 2, 1)
    }

    fn spec_3x3() -> Conv2dSpec {
        Conv2dSpec::new(2, 5, 5, 4, 3)
    }

    #[test]
    fn gemm_dims_match_paper_formula() {
        // Table V row C5: IC=64, H=W=56, OC1=64, k1=3.
        let s = Conv2dSpec::new(64, 56, 56, 64, 3);
        assert_eq!(s.gemm_m(), 56 * 56);
        assert_eq!(s.gemm_k(), 64 * 9);
        assert_eq!(s.gemm_n(), 64);
        assert_eq!(s.padding(), 1);
    }

    #[test]
    fn im2col_1x1_is_transpose() {
        // For a 1x1 kernel, im2col is exactly the transpose of the CHW input.
        let s = spec_1x1();
        let input = seeded_matrix(s.in_channels, s.height * s.width, 3);
        let patches = im2col(&input, &s).unwrap();
        assert_eq!(patches, input.transpose());
    }

    #[test]
    fn im2col_shape() {
        let s = spec_3x3();
        let input = seeded_matrix(s.in_channels, s.height * s.width, 4);
        let patches = im2col(&input, &s).unwrap();
        assert_eq!(patches.shape(), (s.gemm_m(), s.gemm_k()));
    }

    #[test]
    fn im2col_zero_pads_borders() {
        let s = Conv2dSpec::new(1, 3, 3, 1, 3);
        let input = Matrix::from_fn(1, 9, |_, c| (c + 1) as f32);
        let patches = im2col(&input, &s).unwrap();
        // Patch at output (0,0): kernel positions off the top-left are zero.
        assert_eq!(patches[(0, 0)], 0.0); // (-1,-1)
        assert_eq!(patches[(0, 4)], 1.0); // centre = input (0,0)
        assert_eq!(patches[(0, 8)], 5.0); // (+1,+1) = input (1,1)
    }

    #[test]
    fn gemm_lowering_matches_direct_conv_1x1() {
        let s = spec_1x1();
        let input = seeded_matrix(s.in_channels, s.height * s.width, 5);
        let weights = seeded_matrix(s.out_channels, s.gemm_k(), 6);
        let direct = conv2d_direct(&input, &weights, &s).unwrap();
        let lowered = conv2d_as_gemm(KernelKind::Naive, &input, &weights, &s);
        // `lowered` is (H*W, OC); direct is (OC, H*W).
        assert!(direct.transpose().approx_eq(&lowered, 1e-5).unwrap());
    }

    #[test]
    fn gemm_lowering_matches_direct_conv_3x3() {
        let s = spec_3x3();
        let input = seeded_matrix(s.in_channels, s.height * s.width, 7);
        let weights = seeded_matrix(s.out_channels, s.gemm_k(), 8);
        let direct = conv2d_direct(&input, &weights, &s).unwrap();
        let lowered = conv2d_as_gemm(KernelKind::Naive, &input, &weights, &s);
        assert!(direct.transpose().approx_eq(&lowered, 1e-4).unwrap());
    }

    #[test]
    fn blocked_lowering_matches_direct_conv() {
        // Table-V-like extents so the packed path actually engages.
        let s = Conv2dSpec::new(8, 12, 12, 16, 3);
        let input = seeded_matrix(s.in_channels, s.height * s.width, 9);
        let weights = seeded_matrix(s.out_channels, s.gemm_k(), 10);
        let direct = conv2d_direct(&input, &weights, &s).unwrap();
        let lowered = conv2d_as_gemm(KernelKind::Blocked, &input, &weights, &s);
        assert!(direct.transpose().approx_eq(&lowered, 1e-4).unwrap());
    }

    #[test]
    fn bad_input_shape_is_error() {
        let s = spec_3x3();
        let wrong = Matrix::zeros(1, 1);
        assert!(im2col(&wrong, &s).is_err());
        assert!(conv2d_direct(&wrong, &Matrix::zeros(4, 18), &s).is_err());
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_panics() {
        Conv2dSpec::new(1, 4, 4, 1, 2);
    }
}
