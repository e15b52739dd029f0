//! Reference GEMM kernels.
//!
//! These define the ground-truth numerics for every fused plan the
//! simulator executes: a fused two-GEMM chain must reproduce
//! `activation(A×B) × D` exactly as computed by the functions here.
//! The `_with` variants dispatch through a pluggable
//! [`MicroKernel`] backend; the plain
//! functions are the naive oracle path.

use crate::error::ShapeError;
use crate::kernel::MicroKernel;
use crate::matrix::Matrix;

/// Computes `A × B`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `A.cols() != B.rows()`.
///
/// # Example
///
/// ```
/// use flashfuser_tensor::{Matrix, gemm};
///
/// let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
/// let c = gemm::matmul(&a, &b).unwrap();
/// assert_eq!(c[(0, 0)], 0.0 * 0.0 + 1.0 * 2.0 + 2.0 * 4.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul", a.shape(), b.shape()));
    }
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_accumulate(&mut c, a, b)?;
    Ok(c)
}

/// Computes `A × B` with the selected [`MicroKernel`] backend.
///
/// # Errors
///
/// Returns [`ShapeError`] if `A.cols() != B.rows()`.
pub fn matmul_with(kernel: &dyn MicroKernel, a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul", a.shape(), b.shape()));
    }
    let mut c = Matrix::zeros(a.rows(), b.cols());
    kernel.gemm(&mut c, a, b)?;
    Ok(c)
}

/// Computes `C += A × B` in place.
///
/// This is the accumulation step a single simulated thread block performs
/// on its tile, and the building block of the partial-sum dataflow in the
/// paper's Figure 8 (`E_0_0(0) + E_0_0(1) -> E_0_0`).
///
/// The loop body is branch-free: runtime is a function of shape alone,
/// never of input values, so benchmarks against it measure the kernel
/// and not the sparsity of its operands.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are incompatible.
pub fn matmul_accumulate(c: &mut Matrix, a: &Matrix, b: &Matrix) -> Result<(), ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul_accumulate", a.shape(), b.shape()));
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(ShapeError::new(
            "matmul_accumulate",
            c.shape(),
            (a.rows(), b.cols()),
        ));
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    let c_s = c.as_mut_slice();
    // i-k-j loop order keeps the inner loop contiguous in both B and C.
    for i in 0..m {
        for p in 0..k {
            let a_ip = a_s[i * k + p];
            let b_row = &b_s[p * n..(p + 1) * n];
            let c_row = &mut c_s[i * n..(i + 1) * n];
            for j in 0..n {
                c_row[j] += a_ip * b_row[j];
            }
        }
    }
    Ok(())
}

/// FLOP count of a single `m x k` × `k x n` GEMM (multiply + add).
pub fn gemm_flops(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelKind, NaiveKernel};
    use crate::rng::seeded_matrix;

    #[test]
    fn matmul_identity_is_noop() {
        let a = seeded_matrix(7, 5, 1);
        let c = matmul(&a, &Matrix::identity(5)).unwrap();
        assert!(a.approx_eq(&c, 0.0).unwrap());
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul(&a, &b).is_err());
        for kind in KernelKind::all() {
            assert!(matmul_with(kind.kernel(), &a, &b).is_err());
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let a = Matrix::identity(2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut c = Matrix::from_fn(2, 2, |_, _| 10.0);
        matmul_accumulate(&mut c, &a, &b).unwrap();
        assert_eq!(c.as_slice(), &[11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn accumulate_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(matmul_accumulate(&mut c, &a, &b).is_err());
    }

    #[test]
    fn with_naive_kernel_is_bit_identical_to_plain_matmul() {
        let a = seeded_matrix(9, 14, 5);
        let b = seeded_matrix(14, 6, 6);
        let plain = matmul(&a, &b).unwrap();
        let routed = matmul_with(&NaiveKernel, &a, &b).unwrap();
        assert_eq!(plain.as_slice(), routed.as_slice());
    }

    #[test]
    fn all_zero_rows_still_produce_exact_results() {
        // Regression for the removed `if a_ip == 0.0 { continue; }`
        // branch: rows of zeros must contribute exactly nothing, and
        // pre-existing accumulator contents must survive untouched.
        let a = Matrix::from_fn(5, 7, |r, c| {
            if r == 2 {
                0.0
            } else {
                (r * 7 + c) as f32 * 0.25 - 3.0
            }
        });
        let b = seeded_matrix(7, 4, 4);
        let c = matmul(&a, &b).unwrap();
        for j in 0..4 {
            assert_eq!(c[(2, j)], 0.0);
        }
        let mut acc = Matrix::from_fn(5, 4, |_, _| 10.0);
        matmul_accumulate(&mut acc, &a, &b).unwrap();
        for j in 0..4 {
            assert_eq!(acc[(2, j)], 10.0);
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(128, 256, 64), 2 * 128 * 256 * 64);
    }
}
