//! Element-wise operators appearing between GEMMs in fused chains.
//!
//! The paper's chains (Fig. 1) interleave GEMMs with ReLU (standard FFN,
//! conv blocks) or SiLU + element-wise Mul (gated FFN / SwiGLU). The
//! `dsm_all_exchange` primitive carries a [`BinaryOp`] so the same exchange
//! performs `Add` for K-partitioned partial sums or `Mul` for gated
//! branches (§IV-A).

use crate::matrix::Matrix;
use std::fmt;

/// A unary activation function.
///
/// # Example
///
/// ```
/// use flashfuser_tensor::Activation;
///
/// assert_eq!(Activation::Relu.apply(-1.0), 0.0);
/// assert_eq!(Activation::Relu.apply(2.0), 2.0);
/// assert_eq!(Activation::Identity.apply(-3.5), -3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Pass-through (no activation).
    #[default]
    Identity,
    /// `max(0, x)` — standard FFN and conv chains.
    Relu,
    /// `x * sigmoid(x)` — gated FFN (SwiGLU) chains.
    Silu,
    /// Gaussian error linear unit (tanh approximation), used by BERT/GPT-2.
    Gelu,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Silu => x / (1.0 + (-x).exp()),
            Activation::Gelu => {
                const SQRT_2_OVER_PI: f32 = 0.797_884_6;
                0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
            }
        }
    }

    /// Applies the activation element-wise, returning a new matrix.
    pub fn apply_matrix(self, m: &Matrix) -> Matrix {
        m.map(|x| self.apply(x))
    }

    /// All supported activations, for property tests and sweeps.
    pub fn all() -> [Activation; 4] {
        [
            Activation::Identity,
            Activation::Relu,
            Activation::Silu,
            Activation::Gelu,
        ]
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::Silu => "silu",
            Activation::Gelu => "gelu",
        };
        f.write_str(s)
    }
}

/// A binary element-wise combiner.
///
/// Carried by the `dsm_all_exchange` primitive: `Add` accumulates
/// K-partitioned partial sums, `Mul` combines the two branches of a gated
/// FFN, `Max` is included for completeness (pooling-style epilogues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BinaryOp {
    /// Element-wise sum (partial-sum accumulation).
    #[default]
    Add,
    /// Element-wise product (gated-FFN branch combine).
    Mul,
    /// Element-wise maximum.
    Max,
}

impl BinaryOp {
    /// Applies the combiner to two scalars.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Mul => a * b,
            BinaryOp::Max => a.max(b),
        }
    }

    /// Combines two matrices element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ShapeError`] on shape mismatch.
    pub fn apply_matrix(self, a: &Matrix, b: &Matrix) -> Result<Matrix, crate::ShapeError> {
        match self {
            BinaryOp::Add => a.add(b),
            BinaryOp::Mul => a.mul_elem(b),
            BinaryOp::Max => {
                if a.shape() != b.shape() {
                    return Err(crate::ShapeError::new("max_elem", a.shape(), b.shape()));
                }
                let mut out = a.clone();
                let bs = b.as_slice();
                for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
                    *v = v.max(bs[i]);
                }
                Ok(out)
            }
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "add",
            BinaryOp::Mul => "mul",
            BinaryOp::Max => "max",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-5.0), 0.0);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn silu_known_values() {
        // silu(0) = 0, silu(x) -> x for large x, silu(-x) -> 0 for large x.
        assert_eq!(Activation::Silu.apply(0.0), 0.0);
        assert!((Activation::Silu.apply(10.0) - 10.0).abs() < 1e-3);
        assert!(Activation::Silu.apply(-10.0).abs() < 1e-3);
        // silu(1) = 1 / (1 + e^-1) = 0.731058...
        assert!((Activation::Silu.apply(1.0) - 0.731_058_6).abs() < 1e-5);
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(Activation::Gelu.apply(0.0), 0.0);
        assert!((Activation::Gelu.apply(1.0) - 0.841_19).abs() < 1e-3);
        assert!(Activation::Gelu.apply(-10.0).abs() < 1e-3);
    }

    #[test]
    fn apply_matrix_is_elementwise() {
        let m = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let out = Activation::Relu.apply_matrix(&m);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn binary_ops_apply_to_scalars() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn binary_apply_matrix() {
        let a = Matrix::from_vec(1, 2, vec![1.0, -4.0]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![3.0, 2.0]).unwrap();
        assert_eq!(
            BinaryOp::Mul.apply_matrix(&a, &b).unwrap().as_slice(),
            &[3.0, -8.0]
        );
        assert_eq!(
            BinaryOp::Max.apply_matrix(&a, &b).unwrap().as_slice(),
            &[3.0, 2.0]
        );
        assert!(BinaryOp::Max
            .apply_matrix(&a, &Matrix::zeros(2, 2))
            .is_err());
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Activation::Silu.to_string(), "silu");
        assert_eq!(BinaryOp::Mul.to_string(), "mul");
    }
}
