//! Row-major `f32` matrix and borrowed strided views of it.
//!
//! [`Matrix`] doubles as workload data (activations, weights) and as the
//! contents of simulated on-chip buffers in `flashfuser-sim`, whose
//! fused executor addresses tiles in place as [`View`]s instead of
//! copying them out and back.

use crate::error::ShapeError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use flashfuser_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
/// assert_eq!(m[(0, 1)], 1.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// The whole matrix as a borrowed view.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(&self.data, self.rows, self.cols, self.cols)
    }

    /// The whole matrix as a mutable view.
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::new(&mut self.data, self.rows, self.cols, self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Element-wise sum with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise (Hadamard) product with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn mul_elem(&self, other: &Matrix) -> Result<Matrix, ShapeError> {
        self.zip_with(other, "mul_elem", |a, b| a * b)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Largest absolute element difference against `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("max_abs_diff", self.shape(), other.shape()));
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// `true` when every element differs from `other` by at most `tol`
    /// in a mixed absolute/relative sense: `|a-b| <= tol * max(1, |a|, |b|)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> Result<bool, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("approx_eq", self.shape(), other.shape()));
        }
        Ok(self.data.iter().zip(&other.data).all(|(a, b)| {
            let scale = 1.0f32.max(a.abs()).max(b.abs());
            (a - b).abs() <= tol * scale
        }))
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(op, self.shape(), other.shape()));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// A `rows × cols` window of row-major `f32` storage `S` — `&[f32]`
/// ([`MatRef`]) or `&mut [f32]` ([`MatMut`]) — whose rows start `ld`
/// elements apart: a tile of a [`Matrix`], or of any buffer, in place.
#[derive(Clone, Copy, Debug)]
pub struct View<S> {
    data: S,
    rows: usize,
    cols: usize,
    ld: usize,
}

/// A borrowed [`View`].
pub type MatRef<'a> = View<&'a [f32]>;
/// A mutable [`View`].
pub type MatMut<'a> = View<&'a mut [f32]>;

impl<S: AsRef<[f32]>> View<S> {
    /// Views `data` as `rows × cols` with row stride `ld`.
    ///
    /// # Panics
    ///
    /// Panics if `cols > ld` or `data` ends before the last row does.
    pub fn new(data: S, rows: usize, cols: usize, ld: usize) -> Self {
        let span = rows.checked_sub(1).map_or(0, |r| r * ld + cols);
        let fits = cols <= ld && span <= data.as_ref().len();
        assert!(fits, "view exceeds its storage");
        Self {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `r` as a slice of `cols` elements.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data.as_ref()[self.at(r, 0, 1, 0)..][..self.cols]
    }

    /// The `rows × cols` window whose top-left corner is `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit inside this view.
    pub fn sub(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> MatRef<'_> {
        let at = self.at(row0, col0, rows, cols);
        View::new(&self.data.as_ref()[at..], rows, cols, self.ld)
    }

    /// Storage offset of `(row0, col0)`, once the `rows × cols` window
    /// there is known to fit.
    fn at(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> usize {
        let fits = row0 + rows <= self.rows && col0 + cols <= self.cols;
        assert!(fits, "window out of bounds");
        (row0 * self.ld + col0).min(self.data.as_ref().len())
    }
}

impl<S: AsRef<[f32]> + AsMut<[f32]>> View<S> {
    /// Row `r` as a mutable slice of `cols` elements.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let at = self.at(r, 0, 1, 0);
        &mut self.data.as_mut()[at..][..self.cols]
    }

    /// [`View::sub`], mutably.
    pub fn sub_mut(&mut self, row0: usize, col0: usize, rows: usize, cols: usize) -> MatMut<'_> {
        let at = self.at(row0, col0, rows, cols);
        View::new(&mut self.data.as_mut()[at..], rows, cols, self.ld)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:9.4}", self.data[r * self.cols + c])?;
                if c + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn identity_is_diagonal() {
        let id = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(id[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn views_address_tiles_in_place() {
        let m = Matrix::from_fn(6, 8, |r, c| (r * 8 + c) as f32);
        let whole = m.view();
        let t = whole.sub(2, 4, 3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.row(0), &m.row(2)[4..]);
        assert_eq!(t.sub(1, 1, 2, 3).row(1), &m.row(4)[5..]);

        let mut out = Matrix::from_fn(4, 4, |_, _| 1.0);
        let mut view = out.view_mut();
        for v in view.sub_mut(1, 1, 2, 2).row_mut(1) {
            *v += 2.0;
        }
        assert_eq!(out[(2, 1)], 3.0);
        assert_eq!(out[(2, 2)], 3.0);
        assert_eq!(out[(1, 1)], 1.0);
        assert_eq!(out[(3, 3)], 1.0);
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn view_out_of_bounds_panics() {
        Matrix::zeros(4, 4).view().sub(2, 2, 3, 1);
    }

    #[test]
    fn transpose_involutive() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 2, |_, _| 2.0);
        assert_eq!(a.add(&b).unwrap()[(1, 1)], 4.0);
        assert_eq!(a.mul_elem(&b).unwrap()[(1, 1)], 4.0);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn approx_eq_tolerates_small_error() {
        let a = Matrix::from_fn(2, 2, |_, _| 100.0);
        let b = a.map(|x| x + 1e-4);
        assert!(a.approx_eq(&b, 1e-5).unwrap());
        assert!(!a.approx_eq(&b, 1e-8).unwrap());
    }

    #[test]
    fn debug_output_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }
}
