//! Dense `f64` matrices with LU-based solves, written from scratch.
//!
//! Sized for the chain analyses in this workspace: state spaces up to a few
//! hundred states, where a partial-pivot LU factorization (O(n³)) is
//! instantaneous. The API intentionally exposes only what the chain module
//! and models need.

use crate::error::LinAlgError;

/// A dense row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use fortress_markov::matrix::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a.set(0, 0, 2.0);
/// a.set(1, 1, 4.0);
/// let x = a.solve(&[2.0, 8.0]).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] if rows have unequal
    /// lengths.
    #[cfg(test)]
    fn from_rows(rows: &[&[f64]]) -> Result<Matrix, LinAlgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinAlgError::DimensionMismatch {
                    op: "from_rows",
                    left: (nrows, ncols),
                    right: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when inner dimensions
    /// differ.
    #[cfg(test)]
    fn mul(&self, other: &Matrix) -> Result<Matrix, LinAlgError> {
        if self.cols != other.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "mul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when `v.len() != cols`.
    #[cfg(test)]
    fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, LinAlgError> {
        if v.len() != self.cols {
            return Err(LinAlgError::DimensionMismatch {
                op: "mul_vec",
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = self.row(i);
            *slot = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Elementwise difference `self − other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinAlgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinAlgError::DimensionMismatch {
                op: "sub",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinAlgError::DimensionMismatch`] when shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinAlgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinAlgError::DimensionMismatch {
                op: "add",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scales every element by `factor`.
    #[cfg(test)]
    fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Solves `self · x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`LinAlgError::NotSquare`] for non-square systems;
    /// [`LinAlgError::DimensionMismatch`] when `b.len() != rows`;
    /// [`LinAlgError::Singular`] when a pivot vanishes.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
        if b.len() != self.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "solve",
                left: (self.rows, self.cols),
                right: (b.len(), 1),
            });
        }
        let mut rhs = Matrix {
            rows: b.len(),
            cols: 1,
            data: b.to_vec(),
        };
        self.solve_into(&mut rhs)?;
        Ok(rhs.data)
    }

    /// Solves `self · X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// As for [`Matrix::solve`].
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinAlgError> {
        if b.rows != self.rows {
            return Err(LinAlgError::DimensionMismatch {
                op: "solve_matrix",
                left: (self.rows, self.cols),
                right: (b.rows, b.cols),
            });
        }
        let mut rhs = b.clone();
        self.solve_into(&mut rhs)?;
        Ok(rhs)
    }

    /// Computes the inverse.
    ///
    /// # Errors
    ///
    /// As for [`Matrix::solve`].
    pub fn inverse(&self) -> Result<Matrix, LinAlgError> {
        self.solve_matrix(&Matrix::identity(self.rows))
    }

    /// In-place LU solve over the columns of `rhs`.
    fn solve_into(&self, rhs: &mut Matrix) -> Result<(), LinAlgError> {
        if self.rows != self.cols {
            return Err(LinAlgError::NotSquare {
                dims: (self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivoting: pick the largest magnitude in this column.
            let mut pivot_row = col;
            let mut pivot_val = lu[perm[col] * n + col].abs();
            for r in (col + 1)..n {
                let v = lu[perm[r] * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinAlgError::Singular { pivot: col });
            }
            perm.swap(col, pivot_row);

            let p = perm[col];
            let pivot = lu[p * n + col];
            for &pr in &perm[(col + 1)..n] {
                let factor = lu[pr * n + col] / pivot;
                lu[pr * n + col] = factor;
                for c in (col + 1)..n {
                    lu[pr * n + c] -= factor * lu[p * n + c];
                }
            }
        }

        let ncols = rhs.cols;
        for j in 0..ncols {
            // Gather the permuted column.
            let mut y: Vec<f64> = (0..n).map(|i| rhs.get(perm[i], j)).collect();
            // Forward substitution (L has unit diagonal).
            for i in 1..n {
                let pi = perm[i];
                let mut sum = y[i];
                for k in 0..i {
                    sum -= lu[pi * n + k] * y[k];
                }
                y[i] = sum;
            }
            // Back substitution.
            for i in (0..n).rev() {
                let pi = perm[i];
                let mut sum = y[i];
                for k in (i + 1)..n {
                    sum -= lu[pi * n + k] * y[k];
                }
                y[i] = sum / lu[pi * n + i];
            }
            for (i, val) in y.iter().enumerate() {
                rhs.set(i, j, *val);
            }
        }
        Ok(())
    }

    /// Maximum absolute difference from `other`; `None` when shapes differ.
    #[cfg(test)]
    fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(None, |acc, d| Some(acc.map_or(d, |m: f64| m.max(d))))
            .or(Some(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Matrix::identity(4);
        let x = i.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn known_2x2_solve() {
        // [1 2; 3 4] x = [5; 11]  =>  x = [1; 2]
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let x = a.solve(&[5.0, 11.0]).unwrap();
        assert!(approx(x[0], 1.0) && approx(x[1], 2.0), "{x:?}");
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!(approx(x[0], 7.0) && approx(x[1], 3.0));
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(LinAlgError::Singular { .. })));
    }

    #[test]
    fn not_square_detected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(LinAlgError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[
            &[4.0, 7.0, 2.0],
            &[3.0, 5.0, 1.0],
            &[8.0, 1.0, 6.0],
        ])
        .unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv).unwrap();
        let diff = prod.max_abs_diff(&Matrix::identity(3)).unwrap();
        assert!(diff < 1e-9, "diff = {diff}");
    }

    #[test]
    fn mul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mul(&b).is_err());
        let c = Matrix::zeros(3, 4);
        assert!(a.mul(&c).is_ok());
    }

    #[test]
    fn mul_vec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = a.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 1.0]]).unwrap();
        assert_eq!(a.sub(&b).unwrap(), b);
        assert_eq!(b.add(&b).unwrap(), a);
        assert_eq!(b.scale(2.0), a);
        assert!(a.sub(&Matrix::zeros(2, 2)).is_err());
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let r1 = [1.0, 2.0];
        let r2 = [1.0];
        assert!(Matrix::from_rows(&[&r1, &r2]).is_err());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(0, 1);
    }

    #[test]
    fn max_abs_diff_shape_mismatch_is_none() {
        assert!(Matrix::zeros(1, 2).max_abs_diff(&Matrix::zeros(2, 1)).is_none());
        assert_eq!(
            Matrix::zeros(2, 2).max_abs_diff(&Matrix::identity(2)),
            Some(1.0)
        );
    }

    #[test]
    fn large_random_like_system_roundtrip() {
        // Deterministic pseudo-random well-conditioned system.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, next());
            }
            // Diagonal dominance keeps it well-conditioned.
            let dom = a.row(i).iter().map(|x| x.abs()).sum::<f64>();
            a.set(i, i, dom + 1.0);
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) / 7.0 - 2.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-8, "{xs} vs {xt}");
        }
    }
}
