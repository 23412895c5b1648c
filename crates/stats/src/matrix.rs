//! A small dense row-major matrix kernel.
//!
//! Products, transpose, covariance, a linear solver (partial-pivot Gaussian
//! elimination) and a symmetric eigendecomposition (cyclic Jacobi). PCA
//! uses the covariance and the eigendecomposition; the products and the
//! solver have no caller outside tests. No SIMD, no blocking — the
//! workloads here are feature matrices with tens of columns.

use crate::{Result, StatsError};

/// A dense row-major matrix of `f64`.
///
/// ```
/// use kooza_stats::matrix::Matrix;
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
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
    /// Returns [`StatsError::InvalidInput`] if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::InvalidInput("empty matrix".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(StatsError::InvalidInput("ragged rows".into()));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols || rows == 0 || cols == 0 {
            return Err(StatsError::InvalidInput(format!(
                "shape {rows}x{cols} incompatible with {} elements",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidInput`] on an inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(StatsError::InvalidInput(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidInput`] if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(StatsError::InvalidInput(format!(
                "vector length {} != cols {}",
                v.len(),
                self.cols
            )));
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidInput`] if the matrix is not square or
    /// `b` has the wrong length, and [`StatsError::NoConvergence`] if the
    /// matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(StatsError::InvalidInput("solve requires a square matrix".into()));
        }
        if b.len() != self.rows {
            return Err(StatsError::InvalidInput("rhs length mismatch".into()));
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return Err(StatsError::NoConvergence { what: "linear solve (singular matrix)" });
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            for r in (col + 1)..n {
                let f = a[r * n + col] / a[col * n + col];
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
                x[r] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in (col + 1)..n {
                s -= a[col * n + c] * x[c];
            }
            x[col] = s / a[col * n + col];
        }
        Ok(x)
    }

    /// Sample covariance matrix of a data matrix whose rows are observations
    /// and columns are features (divides by `n - 1`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] with fewer than two rows.
    pub fn covariance(&self) -> Result<Matrix> {
        if self.rows < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: self.rows });
        }
        let n = self.rows as f64;
        let means: Vec<f64> = (0..self.cols)
            .map(|c| self.col(c).iter().sum::<f64>() / n)
            .collect();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += (self.get(r, i) - means[i]) * (self.get(r, j) - means[j]);
                }
                let v = s / (n - 1.0);
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        Ok(cov)
    }

    /// Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
    ///
    /// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
    /// eigenvector `k` is column `k` of the returned matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidInput`] if the matrix is not square or
    /// not symmetric, and [`StatsError::NoConvergence`] if 100 sweeps do not
    /// reduce the off-diagonal mass.
    pub fn symmetric_eigen(&self) -> Result<(Vec<f64>, Matrix)> {
        if self.rows != self.cols {
            return Err(StatsError::InvalidInput("eigendecomposition requires a square matrix".into()));
        }
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                if (self.get(i, j) - self.get(j, i)).abs() > 1e-9 * (1.0 + self.get(i, j).abs()) {
                    return Err(StatsError::InvalidInput("matrix is not symmetric".into()));
                }
            }
        }
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        for _sweep in 0..100 {
            let off: f64 = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .map(|(i, j)| a.get(i, j) * a.get(i, j))
                .sum();
            if off < 1e-22 {
                break;
            }
            for p in 0..n - 1 {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Apply rotation to A (both sides) and accumulate in V.
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        let final_off: f64 = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| a.get(i, j) * a.get(i, j))
            .sum();
        if final_off > 1e-10 {
            return Err(StatsError::NoConvergence { what: "Jacobi eigendecomposition" });
        }
        // Sort by descending eigenvalue, permuting eigenvector columns.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a.get(j, j).partial_cmp(&a.get(i, i)).unwrap());
        let eigenvalues: Vec<f64> = order.iter().map(|&i| a.get(i, i)).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_c, &old_c) in order.iter().enumerate() {
            for r in 0..n {
                vectors.set(r, new_c, v.get(r, old_c));
            }
        }
        Ok((eigenvalues, vectors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(matches!(
            Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]),
            Err(StatsError::InvalidInput(_))
        ));
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn mul_vec_works() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn solve_singular_errors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(StatsError::NoConvergence { .. })));
    }

    #[test]
    fn covariance_of_perfectly_correlated_features() {
        // y = 2x → cov matrix [[var, 2var], [2var, 4var]]
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let cov = m.covariance().unwrap();
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 2.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_diagonal_matrix() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]).unwrap();
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        assert!((vecs.get(0, 0).abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_known_symmetric() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // A v = λ v for the first eigenvector.
        let v0 = vecs.col(0);
        let av = m.mul_vec(&v0).unwrap();
        for (a, b) in av.iter().zip(v0.iter().map(|x| 3.0 * x)) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn eigen_rejects_asymmetric() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(m.symmetric_eigen().is_err());
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5],
            &[1.0, 3.0, 0.2],
            &[0.5, 0.2, 2.0],
        ])
        .unwrap();
        let (_, vecs) = m.symmetric_eigen().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = (0..3).map(|k| vecs.get(k, i) * vecs.get(k, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }
}
