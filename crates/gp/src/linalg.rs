//! Dense linear algebra for GP regression.
//!
//! The GP posterior (Eq. 17) needs only one non-trivial primitive: solving
//! linear systems against the symmetric positive-definite Gram matrix
//! `K_t + σ² I`. We therefore implement exactly that — a row-major dense
//! [`Matrix`], a packed lower-triangular [`Cholesky`] factorization with
//! forward/backward substitution, and an *incremental* factor extension so
//! the online setting (one new observation per decision slot) costs O(t²)
//! per update rather than O(t³).
//!
//! No external linear-algebra crate is used; the sizes involved (t ≤ a few
//! thousand observations, d ≤ 3 input dimensions) make a cache-friendly
//! textbook implementation more than fast enough (see `benches/gp_bench.rs`).

#![expect(
    clippy::indexing_slicing,
    reason = "dense Cholesky/triangular-solve kernels: (i, j) loops range over matrix dims validated at construction"
)]

/// Row-major dense matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Build an `n × n` matrix from an element function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: streams through `other`'s rows, cache-friendly
        // for row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Largest absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L Lᵀ`, stored *packed* row-major: row `i` holds exactly the
/// `i + 1` entries `L[i][0..=i]`. Packed storage makes the incremental
/// [`Cholesky::extend`] an append — the new row is pushed onto the end of
/// the buffer — so the online setting pays no O(n²) copy and no fresh
/// allocation per observation (the backing `Vec` grows geometrically).
#[derive(Clone, Debug, Default)]
pub struct Cholesky {
    /// Packed rows: row `i` occupies `data[i(i+1)/2 .. i(i+1)/2 + i + 1]`.
    data: Vec<f64>,
    /// Order of the factored matrix.
    n: usize,
}

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the pivot that failed.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Start offset of packed row `i`.
#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Factorize a symmetric positive-definite matrix. A pivot that is
    /// not positive, NaN included, is an error.
    pub fn factor(a: &Matrix) -> Result<Cholesky, NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut data = vec![0.0; row_start(n)];
        for i in 0..n {
            let ri = row_start(i);
            for j in 0..=i {
                let rj = row_start(j);
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= data[ri + k] * data[rj + k];
                }
                if i == j {
                    if s.is_nan() || s <= 0.0 {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    data[ri + i] = s.sqrt();
                } else {
                    data[ri + j] = s / data[rj + j];
                }
            }
        }
        Ok(Cholesky { data, n })
    }

    /// An empty (0×0) factor — the starting point for incremental builds.
    pub fn empty() -> Cholesky {
        Cholesky::default()
    }

    /// Drop back to a 0×0 factor, keeping the backing allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.n = 0;
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Borrow packed row `i` of the factor: the entries `L[i][0..=i]`.
    /// Row `t` after an [`Cholesky::extend`] is exactly the data an
    /// incremental forward-substitution needs to append one entry to a
    /// previously solved system.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.n);
        &self.data[row_start(i)..row_start(i) + i + 1]
    }

    /// Entry `L[i][j]` for `j <= i`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(j <= i && i < self.n);
        self.data[row_start(i) + j]
    }

    /// Materialize the factor as a dense lower-triangular [`Matrix`]
    /// (upper triangle zero) — for tests, diagnostics, and cold paths.
    pub fn factor_matrix(&self) -> Matrix {
        let mut l = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for (j, &v) in self.row(i).iter().enumerate() {
                l[(i, j)] = v;
            }
        }
        l
    }

    /// Extend the factorization of `A` to that of
    /// `[[A, b], [bᵀ, c]]`: one triangular solve plus a scalar pivot.
    /// `b` is the new column (length = current order), `c` the new
    /// diagonal entry. A pivot that is not positive, NaN included, is an
    /// error and leaves the factor unchanged.
    pub fn extend(&mut self, b: &[f64], c: f64) -> Result<(), NotPositiveDefinite> {
        let n = self.n;
        assert_eq!(b.len(), n, "new column has wrong length");
        let w = self.solve_lower(b);
        let pivot2 = c - w.iter().map(|x| x * x).sum::<f64>();
        if pivot2.is_nan() || pivot2 <= 0.0 {
            return Err(NotPositiveDefinite { pivot: n });
        }
        self.data.extend_from_slice(&w);
        self.data.push(pivot2.sqrt());
        self.n = n + 1;
        Ok(())
    }

    /// Solve `L x = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.n);
        self.solve_lower_into(b, &mut x);
        x
    }

    /// Forward substitution into a caller-provided buffer (cleared first),
    /// so batched queries can reuse one workspace across solves.
    pub fn solve_lower_into(&self, b: &[f64], x: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len(), n);
        x.clear();
        for i in 0..n {
            let row = self.row(i);
            let mut s = b[i];
            for (lk, xk) in row.iter().zip(x.iter()) {
                s -= lk * xk;
            }
            x.push(s / row[i]);
        }
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    #[allow(clippy::needless_range_loop)] // triangular indexing is clearer explicit
    pub fn solve_lower_t(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= self.at(k, i) * x[k];
            }
            x[i] = s / self.at(i, i);
        }
        x
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_lower_t(&self.solve_lower(b))
    }

    /// `log det A = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.at(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Reconstruct `A = L Lᵀ` (for tests and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let l = self.factor_matrix();
        l.matmul(&l.transpose())
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a fixed B is SPD.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 3.0, 1.0, 3.0, 7.0])
    }

    #[test]
    fn index_and_row() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matvec_matmul_transpose() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        let p = m.matmul(&m.transpose());
        assert_eq!(p[(0, 0)], 14.0);
        assert_eq!(p[(0, 1)], 32.0);
        assert_eq!(p[(1, 1)], 77.0);
        assert!(p.is_symmetric(0.0));
    }

    #[test]
    fn identity_is_neutral() {
        let m = spd3();
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.reconstruct().max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn cholesky_solve() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve(&b);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, −1
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn incremental_extend_matches_batch() {
        let a = spd3();
        let mut inc = Cholesky::empty();
        inc.extend(&[], a[(0, 0)]).unwrap();
        inc.extend(&[a[(1, 0)]], a[(1, 1)]).unwrap();
        inc.extend(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)]).unwrap();
        let batch = Cholesky::factor(&a).unwrap();
        assert!(inc.factor_matrix().max_abs_diff(&batch.factor_matrix()) < 1e-12);
    }

    #[test]
    fn packed_rows_and_entries() {
        let ch = Cholesky::factor(&spd3()).unwrap();
        let l = ch.factor_matrix();
        for i in 0..3 {
            assert_eq!(ch.row(i).len(), i + 1);
            for j in 0..=i {
                assert_eq!(ch.at(i, j), l[(i, j)]);
            }
        }
    }

    #[test]
    fn clear_returns_to_empty() {
        let mut ch = Cholesky::factor(&spd3()).unwrap();
        assert_eq!(ch.order(), 3);
        ch.clear();
        assert_eq!(ch.order(), 0);
        ch.extend(&[], 4.0).unwrap();
        assert_eq!(ch.at(0, 0), 2.0);
    }

    #[test]
    fn solve_lower_into_reuses_buffer() {
        let ch = Cholesky::factor(&spd3()).unwrap();
        let b = vec![3.0, 1.0, 2.0];
        let mut buf = vec![9.0; 7]; // stale junk: must be cleared
        ch.solve_lower_into(&b, &mut buf);
        assert_eq!(buf, ch.solve_lower(&b));
    }

    #[test]
    fn extend_rejects_bad_pivot() {
        let mut ch = Cholesky::factor(&spd3()).unwrap();
        let b = vec![10.0, 10.0, 10.0];
        assert!(ch.extend(&b, 1.0).is_err());
        assert_eq!(ch.order(), 3); // untouched on error

        // A NaN pivot fails `pivot2 <= 0.0` and must be rejected too,
        // whether it comes from the column or the diagonal.
        let before = ch.factor_matrix();
        for (col, diag) in [([f64::NAN, 0.0, 0.0], 9.0), ([0.1, 0.2, 0.3], f64::NAN)] {
            assert_eq!(ch.extend(&col, diag), Err(NotPositiveDefinite { pivot: 3 }));
            assert_eq!(ch.order(), 3);
            assert_eq!(ch.factor_matrix(), before);
        }
    }

    #[test]
    fn factor_rejects_a_nan_diagonal() {
        for at in 0..3 {
            let mut a = spd3();
            a[(at, at)] = f64::NAN;
            assert_eq!(
                Cholesky::factor(&a).map(|_| ()),
                Err(NotPositiveDefinite { pivot: at }),
                "NaN at diagonal entry {at}"
            );
        }
    }

    #[test]
    fn log_det_matches_direct() {
        // det of spd3 via cofactor expansion:
        // 5(42-9) - 2(14-3) + 1(6-6) = 165 - 22 + 0 = 143
        let ch = Cholesky::factor(&spd3()).unwrap();
        assert!((ch.log_det() - 143.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_lower_and_transpose() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![3.0, 1.0, 2.0];
        let y = ch.solve_lower(&b);
        // L y = b
        let l = ch.factor_matrix();
        let back = l.matvec(&y);
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        let z = ch.solve_lower_t(&b);
        let back2 = l.transpose().matvec(&z);
        for (u, v) in back2.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }
}
