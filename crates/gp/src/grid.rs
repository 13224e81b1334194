//! Exact GP regression over a fixed 1-D grid (Eq. 17 on the paper's task
//! grid).
//!
//! Every observation of a [`GridGp`] is one of its `K` grid points, named
//! by index. For the history `X = (g_0, …, g_{n−1})` the regressor keeps
//! the solved columns `V = L⁻¹ K(X, grid)` (`L` the Cholesky factor of
//! `K(X, X) + σ²I`) *sample-major*: row `k` holds `V[k][0..K]`, then
//! `w_k` of `w = L⁻¹ y`, then zero padding. `L` itself is not stored: on
//! a grid, row `k` of `L` is the first `k` entries of the solved column of
//! the grid point observed at `k`, `L[k][i] = V[i][g_k]`, plus that step's
//! pivot. Memory is `O(n·K)`, not the `O(n²)` of a packed factor.
//!
//! One observation at grid point `g` costs one pass over the rows: with
//! `a_k = V[k][g]`, each lane of the new row subtracts `a_k · V[k][j]`
//! (and the `w` lane `a_k · w_k`) in `k = 0..n` order, from accumulators
//! held in registers. The per-point sums the posterior reads —
//! `Σ_k V[k][j] w_k` for the mean, `Σ_k V[k][j]²` for the variance and the
//! next pivot, `Σ_k w_k²` and `Σ_k ln L_kk` for the likelihood — are
//! running left folds that gain one term per observation, so a grid
//! posterior is `O(1)` and the log marginal likelihood is too.
//!
//! Every value is bit-identical to [`crate::GpRegressor`]'s under the same
//! kernel, noise and history (zero prior mean): each accumulator performs
//! the same floating-point operations in the same order as the
//! regressor's triangular solves and `Iterator::sum` folds, and starts
//! where those folds start. `crates/gp/tests/grid_gp.rs` holds the two to
//! `to_bits` equality.

#![expect(
    clippy::indexing_slicing,
    reason = "grid GP rows: lanes indexed by grid indices validated against the grid length"
)]

use crate::error::GpError;
use crate::kernel::{Kernel, SquaredExp};
use crate::linalg::Matrix;
use crate::regression::{sample_gaussian, GpPosterior};

/// Where `Iterator::sum::<f64>` starts its fold: a running sum seeded here
/// adds its first term exactly as the fold does (`−0.0 + x == x` for every
/// `x`, including `−0.0`).
const SUM_START: f64 = -0.0;

/// Row widths are padded to a multiple of this many lanes, so every grid
/// of up to 11 points shares one of the 4-, 8- and 12-lane register passes
/// of [`sweep`].
const LANE_BLOCK: usize = 4;

/// Exact GP posterior over a fixed grid of 1-D points, with a zero prior
/// mean.
///
/// ```
/// use dragster_gp::{GridGp, SquaredExp};
///
/// let mut gp = GridGp::new(SquaredExp::new(1.0), 1e-6, vec![0.0, 1.0, 2.0]);
/// gp.observe(0, 1.0).unwrap();
/// gp.observe(2, 3.0).unwrap();
/// let p = gp.grid_posterior(1).unwrap();
/// assert!(p.mean > 1.0 && p.mean < 3.0); // interpolates
/// assert!(p.var < 1.0);                  // less uncertain than the prior
/// ```
pub struct GridGp<K: Kernel> {
    kernel: K,
    noise_var: f64,
    points: Vec<f64>,
    /// Lanes per row: the `K` solved-column entries, `w_k`, then zero
    /// padding up to a multiple of [`LANE_BLOCK`].
    stride: usize,
    /// `K(grid, grid)`, one row of `stride` lanes per grid point with zero
    /// padding past the `K` kernel values: the start of every new row of
    /// `V`. Filled by the first `observe` after `new` or `reset_with`, and
    /// empty until then.
    table: Vec<f64>,
    /// Sample-major rows, `stride` lanes each.
    rows: Vec<f64>,
    /// Grid index of each observation.
    obs: Vec<usize>,
    /// The factor's diagonal `L_kk`, one per observation.
    pivots: Vec<f64>,
    /// Per grid point, `Σ_k V[k][j] · w_k`.
    mean_sums: Vec<f64>,
    /// Per grid point, `Σ_k V[k][j]²`.
    var_sums: Vec<f64>,
    /// `Σ_k w_k²`.
    fit_sum: f64,
    /// `Σ_k ln L_kk`.
    log_pivot_sum: f64,
}

impl<K: Kernel> GridGp<K> {
    /// An empty regressor over `points`.
    ///
    /// # Panics
    /// If `noise_var <= 0`, as [`crate::GpRegressor::new`].
    pub fn new(kernel: K, noise_var: f64, points: Vec<f64>) -> GridGp<K> {
        assert!(noise_var > 0.0, "noise variance must be positive");
        let k = points.len();
        GridGp {
            kernel,
            noise_var,
            stride: (k + 1).div_ceil(LANE_BLOCK) * LANE_BLOCK,
            points,
            table: Vec::new(),
            rows: Vec::new(),
            obs: Vec::new(),
            pivots: Vec::new(),
            mean_sums: vec![SUM_START; k],
            var_sums: vec![SUM_START; k],
            fit_sum: SUM_START,
            log_pivot_sum: SUM_START,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// The observation noise variance σ².
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Borrow the kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The grid points.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Drop every observation, keeping kernel, noise, grid and the
    /// allocations.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.obs.clear();
        self.pivots.clear();
        self.mean_sums.fill(SUM_START);
        self.var_sums.fill(SUM_START);
        self.fit_sum = SUM_START;
        self.log_pivot_sum = SUM_START;
    }

    /// Replace the kernel. Every row depends on it, so this also drops
    /// every observation, as [`GridGp::reset`].
    pub fn reset_with(&mut self, kernel: K) {
        self.kernel = kernel;
        self.table.clear();
        self.reset();
    }

    /// Room for `n` observations, so that many `observe` calls allocate
    /// nothing more for the rows.
    fn reserve(&mut self, n: usize) {
        self.rows.reserve_exact(n * self.stride);
        self.obs.reserve_exact(n);
        self.pivots.reserve_exact(n);
    }

    /// Evaluate the kernel table: `K²` kernel calls, where an observation
    /// without it makes `K`.
    fn fill_table(&mut self) {
        let kernel = &self.kernel;
        self.table.reserve_exact(self.points.len() * self.stride);
        for &xg in &self.points {
            let start = self.table.len();
            self.table
                .extend(self.points.iter().map(|&xj| kernel.eval(&[xg], &[xj])));
            self.table.resize(start + self.stride, 0.0);
        }
    }

    /// Add the observation `y` at grid point `gi`: one pass over the rows
    /// appends the new row of `V`, its `w` entry and its pivot.
    ///
    /// # Errors
    /// [`GpError::OffGrid`] if `gi` is not a grid index;
    /// [`GpError::NotPositiveDefinite`] if the new pivot of `K + σ²I` is not
    /// positive, or is NaN. The regressor is unchanged on error.
    pub fn observe(&mut self, gi: usize, y: f64) -> Result<(), GpError> {
        let k = self.points.len();
        let Some(&xg) = self.points.get(gi) else {
            return Err(GpError::OffGrid {
                index: gi,
                points: k,
            });
        };
        let n = self.obs.len();
        let pivot2 = (self.kernel.diag(&[xg]) + self.noise_var) - self.var_sums[gi];
        if pivot2.is_nan() || pivot2 <= 0.0 {
            return Err(GpError::NotPositiveDefinite { pivot: n });
        }
        let pivot = pivot2.sqrt();
        if self.table.is_empty() {
            self.fill_table();
        }
        let start = self.rows.len();
        let row = gi * self.stride;
        self.rows
            .extend_from_slice(&self.table[row..row + self.stride]);
        self.rows[start + k] = y;
        let (old, new) = self.rows.split_at_mut(start);
        sweep(old, gi, new);
        for v in new.iter_mut() {
            *v /= pivot;
        }
        let w = new[k];
        for ((v, m), s) in new[..k]
            .iter()
            .zip(self.mean_sums.iter_mut())
            .zip(self.var_sums.iter_mut())
        {
            *m += v * w;
            *s += v * v;
        }
        self.fit_sum += w * w;
        self.log_pivot_sum += pivot.ln();
        self.pivots.push(pivot);
        self.obs.push(gi);
        Ok(())
    }

    /// Posterior at grid point `gi` in `O(1)`, or `None` off the grid.
    pub fn grid_posterior(&self, gi: usize) -> Option<GpPosterior> {
        let xg = *self.points.get(gi)?;
        // `0.0 +` is the zero prior mean, added as `GpRegressor` adds it.
        let mean = 0.0 + self.mean_sums[gi];
        let var = (self.kernel.diag(&[xg]) - self.var_sums[gi]).max(0.0);
        Some(GpPosterior { mean, var })
    }

    /// Posterior at any point `x`, on the grid or off it: one forward
    /// substitution `v = L⁻¹ k(X, x)`, whose factor rows are read back
    /// from the solved columns. `O(n²)`; [`GridGp::grid_posterior`] serves
    /// grid points in `O(1)` with the same bits.
    pub fn posterior(&self, x: f64) -> GpPosterior {
        let mut v: Vec<f64> = Vec::with_capacity(self.obs.len());
        let mut mean = SUM_START;
        let mut vv = SUM_START;
        for (i, (&gi, &pivot)) in self.obs.iter().zip(&self.pivots).enumerate() {
            let mut s = self.kernel.eval(&[self.points[gi]], &[x]);
            for (row, vk) in self.rows.chunks_exact(self.stride).zip(&v) {
                s -= row[gi] * vk;
            }
            let vi = s / pivot;
            v.push(vi);
            mean += vi * self.rows[i * self.stride + self.points.len()];
            vv += vi * vi;
        }
        GpPosterior {
            mean: 0.0 + mean,
            var: (self.kernel.diag(&[x]) - vv).max(0.0),
        }
    }

    /// Log marginal likelihood of the observations,
    /// `−½ wᵀw − ½ log det(K + σ²I) − n/2 · log 2π`, in `O(1)`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.obs.len();
        if n == 0 {
            return 0.0;
        }
        let fit = -0.5 * self.fit_sum;
        let complexity = -0.5 * (self.log_pivot_sum * 2.0);
        let norm = -(n as f64) * 0.5 * (2.0 * std::f64::consts::PI).ln();
        fit + complexity + norm
    }

    /// Joint posterior over the whole grid: the mean vector and the
    /// covariance `k_t(x, x')` (Eq. 17), with the same `1e-9` diagonal
    /// jitter as [`crate::GpRegressor::posterior_joint`].
    pub fn posterior_joint(&self) -> (Vec<f64>, Matrix) {
        let k = self.points.len();
        let mut cross = Matrix::from_fn(k, k, |_, _| SUM_START);
        for row in self.rows.chunks_exact(self.stride) {
            for i in 0..k {
                for j in 0..=i {
                    cross[(i, j)] += row[i] * row[j];
                }
            }
        }
        let mut cov = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..=i {
                let c = self.kernel.eval(&[self.points[i]], &[self.points[j]]) - cross[(i, j)];
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
            cov[(i, i)] += 1e-9;
        }
        let mean = self.mean_sums.iter().map(|m| 0.0 + m).collect();
        (mean, cov)
    }

    /// Draw one sample of the latent function over the whole grid from
    /// the joint posterior, using caller-provided standard-normal variates
    /// — the Thompson-sampling primitive, as
    /// [`crate::GpRegressor::sample_posterior`].
    ///
    /// # Errors
    /// [`GpError::NotPositiveDefinite`] if the jittered covariance cannot
    /// be factorized.
    pub fn sample_posterior(&self, normals: impl FnMut() -> f64) -> Result<Vec<f64>, GpError> {
        let (mean, cov) = self.posterior_joint();
        sample_gaussian(&mean, &cov, normals)
    }
}

/// Subtract `a_k · row_k` from `acc` lane by lane over every row `k` of
/// `rows`, with `a_k = row_k[gi]`: the forward-substitution step of every
/// lane of a new row at once. Rows of 4, 8 or 12 lanes (grids of up to 11
/// points) run on a fixed-size copy of `acc`, which the compiler keeps in
/// registers, so the lanes' dependency chains advance together; every
/// other width runs on the slice. Both perform the same operations in the
/// same order. Returns whether a register pass ran.
fn sweep(rows: &[f64], gi: usize, acc: &mut [f64]) -> bool {
    let registers = sweep_fixed::<4>(rows, gi, acc)
        || sweep_fixed::<8>(rows, gi, acc)
        || sweep_fixed::<12>(rows, gi, acc);
    if !registers {
        sweep_slice(rows, gi, acc);
    }
    registers
}

/// [`sweep`] on rows of exactly `S` lanes; `false`, with nothing done, for
/// any other width.
fn sweep_fixed<const S: usize>(rows: &[f64], gi: usize, acc: &mut [f64]) -> bool {
    let Ok(acc) = <&mut [f64; S]>::try_from(acc) else {
        return false;
    };
    let mut regs = *acc;
    for row in rows.as_chunks::<S>().0 {
        let a = row[gi];
        for (r, v) in regs.iter_mut().zip(row) {
            *r -= a * v;
        }
    }
    *acc = regs;
    true
}

/// [`sweep`] on the slice, for any width.
fn sweep_slice(rows: &[f64], gi: usize, acc: &mut [f64]) {
    for row in rows.chunks_exact(acc.len()) {
        let a = row[gi];
        for (r, v) in acc.iter_mut().zip(row) {
            *r -= a * v;
        }
    }
}

/// Grid-search hyper-parameter fitting for the squared-exponential kernel:
/// pick `(length_scale, signal_var)` maximizing the log marginal likelihood
/// of a grid history. This mirrors what `sklearn` does with its L-BFGS
/// restarts, at the fidelity the 10-point-per-dimension config grids of the
/// paper need.
#[derive(Clone, Copy, Debug)]
pub struct GpHyperFit<'a> {
    /// Candidate length scales.
    pub length_scales: &'a [f64],
    /// Candidate signal variances.
    pub signal_vars: &'a [f64],
}

impl Default for GpHyperFit<'static> {
    fn default() -> Self {
        GpHyperFit {
            length_scales: &[0.5, 1.0, 2.0, 3.0, 5.0],
            signal_vars: &[0.25, 1.0, 4.0, 16.0],
        }
    }
}

impl GpHyperFit<'_> {
    /// Fit on `samples`, `(grid index, observation)` pairs over `points`,
    /// with the given noise variance; returns the best
    /// `(length_scale, signal_var, lml)`. The first candidate wins ties.
    ///
    /// Each candidate is fit on a grid of only the `D` points the samples
    /// visit, with the same bits as on the whole grid: a lane of a new row
    /// reads only its own column and the visited point's, and the
    /// likelihood reads only the pivots and `w`. Its buffers are reserved
    /// once per call, for every candidate.
    ///
    /// Candidates whose Gram matrix turns out numerically indefinite are
    /// skipped rather than aborting the search.
    ///
    /// # Errors
    /// The last candidate's [`GpError`] if *every* candidate fails — the
    /// data itself is degenerate (NaNs, or an index off the grid).
    pub fn fit_se(
        &self,
        points: &[f64],
        samples: impl IntoIterator<Item = (usize, f64)>,
        noise_var: f64,
    ) -> Result<(f64, f64, f64), GpError> {
        let mut window: Vec<(usize, f64)> = samples.into_iter().collect();
        // A sample off the grid fails every candidate there, after the ones
        // before it, as it would on the whole grid.
        let k = points.len();
        let on_grid = window
            .iter()
            .position(|&(gi, _)| gi >= k)
            .unwrap_or(window.len());
        let off_grid = window
            .get(on_grid)
            .map(|&(index, _)| GpError::OffGrid { index, points: k });
        window.truncate(on_grid);
        // Number the visited points in order of first visit.
        let mut sub_index = vec![usize::MAX; k];
        let mut visited = Vec::with_capacity(k);
        for (gi, _) in &mut window {
            if sub_index[*gi] == usize::MAX {
                sub_index[*gi] = visited.len();
                visited.push(points[*gi]);
            }
            *gi = sub_index[*gi];
        }
        let mut gp = GridGp::new(SquaredExp::new(1.0), noise_var, visited);
        gp.reserve(window.len());
        let mut best: Option<(f64, f64, f64)> = None;
        let mut last_err = GpError::NotPositiveDefinite { pivot: 0 };
        for &l in self.length_scales {
            for &s in self.signal_vars {
                gp.reset_with(SquaredExp::with_signal(l, s));
                let fitted = window
                    .iter()
                    .try_for_each(|&(gi, y)| gp.observe(gi, y))
                    .and(off_grid.map_or(Ok(()), Err));
                if let Err(e) = fitted {
                    last_err = e;
                    continue;
                }
                let lml = gp.log_marginal_likelihood();
                if best.is_none_or(|b| lml > b.2) {
                    best = Some((l, s, lml));
                }
            }
        }
        best.ok_or(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<f64> {
        (1..=10).map(f64::from).collect()
    }

    #[test]
    fn running_sums_start_where_iterator_sum_starts() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_START.to_bits());
    }

    #[test]
    fn prior_before_data() {
        let gp = GridGp::new(SquaredExp::with_signal(2.0, 0.25), 1e-2, grid());
        let p = gp.grid_posterior(4).unwrap();
        assert_eq!(p.mean.to_bits(), 0.0f64.to_bits());
        assert_eq!(p.var, 0.25);
        assert_eq!(gp.posterior(5.0), p);
        assert_eq!(gp.log_marginal_likelihood(), 0.0);
        assert!(gp.grid_posterior(10).is_none());
    }

    #[test]
    fn rows_are_padded_to_whole_lane_blocks() {
        for (k, stride) in [(1, 4), (3, 4), (4, 8), (10, 12), (15, 16), (16, 20)] {
            let points = (0..k).map(|i| i as f64).collect();
            let gp = GridGp::new(SquaredExp::new(1.0), 1e-2, points);
            assert_eq!(gp.stride, stride, "{k} points");
        }
    }

    #[test]
    fn register_passes_run_at_4_8_and_12_lanes() {
        // Grids of up to 11 points pad to one of the three register widths;
        // wider rows take the slice, and every width computes the slice's
        // bits.
        for stride in (4..=24).step_by(4) {
            let rows: Vec<f64> = (0..5 * stride).map(|i| (i as f64).sin()).collect();
            let start: Vec<f64> = (0..stride).map(|i| (i as f64).cos()).collect();
            let (mut fast, mut slow) = (start.clone(), start);
            let registers = sweep(&rows, 2, &mut fast);
            sweep_slice(&rows, 2, &mut slow);
            assert_eq!(registers, [4, 8, 12].contains(&stride), "{stride} lanes");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "{stride} lanes");
        }
    }

    #[test]
    fn off_grid_observation_is_rejected_without_a_change() {
        let mut gp = GridGp::new(SquaredExp::new(1.0), 1e-2, grid());
        gp.observe(3, 0.5).unwrap();
        assert_eq!(
            gp.observe(10, 1.0),
            Err(GpError::OffGrid {
                index: 10,
                points: 10
            })
        );
        assert_eq!(gp.len(), 1);
        assert_eq!(gp.rows.len(), gp.stride);
    }

    #[test]
    fn indefinite_pivot_is_rejected_without_a_change() {
        // A near-noiseless duplicate leaves a pivot that rounds to zero.
        let mut gp = GridGp::new(SquaredExp::new(1.0), 1e-300, grid());
        gp.observe(2, 1.0).unwrap();
        let before = gp.grid_posterior(2);
        assert_eq!(
            gp.observe(2, 1.0),
            Err(GpError::NotPositiveDefinite { pivot: 1 })
        );
        assert_eq!(gp.len(), 1);
        assert_eq!(gp.grid_posterior(2), before);
    }

    #[test]
    fn reset_with_swaps_the_kernel_and_forgets() {
        let mut gp = GridGp::new(SquaredExp::new(3.0), 1e-2, grid());
        gp.observe(0, 1.0).unwrap();
        gp.reset_with(SquaredExp::with_signal(1.0, 0.05));
        assert!(gp.is_empty());
        assert_eq!(gp.kernel().signal_var, 0.05);
        assert_eq!(gp.grid_posterior(0).unwrap().var, 0.05);
    }

    #[test]
    fn hyper_fit_runs_and_picks_reasonable_scale() {
        let points: Vec<f64> = (0..20).map(|i| f64::from(i) * 0.3).collect();
        let samples: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, x)| (i, (x * 0.4).sin() * 2.0))
            .collect();
        let (l, s, lml) = GpHyperFit::default()
            .fit_se(&points, samples, 1e-4)
            .unwrap();
        assert!(l >= 0.5, "picked degenerate length scale {l}");
        assert!(s > 0.0);
        assert!(lml.is_finite());
    }

    #[test]
    fn hyper_fit_fails_only_when_every_candidate_fails() {
        let fit = GpHyperFit::default();
        let err = fit.fit_se(&grid(), [(10, 1.0)], 1e-2);
        assert_eq!(
            err,
            Err(GpError::OffGrid {
                index: 10,
                points: 10
            })
        );
        // The fit runs on the visited points only, yet a candidate fails at
        // the same sample as on the whole grid: an indefinite pivot before
        // an off-grid index is the error, and an off-grid index names the
        // whole grid's length.
        let indefinite = fit.fit_se(&grid(), [(2, 1.0), (2, 1.0), (10, 0.0)], 1e-300);
        assert_eq!(indefinite, Err(GpError::NotPositiveDefinite { pivot: 1 }));
        let off_grid = fit.fit_se(&grid(), [(2, 1.0), (7, 0.5), (11, 0.0)], 1e-2);
        assert_eq!(
            off_grid,
            Err(GpError::OffGrid {
                index: 11,
                points: 10
            })
        );
    }
}
