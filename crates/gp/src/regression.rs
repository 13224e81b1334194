//! Exact Gaussian-process regression (Eq. 17 of the paper).
//!
//! A [`GpRegressor`] owns a kernel, a noise variance σ², a constant prior
//! mean, and the observation history `(x_t, c_t)` over any input space.
//! After each new observation the Cholesky factor of `K_t + σ² I` is
//! *extended* in O(t²) ([`crate::linalg::Cholesky::extend`]).
//!
//! Both posterior moments are computed from the *same* triangular solve
//! `v = L⁻¹ k_x`: with `w = L⁻¹ (y − m)` maintained incrementally,
//! `μ = m + vᵀw` and `σ² = k(x,x) − vᵀv`.
//!
//! The controller's capacity models live on a finite task grid and use
//! [`crate::GridGp`], which computes the same posterior bit for bit in
//! O(n·K) memory; this regressor is the general form and its test oracle.

#![expect(
    clippy::indexing_slicing,
    reason = "GP posterior algebra: vectors sized to the training-set length and indexed by loops over that length"
)]

use crate::error::GpError;
use crate::kernel::Kernel;
use crate::linalg::{dot, Cholesky};

/// Posterior mean and variance of the latent function at one query point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpPosterior {
    /// Posterior mean `μ_t(x)`.
    pub mean: f64,
    /// Posterior variance `σ_t²(x)` of the *latent* function (noise-free).
    pub var: f64,
}

impl GpPosterior {
    /// Posterior standard deviation.
    pub fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// Upper confidence bound `μ + β^{1/2} σ` (the classic GP-UCB index).
    pub fn ucb(&self, beta: f64) -> f64 {
        self.mean + beta.sqrt() * self.std()
    }

    /// Lower confidence bound `μ − β^{1/2} σ`.
    pub fn lcb(&self, beta: f64) -> f64 {
        self.mean - beta.sqrt() * self.std()
    }
}

/// Exact GP regression with a constant prior mean.
///
/// ```
/// use dragster_gp::{GpRegressor, SquaredExp};
///
/// let mut gp = GpRegressor::new(SquaredExp::new(1.0), 1e-6);
/// gp.observe(&[0.0], 1.0).unwrap();
/// gp.observe(&[2.0], 3.0).unwrap();
/// let p = gp.posterior(&[1.0]);
/// assert!(p.mean > 1.0 && p.mean < 3.0); // interpolates
/// assert!(p.var < 1.0);                  // less uncertain than the prior
/// ```
pub struct GpRegressor<K: Kernel> {
    kernel: K,
    noise_var: f64,
    prior_mean: f64,
    xs: Vec<Vec<f64>>,
    chol: Cholesky,
    /// `w = L⁻¹ (y − m)` for the current factor. Append-only: extending
    /// the factor appends one entry and never changes existing ones
    /// (forward-substitution prefix property), so maintaining it costs
    /// O(t) per observation.
    wy: Vec<f64>,
}

impl<K: Kernel> GpRegressor<K> {
    /// Create an empty regressor.
    ///
    /// # Panics
    /// If `noise_var <= 0` (exact GP regression needs a jitter anyway; pass
    /// the paper's observation noise σ²).
    pub fn new(kernel: K, noise_var: f64) -> GpRegressor<K> {
        assert!(noise_var > 0.0, "noise variance must be positive");
        GpRegressor {
            kernel,
            noise_var,
            prior_mean: 0.0,
            xs: Vec::new(),
            chol: Cholesky::empty(),
            wy: Vec::new(),
        }
    }

    /// Set a constant prior mean (e.g. a rough capacity guess); affects
    /// predictions away from data. Clears nothing — may be called before
    /// the first observation only.
    ///
    /// # Panics
    /// If observations have already been added.
    pub fn with_prior_mean(mut self, m: f64) -> GpRegressor<K> {
        assert!(self.xs.is_empty(), "set the prior mean before observing");
        self.prior_mean = m;
        self
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The observation noise variance σ².
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Borrow the kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Borrow the observed inputs.
    pub fn observed_inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Add one observation `(x, c)` where `c = y(x) + ε` and refresh the
    /// factorization incrementally in O(t²).
    ///
    /// # Errors
    /// [`GpError::NotPositiveDefinite`] if extending the factor of
    /// `K + σ²I` fails — which happens only with NaN inputs or a kernel
    /// whose diagonal plus noise is not strictly positive. The regressor is
    /// left unchanged on error.
    pub fn observe(&mut self, x: &[f64], c: f64) -> Result<(), GpError> {
        let t = self.xs.len();
        let diag = self.kernel.diag(x) + self.noise_var;
        let b: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        self.chol.extend(&b, diag)?;
        self.xs.push(x.to_vec());
        // `w = L⁻¹(y − m)` gains one entry from the new factor row; existing
        // entries are untouched (forward-substitution prefix property).
        let row = self.chol.row(t);
        let mut s = c - self.prior_mean;
        for (lk, wk) in row.iter().zip(self.wy.iter()) {
            s -= lk * wk;
        }
        self.wy.push(s / row[t]);
        Ok(())
    }

    /// Posterior mean and latent variance at `x` (Eq. 17). With no
    /// observations this is the prior: `(prior_mean, k(x,x))`.
    ///
    /// Both moments come from the single triangular solve `v = L⁻¹ k_x`:
    /// `μ = m + vᵀ L⁻¹(y−m)` and `σ² = k(x,x) − vᵀv`.
    pub fn posterior(&self, x: &[f64]) -> GpPosterior {
        if self.xs.is_empty() {
            return GpPosterior {
                mean: self.prior_mean,
                var: self.kernel.diag(x).max(0.0),
            };
        }
        let kx = self.kernel.cross(&self.xs, x);
        let v = self.chol.solve_lower(&kx);
        let mean = self.prior_mean + dot(&v, &self.wy);
        let var = (self.kernel.diag(x) - dot(&v, &v)).max(0.0);
        GpPosterior { mean, var }
    }

    /// Posterior at many points, sharing one `(k_x, v)` workspace across
    /// the whole batch instead of allocating per query point.
    pub fn posterior_batch(&self, xs: &[Vec<f64>]) -> Vec<GpPosterior> {
        let mut kx = Vec::new();
        let mut v = Vec::new();
        xs.iter()
            .map(|x| self.posterior_into(x, &mut kx, &mut v))
            .collect()
    }

    /// One posterior query through caller-provided scratch buffers.
    fn posterior_into(&self, x: &[f64], kx: &mut Vec<f64>, v: &mut Vec<f64>) -> GpPosterior {
        if self.xs.is_empty() {
            return GpPosterior {
                mean: self.prior_mean,
                var: self.kernel.diag(x).max(0.0),
            };
        }
        kx.clear();
        kx.extend(self.xs.iter().map(|xi| self.kernel.eval(xi, x)));
        self.chol.solve_lower_into(kx, v);
        let mean = self.prior_mean + dot(v, &self.wy);
        let var = (self.kernel.diag(x) - dot(v, v)).max(0.0);
        GpPosterior { mean, var }
    }

    /// Posterior covariance between two points,
    /// `k_t(x, x') = k(x,x') − k_t(x)ᵀ (K+σ²I)⁻¹ k_t(x')` (Eq. 17).
    pub fn posterior_cov(&self, x: &[f64], y: &[f64]) -> f64 {
        if self.xs.is_empty() {
            return self.kernel.eval(x, y);
        }
        let kx = self.kernel.cross(&self.xs, x);
        let ky = self.kernel.cross(&self.xs, y);
        let vx = self.chol.solve_lower(&kx);
        let vy = self.chol.solve_lower(&ky);
        self.kernel.eval(x, y) - dot(&vx, &vy)
    }

    /// Joint posterior over a set of query points: mean vector and (dense)
    /// covariance matrix `k_t(x, x')` (Eq. 17). The covariance is returned
    /// with a small jitter added to the diagonal so it is always usable
    /// for sampling.
    pub fn posterior_joint(&self, xs: &[Vec<f64>]) -> (Vec<f64>, crate::linalg::Matrix) {
        let n = xs.len();
        let mean: Vec<f64> = self
            .posterior_batch(xs)
            .into_iter()
            .map(|p| p.mean)
            .collect();
        let mut cov = crate::linalg::Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let c = self.posterior_cov(&xs[i], &xs[j]);
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
            cov[(i, i)] += 1e-9;
        }
        (mean, cov)
    }

    /// Draw one sample from the joint posterior at `xs`, using caller-
    /// provided standard-normal variates (`normals` must yield at least
    /// `xs.len()` values). This is the Thompson-sampling primitive: the
    /// sampled function is a coherent hypothesis about the whole capacity
    /// curve, not independent per-point noise.
    ///
    /// # Errors
    /// [`GpError::NotPositiveDefinite`] if the jittered posterior
    /// covariance cannot be factorized (NaN query points or a broken
    /// kernel).
    pub fn sample_posterior(
        &self,
        xs: &[Vec<f64>],
        normals: impl FnMut() -> f64,
    ) -> Result<Vec<f64>, GpError> {
        let (mean, cov) = self.posterior_joint(xs);
        sample_gaussian(&mean, &cov, normals)
    }

    /// Log marginal likelihood of the observed data:
    /// `−½ yᵀ K⁻¹ y − ½ log det(K + σ²I) − n/2 · log 2π`, where the fit
    /// term is `−½ wᵀw` for the maintained `w = L⁻¹(y − m)`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.xs.len();
        if n == 0 {
            return 0.0;
        }
        let fit = -0.5 * dot(&self.wy, &self.wy);
        let complexity = -0.5 * self.chol.log_det();
        let norm = -(n as f64) * 0.5 * (2.0 * std::f64::consts::PI).ln();
        fit + complexity + norm
    }

    /// Drop all observations, keeping kernel and noise settings.
    pub fn reset(&mut self) {
        self.xs.clear();
        self.wy.clear();
        self.chol.clear();
    }
}

/// One draw from `N(mean, cov)`: `mean + L z` for the Cholesky factor `L`
/// of `cov` and `z` taken from `normals` (one variate per dimension, in
/// order).
pub(crate) fn sample_gaussian(
    mean: &[f64],
    cov: &crate::linalg::Matrix,
    mut normals: impl FnMut() -> f64,
) -> Result<Vec<f64>, GpError> {
    let chol = crate::linalg::Cholesky::factor(cov)?;
    let z: Vec<f64> = mean.iter().map(|_| normals()).collect();
    Ok(mean
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let mut v = m;
            for (lik, zk) in chol.row(i).iter().zip(z.iter()) {
                v += lik * zk;
            }
            v
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExp;

    fn make_gp() -> GpRegressor<SquaredExp> {
        GpRegressor::new(SquaredExp::new(1.0), 1e-6)
    }

    #[test]
    fn prior_before_data() {
        let gp = make_gp();
        let p = gp.posterior(&[0.3]);
        assert_eq!(p.mean, 0.0);
        assert_eq!(p.var, 1.0);
        assert!(gp.is_empty());
    }

    #[test]
    fn interpolates_at_low_noise() {
        let mut gp = make_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        gp.observe(&[1.0], 2.0).unwrap();
        gp.observe(&[2.0], 0.5).unwrap();
        for (x, y) in [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5)] {
            let p = gp.posterior(&[x]);
            assert!((p.mean - y).abs() < 1e-3, "x={x} mean={}", p.mean);
            assert!(p.var < 1e-3);
        }
    }

    #[test]
    fn variance_shrinks_near_data_grows_far() {
        let mut gp = make_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        let near = gp.posterior(&[0.1]);
        let far = gp.posterior(&[5.0]);
        assert!(near.var < 0.1);
        assert!(far.var > 0.9);
    }

    #[test]
    fn posterior_matches_hand_computed_single_point() {
        // One observation at x₀ with SE kernel (l=1, s=1), noise σ².
        // μ(x) = k(x,x₀)/(1+σ²)·y ; σ²(x) = 1 − k(x,x₀)²/(1+σ²).
        let noise = 0.25;
        let mut gp = GpRegressor::new(SquaredExp::new(1.0), noise);
        gp.observe(&[0.0], 2.0).unwrap();
        let x = [0.7];
        let kxx0 = (-0.49f64 / 2.0).exp();
        let p = gp.posterior(&x);
        assert!((p.mean - kxx0 / (1.0 + noise) * 2.0).abs() < 1e-12);
        assert!((p.var - (1.0 - kxx0 * kxx0 / (1.0 + noise))).abs() < 1e-12);
    }

    #[test]
    fn prior_mean_used_away_from_data() {
        let mut gp = GpRegressor::new(SquaredExp::new(0.5), 1e-6).with_prior_mean(10.0);
        gp.observe(&[0.0], 12.0).unwrap();
        let far = gp.posterior(&[100.0]);
        assert!((far.mean - 10.0).abs() < 1e-9);
    }

    #[test]
    fn posterior_cov_consistency() {
        let mut gp = make_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        gp.observe(&[2.0], -1.0).unwrap();
        let x = [0.5];
        let p = gp.posterior(&x);
        let c = gp.posterior_cov(&x, &x);
        assert!((p.var - c).abs() < 1e-10);
        // symmetry
        let y = [1.5];
        assert!((gp.posterior_cov(&x, &y) - gp.posterior_cov(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn variance_at_a_near_noiseless_training_input_is_clamped_to_zero() {
        // σ² is below the rounding unit of the signal variance, so at the
        // training input `k(x,x) − vᵀv` rounds to −4.4e-16; only the clamp
        // keeps the Eq. 17 variance nonnegative.
        let mut gp = GpRegressor::new(SquaredExp::with_signal(1.0, 3.0), 1e-16);
        gp.observe(&[2.0], 5.0).unwrap();
        let raw = gp.posterior_cov(&[2.0], &[2.0]);
        assert!(
            raw < 0.0,
            "the unclamped variance must round negative: {raw:e}"
        );
        assert_eq!(gp.posterior(&[2.0]).var, 0.0);
        assert_eq!(gp.posterior_batch(&[vec![2.0]])[0].var, 0.0);
    }

    #[test]
    fn lml_prefers_true_length_scale() {
        // Data drawn from a smooth function: a long length scale should fit
        // better than a tiny one.
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 * 0.4]).collect();
        let cs: Vec<f64> = xs.iter().map(|x| (x[0] * 0.5).sin()).collect();
        let mut smooth = GpRegressor::new(SquaredExp::new(2.0), 1e-4);
        let mut wiggly = GpRegressor::new(SquaredExp::new(0.05), 1e-4);
        for (x, &c) in xs.iter().zip(cs.iter()) {
            smooth.observe(x, c).unwrap();
            wiggly.observe(x, c).unwrap();
        }
        assert!(smooth.log_marginal_likelihood() > wiggly.log_marginal_likelihood());
    }

    #[test]
    fn ucb_lcb_bracket_mean() {
        let p = GpPosterior {
            mean: 3.0,
            var: 4.0,
        };
        assert_eq!(p.std(), 2.0);
        assert_eq!(p.ucb(1.0), 5.0);
        assert_eq!(p.lcb(1.0), 1.0);
        assert!(p.ucb(4.0) > p.ucb(1.0));
    }

    #[test]
    fn reset_clears_history() {
        let mut gp = make_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        assert_eq!(gp.len(), 1);
        gp.reset();
        assert!(gp.is_empty());
        let p = gp.posterior(&[0.0]);
        assert_eq!(p.mean, 0.0);
        assert_eq!(p.var, 1.0);
    }

    #[test]
    fn batch_matches_single() {
        let mut gp = make_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        gp.observe(&[1.0], 0.0).unwrap();
        let pts = vec![vec![0.25], vec![0.75]];
        let batch = gp.posterior_batch(&pts);
        for (p, x) in batch.iter().zip(pts.iter()) {
            let q = gp.posterior(x);
            assert_eq!(p, &q);
        }
    }

    #[test]
    fn posterior_joint_diag_matches_pointwise() {
        let mut gp = make_gp();
        gp.observe(&[0.0], 1.0).unwrap();
        gp.observe(&[2.0], -1.0).unwrap();
        let xs = vec![vec![0.5], vec![1.5], vec![3.0]];
        let (mean, cov) = gp.posterior_joint(&xs);
        for (i, x) in xs.iter().enumerate() {
            let p = gp.posterior(x);
            assert!((mean[i] - p.mean).abs() < 1e-12);
            assert!((cov[(i, i)] - p.var).abs() < 1e-8);
        }
        assert!(cov.is_symmetric(1e-12));
    }

    #[test]
    fn posterior_samples_have_right_moments() {
        let mut gp = GpRegressor::new(SquaredExp::new(1.0), 0.05);
        gp.observe(&[0.0], 1.0).unwrap();
        gp.observe(&[2.0], 3.0).unwrap();
        let xs = vec![vec![1.0], vec![4.0]];
        // deterministic pseudo-normals via Box–Muller on a simple LCG
        let mut state = 88172645463325252u64;
        let mut uni = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut spare = None;
        let mut normal = move || {
            if let Some(z) = spare.take() {
                return z;
            }
            let u1: f64 = 1.0 - uni();
            let u2: f64 = uni();
            let r = (-2.0 * u1.ln()).sqrt();
            let th = 2.0 * std::f64::consts::PI * u2;
            spare = Some(r * th.sin());
            r * th.cos()
        };
        let n = 4000;
        let mut sums = [0.0; 2];
        let mut sqs = [0.0; 2];
        for _ in 0..n {
            let s = gp.sample_posterior(&xs, &mut normal).unwrap();
            for i in 0..2 {
                sums[i] += s[i];
                sqs[i] += s[i] * s[i];
            }
        }
        let (mean, cov) = gp.posterior_joint(&xs);
        for i in 0..2 {
            let m = sums[i] / n as f64;
            let v = sqs[i] / n as f64 - m * m;
            assert!((m - mean[i]).abs() < 0.05, "mean {m} vs {}", mean[i]);
            assert!((v - cov[(i, i)]).abs() < 0.08, "var {v} vs {}", cov[(i, i)]);
        }
    }

    #[test]
    fn samples_interpolate_data_under_low_noise() {
        let mut gp = make_gp();
        gp.observe(&[1.0], 5.0).unwrap();
        let xs = vec![vec![1.0]];
        let mut k = 0.0;
        let mut fake_normal = move || {
            k += 1.0;
            (k % 3.0) - 1.0
        };
        let s = gp.sample_posterior(&xs, &mut fake_normal).unwrap();
        assert!((s[0] - 5.0).abs() < 0.05, "{}", s[0]);
    }

    #[test]
    fn observation_noise_smooths() {
        // With large noise, the posterior mean at an observed point shrinks
        // toward the prior instead of interpolating.
        let mut gp = GpRegressor::new(SquaredExp::new(1.0), 1.0);
        gp.observe(&[0.0], 2.0).unwrap();
        let p = gp.posterior(&[0.0]);
        assert!((p.mean - 1.0).abs() < 1e-12); // k/(k+σ²)·y = 1/2 · 2
        assert!(p.var > 0.4);
    }
}
