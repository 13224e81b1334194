//! Level 2 — per-operator Gaussian-process models and the extended GP-UCB
//! acquisition (Eq. 18, Remark 1).
//!
//! Each operator follows an independent GP over its configuration space
//! (Eq. 7 — here the 1-D task count `1..=max_tasks`). Capacity samples are
//! the noisy Eq.-8 observations. The acquisition *tracks a target* instead
//! of maximizing:
//!
//! ```text
//! A_i(x) = −|μ_{t−1}(x) − y_i(t)| + β_{t−1} σ²_{t−1}(x)
//! ```
//!
//! so a configuration is attractive when its predicted capacity is close to
//! the saddle-point target (exploitation) or still uncertain (exploration).
//!
//! Capacities are normalized by a per-operator running scale before
//! entering the GP, so one set of kernel hyper-parameters serves operators
//! whose capacities differ by orders of magnitude; when the scale estimate
//! grows (a sample exceeds it), the GP is refit from raw history.
//!
//! The GP regresses *residuals against a linear prior mean* `m(x) ∝ x`:
//! a priori, capacity grows linearly with the task count. With a zero
//! prior, extrapolation beyond the observed configs would decay toward
//! zero capacity, and the tracking acquisition would never propose more
//! tasks than it has tried — the controller would stall below high
//! targets. The linear prior encodes the monotonicity every capacity
//! model satisfies while leaving the shape fully learnable.

use crate::DragsterError;
use dragster_gp::{beta_t, GpHyperFit, GpPosterior, GridGp, SquaredExp};

/// Which acquisition drives the configuration choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquisitionKind {
    /// The paper's Eq. 18 / Remark 1: `−|μ − y_t| + β σ²` (deficit-
    /// weighted).
    ExtendedUcb,
    /// Thompson sampling: draw one coherent capacity curve from the joint
    /// posterior and track the target on the *sample* — a randomized
    /// exploration alternative from the BO literature (`ablations`
    /// compares the two).
    Thompson,
}

/// Hyper-parameters of the GP-UCB level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UcbConfig {
    /// Confidence parameter δ ∈ (1, ∞) of `β_t = 2 log(|X| t² π² δ/6)`.
    pub delta: f64,
    /// Practical multiplier on the theoretical β_t (1.0 = paper-faithful;
    /// smaller trades exploration for faster convergence — see the
    /// `ablations` bench).
    pub beta_scale: f64,
    /// SE-kernel length scale in task units.
    pub length_scale: f64,
    /// GP observation-noise variance in *normalized* capacity units.
    pub noise_var: f64,
    /// Configuration range per operator (the paper's 1–10 tasks).
    pub max_tasks: usize,
    /// Asymmetry of the tracking penalty: a capacity *deficit*
    /// (`μ < y_t`) costs throughput while an excess only costs pods, so
    /// the deficit side of `|μ − y_t|` is weighted by this factor
    /// (1.0 recovers the paper's symmetric Remark-1 acquisition; the
    /// default 3.0 removes near-tie flips to under-provisioned configs).
    pub deficit_weight: f64,
    /// Acquisition family (paper default: extended UCB).
    pub acquisition: AcquisitionKind,
    /// Re-fit the SE length scale by log-marginal-likelihood grid search
    /// every N observations (sklearn's restart-based fitting, batched);
    /// `None` keeps the configured length scale.
    pub hyper_refit_every: Option<usize>,
}

impl Default for UcbConfig {
    fn default() -> Self {
        UcbConfig {
            delta: 2.0,
            beta_scale: 0.05,
            length_scale: 3.0,
            noise_var: 0.01,
            max_tasks: 10,
            deficit_weight: 3.0,
            acquisition: AcquisitionKind::ExtendedUcb,
            hyper_refit_every: Some(12),
        }
    }
}

impl UcbConfig {
    /// The UCB weight for slot `t` over a joint space of `n_joint_configs`
    /// configurations, including the practical scale factor.
    pub fn beta(&self, n_joint_configs: usize, t: usize) -> f64 {
        beta_t(n_joint_configs.max(1), t.max(1), self.delta) * self.beta_scale
    }
}

/// Observations entering the hyper-parameter grid search: the most recent
/// window of residual history. Large enough that every existing fit
/// (refits trigger every ~12 observations) sees all the data it used to;
/// small enough that the O(W²·D) candidate fits, over the `D ≤ K` task
/// counts the window visited, stay constant-cost over long horizons.
const HYPER_FIT_WINDOW: usize = 48;

/// The hyper-parameter candidates of the periodic refit: every pair of a
/// length scale and a signal variance.
const HYPER_FIT: GpHyperFit<'static> = GpHyperFit {
    length_scales: &[1.0, 2.0, 3.0, 5.0, 8.0],
    signal_vars: &[0.05, 0.25, 1.0],
};

/// The per-operator capacity model: a 1-D GP over the task grid
/// `1..=max_tasks`.
pub struct OperatorGp {
    cfg: UcbConfig,
    gp: GridGp<SquaredExp>,
    /// Normalization scale: capacities are divided by this before entering
    /// the GP.
    scale: f64,
    /// Raw (tasks, capacity-sample) history for refits.
    history: Vec<(usize, f64)>,
}

impl OperatorGp {
    pub fn new(cfg: UcbConfig) -> OperatorGp {
        OperatorGp::with_kernel(cfg, SquaredExp::new(cfg.length_scale))
    }

    /// An empty model under `kernel`.
    fn with_kernel(cfg: UcbConfig, kernel: SquaredExp) -> OperatorGp {
        let grid = (1..=cfg.max_tasks.max(1)).map(|x| x as f64).collect();
        OperatorGp {
            cfg,
            gp: GridGp::new(kernel, cfg.noise_var, grid),
            scale: 1.0,
            history: Vec::new(),
        }
    }

    /// Rebuild a model from its checkpointed parts, the values of
    /// [`scale`](OperatorGp::scale), [`kernel`](OperatorGp::kernel) and
    /// [`history`](OperatorGp::history). One pass feeds each sample's
    /// residual to a fresh regressor; nothing is refit and no
    /// hyper-parameter is searched.
    ///
    /// The result equals the exported model bit for bit: every scale refit
    /// and every kernel swap rebuilds the live regressor from the whole
    /// history, in order, under the scale and kernel of that moment, and
    /// every other observation appends one residual under that same scale
    /// and kernel — the rebuild this performs.
    ///
    /// # Errors
    /// [`DragsterError::InvalidState`] before anything is built when the
    /// scale or a kernel parameter is not finite and positive, a task count
    /// lies outside `1..=max_tasks`, or a capacity is not finite and
    /// positive (`observe` never records one); [`DragsterError::Gp`] if
    /// the rebuild fails numerically.
    pub fn restore(
        cfg: UcbConfig,
        scale: f64,
        kernel: SquaredExp,
        history: Vec<(usize, f64)>,
    ) -> Result<OperatorGp, DragsterError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let invalid = |reason| Err(DragsterError::InvalidState { reason });
        if !positive(scale) {
            return invalid("GP scale is not finite and positive");
        }
        if !positive(kernel.length_scale) || !positive(kernel.signal_var) {
            return invalid("GP kernel parameter is not finite and positive");
        }
        let max_tasks = cfg.max_tasks.max(1);
        if history.iter().any(|(t, _)| !(1..=max_tasks).contains(t)) {
            return invalid("GP task count outside 1..=max_tasks");
        }
        if !history.iter().all(|&(_, c)| positive(c)) {
            return invalid("GP capacity sample is not finite and positive");
        }
        let mut restored = OperatorGp::with_kernel(cfg, kernel);
        restored.scale = scale;
        restored.history = history;
        restored.rebuild()?;
        Ok(restored)
    }

    /// The linear prior mean in normalized units: by the scale
    /// construction (`scale ≈ per-task rate × K × 1.25`), an ideally
    /// linear operator sits exactly on `x / (K · 1.25)`.
    fn prior(&self, tasks: usize) -> f64 {
        tasks as f64 / (self.cfg.max_tasks.max(1) as f64 * 1.25)
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Current normalization scale (≈ estimated max capacity).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The SE kernel the regressor currently uses: the configured length
    /// scale with unit signal variance until the first hyper-parameter
    /// refit changes them.
    pub fn kernel(&self) -> &SquaredExp {
        self.gp.kernel()
    }

    /// The raw `(tasks, capacity_sample)` observation history. With
    /// [`OperatorGp::scale`] and [`OperatorGp::kernel`] it is everything
    /// [`OperatorGp::restore`] needs to rebuild the exact posterior, which
    /// is how controller checkpoints restore GP state.
    pub fn history(&self) -> &[(usize, f64)] {
        &self.history
    }

    /// Record a capacity sample observed while running `tasks` tasks.
    /// Non-finite or non-positive samples are ignored (an idle operator
    /// yields no information about its capacity).
    ///
    /// # Errors
    /// [`DragsterError::Gp`] if the posterior update fails numerically; the
    /// offending sample is dropped from the history so the model stays
    /// consistent.
    pub fn observe(&mut self, tasks: usize, capacity_sample: f64) -> Result<(), DragsterError> {
        if !capacity_sample.is_finite() || capacity_sample <= 0.0 {
            return Ok(());
        }
        let tasks = tasks.clamp(1, self.cfg.max_tasks.max(1));
        self.history.push((tasks, capacity_sample));
        // Scale estimate: assume roughly linear scaling from the largest
        // per-task rate seen so far to the full task range, with headroom.
        let per_task = capacity_sample / tasks as f64;
        let implied = per_task * self.cfg.max_tasks as f64 * 1.25;
        let updated = if self.history.len() == 1 || implied > self.scale * 1.5 {
            self.scale = implied.max(self.scale);
            self.refit()
        } else {
            let resid = capacity_sample / self.scale - self.prior(tasks);
            self.gp.observe(tasks - 1, resid).map_err(Into::into)
        };
        if let Err(e) = updated {
            self.history.pop();
            return Err(e);
        }
        if let Some(every) = self.cfg.hyper_refit_every {
            if self.history.len().is_multiple_of(every) {
                self.refit_hyperparameters()?;
            }
        }
        Ok(())
    }

    /// Grid-search the SE length scale (and signal variance) by log
    /// marginal likelihood on the residual history, then refit.
    ///
    /// # Errors
    /// [`DragsterError::Gp`] if every hyper-parameter candidate leaves the
    /// kernel matrix numerically indefinite, or the refit itself fails.
    pub fn refit_hyperparameters(&mut self) -> Result<(), DragsterError> {
        if self.history.len() < 4 {
            return Ok(());
        }
        // The grid search fits a fresh model per candidate, so it is fit
        // on a sliding window of recent residuals to keep the periodic
        // refit O(W²·D) instead of growing with the history.
        let start = self.history.len().saturating_sub(HYPER_FIT_WINDOW);
        let window = self
            .history
            .iter()
            .skip(start)
            .map(|&(t, c)| (t - 1, c / self.scale - self.prior(t)));
        let (l, s2, _) = HYPER_FIT.fit_se(self.gp.points(), window, self.cfg.noise_var)?;
        // The candidate grids are discrete, so an unchanged winner means an
        // exactly unchanged kernel — skip the full-history rebuild.
        #[allow(clippy::float_cmp)]
        let unchanged = l == self.gp.kernel().length_scale && s2 == self.gp.kernel().signal_var;
        if unchanged {
            return Ok(());
        }
        self.gp.reset_with(SquaredExp::with_signal(l, s2));
        self.rebuild()
    }

    fn refit(&mut self) -> Result<(), DragsterError> {
        self.gp.reset();
        self.rebuild()
    }

    /// The one rebuild rule, shared by scale refits, kernel swaps and
    /// [`OperatorGp::restore`]: feed every history sample's residual
    /// `c / scale − prior(t)` to the (empty) regressor, in observation
    /// order, under the current scale and kernel.
    fn rebuild(&mut self) -> Result<(), DragsterError> {
        for &(tasks, c) in &self.history {
            let resid = c / self.scale - self.prior(tasks);
            self.gp.observe(tasks - 1, resid)?;
        }
        Ok(())
    }

    /// Residual posterior at a task count: `O(1)` on the grid, one solve
    /// off it, with the same bits either way.
    fn raw_posterior(&self, tasks: usize) -> GpPosterior {
        tasks
            .checked_sub(1)
            .and_then(|gi| self.gp.grid_posterior(gi))
            .unwrap_or_else(|| self.gp.posterior(tasks as f64))
    }

    /// Posterior over the *normalized* capacity at a task count (the
    /// linear prior mean is added back to the residual posterior).
    pub fn posterior(&self, tasks: usize) -> GpPosterior {
        let p = self.raw_posterior(tasks);
        GpPosterior {
            mean: p.mean + self.prior(tasks),
            var: p.var,
        }
    }

    /// Posterior-mean capacity estimate in raw units.
    pub fn capacity_estimate(&self, tasks: usize) -> f64 {
        self.posterior(tasks).mean * self.scale
    }

    /// The extended acquisition `−|μ(x) − y_t| + β σ²(x)` for one
    /// configuration (Eq. 18 / Remark 1), with the target in raw capacity
    /// units and the deficit side weighted by
    /// [`UcbConfig::deficit_weight`].
    pub fn acquisition(&self, tasks: usize, target_capacity: f64, beta: f64) -> f64 {
        let p = self.posterior(tasks);
        let yt = target_capacity / self.scale;
        let diff = p.mean - yt;
        let penalty = if diff >= 0.0 {
            diff
        } else {
            -diff * self.cfg.deficit_weight
        };
        -penalty + beta * p.var
    }

    /// The acquisition over the whole configuration range; index 0 → 1 task.
    pub fn acquisition_table(&self, target_capacity: f64, beta: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cfg.max_tasks);
        self.acquisition_table_into(target_capacity, beta, &mut out);
        out
    }

    /// Fill `out` with the acquisition over the whole configuration range
    /// (index 0 → 1 task), reusing the buffer's allocation. The
    /// per-candidate invariants — the normalized target `yt` and the
    /// linear-prior slope — are hoisted out of the grid loop, so each
    /// candidate costs one `O(1)` grid posterior and a few flops.
    pub fn acquisition_table_into(&self, target_capacity: f64, beta: f64, out: &mut Vec<f64>) {
        let yt = target_capacity / self.scale;
        let prior_step = 1.0 / (self.cfg.max_tasks.max(1) as f64 * 1.25);
        out.clear();
        out.extend((1..=self.cfg.max_tasks).map(|x| {
            let p = self.raw_posterior(x);
            let mean = p.mean + x as f64 * prior_step;
            let diff = mean - yt;
            let penalty = if diff >= 0.0 {
                diff
            } else {
                -diff * self.cfg.deficit_weight
            };
            -penalty + beta * p.var
        }));
    }

    /// Thompson-sampling table: one coherent draw from the joint posterior
    /// over the whole grid, scored by the (deficit-weighted) distance to
    /// the target. `normals` supplies standard-normal variates.
    ///
    /// # Errors
    /// [`DragsterError::Gp`] if the joint posterior covariance cannot be
    /// factored.
    pub fn thompson_table(
        &self,
        target_capacity: f64,
        normals: impl FnMut() -> f64,
    ) -> Result<Vec<f64>, DragsterError> {
        let sample = self.gp.sample_posterior(normals)?;
        let yt = target_capacity / self.scale;
        Ok((0..self.cfg.max_tasks)
            .map(|i| {
                // the GP models residuals; add the linear prior back
                let s = sample.get(i).copied().unwrap_or(0.0) + self.prior(i + 1);
                let diff = s - yt;
                if diff >= 0.0 {
                    -diff
                } else {
                    diff * self.cfg.deficit_weight
                }
            })
            .collect())
    }

    /// `argmax_x A(x)` — ties broken toward fewer tasks (cheaper pods).
    pub fn best_config(&self, target_capacity: f64, beta: f64) -> usize {
        let table = self.acquisition_table(target_capacity, beta);
        let mut best = 0usize;
        let mut best_a = f64::NEG_INFINITY;
        for (i, &a) in table.iter().enumerate() {
            if a > best_a + 1e-12 {
                best = i;
                best_a = a;
            }
        }
        best + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_gp() -> OperatorGp {
        // ground truth: capacity = 100 · tasks, low-noise samples
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-4,
            ..Default::default()
        });
        for tasks in [1usize, 3, 5, 8, 10] {
            g.observe(tasks, 100.0 * tasks as f64).unwrap();
        }
        g
    }

    #[test]
    fn capacity_estimate_interpolates() {
        let g = trained_gp();
        for tasks in 1..=10usize {
            let est = g.capacity_estimate(tasks);
            let truth = 100.0 * tasks as f64;
            assert!(
                (est - truth).abs() / truth < 0.15,
                "tasks={tasks}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn best_config_tracks_target() {
        let g = trained_gp();
        // with exploration off (β = 0), the best config for a 480-capacity
        // target is 5 tasks (500 is closest among 400/500).
        let x = g.best_config(480.0, 0.0);
        assert!(x == 5, "picked {x}");
        let x2 = g.best_config(950.0, 0.0);
        assert!(x2 >= 9, "picked {x2}");
        let x3 = g.best_config(80.0, 0.0);
        assert!(x3 == 1, "picked {x3}");
    }

    #[test]
    fn exploration_prefers_unseen_configs() {
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-4,
            ..Default::default()
        });
        // only one observation: far configs have much higher σ²
        g.observe(1, 100.0).unwrap();
        let near = g.acquisition(1, 100.0, 5.0);
        let far = g.acquisition(10, 100.0, 5.0);
        // the far config's huge variance beats the near config's perfect fit
        assert!(far > near, "near {near} far {far}");
    }

    #[test]
    fn no_exploration_prefers_fit() {
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-4,
            ..Default::default()
        });
        g.observe(1, 100.0).unwrap();
        let near = g.acquisition(1, 100.0, 0.0);
        let far = g.acquisition(10, 100.0, 0.0);
        assert!(near > far);
    }

    #[test]
    fn ignores_degenerate_samples() {
        let mut g = OperatorGp::new(UcbConfig::default());
        g.observe(3, f64::NAN).unwrap();
        g.observe(3, -5.0).unwrap();
        g.observe(3, 0.0).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn rescales_and_refits_when_scale_grows() {
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-4,
            ..Default::default()
        });
        g.observe(10, 10.0).unwrap(); // implies tiny scale
        let s1 = g.scale();
        g.observe(1, 1000.0).unwrap(); // 100× larger per-task rate
        assert!(g.scale() > s1 * 10.0);
        assert_eq!(g.len(), 2);
        // both observations survive the refit
        let est = g.capacity_estimate(1);
        assert!(est > 100.0, "{est}");
    }

    #[test]
    fn beta_schedule_positive_and_growing() {
        let cfg = UcbConfig::default();
        let b1 = cfg.beta(100, 1);
        let b9 = cfg.beta(100, 9);
        assert!(b1 >= 0.0);
        assert!(b9 > b1);
    }

    #[test]
    fn acquisition_table_matches_pointwise() {
        let g = trained_gp();
        let table = g.acquisition_table(300.0, 1.0);
        assert_eq!(table.len(), 10);
        for (i, &a) in table.iter().enumerate() {
            assert!((a - g.acquisition(i + 1, 300.0, 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn hyper_refit_improves_wiggle_fit() {
        // data from a short-length-scale truth: refit should pick a
        // shorter kernel than the default 3.0 and reduce posterior error
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-3,
            hyper_refit_every: None,
            ..Default::default()
        });
        // saturating truth — curvature the linear prior misses
        let truth = |t: usize| 800.0 * t as f64 / (t as f64 + 2.0);
        for round in 0..3 {
            for t in [1usize, 2, 4, 6, 8, 10] {
                g.observe(t, truth(t) * (1.0 + 0.01 * ((round % 2) as f64 - 0.5)))
                    .unwrap();
            }
        }
        g.refit_hyperparameters().unwrap();
        // LML-chosen hyper-parameters must still fit the curve well —
        // the refit optimizes likelihood, not pointwise error, so we
        // assert accuracy rather than strict improvement.
        let mean_rel_err: f64 = (1..=10)
            .map(|t| (g.capacity_estimate(t) - truth(t)).abs() / truth(t))
            .sum::<f64>()
            / 10.0;
        assert!(mean_rel_err < 0.08, "refit left a poor fit: {mean_rel_err}");
    }

    #[test]
    fn automatic_refit_triggers() {
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-3,
            hyper_refit_every: Some(5),
            ..Default::default()
        });
        for t in 0..12usize {
            g.observe(t % 10 + 1, 100.0 * (t % 10 + 1) as f64).unwrap();
        }
        // survives the refits and still predicts linearly
        let est = g.capacity_estimate(5);
        assert!((est - 500.0).abs() / 500.0 < 0.2, "{est}");
    }

    /// `capacity_estimate` at every task count and the acquisition table
    /// of `g`, computed instead on the plain exact regressor rebuilt from
    /// `history()`, `scale()` and `kernel()`.
    fn oracle_tables(g: &OperatorGp, target: f64, beta: f64) -> (Vec<f64>, Vec<f64>) {
        let mut oracle = dragster_gp::GpRegressor::new(*g.kernel(), g.cfg.noise_var);
        for &(t, c) in g.history() {
            oracle
                .observe(&[t as f64], c / g.scale() - g.prior(t))
                .unwrap();
        }
        let prior_step = 1.0 / (g.cfg.max_tasks as f64 * 1.25);
        let yt = target / g.scale();
        (1..=g.cfg.max_tasks)
            .map(|x| {
                let p = oracle.posterior(&[x as f64]);
                let estimate = (p.mean + g.prior(x)) * g.scale();
                let diff = p.mean + x as f64 * prior_step - yt;
                let penalty = if diff >= 0.0 {
                    diff
                } else {
                    -diff * g.cfg.deficit_weight
                };
                (estimate, -penalty + beta * p.var)
            })
            .unzip()
    }

    #[test]
    fn grid_model_matches_the_exact_regressor_bit_for_bit() {
        // After every sample — including scale growth (the first samples
        // imply a tiny scale, later ones 50× larger) and the kernel swaps
        // of periodic hyper-parameter refits — the grid model's estimates
        // and acquisition table equal the plain regressor's bit for bit.
        let mut g = OperatorGp::new(UcbConfig {
            noise_var: 1e-3,
            hyper_refit_every: Some(5),
            ..Default::default()
        });
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut swaps, mut rescales) = (0, 0);
        for i in 0..60usize {
            let tasks = usize::try_from(next() % 10 + 1).unwrap();
            let boost = if i < 3 { 1.0 } else { 50.0 };
            let cap = boost * tasks as f64 * (80.0 + (next() % 40) as f64);
            let (kernel, scale) = (*g.kernel(), g.scale());
            g.observe(tasks, cap).unwrap();
            swaps += usize::from(*g.kernel() != kernel);
            rescales += usize::from(g.scale().to_bits() != scale.to_bits());
            let (estimates, table) = oracle_tables(&g, cap * 1.1, 0.7);
            let live: Vec<f64> = (1..=10).map(|t| g.capacity_estimate(t)).collect();
            assert_eq!(bits(&live), bits(&estimates), "sample {i}: estimates");
            let live = g.acquisition_table(cap * 1.1, 0.7);
            assert_eq!(bits(&live), bits(&table), "sample {i}: acquisition");
        }
        assert!(swaps > 0, "the stream never swapped kernels");
        assert!(rescales > 1, "the stream never refit the scale");
    }

    #[test]
    fn clamps_task_range_on_observe() {
        let mut g = OperatorGp::new(UcbConfig {
            max_tasks: 5,
            ..Default::default()
        });
        g.observe(99, 500.0).unwrap();
        assert_eq!(g.len(), 1);
        // stored as 5 tasks
        assert!(g.capacity_estimate(5) > 0.0);
    }
}
