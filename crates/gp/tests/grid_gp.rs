//! `GridGp` against its oracle, the plain exact `GpRegressor`.
//!
//! The grid regressor's contract is exact: under the same kernel, noise
//! and history it must reproduce the regressor **bitwise**, not
//! approximately — the posterior at every grid point, the posterior off
//! the grid, the log marginal likelihood and the joint mean and covariance
//! Thompson sampling draws from. The histories are random (xorshift64*,
//! fixed seeds) with many duplicate grid points, and every way the
//! controller rebuilds a model is exercised: `reset` plus replay (a scale
//! refit), `reset_with` plus replay (a kernel swap) and a fresh model fed
//! the same history (a checkpoint restore).

// Integration tests may panic freely; the workspace deny only guards
// library code paths.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dragster_gp::{GpError, GpHyperFit, GpPosterior, GpRegressor, GridGp, SquaredExp};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("a remainder below n fits usize")
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn grid(k: usize) -> Vec<f64> {
    (1..=k).map(|x| x as f64).collect()
}

/// A random grid history: `(grid index, observation)` pairs. Ten points
/// and dozens of samples make duplicates the rule, as in the controller.
fn random_history(rng: &mut Rng, k: usize, len: usize) -> Vec<(usize, f64)> {
    (0..len)
        .map(|_| (rng.below(k), rng.unit() * 4.0 - 2.0))
        .collect()
}

/// A random history over `d` of the `k` grid points, drawn at random:
/// the windows a hyper-parameter refit sees visit only some task counts.
fn subset_history(rng: &mut Rng, k: usize, d: usize, len: usize) -> Vec<(usize, f64)> {
    let mut subset: Vec<usize> = (0..k).collect();
    for i in 0..d {
        let j = i + rng.below(k - i);
        subset.swap(i, j);
    }
    (0..len)
        .map(|_| (subset[rng.below(d)], rng.unit() * 4.0 - 2.0))
        .collect()
}

fn replay_grid(gp: &mut GridGp<SquaredExp>, history: &[(usize, f64)]) {
    for &(gi, y) in history {
        gp.observe(gi, y).unwrap();
    }
}

fn replay_oracle(gp: &mut GpRegressor<SquaredExp>, points: &[f64], history: &[(usize, f64)]) {
    for &(gi, y) in history {
        gp.observe(&[points[gi]], y).unwrap();
    }
}

fn assert_bits(a: GpPosterior, b: GpPosterior, what: &str) {
    assert_eq!(
        (a.mean.to_bits(), a.var.to_bits()),
        (b.mean.to_bits(), b.var.to_bits()),
        "{what}: grid ({}, {}) vs oracle ({}, {})",
        a.mean,
        a.var,
        b.mean,
        b.var
    );
}

/// Everything a caller reads from a `GridGp`, against the oracle.
fn check_against_oracle(gp: &GridGp<SquaredExp>, oracle: &GpRegressor<SquaredExp>, ctx: &str) {
    assert_eq!(gp.len(), oracle.len(), "{ctx}: length");
    let points = gp.points().to_vec();
    for (gi, &x) in points.iter().enumerate() {
        let expect = oracle.posterior(&[x]);
        assert_bits(gp.grid_posterior(gi).unwrap(), expect, ctx);
        // The solve path reads the factor back from the columns and must
        // land on the same bits at a grid point too.
        assert_bits(gp.posterior(x), expect, ctx);
    }
    for q in [0.0, 0.5, 3.37, 7.999, points.len() as f64 + 2.25] {
        assert_bits(gp.posterior(q), oracle.posterior(&[q]), ctx);
    }
    assert_eq!(
        gp.log_marginal_likelihood().to_bits(),
        oracle.log_marginal_likelihood().to_bits(),
        "{ctx}: log marginal likelihood"
    );
    let (mean, cov) = gp.posterior_joint();
    let xs: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
    let (omean, ocov) = oracle.posterior_joint(&xs);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&mean), bits(&omean), "{ctx}: joint mean");
    for i in 0..points.len() {
        for j in 0..points.len() {
            assert_eq!(
                cov[(i, j)].to_bits(),
                ocov[(i, j)].to_bits(),
                "{ctx}: joint covariance ({i}, {j})"
            );
        }
    }
}

#[test]
fn grid_gp_matches_the_oracle_after_every_observation() {
    let trials: u64 = if cfg!(miri) { 2 } else { 8 };
    let steps = if cfg!(miri) { 8 } else { 60 };
    // Three, five and ten points use the 4-, 8- and 12-lane register
    // passes, twenty the slice.
    for k in [10, 3, 5, 20] {
        for trial in 0..trials {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (trial + 1));
            let points = grid(k);
            let history = random_history(&mut rng, k, steps);
            let kernel = SquaredExp::with_signal(0.5 + rng.unit() * 7.5, 0.05 + rng.unit());
            let noise = 1e-3 + rng.unit() * 1e-2;
            let mut gp = GridGp::new(kernel, noise, points.clone());
            let mut oracle = GpRegressor::new(kernel, noise);
            check_against_oracle(&gp, &oracle, "empty");
            for (i, &(gi, y)) in history.iter().enumerate() {
                gp.observe(gi, y).unwrap();
                oracle.observe(&[points[gi]], y).unwrap();
                check_against_oracle(&gp, &oracle, &format!("{k} points, trial {trial}, obs {i}"));
            }
        }
    }
}

#[test]
fn rebuilds_match_a_model_that_only_knew_the_new_state() {
    // The controller rebuilds a model three ways: `reset` and a replay of
    // rescaled residuals (scale refit), `reset_with` and a replay under
    // the new kernel (hyper-parameter refit), and a fresh model fed the
    // checkpointed history (restore).
    let trials: u64 = if cfg!(miri) { 1 } else { 12 };
    let steps = if cfg!(miri) { 6 } else { 40 };
    let points = grid(10);
    for trial in 0..trials {
        let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D ^ (trial + 1));
        let history = random_history(&mut rng, 10, steps);
        let first = SquaredExp::new(3.0);
        let mut live = GridGp::new(first, 1e-2, points.clone());
        replay_grid(&mut live, &history);

        let rescaled: Vec<(usize, f64)> = history.iter().map(|&(g, y)| (g, y * 0.37)).collect();
        live.reset();
        assert!(live.is_empty());
        replay_grid(&mut live, &rescaled);
        let mut oracle = GpRegressor::new(first, 1e-2);
        replay_oracle(&mut oracle, &points, &rescaled);
        check_against_oracle(&live, &oracle, &format!("trial {trial}, reset"));

        let swapped = SquaredExp::with_signal(1.5, 0.25);
        live.reset_with(swapped);
        replay_grid(&mut live, &rescaled);
        let mut oracle = GpRegressor::new(swapped, 1e-2);
        replay_oracle(&mut oracle, &points, &rescaled);
        check_against_oracle(&live, &oracle, &format!("trial {trial}, kernel swap"));

        let mut restored = GridGp::new(*live.kernel(), live.noise_var(), points.clone());
        replay_grid(&mut restored, &rescaled);
        check_against_oracle(&restored, &oracle, &format!("trial {trial}, restore"));
        let extra = random_history(&mut rng, 10, 10);
        replay_grid(&mut live, &extra);
        replay_grid(&mut restored, &extra);
        replay_oracle(&mut oracle, &points, &extra);
        check_against_oracle(&live, &oracle, &format!("trial {trial}, live after"));
        check_against_oracle(
            &restored,
            &oracle,
            &format!("trial {trial}, restored after"),
        );
    }
}

#[test]
fn thompson_draws_match_the_oracle() {
    let points = grid(10);
    let mut rng = Rng(0x0F1E_2D3C_4B5A_6978);
    let history = random_history(&mut rng, 10, 30);
    let kernel = SquaredExp::with_signal(2.0, 0.25);
    let mut gp = GridGp::new(kernel, 1e-2, points.clone());
    let mut oracle = GpRegressor::new(kernel, 1e-2);
    replay_grid(&mut gp, &history);
    replay_oracle(&mut oracle, &points, &history);
    let xs: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
    let mut z = Rng(7);
    let mut z2 = Rng(7);
    let a = gp.sample_posterior(|| z.unit() - 0.5).unwrap();
    let b = oracle.sample_posterior(&xs, || z2.unit() - 0.5).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b));
}

/// The hyper-parameter search as it ran on `GpRegressor` before the grid
/// regressor replaced it: each candidate refactors the history from
/// scratch and the strictly best log marginal likelihood wins.
fn oracle_fit_se(
    fit: &GpHyperFit,
    xs: &[Vec<f64>],
    cs: &[f64],
    noise_var: f64,
) -> Result<(f64, f64, f64), GpError> {
    let mut best: Option<(f64, f64, f64)> = None;
    let mut last_err = GpError::NotPositiveDefinite { pivot: 0 };
    for &l in fit.length_scales {
        for &s in fit.signal_vars {
            let mut gp = GpRegressor::new(SquaredExp::with_signal(l, s), noise_var);
            let mut ok = true;
            for (x, &c) in xs.iter().zip(cs.iter()) {
                if let Err(e) = gp.observe(x, c) {
                    last_err = e;
                    ok = false;
                    break;
                }
            }
            if !ok {
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

#[test]
fn grid_search_returns_the_oracle_search_bits() {
    let points = grid(10);
    // The controller's candidates and the library default.
    let fits = [
        GpHyperFit {
            length_scales: &[1.0, 2.0, 3.0, 5.0, 8.0],
            signal_vars: &[0.05, 0.25, 1.0],
        },
        GpHyperFit::default(),
    ];
    // Histories over the whole grid, then over a random subset of `d`
    // points for every `d`: the search fits only the points visited, at
    // every register width and on the slice.
    let mut histories = Vec::new();
    for trial in 0..if cfg!(miri) { 2u64 } else { 24 } {
        let mut rng = Rng(0xA5A5_5A5A_F0F0_0F0F ^ trial);
        let len = 4 + rng.below(45);
        histories.push(random_history(&mut rng, 10, len));
    }
    let per_width: u64 = if cfg!(miri) { 1 } else { 4 };
    for d in 1..=10 {
        for trial in 0..per_width {
            let mut rng = Rng(0x5EED_0F5E_75D0_0000 ^ ((d as u64) << 8) ^ trial);
            let len = 4 + rng.below(45);
            histories.push(subset_history(&mut rng, 10, d, len));
        }
    }
    for (h, history) in histories.iter().enumerate() {
        let xs: Vec<Vec<f64>> = history.iter().map(|&(g, _)| vec![points[g]]).collect();
        let cs: Vec<f64> = history.iter().map(|&(_, y)| y).collect();
        for noise in [1e-3, 1e-2] {
            for fit in &fits {
                let (l, s, lml) = fit.fit_se(&points, history.iter().copied(), noise).unwrap();
                let (ol, os, olml) = oracle_fit_se(fit, &xs, &cs, noise).unwrap();
                assert_eq!(
                    (l.to_bits(), s.to_bits(), lml.to_bits()),
                    (ol.to_bits(), os.to_bits(), olml.to_bits()),
                    "history {h}, noise {noise}: grid ({l}, {s}, {lml}) vs oracle ({ol}, {os}, {olml})"
                );
            }
        }
    }
}

#[test]
fn variance_at_a_near_noiseless_training_input_is_clamped_to_zero() {
    // σ² is below the rounding unit of the signal variance, so at the
    // training input `k(x,x) − vᵀv` rounds to −4.4e-16; only the clamp
    // keeps the Eq. 17 variance nonnegative, on both query paths.
    let kernel = SquaredExp::with_signal(1.0, 3.0);
    let mut gp = GridGp::new(kernel, 1e-16, grid(10));
    gp.observe(1, 5.0).unwrap();
    // The joint covariance is unclamped; below its 1e-9 jitter means the
    // variance itself rounded negative.
    let (_, cov) = gp.posterior_joint();
    assert!(
        cov[(1, 1)] < 1e-9,
        "the unclamped variance must round negative: {:e}",
        cov[(1, 1)]
    );
    assert_eq!(gp.grid_posterior(1).unwrap().var, 0.0);
    assert_eq!(gp.posterior(2.0).var, 0.0);
}

#[test]
fn batch_shares_workspace_and_matches_single() {
    // `posterior_batch` reuses one scratch pair across the batch; results
    // must still be exactly the single-query ones. The inputs are mostly
    // task counts, one in eight off the grid.
    let mut rng = Rng(0xA5A5_5A5A_F0F0_0F0F);
    let history: Vec<(Vec<f64>, f64)> = (0..if cfg!(miri) { 6 } else { 25 })
        .map(|_| {
            let x = if rng.below(8) == 0 {
                1.0 + rng.unit() * 9.0
            } else {
                (rng.below(10) + 1) as f64
            };
            (vec![x], rng.unit() * 4.0 - 2.0)
        })
        .collect();
    let mut gp = GpRegressor::new(SquaredExp::new(2.0), 1e-2);
    for (x, y) in &history {
        gp.observe(x, *y).unwrap();
    }
    let queries: Vec<Vec<f64>> = (0..15).map(|_| vec![rng.unit() * 12.0]).collect();
    let batch = gp.posterior_batch(&queries);
    for (p, q) in batch.iter().zip(queries.iter()) {
        let single = gp.posterior(q);
        assert_eq!(
            (p.mean.to_bits(), p.var.to_bits()),
            (single.mean.to_bits(), single.var.to_bits()),
            "at {q:?}: batch ({}, {}) vs single ({}, {})",
            p.mean,
            p.var,
            single.mean,
            single.var
        );
    }
}
