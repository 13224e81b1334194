//! Exact Gaussian-process regression for Dragster.
//!
//! The paper models each operator's service capacity as a draw from a
//! Gaussian process, `y_i ~ GP(μ_i(x_i), k_i(x, x_i))` (Eq. 7), observes
//! noisy capacity samples `c_i(t) = y_i(t) + ε`, `ε ~ N(0, σ²)` (Eq. 8), and
//! computes the exact posterior of Eq. (17):
//!
//! ```text
//! μ_t(x)      = k_t(x)ᵀ (K_t + σ² I)⁻¹ y_t
//! k_t(x, x')  = k(x, x') − k_t(x)ᵀ (K_t + σ² I)⁻¹ k_t(x')
//! σ_t²(x)     = k_t(x, x)
//! ```
//!
//! The reference implementation used Python's `sklearn`
//! `GaussianProcessRegressor`; no mature Rust equivalent exists, so this
//! crate provides the whole stack from scratch:
//!
//! * [`linalg`] — dense vectors/matrices, symmetric Cholesky factorization,
//!   triangular solves, and incremental (append-one-row) Cholesky updates so
//!   each online observation costs O(t²) instead of O(t³).
//! * [`kernel`] — squared-exponential (the paper's choice), Matérn-5/2,
//!   linear, white-noise and constant kernels plus sum/product/scale
//!   combinators.
//! * [`regression`] — the exact GP posterior and log marginal likelihood
//!   over any input space.
//! * [`grid`] — the same posterior over a fixed 1-D grid in O(n·K) memory
//!   (the operator models' task grid), and a small grid-search
//!   hyper-parameter fitter.
//! * [`info_gain`] — information-gain accounting `I(c_A; y) = ½ log det(I +
//!   σ⁻² K_A)` and the `Γ_T`/`β_t` schedules appearing in Theorem 1.

pub mod error;
pub mod grid;
pub mod info_gain;
pub mod kernel;
pub mod linalg;
pub mod regression;

pub use error::GpError;
pub use grid::{GpHyperFit, GridGp};
pub use info_gain::{beta_t, information_gain, se_gamma_bound};
pub use kernel::{
    ConstantKernel, Kernel, LinearKernel, Matern52, ProductKernel, ScaledKernel, SquaredExp,
    SumKernel, WhiteKernel,
};
pub use linalg::{Cholesky, Matrix};
pub use regression::{GpPosterior, GpRegressor};
