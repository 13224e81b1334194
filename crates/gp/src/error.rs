//! Error type for GP operations that can fail numerically.

use crate::linalg::NotPositiveDefinite;
use std::fmt;

/// Failures in GP regression: a Cholesky factorization losing
/// positive-definiteness (degenerate kernel matrix, duplicated points with
/// zero noise, NaN inputs), or a grid observation off its grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpError {
    /// `K + σ²I` (or a posterior covariance) stopped being positive
    /// definite at the given pivot.
    NotPositiveDefinite { pivot: usize },
    /// A [`crate::GridGp`] observation named grid index `index` of a grid
    /// with `points` points.
    OffGrid { index: usize, points: usize },
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::NotPositiveDefinite { pivot } => {
                write!(f, "kernel matrix not positive definite at pivot {pivot}")
            }
            GpError::OffGrid { index, points } => {
                write!(f, "grid index {index} outside a grid of {points} points")
            }
        }
    }
}

impl std::error::Error for GpError {}

impl From<NotPositiveDefinite> for GpError {
    fn from(e: NotPositiveDefinite) -> GpError {
        GpError::NotPositiveDefinite { pivot: e.pivot }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converts_from_linalg_error() {
        let e: GpError = NotPositiveDefinite { pivot: 3 }.into();
        assert_eq!(e, GpError::NotPositiveDefinite { pivot: 3 });
        assert!(e.to_string().contains("pivot 3"));
    }
}
