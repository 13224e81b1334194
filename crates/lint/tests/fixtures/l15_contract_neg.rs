//! L15 negative: the same posterior, but the variance is clamped at
//! zero before it is bound — the computed interval [0, +inf] satisfies
//! the contract and the NaN case is absorbed by `max`.

pub struct GpPosterior {
    pub mean: f64,
    pub var: f64,
}

pub struct GridGp {
    pub prior: f64,
}

impl GridGp {
    pub fn posterior(&self, k_xx: f64, explained: f64) -> GpPosterior {
        GpPosterior {
            mean: self.prior,
            var: (k_xx - explained).max(0.0),
        }
    }
}
