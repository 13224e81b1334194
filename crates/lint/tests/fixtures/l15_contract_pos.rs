//! L15 positive: the GP-posterior contract (`GridGp::*::var`
//! = [0, +inf]) demands a nonnegative variance, but the computed field
//! interval extends below zero (and may be NaN).

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
            var: k_xx - explained,
        }
    }
}
