//! Controller decide cost as the horizon grows.
//!
//! Each horizon runs the real slot loop ([`run_experiment`]) on word
//! count at its high rate, through a wrapper that times every `decide`.
//! A steady decide reads the GP posteriors in `O(1)` and extends each GP
//! in `O(n·K)` for its `n` samples (DESIGN §12), so the mean decide over
//! a run grows at most linearly with the horizon, and far less while the
//! fixed per-slot work dominates. Theorem 1's regret bound assumes this
//! decision latency is negligible against the slot length.
//!
//! ```text
//! cargo run --release -p dragster-bench --bin hotpath
//! cargo run --release -p dragster-bench --bin hotpath -- --check
//! ```
//!
//! The plain run sweeps 60/240/960 slots and writes the rows to
//! `results/hotpath.json` under `horizon_sweep`. The cost of every other
//! layer of a slot (engine, sanitizer, journal, checkpoint) is measured
//! by the repository benchmark's `--trace` run.
//!
//! `--check` is the CI smoke mode: the mean decide at 240 and at 960
//! slots, measured in the same process so machine speed cancels out of
//! their ratio. It exits non-zero when the 4× longer horizon makes the
//! mean decide more than [`CHECK_MAX_GROWTH`] times slower. Any other
//! argument exits 2 with a usage line. It reads and writes no files —
//! `results/*.json` is gitignored, so an absolute ns baseline would
//! neither exist on a fresh checkout nor transfer across machines.

#![expect(
    clippy::disallowed_methods,
    reason = "wall-clock timing is this binary's job"
)]

use std::time::Instant;

use dragster_bench::runner::{make_scaler, parse_flag, write_json, Scheme};
use dragster_sim::fluid::SimConfig;
use dragster_sim::json::{self, Json};
use dragster_sim::{
    run_experiment, Autoscaler, ClusterConfig, ConstantArrival, Deployment, FluidSim, NoiseConfig,
    SimError, SlotMetrics,
};
use dragster_workloads::{word_count, Workload};

const SWEEP_HORIZONS: [usize; 3] = [60, 240, 960];
const SWEEP_SEED: u64 = 11;
const CHECK_HORIZONS: [usize; 2] = [240, 960];
/// Largest mean-decide growth `--check` accepts from 240 to 960 slots.
/// The grid GP path measures 1.1–1.2×; the retired path that re-solved
/// every GP query, `O(t²)` per decide, measured 14.6×. A linear
/// per-decide cost grows at most 4× here.
const CHECK_MAX_GROWTH: f64 = 4.0;

/// The controller, with every `decide` timed.
struct Timed {
    inner: Box<dyn Autoscaler>,
    /// Summed over every `decide`.
    decide_ns: u128,
    decides: u128,
}

impl Autoscaler for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(
        &mut self,
        t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError> {
        let start = Instant::now();
        let out = self.inner.decide(t, metrics, current);
        self.decide_ns += start.elapsed().as_nanos();
        self.decides += 1;
        out
    }
}

/// Mean decide time in ns over `slots` slots of the experiment loop,
/// with the saddle-point Dragster under a 200-pod budget.
fn mean_decide_ns(w: &Workload, slots: usize) -> u128 {
    let mut sim = FluidSim::new(
        w.app.clone(),
        ClusterConfig::default(),
        SimConfig::default(),
        NoiseConfig::default(),
        SWEEP_SEED,
        Deployment::uniform(2, 1),
    )
    .expect("simulator accepts the application");
    let mut timed = Timed {
        inner: make_scaler(Scheme::DragsterSaddle, &w.app, Some(200), SWEEP_SEED),
        decide_ns: 0,
        decides: 0,
    };
    let mut arrivals = ConstantArrival(w.high_rate.clone());
    run_experiment(&mut sim, &mut timed, &mut arrivals, slots).expect("the experiment runs");
    timed.decide_ns / timed.decides.max(1)
}

fn ns(v: u128) -> Json {
    json::num(usize::try_from(v).unwrap_or(usize::MAX))
}

fn growth_ratio(later: u128, earlier: u128) -> f64 {
    if earlier == 0 {
        return 0.0;
    }
    later as f64 / earlier as f64
}

/// CI smoke: the mean decide at two horizons, measured back-to-back in
/// the same process so machine speed cancels out of their ratio. Reads
/// and writes nothing.
fn check_mode() -> ! {
    let w = word_count().expect("workload builds");
    let [short, long] = CHECK_HORIZONS;
    let short_ns = mean_decide_ns(&w, short);
    let long_ns = mean_decide_ns(&w, long);
    let growth = growth_ratio(long_ns, short_ns);
    println!(
        "hotpath --check: mean decide {short_ns} ns/slot at {short} slots, {long_ns} ns/slot \
         at {long} slots = {growth:.2}x (bound {CHECK_MAX_GROWTH:.2}x)"
    );
    if growth > CHECK_MAX_GROWTH {
        eprintln!(
            "hotpath regression: from {short} to {long} slots the mean decide grew \
             {growth:.2}x (bound {CHECK_MAX_GROWTH:.2}x; the grid GP path measures 1.1-1.2x, a \
             path that re-solves every GP query 14.6x).\n\
             Triage: (1) run `cargo run --release -p dragster-bench --bin hotpath` and \
             compare the horizon_sweep rows in results/hotpath.json — growth per 4x horizon \
             should stay well under 4x; (2) check whether a new GP query in the decide path \
             solves against the history instead of reading `GridGp::grid_posterior` \
             (DESIGN \u{a7}12, CONTRIBUTING) — a grid posterior is O(1) and an observation \
             O(n\u{b7}K), never O(n\u{b2}); (3) run `cargo test --release --test \
             alloc_budget` for new allocations per decide."
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let check =
        parse_flag("hotpath", "--check", std::env::args().skip(1)).unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2)
        });
    if check {
        check_mode();
    }
    let w = word_count().expect("workload builds");

    // A growth ratio near 4 per 4× more slots is linear; a quadratic path
    // shows ~16.
    let mut rows = Vec::new();
    let mut prev: Option<u128> = None;
    for &slots in &SWEEP_HORIZONS {
        let decide_ns = mean_decide_ns(&w, slots);
        let mut row = vec![
            ("slots".to_string(), json::num(slots)),
            ("decide_mean_ns".to_string(), ns(decide_ns)),
        ];
        if let Some(p) = prev {
            row.push(("growth".to_string(), Json::Num(growth_ratio(decide_ns, p))));
        }
        println!("horizon {slots}: decide {} us", decide_ns / 1_000);
        rows.push(Json::Obj(row));
        prev = Some(decide_ns);
    }
    write_json(
        "hotpath",
        "Mean decide time per slot by horizon",
        Json::obj([("horizon_sweep", Json::Arr(rows))]),
    );
}
