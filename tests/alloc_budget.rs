//! Allocation budgets of the controller, counted by a global allocator
//! that forwards to `System`, on the real slot loop and on its parts:
//!
//! * every steady `Dragster::decide` and every steady whole slot, through
//!   `run_experiment` and `run_experiment_recoverable`, on WordCount (the
//!   Fig. 6 square wave, a constant rate, and the OGD inner step) and on
//!   Yahoo under a binding 30-pod budget — the per-slot work that
//!   Theorem 1 assumes is negligible next to the slot (DESIGN §11);
//! * one solve and one greedy oracle call, from a fresh scratch;
//! * the durable path: learner-state export, checkpoint encode, a repeat
//!   store write and learner-state import.
//!
//! Counts are exact and deterministic, so unlike a timing gate this cannot
//! flake on a shared host. The counter is per thread, so neither the test
//! harness's own threads nor a test running beside another enter each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dragster::core::saddle::TargetSolver;
use dragster::core::{greedy_optimal, Dragster, DragsterConfig, OperatorGp};
use dragster::dag::analysis::throughput_upper_bound;
use dragster::dag::Topology;
use dragster::sim::checkpoint::{Checkpoint, CheckpointStore, RetrySnapshot, CHECKPOINT_VERSION};
use dragster::sim::fluid::SimConfig;
use dragster::sim::{
    run_experiment, run_experiment_recoverable, ArrivalProcess, Autoscaler, ClusterConfig,
    ConstantArrival, Deployment, ExperimentOptions, FluidSim, Json, MetricSanitizer, NoiseConfig,
    RawSlot, RecoveryOptions, SanitizeConfig, SimError, SlotMetrics,
};
use dragster::workloads::{word_count, yahoo_benchmark, DiurnalBursty, SquareWave, Workload};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation made on the current thread.
struct Counting;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` satisfies `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocated() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` and return how many allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = allocated();
    let out = f();
    let after = allocated();
    drop(out);
    after - before
}

/// Allocations of one `solve` from a cold start. A small multiplier keeps
/// every coordinate climbing slowly, so the ascent runs all `iters`
/// iterations instead of stopping early.
fn solve_allocations(topo: &Topology, rates: &[f64], iters: usize) -> usize {
    let m = topo.n_operators();
    let y_max = 1.5 * throughput_upper_bound(topo, rates).unwrap();
    let offered = vec![rates.iter().sum::<f64>(); m];
    let lambda = vec![0.01; m];
    let warm = vec![0.0; m];
    let solver = TargetSolver {
        iters,
        ..TargetSolver::default()
    };
    allocations(|| {
        solver
            .solve(topo, rates, &offered, &lambda, &warm, y_max)
            .unwrap()
    })
}

#[test]
fn solve_and_oracle_allocation_budget() {
    let wc = word_count().unwrap();
    let yahoo = yahoo_benchmark().unwrap();
    for (name, topo, rates) in [
        ("wordcount", &wc.app.topology, &wc.high_rate),
        ("yahoo", &yahoo.app.topology, &yahoo.high_rate),
    ] {
        let short = solve_allocations(topo, rates, 30);
        let long = solve_allocations(topo, rates, 300);
        assert_eq!(
            short, long,
            "{name}: solve allocates per ascent iteration ({short} at 30, {long} at 300)"
        );
        assert!(
            long <= 24,
            "{name}: solve made {long} allocations, budget 24"
        );
    }
    let oracle =
        allocations(|| greedy_optimal(&yahoo.app, &yahoo.high_rate, 10, Some(30)).unwrap());
    assert!(
        oracle <= 48,
        "greedy_optimal made {oracle} allocations, budget 48"
    );
}

/// Allocations `import_state` may make: the staged vectors and the GP
/// models' geometric growth, none of which scale with the restored
/// history one for one (97 for 960 samples).
const IMPORT_BUDGET: usize = 200;

/// Exporting the learner state allocates per GP, not per sample: each
/// capacity history is one packed string and each `tasks` array one
/// vector, so the count is the same at 120 and at 480 slots. Writing a
/// checkpoint renders the state in place, so `Checkpoint::encode` makes
/// only its buffer's geometric growth, and a repeat `CheckpointStore::write`
/// encodes into the store's spare buffer and makes none. Importing it
/// rebuilds each GP in one pass with no refit or hyper-parameter search,
/// and stores no heap object per sample.
#[test]
fn checkpoint_encode_and_import_allocation_budget() {
    let wc = word_count().unwrap();
    let mut exports = Vec::new();
    for slots in [120, 480] {
        let mut sim = FluidSim::new(
            wc.app.clone(),
            ClusterConfig::default(),
            SimConfig::default(),
            NoiseConfig::default(),
            11,
            Deployment::uniform(wc.app.n_operators(), 1),
        )
        .unwrap();
        let cfg = DragsterConfig::saddle_point();
        let mut scaler = Dragster::new(wc.app.topology.clone(), cfg);
        let mut arrival = ConstantArrival(wc.high_rate.clone());
        let trace = run_experiment(&mut sim, &mut scaler, &mut arrival, slots).unwrap();
        let mut sanitizer = MetricSanitizer::new(SanitizeConfig::default());
        for metrics in &trace.slots {
            let _clean = sanitizer.sanitize(RawSlot::new(metrics.clone()));
        }
        exports.push(allocations(|| scaler.export_state()));
        let ckpt = Checkpoint {
            version: CHECKPOINT_VERSION,
            slot: slots - 1,
            scheme: scaler.name(),
            deployment: sim.deployment().tasks.clone(),
            scaler: scaler.export_state(),
            sanitizer: sanitizer.snapshot(),
            retry: RetrySnapshot::default(),
        };
        let encode = allocations(|| ckpt.encode());
        assert!(
            encode <= 32,
            "{slots} slots: Checkpoint::encode made {encode} allocations, budget 32"
        );
        // The first two writes grow the store's two buffers; from then on
        // a write of the same size reuses them.
        let mut store = CheckpointStore::new();
        store.write(&ckpt);
        store.write(&ckpt);
        let write = allocations(|| store.write(&ckpt));
        assert_eq!(
            write, 0,
            "{slots} slots: a repeat CheckpointStore::write made {write} allocations"
        );

        let state = ckpt.scaler.as_ref().expect("dragster exports state");
        let samples: usize = scaler.operator_gps().iter().map(OperatorGp::len).sum();
        let mut restored = Dragster::new(wc.app.topology.clone(), cfg);
        let import = allocations(|| restored.import_state(state).unwrap());
        assert!(
            import <= IMPORT_BUDGET,
            "{slots} slots: import_state made {import} allocations for {samples} samples, \
             budget {IMPORT_BUDGET}"
        );
    }
    assert_eq!(
        exports[0], exports[1],
        "export_state grew with the history ({} allocations at 120 slots, {} at 480)",
        exports[0], exports[1]
    );
}

/// Slots of each loop run: enough for a window near slot 1,000.
const LOOP_SLOTS: usize = LATE + WINDOW + 1;
/// Slots per window whose median is compared.
const WINDOW: usize = 24;
/// First slot of the early and the late window.
const EARLY: usize = 100;
const LATE: usize = 1_000;

/// A `Dragster` whose every `decide` is counted. It also records whether
/// the decide was a refit slot: one in which some GP's history reached a
/// multiple of `hyper_refit_every`, so `OperatorGp::observe` re-ran the
/// hyper-parameter search; the gate skips them. The buffers are reserved
/// up front, so the bookkeeping itself allocates nothing inside a slot.
struct CountedDecide {
    inner: Dragster,
    refit_every: Option<usize>,
    lens: Vec<usize>,
    /// Per decide: its allocation count, and whether it refit.
    decides: Vec<(usize, bool)>,
}

impl CountedDecide {
    fn new(inner: Dragster, cfg: DragsterConfig) -> CountedDecide {
        CountedDecide {
            inner,
            refit_every: cfg.ucb.hyper_refit_every,
            lens: Vec::with_capacity(16),
            decides: Vec::with_capacity(LOOP_SLOTS),
        }
    }
}

impl Autoscaler for CountedDecide {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(
        &mut self,
        t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError> {
        self.lens.clear();
        self.lens
            .extend(self.inner.operator_gps().iter().map(OperatorGp::len));
        let before = allocated();
        let out = self.inner.decide(t, metrics, current);
        let n = allocated() - before;
        let every = self.refit_every.unwrap_or(usize::MAX).max(1);
        let refit = self
            .inner
            .operator_gps()
            .iter()
            .zip(&self.lens)
            .any(|(gp, &was)| gp.len() != was && gp.len().is_multiple_of(every));
        self.decides.push((n, refit));
        out
    }

    fn export_state(&self) -> Option<Json> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &Json) -> Result<(), SimError> {
        self.inner.import_state(state)
    }

    fn reset_state(&mut self) {
        self.inner.reset_state();
    }
}

/// An arrival process that counts whole slots: everything the loop
/// allocates from one `rates` call to the next, the call itself included.
struct CountedSlots {
    inner: Box<dyn ArrivalProcess>,
    mark: Option<usize>,
    slots: Vec<usize>,
}

impl ArrivalProcess for CountedSlots {
    fn rates(&mut self, t: usize) -> Vec<f64> {
        let now = allocated();
        if let Some(mark) = self.mark {
            self.slots.push(now - mark);
        }
        self.mark = Some(now);
        self.inner.rates(t)
    }
}

/// One counted scenario of the slot loop.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// WordCount under the Fig. 6 square wave.
    Fig6,
    /// WordCount at its constant high rate.
    Constant,
    /// WordCount under the square wave, with the OGD inner step.
    Ogd,
    /// Yahoo under bursty diurnal load and a binding 30-pod budget.
    YahooBudget,
}

impl Scenario {
    fn workload(self) -> Workload {
        match self {
            Scenario::YahooBudget => yahoo_benchmark().unwrap(),
            _ => word_count().unwrap(),
        }
    }

    fn budget(self) -> Option<usize> {
        matches!(self, Scenario::YahooBudget).then_some(30)
    }

    fn config(self) -> DragsterConfig {
        let base = match self {
            Scenario::Ogd => DragsterConfig::gradient_descent(),
            _ => DragsterConfig::saddle_point(),
        };
        DragsterConfig {
            budget_pods: self.budget(),
            ..base
        }
    }

    fn arrivals(self, w: &Workload) -> Box<dyn ArrivalProcess> {
        match self {
            Scenario::Fig6 | Scenario::Ogd => Box::new(SquareWave {
                high: w.high_rate.clone(),
                low: w.low_rate.clone(),
                half_period_slots: 20,
            }),
            Scenario::Constant => Box::new(ConstantArrival(w.high_rate.clone())),
            Scenario::YahooBudget => Box::new(DiurnalBursty::new(w.high_rate.clone(), 11)),
        }
    }

    /// Run `LOOP_SLOTS` slots at seed 11, through `run_experiment` or,
    /// with `durable`, through `run_experiment_recoverable` with a
    /// checkpoint every slot. Returns the per-decide counts with their
    /// refit flags, and the whole-slot counts.
    fn run(self, durable: bool) -> (Vec<(usize, bool)>, Vec<usize>) {
        let w = self.workload();
        let cfg = self.config();
        let cluster = ClusterConfig {
            budget_pods: self.budget(),
            ..ClusterConfig::default()
        };
        let mut sim = FluidSim::new(
            w.app.clone(),
            cluster,
            SimConfig::default(),
            NoiseConfig::default(),
            11,
            Deployment::uniform(w.n_operators(), 1),
        )
        .unwrap();
        let mut scaler = CountedDecide::new(Dragster::new(w.app.topology.clone(), cfg), cfg);
        let mut arrivals = CountedSlots {
            inner: self.arrivals(&w),
            mark: None,
            slots: Vec::with_capacity(LOOP_SLOTS),
        };
        if durable {
            run_experiment_recoverable(
                &mut sim,
                &mut scaler,
                &mut arrivals,
                LOOP_SLOTS,
                ExperimentOptions::default(),
                RecoveryOptions::default(),
            )
            .unwrap();
        } else {
            run_experiment(&mut sim, &mut scaler, &mut arrivals, LOOP_SLOTS).unwrap();
        }
        (scaler.decides, arrivals.slots)
    }
}

/// Median count over the `WINDOW` slots from `start`, skipping refit slots.
fn window_median(counts: &[usize], refit: &[bool], start: usize) -> usize {
    let mut steady: Vec<usize> = counts[start..start + WINDOW]
        .iter()
        .zip(&refit[start..start + WINDOW])
        .filter(|(_, &r)| !r)
        .map(|(&n, _)| n)
        .collect();
    steady.sort_unstable();
    steady[steady.len() / 2]
}

/// Exact allocation counts of a steady slot under one scenario: the
/// median over a window, skipping refit slots.
struct Budget {
    /// One `Dragster::decide`: the decision it returns.
    decide: usize,
    /// One whole slot of `run_experiment`: the decide, the arrival rates,
    /// the engine's slot snapshot, the sanitizer and the trace.
    slot: usize,
    /// One whole slot of `run_experiment_recoverable` with a checkpoint
    /// every slot: the above, plus the journal record and its sealed line,
    /// the learner-state export and the checkpoint around it; the store
    /// writes into the buffers it keeps.
    durable_slot: usize,
}

/// Counts one scenario through both loops and holds every steady window
/// to `budget`. Near slot 100 and near slot 1,000 the medians must be
/// equal, so no count grows with the horizon, and they must equal the
/// committed budget, so one more allocation per slot fails.
///
/// Refit slots are skipped by the `hyper_refit_every` schedule: the
/// hyper-parameter search builds a scratch model per refit, whose count
/// depends on the refit window rather than on this gate's budget (DESIGN
/// §11). The median also ignores the learner's own geometric growth (one
/// reallocation per GP buffer, or per checkpoint buffer, each time its
/// history doubles). On the recoverable loop each checkpoint exports every
/// GP sample, but as one packed string per GP, so a whole slot does not
/// grow with the history either: a failure there means a per-sample
/// allocation came back into `export_state` or the checkpoint store.
fn check_loop(scenario: Scenario, budget: Budget) {
    // The two loops run on their own threads, whose counters are their
    // own, so a scenario costs the longer run rather than the sum.
    let runs = std::thread::scope(|scope| {
        let plain = scope.spawn(|| scenario.run(false));
        let durable = scope.spawn(|| scenario.run(true));
        [(false, plain.join()), (true, durable.join())]
    });
    for (durable, run) in runs {
        let (decides, slots) = run.expect("the counted run completes");
        let counts: Vec<usize> = decides.iter().map(|&(n, _)| n).collect();
        let refit: Vec<bool> = decides.iter().map(|&(_, r)| r).collect();
        let loop_name = if durable {
            "run_experiment_recoverable"
        } else {
            "run_experiment"
        };
        let slot_budget = if durable {
            budget.durable_slot
        } else {
            budget.slot
        };
        let gated = [
            ("decide", counts, budget.decide),
            ("whole slot", slots, slot_budget),
        ];
        for (what, counts, budget) in gated {
            let early = window_median(&counts, &refit, EARLY);
            let late = window_median(&counts, &refit, LATE);
            assert_eq!(
                early, late,
                "{scenario:?} on {loop_name}: a steady {what} grew with the horizon \
                 ({early} allocations near slot {EARLY}, {late} near slot {LATE})"
            );
            assert_eq!(
                late, budget,
                "{scenario:?} on {loop_name}: a steady {what} made {late} allocations, \
                 budget {budget}"
            );
        }
    }
}

#[test]
fn fig6_wordcount_loop_allocation_budget() {
    check_loop(
        Scenario::Fig6,
        Budget {
            decide: 1,
            slot: 29,
            durable_slot: 96,
        },
    );
}

#[test]
fn constant_rate_wordcount_loop_allocation_budget() {
    check_loop(
        Scenario::Constant,
        Budget {
            decide: 1,
            slot: 29,
            durable_slot: 96,
        },
    );
}

#[test]
fn ogd_wordcount_loop_allocation_budget() {
    check_loop(
        Scenario::Ogd,
        Budget {
            decide: 1,
            slot: 29,
            durable_slot: 103,
        },
    );
}

#[test]
fn yahoo_budget_loop_allocation_budget() {
    check_loop(
        Scenario::YahooBudget,
        Budget {
            decide: 1,
            slot: 57,
            durable_slot: 184,
        },
    );
}
