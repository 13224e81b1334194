//! The assembled Dragster controller (Algorithm 2).
//!
//! Per decision slot:
//!
//! 1. **Observe** (line 3): source rates, per-operator offered loads and
//!    the Eq.-8 capacity samples from [`SlotMetrics`].
//! 2. **Dual + primal** (line 4): update the multipliers λ (Eq. 15) with
//!    the observed constraint values, then compute the target capacity
//!    vector `y_t` — either the saddle-point full maximization (Eq. 14) or
//!    one OGD step (Eq. 16).
//! 3. **GP update** (line 5): feed each operator's capacity sample to its
//!    GP (Eq. 17 posterior refresh).
//! 4. **Select + deploy** (line 6): per-operator extended-UCB acquisition
//!    tables, exact budget projection `Π_X`, return the next deployment.

use crate::ogd::OgdState;
use crate::oracle::{greedy_optimal_in, OracleScratch};
use crate::projection::{project_acquisition_with, ProjectionScratch};
use crate::saddle::{Lagrangian, SaddleState, TargetSolver};
use crate::ucb::{AcquisitionKind, OperatorGp, UcbConfig};
use crate::DragsterError;
use dragster_dag::learned::{EstimatorSnapshot, HObservation, SelectivityEstimator};
use dragster_dag::{analysis, DagError, FlowScratch, Topology};
use dragster_gp::SquaredExp;
use dragster_sim::json::{self, Json};
use dragster_sim::{
    Application, Autoscaler, CapacityModel, Deployment, OperatorMetrics, SimError, SlotMetrics,
};

/// Version tag of the exported learner-state layout (bump on change).
/// Version 2 carries each GP's scale and kernel beside its samples, so a
/// restore rebuilds the posterior instead of re-learning it; version 3
/// packs every float vector into one string ([`json::bits_arr`]), so a
/// GP's capacity history is one string, not one node per sample.
const STATE_VERSION: usize = 3;

/// Which level-1 algorithm computes the capacity targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerAlgo {
    /// Eq. 14: full maximization of the last slot's Lagrangian.
    SaddlePoint,
    /// Eq. 16: a single projected gradient step per slot.
    GradientDescent,
}

/// All Dragster hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct DragsterConfig {
    pub inner: InnerAlgo,
    pub ucb: UcbConfig,
    /// Dual step scale γ₀ (Theorem 1 uses γ_t = 1/√t ⇒ γ₀ = 1).
    pub gamma0: f64,
    /// OGD step size as a fraction of the capacity box.
    pub eta: f64,
    /// Multiplier on the capacity target handed to the UCB level —
    /// a little headroom absorbs cloud noise (e.g. 1.05).
    pub target_headroom: f64,
    /// Pod budget `B` of Eq. 9d, if any.
    pub budget_pods: Option<usize>,
    /// Inner-solver iterations (saddle point).
    pub solver_iters: usize,
    /// Theorem-2 mode: ignore the provided throughput-function parameters
    /// and learn the per-operator selectivities online from unsaturated
    /// observations ([`SelectivityEstimator`]). The DAG *structure* is
    /// still taken from the provided topology.
    pub learn_h: bool,
    /// Restrict each slot's reconfiguration to the `k` most-bottlenecked
    /// operators (largest |target − estimated capacity| gap) — the paper's
    /// sequential "identify the bottleneck operator and adjust its
    /// configuration" narrative (Section 3, Figure 1). `None` adjusts all
    /// operators jointly (Eq. 18's joint argmax); the `ablations` bench
    /// compares the two.
    pub max_adjust_per_slot: Option<usize>,
}

impl Default for DragsterConfig {
    fn default() -> Self {
        DragsterConfig {
            inner: InnerAlgo::SaddlePoint,
            ucb: UcbConfig::default(),
            gamma0: 1.0,
            eta: 0.15,
            target_headroom: 1.08,
            budget_pods: None,
            solver_iters: 300,
            learn_h: false,
            max_adjust_per_slot: None,
        }
    }
}

impl DragsterConfig {
    /// Saddle-point variant with defaults.
    pub fn saddle_point() -> DragsterConfig {
        DragsterConfig::default()
    }

    /// Online-gradient-descent variant with defaults.
    pub fn gradient_descent() -> DragsterConfig {
        DragsterConfig {
            inner: InnerAlgo::GradientDescent,
            ..Default::default()
        }
    }
}

/// The Dragster autoscaler. Construct with the application topology (the
/// paper provides the exact throughput function to the controller —
/// Section 6.1 "We provide the exact throughput function and capacity
/// splitting weight") and plug into
/// [`run_experiment`](dragster_sim::run_experiment).
pub struct Dragster {
    topo: Topology,
    /// Theorem-2 online estimator (Some iff `cfg.learn_h`).
    estimator: Option<SelectivityEstimator>,
    cfg: DragsterConfig,
    solver: TargetSolver,
    gps: Vec<OperatorGp>,
    saddle: SaddleState,
    ogd: Option<OgdState>,
    /// Last computed capacity targets (diagnostics).
    last_targets: Vec<f64>,
    /// Last usable constraint values `l_i` — held when an operator's
    /// reading is degraded (chaos-layer dropout/staleness) so one bad
    /// scrape cannot inject a bogus dual step.
    last_l: Vec<f64>,
    /// RNG for the Thompson acquisition (fixed seed: decisions are
    /// deterministic given the same observation stream).
    rng: dragster_sim::Rng,
    t: usize,
    /// Working memory of [`Autoscaler::decide`]: derived state rebuilt
    /// every slot, deliberately absent from checkpoints (L18 coverage
    /// applies to learner state, not working memory).
    scratch: DecideScratch,
}

/// Buffers [`Dragster::decide`] refills in place every slot, so that once
/// they have grown a steady decide allocates only the decision it returns
/// and what its GPs learn (`tests/alloc_budget.rs` counts it).
#[derive(Default)]
struct DecideScratch {
    /// Constraint values `l_i` for the dual step.
    l_values: Vec<f64>,
    /// Offered loads in capacity-index order.
    loads: Vec<f64>,
    /// The inner solver's iterate: warm start in, capacity targets out.
    targets: Vec<f64>,
    /// Gradient buffer of the ascent or of the OGD step.
    work: Vec<f64>,
    /// Flow layout of the working topology, built on the first decide
    /// and bound to each slot's working topology by the bound `H`, the
    /// solve and the budget cap.
    flow: Option<FlowScratch>,
    /// The budget cap's capacity beliefs, one monotone table per operator.
    models: Vec<CapacityModel>,
    /// The budget cap's greedy oracle.
    oracle: OracleScratch,
    /// Per-operator acquisition tables; inner buffers are refilled in
    /// place each slot via `OperatorGp::acquisition_table_into`, so the
    /// extended-UCB path reuses both the outer and inner allocations.
    tables: Vec<Vec<f64>>,
    /// The budget projection's DP tables.
    projection: ProjectionScratch,
    /// (operator, gap) ranking for sequential-bottleneck mode.
    gaps: Vec<(usize, f64)>,
    /// Dense adjustable-operator mask for sequential-bottleneck mode.
    adjustable: Vec<bool>,
}

impl Dragster {
    pub fn new(topo: Topology, cfg: DragsterConfig) -> Dragster {
        let m = topo.n_operators();
        let gps = (0..m).map(|_| OperatorGp::new(cfg.ucb)).collect();
        let estimator = if cfg.learn_h {
            Some(SelectivityEstimator::new(topo.clone(), 1.0))
        } else {
            None
        };
        Dragster {
            solver: TargetSolver {
                iters: cfg.solver_iters,
                ..Default::default()
            },
            saddle: SaddleState::new(m, cfg.gamma0),
            ogd: None,
            gps,
            last_targets: vec![0.0; m],
            last_l: vec![0.0; m],
            rng: dragster_sim::Rng::new(0x5EED),
            estimator,
            topo,
            cfg,
            t: 0,
            scratch: DecideScratch::default(),
        }
    }

    /// The throughput-function view the controller currently works with:
    /// the provided topology (Theorem 1) or the learned one (Theorem 2).
    ///
    /// # Errors
    /// [`DragsterError::Dag`] if the learned weights cannot be applied to
    /// the DAG structure.
    pub fn working_topology(&self) -> Result<Topology, DragsterError> {
        match &self.estimator {
            Some(est) => Ok(est.materialize()?),
            None => Ok(self.topo.clone()),
        }
    }

    /// Borrow the Theorem-2 estimator (None in exact-h mode).
    pub fn estimator(&self) -> Option<&SelectivityEstimator> {
        self.estimator.as_ref()
    }

    /// The most recent capacity targets `y_t` (diagnostics/reporting).
    pub fn last_targets(&self) -> &[f64] {
        &self.last_targets
    }

    /// Current dual variables λ.
    pub fn lambda(&self) -> &[f64] {
        &self.saddle.lambda
    }

    /// Borrow the per-operator GPs (e.g. to inspect posterior capacity
    /// estimates in reports).
    pub fn operator_gps(&self) -> &[OperatorGp] {
        &self.gps
    }

    /// Operators ranked by current throughput-gradient (the paper's
    /// bottleneck view): computed at the *estimated* achieved capacities.
    ///
    /// # Errors
    /// [`DragsterError::Dag`] if gradient evaluation rejects the inputs.
    pub fn bottleneck_ranking(
        &self,
        source_rates: &[f64],
        current: &Deployment,
    ) -> Result<Vec<(usize, f64)>, DragsterError> {
        let caps: Vec<f64> = self
            .gps
            .iter()
            .enumerate()
            .map(|(i, gp)| {
                let tasks_i = current.tasks.get(i).copied().unwrap_or(1);
                gp.capacity_estimate(tasks_i).max(1e-6)
            })
            .collect();
        Ok(analysis::rank_bottlenecks(&self.topo, source_rates, &caps)?)
    }

    /// The joint configuration-space size `|X| = K^M`, saturating.
    fn joint_space(&self) -> usize {
        let k = self.cfg.ucb.max_tasks;
        let m = crate::num::exponent_u32(self.topo.n_operators());
        k.checked_pow(m).unwrap_or(usize::MAX / 2)
    }

    /// The controller's current *belief* about each operator's capacity,
    /// refilled into `models` in place: per-operator capacity tables from
    /// the GP posterior means (monotone-ized — capacity models are
    /// non-decreasing by assumption). Operators with no data yet fall back
    /// to a unit-linear placeholder, which yields balanced allocations
    /// until samples arrive. Each table is validated as
    /// [`Application::new`] would.
    fn refill_capacity_beliefs(
        &self,
        working: &Topology,
        models: &mut Vec<CapacityModel>,
    ) -> Result<(), SimError> {
        let k = self.cfg.ucb.max_tasks;
        models.resize_with(self.gps.len(), || CapacityModel::Linear { per_task: 1.0 });
        for (gp, model) in self.gps.iter().zip(models.iter_mut()) {
            let placeholder = CapacityModel::Linear { per_task: 1.0 };
            if gp.is_empty() {
                *model = placeholder;
                continue;
            }
            let mut levels = match std::mem::replace(model, placeholder) {
                CapacityModel::Table { levels } => levels,
                _ => Vec::with_capacity(k),
            };
            levels.clear();
            let mut run_max = 1e-6_f64;
            levels.extend((1..=k).map(|x| {
                run_max = run_max.max(gp.capacity_estimate(x));
                run_max
            }));
            *model = CapacityModel::Table { levels };
        }
        Application::check_models(working, models)
    }

    /// Restrict targets to the capacity region achievable within the pod
    /// budget: Eq. 14's domain 𝒴 is the image of the feasible
    /// configuration set (Eq. 9d), which the controller evaluates through
    /// its GP capacity beliefs. Without this, overload targets are
    /// unreachable and the tracking acquisition cannot trade capacity
    /// between operators (the DAG-balancing behaviour of Fig. 4d–f).
    fn cap_targets_to_budget(
        &self,
        s: &mut DecideScratch,
        flow: &mut FlowScratch,
        working: &Topology,
        rates: &[f64],
        budget: usize,
    ) -> Result<(), SimError> {
        self.refill_capacity_beliefs(working, &mut s.models)?;
        greedy_optimal_in(
            &mut flow.bind(working)?,
            &s.models,
            rates,
            self.cfg.ucb.max_tasks,
            Some(budget),
            &mut s.oracle,
        )?;
        for ((t, model), &n) in s.targets.iter_mut().zip(&s.models).zip(&s.oracle.tasks) {
            *t = t.min(model.capacity(n));
        }
        Ok(())
    }

    /// [`Autoscaler::decide`] on lent scratch.
    fn decide_with(
        &mut self,
        s: &mut DecideScratch,
        _t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError> {
        let m = self.topo.n_operators();
        // Every per-operator vector below is sized M; a snapshot of another
        // application is rejected before it touches any learner state.
        if metrics.operators.len() != m {
            return Err(SimError::Dag(DagError::ArityMismatch {
                what: "operator metrics",
                expected: m,
                got: metrics.operators.len(),
            }));
        }
        self.t += 1;

        // ---- line 3: observe; line 5: GP posterior update (Eq. 17). ----
        s.l_values.clear();
        s.l_values.resize(m, 0.0);
        for (i, om) in metrics.operators.iter().enumerate() {
            // A degraded reading (dropped/stale/imputed scrape) or a
            // non-finite field must never reach the GP posterior or the
            // selectivity estimator — one poisoned sample corrupts every
            // subsequent decision.
            let clean = !om.degraded
                && om.capacity_sample.is_finite()
                && om.cpu_util.is_finite()
                && om.offered_load.is_finite()
                && om.output_rate.is_finite();
            let tasks_i = current.tasks.get(i).copied().unwrap_or(1);
            if clean && om.output_rate > 1e-9 {
                if let Some(gp) = self.gps.get_mut(i) {
                    gp.observe(tasks_i, om.capacity_sample)?;
                }
            }
            // Constraint value l_i = offered − capacity (Eq. 11), using the
            // observed capacity sample as the capacity estimate. Degraded
            // slots hold the last usable value instead of a bogus dual step.
            let l = om.offered_load - om.capacity_sample;
            let lv = if clean && l.is_finite() {
                l
            } else {
                self.last_l.get(i).copied().unwrap_or(0.0)
            };
            if let Some(slot) = s.l_values.get_mut(i) {
                *slot = lv;
            }
            // Theorem-2 mode: refine the h estimates with clean
            // observations — skip slots where the operator was saturated
            // (output reflects y_i, not h, per Eq. 4) or draining backlog
            // (output exceeds h(input) while the buffer empties).
            if let Some(est) = self.estimator.as_mut() {
                let draining = om.buffer_tuples > om.input_rate * 10.0;
                if clean
                    && !om.backpressure
                    && om.cpu_util < 0.95
                    && om.output_rate > 1e-9
                    && !draining
                {
                    est.ingest(&HObservation {
                        operator: i,
                        inputs: &om.input_rates,
                        output: om.output_rate,
                    });
                }
            }
        }
        self.last_l.clone_from(&s.l_values);
        // Borrow the exact topology (Theorem-1 mode) instead of cloning it
        // every slot; only Theorem-2 mode materializes a fresh view.
        let materialized;
        let working: &Topology = match &self.estimator {
            Some(est) => {
                materialized = est.materialize().map_err(DragsterError::from)?;
                &materialized
            }
            None => &self.topo,
        };

        // ---- line 4: dual update (Eq. 15) + target capacities. ----
        self.saddle.dual_update(&s.l_values);
        // The flow layout is built once, on the first decide, and every
        // later slot binds it to that slot's working topology.
        let mut flow = match s.flow.take() {
            Some(flow) => flow,
            None => FlowScratch::new(working)?,
        };
        let mut ogd = self.ogd.take();
        let targets = self.targets(s, &mut flow, &mut ogd, working, metrics);
        s.flow = Some(flow);
        self.ogd = ogd;
        targets?;
        self.last_targets.clone_from(&s.targets);

        // ---- line 6: extended GP-UCB selection (Eq. 18) + projection. ----
        let beta = self.cfg.ucb.beta(self.joint_space(), self.t);
        let rng = &mut self.rng;
        let tables = &mut s.tables;
        tables.resize_with(m, Vec::new);
        for ((gp, raw_target), table) in self.gps.iter().zip(&s.targets).zip(tables.iter_mut()) {
            let target = raw_target * self.cfg.target_headroom;
            match self.cfg.ucb.acquisition {
                AcquisitionKind::ExtendedUcb => gp.acquisition_table_into(target, beta, table),
                AcquisitionKind::Thompson => {
                    *table = gp.thompson_table(target, || rng.gaussian())?
                }
            }
        }
        let budget = self
            .cfg
            .budget_pods
            .unwrap_or(m * self.cfg.ucb.max_tasks)
            .max(m);
        let mut tasks = project_acquisition_with(tables, budget, &mut s.projection);
        // Sequential-bottleneck mode: freeze all but the k operators whose
        // capacity targets are furthest from their current estimates.
        if let Some(k) = self.cfg.max_adjust_per_slot {
            let gaps = &mut s.gaps;
            gaps.clear();
            gaps.extend((0..m).map(|i| {
                let (cur, scale) = match self.gps.get(i) {
                    Some(gp) => {
                        let tasks_i = current.tasks.get(i).copied().unwrap_or(1);
                        (gp.capacity_estimate(tasks_i), gp.scale().max(1e-9))
                    }
                    None => (0.0, 1.0),
                };
                let target = s.targets.get(i).copied().unwrap_or(cur);
                (i, (target - cur).abs() / scale)
            }));
            gaps.sort_by(|a, b| b.1.total_cmp(&a.1));
            // boolean mask instead of a hash set: indices are dense in
            // 0..m, and iteration order stays deterministic
            let adjustable = &mut s.adjustable;
            adjustable.clear();
            adjustable.resize(m, false);
            for &(i, _) in gaps.iter().take(k) {
                if let Some(a) = adjustable.get_mut(i) {
                    *a = true;
                }
            }
            for (i, t) in tasks.iter_mut().enumerate() {
                if !adjustable.get(i).copied().unwrap_or(false) {
                    *t = current.tasks.get(i).copied().unwrap_or(*t);
                }
            }
            // freezing can re-violate the budget; project the frozen plan
            let d = Deployment { tasks };
            return Ok(
                dragster_sim::harness::project_to_budget(d, self.cfg.budget_pods).into_deployment(),
            );
        }
        Ok(Deployment { tasks })
    }

    /// The capacity targets of Eq. 14 (or Eq. 16's OGD step on `ogd`) in
    /// `s.targets`, capped to the pod budget. `flow` is bound to `working`
    /// once each for the bound `H`, the inner solve and the budget cap.
    fn targets(
        &self,
        s: &mut DecideScratch,
        flow: &mut FlowScratch,
        ogd: &mut Option<OgdState>,
        working: &Topology,
        metrics: &SlotMetrics,
    ) -> Result<(), SimError> {
        let rates = &metrics.source_rates;
        let h_bound = flow.bind(working)?.upper_bound(rates)?;
        let y_max = (1.5 * h_bound).max(1e-6);
        // Warm-start vectors come straight from observations; scrub any
        // non-finite entries (unsanitized fault injection) so the solvers
        // never iterate from NaN.
        let finite_sample = |om: &OperatorMetrics| {
            let c = om.capacity_sample;
            if c.is_finite() && c >= 0.0 {
                c
            } else {
                0.0
            }
        };
        s.loads.clear();
        s.loads
            .extend(metrics.operators.iter().map(|o| o.offered_load));
        let lag = Lagrangian {
            source_rates: rates,
            offered_obs: &s.loads,
            lambda: &self.saddle.lambda,
        };
        let mut bound = flow.bind(working)?;
        match self.cfg.inner {
            InnerAlgo::SaddlePoint => {
                s.targets.clear();
                if self.last_targets.iter().all(|&y| y == 0.0) {
                    s.targets
                        .extend(metrics.operators.iter().map(finite_sample));
                } else {
                    s.targets.extend_from_slice(&self.last_targets);
                }
                self.solver
                    .solve_in(&mut bound, lag, &mut s.targets, y_max, &mut s.work)?;
            }
            InnerAlgo::GradientDescent => {
                let eta = self.cfg.eta;
                let ogd = ogd.get_or_insert_with(|| {
                    // One-time cold start: the OGD iterate is owned learner
                    // state, so this collect happens once per run.
                    OgdState::new(metrics.operators.iter().map(finite_sample).collect(), eta)
                });
                ogd.step_in(&self.solver, &mut bound, lag, y_max, &mut s.work)?;
                s.targets.clone_from(&ogd.y);
            }
        }
        if let Some(b) = self.cfg.budget_pods {
            let m = self.topo.n_operators();
            self.cap_targets_to_budget(s, flow, working, rates, b.max(m))?;
        }
        Ok(())
    }
}

impl Autoscaler for Dragster {
    fn name(&self) -> String {
        match self.cfg.inner {
            InnerAlgo::SaddlePoint => "Dragster saddle point".into(),
            InnerAlgo::GradientDescent => "Dragster online gradient".into(),
        }
    }

    fn decide(
        &mut self,
        t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError> {
        // The scratch is lent out for the slot and returned even when the
        // slot fails, so its buffers and flow layout outlive errors too.
        let mut s = std::mem::take(&mut self.scratch);
        let decided = self.decide_with(&mut s, t, metrics, current);
        self.scratch = s;
        decided
    }

    /// Checkpoint every piece of learner state: per GP its normalization
    /// scale, SE kernel and observation history (as parallel `tasks` and
    /// `capacity` columns), dual variables, OGD iterate, Theorem-2
    /// estimator, the Thompson RNG position, and the diagnostics the next
    /// decision reads (`last_targets`, `last_l`). Floats travel as
    /// bit-exact hex so a restored controller is *bit-identical*, not
    /// approximately equal; a float vector is one packed string. Nothing
    /// here is allocated per GP sample but the `tasks` array's one node.
    fn export_state(&self) -> Option<Json> {
        let (s, spare) = self.rng.save_state();
        let rng = Json::Obj(vec![
            (
                "s".to_string(),
                Json::Arr(s.iter().map(|&w| Json::Str(json::u64_to_hex(w))).collect()),
            ),
            ("spare".to_string(), spare.map_or(Json::Null, json::bits)),
        ]);
        let saddle = Json::Obj(vec![
            ("lambda".to_string(), json::bits_arr(&self.saddle.lambda)),
            ("gamma0".to_string(), json::bits(self.saddle.gamma0)),
            ("t".to_string(), json::num(self.saddle.t())),
        ]);
        let ogd = match &self.ogd {
            Some(o) => Json::Obj(vec![
                ("y".to_string(), json::bits_arr(&o.y)),
                ("eta".to_string(), json::bits(o.eta)),
                ("pull_rate".to_string(), json::bits(o.pull_rate)),
            ]),
            None => Json::Null,
        };
        let gps = Json::Arr(
            self.gps
                .iter()
                .map(|gp| {
                    let kernel = gp.kernel();
                    let history = gp.history();
                    Json::Obj(vec![
                        ("scale".to_string(), json::bits(gp.scale())),
                        ("length_scale".to_string(), json::bits(kernel.length_scale)),
                        ("signal_var".to_string(), json::bits(kernel.signal_var)),
                        (
                            "tasks".to_string(),
                            Json::Arr(history.iter().map(|&(t, _)| json::num(t)).collect()),
                        ),
                        (
                            "capacity".to_string(),
                            json::bits_arr(history.iter().map(|(_, c)| c)),
                        ),
                    ])
                })
                .collect(),
        );
        let estimator = match &self.estimator {
            Some(est) => {
                let snap = est.snapshot();
                Json::Obj(vec![
                    (
                        "weights".to_string(),
                        Json::Arr(snap.weights.iter().map(json::bits_arr).collect()),
                    ),
                    (
                        "p_mats".to_string(),
                        Json::Arr(snap.p_mats.iter().map(json::bits_arr).collect()),
                    ),
                    (
                        "n_obs".to_string(),
                        Json::Arr(snap.n_obs.iter().map(|&n| json::num(n)).collect()),
                    ),
                ])
            }
            None => Json::Null,
        };
        Some(Json::Obj(vec![
            ("state_version".to_string(), json::num(STATE_VERSION)),
            ("t".to_string(), json::num(self.t)),
            (
                "last_targets".to_string(),
                json::bits_arr(&self.last_targets),
            ),
            ("last_l".to_string(), json::bits_arr(&self.last_l)),
            ("saddle".to_string(), saddle),
            ("ogd".to_string(), ogd),
            ("rng".to_string(), rng),
            ("gps".to_string(), gps),
            ("estimator".to_string(), estimator),
        ]))
    }

    /// Rebuild the full learner state from [`Dragster::export_state`]'s
    /// layout; each GP is rebuilt from its checkpointed scale, kernel and
    /// history by [`OperatorGp::restore`], with no refit. Everything is
    /// validated and staged in locals before any field of `self` is
    /// touched, so a failed import leaves the controller unchanged (the
    /// recovery harness then degrades).
    fn import_state(&mut self, state: &Json) -> Result<(), SimError> {
        let scheme = self.name();
        let fail = |reason: String| SimError::Policy {
            scheme: scheme.clone(),
            reason,
        };
        let field = |k: &str| fail(format!("checkpoint state: missing/invalid `{k}`"));
        if state.get("state_version").and_then(Json::as_usize) != Some(STATE_VERSION) {
            return Err(fail("checkpoint state: unsupported version".to_string()));
        }
        let m = self.topo.n_operators();
        let t = state
            .get("t")
            .and_then(Json::as_usize)
            .ok_or_else(|| field("t"))?;
        let last_targets = state
            .get("last_targets")
            .and_then(json::bits_vec)
            .ok_or_else(|| field("last_targets"))?;
        let last_l = state
            .get("last_l")
            .and_then(json::bits_vec)
            .ok_or_else(|| field("last_l"))?;
        let saddle_j = state.get("saddle").ok_or_else(|| field("saddle"))?;
        let lambda = saddle_j
            .get("lambda")
            .and_then(json::bits_vec)
            .ok_or_else(|| field("saddle.lambda"))?;
        let gamma0 = saddle_j
            .get("gamma0")
            .and_then(Json::as_f64_bits)
            .ok_or_else(|| field("saddle.gamma0"))?;
        let saddle_t = saddle_j
            .get("t")
            .and_then(Json::as_usize)
            .ok_or_else(|| field("saddle.t"))?;
        if last_targets.len() != m || last_l.len() != m || lambda.len() != m {
            return Err(fail(format!(
                "checkpoint state: vector arity mismatch (topology has {m} operators)"
            )));
        }
        let ogd = match state.get("ogd") {
            None | Some(Json::Null) => None,
            Some(o) => Some(OgdState {
                y: o.get("y")
                    .and_then(json::bits_vec)
                    .ok_or_else(|| field("ogd.y"))?,
                eta: o
                    .get("eta")
                    .and_then(Json::as_f64_bits)
                    .ok_or_else(|| field("ogd.eta"))?,
                pull_rate: o
                    .get("pull_rate")
                    .and_then(Json::as_f64_bits)
                    .ok_or_else(|| field("ogd.pull_rate"))?,
            }),
        };
        let rng_j = state.get("rng").ok_or_else(|| field("rng"))?;
        let words = rng_j
            .get("s")
            .and_then(Json::as_arr)
            .ok_or_else(|| field("rng.s"))?;
        if words.len() != 4 {
            return Err(field("rng.s"));
        }
        let mut s = [0u64; 4];
        for (slot, w) in s.iter_mut().zip(words.iter()) {
            *slot = w
                .as_str()
                .and_then(json::u64_from_hex)
                .ok_or_else(|| field("rng.s"))?;
        }
        let spare = match rng_j.get("spare") {
            None | Some(Json::Null) => None,
            Some(v) => Some(Json::as_f64_bits(v).ok_or_else(|| field("rng.spare"))?),
        };
        let gps_j = state
            .get("gps")
            .and_then(Json::as_arr)
            .ok_or_else(|| field("gps"))?;
        if gps_j.len() != m {
            return Err(fail(format!(
                "checkpoint state: {} GP histories for {m} operators",
                gps_j.len()
            )));
        }
        let mut gps = Vec::with_capacity(m);
        for entry in gps_j {
            let hex = |k: &str| entry.get(k).and_then(Json::as_f64_bits);
            let scale = hex("scale").ok_or_else(|| field("gps[].scale"))?;
            let kernel = SquaredExp {
                length_scale: hex("length_scale").ok_or_else(|| field("gps[].length_scale"))?,
                signal_var: hex("signal_var").ok_or_else(|| field("gps[].signal_var"))?,
            };
            let tasks = entry
                .get("tasks")
                .and_then(json::usize_vec)
                .ok_or_else(|| field("gps[].tasks"))?;
            let capacity = entry
                .get("capacity")
                .and_then(json::bits_vec)
                .ok_or_else(|| field("gps[].capacity"))?;
            // The history travels as two parallel columns.
            if tasks.len() != capacity.len() {
                return Err(fail(
                    "checkpoint state: GP tasks and capacity differ in length".to_string(),
                ));
            }
            let history = tasks.into_iter().zip(capacity).collect();
            let gp = OperatorGp::restore(self.cfg.ucb, scale, kernel, history)
                .map_err(|e| fail(format!("GP restore failed: {e}")))?;
            gps.push(gp);
        }
        let estimator = match (self.cfg.learn_h, state.get("estimator")) {
            (false, None | Some(Json::Null)) => None,
            (true, Some(e @ Json::Obj(_))) => {
                let bits_mat = |k: &str| -> Result<Vec<Vec<f64>>, SimError> {
                    let label = format!("estimator.{k}");
                    e.get(k)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| field(&label))?
                        .iter()
                        .map(|row| json::bits_vec(row).ok_or_else(|| field(&label)))
                        .collect()
                };
                let snap = EstimatorSnapshot {
                    weights: bits_mat("weights")?,
                    p_mats: bits_mat("p_mats")?,
                    n_obs: e
                        .get("n_obs")
                        .and_then(json::usize_vec)
                        .ok_or_else(|| field("estimator.n_obs"))?,
                };
                let mut est = SelectivityEstimator::new(self.topo.clone(), 1.0);
                est.restore(snap)
                    .map_err(|err| fail(format!("estimator restore failed: {err}")))?;
                Some(est)
            }
            _ => {
                return Err(fail(
                    "checkpoint state: estimator presence disagrees with learn_h mode".to_string(),
                ))
            }
        };
        // Everything validated — commit atomically.
        self.t = t;
        self.last_targets = last_targets;
        self.last_l = last_l;
        self.saddle = SaddleState::restore(lambda, gamma0, saddle_t);
        self.ogd = ogd;
        self.rng = dragster_sim::Rng::restore_state(s, spare);
        self.gps = gps;
        self.estimator = estimator;
        Ok(())
    }

    /// Cold start: identical to a freshly constructed controller with the
    /// same topology and configuration (the degraded-fallback path).
    fn reset_state(&mut self) {
        *self = Dragster::new(self.topo.clone(), self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragster_sim::{
        run_experiment, Application, CapacityModel, ClusterConfig, ConstantArrival, FluidSim,
        NoiseConfig,
    };

    fn wordcount_app() -> Application {
        let topo = dragster_dag::TopologyBuilder::new()
            .source("src")
            .operator("map")
            .operator("shuffle")
            .sink("out")
            .edge("src", "map")
            .edge("map", "shuffle")
            .edge("shuffle", "out")
            .build()
            .unwrap();
        Application::new(
            topo,
            vec![
                CapacityModel::Contended {
                    per_task: 120.0,
                    contention: 0.04,
                },
                CapacityModel::Contended {
                    per_task: 80.0,
                    contention: 0.04,
                },
            ],
        )
        .unwrap()
    }

    fn make_sim(app: Application, budget: Option<usize>, seed: u64) -> FluidSim {
        FluidSim::new(
            app,
            ClusterConfig {
                budget_pods: budget,
                ..Default::default()
            },
            dragster_sim::fluid::SimConfig::default(),
            NoiseConfig::default(),
            seed,
            Deployment::uniform(2, 1),
        )
        .unwrap()
    }

    #[test]
    fn names_differ_by_variant() {
        let app = wordcount_app();
        let d1 = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let d2 = Dragster::new(app.topology.clone(), DragsterConfig::gradient_descent());
        assert_eq!(d1.name(), "Dragster saddle point");
        assert_eq!(d2.name(), "Dragster online gradient");
    }

    #[test]
    fn converges_near_optimal_without_budget() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 7);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let mut arr = ConstantArrival(vec![400.0]);
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 25).unwrap();
        let (_, opt) = crate::oracle::greedy_optimal(&app, &[400.0], 10, None).unwrap();
        // the last slots must run within 10 % of optimal
        let tail = trace.ideal_throughput[20..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            tail >= 0.9 * opt,
            "failed to converge: tail ideal {tail} vs opt {opt}"
        );
    }

    #[test]
    fn converges_under_budget_and_respects_it() {
        let app = wordcount_app();
        let budget = 8;
        let mut sim = make_sim(app.clone(), Some(budget), 3);
        let cfg = DragsterConfig {
            budget_pods: Some(budget),
            ..DragsterConfig::saddle_point()
        };
        let mut scaler = Dragster::new(app.topology.clone(), cfg);
        let mut arr = ConstantArrival(vec![2000.0]);
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 25).unwrap();
        for d in &trace.deployments {
            assert!(d.total_pods() <= budget, "budget violated: {d}");
        }
        let (_, opt) = crate::oracle::greedy_optimal(&app, &[2000.0], 10, Some(budget)).unwrap();
        let tail = trace.ideal_throughput[20..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(tail >= 0.88 * opt, "tail {tail} vs budgeted opt {opt}");
    }

    #[test]
    fn scales_down_when_load_drops() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 11);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let mut arr = |t: usize| vec![if t < 15 { 800.0 } else { 150.0 }];
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 30).unwrap();
        let pods_high = trace.deployments[14].total_pods();
        let pods_low = trace.deployments[29].total_pods();
        assert!(
            pods_low < pods_high,
            "no scale-down: {pods_high} → {pods_low}"
        );
    }

    #[test]
    fn gradient_descent_variant_also_converges() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 5);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::gradient_descent());
        let mut arr = ConstantArrival(vec![400.0]);
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 35).unwrap();
        let (_, opt) = crate::oracle::greedy_optimal(&app, &[400.0], 10, None).unwrap();
        let tail = trace.ideal_throughput[30..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(tail >= 0.9 * opt, "OGD tail {tail} vs opt {opt}");
    }

    #[test]
    fn working_topology_is_identity_in_exact_mode() {
        let app = wordcount_app();
        let d = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let w = d.working_topology().unwrap();
        // same throughput function as the provided topology
        let f1 = dragster_dag::throughput(&app.topology, &[100.0], &[50.0, 50.0]).unwrap();
        let f2 = dragster_dag::throughput(&w, &[100.0], &[50.0, 50.0]).unwrap();
        assert_eq!(f1, f2);
        assert!(d.estimator().is_none());
    }

    #[test]
    fn learn_h_mode_starts_pessimistic_then_learns() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 13);
        let cfg = DragsterConfig {
            learn_h: true,
            ..DragsterConfig::saddle_point()
        };
        let mut scaler = Dragster::new(app.topology.clone(), cfg);
        let mut arr = ConstantArrival(vec![400.0]);
        run_experiment(&mut sim, &mut scaler, &mut arr, 25).unwrap();
        let est = scaler.estimator().expect("learn_h");
        // WordCount is pass-through (selectivity 1): learned ≈ 1
        let err = est.max_relative_error(&app.topology);
        assert!(err < 0.1, "h error {err}, weights {:?}", est.weights());
    }

    #[test]
    fn thompson_variant_still_respects_budget() {
        let app = wordcount_app();
        let budget = 8;
        let mut sim = make_sim(app.clone(), Some(budget), 17);
        let cfg = DragsterConfig {
            budget_pods: Some(budget),
            ucb: crate::ucb::UcbConfig {
                acquisition: crate::ucb::AcquisitionKind::Thompson,
                ..Default::default()
            },
            ..DragsterConfig::saddle_point()
        };
        let mut scaler = Dragster::new(app.topology.clone(), cfg);
        let mut arr = ConstantArrival(vec![2000.0]);
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 10).unwrap();
        for d in &trace.deployments {
            assert!(d.total_pods() <= budget);
        }
    }

    #[test]
    fn sequential_bottleneck_changes_at_most_k_operators() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 19);
        let cfg = DragsterConfig {
            max_adjust_per_slot: Some(1),
            ..DragsterConfig::saddle_point()
        };
        let mut scaler = Dragster::new(app.topology.clone(), cfg);
        let mut arr = ConstantArrival(vec![400.0]);
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 12).unwrap();
        for pair in trace.deployments.windows(2) {
            let changed = pair[0]
                .tasks
                .iter()
                .zip(pair[1].tasks.iter())
                .filter(|(a, b)| a != b)
                .count();
            assert!(changed <= 1, "{:?} -> {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn degraded_nan_metrics_do_not_poison_decisions() {
        use dragster_sim::{OperatorMetrics, SlotMetrics};
        let app = wordcount_app();
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let nan_op = |name: &str| OperatorMetrics {
            name: name.into(),
            tasks: 1,
            input_rate: f64::NAN,
            input_rates: vec![f64::NAN],
            output_rate: f64::NAN,
            offered_load: f64::NAN,
            cpu_util: f64::NAN,
            capacity_sample: f64::NAN,
            buffer_tuples: 0.0,
            latency_estimate_secs: 0.0,
            backpressure: false,
            degraded: true,
        };
        let metrics = SlotMetrics {
            t: 0,
            sim_time_secs: 600.0,
            throughput: 0.0,
            processed_tuples: 0.0,
            dropped_tuples: 0.0,
            cost_dollars: 0.05,
            pods: 2,
            source_rates: vec![400.0],
            reconfigured: false,
            pause_secs: 0.0,
            operators: vec![nan_op("map"), nan_op("shuffle")],
        };
        let cur = Deployment::uniform(2, 1);
        let d = scaler.decide(0, &metrics, &cur).unwrap();
        assert!(d.tasks.iter().all(|&t| t >= 1));
        // no NaN sample reached the GPs
        assert!(scaler.operator_gps().iter().all(|gp| gp.is_empty()));
        assert!(scaler.last_targets().iter().all(|y| y.is_finite()));
        assert!(scaler.lambda().iter().all(|l| l.is_finite()));
    }

    #[test]
    fn wrong_operator_count_is_an_error_not_a_panic() {
        use dragster_sim::{OperatorMetrics, SlotMetrics};
        let app = wordcount_app();
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let op = |name: &str| OperatorMetrics {
            name: name.into(),
            tasks: 2,
            input_rate: 400.0,
            input_rates: vec![400.0],
            output_rate: 200.0,
            offered_load: 400.0,
            cpu_util: 1.0,
            capacity_sample: 200.0,
            buffer_tuples: 0.0,
            latency_estimate_secs: 0.0,
            backpressure: true,
            degraded: false,
        };
        let slot = |operators: Vec<OperatorMetrics>| SlotMetrics {
            t: 0,
            sim_time_secs: 600.0,
            throughput: 200.0,
            processed_tuples: 1.2e5,
            dropped_tuples: 0.0,
            cost_dollars: 0.1,
            pods: 4,
            source_rates: vec![400.0],
            reconfigured: false,
            pause_secs: 0.0,
            operators,
        };
        let cur = Deployment::uniform(2, 2);
        // A normal first slot leaves warm-start targets behind.
        scaler
            .decide(0, &slot(vec![op("map"), op("shuffle")]), &cur)
            .unwrap();
        let lambda = scaler.lambda().to_vec();
        for operators in [vec![op("map"), op("shuffle"), op("extra")], vec![op("map")]] {
            let got = operators.len();
            let err = scaler.decide(1, &slot(operators), &cur).unwrap_err();
            assert_eq!(
                err,
                SimError::Dag(DagError::ArityMismatch {
                    what: "operator metrics",
                    expected: 2,
                    got,
                })
            );
        }
        // The rejected slots left the learner state untouched.
        assert_eq!(scaler.lambda(), &lambda[..]);
        scaler
            .decide(1, &slot(vec![op("map"), op("shuffle")]), &cur)
            .unwrap();
    }

    #[test]
    fn converges_despite_metric_dropouts() {
        use dragster_sim::faults::{FaultPlan, FaultRates};
        let app = wordcount_app();
        let plan = FaultPlan {
            scripted: vec![],
            rates: FaultRates {
                metric_dropout_prob: 0.2,
                metric_stale_prob: 0.1,
                ..Default::default()
            },
        };
        let mut sim = make_sim(app.clone(), None, 7).with_faults(plan);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let mut arr = ConstantArrival(vec![400.0]);
        let trace = run_experiment(&mut sim, &mut scaler, &mut arr, 30).unwrap();
        let (_, opt) = crate::oracle::greedy_optimal(&app, &[400.0], 10, None).unwrap();
        let tail = trace.ideal_throughput[25..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            tail >= 0.85 * opt,
            "failed to converge under dropouts: tail {tail} vs opt {opt}"
        );
    }

    /// Export → import into a fresh controller must reproduce the exact
    /// decision stream: decisions depend on GP posteriors, duals, RNG
    /// position, and diagnostics, so this exercises every exported field.
    #[test]
    fn exported_state_restores_bit_identical_decisions() {
        for cfg in [
            DragsterConfig::saddle_point(),
            DragsterConfig::gradient_descent(),
            DragsterConfig {
                learn_h: true,
                ..DragsterConfig::saddle_point()
            },
            DragsterConfig {
                ucb: crate::ucb::UcbConfig {
                    acquisition: crate::ucb::AcquisitionKind::Thompson,
                    ..Default::default()
                },
                ..DragsterConfig::saddle_point()
            },
        ] {
            let app = wordcount_app();
            let mut sim = make_sim(app.clone(), None, 23);
            let mut original = Dragster::new(app.topology.clone(), cfg);
            let mut arr = ConstantArrival(vec![400.0]);
            run_experiment(&mut sim, &mut original, &mut arr, 8).unwrap();
            let state = original.export_state().expect("dragster exports state");

            let mut restored = Dragster::new(app.topology.clone(), cfg);
            restored.import_state(&state).expect("import succeeds");

            // Both controllers now see the same future metric stream. Its
            // first slot is a scrape dropout, so the dual step reads the
            // restored constraint values (`last_l`), not a fresh reading.
            let mut sanitizer = dragster_sim::MetricSanitizer::new(Default::default());
            let cur = sim.deployment().clone();
            for t in 8..10 {
                let mut metrics = sanitizer.sanitize(sim.run_slot(&[400.0]));
                for om in &mut metrics.operators {
                    om.degraded = t == 8;
                }
                let a = original.decide(t, &metrics, &cur).unwrap();
                let b = restored.decide(t, &metrics, &cur).unwrap();
                assert_eq!(a, b, "restored decision diverged at slot {t}");
                assert_eq!(original.last_targets(), restored.last_targets());
                assert_eq!(original.lambda(), restored.lambda());
            }
        }
    }

    #[test]
    fn import_rejects_mismatched_shapes() {
        let app = wordcount_app();
        let d = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let state = d.export_state().unwrap();
        // A 3-operator chain cannot import a 2-operator checkpoint.
        let wide = dragster_dag::TopologyBuilder::new()
            .source("s")
            .operator("a")
            .operator("b")
            .operator("c")
            .sink("k")
            .edge("s", "a")
            .edge("a", "b")
            .edge("b", "c")
            .edge("c", "k")
            .build()
            .unwrap();
        let mut other = Dragster::new(wide, DragsterConfig::saddle_point());
        assert!(other.import_state(&state).is_err());
        // learn_h mismatch is rejected too.
        let mut learner = Dragster::new(
            app.topology.clone(),
            DragsterConfig {
                learn_h: true,
                ..DragsterConfig::saddle_point()
            },
        );
        assert!(learner.import_state(&state).is_err());
    }

    /// Replaces (`Some`) or removes (`None`) object field `key`.
    fn set_field(j: &mut Json, key: &str, value: Option<Json>) {
        let Json::Obj(pairs) = j else {
            panic!("not an object")
        };
        let at = pairs.iter().position(|(k, _)| k == key).expect("field");
        match value {
            Some(v) => pairs[at].1 = v,
            None => {
                pairs.remove(at);
            }
        }
    }

    /// The first GP's entry of an exported state.
    fn first_gp(state: &mut Json) -> &mut Json {
        let Json::Obj(pairs) = state else {
            panic!("not an object")
        };
        let (_, gps) = pairs.iter_mut().find(|(k, _)| k == "gps").expect("gps");
        let Json::Arr(entries) = gps else {
            panic!("gps is not an array")
        };
        entries.first_mut().expect("one GP per operator")
    }

    #[test]
    fn malformed_gp_state_is_rejected_without_touching_the_controller() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 31);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let mut arr = ConstantArrival(vec![400.0]);
        run_experiment(&mut sim, &mut scaler, &mut arr, 14).unwrap();
        let state = scaler.export_state().unwrap();
        let max_tasks = scaler.cfg.ucb.max_tasks;
        let before = state.render();
        let len = scaler.operator_gps()[0].len();
        assert!(len >= 12, "the first GP should have been refit");

        type Corrupt = Box<dyn Fn(&mut Json)>;
        let gp_field = |key: &'static str, v: Option<Json>| -> Corrupt {
            Box::new(move |s: &mut Json| set_field(first_gp(s), key, v.clone()))
        };
        let tasks_with = |t: usize| {
            let mut tasks = vec![json::num(1); len];
            tasks[len / 2] = json::num(t);
            Some(Json::Arr(tasks))
        };
        let capacity_with = |c: f64| {
            let mut caps = vec![100.0; len];
            caps[len / 2] = c;
            Some(json::bits_arr(&caps))
        };
        // The intact packed column, edited as text.
        let column = first_gp(&mut state.clone())
            .get("capacity")
            .and_then(Json::as_str)
            .expect("capacity is one packed string")
            .to_string();
        assert_eq!(column.len(), 16 * len);
        let capacity_text = |text: String| Some(Json::Str(text));
        let mut cases: Vec<(String, Corrupt)> = Vec::new();
        for key in ["scale", "length_scale", "signal_var"] {
            for v in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
                cases.push((format!("{key} = {v}"), gp_field(key, Some(json::bits(v)))));
            }
        }
        cases.push(("task 0".into(), gp_field("tasks", tasks_with(0))));
        cases.push((
            "task max_tasks + 1".into(),
            gp_field("tasks", tasks_with(max_tasks + 1)),
        ));
        for v in [f64::NAN, 0.0, -1.0] {
            cases.push((
                format!("capacity {v}"),
                gp_field("capacity", capacity_with(v)),
            ));
        }
        cases.push((
            "tasks longer than capacity".into(),
            gp_field("tasks", Some(Json::Arr(vec![json::num(1); len + 1]))),
        ));
        cases.push((
            "capacity one value shorter than tasks".into(),
            gp_field("capacity", capacity_text(column[16..].to_string())),
        ));
        for (what, text) in [
            ("one digit short", column[1..].to_string()),
            ("one digit long", format!("{column}0")),
            (
                "an uppercase digit",
                column.replacen(['a', 'b', 'c', 'd', 'e', 'f'], "A", 1),
            ),
            ("a non-hex digit", column.replacen('0', "g", 1)),
        ] {
            cases.push((
                format!("capacity with {what}"),
                gp_field("capacity", capacity_text(text)),
            ));
        }
        let unpacked: Vec<Json> = (0..len).map(|_| json::bits(100.0)).collect();
        cases.push((
            "capacity as an array of strings (layout v2)".into(),
            gp_field("capacity", Some(Json::Arr(unpacked))),
        ));
        for key in ["scale", "length_scale", "signal_var", "tasks", "capacity"] {
            cases.push((format!("missing {key}"), gp_field(key, None)));
        }
        for version in [1, 2] {
            cases.push((
                format!("state_version {version}"),
                Box::new(move |s: &mut Json| {
                    set_field(s, "state_version", Some(json::num(version)))
                }),
            ));
        }

        for (name, corrupt) in &cases {
            let mut bad = state.clone();
            corrupt(&mut bad);
            assert_ne!(bad, state, "{name}: the case changed nothing");
            assert!(scaler.import_state(&bad).is_err(), "{name}: accepted");
            assert_eq!(
                scaler.export_state().unwrap().render(),
                before,
                "{name}: a failed import changed the controller"
            );
        }
        // The unmodified state still imports.
        scaler.import_state(&state).expect("intact state imports");
        assert_eq!(scaler.export_state().unwrap().render(), before);
    }

    #[test]
    fn reset_state_matches_fresh_controller() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 29);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let mut arr = ConstantArrival(vec![400.0]);
        run_experiment(&mut sim, &mut scaler, &mut arr, 6).unwrap();
        assert!(!scaler.operator_gps()[0].is_empty());
        scaler.reset_state();
        assert!(scaler.operator_gps().iter().all(|gp| gp.is_empty()));
        assert!(scaler.lambda().iter().all(|&l| l == 0.0));
        let fresh = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        assert_eq!(
            scaler.export_state().unwrap().render(),
            fresh.export_state().unwrap().render()
        );
    }

    #[test]
    fn diagnostics_are_exposed() {
        let app = wordcount_app();
        let mut sim = make_sim(app.clone(), None, 2);
        let mut scaler = Dragster::new(app.topology.clone(), DragsterConfig::saddle_point());
        let mut arr = ConstantArrival(vec![400.0]);
        run_experiment(&mut sim, &mut scaler, &mut arr, 3).unwrap();
        assert_eq!(scaler.last_targets().len(), 2);
        assert!(scaler.last_targets().iter().all(|&y| y >= 0.0));
        assert_eq!(scaler.lambda().len(), 2);
        assert_eq!(scaler.operator_gps().len(), 2);
        assert!(!scaler.operator_gps()[0].is_empty());
        let ranking = scaler
            .bottleneck_ranking(&[400.0], sim.deployment())
            .unwrap();
        assert_eq!(ranking.len(), 2);
    }
}
