//! The experiment harness: the [`Autoscaler`] decision interface shared by
//! Dragster and every baseline, arrival processes, and the slot loop of
//! Algorithm 1 (launch → observe → decide → deploy → repeat).

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointStore, RetrySnapshot};
use crate::cluster::{ClusterConfig, Deployment, Feasible};
use crate::error::SimError;
use crate::faults::{ControllerFault, ControllerFaultDriver, FaultEvent, FaultKind};
use crate::fluid::FluidSim;
use crate::journal::{DecisionJournal, JournalError, JournalRecord, ReconfigOutcome};
use crate::json::{self, impl_to_json, Json, ToJson};
use crate::metrics::{OperatorMetrics, SlotMetrics};
use crate::sanitize::{MetricSanitizer, SanitizeConfig};

pub use crate::cluster::project_to_budget;

/// Time-varying offered load: rates per source for decision slot `t`.
pub trait ArrivalProcess {
    fn rates(&mut self, t: usize) -> Vec<f64>;
}

/// Constant offered load.
#[derive(Clone, Debug)]
pub struct ConstantArrival(pub Vec<f64>);

impl ArrivalProcess for ConstantArrival {
    fn rates(&mut self, _t: usize) -> Vec<f64> {
        self.0.clone()
    }
}

impl<F: FnMut(usize) -> Vec<f64>> ArrivalProcess for F {
    fn rates(&mut self, t: usize) -> Vec<f64> {
        self(t)
    }
}

/// A dynamic resource allocation policy. Implementations see exactly what
/// the paper's Job Monitor exposes — one [`SlotMetrics`] per slot — and
/// return the deployment for the *next* slot (step 5 of Algorithm 1).
pub trait Autoscaler {
    /// Scheme name for reports ("Dhalion", "Dragster saddle point", …).
    fn name(&self) -> String;

    /// Decide the next deployment after observing slot `t`.
    ///
    /// # Errors
    /// [`SimError::Policy`] (or a wrapped numeric/topology error) when the
    /// policy cannot produce a decision; the harness aborts the run and
    /// surfaces the error with the partial context intact.
    fn decide(
        &mut self,
        t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError>;

    /// Export all learner state for a controller checkpoint
    /// ([`crate::checkpoint::Checkpoint::scaler`]). `None` (the default)
    /// declares the policy stateless: a crash loses nothing, and recovery
    /// restores it via [`Autoscaler::reset_state`] plus journal replay.
    /// Stateful policies must export *everything* their `decide` depends
    /// on (learned models, duals, RNG positions) bit-exactly.
    fn export_state(&self) -> Option<Json> {
        None
    }

    /// Rebuild learner state from a checkpoint previously produced by
    /// [`Autoscaler::export_state`] on the same scheme.
    ///
    /// # Errors
    /// [`SimError::Policy`] when the state is malformed or the policy is
    /// stateless (the default) — the recovery harness then routes to the
    /// degraded fallback instead of trusting a half-restored controller.
    fn import_state(&mut self, _state: &Json) -> Result<(), SimError> {
        Err(SimError::Policy {
            scheme: self.name(),
            reason: "policy does not support checkpoint state import".to_string(),
        })
    }

    /// Forget all learned state, returning to the fresh-start condition.
    /// The default is a no-op, which is exactly right for stateless
    /// policies; stateful ones must override it — the degraded-fallback
    /// path relies on it to guarantee a *clean* cold start rather than a
    /// half-poisoned one.
    fn reset_state(&mut self) {}
}

/// Full record of one experiment run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub scheme: String,
    pub slots: Vec<SlotMetrics>,
    /// Deployment in effect during each slot.
    pub deployments: Vec<Deployment>,
    /// Oracle: the noise-free steady-state throughput the deployed
    /// configuration would achieve under that slot's offered load. Used
    /// for the "within 10 % of optimal" convergence criterion — not
    /// visible to autoscalers.
    pub ideal_throughput: Vec<f64>,
    /// Every fault the chaos layer injected during the run, in slot order.
    /// Empty for unfaulted runs.
    pub fault_events: Vec<FaultEvent>,
    /// Reconfiguration attempts that failed (checkpoint-restore faults the
    /// retry loop absorbed).
    pub reconfig_failures: usize,
    /// Slots during which the harness held the last-known-good deployment
    /// because the retry backoff had not yet elapsed.
    pub held_slots: usize,
    /// Every control-plane recovery transition, in slot order (crash →
    /// restored/degraded → resumed). Empty for runs without controller
    /// faults, so such traces compare equal to unfaulted ones.
    pub recovery_events: Vec<RecoveryEvent>,
    /// Controller crashes absorbed by the recovery harness.
    pub controller_crashes: usize,
    /// Slots spent in the degraded hold-last-deployment fallback (the
    /// GP-rewarm window after an unrecoverable crash).
    pub fallback_slots: usize,
}

impl Trace {
    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total tuples delivered to the sink.
    pub fn total_processed(&self) -> f64 {
        self.slots.iter().map(|s| s.processed_tuples).sum()
    }

    /// Total dollars spent.
    pub fn total_cost(&self) -> f64 {
        self.slots.iter().map(|s| s.cost_dollars).sum()
    }

    /// Dollars per 10⁹ processed tuples (the paper's Table 2/3 metric).
    pub fn cost_per_billion_tuples(&self) -> f64 {
        let tuples = self.total_processed();
        if tuples == 0.0 {
            return f64::INFINITY;
        }
        self.total_cost() / (tuples / 1e9)
    }

    /// Mean measured throughput over a slot range.
    pub fn mean_throughput(&self, range: std::ops::Range<usize>) -> f64 {
        let xs = self.slots.get(range).unwrap_or_default();
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().map(|s| s.throughput).sum::<f64>() / xs.len() as f64
    }

    /// First slot index from which the deployed configuration stays within
    /// `tol` (e.g. 0.1) of the oracle-optimal throughput `opt[t]` for the
    /// rest of `window` — the paper's convergence-time definition
    /// ("within 10 % of the optimal throughput"). Returns `None` if never.
    pub fn convergence_slot(
        &self,
        opt: &[f64],
        tol: f64,
        window: std::ops::Range<usize>,
    ) -> Option<usize> {
        assert_eq!(opt.len(), self.ideal_throughput.len());
        let near = |t: usize| match (self.ideal_throughput.get(t), opt.get(t)) {
            (Some(&ideal), Some(&o)) => ideal >= (1.0 - tol) * o - 1e-9,
            _ => false,
        };
        let end = window.end.min(self.ideal_throughput.len());
        (window.start..end).find(|&s| (s..end).all(near))
    }

    /// Mean pods over a slot range (resource footprint).
    pub fn mean_pods(&self, range: std::ops::Range<usize>) -> f64 {
        let xs = self.slots.get(range).unwrap_or_default();
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().map(|s| s.pods as f64).sum::<f64>() / xs.len() as f64
    }

    /// Number of slots that began with a reconfiguration pause.
    pub fn reconfigurations(&self) -> usize {
        self.slots.iter().filter(|s| s.reconfigured).count()
    }

    /// A throughput percentile over the whole run (p in [0, 100]).
    pub fn throughput_percentile(&self, p: f64) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let mut xs: Vec<f64> = self.slots.iter().map(|s| s.throughput).collect();
        xs.sort_by(f64::total_cmp);
        let idx =
            crate::convert::f64_to_usize_saturating(((p / 100.0) * (xs.len() - 1) as f64).round());
        xs.get(idx.min(xs.len() - 1)).copied().unwrap_or(0.0)
    }

    /// Worst end-to-end Little's-law latency estimate across slots in a
    /// range (seconds).
    pub fn max_latency_estimate(&self, range: std::ops::Range<usize>) -> f64 {
        self.slots
            .get(range)
            .unwrap_or_default()
            .iter()
            .map(|s| s.latency_estimate_secs())
            .fold(0.0, f64::max)
    }

    /// Convergence time in minutes given the slot length.
    pub fn convergence_minutes(
        &self,
        opt: &[f64],
        tol: f64,
        window: std::ops::Range<usize>,
        slot_secs: f64,
    ) -> Option<f64> {
        self.convergence_slot(opt, tol, window.clone())
            .map(|s| (s + 1 - window.start) as f64 * slot_secs / 60.0)
    }

    /// Record a control-plane fault (it names no operator).
    fn control_fault(&mut self, slot: usize, kind: FaultKind) {
        self.fault_events.push(FaultEvent {
            slot,
            kind,
            operator: None,
            severity: 0.0,
        });
    }

    fn recovery(&mut self, slot: usize, action: RecoveryAction) {
        self.recovery_events.push(RecoveryEvent { slot, action });
    }
}

// The trace as JSON, for `dragster-cli --json` and other tools: field
// names as keys, unit variants as strings, struct variants as
// `{"Variant": {...}}`, `None` as `null`, and floats as decimal numbers.
// Export only: nothing reads a trace back, and crash recovery keeps the
// bit-exact checkpoint codec.
impl_to_json! {
    Trace {
        scheme, slots, deployments, ideal_throughput, fault_events, reconfig_failures,
        held_slots, recovery_events, controller_crashes, fallback_slots
    }
}
impl_to_json! {
    SlotMetrics {
        t, sim_time_secs, throughput, processed_tuples, dropped_tuples, cost_dollars, pods,
        source_rates, reconfigured, pause_secs, operators
    }
}
impl_to_json! {
    OperatorMetrics {
        name, tasks, input_rate, input_rates, output_rate, offered_load, cpu_util,
        capacity_sample, buffer_tuples, latency_estimate_secs, backpressure, degraded
    }
}
impl_to_json! { Deployment { tasks } }
impl_to_json! { FaultEvent { slot, kind, operator, severity } }
impl_to_json! { RecoveryEvent { slot, action } }

/// A unit variant is its name, which is exactly what the derived `Debug`
/// prints.
fn unit_variant(v: impl std::fmt::Debug) -> Json {
    Json::Str(format!("{v:?}"))
}

impl ToJson for FaultKind {
    fn to_json(&self) -> Json {
        unit_variant(self)
    }
}

impl ToJson for RecoveryAction {
    fn to_json(&self) -> Json {
        match *self {
            RecoveryAction::Restored {
                checkpoint_slot,
                replayed_slots,
            } => Json::obj([(
                "Restored",
                Json::obj([
                    ("checkpoint_slot", checkpoint_slot.to_json()),
                    ("replayed_slots", replayed_slots.to_json()),
                ]),
            )]),
            RecoveryAction::Degraded { reason } => {
                Json::obj([("Degraded", Json::obj([("reason", unit_variant(reason))]))])
            }
            unit => unit_variant(unit),
        }
    }
}

/// Retry policy for failed reconfigurations: exponential backoff measured
/// in decision slots. After the `k`-th consecutive failure the harness
/// waits `min(base_backoff_slots × 2^(k−1), max_backoff_slots)` slots
/// before re-attempting, holding the last-known-good deployment meanwhile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff after the first failure (slots). Values < 1 behave as 1.
    pub base_backoff_slots: usize,
    /// Backoff ceiling (slots).
    pub max_backoff_slots: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff_slots: 1,
            max_backoff_slots: 8,
        }
    }
}

impl RetryPolicy {
    /// Backoff (in slots) after `consecutive_failures ≥ 1` failures.
    ///
    /// The doubling saturates instead of shifting bits off the word, and
    /// the result is capped *strictly* at `max_backoff_slots` — a zero
    /// cap genuinely means "retry next slot", and a huge base can no
    /// longer wrap around to a tiny backoff.
    pub fn backoff_slots(&self, consecutive_failures: usize) -> usize {
        let k = consecutive_failures.max(1);
        let base = self.base_backoff_slots.max(1);
        let exp = u32::try_from((k - 1).min(63)).unwrap_or(63);
        let factor = 1usize.checked_shl(exp).unwrap_or(usize::MAX);
        base.saturating_mul(factor).min(self.max_backoff_slots)
    }

    /// The retry rule, shared by live slots and journal replay: an
    /// applied reconfiguration clears the failure streak, a failed one
    /// waits out the backoff from slot `t`, and a held slot changes
    /// nothing. The next attempt saturates at [`json::MAX_COUNT`], the
    /// largest slot a checkpoint decodes, so a checkpoint written during
    /// the wait restores. No run reaches that slot, so a backoff of
    /// `usize::MAX` still holds the deployment for the rest of the run.
    fn advance(&self, retry: RetrySnapshot, t: usize, outcome: ReconfigOutcome) -> RetrySnapshot {
        match outcome {
            ReconfigOutcome::Applied => RetrySnapshot {
                consecutive_failures: 0,
                ..retry
            },
            ReconfigOutcome::Failed => {
                let consecutive_failures = retry.consecutive_failures + 1;
                let wait = self.backoff_slots(consecutive_failures);
                RetrySnapshot {
                    consecutive_failures,
                    next_attempt: t.saturating_add(wait).min(json::MAX_COUNT),
                }
            }
            ReconfigOutcome::Held => retry,
        }
    }
}

/// Harness knobs for [`run_experiment_recoverable`]; [`run_experiment`]
/// runs the defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExperimentOptions {
    /// Retry-with-backoff for failed reconfigurations.
    pub retry: RetryPolicy,
    /// Metric sanitization applied before any autoscaler sees a snapshot.
    pub sanitize: SanitizeConfig,
}

/// Run one experiment: `slots` decision slots of Algorithm 1 with default
/// [`ExperimentOptions`]. The scaler's proposal is clamped to the task
/// range; a proposal violating the pod budget is projected by decrementing
/// the largest allocations first (mirroring how HPA would refuse to scale
/// past quota).
///
/// Degradation policy (graceful, never aborting on injected faults):
///
/// 1. every raw snapshot passes through a [`MetricSanitizer`] before the
///    autoscaler (and the trace) sees it — faulted traces never contain a
///    NaN or negative metric;
/// 2. a failed reconfiguration ([`SimError::ReconfigFailed`]) leaves the
///    simulator on its last-known-good deployment; the harness counts the
///    failure, backs off exponentially ([`RetryPolicy`]), and re-proposes
///    once the backoff elapses instead of aborting the run;
/// 3. fault events drained from the engine are appended to
///    [`Trace::fault_events`] so recovery analysis can line dips up with
///    their causes.
///
/// There is no journal and no checkpoint, so the plan's control-plane
/// fault kinds are ignored; [`run_experiment_recoverable`] interprets them.
///
/// # Errors
/// Any non-fault [`SimError`] raised by the oracle, the policy, or
/// reconfiguration validation; the trace accumulated so far is dropped
/// with the error.
pub fn run_experiment(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
) -> Result<Trace, SimError> {
    let opts = ExperimentOptions::default();
    slot_loop(sim, scaler, arrivals, slots, opts, None)
}

// ---------------------------------------------------------------------------
// Crash-safe controller runtime.
// ---------------------------------------------------------------------------

/// Knobs for the crash-recovery harness ([`run_experiment_recoverable`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Checkpoint cadence in slots (a checkpoint is written after every
    /// slot `t` with `t % checkpoint_every == 0`). Values < 1 behave as 1.
    pub checkpoint_every: usize,
    /// Staleness bound `m`: a checkpoint older than this many slots at
    /// restore time is rejected ([`CheckpointError::Stale`]) and the run
    /// degrades instead of resuming from ancient state.
    pub max_checkpoint_age_slots: usize,
    /// Degraded-fallback window: after an unrecoverable crash the harness
    /// holds the current deployment for this many slots while the freshly
    /// reset learner re-warms on live metrics, then resumes following it.
    pub rewarm_slots: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            checkpoint_every: 1,
            max_checkpoint_age_slots: 8,
            rewarm_slots: 6,
        }
    }
}

/// Why recovery routed to the degraded fallback instead of restoring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// No checkpoint had ever been written.
    MissingCheckpoint,
    /// The newest checkpoint blob failed its checksum (torn write).
    TornCheckpoint,
    /// The blob parsed but did not decode to a valid checkpoint.
    MalformedCheckpoint,
    /// The newest valid checkpoint exceeded the staleness bound.
    StaleCheckpoint,
    /// The checkpoint was written by a different autoscaler scheme.
    SchemeMismatch,
    /// The policy rejected the checkpointed learner state.
    ImportFailed,
    /// A journal record needed for replay failed its checksum.
    JournalCorrupt,
    /// A slot needed for replay had no journal record.
    JournalGap,
    /// Replay reproduced a different decision than the journal recorded —
    /// the restored state cannot be trusted.
    ReplayDivergence,
}

/// What the recovery harness did at one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The controller process crashed, losing all in-memory state.
    Crash,
    /// The checkpoint validated; journal replay rebuilt the exact
    /// pre-crash state (`replayed_slots` records on top of the snapshot).
    Restored {
        checkpoint_slot: usize,
        replayed_slots: usize,
    },
    /// Restore was impossible; the learner was reset and the deployment
    /// held for the rewarm window.
    Degraded { reason: DegradeReason },
    /// The rewarm window elapsed; the harness resumed following the
    /// learner's decisions.
    Resumed,
}

/// One recovery transition, recorded into [`Trace::recovery_events`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    pub slot: usize,
    pub action: RecoveryAction,
}

/// [`run_experiment`] under the crash-safe controller runtime.
///
/// In addition to the graceful-degradation policy of [`run_experiment`],
/// the harness maintains the crash-tolerance machinery of DESIGN §10:
///
/// 1. after every slot it appends a checksummed [`JournalRecord`] (raw
///    pre-sanitize metrics + decision + reconfiguration outcome) to the
///    [`DecisionJournal`], and on the checkpoint cadence writes a
///    [`Checkpoint`] of *all* controller state — the autoscaler's
///    exported learner state, sanitizer history, and retry position;
/// 2. control-plane faults from the plan's controller kinds
///    ([`FaultKind::ControllerCrash`], [`FaultKind::CheckpointCorrupt`],
///    [`FaultKind::CheckpointStale`], plus the stochastic
///    `controller_crash_prob`) are driven on a dedicated salted RNG
///    stream, so layering them onto data-plane chaos leaves the engine
///    realization bit-identical;
/// 3. on a crash the harness restores the newest checkpoint and replays
///    the journal to the crash point — provably bit-identical to the
///    uninterrupted run (`tests/recovery.rs`) — and when the checkpoint
///    does not validate (torn, stale, missing, foreign, divergent) it
///    degrades: learner reset, deployment held for
///    [`RecoveryOptions::rewarm_slots`] slots, then resumes. Every
///    transition lands in [`Trace::recovery_events`].
///
/// Both entry points run one slot loop, and checkpointing and journaling
/// never mutate controller state, so with an inert fault plan and default
/// options this produces the trace of [`run_experiment`].
///
/// # Errors
/// Any non-fault [`SimError`] raised by the oracle, the policy (live or
/// during replay), or reconfiguration validation.
pub fn run_experiment_recoverable(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
    opts: ExperimentOptions,
    rec: RecoveryOptions,
) -> Result<Trace, SimError> {
    let mut durable = Durable::new(sim, rec);
    slot_loop(sim, scaler, arrivals, slots, opts, Some(&mut durable))
}

/// The slot loop behind both entry points. `durable` switches the
/// durability layer on; without it nothing is journaled or checkpointed,
/// no control-plane fault fires, and the raw snapshot is sanitized without
/// a copy.
fn slot_loop(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
    opts: ExperimentOptions,
    mut durable: Option<&mut Durable>,
) -> Result<Trace, SimError> {
    let mut trace = Trace {
        scheme: scaler.name(),
        ..Default::default()
    };
    let mut state = HarnessState::new(opts.sanitize);
    for t in 0..slots {
        // -- control plane: faults fire at the top of the slot ------------
        let cf = match durable.as_deref_mut() {
            Some(d) => d.control_plane(t, scaler, &mut state, &mut trace, &opts, sim.cluster())?,
            None => ControllerFault::default(),
        };

        // -- data plane ----------------------------------------------------
        let rates = arrivals.rates(t);
        let before = durable.is_some().then(|| sim.deployment().clone());
        trace.deployments.push(sim.deployment().clone());
        trace.ideal_throughput.push(sim.ideal_throughput(&rates)?);
        let raw = sim.run_slot(&rates);
        // The journal keeps the raw snapshot and the decision, so the
        // durable path sanitizes a copy of the one and journals a copy of
        // the other.
        let (metrics, raw) = if durable.is_some() {
            (state.sanitizer.sanitize(raw.clone()), Some(raw))
        } else {
            (state.sanitizer.sanitize(raw), None)
        };
        // `decide` runs even during fallback: the freshly reset learner
        // re-warms on live metrics while its proposals are held back.
        let feasible = decide_feasible(scaler, t, &metrics, sim.deployment(), sim.cluster())?;
        let decided = durable.is_some().then(|| feasible.tasks.clone());
        let outcome = if durable
            .as_deref()
            .is_some_and(|d| d.fallback_until.is_some())
        {
            trace.fallback_slots += 1;
            ReconfigOutcome::Held
        } else if t >= state.retry.next_attempt {
            match sim.reconfigure(feasible) {
                Ok(()) => ReconfigOutcome::Applied,
                Err(SimError::ReconfigFailed { .. }) => {
                    trace.reconfig_failures += 1;
                    ReconfigOutcome::Failed
                }
                Err(e) => return Err(e),
            }
        } else {
            trace.held_slots += 1;
            ReconfigOutcome::Held
        };
        state.retry = opts.retry.advance(state.retry, t, outcome);
        trace.fault_events.extend(sim.drain_fault_events());
        trace.slots.push(metrics);

        // -- durability: journal the slot, checkpoint on cadence ----------
        if let (Some(d), Some(before), Some(raw), Some(decided)) =
            (durable.as_deref_mut(), before, raw, decided)
        {
            d.journal.append(&JournalRecord {
                t,
                raw,
                deployment_before: before.tasks,
                decided,
                outcome,
            });
            if t.is_multiple_of(d.rec.checkpoint_every.max(1)) {
                if cf.suppress_checkpoint {
                    trace.control_fault(t, FaultKind::CheckpointStale);
                } else {
                    d.store.write(&Checkpoint {
                        version: crate::checkpoint::CHECKPOINT_VERSION,
                        slot: t,
                        scheme: trace.scheme.clone(),
                        deployment: sim.deployment().tasks.clone(),
                        scaler: scaler.export_state(),
                        sanitizer: state.sanitizer.snapshot(),
                        retry: state.retry,
                    });
                    // The store keeps only this checkpoint, and a restore
                    // replays only the slots after it.
                    d.journal.compact_through(t);
                }
            }
        }
    }
    Ok(trace)
}

/// Ask the scaler for its next deployment, clamped to the task range and
/// projected onto the pod budget. Live slots and journal replay both
/// decide through here.
fn decide_feasible(
    scaler: &mut dyn Autoscaler,
    t: usize,
    metrics: &SlotMetrics,
    current: &Deployment,
    cluster: &ClusterConfig,
) -> Result<Feasible, SimError> {
    let proposal = scaler.decide(t, metrics, current)?;
    Ok(project_to_budget(
        proposal.clamped(cluster.max_tasks_per_operator),
        cluster.budget_pods,
    ))
}

/// The harness's controller state beside the learner: what a checkpoint
/// saves and a restore rebuilds.
struct HarnessState {
    sanitizer: MetricSanitizer,
    retry: RetrySnapshot,
}

impl HarnessState {
    /// The fresh start, which is also the degraded fallback's cold start.
    fn new(sanitize: SanitizeConfig) -> HarnessState {
        HarnessState {
            sanitizer: MetricSanitizer::new(sanitize),
            retry: RetrySnapshot::default(),
        }
    }
}

fn degrade_reason_of(e: &CheckpointError) -> DegradeReason {
    match e {
        CheckpointError::Missing => DegradeReason::MissingCheckpoint,
        CheckpointError::Torn { .. } => DegradeReason::TornCheckpoint,
        CheckpointError::Malformed { .. } => DegradeReason::MalformedCheckpoint,
        CheckpointError::Stale { .. } => DegradeReason::StaleCheckpoint,
    }
}

/// The durability layer of [`run_experiment_recoverable`]: the decision
/// journal, the checkpoint store, the control-plane fault driver, and the
/// degraded-fallback window.
struct Durable {
    rec: RecoveryOptions,
    store: CheckpointStore,
    journal: DecisionJournal,
    driver: ControllerFaultDriver,
    /// End of the degraded-fallback window, when active.
    fallback_until: Option<usize>,
}

impl Durable {
    fn new(sim: &FluidSim, rec: RecoveryOptions) -> Durable {
        Durable {
            rec,
            store: CheckpointStore::new(),
            journal: DecisionJournal::new(),
            driver: ControllerFaultDriver::new(sim.fault_plan().clone(), sim.seed()),
            fallback_until: None,
        }
    }

    /// The control plane at the top of slot `t`: tear the newest
    /// checkpoint or crash the controller when the plan says so, restore
    /// or degrade after a crash, and close an elapsed fallback window.
    fn control_plane(
        &mut self,
        t: usize,
        scaler: &mut dyn Autoscaler,
        state: &mut HarnessState,
        trace: &mut Trace,
        opts: &ExperimentOptions,
        cluster: &ClusterConfig,
    ) -> Result<ControllerFault, SimError> {
        let cf = self.driver.begin_slot(t);
        if cf.corrupt_checkpoint {
            self.store.corrupt_latest();
            trace.control_fault(t, FaultKind::CheckpointCorrupt);
        }
        if cf.crash {
            trace.controller_crashes += 1;
            trace.control_fault(t, FaultKind::ControllerCrash);
            trace.recovery(t, RecoveryAction::Crash);
            let action = match self.try_restore(scaler, t, opts, cluster)? {
                Ok((restored, action)) => {
                    *state = restored;
                    self.fallback_until = None;
                    action
                }
                Err(reason) => {
                    // Unrecoverable: clean cold start + hold the current
                    // deployment while the learner re-warms.
                    scaler.reset_state();
                    *state = HarnessState::new(opts.sanitize);
                    self.fallback_until = Some(t.saturating_add(self.rec.rewarm_slots));
                    RecoveryAction::Degraded { reason }
                }
            };
            trace.recovery(t, action);
        }
        if self.fallback_until.is_some_and(|until| t >= until) {
            self.fallback_until = None;
            trace.recovery(t, RecoveryAction::Resumed);
        }
        Ok(cf)
    }

    /// Restore-and-replay: validate the newest checkpoint, import the
    /// learner state, and replay the journal records up to (excluding)
    /// `crash_slot` through the live slot's decide and retry steps.
    /// Returns the rebuilt harness state with its `Restored` action,
    /// `Ok(Err(reason))` when the run must degrade, and `Err(e)` only for
    /// hard policy errors.
    fn try_restore(
        &self,
        scaler: &mut dyn Autoscaler,
        crash_slot: usize,
        opts: &ExperimentOptions,
        cluster: &ClusterConfig,
    ) -> Result<Result<(HarnessState, RecoveryAction), DegradeReason>, SimError> {
        let max_age = self.rec.max_checkpoint_age_slots;
        let ckpt: Checkpoint = match self.store.load_validated(crash_slot, max_age) {
            Ok(c) => c,
            Err(e) => return Ok(Err(degrade_reason_of(&e))),
        };
        if ckpt.scheme != scaler.name() {
            return Ok(Err(DegradeReason::SchemeMismatch));
        }
        match &ckpt.scaler {
            Some(state) => {
                if scaler.import_state(state).is_err() {
                    return Ok(Err(DegradeReason::ImportFailed));
                }
            }
            // A stateless policy's full state *is* the fresh state.
            None => scaler.reset_state(),
        }
        let records = match self.journal.replay_range(ckpt.slot + 1, crash_slot) {
            Ok(r) => r,
            Err(JournalError::Corrupt { .. }) => return Ok(Err(DegradeReason::JournalCorrupt)),
            Err(JournalError::Gap { .. }) => return Ok(Err(DegradeReason::JournalGap)),
        };
        let mut state = HarnessState {
            sanitizer: MetricSanitizer::from_snapshot(ckpt.sanitizer.clone()),
            retry: ckpt.retry,
        };
        for r in &records {
            let metrics = state.sanitizer.sanitize(r.raw.clone());
            let before = Deployment {
                tasks: r.deployment_before.clone(),
            };
            let feasible = decide_feasible(scaler, r.t, &metrics, &before, cluster)?;
            if feasible.tasks != r.decided {
                // The journal is the ground truth; a divergent replay means
                // the restored learner state is wrong.
                return Ok(Err(DegradeReason::ReplayDivergence));
            }
            state.retry = opts.retry.advance(state.retry, r.t, r.outcome);
        }
        let action = RecoveryAction::Restored {
            checkpoint_slot: ckpt.slot,
            replayed_slots: records.len(),
        };
        Ok(Ok((state, action)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{Application, CapacityModel};
    use crate::cluster::ClusterConfig;
    use crate::fluid::SimConfig;
    use crate::noise::NoiseConfig;
    use dragster_dag::TopologyBuilder;

    fn app() -> Application {
        let topo = TopologyBuilder::new()
            .source("s")
            .operator("a")
            .operator("b")
            .sink("k")
            .edge("s", "a")
            .edge("a", "b")
            .edge("b", "k")
            .build()
            .unwrap();
        Application::new(
            topo,
            vec![
                CapacityModel::Linear { per_task: 100.0 },
                CapacityModel::Linear { per_task: 100.0 },
            ],
        )
        .unwrap()
    }

    /// Scales everything up by one task per slot.
    struct GreedyUp;

    impl Autoscaler for GreedyUp {
        fn name(&self) -> String {
            "greedy-up".into()
        }

        fn decide(
            &mut self,
            _t: usize,
            _m: &SlotMetrics,
            cur: &Deployment,
        ) -> Result<Deployment, SimError> {
            Ok(Deployment {
                tasks: cur.tasks.iter().map(|t| t + 1).collect(),
            })
        }
    }

    /// Never changes anything.
    struct Static;

    impl Autoscaler for Static {
        fn name(&self) -> String {
            "static".into()
        }

        fn decide(
            &mut self,
            _t: usize,
            _m: &SlotMetrics,
            cur: &Deployment,
        ) -> Result<Deployment, SimError> {
            Ok(cur.clone())
        }
    }

    fn make_sim(budget: Option<usize>) -> FluidSim {
        FluidSim::new(
            app(),
            ClusterConfig {
                budget_pods: budget,
                ..Default::default()
            },
            SimConfig::default(),
            NoiseConfig::none(),
            7,
            Deployment::uniform(2, 1),
        )
        .unwrap()
    }

    /// A one-slot scripted fault hitting every operator.
    fn scripted(slot: usize, kind: crate::faults::FaultKind) -> crate::faults::ScriptedFault {
        crate::faults::ScriptedFault {
            slot,
            kind,
            operator: None,
            severity: 1.0,
            duration_slots: 1,
        }
    }

    /// After every slot of a run with a checkpoint every `every` slots,
    /// the journal holds only the records since the newest checkpoint —
    /// never more than `every` — and a suppressed checkpoint drops nothing.
    #[test]
    fn journal_holds_only_the_records_since_the_newest_checkpoint() {
        let stale = crate::faults::FaultPlan::none()
            .with(scripted(5, crate::faults::FaultKind::CheckpointStale));
        for every in [1, 4] {
            let rec = RecoveryOptions {
                checkpoint_every: every,
                ..RecoveryOptions::default()
            };
            for slots in 1..=12 {
                let mut sim = make_sim(None).with_faults(stale.clone());
                let mut durable = Durable::new(&sim, rec);
                let mut arr = ConstantArrival(vec![250.0]);
                let opts = ExperimentOptions::default();
                slot_loop(
                    &mut sim,
                    &mut GreedyUp,
                    &mut arr,
                    slots,
                    opts,
                    Some(&mut durable),
                )
                .unwrap();
                let last = slots - 1;
                let newest_checkpoint = match last / every * every {
                    5 => 5 - every, // the stale slot wrote nothing
                    c => c,
                };
                assert_eq!(
                    durable.journal.len(),
                    last - newest_checkpoint,
                    "every {every}, after slot {last}"
                );
                assert!(durable.journal.len() <= every);
            }
        }
    }

    #[test]
    fn run_records_every_slot() {
        let mut sim = make_sim(None);
        let mut arr = ConstantArrival(vec![250.0]);
        let trace = run_experiment(&mut sim, &mut Static, &mut arr, 5).unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.deployments.len(), 5);
        assert_eq!(trace.scheme, "static");
        assert!(trace.total_cost() > 0.0);
    }

    #[test]
    fn greedy_up_scales_and_improves() {
        let mut sim = make_sim(None);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 10).unwrap();
        // deployments grow 1,2,3,… (clamped at 10)
        assert_eq!(trace.deployments[0].tasks, vec![1, 1]);
        assert_eq!(trace.deployments[5].tasks, vec![6, 6]);
        assert!(trace.slots[9].throughput > trace.slots[0].throughput);
    }

    #[test]
    fn budget_projection_applies() {
        let mut sim = make_sim(Some(8));
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 12).unwrap();
        for d in &trace.deployments {
            assert!(d.total_pods() <= 8, "budget violated: {d}");
        }
    }

    #[test]
    fn convergence_slot_finds_stable_point() {
        let mut trace = Trace::default();
        // fabricate ideal-throughput history: 50, 80, 95, 95, 95 vs opt 100
        for v in [50.0, 80.0, 95.0, 95.0, 95.0] {
            trace.ideal_throughput.push(v);
        }
        let opt = vec![100.0; 5];
        assert_eq!(trace.convergence_slot(&opt, 0.1, 0..5), Some(2));
        assert_eq!(trace.convergence_slot(&opt, 0.01, 0..5), None);
        // minutes: slots are 600 s
        assert_eq!(
            trace.convergence_minutes(&opt, 0.1, 0..5, 600.0),
            Some(30.0)
        );
    }

    #[test]
    fn convergence_requires_stability() {
        let mut trace = Trace::default();
        for v in [95.0, 50.0, 95.0, 95.0] {
            trace.ideal_throughput.push(v);
        }
        let opt = vec![100.0; 4];
        // slot 0 is within 10 % but slot 1 regresses ⇒ convergence at 2.
        assert_eq!(trace.convergence_slot(&opt, 0.1, 0..4), Some(2));
    }

    #[test]
    fn closure_is_an_arrival_process() {
        let mut sim = make_sim(None);
        let mut arr = |t: usize| vec![if t < 2 { 100.0 } else { 300.0 }];
        let trace = run_experiment(&mut sim, &mut Static, &mut arr, 4).unwrap();
        assert_eq!(trace.slots[0].source_rates, vec![100.0]);
        assert_eq!(trace.slots[3].source_rates, vec![300.0]);
    }

    #[test]
    fn trace_analysis_helpers() {
        let mut sim = make_sim(None);
        let mut arr = ConstantArrival(vec![500.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 6).unwrap();
        assert!(trace.mean_pods(0..6) > 2.0);
        assert!(trace.reconfigurations() >= 4);
        let p50 = trace.throughput_percentile(50.0);
        let p100 = trace.throughput_percentile(100.0);
        assert!(p100 >= p50);
        assert!(trace.max_latency_estimate(0..6) >= 0.0);
        // empty ranges are safe
        assert_eq!(trace.mean_pods(3..3), 0.0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_slots(1), 1);
        assert_eq!(p.backoff_slots(2), 2);
        assert_eq!(p.backoff_slots(3), 4);
        assert_eq!(p.backoff_slots(4), 8);
        assert_eq!(p.backoff_slots(5), 8); // capped
        assert_eq!(p.backoff_slots(60), 8); // shift is clamped, no overflow
        let never_zero = RetryPolicy {
            base_backoff_slots: 0,
            max_backoff_slots: 4,
        };
        assert_eq!(never_zero.backoff_slots(1), 1);
    }

    #[test]
    fn backoff_cap_is_strict_even_for_degenerate_configs() {
        // max = 0 means "retry every slot": the cap must win over the
        // implicit base >= 1 floor.
        let zero_cap = RetryPolicy {
            base_backoff_slots: 3,
            max_backoff_slots: 0,
        };
        for k in [1, 2, 10, 100] {
            assert_eq!(zero_cap.backoff_slots(k), 0);
        }
        // base = 0 doubles from an implicit floor of 1 and still caps.
        let zero_base = RetryPolicy {
            base_backoff_slots: 0,
            max_backoff_slots: 4,
        };
        assert_eq!(
            (1..=4)
                .map(|k| zero_base.backoff_slots(k))
                .collect::<Vec<_>>(),
            vec![1, 2, 4, 4]
        );
        // Huge base: doubling must saturate, never wrap past the cap.
        let huge_base = RetryPolicy {
            base_backoff_slots: usize::MAX,
            max_backoff_slots: 16,
        };
        assert_eq!(huge_base.backoff_slots(1), 16);
        assert_eq!(huge_base.backoff_slots(7), 16);
        let wrapping_base = RetryPolicy {
            base_backoff_slots: 1 << 60,
            max_backoff_slots: 32,
        };
        // Old code computed base << 10 with wrapping bits -> backoff 1.
        assert_eq!(wrapping_base.backoff_slots(11), 32);
        // Uncapped: saturates at usize::MAX instead of overflowing.
        let uncapped = RetryPolicy {
            base_backoff_slots: 2,
            max_backoff_slots: usize::MAX,
        };
        assert_eq!(uncapped.backoff_slots(200), usize::MAX);
    }

    #[test]
    fn reconfig_fault_is_retried_not_fatal() {
        use crate::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::none().with(scripted(1, FaultKind::ReconfigFail));
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 6).unwrap();
        assert_eq!(trace.len(), 6, "run must complete despite the fault");
        assert_eq!(trace.reconfig_failures, 1);
        // slot 1's upscale was rejected: the deployment in effect during
        // slot 2 is still slot 1's (last-known-good held) …
        assert_eq!(trace.deployments[2], trace.deployments[1]);
        // … and the retry landed: later slots scale up again.
        assert!(trace.deployments[5].total_pods() > trace.deployments[2].total_pods());
        assert!(trace
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::ReconfigFail));
    }

    #[test]
    fn persistent_reconfig_faults_back_off() {
        use crate::faults::{FaultKind, FaultPlan, FaultRates, ScriptedFault};
        // every reconfiguration attempt fails for the whole run
        let plan = FaultPlan {
            scripted: vec![ScriptedFault {
                slot: 0,
                kind: FaultKind::ReconfigFail,
                operator: None,
                severity: 1.0,
                duration_slots: 40,
            }],
            rates: FaultRates::default(),
        };
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 16).unwrap();
        assert_eq!(trace.len(), 16);
        // attempts at t = 0, 1, 3, 7, 15 (backoff 1, 2, 4, 8, 8): 5 failures
        assert_eq!(trace.reconfig_failures, 5);
        assert_eq!(trace.held_slots, 16 - 5);
        // deployment never moved off the initial last-known-good
        assert!(trace.deployments.iter().all(|d| d.tasks == vec![1, 1]));
    }

    #[test]
    fn saturated_backoff_holds_for_the_rest_of_the_run() {
        use crate::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::none().with(scripted(1, FaultKind::ReconfigFail));
        let mut sim = make_sim(None).with_faults(plan);
        let opts = ExperimentOptions {
            retry: RetryPolicy {
                base_backoff_slots: usize::MAX,
                max_backoff_slots: usize::MAX,
            },
            ..Default::default()
        };
        let mut arr = ConstantArrival(vec![900.0]);
        let rec = RecoveryOptions::default();
        let trace =
            run_experiment_recoverable(&mut sim, &mut GreedyUp, &mut arr, 6, opts, rec).unwrap();
        assert_eq!(trace.reconfig_failures, 1);
        // slots 2..6 wait out a backoff that would overflow `t + backoff`
        assert_eq!(trace.held_slots, 4);
        assert!(trace.deployments[2..]
            .iter()
            .all(|d| *d == trace.deployments[1]));
    }

    #[test]
    fn saturated_rewarm_window_never_resumes() {
        use crate::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::none()
            .with(scripted(1, FaultKind::CheckpointCorrupt))
            .with(scripted(1, FaultKind::ControllerCrash));
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![900.0]);
        let rec = RecoveryOptions {
            rewarm_slots: usize::MAX,
            ..Default::default()
        };
        let opts = ExperimentOptions::default();
        let trace =
            run_experiment_recoverable(&mut sim, &mut GreedyUp, &mut arr, 6, opts, rec).unwrap();
        let actions: Vec<RecoveryAction> = trace.recovery_events.iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            vec![
                RecoveryAction::Crash,
                RecoveryAction::Degraded {
                    reason: DegradeReason::TornCheckpoint
                },
            ]
        );
        assert_eq!(trace.fallback_slots, 5);
    }

    #[test]
    fn run_experiment_ignores_control_plane_faults() {
        use crate::faults::{FaultKind, FaultPlan, FaultRates};
        let run = |plan: FaultPlan| {
            let mut sim = make_sim(None).with_faults(plan);
            let mut arr = ConstantArrival(vec![900.0]);
            run_experiment(&mut sim, &mut GreedyUp, &mut arr, 8).unwrap()
        };
        let control_plane = FaultPlan {
            scripted: vec![
                scripted(2, FaultKind::ControllerCrash),
                scripted(3, FaultKind::CheckpointCorrupt),
                scripted(4, FaultKind::CheckpointStale),
            ],
            rates: FaultRates {
                controller_crash_prob: 1.0,
                ..Default::default()
            },
        };
        assert_eq!(run(control_plane), run(FaultPlan::none()));
    }

    #[test]
    fn sanitized_metrics_reach_scaler_and_trace() {
        use crate::faults::{FaultPlan, FaultRates};
        let plan = FaultPlan {
            scripted: vec![],
            rates: FaultRates {
                metric_dropout_prob: 0.5,
                ..Default::default()
            },
        };
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![250.0]);
        let trace = run_experiment(&mut sim, &mut Static, &mut arr, 10).unwrap();
        let degraded = trace
            .slots
            .iter()
            .flat_map(|s| &s.operators)
            .filter(|o| o.degraded)
            .count();
        assert!(degraded > 0, "dropouts must surface as degraded readings");
        for s in &trace.slots {
            for o in &s.operators {
                assert!(o.cpu_util.is_finite() && o.cpu_util >= 0.0);
                assert!(o.capacity_sample.is_finite() && o.capacity_sample >= 0.0);
            }
        }
    }

    #[test]
    fn trace_json_tags_fault_and_recovery_events() {
        use crate::faults::{FaultKind, FaultPlan};
        use crate::json::parse_json;
        // A clean restore at slot 2; at slot 5 the newest checkpoint is
        // torn first, so that crash degrades and later resumes.
        let plan = FaultPlan::none()
            .with(scripted(1, FaultKind::ReconfigFail))
            .with(scripted(2, FaultKind::ControllerCrash))
            .with(scripted(5, FaultKind::CheckpointCorrupt))
            .with(scripted(5, FaultKind::ControllerCrash));
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment_recoverable(
            &mut sim,
            &mut GreedyUp,
            &mut arr,
            16,
            ExperimentOptions::default(),
            RecoveryOptions::default(),
        )
        .unwrap();
        let doc = parse_json(&trace.to_json().render()).unwrap();
        let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
        let actions: Vec<Json> = field(&doc, "recovery_events")
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| field(e, "action"))
            .collect();
        let tag = |name: &str| Json::Str(name.to_string());
        assert_eq!(actions.first(), Some(&tag("Crash")));
        let restored = field(&actions[1], "Restored");
        assert_eq!(field(&restored, "checkpoint_slot").as_usize(), Some(1));
        assert_eq!(field(&restored, "replayed_slots").as_usize(), Some(0));
        assert_eq!(actions[2], tag("Crash"));
        let degraded = field(&actions[3], "Degraded");
        assert_eq!(field(&degraded, "reason"), tag("TornCheckpoint"));
        assert_eq!(actions.last(), Some(&tag("Resumed")));

        let faults = field(&doc, "fault_events");
        let faults = faults.as_arr().unwrap();
        let kinds: Vec<Json> = faults.iter().map(|e| field(e, "kind")).collect();
        for kind in ["ReconfigFail", "ControllerCrash", "CheckpointCorrupt"] {
            assert!(kinds.contains(&tag(kind)), "{kind} missing from {kinds:?}");
        }
        assert_eq!(field(&faults[0], "operator"), Json::Null);
        assert_eq!(field(&doc, "controller_crashes").as_usize(), Some(2));
        assert_eq!(
            field(&doc, "slots").as_arr().map(<[Json]>::len),
            Some(trace.len())
        );
    }

    #[test]
    fn cost_per_billion() {
        let mut trace = Trace::default();
        trace.slots.push(SlotMetrics {
            t: 0,
            sim_time_secs: 600.0,
            throughput: 1.0,
            processed_tuples: 5e8,
            dropped_tuples: 0.0,
            cost_dollars: 10.0,
            pods: 1,
            source_rates: vec![1.0],
            reconfigured: false,
            pause_secs: 0.0,
            operators: vec![],
        });
        assert!((trace.cost_per_billion_tuples() - 20.0).abs() < 1e-12);
    }
}
