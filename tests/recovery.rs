//! Crash-safe controller runtime at the system level (DESIGN §10): the
//! replay-identity guarantee (crash anywhere, restore from checkpoint,
//! replay the journal ⇒ bit-identical remaining trace), the degraded
//! fallback when the checkpoint does not validate, composition of
//! controller-crash faults with data-plane chaos, journal corruption
//! detection, and GP restores that cross scale refits and kernel swaps.

use dragster::core::{Dragster, DragsterConfig, OperatorGp, UcbConfig};
use dragster::gp::SquaredExp;
use dragster::sim::faults::{FaultKind, FaultPlan, FaultRates, ScriptedFault};
use dragster::sim::fluid::SimConfig;
use dragster::sim::journal::{DecisionJournal, JournalError, JournalRecord, ReconfigOutcome};
use dragster::sim::{
    run_experiment, run_experiment_recoverable, Autoscaler, ClusterConfig, ConstantArrival,
    DegradeReason, Deployment, ExperimentOptions, FluidSim, NoiseConfig, RawSlot, RecoveryAction,
    RecoveryOptions, RetryPolicy, SlotMetrics, Trace,
};
use dragster::workloads::word_count;

const SEED: u64 = 42;
const SLOTS: usize = 12;

fn make_sim(plan: FaultPlan, seed: u64) -> FluidSim {
    let w = word_count().unwrap();
    FluidSim::new(
        w.app.clone(),
        ClusterConfig::default(),
        SimConfig::default(),
        NoiseConfig::default(),
        seed,
        Deployment::uniform(w.app.n_operators(), 1),
    )
    .unwrap()
    .with_faults(plan)
}

fn run_recoverable(plan: FaultPlan, seed: u64, slots: usize, rec: RecoveryOptions) -> Trace {
    run_recoverable_scaler(plan, seed, slots, rec).0
}

/// [`run_recoverable`], also handing back the controller as the run left
/// it.
fn run_recoverable_scaler(
    plan: FaultPlan,
    seed: u64,
    slots: usize,
    rec: RecoveryOptions,
) -> (Trace, Dragster) {
    let w = word_count().unwrap();
    let mut sim = make_sim(plan, seed);
    let mut scaler = Dragster::new(w.app.topology.clone(), DragsterConfig::saddle_point());
    let mut arrival = ConstantArrival(w.high_rate.clone());
    let trace = run_experiment_recoverable(
        &mut sim,
        &mut scaler,
        &mut arrival,
        slots,
        ExperimentOptions::default(),
        rec,
    )
    .unwrap();
    (trace, scaler)
}

fn crash_at(slot: usize) -> FaultPlan {
    FaultPlan::none().with(crash(slot))
}

fn crash(slot: usize) -> ScriptedFault {
    ScriptedFault {
        slot,
        kind: FaultKind::ControllerCrash,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    }
}

/// The data-plane face of two traces must match bit-for-bit; only the
/// recovery bookkeeping (crash counters, recovery events, controller
/// fault events) is allowed to differ.
fn assert_data_plane_identical(a: &Trace, b: &Trace, ctx: &str) {
    assert_eq!(a.slots, b.slots, "{ctx}: slot metrics diverged");
    assert_eq!(a.deployments, b.deployments, "{ctx}: deployments diverged");
    assert_eq!(
        a.ideal_throughput, b.ideal_throughput,
        "{ctx}: ideal throughput diverged"
    );
    assert_eq!(
        a.reconfig_failures, b.reconfig_failures,
        "{ctx}: reconfig failures diverged"
    );
    assert_eq!(a.held_slots, b.held_slots, "{ctx}: held slots diverged");
}

#[test]
fn inert_plan_recoverable_run_matches_run_experiment_bit_identically() {
    let w = word_count().unwrap();
    let baseline = {
        let mut sim = make_sim(FaultPlan::none(), SEED);
        let mut scaler = dragster::core::Dragster::new(
            w.app.topology.clone(),
            dragster::core::DragsterConfig::saddle_point(),
        );
        let mut arrival = ConstantArrival(w.high_rate.clone());
        run_experiment(&mut sim, &mut scaler, &mut arrival, SLOTS).unwrap()
    };
    let recoverable = run_recoverable(FaultPlan::none(), SEED, SLOTS, RecoveryOptions::default());
    assert_eq!(
        baseline, recoverable,
        "zero-fault recoverable trace must equal the plain harness trace"
    );
    assert_eq!(recoverable.controller_crashes, 0);
    assert!(recoverable.recovery_events.is_empty());
    assert_eq!(recoverable.fallback_slots, 0);
}

#[test]
fn crash_restore_replay_is_bit_identical_at_every_probe_slot() {
    let clean = run_recoverable(FaultPlan::none(), SEED, SLOTS, RecoveryOptions::default());
    for k in [1, SLOTS / 2, SLOTS - 1] {
        let crashed = run_recoverable(crash_at(k), SEED, SLOTS, RecoveryOptions::default());
        assert_eq!(crashed.controller_crashes, 1);
        assert!(
            crashed
                .recovery_events
                .iter()
                .any(|e| e.slot == k && matches!(e.action, RecoveryAction::Restored { .. })),
            "crash at slot {k} should restore, got {:?}",
            crashed.recovery_events
        );
        assert_eq!(crashed.fallback_slots, 0, "restore must not enter fallback");
        assert_data_plane_identical(&clean, &crashed, &format!("crash at slot {k}"));
    }
}

#[test]
fn saturated_retry_backoff_checkpoints_restore() {
    // A failed reconfiguration under an unbounded backoff holds the
    // deployment for the rest of the run. The retry position then sits at
    // the largest slot a checkpoint can carry, so the crash at slot 4
    // restores instead of degrading on an undecodable checkpoint.
    let w = word_count().unwrap();
    let opts = ExperimentOptions {
        retry: RetryPolicy {
            base_backoff_slots: usize::MAX,
            max_backoff_slots: usize::MAX,
        },
        ..ExperimentOptions::default()
    };
    let fail = ScriptedFault {
        slot: 1,
        kind: FaultKind::ReconfigFail,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    };
    let run = |plan: FaultPlan| {
        let mut sim = make_sim(plan, SEED);
        let mut scaler = Dragster::new(w.app.topology.clone(), DragsterConfig::saddle_point());
        let mut arrival = ConstantArrival(w.high_rate.clone());
        run_experiment_recoverable(
            &mut sim,
            &mut scaler,
            &mut arrival,
            SLOTS,
            opts,
            RecoveryOptions::default(),
        )
        .unwrap()
    };
    let clean = run(FaultPlan::none().with(fail));
    assert_eq!(clean.reconfig_failures, 1);
    assert!(
        clean.held_slots > 0,
        "the failure should hold the deployment"
    );
    let crashed = run(FaultPlan::none().with(fail).with(crash(4)));
    assert!(
        crashed
            .recovery_events
            .iter()
            .any(|e| e.slot == 4 && matches!(e.action, RecoveryAction::Restored { .. })),
        "crash at slot 4 should restore, got {:?}",
        crashed.recovery_events
    );
    assert_eq!(crashed.fallback_slots, 0, "restore must not enter fallback");
    assert_data_plane_identical(&clean, &crashed, "saturated backoff, crash at slot 4");
}

#[test]
fn sparse_checkpoints_replay_journal_records_to_the_crash_point() {
    let rec = RecoveryOptions {
        checkpoint_every: 5,
        ..Default::default()
    };
    let clean = run_recoverable(FaultPlan::none(), SEED, SLOTS, rec);
    // Crash at slot 9: newest checkpoint is slot 5, so slots 6–8 must be
    // rebuilt from the journal.
    let crashed = run_recoverable(crash_at(9), SEED, SLOTS, rec);
    assert!(
        crashed.recovery_events.iter().any(|e| e.slot == 9
            && e.action
                == RecoveryAction::Restored {
                    checkpoint_slot: 5,
                    replayed_slots: 3,
                }),
        "expected restore from checkpoint 5 with 3 replayed slots, got {:?}",
        crashed.recovery_events
    );
    assert_data_plane_identical(&clean, &crashed, "sparse-checkpoint crash at slot 9");
}

/// Every recovery path under a 4-slot cadence, with the journal compacted
/// to the records after each written checkpoint: restores replay exactly
/// the slots since the newest checkpoint (a suppressed checkpoint leaves
/// the previous one and its records in place), and a torn checkpoint
/// degrades. The events are the ones the uncompacted journal produced.
#[test]
fn compacted_journal_keeps_restores_and_recovery_events() {
    let fault = |slot, kind| ScriptedFault {
        slot,
        kind,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    };
    let plan = crash_at(2)
        .with(crash(7))
        .with(fault(12, FaultKind::CheckpointStale))
        .with(crash(13))
        .with(fault(18, FaultKind::CheckpointCorrupt))
        .with(crash(18));
    let rec = RecoveryOptions {
        checkpoint_every: 4,
        rewarm_slots: 3,
        ..Default::default()
    };
    let trace = run_recoverable(plan, SEED, 24, rec);
    let restored = |checkpoint_slot, replayed_slots| RecoveryAction::Restored {
        checkpoint_slot,
        replayed_slots,
    };
    let events: Vec<(usize, RecoveryAction)> = trace
        .recovery_events
        .iter()
        .map(|e| (e.slot, e.action))
        .collect();
    assert_eq!(
        events,
        vec![
            (2, RecoveryAction::Crash),
            (2, restored(0, 1)),
            (7, RecoveryAction::Crash),
            (7, restored(4, 2)),
            (13, RecoveryAction::Crash),
            (13, restored(8, 4)),
            (18, RecoveryAction::Crash),
            (
                18,
                RecoveryAction::Degraded {
                    reason: DegradeReason::TornCheckpoint
                }
            ),
            (21, RecoveryAction::Resumed),
        ]
    );
    let clean = run_recoverable(FaultPlan::none(), SEED, 24, rec);
    assert_eq!(
        trace.deployments[..18],
        clean.deployments[..18],
        "the restores must rebuild the uninterrupted run"
    );
}

#[test]
fn torn_checkpoint_degrades_and_holds_the_deployment() {
    // Corrupt the newest checkpoint in the same slot the crash lands: the
    // restore sees a torn blob and must fall back.
    let plan = crash_at(7).with(ScriptedFault {
        slot: 7,
        kind: FaultKind::CheckpointCorrupt,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    });
    let rec = RecoveryOptions {
        rewarm_slots: 3,
        ..Default::default()
    };
    let trace = run_recoverable(plan, SEED, SLOTS, rec);
    assert!(
        trace.recovery_events.iter().any(|e| e.slot == 7
            && e.action
                == RecoveryAction::Degraded {
                    reason: DegradeReason::TornCheckpoint,
                }),
        "torn checkpoint should degrade, got {:?}",
        trace.recovery_events
    );
    assert_eq!(trace.fallback_slots, 3, "deployment held for rewarm window");
    // The held window really holds: deployments are frozen over it.
    for t in 7..10 {
        assert_eq!(
            trace.deployments[t], trace.deployments[7],
            "deployment moved during fallback at slot {t}"
        );
    }
    assert!(
        trace
            .recovery_events
            .iter()
            .any(|e| e.action == RecoveryAction::Resumed),
        "fallback window should end with a resume, got {:?}",
        trace.recovery_events
    );
}

#[test]
fn stale_checkpoint_degrades() {
    // Checkpoints only at slot 0; crash at slot 8 exceeds the 2-slot
    // staleness bound.
    let rec = RecoveryOptions {
        checkpoint_every: 100,
        max_checkpoint_age_slots: 2,
        rewarm_slots: 2,
    };
    let trace = run_recoverable(crash_at(8), SEED, SLOTS, rec);
    assert!(
        trace.recovery_events.iter().any(|e| e.slot == 8
            && e.action
                == RecoveryAction::Degraded {
                    reason: DegradeReason::StaleCheckpoint,
                }),
        "stale checkpoint should degrade, got {:?}",
        trace.recovery_events
    );
    assert!(trace.fallback_slots > 0);
}

#[test]
fn controller_crash_layers_onto_data_plane_chaos_without_perturbing_it() {
    let data_plane = FaultPlan {
        scripted: vec![],
        rates: FaultRates {
            pod_crash_prob: 0.1,
            metric_corrupt_prob: 0.15,
            metric_corrupt_factor: 30.0,
            ..Default::default()
        },
    };
    let base = run_recoverable(data_plane.clone(), SEED, SLOTS, RecoveryOptions::default());
    let layered_plan = FaultPlan {
        scripted: crash_at(6).scripted,
        rates: data_plane.rates,
    };
    let layered = run_recoverable(
        layered_plan.clone(),
        SEED,
        SLOTS,
        RecoveryOptions::default(),
    );
    assert_eq!(layered.controller_crashes, 1);
    // The crash restores (checkpoint_every = 1), so decisions — and hence
    // the engine realization — are bit-identical to the crash-free run.
    assert_data_plane_identical(&base, &layered, "controller crash over data-plane chaos");
    let engine_events = |t: &Trace| {
        t.fault_events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    FaultKind::ControllerCrash
                        | FaultKind::CheckpointCorrupt
                        | FaultKind::CheckpointStale
                )
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        engine_events(&base),
        engine_events(&layered),
        "data-plane fault realization must not shift under controller faults"
    );
    // Determinism: the layered run reproduces itself exactly.
    let again = run_recoverable(layered_plan, SEED, SLOTS, RecoveryOptions::default());
    assert_eq!(layered, again);
}

#[test]
fn scripted_and_stochastic_crash_never_double_fire_in_one_slot() {
    let plan = FaultPlan {
        scripted: crash_at(4).scripted,
        rates: FaultRates {
            controller_crash_prob: 1.0,
            ..Default::default()
        },
    };
    let trace = run_recoverable(plan, SEED, 8, RecoveryOptions::default());
    for t in 0..8 {
        let crashes_at_t = trace
            .fault_events
            .iter()
            .filter(|e| e.slot == t && e.kind == FaultKind::ControllerCrash)
            .count();
        assert_eq!(
            crashes_at_t, 1,
            "slot {t}: scripted + stochastic crash must collapse to one event"
        );
    }
    assert_eq!(trace.controller_crashes, 8);
}

#[test]
fn journal_detects_corruption_and_gaps() {
    let raw = SlotMetrics {
        t: 0,
        sim_time_secs: 0.0,
        throughput: 100.0,
        processed_tuples: 100.0,
        dropped_tuples: 0.0,
        cost_dollars: 1.0,
        pods: 2,
        source_rates: vec![50.0],
        reconfigured: false,
        pause_secs: 0.0,
        operators: vec![],
    };
    let mut journal = DecisionJournal::new();
    for t in 0..5 {
        journal.append(&JournalRecord {
            t,
            raw: RawSlot::new(SlotMetrics { t, ..raw.clone() }),
            deployment_before: vec![1, 1],
            decided: vec![2, 2],
            outcome: ReconfigOutcome::Applied,
        });
    }
    // Intact journal round-trips.
    let records = journal.replay_range(0, 5).unwrap();
    assert_eq!(records.len(), 5);
    assert_eq!(records[3].t, 3);
    assert_eq!(records[3].decided, vec![2, 2]);
    // A torn record for slot 2 is caught by its checksum.
    journal.corrupt_record(2);
    match journal.replay_range(0, 5) {
        Err(JournalError::Corrupt { slot, .. }) => assert_eq!(slot, 2),
        other => panic!("expected corrupt-record error, got {other:?}"),
    }
    // A missing slot is reported as a gap.
    let mut sparse = DecisionJournal::new();
    for t in [0usize, 1, 3, 4] {
        sparse.append(&JournalRecord {
            t,
            raw: RawSlot::new(SlotMetrics { t, ..raw.clone() }),
            deployment_before: vec![1, 1],
            decided: vec![1, 1],
            outcome: ReconfigOutcome::Held,
        });
    }
    match sparse.replay_range(0, 5) {
        Err(JournalError::Gap { slot }) => assert_eq!(slot, 2),
        other => panic!("expected gap error, got {other:?}"),
    }
}

/// With seed 42 the WordCount GPs swap kernels from the configured
/// (ℓ 3, σ² 1) to (8, 0.05) at 12 observations (slot 11) and to (1, 0.05)
/// at 60 (slot 59); a silent 2.5× capacity corruption at slot 30, below the
/// sanitizer's spike factor, makes the first GP refit its scale. Each
/// crash lands just after one of those events, late enough that even the
/// 5-slot cadence restores from a checkpoint taken after it, so every
/// restore rebuilds a refitted GP from its checkpointed scale and kernel.
#[test]
fn long_crash_run_restores_refitted_gps_bit_identically() {
    const LONG: usize = 80;
    let corrupt = ScriptedFault {
        slot: 30,
        kind: FaultKind::MetricCorrupt,
        operator: Some(0),
        severity: 2.5,
        duration_slots: 1,
    };
    let crashes = [17, 33, 62, 77];
    for checkpoint_every in [1, 5] {
        let rec = RecoveryOptions {
            checkpoint_every,
            ..Default::default()
        };
        let (clean, clean_scaler) =
            run_recoverable_scaler(FaultPlan::none().with(corrupt), SEED, LONG, rec);
        let mut plan = FaultPlan::none().with(corrupt);
        for slot in crashes {
            plan = plan.with(crash(slot));
        }
        let (crashed, _) = run_recoverable_scaler(plan, SEED, LONG, rec);
        let ctx = format!("checkpoint_every {checkpoint_every}");
        assert_eq!(crashed.controller_crashes, crashes.len(), "{ctx}");
        for slot in crashes {
            assert!(
                crashed
                    .recovery_events
                    .iter()
                    .any(|e| e.slot == slot && matches!(e.action, RecoveryAction::Restored { .. })),
                "{ctx}: crash at slot {slot} should restore, got {:?}",
                crashed.recovery_events
            );
        }
        assert_eq!(crashed.fallback_slots, 0, "{ctx}: restore entered fallback");
        assert_data_plane_identical(&clean, &crashed, &ctx);

        // The clean run's GPs left the configured kernel behind, and a
        // restore keeps the kernel they learned.
        let cfg = DragsterConfig::saddle_point();
        let configured = SquaredExp::new(cfg.ucb.length_scale);
        let state = clean_scaler.export_state().expect("dragster exports state");
        let w = word_count().unwrap();
        let mut restored = Dragster::new(w.app.topology.clone(), cfg);
        restored.import_state(&state).expect("import succeeds");
        for (live, back) in clean_scaler
            .operator_gps()
            .iter()
            .zip(restored.operator_gps())
        {
            assert_ne!(*back.kernel(), configured, "{ctx}: kernel never swapped");
            assert_eq!(back.kernel(), live.kernel(), "{ctx}: kernel not restored");
            assert_eq!(back.scale().to_bits(), live.scale().to_bits(), "{ctx}");
        }
    }
}

/// Restores `gp` from exactly what a checkpoint carries for it.
fn restore(gp: &OperatorGp, cfg: UcbConfig) -> OperatorGp {
    OperatorGp::restore(cfg, gp.scale(), *gp.kernel(), gp.history().to_vec()).unwrap()
}

/// Bitwise equality of everything a decision reads from a GP: scale,
/// kernel, capacity estimates and acquisition tables.
fn assert_same_model(a: &OperatorGp, b: &OperatorGp, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: history length");
    assert_eq!(a.scale().to_bits(), b.scale().to_bits(), "{ctx}: scale");
    assert_eq!(a.kernel(), b.kernel(), "{ctx}: kernel");
    for x in 1..=10 {
        assert_eq!(
            a.capacity_estimate(x).to_bits(),
            b.capacity_estimate(x).to_bits(),
            "{ctx}: capacity estimate at {x} tasks"
        );
    }
    for (target, beta) in [(0.0, 0.0), (350.0, 0.7), (4.0e4, 2.5)] {
        let ta = a.acquisition_table(target, beta);
        let tb = b.acquisition_table(target, beta);
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ta), bits(&tb), "{ctx}: acquisition table");
    }
}

/// A random capacity stream whose per-task rate jumps twice (at samples 3
/// and 60), forcing scale refits after hyper-parameter refits have run.
fn sample_stream(seed: u64, n: usize) -> Vec<(usize, f64)> {
    let mut state = seed;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..n)
        .map(|i| {
            let tasks = usize::try_from(next() % 10 + 1).unwrap();
            let boost = match i {
                0..3 => 1.0,
                3..60 => 50.0,
                _ => 400.0,
            };
            let per_task = 80.0 + (next() % 400) as f64 / 10.0;
            (tasks, boost * tasks as f64 * per_task)
        })
        .collect()
}

/// `OperatorGp::restore` equals the live model bit for bit after every
/// sample, and a model restored mid-stream keeps equalling the live one —
/// which `observe` built by replay — over the later samples, across scale
/// refits and kernel swaps, for every refit cadence.
#[test]
fn restored_gp_equals_live_and_replay_built_models() {
    const SAMPLES: usize = 100;
    const CARRY_FROM: usize = 30;
    for (seed, every) in [(11, Some(3)), (12, Some(5)), (13, Some(12)), (14, None)] {
        let cfg = UcbConfig {
            noise_var: 1e-3,
            hyper_refit_every: every,
            ..Default::default()
        };
        let mut live = OperatorGp::new(cfg);
        let mut carried: Option<OperatorGp> = None;
        let mut swaps = 0;
        for (i, (tasks, cap)) in sample_stream(seed, SAMPLES).into_iter().enumerate() {
            let before = *live.kernel();
            live.observe(tasks, cap).unwrap();
            swaps += usize::from(*live.kernel() != before);
            let ctx = format!("refit {every:?}, sample {i}");
            assert_same_model(&live, &restore(&live, cfg), &ctx);
            if let Some(c) = carried.as_mut() {
                c.observe(tasks, cap).unwrap();
                assert_same_model(&live, c, &format!("{ctx}, carried"));
            }
            if i + 1 == CARRY_FROM {
                carried = Some(restore(&live, cfg));
            }
        }
        if every.is_some() {
            assert!(
                swaps > 0,
                "refit {every:?}: the stream never swapped kernels"
            );
        }
    }
}
