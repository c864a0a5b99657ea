//! Scale chaos tests: the fault matrix at 16 slaves, plus the two
//! nastiest timing windows — a second crash landing while the rollback
//! for the first is still in flight, and a crash landing inside the
//! final gather so the master must roll back and redo it.
//!
//! The timing-window tests exploit determinism instead of guessing:
//! a fault plan is invisible until its first fault fires, so a probe
//! run with a prefix of the plan reproduces the exact virtual times
//! (settlement, first death) at which to aim the next fault.

mod common;

use common::{chaos_cfg, chaos_matrix, slave_node};
use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{try_run, AppSpec, RunReport};
use dlb::sim::{FaultPlan, SimTime};
use std::sync::Arc;

const SLAVES: usize = 16;

fn mm() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    // 32 row-blocks over 16 slaves: two units each before balancing.
    let k = Arc::new(MatMul::new(32, 3, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn sor() -> (Arc<Sor>, dlb::compiler::ParallelPlan) {
    // 34 interior columns over 16 slaves.
    let k = Arc::new(Sor::new(36, 4, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn lu() -> (Arc<Lu>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(Lu::new(24, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

/// The chaos matrix at 16 slaves ([`chaos_matrix`]), exact as at 4: the
/// crash kills slave 5, seeds start at 3000.
#[test]
fn scale_matrix_sixteen_slaves_every_engine_exact() {
    chaos_matrix(SLAVES, 5, 3000, &mm(), &sor(), &lu());
}

/// A second slave crashes while the rollback for the first is still in
/// flight. The probe run (first crash only) pins the virtual time of the
/// first death declaration; the real run kills a second slave a few
/// hundred microseconds later — after the master has broadcast the
/// restore but before the victim can acknowledge it. The master must
/// notice the second death, roll back *again*, and still finish exactly.
#[test]
fn overlapping_crashes_during_inflight_rollback() {
    let (k, plan) = sor();
    let first = |seed| FaultPlan::new(seed).crash(slave_node(2), SimTime(300_000));

    let probe = try_run(
        AppSpec::Pipelined(k.clone()),
        &plan,
        chaos_cfg(SLAVES, first(11), true),
    )
    .expect("single-crash probe must recover");
    let death = probe
        .recovery
        .first_death
        .expect("probe must declare the crashed slave dead")
        .0;

    // Identical trace up to `death`, then the second victim dies with the
    // restore for the first rollback still unacknowledged on its link.
    let fault = first(11).crash(slave_node(9), SimTime(death + 300));
    let report = try_run(
        AppSpec::Pipelined(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("overlapping crashes must both be recovered");
    assert_eq!(
        k.result_grid(&report.result),
        k.sequential(),
        "double-crash result must be exact"
    );
    assert_eq!(
        report.recovery.slaves_declared_dead, 2,
        "both crashes must be detected: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.rollbacks >= 2,
        "the interrupted rollback must be re-done for the second death: {:?}",
        report.recovery
    );
}

/// Crash landing inside the final gather, checkpointed engine: the quiet
/// probe pins the settlement time, then the victim dies just after the
/// master sends `Gather` — before the request can even reach it. The
/// master must abandon the gather, roll the survivors back over the dead
/// slave's units, redo the work, and gather again — still bit-exact.
#[test]
fn crash_during_gather_is_rolled_back_and_redone() {
    let (k, plan) = sor();

    let probe = try_run(
        AppSpec::Pipelined(k.clone()),
        &plan,
        chaos_cfg(SLAVES, FaultPlan::new(13), true),
    )
    .expect("quiet probe must complete");
    let settle = probe.compute_time.0;

    let fault = FaultPlan::new(13).crash(slave_node(4), SimTime(settle + 50));
    let report = try_run(
        AppSpec::Pipelined(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("a death during gather must be recovered");
    assert_eq!(
        k.result_grid(&report.result),
        k.sequential(),
        "post-gather-crash result must be exact"
    );
    assert_eq!(report.recovery.slaves_declared_dead, 1);
    assert!(
        report.recovery.gathers_interrupted > 0,
        "the gather must have been interrupted by the death: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.rollbacks > 0,
        "the dead slave's final units must be redone from checkpoint: {:?}",
        report.recovery
    );
}

/// Same window for the independent engine: the master re-scatters or
/// recomputes the dead slave's finished-but-ungathered units instead of
/// rolling back.
#[test]
fn independent_crash_during_gather_recovers_units() {
    let (k, plan) = mm();

    let probe = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        chaos_cfg(SLAVES, FaultPlan::new(17), true),
    )
    .expect("quiet probe must complete");
    let settle = probe.compute_time.0;

    let fault = FaultPlan::new(17).crash(slave_node(7), SimTime(settle + 50));
    let report = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("a death during gather must be recovered");
    assert_eq!(
        MatMul::result_c(&report.result),
        k.sequential(),
        "post-gather-crash result must be exact"
    );
    assert_eq!(report.recovery.slaves_declared_dead, 1);
    assert!(
        report.recovery.gathers_interrupted > 0,
        "the gather must have been interrupted by the death: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.units_recomputed > 0 || report.recovery.units_restored > 0,
        "the dead slave's ungathered units must be recomputed or restored: {:?}",
        report.recovery
    );
}

/// Scale runs stay deterministic: the 16-slave double-crash scenario
/// reproduces the identical trace, counters, and result.
#[test]
fn scale_recovery_is_deterministic() {
    let (k, plan) = lu();
    let run_one = || {
        let fault = FaultPlan::new(23)
            .drop_all(0.02)
            .crash(slave_node(3), SimTime(200_000));
        try_run(
            AppSpec::Shrinking(k.clone()),
            &plan,
            chaos_cfg(SLAVES, fault, true),
        )
        .expect("shrinking engine must recover at scale")
    };
    let a: RunReport = run_one();
    let b: RunReport = run_one();
    assert_eq!(a.sim.trace_hash, b.sim.trace_hash, "same seed ⇒ same trace");
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(Lu::result_cols(&a.result), k.sequential());
}
