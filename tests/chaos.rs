//! Chaos tests: deterministic fault injection against the full runtime.
//!
//! The fault plan drops/duplicates/delays messages and crashes nodes at
//! scheduled virtual times; the run must never panic or hang. Since the
//! transfer-window protocol landed, *every* engine completes with a
//! bit-identical result under faults — the independent engine re-scatters
//! a dead slave's units, the pipelined and shrinking engines roll the
//! survivors back to the latest complete checkpoint — and the dynamic
//! balancer stays live throughout. Everything is seeded, so each case
//! reproduces exactly.

mod common;

use common::{chaos_cfg, chaos_matrix, slave_node};
use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{try_run, AppSpec};
use dlb::core::ProtocolError;
use dlb::sim::{FaultPlan, SimDuration, SimTime};
use std::sync::Arc;

const SLAVES: usize = 4;

fn mm() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    // ~23 ms per unit: long enough that scheduled crashes land mid-run,
    // short enough that one unit is far below the suspicion timeout.
    let k = Arc::new(MatMul::new(24, 3, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn sor() -> (Arc<Sor>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(Sor::new(18, 4, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn lu() -> (Arc<Lu>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(Lu::new(20, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn check_independent(report: &dlb::core::driver::RunReport, k: &MatMul, label: &str) {
    assert_eq!(
        MatMul::result_c(&report.result),
        k.sequential(),
        "{label}: result must be exact"
    );
}

/// A fault plan with no faults behaves exactly like a plain run: complete,
/// correct, and with every fault and recovery counter at zero.
#[test]
fn quiet_fault_plan_completes_normally() {
    let (k, plan) = mm();
    let report = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        chaos_cfg(SLAVES, FaultPlan::new(1), true),
    )
    .expect("quiet plan must complete");
    assert_eq!(MatMul::result_c(&report.result), k.sequential());
    assert!(
        !report.recovery.any(),
        "no recovery without faults: {:?}",
        report.recovery
    );
    assert!(
        !report.sim.fault.any(),
        "no faults injected: {:?}",
        report.sim.fault
    );
}

/// The full chaos matrix at 4 slaves ([`chaos_matrix`]): the crash kills
/// slave 1, seeds start at 1000.
#[test]
fn chaos_matrix_every_engine_completes_exactly() {
    chaos_matrix(SLAVES, 1, 1000, &mm(), &sor(), &lu());
}

/// The headline recovery scenario, balancer live: 5 % message drop plus
/// one mid-run node crash. The independent engine re-scatters the dead
/// slave's units and finishes bit-for-bit identical to the sequential
/// reference.
#[test]
fn independent_recovers_from_drops_and_crash() {
    let (k, plan) = mm();
    let fault = FaultPlan::new(42)
        .drop_all(0.05)
        .crash(slave_node(2), SimTime(200_000));
    let report = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("independent engine must recover");
    check_independent(&report, &k, "drops+crash");
    assert_eq!(report.recovery.slaves_declared_dead, 1);
    assert!(
        report.recovery.units_restored > 0
            || report.recovery.units_recomputed > 0
            || report.recovery.units_reowned > 0
            || report.recovery.speculations_committed > 0,
        "the dead slave's units must have been restored, re-owned, recomputed, \
         or speculatively re-executed: {:?}",
        report.recovery
    );
    assert!(report.sim.fault.msgs_dropped > 0);
}

/// A crashed slave under the independent engine is raced: before suspicion
/// expires, an idle survivor recomputes the suspect's units from the master's
/// ownership map and the master commits the speculation on eviction.
#[test]
fn independent_crash_speculates_on_idle_survivor() {
    let (k, plan) = mm();
    let fault = FaultPlan::new(5).crash(slave_node(1), SimTime(200_000));
    let report = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("independent engine must recover");
    check_independent(&report, &k, "crash+speculation");
    assert_eq!(report.recovery.slaves_declared_dead, 1);
    assert!(
        report.recovery.speculations_launched > 0,
        "the suspect's units must be raced on an idle survivor: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.speculations_computed > 0,
        "the executor must have recomputed the suspect's units: {:?}",
        report.recovery
    );
}

/// A mid-sweep crash under the pipelined engine rolls the survivors back
/// to the latest complete checkpoint and the run completes exactly. The
/// crash lands in the second sweep after slave 1 has sent its sweep-start
/// column left, so slave 0 finishes the sweep and waits at the barrier, an
/// idle survivor to race the suspect on.
#[test]
fn pipelined_crash_resumes_from_checkpoint() {
    let (k, plan) = sor();
    let fault = FaultPlan::new(9).crash(slave_node(1), SimTime(500_000));
    let report = try_run(
        AppSpec::Pipelined(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("pipelined engine must resume from checkpoint");
    assert_eq!(
        k.result_grid(&report.result),
        k.sequential(),
        "resumed result must be exact"
    );
    assert_eq!(report.recovery.slaves_declared_dead, 1);
    assert!(report.recovery.rollbacks > 0, "{:?}", report.recovery);
    assert!(
        report.recovery.checkpoints_banked > 0,
        "{:?}",
        report.recovery
    );
    assert!(
        report.recovery.rollbacks_applied > 0,
        "survivors must have applied the rollback: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.speculations_launched > 0,
        "the silent suspect's next sweep must be raced on an idle survivor: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.speculations_computed > 0,
        "the executor must have advanced the banked snapshot: {:?}",
        report.recovery
    );
}

/// Same for the shrinking engine: a crash mid-elimination resumes on the
/// survivors from the latest banked snapshot.
#[test]
fn shrinking_crash_resumes_from_checkpoint() {
    let (k, plan) = lu();
    let fault = FaultPlan::new(9).crash(slave_node(2), SimTime(200_000));
    let report = try_run(
        AppSpec::Shrinking(k.clone()),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect("shrinking engine must resume from checkpoint");
    assert_eq!(
        Lu::result_cols(&report.result),
        k.sequential(),
        "resumed result must be exact"
    );
    assert_eq!(report.recovery.slaves_declared_dead, 1);
    assert!(report.recovery.rollbacks > 0, "{:?}", report.recovery);
    assert!(
        report.recovery.checkpoints_banked > 0,
        "{:?}",
        report.recovery
    );
    assert!(
        report.recovery.speculations_launched > 0,
        "the silent suspect's next step must be raced on an idle survivor: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.speculations_computed > 0,
        "the executor must have advanced the banked snapshot: {:?}",
        report.recovery
    );
}

/// Message loss with the balancer live must not change LU's answer. A
/// transfer tagged one step ahead can be accepted a step early; at these
/// seeds its done columns were once taken as updated through the
/// receiver's step only, so the next step's update was applied twice.
#[test]
fn lossy_lu_transfer_from_a_step_ahead_is_not_updated_twice() {
    let (k, plan) = lu();
    for seed in [51, 70, 143] {
        let fault = FaultPlan::new(seed).drop_all(0.05);
        let report = try_run(
            AppSpec::Shrinking(k.clone()),
            &plan,
            chaos_cfg(SLAVES, fault, true),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {}", e.error));
        assert_eq!(
            Lu::result_cols(&report.result),
            k.sequential(),
            "seed {seed}: result must be exact"
        );
    }
}

/// Losing every slave is reported as such, not as a hang — even with
/// checkpoints banked there is nobody left to resume on.
#[test]
fn all_slaves_dead_is_reported() {
    let (k, plan) = mm();
    let mut fault = FaultPlan::new(3);
    for i in 0..SLAVES {
        fault = fault.crash(slave_node(i), SimTime(100_000 + i as u64 * 10_000));
    }
    let err = try_run(
        AppSpec::Independent(k),
        &plan,
        chaos_cfg(SLAVES, fault, true),
    )
    .expect_err("no survivors: the run cannot complete");
    assert!(
        matches!(err.error, ProtocolError::AllSlavesDead),
        "expected AllSlavesDead, got {}",
        err.error
    );
}

/// Fault injection is part of the deterministic trace: for every engine,
/// the same seed and plan reproduce the identical execution (trace hash,
/// fault counters, result); a different fault seed diverges.
#[test]
fn determinism_holds_under_faults() {
    let (k, plan) = mm();
    let build = |seed: u64| {
        FaultPlan::new(seed)
            .drop_all(0.05)
            .dup_all(0.02)
            .jitter_all(0.1, SimDuration::from_millis(20))
            .crash(slave_node(3), SimTime(250_000))
    };
    let run_one = |seed: u64| {
        try_run(
            AppSpec::Independent(k.clone()),
            &plan,
            chaos_cfg(SLAVES, build(seed), true),
        )
        .expect("independent engine must recover")
    };
    let a = run_one(77);
    let b = run_one(77);
    assert_eq!(a.sim.trace_hash, b.sim.trace_hash, "same seed ⇒ same trace");
    assert_eq!(a.sim.fault.msgs_dropped, b.sim.fault.msgs_dropped);
    assert_eq!(a.sim.fault.msgs_duplicated, b.sim.fault.msgs_duplicated);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(MatMul::result_c(&a.result), MatMul::result_c(&b.result));
    let c = run_one(78);
    assert_ne!(
        a.sim.trace_hash, c.sim.trace_hash,
        "different fault seed ⇒ different trace"
    );
}

/// Rollback recovery is itself deterministic: two pipelined runs with the
/// same crash plan produce the same trace, the same rollback count, and
/// the same (exact) result.
#[test]
fn pipelined_rollback_is_deterministic() {
    let (k, plan) = sor();
    let run_one = || {
        let fault = FaultPlan::new(31)
            .drop_all(0.02)
            .crash(slave_node(1), SimTime(300_000));
        try_run(
            AppSpec::Pipelined(k.clone()),
            &plan,
            chaos_cfg(SLAVES, fault, true),
        )
        .expect("pipelined engine must resume")
    };
    let a = run_one();
    let b = run_one();
    assert_eq!(a.sim.trace_hash, b.sim.trace_hash, "same seed ⇒ same trace");
    assert_eq!(a.recovery.rollbacks, b.recovery.rollbacks);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(k.result_grid(&a.result), k.sequential());
}

/// Edge cases of the transfer-window state machine driven directly (the
/// runtime exercises these same paths end-to-end above).
mod transfer_window {
    use dlb::core::protocol::{AckTracker, SenderWindow, TransferWindow};

    #[test]
    fn duplicate_delivery_is_accepted_once() {
        let mut w: TransferWindow<u32> = TransferWindow::new();
        assert!(w.accept(1), "first delivery applies");
        assert!(!w.accept(1), "duplicate is acked but not re-applied");
        assert!(w.accept(2));
        assert_eq!(w.recv_watermark(), 2);
    }

    #[test]
    fn out_of_order_delivery_applies_but_watermark_waits() {
        let mut w: TransferWindow<u32> = TransferWindow::new();
        assert!(w.accept(2), "seq 2 before seq 1 applies (idempotent apply)");
        assert_eq!(w.recv_watermark(), 0, "but the watermark holds at the gap");
        assert!(w.accept(1));
        assert_eq!(w.recv_watermark(), 2, "filling the gap releases both");
        assert!(!w.accept(2), "the straggler re-send is a duplicate now");
    }

    #[test]
    fn unacked_payloads_survive_for_resend() {
        let mut w: TransferWindow<&str> = TransferWindow::new();
        w.send_with(|_| "a");
        w.send_with(|_| "b");
        w.ack(1);
        let pending: Vec<&str> = w.unacked().map(|(_, p)| *p).collect();
        assert_eq!(pending, ["b"], "only the unacked payload is re-sendable");
        assert!(!w.fully_acked());
        w.ack(2);
        assert!(w.fully_acked());
    }

    #[test]
    fn stale_ack_never_regresses_the_watermark() {
        let mut w: SenderWindow<u32> = SenderWindow::new();
        w.send_with(|_| 10);
        w.send_with(|_| 20);
        w.ack(2);
        w.ack(1); // late duplicate of an older ack
        assert_eq!(w.watermark(), 2);
        assert!(w.fully_acked());
    }

    #[test]
    fn closed_channel_returns_in_flight_payloads_and_rejects_sends() {
        let mut w: TransferWindow<u32> = TransferWindow::new();
        w.send_with(|_| 7);
        w.send_with(|_| 8);
        w.ack(1);
        let reclaimed = w.close();
        assert_eq!(reclaimed, [8], "only unacked payloads are reclaimed");
        assert!(!w.is_open());
        assert!(w.send_with(|_| 9).is_none(), "closed channel refuses sends");
        w.reset();
        assert!(w.is_open(), "reset reopens for a new epoch");
        assert!(w.send_with(|_| 9).is_some());
    }

    #[test]
    fn ack_tracker_dedups_and_tracks_watermark() {
        let mut t = AckTracker::default();
        assert!(t.fresh(1));
        assert!(!t.fresh(1), "duplicates are never fresh");
        assert!(t.fresh(3), "out-of-order is fresh (applied immediately)");
        assert_eq!(t.watermark(), 1, "the watermark waits for the gap");
        assert!(t.fresh(2));
        assert!(!t.fresh(3));
        assert_eq!(t.watermark(), 3);
    }
}
