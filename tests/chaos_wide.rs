//! Wide chaos: the compound-fault matrix (crash × partition × join) for
//! all three engines at 256 slaves — the width the thread-per-node
//! runtime could not host. Every cell must end bit-exact against the
//! sequential reference, with all 257 actors polled on the kernel's one
//! thread.
//!
//! Problem sizes give each slave roughly one unit, so the interesting
//! pressure is protocol width: 256 status streams per barrier, 255-way
//! pivot broadcasts, re-scatters over 255 survivors.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::core::FaultToleranceConfig;
use dlb::sim::{FaultPlan, SimDuration, SimTime};
use std::sync::Arc;

const SLAVES: usize = 256;

/// Node 0 is the master; node `i + 1` is slave `i`.
fn slave_node(i: usize) -> usize {
    i + 1
}

/// Per-engine fault-tolerance windows. The suspicion window must exceed
/// the longest *legitimate* silent period, and that period scales with
/// pipeline depth: a rollback in the pipelined engine restarts the whole
/// wavefront, so a column 250 hops downstream legitimately hears nothing
/// for several virtual seconds. Independent units never stall on a peer,
/// so the independent engine keeps tight windows even at 256 slaves.
fn wide_cfg(plan: FaultPlan, suspicion_ms: u64) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(SLAVES);
    cfg.balancer.enabled = true;
    cfg.fault_plan = Some(plan);
    // Fail fast with a livelock diagnosis instead of burning the kernel's
    // 200M-event default if a protocol regression reintroduces cascades.
    cfg.max_events = Some(20_000_000);
    cfg.fault_tolerance =
        FaultToleranceConfig::with_suspicion(SimDuration::from_millis(suspicion_ms));
    cfg.fault_tolerance.rejoin_attempts = 10;
    cfg
}

/// Independent engine: no peer coupling, tight detector.
fn ind_cfg(plan: FaultPlan) -> RunConfig {
    wide_cfg(plan, 2_000)
}

/// Pipelined engine: detector must outlast a 256-column wavefront refill.
fn pipe_cfg(plan: FaultPlan) -> RunConfig {
    wide_cfg(plan, 16_000)
}

/// Shrinking engine: per-step pivot broadcasts couple everyone, but the
/// stall is one step, not a full refill.
fn shrink_cfg(plan: FaultPlan) -> RunConfig {
    wide_cfg(plan, 12_000)
}

/// The five windows each engine's config carries, written out in
/// milliseconds (suspicion, speculate_after, nudge, slave_heartbeat,
/// rejoin_backoff). The 300 ms heartbeat and 500 ms backoff floors bind only
/// under the independent engine's 2 s; `tests/event_budget.rs` and
/// `tests/alloc_budget.rs` pin the 12 s row for their own cells.
#[test]
fn detector_windows_are_pinned() {
    let windows = |cfg: RunConfig| {
        let ft = cfg.fault_tolerance;
        [
            ft.suspicion,
            ft.speculate_after,
            ft.nudge,
            ft.slave_heartbeat,
            ft.rejoin_backoff,
        ]
    };
    let ms = |v: [u64; 5]| v.map(SimDuration::from_millis);
    let quiet = || FaultPlan::new(0);
    assert_eq!(windows(ind_cfg(quiet())), ms([2_000, 1_250, 500, 300, 500]));
    assert_eq!(
        windows(shrink_cfg(quiet())),
        ms([12_000, 7_500, 3_000, 1_500, 3_000])
    );
    assert_eq!(
        windows(pipe_cfg(quiet())),
        ms([16_000, 10_000, 4_000, 2_000, 4_000])
    );
}

fn mm() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    // 256 row-blocks over 256 slaves, ~44 ms of virtual CPU per unit.
    let k = Arc::new(MatMul::new(256, 2, 7, &Calibration::new(3.0)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn sor() -> (Arc<Sor>, dlb::compiler::ParallelPlan) {
    // 298 interior columns over 256 slaves.
    let k = Arc::new(Sor::new(300, 3, 7, &Calibration::new(0.02)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn lu() -> (Arc<Lu>, dlb::compiler::ParallelPlan) {
    // 260 columns over 256 slaves; 259 shrinking steps.
    let k = Arc::new(Lu::new(260, 7, &Calibration::new(0.1)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

/// Longer independent run for the partition cell: six invocations keep
/// the master admitting at barriers while the healed minority rejoins.
fn mm_long() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(MatMul::new(256, 6, 7, &Calibration::new(3.0)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

/// Crash column of the matrix: one slave dies mid-run under every engine;
/// the master re-scatters (or rolls back) and the result stays exact.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "256-slave matrix needs an optimised build; CI runs it with --release"
)]
fn wide_crash_every_engine_exact() {
    let (mm_k, mm_plan) = mm();
    let fault = FaultPlan::new(9001).crash(slave_node(37), SimTime(400_000));
    let report = try_run(AppSpec::Independent(mm_k.clone()), &mm_plan, ind_cfg(fault))
        .expect("mm: wide crash must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: wide-crash result must be exact"
    );
    assert_eq!(report.recovery.slaves_declared_dead, 1);

    let (sor_k, sor_plan) = sor();
    let fault = FaultPlan::new(9002).crash(slave_node(123), SimTime(600_000));
    let report = try_run(
        AppSpec::Pipelined(sor_k.clone()),
        &sor_plan,
        pipe_cfg(fault),
    )
    .expect("sor: wide crash must be survivable");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: wide-crash result must be exact"
    );
    assert!(report.recovery.rollbacks > 0, "{:?}", report.recovery);

    let (lu_k, lu_plan) = lu();
    let fault = FaultPlan::new(9003).crash(slave_node(200), SimTime(500_000));
    let report = try_run(
        AppSpec::Shrinking(lu_k.clone()),
        &lu_plan,
        shrink_cfg(fault),
    )
    .expect("lu: wide crash must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        lu_k.sequential(),
        "lu: wide-crash result must be exact"
    );
    assert!(report.recovery.rollbacks > 0, "{:?}", report.recovery);
}

/// Partition column: a minority of slaves is cut off mid-run. The quorum
/// side evicts them and keeps computing; at the heal they rejoin as fresh
/// incarnations and reabsorb load — still bit-exact at 256 slaves. (LU's
/// minority is never evicted: see its cell.)
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "256-slave matrix needs an optimised build; CI runs it with --release"
)]
fn wide_partition_heal_rejoin_every_engine_exact() {
    let minority = |idx: &[usize]| vec![idx.iter().map(|&i| slave_node(i)).collect::<Vec<_>>()];

    let (mm_k, mm_plan) = mm_long();
    let fault = FaultPlan::new(9101).partition(
        SimTime(300_000),
        SimTime(3_000_000),
        minority(&[40, 41, 42]),
    );
    let report = try_run(AppSpec::Independent(mm_k.clone()), &mm_plan, ind_cfg(fault))
        .expect("mm: wide partition + heal must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: partition-heal result must be exact"
    );
    assert!(
        report.recovery.slaves_declared_dead >= 3,
        "{:?}",
        report.recovery
    );
    assert!(
        report.recovery.rejoins_after_eviction >= 1,
        "healed minority never rejoined: {:?}",
        report.recovery
    );

    let (sor_k, sor_plan) = sor();
    let fault = FaultPlan::new(9102).partition(
        SimTime(600_000),
        SimTime(40_000_000),
        minority(&[130, 131]),
    );
    let report = try_run(
        AppSpec::Pipelined(sor_k.clone()),
        &sor_plan,
        pipe_cfg(fault),
    )
    .expect("sor: wide partition + heal must be survivable");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: partition-heal result must be exact"
    );
    assert!(
        report.recovery.slaves_declared_dead >= 2,
        "{:?}",
        report.recovery
    );
    assert!(
        report.recovery.partitions_healed >= 1,
        "heal never observed: {:?}",
        report.recovery
    );

    let (lu_k, lu_plan) = lu();
    let fault = FaultPlan::new(9103).partition(
        SimTime(400_000),
        SimTime(8_000_000),
        minority(&[210, 211, 212]),
    );
    // The minority waits out the partition blocked on a pivot whose
    // broadcast the cut ate, and after the heal asks a peer for it again:
    // nobody is evicted, so nothing rolls back. (A slave that only waited
    // pinged for one window, fell silent and was evicted; the LU rejoin
    // path is pinned by the 16-slave `partition_heal_rejoin*` rows of
    // `tests/master_golden.rs`.)
    let cfg = shrink_cfg(fault);
    let report = try_run(AppSpec::Shrinking(lu_k.clone()), &lu_plan, cfg)
        .expect("lu: wide partition + heal must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        lu_k.sequential(),
        "lu: partition-heal result must be exact"
    );
    assert_eq!(
        report.recovery.slaves_declared_dead, 0,
        "{:?}",
        report.recovery
    );
    assert_eq!(report.recovery.rollbacks, 0, "{:?}", report.recovery);
}

/// Join column: a latecomer starts with an empty assignment and joins the
/// running 256-slave pool mid-run; the master admits it at a barrier and
/// re-scatters load onto it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "256-slave matrix needs an optimised build; CI runs it with --release"
)]
fn wide_late_join_every_engine_exact() {
    // The short two-invocation run finishes before the master reaches an
    // admission barrier; six invocations give the joiner a seat.
    let (mm_k, mm_plan) = mm_long();
    let mut cfg = ind_cfg(FaultPlan::new(9201));
    cfg.late_joiners = vec![(100, SimTime(300_000))];
    let report = try_run(AppSpec::Independent(mm_k.clone()), &mm_plan, cfg)
        .expect("mm: wide late join must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: late-join result must be exact"
    );
    assert!(report.recovery.joins_admitted >= 1, "{:?}", report.recovery);

    let (sor_k, sor_plan) = sor();
    let mut cfg = pipe_cfg(FaultPlan::new(9202));
    cfg.late_joiners = vec![(140, SimTime(400_000))];
    let report = try_run(AppSpec::Pipelined(sor_k.clone()), &sor_plan, cfg)
        .expect("sor: wide late join must be survivable");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: late-join result must be exact"
    );
    assert!(report.recovery.joins_admitted >= 1, "{:?}", report.recovery);

    let (lu_k, lu_plan) = lu();
    let mut cfg = shrink_cfg(FaultPlan::new(9203));
    cfg.late_joiners = vec![(55, SimTime(300_000))];
    let report = try_run(AppSpec::Shrinking(lu_k.clone()), &lu_plan, cfg)
        .expect("lu: wide late join must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        lu_k.sequential(),
        "lu: late-join result must be exact"
    );
    assert!(report.recovery.joins_admitted >= 1, "{:?}", report.recovery);
    assert!(
        report.recovery.rollbacks <= 6,
        "admission flaps: {:?}",
        report.recovery
    );
}
