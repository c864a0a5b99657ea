//! Elastic-membership chaos tests: mid-run join, partition + heal +
//! rejoin, and master crashes with a join in flight — all bit-exact
//! against the sequential reference.
//!
//! Three fault shapes per engine:
//! - **Late join**: a slave starts with an empty assignment, idles, and
//!   joins the running pool mid-run; the master admits it at the next
//!   barrier and re-scatters load onto it.
//! - **Partition + heal**: a 16-slave run is split; the quorum side (with
//!   the master) evicts the minority and keeps computing; after the heal
//!   the minority learns its eviction from the master's repeated verdict,
//!   rejoins as fresh incarnations, and reabsorbs load.
//! - **Crash during join**: the master dies with a join handshake in
//!   flight; the promoted deputy must admit the joiner under its reign.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{try_run, AppSpec, RunConfig, RunReport};
use dlb::core::FaultToleranceConfig;
use dlb::sim::{FaultPlan, SimDuration, SimTime, TraceKind};
use std::sync::Arc;

const SLAVES: usize = 16;

/// Node 0 is the master; node `i + 1` is slave `i`.
const MASTER_NODE: usize = 0;

fn slave_node(i: usize) -> usize {
    i + 1
}

/// Fault-mode config with tolerances tightened so evictions, heals, and
/// rejoins all fit inside a short virtual run, and elastic membership on.
fn join_cfg(plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(SLAVES);
    cfg.balancer.enabled = true;
    cfg.fault_plan = Some(plan);
    cfg.fault_tolerance.suspicion = SimDuration::from_millis(1000);
    cfg.fault_tolerance.speculate_after = SimDuration::from_millis(600);
    cfg.fault_tolerance.nudge = SimDuration::from_millis(300);
    cfg.fault_tolerance.slave_heartbeat = SimDuration::from_millis(200);
    cfg.fault_tolerance.rejoin_attempts = 10;
    cfg.fault_tolerance.rejoin_backoff = SimDuration::from_millis(300);
    cfg
}

/// Tighter timers for the partition tests: the eviction, heal, and rejoin
/// must all land inside a short MatMul/LU run. SOR keeps gentler timers
/// (see `sor_cfg`) — its compute chunks outlast a 500ms suspicion window.
fn partition_cfg(plan: FaultPlan) -> RunConfig {
    let mut cfg = join_cfg(plan);
    cfg.fault_tolerance.suspicion = SimDuration::from_millis(500);
    cfg.fault_tolerance.speculate_after = SimDuration::from_millis(400);
    cfg.fault_tolerance.nudge = SimDuration::from_millis(200);
    cfg.fault_tolerance.slave_heartbeat = SimDuration::from_millis(100);
    cfg.fault_tolerance.rejoin_backoff = SimDuration::from_millis(200);
    cfg
}

fn sor_cfg(plan: FaultPlan) -> RunConfig {
    let mut cfg = join_cfg(plan);
    cfg.fault_tolerance.suspicion = SimDuration::from_millis(2000);
    cfg.fault_tolerance.speculate_after = SimDuration::from_millis(1600);
    cfg.fault_tolerance.nudge = SimDuration::from_millis(800);
    cfg.fault_tolerance.rejoin_backoff = SimDuration::from_millis(400);
    cfg
}

fn mm() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    // 32 row-blocks over 16 slaves: two units each before balancing.
    let k = Arc::new(MatMul::new(32, 3, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn mm_long() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    // Enough invocations (~1.2s fault-free) that a partition window can
    // open, evict, heal, and still leave barriers for the re-admissions.
    let k = Arc::new(MatMul::new(32, 12, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn sor() -> (Arc<Sor>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(Sor::new(36, 4, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn lu() -> (Arc<Lu>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(Lu::new(24, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn lu_long() -> (Arc<Lu>, dlb::compiler::ParallelPlan) {
    let k = Arc::new(Lu::new(40, 7, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    (k, plan)
}

fn assert_joined(report: &RunReport, label: &str, at_least: u64) {
    assert!(
        report.recovery.joins_admitted >= at_least,
        "{label}: expected >= {at_least} admissions: {:?}",
        report.recovery
    );
}

/// A latecomer slave (empty initial assignment) joins mid-run under every
/// engine; the balancer re-scatters load onto it and the result stays
/// bit-exact.
#[test]
fn late_join_every_engine_exact() {
    let (mm_k, mm_plan) = mm();
    let mut cfg = join_cfg(FaultPlan::new(7001));
    cfg.late_joiners = vec![(5, SimTime(150_000))];
    let report = try_run(AppSpec::Independent(mm_k.clone()), &mm_plan, cfg)
        .expect("mm: late join must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: late-join result must be exact"
    );
    assert_joined(&report, "mm", 1);

    let (sor_k, sor_plan) = sor();
    let mut cfg = join_cfg(FaultPlan::new(7002));
    cfg.late_joiners = vec![(7, SimTime(200_000))];
    let report = try_run(AppSpec::Pipelined(sor_k.clone()), &sor_plan, cfg)
        .expect("sor: late join must be survivable");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: late-join result must be exact"
    );
    assert_joined(&report, "sor", 1);
    assert!(
        report.recovery.join_snapshot_bytes > 0,
        "sor: the joiner must have been shipped a snapshot: {:?}",
        report.recovery
    );

    let (lu_k, lu_plan) = lu();
    let mut cfg = join_cfg(FaultPlan::new(7003));
    cfg.late_joiners = vec![(9, SimTime(150_000))];
    let report = try_run(AppSpec::Shrinking(lu_k.clone()), &lu_plan, cfg)
        .expect("lu: late join must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        lu_k.sequential(),
        "lu: late-join result must be exact"
    );
    assert_joined(&report, "lu", 1);
}

/// LU under the `tests/chaos_wide.rs` shrinking windows (suspicion 12 s),
/// polled inline: the two cells below are about which message overtakes
/// which, not about the pool.
fn lu_wide_cfg(slaves: usize, plan: FaultPlan, rejoin_attempts: u32) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(slaves);
    cfg.balancer.enabled = true;
    cfg.fault_plan = Some(plan);
    cfg.worker_threads = Some(0);
    cfg.max_events = Some(20_000_000);
    cfg.fault_tolerance = FaultToleranceConfig::with_suspicion(SimDuration::from_secs(12));
    cfg.fault_tolerance.rejoin_attempts = rejoin_attempts;
    cfg
}

/// One crash is one eviction and one rollback (`e2e_bench`'s `rejoin_w16`:
/// LU n=260 over 16 slaves, slave 0 dies at 0.5 s, rejoin on). The master
/// ships the 15 survivors their ~36 KB `Rollback`s one after another; the
/// first to replay the resumed step broadcasts its 2 KB pivot, which
/// overtakes the later survivors' own `Rollback`. A survivor that loses it
/// there waits for a broadcast nobody repeats until someone is evicted —
/// 63 rollbacks and 36 evictions for this one crash, before pivots were
/// allowed through the epoch fence.
#[test]
fn one_crash_is_one_rollback_when_the_pivot_overtakes_it() {
    let k = Arc::new(Lu::new(260, 7, &Calibration::new(0.1)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    let fault = FaultPlan::new(7).crash(slave_node(0), SimTime(500_000));
    let report = try_run(
        AppSpec::Shrinking(k.clone()),
        &plan,
        lu_wide_cfg(SLAVES, fault, 2),
    )
    .expect("lu: one crash must be survivable");
    assert_eq!(Lu::result_cols(&report.result), k.sequential());
    let rec = &report.recovery;
    assert_eq!(
        (rec.slaves_declared_dead, rec.rollbacks),
        (1, 1),
        "lu: the rejoin flap is back: {rec:?}"
    );
}

/// The same race on the joiner's side, which needs width: at 96 slaves the
/// replayed step's pivot reaches the latecomer while it is still waiting
/// for its admission `Rollback` in the join handshake. Dropped there as
/// previous-life traffic, the joiner is admitted, wedges, is evicted and
/// rejoins (2 evictions, 5 rollbacks, 54 virtual seconds); left queued, the
/// resumed step takes it from the mailbox.
#[test]
fn a_joiner_keeps_the_pivot_that_beats_its_admission() {
    let k = Arc::new(Lu::new(100, 7, &Calibration::new(0.1 * 100.0 / 260.0)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    let mut cfg = lu_wide_cfg(96, FaultPlan::new(7), 10);
    cfg.late_joiners = vec![(40, SimTime(300_000))];
    let report = try_run(AppSpec::Shrinking(k.clone()), &plan, cfg)
        .expect("lu: wide late join must be survivable");
    assert_eq!(Lu::result_cols(&report.result), k.sequential());
    assert_joined(&report, "lu wide", 1);
    let rec = &report.recovery;
    assert_eq!(
        (rec.slaves_declared_dead, rec.rollbacks),
        (0, 1),
        "lu: the admission flaps: {rec:?}"
    );
}

/// The headline scenario: a 16-slave run is partitioned mid-run. The
/// quorum side (master + 13 slaves) evicts the cut-off minority and keeps
/// computing; when the partition heals the minority rejoins as fresh
/// incarnations and reabsorbs load — bit-exact for every engine.
#[test]
fn partition_heal_rejoin_every_engine_exact() {
    // Minority: slaves 12..15 (nodes 13..16). Deputies (slaves 0..2) stay
    // with the master so no election fires inside the minority.
    let minority: Vec<usize> = (12..16).map(slave_node).collect();
    let partition = |seed: u64, from: u64, until: u64| {
        FaultPlan::new(seed).partition(SimTime(from), SimTime(until), vec![minority.clone()])
    };

    let (mm_k, mm_plan) = mm_long();
    let report = try_run(
        AppSpec::Independent(mm_k.clone()),
        &mm_plan,
        partition_cfg(partition(7101, 150_000, 1_200_000)),
    )
    .expect("mm: partition + heal must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: partition-heal result must be exact"
    );
    assert!(
        report.recovery.slaves_declared_dead >= 4,
        "mm: the quorum side must have evicted the minority: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.rejoins_after_eviction >= 4,
        "mm: the minority must have rejoined after the heal: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.partitions_healed >= 1,
        "mm: a heal must have been recorded: {:?}",
        report.recovery
    );

    let (sor_k, sor_plan) = sor();
    let report = try_run(
        AppSpec::Pipelined(sor_k.clone()),
        &sor_plan,
        sor_cfg(partition(7102, 200_000, 3_000_000)),
    )
    .expect("sor: partition + heal must be survivable");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: partition-heal result must be exact"
    );
    assert!(
        report.recovery.rejoins_after_eviction >= 1,
        "sor: at least one minority slave must have rejoined: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.partitions_healed >= 1,
        "sor: a heal must have been recorded: {:?}",
        report.recovery
    );

    let (lu_k, lu_plan) = lu_long();
    let report = try_run(
        AppSpec::Shrinking(lu_k.clone()),
        &lu_plan,
        partition_cfg(partition(7103, 150_000, 1_200_000)),
    )
    .expect("lu: partition + heal must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        lu_k.sequential(),
        "lu: partition-heal result must be exact"
    );
    assert!(
        report.recovery.rejoins_after_eviction >= 1,
        "lu: at least one minority slave must have rejoined: {:?}",
        report.recovery
    );
}

/// The master dies with a latecomer's join in flight: the promoted deputy
/// must adopt the incarnation table from the replica and admit the joiner
/// under its own reign — for both the recoverable and the checkpointed
/// master paths.
#[test]
fn master_crash_while_join_in_flight() {
    let (mm_k, mm_plan) = mm();
    let mut cfg = join_cfg(FaultPlan::new(7201).crash(MASTER_NODE, SimTime(160_000)));
    cfg.late_joiners = vec![(5, SimTime(150_000))];
    let report = try_run(AppSpec::Independent(mm_k.clone()), &mm_plan, cfg)
        .expect("mm: master crash during a join must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: crash-during-join result must be exact"
    );
    assert!(
        report.recovery.elections_held >= 1,
        "mm: a deputy must have taken over: {:?}",
        report.recovery
    );
    assert_joined(&report, "mm", 1);

    let (sor_k, sor_plan) = sor();
    let mut cfg = join_cfg(FaultPlan::new(7202).crash(MASTER_NODE, SimTime(210_000)));
    cfg.late_joiners = vec![(7, SimTime(200_000))];
    let report = try_run(AppSpec::Pipelined(sor_k.clone()), &sor_plan, cfg)
        .expect("sor: master crash during a join must be survivable");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: crash-during-join result must be exact"
    );
    assert!(
        report.recovery.elections_held >= 1,
        "sor: a deputy must have taken over: {:?}",
        report.recovery
    );
    assert_joined(&report, "sor", 1);
}

/// A latecomer whose join instant falls after the master's end: the
/// finished master answers its `Join` with `Abort`, so it stops one round
/// trip later, inside its first back-off, instead of waiting out all of
/// them.
#[test]
fn a_join_after_the_end_is_answered_at_once() {
    let (k, plan) = mm();
    let at = SimTime(5_000_000);
    let mut cfg = join_cfg(FaultPlan::new(7501));
    cfg.late_joiners = vec![(5, at)];
    cfg.record_trace = true;
    let backoff = cfg.fault_tolerance.rejoin_backoff;
    let report = try_run(AppSpec::Independent(k.clone()), &plan, cfg)
        .expect("a join after the end must not fail the run");
    assert_eq!(MatMul::result_c(&report.result), k.sequential());
    let master_done = report
        .sim
        .trace
        .iter()
        .rev()
        .find(|e| e.kind == TraceKind::Wake { actor: 0 })
        .expect("the master was polled")
        .time;
    assert!(master_done < at, "the master ended at {master_done}");
    assert_eq!(report.recovery.joins_admitted, 0);
    assert_eq!(report.sim.deliveries_after_exit, 1, "one Join, answered");
    assert!(
        report.sim.end_time < at + backoff,
        "the joiner stopped at {}",
        report.sim.end_time
    );
}

/// A slave crash composed with a partition heal: one quorum-side slave
/// dies for good while the minority is cut off; the survivors absorb both
/// evictions, the minority still rejoins, and the result stays exact.
#[test]
fn crash_and_partition_compose() {
    let minority: Vec<usize> = (12..16).map(slave_node).collect();
    let (k, plan) = mm_long();
    let fault = FaultPlan::new(7301)
        .partition(SimTime(150_000), SimTime(1_200_000), vec![minority])
        .crash(slave_node(4), SimTime(400_000));
    let report = try_run(AppSpec::Independent(k.clone()), &plan, partition_cfg(fault))
        .expect("crash inside a partition window must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        k.sequential(),
        "crash+partition result must be exact"
    );
    assert!(
        report.recovery.slaves_declared_dead >= 5,
        "both the minority and the crashed slave must be evicted: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.rejoins_after_eviction >= 4,
        "the minority must still rejoin: {:?}",
        report.recovery
    );
}

/// Elastic membership is part of the deterministic trace: the same fault
/// plan reproduces the identical trace hash and recovery counters; a
/// different heal time diverges. (Partition drops are deterministic — they
/// never consult the fault RNG — so the *window*, not the seed, is what
/// shapes the trace.)
#[test]
fn join_and_heal_are_deterministic() {
    let (k, plan) = mm_long();
    let minority: Vec<usize> = (12..16).map(slave_node).collect();
    let run_one = |until: u64| {
        let fault = FaultPlan::new(7401).partition(
            SimTime(150_000),
            SimTime(until),
            vec![minority.clone()],
        );
        let mut cfg = partition_cfg(fault);
        cfg.record_trace = true;
        try_run(AppSpec::Independent(k.clone()), &plan, cfg)
            .expect("partition + heal must be survivable")
    };
    let a = run_one(1_200_000);
    let b = run_one(1_200_000);
    assert_eq!(a.sim.trace_hash, b.sim.trace_hash, "same plan ⇒ same trace");
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(MatMul::result_c(&a.result), k.sequential());
    let c = run_one(1_400_000);
    assert_ne!(
        a.sim.trace_hash, c.sim.trace_hash,
        "different heal time ⇒ different trace"
    );
}
