//! Master-failover chaos tests: the control-plane node itself is crashed
//! mid-run and a deputy slave must win the election, rebuild the session
//! from its replica, roll the survivors back, and finish **bit-exact**
//! against the sequential reference — for all three engines at 16 slaves.
//!
//! Crash timings cover the three windows the takeover protocol must fence:
//! mid-invocation (the steady state), mid-rollback (the master dies with
//! its own recovery traffic unacknowledged), and mid-transfer (slave↔slave
//! migrations in flight when the control plane vanishes). The timing-window
//! tests exploit determinism instead of guessing: a probe run with a prefix
//! of the fault plan reproduces the exact virtual times at which to aim the
//! master's crash.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{try_run, AppSpec, RunConfig, RunReport};
use dlb::sim::{FaultPlan, LinkFaults, SimTime};
use std::sync::Arc;

const SLAVES: usize = 16;

/// Node 0 is the master; node `i + 1` is slave `i`.
const MASTER_NODE: usize = 0;

fn slave_node(i: usize) -> usize {
    i + 1
}

fn chaos_cfg(plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(SLAVES);
    cfg.balancer.enabled = true;
    cfg.fault_plan = Some(plan);
    cfg
}

fn mm() -> (Arc<MatMul>, dlb::compiler::ParallelPlan) {
    // 32 row-blocks over 16 slaves: two units each before balancing.
    let k = Arc::new(MatMul::new(32, 3, 7, &Calibration::new(0.05)));
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

fn assert_failover(report: &RunReport, label: &str) {
    assert!(
        report.recovery.elections_held >= 1,
        "{label}: a deputy must have been elected: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.takeover_latency.is_some(),
        "{label}: the takeover blackout must be measured: {:?}",
        report.recovery
    );
    assert!(
        report.recovery.replicas_published > 0,
        "{label}: the master must have replicated its control plane: {:?}",
        report.recovery
    );
}

/// The steady-state window: the master dies mid-invocation under every
/// engine. A deputy takes over from its replica and the run finishes with
/// a result bit-identical to the sequential reference.
#[test]
fn master_crash_mid_invocation_every_engine_exact() {
    let (mm_k, mm_plan) = mm();
    let report = try_run(
        AppSpec::Independent(mm_k.clone()),
        &mm_plan,
        chaos_cfg(FaultPlan::new(6001).crash(MASTER_NODE, SimTime(200_000))),
    )
    .expect("mm: run must survive the master crash");
    assert_eq!(
        MatMul::result_c(&report.result),
        mm_k.sequential(),
        "mm: failover result must be exact"
    );
    assert_failover(&report, "mm");

    let (sor_k, sor_plan) = sor();
    let report = try_run(
        AppSpec::Pipelined(sor_k.clone()),
        &sor_plan,
        chaos_cfg(FaultPlan::new(6002).crash(MASTER_NODE, SimTime(300_000))),
    )
    .expect("sor: run must survive the master crash");
    assert_eq!(
        sor_k.result_grid(&report.result),
        sor_k.sequential(),
        "sor: failover result must be exact"
    );
    assert_failover(&report, "sor");
    assert!(
        report.recovery.rollbacks > 0,
        "sor: the takeover must roll survivors back to a banked checkpoint: {:?}",
        report.recovery
    );

    let (lu_k, lu_plan) = lu();
    let report = try_run(
        AppSpec::Shrinking(lu_k.clone()),
        &lu_plan,
        chaos_cfg(FaultPlan::new(6003).crash(MASTER_NODE, SimTime(200_000))),
    )
    .expect("lu: run must survive the master crash");
    assert_eq!(
        Lu::result_cols(&report.result),
        lu_k.sequential(),
        "lu: failover result must be exact"
    );
    assert_failover(&report, "lu");
    assert!(
        report.recovery.rollbacks > 0,
        "lu: the takeover must roll survivors back to a banked checkpoint: {:?}",
        report.recovery
    );
}

/// The mid-rollback window: a slave crashes first, and the master dies
/// moments after declaring it dead — with its own rollback traffic still
/// unacknowledged on the survivors' links. The elected deputy must fence
/// out the half-applied rollback (stale epochs below the reign floor) and
/// re-scatter from its replica.
#[test]
fn master_crash_mid_rollback_is_fenced_and_redone() {
    let (k, plan) = sor();
    let first = |seed| FaultPlan::new(seed).crash(slave_node(3), SimTime(300_000));

    let probe = try_run(AppSpec::Pipelined(k.clone()), &plan, chaos_cfg(first(6101)))
        .expect("single-crash probe must recover");
    let death = probe
        .recovery
        .first_death
        .expect("probe must declare the crashed slave dead")
        .0;
    assert!(
        probe.recovery.rollbacks > 0,
        "probe must have rolled back: {:?}",
        probe.recovery
    );

    // Identical trace up to `death`; the master dies 300 µs after the
    // death declaration, i.e. right after broadcasting the rollback.
    let fault = first(6101).crash(MASTER_NODE, SimTime(death + 300));
    let report = try_run(AppSpec::Pipelined(k.clone()), &plan, chaos_cfg(fault))
        .expect("master crash mid-rollback must be survivable");
    assert_eq!(
        k.result_grid(&report.result),
        k.sequential(),
        "mid-rollback failover result must be exact"
    );
    assert_failover(&report, "sor mid-rollback");
    assert!(
        report.recovery.rollbacks > 0,
        "the takeover must have issued its own rollback: {:?}",
        report.recovery
    );
}

/// Same window for the shrinking engine, which checkpoints shrinking
/// active sets: the master dies right after its death declaration for a
/// crashed slave.
#[test]
fn shrinking_master_crash_mid_rollback() {
    let (k, plan) = lu();
    let first = |seed| FaultPlan::new(seed).crash(slave_node(5), SimTime(200_000));

    let probe = try_run(AppSpec::Shrinking(k.clone()), &plan, chaos_cfg(first(6103)))
        .expect("single-crash probe must recover");
    let death = probe
        .recovery
        .first_death
        .expect("probe must declare the crashed slave dead")
        .0;

    let fault = first(6103).crash(MASTER_NODE, SimTime(death + 300));
    let report = try_run(AppSpec::Shrinking(k.clone()), &plan, chaos_cfg(fault))
        .expect("master crash mid-rollback must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        k.sequential(),
        "mid-rollback failover result must be exact"
    );
    assert_failover(&report, "lu mid-rollback");
}

/// The mid-transfer window: two slow slaves keep the balancer issuing
/// slave↔slave moves; the probe pins the first balancing decision, and
/// the master dies just after it — with migrations in flight that the new
/// master has never seen. The transfer windows between slaves must drain
/// or re-own without the old control plane, and the result stays exact.
#[test]
fn master_crash_mid_transfer_keeps_every_unit() {
    // 48 row-blocks (3 per slave) so the rate-proportional allocation has
    // the granularity to shed units off the two crippled slaves.
    let k = Arc::new(MatMul::new(48, 3, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&k.program()).unwrap();
    let slow_cfg = |fault_plan| {
        let mut cfg = chaos_cfg(fault_plan);
        cfg.slave_nodes[2].speed = 0.3;
        cfg.slave_nodes[9].speed = 0.3;
        cfg.record_timeline = true;
        cfg
    };

    let probe = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        slow_cfg(FaultPlan::new(6102)),
    )
    .expect("quiet probe must complete");
    assert!(
        probe.stats.units_moved > 0,
        "the imbalance must drive migrations: {:?}",
        probe.stats
    );
    let first_decision = probe
        .timeline
        .first()
        .expect("timeline must record the first balancing decision")
        .t
        .0;

    let fault = FaultPlan::new(6102).crash(MASTER_NODE, SimTime(first_decision + 200));
    let report = try_run(AppSpec::Independent(k.clone()), &plan, slow_cfg(fault))
        .expect("master crash mid-transfer must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        k.sequential(),
        "mid-transfer failover result must be exact"
    );
    assert_failover(&report, "mm mid-transfer");
}

/// The takeover master is itself mortal: the original master dies, a
/// deputy takes over, and then the *winner's node* crashes too. A second
/// election (higher term) must supersede the first reign and still finish
/// the run exactly.
#[test]
fn second_failover_after_the_winner_dies() {
    let (k, plan) = mm();
    // Probe: master dies at 0.2 s, one failover. The probe pins when the
    // first reign began and when the run ends, so the second crash — the
    // winner's own node, deputy 0 on node 1 — lands squarely inside the
    // first reign.
    let first = |seed| FaultPlan::new(seed).crash(MASTER_NODE, SimTime(200_000));
    let probe = try_run(
        AppSpec::Independent(k.clone()),
        &plan,
        chaos_cfg(first(6104)),
    )
    .expect("single-failover probe must recover");
    let reign_start = 200_000
        + probe
            .recovery
            .takeover_latency
            .expect("probe must have failed over")
            .0;
    let mid_reign = (reign_start + probe.elapsed.0) / 2;
    assert!(mid_reign < probe.elapsed.0, "aim inside the run");

    let fault = first(6104).crash(slave_node(0), SimTime(mid_reign));
    let report = try_run(AppSpec::Independent(k.clone()), &plan, chaos_cfg(fault))
        .expect("a second failover must be survivable");
    assert_eq!(
        MatMul::result_c(&report.result),
        k.sequential(),
        "double-failover result must be exact"
    );
    assert_eq!(
        report.recovery.elections_held, 2,
        "both failovers must have held an election: {:?}",
        report.recovery
    );
}

/// Fragment collection under loss. A replica carries no unit, so the
/// winner (deputy 0, slave 0) rebuilds its restart point from the
/// fragments the survivors hold, and every survivor's link to it drops one
/// message in ten. At this seed no pivot slave 0 waits for is lost before
/// the master dies inside invocation 12, and slave 13's first `Held` answer
/// is: the new master re-sends its `Promoted` on the nudge timer, collects
/// the answer one nudge later, and the run ends bit-exact after one
/// election.
#[test]
fn lossy_links_collect_fragments_and_take_over_exact() {
    let (k, plan) = lu();
    let lossy = |seed| {
        let drop = LinkFaults {
            drop_p: 0.1,
            ..LinkFaults::default()
        };
        (1..SLAVES).fold(FaultPlan::new(seed), |p, s| {
            p.link(slave_node(s), slave_node(0), drop)
        })
    };
    let mut probe_cfg = chaos_cfg(lossy(6168));
    probe_cfg.record_timeline = true;
    let probe = try_run(AppSpec::Shrinking(k.clone()), &plan, probe_cfg)
        .expect("the lossy probe must complete");
    // Identical up to the crash: the first decision inside invocation 12.
    let crash = probe
        .timeline
        .iter()
        .find(|s| s.invocation >= 12)
        .expect("the probe must reach invocation 12")
        .t
        .0;

    let fault = lossy(6168).crash(MASTER_NODE, SimTime(crash));
    let report = try_run(AppSpec::Shrinking(k.clone()), &plan, chaos_cfg(fault))
        .expect("a takeover collecting over lossy links must be survivable");
    assert_eq!(
        Lu::result_cols(&report.result),
        k.sequential(),
        "takeover from collected fragments must be exact"
    );
    assert_failover(&report, "lu lossy collection");
    assert_eq!(report.recovery.elections_held, 1, "{:?}", report.recovery);
    assert!(report.sim.fault.msgs_dropped > 0, "{:?}", report.sim.fault);
}

/// Failover is part of the deterministic trace: the same crash plan
/// reproduces the identical trace hash, recovery counters, and result; a
/// different seed diverges.
#[test]
fn failover_is_deterministic() {
    let (k, plan) = sor();
    let run_one = |seed: u64| {
        let fault = FaultPlan::new(seed)
            .drop_all(0.02)
            .crash(MASTER_NODE, SimTime(300_000));
        try_run(AppSpec::Pipelined(k.clone()), &plan, chaos_cfg(fault))
            .expect("failover under drops must be survivable")
    };
    let a = run_one(6105);
    let b = run_one(6105);
    assert_eq!(a.sim.trace_hash, b.sim.trace_hash, "same seed ⇒ same trace");
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(k.result_grid(&a.result), k.sequential());
    let c = run_one(6106);
    assert_ne!(
        a.sim.trace_hash, c.sim.trace_hash,
        "different fault seed ⇒ different trace"
    );
}
