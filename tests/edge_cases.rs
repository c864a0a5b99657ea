//! Edge-of-the-envelope configurations: minimal units per slave, many
//! slaves, single-unit problems, and tiny pipelines.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{run, AppSpec, RunConfig};
use dlb::sim::{FaultPlan, LoadModel, NodeConfig, SimDuration};
use std::sync::Arc;

fn cal() -> Calibration {
    Calibration::new(0.01)
}

#[test]
fn mm_units_equal_slaves() {
    // One row per slave: nothing can move (min_per_slave = 1), but the run
    // must complete and verify.
    let mm = Arc::new(MatMul::new(4, 2, 1, &cal()));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes[0] = NodeConfig::with_load(LoadModel::Constant(2));
    let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&r.result), mm.sequential());
}

#[test]
fn mm_sixteen_slaves() {
    let mm = Arc::new(MatMul::new(64, 2, 1, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(16);
    cfg.slave_nodes[5] = NodeConfig::with_load(LoadModel::Constant(1));
    cfg.slave_nodes[11] = NodeConfig::with_load(LoadModel::Constant(3));
    let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&r.result), mm.sequential());
    assert!(r.stats.units_moved > 0);
}

#[test]
fn sor_one_column_per_slave() {
    // 3 interior columns on 3 slaves: the boundary chain is as tight as it
    // gets and no movement is possible.
    let sor = Arc::new(Sor::new(5, 4, 1, &cal()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let r = run(
        AppSpec::Pipelined(sor.clone()),
        &plan,
        RunConfig::homogeneous(3),
    );
    assert_eq!(sor.result_grid(&r.result), sor.sequential());
    assert_eq!(r.stats.units_moved, 0);
}

#[test]
fn sor_single_sweep() {
    let sor = Arc::new(Sor::new(18, 1, 2, &cal()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let r = run(
        AppSpec::Pipelined(sor.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    assert_eq!(sor.result_grid(&r.result), sor.sequential());
}

#[test]
fn lu_n_slightly_above_slaves() {
    // 6 columns on 4 slaves: within a few steps some slaves have no active
    // work at all.
    let lu = Arc::new(Lu::new(6, 3, &cal()));
    let plan = dlb::compiler::compile(&lu.program()).unwrap();
    let r = run(
        AppSpec::Shrinking(lu.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    assert_eq!(Lu::result_cols(&r.result), lu.sequential());
}

#[test]
fn lu_two_by_two() {
    let lu = Arc::new(Lu::new(2, 1, &cal()));
    let plan = dlb::compiler::compile(&lu.program()).unwrap();
    let r = run(
        AppSpec::Shrinking(lu.clone()),
        &plan,
        RunConfig::homogeneous(2),
    );
    assert_eq!(Lu::result_cols(&r.result), lu.sequential());
}

#[test]
fn extreme_load_many_tasks() {
    // A slave at 1/9 speed: the balancer must shed almost everything.
    let mm = Arc::new(MatMul::new(40, 2, 1, &Calibration::new(0.001)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes[0] = NodeConfig::with_load(LoadModel::Constant(8));
    let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&r.result), mm.sequential());
    // A static split is gated by the slow node: 10 units × 2 reps ×
    // 3.2 s/unit × 9x slowdown = 576 s. Ideal balanced ≈ 82 s. Require the
    // balancer to land much nearer the ideal than the static bound.
    assert!(
        r.compute_time.as_secs_f64() < 180.0,
        "balancing ineffective: {:?}",
        r.compute_time
    );
}

#[test]
fn all_slaves_loaded_equally_no_movement() {
    // Uniform degradation is *not* an imbalance.
    let mm = Arc::new(MatMul::new(32, 2, 1, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    for n in &mut cfg.slave_nodes {
        *n = NodeConfig::with_load(LoadModel::Constant(1));
    }
    let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&r.result), mm.sequential());
    assert_eq!(r.stats.units_moved, 0, "{:?}", r.stats);
}

/// Deputies check their election timer once per heartbeat slice, so a
/// fault-mode config whose heartbeat is coarser than the 2 s rank stagger
/// is refused on entry, naming both values.
#[test]
#[should_panic(expected = "slave_heartbeat 5.000000s exceeds the election stagger 2.000000s")]
fn heartbeat_coarser_than_the_election_stagger_is_rejected() {
    let mm = Arc::new(MatMul::new(4, 2, 1, &cal()));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.fault_plan = Some(FaultPlan::new(1));
    cfg.fault_tolerance.slave_heartbeat = SimDuration::from_secs(5);
    run(AppSpec::Independent(mm), &plan, cfg);
}
