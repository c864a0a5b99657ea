//! End-to-end integration tests: every engine × several environments,
//! verifying that the parallel, dynamically-balanced execution produces
//! **bitwise identical** results to the sequential reference — including
//! runs where the balancer moves work mid-computation.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{run, AppSpec, RunConfig};
use dlb::core::InteractionMode;
use dlb::sim::{LoadModel, NodeConfig, SimDuration};
use std::sync::Arc;

/// A slow machine so that even small test problems span many balancing
/// periods (virtual time is free).
fn slow() -> Calibration {
    Calibration::new(0.001)
}

fn loaded_cluster(n: usize, loaded: usize, tasks: u32) -> Vec<NodeConfig> {
    (0..n)
        .map(|i| {
            if i == loaded {
                NodeConfig::with_load(LoadModel::Constant(tasks))
            } else {
                NodeConfig::default()
            }
        })
        .collect()
}

#[test]
fn mm_dedicated_exact() {
    let mm = Arc::new(MatMul::new(32, 2, 11, &Calibration::new(0.01)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let report = run(
        AppSpec::Independent(mm.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    assert_eq!(MatMul::result_c(&report.result), mm.sequential());
    // Dedicated homogeneous: DLB should not move work (threshold blocks it).
    assert_eq!(report.stats.units_moved, 0, "{:?}", report.stats);
}

#[test]
fn mm_loaded_exact_and_rebalances() {
    let mm = Arc::new(MatMul::new(48, 3, 5, &slow()));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes = loaded_cluster(4, 0, 1);
    let report = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&report.result), mm.sequential());
    assert!(
        report.stats.units_moved > 0,
        "expected rebalancing: {:?}",
        report.stats
    );
}

#[test]
fn mm_dlb_beats_static_under_load() {
    let mm = Arc::new(MatMul::new(48, 3, 5, &slow()));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let time_with = |enabled: bool| {
        let mut cfg = RunConfig::homogeneous(4);
        cfg.slave_nodes = loaded_cluster(4, 0, 1);
        cfg.balancer.enabled = enabled;
        let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
        assert_eq!(MatMul::result_c(&r.result), mm.sequential());
        r.compute_time
    };
    let balanced = time_with(true);
    let static_dist = time_with(false);
    assert!(
        balanced.as_secs_f64() < 0.9 * static_dist.as_secs_f64(),
        "DLB {balanced:?} should beat static {static_dist:?} by >10%"
    );
}

#[test]
fn mm_synchronous_mode_exact() {
    let mm = Arc::new(MatMul::new(32, 2, 5, &slow()));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(3);
    cfg.balancer.mode = InteractionMode::Synchronous;
    cfg.slave_nodes = loaded_cluster(3, 1, 1);
    let report = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&report.result), mm.sequential());
}

#[test]
fn mm_single_slave_works() {
    let mm = Arc::new(MatMul::new(16, 2, 5, &Calibration::new(0.01)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let report = run(
        AppSpec::Independent(mm.clone()),
        &plan,
        RunConfig::homogeneous(1),
    );
    assert_eq!(MatMul::result_c(&report.result), mm.sequential());
}

#[test]
fn mm_heterogeneous_speeds_exact() {
    let mm = Arc::new(MatMul::new(48, 3, 5, &slow()));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    for (i, node) in cfg.slave_nodes.iter_mut().enumerate() {
        node.speed = 1.0 + i as f64; // speeds 1..4
    }
    let report = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&report.result), mm.sequential());
    assert!(report.stats.units_moved > 0, "{:?}", report.stats);
}

#[test]
fn sor_dedicated_exact() {
    let sor = Arc::new(Sor::new(34, 4, 7, &slow()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let report = run(
        AppSpec::Pipelined(sor.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    assert_eq!(report.result.len(), 32);
    assert_eq!(sor.result_grid(&report.result), sor.sequential());
}

#[test]
fn sor_loaded_exact_with_midsweep_movement() {
    // The critical test of set-aside/catch-up: a persistent load imbalance
    // forces adjacent column shifts in the middle of pipelined sweeps, and
    // the result must still be bitwise identical to sequential execution.
    let sor = Arc::new(Sor::new(34, 6, 7, &slow()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes = loaded_cluster(4, 0, 2);
    let report = run(AppSpec::Pipelined(sor.clone()), &plan, cfg);
    assert_eq!(sor.result_grid(&report.result), sor.sequential());
    assert!(
        report.stats.units_moved > 0,
        "expected column shifts: {:?}",
        report.stats
    );
}

#[test]
fn sor_oscillating_load_exact() {
    let sor = Arc::new(Sor::new(34, 8, 3, &slow()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes[2] = NodeConfig::with_load(LoadModel::Oscillating {
        period: SimDuration::from_secs(8),
        duty: SimDuration::from_secs(4),
        tasks: 2,
    });
    let report = run(AppSpec::Pipelined(sor.clone()), &plan, cfg);
    assert_eq!(sor.result_grid(&report.result), sor.sequential());
}

#[test]
fn sor_load_on_middle_slave() {
    let sor = Arc::new(Sor::new(34, 6, 9, &slow()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes = loaded_cluster(4, 2, 2);
    let report = run(AppSpec::Pipelined(sor.clone()), &plan, cfg);
    assert_eq!(sor.result_grid(&report.result), sor.sequential());
}

#[test]
fn sor_two_slaves_exact() {
    let sor = Arc::new(Sor::new(20, 5, 1, &slow()));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(2);
    cfg.slave_nodes = loaded_cluster(2, 1, 1);
    let report = run(AppSpec::Pipelined(sor.clone()), &plan, cfg);
    assert_eq!(sor.result_grid(&report.result), sor.sequential());
}

#[test]
fn lu_dedicated_exact() {
    let lu = Arc::new(Lu::new(40, 13, &slow()));
    let plan = dlb::compiler::compile(&lu.program()).unwrap();
    let report = run(
        AppSpec::Shrinking(lu.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    let cols = Lu::result_cols(&report.result);
    assert_eq!(cols, lu.sequential());
    assert!(lu.residual(&cols) < 1e-9);
}

#[test]
fn lu_loaded_exact_and_rebalances() {
    let lu = Arc::new(Lu::new(48, 13, &slow()));
    let plan = dlb::compiler::compile(&lu.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes = loaded_cluster(4, 1, 2);
    let report = run(AppSpec::Shrinking(lu.clone()), &plan, cfg);
    assert_eq!(Lu::result_cols(&report.result), lu.sequential());
    assert!(
        report.stats.units_moved > 0,
        "expected active-column moves: {:?}",
        report.stats
    );
}

#[test]
fn determinism_identical_runs() {
    let once = || {
        let mm = Arc::new(MatMul::new(32, 2, 5, &slow()));
        let plan = dlb::compiler::compile(&mm.program()).unwrap();
        let mut cfg = RunConfig::homogeneous(4);
        cfg.slave_nodes = loaded_cluster(4, 0, 1);
        let r = run(AppSpec::Independent(mm), &plan, cfg);
        (r.elapsed, r.stats.units_moved, r.sim.events_processed)
    };
    assert_eq!(once(), once());
}

#[test]
fn efficiency_metric_sane() {
    let mm = Arc::new(MatMul::new(64, 1, 5, &Calibration::new(0.01)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let report = run(
        AppSpec::Independent(mm.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    let eff = report.efficiency(mm.sequential_time());
    assert!(
        (0.5..=1.0).contains(&eff),
        "efficiency should be high on a dedicated cluster: {eff}"
    );
    let speedup = report.speedup(mm.sequential_time());
    assert!(speedup > 2.0 && speedup <= 4.0, "speedup {speedup}");
}

#[test]
fn quadrature_irregular_costs_balanced_without_load() {
    // §2.1's irregular application: unit costs vary ~an order of magnitude,
    // so a static block distribution is imbalanced even on dedicated
    // machines — this is imbalance the balancer must find from measured
    // rates alone (it never sees per-unit costs).
    use dlb::apps::Quadrature;
    let q = Arc::new(Quadrature::new(256, 1e-9, &Calibration::new(0.000002)));
    let program = dlb::compiler::programs::matmul(256, 1); // shape stand-in
    let plan = dlb::compiler::compile(&program).unwrap();
    let seq = q.sequential();

    let run_with = |dlb_on: bool| {
        let mut cfg = RunConfig::homogeneous(4);
        cfg.balancer.enabled = dlb_on;
        let r = run(AppSpec::Independent(q.clone()), &plan, cfg);
        assert!((Quadrature::result_total(&r.result) - seq).abs() < 1e-12);
        r
    };
    let static_run = run_with(false);
    let dlb_run = run_with(true);
    assert!(
        dlb_run.stats.units_moved > 0,
        "irregular costs should trigger movement: {:?}",
        dlb_run.stats
    );
    assert!(
        dlb_run.compute_time.as_secs_f64() < 0.95 * static_run.compute_time.as_secs_f64(),
        "DLB {:?} should beat static {:?} on irregular work",
        dlb_run.compute_time,
        static_run.compute_time
    );
}

/// `AppSpec` is the one description of the program the master mimics: its
/// answers for one instance of each pattern, against values worked by hand.
#[test]
fn app_spec_describes_each_pattern() {
    use dlb::core::kernels::{IndependentKernel, PipelinedKernel, ShrinkingKernel};
    let cal = Calibration::new(0.01);

    let mm = Arc::new(MatMul::new(12, 4, 1, &cal));
    let app = AppSpec::Independent(mm.clone());
    assert_eq!(app.invocations(), 4);
    assert_eq!((app.expected_units(0), app.expected_units(3)), (12, 12));
    assert_eq!(app.initial_unit(5), mm.init_unit(5));
    assert!(!app.converged(3, 0.0), "fixed trip count");

    // A 10×10 grid: 8 interior columns of 8 interior rows, counted in
    // column-rows; a unit travels as its one column, walls included.
    let sor = Arc::new(Sor::new(10, 3, 1, &cal));
    let app = AppSpec::Pipelined(sor.clone());
    assert_eq!(app.invocations(), 3);
    assert_eq!((app.expected_units(0), app.expected_units(2)), (64, 64));
    assert_eq!(app.initial_unit(2), vec![sor.init_unit(2)]);
    assert_eq!(app.initial_unit(2)[0].len(), 10);

    // 9 columns: 8 steps, step k updates the n − 1 − k columns right of the
    // pivot.
    let lu = Arc::new(Lu::new(9, 1, &cal));
    let app = AppSpec::Shrinking(lu.clone());
    assert_eq!(app.invocations(), 8);
    assert_eq!((app.expected_units(0), app.expected_units(7)), (8, 1));
    assert_eq!(app.initial_unit(4), vec![lu.init_unit(4)]);
}
