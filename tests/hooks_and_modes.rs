//! Integration tests of the hook/interaction machinery and frequency
//! control observable from outside: status volumes, skip behaviour, the
//! pipelined-vs-synchronous cost gap, and Fig-9-style timeline tracking.

use dlb::apps::{Calibration, MatMul, Sor};
use dlb::core::driver::{run, AppSpec, RunConfig};
use dlb::core::InteractionMode;
use dlb::sim::{LoadModel, NodeConfig, SimDuration};
use std::sync::Arc;

#[test]
fn hook_skipping_bounds_status_volume() {
    // 64 units/invocation x 4 invocations at ~50 ms/unit on 4 slaves:
    // each slave computes a unit every 50 ms but the 500 ms balancing
    // period makes it skip ~9 hooks out of 10.
    let mm = Arc::new(MatMul::new(64, 4, 3, &Calibration::new(0.164)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let r = run(
        AppSpec::Independent(mm.clone()),
        &plan,
        RunConfig::homogeneous(4),
    );
    let per_unit = 256; // one status per unit computed
    assert!(
        r.stats.statuses < per_unit / 3,
        "hook skipping ineffective: {} statuses",
        r.stats.statuses
    );
    assert!(
        r.stats.statuses >= 4 * 4, // at least one per slave per invocation
        "too few statuses to balance: {}",
        r.stats.statuses
    );
}

#[test]
fn synchronous_interactions_cost_more_with_slow_network() {
    let mm = Arc::new(MatMul::new(48, 2, 3, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let time_with = |mode: InteractionMode| {
        let mut cfg = RunConfig::homogeneous(4);
        cfg.net.latency = SimDuration::from_millis(30); // sluggish network
        cfg.balancer.mode = mode;
        let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
        assert_eq!(MatMul::result_c(&r.result), mm.sequential());
        r.compute_time
    };
    let pipelined = time_with(InteractionMode::Pipelined);
    let synchronous = time_with(InteractionMode::Synchronous);
    assert!(
        synchronous > pipelined,
        "synchronous ({synchronous:?}) should cost more than pipelined ({pipelined:?}) when the master round trip is slow"
    );
}

#[test]
fn timeline_tracks_oscillating_load() {
    // The Fig-9 phenomenon in miniature: the adjusted rate of the loaded
    // slave must be materially lower during loaded periods than during
    // free periods, and its assignment must shrink below the equal share
    // while loaded.
    // ~0.5 s per unit: rate samples resolve the 16 s load oscillation.
    let mm = Arc::new(MatMul::new(64, 6, 3, &Calibration::new(0.0164)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes[0] = NodeConfig::with_load(LoadModel::Oscillating {
        period: SimDuration::from_secs(16),
        duty: SimDuration::from_secs(8),
        tasks: 1,
    });
    cfg.record_timeline = true;
    let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(MatMul::result_c(&r.result), mm.sequential());

    let s0: Vec<_> = r.timeline.iter().filter(|s| s.slave == 0).collect();
    assert!(s0.len() > 10, "need enough samples: {}", s0.len());
    // Classify samples by the phase of the oscillation at their time.
    let loaded: Vec<f64> = s0
        .iter()
        .filter(|s| (s.t.micros() % 16_000_000) < 8_000_000)
        .map(|s| s.adjusted_rate)
        .collect();
    let free: Vec<f64> = s0
        .iter()
        .filter(|s| (s.t.micros() % 16_000_000) >= 8_000_000)
        .map(|s| s.adjusted_rate)
        .collect();
    assert!(!loaded.is_empty() && !free.is_empty());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&loaded) < 0.8 * avg(&free),
        "adjusted rate should track the load: loaded {:.1} vs free {:.1}",
        avg(&loaded),
        avg(&free)
    );
    // Work shed below the equal share at some point while loaded.
    let min_assigned = s0.iter().map(|s| s.assigned).min().unwrap();
    assert!(min_assigned < 16, "assignment never shrank: {min_assigned}");
}

#[test]
fn sor_grain_scales_with_quantum() {
    // §4.4: the strip-mining block targets 1.5 quanta, so a bigger quantum
    // means fewer, larger blocks — observable as fewer statuses.
    let sor = Arc::new(Sor::new(130, 4, 3, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&sor.program()).unwrap();
    let statuses_with = |quantum_ms: u64| {
        let mut cfg = RunConfig::homogeneous(4);
        for n in &mut cfg.slave_nodes {
            n.quantum = SimDuration::from_millis(quantum_ms);
        }
        let r = run(AppSpec::Pipelined(sor.clone()), &plan, cfg);
        assert_eq!(sor.result_grid(&r.result), sor.sequential());
        r.stats.statuses
    };
    let fine = statuses_with(20);
    let coarse = statuses_with(400);
    assert!(
        coarse < fine,
        "a larger quantum should coarsen balancing: {coarse} !< {fine}"
    );
}

#[test]
fn disabled_balancer_still_exchanges_no_work() {
    let mm = Arc::new(MatMul::new(32, 2, 3, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&mm.program()).unwrap();
    let mut cfg = RunConfig::homogeneous(4);
    cfg.slave_nodes[0] = NodeConfig::with_load(LoadModel::Constant(2));
    cfg.balancer.enabled = false;
    let r = run(AppSpec::Independent(mm.clone()), &plan, cfg);
    assert_eq!(r.stats.units_moved, 0);
    assert_eq!(MatMul::result_c(&r.result), mm.sequential());
}
