//! Event budget: what the simulator's kernel does for two LU cells, pinned
//! exactly, as a deterministic gate on the host work below the event count.
//!
//! Four counters of each run are pinned: events processed, polls, CPU
//! charges and catch-ups (`SchedStats::charges`, `SchedStats::catch_ups`).
//! A charge is no event: it runs the actor's own clock ahead, and the actor
//! parks once (a catch-up) before it next interacts. Each counter is a
//! function of the event stream: same seed, same figure, in debug and
//! release, on any host. A change that moves one says so and re-records it.

use dlb::apps::{Calibration, Lu};
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::core::FaultToleranceConfig;
use dlb::sim::{FaultPlan, LoadModel, NodeConfig, SimDuration};
use std::sync::Arc;

/// The two cells' cluster: balancer on.
fn cluster(slaves: usize) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(slaves);
    cfg.balancer.enabled = true;
    cfg
}

/// `[events, polls, catch-ups, charges]` of one LU cell, which must end
/// bit-exact.
fn counters(label: &str, lu: &Arc<Lu>, cfg: RunConfig) -> [u64; 4] {
    let plan = dlb::compiler::compile(&lu.program()).unwrap();
    let report = try_run(AppSpec::Shrinking(lu.clone()), &plan, cfg).expect("the run completes");
    assert_eq!(Lu::result_cols(&report.result), lu.sequential(), "{label}");
    let sched = &report.sim.sched;
    let (events, polls) = (report.sim.events_processed, sched.polls);
    let (catch_ups, charges) = (sched.catch_ups, sched.charges);
    println!(
        "event_budget {label}: {events} events, {polls} polls, {catch_ups} catch-ups, \
         {charges} CPU charges (no event)"
    );
    [events, polls, catch_ups, charges]
}

#[test]
fn events_polls_catch_ups_and_charges_are_pinned() {
    // The LU cell of `events_w4`: n=512 over 4 slaves, one constant competing
    // task on slave 0, no fault plan. A slave looks at its mailbox, and so
    // catches up, after a hook that fires and once before a step ends, not
    // before every column update: 170 410 events and 150 232 catch-ups when
    // it did.
    let lu = Arc::new(Lu::new(512, 7, &Calibration::default()));
    let mut cfg = cluster(4);
    cfg.slave_nodes[0] = NodeConfig::with_load(LoadModel::Constant(1));
    assert_eq!(
        counters("plain4", &lu, cfg),
        [42_125, 30_060, 21_949, 288_545],
        "plain4"
    );

    // Armed and quiet at 64 slaves (the `tests/alloc_budget.rs` cell):
    // checkpoints, acks and heartbeats on top, up to 65 wakes at one instant.
    let lu = Arc::new(Lu::new(68, 7, &Calibration::new(0.1 * 68.0 / 260.0)));
    let mut cfg = cluster(64);
    cfg.fault_plan = Some(FaultPlan::new(7));
    cfg.max_events = Some(50_000_000);
    cfg.fault_tolerance = FaultToleranceConfig::with_suspicion(SimDuration::from_secs(12));
    cfg.fault_tolerance.rejoin_attempts = 10;
    // The 12 s row of `tests/chaos_wide.rs::detector_windows_are_pinned`.
    let ft = &cfg.fault_tolerance;
    assert_eq!(
        [
            ft.suspicion,
            ft.speculate_after,
            ft.nudge,
            ft.slave_heartbeat,
            ft.rejoin_backoff
        ],
        [12_000, 7_500, 3_000, 1_500, 3_000].map(SimDuration::from_millis)
    );
    assert_eq!(
        counters("armed64", &lu, cfg),
        [105_903, 66_724, 52_318, 67_368],
        "armed64"
    );
}
