//! Allocation budget: heap bytes requested per delivered message, as a
//! deterministic gate on host-side payload copying.
//!
//! A message's *modelled* cost is `Msg::wire_bytes`, charged to the virtual
//! network; every host-side deep copy of a unit payload on top of that is
//! simulator overhead the virtual clock never sees. This file counts it: a
//! counting `#[global_allocator]` (an integration test is a crate of its
//! own, so the library crates' `#![forbid(unsafe_code)]` is untouched)
//! around whole runs, in ONE `#[test]`. It counts per thread, and the
//! simulation runs on the test thread, so no other thread's allocation
//! counts. Same seed, same allocations, on any host — the
//! ceilings below are the figures measured when the shrinking engine
//! stopped copying retired columns and keeping every pivot, plus 10 %.
//! Beside the runs, a balancing decision that moves nothing must request
//! no heap at all.

use dlb::apps::{Calibration, Lu};
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::core::msg::Status;
use dlb::core::{Balancer, BalancerConfig, FaultToleranceConfig};
use dlb::sim::{FaultPlan, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Ceilings in bytes per delivered message: measured + 10 % when set.
/// rejoin16's was set at 4 040 (snapshot replicas); armed64's was re-set
/// when a balancing decision stopped allocating, which took the cells from
/// 3 988 and 663 to their figures below.
const REJOIN16_CEILING: u64 = 4_444; // measured 3 869
const ARMED64_CEILING: u64 = 619; // measured 563

thread_local! {
    /// Bytes this thread requested from the allocator so far. The runs and
    /// the decisions run on the test thread, so a harness thread's
    /// allocation never counts. `const`-initialised and without a
    /// destructor: counting never allocates.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// Count `bytes` requested on this thread.
fn count(bytes: usize) {
    REQUESTED.with(|r| r.set(r.get() + bytes as u64));
}

/// Bytes this thread requested so far.
fn bytes_requested() -> u64 {
    REQUESTED.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// An armed LU run under the `tests/chaos_wide.rs` shrinking windows
/// (suspicion 12 s).
fn lu_cfg(slaves: usize, plan: FaultPlan, rejoin_attempts: u32) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(slaves);
    cfg.balancer.enabled = true;
    cfg.fault_plan = Some(plan);
    cfg.max_events = Some(50_000_000);
    cfg.fault_tolerance = FaultToleranceConfig::with_suspicion(SimDuration::from_secs(12));
    cfg.fault_tolerance.rejoin_attempts = rejoin_attempts;
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
    cfg
}

/// Run one LU cell and return heap bytes requested per delivered message.
fn bytes_per_delivery(label: &str, lu: &Arc<Lu>, cfg: RunConfig) -> u64 {
    let plan = dlb::compiler::compile(&lu.program()).unwrap();
    let before = bytes_requested();
    let report = try_run(AppSpec::Shrinking(lu.clone()), &plan, cfg).expect("the run completes");
    let requested = bytes_requested() - before;
    assert_eq!(Lu::result_cols(&report.result), lu.sequential(), "{label}");
    let delivered: u64 = report.sim.actors.iter().map(|a| a.msgs_received).sum();
    let per = requested / delivered;
    println!(
        "alloc_budget {label}: {requested} B requested / {delivered} delivered = {per} B per \
         delivered message ({} rollbacks)",
        report.recovery.rollbacks
    );
    per
}

/// Heap bytes requested by `rounds` rounds of statuses, one per slave, on a
/// warm 64-slave balancer whose equal rates and holdings never call for a
/// move. The statuses are built before counting starts.
fn no_move_decision_bytes(rounds: u64) -> u64 {
    const N: usize = 64;
    let mut bal = Balancer::new(
        BalancerConfig::default(),
        vec![16; N],
        SimDuration::from_millis(100),
        SimDuration::from_millis(2),
        1_000,
        1.0,
    );
    let statuses: Vec<Status> = (0..N)
        .map(|slave| Status {
            slave,
            invocation: 0,
            hook_seq: 0,
            units_done_delta: 100,
            elapsed: SimDuration::from_secs(1),
            active_units: 16,
            last_applied_seq: u64::MAX,
            epoch: 0,
            sent_to: vec![0; N],
            received_from: vec![0; N],
            move_cost_sample: None,
            interaction_cost_sample: None,
        })
        .collect();
    for st in &statuses {
        bal.on_status(st);
    }
    let skipped = bal.stats().skipped_balanced;
    let before = bytes_requested();
    for _ in 0..rounds {
        for st in &statuses {
            assert!(bal.on_status(st).instructions.moves.is_empty());
        }
    }
    let requested = bytes_requested() - before;
    let decisions = rounds * N as u64;
    assert_eq!(bal.stats().skipped_balanced - skipped, decisions);
    println!("alloc_budget no_move64: {requested} B requested over {decisions} decisions");
    requested
}

#[test]
fn allocation_per_delivered_message_stays_in_budget() {
    // A balancing decision that moves nothing works in the balancer's
    // reused scratch: 20 rounds of 64 statuses request no heap at all.
    assert_eq!(no_move_decision_bytes(20), 0, "no_move64");

    // The `rejoin_w16` shape: LU n=260 over 16 slaves, slave 0 crashes at
    // 0.5 s with rejoin on. One crash, one eviction, one rollback: what is
    // left per message is the steady state — a barrier checkpoint that
    // copies the active columns (retired ones are shared), scalar replicas
    // to the deputies, and a two-step pivot window per slave.
    let lu = Arc::new(Lu::new(260, 7, &Calibration::new(0.1)));
    let crash = FaultPlan::new(7).crash(1, SimTime(500_000));
    let rejoin = bytes_per_delivery("rejoin16", &lu, lu_cfg(16, crash, 2));
    assert!(rejoin <= REJOIN16_CEILING, "rejoin16: {rejoin} B/msg");

    // Armed and quiet at 64 slaves: checkpoints at every barrier, replicas
    // to three deputies, acks and heartbeats — and no recovery at all.
    let lu = Arc::new(Lu::new(68, 7, &Calibration::new(0.1 * 68.0 / 260.0)));
    let armed = bytes_per_delivery("armed64", &lu, lu_cfg(64, FaultPlan::new(7), 10));
    assert!(armed <= ARMED64_CEILING, "armed64: {armed} B/msg");
}
