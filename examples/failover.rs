//! Master failover: the control-plane node dies and a deputy takes over.
//!
//! ```sh
//! cargo run --release --example failover
//! ```
//!
//! In fault mode the master ships none of its state anywhere: it only
//! pings the three lowest-ranked slaves, its deputies, once a second. When
//! the master falls silent for 8 s (a constant of the election, not a
//! setting), the deputies hold a quorum election (one vote per term,
//! candidacies staggered by rank); the winner announces its reign, fences
//! it behind a `term << 32` epoch floor, and learns the rest from what
//! every survivor answers: its life, its invocation and the checkpoint
//! fragments it holds (checkpointed engines). It rolls the survivors back
//! to the newest snapshot they complete, and finishes the run —
//! bit-identical to the sequential reference.
//!
//! Each run prints what the pings cost while the run was healthy against
//! how much work the takeover rolled back when the master actually died.
//! The blackout (takeover latency) is set by the suspicion window and the
//! election.

use dlb::apps::{Calibration, MatMul, Sor};
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::sim::{FaultPlan, SimTime};
use std::sync::Arc;

/// Node 0 hosts the master; slave `i` lives on node `i + 1`.
const MASTER_NODE: usize = 0;

fn main() {
    let sor = Arc::new(Sor::new(24, 4, 10, &Calibration::new(0.002)));
    let plan = dlb::compiler::compile(&sor.program()).expect("compiles");

    println!("-- pipelined SOR, 8 slaves, master crashes at t=2.2s --");
    let mut cfg = RunConfig::homogeneous(8);
    cfg.fault_plan = Some(FaultPlan::new(91).crash(MASTER_NODE, SimTime(2_200_000)));
    let report = try_run(AppSpec::Pipelined(sor.clone()), &plan, cfg)
        .expect("the run must survive the master crash");
    let r = &report.recovery;
    assert_eq!(r.elections_held, 1, "exactly one failover");
    println!("ping bytes | blackout | rolled back | elapsed");
    println!(
        "{:>10} | {} | {:>11} | {}",
        r.replication_bytes,
        r.takeover_latency.expect("blackout measured"),
        r.units_rolled_back,
        report.elapsed
    );
    assert_eq!(
        sor.result_grid(&report.result),
        sor.sequential(),
        "failover must be exact"
    );
    println!("failover bit-identical to sequential execution ✓");

    // The independent engine holds no snapshot at all: the survivors'
    // answers name the invocation they reached, and the takeover recomputes
    // unit state from initial data up to the newest. Same blackout.
    let mm = Arc::new(MatMul::new(16, 3, 7, &Calibration::new(0.05)));
    let plan = dlb::compiler::compile(&mm.program()).expect("compiles");
    println!("\n-- independent matmul, 8 slaves, master crashes at t=0.1s --");
    let mut cfg = RunConfig::homogeneous(8);
    cfg.fault_plan = Some(FaultPlan::new(92).crash(MASTER_NODE, SimTime(100_000)));
    let report = try_run(AppSpec::Independent(mm.clone()), &plan, cfg)
        .expect("the run must survive the master crash");
    let r = &report.recovery;
    println!(
        "elections {} | blackout {} | ping bytes {} | rolled back {} | elapsed {}",
        r.elections_held,
        r.takeover_latency.expect("blackout measured"),
        r.replication_bytes,
        r.units_rolled_back,
        report.elapsed
    );
    assert_eq!(
        MatMul::result_c(&report.result),
        mm.sequential(),
        "watermark-only failover must be exact"
    );
    println!("takeover from the newest invocation named bit-identical ✓");
}
