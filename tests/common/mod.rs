//! What the chaos suites share: the fault-mode configuration, the four
//! fault flavors, and the chaos matrix itself, which `tests/chaos.rs` runs
//! at 4 slaves and `tests/chaos_scale.rs` at 16.

use dlb::apps::{Lu, MatMul, Sor};
use dlb::compiler::ParallelPlan;
use dlb::core::driver::{try_run, AppSpec, RunConfig};
use dlb::sim::{FaultPlan, SimDuration, SimTime};
use std::sync::Arc;

/// Crash times are virtual microseconds; node `i + 1` is slave `i`
/// (node 0 is the master).
pub fn slave_node(i: usize) -> usize {
    i + 1
}

/// `slaves` homogeneous slaves under `plan`, balancer on or off.
pub fn chaos_cfg(slaves: usize, plan: FaultPlan, balancer_on: bool) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(slaves);
    cfg.balancer.enabled = balancer_on;
    cfg.fault_plan = Some(plan);
    cfg
}

/// One fault flavor of the chaos matrix.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Crash,
    Drop,
    Dup,
    Jitter,
}

const FAULTS: [Fault; 4] = [Fault::Crash, Fault::Drop, Fault::Dup, Fault::Jitter];

impl Fault {
    /// The plan for this flavor; a crash kills slave `victim` at `crash_at`.
    fn plan(self, seed: u64, victim: usize, crash_at: u64) -> FaultPlan {
        match self {
            Fault::Crash => FaultPlan::new(seed).crash(slave_node(victim), SimTime(crash_at)),
            Fault::Drop => FaultPlan::new(seed).drop_all(0.05),
            Fault::Dup => FaultPlan::new(seed).dup_all(0.05),
            Fault::Jitter => FaultPlan::new(seed).jitter_all(0.2, SimDuration::from_millis(20)),
        }
    }
}

/// The chaos matrix at `slaves` wide: {engine} x {balancer on/off} x
/// {crash of slave `victim`, drop, dup, jitter}. Every combination must
/// complete with a result bit-identical to the sequential reference —
/// crashes are recovered (re-scatter or rollback), drops are re-sent,
/// duplicates are fenced, jitter only reorders. Cell seeds count up from
/// `seed_base`, offset by 100 for SOR and 200 for LU.
pub fn chaos_matrix(
    slaves: usize,
    victim: usize,
    seed_base: u64,
    (mm_k, mm_plan): &(Arc<MatMul>, ParallelPlan),
    (sor_k, sor_plan): &(Arc<Sor>, ParallelPlan),
    (lu_k, lu_plan): &(Arc<Lu>, ParallelPlan),
) {
    for (bi, balancer_on) in [true, false].into_iter().enumerate() {
        for (fi, fault) in FAULTS.into_iter().enumerate() {
            let seed = seed_base + (bi * 10 + fi) as u64;
            let label =
                |eng: &str| format!("{eng}x{slaves} balancer={balancer_on} fault={fault:?}");
            let cfg =
                |seed, crash_at| chaos_cfg(slaves, fault.plan(seed, victim, crash_at), balancer_on);
            let crash = matches!(fault, Fault::Crash);

            let report = try_run(
                AppSpec::Independent(mm_k.clone()),
                mm_plan,
                cfg(seed, 200_000),
            )
            .unwrap_or_else(|e| panic!("{}: {}", label("mm"), e.error));
            assert_eq!(
                MatMul::result_c(&report.result),
                mm_k.sequential(),
                "{}: result must be exact",
                label("mm")
            );
            if crash {
                assert_eq!(
                    report.recovery.slaves_declared_dead,
                    1,
                    "{}: crash must be detected",
                    label("mm")
                );
            }

            let report = try_run(
                AppSpec::Pipelined(sor_k.clone()),
                sor_plan,
                cfg(seed + 100, 300_000),
            )
            .unwrap_or_else(|e| panic!("{}: {}", label("sor"), e.error));
            assert_eq!(
                sor_k.result_grid(&report.result),
                sor_k.sequential(),
                "{}: result must be exact",
                label("sor")
            );
            if crash {
                assert!(
                    report.recovery.rollbacks > 0,
                    "{}: crash must roll survivors back: {:?}",
                    label("sor"),
                    report.recovery
                );
            }

            let report = try_run(
                AppSpec::Shrinking(lu_k.clone()),
                lu_plan,
                cfg(seed + 200, 200_000),
            )
            .unwrap_or_else(|e| panic!("{}: {}", label("lu"), e.error));
            assert_eq!(
                Lu::result_cols(&report.result),
                lu_k.sequential(),
                "{}: result must be exact",
                label("lu")
            );
            if crash {
                assert!(
                    report.recovery.rollbacks > 0,
                    "{}: crash must roll survivors back: {:?}",
                    label("lu"),
                    report.recovery
                );
            }
        }
    }
}
