//! Randomized tests over the whole runtime: random problem sizes, cluster
//! shapes, load models, and balancer policies — parallel results must
//! always be bitwise identical to the sequential references, and the
//! balancer's bookkeeping must stay conserved. Driven by deterministic
//! PCG-seeded loops (each case is a full cluster simulation, so counts are
//! modest); every failure reproduces exactly.

use dlb::apps::{Calibration, Lu, MatMul, Sor};
use dlb::core::driver::{run, AppSpec, RunConfig};
use dlb::core::{BalancerConfig, InteractionMode};
use dlb::sim::{LoadModel, NodeConfig, Pcg32, SimDuration, SimTime};
use std::sync::Arc;

const CASES: u64 = 12;

fn random_load(rng: &mut Pcg32) -> LoadModel {
    match rng.gen_range(0, 8) {
        0..=2 => LoadModel::Dedicated,
        3..=4 => LoadModel::Constant(1 + rng.gen_range(0, 2) as u32),
        5..=6 => {
            let period = 2 + rng.gen_range(0, 8);
            let duty = 1 + rng.gen_range(0, period - 1);
            LoadModel::Oscillating {
                period: SimDuration::from_secs(period),
                duty: SimDuration::from_secs(duty),
                tasks: 1 + rng.gen_range(0, 2) as u32,
            }
        }
        _ => {
            let mut v: Vec<(u64, u32)> = (0..1 + rng.gen_range(0, 3))
                .map(|_| (rng.gen_range(0, 20_000_000), rng.gen_range(0, 3) as u32))
                .collect();
            v.sort_by_key(|&(t, _)| t);
            LoadModel::Trace(v.into_iter().map(|(t, k)| (SimTime(t), k)).collect())
        }
    }
}

fn random_cluster(rng: &mut Pcg32) -> Vec<NodeConfig> {
    let n = 2 + rng.gen_range(0, 3) as usize;
    (0..n)
        .map(|_| NodeConfig {
            speed: 0.5 + rng.next_f64() * 1.5,
            quantum: SimDuration::from_millis(100),
            load: random_load(rng),
        })
        .collect()
}

fn random_balancer(rng: &mut Pcg32) -> BalancerConfig {
    BalancerConfig {
        enabled: true,
        mode: if rng.chance(0.5) {
            InteractionMode::Synchronous
        } else {
            InteractionMode::Pipelined
        },
        threshold: 0.02 + rng.next_f64() * 0.28,
        profitability: rng.chance(0.5),
    }
}

fn cfg_for(cluster: Vec<NodeConfig>, bal: BalancerConfig) -> RunConfig {
    let mut cfg = RunConfig::homogeneous(cluster.len());
    cfg.slave_nodes = cluster;
    cfg.balancer = bal;
    cfg
}

#[test]
fn mm_always_exact() {
    let mut rng = Pcg32::new(0x1111);
    for case in 0..CASES {
        let cluster = random_cluster(&mut rng);
        let bal = random_balancer(&mut rng);
        let n = (8 + rng.gen_range(0, 32) as usize).max(cluster.len());
        let reps = 1 + rng.gen_range(0, 3);
        let seed = rng.gen_range(0, 1000);
        let mm = Arc::new(MatMul::new(n, reps, seed, &Calibration::new(0.002)));
        let plan = dlb::compiler::compile(&mm.program()).unwrap();
        let report = run(
            AppSpec::Independent(mm.clone()),
            &plan,
            cfg_for(cluster, bal),
        );
        assert_eq!(
            MatMul::result_c(&report.result),
            mm.sequential(),
            "case {case}"
        );
    }
}

#[test]
fn sor_always_exact() {
    let mut rng = Pcg32::new(0x2222);
    for case in 0..CASES {
        let cluster = random_cluster(&mut rng);
        let bal = random_balancer(&mut rng);
        let n = (6 + rng.gen_range(0, 24) as usize).max(cluster.len() + 2);
        let sweeps = 1 + rng.gen_range(0, 5);
        let seed = rng.gen_range(0, 1000);
        let sor = Arc::new(Sor::new(n, sweeps, seed, &Calibration::new(0.002)));
        let plan = dlb::compiler::compile(&sor.program()).unwrap();
        let report = run(
            AppSpec::Pipelined(sor.clone()),
            &plan,
            cfg_for(cluster, bal),
        );
        assert_eq!(
            sor.result_grid(&report.result),
            sor.sequential(),
            "case {case}"
        );
    }
}

#[test]
fn lu_always_exact() {
    let mut rng = Pcg32::new(0x3333);
    for case in 0..CASES {
        let cluster = random_cluster(&mut rng);
        let bal = random_balancer(&mut rng);
        let n = (8 + rng.gen_range(0, 28) as usize).max(cluster.len());
        let seed = rng.gen_range(0, 1000);
        let lu = Arc::new(Lu::new(n, seed, &Calibration::new(0.002)));
        let plan = dlb::compiler::compile(&lu.program()).unwrap();
        let report = run(AppSpec::Shrinking(lu.clone()), &plan, cfg_for(cluster, bal));
        let cols = Lu::result_cols(&report.result);
        assert_eq!(&cols, &lu.sequential(), "case {case}");
        assert!(lu.residual(&cols) < 1e-8, "case {case}");
    }
}

/// Messages are conserved: every sent byte is received, and the
/// efficiency metric stays in (0, 1] on dedicated clusters. (Kept
/// fault-free: conservation is only promised without injected faults.)
#[test]
fn accounting_conserved() {
    let mut rng = Pcg32::new(0x4444);
    for case in 0..CASES {
        let n = 12 + rng.gen_range(0, 20) as usize;
        let reps = 1 + rng.gen_range(0, 2);
        let slaves = 2 + rng.gen_range(0, 3) as usize;
        let mm = Arc::new(MatMul::new(n, reps, 1, &Calibration::new(0.01)));
        let plan = dlb::compiler::compile(&mm.program()).unwrap();
        let report = run(
            AppSpec::Independent(mm.clone()),
            &plan,
            RunConfig::homogeneous(slaves),
        );
        let sent: u64 = report.sim.actors.iter().map(|a| a.msgs_sent).sum();
        let received: u64 = report.sim.actors.iter().map(|a| a.msgs_received).sum();
        assert_eq!(sent, received, "case {case}");
        let eff = report.efficiency(mm.sequential_time());
        assert!(
            eff > 0.0 && eff <= 1.0 + 1e-9,
            "case {case}: efficiency {eff}"
        );
    }
}
