//! Plain-harness micro-benchmarks of the runtime's pure components: the
//! quantum-scheduler CPU model, rate filtering, allocation and shift
//! planning, chunk policies, full balancer decisions, and the three
//! applications' compute kernels (`apps/*`: ns per call and Mflop/s through
//! the public kernel traits - the apps-layer counterpart of the end-to-end
//! bench's `sim.kernel.bare_*_ns`, printed, never gated).
//!
//! No external benchmarking dependency: each case runs a fixed iteration
//! count under `std::time::Instant` and prints ns/iter. Run with
//! `cargo bench -p dlb-bench --bench components`.

use dlb_analyze::{check_protocol_with, lint, CheckConfig};
use dlb_apps::{Calibration, Lu, MatMul, Sor};
use dlb_baselines::ChunkPolicy;
use dlb_compiler::{compile, programs};
use dlb_core::alloc::{plan_adjacent_shifts, plan_direct_moves, proportional_allocation};
use dlb_core::kernels::{IndependentKernel, PipelinedKernel, ShrinkingKernel};
use dlb_core::msg::Status;
use dlb_core::RestoreModel;
use dlb_core::{Balancer, BalancerConfig, RateFilter};
use dlb_sim::cpu::{advance, NodeConfig};
use dlb_sim::{CpuWork, LoadModel, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Mean ns per call of `f`: one warm-up pass, then the timed loop.
fn time_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn bench<R>(name: &str, iters: u64, f: impl FnMut() -> R) {
    let per = time_ns(iters, f);
    println!("{name:<40} {per:>12.1} ns/iter   ({iters} iters)");
}

/// A compute kernel doing `flops` floating-point operations per call.
fn bench_kernel<R>(name: &str, iters: u64, flops: f64, f: impl FnMut() -> R) {
    let per = time_ns(iters, f);
    let mflops = flops / per * 1e3;
    println!("{name:<40} {per:>12.1} ns/call   {mflops:>8.0} Mflop/s   ({iters} iters)");
}

fn bench_cpu_advance() {
    for (name, load) in [
        ("dedicated", LoadModel::Dedicated),
        ("constant1", LoadModel::Constant(1)),
        (
            "oscillating",
            LoadModel::Oscillating {
                period: SimDuration::from_secs(20),
                duty: SimDuration::from_secs(10),
                tasks: 1,
            },
        ),
    ] {
        let cfg = NodeConfig {
            speed: 1.0,
            quantum: SimDuration::from_millis(100),
            load,
        };
        bench(&format!("cpu_advance/{name}"), 100_000, || {
            advance(
                black_box(&cfg),
                black_box(SimTime(123_456)),
                black_box(CpuWork::from_secs_f64(10.0)),
            )
        });
    }
}

fn bench_rate_filter() {
    let mut f = RateFilter::default();
    let mut x = 100.0;
    bench("rate_filter_update", 1_000_000, || {
        x = if x > 100.0 { 80.0 } else { 120.0 };
        f.update(x)
    });
}

fn bench_allocation() {
    for (n, total) in [(16, 2000), (64, 8000)] {
        let rates: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.1).collect();
        bench(&format!("proportional_allocation_{n}"), 100_000, || {
            proportional_allocation(black_box(total), black_box(&rates), 1)
        });
    }
    let rates: Vec<f64> = (0..16).map(|i| 1.0 + (i as f64) * 0.1).collect();
    let current: Vec<u64> = vec![125; 16];
    let target = proportional_allocation(2000, &rates, 1);
    bench("plan_direct_moves_16", 100_000, || {
        plan_direct_moves(black_box(&current), black_box(&target))
    });
    bench("plan_adjacent_shifts_16", 100_000, || {
        plan_adjacent_shifts(black_box(&current), black_box(&target))
    });
}

/// One decision of a warm 64-slave balancer, statuses taken in turn. Slave
/// 0 runs 5 % slow, so every decision computes a new distribution and the
/// threshold cancels it: the steady state of a wide run.
fn bench_balancer_decision() {
    const N: usize = 64;
    let mut bal = Balancer::new(
        BalancerConfig::default(),
        vec![125; N],
        SimDuration::from_millis(100),
        SimDuration::from_millis(2),
        10,
        1.0,
    );
    let statuses: Vec<Status> = (0..N)
        .map(|slave| Status {
            slave,
            invocation: 0,
            hook_seq: 0,
            units_done_delta: if slave == 0 { 95 } else { 100 },
            elapsed: SimDuration::from_secs(1),
            active_units: 125,
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
    let mut next = statuses.iter().cycle();
    bench("balancer_on_status/64", 64_000, || {
        bal.on_status(black_box(next.next().unwrap()))
    });
    assert_eq!(
        bal.stats().units_moved,
        0,
        "the timed decisions move nothing"
    );
}

fn bench_chunking() {
    for policy in [
        ChunkPolicy::Fixed(8),
        ChunkPolicy::Gss,
        ChunkPolicy::Factoring,
        ChunkPolicy::trapezoid_default(2000, 8),
    ] {
        bench(
            &format!("chunk_policy_drain_2000/{policy:?}"),
            10_000,
            || {
                let mut st = policy.start(2000, 8);
                let mut total = 0;
                while let Some(sz) = st.next_chunk() {
                    total += sz;
                }
                total
            },
        );
    }
}

fn bench_analyzer() {
    // Full lint pass (re-derives the dependence analysis) per program.
    for program in programs::all_builtin() {
        let plan = compile(&program).expect("built-in compiles");
        bench(&format!("lint/{}", program.name), 2_000, || {
            lint(black_box(&program), black_box(&plan))
        });
    }
    // Exhaustive model check of the standard restore protocol; random
    // walks disabled so the figure is the BFS alone.
    let cfg = CheckConfig {
        walks: 0,
        ..CheckConfig::default()
    };
    let model = RestoreModel::standard();
    bench("model_check/restore_standard", 20, || {
        check_protocol_with(black_box(&model), cfg)
    });
}

/// One unit of each application's inner work, as the engines call it. The
/// same buffers are updated over and over (a unit's state between calls is
/// the previous call's output, as in a run); each stays finite: MM's C grows
/// linearly, SOR relaxes towards a fixed point between fixed neighbours, and
/// LU gets its multiplier's numerator back before every call.
fn bench_apps() {
    let cal = Calibration::default();
    for (n, iters) in [(64, 200_000), (640, 2_000)] {
        let mm = MatMul::new(n, 1, 7, &cal);
        let mut unit = mm.init_unit(0);
        let flops = 2.0 * (n * n) as f64;
        bench_kernel(&format!("apps/mm_row/{n}"), iters, flops, || {
            mm.compute(0, black_box(&mut unit), 0)
        });
    }
    // The same rows one kernel group at a time, as the engine computes
    // ahead: ns per row, to read beside `apps/mm_row/640`.
    let (n, iters) = (640, 250);
    let mm = MatMul::new(n, 1, 7, &cal);
    let mut units: Vec<_> = (0..mm.group()).map(|i| mm.init_unit(i)).collect();
    let rows = units.len();
    let per = time_ns(iters, || {
        let mut group: Vec<_> = units.iter_mut().enumerate().collect();
        mm.compute_group(black_box(&mut group), 0)
    }) / rows as f64;
    let mflops = 2.0 * (n * n) as f64 / per * 1e3;
    let name = format!("apps/mm_group/{n}");
    println!(
        "{name:<40} {per:>12.1} ns/row    {mflops:>8.0} Mflop/s   ({iters} iters of {rows} rows)"
    );

    let n = 512;
    let lu = Lu::new(n, 7, &cal);
    let (pivot, mut col) = (lu.init_unit(0), lu.init_unit(1));
    let numerator = col[0];
    let flops = 1.0 + 2.0 * (n - 1) as f64;
    bench_kernel(&format!("apps/lu_update/{n}"), 1_000_000, flops, || {
        col[0] = numerator;
        lu.update(1, black_box(&mut col), black_box(&pivot), 0)
    });

    let n = 514;
    let sor = Sor::new(n, 1, 7, &cal);
    let (left, mut col, right) = (sor.init_unit(0), sor.init_unit(1), sor.init_unit(2));
    let flops = 6.0 * (n - 2) as f64;
    bench_kernel(&format!("apps/sor_block/{n}"), 500_000, flops, || {
        sor.compute_block(black_box(&mut col), &left, &right, 1..n - 1)
    });
}

fn main() {
    bench_apps();
    bench_cpu_advance();
    bench_rate_filter();
    bench_allocation();
    bench_balancer_decision();
    bench_chunking();
    bench_analyzer();
}
