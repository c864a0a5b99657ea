//! §4.4 ablation: strip-mining grain size for pipelined SOR. Blocks much
//! smaller than the OS quantum amplify synchronization under load; blocks
//! too large waste pipeline parallelism. The runtime's automatic choice
//! targets 1.5 quanta (150 ms), capped at `R / (P − 1)` rows so the
//! pipeline fill is no longer than a sweep (285 rows here, above the
//! quantum block, so the cap does not bind) and floored at the block whose
//! boundary exchange costs 1 % of its compute.

use dlb_apps::{Calibration, Sor};
use dlb_bench::one_loaded;
use dlb_compiler::GrainPolicy;
use dlb_core::driver::{run, AppSpec};
use std::sync::Arc;

fn main() {
    let cal = Calibration::default();
    let sor = Arc::new(Sor::new(2000, 15, 1, &cal));
    let base_plan = dlb_compiler::compile(&sor.program()).unwrap();
    println!("# Ablation — SOR block size (2000x2000, 15 sweeps, 8 slaves, 1 loaded)");
    println!("block_rows\ttime_s\tmoved");
    for block in [2u64, 10, 50, 100, 250, 999, 0] {
        let mut plan = base_plan.clone();
        plan.grain = if block == 0 {
            GrainPolicy::AutoBlock {
                quantum_factor: 1.5,
            } // the automatic rule
        } else {
            GrainPolicy::FixedBlock { iterations: block }
        };
        let cfg = one_loaded(8);
        let r = run(AppSpec::Pipelined(sor.clone()), &plan, cfg);
        let label = if block == 0 {
            "auto(100)".to_string()
        } else {
            block.to_string()
        };
        println!(
            "{label}\t{:.1}\t{}",
            r.compute_time.as_secs_f64(),
            r.stats.units_moved
        );
    }
}
