//! Strip mining and grain-size control (§4.4).
//!
//! Pipelined applications communicate once per iteration of the pipelined
//! loop. If one iteration is smaller than the OS scheduling quantum, the
//! synchronization between slaves amplifies every load imbalance and makes
//! rate measurements useless. The compiler therefore strip-mines the
//! pipelined loop into blocks, moves the boundary communication outside the
//! block, and the *runtime* picks the block size at startup so one block
//! takes about 1.5 × the scheduling quantum (150 ms on the paper's system).
//!
//! [`grain_iterations`] is that quantum rule alone. The runtime also bounds
//! its result by the pipeline depth: on `P` slaves a block of more than
//! `R / (P − 1)` of the `R` rows makes the pipeline fill (`P − 1` blocks)
//! longer than a sweep, so the block is capped there, but never below the
//! block whose boundary exchange costs [`crate::DEFAULT_MAX_OVERHEAD`] of
//! its compute (the §4.2 hook rule's 1 %). The paper's 8-node shapes keep
//! the quantum block; a 64-slave SOR column shorter than 1.5 quanta, once
//! a single block and a serial sweep, is split in two.

use crate::ir::{Loop, LoopKind, Node, Program};
use crate::Affine;
use dlb_sim::SimDuration;

/// The paper's grain target: blocks of 1.5 × the scheduling quantum.
pub const GRAIN_QUANTUM_FACTOR: f64 = 1.5;

/// Number of loop iterations per block such that one block of computation
/// takes approximately `factor × quantum`, given the measured (or
/// estimated) time of a single iteration. Never returns 0; clamped to
/// `max_iters` when the whole loop is smaller than one block.
pub fn grain_iterations(
    per_iteration: SimDuration,
    quantum: SimDuration,
    factor: f64,
    max_iters: u64,
) -> u64 {
    assert!(factor > 0.0, "grain factor must be positive");
    let target = quantum.mul_f64(factor).micros();
    let per = per_iteration.micros().max(1);
    target.div_ceil(per).max(1).min(max_iters.max(1))
}

/// Strip-mine the loop named `var` by `block` iterations: `for i in lo..hi`
/// becomes `for i0 in 0..nblocks { for i in lo+B*i0 .. lo+B*(i0+1) }`.
///
/// The transformed IR is used for cost estimation and pseudo-code emission
/// (the paper's Fig. 3c); the inner loop's final block is clamped to the
/// original upper bound at run time, which affine bounds cannot express, so
/// the emitted code carries the clamp and the IR slightly overestimates the
/// last block's cost.
///
/// Returns `None` if no `For` loop named `var` exists.
pub fn strip_mine(program: &Program, var: &str, block: i64) -> Option<Program> {
    assert!(block > 0, "block size must be positive");
    let mut p = program.clone();
    let done = strip_nodes(&mut p.body, var, block, &p.params, &program.default_env());
    if done {
        Some(p)
    } else {
        None
    }
}

fn strip_nodes(
    nodes: &mut [Node],
    var: &str,
    block: i64,
    _params: &[crate::ir::Param],
    env: &std::collections::BTreeMap<String, i64>,
) -> bool {
    for node in nodes.iter_mut() {
        if let Node::Loop(l) = node {
            if l.var == var && l.kind == LoopKind::For {
                let lo = l.lower.clone();
                let hi = l.upper.clone();
                let blocks_var = format!("{var}0");
                // nblocks estimated for the IR; the runtime computes it
                // exactly. We keep it symbolic when possible:
                // nblocks = ceil((hi - lo) / block); estimate with env.
                let span = hi.diff(&lo).eval(env).unwrap_or(block);
                // i64::div_ceil is unstable; span and block are >= 0 here.
                #[allow(clippy::manual_div_ceil)]
                let nblocks = ((span.max(0) + block - 1) / block).max(1);
                let inner = Loop {
                    var: var.to_string(),
                    lower: lo.clone() + Affine::scaled_var(&blocks_var, block),
                    upper: lo + Affine::scaled_var(&blocks_var, block) + block,
                    kind: LoopKind::For,
                    body: std::mem::take(&mut l.body),
                };
                *l = Loop {
                    var: blocks_var,
                    lower: Affine::constant(0),
                    upper: Affine::constant(nblocks),
                    kind: LoopKind::For,
                    body: vec![Node::Loop(inner)],
                };
                return true;
            }
            if strip_nodes(&mut l.body, var, block, _params, env) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn grain_matches_paper_example() {
        // 100 ms quantum, factor 1.5 => 150 ms target. If one pipelined row
        // takes 1.5 ms, the block is 100 iterations.
        let g = grain_iterations(
            SimDuration::from_micros(1_500),
            SimDuration::from_millis(100),
            GRAIN_QUANTUM_FACTOR,
            10_000,
        );
        assert_eq!(g, 100);
    }

    #[test]
    fn grain_rounds_up_and_clamps() {
        let g = grain_iterations(
            SimDuration::from_micros(70_000),
            SimDuration::from_millis(100),
            GRAIN_QUANTUM_FACTOR,
            10_000,
        );
        assert_eq!(g, 3); // ceil(150/70)
        let clamped = grain_iterations(
            SimDuration::from_micros(1),
            SimDuration::from_millis(100),
            GRAIN_QUANTUM_FACTOR,
            50,
        );
        assert_eq!(clamped, 50);
        let coarse = grain_iterations(
            SimDuration::from_secs(10),
            SimDuration::from_millis(100),
            GRAIN_QUANTUM_FACTOR,
            10_000,
        );
        assert_eq!(coarse, 1); // one iteration already exceeds the target
    }

    #[test]
    fn strip_mine_sor_row_loop() {
        let p = programs::sor(2000, 15);
        let sm = strip_mine(&p, "i", 100).expect("loop exists");
        sm.validate().unwrap();
        // The chain should now be iter -> j -> i0 -> i.
        let stmts = sm.statements();
        assert_eq!(stmts[0].0, vec!["iter", "j", "i0", "i"]);
        // Cost estimate is preserved up to last-block overshoot (n-2=1998
        // rows become 20 blocks of 100 = 2000).
        let orig = p.estimate_cost(&p.body, &p.default_env());
        let strip = sm.estimate_cost(&sm.body, &sm.default_env());
        let ratio = strip / orig;
        assert!((1.0..1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn strip_mine_missing_loop_is_none() {
        let p = programs::matmul(16, 1);
        assert!(strip_mine(&p, "zz", 4).is_none());
    }

    #[test]
    fn strip_mine_exact_division_preserves_cost() {
        let p = programs::matmul(512, 1);
        let sm = strip_mine(&p, "k", 64).unwrap();
        sm.validate().unwrap();
        let orig = p.estimate_cost(&p.body, &p.default_env());
        let strip = sm.estimate_cost(&sm.body, &sm.default_env());
        assert_eq!(orig, strip);
    }
}
