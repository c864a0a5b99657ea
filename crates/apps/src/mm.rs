//! Matrix multiplication (the paper's MM, Table 1 column 1).
//!
//! `C = A × B`, distributed over the rows of `C` (and the aligned rows of
//! `A`); `B` is replicated on every slave. An application-level repetition
//! count models MM embedded in an outer loop (each rep accumulates another
//! `A×B` into `C`), which is how the paper's Fig. 9 keeps MM running across
//! several load oscillations.

use crate::calibration::{seeded_matrix, Calibration};
use dlb_core::kernels::IndependentKernel;
use dlb_core::msg::UnitData;
use dlb_sim::CpuWork;

/// The MM application: holds the replicated inputs and the cost model.
pub struct MatMul {
    n: usize,
    reps: u64,
    /// Row-major A (rows move with units).
    a: Vec<Vec<f64>>,
    /// Column-major B (replicated), `b[j][k] = B[k][j]` for cache-friendly
    /// dot products.
    b_cols: Vec<Vec<f64>>,
    unit_cost: CpuWork,
}

impl MatMul {
    /// Build an n×n problem with deterministic pseudo-random inputs.
    pub fn new(n: usize, reps: u64, seed: u64, cal: &Calibration) -> MatMul {
        assert!(n > 0 && reps > 0);
        let a = seeded_matrix(n, n, seed ^ 0xA);
        let b = seeded_matrix(n, n, seed ^ 0xB);
        let mut b_cols = vec![vec![0.0; n]; n];
        for (k, row) in b.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                b_cols[j][k] = v;
            }
        }
        // One unit = one row of C = 2n^2 flops.
        let unit_cost = cal.work_for_flops(2.0 * (n as f64) * (n as f64));
        MatMul {
            n,
            reps,
            a,
            b_cols,
            unit_cost,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Sequential reference: the final C, computed in the same operation
    /// order as the parallel engine (bitwise comparable).
    pub fn sequential(&self) -> Vec<Vec<f64>> {
        let mut c = vec![vec![0.0; self.n]; self.n];
        for _rep in 0..self.reps {
            for i in 0..self.n {
                row_step(&self.a[i], &self.b_cols, &mut c[i]);
            }
        }
        c
    }

    /// Sequential execution time on a dedicated reference node.
    pub fn sequential_time(&self) -> dlb_sim::SimDuration {
        (self.unit_cost * (self.n as u64) * self.reps).dedicated_duration(1.0)
    }

    /// Extract C from a gathered run result.
    pub fn result_c(result: &[UnitData]) -> Vec<Vec<f64>> {
        result.iter().map(|u| u[1].clone()).collect()
    }

    /// The matching IR program (drives the compiler).
    pub fn program(&self) -> dlb_compiler::Program {
        dlb_compiler::programs::matmul(self.n as i64, self.reps as i64)
    }
}

/// One invocation's work for one row: `c_row += a_row × B`.
fn row_step(a_row: &[f64], b_cols: &[Vec<f64>], c_row: &mut [f64]) {
    for (j, c) in c_row.iter_mut().enumerate() {
        let col = &b_cols[j];
        let mut acc = 0.0;
        for (av, bv) in a_row.iter().zip(col) {
            acc += av * bv;
        }
        *c += acc;
    }
}

impl IndependentKernel for MatMul {
    fn n_units(&self) -> usize {
        self.n
    }

    fn invocations(&self) -> u64 {
        self.reps
    }

    fn init_unit(&self, idx: usize) -> UnitData {
        vec![self.a[idx].clone(), vec![0.0; self.n]]
    }

    fn compute(&self, _idx: usize, unit: &mut UnitData, _invocation: u64) {
        let (a_row, c_row) = {
            let (first, rest) = unit.split_first_mut().expect("unit has [a, c]");
            (first, &mut rest[0])
        };
        row_step(a_row, &self.b_cols, c_row);
    }

    fn unit_cost(&self) -> CpuWork {
        self.unit_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_naive() {
        let cal = Calibration::default();
        let mm = MatMul::new(8, 1, 42, &cal);
        let c = mm.sequential();
        // Naive triple loop.
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += mm.a[i][k] * mm.b_cols[j][k];
                }
                assert!((c[i][j] - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn reps_accumulate() {
        let cal = Calibration::default();
        let once = MatMul::new(6, 1, 7, &cal).sequential();
        let thrice = MatMul::new(6, 3, 7, &cal).sequential();
        for i in 0..6 {
            for j in 0..6 {
                assert!((thrice[i][j] - 3.0 * once[i][j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn kernel_compute_matches_sequential_row() {
        let cal = Calibration::default();
        let mm = MatMul::new(10, 2, 3, &cal);
        let seq = mm.sequential();
        for i in 0..10 {
            let mut unit = mm.init_unit(i);
            mm.compute(i, &mut unit, 0);
            mm.compute(i, &mut unit, 1);
            assert_eq!(unit[1], seq[i], "row {i}");
        }
    }

    /// FNV-1a over the little-endian bytes of every element's `to_bits`,
    /// row-major: one number for "the same C, to the last bit".
    fn fnv1a_bits(c: &[Vec<f64>]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in c.iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The values themselves, pinned: recorded with the column-major,
    /// one-accumulator `row_step` this crate shipped through PR 18. Any
    /// kernel layout must reproduce it - in debug, in release, and with
    /// any `target-cpu` (CI job `apps-isa`). n = 50 is ragged for every
    /// panel width >= 4.
    #[test]
    fn sequential_bits_are_pinned() {
        let c = MatMul::new(50, 3, 7, &Calibration::default()).sequential();
        assert_eq!(
            fnv1a_bits(&c),
            0xfd36_f9d3_66ef_e065,
            "C moved by at least one bit"
        );
    }

    #[test]
    fn cost_calibration() {
        // n=500 at 1 MFLOP/s: unit = 2*500^2 flops = 0.5 s; 500 units = 250 s.
        let mm = MatMul::new(500, 1, 0, &Calibration { mflops: 1.0 });
        assert_eq!(mm.unit_cost().as_secs_f64(), 0.5);
        assert_eq!(mm.sequential_time().as_secs_f64(), 250.0);
    }
}
