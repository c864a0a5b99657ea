//! Application-kernel interfaces.
//!
//! The compiler classifies programs into three execution patterns; each
//! pattern has a kernel trait providing the *real data computation* plus a
//! calibrated cost model. The runtime charges the cost model to the virtual
//! CPU and runs the real arithmetic on the actual data, so results can be
//! verified against sequential execution exactly.
//!
//! Kernels are shared read-only (`Arc`) across master and slaves; mutable
//! state — the distributed work units — lives in the engines and travels in
//! messages.

use crate::msg::UnitData;
use dlb_sim::CpuWork;

/// Kernel for [`dlb_compiler::Pattern::Independent`] programs (MM): the
/// distributed loop's iterations are independent and the whole loop runs
/// `invocations` times.
pub trait IndependentKernel: Send + Sync + 'static {
    /// Number of distributed iterations (work units).
    fn n_units(&self) -> usize;
    /// How many times the distributed loop executes.
    fn invocations(&self) -> u64;
    /// Initial data for unit `idx` (the arrays that move with it).
    fn init_unit(&self, idx: usize) -> UnitData;
    /// Compute unit `idx` for one invocation (real arithmetic, in place).
    fn compute(&self, idx: usize, unit: &mut UnitData, invocation: u64);
    /// CPU cost of one `compute` call (the uniform estimate; see
    /// [`IndependentKernel::unit_cost_for`] for irregular loops).
    fn unit_cost(&self) -> CpuWork;

    /// CPU cost of computing a *specific* unit. Irregular applications
    /// (§2.1: "the load balancer cannot always assume that both the number
    /// and the size of work units will remain constant") override this; the
    /// balancer never sees it — it still reasons in units/second, which is
    /// exactly how the paper's design absorbs irregularity.
    fn unit_cost_for(&self, _idx: usize, _invocation: u64) -> CpuWork {
        self.unit_cost()
    }

    /// Per-unit contribution to a global convergence metric, accumulated by
    /// whichever slave computed the unit and reduced by the master at each
    /// invocation boundary (zero for fixed-trip-count loops).
    fn local_metric(&self, _idx: usize, _unit: &UnitData) -> f64 {
        0.0
    }

    /// Data-dependent WHILE termination (§4.1): called by the master with
    /// the reduced metric after each invocation settles; returning `true`
    /// ends the loop early. `invocations()` stays the upper bound. The
    /// default keeps the classic fixed-trip-count behaviour.
    fn converged(&self, _invocation: u64, _metric: f64) -> bool {
        false
    }

    /// How many units [`IndependentKernel::compute_group`] takes at once.
    /// The engine still charges, hooks and counts one unit at a time; a
    /// group only lets the host arithmetic of the next units run ahead.
    fn group(&self) -> usize {
        1
    }

    /// Compute every unit of `units` for `invocation`, each exactly as
    /// [`IndependentKernel::compute`] would: a group may share host work
    /// (one pass over replicated data), never change a result.
    fn compute_group(&self, units: &mut [(usize, &mut UnitData)], invocation: u64) {
        for (idx, unit) in units {
            self.compute(*idx, unit, invocation);
        }
    }
}

/// Kernel for [`dlb_compiler::Pattern::Pipelined`] programs (SOR):
/// iterations (columns) carry nearest-neighbour dependences; each sweep
/// pipelines along the rows in blocks.
///
/// Columns are `Vec<f64>` of length `col_len()`; entries `0` and
/// `col_len()-1` are fixed boundary rows. Interior rows `1..col_len()-1`
/// are computed in `rows_per_sweep()` steps, strip-mined into blocks by the
/// runtime.
pub trait PipelinedKernel: Send + Sync + 'static {
    /// Number of interior columns (work units). Unit `i` is global column
    /// `i + 1` (column 0 is the left wall).
    fn n_units(&self) -> usize;
    /// Length of a column vector (number of rows incl. the two walls).
    fn col_len(&self) -> usize;
    /// Number of sweeps (invocations of the distributed loop).
    fn sweeps(&self) -> u64;
    /// Initial values of interior column `idx`.
    fn init_unit(&self, idx: usize) -> Vec<f64>;
    /// The fixed left wall (global column 0).
    fn left_wall(&self) -> Vec<f64>;
    /// The fixed right wall (global column `n_units()+1`).
    fn right_wall(&self) -> Vec<f64>;
    /// Update `col`'s rows `rows` (interior indices) in place for one
    /// sweep step: `left` holds the left neighbour's *new* values, and
    /// `right_old` the right neighbour's *previous-sweep* values.
    fn compute_block(
        &self,
        col: &mut [f64],
        left: &[f64],
        right_old: &[f64],
        rows: std::ops::Range<usize>,
    );
    /// CPU cost of updating a single element.
    fn elem_cost(&self) -> CpuWork;
}

/// Kernel for [`dlb_compiler::Pattern::Shrinking`] programs (LU): at step
/// `k`, unit `k` becomes the pivot (finalized and broadcast) and all units
/// `j > k` are updated with it; the active set shrinks by one per step.
pub trait ShrinkingKernel: Send + Sync + 'static {
    /// Number of columns (work units). Steps run `0..n_units()-1`.
    fn n_units(&self) -> usize;
    /// Initial data for column `idx`.
    fn init_unit(&self, idx: usize) -> Vec<f64>;
    /// Data broadcast for step `k` from the (finalized) pivot column.
    fn pivot_payload(&self, k: usize, pivot_col: &[f64]) -> Vec<f64>;
    /// Update active column `j` for step `k` in place.
    fn update(&self, j: usize, col: &mut [f64], pivot: &[f64], k: usize);
    /// CPU cost of one `update` call at step `k`.
    fn step_cost(&self, k: usize) -> CpuWork;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A trivial independent kernel: unit i holds [i]; compute doubles.
    /// Also the application behind the master and session unit tests.
    pub(crate) struct Doubler {
        pub n: usize,
        pub reps: u64,
    }

    impl IndependentKernel for Doubler {
        fn n_units(&self) -> usize {
            self.n
        }
        fn invocations(&self) -> u64 {
            self.reps
        }
        fn init_unit(&self, idx: usize) -> UnitData {
            vec![vec![idx as f64]]
        }
        fn compute(&self, _idx: usize, unit: &mut UnitData, _invocation: u64) {
            unit[0][0] *= 2.0;
        }
        fn unit_cost(&self) -> CpuWork {
            CpuWork::from_millis(10)
        }
    }

    /// A four-column shrinking kernel that never computes: column `id`
    /// starts at `[id]`, so the epoch-zero snapshot of unit `id` is `[[id]]`.
    /// The rollback-policy application of the master and session tests.
    pub(crate) struct Cols;

    impl ShrinkingKernel for Cols {
        fn n_units(&self) -> usize {
            4
        }
        fn init_unit(&self, idx: usize) -> Vec<f64> {
            vec![idx as f64]
        }
        fn pivot_payload(&self, _k: usize, pivot_col: &[f64]) -> Vec<f64> {
            pivot_col.to_vec()
        }
        fn update(&self, _j: usize, _col: &mut [f64], _pivot: &[f64], _k: usize) {}
        fn step_cost(&self, _k: usize) -> CpuWork {
            CpuWork::from_millis(10)
        }
    }

    #[test]
    fn kernel_traits_are_object_safe() {
        let k: std::sync::Arc<dyn IndependentKernel> =
            std::sync::Arc::new(Doubler { n: 4, reps: 2 });
        let mut u = k.init_unit(3);
        k.compute(3, &mut u, 0);
        k.compute(3, &mut u, 1);
        assert_eq!(u[0][0], 12.0);
    }
}
