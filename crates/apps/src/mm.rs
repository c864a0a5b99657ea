//! Matrix multiplication (the paper's MM, Table 1 column 1).
//!
//! `C = A × B`, distributed over the rows of `C` (and the aligned rows of
//! `A`); `B` is replicated on every slave. An application-level repetition
//! count models MM embedded in an outer loop (each rep accumulates another
//! `A×B` into `C`), which is how the paper's Fig. 9 keeps MM running across
//! several load oscillations.
//!
//! # Operation order is the contract, layout is not
//!
//! Every run is verified bit for bit against [`MatMul::sequential`], and a
//! test below pins the values themselves (a hash over `f64::to_bits` of C).
//! What fixes them is the sequence of floating-point operations behind each
//! element: `acc = 0.0`, then `acc += A[i][k] * B[k][j]` for `k` ascending,
//! then `C[i][j] += acc`, once per repetition. How B is stored, and how many
//! elements of C are in flight at once, is free.
//!
//! B is stored packed in panels of `PANEL` = 16 columns (`pack_panels`: one
//! flat `Vec<f64>`, panel `p` laid out `[k][w]` for column `16 p + w`, the
//! last panel zero-padded), and `rows_step` carries one accumulator per column
//! of a panel through a single walk over `k`. Each accumulator still receives
//! exactly the operands above in exactly that order - the sixteen chains
//! never mix - and Rust never contracts `a * b + c` into a fused
//! multiply-add, so every rounding step is the one the column-at-a-time dot
//! product made, at any vector width (CI job `apps-isa` rebuilds this crate's
//! tests with `-C target-cpu=native`).
//!
//! What it buys is host time. One add chain per element runs at the
//! floating-point adder's latency and cannot be vectorised without
//! reassociating it; sixteen independent chains fill the adder's pipeline and
//! adjacent lanes pair up in SSE2 registers on a baseline x86-64 build. On
//! the 2-core reference box `compute_w4/wall_s` (n = 640, 4 reps) went
//! 0.80 -> 0.47 s at the median of ten alternating pairs and
//! `apps/mm_row/640` of the components bench 371 -> 149 us per row.
//!
//! What was left is the stream of B itself: 3.3 MB, more than that box's L2,
//! read once per row of C. So `rows_step` takes a group of rows and walks
//! each B panel once for all of them: the 80 KB panel read for the group's
//! first row is served from cache for the rest. A unit is still one row -
//! the engines charge virtual time, fire hooks and move work per unit - but
//! the independent engine lets the host arithmetic run ahead: it computes a
//! unit together with up to `GROUP - 1` of its next undone units, on copies it
//! swaps in at their own turns ([`IndependentKernel::compute_group`]). The
//! virtual schedule does not see it, and every element still gets the add
//! chain above, so C is the same to the bit.

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
    /// B (replicated), packed by [`pack_panels`] for [`rows_step`].
    b_panels: Vec<f64>,
    unit_cost: CpuWork,
}

impl MatMul {
    /// Build an n×n problem with deterministic pseudo-random inputs.
    pub fn new(n: usize, reps: u64, seed: u64, cal: &Calibration) -> MatMul {
        assert!(n > 0 && reps > 0);
        let a = seeded_matrix(n, n, seed ^ 0xA);
        let b_panels = pack_panels(&seeded_matrix(n, n, seed ^ 0xB));
        // One unit = one row of C = 2n^2 flops.
        let unit_cost = cal.work_for_flops(2.0 * (n as f64) * (n as f64));
        MatMul {
            n,
            reps,
            a,
            b_panels,
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
            for (a, c) in self.a.chunks(GROUP).zip(c.chunks_mut(GROUP)) {
                let rows = a.iter().zip(c).map(|(a, c)| (&a[..], &mut c[..]));
                rows_step(&self.b_panels, &mut rows.collect::<Vec<_>>());
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

/// Columns of B per panel, hence independent accumulators in [`rows_step`].
/// Sixteen `f64`s are eight SSE2 registers, half the file; 8 and 32 were no
/// faster on the `apps/mm_row` probe, so this is a constant, not a knob.
const PANEL: usize = 16;

/// Pack row-major `b` (n × n) into `ceil(n / PANEL)` panels of `PANEL`
/// columns each: panel `p` is `n * PANEL` consecutive values laid out
/// `[k][w]`, holding `b[k][p * PANEL + w]`. The last panel's columns past
/// `n` are zero padding that [`rows_step`] computes on and throws away.
fn pack_panels(b: &[Vec<f64>]) -> Vec<f64> {
    let n = b.len();
    let mut packed = Vec::with_capacity(n.div_ceil(PANEL) * n * PANEL);
    for first in (0..n).step_by(PANEL) {
        for row in b {
            let cols = &row[first..n.min(first + PANEL)];
            packed.extend_from_slice(cols);
            packed.resize(packed.len() + PANEL - cols.len(), 0.0);
        }
    }
    packed
}

/// Rows of C per [`rows_step`] call: what the kernel offers the engine as
/// its [`IndependentKernel::group`], and the chunk [`MatMul::sequential`]
/// walks C in. At n = 640 on the 2-core reference box (48 KB L1d and 2 MB
/// L2 per core) a row cost 130 us alone and 72, 68, 68 and 68 us in groups
/// of 8, 16, 24 and 32 (best of 15 alternating runs of a loop over
/// `rows_step`; `apps/mm_group/640` of the components bench times the group
/// this sets). Past 16 the per-row time stops falling, while a move order
/// can drop up to `GROUP - 1` rows computed ahead. So 16, a constant, not a
/// knob.
const GROUP: usize = 16;

/// One invocation's work for a group of rows: `c_row += a_row × B` for each
/// `(a_row, c_row)`.
///
/// Each `c_row[j]` receives `0.0 + a[0]·B[0][j] + a[1]·B[1][j] + …` in
/// ascending `k`, then one `+=` - the order the module doc fixes. The
/// `PANEL` sums of a panel advance together, one `k` at a time: they are
/// independent add chains, so the adder pipeline stays full and adjacent
/// lanes vectorise, without any of them being reassociated. The rows take
/// their turns panel by panel, so a panel read for the first row is still
/// in cache for the rest; no row's arithmetic depends on the others.
fn rows_step(b_panels: &[f64], rows: &mut [(&[f64], &mut [f64])]) {
    let Some(n) = rows.first().map(|(a_row, _)| a_row.len()) else {
        return;
    };
    for (p, panel) in b_panels.chunks_exact(n * PANEL).enumerate() {
        for (a_row, c_row) in rows.iter_mut() {
            let mut acc = [0.0; PANEL];
            for (av, b_k) in a_row.iter().zip(panel.chunks_exact(PANEL)) {
                for (sum, bv) in acc.iter_mut().zip(b_k) {
                    *sum += av * bv;
                }
            }
            // A ragged last panel has fewer than PANEL columns of C: the zip
            // stops there and the padded lanes' sums are dropped.
            for (c, sum) in c_row[p * PANEL..].iter_mut().zip(acc) {
                *c += sum;
            }
        }
    }
}

/// A unit's `[a_row, c_row]`, split for [`rows_step`].
fn row_pair(unit: &mut UnitData) -> (&[f64], &mut [f64]) {
    let (a_row, rest) = unit.split_first_mut().expect("unit has [a, c]");
    (a_row, &mut rest[0])
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
        rows_step(&self.b_panels, &mut [row_pair(unit)]);
    }

    fn group(&self) -> usize {
        GROUP
    }

    fn compute_group(&self, units: &mut [(usize, &mut UnitData)], _invocation: u64) {
        let rows = units.iter_mut().map(|(_, unit)| row_pair(unit));
        rows_step(&self.b_panels, &mut rows.collect::<Vec<_>>());
    }

    fn unit_cost(&self) -> CpuWork {
        self.unit_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Order, not just agreement: every element against a plain in-order
    /// dot product, `to_bits`-equal, at sizes below, at, and either side of
    /// one and two panels.
    #[test]
    fn row_step_is_the_in_order_dot_product() {
        let cal = Calibration::default();
        for n in [1, 2, 15, 16, 17, 31, 33, 64, 100] {
            for reps in [1, 3] {
                let mm = MatMul::new(n, reps, 42, &cal);
                let b = seeded_matrix(n, n, 42 ^ 0xB);
                let c = mm.sequential();
                for i in 0..n {
                    for j in 0..n {
                        let mut want = 0.0f64;
                        for _rep in 0..reps {
                            let mut acc = 0.0;
                            for k in 0..n {
                                acc += mm.a[i][k] * b[k][j];
                            }
                            want += acc;
                        }
                        assert_eq!(
                            c[i][j].to_bits(),
                            want.to_bits(),
                            "n={n} reps={reps} C[{i}][{j}]"
                        );
                    }
                }
            }
        }
    }

    /// The last panel's padded lanes are computed on but must never reach
    /// C: poison them and nothing may change.
    #[test]
    fn padded_lanes_never_reach_c() {
        let cal = Calibration::default();
        for n in [1, 17, 50] {
            let clean = MatMul::new(n, 2, 9, &cal);
            assert_eq!(clean.b_panels.len(), n.div_ceil(PANEL) * n * PANEL);
            let mut poisoned = MatMul::new(n, 2, 9, &cal);
            let last = poisoned.b_panels.len() - n * PANEL;
            let mut padding = 0;
            for b_k in poisoned.b_panels[last..].chunks_exact_mut(PANEL) {
                for lane in &mut b_k[n % PANEL..] {
                    assert_eq!(lane.to_bits(), 0, "padding is +0.0");
                    *lane = f64::NAN;
                    padding += 1;
                }
            }
            assert_eq!(padding, n * (PANEL - n % PANEL));
            assert_eq!(poisoned.sequential(), clean.sequential(), "n={n}");
            for size in 1..=n.min(GROUP + 1) {
                let rows = |mm: &MatMul| grouped(mm, 0, size, 2);
                assert_eq!(rows(&poisoned), rows(&clean), "n={n} group of {size}");
            }
        }
    }

    /// Units `first..first + size` of `mm` after `invs` invocations, each
    /// invocation one `compute_group` call over all of them.
    fn grouped(mm: &MatMul, first: usize, size: usize, invs: u64) -> Vec<UnitData> {
        let mut units: Vec<_> = (first..first + size).map(|i| mm.init_unit(i)).collect();
        for inv in 0..invs {
            let ids = first..first + size;
            let mut group: Vec<_> = ids.zip(units.iter_mut()).collect();
            mm.compute_group(&mut group, inv);
        }
        units
    }

    /// A group is only a way to share the walk over B: every row it
    /// computes is `to_bits`-equal to the same row through `compute`, for
    /// groups smaller than, equal to, and larger than the kernel's own.
    #[test]
    fn compute_group_is_compute_row_by_row() {
        let cal = Calibration::default();
        for n in [1, 15, 16, 17, 33, 50] {
            let mm = MatMul::new(n, 2, 11, &cal);
            for size in 1..=GROUP + 1 {
                let first = (n / 3).min(n.saturating_sub(size));
                let size = size.min(n - first);
                for (i, got) in (first..).zip(grouped(&mm, first, size, 2)) {
                    let mut want = mm.init_unit(i);
                    mm.compute(i, &mut want, 0);
                    mm.compute(i, &mut want, 1);
                    let bits = |u: &UnitData| -> Vec<u64> {
                        u.iter().flatten().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "n={n} group of {size}, row {i}");
                }
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
