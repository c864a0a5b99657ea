//! The six named workloads: which cells each runs, at what size, and how the
//! `--seed` reaches them.
//!
//! A *cell* is one `try_run`: a problem (MM / SOR / LU), a cluster width, and
//! a fault shape. A *pass* runs a workload's cells once, serially. The seed
//! feeds the problem data, `FaultPlan::new` and the slaves' speeds (within
//! 0.1% of reference); the program under test only ever sees the generated
//! inputs.
//!
//! Sizes are constants. They were probed on a 2-core container so that one
//! pass of every workload costs 0.5–1.6 s of host time (the driver's contract
//! allows ~20 s per run including warm-up), while each workload keeps the
//! layer split it exists for — see README.md for the measured shares.

use crate::layers::{AppsMeter, Timed};
use dlb_apps::{Calibration, Lu, MatMul, Sor};
use dlb_compiler::ParallelPlan;
use dlb_core::driver::{AppSpec, RunConfig, RunReport};
use dlb_sim::{FaultPlan, LoadModel, NodeConfig, Pcg32, SimDuration, SimTime};
use std::sync::Arc;

/// Problem shape of one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Problem {
    Mm { n: usize, reps: u64, mflops: f64 },
    Sor { n: usize, sweeps: u64, mflops: f64 },
    Lu { n: usize, mflops: f64 },
}

impl Problem {
    /// Engine short name; also the per-engine aggregate key (`cell.mm.*`).
    pub fn engine(&self) -> &'static str {
        match self {
            Problem::Mm { .. } => "mm",
            Problem::Sor { .. } => "sor",
            Problem::Lu { .. } => "lu",
        }
    }

    /// Length of the vectors the engine ships between slaves (LU pivot
    /// broadcast, SOR boundary column, MM row): the `Msg` payload size the
    /// `core.msg.clone_ns_per_kib` probe clones.
    pub fn column_len(&self) -> usize {
        match *self {
            Problem::Mm { n, .. } | Problem::Sor { n, .. } | Problem::Lu { n, .. } => n,
        }
    }

    /// Suspicion window (virtual ms) for fault-mode cells, per engine — the
    /// `ind` / `pipe` / `shrink` windows of `tests/chaos_wide.rs`: the window
    /// must outlast the longest legitimate silence, which scales with
    /// pipeline depth.
    fn suspicion_ms(&self) -> u64 {
        match self {
            Problem::Mm { .. } => 2_000,
            Problem::Sor { .. } => 16_000,
            Problem::Lu { .. } => 12_000,
        }
    }
}

/// Fault shape of one cell. Times are virtual microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// `fault_plan = None`: the `run_plain` master loop.
    Plain,
    /// `fault_plan = Some(FaultPlan::new(seed))` with nothing scheduled: pays
    /// the session steady state (acks, heartbeats, checkpoints, replicas).
    Armed,
    /// Slave `victim` crashes at `at`.
    Crash { victim: usize, at: u64 },
    /// `size` adjacent slaves from `victim` on are cut off during
    /// `[from, until)`.
    Partition {
        victim: usize,
        size: usize,
        from: u64,
        until: u64,
    },
    /// Slave `victim` starts empty and joins the running pool at `at`.
    Join { victim: usize, at: u64 },
}

impl Fault {
    /// Injected fault events in this cell (the base of `rollbacks_per_fault`).
    pub fn injected(&self) -> u64 {
        match self {
            Fault::Plain | Fault::Armed => 0,
            Fault::Crash { .. } | Fault::Partition { .. } | Fault::Join { .. } => 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// `mm`, `sor`, `lu`, or `<app>_<crash|part|join>`.
    pub name: &'static str,
    pub problem: Problem,
    pub slaves: usize,
    pub fault: Fault,
    /// `fault_tolerance.rejoin_attempts` for fault-mode cells.
    pub rejoin_attempts: u32,
    /// Livelock budget: a run past it panics and counts as failed.
    pub max_events: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub cells: Vec<CellSpec>,
}

impl Workload {
    /// Cluster width of the workload (all its cells share it).
    pub fn width(&self) -> usize {
        self.cells[0].slaves
    }

    /// Longest shipped column among the cells.
    pub fn column_len(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.problem.column_len())
            .max()
            .expect("a workload has cells")
    }
}

fn cell(
    name: &'static str,
    problem: Problem,
    slaves: usize,
    fault: Fault,
    rejoin_attempts: u32,
) -> CellSpec {
    CellSpec {
        name,
        problem,
        slaves,
        fault,
        rejoin_attempts,
        max_events: 20_000_000,
    }
}

// Width-4 problems use the paper-era calibration (1 Mflop/s,
// `Calibration::default()`): the Fig. 7 environment.
const MM_W4: Problem = Problem::Mm {
    n: 640,
    reps: 4,
    mflops: 1.0,
};
const SOR_W4: Problem = Problem::Sor {
    n: 514,
    sweeps: 4,
    mflops: 0.02,
};
const LU_W4: Problem = Problem::Lu {
    n: 512,
    mflops: 1.0,
};

/// Width of the `wide_*` and `chaos_wide` workloads. `tests/chaos_wide.rs`
/// runs 256 slaves; there one `chaos_wide` pass costs ~25 s of host time on 2
/// cores (each armed LU cell alone is 6 s), which the driver's per-run budget
/// cannot hold. 64 keeps the same layers in play at 0.2–0.5 s per pass.
const WIDE: usize = 64;

// Wide problems are the `tests/chaos_wide.rs` shapes at a quarter of its
// width: every slave holds about one unit, so protocol width dominates. The
// calibrations keep the test's virtual cost per unit (MM ~44 ms per row
// block, SOR ~89 ms per column sweep, LU ~5 ms per first-step update), so its
// fault instants and suspicion windows keep their meaning.
const MM_WIDE_MFLOPS: f64 = 0.1875;
const SOR_WIDE_MFLOPS: f64 = 0.02 * 76.0 / 300.0;
// Fault-free wide cells repeat the invocation loop long enough for the
// balancer to settle. The chaos cells run six MM invocations so that the
// crash fires before the run ends and the master is still admitting at
// barriers when a healed minority or a latecomer asks for its seat.
const MM_WIDE: Problem = Problem::Mm {
    n: 64,
    reps: 60,
    mflops: MM_WIDE_MFLOPS,
};
const MM_CHAOS: Problem = Problem::Mm {
    n: 64,
    reps: 6,
    mflops: MM_WIDE_MFLOPS,
};
const SOR_WIDE: Problem = Problem::Sor {
    n: 76,
    sweeps: 30,
    mflops: SOR_WIDE_MFLOPS,
};
const SOR_CHAOS: Problem = Problem::Sor {
    n: 76,
    sweeps: 3,
    mflops: SOR_WIDE_MFLOPS,
};
const LU_WIDE: Problem = Problem::Lu {
    n: 68,
    mflops: 0.1 * 68.0 / 260.0,
};
/// The test's LU, at its own size.
const LU_REJOIN: Problem = Problem::Lu {
    n: 260,
    mflops: 0.1,
};

/// The six workloads.
///
/// Victims are constants (the test's slave indices at 256, divided by four),
/// not seed-drawn: recovery is discontinuous in the victim (one LU crash
/// costs 3 or 600 rollbacks depending on who dies), so a seed-drawn victim
/// would make the run-to-run spread meaningless.
pub fn workloads() -> Vec<Workload> {
    let w = WIDE;
    vec![
        Workload {
            name: "compute_w4",
            why: "MM at 4 slaves: crates/apps arithmetic does >80% of host work, kernel and protocol almost none; the paper's Fig. 7 cluster",
            cells: vec![cell("mm", MM_W4, 4, Fault::Plain, 0)],
        },
        Workload {
            name: "events_w4",
            why: "SOR+LU at 4 slaves: event-bound, tiny poll batches; per-event cost of the sim kernel loop and slave state machines dominates",
            cells: vec![
                cell("sor", SOR_W4, 4, Fault::Plain, 0),
                cell("lu", LU_W4, 4, Fault::Plain, 0),
            ],
        },
        Workload {
            name: "wide_plain",
            why: "MM/SOR/LU one unit per slave, no fault plan: a status stream per slave, all-slave pivot broadcasts, Msg clones, poll batches up to 65 (where sim.pool.* could show a gain)",
            cells: vec![
                cell("mm", MM_WIDE, w, Fault::Plain, 0),
                cell("sor", SOR_WIDE, w, Fault::Plain, 0),
                cell("lu", LU_WIDE, w, Fault::Plain, 0),
            ],
        },
        Workload {
            name: "wide_armed",
            why: "the wide_plain cells with fault mode armed and no fault fired: pays acks, heartbeats, checkpoints, replicas, never recovers",
            cells: vec![
                cell("mm", MM_WIDE, w, Fault::Armed, 10),
                cell("sor", SOR_WIDE, w, Fault::Armed, 10),
                cell("lu", LU_WIDE, w, Fault::Armed, 10),
            ],
        },
        Workload {
            name: "chaos_wide",
            why: "crash, partition+heal and late join on wide MM/SOR/LU: rollback, re-scatter, eviction, snapshot shipping, admission do the work",
            cells: vec![
                cell("mm_crash", MM_CHAOS, w, Fault::Crash { victim: 9, at: 400_000 }, 10),
                cell("sor_crash", SOR_CHAOS, w, Fault::Crash { victim: 30, at: 600_000 }, 10),
                // The shrinking engine's rejoin admission flaps at width (see
                // rejoin_w16): the LU crash and partition cells keep evicted
                // slaves out, the LU join cell caps the retry at one.
                cell("lu_crash", LU_WIDE, w, Fault::Crash { victim: 50, at: 500_000 }, 0),
                // The test heals the MM partition at 3 s; at width 64 that
                // instant falls on a rejoin-retry boundary and the run ends at
                // 27.6 or 35.2 virtual seconds depending on the seed's speeds.
                cell(
                    "mm_part",
                    MM_CHAOS,
                    w,
                    Fault::Partition { victim: 10, size: 3, from: 300_000, until: 4_000_000 },
                    10,
                ),
                cell(
                    "sor_part",
                    SOR_CHAOS,
                    w,
                    Fault::Partition { victim: 32, size: 2, from: 600_000, until: 40_000_000 },
                    10,
                ),
                cell(
                    "lu_part",
                    LU_WIDE,
                    w,
                    Fault::Partition { victim: 52, size: 3, from: 400_000, until: 8_000_000 },
                    0,
                ),
                cell("mm_join", MM_CHAOS, w, Fault::Join { victim: 25, at: 300_000 }, 10),
                cell("sor_join", SOR_CHAOS, w, Fault::Join { victim: 35, at: 400_000 }, 10),
                cell("lu_join", LU_WIDE, w, Fault::Join { victim: 13, at: 300_000 }, 1),
            ],
        },
        Workload {
            name: "rejoin_w16",
            why: "LU at 16 slaves, slave 0 crashes, rejoin on: isolates the shrinking engine's evict/readmit/rollback flap so a fix shows here and nowhere else",
            // Ten rejoin attempts (the `tests/chaos_wide.rs` setting) flap
            // through 617 rollbacks and 7+ s of host time per run here; two
            // already show 63 rollbacks for the one injected crash.
            cells: vec![CellSpec {
                max_events: 50_000_000,
                ..cell("lu_crash", LU_REJOIN, 16, Fault::Crash { victim: 0, at: 500_000 }, 2)
            }],
        },
    ]
}

/// A built problem: the kernel (shared with the engine), its plan, and what
/// the harness needs to verify and score a run of it.
pub enum Kernel {
    Mm(Arc<MatMul>),
    Sor(Arc<Sor>),
    Lu(Arc<Lu>),
}

impl Kernel {
    pub fn build(problem: Problem, seed: u64) -> Kernel {
        match problem {
            Problem::Mm { n, reps, mflops } => Kernel::Mm(Arc::new(MatMul::new(
                n,
                reps,
                seed,
                &Calibration::new(mflops),
            ))),
            Problem::Sor { n, sweeps, mflops } => Kernel::Sor(Arc::new(Sor::new(
                n,
                sweeps,
                seed,
                &Calibration::new(mflops),
            ))),
            Problem::Lu { n, mflops } => {
                Kernel::Lu(Arc::new(Lu::new(n, seed, &Calibration::new(mflops))))
            }
        }
    }

    pub fn compile(&self) -> ParallelPlan {
        let program = match self {
            Kernel::Mm(k) => k.program(),
            Kernel::Sor(k) => k.program(),
            Kernel::Lu(k) => k.program(),
        };
        dlb_compiler::compile(&program).expect("built-in programs compile")
    }

    /// The kernel as the engine takes it; with a `meter`, behind the traced
    /// pass's timing decorator.
    pub fn app_spec(&self, meter: Option<&Arc<AppsMeter>>) -> AppSpec {
        match (self, meter) {
            (Kernel::Mm(k), None) => AppSpec::Independent(k.clone()),
            (Kernel::Sor(k), None) => AppSpec::Pipelined(k.clone()),
            (Kernel::Lu(k), None) => AppSpec::Shrinking(k.clone()),
            (Kernel::Mm(k), Some(m)) => AppSpec::Independent(Timed::new(k.clone(), m)),
            (Kernel::Sor(k), Some(m)) => AppSpec::Pipelined(Timed::new(k.clone(), m)),
            (Kernel::Lu(k), Some(m)) => AppSpec::Shrinking(Timed::new(k.clone(), m)),
        }
    }

    /// The sequential reference, in the same layout as [`Kernel::result`].
    pub fn sequential(&self) -> Vec<Vec<f64>> {
        match self {
            Kernel::Mm(k) => k.sequential(),
            Kernel::Sor(k) => k.sequential(),
            Kernel::Lu(k) => k.sequential(),
        }
    }

    pub fn sequential_time(&self) -> SimDuration {
        match self {
            Kernel::Mm(k) => k.sequential_time(),
            Kernel::Sor(k) => k.sequential_time(),
            Kernel::Lu(k) => k.sequential_time(),
        }
    }

    /// A run's gathered result, laid out like the reference.
    pub fn result(&self, report: &RunReport) -> Vec<Vec<f64>> {
        match self {
            Kernel::Mm(_) => MatMul::result_c(&report.result),
            Kernel::Sor(k) => k.result_grid(&report.result),
            Kernel::Lu(_) => Lu::result_cols(&report.result),
        }
    }
}

impl CellSpec {
    /// The cell's `RunConfig` for `seed`. `workers` overrides the pool size
    /// (`Some(0)` = inline); `plain` strips the fault plan (the
    /// `armed_over_plain` denominator).
    pub fn config(&self, seed: u64, workers: Option<usize>) -> RunConfig {
        let mut cfg = RunConfig::homogeneous(self.slaves);
        cfg.balancer.enabled = true;
        // The paper's Fig. 7 environment: one constant competing task on
        // processor 0.
        cfg.slave_nodes[0] = NodeConfig::with_load(LoadModel::Constant(1));
        // No two workstations are identical: seed-drawn speeds within 0.1% of
        // reference. Enough that the virtual clock depends on the seed; small
        // enough that no balancing or recovery decision flips with it (at 1%,
        // or with a seed-drawn arrival of the competing task, runs split into
        // two populations 4% apart in virtual time).
        let mut speeds = Pcg32::with_stream(seed, 0x5eed);
        for node in &mut cfg.slave_nodes {
            node.speed = 1.0 + 0.001 * speeds.next_f64_signed();
        }
        cfg.worker_threads = workers;
        cfg.max_events = Some(self.max_events);
        if self.fault == Fault::Plain {
            return cfg;
        }

        // Node 0 is the master; node i + 1 is slave i.
        let mut plan = FaultPlan::new(seed);
        match self.fault {
            Fault::Plain | Fault::Armed => {}
            Fault::Crash { victim, at } => plan = plan.crash(victim + 1, SimTime(at)),
            Fault::Partition {
                victim,
                size,
                from,
                until,
            } => {
                let minority = (victim..victim + size).map(|s| s + 1).collect();
                plan = plan.partition(SimTime(from), SimTime(until), vec![minority]);
            }
            Fault::Join { victim, at } => cfg.late_joiners = vec![(victim, SimTime(at))],
        }
        cfg.fault_plan = Some(plan);

        let suspicion_ms = self.problem.suspicion_ms();
        let ft = &mut cfg.fault_tolerance;
        ft.suspicion = SimDuration::from_millis(suspicion_ms);
        ft.speculate_after = SimDuration::from_millis(suspicion_ms * 5 / 8);
        ft.nudge = SimDuration::from_millis(suspicion_ms / 4);
        ft.slave_heartbeat = SimDuration::from_millis((suspicion_ms / 8).max(300));
        ft.rejoin_attempts = self.rejoin_attempts;
        ft.rejoin_backoff = SimDuration::from_millis((suspicion_ms / 4).max(500));
        cfg
    }

    /// The same cell with the fault plan stripped.
    pub fn plain(&self) -> CellSpec {
        CellSpec {
            fault: Fault::Plain,
            ..*self
        }
    }
}
